//! Corruption robustness for the v2 snapshot format.
//!
//! Contract (ISSUE PR 4): any truncation or bit flip of a v2 snapshot —
//! at section boundaries or anywhere else — surfaces as a `StorageError`
//! from every entry point (`from_bytes`, `open_file`, `summarize`), and
//! never as a panic or an attempted oversized allocation. Declared counts
//! are clamped against the remaining input before any allocation, which
//! the hostile-varint cases exercise directly with checksum verification
//! switched off (with it on, the checksum masks every payload edit). The
//! sweeps run over a generated corpus's snapshot and the committed
//! `dblp50.xml`'s. Input an earlier build read — an older format, or an
//! older section layout — is refused with the way out: rebuild.

use xclean_suite::datagen::{generate_dblp, DblpConfig};
use xclean_suite::index::{storage, CorpusIndex, OpenOptions, SlabMode};
use xclean_suite::xmltree::parse_document;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xclean_snapshot_corruption");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn snapshot() -> Vec<u8> {
    let index = CorpusIndex::build(generate_dblp(&DblpConfig {
        publications: 40,
        ..Default::default()
    }));
    storage::to_bytes_v2(&index)
}

/// A generated corpus's snapshot and the committed `dblp50.xml`'s.
fn snapshots() -> [Vec<u8>; 2] {
    let xml = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/dblp50.xml"
    ))
    .unwrap();
    let dblp50 = CorpusIndex::build(parse_document(&xml).unwrap());
    [snapshot(), storage::to_bytes_v2(&dblp50)]
}

/// Reads the v2 header (magic 8 + checksum 8 + count 1 + 17-byte table
/// entries) and returns every structural boundary: header fields, each
/// section's start and end.
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let count = bytes[16] as usize;
    let mut out = vec![0, 8, 16, 17, 17 + 17 * count];
    for i in 0..count {
        let e = 17 + i * 17;
        let off = u64::from_le_bytes(bytes[e + 1..e + 9].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[e + 9..e + 17].try_into().unwrap()) as usize;
        out.push(off);
        out.push(off + len);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Every read path must reject `bytes`; the file-backed paths are
/// exercised with checksum verification both on and off, so structural
/// validation has to hold on its own.
fn assert_rejected(name: &str, bytes: &[u8]) {
    assert!(
        storage::from_bytes(bytes).is_err(),
        "{name}: from_bytes accepted corrupt input"
    );
    assert!(
        storage::summarize(bytes).is_err(),
        "{name}: summarize accepted corrupt input"
    );
    // Tests in this binary run concurrently — every case gets its own file.
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = tmp(&format!("corrupt_{n}.xci"));
    std::fs::write(&path, bytes).unwrap();
    for verify_checksum in [true, false] {
        let opts = OpenOptions {
            verify_checksum,
            ..Default::default()
        };
        assert!(
            storage::open_file(&path, &opts).is_err(),
            "{name}: open_file(verify_checksum={verify_checksum}) accepted corrupt input"
        );
    }
}

#[test]
fn truncation_at_every_boundary_and_step_is_rejected() {
    for bytes in snapshots() {
        truncation_sweep(&bytes);
    }
}

fn truncation_sweep(bytes: &[u8]) {
    let mut cuts: Vec<usize> = Vec::new();
    for b in boundaries(bytes) {
        cuts.extend([b.saturating_sub(1), b, (b + 1).min(bytes.len())]);
    }
    cuts.extend((0..bytes.len()).step_by(97));
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        if cut >= bytes.len() {
            continue;
        }
        assert_rejected(
            &format!("truncated at {cut}/{}", bytes.len()),
            &bytes[..cut],
        );
    }
}

#[test]
fn bit_flips_at_boundaries_and_random_offsets_are_rejected() {
    for bytes in snapshots() {
        bit_flip_sweep(&bytes);
    }
}

fn bit_flip_sweep(bytes: &[u8]) {
    let mut offsets: Vec<usize> = boundaries(bytes)
        .into_iter()
        .filter(|&b| b < bytes.len())
        .collect();
    // Fixed-seed xorshift so every run hits the same "random" offsets.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..200 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        offsets.push((state % bytes.len() as u64) as usize);
    }
    offsets.sort_unstable();
    offsets.dedup();
    for off in offsets {
        for bit in [0u8, 3, 7] {
            let mut corrupt = bytes.to_vec();
            corrupt[off] ^= 1 << bit;
            // The checksum-verified paths must reject any payload flip;
            // header flips fail the structural checks instead.
            assert!(
                storage::from_bytes(&corrupt).is_err(),
                "bit {bit} at {off}: from_bytes accepted the flip"
            );
            assert!(
                storage::summarize(&corrupt[..]).is_err(),
                "bit {bit} at {off}: summarize accepted the flip"
            );
            let path = tmp(&format!("flip_{off}_{bit}.xci"));
            std::fs::write(&path, &corrupt).unwrap();
            assert!(
                storage::open_file(&path, &OpenOptions::default()).is_err(),
                "bit {bit} at {off}: open_file accepted the flip"
            );
        }
    }
}

/// Hostile length prefixes: overwrite the first bytes of each section
/// with a maximal varint. With checksum verification disabled the count
/// clamps are the only line of defence — the load must fail fast with an
/// error, not allocate terabytes or panic.
#[test]
fn hostile_varint_counts_are_clamped_not_allocated() {
    for bytes in snapshots() {
        hostile_count_sweep(&bytes);
    }
}

fn hostile_count_sweep(bytes: &[u8]) {
    let count = bytes[16] as usize;
    let huge_varint: [u8; 10] = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
    for i in 0..count {
        let e = 17 + i * 17;
        let id = bytes[e];
        let off = u64::from_le_bytes(bytes[e + 1..e + 9].try_into().unwrap()) as usize;
        let mut corrupt = bytes.to_vec();
        let end = (off + huge_varint.len()).min(corrupt.len());
        corrupt[off..end].copy_from_slice(&huge_varint[..end - off]);
        let path = tmp(&format!("hostile_{id}.xci"));
        std::fs::write(&path, &corrupt).unwrap();
        for verify_checksum in [true, false] {
            let opts = OpenOptions {
                verify_checksum,
                ..Default::default()
            };
            assert!(
                storage::open_file(&path, &opts).is_err(),
                "section id {id}: hostile count accepted (verify_checksum={verify_checksum})"
            );
        }
    }
}

/// Degenerate inputs: empty file, magic-only, header claiming sections
/// beyond the file, and a section table pointing outside the file.
#[test]
fn degenerate_headers_are_rejected() {
    assert!(storage::from_bytes(&[]).is_err());
    assert!(storage::summarize(&b""[..]).is_err());
    assert!(storage::from_bytes(b"XCLIDX2\0").is_err());

    let bytes = snapshot();
    // Section count inflated: the table would run past the file.
    let mut corrupt = bytes.clone();
    corrupt[16] = 0xFF;
    assert_rejected("inflated section count", &corrupt);

    // First section offset pushed past the end of the file.
    let mut corrupt = bytes.clone();
    let far = (bytes.len() as u64 + 1).to_le_bytes();
    corrupt[18..26].copy_from_slice(&far);
    assert_rejected("offset past EOF", &corrupt);

    // Duplicate section ids.
    let mut corrupt = bytes;
    corrupt[17 + 17] = corrupt[17]; // second entry takes the first's id
    assert_rejected("duplicate section id", &corrupt);
}

/// Every read path refuses `bytes` with an error that says the input is
/// not a current v2 snapshot and names the rebuild; the file-backed path
/// in both slab modes, with checksum verification on and off.
fn assert_refused_with_rebuild_hint(name: &str, bytes: &[u8]) {
    let assert_hint = |path: &str, err: storage::StorageError| {
        let msg = err.to_string();
        for needle in ["not an xclean v2 snapshot", "xclean index build"] {
            assert!(msg.contains(needle), "{name}: {path}: {msg}");
        }
    };
    assert_hint("from_bytes", storage::from_bytes(bytes).unwrap_err());
    assert_hint("summarize", storage::summarize(bytes).unwrap_err());
    let path = tmp(&format!("refused_{name}.xci"));
    std::fs::write(&path, bytes).unwrap();
    let mapped = if cfg!(unix) {
        SlabMode::Mapped
    } else {
        SlabMode::Auto
    };
    for mode in [SlabMode::Owned, mapped] {
        for verify_checksum in [true, false] {
            let opts = OpenOptions {
                mode,
                verify_checksum,
            };
            let label = format!("open_file({mode:?}, verify_checksum={verify_checksum})");
            assert_hint(&label, storage::open_file(&path, &opts).unwrap_err());
        }
    }
}

/// The two inputs an earlier build loaded: bytes under the format-1
/// magic, and a current snapshot whose section table names its postings
/// by the older posting layout's id (4, not 8). The payload checksum does
/// not cover the table, so the relabelled file passes it.
#[test]
fn legacy_inputs_are_refused_with_a_rebuild_hint() {
    let mut v1 = b"XCLIDX1\0".to_vec();
    v1.extend_from_slice(&snapshot()[8..]);
    assert_refused_with_rebuild_hint("v1_magic", &v1);

    let mut old_layout = snapshot();
    let postings = (0..usize::from(old_layout[16]))
        .map(|i| 17 + 17 * i)
        .find(|&at| old_layout[at] == 8)
        .expect("a POSTINGS(8) entry");
    old_layout[postings] = 4;
    assert_refused_with_rebuild_hint("old_posting_layout", &old_layout);
}
