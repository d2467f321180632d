//! The built `xclean` binary's failure contract: a failed command prints
//! `error: …` on stderr, nothing on stdout, and exits 2. A successful
//! command prints only on stdout. A file that is not a v2 snapshot in the
//! current layout (an older format's, say) is refused by every command
//! that opens one, naming the file and the rebuild; a catalog in the
//! format an earlier build wrote is refused with the way to re-register
//! its corpora.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use xclean::{Catalog, CorpusSpec};
use xclean_index::{partition_corpus, storage, CorpusIndex};
use xclean_xmltree::parse_document;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xclean_cli_errors");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn xclean(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xclean"))
        .args(args)
        .output()
        .expect("the xclean binary runs")
}

/// Runs `args` like [`xclean`], but a run still going after 30 s is
/// killed and fails the test: a `serve` that should refuse its input must
/// not hang the suite by serving it.
fn xclean_bounded(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xclean"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the xclean binary runs");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

/// Asserts `args` fail the documented way and returns their stderr.
fn assert_fails(args: &[&str]) -> String {
    assert_failed(args, xclean(args))
}

/// Asserts `out`, the run of `args`, failed the documented way and
/// returns its stderr.
fn assert_failed(args: &[&str], out: Output) -> String {
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    );
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?} wrote to stdout: {stdout}");
    assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

/// A small corpus as XML, and a workload over it. Each test names its
/// own files, since the tests of this binary run concurrently.
fn sample(test: &str) -> (String, String) {
    let xml = tmp(&format!("{test}.xml"));
    std::fs::write(
        &xml,
        "<db><rec><t>health insurance</t></rec><rec><t>program instance</t></rec></db>",
    )
    .unwrap();
    let workload = tmp(&format!("{test}.txt"));
    std::fs::write(&workload, "helth insurance\nprogram instence\n").unwrap();
    (
        xml.to_string_lossy().into_owned(),
        workload.to_string_lossy().into_owned(),
    )
}

#[test]
fn every_error_path_writes_only_stderr_and_exits_2() {
    let (xml, workload) = sample("error_paths");
    let empty = tmp("empty.txt");
    std::fs::write(&empty, "# nothing but a comment\n\n").unwrap();
    let empty = empty.to_string_lossy().into_owned();
    for args in [
        vec!["suggest", &xml, "helth", "--threads", "0"],
        vec!["suggest", &xml, "helth", "--batch", &workload],
        vec!["suggest", &xml, "--batch", "/nonexistent/workload.txt"],
        vec!["suggest", &xml, "--batch", &empty],
        vec!["suggest", &xml, "--batch", &workload, "--space-edits", "1"],
        vec!["suggest", &xml, "helth", "--thread", "2"],
        vec!["suggest", "/nonexistent/corpus.xci", "quey"],
        vec!["serve", &xml, "--log-level", "info"],
        vec!["frobnicate"],
    ] {
        assert_fails(&args);
    }
}

/// A snapshot opens one way, so the flags that chose between a mapping
/// and an owned copy are unknown options, not ignored.
#[test]
fn the_snapshot_backing_flags_are_unknown_options() {
    let (xml, _) = sample("backing_flags");
    for flag in ["--mmap", "--no-mmap"] {
        let stderr = assert_fails(&["serve", &xml, flag, "--threads", "2"]);
        assert!(stderr.contains("unknown option"), "{flag}: {stderr}");
    }
}

#[test]
fn a_successful_suggest_writes_only_stdout() {
    let (xml, workload) = sample("success");
    for args in [
        vec!["suggest", &xml, "helth", "insurance", "--json"],
        vec!["suggest", &xml, "--batch", &workload, "--json"],
    ] {
        let out = xclean(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?} wrote to stderr");
        assert!(out.stdout.starts_with(b"["), "{args:?}");
    }
}

/// The two inputs an earlier build read: a file with the format-1 magic,
/// and a current snapshot whose table names its posting section by the
/// id of the older posting layout (4, not 8). The payload checksum does
/// not cover the table, so only the layout check can refuse the second.
fn legacy_inputs() -> [String; 2] {
    let (xml, _) = sample("legacy");
    let v1 = tmp("legacy_v1.xci");
    let mut bytes = b"XCLIDX1\0".to_vec();
    bytes.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
    std::fs::write(&v1, bytes).unwrap();

    let current = tmp("legacy_current.xci").to_string_lossy().into_owned();
    let out = xclean(&["index", "build", &xml, "--out", &current]);
    assert_eq!(out.status.code(), Some(0));
    let mut bytes = std::fs::read(&current).unwrap();
    let postings = (0..usize::from(bytes[16]))
        .map(|i| 17 + 17 * i)
        .find(|&at| bytes[at] == 8)
        .expect("a POSTINGS(8) entry");
    bytes[postings] = 4;
    let old_layout = tmp("legacy_old_layout.xci");
    std::fs::write(&old_layout, bytes).unwrap();

    [v1, old_layout].map(|p| p.to_string_lossy().into_owned())
}

#[test]
fn legacy_snapshots_are_refused_with_a_rebuild_hint() {
    for (i, file) in legacy_inputs().iter().enumerate() {
        let catalog = tmp(&format!("legacy_{i}.xcc"))
            .to_string_lossy()
            .into_owned();
        Catalog {
            corpora: vec![CorpusSpec {
                name: "legacy".to_string(),
                snapshot: file.clone(),
            }],
        }
        .save(&catalog)
        .unwrap();
        for args in [
            vec!["suggest", file, "quey"],
            vec!["stats", file],
            vec!["index", "inspect", file],
            vec!["serve", file, "--port", "0"],
            vec!["serve", "--catalog", &catalog, "--port", "0"],
        ] {
            let stderr = assert_fails(&args);
            for needle in [
                file.as_str(),
                "not an xclean v2 snapshot",
                "rebuild it with `xclean index build",
            ] {
                assert!(stderr.contains(needle), "{args:?}: {needle}: {stderr}");
            }
        }
        // The catalog refusal also names the corpus.
        let stderr = assert_fails(&["serve", "--catalog", &catalog, "--port", "0"]);
        assert!(stderr.contains("corpus \"legacy\""), "{stderr}");
    }
}

/// The `XCLCAT1` catalog an earlier build wrote (its entries carried an
/// engine configuration; the committed fixture is that build's bytes).
#[test]
fn an_earlier_catalog_format_is_refused_with_a_re_register_hint() {
    let catalog = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/catalog_xclcat1.xcc"
    );
    let stderr = assert_fails(&["serve", "--catalog", catalog, "--port", "0"]);
    for needle in [catalog, "re-register", "xclean index build", "--catalog"] {
        assert!(stderr.contains(needle), "{needle}: {stderr}");
    }
}

/// The `XCLCAT2` catalog an earlier build's `xclean index shard …
/// --catalog` wrote (its entries listed shard snapshots; the committed
/// fixture is that build's bytes).
#[test]
fn a_shard_list_catalog_is_refused_with_a_re_register_hint() {
    let catalog = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/catalog_xclcat2.xcc"
    );
    let stderr = assert_fails(&["serve", "--catalog", catalog, "--port", "0"]);
    for needle in [catalog, "re-register", "xclean index build"] {
        assert!(stderr.contains(needle), "{needle}: {stderr}");
    }
}

/// `index build --catalog` reads the catalog before it writes the
/// snapshot: an `XCLCAT1` catalog fails the command with the re-register
/// hint, and no snapshot is left behind.
#[test]
fn index_build_refuses_an_earlier_catalog_before_writing_a_snapshot() {
    let (xml, _) = sample("build_old_catalog");
    let catalog = tmp("build_old_catalog.xcc");
    std::fs::copy(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/catalog_xclcat1.xcc"
        ),
        &catalog,
    )
    .unwrap();
    let snapshot = tmp("build_old_catalog.xci");
    let _ = std::fs::remove_file(&snapshot);
    let (catalog, out) = (catalog.to_string_lossy(), snapshot.to_string_lossy());
    let stderr = assert_fails(&[
        "index",
        "build",
        &xml,
        "--out",
        &out,
        "--catalog",
        &catalog,
        "--name",
        "tiny",
    ]);
    for needle in [&*catalog, "re-register", "xclean index build", "--catalog"] {
        assert!(stderr.contains(needle), "{needle}: {stderr}");
    }
    assert!(!snapshot.exists(), "{} was written", snapshot.display());
}

/// `suggest` and `serve` open a snapshot as one corpus: a shard file is
/// refused naming the file, its set's size and the build that makes one
/// snapshot, whether its set holds one shard or two. `index inspect` and
/// `stats` read both files as themselves.
#[test]
fn suggest_and_serve_refuse_every_shard_file() {
    let (xml, _) = sample("refuse_shards");
    let corpus =
        CorpusIndex::build(parse_document(&std::fs::read_to_string(xml).unwrap()).unwrap());
    for n in [1usize, 2] {
        let shard = tmp(&format!("refuse_shards-shard0-of-{n}.xci"))
            .to_string_lossy()
            .into_owned();
        storage::save_to_file_v2(&partition_corpus(&corpus, n, 0).unwrap()[0], &shard).unwrap();
        let set = format!("set of {n} shard");
        for args in [
            vec!["suggest", &shard, "helth"],
            vec!["serve", &shard, "--port", "0"],
        ] {
            let stderr = assert_failed(&args, xclean_bounded(&args));
            for needle in [&*shard, &*set, "xclean index build"] {
                assert!(stderr.contains(needle), "{args:?}: {needle}: {stderr}");
            }
        }
        for args in [vec!["index", "inspect", &shard], vec!["stats", &shard]] {
            assert_eq!(xclean(&args).status.code(), Some(0), "{args:?}");
        }
    }
}

/// `suggest` opens a snapshot the one way `serve` does: one shard of a
/// 2-shard set is an incomplete set, refused naming the file, not a
/// corpus answered with that shard's own statistics. `index inspect` and
/// `stats` still read the shard file as itself.
#[test]
fn suggest_refuses_one_shard_of_a_set() {
    let (xml, _) = sample("suggest_one_shard");
    let corpus =
        CorpusIndex::build(parse_document(&std::fs::read_to_string(xml).unwrap()).unwrap());
    let prefix = tmp("suggest_one_shard_p").to_string_lossy().into_owned();
    for (i, part) in partition_corpus(&corpus, 2, 0).unwrap().iter().enumerate() {
        storage::save_to_file_v2(part, format!("{prefix}-shard{i}-of-2.xci")).unwrap();
    }
    let shard = format!("{prefix}-shard0-of-2.xci");
    let stderr = assert_fails(&["suggest", &shard, "helth"]);
    for needle in [&*shard, "2 shards"] {
        assert!(stderr.contains(needle), "{needle}: {stderr}");
    }
    for args in [vec!["index", "inspect", &shard], vec!["stats", &shard]] {
        assert_eq!(xclean(&args).status.code(), Some(0), "{args:?}");
    }
}
