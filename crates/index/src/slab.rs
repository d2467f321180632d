//! Pluggable backing store for index snapshots.
//!
//! A v2 snapshot is queried as *views over byte ranges* of one contiguous
//! slab (DESIGN.md §11). [`IndexSlab`] abstracts where those bytes live:
//!
//! * [`IndexSlab::Owned`] — a heap buffer read with `std::fs::read`;
//! * [`IndexSlab::Mapped`] — a read-only `mmap(2)` of the snapshot file,
//!   so the kernel pages index bytes in on demand and multiple server
//!   processes share one physical copy.
//!
//! A freshly built index holds its encoded bytes as an owned slab too.
//! Per-token blobs over a slab (postings, path statistics) are viewed
//! through `Blobs`, which decodes each on its first access.
//!
//! The mapping uses a small vetted FFI shim (mirroring the server's
//! `signal(2)` shim in `xclean-server::shutdown`) rather than a mmap
//! crate: `mmap`, `munmap` and `madvise` are its only calls, confined to
//! the `#[allow(unsafe_code)]` module at the bottom of this file. On
//! non-unix targets, and where a mapping fails, [`IndexSlab::open`] reads
//! the file into an owned buffer instead.

use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use crate::codec::CodecError;

/// The bytes of one snapshot, owned or memory-mapped.
#[derive(Debug)]
pub enum IndexSlab {
    /// Heap-resident copy of the snapshot.
    Owned(Vec<u8>),
    /// Read-only file mapping (unix only).
    #[cfg(unix)]
    Mapped(mmap::Mmap),
}

impl IndexSlab {
    /// Opens `path`: memory-maps it where the platform and the file allow,
    /// and reads it into memory otherwise (e.g. a filesystem without mmap
    /// support). Zero-length files are always owned (mapping an empty
    /// file is an `EINVAL` on Linux).
    pub fn open(path: impl AsRef<Path>) -> io::Result<IndexSlab> {
        let path = path.as_ref();
        #[cfg(unix)]
        {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 {
                return Ok(IndexSlab::Owned(Vec::new()));
            }
            let len = usize::try_from(len).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "snapshot exceeds address space")
            })?;
            if let Ok(m) = mmap::Mmap::map_readonly(&file, len) {
                return Ok(IndexSlab::Mapped(m));
            }
        }
        Ok(IndexSlab::Owned(std::fs::read(path)?))
    }

    /// The slab's bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            IndexSlab::Owned(v) => v,
            #[cfg(unix)]
            IndexSlab::Mapped(m) => m.as_slice(),
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// `true` when the slab holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the bytes are memory-mapped rather than heap-owned.
    pub fn is_mapped(&self) -> bool {
        match self {
            IndexSlab::Owned(_) => false,
            #[cfg(unix)]
            IndexSlab::Mapped(_) => true,
        }
    }

    /// Takes the pages of `range` out of the resident set when the slab
    /// is mapped ([`mmap::Mmap::release`]); they read the same when
    /// touched again. An owned slab keeps its bytes.
    pub(crate) fn release(&self, range: Range<usize>) {
        #[cfg(unix)]
        if let IndexSlab::Mapped(m) = self {
            m.release(range);
        }
        #[cfg(not(unix))]
        let _ = range;
    }
}

impl std::ops::Deref for IndexSlab {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

/// Encoded blobs at byte ranges of a slab (one per token: posting lists,
/// path statistics), each decoded on its first access and kept.
#[derive(Debug)]
pub(crate) struct Blobs<T> {
    slab: Arc<IndexSlab>,
    /// Absolute byte range of each blob.
    ranges: Vec<Range<usize>>,
    cells: Box<[OnceLock<T>]>,
    decode: fn(&[u8]) -> Result<T, CodecError>,
}

impl<T: Default> Blobs<T> {
    /// Views the blobs at `ranges` of `slab`, decoded by `decode`.
    pub(crate) fn new(
        slab: Arc<IndexSlab>,
        ranges: Vec<Range<usize>>,
        decode: fn(&[u8]) -> Result<T, CodecError>,
    ) -> Result<Self, &'static str> {
        if ranges.iter().any(|r| r.start > r.end || r.end > slab.len()) {
            return Err("blob range out of bounds");
        }
        let cells = (0..ranges.len()).map(|_| OnceLock::new()).collect();
        Ok(Blobs {
            slab,
            ranges,
            cells,
            decode,
        })
    }

    /// Number of blobs.
    pub(crate) fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Blob `i`, decoded.
    pub(crate) fn get(&self, i: usize) -> &T {
        self.cells[i].get_or_init(|| {
            // The slab checksum was verified at open, so a decode failure
            // here is a writer bug; degrade to an empty value rather than
            // panic on the query path.
            (self.decode)(self.encoded(i)).unwrap_or_default()
        })
    }

    /// Blob `i` as stored, for a reader that decodes it without keeping
    /// the result.
    pub(crate) fn encoded(&self, i: usize) -> &[u8] {
        &self.slab.bytes()[self.ranges[i].clone()]
    }
}

/// Incremental FNV-1a 64-bit hasher — the snapshot checksum (and the
/// same mixing scheme the engine fingerprint uses).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 digest of one contiguous buffer.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Snapshot payload digest: four interleaved FNV-1a-64 lanes folded over
/// 8-byte LE words, then combined with the input length.
///
/// Byte-serial FNV is bottlenecked by its multiply dependency chain
/// (~1 byte per multiply); four word-wide lanes run the chains in
/// parallel, which is what keeps checksum verification out of the v2
/// cold-open critical path. Each per-word update (`xor` then multiply by
/// an odd constant) is bijective, so changing any single word — hence
/// any single bit — of the input always changes the digest; the final
/// length fold separates buffers that differ only by trailing zero
/// words.
pub fn checksum64(bytes: &[u8]) -> u64 {
    checksum64_of([bytes])
}

/// [`checksum64`] of `pieces` laid end to end, read where they lie: a
/// save checksums a snapshot's sections this way.
pub(crate) fn checksum64_of<'a>(pieces: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    // The lanes stay locals of this one function: kept in a struct
    // between calls, they made the compiler turn the loop into two-lane
    // SSE2 multiplies, at half the speed of four scalar chains.
    let mut lanes = [BASIS, BASIS ^ 1, BASIS ^ 2, BASIS ^ 3];
    // The start of a 32-byte chunk that the pieces so far leave open.
    let mut open = [0u8; 32];
    let mut open_len = 0;
    let mut len = 0u64;
    let fold = |lanes: &mut [u64; 4], chunk: &[u8]| {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(chunk[i * 8..i * 8 + 8].try_into().unwrap());
            *lane = (*lane ^ word).wrapping_mul(PRIME);
        }
    };
    for mut piece in pieces {
        len += piece.len() as u64;
        if open_len > 0 {
            let take = (32 - open_len).min(piece.len());
            open[open_len..open_len + take].copy_from_slice(&piece[..take]);
            open_len += take;
            piece = &piece[take..];
            if open_len < 32 {
                continue;
            }
            fold(&mut lanes, &open);
        }
        let mut chunks = piece.chunks_exact(32);
        for chunk in &mut chunks {
            fold(&mut lanes, chunk);
        }
        let rest = chunks.remainder();
        open[..rest.len()].copy_from_slice(rest);
        open_len = rest.len();
    }
    let mut tail = lanes[0];
    for &b in &open[..open_len] {
        tail ^= u64::from(b);
        tail = tail.wrapping_mul(PRIME);
    }
    lanes[0] = tail;
    let mut out = BASIS;
    for lane in lanes {
        out = (out ^ lane).wrapping_mul(PRIME);
    }
    (out ^ len).wrapping_mul(PRIME)
}

/// The vetted `mmap(2)`/`munmap(2)`/`madvise(2)` FFI shim — the only
/// unsafe code in this crate, mirroring the `signal(2)` shim in
/// `xclean-server`.
#[cfg(unix)]
#[allow(unsafe_code)]
pub(crate) mod mmap {
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::ops::Range;
    use std::os::unix::io::AsRawFd;

    // Portable across Linux and the BSDs/macOS for the subset we use.
    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 0x02;
    const MADV_DONTNEED: c_int = 4;

    /// What [`Mmap::release`] rounds its bounds inward to: 64 KiB is a
    /// multiple of every page size these targets use (4, 16 and 64 KiB),
    /// so the bounds are page-aligned without asking for the page size.
    const RELEASE_ALIGN: usize = 64 << 10;

    extern "C" {
        /// `mmap(2)`; libc is always linked on unix targets.
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        /// `munmap(2)`.
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
        /// `madvise(2)`.
        fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }

    /// A read-only, private, file-backed memory mapping.
    #[derive(Debug)]
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ + MAP_PRIVATE — immutable for its
    // whole lifetime under the condition `as_slice` states — so sharing
    // the pointer across threads is sound.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` read-only from offset 0.
        pub fn map_readonly(file: &std::fs::File, len: usize) -> io::Result<Mmap> {
            debug_assert!(len > 0, "caller handles empty files");
            // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of a file we
            // hold open; the kernel validates fd/len and reports failure
            // as MAP_FAILED, which we turn into an io::Error.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == usize::MAX as *mut c_void || ptr.is_null() {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self, which outlives the returned borrow. The bytes behind
            // it stay what they were at open only while the file is not
            // truncated or rewritten in place: a MAP_PRIVATE page this
            // process never wrote shows the file's current contents, and
            // a page past a truncated end raises SIGBUS. This relies on
            // no writer doing either to a mapped snapshot; the crate's own
            // writer (`storage::save_to_file_v2`) writes a sibling file
            // and renames it over the target, leaving the mapped inode as
            // it was.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        /// Takes the pages wholly inside `range` (rounded inward to
        /// [`RELEASE_ALIGN`]) out of the resident set with
        /// `madvise(MADV_DONTNEED)`. The mapping stays: the next read of
        /// such a page faults it in again from the file. Advice only: a
        /// release build ignores a refusal, and the pages stay resident.
        pub fn release(&self, range: Range<usize>) {
            let start = range.start.next_multiple_of(RELEASE_ALIGN);
            let end = range.end.min(self.len) / RELEASE_ALIGN * RELEASE_ALIGN;
            if start >= end {
                return;
            }
            let addr = self.ptr.cast::<u8>().wrapping_add(start).cast::<c_void>();
            // SAFETY: [start, end) lies inside the live mapping self owns,
            // and `addr` is page-aligned: `ptr` is, and `start` is a
            // multiple of every page size. The mapping is PROT_READ, so
            // every page of it is a clean page of the file: MADV_DONTNEED
            // drops nothing that a later read cannot fault in again from
            // the file, and no borrow of the bytes is invalidated. That
            // read shows the file's current contents, as any page the
            // kernel evicts on its own does — the condition `as_slice`
            // states already covers it.
            let rc = unsafe { madvise(addr, end - start, MADV_DONTNEED) };
            debug_assert_eq!(rc, 0, "madvise of a page-aligned range of the mapping");
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region this struct mapped; the
            // pointer is never used again (self is being dropped).
            let rc = unsafe { munmap(self.ptr, self.len) };
            debug_assert_eq!(rc, 0, "munmap of an owned mapping cannot fail");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xclean_slab_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn owned_and_mapped_agree() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let p = tmp_file("agree.bin", &data);
        let owned = IndexSlab::Owned(std::fs::read(&p).unwrap());
        assert!(!owned.is_mapped());
        assert_eq!(owned.bytes(), &data[..]);
        let opened = IndexSlab::open(&p).unwrap();
        #[cfg(unix)]
        assert!(opened.is_mapped());
        assert_eq!(opened.bytes(), owned.bytes());
        assert_eq!(&opened[0..4], &data[0..4]); // Deref
    }

    #[test]
    fn empty_file_is_owned() {
        let s = IndexSlab::open(tmp_file("empty.bin", b"")).unwrap();
        assert!(s.is_empty());
        assert!(!s.is_mapped());
    }

    #[test]
    fn missing_file_errors() {
        let p = std::env::temp_dir().join("xclean_slab_test/definitely_missing.bin");
        assert!(IndexSlab::open(&p).is_err());
    }

    #[test]
    fn mapped_slab_outlives_thread_moves() {
        let data = vec![7u8; 4096 * 3 + 17];
        let p = tmp_file("threads.bin", &data);
        let slab = std::sync::Arc::new(IndexSlab::open(&p).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&slab);
                std::thread::spawn(move || s.bytes().iter().map(|&b| u64::from(b)).sum::<u64>())
            })
            .collect();
        let expect = data.iter().map(|&b| u64::from(b)).sum::<u64>();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        // Incremental == one-shot.
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn checksum64_detects_single_bit_flips() {
        // Cover the word lanes, the byte tail, and lane boundaries.
        let data: Vec<u8> = (0..137u32).map(|i| (i * 31 % 251) as u8).collect();
        let base = checksum64(&data);
        for off in 0..data.len() {
            for bit in [0, 3, 7] {
                let mut corrupt = data.clone();
                corrupt[off] ^= 1 << bit;
                assert_ne!(
                    checksum64(&corrupt),
                    base,
                    "flip of bit {bit} at {off} went undetected"
                );
            }
        }
    }

    #[test]
    fn checksum64_in_pieces_equals_one_pass() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 37 % 253) as u8).collect();
        let whole = checksum64(&data);
        for a in (0..=data.len()).step_by(5) {
            for b in (a..=data.len()).step_by(3) {
                let pieces = [&data[..a], &data[a..b], &data[b..]];
                assert_eq!(checksum64_of(pieces), whole, "pieces cut at {a} and {b}");
            }
        }
    }

    #[test]
    fn checksum64_is_length_sensitive() {
        // Trailing zero words must not collide with the shorter buffer.
        let short = vec![7u8; 32];
        let mut long = short.clone();
        long.extend_from_slice(&[0u8; 32]);
        assert_ne!(checksum64(&short), checksum64(&long));
        assert_ne!(checksum64(b""), checksum64(&[0u8]));
        // Deterministic across calls.
        assert_eq!(checksum64(&short), checksum64(&short));
    }
}
