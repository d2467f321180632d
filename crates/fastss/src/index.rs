//! The FastSS variant index (§V-A).
//!
//! Builds, offline, an index over the vocabulary's ε-deletion
//! neighbourhoods; at query time the ε-deletion neighbourhood of the query
//! keyword is probed to obtain candidate words, which are verified with an
//! exact edit-distance computation.
//!
//! Long tokens are handled by a *partitioned* scheme: instead of the
//! exponential deletion neighbourhood, a long word is split into ε+1
//! contiguous segments; if `ed(q, w) ≤ ε` then at least one segment of `w`
//! occurs verbatim in `q`, shifted by at most ε (the pigeonhole principle).
//! Segments are indexed exactly, keeping space linear in word length.
//!
//! Both kinds of key live in **one** open-addressed table of `u32` slots
//! (`ProbeTable`) and the vocabulary in one text blob, so a lookup is
//! three batches over flat memory: collect every key, probe them all,
//! verify the distinct candidates against the query prepared once.

use crate::edit_distance::{edit_distance_within, with_chars, Verifier};
use crate::neighborhood::{
    fnv_byte, for_each_deletion_signature, neighborhood_bound, signature_hash,
};

/// Key of one long-word segment probe: the segment's signature hash mixed
/// with its ordinal and the word's character length (the same tuple a
/// string-keyed scheme would use, collapsed to 64 bits).
fn long_key(seg: &[char], ord: u8, wlen: u16) -> u64 {
    std::iter::once(ord)
        .chain(wlen.to_le_bytes())
        .fold(signature_hash(seg), fnv_byte)
}

/// 64-bit signature hash → word ids, open-addressed with linear probing.
///
/// A slot is a `u32`: `word id + 1` in its low `id_bits` bits — the bit
/// length of the vocabulary's size, so the largest id fits — and the
/// key's fingerprint in the rest, `0` when empty. The fingerprint is the
/// low bits of the key's low half, the home slot comes from its high half
/// (FNV's best-mixed bits). Every `(key, id)` pair takes its own slot in
/// the run that starts at the key's home, so a probe is one sequential
/// scan from there to the first empty slot — no per-key `Vec`, no second
/// allocation to chase.
///
/// Two keys sharing the stored fingerprint bits *and* a run make a probe
/// report the other key's ids as well. That can only add candidates,
/// which exact verification discards — the argument that already covers
/// two strings sharing a signature hash — so no key is stored.
#[derive(Debug)]
struct ProbeTable {
    /// A power of two of them.
    slots: Vec<u32>,
    filled: usize,
    /// Low bits of a slot that hold `id + 1`.
    id_bits: u32,
}

impl ProbeTable {
    /// A table for at most `pairs` insertions of ids below `ids`, at most
    /// half full: runs stay short and there is always an empty slot to
    /// end a probe at.
    fn for_pairs(pairs: usize, ids: usize) -> Self {
        let len = pairs
            .checked_mul(2)
            .and_then(usize::checked_next_power_of_two)
            .expect("probe table size fits usize");
        let id_bits = usize::BITS - ids.leading_zeros();
        assert!(id_bits <= u32::BITS, "word ids (+ 1) must fit u32");
        // Every slot is written once here, so each fresh page's first
        // touch is a write: a zeroed allocation is first *read* by the
        // fill's `touch_homes`, which maps the shared zero page, and the
        // insert after it faults again to copy it. The empty value goes
        // through `black_box` so the compiler cannot turn this fill back
        // into a zeroed allocation.
        let mut slots = Vec::with_capacity(len);
        slots.resize(len, std::hint::black_box(0));
        ProbeTable {
            slots,
            filled: 0,
            id_bits,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: u64) -> usize {
        (key >> 32) as usize & self.mask()
    }

    /// The bits of a slot that hold `id + 1`.
    fn id_mask(&self) -> u32 {
        ((1u64 << self.id_bits) - 1) as u32
    }

    /// `key`'s fingerprint as a slot stores it: the key's low bits above
    /// the id bits, the id bits zero.
    fn tag(&self, key: u64) -> u32 {
        (u64::from(key as u32) << self.id_bits) as u32
    }

    /// Reads the home slot of every key in one loop of independent loads
    /// and returns their OR, `0` when every home is empty. On a table of
    /// tens of megabytes each home is a cache miss and none depends on
    /// another, so the processor overlaps them; what the caller does next
    /// with those runs — walk or fill — finds their lines in cache, where
    /// key by key each miss would wait for the one before.
    fn touch_homes(&self, keys: impl Iterator<Item = u64>) -> u32 {
        keys.fold(0, |seen, key| seen | self.slots[self.home(key)])
    }

    /// Inserts `pairs` in order, after reading all their home slots in one
    /// loop ([`Self::touch_homes`]). The slots come out as one
    /// [`Self::insert`] at a time in that order would leave them: the
    /// touch only reads.
    fn insert_batch(&mut self, pairs: &[(u64, u32)]) {
        // Unused, but the loads must happen: kept from being elided.
        std::hint::black_box(self.touch_homes(pairs.iter().map(|&(key, _)| key)));
        for &(key, id) in pairs {
            self.insert(key, id);
        }
    }

    /// Stores `(key, id)` unless the run already holds it.
    fn insert(&mut self, key: u64, id: u32) {
        assert!(
            id < self.id_mask(),
            "id {id} does not fit the table's {} id bits",
            self.id_bits
        );
        let slot = self.tag(key) | (id + 1);
        let mut at = self.home(key);
        loop {
            match self.slots[at] {
                0 => break,
                held if held == slot => return,
                _ => at = (at + 1) & self.mask(),
            }
        }
        assert!(
            2 * (self.filled + 1) <= self.slots.len(),
            "more pairs than the table was sized for"
        );
        self.slots[at] = slot;
        self.filled += 1;
    }

    /// The ids stored under `key`'s fingerprint in `key`'s run: a
    /// superset of the ids inserted under `key`.
    fn ids(&self, key: u64) -> impl Iterator<Item = u32> + '_ {
        let (tag, id_mask) = (self.tag(key), self.id_mask());
        let mut at = self.home(key);
        std::iter::from_fn(move || loop {
            let slot = self.slots[at];
            if slot == 0 {
                return None;
            }
            at = (at + 1) & self.mask();
            if slot & !id_mask == tag {
                return Some((slot & id_mask) - 1);
            }
        })
    }

    /// Length of the longest run of occupied slots (diagnostic).
    fn longest_run(&self) -> usize {
        let mut longest = 0;
        let mut run = 0;
        // Twice around, so a run that wraps past the end is seen whole.
        for &slot in self.slots.iter().chain(&self.slots) {
            run = if slot == 0 { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        longest.min(self.slots.len())
    }
}

/// A vocabulary word matching a query keyword within the edit threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantMatch {
    /// Index of the word in the vocabulary the index was built from.
    pub word: u32,
    /// Exact edit distance to the query keyword.
    pub distance: u32,
}

/// Configuration for [`VariantIndex`].
#[derive(Debug, Clone)]
pub struct VariantIndexConfig {
    /// Maximum number of edit errors ε.
    pub epsilon: usize,
    /// Words longer than this many characters use the partitioned scheme
    /// (the paper's `l_p` space/time tuning knob).
    pub partition_threshold: usize,
}

impl Default for VariantIndexConfig {
    fn default() -> Self {
        VariantIndexConfig {
            epsilon: 2,
            partition_threshold: 14,
        }
    }
}

/// Size and shape of a [`VariantIndex`]'s probe table (diagnostic; the
/// paper's space cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Slots allocated (a power of two).
    pub slots: usize,
    /// Bytes of one slot.
    pub slot_bytes: usize,
    /// Slots holding a `(signature, word)` pair.
    pub filled: usize,
    /// Longest run of occupied slots — the worst case of one probe.
    pub longest_run: usize,
    /// Heap bytes of table, vocabulary text and offsets.
    pub bytes: usize,
}

/// FastSS index over a fixed vocabulary.
#[derive(Debug)]
pub struct VariantIndex {
    config: VariantIndexConfig,
    /// The vocabulary, concatenated; word `id` is
    /// `text[offsets[id]..offsets[id + 1]]`.
    text: String,
    offsets: Vec<u32>,
    /// Deletion-signature hashes of short words and [`long_key`]s of
    /// (segment, ordinal, word char-length) of long words → word ids.
    table: ProbeTable,
    /// Char lengths present among long words, ascending (drives
    /// query-side probing).
    long_lengths: Vec<u16>,
}

impl VariantIndex {
    /// Builds the index over `words`. Word ids are their positions in the
    /// input order.
    pub fn build<S: AsRef<str>>(words: &[S], config: VariantIndexConfig) -> Self {
        assert!(
            words.len() < u32::MAX as usize,
            "word ids (+ 1) must fit u32"
        );
        let eps = config.epsilon;
        // First pass: the text, and an upper bound on the pairs the
        // second will insert, so the table is sized once and filled in
        // place.
        let mut text = String::with_capacity(words.iter().map(|w| w.as_ref().len()).sum());
        let mut offsets = Vec::with_capacity(words.len() + 1);
        let mut pairs = 0usize;
        let offset = |text: &String| {
            u32::try_from(text.len()).expect("vocabulary text must fit u32 offsets")
        };
        for w in words {
            let w = w.as_ref();
            offsets.push(offset(&text));
            text.push_str(w);
            let len = w.chars().count();
            pairs = pairs.saturating_add(if len <= config.partition_threshold {
                neighborhood_bound(len, eps)
            } else {
                eps + 1
            });
        }
        offsets.push(offset(&text));

        // Second pass: every pair, in word order, through a batch of
        // `FILL_BATCH` whose home slots are read before it is inserted.
        let mut table = ProbeTable::for_pairs(pairs, words.len());
        let mut batch = [(0u64, 0u32); FILL_BATCH];
        let mut batched = 0;
        let mut push = |key: u64, id: u32| {
            batch[batched] = (key, id);
            batched += 1;
            if batched == FILL_BATCH {
                table.insert_batch(&batch);
                batched = 0;
            }
        };
        let mut long_lengths = Vec::new();
        for (id, w) in words.iter().enumerate() {
            let id = id as u32;
            with_chars(w.as_ref(), |chars| {
                if chars.len() <= config.partition_threshold {
                    // Deletion sets of one word can repeat a member (and
                    // so its hash); the table stores the pair once.
                    for_each_deletion_signature(chars, eps, |h| push(h, id));
                } else {
                    let len16 = chars.len().min(u16::MAX as usize) as u16;
                    if !long_lengths.contains(&len16) {
                        long_lengths.push(len16);
                    }
                    for (ord, (start, seg_len)) in segment_spans(chars.len(), eps + 1).enumerate() {
                        let seg = &chars[start..start + seg_len];
                        push(long_key(seg, ord as u8, len16), id);
                    }
                }
            });
        }
        table.insert_batch(&batch[..batched]);
        long_lengths.sort_unstable();
        VariantIndex {
            config,
            text,
            offsets,
            table,
            long_lengths,
        }
    }

    /// The edit threshold the index was built for.
    pub fn epsilon(&self) -> usize {
        self.config.epsilon
    }

    /// The indexed word with this id.
    pub fn word(&self, id: u32) -> &str {
        let id = id as usize;
        &self.text[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }

    /// Size and shape of the probe table.
    pub fn table_stats(&self) -> TableStats {
        TableStats {
            slots: self.table.slots.len(),
            slot_bytes: std::mem::size_of_val(&self.table.slots[0]),
            filled: self.table.filled,
            longest_run: self.table.longest_run(),
            bytes: std::mem::size_of_val(&self.table.slots[..])
                + self.text.len()
                + std::mem::size_of_val(&self.offsets[..]),
        }
    }

    /// Finds all vocabulary words within edit distance ε of `query`
    /// (`var_ε(q)` in the paper), verified and with exact distances.
    /// Results are sorted by (distance, word id).
    pub fn query(&self, query: &str) -> Vec<VariantMatch> {
        self.query_within(query, self.config.epsilon)
    }

    /// Like [`Self::query`] but with a per-call threshold
    /// `max_ed ≤ ε` (useful for CLEAN query handling and ablations).
    ///
    /// Allocates twice — the keys, and the vector it returns — however
    /// many keys it probes and candidates it verifies (a query over 64
    /// scalars also for its decoded form).
    pub fn query_within(&self, query: &str, max_ed: usize) -> Vec<VariantMatch> {
        let max_ed = max_ed.min(self.config.epsilon);
        with_chars(query, |query| {
            let keys = self.probe_keys(query, max_ed);
            let mut matches = self.candidates(&keys);
            self.verify(query, max_ed, &mut matches);
            matches
        })
    }

    /// First batch of [`Self::query_within`] (public for the variant
    /// profile, which times the three apart): every key to probe for
    /// `query` — the signature hashes of its own deletion neighbourhood,
    /// then, for each indexed long-word length within `max_ed` of its
    /// own, the `long_key`s of its substrings where a segment of such
    /// a word could sit.
    pub fn probe_keys(&self, query: &[char], max_ed: usize) -> Vec<u64> {
        let eps = self.config.epsilon;
        let qlen = query.len();
        // Sorted, so the lengths within reach are one contiguous range.
        let reach = &self.long_lengths[self
            .long_lengths
            .partition_point(|&w| usize::from(w) + max_ed < qlen)..];
        let reach = &reach[..reach.partition_point(|&w| usize::from(w) <= qlen + max_ed)];
        let mut keys = Vec::with_capacity(
            neighborhood_bound(qlen, eps) + reach.len() * (eps + 1) * (2 * max_ed + 1),
        );
        for_each_deletion_signature(query, eps, |h| keys.push(h));
        for &wlen in reach {
            for (ord, (start, seg_len)) in segment_spans(usize::from(wlen), eps + 1).enumerate() {
                // A segment survives verbatim, shifted by at most max_ed.
                let lo = start.saturating_sub(max_ed);
                let hi = (start + max_ed).min(qlen.saturating_sub(seg_len));
                for qstart in lo..=hi {
                    if qstart + seg_len > qlen {
                        break;
                    }
                    keys.push(long_key(&query[qstart..qstart + seg_len], ord as u8, wlen));
                }
            }
        }
        keys
    }

    /// Second batch: the ids found under `keys`, unverified, in probe
    /// order and possibly repeated, each with distance 0 for
    /// [`Self::verify`] to fill in.
    ///
    /// The home slots are read in a loop of their own first
    /// (`ProbeTable::touch_homes`), so their cache misses overlap where
    /// probing key by key would wait for each run before computing where
    /// the next one starts. The runs are then walked once, over lines that
    /// pass brought in, into a buffer on the stack ([`ONE_WALK`] ids),
    /// which becomes a vector allocated once at its size. Only runs
    /// holding more ids than that are walked twice — to count, then to
    /// fill.
    pub fn candidates(&self, keys: &[u64]) -> Vec<VariantMatch> {
        let table = &self.table;
        if table.touch_homes(keys.iter().copied()) == 0 {
            return Vec::new();
        }
        let mut found = [0u32; ONE_WALK];
        let mut len = 0;
        for &key in keys {
            for word in table.ids(key) {
                let Some(at) = found.get_mut(len) else {
                    return self.counted_candidates(keys);
                };
                *at = word;
                len += 1;
            }
        }
        found[..len]
            .iter()
            .map(|&word| VariantMatch { word, distance: 0 })
            .collect()
    }

    /// [`Self::candidates`] for runs past [`ONE_WALK`] ids: walked twice,
    /// to count, then to fill a vector allocated once at that size.
    fn counted_candidates(&self, keys: &[u64]) -> Vec<VariantMatch> {
        let table = &self.table;
        let found = keys.iter().map(|&key| table.ids(key).count()).sum();
        let mut matches = Vec::with_capacity(found);
        for &key in keys {
            matches.extend(
                table
                    .ids(key)
                    .map(|word| VariantMatch { word, distance: 0 }),
            );
        }
        matches
    }

    /// Third batch: reduces `matches` to the distinct words within
    /// `max_ed` of `query`, exact distances filled in, sorted by
    /// (distance, word id). Repeated ids are dropped through a set on the
    /// stack (`DISTINCT_SLOTS`); more candidates than half its slots are
    /// sorted by id and de-duplicated instead.
    pub fn verify(&self, query: &[char], max_ed: usize, matches: &mut Vec<VariantMatch>) {
        distinct(matches);
        // As with the home slots: each candidate's offset and text are
        // two dependent misses, independent of the next candidate's.
        let text = self.text.as_bytes();
        let touched = matches.iter().fold(0, |seen, m| {
            seen ^ text
                .get(self.offsets[m.word as usize] as usize)
                .copied()
                .unwrap_or(0)
        });
        std::hint::black_box(touched);
        let verifier = Verifier::new(query);
        matches.retain_mut(|m| match verifier.within(self.word(m.word), max_ed) {
            Some(d) => {
                m.distance = d as u32;
                true
            }
            None => false,
        });
        matches.sort_unstable_by_key(|m| (m.distance, m.word));
    }
}

/// `(key, id)` pairs [`VariantIndex::build`] holds back so that their home
/// slots are read in one loop before they are inserted. A word's keys are
/// its deletion signatures or segment keys, 1 to 106 of them at ε = 2, so
/// a batch spans several words or part of one. Chosen by timing the build
/// over the 100k-publication vocabulary (DESIGN §15 item 4).
const FILL_BATCH: usize = 64;

/// Candidate ids [`VariantIndex::candidates`] collects on the stack in one
/// walk of the probe runs; more are counted first, then collected.
pub const ONE_WALK: usize = 1024;

/// Slots of the set [`distinct`] keeps on the stack: a power of two, at
/// most half of them filled.
const DISTINCT_SLOTS: usize = 1024;

/// Drops repeated words from `matches`. Up to [`DISTINCT_SLOTS`] / 2
/// candidates, the first of each word stays where it was; past that, they
/// are sorted by word and de-duplicated.
fn distinct(matches: &mut Vec<VariantMatch>) {
    if matches.len() > DISTINCT_SLOTS / 2 {
        matches.sort_unstable_by_key(|m| m.word);
        matches.dedup_by_key(|m| m.word);
        return;
    }
    // A slot holds word + 1 (ids stay below `u32::MAX`, see `build`), 0
    // when empty; the home is the top bits of a Fibonacci hash.
    let mut set = [0u32; DISTINCT_SLOTS];
    let shift = 32 - DISTINCT_SLOTS.trailing_zeros();
    matches.retain(|m| {
        let held = m.word + 1;
        let mut at = (m.word.wrapping_mul(0x9E37_79B9) >> shift) as usize;
        loop {
            match set[at] {
                0 => {
                    set[at] = held;
                    return true;
                }
                slot if slot == held => return false,
                _ => at = (at + 1) % DISTINCT_SLOTS,
            }
        }
    });
}

/// `(start, len)` spans of the deterministic segmentation of a word of
/// `len` characters into `parts` segments, the first `len % parts` one
/// longer. Must agree between index and query sides.
fn segment_spans(len: usize, parts: usize) -> impl Iterator<Item = (usize, usize)> {
    let parts = parts.max(1).min(len.max(1));
    let (base, rem) = (len / parts, len % parts);
    (0..parts).map(move |i| (i * base + i.min(rem), base + usize::from(i < rem)))
}

/// A brute-force variant finder: scans the whole vocabulary with the banded
/// edit-distance test. Serves as the correctness oracle for property tests
/// and as the baseline in the FastSS benchmark.
#[derive(Debug)]
pub struct NaiveVariantFinder {
    words: Vec<String>,
}

impl NaiveVariantFinder {
    /// Wraps a vocabulary for brute-force scanning.
    pub fn new<S: AsRef<str>>(words: &[S]) -> Self {
        NaiveVariantFinder {
            words: words.iter().map(|w| w.as_ref().to_string()).collect(),
        }
    }

    /// Scans every word, returning verified matches within `max_ed`.
    pub fn query(&self, query: &str, max_ed: usize) -> Vec<VariantMatch> {
        let mut out: Vec<VariantMatch> = self
            .words
            .iter()
            .enumerate()
            .filter_map(|(id, w)| {
                edit_distance_within(query, w, max_ed).map(|d| VariantMatch {
                    word: id as u32,
                    distance: d as u32,
                })
            })
            .collect();
        out.sort_unstable_by_key(|m| (m.distance, m.word));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vocab() -> Vec<&'static str> {
        vec![
            "tree",
            "trees",
            "trie",
            "icde",
            "icdt",
            "health",
            "insurance",
            "instance",
            "architecture",
            "keyword",
            "search",
            "database",
            "reconfigurable", // long: partitioned at default threshold 14? len 14 -> short
            "internationalization", // definitely long
            "misunderstanding",
        ]
    }

    #[test]
    fn finds_paper_example_variants() {
        let vocab = sample_vocab();
        let idx = VariantIndex::build(
            &vocab,
            VariantIndexConfig {
                epsilon: 1,
                partition_threshold: 14,
            },
        );
        let hits: Vec<&str> = idx
            .query("tree")
            .iter()
            .map(|m| vocab[m.word as usize])
            .collect();
        assert_eq!(hits, vec!["tree", "trees", "trie"]);
        let hits: Vec<&str> = idx
            .query("icdt")
            .iter()
            .map(|m| vocab[m.word as usize])
            .collect();
        assert_eq!(hits, vec!["icdt", "icde"]);
    }

    #[test]
    fn distances_are_exact() {
        let vocab = sample_vocab();
        let idx = VariantIndex::build(&vocab, VariantIndexConfig::default());
        for m in idx.query("helth") {
            assert_eq!(
                m.distance as usize,
                crate::edit_distance::edit_distance("helth", vocab[m.word as usize])
            );
        }
    }

    #[test]
    fn long_words_found_via_partitioning() {
        let vocab = sample_vocab();
        let idx = VariantIndex::build(
            &vocab,
            VariantIndexConfig {
                epsilon: 2,
                partition_threshold: 10,
            },
        );
        // One substitution inside a long word.
        let hits: Vec<&str> = idx
            .query("internationalizatiom")
            .iter()
            .map(|m| vocab[m.word as usize])
            .collect();
        assert!(hits.contains(&"internationalization"));
        // Deletion in a long word.
        let hits: Vec<&str> = idx
            .query("misunderstanding")
            .iter()
            .map(|m| vocab[m.word as usize])
            .collect();
        assert!(hits.contains(&"misunderstanding"));
    }

    #[test]
    fn agrees_with_naive_oracle() {
        let vocab = sample_vocab();
        let idx = VariantIndex::build(
            &vocab,
            VariantIndexConfig {
                epsilon: 2,
                partition_threshold: 8,
            },
        );
        let naive = NaiveVariantFinder::new(&vocab);
        for q in [
            "tree",
            "tre",
            "treeees",
            "icd",
            "helth",
            "architecture",
            "architectur",
            "misunderstandin",
            "internationalisation",
            "xyzzy",
            "searhc",
        ] {
            assert_eq!(idx.query(q), naive.query(q, 2), "query {q}");
        }
    }

    #[test]
    fn query_within_tightens_threshold() {
        let vocab = sample_vocab();
        let idx = VariantIndex::build(&vocab, VariantIndexConfig::default());
        let strict = idx.query_within("tre", 0);
        assert!(strict.is_empty());
        let loose = idx.query_within("tre", 1);
        assert!(!loose.is_empty());
        assert!(loose.iter().all(|m| m.distance <= 1));
    }

    #[test]
    fn empty_vocab_and_empty_query() {
        let idx = VariantIndex::build::<&str>(&[], VariantIndexConfig::default());
        assert!(idx.query("anything").is_empty());
        let vocab = ["ab"];
        let idx = VariantIndex::build(
            &vocab,
            VariantIndexConfig {
                epsilon: 2,
                partition_threshold: 14,
            },
        );
        let hits = idx.query("");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 2);
    }

    /// Every three-letter word over twelve letters: a keyword's one-letter
    /// deletion signatures each find hundreds of words, so the runs of
    /// `abc` overflow the one-walk buffer and its distinct candidates the
    /// set on the stack. Either fallback answers what the naive scan does.
    #[test]
    fn runs_past_the_one_walk_buffer_fall_back_to_counting() {
        let letters = "abcdefghijkl";
        let mut vocab = Vec::new();
        for x in letters.chars() {
            for y in letters.chars() {
                for z in letters.chars() {
                    vocab.push(format!("{x}{y}{z}"));
                }
            }
        }
        let idx = VariantIndex::build(&vocab, VariantIndexConfig::default());
        let naive = NaiveVariantFinder::new(&vocab);
        let raw = idx.candidates(&idx.probe_keys(&['a', 'b', 'c'], 2));
        let mut distinct = raw.clone();
        distinct.sort_unstable_by_key(|m| m.word);
        distinct.dedup();
        assert!(raw.len() > ONE_WALK, "{} candidates", raw.len());
        assert!(
            distinct.len() > DISTINCT_SLOTS / 2,
            "{} distinct",
            distinct.len()
        );
        for q in ["abc", "aaa", "ab", "abcd", "xyz", "", "a"] {
            for max_ed in 0..=3 {
                assert_eq!(
                    idx.query_within(q, max_ed),
                    naive.query(q, max_ed.min(2)),
                    "{q:?} {max_ed}"
                );
            }
        }
    }

    /// Four bytes a slot: a table of `u64` slots again fails this.
    #[test]
    fn table_bytes_are_four_per_slot_plus_the_text_and_offsets() {
        let vocab = sample_vocab();
        let idx = VariantIndex::build(&vocab, VariantIndexConfig::default());
        let stats = idx.table_stats();
        let text: usize = vocab.iter().map(|w| w.len()).sum();
        assert_eq!(stats.slot_bytes, 4);
        assert_eq!(stats.bytes, 4 * stats.slots + text + 4 * (vocab.len() + 1));
    }

    #[test]
    fn segment_spans_cover_word_exactly() {
        for len in 1..40 {
            for parts in 1..5 {
                let mut pos = 0;
                for (s, l) in segment_spans(len, parts) {
                    assert_eq!(s, pos);
                    assert!(l >= 1, "len={len} parts={parts}");
                    pos += l;
                }
                assert_eq!(pos, len);
            }
        }
    }
}

/// The probe table on hand-made keys: whatever shares a home slot, a
/// fingerprint or a run, a probe reports at least the ids inserted under
/// its key and stops at the first empty slot.
#[cfg(test)]
mod table {
    use super::*;

    /// Sixteen slots, so the home slot is the low four bits of `home`;
    /// ids below 16, so a slot's low five bits hold `id + 1`.
    fn table() -> ProbeTable {
        let table = ProbeTable::for_pairs(8, 16);
        assert_eq!((table.slots.len(), table.id_bits), (16, 5));
        table
    }

    fn key(home: u32, fingerprint: u32) -> u64 {
        u64::from(home) << 32 | u64::from(fingerprint)
    }

    fn ids(table: &ProbeTable, key: u64) -> Vec<u32> {
        table.ids(key).collect()
    }

    #[test]
    fn same_home_different_fingerprints_stay_apart() {
        let mut t = table();
        t.insert(key(3, 0xA), 1);
        t.insert(key(3, 0xB), 2);
        t.insert(key(3, 0xA), 5);
        assert_eq!(ids(&t, key(3, 0xA)), [1, 5]);
        assert_eq!(ids(&t, key(3, 0xB)), [2]);
        assert_eq!(ids(&t, key(3, 0xC)), []);
        assert_eq!(t.filled, 3);
    }

    #[test]
    fn same_fingerprint_in_one_run_only_adds_ids() {
        let mut t = table();
        // Home 3 takes slots 3 and 4; home 4 is pushed to slot 5.
        t.insert(key(3, 0xA), 1);
        t.insert(key(3, 0xA), 2);
        t.insert(key(4, 0xA), 7);
        assert_eq!(ids(&t, key(3, 0xA)), [1, 2, 7], "a superset: 7 is a clash");
        assert_eq!(ids(&t, key(4, 0xA)), [2, 7], "a superset: 2 is a clash");
        assert_eq!(t.longest_run(), 3);
    }

    #[test]
    fn a_probe_ends_at_the_first_empty_slot() {
        let mut t = table();
        // Same fingerprint at homes 3 and 5, slot 4 empty between them.
        t.insert(key(3, 0xA), 1);
        t.insert(key(5, 0xA), 9);
        assert_eq!(ids(&t, key(3, 0xA)), [1]);
        assert_eq!(ids(&t, key(4, 0xA)), []);
        assert_eq!(ids(&t, key(5, 0xA)), [9]);
    }

    #[test]
    fn a_run_wraps_past_the_end_of_the_table() {
        let mut t = table();
        for id in [1, 2, 3] {
            t.insert(key(15, 0xC), id);
        }
        assert_eq!(&t.slots[..2], [0xC << 5 | 3, 0xC << 5 | 4]);
        assert_eq!(ids(&t, key(15, 0xC)), [1, 2, 3]);
        // Only the masked bits of the high half pick the home slot.
        assert_eq!(ids(&t, key(15 + 16, 0xC)), [1, 2, 3]);
        assert_eq!(ids(&t, key(0, 0xC)), [2, 3], "a superset: the wrapped tail");
        assert_eq!(t.longest_run(), 3);
    }

    #[test]
    fn a_repeated_pair_is_stored_once() {
        let mut t = table();
        t.insert(key(7, 1), 4);
        t.insert(key(7, 1), 6);
        t.insert(key(7, 1), 4);
        t.insert(key(7, 1), 6);
        assert_eq!(t.filled, 2);
        assert_eq!(ids(&t, key(7, 1)), [4, 6]);
    }

    #[test]
    fn the_largest_id_round_trips() {
        let mut t = table();
        // Five id bits hold ids up to 30: the slot holds id + 1.
        t.insert(key(2, u32::MAX), 30);
        t.insert(key(2, u32::MAX), 0);
        assert_eq!(ids(&t, key(2, u32::MAX)), [30, 0]);
        // The largest id `build` admits leaves no fingerprint bits: every
        // slot of the run answers, which only adds candidates.
        let mut t = ProbeTable::for_pairs(2, u32::MAX as usize);
        assert_eq!(t.id_bits, 32);
        t.insert(key(2, 1), u32::MAX - 1);
        t.insert(key(2, 2), 0);
        assert_eq!(ids(&t, key(2, 3)), [u32::MAX - 1, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit the table's 5 id bits")]
    fn an_id_past_the_id_bits_is_refused() {
        table().insert(key(0, 1), 31);
    }

    #[test]
    fn an_empty_table_answers_every_probe() {
        let t = ProbeTable::for_pairs(0, 0);
        assert_eq!(t.slots, [0]);
        assert_eq!(ids(&t, key(9, 9)), []);
        assert_eq!(t.longest_run(), 0);
    }

    #[test]
    #[should_panic(expected = "more pairs than the table was sized for")]
    fn filling_past_half_is_a_bug_not_an_endless_probe() {
        let mut t = ProbeTable::for_pairs(1, 3);
        t.insert(key(0, 1), 1);
        t.insert(key(0, 2), 2);
    }

    /// The table `VariantIndex::build` must leave: every pair, words in
    /// input order and each word's keys in the order they are made,
    /// inserted one at a time, with no batch and no touch pass.
    pub(super) fn one_at_a_time<S: AsRef<str>>(
        words: &[S],
        config: &VariantIndexConfig,
    ) -> ProbeTable {
        let eps = config.epsilon;
        let chars: Vec<Vec<char>> = words.iter().map(|w| w.as_ref().chars().collect()).collect();
        let short = |w: &[char]| w.len() <= config.partition_threshold;
        let pairs = chars
            .iter()
            .map(|w| {
                if short(w) {
                    neighborhood_bound(w.len(), eps)
                } else {
                    eps + 1
                }
            })
            .sum();
        let mut table = ProbeTable::for_pairs(pairs, words.len());
        for (id, w) in chars.iter().enumerate() {
            let id = id as u32;
            if short(w) {
                for_each_deletion_signature(w, eps, |h| table.insert(h, id));
            } else {
                for (ord, (start, len)) in segment_spans(w.len(), eps + 1).enumerate() {
                    let key = long_key(&w[start..start + len], ord as u8, w.len() as u16);
                    table.insert(key, id);
                }
            }
        }
        table
    }

    /// Every word of up to three letters over six (most of them several
    /// times), then long words: the empty and one-letter signatures are
    /// shared by hundreds of words, so many pairs of one batch meet in one
    /// run, and the fill crosses dozens of batch boundaries, mid-word
    /// included.
    #[test]
    fn a_fill_across_many_batches_matches_one_insert_at_a_time() {
        let letters = ["", "a", "b", "c", "d", "e", "f"];
        let mut words = Vec::new();
        for x in letters {
            for y in letters {
                for z in letters {
                    words.push(format!("{x}{y}{z}"));
                }
            }
        }
        words.extend(
            [
                "internationalization",
                "misunderstandings",
                "abcdefabcdefabcdef",
            ]
            .map(String::from),
        );
        let config = VariantIndexConfig::default();
        let idx = VariantIndex::build(&words, config.clone());
        let reference = one_at_a_time(&words, &config);
        assert!(
            reference.filled > 16 * FILL_BATCH,
            "{} pairs",
            reference.filled
        );
        assert_eq!(idx.table.filled, reference.filled);
        assert_eq!(idx.table.slots.len(), reference.slots.len());
        let first_difference =
            (idx.table.slots.iter().zip(&reference.slots)).position(|(a, b)| a != b);
        assert_eq!(first_difference, None);
    }

    #[test]
    fn the_last_word_of_the_vocabulary_is_reachable() {
        let vocab = ["alpha", "beta", "gamma", "internationalization", "delta"];
        let idx = VariantIndex::build(&vocab, VariantIndexConfig::default());
        let last = vocab.len() as u32 - 1;
        assert_eq!(idx.word(last), "delta");
        assert_eq!(
            idx.query("delto"),
            [VariantMatch {
                word: last,
                distance: 1
            }]
        );
        // An empty last word sits at the very end of the text.
        let vocab = ["ab", ""];
        let idx = VariantIndex::build(&vocab, VariantIndexConfig::default());
        assert_eq!(idx.word(1), "");
        assert_eq!(idx.query("a").len(), 2);
    }

    /// A key with the home and the stored fingerprint bits of one of
    /// `tree`'s keys, under which `xyzzy` is stored: the probe reports
    /// both words, and exact verification keeps only `tree`.
    #[test]
    fn a_fingerprint_collision_reaches_verification_and_no_further() {
        let vocab = ["tree", "xyzzy"];
        let mut idx = VariantIndex::build(&vocab, VariantIndexConfig::default());
        let keys = idx.probe_keys(&['t', 'r', 'e', 'e'], 2);
        // Two words: two id bits, so bit 31 of a key is not stored.
        assert_eq!(idx.table.id_bits, 2);
        let clash = keys[0] ^ 1 << 31;
        idx.table.insert(clash, 1);
        assert_eq!(ids(&idx.table, keys[0]), [0, 1]);
        assert!(idx.candidates(&keys).iter().any(|m| m.word == 1));
        assert_eq!(
            idx.query("tree"),
            [VariantMatch {
                word: 0,
                distance: 0
            }]
        );
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The index must return exactly what the naive scan returns, for
        /// any vocabulary and query, across partition thresholds and
        /// per-call thresholds at, under and over ε: with non-ASCII
        /// scalars, repeated words, and words and queries past the 64
        /// scalars one Myers block holds.
        #[test]
        fn index_equals_oracle(
            vocab in proptest::collection::vec("[a-cä一]{1,18}", 1..30),
            giants in proptest::collection::vec("[a-cä]{62,70}", 0..3),
            repeats in proptest::collection::vec(0usize..64, 0..4),
            query in "[a-cä一]{0,18}",
            edit in 0usize..70,
            threshold in 4usize..16,
        ) {
            let mut words = vocab;
            words.extend(giants.iter().cloned());
            for r in repeats {
                words.push(words[r % words.len()].clone());
            }
            // Each giant word, as it is and two edits away, is a query too.
            let mut queries = vec![query];
            for g in &giants {
                let mut chars: Vec<char> = g.chars().collect();
                chars.remove(edit % chars.len());
                chars.insert(edit * 7 % chars.len(), '一');
                queries.extend([g.clone(), chars.into_iter().collect()]);
            }
            let idx = VariantIndex::build(&words, VariantIndexConfig {
                epsilon: 2,
                partition_threshold: threshold,
            });
            let naive = NaiveVariantFinder::new(&words);
            for q in &queries {
                prop_assert_eq!(idx.query(q), naive.query(q, 2));
                for max_ed in 0..=3 {
                    prop_assert_eq!(idx.query_within(q, max_ed), naive.query(q, max_ed.min(2)));
                }
            }
        }

        /// `query` answers what a scan of every word with
        /// `edit_distance_within` answers, at every ε the index is built
        /// for: over vocabularies of up to 300 words (so up to nine id
        /// bits), empty and repeated words and words past the partition
        /// threshold among them.
        #[test]
        fn query_equals_a_scan_of_every_word(
            vocab in proptest::collection::vec("[a-dé]{0,11}", 1..300),
            queries in proptest::collection::vec("[a-dé]{0,12}", 1..6),
            epsilon in 0usize..=2,
            threshold in 3usize..12,
        ) {
            let idx = VariantIndex::build(&vocab, VariantIndexConfig {
                epsilon,
                partition_threshold: threshold,
            });
            for q in &queries {
                let mut scan: Vec<VariantMatch> = vocab
                    .iter()
                    .enumerate()
                    .filter_map(|(id, w)| {
                        edit_distance_within(q, w, epsilon).map(|d| VariantMatch {
                            word: id as u32,
                            distance: d as u32,
                        })
                    })
                    .collect();
                scan.sort_unstable_by_key(|m| (m.distance, m.word));
                prop_assert_eq!(idx.query(q), scan, "{:?} at ε {}", q, epsilon);
            }
        }

        /// The batched fill leaves the table's bits as inserting every pair
        /// one at a time in input order does: over short words that share
        /// signatures, repeated words, words past the partition threshold
        /// among them, and ε from 0 to 2.
        #[test]
        fn build_fills_the_table_one_insert_at_a_time_would(
            vocab in proptest::collection::vec((0u8..4, "[ab]{0,5}", "[a-cé]{6,30}"), 1..120),
            repeats in proptest::collection::vec(0usize..120, 0..20),
            epsilon in 0usize..=2,
            threshold in 4usize..16,
        ) {
            let mut words: Vec<String> = vocab
                .into_iter()
                .map(|(kind, short, long)| if kind == 0 { long } else { short })
                .collect();
            for r in repeats {
                words.push(words[r % words.len()].clone());
            }
            let config = VariantIndexConfig { epsilon, partition_threshold: threshold };
            let idx = VariantIndex::build(&words, config.clone());
            let reference = table::one_at_a_time(&words, &config);
            prop_assert_eq!(idx.table.filled, reference.filled);
            prop_assert!(idx.table.slots == reference.slots, "slots differ");
        }

        /// De-duplication keeps one candidate per word, the first one in
        /// place up to half the set's slots — whichever ids share a home.
        #[test]
        fn distinct_keeps_one_candidate_per_word(
            ids in proptest::collection::vec(0u32..1500, 0..700),
        ) {
            let mut matches: Vec<VariantMatch> =
                ids.iter().map(|&word| VariantMatch { word, distance: 0 }).collect();
            distinct(&mut matches);
            let mut expect = ids.clone();
            let mut seen = std::collections::BTreeSet::new();
            expect.retain(|&id| seen.insert(id));
            if ids.len() > DISTINCT_SLOTS / 2 {
                expect.sort_unstable();
            }
            let words: Vec<u32> = matches.iter().map(|m| m.word).collect();
            prop_assert_eq!(words, expect);
        }

        /// Whatever is inserted, under keys made to share homes and
        /// fingerprints — some of them only in the bits a slot stores:
        /// a probe reports every id inserted under its key, nothing that
        /// was not inserted under its stored fingerprint, and no pair
        /// fills two slots.
        #[test]
        fn probes_report_a_superset(
            pairs in proptest::collection::vec((0u32..20, 0u32..24, 0u32..6), 0..40),
        ) {
            // Fingerprints 0 to 2 in the low bits, 0 to 7 in the top three,
            // which a table of ids below 6 (three id bits) does not store.
            let pairs: Vec<(u32, u32, u32)> =
                pairs.iter().map(|&(h, f, id)| (h, (f % 3) | ((f / 3) << 29), id)).collect();
            let key = |home: u32, fingerprint: u32| u64::from(home) << 32 | u64::from(fingerprint);
            let stored = |fingerprint: u32| fingerprint << 3;
            let mut table = ProbeTable::for_pairs(pairs.len(), 6);
            assert_eq!(table.id_bits, 3);
            for &(home, fingerprint, id) in &pairs {
                table.insert(key(home, fingerprint), id);
            }
            // A slot holds no home, so a pair is also "already held" when
            // another key's equal (stored fingerprint, id) sits in its run.
            let distinct: std::collections::BTreeSet<_> = pairs.iter().collect();
            let slots: std::collections::BTreeSet<_> =
                pairs.iter().map(|&(_, f, id)| (stored(f), id)).collect();
            prop_assert!(slots.len() <= table.filled && table.filled <= distinct.len());
            for &(home, fingerprint, _) in &pairs {
                let found: Vec<u32> = table.ids(key(home, fingerprint)).collect();
                for &(h, f, id) in &pairs {
                    if (h, f) == (home, fingerprint) {
                        prop_assert!(found.contains(&id));
                    }
                }
                for id in found {
                    prop_assert!(pairs
                        .iter()
                        .any(|&(_, f, i)| (stored(f), i) == (stored(fingerprint), id)));
                }
            }
        }
    }
}
