//! Levenshtein edit distance with threshold-aware (banded) computation.
//!
//! The paper's error model (§IV-B1) and variant generation (§V-A) are both
//! defined over the standard edit distance with unit-cost insertions,
//! deletions, and substitutions.
//!
//! Dispatch: when the shorter string fits in one machine word (≤64
//! scalars — every realistic vocabulary term), both entry points use the
//! Myers bit-parallel scan in [`crate::myers`], which is exact and
//! allocation-free; longer inputs fall back to the classic rolling-row /
//! banded DP below. Strings of ≤64 scalars are also collected into stack
//! buffers, so a comparison performs zero heap allocations.
//!
//! Candidate verification (`VariantIndex::query_within`) compares one
//! query keyword with many vocabulary words; `Verifier` holds the
//! keyword's side — decoded once, its Myers masks filled once — and
//! answers exactly what [`edit_distance_within`] would.

use crate::myers;

/// Collects `s` into a stack buffer when it has ≤64 scalars (the common
/// case for vocabulary terms), falling back to the heap above that.
pub(crate) fn with_chars<R>(s: &str, f: impl FnOnce(&[char]) -> R) -> R {
    let mut stack = ['\0'; myers::MAX_PATTERN];
    let mut n = 0;
    for c in s.chars() {
        if n == myers::MAX_PATTERN {
            let v: Vec<char> = s.chars().collect();
            return f(&v);
        }
        stack[n] = c;
        n += 1;
    }
    f(&stack[..n])
}

/// Computes the full Levenshtein distance between `a` and `b`.
///
/// Runs in `O(|a|·|b|)` time and `O(min(|a|,|b|))` space (bit-parallel:
/// `O(|long|)` words). Operates on Unicode scalar values, so
/// `ed("schütze", "schutze") == 1`.
pub fn edit_distance(a: &str, b: &str) -> usize {
    with_chars(a, |a| with_chars(b, |b| edit_distance_chars(a, b)))
}

fn edit_distance_chars(a: &[char], b: &[char]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    if short.len() <= myers::MAX_PATTERN {
        return myers::distance(short, long);
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Tests whether `ed(a, b) <= max`, using a banded dynamic program that
/// runs in `O(max · min(|a|,|b|))` time. Returns the exact distance when it
/// is within the bound, `None` otherwise.
pub fn edit_distance_within(a: &str, b: &str, max: usize) -> Option<usize> {
    with_chars(a, |a| {
        with_chars(b, |b| edit_distance_within_chars(a, b, max))
    })
}

fn edit_distance_within_chars(a: &[char], b: &[char], max: usize) -> Option<usize> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > max {
        return None;
    }
    if short.is_empty() {
        return Some(long.len());
    }
    if short.len() <= myers::MAX_PATTERN {
        // The bit-parallel scan computes the exact distance in O(|long|)
        // word steps with no allocation — faster than maintaining the
        // band even though it cannot early-exit. (The length filter above
        // already rejected the cheap cases.)
        let d = myers::distance(short, long);
        return (d <= max).then_some(d);
    }
    const BIG: usize = usize::MAX / 2;
    // Band of width 2*max+1 around the diagonal.
    let n = short.len();
    let mut prev = vec![BIG; n + 1];
    let mut cur = vec![BIG; n + 1];
    for (j, p) in prev.iter_mut().enumerate().take(max.min(n) + 1) {
        *p = j;
    }
    for (i, &lc) in long.iter().enumerate() {
        let row = i + 1;
        let lo = row.saturating_sub(max);
        let hi = (row + max).min(n);
        if lo > hi {
            return None;
        }
        cur[lo.saturating_sub(1)] = BIG;
        if lo == 0 {
            cur[0] = row;
        } else {
            cur[lo - 1] = BIG;
        }
        let mut best = BIG;
        let start = lo.max(1);
        for j in start..=hi {
            let cost = usize::from(lc != short[j - 1]);
            let diag = prev[j - 1].saturating_add(cost);
            let up = prev[j].saturating_add(1);
            let left = cur[j - 1].saturating_add(1);
            let v = diag.min(up).min(left);
            cur[j] = v;
            best = best.min(v);
        }
        if lo == 0 {
            best = best.min(cur[0]);
        }
        if best > max {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[n];
    (d <= max).then_some(d)
}

/// One string prepared for comparison with many:
/// `Verifier::new(q).within(w, max) == edit_distance_within(q_str, w, max)`
/// for every `w` and `max`.
///
/// A query of 1 ..= 64 scalars is the fixed Myers *pattern* whichever
/// string is shorter — the distance is symmetric and the scan exact for
/// any text length — so its equivalence masks are built once per keyword
/// instead of once per candidate, and a candidate is scanned straight
/// off its UTF-8 bytes. Longer (and empty) queries take the pairwise
/// routine.
pub(crate) struct Verifier<'q> {
    query: &'q [char],
    pattern: Option<myers::Pattern>,
}

impl<'q> Verifier<'q> {
    pub(crate) fn new(query: &'q [char]) -> Self {
        let fits = (1..=myers::MAX_PATTERN).contains(&query.len());
        Verifier {
            query,
            pattern: fits.then(|| myers::Pattern::new(query)),
        }
    }

    pub(crate) fn within(&self, word: &str, max: usize) -> Option<usize> {
        match &self.pattern {
            Some(pattern) => {
                let d = pattern.distance(word.chars());
                (d <= max).then_some(d)
            }
            None => with_chars(word, |w| edit_distance_within_chars(self.query, w, max)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_cases() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("insurance", "instance"), 2);
        assert_eq!(edit_distance("icdt", "icde"), 1);
        assert_eq!(edit_distance("tree", "trie"), 1);
        assert_eq!(edit_distance("tree", "trees"), 1);
        assert_eq!(edit_distance("hinirch", "hinrich"), 2);
    }

    #[test]
    fn unicode_counts_scalars() {
        assert_eq!(edit_distance("schütze", "schutze"), 1);
        assert_eq!(edit_distance("schütze", "schuetze"), 2);
    }

    #[test]
    fn within_agrees_with_full() {
        let words = [
            "",
            "a",
            "ab",
            "tree",
            "trie",
            "trees",
            "icde",
            "icdt",
            "health",
            "instance",
            "insurance",
            "architecture",
            "archetecture",
        ];
        for x in words {
            for y in words {
                let full = edit_distance(x, y);
                for max in 0..5 {
                    let w = edit_distance_within(x, y, max);
                    if full <= max {
                        assert_eq!(w, Some(full), "{x} vs {y} max {max}");
                    } else {
                        assert_eq!(w, None, "{x} vs {y} max {max}");
                    }
                }
            }
        }
    }

    #[test]
    fn length_filter_short_circuits() {
        assert_eq!(edit_distance_within("ab", "abcdefgh", 2), None);
    }

    /// `Verifier` against both pairwise routines, either string prepared.
    pub(super) fn assert_verifier_agrees(a: &str, b: &str) {
        let full = edit_distance(a, b);
        assert_eq!(full, edit_distance(b, a));
        for (query, word) in [(a, b), (b, a)] {
            let chars: Vec<char> = query.chars().collect();
            let verifier = Verifier::new(&chars);
            for max in 0..=3 {
                let expect = (full <= max).then_some(full);
                assert_eq!(
                    verifier.within(word, max),
                    expect,
                    "{query:?} {word:?} {max}"
                );
                assert_eq!(edit_distance_within(query, word, max), expect);
            }
        }
    }

    #[test]
    fn a_prepared_query_verifies_like_the_pairwise_routine() {
        let block = "abcdefgh".repeat(8);
        assert_eq!(block.chars().count(), 64);
        // Bit 63: the last scalar of a full block differs, is missing, is extra.
        let last_differs = format!("{}x", &block[..63]);
        assert_verifier_agrees(&block, &last_differs);
        assert_verifier_agrees(&block, &block[..63]);
        assert_verifier_agrees(&block, &format!("{block}h"));
        // 65 scalars: no pattern, the pairwise fallback.
        let over = format!("{block}a");
        assert_verifier_agrees(&over, &format!("{block}b"));
        assert_verifier_agrees(&over, &format!("b{block}"));
        assert_verifier_agrees(&over, &block[..63]);
        // The empty string on either side.
        for other in ["", "a", "ab", "abc", "abcd", "ä"] {
            assert_verifier_agrees("", other);
        }
        // Text scalars outside the pattern's alphabet, both table kinds.
        assert_verifier_agrees("abc", "äbc");
        assert_verifier_agrees("abc", "一二三");
        assert_verifier_agrees("schütze", "schutze");
        assert_verifier_agrees("schütze", "schuetze");
        assert_verifier_agrees("tree", "trie");
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    /// Textbook Wagner–Fischer reference: the full `O(n·m)` matrix with
    /// no banding, rolling rows, or argument swapping. Deliberately the
    /// dumbest correct implementation, as the oracle for both production
    /// variants.
    fn reference_dp(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let mut m = vec![vec![0usize; b.len() + 1]; a.len() + 1];
        for (i, row) in m.iter_mut().enumerate() {
            row[0] = i;
        }
        for (j, cell) in m[0].iter_mut().enumerate() {
            *cell = j;
        }
        for i in 1..=a.len() {
            for j in 1..=b.len() {
                let cost = usize::from(a[i - 1] != b[j - 1]);
                m[i][j] = (m[i - 1][j - 1] + cost)
                    .min(m[i - 1][j] + 1)
                    .min(m[i][j - 1] + 1);
            }
        }
        m[a.len()][b.len()]
    }

    proptest! {
        /// Production distance equals the reference DP on random ASCII,
        /// and the banded variant agrees for every threshold.
        #[test]
        fn matches_reference_dp_ascii(a in "[a-h]{0,12}", b in "[a-h]{0,12}", max in 0usize..6) {
            let expect = reference_dp(&a, &b);
            prop_assert_eq!(edit_distance(&a, &b), expect);
            let banded = edit_distance_within(&a, &b, max);
            if expect <= max {
                prop_assert_eq!(banded, Some(expect));
            } else {
                prop_assert_eq!(banded, None);
            }
        }

        /// Same agreement on multi-byte UTF-8: Greek and CJK scalars mixed
        /// with ASCII, so byte length and char length diverge.
        #[test]
        fn matches_reference_dp_utf8(
            a_greek in proptest::collection::vec(proptest::char::range('α', 'ω'), 0..5),
            a_ascii in proptest::collection::vec(proptest::char::range('a', 'f'), 0..5),
            b_cjk in proptest::collection::vec(proptest::char::range('一', '十'), 0..5),
            b_ascii in proptest::collection::vec(proptest::char::range('a', 'f'), 0..5),
            max in 0usize..5,
        ) {
            // Interleave so multi-byte scalars appear at arbitrary offsets.
            let interleave = |x: &[char], y: &[char]| -> String {
                let mut s = String::new();
                let mut xi = x.iter();
                let mut yi = y.iter();
                loop {
                    match (xi.next(), yi.next()) {
                        (None, None) => break,
                        (cx, cy) => {
                            if let Some(&c) = cx { s.push(c); }
                            if let Some(&c) = cy { s.push(c); }
                        }
                    }
                }
                s
            };
            let a = interleave(&a_greek, &a_ascii);
            let b = interleave(&b_cjk, &b_ascii);
            let expect = reference_dp(&a, &b);
            prop_assert_eq!(edit_distance(&a, &b), expect);
            prop_assert_eq!(edit_distance(&b, &a), expect);
            let banded = edit_distance_within(&a, &b, max);
            if expect <= max {
                prop_assert_eq!(banded, Some(expect));
            } else {
                prop_assert_eq!(banded, None);
            }
        }

        /// Myers bit-parallel vs the reference DP across the 64-scalar
        /// block boundary: interleaved 1-, 2-, and 3-byte scalars (so
        /// char indices and byte offsets diverge) at lengths up to ~90,
        /// crossing from the single-block fast path (≤64) into the
        /// classic-DP fallback (>64). `edit_distance_within` must agree
        /// at every threshold, including thresholds near the length gap.
        #[test]
        fn myers_matches_reference_dp_across_block_boundary(
            a_ascii in proptest::collection::vec(proptest::char::range('a', 'e'), 0..31),
            a_greek in proptest::collection::vec(proptest::char::range('α', 'ε'), 0..31),
            a_cjk in proptest::collection::vec(proptest::char::range('一', '五'), 0..31),
            b_ascii in proptest::collection::vec(proptest::char::range('a', 'e'), 0..31),
            b_greek in proptest::collection::vec(proptest::char::range('α', 'ε'), 0..31),
            b_cjk in proptest::collection::vec(proptest::char::range('一', '五'), 0..31),
            max in 0usize..95,
        ) {
            let interleave = |x: &[char], y: &[char], z: &[char]| -> String {
                let mut s = String::new();
                let n = x.len().max(y.len()).max(z.len());
                for i in 0..n {
                    if let Some(&c) = x.get(i) { s.push(c); }
                    if let Some(&c) = y.get(i) { s.push(c); }
                    if let Some(&c) = z.get(i) { s.push(c); }
                }
                s
            };
            let a = interleave(&a_ascii, &a_greek, &a_cjk);
            let b = interleave(&b_ascii, &b_greek, &b_cjk);
            let expect = reference_dp(&a, &b);
            prop_assert_eq!(edit_distance(&a, &b), expect);
            prop_assert_eq!(edit_distance(&b, &a), expect);
            let within = edit_distance_within(&a, &b, max);
            if expect <= max {
                prop_assert_eq!(within, Some(expect));
            } else {
                prop_assert_eq!(within, None);
            }
        }

        /// A pattern at exactly 64 scalars (the widest single Myers
        /// block, sign-bit arithmetic included) against texts both
        /// shorter and much longer.
        #[test]
        fn myers_full_block_edge(
            text in proptest::collection::vec(proptest::char::range('a', 'd'), 0..150),
            pattern in proptest::collection::vec(proptest::char::range('a', 'd'), 64..65),
        ) {
            let p: String = pattern.into_iter().collect();
            let t: String = text.into_iter().collect();
            prop_assert_eq!(edit_distance(&p, &t), reference_dp(&p, &t));
        }

        /// A query prepared once as the fixed Myers pattern gives the
        /// distance the pairwise routines give — for strings a few edits
        /// apart and for unrelated ones, whichever is longer, across the
        /// 64-scalar block boundary, over one-, two-, three- and
        /// four-byte scalars.
        #[test]
        fn prepared_query_matches_pairwise(
            a in proptest::collection::vec(0usize..10, 0..70),
            b in proptest::collection::vec(0usize..10, 0..70),
            edits in proptest::collection::vec((0usize..3, 0usize..70, 0usize..10), 0..4),
        ) {
            const ALPHABET: [char; 10] = ['a', 'b', 'c', 'd', 'ä', 'ß', 'α', '一', '二', '😀'];
            let text = |picks: &[usize]| -> String { picks.iter().map(|&i| ALPHABET[i]).collect() };
            let mut near: Vec<char> = text(&a).chars().collect();
            for (kind, at, pick) in edits {
                let len = near.len();
                match kind {
                    0 if len > 0 => near[at % len] = ALPHABET[pick],
                    1 if len > 0 => {
                        near.remove(at % len);
                    }
                    _ => near.insert(at % (len + 1), ALPHABET[pick]),
                }
            }
            let near: String = near.into_iter().collect();
            prop_assert_eq!(edit_distance(&text(&a), &near), reference_dp(&text(&a), &near));
            super::tests::assert_verifier_agrees(&text(&a), &near);
            super::tests::assert_verifier_agrees(&text(&a), &text(&b));
            super::tests::assert_verifier_agrees(&text(&a), "");
        }

        #[test]
        fn symmetric(a in "[a-c]{0,8}", b in "[a-c]{0,8}") {
            prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        }

        #[test]
        fn identity(a in "[a-z]{0,10}") {
            prop_assert_eq!(edit_distance(&a, &a), 0);
        }

        #[test]
        fn triangle_inequality(a in "[a-c]{0,6}", b in "[a-c]{0,6}", c in "[a-c]{0,6}") {
            let ab = edit_distance(&a, &b);
            let bc = edit_distance(&b, &c);
            let ac = edit_distance(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn banded_matches_full(a in "[a-d]{0,10}", b in "[a-d]{0,10}", max in 0usize..4) {
            let full = edit_distance(&a, &b);
            let banded = edit_distance_within(&a, &b, max);
            if full <= max {
                prop_assert_eq!(banded, Some(full));
            } else {
                prop_assert_eq!(banded, None);
            }
        }

        #[test]
        fn single_edit_is_distance_one(a in "[a-z]{1,10}", pos in 0usize..10, ch in proptest::char::range('a', 'z')) {
            let chars: Vec<char> = a.chars().collect();
            let pos = pos % chars.len();
            // substitution
            let mut sub = chars.clone();
            sub[pos] = ch;
            let sub: String = sub.into_iter().collect();
            prop_assert!(edit_distance(&a, &sub) <= 1);
            // deletion
            let mut del = chars.clone();
            del.remove(pos);
            let del: String = del.into_iter().collect();
            prop_assert_eq!(edit_distance(&a, &del), 1);
        }
    }
}
