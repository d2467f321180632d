//! Myers bit-parallel Levenshtein distance (single u64 block).
//!
//! Computes the exact unit-cost edit distance between a *pattern* of at
//! most 64 scalars and a text of any length in `O(|text|)` word
//! operations, using Hyyrö's formulation of Myers' 1999 algorithm: the
//! DP column is carried as two 64-bit vertical-delta bitvectors (`pv` set
//! where the column increases downward, `mv` where it decreases), updated
//! per text character with a dozen word operations and one carry-add.
//!
//! Because the recurrence is the standard Levenshtein DP expressed
//! bit-parallel — not an approximation — the result is *identical* to the
//! classic dynamic program, which is what lets
//! [`crate::edit_distance::edit_distance_within`] swap it in under the
//! engine's bit-identity suites. Patterns longer than 64 scalars fall
//! back to the banded DP in the caller.
//!
//! Candidate verification is the hot caller (`VariantIndex::query_within`
//! verifies every deletion-neighborhood hit), so the pattern equivalence
//! masks avoid heap allocation entirely: an ASCII pattern uses a stacked
//! 128-entry table, and a general Unicode pattern uses a stacked
//! association list (≤64 distinct scalars by construction). The masks
//! are a `Pattern` of their own so that a caller comparing one string
//! with many — the query keyword with each of its candidates — fills
//! them once.

/// Longest pattern (in Unicode scalars) the single-block fast path takes.
pub(crate) const MAX_PATTERN: usize = 64;

/// The equivalence masks of one pattern: bit `i` of the mask of `c` is
/// set iff `pattern[i] == c`.
pub(crate) struct Pattern {
    len: usize,
    masks: Masks,
}

enum Masks {
    Ascii(AsciiMasks),
    Scalars(ScalarMasks),
}

/// ASCII fast table: branch-free equivalence lookups.
struct AsciiMasks([u64; 128]);

/// General Unicode: an association list of the pattern's distinct
/// scalars (≤64 entries, cache-resident).
struct ScalarMasks([(char, u64); MAX_PATTERN], usize);

// Both tables are a kilobyte and are filled where they stand (`EMPTY`,
// then `fill`): returned by value from a constructor they were copied,
// which cost the pairwise `distance` a quarter of its time.
impl AsciiMasks {
    const EMPTY: Self = AsciiMasks([0; 128]);

    fn fits(pattern: &[char]) -> bool {
        pattern.iter().all(|&c| (c as u32) < 128)
    }

    /// `pattern` must [`fit`](Self::fits).
    #[inline]
    fn fill(&mut self, pattern: &[char]) {
        for (i, &c) in pattern.iter().enumerate() {
            self.0[c as usize] |= 1 << i;
        }
    }

    #[inline]
    fn eq(&self, c: char) -> u64 {
        // Text scalars outside the pattern's alphabet match nothing.
        self.0.get(c as usize).copied().unwrap_or(0)
    }
}

impl ScalarMasks {
    const EMPTY: Self = ScalarMasks([('\0', 0); MAX_PATTERN], 0);

    #[inline]
    fn fill(&mut self, pattern: &[char]) {
        let ScalarMasks(keys, n) = self;
        for (i, &c) in pattern.iter().enumerate() {
            match keys[..*n].iter_mut().find(|(k, _)| *k == c) {
                Some((_, mask)) => *mask |= 1 << i,
                None => {
                    keys[*n] = (c, 1 << i);
                    *n += 1;
                }
            }
        }
    }

    #[inline]
    fn eq(&self, c: char) -> u64 {
        self.0[..self.1]
            .iter()
            .find(|(k, _)| *k == c)
            .map_or(0, |&(_, mask)| mask)
    }
}

impl Pattern {
    /// Prepares `pattern` as the bit-parallel column.
    ///
    /// Requirements (checked in debug builds): `1 <= pattern.len() <= 64`.
    pub(crate) fn new(pattern: &[char]) -> Self {
        debug_assert!(!pattern.is_empty() && pattern.len() <= MAX_PATTERN);
        let mut masks = if AsciiMasks::fits(pattern) {
            Masks::Ascii(AsciiMasks::EMPTY)
        } else {
            Masks::Scalars(ScalarMasks::EMPTY)
        };
        match &mut masks {
            Masks::Ascii(masks) => masks.fill(pattern),
            Masks::Scalars(masks) => masks.fill(pattern),
        }
        Pattern {
            len: pattern.len(),
            masks,
        }
    }

    /// Exact Levenshtein distance between the pattern and `text`. The
    /// distance is symmetric, so which of two strings is the pattern
    /// changes the work done and not the answer.
    pub(crate) fn distance(&self, text: impl Iterator<Item = char>) -> usize {
        match &self.masks {
            Masks::Ascii(masks) => scan(self.len, text, |c| masks.eq(c)),
            Masks::Scalars(masks) => scan(self.len, text, |c| masks.eq(c)),
        }
    }
}

/// Exact Levenshtein distance with `pattern` as the bit-parallel column,
/// for a pair compared once.
///
/// Requirements (checked in debug builds): `1 <= pattern.len() <= 64`.
/// The caller puts the *shorter* string in `pattern` — that both
/// maximizes the fast path's reach and minimizes per-step work.
pub(crate) fn distance(pattern: &[char], text: &[char]) -> usize {
    debug_assert!(!pattern.is_empty() && pattern.len() <= MAX_PATTERN);
    let text = text.iter().copied();
    if AsciiMasks::fits(pattern) {
        let mut masks = AsciiMasks::EMPTY;
        masks.fill(pattern);
        scan(pattern.len(), text, |c| masks.eq(c))
    } else {
        let mut masks = ScalarMasks::EMPTY;
        masks.fill(pattern);
        scan(pattern.len(), text, |c| masks.eq(c))
    }
}

/// The core scan: one Hyyrö step per text scalar. `eq(c)` returns the
/// pattern-equivalence mask for `c` (bit `i` set iff `pattern[i] == c`).
fn scan(m: usize, text: impl Iterator<Item = char>, eq: impl Fn(char) -> u64) -> usize {
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    // Bits at positions ≥ m never influence bits < m (carries in the add
    // only propagate upward), so the unused high bits of pv are harmless.
    let hibit = 1u64 << (m - 1);
    for c in text {
        let eqc = eq(c);
        let xv = eqc | mv;
        let xh = (((eqc & pv).wrapping_add(pv)) ^ pv) | eqc;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & hibit != 0 {
            score += 1;
        }
        if mh & hibit != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    fn d(a: &str, b: &str) -> usize {
        distance(&chars(a), &chars(b))
    }

    #[test]
    fn classic_cases() {
        assert_eq!(d("kitten", "sitting"), 3);
        assert_eq!(d("sitting", "kitten"), 3);
        assert_eq!(d("abc", "abc"), 0);
        assert_eq!(d("a", ""), 1);
        assert_eq!(d("insurance", "instance"), 2);
        assert_eq!(d("icdt", "icde"), 1);
    }

    #[test]
    fn unicode_patterns_use_the_association_list() {
        assert_eq!(d("schütze", "schutze"), 1);
        assert_eq!(d("一二三", "一三"), 1);
        assert_eq!(d("αβγ", "xyz"), 3);
    }

    #[test]
    fn full_64_char_pattern() {
        let a: String = "a".repeat(64);
        let mut b = a.clone();
        b.replace_range(0..1, "b");
        assert_eq!(d(&a, &a), 0);
        assert_eq!(d(&a, &b), 1);
        // Text much longer than the pattern: 64 a's vs 100 a's.
        let long: String = "a".repeat(100);
        assert_eq!(d(&a, &long), 36);
    }

    #[test]
    fn ascii_text_against_unicode_pattern_and_vice_versa() {
        // Text scalars outside the pattern's alphabet must map to Eq=0.
        assert_eq!(d("abc", "äbc"), 1);
        assert_eq!(d("äbc", "abc"), 1);
    }
}
