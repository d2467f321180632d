//! ε-deletion neighbourhoods (the FastSS signature scheme).
//!
//! The deletion neighbourhood of a word is the set of strings obtained by
//! deleting up to ε characters (§V-A). Two words are within edit distance ε
//! *only if* their ε-deletion neighbourhoods intersect, which turns
//! approximate matching into exact hash probes followed by edit-distance
//! verification.

use std::collections::HashSet;

/// Generates the ε-deletion neighbourhood of `word`, including `word`
/// itself (the 0-deletion member). Duplicates are removed.
///
/// The neighbourhood size is `O(|word|^ε)`; callers should partition long
/// words (see [`crate::index`]) rather than raise ε.
pub fn deletion_neighborhood(word: &str, epsilon: usize) -> Vec<String> {
    let chars: Vec<char> = word.chars().collect();
    let mut out = HashSet::new();
    out.insert(word.to_string());
    let mut frontier: Vec<Vec<char>> = vec![chars];
    for _ in 0..epsilon {
        let mut next = Vec::new();
        for s in &frontier {
            if s.is_empty() {
                continue;
            }
            for i in 0..s.len() {
                let mut t = s.clone();
                t.remove(i);
                let st: String = t.iter().collect();
                if out.insert(st) {
                    next.push(t);
                }
            }
        }
        frontier = next;
    }
    let mut v: Vec<String> = out.into_iter().collect();
    v.sort_unstable();
    v
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One FNV-1a step.
#[inline]
pub(crate) fn fnv_byte(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over the four little-endian bytes of one scalar.
#[inline]
fn fnv_char(h: u64, c: char) -> u64 {
    (c as u32).to_le_bytes().into_iter().fold(h, fnv_byte)
}

/// FNV-1a over a character sequence — the 64-bit *signature hash* the
/// variant index keys its probe table on (see
/// [`for_each_deletion_signature`]). Equal strings always hash equal, so
/// hashing can only *merge* signature buckets, never split them; merged
/// buckets yield extra candidates that the exact edit-distance
/// verification discards, keeping query results identical to a
/// string-keyed scheme.
pub fn signature_hash(chars: &[char]) -> u64 {
    chars.iter().fold(FNV_OFFSET, |h, &c| fnv_char(h, c))
}

/// Calls `f` with the [`signature_hash`] of **every** ≤ε-deletion member
/// of the word `chars` — one call per *deletion-position set*, so members
/// reachable through several deletion orders (or with repeated
/// characters) are emitted more than once. Duplicate emissions probe or
/// fill the same bucket and are deduplicated downstream; what matters
/// for soundness is that no member's hash is ever skipped, which is what
/// makes the hashed index candidate set a superset of the string-keyed
/// one.
///
/// Allocation-free: deletion sets are walked combinationally (strictly
/// increasing positions) and the FNV state of the survivors before the
/// last deleted position is carried down the recursion, so a member
/// costs the hashing of its tail only and neither the member nor its
/// deletion set is ever materialised.
pub fn for_each_deletion_signature(chars: &[char], epsilon: usize, mut f: impl FnMut(u64)) {
    rec_sig(chars, 0, epsilon.min(chars.len()), FNV_OFFSET, &mut f);
}

/// `prefix` is the FNV state over the survivors among `chars[..start]`.
/// Emits the member that keeps everything from `start` on, then deletes
/// each later position in turn.
fn rec_sig(chars: &[char], start: usize, remaining: usize, prefix: u64, f: &mut impl FnMut(u64)) {
    f(chars[start..].iter().fold(prefix, |h, &c| fnv_char(h, c)));
    if remaining == 0 {
        return;
    }
    let mut kept = prefix;
    for (i, &c) in chars.iter().enumerate().skip(start) {
        rec_sig(chars, i + 1, remaining - 1, kept, f);
        kept = fnv_char(kept, c);
    }
}

/// Upper bound on the neighbourhood size for a word of `len` characters:
/// `Σ_{i=0..=ε} C(len, i)`.
pub fn neighborhood_bound(len: usize, epsilon: usize) -> usize {
    let mut total = 0usize;
    for i in 0..=epsilon.min(len) {
        total = total.saturating_add(binomial(len, i));
    }
    total
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: usize = 1;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit_distance::edit_distance;

    #[test]
    fn epsilon_zero_is_identity() {
        assert_eq!(deletion_neighborhood("abc", 0), vec!["abc"]);
    }

    #[test]
    fn epsilon_one_of_cat() {
        let n = deletion_neighborhood("cat", 1);
        assert_eq!(n, vec!["at", "ca", "cat", "ct"]);
    }

    #[test]
    fn duplicates_collapse() {
        // "aaa" with one deletion always yields "aa".
        let n = deletion_neighborhood("aaa", 1);
        assert_eq!(n, vec!["aa", "aaa"]);
    }

    #[test]
    fn epsilon_two_includes_deeper_deletions() {
        let n = deletion_neighborhood("abcd", 2);
        assert!(n.contains(&"ab".to_string()));
        assert!(n.contains(&"cd".to_string()));
        assert!(n.contains(&"abcd".to_string()));
        assert!(!n.contains(&"a".to_string()));
    }

    #[test]
    fn bound_holds() {
        for word in ["a", "cat", "abcdef", "aaaa"] {
            for eps in 0..3 {
                let n = deletion_neighborhood(word, eps);
                assert!(n.len() <= neighborhood_bound(word.chars().count(), eps));
            }
        }
    }

    /// Every member of the string neighbourhood has its hash emitted by
    /// the combinational signature walk (the superset property the hashed
    /// index relies on).
    #[test]
    fn signature_hashes_cover_the_string_neighborhood() {
        for word in ["cat", "aaa", "abcdef", "schütze", ""] {
            for eps in 0..4 {
                let mut sigs = HashSet::new();
                let chars: Vec<char> = word.chars().collect();
                for_each_deletion_signature(&chars, eps, |h| {
                    sigs.insert(h);
                });
                for m in deletion_neighborhood(word, eps) {
                    let chars: Vec<char> = m.chars().collect();
                    assert!(
                        sigs.contains(&signature_hash(&chars)),
                        "missing hash of {m:?} for word {word:?} eps {eps}"
                    );
                }
            }
        }
    }

    /// Carrying the prefix's FNV state down the recursion changes no
    /// value: the emissions are the hashes of the survivors of every
    /// deletion-position set of at most ε positions, each exactly once.
    #[test]
    fn emissions_are_the_hashes_of_every_deletion_set() {
        for word in ["", "a", "cat", "aaaa", "schütze", "abcdefgh"] {
            let chars: Vec<char> = word.chars().collect();
            for eps in 0..4 {
                let mut emitted = Vec::new();
                for_each_deletion_signature(&chars, eps, |h| emitted.push(h));
                let mut expected: Vec<u64> = (0u32..1 << chars.len())
                    .filter(|deleted| deleted.count_ones() as usize <= eps)
                    .map(|deleted| {
                        let kept = chars.iter().enumerate();
                        let kept = kept.filter(|(i, _)| deleted & (1 << i) == 0);
                        signature_hash(&kept.map(|(_, &c)| c).collect::<Vec<_>>())
                    })
                    .collect();
                emitted.sort_unstable();
                expected.sort_unstable();
                assert_eq!(emitted, expected, "{word:?} eps {eps}");
            }
        }
    }

    /// One emission per deletion-position set: exactly `Σ C(n, i)` calls.
    #[test]
    fn signature_emission_count_matches_bound() {
        for word in ["a", "cat", "abcdef", "aaaa"] {
            for eps in 0..4 {
                let mut count = 0usize;
                let chars: Vec<char> = word.chars().collect();
                for_each_deletion_signature(&chars, eps, |_| count += 1);
                assert_eq!(count, neighborhood_bound(word.chars().count(), eps));
            }
        }
    }

    /// The FastSS soundness property: if ed(a, b) ≤ ε then the ε-deletion
    /// neighbourhoods of a and b intersect.
    #[test]
    fn neighborhoods_intersect_for_close_words() {
        let pairs = [
            ("tree", "trie"),
            ("tree", "trees"),
            ("icde", "icdt"),
            ("health", "helth"),
        ];
        for (a, b) in pairs {
            let eps = edit_distance(a, b);
            let na = deletion_neighborhood(a, eps);
            let nb = deletion_neighborhood(b, eps);
            assert!(
                na.iter().any(|x| nb.binary_search(x).is_ok()),
                "{a} / {b} neighbourhoods must intersect at ε={eps}"
            );
        }
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use crate::edit_distance::edit_distance;
    use proptest::prelude::*;

    proptest! {
        /// Soundness: words within ed ≤ ε share a deletion neighbour.
        #[test]
        fn intersection_property(a in "[a-c]{1,7}", b in "[a-c]{1,7}") {
            let d = edit_distance(&a, &b);
            if d <= 2 {
                let na = deletion_neighborhood(&a, 2);
                let nb = deletion_neighborhood(&b, 2);
                prop_assert!(na.iter().any(|x| nb.binary_search(x).is_ok()));
            }
        }

        /// Round-trip: applying explicit random deletions to a word lands
        /// exactly in its deletion neighbourhood, and the member's edit
        /// distance equals the (deletion-only) length gap.
        #[test]
        fn random_deletions_round_trip(
            a in "[a-f]{1,8}",
            picks in proptest::collection::vec(0usize..8, 0..3),
        ) {
            let mut chars: Vec<char> = a.chars().collect();
            let mut deleted = 0usize;
            for p in picks {
                if chars.is_empty() {
                    break;
                }
                chars.remove(p % chars.len());
                deleted += 1;
            }
            let s: String = chars.iter().collect();
            let n = deletion_neighborhood(&a, deleted);
            prop_assert!(
                n.binary_search(&s).is_ok(),
                "{} missing from the {}-deletion neighbourhood of {}", s, deleted, a
            );
            prop_assert!(edit_distance(&a, &s) <= deleted);
        }

        /// Neighbourhoods of multi-byte words delete whole scalars: every
        /// member is a valid string whose edit distance from the word is
        /// exactly the character-count gap.
        #[test]
        fn utf8_members_delete_whole_scalars(
            word in proptest::collection::vec(proptest::char::range('Α', 'ω'), 1..6),
        ) {
            let word: String = word.into_iter().collect();
            let lw = word.chars().count();
            for m in deletion_neighborhood(&word, 2) {
                let lm = m.chars().count();
                prop_assert!(lw - lm <= 2);
                prop_assert_eq!(edit_distance(&word, &m), lw - lm);
            }
        }

        /// Every neighbour is within deletion distance ε of the word.
        #[test]
        fn members_are_subsequences(a in "[a-e]{1,8}") {
            for m in deletion_neighborhood(&a, 2) {
                let la = a.chars().count();
                let lm = m.chars().count();
                prop_assert!(la - lm <= 2);
                // m must be a subsequence of a
                let mut it = a.chars();
                let is_subseq = m.chars().all(|c| it.any(|x| x == c));
                prop_assert!(is_subseq, "{} not a subsequence of {}", m, a);
            }
        }
    }
}
