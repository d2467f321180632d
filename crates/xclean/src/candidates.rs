//! The compiled query: per-slot variant tables and the dense candidate
//! table every stage between slot building and ranking works on.
//!
//! A candidate query is one variant token per keyword. The walk meets the
//! same few candidates again in subtree after subtree, so each is interned
//! on first sight to a dense [`CandId`] and everything that is fixed per
//! candidate — its key, per-keyword edit distances, error-model weight and
//! inferred result type — is computed once and kept in flat vectors
//! indexed by that id. The γ-table and the ranker then speak ids: a
//! candidate visit costs one multiplicative hash over `k` token ids and a
//! probe, and never allocates once the vectors have grown to a worker's
//! steady state.
//!
//! Ids are assigned in first-sight order — over a shard set, first sight
//! over the whole set, since every shard walks through the query's one
//! table — and mean nothing outside it; only the key identifies a
//! candidate across tables. No result depends on the id order: every
//! consumer that orders candidates does so by score and key.

use xclean_index::TokenId;
use xclean_lm::ErrorModel;
use xclean_xmltree::PathId;

use crate::algorithm::KeywordSlot;

/// Dense id of a candidate within one [`CandidateTable`].
pub type CandId = u32;

/// What is known about a candidate's result type (`FindResultType(C)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeSlot {
    /// Not inferred (yet, or ever: LCA semantics have no result type).
    Unresolved,
    /// Inferred: no label path of sufficient depth holds every keyword.
    NoType,
    /// Inferred: the winning label path.
    Path(PathId),
}

/// Smallest probe-index length; a power of two.
const MIN_INDEX: usize = 64;

/// Per-query candidate table (see the module docs). Recycled through the
/// query arena: [`CandidateTable::compile`] clears it, keeping capacity.
#[derive(Debug, Default)]
pub struct CandidateTable {
    error_model: ErrorModel,
    /// Concatenated per-slot `(token, edit distance)` tables, each sorted
    /// by token; slot `i` is `variants[bounds[i]..bounds[i + 1]]`.
    variants: Vec<(TokenId, u32)>,
    bounds: Vec<usize>,
    /// Open-addressing index over the interned keys: `id + 1`, 0 = empty.
    /// Length is a power of two, at least twice the candidate count.
    index: Vec<u32>,
    hashes: Vec<u64>,
    /// `width()` tokens / distances per candidate, in id order.
    keys: Vec<TokenId>,
    distances: Vec<u32>,
    log_weights: Vec<f64>,
    types: Vec<TypeSlot>,
}

/// Fx-style multiplicative hash of a candidate key. Keys are vocabulary
/// token ids of one query's variants, not attacker-chosen bytes.
fn hash_key(key: &[TokenId]) -> u64 {
    key.iter().fold(0u64, |h, t| {
        (h.rotate_left(5) ^ u64::from(t.0)).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

impl CandidateTable {
    /// Starts a query: forgets the previous query's candidates and sorts
    /// each slot's variants by token id for the distance lookups of
    /// [`CandidateTable::intern`].
    pub fn compile(&mut self, slots: &[KeywordSlot], error_model: ErrorModel) {
        self.error_model = error_model;
        self.variants.clear();
        self.bounds.clear();
        self.bounds.push(0);
        for slot in slots {
            let start = self.variants.len();
            self.variants
                .extend(slot.variants.iter().map(|v| (v.token, v.distance)));
            let table = &mut self.variants[start..];
            table.sort_unstable_by_key(|&(token, _)| token);
            debug_assert!(
                table.windows(2).all(|w| w[0].0 < w[1].0),
                "a slot's variant tokens must be distinct: {:?}",
                slot.keyword
            );
            self.bounds.push(self.variants.len());
        }
        self.index.clear();
        self.index.resize(MIN_INDEX, 0);
        self.hashes.clear();
        self.keys.clear();
        self.distances.clear();
        self.log_weights.clear();
        self.types.clear();
    }

    /// Keywords per candidate.
    pub fn width(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Number of distinct candidates interned so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// `true` before the first [`CandidateTable::intern`] of a query.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The id of `key` (one variant token per slot, in slot order),
    /// assigning the next dense id — and computing the candidate's edit
    /// distances and error weight — the first time the key is seen.
    ///
    /// # Panics
    /// If `key` is not one token of each slot's variant set.
    pub fn intern(&mut self, key: &[TokenId]) -> CandId {
        let width = self.width();
        assert_eq!(key.len(), width, "candidate must name one token per slot");
        let hash = hash_key(key);
        let mask = self.index.len() - 1;
        let mut at = hash as usize & mask;
        while self.index[at] != 0 {
            let id = self.index[at] - 1;
            if self.hashes[id as usize] == hash && self.key(id) == key {
                return id;
            }
            at = (at + 1) & mask;
        }
        let id = CandId::try_from(self.len()).expect("candidate ids fit u32");
        for (slot, token) in key.iter().enumerate() {
            let table = &self.variants[self.bounds[slot]..self.bounds[slot + 1]];
            let found = table
                .binary_search_by_key(token, |&(t, _)| t)
                .expect("a candidate's token is a variant of its slot");
            self.distances.push(table[found].1);
        }
        let log_weight = self
            .error_model
            .log_query_weight(&self.distances[id as usize * width..]);
        self.keys.extend_from_slice(key);
        self.log_weights.push(log_weight);
        self.types.push(TypeSlot::Unresolved);
        self.hashes.push(hash);
        self.index[at] = id + 1;
        if self.len() * 2 > self.index.len() {
            self.grow_index();
        }
        id
    }

    /// Doubles the probe index and re-files every id.
    fn grow_index(&mut self) {
        let len = self.index.len() * 2;
        self.index.clear();
        self.index.resize(len, 0);
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut at = hash as usize & (len - 1);
            while self.index[at] != 0 {
                at = (at + 1) & (len - 1);
            }
            self.index[at] = id as u32 + 1;
        }
    }

    /// The candidate's tokens, one per slot.
    pub fn key(&self, id: CandId) -> &[TokenId] {
        let w = self.width();
        &self.keys[id as usize * w..(id as usize + 1) * w]
    }

    /// Edit distance of each keyword from the candidate's token.
    pub fn distances(&self, id: CandId) -> &[u32] {
        let w = self.width();
        &self.distances[id as usize * w..(id as usize + 1) * w]
    }

    /// Log error-model weight `Σ_j −β·ed(q_j, C[j])`.
    pub fn log_weight(&self, id: CandId) -> f64 {
        self.log_weights[id as usize]
    }

    /// The cached result-type inference outcome.
    pub fn result_type(&self, id: CandId) -> TypeSlot {
        self.types[id as usize]
    }

    /// Caches a result-type inference outcome.
    pub fn set_result_type(&mut self, id: CandId, slot: TypeSlot) {
        self.types[id as usize] = slot;
    }

    /// The result path an accumulator of this candidate carries:
    /// [`PathId::INVALID`] unless a type was inferred.
    pub fn result_path(&self, id: CandId) -> PathId {
        match self.types[id as usize] {
            TypeSlot::Path(p) => p,
            TypeSlot::Unresolved | TypeSlot::NoType => PathId::INVALID,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;

    fn slot(keyword: &str, variants: &[(u32, u32)]) -> KeywordSlot {
        KeywordSlot {
            keyword: keyword.to_string(),
            variants: variants
                .iter()
                .map(|&(token, distance)| Variant {
                    token: TokenId(token),
                    distance,
                })
                .collect(),
        }
    }

    fn key(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    #[test]
    fn interning_is_dense_stable_and_resolves_metadata() {
        let mut t = CandidateTable::default();
        // Variants arrive sorted by (distance, token), not by token.
        let slots = [
            slot("tree", &[(9, 0), (4, 1), (7, 1)]),
            slot("icdt", &[(2, 0), (8, 2)]),
        ];
        let model = ErrorModel::new(5.0);
        t.compile(&slots, model);
        assert_eq!(t.width(), 2);
        let a = t.intern(&key(&[4, 8]));
        let b = t.intern(&key(&[9, 2]));
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.intern(&key(&[4, 8])), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.key(a), &key(&[4, 8])[..]);
        assert_eq!(t.distances(a), &[1, 2]);
        assert_eq!(t.distances(b), &[0, 0]);
        assert_eq!(
            t.log_weight(a).to_bits(),
            model.log_query_weight(&[1, 2]).to_bits()
        );
        assert_eq!(t.result_type(a), TypeSlot::Unresolved);
        assert_eq!(t.result_path(a), PathId::INVALID);
        t.set_result_type(a, TypeSlot::Path(PathId(3)));
        assert_eq!(t.result_path(a), PathId(3));
        t.set_result_type(b, TypeSlot::NoType);
        assert_eq!(t.result_path(b), PathId::INVALID);
    }

    #[test]
    fn index_growth_keeps_every_id_findable() {
        let mut t = CandidateTable::default();
        let wide: Vec<(u32, u32)> = (0..40).map(|i| (i, i % 3)).collect();
        let slots = [slot("a", &wide), slot("b", &wide)];
        t.compile(&slots, ErrorModel::default());
        let mut ids = Vec::new();
        for x in 0..40 {
            for y in 0..40 {
                ids.push(t.intern(&key(&[x, y])));
            }
        }
        // 1600 candidates: the 64-entry index doubled several times.
        assert_eq!(ids, (0..1600).collect::<Vec<_>>());
        for x in 0..40 {
            for y in 0..40 {
                assert_eq!(t.intern(&key(&[x, y])), x * 40 + y);
                assert_eq!(t.distances(x * 40 + y), &[x % 3, y % 3]);
            }
        }
        assert_eq!(t.len(), 1600);
    }

    #[test]
    fn compile_forgets_the_previous_query_and_keeps_capacity() {
        let mut t = CandidateTable::default();
        t.compile(
            &[slot("a", &[(1, 0), (2, 1)]), slot("b", &[(3, 0)])],
            ErrorModel::default(),
        );
        t.intern(&key(&[2, 3]));
        let cap = t.keys.capacity();
        // Narrower, then wider again: no stale slot table or candidate.
        t.compile(&[slot("c", &[(5, 1)])], ErrorModel::default());
        assert!(t.is_empty());
        assert_eq!(t.width(), 1);
        assert_eq!(t.intern(&key(&[5])), 0);
        assert_eq!(t.distances(0), &[1]);
        t.compile(
            &[
                slot("a", &[(1, 0)]),
                slot("b", &[(3, 2)]),
                slot("c", &[(5, 1)]),
            ],
            ErrorModel::default(),
        );
        assert!(t.is_empty());
        assert_eq!(t.width(), 3);
        assert_eq!(t.intern(&key(&[1, 3, 5])), 0);
        assert_eq!(t.distances(0), &[0, 2, 1]);
        assert!(t.keys.capacity() >= cap);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be distinct")]
    fn duplicate_variant_tokens_are_rejected_in_debug() {
        let mut t = CandidateTable::default();
        t.compile(&[slot("a", &[(1, 0), (1, 2)])], ErrorModel::default());
    }
}
