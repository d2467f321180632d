//! Differential oracle for the accumulate stage (test-only).
//!
//! The product's `walk_accumulate` works on dense candidate ids, sorted
//! runs and a hash-free table (`crate::candidates`, `crate::algorithm`,
//! `crate::pruning`). This module keeps the straightforward formulation it
//! replaced — candidates as owned token vectors in SipHash maps, entity
//! groups as a `BTreeMap` of `HashMap`s built per subtree, merged lists
//! that pop and push the heap and materialise whole postings — and checks
//! on generated corpora that both produce the same contribution stream,
//! the same γ-decisions, the same ranked candidates (score bits included)
//! and the same run counters — the walk's subtrees and posting I/O too
//! with skipping off, where both walk the lists linearly — the product one
//! cursor set per keyword, this oracle its heap-merged lists. Nothing
//! here is shared with the product path except the corpus reads, the
//! language and error models, result-type inference and the LCA set
//! functions, none of which the rewrite touched.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

use proptest::prelude::*;
use xclean_datagen::{generate_dblp, make_workload, DblpConfig, Perturbation, WorkloadSpec};
use xclean_index::{partition_corpus, AccessStats, CorpusIndex, PostingList, TokenId};
use xclean_lm::{ErrorModel, LanguageModel};
use xclean_telemetry::Telemetry;
use xclean_xmltree::{NodeId, PathId};

use crate::algorithm::{KeywordSlot, RunStats, ScoredCandidate};
use crate::config::{EntityPrior, XCleanConfig};
use crate::elca::elca_of_lists;
use crate::pipeline::{rank_walked, ArenaPool, Semantics};
use crate::pruning::{CandidateKey, GammaEvent, PruningStats};
use crate::result_type::find_result_type;
use crate::slca::slca_of_lists;
use crate::variants::Variant;
use crate::walk::MAX_CANDIDATES_PER_SUBTREE;
use crate::XCleanEngine;

/// One `add_weighted` call: the full argument tuple, owned.
#[derive(Debug, Clone, PartialEq)]
struct Contribution {
    key: CandidateKey,
    weighted: f64,
    weight: f64,
    log_error_weight: f64,
    distances: Vec<u32>,
    result_path: PathId,
}

/// A γ-decision with its candidate owned, comparable across runs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Decision {
    Evicted(CandidateKey, u64),
    NewcomerRejected(CandidateKey, u64),
    TombstoneRejected(CandidateKey),
}

impl Decision {
    fn of(event: GammaEvent<'_>) -> Decision {
        match event {
            GammaEvent::Evicted { victim, estimate } => {
                Decision::Evicted(victim.to_vec(), estimate.to_bits())
            }
            GammaEvent::NewcomerRejected { key, estimate } => {
                Decision::NewcomerRejected(key.to_vec(), estimate.to_bits())
            }
            GammaEvent::TombstoneRejected { key } => Decision::TombstoneRejected(key.to_vec()),
        }
    }
}

#[derive(Debug, Clone)]
struct RefAccumulator {
    score_sum: f64,
    entity_count: u64,
    weight_sum: f64,
    log_error_weight: f64,
    distances: Vec<u32>,
    result_path: PathId,
}

impl RefAccumulator {
    fn estimated_log_score(&self) -> f64 {
        if self.score_sum <= 0.0 || self.entity_count == 0 {
            f64::NEG_INFINITY
        } else {
            self.log_error_weight + (self.score_sum / self.entity_count as f64).ln()
        }
    }
}

/// The γ-bounded table keyed by owned candidate keys.
struct RefTable {
    accs: HashMap<CandidateKey, RefAccumulator>,
    evicted: HashSet<CandidateKey>,
    gamma: Option<usize>,
    stats: PruningStats,
    decisions: Vec<Decision>,
}

impl RefTable {
    fn new(gamma: Option<usize>) -> RefTable {
        RefTable {
            accs: HashMap::new(),
            evicted: HashSet::new(),
            gamma,
            stats: PruningStats::default(),
            decisions: Vec::new(),
        }
    }

    fn add(&mut self, c: &Contribution) {
        if let Some(acc) = self.accs.get_mut(&c.key) {
            acc.score_sum += c.weighted;
            acc.entity_count += 1;
            acc.weight_sum += c.weight;
            return;
        }
        if self.evicted.contains(&c.key) {
            self.stats.rejected += 1;
            self.decisions
                .push(Decision::TombstoneRejected(c.key.clone()));
            return;
        }
        let candidate = RefAccumulator {
            score_sum: c.weighted,
            entity_count: 1,
            weight_sum: c.weight,
            log_error_weight: c.log_error_weight,
            distances: c.distances.clone(),
            result_path: c.result_path,
        };
        if let Some(gamma) = self.gamma {
            if self.accs.len() >= gamma {
                let (victim_key, victim_est) = self
                    .accs
                    .iter()
                    .map(|(k, a)| (k, a.estimated_log_score()))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then_with(|| a.0.cmp(b.0)))
                    .map(|(k, e)| (k.clone(), e))
                    .unwrap();
                let newcomer_est = candidate.estimated_log_score();
                if newcomer_est <= victim_est {
                    self.evicted.insert(c.key.clone());
                    self.stats.rejected += 1;
                    self.decisions.push(Decision::NewcomerRejected(
                        c.key.clone(),
                        newcomer_est.to_bits(),
                    ));
                    return;
                }
                self.accs.remove(&victim_key);
                self.stats.evictions += 1;
                self.decisions
                    .push(Decision::Evicted(victim_key.clone(), victim_est.to_bits()));
                self.evicted.insert(victim_key);
            }
        }
        self.accs.insert(c.key.clone(), candidate);
    }
}

/// A merged list that pops and re-pushes its heap and reads whole
/// postings, with the product's I/O accounting rules.
struct RefMergedList<'a> {
    members: Vec<(TokenId, &'a PostingList, usize)>,
    heap: BinaryHeap<Reverse<(NodeId, usize)>>,
    stats: AccessStats,
}

impl<'a> RefMergedList<'a> {
    fn new(members: impl Iterator<Item = (TokenId, &'a PostingList)>) -> Self {
        let members: Vec<_> = members.map(|(t, l)| (t, l, 0)).collect();
        let heap = members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.1.is_empty())
            .map(|(i, m)| Reverse((m.1.get(0).node, i)))
            .collect();
        RefMergedList {
            members,
            heap,
            stats: AccessStats::default(),
        }
    }

    fn head_node(&self) -> Option<NodeId> {
        self.heap.peek().map(|&Reverse((n, _))| n)
    }

    fn next(&mut self) -> Option<(TokenId, NodeId, u32)> {
        let Reverse((_, i)) = self.heap.pop()?;
        let (token, list, pos) = &mut self.members[i];
        let posting = list.get(*pos);
        *pos += 1;
        self.stats.read += 1;
        if *pos < list.len() {
            self.heap.push(Reverse((list.get(*pos).node, i)));
        }
        Some((*token, posting.node, posting.tf))
    }
}

type Occurrences = Vec<Vec<(TokenId, NodeId, u32)>>;

/// Algorithm 1 lines 1–11 over [`RefMergedList`]s, without `skip_to`:
/// every posting is consumed, as the product's walk does with skipping
/// off.
fn ref_walk(
    corpus: &CorpusIndex,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    stats: &mut RunStats,
    mut on_subtree: impl FnMut(&Occurrences, &[Vec<TokenId>]),
) {
    let tree = corpus.tree();
    let mut vls: Vec<RefMergedList<'_>> = slots
        .iter()
        .map(|s| {
            RefMergedList::new(
                s.variants
                    .iter()
                    .map(|v| (v.token, corpus.postings(v.token))),
            )
        })
        .collect();
    let mut occurrences: Occurrences = vec![Vec::new(); slots.len()];
    loop {
        let heads: Option<Vec<NodeId>> = vls.iter().map(RefMergedList::head_node).collect();
        let Some(anchor) = heads.and_then(|h| h.into_iter().max()) else {
            break;
        };
        let Some(g) = tree.ancestor_at_depth(anchor, config.min_depth) else {
            for vl in &mut vls {
                if vl.head_node() == Some(anchor) {
                    vl.next();
                }
            }
            continue;
        };
        let g_end = tree.subtree_end(g);
        stats.subtrees += 1;
        for (i, vl) in vls.iter_mut().enumerate() {
            occurrences[i].clear();
            while let Some(n) = vl.head_node() {
                if n >= g && n.0 < g_end {
                    occurrences[i].push(vl.next().unwrap());
                } else if n < g {
                    vl.next();
                } else {
                    break;
                }
            }
        }
        if occurrences.iter().any(Vec::is_empty) {
            continue;
        }
        let slot_tokens: Vec<Vec<TokenId>> = occurrences
            .iter()
            .map(|occ| {
                let mut tokens: Vec<TokenId> = occ.iter().map(|&(t, _, _)| t).collect();
                tokens.sort_unstable();
                tokens.dedup();
                tokens
            })
            .collect();
        on_subtree(&occurrences, &slot_tokens);
    }
    for vl in &vls {
        stats.access += vl.stats;
    }
}

/// Cartesian product of `slot_tokens`, first slot outermost, at most
/// `budget` candidates.
fn ref_enumerate(slot_tokens: &[Vec<TokenId>], budget: usize) -> Vec<CandidateKey> {
    let mut out: Vec<CandidateKey> = vec![Vec::new()];
    for tokens in slot_tokens {
        out = out
            .iter()
            .flat_map(|prefix| {
                tokens.iter().map(move |&t| {
                    let mut c = prefix.clone();
                    c.push(t);
                    c
                })
            })
            .collect();
    }
    out.truncate(budget);
    out
}

fn distances_of(slots: &[KeywordSlot], cand: &[TokenId]) -> Vec<u32> {
    let by_slot: Vec<HashMap<TokenId, u32>> = slots
        .iter()
        .map(|s| s.variants.iter().map(|v| (v.token, v.distance)).collect())
        .collect();
    cand.iter()
        .enumerate()
        .map(|(i, t)| by_slot[i][t])
        .collect()
}

fn prior_weight(config: &XCleanConfig, dlen: u64) -> f64 {
    match config.prior {
        EntityPrior::Uniform => 1.0,
        EntityPrior::DocLength => dlen.max(1) as f64,
    }
}

/// Result types inferred so far in one run, by candidate.
type TypeCache = HashMap<CandidateKey, Option<PathId>>;

/// The node-type accumulate rule over maps: the corpus's contribution
/// stream, in emission order.
fn ref_accumulate_node_type(
    corpus: &CorpusIndex,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    stats: &mut RunStats,
    out: &mut Vec<Contribution>,
) {
    let error_model = ErrorModel::new(config.beta);
    let mut type_cache = TypeCache::new();
    let lm = LanguageModel::new(corpus, config.smoothing);
    let (mut enumerated, mut typed, mut scored) = (0u64, 0u64, 0u64);
    ref_walk(corpus, slots, config, stats, |occurrences, slot_tokens| {
        let mut entity_maps: HashMap<PathId, BTreeMap<NodeId, HashMap<TokenId, u64>>> =
            HashMap::new();
        for cand in ref_enumerate(slot_tokens, MAX_CANDIDATES_PER_SUBTREE) {
            enumerated += 1;
            let rt = *type_cache.entry(cand.clone()).or_insert_with(|| {
                typed += 1;
                find_result_type(corpus, &cand, config.min_depth, &mut Vec::new()).map(|rt| rt.path)
            });
            let Some(path) = rt else { continue };
            let entities = entity_maps.entry(path).or_insert_with(|| {
                let depth = corpus.tree().paths().depth(path);
                let mut seen = HashSet::new();
                let mut map: BTreeMap<NodeId, HashMap<TokenId, u64>> = BTreeMap::new();
                for &(token, node, tf) in occurrences.iter().flatten() {
                    if !seen.insert((token, node)) {
                        continue;
                    }
                    let Some(r) = corpus.tree().ancestor_at_depth(node, depth) else {
                        continue;
                    };
                    if corpus.tree().path(r) == path {
                        *map.entry(r).or_default().entry(token).or_insert(0) += u64::from(tf);
                    }
                }
                map
            });
            let distances = distances_of(slots, &cand);
            let log_w = error_model.log_query_weight(&distances);
            for (&r, counts) in entities.iter() {
                let dlen = corpus.doc_len(r);
                let mut score = 0.0f64;
                let mut ok = true;
                for &t in &cand {
                    match counts.get(&t) {
                        Some(&c) if c > 0 => score += lm.log_prob(t, c, dlen),
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    scored += 1;
                    let weight = prior_weight(config, dlen);
                    out.push(Contribution {
                        key: cand.clone(),
                        weighted: score.exp() * weight,
                        weight,
                        log_error_weight: log_w,
                        distances: distances.clone(),
                        result_path: path,
                    });
                }
            }
        }
    });
    stats.candidates_enumerated = enumerated;
    stats.result_type_computations = typed;
    stats.entities_scored = scored;
}

/// The LCA-family accumulate rule over maps.
fn ref_accumulate_lca(
    corpus: &CorpusIndex,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    semantics: Semantics,
    stats: &mut RunStats,
    out: &mut Vec<Contribution>,
) {
    let error_model = ErrorModel::new(config.beta);
    let lm = LanguageModel::new(corpus, config.smoothing);
    let tree = corpus.tree();
    let (mut enumerated, mut scored) = (0u64, 0u64);
    ref_walk(corpus, slots, config, stats, |occurrences, slot_tokens| {
        let mut token_nodes: HashMap<TokenId, Vec<(NodeId, u32)>> = HashMap::new();
        for &(t, n, tf) in occurrences.iter().flatten() {
            token_nodes.entry(t).or_default().push((n, tf));
        }
        for v in token_nodes.values_mut() {
            v.sort_unstable_by_key(|&(n, _)| n);
            v.dedup_by_key(|&mut (n, _)| n);
        }
        for cand in ref_enumerate(slot_tokens, MAX_CANDIDATES_PER_SUBTREE) {
            enumerated += 1;
            let mut distinct = cand.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let lists: Vec<Vec<NodeId>> = distinct
                .iter()
                .map(|t| token_nodes[t].iter().map(|&(n, _)| n).collect())
                .collect();
            let entities = match semantics {
                Semantics::Slca => slca_of_lists(tree, &lists),
                Semantics::Elca => elca_of_lists(tree, &lists, config.min_depth),
                Semantics::NodeType => unreachable!("node type has its own rule"),
            };
            let distances = distances_of(slots, &cand);
            let log_w = error_model.log_query_weight(&distances);
            for &r in &entities {
                if tree.depth(r) < config.min_depth {
                    continue;
                }
                let dlen = corpus.doc_len(r);
                let mut log_score = 0.0f64;
                for &t in &cand {
                    let count: u64 = token_nodes[&t]
                        .iter()
                        .filter(|&&(n, _)| tree.is_ancestor_or_self(r, n))
                        .map(|&(_, tf)| u64::from(tf))
                        .sum();
                    log_score += lm.log_prob(t, count, dlen);
                }
                scored += 1;
                let weight = prior_weight(config, dlen);
                out.push(Contribution {
                    key: cand.clone(),
                    weighted: log_score.exp() * weight,
                    weight,
                    log_error_weight: log_w,
                    distances: distances.clone(),
                    result_path: PathId::INVALID,
                });
            }
        }
    });
    stats.candidates_enumerated = enumerated;
    stats.entities_scored = scored;
}

/// Everything a run is compared on.
#[derive(Debug)]
pub(crate) struct Outcome {
    candidates: Vec<ScoredCandidate>,
    pub(crate) decisions: Vec<Decision>,
    stats: RunStats,
}

/// The reference run: the corpus's contribution stream through one keyed
/// table, then ranked as `finalize_candidates` used to.
pub(crate) fn reference_run(
    corpus: &CorpusIndex,
    semantics: Semantics,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
) -> Outcome {
    let mut stats = RunStats::default();
    let mut stream = Vec::new();
    if !slots.is_empty() && slots.iter().all(|s| !s.variants.is_empty()) {
        match semantics {
            Semantics::NodeType => {
                ref_accumulate_node_type(corpus, slots, config, &mut stats, &mut stream)
            }
            _ => ref_accumulate_lca(corpus, slots, config, semantics, &mut stats, &mut stream),
        }
    }
    let mut table = RefTable::new(config.gamma);
    stream.iter().for_each(|c| table.add(c));
    stats.pruning = table.stats;
    let mut candidates: Vec<ScoredCandidate> = table
        .accs
        .into_iter()
        .filter(|(_, acc)| acc.score_sum > 0.0)
        .map(|(tokens, acc)| {
            let normalizer = match (semantics, config.prior) {
                (Semantics::NodeType, EntityPrior::Uniform) => {
                    corpus.count_nodes_of_path(acc.result_path).max(1) as f64
                }
                (Semantics::NodeType, EntityPrior::DocLength) => {
                    corpus.path_doc_len_total(acc.result_path).max(1) as f64
                }
                _ => acc.weight_sum,
            };
            ScoredCandidate {
                log_score: acc.log_error_weight + (acc.score_sum / normalizer).ln(),
                tokens,
                distances: acc.distances,
                result_path: acc.result_path,
                entity_count: acc.entity_count,
            }
        })
        .collect();
    candidates.sort_by(|a, b| {
        b.log_score
            .partial_cmp(&a.log_score)
            .unwrap()
            .then_with(|| a.tokens.cmp(&b.tokens))
    });
    Outcome {
        candidates,
        decisions: table.decisions,
        stats,
    }
}

/// The product run over the same corpus: `rank_walked`, every survivor
/// materialised, γ-decisions captured by the observer.
pub(crate) fn product_run(
    corpus: &CorpusIndex,
    semantics: Semantics,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    arenas: &ArenaPool,
) -> Outcome {
    let mut decisions = Vec::new();
    let ranked = rank_walked(
        corpus,
        semantics,
        slots,
        config,
        usize::MAX,
        &Telemetry::disabled(),
        arenas,
        &mut |e| decisions.push(Decision::of(e)),
    );
    assert_eq!(ranked.survivors, ranked.candidates.len() as u64);
    Outcome {
        candidates: ranked.candidates,
        decisions,
        stats: ranked.stats,
    }
}

pub(crate) fn assert_same(
    product: &Outcome,
    reference: &Outcome,
    config: &XCleanConfig,
    what: &str,
) {
    assert_eq!(
        product.candidates.len(),
        reference.candidates.len(),
        "{what}: candidate count"
    );
    for (rank, (p, r)) in product
        .candidates
        .iter()
        .zip(&reference.candidates)
        .enumerate()
    {
        assert_eq!(p.tokens, r.tokens, "{what}: rank {rank} tokens");
        assert_eq!(
            p.log_score.to_bits(),
            r.log_score.to_bits(),
            "{what}: rank {rank} score bits ({} vs {})",
            p.log_score,
            r.log_score
        );
        assert_eq!(p.distances, r.distances, "{what}: rank {rank} distances");
        assert_eq!(p.result_path, r.result_path, "{what}: rank {rank} path");
        assert_eq!(
            p.entity_count, r.entity_count,
            "{what}: rank {rank} entity count"
        );
    }
    assert_eq!(
        product.decisions, reference.decisions,
        "{what}: γ-decision sequence"
    );
    let (p, r) = (&product.stats, &reference.stats);
    // The reference walks the lists linearly, as the product does with
    // skipping off; with it on, the product scans, which counts passing
    // subtrees and different posting I/O for the same stream.
    let linear = !config.enable_skipping;
    if linear {
        assert_eq!(p.subtrees, r.subtrees, "{what}: subtrees");
    }
    assert_eq!(
        p.candidates_enumerated, r.candidates_enumerated,
        "{what}: candidates enumerated"
    );
    assert_eq!(
        p.result_type_computations, r.result_type_computations,
        "{what}: result-type computations"
    );
    assert_eq!(p.entities_scored, r.entities_scored, "{what}: entities");
    if linear {
        assert_eq!(p.access, r.access, "{what}: posting I/O");
    }
    assert_eq!(p.pruning, r.pruning, "{what}: pruning");
}

/// With skipping on the product scans — when the corpus's level table is
/// not empty and each slot holds a posting, which the `dense` slot sets of
/// [`slot_sets`] do — and with it off it never does, so both paths stay
/// under the oracle's eye.
fn assert_path(
    corpus: &CorpusIndex,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    product: &Outcome,
    what: &str,
) {
    let holds = |s: &KeywordSlot| {
        s.variants
            .iter()
            .any(|v| !corpus.postings(v.token).is_empty())
    };
    let scannable = !corpus.level(config.min_depth).is_empty() && slots.iter().all(holds);
    if slots.iter().all(|s| s.keyword == "dense") {
        assert!(scannable, "{what}: a dense set is not scannable");
    }
    assert_eq!(
        product.stats.access.scan_postings() > 0,
        config.enable_skipping && scannable && !slots.is_empty(),
        "{what}: {:?}",
        product.stats
    );
}

/// The slot sets one case runs: `per_set` RAND- and `per_set`
/// RULE-perturbed workload queries through `make_slots` (the realistic
/// shape: few candidates, long skips), plus `dense` synthetic sets of 1–3
/// slots whose variants are drawn from the most frequent terms of the
/// vocabulary (`vocab_of` resolves them), which meet in most subtrees —
/// many candidates per subtree, several result types, and a γ of 1 or 3
/// that evicts, rejects and tombstones.
fn slot_sets(
    corpus: &CorpusIndex,
    make_slots: impl Fn(&[String]) -> Vec<KeywordSlot>,
    seed: u64,
    per_set: usize,
    dense: usize,
) -> Vec<Vec<KeywordSlot>> {
    let mut sets: Vec<Vec<KeywordSlot>> = [Perturbation::Rand, Perturbation::Rule]
        .into_iter()
        .flat_map(|perturbation| {
            let spec = WorkloadSpec {
                n_queries: per_set,
                seed,
                ..WorkloadSpec::dblp(perturbation)
            };
            make_workload(corpus, &spec).cases
        })
        .map(|case| make_slots(&case.dirty))
        .collect();
    let vocab = corpus.vocab();
    let mut frequent: Vec<TokenId> = (0..vocab.len() as u32).map(TokenId).collect();
    frequent.sort_by_key(|&t| (Reverse(vocab.cf(t)), t));
    frequent.truncate(24);
    let mut rng = proptest::test_runner::TestRng::deterministic(&format!("dense-{seed}"));
    for _ in 0..dense {
        let width = 1 + rng.below(3) as usize;
        sets.push(
            (0..width)
                .map(|_| {
                    let mut tokens: Vec<TokenId> = (0..2 + rng.below(5))
                        .map(|_| frequent[rng.below(frequent.len() as u64) as usize])
                        .collect();
                    tokens.sort_unstable();
                    tokens.dedup();
                    KeywordSlot {
                        keyword: "dense".to_string(),
                        // Ordered by (distance, token), as the generator's.
                        variants: (0..3)
                            .flat_map(|distance| {
                                let at_distance = tokens
                                    .iter()
                                    .filter(move |t| t.0 % 3 == distance)
                                    .map(move |&token| Variant { token, distance });
                                at_distance.collect::<Vec<_>>()
                            })
                            .collect(),
                    }
                })
                .collect(),
        );
    }
    sets
}

fn small_dblp(publications: usize, seed: u64) -> CorpusIndex {
    CorpusIndex::build(generate_dblp(&DblpConfig {
        publications,
        seed,
        ..DblpConfig::default()
    }))
}

const GAMMAS: [Option<usize>; 4] = [None, Some(1), Some(3), Some(1000)];

/// Every γ with skipping on (the product's scan), and with it off (the
/// product's linear walk, compared counter for counter).
fn cases() -> impl Iterator<Item = (Option<usize>, bool)> {
    [true, false]
        .into_iter()
        .flat_map(|skipping| GAMMAS.map(|gamma| (gamma, skipping)))
}

/// What a whole proptest case exercised, so a generator change cannot
/// quietly turn the comparison vacuous.
#[derive(Default)]
struct Coverage {
    candidates: usize,
    decisions: usize,
    widest: usize,
}

impl Coverage {
    fn note(&mut self, outcome: &Outcome) {
        self.candidates += outcome.candidates.len();
        self.decisions += outcome.decisions.len();
        self.widest = self.widest.max(outcome.candidates.len());
    }

    fn assert_exercised(&self) {
        assert!(
            self.widest >= 4 && self.candidates >= 50 && self.decisions >= 10,
            "case too thin: widest {} candidates {} γ-decisions {}",
            self.widest,
            self.candidates,
            self.decisions
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One corpus, all three semantics, every γ: the id-based accumulate
    /// and the map-based reference agree on everything observable. One
    /// arena pool serves the whole case, so recycled scratch is part of
    /// what is checked.
    #[test]
    fn one_corpus_matches_the_map_based_reference(
        publications in 40usize..160,
        corpus_seed in 0u64..1_000_000,
        query_seed in 0u64..1_000_000,
        doc_length_prior in 0u8..2,
    ) {
        let arenas = ArenaPool::default();
        for semantics in [Semantics::NodeType, Semantics::Slca, Semantics::Elca] {
            let mut coverage = Coverage::default();
            let engine = XCleanEngine::from_corpus(
                small_dblp(publications, corpus_seed),
                XCleanConfig::default(),
            );
            let sets = slot_sets(engine.corpus(), |q| engine.make_slots(q), query_seed, 3, 6);
            for (i, slots) in sets.iter().enumerate() {
                for (gamma, enable_skipping) in cases() {
                    let config = XCleanConfig {
                        gamma,
                        enable_skipping,
                        prior: if doc_length_prior == 1 {
                            EntityPrior::DocLength
                        } else {
                            EntityPrior::Uniform
                        },
                        ..XCleanConfig::default()
                    };
                    let what = format!(
                        "{semantics:?} γ={gamma:?} skipping {enable_skipping} slot set {i}"
                    );
                    let reference = reference_run(engine.corpus(), semantics, slots, &config);
                    let product = product_run(
                        engine.corpus(),
                        semantics,
                        slots,
                        &config,
                        &arenas,
                    );
                    assert_same(&product, &reference, &config, &what);
                    assert_path(engine.corpus(), slots, &config, &product, &what);
                    coverage.note(&product);
                }
            }
            coverage.assert_exercised();
        }
    }

    /// A shard set at 1 and 4 shards: the engine serves its parent read
    /// back from the shards, and its run over that corpus matches the
    /// map-based reference over the original parent — γ-decisions,
    /// counters and every candidate's score bit for bit.
    #[test]
    fn shard_sets_match_the_map_based_reference(
        publications in 40usize..160,
        corpus_seed in 0u64..1_000_000,
        query_seed in 0u64..1_000_000,
    ) {
        let parent = small_dblp(publications, corpus_seed);
        let arenas = ArenaPool::default();
        for shard_count in [1usize, 4] {
            let mut coverage = Coverage::default();
            let shards = partition_corpus(&parent, shard_count, 7).unwrap();
            let engine = XCleanEngine::from_shards(shards, XCleanConfig::default()).unwrap();
            // Token and path ids are the parent's in a set's slots and
            // results: the same slots run on the original parent.
            let sets = slot_sets(&parent, |q| engine.make_slots(q), query_seed, 3, 6);
            for (i, slots) in sets.iter().enumerate() {
                for (gamma, enable_skipping) in cases() {
                    let config = XCleanConfig { gamma, enable_skipping, ..XCleanConfig::default() };
                    let what = format!(
                        "{shard_count} shard(s) γ={gamma:?} skipping {enable_skipping} slot set {i}"
                    );
                    let reference = reference_run(&parent, Semantics::NodeType, slots, &config);
                    let product = product_run(
                        engine.corpus(),
                        Semantics::NodeType,
                        slots,
                        &config,
                        &arenas,
                    );
                    assert_same(&product, &reference, &config, &what);
                    assert_path(engine.corpus(), slots, &config, &product, &what);
                    coverage.note(&product);
                }
            }
            coverage.assert_exercised();
        }
    }
}

/// Four keywords with ten one-substitution variants each, all in one
/// record: 10⁴ candidates in that subtree, so the `|C_eff|` budget runs
/// out mid-enumeration. The product's early exit and the reference's
/// truncation must keep the same first candidates, under every semantics,
/// with and without γ-pruning, on either walk path.
#[test]
fn an_exhausted_candidate_budget_matches_the_reference() {
    let query = ["kwalm", "prost", "vindu", "zelko"];
    let variants: Vec<String> = query
        .iter()
        .flat_map(|w| ('a'..='j').map(move |c| format!("{}{c}", &w[..4])))
        .collect();
    let xml = format!(
        "<r><rec><t>{}</t></rec><rec><t>{}</t></rec></r>",
        variants.join(" "),
        query.join(" ")
    );
    let engine = XCleanEngine::new(
        xclean_xmltree::parse_document(&xml).unwrap(),
        XCleanConfig::default(),
    );
    let keywords: Vec<String> = query.iter().map(|w| w.to_string()).collect();
    let slots = engine.make_slots(&keywords);
    assert!(slots.iter().all(|s| s.variants.len() == 11));
    let arenas = ArenaPool::default();
    for semantics in [Semantics::NodeType, Semantics::Slca, Semantics::Elca] {
        let gammas = [None, Some(3)];
        for (gamma, enable_skipping) in gammas.into_iter().flat_map(|g| [(g, true), (g, false)]) {
            let config = XCleanConfig {
                gamma,
                enable_skipping,
                ..XCleanConfig::default()
            };
            let what = format!("{semantics:?} γ={gamma:?} skipping {enable_skipping}");
            let reference = reference_run(engine.corpus(), semantics, &slots, &config);
            let product = product_run(engine.corpus(), semantics, &slots, &config, &arenas);
            assert_same(&product, &reference, &config, &what);
            assert_eq!(
                product.stats.candidates_enumerated,
                MAX_CANDIDATES_PER_SUBTREE as u64 + 1,
                "{what}"
            );
        }
    }
}
