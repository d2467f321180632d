//! Benchmark: MergedList skipping vs exhaustive heap merge (§V-C — the
//! anchor + `skip_to` technique is the paper's I/O win; DESIGN.md
//! ablation E11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xclean_index::{MergedList, PostingList, TokenId};
use xclean_xmltree::{NodeId, PathId};

/// Builds `lists` posting lists of `len` entries spread over a node-id
/// space of `universe`, deterministically.
fn make_lists(lists: usize, len: usize, universe: u32) -> Vec<PostingList> {
    (0..lists)
        .map(|l| {
            let mut pl = PostingList::new();
            let stride = universe / len as u32;
            for i in 0..len {
                // Offset per list so entries interleave.
                let node = (i as u32) * stride + (l as u32 * 7) % stride.max(1);
                pl.push(NodeId(node), PathId(0), 1, &[1, node]);
            }
            pl
        })
        .collect()
}

fn bench_merge_vs_skip(c: &mut Criterion) {
    let mut group = c.benchmark_group("merged_list");
    for &len in &[1_000usize, 10_000, 100_000] {
        let lists = make_lists(3, len, 1_000_000);
        // Full drain via next().
        group.bench_with_input(BenchmarkId::new("drain_next", len), &lists, |b, lists| {
            b.iter(|| {
                let mut m = MergedList::new(
                    lists
                        .iter()
                        .enumerate()
                        .map(|(i, l)| (TokenId(i as u32), l)),
                );
                let mut n = 0u64;
                while let Some((_, node, _)) = m.next() {
                    n += u64::from(node.0);
                }
                black_box(n)
            })
        });
        // Sparse access via skip_to jumps (simulates anchor alignment:
        // touch every 50th region only).
        group.bench_with_input(
            BenchmarkId::new("skip_to_sparse", len),
            &lists,
            |b, lists| {
                b.iter(|| {
                    let mut m = MergedList::new(
                        lists
                            .iter()
                            .enumerate()
                            .map(|(i, l)| (TokenId(i as u32), l)),
                    );
                    let mut n = 0u64;
                    let mut target = 0u32;
                    while let Some(node) = m.skip_to_node(NodeId(target)) {
                        n += u64::from(node.0);
                        m.next();
                        target = node.0 + 20_000;
                    }
                    black_box(n)
                })
            },
        );
    }
    group.finish();
}

/// Blocked (decode-on-access) storage: the skipping win in decode work.
fn bench_blocked(c: &mut Criterion) {
    use xclean_index::BlockedPostingList;
    let mut group = c.benchmark_group("blocked_posting_list");
    for &len in &[10_000usize, 100_000] {
        let plain = {
            let mut pl = PostingList::new();
            for i in 0..len {
                let n = (i as u32) * 7;
                pl.push(NodeId(n), PathId(0), 1, &[1, n]);
            }
            pl
        };
        let blocked = BlockedPostingList::from_plain(&plain);
        group.bench_with_input(
            BenchmarkId::new("drain_decode_all", len),
            &blocked,
            |b, blocked| {
                b.iter(|| {
                    let mut c = blocked.cursor();
                    let mut acc = 0u64;
                    while let Some(p) = c.current() {
                        acc += u64::from(p.node.0);
                        c.advance();
                    }
                    black_box(acc)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("skip_decode_sparse", len),
            &blocked,
            |b, blocked| {
                b.iter(|| {
                    let mut c = blocked.cursor();
                    let mut acc = 0u64;
                    let mut target = 0u32;
                    loop {
                        c.skip_to(NodeId(target));
                        let Some(p) = c.current() else { break };
                        acc += u64::from(p.node.0);
                        c.advance();
                        target = p.node.0 + 50_000;
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_merge_vs_skip, bench_blocked);
criterion_main!(benches);
