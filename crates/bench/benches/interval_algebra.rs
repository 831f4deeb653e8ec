//! Interval-algebra micro-benchmarks: the linear two-pointer `IntervalUnion`
//! merges (with inline-`u64` dyadic endpoints) versus the retained
//! collect-sort-merge reference implementations in `anet_num::reference`.
//!
//! The workloads are adversarially fragmented stripings (see
//! [`anet_bench::striped_union`]): `union` merges two fully interleaved
//! stripings (every stripe is adjacent to its neighbours, so the merge
//! collapses everything), while `intersection` and `difference` run over
//! half-overlapping stripings that fragment into one piece per stripe. Sizes
//! sweep 10 → 10 000 maximal intervals, with both inline (≤ 64-bit mantissa)
//! and heap (`BigUint`-spilled) endpoints.
//!
//! The quadratic reference difference is capped at 1 000 intervals to keep the
//! bench runnable; the fast paths run at every size.
//!
//! The `interval_algebra_delta` group times the protocols' per-delivery shape
//! instead (see [`anet_bench::delta_operands`]): a one-interval delta merged
//! into, or carved by, a state of 100 to 10 000 intervals. The in-place
//! union runs on a freshly built, unshared state per iteration (built outside
//! the timed region), as a protocol state is when a delivery reaches it.

use anet_bench::{delta_operands, striped_union};
use anet_num::{reference, IntervalUnion};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::time::Duration;

const SIZES: &[usize] = &[10, 100, 1_000, 10_000];
const REFERENCE_DIFFERENCE_CAP: usize = 1_000;

struct OpBench {
    name: &'static str,
    fast: fn(&IntervalUnion, &IntervalUnion) -> IntervalUnion,
    reference: fn(&IntervalUnion, &IntervalUnion) -> IntervalUnion,
    /// Builds the two operands for `n` maximal intervals.
    operands: fn(usize, bool) -> (IntervalUnion, IntervalUnion),
}

fn union_operands(n: usize, heap: bool) -> (IntervalUnion, IntervalUnion) {
    (
        striped_union(n, 2, 0, 1, heap),
        striped_union(n, 2, 1, 1, heap),
    )
}

fn overlap_operands(n: usize, heap: bool) -> (IntervalUnion, IntervalUnion) {
    (
        striped_union(n, 4, 0, 2, heap),
        striped_union(n, 4, 1, 2, heap),
    )
}

const OPS: &[OpBench] = &[
    OpBench {
        name: "union",
        fast: |a, b| a.union(b),
        reference: reference::union,
        operands: union_operands,
    },
    OpBench {
        name: "intersection",
        fast: |a, b| a.intersection(b),
        reference: reference::intersection,
        operands: overlap_operands,
    },
    OpBench {
        name: "difference",
        fast: |a, b| a.difference(b),
        reference: reference::difference,
        operands: overlap_operands,
    },
];

fn bench_interval_algebra(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_algebra");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for op in OPS {
        for &n in SIZES {
            for (heap, repr) in [(false, "inline"), (true, "heap")] {
                let (a, b) = (op.operands)(n, heap);
                group.bench_with_input(
                    BenchmarkId::new(format!("{}/fast/{repr}", op.name), n),
                    &(&a, &b),
                    |bencher, (a, b)| bencher.iter(|| black_box((op.fast)(a, b))),
                );
                if op.name != "difference" || n <= REFERENCE_DIFFERENCE_CAP {
                    group.bench_with_input(
                        BenchmarkId::new(format!("{}/reference/{repr}", op.name), n),
                        &(&a, &b),
                        |bencher, (a, b)| bencher.iter(|| black_box((op.reference)(a, b))),
                    );
                }
            }
        }
    }

    // The protocols' in-place hot call: merge a small delta into a large
    // accumulated state, reusing one scratch buffer across iterations.
    for &n in SIZES {
        let state = striped_union(n, 4, 0, 1, false);
        let delta = striped_union(8, 4, 2, 1, false);
        group.bench_with_input(
            BenchmarkId::new("union_in_place/small-delta", n),
            &(&state, &delta),
            |bencher, (state, delta)| {
                let mut scratch = Vec::new();
                bencher.iter(|| {
                    let mut acc = (*state).clone();
                    black_box(acc.union_in_place_with(delta, &mut scratch))
                })
            },
        );
    }
    group.finish();
}

fn bench_delta_against_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_algebra_delta");
    // Every timed union needs a fresh copy of the state, so keep the timed
    // budget small: the copies, not the unions, dominate the wall time.
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(20))
        .measurement_time(Duration::from_millis(20));
    for &n in &[100, 1_000, 10_000] {
        for (heap, repr) in [(false, "inline"), (true, "heap")] {
            let (state, delta) = delta_operands(n, heap);
            group.bench_with_input(
                BenchmarkId::new(format!("union_in_place/fast/{repr}"), n),
                &(&state, &delta),
                |bencher, (state, delta)| {
                    bencher.iter_batched_ref(
                        || state.deep_clone(),
                        |acc| acc.union_in_place(delta),
                        BatchSize::LargeInput,
                    )
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("union_in_place/reference/{repr}"), n),
                &(&state, &delta),
                |bencher, (state, delta)| bencher.iter(|| reference::union(state, delta)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("difference/fast/{repr}"), n),
                &(&state, &delta),
                |bencher, (state, delta)| bencher.iter(|| delta.difference(state)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("difference/reference/{repr}"), n),
                &(&state, &delta),
                |bencher, (state, delta)| bencher.iter(|| reference::difference(delta, state)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_interval_algebra, bench_delta_against_state);
criterion_main!(benches);
