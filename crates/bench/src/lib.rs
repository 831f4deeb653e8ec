//! # anet-bench — benchmark baselines and the paper's experiment tables
//!
//! The paper is a theory paper: its "tables and figures" are the complexity claims
//! of Theorems 3.1–5.2 and the constructions in Figures 4–6. Every committed
//! `BENCH_*.json` at the workspace root comes from the one [`baseline`]
//! harness, driven by the `baseline` binary (`baseline NAME…` regenerates,
//! `baseline --smoke` key-diffs them all):
//!
//! * `BENCH_tables.json` holds the experiments `E1`–`E9` ([`tables`]), one row
//!   per table line with every reported cell as a key column and the run
//!   behind it timed;
//! * the others time the fast paths against their retained references, fault
//!   and recovery costs, engine scaling and sweep dedup.
//!
//! This library also holds the workloads they share, built deterministically
//! from [`WORKLOAD_SEED`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod tables;

use anet_graph::generators::{
    chain_gn, complete_dag, cycle_with_tail, diamond_stack, layered_dag, random_cyclic, random_dag,
    random_grounded_tree,
};
use anet_graph::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixed seed used by every workload, so tables are reproducible run to run.
pub const WORKLOAD_SEED: u64 = 0x5EED_2007;

/// A named network workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name used in the table's first column.
    pub name: String,
    /// The network itself.
    pub network: Network,
}

/// Grounded-tree workloads for E1: the chain family plus random grounded trees of
/// growing size.
pub fn grounded_tree_workloads(sizes: &[usize]) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(WORKLOAD_SEED);
    let mut out = Vec::new();
    for &n in sizes {
        out.push(Workload {
            name: format!("chain-gn/{n}"),
            network: chain_gn(n).expect("n >= 1"),
        });
        out.push(Workload {
            name: format!("random-tree/{n}"),
            network: random_grounded_tree(&mut rng, n, 4, 0.3).expect("valid parameters"),
        });
    }
    out
}

/// DAG workloads for E3: diamond stacks and layered random DAGs.
pub fn dag_workloads(sizes: &[usize]) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(WORKLOAD_SEED ^ 0x3);
    let mut out = Vec::new();
    for &n in sizes {
        out.push(Workload {
            name: format!("diamond-stack/{n}"),
            network: diamond_stack(n).expect("n >= 1"),
        });
        out.push(Workload {
            name: format!("layered-dag/{n}"),
            network: layered_dag(&mut rng, n.max(1), 4, 2).expect("valid parameters"),
        });
        out.push(Workload {
            name: format!("random-dag/{n}"),
            network: random_dag(&mut rng, n, 0.15).expect("valid parameters"),
        });
    }
    out
}

/// General (cyclic) workloads for E5/E6/E8.
pub fn cyclic_workloads(sizes: &[usize]) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(WORKLOAD_SEED ^ 0x5);
    sizes
        .iter()
        .map(|&n| Workload {
            name: format!("random-cyclic/{n}"),
            network: random_cyclic(&mut rng, n, 0.1, 0.15).expect("valid parameters"),
        })
        .collect()
}

/// The record-bound topology grid of the `BENCH_mapping.json`,
/// `BENCH_labeling.json` and `BENCH_faults.json` baselines: random cyclic
/// overlays of growing size plus complete DAGs, whose record count
/// (vertices + edges) grows quadratically — the workloads where the
/// owned-record reference's O(|known|) per-activation diff dominates.
pub fn mapping_flood_workloads() -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(WORKLOAD_SEED ^ 0x8);
    let mut out = Vec::new();
    for &n in &[10usize, 20, 40, 80] {
        out.push(Workload {
            name: format!("random-cyclic/{n}"),
            network: random_cyclic(&mut rng, n, 0.1, 0.15).expect("valid parameters"),
        });
    }
    for &n in &[8usize, 12, 16, 20] {
        out.push(Workload {
            name: format!("complete-dag/{n}"),
            network: complete_dag(n).expect("n >= 1"),
        });
    }
    out
}

/// Topology grid for the recovery-cost baseline (`BENCH_recovery.json`):
/// single-path families where one destroyed delivery starves the whole run —
/// the regime re-flood retries exist for — plus a dense DAG and a random
/// cyclic instance where redundant paths mask most losses.
pub fn recovery_workloads() -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(WORKLOAD_SEED ^ 0xD);
    vec![
        Workload {
            name: "chain-gn/6".to_owned(),
            network: chain_gn(6).expect("n >= 1"),
        },
        Workload {
            name: "chain-gn/10".to_owned(),
            network: chain_gn(10).expect("n >= 1"),
        },
        Workload {
            name: "cycle-with-tail/7".to_owned(),
            network: cycle_with_tail(7).expect("k >= 2"),
        },
        Workload {
            name: "complete-dag/6".to_owned(),
            network: complete_dag(6).expect("n >= 1"),
        },
        Workload {
            name: "random-cyclic/12".to_owned(),
            network: random_cyclic(&mut rng, 12, 0.1, 0.15).expect("valid parameters"),
        },
    ]
}

/// Builds an adversarially fragmented element of `U[0, 1)`-style interval
/// algebra workloads: `count` stripes `[i·stride + offset, i·stride + offset + len)`
/// on the dyadic grid `1/2^k` (the smallest `k` that fits every stripe).
///
/// With `stride > len` the stripes are pairwise disjoint and non-adjacent, so
/// the union has exactly `count` maximal intervals — the worst case for the
/// set-algebra merges. Two interleaved stripings (`offset` 0 and 1 at
/// `stride = 2, len = 1`) merge into a single interval; at `stride = 4,
/// len = 2` they produce `count` intersection/difference fragments.
///
/// `endpoints` selects the endpoint class (see [`Endpoints`]).
pub fn striped_union(
    count: usize,
    stride: u64,
    offset: u64,
    len: u64,
    endpoints: Endpoints,
) -> anet_num::IntervalUnion {
    use anet_num::{BigUint, Dyadic, Interval, IntervalUnion};
    assert!(stride > 0 && len > 0, "degenerate striping");
    let span = count as u64 * stride + offset + len + 1;
    let k = 64 - span.leading_zeros(); // ceil(log2(span + 1)) for span >= 1
    let endpoint = |cell: u64| -> Dyadic {
        let widen = match endpoints {
            Endpoints::Inline => return Dyadic::from_u64_parts(cell, k),
            Endpoints::Heap => 70,
            Endpoints::Exact => 130,
        };
        // Widen the mantissa far past a machine word while keeping the
        // stripes ordered and disjoint; the 2^(widen - 5) + 1 tail keeps even
        // the cell-0 endpoint above the inline limit (and the mantissa odd).
        let tail = &BigUint::pow2(widen - 5) + &BigUint::one();
        Dyadic::from_parts(&(BigUint::from(cell) << widen) + &tail, k + widen)
    };
    IntervalUnion::from_intervals((0..count as u64).map(|i| {
        let lo = i * stride + offset;
        Interval::new(endpoint(lo), endpoint(lo + len)).expect("stripe endpoints are ordered")
    }))
}

/// The endpoint classes of [`striped_union`], named by their baseline rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoints {
    /// Grid values: inline `Dyadic` mantissas, stored by an `IntervalUnion`
    /// as fixed-point words.
    Inline,
    /// Grid values widened by 70 low-order bits: heap `Dyadic` mantissas of
    /// 65–84 bits, still stored as words (at most 127 fractional bits).
    Heap,
    /// Grid values widened by 130 low-order bits: past 127 fractional bits,
    /// so the union is stored as exact dyadics.
    Exact,
}

impl Endpoints {
    /// Every class, in baseline row order.
    pub const ALL: [Endpoints; 3] = [Endpoints::Inline, Endpoints::Heap, Endpoints::Exact];

    /// The class's name in baseline rows.
    pub fn name(self) -> &'static str {
        match self {
            Endpoints::Inline => "inline",
            Endpoints::Heap => "heap",
            Endpoints::Exact => "exact",
        }
    }
}

/// The per-delivery shape of the interval protocols: a state of `count`
/// stripes (`striped_union(count, 4, 0, 2, endpoints)`, width 2 cells with
/// gaps of 2) and a one-interval delta near its middle that overlaps one
/// stripe and reaches into the following gap, so merging it changes the state
/// and carving it by the state leaves one piece.
pub fn delta_operands(
    count: usize,
    endpoints: Endpoints,
) -> (anet_num::IntervalUnion, anet_num::IntervalUnion) {
    let state = striped_union(count, 4, 0, 2, endpoints);
    let ends: Vec<anet_num::Dyadic> = state.endpoints().collect();
    let middle = ends.len() / 4 * 2;
    let (lo, hi) = (&ends[middle], &ends[middle + 1]);
    // The stripe [lo, hi) has width 2 cells: the delta starts one cell in and
    // ends one cell past the stripe's end, inside the gap.
    let cell = &hi
        .checked_sub(lo)
        .expect("stripe endpoints are ordered")
        .halve();
    let delta = anet_num::Interval::new(lo + cell, hi + cell).expect("ordered");
    (state, anet_num::IntervalUnion::from(delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::classify;

    #[test]
    fn workloads_are_valid_and_deterministic() {
        let a = grounded_tree_workloads(&[4, 8]);
        let b = grounded_tree_workloads(&[4, 8]);
        assert_eq!(a.len(), 4);
        for (wa, wb) in a.iter().zip(b.iter()) {
            assert_eq!(wa.name, wb.name);
            assert_eq!(wa.network.edge_count(), wb.network.edge_count());
            assert!(classify::is_grounded_tree(&wa.network), "{}", wa.name);
        }
        for w in dag_workloads(&[3, 6]) {
            assert!(classify::is_dag(w.network.graph()), "{}", w.name);
            assert!(classify::all_connected_to_terminal(&w.network));
        }
        for w in cyclic_workloads(&[10, 20]) {
            assert!(
                classify::all_connected_to_terminal(&w.network),
                "{}",
                w.name
            );
            assert!(classify::all_reachable_from_root(&w.network));
        }
    }

    #[test]
    fn striped_union_shapes_are_as_documented() {
        for class in Endpoints::ALL {
            let evens = striped_union(100, 2, 0, 1, class);
            let odds = striped_union(100, 2, 1, 1, class);
            assert_eq!(evens.interval_count(), 100, "{class:?}");
            assert_eq!(odds.interval_count(), 100, "{class:?}");
            assert!(!evens.intersects(&odds), "{class:?}");
            // Interleaved stripes are all mutually adjacent: the union collapses
            // into one maximal interval (the adversarial all-merge case).
            assert_eq!(evens.union(&odds).interval_count(), 1, "{class:?}");
            let wide_a = striped_union(50, 4, 0, 2, class);
            let wide_b = striped_union(50, 4, 1, 2, class);
            assert_eq!(wide_a.intersection(&wide_b).interval_count(), 50);
            assert_eq!(wide_a.difference(&wide_b).interval_count(), 50);
            for iv in evens.iter() {
                assert_eq!(iv.lo().is_inline(), class == Endpoints::Inline);
                assert_eq!(iv.hi().is_inline(), class == Endpoints::Inline);
            }
            assert_eq!(evens.is_word_sized(), class != Endpoints::Exact);
        }
    }

    #[test]
    fn delta_operands_change_the_state_and_leave_one_piece() {
        for class in Endpoints::ALL {
            let (state, delta) = delta_operands(100, class);
            assert_eq!(state.interval_count(), 100);
            assert_eq!(delta.interval_count(), 1);
            let merged = state.union(&delta);
            assert_ne!(merged, state, "{class:?}");
            assert_eq!(merged.interval_count(), 100, "{class:?}");
            assert_eq!(delta.difference(&state).interval_count(), 1);
            assert_eq!(delta.intersection(&state).interval_count(), 1);
        }
    }
}
