//! # anet-bench — benchmark harness and table-regeneration support
//!
//! The paper is a theory paper: its "tables and figures" are the complexity claims
//! of Theorems 3.1–5.2 and the constructions in Figures 4–6. Every experiment
//! `E1`–`E9` (the header of each `table_e*` binary names the claim it checks) has
//!
//! * a `table_e*` binary (in `src/bin/`) that prints the experiment's table to
//!   standard output, and
//! * a Criterion bench (in `benches/`) that tracks the wall-clock cost of the
//!   protocol runs behind it.
//!
//! This library holds the pieces shared by both: deterministic workload
//! construction and plain-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;

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

/// The record-bound topology grid used by the `mapping_flood` bench and the
/// `BENCH_mapping.json` baseline: random cyclic overlays of growing size plus
/// complete DAGs, whose record count (vertices + edges) grows quadratically —
/// the workloads where the owned-record reference's O(|known|) per-activation
/// diff dominates.
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

/// Renders a plain-text table with aligned columns, as the `table_e*`
/// binaries print them.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&dashes, &widths));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a float with three significant decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
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
/// `heap_endpoints` selects endpoint representation: `false` keeps every
/// endpoint mantissa inline (≤ 64 bits), `true` widens each endpoint with 70
/// extra low-order bits so every mantissa spills to the heap `BigUint` path.
pub fn striped_union(
    count: usize,
    stride: u64,
    offset: u64,
    len: u64,
    heap_endpoints: bool,
) -> anet_num::IntervalUnion {
    use anet_num::{BigUint, Dyadic, Interval, IntervalUnion};
    assert!(stride > 0 && len > 0, "degenerate striping");
    let span = count as u64 * stride + offset + len + 1;
    let k = 64 - span.leading_zeros(); // ceil(log2(span + 1)) for span >= 1
    let endpoint = |cell: u64| -> Dyadic {
        if heap_endpoints {
            // Widen the mantissa far past a machine word while keeping the
            // stripes ordered and disjoint; the 2^65 + 1 tail keeps even the
            // cell-0 endpoint above the inline limit (and the mantissa odd).
            let widened = &(&(BigUint::from(cell) << 70) + &BigUint::pow2(65)) + &BigUint::one();
            Dyadic::from_parts(widened, k + 70)
        } else {
            Dyadic::from_u64_parts(cell, k)
        }
    };
    IntervalUnion::from_intervals((0..count as u64).map(|i| {
        let lo = i * stride + offset;
        Interval::new(endpoint(lo), endpoint(lo + len)).expect("stripe endpoints are ordered")
    }))
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
        for heap in [false, true] {
            let evens = striped_union(100, 2, 0, 1, heap);
            let odds = striped_union(100, 2, 1, 1, heap);
            assert_eq!(evens.interval_count(), 100, "heap = {heap}");
            assert_eq!(odds.interval_count(), 100, "heap = {heap}");
            assert!(!evens.intersects(&odds), "heap = {heap}");
            // Interleaved stripes are all mutually adjacent: the union collapses
            // into one maximal interval (the adversarial all-merge case).
            assert_eq!(evens.union(&odds).interval_count(), 1, "heap = {heap}");
            let wide_a = striped_union(50, 4, 0, 2, heap);
            let wide_b = striped_union(50, 4, 1, 2, heap);
            assert_eq!(wide_a.intersection(&wide_b).interval_count(), 50);
            assert_eq!(wide_a.difference(&wide_b).interval_count(), 50);
            for iv in evens.iter() {
                assert_eq!(iv.lo().is_inline(), !heap);
                assert_eq!(iv.hi().is_inline(), !heap);
            }
        }
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            "Demo",
            &["name", "value"],
            &[
                vec!["a".to_owned(), "1".to_owned()],
                vec!["long-name".to_owned(), "2".to_owned()],
            ],
        );
        assert!(table.contains("## Demo"));
        assert!(table.contains("| long-name | 2"));
        assert!(table.lines().count() >= 5);
        assert_eq!(f3(1.23456), "1.235");
    }
}
