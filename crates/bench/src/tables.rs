//! The paper's experiment tables E1–E9, pinned as `BENCH_tables.json`.
//!
//! | Table | Claim checked |
//! | ----- | ------------- |
//! | E1 | Theorem 3.1: grounded-tree broadcast in O(\|E\| log \|E\|) + \|E\|\|m\| bits, against the naive x/d rule |
//! | E2 | Theorem 3.2 / Figure 5: the chain family needs Ω(n) symbols and Ω(\|E\| log \|E\|) bits |
//! | E3 | Section 3.3: DAG broadcast in bandwidth O(\|E\|) and total O(\|E\|²) |
//! | E4 | Theorem 3.8 / Figure 4: 2ⁿ distinct collector quantities force Ω(\|E\|) bandwidth |
//! | E5, E5b | Theorems 4.2, 4.3: general broadcast in O(\|E\|² \|V\| log d_out) + \|E\|\|m\| bits, and no termination with a vertex cut off from t |
//! | E6 | Theorem 5.1: unique labels of O(\|V\| log d_out) bits |
//! | E7 | Theorem 5.2 / Figure 6: a pruned tree's deep label needs Ω(\|V\| log d_out) bits |
//! | E8 | Section 6: exact topology mapping at the terminal |
//! | E9 | Lemmas 3.3–3.7 / Figures 1–3: linear-cut snapshots and the Theorem 3.6 surgery |
//!
//! Each `eN` function runs its experiment under FIFO delivery and returns one
//! [`Row`] per table line. The `experiment` column names the table and the
//! other key columns are the line's cells: counts and wire bits as integers,
//! checks as booleans, and ratios to the bound as the strings the table
//! reports (three decimals, six for the polynomial envelopes of E5 and E6).
//! E7's full-tree columns exist only on the lines where the full tree is
//! small enough to label. `median_ns` times the run (E1: the pair of runs)
//! behind the line. Since every cell is a key column, `baseline --smoke
//! tables` fails on any moved cell.

use anet_core::dag_broadcast::{run_dag_broadcast, ForwardingMode};
use anet_core::general_broadcast::run_general_broadcast;
use anet_core::labeling::run_labeling;
use anet_core::mapping::run_mapping;
use anet_core::tree_broadcast::run_tree_broadcast;
use anet_core::{ExactCommodity, Payload, Pow2Commodity};
use anet_graph::generators::{
    chain_gn, complete_dag, cycle_with_tail, full_grounded_tree, nested_cycles,
    random_grounded_tree, star_network, with_stranded_vertex,
};
use anet_lowerbounds::chain_family::chain_family_experiment;
use anet_lowerbounds::linear_cut::verify_cut_lemmas;
use anet_lowerbounds::pruning::pruning_experiment;
use anet_lowerbounds::skeleton::skeleton_experiment;
use anet_sim::scheduler::FifoScheduler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::baseline::{timed, Baseline, Row, SampleConfig, Value};
use crate::{cyclic_workloads, dag_workloads, grounded_tree_workloads, Workload, WORKLOAD_SEED};

/// `BENCH_tables.json`: the rows of E1–E9, in table order.
pub fn tables_baseline(cfg: &SampleConfig) -> Baseline {
    let tables = [e1, e2, e3, e4, e5, e6, e7, e8, e9].map(|table| table(cfg));
    Baseline {
        bench: "tables",
        unit: "ns_per_row_median",
        workload: "the paper's experiment tables E1-E9 under FIFO delivery (see crates/bench/src/tables.rs)"
            .to_owned(),
        rows: tables.concat(),
        trailers: Vec::new(),
    }
}

/// A row of table `experiment` with the given cells.
fn row(experiment: &str, cells: Vec<(&'static str, Value)>, median_ns: u64) -> Row {
    let mut key = vec![("experiment", experiment.into())];
    key.extend(cells);
    Row { key, median_ns }
}

/// A ratio cell to three decimals.
fn f3(x: f64) -> Value {
    Value::Str(format!("{x:.3}"))
}

/// A ratio cell to six decimals.
fn f6(x: f64) -> Value {
    Value::Str(format!("{x:.6}"))
}

/// The workload-size columns shared by E5 and E6.
fn shape(w: &Workload) -> [(&'static str, Value); 4] {
    [
        ("workload", w.name.as_str().into()),
        ("nodes", w.network.node_count().into()),
        ("edges", w.network.edge_count().into()),
        ("max_out_degree", w.network.max_out_degree().into()),
    ]
}

/// `|E|² |V| log₂ d_out` (with d_out at least 2): the general-graph envelope
/// of Theorems 4.2 and 5.1.
fn cubic_envelope(w: &Workload) -> f64 {
    let e = w.network.edge_count() as f64;
    let v = w.network.node_count() as f64;
    let d = (w.network.max_out_degree() as f64).max(2.0);
    e * e * v * d.log2()
}

/// E1 — Theorem 3.1: the power-of-two rule against the naive x/d rule on
/// the chain family and random grounded trees, for payloads of 0, 64 and
/// 1024 bits.
pub fn e1(cfg: &SampleConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in grounded_tree_workloads(&[16, 32, 64, 128, 256, 512]) {
        for m in [0u64, 64, 1024] {
            let ((pow2, naive), median_ns) = timed(cfg, || {
                let pow2 = run_tree_broadcast::<Pow2Commodity>(
                    &w.network,
                    Payload::synthetic(m),
                    &mut FifoScheduler::new(),
                );
                let naive = run_tree_broadcast::<ExactCommodity>(
                    &w.network,
                    Payload::synthetic(m),
                    &mut FifoScheduler::new(),
                );
                (pow2.expect("run completes"), naive.expect("run completes"))
            });
            for report in [&pow2, &naive] {
                assert!(report.terminated && report.all_received, "{}", w.name);
            }
            let e = w.network.edge_count() as f64;
            let bound = e * e.log2().max(1.0) + e * m as f64;
            let cells = vec![
                ("workload", w.name.as_str().into()),
                ("edges", w.network.edge_count().into()),
                ("payload_bits", m.into()),
                ("pow2_total_bits", pow2.total_bits().into()),
                ("naive_total_bits", naive.total_bits().into()),
                ("pow2_bandwidth_bits", pow2.bandwidth_bits().into()),
                ("naive_bandwidth_bits", naive.bandwidth_bits().into()),
                ("pow2_over_bound", f3(pow2.total_bits() as f64 / bound)),
                (
                    "naive_over_pow2",
                    f3(naive.total_bits() as f64 / pow2.total_bits() as f64),
                ),
            ];
            rows.push(row("E1", cells, median_ns));
        }
    }
    rows
}

/// E2 — Theorem 3.2 / Figure 5: the alphabet and the bits of the
/// power-of-two protocol on the chain family `G_n`.
pub fn e2(cfg: &SampleConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 32, 64, 128, 256, 512] {
        let (points, median_ns) = timed(cfg, || chain_family_experiment::<Pow2Commodity>(&[n], 0));
        let p = &points[0];
        let cells = vec![
            ("n", p.n.into()),
            ("edges", p.edges.into()),
            ("symbol_lower_bound", p.symbol_lower_bound.into()),
            ("distinct_symbols", p.stats.distinct_symbols.into()),
            ("min_symbol_bits", p.stats.min_symbol_bits.into()),
            ("total_bits", p.stats.total_bits.into()),
            ("bandwidth_bits", p.stats.bandwidth_bits.into()),
            ("total_over_e_log_e", f3(p.normalized_total_bits())),
        ];
        rows.push(row("E2", cells, median_ns));
    }
    rows
}

/// E3 — Section 3.3: DAG broadcast on diamond stacks, layered and random
/// DAGs, in both forwarding modes.
pub fn e3(cfg: &SampleConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in dag_workloads(&[4, 8, 16, 32, 64]) {
        for mode in [ForwardingMode::Eager, ForwardingMode::WaitForAllInputs] {
            // Eager forwarding re-sends every commodity increment, so its message
            // count grows with the number of distinct root paths — exponential on
            // dense DAGs. It is reported only on the small instances; the paper's
            // one-message-per-edge behaviour is the wait-for-all mode.
            if mode == ForwardingMode::Eager && w.network.edge_count() > 80 {
                continue;
            }
            let (report, median_ns) = timed(cfg, || {
                let mut fifo = FifoScheduler::new();
                run_dag_broadcast::<Pow2Commodity>(&w.network, Payload::empty(), mode, &mut fifo)
                    .expect("run completes")
            });
            assert!(report.terminated && report.all_received, "{}", w.name);
            let e = w.network.edge_count() as f64;
            let cells = vec![
                ("workload", w.name.as_str().into()),
                ("mode", format!("{mode:?}").into()),
                ("edges", w.network.edge_count().into()),
                ("total_bits", report.total_bits().into()),
                ("bandwidth_bits", report.bandwidth_bits().into()),
                ("max_message_bits", report.max_message_bits().into()),
                ("bandwidth_over_e", f3(report.bandwidth_bits() as f64 / e)),
                (
                    "total_over_e_squared",
                    f3(report.total_bits() as f64 / (e * e)),
                ),
            ];
            rows.push(row("E3", cells, median_ns));
        }
    }
    rows
}

/// E4 — Theorem 3.8 / Figure 4: collector quantities and bits on the
/// skeleton graphs, over at most 2¹⁰ root subsets each.
pub fn e4(cfg: &SampleConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [2usize, 4, 6, 8, 10, 12, 14] {
        let (o, median_ns) = timed(cfg, || skeleton_experiment::<Pow2Commodity>(n, 1 << 10));
        let cells = vec![
            ("n", n.into()),
            ("nodes", o.nodes.into()),
            ("edges", o.edges.into()),
            ("subsets_tested", o.subsets_tested.into()),
            ("distinct_quantities", o.distinct_quantities.into()),
            ("all_distinct", o.all_distinct.into()),
            ("min_collector_bits", o.min_bits_on_collector_edge.into()),
            (
                "observed_collector_bits",
                o.observed_collector_message_bits.into(),
            ),
        ];
        rows.push(row("E4", cells, median_ns));
    }
    rows
}

/// E5 — Theorems 4.2 and 4.3: general broadcast of a 64-bit payload on
/// random cyclic networks, a cycle with a tail and nested cycles. E5b: the
/// first three networks with a stranded vertex must not terminate.
pub fn e5(cfg: &SampleConfig) -> Vec<Row> {
    let mut workloads = cyclic_workloads(&[10, 20, 40, 80]);
    workloads.push(Workload {
        name: "cycle-with-tail/64".to_owned(),
        network: cycle_with_tail(64).expect("valid"),
    });
    workloads.push(Workload {
        name: "nested-cycles/8x8".to_owned(),
        network: nested_cycles(8, 8).expect("valid"),
    });

    let mut rows = Vec::new();
    for w in &workloads {
        let (report, median_ns) = timed(cfg, || {
            run_general_broadcast(
                &w.network,
                Payload::synthetic(64),
                &mut FifoScheduler::new(),
            )
            .expect("run completes")
        });
        assert!(report.terminated && report.all_received, "{}", w.name);
        let mut cells = shape(w).to_vec();
        cells.extend([
            ("messages", report.metrics.messages_sent.into()),
            ("total_bits", report.total_bits().into()),
            ("bandwidth_bits", report.bandwidth_bits().into()),
            ("max_message_bits", report.max_message_bits().into()),
            (
                "total_over_bound",
                f6(report.total_bits() as f64 / cubic_envelope(w)),
            ),
        ]);
        rows.push(row("E5", cells, median_ns));
    }
    for w in workloads.iter().take(3) {
        let stranded = with_stranded_vertex(&w.network).expect("has internal vertices");
        let (report, median_ns) = timed(cfg, || {
            run_general_broadcast(&stranded, Payload::empty(), &mut FifoScheduler::new())
                .expect("run completes")
        });
        let cells = vec![
            ("workload", format!("{}+stranded", w.name).into()),
            ("terminated", report.terminated.into()),
            ("quiescent", report.quiescent.into()),
        ];
        rows.push(row("E5b", cells, median_ns));
    }
    rows
}

/// E6 — Theorem 5.1: labeling on random cyclic networks and full trees.
/// The theorem bounds the single-interval labels of routing vertices (not
/// the root, out-degree > 0), so the ratio to |V| log d is taken over those;
/// the terminal's label, the union of every leaf mass it absorbed, has a
/// column of its own.
pub fn e6(cfg: &SampleConfig) -> Vec<Row> {
    let mut workloads = cyclic_workloads(&[10, 20, 40, 80]);
    for arity in [2usize, 4, 8] {
        workloads.push(Workload {
            name: format!("full-tree/h3-d{arity}"),
            network: full_grounded_tree(3, arity).expect("valid"),
        });
    }

    let mut rows = Vec::new();
    for w in &workloads {
        let (report, median_ns) = timed(cfg, || {
            run_labeling(&w.network, &mut FifoScheduler::new()).expect("run completes")
        });
        assert!(report.terminated && report.labels_unique, "{}", w.name);
        let v = w.network.node_count() as f64;
        let d = (w.network.max_out_degree() as f64).max(2.0);
        let routing_bound = v * d.log2();
        let mut cells = shape(w).to_vec();
        cells.extend([
            ("labels_unique", report.labels_unique.into()),
            (
                "max_routing_label_bits",
                report.max_routing_label_bits.into(),
            ),
            (
                "routing_label_over_v_log_d",
                f3(report.max_routing_label_bits as f64 / routing_bound),
            ),
            ("terminal_label_bits", report.max_sink_label_bits.into()),
            ("total_bits", report.metrics.total_bits.into()),
            (
                "total_over_bound",
                f6(report.metrics.total_bits as f64 / cubic_envelope(w)),
            ),
        ]);
        rows.push(row("E6", cells, median_ns));
    }
    rows
}

/// E7 — Theorem 5.2 / Figure 6: the deep label of pruned trees, checked
/// against the full tree's labels where that tree is small.
pub fn e7(cfg: &SampleConfig) -> Vec<Row> {
    let grid = [
        (2usize, 2usize, true),
        (3, 2, true),
        (3, 3, true),
        (4, 3, true),
        (8, 4, false),
        (16, 4, false),
        (32, 4, false),
        (64, 4, false),
        (16, 8, false),
        (16, 16, false),
    ];
    let mut rows = Vec::new();
    for (height, arity, compare) in grid {
        let (o, median_ns) = timed(cfg, || pruning_experiment(height, arity, compare));
        let mut cells = vec![
            ("height", height.into()),
            ("arity", arity.into()),
            ("pruned_nodes", o.pruned_nodes.into()),
            ("pruned_deep_label_bits", o.pruned_deep_label_bits.into()),
        ];
        if let Some(bits) = o.full_deep_label_bits {
            cells.push(("full_deep_label_bits", bits.into()));
        }
        if let Some(matched) = o.labels_match_along_path {
            cells.push(("labels_match", matched.into()));
        }
        cells.push(("h_log_d", f3(o.h_log_d)));
        cells.push(("label_bits_over_h_log_d", f3(o.normalized_label_bits())));
        rows.push(row("E7", cells, median_ns));
    }
    rows
}

/// E8 — Section 6: topology mapping on random cyclic networks, a complete
/// DAG and nested cycles.
pub fn e8(cfg: &SampleConfig) -> Vec<Row> {
    let mut workloads = cyclic_workloads(&[5, 10, 20, 40]);
    workloads.push(Workload {
        name: "complete-dag/12".to_owned(),
        network: complete_dag(12).expect("valid"),
    });
    workloads.push(Workload {
        name: "nested-cycles/4x5".to_owned(),
        network: nested_cycles(4, 5).expect("valid"),
    });

    let mut rows = Vec::new();
    for w in &workloads {
        let (report, median_ns) = timed(cfg, || {
            run_mapping(&w.network, &mut FifoScheduler::new()).expect("run completes")
        });
        assert!(report.terminated, "{}", w.name);
        let topology = report
            .topology
            .as_ref()
            .expect("terminated runs carry a topology");
        let e = w.network.edge_count() as f64;
        let v = w.network.node_count() as f64;
        let cells = vec![
            ("workload", w.name.as_str().into()),
            ("nodes", w.network.node_count().into()),
            ("edges", w.network.edge_count().into()),
            ("mapped_nodes", topology.vertex_count().into()),
            ("mapped_edges", topology.edge_count().into()),
            ("exact", report.reconstruction_is_exact(&w.network).into()),
            ("messages", report.metrics.messages_sent.into()),
            ("total_bits", report.metrics.total_bits.into()),
            (
                "total_over_bound",
                f3(report.metrics.total_bits as f64 / (e * e * v)),
            ),
        ];
        rows.push(row("E8", cells, median_ns));
    }
    rows
}

/// E9 — Lemmas 3.3, 3.5 and 3.7 and Theorem 3.6's surgery on chains, a star
/// and grounded trees, over at most 2¹⁴ linear cuts each.
pub fn e9(cfg: &SampleConfig) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(WORKLOAD_SEED ^ 0x9);
    let networks = [
        ("chain-gn/6", chain_gn(6).expect("valid")),
        ("chain-gn/10", chain_gn(10).expect("valid")),
        ("star/8", star_network(8).expect("valid")),
        ("full-tree/h2-d3", full_grounded_tree(2, 3).expect("valid")),
        (
            "random-tree/12",
            random_grounded_tree(&mut rng, 12, 3, 0.5).expect("valid"),
        ),
    ];
    let mut rows = Vec::new();
    for (name, network) in &networks {
        let (o, median_ns) = timed(cfg, || verify_cut_lemmas::<Pow2Commodity>(network, 1 << 14));
        let cells = vec![
            ("network", (*name).into()),
            ("edges", network.edge_count().into()),
            ("cuts_examined", o.cuts_examined.into()),
            ("one_message_per_edge", o.one_message_per_edge.into()),
            (
                "cut_multisets_terminating",
                o.cut_multisets_terminating.into(),
            ),
            ("no_strict_submultiset", o.no_strict_submultiset_pair.into()),
            (
                "surgery_never_terminates",
                o.auxiliary_networks_never_terminate.into(),
            ),
            (
                "branching_pairs_distinct",
                o.branching_pairs_distinct.into(),
            ),
        ];
        rows.push(row("E9", cells, median_ns));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{keys_match, BASELINES};

    #[test]
    fn ratio_cells_round_like_the_tables() {
        assert_eq!(f3(1.23456), Value::from("1.235"));
        assert_eq!(f6(0.0678623), Value::from("0.067862"));
    }

    #[test]
    fn every_cell_matches_the_committed_baseline() {
        let entry = BASELINES
            .iter()
            .find(|entry| entry.name == "tables")
            .expect("the tables are registered");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tables.json");
        let committed = std::fs::read_to_string(path).expect("BENCH_tables.json is committed");
        let generated = (entry.generate)(&SampleConfig::smoke()).to_json();
        assert!(keys_match(entry, &generated, &committed));
    }
}
