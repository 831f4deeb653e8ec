//! E6 — Theorem 5.1: label assignment complexity and label lengths. Prints
//! the E6 table.
//!
//! Theorem 5.1 bounds the single-interval labels of routing vertices (not the
//! root, out-degree > 0), so the ratio to |V| log d is taken over those. The
//! terminal's label is the union of every leaf mass it absorbed and has a
//! column of its own.

use anet_bench::{cyclic_workloads, f3, render_table};
use anet_core::labeling::run_labeling;
use anet_graph::generators::full_grounded_tree;
use anet_sim::scheduler::FifoScheduler;

fn main() {
    let sizes = [10usize, 20, 40, 80];
    let mut workloads = cyclic_workloads(&sizes);
    for arity in [2usize, 4, 8] {
        workloads.push(anet_bench::Workload {
            name: format!("full-tree/h3-d{arity}"),
            network: full_grounded_tree(3, arity).expect("valid"),
        });
    }

    let mut rows = Vec::new();
    for workload in &workloads {
        let report =
            run_labeling(&workload.network, &mut FifoScheduler::new()).expect("run completes");
        assert!(report.terminated && report.labels_unique);
        let v = workload.network.node_count() as f64;
        let d = (workload.network.max_out_degree() as f64).max(2.0);
        let e = workload.network.edge_count() as f64;
        rows.push(vec![
            workload.name.clone(),
            workload.network.node_count().to_string(),
            workload.network.edge_count().to_string(),
            workload.network.max_out_degree().to_string(),
            report.labels_unique.to_string(),
            report.max_routing_label_bits.to_string(),
            f3(report.max_routing_label_bits as f64 / (v * d.log2())),
            report.max_sink_label_bits.to_string(),
            report.metrics.total_bits.to_string(),
            format!(
                "{:.6}",
                report.metrics.total_bits as f64 / (e * e * v * d.log2())
            ),
        ]);
    }
    print!(
        "{}",
        render_table(
            "E6 — label assignment: unique labels of O(|V| log d_out) bits (Theorem 5.1)",
            &[
                "workload",
                "|V|",
                "|E|",
                "d_out",
                "labels unique",
                "max routing label bits",
                "routing label / (|V| log d)",
                "terminal label bits",
                "total bits",
                "total / (|E|^2|V|log d)",
            ],
            &rows,
        )
    );
}
