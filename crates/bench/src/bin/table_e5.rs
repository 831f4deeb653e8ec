//! E5 — Theorems 4.2 and 4.3: general-graph broadcast complexity. Prints the
//! E5 table.

use anet_bench::{cyclic_workloads, render_table};
use anet_core::general_broadcast::run_general_broadcast;
use anet_core::Payload;
use anet_graph::generators::{cycle_with_tail, nested_cycles, with_stranded_vertex};
use anet_sim::scheduler::FifoScheduler;

fn main() {
    let sizes = [10usize, 20, 40, 80];
    let mut workloads = cyclic_workloads(&sizes);
    workloads.push(anet_bench::Workload {
        name: "cycle-with-tail/64".to_owned(),
        network: cycle_with_tail(64).expect("valid"),
    });
    workloads.push(anet_bench::Workload {
        name: "nested-cycles/8x8".to_owned(),
        network: nested_cycles(8, 8).expect("valid"),
    });

    let mut rows = Vec::new();
    for workload in &workloads {
        let report = run_general_broadcast(
            &workload.network,
            Payload::synthetic(64),
            &mut FifoScheduler::new(),
        )
        .expect("run completes");
        assert!(report.terminated && report.all_received);
        let e = workload.network.edge_count() as f64;
        let v = workload.network.node_count() as f64;
        let d = (workload.network.max_out_degree() as f64).max(2.0);
        let bound = e * e * v * d.log2();
        rows.push(vec![
            workload.name.clone(),
            workload.network.node_count().to_string(),
            workload.network.edge_count().to_string(),
            workload.network.max_out_degree().to_string(),
            report.metrics.messages_sent.to_string(),
            report.total_bits().to_string(),
            report.bandwidth_bits().to_string(),
            report.max_message_bits().to_string(),
            format!("{:.6}", report.total_bits() as f64 / bound),
        ]);
    }

    // Non-termination check: the same workloads with a stranded vertex must not
    // terminate (reported as a separate mini-table).
    let mut nonterm_rows = Vec::new();
    for workload in workloads.iter().take(3) {
        let stranded = with_stranded_vertex(&workload.network).expect("has internal vertices");
        let report = run_general_broadcast(&stranded, Payload::empty(), &mut FifoScheduler::new())
            .expect("run completes");
        nonterm_rows.push(vec![
            format!("{}+stranded", workload.name),
            report.terminated.to_string(),
            report.quiescent.to_string(),
        ]);
    }

    print!(
        "{}",
        render_table(
            "E5 — general-graph broadcast: total O(|E|^2 |V| log d_out) + |E||m| (Theorems 4.2, 4.3)",
            &[
                "workload",
                "|V|",
                "|E|",
                "d_out",
                "messages",
                "total bits",
                "bandwidth bits",
                "max msg bits",
                "total / (|E|^2|V|log d)",
            ],
            &rows,
        )
    );
    println!();
    print!(
        "{}",
        render_table(
            "E5b — termination refusal when a vertex is not connected to t",
            &["workload", "terminated", "quiescent"],
            &nonterm_rows,
        )
    );
}
