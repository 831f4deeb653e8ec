//! E8 — Section 6: topology mapping by flooding local information. Prints the
//! E8 table.

use anet_bench::{cyclic_workloads, f3, render_table};
use anet_core::mapping::run_mapping;
use anet_graph::generators::{complete_dag, nested_cycles};
use anet_sim::scheduler::FifoScheduler;

fn main() {
    let sizes = [5usize, 10, 20, 40];
    let mut workloads = cyclic_workloads(&sizes);
    workloads.push(anet_bench::Workload {
        name: "complete-dag/12".to_owned(),
        network: complete_dag(12).expect("valid"),
    });
    workloads.push(anet_bench::Workload {
        name: "nested-cycles/4x5".to_owned(),
        network: nested_cycles(4, 5).expect("valid"),
    });

    let mut rows = Vec::new();
    for workload in &workloads {
        let report =
            run_mapping(&workload.network, &mut FifoScheduler::new()).expect("run completes");
        assert!(report.terminated);
        let exact = report.reconstruction_is_exact(&workload.network);
        let topo = report
            .topology
            .as_ref()
            .expect("terminated runs carry a topology");
        let e = workload.network.edge_count() as f64;
        let v = workload.network.node_count() as f64;
        rows.push(vec![
            workload.name.clone(),
            workload.network.node_count().to_string(),
            workload.network.edge_count().to_string(),
            topo.vertex_count().to_string(),
            topo.edge_count().to_string(),
            exact.to_string(),
            report.metrics.messages_sent.to_string(),
            report.metrics.total_bits.to_string(),
            f3(report.metrics.total_bits as f64 / (e * e * v)),
        ]);
    }
    print!(
        "{}",
        render_table(
            "E8 — topology mapping: exact reconstruction at the terminal (Section 6)",
            &[
                "workload",
                "|V|",
                "|E|",
                "mapped |V|",
                "mapped |E|",
                "exact",
                "messages",
                "total bits",
                "total / (|E|^2 |V|)",
            ],
            &rows,
        )
    );
}
