//! E3 — Section 3.3: DAG broadcast upper bound (bandwidth O(|E|), total O(|E|²)).
//! Prints the E3 table.

use anet_bench::{dag_workloads, f3, render_table};
use anet_core::dag_broadcast::{run_dag_broadcast, ForwardingMode};
use anet_core::{Payload, Pow2Commodity};
use anet_sim::scheduler::FifoScheduler;

fn main() {
    let sizes = [4usize, 8, 16, 32, 64];
    let mut rows = Vec::new();
    for workload in dag_workloads(&sizes) {
        for mode in [ForwardingMode::Eager, ForwardingMode::WaitForAllInputs] {
            // Eager forwarding re-sends every commodity increment, so its message
            // count grows with the number of distinct root paths — exponential on
            // dense DAGs. It is reported only on the small instances; the paper's
            // one-message-per-edge behaviour is the wait-for-all mode.
            if mode == ForwardingMode::Eager && workload.network.edge_count() > 80 {
                continue;
            }
            let report = run_dag_broadcast::<Pow2Commodity>(
                &workload.network,
                Payload::empty(),
                mode,
                &mut FifoScheduler::new(),
            )
            .expect("run completes");
            assert!(report.terminated && report.all_received);
            let e = workload.network.edge_count() as f64;
            rows.push(vec![
                workload.name.clone(),
                format!("{mode:?}"),
                workload.network.edge_count().to_string(),
                report.total_bits().to_string(),
                report.bandwidth_bits().to_string(),
                report.max_message_bits().to_string(),
                f3(report.bandwidth_bits() as f64 / e),
                f3(report.total_bits() as f64 / (e * e)),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            "E3 — DAG broadcast: bandwidth O(|E|), total O(|E|^2) (Section 3.3)",
            &[
                "workload",
                "mode",
                "|E|",
                "total bits",
                "bandwidth bits",
                "max msg bits",
                "bandwidth / |E|",
                "total / |E|^2",
            ],
            &rows,
        )
    );
}
