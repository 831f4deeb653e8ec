//! E1 — Theorem 3.1: grounded-tree broadcast upper bound and the naive-rule
//! ablation. Prints the E1 table.

use anet_bench::{f3, grounded_tree_workloads, render_table};
use anet_core::tree_broadcast::run_tree_broadcast;
use anet_core::{ExactCommodity, Payload, Pow2Commodity};
use anet_sim::scheduler::FifoScheduler;

fn main() {
    let sizes = [16usize, 32, 64, 128, 256, 512];
    let payload_bits = [0u64, 64, 1024];
    let mut rows = Vec::new();
    for workload in grounded_tree_workloads(&sizes) {
        for &m in &payload_bits {
            let pow2 = run_tree_broadcast::<Pow2Commodity>(
                &workload.network,
                Payload::synthetic(m),
                &mut FifoScheduler::new(),
            )
            .expect("run completes");
            let naive = run_tree_broadcast::<ExactCommodity>(
                &workload.network,
                Payload::synthetic(m),
                &mut FifoScheduler::new(),
            )
            .expect("run completes");
            assert!(pow2.terminated && pow2.all_received);
            assert!(naive.terminated && naive.all_received);
            let e = workload.network.edge_count() as f64;
            let e_log_e = e * e.log2().max(1.0);
            rows.push(vec![
                workload.name.clone(),
                workload.network.edge_count().to_string(),
                m.to_string(),
                pow2.total_bits().to_string(),
                naive.total_bits().to_string(),
                pow2.bandwidth_bits().to_string(),
                naive.bandwidth_bits().to_string(),
                f3(pow2.total_bits() as f64 / (e_log_e + e * m as f64)),
                f3(naive.total_bits() as f64 / pow2.total_bits() as f64),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            "E1 — grounded-tree broadcast: O(|E| log |E|) + |E||m| (Theorem 3.1) and naive x/d ablation",
            &[
                "workload",
                "|E|",
                "|m| bits",
                "pow2 total bits",
                "naive total bits",
                "pow2 bandwidth",
                "naive bandwidth",
                "pow2 / (|E|log|E|+|E||m|)",
                "naive / pow2",
            ],
            &rows,
        )
    );
}
