//! E6/E7 bench — label assignment (Theorem 5.1) and the pruned-tree label growth
//! (Theorem 5.2).
//!
//! The copy-on-write labelling against its retained reference, over the
//! record-bound grid, is `BENCH_labeling.json`
//! (`cargo run --release -p anet-bench --bin baseline -- labeling`).

use anet_bench::cyclic_workloads;
use anet_core::labeling::run_labeling;
use anet_graph::generators::pruned_tree;
use anet_sim::scheduler::FifoScheduler;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_labeling(c: &mut Criterion) {
    let mut group = c.benchmark_group("labeling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(1));
    for workload in cyclic_workloads(&[10, 20, 40]) {
        group.bench_with_input(
            BenchmarkId::new("cyclic", &workload.name),
            &workload,
            |b, w| {
                b.iter(|| {
                    run_labeling(&w.network, &mut FifoScheduler::new()).expect("run completes")
                })
            },
        );
    }
    for (h, d) in [(8usize, 4usize), (32, 4), (16, 8)] {
        let (network, _) = pruned_tree(h, d).expect("valid");
        group.bench_with_input(
            BenchmarkId::new("pruned-tree", format!("h{h}-d{d}")),
            &network,
            |b, net| {
                b.iter(|| run_labeling(net, &mut FifoScheduler::new()).expect("run completes"))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_labeling);
criterion_main!(benches);
