//! E8 bench — topology mapping (Section 6).
//!
//! The interned mapping against its retained reference, over the record-bound
//! grid, is `BENCH_mapping.json`
//! (`cargo run --release -p anet-bench --bin baseline -- mapping`).

use anet_bench::cyclic_workloads;
use anet_core::mapping::run_mapping;
use anet_graph::generators::complete_dag;
use anet_sim::scheduler::FifoScheduler;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_mapping(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapping");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(1));
    let mut workloads = cyclic_workloads(&[10, 20, 40]);
    workloads.push(anet_bench::Workload {
        name: "complete-dag/10".to_owned(),
        network: complete_dag(10).expect("valid"),
    });
    for workload in &workloads {
        group.bench_with_input(
            BenchmarkId::from_parameter(&workload.name),
            workload,
            |b, w| {
                b.iter(|| {
                    run_mapping(&w.network, &mut FifoScheduler::new()).expect("run completes")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_mapping);
criterion_main!(benches);
