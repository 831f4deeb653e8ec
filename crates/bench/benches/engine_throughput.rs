//! Engine-core throughput: the incremental active-edge-set scheduler versus the
//! naive full-scan reference, across graph sizes.
//!
//! This is the bench that justifies the scheduler refactor: with the full scan,
//! the cost of *one delivery* grows linearly with the number of edges, so run
//! time is O(E · deliveries); with the incremental core it is O(log E) per
//! delivery and the per-delivery cost is flat in graph size. Flooding `chain_gn`
//! and a dense layered DAG at n ∈ {100, 1 000, 10 000} makes that visible
//! directly: the full-scan timing per instance grows quadratically while the
//! incremental one grows (essentially) linearly.

use anet_bench::Workload;
use anet_graph::generators::{chain_gn, layered_dag};
use anet_sim::engine::run;
use anet_sim::reference::run_full_scan;
use anet_sim::scheduler::{FifoScheduler, RandomScheduler};
use anet_sim::{AnonymousProtocol, ExecutionConfig, NodeContext, Outcome, RefloodProtocol};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The flood protocol: every vertex forwards once on all out-ports; the
/// terminal accepts after `needed` receipts. Message payloads are unit, so the
/// bench isolates engine/scheduler overhead rather than protocol work.
#[derive(Debug, Clone)]
struct Flood {
    needed: u64,
}

#[derive(Debug, Clone)]
struct FloodState {
    received: u64,
    forwarded: bool,
}

impl AnonymousProtocol for Flood {
    type State = FloodState;
    type Message = ();

    fn name(&self) -> &'static str {
        "flood"
    }
    fn initial_state(&self, _ctx: &NodeContext) -> FloodState {
        FloodState {
            received: 0,
            forwarded: false,
        }
    }
    fn root_messages(&self, root_out_degree: usize) -> Vec<(usize, ())> {
        (0..root_out_degree).map(|p| (p, ())).collect()
    }
    fn on_receive(
        &self,
        ctx: &NodeContext,
        state: &mut FloodState,
        _in_port: usize,
        _message: &(),
    ) -> Vec<(usize, ())> {
        state.received += 1;
        if state.forwarded {
            return Vec::new();
        }
        state.forwarded = true;
        (0..ctx.out_degree).map(|p| (p, ())).collect()
    }
    fn should_terminate(&self, terminal_state: &FloodState) -> bool {
        terminal_state.received >= self.needed
    }
}

/// Never asked for: the bench runs with no retry budget.
impl RefloodProtocol for Flood {
    fn reflood(&self, _ctx: &NodeContext, _state: &FloodState) -> Vec<(usize, ())> {
        Vec::new()
    }
}

fn workloads(sizes: &[usize]) -> Vec<Workload> {
    let mut out = Vec::new();
    for &n in sizes {
        out.push(Workload {
            name: format!("chain-gn/{n}"),
            network: chain_gn(n).expect("n >= 1"),
        });
        // A dense-ish DAG: n/8 layers of width 8 with fanout 4.
        let mut rng = StdRng::seed_from_u64(0x0BE7_C0DE ^ n as u64);
        out.push(Workload {
            name: format!("layered-dag/{n}"),
            network: layered_dag(&mut rng, (n / 8).max(1), 8, 4).expect("valid parameters"),
        });
    }
    out
}

fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for workload in workloads(&[100, 1_000, 10_000]) {
        // Quiescent floods (needed = MAX) drain every message: deliveries == sends,
        // which is the engine's worst case and keeps both engines comparable.
        let protocol = Flood { needed: u64::MAX };

        group.bench_with_input(
            BenchmarkId::new("incremental/fifo", &workload.name),
            &workload,
            |b, w| {
                b.iter(|| {
                    let res = run(
                        &w.network,
                        &protocol,
                        &mut FifoScheduler::new(),
                        ExecutionConfig::default(),
                    );
                    assert_eq!(res.outcome, Outcome::Quiescent);
                    res.metrics.messages_delivered
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("incremental/random", &workload.name),
            &workload,
            |b, w| {
                let mut sched = RandomScheduler::seeded(7);
                b.iter(|| {
                    run(
                        &w.network,
                        &protocol,
                        &mut sched,
                        ExecutionConfig::default(),
                    )
                    .metrics
                    .messages_delivered
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("full_scan/fifo", &workload.name),
            &workload,
            |b, w| {
                b.iter(|| {
                    run_full_scan(
                        &w.network,
                        &protocol,
                        &mut FifoScheduler::new(),
                        ExecutionConfig::default(),
                        |_| {},
                        0,
                        &mut (),
                    )
                    .result
                    .metrics
                    .messages_delivered
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
