//! Delivery-order capture → replay round-trip.
//!
//! Traces record *sends*; the asynchronous adversary is defined by the
//! *delivery* order. A [`StepLog`] observing the incremental engine captures
//! the exact edge sequence it delivered, and feeding that sequence to a
//! [`ReplayScheduler`] must reproduce the run bit-identically — outcome,
//! metrics, termination point, final states, full send trace, and the step
//! log itself. The grid covers deterministic and random schedulers over
//! acyclic and cyclic topologies, through both engines.

mod common;

use anet_graph::generators::{chain_gn, layered_dag, random_cyclic};
use anet_graph::Network;
use anet_sim::engine::{run_observed, ExecutionConfig, RunResult};
use anet_sim::reference::run_full_scan;
use anet_sim::scheduler::{ReplayScheduler, Scheduler};
use anet_sim::StepLog;
use common::{Chatter, ChatterState};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A traced run of `protocol` under `scheduler`, with its step log.
fn logged_run(
    net: &Network,
    protocol: &Chatter,
    scheduler: &mut dyn Scheduler,
) -> (RunResult<ChatterState, u64>, StepLog) {
    let mut log = StepLog::new();
    let config = ExecutionConfig::with_trace();
    let run = run_observed(net, protocol, scheduler, config, |_| {}, 0, &mut log);
    (run.result, log)
}

fn topologies() -> Vec<Network> {
    let mut rng = StdRng::seed_from_u64(0xD0D0);
    vec![
        chain_gn(8).expect("valid"),
        layered_dag(&mut rng, 4, 4, 2).expect("valid"),
        random_cyclic(&mut rng, 15, 0.15, 0.15).expect("valid"),
    ]
}

#[test]
fn captured_delivery_order_replays_bit_identically() {
    let protocol = Chatter {
        fanout_rounds: 3,
        needed: 4,
    };
    for net in topologies() {
        for mut scheduler in anet_sim::scheduler::standard_battery(99, 3) {
            let (original, log) = logged_run(&net, &protocol, scheduler.as_mut());
            let order = log.delivery_order();
            assert_eq!(
                order.len() as u64,
                original.metrics.messages_delivered,
                "one recorded edge per delivery ({})",
                scheduler.name()
            );

            let mut replay = ReplayScheduler::new(order.clone());
            let (replayed, replayed_log) = logged_run(&net, &protocol, &mut replay);
            assert_eq!(replayed.outcome, original.outcome);
            assert_eq!(replayed.metrics, original.metrics);
            assert_eq!(
                replayed.deliveries_at_termination,
                original.deliveries_at_termination
            );
            assert_eq!(replayed.states, original.states);
            assert_eq!(replayed.trace, original.trace);
            assert_eq!(replayed_log, log);

            // The same order is feasible for the full-scan reference engine too
            // and reproduces the identical run there.
            let mut replay_full = ReplayScheduler::new(order);
            let full = run_full_scan(
                &net,
                &protocol,
                &mut replay_full,
                ExecutionConfig::with_trace(),
                |_| {},
                0,
                &mut (),
            )
            .result;
            assert_eq!(full.outcome, original.outcome);
            assert_eq!(full.metrics, original.metrics);
            assert_eq!(full.trace, original.trace);
            assert_eq!(full.states, original.states);
        }
    }
}

/// A faulty run replays bit-identically from its step log: the captured
/// `(edge, action)` sequence — drops, duplicates, reorders, crash losses and
/// all — fed to [`ReplayScheduler::with_steps`] reproduces the run without the
/// fault RNG, on both engines. The plain [`StepLog::delivery_order`] is *not*
/// enough for a faulty run (it only lists effective deliveries); the step log
/// is the faithful record.
#[test]
fn faulty_run_replays_bit_identically_from_its_step_log() {
    use anet_sim::{FaultPlan, FaultyScheduler};

    let protocol = Chatter {
        fanout_rounds: 3,
        needed: 4,
    };
    let plan = FaultPlan::reliable()
        .with_drops(20)
        .with_duplicates(10)
        .with_reorder(3)
        .with_seed(13)
        .with_crash(anet_graph::NodeId(1), 5, 9);
    for net in topologies() {
        for inner in anet_sim::scheduler::standard_battery(99, 3) {
            let mut faulty = FaultyScheduler::new(inner, plan.clone());
            let (original, log) = logged_run(&net, &protocol, &mut faulty);
            let name = faulty.inner().name();
            // The delivery order lists effective deliveries only; under a
            // lossy plan that is strictly fewer entries than engine steps.
            let order = log.delivery_order();
            assert_eq!(
                order.len() as u64,
                original.metrics.messages_delivered,
                "scheduler {name}"
            );
            assert!(log.steps().len() >= order.len(), "scheduler {name}");

            let mut replay = ReplayScheduler::with_steps(log.steps().to_vec());
            let (replayed, replayed_log) = logged_run(&net, &protocol, &mut replay);
            assert_eq!(replayed.outcome, original.outcome, "scheduler {name}");
            assert_eq!(replayed.metrics, original.metrics, "scheduler {name}");
            assert_eq!(replayed.states, original.states, "scheduler {name}");
            assert_eq!(replayed.trace, original.trace, "scheduler {name}");
            assert_eq!(replayed_log, log, "scheduler {name}");

            // The step log drives the full-scan reference engine to the same
            // run as well.
            let mut replay_full = ReplayScheduler::with_steps(log.steps().to_vec());
            let full = run_full_scan(
                &net,
                &protocol,
                &mut replay_full,
                ExecutionConfig::with_trace(),
                |_| {},
                0,
                &mut (),
            )
            .result;
            assert_eq!(full.outcome, original.outcome, "scheduler {name}");
            assert_eq!(full.metrics, original.metrics, "scheduler {name}");
            assert_eq!(full.trace, original.trace, "scheduler {name}");
            assert_eq!(full.states, original.states, "scheduler {name}");
        }
    }
}
