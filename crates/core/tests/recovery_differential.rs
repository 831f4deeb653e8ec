//! Differential suite for the retry/re-flood protocol variants
//! ([`anet_sim::run_recovering`] over the [`anet_sim::RefloodProtocol`] impls
//! of the three sweep protocols). Pins the two halves of the retry contract:
//!
//! 1. **Reliable ⇒ bit-identical.** Under a [`FaultPlan::reliable()`] wrapper
//!    the recovering runner never fires a re-flood round, and its outcome,
//!    final states, labels and wire-bit metrics are equal to the pristine
//!    runner's, across the whole scheduler battery × topology grid.
//! 2. **Loss ⇒ recovery.** For every single-delivery crash window that
//!    starves the pristine run (quiescence without termination), and for
//!    sustained-drop plans under which the pristine run starves, the retry
//!    variant terminates and satisfies the protocol's recovery predicate
//!    (`labels_unique` / `general_recovered` / `mapping_recovered`).

use anet_core::general_broadcast::{general_recovered, GeneralBroadcast, GeneralState};
use anet_core::labeling::{labels_unique, Labeling, LabelingState};
use anet_core::mapping::{mapping_recovered, Mapping, MappingState};
use anet_core::Payload;
use anet_graph::generators::{chain_gn, cycle_with_tail, diamond_stack, random_cyclic};
use anet_graph::Network;
use anet_num::IntervalUnion;
use anet_sim::engine::{run, run_recovering, ExecutionConfig};
use anet_sim::scheduler::{standard_battery, FifoScheduler, Scheduler};
use anet_sim::{FaultPlan, FaultyScheduler, Outcome, RecoveredRun, RefloodProtocol};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RETRY_BUDGET: u32 = 8;

fn topologies() -> Vec<Network> {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    vec![
        chain_gn(6).expect("valid"),
        diamond_stack(4).expect("valid"),
        cycle_with_tail(7).expect("valid"),
        random_cyclic(&mut rng, 14, 0.2, 0.2).expect("valid"),
    ]
}

fn config() -> ExecutionConfig {
    ExecutionConfig {
        max_deliveries: 1_000_000,
        record_trace: false,
    }
}

fn recovering<P: RefloodProtocol>(
    net: &Network,
    protocol: &P,
    plan: FaultPlan,
) -> RecoveredRun<P::State, P::Message> {
    let mut sched = FaultyScheduler::new(FifoScheduler::new(), plan);
    run_recovering(net, protocol, &mut sched, config(), RETRY_BUDGET)
}

// ---------------------------------------------------------------------------
// Half 1: reliable-plan retry is bit-identical to the pristine run.
// ---------------------------------------------------------------------------

#[test]
fn reliable_retry_labeling_is_bit_identical_to_pristine() {
    let protocol = Labeling::new();
    for net in topologies() {
        for (mut plain, wrapped) in standard_battery(23, 2)
            .into_iter()
            .zip(standard_battery(23, 2))
        {
            let pristine = run(&net, &protocol, plain.as_mut(), config());
            let mut sched = FaultyScheduler::new(wrapped, FaultPlan::reliable());
            let retry = run_recovering(&net, &protocol, &mut sched, config(), RETRY_BUDGET);
            assert_eq!(retry.reflood_rounds, 0, "sched {}", plain.name());
            assert_eq!(retry.reflood_sends, 0, "sched {}", plain.name());
            assert_eq!(retry.reflood_bits, 0, "sched {}", plain.name());
            assert_eq!(
                pristine.outcome,
                retry.result.outcome,
                "sched {}",
                plain.name()
            );
            assert_eq!(
                pristine.metrics,
                retry.result.metrics,
                "sched {}",
                plain.name()
            );
            assert_eq!(
                pristine.states,
                retry.result.states,
                "sched {}",
                plain.name()
            );
        }
    }
}

#[test]
fn reliable_retry_general_broadcast_is_bit_identical_to_pristine() {
    let protocol = GeneralBroadcast::new(Payload::from_bytes(b"retry"));
    for net in topologies() {
        for (mut plain, wrapped) in standard_battery(29, 2)
            .into_iter()
            .zip(standard_battery(29, 2))
        {
            let pristine = run(&net, &protocol, plain.as_mut(), config());
            let mut sched = FaultyScheduler::new(wrapped, FaultPlan::reliable());
            let retry = run_recovering(&net, &protocol, &mut sched, config(), RETRY_BUDGET);
            assert_eq!(retry.reflood_rounds, 0, "sched {}", plain.name());
            assert_eq!(
                pristine.outcome,
                retry.result.outcome,
                "sched {}",
                plain.name()
            );
            assert_eq!(
                pristine.metrics,
                retry.result.metrics,
                "sched {}",
                plain.name()
            );
            assert_eq!(
                pristine.states,
                retry.result.states,
                "sched {}",
                plain.name()
            );
        }
    }
}

#[test]
fn reliable_retry_mapping_is_bit_identical_to_pristine() {
    for net in topologies() {
        for (mut plain, wrapped) in standard_battery(31, 2)
            .into_iter()
            .zip(standard_battery(31, 2))
        {
            // Fresh protocol values: each carries its own record table.
            let pristine_protocol = Mapping::new();
            let retry_protocol = Mapping::new();
            let pristine = run(&net, &pristine_protocol, plain.as_mut(), config());
            let mut sched = FaultyScheduler::new(wrapped, FaultPlan::reliable());
            let retry = run_recovering(&net, &retry_protocol, &mut sched, config(), RETRY_BUDGET);
            assert_eq!(retry.reflood_rounds, 0, "sched {}", plain.name());
            assert_eq!(
                pristine.outcome,
                retry.result.outcome,
                "sched {}",
                plain.name()
            );
            assert_eq!(
                pristine.metrics,
                retry.result.metrics,
                "sched {}",
                plain.name()
            );
            for (a, b) in pristine.states.iter().zip(retry.result.states.iter()) {
                assert_eq!(a.label, b.label, "sched {}", plain.name());
                assert_eq!(a.mass.beta, b.mass.beta, "sched {}", plain.name());
                assert_eq!(
                    a.known_records(),
                    b.known_records(),
                    "sched {}",
                    plain.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Half 2: where the pristine run starves, the retry variant recovers.
// ---------------------------------------------------------------------------

/// Every crash window `[step, step + 1)` × victim node that starves the
/// pristine run on the path topology must be survivable by the retry variant.
/// Returns the number of starving cases found (the caller asserts > 0 so the
/// sweep stays honest if topology internals shift).
fn crash_sweep<P, FR>(net: &Network, protocol_factory: impl Fn() -> P, recovered_by: FR) -> usize
where
    P: RefloodProtocol,
    FR: Fn(&Network, &[P::State]) -> bool,
{
    let mut starving = 0;
    for node in net.graph().nodes() {
        if node == net.root() {
            continue;
        }
        for step in 0..20u64 {
            let plan = FaultPlan::reliable().with_crash(node, step, step + 1);
            let protocol = protocol_factory();
            let mut sched = FaultyScheduler::new(FifoScheduler::new(), plan.clone());
            let pristine = run(net, &protocol, &mut sched, config());
            if pristine.outcome != Outcome::Quiescent {
                continue;
            }
            starving += 1;
            let protocol = protocol_factory();
            let retry = recovering(net, &protocol, plan);
            assert_eq!(
                retry.result.outcome,
                Outcome::Terminated,
                "crash {node:?} @ {step} still starves with retries"
            );
            assert!(
                retry.retried(),
                "crash {node:?} @ {step} recovered for free"
            );
            assert!(
                recovered_by(net, &retry.result.states),
                "crash {node:?} @ {step} terminated without recovering"
            );
        }
    }
    starving
}

fn labeling_labels(states: &[LabelingState]) -> Vec<IntervalUnion> {
    states.iter().map(|s| s.label.clone()).collect()
}

#[test]
fn labeling_recovers_every_starving_crash_window_on_the_path() {
    let net = cycle_with_tail(7).expect("valid");
    let starving = crash_sweep(&net, Labeling::new, |net, states: &[LabelingState]| {
        labels_unique(net, &labeling_labels(states))
    });
    assert!(starving > 0, "no crash window starved the pristine run");
}

#[test]
fn general_broadcast_recovers_every_starving_crash_window_on_the_path() {
    let net = cycle_with_tail(7).expect("valid");
    let starving = crash_sweep(
        &net,
        || GeneralBroadcast::new(Payload::from_bytes(b"gb")),
        |net, states: &[GeneralState]| general_recovered(net, states),
    );
    assert!(starving > 0, "no crash window starved the pristine run");
}

#[test]
fn mapping_recovers_every_starving_crash_window_on_the_path() {
    let net = cycle_with_tail(7).expect("valid");
    let starving = crash_sweep(&net, Mapping::new, |net, states: &[MappingState]| {
        mapping_recovered(net, states)
    });
    assert!(starving > 0, "no crash window starved the pristine run");
}

/// Sustained-drop recovery: plans that destroy the first deliveries outright
/// (100% drop under a finite budget) starve every pristine protocol — the
/// initial `σ₀` never survives — and the retry variants must ride out the
/// budget and then complete.
#[test]
fn all_protocols_recover_from_sustained_drops_that_starve_pristine_runs() {
    let nets = topologies();
    for net in &nets {
        for budget in [1u64, 3] {
            let plan = FaultPlan::reliable()
                .with_drops(100)
                .with_drop_budget(budget)
                .with_seed(5);

            let labeling = Labeling::new();
            let mut sched = FaultyScheduler::new(FifoScheduler::new(), plan.clone());
            let pristine = run(net, &labeling, &mut sched, config());
            assert_eq!(pristine.outcome, Outcome::Quiescent);
            assert_eq!(pristine.metrics.messages_delivered, 0);
            let retry = recovering(net, &labeling, plan.clone());
            assert_eq!(retry.result.outcome, Outcome::Terminated);
            assert!(retry.retried());
            assert!(retry.reflood_bits > 0);
            assert!(labels_unique(net, &labeling_labels(&retry.result.states)));

            let broadcast = GeneralBroadcast::new(Payload::from_bytes(b"drop"));
            let retry = recovering(net, &broadcast, plan.clone());
            assert_eq!(retry.result.outcome, Outcome::Terminated);
            assert!(retry.retried());
            assert!(general_recovered(net, &retry.result.states));

            let mapping = Mapping::new();
            let retry = recovering(net, &mapping, plan.clone());
            assert_eq!(retry.result.outcome, Outcome::Terminated);
            assert!(retry.retried());
            assert!(mapping_recovered(net, &retry.result.states));
        }
    }
}

/// Mid-run drops (losses after real progress) exercise the frontier re-send
/// path rather than a plain σ₀ re-transmit: seeds are swept, every seed whose
/// pristine run starves must be recovered by the retry variant, and at least
/// one such seed must exist for each protocol.
#[test]
fn mid_run_drops_that_starve_the_pristine_run_are_recovered() {
    let net = cycle_with_tail(7).expect("valid");
    let mut labeling_starved = 0;
    let mut general_starved = 0;
    let mut mapping_starved = 0;
    for seed in 0..12u64 {
        let plan = FaultPlan::reliable()
            .with_drops(35)
            .with_drop_budget(2)
            .with_seed(seed);

        let labeling = Labeling::new();
        let mut sched = FaultyScheduler::new(FifoScheduler::new(), plan.clone());
        let pristine = run(&net, &labeling, &mut sched, config());
        if pristine.outcome == Outcome::Quiescent && pristine.metrics.messages_delivered > 0 {
            labeling_starved += 1;
            let retry = recovering(&net, &labeling, plan.clone());
            assert_eq!(retry.result.outcome, Outcome::Terminated, "seed {seed}");
            assert!(retry.retried(), "seed {seed}");
            assert!(
                labels_unique(&net, &labeling_labels(&retry.result.states)),
                "seed {seed}"
            );
        }

        let broadcast = GeneralBroadcast::new(Payload::from_bytes(b"mid"));
        let mut sched = FaultyScheduler::new(FifoScheduler::new(), plan.clone());
        let pristine = run(&net, &broadcast, &mut sched, config());
        if pristine.outcome == Outcome::Quiescent && pristine.metrics.messages_delivered > 0 {
            general_starved += 1;
            let retry = recovering(&net, &broadcast, plan.clone());
            assert_eq!(retry.result.outcome, Outcome::Terminated, "seed {seed}");
            assert!(general_recovered(&net, &retry.result.states), "seed {seed}");
        }

        let mapping = Mapping::new();
        let mut sched = FaultyScheduler::new(FifoScheduler::new(), plan.clone());
        let pristine = run(&net, &mapping, &mut sched, config());
        if pristine.outcome == Outcome::Quiescent && pristine.metrics.messages_delivered > 0 {
            mapping_starved += 1;
            let retry = recovering(&net, &Mapping::new(), plan.clone());
            assert_eq!(retry.result.outcome, Outcome::Terminated, "seed {seed}");
            assert!(mapping_recovered(&net, &retry.result.states), "seed {seed}");
        }
    }
    assert!(labeling_starved > 0, "no seed starved the labeling run");
    assert!(general_starved > 0, "no seed starved the broadcast run");
    assert!(mapping_starved > 0, "no seed starved the mapping run");
}
