//! The streamed trace digest equals the recorded trace's digest.
//!
//! Sweep records carry [`Trace::digest`](anet_sim::trace::Trace::digest), but
//! the sweep computes it with a [`TraceDigest`] observer as the run sends,
//! without keeping the trace. Here one [`run_observed`] run is observed by
//! both: the config records the trace and the observer digests it, and the
//! two must agree. The grid is the sweep's: mapping, labeling and general
//! broadcast under the standard battery, wrapped in fault plans (drops,
//! duplicates, reorders, a crash window), with retry budget 0 or 2, from
//! pristine and corrupted starts.
//!
//! The same inputs through the pre-observer entry points give the same run:
//! [`run_recovering`] from a pristine start and [`run_corrupted`] without
//! retries equal [`run_observed`] field for field.

use std::fmt::Debug;

use anet_core::corruption::StateCorruption;
use anet_core::general_broadcast::{corrupt_general_states, GeneralBroadcast};
use anet_core::labeling::{corrupt_labeling_states, Labeling};
use anet_core::mapping::{corrupt_mapping_states, Mapping, MappingState};
use anet_core::Payload;
use anet_graph::generators::{chain_gn, cycle_with_tail, diamond_stack, random_cyclic};
use anet_graph::{Network, NodeId};
use anet_sim::engine::{run_corrupted, run_observed, run_recovering, ExecutionConfig};
use anet_sim::scheduler::standard_battery;
use anet_sim::{FaultPlan, FaultyScheduler, RecoveredRun, RefloodProtocol, TraceDigest};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn topologies() -> Vec<Network> {
    let mut rng = StdRng::seed_from_u64(0xD16E);
    vec![
        chain_gn(5).expect("valid"),
        diamond_stack(3).expect("valid"),
        cycle_with_tail(5).expect("valid"),
        random_cyclic(&mut rng, 9, 0.2, 0.2).expect("valid"),
    ]
}

fn fault_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::reliable(),
        FaultPlan::reliable().with_drops(25).with_seed(3),
        FaultPlan::reliable().with_duplicates(25).with_seed(4),
        FaultPlan::reliable().with_reorder(3).with_seed(5),
        FaultPlan::reliable().with_crash(NodeId(1), 1, 6),
    ]
}

fn corruptions() -> Vec<Option<StateCorruption>> {
    vec![
        None,
        Some(StateCorruption::ScrambledLabels { seed: 7 }),
        Some(StateCorruption::LostPartition),
        Some(StateCorruption::StaleTerminal),
    ]
}

const CONFIG: ExecutionConfig = ExecutionConfig {
    max_deliveries: 200_000,
    record_trace: true,
};

/// Asserts two runs of the same inputs are identical, comparing states
/// through `key`.
fn assert_same_run<S, M, K>(
    a: &RecoveredRun<S, M>,
    b: &RecoveredRun<S, M>,
    key: &impl Fn(&S) -> K,
    at: &str,
) where
    M: PartialEq + Debug,
    K: PartialEq + Debug,
{
    let reflood = |r: &RecoveredRun<S, M>| (r.reflood_rounds, r.reflood_sends, r.reflood_bits);
    assert_eq!(reflood(a), reflood(b), "re-flood accounting: {at}");
    let (a, b) = (&a.result, &b.result);
    assert_eq!(a.outcome, b.outcome, "outcome: {at}");
    assert_eq!(a.metrics, b.metrics, "metrics: {at}");
    assert_eq!(
        a.deliveries_at_termination, b.deliveries_at_termination,
        "termination step: {at}"
    );
    assert_eq!(a.trace, b.trace, "trace: {at}");
    let states = |s: &[S]| s.iter().map(key).collect::<Vec<K>>();
    assert_eq!(states(&a.states), states(&b.states), "states: {at}");
}

/// Runs `protocol` over the whole grid and checks every cell.
fn check_protocol<P, K>(
    name: &str,
    protocol: &P,
    corrupt: fn(&StateCorruption, &Network, &mut [P::State]),
    key: impl Fn(&P::State) -> K,
) where
    P: RefloodProtocol,
    P::Message: PartialEq + Debug,
    K: PartialEq + Debug,
{
    let mut digests = Vec::new();
    for (t, network) in topologies().iter().enumerate() {
        for (f, plan) in fault_plans().into_iter().enumerate() {
            for retry in [0, 2] {
                for corruption in corruptions() {
                    let start = |states: &mut [P::State]| {
                        if let Some(c) = &corruption {
                            corrupt(c, network, states);
                        }
                    };
                    let battery = || {
                        standard_battery(11, 1)
                            .into_iter()
                            .map(|inner| FaultyScheduler::new(inner, plan.clone()))
                    };
                    for (i, mut scheduler) in battery().enumerate() {
                        let at = format!(
                            "{name}, topology {t}, plan {f}, retry {retry}, {corruption:?}, \
                             scheduler {i}"
                        );
                        let mut digest = TraceDigest::new();
                        let observed = run_observed(
                            network,
                            protocol,
                            &mut scheduler,
                            CONFIG,
                            start,
                            retry,
                            &mut digest,
                        );
                        let trace = observed.result.trace.as_ref().expect("trace recorded");
                        assert_eq!(digest.finish(), trace.digest(), "digest: {at}");
                        digests.push(digest.finish());

                        let mut again = battery().nth(i).expect("same battery");
                        if corruption.is_none() {
                            let recovering =
                                run_recovering(network, protocol, &mut again, CONFIG, retry);
                            assert_same_run(&observed, &recovering, &key, &at);
                        } else if retry == 0 {
                            let corrupted = RecoveredRun {
                                result: run_corrupted(network, protocol, &mut again, CONFIG, start),
                                reflood_rounds: 0,
                                reflood_sends: 0,
                                reflood_bits: 0,
                            };
                            assert_same_run(&observed, &corrupted, &key, &at);
                        }
                    }
                }
            }
        }
    }
    // The grid is not degenerate: faults and corruption change the runs.
    digests.sort_unstable();
    digests.dedup();
    assert!(
        digests.len() > 20,
        "{name}: only {} distinct digests",
        digests.len()
    );
}

#[test]
fn streamed_digest_matches_the_trace_for_mapping() {
    let state = |s: &MappingState| {
        let records = s.known_records();
        (
            s.label.clone(),
            s.mass.alpha.clone(),
            s.mass.beta.clone(),
            s.received,
            records,
        )
    };
    check_protocol("mapping", &Mapping::new(), corrupt_mapping_states, state);
}

#[test]
fn streamed_digest_matches_the_trace_for_labeling() {
    check_protocol(
        "labeling",
        &Labeling::new(),
        corrupt_labeling_states,
        Clone::clone,
    );
}

#[test]
fn streamed_digest_matches_the_trace_for_general_broadcast() {
    let protocol = GeneralBroadcast::new(Payload::synthetic(16));
    check_protocol("general", &protocol, corrupt_general_states, Clone::clone);
}
