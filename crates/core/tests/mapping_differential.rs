//! Differential suite: the interned mapping implementation versus the retained
//! owned-record reference (`anet_core::mapping::reference`).
//!
//! Mirrors the `engine_equivalence` (sim) and `differential` (num) suites: both
//! implementations are run with identically seeded schedulers across the
//! standard battery × chain/cyclic/DAG topologies × seeds, and must be
//! **bit-identical** on everything the paper's model can observe:
//!
//! * outcome and deliveries-at-termination,
//! * full [`RunMetrics`] — in particular total and per-edge **wire bits**,
//!   proving that flooding interned ids does not change the paper's bit
//!   counts (messages charge the encoded records, not the ids),
//! * the full send trace: per event, the sequence number, edge, endpoints and
//!   wire size, plus the message *content* (α, β, announcement, and the record
//!   batch with ids resolved back through the table),
//! * the assigned labels, and
//! * the extracted topology at the terminal.
//!
//! Besides pristine runs, both sides start from each corrupted state
//! (`StateCorruption`, applied in each implementation's state space) and run
//! under drop plans with a re-flood budget: re-delivered α mass, repeated
//! announcements and re-flooded record batches only arise there.

use anet_core::corruption::StateCorruption;
use anet_core::mapping::{
    self, reference, Mapping, MappingMessage, MappingState, ReconstructedTopology,
};
use anet_graph::generators::{
    chain_gn, complete_dag, cycle_with_tail, diamond_stack, nested_cycles, random_cyclic,
    random_dag,
};
use anet_graph::Network;
use anet_num::IntervalUnion;
use anet_sim::engine::{run_observed, ExecutionConfig};
use anet_sim::scheduler::{standard_battery, FifoScheduler, RandomScheduler, Scheduler};
use anet_sim::{FaultPlan, FaultyScheduler, RecoveredRun};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Re-flood rounds a run may fire after its scheduler dropped messages.
const RETRY_BUDGET: u32 = 8;

/// The three corrupted starts, each applied to both implementations.
const CORRUPTIONS: [StateCorruption; 3] = [
    StateCorruption::ScrambledLabels { seed: 7 },
    StateCorruption::LostPartition,
    StateCorruption::StaleTerminal,
];

/// Runs both implementations under one pair of identically seeded schedulers,
/// from states perturbed by `corruption` and with `retry_budget` re-flood
/// rounds, and asserts full observable equivalence. Returns the interned run.
fn assert_equivalent_run(
    net: &Network,
    interned_scheduler: &mut (impl Scheduler + ?Sized),
    reference_scheduler: &mut (impl Scheduler + ?Sized),
    corruption: Option<StateCorruption>,
    retry_budget: u32,
    context: &str,
) -> RecoveredRun<MappingState, MappingMessage> {
    let config = ExecutionConfig::with_trace();
    let protocol = Mapping::new();
    let interned = run_observed(
        net,
        &protocol,
        interned_scheduler,
        config,
        |states| {
            if let Some(corruption) = &corruption {
                mapping::corrupt_mapping_states(corruption, net, states);
            }
        },
        retry_budget,
        &mut (),
    );
    let retained = run_observed(
        net,
        &reference::Mapping::new(),
        reference_scheduler,
        config,
        |states| {
            if let Some(corruption) = &corruption {
                reference::corrupt_mapping_states(corruption, net, states);
            }
        },
        retry_budget,
        &mut (),
    );
    assert_eq!(
        (
            interned.reflood_rounds,
            interned.reflood_sends,
            interned.reflood_bits
        ),
        (
            retained.reflood_rounds,
            retained.reflood_sends,
            retained.reflood_bits
        ),
        "re-flood accounting diverged: {context}"
    );
    let (a, b) = (&interned.result, &retained.result);

    assert_eq!(a.outcome, b.outcome, "outcome diverged: {context}");
    assert_eq!(
        a.deliveries_at_termination, b.deliveries_at_termination,
        "termination point diverged: {context}"
    );
    assert_eq!(a.metrics, b.metrics, "metrics diverged: {context}");

    // Trace equivalence, event by event.
    let ta = a.trace.as_ref().expect("trace requested");
    let tb = b.trace.as_ref().expect("trace requested");
    assert_eq!(ta.len(), tb.len(), "trace length diverged: {context}");
    for (ea, eb) in ta.events().iter().zip(tb.events()) {
        assert_eq!(
            (ea.seq, ea.edge, ea.src, ea.dst, ea.bits),
            (eb.seq, eb.edge, eb.src, eb.dst, eb.bits),
            "trace event shape diverged: {context}"
        );
        assert_eq!(ea.message.alpha, eb.message.alpha, "α diverged: {context}");
        assert_eq!(ea.message.beta, eb.message.beta, "β diverged: {context}");
        assert_eq!(
            ea.message.announce.as_deref(),
            eb.message.announce.as_ref(),
            "announce diverged: {context}"
        );
        let resolved = protocol.resolve_records(ea.message.records.items());
        let mut expected = eb.message.records.clone();
        expected.sort();
        assert_eq!(resolved, expected, "record batch diverged: {context}");
    }

    // Labels.
    let labels_a: Vec<IntervalUnion> = a.states.iter().map(|s| s.label.clone()).collect();
    let labels_b: Vec<IntervalUnion> = b.states.iter().map(|s| s.label.clone()).collect();
    assert_eq!(labels_a, labels_b, "labels diverged: {context}");

    // Extraction.
    let terminal = net.terminal().index();
    let topo_a = ReconstructedTopology::from_terminal_state(&a.states[terminal]);
    let topo_b = b.states[terminal].extract_topology();
    assert_eq!(topo_a, topo_b, "extracted topology diverged: {context}");
    // A corrupted start may end in an honest failure; a pristine one may not.
    if a.outcome.terminated() && corruption.is_none() {
        assert!(
            topo_a.matches_exactly(net, &labels_a),
            "extraction inexact: {context}"
        );
    }
    interned
}

/// Battery-wide equivalence on one topology.
fn assert_equivalent_under_battery(net: &Network, seed: u64, random_count: usize, name: &str) {
    let interned = standard_battery(seed, random_count);
    let reference = standard_battery(seed, random_count);
    for (mut ia, mut ra) in interned.into_iter().zip(reference) {
        let context = format!("{name} under {}", ia.name());
        assert_equivalent_run(net, ia.as_mut(), ra.as_mut(), None, 0, &context);
    }
}

#[test]
fn interned_mapping_matches_reference_on_chain_families() {
    for n in [2usize, 5, 9] {
        let net = chain_gn(n).unwrap();
        assert_equivalent_under_battery(&net, 17, 3, &format!("chain_gn({n})"));
    }
}

#[test]
fn interned_mapping_matches_reference_on_cyclic_families() {
    let mut rng = StdRng::seed_from_u64(23);
    let nets = vec![
        ("cycle_with_tail(7)".to_owned(), cycle_with_tail(7).unwrap()),
        (
            "nested_cycles(2,4)".to_owned(),
            nested_cycles(2, 4).unwrap(),
        ),
        (
            "random_cyclic(14)".to_owned(),
            random_cyclic(&mut rng, 14, 0.2, 0.2).unwrap(),
        ),
    ];
    for (name, net) in &nets {
        assert_equivalent_under_battery(net, 29, 3, name);
    }
}

#[test]
fn interned_mapping_matches_reference_on_dag_families() {
    let mut rng = StdRng::seed_from_u64(31);
    let nets = vec![
        ("diamond_stack(4)".to_owned(), diamond_stack(4).unwrap()),
        ("complete_dag(7)".to_owned(), complete_dag(7).unwrap()),
        (
            "random_dag(16)".to_owned(),
            random_dag(&mut rng, 16, 0.25).unwrap(),
        ),
    ];
    for (name, net) in &nets {
        assert_equivalent_under_battery(net, 41, 3, name);
    }
}

/// Cyclic and DAG topologies the corrupted-start and re-flood runs share.
fn perturbed_nets() -> Vec<(String, Network)> {
    let mut rng = StdRng::seed_from_u64(47);
    vec![
        ("chain_gn(5)".to_owned(), chain_gn(5).unwrap()),
        ("diamond_stack(3)".to_owned(), diamond_stack(3).unwrap()),
        ("cycle_with_tail(6)".to_owned(), cycle_with_tail(6).unwrap()),
        (
            "nested_cycles(2,3)".to_owned(),
            nested_cycles(2, 3).unwrap(),
        ),
        (
            "random_cyclic(10)".to_owned(),
            random_cyclic(&mut rng, 10, 0.2, 0.2).unwrap(),
        ),
    ]
}

#[test]
fn interned_mapping_matches_reference_from_corrupted_starts() {
    for (name, net) in &perturbed_nets() {
        for corruption in CORRUPTIONS {
            let interned = standard_battery(53, 2);
            let reference = standard_battery(53, 2);
            for (mut ia, mut ra) in interned.into_iter().zip(reference) {
                let context = format!("{name} from {} under {}", corruption.name(), ia.name());
                assert_equivalent_run(net, ia.as_mut(), ra.as_mut(), Some(corruption), 0, &context);
            }
        }
    }
}

/// Drop plans that starve some runs, so their re-flood rounds resend every
/// record each vertex knows: mostly records the receiver knows already.
#[test]
fn interned_mapping_matches_reference_when_drops_force_refloods() {
    let mut retried = 0;
    for (name, net) in &perturbed_nets() {
        for fault_seed in 0..4u64 {
            let plan = FaultPlan::reliable()
                .with_drops(30)
                .with_drop_budget(3)
                .with_seed(fault_seed);
            let interned = standard_battery(59, 1);
            let reference = standard_battery(59, 1);
            for (ia, ra) in interned.into_iter().zip(reference) {
                let context = format!("{name} under {} dropping (seed {fault_seed})", ia.name());
                let run = assert_equivalent_run(
                    net,
                    &mut FaultyScheduler::new(ia, plan.clone()),
                    &mut FaultyScheduler::new(ra, plan.clone()),
                    None,
                    RETRY_BUDGET,
                    &context,
                );
                retried += usize::from(run.retried());
            }
        }
    }
    assert!(retried > 0, "no run needed a re-flood round");
}

#[test]
fn interned_mapping_matches_reference_when_the_run_cannot_terminate() {
    // A stranded vertex: both implementations must quiesce identically.
    let base = cycle_with_tail(5).unwrap();
    let net = anet_graph::generators::with_stranded_vertex(&base).unwrap();
    let run = assert_equivalent_run(
        &net,
        &mut FifoScheduler::new(),
        &mut FifoScheduler::new(),
        None,
        0,
        "stranded vertex",
    );
    assert!(!run.result.outcome.terminated());
}

#[test]
fn interned_mapping_wire_totals_match_reference_across_seeds() {
    // The headline bit-economy claim: id slices on the simulator side, encoded
    // records on the wire-accounting side. Totals must agree exactly.
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_cyclic(&mut rng, 12, 0.15, 0.25).unwrap();
        let a = mapping::run_mapping(&net, &mut FifoScheduler::new()).unwrap();
        let b = reference::run_mapping(&net, &mut FifoScheduler::new()).unwrap();
        assert_eq!(a.metrics.total_bits, b.metrics.total_bits, "seed {seed}");
        assert_eq!(a.metrics.max_message_bits, b.metrics.max_message_bits);
        assert_eq!(a.metrics.per_edge_bits, b.metrics.per_edge_bits);
        assert_eq!(a.terminated, b.terminated);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random cyclic topologies, FIFO plus a seeded-random schedule.
    #[test]
    fn interned_mapping_matches_reference_on_random_cyclic(
        seed in 0u64..5_000,
        internal in 2usize..14,
        fwd in 0.0f64..0.3,
        back in 0.0f64..0.3,
        sched_seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_cyclic(&mut rng, internal, fwd, back).unwrap();
        assert_equivalent_run(
            &net,
            &mut FifoScheduler::new(),
            &mut FifoScheduler::new(),
            None,
            0,
            &format!("random_cyclic seed {seed} fifo"),
        );
        assert_equivalent_run(
            &net,
            &mut RandomScheduler::seeded(sched_seed),
            &mut RandomScheduler::seeded(sched_seed),
            None,
            0,
            &format!("random_cyclic seed {seed} random {sched_seed}"),
        );
    }

    /// Random DAGs (different generator, different degree profile).
    #[test]
    fn interned_mapping_matches_reference_on_random_dags(
        seed in 0u64..5_000,
        internal in 2usize..16,
        p in 0.0f64..0.4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_dag(&mut rng, internal, p).unwrap();
        assert_equivalent_run(
            &net,
            &mut FifoScheduler::new(),
            &mut FifoScheduler::new(),
            None,
            0,
            &format!("random_dag seed {seed}"),
        );
    }

    /// Random cyclic topologies from a random (or no) corrupted start under
    /// a random drop plan with a re-flood budget, FIFO plus a seeded-random
    /// schedule.
    #[test]
    fn interned_mapping_matches_reference_on_random_faulty_cyclic(
        seed in 0u64..5_000,
        internal in 2usize..12,
        fwd in 0.0f64..0.3,
        back in 0.0f64..0.3,
        start in 0usize..4,
        drop_pct in 0u8..60,
        drop_budget in 1u64..6,
        fault_seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_cyclic(&mut rng, internal, fwd, back).unwrap();
        let corruption = start.checked_sub(1).map(|kind| CORRUPTIONS[kind]);
        let plan = FaultPlan::reliable()
            .with_drops(drop_pct)
            .with_drop_budget(drop_budget)
            .with_seed(fault_seed);
        let context = format!("random_cyclic seed {seed} from {corruption:?} under {plan:?}");
        assert_equivalent_run(
            &net,
            &mut FaultyScheduler::new(FifoScheduler::new(), plan.clone()),
            &mut FaultyScheduler::new(FifoScheduler::new(), plan.clone()),
            corruption,
            RETRY_BUDGET,
            &format!("{context} fifo"),
        );
        assert_equivalent_run(
            &net,
            &mut FaultyScheduler::new(RandomScheduler::seeded(fault_seed), plan.clone()),
            &mut FaultyScheduler::new(RandomScheduler::seeded(fault_seed), plan),
            corruption,
            RETRY_BUDGET,
            &format!("{context} random"),
        );
    }
}
