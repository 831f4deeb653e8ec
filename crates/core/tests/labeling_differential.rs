//! Differential suite: the copy-on-write labelling implementation versus the
//! retained deep-clone reference (`anet_core::labeling::reference`).
//!
//! Mirrors the `mapping_differential` (core), `engine_equivalence` (sim) and
//! `differential` (num) suites: both implementations are run with identically
//! seeded schedulers across the standard battery × chain/cyclic/DAG
//! topologies × seeds, and must be **bit-identical** on everything the
//! paper's model can observe:
//!
//! * outcome and deliveries-at-termination,
//! * full [`RunMetrics`] — in particular total and per-edge **wire bits**,
//!   proving that flooding shared endpoint-buffer handles does not change the
//!   paper's bit counts (messages charge the encoded intervals, not the
//!   handles),
//! * the full send trace: per event, the sequence number, edge, endpoints,
//!   wire size and the message *content* (α and β), and
//! * the assigned labels and the report-level uniqueness verdict.

use anet_core::labeling::{self, reference, Labeling};
use anet_graph::generators::{
    chain_gn, complete_dag, cycle_with_tail, diamond_stack, nested_cycles, random_cyclic,
    random_dag,
};
use anet_graph::Network;
use anet_num::IntervalUnion;
use anet_sim::engine::{run, ExecutionConfig};
use anet_sim::scheduler::{standard_battery, FifoScheduler, RandomScheduler, Scheduler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs both implementations under one pair of identically seeded schedulers
/// and asserts full observable equivalence. Returns whether the run terminated.
fn assert_equivalent_run(
    net: &Network,
    cow_scheduler: &mut (impl Scheduler + ?Sized),
    reference_scheduler: &mut (impl Scheduler + ?Sized),
    context: &str,
) -> bool {
    let config = ExecutionConfig::with_trace();
    let a = run(net, &Labeling::new(), cow_scheduler, config);
    let b = run(
        net,
        &reference::Labeling::new(),
        reference_scheduler,
        config,
    );

    assert_eq!(a.outcome, b.outcome, "outcome diverged: {context}");
    assert_eq!(
        a.deliveries_at_termination, b.deliveries_at_termination,
        "termination point diverged: {context}"
    );
    assert_eq!(a.metrics, b.metrics, "metrics diverged: {context}");

    // Trace equivalence, event by event — shape, wire size and content.
    let ta = a.trace.as_ref().expect("trace requested");
    let tb = b.trace.as_ref().expect("trace requested");
    assert_eq!(ta.len(), tb.len(), "trace length diverged: {context}");
    for (ea, eb) in ta.events().iter().zip(tb.events()) {
        assert_eq!(
            (ea.seq, ea.edge, ea.src, ea.dst, ea.bits),
            (eb.seq, eb.edge, eb.src, eb.dst, eb.bits),
            "trace event shape diverged: {context}"
        );
        assert_eq!(ea.message, eb.message, "message diverged: {context}");
    }

    // Labels and per-vertex state.
    let labels_a: Vec<&IntervalUnion> = a.states.iter().map(|s| &s.label).collect();
    let labels_b: Vec<&IntervalUnion> = b.states.iter().map(|s| &s.label).collect();
    assert_eq!(labels_a, labels_b, "labels diverged: {context}");
    for (sa, sb) in a.states.iter().zip(&b.states) {
        assert_eq!(sa, sb, "vertex state diverged: {context}");
    }
    a.outcome.terminated()
}

/// Battery-wide equivalence on one topology.
fn assert_equivalent_under_battery(net: &Network, seed: u64, random_count: usize, name: &str) {
    let cow = standard_battery(seed, random_count);
    let reference = standard_battery(seed, random_count);
    for (mut ca, mut ra) in cow.into_iter().zip(reference) {
        let context = format!("{name} under {}", ca.name());
        assert_equivalent_run(net, ca.as_mut(), ra.as_mut(), &context);
    }
}

#[test]
fn cow_labeling_matches_reference_on_chain_families() {
    for n in [2usize, 5, 9] {
        let net = chain_gn(n).unwrap();
        assert_equivalent_under_battery(&net, 17, 3, &format!("chain_gn({n})"));
    }
}

#[test]
fn cow_labeling_matches_reference_on_cyclic_families() {
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
fn cow_labeling_matches_reference_on_dag_families() {
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

#[test]
fn cow_labeling_matches_reference_when_the_run_cannot_terminate() {
    // A stranded vertex: both implementations must quiesce identically.
    let base = cycle_with_tail(5).unwrap();
    let net = anet_graph::generators::with_stranded_vertex(&base).unwrap();
    let terminated = assert_equivalent_run(
        &net,
        &mut FifoScheduler::new(),
        &mut FifoScheduler::new(),
        "stranded vertex",
    );
    assert!(!terminated);
}

#[test]
fn cow_labeling_reports_match_reference_across_seeds() {
    // Report-level equivalence, including the wire-bit headline: shared
    // handles on the simulator side, encoded intervals on the accounting side.
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_cyclic(&mut rng, 12, 0.15, 0.25).unwrap();
        let a = labeling::run_labeling(&net, &mut FifoScheduler::new()).unwrap();
        let b = reference::run_labeling(&net, &mut FifoScheduler::new()).unwrap();
        assert_eq!(a.metrics.total_bits, b.metrics.total_bits, "seed {seed}");
        assert_eq!(a.metrics.max_message_bits, b.metrics.max_message_bits);
        assert_eq!(a.metrics.per_edge_bits, b.metrics.per_edge_bits);
        assert_eq!(a.terminated, b.terminated);
        assert_eq!(a.labels, b.labels, "seed {seed}");
        assert_eq!(a.labels_unique, b.labels_unique);
        assert_eq!(a.max_label_bits, b.max_label_bits);
        assert_eq!(a.max_routing_label_bits, b.max_routing_label_bits);
        assert_eq!(a.max_sink_label_bits, b.max_sink_label_bits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random cyclic topologies, FIFO plus a seeded-random schedule.
    #[test]
    fn cow_labeling_matches_reference_on_random_cyclic(
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
            &format!("random_cyclic seed {seed} fifo"),
        );
        assert_equivalent_run(
            &net,
            &mut RandomScheduler::seeded(sched_seed),
            &mut RandomScheduler::seeded(sched_seed),
            &format!("random_cyclic seed {seed} random {sched_seed}"),
        );
    }

    /// Random DAGs (different generator, different degree profile).
    #[test]
    fn cow_labeling_matches_reference_on_random_dags(
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
            &format!("random_dag seed {seed}"),
        );
    }
}
