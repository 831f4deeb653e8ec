//! Corrupted-start recovery runs for the three sweep protocols.
//!
//! Each test starts a protocol from deliberately damaged state
//! ([`anet_core::StateCorruption`] applied through [`anet_sim::run_corrupted`]),
//! lets it run to a normal outcome, and checks the protocol's recovery
//! predicate — did it still produce a correct result? The suite pins three
//! contracts:
//!
//! 1. **No panics, ever** — every corruption kind on every topology ends in a
//!    normal [`Outcome`]; corruption perturbs state only within each
//!    protocol's representable envelope.
//! 2. **Identity of the no-op** — `run_corrupted` with an empty closure is
//!    bit-identical to `run`.
//! 3. **Honest verdicts** — the recovery predicates flag the designed failure
//!    modes (squatted labels break uniqueness wherever bypass paths exist, a
//!    stale terminal accepts early), pass pristine runs, and credit the one
//!    genuine recovery (squatters on a pure path relabel around the damage).

use anet_core::corruption::StateCorruption;
use anet_core::general_broadcast::{corrupt_general_states, general_recovered, GeneralBroadcast};
use anet_core::labeling::{corrupt_labeling_states, labeling_recovered, Labeling};
use anet_core::mapping::{corrupt_mapping_states, mapping_recovered, Mapping};
use anet_core::Payload;
use anet_graph::generators::{chain_gn, cycle_with_tail, diamond_stack, random_cyclic};
use anet_graph::Network;
use anet_sim::engine::{run, run_corrupted, ExecutionConfig};
use anet_sim::scheduler::standard_battery;
use anet_sim::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn topologies() -> Vec<Network> {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    vec![
        chain_gn(6).expect("valid"),
        diamond_stack(4).expect("valid"),
        cycle_with_tail(7).expect("valid"),
        random_cyclic(&mut rng, 14, 0.2, 0.2).expect("valid"),
    ]
}

fn corruptions() -> Vec<StateCorruption> {
    vec![
        StateCorruption::ScrambledLabels { seed: 7 },
        StateCorruption::LostPartition,
        StateCorruption::StaleTerminal,
    ]
}

fn config() -> ExecutionConfig {
    ExecutionConfig {
        max_deliveries: 1_000_000,
        record_trace: false,
    }
}

#[test]
fn empty_corruption_is_bit_identical_to_a_plain_run() {
    let protocol = Labeling::new();
    for net in topologies() {
        for (mut plain, mut hooked) in standard_battery(11, 2)
            .into_iter()
            .zip(standard_battery(11, 2))
        {
            let base = run(&net, &protocol, plain.as_mut(), config());
            let shadow = run_corrupted(&net, &protocol, hooked.as_mut(), config(), |_| {});
            assert_eq!(base.outcome, shadow.outcome, "sched {}", plain.name());
            assert_eq!(base.metrics, shadow.metrics, "sched {}", plain.name());
            assert_eq!(base.states, shadow.states, "sched {}", plain.name());
        }
    }
}

#[test]
fn every_corruption_runs_every_protocol_to_a_normal_outcome() {
    for net in topologies() {
        for corruption in corruptions() {
            let mapping = Mapping::new();
            let labeling = Labeling::new();
            let broadcast = GeneralBroadcast::new(Payload::from_bytes(b"r"));
            for mut sched in standard_battery(5, 2) {
                let r = run_corrupted(&net, &mapping, sched.as_mut(), config(), |states| {
                    corrupt_mapping_states(&corruption, &net, states)
                });
                assert_ne!(
                    r.outcome,
                    Outcome::BudgetExhausted,
                    "mapping {corruption:?}"
                );
                let r = run_corrupted(&net, &labeling, sched.as_mut(), config(), |states| {
                    corrupt_labeling_states(&corruption, &net, states)
                });
                assert_ne!(
                    r.outcome,
                    Outcome::BudgetExhausted,
                    "labeling {corruption:?}"
                );
                let r = run_corrupted(&net, &broadcast, sched.as_mut(), config(), |states| {
                    corrupt_general_states(&corruption, &net, states)
                });
                assert_ne!(
                    r.outcome,
                    Outcome::BudgetExhausted,
                    "general {corruption:?}"
                );
            }
        }
    }
}

#[test]
fn recovery_predicates_pass_pristine_runs() {
    for net in topologies() {
        let mapping = Mapping::new();
        let labeling = Labeling::new();
        let broadcast = GeneralBroadcast::new(Payload::from_bytes(b"ok"));
        let mut sched = standard_battery(3, 0).remove(0);
        let r = run(&net, &mapping, sched.as_mut(), config());
        assert_eq!(r.outcome, Outcome::Terminated);
        assert!(mapping_recovered(&net, &r.states));
        let r = run(&net, &labeling, sched.as_mut(), config());
        assert_eq!(r.outcome, Outcome::Terminated);
        assert!(labeling_recovered(&net, &r.states));
        let r = run(&net, &broadcast, sched.as_mut(), config());
        assert_eq!(r.outcome, Outcome::Terminated);
        assert!(general_recovered(&net, &r.states));
    }
}

#[test]
fn scrambled_labels_break_labeling_uniqueness() {
    // A vertex subtracts its claimed label from arriving mass before routing
    // (the re-delivery idempotence rule), so a squatter removes its garbage
    // label from every batch that flows *through* it. On a topology with
    // bypass paths the squatted mass still reaches the terminal around the
    // squatter, overlaps its label, and uniqueness stays broken.
    let corruption = StateCorruption::ScrambledLabels { seed: 3 };
    let protocol = Labeling::new();
    for net in topologies() {
        if net.node_count() == 9 {
            // cycle_with_tail is handled below: no bypass paths exist there.
            continue;
        }
        for mut sched in standard_battery(17, 2) {
            let r = run_corrupted(&net, &protocol, sched.as_mut(), config(), |states| {
                corrupt_labeling_states(&corruption, &net, states)
            });
            assert!(
                !labeling_recovered(&net, &r.states),
                "sched {} on {} nodes",
                sched.name(),
                net.node_count()
            );
        }
    }
}

#[test]
fn scrambled_labels_recover_uniqueness_on_a_single_path() {
    // On a cycle-with-tail every unit of mass flows through every vertex on
    // the path, so each squatter subtracts its own garbage label before
    // routing onwards: the labels that reach the terminal are disjoint from
    // every squatted label and the assignment is genuinely unique again.
    let corruption = StateCorruption::ScrambledLabels { seed: 3 };
    let protocol = Labeling::new();
    let net = cycle_with_tail(7).expect("valid");
    for mut sched in standard_battery(17, 2) {
        let r = run_corrupted(&net, &protocol, sched.as_mut(), config(), |states| {
            corrupt_labeling_states(&corruption, &net, states)
        });
        assert_eq!(r.outcome, Outcome::Terminated, "sched {}", sched.name());
        assert!(
            labeling_recovered(&net, &r.states),
            "sched {}",
            sched.name()
        );
    }
}

#[test]
fn lost_partition_leaves_vertices_unlabelled() {
    let corruption = StateCorruption::LostPartition;
    let protocol = Labeling::new();
    for net in topologies() {
        // Internal vertices exist on every family here, and none of them can
        // ever claim a label with the partition step burned.
        let mut sched = standard_battery(29, 0).remove(0);
        let r = run_corrupted(&net, &protocol, sched.as_mut(), config(), |states| {
            corrupt_labeling_states(&corruption, &net, states)
        });
        assert!(!labeling_recovered(&net, &r.states));
    }
}

#[test]
fn stale_terminal_accepts_early_and_fails_recovery_checks() {
    // A chain delivers strictly in sequence, so when the terminal's stale
    // half-coverage completes the unit early, upstream state is still
    // incomplete and each protocol's recovery predicate must say so.
    let corruption = StateCorruption::StaleTerminal;
    let net = chain_gn(6).expect("valid");

    let labeling = Labeling::new();
    let mut sched = standard_battery(1, 0).remove(0);
    let r = run_corrupted(&net, &labeling, sched.as_mut(), config(), |states| {
        corrupt_labeling_states(&corruption, &net, states)
    });
    assert_eq!(r.outcome, Outcome::Terminated);
    assert!(!labeling_recovered(&net, &r.states));

    let broadcast = GeneralBroadcast::new(Payload::from_bytes(b"x"));
    let r = run_corrupted(&net, &broadcast, sched.as_mut(), config(), |states| {
        corrupt_general_states(&corruption, &net, states)
    });
    assert_eq!(r.outcome, Outcome::Terminated);
    // The terminal accepted on fabricated coverage: its own payload flag was
    // never set, so the broadcast did not recover.
    assert!(!general_recovered(&net, &r.states));
}

#[test]
fn scrambled_mapping_states_cannot_reconstruct_the_topology() {
    let corruption = StateCorruption::ScrambledLabels { seed: 11 };
    let protocol = Mapping::new();
    for net in topologies() {
        for mut sched in standard_battery(43, 2) {
            let r = run_corrupted(&net, &protocol, sched.as_mut(), config(), |states| {
                corrupt_mapping_states(&corruption, &net, states)
            });
            assert!(
                !mapping_recovered(&net, &r.states),
                "sched {} on {} nodes",
                sched.name(),
                net.node_count()
            );
        }
    }
}
