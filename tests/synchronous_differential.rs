//! Synchronous mode is the asynchronous engine under FIFO.
//!
//! Section 2's synchronous extension delivers, in every round, each message in
//! flight at the round's start, in send order. FIFO delivers in global send
//! order too, so [`run_synchronous`] must equal [`run`] under a
//! [`FifoScheduler`] in outcome, metrics, final states, send trace and
//! termination step. The grid covers every generator family with and without
//! a stranded vertex, every protocol on the networks it is defined for, and
//! delivery budgets that cut runs short at and between round boundaries.
//!
//! Round counts are pinned by a golden table generated from the former
//! stand-alone synchronous loop. A budget-exhausted run counts the round its
//! next delivery belongs to, so budget 0 reports one round with no delivery.

use std::fmt::Debug;

use anet::graph::{generators, Network};
use anet::protocols::dag_broadcast::{DagBroadcast, ForwardingMode};
use anet::protocols::general_broadcast::GeneralBroadcast;
use anet::protocols::labeling::Labeling;
use anet::protocols::mapping::{Mapping, MappingState};
use anet::protocols::tree_broadcast::TreeBroadcast;
use anet::protocols::{Payload, Pow2Commodity};
use anet::sim::engine::{run, ExecutionConfig};
use anet::sim::scheduler::FifoScheduler;
use anet::sim::{run_synchronous, AnonymousProtocol};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Tree,
    Dag,
    Cyclic,
}

/// Every family once, then each with a stranded vertex attached.
fn networks() -> Vec<(String, Network, Class)> {
    let mut rng = StdRng::seed_from_u64(0x5_1C);
    let base = vec![
        ("chain", generators::chain_gn(6), Class::Tree),
        ("path", generators::path_network(5), Class::Tree),
        ("star", generators::star_network(4), Class::Tree),
        (
            "random-tree",
            generators::random_grounded_tree(&mut rng, 10, 3, 0.4),
            Class::Tree,
        ),
        ("diamond", generators::diamond_stack(3), Class::Dag),
        ("complete-dag", generators::complete_dag(4), Class::Dag),
        (
            "random-dag",
            generators::random_dag(&mut rng, 9, 0.25),
            Class::Dag,
        ),
        (
            "layered-dag",
            generators::layered_dag(&mut rng, 3, 3, 2),
            Class::Dag,
        ),
        (
            "cycle-with-tail",
            generators::cycle_with_tail(5),
            Class::Cyclic,
        ),
        (
            "nested-cycles",
            generators::nested_cycles(2, 3),
            Class::Cyclic,
        ),
        (
            "random-cyclic",
            generators::random_cyclic(&mut rng, 10, 0.15, 0.2),
            Class::Cyclic,
        ),
    ];
    let mut out = Vec::new();
    for (name, network, class) in base {
        let network = network.expect("valid generator parameters");
        let stranded = generators::with_stranded_vertex(&network).expect("has internal vertices");
        out.push((name.to_owned(), network, class));
        out.push((format!("{name}+stranded"), stranded, class));
    }
    out
}

/// The default budget, then budgets that stop runs in their first rounds.
fn budgets() -> [u64; 10] {
    [
        ExecutionConfig::default().max_deliveries,
        0,
        1,
        2,
        3,
        5,
        7,
        11,
        20,
        50,
    ]
}

/// Runs `protocol` both ways under every budget, asserts the runs agree and
/// appends the synchronous round counts to `observed` as row `name`.
fn push_rounds<P, K>(
    observed: &mut Vec<(String, [u64; 10])>,
    name: String,
    network: &Network,
    protocol: &P,
    key: impl Fn(&P::State) -> K,
) where
    P: AnonymousProtocol,
    P::Message: PartialEq + Debug,
    K: PartialEq + Debug,
{
    let rounds = budgets().map(|max_deliveries| {
        let config = ExecutionConfig {
            max_deliveries,
            record_trace: true,
        };
        let sync = run_synchronous(network, protocol, config);
        let fifo = run(network, protocol, &mut FifoScheduler::new(), config);
        let at = format!("{name}, budget {max_deliveries}");
        assert_eq!(sync.result.outcome, fifo.outcome, "outcome: {at}");
        assert_eq!(sync.result.metrics, fifo.metrics, "metrics: {at}");
        assert_eq!(
            sync.result.deliveries_at_termination, fifo.deliveries_at_termination,
            "termination step: {at}"
        );
        assert_eq!(sync.result.trace, fifo.trace, "trace: {at}");
        let states = |s: &[P::State]| s.iter().map(&key).collect::<Vec<K>>();
        assert_eq!(
            states(&sync.result.states),
            states(&fifo.states),
            "states: {at}"
        );
        sync.rounds
    });
    observed.push((name, rounds));
}

#[test]
fn synchronous_mode_is_fifo_with_pinned_round_counts() {
    let mut observed = Vec::new();
    for (net, network, class) in networks() {
        let payload = Payload::from_bytes(b"s");
        let general = GeneralBroadcast::new(payload.clone());
        push_rounds(
            &mut observed,
            format!("{net}/general"),
            &network,
            &general,
            Clone::clone,
        );
        let labeling = Labeling::new();
        push_rounds(
            &mut observed,
            format!("{net}/labeling"),
            &network,
            &labeling,
            Clone::clone,
        );
        let mapping_state = |s: &MappingState| {
            let records = s.known_records();
            (
                s.label.clone(),
                s.alpha.clone(),
                s.beta.clone(),
                s.partitioned,
                s.received,
                records,
            )
        };
        push_rounds(
            &mut observed,
            format!("{net}/mapping"),
            &network,
            &Mapping::new(),
            mapping_state,
        );
        if class == Class::Tree {
            let tree = TreeBroadcast::<Pow2Commodity>::new(payload.clone());
            push_rounds(
                &mut observed,
                format!("{net}/tree"),
                &network,
                &tree,
                Clone::clone,
            );
        }
        if class != Class::Cyclic {
            let dag = DagBroadcast::<Pow2Commodity>::new(payload, ForwardingMode::Eager);
            push_rounds(
                &mut observed,
                format!("{net}/dag"),
                &network,
                &dag,
                Clone::clone,
            );
        }
    }
    let table: String = observed
        .iter()
        .map(|(name, rounds)| format!("    (\"{name}\", {rounds:?}),\n"))
        .collect();
    assert_eq!(
        observed.len(),
        GOLDEN_ROUNDS.len(),
        "grid changed; observed table:\n{table}"
    );
    for ((name, rounds), (golden_name, golden)) in observed.iter().zip(GOLDEN_ROUNDS) {
        assert_eq!(
            (name.as_str(), rounds),
            (*golden_name, golden),
            "round counts drifted; observed table:\n{table}"
        );
    }
}

/// Rounds per budget of [`budgets`], one row per network × protocol.
const GOLDEN_ROUNDS: &[(&str, [u64; 10])] = &[
    ("chain/general", [7, 1, 2, 2, 3, 4, 5, 7, 7, 7]),
    ("chain/labeling", [7, 1, 2, 2, 3, 4, 5, 7, 7, 7]),
    ("chain/mapping", [7, 1, 2, 2, 3, 4, 5, 7, 7, 7]),
    ("chain/tree", [7, 1, 2, 2, 3, 4, 5, 7, 7, 7]),
    ("chain/dag", [7, 1, 2, 2, 3, 4, 5, 7, 7, 7]),
    ("chain+stranded/general", [7, 1, 2, 2, 2, 3, 4, 6, 7, 7]),
    ("chain+stranded/labeling", [7, 1, 2, 2, 2, 3, 4, 6, 7, 7]),
    ("chain+stranded/mapping", [7, 1, 2, 2, 2, 3, 4, 6, 7, 7]),
    ("chain+stranded/tree", [7, 1, 2, 2, 2, 3, 4, 6, 7, 7]),
    ("chain+stranded/dag", [7, 1, 2, 2, 2, 3, 4, 6, 7, 7]),
    ("path/general", [6, 1, 2, 3, 4, 6, 6, 6, 6, 6]),
    ("path/labeling", [6, 1, 2, 3, 4, 6, 6, 6, 6, 6]),
    ("path/mapping", [6, 1, 2, 3, 4, 6, 6, 6, 6, 6]),
    ("path/tree", [6, 1, 2, 3, 4, 6, 6, 6, 6, 6]),
    ("path/dag", [6, 1, 2, 3, 4, 6, 6, 6, 6, 6]),
    ("path+stranded/general", [6, 1, 2, 2, 3, 5, 6, 6, 6, 6]),
    ("path+stranded/labeling", [6, 1, 2, 2, 3, 5, 6, 6, 6, 6]),
    ("path+stranded/mapping", [6, 1, 2, 2, 3, 5, 6, 6, 6, 6]),
    ("path+stranded/tree", [6, 1, 2, 2, 3, 5, 6, 6, 6, 6]),
    ("path+stranded/dag", [6, 1, 2, 2, 3, 5, 6, 6, 6, 6]),
    ("star/general", [3, 1, 2, 2, 2, 3, 3, 3, 3, 3]),
    ("star/labeling", [3, 1, 2, 2, 2, 3, 3, 3, 3, 3]),
    ("star/mapping", [3, 1, 2, 2, 2, 3, 3, 3, 3, 3]),
    ("star/tree", [3, 1, 2, 2, 2, 3, 3, 3, 3, 3]),
    ("star/dag", [3, 1, 2, 2, 2, 3, 3, 3, 3, 3]),
    ("star+stranded/general", [3, 1, 2, 2, 2, 2, 3, 3, 3, 3]),
    ("star+stranded/labeling", [3, 1, 2, 2, 2, 2, 3, 3, 3, 3]),
    ("star+stranded/mapping", [3, 1, 2, 2, 2, 2, 3, 3, 3, 3]),
    ("star+stranded/tree", [3, 1, 2, 2, 2, 2, 3, 3, 3, 3]),
    ("star+stranded/dag", [3, 1, 2, 2, 2, 2, 3, 3, 3, 3]),
    ("random-tree/general", [6, 1, 2, 2, 3, 3, 4, 5, 6, 6]),
    ("random-tree/labeling", [6, 1, 2, 2, 3, 3, 4, 5, 6, 6]),
    ("random-tree/mapping", [6, 1, 2, 2, 3, 3, 4, 5, 6, 6]),
    ("random-tree/tree", [6, 1, 2, 2, 3, 3, 4, 5, 6, 6]),
    ("random-tree/dag", [6, 1, 2, 2, 3, 3, 4, 5, 6, 6]),
    (
        "random-tree+stranded/general",
        [6, 1, 2, 2, 2, 3, 4, 4, 6, 6],
    ),
    (
        "random-tree+stranded/labeling",
        [6, 1, 2, 2, 2, 3, 4, 4, 6, 6],
    ),
    (
        "random-tree+stranded/mapping",
        [6, 1, 2, 2, 2, 3, 4, 4, 6, 6],
    ),
    ("random-tree+stranded/tree", [6, 1, 2, 2, 2, 3, 4, 4, 6, 6]),
    ("random-tree+stranded/dag", [6, 1, 2, 2, 2, 3, 4, 4, 6, 6]),
    ("diamond/general", [8, 1, 2, 2, 3, 4, 4, 6, 8, 8]),
    ("diamond/labeling", [8, 1, 2, 2, 3, 4, 4, 5, 7, 8]),
    ("diamond/mapping", [8, 1, 2, 2, 3, 4, 4, 5, 7, 8]),
    ("diamond/dag", [8, 1, 2, 2, 3, 4, 4, 5, 6, 8]),
    ("diamond+stranded/general", [8, 1, 2, 2, 2, 3, 4, 5, 8, 8]),
    ("diamond+stranded/labeling", [8, 1, 2, 2, 2, 3, 4, 5, 6, 8]),
    ("diamond+stranded/mapping", [8, 1, 2, 2, 2, 3, 4, 5, 6, 8]),
    ("diamond+stranded/dag", [8, 1, 2, 2, 2, 3, 4, 5, 6, 8]),
    ("complete-dag/general", [5, 1, 2, 2, 2, 3, 3, 5, 5, 5]),
    ("complete-dag/labeling", [5, 1, 2, 2, 2, 3, 3, 5, 5, 5]),
    ("complete-dag/mapping", [5, 1, 2, 2, 2, 3, 3, 5, 5, 5]),
    ("complete-dag/dag", [5, 1, 2, 2, 2, 3, 3, 5, 5, 5]),
    (
        "complete-dag+stranded/general",
        [5, 1, 2, 2, 2, 3, 3, 4, 5, 5],
    ),
    (
        "complete-dag+stranded/labeling",
        [5, 1, 2, 2, 2, 3, 3, 4, 5, 5],
    ),
    (
        "complete-dag+stranded/mapping",
        [5, 1, 2, 2, 2, 3, 3, 4, 5, 5],
    ),
    ("complete-dag+stranded/dag", [5, 1, 2, 2, 2, 3, 3, 4, 5, 5]),
    ("random-dag/general", [7, 1, 2, 2, 2, 3, 3, 4, 5, 7]),
    ("random-dag/labeling", [7, 1, 2, 2, 2, 3, 3, 4, 5, 7]),
    ("random-dag/mapping", [7, 1, 2, 2, 2, 3, 3, 4, 5, 7]),
    ("random-dag/dag", [7, 1, 2, 2, 2, 3, 3, 4, 5, 7]),
    (
        "random-dag+stranded/general",
        [7, 1, 2, 2, 2, 3, 3, 3, 4, 7],
    ),
    (
        "random-dag+stranded/labeling",
        [7, 1, 2, 2, 2, 3, 3, 3, 4, 7],
    ),
    (
        "random-dag+stranded/mapping",
        [7, 1, 2, 2, 2, 3, 3, 3, 4, 7],
    ),
    ("random-dag+stranded/dag", [7, 1, 2, 2, 2, 3, 3, 3, 4, 7]),
    ("layered-dag/general", [5, 1, 2, 2, 2, 3, 3, 4, 5, 5]),
    ("layered-dag/labeling", [5, 1, 2, 2, 2, 3, 3, 4, 4, 5]),
    ("layered-dag/mapping", [5, 1, 2, 2, 2, 3, 3, 4, 4, 5]),
    ("layered-dag/dag", [5, 1, 2, 2, 2, 3, 3, 4, 4, 5]),
    (
        "layered-dag+stranded/general",
        [5, 1, 2, 2, 2, 3, 3, 4, 5, 5],
    ),
    (
        "layered-dag+stranded/labeling",
        [5, 1, 2, 2, 2, 3, 3, 4, 4, 5],
    ),
    (
        "layered-dag+stranded/mapping",
        [5, 1, 2, 2, 2, 3, 3, 4, 4, 5],
    ),
    ("layered-dag+stranded/dag", [5, 1, 2, 2, 2, 3, 3, 4, 4, 5]),
    (
        "cycle-with-tail/general",
        [11, 1, 2, 3, 4, 6, 7, 11, 11, 11],
    ),
    (
        "cycle-with-tail/labeling",
        [11, 1, 2, 3, 4, 6, 7, 11, 11, 11],
    ),
    (
        "cycle-with-tail/mapping",
        [11, 1, 2, 3, 4, 6, 7, 11, 11, 11],
    ),
    (
        "cycle-with-tail+stranded/general",
        [11, 1, 2, 2, 3, 5, 6, 9, 11, 11],
    ),
    (
        "cycle-with-tail+stranded/labeling",
        [11, 1, 2, 2, 3, 5, 6, 9, 11, 11],
    ),
    (
        "cycle-with-tail+stranded/mapping",
        [11, 1, 2, 2, 3, 5, 6, 9, 11, 11],
    ),
    ("nested-cycles/general", [10, 1, 2, 3, 4, 5, 6, 7, 10, 10]),
    ("nested-cycles/labeling", [10, 1, 2, 3, 4, 5, 6, 7, 10, 10]),
    ("nested-cycles/mapping", [10, 1, 2, 3, 4, 5, 6, 7, 10, 10]),
    (
        "nested-cycles+stranded/general",
        [10, 1, 2, 2, 3, 4, 5, 7, 10, 10],
    ),
    (
        "nested-cycles+stranded/labeling",
        [10, 1, 2, 2, 3, 4, 5, 7, 10, 10],
    ),
    (
        "nested-cycles+stranded/mapping",
        [10, 1, 2, 2, 3, 4, 5, 7, 10, 10],
    ),
    ("random-cyclic/general", [10, 1, 2, 2, 2, 3, 3, 3, 4, 5]),
    ("random-cyclic/labeling", [10, 1, 2, 2, 2, 3, 3, 3, 4, 5]),
    ("random-cyclic/mapping", [10, 1, 2, 2, 2, 3, 3, 3, 4, 5]),
    (
        "random-cyclic+stranded/general",
        [12, 1, 2, 2, 2, 2, 3, 3, 4, 5],
    ),
    (
        "random-cyclic+stranded/labeling",
        [12, 1, 2, 2, 2, 2, 3, 3, 4, 5],
    ),
    (
        "random-cyclic+stranded/mapping",
        [12, 1, 2, 2, 2, 2, 3, 3, 4, 5],
    ),
];
