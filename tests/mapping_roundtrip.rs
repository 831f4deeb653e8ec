//! Cross-crate integration test for the Section 6 mapping protocol: the terminal's
//! extracted topology is exactly the original network, for random topologies and
//! for every delivery schedule in the battery.

use anet::graph::generators;
use anet::protocols::mapping::{run_mapping, Mapping, ReconstructedTopology};
use anet::sim::engine::{run, ExecutionConfig};
use anet::sim::runner::run_under_battery;
use anet::sim::scheduler::{DepthFirstScheduler, FifoScheduler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn mapping_roundtrips_named_families() {
    let nets = vec![
        generators::path_network(3).unwrap(),
        generators::chain_gn(7).unwrap(),
        generators::star_network(6).unwrap(),
        generators::diamond_stack(4).unwrap(),
        generators::cycle_with_tail(9).unwrap(),
        generators::nested_cycles(2, 5).unwrap(),
        generators::complete_dag(7).unwrap(),
    ];
    for net in &nets {
        let report = run_mapping(net, &mut FifoScheduler::new()).unwrap();
        assert!(report.terminated);
        assert!(
            report.reconstruction_is_exact(net),
            "|V| = {}",
            net.node_count()
        );
        let rebuilt = report.topology.as_ref().unwrap().to_network().unwrap();
        assert_eq!(rebuilt.node_count(), net.node_count());
        assert_eq!(rebuilt.edge_count(), net.edge_count());
    }
}

#[test]
fn mapping_roundtrips_under_adversarial_schedules() {
    let mut rng = StdRng::seed_from_u64(77);
    let net = generators::random_cyclic(&mut rng, 12, 0.15, 0.2).unwrap();
    for named in run_under_battery(&net, &Mapping::new(), ExecutionConfig::default(), 13, 4) {
        assert!(
            named.result.outcome.terminated(),
            "sched {}",
            named.scheduler
        );
        let labels: Vec<_> = named
            .result
            .states
            .iter()
            .map(|s| s.label.clone())
            .collect();
        let topo = ReconstructedTopology::from_terminal_state(
            &named.result.states[net.terminal().index()],
        );
        assert!(
            topo.matches_exactly(&net, &labels),
            "sched {}",
            named.scheduler
        );
    }
}

/// A memory guard for the record bags, the height-4 copy of
/// `anet-core`'s `mapping_footprint` suite: under a depth-first order a vertex
/// deep in a wide tree knows a few records with ids spread over the run, and
/// every vertex's `known` must stay within twice its sorted id vector.
#[test]
fn mapping_known_bags_stay_within_twice_their_sorted_vectors() {
    let net = generators::full_grounded_tree(4, 10).unwrap();
    let result = run(
        &net,
        &Mapping::new(),
        &mut DepthFirstScheduler::new(),
        ExecutionConfig::default(),
    );
    assert!(result.outcome.terminated());
    let stored: usize = result.states.iter().map(|s| s.known.storage_bytes()).sum();
    let sorted: usize = result.states.iter().map(|s| 4 * s.known.len()).sum();
    assert!(stored <= 2 * sorted, "{stored} bytes against {sorted}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random networks of every shape round-trip through the mapping protocol.
    #[test]
    fn mapping_roundtrips_random_networks(
        seed in 0u64..5_000,
        internal in 2usize..18,
        fwd in 0.0f64..0.25,
        back in 0.0f64..0.25,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = generators::random_cyclic(&mut rng, internal, fwd, back).unwrap();
        let report = run_mapping(&net, &mut FifoScheduler::new()).unwrap();
        prop_assert!(report.terminated);
        prop_assert!(report.reconstruction_is_exact(&net));
    }

    /// Random DAGs as well (different generator, different degree profile).
    #[test]
    fn mapping_roundtrips_random_dags(seed in 0u64..5_000, internal in 2usize..20, p in 0.0f64..0.4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = generators::random_dag(&mut rng, internal, p).unwrap();
        let report = run_mapping(&net, &mut FifoScheduler::new()).unwrap();
        prop_assert!(report.terminated);
        prop_assert!(report.reconstruction_is_exact(&net));
    }
}
