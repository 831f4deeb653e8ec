//! Cross-crate integration test for Theorem 5.1: unique labels with the claimed
//! length bound, across topology families and random instances.

use anet::graph::{classify, generators};
use anet::num::IntervalUnion;
use anet::protocols::labeling::{label_bits, run_labeling};
use anet::sim::scheduler::FifoScheduler;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn labels_are_unique_and_within_the_length_bound_on_named_families() {
    let mut rng = StdRng::seed_from_u64(11);
    let nets = vec![
        ("chain", generators::chain_gn(20).unwrap()),
        ("full-tree", generators::full_grounded_tree(3, 4).unwrap()),
        ("diamond", generators::diamond_stack(6).unwrap()),
        ("complete-dag", generators::complete_dag(10).unwrap()),
        ("cycle", generators::cycle_with_tail(12).unwrap()),
        ("nested-cycles", generators::nested_cycles(3, 5).unwrap()),
        (
            "random-cyclic",
            generators::random_cyclic(&mut rng, 30, 0.1, 0.15).unwrap(),
        ),
    ];
    for (name, net) in nets {
        let report = run_labeling(&net, &mut FifoScheduler::new()).unwrap();
        assert!(report.terminated, "{name}");
        assert!(report.labels_unique, "{name}");
        // Theorem 5.1 label-length shape: a routing vertex's label takes
        // O(|V| log d_out) bits, with a constant that absorbs the
        // self-delimiting encoding overhead (the chain reads 4.5). The
        // terminal's label is a union of absorbed leaf masses that the
        // theorem does not bound, and is reported apart.
        let v = net.node_count() as f64;
        let d = (net.max_out_degree() as f64).max(2.0);
        let bound = 8.0 * v * d.log2();
        assert!(
            (report.max_routing_label_bits as f64) <= bound,
            "{name}: {} bits exceeds {bound}",
            report.max_routing_label_bits
        );
        assert_eq!(
            report.max_label_bits,
            report
                .max_routing_label_bits
                .max(report.max_sink_label_bits)
        );
    }
}

#[test]
fn stranded_vertices_prevent_termination_of_labeling() {
    let base = generators::nested_cycles(2, 4).unwrap();
    let broken = generators::with_stranded_vertex(&base).unwrap();
    assert!(!classify::all_connected_to_terminal(&broken));
    let report = run_labeling(&broken, &mut FifoScheduler::new()).unwrap();
    assert!(!report.terminated);
    assert!(report.quiescent);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random cyclic networks of random size and density: labels always unique,
    /// always disjoint sub-intervals of [0, 1).
    #[test]
    fn labels_unique_on_random_networks(
        seed in 0u64..5_000,
        internal in 2usize..28,
        fwd in 0.0f64..0.3,
        back in 0.0f64..0.3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = generators::random_cyclic(&mut rng, internal, fwd, back).unwrap();
        let report = run_labeling(&net, &mut FifoScheduler::new()).unwrap();
        prop_assert!(report.terminated);
        prop_assert!(report.labels_unique);
        // Labels are disjoint and sit inside the unit interval.
        let mut acc = IntervalUnion::empty();
        for node in net.graph().nodes().filter(|&n| n != net.root()) {
            let label = report.label_of(node);
            prop_assert!(!label.is_empty());
            prop_assert!(!acc.intersects(label));
            acc.union_in_place(label);
            prop_assert!(label_bits(label) > 0);
        }
        prop_assert!(acc.is_subset_of(&IntervalUnion::unit()));
    }
}
