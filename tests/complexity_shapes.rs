//! Cross-crate integration test: the *shape* of every complexity claim in the
//! paper, measured on laptop-scale instances. Absolute constants are not the
//! paper's claim; the growth rates and orderings are.

use anet::graph::generators;
use anet::lowerbounds::chain_family::chain_family_experiment;
use anet::lowerbounds::pruning::pruning_experiment;
use anet::lowerbounds::skeleton::skeleton_experiment;
use anet::protocols::general_broadcast::run_general_broadcast;
use anet::protocols::labeling::run_labeling;
use anet::protocols::tree_broadcast::run_tree_broadcast;
use anet::protocols::{ExactCommodity, Payload, Pow2Commodity};
use anet::sim::scheduler::FifoScheduler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Theorem 3.1 + Theorem 3.2: on the chain family, total bits grow like
/// `Θ(|E| log |E|)` — superlinear in |E| but far below quadratic.
#[test]
fn e1_e2_chain_total_bits_grow_like_e_log_e() {
    let points = chain_family_experiment::<Pow2Commodity>(&[16, 64, 256], 0);
    let ratio_log = |i: usize| points[i].stats.total_bits as f64 / points[i].e_log_e;
    // Normalised by |E| log |E| the measurements stay within a small constant band.
    let (a, b, c) = (ratio_log(0), ratio_log(1), ratio_log(2));
    assert!(b < a * 2.5 && c < a * 2.5, "{a} {b} {c}");
    assert!(b > a * 0.3 && c > a * 0.3, "{a} {b} {c}");
    // And they would *not* fit a quadratic: total bits / |E|^2 must shrink.
    let quad = |i: usize| {
        points[i].stats.total_bits as f64 / (points[i].edges as f64 * points[i].edges as f64)
    };
    assert!(quad(2) < quad(0) / 3.0);
}

/// The E1 ablation: on trees with non-power-of-two degrees the naive x/d rule
/// pays an asymptotically growing factor over the power-of-two rule.
#[test]
fn e1_naive_rule_overhead_grows_with_size() {
    let overhead = |height: usize| {
        let net = generators::full_grounded_tree(height, 3).unwrap();
        let pow2 =
            run_tree_broadcast::<Pow2Commodity>(&net, Payload::empty(), &mut FifoScheduler::new())
                .unwrap();
        let naive =
            run_tree_broadcast::<ExactCommodity>(&net, Payload::empty(), &mut FifoScheduler::new())
                .unwrap();
        naive.total_bits() as f64 / pow2.total_bits() as f64
    };
    let small = overhead(3);
    let large = overhead(6);
    assert!(
        large > small,
        "naive/pow2 overhead should grow: {small} -> {large}"
    );
    assert!(large > 1.2);
}

/// Theorem 3.8 shape: the skeleton's collector edge needs a number of bits that
/// grows linearly with n (and |E| = Θ(n)).
#[test]
fn e4_skeleton_collector_bits_grow_linearly() {
    let o4 = skeleton_experiment::<Pow2Commodity>(4, 16);
    let o8 = skeleton_experiment::<Pow2Commodity>(8, 256);
    assert!(o4.all_distinct && o8.all_distinct);
    assert_eq!(o4.min_bits_on_collector_edge, 4);
    assert_eq!(o8.min_bits_on_collector_edge, 8);
    assert!(o8.observed_collector_message_bits >= o4.observed_collector_message_bits + 4);
}

/// Theorems 4.2/4.3 shape: general-broadcast totals stay far below the
/// |E|²·|V|·log d_out envelope and the per-message size below |E|·|V|·log d_out.
#[test]
fn e5_general_broadcast_stays_within_the_polynomial_envelope() {
    let mut rng = StdRng::seed_from_u64(9);
    for internal in [15usize, 30, 45] {
        let net = generators::random_cyclic(&mut rng, internal, 0.1, 0.15).unwrap();
        let report =
            run_general_broadcast(&net, Payload::empty(), &mut FifoScheduler::new()).unwrap();
        assert!(report.terminated);
        let e = net.edge_count() as f64;
        let v = net.node_count() as f64;
        let logd = (net.max_out_degree() as f64).max(2.0).log2();
        assert!(
            (report.total_bits() as f64) < e * e * v * logd * 64.0,
            "total bits blow the envelope for |V| = {internal}"
        );
        assert!((report.max_message_bits() as f64) < e * v * logd * 64.0);
    }
}

/// Theorem 5.1 + 5.2 shape: max label length grows with |V| log d and the pruned
/// tree keeps the full tree's deep label.
#[test]
fn e6_e7_label_lengths_follow_v_log_d() {
    let small = pruning_experiment(4, 4, true);
    assert_eq!(small.labels_match_along_path, Some(true));
    let grown_height = pruning_experiment(16, 4, false);
    let grown_arity = pruning_experiment(4, 16, false);
    assert!(grown_height.pruned_deep_label_bits > small.pruned_deep_label_bits * 2);
    assert!(grown_arity.pruned_deep_label_bits > small.pruned_deep_label_bits);

    // On general networks, the max routing label (the single intervals of
    // Theorem 5.1, the terminal's absorbed union excluded) also grows with
    // the network and stays within a constant of |V| log d.
    let mut rng = StdRng::seed_from_u64(77);
    let small_net = generators::random_cyclic(&mut rng, 10, 0.1, 0.1).unwrap();
    let large_net = generators::random_cyclic(&mut rng, 60, 0.1, 0.1).unwrap();
    let small_labels = run_labeling(&small_net, &mut FifoScheduler::new()).unwrap();
    let large_labels = run_labeling(&large_net, &mut FifoScheduler::new()).unwrap();
    assert!(large_labels.max_routing_label_bits > small_labels.max_routing_label_bits);
    for (net, labels) in [(&small_net, &small_labels), (&large_net, &large_labels)] {
        let v = net.node_count() as f64;
        let logd = (net.max_out_degree() as f64).max(2.0).log2();
        assert!((labels.max_routing_label_bits as f64) <= 8.0 * v * logd);
    }
}
