//! n = 10⁴ smoke tests: every topology generator family at the scale the
//! `BENCH_scaling.json` grid runs it.
//!
//! One test per family. Each builds a network of (about) ten thousand nodes,
//! asserts the exact node count, the exact edge count where the family is
//! deterministic (bounds for the randomized families), and that the network
//! passed `Network::new` validation with every vertex reachable from the root
//! and connected to the terminal. The two quadratic-density families
//! (`complete_dag`, and the all-pairs probability loops make `random_dag` /
//! `random_cyclic` quadratic in *time* but not in edges) are held to sizes
//! whose edge counts stay comparable to the linear families — `complete_dag`
//! at n = 10⁴ would be 5·10⁷ edges, which is a memory test, not a generator
//! smoke test; its exact quadratic count is asserted instead.

use anet_graph::classify;
use anet_graph::generators::{
    chain_gn, complete_dag, cycle_with_tail, diamond_stack, full_grounded_tree, layered_dag,
    nested_cycles, path_network, random_cyclic, random_dag, random_grounded_tree, star_network,
};
use anet_graph::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 10_000;

/// The structural validity half of every assertion: `Network::new` accepted
/// the graph (the generator returned `Ok`), and the network is fully
/// connected in the sense all protocol theorems assume.
fn assert_valid(net: &Network, nodes: usize) {
    assert_eq!(net.node_count(), nodes);
    assert_ne!(net.root(), net.terminal());
    assert!(classify::all_reachable_from_root(net));
    assert!(classify::all_connected_to_terminal(net));
    assert!(classify::stranded_vertices(net).is_empty());
}

#[test]
fn chain_gn_at_scale() {
    let net = chain_gn(N).unwrap();
    assert_valid(&net, N + 2);
    assert_eq!(net.edge_count(), 2 * N);
    assert_eq!(net.max_out_degree(), 2);
}

#[test]
fn path_network_at_scale() {
    let net = path_network(N).unwrap();
    assert_valid(&net, N + 2);
    assert_eq!(net.edge_count(), N + 1);
    assert_eq!(net.max_out_degree(), 1);
}

#[test]
fn star_network_at_scale() {
    let net = star_network(N).unwrap();
    assert_valid(&net, N + 3);
    assert_eq!(net.edge_count(), 2 * N + 1);
    assert_eq!(net.max_out_degree(), N);
}

#[test]
fn full_grounded_tree_at_scale() {
    // Height 4, arity 10: (10⁵ − 1) / 9 = 11_111 internal vertices — the
    // exact shape of the 10⁴ row of the scaling bench grid.
    let net = full_grounded_tree(4, 10).unwrap();
    let internal = 11_111;
    let leaves = 10_000;
    assert_valid(&net, internal + 2);
    // s → root, internal − 1 tree edges, one edge per leaf to t.
    assert_eq!(net.edge_count(), 1 + (internal - 1) + leaves);
    assert_eq!(net.max_out_degree(), 10);
}

#[test]
fn random_grounded_tree_at_scale() {
    let mut rng = StdRng::seed_from_u64(0x00A1_1CE5);
    let net = random_grounded_tree(&mut rng, N, 4, 0.1).unwrap();
    assert_valid(&net, N + 2);
    // 1 root edge + N − 1 parent edges + between 1 and N terminal edges.
    assert!(net.edge_count() > N);
    assert!(net.edge_count() <= 2 * N + 1);
    assert!(classify::is_grounded_tree(&net));
}

#[test]
fn diamond_stack_at_scale() {
    let k = 3_333; // 3k + 3 nodes ≈ 10⁴
    let net = diamond_stack(k).unwrap();
    assert_valid(&net, 3 * k + 3);
    assert_eq!(net.edge_count(), 4 * k + 2);
    assert!(classify::is_dag(net.graph()));
}

#[test]
fn complete_dag_at_scale() {
    // The quadratic family: n internal vertices mean n(n−1)/2 + 2 edges, so
    // the node count is held where the edge count reaches the other
    // families' 10⁴ scale.
    let internal = 300;
    let net = complete_dag(internal).unwrap();
    assert_valid(&net, internal + 2);
    assert_eq!(net.edge_count(), internal * (internal - 1) / 2 + 2);
    assert!(classify::is_dag(net.graph()));
}

#[test]
fn layered_dag_at_scale() {
    let (layers, width, fan) = (100, 100, 2);
    let mut rng = StdRng::seed_from_u64(0x1A7E_12ED);
    let net = layered_dag(&mut rng, layers, width, fan).unwrap();
    assert_valid(&net, layers * width + 3);
    // 1 + gateway fan-out + per-layer fan edges (plus ≤ width repairs each)
    // + last-layer edges to t.
    let min_edges = 1 + width + (layers - 1) * width * fan + width;
    let max_edges = min_edges + (layers - 1) * width;
    assert!(net.edge_count() >= min_edges);
    assert!(net.edge_count() <= max_edges);
    assert!(classify::is_dag(net.graph()));
}

#[test]
fn random_dag_at_scale() {
    let mut rng = StdRng::seed_from_u64(0xDA6_2026);
    // Edge probability 2/n keeps the expected all-pairs extras linear.
    let net = random_dag(&mut rng, N, 2.0 / N as f64).unwrap();
    assert_valid(&net, N + 2);
    assert!(net.edge_count() > N);
    assert!(net.edge_count() < 4 * N);
    assert!(classify::is_dag(net.graph()));
}

#[test]
fn random_cyclic_at_scale() {
    let mut rng = StdRng::seed_from_u64(0xC1C_2026);
    let net = random_cyclic(&mut rng, N, 1.0 / N as f64, 1.0 / N as f64).unwrap();
    assert_valid(&net, N + 2);
    assert!(net.edge_count() > N);
    assert!(net.edge_count() < 4 * N);
}

#[test]
fn cycle_with_tail_at_scale() {
    let net = cycle_with_tail(N).unwrap();
    assert_valid(&net, N + 2);
    assert_eq!(net.edge_count(), N + 2);
    assert!(!classify::is_dag(net.graph()));
}

#[test]
fn nested_cycles_at_scale() {
    let (count, len) = (100, 100);
    let net = nested_cycles(count, len).unwrap();
    assert_valid(&net, count * len + 2);
    // count·len cycle edges + count − 1 chaining edges + s/t attachments.
    assert_eq!(net.edge_count(), count * len + (count - 1) + 2);
    assert!(!classify::is_dag(net.graph()));
}
