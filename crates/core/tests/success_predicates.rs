//! The sweep's success predicates against their brute-force definitions.
//!
//! `labeling::labels_unique` is a sort-and-sweep over every participant's
//! intervals and `ReconstructedTopology::matches_exactly` looks vertices and
//! edges up in a one-time index. Both must answer exactly what the pairwise
//! definitions below answer — on the labels and topologies real runs produce
//! and on damaged ones: empty, overlapping, touching, multi-interval and
//! scrambled labels, and reconstructions with a missing, misrouted or
//! misported edge, a wrong degree or a vertex reference repeated.

use anet_core::corruption::scrambled_labels;
use anet_core::labeling::{labels_unique, run_labeling};
use anet_core::mapping::{run_mapping, ReconEdge, ReconstructedTopology, VertexRef};
use anet_graph::generators::{chain_gn, complete_dag, nested_cycles, random_cyclic, random_dag};
use anet_graph::{Network, NodeId};
use anet_num::{Interval, IntervalUnion};
use anet_sim::scheduler::{FifoScheduler, RandomScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Theorem 5.1's condition by definition: every non-root label is non-empty
/// and every pair of them is disjoint.
fn brute_labels_unique(network: &Network, labels: &[IntervalUnion]) -> bool {
    let participants: Vec<NodeId> = network
        .graph()
        .nodes()
        .filter(|&n| n != network.root())
        .collect();
    for (i, &a) in participants.iter().enumerate() {
        if labels[a.index()].is_empty() {
            return false;
        }
        for &b in &participants[i + 1..] {
            if labels[a.index()].intersects(&labels[b.index()]) {
                return false;
            }
        }
    }
    true
}

/// Exact reconstruction by definition: equal counts, and every original
/// vertex found (first match) with its degrees and every out-edge present at
/// its port.
fn brute_matches_exactly(
    topology: &ReconstructedTopology,
    network: &Network,
    labels: &[IntervalUnion],
) -> bool {
    if topology.vertices.len() != network.node_count()
        || topology.edges.len() != network.edge_count()
    {
        return false;
    }
    let refer = |node: NodeId| -> Option<VertexRef> {
        if node == network.root() {
            Some(VertexRef::Root)
        } else if node == network.terminal() {
            Some(VertexRef::Sink)
        } else {
            labels[node.index()]
                .first_interval()
                .map(VertexRef::Labeled)
        }
    };
    let g = network.graph();
    for node in g.nodes() {
        let Some(node_ref) = refer(node) else {
            return false;
        };
        let Some(found) = topology.vertices.iter().find(|v| v.reference == node_ref) else {
            return false;
        };
        if found.out_degree != g.out_degree(node) || found.in_degree != g.in_degree(node) {
            return false;
        }
        for (port, &edge) in g.out_edges(node).iter().enumerate() {
            let Some(dst_ref) = refer(g.edge_dst(edge)) else {
                return false;
            };
            if !topology
                .edges
                .iter()
                .any(|e| e.src == node_ref && e.src_port == port && e.dst == dst_ref)
            {
                return false;
            }
        }
    }
    true
}

fn networks() -> Vec<Network> {
    let mut nets = vec![
        chain_gn(6).unwrap(),
        nested_cycles(3, 4).unwrap(),
        complete_dag(6).unwrap(),
    ];
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        nets.push(random_cyclic(&mut rng, 12, 0.2, 0.2).unwrap());
        let mut rng = StdRng::seed_from_u64(100 + seed);
        nets.push(random_dag(&mut rng, 10, 0.3).unwrap());
    }
    nets
}

fn half_open(lo: u64, hi: u64, exp: u32) -> IntervalUnion {
    IntervalUnion::from(Interval::from_dyadic_parts(lo, hi, exp).unwrap())
}

/// Every label assignment the uniqueness check is asked about: the real one
/// and its damaged variants.
fn label_variants(network: &Network, real: &[IntervalUnion]) -> Vec<(String, Vec<IntervalUnion>)> {
    let n = real.len();
    let root = network.root().index();
    let terminal = network.terminal().index();
    let others: Vec<usize> = (0..n).filter(|&i| i != root).collect();
    let mut out = vec![("real".to_owned(), real.to_vec())];
    out.push(("all empty".to_owned(), vec![IntervalUnion::empty(); n]));
    for &i in &others {
        let mut emptied = real.to_vec();
        emptied[i] = IntervalUnion::empty();
        out.push((format!("{i} emptied"), emptied));
    }
    for (k, &i) in others.iter().enumerate() {
        let j = others[(k + 1) % others.len()];
        if i == j {
            continue;
        }
        // i also claims all of j's label, or just the upper half of its first
        // interval.
        let mut shared = real.to_vec();
        shared[i] = real[i].union(&real[j]);
        out.push((format!("{i} absorbs {j}"), shared));
        if let Some(first) = real[j].first_interval() {
            let mut overlapping = real.to_vec();
            let piece = IntervalUnion::from(first.split(2).unwrap()[1].clone());
            overlapping[i] = real[i].union(&piece);
            out.push((format!("{i} overlaps {j}"), overlapping));
        }
    }
    // Scrambled internal labels next to the real terminal label.
    for seed in 0..3u64 {
        let mut scrambled = real.to_vec();
        let internal: Vec<usize> = others.iter().copied().filter(|&i| i != terminal).collect();
        for (&i, label) in internal.iter().zip(scrambled_labels(internal.len(), seed)) {
            scrambled[i] = label;
        }
        out.push((format!("scrambled {seed}"), scrambled.clone()));
        // Scrambled everywhere: pairwise disjoint by construction.
        let all = scrambled_labels(others.len(), seed);
        for (&i, label) in others.iter().zip(all) {
            scrambled[i] = label;
        }
        out.push((format!("all scrambled {seed}"), scrambled));
    }
    // Disjoint labels `[2k, 2k + 1) / 1024`; the first participant then also
    // fills the gap `[3, 4) / 1024`, touching two others (still unique), or
    // `[3, 5) / 1024`, overlapping one.
    let mut touching = vec![IntervalUnion::empty(); n];
    for (k, &i) in others.iter().enumerate() {
        touching[i] = half_open(2 * k as u64, 2 * k as u64 + 1, 10);
    }
    out.push(("spaced".to_owned(), touching.clone()));
    let first = others[0];
    let mut overlapping = touching.clone();
    touching[first] = touching[first].union(&half_open(3, 4, 10));
    out.push(("touching multi-interval".to_owned(), touching));
    overlapping[first] = overlapping[first].union(&half_open(3, 5, 10));
    out.push(("overlapping multi-interval".to_owned(), overlapping));
    out
}

#[test]
fn labels_unique_matches_the_pairwise_definition() {
    let mut cases = 0;
    let mut verdicts = [0usize; 2];
    for network in networks() {
        let report = run_labeling(&network, &mut FifoScheduler::new()).unwrap();
        for (name, labels) in label_variants(&network, &report.labels) {
            let fast = labels_unique(&network, &labels);
            assert_eq!(fast, brute_labels_unique(&network, &labels), "{name}");
            verdicts[usize::from(fast)] += 1;
            cases += 1;
        }
    }
    assert!(cases > 200);
    assert!(verdicts[0] > 20 && verdicts[1] > 20, "{verdicts:?}");
}

/// Damaged copies of a real reconstruction.
fn topology_variants(topology: &ReconstructedTopology) -> Vec<(String, ReconstructedTopology)> {
    let mut out = vec![("real".to_owned(), topology.clone())];
    for k in 0..topology.edges.len() {
        let mut missing = topology.clone();
        let removed = missing.edges.remove(k);
        out.push((format!("edge {k} missing"), missing.clone()));
        // The same edge count, with the edge misported or misrouted.
        let mut misported = missing.clone();
        misported.edges.push(ReconEdge {
            src_port: removed.src_port + 1,
            ..removed.clone()
        });
        out.push((format!("edge {k} misported"), misported));
        let mut misrouted = missing;
        misrouted.edges.push(ReconEdge {
            dst: VertexRef::Root,
            ..removed.clone()
        });
        out.push((format!("edge {k} misrouted"), misrouted));
        let mut duplicated = topology.clone();
        duplicated.edges[k] = topology.edges[(k + 1) % topology.edges.len()].clone();
        out.push((format!("edge {k} duplicated"), duplicated));
    }
    for k in 0..topology.vertices.len() {
        let mut degree = topology.clone();
        degree.vertices[k].out_degree += 1;
        out.push((format!("vertex {k} degree"), degree));
        // A repeated reference: the first vertex answers for both.
        let mut repeated = topology.clone();
        let next = (k + 1) % topology.vertices.len();
        repeated.vertices[next].reference = topology.vertices[k].reference.clone();
        out.push((format!("vertex {next} repeats {k}"), repeated.clone()));
        repeated.vertices.swap(k, next);
        out.push((format!("vertex {next} repeats {k}, swapped"), repeated));
        let mut removed = topology.clone();
        removed.vertices.remove(k);
        out.push((format!("vertex {k} missing"), removed));
    }
    out
}

/// Two internal vertices with equal degrees share one label, and the
/// reconstruction names both by it, listing the second entry with a wrong
/// out-degree: a lookup answering with the *first* vertex of a repeated
/// reference (as `find` does) still accepts, one answering with the last
/// rejects.
fn shared_label_case(
    network: &Network,
    topology: &ReconstructedTopology,
    labels: &[IntervalUnion],
) -> Option<(ReconstructedTopology, Vec<IntervalUnion>)> {
    let g = network.graph();
    let internal: Vec<NodeId> = g
        .nodes()
        .filter(|&n| n != network.root() && n != network.terminal())
        .collect();
    for (k, &u) in internal.iter().enumerate() {
        for &v in &internal[k + 1..] {
            if (g.in_degree(u), g.out_degree(u)) != (g.in_degree(v), g.out_degree(v)) {
                continue;
            }
            let lu = VertexRef::Labeled(labels[u.index()].first_interval()?);
            let lv = VertexRef::Labeled(labels[v.index()].first_interval()?);
            let mut shared = labels.to_vec();
            shared[v.index()] = labels[u.index()].clone();
            let mut topo = topology.clone();
            for e in &mut topo.edges {
                for r in [&mut e.src, &mut e.dst] {
                    if *r == lv {
                        *r = lu.clone();
                    }
                }
            }
            let at_u = topo.vertices.iter().position(|x| x.reference == lu)?;
            let at_v = topo.vertices.iter().position(|x| x.reference == lv)?;
            topo.vertices[at_v].reference = lu;
            topo.vertices[at_v].out_degree += 1;
            if at_v < at_u {
                topo.vertices.swap(at_u, at_v);
            }
            return Some((topo, shared));
        }
    }
    None
}

#[test]
fn matches_exactly_matches_the_scan_definition() {
    let mut cases = 0;
    let mut verdicts = [0usize; 2];
    let mut shared_cases = 0;
    for network in networks() {
        let seed = network.edge_count() as u64;
        let report = run_mapping(&network, &mut RandomScheduler::seeded(seed)).unwrap();
        let topology = report.topology.clone().expect("mapping terminates");
        if let Some((topo, labels)) = shared_label_case(&network, &topology, &report.labels) {
            assert!(brute_matches_exactly(&topo, &network, &labels));
            assert!(
                topo.matches_exactly(&network, &labels),
                "repeated reference"
            );
            shared_cases += 1;
        }
        for (name, topo) in topology_variants(&topology) {
            for (label_name, labels) in label_variants(&network, &report.labels) {
                let fast = topo.matches_exactly(&network, &labels);
                let brute = brute_matches_exactly(&topo, &network, &labels);
                assert_eq!(fast, brute, "{name} with {label_name} labels");
                verdicts[usize::from(fast)] += 1;
                cases += 1;
            }
        }
    }
    assert!(cases > 1000);
    assert!(verdicts[0] > 100 && verdicts[1] > 10, "{verdicts:?}");
    assert!(shared_cases > 3, "{shared_cases}");
}
