//! Unique label assignment on general graphs (Section 5, Theorem 5.1).
//!
//! A small variation of the general-graph broadcast: when a vertex of out-degree
//! `d` performs its one-time canonical partition, it splits the arriving interval
//! mass into `d + 1` parts and **keeps part 0 for itself** as its label; the kept
//! part is immediately added to β so the terminal still sees the whole of `[0, 1)`.
//! Labels of different vertices are disjoint sub-intervals of `[0, 1)`, hence
//! unique, and each label is a single interval of `O(|V| log d_out)` bits —
//! which Theorem 5.2 shows to be optimal.
//!
//! Vertices with out-degree zero cannot forward anything, so they simply absorb all
//! interval mass they receive as their label (a union rather than a single
//! interval); for the terminal this doubles as the stopping-predicate input. The
//! paper leaves this corner implicit; a sink has no out-port to pass mass on, so
//! the mass it received is held by no other vertex and keeping all of it leaves
//! labels disjoint.
//!
//! The α/β routing rule itself, its echo path and its re-flood frontier
//! live in [`crate::mass`]; labeling's claim is part 0 of the first α,
//! folded into β.
//!
//! Message plumbing rides the copy-on-write [`IntervalUnion`]: the α/β
//! components cloned into each out-port's message (and into trace events) are
//! O(1) shared handles of one endpoint buffer, not per-port copies, while
//! [`Wire::wire_bits`] still charges the encoded intervals on every edge. The
//! pre-CoW deep-clone implementation is retained in [`mod@reference`] and pinned
//! bit-identical by the `labeling_differential` suite.

use anet_graph::{Network, NodeId};
use anet_num::bits;
use anet_num::IntervalUnion;
use anet_sim::engine::{run, ExecutionConfig, RunResult};
use anet_sim::metrics::RunMetrics;
use anet_sim::scheduler::Scheduler;
use anet_sim::{AnonymousProtocol, NodeContext, OutPort, RefloodProtocol, Wire};

use crate::mass::{route, Claim, MassState};
use crate::CoreError;

pub mod reference;

/// A message of the labelling protocol: α and β increments (no payload — labelling
/// is a pure control protocol in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelMessage {
    /// Newly forwarded interval mass.
    pub alpha: IntervalUnion,
    /// Newly discovered cycle evidence (including freshly claimed labels).
    pub beta: IntervalUnion,
}

impl Wire for LabelMessage {
    fn wire_bits(&self) -> u64 {
        self.alpha.wire_bits() + self.beta.wire_bits()
    }
}

/// Per-vertex state of the labelling protocol:
/// `π = (α_0, (α_j)_{j=1..d}, β)` with `α_0` the vertex's label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelingState {
    /// `α_0`: the label this vertex has claimed (empty until the canonical
    /// partition happened; a single interval afterwards for vertices with positive
    /// out-degree).
    pub label: IntervalUnion,
    /// `α_1 … α_d`, the mass routed to each out-port, and `β`, cycle evidence
    /// plus claimed labels, flooded towards the terminal.
    pub mass: MassState,
    /// Running `label ∪ β` of an *absorbing* (out-degree-zero) vertex — the
    /// terminal's stopping-predicate input, maintained incrementally as each
    /// α/β delta arrives. Routing vertices leave it empty. Keeping it here
    /// makes [`Labeling::should_terminate`] O(1): `label` alone fragments
    /// into one interval per absorbed leaf mass (the claimed labels in
    /// between are carried by `β`), so re-merging the two unions after every
    /// terminal delivery would cost O(n) a call — the dominant cost of large
    /// runs before this field existed — while their running union coalesces.
    pub absorbed: IntervalUnion,
    /// Whether any message has been received.
    pub received: bool,
}

/// The unique-label-assignment protocol.
#[derive(Debug, Clone, Default)]
pub struct Labeling;

impl Labeling {
    /// Creates the protocol.
    pub fn new() -> Self {
        Labeling
    }
}

impl AnonymousProtocol for Labeling {
    type State = LabelingState;
    type Message = LabelMessage;

    fn name(&self) -> &'static str {
        "label-assignment"
    }

    fn initial_state(&self, ctx: &NodeContext) -> LabelingState {
        LabelingState {
            label: IntervalUnion::empty(),
            mass: MassState::new(ctx.out_degree),
            absorbed: IntervalUnion::empty(),
            received: false,
        }
    }

    fn root_messages(&self, _root_out_degree: usize) -> Vec<(usize, LabelMessage)> {
        vec![(
            0,
            LabelMessage {
                alpha: IntervalUnion::unit(),
                beta: IntervalUnion::empty(),
            },
        )]
    }

    fn on_receive_into(
        &self,
        ctx: &NodeContext,
        state: &mut LabelingState,
        _in_port: usize,
        message: &LabelMessage,
        out: &mut Vec<(OutPort, LabelMessage)>,
    ) {
        state.received = true;
        if ctx.out_degree == 0 {
            // Absorb everything: α mass becomes (part of) the label, β is recorded,
            // and the running `label ∪ β` accumulator absorbs both deltas.
            state.label.union_in_place(&message.alpha);
            state.mass.beta.union_in_place(&message.beta);
            state.absorbed.union_in_place(&message.alpha);
            state.absorbed.union_in_place(&message.beta);
            return;
        }
        route(
            &mut state.mass,
            Claim::IntoBeta(&mut state.label),
            &message.alpha,
            &message.beta,
        )
        .emit(false, out, |_, alpha, beta| LabelMessage { alpha, beta });
    }

    fn should_terminate(&self, terminal_state: &LabelingState) -> bool {
        // `absorbed` is the incrementally maintained `label ∪ β` of the
        // terminal (out-degree zero by `Network` validation), so this is
        // `label.union(&beta).is_unit()` without the O(n) merge.
        terminal_state.absorbed.is_unit()
    }
}

impl RefloodProtocol for Labeling {
    /// Re-sends the routing frontier ([`MassState`]'s: `alpha[j]` and `beta`
    /// on every out-port `j`).
    ///
    /// Re-delivery is idempotent in the sense required by
    /// [`anet_sim::run_recovering`]: a receiver intersects incoming `α` with
    /// what it already holds, so previously seen intervals fold into `β`
    /// (shrinking nothing) and only genuinely fresh intervals are routed on.
    fn reflood(&self, _ctx: &NodeContext, state: &LabelingState) -> Vec<(usize, LabelMessage)> {
        state
            .mass
            .frontier(false, |_, alpha, beta| LabelMessage { alpha, beta })
    }
}

/// The distilled outcome of a labelling run.
#[derive(Debug, Clone)]
pub struct LabelingReport {
    /// Whether the terminal declared termination.
    pub terminated: bool,
    /// Whether the run quiesced without terminating (expected when some vertex is
    /// not connected to the terminal).
    pub quiescent: bool,
    /// The label of every vertex, indexed by node id (the root never participates
    /// and keeps an empty label).
    pub labels: Vec<IntervalUnion>,
    /// Whether all internal vertices and the terminal ended up with non-empty,
    /// pairwise-disjoint labels.
    pub labels_unique: bool,
    /// The largest label size in bits (positional encoding of both endpoints of
    /// each interval) over every vertex but the root, sinks included.
    pub max_label_bits: u64,
    /// The largest label size in bits over the routing vertices (not the
    /// root, out-degree > 0): the single-interval labels whose length
    /// Theorem 5.1 bounds by `O(|V| log d_out)`.
    pub max_routing_label_bits: u64,
    /// The largest label size in bits over the sinks (out-degree 0). A sink
    /// keeps every leaf mass it absorbed, so its label is a union that
    /// Theorem 5.1 does not bound. When every vertex reaches the terminal (in
    /// particular whenever the run terminated), the terminal is the only
    /// sink and this is its label's size.
    pub max_sink_label_bits: u64,
    /// Communication metrics of the run.
    pub metrics: RunMetrics,
}

impl LabelingReport {
    /// The label of a particular vertex.
    pub fn label_of(&self, node: NodeId) -> &IntervalUnion {
        &self.labels[node.index()]
    }
}

/// Size in bits of a label under the positional endpoint encoding used by
/// Theorem 4.3 / Theorem 5.1.
pub fn label_bits(label: &IntervalUnion) -> u64 {
    label
        .iter()
        .map(|iv| {
            bits::length_prefixed_bits(iv.lo().positional_bits())
                + bits::length_prefixed_bits(iv.hi().positional_bits())
        })
        .sum()
}

/// Runs the labelling protocol and reports the assigned labels.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExhausted`] if the engine's delivery budget ran out.
///
/// # Example
///
/// ```
/// use anet_core::labeling::run_labeling;
/// use anet_graph::generators::cycle_with_tail;
/// use anet_sim::scheduler::FifoScheduler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let network = cycle_with_tail(5)?;
/// let report = run_labeling(&network, &mut FifoScheduler::new())?;
/// assert!(report.terminated);
/// assert!(report.labels_unique);
/// # Ok(())
/// # }
/// ```
pub fn run_labeling(
    network: &Network,
    scheduler: &mut (impl Scheduler + ?Sized),
) -> Result<LabelingReport, CoreError> {
    let protocol = Labeling::new();
    let result = run(network, &protocol, scheduler, ExecutionConfig::default());
    report_from_run(network, result)
}

/// Distils a finished labelling run into a [`LabelingReport`]. Shared by the
/// copy-on-write and [`reference`] run functions.
///
/// The label vector is extracted by *moving* each label handle out of its
/// final state — the run result is consumed, so no label is cloned (not even
/// a refcount bump), let alone deep-copied as the pre-CoW extraction did.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExhausted`] if the delivery budget ran out.
fn report_from_run<M>(
    network: &Network,
    result: RunResult<LabelingState, M>,
) -> Result<LabelingReport, CoreError> {
    if result.outcome == anet_sim::Outcome::BudgetExhausted {
        return Err(CoreError::BudgetExhausted);
    }
    let outcome = result.outcome;
    let metrics = result.metrics;
    let labels: Vec<IntervalUnion> = result.states.into_iter().map(|st| st.label).collect();
    let unique = labels_unique(network, &labels);
    let (mut max_routing_label_bits, mut max_sink_label_bits) = (0, 0);
    for node in network.graph().nodes().filter(|&n| n != network.root()) {
        let bits = label_bits(&labels[node.index()]);
        if network.graph().out_degree(node) > 0 {
            max_routing_label_bits = max_routing_label_bits.max(bits);
        } else {
            max_sink_label_bits = max_sink_label_bits.max(bits);
        }
    }
    Ok(LabelingReport {
        terminated: outcome == anet_sim::Outcome::Terminated,
        quiescent: outcome == anet_sim::Outcome::Quiescent,
        labels,
        labels_unique: unique,
        max_label_bits: max_routing_label_bits.max(max_sink_label_bits),
        max_routing_label_bits,
        max_sink_label_bits,
        metrics,
    })
}

/// Theorem 5.1's correctness condition on a finished assignment: every vertex
/// except the root holds a non-empty label, and the labels are pairwise
/// disjoint (hence unique). `labels` is indexed by node id.
///
/// This is the labelling protocol's success predicate — the sweep's `ok`
/// column and [`LabelingReport::labels_unique`] are both this function.
///
/// One sort-and-sweep over every participant's intervals, O(k log k) for `k`
/// intervals in all: a participant's own intervals never overlap (canonical
/// form), so in order of lower endpoint any interval starting below the
/// highest upper endpoint seen so far overlaps another participant's label.
pub fn labels_unique(network: &Network, labels: &[IntervalUnion]) -> bool {
    let mut intervals = Vec::new();
    for node in network.graph().nodes() {
        if node == network.root() {
            continue;
        }
        let label = &labels[node.index()];
        if label.is_empty() {
            return false;
        }
        let mut ends = label.endpoints();
        while let (Some(lo), Some(hi)) = (ends.next(), ends.next()) {
            intervals.push((lo, hi));
        }
    }
    intervals.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut reach = None;
    for (lo, hi) in intervals {
        if reach.as_ref().is_some_and(|reach| &lo < reach) {
            return false;
        }
        reach = reach.max(Some(hi));
    }
    true
}

/// Applies a [`StateCorruption`](crate::corruption::StateCorruption) to
/// freshly initialised labelling states (the [`anet_sim::run_corrupted`]
/// hook).
///
/// * `ScrambledLabels` — internal vertices wake up `partitioned` with garbage
///   (pairwise distinct) labels. The real `[0, 1)` still flows, so the run
///   typically terminates. Each squatter subtracts its own label from mass
///   routed *through* it (the re-delivery idempotence rule), so on a pure
///   path the assignment genuinely recovers uniqueness; on any topology with
///   bypass edges the squatted mass reaches the terminal around the squatter
///   and uniqueness stays broken.
/// * `LostPartition` — internal vertices keep the `partitioned` flag but
///   lost the label it guarded; the one-time split never re-runs and those
///   vertices finish unlabelled.
/// * `StaleTerminal` — the terminal's β starts pre-filled with `[0, 1/2)`,
///   so its coverage reaches `[0, 1)` (and the run accepts) while half the
///   commodity — and the labels carved from it — is still in flight.
pub fn corrupt_labeling_states(
    corruption: &crate::corruption::StateCorruption,
    network: &Network,
    states: &mut [LabelingState],
) {
    use crate::corruption::StateCorruption;
    match corruption {
        StateCorruption::ScrambledLabels { seed } => {
            let labels = crate::corruption::scrambled_labels(network.internal_count(), *seed);
            for (node, label) in network.internal_nodes().zip(labels) {
                let state = &mut states[node.index()];
                state.label = label;
                state.mass.partitioned = true;
                state.received = true;
            }
        }
        StateCorruption::LostPartition => {
            for node in network.internal_nodes() {
                let state = &mut states[node.index()];
                state.mass.partitioned = true;
                state.received = true;
            }
        }
        StateCorruption::StaleTerminal => {
            let terminal = network.terminal().index();
            states[terminal]
                .mass
                .beta
                .union_in_place(&crate::corruption::stale_half());
            states[terminal]
                .absorbed
                .union_in_place(&crate::corruption::stale_half());
        }
    }
}

/// The labelling protocol's recovery predicate: the final states carry a
/// correct unique assignment ([`labels_unique`]). Corrupted-start runs ask it
/// of a protocol that began from damaged state.
pub fn labeling_recovered(network: &Network, states: &[LabelingState]) -> bool {
    let labels: Vec<IntervalUnion> = states.iter().map(|s| s.label.clone()).collect();
    labels_unique(network, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators::{
        chain_gn, complete_dag, cycle_with_tail, diamond_stack, full_grounded_tree, nested_cycles,
        pruned_tree, random_cyclic, random_dag, star_network, with_stranded_vertex,
    };
    use anet_num::Interval;
    use anet_sim::runner::run_under_battery;
    use anet_sim::scheduler::FifoScheduler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fifo() -> FifoScheduler {
        FifoScheduler::new()
    }

    #[test]
    fn labels_are_assigned_on_every_family() {
        let mut rng = StdRng::seed_from_u64(404);
        let nets = vec![
            chain_gn(6).unwrap(),
            star_network(5).unwrap(),
            full_grounded_tree(3, 2).unwrap(),
            pruned_tree(6, 3).unwrap().0,
            diamond_stack(4).unwrap(),
            complete_dag(6).unwrap(),
            random_dag(&mut rng, 20, 0.2).unwrap(),
            cycle_with_tail(7).unwrap(),
            nested_cycles(2, 4).unwrap(),
            random_cyclic(&mut rng, 18, 0.15, 0.2).unwrap(),
        ];
        for net in &nets {
            let report = run_labeling(net, &mut fifo()).unwrap();
            assert!(report.terminated, "nodes = {}", net.node_count());
            assert!(report.labels_unique, "nodes = {}", net.node_count());
            assert!(report.max_label_bits > 0);
        }
    }

    #[test]
    fn internal_labels_are_single_intervals() {
        let net = cycle_with_tail(6).unwrap();
        let report = run_labeling(&net, &mut fifo()).unwrap();
        for node in net.internal_nodes() {
            let label = report.label_of(node);
            assert_eq!(label.interval_count(), 1, "label of {node:?}");
        }
    }

    #[test]
    fn labels_cover_a_subset_of_the_unit_interval_disjointly() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = random_cyclic(&mut rng, 25, 0.15, 0.25).unwrap();
        let report = run_labeling(&net, &mut fifo()).unwrap();
        assert!(report.terminated);
        let mut total = IntervalUnion::empty();
        for node in net.graph().nodes().filter(|&n| n != net.root()) {
            let label = report.label_of(node);
            assert!(!total.intersects(label));
            total.union_in_place(label);
        }
        assert!(total.is_subset_of(&IntervalUnion::unit()));
    }

    #[test]
    fn refuses_to_terminate_with_stranded_vertex() {
        let base = cycle_with_tail(5).unwrap();
        let net = with_stranded_vertex(&base).unwrap();
        let report = run_labeling(&net, &mut fifo()).unwrap();
        assert!(!report.terminated);
        assert!(report.quiescent);
    }

    #[test]
    fn unique_labels_under_every_scheduler() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = random_cyclic(&mut rng, 15, 0.2, 0.3).unwrap();
        let protocol = Labeling::new();
        for named in run_under_battery(&net, &protocol, ExecutionConfig::default(), 8, 5) {
            assert!(
                named.result.outcome.terminated(),
                "sched {}",
                named.scheduler
            );
            let labels: Vec<&IntervalUnion> = net
                .graph()
                .nodes()
                .filter(|&n| n != net.root())
                .map(|n| &named.result.states[n.index()].label)
                .collect();
            for (i, a) in labels.iter().enumerate() {
                assert!(!a.is_empty(), "sched {}", named.scheduler);
                for b in &labels[i + 1..] {
                    assert!(!a.intersects(b), "sched {}", named.scheduler);
                }
            }
        }
    }

    #[test]
    fn label_bits_grow_with_depth_in_pruned_trees() {
        // Theorem 5.2's shape: the deep path vertex's label needs Ω(h log d) bits.
        let shallow = {
            let (net, path) = pruned_tree(2, 4).unwrap();
            let report = run_labeling(&net, &mut fifo()).unwrap();
            label_bits(report.label_of(*path.last().unwrap()))
        };
        let deep = {
            let (net, path) = pruned_tree(20, 4).unwrap();
            let report = run_labeling(&net, &mut fifo()).unwrap();
            label_bits(report.label_of(*path.last().unwrap()))
        };
        assert!(deep > shallow + 20, "deep {deep} vs shallow {shallow}");
    }

    #[test]
    fn pruned_tree_label_matches_full_tree_label() {
        // The heart of the Theorem 5.2 pruning argument: the deep vertex receives
        // exactly the same label in the pruned graph as in the full tree, because
        // the protocol execution along the path is identical.
        let height = 3;
        let arity = 3;
        let full = full_grounded_tree(height, arity).unwrap();
        let (pruned, path) = pruned_tree(height, arity).unwrap();
        let full_report = run_labeling(&full, &mut fifo()).unwrap();
        let pruned_report = run_labeling(&pruned, &mut fifo()).unwrap();
        // Identify the leftmost path in the full tree by following out-port 0.
        let g = full.graph();
        let mut full_path = vec![g.edge_dst(g.out_edges(full.root())[0])];
        for _ in 0..height {
            let last = *full_path.last().unwrap();
            full_path.push(g.edge_dst(g.out_edges(last)[0]));
        }
        for (full_node, pruned_node) in full_path.iter().zip(path.iter()) {
            assert_eq!(
                full_report.label_of(*full_node),
                pruned_report.label_of(*pruned_node),
                "labels diverge along the replayed path"
            );
        }
    }

    fn half(k: u64) -> IntervalUnion {
        IntervalUnion::from(anet_num::Interval::from_dyadic_parts(k, k + 1, 1).unwrap())
    }

    impl LabelMessage {
        /// A message with no α: the β increment `beta` alone.
        fn echo(beta: IntervalUnion) -> Self {
            LabelMessage {
                alpha: IntervalUnion::empty(),
                beta,
            }
        }
    }

    /// The re-flood frontier sends nothing on a port whose α and β are both
    /// empty, and on every other port that port's α and the whole β.
    #[test]
    fn reflood_resends_each_ports_alpha_and_the_whole_beta() {
        let protocol = Labeling::new();
        let message = |alpha, beta| LabelMessage { alpha, beta };
        let ctx = NodeContext::new(1, 3);
        let mut state = protocol.initial_state(&ctx);
        state.label = half(1);
        assert!(protocol.reflood(&ctx, &state).is_empty());
        state.mass.alpha[1] = half(0);
        assert_eq!(
            protocol.reflood(&ctx, &state),
            vec![(1, message(half(0), IntervalUnion::empty()))]
        );
        state.mass.beta = half(1);
        assert_eq!(
            protocol.reflood(&ctx, &state),
            vec![
                (0, message(IntervalUnion::empty(), half(1))),
                (1, message(half(0), half(1))),
                (2, message(IntervalUnion::empty(), half(1))),
            ]
        );
    }

    /// An α-empty delivery whose β the vertex already holds emits nothing and
    /// leaves the state as it was; one with new β floods just the new part.
    #[test]
    fn beta_echo_of_held_evidence_is_silent() {
        let protocol = Labeling::new();
        let ctx = NodeContext::new(1, 2);
        let mut state = protocol.initial_state(&ctx);
        let mut out = Vec::new();
        let first = LabelMessage {
            alpha: half(0),
            beta: half(1),
        };
        protocol.on_receive_into(&ctx, &mut state, 0, &first, &mut out);
        assert_eq!(out.len(), 2);
        assert!(state.label.is_subset_of(&state.mass.beta));

        for beta in [
            state.mass.beta.clone(),
            state.mass.beta.deep_clone(),
            half(1),
            state.label.clone(),
        ] {
            let before = state.clone();
            out.clear();
            let echo = LabelMessage {
                alpha: IntervalUnion::empty(),
                beta,
            };
            protocol.on_receive_into(&ctx, &mut state, 0, &echo, &mut out);
            assert!(out.is_empty(), "an echo of held β was forwarded");
            assert_eq!(state, before);
        }

        // A β the vertex holds none of is flooded, once for every out-port,
        // as the sender's buffer.
        let routed = state.mass.alpha[0].clone();
        assert!(!routed.intersects(&state.mass.beta));
        out.clear();
        let echo = LabelMessage {
            alpha: IntervalUnion::empty(),
            beta: routed.clone(),
        };
        protocol.on_receive_into(&ctx, &mut state, 0, &echo, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, OutPort::All);
        assert!(out[0].1.beta.shares_storage_with(&routed));
        assert!(routed.is_subset_of(&state.mass.beta));

        // A β that reaches past what the vertex holds floods the difference.
        let held = state.mass.beta.clone();
        let wider = IntervalUnion::unit();
        out.clear();
        let echo = LabelMessage {
            alpha: IntervalUnion::empty(),
            beta: wider.clone(),
        };
        protocol.on_receive_into(&ctx, &mut state, 0, &echo, &mut out);
        let news = wider.difference(&held);
        assert!(!news.is_empty());
        assert_eq!(out, vec![(OutPort::All, LabelMessage::echo(news))]);
        assert!(state.mass.beta.is_unit());
    }

    #[test]
    fn report_splits_routing_labels_from_sink_labels() {
        let mut rng = StdRng::seed_from_u64(17);
        let net = random_cyclic(&mut rng, 20, 0.15, 0.2).unwrap();
        let report = run_labeling(&net, &mut fifo()).unwrap();
        assert!(report.terminated && report.labels_unique);
        let terminal = label_bits(report.label_of(net.terminal()));
        let mut routing = 0;
        for node in net.graph().nodes().filter(|&n| n != net.root()) {
            if net.graph().out_degree(node) > 0 {
                assert_eq!(report.label_of(node).interval_count(), 1);
                routing = routing.max(label_bits(report.label_of(node)));
            } else {
                assert_eq!(node, net.terminal());
            }
        }
        assert_eq!(report.max_routing_label_bits, routing);
        assert_eq!(report.max_sink_label_bits, terminal);
        assert_eq!(report.max_label_bits, routing.max(terminal));
        // The terminal's label is the union of every absorbed leaf mass.
        assert!(report.label_of(net.terminal()).interval_count() > 1);
        assert!(terminal > routing);
    }

    #[test]
    fn label_bits_charge_both_endpoints_of_every_interval() {
        // Each endpoint is its positional expansion, length-prefixed: e bits
        // cost gamma(e) + e, where gamma(0) = 1, gamma(1) = gamma(2) = 3 and
        // gamma(3) = 5. The endpoints 0, 1, 1/2, 1/4 and 7/8 expand to 0, 1,
        // 1, 2 and 3 bits.
        let interval = |lo, hi, exp| Interval::from_dyadic_parts(lo, hi, exp).unwrap();
        // [0, 1): 1 + (3 + 1).
        assert_eq!(label_bits(&IntervalUnion::unit()), 5);
        // [1/4, 7/8): (3 + 2) + (5 + 3).
        assert_eq!(label_bits(&IntervalUnion::from(interval(2, 7, 3))), 13);
        // [0, 1/4) ∪ [1/2, 1): 1 + (3 + 2), then (3 + 1) + (3 + 1).
        let two = IntervalUnion::from_intervals([interval(0, 1, 2), interval(1, 2, 1)]);
        assert_eq!(two.interval_count(), 2);
        assert_eq!(label_bits(&two), 6 + 8);
    }

    #[test]
    fn label_bits_helper_counts_every_interval() {
        assert_eq!(label_bits(&IntervalUnion::empty()), 0);
        let unit = label_bits(&IntervalUnion::unit());
        assert!(unit > 0);
        let report = run_labeling(&chain_gn(4).unwrap(), &mut fifo()).unwrap();
        assert!(report.max_label_bits >= unit / 2);
    }
}
