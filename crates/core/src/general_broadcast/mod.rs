//! Broadcasting over general directed graphs (Section 4, Theorems 4.2 and 4.3).
//!
//! The commodity is no longer a scalar but an element of `U[0, 1)`: a finite union
//! of disjoint intervals. The root injects `[0, 1)`; each vertex, on its first
//! receipt of interval mass, performs the *canonical partition* of that mass among
//! its out-edges and from then on routes newly arriving mass to its last out-edge.
//! Mass that a vertex has *already seen* is evidence of a cycle and is moved to the
//! β component, which is flooded onwards; the terminal accepts once the union of
//! everything it has received equals `[0, 1)`.
//!
//! ## Faithfulness notes
//!
//! Two corners of the paper's description are tightened here (both are required by
//! the paper's own correctness proof, as each item states):
//!
//! 1. The canonical partition is triggered on the first message with **non-empty
//!    α**, not merely the first message — a vertex may hear cycle evidence (β)
//!    before any interval mass, and partitioning the empty union would waste its
//!    single partitioning step. The regression test
//!    `beta_first_schedule_still_terminates` exercises exactly that order.
//! 2. The canonical partition used is the **non-starving** variant
//!    ([`canonical_partition_nonempty`]): when the arriving mass is a single
//!    interval, it is split into `d` non-empty pieces instead of `d − 1` pieces
//!    plus an empty remainder. The literal rule can leave an out-edge with no α
//!    forever, which would let the terminal accept while the subtree behind that
//!    edge never hears the broadcast — contradicting Theorem 4.2, whose proof
//!    assumes a value is α-carried on every edge out of a visited vertex.
//!
//! The α/β routing rule itself, its echo path and its re-flood frontier
//! live in [`crate::mass`]; general broadcast claims nothing and sends the
//! payload with every message. Only vertices of out-degree zero keep the
//! running coverage [`GeneralState::seen`], so an echo at a routing vertex
//! touches nothing else.
//!
//! Message plumbing rides the copy-on-write [`IntervalUnion`]: the α/β
//! components cloned into each out-port's message (and into trace events) are
//! O(1) shared handles of one endpoint buffer, not per-port copies, while
//! [`Wire::wire_bits`] still charges the encoded intervals on every edge. The
//! pre-CoW deep-clone implementation is retained in [`mod@reference`] and pinned
//! bit-identical by the `general_broadcast_differential` suite.
//!
//! [`canonical_partition_nonempty`]: anet_num::partition::canonical_partition_nonempty

use anet_graph::Network;
use anet_num::IntervalUnion;
use anet_sim::engine::{run, ExecutionConfig, RunResult};
use anet_sim::scheduler::Scheduler;
use anet_sim::{AnonymousProtocol, NodeContext, OutPort, RefloodProtocol, Wire};

use crate::mass::{route, Claim, MassState};
use crate::outcome::BroadcastReport;
use crate::{CoreError, Payload};

pub mod reference;

/// A message of the general-graph protocol: the α and β increments plus the
/// payload (the paper sends `m` with every message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralMessage {
    /// Newly forwarded interval mass.
    pub alpha: IntervalUnion,
    /// Newly discovered cycle evidence.
    pub beta: IntervalUnion,
    /// The broadcast payload `m`.
    pub payload: Payload,
}

impl Wire for GeneralMessage {
    fn wire_bits(&self) -> u64 {
        self.alpha.wire_bits() + self.beta.wire_bits() + self.payload.wire_bits()
    }
}

/// Per-vertex state of the general-graph protocol: `π = ((α_j)_{j=1..d}, β)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralState {
    /// The routed α components, β and the partition flag.
    pub mass: MassState,
    /// Whether the payload has been received.
    pub received: bool,
    /// Everything received so far (α and β alike), kept only at vertices with
    /// out-degree zero — in particular the terminal, whose stopping predicate
    /// is `seen == [0, 1)`. It stays empty at every vertex with an out-port:
    /// nothing reads it there, and keeping it would cost a merge per
    /// delivery.
    pub seen: IntervalUnion,
}

impl GeneralState {
    /// The terminal's coverage: everything it has received (α and β alike).
    /// Empty at a vertex with out-edges, which keeps no coverage (see
    /// [`GeneralState::seen`]).
    pub fn coverage(&self) -> &IntervalUnion {
        &self.seen
    }
}

/// The general-graph broadcast protocol.
#[derive(Debug, Clone)]
pub struct GeneralBroadcast {
    payload: Payload,
}

impl GeneralBroadcast {
    /// Creates the protocol for broadcasting `payload`.
    pub fn new(payload: Payload) -> Self {
        GeneralBroadcast { payload }
    }

    /// The payload being broadcast.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// A message carrying `alpha`, `beta` and the payload.
    fn message(&self, alpha: IntervalUnion, beta: IntervalUnion) -> GeneralMessage {
        GeneralMessage {
            alpha,
            beta,
            payload: self.payload.clone(),
        }
    }
}

impl AnonymousProtocol for GeneralBroadcast {
    type State = GeneralState;
    type Message = GeneralMessage;

    fn name(&self) -> &'static str {
        "general-broadcast"
    }

    fn initial_state(&self, ctx: &NodeContext) -> GeneralState {
        GeneralState {
            mass: MassState::new(ctx.out_degree),
            received: false,
            seen: IntervalUnion::empty(),
        }
    }

    fn root_messages(&self, _root_out_degree: usize) -> Vec<(usize, GeneralMessage)> {
        vec![(
            0,
            GeneralMessage {
                alpha: IntervalUnion::unit(),
                beta: IntervalUnion::empty(),
                payload: self.payload.clone(),
            },
        )]
    }

    fn on_receive_into(
        &self,
        ctx: &NodeContext,
        state: &mut GeneralState,
        _in_port: usize,
        message: &GeneralMessage,
        out: &mut Vec<(OutPort, GeneralMessage)>,
    ) {
        state.received = true;
        if ctx.out_degree == 0 {
            // Nowhere to forward; `seen` is the stopping-predicate input when this
            // vertex happens to be the terminal.
            state.seen.union_in_place(&message.alpha);
            state.seen.union_in_place(&message.beta);
            state.mass.beta.union_in_place(&message.beta);
            return;
        }
        route(
            &mut state.mass,
            Claim::Nothing,
            &message.alpha,
            &message.beta,
        )
        .emit(false, out, |_, alpha, beta| self.message(alpha, beta));
    }

    fn should_terminate(&self, terminal_state: &GeneralState) -> bool {
        terminal_state.seen.is_unit()
    }
}

impl RefloodProtocol for GeneralBroadcast {
    /// Re-sends the broadcast frontier ([`MassState`]'s: `alpha[j]` and `beta`
    /// on every out-port `j`) with a fresh copy of the payload (the protocol
    /// value owns it, so a neighbour whose only payload-carrying delivery was
    /// destroyed still receives the data on retry).
    fn reflood(&self, _ctx: &NodeContext, state: &GeneralState) -> Vec<(usize, GeneralMessage)> {
        state
            .mass
            .frontier(false, |_, alpha, beta| self.message(alpha, beta))
    }
}

/// Runs the general-graph broadcast and reports the outcome.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExhausted`] if the engine's delivery budget ran out.
///
/// # Example
///
/// ```
/// use anet_core::general_broadcast::run_general_broadcast;
/// use anet_core::Payload;
/// use anet_graph::generators::cycle_with_tail;
/// use anet_sim::scheduler::FifoScheduler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A directed cycle: scalar-commodity protocols would never terminate here,
/// // but the interval protocol detects the cycle through β-carrying.
/// let network = cycle_with_tail(6)?;
/// let report = run_general_broadcast(
///     &network,
///     Payload::from_bytes(b"loop"),
///     &mut FifoScheduler::new(),
/// )?;
/// assert!(report.terminated && report.all_received);
/// # Ok(())
/// # }
/// ```
pub fn run_general_broadcast(
    network: &Network,
    payload: Payload,
    scheduler: &mut (impl Scheduler + ?Sized),
) -> Result<BroadcastReport, CoreError> {
    let protocol = GeneralBroadcast::new(payload);
    let result = run(network, &protocol, scheduler, ExecutionConfig::default());
    report_from_run(network, result)
}

/// Distils a finished broadcast run into a [`BroadcastReport`].
///
/// # Errors
///
/// Returns [`CoreError::BudgetExhausted`] if the delivery budget ran out.
fn report_from_run<M>(
    network: &Network,
    result: RunResult<GeneralState, M>,
) -> Result<BroadcastReport, CoreError> {
    if result.outcome == anet_sim::Outcome::BudgetExhausted {
        return Err(CoreError::BudgetExhausted);
    }
    let received: Vec<bool> = network
        .graph()
        .nodes()
        .map(|n| n == network.root() || result.states[n.index()].received)
        .collect();
    Ok(BroadcastReport::from_run(
        result.outcome,
        result.deliveries_at_termination,
        result.metrics,
        &received,
    ))
}

/// Applies a [`StateCorruption`](crate::corruption::StateCorruption) to
/// freshly initialised broadcast states (the [`anet_sim::run_corrupted`]
/// hook).
///
/// * `ScrambledLabels` — internal vertices wake up `partitioned` with a
///   garbage routing entry on their last out-port: arriving mass that
///   overlaps the squatted slot is misread as cycle evidence and flooded as
///   β instead of routed as α. β still floods everywhere, so well-connected
///   graphs usually recover; sparse ones may accept with silent vertices.
/// * `LostPartition` — internal vertices keep the `partitioned` flag but
///   lost the α table behind it: the canonical split never re-runs and all
///   mass funnels down each vertex's last out-port.
/// * `StaleTerminal` — the terminal's `seen` starts pre-filled with
///   `[0, 1/2)`, so the stopping predicate can accept while half the
///   commodity is still in flight.
///
/// `received` (the payload flag) is deliberately left `false`: it is the
/// input to [`general_recovered`], and pre-setting it would make the
/// recovery question vacuous.
pub fn corrupt_general_states(
    corruption: &crate::corruption::StateCorruption,
    network: &Network,
    states: &mut [GeneralState],
) {
    use crate::corruption::StateCorruption;
    match corruption {
        StateCorruption::ScrambledLabels { seed } => {
            let garbage = crate::corruption::scrambled_labels(network.internal_count(), *seed);
            for (node, slot) in network.internal_nodes().zip(garbage) {
                let mass = &mut states[node.index()].mass;
                mass.partitioned = true;
                if let Some(last) = mass.alpha.last_mut() {
                    *last = slot;
                }
            }
        }
        StateCorruption::LostPartition => {
            for node in network.internal_nodes() {
                states[node.index()].mass.partitioned = true;
            }
        }
        StateCorruption::StaleTerminal => {
            let terminal = network.terminal().index();
            states[terminal]
                .seen
                .union_in_place(&crate::corruption::stale_half());
        }
    }
}

/// The broadcast's recovery predicate: every vertex except the root actually
/// received the payload. Corrupted-start runs ask it of a protocol that began
/// from damaged state.
pub fn general_recovered(network: &Network, states: &[GeneralState]) -> bool {
    network
        .graph()
        .nodes()
        .filter(|&n| n != network.root())
        .all(|n| states[n.index()].received)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators::{
        chain_gn, complete_dag, cycle_with_tail, diamond_stack, nested_cycles, random_cyclic,
        random_dag, with_stranded_vertex,
    };
    use anet_graph::{classify, DiGraph, Network};
    use anet_sim::runner::run_under_battery;
    use anet_sim::scheduler::{FifoScheduler, LifoScheduler, TerminalLastScheduler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fifo() -> FifoScheduler {
        FifoScheduler::new()
    }

    #[test]
    fn terminates_on_acyclic_families() {
        let mut rng = StdRng::seed_from_u64(31);
        let nets = vec![
            chain_gn(8).unwrap(),
            diamond_stack(5).unwrap(),
            random_dag(&mut rng, 25, 0.15).unwrap(),
            complete_dag(7).unwrap(),
        ];
        for net in &nets {
            let report =
                run_general_broadcast(net, Payload::from_bytes(b"g"), &mut fifo()).unwrap();
            assert!(report.terminated);
            assert!(report.all_received);
        }
    }

    #[test]
    fn terminates_on_cyclic_families() {
        let mut rng = StdRng::seed_from_u64(77);
        let nets = vec![
            cycle_with_tail(2).unwrap(),
            cycle_with_tail(9).unwrap(),
            nested_cycles(3, 4).unwrap(),
            random_cyclic(&mut rng, 20, 0.1, 0.15).unwrap(),
            random_cyclic(&mut rng, 35, 0.2, 0.3).unwrap(),
        ];
        for net in &nets {
            assert!(!classify::is_dag(net.graph()) || net.node_count() < 4);
            let report =
                run_general_broadcast(net, Payload::from_bytes(b"c"), &mut fifo()).unwrap();
            assert!(report.terminated, "nodes = {}", net.node_count());
            assert!(report.all_received, "nodes = {}", net.node_count());
        }
    }

    #[test]
    fn refuses_to_terminate_with_stranded_vertex() {
        for base in [cycle_with_tail(5).unwrap(), diamond_stack(3).unwrap()] {
            let net = with_stranded_vertex(&base).unwrap();
            let report = run_general_broadcast(&net, Payload::empty(), &mut fifo()).unwrap();
            assert!(!report.terminated);
            assert!(report.quiescent);
        }
    }

    #[test]
    fn correct_under_every_scheduler_on_cyclic_graphs() {
        let mut rng = StdRng::seed_from_u64(13);
        let net = random_cyclic(&mut rng, 18, 0.15, 0.25).unwrap();
        let protocol = GeneralBroadcast::new(Payload::from_bytes(b"s"));
        for named in run_under_battery(&net, &protocol, ExecutionConfig::default(), 5, 5) {
            assert!(
                named.result.outcome.terminated(),
                "sched {}",
                named.scheduler
            );
            for node in net.internal_nodes() {
                assert!(
                    named.result.states[node.index()].received,
                    "sched {} node {node:?}",
                    named.scheduler
                );
            }
        }
    }

    #[test]
    fn termination_only_after_every_vertex_received() {
        // The terminal-last adversary maximises progress elsewhere before the
        // terminal acts, and the LIFO adversary aggressively reorders; in all cases
        // acceptance implies full coverage of the internal vertices.
        let net = nested_cycles(2, 5).unwrap();
        for mode in 0..2 {
            let protocol = GeneralBroadcast::new(Payload::empty());
            let result = if mode == 0 {
                run(
                    &net,
                    &protocol,
                    &mut TerminalLastScheduler::new(),
                    ExecutionConfig::default(),
                )
            } else {
                run(
                    &net,
                    &protocol,
                    &mut LifoScheduler::new(),
                    ExecutionConfig::default(),
                )
            };
            assert!(result.outcome.terminated());
            for node in net.internal_nodes() {
                assert!(result.states[node.index()].received);
            }
        }
    }

    #[test]
    fn alpha_components_stay_pairwise_disjoint() {
        let net = nested_cycles(2, 4).unwrap();
        let protocol = GeneralBroadcast::new(Payload::empty());
        let result = run(&net, &protocol, &mut fifo(), ExecutionConfig::default());
        for node in net.graph().nodes() {
            let st = &result.states[node.index()];
            for i in 0..st.mass.alpha.len() {
                for j in i + 1..st.mass.alpha.len() {
                    assert!(
                        !st.mass.alpha[i].intersects(&st.mass.alpha[j]),
                        "alpha components of {node:?} overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn terminal_coverage_equals_unit_interval_exactly_at_termination() {
        let net = cycle_with_tail(7).unwrap();
        let protocol = GeneralBroadcast::new(Payload::empty());
        let result = run(&net, &protocol, &mut fifo(), ExecutionConfig::default());
        assert!(result.outcome.terminated());
        assert!(result.states[net.terminal().index()].coverage().is_unit());
    }

    #[test]
    fn beta_first_schedule_still_terminates() {
        // Build a graph where a vertex v can hear cycle evidence (β-only message)
        // before it ever receives interval mass: a 2-cycle {a, b} feeding v, with v
        // also fed directly from the cycle entry.
        //
        //   s -> a -> b -> a (cycle),  b -> v,  a -> v? no: keep it so that the
        //   β produced inside the cycle can reach v on one edge while the α mass
        //   reaches it on another, and adversarial scheduling delivers β first.
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let v = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a);
        g.add_edge(a, b);
        g.add_edge(b, a); // cycle a <-> b
        g.add_edge(b, v);
        g.add_edge(a, v);
        g.add_edge(v, t);
        let net = Network::new(g, s, t).unwrap();
        let protocol = GeneralBroadcast::new(Payload::from_bytes(b"z"));
        for named in run_under_battery(&net, &protocol, ExecutionConfig::default(), 41, 6) {
            assert!(
                named.result.outcome.terminated(),
                "sched {}",
                named.scheduler
            );
            assert!(named.result.states[v.index()].received);
        }
    }

    fn half(k: u64) -> IntervalUnion {
        IntervalUnion::from(anet_num::Interval::from_dyadic_parts(k, k + 1, 1).unwrap())
    }

    impl GeneralBroadcast {
        /// A message with no α: the β increment `beta` and the payload.
        fn echo(&self, beta: IntervalUnion) -> GeneralMessage {
            self.message(IntervalUnion::empty(), beta)
        }
    }

    /// The re-flood frontier sends nothing on a port whose α and β are both
    /// empty, and on every other port that port's α, the whole β and the
    /// payload.
    #[test]
    fn reflood_resends_each_ports_alpha_and_the_whole_beta() {
        let protocol = GeneralBroadcast::new(Payload::from_bytes(b"f"));
        let message = |alpha, beta| GeneralMessage {
            alpha,
            beta,
            payload: Payload::from_bytes(b"f"),
        };
        let ctx = NodeContext::new(1, 3);
        let mut state = protocol.initial_state(&ctx);
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
        let sink = NodeContext::new(2, 0);
        let mut terminal = protocol.initial_state(&sink);
        terminal.mass.beta = half(1);
        terminal.seen = IntervalUnion::unit();
        assert!(protocol.reflood(&sink, &terminal).is_empty());
    }

    /// An α-empty delivery whose β the vertex already holds emits nothing and
    /// leaves the state as it was; one with new β floods just the new part.
    #[test]
    fn beta_echo_of_held_evidence_is_silent() {
        let protocol = GeneralBroadcast::new(Payload::from_bytes(b"e"));
        let ctx = NodeContext::new(1, 2);
        let mut state = protocol.initial_state(&ctx);
        let mut out = Vec::new();
        let first = GeneralMessage {
            alpha: half(0),
            beta: half(1),
            payload: protocol.payload().clone(),
        };
        protocol.on_receive_into(&ctx, &mut state, 0, &first, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(state.mass.beta, half(1));

        for beta in [
            state.mass.beta.clone(),
            state.mass.beta.deep_clone(),
            IntervalUnion::empty(),
        ] {
            let before = state.clone();
            out.clear();
            let echo = GeneralMessage {
                alpha: IntervalUnion::empty(),
                beta,
                payload: protocol.payload().clone(),
            };
            protocol.on_receive_into(&ctx, &mut state, 0, &echo, &mut out);
            assert!(out.is_empty(), "an echo of held β was forwarded");
            assert_eq!(state, before);
        }

        // New β is flooded, once for every out-port: the part the vertex
        // lacks, and the sender's own buffer when the vertex holds none of it.
        for (beta, shared) in [(IntervalUnion::unit(), false), (half(0), true)] {
            state.mass.beta = half(1);
            out.clear();
            let echo = GeneralMessage {
                alpha: IntervalUnion::empty(),
                beta,
                payload: protocol.payload().clone(),
            };
            protocol.on_receive_into(&ctx, &mut state, 0, &echo, &mut out);
            assert_eq!(out, vec![(OutPort::All, protocol.echo(half(0)))]);
            assert_eq!(out[0].1.beta.shares_storage_with(&echo.beta), shared);
        }
        assert!(state.mass.beta.is_unit());
        assert!(state.seen.is_empty(), "a routing vertex keeps no coverage");
    }

    /// `seen` is kept only where the stopping predicate reads it: empty at
    /// every vertex with out-edges, the full coverage at the terminal.
    #[test]
    fn only_sinks_keep_their_coverage() {
        let mut rng = StdRng::seed_from_u64(23);
        let net = random_cyclic(&mut rng, 16, 0.2, 0.3).unwrap();
        assert!(!classify::is_dag(net.graph()));
        let protocol = GeneralBroadcast::new(Payload::from_bytes(b"k"));
        for named in run_under_battery(&net, &protocol, ExecutionConfig::default(), 3, 3) {
            assert!(
                named.result.outcome.terminated(),
                "sched {}",
                named.scheduler
            );
            for node in net.graph().nodes() {
                let st = &named.result.states[node.index()];
                if net.graph().out_degree(node) > 0 {
                    assert!(
                        st.seen.is_empty(),
                        "sched {} node {node:?}",
                        named.scheduler
                    );
                }
            }
            let terminal = &named.result.states[net.terminal().index()];
            assert_eq!(&terminal.seen, terminal.coverage());
            assert!(terminal.coverage().is_unit(), "sched {}", named.scheduler);
        }
    }

    #[test]
    fn message_count_is_polynomial_not_exponential() {
        // Loose sanity bound corresponding to Theorem 4.2's counting argument:
        // the number of messages on any edge is at most the number of maximal
        // intervals ever created, which is O(|E|).
        let net = nested_cycles(3, 5).unwrap();
        let protocol = GeneralBroadcast::new(Payload::empty());
        let result = run(&net, &protocol, &mut fifo(), ExecutionConfig::default());
        assert!(result.outcome.terminated());
        let e = net.edge_count() as u64;
        assert!(result.metrics.max_edge_messages() <= 2 * e);
        assert!(result.metrics.messages_sent <= 2 * e * e);
    }

    #[test]
    fn budget_exhaustion_maps_to_error() {
        let net = cycle_with_tail(4).unwrap();
        let config = ExecutionConfig {
            max_deliveries: 1,
            record_trace: false,
        };
        let protocol = GeneralBroadcast::new(Payload::empty());
        let result = run(&net, &protocol, &mut fifo(), config);
        let err = report_from_run(&net, result).unwrap_err();
        assert_eq!(err, CoreError::BudgetExhausted);
    }
}
