//! The asynchronous execution engine: incremental active-edge scheduling over
//! a flat, cache-dense core.
//!
//! Two generations of optimization meet in this loop:
//!
//! * **Incremental scheduling.** Earlier versions rebuilt the full list of
//!   pending edges on every delivery — an O(E) scan in the innermost loop,
//!   making a run cost O(E · deliveries). The loop below never scans: it
//!   tracks the number of in-flight messages, tells the [`Scheduler`] about
//!   every queued message ([`Scheduler::on_send`]), every change of an edge's
//!   head message ([`Scheduler::on_head`]) and every edge that drains
//!   ([`Scheduler::on_idle`]), and asks the scheduler for the next edge
//!   directly ([`Scheduler::next_edge`]). Every scheduler in
//!   [`crate::scheduler`] answers in O(1) amortized or O(log E), so a
//!   delivery costs O(log E) regardless of graph size.
//! * **Flat memory layout.** All hot per-run state lives in contiguous
//!   arrays indexed by dense node/edge ids: adjacency is an
//!   [`anet_graph::Csr`] built once per run (no pointer-chasing through
//!   `DiGraph`'s per-node `Vec`s), queued messages live in the pooled
//!   [`crate::arena::MessageArena`] slabs instead of a `VecDeque` per edge,
//!   protocol emissions go through the reusable
//!   [`AnonymousProtocol::on_receive_into`] scratch buffer instead of a fresh
//!   `Vec` per delivery, and the per-vertex states and contexts are sized
//!   once from the graph. See the [`crate::arena`] docs for the full
//!   **memory layout contract**.
//! * **Flood once.** A message a protocol emits to [`OutPort::All`] is
//!   stored once, as one arena body, its `wire_bits()` computed once, and
//!   queued on each out-port in port order as a small entry. Per port it
//!   still takes its own sequence number, observer event, metrics entry and
//!   wire-bit charge, exactly as the same message emitted once per port
//!   would; only the clones, drops and per-port storage go. A delivery lends
//!   the body's message to the protocol by reference, and the body is
//!   dropped with its last entry: delivered, dropped or lost to a crash. An
//!   adversary duplicate is one more entry on the same body.
//!
//! Instrumentation is one [`Observer`] that sees every send and every step;
//! [`run_observed`] is the loop's full entry point, and the other entry points
//! (and [`crate::synchronous`]) are this loop with fixed arguments.
//!
//! [`crate::reference::run_full_scan`] is the executable specification this
//! loop is checked against: it takes [`run_observed`]'s arguments, scans
//! every edge for candidates ([`Scheduler::pick_full_scan`]) and keeps one
//! `VecDeque` per edge. The `engine_equivalence` suite asserts both produce
//! bit-identical traces, metrics, outcomes, states, step logs and re-flood
//! accounting for every scheduler in the standard battery.

use anet_graph::{Csr, EdgeId, Network, NodeId};

use crate::arena::MessageArena;
use crate::metrics::RunMetrics;
use crate::observer::Observer;
use crate::protocol::{OutPort, RefloodProtocol};
use crate::scheduler::{Scheduler, SchedulerAction};
use crate::trace::{SendEvent, Trace};
use crate::{AnonymousProtocol, NodeContext, Wire};

/// Execution limits and the trace switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Maximum number of message deliveries before the run is aborted. The paper's
    /// protocols always quiesce on their own; the budget is a guard against buggy
    /// protocols that would otherwise loop forever.
    pub max_deliveries: u64,
    /// Whether to record a full [`Trace`] of every send into
    /// [`RunResult::trace`] (needed by the lower-bound experiments, skipped by
    /// the benchmarks for speed).
    pub record_trace: bool,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            max_deliveries: 10_000_000,
            record_trace: false,
        }
    }
}

impl ExecutionConfig {
    /// Default limits with trace recording switched on.
    pub fn with_trace() -> Self {
        ExecutionConfig {
            record_trace: true,
            ..ExecutionConfig::default()
        }
    }
}

/// [`ExecutionConfig`] by its older name, which the benchmark crate
/// (`perfbench/`) still imports.
pub type RunConfig = ExecutionConfig;

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The terminal's stopping predicate `S` became true: the protocol terminated.
    Terminated,
    /// All in-flight messages were delivered without the terminal ever accepting.
    /// For a correct protocol this is the expected outcome exactly when some vertex
    /// reachable from the root is not connected to the terminal.
    Quiescent,
    /// The delivery budget was exhausted (only possible for misbehaving protocols).
    BudgetExhausted,
}

impl Outcome {
    /// Returns `true` for [`Outcome::Terminated`].
    pub fn terminated(self) -> bool {
        self == Outcome::Terminated
    }
}

/// The result of one protocol run.
#[derive(Debug, Clone)]
pub struct RunResult<S, M> {
    /// How the run ended.
    pub outcome: Outcome,
    /// Final state of every vertex, indexed by node id.
    pub states: Vec<S>,
    /// Communication metrics.
    pub metrics: RunMetrics,
    /// Number of deliveries performed when the terminal first accepted (if it did).
    pub deliveries_at_termination: Option<u64>,
    /// Full send trace, when requested via [`ExecutionConfig::record_trace`].
    pub trace: Option<Trace<M>>,
}

impl<S, M> RunResult<S, M> {
    /// The terminal's final state.
    pub fn terminal_state<'a>(&'a self, network: &Network) -> &'a S {
        &self.states[network.terminal().index()]
    }
}

/// Runs `protocol` on `network` under the delivery order chosen by `scheduler`.
///
/// The run proceeds exactly as in the paper's model: the root's initial messages
/// are placed on its out-edges, then one in-flight message at a time is delivered
/// to its destination, which updates its state (`f`) and emits messages on its
/// out-ports (`g`); the run stops as soon as the terminal's stopping predicate `S`
/// holds, or when no messages remain in flight, or when the delivery budget is
/// exhausted.
///
/// The scheduler is kept in sync incrementally (see the [module docs](self)):
/// each delivery performs O(1) queue work plus O(1)–O(log E) scheduler work, and
/// never scans the edge set.
///
/// # Panics
///
/// Panics if the protocol emits a message on an out-port that does not exist at
/// the emitting vertex, or if the scheduler returns an edge with no queued
/// message — both are bugs in the protocol or scheduler, not run-time conditions.
pub fn run<P, Sch>(
    network: &Network,
    protocol: &P,
    scheduler: &mut Sch,
    config: ExecutionConfig,
) -> RunResult<P::State, P::Message>
where
    P: AnonymousProtocol,
    Sch: Scheduler + ?Sized,
{
    run_corrupted(network, protocol, scheduler, config, |_| {})
}

/// [`run`] by its older name, which the benchmark crate (`perfbench/`) still
/// calls.
pub use self::run as run_with_config;

/// [`run`] with a state-corruption hook: `corrupt` is applied to the freshly
/// initialised per-vertex states **before** the root's initial messages and
/// before the initial terminal-acceptance check — the self-stabilisation entry
/// point ("does the protocol recover when started from perturbed state, and at
/// what wire-bit cost?").
///
/// The hook receives the state slice indexed by node id. Passing a no-op
/// closure makes this identical to [`run`].
///
/// # Panics
///
/// Panics under the same conditions as [`run`].
pub fn run_corrupted<P, Sch, F>(
    network: &Network,
    protocol: &P,
    scheduler: &mut Sch,
    config: ExecutionConfig,
    corrupt: F,
) -> RunResult<P::State, P::Message>
where
    P: AnonymousProtocol,
    Sch: Scheduler + ?Sized,
    F: FnOnce(&mut [P::State]),
{
    let no_reflood = |_: &NodeContext, _: &P::State| Vec::new();
    run_engine(
        network,
        protocol,
        scheduler,
        config,
        corrupt,
        0,
        no_reflood,
        &mut (),
    )
    .result
}

/// The result of a [`run_observed`] execution: the run itself plus the
/// re-flood accounting that quantifies what recovery cost on top of it.
#[derive(Debug, Clone)]
pub struct RecoveredRun<S, M> {
    /// The underlying run (outcome, states, metrics, optional trace).
    pub result: RunResult<S, M>,
    /// Number of re-flood rounds that actually fired (0 for a run that never
    /// drained with losses — in particular, always 0 under a reliable
    /// scheduler).
    pub reflood_rounds: u32,
    /// Messages injected by re-flood rounds. These are also counted in
    /// [`RunMetrics::messages_sent`]; this field isolates the retry traffic.
    pub reflood_sends: u64,
    /// Wire bits charged for re-flood sends (likewise included in
    /// [`RunMetrics::total_bits`]).
    pub reflood_bits: u64,
}

impl<S, M> RecoveredRun<S, M> {
    /// Whether any re-flood round fired, i.e. the run needed retries at all.
    pub fn retried(&self) -> bool {
        self.reflood_rounds > 0
    }
}

/// [`run_observed`] from pristine states with no observer.
///
/// # Panics
///
/// Panics under the same conditions as [`run`].
pub fn run_recovering<P, Sch>(
    network: &Network,
    protocol: &P,
    scheduler: &mut Sch,
    config: ExecutionConfig,
    retry_budget: u32,
) -> RecoveredRun<P::State, P::Message>
where
    P: RefloodProtocol,
    Sch: Scheduler + ?Sized,
{
    run_observed(
        network,
        protocol,
        scheduler,
        config,
        |_| {},
        retry_budget,
        &mut (),
    )
}

/// The engine's full entry point: [`run_corrupted`]'s corruption hook, a
/// bounded re-flood retry, and an [`Observer`] that sees every send and step.
///
/// **Re-flood.** Whenever the network drains (`in_flight == 0`) without the
/// terminal accepting **and** at least one message was destroyed (dropped or
/// lost to a crash, [`RunMetrics::messages_lost`]), one *re-flood round* is
/// injected — the root re-transmits `σ₀` and then every vertex, in node-id
/// order, re-sends its frontier ([`RefloodProtocol::reflood`]) — and the run
/// continues under the same scheduler. The contract, pinned by the recovery
/// differential suite in `anet-core`:
///
/// * **"Recovered" means the ordinary success predicate, reached late.** A
///   recovered run is one that terminates (and satisfies the protocol's
///   `*_recovered()` check) even though the adversary destroyed messages; the
///   re-flood mechanism adds no new notion of success.
/// * **Retry budget.** At most `retry_budget` re-flood rounds fire. Under
///   total loss the run still drains after the last round, so starvation
///   stays detectable — it is reported as [`Outcome::Quiescent`] with
///   messages lost, exactly like a starved pristine run, never as a hang.
///   A re-flood round that injects nothing (every frontier empty) ends the
///   run immediately.
/// * **Reliable ⇒ bit-identical to pristine.** Re-flooding triggers only
///   when `messages_lost() > 0`, so under a reliable scheduler (or a
///   [`crate::faults::FaultPlan`] whose `is_reliable()` holds) the run
///   performs exactly the sends of [`run`] — same outcome, same states, same
///   metrics, same trace, bit for bit.
/// * **Wire bits charge every real send.** Re-flooded messages go through the
///   normal send path: full `wire_bits()` per message, observer events,
///   per-edge accounting. The paper's cost model counts transmissions on
///   channels, and a retry is a real transmission — that is precisely the
///   recovery overhead this layer exists to measure (see
///   `RecoveredRun::reflood_bits`).
///
/// **Observation.** `observer` sees every charged send and every step; with
/// [`ExecutionConfig::record_trace`] a [`Trace`] observes alongside it and
/// lands in [`RunResult::trace`].
///
/// # Panics
///
/// Panics under the same conditions as [`run`].
pub fn run_observed<P, Sch, F, O>(
    network: &Network,
    protocol: &P,
    scheduler: &mut Sch,
    config: ExecutionConfig,
    corrupt: F,
    retry_budget: u32,
    observer: &mut O,
) -> RecoveredRun<P::State, P::Message>
where
    P: RefloodProtocol,
    Sch: Scheduler + ?Sized,
    F: FnOnce(&mut [P::State]),
    O: Observer<P::Message> + ?Sized,
{
    let reflood = |ctx: &NodeContext, state: &P::State| protocol.reflood(ctx, state);
    run_engine(
        network,
        protocol,
        scheduler,
        config,
        corrupt,
        retry_budget,
        reflood,
        observer,
    )
}

/// [`run_observed`] over any protocol, with the re-flood frontier supplied by
/// `reflood`: pairs `observer` with a [`Trace`] when the config asks for one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_engine<P, Sch, F, R, O>(
    network: &Network,
    protocol: &P,
    scheduler: &mut Sch,
    config: ExecutionConfig,
    corrupt: F,
    retry_budget: u32,
    reflood: R,
    observer: &mut O,
) -> RecoveredRun<P::State, P::Message>
where
    P: AnonymousProtocol,
    Sch: Scheduler + ?Sized,
    F: FnOnce(&mut [P::State]),
    R: FnMut(&NodeContext, &P::State) -> Vec<(usize, P::Message)>,
    O: Observer<P::Message> + ?Sized,
{
    let budget = config.max_deliveries;
    if !config.record_trace {
        return run_loop(
            network,
            protocol,
            scheduler,
            budget,
            corrupt,
            retry_budget,
            reflood,
            observer,
        );
    }
    let mut traced = (Trace::with_capacity(network.edge_count()), observer);
    let mut run = run_loop(
        network,
        protocol,
        scheduler,
        budget,
        corrupt,
        retry_budget,
        reflood,
        &mut traced,
    );
    run.result.trace = Some(traced.0);
    run
}

/// The queues and counters every send touches, with the scheduler and
/// observer it reports to.
struct Channels<'r, M, Sch: ?Sized, O: ?Sized> {
    csr: &'r Csr,
    terminal: u32,
    protocol_name: &'static str,
    scheduler: &'r mut Sch,
    observer: &'r mut O,
    arena: MessageArena<M>,
    metrics: RunMetrics,
    in_flight: usize,
    next_seq: u64,
}

impl<M, Sch, O> Channels<'_, M, Sch, O>
where
    M: Wire,
    Sch: Scheduler + ?Sized,
    O: Observer<M> + ?Sized,
{
    /// Charges `message` to `from`'s out-port `port` (or to each of its
    /// out-ports, in port order) and queues it there, stored once.
    fn send(&mut self, from: u32, port: OutPort, message: M) {
        let out_edges = self.csr.out_edges(from);
        let edges = match port {
            OutPort::Port(port) => {
                assert!(
                    port < out_edges.len(),
                    "protocol {} emitted on out-port {port} of a vertex with out-degree {}",
                    self.protocol_name,
                    out_edges.len()
                );
                &out_edges[port..=port]
            }
            OutPort::All if out_edges.is_empty() => return,
            OutPort::All => out_edges,
        };
        let bits = message.wire_bits();
        let body = self.arena.add_body(message);
        for &edge in edges {
            let dst = self.csr.edge_dst(edge);
            let seq = self.next_seq;
            self.metrics.record_send(edge as usize, bits);
            self.observer.on_send(&SendEvent {
                seq,
                edge: EdgeId(edge as usize),
                src: NodeId(from as usize),
                dst: NodeId(dst as usize),
                bits,
                message: self.arena.message(body),
            });
            if self.enqueue(edge, dst, body) {
                // The edge turns active and this message becomes its head.
                self.scheduler
                    .on_head(EdgeId(edge as usize), seq, dst == self.terminal);
            }
        }
    }

    /// Queues one more entry for `body` on `edge` under the next sequence
    /// number. Returns whether the edge was idle before.
    fn enqueue(&mut self, edge: u32, dst: u32, body: u32) -> bool {
        self.scheduler
            .on_send(EdgeId(edge as usize), self.next_seq, dst == self.terminal);
        let was_idle = self.arena.push_back(edge as usize, self.next_seq, body);
        self.in_flight += 1;
        self.next_seq += 1;
        was_idle
    }
}

/// The one asynchronous delivery loop: corruption hook, optional re-flood
/// rounds, and the incremental delivery machinery over the flat core (CSR
/// adjacency + pooled message arena + one reusable emit buffer).
#[allow(clippy::too_many_arguments)]
fn run_loop<P, Sch, F, R, O>(
    network: &Network,
    protocol: &P,
    scheduler: &mut Sch,
    max_deliveries: u64,
    corrupt: F,
    retry_budget: u32,
    mut reflood: R,
    observer: &mut O,
) -> RecoveredRun<P::State, P::Message>
where
    P: AnonymousProtocol,
    Sch: Scheduler + ?Sized,
    F: FnOnce(&mut [P::State]),
    R: FnMut(&NodeContext, &P::State) -> Vec<(usize, P::Message)>,
    O: Observer<P::Message> + ?Sized,
{
    // Flatten the topology once: all adjacency below is contiguous-array
    // indexing, never a hop through `DiGraph`'s per-node heap `Vec`s.
    let csr = Csr::from_graph(network.graph());
    let node_count = csr.node_count();
    let edge_count = csr.edge_count();
    let root = network.root().index() as u32;
    let terminal = network.terminal().index() as u32;

    let contexts: Vec<NodeContext> = (0..node_count as u32)
        .map(|v| NodeContext::new(csr.in_degree(v), csr.out_degree(v)))
        .collect();
    let mut states: Vec<P::State> = contexts
        .iter()
        .map(|ctx| protocol.initial_state(ctx))
        .collect();
    corrupt(&mut states);

    scheduler.begin_run(edge_count);
    // One pooled message slab holds every edge's queue (see
    // [`crate::arena`] for the memory layout contract). Each emission is
    // stored once, as one body however many ports it floods, and never
    // cloned on the delivery path: the protocol and observers see it by
    // reference, so the only `Message::clone` is the one a [`Trace`] keeps,
    // and cheaply clonable payloads ([`crate::SharedSlice`], the copy-on-write
    // `IntervalUnion` handles of the interval protocols) keep per-trace-event
    // cost independent of payload size — a payload flooded across the whole
    // run can remain one shared buffer (pinned by
    // `trace_clones_share_arc_payloads_end_to_end`). Wire-bit accounting is
    // taken from `wire_bits()` at send time and charged to every edge the
    // message is queued on, so sharing never changes what an edge is charged.
    let mut channels = Channels {
        csr: &csr,
        terminal,
        protocol_name: protocol.name(),
        scheduler,
        observer,
        arena: MessageArena::new(edge_count),
        metrics: RunMetrics::new(edge_count),
        in_flight: 0,
        next_seq: 0,
    };

    // σ₀: the root transmits its initial messages.
    for (port, message) in protocol.root_messages(csr.out_degree(root)) {
        channels.send(root, OutPort::Port(port), message);
    }

    let mut outcome = Outcome::Quiescent;
    let mut deliveries_at_termination = None;
    // A protocol whose terminal accepts in its initial state terminates immediately.
    if protocol.should_terminate(&states[terminal as usize]) {
        outcome = Outcome::Terminated;
        deliveries_at_termination = Some(0);
    }

    let mut reflood_rounds: u32 = 0;
    let mut reflood_sends: u64 = 0;
    let mut reflood_bits: u64 = 0;
    // One reusable emission buffer for the whole run: `on_receive_into`
    // appends into it and the drain below forwards to `send`, so a delivery
    // allocates nothing once the buffer has grown to the widest emission.
    let mut emit_buf: Vec<(OutPort, P::Message)> = Vec::new();

    while !outcome.terminated() {
        if channels.in_flight == 0 {
            // Drained. A re-flood round fires only if the adversary actually
            // destroyed traffic (so reliable runs stay bit-identical to the
            // pristine path) and the retry budget has rounds left (so total
            // loss still starves detectably instead of hanging).
            if reflood_rounds >= retry_budget || channels.metrics.messages_lost() == 0 {
                break;
            }
            reflood_rounds += 1;
            let sends_before = channels.metrics.messages_sent;
            let bits_before = channels.metrics.total_bits;
            // The root re-transmits σ₀ …
            for (port, message) in protocol.root_messages(csr.out_degree(root)) {
                channels.send(root, OutPort::Port(port), message);
            }
            // … then every vertex re-sends its frontier, in node-id order
            // (deterministic on the canonical topology). The root is included:
            // it receives nothing (`Network::new` rejects in-edges at the
            // root), but a protocol may still give it a frontier, separate
            // from σ₀.
            for node in 0..node_count {
                for (port, message) in reflood(&contexts[node], &states[node]) {
                    channels.send(node as u32, OutPort::Port(port), message);
                }
            }
            reflood_sends += channels.metrics.messages_sent - sends_before;
            reflood_bits += channels.metrics.total_bits - bits_before;
            if channels.in_flight == 0 {
                // Nothing to re-send: the run is starved for good.
                break;
            }
            continue;
        }
        if channels.metrics.messages_delivered >= max_deliveries {
            outcome = Outcome::BudgetExhausted;
            break;
        }
        let edge = channels.scheduler.next_edge();
        let e = edge.index();
        let dst = csr.edge_dst(e as u32);
        let queue_len = channels.arena.len(e);
        assert!(
            queue_len > 0,
            "scheduler {} chose edge {edge:?} which has no queued message",
            channels.scheduler.name()
        );
        let action = channels
            .scheduler
            .deliver_action(edge, NodeId(dst as usize), queue_len);
        let (seq, body) = match action {
            // Deliver a mid-queue message instead of the head (clamped).
            SchedulerAction::Reorder(i) => channels
                .arena
                .remove_at(e, i.min(queue_len - 1))
                .expect("index clamped below queue length"),
            _ => channels
                .arena
                .pop_front(e)
                .expect("emptiness asserted above"),
        };
        channels.observer.on_step(edge, action, seq);
        channels.in_flight -= 1;
        if action == SchedulerAction::Duplicate {
            // The copy is an adversary artifact, not a protocol send: one more
            // entry on the same body, with a fresh sequence number (the
            // schedulers rely on uniqueness) but no send event and no wire
            // bits. The head report below covers an edge it re-activates.
            channels.enqueue(e as u32, dst, body);
            channels.metrics.record_duplicate();
        }
        // Report the edge's new state before the protocol reacts, so a
        // re-activating send during `on_receive_into` observes a consistent
        // queue.
        match channels.arena.head_seq(e) {
            Some(head) => channels.scheduler.on_head(edge, head, dst == terminal),
            None => channels.scheduler.on_idle(edge),
        }
        match action {
            SchedulerAction::Drop => {
                channels.metrics.record_drop();
                channels.arena.release(body);
                continue;
            }
            SchedulerAction::NodeDown => {
                channels.metrics.record_crashed_delivery();
                channels.arena.release(body);
                continue;
            }
            SchedulerAction::Deliver | SchedulerAction::Duplicate | SchedulerAction::Reorder(_) => {
            }
        }
        channels.metrics.record_delivery();

        emit_buf.clear();
        protocol.on_receive_into(
            &contexts[dst as usize],
            &mut states[dst as usize],
            csr.in_port(e as u32),
            channels.arena.message(body),
            &mut emit_buf,
        );
        channels.arena.release(body);
        for (port, out_message) in emit_buf.drain(..) {
            channels.send(dst, port, out_message);
        }

        if dst == terminal && protocol.should_terminate(&states[terminal as usize]) {
            outcome = Outcome::Terminated;
            deliveries_at_termination = Some(channels.metrics.messages_delivered);
        }
    }

    RecoveredRun {
        result: RunResult {
            outcome,
            states,
            metrics: channels.metrics,
            deliveries_at_termination,
            trace: None,
        },
        reflood_rounds,
        reflood_sends,
        reflood_bits,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scheduler::{FifoScheduler, RandomScheduler, ReplayScheduler};
    use anet_graph::generators::{chain_gn, path_network};

    /// A toy protocol shared by the engine, synchronous and reference tests:
    /// forwards a unit token on every out-port the first time it is hit; the
    /// terminal accepts after receiving `needed` tokens.
    #[derive(Debug, Clone)]
    pub(crate) struct Flood {
        pub(crate) needed: u64,
    }

    #[derive(Debug, Clone)]
    pub(crate) struct FloodState {
        received: u64,
        forwarded: bool,
    }

    impl AnonymousProtocol for Flood {
        type State = FloodState;
        type Message = ();

        fn name(&self) -> &'static str {
            "flood"
        }

        fn initial_state(&self, _ctx: &NodeContext) -> FloodState {
            FloodState {
                received: 0,
                forwarded: false,
            }
        }

        fn root_messages(&self, root_out_degree: usize) -> Vec<(usize, ())> {
            (0..root_out_degree).map(|p| (p, ())).collect()
        }

        fn on_receive(
            &self,
            ctx: &NodeContext,
            state: &mut FloodState,
            _in_port: usize,
            _message: &(),
        ) -> Vec<(usize, ())> {
            state.received += 1;
            if state.forwarded {
                return Vec::new();
            }
            state.forwarded = true;
            (0..ctx.out_degree).map(|p| (p, ())).collect()
        }

        fn should_terminate(&self, terminal_state: &FloodState) -> bool {
            terminal_state.received >= self.needed
        }
    }

    #[test]
    fn flood_on_path_terminates_and_counts_messages() {
        let net = path_network(4).unwrap();
        let res = run(
            &net,
            &Flood { needed: 1 },
            &mut FifoScheduler::new(),
            ExecutionConfig::default(),
        );
        assert_eq!(res.outcome, Outcome::Terminated);
        assert_eq!(res.metrics.messages_sent, 5);
        assert_eq!(res.metrics.messages_delivered, 5);
        assert_eq!(res.deliveries_at_termination, Some(5));
        assert_eq!(res.metrics.max_edge_messages(), 1);
        assert_eq!(res.terminal_state(&net).received, 1);
    }

    #[test]
    fn flood_quiesces_when_terminal_needs_more_than_it_gets() {
        let net = path_network(3).unwrap();
        let res = run(
            &net,
            &Flood { needed: 2 },
            &mut FifoScheduler::new(),
            ExecutionConfig::default(),
        );
        assert_eq!(res.outcome, Outcome::Quiescent);
        assert_eq!(res.deliveries_at_termination, None);
    }

    #[test]
    fn chain_delivers_one_message_per_edge_under_any_schedule() {
        let net = chain_gn(6).unwrap();
        for seed in 0..5 {
            let mut sched = RandomScheduler::seeded(seed);
            let res = run(
                &net,
                &Flood { needed: 6 },
                &mut sched,
                ExecutionConfig::default(),
            );
            assert_eq!(res.outcome, Outcome::Terminated);
            assert_eq!(res.metrics.messages_sent as usize, net.edge_count());
            assert!(res.metrics.per_edge_messages.iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn trace_records_every_send() {
        let net = chain_gn(3).unwrap();
        let res = run(
            &net,
            &Flood { needed: 3 },
            &mut FifoScheduler::new(),
            ExecutionConfig::with_trace(),
        );
        let trace = res.trace.expect("trace requested");
        assert_eq!(trace.len(), net.edge_count());
        // Sequence numbers are unique and increasing.
        let seqs: Vec<u64> = trace.events().iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seqs.len());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let net = chain_gn(8).unwrap();
        let config = ExecutionConfig {
            max_deliveries: 3,
            record_trace: false,
        };
        let res = run(
            &net,
            &Flood { needed: 8 },
            &mut FifoScheduler::new(),
            config,
        );
        assert_eq!(res.outcome, Outcome::BudgetExhausted);
        assert_eq!(res.metrics.messages_delivered, 3);
    }

    #[test]
    fn replaying_a_fifo_order_reproduces_the_run() {
        // Capture the delivery order of a FIFO run via its trace (FIFO delivers
        // in send order), then replay it and check the run is identical.
        let net = chain_gn(4).unwrap();
        let fifo = run(
            &net,
            &Flood { needed: 4 },
            &mut FifoScheduler::new(),
            ExecutionConfig::with_trace(),
        );
        let order: Vec<_> = fifo
            .trace
            .as_ref()
            .expect("trace requested")
            .events()
            .iter()
            .map(|e| e.edge)
            .collect();
        let mut replay = ReplayScheduler::new(order);
        let res = run(
            &net,
            &Flood { needed: 4 },
            &mut replay,
            ExecutionConfig::with_trace(),
        );
        assert_eq!(res.outcome, fifo.outcome);
        assert_eq!(res.metrics, fifo.metrics);
        assert_eq!(res.trace.unwrap(), fifo.trace.unwrap());
    }

    /// A message wrapping a reference-counted payload buffer, standing in for
    /// the CoW `IntervalUnion` handles of the interval protocols.
    #[derive(Debug, Clone)]
    struct SharedBlob(std::sync::Arc<Vec<u8>>);

    impl Wire for SharedBlob {
        fn wire_bits(&self) -> u64 {
            8 * self.0.len() as u64
        }
    }

    /// Forwards the received payload *handle* on every out-port.
    #[derive(Debug)]
    struct ForwardBlob;

    impl AnonymousProtocol for ForwardBlob {
        type State = bool;
        type Message = SharedBlob;

        fn name(&self) -> &'static str {
            "forward-blob"
        }
        fn initial_state(&self, _ctx: &NodeContext) -> bool {
            false
        }
        fn root_messages(&self, _root_out_degree: usize) -> Vec<(usize, SharedBlob)> {
            vec![(0, SharedBlob(std::sync::Arc::new(vec![7u8; 32])))]
        }
        fn on_receive(
            &self,
            ctx: &NodeContext,
            state: &mut bool,
            _in_port: usize,
            message: &SharedBlob,
        ) -> Vec<(usize, SharedBlob)> {
            if std::mem::replace(state, true) {
                return Vec::new();
            }
            (0..ctx.out_degree).map(|p| (p, message.clone())).collect()
        }
        fn should_terminate(&self, terminal_state: &bool) -> bool {
            *terminal_state
        }
    }

    #[test]
    fn trace_clones_share_arc_payloads_end_to_end() {
        // A payload handle forwarded along a whole path must remain ONE
        // allocation: the engine moves messages on the delivery path and its
        // only clone — into the trace — shares reference-counted buffers. With
        // n trace events alive and every queue drained, the buffer's strong
        // count is exactly n; wire accounting still charged every edge in full.
        let n = 5;
        let net = path_network(n).unwrap();
        let res = run(
            &net,
            &ForwardBlob,
            &mut FifoScheduler::new(),
            ExecutionConfig::with_trace(),
        );
        assert_eq!(res.outcome, Outcome::Terminated);
        let trace = res.trace.expect("trace requested");
        assert_eq!(trace.len(), net.edge_count());
        let first = &trace.events()[0].message.0;
        for event in trace.events() {
            assert!(
                std::sync::Arc::ptr_eq(first, &event.message.0),
                "trace event holds a detached payload copy"
            );
        }
        assert_eq!(std::sync::Arc::strong_count(first), trace.len());
        // Sharing is invisible to the paper's bit accounting.
        assert_eq!(res.metrics.total_bits, 8 * 32 * net.edge_count() as u64);
    }

    /// A deliberately broken protocol that emits on a non-existent port.
    #[derive(Debug)]
    struct BadPort;

    impl AnonymousProtocol for BadPort {
        type State = ();
        type Message = ();

        fn name(&self) -> &'static str {
            "bad-port"
        }
        fn initial_state(&self, _ctx: &NodeContext) {}
        fn root_messages(&self, _root_out_degree: usize) -> Vec<(usize, ())> {
            vec![(0, ())]
        }
        fn on_receive(
            &self,
            _ctx: &NodeContext,
            _state: &mut (),
            _in_port: usize,
            _message: &(),
        ) -> Vec<(usize, ())> {
            vec![(99, ())]
        }
        fn should_terminate(&self, _terminal_state: &()) -> bool {
            false
        }
    }

    #[test]
    #[should_panic(expected = "out-port")]
    fn emitting_on_missing_port_panics() {
        let net = path_network(2).unwrap();
        let _ = run(
            &net,
            &BadPort,
            &mut FifoScheduler::new(),
            ExecutionConfig::default(),
        );
    }

    impl RefloodProtocol for Flood {
        fn reflood(&self, ctx: &NodeContext, state: &FloodState) -> Vec<(usize, ())> {
            if state.forwarded {
                (0..ctx.out_degree).map(|p| (p, ())).collect()
            } else {
                Vec::new()
            }
        }
    }

    /// A fault adapter for the recovery tests: drops the first `remaining`
    /// engine steps, then delivers reliably.
    struct DropFirst<S> {
        inner: S,
        remaining: u64,
    }

    impl<S: Scheduler> Scheduler for DropFirst<S> {
        fn name(&self) -> &'static str {
            "drop-first"
        }
        fn begin_run(&mut self, edge_count: usize) {
            self.inner.begin_run(edge_count);
        }
        fn on_send(&mut self, edge: EdgeId, seq: u64, into_terminal: bool) {
            self.inner.on_send(edge, seq, into_terminal);
        }
        fn on_head(&mut self, edge: EdgeId, head_seq: u64, into_terminal: bool) {
            self.inner.on_head(edge, head_seq, into_terminal);
        }
        fn on_idle(&mut self, edge: EdgeId) {
            self.inner.on_idle(edge);
        }
        fn next_edge(&mut self) -> EdgeId {
            self.inner.next_edge()
        }
        fn pick_full_scan(&mut self, candidates: &[crate::scheduler::PendingEdge]) -> usize {
            self.inner.pick_full_scan(candidates)
        }
        fn deliver_action(
            &mut self,
            _edge: EdgeId,
            _dst: anet_graph::NodeId,
            _queue_len: usize,
        ) -> SchedulerAction {
            if self.remaining > 0 {
                self.remaining -= 1;
                SchedulerAction::Drop
            } else {
                SchedulerAction::Deliver
            }
        }
    }

    #[test]
    fn recovering_under_a_reliable_scheduler_is_bit_identical_to_pristine() {
        let net = chain_gn(5).unwrap();
        let pristine = run(
            &net,
            &Flood { needed: 5 },
            &mut FifoScheduler::new(),
            ExecutionConfig::with_trace(),
        );
        let recovered = run_recovering(
            &net,
            &Flood { needed: 5 },
            &mut FifoScheduler::new(),
            ExecutionConfig::with_trace(),
            7,
        );
        assert_eq!(recovered.reflood_rounds, 0);
        assert_eq!(recovered.reflood_sends, 0);
        assert_eq!(recovered.reflood_bits, 0);
        assert!(!recovered.retried());
        assert_eq!(recovered.result.outcome, pristine.outcome);
        assert_eq!(recovered.result.metrics, pristine.metrics);
        assert_eq!(recovered.result.trace.unwrap(), pristine.trace.unwrap());
    }

    #[test]
    fn recovering_recovers_where_the_pristine_run_starves() {
        let net = path_network(4).unwrap();
        // One drop kills the pristine flood for good …
        let starved = run(
            &net,
            &Flood { needed: 1 },
            &mut DropFirst {
                inner: FifoScheduler::new(),
                remaining: 1,
            },
            ExecutionConfig::default(),
        );
        assert_eq!(starved.outcome, Outcome::Quiescent);
        assert!(starved.metrics.messages_lost() > 0);
        assert_eq!(starved.metrics.messages_delivered, 0);
        // … but one re-flood round resurrects it.
        let recovered = run_recovering(
            &net,
            &Flood { needed: 1 },
            &mut DropFirst {
                inner: FifoScheduler::new(),
                remaining: 1,
            },
            ExecutionConfig::default(),
            2,
        );
        assert_eq!(recovered.result.outcome, Outcome::Terminated);
        assert_eq!(recovered.reflood_rounds, 1);
        assert!(recovered.reflood_sends >= 1);
        assert_eq!(recovered.result.metrics.messages_dropped, 1);
    }

    #[test]
    fn retry_budget_bounds_the_rounds_and_total_loss_still_starves() {
        let net = path_network(3).unwrap();
        let recovered = run_recovering(
            &net,
            &Flood { needed: 1 },
            &mut DropFirst {
                inner: FifoScheduler::new(),
                remaining: u64::MAX,
            },
            ExecutionConfig::default(),
            3,
        );
        assert_eq!(recovered.result.outcome, Outcome::Quiescent);
        assert_eq!(recovered.reflood_rounds, 3);
        assert_eq!(recovered.result.metrics.messages_delivered, 0);
        assert_eq!(
            recovered.result.metrics.messages_lost(),
            recovered.result.metrics.messages_sent
        );
        // Each round re-injected exactly σ₀ (no vertex ever forwarded).
        assert_eq!(recovered.reflood_sends, 3);
    }
}
