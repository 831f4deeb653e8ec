//! The reference engines: the naive full-scan executor and the retained
//! queue-forest executor.
//!
//! Two specification-grade engines live here, each pinning a different layer
//! of the production core in [`crate::engine`]:
//!
//! 1. **[`run_full_scan`] — the scheduling specification.** The original
//!    executor: on every delivery it rebuilds the complete list of pending
//!    edges (an O(E) scan) and hands it to [`Scheduler::pick_full_scan`]. The
//!    equivalence property tests run it against the incremental engine with
//!    identically seeded schedulers and assert bit-identical traces, metrics
//!    and outcomes, so any divergence in incremental scheduler bookkeeping
//!    shows up as a test failure. Do not use it for real workloads: a run
//!    costs O(E · deliveries).
//! 2. **[`run_queue_forest`] — the memory-layout specification.** The
//!    incremental engine exactly as it stood before the flat rewrite: one
//!    heap-allocated `VecDeque` per edge holding its own copy of every
//!    message, per-delivery `Vec` returns from
//!    [`AnonymousProtocol::on_receive`] (so a flood arrives expanded into one
//!    clone per out-port), `DiGraph` pointer-chasing adjacency.
//!    Scheduling is already incremental here; only the data layout is old.
//!    The engine differential suite pins the flat core
//!    ([`crate::engine::run_observed`]) bit-identical to this engine —
//!    traces, metrics, wire bits, step logs, final states — and
//!    `BENCH_scaling.json` reports the flat core's speedup over it.

use std::collections::VecDeque;

use anet_graph::{Network, NodeId};

use crate::engine::{ExecutionConfig, Outcome, RecoveredRun, RunResult};
use crate::metrics::RunMetrics;
use crate::observer::Observer;
use crate::protocol::RefloodProtocol;
use crate::scheduler::{PendingEdge, Scheduler, SchedulerAction};
use crate::trace::{SendEvent, Trace};
use crate::{AnonymousProtocol, NodeContext, Wire};

/// Runs `protocol` on `network` under `scheduler`, rebuilding the full candidate
/// list on every delivery and choosing via [`Scheduler::pick_full_scan`].
///
/// Semantically identical to [`crate::engine::run`]; see the [module docs](self)
/// for why it is kept.
///
/// # Panics
///
/// Panics if the protocol emits a message on an out-port that does not exist at
/// the emitting vertex — that is a bug in the protocol, not a run-time condition.
pub fn run_full_scan<P, Sch>(
    network: &Network,
    protocol: &P,
    scheduler: &mut Sch,
    config: ExecutionConfig,
) -> RunResult<P::State, P::Message>
where
    P: AnonymousProtocol,
    Sch: Scheduler + ?Sized,
{
    let graph = network.graph();
    let contexts: Vec<NodeContext> = graph
        .nodes()
        .map(|n| NodeContext::new(graph.in_degree(n), graph.out_degree(n)))
        .collect();
    let mut states: Vec<P::State> = contexts
        .iter()
        .map(|ctx| protocol.initial_state(ctx))
        .collect();

    let mut queues: Vec<VecDeque<(u64, P::Message)>> =
        (0..graph.edge_count()).map(|_| VecDeque::new()).collect();
    let mut metrics = RunMetrics::new(graph.edge_count());
    let mut trace = if config.record_trace {
        Some(Trace::new())
    } else {
        None
    };
    let mut next_seq: u64 = 0;

    let send = |from: anet_graph::NodeId,
                port: usize,
                message: P::Message,
                queues: &mut Vec<VecDeque<(u64, P::Message)>>,
                metrics: &mut RunMetrics,
                trace: &mut Option<Trace<P::Message>>,
                next_seq: &mut u64| {
        let out_edges = graph.out_edges(from);
        assert!(
            port < out_edges.len(),
            "protocol {} emitted on out-port {port} of a vertex with out-degree {}",
            protocol.name(),
            out_edges.len()
        );
        let edge = out_edges[port];
        let bits = message.wire_bits();
        metrics.record_send(edge.index(), bits);
        if let Some(t) = trace.as_mut() {
            t.push(SendEvent {
                seq: *next_seq,
                edge,
                src: from,
                dst: graph.edge_dst(edge),
                bits,
                message: message.clone(),
            });
        }
        queues[edge.index()].push_back((*next_seq, message));
        *next_seq += 1;
    };

    // σ₀: the root transmits its initial messages.
    for (port, message) in protocol.root_messages(graph.out_degree(network.root())) {
        send(
            network.root(),
            port,
            message,
            &mut queues,
            &mut metrics,
            &mut trace,
            &mut next_seq,
        );
    }

    let terminal = network.terminal();
    let mut outcome = Outcome::Quiescent;
    let mut deliveries_at_termination = None;

    // A protocol whose terminal accepts in its initial state terminates immediately.
    if protocol.should_terminate(&states[terminal.index()]) {
        outcome = Outcome::Terminated;
        deliveries_at_termination = Some(0);
        return RunResult {
            outcome,
            states,
            metrics,
            deliveries_at_termination,
            trace,
        };
    }

    loop {
        // The defining full scan: every pending edge, in edge-id order.
        let candidates: Vec<PendingEdge> = graph
            .edges()
            .filter_map(|e| {
                queues[e.index()].front().map(|(seq, _)| PendingEdge {
                    edge: e,
                    head_seq: *seq,
                    queue_len: queues[e.index()].len(),
                    into_terminal: graph.edge_dst(e) == terminal,
                })
            })
            .collect();
        if candidates.is_empty() {
            break;
        }
        if metrics.messages_delivered >= config.max_deliveries {
            outcome = Outcome::BudgetExhausted;
            break;
        }
        let pick = scheduler.pick_full_scan(&candidates);
        let chosen = candidates[pick];
        let dst = graph.edge_dst(chosen.edge);
        // The fault hook fires exactly as in the incremental engine, so a
        // fault adapter consumes its RNG identically on both paths.
        let queue = &mut queues[chosen.edge.index()];
        let action = scheduler.deliver_action(chosen.edge, dst, queue.len());
        let (_, message) = match action {
            SchedulerAction::Reorder(i) => {
                let idx = i.min(queue.len() - 1);
                queue.remove(idx).expect("index clamped below queue length")
            }
            _ => queue
                .pop_front()
                .expect("candidate edges have queued messages"),
        };
        if action == SchedulerAction::Duplicate {
            queue.push_back((next_seq, message.clone()));
            next_seq += 1;
            metrics.record_duplicate();
        }
        match action {
            SchedulerAction::Drop => {
                metrics.record_drop();
                continue;
            }
            SchedulerAction::NodeDown => {
                metrics.record_crashed_delivery();
                continue;
            }
            SchedulerAction::Deliver | SchedulerAction::Duplicate | SchedulerAction::Reorder(_) => {
            }
        }
        let in_port = graph.in_port(chosen.edge);
        metrics.record_delivery();

        let emitted = protocol.on_receive(
            &contexts[dst.index()],
            &mut states[dst.index()],
            in_port,
            &message,
        );
        for (port, out_message) in emitted {
            send(
                dst,
                port,
                out_message,
                &mut queues,
                &mut metrics,
                &mut trace,
                &mut next_seq,
            );
        }

        if dst == terminal && protocol.should_terminate(&states[terminal.index()]) {
            outcome = Outcome::Terminated;
            deliveries_at_termination = Some(metrics.messages_delivered);
            break;
        }
    }

    RunResult {
        outcome,
        states,
        metrics,
        deliveries_at_termination,
        trace,
    }
}

/// Runs `protocol` through the retained queue-forest engine (see the [module
/// docs](self), item 2): incremental scheduling over per-edge `VecDeque`s.
///
/// Takes the arguments of [`crate::engine::run_observed`] and is
/// behaviourally identical to it — the engine differential suite pins the two
/// bit-for-bit, observer events included.
///
/// # Panics
///
/// Panics under the same conditions as [`crate::engine::run`].
pub fn run_queue_forest<P, Sch, F, O>(
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
    let budget = config.max_deliveries;
    if !config.record_trace {
        return queue_forest_loop(
            network,
            protocol,
            scheduler,
            budget,
            corrupt,
            retry_budget,
            observer,
        );
    }
    let mut traced = (Trace::new(), observer);
    let mut run = queue_forest_loop(
        network,
        protocol,
        scheduler,
        budget,
        corrupt,
        retry_budget,
        &mut traced,
    );
    run.result.trace = Some(traced.0);
    run
}

/// The per-edge queues and counters every send touches, with the scheduler
/// and observer it reports to.
struct Forest<'r, M, Sch: ?Sized, O: ?Sized> {
    network: &'r Network,
    protocol_name: &'static str,
    scheduler: &'r mut Sch,
    observer: &'r mut O,
    queues: Vec<VecDeque<(u64, M)>>,
    metrics: RunMetrics,
    in_flight: usize,
    next_seq: u64,
}

impl<M, Sch, O> Forest<'_, M, Sch, O>
where
    M: Wire,
    Sch: Scheduler + ?Sized,
    O: Observer<M> + ?Sized,
{
    /// Charges `message` to `from`'s out-port `port` and queues it there.
    fn send(&mut self, from: NodeId, port: usize, message: M) {
        let graph = self.network.graph();
        let out_edges = graph.out_edges(from);
        assert!(
            port < out_edges.len(),
            "protocol {} emitted on out-port {port} of a vertex with out-degree {}",
            self.protocol_name,
            out_edges.len()
        );
        let edge = out_edges[port];
        let bits = message.wire_bits();
        self.metrics.record_send(edge.index(), bits);
        self.observer.on_send(&SendEvent {
            seq: self.next_seq,
            edge,
            src: from,
            dst: graph.edge_dst(edge),
            bits,
            message: &message,
        });
        let into_terminal = graph.edge_dst(edge) == self.network.terminal();
        self.scheduler.on_send(edge, self.next_seq, into_terminal);
        let queue = &mut self.queues[edge.index()];
        if queue.is_empty() {
            // The edge turns active and this message becomes its head.
            self.scheduler.on_head(edge, self.next_seq, into_terminal);
        }
        queue.push_back((self.next_seq, message));
        self.in_flight += 1;
        self.next_seq += 1;
    }
}

/// The queue-forest engine loop, retained from the pre-flat engine:
/// corruption hook, optional re-flood rounds, and incremental delivery over
/// one `VecDeque` per edge.
fn queue_forest_loop<P, Sch, F, O>(
    network: &Network,
    protocol: &P,
    scheduler: &mut Sch,
    max_deliveries: u64,
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
    let graph = network.graph();
    let terminal = network.terminal();
    let contexts: Vec<NodeContext> = graph
        .nodes()
        .map(|n| NodeContext::new(graph.in_degree(n), graph.out_degree(n)))
        .collect();
    let mut states: Vec<P::State> = contexts
        .iter()
        .map(|ctx| protocol.initial_state(ctx))
        .collect();
    corrupt(&mut states);

    scheduler.begin_run(graph.edge_count());
    let mut forest = Forest {
        network,
        protocol_name: protocol.name(),
        scheduler,
        observer,
        // One FIFO queue per edge; messages are moved, never cloned, on the
        // delivery path (the only clone is the one a trace observer keeps).
        queues: (0..graph.edge_count()).map(|_| VecDeque::new()).collect(),
        metrics: RunMetrics::new(graph.edge_count()),
        in_flight: 0,
        next_seq: 0,
    };

    // σ₀: the root transmits its initial messages.
    for (port, message) in protocol.root_messages(graph.out_degree(network.root())) {
        forest.send(network.root(), port, message);
    }

    let mut outcome = Outcome::Quiescent;
    let mut deliveries_at_termination = None;
    // A protocol whose terminal accepts in its initial state terminates immediately.
    if protocol.should_terminate(&states[terminal.index()]) {
        outcome = Outcome::Terminated;
        deliveries_at_termination = Some(0);
    }

    let mut reflood_rounds: u32 = 0;
    let mut reflood_sends: u64 = 0;
    let mut reflood_bits: u64 = 0;

    while !outcome.terminated() {
        if forest.in_flight == 0 {
            // Drained. A re-flood round fires only if the adversary actually
            // destroyed traffic (so reliable runs stay bit-identical to the
            // pristine path) and the retry budget has rounds left (so total
            // loss still starves detectably instead of hanging).
            if reflood_rounds >= retry_budget || forest.metrics.messages_lost() == 0 {
                break;
            }
            reflood_rounds += 1;
            let sends_before = forest.metrics.messages_sent;
            let bits_before = forest.metrics.total_bits;
            // The root re-transmits σ₀ …
            for (port, message) in protocol.root_messages(graph.out_degree(network.root())) {
                forest.send(network.root(), port, message);
            }
            // … then every vertex re-sends its frontier, in node-id order
            // (deterministic on the canonical topology). The root is included:
            // in a cyclic network it receives messages like any other vertex,
            // and its frontier is separate from σ₀.
            for node in graph.nodes() {
                for (port, message) in
                    protocol.reflood(&contexts[node.index()], &states[node.index()])
                {
                    forest.send(node, port, message);
                }
            }
            reflood_sends += forest.metrics.messages_sent - sends_before;
            reflood_bits += forest.metrics.total_bits - bits_before;
            if forest.in_flight == 0 {
                // Nothing to re-send: the run is starved for good.
                break;
            }
            continue;
        }
        if forest.metrics.messages_delivered >= max_deliveries {
            outcome = Outcome::BudgetExhausted;
            break;
        }
        let edge = forest.scheduler.next_edge();
        let dst = graph.edge_dst(edge);
        let queue = &mut forest.queues[edge.index()];
        assert!(
            !queue.is_empty(),
            "scheduler {} chose edge {edge:?} which has no queued message",
            forest.scheduler.name()
        );
        let action = forest.scheduler.deliver_action(edge, dst, queue.len());
        let (seq, message) = match action {
            // Deliver a mid-queue message instead of the head (clamped).
            SchedulerAction::Reorder(i) => {
                let idx = i.min(queue.len() - 1);
                queue.remove(idx).expect("index clamped below queue length")
            }
            _ => queue.pop_front().expect("emptiness asserted above"),
        };
        forest.observer.on_step(edge, action, seq);
        forest.in_flight -= 1;
        if action == SchedulerAction::Duplicate {
            // The copy is an adversary artifact, not a protocol send: it gets
            // a fresh sequence number (the schedulers rely on uniqueness) but no
            // send event and no wire bits.
            forest
                .scheduler
                .on_send(edge, forest.next_seq, dst == terminal);
            queue.push_back((forest.next_seq, message.clone()));
            forest.next_seq += 1;
            forest.in_flight += 1;
            forest.metrics.record_duplicate();
        }
        // Report the edge's new state before the protocol reacts, so a
        // re-activating send during `on_receive` observes a consistent queue.
        match queue.front() {
            Some(&(head, _)) => forest.scheduler.on_head(edge, head, dst == terminal),
            None => forest.scheduler.on_idle(edge),
        }
        match action {
            SchedulerAction::Drop => {
                forest.metrics.record_drop();
                continue;
            }
            SchedulerAction::NodeDown => {
                forest.metrics.record_crashed_delivery();
                continue;
            }
            SchedulerAction::Deliver | SchedulerAction::Duplicate | SchedulerAction::Reorder(_) => {
            }
        }
        forest.metrics.record_delivery();

        let emitted = protocol.on_receive(
            &contexts[dst.index()],
            &mut states[dst.index()],
            graph.in_port(edge),
            &message,
        );
        for (port, out_message) in emitted {
            forest.send(dst, port, out_message);
        }

        if dst == terminal && protocol.should_terminate(&states[terminal.index()]) {
            outcome = Outcome::Terminated;
            deliveries_at_termination = Some(forest.metrics.messages_delivered);
        }
    }

    RecoveredRun {
        result: RunResult {
            outcome,
            states,
            metrics: forest.metrics,
            deliveries_at_termination,
            trace: None,
        },
        reflood_rounds,
        reflood_sends,
        reflood_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::engine::tests::Flood;
    use crate::scheduler::standard_battery;
    use anet_graph::generators::chain_gn;

    #[test]
    fn both_engines_agree_on_the_chain_under_the_whole_battery() {
        let net = chain_gn(6).unwrap();
        let incremental = standard_battery(11, 3);
        let reference = standard_battery(11, 3);
        for (mut inc, mut full) in incremental.into_iter().zip(reference) {
            let a = run(
                &net,
                &Flood { needed: 6 },
                inc.as_mut(),
                ExecutionConfig::with_trace(),
            );
            let b = run_full_scan(
                &net,
                &Flood { needed: 6 },
                full.as_mut(),
                ExecutionConfig::with_trace(),
            );
            assert_eq!(a.outcome, b.outcome, "scheduler {}", inc.name());
            assert_eq!(a.metrics, b.metrics, "scheduler {}", inc.name());
            assert_eq!(
                a.deliveries_at_termination,
                b.deliveries_at_termination,
                "scheduler {}",
                inc.name()
            );
            assert_eq!(a.trace, b.trace, "scheduler {}", inc.name());
        }
    }
}
