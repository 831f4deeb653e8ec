//! The reference engine: the naive full-scan executor, an executable
//! specification of the paper's asynchronous model.
//!
//! [`run_full_scan`] takes [`crate::engine::run_observed`]'s arguments and
//! returns its result. It specifies every part of a run the production
//! engine in [`crate::engine`] performs, in the plainest code that does it:
//!
//! * **Scheduling.** On every step it rebuilds the complete list of pending
//!   edges (an O(E) scan) and hands it to [`Scheduler::pick_full_scan`]. It
//!   calls [`Scheduler::begin_run`] once and [`Scheduler::deliver_action`]
//!   once per step, exactly as the engine does, but never the incremental
//!   hooks (`next_edge`, `on_send`, `on_head`, `on_idle`), so any slip in a
//!   scheduler's incremental bookkeeping shows up as a divergence.
//! * **Per-edge FIFO queues.** One `VecDeque` per edge holds its own copy of
//!   every message queued on it, in send order.
//! * **Floods.** Emissions come through
//!   [`AnonymousProtocol::on_receive`](crate::AnonymousProtocol::on_receive),
//!   whose default expands a flood into one clone per out-port, so the
//!   engine's store-once flood is checked against an independent expansion.
//! * **Corrupted starts and re-flood recovery.** The corruption hook runs on
//!   the initial states before σ₀ is sent, and re-flood rounds fire under the
//!   contract documented on [`crate::engine::run_observed`].
//! * **Observer events.** The observer sees every charged send and every
//!   step, and [`ExecutionConfig::record_trace`] adds a [`Trace`].
//!
//! The `engine_equivalence` property suite runs it against the engine with
//! identically constructed schedulers and asserts bit-identical outcomes,
//! metrics, states, traces, step logs and re-flood accounting. Do not use it
//! for real workloads: a run costs O(E · deliveries).

use std::collections::VecDeque;

use anet_graph::{Network, NodeId};

use crate::engine::{ExecutionConfig, Outcome, RecoveredRun, RunResult};
use crate::metrics::RunMetrics;
use crate::observer::Observer;
use crate::protocol::RefloodProtocol;
use crate::scheduler::{PendingEdge, Scheduler, SchedulerAction};
use crate::trace::{SendEvent, Trace};
use crate::{NodeContext, Wire};

/// Runs `protocol` on `network` under `scheduler`, rebuilding the full
/// candidate list on every step and choosing via
/// [`Scheduler::pick_full_scan`].
///
/// Takes the arguments of [`crate::engine::run_observed`] and is
/// semantically identical to it; see the [module docs](self) for why it is
/// kept.
///
/// # Panics
///
/// Panics if the protocol emits a message on an out-port that does not exist
/// at the emitting vertex — that is a bug in the protocol, not a run-time
/// condition.
pub fn run_full_scan<P, Sch, F, O>(
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
    let graph = network.graph();
    let root = network.root();
    let terminal = network.terminal();
    let contexts: Vec<NodeContext> = graph
        .nodes()
        .map(|n| NodeContext::new(graph.in_degree(n), graph.out_degree(n)))
        .collect();
    let mut states: Vec<P::State> = contexts
        .iter()
        .map(|ctx| protocol.initial_state(ctx))
        .collect();

    scheduler.begin_run(graph.edge_count());
    corrupt(&mut states);
    let mut channels = Channels {
        network,
        protocol_name: protocol.name(),
        observer,
        trace: config.record_trace.then(Trace::new),
        queues: (0..graph.edge_count()).map(|_| VecDeque::new()).collect(),
        metrics: RunMetrics::new(graph.edge_count()),
        next_seq: 0,
    };

    // σ₀: the root transmits its initial messages.
    for (port, message) in protocol.root_messages(graph.out_degree(root)) {
        channels.send(root, port, message);
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
        // The defining full scan: every pending edge, in edge-id order.
        let candidates: Vec<PendingEdge> = graph
            .edges()
            .filter_map(|e| {
                let queue = &channels.queues[e.index()];
                queue.front().map(|&(head_seq, _)| PendingEdge {
                    edge: e,
                    head_seq,
                    queue_len: queue.len(),
                    into_terminal: graph.edge_dst(e) == terminal,
                })
            })
            .collect();
        if candidates.is_empty() {
            // Drained: a re-flood round fires only if traffic was destroyed
            // and the retry budget has rounds left.
            if reflood_rounds >= retry_budget || channels.metrics.messages_lost() == 0 {
                break;
            }
            reflood_rounds += 1;
            let sends_before = channels.metrics.messages_sent;
            let bits_before = channels.metrics.total_bits;
            // The root re-transmits σ₀, then every vertex, the root included,
            // re-sends its frontier in node-id order.
            for (port, message) in protocol.root_messages(graph.out_degree(root)) {
                channels.send(root, port, message);
            }
            for node in graph.nodes() {
                for (port, message) in
                    protocol.reflood(&contexts[node.index()], &states[node.index()])
                {
                    channels.send(node, port, message);
                }
            }
            reflood_sends += channels.metrics.messages_sent - sends_before;
            reflood_bits += channels.metrics.total_bits - bits_before;
            if channels.metrics.messages_sent == sends_before {
                // A round that queued nothing: the run is starved for good.
                break;
            }
            continue;
        }
        if channels.metrics.messages_delivered >= config.max_deliveries {
            outcome = Outcome::BudgetExhausted;
            break;
        }
        let edge = candidates[scheduler.pick_full_scan(&candidates)].edge;
        let dst = graph.edge_dst(edge);
        let queue = &mut channels.queues[edge.index()];
        let action = scheduler.deliver_action(edge, dst, queue.len());
        let (seq, message) = match action {
            SchedulerAction::Reorder(i) => queue
                .remove(i.min(queue.len() - 1))
                .expect("index clamped below queue length"),
            _ => queue
                .pop_front()
                .expect("candidate edges have queued messages"),
        };
        channels.observer.on_step(edge, action, seq);
        match action {
            SchedulerAction::Drop => {
                channels.metrics.record_drop();
                continue;
            }
            SchedulerAction::NodeDown => {
                channels.metrics.record_crashed_delivery();
                continue;
            }
            SchedulerAction::Duplicate => {
                // An adversary copy, not a protocol send: a fresh sequence
                // number, but no send event and no wire bits.
                queue.push_back((channels.next_seq, message.clone()));
                channels.next_seq += 1;
                channels.metrics.record_duplicate();
            }
            SchedulerAction::Deliver | SchedulerAction::Reorder(_) => {}
        }
        channels.metrics.record_delivery();

        let emitted = protocol.on_receive(
            &contexts[dst.index()],
            &mut states[dst.index()],
            graph.in_port(edge),
            &message,
        );
        for (port, out_message) in emitted {
            channels.send(dst, port, out_message);
        }

        if dst == terminal && protocol.should_terminate(&states[terminal.index()]) {
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
            trace: channels.trace,
        },
        reflood_rounds,
        reflood_sends,
        reflood_bits,
    }
}

/// The per-edge queues and counters every send touches, with the observer
/// (and optional trace) it reports to.
struct Channels<'r, M, O: ?Sized> {
    network: &'r Network,
    protocol_name: &'static str,
    observer: &'r mut O,
    trace: Option<Trace<M>>,
    queues: Vec<VecDeque<(u64, M)>>,
    metrics: RunMetrics,
    next_seq: u64,
}

impl<M, O> Channels<'_, M, O>
where
    M: Wire + Clone,
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
        let event = SendEvent {
            seq: self.next_seq,
            edge,
            src: from,
            dst: graph.edge_dst(edge),
            bits,
            message: &message,
        };
        self.observer.on_send(&event);
        if let Some(trace) = self.trace.as_mut() {
            trace.on_send(&event);
        }
        self.queues[edge.index()].push_back((self.next_seq, message));
        self.next_seq += 1;
    }
}
