//! Delivery schedulers — the "adversary" choosing the asynchronous interleaving.
//!
//! The model is asynchronous: in-flight messages may be delivered in any order.
//! Correctness claims (Theorems 3.1, 4.2, 5.1) must therefore hold for *every*
//! delivery order, and the tests replay each protocol under all the schedulers
//! defined here plus several random seeds. Messages on a single edge stay in FIFO
//! order (the engine keeps one queue per edge); the scheduler picks which edge
//! delivers next.
//!
//! # The incremental scheduler contract
//!
//! Schedulers are *stateful*: instead of being handed a freshly built list of all
//! pending edges on every delivery (which costs O(E) per delivery), they maintain
//! their own view of the **active-edge set** — the edges whose queues are
//! non-empty — from a stream of engine notifications:
//!
//! 1. [`Scheduler::begin_run`] is called once per run with the edge count.
//! 2. [`Scheduler::on_head`] is called whenever an edge's *head* message changes:
//!    when a send makes an idle edge active, and after a delivery that leaves the
//!    edge's queue non-empty (the next queued message becomes the head).
//! 3. [`Scheduler::on_idle`] is called when a delivery empties an edge's queue.
//! 4. [`Scheduler::next_edge`] is called only while at least one edge is active,
//!    and must return an active edge; the engine then delivers that edge's head
//!    and reports the edge's new state via exactly one `on_head` / `on_idle`
//!    before the next `next_edge` call.
//!
//! Under this contract every scheduler here runs in O(1) or O(log E) per
//! delivery: FIFO/LIFO and the two terminal adversaries keep binary heaps ordered
//! by head sequence number (one entry per *active edge*, never per message), and
//! the random scheduler keeps a Fenwick-indexed active set supporting uniform
//! order-statistics sampling.
//!
//! # The full-scan reference semantics
//!
//! Every scheduler also implements [`Scheduler::pick_full_scan`], the naive
//! specification it must agree with: given the complete candidate list (all
//! active edges in edge-id order), return the index of the edge to deliver. The
//! [`crate::reference`] engine drives runs entirely through `pick_full_scan`,
//! rebuilding the candidate list on every delivery, and the equivalence property
//! tests assert that both paths produce bit-identical traces. The incremental
//! implementations are constructed to agree *exactly*: sequence numbers are
//! unique, so each deterministic policy has a unique argmin/argmax, and the
//! random policy consumes one RNG draw per delivery in both paths and maps it to
//! the same rank in the same edge-id ordering.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::collections::VecDeque;

use anet_graph::{EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the engine should do with the head message of the edge the scheduler
/// just chose — the **fault contract** between schedulers and the engine.
///
/// After [`Scheduler::next_edge`] names an edge, the engine asks
/// [`Scheduler::deliver_action`] how to treat that edge's queue. Reliable
/// schedulers keep the provided default ([`SchedulerAction::Deliver`]) and
/// never see a difference; fault adapters such as
/// [`crate::faults::FaultyScheduler`] return the other variants to model lossy
/// and reordering adversaries. Whatever the action, the engine still reports
/// the edge's new queue state via exactly one
/// [`Scheduler::on_head`]/[`Scheduler::on_idle`] before the next
/// [`Scheduler::next_edge`] call, so inner schedulers stay consistent without
/// knowing faults exist.
///
/// Wire-bit accounting is unaffected by every variant: bits are charged at
/// *send* time, and the adversary manipulating deliveries transmits nothing of
/// its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerAction {
    /// Deliver the head message normally.
    Deliver,
    /// Silently discard the head message (lossy channel). No `on_receive`
    /// runs and nothing is delivered; the run's in-flight count decreases, so
    /// drops can only hasten quiescence, never livelock the engine.
    Drop,
    /// Deliver the head message *and* re-enqueue a copy of it at the tail of
    /// the same edge's queue with a fresh sequence number (duplicating
    /// channel). The copy is an adversary artifact: it is not a protocol
    /// send, so it is neither traced nor charged wire bits.
    Duplicate,
    /// The destination vertex is crashed: the head message is consumed and
    /// lost without running `on_receive` (delivery-while-crashed).
    NodeDown,
    /// Deliver the message at queue position `min(i, queue_len - 1)` instead
    /// of the head, reordering within the edge's queue. `Reorder(0)` is
    /// equivalent to [`SchedulerAction::Deliver`].
    Reorder(usize),
}

/// A candidate delivery offered to [`Scheduler::pick_full_scan`]: the head
/// message of one edge's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingEdge {
    /// The edge whose head message would be delivered.
    pub edge: EdgeId,
    /// Global send sequence number of the head message (smaller = older).
    pub head_seq: u64,
    /// Number of messages queued on this edge.
    pub queue_len: usize,
    /// Whether this edge points at the terminal vertex.
    pub into_terminal: bool,
}

/// Chooses which pending edge delivers its head message next.
///
/// See the [module docs](self) for the incremental contract and how it relates
/// to the full-scan reference semantics.
pub trait Scheduler {
    /// A short name used in reports.
    fn name(&self) -> &'static str;

    /// Resets per-run structural state for a network with `edge_count` edges.
    ///
    /// Persistent state that deliberately survives across runs — the random
    /// scheduler's RNG stream — is *not* reset, matching the historical
    /// behaviour of reusing one scheduler for several runs.
    fn begin_run(&mut self, edge_count: usize);

    /// Notifies that `edge`'s head message is now the send with `head_seq`.
    fn on_head(&mut self, edge: EdgeId, head_seq: u64, into_terminal: bool);

    /// Notifies that `edge`'s queue drained and the edge is now idle.
    fn on_idle(&mut self, edge: EdgeId);

    /// Picks the next edge to deliver from. Called only while an edge is active.
    fn next_edge(&mut self) -> EdgeId;

    /// Reference semantics: picks an index into the (non-empty) candidate slice
    /// holding all active edges in increasing edge-id order.
    fn pick_full_scan(&mut self, candidates: &[PendingEdge]) -> usize;

    /// The fault hook: after [`Scheduler::next_edge`] (or
    /// [`Scheduler::pick_full_scan`]) chose `edge`, decides what the engine
    /// does with its queue. `dst` is the edge's destination vertex and
    /// `queue_len` the number of messages queued on the edge (≥ 1).
    ///
    /// Called exactly once per engine step, by both the incremental and the
    /// full-scan engine, so fault adapters consume their RNG identically on
    /// both paths. The default is reliable delivery, which keeps every
    /// pre-existing scheduler bit-identical to its historical behaviour.
    fn deliver_action(
        &mut self,
        _edge: EdgeId,
        _dst: NodeId,
        _queue_len: usize,
    ) -> SchedulerAction {
        SchedulerAction::Deliver
    }
}

/// Boxed schedulers forward every call, so adapters like
/// [`crate::faults::FaultyScheduler`] compose over `Box<dyn Scheduler>`
/// battery members without unboxing.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn begin_run(&mut self, edge_count: usize) {
        (**self).begin_run(edge_count);
    }

    fn on_head(&mut self, edge: EdgeId, head_seq: u64, into_terminal: bool) {
        (**self).on_head(edge, head_seq, into_terminal);
    }

    fn on_idle(&mut self, edge: EdgeId) {
        (**self).on_idle(edge);
    }

    fn next_edge(&mut self) -> EdgeId {
        (**self).next_edge()
    }

    fn pick_full_scan(&mut self, candidates: &[PendingEdge]) -> usize {
        (**self).pick_full_scan(candidates)
    }

    fn deliver_action(&mut self, edge: EdgeId, dst: NodeId, queue_len: usize) -> SchedulerAction {
        (**self).deliver_action(edge, dst, queue_len)
    }
}

/// A binary heap over the heads of active edges, keyed by head sequence number.
///
/// The engine's notification contract guarantees one live entry per active edge:
/// an edge's head only changes when its own head is delivered, and the delivered
/// entry is exactly the one `pop` removed. No lazy invalidation is needed.
#[derive(Debug, Clone, Default)]
struct MinHeadHeap {
    heap: BinaryHeap<Reverse<(u64, EdgeId)>>,
}

impl MinHeadHeap {
    fn clear(&mut self) {
        self.heap.clear();
    }

    fn push(&mut self, seq: u64, edge: EdgeId) {
        self.heap.push(Reverse((seq, edge)));
    }

    fn pop(&mut self) -> Option<EdgeId> {
        self.heap.pop().map(|Reverse((_, edge))| edge)
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Delivers the globally oldest in-flight message first (classic FIFO network).
#[derive(Debug, Clone, Default)]
pub struct FifoScheduler {
    heads: MinHeadHeap,
}

impl FifoScheduler {
    /// Creates a FIFO scheduler.
    pub fn new() -> Self {
        FifoScheduler::default()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn begin_run(&mut self, _edge_count: usize) {
        self.heads.clear();
    }

    fn on_head(&mut self, edge: EdgeId, head_seq: u64, _into_terminal: bool) {
        self.heads.push(head_seq, edge);
    }

    fn on_idle(&mut self, _edge: EdgeId) {}

    fn next_edge(&mut self) -> EdgeId {
        self.heads
            .pop()
            .expect("next_edge called with no active edge")
    }

    fn pick_full_scan(&mut self, candidates: &[PendingEdge]) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.head_seq)
            .map(|(i, _)| i)
            .expect("candidates are non-empty")
    }
}

/// Delivers the newest *head* message first — a "bursty" adversary that lets
/// freshly created messages overtake old ones (per-edge queues stay FIFO, so the
/// comparison is over the head of each active edge).
#[derive(Debug, Clone, Default)]
pub struct LifoScheduler {
    heads: BinaryHeap<(u64, EdgeId)>,
}

impl LifoScheduler {
    /// Creates a LIFO scheduler.
    pub fn new() -> Self {
        LifoScheduler::default()
    }
}

impl Scheduler for LifoScheduler {
    fn name(&self) -> &'static str {
        "lifo"
    }

    fn begin_run(&mut self, _edge_count: usize) {
        self.heads.clear();
    }

    fn on_head(&mut self, edge: EdgeId, head_seq: u64, _into_terminal: bool) {
        self.heads.push((head_seq, edge));
    }

    fn on_idle(&mut self, _edge: EdgeId) {}

    fn next_edge(&mut self) -> EdgeId {
        let (_, edge) = self
            .heads
            .pop()
            .expect("next_edge called with no active edge");
        edge
    }

    fn pick_full_scan(&mut self, candidates: &[PendingEdge]) -> usize {
        candidates
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.head_seq)
            .map(|(i, _)| i)
            .expect("candidates are non-empty")
    }
}

/// Shared core of the two terminal adversaries: active edges are kept in two
/// oldest-first classes, edges into the terminal and everything else, and
/// `next_edge` drains one class before touching the other.
#[derive(Debug, Clone, Default)]
struct TwoClassHeads {
    terminal: MinHeadHeap,
    other: MinHeadHeap,
}

impl TwoClassHeads {
    fn clear(&mut self) {
        self.terminal.clear();
        self.other.clear();
    }

    fn push(&mut self, edge: EdgeId, head_seq: u64, into_terminal: bool) {
        if into_terminal {
            self.terminal.push(head_seq, edge);
        } else {
            self.other.push(head_seq, edge);
        }
    }

    /// Pops the oldest head from the preferred class, falling back to the other.
    fn pop_preferring(&mut self, terminal_first: bool) -> EdgeId {
        let (first, second) = if terminal_first {
            (&mut self.terminal, &mut self.other)
        } else {
            (&mut self.other, &mut self.terminal)
        };
        let heap = if first.is_empty() { second } else { first };
        heap.pop().expect("next_edge called with no active edge")
    }
}

/// Starves the terminal: edges *not* pointing at the terminal are drained first
/// (oldest first), and messages into the terminal are delivered only when nothing
/// else is pending. This is the adversary that maximises how much of the graph has
/// acted before the terminal sees anything.
#[derive(Debug, Clone, Default)]
pub struct TerminalLastScheduler {
    heads: TwoClassHeads,
}

impl TerminalLastScheduler {
    /// Creates a terminal-starving scheduler.
    pub fn new() -> Self {
        TerminalLastScheduler::default()
    }
}

impl Scheduler for TerminalLastScheduler {
    fn name(&self) -> &'static str {
        "terminal-last"
    }

    fn begin_run(&mut self, _edge_count: usize) {
        self.heads.clear();
    }

    fn on_head(&mut self, edge: EdgeId, head_seq: u64, into_terminal: bool) {
        self.heads.push(edge, head_seq, into_terminal);
    }

    fn on_idle(&mut self, _edge: EdgeId) {}

    fn next_edge(&mut self) -> EdgeId {
        self.heads.pop_preferring(false)
    }

    fn pick_full_scan(&mut self, candidates: &[PendingEdge]) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.into_terminal, c.head_seq))
            .map(|(i, _)| i)
            .expect("candidates are non-empty")
    }
}

/// Rushes the terminal: messages into the terminal are delivered as soon as they
/// exist. This adversary tries to make the terminal accept *early* and is the one
/// that catches premature-termination bugs.
#[derive(Debug, Clone, Default)]
pub struct TerminalFirstScheduler {
    heads: TwoClassHeads,
}

impl TerminalFirstScheduler {
    /// Creates a terminal-rushing scheduler.
    pub fn new() -> Self {
        TerminalFirstScheduler::default()
    }
}

impl Scheduler for TerminalFirstScheduler {
    fn name(&self) -> &'static str {
        "terminal-first"
    }

    fn begin_run(&mut self, _edge_count: usize) {
        self.heads.clear();
    }

    fn on_head(&mut self, edge: EdgeId, head_seq: u64, into_terminal: bool) {
        self.heads.push(edge, head_seq, into_terminal);
    }

    fn on_idle(&mut self, _edge: EdgeId) {}

    fn next_edge(&mut self) -> EdgeId {
        self.heads.pop_preferring(true)
    }

    fn pick_full_scan(&mut self, candidates: &[PendingEdge]) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (!c.into_terminal, c.head_seq))
            .map(|(i, _)| i)
            .expect("candidates are non-empty")
    }
}

/// Follows the causal frontier depth-first: the edges whose heads changed most
/// recently are drained first, oldest head first within a batch.
///
/// Each pick opens a new *step*; every head notification arriving before the
/// next pick (the sends emitted by that delivery, plus the delivered edge's
/// own next queued message) is stamped with the current step. [`Self::next_edge`]
/// pops the maximum stamp and breaks ties by **minimum** head sequence, so a
/// fresh fan-out is explored child subtree by child subtree in ascending port
/// order before the scheduler backtracks to older frontiers — the delivery
/// order of a forward depth-first traversal. (LIFO is the *reverse*: its
/// newest-head-first rule walks a fan-out in descending port order.)
///
/// This is the cache-dense order for the interval protocols: labels are
/// claimed in ascending positional order and reach the terminal as ascending,
/// adjacent runs, so the terminal's absorption stays on `IntervalUnion`'s
/// amortized O(1) append path instead of the O(parts) mid-array insertions
/// that LIFO (reverse-DFS) and FIFO (BFS) provoke. The scaling bench drives
/// its large-`n` cells with this scheduler for exactly that reason.
///
/// It is deliberately **not** part of [`standard_battery`]: extending the
/// battery would change its pinned shape and every committed sweep
/// fingerprint.
#[derive(Debug, Clone, Default)]
pub struct DepthFirstScheduler {
    /// One live entry per active edge: `(stamp, Reverse(head_seq), edge)`.
    /// Head sequences are unique, so the edge id never decides a comparison.
    heads: BinaryHeap<(u64, Reverse<u64>, EdgeId)>,
    /// The current step, incremented once per pick; head changes reported
    /// between two picks all carry the same stamp.
    step: u64,
    /// Full-scan mirror of the stamps: edge → (stamp, head sequence observed
    /// when that stamp was assigned).
    scan_stamps: HashMap<EdgeId, (u64, u64)>,
    /// The edge chosen by the previous full-scan pick. Its head is restamped
    /// even when the sequence is unchanged (possible under reordering faults),
    /// mirroring the engine's unconditional [`Scheduler::on_head`] for the
    /// delivered edge.
    scan_last: Option<EdgeId>,
}

impl DepthFirstScheduler {
    /// Creates a depth-first scheduler.
    pub fn new() -> Self {
        DepthFirstScheduler::default()
    }
}

impl Scheduler for DepthFirstScheduler {
    fn name(&self) -> &'static str {
        "depth-first"
    }

    fn begin_run(&mut self, _edge_count: usize) {
        self.heads.clear();
        self.step = 0;
        self.scan_stamps.clear();
        self.scan_last = None;
    }

    fn on_head(&mut self, edge: EdgeId, head_seq: u64, _into_terminal: bool) {
        self.heads.push((self.step, Reverse(head_seq), edge));
    }

    fn on_idle(&mut self, _edge: EdgeId) {}

    fn next_edge(&mut self) -> EdgeId {
        let (_, _, edge) = self
            .heads
            .pop()
            .expect("next_edge called with no active edge");
        self.step += 1;
        edge
    }

    fn pick_full_scan(&mut self, candidates: &[PendingEdge]) -> usize {
        for c in candidates {
            let restamp = self.scan_last == Some(c.edge);
            match self.scan_stamps.entry(c.edge) {
                Entry::Occupied(mut slot) => {
                    let (stamp, seq) = slot.get_mut();
                    if restamp || *seq != c.head_seq {
                        *stamp = self.step;
                        *seq = c.head_seq;
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert((self.step, c.head_seq));
                }
            }
        }
        let pick = candidates
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| (self.scan_stamps[&c.edge].0, Reverse(c.head_seq)))
            .map(|(i, _)| i)
            .expect("candidates are non-empty");
        self.scan_last = Some(candidates[pick].edge);
        self.step += 1;
        pick
    }
}

/// A Fenwick-indexed set of active edges supporting O(log E) insert, remove and
/// *select-by-rank* (the k-th smallest active edge id).
///
/// Rank selection is what lets the incremental random scheduler agree exactly
/// with the full-scan reference: the reference samples an index into the
/// candidate list, which holds active edges in increasing edge-id order, so the
/// sampled index *is* a rank in this set.
#[derive(Debug, Clone, Default)]
struct ActiveEdgeSet {
    /// Fenwick (binary indexed) tree over edge ids; `tree[i]` covers a dyadic
    /// block of ids, 1-based.
    tree: Vec<u32>,
    active: Vec<bool>,
    len: usize,
}

impl ActiveEdgeSet {
    fn reset(&mut self, edge_count: usize) {
        self.tree.clear();
        self.tree.resize(edge_count + 1, 0);
        self.active.clear();
        self.active.resize(edge_count, false);
        self.len = 0;
    }

    fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    fn contains(&self, edge: EdgeId) -> bool {
        self.active[edge.index()]
    }

    fn add(&mut self, delta: i32, index: usize) {
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    fn insert(&mut self, edge: EdgeId) {
        if !self.active[edge.index()] {
            self.active[edge.index()] = true;
            self.len += 1;
            self.add(1, edge.index());
        }
    }

    fn remove(&mut self, edge: EdgeId) {
        if self.active[edge.index()] {
            self.active[edge.index()] = false;
            self.len -= 1;
            self.add(-1, edge.index());
        }
    }

    /// Returns the active edge with exactly `rank` active edges below it
    /// (`rank` is 0-based and must be `< len`).
    fn select(&self, rank: usize) -> EdgeId {
        debug_assert!(rank < self.len);
        let mut remaining = rank as u32 + 1;
        let mut pos = 0usize;
        let mut step = (self.tree.len() - 1).next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        EdgeId(pos)
    }
}

/// Delivers a uniformly random pending message (seeded, hence reproducible).
///
/// The RNG stream deliberately persists across [`Scheduler::begin_run`] calls so
/// one seeded scheduler reused for several runs explores different orders.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
    active: ActiveEdgeSet,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed.
    pub fn seeded(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
            active: ActiveEdgeSet::default(),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn begin_run(&mut self, edge_count: usize) {
        self.active.reset(edge_count);
    }

    fn on_head(&mut self, edge: EdgeId, _head_seq: u64, _into_terminal: bool) {
        self.active.insert(edge);
    }

    fn on_idle(&mut self, edge: EdgeId) {
        self.active.remove(edge);
    }

    fn next_edge(&mut self) -> EdgeId {
        assert!(
            self.active.len() > 0,
            "next_edge called with no active edge"
        );
        let rank = self.rng.gen_range(0..self.active.len());
        self.active.select(rank)
    }

    fn pick_full_scan(&mut self, candidates: &[PendingEdge]) -> usize {
        self.rng.gen_range(0..candidates.len())
    }
}

/// Replays a prescribed edge delivery order — the reference path for pinning an
/// exact interleaving (for example one observed under another scheduler, or a
/// hand-written adversarial order) and re-running it through either engine.
///
/// [`ReplayScheduler::with_steps`] additionally replays a
/// [`SchedulerAction`] per step, reproducing a *faulty* run (drops,
/// duplicates, reorders, crashes) bit-identically from its recorded
/// [`crate::StepLog`].
#[derive(Debug, Clone, Default)]
pub struct ReplayScheduler {
    order: VecDeque<EdgeId>,
    actions: Option<VecDeque<SchedulerAction>>,
}

impl ReplayScheduler {
    /// Creates a scheduler that delivers edges in exactly the given order.
    ///
    /// The order must be *feasible*: at each step the named edge must have a
    /// queued message. Both engines panic on an infeasible replay, which is the
    /// desired behaviour for a cross-checking tool.
    pub fn new<I: IntoIterator<Item = EdgeId>>(order: I) -> Self {
        ReplayScheduler {
            order: order.into_iter().collect(),
            actions: None,
        }
    }

    /// Creates a scheduler that replays `(edge, action)` steps — typically a
    /// recorded [`crate::StepLog::steps`] — reproducing a faulty run
    /// exactly: the same edges are chosen and the same drops, duplicates,
    /// reorders and crash losses are re-applied.
    pub fn with_steps<I: IntoIterator<Item = (EdgeId, SchedulerAction)>>(steps: I) -> Self {
        let (order, actions): (VecDeque<EdgeId>, VecDeque<SchedulerAction>) =
            steps.into_iter().unzip();
        ReplayScheduler {
            order,
            actions: Some(actions),
        }
    }

    /// Number of replay steps left.
    pub fn remaining(&self) -> usize {
        self.order.len()
    }
}

impl Scheduler for ReplayScheduler {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn begin_run(&mut self, _edge_count: usize) {}

    fn on_head(&mut self, _edge: EdgeId, _head_seq: u64, _into_terminal: bool) {}

    fn on_idle(&mut self, _edge: EdgeId) {}

    fn next_edge(&mut self) -> EdgeId {
        self.order.pop_front().expect("replay order exhausted")
    }

    fn pick_full_scan(&mut self, candidates: &[PendingEdge]) -> usize {
        let edge = self.next_edge();
        candidates
            .iter()
            .position(|c| c.edge == edge)
            .expect("replayed edge is not pending — infeasible replay order")
    }

    fn deliver_action(
        &mut self,
        _edge: EdgeId,
        _dst: NodeId,
        _queue_len: usize,
    ) -> SchedulerAction {
        match self.actions.as_mut() {
            Some(actions) => actions.pop_front().expect("replay actions exhausted"),
            None => SchedulerAction::Deliver,
        }
    }
}

/// The standard battery of schedulers used by correctness tests: FIFO, LIFO, both
/// adversaries and `random_count` seeded random schedules derived from `seed`.
pub fn standard_battery(seed: u64, random_count: usize) -> Vec<Box<dyn Scheduler>> {
    let mut battery: Vec<Box<dyn Scheduler>> = vec![
        Box::new(FifoScheduler::new()),
        Box::new(LifoScheduler::new()),
        Box::new(TerminalLastScheduler::new()),
        Box::new(TerminalFirstScheduler::new()),
    ];
    for i in 0..random_count {
        battery.push(Box::new(RandomScheduler::seeded(
            seed.wrapping_add(i as u64),
        )));
    }
    battery
}

/// Display names of the deterministic schedulers that open every
/// [`standard_battery`], in battery order. Its length is the battery's
/// deterministic prefix; positions from here on are the seeded random
/// schedulers. `standard_battery_names_match` pins agreement with the actual
/// scheduler values.
pub const DETERMINISTIC_BATTERY_NAMES: &[&str] =
    &["fifo", "lifo", "terminal-last", "terminal-first"];

/// The unique display name of battery position `position` in a
/// `standard_battery(_, random_count)`: the scheduler's own name for the
/// deterministic prefix, and `random#<i>` for the `i`-th random scheduler
/// (whose `name()` alone would not distinguish battery positions).
///
/// This enumerates names *without constructing scheduler values*, for planners
/// like the sweep manifest that label grid cells.
///
/// # Panics
///
/// Panics if `position` is out of range for the battery.
pub fn battery_scheduler_name(position: usize, random_count: usize) -> String {
    let deterministic = DETERMINISTIC_BATTERY_NAMES.len();
    assert!(
        position < deterministic + random_count,
        "battery position {position} out of range for battery of {}",
        deterministic + random_count
    );
    match DETERMINISTIC_BATTERY_NAMES.get(position) {
        Some(name) => (*name).to_owned(),
        None => format!("random#{}", position - deterministic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<PendingEdge> {
        vec![
            PendingEdge {
                edge: EdgeId(0),
                head_seq: 5,
                queue_len: 1,
                into_terminal: false,
            },
            PendingEdge {
                edge: EdgeId(1),
                head_seq: 2,
                queue_len: 2,
                into_terminal: true,
            },
            PendingEdge {
                edge: EdgeId(2),
                head_seq: 9,
                queue_len: 1,
                into_terminal: false,
            },
        ]
    }

    /// Feeds the candidate set into the incremental API and returns the pick.
    fn incremental_pick<S: Scheduler>(sched: &mut S) -> EdgeId {
        sched.begin_run(4);
        for c in candidates() {
            sched.on_head(c.edge, c.head_seq, c.into_terminal);
        }
        sched.next_edge()
    }

    #[test]
    fn fifo_picks_oldest() {
        assert_eq!(FifoScheduler::new().pick_full_scan(&candidates()), 1);
        assert_eq!(incremental_pick(&mut FifoScheduler::new()), EdgeId(1));
    }

    #[test]
    fn lifo_picks_newest() {
        assert_eq!(LifoScheduler::new().pick_full_scan(&candidates()), 2);
        assert_eq!(incremental_pick(&mut LifoScheduler::new()), EdgeId(2));
    }

    #[test]
    fn terminal_last_avoids_terminal_edges() {
        assert_eq!(
            TerminalLastScheduler::new().pick_full_scan(&candidates()),
            0
        );
        assert_eq!(
            incremental_pick(&mut TerminalLastScheduler::new()),
            EdgeId(0)
        );
        // If only terminal edges are pending it must still pick one.
        let only_terminal = vec![PendingEdge {
            edge: EdgeId(3),
            head_seq: 1,
            queue_len: 1,
            into_terminal: true,
        }];
        assert_eq!(
            TerminalLastScheduler::new().pick_full_scan(&only_terminal),
            0
        );
        let mut sched = TerminalLastScheduler::new();
        sched.begin_run(4);
        sched.on_head(EdgeId(3), 1, true);
        assert_eq!(sched.next_edge(), EdgeId(3));
    }

    #[test]
    fn terminal_first_prefers_terminal_edges() {
        assert_eq!(
            TerminalFirstScheduler::new().pick_full_scan(&candidates()),
            1
        );
        assert_eq!(
            incremental_pick(&mut TerminalFirstScheduler::new()),
            EdgeId(1)
        );
    }

    #[test]
    fn head_heaps_follow_head_changes() {
        // Edge 0 holds seqs [1, 4], edge 1 holds [3]. FIFO must deliver 1, 3, 4:
        // after edge 0's head advances past seq 1, seq 3 on edge 1 is older than
        // edge 0's new head.
        let mut sched = FifoScheduler::new();
        sched.begin_run(2);
        sched.on_head(EdgeId(0), 1, false);
        sched.on_head(EdgeId(1), 3, false);
        assert_eq!(sched.next_edge(), EdgeId(0));
        sched.on_head(EdgeId(0), 4, false); // seq 4 becomes edge 0's head
        assert_eq!(sched.next_edge(), EdgeId(1));
        sched.on_idle(EdgeId(1));
        assert_eq!(sched.next_edge(), EdgeId(0));
    }

    #[test]
    fn depth_first_chases_the_freshest_fanout_in_port_order() {
        // Root fan-out: edges 0..3 become active before the first pick (stamp
        // 0), oldest seq first → edge 0. Its delivery activates edges 4 and 5
        // (stamp 1): the new frontier is drained (oldest first) before the
        // scheduler backtracks to the remaining stamp-0 edges in seq order.
        let mut sched = DepthFirstScheduler::new();
        sched.begin_run(8);
        for e in 0..3u64 {
            sched.on_head(EdgeId(e as usize), e, false);
        }
        assert_eq!(sched.next_edge(), EdgeId(0));
        sched.on_head(EdgeId(4), 10, false);
        sched.on_head(EdgeId(5), 11, false);
        assert_eq!(sched.next_edge(), EdgeId(4));
        sched.on_idle(EdgeId(4));
        assert_eq!(sched.next_edge(), EdgeId(5));
        sched.on_idle(EdgeId(5));
        assert_eq!(sched.next_edge(), EdgeId(1));
        sched.on_idle(EdgeId(1));
        assert_eq!(sched.next_edge(), EdgeId(2));
    }

    #[test]
    fn depth_first_full_scan_matches_incremental() {
        // Replays the exact scenario above through `pick_full_scan`, with the
        // candidate list rebuilt (edge-id order) at every step the way the
        // full-scan engine does.
        let cand = |edge: usize, head_seq: u64| PendingEdge {
            edge: EdgeId(edge),
            head_seq,
            queue_len: 1,
            into_terminal: false,
        };
        let mut sched = DepthFirstScheduler::new();
        sched.begin_run(8);
        let steps: &[(&[PendingEdge], usize)] = &[
            (&[cand(0, 0), cand(1, 1), cand(2, 2)], 0),
            // Edge 0 went idle; its sends activated edges 4 and 5.
            (&[cand(1, 1), cand(2, 2), cand(4, 10), cand(5, 11)], 2),
            (&[cand(1, 1), cand(2, 2), cand(5, 11)], 2),
            (&[cand(1, 1), cand(2, 2)], 0),
            (&[cand(2, 2)], 0),
        ];
        for (candidates, expected) in steps {
            assert_eq!(sched.pick_full_scan(candidates), *expected);
        }
    }

    #[test]
    fn depth_first_restamps_a_surviving_head() {
        // After a pick, the chosen edge's next head belongs to the *new*
        // frontier even on the full-scan path — including when the head
        // sequence is unchanged (reorder faults deliver mid-queue).
        let mut inc = DepthFirstScheduler::new();
        inc.begin_run(4);
        inc.on_head(EdgeId(0), 0, false);
        inc.on_head(EdgeId(1), 1, false);
        assert_eq!(inc.next_edge(), EdgeId(0));
        // Queue on edge 0 still non-empty: head advances to seq 5, which is
        // fresher (stamp 1) than edge 1's stamp-0 head despite the larger seq.
        inc.on_head(EdgeId(0), 5, false);
        assert_eq!(inc.next_edge(), EdgeId(0));

        let cand = |edge: usize, head_seq: u64| PendingEdge {
            edge: EdgeId(edge),
            head_seq,
            queue_len: 2,
            into_terminal: false,
        };
        let mut full = DepthFirstScheduler::new();
        full.begin_run(4);
        let picks = [
            full.pick_full_scan(&[cand(0, 0), cand(1, 1)]),
            full.pick_full_scan(&[cand(0, 5), cand(1, 1)]),
            // A reorder fault consumed a mid-queue message: edge 0's head seq
            // is *unchanged*, yet it was the delivered edge, so it restamps.
            full.pick_full_scan(&[cand(0, 5), cand(1, 1)]),
        ];
        assert_eq!(picks, [0, 0, 0]);
    }

    #[test]
    fn depth_first_is_not_in_the_standard_battery() {
        // The battery shape is pinned by committed sweep fingerprints.
        let names: Vec<&str> = standard_battery(1, 2).iter().map(|s| s.name()).collect();
        assert!(!names.contains(&"depth-first"));
    }

    #[test]
    fn random_is_reproducible_and_in_range() {
        let cands = candidates();
        let picks_a: Vec<usize> = {
            let mut s = RandomScheduler::seeded(3);
            (0..20).map(|_| s.pick_full_scan(&cands)).collect()
        };
        let picks_b: Vec<usize> = {
            let mut s = RandomScheduler::seeded(3);
            (0..20).map(|_| s.pick_full_scan(&cands)).collect()
        };
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|&p| p < cands.len()));
    }

    #[test]
    fn random_incremental_matches_full_scan_rank() {
        // Same seed: the incremental path must choose exactly the edge that the
        // full-scan path's sampled index denotes in the edge-id-ordered
        // candidate list, draw for draw.
        let active = [EdgeId(2), EdgeId(5), EdgeId(7), EdgeId(11)];
        for seed in 0..50 {
            let mut inc = RandomScheduler::seeded(seed);
            inc.begin_run(16);
            for (i, &e) in active.iter().enumerate() {
                inc.on_head(e, i as u64, false);
            }
            let mut full = RandomScheduler::seeded(seed);
            let cands: Vec<PendingEdge> = active
                .iter()
                .enumerate()
                .map(|(i, &edge)| PendingEdge {
                    edge,
                    head_seq: i as u64,
                    queue_len: 1,
                    into_terminal: false,
                })
                .collect();
            for _ in 0..10 {
                let chosen = inc.next_edge();
                let idx = full.pick_full_scan(&cands);
                assert_eq!(chosen, cands[idx].edge);
                // Both sides keep the edge active (head advance, not idle).
            }
        }
    }

    #[test]
    fn active_edge_set_select_is_order_statistics() {
        let mut set = ActiveEdgeSet::default();
        set.reset(10);
        for e in [3usize, 0, 7, 9, 4] {
            set.insert(EdgeId(e));
        }
        assert_eq!(set.len(), 5);
        let ranks: Vec<EdgeId> = (0..5).map(|k| set.select(k)).collect();
        assert_eq!(
            ranks,
            vec![EdgeId(0), EdgeId(3), EdgeId(4), EdgeId(7), EdgeId(9)]
        );
        set.remove(EdgeId(3));
        assert_eq!(set.select(1), EdgeId(4));
        assert!(set.contains(EdgeId(7)));
        assert!(!set.contains(EdgeId(3)));
        // Idempotent inserts and removes keep the count exact.
        set.insert(EdgeId(7));
        set.remove(EdgeId(3));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn replay_scheduler_replays_in_order() {
        let mut sched = ReplayScheduler::new([EdgeId(2), EdgeId(0)]);
        assert_eq!(sched.remaining(), 2);
        sched.begin_run(3);
        assert_eq!(sched.next_edge(), EdgeId(2));
        let idx = sched.pick_full_scan(&candidates());
        assert_eq!(candidates()[idx].edge, EdgeId(0));
        assert_eq!(sched.remaining(), 0);
    }

    #[test]
    fn replay_with_steps_replays_edges_and_actions() {
        let mut sched = ReplayScheduler::with_steps([
            (EdgeId(2), SchedulerAction::Drop),
            (EdgeId(0), SchedulerAction::Reorder(3)),
        ]);
        sched.begin_run(3);
        let edge = sched.next_edge();
        assert_eq!(edge, EdgeId(2));
        assert_eq!(
            sched.deliver_action(edge, NodeId(0), 1),
            SchedulerAction::Drop
        );
        let edge = sched.next_edge();
        assert_eq!(edge, EdgeId(0));
        assert_eq!(
            sched.deliver_action(edge, NodeId(0), 4),
            SchedulerAction::Reorder(3)
        );
        assert_eq!(sched.remaining(), 0);
        // Plain schedulers always answer Deliver through the default hook.
        assert_eq!(
            FifoScheduler::new().deliver_action(EdgeId(0), NodeId(0), 1),
            SchedulerAction::Deliver
        );
    }

    #[test]
    fn battery_has_expected_size_and_names() {
        let battery = standard_battery(1, 3);
        assert_eq!(battery.len(), 7);
        let names: Vec<&str> = battery.iter().map(|s| s.name()).collect();
        assert!(names.contains(&"fifo"));
        assert!(names.contains(&"terminal-last"));
    }

    #[test]
    fn standard_battery_names_match() {
        // `battery_scheduler_name` must agree with the actual scheduler values
        // of every battery: the deterministic prefix verbatim, the random tail
        // as `random#<i>`.
        for random_count in [0usize, 1, 3] {
            let battery = standard_battery(9, random_count);
            assert_eq!(
                battery.len(),
                DETERMINISTIC_BATTERY_NAMES.len() + random_count
            );
            for (position, scheduler) in battery.iter().enumerate() {
                let label = battery_scheduler_name(position, random_count);
                if position < DETERMINISTIC_BATTERY_NAMES.len() {
                    assert_eq!(label, scheduler.name());
                } else {
                    assert_eq!(
                        label,
                        format!(
                            "{}#{}",
                            scheduler.name(),
                            position - DETERMINISTIC_BATTERY_NAMES.len()
                        )
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "battery position")]
    fn battery_name_out_of_range_panics() {
        let _ = battery_scheduler_name(6, 2);
    }
}
