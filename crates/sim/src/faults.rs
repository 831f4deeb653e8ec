//! Fault injection: a composable adversary layer between the engine and any
//! inner [`Scheduler`].
//!
//! The paper's model quantifies over *every* delivery order, but all the
//! schedulers in [`crate::scheduler`]'s standard battery are reliable-delivery
//! adversaries. This module opens the robustness workload: a
//! [`FaultyScheduler`] wraps any scheduler and, driven by its own
//! deterministic per-run RNG and a declarative [`FaultPlan`], answers the
//! engine's [`Scheduler::deliver_action`] hook with drops, duplicates,
//! bounded within-edge reorders and per-node crash windows
//! ([`SchedulerAction`]). The inner scheduler still chooses which edge acts
//! next and observes the `begin_run`/`on_send`/`on_head`/`on_idle` stream of
//! the queues the faults leave behind, through the same hooks as under
//! reliable delivery, so it needs no fault handling of its own.
//!
//! Two invariants keep the paper's cost currency honest:
//!
//! * **Wire bits are charged only for messages actually sent.** Drops and
//!   crash losses destroy already-paid-for messages; adversary duplicates are
//!   delivered without being re-charged (they are not protocol sends and do
//!   not appear in the trace). [`crate::metrics::RunMetrics`] counts each
//!   fault class separately (`messages_dropped`, `messages_duplicated`,
//!   `crashed_deliveries`).
//! * **A zero-fault plan is a strict no-op.** [`FaultPlan::reliable`] draws
//!   no RNG values and always answers [`SchedulerAction::Deliver`], so a
//!   wrapped scheduler produces bit-identical traces, metrics and states to
//!   the unwrapped one — pinned by `crates/sim/tests/fault_identity.rs`
//!   across the whole battery.
//!
//! Determinism: the fault RNG is reseeded from [`FaultPlan::seed`] at every
//! [`Scheduler::begin_run`], so each run of a reused scheduler sees the same
//! fault stream, and the incremental and full-scan engines (which both call
//! `deliver_action` exactly once per step) consume it identically.

use anet_graph::{EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scheduler::{PendingEdge, Scheduler, SchedulerAction};

/// A half-open crash window for one vertex, measured in **engine steps** (one
/// step = one [`Scheduler::deliver_action`] decision, whatever its outcome).
///
/// While a window is open, every message scheduled into `node` is consumed
/// and lost ([`SchedulerAction::NodeDown`]); when it closes, the vertex
/// resumes processing with whatever state it had — a crash–recover fault, not
/// a reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The vertex that is down.
    pub node: NodeId,
    /// First step (inclusive) of the outage.
    pub from: u64,
    /// First step (exclusive) after the outage; `u64::MAX` never recovers.
    pub until: u64,
}

impl CrashWindow {
    /// Whether `node` is down at `step` under this window.
    pub fn covers(&self, node: NodeId, step: u64) -> bool {
        self.node == node && self.from <= step && step < self.until
    }
}

/// A declarative, deterministic fault plan for a [`FaultyScheduler`].
///
/// Probabilities are integer percentages (0–100), mirroring the sweep spec
/// grammar's convention of keeping every canonical text form float-free. The
/// default value is [`FaultPlan::reliable`]: no faults at all.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Per-step probability (percent) of dropping the head message.
    pub drop_pct: u8,
    /// Per-step probability (percent) of duplicating the delivered message.
    pub dup_pct: u8,
    /// Within-edge reorder window: a delivered message may come from queue
    /// position `0..=reorder` instead of the head. 0 disables reordering.
    pub reorder: usize,
    /// Seed of the fault RNG, reseeded at every `begin_run`.
    pub seed: u64,
    /// Maximum number of drops over the whole run (`None` = unlimited). Once
    /// exhausted, the plan stops consuming drop draws entirely.
    pub drop_budget: Option<u64>,
    /// Crash–recover schedule, any number of windows per node.
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// The no-fault plan: every action is [`SchedulerAction::Deliver`] and no
    /// RNG value is ever drawn.
    pub fn reliable() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether this plan can never inject a fault.
    ///
    /// A plan whose `drop_pct` is positive but whose `drop_budget` is
    /// `Some(0)` can never drop either — the budget check short-circuits the
    /// drop draw (see [`Scheduler::deliver_action`]) — so such a plan counts
    /// as reliable when no other fault class is enabled, and its action
    /// stream is identical to `drop_pct == 0` draw for draw.
    pub fn is_reliable(&self) -> bool {
        (self.drop_pct == 0 || self.drop_budget == Some(0))
            && self.dup_pct == 0
            && self.reorder == 0
            && self.crashes.is_empty()
    }

    /// Sets the drop probability (percent).
    ///
    /// # Panics
    ///
    /// Panics if `pct > 100`.
    pub fn with_drops(mut self, pct: u8) -> FaultPlan {
        assert!(pct <= 100, "drop percentage {pct} out of range");
        self.drop_pct = pct;
        self
    }

    /// Sets the duplication probability (percent).
    ///
    /// # Panics
    ///
    /// Panics if `pct > 100`.
    pub fn with_duplicates(mut self, pct: u8) -> FaultPlan {
        assert!(pct <= 100, "duplicate percentage {pct} out of range");
        self.dup_pct = pct;
        self
    }

    /// Sets the within-edge reorder window.
    pub fn with_reorder(mut self, window: usize) -> FaultPlan {
        self.reorder = window;
        self
    }

    /// Sets the fault RNG seed.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Bounds the total number of drops.
    pub fn with_drop_budget(mut self, budget: u64) -> FaultPlan {
        self.drop_budget = Some(budget);
        self
    }

    /// Adds a crash window for `node` over steps `[from, until)`.
    pub fn with_crash(mut self, node: NodeId, from: u64, until: u64) -> FaultPlan {
        self.crashes.push(CrashWindow { node, from, until });
        self
    }
}

/// A fault-injecting adapter around any inner [`Scheduler`].
///
/// Delegates every scheduling decision (`next_edge`, `pick_full_scan`) and
/// every notification (`begin_run`, `on_send`, `on_head`, `on_idle`) to the inner
/// scheduler unchanged, and implements only the [`Scheduler::deliver_action`]
/// fault hook from its [`FaultPlan`]. See the [module docs](self) for the
/// determinism and accounting invariants.
#[derive(Debug, Clone)]
pub struct FaultyScheduler<S> {
    inner: S,
    plan: FaultPlan,
    rng: StdRng,
    step: u64,
    drops_left: u64,
}

impl<S: Scheduler> FaultyScheduler<S> {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyScheduler<S> {
        let rng = StdRng::seed_from_u64(plan.seed);
        let drops_left = plan.drop_budget.unwrap_or(u64::MAX);
        FaultyScheduler {
            inner,
            plan,
            rng,
            step: 0,
            drops_left,
        }
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Unwraps the inner scheduler.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Scheduler> Scheduler for FaultyScheduler<S> {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn begin_run(&mut self, edge_count: usize) {
        self.inner.begin_run(edge_count);
        // Deterministic per-run fault stream: unlike the random scheduler's
        // persistent RNG, the fault RNG restarts with every run so a reused
        // scheduler injects the same faults each time.
        self.rng = StdRng::seed_from_u64(self.plan.seed);
        self.step = 0;
        self.drops_left = self.plan.drop_budget.unwrap_or(u64::MAX);
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

    fn pick_full_scan(&mut self, candidates: &[PendingEdge]) -> usize {
        self.inner.pick_full_scan(candidates)
    }

    fn deliver_action(&mut self, _edge: EdgeId, dst: NodeId, queue_len: usize) -> SchedulerAction {
        let step = self.step;
        self.step += 1;
        // Crashes are schedule-driven, not random: no RNG draw, so adding a
        // crash window never perturbs the drop/duplicate/reorder stream of
        // the steps outside it.
        if self.plan.crashes.iter().any(|w| w.covers(dst, step)) {
            return SchedulerAction::NodeDown;
        }
        // Each enabled fault class consumes exactly one draw per step;
        // disabled classes consume none, so the reliable plan draws nothing.
        if self.plan.drop_pct > 0
            && self.drops_left > 0
            && self.rng.gen_range(0..100u8) < self.plan.drop_pct
        {
            self.drops_left -= 1;
            return SchedulerAction::Drop;
        }
        if self.plan.dup_pct > 0 && self.rng.gen_range(0..100u8) < self.plan.dup_pct {
            return SchedulerAction::Duplicate;
        }
        if self.plan.reorder > 0 && queue_len > 1 {
            let k = self.rng.gen_range(0..self.plan.reorder + 1);
            if k > 0 {
                return SchedulerAction::Reorder(k);
            }
        }
        SchedulerAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FifoScheduler;

    #[test]
    fn reliable_plan_always_delivers_and_draws_nothing() {
        let mut a = FaultyScheduler::new(FifoScheduler::new(), FaultPlan::reliable());
        assert!(a.plan().is_reliable());
        a.begin_run(4);
        for step in 0..100 {
            assert_eq!(
                a.deliver_action(EdgeId(0), NodeId(1), 1 + (step as usize % 3)),
                SchedulerAction::Deliver
            );
        }
    }

    #[test]
    fn fault_stream_is_deterministic_and_reset_per_run() {
        let plan = FaultPlan::reliable()
            .with_drops(20)
            .with_duplicates(10)
            .with_reorder(3)
            .with_seed(42);
        let mut a = FaultyScheduler::new(FifoScheduler::new(), plan.clone());
        let mut b = FaultyScheduler::new(FifoScheduler::new(), plan);
        a.begin_run(8);
        b.begin_run(8);
        let run = |s: &mut FaultyScheduler<FifoScheduler>| -> Vec<SchedulerAction> {
            (0..200)
                .map(|i| s.deliver_action(EdgeId(i % 8), NodeId(1), 2 + i % 4))
                .collect()
        };
        let first_a = run(&mut a);
        assert_eq!(first_a, run(&mut b), "same plan, same stream");
        assert!(
            first_a.iter().any(|x| *x != SchedulerAction::Deliver),
            "plan with 20% drops must inject something in 200 steps"
        );
        // begin_run restarts the stream exactly.
        a.begin_run(8);
        assert_eq!(run(&mut a), first_a);
    }

    #[test]
    fn crash_windows_cover_only_their_node_and_steps() {
        let plan = FaultPlan::reliable().with_crash(NodeId(2), 3, 6);
        let mut s = FaultyScheduler::new(FifoScheduler::new(), plan);
        s.begin_run(4);
        let mut downs = Vec::new();
        for step in 0..10u64 {
            let dst = if step % 2 == 0 { NodeId(2) } else { NodeId(1) };
            if s.deliver_action(EdgeId(0), dst, 1) == SchedulerAction::NodeDown {
                downs.push(step);
            }
        }
        // Node 2 is the destination on even steps; its window is [3, 6).
        assert_eq!(downs, vec![4]);
        let w = CrashWindow {
            node: NodeId(2),
            from: 3,
            until: 6,
        };
        assert!(w.covers(NodeId(2), 3) && w.covers(NodeId(2), 5));
        assert!(!w.covers(NodeId(2), 6) && !w.covers(NodeId(1), 4));
    }

    #[test]
    fn drop_budget_caps_total_drops() {
        let plan = FaultPlan::reliable()
            .with_drops(100)
            .with_drop_budget(5)
            .with_seed(7);
        let mut s = FaultyScheduler::new(FifoScheduler::new(), plan);
        s.begin_run(4);
        let drops = (0..50)
            .filter(|_| s.deliver_action(EdgeId(0), NodeId(1), 1) == SchedulerAction::Drop)
            .count();
        assert_eq!(drops, 5);
    }

    #[test]
    fn exhausted_drop_budget_is_reliable_and_perturbs_no_other_stream() {
        // A plan that wants to drop but is never allowed to must behave,
        // draw for draw, like a plan that never wanted to drop: the budget
        // check short-circuits the drop draw, so the dup/reorder streams
        // stay aligned, and `is_reliable` agrees.
        let throttled = FaultPlan::reliable()
            .with_drops(100)
            .with_drop_budget(0)
            .with_duplicates(30)
            .with_reorder(2)
            .with_seed(13);
        let dropless = FaultPlan::reliable()
            .with_duplicates(30)
            .with_reorder(2)
            .with_seed(13);
        let mut a = FaultyScheduler::new(FifoScheduler::new(), throttled);
        let mut b = FaultyScheduler::new(FifoScheduler::new(), dropless);
        a.begin_run(4);
        b.begin_run(4);
        for i in 0..300usize {
            assert_eq!(
                a.deliver_action(EdgeId(i % 4), NodeId(1), 1 + i % 5),
                b.deliver_action(EdgeId(i % 4), NodeId(1), 1 + i % 5),
                "streams diverged at step {i}"
            );
        }
        // And with every other class disabled, the throttled plan is simply
        // reliable — while any live budget (or unlimited drops) is not.
        assert!(FaultPlan::reliable()
            .with_drops(100)
            .with_drop_budget(0)
            .is_reliable());
        assert!(!FaultPlan::reliable()
            .with_drops(100)
            .with_drop_budget(1)
            .is_reliable());
        assert!(!FaultPlan::reliable().with_drops(1).is_reliable());
    }

    #[test]
    fn empty_crash_window_covers_nothing() {
        // `from == until` is the empty half-open interval: the node is never
        // down, and the plan stays reliable in behaviour (crash checks draw
        // no RNG, so the action stream is all-Deliver).
        let w = CrashWindow {
            node: NodeId(1),
            from: 5,
            until: 5,
        };
        for step in 0..10u64 {
            assert!(!w.covers(NodeId(1), step));
        }
        let plan = FaultPlan::reliable().with_crash(NodeId(1), 5, 5);
        let mut s = FaultyScheduler::new(FifoScheduler::new(), plan);
        s.begin_run(2);
        for _ in 0..20 {
            assert_eq!(
                s.deliver_action(EdgeId(0), NodeId(1), 1),
                SchedulerAction::Deliver
            );
        }
    }

    #[test]
    fn reorder_never_fires_on_singleton_queues() {
        let plan = FaultPlan::reliable().with_reorder(4).with_seed(9);
        let mut s = FaultyScheduler::new(FifoScheduler::new(), plan);
        s.begin_run(4);
        for _ in 0..100 {
            assert_ne!(
                std::mem::discriminant(&s.deliver_action(EdgeId(0), NodeId(1), 1)),
                std::mem::discriminant(&SchedulerAction::Reorder(0)),
                "queue_len 1 leaves nothing to reorder"
            );
        }
        let mut saw_reorder = false;
        for _ in 0..100 {
            if let SchedulerAction::Reorder(k) = s.deliver_action(EdgeId(0), NodeId(1), 5) {
                assert!((1..=4).contains(&k));
                saw_reorder = true;
            }
        }
        assert!(saw_reorder, "reorder window 4 must fire within 100 draws");
    }
}
