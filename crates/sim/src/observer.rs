//! Run observers: the engine's one instrumentation hook.
//!
//! [`crate::engine::run_observed`] reports two events to an [`Observer`]:
//! every charged send and every step. Both default to no-ops and `()`
//! observes nothing, so an unobserved run is the bare delivery loop. The
//! stock observers:
//!
//! * [`Trace`] keeps every send, with a clone of its message;
//! * [`TraceDigest`] folds the sends into [`Trace::digest`]'s hash as the run
//!   sends them, and keeps nothing else;
//! * [`StepLog`] keeps every step as `(edge, action)`, the record
//!   [`crate::scheduler::ReplayScheduler::with_steps`] replays.
//!
//! A pair `(A, B)` observes with both, and `&mut O` lends an observer out.

use anet_graph::EdgeId;

use crate::scheduler::SchedulerAction;
use crate::trace::{Fnv1a, SendEvent, Trace};

/// Receives a run's events as the engine produces them.
pub trait Observer<M> {
    /// A send charged wire bits: one of the root's initial messages, a
    /// protocol emission or a re-flood. Adversary duplicates are not sends.
    fn on_send(&mut self, _event: &SendEvent<&M>) {}

    /// One engine step: the scheduler chose `edge`, its fault hook answered
    /// `action`, and the step took the message with sequence number `seq`
    /// off the edge, to deliver it, drop it or lose it to a crash.
    fn on_step(&mut self, _edge: EdgeId, _action: SchedulerAction, _seq: u64) {}
}

impl<M> Observer<M> for () {}

impl<M, O: Observer<M> + ?Sized> Observer<M> for &mut O {
    fn on_send(&mut self, event: &SendEvent<&M>) {
        (**self).on_send(event);
    }

    fn on_step(&mut self, edge: EdgeId, action: SchedulerAction, seq: u64) {
        (**self).on_step(edge, action, seq);
    }
}

impl<M, A: Observer<M>, B: Observer<M>> Observer<M> for (A, B) {
    fn on_send(&mut self, event: &SendEvent<&M>) {
        self.0.on_send(event);
        self.1.on_send(event);
    }

    fn on_step(&mut self, edge: EdgeId, action: SchedulerAction, seq: u64) {
        self.0.on_step(edge, action, seq);
        self.1.on_step(edge, action, seq);
    }
}

impl<M: Clone> Observer<M> for Trace<M> {
    fn on_send(&mut self, event: &SendEvent<&M>) {
        self.push(SendEvent {
            seq: event.seq,
            edge: event.edge,
            src: event.src,
            dst: event.dst,
            bits: event.bits,
            message: event.message.clone(),
        });
    }
}

/// [`Trace::digest`] without the trace: the FNV-1a 64 over every send's
/// `(seq, edge, src, dst, bits)`, in send order, folded in as the run sends.
#[derive(Debug, Clone, Default)]
pub struct TraceDigest(Fnv1a);

impl TraceDigest {
    /// The digest of a run with no sends.
    pub fn new() -> Self {
        TraceDigest::default()
    }

    /// Folds one send into the digest.
    pub fn write<M>(&mut self, event: &SendEvent<M>) {
        self.0.write_u64(event.seq);
        self.0.write_u64(event.edge.index() as u64);
        self.0.write_u64(event.src.index() as u64);
        self.0.write_u64(event.dst.index() as u64);
        self.0.write_u64(event.bits);
    }

    /// The digest of the sends folded in so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

impl<M> Observer<M> for TraceDigest {
    fn on_send(&mut self, event: &SendEvent<&M>) {
        self.write(event);
    }
}

/// Every step of a run as `(edge, action)`, in step order.
///
/// Steps that deliver nothing (drops, crash losses) are included, so
/// [`crate::scheduler::ReplayScheduler::with_steps`] fed [`StepLog::steps`]
/// reproduces even a faulty run exactly. For a reliable run every action is
/// [`SchedulerAction::Deliver`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepLog {
    steps: Vec<(EdgeId, SchedulerAction)>,
}

impl StepLog {
    /// An empty log.
    pub fn new() -> Self {
        StepLog::default()
    }

    /// The steps, in the order the engine took them.
    pub fn steps(&self) -> &[(EdgeId, SchedulerAction)] {
        &self.steps
    }

    /// The edges of the steps that delivered a message, in delivery order:
    /// one entry per [`crate::metrics::RunMetrics::messages_delivered`]. On
    /// its own it replays a reliable run through
    /// [`crate::scheduler::ReplayScheduler::new`].
    pub fn delivery_order(&self) -> Vec<EdgeId> {
        self.steps
            .iter()
            .filter(|(_, action)| {
                !matches!(action, SchedulerAction::Drop | SchedulerAction::NodeDown)
            })
            .map(|&(edge, _)| edge)
            .collect()
    }
}

impl<M> Observer<M> for StepLog {
    fn on_step(&mut self, edge: EdgeId, action: SchedulerAction, _seq: u64) {
        self.steps.push((edge, action));
    }
}
