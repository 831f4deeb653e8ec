//! # anet-sim — asynchronous anonymous-protocol execution engine
//!
//! Section 2 of *Langberg, Schwartz, Bruck (PODC 2007)* defines an anonymous
//! protocol by a state space `Π`, a message space `Σ`, an initial state `π₀`, an
//! initial message `σ₀`, a state function `f`, a message function `g`, and a
//! stopping predicate `S` evaluated at the terminal. The network is asynchronous:
//! messages are delivered one at a time in an arbitrary order.
//!
//! This crate realises that model:
//!
//! * [`AnonymousProtocol`] — the `(Π, Σ, π₀, σ₀, f, g, S)` tuple as a trait. The
//!   per-vertex information available to the protocol is **only** the vertex's
//!   in/out degree and the port a message arrived on, enforcing anonymity. A
//!   message for every out-port is emitted once, to [`OutPort::All`].
//! * [`engine::run`] — the asynchronous executor, built around an incrementally
//!   maintained **active-edge set** (see below).
//! * [`scheduler`] — pluggable delivery orders (FIFO, LIFO, seeded-random, and
//!   adversarial terminal-starving/rushing orders, plus exact replay), so a
//!   single protocol run can be replayed under many asynchronous interleavings.
//! * [`faults`] — a composable fault-injection layer: [`FaultyScheduler`]
//!   wraps any scheduler and answers the engine's
//!   [`scheduler::Scheduler::deliver_action`] hook with deterministic drops,
//!   duplicates, bounded reorders and crash windows from a [`FaultPlan`];
//!   [`run_corrupted`] additionally perturbs protocol state before delivery
//!   begins for corrupted-start recovery experiments.
//! * [`observer`] — the engine's one instrumentation hook: an [`Observer`]
//!   sees every charged send and every step of a [`run_observed`] run. The
//!   stock observers record the send trace ([`trace::Trace`]), its digest
//!   alone ([`TraceDigest`]) or the replayable step log ([`StepLog`]).
//! * [`synchronous`] — the paper's synchronous extension: the engine under
//!   FIFO, with its rounds counted.
//! * [`reference::run_full_scan`] — the naive specification engine, kept so the
//!   incremental core is cross-checkable and benchmarkable against it; and
//!   [`reference::run_queue_forest`] — the pre-flat incremental engine
//!   (per-edge `VecDeque`s), kept so the flat memory layout is likewise
//!   pinned bit-identical and its speedup measurable.
//! * [`arena::MessageArena`] — the pooled message slabs behind the flat
//!   engine's queues: small per-port entries pointing into reference-counted
//!   message bodies, one body per emission. Its module docs state the
//!   **memory layout contract** (slab invariants, recycling, aliasing rules).
//! * [`metrics::RunMetrics`] — communication-complexity accounting: total bits,
//!   per-edge bits (bandwidth), message counts and maximum message size, measured
//!   through the [`Wire`] size of every transmitted message.
//! * [`trace::Trace`] — an optional full record of every send, used by the
//!   lower-bound experiments to extract transmitted alphabets and cut snapshots.
//!
//! # The active-edge-set architecture
//!
//! The engine keeps one FIFO queue per edge, as the model requires. An edge is
//! **active** while its queue is non-empty; the set of active edges is exactly
//! the set of candidate deliveries. Rather than rebuilding that set by scanning
//! all E edges on every delivery (which makes a run O(E · deliveries)), the
//! engine maintains it incrementally and streams the changes to the scheduler:
//!
//! * every queued message is announced by [`scheduler::Scheduler::on_send`];
//! * a send onto an empty queue activates the edge —
//!   [`scheduler::Scheduler::on_head`] announces its head message;
//! * a delivery that leaves the queue non-empty advances the head — `on_head`
//!   again, with the next message's sequence number;
//! * a delivery that drains the queue deactivates the edge —
//!   [`scheduler::Scheduler::on_idle`].
//!
//! The scheduler answers [`scheduler::Scheduler::next_edge`] from its own
//! incrementally maintained structures: the send order itself for FIFO and
//! terminal-first/last (one queue, or one per class, read from the oldest
//! message still in flight), a seq-ordered heap of active-edge heads for
//! LIFO, and a Fenwick-indexed active set with order-statistics sampling for
//! the random policy. Every operation is O(1) amortized or O(log E) per
//! delivery, so the per-delivery cost no longer grows with the size of the
//! graph.
//!
//! Each scheduler also carries its naive full-scan specification
//! ([`scheduler::Scheduler::pick_full_scan`]); [`reference::run_full_scan`]
//! executes runs entirely through it, and the `engine_equivalence` property
//! tests assert the two engines produce bit-identical traces, metrics and
//! outcomes across the whole battery × topology × seed grid.
//!
//! The simulator is deterministic given a scheduler, which is what makes the
//! adversarial-schedule regression tests reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod observer;
mod protocol;
pub mod reference;
pub mod runner;
pub mod scheduler;
pub mod synchronous;
pub mod trace;
mod wire;

pub use arena::MessageArena;
pub use engine::{
    run_corrupted, run_observed, run_recovering, ExecutionConfig, Outcome, RecoveredRun, RunConfig,
    RunResult,
};
pub use faults::{CrashWindow, FaultPlan, FaultyScheduler};
pub use observer::{Observer, StepLog, TraceDigest};
pub use protocol::{AnonymousProtocol, NodeContext, OutPort, RefloodProtocol};
pub use reference::{run_full_scan, run_queue_forest};
pub use synchronous::{run_synchronous, SynchronousRun};
pub use wire::{SharedSlice, Wire};
