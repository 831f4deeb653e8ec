//! The retained deep-clone general-broadcast implementation.
//!
//! This is the Section 4 protocol exactly as it behaved before the
//! copy-on-write endpoint-array `IntervalUnion`: every set operation funnels
//! through the collect-sort-merge references in [`anet_num::reference`], and
//! every per-out-port message carries a **deep clone** of its α/β components
//! ([`IntervalUnion::deep_clone`]) — the owned-value economy in which
//! flooding β-evidence on `d` edges copies its endpoints `d` times. It is
//! kept — mirroring [`crate::mapping::reference`], [`crate::labeling::reference`],
//! `anet_num::reference` and `anet_sim::reference` — as the specification the
//! copy-on-write implementation in [the parent module](super) must match
//! bit-for-bit: the `general_broadcast_differential` suite runs both across
//! the scheduler battery and asserts identical traces, metrics and wire-bit
//! totals, and `BENCH_labeling.json` pins the speedup. Do not use it on hot
//! paths.
//!
//! Like the parent module, it keeps [`GeneralState::seen`] only at vertices
//! of out-degree zero. Nothing reads `seen` anywhere else, so this changes no
//! message, metric or outcome; it keeps the suite's full-state equality.

use anet_graph::Network;
use anet_num::partition::canonical_partition_nonempty;
use anet_num::{reference as num_reference, IntervalUnion};
use anet_sim::engine::{run, ExecutionConfig};
use anet_sim::scheduler::Scheduler;
use anet_sim::{AnonymousProtocol, NodeContext};

use super::{GeneralMessage, GeneralState};
use crate::outcome::BroadcastReport;
use crate::{general_broadcast, CoreError, Payload};

/// The reference general-graph broadcast protocol (same state and message
/// types as [`general_broadcast::GeneralBroadcast`], deep-clone plumbing and
/// reference set algebra inside).
#[derive(Debug, Clone)]
pub struct GeneralBroadcast {
    payload: Payload,
}

impl GeneralBroadcast {
    /// Creates the protocol for broadcasting `payload`.
    pub fn new(payload: Payload) -> Self {
        GeneralBroadcast { payload }
    }
}

impl AnonymousProtocol for GeneralBroadcast {
    type State = GeneralState;
    type Message = GeneralMessage;

    fn name(&self) -> &'static str {
        "general-broadcast-reference"
    }

    fn initial_state(&self, ctx: &NodeContext) -> GeneralState {
        general_broadcast::GeneralBroadcast::new(self.payload.clone()).initial_state(ctx)
    }

    fn root_messages(&self, root_out_degree: usize) -> Vec<(usize, GeneralMessage)> {
        general_broadcast::GeneralBroadcast::new(self.payload.clone())
            .root_messages(root_out_degree)
    }

    fn on_receive(
        &self,
        ctx: &NodeContext,
        state: &mut GeneralState,
        _in_port: usize,
        message: &GeneralMessage,
    ) -> Vec<(usize, GeneralMessage)> {
        state.received = true;
        let d = ctx.out_degree;
        if d == 0 {
            // Only vertices of out-degree zero keep `seen` (see `GeneralState`).
            state.seen = num_reference::union(&state.seen, &message.alpha);
            state.seen = num_reference::union(&state.seen, &message.beta);
            state.mass.beta = num_reference::union(&state.mass.beta, &message.beta);
            return Vec::new();
        }

        let mut out = Vec::new();
        if !state.mass.partitioned && !message.alpha.is_empty() {
            // First interval mass: one-time canonical partition among the out-ports.
            state.mass.partitioned = true;
            let parts = canonical_partition_nonempty(&message.alpha, d)
                .expect("out-degree is positive, so the partition is well-defined");
            let beta_delta = num_reference::difference(&message.beta, &state.mass.beta);
            state.mass.beta = num_reference::union(&state.mass.beta, &beta_delta);
            for (j, part) in parts.into_iter().enumerate() {
                debug_assert!(state.mass.alpha[j].is_empty());
                if !part.is_empty() || !beta_delta.is_empty() {
                    out.push((
                        j,
                        GeneralMessage {
                            alpha: part.deep_clone(),
                            beta: beta_delta.deep_clone(),
                            payload: self.payload.clone(),
                        },
                    ));
                }
                state.mass.alpha[j] = part;
            }
        } else {
            // Subsequent mass: anything already seen on some out-port is cycle
            // evidence (β); genuinely new mass is routed to the last out-port.
            let mut overlap = IntervalUnion::empty();
            for routed in &state.mass.alpha {
                overlap = num_reference::union(
                    &overlap,
                    &num_reference::intersection(&message.alpha, routed),
                );
            }
            let mut fresh = message.alpha.deep_clone();
            for routed in &state.mass.alpha {
                fresh = num_reference::difference(&fresh, routed);
            }
            let beta_delta = num_reference::difference(
                &num_reference::union(&message.beta, &overlap),
                &state.mass.beta,
            );
            state.mass.beta = num_reference::union(&state.mass.beta, &beta_delta);
            state.mass.alpha[d - 1] = num_reference::union(&state.mass.alpha[d - 1], &fresh);
            if !beta_delta.is_empty() {
                for j in 0..d - 1 {
                    out.push((
                        j,
                        GeneralMessage {
                            alpha: IntervalUnion::empty(),
                            beta: beta_delta.deep_clone(),
                            payload: self.payload.clone(),
                        },
                    ));
                }
            }
            if !fresh.is_empty() || !beta_delta.is_empty() {
                out.push((
                    d - 1,
                    GeneralMessage {
                        alpha: fresh,
                        beta: beta_delta,
                        payload: self.payload.clone(),
                    },
                ));
            }
        }
        out
    }

    fn should_terminate(&self, terminal_state: &GeneralState) -> bool {
        terminal_state.seen.is_unit()
    }
}

/// Runs the reference general-graph broadcast and reports the outcome.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExhausted`] if the engine's delivery budget ran out.
pub fn run_general_broadcast(
    network: &Network,
    payload: Payload,
    scheduler: &mut (impl Scheduler + ?Sized),
) -> Result<BroadcastReport, CoreError> {
    let protocol = GeneralBroadcast::new(payload);
    let result = run(network, &protocol, scheduler, ExecutionConfig::default());
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

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators::{cycle_with_tail, nested_cycles};
    use anet_sim::scheduler::FifoScheduler;

    #[test]
    fn reference_broadcast_terminates_and_matches_the_fast_path() {
        for net in [cycle_with_tail(6).unwrap(), nested_cycles(2, 4).unwrap()] {
            let a =
                run_general_broadcast(&net, Payload::from_bytes(b"r"), &mut FifoScheduler::new())
                    .unwrap();
            let b = general_broadcast::run_general_broadcast(
                &net,
                Payload::from_bytes(b"r"),
                &mut FifoScheduler::new(),
            )
            .unwrap();
            assert!(a.terminated && a.all_received);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.deliveries_at_termination, b.deliveries_at_termination);
        }
    }
}
