//! The retained deep-clone labelling implementation.
//!
//! This is the labelling protocol exactly as it behaved before the
//! copy-on-write endpoint-array `IntervalUnion`: every set operation funnels
//! through the collect-sort-merge references in [`anet_num::reference`], and
//! every per-out-port message carries a **deep clone** of its α/β components
//! ([`IntervalUnion::deep_clone`]) — the owned-value economy in which sending
//! a label on `d` edges copies its endpoints `d` times. It is kept —
//! mirroring [`crate::mapping::reference`], `anet_num::reference` and
//! `anet_sim::reference` — as the specification the copy-on-write
//! implementation in [the parent module](super) must match bit-for-bit: the
//! `labeling_differential` suite runs both across the scheduler battery and
//! asserts identical traces, metrics, wire-bit totals and labels, and
//! `BENCH_labeling.json` pins the speedup. Do not use it on hot paths.

use anet_graph::Network;
use anet_num::partition::canonical_partition_nonempty;
use anet_num::{reference as num_reference, IntervalUnion};
use anet_sim::engine::{run, ExecutionConfig};
use anet_sim::scheduler::Scheduler;
use anet_sim::{AnonymousProtocol, NodeContext, RefloodProtocol};

use super::{LabelMessage, LabelingReport, LabelingState};
use crate::{labeling, CoreError};

/// The reference unique-label-assignment protocol (same state and message
/// types as [`labeling::Labeling`], deep-clone plumbing and reference set
/// algebra inside).
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
        "label-assignment-reference"
    }

    fn initial_state(&self, ctx: &NodeContext) -> LabelingState {
        labeling::Labeling::new().initial_state(ctx)
    }

    fn root_messages(&self, root_out_degree: usize) -> Vec<(usize, LabelMessage)> {
        labeling::Labeling::new().root_messages(root_out_degree)
    }

    fn on_receive(
        &self,
        ctx: &NodeContext,
        state: &mut LabelingState,
        _in_port: usize,
        message: &LabelMessage,
    ) -> Vec<(usize, LabelMessage)> {
        state.received = true;
        let d = ctx.out_degree;
        if d == 0 {
            // Absorb everything: α mass becomes (part of) the label, β is recorded,
            // and the running `label ∪ β` accumulator absorbs both deltas.
            state.label = num_reference::union(&state.label, &message.alpha);
            state.mass.beta = num_reference::union(&state.mass.beta, &message.beta);
            state.absorbed = num_reference::union(&state.absorbed, &message.alpha);
            state.absorbed = num_reference::union(&state.absorbed, &message.beta);
            return Vec::new();
        }

        let mut out = Vec::new();
        if !state.mass.partitioned && !message.alpha.is_empty() {
            state.mass.partitioned = true;
            let parts =
                canonical_partition_nonempty(&message.alpha, d + 1).expect("d + 1 >= 2 parts");
            let mut parts = parts.into_iter();
            let own = parts.next().expect("partition has d + 1 parts");
            // β'' = β' ∪ α_0: the claimed label must still reach the terminal.
            let beta_delta = num_reference::difference(
                &num_reference::union(&message.beta, &own),
                &state.mass.beta,
            );
            state.mass.beta = num_reference::union(&state.mass.beta, &beta_delta);
            state.label = own;
            for (j, part) in parts.enumerate() {
                debug_assert!(state.mass.alpha[j].is_empty());
                if !part.is_empty() || !beta_delta.is_empty() {
                    out.push((
                        j,
                        LabelMessage {
                            alpha: part.deep_clone(),
                            beta: beta_delta.deep_clone(),
                        },
                    ));
                }
                state.mass.alpha[j] = part;
            }
        } else {
            let mut overlap = num_reference::intersection(&message.alpha, &state.label);
            for routed in &state.mass.alpha {
                overlap = num_reference::union(
                    &overlap,
                    &num_reference::intersection(&message.alpha, routed),
                );
            }
            // Held mass (every α_j and the label) is overlap, never fresh.
            let mut fresh = num_reference::difference(&message.alpha, &state.label);
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
                        LabelMessage {
                            alpha: IntervalUnion::empty(),
                            beta: beta_delta.deep_clone(),
                        },
                    ));
                }
            }
            if !fresh.is_empty() || !beta_delta.is_empty() {
                out.push((
                    d - 1,
                    LabelMessage {
                        alpha: fresh,
                        beta: beta_delta,
                    },
                ));
            }
        }
        out
    }

    fn should_terminate(&self, terminal_state: &LabelingState) -> bool {
        // Same O(1) predicate as the fast implementation: `absorbed` is the
        // sink-maintained `label ∪ β`.
        terminal_state.absorbed.is_unit()
    }
}

impl RefloodProtocol for Labeling {
    /// Re-sends `α_j` and `β` on every out-port `j` where either is
    /// non-empty, each as its own deep clone.
    fn reflood(&self, _ctx: &NodeContext, state: &LabelingState) -> Vec<(usize, LabelMessage)> {
        let mut out = Vec::new();
        for (j, alpha) in state.mass.alpha.iter().enumerate() {
            if !alpha.is_empty() || !state.mass.beta.is_empty() {
                let message = LabelMessage {
                    alpha: alpha.deep_clone(),
                    beta: state.mass.beta.deep_clone(),
                };
                out.push((j, message));
            }
        }
        out
    }
}

/// Runs the reference labelling protocol and reports the assigned labels.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExhausted`] if the engine's delivery budget ran out.
pub fn run_labeling(
    network: &Network,
    scheduler: &mut (impl Scheduler + ?Sized),
) -> Result<LabelingReport, CoreError> {
    let protocol = Labeling::new();
    let result = run(network, &protocol, scheduler, ExecutionConfig::default());
    labeling::report_from_run(network, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators::{cycle_with_tail, random_cyclic};
    use anet_sim::scheduler::FifoScheduler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reference_labeling_terminates_with_unique_labels() {
        let mut rng = StdRng::seed_from_u64(404);
        for net in [
            cycle_with_tail(6).unwrap(),
            random_cyclic(&mut rng, 15, 0.2, 0.2).unwrap(),
        ] {
            let report = run_labeling(&net, &mut FifoScheduler::new()).unwrap();
            assert!(report.terminated);
            assert!(report.labels_unique);
            let fast = labeling::run_labeling(&net, &mut FifoScheduler::new()).unwrap();
            assert_eq!(report.labels, fast.labels);
            assert_eq!(report.metrics, fast.metrics);
        }
    }

    #[test]
    fn reference_messages_never_alias_their_state() {
        // The deep-clone economy: emitted α/β buffers are copies, not shares.
        let net = cycle_with_tail(4).unwrap();
        let protocol = Labeling::new();
        let result = run(
            &net,
            &protocol,
            &mut FifoScheduler::new(),
            ExecutionConfig::with_trace(),
        );
        let trace = result.trace.expect("trace requested");
        for event in trace.events() {
            for st in &result.states {
                assert!(st.label.is_empty() || !event.message.alpha.shares_storage_with(&st.label));
                assert!(
                    st.mass.beta.is_empty()
                        || !event.message.beta.shares_storage_with(&st.mass.beta)
                );
            }
        }
    }
}
