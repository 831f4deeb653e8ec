//! Synchronous (round-based) execution.
//!
//! Section 2 of the paper notes that the results "can be easily extended … to the
//! case that the communication throughout the network is synchronous". This module
//! provides that mode: execution proceeds in rounds, and in each round **every**
//! message that was in flight at the start of the round is delivered (in send
//! order) before any message generated during the round is considered. Besides
//! serving as a sanity check that the protocols do not depend on asynchrony, the
//! round count is the natural "time" measure of the synchronous model.
//!
//! Delivering in send order is exactly what [`FifoScheduler`] does, so a
//! synchronous run is the asynchronous engine under FIFO; this module only
//! counts its rounds, with an observer (a scheduler cannot: it never sees the
//! sends queued behind an edge's head).

use anet_graph::{EdgeId, Network};

use crate::engine::{run_engine, ExecutionConfig, Outcome, RunResult};
use crate::observer::Observer;
use crate::scheduler::{FifoScheduler, SchedulerAction};
use crate::trace::SendEvent;
use crate::{AnonymousProtocol, NodeContext};

/// The result of a synchronous run: the usual [`RunResult`] plus the number of
/// rounds that elapsed before the terminal accepted (or the run quiesced).
#[derive(Debug, Clone)]
pub struct SynchronousRun<S, M> {
    /// The per-vertex states, metrics and trace, exactly as in the asynchronous
    /// engine.
    pub result: RunResult<S, M>,
    /// Number of rounds started.
    pub rounds: u64,
}

/// Runs `protocol` on `network` in synchronous rounds.
///
/// Round 1 delivers the root's initial messages; round `r + 1` delivers
/// everything emitted during round `r`. The run stops at the delivery after
/// which the terminal's stopping predicate holds, when no messages remain, or
/// when the delivery budget is exhausted. A run cut short by the budget
/// counts the round its next delivery belongs to, so a budget of 0 reports
/// one round and no delivery.
///
/// # Panics
///
/// Panics if the protocol emits on a non-existent out-port (a protocol bug).
pub fn run_synchronous<P>(
    network: &Network,
    protocol: &P,
    config: ExecutionConfig,
) -> SynchronousRun<P::State, P::Message>
where
    P: AnonymousProtocol,
{
    let mut rounds = RoundCounter::default();
    let no_reflood = |_: &NodeContext, _: &P::State| Vec::new();
    let mut fifo = FifoScheduler::new();
    let run = run_engine(
        network,
        protocol,
        &mut fifo,
        config,
        |_| {},
        0,
        no_reflood,
        &mut rounds,
    );
    let result = run.result;
    // FIFO delivers in send order, so the next delivery is send number
    // `messages_delivered`.
    if result.outcome == Outcome::BudgetExhausted
        && result.metrics.messages_delivered >= rounds.round_end
    {
        rounds.rounds += 1;
    }
    SynchronousRun {
        result,
        rounds: rounds.rounds,
    }
}

/// Counts the rounds of a FIFO run: a round ends with the last message sent
/// before it started, so the first step past that send starts the next one.
#[derive(Default)]
struct RoundCounter {
    rounds: u64,
    /// Sequence number of the first send after the current round.
    round_end: u64,
    /// Sequence number of the next send.
    next_seq: u64,
}

impl<M> Observer<M> for RoundCounter {
    fn on_send(&mut self, event: &SendEvent<&M>) {
        self.next_seq = event.seq + 1;
    }

    fn on_step(&mut self, _edge: EdgeId, _action: SchedulerAction, seq: u64) {
        if seq >= self.round_end {
            self.rounds += 1;
            self.round_end = self.next_seq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::Flood;
    use anet_graph::generators::{chain_gn, path_network};

    #[test]
    fn rounds_equal_graph_depth_on_a_path() {
        // On a path of k internal vertices the terminal hears the flood after
        // exactly k + 1 rounds (one hop per round).
        let net = path_network(5).unwrap();
        let run = run_synchronous(&net, &Flood { needed: 1 }, ExecutionConfig::default());
        assert_eq!(run.result.outcome, Outcome::Terminated);
        assert_eq!(run.rounds, 6);
        assert_eq!(run.result.metrics.messages_sent, 6);
    }

    #[test]
    fn chain_terminates_when_all_tokens_arrive() {
        let net = chain_gn(6).unwrap();
        let run = run_synchronous(&net, &Flood { needed: 6 }, ExecutionConfig::default());
        assert_eq!(run.result.outcome, Outcome::Terminated);
        // The last token reaches t one round after the deepest vertex is reached.
        assert_eq!(run.rounds, 7);
        assert!(run.result.metrics.per_edge_messages.iter().all(|&c| c == 1));
    }

    #[test]
    fn quiesces_when_the_terminal_is_never_satisfied() {
        let net = path_network(3).unwrap();
        let run = run_synchronous(&net, &Flood { needed: 2 }, ExecutionConfig::default());
        assert_eq!(run.result.outcome, Outcome::Quiescent);
        assert!(run.rounds >= 4);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let net = chain_gn(10).unwrap();
        let config = ExecutionConfig {
            max_deliveries: 3,
            record_trace: false,
        };
        let run = run_synchronous(&net, &Flood { needed: 10 }, config);
        assert_eq!(run.result.outcome, Outcome::BudgetExhausted);
    }

    #[test]
    fn trace_is_recorded_when_requested() {
        let net = chain_gn(3).unwrap();
        let run = run_synchronous(&net, &Flood { needed: 3 }, ExecutionConfig::with_trace());
        let trace = run.result.trace.expect("requested");
        assert_eq!(trace.len(), net.edge_count());
    }
}
