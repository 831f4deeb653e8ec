//! The test protocol shared by the engine suites.

use anet_sim::{AnonymousProtocol, NodeContext, RefloodProtocol};

/// Flood with a twist: vertices forward on every out-port for their first
/// `fanout_rounds` receipts (not just the first), and messages carry a
/// counter, so queues grow beyond one message per edge, head sequences keep
/// changing and delivery order genuinely matters — exactly the traffic shape
/// that stresses the engine's bookkeeping, and on which drops, duplicates
/// and reorders all bite.
#[derive(Debug, Clone)]
pub struct Chatter {
    pub fanout_rounds: u64,
    pub needed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChatterState {
    pub received: u64,
    pub sum: u64,
}

impl AnonymousProtocol for Chatter {
    type State = ChatterState;
    type Message = u64;

    fn name(&self) -> &'static str {
        "chatter"
    }

    fn initial_state(&self, _ctx: &NodeContext) -> ChatterState {
        ChatterState {
            received: 0,
            sum: 0,
        }
    }

    fn root_messages(&self, root_out_degree: usize) -> Vec<(usize, u64)> {
        (0..root_out_degree).map(|p| (p, 1)).collect()
    }

    fn on_receive(
        &self,
        ctx: &NodeContext,
        state: &mut ChatterState,
        in_port: usize,
        message: &u64,
    ) -> Vec<(usize, u64)> {
        state.received += 1;
        state.sum = state
            .sum
            .wrapping_add(*message)
            .wrapping_add(in_port as u64);
        if state.received > self.fanout_rounds {
            return Vec::new();
        }
        (0..ctx.out_degree)
            .map(|p| (p, message.wrapping_add(p as u64 + 1)))
            .collect()
    }

    fn should_terminate(&self, terminal_state: &ChatterState) -> bool {
        terminal_state.received >= self.needed
    }
}

/// The frontier: a vertex that has heard anything re-sends its running sum
/// on every out-port, and so does the root (the one vertex without in-edges,
/// which never hears anything), so a re-flood round sends the root's
/// frontier besides σ₀.
impl RefloodProtocol for Chatter {
    fn reflood(&self, ctx: &NodeContext, state: &ChatterState) -> Vec<(usize, u64)> {
        if state.received == 0 && ctx.in_degree > 0 {
            return Vec::new();
        }
        (0..ctx.out_degree).map(|p| (p, state.sum)).collect()
    }
}
