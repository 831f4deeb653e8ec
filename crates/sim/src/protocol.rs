//! The anonymous-protocol abstraction (`Π, Σ, π₀, σ₀, f, g, S`).

use crate::Wire;

/// The only per-vertex information an anonymous protocol may use: local degrees.
///
/// Deliberately, neither the vertex id nor "am I the terminal?" is exposed — the
/// paper's vertices know *only* how many incoming and outgoing edges they have and
/// can tell their incident edges apart by index. A vertex with out-degree zero
/// simply has nowhere to forward anything, whether or not it happens to be `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeContext {
    /// Number of incoming edges of the executing vertex.
    pub in_degree: usize,
    /// Number of outgoing edges of the executing vertex.
    pub out_degree: usize,
}

impl NodeContext {
    /// Convenience constructor.
    pub fn new(in_degree: usize, out_degree: usize) -> Self {
        NodeContext {
            in_degree,
            out_degree,
        }
    }
}

/// Where an emitted message goes: one out-port, or every out-port of the
/// emitting vertex.
///
/// A protocol that sends the same message on all its out-ports (the interval
/// protocols' β floods) emits it once as [`OutPort::All`]. The engine stores
/// that message once and queues it on each out-port in port order, with one
/// sequence number, observer event, metrics entry and wire-bit charge per
/// port, exactly as if it had been emitted once per port. See
/// [`AnonymousProtocol::on_receive_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutPort {
    /// The out-port with this index.
    Port(usize),
    /// Every out-port, `0..out_degree`, in port order.
    All,
}

/// Expands every [`OutPort::All`] emission of a vertex with `out_degree`
/// out-ports into one `(port, message)` pair per port, in port order, by
/// cloning; single-port emissions pass through.
fn expand_floods<M: Clone>(out_degree: usize, emitted: Vec<(OutPort, M)>) -> Vec<(usize, M)> {
    let mut ports = Vec::with_capacity(emitted.len());
    for (port, message) in emitted {
        match port {
            OutPort::Port(port) => ports.push((port, message)),
            OutPort::All => {
                if let Some(last) = out_degree.checked_sub(1) {
                    ports.extend((0..last).map(|port| (port, message.clone())));
                    ports.push((last, message));
                }
            }
        }
    }
    ports
}

/// An anonymous protocol in the sense of Section 2 of the paper.
///
/// * `State` is the state space `Π` and [`initial_state`](Self::initial_state) is `π₀`
///   (which may depend only on the local degrees).
/// * `Message` is the message space `Σ`; [`root_messages`](Self::root_messages) is the
///   initial message `σ₀` injected by the root on its out-ports.
/// * [`on_receive`](Self::on_receive) combines the state function `f` and the message
///   function `g`: it updates the local state and returns, per out-port, the message to
///   transmit (absent ports transmit nothing, the paper's `φ`).
///   [`on_receive_into`](Self::on_receive_into) is the same step in the engine's
///   calling convention, where one message can name every out-port at once.
/// * [`should_terminate`](Self::should_terminate) is the stopping predicate `S`,
///   evaluated on the terminal's state after each delivery to the terminal.
///
/// Protocol values themselves carry only *global* protocol parameters (such as the
/// payload `m` being broadcast); everything per-vertex lives in `State`.
pub trait AnonymousProtocol {
    /// Per-vertex protocol state (`Π`).
    type State: Clone + std::fmt::Debug;
    /// Messages transmitted on edges (`Σ`).
    type Message: Clone + std::fmt::Debug + Wire;

    /// A short human-readable protocol name used in reports and traces.
    fn name(&self) -> &'static str;

    /// `π₀`: the initial state of a vertex with the given local degrees.
    fn initial_state(&self, ctx: &NodeContext) -> Self::State;

    /// `σ₀`: the messages the root sends at time zero, as `(out_port, message)`
    /// pairs. In the base model the root has a single outgoing edge, so this is one
    /// message on port 0.
    fn root_messages(&self, root_out_degree: usize) -> Vec<(usize, Self::Message)>;

    /// `f` and `g`: deliver `message` on `in_port`, update `state`, and return the
    /// messages to transmit as `(out_port, message)` pairs.
    ///
    /// Out-ports must be smaller than `ctx.out_degree`; the engine treats a larger
    /// port as a protocol bug and panics.
    ///
    /// This method and [`on_receive_into`](Self::on_receive_into) are
    /// semantically the same step with two calling conventions; **implement at
    /// least one** (each has a default written in terms of the other, so
    /// implementing neither recurses forever). Protocols that implement only
    /// this one keep working unchanged; hot protocols implement
    /// `on_receive_into` to skip the per-delivery `Vec` allocation and to
    /// flood one message on every out-port. Called on such a protocol, this
    /// default expands each flood into one clone per out-port, in port order,
    /// so both forms name the same sends.
    fn on_receive(
        &self,
        ctx: &NodeContext,
        state: &mut Self::State,
        in_port: usize,
        message: &Self::Message,
    ) -> Vec<(usize, Self::Message)> {
        let mut out = Vec::new();
        self.on_receive_into(ctx, state, in_port, message, &mut out);
        expand_floods(ctx.out_degree, out)
    }

    /// The engine's form of [`on_receive`](Self::on_receive): emitted
    /// `(out_port, message)` pairs are **appended** to `out` instead of
    /// returned, and a message meant for every out-port is emitted once, as
    /// `(OutPort::All, message)`.
    ///
    /// The engine clears and reuses one scratch buffer across all deliveries
    /// of a run, so an implementation of this method makes the per-delivery
    /// emit cost allocation-free. A flood is stored once and queued on each
    /// out-port in port order; it is observationally the same as emitting
    /// the message on `OutPort::Port(0)`, `OutPort::Port(1)`, … in turn (the
    /// same sequence numbers, observer events, metrics and wire bits), minus
    /// the per-port clones. `out` may already be non-empty only in
    /// third-party callers; implementations must append, never truncate.
    ///
    /// See [`on_receive`](Self::on_receive) for the mutual-default contract:
    /// implement at least one of the two. This default emits each of
    /// `on_receive`'s pairs on its single port.
    fn on_receive_into(
        &self,
        ctx: &NodeContext,
        state: &mut Self::State,
        in_port: usize,
        message: &Self::Message,
        out: &mut Vec<(OutPort, Self::Message)>,
    ) {
        out.extend(
            self.on_receive(ctx, state, in_port, message)
                .into_iter()
                .map(|(port, message)| (OutPort::Port(port), message)),
        );
    }

    /// `S`: whether the terminal, in `terminal_state`, declares termination.
    fn should_terminate(&self, terminal_state: &Self::State) -> bool;
}

/// An anonymous protocol that can re-transmit its knowledge frontier, making
/// it recoverable under message loss via [`crate::engine::run_recovering`].
///
/// The paper's protocols assume reliable channels: every send is delivered
/// exactly once, so a single flood suffices and a lost message starves the run
/// forever. A `RefloodProtocol` additionally knows how to answer "if you had
/// to re-send everything you have ever told each out-port, what would you
/// say?" — the *frontier*. The engine invokes it only when a run drains with
/// messages destroyed (see [`crate::engine::run_recovering`] for the exact
/// contract), giving a retry variant of the protocol without touching the
/// pristine delivery path.
///
/// Implementations must satisfy two laws, both relied on by the recovery
/// differential suite:
///
/// * **Idempotence** — re-delivering a frontier message to a vertex that
///   already processed its content must not change what the protocol
///   ultimately computes (labels, records, payload knowledge). The interval
///   protocols get this for free: duplicate α mass is routed to β exactly as
///   a cycle echo would be, and record floods are interned sets.
/// * **Purity** — `reflood` takes `&State` and must not mutate anything
///   observable; calling it is not a protocol step, only the deliveries it
///   causes are.
pub trait RefloodProtocol: AnonymousProtocol {
    /// The frontier: for each out-port, the message that re-transmits
    /// everything this vertex has already contributed on that port. Ports with
    /// nothing to say are simply omitted (an empty vector means the vertex
    /// stays silent in a re-flood round).
    fn reflood(&self, ctx: &NodeContext, state: &Self::State) -> Vec<(usize, Self::Message)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Implements only the collecting form; the emit-into default must route
    /// through it.
    #[derive(Debug)]
    struct Collecting;

    impl AnonymousProtocol for Collecting {
        type State = u32;
        type Message = u64;

        fn name(&self) -> &'static str {
            "collecting"
        }
        fn initial_state(&self, _ctx: &NodeContext) -> u32 {
            0
        }
        fn root_messages(&self, _root_out_degree: usize) -> Vec<(usize, u64)> {
            vec![(0, 1u64)]
        }
        fn on_receive(
            &self,
            _ctx: &NodeContext,
            state: &mut u32,
            _in_port: usize,
            message: &u64,
        ) -> Vec<(usize, u64)> {
            *state += *message as u32;
            vec![(0, message + 1)]
        }
        fn should_terminate(&self, terminal_state: &u32) -> bool {
            *terminal_state > 0
        }
    }

    /// Implements only the emit-into form, with one single-port message and
    /// one flood; the collecting default must route through it and expand
    /// the flood.
    #[derive(Debug)]
    struct Emitting;

    impl AnonymousProtocol for Emitting {
        type State = u32;
        type Message = u64;

        fn name(&self) -> &'static str {
            "emitting"
        }
        fn initial_state(&self, _ctx: &NodeContext) -> u32 {
            0
        }
        fn root_messages(&self, _root_out_degree: usize) -> Vec<(usize, u64)> {
            vec![(0, 1u64)]
        }
        fn on_receive_into(
            &self,
            _ctx: &NodeContext,
            state: &mut u32,
            _in_port: usize,
            message: &u64,
            out: &mut Vec<(OutPort, u64)>,
        ) {
            *state += *message as u32;
            out.push((OutPort::Port(0), message + 1));
            out.push((OutPort::All, message + 2));
        }
        fn should_terminate(&self, terminal_state: &u32) -> bool {
            *terminal_state > 0
        }
    }

    #[test]
    fn on_receive_defaults_are_mutual() {
        let ctx = NodeContext::new(1, 3);
        // Collecting impl, called through the emit-into default: appends.
        let mut state = 0;
        let mut out = vec![(OutPort::Port(9), 9)];
        Collecting.on_receive_into(&ctx, &mut state, 0, &5, &mut out);
        assert_eq!(state, 5);
        assert_eq!(out, vec![(OutPort::Port(9), 9), (OutPort::Port(0), 6)]);
        // Emit-into impl, called through the collecting default: the flood
        // becomes one message per out-port, in port order.
        let mut state = 0;
        let collected = Emitting.on_receive(&ctx, &mut state, 0, &5);
        assert_eq!(state, 5);
        assert_eq!(collected, vec![(0, 6), (0, 7), (1, 7), (2, 7)]);
        // A sink has no port to flood.
        let sink = NodeContext::new(1, 0);
        assert_eq!(
            expand_floods(sink.out_degree, vec![(OutPort::All, 1u64)]),
            vec![]
        );
    }

    #[test]
    fn node_context_is_constructible_and_comparable() {
        let a = NodeContext::new(2, 3);
        assert_eq!(a.in_degree, 2);
        assert_eq!(a.out_degree, 3);
        assert_eq!(
            a,
            NodeContext {
                in_degree: 2,
                out_degree: 3
            }
        );
        assert_ne!(a, NodeContext::new(3, 2));
    }
}
