//! Flood equivalence: a protocol that emits each flood once, as
//! [`OutPort::All`], runs exactly like its per-port twin, which emits the
//! same message once per out-port.
//!
//! The engine stores a flood as one body with one queue entry per out-port.
//! That must be invisible: both forms give identical sends, sequence numbers,
//! wire bits, schedules and states — here under the scheduler battery plus
//! depth-first, random drop/duplicate/reorder/crash plans and re-flood
//! budgets 0 and 2 — and no stored message may outlive its last queue entry
//! (or die before it). The second check counts live message values on this
//! thread at every engine step and compares the count with the bodies the
//! run's own send and step events say are still queued.

use std::cell::Cell;
use std::collections::HashMap;

use anet_graph::generators::{layered_dag, random_cyclic, random_dag, random_grounded_tree};
use anet_graph::{EdgeId, Network, NodeId};
use anet_sim::engine::{run_observed, ExecutionConfig, RecoveredRun};
use anet_sim::scheduler::{standard_battery, DepthFirstScheduler, Scheduler, SchedulerAction};
use anet_sim::trace::SendEvent;
use anet_sim::{
    AnonymousProtocol, FaultPlan, FaultyScheduler, NodeContext, Observer, OutPort, RefloodProtocol,
    StepLog, Wire,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// Live [`Instance`] values on this thread.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The next [`Instance::id`] on this thread.
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
}

/// A counted value with an identity of its own: each construction and each
/// clone is a new instance with a new id. Instances compare equal, so the
/// messages carrying them compare by their other fields.
#[derive(Debug)]
struct Instance {
    id: u64,
}

impl Instance {
    fn new() -> Self {
        LIVE.with(|live| live.set(live.get() + 1));
        let id = NEXT_ID.with(|next| {
            let id = next.get();
            next.set(id + 1);
            id
        });
        Instance { id }
    }

    fn live() -> usize {
        LIVE.with(Cell::get)
    }
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance::new()
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        LIVE.with(|live| live.set(live.get() - 1));
    }
}

impl PartialEq for Instance {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for Instance {}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Token {
    value: u64,
    instance: Instance,
}

impl Token {
    fn new(value: u64) -> Self {
        Token {
            value,
            instance: Instance::new(),
        }
    }
}

impl Wire for Token {
    fn wire_bits(&self) -> u64 {
        8 + u64::from(64 - self.value.leading_zeros())
    }
}

/// A flood with side messages: for its first `fanout_rounds` receipts a
/// vertex floods a new value on every out-port, sometimes preceded by a
/// message on one port and followed by a second flood. Sinks, the terminal
/// among them, flood too — onto no port at all, which must send and store
/// nothing.
#[derive(Debug, Clone)]
struct Gossip {
    fanout_rounds: u64,
    needed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct GossipState {
    received: u64,
    sum: u64,
}

impl AnonymousProtocol for Gossip {
    type State = GossipState;
    type Message = Token;

    fn name(&self) -> &'static str {
        "gossip"
    }

    fn initial_state(&self, _ctx: &NodeContext) -> GossipState {
        GossipState {
            received: 0,
            sum: 0,
        }
    }

    fn root_messages(&self, root_out_degree: usize) -> Vec<(usize, Token)> {
        (0..root_out_degree)
            .map(|port| (port, Token::new(port as u64 + 1)))
            .collect()
    }

    fn on_receive_into(
        &self,
        ctx: &NodeContext,
        state: &mut GossipState,
        in_port: usize,
        message: &Token,
        out: &mut Vec<(OutPort, Token)>,
    ) {
        state.received += 1;
        state.sum = state
            .sum
            .wrapping_add(message.value)
            .wrapping_add(in_port as u64);
        if state.received > self.fanout_rounds {
            return;
        }
        let value = message.value.wrapping_mul(3).wrapping_add(state.sum % 5);
        if value.is_multiple_of(4) && ctx.out_degree > 0 {
            let port = (value / 4) as usize % ctx.out_degree;
            out.push((OutPort::Port(port), Token::new(value / 4)));
        }
        out.push((OutPort::All, Token::new(value)));
        if value.is_multiple_of(3) {
            out.push((OutPort::All, Token::new(value / 3)));
        }
    }

    fn should_terminate(&self, terminal_state: &GossipState) -> bool {
        terminal_state.received >= self.needed
    }
}

impl RefloodProtocol for Gossip {
    fn reflood(&self, ctx: &NodeContext, state: &GossipState) -> Vec<(usize, Token)> {
        if state.received == 0 {
            return Vec::new();
        }
        (0..ctx.out_degree)
            .map(|port| (port, Token::new(state.sum)))
            .collect()
    }
}

/// The per-port twin of a protocol: the same steps, with every flood
/// expanded into one message per out-port by the `on_receive` default.
#[derive(Debug)]
struct PerPort<P>(P);

impl<P: AnonymousProtocol> AnonymousProtocol for PerPort<P> {
    type State = P::State;
    type Message = P::Message;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn initial_state(&self, ctx: &NodeContext) -> P::State {
        self.0.initial_state(ctx)
    }

    fn root_messages(&self, root_out_degree: usize) -> Vec<(usize, P::Message)> {
        self.0.root_messages(root_out_degree)
    }

    fn on_receive(
        &self,
        ctx: &NodeContext,
        state: &mut P::State,
        in_port: usize,
        message: &P::Message,
    ) -> Vec<(usize, P::Message)> {
        self.0.on_receive(ctx, state, in_port, message)
    }

    fn should_terminate(&self, terminal_state: &P::State) -> bool {
        self.0.should_terminate(terminal_state)
    }
}

impl<P: RefloodProtocol> RefloodProtocol for PerPort<P> {
    fn reflood(&self, ctx: &NodeContext, state: &P::State) -> Vec<(usize, P::Message)> {
        self.0.reflood(ctx, state)
    }
}

/// Follows the stored messages of a run through its events. A send names its
/// stored message by the instance the event lends out (the entries of one
/// flood share it); a duplicate queues one more entry for the message its
/// step took. At every step, the [`Instance`]s the run keeps alive on this
/// thread must be exactly the stored messages with an entry still queued,
/// the one the step took (the engine releases it after the step) and the
/// trace's clones.
#[derive(Debug, Default)]
struct BodyLedger {
    /// Instances alive on this thread before the run.
    before: usize,
    /// Queued entries per stored message (instance id).
    entries: HashMap<u64, usize>,
    /// The stored message of each queued sequence number.
    queued: HashMap<u64, u64>,
    next_seq: u64,
    /// The stored message of the last step, released since if it was its
    /// last entry.
    taken: Option<u64>,
    /// Trace clones alive: one per send (the run is traced).
    trace_clones: usize,
    steps: u64,
}

impl BodyLedger {
    fn new() -> Self {
        BodyLedger {
            before: Instance::live(),
            ..BodyLedger::default()
        }
    }

    /// Forgets the last step's stored message if that step released it.
    fn settle(&mut self) {
        if let Some(body) = self.taken.take() {
            if self.entries[&body] == 0 {
                self.entries.remove(&body);
            }
        }
    }

    fn queue(&mut self, seq: u64, body: u64) {
        assert_eq!(seq, self.next_seq, "sequence numbers are consecutive");
        self.queued.insert(seq, body);
        *self.entries.entry(body).or_default() += 1;
        self.next_seq = seq + 1;
    }
}

impl Observer<Token> for BodyLedger {
    fn on_send(&mut self, event: &SendEvent<&Token>) {
        self.settle();
        self.trace_clones += 1;
        self.queue(event.seq, event.message.instance.id);
    }

    fn on_step(&mut self, _edge: EdgeId, action: SchedulerAction, seq: u64) {
        self.settle();
        let body = self
            .queued
            .remove(&seq)
            .expect("a step takes a queued entry");
        *self
            .entries
            .get_mut(&body)
            .expect("queued bodies are counted") -= 1;
        assert_eq!(
            Instance::live() - self.before,
            self.entries.len() + self.trace_clones,
            "live messages differ from queued bodies at step {}",
            self.steps
        );
        if action == SchedulerAction::Duplicate {
            let copy = self.next_seq;
            self.queue(copy, body);
        }
        self.taken = Some(body);
        self.steps += 1;
    }
}

/// Builds the `kind`-th topology family, every one with cycles or fan-out.
fn topology(kind: usize, n: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let internal = n.max(2);
    match kind {
        0 => random_grounded_tree(&mut rng, internal, 4, 0.3).expect("valid tree parameters"),
        1 => layered_dag(&mut rng, (internal / 4).max(1), 4, 2).expect("valid dag parameters"),
        2 => random_dag(&mut rng, internal, 0.25).expect("valid dag parameters"),
        _ => random_cyclic(&mut rng, internal, 0.2, 0.15).expect("valid cyclic parameters"),
    }
}

/// One traced, step-logged run of `protocol` under `scheduler` wrapped in
/// `plan`, with its bodies checked by a [`BodyLedger`].
fn observed_run<P>(
    network: &Network,
    protocol: &P,
    scheduler: Box<dyn Scheduler>,
    plan: &FaultPlan,
    retry_budget: u32,
) -> (RecoveredRun<GossipState, Token>, StepLog)
where
    P: RefloodProtocol<State = GossipState, Message = Token>,
{
    let mut faulty = FaultyScheduler::new(scheduler, plan.clone());
    let mut observer = (BodyLedger::new(), StepLog::new());
    let run = run_observed(
        network,
        protocol,
        &mut faulty,
        ExecutionConfig::with_trace(),
        |_| {},
        retry_budget,
        &mut observer,
    );
    let trace = run.result.trace.as_ref().expect("trace requested");
    assert_eq!(
        Instance::live(),
        observer.0.before + trace.len(),
        "a stored message outlived the run"
    );
    (run, observer.1)
}

/// Runs the flood and its per-port twin under every battery member plus
/// depth-first and returns the first divergence.
fn assert_flood_matches_twin(
    network: &Network,
    gossip: &Gossip,
    battery_seed: u64,
    plan: &FaultPlan,
    retry_budget: u32,
) -> Result<(), String> {
    let twin = PerPort(gossip.clone());
    let mut floods = standard_battery(battery_seed, 2);
    let mut twins = standard_battery(battery_seed, 2);
    floods.push(Box::new(DepthFirstScheduler::new()));
    twins.push(Box::new(DepthFirstScheduler::new()));
    for (flood_scheduler, twin_scheduler) in floods.into_iter().zip(twins) {
        let name = flood_scheduler.name();
        let (a, log_a) = observed_run(network, gossip, flood_scheduler, plan, retry_budget);
        let (b, log_b) = observed_run(network, &twin, twin_scheduler, plan, retry_budget);
        let checks = [
            ("outcome", a.result.outcome == b.result.outcome),
            ("metrics", a.result.metrics == b.result.metrics),
            (
                "deliveries at termination",
                a.result.deliveries_at_termination == b.result.deliveries_at_termination,
            ),
            ("states", a.result.states == b.result.states),
            ("trace", a.result.trace == b.result.trace),
            ("step log", log_a == log_b),
            (
                "re-flood accounting",
                (a.reflood_rounds, a.reflood_sends, a.reflood_bits)
                    == (b.reflood_rounds, b.reflood_sends, b.reflood_bits),
            ),
        ];
        if let Some((what, _)) = checks.iter().find(|(_, same)| !same) {
            return Err(format!("[{name}] {what} diverged"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flood and its per-port twin agree on every observable under the
    /// battery, random fault plans and both re-flood budgets, and every
    /// stored message lives exactly as long as its queue entries.
    #[test]
    fn a_flood_runs_exactly_like_its_per_port_twin(
        kind in 0usize..4,
        n in 2usize..18,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
        fanout_rounds in 1u64..4,
        needed in 1u64..12,
        drop_pct in 0u8..35,
        dup_pct in 0u8..35,
        reorder in 0usize..5,
        crash in (0usize..64, 0u64..60, 0u64..30),
        fault_seed in any::<u64>(),
        retry_budget in (0u32..2).prop_map(|i| 2 * i),
    ) {
        let network = topology(kind, n, topo_seed);
        let (crash_node, crash_from, crash_len) = crash;
        let plan = FaultPlan::reliable()
            .with_drops(drop_pct)
            .with_duplicates(dup_pct)
            .with_reorder(reorder)
            .with_seed(fault_seed)
            .with_crash(
                NodeId(crash_node % network.node_count()),
                crash_from,
                crash_from + crash_len,
            );
        let gossip = Gossip { fanout_rounds, needed };
        let verdict = assert_flood_matches_twin(&network, &gossip, battery_seed, &plan, retry_budget);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}
