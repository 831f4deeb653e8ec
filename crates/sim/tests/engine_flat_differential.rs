//! The memory-layout refactor-safety net: the flat engine (CSR adjacency +
//! pooled message arena + emit-into scratch buffer) must be observationally
//! identical to the retained queue-forest engine.
//!
//! Every property runs the same protocol on the same network twice — once
//! through [`anet_sim::engine::run_observed`] (the flat core) and once
//! through [`anet_sim::reference::run_queue_forest`] (the pre-flat
//! incremental engine, one `VecDeque` per edge) — with identically
//! constructed schedulers and a [`StepLog`] observing each, and asserts
//! bit-identical results: outcome, full metrics (wire bits, per-edge counts),
//! termination delivery count, per-vertex final states, the complete send
//! trace, the step log and the re-flood accounting. The grid covers the
//! standard scheduler battery × random seeds × every generator family, from
//! pristine and corrupted starts, under reliable and faulty schedulers, with
//! and without re-flood recovery.

use anet_graph::generators::{
    chain_gn, layered_dag, path_network, random_cyclic, random_dag, random_grounded_tree,
};
use anet_graph::Network;
use anet_sim::engine::run_observed;
use anet_sim::reference::run_queue_forest;
use anet_sim::scheduler::{standard_battery, Scheduler};
use anet_sim::{
    AnonymousProtocol, ExecutionConfig, FaultPlan, FaultyScheduler, NodeContext, RecoveredRun,
    RefloodProtocol, StepLog,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The traffic generator shared with the full-scan equivalence suite:
/// vertices forward on every out-port for their first `fanout_rounds`
/// receipts, so queues grow beyond one message per edge and the arena's
/// recycling and chain bookkeeping are exercised.
#[derive(Debug, Clone)]
struct Chatter {
    fanout_rounds: u64,
    needed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ChatterState {
    received: u64,
    sum: u64,
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

impl RefloodProtocol for Chatter {
    fn reflood(&self, ctx: &NodeContext, state: &ChatterState) -> Vec<(usize, u64)> {
        if state.received == 0 {
            return Vec::new();
        }
        (0..ctx.out_degree).map(|p| (p, state.sum)).collect()
    }
}

/// Builds the `case`-th topology from the family grid.
fn topology(kind: usize, n: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let internal = n.max(2);
    match kind {
        0 => chain_gn(internal).expect("chain_gn accepts n >= 1"),
        1 => path_network(internal).expect("path_network accepts n >= 1"),
        2 => random_grounded_tree(&mut rng, internal, 4, 0.3).expect("valid tree parameters"),
        3 => layered_dag(&mut rng, (internal / 4).max(1), 4, 2).expect("valid dag parameters"),
        4 => random_dag(&mut rng, internal, 0.2).expect("valid dag parameters"),
        _ => random_cyclic(&mut rng, internal, 0.15, 0.1).expect("valid cyclic parameters"),
    }
}

/// Asserts every observable field of two runs, and their step logs, is
/// identical.
fn assert_results_identical<S, M>(
    name: &str,
    (a, log_a): (&RecoveredRun<S, M>, &StepLog),
    (b, log_b): (&RecoveredRun<S, M>, &StepLog),
) -> Result<(), String>
where
    S: PartialEq + std::fmt::Debug,
    M: PartialEq + std::fmt::Debug,
{
    let reflood = |r: &RecoveredRun<S, M>| (r.reflood_rounds, r.reflood_sends, r.reflood_bits);
    if reflood(a) != reflood(b) {
        return Err(format!(
            "[{name}] re-flood rounds, sends and bits {:?} != {:?}",
            reflood(a),
            reflood(b)
        ));
    }
    let (a, b) = (&a.result, &b.result);
    if a.outcome != b.outcome {
        return Err(format!(
            "[{name}] outcome {:?} != {:?}",
            a.outcome, b.outcome
        ));
    }
    if a.metrics != b.metrics {
        return Err(format!(
            "[{name}] metrics {:?} != {:?}",
            a.metrics, b.metrics
        ));
    }
    if a.deliveries_at_termination != b.deliveries_at_termination {
        return Err(format!(
            "[{name}] deliveries_at_termination {:?} != {:?}",
            a.deliveries_at_termination, b.deliveries_at_termination
        ));
    }
    if a.states != b.states {
        return Err(format!("[{name}] final vertex states diverge"));
    }
    if log_a != log_b {
        return Err(format!("[{name}] step logs diverge"));
    }
    if a.trace != b.trace {
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        let first = ta
            .events()
            .iter()
            .zip(tb.events())
            .position(|(x, y)| x != y)
            .map(|i| format!("first divergence at send #{i}"))
            .unwrap_or_else(|| format!("trace lengths differ: {} vs {}", ta.len(), tb.len()));
        return Err(format!("[{name}] traces diverge: {first}"));
    }
    Ok(())
}

/// Runs both engines (flat vs queue forest) under identically constructed
/// schedulers, optionally wrapped in the same fault plan, from the same
/// `corrupt`ed start with the same retry budget, and asserts observational
/// equality.
#[allow(clippy::too_many_arguments)]
fn assert_layouts_agree(
    network: &Network,
    protocol: &Chatter,
    battery_seed: u64,
    random_count: usize,
    config: ExecutionConfig,
    plan: Option<&FaultPlan>,
    corrupt: &dyn Fn(&mut [ChatterState]),
    retry_budget: u32,
) -> Result<(), String> {
    let flat = standard_battery(battery_seed, random_count);
    let forest = standard_battery(battery_seed, random_count);
    for (flat_sched, forest_sched) in flat.into_iter().zip(forest) {
        let name = flat_sched.name();
        let (mut fa, mut fb): (Box<dyn Scheduler>, Box<dyn Scheduler>) = match plan {
            None => (flat_sched, forest_sched),
            Some(plan) => (
                Box::new(FaultyScheduler::new(flat_sched, plan.clone())),
                Box::new(FaultyScheduler::new(forest_sched, plan.clone())),
            ),
        };
        let (mut log_a, mut log_b) = (StepLog::new(), StepLog::new());
        let a = run_observed(
            network,
            protocol,
            fa.as_mut(),
            config,
            corrupt,
            retry_budget,
            &mut log_a,
        );
        let b = run_queue_forest(
            network,
            protocol,
            fb.as_mut(),
            config,
            corrupt,
            retry_budget,
            &mut log_b,
        );
        assert_results_identical(name, (&a, &log_a), (&b, &log_b))?;
    }
    Ok(())
}

/// The pristine start.
fn no_corruption(_: &mut [ChatterState]) {}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The flagship property: across every topology family, scheduler in the
    /// battery and seed, the flat and queue-forest engines produce identical
    /// traces, metrics, states, outcomes and step logs.
    #[test]
    fn layouts_agree_across_battery_topologies_and_seeds(
        kind in 0usize..6,
        n in 2usize..28,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
        fanout_rounds in 1u64..4,
        needed in 1u64..6,
    ) {
        let network = topology(kind, n, topo_seed);
        let protocol = Chatter { fanout_rounds, needed };
        let verdict = assert_layouts_agree(
            &network,
            &protocol,
            battery_seed,
            3,
            ExecutionConfig::with_trace(),
            None,
            &no_corruption,
            0,
        );
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// Under a faulty adversary (drops, duplicates, reorders) the arena's
    /// cold paths — positional removal, duplicate re-enqueue — must match the
    /// `VecDeque` semantics step for step.
    #[test]
    fn layouts_agree_under_fault_injection(
        kind in 0usize..6,
        n in 2usize..20,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        drops in 0u8..30,
        dups in 0u8..30,
        reorder in 0usize..4,
    ) {
        let network = topology(kind, n, topo_seed);
        let protocol = Chatter { fanout_rounds: 3, needed: 4 };
        let plan = FaultPlan::reliable()
            .with_drops(drops)
            .with_duplicates(dups)
            .with_reorder(reorder)
            .with_seed(fault_seed);
        let verdict = assert_layouts_agree(
            &network,
            &protocol,
            battery_seed,
            2,
            ExecutionConfig::with_trace(),
            Some(&plan),
            &no_corruption,
            0,
        );
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// Budget exhaustion must cut both layouts at exactly the same delivery.
    #[test]
    fn layouts_agree_when_the_budget_interrupts_the_run(
        kind in 0usize..6,
        n in 2usize..20,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
        max_deliveries in 1u64..40,
    ) {
        let network = topology(kind, n, topo_seed);
        let protocol = Chatter { fanout_rounds: 3, needed: u64::MAX };
        let config = ExecutionConfig { max_deliveries, record_trace: true };
        let verdict = assert_layouts_agree(
            &network,
            &protocol,
            battery_seed,
            2,
            config,
            None,
            &no_corruption,
            0,
        );
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// The corrupted-start entry point perturbs states identically before
    /// either engine delivers anything.
    #[test]
    fn layouts_agree_from_corrupted_starts(
        kind in 0usize..6,
        n in 2usize..20,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
        poison in 1u64..1_000,
    ) {
        let network = topology(kind, n, topo_seed);
        let protocol = Chatter { fanout_rounds: 2, needed: 3 };
        let corrupt = |states: &mut [ChatterState]| {
            for (i, s) in states.iter_mut().enumerate() {
                if i % 2 == 0 {
                    s.sum = s.sum.wrapping_add(poison);
                }
            }
        };
        let verdict = assert_layouts_agree(
            &network,
            &protocol,
            battery_seed,
            2,
            ExecutionConfig::with_trace(),
            None,
            &corrupt,
            0,
        );
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// The re-flood recovery path: both layouts fire the same rounds and
    /// charge the same retry traffic under the same lossy adversary.
    #[test]
    fn layouts_agree_under_reflood_recovery(
        kind in 0usize..6,
        n in 2usize..20,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        drops in 1u8..40,
        retry_budget in 0u32..4,
    ) {
        let network = topology(kind, n, topo_seed);
        let protocol = Chatter { fanout_rounds: 2, needed: 3 };
        let plan = FaultPlan::reliable().with_drops(drops).with_seed(fault_seed);
        let verdict = assert_layouts_agree(
            &network,
            &protocol,
            battery_seed,
            2,
            ExecutionConfig::with_trace(),
            Some(&plan),
            &no_corruption,
            retry_budget,
        );
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}
