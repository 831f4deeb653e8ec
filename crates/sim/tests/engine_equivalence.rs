//! The refactor-safety net: the incremental active-edge-set engine must be
//! observationally identical to the naive full-scan reference engine.
//!
//! Every property here runs the same protocol on the same network twice — once
//! through [`anet_sim::engine::run`] (incremental scheduler notifications, no
//! per-delivery scan) and once through [`anet_sim::reference::run_full_scan`]
//! (candidate list rebuilt on every delivery, the original semantics) — with
//! identically constructed schedulers, and asserts bit-identical results:
//! outcome, full metrics, termination delivery count, per-vertex final states
//! and the complete send trace. The grid covers the whole standard scheduler
//! battery × random seeds × every generator family the paper uses, with and
//! without random fault plans.

use anet_graph::generators::{
    chain_gn, layered_dag, path_network, random_cyclic, random_dag, random_grounded_tree,
};
use anet_graph::{Network, NodeId};
use anet_sim::engine::run;
use anet_sim::reference::run_full_scan;
use anet_sim::scheduler::{standard_battery, DepthFirstScheduler, Scheduler};
use anet_sim::{AnonymousProtocol, ExecutionConfig, FaultPlan, FaultyScheduler, NodeContext};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Flood with a twist: vertices forward on every out-port for their first
/// `fanout_rounds` receipts (not just the first), and messages carry a counter,
/// so queues grow beyond one message per edge and head sequences keep changing —
/// exactly the traffic shape that stresses the incremental bookkeeping.
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

/// Runs both engines under identically constructed schedulers, each wrapped
/// in a [`FaultyScheduler`] when a `plan` is given, and asserts observational
/// equality, returning an error message on the first divergence.
fn assert_engines_agree<P>(
    network: &Network,
    protocol: &P,
    battery_seed: u64,
    random_count: usize,
    config: ExecutionConfig,
    plan: Option<&FaultPlan>,
) -> Result<(), String>
where
    P: AnonymousProtocol,
    P::State: PartialEq + std::fmt::Debug,
    P::Message: PartialEq + std::fmt::Debug,
{
    // The battery plus the out-of-battery depth-first scheduler (kept outside
    // `standard_battery` so the pinned sweep fingerprints stay stable, but its
    // stamp bookkeeping is the trickiest incremental/full-scan pairing here).
    let mut incremental = standard_battery(battery_seed, random_count);
    let mut reference = standard_battery(battery_seed, random_count);
    incremental.push(Box::new(DepthFirstScheduler::new()));
    reference.push(Box::new(DepthFirstScheduler::new()));
    for (inc, full) in incremental.into_iter().zip(reference) {
        let name = inc.name();
        let (mut inc, mut full): (Box<dyn Scheduler>, Box<dyn Scheduler>) = match plan {
            None => (inc, full),
            Some(plan) => (
                Box::new(FaultyScheduler::new(inc, plan.clone())),
                Box::new(FaultyScheduler::new(full, plan.clone())),
            ),
        };
        let a = run(network, protocol, inc.as_mut(), config);
        let b = run_full_scan(network, protocol, full.as_mut(), config);
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
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The flagship property: across every topology family, scheduler in the
    /// battery and seed, both engines produce identical traces, metrics,
    /// states and outcomes.
    #[test]
    fn engines_agree_across_battery_topologies_and_seeds(
        kind in 0usize..6,
        n in 2usize..28,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
        fanout_rounds in 1u64..4,
        needed in 1u64..6,
    ) {
        let network = topology(kind, n, topo_seed);
        let protocol = Chatter { fanout_rounds, needed };
        let verdict = assert_engines_agree(
            &network,
            &protocol,
            battery_seed,
            3,
            ExecutionConfig::with_trace(),
            None,
        );
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// Budget exhaustion must cut both engines at exactly the same delivery.
    #[test]
    fn engines_agree_when_the_budget_interrupts_the_run(
        kind in 0usize..6,
        n in 2usize..20,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
        max_deliveries in 1u64..40,
    ) {
        let network = topology(kind, n, topo_seed);
        let protocol = Chatter { fanout_rounds: 3, needed: u64::MAX };
        let config = ExecutionConfig { max_deliveries, record_trace: true };
        let verdict = assert_engines_agree(&network, &protocol, battery_seed, 2, config, None);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// Quiescent runs (terminal never satisfied) drain every message through
    /// both engines identically.
    #[test]
    fn engines_agree_on_quiescent_runs(
        kind in 0usize..6,
        n in 2usize..16,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
    ) {
        let network = topology(kind, n, topo_seed);
        let protocol = Chatter { fanout_rounds: 2, needed: u64::MAX };
        let verdict = assert_engines_agree(
            &network,
            &protocol,
            battery_seed,
            2,
            ExecutionConfig::with_trace(),
            None,
        );
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// Under a random fault plan — drops, duplicates, a reorder window of up
    /// to 4 and one crash window — both engines still agree. Reorders and
    /// duplicates take messages off an edge out of send order, exactly what
    /// the send-order picks of FIFO and the terminal adversaries must skip.
    #[test]
    fn engines_agree_under_random_fault_plans(
        kind in 0usize..6,
        n in 2usize..20,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
        fanout_rounds in 1u64..4,
        needed in 1u64..8,
        drop_pct in 0u8..40,
        dup_pct in 0u8..40,
        reorder in 0usize..5,
        crash in (0usize..64, 0u64..60, 0u64..30),
        fault_seed in any::<u64>(),
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
        let protocol = Chatter { fanout_rounds, needed };
        let verdict = assert_engines_agree(
            &network,
            &protocol,
            battery_seed,
            3,
            ExecutionConfig::with_trace(),
            Some(&plan),
        );
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}
