//! The engine differential: the engine must be observationally identical to
//! the naive full-scan reference engine.
//!
//! Every property here runs the same protocol on the same network twice —
//! once through [`anet_sim::engine::run_observed`] (incremental scheduler
//! notifications, pooled message arena, floods stored once) and once through
//! [`anet_sim::reference::run_full_scan`] (candidate list rebuilt on every
//! step, one `VecDeque` per edge) — with identically constructed schedulers
//! and a [`StepLog`] observing each, and asserts bit-identical results:
//! outcome, full metrics (wire bits, per-edge counts), termination delivery
//! count, per-vertex final states, the complete send trace, the step log and
//! the re-flood accounting. The grid covers the whole standard scheduler
//! battery plus depth-first × random seeds × every generator family the
//! paper uses, from pristine and corrupted starts, with and without random
//! fault plans and re-flood recovery, on fresh and on reused schedulers.

mod common;

use anet_graph::generators::{
    chain_gn, layered_dag, path_network, random_cyclic, random_dag, random_grounded_tree,
};
use anet_graph::{Network, NodeId};
use anet_sim::engine::run_observed;
use anet_sim::reference::run_full_scan;
use anet_sim::scheduler::{standard_battery, DepthFirstScheduler, Scheduler};
use anet_sim::{ExecutionConfig, FaultPlan, FaultyScheduler, RecoveredRun, StepLog};
use common::{Chatter, ChatterState};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// A fault plan with drops, duplicates, a reorder window and one crash
/// window on a vertex of `network`.
fn fault_plan(
    network: &Network,
    (drop_pct, dup_pct, reorder): (u8, u8, usize),
    (crash_node, crash_from, crash_len): (usize, u64, u64),
    seed: u64,
) -> FaultPlan {
    FaultPlan::reliable()
        .with_drops(drop_pct)
        .with_duplicates(dup_pct)
        .with_reorder(reorder)
        .with_seed(seed)
        .with_crash(
            NodeId(crash_node % network.node_count()),
            crash_from,
            crash_from + crash_len,
        )
}

/// Everything both engines are given besides the network and the protocol.
#[derive(Clone, Copy)]
struct Setup<'a> {
    /// Seed of the scheduler battery.
    battery_seed: u64,
    /// Number of random schedulers in the battery.
    random_count: usize,
    config: ExecutionConfig,
    /// Wraps every scheduler in a [`FaultyScheduler`] with this plan.
    plan: Option<&'a FaultPlan>,
    /// The corruption hook, applied to both engines' initial states.
    corrupt: &'a dyn Fn(&mut [ChatterState]),
    retry_budget: u32,
    /// Consecutive runs on each scheduler instance.
    runs: usize,
}

impl Setup<'_> {
    /// One traced run per fresh scheduler, reliable, from a pristine start
    /// and with no re-flood budget.
    fn pristine(battery_seed: u64, random_count: usize) -> Self {
        Setup {
            battery_seed,
            random_count,
            config: ExecutionConfig::with_trace(),
            plan: None,
            corrupt: &|_| {},
            retry_budget: 0,
            runs: 1,
        }
    }
}

/// Asserts every observable field of two runs, and their step logs, is
/// identical.
fn assert_results_identical(
    name: &str,
    (a, log_a): (&RecoveredRun<ChatterState, u64>, &StepLog),
    (b, log_b): (&RecoveredRun<ChatterState, u64>, &StepLog),
) -> Result<(), String> {
    let reflood = |r: &RecoveredRun<_, _>| (r.reflood_rounds, r.reflood_sends, r.reflood_bits);
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

/// Runs both engines under identically constructed schedulers — the battery
/// plus the out-of-battery depth-first scheduler (kept outside
/// `standard_battery` so the pinned sweep fingerprints stay stable, but its
/// stamp bookkeeping is the trickiest incremental/full-scan pairing here) —
/// as `setup` says, and returns an error message on the first divergence.
fn assert_engines_agree(network: &Network, protocol: &Chatter, setup: Setup) -> Result<(), String> {
    let schedulers = || {
        let mut battery = standard_battery(setup.battery_seed, setup.random_count);
        battery.push(Box::new(DepthFirstScheduler::new()));
        battery.into_iter().map(move |inner| {
            let name = inner.name();
            let scheduler: Box<dyn Scheduler> = match setup.plan {
                None => inner,
                Some(plan) => Box::new(FaultyScheduler::new(inner, plan.clone())),
            };
            (name, scheduler)
        })
    };
    for ((name, mut engine), (_, mut full)) in schedulers().zip(schedulers()) {
        for run in 0..setup.runs {
            let (mut log_a, mut log_b) = (StepLog::new(), StepLog::new());
            let a = run_observed(
                network,
                protocol,
                engine.as_mut(),
                setup.config,
                setup.corrupt,
                setup.retry_budget,
                &mut log_a,
            );
            let b = run_full_scan(
                network,
                protocol,
                full.as_mut(),
                setup.config,
                setup.corrupt,
                setup.retry_budget,
                &mut log_b,
            );
            assert_results_identical(&format!("{name}, run {run}"), (&a, &log_a), (&b, &log_b))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The flagship property: across every topology family, scheduler in the
    /// battery and seed, both engines produce identical traces, metrics,
    /// states, outcomes and step logs.
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
        let verdict = assert_engines_agree(&network, &protocol, Setup::pristine(battery_seed, 3));
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
        let setup = Setup {
            config: ExecutionConfig { max_deliveries, record_trace: true },
            ..Setup::pristine(battery_seed, 2)
        };
        let verdict = assert_engines_agree(&network, &protocol, setup);
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
        let verdict = assert_engines_agree(&network, &protocol, Setup::pristine(battery_seed, 2));
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
        faults in (0u8..40, 0u8..40, 0usize..5),
        crash in (0usize..64, 0u64..60, 0u64..30),
        fault_seed in any::<u64>(),
    ) {
        let network = topology(kind, n, topo_seed);
        let plan = fault_plan(&network, faults, crash, fault_seed);
        let protocol = Chatter { fanout_rounds, needed };
        let setup = Setup { plan: Some(&plan), ..Setup::pristine(battery_seed, 3) };
        let verdict = assert_engines_agree(&network, &protocol, setup);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// The corrupted-start entry point perturbs states identically before
    /// either engine delivers anything.
    #[test]
    fn engines_agree_from_corrupted_starts(
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
        let setup = Setup { corrupt: &corrupt, ..Setup::pristine(battery_seed, 2) };
        let verdict = assert_engines_agree(&network, &protocol, setup);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// The re-flood recovery path: both engines fire the same rounds and
    /// charge the same retry traffic under the same lossy adversary.
    #[test]
    fn engines_agree_under_reflood_recovery(
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
        let setup = Setup {
            plan: Some(&plan),
            retry_budget,
            ..Setup::pristine(battery_seed, 2)
        };
        let verdict = assert_engines_agree(&network, &protocol, setup);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// A scheduler reused for a second run starts it afresh on both engines:
    /// `begin_run` resets the depth-first stamps and restarts a fault plan's
    /// RNG, step counter and crash window, while the random schedulers'
    /// persistent RNG carries over identically.
    #[test]
    fn engines_agree_when_a_scheduler_is_reused(
        kind in 0usize..6,
        n in 2usize..20,
        topo_seed in 0u64..1_000,
        battery_seed in 0u64..1_000,
        faulty in any::<bool>(),
        faults in (0u8..40, 0u8..40, 0usize..5),
        crash in (0usize..64, 0u64..30, 1u64..30),
        fault_seed in any::<u64>(),
        retry_budget in 0u32..3,
    ) {
        let network = topology(kind, n, topo_seed);
        let protocol = Chatter { fanout_rounds: 3, needed: 4 };
        let plan = fault_plan(&network, faults, crash, fault_seed);
        let setup = Setup {
            plan: faulty.then_some(&plan),
            retry_budget,
            runs: 2,
            ..Setup::pristine(battery_seed, 2)
        };
        let verdict = assert_engines_agree(&network, &protocol, setup);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}
