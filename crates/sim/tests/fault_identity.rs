//! Fault-layer contract tests.
//!
//! Three properties pin the adversary layer down:
//!
//! 1. **Zero-fault transparency** — wrapping any battery scheduler in a
//!    [`FaultyScheduler`] with [`FaultPlan::reliable`] produces bit-identical
//!    outcomes, metrics, traces, final states and step logs to the
//!    unwrapped scheduler, on both engines. The fault layer costs nothing
//!    when it does nothing.
//! 2. **Engine equivalence under faults** — a lossy plan drives the
//!    incremental and full-scan engines to the same run (same RNG stream,
//!    same actions, same trace), for every battery member.
//! 3. **Conservation** — every enqueued message (sends plus adversary
//!    duplicates) is consumed exactly once: delivered, dropped, or lost to a
//!    crash. Wire bits are charged only for real sends.
//!
//! Property 2 is also the `on_idle` coverage demanded by the scheduler
//! contract: with a high drop rate, edges routinely empty via a *drop* rather
//! than a delivery, and every battery scheduler (send-order picks, the LIFO
//! heap, Fenwick-indexed random) must retire the edge identically on both
//! paths.

mod common;

use anet_graph::generators::{chain_gn, layered_dag, random_cyclic};
use anet_graph::{Network, NodeId};
use anet_sim::engine::{run, run_observed, ExecutionConfig, RunResult};
use anet_sim::reference::run_full_scan;
use anet_sim::scheduler::{standard_battery, Scheduler};
use anet_sim::{FaultPlan, FaultyScheduler, Outcome, StepLog};
use common::{Chatter, ChatterState};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A traced run of `protocol` under `scheduler`, with its step log.
fn logged_run(
    net: &Network,
    protocol: &Chatter,
    scheduler: &mut dyn Scheduler,
) -> (RunResult<ChatterState, u64>, StepLog) {
    let mut log = StepLog::new();
    let config = ExecutionConfig::with_trace();
    let run = run_observed(net, protocol, scheduler, config, |_| {}, 0, &mut log);
    (run.result, log)
}

fn topologies() -> Vec<Network> {
    let mut rng = StdRng::seed_from_u64(0xFA01);
    vec![
        chain_gn(7).expect("valid"),
        layered_dag(&mut rng, 4, 3, 2).expect("valid"),
        random_cyclic(&mut rng, 12, 0.2, 0.2).expect("valid"),
    ]
}

#[test]
fn reliable_plan_is_bit_identical_to_the_unwrapped_scheduler() {
    let protocol = Chatter {
        fanout_rounds: 3,
        needed: 4,
    };
    for net in topologies() {
        let plain = standard_battery(23, 3);
        let wrapped = standard_battery(23, 3);
        for (mut plain, inner) in plain.into_iter().zip(wrapped) {
            let (baseline, baseline_log) = logged_run(&net, &protocol, plain.as_mut());
            let mut faulty = FaultyScheduler::new(inner, FaultPlan::reliable());
            let (shadowed, shadowed_log) = logged_run(&net, &protocol, &mut faulty);
            let name = plain.name();
            assert_eq!(shadowed.outcome, baseline.outcome, "scheduler {name}");
            assert_eq!(shadowed.metrics, baseline.metrics, "scheduler {name}");
            assert_eq!(shadowed.states, baseline.states, "scheduler {name}");
            assert_eq!(shadowed.trace, baseline.trace, "scheduler {name}");
            assert_eq!(shadowed_log, baseline_log, "scheduler {name}");
            assert_eq!(
                shadowed.deliveries_at_termination, baseline.deliveries_at_termination,
                "scheduler {name}"
            );
            assert_eq!(shadowed.metrics.messages_lost(), 0);
            assert_eq!(shadowed.metrics.messages_duplicated, 0);
        }
    }
}

#[test]
fn both_engines_agree_under_a_lossy_plan_across_the_battery() {
    let protocol = Chatter {
        fanout_rounds: 4,
        needed: 6,
    };
    let plan = FaultPlan::reliable()
        .with_drops(25)
        .with_duplicates(10)
        .with_reorder(3)
        .with_seed(5);
    for net in topologies() {
        let incremental = standard_battery(31, 3);
        let reference = standard_battery(31, 3);
        for (inc, full) in incremental.into_iter().zip(reference) {
            let mut a = FaultyScheduler::new(inc, plan.clone());
            let mut b = FaultyScheduler::new(full, plan.clone());
            let x = run(&net, &protocol, &mut a, ExecutionConfig::with_trace());
            let config = ExecutionConfig::with_trace();
            let y = run_full_scan(&net, &protocol, &mut b, config, |_| {}, 0, &mut ()).result;
            let name = a.inner().name();
            assert_eq!(x.outcome, y.outcome, "scheduler {name}");
            assert_eq!(x.metrics, y.metrics, "scheduler {name}");
            assert_eq!(x.trace, y.trace, "scheduler {name}");
            assert_eq!(x.states, y.states, "scheduler {name}");
        }
    }
}

#[test]
fn quiescent_faulty_runs_conserve_messages() {
    // needed is unreachable, so every run drains to quiescence and the
    // bookkeeping must balance: sends + duplicates = deliveries + losses.
    let protocol = Chatter {
        fanout_rounds: 3,
        needed: u64::MAX,
    };
    let plan = FaultPlan::reliable()
        .with_drops(30)
        .with_duplicates(15)
        .with_reorder(2)
        .with_seed(77)
        .with_crash(NodeId(1), 2, 20);
    for net in topologies() {
        let mut saw_fault = false;
        for inner in standard_battery(41, 3) {
            let mut faulty = FaultyScheduler::new(inner, plan.clone());
            let run = run(&net, &protocol, &mut faulty, ExecutionConfig::with_trace());
            assert_eq!(run.outcome, Outcome::Quiescent);
            let m = &run.metrics;
            assert_eq!(
                m.messages_sent + m.messages_duplicated,
                m.messages_delivered + m.messages_lost(),
                "scheduler {}",
                faulty.inner().name()
            );
            // Bits are charged at send time only: the trace (real sends) and
            // the ledger agree even though duplicates were delivered.
            let trace = run.trace.as_ref().expect("trace requested");
            assert_eq!(trace.len() as u64, m.messages_sent);
            let trace_bits: u64 = trace.events().iter().map(|e| e.bits).sum();
            assert_eq!(trace_bits, m.total_bits);
            saw_fault |= m.messages_lost() > 0 || m.messages_duplicated > 0;
        }
        assert!(saw_fault, "the lossy plan must actually inject faults");
    }
}

#[test]
fn drop_budget_bounds_the_adversary() {
    let protocol = Chatter {
        fanout_rounds: 2,
        needed: 3,
    };
    let net = chain_gn(6).expect("valid");
    // Budget 0 disarms even a 100% drop rate: the run is bit-identical to the
    // unwrapped scheduler (the exhausted budget also stops the RNG draws).
    let disarmed = FaultPlan::reliable()
        .with_drops(100)
        .with_drop_budget(0)
        .with_seed(1);
    for (plain, inner) in standard_battery(3, 2)
        .into_iter()
        .zip(standard_battery(3, 2))
    {
        let mut plain = plain;
        let baseline = run(
            &net,
            &protocol,
            plain.as_mut(),
            ExecutionConfig::with_trace(),
        );
        let mut faulty = FaultyScheduler::new(inner, disarmed.clone());
        let run = run(&net, &protocol, &mut faulty, ExecutionConfig::with_trace());
        let name = plain.name();
        assert_eq!(run.metrics, baseline.metrics, "scheduler {name}");
        assert_eq!(run.trace, baseline.trace, "scheduler {name}");
        assert_eq!(run.outcome, baseline.outcome, "scheduler {name}");
    }

    // An unbounded 100% drop rate destroys every send: nothing is ever
    // delivered, and the run quiesces with the whole ledger in drops.
    let scorched = FaultPlan::reliable().with_drops(100).with_seed(1);
    for inner in standard_battery(3, 2) {
        let mut faulty = FaultyScheduler::new(inner, scorched.clone());
        let run = run(&net, &protocol, &mut faulty, ExecutionConfig::default());
        let name = faulty.inner().name();
        assert_eq!(run.outcome, Outcome::Quiescent, "scheduler {name}");
        assert_eq!(run.metrics.messages_delivered, 0, "scheduler {name}");
        assert_eq!(
            run.metrics.messages_dropped, run.metrics.messages_sent,
            "scheduler {name}"
        );
        assert!(run.metrics.messages_dropped > 0, "scheduler {name}");
    }
}

#[test]
fn fault_plan_boundaries_replay_bit_identically() {
    // Four boundary plans, each probing an edge of the fault-plan semantics.
    // For every one, the recorded step log fed to a `ReplayScheduler`
    // reproduces the faulty run bit for bit — outcome, metrics, states,
    // trace — so the boundaries are pinned by replay, not just by counters.
    use anet_sim::scheduler::{FifoScheduler, ReplayScheduler};

    let protocol = Chatter {
        fanout_rounds: 10,
        needed: u64::MAX,
    };
    use anet_sim::scheduler::SchedulerAction;

    let chain = chain_gn(5).expect("valid");
    // A diamond with a relay (s → a, a → {v, u}, u → v, v → t): under FIFO,
    // v receives at steps 1 and 3, bracketing a one-step crash window.
    let mut g = anet_graph::DiGraph::new();
    let s = g.add_node();
    let a = g.add_node();
    let v = g.add_node();
    let u = g.add_node();
    let t = g.add_node();
    g.add_edge(s, a);
    g.add_edge(a, v);
    g.add_edge(a, u);
    g.add_edge(u, v);
    g.add_edge(v, t);
    let diamond = Network::new(g, s, t).expect("valid");
    // A busy cyclic network, so a small drop budget dies mid-run with plenty
    // of steps left.
    let mut rng = StdRng::seed_from_u64(0xFA02);
    let busy = random_cyclic(&mut rng, 12, 0.2, 0.2).expect("valid");

    let empty_window = FaultPlan::reliable().with_crash(NodeId(1), 4, 4);
    let edge_window = FaultPlan::reliable().with_crash(v, 1, 2);
    let mid_budget = FaultPlan::reliable()
        .with_drops(10)
        .with_drop_budget(2)
        .with_seed(2);
    let wide_reorder = FaultPlan::reliable().with_reorder(1000).with_seed(6);

    for (label, plan, net) in [
        ("empty crash window", &empty_window, &chain),
        ("window end-exclusivity", &edge_window, &diamond),
        ("mid-run budget exhaustion", &mid_budget, &busy),
        ("reorder wider than any queue", &wide_reorder, &busy),
    ] {
        let mut faulty = FaultyScheduler::new(FifoScheduler::new(), plan.clone());
        let (run, log) = logged_run(net, &protocol, &mut faulty);
        let mut replay = ReplayScheduler::with_steps(log.steps().to_vec());
        let (again, again_log) = logged_run(net, &protocol, &mut replay);
        assert_eq!(again.outcome, run.outcome, "{label}");
        assert_eq!(again.metrics, run.metrics, "{label}");
        assert_eq!(again.states, run.states, "{label}");
        assert_eq!(again.trace, run.trace, "{label}");
        assert_eq!(again_log, log, "{label}");
    }

    // Boundary 1: `from == until` is empty — the node is never down, and the
    // run equals the reliable baseline exactly.
    let (baseline, _) = logged_run(&chain, &protocol, &mut FifoScheduler::new());
    let mut faulty = FaultyScheduler::new(FifoScheduler::new(), empty_window);
    let (run, _) = logged_run(&chain, &protocol, &mut faulty);
    assert_eq!(run.metrics, baseline.metrics);
    assert_eq!(run.trace, baseline.trace);
    assert_eq!(run.metrics.crashed_deliveries, 0);

    // Boundary 2: the window is half-open — `[1, 2)` consumes exactly the
    // step 1 delivery into v and nothing at the `until` step itself.
    let mut faulty = FaultyScheduler::new(FifoScheduler::new(), edge_window);
    let (run, log) = logged_run(&diamond, &protocol, &mut faulty);
    assert_eq!(run.metrics.crashed_deliveries, 1);
    assert_eq!(
        run.metrics.messages_delivered, 4,
        "a, u, v (again) and t all hear traffic outside the window"
    );
    let steps = log.steps();
    assert_eq!(
        steps[1].1,
        SchedulerAction::NodeDown,
        "step 1 into v falls inside [1, 2)"
    );
    assert!(
        steps.iter().enumerate().any(|(i, (edge, action))| {
            i >= 2 && diamond.graph().edge_dst(*edge) == v && *action == SchedulerAction::Deliver
        }),
        "v receives again at a step >= until"
    );

    // Boundary 3: the two-drop budget is spent mid-run — deliveries continue
    // after the last drop the budget allowed.
    let mut faulty = FaultyScheduler::new(FifoScheduler::new(), mid_budget);
    let (run, log) = logged_run(&busy, &protocol, &mut faulty);
    assert_eq!(run.metrics.messages_dropped, 2, "budget caps the drops");
    let steps = log.steps();
    let last_drop = steps
        .iter()
        .rposition(|(_, action)| *action == SchedulerAction::Drop)
        .expect("both budgeted drops fired");
    assert!(
        last_drop + 1 < steps.len(),
        "the run keeps delivering after the budget exhausts mid-run"
    );
    assert!(run.metrics.messages_delivered > 0);

    // Boundary 4: a reorder window far beyond any queue length clamps to the
    // queue and still conserves every message.
    let mut faulty = FaultyScheduler::new(FifoScheduler::new(), wide_reorder);
    let (run, _) = logged_run(&busy, &protocol, &mut faulty);
    let m = &run.metrics;
    assert_eq!(
        m.messages_sent + m.messages_duplicated,
        m.messages_delivered + m.messages_lost()
    );
    assert_eq!(m.messages_delivered, m.messages_sent);
}

#[test]
fn crashed_node_loses_messages_but_recovers_with_state_intact() {
    // Node 1 of the chain is down for a long window: chain delivery stalls
    // (each message into the crashed node is consumed and lost), so the
    // terminal never hears anything. With no crash the same plan terminates.
    let protocol = Chatter {
        fanout_rounds: 1,
        needed: 1,
    };
    let net = chain_gn(4).expect("valid");
    let crashed = FaultPlan::reliable().with_crash(NodeId(1), 0, u64::MAX);
    let mut faulty = FaultyScheduler::new(anet_sim::scheduler::FifoScheduler::new(), crashed);
    let stalled = run(&net, &protocol, &mut faulty, ExecutionConfig::default());
    assert_eq!(stalled.outcome, Outcome::Quiescent);
    assert_eq!(stalled.metrics.crashed_deliveries, 1);
    assert_eq!(stalled.metrics.messages_delivered, 0);

    // A bounded window recovers: the crash consumes the first message, but a
    // recovered vertex keeps its (initial) state and handles nothing more —
    // so this quiesces too, demonstrating the window closing is observable
    // only if traffic arrives after `until`.
    let windowed = FaultPlan::reliable().with_crash(NodeId(1), 0, 1);
    let mut faulty = FaultyScheduler::new(anet_sim::scheduler::FifoScheduler::new(), windowed);
    let windowed = run(&net, &protocol, &mut faulty, ExecutionConfig::default());
    assert_eq!(windowed.metrics.crashed_deliveries, 1);
    assert_eq!(windowed.outcome, Outcome::Quiescent);
}
