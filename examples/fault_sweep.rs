//! Fault-injection walkthrough: the same protocols and topologies, now run
//! against an adversarial delivery layer and from corrupted starting state.
//!
//! The paper's protocols are specified for reliable (if adversarially
//! ordered) channels. This example probes what happens beyond that contract:
//!
//! * **Fault plans** (`faults drop=… dup=… reorder=… seed=…` in spec files,
//!   [`ScenarioSpec::Faulty`] here) wrap every scheduler of the standard
//!   battery in an [`anet_sim::faults::FaultyScheduler`] that drops,
//!   duplicates and reorders deliveries from a deterministic per-unit RNG
//!   stream. A run that goes quiescent with messages destroyed is reported
//!   as `starved` instead of `quiescent`.
//! * **Corrupted starts** ([`ScenarioSpec::Corrupt`],
//!   [`anet_core::StateCorruption`]) perturb protocol state before the first
//!   delivery — scrambled vertex labels, lost partition flags, a stale
//!   terminal view — and the success column reports whether the protocol's
//!   recovery predicate still holds at the end.
//! * **Retry variants** (`retry=<budget>` in the `faults` stanza, also the
//!   `faults ramp drop=a..b step=s` sugar) run the same fault plan through
//!   [`anet_sim::run_recovering`]: whenever the run would starve, every
//!   vertex re-floods its frontier, up to the budget. The walkthrough's
//!   second table quantifies what that recovery *costs*: at each ramp
//!   intensity, how often the single-shot run starves, how often the retry
//!   twin recovers, and how many extra wire bits the recovered runs paid
//!   compared to the pristine run of the same cell.
//! * **Crash windows** (`crash=<node>:<from>..<until>`) take one vertex off
//!   the network for a step interval — deliveries addressed to it are
//!   consumed and destroyed. A single outage on a single-path topology
//!   starves the run; a retry twin with enough budget outlasts the window.
//!
//! Everything stays deterministic: the fault stream is a pure function of the
//! unit (scenario seed, battery seed, battery position), so the sweep below
//! prints the same table on every run, across any shard or thread count.
//!
//! Run with: `cargo run --release --example fault_sweep`
//!
//! For the committed CI spec exercising the same machinery across processes
//! and threads (`--shards N --jobs M` for parallel runs):
//! `cargo run --release -p anet-sweep --bin sweep -- --spec crates/sweep/specs/faults.spec --shards 2`

use std::collections::BTreeMap;

use anet_sweep::{
    Manifest, Partition, ProtocolSpec, RunRecord, ScenarioSpec, SweepSpec, TopologySpec,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SweepSpec {
        protocols: vec![
            ProtocolSpec::Mapping,
            ProtocolSpec::Labeling,
            ProtocolSpec::GeneralBroadcast { payload_bits: 16 },
        ],
        topologies: vec![
            TopologySpec::ChainGn { n: 8 },
            TopologySpec::CycleWithTail { k: 9 },
            TopologySpec::CompleteDag { internal: 6 },
            TopologySpec::RandomCyclic {
                internal: 12,
                forward_pct: 15,
                back_pct: 20,
                seed: 2007,
            },
        ],
        seeds: vec![42],
        random_schedulers: 2,
        max_deliveries: 10_000_000,
        scenarios: vec![
            ScenarioSpec::Pristine,
            // A survivable adversary: some messages lost, some doubled,
            // bounded reordering on top of each battery scheduler.
            ScenarioSpec::Faulty {
                drop_pct: 15,
                dup_pct: 10,
                reorder: 2,
                seed: 7,
                retry: 0,
                crashes: vec![],
            },
            // Total loss: every delivery destroyed — runs starve.
            ScenarioSpec::Faulty {
                drop_pct: 100,
                dup_pct: 0,
                reorder: 0,
                seed: 1,
                retry: 0,
                crashes: vec![],
            },
            ScenarioSpec::Corrupt(anet_core::StateCorruption::ScrambledLabels { seed: 11 }),
            ScenarioSpec::Corrupt(anet_core::StateCorruption::LostPartition),
            ScenarioSpec::Corrupt(anet_core::StateCorruption::StaleTerminal),
        ],
    };

    // The recovery ramp: each drop intensity twice under the same plan seed
    // (`retry` never perturbs the fault stream) — once single-shot, once with
    // a re-flood budget — plus a crash-window pair. In spec files this is
    // `faults ramp drop=10..30 step=10 seed=7` (and again with `retry=4`).
    let mut spec = spec;
    for drop in [10u8, 20, 30] {
        for retry in [0u32, 4] {
            spec.scenarios.push(ScenarioSpec::Faulty {
                drop_pct: drop,
                dup_pct: 0,
                reorder: 0,
                seed: 7,
                retry,
                crashes: vec![],
            });
        }
    }
    for retry in [0u32, 8] {
        spec.scenarios.push(ScenarioSpec::Faulty {
            drop_pct: 0,
            dup_pct: 0,
            reorder: 0,
            seed: 0,
            retry,
            crashes: vec![(1, 0, 6)],
        });
    }

    let manifest = Manifest::from_spec(&spec);
    println!(
        "sweeping {} units = {} pristine cells x {} scenarios\n",
        manifest.len(),
        manifest.len() / spec.scenarios.len(),
        spec.scenarios.len()
    );

    let merged = anet_sweep::run_sweep_in_process(&spec, 1, Partition::Hash)?;
    let records: Vec<RunRecord> = merged
        .lines()
        .map(|line| RunRecord::parse_line(line).expect("merged lines are canonical"))
        .collect();

    // Aggregate per (protocol, scenario): outcomes, success rate, adversary
    // activity.
    #[derive(Default)]
    struct Row {
        runs: u64,
        ok: u64,
        starved: u64,
        dropped: u64,
        duplicated: u64,
    }
    let mut table: BTreeMap<(String, String), Row> = BTreeMap::new();
    for r in &records {
        let row = table
            .entry((r.protocol.clone(), r.scenario.clone()))
            .or_default();
        row.runs += 1;
        row.ok += u64::from(r.ok);
        row.starved += u64::from(r.outcome == "starved");
        row.dropped += r.dropped;
        row.duplicated += r.duplicated;
    }

    println!(
        "{:<18} {:<22} {:>5} {:>5} {:>8} {:>9} {:>11}",
        "protocol", "scenario", "runs", "ok", "starved", "dropped", "duplicated"
    );
    for ((protocol, scenario), row) in &table {
        println!(
            "{protocol:<18} {scenario:<22} {:>5} {:>5} {:>8} {:>9} {:>11}",
            row.runs, row.ok, row.starved, row.dropped, row.duplicated
        );
    }

    // The recovery-overhead table: per protocol and ramp intensity, what the
    // single-shot runs did, what the retry twins did, and the wire-bit price
    // of the recoveries relative to the pristine run of the same cell.
    let cell = |r: &RunRecord| {
        (
            r.protocol.clone(),
            r.topology.clone(),
            r.scheduler.clone(),
            r.battery_index,
            r.seed,
        )
    };
    let pristine_bits: BTreeMap<_, u64> = records
        .iter()
        .filter(|r| r.scenario == "pristine")
        .map(|r| (cell(r), r.total_bits))
        .collect();

    #[derive(Default)]
    struct RampRow {
        single_starved: u64,
        single_ok: u64,
        retry_recovered: u64,
        retry_starved: u64,
        extra_bits: i64,
    }
    let mut ramp: BTreeMap<(String, u8), RampRow> = BTreeMap::new();
    for r in &records {
        let Some(rest) = r.scenario.strip_prefix("faults/d") else {
            continue;
        };
        // Ramp scenarios only: plan seed 7, no dup/reorder/crash.
        let Some(drop) = rest
            .strip_suffix("u0r0s7")
            .or_else(|| rest.strip_suffix("u0r0s7+t4"))
            .and_then(|d| d.parse::<u8>().ok())
        else {
            continue;
        };
        let row = ramp.entry((r.protocol.clone(), drop)).or_default();
        if r.scenario.contains("+t") {
            if r.ok {
                row.retry_recovered += 1;
                row.extra_bits += r.total_bits as i64 - pristine_bits[&cell(r)] as i64;
            } else if r.outcome == "starved" {
                row.retry_starved += 1;
            }
        } else if r.outcome == "starved" {
            row.single_starved += 1;
        } else if r.ok {
            row.single_ok += 1;
        }
    }

    println!(
        "\n{:<18} {:>5} {:>10} {:>10} {:>10} {:>10} {:>16}",
        "protocol", "drop%", "1shot-ok", "1shot-stv", "retry-ok", "retry-stv", "extra-bits/rec"
    );
    for ((protocol, drop), row) in &ramp {
        let mean_extra = if row.retry_recovered > 0 {
            row.extra_bits / row.retry_recovered as i64
        } else {
            0
        };
        println!(
            "{protocol:<18} {drop:>5} {:>10} {:>10} {:>10} {:>10} {:>16}",
            row.single_ok, row.single_starved, row.retry_recovered, row.retry_starved, mean_extra
        );
    }

    // The crash-window pair: the same outage with and without a retry budget.
    let crash_starved = records
        .iter()
        .filter(|r| r.scenario.ends_with("+c1:0..6") && !r.scenario.contains("+t"))
        .filter(|r| r.outcome == "starved")
        .count();
    let crash_recovered = records
        .iter()
        .filter(|r| r.scenario.contains("+t8+c1:0..6") && r.ok)
        .count();
    println!("\ncrash-window runs starved without retries:  {crash_starved}");
    println!("crash-window runs recovered with retry=8:   {crash_recovered}");

    // The structural takeaways the fault layer guarantees.
    let pristine_ok = table
        .iter()
        .filter(|((_, s), _)| s == "pristine")
        .all(|(_, row)| row.ok == row.runs);
    let total_drop_starved = table
        .iter()
        .filter(|((_, s), _)| s.starts_with("faults/d100"))
        .all(|(_, row)| row.starved == row.runs);
    println!("\npristine runs all succeed:       {pristine_ok}");
    println!("total-drop runs all starve:      {total_drop_starved}");
    println!(
        "spec round-trips through text:   {}",
        SweepSpec::parse(&spec.to_spec_string()).is_ok_and(|p| p == spec)
    );
    Ok(())
}
