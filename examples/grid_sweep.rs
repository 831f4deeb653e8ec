//! Scenario scaling on the sweep subsystem: declare a sweep spec, fan its
//! shards over a worker thread per shard, and read the merged JSONL back.
//!
//! The paper's correctness claims are universally quantified over delivery
//! orders; a sweep approximates that quantifier at scale. This example drives
//! the same machinery the `sweep` CLI runs across OS *processes*
//! ([`anet_sweep::run_sweep_threaded`] shares the shard executor and the
//! merge with the process path), so its output is byte-identical no matter how many
//! shards — or which machines — executed the units. Results come back in
//! canonical (protocol, topology, seed, scheduler) manifest order regardless
//! of thread timing, so the printed table is reproducible run to run.
//!
//! Run with: `cargo run --release --example grid_sweep`
//!
//! For the multi-process version of the same sweep:
//! `cargo run --release -p anet-sweep --bin sweep -- --shards 4`

use anet_sweep::{Manifest, Partition, ProtocolSpec, RunRecord, SweepSpec, TopologySpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SweepSpec {
        protocols: vec![ProtocolSpec::Mapping],
        topologies: vec![
            TopologySpec::ChainGn { n: 12 },
            TopologySpec::CycleWithTail { k: 16 },
            TopologySpec::NestedCycles { count: 3, len: 5 },
            TopologySpec::CompleteDag { internal: 12 },
            TopologySpec::RandomCyclic {
                internal: 24,
                forward_pct: 12,
                back_pct: 18,
                seed: 2007,
            },
            TopologySpec::RandomDag {
                internal: 24,
                edge_pct: 20,
                seed: 2007,
            },
        ],
        seeds: vec![42],
        random_schedulers: 3,
        max_deliveries: 10_000_000,
        scenarios: vec![anet_sweep::ScenarioSpec::Pristine],
    };

    let shards = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let manifest = Manifest::from_spec(&spec);
    println!(
        "sweeping {} units ({} topologies x battery) on {} shard thread(s)\n",
        manifest.len(),
        spec.topologies.len(),
        shards
    );

    let merged = anet_sweep::run_sweep_threaded(&spec, shards, Partition::Hash)?;
    let records: Vec<RunRecord> = merged
        .lines()
        .map(|line| RunRecord::parse_line(line).expect("merged lines are canonical"))
        .collect();

    println!(
        "{:<18} {:<15} {:>10} {:>12} {:>8}",
        "topology", "scheduler", "deliveries", "total bits", "exact"
    );
    for r in &records {
        println!(
            "{:<18} {:<15} {:>10} {:>12} {:>8}",
            r.topology,
            r.scheduler,
            r.delivered,
            r.total_bits,
            if r.ok { "yes" } else { "NO" }
        );
        assert!(r.ok, "sweep cell failed to map exactly");
    }

    println!();
    for topology in &spec.topologies {
        let name = topology.name();
        let cells: Vec<&RunRecord> = records.iter().filter(|r| r.topology == name).collect();
        let min = cells.iter().map(|r| r.delivered).min().unwrap_or(0);
        let max = cells.iter().map(|r| r.delivered).max().unwrap_or(0);
        println!(
            "{name}: adversary stretches deliveries {min} -> {max} ({:.2}x)",
            max as f64 / min.max(1) as f64
        );
    }
    Ok(())
}
