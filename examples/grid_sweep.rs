//! Scenario scaling on the sweep subsystem: declare a sweep spec, run it in
//! process, and read the merged JSONL back.
//!
//! The paper's correctness claims are universally quantified over delivery
//! orders; a sweep approximates that quantifier at scale. This example drives
//! the same machinery the `sweep` CLI runs across OS *processes*
//! ([`anet_sweep::run_sweep_in_process`] shares the shard executor and the
//! merge with the process path), so its output is byte-identical no matter
//! how many shards — or which machines — executed the units. Results come
//! back in canonical (protocol, topology, seed, scheduler) manifest order, so
//! the printed table is reproducible run to run.
//!
//! Run with: `cargo run --release --example grid_sweep`
//!
//! For parallel runs of a sweep, use the CLI's processes and threads:
//! `cargo run --release -p anet-sweep --bin sweep -- --shards N --jobs M`

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

    let manifest = Manifest::from_spec(&spec);
    println!(
        "sweeping {} units ({} topologies x battery)\n",
        manifest.len(),
        spec.topologies.len()
    );

    let merged = anet_sweep::run_sweep_in_process(&spec, 1, Partition::Hash)?;
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
