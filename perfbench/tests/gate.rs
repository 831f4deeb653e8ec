//! The benchmark's own checks: inputs are a pure function of the seed, and
//! the output gate counts every kind of bad record as one failure.

use anet_sweep::{execute_unit, Manifest, RunRecord, SweepSpec};
use perfbench::gate::{check_sweep_pass, record_digest, SweepPin};
use perfbench::inputs::{sweep_cyclic_spec, sweep_grid_spec, sweep_spec};

const PINNED_GRID: &str = include_str!("../pinned/sweep-grid.txt");
const PINNED_CYCLIC: &str = include_str!("../pinned/sweep-cyclic.txt");

#[test]
fn the_same_seed_gives_the_same_spec_and_another_seed_another() {
    for spec in [sweep_grid_spec, sweep_cyclic_spec] {
        assert_eq!(spec(7), spec(7));
        assert_ne!(spec(7), spec(8));
    }
    assert_eq!(sweep_spec("sweep-grid", 3), Some(sweep_grid_spec(3)));
    assert_eq!(sweep_spec("tree-scale", 3), None);
}

#[test]
fn every_seed_gives_the_same_grid_shape() {
    for seed in [0, 1, 12345] {
        let grid = SweepSpec::parse(&sweep_grid_spec(seed)).expect("the grid spec parses");
        assert_eq!(Manifest::from_spec(&grid).len(), 4176, "seed {seed}");
        assert_eq!(grid.scenarios.len(), 4, "seed {seed}");
        let cyclic = SweepSpec::parse(&sweep_cyclic_spec(seed)).expect("the cyclic spec parses");
        assert_eq!(Manifest::from_spec(&cyclic).len(), 216, "seed {seed}");
        assert_eq!(cyclic.scenarios.len(), 1, "seed {seed}");
    }
}

#[test]
fn the_committed_pins_parse_and_cover_their_manifests() {
    assert_eq!(
        SweepPin::parse(PINNED_GRID)
            .expect("grid pin")
            .records
            .len(),
        4176
    );
    assert_eq!(
        SweepPin::parse(PINNED_CYCLIC)
            .expect("cyclic pin")
            .records
            .len(),
        216
    );
}

#[test]
fn default_seed_units_reproduce_their_pinned_digests() {
    let spec = SweepSpec::parse(&sweep_grid_spec(0)).expect("the grid spec parses");
    let manifest = Manifest::from_spec(&spec);
    let pin = SweepPin::parse(PINNED_GRID).expect("grid pin");
    // The first units of each of the four scenarios on `chain-gn 16`.
    for index in [0, 1, 2, 3, 4, 5, 6, 7] {
        let line = execute_unit(&spec, &manifest.units[index])
            .expect("the unit runs")
            .to_jsonl_line();
        assert_eq!(
            record_digest(&line),
            pin.records[index],
            "unit {index}: {line}"
        );
    }
}

fn record(index: usize, scenario: &str, outcome: &str, ok: bool) -> RunRecord {
    RunRecord {
        index,
        protocol: "labeling".to_owned(),
        topology: "chain-gn/4".to_owned(),
        scheduler: "fifo".to_owned(),
        battery_index: 0,
        seed: 0,
        scenario: scenario.to_owned(),
        outcome: outcome.to_owned(),
        ok,
        sent: 10,
        delivered: 10,
        accepted_at: Some(10),
        total_bits: 100,
        max_msg_bits: 12,
        max_edge_bits: 12,
        dropped: 0,
        duplicated: 0,
        crashed: 0,
        trace_digest: 0xfeed,
    }
}

fn merged(records: &[RunRecord]) -> String {
    records.iter().map(|r| r.to_jsonl_line() + "\n").collect()
}

#[test]
fn the_gate_counts_each_bad_record_once() {
    let good = vec![
        record(0, "pristine", "terminated", true),
        record(1, "faults/d10u0r0s1", "terminated", false),
        record(2, "pristine", "terminated", true),
    ];
    let reference = SweepPin::of_merged(&merged(&good));
    let text = reference.to_text("sweep-grid", 0);
    assert_eq!(SweepPin::parse(&text), Some(reference.clone()));
    assert_eq!(SweepPin::parse(""), None);
    assert_eq!(check_sweep_pass(&merged(&good), &reference), (3, 0));

    let mut changed = good.clone();
    changed[1].total_bits += 1;
    assert_eq!(check_sweep_pass(&merged(&changed), &reference), (3, 1));

    assert_eq!(check_sweep_pass(&merged(&good[..2]), &reference), (3, 1));
    let mut extra = good.clone();
    extra.push(record(3, "pristine", "terminated", true));
    assert_eq!(check_sweep_pass(&merged(&extra), &reference), (4, 1));
    assert_eq!(check_sweep_pass("not a record\n", &reference), (3, 3));
}

#[test]
fn the_gate_applies_the_protocol_predicates_on_every_seed() {
    let failing_pristine = vec![
        record(0, "pristine", "quiescent", false),
        record(1, "pristine", "terminated", false),
        record(2, "faults/d10u0r0s1", "quiescent", true),
        record(3, "faults/d10u0r0s1", "starved", false),
    ];
    // Even a reference that agrees byte for byte cannot vouch for records
    // that break the predicates: a pristine run must terminate with ok, a
    // successful run must have terminated, a starved one must have lost
    // messages.
    let text = merged(&failing_pristine);
    assert_eq!(check_sweep_pass(&text, &SweepPin::of_merged(&text)), (4, 4));

    let mut starved = record(0, "faults/d10u0r0s1", "starved", false);
    starved.dropped = 3;
    let text = merged(&[starved]);
    assert_eq!(check_sweep_pass(&text, &SweepPin::of_merged(&text)), (1, 0));
}

#[test]
fn the_catalogues_match_benchmark_json() {
    let declared = include_str!("../../BENCHMARK.json");
    let catalogues = [perfbench::report::END_TO_END, perfbench::report::PER_LAYER];
    for &(name, unit) in catalogues.iter().flat_map(|c| c.iter()) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            declared.contains(&entry),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    // Each declared workload has a spec; the metrics are the catalogues'.
    let (workloads, metrics) = declared
        .split_once("\"end_to_end\"")
        .expect("BENCHMARK.json declares end-to-end metrics");
    let names = |section: &str| -> Vec<String> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap_or_default().to_owned())
            .collect()
    };
    let workloads = names(workloads);
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        assert!(sweep_spec(workload, 0).is_some(), "no spec for {workload}");
    }
    assert_eq!(
        names(metrics).len(),
        catalogues.iter().map(|c| c.len()).sum::<usize>()
    );
}
