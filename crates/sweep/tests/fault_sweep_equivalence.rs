//! The adversarial half of the sweep determinism contract: specs carrying
//! `faults` and `corrupt` scenarios must keep every byte-identity the
//! pristine sweep has — across shard counts, partition strategies, worker
//! threads, dedup/cache, and checkpoint resume — because a unit's fault
//! stream is a pure function of the unit (plan seed, battery seed, battery
//! position), never of scheduling or process layout.
//!
//! Also pins the non-interference property: adding adversarial scenarios to
//! a spec leaves the results of the pristine runs it already had untouched.

use std::fs;
use std::path::PathBuf;

use anet_sweep::{
    dedup_shard_lines, execute_unit, merge_lines, run_shard_to_file_with_opts, shard_lines,
    Manifest, Partition, ProtocolSpec, RunRecord, ScenarioSpec, SweepOptions, SweepSpec,
    TopologySpec,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anet-fault-sweep-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small spec exercising every scenario kind, with a deliberate isomorphic
/// topology pair (`path 2` ≅ `complete-dag 2`) so the dedup path must prove
/// that equivalence-class members share their fault streams.
fn fault_spec() -> SweepSpec {
    SweepSpec {
        protocols: vec![ProtocolSpec::Mapping, ProtocolSpec::Labeling],
        topologies: vec![
            TopologySpec::ChainGn { n: 4 },
            TopologySpec::CycleWithTail { k: 5 },
            TopologySpec::Path { n: 2 },
            TopologySpec::CompleteDag { internal: 2 },
        ],
        seeds: vec![3],
        random_schedulers: 1,
        max_deliveries: 1_000_000,
        scenarios: vec![
            ScenarioSpec::Pristine,
            ScenarioSpec::Faulty {
                drop_pct: 20,
                dup_pct: 10,
                reorder: 2,
                seed: 9,
                retry: 0,
                crashes: vec![],
            },
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
    }
}

/// The per-unit oracle: each unit's own [`execute_unit`] line, in manifest
/// order. It builds and canonicalizes every unit's topology itself, apart
/// from the topology table the shard paths share.
fn oracle_merged(spec: &SweepSpec, manifest: &Manifest) -> String {
    manifest
        .units
        .iter()
        .map(|unit| execute_unit(spec, unit).expect("unit runs").to_jsonl_line() + "\n")
        .collect()
}

fn honest_merged(spec: &SweepSpec, manifest: &Manifest, shards: usize, p: Partition) -> String {
    let sets: Result<Vec<_>, _> = (0..shards)
        .map(|s| shard_lines(spec, manifest, shards, p, s))
        .collect();
    merge_lines(manifest.len(), sets.unwrap()).expect("honest merge covers")
}

#[test]
fn sharded_merge_under_faults_is_byte_identical() {
    let spec = fault_spec();
    let manifest = Manifest::from_spec(&spec);
    let baseline = oracle_merged(&spec, &manifest);
    for partition in [Partition::Hash, Partition::RoundRobin] {
        for shards in [1usize, 2, 3] {
            assert_eq!(
                honest_merged(&spec, &manifest, shards, partition),
                baseline,
                "{partition:?} x {shards} shards diverged under fault scenarios"
            );
        }
    }

    // The adversary demonstrably acted: some run was starved by the
    // total-drop plan, some run dropped and duplicated messages, and every
    // unit carries its scenario label.
    let records: Vec<RunRecord> = baseline
        .lines()
        .map(|l| RunRecord::parse_line(l).expect("canonical line"))
        .collect();
    assert_eq!(records.len(), manifest.len());
    assert!(records
        .iter()
        .any(|r| r.outcome == "starved" && r.scenario.starts_with("faults/d100")));
    assert!(records.iter().any(|r| r.dropped > 0 && r.duplicated > 0));
    assert!(records
        .iter()
        .filter(|r| r.scenario == "pristine")
        .all(|r| r.dropped == 0 && r.duplicated == 0 && r.crashed == 0));
    for kind in [
        "corrupt/labels/s11",
        "corrupt/partition",
        "corrupt/stale-terminal",
    ] {
        assert!(
            records.iter().any(|r| r.scenario == kind),
            "missing scenario {kind}"
        );
    }
}

#[test]
fn adversarial_scenarios_do_not_perturb_the_pristine_runs() {
    // The pristine subset of the adversarial sweep equals, field for field
    // (modulo manifest position), the sweep of the same spec without any
    // adversarial scenarios.
    let spec = fault_spec();
    let pristine_spec = SweepSpec {
        scenarios: vec![ScenarioSpec::Pristine],
        ..spec.clone()
    };
    let manifest = Manifest::from_spec(&spec);
    let pristine_manifest = Manifest::from_spec(&pristine_spec);
    let full = oracle_merged(&spec, &manifest);
    let plain = oracle_merged(&pristine_spec, &pristine_manifest);
    let strip_index = |jsonl: &str, keep_pristine_only: bool| -> Vec<RunRecord> {
        jsonl
            .lines()
            .map(|l| RunRecord::parse_line(l).expect("canonical line"))
            .filter(|r| !keep_pristine_only || r.scenario == "pristine")
            .map(|mut r| {
                r.index = 0;
                r
            })
            .collect()
    };
    assert_eq!(strip_index(&full, true), strip_index(&plain, false));
}

#[test]
fn dedup_and_cache_equal_honest_under_faults() {
    let spec = fault_spec();
    let manifest = Manifest::from_spec(&spec);
    let baseline = oracle_merged(&spec, &manifest);
    let cache = temp_dir("dedup");

    let (cold_lines, cold) =
        dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, Some(&cache)).unwrap();
    assert_eq!(merge_lines(manifest.len(), [cold_lines]).unwrap(), baseline);
    assert!(
        cold.members_by_reference > 0,
        "the isomorphic pair must dedup in every scenario"
    );
    assert!(cold.clusters < cold.units);

    let (warm_lines, warm) =
        dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, Some(&cache)).unwrap();
    assert_eq!(merge_lines(manifest.len(), [warm_lines]).unwrap(), baseline);
    assert_eq!(warm.cache_hits, warm.clusters, "warm cache hits everything");
    assert_eq!(warm.representatives_run, 0);

    let _ = fs::remove_dir_all(&cache);
}

#[test]
fn jobs_and_resume_reproduce_the_clean_fault_shard() {
    let spec = fault_spec();
    let manifest = Manifest::from_spec(&spec);
    let dir = temp_dir("resume");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard-0.jsonl");
    let opts = SweepOptions {
        jobs: 4,
        resume: false,
        dedup: false,
        cache_dir: None,
    };
    run_shard_to_file_with_opts(&spec, &manifest, 1, Partition::Hash, 0, &path, &opts).unwrap();
    let clean = fs::read_to_string(&path).unwrap();

    // Sequential must agree with jobs=4.
    let seq_path = dir.join("seq.jsonl");
    let seq_opts = SweepOptions { jobs: 1, ..opts };
    run_shard_to_file_with_opts(
        &spec,
        &manifest,
        1,
        Partition::Hash,
        0,
        &seq_path,
        &seq_opts,
    )
    .unwrap();
    assert_eq!(fs::read_to_string(&seq_path).unwrap(), clean);

    // Tear the checkpoint mid-line; a jobs-parallel dedup resume restores it.
    fs::write(&path, &clean[..clean.len() * 2 / 3]).unwrap();
    let resume_opts = SweepOptions {
        jobs: 4,
        resume: true,
        dedup: true,
        cache_dir: None,
    };
    let report =
        run_shard_to_file_with_opts(&spec, &manifest, 1, Partition::Hash, 0, &path, &resume_opts)
            .unwrap();
    assert!(report.outcome.reused > 0, "intact head is reused");
    assert!(report.outcome.executed > 0, "torn tail re-runs");
    assert_eq!(fs::read_to_string(&path).unwrap(), clean);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn committed_fault_spec_parses_and_round_trips() {
    let text = include_str!("../specs/faults.spec");
    let spec = SweepSpec::parse(text).expect("committed fault spec parses");
    assert_eq!(spec.scenarios.len(), 6, "pristine + five adversarial");
    assert!(spec.scenarios[0].is_pristine());
    let reparsed = SweepSpec::parse(&spec.to_spec_string()).expect("canonical form parses");
    assert_eq!(spec, reparsed);
    // Scenario names embed cleanly in JSONL records and unit keys.
    let manifest = Manifest::from_spec(&spec);
    assert_eq!(manifest.len() % spec.scenarios.len(), 0);
    let mut keys: Vec<String> = manifest.units.iter().map(|u| u.key()).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), manifest.len(), "unit keys stay unique");
}

/// The committed recovery-cost spec, shared with the CI `recovery_smoke` step.
fn recovery_spec() -> SweepSpec {
    SweepSpec::parse(include_str!("../specs/recovery.spec"))
        .expect("committed recovery spec parses")
}

#[test]
fn committed_recovery_spec_parses_and_round_trips() {
    let spec = recovery_spec();
    // pristine + 3 retry-free ramp points + 4 retry ramp points + crash pair.
    assert_eq!(spec.scenarios.len(), 10);
    assert!(spec.scenarios[0].is_pristine());
    let canonical = spec.to_spec_string();
    assert!(
        !canonical.contains("ramp"),
        "ramps are parse-time sugar; the canonical form lists the points"
    );
    let reparsed = SweepSpec::parse(&canonical).expect("canonical form parses");
    assert_eq!(spec, reparsed);
    let manifest = Manifest::from_spec(&spec);
    let mut keys: Vec<String> = manifest.units.iter().map(|u| u.key()).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), manifest.len(), "unit keys stay unique");
}

#[test]
fn recovery_sweep_is_byte_identical_and_quantifies_recovery() {
    let spec = recovery_spec();
    let manifest = Manifest::from_spec(&spec);
    let baseline = oracle_merged(&spec, &manifest);
    for (shards, partition) in [
        (1, Partition::Hash),
        (2, Partition::Hash),
        (3, Partition::RoundRobin),
    ] {
        assert_eq!(
            honest_merged(&spec, &manifest, shards, partition),
            baseline,
            "{partition:?} x {shards} shards diverged on the recovery spec"
        );
    }

    let records: Vec<RunRecord> = baseline
        .lines()
        .map(|l| RunRecord::parse_line(l).expect("canonical line"))
        .collect();
    assert_eq!(records.len(), manifest.len());

    // Group the sweep by cell (everything but the scenario), so each retry
    // record can be diffed against its same-plan twin.
    use std::collections::HashMap;
    type CellKey = (String, String, String, usize, u64);
    let mut by_cell: HashMap<CellKey, HashMap<String, &RunRecord>> = HashMap::new();
    for r in &records {
        by_cell
            .entry((
                r.protocol.clone(),
                r.topology.clone(),
                r.scheduler.clone(),
                r.battery_index,
                r.seed,
            ))
            .or_default()
            .insert(r.scenario.clone(), r);
    }

    // (a) The ramp's reliable point: a retry variant under a plan that
    // destroys nothing is bit-identical to the pristine run of its cell —
    // the cross-check that keeps the overhead columns honest.
    let strip = |r: &RunRecord| {
        let mut r = r.clone();
        r.index = 0;
        r.scenario.clear();
        r
    };
    for cell in by_cell.values() {
        let retry = cell["faults/d0u0r0s7+t4"];
        let pristine = cell["pristine"];
        assert_eq!(
            strip(retry),
            strip(pristine),
            "reliable-plan retry diverged from pristine"
        );
    }

    // (b) Crash-window reachability: somewhere in the grid the retry-free
    // crash run starves while its retry twin (same plan) terminates ok.
    let crash_free = "faults/d0u0r0s0+c1:0..6";
    let crash_retry = "faults/d0u0r0s0+t8+c1:0..6";
    let crash_recoveries = by_cell
        .values()
        .filter(|cell| {
            let f = cell[crash_free];
            let t = cell[crash_retry];
            f.outcome == "starved" && f.crashed > 0 && t.outcome == "terminated" && t.ok
        })
        .count();
    assert!(
        crash_recoveries > 0,
        "no cell recovered from the crash window via retries"
    );

    // (c) Sustained-drop recovery: at some nonzero ramp intensity a retry
    // run terminates ok where its retry-free twin starved.
    let mut drop_recoveries = 0usize;
    for cell in by_cell.values() {
        for drop in [10u8, 20, 30] {
            let free = cell[format!("faults/d{drop}u0r0s7").as_str()];
            let retry = cell[format!("faults/d{drop}u0r0s7+t4").as_str()];
            if free.outcome == "starved" && retry.outcome == "terminated" && retry.ok {
                drop_recoveries += 1;
            }
        }
    }
    assert!(
        drop_recoveries > 0,
        "no ramp point recovered via retries where its twin starved"
    );

    // (d) Crash scenarios demonstrably act, and the pristine subset equals
    // the sweep of the same spec with no adversarial scenarios at all.
    assert!(records
        .iter()
        .filter(|r| r.scenario == "pristine")
        .all(|r| r.dropped == 0 && r.duplicated == 0 && r.crashed == 0));
    let pristine_spec = SweepSpec {
        scenarios: vec![ScenarioSpec::Pristine],
        ..spec.clone()
    };
    let pristine_manifest = Manifest::from_spec(&pristine_spec);
    let plain = oracle_merged(&pristine_spec, &pristine_manifest);
    let plain_records: Vec<RunRecord> = plain
        .lines()
        .map(|l| strip(&RunRecord::parse_line(l).expect("canonical line")))
        .collect();
    let pristine_subset: Vec<RunRecord> = records
        .iter()
        .filter(|r| r.scenario == "pristine")
        .map(strip)
        .collect();
    assert_eq!(pristine_subset, plain_records);
}

#[test]
fn dedup_cache_and_resume_reproduce_the_recovery_sweep() {
    let spec = recovery_spec();
    let manifest = Manifest::from_spec(&spec);
    let baseline = oracle_merged(&spec, &manifest);

    let cache = temp_dir("recovery-dedup");
    let (cold_lines, _) =
        dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, Some(&cache)).unwrap();
    assert_eq!(merge_lines(manifest.len(), [cold_lines]).unwrap(), baseline);
    let (warm_lines, warm) =
        dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, Some(&cache)).unwrap();
    assert_eq!(merge_lines(manifest.len(), [warm_lines]).unwrap(), baseline);
    assert_eq!(warm.cache_hits, warm.clusters, "warm cache hits everything");
    assert_eq!(warm.representatives_run, 0);
    let _ = fs::remove_dir_all(&cache);

    let dir = temp_dir("recovery-resume");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard-0.jsonl");
    let opts = SweepOptions {
        jobs: 4,
        resume: false,
        dedup: false,
        cache_dir: None,
    };
    run_shard_to_file_with_opts(&spec, &manifest, 1, Partition::Hash, 0, &path, &opts).unwrap();
    let clean = fs::read_to_string(&path).unwrap();
    fs::write(&path, &clean[..clean.len() / 2]).unwrap();
    let resume_opts = SweepOptions {
        jobs: 4,
        resume: true,
        dedup: true,
        cache_dir: None,
    };
    let report =
        run_shard_to_file_with_opts(&spec, &manifest, 1, Partition::Hash, 0, &path, &resume_opts)
            .unwrap();
    assert!(report.outcome.reused > 0, "intact head is reused");
    assert!(report.outcome.executed > 0, "torn tail re-runs");
    assert_eq!(fs::read_to_string(&path).unwrap(), clean);
    let _ = fs::remove_dir_all(&dir);
}
