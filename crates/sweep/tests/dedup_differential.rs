//! The dedup layer's correctness contract: clustering + representative
//! execution + content-addressed caching produce merged output **byte
//! identical** to the honest one-execution-per-unit path — cold cache, warm
//! cache, corrupted cache, any shard count, either partition strategy.
//!
//! The baseline is per-unit [`execute_unit`], which builds and
//! canonicalizes each unit's topology on its own, so it shares no code path
//! with the shard's topology table that both `--no-dedup` and dedup run on.
//! These tests are the in-process half of the `--no-dedup` differential
//! contract; `dedup_cli.rs` pins the same equality through real processes.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;

use anet_core::StateCorruption;
use anet_graph::canon::{canonical_form, CanonicalForm};
use anet_graph::NodeId;
use anet_sweep::{
    dedup_shard_lines, execute_unit, merge_lines, run_shard_to_file_with_opts, Manifest, Partition,
    ProtocolSpec, RunRecord, ScenarioSpec, SweepOptions, SweepSpec, TopologySpec,
};
use proptest::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anet-sweep-dedup-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A spec with deliberate redundancy: `path 2` ≅ `complete-dag 2` and
/// `cycle-with-tail 4` ≅ `nested-cycles 1 4` are isomorphic pairs, so every
/// (protocol, seed, battery) slice has strictly fewer clusters than units.
fn redundant_spec() -> SweepSpec {
    SweepSpec {
        protocols: vec![ProtocolSpec::Mapping, ProtocolSpec::Labeling],
        topologies: vec![
            TopologySpec::Path { n: 2 },
            TopologySpec::CompleteDag { internal: 2 },
            TopologySpec::CycleWithTail { k: 4 },
            TopologySpec::NestedCycles { count: 1, len: 4 },
            TopologySpec::Star { leaves: 3 },
        ],
        seeds: vec![7, 8],
        random_schedulers: 1,
        max_deliveries: 500_000,
        scenarios: vec![anet_sweep::ScenarioSpec::Pristine],
    }
}

/// The per-unit oracle: each unit's own [`execute_unit`] line, in manifest
/// order.
fn oracle_lines(spec: &SweepSpec, manifest: &Manifest) -> Vec<String> {
    manifest
        .units
        .iter()
        .map(|unit| execute_unit(spec, unit).expect("unit runs").to_jsonl_line())
        .collect()
}

/// The oracle as merged JSONL.
fn oracle_merged(spec: &SweepSpec, manifest: &Manifest) -> String {
    oracle_lines(spec, manifest)
        .into_iter()
        .map(|line| line + "\n")
        .collect()
}

#[test]
fn dedup_merged_output_is_byte_identical_to_honest() {
    let spec = redundant_spec();
    let manifest = Manifest::from_spec(&spec);
    let baseline = oracle_merged(&spec, &manifest);

    for partition in [Partition::Hash, Partition::RoundRobin] {
        for shards in [1usize, 2, 3] {
            let mut sets = Vec::new();
            let mut members = 0;
            for shard in 0..shards {
                let (lines, stats) =
                    dedup_shard_lines(&spec, &manifest, shards, partition, shard, None)
                        .expect("dedup shard runs");
                assert_eq!(stats.cache_hits + stats.cache_misses, 0, "no cache dir");
                assert_eq!(
                    stats.units,
                    stats.representatives_run + stats.members_by_reference
                );
                members += stats.members_by_reference;
                sets.push(lines);
            }
            let merged = merge_lines(manifest.len(), sets).expect("dedup merge covers");
            assert_eq!(
                merged, baseline,
                "dedup diverged from honest ({partition:?} x {shards} shards)"
            );
            // Clustering is per shard, so with several shards an isomorphic
            // pair may be split apart (the cache, not the cluster, dedups
            // across shards) — but a single shard must see the redundancy.
            if shards == 1 {
                assert!(members > 0, "redundant spec must dedup ({partition:?})");
            }
        }
    }
}

#[test]
fn cold_then_warm_cache_stay_byte_identical_and_warm_pass_hits() {
    let spec = redundant_spec();
    let manifest = Manifest::from_spec(&spec);
    let baseline = oracle_merged(&spec, &manifest);
    let cache = temp_dir("warm");

    let (cold_lines, cold) =
        dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, Some(&cache)).unwrap();
    assert_eq!(merge_lines(manifest.len(), [cold_lines]).unwrap(), baseline);
    assert_eq!(cold.cache_hits, 0, "cold cache cannot hit");
    assert_eq!(cold.cache_misses, cold.clusters);
    assert_eq!(cold.representatives_run, cold.clusters);

    let (warm_lines, warm) =
        dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, Some(&cache)).unwrap();
    assert_eq!(merge_lines(manifest.len(), [warm_lines]).unwrap(), baseline);
    assert_eq!(
        warm.cache_hits, warm.clusters,
        "warm cache hits every cluster"
    );
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(
        warm.representatives_run, 0,
        "nothing executes on a warm cache"
    );

    // The cache is content-addressed, not run-addressed: a different shard
    // count over the same spec reuses the same entries.
    for shard in 0..2 {
        let (_, stats) =
            dedup_shard_lines(&spec, &manifest, 2, Partition::Hash, shard, Some(&cache)).unwrap();
        assert_eq!(stats.cache_hits, stats.clusters, "shard {shard} re-hits");
    }

    let _ = fs::remove_dir_all(&cache);
}

#[test]
fn corrupted_cache_entries_degrade_to_misses_not_wrong_output() {
    let spec = redundant_spec();
    let manifest = Manifest::from_spec(&spec);
    let baseline = oracle_merged(&spec, &manifest);
    let cache = temp_dir("corrupt");

    let (_, cold) =
        dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, Some(&cache)).unwrap();
    assert!(cold.cache_misses > 0);

    // Mangle every entry a different way: truncate, garbage, emptiness.
    let mut entries: Vec<PathBuf> = fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert!(!entries.is_empty());
    for (i, path) in entries.iter().enumerate() {
        match i % 3 {
            0 => {
                let bytes = fs::read_to_string(path).unwrap();
                fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
            }
            1 => fs::write(path, "{\"cache\": \"v1\", garbage\n").unwrap(),
            _ => fs::write(path, "").unwrap(),
        }
    }

    let (lines, stats) =
        dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, Some(&cache)).unwrap();
    assert_eq!(merge_lines(manifest.len(), [lines]).unwrap(), baseline);
    assert_eq!(stats.cache_hits, 0, "every corrupt entry is a miss");
    assert_eq!(stats.cache_misses, stats.clusters);

    // The re-run repaired the entries in place.
    let (_, repaired) =
        dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, Some(&cache)).unwrap();
    assert_eq!(repaired.cache_hits, repaired.clusters);

    let _ = fs::remove_dir_all(&cache);
}

#[test]
fn member_records_equal_honest_execution_of_the_member() {
    // The rewritten member records are not merely merge-compatible: each one
    // equals what executing that member honestly would produce, bit for bit.
    let spec = redundant_spec();
    let manifest = Manifest::from_spec(&spec);
    let clusters = manifest.cluster_units(&spec).expect("clustering runs");
    let mut multi = 0;
    for cluster in &clusters {
        if cluster.members.len() > 1 {
            multi += 1;
        }
        let rep_record = execute_unit(&spec, &manifest.units[cluster.representative]).unwrap();
        for &member in &cluster.members {
            let unit = &manifest.units[member];
            let honest = execute_unit(&spec, unit).unwrap();
            assert_eq!(rep_record.rebind(unit), honest, "member {}", unit.key());
        }
    }
    assert!(multi > 0, "spec must contain multi-member clusters");
}

#[test]
fn dedup_resume_recovers_a_truncated_checkpoint_byte_identically() {
    let spec = redundant_spec();
    let manifest = Manifest::from_spec(&spec);
    let dir = temp_dir("resume");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard-0.jsonl");
    let opts = SweepOptions {
        jobs: 1,
        resume: false,
        dedup: true,
        cache_dir: None,
    };
    run_shard_to_file_with_opts(&spec, &manifest, 1, Partition::Hash, 0, &path, &opts).unwrap();
    let clean = fs::read_to_string(&path).unwrap();

    // Tear the checkpoint mid-line and resume with dedup still on: the
    // surviving records are reused, only the missing units re-cluster.
    fs::write(&path, &clean[..clean.len() * 2 / 3]).unwrap();
    let opts = SweepOptions {
        resume: true,
        ..opts
    };
    let report =
        run_shard_to_file_with_opts(&spec, &manifest, 1, Partition::Hash, 0, &path, &opts).unwrap();
    assert!(
        report.outcome.reused > 0,
        "resume must reuse the intact head"
    );
    assert!(report.outcome.executed > 0, "the torn tail must re-run");
    let stats = report.stats.expect("dedup path reports stats");
    assert_eq!(
        stats.units, report.outcome.executed,
        "stats cover only the re-run units"
    );
    assert_eq!(fs::read_to_string(&path).unwrap(), clean);

    let _ = fs::remove_dir_all(&dir);
}

/// Every scenario kind over an isomorphic pair whose generators label it
/// differently (`nested-cycles 1 4` ≅ `cycle-with-tail 4`) and a star, each
/// topology run by all three protocols.
fn every_scenario_spec() -> SweepSpec {
    SweepSpec {
        protocols: vec![
            ProtocolSpec::Mapping,
            ProtocolSpec::Labeling,
            ProtocolSpec::GeneralBroadcast { payload_bits: 16 },
        ],
        topologies: vec![
            TopologySpec::NestedCycles { count: 1, len: 4 },
            TopologySpec::CycleWithTail { k: 4 },
            TopologySpec::Star { leaves: 3 },
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
                drop_pct: 20,
                dup_pct: 0,
                reorder: 0,
                seed: 7,
                retry: 4,
                crashes: vec![],
            },
            ScenarioSpec::Corrupt(StateCorruption::ScrambledLabels { seed: 11 }),
            ScenarioSpec::Corrupt(StateCorruption::LostPartition),
            ScenarioSpec::Corrupt(StateCorruption::StaleTerminal),
        ],
    }
}

#[test]
fn shard_files_equal_the_per_unit_oracle_with_dedup_on_and_off_and_any_jobs() {
    let spec = every_scenario_spec();
    // `nested-cycles` and `star` are generated with their edges numbered in
    // another order than their canonical networks (sorted), and the engine
    // sees edge and port numbers, so a shard that ran them on anything but
    // the canonical network would change their records.
    for topology in [&spec.topologies[0], &spec.topologies[2]] {
        let built = topology.build().unwrap();
        let labeling = canonical_form(&built);
        let relabel = |v: NodeId| labeling.permutation[v.index()];
        let edges: Vec<(usize, usize)> = built
            .graph()
            .edges()
            .map(|e| built.graph().edge_endpoints(e))
            .map(|(a, b)| (relabel(a), relabel(b)))
            .collect();
        assert_ne!(edges, labeling.form.edges, "{}", topology.name());
    }
    let manifest = Manifest::from_spec(&spec);
    let oracle = oracle_lines(&spec, &manifest);
    let dir = temp_dir("oracle");
    for dedup in [false, true] {
        for jobs in [1usize, 2] {
            let path = dir.join(format!("shard-dedup-{dedup}-jobs-{jobs}.jsonl"));
            let opts = SweepOptions {
                jobs,
                resume: false,
                dedup,
                cache_dir: None,
            };
            let report =
                run_shard_to_file_with_opts(&spec, &manifest, 1, Partition::Hash, 0, &path, &opts)
                    .unwrap();
            assert_eq!(report.outcome.executed, manifest.len());
            if dedup {
                let stats = report.stats.expect("dedup path reports stats");
                assert!(stats.members_by_reference > 0, "the pair must dedup");
            }
            let contents = fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = contents.lines().skip(1).collect();
            assert_eq!(lines.len(), oracle.len());
            for (index, (line, expected)) in lines.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    line,
                    expected,
                    "unit {} (dedup {dedup}, jobs {jobs})",
                    manifest.units[index].key()
                );
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

// --- randomized specs: the same strategy space as merge_equivalence.rs ---

fn protocol(choice: u32, bits: u64) -> ProtocolSpec {
    match choice % 3 {
        0 => ProtocolSpec::Mapping,
        1 => ProtocolSpec::Labeling,
        _ => ProtocolSpec::GeneralBroadcast {
            payload_bits: bits % 48,
        },
    }
}

fn topology(choice: u32, size: usize, pct: u8, seed: u64) -> TopologySpec {
    match choice % 8 {
        0 => TopologySpec::ChainGn { n: size },
        1 => TopologySpec::Path { n: size },
        2 => TopologySpec::Star { leaves: size },
        3 => TopologySpec::CompleteDag { internal: size },
        4 => TopologySpec::CycleWithTail { k: size + 2 },
        5 => TopologySpec::NestedCycles {
            count: 1 + size % 2,
            len: 3 + size % 3,
        },
        6 => TopologySpec::RandomDag {
            internal: size,
            edge_pct: pct,
            seed,
        },
        _ => TopologySpec::RandomCyclic {
            internal: size,
            forward_pct: pct,
            back_pct: pct / 2,
            seed,
        },
    }
}

/// Every scenario kind: pristine, each corruption, and one fault plan.
fn scenario_battery(fault_seed: u64) -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::Pristine,
        ScenarioSpec::Corrupt(StateCorruption::ScrambledLabels { seed: fault_seed }),
        ScenarioSpec::Corrupt(StateCorruption::LostPartition),
        ScenarioSpec::Corrupt(StateCorruption::StaleTerminal),
        ScenarioSpec::Faulty {
            drop_pct: 20,
            dup_pct: 10,
            reorder: 2,
            seed: fault_seed,
            retry: 2,
            crashes: vec![],
        },
    ]
}

#[test]
fn seeded_cells_never_share_a_class_across_seeds() {
    // Three battery seeds, two random positions and every scenario kind: a
    // cell that reads the seed (random position or fault plan) keeps one
    // class per seed, and every other cell is one class across all seeds.
    let spec = SweepSpec {
        seeds: vec![3, 4, 5],
        random_schedulers: 2,
        scenarios: scenario_battery(9),
        ..every_scenario_spec()
    };
    let manifest = Manifest::from_spec(&spec);
    let clusters = manifest.cluster_units(&spec).expect("clustering runs");
    let mut seed_free = 0;
    for cluster in &clusters {
        let rep = &manifest.units[cluster.representative];
        let seeds: Vec<u64> = cluster
            .members
            .iter()
            .map(|&m| manifest.units[m].seed)
            .collect();
        if rep.reads_seed() {
            assert!(
                seeds.iter().all(|&seed| seed == rep.seed),
                "seeded class of {} spans seeds {seeds:?}",
                rep.key()
            );
        } else {
            seed_free += 1;
            for seed in &spec.seeds {
                assert!(seeds.contains(seed), "{} misses seed {seed}", rep.key());
            }
        }
    }
    assert!(seed_free > 0);
}

/// A random spec from the strategy space of the properties below: 1–2
/// protocols, 1–3 topologies, `seed_count` consecutive battery seeds and
/// every scenario kind.
fn random_spec(
    protocol_picks: Vec<(u32, u64)>,
    topology_picks: Vec<(u32, usize, u32, u64)>,
    seeds: std::ops::Range<u64>,
    random_schedulers: usize,
    fault_seed: u64,
) -> SweepSpec {
    let mut protocols: Vec<ProtocolSpec> = protocol_picks
        .into_iter()
        .map(|(c, b)| protocol(c, b))
        .collect();
    protocols.dedup();
    let mut topologies: Vec<TopologySpec> = topology_picks
        .into_iter()
        .map(|(c, n, p, s)| topology(c, n, p as u8, s))
        .collect();
    topologies.dedup();
    SweepSpec {
        protocols,
        topologies,
        seeds: seeds.collect(),
        random_schedulers,
        max_deliveries: 1_000_000,
        scenarios: scenario_battery(fault_seed),
    }
}

/// Whether no two differently named topologies of `spec` are isomorphic, so
/// that every dedup class names one topology.
fn names_pairwise_non_isomorphic(spec: &SweepSpec) -> bool {
    let forms: BTreeMap<String, CanonicalForm> = spec
        .topologies
        .iter()
        .map(|t| (t.name(), canonical_form(&t.build().unwrap()).form))
        .collect();
    let distinct: BTreeSet<&CanonicalForm> = forms.values().collect();
    distinct.len() == forms.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn dedup_equals_honest_on_random_specs(
        protocol_picks in prop::collection::vec((0u32..3, 0u64..48), 1..3),
        topology_picks in prop::collection::vec((0u32..8, 1usize..6, 0u32..60, 0u64..1000), 1..4),
        seed_base in 0u64..1000,
        seed_count in 2u64..4,
        random_schedulers in 0usize..3,
        fault_seed in 0u64..1000,
        case in 0u64..u64::MAX,
    ) {
        let spec = random_spec(
            protocol_picks,
            topology_picks,
            seed_base..seed_base + seed_count,
            random_schedulers,
            fault_seed,
        );
        let manifest = Manifest::from_spec(&spec);
        let honest: Vec<RunRecord> = manifest
            .units
            .iter()
            .map(|unit| execute_unit(&spec, unit).expect("unit runs"))
            .collect();
        let baseline: String = honest.iter().map(|r| r.to_jsonl_line() + "\n").collect();

        // Every member's honest record, seed-free twins under another seed
        // included, is its representative's record rebound.
        for cluster in manifest.cluster_units(&spec).expect("clustering runs") {
            let rep = &honest[cluster.representative];
            for &member in &cluster.members {
                prop_assert_eq!(&rep.rebind(&manifest.units[member]), &honest[member]);
            }
        }

        let cache = temp_dir(&format!("prop-{case:016x}"));
        for partition in [Partition::Hash, Partition::RoundRobin] {
            for shards in [1usize, 2, 3] {
                // Twice per configuration: the first pass may mix cold and
                // warm clusters (shared cache dir), the second is fully warm.
                for _pass in 0..2 {
                    let sets: Result<Vec<_>, _> = (0..shards)
                        .map(|s| {
                            dedup_shard_lines(&spec, &manifest, shards, partition, s, Some(&cache))
                                .map(|(lines, _)| lines)
                        })
                        .collect();
                    let merged = merge_lines(manifest.len(), sets.unwrap()).expect("covers");
                    prop_assert_eq!(
                        &merged,
                        &baseline,
                        "dedup diverged ({:?} x {} shards)",
                        partition,
                        shards
                    );
                }
            }
        }
        let _ = fs::remove_dir_all(&cache);
    }

    #[test]
    fn shards_keep_seed_free_classes_whole_on_random_specs(
        protocol_picks in prop::collection::vec((0u32..3, 0u64..48), 1..3),
        topology_picks in prop::collection::vec((0u32..8, 1usize..6, 0u32..60, 0u64..1000), 1..4),
        seed_base in 0u64..1000,
        seed_count in 2u64..4,
        random_schedulers in 0usize..3,
        fault_seed in 0u64..1000,
    ) {
        let spec = random_spec(
            protocol_picks,
            topology_picks,
            seed_base..seed_base + seed_count,
            random_schedulers,
            fault_seed,
        );
        let manifest = Manifest::from_spec(&spec);
        let baseline = oracle_merged(&spec, &manifest);
        let clusters = manifest.cluster_units(&spec).expect("clustering runs");
        let (_, one) = dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, None)
            .expect("one shard runs");
        prop_assert_eq!(one.representatives_run, clusters.len());
        let non_isomorphic = names_pairwise_non_isomorphic(&spec);
        for partition in [Partition::Hash, Partition::RoundRobin] {
            for shards in [1usize, 2, 3, 16] {
                // Every seed-free class lies in one shard: the members that
                // share a topology name (all of them, when no two names are
                // isomorphic) share their shard.
                let assignment = manifest.shard_assignment(shards, partition);
                for cluster in &clusters {
                    if manifest.units[cluster.representative].reads_seed() {
                        continue;
                    }
                    let mut owner: BTreeMap<String, usize> = BTreeMap::new();
                    for &member in &cluster.members {
                        let name = manifest.units[member].topology.name();
                        let shard = *owner.entry(name).or_insert(assignment[member]);
                        prop_assert_eq!(shard, assignment[member], "{:?} x {}", partition, shards);
                    }
                    if non_isomorphic {
                        prop_assert_eq!(owner.len(), 1);
                    }
                }

                let mut sets = Vec::with_capacity(shards);
                let mut representatives = 0;
                for shard in 0..shards {
                    let (lines, stats) =
                        dedup_shard_lines(&spec, &manifest, shards, partition, shard, None)
                            .expect("dedup shard runs");
                    representatives += stats.representatives_run;
                    sets.push(lines);
                }
                if non_isomorphic {
                    prop_assert_eq!(
                        representatives,
                        one.representatives_run,
                        "{:?} x {} shards ran a class twice",
                        partition,
                        shards
                    );
                }
                let merged = merge_lines(manifest.len(), sets).expect("covers");
                prop_assert_eq!(&merged, &baseline, "{:?} x {} shards", partition, shards);
            }
        }
    }
}
