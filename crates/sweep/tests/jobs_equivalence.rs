//! Intra-shard parallelism equivalence: `--jobs N` must be a pure throughput
//! knob. A shard executed with any worker-thread count writes **byte-identical**
//! output to the sequential shard, because every record line is a pure
//! function of its unit and workers fill pre-assigned slots of the
//! shard-manifest order — threads decide *when* a slot is filled, never
//! *where*.

use std::fs;
use std::path::PathBuf;

use anet_sweep::{
    merge_shard_files, run_shard_to_file_with_opts, Manifest, Partition, ProtocolSpec,
    SweepOptions, SweepSpec, TopologySpec,
};

fn spec() -> SweepSpec {
    SweepSpec {
        protocols: vec![
            ProtocolSpec::Mapping,
            ProtocolSpec::Labeling,
            ProtocolSpec::GeneralBroadcast { payload_bits: 16 },
        ],
        topologies: vec![
            TopologySpec::ChainGn { n: 4 },
            TopologySpec::CycleWithTail { k: 5 },
            TopologySpec::CompleteDag { internal: 5 },
        ],
        seeds: vec![0, 1],
        random_schedulers: 1,
        max_deliveries: 1_000_000,
        scenarios: vec![anet_sweep::ScenarioSpec::Pristine],
    }
}

fn jobs(jobs: usize) -> SweepOptions {
    SweepOptions {
        jobs,
        ..Default::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "anet-jobs-equivalence-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn jobs_four_is_byte_identical_to_jobs_one() {
    let spec = spec();
    let manifest = Manifest::from_spec(&spec);
    for shards in [1usize, 2] {
        for partition in [Partition::Hash, Partition::RoundRobin] {
            let dir = tmp_dir(&format!("j14-{shards}-{partition:?}"));
            for shard in 0..shards {
                let sequential = dir.join(format!("seq-{shard}.jsonl"));
                let parallel = dir.join(format!("par-{shard}.jsonl"));
                let a = run_shard_to_file_with_opts(
                    &spec,
                    &manifest,
                    shards,
                    partition,
                    shard,
                    &sequential,
                    &jobs(1),
                )
                .expect("sequential shard runs")
                .outcome;
                let b = run_shard_to_file_with_opts(
                    &spec,
                    &manifest,
                    shards,
                    partition,
                    shard,
                    &parallel,
                    &jobs(4),
                )
                .expect("parallel shard runs")
                .outcome;
                assert_eq!(a, b, "shard outcome diverged (shard {shard}/{shards})");
                let bytes_a = fs::read(&sequential).expect("read sequential shard");
                let bytes_b = fs::read(&parallel).expect("read parallel shard");
                assert_eq!(
                    bytes_a, bytes_b,
                    "jobs=4 shard file differs from jobs=1 (shard {shard}/{shards}, {partition:?})"
                );
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn jobs_merged_output_matches_the_default_sequential_run() {
    let spec = spec();
    let manifest = Manifest::from_spec(&spec);
    let shards = 2usize;
    let dir = tmp_dir("merged");
    let mut plain_paths = Vec::new();
    let mut jobs_paths = Vec::new();
    for shard in 0..shards {
        let plain = dir.join(format!("plain-{shard}.jsonl"));
        let parallel = dir.join(format!("jobs-{shard}.jsonl"));
        run_shard_to_file_with_opts(
            &spec,
            &manifest,
            shards,
            Partition::Hash,
            shard,
            &plain,
            &SweepOptions::default(),
        )
        .expect("plain shard runs");
        run_shard_to_file_with_opts(
            &spec,
            &manifest,
            shards,
            Partition::Hash,
            shard,
            &parallel,
            &jobs(4),
        )
        .expect("jobs shard runs");
        plain_paths.push(plain);
        jobs_paths.push(parallel);
    }
    let merged_plain = dir.join("merged-plain.jsonl");
    let merged_jobs = dir.join("merged-jobs.jsonl");
    merge_shard_files(manifest.len(), &plain_paths, &merged_plain).expect("merge plain");
    merge_shard_files(manifest.len(), &jobs_paths, &merged_jobs).expect("merge jobs");
    assert_eq!(
        fs::read(&merged_plain).unwrap(),
        fs::read(&merged_jobs).unwrap(),
        "merged output differs between jobs=1 and jobs=4"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn jobs_compose_with_checkpoint_resume() {
    // A torn checkpoint resumed with jobs=4 must reproduce the clean file:
    // only the missing units are fanned out, reused lines keep their slots.
    let spec = spec();
    let manifest = Manifest::from_spec(&spec);
    let dir = tmp_dir("resume");
    let clean = dir.join("clean.jsonl");
    run_shard_to_file_with_opts(&spec, &manifest, 1, Partition::Hash, 0, &clean, &jobs(4))
        .expect("clean shard runs");
    let clean_bytes = fs::read_to_string(&clean).unwrap();

    // Keep the header and the first two record lines, tear the third mid-line.
    let victim = dir.join("victim.jsonl");
    let keep: Vec<&str> = clean_bytes.lines().take(3).collect();
    let torn_tail = &clean_bytes.lines().nth(3).unwrap()[..10];
    fs::write(&victim, format!("{}\n{torn_tail}", keep.join("\n"))).unwrap();

    let resume = SweepOptions {
        resume: true,
        ..jobs(4)
    };
    let outcome =
        run_shard_to_file_with_opts(&spec, &manifest, 1, Partition::Hash, 0, &victim, &resume)
            .expect("resumed shard runs")
            .outcome;
    assert_eq!(outcome.reused, 2, "the two intact record lines are reused");
    assert_eq!(outcome.executed, manifest.len() - 2);
    assert_eq!(
        fs::read_to_string(&victim).unwrap(),
        clean_bytes,
        "resumed parallel shard differs from the clean run"
    );
    let _ = fs::remove_dir_all(&dir);
}
