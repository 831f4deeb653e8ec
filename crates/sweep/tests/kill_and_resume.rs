//! Kill-and-resume: a shard whose JSONL file was truncated mid-line (as a
//! killed process leaves it) must resume from its checkpoint, re-run only the
//! lost units, and still produce a merged output byte-identical to a clean
//! run.

use std::fs;
use std::path::PathBuf;

use anet_sweep::{
    merge_shard_files, run_shard_to_file_with_opts, Manifest, Partition, ProtocolSpec,
    SweepOptions, SweepSpec, TopologySpec,
};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anet-sweep-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Sequential shard options, reusing a matching checkpoint when `resume`.
fn resuming(resume: bool) -> SweepOptions {
    SweepOptions {
        resume,
        ..Default::default()
    }
}

fn spec() -> SweepSpec {
    SweepSpec {
        protocols: vec![ProtocolSpec::Mapping, ProtocolSpec::Labeling],
        topologies: vec![
            TopologySpec::ChainGn { n: 4 },
            TopologySpec::CompleteDag { internal: 4 },
            TopologySpec::CycleWithTail { k: 5 },
        ],
        seeds: vec![0, 1],
        random_schedulers: 1,
        max_deliveries: 1_000_000,
        scenarios: vec![anet_sweep::ScenarioSpec::Pristine],
    }
}

#[test]
fn truncated_shard_resumes_to_identical_merged_output() {
    let dir = test_dir("kill-resume");
    let spec = spec();
    let manifest = Manifest::from_spec(&spec);
    let shards = 2;
    let partition = Partition::Hash;
    let shard_paths: Vec<PathBuf> = (0..shards)
        .map(|s| dir.join(format!("shard-{s}.jsonl")))
        .collect();

    // Clean 2-shard run.
    for (shard, path) in shard_paths.iter().enumerate() {
        let outcome = run_shard_to_file_with_opts(
            &spec,
            &manifest,
            shards,
            partition,
            shard,
            path,
            &resuming(false),
        )
        .expect("clean shard run")
        .outcome;
        assert_eq!(outcome.reused, 0);
    }
    let clean_merged = dir.join("merged-clean.jsonl");
    merge_shard_files(manifest.len(), &shard_paths, &clean_merged).expect("clean merge");
    let clean_bytes = fs::read(&clean_merged).expect("read clean merge");

    // Kill: truncate shard 1 mid-file — a partial last line, as a process
    // killed mid-write leaves behind. The first line is the spec header.
    let victim = &shard_paths[1];
    let contents = fs::read_to_string(victim).expect("read victim shard");
    let complete_records = contents.lines().count() - 1;
    assert!(complete_records >= 3, "test needs a few units on shard 1");
    let cut = contents.len() * 3 / 5;
    fs::write(victim, &contents[..cut]).expect("truncate victim shard");
    let surviving = fs::read_to_string(victim)
        .unwrap()
        .lines()
        .filter(|l| anet_sweep::RunRecord::parse_line(l).is_some())
        .count();
    assert!(
        surviving < complete_records,
        "truncation lost at least one unit"
    );

    // Without --resume the merge must refuse the torn file.
    let torn_merged = dir.join("merged-torn.jsonl");
    let err = merge_shard_files(manifest.len(), &shard_paths, &torn_merged)
        .expect_err("torn shard cannot merge");
    assert!(err.to_string().contains("invalid record"), "{err}");

    // Resume: only the lost units re-run; the survivors are reused.
    let outcome = run_shard_to_file_with_opts(
        &spec,
        &manifest,
        shards,
        partition,
        1,
        victim,
        &resuming(true),
    )
    .expect("resumed shard run")
    .outcome;
    assert_eq!(outcome.reused, surviving);
    assert_eq!(outcome.executed, complete_records - surviving);
    assert!(outcome.executed > 0, "resume must re-run the torn tail");
    assert!(outcome.reused > 0, "resume must reuse the intact prefix");

    // The merged output is byte-identical to the clean run.
    let resumed_merged = dir.join("merged-resumed.jsonl");
    merge_shard_files(manifest.len(), &shard_paths, &resumed_merged).expect("resumed merge");
    assert_eq!(
        fs::read(&resumed_merged).expect("read resumed"),
        clean_bytes
    );

    // Resuming an already-complete shard executes nothing.
    let noop = run_shard_to_file_with_opts(
        &spec,
        &manifest,
        shards,
        partition,
        1,
        victim,
        &resuming(true),
    )
    .expect("no-op resume")
    .outcome;
    assert_eq!(noop.executed, 0);
    assert_eq!(noop.reused, complete_records);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_discards_checkpoints_from_an_edited_spec() {
    // A checkpoint's record indices are positions in *its* spec's manifest;
    // resuming with an edited spec must discard it wholesale, or stale records
    // would be spliced into the wrong units of the new manifest.
    let dir = test_dir("resume-edited-spec");
    let old = spec();
    let path = dir.join("shard-0.jsonl");
    run_shard_to_file_with_opts(
        &old,
        &Manifest::from_spec(&old),
        1,
        Partition::Hash,
        0,
        &path,
        &resuming(false),
    )
    .expect("checkpoint under the old spec");

    // Edit 1: reorder topologies — same units, different indices.
    let mut reordered = old.clone();
    reordered.topologies.reverse();
    let manifest = Manifest::from_spec(&reordered);
    let outcome = run_shard_to_file_with_opts(
        &reordered,
        &manifest,
        1,
        Partition::Hash,
        0,
        &path,
        &resuming(true),
    )
    .expect("resume under reordered spec")
    .outcome;
    assert_eq!(outcome.reused, 0, "stale checkpoint must not be reused");
    assert_eq!(outcome.executed, manifest.len());
    let merged = dir.join("merged.jsonl");
    merge_shard_files(manifest.len(), std::slice::from_ref(&path), &merged).expect("merge");
    let clean = anet_sweep::run_sweep_in_process(&reordered, 1, Partition::Hash).unwrap();
    assert_eq!(fs::read_to_string(&merged).unwrap(), clean);

    // Edit 2: a changed delivery budget — identical manifest identities, but
    // potentially different run results; still a full re-run.
    let mut rebudgeted = reordered.clone();
    rebudgeted.max_deliveries /= 2;
    let outcome = run_shard_to_file_with_opts(
        &rebudgeted,
        &Manifest::from_spec(&rebudgeted),
        1,
        Partition::Hash,
        0,
        &path,
        &resuming(true),
    )
    .expect("resume under rebudgeted spec")
    .outcome;
    assert_eq!(outcome.reused, 0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_a_missing_file_runs_everything() {
    let dir = test_dir("resume-fresh");
    let spec = spec();
    let manifest = Manifest::from_spec(&spec);
    let path = dir.join("shard-0.jsonl");
    let outcome = run_shard_to_file_with_opts(
        &spec,
        &manifest,
        1,
        Partition::RoundRobin,
        0,
        &path,
        &resuming(true),
    )
    .expect("fresh resume run")
    .outcome;
    assert_eq!(outcome.reused, 0);
    assert_eq!(outcome.executed, manifest.len());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_discards_checkpoints_from_a_different_partitioning() {
    // A shard file written under round-robin must not poison a hash-partition
    // resume: indices outside the shard's unit set are filtered out.
    let dir = test_dir("resume-foreign");
    let spec = spec();
    let manifest = Manifest::from_spec(&spec);
    let path = dir.join("shard-0.jsonl");
    run_shard_to_file_with_opts(
        &spec,
        &manifest,
        2,
        Partition::RoundRobin,
        0,
        &path,
        &resuming(false),
    )
    .expect("round-robin shard run");
    let outcome = run_shard_to_file_with_opts(
        &spec,
        &manifest,
        2,
        Partition::Hash,
        0,
        &path,
        &resuming(true),
    )
    .expect("hash resume over foreign checkpoint")
    .outcome;
    let hash_units = manifest.shard_units(2, Partition::Hash, 0).len();
    assert_eq!(outcome.executed + outcome.reused, hash_units);
    // The shared units (round-robin ∩ hash for shard 0) are reused; the rest
    // re-ran. Either way the file is now exactly the hash shard (header plus
    // one record per unit).
    let contents = fs::read_to_string(&path).unwrap();
    assert_eq!(contents.lines().count(), hash_units + 1);
    let _ = fs::remove_dir_all(&dir);
}
