//! Shard output files, resumable checkpoints and the order-restoring merge.
//!
//! A shard writes one canonical JSONL line per completed unit to its own file.
//! The file doubles as the shard's **checkpoint**: on a resumed run the shard
//! re-validates every line with [`RunRecord::parse_line`] (which only accepts
//! byte-exact canonical lines, so a truncated tail from a killed process is
//! discarded), keeps the completed units, and re-executes only the rest. The
//! rewrite is atomic (temp file + rename), so a shard file on disk is always a
//! prefix-consistent set of complete lines plus at most one torn tail.
//!
//! Checkpoints are only valid for the spec that produced them: the first line
//! of every shard file is a comment header carrying the FNV-1a fingerprint of
//! the spec's canonical text, and a resume whose current spec does not match
//! discards the whole checkpoint. Record indices are positions in the spec's
//! manifest, so without this gate an edited spec (reordered topologies,
//! changed budget) would silently splice stale records into the wrong units.
//! The header travels *inside* the file, so the atomic rename publishes
//! fingerprint and records together — there is no window in which one
//! describes a different version of the other. Merging skips comment lines,
//! so merged output remains pure records.
//!
//! [`merge_lines`] restores the canonical manifest order: it checks that the
//! shard outputs cover every unit exactly once and emits the lines sorted by
//! unit index. Because every line is a pure function of its unit, the merged
//! bytes are identical for every shard count — the sweep subsystem's central
//! correctness contract.
//!
//! Every shard path — [`shard_lines`], `--no-dedup` and dedup — first builds
//! the topology table of its pending units (each distinct topology built and
//! canonicalized once, [`crate::exec`]) and then runs units on the table's
//! canonical networks, fanned over `--jobs` workers that share the table.
//! [`run_shard_to_file_with_opts`] adds the dedup/cache pipeline on top:
//! pending units are clustered by canonical form on the same table
//! ([`crate::dedup`]), the content-addressed cache ([`crate::cache`])
//! resolves whole clusters, only representatives of missed clusters execute,
//! and member lines are rewritten from their representative's record.
//! Because every unit runs on its canonical network, the written file — and
//! therefore the merged output — is byte-identical whether dedup is on or
//! off, and equal to per-unit [`execute_unit`](crate::execute_unit)
//! records.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use anet_graph::Network;

use crate::cache::{CachePayload, ResultCache};
use crate::dedup::{cluster_on, DedupStats};
use crate::exec::{execute_on, TopologyTable};
use crate::manifest::{Manifest, Partition, SweepUnit};
use crate::record::RunRecord;
use crate::spec::SweepSpec;
use crate::SweepError;

/// What a shard run did: how many units were executed fresh and how many were
/// reused from a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Units executed in this invocation.
    pub executed: usize,
    /// Units reused from the existing shard file.
    pub reused: usize,
}

/// Options for a shard run — the superset of every knob the `sweep` CLI
/// forwards to its shard children.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Intra-shard worker threads (`<= 1` means sequential).
    pub jobs: usize,
    /// Reuse a matching checkpoint found at the output path.
    pub resume: bool,
    /// Cluster pending units by canonical fingerprint and execute one
    /// representative per equivalence class ([`crate::dedup`]).
    pub dedup: bool,
    /// Content-addressed result cache directory, consulted and fed by the
    /// dedup path. Ignored when `dedup` is off (the honest path never
    /// reads results it did not compute).
    pub cache_dir: Option<PathBuf>,
}

/// A [`ShardOutcome`] plus the dedup counters, when dedup ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Executed/reused unit counts.
    pub outcome: ShardOutcome,
    /// Dedup statistics over this invocation's pending units; `None` when
    /// the shard ran the honest path.
    pub stats: Option<DedupStats>,
}

/// The `(index, line)` pairs of one shard's completed units, in manifest order.
pub type ShardLines = Vec<(usize, String)>;

/// Executes shard `shard` of `shards` in memory and returns its lines.
///
/// # Errors
///
/// Returns [`SweepError::Topology`] for degenerate topology parameters.
pub fn shard_lines(
    spec: &SweepSpec,
    manifest: &Manifest,
    shards: usize,
    partition: Partition,
    shard: usize,
) -> Result<ShardLines, SweepError> {
    let pending: Vec<(usize, &SweepUnit)> = manifest
        .shard_units(shards, partition, shard)
        .into_iter()
        .map(|unit| (unit.index, unit))
        .collect();
    honest_lines(spec, &pending, 1)
}

/// The spec-fingerprint header written as the first line of every shard file.
pub fn spec_header(spec: &SweepSpec) -> String {
    format!(
        "# anet-sweep spec fnv1a {:016x}",
        crate::manifest::fnv1a(spec.to_spec_string().as_bytes())
    )
}

/// Parses the reusable checkpoint lines of an existing shard file's contents:
/// complete, canonical lines whose unit index belongs to `expected`, provided
/// the file's first line is exactly the [`spec_header`] of `spec`. Anything
/// else — a missing or mismatched header (the file was produced by a different
/// spec), torn tails, foreign indices, stale formats — is dropped.
pub fn checkpoint_lines(
    spec: &SweepSpec,
    contents: &str,
    expected: &[usize],
) -> HashMap<usize, String> {
    let mut kept = HashMap::new();
    let mut lines = contents.lines();
    if lines.next() != Some(spec_header(spec).as_str()) {
        return kept;
    }
    let expected: std::collections::HashSet<usize> = expected.iter().copied().collect();
    for line in lines {
        if let Some(record) = RunRecord::parse_line(line) {
            if expected.contains(&record.index) {
                kept.insert(record.index, line.to_owned());
            }
        }
    }
    kept
}

/// Runs shard `shard` of `shards`, writing its JSONL file at `path` (a
/// [`spec_header`] line followed by one record line per unit).
///
/// With `resume`, completed units found in an existing file at `path` are
/// reused instead of re-executed — but only when the file's header proves it
/// was produced by a spec with the same canonical text; any other checkpoint
/// (edited spec, missing header, stale layout) is discarded and the shard runs
/// from scratch. Without `resume` the shard always runs from scratch. The file
/// is rewritten atomically (temp + rename) in shard-manifest order either way,
/// so header and records are always published together.
///
/// # Errors
///
/// Returns I/O errors from the file system and [`SweepError::Topology`] for
/// degenerate topology parameters.
pub fn run_shard_to_file(
    spec: &SweepSpec,
    manifest: &Manifest,
    shards: usize,
    partition: Partition,
    shard: usize,
    path: &Path,
    resume: bool,
) -> Result<ShardOutcome, SweepError> {
    run_shard_to_file_with_jobs(spec, manifest, shards, partition, shard, path, resume, 1)
}

/// [`run_shard_to_file`] with intra-shard parallelism: the shard's pending
/// units are fanned over `jobs` scoped worker threads (`jobs <= 1` means the
/// plain sequential path), so one shard process can saturate its host.
///
/// The output is **byte-identical to the sequential run** regardless of
/// thread count or timing: every record line is a pure function of its unit,
/// workers write into pre-assigned slots of the shard-manifest order, and the
/// file is emitted in that order — threads only decide *when* a slot is
/// filled, never *where*. Checkpoint reuse composes with parallelism (only
/// missing units are fanned out).
///
/// # Errors
///
/// Returns I/O errors from the file system and [`SweepError::Topology`] for
/// degenerate topology parameters.
///
/// # Panics
///
/// Propagates panics from worker threads.
#[allow(clippy::too_many_arguments)]
pub fn run_shard_to_file_with_jobs(
    spec: &SweepSpec,
    manifest: &Manifest,
    shards: usize,
    partition: Partition,
    shard: usize,
    path: &Path,
    resume: bool,
    jobs: usize,
) -> Result<ShardOutcome, SweepError> {
    let opts = SweepOptions {
        jobs,
        resume,
        dedup: false,
        cache_dir: None,
    };
    run_shard_to_file_with_opts(spec, manifest, shards, partition, shard, path, &opts)
        .map(|report| report.outcome)
}

/// Executes `(tag, unit, network)` tasks, fanning over `jobs` scoped worker
/// threads when `jobs > 1`, and returns `(tag, record)` pairs (in
/// worker-stripe order — callers address results by tag, never by position).
/// Each network is the unit's entry in its batch's [`TopologyTable`], which
/// the workers share. This is the single execution engine behind
/// [`shard_lines`], the honest and the dedup shard paths.
fn execute_tagged(
    spec: &SweepSpec,
    tasks: &[(usize, &SweepUnit, &Network)],
    jobs: usize,
) -> Vec<(usize, RunRecord)> {
    let run = |&(tag, unit, network): &(usize, &SweepUnit, &Network)| {
        (tag, execute_on(spec, unit, network))
    };
    if jobs <= 1 || tasks.len() <= 1 {
        return tasks.iter().map(run).collect();
    }
    let workers = jobs.min(tasks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                scope.spawn(move || {
                    tasks
                        .iter()
                        .skip(worker)
                        .step_by(workers)
                        .map(run)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep job thread panicked"))
            .collect()
    })
}

/// Produces the lines of `pending` `(tag, unit)` tasks by executing every
/// unit (jobs-parallel) on the batch's topology table: the `--no-dedup`
/// path.
fn honest_lines(
    spec: &SweepSpec,
    pending: &[(usize, &SweepUnit)],
    jobs: usize,
) -> Result<Vec<(usize, String)>, SweepError> {
    let table = TopologyTable::new(pending.iter().map(|&(_, unit)| unit))?;
    let tasks: Vec<(usize, &SweepUnit, &Network)> = pending
        .iter()
        .enumerate()
        .map(|(position, &(tag, unit))| (tag, unit, table.network(position)))
        .collect();
    Ok(execute_tagged(spec, &tasks, jobs)
        .into_iter()
        .map(|(tag, record)| (tag, record.to_jsonl_line()))
        .collect())
}

/// Produces the lines of `pending` `(tag, unit)` tasks through the dedup
/// pipeline: cluster by canonical fingerprint, consult the cache per cluster,
/// execute only the representatives of missed clusters (jobs-parallel),
/// publish fresh results to the cache, and emit every member's line by
/// rewriting its representative's record ([`RunRecord::rebind`], which
/// asserts the cluster-key fields agree).
///
/// Returns one `(tag, line)` per task plus the [`DedupStats`] of the batch.
/// The lines are byte-identical to honest per-unit execution — every unit
/// runs on its canonical network, so members of a class cannot differ (the
/// property the differential tests pin). One topology table serves both the
/// clustering and the representatives' runs.
fn execute_tagged_dedup(
    spec: &SweepSpec,
    pending: &[(usize, &SweepUnit)],
    jobs: usize,
    cache_dir: Option<&Path>,
) -> Result<(Vec<(usize, String)>, DedupStats), SweepError> {
    let unit_refs: Vec<&SweepUnit> = pending.iter().map(|&(_, unit)| unit).collect();
    let table = TopologyTable::new(unit_refs.iter().copied())?;
    let clusters = cluster_on(spec, &unit_refs, &table);
    let cache = match cache_dir {
        Some(dir) => Some(ResultCache::new(dir).map_err(SweepError::Io)?),
        None => None,
    };
    let mut stats = DedupStats {
        units: pending.len(),
        clusters: clusters.len(),
        ..DedupStats::default()
    };

    // Cache pass: resolve whole clusters from the content-addressed store.
    let mut records: Vec<Option<RunRecord>> = vec![None; clusters.len()];
    let mut to_run: Vec<(usize, &SweepUnit, &Network)> = Vec::new();
    for (position, cluster) in clusters.iter().enumerate() {
        let representative = pending[cluster.representative].1;
        if let Some(cache) = &cache {
            if let Some(payload) = cache.load(&cluster.fingerprint) {
                stats.cache_hits += 1;
                records[position] = Some(payload.record_for(representative));
                continue;
            }
            stats.cache_misses += 1;
        }
        to_run.push((
            position,
            representative,
            table.network(cluster.representative),
        ));
    }

    // Execution pass: representatives of unresolved clusters only.
    stats.representatives_run = to_run.len();
    stats.members_by_reference = pending.len() - to_run.len();
    for (position, record) in execute_tagged(spec, &to_run, jobs) {
        if let Some(cache) = &cache {
            cache
                .store(
                    &clusters[position].fingerprint,
                    &CachePayload::from_record(&record),
                )
                .map_err(SweepError::Io)?;
        }
        records[position] = Some(record);
    }

    // Emission pass: every member's line from its cluster's record.
    let mut lines = Vec::with_capacity(pending.len());
    for (cluster, record) in clusters.iter().zip(records) {
        let record = record.expect("every cluster resolved to a record");
        for &member in &cluster.members {
            let (tag, unit) = pending[member];
            lines.push((tag, record.rebind(unit).to_jsonl_line()));
        }
    }
    Ok((lines, stats))
}

/// The fully optioned shard runner: [`run_shard_to_file_with_jobs`] plus the
/// dedup/cache pipeline of [`crate::dedup`]. With `opts.dedup`, the shard's
/// pending units (checkpoint reuse happens first and composes as usual) are
/// clustered by canonical fingerprint and only representatives execute; the
/// written file is byte-identical to the honest path either way.
///
/// # Errors
///
/// Returns I/O errors from the file system (including the cache directory)
/// and [`SweepError::Topology`] for degenerate topology parameters.
///
/// # Panics
///
/// Propagates panics from worker threads and the [`RunRecord::rebind`]
/// cluster-key assertions.
pub fn run_shard_to_file_with_opts(
    spec: &SweepSpec,
    manifest: &Manifest,
    shards: usize,
    partition: Partition,
    shard: usize,
    path: &Path,
    opts: &SweepOptions,
) -> Result<ShardReport, SweepError> {
    let units = manifest.shard_units(shards, partition, shard);
    let indices: Vec<usize> = units.iter().map(|u| u.index).collect();
    let checkpoint = if opts.resume {
        match fs::read_to_string(path) {
            Ok(contents) => checkpoint_lines(spec, &contents, &indices),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => HashMap::new(),
            Err(e) => return Err(SweepError::Io(e)),
        }
    } else {
        HashMap::new()
    };

    let mut outcome = ShardOutcome {
        executed: 0,
        reused: 0,
    };
    // Slot-addressed assembly: `slots[k]` is the line of the shard's k-th unit
    // in shard-manifest order, however (and on whatever thread) it was produced.
    let mut slots: Vec<Option<String>> = Vec::with_capacity(units.len());
    let mut pending: Vec<(usize, &SweepUnit)> = Vec::new();
    for unit in &units {
        match checkpoint.get(&unit.index) {
            Some(line) => {
                outcome.reused += 1;
                slots.push(Some(line.clone()));
            }
            None => {
                outcome.executed += 1;
                pending.push((slots.len(), unit));
                slots.push(None);
            }
        }
    }

    let stats = if opts.dedup {
        let (lines, stats) =
            execute_tagged_dedup(spec, &pending, opts.jobs, opts.cache_dir.as_deref())?;
        for (slot, line) in lines {
            slots[slot] = Some(line);
        }
        Some(stats)
    } else {
        for (slot, line) in honest_lines(spec, &pending, opts.jobs)? {
            slots[slot] = Some(line);
        }
        None
    };
    let lines: Vec<String> = slots
        .into_iter()
        .map(|slot| slot.expect("every shard unit produced a line"))
        .collect();

    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(SweepError::Io)?;
    }
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut file = fs::File::create(&tmp).map_err(SweepError::Io)?;
        writeln!(file, "{}", spec_header(spec)).map_err(SweepError::Io)?;
        for line in &lines {
            writeln!(file, "{line}").map_err(SweepError::Io)?;
        }
        file.sync_all().map_err(SweepError::Io)?;
    }
    fs::rename(&tmp, path).map_err(SweepError::Io)?;
    Ok(ShardReport { outcome, stats })
}

/// The in-memory dedup counterpart of [`shard_lines`]: executes shard `shard`
/// of `shards` through the dedup/cache pipeline and returns its `(index,
/// line)` pairs (in manifest order) together with the batch's [`DedupStats`].
/// The lines are byte-identical to [`shard_lines`] — this is the helper the
/// differential tests drive.
///
/// # Errors
///
/// Propagates execution, cache-I/O and clustering failures.
pub fn dedup_shard_lines(
    spec: &SweepSpec,
    manifest: &Manifest,
    shards: usize,
    partition: Partition,
    shard: usize,
    cache_dir: Option<&Path>,
) -> Result<(ShardLines, DedupStats), SweepError> {
    let units = manifest.shard_units(shards, partition, shard);
    let pending: Vec<(usize, &SweepUnit)> = units.iter().map(|&u| (u.index, u)).collect();
    let (mut lines, stats) = execute_tagged_dedup(spec, &pending, 1, cache_dir)?;
    lines.sort_unstable_by_key(|&(index, _)| index);
    Ok((lines, stats))
}

/// Merges shard line sets back into the canonical manifest order.
///
/// # Errors
///
/// Returns [`SweepError::Merge`] if any unit index is missing, duplicated or
/// out of range for a manifest of `total_units`.
pub fn merge_lines(
    total_units: usize,
    shards: impl IntoIterator<Item = ShardLines>,
) -> Result<String, SweepError> {
    let mut slots: Vec<Option<String>> = vec![None; total_units];
    for shard in shards {
        for (index, line) in shard {
            let slot = slots.get_mut(index).ok_or_else(|| {
                SweepError::Merge(format!(
                    "unit index {index} out of range for manifest of {total_units}"
                ))
            })?;
            if slot.is_some() {
                return Err(SweepError::Merge(format!(
                    "unit index {index} produced by more than one shard"
                )));
            }
            *slot = Some(line);
        }
    }
    let mut out = String::new();
    for (index, slot) in slots.into_iter().enumerate() {
        let line = slot.ok_or_else(|| {
            SweepError::Merge(format!("unit index {index} missing from every shard"))
        })?;
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}

/// Reads shard files and merges them to `out` in canonical order.
///
/// Comment lines (`#…`, in particular the [`spec_header`]) are skipped — the
/// merged output is pure records. Every other line of every shard file must be
/// a complete canonical record (a merge is only attempted after all shards
/// report success; torn files are a resume-time concern, not a merge-time
/// one).
///
/// # Errors
///
/// Returns I/O errors, invalid-record errors and the coverage errors of
/// [`merge_lines`].
pub fn merge_shard_files(
    total_units: usize,
    shard_paths: &[std::path::PathBuf],
    out: &Path,
) -> Result<usize, SweepError> {
    let mut shards = Vec::with_capacity(shard_paths.len());
    for path in shard_paths {
        let contents = fs::read_to_string(path).map_err(SweepError::Io)?;
        let mut lines = Vec::new();
        for line in contents.lines() {
            if line.starts_with('#') {
                continue;
            }
            let record = RunRecord::parse_line(line).ok_or_else(|| {
                SweepError::Merge(format!(
                    "{}: invalid record line (shard incomplete?): {line:?}",
                    path.display()
                ))
            })?;
            lines.push((record.index, line.to_owned()));
        }
        shards.push(lines);
    }
    let merged = merge_lines(total_units, shards)?;
    if let Some(parent) = out.parent() {
        fs::create_dir_all(parent).map_err(SweepError::Io)?;
    }
    // Same atomic publication as shard files: a parent killed mid-merge must
    // leave no torn merged.jsonl for a later --check to misdiagnose.
    let tmp = out.with_extension("jsonl.tmp");
    fs::write(&tmp, &merged).map_err(SweepError::Io)?;
    fs::rename(&tmp, out).map_err(SweepError::Io)?;
    Ok(total_units)
}

/// Executes a whole sweep in the current process — every shard sequentially —
/// and returns the merged JSONL. The `shards = 1` case is the single-process
/// baseline the property tests compare against.
///
/// # Errors
///
/// Propagates execution and merge errors.
pub fn run_sweep_in_process(
    spec: &SweepSpec,
    shards: usize,
    partition: Partition,
) -> Result<String, SweepError> {
    let manifest = Manifest::from_spec(spec);
    let shard_sets: Result<Vec<ShardLines>, SweepError> = (0..shards)
        .map(|shard| shard_lines(spec, &manifest, shards, partition, shard))
        .collect();
    merge_lines(manifest.len(), shard_sets?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ProtocolSpec, TopologySpec};

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            protocols: vec![ProtocolSpec::Mapping],
            topologies: vec![TopologySpec::Path { n: 2 }, TopologySpec::ChainGn { n: 3 }],
            seeds: vec![0],
            random_schedulers: 1,
            max_deliveries: 100_000,
            scenarios: vec![crate::ScenarioSpec::Pristine],
        }
    }

    #[test]
    fn merge_restores_manifest_order() {
        let merged = merge_lines(
            3,
            vec![
                vec![(2, "c".to_owned()), (0, "a".to_owned())],
                vec![(1, "b".to_owned())],
            ],
        )
        .unwrap();
        assert_eq!(merged, "a\nb\nc\n");
    }

    #[test]
    fn merge_rejects_missing_duplicate_and_out_of_range() {
        let missing = merge_lines(2, vec![vec![(0, "a".to_owned())]]).unwrap_err();
        assert!(missing.to_string().contains("missing"), "{missing}");
        let dup = merge_lines(
            2,
            vec![vec![(0, "a".to_owned())], vec![(0, "a".to_owned())]],
        )
        .unwrap_err();
        assert!(dup.to_string().contains("more than one"), "{dup}");
        let range = merge_lines(1, vec![vec![(7, "x".to_owned())]]).unwrap_err();
        assert!(range.to_string().contains("out of range"), "{range}");
    }

    #[test]
    fn checkpoint_keeps_only_complete_expected_lines() {
        let spec = tiny_spec();
        let manifest = Manifest::from_spec(&spec);
        let lines = shard_lines(&spec, &manifest, 1, Partition::RoundRobin, 0).unwrap();
        let mut contents = spec_header(&spec);
        contents.push('\n');
        for (_, line) in &lines {
            contents.push_str(line);
            contents.push('\n');
        }
        let all: Vec<usize> = (0..manifest.len()).collect();
        assert_eq!(
            checkpoint_lines(&spec, &contents, &all).len(),
            manifest.len()
        );
        // A torn tail is dropped; foreign indices are filtered.
        let torn = &contents[..contents.len() - 10];
        let kept = checkpoint_lines(&spec, torn, &all);
        assert_eq!(kept.len(), manifest.len() - 1);
        let only_first = checkpoint_lines(&spec, &contents, &[0]);
        assert_eq!(only_first.len(), 1);
        assert!(only_first.contains_key(&0));
    }

    #[test]
    fn checkpoint_requires_a_matching_spec_header() {
        let spec = tiny_spec();
        let manifest = Manifest::from_spec(&spec);
        let lines = shard_lines(&spec, &manifest, 1, Partition::RoundRobin, 0).unwrap();
        let body: String = lines.iter().map(|(_, line)| format!("{line}\n")).collect();
        let all: Vec<usize> = (0..manifest.len()).collect();
        // No header at all (e.g. a pre-header layout): nothing is reused.
        assert!(checkpoint_lines(&spec, &body, &all).is_empty());
        // A header from an *edited* spec — even one whose manifest identities
        // are unchanged, like a different delivery budget: nothing is reused.
        let mut edited = spec.clone();
        edited.max_deliveries += 1;
        let stale = format!("{}\n{body}", spec_header(&edited));
        assert!(checkpoint_lines(&spec, &stale, &all).is_empty());
        // The matching header accepts the very same body.
        let fresh = format!("{}\n{body}", spec_header(&spec));
        assert_eq!(checkpoint_lines(&spec, &fresh, &all).len(), manifest.len());
    }
}
