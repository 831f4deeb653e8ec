//! # anet-sweep — process-sharded scenario sweeps
//!
//! The paper's results are statements over whole *families* of executions:
//! every delivery order, every topology shape, every seed. This crate is the
//! distribution layer that serves that scenario space beyond one process: it
//! turns a declarative [`SweepSpec`] into a deterministic work manifest,
//! partitions the manifest into shards, executes each shard in its own OS
//! process, and merges the shard outputs back into the exact ordering a
//! single-process run produces — byte for byte.
//!
//! # Lifecycle
//!
//! 1. **Spec** ([`spec`]) — protocols × topology instances × battery seeds ×
//!    scheduler battery × execution scenarios, with a canonical text form that
//!    round-trips ([`SweepSpec::parse`] / [`SweepSpec::to_spec_string`]).
//!    Random topologies carry their own generator seeds, so every unit is
//!    self-contained. Scenarios ([`ScenarioSpec`]) add the adversarial axis:
//!    `faults drop=… dup=… reorder=… seed=…` wraps every battery scheduler in
//!    an [`anet_sim::faults::FaultyScheduler`], and `corrupt labels <seed>` /
//!    `corrupt partition` / `corrupt stale-terminal` start runs from perturbed
//!    protocol state ([`anet_core::StateCorruption`]). The pristine scenario is
//!    always present and always first.
//! 2. **Manifest** ([`manifest`]) — [`Manifest::from_spec`] expands the spec
//!    into the flat unit list in the canonical order *protocol → topology →
//!    seed → battery position → scenario* (for one protocol, one seed and
//!    pristine-only scenarios: topology by topology, each in the battery order
//!    of [`anet_sim::runner::run_under_battery`]).
//!    [`Manifest::shard_assignment`] assigns each unit to one of `n` shards
//!    in one pass, dealing out classes rather than units: units with the same
//!    [`SweepUnit::partition_key`] (the unit key with the battery seed
//!    written `-` where the unit does not read it) share a shard, round-robin
//!    over the classes in manifest order or by a mixed hash of the class key
//!    ([`Partition`]).
//! 3. **Execute** ([`exec`]) — before any `--jobs` fan-out, a shard builds a
//!    topology table of its pending units: each distinct topology is built
//!    and canonicalized once ([`anet_graph::canon`]), its form interned to a
//!    dense id and rebuilt into the canonical network its units run on.
//!    Clustering and execution share that table. Each unit runs one cell of
//!    the standard battery (wrapped in the unit's fault plan or corrupted
//!    start when the scenario is adversarial) in one
//!    [`anet_sim::run_observed`] call, applies the protocol's success *and
//!    recovery* checks, and emits a canonical JSONL [`RunRecord`] (outcome —
//!    including `starved` for fault-killed quiescence — metrics, wire-bit
//!    totals, adversary counters and the stable trace digest, which an
//!    [`anet_sim::TraceDigest`] observer computes as the run sends, without
//!    keeping the trace). [`execute_unit`] runs one unit the
//!    same way on a network it builds and canonicalizes itself: the per-unit
//!    oracle the shard paths are tested against. Records are pure functions
//!    of their units: any process, any time, same bytes.
//! 4. **Checkpoint & resume** ([`merge`]) — a shard's JSONL file is its
//!    checkpoint: a spec-fingerprint header line followed by record lines.
//!    [`run_shard_to_file_with_opts`] with `resume` requires the header to
//!    match the current spec (an edited spec discards the whole checkpoint —
//!    record indices only mean something in their own manifest) and
//!    revalidates each line ([`RunRecord::parse_line`] accepts only
//!    byte-exact canonical lines, so a killed shard's torn tail is
//!    discarded), re-executing only missing units.
//! 5. **Merge** ([`merge`]) — [`merge_lines`] / [`merge_shard_files`] check
//!    that the shards cover every unit exactly once and emit the lines sorted
//!    by unit index. Sharded output is therefore **byte-identical** to the
//!    `shards = 1` run — the correctness contract pinned by the
//!    merge-equivalence property tests and the CI `sweep_smoke` step.
//!
//! # Deduplication: fingerprint → cluster → cache
//!
//! Most units of a large sweep are redundant: a record is a pure function of
//! **(protocol, canonical topology form, battery position, budget,
//! scenario)**, plus the battery seed where the cell reads it (a seeded
//! random position or a fault plan, [`SweepUnit::reads_seed`]), generated
//! topologies are frequently isomorphic across families, sizes and generator
//! seeds, and a deterministic order's cell repeats under every battery seed.
//! The dedup layer (on by default in the CLI) exploits this in three steps:
//!
//! * **Fingerprint** — every unit runs on the *canonically relabeled*
//!   network ([`anet_graph::canon`]) of its shard's topology table (or, in
//!   [`execute_unit`], on its own), so isomorphic topologies drive
//!   bit-for-bit identical simulations. [`unit_fingerprint`] condenses the
//!   record's full input tuple into a 128-bit content address; a shard
//!   encodes each canonical form once for all the clusters that share it.
//! * **Cluster** — [`Manifest::cluster_units`] / [`cluster_units`] group
//!   units whose key tuples are **exactly equal** (canonical forms compared
//!   structurally — the hash only names cache entries, so a weak labeling
//!   can cost coverage but never correctness). Each cluster's manifest-first
//!   unit is the representative; only representatives execute, and member
//!   records are emitted by rewriting the representative's record with the
//!   member's own name fields ([`RunRecord::rebind`], which asserts the
//!   cluster-key fields agree).
//! * **Cache** — a [`ResultCache`] directory (`--cache-dir`) stores each
//!   cluster's result payload under its fingerprint: atomic
//!   write-then-rename, byte-exact round-trip validation on load, and every
//!   failure mode (torn, stale, corrupt, mis-filed) degrades to a miss.
//!   Repeated units never re-run — across shards, across runs, across
//!   *specs*.
//!
//! Clustering runs per shard, so a class split over two shards would run in
//! each. Both partitions therefore keep every [`SweepUnit::partition_key`]
//! class in one shard: a seed-free cell runs once across all shards, and
//! the summed [`DedupStats`] of a sharded sweep equal the one-shard stats
//! whenever no two topology names are isomorphic. Isomorphic topologies with
//! different names may still land in different shards; the cache is what
//! shares their one entry.
//!
//! The **`--no-dedup` differential contract**: the honest path (every unit
//! executed individually) and the dedup path produce byte-identical merged
//! output — cold cache, warm cache, any shard count. `sweep --check` and the
//! run summary report the [`DedupStats`] (clusters, representatives run,
//! members by reference, cache hits/misses) so the speedup is observable,
//! and the `dedup_differential` tests plus the CI `dedup_smoke` step pin the
//! byte-identity.
//!
//! The `sweep` binary drives the process layer: the parent re-invokes its own
//! executable with `--run-shard i` per shard, waits, and merges. Within a
//! shard process, `--jobs N` fans the shard's units over `N` scoped worker
//! threads ([`run_shard_to_file_with_opts`]) so each shard saturates its host;
//! because every record is a pure function of its unit and workers fill
//! pre-assigned slots of the shard-manifest order, the output is byte-identical
//! for every job count. See `src/bin/sweep.rs` or `sweep --help`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dedup;
pub mod exec;
pub mod manifest;
pub mod merge;
pub mod record;
pub mod spec;

pub use cache::{CachePayload, ResultCache};
pub use dedup::{cluster_units, unit_fingerprint, DedupStats, UnitCluster};
pub use exec::execute_unit;
pub use manifest::{Manifest, Partition, SweepUnit};
pub use merge::{
    dedup_shard_lines, merge_lines, merge_shard_files, run_shard_to_file_with_opts,
    run_sweep_in_process, shard_lines, ShardOutcome, ShardReport, SweepOptions,
};
pub use record::RunRecord;
pub use spec::{ProtocolSpec, ScenarioSpec, SweepSpec, TopologySpec};

/// Errors raised by the sweep subsystem.
#[derive(Debug)]
pub enum SweepError {
    /// The spec text is malformed.
    Spec(String),
    /// A topology's parameters were rejected by its generator.
    Topology(anet_graph::NetworkError),
    /// Shard outputs do not cover the manifest exactly once.
    Merge(String),
    /// File system failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Spec(msg) => write!(f, "invalid sweep spec: {msg}"),
            SweepError::Topology(e) => write!(f, "topology construction failed: {e}"),
            SweepError::Merge(msg) => write!(f, "merge failed: {msg}"),
            SweepError::Io(e) => write!(f, "i/o failure: {e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Topology(e) => Some(e),
            SweepError::Io(e) => Some(e),
            _ => None,
        }
    }
}
