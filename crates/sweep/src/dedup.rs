//! Unit clustering by canonical fingerprint: run one representative per
//! equivalence class.
//!
//! A sweep unit's record is a pure function of **(protocol, canonical
//! topology form, battery position, delivery budget, scenario)**, plus the
//! battery seed where the cell reads it ([`SweepUnit::reads_seed`]: a seeded
//! random position or a fault scenario). Every unit runs on the network
//! rebuilt from its topology's canonical form (see [`crate::exec`]), so even
//! two *differently labeled* isomorphic topologies drive bit-for-bit the same
//! simulation, and a deterministic delivery order from a pristine or
//! corrupted start draws no random bits, so its cell is the same experiment
//! under every battery seed. Clustering groups the units of a manifest (or
//! of one shard's pending set) by that tuple; only the cluster's
//! manifest-first unit — the **representative** — is executed, and every
//! other member's record is emitted by rewriting the representative's record
//! with the member's own key fields ([`RunRecord::rebind`]).
//!
//! Clustering reads the canonical forms from the batch's topology table,
//! which builds and canonicalizes each distinct topology once and interns
//! its form to a dense id; a shard builds that table once and executes its
//! representatives on the same table's networks.
//!
//! Two layers of keying, with different stakes:
//!
//! * **Correctness** rests on exact equality of [`CanonicalForm`]s (interned
//!   to form ids, plus the scalar key fields) — no hashing involved, so a
//!   weak canonical labeling can only *miss* dedup opportunities, never merge
//!   distinct experiments.
//! * The 128-bit [`UnitCluster::fingerprint`] (two FNV-1a passes with
//!   distinct prefixes over the canonical unit string) merely **names** the
//!   unit's content-addressed cache entry
//!   ([`ResultCache`](crate::cache::ResultCache)).

use std::collections::HashMap;

use anet_graph::canon::CanonicalForm;
use anet_num::Fnv1a;

use crate::exec::TopologyTable;
use crate::manifest::{Manifest, SweepUnit};
use crate::record::RunRecord;
use crate::spec::SweepSpec;
use crate::SweepError;

/// One equivalence class of sweep units.
///
/// `representative` and `members` are positions into the slice that was
/// clustered (for [`Manifest::cluster_units`] that slice is the whole
/// manifest, so positions are manifest indices). `members` is ascending and
/// always starts with `representative` — the slice-first unit of the class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitCluster {
    /// 128-bit content-address of the class (32 hex chars): the cache key.
    pub fingerprint: String,
    /// Position of the unit that actually runs.
    pub representative: usize,
    /// Positions of every unit of the class, ascending (first is the
    /// representative).
    pub members: Vec<usize>,
}

/// The 128-bit unit fingerprint: everything the record bytes depend on,
/// except the unit's own name fields (manifest index and topology name, and
/// the battery seed of a unit that does not read it).
///
/// Two FNV-1a passes over the same canonical string with distinct prefixes;
/// the string is versioned (`unit-v2`, since the scenario dimension joined
/// the execution contract) so a change to the contract invalidates cache
/// entries instead of aliasing them. A seed-free unit renders `seed=-`, so
/// its seed twins share one entry, and a seeded unit's string is unchanged.
pub fn unit_fingerprint(spec: &SweepSpec, unit: &SweepUnit, form: &CanonicalForm) -> String {
    fingerprint_encoded(spec, unit, &form.encode())
}

/// [`unit_fingerprint`] from the form's [`CanonicalForm::encode`] text, so a
/// batch encodes each form once however many clusters share it. The hashes
/// absorb prefix, unit fields and encoding in turn, which is the same byte
/// stream as hashing their concatenation.
fn fingerprint_encoded(spec: &SweepSpec, unit: &SweepUnit, encoding: &str) -> String {
    let fields = format!(
        "unit-v2 protocol={} seed={} k={} sched={} random={} budget={} scenario={} ",
        unit.protocol.name(),
        unit.seed_field(),
        unit.battery_index,
        unit.scheduler,
        spec.random_schedulers,
        spec.max_deliveries,
        unit.scenario.name(),
    );
    let pass = |prefix: &str| {
        let mut hash = Fnv1a::new();
        hash.write(prefix.as_bytes());
        hash.write(fields.as_bytes());
        hash.write(encoding.as_bytes());
        hash.finish()
    };
    format!("{:016x}{:016x}", pass("fp-hi|"), pass("fp-lo|"))
}

/// Groups `units` into equivalence classes by **(protocol, canonical
/// topology form, battery position, scenario)**, plus the battery seed of a
/// unit that reads it ([`SweepUnit::reads_seed`]) — the full set of inputs
/// the executor's record depends on (scheduler identity is a function of the
/// battery position, a random scheduler is seeded from the battery seed, the
/// per-unit fault plan is a pure function of scenario + seed + battery
/// position, and the spec-level battery shape and delivery budget are shared
/// by every unit). Seed twins of a deterministic pristine or corrupted-start
/// cell therefore share a class.
///
/// Canonical forms are computed once per distinct topology name and compared
/// exactly. Clusters come back ordered by representative position.
///
/// # Errors
///
/// Returns [`SweepError::Topology`] if a unit's topology parameters are
/// rejected by its generator.
pub fn cluster_units(
    spec: &SweepSpec,
    units: &[&SweepUnit],
) -> Result<Vec<UnitCluster>, SweepError> {
    let table = TopologyTable::new(units.iter().copied())?;
    Ok(cluster_on(spec, units, &table))
}

/// [`cluster_units`] over a table already built from `units` (same order).
pub(crate) fn cluster_on(
    spec: &SweepSpec,
    units: &[&SweepUnit],
    table: &TopologyTable,
) -> Vec<UnitCluster> {
    type ClusterKey = (String, Option<u64>, usize, String, usize);
    let mut classes: HashMap<ClusterKey, Vec<usize>> = HashMap::new();
    for (position, unit) in units.iter().enumerate() {
        classes
            .entry((
                unit.protocol.name(),
                unit.reads_seed().then_some(unit.seed),
                unit.battery_index,
                unit.scenario.name(),
                table.form_id(position),
            ))
            .or_default()
            .push(position);
    }
    let mut clusters: Vec<UnitCluster> = classes
        .into_values()
        .map(|members| UnitCluster {
            fingerprint: fingerprint_encoded(spec, units[members[0]], table.encoding(members[0])),
            representative: members[0],
            members,
        })
        .collect();
    clusters.sort_unstable_by_key(|c| c.representative);
    clusters
}

impl Manifest {
    /// Clusters the whole manifest: positions in the returned
    /// [`UnitCluster`]s are manifest indices, and each representative is the
    /// manifest-first unit of its class.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Topology`] for degenerate topology parameters.
    pub fn cluster_units(&self, spec: &SweepSpec) -> Result<Vec<UnitCluster>, SweepError> {
        let refs: Vec<&SweepUnit> = self.units.iter().collect();
        cluster_units(spec, &refs)
    }
}

impl RunRecord {
    /// Rewrites this record as the record of `unit`, a member of the same
    /// equivalence class as the unit that produced it: only the manifest
    /// index and the topology name change, and the battery seed where the
    /// unit does not read it ([`SweepUnit::reads_seed`]).
    ///
    /// # Panics
    ///
    /// Panics if `unit` disagrees on a cluster-key field (protocol, battery
    /// position, scheduler, scenario, and the seed of a unit that reads it)
    /// — rebinding across classes would fabricate results.
    pub fn rebind(&self, unit: &SweepUnit) -> RunRecord {
        assert_eq!(
            self.protocol,
            unit.protocol.name(),
            "rebind across protocols"
        );
        if unit.reads_seed() {
            assert_eq!(self.seed, unit.seed, "rebind across seeds");
        }
        assert_eq!(
            self.battery_index, unit.battery_index,
            "rebind across battery positions"
        );
        assert_eq!(self.scheduler, unit.scheduler, "rebind across schedulers");
        assert_eq!(
            self.scenario,
            unit.scenario.name(),
            "rebind across scenarios"
        );
        RunRecord {
            index: unit.index,
            topology: unit.topology.name(),
            seed: unit.seed,
            ..self.clone()
        }
    }
}

/// Counters describing what deduplication did to one shard run (or, summed,
/// to a whole sweep).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Units that needed records this invocation (checkpointed units are not
    /// counted — they were not deduplicated, they were already done).
    pub units: usize,
    /// Equivalence classes among those units.
    pub clusters: usize,
    /// Representatives actually executed (cache hits subtract from this).
    pub representatives_run: usize,
    /// Records emitted by rewriting a representative's record.
    pub members_by_reference: usize,
    /// Clusters whose record came from the content-addressed cache.
    pub cache_hits: usize,
    /// Clusters the cache was consulted for and missed (0 when no cache).
    pub cache_misses: usize,
}

impl DedupStats {
    /// Accumulates another shard's counters.
    pub fn add(&mut self, other: &DedupStats) {
        self.units += other.units;
        self.clusters += other.clusters;
        self.representatives_run += other.representatives_run;
        self.members_by_reference += other.members_by_reference;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// The canonical JSON line (no trailing newline) — the shard stats
    /// sidecar and `stats.json` format.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"units\": {}, \"clusters\": {}, \"representatives_run\": {}, \"members_by_reference\": {}, \"cache_hits\": {}, \"cache_misses\": {}}}",
            self.units,
            self.clusters,
            self.representatives_run,
            self.members_by_reference,
            self.cache_hits,
            self.cache_misses,
        )
    }

    /// Parses a canonical stats line, rejecting anything that does not
    /// round-trip byte-identically (same gate as
    /// [`RunRecord::parse_line`](crate::RunRecord::parse_line)).
    pub fn parse_line(line: &str) -> Option<DedupStats> {
        let body = line.strip_prefix('{')?.strip_suffix('}')?;
        let mut fields = std::collections::HashMap::new();
        for field in body.split(", ") {
            let (key, value) = field.split_once(": ")?;
            fields.insert(key.strip_prefix('"')?.strip_suffix('"')?, value);
        }
        let int = |key: &str| -> Option<usize> { fields.get(key)?.parse().ok() };
        let stats = DedupStats {
            units: int("units")?,
            clusters: int("clusters")?,
            representatives_run: int("representatives_run")?,
            members_by_reference: int("members_by_reference")?,
            cache_hits: int("cache_hits")?,
            cache_misses: int("cache_misses")?,
        };
        (stats.to_json_line() == line).then_some(stats)
    }

    /// The human-readable one-liner the `sweep` CLI prints.
    pub fn summary(&self) -> String {
        format!(
            "dedup: {} units -> {} clusters, {} representatives run, {} members by reference, cache hits: {}, cache misses: {}",
            self.units,
            self.clusters,
            self.representatives_run,
            self.members_by_reference,
            self.cache_hits,
            self.cache_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ProtocolSpec, ScenarioSpec, TopologySpec};
    use anet_graph::canon::canonical_form;

    fn spec() -> SweepSpec {
        SweepSpec {
            protocols: vec![ProtocolSpec::Mapping, ProtocolSpec::Labeling],
            topologies: vec![
                TopologySpec::Path { n: 3 },
                TopologySpec::ChainGn { n: 3 },
                // An isomorphic pair under different family spellings: the
                // complete DAG on 2 internal vertices is the 2-internal path.
                TopologySpec::Path { n: 2 },
                TopologySpec::CompleteDag { internal: 2 },
            ],
            seeds: vec![0, 1],
            random_schedulers: 1,
            max_deliveries: 100_000,
            scenarios: vec![ScenarioSpec::Pristine],
        }
    }

    #[test]
    fn isomorphic_topologies_cluster_together() {
        let spec = spec();
        let manifest = Manifest::from_spec(&spec);
        let clusters = manifest.cluster_units(&spec).unwrap();
        // path(2) and complete_dag(2) merge; path(3) and chain-gn/3 stay
        // separate: 3 distinct forms x 2 protocols, each over the 4
        // seed-free deterministic positions and 2 seeds x 1 random position.
        let deterministic = anet_sim::scheduler::DETERMINISTIC_BATTERY_NAMES.len();
        assert_eq!(clusters.len(), 3 * 2 * (deterministic + 2));
        let covered: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(covered, manifest.len());
        // Every cluster: ascending members, representative first, one class
        // never mixes protocols/batteries, nor seeds where the cell reads one.
        for cluster in &clusters {
            assert_eq!(cluster.members[0], cluster.representative);
            assert!(cluster.members.windows(2).all(|w| w[0] < w[1]));
            let rep = &manifest.units[cluster.representative];
            for &m in &cluster.members {
                let u = &manifest.units[m];
                assert_eq!(u.protocol, rep.protocol);
                assert_eq!(u.battery_index, rep.battery_index);
                if u.reads_seed() {
                    assert_eq!(u.seed, rep.seed);
                }
            }
        }
        // The class of the first path(2) unit holds complete_dag(2) units too.
        let path2 = TopologySpec::Path { n: 2 }.name();
        let first = manifest
            .units
            .iter()
            .position(|u| u.topology.name() == path2)
            .unwrap();
        let merged = clusters
            .iter()
            .find(|c| c.members.contains(&first))
            .unwrap();
        let names: Vec<String> = merged
            .members
            .iter()
            .map(|&m| manifest.units[m].topology.name())
            .collect();
        assert!(names.contains(&TopologySpec::CompleteDag { internal: 2 }.name()));
    }

    #[test]
    fn fingerprints_separate_key_fields_and_specs() {
        let spec = spec();
        let manifest = Manifest::from_spec(&spec);
        let clusters = manifest.cluster_units(&spec).unwrap();
        let mut fingerprints: Vec<&str> = clusters.iter().map(|c| c.fingerprint.as_str()).collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), clusters.len(), "fingerprint collision");
        for c in &clusters {
            assert_eq!(c.fingerprint.len(), 32);
            assert!(c.fingerprint.chars().all(|ch| ch.is_ascii_hexdigit()));
        }
        // The same unit under a different delivery budget is a different
        // experiment — and a different cache entry.
        let mut other = spec.clone();
        other.max_deliveries += 1;
        let again = Manifest::from_spec(&other).cluster_units(&other).unwrap();
        assert_ne!(clusters[0].fingerprint, again[0].fingerprint);
    }

    #[test]
    fn scenarios_are_part_of_the_cluster_key_and_dedup_stays_honest() {
        let mut spec = spec();
        spec.protocols = vec![ProtocolSpec::Labeling];
        spec.seeds = vec![0];
        spec.scenarios = vec![
            ScenarioSpec::Pristine,
            ScenarioSpec::Faulty {
                drop_pct: 25,
                dup_pct: 10,
                reorder: 2,
                seed: 3,
                retry: 0,
                crashes: vec![],
            },
        ];
        let manifest = Manifest::from_spec(&spec);
        let clusters = manifest.cluster_units(&spec).unwrap();
        // Same class count as the pristine-only spec, doubled: scenarios
        // never merge, but isomorphic topologies still do within a scenario.
        let battery = anet_sim::runner::battery_size(spec.random_schedulers);
        assert_eq!(clusters.len(), 3 * battery * 2);
        for cluster in &clusters {
            let rep = &manifest.units[cluster.representative];
            for &m in &cluster.members {
                assert_eq!(manifest.units[m].scenario, rep.scenario);
            }
        }
        // A faulty cluster with an isomorphic member: the rebound record is
        // the member's honest record (same mixed fault seed, same faults).
        let merged = clusters
            .iter()
            .find(|c| {
                c.members.len() == 2 && !manifest.units[c.representative].scenario.is_pristine()
            })
            .expect("path(2) and complete-dag(2) merge under the fault scenario");
        let record = crate::execute_unit(&spec, &manifest.units[merged.representative]).unwrap();
        let member = &manifest.units[merged.members[1]];
        assert_eq!(
            record.rebind(member),
            crate::execute_unit(&spec, member).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "rebind across scenarios")]
    fn rebind_across_scenarios_panics() {
        let mut spec = spec();
        spec.scenarios = vec![
            ScenarioSpec::Pristine,
            ScenarioSpec::Corrupt(anet_core::StateCorruption::LostPartition),
        ];
        let manifest = Manifest::from_spec(&spec);
        // Units 0 and 1 differ only in scenario (it is the innermost loop).
        let record = crate::execute_unit(&spec, &manifest.units[0]).unwrap();
        let _ = record.rebind(&manifest.units[1]);
    }

    #[test]
    fn rebind_rewrites_only_the_name_fields() {
        let spec = spec();
        let manifest = Manifest::from_spec(&spec);
        let clusters = manifest.cluster_units(&spec).unwrap();
        let unit_of = |topology: TopologySpec, seed: u64| {
            manifest
                .units
                .iter()
                .find(|u| u.topology == topology && u.seed == seed)
                .unwrap()
        };
        // The isomorphic pair: the first path(2) unit and its complete_dag(2)
        // counterpart, same seed and battery position.
        let rep_unit = unit_of(TopologySpec::Path { n: 2 }, 0);
        let member_unit = unit_of(TopologySpec::CompleteDag { internal: 2 }, 0);
        let class = clusters
            .iter()
            .find(|c| c.members.contains(&rep_unit.index))
            .unwrap();
        assert_eq!(class.representative, rep_unit.index);
        assert!(class.members.contains(&member_unit.index));
        let record = crate::execute_unit(&spec, rep_unit).unwrap();
        let rebound = record.rebind(member_unit);
        assert_eq!(rebound.index, member_unit.index);
        assert_eq!(rebound.topology, member_unit.topology.name());
        assert_eq!(
            RunRecord {
                index: record.index,
                topology: record.topology.clone(),
                ..rebound.clone()
            },
            record
        );
        // And the rebound record IS the member's honest record.
        assert_eq!(rebound, crate::execute_unit(&spec, member_unit).unwrap());

        // A seed-free twin (fifo, pristine) also takes the member's seed.
        let twin = unit_of(TopologySpec::Path { n: 2 }, 1);
        assert!(!twin.reads_seed() && class.members.contains(&twin.index));
        let rebound = record.rebind(twin);
        assert_eq!(
            (rebound.index, rebound.seed),
            (twin.index, twin.seed),
            "a seed-free twin rewrites its seed"
        );
        assert_eq!(
            RunRecord {
                index: record.index,
                seed: record.seed,
                ..rebound.clone()
            },
            record
        );
        assert_eq!(rebound, crate::execute_unit(&spec, twin).unwrap());
    }

    #[test]
    #[should_panic(expected = "rebind across seeds")]
    fn rebind_across_classes_panics() {
        let spec = spec();
        let manifest = Manifest::from_spec(&spec);
        let battery = anet_sim::runner::battery_size(spec.random_schedulers);
        // Same protocol/topology and random battery position, different seed.
        let (unit, other) = (
            &manifest.units[battery - 1],
            &manifest.units[2 * battery - 1],
        );
        assert!(unit.reads_seed());
        assert_eq!(other.battery_index, unit.battery_index);
        assert_ne!(other.seed, unit.seed);
        let record = crate::execute_unit(&spec, unit).unwrap();
        let _ = record.rebind(other);
    }

    /// Two fixed units of one cell, the pristine run and its faulty twin.
    fn golden_spec() -> SweepSpec {
        SweepSpec {
            protocols: vec![ProtocolSpec::GeneralBroadcast { payload_bits: 16 }],
            topologies: vec![TopologySpec::CycleWithTail { k: 5 }],
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
                    retry: 4,
                    crashes: vec![(1, 0, 6)],
                },
            ],
        }
    }

    #[test]
    fn golden_fingerprints_keep_naming_existing_cache_entries() {
        // The seeded strings name `--cache-dir` entries already on disk:
        // however the `unit-v2` text is assembled, their bytes may not
        // change. The seed-free pristine terminal-last cell has its own
        // `seed=-` name, shared by its twins under every battery seed.
        let spec = golden_spec();
        let manifest = Manifest::from_spec(&spec);
        let (pristine, faulty) = (&manifest.units[4], &manifest.units[5]);
        let random = &manifest.units[8];
        assert_eq!(pristine.battery_index, 2);
        assert!(pristine.scenario.is_pristine() && !faulty.scenario.is_pristine());
        assert!(random.scenario.is_pristine() && random.scheduler == "random#0");
        let form = canonical_form(&pristine.topology.build().unwrap()).form;
        assert_eq!(
            unit_fingerprint(&spec, pristine, &form),
            "3c49ae9ee8ea13f591a9ef3d2ac4fe53"
        );
        assert_eq!(
            unit_fingerprint(&spec, faulty, &form),
            "881a9b9bba0d53d38a985f76615f7109"
        );
        assert_eq!(
            unit_fingerprint(&spec, random, &form),
            "b7895449e349b13c9d63d0273b5beb9a"
        );
        let twin = SweepUnit {
            seed: 4,
            ..pristine.clone()
        };
        assert_eq!(
            unit_fingerprint(&spec, &twin, &form),
            unit_fingerprint(&spec, pristine, &form)
        );
    }

    #[test]
    fn cluster_fingerprints_are_the_per_unit_fingerprints() {
        let mut spec = spec();
        spec.scenarios = golden_spec().scenarios;
        let manifest = Manifest::from_spec(&spec);
        for cluster in manifest.cluster_units(&spec).unwrap() {
            let rep = &manifest.units[cluster.representative];
            let form = canonical_form(&rep.topology.build().unwrap()).form;
            assert_eq!(cluster.fingerprint, unit_fingerprint(&spec, rep, &form));
        }
    }

    #[test]
    fn stats_line_round_trips_and_rejects_noncanonical() {
        let stats = DedupStats {
            units: 120,
            clusters: 30,
            representatives_run: 18,
            members_by_reference: 102,
            cache_hits: 12,
            cache_misses: 18,
        };
        let line = stats.to_json_line();
        assert_eq!(DedupStats::parse_line(&line), Some(stats));
        assert_eq!(DedupStats::parse_line(&line.replace(", ", ",")), None);
        assert_eq!(DedupStats::parse_line(""), None);
        for cut in 1..line.len() {
            assert_eq!(DedupStats::parse_line(&line[..cut]), None);
        }
        let mut sum = DedupStats::default();
        sum.add(&stats);
        sum.add(&stats);
        assert_eq!(sum.units, 240);
        assert_eq!(sum.cache_hits, 24);
        assert!(stats.summary().contains("120 units -> 30 clusters"));
        assert!(stats.summary().contains("cache hits: 12"));
    }
}
