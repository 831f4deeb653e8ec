//! Deterministic work manifests and shard partitioning.
//!
//! A [`Manifest`] expands a [`SweepSpec`] into the flat, globally ordered list
//! of run units. The order is the canonical nested loop **protocol → topology →
//! seed → battery position → scenario**; for a pristine-only spec with one
//! protocol and one seed it is topology by topology, each in the battery
//! order of [`anet_sim::runner::run_under_battery`].
//!
//! Partitioning assigns every unit to exactly one of `n` shards, and it deals
//! out *classes*, not units: units that share a [`SweepUnit::partition_key`]
//! always share a shard. That key writes the battery seed as `-` for a unit
//! that does not read it ([`SweepUnit::reads_seed`]), so the seed twins of a
//! deterministic pristine or corrupted-start cell, which dedup runs once
//! ([`crate::dedup`]), are never split, and each seed-free cell runs once
//! across all shards as it does in one. [`Manifest::shard_assignment`]
//! computes every unit's shard in one pass, either round-robin over the
//! classes in manifest order or by a mixed FNV-1a hash of the class key
//! ([`Partition`]). The hash ignores positions, so hash-sharded assignments
//! survive manifest extension better than round-robin; both are deterministic
//! functions of the spec and shard count.

use std::collections::HashMap;

use anet_sim::runner::battery_size;
use anet_sim::scheduler::{battery_scheduler_name, DETERMINISTIC_BATTERY_NAMES};
use anet_sim::trace::Fnv1a;

use crate::spec::{splitmix64_finalizer, ProtocolSpec, ScenarioSpec, SweepSpec, TopologySpec};

/// One unit of work: a single (protocol, topology, seed, scheduler, scenario)
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepUnit {
    /// Position in the canonical manifest order (the merge key).
    pub index: usize,
    /// Protocol to run.
    pub protocol: ProtocolSpec,
    /// Topology to run on.
    pub topology: TopologySpec,
    /// Battery seed.
    pub seed: u64,
    /// Position within the standard battery.
    pub battery_index: usize,
    /// Display name of the scheduler at that position (`random` positions are
    /// disambiguated as `random#<i>`).
    pub scheduler: String,
    /// Execution scenario (pristine, fault plan, or corrupted start).
    pub scenario: ScenarioSpec,
}

impl SweepUnit {
    /// A stable identity string for the unit, independent of its manifest
    /// position: the name messages and tests use for it. Pristine units keep
    /// the historical four-field form, so adding scenarios to a spec never
    /// renames the runs it already had. Shards are dealt by
    /// [`partition_key`](Self::partition_key), not by this key.
    pub fn key(&self) -> String {
        self.key_with_seed(&self.seed.to_string())
    }

    /// [`key`](Self::key) with the battery seed written `-` exactly when the
    /// unit does not read it ([`reads_seed`](Self::reads_seed)), the rule the
    /// dedup fingerprint follows: the unit's class across battery seeds.
    /// Both partitions deal these classes to shards
    /// ([`Manifest::shard_assignment`]), so seed twins of a seed-free cell
    /// share a shard.
    pub fn partition_key(&self) -> String {
        self.key_with_seed(&self.seed_field())
    }

    /// The battery seed as the unit's class writes it: the seed, or `-` for a
    /// unit that does not read it.
    pub(crate) fn seed_field(&self) -> String {
        if self.reads_seed() {
            self.seed.to_string()
        } else {
            "-".to_owned()
        }
    }

    fn key_with_seed(&self, seed: &str) -> String {
        let mut key = format!(
            "{}|{}|{}|{}",
            self.protocol.name(),
            self.topology.name(),
            seed,
            self.battery_index
        );
        if !self.scenario.is_pristine() {
            key.push('|');
            key.push_str(&self.scenario.name());
        }
        key
    }

    /// Whether the unit's record depends on its battery seed: true exactly
    /// when its battery position is a seeded random scheduler (seeded
    /// `seed + i`, [`anet_sim::scheduler::standard_battery`]) or its scenario
    /// reads the seed ([`ScenarioSpec::reads_battery_seed`]). The
    /// deterministic orders draw no random bits, so a unit at a
    /// deterministic position whose scenario reads no seed is the same
    /// experiment under every battery seed.
    pub fn reads_seed(&self) -> bool {
        self.battery_index >= DETERMINISTIC_BATTERY_NAMES.len()
            || self.scenario.reads_battery_seed()
    }
}

/// The expanded, globally ordered work list of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// All units in canonical order (`units[i].index == i`).
    pub units: Vec<SweepUnit>,
}

impl Manifest {
    /// Expands `spec` into its canonical unit list.
    pub fn from_spec(spec: &SweepSpec) -> Manifest {
        let battery = battery_size(spec.random_schedulers);
        let names: Vec<String> = (0..battery)
            .map(|k| battery_scheduler_name(k, spec.random_schedulers))
            .collect();
        let mut units = Vec::with_capacity(
            spec.protocols.len()
                * spec.topologies.len()
                * spec.seeds.len()
                * battery
                * spec.scenarios.len(),
        );
        for protocol in &spec.protocols {
            for topology in &spec.topologies {
                for &seed in &spec.seeds {
                    for (battery_index, scheduler) in names.iter().enumerate() {
                        for scenario in &spec.scenarios {
                            units.push(SweepUnit {
                                index: units.len(),
                                protocol: protocol.clone(),
                                topology: topology.clone(),
                                seed,
                                battery_index,
                                scheduler: scheduler.clone(),
                                scenario: scenario.clone(),
                            });
                        }
                    }
                }
            }
        }
        Manifest { units }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the manifest holds no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The shard (in `0..shards`) of every unit, indexed by manifest
    /// position, in one pass over the manifest. Units with equal
    /// [`SweepUnit::partition_key`]s get equal shards: under
    /// [`Partition::RoundRobin`] the classes are numbered densely in manifest
    /// order of first appearance and class `i` goes to shard `i % shards`;
    /// under [`Partition::Hash`] a class goes to the mixed FNV-1a hash of its
    /// key mod `shards`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn shard_assignment(&self, shards: usize, partition: Partition) -> Vec<usize> {
        assert!(shards > 0, "at least one shard is required");
        match partition {
            Partition::RoundRobin => {
                let mut classes: HashMap<String, usize> = HashMap::new();
                self.units
                    .iter()
                    .map(|unit| {
                        let next = classes.len();
                        *classes.entry(unit.partition_key()).or_insert(next) % shards
                    })
                    .collect()
            }
            Partition::Hash => self
                .units
                .iter()
                .map(|unit| {
                    let hash = splitmix64_finalizer(fnv1a(unit.partition_key().as_bytes()));
                    (hash % shards as u64) as usize
                })
                .collect(),
        }
    }

    /// The units assigned to `shard` of `shards` under `partition`
    /// ([`shard_assignment`](Self::shard_assignment)), in manifest order.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `shard >= shards`.
    pub fn shard_units(
        &self,
        shards: usize,
        partition: Partition,
        shard: usize,
    ) -> Vec<&SweepUnit> {
        assert!(shard < shards, "shard {shard} out of range for {shards}");
        self.units
            .iter()
            .zip(self.shard_assignment(shards, partition))
            .filter_map(|(unit, owner)| (owner == shard).then_some(unit))
            .collect()
    }
}

/// How manifest classes ([`SweepUnit::partition_key`]) are distributed over
/// shards by [`Manifest::shard_assignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Classes numbered in manifest order of first appearance; class `i`
    /// goes to shard `i % n`.
    RoundRobin,
    /// FNV-1a of the class key, finalized by the SplitMix64 mixer so that
    /// every bit of the key reaches the low bits, mod `n`.
    Hash,
}

impl Partition {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Partition> {
        match s {
            "round-robin" | "rr" => Some(Partition::RoundRobin),
            "hash" => Some(Partition::Hash),
            _ => None,
        }
    }
}

/// FNV-1a over a byte string: a thin wrapper around the workspace's stock
/// stable hasher ([`anet_sim::trace::Fnv1a`], the one behind trace digests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            protocols: vec![ProtocolSpec::Mapping, ProtocolSpec::Labeling],
            topologies: vec![
                TopologySpec::Path { n: 2 },
                TopologySpec::ChainGn { n: 3 },
                TopologySpec::Star { leaves: 2 },
            ],
            seeds: vec![0, 7],
            random_schedulers: 2,
            max_deliveries: 1_000,
            scenarios: vec![ScenarioSpec::Pristine],
        }
    }

    #[test]
    fn manifest_order_is_protocol_topology_seed_battery() {
        let spec = small_spec();
        let manifest = Manifest::from_spec(&spec);
        assert_eq!(manifest.len(), 2 * 3 * 2 * 6);
        for (i, unit) in manifest.units.iter().enumerate() {
            assert_eq!(unit.index, i);
        }
        // The innermost loop is the battery, then seeds, then topologies.
        assert_eq!(manifest.units[0].scheduler, "fifo");
        assert_eq!(manifest.units[4].scheduler, "random#0");
        assert_eq!(manifest.units[5].scheduler, "random#1");
        assert_eq!(manifest.units[0].seed, 0);
        assert_eq!(manifest.units[6].seed, 7);
        assert_eq!(manifest.units[0].topology, spec.topologies[0]);
        assert_eq!(manifest.units[12].topology, spec.topologies[1]);
        assert_eq!(manifest.units[0].protocol, ProtocolSpec::Mapping);
        assert_eq!(manifest.units[36].protocol, ProtocolSpec::Labeling);
    }

    #[test]
    fn single_protocol_single_seed_order_is_topology_then_battery() {
        // One protocol and one seed: every battery position of topology 0,
        // then of topology 1, and so on.
        let spec = SweepSpec {
            protocols: vec![ProtocolSpec::Mapping],
            seeds: vec![3],
            ..small_spec()
        };
        let manifest = Manifest::from_spec(&spec);
        let battery = battery_size(spec.random_schedulers);
        assert_eq!(manifest.len(), spec.topologies.len() * battery);
        for (i, unit) in manifest.units.iter().enumerate() {
            assert_eq!(unit.topology, spec.topologies[i / battery]);
            assert_eq!(unit.battery_index, i % battery);
        }
    }

    #[test]
    fn scenarios_expand_as_the_innermost_dimension() {
        let mut spec = small_spec();
        spec.scenarios.push(ScenarioSpec::Faulty {
            drop_pct: 15,
            dup_pct: 0,
            reorder: 2,
            seed: 4,
            retry: 0,
            crashes: vec![],
        });
        let manifest = Manifest::from_spec(&spec);
        assert_eq!(manifest.len(), 2 * 3 * 2 * 6 * 2);
        // Each battery cell runs pristine first, then its fault scenario.
        assert!(manifest.units[0].scenario.is_pristine());
        assert!(!manifest.units[1].scenario.is_pristine());
        assert_eq!(manifest.units[0].scheduler, manifest.units[1].scheduler);
        assert_eq!(manifest.units[2].scheduler, "lifo");
        // Pristine units keep the historical four-field key; adversarial
        // units append the scenario name.
        assert!(!manifest.units[0].key().contains("faults"));
        assert_eq!(
            manifest.units[1].key(),
            format!("{}|faults/d15u0r2s4", manifest.units[0].key())
        );
        // Keys are still unique across the whole manifest.
        let mut keys: Vec<String> = manifest.units.iter().map(SweepUnit::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), manifest.len());
    }

    /// The partition class of every unit: its index among the distinct
    /// [`SweepUnit::partition_key`]s in manifest order of first appearance.
    fn classes(manifest: &Manifest) -> Vec<usize> {
        let mut ids: HashMap<String, usize> = HashMap::new();
        manifest
            .units
            .iter()
            .map(|unit| {
                let next = ids.len();
                *ids.entry(unit.partition_key()).or_insert(next)
            })
            .collect()
    }

    fn example_manifest() -> Manifest {
        let spec = SweepSpec::parse(include_str!("../specs/example.spec")).unwrap();
        Manifest::from_spec(&spec)
    }

    #[test]
    fn partitions_cover_every_unit_exactly_once() {
        let manifest = Manifest::from_spec(&small_spec());
        for partition in [Partition::RoundRobin, Partition::Hash] {
            for shards in [1usize, 2, 3, 7, 13] {
                let assignment = manifest.shard_assignment(shards, partition);
                assert_eq!(assignment.len(), manifest.len());
                assert!(assignment.iter().all(|&shard| shard < shards));
                let mut seen = vec![0usize; manifest.len()];
                for shard in 0..shards {
                    for unit in manifest.shard_units(shards, partition, shard) {
                        assert_eq!(assignment[unit.index], shard);
                        seen[unit.index] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "{partition:?}/{shards} misses or duplicates units"
                );
            }
        }
    }

    #[test]
    fn round_robin_deals_classes_in_order_of_first_appearance() {
        let manifest = example_manifest();
        let classes = classes(&manifest);
        for shards in [2usize, 3, 16] {
            let assignment = manifest.shard_assignment(shards, Partition::RoundRobin);
            for (unit, class) in classes.iter().enumerate() {
                assert_eq!(assignment[unit], class % shards, "unit {unit}");
            }
        }
    }

    #[test]
    fn hash_partition_is_position_independent() {
        // Prepending a topology moves every unit of the original spec to
        // another manifest index; the hash shard of each class stays put.
        let spec = small_spec();
        let mut extended = small_spec();
        extended.topologies.insert(0, TopologySpec::Path { n: 5 });
        let before = Manifest::from_spec(&spec);
        let after = Manifest::from_spec(&extended);
        for shards in [2usize, 3, 7] {
            let old = before.shard_assignment(shards, Partition::Hash);
            let new: HashMap<String, usize> = after
                .units
                .iter()
                .zip(after.shard_assignment(shards, Partition::Hash))
                .map(|(unit, shard)| (unit.key(), shard))
                .collect();
            for (unit, shard) in before.units.iter().zip(old) {
                assert_ne!(after.units[unit.index].key(), unit.key());
                assert_eq!(new[&unit.key()], shard, "{} at {shards}", unit.key());
            }
        }
    }

    #[test]
    fn seed_twins_of_a_deterministic_pristine_cell_share_a_shard() {
        let manifest = Manifest::from_spec(&small_spec());
        // Unit 0 is mapping on `path 2` under fifo with seed 0; its twin under
        // seed 7 sits one battery (6 units) later. The random positions read
        // the seed, so their classes stay apart.
        let (fifo, twin) = (&manifest.units[0], &manifest.units[6]);
        assert_eq!((fifo.scheduler.as_str(), fifo.seed), ("fifo", 0));
        assert_eq!((twin.scheduler.as_str(), twin.seed), ("fifo", 7));
        assert_eq!(fifo.partition_key(), "mapping|path/2|-|0");
        assert_eq!(fifo.partition_key(), twin.partition_key());
        assert_ne!(fifo.key(), twin.key());
        let (random, random_twin) = (&manifest.units[4], &manifest.units[10]);
        assert_eq!(random.partition_key(), random.key());
        assert_ne!(random.partition_key(), random_twin.partition_key());
        for partition in [Partition::RoundRobin, Partition::Hash] {
            for shards in [2usize, 3, 4, 16] {
                let assignment = manifest.shard_assignment(shards, partition);
                assert_eq!(
                    assignment[fifo.index], assignment[twin.index],
                    "{partition:?}/{shards}"
                );
            }
        }
    }

    #[test]
    fn hash_partition_spreads_the_example_classes_evenly() {
        // The low bits of raw FNV-1a read only the parity of the key bytes'
        // low bits, so every shard count must hold each shard within 25 % of
        // an even share of the example spec's 144 classes.
        let manifest = example_manifest();
        let classes = classes(&manifest);
        let count = classes.iter().max().map_or(0, |&c| c + 1);
        assert_eq!(count, 144);
        for shards in [2usize, 3, 4] {
            let assignment = manifest.shard_assignment(shards, Partition::Hash);
            let mut per_shard = vec![0usize; shards];
            let mut first = vec![true; count];
            for (unit, &class) in classes.iter().enumerate() {
                if std::mem::take(&mut first[class]) {
                    per_shard[assignment[unit]] += 1;
                }
            }
            let even = count as f64 / shards as f64;
            for &held in &per_shard {
                assert!(
                    (held as f64 - even).abs() <= 0.25 * even,
                    "{shards} shards hold {per_shard:?} of {count} classes"
                );
            }
        }
    }

    #[test]
    fn hash_partition_reads_more_than_the_key_bytes_low_bits() {
        // The FNV prime is odd, so raw FNV-1a mod 2 is the parity of the key
        // bytes' low bits: each parity would own one shard. Mixed, both
        // parities reach both shards.
        let manifest = example_manifest();
        let assignment = manifest.shard_assignment(2, Partition::Hash);
        let mut seen = [[false; 2]; 2];
        for (unit, &shard) in manifest.units.iter().zip(&assignment) {
            let parity = unit.partition_key().bytes().fold(0, |p, b| p ^ (b & 1));
            seen[usize::from(parity)][shard] = true;
        }
        assert_eq!(seen, [[true; 2]; 2]);
    }

    #[test]
    fn partition_spellings() {
        assert_eq!(Partition::parse("rr"), Some(Partition::RoundRobin));
        assert_eq!(Partition::parse("round-robin"), Some(Partition::RoundRobin));
        assert_eq!(Partition::parse("hash"), Some(Partition::Hash));
        assert_eq!(Partition::parse("modulo"), None);
    }
}
