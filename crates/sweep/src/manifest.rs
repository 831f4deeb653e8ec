//! Deterministic work manifests and shard partitioning.
//!
//! A [`Manifest`] expands a [`SweepSpec`] into the flat, globally ordered list
//! of run units. The order is the canonical nested loop **protocol → topology →
//! seed → battery position → scenario**; for a pristine-only spec with one
//! protocol and one seed it is topology by topology, each in the battery
//! order of [`anet_sim::runner::run_under_battery`].
//!
//! Partitioning assigns every unit to exactly one of `n` shards, either
//! round-robin by manifest position or by a stable FNV-1a hash of the unit key
//! (protocol, topology, seed, battery position). The hash ignores the unit's
//! position, so hash-sharded assignments survive manifest extension better than
//! round-robin; both are deterministic functions of the spec and shard count.

use anet_sim::runner::battery_size;
use anet_sim::scheduler::battery_scheduler_name;
use anet_sim::trace::Fnv1a;

use crate::spec::{ProtocolSpec, ScenarioSpec, SweepSpec, TopologySpec};

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
    /// position — the hash-partition key. Pristine units keep the historical
    /// four-field key, so adding scenarios to a spec never reshuffles the
    /// shard assignment of the runs it already had.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}|{}|{}|{}",
            self.protocol.name(),
            self.topology.name(),
            self.seed,
            self.battery_index
        );
        if !self.scenario.is_pristine() {
            key.push('|');
            key.push_str(&self.scenario.name());
        }
        key
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

    /// The units assigned to `shard` of `shards` under `partition`, in
    /// manifest order.
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
        assert!(shards > 0, "at least one shard is required");
        assert!(shard < shards, "shard {shard} out of range for {shards}");
        self.units
            .iter()
            .filter(|u| partition.assign(u, shards) == shard)
            .collect()
    }
}

/// How manifest units are distributed over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Unit `i` goes to shard `i % n`.
    RoundRobin,
    /// Stable FNV-1a hash of the unit key, mod `n`.
    Hash,
}

impl Partition {
    /// The shard (in `0..shards`) that owns `unit`.
    pub fn assign(self, unit: &SweepUnit, shards: usize) -> usize {
        match self {
            Partition::RoundRobin => unit.index % shards,
            Partition::Hash => (fnv1a(unit.key().as_bytes()) % shards as u64) as usize,
        }
    }

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

    #[test]
    fn partitions_cover_every_unit_exactly_once() {
        let manifest = Manifest::from_spec(&small_spec());
        for partition in [Partition::RoundRobin, Partition::Hash] {
            for shards in [1usize, 2, 3, 7, 13] {
                let mut seen = vec![0usize; manifest.len()];
                for shard in 0..shards {
                    for unit in manifest.shard_units(shards, partition, shard) {
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
    fn hash_partition_is_position_independent() {
        let manifest = Manifest::from_spec(&small_spec());
        let unit = &manifest.units[17];
        let mut moved = unit.clone();
        moved.index = 3;
        for shards in [2usize, 3, 7] {
            assert_eq!(
                Partition::Hash.assign(unit, shards),
                Partition::Hash.assign(&moved, shards)
            );
        }
    }

    #[test]
    fn partition_spellings() {
        assert_eq!(Partition::parse("rr"), Some(Partition::RoundRobin));
        assert_eq!(Partition::parse("round-robin"), Some(Partition::RoundRobin));
        assert_eq!(Partition::parse("hash"), Some(Partition::Hash));
        assert_eq!(Partition::parse("modulo"), None);
    }
}
