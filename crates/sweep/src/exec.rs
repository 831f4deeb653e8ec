//! Deterministic execution of single sweep units.
//!
//! Every record is computed on the unit's **canonical** network: the
//! topology is rebuilt from its [`TopologySpec`] (self-seeded, so the
//! construction is identical in every process), canonicalized
//! ([`anet_graph::canon`]) and rebuilt from its form. A shard
//! does that once per distinct topology, in a topology table built before
//! any `--jobs` fan-out and shared by clustering and execution; the public
//! [`execute_unit`] does it for its one unit and is the per-unit oracle the
//! differential tests compare the shard paths against. Either way the run
//! itself is the same crate-private `execute_on`: exactly one cell of the
//! standard battery under the unit's scenario, in one
//! [`anet_sim::run_observed`] call whose [`TraceDigest`] hashes the sends as
//! the run makes them, the protocol's own success check, and a canonical
//! [`RunRecord`]. Two executions of the same unit — same process, different
//! process, different host — produce byte-identical records, which is the
//! invariant the whole shard/merge machinery rests on.
//!
//! Running on the canonical relabeling (rather than the generator's raw
//! labeling) is deliberate and unconditional — the honest `--no-dedup` path
//! uses it too. It makes every record a pure function of the unit's
//! *equivalence class* (protocol, canonical topology form, seed, battery
//! position, budget): isomorphic topologies drive bit-for-bit identical
//! simulations, so the dedup layer's rewritten member records equal honest
//! execution by construction, and `dedup` vs `--no-dedup` byte-identity is a
//! theorem the differential tests merely re-check. The protocols themselves
//! are anonymous — they observe degrees and port indices, never vertex ids —
//! so which isomorphic representative runs is pure bookkeeping, and so is
//! which topology of a form built the table's network: a form rebuilds the
//! same network whatever topology it came from.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use anet_core::general_broadcast::{corrupt_general_states, general_recovered, GeneralBroadcast};
use anet_core::labeling::{corrupt_labeling_states, labeling_recovered, Labeling};
use anet_core::mapping::{corrupt_mapping_states, mapping_recovered, Mapping};
use anet_core::{Payload, StateCorruption};
use anet_graph::canon::{canonical_form, CanonicalForm};
use anet_graph::Network;
use anet_sim::runner::battery_size;
use anet_sim::scheduler::standard_battery;
use anet_sim::{
    run_observed, ExecutionConfig, FaultyScheduler, Outcome, RefloodProtocol, RunResult,
    TraceDigest,
};

use crate::manifest::SweepUnit;
use crate::record::RunRecord;
use crate::spec::{ProtocolSpec, ScenarioSpec, SweepSpec, TopologySpec};
use crate::SweepError;

/// The canonical topologies of a batch of units (one shard's pending units,
/// or the slice [`cluster_units`](crate::cluster_units) is given), each built
/// and canonicalized once.
///
/// Canonical forms are interned to dense ids by exact equality, so two
/// isomorphic topologies share an id, and each id keeps the form's
/// [`CanonicalForm::encode`] text (for fingerprints) and the canonical
/// [`Network`] its units run on.
pub(crate) struct TopologyTable {
    /// Form id of each unit, by its position in the batch.
    ids: Vec<usize>,
    /// Per form id: the form's `encode()` text.
    encodings: Vec<String>,
    /// Per form id: the network rebuilt from the form.
    networks: Vec<Network>,
}

impl TopologyTable {
    /// Builds and canonicalizes each distinct topology of `units` once.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Topology`] for the first unit (in batch order)
    /// whose topology parameters its generator rejects.
    pub(crate) fn new<'a>(
        units: impl IntoIterator<Item = &'a SweepUnit>,
    ) -> Result<TopologyTable, SweepError> {
        let mut table = TopologyTable {
            ids: Vec::new(),
            encodings: Vec::new(),
            networks: Vec::new(),
        };
        let mut by_name: HashMap<String, usize> = HashMap::new();
        let mut by_form: HashMap<CanonicalForm, usize> = HashMap::new();
        for unit in units {
            let id = match by_name.entry(unit.topology.name()) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(slot) => {
                    let id = match by_form.entry(canonical(&unit.topology)?) {
                        Entry::Occupied(form) => *form.get(),
                        Entry::Vacant(form) => {
                            let network = form.key().to_network().map_err(SweepError::Topology)?;
                            table.encodings.push(form.key().encode());
                            table.networks.push(network);
                            *form.insert(table.networks.len() - 1)
                        }
                    };
                    *slot.insert(id)
                }
            };
            table.ids.push(id);
        }
        Ok(table)
    }

    /// The form id of the unit at `position` in the batch.
    pub(crate) fn form_id(&self, position: usize) -> usize {
        self.ids[position]
    }

    /// The `encode()` text of the canonical form of the unit at `position`.
    pub(crate) fn encoding(&self, position: usize) -> &str {
        &self.encodings[self.ids[position]]
    }

    /// The canonical network of the unit at `position`.
    pub(crate) fn network(&self, position: usize) -> &Network {
        &self.networks[self.ids[position]]
    }
}

/// Builds `topology` and computes its canonical form.
fn canonical(topology: &TopologySpec) -> Result<CanonicalForm, SweepError> {
    let built = topology.build().map_err(SweepError::Topology)?;
    Ok(canonical_form(&built).form)
}

/// Runs one unit and produces its canonical record.
///
/// Builds and canonicalizes the unit's own topology, then runs it exactly as
/// a shard runs it on its topology table; this is the per-unit oracle the
/// shard paths are tested against.
///
/// The unit's [`ScenarioSpec`] selects the execution mode: pristine units run
/// their battery scheduler as is; faulty units wrap it in a
/// [`FaultyScheduler`] whose plan seed is a pure function of the dedup
/// cluster key ([`ScenarioSpec::fault_plan`]), with the scenario's re-flood
/// retry budget; corrupted-start units perturb the protocol's initial states,
/// and their `ok` column is the protocol's *recovery* predicate. In every
/// mode the record is a pure function of the unit's equivalence class, so
/// dedup and sharding stay byte-exact.
///
/// # Errors
///
/// Returns [`SweepError::Spec`] if the unit's battery index is outside the
/// spec's battery, and [`SweepError::Topology`] if the unit's topology
/// parameters are rejected by the generator.
pub fn execute_unit(spec: &SweepSpec, unit: &SweepUnit) -> Result<RunRecord, SweepError> {
    let battery = battery_size(spec.random_schedulers);
    if unit.battery_index >= battery {
        return Err(SweepError::Spec(format!(
            "unit {} has battery index {}, but the spec's battery has {battery} schedulers",
            unit.key(),
            unit.battery_index
        )));
    }
    let network = canonical(&unit.topology)?
        .to_network()
        .map_err(SweepError::Topology)?;
    Ok(execute_on(spec, unit, &network))
}

/// Runs `unit` on `network`, which must be the canonical network of the
/// unit's topology (a [`TopologyTable`] entry or [`execute_unit`]'s own).
pub(crate) fn execute_on(spec: &SweepSpec, unit: &SweepUnit, network: &Network) -> RunRecord {
    match &unit.protocol {
        ProtocolSpec::Mapping => run_unit(
            spec,
            unit,
            network,
            &Mapping::new(),
            mapping_recovered,
            corrupt_mapping_states,
        ),
        ProtocolSpec::Labeling => run_unit(
            spec,
            unit,
            network,
            &Labeling::new(),
            labeling_recovered,
            corrupt_labeling_states,
        ),
        ProtocolSpec::GeneralBroadcast { payload_bits } => run_unit(
            spec,
            unit,
            network,
            &GeneralBroadcast::new(Payload::synthetic(*payload_bits)),
            general_recovered,
            corrupt_general_states,
        ),
    }
}

/// Runs the unit's battery cell under its scenario and distils the record.
///
/// Every scenario is one [`run_observed`] call: the fault plan (if any) wraps
/// the battery scheduler, the corruption (if any) perturbs the initial
/// states, and the retry budget is 0 unless the scenario sets one. Re-flood
/// traffic lands in the ordinary `sent`/`total_bits` columns, so a retry
/// record's overhead is directly comparable against its retry-free twin.
fn run_unit<P: RefloodProtocol>(
    spec: &SweepSpec,
    unit: &SweepUnit,
    network: &Network,
    protocol: &P,
    recovered: fn(&Network, &[P::State]) -> bool,
    corrupt: fn(&StateCorruption, &Network, &mut [P::State]),
) -> RunRecord {
    let mut scheduler =
        standard_battery(unit.seed, spec.random_schedulers).swap_remove(unit.battery_index);
    if let Some(plan) = unit.scenario.fault_plan(unit.seed, unit.battery_index) {
        scheduler = Box::new(FaultyScheduler::new(scheduler, plan));
    }
    let config = ExecutionConfig {
        max_deliveries: spec.max_deliveries,
        record_trace: false,
    };
    let corrupt_start = |states: &mut [P::State]| {
        if let ScenarioSpec::Corrupt(corruption) = &unit.scenario {
            corrupt(corruption, network, states);
        }
    };
    let retry = unit.scenario.retry_budget();
    let mut digest = TraceDigest::new();
    let run = run_observed(
        network,
        protocol,
        scheduler.as_mut(),
        config,
        corrupt_start,
        retry,
        &mut digest,
    )
    .result;
    let ok = run.outcome.terminated() && recovered(network, &run.states);
    distil(unit, &run, ok, digest.finish())
}

fn distil<S, M>(unit: &SweepUnit, result: &RunResult<S, M>, ok: bool, digest: u64) -> RunRecord {
    // A quiescent run that lost messages to the adversary did not merely run
    // out of work — it was starved: the faults destroyed traffic the protocol
    // needed. First-class outcome so fault sweeps can count starvation apart
    // from genuine quiescence (pristine runs lose nothing and are unaffected).
    let outcome = match result.outcome {
        Outcome::Terminated => "terminated",
        Outcome::Quiescent if result.metrics.messages_lost() > 0 => "starved",
        Outcome::Quiescent => "quiescent",
        Outcome::BudgetExhausted => "budget-exhausted",
    };
    RunRecord {
        index: unit.index,
        protocol: unit.protocol.name(),
        topology: unit.topology.name(),
        scheduler: unit.scheduler.clone(),
        battery_index: unit.battery_index,
        seed: unit.seed,
        scenario: unit.scenario.name(),
        outcome: outcome.to_owned(),
        ok,
        sent: result.metrics.messages_sent,
        delivered: result.metrics.messages_delivered,
        accepted_at: result.deliveries_at_termination,
        total_bits: result.metrics.total_bits,
        max_msg_bits: result.metrics.max_message_bits,
        max_edge_bits: result.metrics.max_edge_bits(),
        dropped: result.metrics.messages_dropped,
        duplicated: result.metrics.messages_duplicated,
        crashed: result.metrics.crashed_deliveries,
        trace_digest: digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

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
            ],
            seeds: vec![0],
            random_schedulers: 1,
            max_deliveries: 1_000_000,
            scenarios: vec![ScenarioSpec::Pristine],
        }
    }

    #[test]
    fn every_unit_terminates_ok_and_is_repeatable() {
        let spec = spec();
        let manifest = Manifest::from_spec(&spec);
        for unit in &manifest.units {
            let a = execute_unit(&spec, unit).expect("unit runs");
            let b = execute_unit(&spec, unit).expect("unit runs");
            assert_eq!(a, b, "unit {} is not deterministic", unit.key());
            assert_eq!(a.outcome, "terminated", "unit {}", unit.key());
            assert!(a.ok, "unit {} failed its protocol check", unit.key());
            assert!(a.sent > 0 && a.delivered > 0 && a.total_bits > 0);
            assert_eq!(a.index, unit.index);
        }
    }

    #[test]
    fn adversarial_units_are_deterministic_and_labelled() {
        let mut spec = spec();
        spec.scenarios = vec![
            ScenarioSpec::Pristine,
            ScenarioSpec::Faulty {
                drop_pct: 20,
                dup_pct: 10,
                reorder: 2,
                seed: 6,
                retry: 0,
                crashes: vec![],
            },
            ScenarioSpec::Corrupt(StateCorruption::ScrambledLabels { seed: 7 }),
            ScenarioSpec::Corrupt(StateCorruption::LostPartition),
            ScenarioSpec::Corrupt(StateCorruption::StaleTerminal),
        ];
        let manifest = Manifest::from_spec(&spec);
        let mut saw_fault_counters = false;
        for unit in &manifest.units {
            let a = execute_unit(&spec, unit).expect("unit runs");
            let b = execute_unit(&spec, unit).expect("unit runs");
            assert_eq!(a, b, "unit {} is not deterministic", unit.key());
            assert_eq!(a.scenario, unit.scenario.name());
            if unit.scenario.is_pristine() {
                assert!(a.ok, "pristine unit {} failed", unit.key());
                assert_eq!((a.dropped, a.duplicated, a.crashed), (0, 0, 0));
            }
            saw_fault_counters |= a.dropped > 0 || a.duplicated > 0;
        }
        assert!(
            saw_fault_counters,
            "a 20%-drop 10%-dup scenario must record fault counters somewhere"
        );
    }

    #[test]
    fn total_drop_scenarios_starve_every_run() {
        let mut spec = spec();
        spec.scenarios = vec![
            ScenarioSpec::Pristine,
            ScenarioSpec::Faulty {
                drop_pct: 100,
                dup_pct: 0,
                reorder: 0,
                seed: 0,
                retry: 0,
                crashes: vec![],
            },
            // Even a retry variant cannot outlast a total-drop adversary: the
            // budget bounds the re-flood rounds, so starvation stays a
            // detectable first-class outcome rather than a hang.
            ScenarioSpec::Faulty {
                drop_pct: 100,
                dup_pct: 0,
                reorder: 0,
                seed: 0,
                retry: 2,
                crashes: vec![],
            },
        ];
        let manifest = Manifest::from_spec(&spec);
        for unit in manifest.units.iter().filter(|u| !u.scenario.is_pristine()) {
            let record = execute_unit(&spec, unit).expect("unit runs");
            assert_eq!(record.outcome, "starved", "unit {}", unit.key());
            assert!(!record.ok);
            assert_eq!(record.delivered, 0);
            assert_eq!(record.dropped, record.sent);
            assert!(record.dropped > 0);
        }
    }

    #[test]
    fn crash_window_retry_units_recover_where_their_retry_free_twins_starve() {
        // A crash outage at canonical node 1 destroys the early deliveries
        // addressed to it. The retry-free scenario starves on a single-path
        // topology; the retry twin (same plan — `retry` does not perturb the
        // fault stream) keeps re-flooding, each round advancing the step
        // clock, until the window closes and the protocol completes.
        let mut spec = spec();
        spec.topologies = vec![TopologySpec::CycleWithTail { k: 5 }];
        let crash = vec![(1usize, 0u64, 6u64)];
        spec.scenarios = vec![
            ScenarioSpec::Pristine,
            ScenarioSpec::Faulty {
                drop_pct: 0,
                dup_pct: 0,
                reorder: 0,
                seed: 0,
                retry: 0,
                crashes: crash.clone(),
            },
            ScenarioSpec::Faulty {
                drop_pct: 0,
                dup_pct: 0,
                reorder: 0,
                seed: 0,
                retry: 8,
                crashes: crash,
            },
        ];
        let manifest = Manifest::from_spec(&spec);
        let mut starved = 0;
        let mut recovered = 0;
        for unit in &manifest.units {
            let record = execute_unit(&spec, unit).expect("unit runs");
            match &unit.scenario {
                ScenarioSpec::Pristine => assert!(record.ok, "unit {}", unit.key()),
                ScenarioSpec::Faulty { retry: 0, .. } => {
                    assert_eq!(record.outcome, "starved", "unit {}", unit.key());
                    assert!(record.crashed > 0, "unit {}", unit.key());
                    starved += 1;
                }
                ScenarioSpec::Faulty { .. } => {
                    assert_eq!(record.outcome, "terminated", "unit {}", unit.key());
                    assert!(record.ok, "unit {}", unit.key());
                    assert!(record.crashed > 0, "unit {}", unit.key());
                    recovered += 1;
                }
                ScenarioSpec::Corrupt(_) => unreachable!(),
            }
        }
        assert!(starved > 0 && recovered > 0);
        assert_eq!(starved, recovered);
    }

    #[test]
    fn bad_topology_parameters_surface_as_spec_errors() {
        let spec = spec();
        let mut unit = Manifest::from_spec(&spec).units[0].clone();
        unit.topology = TopologySpec::ChainGn { n: 0 };
        let err = execute_unit(&spec, &unit).expect_err("degenerate chain");
        assert!(err.to_string().contains("chain"), "{err}");
    }

    #[test]
    fn out_of_range_battery_index_is_a_spec_error() {
        let spec = spec();
        let mut unit = Manifest::from_spec(&spec).units[0].clone();
        unit.battery_index = battery_size(spec.random_schedulers);
        let err = execute_unit(&spec, &unit).expect_err("index past the battery");
        assert!(matches!(err, SweepError::Spec(_)), "{err}");
        assert!(err.to_string().contains("battery index"), "{err}");
    }

    #[test]
    fn budget_exhaustion_is_recorded_not_fatal() {
        let mut spec = spec();
        spec.max_deliveries = 2;
        let manifest = Manifest::from_spec(&spec);
        let record = execute_unit(&spec, &manifest.units[0]).expect("unit runs");
        assert_eq!(record.outcome, "budget-exhausted");
        assert!(!record.ok);
        assert_eq!(record.accepted_at, None);
    }
}
