//! The sweep workloads: a generated spec through the `sweep` CLI's calls.
//!
//! An untraced run is a closed loop of passes. Each pass is one sweep from
//! the parsed spec to the merged JSONL, made with the CLI defaults: dedup on,
//! no cache, one shard, one job. The traced run repeats one pass call by call,
//! rebuilds every executed unit step by step through the layers' public
//! functions, and requires the rebuilt records to match the program's.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::time::Instant;

use anet_core::general_broadcast::{corrupt_general_states, general_recovered, GeneralBroadcast};
use anet_core::labeling::{corrupt_labeling_states, labeling_recovered, Labeling};
use anet_core::mapping::{corrupt_mapping_states, mapping_recovered, Mapping};
use anet_core::{Payload, StateCorruption};
use anet_graph::canon::{canonical_form, CanonicalForm};
use anet_graph::{Csr, Network};
use anet_sim::engine::{
    run_corrupted, run_recovering, run_with_config, ExecutionConfig, Outcome, RunConfig, RunResult,
};
use anet_sim::runner::run_battery_cell;
use anet_sim::scheduler::standard_battery;
use anet_sim::{FaultyScheduler, RefloodProtocol};
use anet_sweep::{
    dedup_shard_lines, execute_unit, merge_shard_files, run_shard_to_file_with_opts, CachePayload,
    Manifest, Partition, ProtocolSpec, ResultCache, RunRecord, ScenarioSpec, SweepError,
    SweepOptions, SweepSpec, SweepUnit, UnitCluster,
};

use crate::gate::{check_sweep_pass, SweepPin};
use crate::host::{self, HostScale};
use crate::report::{ends_after, median, peak_rss_mb, timed, Metrics, RunSummary};

/// Setup repetitions per burst for a manifest of `units`: 4 for
/// `sweep-grid`'s 4,176 units (about 0.1 s each), 64 for `sweep-cyclic`'s
/// 216 (about 7 ms each), so a burst spends about half a second in setups. A
/// burst runs before each pass and after the last, each setup followed by
/// the host kernel; with the cold first setup they give `setup_s` its median.
fn setup_reps(units: usize) -> usize {
    (20_000 / units.max(1)).clamp(4, 64)
}

/// Timed alternations of the two warm-cache calls whose difference is
/// `sweep.merge.write_s`.
const WRITE_REPS: usize = 5;

/// What a user pays before the first run: the parsed spec, its manifest and
/// its clusters (a build and a canonical form per distinct topology).
fn setup(text: &str) -> Result<(SweepSpec, Manifest, Vec<UnitCluster>), SweepError> {
    let spec = SweepSpec::parse(text)?;
    let manifest = Manifest::from_spec(&spec);
    let clusters = manifest.cluster_units(&spec)?;
    Ok((spec, manifest, clusters))
}

/// The CLI defaults: dedup on, no cache, sequential, no resume.
fn cli_options() -> SweepOptions {
    SweepOptions {
        jobs: 1,
        resume: false,
        dedup: true,
        cache_dir: None,
    }
}

/// One sweep through the CLI's calls, in `shards` shards run one after
/// another as `sweep --shards <shards> --partition round-robin` runs them (one
/// shard is the CLI default, hash-partitioned), writing `shard-<i>.jsonl` and
/// `merged.jsonl` under `dir`. Returns the pass's seconds, scaled call by call
/// when a `clock` is given.
fn pass(
    spec: &SweepSpec,
    manifest: &Manifest,
    shards: usize,
    dir: &Path,
    mut clock: Option<&mut HostScale>,
) -> Result<f64, SweepError> {
    let partition = if shards == 1 {
        Partition::Hash
    } else {
        Partition::RoundRobin
    };
    let mut seconds = 0.0;
    let mut add = |t: f64| seconds += clock.as_mut().map_or(t, |clock| clock.scale(t));
    let mut files = Vec::with_capacity(shards);
    for shard in 0..shards {
        let path = dir.join(format!("shard-{shard}.jsonl"));
        let (done, t) = timed(|| {
            run_shard_to_file_with_opts(
                spec,
                manifest,
                shards,
                partition,
                shard,
                &path,
                &cli_options(),
            )
        });
        done?;
        add(t);
        files.push(path);
    }
    let (done, t) = timed(|| merge_shard_files(manifest.len(), &files, &dir.join("merged.jsonl")));
    done?;
    add(t);
    Ok(seconds)
}

fn read_merged(dir: &Path) -> Result<String, SweepError> {
    fs::read_to_string(dir.join("merged.jsonl")).map_err(SweepError::Io)
}

/// An untraced run: passes of `shards` shards until `seconds` have elapsed
/// (at least one), each checked against `pin` or, without one, against the
/// first pass.
///
/// Both times are scaled to the reference host speed ([`host`]). Each setup
/// is divided by the kernel run right after it, and `setup_s` is the median
/// of those ratios. Each shard call and merge is scaled by the host readings
/// around it, and `runs_per_s` is the median of the passes' scaled rates, so
/// that one pass caught in a change of the host's speed does not move it.
pub fn run(
    text: &str,
    shards: usize,
    pin: Option<SweepPin>,
    seconds: f64,
    dir: &Path,
) -> Result<RunSummary, SweepError> {
    let (first, first_s) = timed(|| setup(text));
    let (spec, manifest, _) = first?;
    let mut setup_ratios = vec![first_s / host::kernel_s()];
    let mut burst = || -> Result<(), SweepError> {
        for _ in 0..setup_reps(manifest.len()) {
            let (again, t) = timed(|| setup(text));
            again?;
            setup_ratios.push(t / host::kernel_s());
        }
        Ok(())
    };

    let mut reference = pin;
    let (mut attempted, mut failed) = (0, 0);
    let mut rates = Vec::new();
    let mut peak_rss = None;
    let (start, mut passes) = (Instant::now(), 0);
    loop {
        burst()?;
        let t = pass(&spec, &manifest, shards, dir, Some(&mut HostScale::new()))?;
        rates.push(manifest.len() as f64 / t);
        peak_rss = peak_rss.or_else(peak_rss_mb);
        let merged = read_merged(dir)?;
        let reference = reference.get_or_insert_with(|| SweepPin::of_merged(&merged));
        let (a, f) = check_sweep_pass(&merged, reference);
        attempted += a;
        failed += f;
        passes += 1;
        if ends_after(start, passes, seconds) {
            break;
        }
    }
    burst()?;

    let mut metrics = Metrics::default();
    metrics.set("runs_per_s", median(&rates));
    metrics.set("setup_s", median(&setup_ratios) * host::REFERENCE_KERNEL_S);
    metrics.set("peak_rss_mb", peak_rss.unwrap_or(0.0));
    Ok(RunSummary {
        attempted,
        failed,
        problems: Vec::new(),
        metrics,
    })
}

/// The traced run: one untraced pass, then the same sweep call by call with
/// every executed unit rebuilt step by step. The rebuilt lines must match the
/// program's byte for byte, and the merged output must match the untraced
/// pass and `pin`.
pub fn run_traced(text: &str, pin: Option<SweepPin>, dir: &Path) -> Result<RunSummary, SweepError> {
    let (untraced, untraced_s) = timed(|| -> Result<String, SweepError> {
        let (spec, manifest, _) = setup(text)?;
        pass(&spec, &manifest, 1, dir, None)?;
        read_merged(dir)
    });
    let untraced = untraced?;
    let reference = pin.unwrap_or_else(|| SweepPin::of_merged(&untraced));
    let (attempted, failed) = check_sweep_pass(&untraced, &reference);

    let mut metrics = Metrics::default();
    let mut problems = Vec::new();
    let (traced, traced_s) = timed(|| traced_pass(text, dir, &mut metrics, &mut problems));
    if traced? != untraced {
        problems.push("traced merged JSONL differs from the untraced pass".to_owned());
    }
    metrics.set("bench.untraced_s", untraced_s);
    metrics.set("bench.traced_s", traced_s);
    metrics.set("bench.overhead_s", traced_s - untraced_s);
    finish_engine_metrics(&mut metrics);
    Ok(RunSummary {
        attempted,
        failed,
        problems,
        metrics,
    })
}

/// One sweep call by call; returns the merged JSONL the program wrote.
fn traced_pass(
    text: &str,
    dir: &Path,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<String, SweepError> {
    let (spec, t) = timed(|| SweepSpec::parse(text));
    let spec = spec?;
    m.add("sweep.spec.busy_s", t);
    let (manifest, t) = timed(|| Manifest::from_spec(&spec));
    m.add("sweep.manifest.busy_s", t);
    m.set("sweep.manifest.units", manifest.len() as f64);

    // `cluster_units` builds and canonicalizes each distinct topology once;
    // the same calls are timed here so its own work can be told apart.
    let (clusters, cluster_s) = timed(|| manifest.cluster_units(&spec));
    let clusters = clusters?;
    let mut forms: BTreeMap<String, CanonicalForm> = BTreeMap::new();
    let mut build_and_canon_s = 0.0;
    for unit in &manifest.units {
        if let Entry::Vacant(slot) = forms.entry(unit.topology.name()) {
            let (network, t_build) = timed(|| unit.topology.build());
            let network = network.map_err(SweepError::Topology)?;
            let (form, t_canon) = timed(|| canonical_form(&network).form);
            record_generate(m, t_build, &network);
            m.add("graph.canon.busy_s", t_canon);
            m.add("graph.canon.calls", 1.0);
            build_and_canon_s += t_build + t_canon;
            slot.insert(form);
        }
    }
    let distinct: BTreeSet<&CanonicalForm> = forms.values().collect();
    m.set("graph.canon.distinct", distinct.len() as f64);
    m.add("sweep.dedup.busy_s", cluster_s - build_and_canon_s);
    m.set("sweep.dedup.clusters", clusters.len() as f64);
    m.set(
        "sweep.dedup.by_reference_ratio",
        (manifest.len() - clusters.len()) as f64 / manifest.len() as f64,
    );

    // Execution: each representative through the program, then rebuilt.
    let mut lines: Vec<Option<String>> = vec![None; manifest.len()];
    let mut representatives = Vec::with_capacity(clusters.len());
    for cluster in &clusters {
        let unit = &manifest.units[cluster.representative];
        let record = execute_unit(&spec, unit)?;
        m.add("sweep.exec.calls", 1.0);
        let (rebuilt, trace_agrees) = rebuild_unit(&spec, unit, m)?;
        if !trace_agrees {
            problems.push(format!("unit {}: trace on and off disagree", unit.key()));
        }
        if rebuilt.to_jsonl_line() != record.to_jsonl_line() {
            problems.push(format!("unit {}: rebuilt record differs", unit.key()));
        }
        let (members, t) = timed(|| {
            cluster
                .members
                .iter()
                .map(|&i| {
                    let member = &manifest.units[i];
                    (member.index, record.rebind(member).to_jsonl_line())
                })
                .collect::<Vec<_>>()
        });
        m.add("sweep.record.busy_s", t);
        for (index, line) in members {
            m.add("sweep.record.bytes", line.len() as f64 + 1.0);
            lines[index] = Some(line);
        }
        representatives.push(record);
    }
    let mut rebuilt_merged = String::new();
    for line in lines.into_iter().flatten() {
        rebuilt_merged.push_str(&line);
        rebuilt_merged.push('\n');
    }

    // The file write: the shard call minus the same shard's lines, both
    // served from a cache holding every cluster's record, so that neither
    // executes a unit and the difference is the write and its fsync.
    let cache_dir = dir.join("cache");
    let cache = ResultCache::new(&cache_dir).map_err(SweepError::Io)?;
    for (cluster, record) in clusters.iter().zip(&representatives) {
        cache
            .store(&cluster.fingerprint, &CachePayload::from_record(record))
            .map_err(SweepError::Io)?;
    }
    let opts = SweepOptions {
        cache_dir: Some(cache_dir.clone()),
        ..cli_options()
    };
    let shard = dir.join("traced-shard-0.jsonl");
    let (mut with_write, mut without_write) = (Vec::new(), Vec::new());
    for _ in 0..WRITE_REPS {
        let (done, t) = timed(|| {
            run_shard_to_file_with_opts(&spec, &manifest, 1, Partition::Hash, 0, &shard, &opts)
        });
        done?;
        with_write.push(t);
        let (done, t) =
            timed(|| dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, Some(&cache_dir)));
        done?;
        without_write.push(t);
    }
    m.set(
        "sweep.merge.write_s",
        median(&with_write) - median(&without_write),
    );
    let merged_path = dir.join("traced-merged.jsonl");
    let (done, t) = timed(|| merge_shard_files(manifest.len(), &[shard], &merged_path));
    done?;
    m.add("sweep.merge.busy_s", t);
    let merged = fs::read_to_string(&merged_path).map_err(SweepError::Io)?;
    if merged != rebuilt_merged {
        problems.push("rebuilt records differ from the merged JSONL".to_owned());
    }
    Ok(merged)
}

fn record_generate(m: &mut Metrics, seconds: f64, network: &Network) {
    m.add("graph.generate.busy_s", seconds);
    m.add("graph.generate.calls", 1.0);
    m.add("graph.generate.edges", network.edge_count() as f64);
}

/// Rebuilds one unit's record from the layers' public calls, as
/// `execute_unit` makes it: build, canonical form, the battery cell under
/// the unit's scenario, trace digest, then the protocol's predicate. Also
/// returns whether the trace-off and trace-on runs agree.
fn rebuild_unit(
    spec: &SweepSpec,
    unit: &SweepUnit,
    m: &mut Metrics,
) -> Result<(RunRecord, bool), SweepError> {
    let (built, t) = timed(|| unit.topology.build());
    let built = built.map_err(SweepError::Topology)?;
    record_generate(m, t, &built);
    let (network, t) = timed(|| canonical_form(&built).form.to_network());
    let network = network.map_err(SweepError::Topology)?;
    m.add("graph.canon.busy_s", t);
    m.add("graph.canon.calls", 1.0);
    let (csr, t) = timed(|| Csr::from_graph(network.graph()));
    std::hint::black_box(csr);
    m.add("graph.csr.busy_s", t);
    let rebuilt = match &unit.protocol {
        ProtocolSpec::Mapping => rebuild_cell(
            spec,
            unit,
            &network,
            &Mapping::new(),
            mapping_recovered,
            corrupt_mapping_states,
            m,
        ),
        ProtocolSpec::Labeling => rebuild_cell(
            spec,
            unit,
            &network,
            &Labeling::new(),
            labeling_recovered,
            corrupt_labeling_states,
            m,
        ),
        ProtocolSpec::GeneralBroadcast { payload_bits } => rebuild_cell(
            spec,
            unit,
            &network,
            &GeneralBroadcast::new(Payload::synthetic(*payload_bits)),
            general_recovered,
            corrupt_general_states,
            m,
        ),
    };
    Ok(rebuilt)
}

/// A scenario run and, for a retry run, its re-flood rounds and bits.
type ScenarioRun<S, M> = (RunResult<S, M>, Option<(u32, u64)>);

/// The unit's battery cell under its scenario, through the public entry
/// points `execute_unit` dispatches to.
fn scenario_run<P: RefloodProtocol>(
    spec: &SweepSpec,
    unit: &SweepUnit,
    network: &Network,
    protocol: &P,
    config: RunConfig,
    corrupt: fn(&StateCorruption, &Network, &mut [P::State]),
) -> ScenarioRun<P::State, P::Message> {
    match &unit.scenario {
        ScenarioSpec::Pristine => {
            let named = run_battery_cell(
                network,
                protocol,
                config,
                unit.seed,
                spec.random_schedulers,
                unit.battery_index,
            );
            (named.result, None)
        }
        ScenarioSpec::Faulty { .. } => {
            let plan = unit
                .scenario
                .fault_plan(unit.seed, unit.battery_index)
                .expect("the scenario is faulty");
            let inner =
                standard_battery(unit.seed, spec.random_schedulers).remove(unit.battery_index);
            let mut faulty = FaultyScheduler::new(inner, plan);
            match unit.scenario.retry_budget() {
                0 => (
                    run_with_config(network, protocol, &mut faulty, config),
                    None,
                ),
                retry => {
                    let run = run_recovering(network, protocol, &mut faulty, config, retry);
                    (run.result, Some((run.reflood_rounds, run.reflood_bits)))
                }
            }
        }
        ScenarioSpec::Corrupt(corruption) => {
            let mut battery = standard_battery(unit.seed, spec.random_schedulers);
            let scheduler = battery[unit.battery_index].as_mut();
            let result = run_corrupted(network, protocol, scheduler, config, |states| {
                corrupt(corruption, network, states)
            });
            (result, None)
        }
    }
}

fn rebuild_cell<P: RefloodProtocol>(
    spec: &SweepSpec,
    unit: &SweepUnit,
    network: &Network,
    protocol: &P,
    recovered: fn(&Network, &[P::State]) -> bool,
    corrupt: fn(&StateCorruption, &Network, &mut [P::State]),
    m: &mut Metrics,
) -> (RunRecord, bool) {
    let off = ExecutionConfig {
        max_deliveries: spec.max_deliveries,
        record_trace: false,
    };
    let on = ExecutionConfig {
        record_trace: true,
        ..off
    };
    let ((off_run, _), off_s) =
        timed(|| scenario_run(spec, unit, network, protocol, off.into(), corrupt));
    let protocol_name = unit.protocol.name();
    let family = protocol_name.split('/').next().unwrap_or_default();
    let scheduler = unit.scheduler.split('#').next().unwrap_or_default();
    record_engine(
        m,
        off_s,
        off_run.metrics.messages_delivered,
        family,
        scheduler,
    );

    let ((on_run, reflood), on_s) =
        timed(|| scenario_run(spec, unit, network, protocol, on.into(), corrupt));
    let trace = on_run.trace.as_ref().expect("the run recorded a trace");
    m.add("sim.trace.capture_s", on_s - off_s);
    m.add("sim.trace.events", trace.len() as f64);
    let (digest, t) = timed(|| trace.digest());
    m.add("sim.trace.digest_s", t);
    let agrees = off_run.outcome == on_run.outcome && off_run.metrics == on_run.metrics;

    let metrics = &on_run.metrics;
    m.add("sim.faults.dropped", metrics.messages_dropped as f64);
    m.add("sim.faults.duplicated", metrics.messages_duplicated as f64);
    m.add("sim.faults.crashed", metrics.crashed_deliveries as f64);
    if let Some((rounds, bits)) = reflood {
        m.add("sim.faults.reflood_rounds", f64::from(rounds));
        m.add("tmp.reflood_bits", bits as f64);
        m.add("tmp.retry_total_bits", metrics.total_bits as f64);
    }
    let starved = on_run.outcome == Outcome::Quiescent && metrics.messages_lost() > 0;
    if matches!(unit.scenario, ScenarioSpec::Faulty { .. }) {
        m.add("tmp.fault_runs", 1.0);
        m.add("tmp.starved_runs", f64::from(u8::from(starved)));
    }

    let (record, t) = timed(|| {
        let ok = on_run.outcome.terminated() && recovered(network, &on_run.states);
        let outcome = match on_run.outcome {
            Outcome::Terminated => "terminated",
            Outcome::Quiescent if starved => "starved",
            Outcome::Quiescent => "quiescent",
            Outcome::BudgetExhausted => "budget-exhausted",
        };
        RunRecord {
            index: unit.index,
            protocol: protocol_name.clone(),
            topology: unit.topology.name(),
            scheduler: unit.scheduler.clone(),
            battery_index: unit.battery_index,
            seed: unit.seed,
            scenario: unit.scenario.name(),
            outcome: outcome.to_owned(),
            ok,
            sent: metrics.messages_sent,
            delivered: metrics.messages_delivered,
            accepted_at: on_run.deliveries_at_termination,
            total_bits: metrics.total_bits,
            max_msg_bits: metrics.max_message_bits,
            max_edge_bits: metrics.max_edge_bits(),
            dropped: metrics.messages_dropped,
            duplicated: metrics.messages_duplicated,
            crashed: metrics.crashed_deliveries,
            trace_digest: digest,
        }
    });
    m.add("sweep.exec.busy_s", t);
    (record, agrees)
}

/// Adds one engine run of `family` under the `scheduler` family.
fn record_engine(m: &mut Metrics, seconds: f64, delivered: u64, family: &str, scheduler: &str) {
    m.add("sim.engine.busy_s", seconds);
    m.add("sim.engine.runs", 1.0);
    m.add("sim.engine.deliveries", delivered as f64);
    m.add(&format!("tmp.engine.{family}.busy_s"), seconds);
    m.add(&format!("tmp.engine.{family}.deliveries"), delivered as f64);
    m.add(&format!("sim.engine.{scheduler}.busy_s"), seconds);
}

/// Derives the engine and fault ratios from the accumulated sums.
fn finish_engine_metrics(m: &mut Metrics) {
    let ns_per = |busy: f64, deliveries: f64| {
        if deliveries > 0.0 {
            busy * 1e9 / deliveries
        } else {
            0.0
        }
    };
    m.set(
        "sim.engine.ns_per_delivery",
        ns_per(m.get("sim.engine.busy_s"), m.get("sim.engine.deliveries")),
    );
    for family in ["labeling", "general-broadcast", "mapping"] {
        let value = ns_per(
            m.get(&format!("tmp.engine.{family}.busy_s")),
            m.get(&format!("tmp.engine.{family}.deliveries")),
        );
        m.set(&format!("sim.engine.{family}.ns_per_delivery"), value);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.set(
        "sim.faults.reflood_bits_ratio",
        ratio(m.get("tmp.reflood_bits"), m.get("tmp.retry_total_bits")),
    );
    m.set(
        "sim.faults.starved_ratio",
        ratio(m.get("tmp.starved_runs"), m.get("tmp.fault_runs")),
    );
}
