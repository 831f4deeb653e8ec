//! Machine-readable benchmark baselines (`BENCH_*.json`) and the key-drift
//! smoke check.
//!
//! The vendored criterion shim cannot compare runs against a stored baseline,
//! so the workspace keeps hand-rolled JSON baselines regenerated by the
//! `bench_interval_algebra` and `bench_mapping` binaries. This module holds the
//! shared pieces:
//!
//! * [`SampleConfig`] — how hard to measure: [`SampleConfig::full`] for real
//!   baselines, [`SampleConfig::smoke`] for a single-iteration pass whose
//!   *numbers* are meaningless but whose *structure* is identical;
//! * the JSON generators themselves ([`interval_algebra_json`],
//!   [`mapping_json`], [`labeling_json`], [`faults_json`], [`scaling_json`]),
//!   used by both the regeneration binaries and the `bench_smoke` /
//!   `bench_scaling --smoke` CI steps;
//! * [`result_keys`] — extracts the identity of every benchmark row (all
//!   fields except the measured `*_ns` values), so CI can detect baseline
//!   drift — a bench grid that gained, lost or renamed entries without the
//!   committed baseline being regenerated — without real criterion.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use anet_core::{general_broadcast, labeling, mapping, Payload};
use anet_num::{reference as num_reference, IntervalUnion};
use anet_sim::engine::{run_recovering, run_with_config, ExecutionConfig, RunConfig};
use anet_sim::scheduler::FifoScheduler;
use anet_sim::{FaultPlan, FaultyScheduler, Outcome, RefloodProtocol};

use crate::{mapping_flood_workloads, striped_union};

/// Sampling effort for [`median_ns`].
#[derive(Debug, Clone, Copy)]
pub struct SampleConfig {
    /// Number of timed samples (the median is reported).
    pub samples: usize,
    /// Calibration target: iterations are doubled until one sample takes at
    /// least this long. Zero skips calibration entirely (no warm-up run).
    pub min_sample_micros: u128,
    /// Upper bound on the calibrated per-sample iteration count.
    pub max_iters: u64,
    /// Whether to cross-check fast/reference agreement before timing each
    /// workload. The differential test suites own equivalence; the smoke pass
    /// only checks baseline *structure*, so it skips the extra runs.
    pub cross_check: bool,
    /// Skip *executing* the owned-record mapping reference on workloads with
    /// more than this many edges, emitting their rows with a zero placeholder
    /// instead (keys are unaffected). The reference is quadratic and costs
    /// ~50 s per run on the largest grid cell; the smoke pass caps it — the
    /// same economy as `REFERENCE_EDGE_CAP` in the `mapping_flood` bench —
    /// while real baselines measure everything.
    pub reference_edge_cap: Option<usize>,
}

impl SampleConfig {
    /// Real-baseline effort: 9 samples of ≥ 1 ms each, cross-checked, nothing
    /// capped.
    pub fn full() -> Self {
        SampleConfig {
            samples: 9,
            min_sample_micros: 1_000,
            max_iters: 1 << 20,
            cross_check: true,
            reference_edge_cap: None,
        }
    }

    /// Structure-only effort: every benchmark runs exactly once (no warm-up,
    /// no cross-check, quadratic reference capped on the biggest cells). The
    /// emitted JSON has the same rows as a full run; only the numbers are
    /// noise.
    pub fn smoke() -> Self {
        SampleConfig {
            samples: 1,
            min_sample_micros: 0,
            max_iters: 1,
            cross_check: false,
            reference_edge_cap: Some(300),
        }
    }

    /// Scaling-baseline effort: runs at n up to 10⁶ take whole seconds, so
    /// there is no iteration calibration (each sample is one run) and five
    /// samples per cell suffice for a stable median; the flat / reference
    /// cross-check stays on.
    pub fn scaling() -> Self {
        SampleConfig {
            samples: 5,
            min_sample_micros: 0,
            max_iters: 1,
            cross_check: true,
            reference_edge_cap: None,
        }
    }
}

/// Median wall-clock nanoseconds per call over `cfg.samples` samples, with an
/// iteration count calibrated per `cfg`.
pub fn median_ns(cfg: &SampleConfig, mut f: impl FnMut()) -> u64 {
    let mut iters = 1u64;
    if cfg.min_sample_micros > 0 {
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = start.elapsed();
            if elapsed.as_micros() >= cfg.min_sample_micros || iters >= cfg.max_iters {
                break;
            }
            iters *= 2;
        }
    }
    let mut samples: Vec<u64> = (0..cfg.samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            (start.elapsed().as_nanos() as u64) / iters.max(1)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Like [`median_ns`], for a routine that needs a fresh input per call:
/// each sample builds `iters` inputs with `setup`, in batches of at most 16,
/// outside the timed region and times `routine` on each. The iteration count
/// is fixed rather than calibrated, because building an input (a copy of a
/// large state) can cost far more than the routine itself; a smoke config
/// runs one iteration.
pub fn median_ns_batched<T>(
    cfg: &SampleConfig,
    iters: usize,
    mut setup: impl FnMut() -> T,
    mut routine: impl FnMut(&mut T),
) -> u64 {
    let iters = if cfg.min_sample_micros == 0 { 1 } else { iters };
    let mut samples: Vec<u64> = (0..cfg.samples.max(1))
        .map(|_| {
            let mut elapsed = std::time::Duration::ZERO;
            let mut left = iters;
            while left > 0 {
                let batch = left.min(16);
                let mut inputs: Vec<T> = (0..batch).map(|_| setup()).collect();
                let start = Instant::now();
                for input in &mut inputs {
                    routine(input);
                }
                elapsed += start.elapsed();
                left -= batch;
            }
            (elapsed.as_nanos() as u64) / iters as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

const INTERVAL_SIZES: &[usize] = &[10, 100, 1_000, 10_000];
/// State sizes of the delta-versus-state rows.
const DELTA_STATE_SIZES: &[usize] = &[100, 1_000, 10_000];
/// Timed in-place unions per sample of a delta-versus-state row.
const DELTA_UNION_ITERS: usize = 64;
const REFERENCE_DIFFERENCE_CAP: usize = 1_000;

/// A binary interval-set operation.
type SetOp = fn(&IntervalUnion, &IntervalUnion) -> IntervalUnion;

fn interval_operands(op: &str, n: usize, heap: bool) -> (IntervalUnion, IntervalUnion) {
    if op == "union" {
        (
            striped_union(n, 2, 0, 1, heap),
            striped_union(n, 2, 1, 1, heap),
        )
    } else {
        (
            striped_union(n, 4, 0, 2, heap),
            striped_union(n, 4, 1, 2, heap),
        )
    }
}

/// Generates the `BENCH_interval_algebra.json` contents: the interval-algebra
/// fast paths versus the retained reference implementations over the striped
/// workload sweep, then the per-delivery shape ([`crate::delta_operands`]): a
/// one-interval delta merged into an unshared state in place
/// (`union_in_place/delta`) and carved by it (`difference/delta`, the delta
/// minus the state), against states of 100 to 10 000 intervals.
pub fn interval_algebra_json(cfg: &SampleConfig) -> String {
    struct Record {
        op: &'static str,
        implementation: &'static str,
        endpoints: &'static str,
        intervals: usize,
        median_ns: u64,
    }

    let ops: &[(&'static str, SetOp, SetOp)] = &[
        ("union", |a, b| a.union(b), num_reference::union),
        (
            "intersection",
            |a, b| a.intersection(b),
            num_reference::intersection,
        ),
        (
            "difference",
            |a, b| a.difference(b),
            num_reference::difference,
        ),
    ];

    let mut records: Vec<Record> = Vec::new();
    for &(op, fast, slow) in ops {
        for &n in INTERVAL_SIZES {
            for (heap, repr) in [(false, "inline"), (true, "heap")] {
                let (a, b) = interval_operands(op, n, heap);
                if cfg.cross_check {
                    assert_eq!(fast(&a, &b), slow(&a, &b), "fast/reference divergence");
                }
                records.push(Record {
                    op,
                    implementation: "fast",
                    endpoints: repr,
                    intervals: n,
                    median_ns: median_ns(cfg, || {
                        std::hint::black_box(fast(&a, &b));
                    }),
                });
                if op != "difference" || n <= REFERENCE_DIFFERENCE_CAP {
                    records.push(Record {
                        op,
                        implementation: "reference",
                        endpoints: repr,
                        intervals: n,
                        median_ns: median_ns(cfg, || {
                            std::hint::black_box(slow(&a, &b));
                        }),
                    });
                }
            }
        }
    }

    for &n in DELTA_STATE_SIZES {
        for (heap, repr) in [(false, "inline"), (true, "heap")] {
            let (state, delta) = crate::delta_operands(n, heap);
            if cfg.cross_check {
                let mut merged = state.deep_clone();
                assert!(merged.union_in_place(&delta));
                assert_eq!(merged, num_reference::union(&state, &delta));
                assert_eq!(
                    delta.difference(&state),
                    num_reference::difference(&delta, &state)
                );
            }
            let row = |op, implementation, median_ns| Record {
                op,
                implementation,
                endpoints: repr,
                intervals: n,
                median_ns,
            };
            records.push(row(
                "union_in_place/delta",
                "fast",
                median_ns_batched(
                    cfg,
                    DELTA_UNION_ITERS,
                    || state.deep_clone(),
                    |acc| {
                        std::hint::black_box(acc.union_in_place(&delta));
                    },
                ),
            ));
            records.push(row(
                "union_in_place/delta",
                "reference",
                median_ns(cfg, || {
                    std::hint::black_box(num_reference::union(&state, &delta));
                }),
            ));
            records.push(row(
                "difference/delta",
                "fast",
                median_ns(cfg, || {
                    std::hint::black_box(delta.difference(&state));
                }),
            ));
            records.push(row(
                "difference/delta",
                "reference",
                median_ns(cfg, || {
                    std::hint::black_box(num_reference::difference(&delta, &state));
                }),
            ));
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"interval_algebra\",\n");
    json.push_str("  \"unit\": \"ns_per_call_median\",\n");
    json.push_str("  \"workload\": \"striped_union fragmentation sweep (see crates/bench)\",\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"op\": \"{}\", \"impl\": \"{}\", \"endpoints\": \"{}\", \"intervals\": {}, \"median_ns\": {}}}{}",
            escape_json(r.op),
            escape_json(r.implementation),
            escape_json(r.endpoints),
            r.intervals,
            r.median_ns,
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"speedup_reference_over_fast\": {\n");
    let mut speedups: Vec<String> = Vec::new();
    for r in records.iter().filter(|r| r.implementation == "fast") {
        if let Some(slow) = records.iter().find(|s| {
            s.implementation == "reference"
                && s.op == r.op
                && s.endpoints == r.endpoints
                && s.intervals == r.intervals
        }) {
            speedups.push(format!(
                "    \"{}/{}/{}\": {:.2}",
                r.op,
                r.endpoints,
                r.intervals,
                slow.median_ns as f64 / r.median_ns.max(1) as f64
            ));
        }
    }
    json.push_str(&speedups.join(",\n"));
    json.push_str("\n  }\n}\n");
    json
}

/// Generates the `BENCH_mapping.json` contents: full interned mapping runs
/// versus the retained owned-record reference (`anet_core::mapping::reference`)
/// over the record-bound topology grid, FIFO delivery.
///
/// Every workload is cross-checked once before timing: both implementations
/// must terminate and report identical total wire bits.
pub fn mapping_json(cfg: &SampleConfig) -> String {
    mapping_json_for(&mapping_flood_workloads(), cfg)
}

/// [`mapping_json`] over an explicit workload list (the baselines always use
/// [`mapping_flood_workloads`]; tests use tiny grids).
pub fn mapping_json_for(workloads: &[crate::Workload], cfg: &SampleConfig) -> String {
    struct Record {
        topology: String,
        implementation: &'static str,
        median_ns: u64,
    }

    let mut records: Vec<Record> = Vec::new();
    for w in workloads {
        if cfg.cross_check {
            let a = mapping::run_mapping(&w.network, &mut FifoScheduler::new())
                .expect("interned run completes");
            let b = mapping::reference::run_mapping(&w.network, &mut FifoScheduler::new())
                .expect("reference run completes");
            assert!(a.terminated && b.terminated, "workload {}", w.name);
            assert_eq!(
                a.metrics.total_bits, b.metrics.total_bits,
                "wire accounting diverged on {}",
                w.name
            );
        }
        records.push(Record {
            topology: w.name.clone(),
            implementation: "interned",
            median_ns: median_ns(cfg, || {
                std::hint::black_box(
                    mapping::run_mapping(&w.network, &mut FifoScheduler::new())
                        .expect("run completes"),
                );
            }),
        });
        let reference_capped = cfg
            .reference_edge_cap
            .is_some_and(|cap| w.network.edge_count() > cap);
        records.push(Record {
            topology: w.name.clone(),
            implementation: "reference",
            median_ns: if reference_capped {
                0
            } else {
                median_ns(cfg, || {
                    std::hint::black_box(
                        mapping::reference::run_mapping(&w.network, &mut FifoScheduler::new())
                            .expect("run completes"),
                    );
                })
            },
        });
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"mapping_flood\",\n");
    json.push_str("  \"unit\": \"ns_per_run_median\",\n");
    json.push_str(
        "  \"workload\": \"FIFO topology-mapping runs over the record-bound grid (see crates/bench)\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"topology\": \"{}\", \"impl\": \"{}\", \"median_ns\": {}}}{}",
            escape_json(&r.topology),
            escape_json(r.implementation),
            r.median_ns,
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"speedup_reference_over_interned\": {\n");
    let mut speedups: Vec<String> = Vec::new();
    for r in records.iter().filter(|r| r.implementation == "interned") {
        if let Some(slow) = records
            .iter()
            .find(|s| s.implementation == "reference" && s.topology == r.topology)
        {
            speedups.push(format!(
                "    \"{}\": {:.2}",
                escape_json(&r.topology),
                slow.median_ns as f64 / r.median_ns.max(1) as f64
            ));
        }
    }
    json.push_str(&speedups.join(",\n"));
    json.push_str("\n  }\n}\n");
    json
}

/// Payload size used by the general-broadcast rows of the labeling baseline.
const LABELING_PAYLOAD_BITS: u64 = 64;

/// Generates the `BENCH_labeling.json` contents: full protocol runs of the
/// copy-on-write endpoint-array implementations of the **labelling** and
/// **general-broadcast** protocols versus their retained deep-clone references
/// (`anet_core::labeling::reference`, `anet_core::general_broadcast::reference`)
/// over the record-bound topology grid, FIFO delivery.
///
/// Every workload is cross-checked once before timing: both implementations
/// must terminate and report identical total wire bits (and, for labelling,
/// identical labels).
pub fn labeling_json(cfg: &SampleConfig) -> String {
    labeling_json_for(&mapping_flood_workloads(), cfg)
}

/// [`labeling_json`] over an explicit workload list (the baselines always use
/// [`mapping_flood_workloads`]; tests use tiny grids).
pub fn labeling_json_for(workloads: &[crate::Workload], cfg: &SampleConfig) -> String {
    struct Record {
        protocol: &'static str,
        topology: String,
        implementation: &'static str,
        median_ns: u64,
    }

    let mut records: Vec<Record> = Vec::new();
    for w in workloads {
        if cfg.cross_check {
            let a = labeling::run_labeling(&w.network, &mut FifoScheduler::new())
                .expect("cow labeling run completes");
            let b = labeling::reference::run_labeling(&w.network, &mut FifoScheduler::new())
                .expect("reference labeling run completes");
            assert!(a.terminated && b.terminated, "workload {}", w.name);
            assert_eq!(
                a.metrics.total_bits, b.metrics.total_bits,
                "labeling wire accounting diverged on {}",
                w.name
            );
            assert_eq!(a.labels, b.labels, "labels diverged on {}", w.name);
            let payload = Payload::synthetic(LABELING_PAYLOAD_BITS);
            let ga = general_broadcast::run_general_broadcast(
                &w.network,
                payload.clone(),
                &mut FifoScheduler::new(),
            )
            .expect("cow broadcast run completes");
            let gb = general_broadcast::reference::run_general_broadcast(
                &w.network,
                payload,
                &mut FifoScheduler::new(),
            )
            .expect("reference broadcast run completes");
            assert!(ga.terminated && gb.terminated, "workload {}", w.name);
            assert_eq!(
                ga.metrics.total_bits, gb.metrics.total_bits,
                "broadcast wire accounting diverged on {}",
                w.name
            );
        }
        let reference_capped = cfg
            .reference_edge_cap
            .is_some_and(|cap| w.network.edge_count() > cap);
        let mut push = |protocol: &'static str,
                        implementation: &'static str,
                        capped: bool,
                        run: &mut dyn FnMut()| {
            records.push(Record {
                protocol,
                topology: w.name.clone(),
                implementation,
                median_ns: if capped { 0 } else { median_ns(cfg, run) },
            });
        };
        push("labeling", "cow", false, &mut || {
            std::hint::black_box(
                labeling::run_labeling(&w.network, &mut FifoScheduler::new())
                    .expect("run completes"),
            );
        });
        push("labeling", "reference", reference_capped, &mut || {
            std::hint::black_box(
                labeling::reference::run_labeling(&w.network, &mut FifoScheduler::new())
                    .expect("run completes"),
            );
        });
        push("general-broadcast", "cow", false, &mut || {
            std::hint::black_box(
                general_broadcast::run_general_broadcast(
                    &w.network,
                    Payload::synthetic(LABELING_PAYLOAD_BITS),
                    &mut FifoScheduler::new(),
                )
                .expect("run completes"),
            );
        });
        push(
            "general-broadcast",
            "reference",
            reference_capped,
            &mut || {
                std::hint::black_box(
                    general_broadcast::reference::run_general_broadcast(
                        &w.network,
                        Payload::synthetic(LABELING_PAYLOAD_BITS),
                        &mut FifoScheduler::new(),
                    )
                    .expect("run completes"),
                );
            },
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"label_algebra\",\n");
    json.push_str("  \"unit\": \"ns_per_run_median\",\n");
    json.push_str(
        "  \"workload\": \"FIFO labeling and general-broadcast runs over the record-bound grid (see crates/bench)\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"protocol\": \"{}\", \"topology\": \"{}\", \"impl\": \"{}\", \"median_ns\": {}}}{}",
            escape_json(r.protocol),
            escape_json(&r.topology),
            escape_json(r.implementation),
            r.median_ns,
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"speedup_reference_over_cow\": {\n");
    let mut speedups: Vec<String> = Vec::new();
    for r in records.iter().filter(|r| r.implementation == "cow") {
        if let Some(slow) = records.iter().find(|s| {
            s.implementation == "reference" && s.protocol == r.protocol && s.topology == r.topology
        }) {
            speedups.push(format!(
                "    \"{}/{}\": {:.2}",
                escape_json(r.protocol),
                escape_json(&r.topology),
                slow.median_ns as f64 / r.median_ns.max(1) as f64
            ));
        }
    }
    json.push_str(&speedups.join(",\n"));
    json.push_str("\n  }\n}\n");
    json
}

/// Fault plans measured by the [`faults_json`] baseline, keyed by mode name.
///
/// `wrapped-reliable` is the adapter-overhead row: a [`FaultyScheduler`]
/// around FIFO with the all-zero plan, whose run is cross-checked
/// **bit-identical** (full [`anet_sim::metrics::RunMetrics`] and labels) to
/// the bare scheduler before any timing happens.
fn fault_modes() -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("reliable", None),
        ("wrapped-reliable", Some(FaultPlan::reliable())),
        (
            "lossy",
            Some(
                FaultPlan::reliable()
                    .with_drops(10)
                    .with_duplicates(5)
                    .with_reorder(2)
                    .with_seed(7),
            ),
        ),
        (
            "heavy",
            Some(
                FaultPlan::reliable()
                    .with_drops(30)
                    .with_duplicates(20)
                    .with_reorder(4)
                    .with_seed(7),
            ),
        ),
    ]
}

/// Generates the `BENCH_faults.json` contents: full FIFO mapping runs under
/// the fault-injection layer ([`FaultyScheduler`]) versus the bare scheduler,
/// over the record-bound topology grid. The `wrapped-reliable` rows measure
/// the pure adapter overhead (no RNG draws on the zero-fault plan); the
/// `lossy`/`heavy` rows measure adversarial plans that actually drop,
/// duplicate and reorder.
pub fn faults_json(cfg: &SampleConfig) -> String {
    faults_json_for(&mapping_flood_workloads(), cfg)
}

/// [`faults_json`] over an explicit workload list (the baseline always uses
/// [`mapping_flood_workloads`]; tests use tiny grids).
pub fn faults_json_for(workloads: &[crate::Workload], cfg: &SampleConfig) -> String {
    struct Record {
        topology: String,
        mode: &'static str,
        median_ns: u64,
    }

    let run_mode = |network: &anet_graph::Network, plan: &Option<FaultPlan>| match plan {
        None => mapping::run_mapping(network, &mut FifoScheduler::new()),
        Some(plan) => mapping::run_mapping(
            network,
            &mut FaultyScheduler::new(FifoScheduler::new(), plan.clone()),
        ),
    };

    let modes = fault_modes();
    let mut records: Vec<Record> = Vec::new();
    for w in workloads {
        if cfg.cross_check {
            // The zero-fault plan must be invisible: identical termination,
            // identical metrics (every counter and per-edge total), identical
            // labels.
            let bare = mapping::run_mapping(&w.network, &mut FifoScheduler::new())
                .expect("bare run completes");
            let wrapped = mapping::run_mapping(
                &w.network,
                &mut FaultyScheduler::new(FifoScheduler::new(), FaultPlan::reliable()),
            )
            .expect("wrapped run completes");
            assert!(bare.terminated, "workload {}", w.name);
            assert_eq!(
                bare.terminated, wrapped.terminated,
                "zero-fault termination diverged on {}",
                w.name
            );
            assert_eq!(
                bare.metrics, wrapped.metrics,
                "zero-fault metrics diverged on {}",
                w.name
            );
            assert_eq!(
                bare.labels, wrapped.labels,
                "zero-fault labels diverged on {}",
                w.name
            );
        }
        for (mode, plan) in &modes {
            records.push(Record {
                topology: w.name.clone(),
                mode,
                median_ns: median_ns(cfg, || {
                    std::hint::black_box(
                        run_mode(&w.network, plan).expect("faulted run completes"),
                    );
                }),
            });
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"fault_injection\",\n");
    json.push_str("  \"unit\": \"ns_per_run_median\",\n");
    json.push_str(
        "  \"workload\": \"FIFO mapping runs under fault-injection plans over the record-bound grid (see crates/bench)\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"topology\": \"{}\", \"mode\": \"{}\", \"median_ns\": {}}}{}",
            escape_json(&r.topology),
            escape_json(r.mode),
            r.median_ns,
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"overhead_wrapped_reliable_over_reliable\": {\n");
    let mut overheads: Vec<String> = Vec::new();
    for r in records.iter().filter(|r| r.mode == "wrapped-reliable") {
        if let Some(bare) = records
            .iter()
            .find(|s| s.mode == "reliable" && s.topology == r.topology)
        {
            overheads.push(format!(
                "    \"{}\": {:.2}",
                escape_json(&r.topology),
                r.median_ns as f64 / bare.median_ns.max(1) as f64
            ));
        }
    }
    json.push_str(&overheads.join(",\n"));
    json.push_str("\n  }\n}\n");
    json
}

/// Drop-intensity ramp measured by [`recovery_json`], in percent.
const RECOVERY_RAMP: &[u8] = &[0, 10, 20, 30];
/// Plan-stream seed shared by every ramp point (the same seed the committed
/// `crates/sweep/specs/recovery.spec` uses for its ramp).
const RECOVERY_SEED: u64 = 7;
/// Re-flood budget of the retry variants.
const RECOVERY_RETRY_BUDGET: u32 = 6;

/// One row of the recovery baseline. Everything except `median_ns` is a pure
/// function of the (protocol, topology, ramp point, variant) cell — the wire
/// and outcome columns are part of the row *key*, so `bench_smoke` flags any
/// behavioural drift of the recovery layer, not just grid drift.
struct RecoveryRecord {
    protocol: &'static str,
    topology: String,
    drop_pct: u8,
    variant: &'static str,
    outcome: &'static str,
    recovered: bool,
    sent: u64,
    delivered: u64,
    total_bits: u64,
    reflood_bits: u64,
    median_ns: u64,
}

fn recovery_outcome(outcome: Outcome, lost: u64) -> &'static str {
    match outcome {
        Outcome::Terminated => "terminated",
        Outcome::Quiescent if lost > 0 => "starved",
        Outcome::Quiescent => "quiescent",
        Outcome::BudgetExhausted => "budget-exhausted",
    }
}

fn recovery_config() -> RunConfig {
    RunConfig::from(ExecutionConfig {
        max_deliveries: 2_000_000,
        record_trace: false,
    })
}

/// Runs one protocol over the recovery grid, appending its rows.
///
/// Before any timing on a workload (full mode), the reliable-plan retry run
/// is cross-checked **bit-identical** to the pristine single-shot run — zero
/// re-flood rounds, equal outcome, equal full metrics — which is what makes
/// the overhead columns attributable to recovery rather than to the wrapper.
fn recovery_rows<P: RefloodProtocol>(
    protocol_name: &'static str,
    protocol: &P,
    recovered: &dyn Fn(&anet_graph::Network, &[P::State]) -> bool,
    workloads: &[crate::Workload],
    cfg: &SampleConfig,
    records: &mut Vec<RecoveryRecord>,
) {
    for w in workloads {
        let pristine = run_with_config(
            &w.network,
            protocol,
            &mut FifoScheduler::new(),
            recovery_config(),
        );
        if cfg.cross_check {
            let rel = run_recovering(
                &w.network,
                protocol,
                &mut FaultyScheduler::new(FifoScheduler::new(), FaultPlan::reliable()),
                recovery_config(),
                RECOVERY_RETRY_BUDGET,
            );
            assert_eq!(
                rel.reflood_rounds, 0,
                "reliable plan re-flooded on {}/{}",
                protocol_name, w.name
            );
            assert_eq!(
                rel.result.outcome, pristine.outcome,
                "reliable retry outcome diverged on {}/{}",
                protocol_name, w.name
            );
            assert_eq!(
                rel.result.metrics, pristine.metrics,
                "reliable retry metrics diverged on {}/{}",
                protocol_name, w.name
            );
            assert!(
                recovered(&w.network, &rel.result.states),
                "reliable retry failed the success predicate on {}/{}",
                protocol_name,
                w.name
            );
        }
        records.push(RecoveryRecord {
            protocol: protocol_name,
            topology: w.name.clone(),
            drop_pct: 0,
            variant: "pristine",
            outcome: recovery_outcome(pristine.outcome, pristine.metrics.messages_lost()),
            recovered: pristine.outcome == Outcome::Terminated
                && recovered(&w.network, &pristine.states),
            sent: pristine.metrics.messages_sent,
            delivered: pristine.metrics.messages_delivered,
            total_bits: pristine.metrics.total_bits,
            reflood_bits: 0,
            median_ns: median_ns(cfg, || {
                std::hint::black_box(run_with_config(
                    &w.network,
                    protocol,
                    &mut FifoScheduler::new(),
                    recovery_config(),
                ));
            }),
        });
        for &drop in RECOVERY_RAMP {
            let plan = FaultPlan::reliable()
                .with_drops(drop)
                .with_seed(RECOVERY_SEED);
            let single = run_with_config(
                &w.network,
                protocol,
                &mut FaultyScheduler::new(FifoScheduler::new(), plan.clone()),
                recovery_config(),
            );
            records.push(RecoveryRecord {
                protocol: protocol_name,
                topology: w.name.clone(),
                drop_pct: drop,
                variant: "single-shot",
                outcome: recovery_outcome(single.outcome, single.metrics.messages_lost()),
                recovered: single.outcome == Outcome::Terminated
                    && recovered(&w.network, &single.states),
                sent: single.metrics.messages_sent,
                delivered: single.metrics.messages_delivered,
                total_bits: single.metrics.total_bits,
                reflood_bits: 0,
                median_ns: median_ns(cfg, || {
                    std::hint::black_box(run_with_config(
                        &w.network,
                        protocol,
                        &mut FaultyScheduler::new(FifoScheduler::new(), plan.clone()),
                        recovery_config(),
                    ));
                }),
            });
            let retry = run_recovering(
                &w.network,
                protocol,
                &mut FaultyScheduler::new(FifoScheduler::new(), plan.clone()),
                recovery_config(),
                RECOVERY_RETRY_BUDGET,
            );
            records.push(RecoveryRecord {
                protocol: protocol_name,
                topology: w.name.clone(),
                drop_pct: drop,
                variant: "retry",
                outcome: recovery_outcome(
                    retry.result.outcome,
                    retry.result.metrics.messages_lost(),
                ),
                recovered: retry.result.outcome == Outcome::Terminated
                    && recovered(&w.network, &retry.result.states),
                sent: retry.result.metrics.messages_sent,
                delivered: retry.result.metrics.messages_delivered,
                total_bits: retry.result.metrics.total_bits,
                reflood_bits: retry.reflood_bits,
                median_ns: median_ns(cfg, || {
                    std::hint::black_box(run_recovering(
                        &w.network,
                        protocol,
                        &mut FaultyScheduler::new(FifoScheduler::new(), plan.clone()),
                        recovery_config(),
                        RECOVERY_RETRY_BUDGET,
                    ));
                }),
            });
        }
    }
}

/// Generates the `BENCH_recovery.json` contents: the recovery cost of the
/// re-flood retry variants across the drop-intensity ramp, for all three
/// protocols over the recovery topology grid, FIFO delivery.
///
/// Each ramp point carries two variants under the *same* fault plan: the
/// `single-shot` run (what the pristine protocol does under that loss rate —
/// usually starving on single-path topologies) and the `retry` run (the
/// re-flood wrapper with a fixed budget). The `pristine` row is the fault-free
/// baseline the overhead map diffs against. All outcome and wire columns are
/// deterministic and participate in the smoke keys.
pub fn recovery_json(cfg: &SampleConfig) -> String {
    recovery_json_for(&crate::recovery_workloads(), cfg)
}

/// [`recovery_json`] over an explicit workload list (the baseline always uses
/// [`crate::recovery_workloads`]; tests use tiny grids).
pub fn recovery_json_for(workloads: &[crate::Workload], cfg: &SampleConfig) -> String {
    let mut records: Vec<RecoveryRecord> = Vec::new();
    recovery_rows(
        "mapping",
        &mapping::Mapping::new(),
        &mapping::mapping_recovered,
        workloads,
        cfg,
        &mut records,
    );
    recovery_rows(
        "labeling",
        &labeling::Labeling::new(),
        &labeling::labeling_recovered,
        workloads,
        cfg,
        &mut records,
    );
    recovery_rows(
        "general-broadcast",
        &general_broadcast::GeneralBroadcast::new(Payload::synthetic(LABELING_PAYLOAD_BITS)),
        &general_broadcast::general_recovered,
        workloads,
        cfg,
        &mut records,
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"recovery_cost\",\n");
    json.push_str("  \"unit\": \"ns_per_run_median\",\n");
    json.push_str(
        "  \"workload\": \"FIFO runs with re-flood retries across the drop-intensity ramp (see crates/bench)\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"protocol\": \"{}\", \"topology\": \"{}\", \"drop_pct\": {}, \"variant\": \"{}\", \"outcome\": \"{}\", \"recovered\": {}, \"sent\": {}, \"delivered\": {}, \"total_bits\": {}, \"reflood_bits\": {}, \"median_ns\": {}}}{}",
            escape_json(r.protocol),
            escape_json(&r.topology),
            r.drop_pct,
            escape_json(r.variant),
            escape_json(r.outcome),
            r.recovered,
            r.sent,
            r.delivered,
            r.total_bits,
            r.reflood_bits,
            r.median_ns,
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"overhead_retry_bits_over_pristine\": {\n");
    let mut overheads: Vec<String> = Vec::new();
    for r in records
        .iter()
        .filter(|r| r.variant == "retry" && r.recovered)
    {
        if let Some(base) = records.iter().find(|s| {
            s.variant == "pristine" && s.protocol == r.protocol && s.topology == r.topology
        }) {
            overheads.push(format!(
                "    \"{}/{}/d{}\": {}",
                escape_json(r.protocol),
                escape_json(&r.topology),
                r.drop_pct,
                r.total_bits as i64 - base.total_bits as i64
            ));
        }
    }
    json.push_str(&overheads.join(",\n"));
    json.push_str("\n  }\n}\n");
    json
}

/// Heights of the scaling grid's full grounded trees (arity
/// [`SCALING_ARITY`]): heights 3..=6 give n = 1_113, 11_113, 111_113 and
/// 1_111_113 nodes — the n ∈ {10³..10⁶} ladder of the flat-engine scaling
/// story.
pub const SCALING_HEIGHTS: &[usize] = &[3, 4, 5, 6];

/// Arity of the scaling grid's trees: 10 children per vertex keeps the node
/// count a near-power-of-ten per height while the depth (and therefore label
/// sizes and in-flight message count) stays logarithmic.
pub const SCALING_ARITY: usize = 10;

/// Tallest tree the topology-mapping protocol is run on. Its record flood
/// is a constant factor heavier than the labelling core, but under the
/// depth-first schedule and the accumulator fast path it completes the
/// n ≈ 10⁶ cell in seconds, so it runs the whole ladder.
pub const SCALING_MAPPING_MAX_HEIGHT: usize = 6;

/// Height of the `--verify-large` flat-vs-queue-forest differential
/// (n ≈ 10⁵): large enough to exercise every large-n fast path, small
/// enough for CI to afford it on every push.
pub const SCALING_DIFFERENTIAL_HEIGHT: usize = 5;

/// Tallest tree the O(E · deliveries) full-scan reference engine is run on
/// (n ≈ 10⁴, the ≥ 5× acceptance cell); above that a single scan pass is
/// minutes, which is a statement about the old engine, not a measurement.
pub const SCALING_FULL_SCAN_MAX_HEIGHT: usize = 4;

struct ScalingRecord {
    protocol: &'static str,
    nodes: usize,
    edges: usize,
    engine: &'static str,
    outcome: &'static str,
    sent: u64,
    delivered: u64,
    total_bits: u64,
    median_ns: u64,
}

fn outcome_name(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Terminated => "terminated",
        Outcome::Quiescent => "quiescent",
        Outcome::BudgetExhausted => "budget-exhausted",
    }
}

/// Runs `run` once for the deterministic columns, then `cfg.samples - 1`
/// more times, and reports the per-run median. No iteration calibration: a
/// scaling run is far above timer resolution, and the smoke pass (1 sample)
/// must execute each engine exactly once.
fn scaling_timed<S, M>(
    cfg: &SampleConfig,
    mut run: impl FnMut() -> anet_sim::engine::RunResult<S, M>,
) -> (anet_sim::engine::RunResult<S, M>, u64) {
    let samples = cfg.samples.max(1);
    let mut times = Vec::with_capacity(samples);
    let start = Instant::now();
    let result = run();
    times.push(start.elapsed().as_nanos() as u64);
    for _ in 1..samples {
        let start = Instant::now();
        std::hint::black_box(run());
        times.push(start.elapsed().as_nanos() as u64);
    }
    times.sort_unstable();
    (result, times[times.len() / 2])
}

/// Emits the flat / queue-forest (and, on the small cells, full-scan) rows
/// for one protocol × tree cell, cross-checking all engines bit-identical —
/// outcome, full [`anet_sim::metrics::RunMetrics`] (wire bits included),
/// termination step and `states_match` (labels / full states) — before any
/// timing when `cfg.cross_check` is set.
fn scaling_rows<P: anet_sim::AnonymousProtocol>(
    records: &mut Vec<ScalingRecord>,
    cfg: &SampleConfig,
    protocol_name: &'static str,
    protocol: &P,
    network: &anet_graph::Network,
    include_full_scan: bool,
    states_match: impl Fn(&[P::State], &[P::State]) -> bool,
) {
    use anet_sim::scheduler::DepthFirstScheduler;

    let flat = |()| {
        anet_sim::engine::run(
            network,
            protocol,
            &mut DepthFirstScheduler::new(),
            ExecutionConfig::default(),
        )
    };
    let queue_forest = |()| {
        anet_sim::run_queue_forest(
            network,
            protocol,
            &mut DepthFirstScheduler::new(),
            RunConfig {
                execution: ExecutionConfig::default(),
                record_delivery_order: false,
            },
        )
    };
    let full_scan = |()| {
        anet_sim::run_full_scan(
            network,
            protocol,
            &mut DepthFirstScheduler::new(),
            ExecutionConfig::default(),
        )
    };

    if cfg.cross_check {
        let a = flat(());
        let b = queue_forest(());
        assert_eq!(
            a.outcome,
            b.outcome,
            "{protocol_name}: flat vs queue-forest outcome diverged at n = {}",
            network.node_count()
        );
        assert_eq!(
            a.metrics,
            b.metrics,
            "{protocol_name}: flat vs queue-forest metrics diverged at n = {}",
            network.node_count()
        );
        assert_eq!(a.deliveries_at_termination, b.deliveries_at_termination);
        assert!(
            states_match(&a.states, &b.states),
            "{protocol_name}: flat vs queue-forest states diverged at n = {}",
            network.node_count()
        );
        if include_full_scan {
            let c = full_scan(());
            assert_eq!(a.outcome, c.outcome);
            assert_eq!(
                a.metrics,
                c.metrics,
                "{protocol_name}: flat vs full-scan metrics diverged at n = {}",
                network.node_count()
            );
            assert!(states_match(&a.states, &c.states));
        }
    }

    let mut push = |engine: &'static str, run: &mut dyn FnMut() -> _| {
        let (result, median_ns) = scaling_timed(cfg, run);
        eprintln!(
            "cell {protocol_name} n={} engine={engine}: {:.3} s median",
            network.node_count(),
            median_ns as f64 / 1e9
        );
        records.push(ScalingRecord {
            protocol: protocol_name,
            nodes: network.node_count(),
            edges: network.edge_count(),
            engine,
            outcome: outcome_name(result.outcome),
            sent: result.metrics.messages_sent,
            delivered: result.metrics.messages_delivered,
            total_bits: result.metrics.total_bits,
            median_ns,
        });
    };
    push("flat", &mut || flat(()));
    push("queue_forest", &mut || queue_forest(()));
    if include_full_scan {
        push("full_scan", &mut || full_scan(()));
    }
}

/// Times inserting and re-looking-up every key of `keys` in a fresh
/// `HashMap` with hasher `H` — the interner's lookup structure under the two
/// hashers the FNV swap compares.
fn hasher_ns<H: std::hash::BuildHasher + Default>(
    cfg: &SampleConfig,
    keys: &[IntervalUnion],
) -> u64 {
    median_ns(cfg, || {
        let mut map: std::collections::HashMap<&IntervalUnion, u32, H> =
            std::collections::HashMap::with_hasher(H::default());
        for (i, key) in keys.iter().enumerate() {
            map.insert(key, i as u32);
        }
        let mut total = 0u64;
        for key in keys {
            total += u64::from(*map.get(key).expect("key was just inserted"));
        }
        std::hint::black_box(total);
    })
}

/// Generates the `BENCH_scaling.json` contents: the full protocol battery
/// (labelling, general broadcast, topology mapping) on full grounded trees
/// of n ∈ {10³, 10⁴, 10⁵, 10⁶} nodes under a depth-first schedule (the
/// cache-dense delivery order — see [`anet_sim::scheduler::DepthFirstScheduler`]), measured on the
/// flat engine, the retained queue-forest engine, and (on the ≤ 10⁴ cells)
/// the O(E · deliveries) full-scan reference. Every row carries the
/// deterministic outcome and wire columns (`outcome`, `sent`, `delivered`,
/// `total_bits`), so the key-drift smoke check also pins run determinism.
/// The trailer notes the interner-hasher microbenchmark (FNV-1a, the
/// in-repo default, versus std's SipHash) and the flat engine's speedups.
pub fn scaling_json(cfg: &SampleConfig) -> String {
    use anet_graph::generators::full_grounded_tree;

    let mut records: Vec<ScalingRecord> = Vec::new();
    for &height in SCALING_HEIGHTS {
        let network = full_grounded_tree(height, SCALING_ARITY).expect("arity >= 2");
        let full_scan = height <= SCALING_FULL_SCAN_MAX_HEIGHT;
        scaling_rows(
            &mut records,
            cfg,
            "labeling",
            &labeling::Labeling::new(),
            &network,
            full_scan,
            |a, b| a == b,
        );
        scaling_rows(
            &mut records,
            cfg,
            "general-broadcast",
            &general_broadcast::GeneralBroadcast::new(Payload::synthetic(LABELING_PAYLOAD_BITS)),
            &network,
            full_scan,
            |a, b| a == b,
        );
        if height <= SCALING_MAPPING_MAX_HEIGHT {
            scaling_rows(
                &mut records,
                cfg,
                "topology-mapping",
                &mapping::Mapping::new(),
                &network,
                full_scan,
                |a: &[mapping::MappingState], b: &[mapping::MappingState]| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.label == y.label)
                },
            );
        }
    }

    // Satellite note: the interner's hash map under the in-repo FNV-1a
    // hasher (its default since the swap) versus std's SipHash, over label
    // union keys shaped like the mapping table's.
    let keys: Vec<IntervalUnion> = striped_union(512, 2, 0, 1, true)
        .iter()
        .map(IntervalUnion::from)
        .collect();
    let fnv_ns = hasher_ns::<anet_num::FnvBuildHasher>(cfg, &keys);
    let siphash_ns = hasher_ns::<std::collections::hash_map::RandomState>(cfg, &keys);

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"scaling\",\n");
    json.push_str("  \"unit\": \"ns_per_run_median\",\n");
    json.push_str(
        "  \"workload\": \"depth-first-schedule runs over full grounded trees (arity 10), n = 10^3..10^6 (see crates/bench)\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"protocol\": \"{}\", \"nodes\": {}, \"edges\": {}, \"engine\": \"{}\", \"outcome\": \"{}\", \"sent\": {}, \"delivered\": {}, \"total_bits\": {}, \"median_ns\": {}}}{}",
            escape_json(r.protocol),
            r.nodes,
            r.edges,
            escape_json(r.engine),
            escape_json(r.outcome),
            r.sent,
            r.delivered,
            r.total_bits,
            r.median_ns,
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"speedup_flat_over\": {\n");
    let mut speedups: Vec<String> = Vec::new();
    for r in records.iter().filter(|r| r.engine == "flat") {
        for slow in records
            .iter()
            .filter(|s| s.engine != "flat" && s.protocol == r.protocol && s.nodes == r.nodes)
        {
            speedups.push(format!(
                "    \"{}/{}/n{}\": {:.2}",
                escape_json(slow.engine),
                escape_json(r.protocol),
                r.nodes,
                slow.median_ns as f64 / r.median_ns.max(1) as f64
            ));
        }
    }
    json.push_str(&speedups.join(",\n"));
    json.push_str("\n  },\n  \"interner_hasher_insert_lookup_ns\": {\n");
    let _ = writeln!(json, "    \"fnv1a_ns\": {fnv_ns},");
    let _ = writeln!(json, "    \"siphash_ns\": {siphash_ns}");
    json.push_str("  }\n}\n");
    json
}

/// The `--verify-large` differential sample: every protocol at n ≈ 10⁵
/// (height [`SCALING_DIFFERENTIAL_HEIGHT`]), flat engine versus the
/// retained queue forest, pinned bit-identical the same way
/// [`scaling_json`]'s cross-check does it — without any timing, so CI can
/// afford it on every push.
pub fn verify_scaling_large() {
    use anet_graph::generators::full_grounded_tree;

    let height = SCALING_DIFFERENTIAL_HEIGHT;
    let network = full_grounded_tree(height, SCALING_ARITY).expect("arity >= 2");
    let cfg = SampleConfig {
        samples: 1,
        min_sample_micros: 0,
        max_iters: 1,
        cross_check: true,
        reference_edge_cap: None,
    };
    let mut records: Vec<ScalingRecord> = Vec::new();
    scaling_rows(
        &mut records,
        &cfg,
        "labeling",
        &labeling::Labeling::new(),
        &network,
        false,
        |a, b| a == b,
    );
    scaling_rows(
        &mut records,
        &cfg,
        "general-broadcast",
        &general_broadcast::GeneralBroadcast::new(Payload::synthetic(LABELING_PAYLOAD_BITS)),
        &network,
        false,
        |a, b| a == b,
    );
    scaling_rows(
        &mut records,
        &cfg,
        "topology-mapping",
        &mapping::Mapping::new(),
        &network,
        false,
        |a: &[mapping::MappingState], b: &[mapping::MappingState]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.label == y.label)
        },
    );
    for r in &records {
        println!(
            "ok   {} n={} engine={}: outcome={} sent={} delivered={} bits={}",
            r.protocol, r.nodes, r.engine, r.outcome, r.sent, r.delivered, r.total_bits
        );
    }
}

/// Escapes a string for embedding in a JSON string literal: backslash, quote
/// and control characters. Applied to every string field the baseline
/// generators emit, so a workload name that ever needs escaping yields valid
/// JSON instead of a corrupt baseline (the names in use today never need it,
/// so existing committed baselines are byte-unchanged). The `anet-sweep`
/// record writer deliberately does *not* escape — its parser is an exact
/// inverse over a guarded name alphabet — but its `--check` mode reuses
/// [`result_keys`] from this module.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Extracts the identity of every row in a baseline's `"results"` array: all
/// `"field": value` pairs except the measured `*_ns` numbers, joined as
/// `field=value|…`. Two baselines cover the same benchmark grid iff their key
/// sets are equal, regardless of the measured numbers.
pub fn result_keys(json: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let mut in_results = false;
    for line in json.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("\"results\"") {
            in_results = true;
            continue;
        }
        if in_results {
            if trimmed.starts_with(']') {
                break;
            }
            if let Some(body) = trimmed
                .strip_prefix('{')
                .and_then(|t| t.trim_end_matches(',').strip_suffix('}'))
            {
                let fields: Vec<String> = body
                    .split(", ")
                    .filter_map(|field| {
                        let (name, value) = field.split_once(':')?;
                        let name = name.trim().trim_matches('"');
                        if name.ends_with("_ns") {
                            return None;
                        }
                        Some(format!("{name}={}", value.trim().trim_matches('"')))
                    })
                    .collect();
                keys.insert(fields.join("|"));
            }
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_keys_ignore_measured_numbers() {
        let a = r#"{
  "bench": "x",
  "results": [
    {"op": "union", "impl": "fast", "intervals": 10, "median_ns": 123},
    {"topology": "complete-dag/8", "impl": "reference", "median_ns": 9}
  ],
  "speedup": {}
}"#;
        let b = a
            .replace("123", "99999")
            .replace("\"median_ns\": 9", "\"median_ns\": 1");
        assert_eq!(result_keys(a), result_keys(&b));
        assert_eq!(result_keys(a).len(), 2);
        assert!(result_keys(a).contains("op=union|impl=fast|intervals=10"));
        assert!(result_keys(a).contains("topology=complete-dag/8|impl=reference"));
    }

    #[test]
    fn escape_json_handles_specials_and_passes_plain_names() {
        assert_eq!(escape_json("complete-dag/8"), "complete-dag/8");
        assert_eq!(escape_json(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_json("x\ny\t"), "x\\ny\\t");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn result_keys_detect_grid_drift() {
        let a = "\"results\": [\n{\"op\": \"union\", \"median_ns\": 1}\n]";
        let b = "\"results\": [\n{\"op\": \"diff\", \"median_ns\": 1}\n]";
        assert_ne!(result_keys(a), result_keys(b));
    }

    #[test]
    fn smoke_labeling_baseline_is_well_formed() {
        let workloads = vec![
            crate::Workload {
                name: "chain-gn/3".to_owned(),
                network: anet_graph::generators::chain_gn(3).unwrap(),
            },
            crate::Workload {
                name: "cycle-with-tail/4".to_owned(),
                network: anet_graph::generators::cycle_with_tail(4).unwrap(),
            },
        ];
        let json = labeling_json_for(&workloads, &SampleConfig::smoke());
        let keys = result_keys(&json);
        // Two protocols × two implementations per workload.
        assert_eq!(keys.len(), workloads.len() * 4);
        assert!(keys.contains("protocol=labeling|topology=chain-gn/3|impl=cow"));
        assert!(
            keys.contains("protocol=general-broadcast|topology=cycle-with-tail/4|impl=reference")
        );
        assert!(json.contains("speedup_reference_over_cow"));
    }

    #[test]
    fn labeling_baseline_cross_check_accepts_the_real_grid_shape() {
        // Full-mode cross-checking on a small grid: terminated, equal wire
        // bits, equal labels — the gate every committed baseline passed.
        let workloads = vec![crate::Workload {
            name: "complete-dag/5".to_owned(),
            network: anet_graph::generators::complete_dag(5).unwrap(),
        }];
        let cfg = SampleConfig {
            samples: 1,
            min_sample_micros: 0,
            max_iters: 1,
            cross_check: true,
            reference_edge_cap: None,
        };
        let json = labeling_json_for(&workloads, &cfg);
        assert_eq!(result_keys(&json).len(), 4);
    }

    #[test]
    fn smoke_faults_baseline_is_well_formed_and_cross_checks() {
        let workloads = vec![
            crate::Workload {
                name: "chain-gn/3".to_owned(),
                network: anet_graph::generators::chain_gn(3).unwrap(),
            },
            crate::Workload {
                name: "complete-dag/4".to_owned(),
                network: anet_graph::generators::complete_dag(4).unwrap(),
            },
        ];
        // Full cross-check mode on a tiny grid: the zero-fault bit-identity
        // gate every committed BENCH_faults.json passed.
        let cfg = SampleConfig {
            samples: 1,
            min_sample_micros: 0,
            max_iters: 1,
            cross_check: true,
            reference_edge_cap: None,
        };
        let json = faults_json_for(&workloads, &cfg);
        let keys = result_keys(&json);
        // Four modes per workload.
        assert_eq!(keys.len(), workloads.len() * 4);
        assert!(keys.contains("topology=chain-gn/3|mode=reliable"));
        assert!(keys.contains("topology=chain-gn/3|mode=wrapped-reliable"));
        assert!(keys.contains("topology=complete-dag/4|mode=lossy"));
        assert!(keys.contains("topology=complete-dag/4|mode=heavy"));
        assert!(json.contains("overhead_wrapped_reliable_over_reliable"));
    }

    #[test]
    fn smoke_recovery_baseline_is_well_formed_and_cross_checks() {
        let workloads = vec![
            crate::Workload {
                name: "chain-gn/4".to_owned(),
                network: anet_graph::generators::chain_gn(4).unwrap(),
            },
            crate::Workload {
                name: "cycle-with-tail/5".to_owned(),
                network: anet_graph::generators::cycle_with_tail(5).unwrap(),
            },
        ];
        // Full cross-check mode on a tiny grid: the reliable-plan retry
        // bit-identity gate every committed BENCH_recovery.json passed.
        let cfg = SampleConfig {
            samples: 1,
            min_sample_micros: 0,
            max_iters: 1,
            cross_check: true,
            reference_edge_cap: None,
        };
        let json = recovery_json_for(&workloads, &cfg);
        let keys = result_keys(&json);
        // Three protocols × (pristine + 4 ramp points × 2 variants).
        assert_eq!(keys.len(), workloads.len() * 3 * 9);
        // The pristine rows recover by definition, and the smoke keys carry
        // the deterministic outcome columns.
        assert!(keys
            .iter()
            .any(|k| k.starts_with("protocol=mapping|topology=chain-gn/4|drop_pct=0|variant=pristine|outcome=terminated|recovered=true")));
        // Sustained loss on a single path: some retry row genuinely recovered
        // at a nonzero drop rate, and re-flood traffic was charged for it.
        assert!(json.lines().any(|l| l.contains("\"variant\": \"retry\"")
            && l.contains("\"recovered\": true")
            && !l.contains("\"drop_pct\": 0,")
            && !l.contains("\"reflood_bits\": 0,")));
        assert!(json.contains("overhead_retry_bits_over_pristine"));
    }

    #[test]
    fn smoke_mapping_baseline_is_well_formed() {
        // A tiny grid: the full record-bound grid is release-bench territory
        // (the `bench_smoke` binary covers it in CI); here we only pin the JSON
        // structure and key extraction.
        let workloads = vec![
            crate::Workload {
                name: "chain-gn/3".to_owned(),
                network: anet_graph::generators::chain_gn(3).unwrap(),
            },
            crate::Workload {
                name: "complete-dag/4".to_owned(),
                network: anet_graph::generators::complete_dag(4).unwrap(),
            },
        ];
        let json = mapping_json_for(&workloads, &SampleConfig::smoke());
        let keys = result_keys(&json);
        // Two implementations per workload.
        assert_eq!(keys.len(), workloads.len() * 2);
        assert!(keys.contains("topology=chain-gn/3|impl=interned"));
        assert!(keys.contains("topology=complete-dag/4|impl=reference"));
        assert!(json.contains("speedup_reference_over_interned"));
    }
}
