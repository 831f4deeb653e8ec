//! Machine-readable benchmark baselines (`BENCH_*.json`) and the key-drift
//! smoke check.
//!
//! The workspace commits its measurements as hand-rolled JSON baselines at
//! its root, the paper's experiment tables ([`crate::tables`]) among them.
//! Each file is one [`Baseline`]: a header, rows of deterministic key columns
//! followed by the measured `median_ns`, and named trailers derived from the
//! rows, written by the single [`Baseline::to_json`]. [`BASELINES`] registers
//! every committed file with its generator and its full-effort
//! [`SampleConfig`]; the `baseline` binary regenerates files from it and,
//! with `--smoke`, regenerates them at [`SampleConfig::smoke`] effort — one
//! run per row, so the *numbers* are noise but the *rows* are identical — and
//! compares the [`result_keys`] of both with [`keys_match`]. A grid that
//! gained, lost or renamed rows, or a deterministic column (outcomes, message
//! counts, wire bits) that moved, fails the check.

use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::hint::black_box;
use std::time::Instant;

use anet_core::{general_broadcast, labeling, mapping, Payload};
use anet_num::{reference as num_reference, IntervalUnion};
use anet_sim::engine::{run, run_observed, run_recovering, ExecutionConfig, RunResult};
use anet_sim::scheduler::FifoScheduler;
use anet_sim::{FaultPlan, FaultyScheduler, Observer, Outcome, RefloodProtocol, TraceDigest};

use crate::{mapping_flood_workloads, recovery_workloads, striped_union, Endpoints, Workload};

/// Sampling effort for [`median_ns`].
#[derive(Debug, Clone, Copy)]
pub struct SampleConfig {
    /// Number of timed samples (the median is reported).
    pub samples: usize,
    /// Calibration target: iterations are doubled, up to 2²⁰, until one
    /// sample takes at least this long. Zero skips calibration entirely (no
    /// warm-up run, one iteration per sample).
    pub min_sample_micros: u128,
    /// Whether to cross-check fast/reference agreement before timing each
    /// workload. The differential test suites own equivalence; the smoke pass
    /// only checks baseline *structure*, so it skips the extra runs.
    pub cross_check: bool,
    /// Skip *executing* the owned-record mapping reference on workloads with
    /// more than this many edges, emitting their rows with a zero placeholder
    /// instead (keys are unaffected). The reference is quadratic and costs
    /// ~50 s per run on the largest grid cell; the smoke pass caps it, while
    /// real baselines measure everything.
    pub reference_edge_cap: Option<usize>,
}

/// Upper bound on the calibrated per-sample iteration count.
const MAX_ITERS: u64 = 1 << 20;

impl SampleConfig {
    /// Real-baseline effort: 9 samples of ≥ 1 ms each, cross-checked, nothing
    /// capped.
    pub const fn full() -> Self {
        SampleConfig {
            samples: 9,
            min_sample_micros: 1_000,
            cross_check: true,
            reference_edge_cap: None,
        }
    }

    /// Structure-only effort: every benchmark runs exactly once (no warm-up,
    /// no cross-check, quadratic reference capped on the biggest cells). The
    /// emitted JSON has the same rows as a full run; only the numbers are
    /// noise.
    pub const fn smoke() -> Self {
        SampleConfig {
            samples: 1,
            min_sample_micros: 0,
            cross_check: false,
            reference_edge_cap: Some(300),
        }
    }

    /// Scaling-baseline effort: runs at n up to 10⁶ take whole seconds, so
    /// there is no iteration calibration (each sample is one run) and five
    /// samples per cell suffice for a stable median; the flat / reference
    /// cross-check stays on.
    pub const fn scaling() -> Self {
        SampleConfig {
            samples: 5,
            min_sample_micros: 0,
            cross_check: true,
            reference_edge_cap: None,
        }
    }
}

/// Median wall-clock nanoseconds per call of `f` over `cfg.samples`
/// samples, with an iteration count calibrated per `cfg`. Every result of
/// `f` passes through [`std::hint::black_box`].
pub fn median_ns<T>(cfg: &SampleConfig, mut f: impl FnMut() -> T) -> u64 {
    let mut iters = 1u64;
    if cfg.min_sample_micros > 0 {
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed.as_micros() >= cfg.min_sample_micros || iters >= MAX_ITERS {
                break;
            }
            iters *= 2;
        }
    }
    let mut samples: Vec<u64> = (0..cfg.samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
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
pub fn median_ns_batched<T, R>(
    cfg: &SampleConfig,
    iters: usize,
    mut setup: impl FnMut() -> T,
    mut routine: impl FnMut(&mut T) -> R,
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
                    black_box(routine(input));
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

/// Runs `f` once for the row's deterministic columns and reports the median
/// nanoseconds per call. With calibration on, the first run is a warm-up and
/// [`median_ns`] times further calls; without it, the first run is one of
/// `cfg.samples` single-run samples, so the smoke effort runs `f` exactly
/// once.
pub(crate) fn timed<T>(cfg: &SampleConfig, mut f: impl FnMut() -> T) -> (T, u64) {
    let start = Instant::now();
    let result = f();
    let first = start.elapsed().as_nanos() as u64;
    if cfg.min_sample_micros > 0 {
        return (result, median_ns(cfg, f));
    }
    let mut times = vec![first];
    for _ in 1..cfg.samples.max(1) {
        let start = Instant::now();
        black_box(f());
        times.push(start.elapsed().as_nanos() as u64);
    }
    times.sort_unstable();
    (result, times[times.len() / 2])
}

/// A key column of a [`Row`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A string, escaped with [`escape_json`] when written.
    Str(String),
    /// An unsigned integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// The bare value, as trailer keys spell it (strings unquoted).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One row of a baseline's `results` array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The deterministic columns in output order: the row's identity for
    /// [`result_keys`].
    pub key: Vec<(&'static str, Value)>,
    /// The measured median, written as the row's last column.
    pub median_ns: u64,
}

impl Row {
    /// The value of key column `column`; panics if the row has none.
    pub fn get(&self, column: &str) -> &Value {
        let found = self.key.iter().find(|(name, _)| *name == column);
        &found
            .unwrap_or_else(|| panic!("baseline row has no {column:?} column"))
            .1
    }

    /// The values of `columns` joined with `/`: the key of a trailer entry.
    fn joined(&self, columns: &[&str]) -> String {
        let values: Vec<String> = columns.iter().map(|c| self.get(c).to_string()).collect();
        values.join("/")
    }
}

/// A named value after a baseline's `results` array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trailer {
    /// A JSON object: ordered (key, rendered JSON value) entries.
    Map(Vec<(String, String)>),
    /// One rendered JSON value.
    Scalar(String),
}

/// The contents of one `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Benchmark name (the `bench` field).
    pub bench: &'static str,
    /// What `median_ns` measures (the `unit` field).
    pub unit: &'static str,
    /// One-line workload description.
    pub workload: String,
    /// The measured rows.
    pub rows: Vec<Row>,
    /// Named trailers, in output order.
    pub trailers: Vec<(&'static str, Trailer)>,
}

impl Baseline {
    /// Renders the baseline in the committed files' layout: one row per
    /// line, trailers after the `results` array.
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\n  \"bench\": \"{}\",\n  \"unit\": \"{}\",\n  \"workload\": \"{}\",\n  \"results\": [\n",
            self.bench,
            self.unit,
            escape_json(&self.workload)
        );
        for (i, row) in self.rows.iter().enumerate() {
            json.push_str("    {");
            for (name, value) in &row.key {
                let _ = match value {
                    Value::Str(s) => write!(json, "\"{name}\": \"{}\", ", escape_json(s)),
                    value => write!(json, "\"{name}\": {value}, "),
                };
            }
            let _ = write!(json, "\"median_ns\": {}}}", row.median_ns);
            json.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]");
        for (name, trailer) in &self.trailers {
            let _ = write!(json, ",\n  \"{name}\": ");
            match trailer {
                Trailer::Scalar(value) => json.push_str(value),
                Trailer::Map(entries) => {
                    let entries: Vec<String> = entries
                        .iter()
                        .map(|(key, value)| format!("    \"{}\": {value}", escape_json(key)))
                        .collect();
                    let _ = write!(json, "{{\n{}\n  }}", entries.join(",\n"));
                }
            }
        }
        json.push_str("\n}\n");
        json
    }
}

/// Pairs each row whose `column` is `base` with every row, in row order,
/// whose `column` is one of `partners` and that agrees with it on each `on`
/// column: the row pairs behind every `speedup_*` and `overhead_*` trailer.
fn pairs<'a>(
    rows: &'a [Row],
    column: &str,
    base: &str,
    partners: &[&str],
    on: &[&str],
) -> Vec<(&'a Row, &'a Row)> {
    let is = |row: &Row, value: &str| matches!(row.get(column), Value::Str(s) if s == value);
    let mut pairs = Vec::new();
    for row in rows.iter().filter(|row| is(row, base)) {
        for other in rows {
            if partners.iter().any(|p| is(other, p))
                && on.iter().all(|c| row.get(c) == other.get(c))
            {
                pairs.push((row, other));
            }
        }
    }
    pairs
}

/// `num / den` of two rows' medians, to two decimals: every timing ratio a
/// trailer reports.
fn ratio(num: &Row, den: &Row) -> String {
    format!("{:.2}", num.median_ns as f64 / den.median_ns.max(1) as f64)
}

/// The map from each `base` row's `on` columns to how many times slower its
/// `partner` row ran.
fn ratios(rows: &[Row], column: &str, base: &str, partner: &str, on: &[&str]) -> Trailer {
    let pairs = pairs(rows, column, base, &[partner], on);
    Trailer::Map(
        pairs
            .into_iter()
            .map(|(b, p)| (b.joined(on), ratio(p, b)))
            .collect(),
    )
}

/// One committed baseline file.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Short name; the file is `BENCH_<name>.json` at the workspace root.
    pub name: &'static str,
    /// The effort a regeneration measures at.
    pub full: SampleConfig,
    /// Builds the baseline at a given effort.
    pub generate: fn(&SampleConfig) -> Baseline,
}

impl Entry {
    /// The file's path relative to the workspace root.
    pub fn path(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// Every committed `BENCH_*.json`, in the order the smoke check runs them.
pub const BASELINES: &[Entry] = &[
    Entry {
        name: "interval_algebra",
        full: SampleConfig::full(),
        generate: interval_algebra_baseline,
    },
    Entry {
        name: "mapping",
        full: SampleConfig::full(),
        generate: |cfg| mapping_baseline(&mapping_flood_workloads(), cfg),
    },
    Entry {
        name: "labeling",
        full: SampleConfig::full(),
        generate: |cfg| labeling_baseline(&mapping_flood_workloads(), cfg),
    },
    Entry {
        name: "faults",
        full: SampleConfig::full(),
        generate: |cfg| faults_baseline(&mapping_flood_workloads(), cfg),
    },
    Entry {
        name: "recovery",
        full: SampleConfig::full(),
        generate: |cfg| recovery_baseline(&recovery_workloads(), cfg),
    },
    Entry {
        name: "scaling",
        full: SampleConfig::scaling(),
        generate: scaling_baseline,
    },
    Entry {
        name: "sweep_dedup",
        full: SampleConfig::full(),
        generate: sweep_dedup_baseline,
    },
    Entry {
        name: "tables",
        full: SampleConfig::full(),
        generate: crate::tables::tables_baseline,
    },
];

const INTERVAL_SIZES: &[usize] = &[10, 100, 1_000, 10_000];
/// State sizes of the delta-versus-state rows.
const DELTA_STATE_SIZES: &[usize] = &[100, 1_000, 10_000];
/// Timed in-place unions per sample of a delta-versus-state row.
const DELTA_UNION_ITERS: usize = 64;
/// Intervals of the delta the shared-state rows merge.
const SHARED_DELTA_INTERVALS: usize = 8;
/// The quadratic reference difference is only timed up to this size.
const REFERENCE_DIFFERENCE_CAP: usize = 1_000;

/// A binary interval-set operation.
type SetOp = fn(&IntervalUnion, &IntervalUnion) -> IntervalUnion;

/// The operands of the striped rows: `union` merges two fully interleaved
/// stripings (the merge collapses everything), `intersection` and
/// `difference` run over half-overlapping stripings that fragment into one
/// piece per stripe.
fn interval_operands(op: &str, n: usize, endpoints: Endpoints) -> (IntervalUnion, IntervalUnion) {
    if op == "union" {
        (
            striped_union(n, 2, 0, 1, endpoints),
            striped_union(n, 2, 1, 1, endpoints),
        )
    } else {
        (
            striped_union(n, 4, 0, 2, endpoints),
            striped_union(n, 4, 1, 2, endpoints),
        )
    }
}

/// `BENCH_interval_algebra.json`: the interval-algebra fast paths versus the
/// retained reference implementations over the striped workload sweep, with
/// each endpoint class of [`Endpoints`] (`inline` and `heap` are stored as
/// fixed-point words, `exact` as dyadics), then the per-delivery shape
/// ([`crate::delta_operands`]): a one-interval delta merged into an unshared
/// state in place (`union_in_place/delta`) and carved by it
/// (`difference/delta`, the delta minus the state), against states of 100 to
/// 10 000 intervals, and the redundant β echo: an O(1) `clone()` of a
/// one-interval delta carved in place by a state it lies inside
/// (`subtract_assign/echo_inside`, an empty result) or misses
/// (`subtract_assign/echo_outside`, unchanged). Last, the copy-on-write
/// detach path (`union_in_place/shared`): an 8-interval delta merged into an
/// O(1) `clone()` of a state of 10 to 10 000 intervals, which copies the
/// state's buffer before writing.
///
/// With `cfg.cross_check`, every operation is checked equal to its reference
/// on its operands before they are timed.
pub fn interval_algebra_baseline(cfg: &SampleConfig) -> Baseline {
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
    let row = |op: &str, implementation: &str, endpoints: &str, intervals: usize, median_ns| Row {
        key: vec![
            ("op", op.into()),
            ("impl", implementation.into()),
            ("endpoints", endpoints.into()),
            ("intervals", intervals.into()),
        ],
        median_ns,
    };

    let mut rows = Vec::new();
    for &(op, fast, slow) in ops {
        for &n in INTERVAL_SIZES {
            for endpoints in Endpoints::ALL {
                let repr = endpoints.name();
                let (a, b) = interval_operands(op, n, endpoints);
                if cfg.cross_check {
                    assert_eq!(fast(&a, &b), slow(&a, &b), "fast/reference divergence");
                }
                rows.push(row(op, "fast", repr, n, median_ns(cfg, || fast(&a, &b))));
                if op != "difference" || n <= REFERENCE_DIFFERENCE_CAP {
                    rows.push(row(
                        op,
                        "reference",
                        repr,
                        n,
                        median_ns(cfg, || slow(&a, &b)),
                    ));
                }
            }
        }
    }

    for &n in DELTA_STATE_SIZES {
        for endpoints in Endpoints::ALL {
            let repr = endpoints.name();
            let (state, delta) = crate::delta_operands(n, endpoints);
            if cfg.cross_check {
                let mut merged = state.deep_clone();
                assert!(merged.union_in_place(&delta));
                assert_eq!(merged, num_reference::union(&state, &delta));
                assert_eq!(
                    delta.difference(&state),
                    num_reference::difference(&delta, &state)
                );
            }
            let timed = [
                (
                    "union_in_place/delta",
                    "fast",
                    median_ns_batched(
                        cfg,
                        DELTA_UNION_ITERS,
                        || state.deep_clone(),
                        |acc| acc.union_in_place(&delta),
                    ),
                ),
                (
                    "union_in_place/delta",
                    "reference",
                    median_ns(cfg, || num_reference::union(&state, &delta)),
                ),
                (
                    "difference/delta",
                    "fast",
                    median_ns(cfg, || delta.difference(&state)),
                ),
                (
                    "difference/delta",
                    "reference",
                    median_ns(cfg, || num_reference::difference(&delta, &state)),
                ),
            ];
            for (op, implementation, median_ns) in timed {
                rows.push(row(op, implementation, repr, n, median_ns));
            }

            // The redundant β echo: a shared one-interval delta carved in
            // place by a state it lies inside (the delta's part inside the
            // stripe) or misses (its part in the gap).
            let echoes = [
                ("subtract_assign/echo_inside", delta.intersection(&state)),
                ("subtract_assign/echo_outside", delta.difference(&state)),
            ];
            for (op, echo) in echoes {
                if cfg.cross_check {
                    let mut carved = echo.clone();
                    let changed = carved.subtract_assign(&state);
                    assert_eq!(carved, num_reference::difference(&echo, &state));
                    assert_eq!(changed, carved.is_empty());
                    assert!(changed || carved.shares_storage_with(&echo));
                }
                let fast = median_ns(cfg, || echo.clone().subtract_assign(&state));
                rows.push(row(op, "fast", repr, n, fast));
                let reference = median_ns(cfg, || num_reference::difference(&echo, &state));
                rows.push(row(op, "reference", repr, n, reference));
            }
        }
    }

    for &n in INTERVAL_SIZES {
        for endpoints in Endpoints::ALL {
            let state = striped_union(n, 4, 0, 1, endpoints);
            let delta = striped_union(SHARED_DELTA_INTERVALS, 4, 2, 1, endpoints);
            if cfg.cross_check {
                let mut merged = state.clone();
                assert!(merged.union_in_place(&delta));
                assert!(!merged.shares_storage_with(&state));
                assert_eq!(merged, num_reference::union(&state, &delta));
            }
            // The clone is an O(1) handle: the merge detaches it from `state`.
            let detach_ns = median_ns(cfg, || state.clone().union_in_place(&delta));
            rows.push(row(
                "union_in_place/shared",
                "fast",
                endpoints.name(),
                n,
                detach_ns,
            ));
        }
    }

    Baseline {
        bench: "interval_algebra",
        unit: "ns_per_call_median",
        workload: "striped_union fragmentation sweep (see crates/bench)".to_owned(),
        trailers: vec![(
            "speedup_reference_over_fast",
            ratios(
                &rows,
                "impl",
                "fast",
                "reference",
                &["op", "endpoints", "intervals"],
            ),
        )],
        rows,
    }
}

/// [`median_ns`] of a quadratic reference run on `w`, or a zero placeholder
/// where `cfg.reference_edge_cap` skips it.
fn reference_ns<T>(cfg: &SampleConfig, w: &Workload, run: impl FnMut() -> T) -> u64 {
    let capped = cfg
        .reference_edge_cap
        .is_some_and(|cap| w.network.edge_count() > cap);
    if capped {
        0
    } else {
        median_ns(cfg, run)
    }
}

/// `BENCH_mapping.json`: full interned mapping runs versus the retained
/// owned-record reference (`anet_core::mapping::reference`) over
/// `workloads` (the record-bound grid, [`mapping_flood_workloads`]), FIFO
/// delivery.
///
/// With `cfg.cross_check`, both implementations must terminate with
/// identical total wire bits on every workload before it is timed.
pub fn mapping_baseline(workloads: &[Workload], cfg: &SampleConfig) -> Baseline {
    let mut rows = Vec::new();
    for w in workloads {
        let interned =
            || mapping::run_mapping(&w.network, &mut FifoScheduler::new()).expect("run completes");
        let reference = || {
            mapping::reference::run_mapping(&w.network, &mut FifoScheduler::new())
                .expect("run completes")
        };
        if cfg.cross_check {
            let (a, b) = (interned(), reference());
            assert!(a.terminated && b.terminated, "workload {}", w.name);
            assert_eq!(
                a.metrics.total_bits, b.metrics.total_bits,
                "wire accounting diverged on {}",
                w.name
            );
        }
        let row = |implementation: &str, median_ns| Row {
            key: vec![
                ("topology", w.name.as_str().into()),
                ("impl", implementation.into()),
            ],
            median_ns,
        };
        rows.push(row("interned", median_ns(cfg, interned)));
        rows.push(row("reference", reference_ns(cfg, w, reference)));
    }

    Baseline {
        bench: "mapping_flood",
        unit: "ns_per_run_median",
        workload: "FIFO topology-mapping runs over the record-bound grid (see crates/bench)"
            .to_owned(),
        trailers: vec![(
            "speedup_reference_over_interned",
            ratios(&rows, "impl", "interned", "reference", &["topology"]),
        )],
        rows,
    }
}

/// Payload size used by the general-broadcast rows of the labeling, recovery
/// and scaling baselines.
const LABELING_PAYLOAD_BITS: u64 = 64;

/// `BENCH_labeling.json`: full protocol runs of the copy-on-write
/// endpoint-array implementations of the **labelling** and
/// **general-broadcast** protocols versus their retained deep-clone
/// references (`anet_core::labeling::reference`,
/// `anet_core::general_broadcast::reference`) over `workloads` (the
/// record-bound grid), FIFO delivery.
///
/// With `cfg.cross_check`, both implementations must terminate with
/// identical total wire bits (and, for labelling, identical labels) on every
/// workload before it is timed.
pub fn labeling_baseline(workloads: &[Workload], cfg: &SampleConfig) -> Baseline {
    let mut rows = Vec::new();
    for w in workloads {
        let labeling_cow = || {
            labeling::run_labeling(&w.network, &mut FifoScheduler::new()).expect("run completes")
        };
        let labeling_reference = || {
            labeling::reference::run_labeling(&w.network, &mut FifoScheduler::new())
                .expect("run completes")
        };
        let payload = || Payload::synthetic(LABELING_PAYLOAD_BITS);
        let broadcast_cow = || {
            general_broadcast::run_general_broadcast(
                &w.network,
                payload(),
                &mut FifoScheduler::new(),
            )
            .expect("run completes")
        };
        let broadcast_reference = || {
            general_broadcast::reference::run_general_broadcast(
                &w.network,
                payload(),
                &mut FifoScheduler::new(),
            )
            .expect("run completes")
        };
        if cfg.cross_check {
            let (a, b) = (labeling_cow(), labeling_reference());
            assert!(a.terminated && b.terminated, "workload {}", w.name);
            assert_eq!(
                a.metrics.total_bits, b.metrics.total_bits,
                "labeling wire accounting diverged on {}",
                w.name
            );
            assert_eq!(a.labels, b.labels, "labels diverged on {}", w.name);
            let (ga, gb) = (broadcast_cow(), broadcast_reference());
            assert!(ga.terminated && gb.terminated, "workload {}", w.name);
            assert_eq!(
                ga.metrics.total_bits, gb.metrics.total_bits,
                "broadcast wire accounting diverged on {}",
                w.name
            );
        }
        let row = |protocol: &str, implementation: &str, median_ns| Row {
            key: vec![
                ("protocol", protocol.into()),
                ("topology", w.name.as_str().into()),
                ("impl", implementation.into()),
            ],
            median_ns,
        };
        rows.push(row("labeling", "cow", median_ns(cfg, labeling_cow)));
        let ns = reference_ns(cfg, w, labeling_reference);
        rows.push(row("labeling", "reference", ns));
        rows.push(row(
            "general-broadcast",
            "cow",
            median_ns(cfg, broadcast_cow),
        ));
        let ns = reference_ns(cfg, w, broadcast_reference);
        rows.push(row("general-broadcast", "reference", ns));
    }

    Baseline {
        bench: "label_algebra",
        unit: "ns_per_run_median",
        workload:
            "FIFO labeling and general-broadcast runs over the record-bound grid (see crates/bench)"
                .to_owned(),
        trailers: vec![(
            "speedup_reference_over_cow",
            ratios(&rows, "impl", "cow", "reference", &["protocol", "topology"]),
        )],
        rows,
    }
}

/// Fault plans measured by [`faults_baseline`], keyed by mode name.
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

/// `BENCH_faults.json`: full FIFO mapping runs under the fault-injection
/// layer ([`FaultyScheduler`]) versus the bare scheduler, over `workloads`
/// (the record-bound grid). The `wrapped-reliable` rows measure the pure
/// adapter overhead (no RNG draws on the zero-fault plan); the
/// `lossy`/`heavy` rows measure adversarial plans that actually drop,
/// duplicate and reorder.
pub fn faults_baseline(workloads: &[Workload], cfg: &SampleConfig) -> Baseline {
    let run_mode = |network: &anet_graph::Network, plan: &Option<FaultPlan>| match plan {
        None => mapping::run_mapping(network, &mut FifoScheduler::new()),
        Some(plan) => mapping::run_mapping(
            network,
            &mut FaultyScheduler::new(FifoScheduler::new(), plan.clone()),
        ),
    };

    let modes = fault_modes();
    let mut rows = Vec::new();
    for w in workloads {
        if cfg.cross_check {
            // The zero-fault plan must be invisible: identical termination,
            // identical metrics (every counter and per-edge total), identical
            // labels.
            let bare = run_mode(&w.network, &None).expect("bare run completes");
            let wrapped =
                run_mode(&w.network, &Some(FaultPlan::reliable())).expect("wrapped run completes");
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
            rows.push(Row {
                key: vec![
                    ("topology", w.name.as_str().into()),
                    ("mode", (*mode).into()),
                ],
                median_ns: median_ns(cfg, || {
                    run_mode(&w.network, plan).expect("faulted run completes")
                }),
            });
        }
    }

    Baseline {
        bench: "fault_injection",
        unit: "ns_per_run_median",
        workload: "FIFO mapping runs under fault-injection plans over the record-bound grid (see crates/bench)"
            .to_owned(),
        trailers: vec![(
            "overhead_wrapped_reliable_over_reliable",
            ratios(&rows, "mode", "reliable", "wrapped-reliable", &["topology"]),
        )],
        rows,
    }
}

/// Drop-intensity ramp measured by [`recovery_baseline`], in percent.
const RECOVERY_RAMP: &[u8] = &[0, 10, 20, 30];
/// Plan-stream seed shared by every ramp point (the same seed the committed
/// `crates/sweep/specs/recovery.spec` uses for its ramp).
const RECOVERY_SEED: u64 = 7;
/// Re-flood budget of the retry variants.
const RECOVERY_RETRY_BUDGET: u32 = 6;

fn recovery_outcome(outcome: Outcome, lost: u64) -> &'static str {
    match outcome {
        Outcome::Terminated => "terminated",
        Outcome::Quiescent if lost > 0 => "starved",
        Outcome::Quiescent => "quiescent",
        Outcome::BudgetExhausted => "budget-exhausted",
    }
}

fn recovery_config() -> ExecutionConfig {
    ExecutionConfig {
        max_deliveries: 2_000_000,
        record_trace: false,
    }
}

/// Runs one protocol over the recovery grid, appending its rows.
///
/// Everything except `median_ns` is a pure function of the (protocol,
/// topology, ramp point, variant) cell: the wire and outcome columns are part
/// of the row *key*, so the smoke check flags any behavioural drift of the
/// recovery layer, not just grid drift.
///
/// Before any timing on a workload (with `cfg.cross_check`), the
/// reliable-plan retry run is cross-checked **bit-identical** to the pristine
/// single-shot run — zero re-flood rounds, equal outcome, equal full metrics
/// — which is what makes the overhead columns attributable to recovery
/// rather than to the wrapper.
fn recovery_rows<P: RefloodProtocol>(
    protocol_name: &'static str,
    protocol: &P,
    recovered: &dyn Fn(&anet_graph::Network, &[P::State]) -> bool,
    workloads: &[Workload],
    cfg: &SampleConfig,
    rows: &mut Vec<Row>,
) {
    for w in workloads {
        let single_shot = |plan: &FaultPlan| {
            let mut scheduler = FaultyScheduler::new(FifoScheduler::new(), plan.clone());
            run(&w.network, protocol, &mut scheduler, recovery_config())
        };
        let retry = |plan: &FaultPlan| {
            let mut scheduler = FaultyScheduler::new(FifoScheduler::new(), plan.clone());
            let (config, budget) = (recovery_config(), RECOVERY_RETRY_BUDGET);
            run_recovering(&w.network, protocol, &mut scheduler, config, budget)
        };
        let pristine_run = || {
            run(
                &w.network,
                protocol,
                &mut FifoScheduler::new(),
                recovery_config(),
            )
        };
        let pristine = pristine_run();
        if cfg.cross_check {
            let rel = retry(&FaultPlan::reliable());
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
        let mut push = |drop: u8,
                        variant: &str,
                        run: &RunResult<P::State, P::Message>,
                        reflood_bits: u64,
                        median_ns| {
            let ok = run.outcome == Outcome::Terminated && recovered(&w.network, &run.states);
            let lost = run.metrics.messages_lost();
            rows.push(Row {
                key: vec![
                    ("protocol", protocol_name.into()),
                    ("topology", w.name.as_str().into()),
                    ("drop_pct", u64::from(drop).into()),
                    ("variant", variant.into()),
                    ("outcome", recovery_outcome(run.outcome, lost).into()),
                    ("recovered", Value::Bool(ok)),
                    ("sent", run.metrics.messages_sent.into()),
                    ("delivered", run.metrics.messages_delivered.into()),
                    ("total_bits", run.metrics.total_bits.into()),
                    ("reflood_bits", reflood_bits.into()),
                ],
                median_ns,
            });
        };
        push(0, "pristine", &pristine, 0, median_ns(cfg, pristine_run));
        for &drop in RECOVERY_RAMP {
            let plan = FaultPlan::reliable()
                .with_drops(drop)
                .with_seed(RECOVERY_SEED);
            let single = single_shot(&plan);
            let single_ns = median_ns(cfg, || single_shot(&plan));
            push(drop, "single-shot", &single, 0, single_ns);
            let retried = retry(&plan);
            let retry_ns = median_ns(cfg, || retry(&plan));
            push(
                drop,
                "retry",
                &retried.result,
                retried.reflood_bits,
                retry_ns,
            );
        }
    }
}

/// `BENCH_recovery.json`: the recovery cost of the re-flood retry variants
/// across the drop-intensity ramp, for all three protocols over `workloads`
/// (the recovery grid, [`recovery_workloads`]), FIFO delivery.
///
/// Each ramp point carries two variants under the *same* fault plan: the
/// `single-shot` run (what the pristine protocol does under that loss rate —
/// usually starving on single-path topologies) and the `retry` run (the
/// re-flood wrapper with a fixed budget). The `pristine` row is the
/// fault-free baseline the deterministic `overhead_retry_bits_over_pristine`
/// map diffs recovered retries against.
pub fn recovery_baseline(workloads: &[Workload], cfg: &SampleConfig) -> Baseline {
    let mut rows = Vec::new();
    recovery_rows(
        "mapping",
        &mapping::Mapping::new(),
        &mapping::mapping_recovered,
        workloads,
        cfg,
        &mut rows,
    );
    recovery_rows(
        "labeling",
        &labeling::Labeling::new(),
        &labeling::labeling_recovered,
        workloads,
        cfg,
        &mut rows,
    );
    recovery_rows(
        "general-broadcast",
        &general_broadcast::GeneralBroadcast::new(Payload::synthetic(LABELING_PAYLOAD_BITS)),
        &general_broadcast::general_recovered,
        workloads,
        cfg,
        &mut rows,
    );

    let bits = |row: &Row| match row.get("total_bits") {
        Value::Int(bits) => *bits as i64,
        other => panic!("total_bits is not an integer: {other:?}"),
    };
    let on = ["protocol", "topology"];
    let overheads = pairs(&rows, "variant", "retry", &["pristine"], &on)
        .into_iter()
        .filter(|(retry, _)| *retry.get("recovered") == Value::Bool(true))
        .map(|(retry, pristine)| {
            let key = format!("{}/d{}", retry.joined(&on), retry.get("drop_pct"));
            (key, (bits(retry) - bits(pristine)).to_string())
        })
        .collect();
    Baseline {
        bench: "recovery_cost",
        unit: "ns_per_run_median",
        workload:
            "FIFO runs with re-flood retries across the drop-intensity ramp (see crates/bench)"
                .to_owned(),
        trailers: vec![("overhead_retry_bits_over_pristine", Trailer::Map(overheads))],
        rows,
    }
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

/// Tallest tree the O(E · deliveries) full-scan reference engine is run on
/// (n ≈ 10⁴, the ≥ 5× acceptance cell); above that a single scan pass is
/// minutes, which is a statement about the old engine, not a measurement.
pub const SCALING_FULL_SCAN_MAX_HEIGHT: usize = 4;

fn outcome_name(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Terminated => "terminated",
        Outcome::Quiescent => "quiescent",
        Outcome::BudgetExhausted => "budget-exhausted",
    }
}

/// Emits the flat (and, with `include_full_scan`, full-scan) rows for one
/// protocol × tree cell. Every row carries the cell's `trace_digest`: the
/// [`TraceDigest`] of one untimed, observed flat run, so the timed runs stay
/// unobserved and the smoke check pins the send trace at every n. With
/// `cfg.cross_check` set, the full-scan reference must first reproduce that
/// run bit-identically — outcome, full [`anet_sim::metrics::RunMetrics`]
/// (wire bits included), termination step, `states_match` (labels / full
/// states) and trace digest.
fn scaling_rows<P: RefloodProtocol>(
    rows: &mut Vec<Row>,
    cfg: &SampleConfig,
    protocol_name: &'static str,
    protocol: &P,
    network: &anet_graph::Network,
    include_full_scan: bool,
    states_match: impl Fn(&[P::State], &[P::State]) -> bool,
) {
    use anet_sim::scheduler::DepthFirstScheduler;

    let config = ExecutionConfig::default();
    let n = network.node_count();
    let full_scan = |observer: &mut dyn Observer<P::Message>| {
        let mut scheduler = DepthFirstScheduler::new();
        anet_sim::run_full_scan(
            network,
            protocol,
            &mut scheduler,
            config,
            |_| {},
            0,
            observer,
        )
        .result
    };

    let mut digest = TraceDigest::new();
    let observed = run_observed(
        network,
        protocol,
        &mut DepthFirstScheduler::new(),
        config,
        |_| {},
        0,
        &mut digest,
    )
    .result;
    if cfg.cross_check && include_full_scan {
        let mut reference_digest = TraceDigest::new();
        let reference = full_scan(&mut reference_digest);
        assert_eq!(observed.outcome, reference.outcome);
        assert_eq!(
            observed.metrics, reference.metrics,
            "{protocol_name}: flat vs full-scan metrics diverged at n = {n}"
        );
        assert_eq!(
            observed.deliveries_at_termination,
            reference.deliveries_at_termination
        );
        assert!(states_match(&observed.states, &reference.states));
        assert_eq!(
            digest.finish(),
            reference_digest.finish(),
            "{protocol_name}: flat vs full-scan trace digests diverged at n = {n}"
        );
    }
    let trace_digest = format!("{:016x}", digest.finish());

    let mut push = |engine: &'static str,
                    run: &mut dyn FnMut() -> RunResult<P::State, P::Message>| {
        let (result, median_ns) = timed(cfg, run);
        eprintln!(
            "cell {protocol_name} n={n} engine={engine}: {:.3} s median",
            median_ns as f64 / 1e9
        );
        rows.push(Row {
            key: vec![
                ("protocol", protocol_name.into()),
                ("nodes", n.into()),
                ("edges", network.edge_count().into()),
                ("engine", engine.into()),
                ("outcome", outcome_name(result.outcome).into()),
                ("sent", result.metrics.messages_sent.into()),
                ("delivered", result.metrics.messages_delivered.into()),
                ("total_bits", result.metrics.total_bits.into()),
                ("trace_digest", trace_digest.as_str().into()),
            ],
            median_ns,
        });
    };
    push("flat", &mut || {
        run(network, protocol, &mut DepthFirstScheduler::new(), config)
    });
    if include_full_scan {
        push("full_scan", &mut || full_scan(&mut ()));
    }
}

/// [`scaling_rows`] for the whole battery — labelling, general broadcast and
/// topology mapping — on one tree.
fn scaling_battery(
    rows: &mut Vec<Row>,
    cfg: &SampleConfig,
    network: &anet_graph::Network,
    include_full_scan: bool,
) {
    scaling_rows(
        rows,
        cfg,
        "labeling",
        &labeling::Labeling::new(),
        network,
        include_full_scan,
        |a, b| a == b,
    );
    scaling_rows(
        rows,
        cfg,
        "general-broadcast",
        &general_broadcast::GeneralBroadcast::new(Payload::synthetic(LABELING_PAYLOAD_BITS)),
        network,
        include_full_scan,
        |a, b| a == b,
    );
    scaling_rows(
        rows,
        cfg,
        "topology-mapping",
        &mapping::Mapping::new(),
        network,
        include_full_scan,
        |a: &[mapping::MappingState], b: &[mapping::MappingState]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.label == y.label)
        },
    );
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
        total
    })
}

/// `BENCH_scaling.json`: the full protocol battery (labelling, general
/// broadcast, topology mapping) on full grounded trees of n ∈ {10³, 10⁴,
/// 10⁵, 10⁶} nodes under a depth-first schedule (the cache-dense delivery
/// order — see [`anet_sim::scheduler::DepthFirstScheduler`]), measured on the
/// flat engine and (on the ≤ 10⁴ cells) the O(E · deliveries) full-scan
/// reference. Every row carries the deterministic outcome and wire columns
/// (`outcome`, `sent`, `delivered`, `total_bits`) and the flat engine's
/// `trace_digest`, so the key-drift smoke check also pins run determinism
/// and the send trace. On a full grounded tree every vertex but the terminal
/// has in-degree 1 and forwards on every out-port, so an engine fault that
/// changes any delivery to another vertex changes the digest, while
/// `outcome` and `delivered` pin the terminal's run. The trailers hold the
/// flat engine's speedups over the full scan and the interner-hasher
/// microbenchmark (FNV-1a, the in-repo default, versus std's SipHash).
pub fn scaling_baseline(cfg: &SampleConfig) -> Baseline {
    use anet_graph::generators::full_grounded_tree;

    let mut rows = Vec::new();
    for &height in SCALING_HEIGHTS {
        let network = full_grounded_tree(height, SCALING_ARITY).expect("arity >= 2");
        scaling_battery(
            &mut rows,
            cfg,
            &network,
            height <= SCALING_FULL_SCAN_MAX_HEIGHT,
        );
    }

    // The interner's hash map under the in-repo FNV-1a hasher (its default
    // since the swap) versus std's SipHash, over label union keys shaped like
    // the mapping table's.
    let keys: Vec<IntervalUnion> = striped_union(512, 2, 0, 1, Endpoints::Heap)
        .iter()
        .map(IntervalUnion::from)
        .collect();
    let fnv_ns = hasher_ns::<anet_num::FnvBuildHasher>(cfg, &keys);
    let siphash_ns = hasher_ns::<std::collections::hash_map::RandomState>(cfg, &keys);

    let on = ["protocol", "nodes"];
    let speedups = pairs(&rows, "engine", "flat", &["full_scan"], &on)
        .into_iter()
        .map(|(flat, slow)| {
            let key = format!(
                "{}/{}/n{}",
                slow.get("engine"),
                flat.get("protocol"),
                flat.get("nodes")
            );
            (key, ratio(slow, flat))
        })
        .collect();
    let hashers = vec![
        ("fnv1a_ns".to_owned(), fnv_ns.to_string()),
        ("siphash_ns".to_owned(), siphash_ns.to_string()),
    ];
    Baseline {
        bench: "scaling",
        unit: "ns_per_run_median",
        workload: "depth-first-schedule runs over full grounded trees (arity 10), n = 10^3..10^6 (see crates/bench)"
            .to_owned(),
        trailers: vec![
            ("speedup_flat_over", Trailer::Map(speedups)),
            ("interner_hasher_insert_lookup_ns", Trailer::Map(hashers)),
        ],
        rows,
    }
}

/// The dedup baseline's spec: 2 protocols × 8 topologies (3 canonical forms)
/// × 2 seeds × 5 schedulers.
///
/// The redundancy is *provable*, not probabilistic: `random-dag n 100 seed`
/// draws every forward edge with probability 1, so all three seeds collapse
/// onto `complete-dag 7`; `nested-cycles 1 8` is `cycle-with-tail 8`, and
/// `complete-dag 2` is `path 2`.
fn dedup_spec() -> anet_sweep::SweepSpec {
    use anet_sweep::{ProtocolSpec, ScenarioSpec, SweepSpec, TopologySpec};
    let dense = |seed| TopologySpec::RandomDag {
        internal: 7,
        edge_pct: 100,
        seed,
    };
    SweepSpec {
        protocols: vec![ProtocolSpec::Mapping, ProtocolSpec::Labeling],
        topologies: vec![
            TopologySpec::CompleteDag { internal: 7 },
            dense(1),
            dense(2),
            dense(3),
            TopologySpec::CycleWithTail { k: 8 },
            TopologySpec::NestedCycles { count: 1, len: 8 },
            TopologySpec::Path { n: 2 },
            TopologySpec::CompleteDag { internal: 2 },
        ],
        seeds: vec![11, 12],
        random_schedulers: 1,
        max_deliveries: 1_000_000,
        scenarios: vec![ScenarioSpec::Pristine],
    }
}

/// `BENCH_sweep_dedup.json`: wall-clock of a full single-shard sweep pass
/// with deduplication (cold, and with a warm content-addressed cache) versus
/// the honest one-execution-per-unit path, over a redundancy-heavy spec.
///
/// At every effort, the merged output of the cold and the warm dedup pass is
/// first checked byte-identical to the honest pass, the warm pass must hit
/// the cache for every cluster, and the spec must keep at least 2×
/// redundancy. A calibrated run warns on stderr when dedup is less than 2×
/// faster than the honest pass.
pub fn sweep_dedup_baseline(cfg: &SampleConfig) -> Baseline {
    use anet_sweep::{dedup_shard_lines, merge_lines, shard_lines, Manifest, Partition};

    let spec = dedup_spec();
    let manifest = Manifest::from_spec(&spec);
    let honest = || {
        let lines = shard_lines(&spec, &manifest, 1, Partition::Hash, 0).expect("honest pass runs");
        merge_lines(manifest.len(), [lines]).expect("honest pass covers")
    };
    let dedup = |cache: Option<&std::path::Path>| {
        let (lines, stats) = dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, cache)
            .expect("dedup pass runs");
        let merged = merge_lines(manifest.len(), [lines]).expect("dedup pass covers");
        (merged, stats)
    };
    let cache = std::env::temp_dir().join(format!(
        "anet-bench-sweep-dedup-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache);

    let expected = honest();
    let (cold, stats) = dedup(None);
    assert_eq!(cold, expected, "dedup output diverged from honest output");
    let (primed, _) = dedup(Some(&cache));
    let (warm, warm_stats) = dedup(Some(&cache));
    assert_eq!(primed, expected);
    assert_eq!(warm, expected, "warm-cache output diverged");
    assert_eq!(warm_stats.cache_hits, warm_stats.clusters);
    assert!(
        stats.clusters * 2 <= stats.units,
        "bench spec lost its redundancy: {} units -> {} clusters",
        stats.units,
        stats.clusters
    );

    let mode = |mode: &str, median_ns| Row {
        key: vec![("mode", mode.into())],
        median_ns,
    };
    let rows = vec![
        mode("no-dedup", median_ns(cfg, honest)),
        mode("dedup", median_ns(cfg, || dedup(None))),
        mode("dedup-warm-cache", median_ns(cfg, || dedup(Some(&cache)))),
    ];
    let _ = std::fs::remove_dir_all(&cache);
    // Only calibrated timings can tell whether dedup still pays off.
    if cfg.min_sample_micros > 0 && rows[0].median_ns < 2 * rows[1].median_ns {
        let speedup = ratio(&rows[0], &rows[1]);
        eprintln!("warning: dedup speedup {speedup}x is below the expected 2x");
    }
    Baseline {
        bench: "sweep_dedup",
        unit: "ns_per_sweep_median",
        workload: format!(
            "full single-shard sweep over a redundancy-heavy spec ({} units, {} equivalence classes); see crates/bench/src/baseline.rs",
            stats.units, stats.clusters
        ),
        trailers: vec![
            ("manifest_units", Trailer::Scalar(stats.units.to_string())),
            ("clusters", Trailer::Scalar(stats.clusters.to_string())),
            (
                "speedup_no_dedup_over_dedup",
                Trailer::Scalar(ratio(&rows[0], &rows[1])),
            ),
            (
                "speedup_no_dedup_over_warm_cache",
                Trailer::Scalar(ratio(&rows[0], &rows[2])),
            ),
        ],
        rows,
    }
}

/// Escapes a string for embedding in a JSON string literal: backslash, quote
/// and control characters. [`Baseline::to_json`] applies it to every string
/// it takes from a workload, so a name that ever needs escaping yields valid
/// JSON instead of a corrupt baseline (the names in use today never need it).
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

/// Compares the row keys of a `generated` baseline with the `committed`
/// contents of `entry`'s file, prints `ok` or the drift, and reports whether
/// they match.
pub fn keys_match(entry: &Entry, generated: &str, committed: &str) -> bool {
    let path = entry.path();
    let expected = result_keys(generated);
    let actual = result_keys(committed);
    if expected == actual {
        println!("ok   {path}: {} benchmark keys match", expected.len());
        return true;
    }
    eprintln!("FAIL {path}: benchmark keys drifted from the committed baseline");
    for missing in expected.difference(&actual) {
        eprintln!("  bench grid has, baseline lacks: {missing}");
    }
    for stale in actual.difference(&expected) {
        eprintln!("  baseline has, bench grid lacks: {stale}");
    }
    let name = entry.name;
    eprintln!("  regenerate with: cargo run --release -p anet-bench --bin baseline -- {name}");
    false
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
    fn to_json_renders_the_committed_layout() {
        let row = |topology: &str, done: bool, median_ns| Row {
            key: vec![
                ("topology", topology.into()),
                ("nodes", 7usize.into()),
                ("done", Value::Bool(done)),
            ],
            median_ns,
        };
        let baseline = Baseline {
            bench: "demo",
            unit: "ns_per_run_median",
            workload: "two \"quoted\" rows".to_owned(),
            rows: vec![row("a\\b", true, 120), row("c", false, 40)],
            trailers: vec![
                (
                    "speedup_c_over_a",
                    Trailer::Map(vec![("a\\b/7".to_owned(), "0.33".to_owned())]),
                ),
                ("clusters", Trailer::Scalar("3".to_owned())),
            ],
        };
        assert_eq!(
            baseline.to_json(),
            r#"{
  "bench": "demo",
  "unit": "ns_per_run_median",
  "workload": "two \"quoted\" rows",
  "results": [
    {"topology": "a\\b", "nodes": 7, "done": true, "median_ns": 120},
    {"topology": "c", "nodes": 7, "done": false, "median_ns": 40}
  ],
  "speedup_c_over_a": {
    "a\\b/7": 0.33
  },
  "clusters": 3
}
"#
        );
    }

    #[test]
    fn trailer_pairs_match_on_the_named_columns_in_row_order() {
        // The median doubles as a row id.
        let row = |engine: &str, nodes: usize, median_ns| Row {
            key: vec![("engine", engine.into()), ("nodes", nodes.into())],
            median_ns,
        };
        let rows = [
            row("flat", 1, 10),
            row("queue", 1, 11),
            row("scan", 1, 12),
            row("flat", 2, 20),
            row("queue", 2, 23),
            row("queue", 3, 33),
        ];
        let ids: Vec<(u64, u64)> = pairs(&rows, "engine", "flat", &["queue", "scan"], &["nodes"])
            .iter()
            .map(|(base, partner)| (base.median_ns, partner.median_ns))
            .collect();
        assert_eq!(ids, [(10, 11), (10, 12), (20, 23)]);
        assert_eq!(
            ratios(&rows, "engine", "flat", "queue", &["engine", "nodes"]),
            Trailer::Map(vec![]),
        );
        assert_eq!(
            ratios(&rows, "engine", "flat", "queue", &["nodes"]),
            Trailer::Map(vec![
                ("1".to_owned(), "1.10".to_owned()),
                ("2".to_owned(), "1.15".to_owned()),
            ]),
        );
    }

    #[test]
    fn small_grid_baselines_cross_check_and_are_well_formed() {
        use anet_graph::generators::{chain_gn, complete_dag, cycle_with_tail};

        let workload = |name: &str, network| Workload {
            name: name.to_owned(),
            network,
        };
        let workloads = [
            workload("chain-gn/4", chain_gn(4).unwrap()),
            workload("cycle-with-tail/5", cycle_with_tail(5).unwrap()),
            workload("complete-dag/4", complete_dag(4).unwrap()),
            workload("complete-dag/5", complete_dag(5).unwrap()),
        ];
        type Generator = fn(&[Workload], &SampleConfig) -> Baseline;
        // (generator, rows per workload, named row keys, trailer).
        let cases: [(Generator, usize, &[&str], &str); 4] = [
            (
                mapping_baseline,
                2,
                &[
                    "topology=chain-gn/4|impl=interned",
                    "topology=complete-dag/4|impl=reference",
                ],
                "speedup_reference_over_interned",
            ),
            (
                labeling_baseline,
                2 * 2,
                &[
                    "protocol=labeling|topology=chain-gn/4|impl=cow",
                    "protocol=general-broadcast|topology=cycle-with-tail/5|impl=reference",
                    "protocol=labeling|topology=complete-dag/5|impl=reference",
                ],
                "speedup_reference_over_cow",
            ),
            (
                faults_baseline,
                4,
                &[
                    "topology=chain-gn/4|mode=reliable",
                    "topology=chain-gn/4|mode=wrapped-reliable",
                    "topology=complete-dag/4|mode=lossy",
                    "topology=complete-dag/4|mode=heavy",
                ],
                "overhead_wrapped_reliable_over_reliable",
            ),
            (
                recovery_baseline,
                // Three protocols × (pristine + 4 ramp points × 2 variants).
                3 * 9,
                &[],
                "overhead_retry_bits_over_pristine",
            ),
        ];
        // Full cross-check effort, one run per row: the gates every committed
        // baseline passed.
        let cfg = SampleConfig {
            cross_check: true,
            ..SampleConfig::smoke()
        };
        let mut last = None;
        for (generate, rows_per_workload, named, trailer) in cases {
            let baseline = generate(&workloads, &cfg);
            let json = baseline.to_json();
            let keys = result_keys(&json);
            assert_eq!(keys.len(), workloads.len() * rows_per_workload, "{trailer}");
            for key in named {
                assert!(keys.contains(*key), "{trailer}: {key}");
            }
            assert!(json.contains(&format!("\"{trailer}\": {{")), "{trailer}");
            last = Some((baseline, keys));
        }
        // The recovery keys carry the measured outcome and bit columns, so
        // its pristine row is named by prefix; pristine rows recover by
        // definition.
        let (recovery, keys) = last.unwrap();
        assert!(keys.iter().any(|k| k.starts_with(
            "protocol=mapping|topology=chain-gn/4|drop_pct=0|variant=pristine|outcome=terminated|recovered=true|"
        )));
        // Sustained loss on a single path: some recovery retry row genuinely
        // recovered at a nonzero drop rate, and re-flood traffic was charged
        // for it.
        assert!(recovery.rows.iter().any(|r| {
            *r.get("variant") == Value::from("retry")
                && *r.get("recovered") == Value::Bool(true)
                && *r.get("drop_pct") != Value::Int(0)
                && *r.get("reflood_bits") != Value::Int(0)
        }));
    }

    #[test]
    fn registry_covers_every_committed_baseline() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut committed: Vec<String> = std::fs::read_dir(root)
            .expect("workspace root is readable")
            .map(|entry| entry.expect("directory entry").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        committed.sort();
        let mut registered: Vec<String> = BASELINES.iter().map(Entry::path).collect();
        registered.sort();
        assert_eq!(committed, registered);
    }
}
