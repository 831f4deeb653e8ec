//! Metric collection, the result line, and the statistics behind it.

use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate.busy_s", "s"),
    ("graph.generate.calls", "count"),
    ("graph.generate.edges", "count"),
    ("graph.canon.busy_s", "s"),
    ("graph.canon.calls", "count"),
    ("graph.canon.distinct", "count"),
    ("graph.csr.busy_s", "s"),
    ("sim.engine.busy_s", "s"),
    ("sim.engine.runs", "count"),
    ("sim.engine.deliveries", "count"),
    ("sim.engine.ns_per_delivery", "ns"),
    ("sim.engine.labeling.ns_per_delivery", "ns"),
    ("sim.engine.general-broadcast.ns_per_delivery", "ns"),
    ("sim.engine.mapping.ns_per_delivery", "ns"),
    ("sim.engine.fifo.busy_s", "s"),
    ("sim.engine.lifo.busy_s", "s"),
    ("sim.engine.terminal-last.busy_s", "s"),
    ("sim.engine.terminal-first.busy_s", "s"),
    ("sim.engine.random.busy_s", "s"),
    ("sim.trace.capture_s", "s"),
    ("sim.trace.events", "count"),
    ("sim.trace.digest_s", "s"),
    ("sim.faults.dropped", "count"),
    ("sim.faults.duplicated", "count"),
    ("sim.faults.crashed", "count"),
    ("sim.faults.reflood_rounds", "count"),
    ("sim.faults.reflood_bits_ratio", "ratio"),
    ("sim.faults.starved_ratio", "ratio"),
    ("sweep.spec.busy_s", "s"),
    ("sweep.manifest.busy_s", "s"),
    ("sweep.manifest.units", "count"),
    ("sweep.dedup.busy_s", "s"),
    ("sweep.dedup.clusters", "count"),
    ("sweep.dedup.by_reference_ratio", "ratio"),
    ("sweep.exec.busy_s", "s"),
    ("sweep.exec.calls", "count"),
    ("sweep.record.busy_s", "s"),
    ("sweep.record.bytes", "B"),
    ("sweep.merge.busy_s", "s"),
    ("sweep.merge.write_s", "s"),
    ("bench.untraced_s", "s"),
    ("bench.traced_s", "s"),
    ("bench.overhead_s", "s"),
];

/// Runs `f` and returns its result with the seconds it took.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Whether one more pass, as long as the mean of the `passes` made since
/// `start`, would end after `seconds`: the closed loops stop at whole passes,
/// as close to the measuring time as they can.
pub(crate) fn ends_after(start: Instant, passes: u32, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / f64::from(passes) > seconds
}

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub(crate) fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// This process's peak resident set (`VmHWM`), in MB, or `None` where
/// `/proc/self/status` does not report it.
///
/// The loops read it once, after the setup and the first pass: the memory of
/// one sweep (or one pass of runs), as a user of the CLI sees it. Later
/// passes would add heap fragmentation whose amount depends on how many
/// passes fit in the measuring time.
pub(crate) fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Named metric values of one run; sums accumulate under one name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Adds `value` to the metric `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_owned()).or_insert(0.0) += value;
    }

    /// Sets the metric `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    /// The value of `name`, 0 when never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The outcome of one benchmark run: the operation counts, whether every
/// cross-check held, and the metrics.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Operations (run records) attempted.
    pub attempted: u64,
    /// Operations whose output failed the gate.
    pub failed: u64,
    /// Problems outside the per-operation gate (a cross-check or a pass
    /// that disagrees with the first); any one makes the run incorrect.
    pub problems: Vec<String>,
    /// The measured metrics.
    pub metrics: Metrics,
}

impl RunSummary {
    /// The last line of the benchmark's output: exactly the `catalogue`
    /// metrics, each with its unit.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.metrics.get(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
