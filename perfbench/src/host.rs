//! Host-speed calibration of the end-to-end times.
//!
//! The host the bounds were set on (see `README.md`) changes speed by up to a
//! third within seconds, as other tenants load the cores it shares, and a
//! run's wall times follow. So each end-to-end time is scaled by a fixed
//! reference kernel timed right beside it: divided by the kernel's time there
//! and multiplied by [`REFERENCE_KERNEL_S`], the kernel's time on that host at
//! its median speed. What remains is the program's own time at one host speed.
//!
//! The kernel is the benchmark's own code and calls nothing of the program,
//! so a change to the program moves the scaled times in full. It does the
//! kinds of work the sweep path does: formatting and hashing string keys,
//! ordered maps, sorting, and a colour-refinement loop over small vectors.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in seconds, on the host described in `README.md` at
/// its median speed.
pub const REFERENCE_KERNEL_S: f64 = 0.008;

/// Kernel runs per [`HostScale`] reading.
const READING_REPS: usize = 12;

/// Scales a sequence of timed calls to the reference host speed: each call's
/// seconds are divided by the mean of the host readings (median kernel time
/// over a short burst) taken right before and right after it.
pub(crate) struct HostScale {
    before: f64,
}

impl HostScale {
    /// Takes the reading before the first call.
    pub fn new() -> Self {
        Self { before: reading() }
    }

    /// Scales `seconds`, the time of the call that just ended, and takes the
    /// reading that closes it and opens the next.
    pub fn scale(&mut self, seconds: f64) -> f64 {
        let after = reading();
        let scaled = seconds * 2.0 * REFERENCE_KERNEL_S / (self.before + after);
        self.before = after;
        scaled
    }
}

/// The median kernel time over [`READING_REPS`] runs.
fn reading() -> f64 {
    let mut times: Vec<f64> = (0..READING_REPS).map(|_| kernel_s()).collect();
    times.sort_by(f64::total_cmp);
    times[READING_REPS / 2]
}

/// SplitMix64 finalizer: a fixed pseudo-random value for `z`.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the reference kernel once and returns the seconds it took.
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;

    // String keys, hashed, grouped in an ordered map and sorted.
    let protocols = ["labeling", "mapping", "general-broadcast/16"];
    let families = ["chain-gn", "grounded-tree", "layered-dag"];
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut keys = Vec::with_capacity(6_000);
    for i in 0..6_000usize {
        let key = format!(
            "{}/{}/n{}#{}",
            protocols[i % 3],
            families[i % 7 % 3],
            mix(i as u64) % 512,
            i % 6
        );
        let hash = key.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
        groups.entry(key.clone()).or_default().push(i);
        keys.push((hash, key));
    }
    keys.sort_unstable();
    acc ^= keys[keys.len() / 2].0 ^ groups.len() as u64;

    // Colour refinement: each round ranks (colour, sorted neighbour colours).
    let n = 3_000usize;
    let adjacency: Vec<Vec<usize>> = (0..n)
        .map(|v| {
            (0..1 + v % 4)
                .map(|j| (mix((v * 7 + j) as u64) % n as u64) as usize)
                .collect()
        })
        .collect();
    let mut colours: Vec<usize> = adjacency.iter().map(Vec::len).collect();
    for _ in 0..4 {
        let signatures: Vec<(usize, Vec<usize>)> = (0..n)
            .map(|v| {
                let mut around: Vec<usize> = adjacency[v].iter().map(|&u| colours[u]).collect();
                around.sort_unstable();
                (colours[v], around)
            })
            .collect();
        let ranks: BTreeMap<&(usize, Vec<usize>), usize> = signatures
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .enumerate()
            .map(|(rank, signature)| (signature, rank))
            .collect();
        colours = signatures.iter().map(|s| ranks[s]).collect();
    }
    acc ^= colours.iter().sum::<usize>() as u64;

    black_box(acc);
    start.elapsed().as_secs_f64()
}
