//! Workload inputs as pure functions of the workload seed.
//!
//! The seed drives every random-topology generator seed, the battery seeds and
//! the fault-plan and corruption seeds. Sizes are fixed and each random
//! topology is typical of its family ([`typical_instance`]), so two seeds give
//! inputs of the same shape and about the same cost; only the random draws
//! differ.

use anet_core::mapping::Mapping;
use anet_graph::canon::canonical_form;
use anet_graph::Network;
use anet_sim::engine::ExecutionConfig;
use anet_sim::scheduler::FifoScheduler;
use anet_sweep::SweepSpec;

/// The seed whose outputs are pinned under `pinned/`.
pub const DEFAULT_SEED: u64 = 0;

/// Payload size of the sweeps' general broadcast, as in the committed specs.
pub const SWEEP_PAYLOAD_BITS: u64 = 16;

/// Delivery budget of both sweeps, as in the committed specs.
pub const SWEEP_MAX_DELIVERIES: u64 = 2_000_000;

/// SplitMix64 of `seed` salted with `salt`: one independent stream per use.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A derived seed short enough to keep topology names readable.
fn derived(seed: u64, salt: u64) -> u64 {
    mix(seed, salt) % 1_000_000
}

/// Builds the topology of a `topology` spec line (without the keyword).
fn build(spec_line: &str) -> Network {
    let spec = SweepSpec::parse(&format!("protocol labeling\ntopology {spec_line}\n"))
        .expect("a generated topology line parses");
    spec.topologies[0]
        .build()
        .expect("generated topology parameters are valid")
}

/// Candidates drawn per random topology by [`typical_instance`].
const CANDIDATES: u64 = 256;

/// The edge count and back-edge count (edges to a lower vertex id, which the
/// random generators number in topological order of their backbone) of a
/// topology as its generator builds it.
fn edge_profile(spec_line: &str) -> (usize, usize) {
    let network = build(spec_line);
    let g = network.graph();
    let back = g
        .edges()
        .filter(|&e| g.edge_dst(e).index() < g.edge_src(e).index())
        .count();
    (g.edge_count(), back)
}

/// The topology line `line(generator_seed)` for a generator seed drawn from
/// the workload seed, chosen to be typical of its family.
///
/// [`CANDIDATES`] generator seeds are drawn, and the first whose edge and
/// back-edge counts are nearest the candidates' medians is kept, so that
/// every workload seed gets inputs of about the same cost. On `sweep-grid`,
/// with execution timed unit by unit in turn across workload seeds 1–10 (so
/// that the host's speed is the same for each), this narrowed the quartile
/// spread of the seeds' execution times from 9.0 % of the median, with the
/// first candidate taken, to 3.2 %.
fn typical_instance(seed: u64, salt: u64, line: impl Fn(u64) -> String) -> String {
    let candidates: Vec<(String, (usize, usize))> = (0..CANDIDATES)
        .map(|k| {
            let text = line(derived(seed, salt * CANDIDATES + k));
            let profile = edge_profile(&text);
            (text, profile)
        })
        .collect();
    let middle = |coordinate: fn(&(usize, usize)) -> usize| {
        let mut values: Vec<usize> = candidates.iter().map(|(_, p)| coordinate(p)).collect();
        values.sort_unstable();
        values[values.len() / 2]
    };
    let (edges, back) = (middle(|p| p.0), middle(|p| p.1));
    let distance = |p: &(usize, usize)| p.0.abs_diff(edges) + p.1.abs_diff(back);
    candidates
        .iter()
        .min_by_key(|(_, p)| distance(p))
        .map(|(text, _)| text.clone())
        .expect("at least one candidate")
}

/// The protocol, battery-seed and budget lines both sweeps share, with
/// `battery_seeds` battery seeds.
fn header(seed: u64, title: &str, battery_seeds: u64) -> String {
    let seeds: Vec<String> = (0..battery_seeds)
        .map(|k| derived(seed, 1 + k).to_string())
        .collect();
    format!(
        "# {title}, workload seed {seed}\n\
         protocol mapping\n\
         protocol labeling\n\
         protocol general-broadcast {SWEEP_PAYLOAD_BITS}\n\
         seeds {}\n\
         random-schedulers 2\n\
         max-deliveries {SWEEP_MAX_DELIVERIES}\n",
        seeds.join(" ")
    )
}

/// The `sweep-grid` spec: the paper's experiment grid through the sweep path.
///
/// E1 trees (`chain-gn`, `grounded-tree`), E3 DAGs (`diamond-stack`,
/// `layered-dag`, `random-dag`), E9 stars, the committed specs' cycles and
/// complete DAGs, and two provably isomorphic pairs (`random-dag k 100 _` is
/// the complete DAG on k vertices for every seed; one nested cycle of length 8
/// is the cycle with a tail), under four scenarios.
pub fn sweep_grid_spec(seed: u64) -> String {
    let mut text = header(seed, "sweep-grid", 2);
    let mut topologies: Vec<String> = Vec::new();
    let mut salt = 100;
    let mut random = |line: &dyn Fn(u64) -> String| {
        salt += 1;
        typical_instance(seed, salt, line)
    };
    for n in [16, 64, 256] {
        topologies.push(format!("chain-gn {n}"));
    }
    for n in [16, 64, 256, 512] {
        topologies.push(random(&|g| format!("grounded-tree {n} 3 10 {g}")));
    }
    for k in [1, 4, 16] {
        topologies.push(format!("diamond-stack {k}"));
    }
    for (layers, width, fan) in [(3, 3, 2), (4, 8, 2), (8, 8, 3)] {
        topologies.push(random(&|g| {
            format!("layered-dag {layers} {width} {fan} {g}")
        }));
    }
    for n in [4, 16, 64] {
        topologies.push(random(&|g| format!("random-dag {n} 20 {g}")));
    }
    for leaves in [8, 64] {
        topologies.push(format!("star {leaves}"));
    }
    for line in [
        "cycle-with-tail 5",
        "cycle-with-tail 6",
        "complete-dag 4",
        "complete-dag 5",
        "nested-cycles 2 4",
    ] {
        topologies.push(line.to_owned());
    }
    for n in [8, 10] {
        topologies.push(random(&|g| format!("random-cyclic {n} 12 18 {g}")));
    }
    topologies.push(format!("random-dag 7 100 {}", derived(seed, 10)));
    topologies.push("complete-dag 7".to_owned());
    topologies.push("nested-cycles 1 8".to_owned());
    topologies.push("cycle-with-tail 8".to_owned());
    for line in topologies {
        text.push_str(&format!("topology {line}\n"));
    }
    text.push_str(&format!(
        "faults drop=10 dup=10 reorder=2 seed={}\n",
        derived(seed, 11)
    ));
    text.push_str(&format!(
        "faults drop=20 seed={} retry=4\n",
        derived(seed, 12)
    ));
    text.push_str(&format!("corrupt labels {}\n", derived(seed, 13)));
    text
}

/// Most candidates drawn per `sweep-cyclic` random topology.
const CYCLIC_CANDIDATES: u64 = 8;

/// The `sweep-cyclic` random topologies: `random-cyclic n 10 15 _` for each
/// `n`, with the median delivery count of one FIFO mapping run on its
/// canonical form over 64 generator seeds (measured once).
const CYCLIC_TYPICAL_DELIVERIES: [(usize, u64); 4] =
    [(20, 4_034), (30, 24_089), (40, 81_262), (50, 200_224)];

/// Deliveries of one FIFO mapping run on the topology's canonical form, the
/// network the sweep runs: a proxy for the work of every run on it.
fn fifo_mapping_deliveries(spec_line: &str) -> u64 {
    let network = canonical_form(&build(spec_line))
        .form
        .to_network()
        .expect("a canonical form rebuilds");
    let run = anet_sim::engine::run(
        &network,
        &Mapping::new(),
        &mut FifoScheduler::new(),
        ExecutionConfig::default(),
    );
    run.metrics.messages_delivered
}

/// The `sweep-cyclic` spec: the E5/E8 grid of long runs on small cyclic
/// graphs, pristine only.
///
/// Edge counts do not pin the cost of a random cyclic graph: with the edge
/// profile fixed, n = 50 instances still ranged from 2.6 M to 5.1 M
/// deliveries over 36 runs. One FIFO mapping run predicts it (its deliveries
/// were 8.2–8.5 % of the 36 runs' total over 16 instances), so generator
/// seeds are drawn from the workload seed until one's FIFO mapping run
/// delivers within 2 % of the family median, or the closest of
/// [`CYCLIC_CANDIDATES`] is kept.
pub fn sweep_cyclic_spec(seed: u64) -> String {
    let mut text = header(seed, "sweep-cyclic", 2);
    for (i, (n, target)) in CYCLIC_TYPICAL_DELIVERIES.into_iter().enumerate() {
        let mut best: Option<(u64, String)> = None;
        for k in 0..CYCLIC_CANDIDATES {
            let generator = derived(seed, (200 + i as u64) * CYCLIC_CANDIDATES + k);
            let line = format!("random-cyclic {n} 10 15 {generator}");
            let miss = fifo_mapping_deliveries(&line).abs_diff(target);
            if best.as_ref().is_none_or(|(closest, _)| miss < *closest) {
                best = Some((miss, line));
            }
            if miss * 50 <= target {
                break;
            }
        }
        let (_, line) = best.expect("at least one candidate");
        text.push_str(&format!("topology {line}\n"));
    }
    text.push_str("topology nested-cycles 4 8\n");
    text.push_str("topology cycle-with-tail 64\n");
    text
}

/// Shards a pass of `workload` is run in, one after another: one for
/// `sweep-grid` (the CLI default; more would split its dedup clusters), 16
/// for `sweep-cyclic`, whose units are all distinct, so that its 13 s pass is
/// timed in calls of about a second each (see [`crate::host`]).
pub fn sweep_shards(workload: &str) -> usize {
    if workload == "sweep-cyclic" {
        16
    } else {
        1
    }
}

/// The spec text of a sweep workload, or `None` for another name.
pub fn sweep_spec(workload: &str, seed: u64) -> Option<String> {
    match workload {
        "sweep-grid" => Some(sweep_grid_spec(seed)),
        "sweep-cyclic" => Some(sweep_cyclic_spec(seed)),
        _ => None,
    }
}
