//! A memory guard for mapping's record bags.
//!
//! Under a depth-first order on a wide tree, record ids follow the walk, so a
//! vertex deep in the tree knows a handful of records with ids spread over
//! the whole run: a bitset sized by its largest id would cost a word for
//! every 64 records of the run at each of 10⁵ vertices. Every vertex's
//! `known` must stay within twice the bytes its sorted id vector takes.
//!
//! In release builds the tree is `full_grounded_tree(5, 10)` (about 1.1·10⁵
//! vertices; CI runs it that way), in debug builds `full_grounded_tree(4,
//! 10)`, as in the root package's `mapping_roundtrip` suite.

use anet_core::mapping::Mapping;
use anet_graph::generators::full_grounded_tree;
use anet_sim::engine::{run, ExecutionConfig};
use anet_sim::scheduler::DepthFirstScheduler;

#[test]
fn known_bags_stay_within_twice_their_sorted_vectors_on_a_wide_tree() {
    let height = if cfg!(debug_assertions) { 4 } else { 5 };
    let net = full_grounded_tree(height, 10).unwrap();
    let result = run(
        &net,
        &Mapping::new(),
        &mut DepthFirstScheduler::new(),
        ExecutionConfig::default(),
    );
    assert!(result.outcome.terminated());
    let stored: usize = result.states.iter().map(|s| s.known.storage_bytes()).sum();
    let sorted: usize = result.states.iter().map(|s| 4 * s.known.len()).sum();
    assert!(
        stored <= 2 * sorted,
        "{stored} bytes stored against {sorted} as sorted vectors"
    );
}
