//! E4 — Theorem 3.8 / Figure 4: commodity-preserving bandwidth lower bound.
//! Prints the E4 table.

use anet_bench::render_table;
use anet_core::Pow2Commodity;
use anet_lowerbounds::skeleton::skeleton_experiment;

fn main() {
    let mut rows = Vec::new();
    for n in [2usize, 4, 6, 8, 10, 12, 14] {
        let outcome = skeleton_experiment::<Pow2Commodity>(n, 1 << 10);
        rows.push(vec![
            n.to_string(),
            outcome.nodes.to_string(),
            outcome.edges.to_string(),
            outcome.subsets_tested.to_string(),
            outcome.distinct_quantities.to_string(),
            outcome.all_distinct.to_string(),
            outcome.min_bits_on_collector_edge.to_string(),
            outcome.observed_collector_message_bits.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            "E4 — skeleton graphs: 2^n distinct collector quantities force Ω(|E|) bandwidth (Theorem 3.8)",
            &[
                "n",
                "|V|",
                "|E|",
                "subsets tested",
                "distinct quantities",
                "all distinct",
                "min bits on w->t",
                "observed bits on w->t",
            ],
            &rows,
        )
    );
}
