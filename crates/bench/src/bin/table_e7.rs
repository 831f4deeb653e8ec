//! E7 — Theorem 5.2 / Figure 6: the label-length lower bound via pruning.
//! Prints the E7 table.

use anet_bench::{f3, render_table};
use anet_lowerbounds::pruning::pruning_experiment;

fn main() {
    let mut rows = Vec::new();
    for (height, arity, compare) in [
        (2usize, 2usize, true),
        (3, 2, true),
        (3, 3, true),
        (4, 3, true),
        (8, 4, false),
        (16, 4, false),
        (32, 4, false),
        (64, 4, false),
        (16, 8, false),
        (16, 16, false),
    ] {
        let o = pruning_experiment(height, arity, compare);
        rows.push(vec![
            height.to_string(),
            arity.to_string(),
            o.pruned_nodes.to_string(),
            o.pruned_deep_label_bits.to_string(),
            o.full_deep_label_bits
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".to_owned()),
            o.labels_match_along_path
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".to_owned()),
            f3(o.h_log_d),
            f3(o.normalized_label_bits()),
        ]);
    }
    print!(
        "{}",
        render_table(
            "E7 — pruned trees: deep label needs Ω(|V| log d_out) bits (Theorem 5.2)",
            &[
                "height h",
                "arity d",
                "pruned |V|",
                "deep label bits (pruned)",
                "deep label bits (full)",
                "labels match",
                "h log2 d",
                "label bits / (h log d)",
            ],
            &rows,
        )
    );
}
