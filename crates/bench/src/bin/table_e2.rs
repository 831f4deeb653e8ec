//! E2 — Theorem 3.2 / Figure 5: the chain family lower bound. Prints the E2
//! table.

use anet_bench::{f3, render_table};
use anet_core::Pow2Commodity;
use anet_lowerbounds::chain_family::chain_family_experiment;

fn main() {
    let ns = [4usize, 8, 16, 32, 64, 128, 256, 512];
    let points = chain_family_experiment::<Pow2Commodity>(&ns, 0);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                p.edges.to_string(),
                p.symbol_lower_bound.to_string(),
                p.stats.distinct_symbols.to_string(),
                p.stats.min_symbol_bits.to_string(),
                p.stats.total_bits.to_string(),
                p.stats.bandwidth_bits.to_string(),
                f3(p.normalized_total_bits()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "E2 — chain family G_n: Ω(n) distinct symbols, Ω(|E| log |E|) total bits (Theorem 3.2)",
            &[
                "n",
                "|E|",
                "symbol lower bound",
                "distinct symbols used",
                "min bits/symbol",
                "total bits",
                "bandwidth bits",
                "total / |E|log|E|",
            ],
            &rows,
        )
    );
}
