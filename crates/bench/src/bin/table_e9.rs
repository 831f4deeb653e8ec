//! E9 — Lemmas 3.3–3.7 / Figures 1–3: linear-cut snapshots and the surgery behind
//! the grounded-tree lower bound. Prints the E9 table.

use anet_bench::render_table;
use anet_core::Pow2Commodity;
use anet_graph::generators::{chain_gn, full_grounded_tree, random_grounded_tree, star_network};
use anet_lowerbounds::linear_cut::verify_cut_lemmas;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(anet_bench::WORKLOAD_SEED ^ 0x9);
    let nets = vec![
        ("chain-gn/6".to_owned(), chain_gn(6).expect("valid")),
        ("chain-gn/10".to_owned(), chain_gn(10).expect("valid")),
        ("star/8".to_owned(), star_network(8).expect("valid")),
        (
            "full-tree/h2-d3".to_owned(),
            full_grounded_tree(2, 3).expect("valid"),
        ),
        (
            "random-tree/12".to_owned(),
            random_grounded_tree(&mut rng, 12, 3, 0.5).expect("valid"),
        ),
    ];
    let mut rows = Vec::new();
    for (name, net) in &nets {
        let outcome = verify_cut_lemmas::<Pow2Commodity>(net, 1 << 14);
        rows.push(vec![
            name.clone(),
            net.edge_count().to_string(),
            outcome.cuts_examined.to_string(),
            outcome.one_message_per_edge.to_string(),
            outcome.cut_multisets_terminating.to_string(),
            outcome.no_strict_submultiset_pair.to_string(),
            outcome.auxiliary_networks_never_terminate.to_string(),
            outcome.branching_pairs_distinct.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            "E9 — linear-cut lemmas (3.3, 3.5, 3.7) and Theorem 3.6 surgery",
            &[
                "network",
                "|E|",
                "cuts examined",
                "1 msg/edge (L3.3)",
                "cut multisets terminating (L3.5)",
                "no strict submultiset (T3.6)",
                "t* surgery never terminates (T3.6)",
                "branching pairs distinct (L3.7)",
            ],
            &rows,
        )
    );
}
