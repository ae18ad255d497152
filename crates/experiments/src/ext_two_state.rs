//! Experiment `EXT-2STATE` — the constant-state alternative \[16\].
//!
//! The paper cites Giakkoupis & Ziccardi's constant-state self-stabilizing
//! beeping MIS as stabilizing "in poly-logarithmic rounds w.h.p., albeit
//! being efficient only for some graph families". This experiment measures
//! a faithful-in-spirit two-state protocol against Algorithm 1 across
//! families of increasing density and heterogeneity.
//!
//! Measured outcome (recorded in EXPERIMENTS.md): the two-state dynamics is
//! empirically *fast* on every family tested — typically 3–5× fewer
//! absolute rounds than Algorithm 1, whose cost is dominated by its
//! Θ(ℓmax) level ramp. The trade the paper's algorithm makes is therefore
//! about *guarantees*, not measured speed: Algorithm 1 carries a proven
//! O(log n) w.h.p. bound on **all** graphs, while constant-state protocols'
//! analyses cover only some families (and adversarial instances beyond
//! these sweeps may exist). The experiment quantifies the constant-factor
//! price of that proof.

use analysis::Summary;
use baselines::TwoStateMis;
use graphs::generators::GraphFamily;
use mis::runner::InitialLevels;
use mis::{Algorithm1, LmaxPolicy};

use crate::common;

/// Families of increasing difficulty for the constant-state protocol.
pub fn families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::Cycle,
        GraphFamily::Gnp { avg_degree: 4.0 },
        GraphFamily::Gnp { avg_degree: 16.0 },
        GraphFamily::Gnp { avg_degree: 64.0 },
        GraphFamily::BarabasiAlbert { m: 8 },
        GraphFamily::Complete,
        GraphFamily::Star,
        GraphFamily::StarOfCliques { clique: 8 },
    ]
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    let (n, seeds, budget) = if quick { (96, 5, 200_000u64) } else { (1024, 30, 1_000_000u64) };
    let mut out = common::header(
        "EXT-2STATE",
        "Constant-state baseline [16] vs Algorithm 1 across densities",
    );
    out.push_str(&format!("n = {n}, {seeds} seeds, budget {budget} rounds, random init\n\n"));
    let mut table = analysis::Table::new([
        "family",
        "Δ",
        "2-state mean",
        "2-state p95",
        "fail",
        "Alg1 mean",
        "2state/Alg1",
    ]);
    for (i, family) in families().iter().enumerate() {
        let g = family.generate(n, common::graph_seed(i));
        let two_state = TwoStateMis::new();
        let mut rounds = Vec::new();
        let mut failures = 0usize;
        for seed in 0..seeds {
            match two_state.run_random_init(&g, seed, budget) {
                Ok(outcome) => {
                    assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
                    rounds.push(outcome.rounds_run);
                }
                Err(_) => failures += 1,
            }
        }
        let reference = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let sr = common::measure(&g, &reference, seeds, InitialLevels::Random, budget).summary();
        let (mean_str, p95_str, ratio_str) = if rounds.is_empty() {
            ("—".to_string(), "—".to_string(), "—".to_string())
        } else {
            let sa = Summary::of_counts(rounds);
            (
                format!("{:.1}", sa.mean),
                format!("{:.0}", sa.p95),
                format!("{:.2}×", sa.mean / sr.mean),
            )
        };
        table.row([
            family.name(),
            g.max_degree().to_string(),
            mean_str,
            p95_str,
            failures.to_string(),
            format!("{:.1}", sr.mean),
            ratio_str,
        ]);
    }
    out.push_str(&table.to_string());
    out.push_str(
        "\nmeasured shape: the constant-state dynamics is consistently fast (often faster \
         than Algorithm 1, whose absolute cost is dominated by the Θ(ℓmax) ramp) — the \
         level ladder buys proven all-graph O(log n) guarantees rather than raw speed \
         on these families.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_families() {
        let report = run(true);
        assert!(report.contains("EXT-2STATE"));
        assert!(report.contains("cycle"));
        assert!(report.contains("2state/Alg1"));
    }

    #[test]
    fn two_state_competitive_on_cycles() {
        let g = GraphFamily::Cycle.generate(96, 0);
        let two_state = TwoStateMis::new();
        for seed in 0..3 {
            let outcome = two_state.run_random_init(&g, seed, 1_000_000).expect("stabilizes");
            assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
            let rounds = outcome.rounds_run;
            assert!(rounds < 10_000, "cycles should be easy, took {rounds}");
        }
    }
}
