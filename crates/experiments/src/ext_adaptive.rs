//! Experiment `EXT-ADAPT` — the open question of §8, explored.
//!
//! *Question* (paper conclusion): can a fast self-stabilizing beeping MIS
//! work with **no** topology knowledge at all?
//!
//! *Exploration*: [`mis::adaptive::AdaptiveMis`] learns its level cap from
//! collision evidence instead of being told `ℓmax`. This experiment
//! measures, against the knowledge-based policies on the same graphs:
//!
//! 1. reliability (does it always stabilize to a valid MIS from random
//!    states?),
//! 2. the round cost of learning (how much slower than Theorem 2.1?),
//! 3. what the caps converge to, compared with the knowledge-derived
//!    values `2⌈log₂ deg(v)⌉ + c` the theorems would prescribe.

use analysis::Summary;
use graphs::generators::GraphFamily;
use mis::adaptive::AdaptiveMis;
use mis::runner::InitialLevels;
use mis::{Algorithm1, LmaxPolicy};

use crate::common;

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    let sizes: Vec<usize> = if quick { vec![64, 128] } else { vec![128, 512, 2048, 8192] };
    let seeds = common::seed_count(quick);
    let mut out =
        common::header("EXT-ADAPT", "Open question (§8): knowledge-free adaptive variant");
    out.push_str(
        "AdaptiveMis learns its cap from collisions (no Δ / deg / deg₂ / n knowledge);\n\
         compared against Algorithm 1 with the Thm 2.1 policy on the same graphs.\n\n",
    );
    let mut table = analysis::Table::new([
        "family",
        "n",
        "adaptive mean",
        "adaptive p95",
        "fail",
        "Thm2.1 mean",
        "adaptive/Thm2.1",
    ]);
    for family in [GraphFamily::Gnp { avg_degree: 8.0 }, GraphFamily::BarabasiAlbert { m: 3 }] {
        for (i, &n) in sizes.iter().enumerate() {
            let g = family.generate(n, common::graph_seed(i));
            // Adaptive runs.
            let adaptive = AdaptiveMis::new();
            let mut rounds = Vec::new();
            let mut failures = 0usize;
            for seed in 0..seeds {
                match adaptive.run_random_init(&g, seed, 2_000_000) {
                    Ok(outcome) => {
                        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
                        rounds.push(outcome.rounds_run);
                    }
                    Err(_) => failures += 1,
                }
            }
            let sa = Summary::of_counts(rounds);
            // Reference runs.
            let reference = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
            let sr =
                common::measure(&g, &reference, seeds, InitialLevels::Random, 2_000_000).summary();
            table.row([
                family.name(),
                g.len().to_string(),
                format!("{:.1}", sa.mean),
                format!("{:.0}", sa.p95),
                failures.to_string(),
                format!("{:.1}", sr.mean),
                format!("{:.2}×", sa.mean / sr.mean),
            ]);
        }
    }
    out.push_str(&table.to_string());

    // Cap learning in isolation: start every vertex from the minimal cap
    // (fresh state, not random — random initial caps would mask what the
    // collision rule actually learns) and see what the caps grow to.
    let g = GraphFamily::BarabasiAlbert { m: 3 }.generate(if quick { 128 } else { 1024 }, 0xEA);
    let adaptive = AdaptiveMis::new();
    let fresh = vec![mis::adaptive::AdaptiveState::fresh(); g.len()];
    let Ok(learned) = adaptive.run_from(&g, fresh, 1, 2_000_000) else {
        out.push_str(
            "\nwarning: skipping cap-learning section: the fresh-cap run did not \
             stabilize within its 2000000-round budget\n",
        );
        return out;
    };
    let caps: Vec<f64> = learned.levels.iter().map(|s| s.cap as f64).collect();
    let prescribed: Vec<f64> =
        g.nodes().map(|v| 2.0 * (mis::levels::log2_ceil(g.degree(v)) as f64) + 30.0).collect();
    out.push_str(&format!(
        "\ncap learning from fresh minimal caps on {} (n = {}):\n  learned    {}\n  Thm 2.2    {}\n",
        GraphFamily::BarabasiAlbert { m: 3 },
        g.len(),
        Summary::of(&caps),
        Summary::of(&prescribed)
    ));
    out.push_str(
        "\nexpected shape: zero failures (the variant is empirically self-stabilizing); \
         a modest constant-factor round overhead versus the knowledge-based policy \
         (the price of learning); caps grown from the minimum stay below the \
         conservative Thm 2.2 prescriptions — the open question looks answerable in \
         practice, though without a proof.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_comparison_and_caps() {
        let report = run(true);
        assert!(report.contains("EXT-ADAPT"));
        assert!(report.contains("adaptive/Thm2.1"));
        assert!(report.contains("cap learning"));
    }

    #[test]
    fn adaptive_never_fails_in_quick_sweep() {
        let g = GraphFamily::Gnp { avg_degree: 8.0 }.generate(96, 1);
        let adaptive = AdaptiveMis::new();
        for seed in 0..5 {
            let outcome = adaptive.run_random_init(&g, seed, 2_000_000).expect("stabilizes");
            assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
        }
    }
}
