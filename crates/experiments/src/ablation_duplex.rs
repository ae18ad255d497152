//! Experiment `ABL-HD` — the model ablation: why full duplex matters.
//!
//! The paper's model is the *full-duplex* beeping model ("with collision
//! detection"): a beeping node still hears its neighbors. Algorithm 1's
//! join rule — "I beeped and heard nothing, so my claim is uncontested" —
//! leans on exactly that capability. Under **half duplex** (transmitting
//! drowns out reception), a beeping vertex always hears silence, so *any*
//! beeping vertex immediately believes its claim succeeded; two adjacent
//! claimants both jump to `-ℓmax`, keep beeping at probability 1, never
//! hear each other, and the pair deadlocks forever.
//!
//! This experiment runs Algorithm 1 under both duplex modes and counts
//! stabilization successes and (for half duplex) the terminal deadlock
//! pattern — adjacent vertices frozen in the prominent region.

use beeping::sim::DuplexMode;
use beeping::Simulator;
use graphs::generators::GraphFamily;
use mis::observer::Snapshot;
use mis::runner::{initial_levels, RunConfig};
use mis::{Algorithm1, LmaxPolicy};

/// Result of one run under a duplex mode.
#[derive(Debug, Clone, Copy)]
pub struct DuplexOutcome {
    /// Did the run reach `S_t = V` within the budget?
    pub stabilized: bool,
    /// Rounds executed (stabilization round, or the full budget).
    pub rounds: u64,
    /// Pairs of adjacent prominent vertices in the final configuration —
    /// the half-duplex deadlock signature (always 0 in a legal state).
    pub adjacent_prominent_pairs: usize,
}

/// Runs Algorithm 1 on `g` under `mode`.
pub fn run_once(g: &graphs::Graph, mode: DuplexMode, seed: u64, budget: u64) -> DuplexOutcome {
    let algo = Algorithm1::new(g, LmaxPolicy::global_delta(g));
    let config = RunConfig::new(seed);
    let init = initial_levels(&algo, &config);
    let mut sim = Simulator::new(g, algo.clone(), init, seed).with_duplex(mode);
    while !algo.is_stabilized(g, sim.states()) && sim.round() < budget {
        sim.step();
    }
    let stabilized = algo.is_stabilized(g, sim.states());
    let lmax = algo.policy().lmax_values().to_vec();
    let snap = Snapshot::new(g, &lmax, sim.states());
    let deadlocked =
        g.edges().filter(|&(u, v)| snap.is_prominent(u) && snap.is_prominent(v)).count();
    DuplexOutcome { stabilized, rounds: sim.round(), adjacent_prominent_pairs: deadlocked }
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    let (n, seeds, budget) = if quick { (64, 5, 20_000u64) } else { (512, 30, 100_000u64) };
    let family = GraphFamily::Gnp { avg_degree: 8.0 };
    let g = family.generate(n, 0xD0);
    let mut out = crate::common::header("ABL-HD", "Model ablation: full vs half duplex");
    out.push_str(&format!(
        "workload: {family}, n = {}; Algorithm 1, global-Δ policy, random init, budget {budget}\n\n",
        g.len()
    ));
    let mut table = analysis::Table::new([
        "duplex",
        "stabilized",
        "mean rounds (stabilized runs)",
        "mean adjacent-prominent pairs at end",
    ]);
    for mode in [DuplexMode::Full, DuplexMode::Half] {
        let mut ok = 0u32;
        let mut rounds = Vec::new();
        let mut deadlocks = 0usize;
        for seed in 0..seeds {
            let o = run_once(&g, mode, seed, budget);
            if o.stabilized {
                ok += 1;
                rounds.push(o.rounds);
            }
            deadlocks += o.adjacent_prominent_pairs;
        }
        table.row([
            format!("{mode:?}"),
            format!("{ok}/{seeds}"),
            if rounds.is_empty() {
                "—".into()
            } else {
                format!("{:.1}", analysis::Summary::of_counts(rounds).mean)
            },
            format!("{:.1}", deadlocks as f64 / seeds as f64),
        ]);
    }
    out.push_str(&table.to_string());
    out.push_str(
        "\nexpected shape: full duplex stabilizes always; half duplex essentially never \
         — runs end with adjacent vertices frozen in the prominent region (mutual blind \
         claims), demonstrating that the collision-detection capability is load-bearing.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_duplex_stabilizes_half_does_not() {
        let g = GraphFamily::Gnp { avg_degree: 8.0 }.generate(64, 1);
        let full = run_once(&g, DuplexMode::Full, 3, 100_000);
        assert!(full.stabilized);
        assert_eq!(full.adjacent_prominent_pairs, 0);
        let half = run_once(&g, DuplexMode::Half, 3, 20_000);
        assert!(!half.stabilized, "half duplex must deadlock on a dense-enough graph");
        assert!(
            half.adjacent_prominent_pairs > 0,
            "the deadlock signature (adjacent blind claimants) must be visible"
        );
    }

    #[test]
    fn report_covers_both_modes() {
        let report = run(true);
        assert!(report.contains("Full"));
        assert!(report.contains("Half"));
    }
}
