//! Experiment `ENERGY` — beep (radio-energy) complexity.
//!
//! In the wireless systems that motivate the beeping model (§1),
//! transmissions dominate the energy budget; round complexity alone
//! understates an algorithm's cost. This experiment measures **total
//! channel-1 beeps per node until stabilization** for both of the paper's
//! algorithms across sizes, and splits the converged cost into the
//! transient (pre-stabilization) part and the steady-state part — the
//! latter matters because the paper's algorithms deliberately keep MIS
//! members beeping forever (the health signal that buys
//! self-stabilization), an ongoing energy price the JSX baseline does not
//! pay.

use analysis::Summary;
use graphs::generators::GraphFamily;
use mis::runner::{InitialLevels, RunConfig, RunError};
use mis::{Algorithm1, Algorithm2, LmaxPolicy};

/// Energy measurements for one algorithm at one size.
#[derive(Debug, Clone)]
pub struct EnergyPoint {
    /// Stabilization rounds.
    pub rounds: Summary,
    /// Total beeps per node until stabilization.
    pub beeps_per_node: Summary,
    /// Steady-state beeps per node per round after stabilization
    /// (= |MIS| / n; every member beeps once per round).
    pub steady_state_per_round: Summary,
}

/// Measures one `(algorithm, n)` cell. Errors (instead of panicking) when
/// any seed exhausts its stabilization budget.
pub fn measure_energy(
    g: &graphs::Graph,
    two_channel: bool,
    seeds: u64,
) -> Result<EnergyPoint, RunError> {
    let mut rounds = Vec::new();
    let mut beeps = Vec::new();
    let mut steady = Vec::new();
    for seed in 0..seeds {
        let config = RunConfig::new(seed).with_init(InitialLevels::Random);
        let (stab, total_beeps, mis_size) = if two_channel {
            let algo = Algorithm2::new(g, LmaxPolicy::two_hop_degree(g));
            let o = algo.run(g, config)?;
            // For Algorithm 2 the steady-state signal is on channel 2; count
            // both channels for the transient total.
            let total: usize =
                o.trace.reports().iter().map(|r| r.beeps_channel1 + r.beeps_channel2).sum();
            (o.stabilization_round, total, graphs::mis::size(&o.mis))
        } else {
            let algo = Algorithm1::new(g, LmaxPolicy::global_delta(g));
            let o = algo.run(g, config)?;
            (o.stabilization_round, o.trace.total_beeps_channel1(), graphs::mis::size(&o.mis))
        };
        rounds.push(stab);
        beeps.push((total_beeps as f64 / g.len() as f64 * 1000.0) as u64); // milli-beeps
        steady.push((mis_size as f64 / g.len() as f64 * 1000.0) as u64);
    }
    Ok(EnergyPoint {
        rounds: Summary::of_counts(rounds),
        beeps_per_node: Summary::of_counts(beeps),
        steady_state_per_round: Summary::of_counts(steady),
    })
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    let sizes: Vec<usize> = if quick { vec![64, 128] } else { vec![256, 1024, 4096, 16384] };
    let seeds = crate::common::seed_count(quick);
    let family = GraphFamily::Geometric { avg_degree: 8.0 };
    let mut out = crate::common::header("ENERGY", "Beep (radio-energy) complexity");
    out.push_str(&format!("workload: {family}; random init; {seeds} seeds\n\n"));
    let mut table = analysis::Table::new([
        "n",
        "algorithm",
        "rounds",
        "beeps/node (transient)",
        "steady beeps/node/round",
    ]);
    for (i, &n) in sizes.iter().enumerate() {
        let g = family.generate(n, crate::common::graph_seed(i));
        for (label, two_channel) in [("Alg 1", false), ("Alg 2 (2ch)", true)] {
            let p = match measure_energy(&g, two_channel, seeds) {
                Ok(p) => p,
                Err(e) => {
                    out.push_str(&format!("warning: skipping n={n} {label}: {e}\n"));
                    continue;
                }
            };
            table.row([
                g.len().to_string(),
                label.to_string(),
                format!("{:.1}", p.rounds.mean),
                format!("{:.2}", p.beeps_per_node.mean / 1000.0),
                format!("{:.3}", p.steady_state_per_round.mean / 1000.0),
            ]);
        }
    }
    out.push_str(&table.to_string());
    out.push_str(
        "\nexpected shape: transient beeps per node stay O(rounds) = O(log n); the \
         steady-state cost is |MIS|/n beeps per node per round (≈ 0.2 on geometric \
         graphs) — the permanent price of the health signal that makes the algorithm \
         self-stabilizing.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_bounded_by_rounds() {
        let g = GraphFamily::Geometric { avg_degree: 8.0 }.generate(128, 1);
        let p = measure_energy(&g, false, 5).expect("stabilizes");
        // A node beeps at most once per round.
        assert!(p.beeps_per_node.mean / 1000.0 <= p.rounds.mean);
        assert!(p.beeps_per_node.mean > 0.0);
        // Steady-state fraction is the MIS density: strictly within (0, 1).
        let steady = p.steady_state_per_round.mean / 1000.0;
        assert!(steady > 0.0 && steady < 1.0);
    }

    #[test]
    fn report_covers_both_algorithms() {
        let report = run(true);
        assert!(report.contains("Alg 1"));
        assert!(report.contains("Alg 2"));
        assert!(report.contains("steady"));
    }
}
