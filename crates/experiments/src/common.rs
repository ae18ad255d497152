//! Shared plumbing for the experiment drivers: workload sweeps, repeated
//! stabilization measurements, and report assembly.

use analysis::{FitReport, Summary};
use graphs::generators::GraphFamily;
use graphs::Graph;
use mis::runner::{self, InitialLevels, RunConfig, SelfStabilizingMis};

/// Sweep sizes for the theorem experiments: powers of two.
pub fn sweep_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![64, 128, 256]
    } else {
        vec![128, 256, 512, 1024, 2048, 4096, 8192, 16384]
    }
}

/// Number of random seeds per configuration.
pub fn seed_count(quick: bool) -> u64 {
    if quick {
        5
    } else {
        50
    }
}

/// Generation seed for the workload graph at sweep position `i` (kept
/// disjoint from the execution seeds).
pub fn graph_seed(i: usize) -> u64 {
    0x6000 + i as u64
}

/// Measured stabilization times for one `(graph, algorithm)` pair over
/// `seeds` independent executions from `init`, plus the number of runs that
/// blew the budget.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Stabilization rounds of the successful runs.
    pub rounds: Vec<u64>,
    /// Runs that exhausted the round budget.
    pub failures: usize,
    /// Budget used.
    pub max_rounds: u64,
}

impl Measurement {
    /// Summary of the successful rounds.
    ///
    /// # Panics
    ///
    /// Panics if every run failed.
    pub fn summary(&self) -> Summary {
        Summary::of_counts(self.rounds.iter().copied())
    }
}

/// Runs `algo` on `graph` for seeds `0..seeds` and collects stabilization
/// times. Every successful run's output is verified to be an MIS (a
/// violated invariant is a bug, so it panics loudly).
pub fn measure<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    seeds: u64,
    init: InitialLevels,
    max_rounds: u64,
) -> Measurement {
    let mut rounds = Vec::with_capacity(seeds as usize);
    let mut failures = 0;
    for seed in 0..seeds {
        let config = RunConfig::new(seed).with_init(init.clone()).with_max_rounds(max_rounds);
        match runner::run(graph, algo, config) {
            Ok(outcome) => {
                assert!(
                    graphs::mis::is_maximal_independent_set(graph, &outcome.mis),
                    "algorithm produced a non-MIS (graph n={}, seed {seed})",
                    graph.len()
                );
                rounds.push(outcome.stabilization_round);
            }
            Err(_) => failures += 1,
        }
    }
    Measurement { rounds, failures, max_rounds }
}

/// One row of a theorem-experiment sweep: mean stabilization time at one
/// `(family, n)` point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Network size.
    pub n: usize,
    /// Max degree of the generated instance.
    pub delta: usize,
    /// Summary over seeds.
    pub summary: Summary,
    /// Budget failures.
    pub failures: usize,
}

/// Runs a full `T(n)` sweep of `make_algo` over `family` and the given
/// sizes.
pub fn sweep<A, F>(
    family: &GraphFamily,
    sizes: &[usize],
    seeds: u64,
    max_rounds: u64,
    make_algo: F,
) -> Vec<SweepPoint>
where
    A: SelfStabilizingMis,
    F: Fn(&Graph) -> A,
{
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let g = family.generate(n, graph_seed(i));
            let algo = make_algo(&g);
            let m = measure(&g, &algo, seeds, InitialLevels::Random, max_rounds);
            SweepPoint {
                n: g.len(),
                delta: g.max_degree(),
                summary: m.summary(),
                failures: m.failures,
            }
        })
        .collect()
}

/// Renders a sweep as table rows plus the model-comparison fit lines; the
/// standard output block of the theorem experiments.
pub fn render_sweep(out: &mut String, family: &GraphFamily, points: &[SweepPoint]) {
    let mut table =
        analysis::Table::new(["n", "Δ", "mean", "ci95", "median", "p95", "max", "fail"]);
    for p in points {
        table.row([
            p.n.to_string(),
            p.delta.to_string(),
            format!("{:.1}", p.summary.mean),
            format!("±{:.1}", p.summary.ci95_halfwidth()),
            format!("{:.0}", p.summary.median),
            format!("{:.0}", p.summary.p95),
            format!("{:.0}", p.summary.max),
            p.failures.to_string(),
        ]);
    }
    out.push_str(&format!("\n## family: {family}\n\n{table}"));
    if points.len() >= 3 {
        let sizes: Vec<usize> = points.iter().map(|p| p.n).collect();
        let means: Vec<f64> = points.iter().map(|p| p.summary.mean).collect();
        out.push_str("\nmodel fits (best R² first):\n");
        for report in FitReport::compare_all(&sizes, &means).iter().take(3) {
            out.push_str(&format!("  {report}\n"));
        }
    }
}

/// Standard report header.
pub fn header(id: &str, title: &str) -> String {
    format!("# [{id}] {title}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis::{Algorithm1, LmaxPolicy};

    #[test]
    fn measure_counts_and_verifies() {
        let g = GraphFamily::Cycle.generate(32, 0);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let m = measure(&g, &algo, 4, InitialLevels::Random, 100_000);
        assert_eq!(m.rounds.len() + m.failures, 4);
        assert_eq!(m.failures, 0);
        assert!(m.summary().mean > 0.0);
    }

    #[test]
    fn sweep_produces_point_per_size() {
        let family = GraphFamily::Cycle;
        let points = sweep(&family, &[16, 32], 3, 100_000, |g| {
            Algorithm1::new(g, LmaxPolicy::global_delta(g))
        });
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].n, 16);
        assert_eq!(points[1].delta, 2);
    }

    #[test]
    fn render_sweep_includes_fits_for_three_points() {
        let family = GraphFamily::Cycle;
        let points = sweep(&family, &[16, 32, 64], 3, 100_000, |g| {
            Algorithm1::new(g, LmaxPolicy::global_delta(g))
        });
        let mut out = String::new();
        render_sweep(&mut out, &family, &points);
        assert!(out.contains("model fits"));
        assert!(out.contains("cycle"));
    }

    #[test]
    fn quick_knobs() {
        assert!(sweep_sizes(true).len() < sweep_sizes(false).len());
        assert!(seed_count(true) < seed_count(false));
    }
}
