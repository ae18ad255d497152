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

/// The vertex of maximum degree (the first on ties; `0` on an empty
/// graph): the Byzantine site a containment radius must survive.
pub(crate) fn max_degree_node(g: &Graph) -> usize {
    g.nodes().max_by_key(|&v| g.neighbors(v).len()).unwrap_or(0)
}

/// Containment statistics of one table cell over seeds.
#[derive(Debug, Default)]
pub(crate) struct Cell {
    /// Certified rounds of the seeds that got there within budget.
    pub(crate) rounds: Vec<u64>,
    /// Largest disruption radius at any seed's stopping point.
    pub(crate) worst_radius: usize,
}

impl Cell {
    /// Adds one seed's certified round (`None` if its budget ran out) and
    /// its disruption radius at the stopping point.
    pub(crate) fn record(&mut self, round: Option<u64>, radius: usize) {
        self.rounds.extend(round);
        self.worst_radius = self.worst_radius.max(radius);
    }
}

/// The `certified / mean round / worst radius` columns of a cell; a
/// rejected cell fills the row with its error instead.
pub(crate) fn cell_row<E: std::fmt::Display>(cell: &Result<Cell, E>, seeds: u64) -> [String; 3] {
    let cell = match cell {
        Ok(cell) => cell,
        Err(e) => return [format!("error: {e}"), "-".into(), "-".into()],
    };
    let mean = if cell.rounds.is_empty() {
        "-".to_string()
    } else {
        format!("{:.1}", Summary::of_counts(cell.rounds.iter().copied()).mean)
    };
    let radius = if cell.worst_radius == usize::MAX {
        "∞".to_string()
    } else {
        cell.worst_radius.to_string()
    };
    [format!("{}/{seeds}", cell.rounds.len()), mean, radius]
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
