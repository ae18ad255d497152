//! Experiment `SS-A` — why JSX is not self-stabilizing (§2's motivation).
//!
//! *Claim* (paper §2): the original Jeavons–Scott–Xu algorithm fails from
//! adversarial initial configurations for two reasons: it depends on the
//! clean start `p₁(v) = ½`, and on the two-round phases being synchronized
//! modulo 2; moreover its stabilized vertices are silent, so corrupted
//! "done" states are undetectable. Algorithm 1 converges from *every*
//! configuration.
//!
//! *Measurement*: run both algorithms from matched adversarial
//! initialization classes and count (completed, valid-MIS) outcomes.

use baselines::jeavons::{JsxMis, JsxState, JsxStatus};
use beeping::rng::aux_rng;
use graphs::Graph;
use mis::runner::{InitialLevels, RunConfig};
use mis::{Algorithm1, LmaxPolicy};
use rand::Rng;

/// Adversarial initialization classes for JSX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsxInit {
    /// The clean start the analysis assumes.
    Clean,
    /// Random parity only (phase desynchronization).
    DesyncParity,
    /// Fully random states (status, parity, probability).
    RandomStates,
    /// Two adjacent vertices already believe they are in the MIS.
    AdjacentInMis,
    /// Every vertex believes it is out of the MIS.
    AllOut,
}

impl JsxInit {
    /// All classes, in report order.
    pub fn all() -> [JsxInit; 5] {
        [
            JsxInit::Clean,
            JsxInit::DesyncParity,
            JsxInit::RandomStates,
            JsxInit::AdjacentInMis,
            JsxInit::AllOut,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            JsxInit::Clean => "clean start",
            JsxInit::DesyncParity => "desynced phases",
            JsxInit::RandomStates => "random states",
            JsxInit::AdjacentInMis => "adjacent InMis pair",
            JsxInit::AllOut => "all OutOfMis",
        }
    }

    /// Builds the initial states for `g`.
    pub fn states(self, g: &Graph, seed: u64) -> Vec<JsxState> {
        let mut rng = aux_rng(seed, 0xADE);
        let n = g.len();
        match self {
            JsxInit::Clean => vec![JsxState::clean(); n],
            JsxInit::DesyncParity => (0..n)
                .map(|_| JsxState { parity: rng.gen_range(0..2), ..JsxState::clean() })
                .collect(),
            JsxInit::RandomStates => (0..n)
                .map(|_| JsxState {
                    prob_exp: rng.gen_range(1..20),
                    parity: rng.gen_range(0..2),
                    heard_in_competition: rng.gen_bool(0.5),
                    status: match rng.gen_range(0..4) {
                        0 => JsxStatus::Active,
                        1 => JsxStatus::Joining,
                        2 => JsxStatus::InMis,
                        _ => JsxStatus::OutOfMis,
                    },
                })
                .collect(),
            JsxInit::AdjacentInMis => {
                let mut states = vec![JsxState::clean(); n];
                if let Some((u, v)) = g.edges().next() {
                    states[u].status = JsxStatus::InMis;
                    states[v].status = JsxStatus::InMis;
                }
                states
            }
            JsxInit::AllOut => {
                vec![JsxState { status: JsxStatus::OutOfMis, ..JsxState::clean() }; n]
            }
        }
    }
}

/// Outcome counts of one (algorithm, init class) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cell {
    /// Runs attempted.
    pub runs: u32,
    /// Runs that reached the algorithm's own termination/stabilization
    /// criterion within the budget.
    pub completed: u32,
    /// Runs whose final output was a valid MIS.
    pub valid: u32,
}

/// Measures JSX under one init class.
pub fn measure_jsx(g: &Graph, init: JsxInit, seeds: u64, max_rounds: u64) -> Cell {
    let jsx = JsxMis::new();
    let mut cell = Cell::default();
    for seed in 0..seeds {
        cell.runs += 1;
        if let Ok(outcome) = jsx.run_from(g, init.states(g, seed), seed, max_rounds) {
            cell.completed += 1;
            if graphs::mis::is_maximal_independent_set(g, &outcome.mis) {
                cell.valid += 1;
            }
        }
    }
    cell
}

/// Measures Algorithm 1 under one matched init class.
pub fn measure_alg1(g: &Graph, init: InitialLevels, seeds: u64, max_rounds: u64) -> Cell {
    let algo = Algorithm1::new(g, LmaxPolicy::global_delta(g));
    let mut cell = Cell::default();
    for seed in 0..seeds {
        cell.runs += 1;
        let config = RunConfig::new(seed).with_init(init.clone()).with_max_rounds(max_rounds);
        if let Ok(outcome) = algo.run(g, config) {
            cell.completed += 1;
            if graphs::mis::is_maximal_independent_set(g, &outcome.mis) {
                cell.valid += 1;
            }
        }
    }
    cell
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    let (n, seeds, budget) = if quick { (48, 5, 50_000u64) } else { (256, 30, 200_000u64) };
    let g = graphs::generators::random::gnp(n, 8.0 / (n as f64 - 1.0), 0xAD);
    let mut out = crate::common::header("SS-A", "Adversarial initialization: JSX vs Algorithm 1");
    out.push_str(&format!(
        "workload: G({n}, 8/(n-1)); budget {budget} rounds; {seeds} seeds per cell\n\n"
    ));
    let mut table = analysis::Table::new([
        "algorithm",
        "initial configuration",
        "runs",
        "completed",
        "valid MIS",
    ]);
    for init in JsxInit::all() {
        let cell = measure_jsx(&g, init, seeds, budget);
        table.row([
            "JSX [17]".to_string(),
            init.label().to_string(),
            cell.runs.to_string(),
            cell.completed.to_string(),
            cell.valid.to_string(),
        ]);
    }
    for (label, init) in [
        ("random levels", InitialLevels::Random),
        ("all claiming MIS", InitialLevels::AllClaiming),
        ("all at ℓmax", InitialLevels::AllMax),
        ("all at ℓ = 1 (clean-ish)", InitialLevels::AllOne),
    ] {
        let cell = measure_alg1(&g, init, seeds, budget);
        table.row([
            "Algorithm 1".to_string(),
            label.to_string(),
            cell.runs.to_string(),
            cell.completed.to_string(),
            cell.valid.to_string(),
        ]);
    }
    out.push_str(&table.to_string());
    out.push_str(
        "\nexpected shape: JSX is perfect from the clean start but loses validity (or \
         completion) under corrupted statuses — silent InMis/OutOfMis states are frozen and \
         unverifiable; Algorithm 1 completes with a valid MIS from every class.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsx_clean_is_always_valid() {
        let g = graphs::generators::random::gnp(48, 0.15, 1);
        let cell = measure_jsx(&g, JsxInit::Clean, 5, 100_000);
        assert_eq!(cell.valid, cell.runs);
    }

    #[test]
    fn jsx_adjacent_inmis_never_valid() {
        let g = graphs::generators::random::gnp(48, 0.15, 1);
        let cell = measure_jsx(&g, JsxInit::AdjacentInMis, 5, 100_000);
        assert_eq!(cell.valid, 0, "two frozen adjacent InMis vertices violate independence");
    }

    #[test]
    fn jsx_all_out_never_valid() {
        let g = graphs::generators::random::gnp(48, 0.15, 1);
        let cell = measure_jsx(&g, JsxInit::AllOut, 5, 100_000);
        assert_eq!(cell.completed, cell.runs, "all-out terminates immediately");
        assert_eq!(cell.valid, 0, "the empty set is not maximal");
    }

    #[test]
    fn algorithm1_valid_from_every_class() {
        let g = graphs::generators::random::gnp(48, 0.15, 1);
        for init in [
            InitialLevels::Random,
            InitialLevels::AllClaiming,
            InitialLevels::AllMax,
            InitialLevels::AllOne,
        ] {
            let cell = measure_alg1(&g, init.clone(), 5, 500_000);
            assert_eq!(cell.valid, cell.runs, "init {init:?}");
        }
    }

    #[test]
    fn report_has_both_algorithms() {
        let report = run(true);
        assert!(report.contains("JSX"));
        assert!(report.contains("Algorithm 1"));
    }
}
