//! Experiment `NOISE` — stabilization under an unreliable network.
//!
//! *Claim under test*: the paper's model assumes a perfectly reliable
//! beeping channel. This experiment probes how far that assumption can be
//! relaxed before self-stabilization breaks: per-delivery beep loss,
//! spurious beeps, jammer nodes, and topology churn composed with channel
//! noise (see `DESIGN.md` "Fault & adversary model").
//!
//! *Measurements*:
//!
//! 1. **Beep-loss sweep** — stabilization time vs drop probability per
//!    graph family, with divergence counting and threshold detection (the
//!    lowest tested rate at which any seed exhausts its budget). The
//!    zero-noise column is asserted to match the noise-free runner
//!    bit-for-bit.
//! 2. **Spurious-beep sweep** — false positives instead of false
//!    negatives.
//! 3. **Jammers** — always-beeping and always-silent Byzantine radios.
//! 4. **Churn under noise** — a leave/join/edge-flip schedule on a noisy
//!    channel, with per-event re-stabilization times and MIS-validity
//!    violation counts from [`mis::recovery::run_noisy`].
//!
//! *Expected shape*: mild loss (p ≤ 0.05) stabilizes on every tested
//! family with a graceful slowdown; heavy loss diverges. Always-beep
//! jammers integrate into the MIS (their neighbors are silenced); an
//! always-silent jammer can leave itself uncovered — a dead radio cannot
//! claim membership, so divergence there is correct behavior, not a bug.
//! Every churn event re-stabilizes in finite time, and violations are
//! confined to the transients.

use std::fmt::Write as _;

use beeping::channel::{ChannelFault, JammerKind};
use beeping::churn::{ChurnAction, ChurnPlan};
use graphs::generators::GraphFamily;
use graphs::Graph;
use mis::recovery::{run_noisy, Disturbance};
use mis::resumable::PlanError;
use mis::runner::{RunConfig, RunError};
use mis::{Algorithm1, LmaxPolicy};
use telemetry::Telemetry;

/// Why one noise cell could not be measured. One bad cell warns-and-skips
/// instead of aborting the whole sweep.
#[derive(Debug)]
pub enum NoiseError {
    /// A run's plans were rejected, or the zero-noise acceptance baseline
    /// exhausted its round budget.
    Run(RunError),
    /// A run that claimed to stabilize carries no recovered initial
    /// segment — a recovery-subsystem inconsistency, not a workload fact.
    MissingRecovery {
        /// The seed the inconsistent run used.
        seed: u64,
    },
}

impl std::fmt::Display for NoiseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoiseError::Run(e) => write!(f, "{e}"),
            NoiseError::MissingRecovery { seed } => {
                write!(f, "stabilized run has no recovered initial segment (seed {seed})")
            }
        }
    }
}

impl std::error::Error for NoiseError {}

impl From<RunError> for NoiseError {
    fn from(e: RunError) -> NoiseError {
        NoiseError::Run(e)
    }
}

impl From<PlanError> for NoiseError {
    fn from(e: PlanError) -> NoiseError {
        NoiseError::Run(RunError::Plan(e))
    }
}

/// The drop probabilities of the sweep (section 1).
pub fn drop_rates() -> Vec<f64> {
    vec![0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.35]
}

/// The spurious-beep probabilities of the sweep (section 2).
pub fn spurious_rates() -> Vec<f64> {
    vec![0.001, 0.01, 0.05]
}

/// The graph families of the sweep.
pub fn families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::Geometric { avg_degree: 8.0 },
        GraphFamily::Gnp { avg_degree: 8.0 },
        GraphFamily::Cycle,
    ]
}

fn label(d: &Disturbance) -> String {
    match d {
        Disturbance::Initial => "initial".into(),
        Disturbance::TransientFault { corrupted } => format!("fault x{corrupted}"),
        Disturbance::Churn(ChurnAction::AddEdge(u, v)) => format!("+edge ({u},{v})"),
        Disturbance::Churn(ChurnAction::RemoveEdge(u, v)) => format!("-edge ({u},{v})"),
        Disturbance::Churn(ChurnAction::NodeLeave(v)) => format!("leave {v}"),
        Disturbance::Churn(ChurnAction::NodeJoin(v, _)) => format!("join {v}"),
    }
}

/// Initial-convergence statistics for one `(graph, channel)` cell.
struct Cell {
    rounds: Vec<u64>,
    diverged: usize,
}

fn measure_noisy(
    g: &Graph,
    algo: &Algorithm1,
    channel: &ChannelFault,
    seeds: u64,
    budget: u64,
    check_zero_noise: bool,
) -> Result<Cell, NoiseError> {
    let mut rounds = Vec::new();
    let mut diverged = 0;
    for seed in 0..seeds {
        let config = RunConfig::new(seed).with_channel(channel.clone());
        let outcome = run_noisy(g, algo, &config, budget)?;
        if outcome.stabilized {
            let stab = outcome.events[0]
                .outcome
                .recovered_rounds()
                .ok_or(NoiseError::MissingRecovery { seed })?;
            if check_zero_noise {
                // Acceptance check: the noise subsystem at zero noise is
                // bit-identical to the noise-free runner.
                let base = mis::runner::run(g, algo, RunConfig::new(seed).with_max_rounds(budget))?;
                assert_eq!(
                    stab, base.stabilization_round,
                    "zero-noise NOISE run diverged from the reliable runner (seed {seed})"
                );
            }
            rounds.push(stab);
        } else {
            diverged += 1;
        }
    }
    Ok(Cell { rounds, diverged })
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    run_with(quick, &Telemetry::disabled())
}

/// Telemetry-aware driver: the featured churn-under-noise composite (seed
/// 0, section 4) streams its round events plus churn/fault markers into
/// `tele` when enabled; the sweep sections are aggregate-only and stay
/// silent.
pub fn run_with(quick: bool, tele: &Telemetry) -> String {
    let n = if quick { 48 } else { 512 };
    let seeds = crate::common::seed_count(quick);
    let budget: u64 = if quick { 10_000 } else { 500_000 };
    let mut out = crate::common::header("NOISE", "Unreliable network: noise, jammers, churn");
    out.push_str(&format!(
        "workload: n={n}, {seeds} seeds, budget {budget} rounds; Algorithm 1, global-Δ policy\n"
    ));

    // Section 1: beep-loss sweep with threshold detection.
    out.push_str("\n## beep-loss sweep (false negatives)\n\n");
    let mut table = analysis::Table::new(["family", "drop p", "mean", "p95", "diverged"]);
    for (i, family) in families().iter().enumerate() {
        let g = family.generate(n, crate::common::graph_seed(i));
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let mut threshold: Option<f64> = None;
        for &p in &drop_rates() {
            let channel = ChannelFault::reliable().with_drop(p);
            let cell = match measure_noisy(&g, &algo, &channel, seeds, budget, p == 0.0) {
                Ok(cell) => cell,
                Err(e) => {
                    let _ = writeln!(out, "warning: skipping {family} drop p={p:.3}: {e}");
                    continue;
                }
            };
            if cell.diverged > 0 && threshold.is_none() {
                threshold = Some(p);
            }
            let (mean, p95) = if cell.rounds.is_empty() {
                ("-".to_string(), "-".to_string())
            } else {
                let s = analysis::Summary::of_counts(cell.rounds.iter().copied());
                (format!("{:.1}", s.mean), format!("{:.0}", s.p95))
            };
            table.row([
                family.to_string(),
                format!("{p:.3}"),
                mean,
                p95,
                format!("{}/{seeds}", cell.diverged),
            ]);
        }
        out.push_str(&match threshold {
            Some(p) => format!("threshold[{family}]: first divergence at drop p = {p:.3}\n"),
            None => format!("threshold[{family}]: no divergence at any tested rate\n"),
        });
    }
    out.push_str(&format!("\n{table}"));

    // Section 2: spurious beeps.
    out.push_str("\n## spurious-beep sweep (false positives)\n\n");
    let mut table = analysis::Table::new(["family", "spurious p", "mean", "p95", "diverged"]);
    for (i, family) in families().iter().enumerate() {
        let g = family.generate(n, crate::common::graph_seed(i));
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        for &p in &spurious_rates() {
            let channel = ChannelFault::reliable().with_spurious(p);
            let cell = match measure_noisy(&g, &algo, &channel, seeds, budget, false) {
                Ok(cell) => cell,
                Err(e) => {
                    let _ = writeln!(out, "warning: skipping {family} spurious p={p:.3}: {e}");
                    continue;
                }
            };
            let (mean, p95) = if cell.rounds.is_empty() {
                ("-".to_string(), "-".to_string())
            } else {
                let s = analysis::Summary::of_counts(cell.rounds.iter().copied());
                (format!("{:.1}", s.mean), format!("{:.0}", s.p95))
            };
            table.row([
                family.to_string(),
                format!("{p:.3}"),
                mean,
                p95,
                format!("{}/{seeds}", cell.diverged),
            ]);
        }
    }
    out.push_str(&format!("{table}"));

    // Section 3: jammers.
    out.push_str("\n## jammer nodes (Byzantine radios)\n\n");
    let mut table =
        analysis::Table::new(["kind", "jammers", "stabilized", "mean", "jammer in MIS"]);
    let family = GraphFamily::Geometric { avg_degree: 8.0 };
    let g = family.generate(n, crate::common::graph_seed(0));
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    for kind in [JammerKind::AlwaysBeep, JammerKind::AlwaysSilent] {
        for k in [1usize, 4] {
            let mut channel = ChannelFault::reliable();
            for v in 0..k {
                channel = channel.with_jammer(v, kind);
            }
            let mut rounds = Vec::new();
            let mut stabilized = 0;
            let mut jammer_in_mis = 0usize;
            for seed in 0..seeds {
                let config = RunConfig::new(seed).with_channel(channel.clone());
                let outcome = match run_noisy(&g, &algo, &config, budget.min(50_000)) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        let _ = writeln!(out, "warning: skipping {kind:?} x{k} seed {seed}: {e}");
                        continue;
                    }
                };
                if outcome.stabilized {
                    // A stabilized run without a recovered segment is a
                    // recovery-subsystem inconsistency; drop the sample
                    // with a warning instead of aborting the sweep.
                    match outcome.events[0].outcome.recovered_rounds() {
                        Some(r) => {
                            stabilized += 1;
                            rounds.push(r);
                            jammer_in_mis += usize::from(outcome.mis[..k].iter().all(|&m| m));
                        }
                        None => {
                            let _ = writeln!(
                                out,
                                "warning: dropping {kind:?} x{k} seed {seed}: stabilized run \
                                 has no recovered initial segment"
                            );
                        }
                    }
                }
            }
            let mean = if rounds.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}", analysis::Summary::of_counts(rounds.iter().copied()).mean)
            };
            table.row([
                format!("{kind:?}"),
                k.to_string(),
                format!("{stabilized}/{seeds}"),
                mean,
                format!("{jammer_in_mis}/{stabilized}"),
            ]);
        }
    }
    out.push_str(&format!("{table}"));

    // Section 4: churn under noise, per-event recovery.
    out.push_str("\n## topology churn on a noisy channel (drop p = 0.02)\n\n");
    let plan = match churn_plan(&g) {
        Some(plan) => plan,
        None => {
            let _ = writeln!(
                out,
                "warning: skipping churn composite: workload graph has no edge avoiding node 1"
            );
            return out;
        }
    };
    let channel = ChannelFault::reliable().with_drop(0.02);
    let n_events = plan.events().len() + 1;
    let mut recoveries: Vec<Vec<u64>> = vec![Vec::new(); n_events];
    let mut violations: Vec<Vec<u64>> = vec![Vec::new(); n_events];
    let mut labels: Vec<String> = vec![String::new(); n_events];
    let mut interrupted = 0usize;
    for seed in 0..seeds {
        let mut config =
            RunConfig::new(seed).with_churn(plan.clone()).with_channel(channel.clone());
        if seed == 0 {
            // Featured run: stream round events and churn/fault markers.
            // Telemetry is observational — attaching it cannot change the
            // outcome (enforced by the bit-identity tests in crates/mis).
            config = config.with_telemetry(tele.clone());
        }
        let outcome = match run_noisy(&g, &algo, &config, budget) {
            Ok(outcome) => outcome,
            Err(e) => {
                let _ = writeln!(out, "warning: skipping churn composite: {e}");
                return out;
            }
        };
        assert!(outcome.stabilized, "churn composite must re-stabilize (seed {seed})");
        for (i, event) in outcome.events.iter().enumerate() {
            labels[i] = label(&event.disturbance);
            match event.outcome.recovered_rounds() {
                Some(r) => recoveries[i].push(r),
                None => interrupted += 1,
            }
            violations[i].push(event.violation_rounds);
        }
    }
    let mut table =
        analysis::Table::new(["event", "recovery mean", "recovery max", "violation rounds"]);
    for i in 0..n_events {
        let (mean, max) = if recoveries[i].is_empty() {
            ("-".to_string(), "-".to_string())
        } else {
            let r = analysis::Summary::of_counts(recoveries[i].iter().copied());
            (format!("{:.1}", r.mean), format!("{:.0}", r.max))
        };
        let v = analysis::Summary::of_counts(violations[i].iter().copied());
        table.row([labels[i].clone(), mean, max, format!("{:.1}", v.mean)]);
    }
    out.push_str(&format!("{table}"));
    out.push_str(&format!(
        "\nevents interrupted before re-stabilizing: {interrupted}\n\
         expected shape: p ≤ 0.05 loss stabilizes everywhere with graceful slowdown; heavy \
         loss diverges; always-beep jammers join the MIS; every churn event re-stabilizes \
         in finite time with violations confined to transients.\n"
    ));
    if tele.is_enabled() {
        out.push_str(
            "\ntelemetry: seed-0 churn composite streamed (round events + churn/fault \
             markers).\n",
        );
    }
    out
}

/// The composite churn schedule: node 1 departs and rejoins with its
/// original edges, then one edge is flipped out and back. Events are spaced
/// far enough apart that each segment can re-stabilize. Returns `None` when
/// the graph has no edge avoiding node 1 (a degenerate workload the
/// schedule cannot be built on).
pub fn churn_plan(g: &Graph) -> Option<ChurnPlan> {
    let rejoin: Vec<usize> = g.neighbors(1).iter().map(|&u| u as usize).collect();
    let (eu, ev) = g.edges().find(|&(u, v)| u != 1 && v != 1)?;
    Some(
        ChurnPlan::new()
            .with_event(2_000, ChurnAction::NodeLeave(1))
            .with_event(4_000, ChurnAction::NodeJoin(1, rejoin))
            .with_event(6_000, ChurnAction::RemoveEdge(eu, ev))
            .with_event(8_000, ChurnAction::AddEdge(eu, ev)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeping::faults::{FaultPlan, FaultTarget};
    use mis::runner::run_recovery;

    #[test]
    fn report_covers_all_sections() {
        let report = run(true);
        for section in ["beep-loss sweep", "spurious-beep", "jammer nodes", "topology churn"] {
            assert!(report.contains(section), "missing section {section}");
        }
        assert!(report.contains("threshold["));
    }

    #[test]
    fn mild_loss_stabilizes_on_all_families() {
        // Acceptance criterion (b): p ≤ 0.05 beep loss still stabilizes on
        // every tested family.
        for (i, family) in families().iter().enumerate() {
            let g = family.generate(48, crate::common::graph_seed(i));
            let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
            let channel = ChannelFault::reliable().with_drop(0.05);
            let cell = measure_noisy(&g, &algo, &channel, 5, 200_000, false).expect("measurable");
            assert_eq!(cell.diverged, 0, "family {family} diverged at p=0.05");
            assert!(!cell.rounds.is_empty());
        }
    }

    #[test]
    fn zero_noise_recovery_matches_ss_r() {
        // Acceptance criterion (a): with the channel reliable, per-event
        // recovery equals the SS-R measurement exactly.
        let g = GraphFamily::Geometric { avg_degree: 8.0 }.generate(64, 1);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        for seed in 0..3u64 {
            let target = FaultTarget::RandomFraction(0.5);
            let rec = run_recovery(&g, &algo, seed, target.clone(), 1_000_000).unwrap();
            let config = RunConfig::new(seed)
                .with_faults(FaultPlan::new().with_fault(rec.initial_stabilization, target));
            let noisy = run_noisy(&g, &algo, &config, 1_000_000).unwrap();
            assert_eq!(
                noisy.events[1].outcome.recovered_rounds(),
                Some(rec.recovery_rounds),
                "seed {seed}"
            );
            assert_eq!(noisy.mis, rec.mis, "seed {seed}");
        }
    }

    #[test]
    fn featured_churn_run_streams_markers_without_changing_outcome() {
        use telemetry::{Config as TeleConfig, Event, MarkerKind, MemorySink};
        let g =
            GraphFamily::Geometric { avg_degree: 8.0 }.generate(48, crate::common::graph_seed(0));
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let base = RunConfig::new(0)
            .with_churn(churn_plan(&g).expect("workload graph supports the churn schedule"))
            .with_channel(ChannelFault::reliable().with_drop(0.02));
        let plain = run_noisy(&g, &algo, &base, 200_000).unwrap();
        let tele = Telemetry::enabled(TeleConfig::default());
        let (sink, handle) = MemorySink::new();
        tele.add_sink(Box::new(sink));
        let streamed =
            run_noisy(&g, &algo, &base.clone().with_telemetry(tele.clone()), 200_000).unwrap();
        // Observational: attaching telemetry must not perturb the run.
        assert_eq!(plain.mis, streamed.mis);
        assert_eq!(plain.stabilized, streamed.stabilized);
        let events = handle.events();
        let churn_markers = events
            .iter()
            .filter(|e| matches!(e, Event::Marker(m) if m.kind == MarkerKind::Churn))
            .count();
        assert_eq!(churn_markers, 4, "one marker per scheduled churn event");
        assert!(!handle.rounds().is_empty());
    }

    #[test]
    fn churn_events_all_recover() {
        // Acceptance criterion (c): finite re-stabilization after every
        // scheduled event.
        let g = GraphFamily::Geometric { avg_degree: 8.0 }.generate(48, 2);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = RunConfig::new(0)
            .with_churn(churn_plan(&g).expect("workload graph supports the churn schedule"))
            .with_channel(ChannelFault::reliable().with_drop(0.02));
        let outcome = run_noisy(&g, &algo, &config, 200_000).unwrap();
        assert!(outcome.stabilized);
        assert!(outcome.all_recovered(), "{:?}", outcome.events);
        assert_eq!(outcome.events.len(), 5);
    }
}
