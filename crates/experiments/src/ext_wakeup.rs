//! Experiment `EXT-WAKE` — adversarial wake-up schedules.
//!
//! Afek et al.'s polynomial *lower bound* for self-stabilizing beeping MIS
//! holds in a model with adversary-chosen wake-up slots; the paper notes
//! (§1) that this bound "is not applicable in the setting of this paper".
//! The flip side, measured here: a self-stabilizing algorithm absorbs
//! wake-up adversity for free, because a sleeping node is just a node whose
//! state is pinned at an arbitrary value — stabilization counted from the
//! **last wake-up** behaves exactly like stabilization from an arbitrary
//! configuration.
//!
//! Schedules tested: everyone awake (control), uniformly random wake times
//! over a window `W`, a sequential wave (node `v` wakes at round
//! `⌊v·W/n⌋` — the adversary drip-feeds the network), and a "late
//! straggler" (all awake except one node that sleeps through everyone
//! else's stabilization).

use analysis::Summary;
use beeping::sleep::{Sleepy, SleepyState};
use beeping::Simulator;
use graphs::generators::GraphFamily;
use graphs::Graph;
use mis::levels::Level;
use mis::runner::{initial_levels, RunConfig};
use mis::{Algorithm1, LmaxPolicy};
use rand::Rng;

/// A wake-up schedule: per-node sleep durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSchedule {
    /// Everyone participates from round one (control).
    AllAwake,
    /// Wake times uniform in `[0, window]`.
    RandomWindow(u64),
    /// Node `v` wakes at `v * window / n` — a sequential wave.
    Wave(u64),
    /// All awake except node 0, which sleeps `window` rounds.
    LateStraggler(u64),
}

impl WakeSchedule {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            WakeSchedule::AllAwake => "all awake".into(),
            WakeSchedule::RandomWindow(w) => format!("random in [0,{w}]"),
            WakeSchedule::Wave(w) => format!("wave over {w}"),
            WakeSchedule::LateStraggler(w) => format!("straggler +{w}"),
        }
    }

    /// The per-node sleep durations for an `n`-node network.
    pub fn sleeps(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = beeping::rng::aux_rng(seed, 0x3A1E);
        match *self {
            WakeSchedule::AllAwake => vec![0; n],
            WakeSchedule::RandomWindow(w) => (0..n).map(|_| rng.gen_range(0..=w)).collect(),
            WakeSchedule::Wave(w) => {
                (0..n).map(|v| (v as u64).saturating_mul(w) / n.max(1) as u64).collect()
            }
            WakeSchedule::LateStraggler(w) => {
                let mut sleeps = vec![0; n];
                if n > 0 {
                    sleeps[0] = w;
                }
                sleeps
            }
        }
    }
}

/// Runs Algorithm 1 under `schedule`; returns
/// `(stabilization_round_from_last_wake, total_rounds)`.
pub fn measure_wakeup(
    g: &Graph,
    schedule: WakeSchedule,
    seed: u64,
    max_rounds: u64,
) -> Option<(u64, u64)> {
    let algo = Algorithm1::new(g, LmaxPolicy::global_delta(g));
    let config = RunConfig::new(seed);
    let inner_levels: Vec<Level> = initial_levels(&algo, &config);
    let sleeps = schedule.sleeps(g.len(), seed);
    let last_wake = sleeps.iter().copied().max().unwrap_or(0);
    let init: Vec<SleepyState<Level>> =
        sleeps.iter().zip(&inner_levels).map(|(&s, &l)| SleepyState::new(s, l)).collect();
    let wrapped = Sleepy::new(algo.clone());
    let mut sim = Simulator::new(g, wrapped, init, seed);
    let levels = |s: &[SleepyState<Level>]| -> Vec<Level> { s.iter().map(|st| st.inner).collect() };
    while !(sim.states().iter().all(SleepyState::is_awake)
        && algo.is_stabilized(g, &levels(sim.states())))
    {
        if sim.round() >= max_rounds {
            return None;
        }
        sim.step();
    }
    let last = levels(sim.states());
    assert!(graphs::mis::is_maximal_independent_set(g, &algo.mis_members(g, &last)));
    Some((sim.round().saturating_sub(last_wake), sim.round()))
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    let (n, seeds) = if quick { (96, 5) } else { (1024, 30) };
    let family = GraphFamily::Gnp { avg_degree: 8.0 };
    let g = family.generate(n, 0x3A);
    let window = 10 * n as u64; // far longer than stabilization itself
    let mut out = common_header(n, &family, window);
    let mut table = analysis::Table::new([
        "wake schedule",
        "stab. after last wake (mean)",
        "p95",
        "total rounds (mean)",
    ]);
    for schedule in [
        WakeSchedule::AllAwake,
        WakeSchedule::RandomWindow(window),
        WakeSchedule::Wave(window),
        WakeSchedule::LateStraggler(window),
    ] {
        let mut from_wake = Vec::new();
        let mut total = Vec::new();
        let mut exhausted = false;
        for seed in 0..seeds {
            match measure_wakeup(&g, schedule, seed, 10_000_000) {
                Some((fw, t)) => {
                    from_wake.push(fw);
                    total.push(t);
                }
                None => {
                    out.push_str(&format!(
                        "warning: skipping {}: seed {seed} did not stabilize within budget\n",
                        schedule.label()
                    ));
                    exhausted = true;
                    break;
                }
            }
        }
        if exhausted {
            continue;
        }
        let sf = Summary::of_counts(from_wake);
        let st = Summary::of_counts(total);
        table.row([
            schedule.label(),
            format!("{:.1}", sf.mean),
            format!("{:.0}", sf.p95),
            format!("{:.1}", st.mean),
        ]);
    }
    out.push_str(&table.to_string());
    out.push_str(
        "\nexpected shape: stabilization counted from the last wake-up is flat across \
         schedules (≈ the all-awake control, and strictly cheaper for the straggler, \
         which wakes into an almost-stable network) — the adversary gains nothing, \
         which is why Afek et al.'s wake-up lower bound does not constrain this paper.\n",
    );
    out
}

fn common_header(n: usize, family: &GraphFamily, window: u64) -> String {
    let mut out = crate::common::header("EXT-WAKE", "Adversarial wake-up schedules");
    out.push_str(&format!(
        "workload: {family}, n = {n}; Algorithm 1, global-Δ policy; wake window {window} rounds\n\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_produce_expected_sleeps() {
        assert_eq!(WakeSchedule::AllAwake.sleeps(3, 0), vec![0, 0, 0]);
        let wave = WakeSchedule::Wave(30).sleeps(3, 0);
        assert_eq!(wave, vec![0, 10, 20]);
        let straggler = WakeSchedule::LateStraggler(99).sleeps(3, 0);
        assert_eq!(straggler, vec![99, 0, 0]);
        let random = WakeSchedule::RandomWindow(10).sleeps(100, 1);
        assert!(random.iter().all(|&s| s <= 10));
    }

    #[test]
    fn stabilizes_under_every_schedule() {
        let g = GraphFamily::Gnp { avg_degree: 8.0 }.generate(64, 1);
        for schedule in [
            WakeSchedule::AllAwake,
            WakeSchedule::RandomWindow(300),
            WakeSchedule::Wave(300),
            WakeSchedule::LateStraggler(300),
        ] {
            let (from_wake, total) =
                measure_wakeup(&g, schedule, 3, 10_000_000).expect("stabilizes");
            assert!(total >= from_wake);
        }
    }

    #[test]
    fn straggler_recovers_fast() {
        // Waking into an almost-stable network is the easy case.
        let g = GraphFamily::Gnp { avg_degree: 8.0 }.generate(128, 2);
        let mut straggler_sum = 0u64;
        let mut control_sum = 0u64;
        for seed in 0..5 {
            straggler_sum +=
                measure_wakeup(&g, WakeSchedule::LateStraggler(2_000), seed, 10_000_000).unwrap().0;
            control_sum += measure_wakeup(&g, WakeSchedule::AllAwake, seed, 10_000_000).unwrap().0;
        }
        assert!(straggler_sum < control_sum, "straggler {straggler_sum} vs control {control_sum}");
    }

    #[test]
    fn report_lists_schedules() {
        let report = run(true);
        for needle in ["all awake", "random in", "wave over", "straggler"] {
            assert!(report.contains(needle), "missing {needle}");
        }
    }
}
