//! Experiment `DYN` — convergence trajectory (supplementary figure).
//!
//! The proofs track how the stable set `S_t`, the claiming set `I_t` and
//! the level distribution evolve; this experiment records an execution and
//! prints that evolution, the paper-style "what does a run actually look
//! like" figure:
//!
//! - from an all-claiming start, channel-1 beeping collapses from ≈ n to
//!   ≈ |MIS| within a few rounds (the back-off kicking in);
//! - `|S_t|` grows in waves (each MIS join silences a neighborhood);
//! - the ℓmax bucket of the level histogram fills up as silenced vertices
//!   park at their cap.
//!
//! The table is derived entirely from the run's telemetry round-event
//! stream (see `DESIGN.md` §9 "Observability") rather than from recorded
//! level histories — the same stream the CLI's `--telemetry <path>` flag
//! exports as JSONL.

use graphs::generators::GraphFamily;
use mis::runner::{InitialLevels, RunConfig};
use mis::{Algorithm1, LmaxPolicy};
use telemetry::{Config, MemorySink, RoundEvent, Telemetry};

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    run_with(quick, &Telemetry::disabled())
}

/// Telemetry-aware driver: streams the featured run into `external` when it
/// is enabled (the CLI `--telemetry` path), otherwise into a private
/// stride-1 handle. Either way the printed table is built from the
/// round-event stream, not from ad-hoc bookkeeping.
pub fn run_with(quick: bool, external: &Telemetry) -> String {
    let n = if quick { 128 } else { 1024 };
    let family = GraphFamily::Gnp { avg_degree: 8.0 };
    let g = family.generate(n, 0xD1);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let mut out = crate::common::header("DYN", "Convergence trajectory of one execution");
    out.push_str(&format!(
        "workload: {family}, n = {}, Δ = {}; Algorithm 1, global-Δ policy, all-claiming start\n\n",
        g.len(),
        g.max_degree()
    ));
    let tele = if external.is_enabled() {
        external.clone()
    } else {
        Telemetry::enabled(Config { level_stride: 1 })
    };
    let (sink, handle) = MemorySink::new();
    tele.add_sink(Box::new(sink));
    let outcome = match algo.run(
        &g,
        RunConfig::new(7).with_init(InitialLevels::AllClaiming).with_telemetry(tele.clone()),
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            out.push_str(&format!("warning: skipping trajectory: {e}\n"));
            return out;
        }
    };
    let rounds = handle.rounds();

    // The histogram bucket at the (uniform, global-Δ) cap — vertices parked
    // at ℓmax, i.e. durably silenced.
    let cap = i64::from(algo.policy().lmax_values()[0]);
    let at_cap = |e: &RoundEvent| -> String {
        match &e.levels {
            Some(hist) => hist
                .iter()
                .find(|&&(level, _)| level == cap)
                .map_or(0, |&(_, count)| count)
                .to_string(),
            None => "-".to_string(),
        }
    };

    let mut table =
        analysis::Table::new(["round", "beeps c1", "lone c1", "|I|", "|S|", "S frac", "at ℓmax"]);
    let last_round = rounds.last().map_or(0, |e| e.round);
    for e in &rounds {
        let show = e.round <= 10
            || (e.round <= 40 && e.round % 5 == 0)
            || e.round % 10 == 0
            || e.round == last_round;
        if show {
            table.row([
                e.round.to_string(),
                e.beeps_channel1.to_string(),
                e.lone_beepers.to_string(),
                e.in_mis.map_or("-".into(), |v| v.to_string()),
                e.stable.map_or("-".into(), |v| v.to_string()),
                e.stable_fraction().map_or("-".into(), |f| format!("{f:.3}")),
                at_cap(e),
            ]);
        }
    }
    out.push_str(&table.to_string());
    let Some(last) = rounds.last() else {
        out.push_str("\nwarning: no round events streamed; trajectory summary unavailable\n");
        return out;
    };
    out.push_str(&format!(
        "\nstabilized at round {}: |MIS| = {}, stable fraction = {:.3} over {} streamed \
         round events\n",
        outcome.stabilization_round,
        last.in_mis.unwrap_or(0),
        last.stable_fraction().unwrap_or(0.0),
        rounds.len(),
    ));
    out.push_str(
        "\nexpected shape: channel-1 beeping collapses within the first rounds; |S| grows \
         in waves to n; the ℓmax bucket fills as neighborhoods are silenced.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis::dynamics::trajectory;

    #[test]
    fn report_reaches_full_stability() {
        let report = run(true);
        assert!(report.contains("DYN"));
        assert!(report.contains("stabilized at round"));
        assert!(report.contains("S frac"));
    }

    #[test]
    fn stream_matches_outcome_totals() {
        // The telemetry-derived table must agree with the run outcome: one
        // round event per executed round, and the final event's claiming
        // count equals the returned MIS size.
        let g = GraphFamily::Gnp { avg_degree: 8.0 }.generate(96, 0xD1);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let tele = Telemetry::enabled(Config { level_stride: 1 });
        let (sink, handle) = MemorySink::new();
        tele.add_sink(Box::new(sink));
        let outcome =
            algo.run(&g, RunConfig::new(3).with_telemetry(tele.clone())).expect("stabilizes");
        let rounds = handle.rounds();
        assert_eq!(rounds.len() as u64, outcome.rounds_run);
        let last = rounds.last().unwrap();
        assert_eq!(last.in_mis, Some(outcome.mis.iter().filter(|&&m| m).count() as u64));
        assert_eq!(last.stable, Some(g.len() as u64));
        assert!(last.levels.is_some(), "stride-1 stream carries histograms");
    }

    #[test]
    fn stream_agrees_with_recorded_trajectory() {
        // Cross-check the replacement: the telemetry stream reproduces the
        // |I|/|S|/at-cap series the old level-recording bookkeeping
        // computed.
        let g = GraphFamily::Gnp { avg_degree: 8.0 }.generate(64, 0xD1);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let tele = Telemetry::enabled(Config { level_stride: 1 });
        let (sink, handle) = MemorySink::new();
        tele.add_sink(Box::new(sink));
        let config = RunConfig::new(5).with_telemetry(tele.clone());
        let outcome = mis::runner::run_with_history(&g, &algo, config).expect("stabilizes");
        let stats = trajectory(&g, algo.policy().lmax_values(), &outcome.level_history.unwrap());
        let cap = i64::from(algo.policy().lmax_values()[0]);
        // History entry 0 is the initial configuration; round event t maps
        // to history entry t.
        for e in handle.rounds() {
            let s = &stats[e.round as usize];
            assert_eq!(e.in_mis, Some(s.in_mis as u64), "round {}", e.round);
            assert_eq!(e.stable, Some(s.stable as u64), "round {}", e.round);
            let hist_at_cap = e
                .levels
                .as_ref()
                .unwrap()
                .iter()
                .find(|&&(level, _)| level == cap)
                .map_or(0, |&(_, c)| c);
            assert_eq!(hist_at_cap, s.at_cap as u64, "round {}", e.round);
        }
    }
}
