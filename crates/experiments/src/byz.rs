//! Experiment `BYZ` — Byzantine containment and worst-case adversary search.
//!
//! *Claim under test*: self-stabilization (paper §1.1) promises recovery
//! from *transient* faults — arbitrary RAM corruption that eventually
//! stops. A permanently deviating (Byzantine) node is outside the theorem,
//! and no algorithm can stabilize at such a node. The strongest property
//! that survives is **containment**: the disruption stays within a small
//! graph radius of the Byzantine sites, and every correct node farther away
//! converges and stays converged (see `DESIGN.md` "Byzantine faults and
//! containment").
//!
//! *Measurements*:
//!
//! 1. **Containment table** — one Byzantine node (placed at the maximum-
//!    degree vertex — the placement a radius bound must survive) per graph
//!    family and behavior; reports the fraction of seeds certified
//!    contained at radius ≤ 2 after the paper's `O(ℓmax)` burn-in horizon,
//!    the mean certification round, and the worst disruption radius.
//! 2. **Behavior taxonomy** — all five behaviors (including crash-restart
//!    with an adversarial "resurrect claiming" RAM and the two-channel
//!    liar on Algorithm 2) on one G(n,p) instance.
//! 3. **Worst-case adversary** — [`mis::adversary::worst_case_search`]
//!    hill-climbs over placements and initial configurations; the result is
//!    emitted as a deterministic certificate JSON (same seed → byte-identical)
//!    and, when a `results/` directory exists, written to
//!    `results/BYZ-certificate.json`.
//!
//! *Expected shape*: stuck beepers integrate into the MIS (radius 0–1);
//! babblers keep their neighborhood churning but never push disruption past
//! radius 2; the worst case found by the search is still contained — the
//! adversary can delay certification, not escape the radius.

use std::fmt::Write as _;

use beeping::byzantine::{ByzantineBehavior, ByzantinePlan, Resurrect};
use graphs::generators::GraphFamily;
use graphs::Graph;
use mis::adversary::{worst_case_search, AdversaryConfig, SearchBehavior, WorstCase};
use mis::containment::run_contained;
use mis::levels::Level;
use mis::resumable::PlanError;
use mis::runner::{RunConfig, SelfStabilizingMis};
use mis::theory::burn_in_horizon;
use mis::{Algorithm1, Algorithm2, LmaxPolicy};
use telemetry::Telemetry;

use crate::common::{cell_row, max_degree_node, Cell};

/// The graph families of the containment table.
pub fn families() -> Vec<GraphFamily> {
    vec![GraphFamily::Cycle, GraphFamily::Gnp { avg_degree: 8.0 }, GraphFamily::Regular { d: 4 }]
}

/// The certified containment radius of the table (acceptance bound).
pub const RADIUS: usize = 2;

/// Containment of one `(graph, behavior)` cell over seeds `0..seeds`, with
/// the seed-0 run streamed into `tele` when it is enabled (round events,
/// the Byzantine-plan marker, and the final `containment.final_radius`
/// gauge). Telemetry is observational, so the measured cell is identical
/// either way.
#[allow(clippy::too_many_arguments)]
fn measure_contained_streaming<A: SelfStabilizingMis>(
    g: &Graph,
    algo: &A,
    plan: &ByzantinePlan<Level>,
    seeds: u64,
    budget: u64,
    radius: usize,
    tele: &Telemetry,
) -> Result<Cell, PlanError> {
    let burn_in = burn_in_horizon(algo.policy());
    let mut cell = Cell::default();
    for seed in 0..seeds {
        let mut config = RunConfig::new(seed).with_max_rounds(budget).with_byzantine(plan.clone());
        if seed == 0 && tele.is_enabled() {
            config = config.with_telemetry(tele.clone());
        }
        let outcome = run_contained(g, algo, &config, radius, burn_in, false)?;
        cell.record(outcome.contained_round, outcome.final_radius);
    }
    Ok(cell)
}

/// Renders the worst case found by the search as a deterministic
/// certificate JSON string (hand-rolled; field order and formatting are
/// fixed, so equal inputs yield byte-identical output).
pub fn certificate_json(
    family: &str,
    n: usize,
    graph_seed: u64,
    config: &AdversaryConfig,
    worst: &WorstCase,
    burn_in: u64,
) -> String {
    let placement = worst.placement.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    let init_levels =
        worst.init_levels.iter().map(|l| l.to_string()).collect::<Vec<_>>().join(", ");
    format!(
        "{{\n  \"experiment\": \"BYZ\",\n  \"family\": \"{family}\",\n  \"n\": {n},\n  \
         \"graph_seed\": {graph_seed},\n  \"search_seed\": {seed},\n  \"behavior\": \
         \"{behavior}\",\n  \"byz_count\": {byz_count},\n  \"iterations\": {iterations},\n  \
         \"max_rounds\": {max_rounds},\n  \"radius\": {radius},\n  \"burn_in_horizon\": \
         {burn_in},\n  \"placement\": [{placement}],\n  \"init_levels\": [{init_levels}],\n  \
         \"score\": {score},\n  \"contained\": {contained},\n  \"final_radius\": \
         {final_radius},\n  \"evaluations\": {evaluations},\n  \"improvements\": \
         {improvements}\n}}\n",
        seed = config.seed,
        behavior = config.behavior.label(),
        byz_count = config.byz_count,
        iterations = config.iterations,
        max_rounds = config.max_rounds,
        radius = config.radius,
        score = worst.score,
        contained = worst.contained,
        final_radius = worst.final_radius,
        evaluations = worst.evaluations,
        improvements = worst.improvements,
    )
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    run_with(quick, &Telemetry::disabled())
}

/// Telemetry-aware driver: the featured stuck-beep taxonomy cell (seed 0,
/// section 2) streams its containment run into `tele` when enabled; the
/// aggregate tables are unchanged either way.
pub fn run_with(quick: bool, tele: &Telemetry) -> String {
    let n = if quick { 48 } else { 512 };
    let seeds = crate::common::seed_count(quick);
    let budget: u64 = if quick { 10_000 } else { 200_000 };
    let mut out = crate::common::header("BYZ", "Byzantine containment and worst-case adversary");
    let _ = writeln!(
        out,
        "workload: n={n}, {seeds} seeds, budget {budget} rounds; byz node at the \
         max-degree vertex; certified radius ≤ {RADIUS} after the O(ℓmax) burn-in"
    );

    let disabled = Telemetry::disabled();

    // Section 1: containment table across families.
    out.push_str("\n## containment per family (Algorithm 1, global-Δ policy)\n\n");
    let mut table =
        analysis::Table::new(["family", "behavior", "contained", "mean round", "worst radius"]);
    for (i, family) in families().iter().enumerate() {
        let g = family.generate(n, crate::common::graph_seed(i));
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let site = max_degree_node(&g);
        for behavior in [ByzantineBehavior::StuckBeep, ByzantineBehavior::Babbler(0.5)] {
            let label = behavior.label();
            let plan = ByzantinePlan::new().with_behavior(site, behavior);
            let cell =
                measure_contained_streaming(&g, &algo, &plan, seeds, budget, RADIUS, &disabled);
            let [contained, mean, radius] = cell_row(&cell, seeds);
            table.row([family.to_string(), label, contained, mean, radius]);
        }
    }
    out.push_str(&format!("{table}"));

    // Section 2: behavior taxonomy on one G(n,p) instance.
    out.push_str("\n## behavior taxonomy (single Byzantine node, G(n,p))\n\n");
    let family = GraphFamily::Gnp { avg_degree: 8.0 };
    let g = family.generate(n, crate::common::graph_seed(1));
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let site = max_degree_node(&g);
    // Adversarial reboot RAM: the node resurrects claiming MIS membership.
    let claim: Vec<Level> =
        algo.policy().lmax_values().iter().map(|&l| Algorithm1::SPACE.claiming(l)).collect();
    let resurrect = Resurrect::new(move |v: usize, _round, _rng: &mut _| claim[v]);
    let mut table =
        analysis::Table::new(["behavior", "algorithm", "contained", "mean round", "worst radius"]);
    for (i, behavior) in [
        ByzantineBehavior::StuckBeep,
        ByzantineBehavior::StuckSilent,
        ByzantineBehavior::Babbler(0.5),
        ByzantineBehavior::CrashRestart { period: 64, resurrect },
    ]
    .into_iter()
    .enumerate()
    {
        let label = behavior.label();
        let plan = ByzantinePlan::new().with_behavior(site, behavior);
        // The stuck-beep cell is the featured streaming run of the CLI's
        // `--telemetry` flag; the disabled default makes this a plain
        // measurement.
        let featured = if i == 0 { tele } else { &disabled };
        let cell = measure_contained_streaming(&g, &algo, &plan, seeds, budget, RADIUS, featured);
        let [contained, mean, radius] = cell_row(&cell, seeds);
        table.row([label, "Alg 1".into(), contained, mean, radius]);
    }
    // The two-channel liar only exists against Algorithm 2.
    let algo2 = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
    let plan = ByzantinePlan::new().with_behavior(site, ByzantineBehavior::Channel2Liar);
    let cell = measure_contained_streaming(&g, &algo2, &plan, seeds, budget, RADIUS, &disabled);
    let [contained, mean, radius] = cell_row(&cell, seeds);
    table.row(["channel2-liar".into(), "Alg 2".into(), contained, mean, radius]);
    out.push_str(&format!("{table}"));
    if tele.is_enabled() {
        out.push_str(
            "\ntelemetry: stuck-beep taxonomy cell (seed 0) streamed (round events + \
             byzantine marker + final-radius gauge).\n",
        );
    }

    // Section 3: adaptive worst-case adversary with certificate.
    out.push_str("\n## worst-case adversary search (hill-climbing, deterministic)\n\n");
    let search_graph_seed = crate::common::graph_seed(1);
    let burn_in = burn_in_horizon(algo.policy());
    let config = AdversaryConfig::new(0xB12A)
        .with_byz_count(if quick { 1 } else { 2 })
        .with_behavior(SearchBehavior::StuckBeep)
        .with_iterations(if quick { 8 } else { 48 })
        .with_max_rounds(budget)
        .with_radius(RADIUS)
        .with_burn_in(burn_in);
    match worst_case_search(&g, &algo, &config) {
        Ok(worst) => {
            let _ = writeln!(
                out,
                "searched {} candidates ({} improvements) over {} byzantine node(s) + \
                 initial levels",
                worst.evaluations, worst.improvements, config.byz_count
            );
            let _ = writeln!(
                out,
                "worst case: placement {:?}, certified contained = {} at round {} (budget {}), \
                 final radius {}",
                worst.placement,
                worst.contained,
                worst.score.min(config.max_rounds),
                config.max_rounds,
                worst.final_radius
            );
            let certificate = certificate_json(
                &family.to_string(),
                n,
                search_graph_seed,
                &config,
                &worst,
                burn_in,
            );
            out.push_str("\ncertificate:\n");
            out.push_str(&certificate);
            // Persist the certificate next to the text reports when the
            // standard output directory exists (the harness creates it via
            // `--out results`). Quick runs (tests, CI smoke) only print it,
            // so `cargo test` never rewrites the recorded full-scale
            // artifact.
            let results = std::path::Path::new("results");
            if !quick && results.is_dir() {
                if let Err(e) = std::fs::write(results.join("BYZ-certificate.json"), &certificate) {
                    let _ =
                        writeln!(out, "warning: cannot write results/BYZ-certificate.json: {e}");
                } else {
                    out.push_str("\ncertificate written to results/BYZ-certificate.json\n");
                }
            }
        }
        Err(e) => {
            let _ = writeln!(out, "warning: skipping the worst-case search: {e}");
        }
    }
    out.push_str(
        "\nexpected shape: stuck beepers integrate into the MIS (radius ≤ 1); babblers keep \
         their neighborhood churning but containment holds at radius ≤ 2; the searched worst \
         case delays certification without escaping the radius.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_sections() {
        let report = run(true);
        for section in
            ["containment per family", "behavior taxonomy", "worst-case adversary", "certificate:"]
        {
            assert!(report.contains(section), "missing section {section}");
        }
        assert!(report.contains("channel2-liar"));
        assert!(report.contains("crash-restart(64)"));
    }

    #[test]
    fn certificate_is_deterministic_and_reproducible() {
        // Acceptance criterion: same seed → byte-identical certificate.
        let family = GraphFamily::Gnp { avg_degree: 6.0 };
        let g = family.generate(32, 7);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let burn_in = burn_in_horizon(algo.policy());
        let config =
            AdversaryConfig::new(42).with_iterations(4).with_max_rounds(800).with_burn_in(burn_in);
        let a = worst_case_search(&g, &algo, &config).unwrap();
        let b = worst_case_search(&g, &algo, &config).unwrap();
        let ja = certificate_json(&family.to_string(), 32, 7, &config, &a, burn_in);
        let jb = certificate_json(&family.to_string(), 32, 7, &config, &b, burn_in);
        assert_eq!(ja, jb);
        assert!(ja.contains("\"experiment\": \"BYZ\""));
        assert!(ja.contains("\"placement\": ["));
        // Well-formed enough for downstream tooling: balanced braces and
        // one key per line.
        assert_eq!(ja.matches('{').count(), ja.matches('}').count());
    }

    #[test]
    fn streamed_containment_cell_matches_plain_measurement() {
        use telemetry::{Config as TeleConfig, Event, MarkerKind, MemorySink};
        let g = GraphFamily::Gnp { avg_degree: 8.0 }.generate(48, crate::common::graph_seed(1));
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let plan =
            ByzantinePlan::new().with_behavior(max_degree_node(&g), ByzantineBehavior::StuckBeep);
        let plain = measure_contained_streaming(
            &g,
            &algo,
            &plan,
            2,
            20_000,
            RADIUS,
            &Telemetry::disabled(),
        )
        .unwrap();
        let tele = Telemetry::enabled(TeleConfig::default());
        let (sink, handle) = MemorySink::new();
        tele.add_sink(Box::new(sink));
        let streamed =
            measure_contained_streaming(&g, &algo, &plan, 2, 20_000, RADIUS, &tele).unwrap();
        // Observational: same cell with or without the stream attached.
        assert_eq!(plain.rounds, streamed.rounds);
        assert_eq!(plain.worst_radius, streamed.worst_radius);
        let events = handle.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Marker(m) if m.kind == MarkerKind::Byzantine)));
        assert!(!handle.rounds().is_empty());
        assert!(tele.metrics().gauge("containment.final_radius").is_some());
    }

    #[test]
    fn single_stuck_beeper_contained_on_every_family() {
        // Tier-1 shadow of the acceptance test at small scale.
        for (i, family) in families().iter().enumerate() {
            let g = family.generate(48, crate::common::graph_seed(i));
            let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
            let plan = ByzantinePlan::new()
                .with_behavior(max_degree_node(&g), ByzantineBehavior::StuckBeep);
            let cell = measure_contained_streaming(
                &g,
                &algo,
                &plan,
                3,
                20_000,
                RADIUS,
                &Telemetry::disabled(),
            )
            .unwrap();
            assert_eq!(cell.rounds.len(), 3, "family {family} failed containment");
            assert!(cell.worst_radius <= RADIUS);
        }
    }
}
