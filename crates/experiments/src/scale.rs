//! Experiment `SCALE` — practicality at large n, in two parts.
//!
//! **Part 1 — stabilization scalability.** The adoption question a
//! downstream user asks: how do rounds, wall-clock time and beep (energy)
//! cost behave on realistic wireless-sized deployments? Runs Algorithm 1 on
//! random geometric graphs (the wireless-sensor abstraction the paper's
//! intro motivates) up to 10⁵ nodes.
//!
//! **Part 2 — parallel sharded scatter throughput (DESIGN.md §8).** The
//! paper's O(log n · log ℓmax) stabilization bound only separates this
//! algorithm from its rivals at node counts far beyond the PERF ceiling of
//! 2^16, so this part pushes the round engines to n = 1M/4M/16M cycles and
//! measures **node-rounds per second** for the single-thread scatter
//! baseline and [`EngineMode::ParScatter`] at several thread counts. The
//! workload is the *synthetic stabilized start*: a greedy lexicographic MIS
//! with members at `-ℓmax` and everyone else at `+ℓmax` — a fixpoint of
//! Algorithm 1's update rules (members beep every round, the rest stay
//! silenced), so no multi-minute stabilization run is needed before timing
//! and every engine sweeps the same full workload every round.
//!
//! Determinism is asserted, not assumed: every engine configuration must
//! produce the **same FNV-1a digest** of the final level vector — at any
//! thread count — before its timing is reported. The committed artifact is
//! `results/BENCH_SCALE.json` (one entry per size with per-engine
//! node-rounds/sec and per-core rates); the ≥ 2× ParScatter acceptance gate
//! applies only on machines with ≥ 4 cores — on smaller hosts the digests
//! still pin bit-identity and the gate reports `skipped`.

use std::fmt::Write as _;

use beeping::{EngineMode, Simulator};
use graphs::generators::GraphFamily;
use graphs::Graph;
use mis::levels::Level;
use mis::runner::{InitialLevels, RunConfig, RunError};
use mis::{Algorithm1, LmaxPolicy};
use telemetry::Stopwatch;

/// One scalability data point (part 1).
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Network size.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Stabilization rounds.
    pub rounds: u64,
    /// Wall-clock seconds for the whole run (including stabilization
    /// detection each round).
    pub seconds: f64,
    /// Mean channel-1 beeps per node over the execution (energy proxy).
    pub beeps_per_node: f64,
    /// MIS size.
    pub mis_size: usize,
}

/// Measures one size (part 1). Errors when the run exhausts its budget.
pub fn measure_scale(n: usize, seed: u64) -> Result<ScalePoint, RunError> {
    let family = GraphFamily::Geometric { avg_degree: 8.0 };
    let g = family.generate(n, seed);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let watch = Stopwatch::start();
    let outcome = algo.run(&g, RunConfig::new(seed).with_init(InitialLevels::Random))?;
    let seconds = watch.elapsed_secs();
    assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    Ok(ScalePoint {
        n: g.len(),
        m: g.num_edges(),
        rounds: outcome.stabilization_round,
        seconds,
        beeps_per_node: outcome.trace.total_beeps_channel1() as f64 / g.len() as f64,
        mis_size: outcome.mis.iter().filter(|&&x| x).count(),
    })
}

/// The synthetic stabilized start: a greedy lexicographic MIS (take `v`
/// unless a smaller neighbor was taken) with members at `-ℓmax(v)` and
/// everyone else at `+ℓmax(v)`.
///
/// This is a fixpoint of Algorithm 1: a member beeps with probability
/// `min(2^{ℓmax}, 1) = 1` every round, hears nothing (greedy independence
/// keeps member neighborhoods member-free) and resets to `-ℓmax`; a
/// non-member has a member neighbor (greedy maximality), hears its beep and
/// saturates at `+ℓmax`. So timing can start *here* instead of after a
/// multi-minute stabilization run, and every engine executes the identical
/// full sweep each round.
pub fn stabilized_levels(g: &Graph, algo: &Algorithm1) -> Vec<Level> {
    let mut member = vec![false; g.len()];
    for v in 0..g.len() {
        member[v] = g.neighbors(v).iter().all(|&u| (u as usize) >= v || !member[u as usize]);
    }
    (0..g.len()).map(|v| if member[v] { -algo.lmax(v) } else { algo.lmax(v) }).collect()
}

/// FNV-1a over a level vector: the cross-engine determinism fingerprint of
/// part 2 (little-endian level bytes, node order).
pub fn levels_digest(levels: &[Level]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &level in levels {
        for b in level.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One engine configuration's measurement in a [`ParScalePoint`].
#[derive(Debug, Clone, Copy)]
pub struct EngineRate {
    /// Worker threads (1 for the sequential scatter baseline).
    pub threads: usize,
    /// Throughput in node-rounds per second (`n · rounds / seconds`).
    pub node_rounds_per_sec: f64,
}

impl EngineRate {
    /// Throughput normalized by worker count — the scaling-efficiency
    /// number the BENCH_SCALE baseline tracks.
    pub fn per_core(&self) -> f64 {
        self.node_rounds_per_sec / self.threads as f64
    }
}

/// One `(family, n)` measurement of part 2.
#[derive(Debug, Clone)]
pub struct ParScalePoint {
    /// Family label.
    pub family: String,
    /// Network size.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Timed rounds per engine configuration.
    pub rounds: u64,
    /// FNV-1a digest of the final levels — asserted identical for every
    /// engine configuration before any rate is reported.
    pub digest: u64,
    /// Sequential scatter baseline.
    pub scatter: EngineRate,
    /// ParScatter at each measured thread count, ascending.
    pub par: Vec<EngineRate>,
}

impl ParScalePoint {
    /// ParScatter speedup over the sequential scatter baseline at `threads`.
    pub fn par_speedup(&self, threads: usize) -> Option<f64> {
        let par = self.par.iter().find(|r| r.threads == threads)?;
        Some(par.node_rounds_per_sec / self.scatter.node_rounds_per_sec.max(1e-9))
    }
}

/// Part 2 sizes: 1M/4M/16M full, small under `--quick`.
pub fn par_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1 << 12, 1 << 14]
    } else {
        vec![1 << 20, 1 << 22, 1 << 24]
    }
}

/// Part 2 thread counts (the `--quick` CI smoke stays at 2 workers).
pub fn par_threads(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 4]
    }
}

fn timed_node_rounds(
    g: &Graph,
    algo: &Algorithm1,
    levels: &[Level],
    seed: u64,
    engine: EngineMode,
    rounds: u64,
) -> (f64, u64) {
    let mut sim = Simulator::new(g, algo.clone(), levels.to_vec(), seed).with_engine(engine);
    let watch = Stopwatch::start();
    sim.run(rounds);
    let secs = watch.elapsed_secs().max(1e-9);
    let digest = levels_digest(sim.states());
    ((g.len() as u64 * rounds) as f64 / secs, digest)
}

/// Measures one part-2 size: build the cycle, synthesize the stabilized
/// start, then time the sequential scatter baseline and ParScatter at every
/// thread count over the identical workload, asserting digest equality
/// across all configurations.
///
/// # Panics
///
/// Panics if the synthetic start is not a fixpoint, or if any engine
/// configuration produces a different final-levels digest — either would
/// invalidate every number in the artifact.
pub fn measure_par_point(n: usize, seed: u64, quick: bool) -> ParScalePoint {
    let family = GraphFamily::Cycle;
    let g = family.generate(n, crate::common::graph_seed(0));
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let levels = stabilized_levels(&g, &algo);
    assert!(algo.is_stabilized(&g, &levels), "synthetic start must be a fixpoint");
    // Node-rounds budget per engine configuration; the floor keeps the
    // largest sizes from under-sampling (16M nodes still get 8 rounds).
    let budget: u64 = if quick { 1 << 22 } else { 1 << 27 };
    let rounds = (budget / n as u64).max(8);

    let (scatter_rate, digest) =
        timed_node_rounds(&g, &algo, &levels, seed, EngineMode::Scatter, rounds);
    let mut par = Vec::new();
    for threads in par_threads(quick) {
        let (rate, par_digest) =
            timed_node_rounds(&g, &algo, &levels, seed, EngineMode::ParScatter { threads }, rounds);
        assert_eq!(
            par_digest, digest,
            "ParScatter({threads}) diverged from the scatter baseline at n={n}"
        );
        par.push(EngineRate { threads, node_rounds_per_sec: rate });
    }
    ParScalePoint {
        family: family.to_string(),
        n: g.len(),
        m: g.num_edges(),
        rounds,
        digest,
        scatter: EngineRate { threads: 1, node_rounds_per_sec: scatter_rate },
        par,
    }
}

/// The ≥ 2× ParScatter acceptance gate, evaluated at the smallest full
/// size (n = 2^20): `pass`/`fail` on hosts with ≥ 4 cores, `skipped(...)`
/// elsewhere (a 1-core container cannot show parallel speedup; digests
/// still pin bit-identity there).
pub fn gate_verdict(points: &[ParScalePoint], cores: usize) -> String {
    if cores < 4 {
        return format!("skipped({cores} cores < 4)");
    }
    let Some(p) = points.iter().find(|p| p.n == 1 << 20) else {
        return "skipped(no n=2^20 row)".to_string();
    };
    match p.par_speedup(4) {
        Some(s) if s >= 2.0 => format!("pass({s:.2}x)"),
        Some(s) => format!("fail({s:.2}x < 2x)"),
        None => "skipped(no 4-thread row)".to_string(),
    }
}

/// Renders part 2 as the committed `results/BENCH_SCALE.json` artifact
/// (fixed field order; rates are wall-clock measurements, digests are
/// deterministic).
pub fn bench_json(points: &[ParScalePoint], quick: bool, git: &str, gate: &str) -> String {
    let mut out = String::from("{\n  \"experiment\": \"SCALE\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"git\": \"{}\",", telemetry::jsonl::escape(git));
    let _ = writeln!(out, "  \"unit\": \"node_rounds_per_sec\",");
    let _ = writeln!(out, "  \"gate\": \"{}\",", telemetry::jsonl::escape(gate));
    out.push_str("  \"entries\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        let mut engines = format!(
            "{{\"engine\": \"scatter\", \"threads\": 1, \"nrps\": {:.0}, \"per_core\": {:.0}}}",
            p.scatter.node_rounds_per_sec,
            p.scatter.per_core()
        );
        for r in &p.par {
            let _ = write!(
                engines,
                ", {{\"engine\": \"par\", \"threads\": {}, \"nrps\": {:.0}, \
                 \"per_core\": {:.0}, \"speedup\": {:.2}}}",
                r.threads,
                r.node_rounds_per_sec,
                r.per_core(),
                p.par_speedup(r.threads).unwrap_or(0.0)
            );
        }
        let _ = writeln!(
            out,
            "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"rounds\": {}, \
             \"digest\": \"{:016x}\", \"engines\": [{engines}]}}{sep}",
            p.family, p.n, p.m, p.rounds, p.digest
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    let sizes: Vec<usize> = if quick { vec![1_000, 2_000] } else { vec![10_000, 30_000, 100_000] };
    let mut out = crate::common::header("SCALE", "Scalability on random geometric graphs");
    out.push_str("Algorithm 1, global-Δ policy, adversarial random init, 1 seed per size\n\n");
    let mut table = analysis::Table::new([
        "n",
        "edges",
        "rounds",
        "wall (s)",
        "rounds/s",
        "beeps/node",
        "|MIS|",
    ]);
    for (i, &n) in sizes.iter().enumerate() {
        match measure_scale(n, crate::common::graph_seed(i)) {
            Ok(p) => {
                table.row([
                    p.n.to_string(),
                    p.m.to_string(),
                    p.rounds.to_string(),
                    format!("{:.2}", p.seconds),
                    format!("{:.0}", p.rounds as f64 / p.seconds.max(1e-9)),
                    format!("{:.1}", p.beeps_per_node),
                    p.mis_size.to_string(),
                ]);
            }
            Err(e) => {
                let _ = writeln!(out, "warning: skipping n={n}: {e}");
            }
        }
    }
    out.push_str(&table.to_string());
    out.push_str(
        "\nexpected shape: rounds stay logarithmic (tens, not thousands); beeps per node \
         stay O(rounds); wall time scales ~ n·rounds.\n",
    );

    // Part 2: parallel sharded scatter at 1M-16M (DESIGN.md §8).
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let _ = writeln!(
        out,
        "\n## parallel sharded scatter (cycle, synthetic stabilized start, {cores} cores)\n"
    );
    let mut par_table = analysis::Table::new([
        "n",
        "rounds",
        "digest",
        "scatter nr/s",
        "engine",
        "nr/s",
        "nr/s/core",
        "speedup",
    ]);
    let mut points = Vec::new();
    for &n in &par_sizes(quick) {
        let p = measure_par_point(n, 0x5CA1E, quick);
        for r in &p.par {
            par_table.row([
                p.n.to_string(),
                p.rounds.to_string(),
                format!("{:016x}", p.digest),
                format!("{:.0}", p.scatter.node_rounds_per_sec),
                format!("par({})", r.threads),
                format!("{:.0}", r.node_rounds_per_sec),
                format!("{:.0}", r.per_core()),
                format!("{:.2}x", p.par_speedup(r.threads).unwrap_or(0.0)),
            ]);
        }
        points.push(p);
    }
    out.push_str(&par_table.to_string());
    let gate = gate_verdict(&points, cores);
    let _ = writeln!(out, "\nacceptance gate (par(4) >= 2x scatter at n=2^20): {gate}");

    let git = crate::perf::git_describe();
    let json = bench_json(&points, quick, &git, &gate);
    out.push_str("\nbench baseline:\n");
    out.push_str(&json);
    let results = std::path::Path::new("results");
    out.push_str(&crate::perf::save_bench_record(results, "SCALE", &json, quick, &git));
    out.push_str(
        "\nexpected shape: scatter node-rounds/sec is flat in n (the full sweep is O(n + m) \
         per round); ParScatter at 1 thread makes the same sequential kernel call as scatter \
         (no thread scope), so it matches scatter within noise. More threads pay two thread \
         scopes per round and lose at small n: on a 2-core x86-64 VM par(2) ran at 0.29x \
         scatter at n=4096 and 0.57-0.63x at n=16384 (--quick), and results/BENCH_SCALE.json shows \
         a gain only from n=2^20 up (1.08x at 2^20, 1.73x at 2^24). Digests are identical at \
         every thread count.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_point_is_consistent() {
        let p = measure_scale(500, 1).expect("stabilizes");
        assert_eq!(p.n, 500);
        assert!(p.rounds > 0);
        assert!(p.mis_size > 0 && p.mis_size < 500);
        assert!(p.beeps_per_node > 0.0);
    }

    #[test]
    fn rounds_grow_slowly_with_n() {
        let small = measure_scale(250, 2).expect("stabilizes");
        let large = measure_scale(2_000, 2).expect("stabilizes");
        // 8× nodes must not cost anywhere near 8× rounds.
        assert!(
            (large.rounds as f64) < 4.0 * small.rounds as f64,
            "small={} large={}",
            small.rounds,
            large.rounds
        );
    }

    #[test]
    fn synthetic_start_is_a_fixpoint_across_families() {
        for family in [
            GraphFamily::Cycle,
            GraphFamily::Regular { d: 4 },
            GraphFamily::Gnp { avg_degree: 8.0 },
        ] {
            let g = family.generate(512, 7);
            let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
            let levels = stabilized_levels(&g, &algo);
            assert!(algo.is_stabilized(&g, &levels), "{family} synthetic start not stabilized");
            // And it really is a *fixpoint*: one round changes nothing.
            let mut sim = Simulator::new(&g, algo.clone(), levels.clone(), 3);
            sim.run(16);
            assert_eq!(sim.states(), &levels[..], "{family} levels drifted");
        }
    }

    #[test]
    fn par_point_digests_agree_and_rates_are_positive() {
        let p = measure_par_point(1 << 12, 9, true);
        assert_eq!(p.n, 1 << 12);
        assert!(p.scatter.node_rounds_per_sec > 0.0);
        assert_eq!(p.par.len(), par_threads(true).len());
        for r in &p.par {
            assert!(r.node_rounds_per_sec > 0.0);
            assert!(r.per_core() <= r.node_rounds_per_sec + 1e-9);
        }
    }

    /// Exact `(rounds, node_execs, edge_visits)` of every engine over the
    /// SCALE `--quick` part-2 workloads (cycle, synthetic stabilized start,
    /// the timed round count): columns are Scalar, Scatter, Frontier,
    /// ParScatter{1}, ParScatter{2}. A kernel refactor must leave every
    /// number unchanged.
    #[test]
    fn work_counters_pinned_par_sizes() {
        let engines = [
            EngineMode::Scalar,
            EngineMode::Scatter,
            EngineMode::Frontier,
            EngineMode::ParScatter { threads: 1 },
            EngineMode::ParScatter { threads: 2 },
        ];
        type Work = (u64, u64, u64);
        let golden: [(usize, [Work; 5]); 2] = [
            (
                1 << 12,
                [
                    (1024, 4194304, 8388608),
                    (1024, 4194304, 4194304),
                    (1024, 4096, 4096),
                    (1024, 4194304, 4194304),
                    (1024, 4194304, 4194304),
                ],
            ),
            (
                1 << 14,
                [
                    (256, 4194304, 8388608),
                    (256, 4194304, 4194304),
                    (256, 16384, 16384),
                    (256, 4194304, 4194304),
                    (256, 4194304, 4194304),
                ],
            ),
        ];
        for (n, expected) in golden {
            let g = GraphFamily::Cycle.generate(n, crate::common::graph_seed(0));
            let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
            let levels = stabilized_levels(&g, &algo);
            let rounds = ((1u64 << 22) / n as u64).max(8);
            let actual = engines.map(|engine| {
                let mut sim =
                    Simulator::new(&g, algo.clone(), levels.clone(), 0x5CA1E).with_engine(engine);
                sim.run(rounds);
                let work = sim.work();
                (sim.round(), work.node_execs, work.edge_visits)
            });
            assert_eq!(actual, expected, "n={n} work changed");
        }
    }

    #[test]
    fn digest_depends_on_levels() {
        assert_ne!(levels_digest(&[1, 2, 3]), levels_digest(&[1, 2, 4]));
        assert_ne!(levels_digest(&[]), levels_digest(&[0]));
        assert_eq!(levels_digest(&[-5, 5]), levels_digest(&[-5, 5]));
    }

    #[test]
    fn gate_skips_on_small_hosts_and_judges_on_big_ones() {
        let mk = |speed4: f64| ParScalePoint {
            family: "cycle".into(),
            n: 1 << 20,
            m: 1 << 20,
            rounds: 128,
            digest: 7,
            scatter: EngineRate { threads: 1, node_rounds_per_sec: 1e8 },
            par: vec![EngineRate { threads: 4, node_rounds_per_sec: speed4 * 1e8 }],
        };
        assert!(gate_verdict(&[mk(3.0)], 1).starts_with("skipped"));
        assert!(gate_verdict(&[mk(3.0)], 4).starts_with("pass"));
        assert!(gate_verdict(&[mk(1.2)], 4).starts_with("fail"));
        assert!(gate_verdict(&[], 8).starts_with("skipped"));
    }

    #[test]
    fn bench_json_is_well_formed() {
        let points = vec![ParScalePoint {
            family: "cycle".into(),
            n: 1 << 20,
            m: 1 << 20,
            rounds: 128,
            digest: 0xDEAD_BEEF,
            scatter: EngineRate { threads: 1, node_rounds_per_sec: 1.0e8 },
            par: vec![
                EngineRate { threads: 1, node_rounds_per_sec: 0.98e8 },
                EngineRate { threads: 4, node_rounds_per_sec: 3.1e8 },
            ],
        }];
        let json = bench_json(&points, false, "abc1234", "skipped(1 cores < 4)");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"digest\": \"00000000deadbeef\""));
        assert!(json.contains("\"unit\": \"node_rounds_per_sec\""));
        assert!(json.contains("\"speedup\": 3.10"));
        assert!(json.contains("\"gate\": \"skipped(1 cores < 4)\""));
    }
}
