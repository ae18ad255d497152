//! The four workloads: per-op set-up, the untraced op through each
//! workload's public entry point, and the traced replay that re-executes the
//! same op through the layers' own public calls.
//!
//! Every instance is generated from `(workload seed, instance index)`
//! through `beeping::rng` and the generators' seed argument; the program
//! only ever receives the generated graph and configuration.

use std::path::{Path, PathBuf};

use beeping::dynamic::{DynamicTopology, MotionSpec};
use beeping::faults::{FaultPlan, FaultTarget};
use beeping::rng::{aux_rng, split_mix64};
use beeping::trace::Trace;
use beeping::{EngineMode, Simulator, WorkCounters};
use experiments::scale::stabilized_levels;
use graphs::generators::geometric::radius_for_expected_degree;
use graphs::generators::random::gnp;
use graphs::motion::MotionModel;
use graphs::Graph;
use harness::snapshot::{self, config_fingerprint};
use harness::supervisor::{snapshot_path, supervise, RunOutcome, SupervisorConfig};
use mis::levels::{claiming_level, clamp_level, state_space_bounds, Level};
use mis::recovery::{claimed_mis, stabilized_active};
use mis::resumable::{ResumableConfig, ResumableOutcome, ResumableRun, RunStatus};
use mis::runner::{self, initial_levels, InitialLevels, RunConfig};
use mis::{Algorithm1, LmaxPolicy};
use rand::Rng;
use telemetry::{Config, JsonlSink, Telemetry};

use crate::trace::Tracer;

/// Nodes of the `G(n, 8/(n-1))` instances.
const N_LARGE: usize = 1 << 16;
/// Expected degree of the `G(n, p)` instances.
const GNP_DEGREE: f64 = 8.0;
/// Nodes knocked to the claiming level in a `point-fault` burst.
const BURST_NODES: usize = 16;
/// Deployment size, expected degree, speed and pause of `mobile`.
const MOBILE_N: usize = 1024;
const MOBILE_DEGREE: f64 = 6.0;
const MOBILE_SPEED: f64 = 0.002;
const MOBILE_PAUSE: u64 = 2;
/// `mobile` is a fixed-length op: no op stabilized within it in practice.
const MOBILE_BUDGET: u64 = 250;
/// `long-haul`: one single-node fault every `LONG_PERIOD` rounds,
/// `LONG_FAULTS` times, checkpointed at the same cadence.
const LONG_PERIOD: u64 = 128;
const LONG_FAULTS: u64 = 8;
/// Rounds allowed past the last scheduled event before an op counts as
/// having missed its stopping rule (the stabilizing ops need < 100).
const SETTLE_BUDGET: u64 = 10_000;

/// RNG purpose of the `point-fault` burst's victim draw.
const BURST_RNG_PURPOSE: u64 = 0xB0B5_7000;
/// RNG purpose the run drivers draw fault victims and levels from. The
/// replay of `long-haul` must draw the same stream; a mismatch shows up as
/// a digest failure, never as a silently different split.
const FAULT_RNG_PURPOSE: u64 = 0xFA17;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Random start to `S_t = V` on `G(2^16, 8/(n-1))`, Scatter engine.
    ColdStart,
    /// Recovery from a 16-node claiming burst on the greedy-MIS fixpoint,
    /// Frontier engine.
    PointFault,
    /// 250 rounds of a 1024-node random-waypoint deployment.
    Mobile,
    /// Eight single-node faults on the fixpoint under `supervise`, with
    /// checkpoints and JSONL telemetry.
    LongHaul,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::ColdStart, Workload::PointFault, Workload::Mobile, Workload::LongHaul];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStart => "cold-start",
            Workload::PointFault => "point-fault",
            Workload::Mobile => "mobile",
            Workload::LongHaul => "long-haul",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct instances the op list cycles through.
    pub fn instances(self) -> usize {
        match self {
            Workload::ColdStart | Workload::Mobile => 8,
            Workload::PointFault => 16,
            Workload::LongHaul => 4,
        }
    }

    /// The seed of instance `k` under workload seed `seed`.
    pub fn instance_seed(self, seed: u64, k: usize) -> u64 {
        split_mix64(seed ^ split_mix64(k as u64 + 1))
    }
}

/// Everything one op runs on, as produced by set-up.
pub struct Instance {
    pub workload: Workload,
    pub seed: u64,
    pub graph: Graph,
    pub algo: Algorithm1,
    init: InitialLevels,
    faults: FaultPlan,
    motion: Option<MotionSpec>,
    engine: EngineMode,
    max_rounds: u64,
}

impl Instance {
    fn last_event_round(&self) -> u64 {
        self.faults.last_fault_round().unwrap_or(0)
    }

    fn resumable_config(&self, telemetry: Telemetry) -> ResumableConfig {
        let mut config = ResumableConfig::new(self.seed)
            .with_init(self.init.clone())
            .with_faults(self.faults.clone())
            .with_engine(self.engine)
            .with_max_rounds(self.max_rounds)
            .with_telemetry(telemetry);
        if let Some(spec) = self.motion {
            config = config.with_motion(spec);
        }
        config
    }
}

/// The driver an op runs, built during set-up. One exists per op, so its
/// size does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Driver {
    /// `mis::runner::run` (the facade and experiments path).
    Runner(Option<RunConfig>),
    /// A constructed `ResumableRun` (the motion path).
    Resumable(ResumableRun<Algorithm1>),
    /// `harness::supervisor::supervise` with its configuration.
    Supervised { config: Option<ResumableConfig>, sup: SupervisorConfig },
}

impl Driver {
    /// The topology at the end of the op (motion rewires it).
    pub fn final_graph<'a>(&'a self, instance: &'a Instance) -> &'a Graph {
        match self {
            Driver::Resumable(run) => run.graph(),
            _ => &instance.graph,
        }
    }
}

/// What an op (or a replay) ended with.
#[derive(Debug, Clone)]
pub struct Done {
    pub rounds: u64,
    pub stabilized: bool,
    pub levels: Vec<Level>,
    pub mis: Vec<bool>,
}

impl From<ResumableOutcome> for Done {
    fn from(outcome: ResumableOutcome) -> Done {
        Done {
            rounds: outcome.rounds_run,
            stabilized: outcome.stabilized,
            levels: outcome.levels,
            mis: outcome.mis,
        }
    }
}

impl Done {
    /// Whether the op ended where its workload's stopping rule says.
    pub fn met_stopping_rule(&self, workload: Workload) -> bool {
        match workload {
            Workload::Mobile => self.stabilized || self.rounds == MOBILE_BUDGET,
            _ => self.stabilized,
        }
    }
}

/// A replay's result plus the counts only the replay's own simulator sees.
pub struct Replayed {
    pub done: Done,
    /// The rewired topology, kept only when a moving deployment stabilized.
    pub final_graph: Option<Graph>,
    pub work: WorkCounters,
    pub check_calls: u64,
    pub edge_events: u64,
}

/// Per-op scratch files of `long-haul`: the JSONL telemetry stream and the
/// checkpoint directory.
pub struct Scratch {
    pub telemetry_file: PathBuf,
    pub checkpoint_dir: PathBuf,
}

impl Scratch {
    pub fn new(dir: &Path) -> Scratch {
        Scratch { telemetry_file: dir.join("telemetry.jsonl"), checkpoint_dir: dir.join("ckpt") }
    }
}

/// Set-up of one op: graph or deployment generation, the ℓmax policy, the
/// initial configuration and driver construction, each in its own span.
pub fn set_up(
    workload: Workload,
    seed: u64,
    scratch: &Scratch,
    tr: &mut Tracer,
) -> Result<(Instance, Driver), String> {
    let root = tr.begin("setup");
    let (graph, motion) = tr.span("graphs.build", || match workload {
        Workload::Mobile => {
            let model = MotionModel::RandomWaypoint { speed: MOBILE_SPEED, pause: MOBILE_PAUSE };
            let radius = radius_for_expected_degree(MOBILE_N, MOBILE_DEGREE);
            let spec = MotionSpec::new(seed, radius, model);
            (spec.initial_graph(MOBILE_N), Some(spec))
        }
        _ => (gnp(N_LARGE, GNP_DEGREE / (N_LARGE as f64 - 1.0), seed), None),
    });
    let algo = tr.span("mis.policy", || Algorithm1::new(&graph, LmaxPolicy::global_delta(&graph)));
    let init = tr.span("init.levels", || match workload {
        Workload::ColdStart | Workload::Mobile => InitialLevels::Random,
        Workload::PointFault => {
            let mut levels = stabilized_levels(&graph, &algo);
            let mut rng = aux_rng(seed, BURST_RNG_PURPOSE);
            for v in FaultTarget::RandomCount(BURST_NODES).select(graph.len(), &mut rng) {
                levels[v] = claiming_level(algo.lmax(v));
            }
            InitialLevels::Custom(levels.into_iter().map(i64::from).collect())
        }
        Workload::LongHaul => InitialLevels::Custom(
            stabilized_levels(&graph, &algo).into_iter().map(i64::from).collect(),
        ),
    });
    let mut faults = FaultPlan::new();
    if workload == Workload::LongHaul {
        for k in 1..=LONG_FAULTS {
            faults = faults.with_fault(k * LONG_PERIOD, FaultTarget::RandomCount(1));
        }
    }
    let (engine, max_rounds) = match workload {
        Workload::ColdStart => (EngineMode::Scatter, SETTLE_BUDGET),
        Workload::PointFault => (EngineMode::Frontier, SETTLE_BUDGET),
        Workload::Mobile => (EngineMode::Scatter, MOBILE_BUDGET),
        Workload::LongHaul => (EngineMode::Frontier, LONG_PERIOD * LONG_FAULTS + SETTLE_BUDGET),
    };
    let instance =
        Instance { workload, seed, graph, algo, init, faults, motion, engine, max_rounds };
    let driver = tr.span("driver.new", || build_driver(&instance, scratch))?;
    tr.end(root);
    Ok((instance, driver))
}

fn build_driver(instance: &Instance, scratch: &Scratch) -> Result<Driver, String> {
    Ok(match instance.workload {
        Workload::ColdStart | Workload::PointFault => Driver::Runner(Some(
            RunConfig::new(instance.seed)
                .with_init(instance.init.clone())
                .with_engine(instance.engine)
                .with_max_rounds(instance.max_rounds),
        )),
        Workload::Mobile => {
            let config = instance.resumable_config(Telemetry::disabled());
            let run = ResumableRun::new(&instance.graph, &instance.algo, config)
                .map_err(|e| format!("mobile driver: {e}"))?;
            Driver::Resumable(run)
        }
        Workload::LongHaul => {
            let tele = jsonl_telemetry(&scratch.telemetry_file)?;
            let sup = SupervisorConfig::new()
                .with_checkpoint_every(LONG_PERIOD)
                .with_checkpoint_dir(&scratch.checkpoint_dir)
                .with_telemetry(tele.clone());
            Driver::Supervised { config: Some(instance.resumable_config(tele)), sup }
        }
    })
}

fn jsonl_telemetry(path: &Path) -> Result<Telemetry, String> {
    let sink = JsonlSink::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Telemetry::enabled(Config::default()).with_sink(Box::new(sink)))
}

/// The untraced op: one call of the workload's public entry point.
pub fn execute(instance: &Instance, driver: &mut Driver) -> Result<Done, String> {
    let (graph, algo) = (&instance.graph, &instance.algo);
    match driver {
        Driver::Runner(config) => {
            let config = config.take().ok_or("op already executed")?;
            let outcome = runner::run(graph, algo, config).map_err(|e| e.to_string())?;
            Ok(Done {
                rounds: outcome.rounds_run,
                stabilized: true,
                levels: outcome.levels,
                mis: outcome.mis,
            })
        }
        Driver::Resumable(run) => {
            run.run_to_completion();
            Ok(run.outcome().ok_or("run still running")?.into())
        }
        Driver::Supervised { config, sup } => {
            let config = config.take().ok_or("op already executed")?;
            match supervise(graph, algo, config, sup).map_err(|e| e.to_string())? {
                RunOutcome::Completed(outcome) => Ok(outcome.into()),
                other => Err(format!("supervised run did not complete: {other:?}")),
            }
        }
    }
}

/// Which stability predicate the replayed driver calls.
#[derive(Clone, Copy)]
enum Check {
    /// `mis::runner::run`: `Algorithm1::is_stabilized` (`mis::observer`).
    Observer,
    /// `ResumableRun::tick`: `mis::recovery::stabilized_active`.
    Active,
}

/// Replays the op's driver loop with its own `Simulator`, in the driver's
/// order: scheduled events (faults, then motion), the stability check, then
/// `Simulator::step`. Each layer call is one span of `tr` under a root span
/// named `root` (a disabled tracer makes this the untimed reference
/// execution).
pub fn replay(
    instance: &Instance,
    tr: &mut Tracer,
    root: &'static str,
) -> Result<Replayed, String> {
    let (graph, algo) = (&instance.graph, &instance.algo);
    let check = match instance.workload {
        Workload::ColdStart | Workload::PointFault => Check::Observer,
        Workload::Mobile | Workload::LongHaul => Check::Active,
    };
    let init_config = RunConfig::new(instance.seed).with_init(instance.init.clone());
    // `ResumableRun::new` builds its deployment during set-up, so the
    // replay does too, outside the op span.
    let mut motion = match &instance.motion {
        Some(spec) => Some(
            DynamicTopology::new(graph.len(), spec, instance.seed)
                .map_err(|e| format!("deployment: {e}"))?,
        ),
        None => None,
    };
    let op = tr.begin(root);
    let levels = tr.span("init.levels", || initial_levels(algo, &init_config));
    let mut sim = tr.span("sim.new", || {
        Simulator::new(graph, algo.clone(), levels, instance.seed).with_engine(instance.engine)
    });
    let mut fault_rng = aux_rng(instance.seed, FAULT_RNG_PURPOSE);
    let last_event = instance.last_event_round();
    let mut trace = Trace::new();
    let (mut check_calls, mut edge_events) = (0u64, 0u64);
    let stabilized = loop {
        let round = sim.round();
        for fault in instance.faults.events_after_round(round) {
            tr.span("events.faults", || {
                for v in fault.target.select(graph.len(), &mut fault_rng) {
                    let lmax = algo.lmax(v);
                    let (low, high) = state_space_bounds(lmax, true);
                    sim.corrupt_state(v, clamp_level(fault_rng.gen_range(low..=high), lmax));
                }
            });
        }
        if let Some(dt) = &mut motion {
            let (added, removed) = tr.span("dynamic.advance", || dt.advance(&mut sim));
            edge_events += (added + removed) as u64;
        }
        if round >= last_event {
            check_calls += 1;
            let stable = tr.span("check.stabilized", || match check {
                Check::Observer => algo.is_stabilized(sim.graph(), sim.states()),
                Check::Active => stabilized_active(algo, sim.graph(), sim.states(), sim.active()),
            });
            if stable {
                break true;
            }
        }
        if round >= instance.max_rounds {
            break false;
        }
        let report = tr.span("sim.step", || sim.step());
        trace.push(report);
    };
    let mis = tr.span("check.final_mis", || match check {
        Check::Observer => algo.mis_members(sim.graph(), sim.states()),
        Check::Active => claimed_mis(algo, sim.graph(), sim.states(), sim.active()),
    });
    let done = Done { rounds: sim.round(), stabilized, levels: sim.states().to_vec(), mis };
    tr.end(op);
    let final_graph = (motion.is_some() && stabilized).then(|| sim.graph().clone());
    Ok(Replayed { done, final_graph, work: sim.work(), check_calls, edge_events })
}

/// The traced form of a `long-haul` op: `ResumableRun::tick` with the
/// workload's JSONL handle, plus `ResumableRun::checkpoint`,
/// `snapshot::encode` and `snapshot::write_file` at the supervisor's cadence
/// and at the same points `supervise` takes them — serially, where
/// `supervise` overlaps encode and write with the next chunk. The
/// `probe.encode` span only measures encoding (and snapshot size) on its
/// own; `write_file` encodes again, so the probe is not part of the op.
///
/// Also returns the bytes of each encoded snapshot.
pub fn traced_supervision(
    instance: &Instance,
    scratch: &Scratch,
    tr: &mut Tracer,
) -> Result<(Done, Vec<usize>), String> {
    let tele = jsonl_telemetry(&scratch.telemetry_file)?;
    let config = instance.resumable_config(tele);
    let fingerprint = config_fingerprint::<Algorithm1>(&config);
    std::fs::create_dir_all(&scratch.checkpoint_dir)
        .map_err(|e| format!("{}: {e}", scratch.checkpoint_dir.display()))?;
    let path = snapshot_path(&scratch.checkpoint_dir);
    let op = tr.begin("op");
    let mut run = tr
        .span("driver.new", || ResumableRun::new(&instance.graph, &instance.algo, config))
        .map_err(|e| e.to_string())?;
    let mut sizes = Vec::new();
    loop {
        let cp = tr.span("harness.checkpoint", || run.checkpoint());
        let bytes = tr.span("probe.encode", || snapshot::encode(&cp, fingerprint));
        sizes.push(bytes.len());
        tr.span("harness.write_file", || snapshot::write_file(&path, &cp, fingerprint))
            .map_err(|e| e.to_string())?;
        let chunk = LONG_PERIOD - run.round() % LONG_PERIOD;
        for _ in 0..chunk {
            if tr.span("run.tick", || run.tick()) != RunStatus::Running {
                break;
            }
        }
        if run.status() != RunStatus::Running {
            break;
        }
    }
    let outcome = run.outcome().ok_or("run still running")?;
    tr.end(op);
    Ok((outcome.into(), sizes))
}

/// The same ticks as [`traced_supervision`] with `Telemetry::disabled()`
/// and no snapshots: the baseline its telemetry cost is measured against.
pub fn traced_plain_ticks(instance: &Instance, tr: &mut Tracer) -> Result<Done, String> {
    let config = instance.resumable_config(Telemetry::disabled());
    let root = tr.begin("calib.ticks");
    let mut run =
        ResumableRun::new(&instance.graph, &instance.algo, config).map_err(|e| e.to_string())?;
    while tr.span("calib.tick", || run.tick()) == RunStatus::Running {}
    let outcome = run.outcome().ok_or("run still running")?;
    tr.end(root);
    Ok(outcome.into())
}
