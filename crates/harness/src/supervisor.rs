//! Supervised execution of [`mis::resumable::ResumableRun`]: round budgets,
//! a wall-clock watchdog, periodic durable checkpoints, panic isolation and
//! bounded retry-with-resume.
//!
//! The supervisor drives a run in *chunks* of ticks aligned to the
//! checkpoint cadence. Each chunk executes under
//! [`std::panic::catch_unwind`], so a panic anywhere inside the protocol,
//! the simulator or a fault/churn application is confined to the chunk: the
//! supervisor keeps the last good [`mis::resumable::RunCheckpoint`]
//! (always in memory, and
//! on disk when a checkpoint directory is configured) and can retry from it
//! up to [`SupervisorConfig::max_retries`] times. A deterministic panic
//! therefore re-fires and surfaces as [`RunOutcome::Panicked`]; a transient
//! one (the crash-injection rig's kill, which arms only once) is healed
//! invisibly, with telemetry counters as the audit trail.
//!
//! Durable snapshots are *double-buffered*: at a checkpoint boundary the
//! supervisor captures the run state once (copies of the per-node vectors;
//! the graph is shared, not copied) as the shared last good checkpoint and
//! hands the same allocation to a background thread that encodes and
//! atomically writes it, while the next chunk of rounds executes
//! concurrently. The writer takes the [`SectionCache`] with it and hands
//! it back through its join handle, so a topology that has not changed
//! since the last snapshot is neither digested nor written again. The writer is joined
//! before the
//! next checkpoint is captured (so at most two checkpoints and one encode
//! buffer are ever alive, and renames land in checkpoint order) and before
//! any outcome is returned (a snapshot the supervisor advertises —
//! including the [`RunOutcome::Panicked`] resume point — is always fully
//! durable).
//!
//! The critical path always pays the capture. It pays for the encode and
//! the write only when they do not fit in the chunk that runs beside
//! them: the write is hidden exactly when encode + write take no longer
//! than one chunk of rounds, and otherwise the next boundary waits out the
//! rest in the join. The supervisor's telemetry times both costs
//! (`harness.capture` and `harness.write_wait`), and the writer's two
//! phases (`harness.encode` and `harness.write`, measured on the writer
//! thread and recorded at the join), so the stream alone shows whether
//! snapshots block a run and which phase does it. Measured on perfbench's
//! `long-haul` instances (n = 2^16, m ≈ 262k, 128-round chunks with JSONL
//! telemetry, shared 2-core host, 20 ops per side): the version-1 writer
//! rewrote a 5.7 MB snapshot, graph included, at every boundary, and took
//! a 1.26 ms capture, a 5.5–6.9 ms encode and a 6.5–7.0 ms write. Version 2
//! writes the 2.1 MB topology file once and a 1.4 MB snapshot per
//! boundary: the capture takes 0.55–0.58 ms, the encode 1.0–1.35 ms, the
//! write (temporary file and the rename over the previous snapshot)
//! 1.4–1.7 ms, and the run waits 0.74–1.06 ms per boundary, because a
//! chunk of ticks now takes only about 2.6 ms.
//!
//! Wall-clock time is measured with [`telemetry::Stopwatch`], the
//! workspace's sanctioned clock (direct `std::time::Instant` use is banned
//! by lint rule L1 outside `crates/telemetry`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphs::Graph;
use mis::resumable::{
    PlanError, ResumableConfig, ResumableOutcome, ResumableRun, ResumeError, RunCheckpoint,
    RunStatus,
};
use mis::runner::SelfStabilizingMis;
use telemetry::{Stopwatch, Telemetry};

use crate::snapshot::{self, config_fingerprint, SectionCache, SnapshotError, WriteTimes};

/// File name of the (single, atomically overwritten) snapshot inside a
/// checkpoint directory.
pub const SNAPSHOT_FILE: &str = "checkpoint.snap";

/// The snapshot path used by a supervisor configured with `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Default tick-chunk size when no checkpoint cadence is configured: small
/// enough that the wall-clock watchdog stays responsive, large enough that
/// `catch_unwind` overhead vanishes.
const DEFAULT_CHUNK: u64 = 256;

/// Knobs of the supervisor, orthogonal to the run configuration itself.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Write a durable snapshot every this many rounds (and once at round
    /// 0, so a resume point always exists). `None` disables periodic
    /// checkpoints; an in-memory checkpoint is still kept for retries.
    pub checkpoint_every: Option<u64>,
    /// Directory for durable snapshots; must exist. `None` keeps
    /// checkpoints in memory only.
    pub checkpoint_dir: Option<PathBuf>,
    /// Abort (with a final snapshot, if a directory is configured) once
    /// this much wall-clock time has elapsed.
    pub wall_clock_limit_secs: Option<f64>,
    /// How many times a panicked chunk may be retried from the last good
    /// checkpoint before giving up with [`RunOutcome::Panicked`].
    pub max_retries: u32,
    /// Supervisor telemetry (counters `harness.checkpoints_written`,
    /// `harness.panics_caught`, `harness.retries`, `harness.resumes`;
    /// timers `harness.capture`, `harness.write_wait`, and the writer's
    /// `harness.encode` and `harness.write`). Independent of the run's own
    /// telemetry handle.
    pub telemetry: Telemetry,
    /// Crash-injection rig hook: kill the run (by panic) immediately
    /// before it executes this round. Armed only on the *initial* attempt,
    /// never on retries or resumes, so it models a transient process
    /// death. `None` in production use.
    pub kill_at: Option<u64>,
}

impl SupervisorConfig {
    /// No checkpoints, no watchdog, no retries — plain panic isolation.
    pub fn new() -> SupervisorConfig {
        SupervisorConfig {
            checkpoint_every: None,
            checkpoint_dir: None,
            wall_clock_limit_secs: None,
            max_retries: 0,
            telemetry: Telemetry::disabled(),
            kill_at: None,
        }
    }

    /// Sets the durable checkpoint cadence (in rounds).
    pub fn with_checkpoint_every(mut self, rounds: u64) -> SupervisorConfig {
        self.checkpoint_every = Some(rounds.max(1));
        self
    }

    /// Sets the durable checkpoint directory.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> SupervisorConfig {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Sets the wall-clock watchdog limit.
    pub fn with_wall_clock_limit_secs(mut self, secs: f64) -> SupervisorConfig {
        self.wall_clock_limit_secs = Some(secs);
        self
    }

    /// Sets the retry budget for panicked chunks.
    pub fn with_max_retries(mut self, retries: u32) -> SupervisorConfig {
        self.max_retries = retries;
        self
    }

    /// Attaches a supervisor telemetry handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> SupervisorConfig {
        self.telemetry = telemetry;
        self
    }

    /// Arms the crash-injection rig; see [`SupervisorConfig::kill_at`].
    pub fn with_kill_at(mut self, round: u64) -> SupervisorConfig {
        self.kill_at = Some(round);
        self
    }
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig::new()
    }
}

/// How a supervised run ended.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run stabilized; the full observables are attached.
    Completed(ResumableOutcome),
    /// The run's total round budget ran out; the observables at the budget
    /// boundary are attached (resume with a larger `max_rounds` to
    /// continue).
    BudgetExhausted(ResumableOutcome),
    /// The wall-clock watchdog fired. If a checkpoint directory was
    /// configured, `snapshot` names the durable resume point written at
    /// abort time.
    WallClockExceeded {
        /// Rounds executed when the watchdog fired.
        rounds_run: u64,
        /// The snapshot written at abort time, if any.
        snapshot: Option<PathBuf>,
    },
    /// A chunk panicked and the retry budget is exhausted.
    Panicked {
        /// The panic payload, rendered as text.
        message: String,
        /// The round of the last good checkpoint (where a manual resume
        /// would restart).
        round: u64,
        /// Retries consumed before giving up.
        retries_used: u32,
    },
    /// The snapshot a resume was asked to start from is unusable; the
    /// typed reason is attached.
    CorruptSnapshot {
        /// What was wrong with the snapshot file.
        error: SnapshotError,
    },
}

/// Errors of the supervisor *itself*, as opposed to outcomes of the
/// supervised run: a configuration invalid for the graph, a failed durable
/// write, or an in-memory checkpoint that cannot be rebuilt (a bug, but a
/// typed one).
#[derive(Debug, Clone)]
pub enum SupervisorError {
    /// The run configuration is invalid for the graph.
    Plan(PlanError),
    /// A checkpoint could not be turned back into a live run.
    Resume(ResumeError),
    /// A durable snapshot could not be written.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Plan(e) => write!(f, "supervisor: {e}"),
            SupervisorError::Resume(e) => write!(f, "supervisor: {e}"),
            SupervisorError::Snapshot(e) => write!(f, "supervisor: {e}"),
        }
    }
}

impl std::error::Error for SupervisorError {}

impl From<PlanError> for SupervisorError {
    fn from(e: PlanError) -> SupervisorError {
        SupervisorError::Plan(e)
    }
}

impl From<ResumeError> for SupervisorError {
    fn from(e: ResumeError) -> SupervisorError {
        SupervisorError::Resume(e)
    }
}

impl From<SnapshotError> for SupervisorError {
    fn from(e: SnapshotError) -> SupervisorError {
        SupervisorError::Snapshot(e)
    }
}

/// Runs `algo` on `graph` under `config`, supervised by `sup`. See the
/// module docs for the execution model.
pub fn supervise<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: ResumableConfig,
    sup: &SupervisorConfig,
) -> Result<RunOutcome, SupervisorError> {
    let mut run = ResumableRun::new(graph, algo, config.clone())?;
    if let Some(round) = sup.kill_at {
        run.set_crash_before_round(Some(round));
    }
    drive(run, algo, &config, sup)
}

/// Resumes a supervised run from the durable snapshot in
/// `sup.checkpoint_dir` (or from `snapshot_file`, if given). An unusable
/// snapshot is an *outcome* ([`RunOutcome::CorruptSnapshot`]), not an
/// error: the file's state is data, not a harness bug.
pub fn supervise_resume<A: SelfStabilizingMis>(
    algo: &A,
    config: ResumableConfig,
    sup: &SupervisorConfig,
    snapshot_file: Option<&Path>,
) -> Result<RunOutcome, SupervisorError> {
    let default_path = sup.checkpoint_dir.as_deref().map(snapshot_path);
    let path = match snapshot_file.or(default_path.as_deref()) {
        Some(p) => p.to_path_buf(),
        None => {
            return Ok(RunOutcome::CorruptSnapshot {
                error: SnapshotError::Io {
                    path: PathBuf::new(),
                    message: "no snapshot path: configure a checkpoint directory or pass a file"
                        .to_string(),
                },
            })
        }
    };
    let fingerprint = config_fingerprint::<A>(&config);
    let checkpoint = match snapshot::read_file(&path, fingerprint) {
        Ok(cp) => cp,
        Err(error) => return Ok(RunOutcome::CorruptSnapshot { error }),
    };
    let run = match ResumableRun::resume(algo, config.clone(), &checkpoint) {
        Ok(run) => run,
        // A checkpoint that decodes but cannot be restored (inconsistent
        // vectors) is equally a property of the snapshot file.
        Err(ResumeError::Restore(e)) => {
            return Ok(RunOutcome::CorruptSnapshot {
                error: SnapshotError::MalformedPayload(e.to_string()),
            })
        }
        Err(e @ ResumeError::Plan(_)) => return Err(SupervisorError::Resume(e)),
    };
    drive(run, algo, &config, sup)
}

/// An in-flight background snapshot write (double-buffered checkpointing:
/// the supervisor overlaps snapshot encoding and I/O with the next chunk of
/// rounds, and joins the writer at the following boundary; see the module
/// docs for when that hides the write). The writer hands back the section
/// cache it borrowed along with its result.
type PendingWrite = std::thread::JoinHandle<(SectionCache, Result<WriteTimes, SnapshotError>)>;

/// Shares a checkpoint with a background thread for encoding and durable
/// (atomic tmp-then-rename) writing; the checkpoint is not copied, and the
/// section cache travels with the thread until it is joined.
fn spawn_write(
    path: &Path,
    checkpoint: &Arc<RunCheckpoint>,
    fingerprint: u64,
    cache: &mut SectionCache,
) -> PendingWrite {
    let path = path.to_path_buf();
    let cp = Arc::clone(checkpoint);
    let mut cache = std::mem::take(cache);
    std::thread::spawn(move || {
        let result = cache.write_file(&path, &cp, fingerprint);
        (cache, result)
    })
}

/// Records a write's two phases as `harness.encode` and `harness.write`.
fn record_write(times: WriteTimes, tele: &Telemetry) {
    tele.timer_add("harness.encode", times.encode_ns);
    tele.timer_add("harness.write", times.write_ns);
}

/// Waits for the in-flight background write, if any, surfacing its result
/// and taking back the section cache. Writes are strictly serialized: the
/// previous one is always joined before the next checkpoint is captured,
/// so renames land in checkpoint order and the writer's share of the old
/// checkpoint is released first. The wait is timed as
/// `harness.write_wait`: it is the part of the write the chunk did not
/// hide. A writer that panicked loses the cache; the next write starts an
/// empty one.
fn join_write(
    pending: &mut Option<PendingWrite>,
    cache: &mut SectionCache,
    tele: &Telemetry,
) -> Result<(), SupervisorError> {
    let Some(handle) = pending.take() else {
        return Ok(());
    };
    let joined = {
        let _wait = tele.time("harness.write_wait");
        handle.join()
    };
    match joined {
        Ok((returned, result)) => {
            *cache = returned;
            record_write(result?, tele);
            Ok(())
        }
        Err(_) => Err(SupervisorError::Snapshot(SnapshotError::Io {
            path: PathBuf::new(),
            message: "background snapshot writer panicked".to_string(),
        })),
    }
}

/// Captures the run's state, timed as `harness.capture`: the checkpoint
/// cost that always sits on the critical path.
fn capture<A: SelfStabilizingMis>(run: &ResumableRun<A>, tele: &Telemetry) -> RunCheckpoint {
    let _capture = tele.time("harness.capture");
    run.checkpoint()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

fn drive<A: SelfStabilizingMis>(
    mut run: ResumableRun<A>,
    algo: &A,
    config: &ResumableConfig,
    sup: &SupervisorConfig,
) -> Result<RunOutcome, SupervisorError> {
    let watch = Stopwatch::start();
    let tele = &sup.telemetry;
    let fingerprint = config_fingerprint::<A>(config);
    let file = sup.checkpoint_dir.as_deref().map(snapshot_path);
    let cadence = sup.checkpoint_every.unwrap_or(DEFAULT_CHUNK).max(1);
    let mut retries_used = 0u32;
    let mut pending: Option<PendingWrite> = None;
    let mut cache = SectionCache::new();

    let mut last_good = Arc::new(capture(&run, tele));
    if sup.checkpoint_every.is_some() {
        if let Some(path) = &file {
            pending = Some(spawn_write(path, &last_good, fingerprint, &mut cache));
            tele.counter_add("harness.checkpoints_written", 1);
        }
    }

    loop {
        if let Some(limit) = sup.wall_clock_limit_secs {
            if watch.elapsed_secs() >= limit {
                join_write(&mut pending, &mut cache, tele)?;
                let final_cp = capture(&run, tele);
                let rounds_run = final_cp.sim.round();
                let snapshot = match &file {
                    Some(path) => {
                        record_write(cache.write_file(path, &final_cp, fingerprint)?, tele);
                        tele.counter_add("harness.checkpoints_written", 1);
                        Some(path.clone())
                    }
                    None => None,
                };
                return Ok(RunOutcome::WallClockExceeded { rounds_run, snapshot });
            }
        }

        // Run up to the next checkpoint boundary under panic isolation.
        let chunk = cadence - (run.round() % cadence);
        let result = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..chunk {
                if run.tick() != RunStatus::Running {
                    break;
                }
            }
        }));

        match result {
            Ok(()) => {
                if run.status() != RunStatus::Running {
                    join_write(&mut pending, &mut cache, tele)?;
                    let outcome = run.outcome().expect("a non-Running run always has an outcome");
                    return Ok(match run.status() {
                        RunStatus::Stabilized => RunOutcome::Completed(outcome),
                        _ => RunOutcome::BudgetExhausted(outcome),
                    });
                }
                join_write(&mut pending, &mut cache, tele)?;
                last_good = Arc::new(capture(&run, tele));
                if sup.checkpoint_every.is_some() {
                    if let Some(path) = &file {
                        pending = Some(spawn_write(path, &last_good, fingerprint, &mut cache));
                        tele.counter_add("harness.checkpoints_written", 1);
                    }
                }
            }
            Err(payload) => {
                tele.counter_add("harness.panics_caught", 1);
                let message = panic_message(payload);
                if retries_used >= sup.max_retries {
                    // The last good snapshot must actually be durable before
                    // we advertise it as the manual resume point.
                    join_write(&mut pending, &mut cache, tele)?;
                    return Ok(RunOutcome::Panicked {
                        message,
                        round: last_good.sim.round(),
                        retries_used,
                    });
                }
                retries_used += 1;
                tele.counter_add("harness.retries", 1);
                // The panicked run may be mid-round and is discarded; the
                // retry restarts from the last good checkpoint. The crash
                // rig's kill is deliberately NOT re-armed here.
                run = ResumableRun::resume(algo, config.clone(), &last_good)?;
                tele.counter_add("harness.resumes", 1);
            }
        }
    }
}
