//! Crash-injection differential tests: a run that is killed at an
//! arbitrary round and resumed from its durable snapshot must be
//! bit-identical — same rounds, levels, MIS, participation bitmap and
//! per-round trace — to a run that was never interrupted, across graph
//! families, all four delivery engines and composed fault/churn/noise plans.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use beeping::byzantine::{ByzantineBehavior, ByzantinePlan};
use beeping::channel::ChannelFault;
use beeping::churn::{ChurnAction, ChurnPlan};
use beeping::faults::{FaultPlan, FaultTarget};
use beeping::EngineMode;
use graphs::generators::{classic, random};
use graphs::Graph;
use harness::crash::killed_then_resumed;
use harness::supervisor::{supervise, RunOutcome, SupervisorConfig};
use mis::resumable::{ResumableConfig, ResumableOutcome, ResumableRun};
use mis::{Algorithm1, Algorithm2, LmaxPolicy};
use proptest::prelude::*;
use telemetry::{Config as TelemetryConfig, Telemetry};

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("crash-{}-{tag}-{id}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn family_graph(family: u8, n: usize, seed: u64) -> Graph {
    match family % 4 {
        0 => random::gnp(n, 0.15, seed),
        1 => classic::cycle(n),
        2 => classic::path(n),
        _ => classic::complete(n.min(16)),
    }
}

/// The composed worst-case configuration: channel noise, a mid-run RAM
/// corruption wave, node churn and a Byzantine babbler — every axis the
/// snapshot must capture.
fn composed_config(seed: u64, n: usize, engine: EngineMode, with_events: bool) -> ResumableConfig {
    let mut config = ResumableConfig::new(seed)
        .with_max_rounds(30_000)
        .with_engine(engine)
        .with_channel(ChannelFault::reliable().with_drop(0.02));
    if with_events && n > 6 {
        config = config
            .with_faults(FaultPlan::new().with_fault(25, FaultTarget::RandomFraction(0.4)))
            .with_churn(
                ChurnPlan::new()
                    .with_event(40, ChurnAction::NodeLeave(1))
                    .with_event(60, ChurnAction::NodeJoin(1, vec![0, 2])),
            )
            .with_byzantine(
                ByzantinePlan::new().with_behavior(2, ByzantineBehavior::Babbler(0.25)),
            );
    }
    config
}

fn assert_outcomes_identical(a: &ResumableOutcome, b: &ResumableOutcome, context: &str) {
    assert_eq!(a.stabilized, b.stabilized, "{context}: stabilized");
    assert_eq!(a.rounds_run, b.rounds_run, "{context}: rounds_run");
    assert_eq!(a.stabilization_round, b.stabilization_round, "{context}: stabilization_round");
    assert_eq!(a.levels, b.levels, "{context}: levels");
    assert_eq!(a.mis, b.mis, "{context}: mis");
    assert_eq!(a.active, b.active, "{context}: active");
    assert_eq!(a.trace.reports(), b.trace.reports(), "{context}: trace");
}

fn uninterrupted(g: &Graph, algo: &Algorithm1, config: ResumableConfig) -> ResumableOutcome {
    let mut run = ResumableRun::new(g, algo, config).unwrap();
    run.run_to_completion();
    run.outcome().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: kill anywhere, resume from disk, get the
    /// exact same run — across families, engines and composed fault plans.
    #[test]
    fn killed_and_resumed_runs_are_bit_identical(
        family in 0u8..4,
        n in 8usize..28,
        seed in any::<u64>(),
        engine_sel in 0usize..4,
        with_events in any::<bool>(),
        kill_at in 1u64..120,
        checkpoint_every in 1u64..24,
    ) {
        let g = family_graph(family, n, seed);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let engine = [
            EngineMode::Scalar,
            EngineMode::Scatter,
            EngineMode::Frontier,
            EngineMode::ParScatter { threads: 2 },
        ][engine_sel];
        let config = composed_config(seed, g.len(), engine, with_events);

        let reference = uninterrupted(&g, &algo, config.clone());

        let dir = scratch_dir("prop");
        let report = killed_then_resumed(&g, &algo, config, kill_at, checkpoint_every, &dir);
        std::fs::remove_dir_all(&dir).ok();

        let context = format!(
            "family={family} n={n} seed={seed} engine={engine:?} events={with_events} \
             kill_at={kill_at} every={checkpoint_every} killed={}",
            report.killed
        );
        assert_outcomes_identical(&report.outcome, &reference, &context);
    }
}

#[test]
fn kill_every_round_of_one_run_is_covered() {
    // Exhaustive over kill rounds for one fixed composed configuration:
    // the proptest samples; this pins *every* kill point of a short run,
    // including boundaries exactly on and just off the checkpoint cadence.
    let g = random::gnp(16, 0.2, 42);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = composed_config(42, g.len(), EngineMode::Scatter, true);
    let reference = uninterrupted(&g, &algo, config.clone());

    for kill_at in 1..=reference.rounds_run + 2 {
        let dir = scratch_dir("every");
        let report = killed_then_resumed(&g, &algo, config.clone(), kill_at, 8, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(report.killed, kill_at <= reference.rounds_run, "kill_at={kill_at}");
        assert_outcomes_identical(&report.outcome, &reference, &format!("kill_at={kill_at}"));
    }
}

#[test]
fn parallel_scatter_fast_path_survives_kills() {
    // The composed proptest config carries channel noise, which sends
    // ParScatter down the phased fallback; this test runs a *reliable*
    // channel so every round goes through the parallel kernel proper, and
    // pins that checkpoint/restore stays engine-agnostic: a run killed
    // mid-flight and resumed (worker ranges and thread-local accumulators
    // rebuilt from scratch, never snapshotted) matches an uninterrupted
    // run, and an uninterrupted *scalar* run, bit for bit. At 160 nodes
    // (two and a half bitset words) the plan splits into two worker
    // ranges, the second one ending in a partial word.
    let g = random::gnp(160, 0.03, 9);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(9)
        .with_engine(EngineMode::ParScatter { threads: 2 })
        .with_faults(FaultPlan::new().with_fault(25, FaultTarget::RandomFraction(0.4)));
    let reference = uninterrupted(&g, &algo, config.clone());
    let scalar = uninterrupted(&g, &algo, config.clone().with_engine(EngineMode::Scalar));
    assert_outcomes_identical(&reference, &scalar, "par(2) vs scalar");

    for kill_at in [1u64, 8, 24, 25, 26, 57] {
        let dir = scratch_dir("par");
        let report = killed_then_resumed(&g, &algo, config.clone(), kill_at, 5, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_outcomes_identical(&report.outcome, &reference, &format!("kill_at={kill_at}"));
    }
}

#[test]
fn two_channel_algorithm_survives_kills() {
    // Runs under the frontier engine: Algorithm 2's settled configurations
    // (ℓ = 0 announcing, ℓ = ℓmax dominated) are skipped post-stabilization
    // and the kill/resume cycle must reconstruct that lazily-accounted
    // state from the snapshot alone.
    let g = random::gnp(18, 0.2, 7);
    let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
    let config = ResumableConfig::new(7)
        .with_engine(EngineMode::Frontier)
        .with_faults(FaultPlan::new().with_fault(20, FaultTarget::RandomFraction(0.5)));

    let mut straight = ResumableRun::new(&g, &algo, config.clone()).unwrap();
    straight.run_to_completion();
    let reference = straight.outcome().unwrap();

    for kill_at in [1, 5, 21] {
        let dir = scratch_dir("alg2");
        let report = killed_then_resumed(&g, &algo, config.clone(), kill_at, 4, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(report.outcome.levels, reference.levels, "kill_at={kill_at}");
        assert_eq!(report.outcome.trace.reports(), reference.trace.reports(), "kill_at={kill_at}");
    }
}

#[test]
fn moving_deployment_survives_kills_bit_identically() {
    // Acceptance criterion for the mobility layer: a run over a *moving*
    // geometric deployment, composed with noise, churn and a Byzantine
    // babbler, killed at an arbitrary round and resumed from its durable
    // snapshot, must be bit-identical to one that was never interrupted.
    // The babbler keeps the run from stabilizing under sustained motion,
    // so the budget is small and exhaustion is the expected terminal state.
    use beeping::dynamic::MotionSpec;
    use graphs::motion::MotionModel;
    let spec = MotionSpec::new(
        0xD00D,
        graphs::generators::geometric::radius_for_expected_degree(24, 6.0),
        MotionModel::RandomWaypoint { speed: 0.025, pause: 3 },
    );
    let g = spec.initial_graph(24);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(17)
        .with_max_rounds(150)
        .with_motion(spec)
        .with_channel(ChannelFault::reliable().with_drop(0.02))
        .with_churn(
            ChurnPlan::new()
                .with_event(40, ChurnAction::NodeLeave(1))
                .with_event(60, ChurnAction::NodeJoin(1, vec![])),
        )
        .with_byzantine(ByzantinePlan::new().with_behavior(2, ByzantineBehavior::Babbler(0.25)));

    let reference = uninterrupted(&g, &algo, config.clone());

    for kill_at in [1u64, 7, 40, 41, 60, 99] {
        let dir = scratch_dir("motion");
        let report = killed_then_resumed(&g, &algo, config.clone(), kill_at, 8, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_outcomes_identical(&report.outcome, &reference, &format!("kill_at={kill_at}"));
    }

    // And end-to-end through the supervisor's in-process self-healing.
    let sup = SupervisorConfig::new().with_max_retries(1).with_kill_at(33);
    let outcome = supervise(&g, &algo, config, &sup).expect("valid plans");
    match outcome {
        RunOutcome::BudgetExhausted(outcome) => {
            assert_outcomes_identical(&outcome, &reference, "supervised self-heal")
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

#[test]
fn supervisor_self_heals_with_retry_budget() {
    // With a retry budget the supervisor absorbs the kill in-process: the
    // caller sees a plain Completed outcome, bit-identical to an
    // undisturbed run, plus audit counters.
    let g = random::gnp(20, 0.15, 13);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = composed_config(13, g.len(), EngineMode::Scalar, true);
    let reference = uninterrupted(&g, &algo, config.clone());

    let tele = Telemetry::enabled(TelemetryConfig { level_stride: 0 });
    let sup = SupervisorConfig::new().with_max_retries(1).with_kill_at(30).with_telemetry(tele);
    let outcome = supervise(&g, &algo, config, &sup).expect("valid plans");
    match outcome {
        RunOutcome::Completed(outcome) => {
            assert_outcomes_identical(&outcome, &reference, "self-heal")
        }
        other => panic!("expected Completed, got {other:?}"),
    }
}

#[test]
fn supervisor_times_capture_and_write_wait() {
    // Every durable snapshot is captured once and joined once, so the two
    // critical-path timers count exactly the checkpoints written; without
    // a directory nothing is written and nothing is waited for.
    let g = random::gnp(40, 0.1, 21);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let dir = scratch_dir("timers");
    for durable in [true, false] {
        let tele = Telemetry::enabled(TelemetryConfig { level_stride: 0 });
        let mut sup = SupervisorConfig::new().with_checkpoint_every(4).with_telemetry(tele.clone());
        if durable {
            sup = sup.with_checkpoint_dir(&dir);
        }
        let outcome = supervise(&g, &algo, ResumableConfig::new(21), &sup).expect("valid plans");
        assert!(matches!(outcome, RunOutcome::Completed(_)), "{outcome:?}");
        let metrics = tele.metrics();
        let written = metrics.counter("harness.checkpoints_written");
        let count = |name: &str| metrics.timer(name).map_or(0, |t| t.count);
        assert!(count("harness.capture") >= 2, "initial capture plus at least one boundary");
        if durable {
            assert!(written >= 2);
            assert_eq!(count("harness.capture"), written);
            assert_eq!(count("harness.write_wait"), written);
        } else {
            assert_eq!((written, count("harness.write_wait")), (0, 0));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervisor_reports_panic_when_retries_exhausted() {
    let g = classic::cycle(12);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let sup = SupervisorConfig::new().with_kill_at(2); // max_retries = 0
    let outcome = supervise(&g, &algo, ResumableConfig::new(0), &sup).expect("valid plans");
    match outcome {
        RunOutcome::Panicked { message, round, retries_used } => {
            assert!(message.contains("crash injection"), "{message}");
            assert_eq!(retries_used, 0);
            assert!(round < 2);
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
}

#[test]
fn budget_exhaustion_can_be_resumed_with_a_larger_budget() {
    // Run out of budget, snapshot at the boundary, resume with a larger
    // budget: the continuation must match a straight run under the larger
    // budget (the fingerprint deliberately ignores max_rounds).
    let g = random::gnp(24, 0.12, 5);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let small = ResumableConfig::new(5).with_max_rounds(10);
    let large = ResumableConfig::new(5).with_max_rounds(30_000);

    let reference = uninterrupted(&g, &algo, large.clone());
    assert!(reference.stabilized, "fixture: must stabilize under the large budget");

    let dir = scratch_dir("budget");
    let sup = SupervisorConfig::new().with_checkpoint_every(1).with_checkpoint_dir(&dir);
    let first = supervise(&g, &algo, small, &sup).expect("valid plans");
    assert!(matches!(first, RunOutcome::BudgetExhausted(_)), "{first:?}");

    let resumed =
        harness::supervisor::supervise_resume(&algo, large, &sup, None).expect("resumable");
    std::fs::remove_dir_all(&dir).ok();
    match resumed {
        RunOutcome::Completed(outcome) => {
            assert_eq!(outcome.rounds_run, reference.rounds_run);
            assert_eq!(outcome.levels, reference.levels);
            assert_eq!(outcome.trace.reports(), reference.trace.reports());
        }
        other => panic!("expected Completed, got {other:?}"),
    }
}

#[test]
fn corrupt_snapshot_is_an_outcome_not_a_panic() {
    let g = classic::cycle(10);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(3);
    let dir = scratch_dir("corrupt");
    let sup =
        SupervisorConfig::new().with_checkpoint_every(2).with_checkpoint_dir(&dir).with_kill_at(4);
    let first = supervise(&g, &algo, config.clone(), &sup).expect("valid plans");
    assert!(matches!(first, RunOutcome::Panicked { .. }), "{first:?}");

    // Flip one payload byte in the snapshot on disk.
    let snap = harness::supervisor::snapshot_path(&dir);
    let header_len = std::fs::read(&snap).unwrap().iter().position(|&b| b == b'\n').unwrap() + 1;
    assert!(harness::flip_bit(&snap, header_len + 5, 0).unwrap());

    let resumed =
        harness::supervisor::supervise_resume(&algo, config, &sup, None).expect("no harness error");
    std::fs::remove_dir_all(&dir).ok();
    match resumed {
        RunOutcome::CorruptSnapshot { error } => {
            assert!(matches!(error, harness::SnapshotError::ChecksumMismatch { .. }), "{error}");
        }
        other => panic!("expected CorruptSnapshot, got {other:?}"),
    }
}

#[test]
fn wall_clock_watchdog_fires_and_leaves_a_resume_point() {
    let g = random::gnp(30, 0.1, 8);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    // A budget the run cannot finish instantly, plus a zero-second limit:
    // the watchdog must fire on the first check and write a snapshot.
    let config = ResumableConfig::new(8).with_max_rounds(1_000_000);
    let dir = scratch_dir("watchdog");
    let sup = SupervisorConfig::new()
        .with_checkpoint_every(64)
        .with_checkpoint_dir(&dir)
        .with_wall_clock_limit_secs(0.0);
    let outcome = supervise(&g, &algo, config.clone(), &sup).expect("valid plans");
    match outcome {
        RunOutcome::WallClockExceeded { rounds_run, snapshot } => {
            assert_eq!(rounds_run, 0, "zero-second limit fires before any chunk");
            let path = snapshot.expect("snapshot written on abort");
            assert!(path.exists());
            // And the snapshot is a usable resume point.
            let relaxed =
                SupervisorConfig::new().with_checkpoint_every(64).with_checkpoint_dir(&dir);
            let resumed = harness::supervisor::supervise_resume(&algo, config, &relaxed, None)
                .expect("resumable");
            assert!(matches!(resumed, RunOutcome::Completed(_)), "{resumed:?}");
        }
        other => panic!("expected WallClockExceeded, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
