//! Golden observables of every run entry point for fixed seeds on small
//! graphs.
//!
//! The cross-driver tests inside `crates/mis` compare one driver against
//! another; once the drivers share a round loop those comparisons become
//! self-comparisons. These goldens are the independent anchor: each pins
//! the exact observables an entry point produced, so any change to event
//! order, RNG stream use, stopping rules or budgets shows up here.

use beeping::byzantine::{ByzantineBehavior, ByzantinePlan};
use beeping::channel::ChannelFault;
use beeping::churn::{ChurnAction, ChurnPlan};
use beeping::faults::{FaultPlan, FaultTarget};
use beeping::trace::Trace;
use graphs::generators::{classic, random};
use mis::containment::run_contained;
use mis::levels::Level;
use mis::recovery::{run_noisy, Disturbance, EventRecovery, SegmentOutcome};
use mis::resumable::{ResumableConfig, ResumableRun, RunStatus};
use mis::runner::{run, run_recovery, run_with_history, InitialLevels, RunConfig, RunError};
use mis::{Algorithm1, Algorithm2, LmaxPolicy};

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn digest_levels<'a>(levels: impl IntoIterator<Item = &'a Level>) -> u64 {
    fnv1a(levels.into_iter().flat_map(|l| l.to_le_bytes()))
}

fn digest_bits(bits: &[bool]) -> u64 {
    fnv1a(bits.iter().map(|&b| u8::from(b)))
}

fn digest_trace(trace: &Trace) -> u64 {
    fnv1a(trace.reports().iter().flat_map(|r| {
        [
            r.round,
            r.beeps_channel1 as u64,
            r.beeps_channel2 as u64,
            r.hearers_channel1 as u64,
            r.hearers_channel2 as u64,
            r.lone_beepers as u64,
            r.lone_beepers_channel2 as u64,
        ]
        .into_iter()
        .flat_map(u64::to_le_bytes)
    }))
}

fn segment(
    disturbance: Disturbance,
    start_round: u64,
    outcome: SegmentOutcome,
    segment_rounds: u64,
    violation_rounds: u64,
    max_violation_streak: u64,
) -> EventRecovery {
    EventRecovery {
        disturbance,
        start_round,
        outcome,
        segment_rounds,
        violation_rounds,
        max_violation_streak,
    }
}

#[test]
fn run_with_faults_and_level_history() {
    let g = random::gnp(40, 0.1, 5);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let faults = FaultPlan::new()
        .with_fault(0, FaultTarget::RandomCount(3))
        .with_fault(30, FaultTarget::RandomFraction(0.5))
        .with_fault(60, FaultTarget::Nodes(vec![1, 2, 3]));
    let outcome = run_with_history(&g, &algo, RunConfig::new(5).with_faults(faults)).unwrap();
    let history = outcome.level_history.as_ref().unwrap();
    let observed = (
        outcome.rounds_run,
        outcome.stabilization_round,
        history.len(),
        digest_levels(history.iter().flatten()),
        digest_trace(&outcome.trace),
        digest_levels(&outcome.levels),
        digest_bits(&outcome.mis),
    );
    assert_eq!(
        observed,
        (
            98,
            38,
            99,
            4492729992933142529,
            15198069647891806244,
            8412670352767021765,
            15964474656940990929
        )
    );
}

#[test]
fn run_algorithm2_with_faults() {
    let g = random::gnp(50, 0.1, 6);
    let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
    let faults = FaultPlan::new().with_fault(25, FaultTarget::RandomFraction(0.4));
    let outcome =
        run(&g, &algo, RunConfig::new(8).with_init(InitialLevels::AllClaiming).with_faults(faults))
            .unwrap();
    let observed = (
        outcome.rounds_run,
        outcome.stabilization_round,
        digest_trace(&outcome.trace),
        digest_levels(&outcome.levels),
        digest_bits(&outcome.mis),
    );
    assert_eq!(observed, (49, 24, 18358864983035288318, 4816795096025814896, 5460473027777087346));
}

#[test]
fn run_budget_exhaustion() {
    let g = random::gnp(60, 0.2, 4);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let RunError::Budget(err) = run(&g, &algo, RunConfig::new(1).with_max_rounds(7)).unwrap_err()
    else {
        panic!("expected a budget error");
    };
    let observed = (err.max_rounds, err.stable_count, err.n);
    assert_eq!(observed, (7, 0, 60));
}

#[test]
fn run_recovery_every_field() {
    let g = random::gnp(50, 0.1, 6);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let rec = run_recovery(&g, &algo, 6, FaultTarget::RandomFraction(0.5), 100_000).unwrap();
    let observed = (
        rec.initial_stabilization,
        rec.recovery_rounds,
        rec.corrupted_nodes,
        digest_bits(&rec.mis),
    );
    assert_eq!(observed, (59, 33, 18, 16150641185179336477));

    let algo2 = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
    let rec2 = run_recovery(&g, &algo2, 3, FaultTarget::RandomCount(7), 100_000).unwrap();
    let observed2 = (
        rec2.initial_stabilization,
        rec2.recovery_rounds,
        rec2.corrupted_nodes,
        digest_bits(&rec2.mis),
    );
    assert_eq!(observed2, (23, 12, 7, 886571732620572098));
}

#[test]
fn run_noisy_events_under_noise_faults_and_churn() {
    let g = random::gnp(30, 0.15, 9);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    // Round 200 carries a fault and a churn event at the same boundary.
    let config = RunConfig::new(9)
        .with_init(InitialLevels::AllClaiming)
        .with_channel(ChannelFault::reliable().with_drop(0.03))
        .with_faults(
            FaultPlan::new()
                .with_fault(120, FaultTarget::RandomFraction(0.3))
                .with_fault(200, FaultTarget::RandomCount(4)),
        )
        .with_churn(
            ChurnPlan::new()
                .with_event(200, ChurnAction::NodeLeave(3))
                .with_event(400, ChurnAction::NodeJoin(3, vec![0, 5, 7]))
                .with_event(600, ChurnAction::RemoveEdge(0, 1)),
        );
    let outcome = run_noisy(&g, &algo, &config, 100_000).unwrap();
    let recovered = |rounds| SegmentOutcome::Recovered { rounds };
    let expected = vec![
        segment(Disturbance::Initial, 0, recovered(46), 120, 1, 1),
        segment(Disturbance::TransientFault { corrupted: 6 }, 120, recovered(26), 80, 0, 0),
        segment(
            Disturbance::TransientFault { corrupted: 4 },
            200,
            SegmentOutcome::Interrupted { rounds: 0 },
            0,
            0,
            0,
        ),
        segment(Disturbance::Churn(ChurnAction::NodeLeave(3)), 200, recovered(27), 200, 0, 0),
        segment(
            Disturbance::Churn(ChurnAction::NodeJoin(3, vec![0, 5, 7])),
            400,
            recovered(19),
            200,
            0,
            0,
        ),
        segment(Disturbance::Churn(ChurnAction::RemoveEdge(0, 1)), 600, recovered(0), 0, 0, 0),
    ];
    assert_eq!(outcome.events, expected);
    assert_eq!(
        (
            outcome.total_rounds,
            outcome.stabilized,
            digest_bits(&outcome.mis),
            digest_bits(&outcome.active)
        ),
        (600, true, 1563585640402740862, 9344141945908728771)
    );
}

#[test]
fn run_noisy_diverging_run() {
    let g = classic::path(6);
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(6, 4));
    let config = RunConfig::new(2)
        .with_init(InitialLevels::AllOne)
        .with_channel(ChannelFault::reliable().with_drop(1.0))
        .with_faults(FaultPlan::new().with_fault(40, FaultTarget::Nodes(vec![2])));
    let outcome = run_noisy(&g, &algo, &config, 150).unwrap();
    let expected = vec![
        segment(Disturbance::Initial, 0, SegmentOutcome::Interrupted { rounds: 40 }, 40, 39, 39),
        segment(
            Disturbance::TransientFault { corrupted: 1 },
            40,
            SegmentOutcome::Diverged { rounds: 150 },
            150,
            151,
            151,
        ),
    ];
    assert_eq!(outcome.events, expected);
    assert_eq!(
        (outcome.total_rounds, outcome.stabilized, digest_bits(&outcome.mis)),
        (190, false, 15556837164214743357)
    );
}

#[test]
fn run_contained_babbler_trajectory() {
    let g = random::gnp(40, 0.1, 12);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let plan = ByzantinePlan::new().with_behavior(4, ByzantineBehavior::Babbler(0.4));
    let config = RunConfig::new(17).with_max_rounds(50_000).with_byzantine(plan);
    let outcome = run_contained(&g, &algo, &config, 1, 40, true).unwrap();
    let trajectory = outcome.trajectory.as_ref().unwrap();
    let radii: Vec<usize> = trajectory.iter().map(|s| s.radius).collect();
    let observed = (
        outcome.contained_round,
        outcome.final_radius,
        outcome.rounds_run,
        digest_levels(&outcome.levels),
        digest_bits(&outcome.correct_mis),
    );
    let mut expected_radii = vec![6; 30];
    expected_radii.extend([4, 4, 4, 4, 4, 2, 2, 2, 2, 2, 1]);
    assert_eq!(radii, expected_radii);
    assert_eq!(observed, (Some(40), 1, 40, 9798389388726264132, 5100581887707971200));
}

#[test]
fn resumable_run_composed_axes() {
    let g = random::gnp(30, 0.15, 9);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(21)
        .with_max_rounds(200_000)
        .with_channel(ChannelFault::reliable().with_drop(0.02))
        .with_faults(FaultPlan::new().with_fault(50, FaultTarget::RandomFraction(0.4)))
        .with_churn(
            ChurnPlan::new()
                .with_event(80, ChurnAction::NodeLeave(3))
                .with_event(120, ChurnAction::NodeJoin(3, vec![0, 5])),
        )
        .with_byzantine(ByzantinePlan::new().with_behavior(7, ByzantineBehavior::Babbler(0.3)));
    let mut run = ResumableRun::new(&g, &algo, config).unwrap();
    let status = run.run_to_completion();
    let outcome = run.outcome().unwrap();
    let observed = (
        status == RunStatus::Stabilized,
        outcome.rounds_run,
        outcome.stabilization_round,
        digest_trace(&outcome.trace),
        digest_levels(&outcome.levels),
        digest_bits(&outcome.mis),
        digest_bits(&outcome.active),
    );
    assert_eq!(
        observed,
        (
            true,
            133,
            Some(13),
            6043290930277063070,
            6766714288756935144,
            2303929559580476648,
            9344141945908728771
        )
    );
}

#[test]
fn initial_levels_every_variant_both_algorithms() {
    let g = random::gnp(8, 0.4, 1);
    let policy = LmaxPolicy::own_degree(&g);
    let algo1 = Algorithm1::new(&g, policy.clone());
    let algo2 = Algorithm2::new(&g, policy);
    let variants = [
        InitialLevels::Random,
        InitialLevels::AllMax,
        InitialLevels::AllClaiming,
        InitialLevels::AllOne,
        InitialLevels::Custom(vec![i64::MIN, -40, -1, 0, 1, 7, 40, i64::MAX]),
    ];
    let observed: Vec<(Vec<Level>, Vec<Level>)> = variants
        .into_iter()
        .map(|init| {
            let config = RunConfig::new(1).with_init(init);
            (
                mis::runner::initial_levels(&algo1, &config),
                mis::runner::initial_levels(&algo2, &config),
            )
        })
        .collect();
    let expected: Vec<(Vec<Level>, Vec<Level>)> = vec![
        (vec![26, -5, -2, 19, -33, 18, -11, 16], vec![30, 16, 14, 27, 0, 26, 10, 26]),
        (vec![34, 36, 30, 34, 34, 34, 32, 36], vec![34, 36, 30, 34, 34, 34, 32, 36]),
        (vec![-34, -36, -30, -34, -34, -34, -32, -36], vec![0; 8]),
        (vec![1; 8], vec![1; 8]),
        (vec![-34, -36, -1, 0, 1, 7, 32, 36], vec![0, 0, 0, 0, 1, 7, 32, 36]),
    ];
    assert_eq!(observed, expected);
}
