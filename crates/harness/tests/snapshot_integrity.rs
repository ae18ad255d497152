//! Snapshot file-format integrity: round-trips are exact, and every class
//! of file damage — truncation, bit flips, version skew, wrong magic,
//! configuration mismatch, plain garbage — is rejected with the right
//! typed error, never a panic.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use beeping::channel::ChannelFault;
use beeping::churn::{ChurnAction, ChurnPlan};
use beeping::dynamic::MotionSpec;
use beeping::faults::{FaultPlan, FaultTarget};
use beeping::rng::pcg_state;
use graphs::generators::geometric::radius_for_expected_degree;
use graphs::generators::random;
use graphs::motion::MotionModel;
use harness::snapshot::{
    config_fingerprint, decode, encode, fnv1a64, read_file, write_file, SnapshotError,
};
use mis::resumable::{ResumableConfig, ResumableRun, RunCheckpoint, RunStatus};
use mis::{Algorithm1, LmaxPolicy};
use proptest::prelude::*;

/// A process-unique scratch directory under the build tree (no tempfile
/// dependency, and no writes outside the workspace).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("harness-{}-{tag}-{id}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A mid-run checkpoint with every axis populated: noise, faults, churn,
/// a non-empty trace and a pending event cursor.
fn busy_checkpoint() -> (RunCheckpoint, u64) {
    let g = random::gnp(24, 0.15, 3);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(3)
        .with_channel(ChannelFault::reliable().with_drop(0.05))
        .with_faults(FaultPlan::new().with_fault(10, FaultTarget::RandomFraction(0.5)))
        .with_churn(ChurnPlan::new().with_event(15, ChurnAction::NodeLeave(2)));
    let fingerprint = config_fingerprint::<Algorithm1>(&config);
    let mut run = ResumableRun::new(&g, &algo, config).unwrap();
    for _ in 0..20 {
        if run.tick() != RunStatus::Running {
            break;
        }
    }
    (run.checkpoint(), fingerprint)
}

/// A mid-run checkpoint of a *moving* deployment: the motion fields are
/// populated mid-flight (positions away from their spawn points, a pause
/// countdown possibly running, the motion RNG advanced).
fn moving_checkpoint(model: MotionModel) -> (RunCheckpoint, ResumableConfig, u64) {
    let spec = MotionSpec::new(0x5EED, radius_for_expected_degree(20, 5.0), model);
    let g = spec.initial_graph(20);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(7)
        .with_motion(spec)
        .with_channel(ChannelFault::reliable().with_drop(0.02))
        .with_churn(ChurnPlan::new().with_event(5, ChurnAction::NodeLeave(3)));
    let fingerprint = config_fingerprint::<Algorithm1>(&config);
    let mut run = ResumableRun::new(&g, &algo, config.clone()).unwrap();
    for _ in 0..12 {
        if run.tick() != RunStatus::Running {
            break;
        }
    }
    let cp = run.checkpoint();
    assert!(cp.motion.is_some(), "test fixture: motion state must be populated");
    (cp, config, fingerprint)
}

fn assert_motion_equal(a: &RunCheckpoint, b: &RunCheckpoint) {
    // Geometry must survive bit-for-bit, so compare bit patterns: `f64`
    // equality would wave through -0.0 vs 0.0 and choke on NaN.
    let point_bits =
        |ps: &[(f64, f64)]| ps.iter().map(|&(x, y)| (x.to_bits(), y.to_bits())).collect::<Vec<_>>();
    let f64_bits = |hs: &[f64]| hs.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
    match (&a.motion, &b.motion) {
        (None, None) => {}
        (Some(ma), Some(mb)) => {
            assert_eq!(point_bits(&ma.positions), point_bits(&mb.positions));
            assert_eq!(point_bits(&ma.waypoints), point_bits(&mb.waypoints));
            assert_eq!(ma.pauses, mb.pauses);
            assert_eq!(f64_bits(&ma.headings), f64_bits(&mb.headings));
            assert_eq!(ma.rng_state, mb.rng_state);
        }
        (a, b) => panic!("motion presence differs: {:?} vs {:?}", a.is_some(), b.is_some()),
    }
}

fn assert_checkpoints_equal(a: &RunCheckpoint, b: &RunCheckpoint) {
    assert_eq!(a.sim.round(), b.sim.round());
    assert_eq!(a.sim.states(), b.sim.states());
    let rng_states = |cp: &RunCheckpoint| cp.sim.rngs().iter().map(pcg_state).collect::<Vec<_>>();
    assert_eq!(rng_states(a), rng_states(b));
    assert_eq!(a.sim.sent(), b.sim.sent());
    assert_eq!(a.sim.heard(), b.sim.heard());
    assert_eq!(a.sim.graph().len(), b.sim.graph().len());
    assert_eq!(
        a.sim.graph().edges().collect::<Vec<_>>(),
        b.sim.graph().edges().collect::<Vec<_>>()
    );
    assert_eq!(a.sim.active(), b.sim.active());
    assert_eq!(a.sim.channel_state().in_burst, b.sim.channel_state().in_burst);
    assert_eq!(pcg_state(a.sim.channel_rng()), pcg_state(b.sim.channel_rng()));
    assert_eq!(pcg_state(a.sim.byz_rng()), pcg_state(b.sim.byz_rng()));
    assert_eq!(pcg_state(&a.fault_rng), pcg_state(&b.fault_rng));
    assert_eq!(a.applied_through, b.applied_through);
    assert_eq!(a.trace.reports(), b.trace.reports());
    assert_motion_equal(a, b);
}

#[test]
fn round_trip_is_field_exact() {
    let (cp, fp) = busy_checkpoint();
    let decoded = decode(&encode(&cp, fp), fp).expect("round trip");
    assert_checkpoints_equal(&cp, &decoded);
}

#[test]
fn file_round_trip_via_atomic_write() {
    let dir = scratch_dir("roundtrip");
    let path = dir.join("cp.snap");
    let (cp, fp) = busy_checkpoint();
    write_file(&path, &cp, fp).expect("write");
    // The temp sibling must not survive a successful write.
    assert!(!dir.join("cp.snap.tmp").exists());
    let decoded = read_file(&path, fp).expect("read");
    assert_checkpoints_equal(&cp, &decoded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn motion_round_trip_is_field_exact_and_resumable() {
    for model in [
        MotionModel::RandomWaypoint { speed: 0.03, pause: 2 },
        MotionModel::Drift { speed: 0.02, turn: 0.5 },
    ] {
        let (cp, config, fp) = moving_checkpoint(model);
        let decoded = decode(&encode(&cp, fp), fp).expect("round trip");
        assert_checkpoints_equal(&cp, &decoded);
        // The decoded state must actually drive a resume, and the resumed
        // run must match one resumed from the in-memory checkpoint.
        let spec = config.motion.unwrap();
        let g = spec.initial_graph(20);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let mut from_memory = ResumableRun::resume(&algo, config.clone(), &cp).unwrap();
        let mut from_disk = ResumableRun::resume(&algo, config.clone(), &decoded).unwrap();
        for _ in 0..10 {
            from_memory.tick();
            from_disk.tick();
        }
        assert_checkpoints_equal(&from_memory.checkpoint(), &from_disk.checkpoint());
    }
}

#[test]
fn motionless_snapshots_omit_motion_fields() {
    // Static runs must keep writing byte-identical snapshots to earlier
    // builds: the motion fields only appear for moving deployments.
    let (cp, fp) = busy_checkpoint();
    assert!(cp.motion.is_none());
    let text = String::from_utf8(encode(&cp, fp)).unwrap();
    assert!(!text.contains("motion_"), "static snapshot leaked motion fields");
    assert!(decode(&encode(&cp, fp), fp).unwrap().motion.is_none());
}

#[test]
fn missing_file_is_io_error() {
    let err = read_file(&PathBuf::from("/nonexistent/nowhere.snap"), 0).unwrap_err();
    assert!(matches!(err, SnapshotError::Io { .. }), "{err}");
}

#[test]
fn garbage_is_malformed_header() {
    assert!(matches!(decode(b"not json at all\n{}", 0), Err(SnapshotError::MalformedHeader(_))));
    assert!(matches!(decode(b"", 0), Err(SnapshotError::MalformedHeader(_))));
    assert!(matches!(decode(&[0xFF, 0xFE, b'\n'], 0), Err(SnapshotError::MalformedHeader(_))));
}

#[test]
fn wrong_magic_and_version_skew_are_typed() {
    let (cp, fp) = busy_checkpoint();
    let text = String::from_utf8(encode(&cp, fp)).unwrap();

    let wrong_magic = text.replace("beeping-mis-snapshot", "some-other-format!!");
    assert!(matches!(
        decode(wrong_magic.as_bytes(), fp),
        Err(SnapshotError::WrongFormat { found }) if found == "some-other-format!!"
    ));

    let skewed = text.replace("\"version\":1", "\"version\":99");
    assert!(matches!(
        decode(skewed.as_bytes(), fp),
        Err(SnapshotError::UnsupportedVersion { found: 99, supported: 1 })
    ));
}

#[test]
fn truncation_is_detected() {
    let (cp, fp) = busy_checkpoint();
    let bytes = encode(&cp, fp);
    // Cut the payload short at several depths; all must be Truncated (the
    // header itself stays intact).
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    for keep in [header_len, header_len + 1, bytes.len() - 2, bytes.len() - 10] {
        let err = decode(&bytes[..keep], fp).unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }), "keep={keep}: {err}");
    }
}

#[test]
fn payload_bit_flip_is_checksum_mismatch() {
    let (cp, fp) = busy_checkpoint();
    let bytes = encode(&cp, fp);
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    for offset in [0usize, 7, 100] {
        let mut damaged = bytes.clone();
        let idx = header_len + offset;
        damaged[idx] ^= 0x01;
        let err = decode(&damaged, fp).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }), "offset={offset}: {err}");
    }
}

#[test]
fn different_config_is_refused() {
    let (cp, fp) = busy_checkpoint();
    let bytes = encode(&cp, fp);
    let other = config_fingerprint::<Algorithm1>(&ResumableConfig::new(999));
    assert_ne!(fp, other);
    let err = decode(&bytes, other).unwrap_err();
    assert_eq!(err, SnapshotError::ConfigMismatch { expected: other, found: fp });
}

#[test]
fn fingerprint_ignores_budget_and_telemetry_but_not_plans() {
    let base = ResumableConfig::new(5);
    let fp = config_fingerprint::<Algorithm1>(&base);
    // Budget extension must keep the fingerprint (resuming an exhausted
    // run with a larger budget is supported).
    assert_eq!(fp, config_fingerprint::<Algorithm1>(&ResumableConfig::new(5).with_max_rounds(7)),);
    // Any plan difference must change it.
    assert_ne!(fp, config_fingerprint::<Algorithm1>(&ResumableConfig::new(6)));
    assert_ne!(
        fp,
        config_fingerprint::<Algorithm1>(
            &ResumableConfig::new(5).with_faults(FaultPlan::new().with_fault(1, FaultTarget::All))
        ),
    );
    assert_ne!(
        fp,
        config_fingerprint::<Algorithm1>(
            &ResumableConfig::new(5).with_channel(ChannelFault::reliable().with_drop(0.1))
        ),
    );
    // A different algorithm type must change it too.
    assert_ne!(fp, config_fingerprint::<mis::Algorithm2>(&ResumableConfig::new(5)));
    // Attaching a motion spec — or altering any of its parameters — must
    // change it: a moving run's topology history is part of the run.
    let moving = |speed| {
        ResumableConfig::new(5).with_motion(MotionSpec::new(
            0x5EED,
            0.25,
            MotionModel::RandomWaypoint { speed, pause: 1 },
        ))
    };
    assert_ne!(fp, config_fingerprint::<Algorithm1>(&moving(0.02)));
    assert_ne!(
        config_fingerprint::<Algorithm1>(&moving(0.02)),
        config_fingerprint::<Algorithm1>(&moving(0.03)),
    );
}

#[test]
fn inconsistent_payload_is_typed_not_panic() {
    // A snapshot whose vectors disagree decodes fine (the codec does not
    // cross-check) but must be refused by the resume path with a typed
    // error, not a panic.
    let g = random::gnp(10, 0.3, 1);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(1);
    let fp = config_fingerprint::<Algorithm1>(&config);
    let mut run = ResumableRun::new(&g, &algo, config.clone()).unwrap();
    run.tick();
    let cp = run.checkpoint();
    let text = String::from_utf8(encode(&cp, fp)).unwrap();

    // Drop one digit from `active` so it covers 9 nodes instead of 10.
    let damaged = text.replacen("\"active\":\"1", "\"active\":\"", 1);
    assert_ne!(damaged, text, "test fixture: expected an all-active prefix");
    // Re-stamp length and checksum so only the *semantic* damage remains.
    let payload = damaged.lines().nth(1).unwrap();
    let reheadered = format!(
        "{{\"format\":\"beeping-mis-snapshot\",\"version\":1,\
         \"payload_bytes\":{},\"checksum\":\"{:016x}\"}}\n{payload}\n",
        payload.len(),
        harness::snapshot::checksum64(payload.as_bytes()),
    );
    let decoded = decode(reheadered.as_bytes(), fp).expect("shape still decodes");
    let err = ResumableRun::resume(&algo, config, &decoded).unwrap_err();
    assert!(err.to_string().contains("inconsistent"), "{err}");
}

/// The committed version-1 file written from [`busy_checkpoint`]: churned,
/// noisy, with a trace and a pending event cursor.
const BUSY_V1: &[u8] = include_bytes!("fixtures/busy_checkpoint.v1.snap");

fn busy_v1_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/busy_checkpoint.v1.snap")
}

/// A checkpoint of a G(n,p) run with more than 10,000 nodes, so node ids
/// need 5 decimal digits, taken mid-recovery, so levels are negative too.
fn large_checkpoint() -> (RunCheckpoint, u64) {
    let n = 20_000;
    let g = random::gnp(n, 6.0 / (n as f64 - 1.0), 17);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(17)
        .with_faults(FaultPlan::new().with_fault(2, FaultTarget::RandomFraction(0.1)));
    let fingerprint = config_fingerprint::<Algorithm1>(&config);
    let mut run = ResumableRun::new(&g, &algo, config).unwrap();
    for _ in 0..4 {
        run.tick();
    }
    let cp = run.checkpoint();
    assert!(cp.sim.states().iter().any(|&l| l < 0), "test fixture: negative levels expected");
    assert!(cp.sim.graph().edges().any(|(_, v)| v >= 10_000), "test fixture: 5-digit ids");
    (cp, fingerprint)
}

#[test]
fn committed_v1_file_decodes_and_reencodes_byte_for_byte() {
    let (cp, fp) = busy_checkpoint();
    assert_eq!(encode(&cp, fp), BUSY_V1, "encode drifted from the committed v1 bytes");
    let decoded = read_file(&busy_v1_path(), fp).expect("committed v1 file decodes");
    assert_checkpoints_equal(&cp, &decoded);
    assert_eq!(encode(&decoded, fp), BUSY_V1);
}

#[test]
fn encoded_bytes_are_pinned() {
    // FNV-1a of the whole file pins every byte of the format: a moving
    // deployment (motion fields) and a large static graph (5-digit ids,
    // negative levels, tens of thousands of edges).
    let (moving, _, fp) = moving_checkpoint(MotionModel::RandomWaypoint { speed: 0.03, pause: 2 });
    let bytes = encode(&moving, fp);
    assert_eq!((bytes.len(), fnv1a64(&bytes)), (MOVING_PIN.0, MOVING_PIN.1));
    let (large, fp) = large_checkpoint();
    let bytes = encode(&large, fp);
    assert_eq!((bytes.len(), fnv1a64(&bytes)), (LARGE_PIN.0, LARGE_PIN.1));
}

/// `(length, FNV-1a)` of the encoded moving checkpoint (random waypoint).
const MOVING_PIN: (usize, u64) = (3_182, 0x9bcd_e3e8_ddc9_28e6);
/// `(length, FNV-1a)` of the encoded 20,000-node checkpoint.
const LARGE_PIN: (usize, u64) = (1_452_417, 0x70d5_1d41_6c3d_88f5);

#[test]
fn write_file_puts_exactly_the_encoded_bytes_on_disk() {
    let dir = scratch_dir("bytes");
    let path = dir.join("cp.snap");
    for (cp, fp) in [busy_checkpoint(), large_checkpoint()] {
        write_file(&path, &cp, fp).expect("write");
        assert_eq!(std::fs::read(&path).expect("read back"), encode(&cp, fp));
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corruption robustness: flip any single bit anywhere in a snapshot
    /// file. The decoder must never panic, and must either reject the file
    /// with a typed error or (if the flip is immaterial — impossible for
    /// the payload, conceivable only in header whitespace we do not emit)
    /// produce the identical checkpoint.
    #[test]
    fn any_single_bit_flip_is_rejected_or_harmless(
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (cp, fp) = busy_checkpoint();
        let bytes = encode(&cp, fp);
        let idx = ((byte_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut damaged = bytes.clone();
        damaged[idx] ^= 1 << bit;

        match decode(&damaged, fp) {
            Err(_) => {} // any typed rejection is correct
            Ok(decoded) => {
                // The flip must have been semantically invisible; the
                // decoded checkpoint must then be byte-for-byte re-encodable
                // to the original.
                prop_assert_eq!(encode(&decoded, fp), bytes);
            }
        }
    }

    /// Truncation robustness at every possible length.
    #[test]
    fn any_truncation_is_rejected(keep_frac in 0.0f64..1.0) {
        let (cp, fp) = busy_checkpoint();
        let bytes = encode(&cp, fp);
        let keep = ((keep_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        prop_assert!(decode(&bytes[..keep], fp).is_err());
    }
}
