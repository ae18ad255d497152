//! Snapshot file-format integrity: round-trips are exact, and every class
//! of file damage — truncation, bit flips, version skew, wrong magic,
//! configuration mismatch, a missing or foreign topology file, impossible
//! counts, plain garbage — is rejected with the right typed error, never a
//! panic. Version-2 snapshots are checked together with their topology
//! file; the committed version-1 file is read only.

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
    bytes_on_disk, checksum64, config_fingerprint, decode, encode, encode_topology, fnv1a64,
    read_file, topology_path, write_file, SectionCache, SnapshotError,
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

/// The topology file that `checkpoint`'s snapshot names.
fn topology_of(checkpoint: &RunCheckpoint) -> Vec<u8> {
    encode_topology(checkpoint.sim.graph()).1
}

/// Encodes `checkpoint` and decodes it back with its topology file.
fn round_trip(checkpoint: &RunCheckpoint, fp: u64) -> RunCheckpoint {
    decode(&encode(checkpoint, fp), &topology_of(checkpoint), fp).expect("round trip")
}

/// The length of a file's header line, newline included.
fn header_len(bytes: &[u8]) -> usize {
    bytes.iter().position(|&b| b == b'\n').unwrap() + 1
}

/// A version-2 `format` file over `payload`, with a header that matches
/// it: only the payload's *semantic* damage remains.
fn restamped(format: &str, payload: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{{\"format\":\"{format}\",\"version\":2,\"payload_bytes\":{},\"checksum\":\"{:016x}\"}}\n",
        payload.len(),
        checksum64(payload),
    )
    .into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

/// `bytes` with `patch` written at byte `at`.
fn patched(bytes: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + patch.len()].copy_from_slice(patch);
    out
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
    assert_checkpoints_equal(&cp, &round_trip(&cp, fp));
}

#[test]
fn file_round_trip_via_atomic_write() {
    let dir = scratch_dir("roundtrip");
    let path = dir.join("cp.snap");
    let (cp, fp) = busy_checkpoint();
    write_file(&path, &cp, fp).expect("write");
    // The snapshot and its topology file are in place, and no temporary
    // sibling survives a successful write.
    let (digest, topology) = encode_topology(cp.sim.graph());
    let topology_file = topology_path(&path, digest);
    assert_eq!(topology_file, dir.join(format!("topology-{digest:016x}.snap")));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["cp.snap".to_string(), format!("topology-{digest:016x}.snap")]);
    let decoded = read_file(&path, fp).expect("read");
    assert_checkpoints_equal(&cp, &decoded);
    let on_disk = encode(&cp, fp).len() + topology.len();
    assert_eq!(bytes_on_disk(&path), Ok(on_disk as u64), "the snapshot and its topology");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_or_foreign_topology_file_is_typed() {
    let dir = scratch_dir("topology");
    let path = dir.join("cp.snap");
    let (cp, fp) = busy_checkpoint();
    write_file(&path, &cp, fp).expect("write");
    let (digest, _) = encode_topology(cp.sim.graph());
    let topology_file = topology_path(&path, digest);
    // Another graph's topology under the name the snapshot looks for.
    let (other, foreign) = encode_topology(&random::gnp(24, 0.3, 4));
    std::fs::write(&topology_file, &foreign).unwrap();
    let err = read_file(&path, fp).unwrap_err();
    assert_eq!(err, SnapshotError::TopologyMismatch { expected: digest, found: other });
    // A snapshot handed as its own topology file has the wrong magic.
    let snapshot = encode(&cp, fp);
    assert!(matches!(decode(&snapshot, &snapshot, fp), Err(SnapshotError::WrongFormat { .. })));
    std::fs::remove_file(&topology_file).unwrap();
    match read_file(&path, fp) {
        Err(SnapshotError::Io { path, .. }) => assert_eq!(path, topology_file),
        other => panic!("expected an I/O error on the topology file, got {other:?}"),
    }
    assert!(matches!(bytes_on_disk(&path), Err(SnapshotError::Io { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_counts_are_typed_errors() {
    // Counts no payload can hold, restamped so that only the count is
    // wrong: each must be refused before anything is sized for it.
    let (cp, fp) = busy_checkpoint();
    let snapshot = encode(&cp, fp);
    let payload = &snapshot[header_len(&snapshot)..];
    let (_, topology) = encode_topology(cp.sim.graph());
    for n in [25, 1 << 40, u64::MAX] {
        let damaged = restamped("beeping-mis-snapshot", &patched(payload, 16, &n.to_le_bytes()));
        match decode(&damaged, &topology, fp) {
            Err(SnapshotError::MalformedPayload(_)) => {}
            other => panic!("n = {n}: expected MalformedPayload, got {other:?}"),
        }
    }
    // The trace row count sits after the fixed-size part of a static
    // payload with no motion block: 7 u64 per row, then the motion flag.
    let rows = cp.trace.reports().len();
    let trace_at = payload.len() - 1 - 56 * rows - 8;
    assert_eq!(payload[trace_at..trace_at + 8], (rows as u64).to_le_bytes());
    for count in [rows as u64 + 1, 1 << 60, u64::MAX] {
        let damaged =
            restamped("beeping-mis-snapshot", &patched(payload, trace_at, &count.to_le_bytes()));
        assert!(matches!(decode(&damaged, &topology, fp), Err(SnapshotError::MalformedPayload(_))));
    }
    // An edge count past the topology's end, under a snapshot that names
    // the damaged topology's digest.
    let edges = &topology[header_len(&topology)..];
    for m in [cp.sim.graph().num_edges() as u64 + 1, u64::MAX] {
        let damaged_edges = patched(edges, 8, &m.to_le_bytes());
        let digest = checksum64(&damaged_edges);
        let snapshot =
            restamped("beeping-mis-snapshot", &patched(payload, 24, &digest.to_le_bytes()));
        let topology = restamped("beeping-mis-topology", &damaged_edges);
        assert!(matches!(
            decode(&snapshot, &topology, fp),
            Err(SnapshotError::MalformedPayload(_))
        ));
    }
}

#[test]
fn motion_round_trip_is_field_exact_and_resumable() {
    for model in [
        MotionModel::RandomWaypoint { speed: 0.03, pause: 2 },
        MotionModel::Drift { speed: 0.02, turn: 0.5 },
    ] {
        let (cp, config, fp) = moving_checkpoint(model);
        let decoded = round_trip(&cp, fp);
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
    // A static run's motion block is its absent flag alone: the payload
    // ends with one zero byte, and a moving one's with its motion state.
    let (cp, fp) = busy_checkpoint();
    assert!(cp.motion.is_none());
    assert_eq!(encode(&cp, fp).last(), Some(&0), "static snapshot carries a motion block");
    assert!(round_trip(&cp, fp).motion.is_none());
    let (moving, _, fp) = moving_checkpoint(MotionModel::Drift { speed: 0.02, turn: 0.5 });
    let rng = moving.motion.as_ref().unwrap().rng_state.to_le_bytes();
    assert!(encode(&moving, fp).ends_with(&rng));
}

#[test]
fn missing_file_is_io_error() {
    let err = read_file(&PathBuf::from("/nonexistent/nowhere.snap"), 0).unwrap_err();
    assert!(matches!(err, SnapshotError::Io { .. }), "{err}");
}

#[test]
fn garbage_is_malformed_header() {
    let malformed =
        |bytes: &[u8]| matches!(decode(bytes, &[], 0), Err(SnapshotError::MalformedHeader(_)));
    assert!(malformed(b"not json at all\n{}"));
    assert!(malformed(b""));
    assert!(malformed(&[0xFF, 0xFE, b'\n']));
}

#[test]
fn wrong_magic_and_version_skew_are_typed() {
    let (cp, fp) = busy_checkpoint();
    let bytes = encode(&cp, fp);
    let topology = topology_of(&cp);
    let (header, payload) = bytes.split_at(header_len(&bytes));
    let header = std::str::from_utf8(header).unwrap();
    let with_header = |header: String| [header.as_bytes(), payload].concat();

    let wrong_magic = with_header(header.replace("beeping-mis-snapshot", "some-other-format!!"));
    assert!(matches!(
        decode(&wrong_magic, &topology, fp),
        Err(SnapshotError::WrongFormat { found }) if found == "some-other-format!!"
    ));

    let skewed = with_header(header.replace("\"version\":2", "\"version\":99"));
    assert!(matches!(
        decode(&skewed, &topology, fp),
        Err(SnapshotError::UnsupportedVersion { found: 99, supported: 2 })
    ));
    // Topology files exist from version 2 on.
    let (topology_header, edges) = topology.split_at(header_len(&topology));
    let old =
        std::str::from_utf8(topology_header).unwrap().replace("\"version\":2", "\"version\":1");
    assert!(matches!(
        decode(&bytes, &[old.as_bytes(), edges].concat(), fp),
        Err(SnapshotError::UnsupportedVersion { found: 1, supported: 2 })
    ));
}

#[test]
fn truncation_is_detected() {
    let (cp, fp) = busy_checkpoint();
    let (bytes, topology) = (encode(&cp, fp), topology_of(&cp));
    // Cut either payload short at several depths; all must be Truncated
    // (the header itself stays intact).
    for file in [&bytes, &topology] {
        let header_len = header_len(file);
        for keep in [header_len, header_len + 1, file.len() - 1, file.len() - 10] {
            let (snapshot, topology) = if file == &bytes {
                (&bytes[..keep], &topology[..])
            } else {
                (&bytes[..], &topology[..keep])
            };
            let err = decode(snapshot, topology, fp).unwrap_err();
            assert!(matches!(err, SnapshotError::Truncated { .. }), "keep={keep}: {err}");
        }
    }
}

#[test]
fn payload_bit_flip_is_checksum_mismatch() {
    let (cp, fp) = busy_checkpoint();
    let (bytes, topology) = (encode(&cp, fp), topology_of(&cp));
    for offset in [0usize, 7, 100] {
        let mut damaged = bytes.clone();
        damaged[header_len(&bytes) + offset] ^= 0x01;
        let err = decode(&damaged, &topology, fp).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }), "offset={offset}: {err}");
        let mut damaged = topology.clone();
        damaged[header_len(&topology) + offset] ^= 0x01;
        let err = decode(&bytes, &damaged, fp).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }), "offset={offset}: {err}");
    }
}

#[test]
fn different_config_is_refused() {
    let (cp, fp) = busy_checkpoint();
    let bytes = encode(&cp, fp);
    let other = config_fingerprint::<Algorithm1>(&ResumableConfig::new(999));
    assert_ne!(fp, other);
    let err = decode(&bytes, &topology_of(&cp), other).unwrap_err();
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
    // A snapshot whose parts disagree decodes fine (the codec does not
    // cross-check) but must be refused by the resume path with a typed
    // error, not a panic.
    let g = random::gnp(10, 0.3, 1);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(1);
    let fp = config_fingerprint::<Algorithm1>(&config);
    let mut run = ResumableRun::new(&g, &algo, config.clone()).unwrap();
    run.tick();
    let cp = run.checkpoint();
    let bytes = encode(&cp, fp);
    let payload = &bytes[header_len(&bytes)..];

    // Version 2: a channel-1 beep of a node past the last one, the top bit
    // of the only `sent` word (after four u64, ten levels and ten RNGs).
    let word = 32 + 10 * (4 + 16);
    let mut damaged = payload.to_vec();
    damaged[word + 7] |= 0x80;
    let decoded = decode(&restamped("beeping-mis-snapshot", &damaged), &topology_of(&cp), fp)
        .expect("shape still decodes");
    let err = ResumableRun::resume(&algo, config, &decoded).unwrap_err();
    assert!(err.to_string().contains("inconsistent"), "{err}");

    // Version 1: drop one digit from `active` so it covers 23 nodes
    // instead of 24.
    let (busy, fp) = busy_checkpoint();
    let text = std::str::from_utf8(BUSY_V1).unwrap();
    let damaged = text.replacen("\"active\":\"1", "\"active\":\"", 1);
    assert_ne!(damaged, text, "test fixture: expected an all-active prefix");
    let decoded = decode(restamped_v1(&damaged).as_bytes(), &[], fp).expect("shape still decodes");
    let g = random::gnp(24, 0.15, 3);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(3);
    let err = ResumableRun::resume(&algo, config, &decoded).unwrap_err();
    assert!(err.to_string().contains("inconsistent"), "{err}");
    assert_eq!(busy.sim.graph(), decoded.sim.graph());
}

/// Re-stamps the header's length and checksum over the payload line of the
/// version-1 `text`, so only the payload's *semantic* damage remains.
fn restamped_v1(text: &str) -> String {
    let payload = text.lines().nth(1).unwrap();
    format!(
        "{{\"format\":\"beeping-mis-snapshot\",\"version\":1,\
         \"payload_bytes\":{},\"checksum\":\"{:016x}\"}}\n{payload}\n",
        payload.len(),
        checksum64(payload.as_bytes()),
    )
}

/// The byte offset of the first value of `field` in `checkpoint`'s
/// version-2 payload. The motion block ends the payload: positions,
/// waypoints, pauses and headings, each a count and its values, then the
/// motion RNG state.
fn motion_offset(checkpoint: &RunCheckpoint, payload_len: usize, field: &str) -> usize {
    let m = checkpoint.motion.as_ref().unwrap();
    let headings = payload_len - 16 - 8 * m.headings.len();
    let waypoints = headings - 8 - 8 * m.pauses.len() - 8 - 16 * m.waypoints.len();
    let positions = waypoints - 8 - 16 * m.positions.len();
    match field {
        "motion_positions" => positions,
        "motion_waypoints" => waypoints,
        "motion_headings" => headings,
        _ => unreachable!("no such motion field: {field}"),
    }
}

#[test]
fn out_of_square_motion_state_is_refused_on_resume() {
    // A well-formed snapshot whose motion state no `Motion::new` would
    // accept (a position or waypoint off the unit square, a NaN
    // coordinate or heading) must not resume silently.
    let rwp = MotionModel::RandomWaypoint { speed: 0.03, pause: 2 };
    let drift = MotionModel::Drift { speed: 0.02, turn: 0.5 };
    for (model, field, bad, why) in [
        (rwp, "motion_positions", 2.0, "outside the unit square"),
        (rwp, "motion_positions", f64::NAN, "outside the unit square"),
        (rwp, "motion_waypoints", -0.5, "outside the unit square"),
        (drift, "motion_positions", 1.5, "outside the unit square"),
        (drift, "motion_headings", f64::NAN, "not finite"),
        (drift, "motion_headings", f64::INFINITY, "not finite"),
    ] {
        let (cp, config, fp) = moving_checkpoint(model);
        let bytes = encode(&cp, fp);
        let payload = &bytes[header_len(&bytes)..];
        // Overwrite the field's first value (the bits of one `f64`).
        let at = motion_offset(&cp, payload.len(), field);
        let damaged = patched(payload, at, &bad.to_bits().to_le_bytes());
        let decoded = decode(&restamped("beeping-mis-snapshot", &damaged), &topology_of(&cp), fp)
            .expect("shape still decodes");
        let g = config.motion.unwrap().initial_graph(20);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        match ResumableRun::resume(&algo, config, &decoded) {
            Err(err) => assert!(err.to_string().contains(why), "{field} = {bad}: {err}"),
            Ok(_) => panic!("{field} = {bad} resumed"),
        }
    }
}

/// The committed version-1 file written from [`busy_checkpoint`]: churned,
/// noisy, with a trace and a pending event cursor.
const BUSY_V1: &[u8] = include_bytes!("fixtures/busy_checkpoint.v1.snap");

fn busy_v1_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/busy_checkpoint.v1.snap")
}

/// A checkpoint of a G(n,p) run with more than 10,000 nodes, taken
/// mid-recovery, so levels are negative too.
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
    (cp, fingerprint)
}

#[test]
fn committed_v1_file_decodes_and_round_trips_through_v2() {
    let (cp, fp) = busy_checkpoint();
    let decoded = read_file(&busy_v1_path(), fp).expect("committed v1 file decodes");
    assert_checkpoints_equal(&cp, &decoded);
    assert_eq!(decode(BUSY_V1, &[], fp).map(|d| d.sim.round()), Ok(cp.sim.round()));
    // What the v1 file held is written as version 2 like a live capture.
    assert_eq!(encode(&decoded, fp), encode(&cp, fp));
    assert_checkpoints_equal(&cp, &round_trip(&decoded, fp));
}

#[test]
fn committed_crash_smoke_snapshots_agree_across_versions() {
    // The round-24 snapshot of CI's crash smoke, committed as version 1
    // (graph inline) and as version 2 (with its topology file).
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let v1 = fixtures.join("crash-smoke-gnp256-seed11-r24.snap");
    let v2 = fixtures.join("crash-smoke-gnp256-seed11-r24/checkpoint.snap");
    // Read the smoke configuration's fingerprint off a refusal.
    let fp = match read_file(&v2, 0) {
        Err(SnapshotError::ConfigMismatch { found, .. }) => found,
        other => panic!("expected a fingerprint refusal, got {other:?}"),
    };
    let old = read_file(&v1, fp).expect("version 1 decodes");
    let new = read_file(&v2, fp).expect("version 2 decodes");
    assert_eq!(old.sim.round(), 24);
    assert_checkpoints_equal(&old, &new);
    assert_eq!(encode(&old, fp), std::fs::read(&v2).unwrap());
}

#[test]
fn encoded_bytes_are_pinned() {
    // FNV-1a of the whole files pins every byte of the format: a moving
    // deployment (motion block) and a large static graph (negative levels,
    // tens of thousands of edges), each snapshot with its topology file.
    let (moving, _, fp) = moving_checkpoint(MotionModel::RandomWaypoint { speed: 0.03, pause: 2 });
    let pins = |cp: &RunCheckpoint, fp: u64| {
        let (snapshot, topology) = (encode(cp, fp), topology_of(cp));
        [(snapshot.len(), fnv1a64(&snapshot)), (topology.len(), fnv1a64(&topology))]
    };
    assert_eq!(pins(&moving, fp), MOVING_PIN);
    let (large, fp) = large_checkpoint();
    assert_eq!(pins(&large, fp), LARGE_PIN);
}

/// `(length, FNV-1a)` of the encoded moving checkpoint (random waypoint)
/// and of its topology file.
const MOVING_PIN: [(usize, u64); 2] =
    [(2_156, 0x8229_6834_ca86_3717), (576, 0x05b7_096a_7674_1d40)];
/// `(length, FNV-1a)` of the encoded 20,000-node checkpoint and of its
/// topology file.
const LARGE_PIN: [(usize, u64); 2] =
    [(412_942, 0x3c6f_0a43_e793_5286), (479_619, 0x7f79_0187_beb8_7175)];

#[test]
fn write_file_puts_exactly_the_encoded_bytes_on_disk() {
    let dir = scratch_dir("bytes");
    let path = dir.join("cp.snap");
    for (cp, fp) in [busy_checkpoint(), large_checkpoint()] {
        write_file(&path, &cp, fp).expect("write");
        assert_eq!(std::fs::read(&path).expect("read back"), encode(&cp, fp));
        let (digest, topology) = encode_topology(cp.sim.graph());
        assert_eq!(std::fs::read(topology_path(&path, digest)).expect("read back"), topology);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `topology-*.snap` files in `dir`.
fn topology_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.file_name().unwrap().to_str().unwrap().starts_with("topology-"))
        .collect();
    files.sort();
    files
}

/// Ticks `run` for up to `rounds` rounds and encodes the checkpoint of
/// every round with one [`SectionCache`], every third one through
/// [`SectionCache::write_file`]. Each result must equal a fresh [`encode`]
/// of the same checkpoint, each write must leave exactly the topology file
/// its snapshot names, and the files must read back as the checkpoint.
/// Returns how many times the topology changed between consecutive
/// checkpoints.
fn encode_through_one_cache(mut run: ResumableRun<Algorithm1>, rounds: u64, fp: u64) -> usize {
    let dir = scratch_dir("cache");
    let path = dir.join("cp.snap");
    let mut cache = SectionCache::new();
    let mut previous: Option<RunCheckpoint> = None;
    let mut changes = 0;
    for r in 0..rounds {
        let cp = run.checkpoint();
        let fresh = encode(&cp, fp);
        if r % 3 == 0 {
            cache.write_file(&path, &cp, fp).expect("write");
            let on_disk = std::fs::read(&path).expect("read back");
            assert!(on_disk == fresh, "cached write differs at round {r}");
            let (digest, _) = encode_topology(cp.sim.graph());
            assert_eq!(topology_files(&dir), [topology_path(&path, digest)], "round {r}");
            assert_checkpoints_equal(&cp, &read_file(&path, fp).expect("read back"));
        } else {
            assert!(cache.encode(&cp, fp) == fresh, "cached encode differs at round {r}");
        }
        if previous.is_some_and(|p| p.sim.graph() != cp.sim.graph()) {
            changes += 1;
        }
        previous = Some(cp);
        if run.tick() != RunStatus::Running {
            break;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    changes
}

#[test]
fn section_cache_follows_churn() {
    let g = random::gnp(24, 0.15, 3);
    let n = g.len();
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let missing: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| !g.has_edge(u, v))
        .collect();
    // Round 6 swaps one edge for another, so the edge count of rounds 5
    // and 6 is the same while the edge set is not.
    let churn = ChurnPlan::new()
        .with_event(2, ChurnAction::AddEdge(missing[0].0, missing[0].1))
        .with_event(4, ChurnAction::RemoveEdge(edges[0].0, edges[0].1))
        .with_event(6, ChurnAction::AddEdge(missing[1].0, missing[1].1))
        .with_event(6, ChurnAction::RemoveEdge(edges[1].0, edges[1].1))
        .with_event(8, ChurnAction::NodeLeave(edges[2].1));
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(3).with_churn(churn);
    let fp = config_fingerprint::<Algorithm1>(&config);
    let run = ResumableRun::new(&g, &algo, config.clone()).unwrap();
    let first = run.checkpoint();
    assert_eq!(encode_through_one_cache(run, 14, fp), 4, "every churn round changed the graph");
    // The first checkpoint kept the topology it was captured with, and
    // resuming from it brings that topology back.
    assert_eq!(first.sim.graph(), &g);
    let resumed = ResumableRun::resume(&algo, config, &first).unwrap();
    assert_eq!(resumed.graph(), &g);
}

#[test]
fn section_cache_follows_a_moving_deployment() {
    let model = MotionModel::RandomWaypoint { speed: 0.05, pause: 1 };
    let spec = MotionSpec::new(0x5EED, radius_for_expected_degree(20, 5.0), model);
    let g = spec.initial_graph(20);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = ResumableConfig::new(7)
        .with_motion(spec)
        .with_churn(ChurnPlan::new().with_event(5, ChurnAction::NodeLeave(3)));
    let fp = config_fingerprint::<Algorithm1>(&config);
    let run = ResumableRun::new(&g, &algo, config).unwrap();
    let changes = encode_through_one_cache(run, 30, fp);
    assert!(changes >= 5, "the deployment barely moved: {changes} topology changes");
}

/// Decodes a possibly damaged pair, which must be refused with a typed
/// error or decode to the very checkpoint the undamaged pair holds.
fn rejected_or_identical(
    snapshot: &[u8],
    topology: &[u8],
    original: &RunCheckpoint,
    fp: u64,
) -> Result<(), TestCaseError> {
    if let Ok(decoded) = decode(snapshot, topology, fp) {
        prop_assert_eq!(encode(&decoded, fp), encode(original, fp));
        prop_assert_eq!(topology_of(&decoded), topology_of(original));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corruption robustness: flip any single bit anywhere in the snapshot
    /// or in its topology file. The decoder must never panic, and must
    /// either reject the pair with a typed error or (if the flip is
    /// immaterial — impossible for the payloads, conceivable only in header
    /// whitespace we do not emit) produce the identical checkpoint.
    #[test]
    fn any_single_bit_flip_is_rejected_or_harmless(
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
        in_topology in any::<bool>(),
    ) {
        let (cp, fp) = busy_checkpoint();
        let (mut snapshot, mut topology) = (encode(&cp, fp), topology_of(&cp));
        let file = if in_topology { &mut topology } else { &mut snapshot };
        let idx = ((byte_frac * file.len() as f64) as usize).min(file.len() - 1);
        file[idx] ^= 1 << bit;
        rejected_or_identical(&snapshot, &topology, &cp, fp)?;
    }

    /// Truncation robustness at every possible length, of either file.
    #[test]
    fn any_truncation_is_rejected(keep_frac in 0.0f64..1.0, in_topology in any::<bool>()) {
        let (cp, fp) = busy_checkpoint();
        let (snapshot, topology) = (encode(&cp, fp), topology_of(&cp));
        let file = if in_topology { &topology } else { &snapshot };
        let keep = ((keep_frac * file.len() as f64) as usize).min(file.len() - 1);
        let decoded = if in_topology {
            decode(&snapshot, &topology[..keep], fp)
        } else {
            decode(&snapshot[..keep], &topology, fp)
        };
        prop_assert!(decoded.is_err());
    }
}
