//! Durable, versioned, checksummed snapshot files for
//! [`mis::resumable::RunCheckpoint`].
//!
//! # File format (version 2)
//!
//! A snapshot is a pair of files in one directory: the snapshot itself
//! (`checkpoint.snap` under the supervisor) and the topology file it names,
//! `topology-<digest>.snap` ([`topology_path`]). Each is one JSON header
//! line followed by a binary payload:
//!
//! ```text
//! {"format":"beeping-mis-snapshot","version":2,"payload_bytes":N,"checksum":"<hex>"}
//! <N payload bytes>
//! ```
//!
//! `payload_bytes` is the exact length of the payload (detecting
//! truncation) and `checksum` is [`checksum64`] — a word-wise FNV-1a
//! variant — over it (detecting corruption). A topology file's header
//! names the format `beeping-mis-topology`.
//!
//! The snapshot payload is little-endian and fixed-width:
//!
//! - the configuration fingerprint, the round, the node count n and the
//!   topology digest, one `u64` each;
//! - the n levels (`i32`) and the n node RNG states (`u128`);
//! - the four signal bitsets (sent channel 1, sent channel 2, heard
//!   channel 1, heard channel 2) and the participation bitset, ⌈n/64⌉
//!   `u64` words each;
//! - the channel's burst flag (one byte), then the channel, Byzantine and
//!   fault RNG states (`u128`);
//! - the event cursor `applied_through`: a presence byte and a `u64`;
//! - the trace: a row count, then seven `u64` per row;
//! - the motion block: a presence byte, then for a moving deployment the
//!   positions, waypoints, pauses and headings (each a count followed by
//!   its values: `f64` bit patterns, `u64` pauses) and the motion RNG
//!   state. Every `f64` travels as its exact bit pattern, so geometry
//!   survives the round trip bit for bit.
//!
//! The topology payload is n and the edge count m (`u64`), then the m
//! edges as `u32` pairs `(u, w)` with `u < w`, in [`Graph::edges`] order.
//! The digest is [`checksum64`] of that payload, so equal digests name
//! equal edge sets, and a run whose graph never changes writes its
//! topology once: at n = 2^16 with about 262k edges, each later snapshot
//! is 1.4 MB of per-node state while the 2.1 MB edge list stays on disk.
//! A [`SectionCache`] writes a topology file (temporary file, then rename)
//! before the first snapshot that names it, and removes the previous one
//! once a snapshot naming a new digest is in place (churn, motion). A
//! topology file that a cache did not write itself, such as one of an
//! earlier run in the same directory, is reused if it is the one needed
//! and left alone otherwise.
//!
//! The payloads capture *everything mutable* about a run — node states,
//! every RNG stream position (per-node, channel, Byzantine, fault), the
//! round counter, last-round signals, the (possibly churned or moved)
//! topology, the participation bitmap, the channel burst window, the
//! event-application cursor, the accumulated trace and, for a moving
//! deployment ([`mis::resumable::ResumableConfig::with_motion`]), the
//! motion state — so a resumed run is bit-identical to one that never
//! stopped.
//!
//! Run *configuration* (plans, channel model, engine, algorithm) is
//! deliberately not stored; the caller re-supplies it on resume, and the
//! payload's fingerprint ([`config_fingerprint`]) rejects a resume under a
//! different configuration with [`SnapshotError::ConfigMismatch`].
//!
//! # Version 1 is read only
//!
//! A version-1 snapshot is one file of two JSON lines, its graph inline as
//! a flat `graph_edges` array, its RNG states and `f64` bit patterns as
//! fixed-width hex strings (the JSON layer, [`telemetry::jsonl`], parses
//! numbers as `f64`). [`decode`] and [`read_file`] still read it, with the
//! graph it carries; this build writes version 2 only.
//!
//! The load path ([`decode`], [`read_file`]) never panics: every defect —
//! a missing snapshot or topology file, garbage bytes, truncation, bit
//! flips, version skew, a topology file of another graph, a count the
//! payload cannot hold, internally inconsistent vectors — surfaces as a
//! typed [`SnapshotError`]. No count read from a file sizes an allocation
//! before it is checked against the bytes actually there.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use beeping::dynamic::MotionState;
use beeping::rng::{pcg_from_state, pcg_state};
use beeping::trace::{RoundReport, Trace};
use beeping::{ChannelState, Checkpoint};
use graphs::Graph;
use mis::levels::Level;
use mis::resumable::{ResumableConfig, RunCheckpoint};
use mis::runner::SelfStabilizingMis;
use rand_pcg::Pcg64Mcg;
use telemetry::jsonl::{parse, Value};
use telemetry::Stopwatch;

/// The magic format string in every snapshot header.
pub const FORMAT: &str = "beeping-mis-snapshot";

/// The magic format string in every topology file header.
const TOPOLOGY_FORMAT: &str = "beeping-mis-topology";

/// The file format version this build writes. Snapshots of version 1 are
/// read too.
pub const VERSION: u64 = 2;

/// Why a snapshot could not be written or read back. The decode path
/// distinguishes *where* a file went wrong so supervisors and tests can
/// react precisely (e.g. discard a corrupt snapshot but surface an I/O
/// error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The OS error rendered as text.
        message: String,
    },
    /// The bytes before the first newline are not a valid header object.
    MalformedHeader(String),
    /// The header parses but announces a different format magic.
    WrongFormat {
        /// The `format` value found in the header.
        found: String,
    },
    /// The header announces a format version this build does not read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u64,
        /// The version this build writes.
        supported: u64,
    },
    /// The payload is shorter or longer than the header promised — the
    /// classic signature of a crash mid-write or a truncated copy.
    Truncated {
        /// Byte length promised by the header.
        expected_bytes: usize,
        /// Byte length actually present.
        found_bytes: usize,
    },
    /// The payload bytes do not hash to the header's checksum: the file
    /// was corrupted after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The payload passed the checksum but is not the shape its version
    /// writes (only reachable for a file *assembled* by something other
    /// than this codec, since the checksum pins the exact bytes): a count
    /// the payload cannot hold, bytes left over, a malformed field.
    MalformedPayload(String),
    /// The topology file a version-2 snapshot names holds another graph:
    /// its payload does not hash to the snapshot's digest.
    TopologyMismatch {
        /// The digest the snapshot names.
        expected: u64,
        /// The digest of the topology file found.
        found: u64,
    },
    /// The snapshot was captured under a different run configuration
    /// (different seed, plans, channel model, engine or algorithm);
    /// resuming it would silently diverge, so it is refused.
    ConfigMismatch {
        /// Fingerprint of the configuration the caller supplied.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, message } => {
                write!(f, "snapshot I/O error on {}: {message}", path.display())
            }
            SnapshotError::MalformedHeader(detail) => {
                write!(f, "malformed snapshot header: {detail}")
            }
            SnapshotError::WrongFormat { found } => {
                write!(f, "not a {FORMAT} file (format says {found:?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(f, "snapshot version {found} not supported (this build writes {supported})")
            }
            SnapshotError::Truncated { expected_bytes, found_bytes } => write!(
                f,
                "snapshot truncated: header promises {expected_bytes} payload bytes, \
                 found {found_bytes}"
            ),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot corrupted: checksum {actual:016x} does not match header {expected:016x}"
            ),
            SnapshotError::MalformedPayload(detail) => {
                write!(f, "malformed snapshot payload: {detail}")
            }
            SnapshotError::TopologyMismatch { expected, found } => write!(
                f,
                "snapshot names topology {expected:016x}, but the topology file holds {found:016x}"
            ),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot belongs to a different run configuration: \
                 fingerprint {found:016x}, expected {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over `bytes`; the fingerprint and digest hash. Chosen
/// because it is tiny, dependency-free and fully deterministic across
/// platforms — this guards against *accidental* corruption, not attackers.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Payload-integrity hash: the FNV-1a update rule fed 8 little-endian
/// bytes at a time, with a final zero-padded tail word and a length step.
/// Every step is invertible (xor, then multiply by an odd constant), so
/// corrupting any single word — a fortiori any single bit — always changes
/// the result. Byte-serial [`fnv1a64`] has the same guarantee but costs
/// more than encoding the payload does at megabyte snapshot sizes; this
/// variant keeps checkpointing cheap enough to leave on for long runs.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(le(word));
        hash = hash.wrapping_mul(PRIME);
    }
    let mut tail = [0u8; 8];
    for (slot, &b) in tail.iter_mut().zip(words.remainder()) {
        *slot = b;
    }
    hash ^= u64::from_le_bytes(tail);
    hash = hash.wrapping_mul(PRIME);
    hash ^= bytes.len() as u64;
    hash.wrapping_mul(PRIME)
}

/// Hashes the *resume-relevant* part of a run configuration, plus the
/// algorithm type, into the fingerprint stored in every snapshot.
///
/// Covered: seed, initial-level rule, fault plan, churn plan, channel
/// model, Byzantine plan, motion spec and engine mode, plus the
/// algorithm's type name.
/// Deliberately *not* covered: `max_rounds` (extending the budget of a
/// `BudgetExhausted` run and resuming is a supported use) and the
/// telemetry handle (observational only). The hash is over the plans'
/// `Debug` rendering, which is a pure function of their fields; a
/// `Resurrect` Byzantine closure renders opaquely, so two configs
/// differing only in closure *behavior* fingerprint alike.
pub fn config_fingerprint<A: SelfStabilizingMis>(config: &ResumableConfig) -> u64 {
    let canonical = format!(
        "algo={};seed={};init={:?};faults={:?};churn={:?};channel={:?};byzantine={:?};\
         engine={:?};motion={:?}",
        std::any::type_name::<A>(),
        config.seed,
        config.init,
        config.faults,
        config.churn,
        config.channel,
        config.byzantine,
        config.engine,
        config.motion,
    );
    fnv1a64(canonical.as_bytes())
}

fn parse_hex_u64(s: &str, what: &str) -> Result<u64, SnapshotError> {
    if s.len() != 16 {
        return Err(SnapshotError::MalformedPayload(format!("{what}: expected 16 hex digits")));
    }
    u64::from_str_radix(s, 16)
        .map_err(|_| SnapshotError::MalformedPayload(format!("{what}: invalid hex")))
}

fn parse_hex_u128(s: &str, what: &str) -> Result<u128, SnapshotError> {
    if s.len() != 32 {
        return Err(SnapshotError::MalformedPayload(format!("{what}: expected 32 hex digits")));
    }
    u128::from_str_radix(s, 16)
        .map_err(|_| SnapshotError::MalformedPayload(format!("{what}: invalid hex")))
}

/// Parses a concatenation of fixed-width 16-digit hex `f64` bit patterns.
fn parse_f64_list(s: &str, what: &str) -> Result<Vec<f64>, SnapshotError> {
    if !s.len().is_multiple_of(16) {
        return Err(bad(&format!("`{what}` must be a concatenation of 16-digit hex f64 bits")));
    }
    s.as_bytes()
        .chunks_exact(16)
        .map(|chunk| {
            let t = std::str::from_utf8(chunk)
                .map_err(|_| bad(&format!("`{what}` must be ASCII hex digits")))?;
            Ok(f64::from_bits(parse_hex_u64(t, what)?))
        })
        .collect()
}

/// Parses an `(x, y)` point list from the flat hex `f64` encoding.
fn parse_point_list(s: &str, what: &str) -> Result<Vec<(f64, f64)>, SnapshotError> {
    let flat = parse_f64_list(s, what)?;
    if flat.len() % 2 != 0 {
        return Err(bad(&format!("`{what}` must hold an even number of coordinates")));
    }
    let xs = flat.iter().copied().step_by(2);
    let ys = flat.iter().copied().skip(1).step_by(2);
    Ok(xs.zip(ys).collect())
}

/// `bytes` as an `N`-byte array, or zeros if it has another length. The
/// callers pass `N`-byte chunks.
fn le<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes.try_into().unwrap_or([0; N])
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The path of the topology file with `digest` in the directory of the
/// snapshot at `snapshot`.
pub fn topology_path(snapshot: &Path, digest: u64) -> PathBuf {
    snapshot.with_file_name(format!("topology-{digest:016x}.snap"))
}

/// The header line of a `format` file whose payload has `len` bytes and
/// `checksum`, newline included.
fn header_line(format: &str, len: usize, checksum: u64) -> Vec<u8> {
    format!(
        "{{\"format\":\"{format}\",\"version\":{VERSION},\"payload_bytes\":{len},\
         \"checksum\":\"{checksum:016x}\"}}\n"
    )
    .into_bytes()
}

/// `header` followed by `payload`, in a buffer of exactly their length.
fn concat(header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(header.len() + payload.len());
    bytes.extend_from_slice(header);
    bytes.extend_from_slice(payload);
    bytes
}

/// The topology file of `graph` and its digest: n, the edge count and each
/// edge `(u, w)`, `u < w`, read off the sorted adjacency lists.
pub fn encode_topology(graph: &Graph) -> (u64, Vec<u8>) {
    let mut payload = Vec::with_capacity(16 + 8 * graph.num_edges());
    put_u64(&mut payload, graph.len() as u64);
    put_u64(&mut payload, graph.num_edges() as u64);
    for (u, v) in (0u32..).zip(graph.nodes()) {
        let neighbors = graph.neighbors(v);
        let later = neighbors.get(neighbors.partition_point(|&w| w <= u)..).unwrap_or_default();
        for &w in later {
            payload.extend_from_slice(&u.to_le_bytes());
            payload.extend_from_slice(&w.to_le_bytes());
        }
    }
    let digest = checksum64(&payload);
    (digest, concat(&header_line(TOPOLOGY_FORMAT, payload.len(), digest), &payload))
}

/// The exact byte length of `checkpoint`'s snapshot payload; see the
/// module docs for the layout.
fn payload_len(checkpoint: &RunCheckpoint) -> usize {
    let n = checkpoint.sim.states().len();
    let motion = checkpoint.motion.as_ref().map_or(0, |m| {
        4 * 8
            + 16 * (m.positions.len() + m.waypoints.len())
            + 8 * (m.pauses.len() + m.headings.len())
            + 16
    });
    4 * 8
        + n * (4 + 16)
        + 5 * 8 * n.div_ceil(64)
        + 1
        + 3 * 16
        + 1
        + 8
        + 8
        + 7 * 8 * checkpoint.trace.reports().len()
        + 1
        + motion
}

/// The snapshot payload of `checkpoint`, stamped with `fingerprint` and
/// naming the topology `digest`, in a buffer of exactly its length.
fn encode_payload(checkpoint: &RunCheckpoint, fingerprint: u64, digest: u64) -> Vec<u8> {
    let sim = &checkpoint.sim;
    let n = sim.states().len();
    let mut out = Vec::with_capacity(payload_len(checkpoint));
    for v in [fingerprint, sim.round(), n as u64, digest] {
        put_u64(&mut out, v);
    }
    for &level in sim.states() {
        out.extend_from_slice(&level.to_le_bytes());
    }
    for rng in sim.rngs() {
        put_u128(&mut out, pcg_state(rng));
    }
    let active: Vec<u64> = sim
        .active()
        .chunks(64)
        .map(|chunk| chunk.iter().rev().fold(0, |word, &a| word << 1 | u64::from(a)))
        .collect();
    let ([sent1, sent2], [heard1, heard2]) = (sim.sent().words(), sim.heard().words());
    for bits in [sent1, sent2, heard1, heard2, &active] {
        for k in 0..n.div_ceil(64) {
            put_u64(&mut out, bits.get(k).copied().unwrap_or(0));
        }
    }
    out.push(u8::from(sim.channel_state().in_burst));
    for rng in [sim.channel_rng(), sim.byz_rng(), &checkpoint.fault_rng] {
        put_u128(&mut out, pcg_state(rng));
    }
    out.push(u8::from(checkpoint.applied_through.is_some()));
    put_u64(&mut out, checkpoint.applied_through.unwrap_or(0));
    let reports = checkpoint.trace.reports();
    put_u64(&mut out, reports.len() as u64);
    for r in reports {
        put_u64(&mut out, r.round);
        for count in [
            r.beeps_channel1,
            r.beeps_channel2,
            r.hearers_channel1,
            r.hearers_channel2,
            r.lone_beepers,
            r.lone_beepers_channel2,
        ] {
            put_u64(&mut out, count as u64);
        }
    }
    match &checkpoint.motion {
        None => out.push(0),
        Some(motion) => {
            out.push(1);
            for points in [&motion.positions, &motion.waypoints] {
                put_u64(&mut out, points.len() as u64);
                for &(x, y) in points {
                    put_u64(&mut out, x.to_bits());
                    put_u64(&mut out, y.to_bits());
                }
            }
            put_u64(&mut out, motion.pauses.len() as u64);
            for &pause in &motion.pauses {
                put_u64(&mut out, pause);
            }
            put_u64(&mut out, motion.headings.len() as u64);
            for &heading in &motion.headings {
                put_u64(&mut out, heading.to_bits());
            }
            put_u128(&mut out, motion.rng_state);
        }
    }
    out
}

/// Serializes `checkpoint` (stamped with `fingerprint`) into a version-2
/// snapshot: exactly the bytes [`write_file`] puts in the snapshot file.
/// The topology file it names is [`encode_topology`] of the checkpoint's
/// graph; the two round-trip through [`decode`].
pub fn encode(checkpoint: &RunCheckpoint, fingerprint: u64) -> Vec<u8> {
    SectionCache::new().encode(checkpoint, fingerprint)
}

/// What a run's snapshots share: the graph of the last checkpoint encoded
/// with its digest, and the digest that the last snapshot written through
/// the cache names. One cache serves one snapshot path.
///
/// Digesting a graph renders its edge list, about half a static run's
/// snapshot bytes. The cache keys the digest on the identity of the
/// checkpoint's shared graph ([`Checkpoint::shared_graph`]): the simulator
/// copies a shared graph before it mutates it, and the cache keeps its own
/// `Arc` alive, so while the cache holds a graph no other topology can
/// have its address. A churned or moving run gets a new graph at its first
/// mutation after a capture, and its next encode digests that one. The
/// rendered bytes are dropped once the topology file is on disk.
#[derive(Debug, Default)]
pub struct SectionCache {
    graph: Option<(Arc<Graph>, u64)>,
    named: Option<u64>,
}

/// How long [`SectionCache::write_file`] spent in each of its two phases.
#[derive(Debug, Clone, Copy)]
pub struct WriteTimes {
    /// Rendering the snapshot (and a new topology) and its checksum, in
    /// nanoseconds.
    pub encode_ns: u64,
    /// Writing the temporary files and renaming them into place, in
    /// nanoseconds.
    pub write_ns: u64,
}

impl SectionCache {
    /// An empty cache: its first encode digests the graph.
    pub fn new() -> SectionCache {
        SectionCache::default()
    }

    /// The digest of `graph`, with its topology file if the cache had to
    /// render it to find the digest.
    fn digest(&mut self, graph: &Arc<Graph>) -> (u64, Option<Vec<u8>>) {
        if let Some((cached, digest)) = &self.graph {
            if Arc::ptr_eq(cached, graph) {
                return (*digest, None);
            }
        }
        // Let go of the old topology before rendering the new one.
        self.graph = None;
        let (digest, file) = encode_topology(graph);
        self.graph = Some((Arc::clone(graph), digest));
        (digest, Some(file))
    }

    /// [`encode`], digesting the graph only if `checkpoint` does not share
    /// the cached one.
    pub fn encode(&mut self, checkpoint: &RunCheckpoint, fingerprint: u64) -> Vec<u8> {
        let (digest, _) = self.digest(checkpoint.sim.shared_graph());
        let payload = encode_payload(checkpoint, fingerprint, digest);
        concat(&header_line(FORMAT, payload.len(), checksum64(&payload)), &payload)
    }

    /// [`write_file`], digesting the graph only if `checkpoint` does not
    /// share the cached one. The topology file goes first, unless the last
    /// snapshot written through this cache names it too or a complete copy
    /// is already on disk (a resumed run's, or one that [`write_file`]
    /// wrote). Once the snapshot is in place, the topology file that the
    /// cache's previous snapshot named is removed if it is another one; a
    /// file that cannot be removed is left behind, which costs disk space
    /// only. Returns how long the encode and the write took.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if a file cannot be written or renamed.
    pub fn write_file(
        &mut self,
        path: &Path,
        checkpoint: &RunCheckpoint,
        fingerprint: u64,
    ) -> Result<WriteTimes, SnapshotError> {
        let nanos = |watch: Stopwatch| u64::try_from(watch.elapsed_nanos()).unwrap_or(u64::MAX);
        let encoding = Stopwatch::start();
        let graph = checkpoint.sim.shared_graph();
        let (digest, rendered) = self.digest(graph);
        let payload = encode_payload(checkpoint, fingerprint, digest);
        let header = header_line(FORMAT, payload.len(), checksum64(&payload));
        let encode_ns = nanos(encoding);
        let writing = Stopwatch::start();
        if self.named != Some(digest) {
            let topology = topology_path(path, digest);
            let file = rendered.unwrap_or_else(|| encode_topology(graph).1);
            let on_disk =
                std::fs::metadata(&topology).is_ok_and(|meta| meta.len() == file.len() as u64);
            if !on_disk {
                write_atomic(&topology, &[&file])?;
            }
        }
        write_atomic(path, &[&header, &payload])?;
        if let Some(previous) = self.named.replace(digest).filter(|&previous| previous != digest) {
            let _ = std::fs::remove_file(topology_path(path, previous));
        }
        Ok(WriteTimes { encode_ns, write_ns: nanos(writing) })
    }
}

/// Writes the concatenated `parts` to `path` by atomic rename, not
/// fsync'd: the bytes go to a `.tmp` sibling first and are renamed into
/// place.
fn write_atomic(path: &Path, parts: &[&[u8]]) -> Result<(), SnapshotError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    for part in parts {
        file.write_all(part).map_err(|e| io_err(&tmp, e))?;
    }
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Splits a file at its header line and verifies the header: the `format`
/// magic, a version in `versions`, then the payload's length and checksum
/// — in that order, so the error names the first layer that is wrong.
/// Returns the version, the payload and its checksum.
fn open_file<'a>(
    bytes: &'a [u8],
    format: &str,
    versions: &[u64],
) -> Result<(u64, &'a [u8], u64), SnapshotError> {
    let mut halves = bytes.splitn(2, |&b| b == b'\n');
    let header_bytes = halves.next().unwrap_or_default();
    let rest = halves
        .next()
        .ok_or_else(|| SnapshotError::MalformedHeader("no header line".to_string()))?;
    let header_text = std::str::from_utf8(header_bytes)
        .map_err(|_| SnapshotError::MalformedHeader("header is not UTF-8".to_string()))?;
    let header =
        parse(header_text).map_err(|e| SnapshotError::MalformedHeader(format!("not JSON: {e}")))?;

    let found = header
        .get("format")
        .and_then(Value::as_str)
        .ok_or_else(|| SnapshotError::MalformedHeader("missing `format`".to_string()))?;
    if found != format {
        return Err(SnapshotError::WrongFormat { found: found.to_string() });
    }
    let version = header
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| SnapshotError::MalformedHeader("missing `version`".to_string()))?;
    if !versions.contains(&version) {
        return Err(SnapshotError::UnsupportedVersion { found: version, supported: VERSION });
    }
    let payload_bytes = header
        .get("payload_bytes")
        .and_then(Value::as_u64)
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| SnapshotError::MalformedHeader("missing `payload_bytes`".to_string()))?;
    let checksum = header
        .get("checksum")
        .and_then(Value::as_str)
        .ok_or_else(|| SnapshotError::MalformedHeader("missing `checksum`".to_string()))
        .and_then(|s| {
            parse_hex_u64(s, "checksum")
                .map_err(|_| SnapshotError::MalformedHeader("bad `checksum` hex".to_string()))
        })?;

    // Version 1's payload is a text line with an optional newline after
    // it; version 2's binary payload runs to the end of the file.
    let payload = if version == 1 { rest.strip_suffix(b"\n").unwrap_or(rest) } else { rest };
    if payload.len() != payload_bytes {
        return Err(SnapshotError::Truncated {
            expected_bytes: payload_bytes,
            found_bytes: payload.len(),
        });
    }
    let actual = checksum64(payload);
    if actual != checksum {
        return Err(SnapshotError::ChecksumMismatch { expected: checksum, actual });
    }
    Ok((version, payload, checksum))
}

/// Reads a binary payload front to back. Every read is checked against the
/// bytes left, so a count read from the file sizes nothing it cannot fill.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The next `len` bytes.
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let (head, tail) = self
            .rest
            .split_at_checked(len)
            .ok_or_else(|| bad(&format!("`{what}` runs past the end of the payload")))?;
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapshotError> {
        Ok(u8::from_le_bytes(le(self.take(1, what)?)))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(le(self.take(8, what)?)))
    }

    fn u128(&mut self, what: &str) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(le(self.take(16, what)?)))
    }

    /// `count` items of `N` bytes each, taken before anything is sized for
    /// them.
    fn items<const N: usize>(
        &mut self,
        count: u64,
        what: &str,
    ) -> Result<impl ExactSizeIterator<Item = [u8; N]> + 'a, SnapshotError> {
        let len = usize::try_from(count)
            .ok()
            .and_then(|count| count.checked_mul(N))
            .ok_or_else(|| bad(&format!("`{what}` count {count} does not fit in memory")))?;
        Ok(self.take(len, what)?.chunks_exact(N).map(le::<N>))
    }

    /// A `u64` count, then that many items of `N` bytes.
    fn counted<const N: usize>(
        &mut self,
        what: &str,
    ) -> Result<impl ExactSizeIterator<Item = [u8; N]> + 'a, SnapshotError> {
        let count = self.u64(what)?;
        self.items(count, what)
    }

    /// `count` little-endian words.
    fn words(&mut self, count: u64, what: &str) -> Result<Vec<u64>, SnapshotError> {
        Ok(self.items::<8>(count, what)?.map(u64::from_le_bytes).collect())
    }

    /// Fails unless every byte was read.
    fn finish(&self, what: &str) -> Result<(), SnapshotError> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(bad(&format!("{extra} bytes past the end of the {what}"))),
        }
    }
}

/// A byte that must be 0 (`false`) or 1 (`true`).
fn flag(byte: u8, what: &str) -> Result<bool, SnapshotError> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(bad(&format!("`{what}` must be 0 or 1"))),
    }
}

/// An `(x, y)` point from its two little-endian `f64` bit patterns.
fn point(bytes: [u8; 16]) -> (f64, f64) {
    let (x, y) = bytes.split_at(8);
    (f64::from_bits(u64::from_le_bytes(le(x))), f64::from_bits(u64::from_le_bytes(le(y))))
}

/// A trace count that must fit a `usize`.
fn trace_count(v: u64) -> Result<usize, SnapshotError> {
    usize::try_from(v).map_err(|_| bad("`trace` counts must fit in usize"))
}

/// The graph of a topology file, which must be the one with `digest` and
/// `n` nodes.
fn decode_topology(bytes: &[u8], digest: u64, n: usize) -> Result<Graph, SnapshotError> {
    let (_, payload, found) = open_file(bytes, TOPOLOGY_FORMAT, &[VERSION])?;
    if found != digest {
        return Err(SnapshotError::TopologyMismatch { expected: digest, found });
    }
    let mut r = Reader { rest: payload };
    let nodes = r.u64("topology n")?;
    if nodes != n as u64 {
        return Err(bad(&format!("the topology has {nodes} nodes but the snapshot {n}")));
    }
    let edges = r.counted::<8>("edges")?;
    r.finish("topology payload")?;
    let edges = edges.map(|pair| {
        let (u, w) = pair.split_at(4);
        (u32::from_le_bytes(le(u)) as usize, u32::from_le_bytes(le(w)) as usize)
    });
    Graph::from_edges(n, edges).map_err(|e| bad(&format!("graph: {e}")))
}

/// The version-2 snapshot `payload`, whose graph `topology` loads from the
/// digest and node count the payload names.
fn decode_v2(
    payload: &[u8],
    expected_fingerprint: u64,
    topology: impl FnOnce(u64, usize) -> Result<Graph, SnapshotError>,
) -> Result<RunCheckpoint, SnapshotError> {
    let mut r = Reader { rest: payload };
    let fingerprint = r.u64("fingerprint")?;
    if fingerprint != expected_fingerprint {
        return Err(SnapshotError::ConfigMismatch {
            expected: expected_fingerprint,
            found: fingerprint,
        });
    }
    let round = r.u64("round")?;
    let count = r.u64("n")?;
    let digest = r.u64("topology digest")?;
    let states: Vec<Level> = r.items::<4>(count, "states")?.map(Level::from_le_bytes).collect();
    let rngs: Vec<Pcg64Mcg> =
        r.items::<16>(count, "rngs")?.map(|b| pcg_from_state(u128::from_le_bytes(b))).collect();
    let n = states.len();
    let words = n.div_ceil(64) as u64;
    let sent = [r.words(words, "sent")?, r.words(words, "sent")?];
    let heard = [r.words(words, "heard")?, r.words(words, "heard")?];
    let active_words = r.words(words, "active")?;
    let active = (0..n)
        .map(|v| active_words.get(v / 64).is_some_and(|word| word >> (v % 64) & 1 != 0))
        .collect();
    let in_burst = flag(r.u8("channel_in_burst")?, "channel_in_burst")?;
    let channel_rng = pcg_from_state(r.u128("channel_rng")?);
    let byz_rng = pcg_from_state(r.u128("byz_rng")?);
    let fault_rng = pcg_from_state(r.u128("fault_rng")?);
    let applied = flag(r.u8("applied_through")?, "applied_through")?;
    let applied_through = Some(r.u64("applied_through")?).filter(|_| applied);
    let mut trace = Trace::new();
    for row in r.counted::<56>("trace")? {
        let mut cells = row.chunks_exact(8).map(|cell| u64::from_le_bytes(le(cell)));
        let [round, b1, b2, h1, h2, lone, lone2] = std::array::from_fn(|_| cells.next());
        let count = |cell: Option<u64>| trace_count(cell.unwrap_or(0));
        trace.push(RoundReport {
            round: round.unwrap_or(0),
            beeps_channel1: count(b1)?,
            beeps_channel2: count(b2)?,
            hearers_channel1: count(h1)?,
            hearers_channel2: count(h2)?,
            lone_beepers: count(lone)?,
            lone_beepers_channel2: count(lone2)?,
        });
    }
    let motion = if flag(r.u8("motion")?, "motion")? {
        let positions = r.counted::<16>("motion_positions")?.map(point).collect();
        let waypoints = r.counted::<16>("motion_waypoints")?.map(point).collect();
        let pauses = r.counted::<8>("motion_pauses")?.map(u64::from_le_bytes).collect();
        let headings = r
            .counted::<8>("motion_headings")?
            .map(|b| f64::from_bits(u64::from_le_bytes(b)))
            .collect();
        let rng_state = r.u128("motion_rng")?;
        Some(MotionState { positions, waypoints, pauses, headings, rng_state })
    } else {
        None
    };
    r.finish("snapshot payload")?;
    let graph = topology(digest, n)?;
    Ok(RunCheckpoint {
        sim: Checkpoint::from_parts(
            states,
            rngs,
            round,
            sent,
            heard,
            Arc::new(graph),
            active,
            ChannelState { in_burst },
            channel_rng,
            byz_rng,
        ),
        fault_rng,
        applied_through,
        trace,
        motion,
    })
}

fn bad(what: &str) -> SnapshotError {
    SnapshotError::MalformedPayload(what.to_string())
}

fn field<'a>(obj: &'a Value, key: &'static str) -> Result<&'a Value, SnapshotError> {
    obj.get(key).ok_or_else(|| bad(&format!("missing field `{key}`")))
}

fn u64_field(obj: &Value, key: &'static str) -> Result<u64, SnapshotError> {
    field(obj, key)?.as_u64().ok_or_else(|| bad(&format!("`{key}` is not a non-negative integer")))
}

fn str_field<'a>(obj: &'a Value, key: &'static str) -> Result<&'a str, SnapshotError> {
    field(obj, key)?.as_str().ok_or_else(|| bad(&format!("`{key}` is not a string")))
}

fn array_field<'a>(obj: &'a Value, key: &'static str) -> Result<&'a [Value], SnapshotError> {
    field(obj, key)?.as_array().ok_or_else(|| bad(&format!("`{key}` is not an array")))
}

fn rng_field(obj: &Value, key: &'static str) -> Result<Pcg64Mcg, SnapshotError> {
    Ok(pcg_from_state(parse_hex_u128(str_field(obj, key)?, key)?))
}

/// Packs the per-node signal digits of `key` into `[channel 1, channel 2]`
/// words, the form a checkpoint holds. Words cannot carry a node count, so
/// a digit count other than `n` is refused here.
fn signal_words(digits: &[Value], key: &str, n: usize) -> Result<[Vec<u64>; 2], SnapshotError> {
    if digits.len() != n {
        return Err(bad(&format!("`{key}` covers {} nodes but `states` covers {n}", digits.len())));
    }
    let (mut c1, mut c2) = (vec![0u64; n.div_ceil(64)], vec![0u64; n.div_ceil(64)]);
    for ((chunk, w1), w2) in digits.chunks(64).zip(&mut c1).zip(&mut c2) {
        for (j, digit) in chunk.iter().enumerate() {
            let bits = digit
                .as_u64()
                .filter(|&bits| bits <= 3)
                .ok_or_else(|| bad(&format!("`{key}` entries must be integers in 0..=3")))?;
            *w1 |= (bits & 1) << j;
            *w2 |= (bits >> 1) << j;
        }
    }
    Ok([c1, c2])
}

fn usize_in(v: &Value, key: &str) -> Result<usize, SnapshotError> {
    v.as_u64()
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| bad(&format!("`{key}` entries must be non-negative integers")))
}

/// The version-1 snapshot `payload`: one JSON object, the graph inline.
fn decode_v1(payload: &[u8], expected_fingerprint: u64) -> Result<RunCheckpoint, SnapshotError> {
    let payload_text = std::str::from_utf8(payload)
        .map_err(|_| SnapshotError::MalformedPayload("payload is not UTF-8".to_string()))?;
    let obj = parse(payload_text).map_err(|e| bad(&format!("not JSON: {e}")))?;

    let fingerprint = parse_hex_u64(str_field(&obj, "fingerprint")?, "fingerprint")?;
    if fingerprint != expected_fingerprint {
        return Err(SnapshotError::ConfigMismatch {
            expected: expected_fingerprint,
            found: fingerprint,
        });
    }

    let round = u64_field(&obj, "round")?;
    let states: Vec<Level> = array_field(&obj, "states")?
        .iter()
        .map(|v| {
            v.as_i64()
                .and_then(|x| Level::try_from(x).ok())
                .ok_or_else(|| bad("`states` entries must be 32-bit integers"))
        })
        .collect::<Result<_, _>>()?;
    let rng_hex = str_field(&obj, "rngs")?;
    if rng_hex.len() % 32 != 0 {
        return Err(bad("`rngs` must be a concatenation of 32-digit hex states"));
    }
    let rngs: Vec<Pcg64Mcg> = rng_hex
        .as_bytes()
        .chunks_exact(32)
        .map(|chunk| {
            // A chunk boundary can split a multi-byte character in a
            // corrupted file; that is a decode error, not a panic.
            let s =
                std::str::from_utf8(chunk).map_err(|_| bad("`rngs` must be ASCII hex digits"))?;
            Ok(pcg_from_state(parse_hex_u128(s, "rngs")?))
        })
        .collect::<Result<_, SnapshotError>>()?;
    let sent = signal_words(array_field(&obj, "sent")?, "sent", states.len())?;
    let heard = signal_words(array_field(&obj, "heard")?, "heard", states.len())?;

    let graph_n = u64_field(&obj, "graph_n")
        .ok()
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| bad("`graph_n` is not a non-negative integer"))?;
    let endpoints = array_field(&obj, "graph_edges")?;
    if endpoints.len() % 2 != 0 {
        return Err(bad("`graph_edges` must hold an even number of endpoints"));
    }
    let edges: Vec<(usize, usize)> = endpoints
        .chunks_exact(2)
        .map(|pair| {
            let [u, w] = pair else {
                return Err(bad("`graph_edges` entries must be pairs"));
            };
            Ok((usize_in(u, "graph_edges")?, usize_in(w, "graph_edges")?))
        })
        .collect::<Result<_, SnapshotError>>()?;
    let graph = Graph::from_edges(graph_n, edges).map_err(|e| bad(&format!("graph: {e}")))?;

    let active: Vec<bool> = str_field(&obj, "active")?
        .bytes()
        .map(|b| match b {
            b'0' => Ok(false),
            b'1' => Ok(true),
            _ => Err(bad("`active` must be a string of 0/1 digits")),
        })
        .collect::<Result<_, _>>()?;
    let in_burst = field(&obj, "channel_in_burst")?
        .as_bool()
        .ok_or_else(|| bad("`channel_in_burst` is not a boolean"))?;
    let channel_rng = rng_field(&obj, "channel_rng")?;
    let byz_rng = rng_field(&obj, "byz_rng")?;
    let fault_rng = rng_field(&obj, "fault_rng")?;
    let applied_through = match field(&obj, "applied_through")? {
        Value::Null => None,
        v => Some(v.as_u64().ok_or_else(|| bad("`applied_through` must be null or an integer"))?),
    };

    let mut trace = Trace::new();
    for row in array_field(&obj, "trace")? {
        let cells = row.as_array().ok_or_else(|| bad("`trace` rows must be arrays"))?;
        let [round, b1, b2, h1, h2, lone, lone2] = cells else {
            return Err(bad("`trace` rows must have 7 entries"));
        };
        trace.push(RoundReport {
            round: round.as_u64().ok_or_else(|| bad("`trace` round must be an integer"))?,
            beeps_channel1: usize_in(b1, "trace")?,
            beeps_channel2: usize_in(b2, "trace")?,
            hearers_channel1: usize_in(h1, "trace")?,
            hearers_channel2: usize_in(h2, "trace")?,
            lone_beepers: usize_in(lone, "trace")?,
            lone_beepers_channel2: usize_in(lone2, "trace")?,
        });
    }

    // The motion fields travel as a block: all five present (a moving
    // deployment) or all five absent (a static one). A file with only some
    // of them was not produced by `encode` and is rejected field-by-field.
    let motion = if obj.get("motion_rng").is_some() {
        let positions = parse_point_list(str_field(&obj, "motion_positions")?, "motion_positions")?;
        let waypoints = parse_point_list(str_field(&obj, "motion_waypoints")?, "motion_waypoints")?;
        let pauses: Vec<u64> = array_field(&obj, "motion_pauses")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| bad("`motion_pauses` entries must be non-negative integers"))
            })
            .collect::<Result<_, _>>()?;
        let headings = parse_f64_list(str_field(&obj, "motion_headings")?, "motion_headings")?;
        let rng_state = parse_hex_u128(str_field(&obj, "motion_rng")?, "motion_rng")?;
        Some(MotionState { positions, waypoints, pauses, headings, rng_state })
    } else {
        None
    };

    Ok(RunCheckpoint {
        sim: Checkpoint::from_parts(
            states,
            rngs,
            round,
            sent,
            heard,
            Arc::new(graph),
            active,
            ChannelState { in_burst },
            channel_rng,
            byz_rng,
        ),
        fault_rng,
        applied_through,
        trace,
        motion,
    })
}

/// Deserializes snapshot `bytes`, verifying the header, the payload length
/// and checksum, and the configuration fingerprint — in that order, so the
/// reported error names the *first* layer that is wrong — and then the
/// rest of the payload. A version-2 snapshot takes its graph from
/// `topology`, the bytes of the topology file it names, which must carry
/// the snapshot's digest and node count. A version-1 snapshot carries its
/// graph and ignores `topology`. Never panics.
pub fn decode(
    bytes: &[u8],
    topology: &[u8],
    expected_fingerprint: u64,
) -> Result<RunCheckpoint, SnapshotError> {
    decode_with(bytes, expected_fingerprint, |digest, n| decode_topology(topology, digest, n))
}

/// [`decode`], with the version-2 graph loaded by `topology` from the
/// digest and node count the payload names.
fn decode_with(
    bytes: &[u8],
    expected_fingerprint: u64,
    topology: impl FnOnce(u64, usize) -> Result<Graph, SnapshotError>,
) -> Result<RunCheckpoint, SnapshotError> {
    let (version, payload, _) = open_file(bytes, FORMAT, &[1, VERSION])?;
    if version == 1 {
        decode_v1(payload, expected_fingerprint)
    } else {
        decode_v2(payload, expected_fingerprint, topology)
    }
}

fn io_err(path: &Path, e: std::io::Error) -> SnapshotError {
    SnapshotError::Io { path: path.to_path_buf(), message: e.to_string() }
}

/// Writes `checkpoint` to `path` by atomic rename, not fsync'd: the bytes
/// go to a `.tmp` sibling first and are renamed into place, so a crash of
/// the process mid-write leaves either the previous snapshot or none —
/// never a half-written file masquerading as a snapshot. Nothing forces
/// the data to the disk, so after a power loss the file may be incomplete;
/// [`read_file`] then reports it as a typed error.
///
/// The snapshot file holds exactly [`encode`]'s bytes. The topology file
/// it names ([`topology_path`]) is written the same way first, unless a
/// complete one is already there.
pub fn write_file(
    path: &Path,
    checkpoint: &RunCheckpoint,
    fingerprint: u64,
) -> Result<(), SnapshotError> {
    SectionCache::new().write_file(path, checkpoint, fingerprint).map(|_| ())
}

/// Reads and verifies a snapshot from `path`, and for version 2 the
/// topology file it names in the same directory; see [`decode`] for the
/// verification order. Never panics.
pub fn read_file(path: &Path, expected_fingerprint: u64) -> Result<RunCheckpoint, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    decode_with(&bytes, expected_fingerprint, |digest, n| {
        let topology = topology_path(path, digest);
        let bytes = std::fs::read(&topology).map_err(|e| io_err(&topology, e))?;
        decode_topology(&bytes, digest, n)
    })
}

/// The bytes a snapshot occupies on disk: the snapshot file at `path`
/// and, for version 2, the topology file it names.
///
/// # Errors
///
/// [`SnapshotError::Io`] if either file is missing, and the header errors
/// of [`decode`] for a damaged snapshot.
pub fn bytes_on_disk(path: &Path) -> Result<u64, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let (version, payload, _) = open_file(&bytes, FORMAT, &[1, VERSION])?;
    let mut total = bytes.len() as u64;
    if version == VERSION {
        let mut r = Reader { rest: payload };
        let digest = r.take(24, "fingerprint, round and n").and_then(|_| r.u64("digest"))?;
        let topology = topology_path(path, digest);
        total += std::fs::metadata(&topology).map_err(|e| io_err(&topology, e))?.len();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Canonical FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_round_trips() {
        for v in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(parse_hex_u64(&format!("{v:016x}"), "t").unwrap(), v);
        }
        for v in [0u128, 1, u128::MAX, 0x0123_4567_89ab_cdef_u128 << 64] {
            assert_eq!(parse_hex_u128(&format!("{v:032x}"), "t").unwrap(), v);
        }
        assert!(parse_hex_u64("xyz", "t").is_err());
        assert!(parse_hex_u128(&"f".repeat(31), "t").is_err());
    }

    #[test]
    fn checksum64_detects_single_bit_flips_and_length() {
        // Invertibility argument made concrete: flip each bit of a couple
        // of payloads (word-aligned and ragged) and require a new hash.
        for base in [&b"0123456789abcdef"[..], &b"ragged tail..."[..]] {
            let reference = checksum64(base);
            for byte in 0..base.len() {
                for bit in 0..8u8 {
                    let mut copy = base.to_vec();
                    if let Some(slot) = copy.get_mut(byte) {
                        *slot ^= 1 << bit;
                    }
                    assert_ne!(checksum64(&copy), reference, "byte {byte} bit {bit}");
                }
            }
        }
        // Zero-padding of the tail word must not collide with real zeros.
        assert_ne!(checksum64(b"abc"), checksum64(b"abc\0"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
    }

    #[test]
    fn f64_hex_round_trips_exact_bits() {
        let values = [
            0.0,
            -0.0,
            1.0,
            0.1,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
        ];
        let hex: String = values.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
        let back = parse_f64_list(&hex, "t").unwrap();
        assert_eq!(back.len(), values.len());
        for (&v, &b) in values.iter().zip(&back) {
            assert_eq!(v.to_bits(), b.to_bits());
        }
        // NaN payloads survive too.
        let back = parse_f64_list("7ff80000deadbeef", "t").unwrap();
        assert_eq!(back[0].to_bits(), 0x7ff8_0000_dead_beef);
        // Ragged and odd-coordinate inputs are decode errors, not panics.
        assert!(parse_f64_list("abc", "t").is_err());
        assert!(parse_point_list(&"0".repeat(16), "t").is_err());
    }

    #[test]
    fn signal_bits_cover_all_four() {
        for bits in 0u8..4 {
            let s = beeping::BeepSignal::new(bits & 1 != 0, bits & 2 != 0);
            assert_eq!(s.bits(), bits);
        }
    }

    #[test]
    fn signal_digits_pack_into_words_and_must_cover_every_node() {
        let digits = parse("[0,1,2,3]").unwrap();
        let digits = digits.as_array().unwrap();
        // Node 1 beeps on channel 1, node 2 on channel 2, node 3 on both.
        assert_eq!(signal_words(digits, "sent", 4).unwrap(), [vec![0b1010], vec![0b1100]]);
        assert!(signal_words(digits, "sent", 5).is_err());
        assert!(signal_words(&digits[..3], "heard", 4).is_err());
        let out_of_range = parse("[0,4]").unwrap();
        assert!(signal_words(out_of_range.as_array().unwrap(), "sent", 2).is_err());
    }

    #[test]
    fn reader_checks_every_count_against_the_bytes_left() {
        let bytes = [7u8; 40];
        let mut r = Reader { rest: &bytes };
        assert!(r.items::<16>(u64::MAX, "t").is_err(), "a count past usize");
        assert!(r.items::<4>(1 << 62, "t").is_err(), "a count whose bytes overflow usize");
        assert!(r.items::<8>(6, "t").is_err(), "one item past the end");
        assert_eq!(r.rest.len(), 40, "a refused read consumes nothing");
        assert_eq!(r.words(5, "t").unwrap(), vec![0x0707_0707_0707_0707; 5]);
        assert!(r.finish("t").is_ok());
        assert!(r.u8("t").is_err());
    }

    #[test]
    fn capacity_bounds_the_payload() {
        use beeping::dynamic::MotionSpec;
        use beeping::faults::{FaultPlan, FaultTarget};
        use graphs::generators::{geometric, random};
        use graphs::motion::MotionModel;
        use mis::resumable::ResumableRun;
        use mis::{Algorithm1, LmaxPolicy};

        let model = MotionModel::RandomWaypoint { speed: 0.03, pause: 2 };
        let spec = MotionSpec::new(5, geometric::radius_for_expected_degree(40, 5.0), model);
        let cases = [
            (random::gnp(1500, 0.004, 9), ResumableConfig::new(9)),
            (random::gnp(12, 0.3, 2), ResumableConfig::new(2)),
            (spec.initial_graph(40), ResumableConfig::new(5).with_motion(spec)),
        ];
        for (g, config) in cases {
            let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
            let faults = FaultPlan::new().with_fault(3, FaultTarget::RandomFraction(0.3));
            let mut run = ResumableRun::new(&g, &algo, config.with_faults(faults)).unwrap();
            for _ in 0..30 {
                run.tick();
                let cp = run.checkpoint();
                let payload = encode_payload(&cp, 1, 2);
                assert_eq!(payload.len(), payload_len(&cp), "the layout's length is exact");
                assert_eq!(payload.capacity(), payload.len(), "the payload reallocated");
                let (_, topology) = encode_topology(cp.sim.graph());
                assert_eq!(topology.capacity(), topology.len(), "the topology reallocated");
                let bytes = encode(&cp, 1);
                assert_eq!(bytes.capacity(), bytes.len(), "encode sized its buffer exactly");
            }
        }
    }
}
