//! Durable, versioned, checksummed snapshot files for
//! [`mis::resumable::RunCheckpoint`].
//!
//! # File format (version 1)
//!
//! A snapshot is two newline-terminated JSON lines:
//!
//! ```text
//! {"format":"beeping-mis-snapshot","version":1,"payload_bytes":N,"checksum":"<hex>"}
//! {"fingerprint":"<hex>","round":R,"states":[...],"rngs":"<hex...>", ...}
//! ```
//!
//! The bulk vectors use compact encodings: `rngs` is one string of
//! concatenated fixed-width 32-digit hex states, `active` is one string of
//! `0`/`1` digits, and `graph_edges` is a flat `[u,v,u,v,...]` array.
//! `sent` and `heard` hold one digit per node (channel 1 in bit 0, channel
//! 2 in bit 1), rendered from the checkpoint's signal bitsets and packed
//! back into them on decode.
//!
//! A snapshot is re-encoded every k rounds, on a background thread that
//! has one chunk of rounds to finish in (see [`crate::supervisor`]), so the
//! encoder is built for speed without changing a byte of the format. It
//! writes the payload without its graph section into one buffer, sized up
//! front from n and the trace length: decimals two digits at a time from a
//! digit-pair table, hex one byte at a time from a byte-to-two-digits
//! table. The graph section comes from a [`SectionCache`]: rendered
//! straight off the graph's sorted adjacency lists, with each node id
//! rendered once, and reused for as long as the checkpoints share the same
//! graph, which for a run without churn or motion is the whole run. The
//! checksum runs over the pieces in place. [`write_file`] streams the
//! header line, the pieces and the final newline to the file; [`encode`]
//! returns the same bytes as one vector.
//!
//! The header is self-describing and guards the payload: `payload_bytes` is
//! the exact byte length of the second line (detecting truncation) and
//! `checksum` is [`checksum64`] — a word-wise FNV-1a variant — over those
//! bytes (detecting corruption). The
//! payload captures *everything mutable* about a run — node states, every
//! RNG stream position (per-node, channel, Byzantine, fault), the round
//! counter, last-round signals, the (possibly churned) topology, the
//! participation bitmap, the channel burst window, the event-application
//! cursor and the accumulated trace — so a resumed run is bit-identical to
//! one that never stopped. A moving deployment
//! ([`mis::resumable::ResumableConfig::with_motion`]) additionally writes
//! the `motion_*` fields: node positions, per-model waypoint/pause/heading
//! state and the motion-RNG stream position. Every `f64` travels as its
//! exact `to_bits` value in fixed-width 16-digit hex, so geometry survives
//! the round trip bit-for-bit; the fields are simply absent for motionless
//! runs, which keeps their snapshots byte-identical to earlier builds.
//!
//! Run *configuration* (plans, channel model, engine, algorithm) is
//! deliberately not stored; the caller re-supplies it on resume, and the
//! payload's `fingerprint` field ([`config_fingerprint`]) rejects a resume
//! under a different configuration with [`SnapshotError::ConfigMismatch`].
//!
//! Every integer wider than 53 bits (RNG stream positions are `u128`, the
//! checksum and fingerprint are `u64`) is encoded as a fixed-width
//! lowercase hex *string*, because the JSON layer
//! ([`telemetry::jsonl`]) parses numbers as `f64` and would silently lose
//! low bits past 2⁵³.
//!
//! The load path ([`decode`], [`read_file`]) never panics: every defect —
//! missing file, garbage bytes, truncation, bit flips, version skew,
//! internally inconsistent vectors — surfaces as a typed [`SnapshotError`].

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

/// The snapshot format version this build writes and accepts.
pub const VERSION: u64 = 1;

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
        /// The version this build supports.
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
    /// The payload passed the checksum but is not the JSON shape this
    /// version writes (only reachable for a file *assembled* by something
    /// other than [`encode`], since the checksum pins the exact bytes).
    MalformedPayload(String),
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
                write!(f, "snapshot version {found} not supported (this build reads {supported})")
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
    checksum64_parts(&[bytes])
}

/// [`checksum64`] of the concatenation of `parts`, without concatenating
/// them: a word that straddles two parts is assembled in a carry buffer.
fn checksum64_parts(parts: &[&[u8]]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    // The bytes of a word not yet complete, zero beyond `filled`.
    let mut carry = [0u8; 8];
    let mut filled = 0;
    let mut len = 0u64;
    for &part in parts {
        len += part.len() as u64;
        let mut rest = part;
        if filled > 0 {
            let take = rest.len().min(8 - filled);
            let (head, tail) = rest.split_at_checked(take).unwrap_or((rest, &[]));
            if let Some(slot) = carry.get_mut(filled..filled + take) {
                slot.copy_from_slice(head);
            }
            filled += take;
            rest = tail;
            if filled < 8 {
                continue;
            }
            hash ^= u64::from_le_bytes(carry);
            hash = hash.wrapping_mul(PRIME);
        }
        let mut chunks = rest.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            hash ^= u64::from_le_bytes(word);
            hash = hash.wrapping_mul(PRIME);
        }
        carry = [0u8; 8];
        filled = chunks.remainder().len();
        for (slot, &b) in carry.iter_mut().zip(chunks.remainder()) {
            *slot = b;
        }
    }
    hash ^= u64::from_le_bytes(carry);
    hash = hash.wrapping_mul(PRIME);
    hash ^= len;
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

/// ASCII digits of bases up to 16, indexed by value.
const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// `DEC_PAIRS[k]` is `k` as two decimal digits, `00` to `99`.
const DEC_PAIRS: [[u8; 2]; 100] = {
    let mut table = [[0u8; 2]; 100];
    let mut k = 0;
    while k < 100 {
        table[k] = [DIGITS[k / 10], DIGITS[k % 10]];
        k += 1;
    }
    table
};

/// `HEX_PAIRS[b]` is the byte `b` as two lowercase hex digits.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [DIGITS[b / 16], DIGITS[b % 16]];
        b += 1;
    }
    table
};

/// An unsigned integer in decimal, left-aligned in a fixed buffer.
struct Decimal {
    digits: [u8; 20],
    len: u8,
}

impl Decimal {
    /// Renders `v` two digits per step from the right.
    fn new(mut v: u64) -> Decimal {
        let len = v.checked_ilog10().map_or(1, |d| d + 1);
        let mut digits = [b'0'; 20];
        let mut end = len as usize;
        while end >= 2 {
            let pair = DEC_PAIRS.get((v % 100) as usize);
            if let (Some(slot), Some(pair)) = (digits.get_mut(end - 2..end), pair) {
                slot.copy_from_slice(pair);
            }
            v /= 100;
            end -= 2;
        }
        if end == 1 {
            if let (Some(slot), Some(&digit)) = (digits.first_mut(), DIGITS.get(v as usize)) {
                *slot = digit;
            }
        }
        Decimal { digits, len: u8::try_from(len).unwrap_or(20) }
    }

    /// Appends the digits as one fixed-size copy and a truncation, which
    /// is cheaper than a copy of variable length.
    fn push_to(&self, out: &mut Vec<u8>) {
        let end = out.len() + usize::from(self.len);
        out.extend_from_slice(&self.digits);
        out.truncate(end);
    }
}

/// Appends `v` in decimal.
fn push_u64_dec(out: &mut Vec<u8>, v: u64) {
    Decimal::new(v).push_to(out);
}

/// Appends `v` in decimal, with a sign for negative values.
fn push_i64_dec(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64_dec(out, v.unsigned_abs());
}

/// Appends big-endian `bytes` as lowercase hex, two digits per byte: a
/// `u64` or `f64` bit pattern as 16 digits, a `u128` as 32. Types wider
/// than 16 bytes do not occur.
fn push_hex<const N: usize>(out: &mut Vec<u8>, bytes: [u8; N]) {
    let mut text = [0u8; 32];
    for (slot, byte) in text.chunks_exact_mut(2).zip(bytes) {
        if let Some(pair) = HEX_PAIRS.get(usize::from(byte)) {
            slot.copy_from_slice(pair);
        }
    }
    out.extend_from_slice(text.get(..2 * N).unwrap_or_default());
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

/// Serializes `checkpoint` (stamped with `fingerprint`) into the two-line
/// snapshot format. The output always round-trips through [`decode`], and
/// it is exactly the bytes [`write_file`] puts on disk.
pub fn encode(checkpoint: &RunCheckpoint, fingerprint: u64) -> Vec<u8> {
    SectionCache::new().encode(checkpoint, fingerprint)
}

/// The `graph_edges` section of the last topology encoded, kept so that
/// the next encode of the same topology copies it instead of rendering it
/// again.
///
/// The section is about half a static run's snapshot and half its encode
/// time. The cache keys it on the identity of the checkpoint's shared
/// graph ([`Checkpoint::shared_graph`]): the simulator copies a shared
/// graph before it mutates it, and the cache keeps its own `Arc` alive, so
/// while the cache holds a graph no other topology can have its address. A
/// churned or moving run gets a new graph at its first mutation after a
/// capture, and its next encode renders the section again.
#[derive(Debug, Default)]
pub struct SectionCache {
    graph: Option<Arc<Graph>>,
    edges: Vec<u8>,
}

/// How long [`SectionCache::write_file`] spent in each of its two phases.
#[derive(Debug, Clone, Copy)]
pub struct WriteTimes {
    /// Rendering the snapshot and its checksum, in nanoseconds.
    pub encode_ns: u64,
    /// Writing the temporary file and renaming it into place, in
    /// nanoseconds.
    pub write_ns: u64,
}

impl SectionCache {
    /// An empty cache: its first encode renders the graph section.
    pub fn new() -> SectionCache {
        SectionCache::default()
    }

    /// [`encode`], reusing the cached graph section when `checkpoint`
    /// shares its graph.
    pub fn encode(&mut self, checkpoint: &RunCheckpoint, fingerprint: u64) -> Vec<u8> {
        let lines = self.encode_lines(checkpoint, fingerprint);
        let parts = lines.parts();
        let mut bytes = Vec::with_capacity(parts.iter().map(|part| part.len()).sum());
        for part in parts {
            bytes.extend_from_slice(part);
        }
        bytes
    }

    /// [`write_file`], reusing the cached graph section when `checkpoint`
    /// shares its graph. Returns how long the encode and the write took.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be written or renamed.
    pub fn write_file(
        &mut self,
        path: &Path,
        checkpoint: &RunCheckpoint,
        fingerprint: u64,
    ) -> Result<WriteTimes, SnapshotError> {
        let nanos = |watch: Stopwatch| u64::try_from(watch.elapsed_nanos()).unwrap_or(u64::MAX);
        let encoding = Stopwatch::start();
        let lines = self.encode_lines(checkpoint, fingerprint);
        let encode_ns = nanos(encoding);
        let writing = Stopwatch::start();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        for part in lines.parts() {
            file.write_all(part).map_err(|e| io_err(&tmp, e))?;
        }
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        Ok(WriteTimes { encode_ns, write_ns: nanos(writing) })
    }

    /// The `graph_edges` section of `graph`, rendered unless the cache
    /// already holds it.
    fn edges(&mut self, graph: &Arc<Graph>) -> &[u8] {
        if !self.graph.as_ref().is_some_and(|cached| Arc::ptr_eq(cached, graph)) {
            // Let go of the old topology before rendering the new one.
            self.graph = None;
            self.edges.clear();
            self.edges.reserve(edges_capacity(graph));
            push_edges(&mut self.edges, graph);
            self.graph = Some(Arc::clone(graph));
        }
        &self.edges
    }

    /// The snapshot as five pieces to be concatenated: the header line,
    /// the payload up to the graph section, the section, the rest of the
    /// payload and its newline.
    fn encode_lines<'a>(&'a mut self, checkpoint: &RunCheckpoint, fingerprint: u64) -> Lines<'a> {
        let (payload, split) = encode_payload(checkpoint, fingerprint);
        let edges = self.edges(checkpoint.sim.shared_graph());
        Lines::new(payload, split, edges)
    }
}

/// An encoded snapshot in pieces; see [`SectionCache::encode_lines`].
struct Lines<'a> {
    header: Vec<u8>,
    payload: Vec<u8>,
    split: usize,
    edges: &'a [u8],
}

impl<'a> Lines<'a> {
    /// Adds the header to a payload whose graph section, `edges`, belongs
    /// at byte `split`.
    fn new(payload: Vec<u8>, split: usize, edges: &'a [u8]) -> Lines<'a> {
        let (head, tail) = payload.split_at_checked(split).unwrap_or((&payload, &[]));
        let header = header_line(&[head, edges, tail]);
        Lines { header, payload, split, edges }
    }

    /// The five pieces, in file order.
    fn parts(&self) -> [&[u8]; 5] {
        let (head, tail) =
            self.payload.split_at_checked(self.split).unwrap_or((&self.payload, &[]));
        [&self.header, head, self.edges, tail, b"\n"]
    }
}

/// The first line of a snapshot, newline included: format, version, and
/// the length and checksum of the payload (the second line, without its
/// newline), given as the pieces it is made of.
fn header_line(payload: &[&[u8]]) -> Vec<u8> {
    let mut line = Vec::with_capacity(128);
    line.extend_from_slice(b"{\"format\":\"");
    line.extend_from_slice(FORMAT.as_bytes());
    line.extend_from_slice(b"\",\"version\":");
    push_u64_dec(&mut line, VERSION);
    line.extend_from_slice(b",\"payload_bytes\":");
    push_u64_dec(&mut line, payload.iter().map(|part| part.len() as u64).sum());
    line.extend_from_slice(b",\"checksum\":\"");
    push_hex(&mut line, checksum64_parts(payload).to_be_bytes());
    line.extend_from_slice(b"\"}\n");
    line
}

fn push_joined<I: IntoIterator, F: FnMut(&mut Vec<u8>, I::Item)>(
    out: &mut Vec<u8>,
    items: I,
    mut one: F,
) {
    out.push(b'[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        one(out, item);
    }
    out.push(b']');
}

/// Appends `,"key":"<32 hex digits>"`, the encoding of one RNG state.
fn push_rng_field(out: &mut Vec<u8>, key: &[u8], state: u128) {
    out.extend_from_slice(b",\"");
    out.extend_from_slice(key);
    out.extend_from_slice(b"\":\"");
    push_hex(out, state.to_be_bytes());
    out.push(b'"');
}

/// Appends `,"key":"<hex>"` with each `f64` as its 16-digit `to_bits`.
fn push_f64_field(out: &mut Vec<u8>, key: &[u8], values: impl IntoIterator<Item = f64>) {
    out.extend_from_slice(b",\"");
    out.extend_from_slice(key);
    out.extend_from_slice(b"\":\"");
    for v in values {
        push_hex(out, v.to_bits().to_be_bytes());
    }
    out.push(b'"');
}

/// Appends the flat `[u,w,u,w,...]` edge list, each edge once with `u < w`
/// in [`Graph::edges`] order, read straight off the sorted adjacency
/// lists. Every id is rendered once up front: each one recurs in about
/// half its degree's worth of edges.
fn push_edges(out: &mut Vec<u8>, graph: &Graph) {
    let ids: Vec<Decimal> = graph.nodes().map(|v| Decimal::new(v as u64)).collect();
    let start = out.len();
    for (u, from) in ids.iter().enumerate() {
        let neighbors = graph.neighbors(u);
        let later = neighbors.get(neighbors.partition_point(|&w| w as usize <= u)..);
        for to in later.unwrap_or_default().iter().filter_map(|&w| ids.get(w as usize)) {
            out.push(b',');
            from.push_to(out);
            out.push(b',');
            to.push_to(out);
        }
    }
    // Every edge wrote a leading comma; the first one becomes the bracket.
    match out.get_mut(start) {
        Some(first) => *first = b'[',
        None => out.push(b'['),
    }
    out.push(b']');
}

/// An upper bound on the length of the payload without its graph section,
/// so the encoder never reallocates (the 512 fixed bytes cover the scalar
/// fields). Per node: a level with its sign and separator, 32 RNG digits,
/// two signal digits with separators and an activity digit. Per trace row:
/// seven numbers, none larger than the round or the node count, with
/// separators and brackets. Per moving node: 80 hex digits of geometry and
/// a pause.
fn payload_capacity(checkpoint: &RunCheckpoint) -> usize {
    let sim = &checkpoint.sim;
    let n = sim.graph().len();
    let widest_level = sim.states().iter().map(|l| l.unsigned_abs()).max().unwrap_or(0);
    let level_len = decimal_len(u64::from(widest_level)) + 2;
    let row_len = 7 * (decimal_len(sim.round().max(n as u64)) + 1) + 2;
    let motion =
        checkpoint.motion.as_ref().map_or(0, |m| 80 * m.positions.len() + 21 * m.pauses.len());
    512 + n * (level_len + 32 + 4 + 1) + checkpoint.trace.reports().len() * row_len + motion
}

/// An upper bound on the length of the graph section: two brackets, and
/// per edge two ids and two separators.
fn edges_capacity(graph: &Graph) -> usize {
    2 + graph.num_edges() * 2 * (decimal_len(graph.len() as u64) + 1)
}

/// The number of decimal digits of `v`.
fn decimal_len(v: u64) -> usize {
    usize::from(Decimal::new(v).len)
}

/// The payload line without its graph section, and the byte offset where
/// [`SectionCache::edges`] goes.
fn encode_payload(checkpoint: &RunCheckpoint, fingerprint: u64) -> (Vec<u8>, usize) {
    let sim = &checkpoint.sim;
    let mut s: Vec<u8> = Vec::with_capacity(payload_capacity(checkpoint));
    s.extend_from_slice(b"{\"fingerprint\":\"");
    push_hex(&mut s, fingerprint.to_be_bytes());
    s.extend_from_slice(b"\",\"round\":");
    push_u64_dec(&mut s, sim.round());
    s.extend_from_slice(b",\"states\":");
    push_joined(&mut s, sim.states(), |out, &l| push_i64_dec(out, i64::from(l)));
    s.extend_from_slice(b",\"rngs\":\"");
    for r in sim.rngs() {
        push_hex(&mut s, pcg_state(r).to_be_bytes());
    }
    s.push(b'"');
    s.extend_from_slice(b",\"sent\":");
    push_joined(&mut s, sim.sent().iter(), |out, b| out.push(b'0' + b.bits()));
    s.extend_from_slice(b",\"heard\":");
    push_joined(&mut s, sim.heard().iter(), |out, b| out.push(b'0' + b.bits()));
    s.extend_from_slice(b",\"graph_n\":");
    push_u64_dec(&mut s, sim.graph().len() as u64);
    s.extend_from_slice(b",\"graph_edges\":");
    let split = s.len();
    s.extend_from_slice(b",\"active\":\"");
    s.extend(sim.active().iter().map(|&a| if a { b'1' } else { b'0' }));
    s.push(b'"');
    s.extend_from_slice(b",\"channel_in_burst\":");
    s.extend_from_slice(if sim.channel_state().in_burst { b"true" } else { b"false" });
    push_rng_field(&mut s, b"channel_rng", pcg_state(sim.channel_rng()));
    push_rng_field(&mut s, b"byz_rng", pcg_state(sim.byz_rng()));
    push_rng_field(&mut s, b"fault_rng", pcg_state(&checkpoint.fault_rng));
    s.extend_from_slice(b",\"applied_through\":");
    match checkpoint.applied_through {
        Some(r) => push_u64_dec(&mut s, r),
        None => s.extend_from_slice(b"null"),
    }
    s.extend_from_slice(b",\"trace\":");
    push_joined(&mut s, checkpoint.trace.reports(), |out, r| {
        out.push(b'[');
        push_u64_dec(out, r.round);
        for count in [
            r.beeps_channel1,
            r.beeps_channel2,
            r.hearers_channel1,
            r.hearers_channel2,
            r.lone_beepers,
            r.lone_beepers_channel2,
        ] {
            out.push(b',');
            push_u64_dec(out, count as u64);
        }
        out.push(b']');
    });
    if let Some(motion) = &checkpoint.motion {
        let positions = motion.positions.iter().flat_map(|&(x, y)| [x, y]);
        push_f64_field(&mut s, b"motion_positions", positions);
        let waypoints = motion.waypoints.iter().flat_map(|&(x, y)| [x, y]);
        push_f64_field(&mut s, b"motion_waypoints", waypoints);
        s.extend_from_slice(b",\"motion_pauses\":");
        push_joined(&mut s, &motion.pauses, |out, &p| push_u64_dec(out, p));
        push_f64_field(&mut s, b"motion_headings", motion.headings.iter().copied());
        push_rng_field(&mut s, b"motion_rng", motion.rng_state);
    }
    s.push(b'}');
    (s, split)
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

/// Deserializes snapshot `bytes`, verifying the header, the payload length
/// and checksum, and the configuration fingerprint — in that order, so the
/// reported error names the *first* layer that is wrong. Never panics.
pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Result<RunCheckpoint, SnapshotError> {
    let mut halves = bytes.splitn(2, |&b| b == b'\n');
    let header_bytes = halves.next().unwrap_or_default();
    let rest = halves
        .next()
        .ok_or_else(|| SnapshotError::MalformedHeader("no header line".to_string()))?;
    let header_text = std::str::from_utf8(header_bytes)
        .map_err(|_| SnapshotError::MalformedHeader("header is not UTF-8".to_string()))?;
    let header =
        parse(header_text).map_err(|e| SnapshotError::MalformedHeader(format!("not JSON: {e}")))?;

    let format = header
        .get("format")
        .and_then(Value::as_str)
        .ok_or_else(|| SnapshotError::MalformedHeader("missing `format`".to_string()))?;
    if format != FORMAT {
        return Err(SnapshotError::WrongFormat { found: format.to_string() });
    }
    let version = header
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| SnapshotError::MalformedHeader("missing `version`".to_string()))?;
    if version != VERSION {
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

    // The payload is everything after the header's newline, minus one
    // optional trailing newline.
    let payload = rest.strip_suffix(b"\n").unwrap_or(rest);
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
/// The file holds exactly [`encode`]'s bytes. The header line, the graph
/// section and the rest of the payload are streamed to the file as they
/// are, with no concatenated copy.
pub fn write_file(
    path: &Path,
    checkpoint: &RunCheckpoint,
    fingerprint: u64,
) -> Result<(), SnapshotError> {
    SectionCache::new().write_file(path, checkpoint, fingerprint).map(|_| ())
}

/// Reads and verifies a snapshot from `path`; see [`decode`] for the
/// verification order. Never panics.
pub fn read_file(path: &Path, expected_fingerprint: u64) -> Result<RunCheckpoint, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    decode(&bytes, expected_fingerprint)
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
        let hex = |bytes: &[u8]| {
            let mut s = Vec::new();
            for &b in bytes {
                push_hex(&mut s, [b]);
            }
            String::from_utf8(s).unwrap()
        };
        for v in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(parse_hex_u64(&hex(&v.to_be_bytes()), "t").unwrap(), v);
        }
        for v in [0u128, 1, u128::MAX, 0x0123_4567_89ab_cdef_u128 << 64] {
            assert_eq!(parse_hex_u128(&hex(&v.to_be_bytes()), "t").unwrap(), v);
        }
        assert!(parse_hex_u64("xyz", "t").is_err());
        assert!(parse_hex_u128(&"f".repeat(31), "t").is_err());
    }

    #[test]
    fn manual_pushers_match_format() {
        // Every digit count, on both sides of each power of ten.
        let mut values = vec![0u64, 1, 9, 10, 42, 99, 100, 1023, u64::MAX];
        values.extend((1..20).flat_map(|e| [10u64.pow(e) - 1, 10u64.pow(e), 10u64.pow(e) + 1]));
        for v in values {
            let mut s = Vec::new();
            push_u64_dec(&mut s, v);
            assert_eq!(String::from_utf8(s).unwrap(), v.to_string());
        }
        for v in [0i64, -1, 7, -42, -100, -12345, i64::MIN, i64::MAX] {
            let mut s = Vec::new();
            push_i64_dec(&mut s, v);
            assert_eq!(String::from_utf8(s).unwrap(), v.to_string());
        }
        for v in [0u128, 1, u128::MAX, 0xdead_beef, 0x0123_4567_89ab_cdef_u128 << 60] {
            let mut s = Vec::new();
            push_hex(&mut s, v.to_be_bytes());
            assert_eq!(String::from_utf8(s).unwrap(), format!("{v:032x}"));
        }
        for v in [0u64, 0xa, u64::MAX, 0xfedc_ba98_7654_3210] {
            let mut s = Vec::new();
            push_hex(&mut s, v.to_be_bytes());
            assert_eq!(String::from_utf8(s).unwrap(), format!("{v:016x}"));
        }
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
    fn checksum_of_parts_is_the_checksum_of_their_concatenation() {
        let bytes: Vec<u8> = (0..=40u8).map(|b| b.wrapping_mul(37)).collect();
        for first in 0..bytes.len() {
            for second in first..bytes.len() {
                let (head, rest) = bytes.split_at(first);
                let (middle, tail) = rest.split_at(second - first);
                let parts = [head, middle, &[][..], tail];
                assert_eq!(checksum64_parts(&parts), checksum64(&bytes), "split {first}/{second}");
            }
        }
        assert_eq!(checksum64_parts(&[]), checksum64(b""));
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
        let mut s = Vec::new();
        for &v in &values {
            push_hex(&mut s, v.to_bits().to_be_bytes());
        }
        let back = parse_f64_list(std::str::from_utf8(&s).unwrap(), "t").unwrap();
        assert_eq!(back.len(), values.len());
        for (&v, &b) in values.iter().zip(&back) {
            assert_eq!(v.to_bits(), b.to_bits());
        }
        // NaN payloads survive too.
        let mut s = Vec::new();
        push_hex(&mut s, 0x7ff8_0000_dead_beef_u64.to_be_bytes());
        let back = parse_f64_list(std::str::from_utf8(&s).unwrap(), "t").unwrap();
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
                let (payload, _) = encode_payload(&cp, 1);
                assert_eq!(payload.capacity(), payload_capacity(&cp), "the payload reallocated");
                let mut cache = SectionCache::new();
                let edges = cache.edges(cp.sim.shared_graph()).len();
                assert!(edges <= edges_capacity(cp.sim.graph()), "the graph section overflowed");
                assert_eq!(cache.edges.capacity(), edges_capacity(cp.sim.graph()));
                let bytes = encode(&cp, 1);
                assert_eq!(bytes.capacity(), bytes.len(), "encode sized its buffer exactly");
            }
        }
    }
}
