//! In-memory span recorder for the traced mode.
//!
//! One span per public call the benchmark makes into a layer: name, start,
//! end, parent and op id. Spans stay in memory and are written out when the
//! run ends, together with a per-layer self-time table. A disabled tracer
//! reads no clock and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use telemetry::Stopwatch;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The layer a span name belongs to (the module whose public call it
/// wraps).
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "op" => "op (unattributed)",
        "setup" => "setup (unattributed)",
        "graphs.build" => "graphs",
        "mis.policy" => "mis::policy",
        "init.levels" => "mis::runner::initial_levels",
        "driver.new" => "driver construction",
        "sim.new" | "sim.step" => "beeping::sim",
        "check.stabilized" | "check.final_mis" => "mis::observer / mis::recovery",
        "dynamic.advance" => "beeping::dynamic + graphs::motion",
        "events.faults" => "beeping::faults",
        "run.tick" => "mis::resumable (tick, telemetry on)",
        "calib.ticks" | "calib.tick" => "calibration (tick, telemetry off)",
        "harness.checkpoint" | "harness.write_file" => "harness::snapshot",
        "probe.encode" => "probe (snapshot::encode)",
        _ => "other",
    }
}

/// Records spans against one clock.
pub struct Tracer {
    clock: Option<Stopwatch>,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { clock: None, spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer { clock: Some(Stopwatch::start()), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.clock.map_or(0, |c| u64::try_from(c.elapsed_nanos()).unwrap_or(u64::MAX))
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        self.clock?;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op: self.op, parent, start_ns, end_ns: start_ns });
        self.open.push(self.spans.len() - 1);
        self.open.last().copied()
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.secs();
            }
        }
        own
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                layer_of(s.name),
                s.op,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }

    /// Self time per layer over all spans, largest first.
    pub fn layer_table(&self) -> Vec<(&'static str, f64)> {
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_secs()) {
            *by_layer.entry(layer_of(span.name)).or_insert(0.0) += own;
        }
        let mut rows: Vec<_> = by_layer.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}
