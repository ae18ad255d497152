//! Run telemetry: a typed round-event stream, counters/gauges/timers, and
//! pluggable sinks — zero-cost when disabled.
//!
//! The simulation stack (`beeping`, `mis`, `experiments`) threads a
//! [`Telemetry`] handle through its run configurations. A disabled handle
//! (the default) is a `None` — every record call is a branch on a tag and
//! nothing else: no clock reads, no allocation, no formatting. An enabled
//! handle shares one interior-mutable core between all its clones, fanning
//! events out to its [`Sink`]s and accumulating [`MetricsSnapshot`] data.
//!
//! # Determinism contract
//!
//! Telemetry is strictly observational. It must never
//!
//! - draw from or reseed any simulation RNG stream,
//! - influence control flow of the simulation (beyond the cost of reading
//!   already-computed observables), or
//! - feed wall-clock values back into simulation state.
//!
//! The `engine_differential` proptest harness enforces the contract by
//! bit-comparing telemetry-on and telemetry-off runs; the `crates/lint`
//! determinism pass keeps `Instant`/`SystemTime` out of every other crate
//! so clock reads can only happen behind this crate's API.

#![warn(missing_docs)]

mod event;
mod json;
mod metrics;
mod sink;

pub use event::{Event, Marker, MarkerKind, RoundEvent};
pub use metrics::{MetricsSnapshot, TimerStat};
pub use sink::{JsonlSink, MemoryHandle, MemorySink, Sink};

pub mod jsonl {
    //! Re-exports of the JSON reader/writer for stream consumers.
    pub use crate::json::{escape, event_to_json, parse, parse_jsonl, Value};
}

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

use metrics::Metrics;

/// Configuration of an enabled [`Telemetry`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Config {
    /// Emit a level histogram on rounds divisible by this stride
    /// (`0` = never). Stride 1 records every round; experiments default to
    /// a coarser stride because histograms dominate stream size.
    pub level_stride: u64,
}

struct Inner {
    config: Config,
    sinks: Vec<Box<dyn Sink>>,
    metrics: Metrics,
}

/// A cheaply clonable telemetry handle; all clones share one core.
///
/// `PartialEq` compares identity (same shared core, or both disabled), so
/// run configurations that derive `PartialEq` can carry a handle.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Rc<RefCell<Inner>>>);

impl Telemetry {
    /// The inert handle: every record call returns immediately.
    pub fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// An enabled handle with no sinks yet (metrics still accumulate).
    pub fn enabled(config: Config) -> Telemetry {
        Telemetry(Some(Rc::new(RefCell::new(Inner {
            config,
            sinks: Vec::new(),
            metrics: Metrics::default(),
        }))))
    }

    /// Builder form of [`Telemetry::add_sink`].
    pub fn with_sink(self, sink: Box<dyn Sink>) -> Telemetry {
        self.add_sink(sink);
        self
    }

    /// Attaches a sink. No-op on a disabled handle.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().sinks.push(sink);
        }
    }

    /// `true` when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// `true` when a level histogram should be sampled for `round`.
    pub fn sample_levels(&self, round: u64) -> bool {
        match &self.0 {
            Some(inner) => {
                let stride = inner.borrow().config.level_stride;
                stride > 0 && round.is_multiple_of(stride)
            }
            None => false,
        }
    }

    /// Emits one event to every sink. No-op on a disabled handle.
    pub fn record(&self, event: Event) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            for sink in &mut inner.sinks {
                sink.record(&event);
            }
        }
    }

    /// Adds `delta` to a named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.counter_add(name, delta);
        }
    }

    /// Sets a named gauge (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.gauge_set(name, value);
        }
    }

    /// Records one span of `nanos` under a named timer, for a span timed
    /// where the handle cannot go, such as on another thread.
    pub fn timer_add(&self, name: &str, nanos: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.timer_add(name, nanos);
        }
    }

    /// Starts timing a named phase; the span ends (and is recorded) when
    /// the returned guard drops. Inert — no clock read — when disabled.
    pub fn time(&self, name: &'static str) -> PhaseTimer {
        PhaseTimer(self.0.as_ref().map(|inner| (Rc::clone(inner), name, Instant::now())))
    }

    /// Snapshot of all metrics (empty when disabled).
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.0 {
            Some(inner) => inner.borrow().metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Emits the final [`Event::Metrics`] snapshot and flushes every sink.
    ///
    /// Call once at the end of a run; buffered file sinks lose tail data
    /// otherwise.
    pub fn finish(&self) {
        if let Some(inner) = &self.0 {
            let snapshot = inner.borrow().metrics.snapshot();
            let mut inner = inner.borrow_mut();
            let event = Event::Metrics(snapshot);
            for sink in &mut inner.sinks {
                sink.record(&event);
                sink.flush();
            }
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("config", &inner.borrow().config)
                .field("sinks", &inner.borrow().sinks.len())
                .finish(),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

impl PartialEq for Telemetry {
    fn eq(&self, other: &Telemetry) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Guard returned by [`Telemetry::time`]; records the elapsed span into the
/// owning handle's timer metrics on drop.
pub struct PhaseTimer(Option<(Rc<RefCell<Inner>>, &'static str, Instant)>);

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.0.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            inner.borrow_mut().metrics.timer_add(name, nanos);
        }
    }
}

/// A plain wall-clock stopwatch for code *outside* the simulation (CLI
/// drivers, throughput benchmarks). This is the sanctioned clock: the
/// workspace lint bans direct `Instant`/`SystemTime` use everywhere but
/// this crate, so elapsed-time reporting routes through here.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the stopwatch.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_nanos(&self) -> u128 {
        self.0.elapsed().as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(!t.sample_levels(0));
        t.record(Event::RunEnd { rounds: 0, stabilized: false, stabilization_round: None });
        t.counter_add("c", 1);
        t.gauge_set("g", 1.0);
        drop(t.time("p"));
        t.finish();
        assert_eq!(t.metrics(), MetricsSnapshot::default());
        assert_eq!(format!("{t:?}"), "Telemetry(disabled)");
    }

    #[test]
    fn clones_share_one_core() {
        let t = Telemetry::enabled(Config::default());
        let (sink, handle) = MemorySink::new();
        t.add_sink(Box::new(sink));
        let clone = t.clone();
        clone.record(Event::RunStart { label: "x".into(), n: 1, seed: 0 });
        clone.counter_add("c", 2);
        t.counter_add("c", 3);
        assert_eq!(handle.len(), 1);
        assert_eq!(t.metrics().counter("c"), 5);
        assert_eq!(t, clone);
        assert_ne!(t, Telemetry::enabled(Config::default()));
        assert_eq!(Telemetry::disabled(), Telemetry::disabled());
        assert_ne!(t, Telemetry::disabled());
    }

    #[test]
    fn level_stride_gates_sampling() {
        let t = Telemetry::enabled(Config { level_stride: 4 });
        assert!(t.sample_levels(0));
        assert!(!t.sample_levels(3));
        assert!(t.sample_levels(8));
        let never = Telemetry::enabled(Config::default());
        assert!(!never.sample_levels(0));
        assert!(!never.sample_levels(4));
    }

    #[test]
    fn phase_timer_records_on_drop() {
        let t = Telemetry::enabled(Config::default());
        {
            let _guard = t.time("phase");
        }
        {
            let _guard = t.time("phase");
        }
        let stat = t.metrics().timer("phase").expect("recorded");
        assert_eq!(stat.count, 2);
    }

    #[test]
    fn timer_add_records_a_span_measured_elsewhere() {
        let t = Telemetry::enabled(Config::default());
        t.timer_add("writer", 30);
        t.timer_add("writer", 12);
        let stat = t.metrics().timer("writer").expect("recorded");
        assert_eq!((stat.count, stat.total_ns), (2, 42));
        Telemetry::disabled().timer_add("writer", 1);
    }

    #[test]
    fn finish_emits_metrics_snapshot() {
        let t = Telemetry::enabled(Config::default());
        let (sink, handle) = MemorySink::new();
        t.add_sink(Box::new(sink));
        t.counter_add("rounds", 9);
        t.finish();
        let events = handle.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::Metrics(m) => assert_eq!(m.counter("rounds"), 9),
            other => panic!("expected metrics event, got {other:?}"),
        }
    }

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_secs() >= 0.0);
        assert!(sw.elapsed_nanos() < u128::MAX);
    }
}
