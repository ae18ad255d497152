//! Counters, gauges, and wall-clock phase timers.
//!
//! These are the only place in the workspace where wall-clock time is read:
//! simulation logic is deterministic and counts time in rounds, so the
//! `crates/lint` determinism pass bans `Instant`/`SystemTime` everywhere
//! outside this crate. Engine code acquires a [`crate::PhaseTimer`] through
//! its [`crate::Telemetry`] handle instead; when telemetry is disabled the
//! timer is inert and no clock is read at all.

use std::collections::BTreeMap;

/// Aggregate of one named timer: number of timed spans and their total
/// duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerStat {
    /// Spans recorded.
    pub count: u64,
    /// Total duration across spans, in nanoseconds.
    pub total_ns: u64,
}

/// The mutable metric store behind an enabled [`crate::Telemetry`].
///
/// `BTreeMap` keeps snapshot ordering deterministic (the simulation crates
/// ban `HashMap` iteration order from observable output).
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    timers: BTreeMap<String, TimerStat>,
}

// Each update looks its key up first and allocates the owned key only on
// the metric's first use: most calls hit a key that already exists.
impl Metrics {
    pub(crate) fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(count) => *count += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    pub(crate) fn gauge_set(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                self.gauges.insert(name.to_owned(), value);
            }
        }
    }

    pub(crate) fn timer_add(&mut self, name: &str, nanos: u64) {
        match self.timers.get_mut(name) {
            Some(stat) => {
                stat.count += 1;
                stat.total_ns = stat.total_ns.saturating_add(nanos);
            }
            None => {
                self.timers.insert(name.to_owned(), TimerStat { count: 1, total_ns: nanos });
            }
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            timers: self.timers.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }
}

/// An immutable, name-sorted snapshot of all metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone event counts, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins measurements, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Wall-clock phase timers, sorted by name.
    pub timers: Vec<(String, TimerStat)>,
}

impl MetricsSnapshot {
    /// Value of the named counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    }

    /// Value of the named gauge, when set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Aggregate of the named timer, when any span was recorded.
    pub fn timer(&self, name: &str) -> Option<TimerStat> {
        self.timers.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorts() {
        let mut m = Metrics::default();
        m.counter_add("z", 2);
        m.counter_add("a", 1);
        m.counter_add("z", 3);
        m.gauge_set("g", 1.5);
        m.gauge_set("g", 2.5);
        m.timer_add("t", 10);
        m.timer_add("t", 30);
        let s = m.snapshot();
        assert_eq!(s.counters, vec![("a".into(), 1), ("z".into(), 5)]);
        assert_eq!(s.gauge("g"), Some(2.5));
        let t = s.timer("t").unwrap();
        assert_eq!((t.count, t.total_ns), (2, 40));
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.timer("missing"), None);
    }
}
