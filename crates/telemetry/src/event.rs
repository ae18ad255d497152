//! The typed event stream of a run.
//!
//! A run emits a [`Event::RunStart`], then one [`Event::Round`] per executed
//! round interleaved with [`Event::Marker`]s at fault/churn/Byzantine
//! injections, then a [`Event::RunEnd`] and (optionally) a final
//! [`Event::Metrics`] snapshot. Events carry plain integers and strings only
//! — no graph or protocol types — so the crate stays a leaf dependency that
//! every layer of the workspace can emit into.

use crate::metrics::MetricsSnapshot;

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A run began.
    RunStart {
        /// Human-readable run label (e.g. the experiment id or `"runner"`).
        label: String,
        /// Number of vertices in the graph.
        n: u64,
        /// Master seed of the run.
        seed: u64,
    },
    /// One executed simulation round.
    Round(RoundEvent),
    /// A discrete injected disturbance (fault burst, churn edit,
    /// Byzantine behavior installation).
    Marker(Marker),
    /// The run finished (stabilized, contained, or budget exhausted).
    RunEnd {
        /// Rounds executed.
        rounds: u64,
        /// Whether the run reached its goal predicate.
        stabilized: bool,
        /// Round at which the goal predicate first held, when it did.
        stabilization_round: Option<u64>,
    },
    /// Final counters/gauges/timers snapshot, emitted by
    /// [`crate::Telemetry::finish`].
    Metrics(MetricsSnapshot),
}

/// Per-round observables: the `beeping` crate's `RoundReport` counters plus
/// the MIS-level observables (stable-set size, claimed-MIS size, level
/// histogram) that the paper's proof machinery reasons about.
///
/// The optional fields are populated by layers that can compute them: the
/// raw simulator knows only the channel counters; the `mis` runner adds
/// stability and histogram data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundEvent {
    /// Round index (1-based: the value of `Simulator::round()` *after* the
    /// step).
    pub round: u64,
    /// Nodes that beeped on channel 1.
    pub beeps_channel1: u64,
    /// Nodes that beeped on channel 2.
    pub beeps_channel2: u64,
    /// Nodes that heard a beep on channel 1.
    pub hearers_channel1: u64,
    /// Nodes that heard a beep on channel 2.
    pub hearers_channel2: u64,
    /// Nodes that beeped on channel 1 and heard no other channel-1 beep.
    pub lone_beepers: u64,
    /// Nodes that beeped on channel 2 and heard no other channel-2 beep.
    pub lone_beepers_channel2: u64,
    /// Active (non-crashed, non-departed) nodes this round.
    pub active: u64,
    /// Vertices in the graph (denominator of [`RoundEvent::stable_fraction`]).
    pub n: u64,
    /// Nodes whose level currently claims MIS membership, when known.
    pub in_mis: Option<u64>,
    /// Size of the stable set `S_t = I_t ∪ N(I_t)`, when known.
    pub stable: Option<u64>,
    /// Level histogram `(level, count)` sorted by level, sampled every
    /// [`crate::Config::level_stride`] rounds.
    pub levels: Option<Vec<(i64, u64)>>,
}

impl RoundEvent {
    /// Fraction of the graph inside the stable set, when `stable` is known
    /// and the graph is non-empty.
    pub fn stable_fraction(&self) -> Option<f64> {
        match (self.stable, self.n) {
            (Some(s), n) if n > 0 => Some(s as f64 / n as f64),
            _ => None,
        }
    }
}

/// A discrete injected disturbance.
#[derive(Debug, Clone, PartialEq)]
pub struct Marker {
    /// Round count at injection time (disturbances apply between rounds).
    pub round: u64,
    /// Disturbance family.
    pub kind: MarkerKind,
    /// Free-form description (e.g. `"corrupt"`, `"node_leave"`,
    /// `"babbler"`).
    pub detail: String,
    /// Size of the disturbance (nodes corrupted, edges removed, ...).
    pub magnitude: u64,
}

/// Families of injected disturbance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// Transient state corruption or crash-restart.
    Fault,
    /// Topology churn (node/edge join or leave).
    Churn,
    /// A permanently deviating (Byzantine) node.
    Byzantine,
    /// Mobility-driven topology change (the moving radius graph's edge
    /// changes at one round boundary).
    Motion,
}

impl MarkerKind {
    /// Stable lowercase name used by the serialized formats.
    pub fn name(&self) -> &'static str {
        match self {
            MarkerKind::Fault => "fault",
            MarkerKind::Churn => "churn",
            MarkerKind::Byzantine => "byzantine",
            MarkerKind::Motion => "motion",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_fraction_requires_data() {
        let mut e = RoundEvent { n: 10, ..RoundEvent::default() };
        assert_eq!(e.stable_fraction(), None);
        e.stable = Some(5);
        assert_eq!(e.stable_fraction(), Some(0.5));
        e.n = 0;
        assert_eq!(e.stable_fraction(), None);
    }

    #[test]
    fn marker_kind_names_are_stable() {
        assert_eq!(MarkerKind::Fault.name(), "fault");
        assert_eq!(MarkerKind::Churn.name(), "churn");
        assert_eq!(MarkerKind::Byzantine.name(), "byzantine");
        assert_eq!(MarkerKind::Motion.name(), "motion");
    }
}
