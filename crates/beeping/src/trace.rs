//! Per-round observations for analysis experiments.

use crate::protocol::BeepSignal;

/// Aggregate activity of one simulated round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundReport {
    /// 1-based index of the round this report describes.
    pub round: u64,
    /// Nodes that beeped on channel 1.
    pub beeps_channel1: usize,
    /// Nodes that beeped on channel 2.
    pub beeps_channel2: usize,
    /// Nodes that heard at least one channel-1 beep.
    pub hearers_channel1: usize,
    /// Nodes that heard at least one channel-2 beep.
    pub hearers_channel2: usize,
    /// Nodes that beeped on channel 1 while hearing nothing on channel 1 —
    /// the paper's per-channel "beeped and heard nothing" event; in
    /// Algorithm 1 these are exactly the MIS *join attempts* of the round.
    pub lone_beepers: usize,
    /// Nodes that beeped on channel 2 while hearing nothing on channel 2 —
    /// the channel-2 lone-beep event driving Algorithm 2 (Cor 2.3).
    pub lone_beepers_channel2: usize,
}

impl RoundReport {
    /// Computes the report from the transmission and observation vectors of
    /// a round.
    pub fn from_signals(round: u64, sent: &[BeepSignal], heard: &[BeepSignal]) -> RoundReport {
        let mut r = RoundReport { round, ..RoundReport::default() };
        for (&s, &h) in sent.iter().zip(heard) {
            if s.on_channel1() {
                r.beeps_channel1 += 1;
            }
            if s.on_channel2() {
                r.beeps_channel2 += 1;
            }
            if h.on_channel1() {
                r.hearers_channel1 += 1;
            }
            if h.on_channel2() {
                r.hearers_channel2 += 1;
            }
            // Lone beeps are per-channel events: a channel-2 beeper that
            // hears only channel 2 is *not* a channel-1 lone beeper (the
            // old `!s.is_silent()` test conflated the channels and
            // miscounted two-channel runs).
            if s.on_channel1() && !h.on_channel1() {
                r.lone_beepers += 1;
            }
            if s.on_channel2() && !h.on_channel2() {
                r.lone_beepers_channel2 += 1;
            }
        }
        r
    }

    /// Total beeps across both channels.
    pub fn total_beeps(&self) -> usize {
        self.beeps_channel1 + self.beeps_channel2
    }
}

/// Collects [`RoundReport`]s over an execution, with simple aggregate
/// queries used by experiment drivers.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    reports: Vec<RoundReport>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends a round report.
    pub fn push(&mut self, report: RoundReport) {
        self.reports.push(report);
    }

    /// All recorded reports in round order.
    pub fn reports(&self) -> &[RoundReport] {
        &self.reports
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// `true` if nothing is recorded yet.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Sum of channel-1 beeps over the execution — the total message
    /// (energy) cost in the beeping model.
    pub fn total_beeps_channel1(&self) -> usize {
        self.reports.iter().map(|r| r.beeps_channel1).sum()
    }

    /// Sum over rounds of channel-1 lone beepers (MIS join attempts for
    /// Algorithm 1).
    pub fn total_lone_beepers(&self) -> usize {
        self.reports.iter().map(|r| r.lone_beepers).sum()
    }

    /// Sum over rounds of channel-2 lone beepers (Algorithm 2's per-round
    /// "beeped on channel 2, heard no channel 2" events).
    pub fn total_lone_beepers_channel2(&self) -> usize {
        self.reports.iter().map(|r| r.lone_beepers_channel2).sum()
    }
}

impl Extend<RoundReport> for Trace {
    fn extend<I: IntoIterator<Item = RoundReport>>(&mut self, iter: I) {
        self.reports.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_from_signals() {
        // Node 3 beeps only on channel 2 and hears nothing: it is a
        // channel-2 lone beeper, NOT a channel-1 one (the pre-fix counter
        // wrongly counted it in `lone_beepers`).
        let sent = vec![
            BeepSignal::channel1(),
            BeepSignal::silent(),
            BeepSignal::both(),
            BeepSignal::channel2(),
        ];
        let heard = vec![
            BeepSignal::silent(),
            BeepSignal::channel1(),
            BeepSignal::channel2(),
            BeepSignal::silent(),
        ];
        let r = RoundReport::from_signals(3, &sent, &heard);
        assert_eq!(r.round, 3);
        assert_eq!(r.beeps_channel1, 2);
        assert_eq!(r.beeps_channel2, 2);
        assert_eq!(r.hearers_channel1, 1);
        assert_eq!(r.hearers_channel2, 1);
        // Channel-1 lone beepers: node 0 (beeped c1, heard nothing) and
        // node 2 (beeped c1 as part of `both`, heard only c2).
        assert_eq!(r.lone_beepers, 2);
        // Channel-2 lone beepers: node 3 only — node 2 heard a c2 beep.
        assert_eq!(r.lone_beepers_channel2, 1);
        assert_eq!(r.total_beeps(), 4);
    }

    #[test]
    fn lone_beeps_are_counted_per_channel() {
        // A node beeping c2-only that hears only c2 is lone on neither
        // channel; one that hears only c1 is lone on channel 2 exactly.
        let sent = vec![BeepSignal::channel2(), BeepSignal::channel2()];
        let heard = vec![BeepSignal::channel2(), BeepSignal::channel1()];
        let r = RoundReport::from_signals(1, &sent, &heard);
        assert_eq!(r.lone_beepers, 0);
        assert_eq!(r.lone_beepers_channel2, 1);
    }

    #[test]
    fn trace_aggregates() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(RoundReport {
            round: 1,
            beeps_channel1: 4,
            lone_beepers: 1,
            lone_beepers_channel2: 2,
            ..Default::default()
        });
        t.push(RoundReport { round: 2, beeps_channel1: 2, lone_beepers: 0, ..Default::default() });
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_beeps_channel1(), 6);
        assert_eq!(t.total_lone_beepers(), 1);
        assert_eq!(t.total_lone_beepers_channel2(), 2);
    }

    #[test]
    fn trace_extend() {
        let mut t = Trace::new();
        t.extend([RoundReport::default(), RoundReport::default()]);
        assert_eq!(t.len(), 2);
    }
}
