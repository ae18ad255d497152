//! Per-round observations for analysis experiments.

use graphs::NodeId;

use crate::protocol::BeepSignal;

/// A view of one round's per-node transmissions or observations, read from
/// the simulator's word-packed per-channel signal bitsets. Two views are
/// equal iff they agree on every node `0..n`; `Debug` prints one digit per
/// node (0 silent, 1 channel 1, 2 channel 2, 3 both).
#[derive(Clone, Copy)]
pub struct Signals<'a> {
    /// Channel-1 and channel-2 words; bit `v % 64` of word `v / 64` is node `v`.
    pub(crate) c1: &'a [u64],
    pub(crate) c2: &'a [u64],
    pub(crate) len: usize,
}

impl<'a> Signals<'a> {
    /// The signal of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn get(&self, v: NodeId) -> BeepSignal {
        assert!(v < self.len, "node {v} out of range for {} signals", self.len);
        crate::sweep::signal_at(self.c1, self.c2, v)
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a network of no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `[channel 1, channel 2]` words: bit `v % 64` of word `v / 64` is
    /// node `v`, and the bits past the last node are clear.
    pub fn words(&self) -> [&'a [u64]; 2] {
        [self.c1, self.c2]
    }

    /// The signals in node order.
    pub fn iter(&self) -> impl Iterator<Item = BeepSignal> + 'a {
        let (c1, c2) = (self.c1, self.c2);
        (0..self.len).map(move |v| crate::sweep::signal_at(c1, c2, v))
    }
}

impl PartialEq for Signals<'_> {
    fn eq(&self, other: &Signals<'_>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Signals<'_> {}

impl std::fmt::Debug for Signals<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let digits: String = self.iter().map(|s| char::from(b'0' + s.bits())).collect();
        write!(f, "Signals({digits})")
    }
}

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
    /// Adds one 64-node word of a round's signal bitsets to the counters:
    /// `s1`/`s2` are the word's per-channel sent bits, `h1`/`h2` its heard
    /// bits. The one counting rule of every kernel; a lone beep is a
    /// per-channel event (beeped on channel `c`, heard nothing on `c`).
    #[inline]
    pub(crate) fn count_word(&mut self, s1: u64, s2: u64, h1: u64, h2: u64) {
        self.beeps_channel1 += s1.count_ones() as usize;
        self.beeps_channel2 += s2.count_ones() as usize;
        self.hearers_channel1 += h1.count_ones() as usize;
        self.hearers_channel2 += h2.count_ones() as usize;
        self.lone_beepers += (s1 & !h1).count_ones() as usize;
        self.lone_beepers_channel2 += (s2 & !h2).count_ones() as usize;
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

    /// The report of one word whose node `v` sent `sent[v]` and heard
    /// `heard[v]`, each a `(channel 1, channel 2)` pair.
    fn report_of(sent: &[(bool, bool)], heard: &[(bool, bool)]) -> RoundReport {
        let word = |signals: &[(bool, bool)], channel2: bool| {
            signals
                .iter()
                .enumerate()
                .fold(0u64, |w, (v, &(c1, c2))| w | u64::from(if channel2 { c2 } else { c1 }) << v)
        };
        let mut r = RoundReport::default();
        r.count_word(word(sent, false), word(sent, true), word(heard, false), word(heard, true));
        r
    }

    const SILENT: (bool, bool) = (false, false);
    const C1: (bool, bool) = (true, false);
    const C2: (bool, bool) = (false, true);
    const BOTH: (bool, bool) = (true, true);

    #[test]
    fn report_from_signals() {
        // Node 3 beeps only on channel 2 and hears nothing: it is a
        // channel-2 lone beeper, NOT a channel-1 one.
        let r = report_of(&[C1, SILENT, BOTH, C2], &[SILENT, C1, C2, SILENT]);
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
        let r = report_of(&[C2, C2], &[C2, C1]);
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
