//! Level arithmetic shared by both algorithms: the level state space
//! ([`LevelSpace`], the only place the two algorithms' level ranges are
//! described), the beep-probability activation function of Figure 1 and
//! the level update rules of the pseudocode.

/// A node level. Algorithm 1 uses `ℓ ∈ {-ℓmax, …, ℓmax}`; Algorithm 2 uses
/// `ℓ ∈ {0, …, ℓmax}`.
pub type Level = i32;

/// Which level state space a protocol uses. The two algorithms differ only
/// here: both claim MIS membership at the space's lowest level and are
/// silenced at `ℓmax`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelSpace {
    /// Algorithm 1: `ℓ ∈ {-ℓmax, …, ℓmax}`.
    Signed,
    /// Algorithm 2: `ℓ ∈ {0, …, ℓmax}`.
    NonNegative,
}

impl LevelSpace {
    /// The *claiming* level, the lowest of the space: `-ℓmax` for
    /// Algorithm 1 (reached after a lone beep), `0` for Algorithm 2. A node
    /// holds it while it believes it is in the MIS.
    #[inline]
    pub const fn claiming(self, lmax: Level) -> Level {
        match self {
            LevelSpace::Signed => -lmax,
            LevelSpace::NonNegative => 0,
        }
    }

    /// Inclusive bounds of the space as `i64`, for sampling arbitrary RAM
    /// contents.
    pub fn bounds(self, lmax: Level) -> (i64, i64) {
        (i64::from(self.claiming(lmax)), i64::from(lmax))
    }

    /// Clamps an arbitrary (possibly corrupted) integer into the space —
    /// what a node's RAM can physically hold.
    pub fn clamp(self, raw: i64, lmax: Level) -> Level {
        let (low, high) = self.bounds(lmax);
        raw.clamp(low, high) as Level
    }

    /// `true` iff `level` lies inside this space for the given `ℓmax`.
    pub fn contains(self, level: Level, lmax: Level) -> bool {
        (self.claiming(lmax)..=lmax).contains(&level)
    }
}

/// Ceiling of `log₂(x)` for `x ≥ 1`; by convention 0 for `x ∈ {0, 1}`.
///
/// The paper's `ℓmax` formulas use `log deg` / `log Δ`; we instantiate the
/// logarithm as `⌈log₂⌉`, which satisfies every "≥ log(·) + c" requirement.
///
/// # Example
///
/// ```
/// use mis::levels::log2_ceil;
/// assert_eq!(log2_ceil(0), 0);
/// assert_eq!(log2_ceil(1), 0);
/// assert_eq!(log2_ceil(2), 1);
/// assert_eq!(log2_ceil(3), 2);
/// assert_eq!(log2_ceil(8), 3);
/// assert_eq!(log2_ceil(9), 4);
/// ```
pub fn log2_ceil(x: usize) -> u32 {
    if x <= 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

/// The beeping probability `p_t(v)` implied by level `ℓ` (paper §3 and
/// Figure 1):
///
/// ```text
/// p = 1        if ℓ ≤ 0
/// p = 2^(-ℓ)   if 0 < ℓ < ℓmax
/// p = 0        if ℓ = ℓmax
/// ```
///
/// # Panics
///
/// Panics if `ℓ > ℓmax` or `ℓ < -ℓmax` (levels outside the state space are a
/// programming error; transient faults must corrupt *within* the state
/// space, as in the paper's fault model where RAM holds a value of the state
/// type).
pub fn beep_probability(level: Level, lmax: Level) -> f64 {
    assert!((-lmax..=lmax).contains(&level), "level {level} outside state space [-{lmax}, {lmax}]");
    if level <= 0 {
        1.0
    } else if level == lmax {
        0.0
    } else {
        2f64.powi(-level)
    }
}

/// Algorithm 2's *channel-1* beeping probability: `2^(-ℓ)` in the geometric
/// region `0 < ℓ < ℓmax`, and `0` at both boundaries (an MIS node at `ℓ = 0`
/// beeps on channel 2 instead; a node at `ℓmax` is silent).
///
/// # Panics
///
/// Panics if `ℓ` is outside Algorithm 2's state space `{0, …, ℓmax}`.
pub fn beep1_probability(level: Level, lmax: Level) -> f64 {
    assert!((0..=lmax).contains(&level), "level {level} outside state space [0, {lmax}]");
    if level > 0 && level < lmax {
        2f64.powi(-level)
    } else {
        0.0
    }
}

/// Levels from which `2f64.powi(-ℓ)` is `0.0` on the supported targets:
/// `powi` forms `2^ℓ`, which overflows to infinity at `ℓ = 1024`, and
/// returns its reciprocal. [`beep_threshold`] keeps those levels silent
/// and draw-free, exactly as `p > 0 && gen_bool(p)` does.
const POWI_SILENT_FROM: Level = 1024;

/// The channel-1 beep decision of either algorithm as an integer test on
/// one raw generator output: `None` means the node is silent and draws
/// nothing; `Some(t)` means it draws once and beeps iff
/// `rng.next_u64() >> 11 < t`, where `t = 2^(53 − clamp(ℓ, 0, 53))`.
///
/// `space` selects the algorithm. [`LevelSpace::Signed`] is Algorithm 1's
/// [`beep_probability`]: every `ℓ ≤ 0` draws (and always beeps), including
/// `ℓ = ℓmax = 0`, while `0 < ℓ = ℓmax` does not. [`LevelSpace::NonNegative`]
/// is Algorithm 2's [`beep1_probability`]: only `0 < ℓ < ℓmax` draws.
///
/// # Equivalence with `p > 0 && gen_bool(p)`
///
/// Let `p` be the space's probability above and `x` the drawn output.
/// `gen_bool(p)` computes `u · 2^-53 < p` with `u = x >> 11 < 2^53`, where
/// `u` converts to `f64` exactly and the scaling by a power of two is exact
/// too. So `gen_bool(p)` is the real inequality `u < p · 2^53`.
///
/// - `p = 0` (`ℓ = ℓmax`, either boundary of Algorithm 2's channel 1, or
///   `ℓ ≥ 1024` where `powi` underflows): the old code skips the draw; so
///   does this one.
/// - `p = 1` (`ℓ ≤ 0` in the signed space): `u < 2^53 = t` always holds,
///   after one draw.
/// - `p = 2^-ℓ` with `1 ≤ ℓ ≤ 53`: `powi` is exact, so the test is
///   `u < 2^(53-ℓ) = t`.
/// - `p = 2^-ℓ` with `53 < ℓ < 1024`: `p · 2^53 = 2^(53-ℓ)` lies in
///   `(0, 1)`, so `u < p · 2^53` holds iff `u = 0`, i.e. `u < 1 = t`.
///
/// Every case draws exactly when the old code draws and returns the same
/// bit, so a run's stream positions and decisions are unchanged.
///
/// # Panics
///
/// Panics if `ℓ` lies outside `space` for `ℓmax`, in every build, as
/// [`beep_probability`] and [`beep1_probability`] do.
#[inline]
pub fn beep_threshold(space: LevelSpace, level: Level, lmax: Level) -> Option<u64> {
    assert!(
        space.contains(level, lmax),
        "level {level} outside state space [{}, {lmax}]",
        space.claiming(lmax)
    );
    let geometric = level > 0 && level < lmax.min(POWI_SILENT_FROM);
    let draws = match space {
        LevelSpace::Signed => level <= 0 || geometric,
        LevelSpace::NonNegative => geometric,
    };
    draws.then(|| 1 << (53 - level.clamp(0, 53)).unsigned_abs())
}

/// Algorithm 1's claiming level: [`LevelSpace::claiming`] of the signed
/// space. This, [`state_space_bounds`] and [`clamp_level`] stay only
/// because the `perfbench` crate imports them; crate code calls
/// [`LevelSpace`] directly.
pub fn claiming_level(lmax: Level) -> Level {
    LevelSpace::Signed.claiming(lmax)
}

/// [`LevelSpace::bounds`] of the signed (`true`) or non-negative space.
pub fn state_space_bounds(lmax: Level, signed: bool) -> (i64, i64) {
    if signed { LevelSpace::Signed } else { LevelSpace::NonNegative }.bounds(lmax)
}

/// Algorithm 1's level update (paper Algorithm 1, second half of the round):
///
/// ```text
/// if any signal received:  ℓ ← min(ℓ + 1, ℓmax)
/// else if beeped:          ℓ ← -ℓmax
/// else:                    ℓ ← max(ℓ - 1, 1)
/// ```
///
/// Every candidate is computed and the flags only select among them, so
/// the update compiles to conditional moves: the flags are random bits in
/// a run's early rounds, where branches on them mispredict.
#[inline]
pub fn update_level(level: Level, lmax: Level, beeped: bool, heard: bool) -> Level {
    let up = level.saturating_add(1).min(lmax);
    let down = level.saturating_sub(1).max(1);
    let quiet = if beeped { -lmax } else { down };
    if heard {
        up
    } else {
        quiet
    }
}

/// Algorithm 2's level update (paper Algorithm 2):
///
/// ```text
/// if beep2 signal received:      ℓ ← ℓmax
/// else if beep1 signal received: ℓ ← min(ℓ + 1, ℓmax)
/// else if beeped on channel 1:   ℓ ← 0
/// else if not beeping channel 2: ℓ ← max(ℓ - 1, 1)
/// ```
///
/// (A node beeping on channel 2 that hears nothing keeps `ℓ = 0`.)
///
/// Written as selects over precomputed candidates, like [`update_level`].
#[inline]
pub fn update_level_two_channel(
    level: Level,
    lmax: Level,
    sent_beep1: bool,
    sent_beep2: bool,
    heard_beep1: bool,
    heard_beep2: bool,
) -> Level {
    let up = level.saturating_add(1).min(lmax);
    let down = level.saturating_sub(1).max(1);
    let idle = if sent_beep2 { level } else { down };
    let quiet = if sent_beep1 { 0 } else { idle };
    let heard = if heard_beep1 { up } else { quiet };
    if heard_beep2 {
        lmax
    } else {
        heard
    }
}

/// [`LevelSpace::clamp`] into Algorithm 1's space `{-ℓmax, …, ℓmax}`.
pub fn clamp_level(raw: i64, lmax: Level) -> Level {
    LevelSpace::Signed.clamp(raw, lmax)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use rand_pcg::Pcg64Mcg;

    #[test]
    fn log2_ceil_powers() {
        for k in 0..20u32 {
            assert_eq!(log2_ceil(1 << k), k);
            if k > 0 {
                assert_eq!(log2_ceil((1 << k) + 1), k + 1);
            }
        }
    }

    #[test]
    fn probability_regions() {
        let lmax = 10;
        // Prominent region: p = 1 for every ℓ ≤ 0.
        for l in -lmax..=0 {
            assert_eq!(beep_probability(l, lmax), 1.0);
        }
        // Geometric region.
        assert_eq!(beep_probability(1, lmax), 0.5);
        assert_eq!(beep_probability(2, lmax), 0.25);
        assert_eq!(beep_probability(9, lmax), 2f64.powi(-9));
        // Silent at the cap.
        assert_eq!(beep_probability(lmax, lmax), 0.0);
    }

    #[test]
    fn probability_is_monotone_decreasing() {
        let lmax = 20;
        let mut prev = f64::INFINITY;
        for l in -lmax..=lmax {
            let p = beep_probability(l, lmax);
            assert!(p <= prev);
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "outside state space")]
    fn probability_rejects_out_of_range() {
        beep_probability(11, 10);
    }

    #[test]
    fn update_rules_match_pseudocode() {
        let lmax = 5;
        // Heard → increment, capped.
        assert_eq!(update_level(2, lmax, false, true), 3);
        assert_eq!(update_level(5, lmax, true, true), 5);
        assert_eq!(update_level(-5, lmax, true, true), -4);
        // Lone beep → jump to -ℓmax.
        assert_eq!(update_level(1, lmax, true, false), -5);
        assert_eq!(update_level(-5, lmax, true, false), -5);
        // Silence all around → decay toward 1, never below.
        assert_eq!(update_level(4, lmax, false, false), 3);
        assert_eq!(update_level(1, lmax, false, false), 1);
        assert_eq!(update_level(5, lmax, false, false), 4);
    }

    #[test]
    fn update_stays_in_state_space() {
        let lmax = 7;
        for l in -lmax..=lmax {
            for beeped in [false, true] {
                for heard in [false, true] {
                    let next = update_level(l, lmax, beeped, heard);
                    assert!((-lmax..=lmax).contains(&next), "ℓ={l} b={beeped} h={heard}");
                }
            }
        }
    }

    #[test]
    fn two_channel_update_rules() {
        let lmax = 6;
        // beep2 received dominates: go to ℓmax (become non-MIS).
        assert_eq!(update_level_two_channel(3, lmax, true, false, true, true), lmax);
        // beep1 received: increment.
        assert_eq!(update_level_two_channel(3, lmax, false, false, true, false), 4);
        assert_eq!(update_level_two_channel(lmax, lmax, false, false, true, false), lmax);
        // Lone beep1: join the MIS (ℓ = 0).
        assert_eq!(update_level_two_channel(3, lmax, true, false, false, false), 0);
        // Silent non-MIS node: decay toward 1.
        assert_eq!(update_level_two_channel(4, lmax, false, false, false, false), 3);
        assert_eq!(update_level_two_channel(1, lmax, false, false, false, false), 1);
        // MIS node (beeping channel 2) hearing nothing keeps ℓ = 0.
        assert_eq!(update_level_two_channel(0, lmax, false, true, false, false), 0);
    }

    #[test]
    fn two_channel_update_stays_in_state_space() {
        let lmax = 5;
        for l in 0..=lmax {
            for s1 in [false, true] {
                for s2 in [false, true] {
                    for h1 in [false, true] {
                        for h2 in [false, true] {
                            let next = update_level_two_channel(l, lmax, s1, s2, h1, h2);
                            assert!((0..=lmax).contains(&next));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn beep1_probability_regions() {
        let lmax = 8;
        // Silent at both boundaries: ℓ = 0 beeps on channel 2, ℓmax not at all.
        assert_eq!(beep1_probability(0, lmax), 0.0);
        assert_eq!(beep1_probability(lmax, lmax), 0.0);
        // Geometric in between.
        assert_eq!(beep1_probability(1, lmax), 0.5);
        assert_eq!(beep1_probability(7, lmax), 2f64.powi(-7));
    }

    #[test]
    #[should_panic(expected = "outside state space")]
    fn beep1_probability_rejects_negative() {
        beep1_probability(-1, 8);
    }

    /// The old decision `p > 0 && gen_bool(p)` for one raw output `x`, with
    /// `gen_bool`'s `(x >> 11) · 2^-53 < p` mapping written out.
    fn float_oracle(p: f64, x: u64) -> bool {
        p > 0.0 && ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Checks `beep_threshold` against the float formula `p` at one level:
    /// it draws iff `p > 0`, and on every probe draw it decides as the
    /// oracle does.
    fn assert_threshold_matches(
        space: LevelSpace,
        level: Level,
        lmax: Level,
        p: f64,
        rng: &mut Pcg64Mcg,
    ) {
        let threshold = beep_threshold(space, level, lmax);
        assert_eq!(threshold.is_some(), p > 0.0, "{space:?} ℓ={level} ℓmax={lmax}: draw iff p > 0");
        let t = threshold.unwrap_or(0);
        let mut draws = vec![0, 1, u64::MAX, u64::MAX - 1];
        if let Some(edge) = t.checked_mul(1 << 11) {
            draws.extend([edge.wrapping_sub(1), edge]);
        }
        draws.extend((0..64).map(|_| rng.next_u64()));
        for x in draws {
            let beeps = threshold.is_some_and(|t| x >> 11 < t);
            assert_eq!(beeps, float_oracle(p, x), "{space:?} ℓ={level} ℓmax={lmax} x={x:#x}");
        }
    }

    #[test]
    fn beep_threshold_matches_the_float_formula_exhaustively() {
        let mut rng = beeping::rng::node_rng(25, 0);
        for lmax in 0..=64 {
            for level in -lmax..=lmax {
                let p = beep_probability(level, lmax);
                assert_threshold_matches(LevelSpace::Signed, level, lmax, p, &mut rng);
            }
            for level in 0..=lmax {
                let p = beep1_probability(level, lmax);
                assert_threshold_matches(LevelSpace::NonNegative, level, lmax, p, &mut rng);
            }
        }
        // ℓ = ℓmax = 0 is claiming and capped at once: it draws and beeps.
        assert_eq!(beep_threshold(LevelSpace::Signed, 0, 0), Some(1 << 53));
        assert_eq!(beep_threshold(LevelSpace::NonNegative, 0, 0), None);
    }

    #[test]
    fn beep_threshold_matches_where_powi_underflows() {
        // `2f64.powi(-ℓ)` is 0 from ℓ = 1024 on; `black_box` keeps the
        // level a run-time value, as it is in a run.
        let mut rng = beeping::rng::node_rng(25, 1);
        let lmax = 1100;
        for level in 1020..=1030 {
            let level = std::hint::black_box(level);
            let p = beep_probability(level, lmax);
            assert_threshold_matches(LevelSpace::Signed, level, lmax, p, &mut rng);
            let p = beep1_probability(level, lmax);
            assert_threshold_matches(LevelSpace::NonNegative, level, lmax, p, &mut rng);
        }
    }

    #[test]
    #[should_panic(expected = "outside state space")]
    fn beep_threshold_rejects_out_of_range() {
        beep_threshold(LevelSpace::Signed, 11, 10);
    }

    #[test]
    #[should_panic(expected = "outside state space")]
    fn beep_threshold_rejects_negative_channel1_levels() {
        beep_threshold(LevelSpace::NonNegative, -1, 8);
    }

    #[test]
    fn claiming_and_bounds() {
        assert_eq!(claiming_level(7), -7);
        assert_eq!(LevelSpace::NonNegative.claiming(7), 0);
        assert_eq!(state_space_bounds(7, true), (-7, 7));
        assert_eq!(state_space_bounds(7, false), (0, 7));
        // The bounds agree with the clamps.
        assert_eq!(clamp_level(i64::MIN, 7), claiming_level(7));
        assert_eq!(LevelSpace::NonNegative.clamp(i64::MIN, 7), 0);
    }

    #[test]
    fn clamping() {
        assert_eq!(clamp_level(100, 7), 7);
        assert_eq!(clamp_level(-100, 7), -7);
        assert_eq!(clamp_level(3, 7), 3);
        assert_eq!(LevelSpace::NonNegative.clamp(-5, 7), 0);
        assert_eq!(LevelSpace::NonNegative.clamp(100, 7), 7);
        assert_eq!(LevelSpace::NonNegative.clamp(4, 7), 4);
    }
}
