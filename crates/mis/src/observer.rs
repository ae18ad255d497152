//! Analysis instrumentation mirroring the paper's proof machinery (§3, §6).
//!
//! Given a snapshot of all levels, this module computes the random-process
//! observables the analysis reasons about:
//!
//! - the stable MIS `I_t` and stable set `S_t = I_t ∪ N(I_t)`, taken from
//!   the crate's one full-sweep definition in [`crate::recovery`];
//! - `μ_t(v) = min_{u∈N(v)} ℓ_t(u)/ℓmax(u)`;
//! - prominent vertices (`ℓ ≤ 0`, Def 3.3) and **platinum rounds** (a
//!   prominent vertex in `N⁺(v)`);
//! - beep probabilities `p_t(v)` and the potential `d_t(v) = Σ_{u∈N(v)}
//!   p_t(u)`;
//! - **light** vertices and `d_t^L(v)` (Def 6.1) and **golden rounds**
//!   (Def 6.2);
//! - the residuals `η_t(v)` and `η′_t(v)` that bound post-platinum behavior
//!   (Lemma 3.6).
//!
//! The lemma-level experiments (L3.5, L3.6) measure these quantities over
//! live executions and compare their empirical distributions against the
//! bounds the paper proves.

use graphs::{Graph, NodeId};

use crate::levels::{beep_probability, Level, LevelSpace};
use crate::recovery::{claimed_mis_where, stable_where};

/// A read-only view of one round's configuration, with the stable set
/// precomputed.
///
/// # Example
///
/// ```
/// use graphs::generators::classic;
/// use mis::observer::Snapshot;
///
/// let g = classic::path(3);
/// let lmax = [5, 5, 5];
/// let levels = [5, -5, 5]; // middle vertex stable in the MIS
/// let snap = Snapshot::new(&g, &lmax, &levels);
/// assert!(snap.in_mis(1));
/// assert!(snap.is_stable(0) && snap.is_stable(2));
/// assert!(snap.is_stabilized());
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot<'a> {
    graph: &'a Graph,
    lmax: &'a [Level],
    levels: &'a [Level],
    in_mis: Vec<bool>,
    stable: Vec<bool>,
}

impl<'a> Snapshot<'a> {
    /// Builds a snapshot for Algorithm 1 semantics
    /// (in-MIS ⟺ `ℓ(v) = -ℓmax(v)` with all neighbors at their `ℓmax`).
    ///
    /// # Panics
    ///
    /// Panics if `lmax` and `levels` do not both have `graph.len()` entries.
    pub fn new(graph: &'a Graph, lmax: &'a [Level], levels: &'a [Level]) -> Snapshot<'a> {
        let in_mis = claimed_mis_where(LevelSpace::Signed, graph, lmax, levels, |_| true);
        let stable = stable_where(graph, &in_mis, |_| true).collect();
        Snapshot { graph, lmax, levels, in_mis, stable }
    }

    /// The graph underlying the snapshot.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// `ℓ_t(v)`.
    pub fn level(&self, v: NodeId) -> Level {
        self.levels[v]
    }

    /// `v ∈ I_t`: stable member of the MIS.
    pub fn in_mis(&self, v: NodeId) -> bool {
        self.in_mis[v]
    }

    /// `v ∈ S_t = I_t ∪ N(I_t)`: stable vertex.
    pub fn is_stable(&self, v: NodeId) -> bool {
        self.stable[v]
    }

    /// The `I_t` membership bitmap.
    pub fn mis(&self) -> &[bool] {
        &self.in_mis
    }

    /// The `S_t` membership bitmap.
    pub fn stable_set(&self) -> &[bool] {
        &self.stable
    }

    /// `S_t = V`: the stabilization criterion.
    pub fn is_stabilized(&self) -> bool {
        self.stable.iter().all(|&s| s)
    }

    /// Number of stable vertices `|S_t|`.
    pub fn stable_count(&self) -> usize {
        self.stable.iter().filter(|&&s| s).count()
    }

    /// `μ_t(v) = min_{u ∈ N(v)} ℓ_t(u) / ℓmax(u)` (paper §3); `1.0` for an
    /// isolated vertex (the minimum over an empty set is vacuous and the
    /// paper's stability condition `μ = 1` must hold for it).
    pub fn mu(&self, v: NodeId) -> f64 {
        self.graph
            .neighbors(v)
            .iter()
            .map(|&u| {
                let u = u as usize;
                self.levels[u] as f64 / self.lmax[u] as f64
            })
            .fold(1.0f64, f64::min)
    }

    /// Prominent vertex (Def 3.3): `ℓ_t(v) ≤ 0`.
    pub fn is_prominent(&self, v: NodeId) -> bool {
        self.levels[v] <= 0
    }

    /// Platinum round for `v` (Def 3.3): some vertex of `N⁺(v)` is
    /// prominent.
    pub fn is_platinum_for(&self, v: NodeId) -> bool {
        self.is_prominent(v)
            || self.graph.neighbors(v).iter().any(|&u| self.is_prominent(u as usize))
    }

    /// `p_t(v)`: the beeping probability implied by the level (§3).
    pub fn beep_probability(&self, v: NodeId) -> f64 {
        beep_probability(self.levels[v], self.lmax[v])
    }

    /// `d_t(v) = Σ_{u ∈ N(v)} p_t(u)`: expected number of beeping
    /// neighbors.
    pub fn d(&self, v: NodeId) -> f64 {
        self.graph.neighbors(v).iter().map(|&u| self.beep_probability(u as usize)).sum()
    }

    /// Light vertex (Def 6.1): `μ_t(v) > 0 ∧ (d_t(v) ≤ 10 ∨ ℓ_t(v) ≤ 0)`.
    pub fn is_light(&self, v: NodeId) -> bool {
        self.mu(v) > 0.0 && (self.d(v) <= 10.0 || self.levels[v] <= 0)
    }

    /// `d_t^L(v)`: the expected number of beeping **light** neighbors.
    pub fn d_light(&self, v: NodeId) -> f64 {
        self.graph
            .neighbors(v)
            .iter()
            .map(|&u| u as usize)
            .filter(|&u| self.is_light(u))
            .map(|u| self.beep_probability(u))
            .sum()
    }

    /// Golden round for `v` (Def 6.2):
    /// `(ℓ_t(v) ≤ 1 ∧ d_t(v) ≤ 0.02) ∨ d_t^L(v) > 0.001`.
    pub fn is_golden_for(&self, v: NodeId) -> bool {
        (self.levels[v] <= 1 && self.d(v) <= 0.02) || self.d_light(v) > 0.001
    }

    /// `η_t(v) = Σ_{u ∈ N(v) \ S_t} 2^{-ℓmax(u)}` (paper §3).
    pub fn eta(&self, v: NodeId) -> f64 {
        self.graph
            .neighbors(v)
            .iter()
            .map(|&u| u as usize)
            .filter(|&u| !self.stable[u])
            .map(|u| 2f64.powi(-self.lmax[u]))
            .sum()
    }

    /// `η′_t(v) = Σ_{u ∈ N(v) \ S_t : ℓmax(u) > ℓmax(v)} 2^{-ℓmax(v)}`
    /// (paper §3).
    pub fn eta_prime(&self, v: NodeId) -> f64 {
        let lv = self.lmax[v];
        self.graph
            .neighbors(v)
            .iter()
            .map(|&u| u as usize)
            .filter(|&u| !self.stable[u] && self.lmax[u] > lv)
            .map(|_| 2f64.powi(-lv))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm2::Algorithm2;
    use crate::policy::LmaxPolicy;
    use graphs::generators::classic;

    #[test]
    fn stable_mis_path() {
        let g = classic::path(5);
        let lmax = vec![4; 5];
        // 0 and 2 in MIS; 4 not yet (neighbor 3 at ℓmax but ℓ(4) = 2).
        let levels = vec![-4, 4, -4, 4, 2];
        let snap = Snapshot::new(&g, &lmax, &levels);
        assert_eq!(snap.mis(), &[true, false, true, false, false]);
        assert_eq!(snap.stable_set(), &[true, true, true, true, false]);
        assert!(!snap.is_stabilized());
        assert_eq!(snap.stable_count(), 4);
    }

    #[test]
    fn negative_level_without_silenced_neighbors_is_not_stable() {
        let g = classic::path(2);
        let lmax = vec![4, 4];
        let levels = vec![-4, -4];
        let snap = Snapshot::new(&g, &lmax, &levels);
        assert_eq!(snap.mis(), &[false, false]);
        assert!(!snap.is_stabilized());
    }

    #[test]
    fn isolated_vertex_stability() {
        let g = graphs::Graph::empty(1);
        let lmax = vec![3];
        assert!(Snapshot::new(&g, &lmax, &[-3]).is_stabilized());
        assert!(!Snapshot::new(&g, &lmax, &[3]).is_stabilized());
        let two_channel = Algorithm2::new(&g, LmaxPolicy::fixed(1, 3));
        assert!(two_channel.is_stabilized(&g, &[0]));
        assert!(!two_channel.is_stabilized(&g, &[3]));
    }

    #[test]
    fn mu_definition() {
        let g = classic::path(3);
        let lmax = vec![4, 8, 4];
        let levels = vec![2, 4, -4];
        let snap = Snapshot::new(&g, &lmax, &levels);
        // μ(1) = min(ℓ(0)/ℓmax(0), ℓ(2)/ℓmax(2)) = min(0.5, -1) = -1.
        assert!((snap.mu(1) - (-1.0)).abs() < 1e-12);
        // μ(0) = ℓ(1)/ℓmax(1) = 0.5.
        assert!((snap.mu(0) - 0.5).abs() < 1e-12);
        // Isolated vertex: μ = 1 by convention.
        let g1 = graphs::Graph::empty(1);
        let lm = vec![4];
        let lv = vec![2];
        assert_eq!(Snapshot::new(&g1, &lm, &lv).mu(0), 1.0);
    }

    #[test]
    fn prominent_and_platinum() {
        let g = classic::path(3);
        let lmax = vec![5; 3];
        let levels = vec![3, 0, 5];
        let snap = Snapshot::new(&g, &lmax, &levels);
        assert!(!snap.is_prominent(0));
        assert!(snap.is_prominent(1));
        // 0 and 2 see prominent neighbor 1; 1 is itself prominent.
        for v in 0..3 {
            assert!(snap.is_platinum_for(v));
        }
        let levels = vec![3, 2, 5];
        let snap = Snapshot::new(&g, &lmax, &levels);
        assert!(!snap.is_platinum_for(0));
    }

    #[test]
    fn d_potential() {
        let g = classic::star(4);
        let lmax = vec![6; 4];
        // Leaves at levels 1, 2, 6 → p = 0.5, 0.25, 0.
        let levels = vec![6, 1, 2, 6];
        let snap = Snapshot::new(&g, &lmax, &levels);
        assert!((snap.d(0) - 0.75).abs() < 1e-12);
        // Leaf sees only the hub (p = 0).
        assert_eq!(snap.d(1), 0.0);
    }

    #[test]
    fn light_and_golden() {
        let g = classic::path(3);
        let lmax = vec![6; 3];
        let levels = vec![6, 6, 6];
        let snap = Snapshot::new(&g, &lmax, &levels);
        // All silent: μ = 1 > 0 and d = 0 ≤ 10 → light; golden needs ℓ ≤ 1,
        // so nobody is golden via clause (a) and d_L = 0 kills clause (b).
        for v in 0..3 {
            assert!(snap.is_light(v));
            assert!(!snap.is_golden_for(v));
        }
        // ℓ(1) = 1 with silent neighbors: golden via clause (a).
        let levels = vec![6, 1, 6];
        let snap = Snapshot::new(&g, &lmax, &levels);
        assert!(snap.is_golden_for(1));
        // Its neighbors see a light beeping neighbor: d_L = 0.5 > 0.001 →
        // golden via clause (b).
        assert!(snap.is_golden_for(0));
    }

    #[test]
    fn eta_and_eta_prime() {
        let g = classic::star(3); // hub 0, leaves 1..2
        let lmax = vec![4, 6, 8];
        let levels = vec![1, 1, 1]; // nobody stable
        let snap = Snapshot::new(&g, &lmax, &levels);
        // η(0) = 2^-6 + 2^-8.
        assert!((snap.eta(0) - (2f64.powi(-6) + 2f64.powi(-8))).abs() < 1e-15);
        // η′(0): both leaves have larger ℓmax → 2 · 2^-4.
        assert!((snap.eta_prime(0) - 2.0 * 2f64.powi(-4)).abs() < 1e-15);
        // η′(1): neighbor (hub) has smaller ℓmax → 0.
        assert_eq!(snap.eta_prime(1), 0.0);
    }

    #[test]
    fn eta_excludes_stable_vertices() {
        let g = classic::path(3);
        let lmax = vec![4; 3];
        let levels = vec![4, -4, 4]; // all stable
        let snap = Snapshot::new(&g, &lmax, &levels);
        for v in 0..3 {
            assert_eq!(snap.eta(v), 0.0);
            assert_eq!(snap.eta_prime(v), 0.0);
        }
        assert!(snap.is_stabilized());
    }

    #[test]
    fn two_channel_stability() {
        let g = classic::path(3);
        let algo = Algorithm2::new(&g, LmaxPolicy::fixed(3, 5));
        assert!(algo.is_stabilized(&g, &[5, 0, 5]));
        assert!(!algo.is_stabilized(&g, &[5, 0, 4]));
        assert_eq!(algo.mis_members(&g, &[5, 0, 5]), [false, true, false]);
    }
}
