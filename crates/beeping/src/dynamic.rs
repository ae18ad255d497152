//! Dynamic-topology driver: hands each round's radius graph to a running
//! [`Simulator`].
//!
//! [`graphs::motion`] animates a geometric deployment and rebuilds the
//! radius graph each round; this module owns the glue that keeps a
//! simulator's topology synchronized with the moving deployment.
//! [`DynamicTopology::advance`] is one round of that glue: it steps the
//! mobility process and hands the new radius graph to the simulator, which
//! adopts it — a shared `Arc`, not a copy. Only `advance`'s edge counts, a
//! live Frontier engine or departed nodes need a merge of the old adjacency
//! against the new; otherwise [`DynamicTopology::advance_uncounted`]'s
//! hand-over is one graph equality test.
//!
//! The simulator keeps only the edges between active nodes. That is what
//! makes mobility compose with node churn: a departed node keeps moving
//! but its radio is off, so its radius edges are withheld until it rejoins,
//! at which point the next `advance` restores exactly the edges its
//! current position warrants. Under a dynamic topology the motion layer
//! owns the edge set, so scheduled `AddEdge`/`RemoveEdge` churn cannot
//! compose with it (`mis::resumable` rejects such a plan).
//!
//! Determinism: mobility randomness comes from a dedicated
//! [`aux_rng`] purpose stream ([`MOTION_RNG_PURPOSE`]), independent of the
//! per-node protocol streams and of the channel/Byzantine/fault streams, so
//! attaching motion to a run never perturbs the protocol's random choices,
//! and the same master seed replays the same trajectory bit for bit on
//! either round engine, with or without telemetry attached.

use std::sync::Arc;

use graphs::generators::geometric::random_points;
use graphs::motion::{Motion, MotionModel};
use graphs::{Graph, GraphError, NodeId};
use rand_pcg::Pcg64Mcg;

use crate::protocol::BeepingProtocol;
use crate::rng::{aux_rng, pcg_from_state, pcg_state};
use crate::sim::Simulator;

/// `aux_rng` purpose for the mobility stream (waypoint draws, heading
/// perturbations). Must stay distinct from every other purpose constant in
/// the workspace (lint L4 checks collisions).
pub const MOTION_RNG_PURPOSE: u64 = 0x4D0B_17E5;

/// The declarative description of a moving deployment — everything needed
/// to (re)build the initial topology and trajectory from a master seed.
/// This is configuration, not state: it goes into run configs (and their
/// snapshot fingerprints), while the evolving positions live in
/// [`MotionState`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionSpec {
    /// Seed of the uniform unit-square point cloud
    /// ([`random_points`]); the same seed reproduces the deployment a
    /// static `random_geometric` graph with that seed starts from.
    pub points_seed: u64,
    /// Connection radius of the (moving) geometric graph.
    pub radius: f64,
    /// The mobility model nodes follow.
    pub model: MotionModel,
}

impl MotionSpec {
    /// Spec over the standard uniform deployment `points_seed` with
    /// connection `radius`.
    pub fn new(points_seed: u64, radius: f64, model: MotionModel) -> MotionSpec {
        MotionSpec { points_seed, radius, model }
    }

    /// The radius graph over the initial deployment for `n` nodes — the
    /// graph a run under this spec must start from (it equals
    /// `random_geometric(n, radius, points_seed)`).
    pub fn initial_graph(&self, n: usize) -> Graph {
        graphs::generators::geometric::geometric_from_points(
            &random_points(n, self.points_seed),
            self.radius,
        )
    }
}

/// The serializable mid-flight state of a [`DynamicTopology`]: positions,
/// per-node mobility state and the motion-RNG stream position. Captured by
/// [`DynamicTopology::state`], restored by [`DynamicTopology::from_state`];
/// the radius graph is derived state and is never part of it.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionState {
    /// Current node positions.
    pub positions: Vec<(f64, f64)>,
    /// Random-waypoint targets (empty under drift).
    pub waypoints: Vec<(f64, f64)>,
    /// Remaining pause rounds per node (empty under drift).
    pub pauses: Vec<u64>,
    /// Headings in radians (empty under random waypoint).
    pub headings: Vec<f64>,
    /// Raw motion-RNG stream position (see [`crate::rng::pcg_state`]).
    pub rng_state: u128,
}

/// A mobility process bound to a dedicated RNG stream, ready to keep a
/// [`Simulator`] synchronized with the moving radius graph.
#[derive(Debug, Clone)]
pub struct DynamicTopology {
    motion: Motion,
    rng: Pcg64Mcg,
}

impl DynamicTopology {
    /// Builds the deployment described by `spec` for `n` nodes; the
    /// mobility stream is derived from `master_seed` under
    /// [`MOTION_RNG_PURPOSE`].
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if the spec's radius or model
    /// parameters are out of range.
    pub fn new(
        n: usize,
        spec: &MotionSpec,
        master_seed: u64,
    ) -> Result<DynamicTopology, GraphError> {
        Self::from_points(random_points(n, spec.points_seed), spec.radius, spec.model, master_seed)
    }

    /// Builds a deployment over explicit `points` (unit-square
    /// coordinates) — the proptest/known-deployment entry point.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] as for [`Motion::new`].
    pub fn from_points(
        points: Vec<(f64, f64)>,
        radius: f64,
        model: MotionModel,
        master_seed: u64,
    ) -> Result<DynamicTopology, GraphError> {
        let mut rng = aux_rng(master_seed, MOTION_RNG_PURPOSE);
        let motion = Motion::new(points, radius, model, &mut rng)?;
        Ok(DynamicTopology { motion, rng })
    }

    /// The radius graph over the current positions — the graph a run over
    /// this deployment starts from (all nodes active).
    pub fn graph(&self) -> &Graph {
        self.motion.graph()
    }

    /// The underlying mobility process (positions, model, radius).
    pub fn motion(&self) -> &Motion {
        &self.motion
    }

    /// One round of topology dynamics: steps the mobility process and hands
    /// the new radius graph to `sim`, which keeps the edges between two
    /// *active* nodes (a departed node stays isolated until it rejoins).
    /// Returns the `(added, removed)` edge counts of the simulator's
    /// topology.
    pub fn advance<P: BeepingProtocol>(&mut self, sim: &mut Simulator<'_, P>) -> (usize, usize) {
        self.motion.step(&mut self.rng);
        sim.adopt_graph(Arc::clone(self.motion.graph()), true).unwrap_or_default()
    }

    /// [`DynamicTopology::advance`] without the counts: the same execution,
    /// returning whether the topology changed (when `advance` counts edges).
    pub fn advance_uncounted<P: BeepingProtocol>(&mut self, sim: &mut Simulator<'_, P>) -> bool {
        self.motion.step(&mut self.rng);
        sim.adopt_graph(Arc::clone(self.motion.graph()), false).is_some()
    }

    /// The radius neighbors of `v` at its current position, restricted to
    /// nodes `active` marks as participating — the neighbor list a node
    /// rejoining a moving deployment should come back with.
    pub fn join_neighbors(&self, v: NodeId, active: &[bool]) -> Vec<NodeId> {
        self.motion
            .graph()
            .neighbors(v)
            .iter()
            .map(|&u| u as usize)
            .filter(|&u| active[u])
            .collect()
    }

    /// Captures the serializable mid-flight state (see [`MotionState`]).
    pub fn state(&self) -> MotionState {
        MotionState {
            positions: self.motion.positions().to_vec(),
            waypoints: self.motion.waypoints().to_vec(),
            pauses: self.motion.pauses().to_vec(),
            headings: self.motion.headings().to_vec(),
            rng_state: pcg_state(&self.rng),
        }
    }

    /// Rebuilds a mid-flight deployment from a captured [`MotionState`]
    /// under `spec` — the snapshot-resume entry point. Continuations from
    /// the rebuilt value replay the original trajectory bit for bit.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if the state's vectors do not match
    /// the spec's model or the spec parameters are out of range.
    pub fn from_state(
        spec: &MotionSpec,
        state: &MotionState,
    ) -> Result<DynamicTopology, GraphError> {
        let motion = Motion::from_parts(
            spec.model,
            spec.radius,
            state.positions.clone(),
            state.waypoints.clone(),
            state.pauses.clone(),
            state.headings.clone(),
        )?;
        Ok(DynamicTopology { motion, rng: pcg_from_state(state.rng_state) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{BeepSignal, Channels};
    use crate::sim::tests::Claimer;
    use crate::sim::{EngineMode, WorkCounters};
    use std::collections::BTreeSet;

    /// Parity protocol: beep iff the counter is even; increment on hearing.
    struct Parity;
    impl BeepingProtocol for Parity {
        type State = u64;
        fn channels(&self) -> Channels {
            Channels::One
        }
        fn transmit(&self, _: NodeId, state: &u64, _: &mut Pcg64Mcg) -> BeepSignal {
            if state.is_multiple_of(2) {
                BeepSignal::channel1()
            } else {
                BeepSignal::silent()
            }
        }
        fn receive(
            &self,
            _: NodeId,
            state: &mut u64,
            _: BeepSignal,
            heard: BeepSignal,
            _: &mut Pcg64Mcg,
        ) {
            if heard.on_channel1() {
                *state += 1;
            }
        }
    }

    fn spec(speed: f64) -> MotionSpec {
        MotionSpec::new(0x600D, 0.2, MotionModel::RandomWaypoint { speed, pause: 1 })
    }

    #[test]
    fn advance_keeps_sim_graph_equal_to_radius_graph() {
        let spec = spec(0.05);
        let mut dt = DynamicTopology::new(24, &spec, 42).unwrap();
        let g0 = dt.graph().clone();
        let mut sim = Simulator::new(&g0, Parity, vec![0; 24], 42);
        for _ in 0..30 {
            dt.advance(&mut sim);
            assert_eq!(sim.graph(), dt.graph());
            sim.step();
        }
    }

    /// The edges of `g` between two nodes `active` marks as participating.
    fn restricted_edges(g: &Graph, active: &[bool]) -> BTreeSet<(NodeId, NodeId)> {
        g.edges().filter(|&(u, v)| active[u] && active[v]).collect()
    }

    #[test]
    fn advance_reports_the_radius_graph_edge_changes() {
        // Drift moves every node every round; each advance must leave the
        // simulator on the new radius graph restricted to the active nodes
        // and report exactly the set differences between consecutive
        // restricted graphs — also while two nodes are away and after one
        // of them rejoins.
        let model = MotionModel::Drift { speed: 0.05, turn: 0.7 };
        let radius = graphs::generators::geometric::radius_for_expected_degree(50, 6.0);
        let mut dt = DynamicTopology::from_points(random_points(50, 11), radius, model, 4).unwrap();
        let g0 = dt.graph().clone();
        let mut sim = Simulator::new(&g0, Parity, vec![0; 50], 4);
        let mut changed = 0;
        for round in 0..60 {
            if round == 15 {
                sim.node_leave(7).unwrap();
                sim.node_leave(30).unwrap();
            }
            if round == 35 {
                let neighbors = dt.join_neighbors(7, sim.active());
                sim.node_join(7, &neighbors, 0).unwrap();
            }
            let before = restricted_edges(dt.graph(), sim.active());
            assert_eq!(sim.graph().edges().collect::<BTreeSet<_>>(), before);
            let counts = dt.advance(&mut sim);
            let after = restricted_edges(dt.graph(), sim.active());
            assert_eq!(sim.graph(), &Graph::from_edges(50, after.iter().copied()).unwrap());
            let diff = (after.difference(&before).count(), before.difference(&after).count());
            assert_eq!(counts, diff, "round {round}");
            changed += diff.0 + diff.1;
            sim.step();
        }
        assert!(changed > 0, "drift at speed 0.05 must change some edges");
        assert_eq!(sim.graph().degree(30), 0, "a departed node stays isolated");
    }

    #[test]
    fn frontier_motion_work_and_edge_changes_are_pinned() {
        // Golden pin over a Drift deployment with a leave and a rejoin. The
        // frontier engine's work counters depend on exactly which nodes
        // each topology update unsettles, and the digest of the per-round
        // `(added, removed)` counts on exactly which edges change.
        let n = 64;
        let model = MotionModel::Drift { speed: 0.001, turn: 0.5 };
        let radius = graphs::generators::geometric::radius_for_expected_degree(n, 6.0);
        let mut dt = DynamicTopology::from_points(random_points(n, 5), radius, model, 9).unwrap();
        let g0 = dt.graph().clone();
        let init: Vec<u64> = (0..n as u64).map(|v| v % 6).collect();
        let mut sim = Simulator::new(&g0, Claimer, init, 9).with_engine(EngineMode::Frontier);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for round in 0..120 {
            if round == 30 {
                sim.node_leave(11).unwrap();
            }
            if round == 70 {
                let neighbors = dt.join_neighbors(11, sim.active());
                sim.node_join(11, &neighbors, 3).unwrap();
            }
            let (added, removed) = dt.advance(&mut sim);
            for x in [added as u64, removed as u64] {
                digest = (digest ^ x).wrapping_mul(0x0100_0000_01b3);
            }
            sim.step();
        }
        assert_eq!(sim.work(), WorkCounters { node_execs: 6131, edge_visits: 8396 });
        assert_eq!(digest, 0x1b60_546d_1aa6_e50a);
    }

    #[test]
    fn advance_is_deterministic_per_seed() {
        let spec = spec(0.04);
        let mut a = DynamicTopology::new(20, &spec, 7).unwrap();
        let mut b = DynamicTopology::new(20, &spec, 7).unwrap();
        let g0 = a.graph().clone();
        let mut sa = Simulator::new(&g0, Parity, vec![0; 20], 7);
        let mut sb = Simulator::new(&g0, Parity, vec![0; 20], 7);
        for _ in 0..40 {
            assert_eq!(a.advance(&mut sa), b.advance(&mut sb));
            sa.step();
            sb.step();
            assert_eq!(sa.states(), sb.states());
        }
        // A different master seed yields a different trajectory.
        let mut c = DynamicTopology::new(20, &spec, 8).unwrap();
        let gc = c.graph().clone();
        let mut sc = Simulator::new(&gc, Parity, vec![0; 20], 8);
        let mut diverged = false;
        for _ in 0..40 {
            c.advance(&mut sc);
            a.advance(&mut sa);
            if sc.graph() != sa.graph() {
                diverged = true;
                break;
            }
            sc.step();
            sa.step();
        }
        assert!(diverged, "independent seeds should move nodes differently");
    }

    #[test]
    fn departed_nodes_get_no_edges_until_rejoin() {
        let spec = spec(0.03);
        let mut dt = DynamicTopology::new(16, &spec, 3).unwrap();
        let g0 = dt.graph().clone();
        let mut sim = Simulator::new(&g0, Parity, vec![0; 16], 3);
        sim.node_leave(5).unwrap();
        for _ in 0..20 {
            dt.advance(&mut sim);
            assert_eq!(sim.graph().degree(5), 0, "departed node must stay isolated");
            sim.step();
        }
        // Rejoin with the motion-aware neighbor list: the sim graph matches
        // the active-restricted radius graph again.
        let neighbors = dt.join_neighbors(5, sim.active());
        sim.node_join(5, &neighbors, 0).unwrap();
        dt.advance(&mut sim);
        assert_eq!(sim.graph(), dt.graph());
    }

    #[test]
    fn state_round_trip_replays_identically() {
        // Twin runs with the same seed; at round 15 the second driver is
        // torn down and rebuilt from its captured state. The continuations
        // must stay bit-identical.
        let spec = spec(0.05);
        let mut dt = DynamicTopology::new(18, &spec, 11).unwrap();
        let mut twin = DynamicTopology::new(18, &spec, 11).unwrap();
        let g0 = dt.graph().clone();
        let mut sim = Simulator::new(&g0, Parity, vec![0; 18], 11);
        let mut sim2 = Simulator::new(&g0, Parity, vec![0; 18], 11);
        for _ in 0..15 {
            dt.advance(&mut sim);
            twin.advance(&mut sim2);
            sim.step();
            sim2.step();
        }
        let captured = twin.state();
        assert_eq!(captured, dt.state());
        let mut resumed = DynamicTopology::from_state(&spec, &captured).unwrap();
        assert_eq!(resumed.graph(), dt.graph());
        for _ in 0..15 {
            assert_eq!(dt.advance(&mut sim), resumed.advance(&mut sim2));
            sim.step();
            sim2.step();
            assert_eq!(sim.states(), sim2.states());
            assert_eq!(sim.graph(), sim2.graph());
        }
    }

    #[test]
    fn from_state_rejects_mismatched_model() {
        let dt = DynamicTopology::new(8, &spec(0.05), 1).unwrap();
        let state = dt.state();
        let drift = MotionSpec::new(0x600D, 0.2, MotionModel::Drift { speed: 0.05, turn: 0.3 });
        assert!(DynamicTopology::from_state(&drift, &state).is_err());
    }
}
