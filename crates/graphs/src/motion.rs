//! Mobility models over geometric deployments: the dynamic-topology
//! substrate.
//!
//! The beeping model was introduced for wireless/ad-hoc networks whose
//! topology *drifts* (Cornejo–Haeupler–Kuhn), yet a static geometric graph
//! freezes the deployment at time zero. This module animates the point
//! cloud behind [`crate::generators::geometric`]: a [`Motion`] holds the
//! node positions plus per-node mobility state, and each [`Motion::step`]
//! moves every node one round and rebuilds the radius graph with
//! [`geometric_from_points`]. The graph is held in an [`Arc`], so a
//! consumer can adopt it without a copy (`beeping::dynamic` hands it to a
//! simulator every round); a step that moves no node keeps it, and none
//! mutates it.
//!
//! Two classic models are provided:
//!
//! - [`MotionModel::RandomWaypoint`]: each node walks toward a uniformly
//!   drawn waypoint at constant speed, pauses on arrival, then draws the
//!   next waypoint (Johnson–Maltz). The fleet mixes globally.
//! - [`MotionModel::Drift`]: each node follows a heading that random-walks
//!   by a bounded turn per round and reflects off the unit-square walls — a
//!   correlated local wander where neighborhoods change smoothly.
//!
//! Determinism: all randomness is drawn from the single `Pcg64Mcg` the
//! caller passes in (the driver derives it from a dedicated `aux_rng`
//! purpose stream), draws happen in node order, and the movement
//! arithmetic is plain IEEE-754 evaluated in a fixed order — the same
//! seed replays the same trajectory bit for bit, which is what lets
//! supervised runs snapshot and resume a moving graph mid-flight.

use std::sync::Arc;

use rand::Rng;
use rand_pcg::Pcg64Mcg;

use crate::generators::geometric::geometric_from_points;
use crate::{Graph, GraphError};

/// How nodes move, per round, inside the unit square.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MotionModel {
    /// Walk toward a uniform waypoint at `speed` per round; on arrival,
    /// pause `pause` rounds, then draw the next waypoint.
    RandomWaypoint {
        /// Distance travelled per round (unit-square units).
        speed: f64,
        /// Rounds spent stationary after reaching a waypoint.
        pause: u64,
    },
    /// Move `speed` per round along a heading that random-walks by a
    /// uniform perturbation in `[-turn, turn]` radians each round,
    /// reflecting off the unit-square walls.
    Drift {
        /// Distance travelled per round (unit-square units).
        speed: f64,
        /// Maximum heading change per round, in radians.
        turn: f64,
    },
}

impl MotionModel {
    /// The per-round travel distance of the model.
    pub fn speed(&self) -> f64 {
        match *self {
            MotionModel::RandomWaypoint { speed, .. } | MotionModel::Drift { speed, .. } => speed,
        }
    }

    /// Short label for tables and certificates (`"rwp"` / `"drift"`).
    pub fn label(&self) -> &'static str {
        match self {
            MotionModel::RandomWaypoint { .. } => "rwp",
            MotionModel::Drift { .. } => "drift",
        }
    }

    fn validate(&self) -> Result<(), GraphError> {
        let speed = self.speed();
        if !(0.0..=1.0).contains(&speed) {
            return Err(GraphError::InvalidParameter(format!(
                "motion speed must be in [0, 1], got {speed}"
            )));
        }
        if let MotionModel::Drift { turn, .. } = *self {
            if !turn.is_finite() || turn < 0.0 {
                return Err(GraphError::InvalidParameter(format!(
                    "drift turn must be finite and non-negative, got {turn}"
                )));
            }
        }
        Ok(())
    }
}

/// A moving geometric deployment: node positions, per-node mobility state
/// and the current radius graph, advanced one synchronous round at a time
/// by [`Motion::step`].
#[derive(Debug, Clone)]
pub struct Motion {
    model: MotionModel,
    radius: f64,
    positions: Vec<(f64, f64)>,
    /// Random-waypoint targets (empty under [`MotionModel::Drift`]).
    waypoints: Vec<(f64, f64)>,
    /// Remaining pause rounds per node (empty under [`MotionModel::Drift`]).
    pauses: Vec<u64>,
    /// Headings in radians (empty under [`MotionModel::RandomWaypoint`]).
    headings: Vec<f64>,
    graph: Arc<Graph>,
}

impl Motion {
    /// Starts a mobility process over `points` (unit-square coordinates,
    /// e.g. from [`crate::generators::geometric::random_points`]) with
    /// connection `radius`. Initial waypoints/headings are drawn from
    /// `rng` in node order (two `f64` per node for random waypoint, one
    /// for drift), then the parts go through [`Motion::from_parts`], so
    /// both accept the same states.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if the radius is not finite and
    /// non-negative, the model parameters are out of range, or a point
    /// lies outside the unit square.
    pub fn new(
        points: Vec<(f64, f64)>,
        radius: f64,
        model: MotionModel,
        rng: &mut Pcg64Mcg,
    ) -> Result<Motion, GraphError> {
        let n = points.len();
        let (mut waypoints, mut headings) = (Vec::new(), Vec::new());
        let mut pauses = Vec::new();
        match model {
            MotionModel::RandomWaypoint { .. } => {
                waypoints = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
                pauses = vec![0u64; n];
            }
            MotionModel::Drift { .. } => {
                headings = (0..n).map(|_| rng.gen::<f64>() * 2.0 * std::f64::consts::PI).collect();
            }
        }
        Motion::from_parts(model, radius, points, waypoints, pauses, headings)
    }

    /// Reassembles a mobility process from externally held parts — the
    /// inverse of the accessor set, used by durable-snapshot codecs to
    /// resume a moving graph. The radius graph is recomputed from the
    /// positions (it is derived state, never serialized).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if the parameters are out of range,
    /// the per-node vectors do not match the model (random waypoint needs
    /// `waypoints` and `pauses` covering every node and no `headings`;
    /// drift needs `headings` only), a position or waypoint lies outside
    /// the unit square, or a heading is not finite.
    pub fn from_parts(
        model: MotionModel,
        radius: f64,
        positions: Vec<(f64, f64)>,
        waypoints: Vec<(f64, f64)>,
        pauses: Vec<u64>,
        headings: Vec<f64>,
    ) -> Result<Motion, GraphError> {
        model.validate()?;
        if !radius.is_finite() || radius < 0.0 {
            return Err(GraphError::InvalidParameter(format!(
                "motion radius must be finite and non-negative, got {radius}"
            )));
        }
        let n = positions.len();
        let expect = |name: &str, len: usize, want: usize| -> Result<(), GraphError> {
            if len != want {
                return Err(GraphError::InvalidParameter(format!(
                    "motion {name} covers {len} nodes but positions covers {want}"
                )));
            }
            Ok(())
        };
        match model {
            MotionModel::RandomWaypoint { .. } => {
                expect("waypoints", waypoints.len(), n)?;
                expect("pauses", pauses.len(), n)?;
                expect("headings", headings.len(), 0)?;
            }
            MotionModel::Drift { .. } => {
                expect("waypoints", waypoints.len(), 0)?;
                expect("pauses", pauses.len(), 0)?;
                expect("headings", headings.len(), n)?;
            }
        }
        for (what, points) in [("position", &positions), ("waypoint", &waypoints)] {
            for (v, &(x, y)) in points.iter().enumerate() {
                if !(0.0..=1.0).contains(&x) || !(0.0..=1.0).contains(&y) {
                    return Err(GraphError::InvalidParameter(format!(
                        "node {v} {what} ({x}, {y}) is outside the unit square"
                    )));
                }
            }
        }
        if let Some((v, h)) = headings.iter().enumerate().find(|(_, h)| !h.is_finite()) {
            return Err(GraphError::InvalidParameter(format!(
                "node {v} heading {h} is not finite"
            )));
        }
        let graph = Arc::new(geometric_from_points(&positions, radius));
        Ok(Motion { model, radius, positions, waypoints, pauses, headings, graph })
    }

    /// Number of nodes in the deployment.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` for an empty deployment.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The mobility model driving the deployment.
    pub fn model(&self) -> MotionModel {
        self.model
    }

    /// The connection radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Current node positions.
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Current random-waypoint targets (empty under drift).
    pub fn waypoints(&self) -> &[(f64, f64)] {
        &self.waypoints
    }

    /// Remaining pause rounds per node (empty under drift).
    pub fn pauses(&self) -> &[u64] {
        &self.pauses
    }

    /// Current headings in radians (empty under random waypoint).
    pub fn headings(&self) -> &[f64] {
        &self.headings
    }

    /// The radius graph over the current positions, shared: clone the
    /// `Arc` to keep it past the next [`Motion::step`], which may replace it.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Advances every node one round and rebuilds the radius graph over
    /// the new positions if any moved. Randomness (new waypoints on
    /// arrival, heading perturbations) is drawn from `rng` in node order.
    pub fn step(&mut self, rng: &mut Pcg64Mcg) {
        let mut moved = false;
        match self.model {
            MotionModel::RandomWaypoint { speed, pause } => {
                for v in 0..self.positions.len() {
                    if self.pauses[v] > 0 {
                        self.pauses[v] -= 1;
                        continue;
                    }
                    let (x, y) = self.positions[v];
                    let (wx, wy) = self.waypoints[v];
                    let (dx, dy) = (wx - x, wy - y);
                    let dist = (dx * dx + dy * dy).sqrt();
                    let next = if dist <= speed {
                        // Arrived: snap to the waypoint, draw the next one.
                        self.waypoints[v] = (rng.gen::<f64>(), rng.gen::<f64>());
                        self.pauses[v] = pause;
                        (wx, wy)
                    } else {
                        (x + dx / dist * speed, y + dy / dist * speed)
                    };
                    moved |= next != (x, y);
                    self.positions[v] = next;
                }
            }
            MotionModel::Drift { speed, turn } => {
                for v in 0..self.positions.len() {
                    // One draw per node per round regardless of parameters,
                    // so the stream layout is independent of `turn`.
                    let delta = rng.gen::<f64>() * 2.0 * turn - turn;
                    let mut heading = self.headings[v] + delta;
                    let (mut x, mut y) = self.positions[v];
                    x += speed * heading.cos();
                    y += speed * heading.sin();
                    if x < 0.0 {
                        x = -x;
                        heading = std::f64::consts::PI - heading;
                    } else if x > 1.0 {
                        x = 2.0 - x;
                        heading = std::f64::consts::PI - heading;
                    }
                    if y < 0.0 {
                        y = -y;
                        heading = -heading;
                    } else if y > 1.0 {
                        y = 2.0 - y;
                        heading = -heading;
                    }
                    // A single reflection covers speed ≤ 1; clamp guards the
                    // corner where both reflections land marginally outside.
                    let next = (x.clamp(0.0, 1.0), y.clamp(0.0, 1.0));
                    moved |= next != self.positions[v];
                    self.positions[v] = next;
                    self.headings[v] = heading;
                }
            }
        }
        if moved {
            self.graph = Arc::new(geometric_from_points(&self.positions, self.radius));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::geometric::{radius_for_expected_degree, random_points};

    fn rng(seed: u64) -> Pcg64Mcg {
        crate::generators::rng_from_seed(seed)
    }

    fn rwp(speed: f64) -> MotionModel {
        MotionModel::RandomWaypoint { speed, pause: 2 }
    }

    #[test]
    fn deterministic_replay() {
        let points = random_points(60, 9);
        let r = radius_for_expected_degree(60, 6.0);
        let mut a = Motion::new(points.clone(), r, rwp(0.03), &mut rng(1)).unwrap();
        let mut b = Motion::new(points, r, rwp(0.03), &mut rng(1)).unwrap();
        for _ in 0..50 {
            a.step(&mut rng(0));
            b.step(&mut rng(0));
            assert_eq!(a.positions(), b.positions());
            assert_eq!(a.graph(), b.graph());
        }
        // Same seed, fresh rng per run: full trajectories must agree.
        let points = random_points(60, 9);
        let (mut r1, mut r2) = (rng(7), rng(7));
        let mut a = Motion::new(points.clone(), r, rwp(0.03), &mut r1).unwrap();
        let mut b = Motion::new(points, r, rwp(0.03), &mut r2).unwrap();
        for _ in 0..50 {
            a.step(&mut r1);
            b.step(&mut r2);
            assert_eq!(a.positions(), b.positions());
            assert_eq!(a.graph(), b.graph());
        }
    }

    #[test]
    fn zero_speed_is_static() {
        let points = random_points(40, 3);
        let r = radius_for_expected_degree(40, 5.0);
        let mut m = Motion::new(points.clone(), r, rwp(0.0), &mut rng(2)).unwrap();
        let g0 = Graph::clone(m.graph());
        for _ in 0..20 {
            m.step(&mut rng(0));
            assert_eq!(**m.graph(), g0);
            assert_eq!(m.positions(), &points[..]);
        }
    }

    #[test]
    fn a_step_that_moves_no_node_keeps_the_graph() {
        let points = random_points(40, 3);
        let r = radius_for_expected_degree(40, 5.0);
        let drift = |speed| MotionModel::Drift { speed, turn: 0.4 };
        for model in [rwp(0.0), drift(0.0)] {
            let mut stream = rng(4);
            let mut m = Motion::new(points.clone(), r, model, &mut stream).unwrap();
            let first = Arc::clone(m.graph());
            for _ in 0..20 {
                m.step(&mut stream);
                assert!(Arc::ptr_eq(m.graph(), &first), "{model:?}");
                assert_eq!(**m.graph(), geometric_from_points(m.positions(), r));
            }
        }
        for model in [rwp(0.03), drift(0.03)] {
            let mut stream = rng(4);
            let mut m = Motion::new(points.clone(), r, model, &mut stream).unwrap();
            for _ in 0..20 {
                let before = Arc::clone(m.graph());
                m.step(&mut stream);
                assert!(!Arc::ptr_eq(m.graph(), &before), "{model:?}");
                assert_eq!(**m.graph(), geometric_from_points(m.positions(), r));
            }
        }
    }

    #[test]
    fn positions_stay_in_unit_square() {
        let points = random_points(30, 5);
        let mut stream = rng(6);
        let mut m =
            Motion::new(points, 0.2, MotionModel::Drift { speed: 0.4, turn: 3.0 }, &mut stream)
                .unwrap();
        for _ in 0..200 {
            m.step(&mut stream);
            for &(x, y) in m.positions() {
                assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y), "({x}, {y})");
            }
        }
    }

    #[test]
    fn waypoint_walk_makes_progress() {
        let points = vec![(0.0, 0.0); 8];
        let mut stream = rng(8);
        let mut m = Motion::new(points, 0.1, rwp(0.02), &mut stream).unwrap();
        for _ in 0..100 {
            m.step(&mut stream);
        }
        // After 100 rounds at speed 0.02 essentially every node has left the
        // origin corner.
        assert!(m.positions().iter().any(|&(x, y)| x > 0.05 || y > 0.05));
    }

    #[test]
    fn from_parts_round_trips() {
        let points = random_points(25, 13);
        let r = radius_for_expected_degree(25, 4.0);
        let mut stream = rng(10);
        let mut m = Motion::new(points, r, rwp(0.05), &mut stream).unwrap();
        for _ in 0..10 {
            m.step(&mut stream);
        }
        let rebuilt = Motion::from_parts(
            m.model(),
            m.radius(),
            m.positions().to_vec(),
            m.waypoints().to_vec(),
            m.pauses().to_vec(),
            m.headings().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.graph(), m.graph());
        // Continuations agree bit for bit.
        let mut cont = rng(99);
        let mut cont2 = cont.clone();
        let mut m2 = rebuilt;
        for _ in 0..10 {
            m.step(&mut cont);
            m2.step(&mut cont2);
            assert_eq!(m.positions(), m2.positions());
            assert_eq!(m.graph(), m2.graph());
        }
    }

    #[test]
    fn from_parts_rejects_mismatched_vectors() {
        let err = Motion::from_parts(rwp(0.1), 0.1, vec![(0.5, 0.5); 4], vec![], vec![], vec![]);
        assert!(matches!(err, Err(GraphError::InvalidParameter(_))));
        let err = Motion::from_parts(
            MotionModel::Drift { speed: 0.1, turn: 0.1 },
            0.1,
            vec![(0.5, 0.5); 4],
            vec![],
            vec![],
            vec![0.0; 3],
        );
        assert!(matches!(err, Err(GraphError::InvalidParameter(_))));
    }

    #[test]
    fn from_parts_rejects_what_new_rejects() {
        let drift = MotionModel::Drift { speed: 0.1, turn: 0.1 };
        let at = |p: (f64, f64)| vec![(0.5, 0.5), p];
        for bad in [(2.0, 0.5), (0.5, -0.1), (f64::NAN, 0.5), (0.5, f64::INFINITY)] {
            let err = Motion::from_parts(drift, 0.1, at(bad), vec![], vec![], vec![0.0; 2]);
            assert!(matches!(err, Err(GraphError::InvalidParameter(_))), "position {bad:?}");
            assert!(Motion::new(at(bad), 0.1, drift, &mut rng(1)).is_err(), "position {bad:?}");
            let err =
                Motion::from_parts(rwp(0.1), 0.1, at((0.5, 0.5)), at(bad), vec![0; 2], vec![]);
            assert!(matches!(err, Err(GraphError::InvalidParameter(_))), "waypoint {bad:?}");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err =
                Motion::from_parts(drift, 0.1, at((0.5, 0.5)), vec![], vec![], vec![0.0, bad]);
            assert!(matches!(err, Err(GraphError::InvalidParameter(_))), "heading {bad}");
        }
        // The closed square's corners and any finite heading are accepted.
        let corners = vec![(0.0, 0.0), (1.0, 1.0)];
        let ok = Motion::from_parts(drift, 0.1, corners.clone(), vec![], vec![], vec![-40.0, 7.5]);
        assert!(ok.is_ok());
        let ok = Motion::from_parts(rwp(0.1), 0.1, corners.clone(), corners, vec![0; 2], vec![]);
        assert!(ok.is_ok());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut r = rng(1);
        assert!(Motion::new(vec![(0.5, 0.5)], -0.1, rwp(0.1), &mut r).is_err());
        assert!(Motion::new(vec![(0.5, 0.5)], 0.1, rwp(1.5), &mut r).is_err());
        assert!(Motion::new(vec![(1.5, 0.5)], 0.1, rwp(0.1), &mut r).is_err());
        assert!(Motion::new(
            vec![(0.5, 0.5)],
            0.1,
            MotionModel::Drift { speed: 0.1, turn: -1.0 },
            &mut r
        )
        .is_err());
    }
}
