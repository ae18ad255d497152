//! # beeping-mis
//!
//! A production-quality Rust reproduction of
//! *"Self-Stabilizing MIS Computation in the Beeping Model"*
//! (Giakkoupis, Turau & Ziccardi, PODC 2024).
//!
//! This facade crate re-exports the workspace:
//!
//! - [`graphs`]: graph substrate (CSR graphs, generators, MIS verification);
//! - [`beeping`]: the beeping-model simulator (full-duplex collision
//!   detection, two channels, transient-fault injection);
//! - [`mis`]: the paper's contribution — Algorithm 1 and Algorithm 2 with
//!   the three `ℓmax` knowledge policies, plus instrumentation mirroring the
//!   paper's analysis (platinum/golden rounds, η/η′, stable sets);
//! - [`baselines`]: comparators (Jeavons–Scott–Xu, Afek et al., Luby,
//!   sequential greedy);
//! - [`analysis`]: statistics, regression fits and table formatting for the
//!   experiments.
//!
//! ## Quickstart
//!
//! ```
//! use beeping_mis::prelude::*;
//!
//! // A 200-node random geometric graph (a wireless sensor deployment).
//! let g = graphs::generators::geometric::random_geometric_expected_degree(200, 8.0, 42);
//!
//! // Run Algorithm 1 with global-Δ knowledge (Theorem 2.1) from an
//! // arbitrary (adversarial) initial configuration.
//! let outcome = Algorithm1::new(&g, LmaxPolicy::global_delta(&g))
//!     .run(&g, RunConfig::new(42).with_init(InitialLevels::Random))
//!     .expect("stabilizes well within the default round budget");
//!
//! assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
//! println!("stabilized in {} rounds", outcome.stabilization_round);
//! ```

pub use analysis;
pub use baselines;
pub use beeping;
pub use graphs;
pub use mis;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use analysis;
    pub use baselines;
    pub use beeping;
    pub use graphs;
    pub use mis;

    pub use beeping::byzantine::{ByzantineBehavior, ByzantinePlan};
    pub use beeping::faults::{FaultError, FaultPlan, FaultTarget, TransientFault};
    pub use beeping::trace::RoundReport;
    pub use beeping::{BeepSignal, BeepingProtocol, Channels, EngineMode, Simulator};
    pub use graphs::{Graph, GraphBuilder};
    pub use mis::algorithm1::Algorithm1;
    pub use mis::algorithm2::Algorithm2;
    pub use mis::policy::LmaxPolicy;
    pub use mis::runner::{InitialLevels, Outcome, RunConfig, RunError, StabilizationError};
}
