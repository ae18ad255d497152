//! Resilient run harness for long experiments: durable checkpoint/resume,
//! supervised budgets, panic isolation and a crash-injection test rig.
//!
//! The paper's experiments (PERF/SCALE sweeps, Byzantine containment
//! scans) can run for hours; before this crate, a crash at round ten
//! million lost everything. The harness closes that gap in three layers:
//!
//! - [`snapshot`] — a versioned, checksummed binary file format for
//!   [`mis::resumable::RunCheckpoint`]: every RNG stream position, the
//!   participation bitmap, the channel window, the event cursor and the
//!   accumulated trace, with the (possibly churned) topology in a
//!   content-addressed file of its own that is written once per graph. Loading never panics;
//!   every defect is a typed [`snapshot::SnapshotError`]. A configuration
//!   fingerprint refuses to resume a snapshot under different plans.
//! - [`supervisor`] — drives a [`mis::resumable::ResumableRun`] in
//!   checkpoint-aligned chunks under [`std::panic::catch_unwind`], with a
//!   round budget, a [`telemetry::Stopwatch`] wall-clock watchdog,
//!   periodic durable snapshots and bounded retry-with-resume; ends in a
//!   typed [`supervisor::RunOutcome`].
//! - [`crash`] — the test rig: kill a run at an exact round, resume it
//!   from disk, and compare bit-for-bit against an uninterrupted run;
//!   plus file-corruption helpers for the snapshot-integrity suites.
//!
//! ```
//! use graphs::generators::random;
//! use harness::supervisor::{supervise, RunOutcome, SupervisorConfig};
//! use mis::resumable::ResumableConfig;
//! use mis::{Algorithm1, LmaxPolicy};
//!
//! let g = random::gnp(64, 0.1, 3);
//! let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
//! let outcome = supervise(&g, &algo, ResumableConfig::new(3), &SupervisorConfig::new());
//! assert!(matches!(outcome, Ok(RunOutcome::Completed(_))));
//! ```

pub mod crash;
pub mod snapshot;
pub mod supervisor;

pub use crash::{flip_bit, killed_then_resumed, truncate_file, KillReport};
pub use snapshot::{config_fingerprint, SnapshotError};
pub use supervisor::{supervise, supervise_resume, RunOutcome, SupervisorConfig, SupervisorError};
