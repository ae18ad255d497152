//! Baseline MIS algorithms the paper positions itself against (§1).
//!
//! - [`jeavons`]: the original Jeavons–Scott–Xu beeping algorithm \[17\] —
//!   same O(log n) run-time from a clean start, but **not** self-stabilizing
//!   (it needs `p₁(v) = ½` and phase synchronization modulo 2). The
//!   adversarial-initialization experiment demonstrates exactly the failure
//!   modes §2 of the paper describes.
//! - [`afek`]: an epoch-structured beeping MIS with knowledge of an upper
//!   bound `N ≥ n`, structurally faithful to Afek et al. \[1\]. Its round
//!   complexity carries the `Θ(log N)`-per-epoch factor that the paper's
//!   algorithm avoids.
//! - [`two_state`]: a constant-state self-stabilizing beeping MIS in the
//!   spirit of Giakkoupis & Ziccardi \[16\] — poly-log on some families,
//!   degrading where the paper's level ladder pays off.
//! - [`stone_age`]: the Stone Age model of Emek & Wattenhofer (bounded
//!   counting over a finite alphabet), with an executable embedding of the
//!   beeping model (`b = 1`, two letters) cross-validated bit-for-bit
//!   against the native simulator.
//! - [`local`]: a minimal synchronous message-passing (LOCAL-model)
//!   substrate, built so that classic comparators can run next to the
//!   beeping algorithms.
//! - [`luby`]: Luby's algorithm on that substrate — the gold-standard
//!   O(log n)-round distributed MIS with full message passing, marking the
//!   "how much does the weak beeping model cost" reference line.
//!
//! The beeping baselines run on [`mis::RunLoop`], judged by their own
//! [`mis::Judge`]; the LOCAL and Stone Age substrates keep their own loops.
//!
//! Sequential ground truth (greedy) lives in [`graphs::mis`].

pub mod afek;
pub mod jeavons;
pub mod local;
pub mod luby;
pub mod stone_age;
pub mod two_state;

pub use afek::AfekStyleMis;
pub use jeavons::{JsxMis, JsxState, JsxStatus};
pub use luby::luby_mis;
pub use two_state::TwoStateMis;
