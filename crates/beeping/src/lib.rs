//! Discrete synchronous simulator for the **full-duplex beeping model with
//! collision detection** (also: "beeping model", Cornejo & Kuhn 2010), the
//! communication model of the reproduced paper.
//!
//! Model semantics (paper §1):
//!
//! - The network is an anonymous undirected graph; computation proceeds in
//!   synchronous rounds.
//! - In each round every node may *beep* (broadcast a signal to all
//!   neighbors) or stay silent.
//! - After transmission, a node learns exactly one bit per channel: whether
//!   **at least one** neighbor beeped. It cannot count beeps or identify
//!   senders. Full duplex: a beeping node still hears its neighbors (but not
//!   itself — the signal goes to neighbors only).
//! - An optional extension provides **two distinguishable channels**
//!   (paper §7); the bit is learned independently per channel.
//!
//! The crate provides:
//!
//! - [`protocol::BeepingProtocol`]: the node-automaton interface protocols
//!   implement;
//! - [`sim::Simulator`]: round execution over a [`graphs::Graph`] with
//!   deterministic per-node randomness;
//! - [`faults`]: the transient-fault model of the paper (§1.1): node state
//!   (RAM) can be corrupted arbitrarily, code (ROM) cannot;
//! - [`channel`]: the unreliable-channel adversary — beep loss, spurious
//!   beeps, Gilbert burst noise and jammer nodes — applied between the
//!   network's OR-aggregation and each node's `receive`;
//! - [`churn`]: scheduled topology churn (edge insert/delete, node
//!   leave/join) applied to a copy-on-write graph mid-execution;
//! - [`dynamic`]: the mobility driver — keeps a simulator's topology
//!   synchronized with a moving geometric deployment
//!   ([`graphs::motion`]) by handing it each round's radius graph;
//! - [`byzantine`]: permanently deviating nodes — stuck beepers, babblers,
//!   crash-restart reboots and channel-2 liars — overriding the protocol's
//!   radio behavior inside the round loop;
//! - [`trace`]: per-round observations for the analysis experiments;
//! - [`rng`]: deterministic per-node random streams.
//!
//! The four fault axes — RAM corruption, channel noise, topology churn,
//! Byzantine behavior — are orthogonal and compose; see `DESIGN.md`
//! ("Fault & adversary model").
//!
//! # Example
//!
//! ```
//! use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
//! use beeping::sim::Simulator;
//!
//! /// Toy protocol: everyone beeps every round.
//! struct AlwaysBeep;
//! impl BeepingProtocol for AlwaysBeep {
//!     type State = ();
//!     fn channels(&self) -> Channels { Channels::One }
//!     fn transmit(&self, _: usize, _: &(), _: &mut rand_pcg::Pcg64Mcg) -> BeepSignal {
//!         BeepSignal::channel1()
//!     }
//!     fn receive(&self, _: usize, _: &mut (), _: BeepSignal, heard: BeepSignal, _: &mut rand_pcg::Pcg64Mcg) {
//!         assert!(heard.on_channel1()); // in a connected graph everyone hears
//!     }
//! }
//!
//! let g = graphs::generators::classic::cycle(8);
//! let mut sim = Simulator::new(&g, AlwaysBeep, vec![(); 8], 1);
//! let report = sim.step();
//! assert_eq!(report.beeps_channel1, 8);
//! ```

pub mod byzantine;
pub mod channel;
pub mod churn;
pub mod dynamic;
pub mod faults;
pub(crate) mod par;
pub mod protocol;
pub mod rng;
pub mod sim;
pub mod sleep;
pub(crate) mod sweep;
pub mod trace;

pub use byzantine::{ByzantineBehavior, ByzantineError, ByzantinePlan, Resurrect};
pub use channel::{BurstNoise, ChannelFault, ChannelState, JammerKind};
pub use churn::{ChurnAction, ChurnError, ChurnEvent, ChurnPlan};
pub use faults::{FaultError, FaultPlan, FaultTarget, TransientFault};
pub use protocol::{BeepSignal, BeepingProtocol, Channels, SettledRound};
pub use sim::{
    frontier_fallback_threshold, Checkpoint, DuplexMode, EngineMode, RestoreError, SimGraph,
    Simulator, Touched, WorkCounters,
};
