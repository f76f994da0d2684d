#![warn(missing_docs)]

//! # specrt-spec
//!
//! The paper's contribution: cache-coherence-protocol extensions that detect
//! cross-iteration dependences during speculative parallel loop execution.
//!
//! Two protocols are provided (paper §3):
//!
//! * [`nonpriv`] — the **non-privatization algorithm** (Figures 4, 6, 7):
//!   every element of an array under test must be read-only (`ROnly`) or
//!   accessed by a single processor (`NoShr`); any other pattern FAILs the
//!   speculation. State lives in cache tags (`First`∈{NONE,OWN,OTHER},
//!   `NoShr`, `ROnly`) and in the home directory (`First` = processor id,
//!   `NoShr`, `ROnly`), kept coherent lazily with `First_update` /
//!   `ROnly_update` messages whose races the directory resolves.
//!
//! * [`privat`] — the **privatization algorithm** (Figures 8, 9): each
//!   processor works on a private copy; the shared array's directory keeps
//!   per-element `MaxR1st` / `MinW` iteration stamps and FAILs whenever a
//!   read-first iteration is later than some writing iteration. Supports
//!   read-in and copy-out.
//!
//! [`privat3`] holds the reduced no-read-in state of Figure 5-b / §4.1.
//! These modules define the per-element state and write each transition
//! once; [`ProtocolSpec`] is the one transition API over them. Its element
//! steps ([`ProtocolSpec::dir_step`], [`ProtocolSpec::cache_step`], the
//! private-directory steps) are *pure* functions from a state and an event
//! to a successor and an emission (a message to send or a [`FailReason`]).
//! `specrt-proto` executes them with message timing, `specrt-machine`
//! orchestrates loops, and `specrt-check`'s model checker enumerates the
//! system layer ([`ProtocolSpec::step`]) built from the same steps, so the
//! protocols can be driven through millions of interleavings without a
//! simulator in the loop.
//!
//! Also here: [`plan`] (which arrays are under which test — the paper's
//! address-range comparator of §4.1), [`chunking`] (block-cyclic
//! superiterations and the processor-wise extreme of §4.1), and
//! [`state_cost`] (the Figure 5 / §3.4 storage-cost analytics).

pub mod chunking;
pub mod fail;
pub mod fault;
pub mod nonpriv;
pub mod plan;
pub mod privat;
pub mod privat3;
pub mod protospec;
pub mod state_cost;

pub use chunking::IterationNumbering;
pub use fail::FailReason;
pub use fault::FaultKind;
pub use nonpriv::NonPrivDirElem;
pub use plan::{ProtocolKind, TestPlan};
pub use privat::{PrivPrivateElem, PrivSharedElem};
pub use privat3::{PrivNoReadInPrivate, PrivNoReadInShared};
pub use protospec::{
    CacheEmission, CacheEvent, DirElem, DirEmission, DirEvent, Flight, FlightMsg, LineCopy,
    PrivateDirElem, PrivateEffect, PrivateEvent, ProtocolSpec, SpecEmission, SpecMessage,
    SpecScope, SpecState, SpecVariant,
};
pub use state_cost::StateCost;
