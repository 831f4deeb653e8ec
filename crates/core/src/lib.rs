//! # anet-core — the paper's protocols
//!
//! This crate implements every protocol of *"Distributed Broadcasting and Mapping
//! Protocols in Directed Anonymous Networks"* (Langberg, Schwartz, Bruck, PODC
//! 2007) on top of the [`anet_sim`] execution engine and the [`anet_num`] exact
//! arithmetic substrate:
//!
//! * [`tree_broadcast`] — broadcasting with termination detection on **grounded
//!   trees** (Section 3.1, Theorem 3.1), with both the paper's power-of-two
//!   commodity rule and the naive `x/d` rule it improves upon.
//! * [`dag_broadcast`] — scalar-commodity broadcasting on **DAGs** (Section 3.3),
//!   in both eager and wait-for-all-inputs forwarding modes.
//! * [`general_broadcast`] — broadcasting on **arbitrary directed graphs** via
//!   interval-union commodities with β-carried cycle detection (Section 4,
//!   Theorems 4.2 and 4.3).
//! * [`labeling`] — unique label assignment (Section 5, Theorem 5.1): each vertex
//!   retains a sub-interval of the commodity as its identity.
//! * [`mapping`] — full topology extraction by flooding labelled local
//!   neighbourhood information (the application sketched in Section 6).
//!
//! The last three share one interval-mass rule ([`mass`]): the one-time
//! canonical partition, overlap into β, fresh mass down the last out-port and
//! the β flood. They differ only in what a vertex claims for itself and what
//! rides along with the mass.
//!
//! All protocols are *anonymous* ([`anet_sim::AnonymousProtocol`]): a vertex sees
//! only its local degrees and port numbers, never an identity, and the terminal is
//! the only vertex that evaluates a stopping predicate.
//!
//! The high-level entry points (`run_tree_broadcast`, `run_general_broadcast`,
//! `run_labeling`, `run_mapping`, …) execute a protocol under a chosen scheduler
//! and distil the outcome into a report ([`outcome`]); the raw
//! [`anet_sim::RunResult`] remains available through [`anet_sim::engine::run`] for
//! experiments that need traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commodity;
pub mod corruption;
pub mod dag_broadcast;
mod error;
pub mod general_broadcast;
pub mod labeling;
pub mod mapping;
pub mod mass;
pub mod outcome;
mod payload;
pub mod tree_broadcast;

pub use commodity::{ExactCommodity, Pow2Commodity, ScalarCommodity};
pub use corruption::StateCorruption;
pub use error::CoreError;
pub use payload::Payload;
