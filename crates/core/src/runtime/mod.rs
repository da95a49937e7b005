//! The threaded runtime: cluster construction, per-node state, the protocol
//! service loop, and the application-facing [`Process`] handle.

pub mod cluster;
pub(crate) mod node;
mod outbox;
pub mod process;

pub use cluster::run;
pub use process::{AppState, Process, SharedVec};
