//! The threaded runtime: cluster construction, per-node state and its
//! modules, the protocol service loop, and the application-facing
//! [`Process`] handle.

pub mod cluster;
pub(crate) mod fetch;
pub(crate) mod home;
pub(crate) mod interval;
pub(crate) mod node;
pub mod process;
pub(crate) mod sync;

pub use cluster::run;
pub use process::{AppState, Process, SharedVec};
