#![warn(missing_docs)]
//! Simulated cluster interconnect.
//!
//! The paper runs over Myrinet with VMMC user-level memory-mapped
//! communication, which gives the DSM protocol reliable, ordered,
//! point-to-point message delivery with very low overhead. This crate
//! provides the same abstraction for a cluster simulated inside one process:
//!
//! * [`Fabric`] — builds `n` connected [`Endpoint`]s (one per node) with
//!   reliable FIFO channels between every pair into one inbound queue per
//!   node, which two threads read: while the node's application thread
//!   waits it takes every message itself (the paper's requester notices
//!   what lands in its own memory; no helper thread relays it), and only
//!   otherwise does the node's service thread take the requests.
//! * Fail-stop crash simulation: [`Fabric::crash`] marks a node down and
//!   discards its queued input (in-flight messages to a failed process are
//!   lost); sends to a crashed node are dropped and counted. What a node
//!   sent before its crash is still delivered.
//!   [`Fabric::restart`] delivers to it again and tells nobody: peers learn
//!   of the restart from the node's own messages.
//! * Byte-accurate traffic accounting via the [`WireSized`] trait, split
//!   into base-protocol bytes and fault-tolerance control (piggyback) bytes
//!   — the measurements behind Table 2 of the paper.

//! * Deterministic fault injection: a seeded [`FaultPlan`] attached with
//!   [`Fabric::set_fault_plan`] drops, delays, duplicates and reorders
//!   frames per `(src, dst, kind)`. See [`chaos`]. Under a plan, the link
//!   layer ([`link`]) keeps the channels reliable and FIFO: the protocol
//!   sees delay and crashes, never loss, duplication or reordering.

pub mod chaos;
pub mod endpoint;
mod link;
mod mailbox;
pub mod stats;

pub use chaos::{FaultPlan, FaultRule};
pub use endpoint::{Endpoint, Event, Fabric, NodeId, NodeStatus, WireSized};
pub use stats::{FabricStats, NodeTraffic, PhaseAcc};
