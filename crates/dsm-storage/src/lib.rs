#![warn(missing_docs)]
//! Stable storage for checkpoints and saved logs.
//!
//! The paper writes checkpoints (homed pages + protocol state) and volatile
//! logs to a local disk at checkpoint time, and assumes the stable storage of
//! a node survives its crash. Here stable storage is simulated: per-node
//! byte-accurate segment stores ([`StableStore`]) that survive a simulated
//! crash (they live outside the node runtime), plus a configurable
//! [`DiskModel`] that keeps the writing node's disk busy for a modeled
//! wall-clock time per write. The node computes on while its disk writes
//! and waits only for a disk that is still busy when it needs it again:
//! Table 3's disk-busy column is the modeled time, its disk column that
//! wait.
//!
//! The [`codec`] module is a small explicit binary codec (length-prefixed
//! little-endian fields and LEB128 varints) used for checkpoint records, log
//! entries, and wire-size accounting; no external serialization crate is
//! needed.

pub mod codec;
pub mod disk;
pub mod store;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use disk::{DiskMode, DiskModel};
pub use store::{SegmentKind, StableStore, StoreReader, StoreStats};
