#![warn(missing_docs)]
//! Stable storage for checkpoints and saved logs.
//!
//! The paper writes checkpoints (homed pages + protocol state) and volatile
//! logs to a local disk at checkpoint time, and assumes the stable storage of
//! a node survives its crash. Here stable storage is simulated: per-node
//! byte-accurate segment stores ([`StableStore`]) that survive a simulated
//! crash (they live outside the node runtime), plus a configurable
//! [`DiskModel`] that charges the writing node wall-clock time per write —
//! this is what reproduces the disk-write overhead column of Table 3 and the
//! checkpoint-interference effect on Barnes.
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
pub use store::{SegmentKind, StableStore, StoreStats};
