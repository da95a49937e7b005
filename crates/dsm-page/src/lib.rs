#![warn(missing_docs)]
//! Page, twin, diff and logical-clock machinery for a home-based lazy release
//! consistency (HLRC) distributed shared memory.
//!
//! This crate is deliberately free of threads and I/O: everything here is a
//! pure data structure, unit- and property-testable in isolation.
//!
//! * [`Page`] — a fixed-size byte buffer, the coherence unit.
//! * [`Diff`] — a word-granularity difference between a twin (pre-write copy)
//!   and the current page contents, as created by a writer at release time
//!   and applied by the page's home node, held as its encoding.
//! * [`runs`] — the run section a diff and a whole page are encoded as, and
//!   the LEB128 varints every encoding in the system is written in.
//! * [`PagePool`] — a per-node free list recycling twin / copy-on-write
//!   buffers so steady-state intervals are allocation-free.
//! * [`VectorClock`] — per-process vector timestamps over synchronization
//!   intervals; also used as per-page version vectors (`p.v` in the paper).
//! * [`addr`] — global shared address arithmetic.

pub mod addr;
pub mod diff;
pub mod page;
pub mod pool;
pub mod runs;
pub mod version;

pub use addr::{GlobalAddr, Layout, PageId, MAX_PAGE_SIZE};
pub use diff::{for_each_nonzero_run, page_wire_size, put_page, Diff, DiffScratch};
pub use page::{Page, PAGE_ALIGN_WORD};
pub use pool::{PagePool, PoolStats};
pub use runs::{get_varint, put_varint, varint_len, RunSection, SectionError};
pub use version::{elementwise_min, Interval, IntervalSeq, ProcId, VectorClock};
