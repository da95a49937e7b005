#![warn(missing_docs)]
//! SPLASH-2-style workloads for the fault-tolerant DSM.
//!
//! Faithful scaled-down reimplementations of the three applications the
//! paper evaluates — Barnes (hierarchical N-body), Water-Nsquared (O(n²)
//! molecular dynamics) and Water-Spatial (cell-decomposition molecular
//! dynamics) — plus synthetic kernels. The physics is simplified
//! (softened gravity / Lennard-Jones-style pair forces); what matters for
//! the reproduction is the *memory access, update volume and
//! synchronization structure*, which follows the originals:
//!
//! * **Barnes**: irregular accesses, several barriers per step, imbalanced
//!   update volume (the octree is rebuilt each step and homed on node 0).
//! * **Water-Nsquared**: small shared footprint, O(n²) read traffic,
//!   lock-protected global reductions.
//! * **Water-Spatial**: large regular footprint, nearest-neighbor sharing
//!   between spatial slabs.
//!
//! Every workload is deterministic (seeded, fixed traversal order), keeps
//! all simulation state in shared memory (so recovery needs no private
//! state), is step-structured via [`ftdsm::Process::run_steps`], and
//! returns a bit-exact checksum used by the correctness tests.

pub mod barnes;
pub mod kernels;
pub mod radix;
pub mod water_nsq;
pub mod water_sp;

pub use barnes::{barnes, BarnesParams};
pub use kernels::{jacobi, migratory, producer_consumer, JacobiParams};
pub use radix::{radix, RadixParams};
pub use water_nsq::{water_nsq, WaterNsqParams};
pub use water_sp::{water_sp, WaterSpParams};

/// Bit-exact checksum folding for f64 values (deterministic across runs,
/// unlike summing floats from different nodes in racy order).
pub fn fold_f64(acc: u64, v: f64) -> u64 {
    acc.rotate_left(7) ^ v.to_bits()
}

/// Deterministic per-index pseudo-random f64 in [0, 1): splitmix64-based.
pub fn hash_unit(seed: u64, idx: u64) -> f64 {
    let mut z = seed.wrapping_add(idx.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_unit_is_deterministic_and_in_range() {
        for i in 0..1000 {
            let v = hash_unit(42, i);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, hash_unit(42, i));
        }
        assert_ne!(hash_unit(42, 1), hash_unit(43, 1));
    }

    #[test]
    fn fold_is_order_sensitive() {
        let a = fold_f64(fold_f64(0, 1.0), 2.0);
        let b = fold_f64(fold_f64(0, 2.0), 1.0);
        assert_ne!(a, b);
    }
}
