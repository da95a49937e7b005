//! Hand-rolled log2-bucketed latency histograms (HDR-style, power-of-two
//! resolution) — no dependencies, mergeable across nodes.

/// 65 buckets: bucket 0 holds the value 0; bucket `b` (1..=64) holds
/// values in `[2^(b-1), 2^b)`, so `u64::MAX` lands in bucket 64.
pub const BUCKETS: usize = 65;

/// A log2 histogram over `u64` samples (typically nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a sample.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lo(b: usize) -> u64 {
    match b {
        0 => 0,
        _ => 1u64 << (b - 1),
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Approximate quantile (`q` in `[0, 1]`): lower bound of the bucket
    /// containing the q-th sample. Power-of-two resolution, like HDR at
    /// zero significant digits.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_lo(b);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Declares [`LatencyHists`] from one list — field, doc and print label —
/// so that a new histogram is one entry: the struct, [`LatencyHists::named`]
/// and [`LatencyHists::merge`] cannot fall out of step.
macro_rules! latency_hists {
    ($($(#[$doc:meta])* $field:ident => $label:literal,)*) => {
        /// The named latency histograms every node keeps (in nanoseconds,
        /// but for the few that say otherwise).
        #[derive(Debug, Clone, Default)]
        pub struct LatencyHists {
            $($(#[$doc])* pub $field: Histogram,)*
        }

        impl LatencyHists {
            /// (label, histogram) pairs in print order.
            pub fn named(&self) -> [(&'static str, &Histogram); 18] {
                [$(($label, &self.$field),)*]
            }

            /// Fold another node's histograms into this one.
            pub fn merge(&mut self, other: &LatencyHists) {
                $(self.$field.merge(&other.$field);)*
            }
        }
    };
}

latency_hists! {
    /// Remote page fetch, fault to installed copy.
    page_fetch => "page_fetch",
    /// Lock acquire wait, request to grant applied.
    lock_wait => "lock_wait",
    /// Barrier wait, arrival to release applied.
    barrier_wait => "barrier_wait",
    /// End-of-interval diff creation pass (all twins of the interval).
    diff_create => "diff_create",
    /// Applying one diff to a home page.
    diff_apply => "diff_apply",
    /// Page bytes physically copied per remote fetch (serve → deposit →
    /// install). Zero with shared buffers; page-size before them — a
    /// counter, in bytes rather than nanoseconds.
    fetch_copy => "fetch_copy_bytes",
    /// Writing one checkpoint to stable storage.
    ckpt_write => "ckpt_write",
    /// Recovery: restoring from the checkpoint.
    rec_restore => "rec_restore",
    /// Recovery: collecting peers' logs.
    rec_log_collect => "rec_log_collect",
    /// Recovery: deterministic replay.
    rec_replay => "rec_replay",
    /// Pages per `PageReq` sent, one-page demand misses included (a
    /// counter, in pages).
    fetch_batch_pages => "fetch_batch_pages",
    /// Waiting for a home-store shard lock on the service fast path.
    shard_lock_wait => "shard_lock_wait",
    /// A fault that found its page in flight and that request made it ready
    /// (wait until installed).
    prefetch_hit => "prefetch_hit",
    /// A fault on a page the prefetch left out, served by the fault's own
    /// request with whatever neighbours were left out too, or one whose
    /// request was lost (sent again after a timeout) or overtaken by a newer
    /// invalidation (wait until installed, or until the stale reply came).
    /// A cold miss — the filter had no part in it — is neither.
    prefetch_miss => "prefetch_miss",
    /// Heartbeat round-trip time (ping sent to matching pong received).
    heartbeat_rtt => "heartbeat_rtt",
    /// Retransmissions per completed wait (a counter, in retries: 0 =
    /// answered first time). Only recorded when the retry layer is on.
    retransmits => "retransmits",
    /// Barrier manager: episode-completing arrival to release set built
    /// (join, per-(page, interval) dedupe, per-participant delta fan-out).
    barrier_release_build => "barrier_release_build",
    /// End-of-interval release flush: dirty-page collection through diff
    /// creation to per-home batches sent.
    release_flush => "release_flush",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of((1 << 20) - 1), 20);
        assert_eq!(bucket_of(1 << 20), 21);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(64), 1 << 63);
    }

    #[test]
    fn record_extremes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[64], 1);
        // Sum saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn quantiles_land_in_right_buckets() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 1024] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 16);
        assert_eq!(h.quantile(1.0), 1024);
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(0);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 100);
        assert_eq!(a.sum(), 105);
        assert_eq!(a.buckets()[0], 1);
    }

    #[test]
    fn latency_hists_merge_by_name() {
        let mut a = LatencyHists::default();
        let mut b = LatencyHists::default();
        a.page_fetch.record(10);
        b.page_fetch.record(20);
        b.lock_wait.record(30);
        a.merge(&b);
        assert_eq!(a.page_fetch.count(), 2);
        assert_eq!(a.lock_wait.count(), 1);
        assert_eq!(a.named()[0].0, "page_fetch");
    }
}
