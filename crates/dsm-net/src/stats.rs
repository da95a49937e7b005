//! Traffic accounting.
//!
//! Every send is charged to the *sending* node, split into base-protocol
//! bytes and fault-tolerance control bytes (the lazily piggybacked
//! checkpoint timestamps and page-version integers of the LLT/CGC scheme).
//! Table 2 of the paper is the ratio of these two streams. The trace
//! context a traced message carries is a third stream, counted apart so
//! that tracing moves neither of the other two. So is what the link adds
//! under a fault plan: frame headers, acks and resent frames.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Per-node traffic counters. All counters are monotonically increasing.
#[derive(Debug, Default)]
pub struct NodeTraffic {
    /// Messages sent.
    pub msgs_sent: AtomicU64,
    /// Base-protocol payload bytes sent.
    pub base_bytes_sent: AtomicU64,
    /// Fault-tolerance control (piggyback) bytes sent.
    pub ft_bytes_sent: AtomicU64,
    /// Trace-context bytes sent (0 unless tracing is on).
    pub trace_bytes_sent: AtomicU64,
    /// Messages dropped because the destination had crashed.
    pub msgs_dropped: AtomicU64,
    /// Messages lost by chaos injection (the [`crate::FaultPlan`]).
    pub chaos_dropped: AtomicU64,
    /// Messages delayed or reordered by chaos injection.
    pub chaos_delayed: AtomicU64,
    /// Messages duplicated by chaos injection (count of extra copies).
    pub chaos_duplicated: AtomicU64,
    /// Messages blocked by an active network partition.
    pub partition_blocked: AtomicU64,
    /// Frames the link sent again after their ack was overdue.
    pub link_resent: AtomicU64,
    /// Duplicate frames the link dropped at this receiver.
    pub link_dups_dropped: AtomicU64,
    /// Acks the link sent from this receiver.
    pub link_acks: AtomicU64,
    /// Bytes the link put on the wire: frame headers, acks, and the whole
    /// of every resent frame.
    pub link_bytes_sent: AtomicU64,
    /// Sent messages and bytes (base + piggyback, no trace context) by
    /// message kind. A handful
    /// of kinds exist, so a linear list under a mutex beats a hash map here.
    kinds: Mutex<Vec<(&'static str, u64, u64)>>,
    /// Receive-side latency attribution per message kind (only populated
    /// while tracing is on: the sender must have stamped a timestamp).
    phases: Mutex<Vec<(&'static str, PhaseAcc)>>,
}

/// Accumulated receive-side latency attribution for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAcc {
    /// Messages attributed.
    pub count: u64,
    /// Total sender hand-off + receiver inbound-queue wait, nanoseconds.
    pub queue_ns: u64,
    /// Total fabric-injected (chaos) delay, nanoseconds.
    pub chaos_ns: u64,
}

impl std::ops::Add for PhaseAcc {
    type Output = PhaseAcc;
    fn add(self, o: PhaseAcc) -> PhaseAcc {
        PhaseAcc {
            count: self.count + o.count,
            queue_ns: self.queue_ns + o.queue_ns,
            chaos_ns: self.chaos_ns + o.chaos_ns,
        }
    }
}

impl NodeTraffic {
    pub(crate) fn record_send(&self, base: usize, ft: usize, trace: usize, kind: &'static str) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.base_bytes_sent
            .fetch_add(base as u64, Ordering::Relaxed);
        self.ft_bytes_sent.fetch_add(ft as u64, Ordering::Relaxed);
        self.trace_bytes_sent
            .fetch_add(trace as u64, Ordering::Relaxed);
        let bytes = (base + ft) as u64;
        let mut kinds = self.kinds.lock();
        match kinds.iter_mut().find(|(k, ..)| *k == kind) {
            Some((_, n, b)) => (*n, *b) = (*n + 1, *b + bytes),
            None => kinds.push((kind, 1, bytes)),
        }
    }

    pub(crate) fn record_drop(&self) {
        self.msgs_dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_chaos_drop(&self) {
        self.chaos_dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_chaos_delay(&self) {
        self.chaos_delayed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_chaos_dup(&self) {
        self.chaos_duplicated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_partition_block(&self) {
        self.partition_blocked.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_link_header(&self, bytes: usize) {
        self.link_bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_link_resend(&self, bytes: usize) {
        self.link_resent.fetch_add(1, Ordering::Relaxed);
        self.record_link_header(bytes);
    }

    pub(crate) fn record_link_ack(&self, bytes: usize, dup: bool) {
        self.link_acks.fetch_add(1, Ordering::Relaxed);
        self.link_dups_dropped
            .fetch_add(dup as u64, Ordering::Relaxed);
        self.record_link_header(bytes);
    }

    pub(crate) fn record_recv_phase(&self, kind: &'static str, queue_ns: u64, chaos_ns: u64) {
        let mut phases = self.phases.lock();
        let acc = match phases.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, acc)) => acc,
            None => {
                phases.push((kind, PhaseAcc::default()));
                &mut phases.last_mut().unwrap().1
            }
        };
        acc.count += 1;
        acc.queue_ns += queue_ns;
        acc.chaos_ns += chaos_ns;
    }

    /// Sent-message counts per message kind, sorted by kind name.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.kinds.lock().iter().map(|&(k, n, _)| (k, n)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Sent bytes (base + piggyback) per message kind, sorted by kind name.
    pub fn kind_bytes(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.kinds.lock().iter().map(|&(k, _, b)| (k, b)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Receive-side latency attribution per message kind, sorted by kind
    /// name. Empty unless tracing was on (attribution needs the sender's
    /// stamped timestamp).
    pub fn phase_counts(&self) -> Vec<(&'static str, PhaseAcc)> {
        let mut v = self.phases.lock().clone();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            base_bytes_sent: self.base_bytes_sent.load(Ordering::Relaxed),
            ft_bytes_sent: self.ft_bytes_sent.load(Ordering::Relaxed),
            trace_bytes_sent: self.trace_bytes_sent.load(Ordering::Relaxed),
            msgs_dropped: self.msgs_dropped.load(Ordering::Relaxed),
            chaos_dropped: self.chaos_dropped.load(Ordering::Relaxed),
            chaos_delayed: self.chaos_delayed.load(Ordering::Relaxed),
            chaos_duplicated: self.chaos_duplicated.load(Ordering::Relaxed),
            partition_blocked: self.partition_blocked.load(Ordering::Relaxed),
            link_resent: self.link_resent.load(Ordering::Relaxed),
            link_dups_dropped: self.link_dups_dropped.load(Ordering::Relaxed),
            link_acks: self.link_acks.load(Ordering::Relaxed),
            link_bytes_sent: self.link_bytes_sent.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one node's traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Base-protocol payload bytes sent.
    pub base_bytes_sent: u64,
    /// Fault-tolerance control (piggyback) bytes sent.
    pub ft_bytes_sent: u64,
    /// Trace-context bytes sent (0 unless tracing is on).
    pub trace_bytes_sent: u64,
    /// Messages dropped because the destination had crashed.
    pub msgs_dropped: u64,
    /// Messages lost by chaos injection.
    pub chaos_dropped: u64,
    /// Messages delayed or reordered by chaos injection.
    pub chaos_delayed: u64,
    /// Extra message copies delivered by chaos injection.
    pub chaos_duplicated: u64,
    /// Messages blocked by an active network partition.
    pub partition_blocked: u64,
    /// Frames the link sent again after their ack was overdue.
    pub link_resent: u64,
    /// Duplicate frames the link dropped at this receiver.
    pub link_dups_dropped: u64,
    /// Acks the link sent from this receiver.
    pub link_acks: u64,
    /// Bytes the link put on the wire: headers, acks, resent frames.
    pub link_bytes_sent: u64,
}

impl TrafficSnapshot {
    /// FT control overhead as a fraction of base traffic (Table 2's last
    /// column). Returns 0 when no base traffic was sent.
    pub fn ft_overhead_fraction(&self) -> f64 {
        if self.base_bytes_sent == 0 {
            0.0
        } else {
            self.ft_bytes_sent as f64 / self.base_bytes_sent as f64
        }
    }
}

impl std::ops::Add for TrafficSnapshot {
    type Output = TrafficSnapshot;
    fn add(self, o: TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            msgs_sent: self.msgs_sent + o.msgs_sent,
            base_bytes_sent: self.base_bytes_sent + o.base_bytes_sent,
            ft_bytes_sent: self.ft_bytes_sent + o.ft_bytes_sent,
            trace_bytes_sent: self.trace_bytes_sent + o.trace_bytes_sent,
            msgs_dropped: self.msgs_dropped + o.msgs_dropped,
            chaos_dropped: self.chaos_dropped + o.chaos_dropped,
            chaos_delayed: self.chaos_delayed + o.chaos_delayed,
            chaos_duplicated: self.chaos_duplicated + o.chaos_duplicated,
            partition_blocked: self.partition_blocked + o.partition_blocked,
            link_resent: self.link_resent + o.link_resent,
            link_dups_dropped: self.link_dups_dropped + o.link_dups_dropped,
            link_acks: self.link_acks + o.link_acks,
            link_bytes_sent: self.link_bytes_sent + o.link_bytes_sent,
        }
    }
}

/// Cluster-wide traffic view (one [`NodeTraffic`] per node).
#[derive(Debug)]
pub struct FabricStats {
    per_node: Vec<NodeTraffic>,
}

impl FabricStats {
    pub(crate) fn new(n: usize) -> Self {
        FabricStats {
            per_node: (0..n).map(|_| NodeTraffic::default()).collect(),
        }
    }

    /// Counters for one node.
    pub fn node(&self, id: usize) -> &NodeTraffic {
        &self.per_node[id]
    }

    /// Sum of all nodes' counters.
    pub fn total(&self) -> TrafficSnapshot {
        self.per_node
            .iter()
            .map(|t| t.snapshot())
            .fold(TrafficSnapshot::default(), |a, b| a + b)
    }

    /// Cluster-wide receive-side latency attribution per kind, sorted.
    pub fn total_phases(&self) -> Vec<(&'static str, PhaseAcc)> {
        let mut merged: Vec<(&'static str, PhaseAcc)> = Vec::new();
        for t in &self.per_node {
            for (kind, acc) in t.phase_counts() {
                match merged.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, m)) => *m = *m + acc,
                    None => merged.push((kind, acc)),
                }
            }
        }
        merged.sort_unstable_by_key(|&(k, _)| k);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_aggregate_across_nodes() {
        let s = FabricStats::new(3);
        s.node(0).record_send(100, 4, 3, "a");
        s.node(2).record_send(50, 0, 0, "b");
        s.node(2).record_drop();
        let t = s.total();
        assert_eq!(t.msgs_sent, 2);
        assert_eq!(t.base_bytes_sent, 150);
        assert_eq!(t.ft_bytes_sent, 4);
        assert_eq!(t.trace_bytes_sent, 3);
        assert_eq!(t.msgs_dropped, 1);
    }

    #[test]
    fn kind_counts_and_bytes_sort_by_kind() {
        let s = FabricStats::new(2);
        s.node(0).record_send(10, 0, 0, "PageReq");
        s.node(0).record_send(10, 0, 0, "DiffBatch");
        s.node(1).record_send(10, 0, 0, "PageReq");
        assert_eq!(
            s.node(0).kind_counts(),
            vec![("DiffBatch", 1), ("PageReq", 1)]
        );
        assert_eq!(s.node(1).kind_counts(), vec![("PageReq", 1)]);
        // The trace context is not a kind's byte.
        s.node(0).record_send(30, 2, 5, "PageReq");
        assert_eq!(
            s.node(0).kind_bytes(),
            vec![("DiffBatch", 10), ("PageReq", 42)]
        );
    }

    #[test]
    fn overhead_fraction_guards_zero() {
        let t = TrafficSnapshot::default();
        assert_eq!(t.ft_overhead_fraction(), 0.0);
        let t = TrafficSnapshot {
            base_bytes_sent: 200,
            ft_bytes_sent: 1,
            ..Default::default()
        };
        assert!((t.ft_overhead_fraction() - 0.005).abs() < 1e-12);
    }
}
