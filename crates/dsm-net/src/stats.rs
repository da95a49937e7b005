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

/// Declares [`NodeTraffic`]'s counters and [`TrafficSnapshot`] from one
/// list — field and doc — so that a new counter is one entry: the atomics,
/// [`NodeTraffic::snapshot`], the snapshot's fields, its `Add` and
/// [`TrafficSnapshot::named`] cannot fall out of step.
macro_rules! traffic_counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Per-node traffic counters. All counters are monotonically
        /// increasing; only [`NodeTraffic::snapshot`] reads them.
        #[derive(Debug, Default)]
        pub struct NodeTraffic {
            $($(#[$doc])* $field: AtomicU64,)*
            /// Sent messages and bytes (base + piggyback, no trace context)
            /// by message kind. A handful of kinds exist, so a linear list
            /// under a mutex beats a hash map here.
            kinds: Mutex<Vec<(&'static str, u64, u64)>>,
            /// Receive-side latency attribution per message kind (only
            /// populated while tracing is on: the sender must have stamped a
            /// timestamp).
            phases: Mutex<Vec<(&'static str, PhaseAcc)>>,
        }

        /// A point-in-time copy of one node's traffic counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TrafficSnapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl NodeTraffic {
            /// Snapshot of the counters.
            pub fn snapshot(&self) -> TrafficSnapshot {
                TrafficSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }
        }

        impl TrafficSnapshot {
            /// (field name, count) pairs in declaration order.
            pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field),)*].into_iter()
            }
        }

        impl std::ops::Add for TrafficSnapshot {
            type Output = TrafficSnapshot;
            fn add(self, o: TrafficSnapshot) -> TrafficSnapshot {
                TrafficSnapshot {
                    $($field: self.$field + o.$field,)*
                }
            }
        }
    };
}

traffic_counters! {
    /// Messages sent.
    msgs_sent,
    /// Base-protocol payload bytes sent.
    base_bytes_sent,
    /// Fault-tolerance control (piggyback) bytes sent.
    ft_bytes_sent,
    /// Trace-context bytes sent (0 unless tracing is on).
    trace_bytes_sent,
    /// Messages dropped because the destination had crashed.
    msgs_dropped,
    /// Messages lost by chaos injection (the [`crate::FaultPlan`]).
    chaos_dropped,
    /// Messages delayed or reordered by chaos injection.
    chaos_delayed,
    /// Messages duplicated by chaos injection (count of extra copies).
    chaos_duplicated,
    /// Frames the link sent again after their ack was overdue.
    link_resent,
    /// Duplicate frames the link dropped at this receiver.
    link_dups_dropped,
    /// Acks the link sent from this receiver.
    link_acks,
    /// Bytes the link put on the wire: frame headers, acks, and the whole
    /// of every resent frame.
    link_bytes_sent,
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
