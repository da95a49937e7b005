//! Causal trace context carried on every wire message.
//!
//! The context is deliberately tiny: the stamping node, a per-endpoint
//! monotonic sequence number, and the flow id of the message being served
//! when this one was sent (the *parent*). Together these stitch per-node
//! ring-buffer events into cross-node causal flows without any global
//! coordination — a flow id is unique because `(origin, seq)` is.
//!
//! On the wire (`ftdsm::wire::put_ctx`) the context is the seq as a varint,
//! then the parent as two varints — its `origin + 1`, then its seq — or a
//! single `0` for a root: 2–3 bytes for most messages, 5–7 for a reply. The
//! origin is not sent; the receiver knows who sent the message.
//!
//! Two more fields ride along as **local measurement metadata** and are
//! *not* encoded or charged (they exist only because the whole cluster
//! shares one address space; a real network stack would derive them from
//! NIC timestamps): the send timestamp and the chaos delay the fabric
//! injected. The receive side subtracts both from the observed transit time
//! to split "fabric/chaos delay" from "receiver queue wait".

/// Compact causal context stamped by `dsm_net::Endpoint::send` on every message.
///
/// Encoded as the seq and the parent flow (see the module docs); the
/// origin is the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Node that stamped this message.
    pub origin: u32,
    /// Per-endpoint monotonic sequence number, starting at 1 (0 = unset).
    pub seq: u64,
    /// Flow id of the message this one was sent in service of; 0 = root
    /// (originated by an app thread or a timer, not by another message).
    pub parent: u64,
    /// Trace-epoch nanoseconds at send time (measurement only, un-charged;
    /// 0 when tracing was disabled at send time).
    pub sent_at_ns: u64,
    /// Total delay injected by the chaos fabric (Delay rules and duplicate
    /// detours), accumulated in nanoseconds. Measurement only, un-charged.
    pub chaos_delay_ns: u64,
}

impl TraceCtx {
    /// An unstamped context (local construction; the endpoint stamps it).
    pub const NONE: TraceCtx = TraceCtx {
        origin: 0,
        seq: 0,
        parent: 0,
        sent_at_ns: 0,
        chaos_delay_ns: 0,
    };

    /// The message's own flow id: `(origin + 1) << 48 | seq`. Never 0 for
    /// a stamped message (seq starts at 1), so 0 can mean "no flow".
    #[inline]
    pub fn flow_id(&self) -> u64 {
        if self.seq == 0 {
            return 0;
        }
        ((self.origin as u64 + 1) << 48) | (self.seq & 0xFFFF_FFFF_FFFF)
    }

    /// Has the endpoint stamped this context?
    #[inline]
    pub fn is_stamped(&self) -> bool {
        self.seq != 0
    }

    /// The node a flow id was stamped by (inverse of [`TraceCtx::flow_id`]'s origin
    /// encoding); `None` for the 0 sentinel.
    pub fn flow_origin(flow: u64) -> Option<usize> {
        if flow == 0 {
            None
        } else {
            Some((flow >> 48) as usize - 1)
        }
    }
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_id_is_unique_per_origin_seq_and_never_zero() {
        let a = TraceCtx {
            origin: 0,
            seq: 1,
            ..TraceCtx::NONE
        };
        let b = TraceCtx {
            origin: 1,
            seq: 1,
            ..TraceCtx::NONE
        };
        let c = TraceCtx {
            origin: 0,
            seq: 2,
            ..TraceCtx::NONE
        };
        assert_ne!(a.flow_id(), 0);
        assert_ne!(a.flow_id(), b.flow_id());
        assert_ne!(a.flow_id(), c.flow_id());
        assert_eq!(TraceCtx::NONE.flow_id(), 0);
        assert!(!TraceCtx::NONE.is_stamped());
    }

    #[test]
    fn flow_origin_round_trips() {
        for origin in [0u32, 1, 3, 63] {
            let ctx = TraceCtx {
                origin,
                seq: 42,
                ..TraceCtx::NONE
            };
            assert_eq!(TraceCtx::flow_origin(ctx.flow_id()), Some(origin as usize));
        }
        assert_eq!(TraceCtx::flow_origin(0), None);
    }
}
