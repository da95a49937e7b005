//! Typed protocol events covering the HLRC + FT lifecycle.

use std::fmt;

/// Which lazy-log-trimming rule discarded log entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrimRule {
    /// Rule 1: peers' checkpoints cover the entries.
    Rule1,
    /// Rule 2: the acquirer checkpointed past the grant.
    Rule2,
    /// Rule 3: the failed node's starting copy covers the diffs.
    Rule3,
    /// Barrier analogue of the lock rules.
    Barrier,
}

impl TrimRule {
    /// Short stable name for export.
    pub fn name(self) -> &'static str {
        match self {
            TrimRule::Rule1 => "rule1",
            TrimRule::Rule2 => "rule2",
            TrimRule::Rule3 => "rule3",
            TrimRule::Barrier => "barrier",
        }
    }
}

/// Phase of log-based recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecPhase {
    /// Restore node state from the latest checkpoint.
    Restore,
    /// Collect peers' logs (handshake + merge + homed-page diffs).
    LogCollect,
    /// Deterministic replay up to the pre-crash state.
    Replay,
}

impl RecPhase {
    /// Short stable name for export.
    pub fn name(self) -> &'static str {
        match self {
            RecPhase::Restore => "restore",
            RecPhase::LogCollect => "log_collect",
            RecPhase::Replay => "replay",
        }
    }
}

/// One protocol transition. Payload fields are the minimum needed to read
/// a timeline: page/lock ids, peers, byte counts, sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// App thread faulted on a page it does not hold.
    PageFault { page: u32 },
    /// The fetched page copy arrived and was installed.
    PageReply { page: u32, from: usize },
    /// A diff was created against the twin at release/flush time.
    DiffCreate { page: u32, bytes: u32 },
    /// A diff was applied to the home copy. `writer` is the interval's
    /// owning process and `interval` its per-writer sequence number — the
    /// invariant monitor asserts `(page, writer)` intervals apply in
    /// strictly increasing order, exactly once.
    DiffApply {
        page: u32,
        bytes: u32,
        writer: usize,
        interval: u64,
    },
    /// App thread asked the lock manager for a lock.
    LockRequest { lock: u32 },
    /// This node (as manager or holder) granted the lock to `to` for chain
    /// generation `gen`. Re-granting the same generation to the same
    /// requester is a legal retransmission replay; to a *different*
    /// requester it is a protocol violation.
    LockGrant { lock: u32, to: usize, gen: u64 },
    /// App thread finished acquiring the lock.
    LockAcquire { lock: u32 },
    /// App thread arrived at a barrier episode.
    BarrierEnter { episode: u32 },
    /// Barrier release reached this node.
    BarrierRelease { episode: u32 },
    /// Checkpoint `seq` started.
    CkptBegin { seq: u64 },
    /// Checkpoint `seq` was published: its `bytes` reached stable storage
    /// once the disk was done, and it is advertised from now on.
    CkptEnd { seq: u64, bytes: u64 },
    /// Lazy log trimming discarded `bytes` of volatile log.
    LogTrim { rule: TrimRule, bytes: u64 },
    /// Checkpoint garbage collection dropped a retained checkpoint.
    CgcDiscard { seq: u64, bytes: u64 },
    /// A message left this node. `flow` is the message's own flow id
    /// (from its stamped [`TraceCtx`](crate::TraceCtx)); `parent` is the
    /// flow it was sent in service of (0 = root).
    MsgSend {
        kind: &'static str,
        to: usize,
        bytes: u32,
        flow: u64,
        parent: u64,
    },
    /// A message was taken off this node's channel. `queue_ns` is transit
    /// time minus injected chaos delay (sender hand-off + receiver inbound
    /// queue); `chaos_ns` is the delay the fault plan injected.
    MsgRecv {
        kind: &'static str,
        from: usize,
        bytes: u32,
        flow: u64,
        queue_ns: u64,
        chaos_ns: u64,
    },
    /// The failure injector crashed this node.
    CrashInjected { at_op: u64 },
    /// One phase of recovery completed (duration is the event's span).
    RecoveryPhase { phase: RecPhase },
    /// This node learned that `node` restarted: its recovery handshake
    /// arrived.
    PeerRestart { node: usize },
}

impl EventKind {
    /// Stable name used for trace export and histogram labels.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PageFault { .. } => "page_fault",
            EventKind::PageReply { .. } => "page_reply",
            EventKind::DiffCreate { .. } => "diff_create",
            EventKind::DiffApply { .. } => "diff_apply",
            EventKind::LockRequest { .. } => "lock_request",
            EventKind::LockGrant { .. } => "lock_grant",
            EventKind::LockAcquire { .. } => "lock_acquire",
            EventKind::BarrierEnter { .. } => "barrier_enter",
            EventKind::BarrierRelease { .. } => "barrier_release",
            EventKind::CkptBegin { .. } => "ckpt_begin",
            EventKind::CkptEnd { .. } => "ckpt_end",
            EventKind::LogTrim { .. } => "log_trim",
            EventKind::CgcDiscard { .. } => "cgc_discard",
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgRecv { .. } => "msg_recv",
            EventKind::CrashInjected { .. } => "crash_injected",
            EventKind::RecoveryPhase { .. } => "recovery_phase",
            EventKind::PeerRestart { .. } => "peer_restart",
        }
    }

    /// Payload rendered as the body of a JSON object (no braces), e.g.
    /// `"page":3,"bytes":128`. Empty for payload-free events.
    pub fn args_json(&self) -> String {
        match self {
            EventKind::PageFault { page } => format!("\"page\":{page}"),
            EventKind::PageReply { page, from } => format!("\"page\":{page},\"from\":{from}"),
            EventKind::DiffCreate { page, bytes } => format!("\"page\":{page},\"bytes\":{bytes}"),
            EventKind::DiffApply {
                page,
                bytes,
                writer,
                interval,
            } => format!(
                "\"page\":{page},\"bytes\":{bytes},\"writer\":{writer},\"interval\":{interval}"
            ),
            EventKind::LockRequest { lock } | EventKind::LockAcquire { lock } => {
                format!("\"lock\":{lock}")
            }
            EventKind::LockGrant { lock, to, gen } => {
                format!("\"lock\":{lock},\"to\":{to},\"gen\":{gen}")
            }
            EventKind::BarrierEnter { episode } | EventKind::BarrierRelease { episode } => {
                format!("\"episode\":{episode}")
            }
            EventKind::CkptBegin { seq } => format!("\"seq\":{seq}"),
            EventKind::CkptEnd { seq, bytes } => format!("\"seq\":{seq},\"bytes\":{bytes}"),
            EventKind::LogTrim { rule, bytes } => {
                format!("\"rule\":\"{}\",\"bytes\":{bytes}", rule.name())
            }
            EventKind::CgcDiscard { seq, bytes } => format!("\"seq\":{seq},\"bytes\":{bytes}"),
            EventKind::MsgSend {
                kind,
                to,
                bytes,
                flow,
                parent,
            } => {
                let mut s = format!("\"kind\":\"{kind}\",\"to\":{to},\"bytes\":{bytes}");
                if *flow != 0 {
                    s.push_str(&format!(",\"flow\":{flow}"));
                }
                if *parent != 0 {
                    s.push_str(&format!(",\"parent\":{parent}"));
                }
                s
            }
            EventKind::MsgRecv {
                kind,
                from,
                bytes,
                flow,
                queue_ns,
                chaos_ns,
            } => {
                let mut s = format!("\"kind\":\"{kind}\",\"from\":{from},\"bytes\":{bytes}");
                if *flow != 0 {
                    s.push_str(&format!(",\"flow\":{flow}"));
                    s.push_str(&format!(",\"queue_ns\":{queue_ns}"));
                    if *chaos_ns != 0 {
                        s.push_str(&format!(",\"chaos_ns\":{chaos_ns}"));
                    }
                }
                s
            }
            EventKind::CrashInjected { at_op } => format!("\"at_op\":{at_op}"),
            EventKind::RecoveryPhase { phase } => format!("\"phase\":\"{}\"", phase.name()),
            EventKind::PeerRestart { node } => format!("\"node\":{node}"),
        }
    }

    /// The causal flow this event participates in: `(own_flow, parent)`.
    /// `MsgSend` carries both; `MsgRecv` carries only its own flow. Events
    /// without a wire context return `None`.
    pub fn flow_ref(&self) -> Option<(u64, u64)> {
        match self {
            EventKind::MsgSend { flow, parent, .. } if *flow != 0 => Some((*flow, *parent)),
            EventKind::MsgRecv { flow, .. } if *flow != 0 => Some((*flow, 0)),
            _ => None,
        }
    }
}

/// One recorded event: monotonic timestamp, optional span duration, node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the trace epoch (span start for span events).
    pub ts_ns: u64,
    /// Span duration in nanoseconds; 0 marks an instant event.
    pub dur_ns: u64,
    /// Node the event happened on.
    pub node: usize,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}ns n{} {}",
            self.ts_ns,
            self.node,
            self.kind.name()
        )?;
        let args = self.kind.args_json();
        if !args.is_empty() {
            write!(f, " {{{args}}}")?;
        }
        if self.dur_ns > 0 {
            write!(f, " dur={}ns", self.dur_ns)?;
        }
        f.write_str("]")
    }
}
