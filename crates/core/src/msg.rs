//! Protocol messages.
//!
//! One message type covers the base HLRC protocol, the lazily piggybacked
//! LLT/CGC control data, and the recovery protocol. Base and piggyback byte
//! counts are reported separately (Table 2 measures their ratio).

use std::sync::Arc;

use dsm_page::{Diff, PageId, ProcId, VectorClock};
use dsm_trace::TraceCtx;
use hlrc::{Have, LockId, PageBody, WnDelta, WriteNotice};

use crate::ft::logs::{BarEntry, DiffLogEntry, MgrBarEntry, RelEntry, WnLogEntry};

/// Fault-tolerance control data piggybacked on protocol messages: the
/// sender's restart-checkpoint timestamp (plus its checkpoint sequence and
/// barrier-episode counters for the barrier-log trimming analogue), and a
/// batch of per-page retained starting-copy versions `p0.v[receiver]` for
/// pages homed at the sender that the receiver has written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Piggy {
    /// Sender's last checkpoint timestamp `T_ckp`.
    pub tckp: VectorClock,
    /// Sender's checkpoint count.
    pub ckpt_seq: u64,
    /// Sender's barrier-episode count at its last checkpoint.
    pub ckpt_episode: u64,
    /// `(page, p0.v[receiver])` hints for the receiver's LLT.
    pub p0v: Vec<(PageId, u32)>,
    /// Gossip of third-party checkpoint timestamps, attached to barrier
    /// releases: `(proc, ckpt_seq, ckpt_episode, T_ckp)`. Without it, nodes
    /// that never exchange protocol messages directly (e.g. distant slabs
    /// in Water-Spatial) would never learn each other's `T_ckp` and their
    /// checkpoint windows could not be garbage collected.
    pub table: Vec<(ProcId, u64, u64, VectorClock)>,
}

impl Piggy {
    /// Encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        self.tckp.wire_size()
            + 16
            + 8 * self.p0v.len()
            + self
                .table
                .iter()
                .map(|(_, _, _, v)| 20 + v.wire_size())
                .sum::<usize>()
    }
}

/// Message payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Acquire request: requester → lock manager.
    LockAcq {
        /// The lock wanted.
        lock: LockId,
        /// Requester's acquisition sequence number.
        acq_seq: u64,
        /// Requester's current timestamp.
        vt: VectorClock,
    },
    /// Forwarded request: manager → granter (the chain tail).
    LockForward {
        /// The lock in question.
        lock: LockId,
        /// The node that wants the lock.
        requester: ProcId,
        /// The requester's acquisition sequence number.
        acq_seq: u64,
        /// Per-lock grant generation assigned by the manager (recovery key).
        gen: u64,
        /// The granter's own acquisition sequence number of the tenure this
        /// forward chains behind (`u64::MAX` = chain start); the granter
        /// grants immediately iff it already released that tenure.
        pred_acq: u64,
        /// Requester's timestamp (zero-length on crash retransmissions; the
        /// granter then uses its release log).
        vt: VectorClock,
    },
    /// Grant: granter → requester.
    LockGrant {
        /// The lock granted.
        lock: LockId,
        /// The requester's acquisition sequence number (dedup key).
        acq_seq: u64,
        /// The manager-assigned grant generation.
        gen: u64,
        /// The granter's release-time timestamp for this lock.
        vt: VectorClock,
        /// Write notices the requester is missing.
        wns: Vec<WriteNotice>,
    },
    /// A writer's end-of-interval diffs for pages homed at the receiver.
    DiffBatch {
        /// The diffs (each carries its creating interval for idempotent,
        /// ordered application). Shared with the sender's volatile diff log:
        /// sending a batch never copies run payloads.
        diffs: Vec<Arc<Diff>>,
        /// Stop-and-wait sequence number within the (writer, home) stream,
        /// `>= 1` when the retry layer is on: the home acks it with
        /// [`Payload::DiffAck`] and the writer keeps at most one batch in
        /// flight per home, preserving first-delivery order under loss and
        /// reordering (the home's version gate makes *re*-delivery safe,
        /// but would silently skip an out-of-order *first* delivery).
        /// `0` on the legacy reliable path: no ack expected.
        seq: u64,
    },
    /// Home → writer acknowledgement of a [`Payload::DiffBatch`].
    DiffAck {
        /// The acknowledged batch's sequence number.
        seq: u64,
    },
    /// A membership message (a heartbeat or its reply). Never piggybacked,
    /// never backlogged.
    Member(dsm_member::Wire),
    /// Barrier arrival: participant → barrier manager.
    BarrierArrive {
        /// Barrier crossing number at the participant.
        episode: u64,
        /// The participant's timestamp at arrival.
        vt: VectorClock,
        /// Interval-delta of the participant's own write notices since its
        /// previous arrival (relative to its previous arrival clock).
        own_wns: WnDelta,
        /// The participant's `(seq, diffs)` for pages the manager homes,
        /// from the interval this arrival closed: the [`Payload::DiffBatch`]
        /// that would otherwise have gone just before it, and is served as
        /// that batch, ahead of the arrival. Only the first send carries it
        /// — a resend from the wait slot does not, the outbox retransmits it
        /// alone — and only a request-lane kind may carry a batch at all
        /// (docs/PROTOCOL.md, the lane paragraph).
        batch: Option<(u64, Vec<Arc<Diff>>)>,
    },
    /// Barrier release: manager → participant.
    BarrierRelease {
        /// The completed episode.
        episode: u64,
        /// Join of every participant's arrival timestamp.
        vt: VectorClock,
        /// Interval-delta of the write notices the receiver is missing
        /// (relative to its arrival clock).
        wns: WnDelta,
    },
    /// Page fetch: requester → home, for one page or many — a demand miss
    /// with the neighbours prefetch had left out, or the pages an acquire or
    /// barrier just invalidated whose last copy was used. The home answers
    /// each page once its copy covers that page's `needed`: the pages already
    /// current go back together in one [`Payload::PageReply`], a parked one
    /// later in a one-page reply under the same `req_id`.
    PageReq {
        /// `(page, minimal version the reply must include, the stale copy
        /// the requester kept)` per page. The last is there when the
        /// requester knows exactly which version of which home incarnation
        /// it is: the home may then reply with the diffs that copy is
        /// missing instead of the page.
        pages: Vec<(PageId, VectorClock, Option<Have>)>,
        /// Requester-local correlation id shared by every answer (dedup of
        /// retransmitted and superseded replies).
        req_id: u64,
    },
    /// Page contents: home → requester, for the pages of a
    /// [`Payload::PageReq`] that are ready together.
    PageReply {
        /// Correlation id echoed from the request.
        req_id: u64,
        /// `(page, home version, body)` per page. A full body is shared with
        /// the home's authoritative copy (copy-on-write at the home keeps
        /// it immutable); a delta is the diffs the requester's kept copy is
        /// missing.
        pages: Vec<(PageId, VectorClock, PageBody)>,
    },

    // ---- recovery protocol ----
    /// Recovery handshake: recovering node → every peer. The one request a
    /// recovery makes of a peer that is not for a replayed page.
    RecLogReq {
        /// Every page the recovering node homes, with the receiver's
        /// component of its version in the restart image (`p0.v[receiver]`):
        /// the receiver's diffs the restored copy already holds. Rule 3's
        /// predicate, and the gate the home applies to an arriving diff.
        homed: Vec<(PageId, u32)>,
    },
    /// Everything a peer contributes to a recovery (its trimmed logs).
    RecLogReply {
        /// The peer's own write-notice log.
        wn: Vec<WnLogEntry>,
        /// The peer's `rel_log[recovering]` (grants it sent to the
        /// recovering node — drives acquire replay).
        rel_for_you: Vec<RelEntry>,
        /// The peer's `acq_log[recovering]` (mirror restoring the
        /// recovering node's `rel_log[peer]`).
        acq_mirror: Vec<RelEntry>,
        /// The peer's own barrier crossings.
        bar: Vec<BarEntry>,
        /// The peer's barrier-manager mirror (non-empty only from the
        /// barrier manager).
        bar_mgr: Vec<MgrBarEntry>,
        /// Per lock managed by the recovering node: the highest-generation
        /// *materialized* acquisition the peer knows — its own newest
        /// tenure (granter `None`) or the newest grant in its release log
        /// (granter `Some(peer)`): `(lock, gen, grantee, grantee_acq,
        /// granter)`. Rebuilds the manager's chain tails. Queued (not yet
        /// granted) edges are deliberately absent: the peer discards them
        /// when serving this handshake — the chain reset — and their
        /// requesters re-drive the acquisition.
        lock_chains: Vec<(LockId, u64, ProcId, u64, Option<ProcId>)>,
        /// Per lock managed by the recovering node: the highest grant
        /// generation the peer has *seen* in any role, including queued
        /// edges it just discarded. Bounds the recovered manager's next
        /// generation so fresh edges outrank every pre-crash one.
        gen_floor: Vec<(LockId, u64)>,
        /// The newest interval of the recovering node's that the peer has
        /// applied to a page it homes: proof that the interval was flushed
        /// before the crash, whatever record of it died with its creator
        /// (a self-granted acquire leaves none anywhere else).
        applied_of_you: u32,
        /// The peer's diff-log entries for the request's `homed` pages that
        /// the restored copies do not hold (`diff.interval.seq >
        /// p0.v[peer]`), in page order and log order within a page.
        diffs: Vec<DiffLogEntry>,
    },
    /// A remote page the replay touched: recovering node → every peer.
    RecPageReq {
        /// The page to rebuild.
        page: PageId,
        /// The recovering node's restart-checkpoint timestamp; the home
        /// returns its newest retained copy with version `<=` this.
        tckp: VectorClock,
    },
    /// What a peer has of a replayed page.
    RecPageReply {
        /// The page.
        page: PageId,
        /// From the page's home only: the maximal starting copy, version and
        /// contents (shared, not copied per hop).
        copy: Option<(VectorClock, Arc<[u8]>)>,
        /// The peer's logged diffs for the page (with full timestamps); the
        /// home leaves out its own that the copy already holds.
        entries: Vec<DiffLogEntry>,
    },
}

/// Encoded size of a fetch's `have`: a presence byte, then incarnation and
/// version.
fn have_size(have: &Option<Have>) -> usize {
    1 + have.as_ref().map_or(0, |(_, v)| 4 + v.wire_size())
}

/// Encoded size of a list of diff-log entries: a count, then the entries.
fn entries_size(entries: &[DiffLogEntry]) -> usize {
    4 + entries.iter().map(|e| e.wire_size()).sum::<usize>()
}

/// Encoded size of a diff batch after its tag: seq (8), count (8), diffs.
fn batch_size(diffs: &[Arc<Diff>]) -> usize {
    16 + diffs.iter().map(|d| d.wire_size()).sum::<usize>()
}

impl Payload {
    /// Encoded size in bytes of the base-protocol part.
    pub fn wire_size(&self) -> usize {
        match self {
            Payload::LockAcq { vt, .. } => 17 + vt.wire_size(),
            Payload::LockForward { vt, .. } => 37 + vt.wire_size(),
            Payload::LockGrant { vt, wns, .. } => {
                25 + vt.wire_size() + wns.iter().map(|w| w.wire_size()).sum::<usize>()
            }
            Payload::DiffBatch { diffs, .. } => 1 + batch_size(diffs),
            Payload::DiffAck { .. } => 9,
            Payload::Member(w) => w.wire_size(),
            // Whether a batch follows is a bit of the tag byte.
            Payload::BarrierArrive {
                vt, own_wns, batch, ..
            } => {
                let batch = batch.as_ref().map_or(0, |(_, diffs)| batch_size(diffs));
                9 + vt.wire_size() + own_wns.wire_size() + batch
            }
            Payload::BarrierRelease { vt, wns, .. } => 9 + vt.wire_size() + wns.wire_size(),
            Payload::PageReq { pages, .. } => {
                13 + pages
                    .iter()
                    .map(|(_, needed, have)| 4 + needed.wire_size() + have_size(have))
                    .sum::<usize>()
            }
            Payload::PageReply { pages, .. } => {
                13 + pages
                    .iter()
                    .map(|(_, version, body)| 4 + version.wire_size() + body.wire_size())
                    .sum::<usize>()
            }
            Payload::RecLogReq { homed } => 5 + 8 * homed.len(),
            Payload::RecLogReply {
                wn,
                rel_for_you,
                acq_mirror,
                bar,
                bar_mgr,
                lock_chains,
                gen_floor,
                applied_of_you: _,
                diffs,
            } => {
                1 + wn.iter().map(|e| e.wire_size()).sum::<usize>()
                    + rel_for_you.iter().map(|e| e.wire_size()).sum::<usize>()
                    + acq_mirror.iter().map(|e| e.wire_size()).sum::<usize>()
                    + bar.iter().map(|e| e.wire_size()).sum::<usize>()
                    + bar_mgr
                        .iter()
                        .map(|e| {
                            8 + e.result_vt.wire_size()
                                + e.arrival_vts.iter().map(|v| v.wire_size()).sum::<usize>()
                        })
                        .sum::<usize>()
                    + 33 * lock_chains.len()
                    + 16 * gen_floor.len()
                    + 4
                    + entries_size(diffs)
            }
            Payload::RecPageReq { tckp, .. } => 5 + tckp.wire_size(),
            Payload::RecPageReply { copy, entries, .. } => {
                let copy = copy.as_ref();
                6 + copy.map_or(0, |(v, bytes)| v.wire_size() + 4 + bytes.len())
                    + entries_size(entries)
            }
        }
    }

    /// Short name for debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::LockAcq { .. } => "LockAcq",
            Payload::LockForward { .. } => "LockForward",
            Payload::LockGrant { .. } => "LockGrant",
            Payload::DiffBatch { .. } => "DiffBatch",
            Payload::DiffAck { .. } => "DiffAck",
            Payload::Member(w) => w.kind(),
            Payload::BarrierArrive { .. } => "BarrierArrive",
            Payload::BarrierRelease { .. } => "BarrierRelease",
            Payload::PageReq { .. } => "PageReq",
            Payload::PageReply { .. } => "PageReply",
            Payload::RecLogReq { .. } => "RecLogReq",
            Payload::RecLogReply { .. } => "RecLogReply",
            Payload::RecPageReq { .. } => "RecPageReq",
            Payload::RecPageReply { .. } => "RecPageReply",
        }
    }

    /// The diff batch this message carries besides its own content — a
    /// barrier arrival's, the one kind that may carry one.
    pub(crate) fn carried(&self) -> Option<&(u64, Vec<Arc<Diff>>)> {
        match self {
            Payload::BarrierArrive { batch, .. } => batch.as_ref(),
            _ => None,
        }
    }

    /// Take the carried batch out, as the `DiffBatch` it stands for.
    pub(crate) fn take_carried(&mut self) -> Option<Payload> {
        let Payload::BarrierArrive { batch, .. } = self else {
            return None;
        };
        let (seq, diffs) = batch.take()?;
        Some(Payload::DiffBatch { seq, diffs })
    }
}

/// A protocol message: payload plus optional FT piggyback plus the causal
/// trace context every message carries on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// The base-protocol payload.
    pub payload: Payload,
    /// LLT/CGC control data (present when fault tolerance is enabled).
    pub piggy: Option<Piggy>,
    /// Causal trace context. Constructed unstamped; the endpoint stamps
    /// origin/seq/timestamp at send time, preserving any parent flow the
    /// sender set. Charged [`TraceCtx::WIRE_SIZE`] bytes unconditionally so
    /// byte accounting never depends on whether tracing is on.
    pub ctx: TraceCtx,
}

impl Msg {
    /// A bare message without piggyback.
    pub fn bare(payload: Payload) -> Self {
        Msg {
            payload,
            piggy: None,
            ctx: TraceCtx::NONE,
        }
    }

    /// A bare message sent in service of the flow `parent` (a reply, a
    /// forward, or any other message caused by handling `parent`).
    pub fn reply_to(payload: Payload, parent: u64) -> Self {
        Msg {
            payload,
            piggy: None,
            ctx: TraceCtx {
                parent,
                ..TraceCtx::NONE
            },
        }
    }

    /// A message with piggyback, parented on `parent` (0 for none).
    pub fn with_parent(payload: Payload, piggy: Option<Piggy>, parent: u64) -> Self {
        Msg {
            payload,
            piggy,
            ctx: TraceCtx {
                parent,
                ..TraceCtx::NONE
            },
        }
    }
}

impl dsm_net::WireSized for Msg {
    fn base_wire_size(&self) -> usize {
        1 + TraceCtx::WIRE_SIZE + self.payload.wire_size()
    }
    fn ft_wire_size(&self) -> usize {
        self.piggy.as_ref().map_or(0, |p| p.wire_size())
    }
    fn kind_name(&self) -> &'static str {
        self.payload.kind()
    }
    /// The answers a blocked application thread waits for go to its lane.
    /// `DiffAck` is not among them: the outbox it pumps must keep moving
    /// while the application computes.
    fn to_waiter(&self) -> bool {
        matches!(
            self.payload,
            Payload::PageReply { .. }
                | Payload::LockGrant { .. }
                | Payload::BarrierRelease { .. }
                | Payload::RecLogReply { .. }
                | Payload::RecPageReply { .. }
        )
    }
    fn stamp_send(&mut self, origin: u32, seq: u64, now_ns: u64) {
        self.ctx.origin = origin;
        self.ctx.seq = seq;
        self.ctx.sent_at_ns = now_ns;
    }
    fn add_chaos_delay(&mut self, ns: u64) {
        self.ctx.chaos_delay_ns += ns;
    }
    fn trace_view(&self) -> (u64, u64, u64, u64) {
        (
            self.ctx.flow_id(),
            self.ctx.parent,
            self.ctx.sent_at_ns,
            self.ctx.chaos_delay_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_net::WireSized;

    #[test]
    fn page_reply_size_dominated_by_page_bytes() {
        let body = PageBody::Full {
            bytes: vec![0; 4096].into(),
            base: 1,
        };
        let m = Msg::bare(Payload::PageReply {
            req_id: 1,
            pages: vec![(PageId(0), VectorClock::zero(8), body)],
        });
        assert!(m.base_wire_size() > 4096);
        assert!(m.base_wire_size() < 4096 + 64 + TraceCtx::WIRE_SIZE);
        assert_eq!(m.ft_wire_size(), 0);
    }

    /// One payload of every kind, each as full as the kind can be: a batch
    /// wherever a kind can carry one.
    fn one_of_every_kind() -> Vec<Payload> {
        let vt = || VectorClock::zero(2);
        let twin = dsm_page::Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[1]);
        let iv = dsm_page::Interval { proc: 1, seq: 1 };
        let diffs = vec![Arc::new(Diff::create(PageId(0), iv, &twin, &cur).unwrap())];
        let wns = || WnDelta::from_notices(&[]);
        let (lock, acq_seq, gen, page) = (1, 2, 3, PageId(0));
        vec![
            Payload::LockAcq {
                lock,
                acq_seq,
                vt: vt(),
            },
            Payload::LockForward {
                lock,
                requester: 1,
                acq_seq,
                gen,
                pred_acq: 0,
                vt: vt(),
            },
            Payload::LockGrant {
                lock,
                acq_seq,
                gen,
                vt: vt(),
                wns: Vec::new(),
            },
            Payload::DiffBatch {
                diffs: diffs.clone(),
                seq: 1,
            },
            Payload::DiffAck { seq: 1 },
            Payload::Member(dsm_member::Wire::Ping {
                seq: 1,
                incarnation: 0,
            }),
            Payload::BarrierArrive {
                episode: 0,
                vt: vt(),
                own_wns: wns(),
                batch: Some((1, diffs)),
            },
            Payload::BarrierRelease {
                episode: 0,
                vt: vt(),
                wns: wns(),
            },
            Payload::PageReq {
                pages: vec![(page, vt(), None)],
                req_id: 1,
            },
            Payload::PageReply {
                req_id: 1,
                pages: Vec::new(),
            },
            Payload::RecLogReq { homed: Vec::new() },
            Payload::RecLogReply {
                wn: Vec::new(),
                rel_for_you: Vec::new(),
                acq_mirror: Vec::new(),
                bar: Vec::new(),
                bar_mgr: Vec::new(),
                lock_chains: Vec::new(),
                gen_floor: Vec::new(),
                applied_of_you: 0,
                diffs: Vec::new(),
            },
            Payload::RecPageReq { page, tckp: vt() },
            Payload::RecPageReply {
                page,
                copy: None,
                entries: Vec::new(),
            },
        ]
    }

    /// A batch rides only the request lane. Delivery is FIFO per sender
    /// within a lane and unordered across lanes, so a batch on a reply could
    /// be overtaken by the sender's next `DiffBatch`, and the home's version
    /// gate would then drop the older one for good.
    #[test]
    fn no_kind_the_application_thread_waits_for_carries_a_batch() {
        use Payload::*;
        let every = one_of_every_kind();
        // No wildcard: a new kind does not compile here until it has a
        // sample above.
        let index = |p: &Payload| match p {
            LockAcq { .. } => 0,
            LockForward { .. } => 1,
            LockGrant { .. } => 2,
            DiffBatch { .. } => 3,
            DiffAck { .. } => 4,
            Member(_) => 5,
            BarrierArrive { .. } => 6,
            BarrierRelease { .. } => 7,
            PageReq { .. } => 8,
            PageReply { .. } => 9,
            RecLogReq { .. } => 10,
            RecLogReply { .. } => 11,
            RecPageReq { .. } => 12,
            RecPageReply { .. } => 13,
        };
        let kinds: Vec<usize> = every.iter().map(index).collect();
        assert_eq!(kinds, (0..14).collect::<Vec<_>>());
        let mut carriers = Vec::new();
        for payload in every {
            let (kind, carries) = (payload.kind(), payload.carried().is_some());
            let msg = Msg::bare(payload);
            assert!(!(msg.to_waiter() && carries), "{kind} is a reply");
            if carries {
                carriers.push(kind);
            }
        }
        assert_eq!(carriers, ["BarrierArrive"]);
    }

    #[test]
    fn piggy_bytes_are_separate() {
        let piggy = Piggy {
            tckp: VectorClock::zero(8),
            ckpt_seq: 1,
            ckpt_episode: 2,
            p0v: vec![(PageId(0), 3), (PageId(1), 4)],
            table: vec![(1, 2, 3, VectorClock::zero(8))],
        };
        let m = Msg {
            payload: Payload::DiffAck { seq: 1 },
            piggy: Some(piggy.clone()),
            ctx: TraceCtx::NONE,
        };
        // 1 kind byte + 9 payload bytes + the 16-byte trace context.
        assert_eq!(m.base_wire_size(), 10 + TraceCtx::WIRE_SIZE);
        assert_eq!(m.ft_wire_size(), piggy.wire_size());
        assert_eq!(piggy.wire_size(), 32 + 16 + 16 + 20 + 32);
    }
}
