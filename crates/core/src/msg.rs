//! Protocol messages.
//!
//! One message type covers the base HLRC protocol, the lazily piggybacked
//! LLT/CGC control data, and the recovery protocol. Base and piggyback byte
//! counts are reported separately (Table 2 measures their ratio). Every
//! kind is declared once, in the [`payloads!`] list below: its tag, name and
//! fields in wire order.

use std::sync::Arc;

use dsm_page::{Diff, PageId, ProcId, VectorClock};
use dsm_trace::TraceCtx;
use hlrc::{Have, LockId, PageBody, WnDelta};

use crate::ft::logs::{BarEntry, DiffLogEntry, RelEntry, WnLogEntry};
use crate::wire::{self, payloads, wire_struct, ChainStart, Granters, Wire};

wire_struct! {
    /// A node's last checkpoint, as far as some node knows it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CkptStamp {
        /// The node's checkpoint count (0: none taken).
        pub seq: u64,
        /// Barrier episodes the node had crossed at that checkpoint (the
        /// barrier-log trimming analogue of `T_ckp`).
        pub episode: u64,
        /// The checkpoint's timestamp `T_ckp`.
        pub tckp: VectorClock,
    }

    /// Fault-tolerance control data piggybacked on protocol messages: the
    /// sender's last checkpoint, and a batch of per-page retained
    /// starting-copy versions `p0.v[receiver]` for pages homed at the sender
    /// that the receiver has written.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Piggy {
        /// The sender's last checkpoint.
        pub stamp: CkptStamp,
        /// `(page, p0.v[receiver])` hints for the receiver's LLT.
        pub p0v: Vec<(PageId, u32)>,
        /// Gossip of third-party checkpoints, attached to barrier releases.
        /// Without it, nodes that never exchange protocol messages directly
        /// (e.g. distant slabs in Water-Spatial) would never learn each
        /// other's `T_ckp` and their checkpoint windows could not be garbage
        /// collected.
        pub table: Vec<(ProcId, CkptStamp)>,
    }

    /// A page the home sends with the notices that invalidate it at the
    /// receiver, on a `LockGrant` or `BarrierRelease`: the receiver reported
    /// using its copy, which is exactly `base`, and `(page, version, body)`
    /// is what a `PageReq` naming `base` would have been answered. The
    /// receiver installs it only while its kept copy is still `base` and
    /// `version` covers what the page needs; otherwise it fetches as if
    /// nothing had come.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Pushed {
        /// The page.
        pub page: PageId,
        /// The copy the receiver reported, which `body` brings up to
        /// `version`.
        pub base: Have,
        /// The home's version of the page.
        pub version: VectorClock,
        /// The page, or the diffs `base` is missing.
        pub body: PageBody,
    }

    /// What a peer has of one replayed page, in a [`Payload::RecPageReply`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RecPage {
        /// The page.
        pub page: PageId,
        /// From the page's home only: the maximal starting copy, version and
        /// contents (shared, not copied per hop).
        pub copy: Option<(VectorClock, Arc<[u8]>)>,
        /// The peer's logged diffs for the page (with full timestamps); the
        /// home leaves out its own that the copy already holds.
        pub entries: Vec<DiffLogEntry>,
    }
}

impl CkptStamp {
    /// No checkpoint: what is known of a node before anything is learned.
    pub fn zero(n: usize) -> Self {
        CkptStamp {
            seq: 0,
            episode: 0,
            tckp: VectorClock::zero(n),
        }
    }

    /// Learn `other`, a stamp of the same node: the newer checkpoint wins.
    /// A decoded `seq` of `u64::MAX` is no checkpoint any node takes and is
    /// ignored.
    pub fn merge(&mut self, other: &CkptStamp) {
        if other.seq != u64::MAX && other.seq > self.seq {
            *self = other.clone();
        }
    }
}

/// A lock chain's tail as a peer knows it: `(lock, gen, grantee, the
/// grantee's acquisition number, granter)`, the granter `None` for the
/// grantee's own tenure.
pub type ChainTail = (LockId, u64, ProcId, u64, Option<ProcId>);

payloads! {
    /// Message payloads.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Payload {
        // The diff ack's `DiffAck` and the heartbeat's `HbPing` / `HbPong`.
        retired 4, 5, 6;

        /// Acquire request: requester → lock manager.
        0 => LockAcq {
            /// The lock wanted.
            lock: LockId,
            /// Requester's acquisition sequence number.
            acq_seq: u64,
            /// Requester's current timestamp.
            vt: VectorClock,
        },
        /// Forwarded request: manager → granter (the chain tail).
        1 => LockForward {
            /// The lock in question.
            lock: LockId,
            /// The node that wants the lock.
            requester: ProcId,
            /// The requester's acquisition sequence number.
            acq_seq: u64,
            /// Per-lock grant generation assigned by the manager (recovery
            /// key).
            gen: u64,
            /// The granter's own acquisition sequence number of the tenure
            /// this forward chains behind (`u64::MAX` = chain start); the
            /// granter grants immediately iff it already released that
            /// tenure.
            pred_acq: u64 as ChainStart,
            /// Requester's timestamp (zero-length on a forward a restart
            /// re-issues; the granter then uses its release log).
            vt: VectorClock,
        },
        /// Grant: granter → requester.
        2 => LockGrant {
            /// The lock granted.
            lock: LockId,
            /// The requester's acquisition sequence number (its wait slot
            /// takes one grant per number).
            acq_seq: u64,
            /// The manager-assigned grant generation.
            gen: u64,
            /// The granter's release-time timestamp for this lock.
            vt: VectorClock,
            /// Write notices the requester is missing (relative to its
            /// request timestamp).
            wns: WnDelta,
            /// The pages those notices invalidate that the requester
            /// reported using, when the granter is their home and its copies
            /// cover the notices (a peer reports to node 0 on its arrivals;
            /// node 0's reports reach the other homes on their releases).
            pushed: Vec<Pushed>,
        },
        /// A writer's end-of-interval diffs for pages homed at the receiver.
        3 => DiffBatch {
            /// The diffs (each carries its creating interval for idempotent,
            /// ordered application). Shared with the sender's volatile diff
            /// log: sending a batch never copies run payloads.
            diffs: Vec<Arc<Diff>>,
        },
        /// Barrier arrival: participant → barrier manager.
        7 => BarrierArrive {
            /// Barrier crossing number at the participant.
            episode: u64,
            /// The participant's timestamp at arrival.
            vt: VectorClock,
            /// The participant's own write notices since its previous
            /// arrival.
            own_wns: WnDelta,
            /// The copies the participant installed and then used since its
            /// previous arrival, each with what it is exactly: a peer's of
            /// the manager's pages, which the manager pushes when its next
            /// grant or release to the peer invalidates them ([`Pushed`]);
            /// the manager's own of every other home's, which it relays to
            /// each home on that home's release.
            used: Vec<(PageId, Have)>,
        } relay {
            /// The pages of the participant's own that its notices here
            /// invalidate at the manager and that the manager reported using
            /// (from a home other than the manager): the manager installs
            /// them when it crosses. Only the first send carries them.
            pushed: Vec<Pushed>,
        } batch {
            /// The participant's held diffs for pages the manager homes: the
            /// [`Payload::DiffBatch`] that would otherwise have gone just
            /// before it, and is served as that batch, ahead of the arrival.
            /// Only the first send carries it — a resend to a restarted
            /// manager does not — and only a message no later message of its
            /// sender can be handled ahead of may carry a batch at all
            /// (docs/PROTOCOL.md, the queue paragraph): its sender is blocked
            /// until the answer.
            batch,
        },
        /// Barrier release: manager → participant.
        8 => BarrierRelease {
            /// The completed episode.
            episode: u64,
            /// Join of every participant's arrival timestamp.
            vt: VectorClock,
            /// Write notices the receiver is missing (relative to its
            /// arrival clock).
            wns: WnDelta,
            /// The pages those notices invalidate that the receiver reported
            /// using, as on a `LockGrant`; on the manager's release to
            /// itself, the pages the episode's arrivals pushed to it.
            pushed: Vec<Pushed>,
        } relay {
            /// The manager's copies of the receiver's pages that its arrival
            /// reported used: the receiver keeps each as the manager's want
            /// ([`hlrc::HomeStore::want`]) when it crosses.
            used: Vec<(PageId, Have)>,
        } batch {
            /// The manager's held diffs for pages the receiver homes, served
            /// as the [`Payload::DiffBatch`] they stand for, ahead of the
            /// release. A release may carry them because it answers an
            /// arrival its receiver sent with its wait open: the receiver
            /// handles every message of the manager's in the order sent.
            batch,
        },
        /// Page fetch: requester → home, for one page or many — a demand
        /// miss with the neighbours prefetch had left out, or the pages an
        /// acquire or barrier just invalidated whose last copy was used. The
        /// home answers each page once its copy covers that page's `needed`:
        /// the pages already current go back together in one
        /// [`Payload::PageReply`], a parked one later in a one-page reply
        /// under the same `req_id`.
        9 => PageReq {
            /// Requester-local correlation id shared by every answer (dedup
            /// of resent and superseded replies).
            req_id: u64,
            /// `(page, minimal version the reply must include, the stale
            /// copy the requester kept)` per page. The last is there when
            /// the requester knows exactly which version of which home
            /// incarnation it is: the home may then reply with the diffs
            /// that copy is missing instead of the page.
            pages: Vec<(PageId, VectorClock, Option<Have>)>,
        },
        /// Page contents: home → requester, for the pages of a
        /// [`Payload::PageReq`] that are ready together.
        10 => PageReply {
            /// Correlation id echoed from the request.
            req_id: u64,
            /// `(page, home version, body)` per page. A full body is shared
            /// with the home's authoritative copy (copy-on-write at the home
            /// keeps it immutable); a delta is the diffs the requester's
            /// kept copy is missing.
            pages: Vec<(PageId, VectorClock, PageBody)>,
        },

        // ---- recovery protocol ----
        /// Recovery handshake: recovering node → every peer. The one request
        /// a recovery makes of a peer that is not for a replayed page.
        11 => RecLogReq {
            /// Every page the recovering node homes, with the receiver's
            /// component of its version in the restart image
            /// (`p0.v[receiver]`): the receiver's diffs the restored copy
            /// already holds. Rule 3's predicate, and the gate the home
            /// applies to an arriving diff.
            homed: Vec<(PageId, u32)>,
        },
        /// Everything a peer contributes to a recovery (its trimmed logs).
        12 => RecLogReply {
            /// The peer's own write-notice log.
            wn: Vec<WnLogEntry>,
            /// The peer's `rel_log[recovering]` (grants it sent to the
            /// recovering node — drives acquire replay).
            rel_for_you: Vec<RelEntry>,
            /// The peer's `acq_log[recovering]` (mirror restoring the
            /// recovering node's `rel_log[peer]`).
            acq_mirror: Vec<RelEntry>,
            /// The peer's barrier log: the episodes it crossed and, from the
            /// manager, those it completed.
            bar: Vec<BarEntry>,
            /// Per lock managed by the recovering node: the
            /// highest-generation *materialized* acquisition the peer knows
            /// — its own newest tenure (granter `None`) or the newest grant
            /// in its release log (granter `Some(peer)`). Rebuilds the
            /// manager's chain tails. Queued (not yet granted) edges are
            /// deliberately absent: the peer discards them when serving this
            /// handshake — the chain reset — and their requesters re-drive
            /// the acquisition.
            lock_chains: Vec<ChainTail> as Granters,
            /// Per lock managed by the recovering node: the highest grant
            /// generation the peer has *seen* in any role, including queued
            /// edges it just discarded. Bounds the recovered manager's next
            /// generation so fresh edges outrank every pre-crash one.
            gen_floor: Vec<(LockId, u64)>,
            /// The newest interval of the recovering node's that the peer
            /// has applied to a page it homes, or that a copy of one of the
            /// recovering node's pages carried when the peer installed it:
            /// proof that the interval was closed before the crash, whatever
            /// record of it died with its creator (a self-granted acquire
            /// leaves none anywhere else).
            applied_of_you: u32,
            /// The peer's diff-log entries for the request's `homed` pages
            /// that the restored copies do not hold (`diff.interval.seq >
            /// p0.v[peer]`), in page order and log order within a page.
            diffs: Vec<DiffLogEntry>,
            /// The pages homed at the peer that the recovering node reported
            /// using (its wants there, dropped by the handshake), in page
            /// order: the replay asks for them in one round.
            wanted: Vec<PageId>,
        },
        /// Remote pages the replay touches, or will: recovering node → every
        /// peer. One round asks for every page the handshake named; a
        /// replayed miss on any other page asks for that one.
        13 => RecPageReq {
            /// The pages to rebuild, ascending.
            pages: Vec<PageId>,
            /// The recovering node's restart-checkpoint timestamp; the home
            /// returns its newest retained copy with version `<=` this.
            tckp: VectorClock,
        },
        /// What a peer has of each page of a [`Payload::RecPageReq`], in its
        /// order.
        14 => RecPageReply {
            /// One entry per page asked.
            pages: Vec<RecPage>,
        },
    }
}

impl Payload {
    /// The pages a grant, release or arrival carries with its notices.
    pub fn pushed(&self) -> &[Pushed] {
        match self {
            Payload::LockGrant { pushed, .. }
            | Payload::BarrierRelease { pushed, .. }
            | Payload::BarrierArrive { pushed, .. } => pushed,
            _ => &[],
        }
    }

    /// A barrier release given from the barrier log — resent to a
    /// re-arrival, or the answer a replayed barrier takes: the episode's
    /// result clock and the notices its receiver misses, with nothing pushed,
    /// relayed or carried.
    pub(crate) fn logged_release(episode: u64, vt: VectorClock, wns: WnDelta) -> Payload {
        Payload::BarrierRelease {
            episode,
            vt,
            wns,
            pushed: Vec::new(),
            used: Vec::new(),
            batch: None,
        }
    }
}

/// A protocol message: payload plus optional FT piggyback plus the causal
/// trace context a traced message carries on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// The base-protocol payload.
    pub payload: Payload,
    /// LLT/CGC control data (present when fault tolerance is enabled).
    pub piggy: Option<Piggy>,
    /// Causal trace context. Constructed unstamped; while tracing is on the
    /// endpoint stamps origin/seq/timestamp at send time, preserving any
    /// parent flow the sender set. Only a stamped context is encoded, and
    /// its bytes are charged apart (`trace_wire_size`), so the base and FT
    /// bytes never depend on it.
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

/// A message is charged what [`wire::put_msg`] writes: the base part is
/// [`wire::put_base`]'s length but the trace context, the piggyback its
/// codec's, the trace context [`wire::put_ctx`]'s.
impl dsm_net::WireSized for Msg {
    fn base_wire_size(&self) -> usize {
        wire::len_of(|w| wire::put_base(w, self)) - self.trace_wire_size()
    }
    fn ft_wire_size(&self) -> usize {
        let piggy = self.piggy.as_ref();
        piggy.map_or(0, |p| wire::len_of(|w| p.put(w)))
    }
    fn trace_wire_size(&self) -> usize {
        if self.ctx.is_stamped() {
            wire::len_of(|w| wire::put_ctx(w, &self.ctx))
        } else {
            0
        }
    }
    fn kind_name(&self) -> &'static str {
        self.payload.kind()
    }
    /// The service thread passes the answers a blocked application thread
    /// waits for, and a barrier arrival too: the manager's application
    /// thread is its one consumer — an episode completes only once the
    /// manager has arrived, and the arrival needs the big lock that thread
    /// holds while it computes — so it waits in the queue for the manager's
    /// next wait.
    fn to_waiter(&self) -> bool {
        matches!(
            self.payload,
            Payload::PageReply { .. }
                | Payload::LockGrant { .. }
                | Payload::BarrierArrive { .. }
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
    use crate::ft::logs::{BarEntry, DiffLogEntry, RelEntry, WnLogEntry};
    use dsm_net::WireSized;
    use dsm_page::{Interval, Page};
    use dsm_storage::{ByteReader, ByteWriter};

    /// A reply with a fully non-zero page is that page and a few bytes; an
    /// all-zero page travels as its length and an empty run list.
    #[test]
    fn page_reply_size_dominated_by_page_bytes() {
        let reply = |fill: u8| {
            let body = PageBody::Full {
                bytes: vec![fill; 4096].into(),
                base: 1,
            };
            Msg::bare(Payload::PageReply {
                req_id: 1,
                pages: vec![(PageId(0), VectorClock::zero(8), body)],
            })
        };
        let m = reply(7);
        assert!(m.base_wire_size() > 4096);
        assert!(m.base_wire_size() < 4096 + 32);
        assert_eq!(m.ft_wire_size(), 0);
        assert!(reply(0).base_wire_size() < 32);
    }

    /// A 2 KiB page whose non-zero words are 1–2 and 200, so its two gaps
    /// take a one-byte and a two-byte varint.
    fn sparse_page() -> Arc<[u8]> {
        let mut page = vec![0u8; 2048];
        page[8..24].fill(7);
        page[1600..1608].fill(9);
        page.into()
    }

    fn clock(v: &[u32]) -> VectorClock {
        VectorClock::from_vec(v.to_vec())
    }

    /// A diff of `words` words at byte 8 of a 64-byte page.
    fn diff(page: u32, seq: u32, words: usize) -> Arc<Diff> {
        let (twin, mut cur) = (Page::zeroed(64), Page::zeroed(64));
        cur.write(8, &vec![seq as u8; 8 * words]);
        let iv = Interval { proc: 1, seq };
        Arc::new(Diff::create(PageId(page), iv, &twin, &cur).unwrap())
    }

    /// One payload of every kind, in the declared order, each as full as the
    /// kind can be: every list holds an item, every option is set, and a
    /// batch rides wherever a kind can carry one. The array is as long as the
    /// declared list, so a new kind does not compile until it has a sample.
    fn one_of_every_kind() -> [Payload; Payload::KINDS.len()] {
        let vt = || clock(&[4, 300]);
        let diffs = vec![diff(0, 1, 1), diff(2, 200, 2)];
        let wns = || {
            WnDelta::from(vec![hlrc::WriteNotice {
                interval: Interval { proc: 1, seq: 7 },
                pages: vec![PageId(0), PageId(130)],
            }])
        };
        let entry = DiffLogEntry {
            diff: diff(0, 3, 1),
            t: clock(&[2, 3]),
        };
        let rel = RelEntry {
            acq_seq: 5,
            lock: 1,
            gen: 2,
            req_vt: clock(&[1, 0]),
            t_after: clock(&[1, 4]),
        };
        let (lock, acq_seq, gen, page) = (1, 2, 3, PageId(0));
        let base = || (2, clock(&[1, 3]));
        let pushed = || {
            let delta = PageBody::Delta(vec![diff(0, 4, 1)]);
            let kept = base();
            let (bytes, base) = (sparse_page(), 0);
            vec![
                Pushed {
                    page,
                    base: kept,
                    version: vt(),
                    body: delta,
                },
                Pushed {
                    page: PageId(130),
                    base: (1, clock(&[0, 200])),
                    version: vt(),
                    body: PageBody::Full { bytes, base },
                },
            ]
        };
        [
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
                pred_acq: u64::MAX,
                vt: vt(),
            },
            Payload::LockGrant {
                lock,
                acq_seq,
                gen,
                vt: vt(),
                wns: wns(),
                pushed: pushed(),
            },
            Payload::DiffBatch {
                diffs: diffs.clone(),
            },
            Payload::BarrierArrive {
                episode: 0,
                vt: vt(),
                own_wns: wns(),
                used: vec![(page, base()), (PageId(130), (1, clock(&[0, 200])))],
                pushed: pushed(),
                batch: Some(diffs.clone()),
            },
            Payload::BarrierRelease {
                episode: 0,
                vt: vt(),
                wns: wns(),
                pushed: pushed(),
                used: vec![(page, base())],
                batch: Some(diffs.clone()),
            },
            Payload::PageReq {
                pages: vec![(page, vt(), Some(base())), (PageId(9), vt(), None)],
                req_id: 1,
            },
            Payload::PageReply {
                req_id: 1,
                pages: vec![
                    (page, vt(), PageBody::Delta(diffs)),
                    (
                        PageId(9),
                        vt(),
                        PageBody::Full {
                            bytes: sparse_page(),
                            base: 2,
                        },
                    ),
                ],
            },
            Payload::RecLogReq {
                homed: vec![(page, 6), (PageId(9), 0)],
            },
            Payload::RecLogReply {
                wn: vec![WnLogEntry {
                    seq: 4,
                    pages: vec![page],
                }],
                rel_for_you: vec![rel.clone()],
                acq_mirror: vec![rel],
                bar: vec![
                    BarEntry {
                        episode: 1,
                        result_vt: clock(&[2, 1]),
                    },
                    BarEntry {
                        episode: 200,
                        result_vt: clock(&[9, 300]),
                    },
                ],
                lock_chains: vec![(lock, gen, 1, 5, None), (2, 4, 0, 6, Some(1))],
                gen_floor: vec![(lock, 9)],
                applied_of_you: 3,
                diffs: vec![entry.clone()],
                wanted: vec![page, PageId(9)],
            },
            Payload::RecPageReq {
                pages: vec![page, PageId(9)],
                tckp: vt(),
            },
            Payload::RecPageReply {
                pages: vec![
                    RecPage {
                        page,
                        copy: Some((vt(), sparse_page())),
                        entries: vec![entry.clone()],
                    },
                    RecPage {
                        page: PageId(9),
                        copy: None,
                        entries: vec![entry],
                    },
                ],
            },
        ]
    }

    /// A batch rides only a message that no later message of its sender can
    /// be handled ahead of: the home's version gate drops an older diff that
    /// comes after a newer one for good. Every carrier is one half of a
    /// parked request and its answer ([`answers`], the wait slot's rule):
    ///
    /// * the request — the arrival — because its sender is blocked until the
    ///   answer, a reply for its waiting thread, which the receiver sends
    ///   only once it has handled the request, the batch first;
    /// * the answer — the release — because its receiver parked the request
    ///   with its wait open, so its waiting thread, not the service thread,
    ///   takes the answer and every message behind it, in the order sent.
    ///
    /// [`answers`]: crate::runtime::node::answers
    #[test]
    fn a_batch_rides_only_a_message_no_later_one_of_its_sender_is_handled_ahead_of() {
        use crate::runtime::node::answers;
        use Payload::*;
        let every = one_of_every_kind();
        let kinds: Vec<&str> = every.iter().map(Payload::kind).collect();
        let declared: Vec<&str> = Payload::KINDS.iter().map(|&(_, name)| name).collect();
        assert_eq!(kinds, declared);
        let mut carriers = Vec::new();
        for payload in &every {
            // What the wire says: the tag's batch bit.
            let mut w = ByteWriter::new();
            crate::wire::put_msg(&mut w, &Msg::bare(payload.clone()));
            if w.into_bytes()[0] & crate::wire::BATCH == 0 {
                continue;
            }
            let kind = payload.kind();
            carriers.push(payload);
            let answer = every.iter().find(|reply| answers(payload, reply));
            let request = every.iter().find(|request| answers(request, payload));
            let for_the_waiter = match (answer, request) {
                (Some(answer), None) => answer,
                (None, Some(_)) => payload,
                _ => panic!("{kind} carries a batch but is no parked request or answer"),
            };
            let msg = Msg::bare(for_the_waiter.clone());
            assert!(
                msg.to_waiter(),
                "{kind}: {} is for the waiter",
                msg.kind_name()
            );
        }
        let carriers = &carriers[..];
        assert!(matches!(
            carriers,
            [BarrierArrive { .. }, BarrierRelease { .. }]
        ));
    }

    /// docs/PROTOCOL.md's table in "The wire layout" has one row per
    /// declared kind, at its tag, and one for the retired tags, and no
    /// other: the doc is checked against the list as the metric catalogue
    /// is against the metric table.
    #[test]
    fn the_protocol_docs_wire_table_is_the_declared_list() {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let (_, layout) = doc.split_once("### The wire layout").expect("the section");
        let rows: Vec<String> = layout
            .lines()
            .take_while(|line| !line.starts_with("## "))
            .filter_map(|line| {
                let mut cells = line.split('|').map(str::trim).skip(1);
                let (tags, kind) = (cells.next()?, cells.next()?.split(' ').next()?);
                let row = tags.starts_with(|c: char| c.is_ascii_digit());
                row.then(|| format!("{tags} | {kind}"))
            })
            .collect();
        let kinds = Payload::KINDS.iter();
        let mut declared: Vec<_> = kinds
            .map(|(tag, kind)| (*tag, format!("{tag} | `{kind}`")))
            .collect();
        let retired: Vec<String> = Payload::RETIRED.iter().map(u8::to_string).collect();
        let retired = format!("{} | retired", retired.join(", "));
        declared.push((Payload::RETIRED[0], retired));
        declared.sort();
        let declared: Vec<String> = declared.into_iter().map(|(_, row)| row).collect();
        assert_eq!(rows, declared);
    }

    /// The sender every test message is decoded from.
    const FROM: usize = 1;

    /// Every kind (an arrival and a release without their batch besides the
    /// ones with), a few carrying a piggyback with a gossip table: once
    /// stamped as a traced endpoint stamps it, half of them parented, and
    /// once untraced, with no context.
    fn every_message() -> Vec<Msg> {
        let mut payloads = one_of_every_kind().to_vec();
        for carrier in [4, 5] {
            let mut bare = payloads[carrier].clone();
            bare.batch_slot().map(Option::take);
            payloads.push(bare);
        }
        let stamp = |seq, episode, tckp: &[u32]| CkptStamp {
            seq,
            episode,
            tckp: clock(tckp),
        };
        let piggy = Piggy {
            stamp: stamp(2, 5, &[3, 1]),
            p0v: vec![(PageId(0), 3), (PageId(300), 4)],
            table: vec![(0, stamp(2, 3, &[3, 0])), (1, stamp(200, 1, &[0, 1]))],
        };
        let parent = TraceCtx {
            origin: 0,
            seq: 999,
            ..TraceCtx::NONE
        }
        .flow_id();
        let untraced: Vec<Msg> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| Msg::with_parent(payload, (i % 3 == 0).then(|| piggy.clone()), 0))
            .collect();
        let traced = untraced.iter().enumerate().map(|(i, m)| {
            let mut m = m.clone();
            m.ctx.parent = parent * (i as u64 % 2);
            m.stamp_send(FROM as u32, 100 + 37 * i as u64, 0);
            m
        });
        traced.chain(untraced.clone()).collect()
    }

    fn decode(bytes: &[u8]) -> Result<Msg, dsm_storage::CodecError> {
        crate::wire::get_msg(&mut ByteReader::new(bytes), FROM)
    }

    /// Every kind, traced or not, round-trips through `put_msg` /
    /// `get_msg`, origin and parent included; is charged exactly the length
    /// of its encoding, its context to the trace bytes alone; and
    /// every strict prefix of it, and every byte of it set to each other
    /// value, decodes to `Ok` or `Err`: never a panic.
    #[test]
    fn every_kind_roundtrips_is_charged_its_encoding_and_no_byte_panics_the_decoder() {
        for m in every_message() {
            let kind = m.kind_name();
            let mut w = ByteWriter::new();
            crate::wire::put_msg(&mut w, &m);
            let bytes = w.into_bytes();
            let charged = m.base_wire_size() + m.ft_wire_size() + m.trace_wire_size();
            assert_eq!(bytes.len(), charged, "{kind}");
            assert_eq!(m.trace_wire_size() > 0, m.ctx.is_stamped(), "{kind}");
            let mut r = ByteReader::new(&bytes);
            assert_eq!(crate::wire::get_msg(&mut r, FROM).unwrap(), m, "{kind}");
            assert!(r.is_exhausted(), "{kind}");
            for len in 0..bytes.len() {
                assert!(decode(&bytes[..len]).is_err(), "{kind} cut at {len}");
            }
            let mut changed = bytes.clone();
            for i in 0..bytes.len() {
                for v in (0..=u8::MAX).filter(|&v| v != bytes[i]) {
                    changed[i] = v;
                    let _ = decode(&changed);
                }
                changed[i] = bytes[i];
            }
        }
    }

    /// FNV-1a of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
    }

    /// The exact bytes of every message of [`every_message`] — traced,
    /// piggybacked, relayed and batch-carrying — and of one appended log
    /// segment, as (length, FNV-1a) pairs: a change to how the layout is
    /// written may move no byte of a message or a segment.
    #[test]
    fn every_message_and_a_log_segment_encode_to_their_pinned_bytes() {
        // Traced, then untraced, each the twelve kinds in tag order and then
        // the arrival and the release without their batch; last, the
        // segment.
        const PINNED: [(usize, u64); 29] = [
            (34, 0xb00dde1f164f85b0),
            (15, 0x3ee8a355964d950e),
            (89, 0x733ef3828b1a64af),
            (69, 0xf59031fc12e1f3d6),
            (138, 0x8e1cc2218e0cc6e0),
            (133, 0x652d170b27f139a8),
            (47, 0x9730c9463b1a2f63),
            (91, 0xe220663354095c21),
            (9, 0x1367e0f2d9c2d7d6),
            (102, 0x193d312b8f019fc8),
            (11, 0x44efb3e432bb6dfa),
            (83, 0x890d3fdb6a94dbd0),
            (125, 0x87aa44fa64db5a60),
            (95, 0xe2d024d6132d4203),
            (32, 0x919974e98da0dfac),
            (10, 0xb123b490b2c404c3),
            (86, 0x3b3de1cbdddf81f8),
            (64, 0x0e2078e7ba8e8679),
            (135, 0xfeccc5c9e0dafdf1),
            (128, 0xd969d8d9bd4b2486),
            (44, 0x8e08a5cf49ab2bc7),
            (86, 0xc62747e665be9d41),
            (6, 0xb3b1d46fa9da565b),
            (97, 0xb2f04351275f9667),
            (8, 0x9c274c49411aa011),
            (78, 0xf1870bb9536692f7),
            (122, 0xbd9256ad2ee2aaa0),
            (90, 0x14fa57db35ee94b7),
            (71, 0x3b1aa855c9037567),
        ];
        let mut encodings: Vec<Vec<u8>> = every_message()
            .iter()
            .map(|m| {
                let mut w = ByteWriter::new();
                crate::wire::put_msg(&mut w, m);
                w.into_bytes()
            })
            .collect();
        // The segment of a second save: its bounds name the notice and the
        // page the first save wrote, its entries are the second interval's.
        let mut logs = crate::ft::logs::VolatileLogs::new(1, 2);
        logs.log_interval(4, vec![PageId(0)], &clock(&[3, 4]), &[diff(0, 4, 1)]);
        logs.save(4);
        let later = [diff(130, 200, 2), diff(2, 200, 1)];
        logs.log_interval(200, vec![PageId(2), PageId(130)], &clock(&[3, 200]), &later);
        encodings.push(logs.save(200).bytes);
        let got: Vec<(usize, u64)> = encodings.iter().map(|b| (b.len(), fnv1a(b))).collect();
        assert_eq!(got.len(), PINNED.len());
        for (i, (got, pinned)) in got.iter().zip(PINNED).enumerate() {
            assert_eq!(*got, pinned, "encoding {i} moved");
        }
    }

    /// The shapes the layout was chosen for. An untraced lock forward at
    /// n = 2 is 9 bytes (62 charged at fixed widths: 1 + 16 + 37 + 8); a
    /// traced one adds its context — a root context is its seq and one
    /// byte, a parented one its seq and the parent's node and seq — on the
    /// wire, in the trace bytes; the chain start `pred_acq = u64::MAX` is
    /// one byte.
    #[test]
    fn a_lock_forward_a_context_and_the_chain_start_are_a_few_bytes() {
        let encoded = |m: &Msg| {
            let mut w = ByteWriter::new();
            crate::wire::put_msg(&mut w, m);
            w.into_bytes().len()
        };
        let forward = |pred_acq, parent| {
            let payload = Payload::LockForward {
                lock: 3,
                requester: 1,
                acq_seq: 40,
                gen: 41,
                pred_acq,
                vt: clock(&[45, 38]),
            };
            let mut m = Msg::reply_to(payload, parent);
            // Untraced: no context on the wire, none charged.
            let untraced = m.base_wire_size();
            assert_eq!((encoded(&m), m.trace_wire_size()), (untraced, 0));
            m.stamp_send(0, 1000, 0);
            assert_eq!(
                m.base_wire_size(),
                untraced,
                "the context is not a base byte"
            );
            assert_eq!(encoded(&m), untraced + m.trace_wire_size());
            (untraced, m.trace_wire_size())
        };
        let parent = TraceCtx {
            origin: 1,
            seq: 999,
            ..TraceCtx::NONE
        }
        .flow_id();
        // Tag, lock, requester, acq_seq, gen, pred_acq + 1, clock (count
        // and two entries); a traced context is seq 2 + node 1 + seq 2, or
        // seq 2 + a root's 0.
        assert_eq!(forward(u64::MAX, 0), (1 + 5 + 3, 3));
        assert_eq!(forward(u64::MAX, parent), (1 + 5 + 3, 5));
        assert_eq!(forward(0, parent), forward(u64::MAX, parent));
        assert_eq!(forward(127, parent).0, forward(u64::MAX, parent).0 + 1);
    }
}
