//! The home side of the two lock-free kinds: [`HomeSvc`].
//!
//! `PageReq` and `DiffBatch` need only the sharded home store — never the
//! big lock, which is what lets the service loop run their one handler while
//! the application computes. The module owns no state of its own: the home
//! store belongs to the page table. Lock order is big → shard. It also
//! answers the pages a grant or release pushes ([`pushes_for`]) from the
//! same store.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dsm_page::{Diff, PageId, ProcId, VectorClock};
use dsm_trace::{EventKind, LatencyHists, NodeTracer};
use hlrc::{ApplyOutcome, FetchOutcome, HomeStore, ReadyFetch, WaitingFetch, WnDelta};

use crate::msg::{Payload, Pushed};
use crate::runtime::node::NodeState;

/// The reply to a parked fetch that has become servable: one page, under
/// the `req_id` of the request that asked for it.
fn page_reply(r: ReadyFetch) -> (ProcId, Payload) {
    let reply = Payload::PageReply {
        req_id: r.req_id,
        pages: vec![(r.page, r.version, r.body)],
    };
    (r.from, reply)
}

/// The pages a grant or release to `peer` with notices `wns` pushes: each
/// page those notices invalidate at `peer` that `peer` reported using
/// ([`HomeStore::want`]), homed here, whose copy covers every notice naming
/// it — answered as a fetch of it from `peer` would be now. `peer` fetches
/// the others as before.
pub(crate) fn pushes_for(home: &HomeStore, peer: ProcId, wns: &WnDelta) -> Vec<Pushed> {
    if !home.wants_any(peer) {
        return Vec::new();
    }
    let mut covers: BTreeMap<PageId, VectorClock> = BTreeMap::new();
    let zero = || VectorClock::zero(home.cluster_size());
    for wn in wns.iter().filter(|wn| wn.interval.proc != peer) {
        let (writer, seq) = (wn.interval.proc, wn.interval.seq);
        for &page in &wn.pages {
            let c = covers.entry(page).or_insert_with(zero);
            c.set(writer, c.get(writer).max(seq));
        }
    }
    let pushed = covers.into_iter().filter_map(|(page, c)| {
        let (base, version, body) = home.push(peer, page, &c)?;
        let page = Pushed {
            page,
            base,
            version,
            body,
        };
        Some(page)
    });
    pushed.collect()
}

/// Drain every parked fetch the home store can now serve and answer it.
pub(crate) fn serve_waiting_fetches(st: &mut NodeState) {
    for r in st.pt.home_store().drain_ready() {
        let (to, reply) = page_reply(r);
        st.send(to, reply);
    }
}

/// Trace one version-advancing diff application at the home.
pub(crate) fn emit_diff_apply(tracer: &NodeTracer, d: &Diff) {
    if tracer.enabled() {
        tracer.emit(EventKind::DiffApply {
            page: d.page.0,
            bytes: d.payload_bytes() as u32,
            writer: d.interval.proc,
            interval: d.interval.seq as u64,
        });
    }
}

/// The module's slice of the message kinds with the big lock held. Mode
/// changes need that lock, so the fence is constantly open; replies go
/// through [`NodeState::send`] and carry the FT piggyback.
pub(crate) fn handle(st: &mut NodeState, from: ProcId, payload: &Payload) {
    let mut replies = Vec::new();
    let served = HomeSvc::of(st).serve(
        &mut st.hists,
        from,
        payload,
        || true,
        |to, reply| replies.push((to, reply)),
    );
    st.send_all(replies);
    // `handle_msg` has already deferred pages this node has yet to allocate,
    // so what is left is a routing bug. (An applied diff can be what an
    // access to a homed page waits for: the service loop pokes the waiter
    // after a batch it handled, and a waiter looks again after every
    // message anyway.)
    if let Served::HandBack = served {
        panic!("{} for a page not homed here", payload.kind());
    }
}

/// The handles the home-side handler (`PageReq`, `DiffBatch`) works
/// against: the sharded home store — never the big lock, which is what lets
/// the service loop run it while the application computes.
pub(crate) struct HomeSvc {
    home: Arc<HomeStore>,
    tracer: NodeTracer,
    inject_stale_apply: Option<Arc<AtomicBool>>,
}

/// What [`HomeSvc::serve`] did with a message.
pub(crate) enum Served {
    /// Handled; the replies went to the sink. `wake` says a diff batch was
    /// applied, which can satisfy the application thread's blocked access
    /// to a homed page.
    Done { wake: bool },
    /// Not handled, or a batch not handled to its end: `live` failed under
    /// a shard lock, a page is not in the home store (yet), or the kind
    /// needs big-lock state. Running the whole message again later
    /// loses nothing and repeats nothing visible: applies are version-gated,
    /// fetches unparked so far have been answered, and a page parked twice
    /// yields a duplicate reply the requester drops by `req_id`.
    HandBack,
}

impl HomeSvc {
    /// `st`'s handles for [`HomeSvc::serve`].
    pub(crate) fn of(st: &NodeState) -> HomeSvc {
        HomeSvc {
            home: st.pt.home_store(),
            tracer: st.tracer.clone(),
            inject_stale_apply: st.inject_stale_apply.clone(),
        }
    }

    /// The one handler for `PageReq` and `DiffBatch`, whoever delivers
    /// them. `live` is re-checked under every shard lock, so a crash or
    /// recovery transition (mode flag flip, then quiesce) fences the handler
    /// out; a caller that holds the big lock passes `|| true`. Replies go to `reply`, which
    /// decides how they travel (bare, or with the FT piggyback).
    pub(crate) fn serve(
        &self,
        hists: &mut LatencyHists,
        from: ProcId,
        payload: &Payload,
        live: impl Fn() -> bool,
        mut reply: impl FnMut(ProcId, Payload),
    ) -> Served {
        match payload {
            // In order: a page whose copy already covers its `needed`
            // version goes back now — the diffs a requester that kept a copy
            // is missing, else the page (an Arc bump: the home's next write
            // copy-on-writes, leaving the served buffer untouched) — the rest
            // park and are answered one by one, under the same `req_id`,
            // when their diffs arrive.
            Payload::PageReq { pages, req_id } => {
                let (req_id, mut ready) = (*req_id, Vec::new());
                for (page, needed, have) in pages {
                    let (page, needed) = (*page, needed.clone());
                    let fetch = WaitingFetch {
                        from,
                        page,
                        needed,
                        req_id,
                    };
                    let (outcome, waited) = self.home.serve_fetch_have(fetch, have.as_ref(), &live);
                    hists.shard_lock_wait.record(waited.as_nanos() as u64);
                    match outcome {
                        FetchOutcome::Ready(version, body) => ready.push((page, version, body)),
                        FetchOutcome::Parked => {}
                        FetchOutcome::NotHome | FetchOutcome::Stale => return Served::HandBack,
                    }
                }
                if !ready.is_empty() {
                    let pages = ready;
                    reply(from, Payload::PageReply { req_id, pages });
                }
            }
            Payload::DiffBatch { diffs } => {
                let mut ready = Vec::new();
                let mut applied_all = true;
                for d in diffs {
                    let t0 = Instant::now();
                    let (outcome, waited) = self.home.apply_diff_kept(d, &live);
                    hists.shard_lock_wait.record(waited.as_nanos() as u64);
                    let ApplyOutcome::Applied { fresh, ready: r } = outcome else {
                        applied_all = false;
                        break;
                    };
                    hists.diff_apply.record(t0.elapsed().as_nanos() as u64);
                    ready.extend(r);
                    // Only a version-advancing apply is an apply; a
                    // replayed diff the gate skipped must not emit (the
                    // invariant monitor treats a repeat as a violation).
                    if fresh {
                        emit_diff_apply(&self.tracer, d);
                    }
                }
                if applied_all {
                    self.inject_stale_apply_if_armed(diffs.last().map(|d| &**d));
                }
                // Unparked fetches are answered even when the batch is
                // handed back: they are out of the parked set for good.
                for (to, page) in ready.into_iter().map(page_reply) {
                    reply(to, page);
                }
                if !applied_all {
                    return Served::HandBack;
                }
                return Served::Done { wake: true };
            }
            _ => return Served::HandBack,
        }
        Served::Done { wake: false }
    }

    /// Test-only (armed via `ClusterConfig::inject_stale_apply`): re-emit the
    /// `DiffApply` event for an already-applied diff, once, simulating a home
    /// that applied a stale duplicate. The invariant monitor must catch it.
    fn inject_stale_apply_if_armed(&self, last: Option<&Diff>) {
        let Some(flag) = &self.inject_stale_apply else {
            return;
        };
        if self.tracer.enabled() && flag.swap(false, Ordering::Relaxed) {
            if let Some(d) = last {
                emit_diff_apply(&self.tracer, d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::fetch;
    use crate::runtime::node::tests::{diff_of, gated, only_payload, test_state, unpark};
    use crate::runtime::node::{handle_msg, Replies};
    use dsm_page::{PageId, VectorClock};

    #[test]
    fn crash_fence_hands_both_kinds_back_untouched() {
        let (mut st, eps) = test_state(0, 2, false);
        st.pt.add_page(0);
        st.pt.add_page(0);
        let svc = HomeSvc::of(&st);
        // Fetches that would park and a diff that would apply, were the
        // fence open.
        let fenced = [
            Payload::PageReq {
                pages: vec![(PageId(0), gated(2, 1, 1), None)],
                req_id: 1,
            },
            Payload::PageReq {
                pages: vec![
                    (PageId(0), VectorClock::zero(2), None),
                    (PageId(1), gated(2, 1, 1), None),
                ],
                req_id: 2,
            },
            Payload::DiffBatch {
                diffs: vec![diff_of(0, 1, 1), diff_of(1, 1, 1)],
            },
        ];
        for payload in &fenced {
            let served = svc.serve(
                &mut st.hists,
                1,
                payload,
                || false,
                |_, reply| panic!("fenced {} replied {}", payload.kind(), reply.kind()),
            );
            assert!(
                matches!(served, Served::HandBack),
                "{} must be handed back",
                payload.kind()
            );
        }
        let home = st.pt.home_store();
        for p in 0..2 {
            assert_eq!(home.version_of(PageId(p)), VectorClock::zero(2));
            assert!(unpark(&home, p, 1, 1).is_empty(), "page {p} parked a fetch");
        }
        assert!(eps[0].try_recv().is_none());
    }

    #[test]
    fn a_parked_page_is_answered_alone_and_a_duplicate_request_shows_nowhere() {
        // Node 0 of 3 homes pages 0 to 2 and has written 0 and 2; node 1
        // holds nothing, and has a notice of node 2's interval 1, which
        // wrote page 1 and whose diff has yet to reach node 0. Its miss on
        // page 1 — at that version — asks for all three.
        let (mut home, _) = test_state(0, 3, false);
        let (mut asker, to_home) = test_state(1, 3, false);
        for _ in 0..3 {
            home.pt.add_page(0);
            asker.pt.add_page(0);
        }
        for page in [PageId(0), PageId(2)] {
            home.pt.write(page, 0, &[1]);
            asker.pt.invalidate(page, 0, 1);
        }
        home.pt.end_interval(dsm_page::Interval { proc: 0, seq: 1 });
        asker.pt.invalidate(PageId(1), 2, 1);
        let all: Vec<PageId> = (0..3).map(PageId).collect();
        fetch::fetch_with_neighbours(&mut asker, PageId(1));
        let request = only_payload(&to_home[0]);
        assert_eq!(request.kind(), "PageReq");

        // What serving `payload` answers: `(req_id, pages)` per reply.
        let serve = |home: &mut NodeState, payload: &Payload| {
            let mut replies = Vec::new();
            let served = HomeSvc::of(home).serve(
                &mut home.hists,
                1,
                payload,
                || true,
                |to, reply| replies.push((to, reply)),
            );
            assert!(matches!(served, Served::Done { .. }));
            replies
        };
        let pages_of = |replies: &Replies| -> Vec<(u64, Vec<u32>)> {
            let of = |(to, reply): &(ProcId, Payload)| match reply {
                Payload::PageReply { req_id, pages } if *to == 1 => {
                    (*req_id, pages.iter().map(|(p, ..)| p.0).collect())
                }
                other => panic!("unexpected {other:?}"),
            };
            replies.iter().map(of).collect()
        };
        // One reply of two; the request once more, a duplicate with nothing
        // answered yet, repeats it and parks page 1 again.
        let first = serve(&mut home, &request);
        assert_eq!(pages_of(&first), [(0, vec![0, 2])]);
        let again = serve(&mut home, &request);
        assert_eq!(again, first);
        // The diff page 1 waits for: one reply of one per parked fetch,
        // under the request's id.
        let diff = Payload::DiffBatch {
            diffs: vec![diff_of(1, 2, 1)],
        };
        let late = serve(&mut home, &diff);
        assert_eq!(pages_of(&late), [(0, vec![1]), (0, vec![1])]);

        // The requester installs each page once and drops every repeat.
        for (_, reply) in [first, again, late].concat() {
            handle_msg(&mut asker, 0, reply);
        }
        for page in all {
            assert_eq!(asker.pt.ensure_access(page), hlrc::AccessOutcome::Ready);
            assert!(!asker.fetch.in_flight(page));
        }
        assert_eq!(asker.hists.fetch_copy.count(), 3);
        assert_eq!(asker.counts.dup_suppressed, 3);
    }
}
