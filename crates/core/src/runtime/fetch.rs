//! The requester side of page fetching: [`FetchSvc`].
//!
//! The module owns the request ids and the map of fetches in flight — the
//! one place a fetch is tracked, whoever asked for it; it decides what an invalidation prefetches, what a miss brings
//! with it and which miss needs no message at all (a cold page is the zero
//! page), and installs what comes back: it handles the one kind that
//! answers a fetch, `PageReply`, and the pages a grant, release or (at
//! node 0) barrier arrival pushes unasked, which the copies its barrier
//! arrivals report used bring.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use dsm_page::{PageId, ProcId, VectorClock};
use hlrc::{Have, Held, PageBody, PageState};

use crate::msg::{Payload, Pushed};
use crate::runtime::node::NodeState;
use crate::stats::ReqCause;

/// One remote page with a fetch in flight to its home.
#[derive(Debug, Clone, PartialEq)]
struct InFlight {
    /// Correlation id of the `PageReq` that covers this page.
    req_id: u64,
    /// The page's home (where a resend to a restarted home goes).
    home: ProcId,
}

/// The fetch state of one node.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct FetchSvc {
    /// Remote pages asked for and not answered yet: right after an acquire
    /// or barrier invalidated them, or by a fault. A touch of one of these
    /// waits for its reply instead of asking again. Ordered, so that a
    /// resend walks it the same way every time.
    in_flight: BTreeMap<PageId, InFlight>,
    /// The page the application thread's fault is waiting for.
    awaited: Option<PageId>,
    req_id_next: u64,
    /// Copies, each exactly a known version, used since this node last
    /// crossed a barrier live — its wait uses none, so since its last
    /// arrival left: what the next one reports. A peer's are of node 0's
    /// pages, node 0's of every other home's.
    used: BTreeSet<PageId>,
    /// Pushed copies not used yet.
    pushed: HashSet<PageId>,
    /// Pages a push came for whose version missed a notice: another writer
    /// keeps the home's copy behind, so they are reported no more.
    stale: HashSet<PageId>,
    /// Per home, the newest interval of its own that a copy installed here
    /// carried: this node holds that interval's words, so the home's
    /// recovery must replay it, not run it again.
    seen: HashMap<ProcId, u32>,
}

impl FetchSvc {
    /// Fail-stop: everything is lost but the ids, which keep counting, so
    /// an answer addressed to the previous incarnation never matches a new
    /// request. A restart restores nothing.
    pub(crate) fn fail_stop(&mut self) {
        *self = FetchSvc {
            req_id_next: self.req_id_next,
            ..Self::default()
        };
    }

    /// Does a request in flight cover `page`?
    pub(crate) fn in_flight(&self, page: PageId) -> bool {
        self.in_flight.contains_key(&page)
    }

    /// The application thread's fault starts its wait for `page`.
    pub(crate) fn await_page(&mut self, page: PageId) {
        self.awaited = Some(page);
    }

    /// The wait is over.
    pub(crate) fn await_over(&mut self) {
        self.awaited = None;
    }

    /// `(page, home, req_id)` of the fetch the application thread's fault is
    /// waiting on, for a deadline panic to print.
    pub(crate) fn awaited(&self) -> Option<(PageId, ProcId, u64)> {
        let page = self.awaited?;
        let e = self.in_flight.get(&page)?;
        Some((page, e.home, e.req_id))
    }

    /// The newest interval of `home`'s own that a copy installed here
    /// carried (0: none).
    pub(crate) fn seen_of(&self, home: ProcId) -> u32 {
        self.seen.get(&home).copied().unwrap_or(0)
    }

    /// A barrier was crossed live, its arrival gone with the
    /// [`used_report`]: the next one reports the copies used from now on.
    pub(crate) fn crossed(&mut self) {
        self.used.clear();
    }

    fn take_req_id(&mut self) -> u64 {
        self.req_id_next += 1;
        self.req_id_next - 1
    }
}

/// How far the fault on a page [`issue_prefetch`] left out looks for others
/// left out: up to `NEIGHBOUR_SPAN - 1` page ids on each side of its own
/// (see [`fetch_with_neighbours`]).
const NEIGHBOUR_SPAN: u32 = 16;

/// The home of `page` if [`issue_prefetch`] left it out and nothing has asked
/// for it since: remote, invalidated, no fetch in flight, and either its
/// last copy went unused or it was never held and a notice has named it.
/// A page nobody has written is never left out: it is [`cold`].
pub(crate) fn left_out(st: &NodeState, page: PageId) -> Option<ProcId> {
    if st.pt.is_home(page) || st.fetch.in_flight(page) {
        return None;
    }
    let m = st.pt.remote_meta(page);
    let skipped = match m.held {
        Held::Used => false,
        Held::Unused => true,
        Held::Never => m.needed.as_slice().iter().any(|&seq| seq > 0),
    };
    (m.state == PageState::Invalid && skipped).then_some(m.home)
}

/// Fetch the remote pages just invalidated by applied write notices whose
/// last copy was used: one `PageReq` per home covers every such page, turning
/// N page-miss round trips into one. A page whose last copy was never read
/// or written is left out — most invalidated copies are not touched again,
/// and a refetch nobody reads is traffic for nothing — and so is a page
/// never held, which nothing says this node wants; if either is touched
/// after all, [`fetch_with_neighbours`] fetches it. `cause` says whether a
/// grant or a release applied the notices.
pub(crate) fn issue_prefetch(st: &mut NodeState, invalidated: &[PageId], cause: ReqCause) {
    let mut seen = HashSet::new();
    let mut pages = Vec::new();
    for &page in invalidated {
        if !seen.insert(page) || st.pt.is_home(page) || st.fetch.in_flight(page) {
            continue;
        }
        let m = st.pt.remote_meta(page);
        if m.state != PageState::Invalid {
            continue;
        }
        if m.held == Held::Used {
            pages.push(page);
        } else {
            st.counts.prefetch_skipped += 1;
        }
    }
    st.counts.prefetched += pages.len() as u64;
    send_page_batches(st, &pages, cause);
}

/// Is remote `page` cold — never held, no fetch in flight for it, and no
/// write notice (nor write of this node's own) naming it? Then no write
/// happens before this node's access that the access must see, and the
/// page's initial contents, zeros, are a value lazy release consistency
/// admits: the miss needs no message.
fn cold(st: &NodeState, page: PageId) -> bool {
    if st.pt.is_home(page) || st.fetch.in_flight(page) {
        return false;
    }
    let m = st.pt.remote_meta(page);
    m.held == Held::Never && m.needed.as_slice().iter().all(|&seq| seq == 0)
}

/// A fault on remote `page`: when it is [`cold`], install the zero page —
/// no request, no wait — and count it. Returns whether it did.
pub(crate) fn zero_fill(st: &mut NodeState, page: PageId) -> bool {
    if !cold(st, page) {
        return false;
    }
    st.pt.install_zero(page);
    st.counts.zero_fills += 1;
    true
}

/// A fault on remote `page` that is not [`cold`] and that no fetch in flight
/// covers: ask its home for it. If [`issue_prefetch`] left it out, it has
/// probably left out the pages an application sweep touches next as well,
/// in whichever direction the sweep runs: the contiguous run of left-out
/// pages of the same home on each side of it, at most `NEIGHBOUR_SPAN - 1`
/// a side — possibly none — goes into the same `PageReq`, in page order. A
/// miss the filter had no part in (a page whose last copy was used, or one
/// only this node's own writes name) asks for its page alone.
pub(crate) fn fetch_with_neighbours(st: &mut NodeState, page: PageId) {
    let mut pages = vec![page];
    let mut cause = ReqCause::MissOther;
    if let Some(home) = left_out(st, page) {
        cause = left_out_cause(st, page);
        st.counts.skipped_then_missed += 1;
        let mut before = left_out_run(st, home, (0..page.0).rev());
        let after = left_out_run(st, home, page.0 + 1..st.pt.len() as u32);
        before.reverse();
        pages = [before, pages, after].concat();
        st.counts.prefetched += pages.len() as u64 - 1;
    }
    send_page_batches(st, &pages, cause);
}

/// Why a miss on `page`, which [`left_out`] names, asks its home: what was
/// held of it last.
fn left_out_cause(st: &NodeState, page: PageId) -> ReqCause {
    match st.pt.remote_meta(page).held {
        Held::Never => ReqCause::MissNeverHeld,
        _ if st.fetch.pushed.contains(&page) => ReqCause::MissPushedUnread,
        _ => ReqCause::MissUnused,
    }
}

/// The pages `ids` walks away from a miss, up to the span or the first that
/// is not left out at `home`.
fn left_out_run(st: &NodeState, home: ProcId, ids: impl Iterator<Item = u32>) -> Vec<PageId> {
    let ids = ids.take(NEIGHBOUR_SPAN as usize - 1).map(PageId);
    ids.take_while(|&q| left_out(st, q) == Some(home)).collect()
}

/// `pages` as a `PageReq` asks for them — the version needed and the stale
/// copy kept, as they are now: a resend reads them again — grouped by
/// `key`, in ascending key order (piggyback state advances per send, so the
/// send order must not vary). The request names none of this node's own
/// intervals: the home has every diff of ours before the request (channel
/// order), and the install gate still checks them.
fn batches<K: Ord>(
    st: &NodeState,
    pages: impl Iterator<Item = (K, PageId)>,
) -> BTreeMap<K, Vec<(PageId, VectorClock, Option<Have>)>> {
    let mut groups: BTreeMap<K, Vec<_>> = BTreeMap::new();
    for (key, page) in pages {
        let m = st.pt.remote_meta(page);
        let mut needed = m.needed.clone();
        needed.set(st.me, 0);
        let entry = (page, needed, m.base.clone());
        groups.entry(key).or_default().push(entry);
    }
    groups
}

/// Ask for `pages` — remote, invalid, none in flight — with one `PageReq`
/// per home, each counted under `cause`, and track each in `in_flight`
/// until its reply.
fn send_page_batches(st: &mut NodeState, pages: &[PageId], cause: ReqCause) {
    let by_home = pages.iter().map(|&p| (st.pt.home_of(p), p));
    for (home, pages) in batches(st, by_home) {
        let req_id = st.fetch.take_req_id();
        st.hists.fetch_batch_pages.record(pages.len() as u64);
        for (p, ..) in &pages {
            st.fetch.in_flight.insert(*p, InFlight { req_id, home });
        }
        st.req_causes.count(cause, home);
        st.send(home, Payload::PageReq { pages, req_id });
    }
}

/// Track remote `page` alone as in flight under a new request id, with no
/// `PageReq` on the wire and nothing counted: a replayed miss, whose request
/// the emulated home answers ([`crate::ft::recovery::fetch_missed`]).
/// Returns the id its `PageReply` must carry.
pub(crate) fn track_alone(st: &mut NodeState, page: PageId) -> u64 {
    let (req_id, home) = (st.fetch.take_req_id(), st.pt.home_of(page));
    st.fetch.in_flight.insert(page, InFlight { req_id, home });
    req_id
}

/// A crashed home restarted: re-issue the requests in flight to it, each
/// under its `req_id`, for what is still outstanding of it (the needed
/// versions are re-read: they may have advanced, and the install gate
/// checks coverage anyway).
pub(crate) fn resend_batches_to(st: &mut NodeState, node: ProcId) {
    let in_flight = st.fetch.in_flight.iter();
    let lost = in_flight.filter(|(_, e)| e.home == node);
    let lost = lost.map(|(&page, e)| (e.req_id, page));
    let again = batches(st, lost).into_iter();
    let again: Vec<_> = again
        .map(|(req_id, pages)| (node, Payload::PageReq { pages, req_id }))
        .collect();
    st.send_all(again);
}

/// The first access of the copy of remote `page` since its install;
/// `demanded` when the access fetched it itself. A copy a push brought, or
/// one a prefetch did, paid off; and a copy that is exactly a known version
/// goes into the next barrier arrival's report — at a peer a copy of node
/// 0's (node 0, the barrier manager, reads every arrival), at node 0 one of
/// any home's whose push never came stale.
pub(crate) fn first_use(st: &mut NodeState, page: PageId, demanded: bool) {
    if st.fetch.pushed.remove(&page) {
        st.counts.pushed_used += 1;
    } else if !demanded {
        st.counts.prefetched_used += 1;
    }
    let reported = st.me == 0 || st.pt.home_of(page) == 0;
    if reported && st.pt.have(page).is_some() && !st.fetch.stale.contains(&page) {
        st.fetch.used.insert(page);
    }
}

/// What a barrier arrival reports: the copies used since the last barrier
/// crossed live ([`FetchSvc::crossed`]) that are still valid, each with what
/// it is exactly. Node 0 pushes a page its next grant or release to this node
/// invalidates; at node 0, the page's home pushes it on its next barrier
/// arrival whose notices invalidate it.
pub(crate) fn used_report(st: &NodeState) -> Vec<(PageId, Have)> {
    let used = st.fetch.used.iter();
    let valid = used.map(|&page| (page, st.pt.remote_meta(page)));
    let valid = valid.filter(|(_, m)| m.state == PageState::Valid);
    valid
        .filter_map(|(page, m)| Some((page, m.base.clone()?)))
        .collect()
}

/// Install the pages a grant or release pushed, once its notices have
/// invalidated them: each where this node asked for none of it and still
/// keeps exactly the copy it builds on, through the reply's install gate.
/// Any other is refused and left to the prefetch that follows, which asks
/// for it as if nothing had come — a push stale, overtaken or addressed to
/// the node's previous life is never applied. A page whose push was stale
/// is reported no more.
pub(crate) fn install_pushed(st: &mut NodeState, pushed: Vec<Pushed>) {
    for p in pushed {
        let ours = p.page.index() < st.pt.len() && !st.pt.is_home(p.page);
        let kept = ours && !st.fetch.in_flight(p.page) && st.pt.have(p.page) == Some(&p.base);
        if kept && install_copy(st, p.page, p.body, &p.version) {
            st.fetch.pushed.insert(p.page);
            continue;
        }
        st.counts.pushes_refused += 1;
        if kept && !p.version.covers(&st.pt.remote_meta(p.page).needed) {
            st.counts.pushes_stale += 1;
            st.fetch.stale.insert(p.page);
        }
    }
}

/// Install `body` as the copy of remote `page` at `version` if the page is
/// invalid and `version` still covers everything it is known to need, and
/// note the home's own interval `version` names (see `FetchSvc::seen`).
/// One `fetch_copy` sample per install: the bytes written into the local
/// copy — none for an adopted page buffer, the diff payloads for a delta,
/// which counts as a delta install.
fn install_copy(st: &mut NodeState, page: PageId, body: PageBody, version: &VectorClock) -> bool {
    let m = st.pt.remote_meta(page);
    if m.state != PageState::Invalid || !version.covers(&m.needed) {
        return false;
    }
    let home = st.pt.home_of(page);
    let seen = st.fetch.seen.entry(home).or_default();
    *seen = (*seen).max(version.get(home));
    let delta = matches!(body, PageBody::Delta(_));
    let copied = st.pt.install(page, body, version) as u64;
    st.hists.fetch_copy.record(copied);
    st.counts.fetch_delta_pages += delta as u64;
    st.counts.fetch_delta_bytes += copied;
    st.fetch.pushed.remove(&page);
    true
}

/// Install one page of a reply. Superseded and overtaken replies are
/// dropped: the page stays `Invalid`, a kept copy and its version stay what
/// the next request will say they are, and a later touch fetches fresh.
fn install(st: &mut NodeState, page: PageId, req_id: u64, version: VectorClock, body: PageBody) {
    match st.fetch.in_flight.get(&page) {
        Some(e) if e.req_id == req_id => {}
        // The restart's: a restarted home answered a request both before
        // its crash and after the resend, and the first answer already
        // ended the entry (or a newer request holds it). Drop it.
        _ => {
            st.counts.dup_suppressed += 1;
            return;
        }
    }
    st.fetch.in_flight.remove(&page);
    // A new invalidation may have overtaken the request.
    if !st.pt.is_home(page) {
        install_copy(st, page, body, &version);
    }
}

/// The module's slice of the message kinds: the pages of a request that were
/// ready together, or a parked one answered on its own.
pub(crate) fn handle(st: &mut NodeState, payload: Payload) {
    let Payload::PageReply { req_id, pages } = payload else {
        unreachable!("{} does not answer a fetch", payload.kind())
    };
    for (page, version, body) in pages {
        install(st, page, req_id, version, body);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runtime::node::tests::{
        gated, only_payload, page_of, recv_any, requests, test_state,
    };
    use crate::runtime::node::NodeShared;
    use crate::stats::{Breakdown, Counts};
    use crate::{HomeAlloc, Process};
    use dsm_net::Event;
    use dsm_page::Diff;
    use std::sync::Arc;
    use std::time::Duration;

    fn in_flight(req_id: u64) -> InFlight {
        InFlight { req_id, home: 0 }
    }

    /// What a crash leaves of the fetch state: a fresh one whose ids go on
    /// from `req_id_next`.
    pub(crate) fn restarted(req_id_next: u64) -> FetchSvc {
        FetchSvc {
            req_id_next,
            ..FetchSvc::default()
        }
    }

    #[test]
    fn a_crash_forgets_what_was_in_flight_and_keeps_counting() {
        let (mut st, _eps) = test_state(1, 2, false);
        st.fetch.in_flight.insert(PageId(0), in_flight(16));
        st.fetch.await_page(PageId(0));
        st.fetch.req_id_next = 17;
        st.fetch.used.insert(PageId(1));
        st.fetch.pushed.insert(PageId(2));
        st.counts.prefetched = 4;
        st.req_causes.count(ReqCause::MissOther, 0);
        let (counts, causes) = (st.counts, st.req_causes);
        st.fail_stop();
        assert_eq!(st.fetch, restarted(17));
        assert_eq!((st.counts, st.req_causes), (counts, causes));
    }

    #[test]
    fn prefetch_reply_installs_only_matching_and_still_needed_pages() {
        let (mut st, _eps) = test_state(1, 2, false);
        for _ in 0..2 {
            st.pt.add_page(0); // homed at node 0, remote here
        }
        st.fetch.in_flight.insert(PageId(0), in_flight(5));
        st.fetch.in_flight.insert(PageId(1), in_flight(5));
        // Stale req_id: dropped, entry kept.
        install(&mut st, PageId(0), 4, VectorClock::zero(2), page_of(0));
        assert!(st.fetch.in_flight.contains_key(&PageId(0)));
        // Matching req_id: installed, entry consumed; a whole page is no
        // delta install.
        install(&mut st, PageId(0), 5, VectorClock::zero(2), page_of(7));
        assert!(!st.fetch.in_flight.contains_key(&PageId(0)));
        let delta = (st.counts.fetch_delta_pages, st.counts.fetch_delta_bytes);
        assert_eq!(delta, (0, 0));
        assert_eq!(st.pt.ensure_access(PageId(0)), hlrc::AccessOutcome::Ready);
        // Overtaken by a newer invalidation: entry consumed, page stays
        // invalid (a later touch fetches fresh).
        st.pt.invalidate(PageId(1), 0, 3);
        install(&mut st, PageId(1), 5, VectorClock::zero(2), page_of(7));
        assert!(!st.fetch.in_flight.contains_key(&PageId(1)));
        assert!(matches!(
            st.pt.ensure_access(PageId(1)),
            hlrc::AccessOutcome::NeedFetch { .. }
        ));
    }

    #[test]
    fn a_delta_lands_once_and_an_overtaken_one_not_at_all() {
        let (mut st, eps) = test_state(1, 2, false);
        st.pt.add_page(0); // homed at node 0, remote here
        let page = PageId(0);
        st.pt.install(page, page_of(7), &gated(2, 0, 1));
        // Read, so that the invalidation prefetches it.
        st.pt.read_into(page, 8, &mut [0u8; 8]);
        st.pt.invalidate(page, 0, 2);
        issue_prefetch(&mut st, &[page], ReqCause::ReleasePrefetch);
        // The request says what was kept.
        let kept = Some((1, gated(2, 0, 1)));
        match eps[0].try_recv() {
            Some(Event::Msg { msg, .. }) => match msg.payload {
                Payload::PageReq { pages, .. } => {
                    assert_eq!(pages, [(page, gated(2, 0, 2), kept.clone())]);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        let req_id = st.fetch.in_flight[&page].req_id;
        let delta = |seq: u32| {
            let twin = dsm_page::Page::zeroed(256);
            let mut cur = twin.clone();
            cur.write(8, &[seq as u8; 8]);
            let iv = dsm_page::Interval { proc: 0, seq };
            PageBody::Delta(vec![Arc::new(Diff::create(page, iv, &twin, &cur).unwrap())])
        };
        let word = |st: &NodeState| {
            let copy = st.pt.remote_meta(page).copy.as_ref().expect("copy kept");
            copy.read(8, 8)[0]
        };
        // A newer notice overtakes the reply: the delta is not applied, and
        // the kept copy is still what the next request will say it is.
        st.pt.invalidate(page, 0, 3);
        install(&mut st, page, req_id, gated(2, 0, 2), delta(2));
        assert!(!st.fetch.in_flight.contains_key(&page));
        assert_eq!((word(&st), st.pt.have(page)), (7, kept.as_ref()));
        assert_eq!(st.hists.fetch_copy.count(), 0);

        // The next request's reply lands ...
        issue_prefetch(&mut st, &[page], ReqCause::ReleasePrefetch);
        let req_id = st.fetch.in_flight[&page].req_id;
        install(&mut st, page, req_id, gated(2, 0, 3), delta(3));
        assert_eq!(st.pt.ensure_access(page), hlrc::AccessOutcome::Ready);
        assert_eq!(
            (word(&st), st.pt.have(page)),
            (3, Some(&(1, gated(2, 0, 3))))
        );
        // ... and its duplicate does not: one sample, of the delta's bytes.
        st.pt.invalidate(page, 0, 4);
        install(&mut st, page, req_id, gated(2, 0, 4), delta(4));
        assert_eq!(
            (word(&st), st.pt.have(page)),
            (3, Some(&(1, gated(2, 0, 3))))
        );
        assert_eq!(st.counts.dup_suppressed, 1);
        let h = &st.hists.fetch_copy;
        assert_eq!((h.count(), h.sum()), (1, 8));
        let delta = (st.counts.fetch_delta_pages, st.counts.fetch_delta_bytes);
        assert_eq!(delta, (1, 8));
    }

    /// Install a copy of remote `page`, read it if `used`, and invalidate it
    /// with a notice from its home.
    fn invalidated_copy(st: &mut NodeState, page: u32, used: bool) {
        let (page, n) = (PageId(page), st.n);
        st.pt.install(page, page_of(0), &VectorClock::zero(n));
        if used {
            st.pt.read_into(page, 0, &mut [0u8; 8]);
        }
        st.pt.invalidate(page, st.pt.home_of(page), 1);
    }

    /// What an arrival built now reports, forgotten as a live crossing
    /// forgets it.
    fn take_used(st: &mut NodeState) -> Vec<(PageId, Have)> {
        let used = used_report(st);
        st.fetch.crossed();
        used
    }

    fn asked_pages(payload: &Payload) -> Vec<u32> {
        match payload {
            Payload::PageReq { pages, .. } => pages.iter().map(|(p, ..)| p.0).collect(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn an_invalidation_prefetches_only_pages_whose_last_copy_was_used() {
        let (mut st, eps) = test_state(2, 3, false);
        for home in [0, 0, 1, 1] {
            st.pt.add_page(home);
        }
        for (page, used) in [(0, false), (1, false), (2, true), (3, false)] {
            invalidated_copy(&mut st, page, used);
        }
        let all: Vec<PageId> = (0..4).map(PageId).collect();
        issue_prefetch(&mut st, &all, ReqCause::ReleasePrefetch);
        // Home 0 hears nothing: neither of its pages was touched. Home 1 is
        // asked for the one that was.
        assert!(requests(&eps[0]).is_empty());
        let to_home_1 = requests(&eps[1]);
        assert_eq!(to_home_1.len(), 1);
        assert_eq!(asked_pages(&to_home_1[0]), [2]);
        assert_eq!(st.fetch.in_flight.keys().collect::<Vec<_>>(), [&PageId(2)]);
        let counts = Counts {
            prefetched: 1,
            prefetch_skipped: 3,
            ..Default::default()
        };
        assert_eq!(st.counts, counts);
        // The next round of notices leaves the same pages out again.
        st.fetch.in_flight.clear();
        for page in &all {
            st.pt.invalidate(*page, st.pt.home_of(*page), 2);
        }
        issue_prefetch(&mut st, &all, ReqCause::ReleasePrefetch);
        assert!(requests(&eps[0]).is_empty());
        assert_eq!(asked_pages(&requests(&eps[1])[0]), [2]);
        assert_eq!(st.counts.prefetch_skipped, 6);
    }

    #[test]
    fn a_miss_on_a_left_out_page_asks_for_the_left_out_run_around_it_in_the_same_request() {
        let (mut st, eps) = test_state(1, 2, false);
        for _ in 0..20 {
            st.pt.add_page(0);
        }
        // Left out by the filter: pages 1 to 3 and 10. Page 9 was used and
        // is due a prefetch of its own, 4 is valid, the rest were never held
        // and no notice named them.
        for page in [1, 2, 3, 10] {
            invalidated_copy(&mut st, page, false);
        }
        invalidated_copy(&mut st, 9, true);
        st.pt.install(PageId(4), page_of(0), &VectorClock::zero(2));

        // One request, to the page's home: the miss and the left-out pages
        // on each side of it, in page order.
        fetch_with_neighbours(&mut st, PageId(2));
        assert_eq!(asked_pages(&only_payload(&eps[0])), [1, 2, 3]);
        for page in [1, 2, 3] {
            assert_eq!(st.fetch.in_flight[&PageId(page)].req_id, 0);
        }
        let mut counts = Counts {
            prefetched: 2,
            skipped_then_missed: 1,
            ..Default::default()
        };
        assert_eq!(st.counts, counts);

        // No left-out neighbour: the same request, one page long, and still
        // a wrong guess of the filter's. A miss the filter had no part in is
        // no guess of its.
        for page in [10, 9] {
            fetch_with_neighbours(&mut st, PageId(page));
            assert_eq!(asked_pages(&only_payload(&eps[0])), [page]);
            assert!(st.fetch.in_flight(PageId(page)));
        }
        counts.skipped_then_missed = 2;
        assert_eq!(st.counts, counts);
        // One sample per request, of its pages.
        let h = &st.hists.fetch_batch_pages;
        assert_eq!((h.count(), h.sum()), (3, 3 + 1 + 1));
    }

    #[test]
    fn a_notice_naming_a_never_held_page_sends_nothing() {
        let (mut st, eps) = test_state(1, 2, false);
        for _ in 0..3 {
            st.pt.add_page(0);
        }
        // The first round: the home wrote every page, this node holds none.
        let all: Vec<PageId> = (0..3).map(PageId).collect();
        for &page in &all {
            st.pt.invalidate(page, 0, 1);
        }
        issue_prefetch(&mut st, &all, ReqCause::ReleasePrefetch);
        assert!(requests(&eps[0]).is_empty() && st.fetch.in_flight.is_empty());
        let counts = Counts {
            prefetch_skipped: 3,
            ..Default::default()
        };
        assert_eq!(st.counts, counts);
        // Each is left out: a touch of one is the filter's miss.
        assert!(all.iter().all(|&page| left_out(&st, page) == Some(0)));
    }

    #[test]
    fn a_miss_on_a_noticed_never_held_page_asks_for_the_run_on_both_sides() {
        // Node 1 of 3; `eps` are nodes 0 and 2. Page 11 is homed at node 2,
        // page 13 here, every other at node 0.
        let (mut st, eps) = test_state(1, 3, false);
        for page in 0..60 {
            st.pt.add_page(match page {
                11 => 2,
                13 => 1,
                _ => 0,
            });
        }
        // Never held, named by a notice from their homes: 3 to 5, 7, 9 to
        // 12 and 20 to 52. Page 6's copy went unused, page 2 is valid, page
        // 8 is in flight.
        for page in [3, 4, 5, 7, 9, 10, 11, 12].into_iter().chain(20..53) {
            st.pt
                .invalidate(PageId(page), st.pt.home_of(PageId(page)), 1);
        }
        invalidated_copy(&mut st, 6, false);
        st.pt.install(PageId(2), page_of(0), &VectorClock::zero(3));
        st.fetch.in_flight.insert(PageId(8), in_flight(0));
        st.fetch.req_id_next = 1;

        // The run stops at a valid page (2) and a page in flight (8) ...
        fetch_with_neighbours(&mut st, PageId(5));
        assert_eq!(asked_pages(&only_payload(&eps[0])), [3, 4, 5, 6, 7]);
        // ... at a page of another home (11) and one homed here (13), page
        // 10 beyond it being left out makes no difference ...
        fetch_with_neighbours(&mut st, PageId(12));
        assert_eq!(asked_pages(&only_payload(&eps[0])), [12]);
        // ... and at fifteen pages a side.
        fetch_with_neighbours(&mut st, PageId(36));
        let run: Vec<u32> = (21..52).collect();
        assert_eq!(asked_pages(&only_payload(&eps[0])), run);
        assert!(requests(&eps[1]).is_empty());
        assert_eq!(st.fetch.in_flight[&PageId(8)].req_id, 0);
        let counts = Counts {
            prefetched: 4 + 30,
            skipped_then_missed: 3,
            ..Default::default()
        };
        assert_eq!(st.counts, counts);
    }

    #[test]
    fn a_miss_the_filter_had_no_part_in_asks_alone() {
        let (mut st, eps) = test_state(1, 2, false);
        for _ in 0..3 {
            st.pt.add_page(0);
        }
        // Its neighbours were named by a notice and never held, so they are
        // left out; the page's own last copy was used, so it is not.
        for page in [0, 2] {
            st.pt.invalidate(PageId(page), 0, 1);
        }
        invalidated_copy(&mut st, 1, true);
        fetch_with_neighbours(&mut st, PageId(1));
        assert_eq!(asked_pages(&only_payload(&eps[0])), [1]);
        assert_eq!(st.counts, Counts::default());
    }

    /// The DSM handle over `st`, and the state it shares.
    pub(crate) fn process(st: NodeState) -> (Process, Arc<NodeShared>) {
        let (me, n, state) = (st.me, st.n, parking_lot::Mutex::new(st));
        let shared = Arc::new(NodeShared {
            state,
            me,
            n,
            seed: 0,
        });
        (Process::new(Arc::clone(&shared), false), shared)
    }

    #[test]
    fn a_cold_read_is_zeros_sends_nothing_and_keeps_no_base() {
        let (st, eps) = test_state(1, 2, false);
        let (mut proc, shared) = process(st);
        let base = proc.alloc(2 * 256, HomeAlloc::Node(0));
        assert_eq!(proc.read::<u64>(base + 8), 0);
        assert_eq!(proc.read::<u64>(base + 256 + 16), 0);
        assert!(
            recv_any(&eps[0], Duration::ZERO).is_none(),
            "a cold miss sent"
        );
        let st = shared.state.lock();
        for page in [PageId(0), PageId(1)] {
            assert_eq!(st.pt.ensure_access(page), hlrc::AccessOutcome::Ready);
            assert_eq!(st.pt.have(page), None);
        }
        // Not a page wait, and not a prefetched copy used.
        assert_eq!(st.hists.page_fetch.count(), 0);
        let only_fills = Counts {
            zero_fills: 2,
            ..Counts::default()
        };
        assert_eq!(st.counts, only_fills);
    }

    #[test]
    fn a_cold_write_flushes_a_diff_of_only_the_written_word_and_the_home_applies_it() {
        let (st, eps) = test_state(1, 2, false);
        let (mut proc, shared) = process(st);
        let base = proc.alloc(256, HomeAlloc::Node(0));
        proc.write::<u64>(base + 24, 0xABCD);
        let mut st = shared.state.lock();
        st.close_interval(&mut Breakdown::default());
        st.send_unsent();
        let Payload::DiffBatch { diffs, .. } = only_payload(&eps[0]) else {
            panic!("the interval held no diff batch")
        };
        let mut written = [0u8; 256];
        st.pt.read_into(PageId(0), 0, &mut written);
        let runs: Vec<_> = diffs[0].runs().map(|(o, b)| (o, b.to_vec())).collect();
        assert_eq!(
            (diffs.len(), runs),
            (1, vec![(24, written[24..32].to_vec())])
        );
        // The interval names the page now: a later miss is no cold one.
        assert_eq!(st.pt.remote_meta(PageId(0)).needed, gated(2, 1, 1));
        assert!(!cold(&st, PageId(0)));

        let (mut home, _) = test_state(0, 2, false);
        home.pt.add_page(0);
        assert!(home.pt.home_apply_diff(&diffs[0]));
        let mut at_home = [0u8; 256];
        home.pt.read_into(PageId(0), 0, &mut at_home);
        assert_eq!(at_home, written);
    }

    #[test]
    fn only_a_never_held_page_nothing_names_is_cold_and_a_named_one_is_fetched() {
        // Node 1 of 2. Pages 0 to 4 homed at node 0, 5 here.
        let (mut st, eps) = test_state(1, 2, false);
        for home in [0, 0, 0, 0, 0, 1] {
            st.pt.add_page(home);
        }
        // Page 0: a notice from its home names it. Page 1: nothing does.
        // Page 2: its copy went unused. Page 3: in flight. Page 4: our
        // interval diffed it.
        st.pt.invalidate(PageId(0), 0, 1);
        invalidated_copy(&mut st, 2, false);
        st.fetch.in_flight.insert(PageId(3), in_flight(0));
        st.fetch.req_id_next = 1;
        st.pt.invalidate(PageId(4), 1, 2);
        let filled: Vec<bool> = (0..6).map(|p| zero_fill(&mut st, PageId(p))).collect();
        assert_eq!(filled, [false, true, false, false, false, false]);
        assert_eq!(st.counts.zero_fills, 1);
        assert!(recv_any(&eps[0], Duration::ZERO).is_none());

        // The named page is asked for at the notice's version; own writes
        // never go into a request: the home has them first.
        let (zero, nothing_kept): (_, Option<Have>) = (VectorClock::zero(2), None);
        for (page, needed) in [(0, gated(2, 0, 1)), (4, zero)] {
            fetch_with_neighbours(&mut st, PageId(page));
            let Payload::PageReq { pages, .. } = only_payload(&eps[0]) else {
                panic!("page {page} was not asked for")
            };
            assert_eq!(pages, [(PageId(page), needed, nothing_kept.clone())]);
        }
    }

    /// A release whose notices invalidate three used copies and that
    /// pushes all three: one built on a copy this node no longer keeps, one
    /// whose version misses a notice, one that fits. The first two are
    /// refused and prefetched as if nothing had come; the third is
    /// installed, asks for nothing, and counts as used at its first access.
    #[test]
    fn a_refused_push_is_prefetched_and_a_fitting_one_installed() {
        let (mut st, eps) = test_state(1, 2, false);
        for _ in 0..3 {
            st.pt.add_page(0);
        }
        let kept: Have = (1, VectorClock::zero(2));
        for page in 0..3 {
            st.pt.install(PageId(page), page_of(1), &kept.1);
            st.pt.read_into(PageId(page), 0, &mut [0u8; 8]);
        }
        let push = |page, base: &Have, version| Pushed {
            page: PageId(page),
            base: base.clone(),
            version,
            body: page_of(2),
        };
        let notice = |page, seq| hlrc::WriteNotice {
            interval: dsm_page::Interval { proc: 0, seq },
            pages: vec![PageId(page)],
        };
        let release = Payload::BarrierRelease {
            episode: 0,
            vt: gated(2, 0, 3),
            wns: vec![notice(0, 2), notice(1, 3), notice(2, 2)].into(),
            pushed: vec![
                push(0, &(1, gated(2, 0, 1)), gated(2, 0, 2)),
                push(1, &kept, gated(2, 0, 2)),
                push(2, &kept, gated(2, 0, 2)),
            ],
            used: Vec::new(),
            batch: None,
        };
        crate::runtime::interval::cross_barrier(&mut st, release);
        assert_eq!((st.counts.pushed_used, st.counts.pushes_refused), (0, 2));
        let sent = requests(&eps[0]);
        assert_eq!(sent.len(), 1, "{sent:?}");
        assert_eq!(asked_pages(&sent[0]), [0, 1]);
        let m = st.pt.remote_meta(PageId(2));
        assert_eq!((m.state, m.held), (PageState::Valid, Held::Unused));
        assert_eq!(st.pt.have(PageId(2)), Some(&(1, gated(2, 0, 2))));
        // Its first access is a push used, not a prefetch used; and it is
        // what the next arrival reports.
        st.pt.read_into(PageId(2), 0, &mut [0u8; 8]);
        first_use(&mut st, PageId(2), false);
        assert_eq!((st.counts.pushed_used, st.counts.pushes_refused), (1, 2));
        assert_eq!(st.counts.prefetched_used, 0);
        assert_eq!(take_used(&mut st), [(PageId(2), (1, gated(2, 0, 2)))]);
    }

    /// Pushed copies nobody read stay exactly what they were pushed as when
    /// the next release invalidates them: a push built on one installs,
    /// and a miss on one with no push is counted as such.
    #[test]
    fn an_unread_pushed_copy_is_the_next_pushs_base_or_a_counted_miss() {
        let (mut st, eps) = test_state(1, 2, false);
        st.pt.add_page(0);
        st.pt.add_page(0);
        let kept: Have = (1, VectorClock::zero(2));
        for page in 0..2 {
            st.pt.install(PageId(page), page_of(1), &kept.1);
            st.pt.read_into(PageId(page), 0, &mut [0u8; 8]);
        }
        let push = |page, base: &Have, seq| Pushed {
            page: PageId(page),
            base: base.clone(),
            version: gated(2, 0, seq),
            body: page_of(seq as u8 + 1),
        };
        let release = |seq: u32, pushed| Payload::BarrierRelease {
            episode: seq as u64 - 1,
            vt: gated(2, 0, seq),
            wns: vec![hlrc::WriteNotice {
                interval: dsm_page::Interval { proc: 0, seq },
                pages: vec![PageId(0), PageId(1)],
            }]
            .into(),
            pushed,
            used: Vec::new(),
            batch: None,
        };
        let cross = crate::runtime::interval::cross_barrier;
        cross(
            &mut st,
            release(1, vec![push(0, &kept, 1), push(1, &kept, 1)]),
        );
        let pushed_copy = (1, gated(2, 0, 1));
        assert_eq!(st.pt.have(PageId(1)), Some(&pushed_copy));
        // Neither is read. The next release pushes page 0 again, on the
        // copy pushed before, and not page 1: nothing is asked for.
        cross(&mut st, release(2, vec![push(0, &pushed_copy, 2)]));
        assert_eq!((st.counts.pushed_used, st.counts.pushes_refused), (0, 0));
        assert_eq!(st.pt.remote_meta(PageId(0)).state, PageState::Valid);
        assert!(requests(&eps[0]).is_empty());
        fetch_with_neighbours(&mut st, PageId(1));
        assert_eq!(asked_pages(&requests(&eps[0])[0]), [1]);
        let causes = st.req_causes;
        assert_eq!(causes.get(ReqCause::MissPushedUnread), (1, 0));
        assert_eq!(causes.total(), 1);
    }

    /// An arrival reports the copies of node 0's pages used since the last
    /// one that are valid and exactly a known version: not a zero-filled
    /// copy, not another home's page, not one invalidated since.
    #[test]
    fn an_arrival_reports_only_valid_known_copies_of_node_0s_pages() {
        let (mut st, _eps) = test_state(2, 3, false);
        for home in [0, 0, 0, 1] {
            st.pt.add_page(home);
        }
        st.pt.install_zero(PageId(0));
        for page in 1..4 {
            st.pt
                .install(PageId(page), page_of(1), &VectorClock::zero(3));
        }
        for page in 0..4 {
            st.pt.read_into(PageId(page), 0, &mut [0u8; 8]);
            first_use(&mut st, PageId(page), true);
        }
        st.pt.invalidate(PageId(2), 0, 1);
        assert_eq!(take_used(&mut st), [(PageId(1), (1, VectorClock::zero(3)))]);
        assert!(take_used(&mut st).is_empty(), "reported once");
    }

    /// Node 0 reports its copies of every home's pages. A push from a home
    /// whose version misses another writer's notice is refused as stale:
    /// the page is marked, and no later report lists it, though node 0
    /// fetches and reads it again; the page the same arrival pushed that
    /// fit is installed and reported as before.
    #[test]
    fn a_stale_push_is_refused_and_its_page_reported_no_more() {
        // Node 0 of 3; pages 0 and 1 are homed at node 1.
        let (mut st, eps) = test_state(0, 3, false);
        st.pt.add_page(1);
        st.pt.add_page(1);
        let kept: Have = (1, VectorClock::zero(3));
        let read = |st: &mut NodeState, page| {
            st.pt.read_into(PageId(page), 0, &mut [0u8; 8]);
            first_use(st, PageId(page), false);
        };
        for page in 0..2 {
            st.pt.install(PageId(page), page_of(1), &kept.1);
            read(&mut st, page);
        }
        let both = [(PageId(0), kept.clone()), (PageId(1), kept.clone())];
        assert_eq!(take_used(&mut st), both);
        // Node 1's arrival pushed both at its interval 1; node 2 wrote page
        // 0 in the same epoch.
        let notice = |proc, pages: &[u32]| hlrc::WriteNotice {
            interval: dsm_page::Interval { proc, seq: 1 },
            pages: pages.iter().map(|&p| PageId(p)).collect(),
        };
        let push = |page| Pushed {
            page: PageId(page),
            base: kept.clone(),
            version: gated(3, 1, 1),
            body: page_of(2),
        };
        let release = Payload::BarrierRelease {
            episode: 0,
            vt: VectorClock::from_vec(vec![0, 1, 1]),
            wns: vec![notice(1, &[0, 1]), notice(2, &[0])].into(),
            pushed: vec![push(0), push(1)],
            used: Vec::new(),
            batch: None,
        };
        crate::runtime::interval::cross_barrier(&mut st, release);
        let c = st.counts;
        assert_eq!((c.pushes_refused, c.pushes_stale), (1, 1));
        assert_eq!(st.pt.have(PageId(1)), Some(&(1, gated(3, 1, 1))));
        // Page 0 is fetched as if nothing had come; both are read again,
        // and only page 1 is reported.
        assert_eq!(asked_pages(&only_payload(&eps[0])), [0]);
        let req_id = st.fetch.in_flight[&PageId(0)].req_id;
        let version = VectorClock::from_vec(vec![0, 1, 1]);
        install(&mut st, PageId(0), req_id, version, page_of(3));
        read(&mut st, 0);
        read(&mut st, 1);
        assert_eq!(take_used(&mut st), [(PageId(1), (1, gated(3, 1, 1)))]);
    }

    #[test]
    fn a_restarted_home_is_asked_again_for_what_is_left_of_each_request() {
        let (mut st, eps) = test_state(1, 2, false);
        for _ in 0..4 {
            st.pt.add_page(0);
        }
        for page in 0..4 {
            invalidated_copy(&mut st, page, page != 3);
        }
        // Two requests in flight: pages 0 to 2, prefetched, and page 3.
        issue_prefetch(
            &mut st,
            &[PageId(0), PageId(1), PageId(2)],
            ReqCause::GrantPrefetch,
        );
        fetch_with_neighbours(&mut st, PageId(3));
        let first = requests(&eps[0]);
        assert_eq!(first.len(), 2);

        // Page 1 of the first has been answered when the home restarts:
        // each request goes again under its id, the first for pages 0 and 2.
        let Payload::PageReq { pages, req_id } = first[0].clone() else {
            panic!("unexpected {:?}", first[0])
        };
        install(&mut st, PageId(1), req_id, gated(2, 0, 1), page_of(1));
        st.fetch.await_page(PageId(2));
        assert_eq!(st.fetch.awaited(), Some((PageId(2), 0, req_id)));
        resend_batches_to(&mut st, 0);
        let pages = vec![pages[0].clone(), pages[2].clone()];
        let again = requests(&eps[0]);
        assert_eq!(
            again,
            [Payload::PageReq { pages, req_id }, first[1].clone()]
        );
        // The wait ends with the entry.
        install(&mut st, PageId(2), req_id, gated(2, 0, 1), page_of(2));
        assert_eq!(st.fetch.awaited(), None);
        // The census counts each request once, resent or not.
        let causes = st.req_causes;
        assert_eq!(causes.get(ReqCause::GrantPrefetch), (1, 0));
        assert_eq!(causes.get(ReqCause::MissUnused), (1, 0));
        assert_eq!(causes.total(), 2);
    }

    #[test]
    fn prefetch_issue_groups_pages_per_home_and_skips_tracked_ones() {
        let (mut st, _eps) = test_state(2, 3, false);
        st.pt.add_page(0); // page 0 at home 0
        st.pt.add_page(1); // page 1 at home 1
        st.pt.add_page(0); // page 2 at home 0
        st.pt.add_page(2); // page 3 homed here
        for p in [0, 1, 2] {
            invalidated_copy(&mut st, p, true);
        }
        st.fetch.in_flight.insert(PageId(2), in_flight(0));
        let pages = [PageId(0), PageId(1), PageId(2), PageId(3), PageId(0)];
        issue_prefetch(&mut st, &pages, ReqCause::ReleasePrefetch);
        // Page 2 already in flight, page 3 homed here, page 0 deduped:
        // one request to home 0 (page 0) and one to home 1 (page 1).
        assert_eq!(st.fetch.in_flight.len(), 3);
        assert_eq!(st.fetch.in_flight[&PageId(0)].home, 0);
        assert_eq!(st.fetch.in_flight[&PageId(1)].home, 1);
        assert_eq!(
            st.fetch.in_flight[&PageId(2)].req_id,
            0,
            "in-flight entry kept"
        );
        assert_eq!(st.hists.fetch_batch_pages.count(), 2);
        assert_eq!(st.req_causes.get(ReqCause::ReleasePrefetch), (1, 1));
    }
}
