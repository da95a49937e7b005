//! Lazy release consistency on the application thread: closing an interval
//! (twins to diffs, write notices, the FT log, the diffs held for their
//! homes until the node's next message) and opening the next one at an
//! acquire or a barrier (join the sender's timestamp, apply the notices it
//! carried). [`crate::Process`] wraps these in the operation skeleton — the
//! crash clock, the wait, the breakdown.

use std::sync::Arc;
use std::time::Instant;

use dsm_page::{PageId, ProcId, VectorClock};
use dsm_trace::EventKind;
use hlrc::{LockId, WnDelta};

use crate::ft::logs::{BarEntry, RelEntry};
use crate::ft::recovery;
use crate::msg::{Payload, Pushed};
use crate::runtime::fetch;
use crate::runtime::home::pushes_for;
use crate::runtime::node::NodeState;
use crate::stats::{Breakdown, ReqCause};

impl NodeState {
    /// End the current interval: turn twins into diffs, publish write
    /// notices, (FT) log everything, and hold the diffs for remote homes in
    /// [`NodeState::unsent`] for the node's next message to send. The
    /// protocol and logging time spent is charged to `bd`, the running
    /// incarnation's breakdown.
    pub(crate) fn close_interval(&mut self, bd: &mut Breakdown) {
        // O(1) early exit: one vec emptiness check plus one atomic load — the
        // common no-writes release pays no slot walk and takes no shard lock.
        if !self.pt.has_writes() {
            return;
        }
        let t0 = Instant::now();
        let me = self.me;
        let iv = self.vt.tick(me);
        let diffs = self.pt.end_interval(iv);
        self.hists
            .diff_create
            .record(t0.elapsed().as_nanos() as u64);
        if diffs.is_empty() {
            // Twins existed but no word actually changed: nothing to publish.
            self.hists
                .release_flush
                .record(t0.elapsed().as_nanos() as u64);
            bd.protocol += t0.elapsed();
            return;
        }
        let pages: Vec<PageId> = diffs.iter().map(|d| d.page).collect();
        if self.tracer.enabled() {
            for d in &diffs {
                self.tracer.emit(EventKind::DiffCreate {
                    page: d.page.0,
                    bytes: d.payload_bytes() as u32,
                });
            }
        }
        self.wn_table.insert_parts(iv, pages.clone());

        // Hold the diffs for remote homes (reference bumps, not payload
        // copies), each home's after its earlier intervals' in the order the
        // interval made them, so the batches — and the piggyback state they
        // advance — replay the same. A remote page's `needed` records the
        // interval, as a notice of our own would (it invalidates nothing): a
        // copy without it is not one this node may read, and a page it names
        // is never zero-filled. The checkpoint saves it with the rest of
        // `needed`.
        for d in &diffs {
            let home = self.pt.home_of(d.page);
            if home != me {
                self.pt.invalidate(d.page, me, iv.seq);
                self.unsent.entry(home).or_default().push(Arc::clone(d));
            }
        }
        bd.protocol += t0.elapsed();

        // FT: log the write notice and every diff (including homed pages') as
        // one batch. The log entries share the diff objects just held for
        // the homes — logging costs one Arc bump plus a timestamp per diff,
        // never a payload copy.
        let t1 = Instant::now();
        if let Some(logs) = self.ft.logs() {
            logs.log_interval(iv.seq, pages, &self.vt, &diffs);
        }
        bd.logging += t1.elapsed();
        // The whole release flush — dirty collection, diff creation, logging;
        // the batches leave with the next message ([`NodeState::send`]).
        self.hists
            .release_flush
            .record(t0.elapsed().as_nanos() as u64);
    }
}

/// Ask for `lock`: number the acquisition, park it in the wait slot and
/// send the request to the lock's manager.
pub(crate) fn request(st: &mut NodeState, lock: LockId) {
    let acq_seq = st.sync.take_acq_seq();
    st.tracer.emit(EventKind::LockRequest { lock: lock as u32 });
    let vt = st.vt.clone();
    let to = lock % st.n;
    st.block_on(vec![(to, Payload::LockAcq { lock, acq_seq, vt })]);
}

/// Apply the write notices a grant or a barrier release carried that `pre`
/// — our timestamp before joining the sender's — does not cover: record
/// them, invalidate their pages and install the pages it pushed. Returns the
/// pages invalidated, for a live operation to prefetch.
fn apply_notices(
    st: &mut NodeState,
    pre: &VectorClock,
    wns: WnDelta,
    pushed: Vec<Pushed>,
) -> Vec<PageId> {
    let mut invalidated = Vec::new();
    for wn in wns {
        if pre.covers_interval(wn.interval) {
            continue;
        }
        for &pg in &wn.pages {
            st.pt.invalidate(pg, wn.interval.proc, wn.interval.seq);
            invalidated.push(pg);
        }
        st.wn_table.insert(wn);
    }
    fetch::install_pushed(st, pushed);
    invalidated
}

/// The LRC acquire, `grant` taken from the wait slot with its granter —
/// one that came over the wire, or the one the logs give a replayed
/// acquire: close the interval, join the granter's release timestamp, apply
/// the write notices we were missing, enter the tenure; live, prefetch what
/// the notices invalidated that was in use.
pub(crate) fn apply_grant(st: &mut NodeState, grant: (ProcId, Payload), bd: &mut Breakdown) {
    let (granter, grant) = grant;
    let Payload::LockGrant {
        lock,
        acq_seq,
        gen,
        vt,
        wns,
        pushed,
    } = grant
    else {
        unreachable!("a lock wait took {}", grant.kind())
    };
    st.close_interval(bd);
    let req_vt = st.vt.clone();
    st.vt.join(&vt);
    let invalidated = apply_notices(st, &req_vt, wns, pushed);
    let t_after = st.vt.clone();
    if let Some(logs) = st.ft.logs() {
        let entry = RelEntry {
            acq_seq,
            lock,
            gen,
            req_vt,
            t_after,
        };
        logs.log_acq(granter, entry);
    }
    st.sync.enter(lock, acq_seq, gen);
    recovery::synced(st, |st| {
        fetch::issue_prefetch(st, &invalidated, ReqCause::GrantPrefetch)
    });
}

/// Release `lock`, whose interval the caller has closed. Its diffs leave
/// ahead of the first grant this sends; with no request due, with the
/// node's next message.
pub(crate) fn release(st: &mut NodeState, lock: LockId) {
    st.sync.leave(lock, st.vt.clone());
    let home = st.pt.home_store();
    let due = st.sync.take_due_grants(lock).into_iter();
    let (wns, ft, tracer) = (&st.wn_table, &mut st.ft, &st.tracer);
    let grants = due.map(|pg| st.sync.grant_now(pg, wns, &home, ft, tracer));
    let grants = grants.collect();
    st.send_all(grants);
    recovery::synced(st, |st| st.ft.policy_check(st.shared_bytes(), None));
}

/// Arrive at the barrier: close the interval, park the arrival in the wait
/// slot and send it to the manager, node 0 ([`NodeState::block_on`]). It
/// reports the copies we used since the last arrival, which their home may
/// push when it next invalidates them here, and pushes the pages of ours
/// that our notices invalidate at node 0 where node 0 reported using them;
/// as it leaves it takes every diff held for the pages node 0 homes — this
/// interval's and those of the releases since the node last sent a message,
/// one message where a `DiffBatch` and the arrival were two. The other
/// homes' batches go just ahead of it. Returns the episode.
pub(crate) fn arrive(st: &mut NodeState, bd: &mut Breakdown) -> u64 {
    st.close_interval(bd);
    let episode = st.sync.bar_episode();
    st.tracer.emit(EventKind::BarrierEnter {
        episode: episode as u32,
    });
    let vt = st.vt.clone();
    // Our own notices since the previous arrival: the table's between `vt`
    // with our entry set back to that arrival's interval, and `vt`.
    let mut from = vt.clone();
    from.set(st.me, st.sync.note_arrival(vt.get(st.me)));
    let own_wns = st.wn_table.missing_between(&from, &vt);
    let used = fetch::used_report(st);
    // Node 0 wants none of its own pages.
    let pushed = pushes_for(&st.pt.home_store(), 0, &own_wns);
    let arrival = Payload::BarrierArrive {
        episode,
        vt,
        own_wns,
        used,
        pushed,
        batch: None,
    };
    st.block_on(vec![(0, arrival)]);
    episode
}

/// Cross the barrier, `release` taken from the wait slot — one that came
/// over the wire, or the one the logs give a replayed barrier: join its
/// timestamp, apply the notices it carried and keep node 0's reported
/// copies of our pages as its wants, which our next arrival may push; live,
/// start the next arrival's report of the copies used, prefetch what the
/// notices invalidated that was in use and check the checkpoint policy.
pub(crate) fn cross_barrier(st: &mut NodeState, release: Payload) {
    let Payload::BarrierRelease {
        vt,
        wns,
        pushed,
        used,
        ..
    } = release
    else {
        unreachable!("a barrier wait took {}", release.kind())
    };
    let arrive_vt = st.vt.clone();
    st.vt.join(&vt);
    let invalidated = apply_notices(st, &arrive_vt, wns, pushed);
    let home = st.pt.home_store();
    for (page, have) in used {
        home.want(0, page, have);
    }
    let episode = st.sync.crossed();
    match st.ft.logs() {
        Some(logs) => logs.log_bar(BarEntry {
            episode,
            result_vt: st.vt.clone(),
        }),
        // Base HLRC replays nothing: every request a grant or an arrival
        // answers from now on carries a clock that covers the release's,
        // so no notice that clock covers is asked for again. (With logging
        // on, a recovery can ask for older ones: the checkpoints bound the
        // table, at publish.)
        None => {
            st.wn_table.trim_covered_by(&vt);
        }
    }
    recovery::synced(st, |st| {
        st.fetch.crossed();
        fetch::issue_prefetch(st, &invalidated, ReqCause::ReleasePrefetch);
        st.ft.policy_check(st.shared_bytes(), Some(episode));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CkptPolicy;
    use crate::ft::ckpt::CheckpointBlob;
    use crate::ft::recovery::RecoverySvc;
    use crate::ft::FtState;
    use crate::msg::{CkptStamp, Msg, Piggy};
    use crate::runtime::node::tests::{
        diff_of, gated, page_of, requests, test_state, the_answer, waited,
    };
    use crate::runtime::node::{drain_unalloc, handle_msg, Mode, WaitSlot};
    use dsm_net::{Endpoint, Fabric};
    use dsm_page::{Diff, Interval};
    use dsm_storage::{DiskModel, StableStore};
    use dsm_trace::NodeTracer;
    use hlrc::{Have, PageBody, PageState, WriteNotice};

    /// Every payload waiting for `ep`: what its service thread takes, then
    /// what that passes for a wait — a barrier arrival — each in order.
    fn sent(ep: &Endpoint<Msg>) -> (Vec<Payload>, Vec<Payload>) {
        (requests(ep), waited(ep))
    }

    #[test]
    fn the_managers_batch_rides_the_arrival_with_the_release_held_before_it() {
        // Node 1 of 2, which manages lock 1; it writes page 0, node 0's.
        let (mut st, eps) = test_state(1, 2, false);
        st.pt.add_page(0);
        st.pt.install(PageId(0), page_of(0), &VectorClock::zero(2));
        let write = |st: &mut NodeState, byte| st.pt.write(PageId(0), 8, &[byte]);
        // A release with no request due sends nothing: its batch is held.
        st.sync.enter(1, 0, 1);
        write(&mut st, 1);
        st.close_interval(&mut Breakdown::default());
        release(&mut st, 1);
        assert_eq!(sent(&eps[0]), (vec![], vec![]));
        assert_eq!(st.unsent[&0].len(), 1);
        // The barrier's rides the arrival behind it, which is parked
        // without them.
        write(&mut st, 2);
        let diffs = arrive_and_check(&mut st, &eps, Some(2)).unwrap();
        let seqs: Vec<_> = diffs.iter().map(|d| d.interval.seq).collect();
        assert_eq!(seqs, [1, 2]);
        assert_eq!(st.counts.diff_batches_carried, 1);
        assert!(st.unsent.is_empty());
    }

    /// The manager's held diffs for each home ride its release to that home,
    /// and none goes alone. The home's arrival opened its wait as it left,
    /// so its service thread takes nothing — not a `DiffBatch` the manager
    /// sent behind the release either — and its waiting thread serves the
    /// batch before the release answers the arrival.
    #[test]
    fn each_release_carries_the_managers_diffs_for_its_receivers_pages() {
        // Node 0 of 3 writes page 0, node 1's, and page 1, node 2's.
        let (mut st, eps) = test_state(0, 3, false);
        for page in [0, 1] {
            st.pt.add_page(page + 1);
            st.pt
                .install(PageId(page as u32), page_of(0), &VectorClock::zero(3));
            st.pt.write(PageId(page as u32), 8, &[1]);
        }
        arrive(&mut st, &mut Breakdown::default());
        assert!(!st.wait_opened(), "a request to this node opens nothing");
        for peer in [1, 2] {
            let arrival = Payload::BarrierArrive {
                episode: 0,
                vt: VectorClock::zero(3),
                own_wns: WnDelta::empty(),
                used: Vec::new(),
                pushed: Vec::new(),
                batch: None,
            };
            handle_msg(&mut st, peer, arrival);
        }
        assert!(st.wait.take().is_some(), "the episode completed");
        assert!(st.unsent.is_empty());
        assert_eq!(st.counts.diff_batches_carried, 2);
        let mut releases = Vec::new();
        for (page, ep) in eps.iter().enumerate() {
            let (none, release) = sent(ep);
            let ([], [release @ Payload::BarrierRelease { batch, .. }]) = (&none[..], &release[..])
            else {
                panic!("one release, not {none:?} {release:?}")
            };
            let pages = batch.iter().flatten().map(|d| d.page);
            assert_eq!(pages.collect::<Vec<_>>(), [PageId(page as u32)]);
            releases.push(release.clone());
        }

        // Node 1 homes page 0 (and allocates page 1 as everyone does).
        let (mut home, to_manager) = test_state(1, 3, false);
        home.pt.add_page(1);
        home.pt.add_page(2);
        arrive(&mut home, &mut Breakdown::default());
        assert!(home.wait_opened());
        let later = Payload::DiffBatch {
            diffs: vec![diff_of(0, 0, 2)],
        };
        for payload in [releases[0].clone(), later.clone()] {
            to_manager[0].send(1, Msg::bare(payload));
        }
        assert_eq!(requests(&home.ep), [], "the service thread takes nothing");
        let taken = waited(&home.ep);
        assert_eq!(taken, [releases[0].clone(), later]);
        handle_msg(&mut home, 0, taken[0].clone());
        assert_eq!(home.pt.home_version(PageId(0)), gated(3, 0, 1));
        assert!(
            home.wait.take().is_some(),
            "the release answers the arrival"
        );
    }

    /// `arrive` at `st`, and check what it sent and parked: one arrival,
    /// carrying a batch of `carried` diffs or none; returns the batch.
    fn arrive_and_check(
        st: &mut NodeState,
        eps: &[Arc<Endpoint<Msg>>],
        carried: Option<usize>,
    ) -> Option<Vec<Arc<Diff>>> {
        arrive(st, &mut Breakdown::default());
        let (none, arrival) = sent(&eps[0]);
        let ([], [Payload::BarrierArrive { batch, .. }]) = (&none[..], &arrival[..]) else {
            panic!("one arrival, for the manager's application thread")
        };
        assert_eq!(batch.as_ref().map(Vec::len), carried);
        match &st.wait {
            WaitSlot::Request {
                to,
                request: Payload::BarrierArrive { batch: None, .. },
                ..
            } if *to == [0] => {}
            other => panic!("unexpected wait {other:?}: a resend would carry the batch"),
        }
        batch.clone()
    }

    /// Node `me` of `n` with fault tolerance on and page 0 homed here, and
    /// the store its checkpoints go to.
    fn ft_node(me: ProcId, n: usize) -> (NodeState, Vec<Arc<Endpoint<Msg>>>, Arc<StableStore>) {
        let (_fabric, endpoints) = Fabric::<Msg>::new(n);
        let eps: Vec<_> = endpoints.into_iter().map(Arc::new).collect();
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let ft = FtState::new(me, n, CkptPolicy::default(), Arc::clone(&store));
        let tracer = NodeTracer::disabled();
        let mut st = NodeState::new(me, n, 256, Arc::clone(&eps[me]), Some(ft), tracer);
        st.pt.add_page(me);
        (st, eps, store)
    }

    /// Close one interval that wrote page 0.
    fn write_interval(st: &mut NodeState, byte: u8) {
        st.pt.write(PageId(0), 8, &[byte]);
        st.close_interval(&mut Breakdown::default());
    }

    /// Arrive, and return the seqs of the notices the arrival carried (all
    /// of them our own, each naming page 0).
    fn arrive_with(st: &mut NodeState, manager: &Endpoint<Msg>) -> Vec<u32> {
        arrive(st, &mut Breakdown::default());
        let (none, arrival) = sent(manager);
        let ([], [Payload::BarrierArrive { own_wns, .. }]) = (&none[..], &arrival[..]) else {
            panic!("one arrival")
        };
        let own = own_wns
            .iter()
            .inspect(|w| assert_eq!((w.interval.proc, &w.pages[..]), (st.me, &[PageId(0)][..])));
        own.map(|w| w.interval.seq).collect()
    }

    /// A checkpoint records its intervals as sent, so a due one sends what
    /// is held before it captures: a restart from it will not make those
    /// diffs again.
    #[test]
    fn a_checkpoint_sends_the_diffs_held_before_it() {
        let (mut st, eps, _store) = ft_node(1, 2);
        st.pt.add_page(0); // page 1: node 0's
        st.pt.install(PageId(1), page_of(0), &VectorClock::zero(2));
        st.pt.write(PageId(1), 8, &[1]);
        st.close_interval(&mut Breakdown::default());
        assert_eq!(sent(&eps[0]), (vec![], vec![]));
        crate::ft::take_checkpoint(&mut st, 1, Vec::new(), &mut Breakdown::default());
        let (batch, none) = sent(&eps[0]);
        let ([Payload::DiffBatch { diffs }], []) = (&batch[..], &none[..]) else {
            panic!("one DiffBatch, not {batch:?} {none:?}")
        };
        assert_eq!((diffs[0].page, diffs[0].interval.seq), (PageId(1), 1));
        assert!(st.unsent.is_empty());
    }

    #[test]
    fn an_arrival_after_a_restart_carries_the_restored_own_notices_past_the_last_arrival() {
        let (me, n) = (1, 2);
        let (mut st, eps, store) = ft_node(me, n);
        write_interval(&mut st, 1);
        write_interval(&mut st, 2);
        assert_eq!(arrive_with(&mut st, &eps[0]), [1, 2]);
        let release = Payload::BarrierRelease {
            episode: 0,
            vt: st.vt.clone(),
            wns: WnDelta::empty(),
            pushed: Vec::new(),
            used: Vec::new(),
            batch: None,
        };
        handle_msg(&mut st, 0, release);
        let (_, release) = the_answer(&mut st.wait);
        cross_barrier(&mut st, release);
        // A checkpoint past the arrival at interval 2 saves notices 1–4.
        write_interval(&mut st, 3);
        write_interval(&mut st, 4);
        crate::ft::take_checkpoint(&mut st, 1, Vec::new(), &mut Breakdown::default());

        st.fail_stop();
        st.set_mode(Mode::Recovering);
        let (image, window) = crate::ft::ckpt::restart_image(&store, n);
        assert_eq!(image.last_bar_arrive_seq, 2);
        st.restart_from(&image, window);
        st.set_mode(Mode::Normal);
        for seq in 1..=4 {
            assert!(st.wn_table.get(Interval { proc: me, seq }).is_some());
        }
        assert_eq!(arrive_with(&mut st, &eps[0]), [3, 4]);
    }

    #[test]
    fn an_arrival_after_a_trim_omits_only_what_every_peer_has_checkpointed() {
        let (me, n) = (1, 3);
        let (mut st, eps, _store) = ft_node(me, n);
        for byte in 1..=3 {
            write_interval(&mut st, byte);
        }
        // Node 0 has checkpointed our intervals up to 2, node 2 up to 3: the
        // checkpoint trims our notices 1 and 2 from the table.
        let peer_tckp = [(0, [1, 2, 0]), (2, [0, 3, 1])];
        for (peer, tckp) in peer_tckp {
            let stamp = CkptStamp {
                seq: 1,
                episode: 0,
                tckp: VectorClock::from_vec(tckp.to_vec()),
            };
            let piggy = Piggy {
                stamp,
                p0v: Vec::new(),
                table: Vec::new(),
            };
            st.ft.absorb_piggy(peer, &piggy);
        }
        crate::ft::take_checkpoint(&mut st, 1, Vec::new(), &mut Breakdown::default());
        assert_eq!(st.wn_table.len(), 1);

        let carried = arrive_with(&mut st, &eps[0]);
        assert_eq!(carried, [3]);
        for seq in (1..=3).filter(|s| !carried.contains(s)) {
            let covered = peer_tckp.iter().all(|(_, t)| t[me] >= seq);
            assert!(covered, "interval {seq} left out but a peer may miss it");
        }
    }

    #[test]
    fn the_manager_logs_each_episode_once_though_it_completes_and_crosses_it() {
        let (mut st, _eps, _store) = ft_node(0, 2);
        for episode in 0..2 {
            arrive(&mut st, &mut Breakdown::default());
            let peer = Payload::BarrierArrive {
                episode,
                vt: gated(2, 1, episode as u32 + 1),
                own_wns: WnDelta::empty(),
                batch: None,
                used: Vec::new(),
                pushed: Vec::new(),
            };
            handle_msg(&mut st, 1, peer);
            let (_, release) = the_answer(&mut st.wait);
            cross_barrier(&mut st, release);
        }
        let logged: Vec<_> = (st.ft.logs().unwrap().bar.iter())
            .map(|e| (e.episode, e.result_vt.clone()))
            .collect();
        assert_eq!(logged, [(0, gated(2, 1, 1)), (1, gated(2, 1, 2))]);
    }

    #[test]
    fn the_manager_serves_a_carried_batch_before_the_arrival_and_only_once_its_pages_exist() {
        // Node 0 of 2, the manager, has allocated page 0 only; node 1's
        // arrival carries a diff for page 1, which node 0 is yet to allocate.
        let (mut st, eps) = test_state(0, 2, false);
        st.pt.add_page(0);
        let arrival = Payload::BarrierArrive {
            episode: 0,
            vt: gated(2, 1, 1),
            own_wns: WnDelta::empty(),
            batch: Some(vec![diff_of(1, 1, 1)]),
            used: Vec::new(),
            pushed: Vec::new(),
        };
        handle_msg(&mut st, 1, arrival.clone());
        assert_eq!(st.pending_unalloc, [(1, arrival)]);
        // Our own arrival does not complete the episode: node 1's waits.
        arrive(&mut st, &mut Breakdown::default());
        assert!(st.wait.take().is_none());
        assert_eq!(sent(&eps[0]), (vec![], vec![]));

        st.pt.add_page(0);
        drain_unalloc(&mut st);
        assert_eq!(st.pt.home_version(PageId(1)), gated(2, 1, 1));
        let (none, release) = sent(&eps[0]);
        let kinds = |sent: &[Payload]| sent.iter().map(Payload::kind).collect::<Vec<_>>();
        assert_eq!(
            (kinds(&none), kinds(&release)),
            (vec![], vec!["BarrierRelease"])
        );
        assert!(st.wait.take().is_some(), "the episode completed");
    }

    /// The manager keeps the copies of its pages an arrival reports used,
    /// sends each on the release whose notices invalidate it there, and
    /// forgets a peer's when the peer's recovery handshake says it
    /// restarted: that release carries the notice alone.
    #[test]
    fn the_manager_pushes_what_an_arrival_reported_until_the_peer_restarts() {
        let (mut st, eps, _store) = ft_node(0, 2);
        let peer_arrives = |st: &mut NodeState, episode: u64, used: Have| {
            let arrival = Payload::BarrierArrive {
                episode,
                vt: gated(2, 0, episode as u32),
                own_wns: WnDelta::empty(),
                used: vec![(PageId(0), used)],
                pushed: Vec::new(),
                batch: None,
            };
            handle_msg(st, 1, arrival);
        };
        // What the manager's write of page 0 and its own arrival send node 1.
        let release_to_peer = |st: &mut NodeState, byte| {
            write_interval(st, byte);
            arrive(st, &mut Breakdown::default());
            let (_, release) = the_answer(&mut st.wait);
            cross_barrier(st, release);
            let (none, release) = sent(&eps[1]);
            let ([], [Payload::BarrierRelease { wns, pushed, .. }]) = (&none[..], &release[..])
            else {
                panic!("one release, not {none:?} {release:?}")
            };
            assert_eq!(
                wns.iter().map(|w| w.interval.seq).collect::<Vec<_>>(),
                [byte as u32]
            );
            pushed.clone()
        };
        let kept = (1, VectorClock::zero(2));
        peer_arrives(&mut st, 0, kept.clone());
        let pushed = release_to_peer(&mut st, 1);
        let [Pushed {
            page: PageId(0),
            base,
            version,
            body: PageBody::Delta(diffs),
        }] = &pushed[..]
        else {
            panic!("page 0 as a delta, not {pushed:?}")
        };
        assert_eq!((base, version), (&kept, &gated(2, 0, 1)));
        assert_eq!(
            diffs.iter().map(|d| d.interval.seq).collect::<Vec<_>>(),
            [1]
        );
        assert_eq!(st.counts.pages_pushed, 1);
        // Reported again, then the peer restarts: nothing rides the release.
        peer_arrives(&mut st, 1, (1, gated(2, 0, 1)));
        handle_msg(&mut st, 1, Payload::RecLogReq { homed: Vec::new() });
        waited(&eps[1]);
        assert!(release_to_peer(&mut st, 2).is_empty());
        assert_eq!(st.counts.pages_pushed, 1);
    }

    /// A home other than the manager keeps the manager's copies of its pages
    /// that the manager's release relays as the manager's wants, and sends
    /// each on its next arrival whose notices invalidate it there; the
    /// manager installs it when it crosses. Once the manager's recovery
    /// handshake says it restarted, the arrival carries the notice alone.
    #[test]
    fn a_home_pushes_what_the_managers_release_relayed_until_the_manager_restarts() {
        // Node 1 homes page 0; the manager has read its copy, exactly `kept`.
        let (mut home, to_manager, _store) = ft_node(1, 2);
        let (mut manager, to_home) = test_state(0, 2, false);
        manager.pt.add_page(1);
        let kept: Have = (1, VectorClock::zero(2));
        let read = |manager: &mut NodeState| {
            manager.pt.read_into(PageId(0), 8, &mut [0u8; 8]);
            fetch::first_use(manager, PageId(0), false);
        };
        manager.pt.install(PageId(0), page_of(0), &kept.1);
        read(&mut manager);
        // One episode: the home's arrival, the manager's, both crossings;
        // returns what the arrival pushed, what the home's release relayed
        // and the fetches the manager sent the home.
        let episode = |home: &mut NodeState, manager: &mut NodeState| {
            arrive(home, &mut Breakdown::default());
            let (none, arrival) = sent(&to_manager[0]);
            let ([], [arrival]) = (&none[..], &arrival[..]) else {
                panic!("one arrival, not {none:?} {arrival:?}")
            };
            let pushed = arrival.pushed().to_vec();
            handle_msg(manager, 1, arrival.clone());
            arrive(manager, &mut Breakdown::default());
            let (_, release) = the_answer(&mut manager.wait);
            cross_barrier(manager, release);
            let (fetches, release) = sent(&to_home[0]);
            let [release @ Payload::BarrierRelease { used, .. }] = &release[..] else {
                panic!("one release, not {release:?}")
            };
            let used = used.clone();
            handle_msg(home, 0, release.clone());
            let (_, release) = the_answer(&mut home.wait);
            cross_barrier(home, release);
            (pushed, used, fetches)
        };
        // The manager's report reaches the home on its release ...
        let (pushed, used, _) = episode(&mut home, &mut manager);
        assert!(pushed.is_empty());
        assert_eq!(used, [(PageId(0), kept.clone())]);
        // ... and the home's next write rides its next arrival, which the
        // manager installs at its crossing, asking for nothing.
        write_interval(&mut home, 1);
        let (pushed, used, fetches) = episode(&mut home, &mut manager);
        let [Pushed {
            page: PageId(0),
            base,
            version,
            ..
        }] = &pushed[..]
        else {
            panic!("page 0, not {pushed:?}")
        };
        assert_eq!(
            (base, version, &used[..]),
            (&kept, &gated(2, 1, 1), &[][..])
        );
        assert_eq!(manager.pt.have(PageId(0)), Some(&(1, gated(2, 1, 1))));
        assert_eq!(manager.pt.remote_meta(PageId(0)).state, PageState::Valid);
        assert!(fetches.is_empty(), "{fetches:?}");
        assert_eq!(
            (home.counts.pages_pushed, manager.counts.pushes_refused),
            (1, 0)
        );
        // Read and reported again; then the manager restarts.
        read(&mut manager);
        episode(&mut home, &mut manager);
        handle_msg(&mut home, 0, Payload::RecLogReq { homed: Vec::new() });
        waited(&to_manager[0]);
        write_interval(&mut home, 2);
        assert!(episode(&mut home, &mut manager).0.is_empty());
        assert_eq!(home.counts.pages_pushed, 1);
    }

    /// Node 1 of 3 crosses `k` barriers, each after an interval of its own
    /// and with a release naming one interval of each peer. Base HLRC trims
    /// the notice table at every crossing: nothing is left whatever `k`,
    /// and each arrival still carries its own new notice. With logging on,
    /// only a checkpoint bounds it.
    #[test]
    fn a_base_node_keeps_no_notice_a_barrier_release_covers() {
        let (me, n, k) = (1, 3, 20);
        for ft in [false, true] {
            let (mut st, eps) = test_state(me, n, ft);
            st.pt.add_page(me); // page 0: written here
            st.pt.add_page(0); // page 1: written by the peers
            for episode in 0..k {
                write_interval(&mut st, episode as u8 + 1);
                assert_eq!(arrive_with(&mut st, &eps[0]), [episode + 1]);
                let seq = episode + 1;
                let peers = [0, 2].map(|proc| WriteNotice {
                    interval: Interval { proc, seq },
                    pages: vec![PageId(1)],
                });
                let release = Payload::BarrierRelease {
                    episode: episode.into(),
                    vt: VectorClock::from_vec(vec![seq; n]),
                    wns: WnDelta::from(peers.to_vec()),
                    pushed: Vec::new(),
                    used: Vec::new(),
                    batch: None,
                };
                handle_msg(&mut st, 0, release);
                let (_, release) = the_answer(&mut st.wait);
                cross_barrier(&mut st, release);
                let kept = if ft { n * (episode as usize + 1) } else { 0 };
                assert_eq!(st.wn_table.len(), kept, "ft {ft} after episode {episode}");
            }
        }
    }

    /// Node 0 wrote pages 0 and 2 in its interval 1, node 2 page 1 in its
    /// intervals 1 and 2: the notices a grant or a release to `clock`
    /// carries.
    fn notices() -> ([WriteNotice; 3], VectorClock) {
        let wn = |proc, seq, pages: &[u32]| WriteNotice {
            interval: Interval { proc, seq },
            pages: pages.iter().map(|&p| PageId(p)).collect(),
        };
        let notices = [wn(0, 1, &[0, 2]), wn(2, 1, &[1]), wn(2, 2, &[1])];
        (notices, VectorClock::from_vec(vec![1, 0, 2]))
    }

    /// Node 1 of 3, which holds pages 0 and 1 and read them, holds page 2
    /// unread, and has never held page 3, which node 2 wrote in its interval
    /// 3 — past the clock of [`notices`].
    fn reader() -> (NodeState, Vec<Arc<Endpoint<Msg>>>) {
        let n = 3;
        let (mut st, eps) = test_state(1, n, true);
        for home in [0, 2, 0, 2] {
            st.pt.add_page(home);
        }
        for p in 0..3 {
            st.pt.install(PageId(p), page_of(0), &VectorClock::zero(n));
        }
        for p in 0..2 {
            st.pt.read_into(PageId(p), 0, &mut [0u8; 8]);
        }
        st.wn_table.insert(WriteNotice {
            interval: Interval { proc: 2, seq: 3 },
            pages: vec![PageId(3)],
        });
        (st, eps)
    }

    /// `live` and `replayed` left the same pages invalid at the same
    /// `needed`: those the notices name, past the clock of [`notices`]. The
    /// live one prefetched the two it had read; the replayed one sent
    /// nothing at all.
    fn same_pages_as_live(
        live: &NodeState,
        replayed: &NodeState,
        replayed_peers: &[Arc<Endpoint<Msg>>],
    ) {
        assert_eq!(live.vt, replayed.vt);
        assert_eq!(
            live.pt.needed_triples(),
            [(0, 0, 1), (1, 2, 2), (2, 0, 1)].map(|(p, w, s)| (PageId(p), w, s))
        );
        for p in (0..4).map(PageId) {
            let (a, b) = (live.pt.remote_meta(p), replayed.pt.remote_meta(p));
            assert_eq!((a.state, &a.needed), (b.state, &b.needed), "page {p}");
        }
        assert_eq!((live.counts.prefetched, replayed.counts.prefetched), (2, 0));
        for ep in replayed_peers {
            assert_eq!(sent(ep), (vec![], vec![]));
        }
    }

    /// A replayed crossing takes the release the logs give as its answer
    /// and applies the notices its clock adds, from the table the handshake
    /// filled, through the live path: the same pages invalid, at the same
    /// `needed`, as a live crossing to the same clock whose release carried
    /// those notices.
    #[test]
    fn a_replayed_barrier_leaves_the_pages_as_a_live_crossing_to_its_clock() {
        let (notices, result) = notices();
        let (mut live, _live_peers) = reader();
        arrive(&mut live, &mut Breakdown::default());
        let release = Payload::BarrierRelease {
            episode: 0,
            vt: result.clone(),
            wns: notices.to_vec().into(),
            pushed: Vec::new(),
            used: Vec::new(),
            batch: None,
        };
        cross_barrier(&mut live, release);
        let (mut replayed, replayed_peers) = reader();
        for notice in notices {
            replayed.wn_table.insert(notice);
        }
        replayed.rec = RecoverySvc::replaying_episode(0, result);
        arrive(&mut replayed, &mut Breakdown::default());
        let (_, release) = the_answer(&mut replayed.wait);
        cross_barrier(&mut replayed, release);
        same_pages_as_live(&live, &replayed, &replayed_peers);
    }

    /// A replayed acquire takes the grant its granter logged as its answer
    /// and applies it as a live one: the same clock, pages, `needed`, tenure
    /// and acquire log as a live acquire whose grant carried the notices
    /// between the clocks.
    #[test]
    fn a_replayed_acquire_leaves_the_node_as_a_live_grant_to_its_clock() {
        // Lock 5 is managed by node 2, whose grant to acquisition 0 is
        // generation 7.
        let (lock, granter) = (5, 2);
        let (notices, t_after) = notices();
        let (mut live, _live_peers) = reader();
        request(&mut live, lock);
        let grant = Payload::LockGrant {
            lock,
            acq_seq: 0,
            gen: 7,
            vt: t_after.clone(),
            wns: notices.to_vec().into(),
            pushed: Vec::new(),
        };
        assert_eq!(live.wait.deposit(granter, grant), None);
        let grant = the_answer(&mut live.wait);
        apply_grant(&mut live, grant, &mut Breakdown::default());
        // The handshake filled the table and mirrored the grant back into
        // the acquire log.
        let (mut replayed, replayed_peers) = reader();
        for notice in notices {
            replayed.wn_table.insert(notice);
        }
        let entry = RelEntry {
            acq_seq: 0,
            lock,
            gen: 7,
            req_vt: VectorClock::zero(3),
            t_after,
        };
        replayed.ft.logs().unwrap().acq[granter].push(entry.clone());
        replayed.rec = RecoverySvc::replaying_grant(granter, entry);
        request(&mut replayed, lock);
        let grant = the_answer(&mut replayed.wait);
        assert_eq!(grant.0, granter);
        apply_grant(&mut replayed, grant, &mut Breakdown::default());
        same_pages_as_live(&live, &replayed, &replayed_peers);
        let mut tenures = CheckpointBlob::genesis(3);
        replayed.sync.save_into(&mut tenures);
        assert_eq!(tenures.tenures, [(lock, 0, 7, false)]);
        assert_eq!(live.sync, replayed.sync);
        let acq_log = |st: &mut NodeState| st.ft.logs().unwrap().acq[granter].len();
        assert_eq!((acq_log(&mut live), acq_log(&mut replayed)), (1, 1));
    }
}
