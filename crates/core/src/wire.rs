//! The one encoded layout of every message, log entry and checkpoint clock.
//!
//! Every integer is an LEB128 varint; byte strings are raw after a varint
//! length. A message is a tag byte (its kind in the low five bits, bit 5 "a
//! trace context follows", bit 6 "a piggyback follows", bit 7 "a diff batch
//! follows"), the trace context if the message was traced, the payload, the
//! batch and then the piggyback. [`put_msg`] writes it and [`get_msg`] reads
//! it back; `Msg::base_wire_size`, `ft_wire_size` and `trace_wire_size` are
//! the lengths [`put_msg`] writes into a length-only [`ByteWriter`], so the
//! bytes a message is charged are its encoding by construction.

use std::sync::Arc;

use dsm_page::{
    page_wire_size, put_page, Diff, Interval, PageId, RunSection, VectorClock, MAX_PAGE_SIZE,
    PAGE_ALIGN_WORD,
};
use dsm_storage::{ByteReader, ByteWriter, CodecError};
use dsm_trace::TraceCtx;
use hlrc::{Have, PageBody, WnDelta, WriteNotice};

use crate::ft::logs::{BarEntry, DiffLogEntry, RelEntry, WnLogEntry};
use crate::msg::{CkptStamp, Msg, Payload, Piggy, Pushed, RecPage};

/// The length `put` writes, counted by a length-only writer.
pub(crate) fn len_of(put: impl FnOnce(&mut ByteWriter)) -> usize {
    let mut w = ByteWriter::length_only();
    put(&mut w);
    w.len()
}

/// Read a varint counting `unit`-byte units that must fit a `u32` in bytes.
fn get_u32_varint(r: &mut ByteReader, unit: u64, context: &'static str) -> Result<u32, CodecError> {
    let v = r.get_varint()?.checked_mul(unit);
    v.and_then(|v| u32::try_from(v).ok())
        .ok_or(CodecError::Invalid { context })
}

/// Read a varint that must fit a `u32`.
pub(crate) fn get_u32(r: &mut ByteReader, context: &'static str) -> Result<u32, CodecError> {
    get_u32_varint(r, 1, context)
}

/// Read a varint as a `usize` (a node, lock or length).
fn get_usize(r: &mut ByteReader) -> Result<usize, CodecError> {
    let v = r.get_varint()?;
    usize::try_from(v).map_err(|_| CodecError::LengthOverflow { len: v })
}

/// Encode integers as varints, in order.
fn put_varints(w: &mut ByteWriter, vs: &[u64]) {
    vs.iter().for_each(|&v| w.put_varint(v));
}

/// Encode a list: its length, then each item.
fn put_list<T>(w: &mut ByteWriter, items: &[T], mut put: impl FnMut(&mut ByteWriter, &T)) {
    w.put_varint(items.len() as u64);
    items.iter().for_each(|item| put(w, item));
}

/// Decode a list of items at least `smallest` bytes each: the count sizes
/// the allocation only as far as the input left could hold.
pub(crate) fn get_list<T>(
    r: &mut ByteReader,
    smallest: usize,
    mut get: impl FnMut(&mut ByteReader) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.get_varint()?;
    let mut items = Vec::with_capacity(r.capacity_for(n, smallest));
    for _ in 0..n {
        items.push(get(r)?);
    }
    Ok(items)
}

/// Read a presence byte: 0 is absent, 1 present.
fn get_flag(r: &mut ByteReader, context: &'static str) -> Result<bool, CodecError> {
    match r.get_u8()? {
        tag @ 2.. => Err(CodecError::BadTag { context, tag }),
        b => Ok(b == 1),
    }
}

const SEQ_MASK: u64 = (1 << 48) - 1;

/// Encode a stamped trace context (a traced message's; an untraced one has
/// none on the wire): its seq, then its parent flow as the parent's
/// `origin + 1` and seq, or one `0` for a root. The origin is the sender,
/// which the receiver knows; the measurement fields (`sent_at_ns`,
/// `chaos_delay_ns`) are not encoded — a real network stack would take
/// them from NIC timestamps, so the wire model does not charge them.
pub fn put_ctx(w: &mut ByteWriter, ctx: &TraceCtx) {
    w.put_varint(ctx.seq);
    w.put_varint(ctx.parent >> 48);
    if ctx.parent != 0 {
        w.put_varint(ctx.parent & SEQ_MASK);
    }
}

/// Decode a trace context sent by `origin` (measurement fields zeroed).
pub fn get_ctx(r: &mut ByteReader, origin: u32) -> Result<TraceCtx, CodecError> {
    let invalid = |context| CodecError::Invalid { context };
    let seq = match r.get_varint()? {
        0 => return Err(invalid("trace seq")),
        seq => seq,
    };
    let parent = match r.get_varint()? {
        0 => 0,
        node @ 1..=0xFFFF => match r.get_varint()? {
            s @ 1..=SEQ_MASK => (node << 48) | s,
            _ => return Err(invalid("parent seq")),
        },
        _ => return Err(invalid("parent origin")),
    };
    Ok(TraceCtx {
        origin,
        seq,
        parent,
        sent_at_ns: 0,
        chaos_delay_ns: 0,
    })
}

/// Encode a vector clock: its entry count, then the entries.
pub fn put_vt(w: &mut ByteWriter, vt: &VectorClock) {
    put_list(w, vt.as_slice(), |w, &x| w.put_varint(x.into()));
}

/// Decode a vector clock.
pub fn get_vt(r: &mut ByteReader) -> Result<VectorClock, CodecError> {
    Ok(VectorClock::from_vec(get_list(r, 1, |r| {
        get_u32(r, "clock entry")
    })?))
}

/// Encode a page-id list.
pub fn put_pages(w: &mut ByteWriter, pages: &[PageId]) {
    put_list(w, pages, |w, p| w.put_varint(p.0.into()));
}

/// Decode a page-id list.
pub fn get_pages(r: &mut ByteReader) -> Result<Vec<PageId>, CodecError> {
    get_list(r, 1, get_page)
}

/// Decode one page id.
pub(crate) fn get_page(r: &mut ByteReader) -> Result<PageId, CodecError> {
    Ok(PageId(get_u32(r, "page id")?))
}

/// Encode a diff: page id, interval proc and interval seq as LEB128
/// varints, then the run section the diff stores — its bytes as they are,
/// not re-encoded. A length-only writer is given [`Diff::wire_size`], so
/// counting a batch never walks its runs.
pub fn put_diff(w: &mut ByteWriter, d: &Diff) {
    if w.count_only(d.wire_size()) {
        return;
    }
    w.reserve(d.wire_size());
    let (page, interval) = (d.page.0.into(), d.interval);
    put_varints(w, &[page, interval.proc as u64, interval.seq.into()]);
    w.put_raw(d.section());
}

/// Decode a diff; a header field past `u32` is refused, and so is a run
/// section [`RunSection::check`] refuses. The section is copied as it is,
/// in one allocation.
pub fn get_diff(r: &mut ByteReader) -> Result<Diff, CodecError> {
    let (page, interval) = (get_page(r)?, get_interval(r)?);
    let d = Diff::from_section(page, interval, r.rest())?;
    r.get_raw(d.section().len())?;
    Ok(d)
}

/// Encode a whole page ([`dsm_page::put_page`]): its length in words, then
/// the run section of its non-zero words, so a zero word costs only the
/// gap it widens. A length-only writer is given [`page_wire_size`], one
/// scan of the page that allocates and copies nothing.
pub fn put_page_bytes(w: &mut ByteWriter, bytes: &[u8]) {
    w.put_with(page_wire_size(bytes), |out| put_page(out, bytes));
}

/// Decode a whole page: its runs written into a zero-filled buffer of its
/// length. The length counts words, so a page of cut words has no encoding;
/// a length past [`MAX_PAGE_SIZE`] and a run that ends past the length are
/// refused, so no buffer is sized beyond one page.
pub fn get_page_bytes(r: &mut ByteReader) -> Result<Vec<u8>, CodecError> {
    let invalid = |context| CodecError::Invalid { context };
    let len = get_u32_varint(r, PAGE_ALIGN_WORD as u64, "page length")? as usize;
    if len > MAX_PAGE_SIZE {
        return Err(invalid("page length"));
    }
    let section = RunSection::check(r.rest())?;
    r.get_raw(section.bytes().len())?;
    let mut page = vec![0; len];
    for (offset, bytes) in section.runs() {
        page.get_mut(offset..offset + bytes.len())
            .ok_or(invalid("page run"))?
            .copy_from_slice(bytes);
    }
    Ok(page)
}

/// Encode a list of diffs (a batch, a delta body).
pub(crate) fn put_diffs(w: &mut ByteWriter, diffs: &[Arc<Diff>]) {
    put_list(w, diffs, |w, d| put_diff(w, d));
}

/// Decode a list of diffs; a diff is at least its four header varints.
pub(crate) fn get_diffs(r: &mut ByteReader) -> Result<Vec<Arc<Diff>>, CodecError> {
    get_list(r, 4, |r| get_diff(r).map(Arc::new))
}

/// Encode what a fetch says its requester kept: a presence byte, then the
/// home incarnation and the version the kept copy is.
pub fn put_have(w: &mut ByteWriter, have: Option<&Have>) {
    w.put_u8(have.is_some() as u8);
    if let Some(have) = have {
        put_base_have(w, have);
    }
}

/// Decode what a fetch says its requester kept.
pub fn get_have(r: &mut ByteReader) -> Result<Option<Have>, CodecError> {
    Ok(match get_flag(r, "have")? {
        false => None,
        true => Some(get_base_have(r)?),
    })
}

/// Encode a fetch reply's body: a tag byte, then base incarnation and the
/// page ([`put_page_bytes`]), or the diffs.
pub fn put_page_body(w: &mut ByteWriter, body: &PageBody) {
    match body {
        PageBody::Full { bytes, base } => {
            w.put_u8(0);
            w.put_varint((*base).into());
            put_page_bytes(w, bytes);
        }
        PageBody::Delta(diffs) => {
            w.put_u8(1);
            put_diffs(w, diffs);
        }
    }
}

/// Decode a fetch reply's body.
pub fn get_page_body(r: &mut ByteReader) -> Result<PageBody, CodecError> {
    Ok(match get_flag(r, "page body")? {
        false => {
            let base = get_u32(r, "page base")?;
            let bytes = get_page_bytes(r)?.into();
            PageBody::Full { bytes, base }
        }
        true => PageBody::Delta(get_diffs(r)?),
    })
}

/// Encode what a copy is exactly, for a report or a push: the home
/// incarnation and the version (no presence byte: both always have one).
fn put_base_have(w: &mut ByteWriter, (incarnation, version): &Have) {
    w.put_varint((*incarnation).into());
    put_vt(w, version);
}

fn get_base_have(r: &mut ByteReader) -> Result<Have, CodecError> {
    Ok((get_u32(r, "incarnation")?, get_vt(r)?))
}

/// Encode an arrival's report of the copies it used: per page its id and
/// what the copy is.
pub fn put_used(w: &mut ByteWriter, used: &[(PageId, Have)]) {
    put_list(w, used, |w, (page, have)| {
        w.put_varint(page.0.into());
        put_base_have(w, have);
    });
}

/// Decode an arrival's report of the copies it used.
pub fn get_used(r: &mut ByteReader) -> Result<Vec<(PageId, Have)>, CodecError> {
    get_list(r, 3, |r| Ok((get_page(r)?, get_base_have(r)?)))
}

/// Encode the pages a grant or release pushes: per page its id, the copy
/// the body builds on, the version and the body ([`put_page_body`]).
pub fn put_pushed(w: &mut ByteWriter, pushed: &[Pushed]) {
    put_list(w, pushed, |w, p| {
        w.put_varint(p.page.0.into());
        put_base_have(w, &p.base);
        put_vt(w, &p.version);
        put_page_body(w, &p.body);
    });
}

/// Decode the pages a grant or release pushes.
pub fn get_pushed(r: &mut ByteReader) -> Result<Vec<Pushed>, CodecError> {
    get_list(r, 6, |r| {
        Ok(Pushed {
            page: get_page(r)?,
            base: get_base_have(r)?,
            version: get_vt(r)?,
            body: get_page_body(r)?,
        })
    })
}

/// Encode the page list of a fetch request: per page its id, the version
/// the reply must include and what the requester kept.
pub fn put_page_needs(w: &mut ByteWriter, pages: &[(PageId, VectorClock, Option<Have>)]) {
    put_list(w, pages, |w, (p, needed, have)| {
        w.put_varint(p.0.into());
        put_vt(w, needed);
        put_have(w, have.as_ref());
    });
}

/// Decode the page list of a fetch request.
#[allow(clippy::type_complexity)]
pub fn get_page_needs(
    r: &mut ByteReader,
) -> Result<Vec<(PageId, VectorClock, Option<Have>)>, CodecError> {
    get_list(r, 3, |r| Ok((get_page(r)?, get_vt(r)?, get_have(r)?)))
}

/// Encode a list of whole page copies, `(page, version, bytes)`: what a
/// many-page reply was before its pages had bodies ([`put_page_body`]). No
/// message has this layout any more; perfbench's
/// `wire.page_copies_encode_ns` probe still times it as the cost of
/// putting sixteen pages on a wire.
pub fn put_page_copies(w: &mut ByteWriter, pages: &[(PageId, VectorClock, Arc<[u8]>)]) {
    put_list(w, pages, |w, (p, version, bytes)| {
        w.put_varint(p.0.into());
        w.put_varint(bytes.len() as u64);
        put_vt(w, version);
        w.put_raw(bytes);
    });
}

/// Encode a write notice: interval proc and seq, then its pages.
fn put_wn(w: &mut ByteWriter, wn: &WriteNotice) {
    put_varints(w, &[wn.interval.proc as u64, wn.interval.seq.into()]);
    put_pages(w, &wn.pages);
}

/// Decode a write notice.
fn get_wn(r: &mut ByteReader) -> Result<WriteNotice, CodecError> {
    let interval = get_interval(r)?;
    let pages = get_pages(r)?;
    Ok(WriteNotice { interval, pages })
}

fn get_interval(r: &mut ByteReader) -> Result<Interval, CodecError> {
    let proc_ = get_u32(r, "interval proc")? as usize;
    let seq = get_u32(r, "interval seq")?;
    Ok(Interval { proc: proc_, seq })
}

/// Encode a notice list, what a lock grant, a barrier arrival and a barrier
/// release carry alike: a count, then per notice what [`put_wn`] writes.
pub fn put_wn_delta(w: &mut ByteWriter, d: &WnDelta) {
    w.put_varint(d.len() as u64);
    d.iter().for_each(|wn| put_wn(w, wn));
}

/// Decode a notice list (a notice is at least its interval and its page
/// count).
pub fn get_wn_delta(r: &mut ByteReader) -> Result<WnDelta, CodecError> {
    Ok(get_list(r, 3, get_wn)?.into())
}

/// Encode a write-notice log entry: its interval seq, then its pages.
pub(crate) fn put_wn_entry(w: &mut ByteWriter, e: &WnLogEntry) {
    w.put_varint(e.seq.into());
    put_pages(w, &e.pages);
}

/// Decode a write-notice log entry.
pub(crate) fn get_wn_entry(r: &mut ByteReader) -> Result<WnLogEntry, CodecError> {
    let seq = get_u32(r, "notice seq")?;
    let pages = get_pages(r)?;
    Ok(WnLogEntry { seq, pages })
}

/// Encode a diff-log entry: the diff, then `diff.T`.
pub(crate) fn put_entry(w: &mut ByteWriter, e: &DiffLogEntry) {
    put_diff(w, &e.diff);
    put_vt(w, &e.t);
}

/// Decode a diff-log entry.
pub(crate) fn get_entry(r: &mut ByteReader) -> Result<DiffLogEntry, CodecError> {
    let diff = Arc::new(get_diff(r)?);
    let t = get_vt(r)?;
    Ok(DiffLogEntry { diff, t })
}

/// A diff-log entry is at least a diff's four varints and a clock's count.
pub(crate) fn get_entries(r: &mut ByteReader) -> Result<Vec<DiffLogEntry>, CodecError> {
    get_list(r, 5, get_entry)
}

fn put_rel(w: &mut ByteWriter, e: &RelEntry) {
    put_varints(w, &[e.acq_seq, e.lock as u64, e.gen]);
    put_vt(w, &e.req_vt);
    put_vt(w, &e.t_after);
}

fn get_rel(r: &mut ByteReader) -> Result<RelEntry, CodecError> {
    Ok(RelEntry {
        acq_seq: r.get_varint()?,
        lock: get_usize(r)?,
        gen: r.get_varint()?,
        req_vt: get_vt(r)?,
        t_after: get_vt(r)?,
    })
}

fn put_bar(w: &mut ByteWriter, e: &BarEntry) {
    w.put_varint(e.episode);
    put_vt(w, &e.result_vt);
}

fn get_bar(r: &mut ByteReader) -> Result<BarEntry, CodecError> {
    Ok(BarEntry {
        episode: r.get_varint()?,
        result_vt: get_vt(r)?,
    })
}

/// Encode a checkpoint stamp: its seq and episode, then `T_ckp`.
fn put_stamp(w: &mut ByteWriter, s: &CkptStamp) {
    put_varints(w, &[s.seq, s.episode]);
    put_vt(w, &s.tckp);
}

fn get_stamp(r: &mut ByteReader) -> Result<CkptStamp, CodecError> {
    Ok(CkptStamp {
        seq: r.get_varint()?,
        episode: r.get_varint()?,
        tckp: get_vt(r)?,
    })
}

/// Encode the fault-tolerance piggyback: the sender's stamp, the `p0.v`
/// hints, then the gossip table.
pub(crate) fn put_piggy(w: &mut ByteWriter, p: &Piggy) {
    put_stamp(w, &p.stamp);
    put_list(w, &p.p0v, |w, (page, v)| {
        put_varints(w, &[page.0.into(), (*v).into()])
    });
    put_list(w, &p.table, |w, (proc_, stamp)| {
        w.put_varint(*proc_ as u64);
        put_stamp(w, stamp);
    });
}

/// Decode the fault-tolerance piggyback.
pub(crate) fn get_piggy(r: &mut ByteReader) -> Result<Piggy, CodecError> {
    Ok(Piggy {
        stamp: get_stamp(r)?,
        p0v: get_list(r, 2, |r| Ok((get_page(r)?, get_u32(r, "p0.v")?)))?,
        table: get_list(r, 4, |r| Ok((get_usize(r)?, get_stamp(r)?)))?,
    })
}

/// Tag bit: the other direction's push list follows the payload — an
/// arrival's pushed pages, a release's relayed report of used copies. An
/// arrival or release that carries neither costs no byte for it.
const RELAY: u8 = 0x10;
/// Tag bit: a trace context follows the tag (the message was traced).
const TRACED: u8 = 0x20;
/// Tag bit: a piggyback follows the payload.
const PIGGY: u8 = 0x40;
/// Tag bit: a diff batch follows the payload (a barrier arrival's or
/// release's).
pub(crate) const BATCH: u8 = 0x80;

/// The kind half of a message's tag byte, its low four bits. Tags 4 to 6
/// are retired (they were the diff ack's and the heartbeat's) and decode as
/// an error.
fn kind_tag(payload: &Payload) -> u8 {
    match payload {
        Payload::LockAcq { .. } => 0,
        Payload::LockForward { .. } => 1,
        Payload::LockGrant { .. } => 2,
        Payload::DiffBatch { .. } => 3,
        Payload::BarrierArrive { .. } => 7,
        Payload::BarrierRelease { .. } => 8,
        Payload::PageReq { .. } => 9,
        Payload::PageReply { .. } => 10,
        Payload::RecLogReq { .. } => 11,
        Payload::RecLogReply { .. } => 12,
        Payload::RecPageReq { .. } => 13,
        Payload::RecPageReply { .. } => 14,
    }
}

/// Encode a message: [`put_base`], then the piggyback.
pub fn put_msg(w: &mut ByteWriter, m: &Msg) {
    put_base(w, m);
    if let Some(p) = &m.piggy {
        put_piggy(w, p);
    }
}

/// Encode the base-protocol part of a message: tag, trace context (only
/// when stamped), payload, a relayed list and a carried batch — everything
/// but the piggyback.
pub(crate) fn put_base(w: &mut ByteWriter, m: &Msg) {
    let batch = m.payload.carried();
    let relayed = match &m.payload {
        Payload::BarrierArrive { pushed, .. } => !pushed.is_empty(),
        Payload::BarrierRelease { used, .. } => !used.is_empty(),
        _ => false,
    };
    let traced = m.ctx.is_stamped();
    let flags = (TRACED * traced as u8)
        | (PIGGY * m.piggy.is_some() as u8)
        | (BATCH * batch.is_some() as u8)
        | (RELAY * relayed as u8);
    w.put_u8(kind_tag(&m.payload) | flags);
    if traced {
        put_ctx(w, &m.ctx);
    }
    match &m.payload {
        Payload::LockAcq { lock, acq_seq, vt } => {
            put_varints(w, &[*lock as u64, *acq_seq]);
            put_vt(w, vt);
        }
        Payload::LockForward {
            lock,
            requester,
            acq_seq,
            gen,
            pred_acq,
            vt,
        } => {
            // The chain start, `u64::MAX`, is one byte.
            let pred = pred_acq.wrapping_add(1);
            put_varints(w, &[*lock as u64, *requester as u64, *acq_seq, *gen, pred]);
            put_vt(w, vt);
        }
        Payload::LockGrant {
            lock,
            acq_seq,
            gen,
            vt,
            wns,
            pushed,
        } => {
            put_varints(w, &[*lock as u64, *acq_seq, *gen]);
            put_vt(w, vt);
            put_wn_delta(w, wns);
            put_pushed(w, pushed);
        }
        Payload::DiffBatch { diffs } => put_diffs(w, diffs),
        Payload::BarrierArrive {
            episode,
            vt,
            own_wns,
            used,
            pushed,
            ..
        } => {
            w.put_varint(*episode);
            put_vt(w, vt);
            put_wn_delta(w, own_wns);
            put_used(w, used);
            if relayed {
                put_pushed(w, pushed);
            }
        }
        Payload::BarrierRelease {
            episode,
            vt,
            wns,
            pushed,
            used,
            ..
        } => {
            w.put_varint(*episode);
            put_vt(w, vt);
            put_wn_delta(w, wns);
            put_pushed(w, pushed);
            if relayed {
                put_used(w, used);
            }
        }
        Payload::PageReq { pages, req_id } => {
            w.put_varint(*req_id);
            put_page_needs(w, pages);
        }
        Payload::PageReply { req_id, pages } => {
            w.put_varint(*req_id);
            put_list(w, pages, |w, (page, version, body)| {
                w.put_varint(page.0.into());
                put_vt(w, version);
                put_page_body(w, body);
            });
        }
        Payload::RecLogReq { homed } => put_list(w, homed, |w, (page, v)| {
            put_varints(w, &[page.0.into(), (*v).into()])
        }),
        Payload::RecLogReply {
            wn,
            rel_for_you,
            acq_mirror,
            bar,
            lock_chains,
            gen_floor,
            applied_of_you,
            diffs,
            wanted,
        } => {
            put_list(w, wn, put_wn_entry);
            put_list(w, rel_for_you, put_rel);
            put_list(w, acq_mirror, put_rel);
            put_list(w, bar, put_bar);
            put_list(w, lock_chains, |w, &(lock, gen, grantee, acq, granter)| {
                let granter = granter.map_or(0, |g| g as u64 + 1);
                put_varints(w, &[lock as u64, gen, grantee as u64, acq, granter]);
            });
            put_list(w, gen_floor, |w, &(lock, gen)| {
                put_varints(w, &[lock as u64, gen])
            });
            w.put_varint((*applied_of_you).into());
            put_list(w, diffs, put_entry);
            put_pages(w, wanted);
        }
        Payload::RecPageReq { pages, tckp } => {
            put_pages(w, pages);
            put_vt(w, tckp);
        }
        Payload::RecPageReply { pages } => put_list(w, pages, |w, rp| {
            w.put_varint(rp.page.0.into());
            w.put_u8(rp.copy.is_some() as u8);
            if let Some((version, bytes)) = &rp.copy {
                put_vt(w, version);
                put_page_bytes(w, bytes);
            }
            put_list(w, &rp.entries, put_entry);
        }),
    }
    if let Some(diffs) = batch {
        put_diffs(w, diffs);
    }
}

/// Decode a message sent by `from`: the trace context's origin is the
/// sender, which the layout leaves out; an untraced message's is
/// [`TraceCtx::NONE`].
pub fn get_msg(r: &mut ByteReader, from: usize) -> Result<Msg, CodecError> {
    let tag = r.get_u8()?;
    let ctx = match tag & TRACED {
        0 => TraceCtx::NONE,
        _ => get_ctx(r, from as u32)?,
    };
    let mut payload = match tag & !(RELAY | TRACED | PIGGY | BATCH) {
        0 => Payload::LockAcq {
            lock: get_usize(r)?,
            acq_seq: r.get_varint()?,
            vt: get_vt(r)?,
        },
        1 => Payload::LockForward {
            lock: get_usize(r)?,
            requester: get_usize(r)?,
            acq_seq: r.get_varint()?,
            gen: r.get_varint()?,
            pred_acq: r.get_varint()?.wrapping_sub(1),
            vt: get_vt(r)?,
        },
        2 => Payload::LockGrant {
            lock: get_usize(r)?,
            acq_seq: r.get_varint()?,
            gen: r.get_varint()?,
            vt: get_vt(r)?,
            wns: get_wn_delta(r)?,
            pushed: get_pushed(r)?,
        },
        3 => Payload::DiffBatch {
            diffs: get_diffs(r)?,
        },
        7 => Payload::BarrierArrive {
            episode: r.get_varint()?,
            vt: get_vt(r)?,
            own_wns: get_wn_delta(r)?,
            used: get_used(r)?,
            pushed: Vec::new(),
            batch: None,
        },
        8 => Payload::BarrierRelease {
            episode: r.get_varint()?,
            vt: get_vt(r)?,
            wns: get_wn_delta(r)?,
            pushed: get_pushed(r)?,
            used: Vec::new(),
            batch: None,
        },
        9 => {
            let req_id = r.get_varint()?;
            let pages = get_page_needs(r)?;
            Payload::PageReq { pages, req_id }
        }
        10 => Payload::PageReply {
            req_id: r.get_varint()?,
            pages: get_list(r, 3, |r| Ok((get_page(r)?, get_vt(r)?, get_page_body(r)?)))?,
        },
        11 => Payload::RecLogReq {
            homed: get_list(r, 2, |r| Ok((get_page(r)?, get_u32(r, "p0.v")?)))?,
        },
        12 => Payload::RecLogReply {
            wn: get_list(r, 2, get_wn_entry)?,
            rel_for_you: get_list(r, 5, get_rel)?,
            acq_mirror: get_list(r, 5, get_rel)?,
            bar: get_list(r, 2, get_bar)?,
            lock_chains: get_list(r, 5, |r| {
                let (lock, gen, grantee, acq) = (
                    get_usize(r)?,
                    r.get_varint()?,
                    get_usize(r)?,
                    r.get_varint()?,
                );
                let granter = get_usize(r)?.checked_sub(1);
                Ok((lock, gen, grantee, acq, granter))
            })?,
            gen_floor: get_list(r, 2, |r| Ok((get_usize(r)?, r.get_varint()?)))?,
            applied_of_you: get_u32(r, "applied interval")?,
            diffs: get_entries(r)?,
            wanted: get_pages(r)?,
        },
        13 => Payload::RecPageReq {
            pages: get_pages(r)?,
            tckp: get_vt(r)?,
        },
        14 => Payload::RecPageReply {
            pages: get_list(r, 3, |r| {
                let page = get_page(r)?;
                let copy = match get_flag(r, "page copy")? {
                    false => None,
                    true => Some((get_vt(r)?, get_page_bytes(r)?.into())),
                };
                let entries = get_entries(r)?;
                Ok(RecPage {
                    page,
                    copy,
                    entries,
                })
            })?,
        },
        tag => {
            return Err(CodecError::BadTag {
                context: "message kind",
                tag,
            })
        }
    };
    if tag & RELAY != 0 {
        match &mut payload {
            Payload::BarrierArrive { pushed, .. } => *pushed = get_pushed(r)?,
            Payload::BarrierRelease { used, .. } => *used = get_used(r)?,
            _ => {
                let context = "relay carrier";
                return Err(CodecError::BadTag { context, tag });
            }
        }
    }
    if tag & BATCH != 0 {
        let Some(batch) = payload.batch_slot() else {
            return Err(CodecError::BadTag {
                context: "batch carrier",
                tag,
            });
        };
        *batch = Some(get_diffs(r)?);
    }
    let piggy = match tag & PIGGY {
        0 => None,
        _ => Some(get_piggy(r)?),
    };
    Ok(Msg {
        payload,
        piggy,
        ctx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_page::Page;
    use proptest::prelude::*;

    #[test]
    fn diff_roundtrip() {
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(8, &[1, 2, 3, 4, 5, 6, 7, 8]);
        cur.write(48, &[9; 8]);
        let d = Diff::create(PageId(3), Interval { proc: 2, seq: 7 }, &twin, &cur).unwrap();
        let mut w = ByteWriter::new();
        put_diff(&mut w, &d);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_diff(&mut r).unwrap(), d);
        assert!(r.is_exhausted());
    }

    /// A diff's encoding is its header varints followed by the run section
    /// it stores, byte for byte: `diff_fanin`'s 32 one-word runs, page 40,
    /// interval (1, 1000).
    #[test]
    fn a_diff_is_its_header_and_its_stored_section() {
        let (twin, mut cur) = (Page::zeroed(4096), Page::zeroed(4096));
        (0..32).for_each(|slot| cur.write(slot * 128 + 16 * (slot % 7), &[1; 8]));
        let d = Diff::create(PageId(40), Interval { proc: 1, seq: 1000 }, &twin, &cur).unwrap();
        let mut w = ByteWriter::new();
        put_diff(&mut w, &d);
        assert_eq!(w.into_bytes(), [&[40, 1, 0xE8, 0x07], d.section()].concat());
    }

    /// A count no input could hold sizes nothing: a diff header claiming
    /// `u64::MAX` runs, and a notice set claiming `u32::MAX` spans, end in
    /// the input's end.
    #[test]
    fn a_count_longer_than_its_input_is_eof_not_an_allocation() {
        let mut w = ByteWriter::new();
        for v in [3, 1, 7, u64::MAX] {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 3 + 10);
        let eof = |e| matches!(e, CodecError::UnexpectedEof { .. });
        assert!(get_diff(&mut ByteReader::new(&bytes)).is_err_and(eof));
        let mut w = ByteWriter::new();
        w.put_varint(u32::MAX.into());
        let spans = w.into_bytes();
        assert!(get_wn_delta(&mut ByteReader::new(&spans)).is_err_and(eof));
    }

    /// What the layout rules out is refused, not built: a header field past
    /// `u32`, a run whose gap or end in bytes is past `u32`, an empty run.
    #[test]
    fn a_field_past_u32_and_an_empty_run_are_refused() {
        let invalid = |e| matches!(e, CodecError::Invalid { .. });
        let big = u64::from(u32::MAX) + 1;
        for varints in [
            &[big, 1, 7, 0][..],
            &[3, big, 7, 0],
            &[3, 1, big, 0],
            &[3, 1, 7, 1, big / 8, 1],
            &[3, 1, 7, 1, 0, big / 8],
            &[3, 1, 7, 1, big / 8 - 1, 1],
            &[3, 1, 7, 1, 0, 0],
        ] {
            let mut w = ByteWriter::new();
            varints.iter().for_each(|&v| w.put_varint(v));
            w.put_raw(&[0; 16]);
            let bytes = w.into_bytes();
            let got = get_diff(&mut ByteReader::new(&bytes));
            assert!(got.is_err_and(invalid), "{varints:?}");
        }
    }

    /// What a page's layout rules out is refused, not sized: a length past
    /// the largest page (or whose bytes are past `u32`), and a run that ends
    /// past the length. The length counts words, so a page of cut words
    /// cannot be written at all. The largest page and a last-word run are
    /// accepted.
    #[test]
    fn a_page_past_the_largest_or_a_run_past_its_length_is_refused() {
        let decode = |varints: &[u64], raw: &[u8]| {
            let mut w = ByteWriter::new();
            varints.iter().for_each(|&v| w.put_varint(v));
            w.put_raw(raw);
            get_page_bytes(&mut ByteReader::new(&w.into_bytes()))
        };
        let invalid = |e| matches!(e, CodecError::Invalid { .. });
        let words = (MAX_PAGE_SIZE / PAGE_ALIGN_WORD) as u64;
        assert!(decode(&[words + 1, 0], &[]).is_err_and(invalid));
        assert!(decode(&[u64::from(u32::MAX) / 8 + 1, 0], &[]).is_err_and(invalid));
        assert!(decode(&[8, 1, 7, 2], &[1; 16]).is_err_and(invalid));
        assert!(decode(&[8, 1, 8, 1], &[1; 8]).is_err_and(invalid));
        assert_eq!(decode(&[words, 0], &[]).unwrap(), vec![0; MAX_PAGE_SIZE]);
        let mut last = vec![0; 64];
        last[56..].fill(1);
        assert_eq!(decode(&[8, 1, 7, 1], &[1; 8]).unwrap(), last);
    }

    /// The three shapes the layout was sized on: an all-zero 4 KiB page is
    /// its length and an empty run list (3 bytes), a fully non-zero one its
    /// bytes and one run (4,102), and `page_fetch`'s hot page, one non-zero
    /// word 200 words in, 14.
    #[test]
    fn a_zero_a_full_and_a_one_word_page_are_pinned() {
        let mut hot = vec![0u8; 4096];
        hot[1600..1608].fill(3);
        for (page, len) in [(vec![0u8; 4096], 3), (vec![1u8; 4096], 4096 + 6), (hot, 14)] {
            let mut w = ByteWriter::new();
            put_page_bytes(&mut w, &page);
            assert_eq!((w.len(), page_wire_size(&page)), (len, len));
        }
    }

    /// Every single byte of a batch's diff list, a `PageBody::Delta` and an
    /// appended log segment changed to each other value, and every cut of
    /// them, decodes to `Ok` or `Err`: hostile input never panics the
    /// decoder.
    #[test]
    fn no_changed_byte_or_cut_panics_the_diff_decoders() {
        use crate::ft::logs::VolatileLogs;
        let diff = |page, seq, offsets: &[usize]| {
            let (twin, mut cur) = (Page::zeroed(2048), Page::zeroed(2048));
            offsets.iter().for_each(|&o| cur.write(o, &[seq as u8; 16]));
            let iv = Interval { proc: 1, seq };
            Arc::new(Diff::create(PageId(page), iv, &twin, &cur).unwrap())
        };
        // Varints of one byte and of two: page 300, seq 200, a gap of 128.
        let diffs = vec![diff(3, 4, &[8, 64]), diff(300, 200, &[1024, 2000])];
        let mut w = ByteWriter::new();
        put_diffs(&mut w, &diffs);
        let batch = w.into_bytes();
        let get_batch = |bytes: &[u8]| get_diffs(&mut ByteReader::new(bytes));
        let mut w = ByteWriter::new();
        put_page_body(&mut w, &PageBody::Delta(diffs.clone()));
        let body = w.into_bytes();
        // An appended log segment: its bounds record names the notice and
        // both pages the first save wrote, and its entries are the second
        // interval's.
        let mut logs = VolatileLogs::new(1, 2);
        let t = |seq| VectorClock::from_vec(vec![3, seq]);
        logs.log_interval(4, vec![PageId(3)], &t(4), &diffs[..1]);
        logs.save(4);
        logs.log_interval(200, vec![PageId(300)], &t(200), &diffs[1..]);
        let save = logs.save(200).bytes;
        fn every_cut_errs_and_no_changed_byte_panics(
            bytes: &[u8],
            decodes: impl Fn(&[u8]) -> bool,
        ) {
            assert!(decodes(bytes));
            for len in 0..bytes.len() {
                assert!(!decodes(&bytes[..len]), "cut at {len}");
            }
            let mut changed = bytes.to_vec();
            for i in 0..bytes.len() {
                for v in (0..=u8::MAX).filter(|&v| v != bytes[i]) {
                    changed[i] = v;
                    decodes(&changed);
                }
                changed[i] = bytes[i];
            }
        }
        every_cut_errs_and_no_changed_byte_panics(&batch, |b| get_batch(b).is_ok());
        every_cut_errs_and_no_changed_byte_panics(&body, |b| {
            get_page_body(&mut ByteReader::new(b)).is_ok()
        });
        every_cut_errs_and_no_changed_byte_panics(&save, |b| {
            VolatileLogs::new(1, 2).restore([b], 200).is_ok()
        });
    }

    /// Every strict prefix of an encoded diff list and of a `PageReply`
    /// body, full or delta, is an `Err`, never a panic.
    #[test]
    fn every_truncation_of_a_diff_batch_or_a_page_body_is_an_error() {
        let diff = |seq: u32, words: usize| {
            let (twin, mut cur) = (Page::zeroed(256), Page::zeroed(256));
            cur.write(8, &vec![seq as u8; 8 * words]);
            cur.write(128, &[1; 8]);
            Arc::new(Diff::create(PageId(3), Interval { proc: 1, seq }, &twin, &cur).unwrap())
        };
        let diffs = vec![diff(4, 1), diff(5, 3)];
        let mut w = ByteWriter::new();
        put_diffs(&mut w, &diffs);
        let batch = w.into_bytes();
        let get_batch = |bytes: &[u8]| get_diffs(&mut ByteReader::new(bytes));
        assert_eq!(get_batch(&batch).unwrap(), diffs);
        for len in 0..batch.len() {
            assert!(get_batch(&batch[..len]).is_err(), "batch cut at {len}");
        }
        let full = PageBody::Full {
            bytes: vec![7u8; 256].into(),
            base: 2,
        };
        for body in [full, PageBody::Delta(diffs)] {
            let mut w = ByteWriter::new();
            put_page_body(&mut w, &body);
            let bytes = w.into_bytes();
            assert_eq!(get_page_body(&mut ByteReader::new(&bytes)).unwrap(), body);
            for len in 0..bytes.len() {
                let cut = get_page_body(&mut ByteReader::new(&bytes[..len]));
                assert!(cut.is_err(), "body cut at {len}");
            }
        }
    }

    /// A report of two used copies, and the two pages a push answers it
    /// with: a delta and a whole page.
    fn used_and_pushed() -> (Vec<(PageId, Have)>, Vec<Pushed>) {
        let vt = |v: &[u32]| VectorClock::from_vec(v.to_vec());
        let used = vec![
            (PageId(3), (1, vt(&[2, 0]))),
            (PageId(400), (7, vt(&[300, 1]))),
        ];
        let (twin, mut cur) = (Page::zeroed(256), Page::zeroed(256));
        cur.write(64, &[9; 16]);
        let iv = Interval { proc: 0, seq: 3 };
        let diff = Arc::new(Diff::create(PageId(3), iv, &twin, &cur).unwrap());
        let pushed = vec![
            Pushed {
                page: PageId(3),
                base: (1, vt(&[2, 0])),
                version: vt(&[3, 0]),
                body: PageBody::Delta(vec![diff]),
            },
            Pushed {
                page: PageId(400),
                base: (7, vt(&[300, 1])),
                version: vt(&[301, 1]),
                body: PageBody::Full {
                    bytes: cur.share(),
                    base: 7,
                },
            },
        ];
        (used, pushed)
    }

    fn encode(put: &dyn Fn(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put(&mut w);
        w.into_bytes()
    }

    /// Every strict prefix of `bytes` fails to decode, and every byte of it
    /// set to every other value decodes to `Ok` or `Err`: never a panic.
    fn no_cut_or_byte_panics<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, CodecError>) {
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "cut at {len}");
        }
        let mut changed = bytes.to_vec();
        for i in 0..bytes.len() {
            for v in (0..=u8::MAX).filter(|&v| v != bytes[i]) {
                changed[i] = v;
                let _ = decode(&changed);
            }
            changed[i] = bytes[i];
        }
    }

    /// An arrival's report of used copies and a grant's pushed pages round
    /// trip; every strict prefix of either list, and every byte of it set
    /// to every other value, decodes to `Ok` or `Err`, never a panic.
    #[test]
    fn used_reports_and_pushed_pages_roundtrip_and_no_cut_or_byte_panics() {
        let (used, pushed) = used_and_pushed();
        let used_bytes = encode(&|w| put_used(w, &used));
        let pushed_bytes = encode(&|w| put_pushed(w, &pushed));
        // Count; page, incarnation, clock (count and entries) a report.
        assert_eq!(&used_bytes[..6], [2, 3, 1, 2, 2, 0]);
        assert_eq!(get_used(&mut ByteReader::new(&used_bytes)).unwrap(), used);
        let got = get_pushed(&mut ByteReader::new(&pushed_bytes)).unwrap();
        assert_eq!(got, pushed);
        no_cut_or_byte_panics(&used_bytes, |b| get_used(&mut ByteReader::new(b)));
        no_cut_or_byte_panics(&pushed_bytes, |b| get_pushed(&mut ByteReader::new(b)));
    }

    /// A home's arrival pushing pages to the manager and the manager's
    /// release relaying its report: each list follows the payload behind
    /// the tag's relay bit, and is all the message grows by; both round
    /// trip, and no cut or changed byte panics the decoder. A kind that
    /// carries no such list is refused with the bit set.
    #[test]
    fn an_arrivals_pushes_and_a_releases_relayed_report_ride_behind_the_relay_bit() {
        let (used, pushed) = used_and_pushed();
        let vt = || VectorClock::from_vec(vec![4, 2]);
        let arrival = |pushed| Payload::BarrierArrive {
            episode: 4,
            vt: vt(),
            own_wns: WnDelta::empty(),
            used: Vec::new(),
            pushed,
            batch: None,
        };
        let release = |used| Payload::BarrierRelease {
            episode: 4,
            vt: vt(),
            wns: WnDelta::empty(),
            pushed: Vec::new(),
            used,
            batch: None,
        };
        let cases = [
            (
                arrival(pushed.clone()),
                arrival(Vec::new()),
                encode(&|w| put_pushed(w, &pushed)),
            ),
            (
                release(used.clone()),
                release(Vec::new()),
                encode(&|w| put_used(w, &used)),
            ),
        ];
        for (with, without, list) in cases {
            let (with, without) = (Msg::bare(with), Msg::bare(without));
            let bytes = encode(&|w| put_msg(w, &with));
            let plain = encode(&|w| put_msg(w, &without));
            assert_eq!(plain[0] & RELAY, 0);
            let tag = [plain[0] | RELAY];
            assert_eq!(bytes, [&tag[..], &plain[1..], &list].concat());
            assert_eq!(get_msg(&mut ByteReader::new(&bytes), 0).unwrap(), with);
            no_cut_or_byte_panics(&bytes, |b| get_msg(&mut ByteReader::new(b), 0));
        }
        let acq = Payload::LockAcq {
            lock: 1,
            acq_seq: 2,
            vt: vt(),
        };
        let mut bytes = encode(&|w| put_msg(w, &Msg::bare(acq.clone())));
        bytes[0] |= RELAY;
        assert!(get_msg(&mut ByteReader::new(&bytes), 0).is_err());
    }

    #[test]
    fn diff_encoded_length_equals_wire_size() {
        // Multi-run diff: the accounting model and the codec must agree
        // byte-for-byte, or paper traffic tables drift from reality.
        let twin = Page::zeroed(256);
        let mut cur = twin.clone();
        cur.write(0, &[1; 8]);
        cur.write(32, &[2; 24]);
        cur.write(248, &[3; 8]);
        let d = Diff::create(PageId(9), Interval { proc: 1, seq: 5 }, &twin, &cur).unwrap();
        assert_eq!(d.run_count(), 3);
        let mut w = ByteWriter::new();
        put_diff(&mut w, &d);
        assert_eq!(w.len(), d.wire_size());

        // Single-run diff too (different header/payload ratio).
        let mut cur1 = twin.clone();
        cur1.write(64, &[7; 8]);
        let d1 = Diff::create(PageId(0), Interval { proc: 0, seq: 1 }, &twin, &cur1).unwrap();
        let mut w1 = ByteWriter::new();
        put_diff(&mut w1, &d1);
        assert_eq!(w1.len(), d1.wire_size());
    }

    #[test]
    fn wn_and_vt_roundtrip() {
        let wn = WriteNotice {
            interval: Interval { proc: 1, seq: 9 },
            pages: vec![PageId(0), PageId(4)],
        };
        let vt = VectorClock::from_vec(vec![3, 1, 4]);
        let mut w = ByteWriter::new();
        put_wn(&mut w, &wn);
        put_vt(&mut w, &vt);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_wn(&mut r).unwrap(), wn);
        assert_eq!(get_vt(&mut r).unwrap(), vt);
    }

    #[test]
    fn wn_delta_roundtrips_and_is_one_byte_a_small_field() {
        let d = WnDelta::from(vec![
            WriteNotice {
                interval: Interval { proc: 0, seq: 3 },
                pages: vec![PageId(1), PageId(7)],
            },
            WriteNotice {
                interval: Interval { proc: 2, seq: 1 },
                pages: vec![],
            },
        ]);
        let mut w = ByteWriter::new();
        put_wn_delta(&mut w, &d);
        // Count, then per notice proc, seq, page count and one byte a page.
        assert_eq!(w.len(), 1 + (3 + 2) + 3);
        assert_eq!(w.len(), len_of(|w| put_wn_delta(w, &d)));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_wn_delta(&mut r).unwrap(), d);
        assert!(r.is_exhausted());
    }

    /// A lock grant, a barrier arrival and a barrier release that carry the
    /// same two notices end in the same list bytes, and decode back through
    /// the one list decoder.
    #[test]
    fn grants_arrivals_and_releases_encode_one_notice_list() {
        let wns = || {
            WnDelta::from(vec![
                WriteNotice {
                    interval: Interval { proc: 2, seq: 5 },
                    pages: vec![PageId(3), PageId(200)],
                },
                WriteNotice {
                    interval: Interval { proc: 2, seq: 6 },
                    pages: vec![PageId(3)],
                },
            ])
        };
        // Count; per notice proc, seq, page count, pages (200 is two bytes).
        let list = [2, 2, 5, 2, 3, 0xC8, 0x01, 2, 6, 1, 3];
        let mut w = ByteWriter::new();
        put_wn_delta(&mut w, &wns());
        assert_eq!(w.into_bytes(), list);
        let vt = || VectorClock::from_vec(vec![1, 0, 6]);
        // Tag and the kind's header fields: an untraced message has no
        // context.
        let kinds = [
            (
                Payload::LockGrant {
                    lock: 1,
                    acq_seq: 2,
                    gen: 3,
                    vt: vt(),
                    wns: wns(),
                    pushed: Vec::new(),
                },
                &[2, 1, 2, 3, 3, 1, 0, 6][..],
            ),
            (
                Payload::BarrierArrive {
                    episode: 4,
                    vt: vt(),
                    own_wns: wns(),
                    batch: None,
                    used: Vec::new(),
                    pushed: Vec::new(),
                },
                &[7, 4, 3, 1, 0, 6],
            ),
            (
                Payload::BarrierRelease {
                    episode: 4,
                    vt: vt(),
                    wns: wns(),
                    pushed: Vec::new(),
                    used: Vec::new(),
                    batch: None,
                },
                &[8, 4, 3, 1, 0, 6],
            ),
        ];
        // The notices, then an empty list of used or pushed pages: one
        // count byte.
        for (payload, header) in kinds {
            let msg = Msg::bare(payload);
            let mut w = ByteWriter::new();
            put_msg(&mut w, &msg);
            let bytes = w.into_bytes();
            assert_eq!(bytes, [header, &list[..], &[0]].concat());
            let got = get_msg(&mut ByteReader::new(&bytes), 0).unwrap();
            assert_eq!(got.payload, msg.payload);
        }
    }

    /// The tag's bit 5 says whether a context follows: an untraced
    /// message has none, a traced one's follows the tag, and a context
    /// whose seq is 0 (no stamp) is refused.
    #[test]
    fn a_context_is_on_the_wire_only_when_the_tag_says_so() {
        let pages = Vec::new();
        let req = Msg::bare(Payload::PageReq { pages, req_id: 9 });
        let mut w = ByteWriter::new();
        put_msg(&mut w, &req);
        assert_eq!(w.into_bytes(), [9, 9, 0]);
        let decode = |bytes: &[u8]| get_msg(&mut ByteReader::new(bytes), 3);
        assert_eq!(decode(&[9, 9, 0]).unwrap(), req);
        let traced = decode(&[9 | TRACED, 1, 0, 9, 0]).unwrap();
        let ctx = TraceCtx {
            origin: 3,
            seq: 1,
            ..TraceCtx::NONE
        };
        assert_eq!(traced.ctx, ctx);
        assert!(decode(&[9 | TRACED, 0, 0, 9, 0]).is_err());
    }

    /// A clock is its entry count and one varint an entry: eight small
    /// entries are 9 bytes (32 at four bytes an entry), and a length-only
    /// writer counts what a storing one writes.
    #[test]
    fn a_clock_is_a_count_and_a_varint_an_entry() {
        let small = VectorClock::from_vec(vec![3, 0, 17, 127, 1, 9, 64, 2]);
        let mut w = ByteWriter::new();
        put_vt(&mut w, &small);
        assert_eq!((w.len(), len_of(|w| put_vt(w, &small))), (9, 9));
        let big = VectorClock::from_vec(vec![128, u32::MAX]);
        assert_eq!(len_of(|w| put_vt(w, &big)), 1 + 2 + 5);
        // An entry past `u32` is refused.
        let mut w = ByteWriter::new();
        w.put_varint(1);
        w.put_varint(u64::from(u32::MAX) + 1);
        let bytes = w.into_bytes();
        let invalid = |e| matches!(e, CodecError::Invalid { .. });
        assert!(get_vt(&mut ByteReader::new(&bytes)).is_err_and(invalid));
    }

    proptest! {
        /// A clock whose entries are below 2^21 round-trips, and is never
        /// longer than four bytes an entry, the fixed layout it replaced.
        #[test]
        fn a_clock_roundtrips_and_never_exceeds_four_bytes_an_entry(
            entries in proptest::collection::vec(0u32..1 << 21, 1..64),
        ) {
            let vt = VectorClock::from_vec(entries);
            let mut w = ByteWriter::new();
            put_vt(&mut w, &vt);
            prop_assert!(w.len() <= 4 * vt.len());
            prop_assert_eq!(w.len(), len_of(|w| put_vt(w, &vt)));
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            prop_assert_eq!(get_vt(&mut r).unwrap(), vt);
            prop_assert!(r.is_exhausted());
        }

        /// On random 4 KiB pages — all zero, all non-zero, sparse, alternating
        /// words, a non-zero last word — a page round-trips exactly, its
        /// encoding is the length a length-only writer counts, and it is
        /// never longer than the raw page plus one run's header and the
        /// length (6 bytes at 512 words).
        #[test]
        fn a_page_roundtrips_is_counted_exactly_and_never_exceeds_one_run(
            shape in 0u8..5,
            words in proptest::collection::vec(any::<u64>(), 512),
            keep in proptest::collection::vec(0u8..8, 512),
        ) {
            let word = |i: usize| match shape {
                0 => 0,
                1 => words[i] | 1,
                2 => if keep[i] == 0 { words[i] } else { 0 },
                3 => (i as u64 % 2) * (words[i] | 1),
                _ => if i == 511 { words[i] | 1 } else if keep[i] == 0 { words[i] } else { 0 },
            };
            let page: Vec<u8> = (0..512).flat_map(|i| word(i).to_le_bytes()).collect();
            let mut w = ByteWriter::new();
            put_page_bytes(&mut w, &page);
            prop_assert_eq!(w.len(), len_of(|w| put_page_bytes(w, &page)));
            prop_assert!(w.len() <= page.len() + 6);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            prop_assert_eq!(get_page_bytes(&mut r).unwrap(), page);
            prop_assert!(r.is_exhausted());
        }

        /// On random pages and writes, a diff's encoding is `wire_size()`
        /// bytes, decodes to itself, and with page id and seq below 2^21 is
        /// never longer than fixed-width fields would be: 16 bytes a diff
        /// and 8 a run.
        #[test]
        fn a_diff_encodes_to_its_wire_size_and_never_above_the_fixed_layout(
            twin in proptest::collection::vec(any::<u8>(), 1024),
            writes in proptest::collection::vec((0usize..128, any::<u64>()), 1..200),
            page in 0u32..1 << 21,
            proc_ in 0usize..64,
            seq in 0u32..1 << 21,
        ) {
            let twin = Page::from_bytes(&twin);
            let mut cur = twin.clone();
            writes.iter().for_each(|&(word, v)| cur.write(8 * word, &v.to_le_bytes()));
            let iv = Interval { proc: proc_, seq };
            if let Some(d) = Diff::create(PageId(page), iv, &twin, &cur) {
                let mut w = ByteWriter::new();
                put_diff(&mut w, &d);
                prop_assert_eq!(w.len(), d.wire_size());
                let fixed = 16 + d.runs().map(|(_, b)| 8 + b.len()).sum::<usize>();
                prop_assert!(d.wire_size() <= fixed);
                let bytes = w.into_bytes();
                let mut r = ByteReader::new(&bytes);
                prop_assert_eq!(get_diff(&mut r).unwrap(), d);
                prop_assert!(r.is_exhausted());
            }
        }
    }
}
