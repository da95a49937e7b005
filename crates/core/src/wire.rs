//! Codec helpers for protocol and log types.
//!
//! These define the canonical encoded layout of the shared types; the wire
//! sizes reported by messages and log entries match these encodings.

use std::sync::Arc;

use dsm_page::{Diff, Interval, PageId, VectorClock, PAGE_ALIGN_WORD};
use dsm_storage::{ByteReader, ByteWriter, CodecError};
use dsm_trace::TraceCtx;
use hlrc::{Have, PageBody, WnDelta, WnSpan, WriteNotice};

/// Encode a trace context: origin (16 bits) and seq (48 bits) packed into
/// one word, then the parent flow id — exactly the 16 bytes
/// [`TraceCtx::WIRE_SIZE`] charges. The measurement-only fields
/// (`sent_at_ns`, `chaos_delay_ns`) are deliberately not encoded: a real
/// network stack would derive them from NIC timestamps, so the wire model
/// does not charge for them.
pub fn put_ctx(w: &mut ByteWriter, ctx: &TraceCtx) {
    w.put_u64(((ctx.origin as u64) << 48) | (ctx.seq & 0xFFFF_FFFF_FFFF));
    w.put_u64(ctx.parent);
}

/// Decode a trace context (measurement fields come back zeroed).
pub fn get_ctx(r: &mut ByteReader) -> Result<TraceCtx, CodecError> {
    let packed = r.get_u64()?;
    let parent = r.get_u64()?;
    Ok(TraceCtx {
        origin: (packed >> 48) as u32,
        seq: packed & 0xFFFF_FFFF_FFFF,
        parent,
        sent_at_ns: 0,
        chaos_delay_ns: 0,
    })
}

/// Encode a vector clock.
pub fn put_vt(w: &mut ByteWriter, vt: &VectorClock) {
    w.put_u32_slice(vt.as_slice());
}

/// Decode a vector clock.
pub fn get_vt(r: &mut ByteReader) -> Result<VectorClock, CodecError> {
    Ok(VectorClock::from_vec(r.get_u32_vec()?))
}

/// Encode a page-id list.
pub fn put_pages(w: &mut ByteWriter, pages: &[PageId]) {
    w.put_u64(pages.len() as u64);
    for p in pages {
        w.put_u32(p.0);
    }
}

/// Decode a page-id list.
pub fn get_pages(r: &mut ByteReader) -> Result<Vec<PageId>, CodecError> {
    Ok(r.get_u32_vec()?.into_iter().map(PageId).collect())
}

/// Encode a diff. The layout is exactly what [`Diff::wire_size`] charges:
/// page id, interval proc, interval seq and run count as LEB128 varints,
/// then per run its gap in words since the previous run's end and its length
/// in words as varints, then its raw bytes. A unit test below pins the
/// equality so traffic accounting can never silently diverge from the codec.
pub fn put_diff(w: &mut ByteWriter, d: &Diff) {
    w.reserve(d.wire_size());
    w.put_varint(d.page.0.into());
    w.put_varint(d.interval.proc as u64);
    w.put_varint(d.interval.seq.into());
    w.put_varint(d.run_count() as u64);
    let mut end = 0;
    for (offset, bytes) in d.runs() {
        w.put_varint(((offset - end) / PAGE_ALIGN_WORD) as u64);
        w.put_varint((bytes.len() / PAGE_ALIGN_WORD) as u64);
        w.put_raw(bytes);
        end = offset + bytes.len();
    }
}

/// Read a varint counting `unit`-byte units that must fit a `u32` in bytes.
fn get_u32_varint(r: &mut ByteReader, unit: u64, context: &'static str) -> Result<u32, CodecError> {
    let v = r.get_varint()?.checked_mul(unit);
    v.and_then(|v| u32::try_from(v).ok())
        .ok_or(CodecError::Invalid { context })
}

/// Decode a diff. Gaps cannot be negative, so its runs come out in order
/// and apart; a header field, or a run's gap or end in bytes, past `u32` is
/// refused, and so is an empty run.
pub fn get_diff(r: &mut ByteReader) -> Result<Diff, CodecError> {
    let page = PageId(get_u32_varint(r, 1, "diff page")?);
    let proc_ = get_u32_varint(r, 1, "diff proc")? as usize;
    let seq = get_u32_varint(r, 1, "diff seq")?;
    let nruns = r.get_varint()?;
    // A run is at least its two varints.
    let mut runs = Vec::with_capacity(r.capacity_for(nruns, 2));
    let (mut end, word) = (0u32, PAGE_ALIGN_WORD as u64);
    for _ in 0..nruns {
        let gap = get_u32_varint(r, word, "diff run gap")?;
        let len = get_u32_varint(r, word, "diff run length")?;
        let run_end = end.checked_add(gap).and_then(|o| o.checked_add(len));
        let invalid = CodecError::Invalid {
            context: "diff run",
        };
        end = run_end.filter(|_| len > 0).ok_or(invalid)?;
        runs.push((end - len, r.get_raw(len as usize)?));
    }
    Ok(Diff::from_runs(page, Interval { proc: proc_, seq }, runs))
}

/// Encode what a fetch says its requester kept: a presence byte, then the
/// home incarnation (4) and the length-prefixed version the kept copy is.
pub fn put_have(w: &mut ByteWriter, have: Option<&Have>) {
    w.put_u8(have.is_some() as u8);
    if let Some((incarnation, version)) = have {
        w.put_u32(*incarnation);
        put_vt(w, version);
    }
}

/// Decode what a fetch says its requester kept.
pub fn get_have(r: &mut ByteReader) -> Result<Option<Have>, CodecError> {
    Ok(match r.get_u8()? {
        0 => None,
        _ => Some((r.get_u32()?, get_vt(r)?)),
    })
}

/// Encode a fetch reply's body, exactly what [`PageBody::wire_size`]
/// charges: a tag byte, then base incarnation (4) + length (4) + the page
/// bytes, or a count (4) + that many diffs.
pub fn put_page_body(w: &mut ByteWriter, body: &PageBody) {
    match body {
        PageBody::Full { bytes, base } => {
            w.put_u8(0);
            w.put_u32(*base);
            w.put_u32(bytes.len() as u32);
            w.put_raw(bytes);
        }
        PageBody::Delta(diffs) => {
            w.put_u8(1);
            w.put_u32(diffs.len() as u32);
            diffs.iter().for_each(|d| put_diff(w, d));
        }
    }
}

/// Decode a fetch reply's body.
pub fn get_page_body(r: &mut ByteReader) -> Result<PageBody, CodecError> {
    if r.get_u8()? == 0 {
        let base = r.get_u32()?;
        let len = r.get_u32()? as usize;
        let bytes = r.get_raw(len)?.into();
        return Ok(PageBody::Full { bytes, base });
    }
    let diffs = (0..r.get_u32()?).map(|_| get_diff(r).map(Arc::new));
    Ok(PageBody::Delta(diffs.collect::<Result<_, _>>()?))
}

/// Encode the page list of a fetch request: `(page, needed, have)`.
///
/// Layout: count (4), then per page id (4) + length-prefixed needed clock +
/// what the requester kept. The accounting model (`Payload::wire_size`)
/// charges clocks at 4 bytes per entry without the length prefix — the
/// cluster size is implied on a real wire.
pub fn put_page_needs(w: &mut ByteWriter, pages: &[(PageId, VectorClock, Option<Have>)]) {
    w.put_u32(pages.len() as u32);
    for (p, needed, have) in pages {
        w.put_u32(p.0);
        put_vt(w, needed);
        put_have(w, have.as_ref());
    }
}

/// Decode the page list of a fetch request.
#[allow(clippy::type_complexity)]
pub fn get_page_needs(
    r: &mut ByteReader,
) -> Result<Vec<(PageId, VectorClock, Option<Have>)>, CodecError> {
    (0..r.get_u32()?)
        .map(|_| Ok((PageId(r.get_u32()?), get_vt(r)?, get_have(r)?)))
        .collect()
}

/// Encode a list of whole page copies, `(page, version, bytes)`: what a
/// many-page reply was before its pages had bodies ([`put_page_body`]). No
/// message has this layout any more; perfbench's
/// `wire.page_copies_encode_ns` probe still times it as the cost of
/// putting sixteen pages on a wire.
///
/// Layout: count (8), then per page id (4) + byte length (4) +
/// length-prefixed version clock + raw contents.
pub fn put_page_copies(w: &mut ByteWriter, pages: &[(PageId, VectorClock, Arc<[u8]>)]) {
    w.put_u64(pages.len() as u64);
    for (p, version, bytes) in pages {
        w.put_u32(p.0);
        w.put_u32(bytes.len() as u32);
        put_vt(w, version);
        w.put_raw(bytes);
    }
}

/// Encode a write notice.
pub fn put_wn(w: &mut ByteWriter, wn: &WriteNotice) {
    w.put_u32(wn.interval.proc as u32);
    w.put_u32(wn.interval.seq);
    put_pages(w, &wn.pages);
}

/// Decode a write notice.
pub fn get_wn(r: &mut ByteReader) -> Result<WriteNotice, CodecError> {
    let proc_ = r.get_u32()? as usize;
    let seq = r.get_u32()?;
    let pages = get_pages(r)?;
    Ok(WriteNotice {
        interval: Interval { proc: proc_, seq },
        pages,
    })
}

/// Encode an interval-delta notice set. Layout is what
/// [`WnDelta::wire_size`] charges: span count (4), then per span interval
/// proc (4) + seq (4) + page count (4) + page ids (4 each). The shared
/// arena is an in-memory artifact — on the wire each span carries its own
/// page ids, exactly like a `Vec<WriteNotice>` would.
pub fn put_wn_delta(w: &mut ByteWriter, d: &WnDelta) {
    w.put_u32(d.len() as u32);
    for (interval, pages) in d.iter() {
        w.put_u32(interval.proc as u32);
        w.put_u32(interval.seq);
        w.put_u32(pages.len() as u32);
        for p in pages {
            w.put_u32(p.0);
        }
    }
}

/// Decode an interval-delta notice set (rebuilds one shared arena).
pub fn get_wn_delta(r: &mut ByteReader) -> Result<WnDelta, CodecError> {
    let nspans = r.get_u32()?;
    let mut pages: Vec<PageId> = Vec::new();
    // An empty span is an interval and a page count.
    let mut spans = Vec::with_capacity(r.capacity_for(nspans.into(), 12));
    for _ in 0..nspans {
        let proc_ = r.get_u32()? as usize;
        let seq = r.get_u32()?;
        let count = r.get_u32()? as usize;
        let start = pages.len() as u32;
        for _ in 0..count {
            pages.push(PageId(r.get_u32()?));
        }
        spans.push(WnSpan::new(
            Interval { proc: proc_, seq },
            start,
            count as u32,
        ));
    }
    Ok(WnDelta::from_arena(pages.into(), spans))
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
        w.put_u32(u32::MAX);
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

    /// Every single byte of a `DiffBatch`, a `PageBody::Delta` and a stable
    /// log save changed to each other value, and every cut of them, decodes
    /// to `Ok` or `Err`: hostile input never panics the decoder.
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
        w.put_u8(0);
        w.put_u64(9);
        w.put_u64(diffs.len() as u64);
        diffs.iter().for_each(|d| put_diff(&mut w, d));
        let batch = w.into_bytes();
        let get_batch = |bytes: &[u8]| -> Result<Vec<Arc<Diff>>, CodecError> {
            let mut r = ByteReader::new(bytes);
            r.get_u8()?;
            r.get_u64()?;
            (0..r.get_u64()?)
                .map(|_| get_diff(&mut r).map(Arc::new))
                .collect()
        };
        let mut w = ByteWriter::new();
        put_page_body(&mut w, &PageBody::Delta(diffs.clone()));
        let body = w.into_bytes();
        let mut logs = VolatileLogs::new(1, 2);
        let t = VectorClock::from_vec(vec![3, 200]);
        logs.log_interval(200, vec![PageId(3), PageId(300)], &t, &diffs);
        let save = logs.encode_stable();
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
            VolatileLogs::new(1, 2).decode_stable_merge(b).is_ok()
        });
    }

    /// Every strict prefix of an encoded `DiffBatch` — tag, seq (8), count
    /// (8), the diffs — and of a `PageReply` body, full or delta, is an
    /// `Err`, never a panic.
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
        w.put_u8(0);
        w.put_u64(9);
        w.put_u64(diffs.len() as u64);
        diffs.iter().for_each(|d| put_diff(&mut w, d));
        let batch = w.into_bytes();
        let get_batch = |bytes: &[u8]| -> Result<Vec<Arc<Diff>>, CodecError> {
            let mut r = ByteReader::new(bytes);
            r.get_u8()?;
            r.get_u64()?;
            (0..r.get_u64()?)
                .map(|_| get_diff(&mut r).map(Arc::new))
                .collect()
        };
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
    fn batch_lists_roundtrip_and_layout_is_pinned() {
        let kept = (2, VectorClock::from_vec(vec![1, 0, 1]));
        let needs = vec![
            (PageId(3), VectorClock::from_vec(vec![1, 0, 2]), Some(kept)),
            (PageId(9), VectorClock::from_vec(vec![0, 5, 0]), None),
        ];
        let copies: Vec<(PageId, VectorClock, Arc<[u8]>)> = vec![
            (
                PageId(3),
                VectorClock::from_vec(vec![1, 0, 2]),
                vec![7u8; 64].into(),
            ),
            (
                PageId(9),
                VectorClock::from_vec(vec![0, 5, 0]),
                vec![8u8; 32].into(),
            ),
        ];
        let mut w = ByteWriter::new();
        put_page_needs(&mut w, &needs);
        // Pin: count (4) + per page id (4) + prefixed clock (8 + wire_size)
        // + have: a byte, then incarnation (4) and another prefixed clock.
        let needs_len: usize = 4
            + needs
                .iter()
                .map(|(_, v, _)| 4 + 8 + v.wire_size())
                .sum::<usize>()
            + (1 + 4 + 8 + 12)
            + 1;
        assert_eq!(w.len(), needs_len);
        put_page_copies(&mut w, &copies);
        let copies_len: usize = 8 + copies
            .iter()
            .map(|(_, v, b)| 8 + 8 + v.wire_size() + b.len())
            .sum::<usize>();
        assert_eq!(w.len(), needs_len + copies_len);

        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..needs_len]);
        assert_eq!(get_page_needs(&mut r).unwrap(), needs);
        assert!(r.is_exhausted());
    }

    /// The two fetch messages, encoded field by field in layout order
    /// (`Payload::wire_size` charges a tag byte first): the accounting model
    /// must equal the encoding, but for the 8-byte length prefix `put_vt`
    /// spends on each clock (the cluster size is implied on a real wire).
    #[test]
    fn fetch_layouts_roundtrip_and_wire_size_equals_the_encoding() {
        use crate::msg::Payload;
        let clock = |v: [u32; 3]| VectorClock::from_vec(v.to_vec());
        let diff = |seq, words: usize| {
            let (twin, mut cur) = (Page::zeroed(256), Page::zeroed(256));
            cur.write(8, &vec![seq as u8; 8 * words]);
            cur.write(128, &[1; 8]);
            Arc::new(Diff::create(PageId(3), Interval { proc: 1, seq }, &twin, &cur).unwrap())
        };
        let full = PageBody::Full {
            bytes: vec![7u8; 256].into(),
            base: 2,
        };
        let delta = PageBody::Delta(vec![diff(4, 1), diff(5, 3)]);
        let kept = Some((2, clock([1, 3, 0])));

        // Bodies: tag + base + length + bytes, or tag + count + diffs, each
        // four one-byte header varints, then per run two one-byte varints
        // and its bytes. A delta of everything a ring can hold is still
        // short of the page.
        for (body, len) in [
            (&full, 9 + 256),
            (&delta, 5 + (4 + 2 * 2 + 8 + 8) + (4 + 2 * 2 + 24 + 8)),
            (&PageBody::Delta(Vec::new()), 5),
        ] {
            let mut w = ByteWriter::new();
            put_page_body(&mut w, body);
            assert_eq!((w.len(), body.wire_size()), (len, len));
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&get_page_body(&mut r).unwrap(), body);
            assert!(r.is_exhausted());
        }
        // What the requester kept: one byte when nothing.
        for (have, len) in [(&None, 1), (&kept, 1 + 4 + 8 + 12)] {
            let mut w = ByteWriter::new();
            put_have(&mut w, have.as_ref());
            assert_eq!(w.len(), len);
            assert_eq!(
                &get_have(&mut ByteReader::new(&w.into_bytes())).unwrap(),
                have
            );
        }

        // A request: tag, id, then the page list. One page is the count's
        // four bytes over a bare (page, needed, have).
        let wanted = [
            (PageId(3), clock([1, 4, 0]), kept.clone()),
            (PageId(9), clock([0, 0, 0]), None),
        ];
        for (pages, clocks) in [(&wanted[..], 3), (&wanted[..1], 2), (&wanted[1..], 1)] {
            let mut w = ByteWriter::new();
            w.put_u8(0);
            w.put_u64(9);
            put_page_needs(&mut w, pages);
            let (pages, req_id) = (pages.to_vec(), 9);
            let req = Payload::PageReq { pages, req_id };
            assert_eq!(w.len(), req.wire_size() + 8 * clocks);
        }
        let one = |have| Payload::PageReq {
            pages: vec![(PageId(3), clock([1, 4, 0]), have)],
            req_id: 9,
        };
        assert_eq!(one(None).wire_size(), 1 + 8 + 4 + (4 + 12 + 1));
        assert_eq!(one(kept).wire_size() - one(None).wire_size(), 4 + 12);

        // A reply: tag, id, count (4), then per page id, version and body.
        let ready = [
            (PageId(3), clock([1, 5, 0]), delta),
            (PageId(9), clock([0, 0, 0]), full),
        ];
        for pages in [&ready[..], &ready[..1], &ready[1..]] {
            let mut w = ByteWriter::new();
            w.put_u8(0);
            w.put_u64(9);
            w.put_u32(pages.len() as u32);
            for (page, version, body) in pages {
                w.put_u32(page.0);
                put_vt(&mut w, version);
                put_page_body(&mut w, body);
            }
            let (clocks, pages, req_id) = (pages.len(), pages.to_vec(), 9);
            let reply = Payload::PageReply { req_id, pages };
            assert_eq!(w.len(), reply.wire_size() + 8 * clocks);
        }
    }

    /// What recovery grew — the handshake's `p0.v` list and diff entries,
    /// and the page reply's optional copy plus entries — encoded field by
    /// field in layout order, decoded back, and held against
    /// `Payload::wire_size` (which, as for the fetches, leaves out the 8-byte
    /// length prefix `put_vt` spends on each clock).
    #[test]
    fn recovery_layouts_roundtrip_and_wire_size_equals_the_encoding() {
        use crate::ft::logs::DiffLogEntry;
        use crate::msg::Payload;
        let clock = |v: [u32; 3]| VectorClock::from_vec(v.to_vec());
        let entry = |seq| {
            let (twin, mut cur) = (Page::zeroed(256), Page::zeroed(256));
            cur.write(16, &[seq as u8; 24]);
            let iv = Interval { proc: 1, seq };
            DiffLogEntry {
                diff: Arc::new(Diff::create(PageId(3), iv, &twin, &cur).unwrap()),
                t: clock([2, seq, 0]),
                saved: false,
            }
        };
        let put_entries = |w: &mut ByteWriter, es: &[DiffLogEntry]| {
            w.put_u32(es.len() as u32);
            for e in es {
                put_diff(w, &e.diff);
                put_vt(w, &e.t);
            }
        };
        let get_entries = |r: &mut ByteReader| -> Vec<DiffLogEntry> {
            (0..r.get_u32().unwrap())
                .map(|_| DiffLogEntry {
                    diff: Arc::new(get_diff(r).unwrap()),
                    t: get_vt(r).unwrap(),
                    saved: false,
                })
                .collect()
        };
        let entries = vec![entry(4), entry(7)];

        // Handshake request: tag, count, then (page, p0.v[receiver]) pairs.
        let homed = vec![(PageId(3), 6u32), (PageId(9), 0)];
        let mut w = ByteWriter::new();
        w.put_u8(0);
        w.put_u32(homed.len() as u32);
        for (p, v) in &homed {
            w.put_u32(p.0);
            w.put_u32(*v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[1..]);
        let back: Vec<_> = (0..r.get_u32().unwrap())
            .map(|_| (PageId(r.get_u32().unwrap()), r.get_u32().unwrap()))
            .collect();
        assert!(r.is_exhausted());
        assert_eq!(back, homed);
        assert_eq!(bytes.len(), Payload::RecLogReq { homed }.wire_size());

        // Handshake reply: the entries are what it grew by.
        let log_reply = |diffs| Payload::RecLogReply {
            wn: Vec::new(),
            rel_for_you: Vec::new(),
            acq_mirror: Vec::new(),
            bar: Vec::new(),
            bar_mgr: Vec::new(),
            lock_chains: Vec::new(),
            gen_floor: Vec::new(),
            applied_of_you: 0,
            diffs,
        };
        let mut w = ByteWriter::new();
        put_entries(&mut w, &entries);
        let grown = log_reply(entries.clone()).wire_size() - log_reply(Vec::new()).wire_size();
        assert_eq!(w.len(), 4 + grown + 8 * entries.len());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_entries(&mut r), entries);
        assert!(r.is_exhausted());

        // Page reply: tag, page, a presence byte and the copy, the entries.
        let kept: Arc<[u8]> = vec![7u8; 256].into();
        for copy in [Some((clock([2, 3, 0]), kept)), None] {
            let mut w = ByteWriter::new();
            w.put_u8(0);
            w.put_u32(3);
            w.put_u8(copy.is_some() as u8);
            if let Some((version, bytes)) = &copy {
                put_vt(&mut w, version);
                w.put_u32(bytes.len() as u32);
                w.put_raw(bytes);
            }
            put_entries(&mut w, &entries);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes[5..]);
            let back = (r.get_u8().unwrap() == 1).then(|| {
                let version = get_vt(&mut r).unwrap();
                let len = r.get_u32().unwrap() as usize;
                (version, Arc::from(r.get_raw(len).unwrap()))
            });
            assert_eq!(back, copy);
            assert_eq!(get_entries(&mut r), entries);
            assert!(r.is_exhausted());
            let clocks = entries.len() + copy.is_some() as usize;
            let reply = Payload::RecPageReply {
                page: PageId(3),
                copy,
                entries: entries.clone(),
            };
            assert_eq!(bytes.len(), reply.wire_size() + 8 * clocks);
        }
    }

    /// A barrier arrival, field by field in layout order: the tag byte,
    /// whose high bit says a batch follows, episode (8), the clock, the
    /// notice delta, then the batch as a `DiffBatch` lays it out after its
    /// tag — seq (8), count (8), the diffs.
    fn put_arrive(w: &mut ByteWriter, arrival: &crate::msg::Payload) {
        let crate::msg::Payload::BarrierArrive {
            episode,
            vt,
            own_wns,
            batch,
        } = arrival
        else {
            panic!("not an arrival")
        };
        w.put_u8(6 | (batch.is_some() as u8) << 7);
        w.put_u64(*episode);
        put_vt(w, vt);
        put_wn_delta(w, own_wns);
        if let Some((seq, diffs)) = batch {
            w.put_u64(*seq);
            w.put_u64(diffs.len() as u64);
            diffs.iter().for_each(|d| put_diff(w, d));
        }
    }

    fn get_arrive(bytes: &[u8]) -> Result<crate::msg::Payload, CodecError> {
        let mut r = ByteReader::new(bytes);
        let carries = r.get_u8()? & 0x80 != 0;
        let (episode, vt, own_wns) = (r.get_u64()?, get_vt(&mut r)?, get_wn_delta(&mut r)?);
        let batch = match carries {
            false => None,
            true => {
                let seq = r.get_u64()?;
                let diffs = (0..r.get_u64()?).map(|_| get_diff(&mut r).map(Arc::new));
                Some((seq, diffs.collect::<Result<_, _>>()?))
            }
        };
        let arrival = crate::msg::Payload::BarrierArrive {
            episode,
            vt,
            own_wns,
            batch,
        };
        Ok(arrival)
    }

    /// An arrival round-trips with and without a batch, `wire_size` is its
    /// encoding (but for the clock's 8-byte length prefix, as for every
    /// kind), one without a batch is the bytes an arrival always was, and
    /// every strict prefix of one with a batch is an `Err`, never a panic.
    #[test]
    fn an_arrival_with_and_without_a_batch_roundtrips_and_is_charged_its_encoding() {
        let diff = |page, seq: u32| {
            let (twin, mut cur) = (Page::zeroed(256), Page::zeroed(256));
            cur.write(8, &[seq as u8; 16]);
            cur.write(200, &[1; 8]);
            let iv = Interval { proc: 1, seq };
            Arc::new(Diff::create(PageId(page), iv, &twin, &cur).unwrap())
        };
        let notices = [WriteNotice {
            interval: Interval { proc: 1, seq: 4 },
            pages: vec![PageId(0), PageId(5)],
        }];
        let arrival = |batch| crate::msg::Payload::BarrierArrive {
            episode: 3,
            vt: VectorClock::from_vec(vec![2, 4, 1]),
            own_wns: WnDelta::from_notices(&notices),
            batch,
        };
        let bare = arrival(None);
        let carrying = arrival(Some((9, vec![diff(0, 4), diff(5, 4)])));
        for payload in [&bare, &carrying] {
            let mut w = ByteWriter::new();
            put_arrive(&mut w, payload);
            assert_eq!(w.len(), payload.wire_size() + 8);
            let bytes = w.into_bytes();
            assert_eq!(&get_arrive(&bytes).unwrap(), payload);
        }
        // Without a batch: tag, episode, clock, notices — as ever.
        let (mut w, mut old) = (ByteWriter::new(), ByteWriter::new());
        put_arrive(&mut w, &bare);
        old.put_u8(6);
        old.put_u64(3);
        put_vt(&mut old, &VectorClock::from_vec(vec![2, 4, 1]));
        put_wn_delta(&mut old, &WnDelta::from_notices(&notices));
        assert_eq!(w.into_bytes(), old.into_bytes());
        let notices_size = WnDelta::from_notices(&notices).wire_size();
        assert_eq!(bare.wire_size(), 1 + 8 + 3 * 4 + notices_size);
        let Some((_, diffs)) = carrying.carried() else {
            unreachable!()
        };
        let grown = carrying.wire_size() - bare.wire_size();
        assert_eq!(
            grown,
            16 + diffs.iter().map(|d| d.wire_size()).sum::<usize>()
        );
        // Every cut of the carrying one.
        let mut w = ByteWriter::new();
        put_arrive(&mut w, &carrying);
        let bytes = w.into_bytes();
        for len in 0..bytes.len() {
            assert!(get_arrive(&bytes[..len]).is_err(), "arrival cut at {len}");
        }
    }

    #[test]
    fn ctx_roundtrip_and_length_is_pinned() {
        let ctx = TraceCtx {
            origin: 3,
            seq: 0x1234_5678_9ABC,
            parent: 0xDEAD_BEEF_0000_0001,
            sent_at_ns: 999,     // not encoded
            chaos_delay_ns: 777, // not encoded
        };
        let mut w = ByteWriter::new();
        put_ctx(&mut w, &ctx);
        assert_eq!(w.len(), TraceCtx::WIRE_SIZE);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let got = get_ctx(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(got.origin, ctx.origin);
        assert_eq!(got.seq, ctx.seq);
        assert_eq!(got.parent, ctx.parent);
        assert_eq!(got.flow_id(), ctx.flow_id());
        // Measurement metadata does not survive the wire.
        assert_eq!(got.sent_at_ns, 0);
        assert_eq!(got.chaos_delay_ns, 0);
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
    fn wn_delta_roundtrip_and_length_equals_wire_size() {
        let d = WnDelta::from_notices(&[
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
        assert_eq!(w.len(), d.wire_size());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_wn_delta(&mut r).unwrap(), d);
        assert!(r.is_exhausted());
    }

    proptest! {
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
