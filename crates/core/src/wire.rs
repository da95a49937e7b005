//! The one encoded layout of every message, log entry and checkpoint clock.
//!
//! Every integer is an LEB128 varint; byte strings are raw after a varint
//! length. Each field type has one codec, its [`Wire`] impl, and each
//! message kind is declared once, in `msg.rs`'s [`payloads!`] list: its tag,
//! name and fields in wire order, from which its encoder and decoder come. A
//! message is a tag byte (its kind in the low four bits, bit 4 "a relayed
//! list follows the payload", bit 5 "a trace context follows", bit 6 "a
//! piggyback follows", bit 7 "a diff batch follows"), the trace context if
//! the message was traced, the payload, the relayed list, the batch and then
//! the piggyback. [`put_msg`] writes it and [`get_msg`] reads it back;
//! `Msg::base_wire_size`, `ft_wire_size` and `trace_wire_size` are the
//! lengths [`put_msg`] writes into a length-only [`ByteWriter`], so the
//! bytes a message is charged are its encoding by construction.

use std::sync::Arc;

use dsm_page::{
    page_wire_size, put_page, Diff, Interval, PageId, RunSection, VectorClock, MAX_PAGE_SIZE,
    PAGE_ALIGN_WORD,
};
use dsm_storage::{ByteReader, ByteWriter, CodecError};
use dsm_trace::TraceCtx;
use hlrc::{LockId, PageBody, WnDelta, WriteNotice};

use crate::msg::{ChainTail, Msg};

/// One field type's encoding: its only writer and its only reader.
pub(crate) trait Wire: Sized {
    /// The fewest bytes an encoding takes (never above its true smallest):
    /// a decoded count sizes a list only as far as the input left could
    /// hold items this small.
    const MIN: usize;
    /// Write `self`.
    fn put(&self, w: &mut ByteWriter);
    /// Read one back.
    fn get(r: &mut ByteReader) -> Result<Self, CodecError>;
}

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

/// Read a presence byte: 0 is absent, 1 present.
fn get_flag(r: &mut ByteReader, context: &'static str) -> Result<bool, CodecError> {
    match r.get_u8()? {
        tag @ 2.. => Err(CodecError::BadTag { context, tag }),
        b => Ok(b == 1),
    }
}

impl Wire for u64 {
    const MIN: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        w.put_varint(*self);
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        r.get_varint()
    }
}

/// A `u32` field: a varint past `u32` is refused.
impl Wire for u32 {
    const MIN: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        w.put_varint((*self).into());
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        get_u32_varint(r, 1, "varint past u32")
    }
}

/// A node or a lock.
impl Wire for usize {
    const MIN: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        w.put_varint(*self as u64);
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        let v = r.get_varint()?;
        usize::try_from(v).map_err(|_| CodecError::LengthOverflow { len: v })
    }
}

impl Wire for PageId {
    const MIN: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(PageId(get_u32_varint(r, 1, "page id")?))
    }
}

/// An interval: its proc, then its seq.
impl Wire for Interval {
    const MIN: usize = 2;
    fn put(&self, w: &mut ByteWriter) {
        self.proc.put(w);
        self.seq.put(w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        let proc_ = get_u32_varint(r, 1, "interval proc")? as usize;
        let seq = get_u32_varint(r, 1, "interval seq")?;
        Ok(Interval { proc: proc_, seq })
    }
}

/// A vector clock: its entry count, then the entries.
impl Wire for VectorClock {
    const MIN: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        put_list(w, self.as_slice());
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(VectorClock::from_vec(Vec::get(r)?))
    }
}

/// Write a list: its length, then each item.
pub(crate) fn put_list<T: Wire>(w: &mut ByteWriter, items: &[T]) {
    w.put_varint(items.len() as u64);
    items.iter().for_each(|item| item.put(w));
}

/// A list: its length, then its items. The count sizes the allocation only
/// as far as the input left could hold items of `T::MIN` bytes.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        put_list(w, self);
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        let n = r.get_varint()?;
        let mut items = Vec::with_capacity(r.capacity_for(n, T::MIN));
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// A presence byte, then the value when it is `1`.
impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(self.is_some() as u8);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(match get_flag(r, "presence byte")? {
            false => None,
            true => Some(T::get(r)?),
        })
    }
}

/// A tuple: its fields in order. What a copy is exactly, a [`hlrc::Have`],
/// is one: the home incarnation and the version, with no presence byte.
macro_rules! tuples {
    ($(($($t:ident)+))+) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN: usize = 0 $(+ $t::MIN)+;
            #[allow(non_snake_case)]
            fn put(&self, w: &mut ByteWriter) {
                let ($($t,)+) = self;
                $($t.put(w);)+
            }
            fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    )+};
}

tuples!((A B) (A B C) (A B C D E));

/// A diff ([`put_diff`]): at least its three header varints and its run
/// count.
impl Wire for Arc<Diff> {
    const MIN: usize = 4;
    fn put(&self, w: &mut ByteWriter) {
        put_diff(w, self);
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        get_diff(r).map(Arc::new)
    }
}

/// A shared buffer on the wire is a whole page ([`put_page_bytes`]): at
/// least its length and its run count.
impl Wire for Arc<[u8]> {
    const MIN: usize = 2;
    fn put(&self, w: &mut ByteWriter) {
        put_page_bytes(w, self);
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(get_page_bytes(r)?.into())
    }
}

/// A fetch reply's body: a byte `0`, the base incarnation and the page, or a
/// byte `1` and the diffs.
impl Wire for PageBody {
    const MIN: usize = 2;
    fn put(&self, w: &mut ByteWriter) {
        match self {
            PageBody::Full { bytes, base } => {
                w.put_u8(0);
                base.put(w);
                bytes.put(w);
            }
            PageBody::Delta(diffs) => {
                w.put_u8(1);
                diffs.put(w);
            }
        }
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(match get_flag(r, "page body")? {
            false => {
                let base = u32::get(r)?;
                let bytes = Arc::get(r)?;
                PageBody::Full { bytes, base }
            }
            true => PageBody::Delta(Vec::get(r)?),
        })
    }
}

/// A write notice: its interval, then its pages.
impl Wire for WriteNotice {
    const MIN: usize = Interval::MIN + 1;
    fn put(&self, w: &mut ByteWriter) {
        self.interval.put(w);
        self.pages.put(w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        let interval = Interval::get(r)?;
        let pages = Vec::get(r)?;
        Ok(WriteNotice { interval, pages })
    }
}

/// A notice list, what a lock grant, a barrier arrival and a barrier release
/// carry alike: a list of notices.
impl Wire for WnDelta {
    const MIN: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        w.put_varint(self.len() as u64);
        self.iter().for_each(|wn| wn.put(w));
    }
    fn get(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(Vec::<WriteNotice>::get(r)?.into())
    }
}

/// A struct whose encoding is its fields' in declaration order: the struct
/// is declared inside the macro, which implements [`Wire`] for it, so its
/// fields and its layout are written once.
macro_rules! wire_struct {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty,)*
        }
    )*) => {$(
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::wire::Wire for $name {
            const MIN: usize = 0 $(+ <$ty as $crate::wire::Wire>::MIN)*;
            fn put(&self, w: &mut ::dsm_storage::ByteWriter) {
                $($crate::wire::Wire::put(&self.$field, w);)*
            }
            fn get(
                r: &mut ::dsm_storage::ByteReader,
            ) -> Result<Self, ::dsm_storage::CodecError> {
                Ok($name {
                    $($field: $crate::wire::Wire::get(r)?,)*
                })
            }
        }
    )*};
}
pub(crate) use wire_struct;

/// How a payload field declared `field: T as C` is written: the one place
/// its encoding is not its type's.
pub(crate) trait Codec<T> {
    /// Write `v`.
    fn put(v: &T, w: &mut ByteWriter);
    /// Read one back.
    fn get(r: &mut ByteReader) -> Result<T, CodecError>;
}

/// A field written as its type is.
pub(crate) struct Plain;

impl<T: Wire> Codec<T> for Plain {
    fn put(v: &T, w: &mut ByteWriter) {
        v.put(w);
    }
    fn get(r: &mut ByteReader) -> Result<T, CodecError> {
        T::get(r)
    }
}

/// A lock forward's `pred_acq` plus one, wrapping: the chain start,
/// `u64::MAX`, is one byte.
pub(crate) struct ChainStart;

impl Codec<u64> for ChainStart {
    fn put(v: &u64, w: &mut ByteWriter) {
        v.wrapping_add(1).put(w);
    }
    fn get(r: &mut ByteReader) -> Result<u64, CodecError> {
        Ok(u64::get(r)?.wrapping_sub(1))
    }
}

/// A list of chain tails, each granter as `g + 1`, or `0` for a grantee's
/// own tenure.
pub(crate) struct Granters;

impl Codec<Vec<ChainTail>> for Granters {
    fn put(v: &Vec<ChainTail>, w: &mut ByteWriter) {
        w.put_varint(v.len() as u64);
        for &(lock, gen, grantee, acq, granter) in v {
            (lock, gen, grantee, acq, granter.map_or(0, |g| g + 1)).put(w);
        }
    }
    fn get(r: &mut ByteReader) -> Result<Vec<ChainTail>, CodecError> {
        let tails = Vec::<(LockId, u64, usize, u64, usize)>::get(r)?;
        let granter = |(lock, gen, grantee, acq, g): (_, _, _, _, usize)| {
            (lock, gen, grantee, acq, g.checked_sub(1))
        };
        Ok(tails.into_iter().map(granter).collect())
    }
}

/// The codec of a payload field: [`Plain`], or the one it names.
macro_rules! codec {
    () => {
        $crate::wire::Plain
    };
    ($codec:ty) => {
        $codec
    };
}
pub(crate) use codec;

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

/// Encode a diff: page id, interval proc and interval seq as LEB128
/// varints, then the run section the diff stores — its bytes as they are,
/// not re-encoded. A length-only writer is given [`Diff::wire_size`], so
/// counting a batch never walks its runs.
pub fn put_diff(w: &mut ByteWriter, d: &Diff) {
    if w.count_only(d.wire_size()) {
        return;
    }
    w.reserve(d.wire_size());
    d.page.put(w);
    d.interval.put(w);
    w.put_raw(d.section());
}

/// Decode a diff; a header field past `u32` is refused, and so is a run
/// section [`RunSection::check`] refuses. The section is copied as it is,
/// in one allocation.
pub fn get_diff(r: &mut ByteReader) -> Result<Diff, CodecError> {
    let (page, interval) = (PageId::get(r)?, Interval::get(r)?);
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

/// Encode a list of whole page copies, `(page, version, bytes)`: what a
/// many-page reply was before its pages had bodies ([`PageBody`]). No
/// message has this layout any more; perfbench's
/// `wire.page_copies_encode_ns` probe still times it as the cost of
/// putting sixteen pages on a wire.
pub fn put_page_copies(w: &mut ByteWriter, pages: &[(PageId, VectorClock, Arc<[u8]>)]) {
    w.put_varint(pages.len() as u64);
    for (p, version, bytes) in pages {
        p.put(w);
        w.put_varint(bytes.len() as u64);
        version.put(w);
        w.put_raw(bytes);
    }
}

/// The kind half of a message's tag byte, its low four bits.
pub(crate) const KIND: u8 = 0x0F;
/// Tag bit: the other direction's push list follows the payload — an
/// arrival's pushed pages, a release's relayed report of used copies. An
/// arrival or release that carries neither costs no byte for it.
pub(crate) const RELAY: u8 = 0x10;
/// Tag bit: a trace context follows the tag (the message was traced).
const TRACED: u8 = 0x20;
/// Tag bit: a piggyback follows the payload.
const PIGGY: u8 = 0x40;
/// Tag bit: a diff batch follows the payload (a barrier arrival's or
/// release's).
pub(crate) const BATCH: u8 = 0x80;

/// A tail the tag announces: a `T` when `bit` is set in `tails`, which the
/// read clears.
pub(crate) fn tail<T: Wire>(
    r: &mut ByteReader,
    tails: &mut u8,
    bit: u8,
) -> Result<Option<T>, CodecError> {
    let set = *tails & bit != 0;
    *tails &= !bit;
    set.then(|| T::get(r)).transpose()
}

/// What [`payloads!`] gives the payload enum: its tag and its fields' codec.
pub(crate) trait Layout: Sized {
    /// The kind's tag, with [`RELAY`] set when its relayed list is not
    /// empty and [`BATCH`] when it carries a batch.
    fn tag(&self) -> u8;
    /// Write the fields in declared order, then the tails the tag names.
    fn put_fields(&self, w: &mut ByteWriter);
    /// Read a payload whose kind and tail bits are `tag`'s.
    fn get_fields(tag: u8, r: &mut ByteReader) -> Result<Self, CodecError>;
}

/// Declare the message payloads, once. Each kind is its tag, its name and
/// its fields in wire order, each with its doc and, where its encoding is
/// not its type's, the [`Codec`] that writes it (`field: T as C`); then the
/// tails it may carry: a `relay` list, written behind [`RELAY`] only when it
/// is not empty, and a `batch` slot, behind [`BATCH`]. The `retired` tags
/// decode as an error, and a kind that takes one again does not compile.
/// From the list come the enum, its [`Layout`] (the
/// tag byte, the encoder and the decoder), `kind`, `batch_slot`, `carried`,
/// `KINDS` and `RETIRED`.
macro_rules! payloads {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            retired $($retired:literal),+;
            $(
                $(#[$doc:meta])*
                $tag:literal => $kind:ident {
                    $($(#[$fdoc:meta])* $field:ident: $fty:ty $(as $codec:ty)?,)*
                }
                $(relay { $(#[$rdoc:meta])* $relay:ident: $rty:ty, })?
                $(batch { $(#[$bdoc:meta])* $batch:ident, })?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$doc])*
                $kind {
                    $($(#[$fdoc])* $field: $fty,)*
                    $($(#[$rdoc])* $relay: $rty,)?
                    $($(#[$bdoc])* $batch: Option<Vec<::std::sync::Arc<::dsm_page::Diff>>>,)?
                },
            )*
        }

        impl $name {
            /// Every kind's tag and name, in the list's order.
            pub const KINDS: &'static [(u8, &'static str)] = &[$(($tag, stringify!($kind))),*];
            /// The retired tags.
            pub const RETIRED: &'static [u8] = &[$($retired),+];

            /// The kind's name.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$kind { .. } => stringify!($kind),)*
                }
            }

            /// The batch slot of a kind that may carry one.
            pub(crate) fn batch_slot(
                &mut self,
            ) -> Option<&mut Option<Vec<::std::sync::Arc<::dsm_page::Diff>>>> {
                match self {
                    $(Self::$kind { $($batch,)? .. } => None $(.or(Some($batch)))?,)*
                }
            }

            /// The batch the payload carries, if any.
            pub(crate) fn carried(&self) -> Option<&[::std::sync::Arc<::dsm_page::Diff>]> {
                match self {
                    $(Self::$kind { $($batch,)? .. } => None $(.or($batch.as_deref()))?,)*
                }
            }
        }

        impl $crate::wire::Layout for $name {
            fn tag(&self) -> u8 {
                use $crate::wire::{BATCH, RELAY};
                match self {
                    $(Self::$kind { $($relay,)? $($batch,)? .. } => $tag
                        $(| RELAY * u8::from(!$relay.is_empty()))?
                        $(| BATCH * u8::from($batch.is_some()))?,)*
                }
            }

            fn put_fields(&self, w: &mut ::dsm_storage::ByteWriter) {
                use $crate::wire::{Codec, Wire};
                match self {
                    $(Self::$kind { $($field,)* $($relay,)? $($batch,)? } => {
                        $(<$crate::wire::codec!($($codec)?) as Codec<$fty>>::put($field, w);)*
                        $(if !$relay.is_empty() {
                            $relay.put(w);
                        })?
                        $(if let Some(batch) = $batch {
                            batch.put(w);
                        })?
                    })*
                }
            }

            // A kind given a retired tag, or two kinds one tag, would be an
            // arm no tag reaches.
            #[deny(unreachable_patterns)]
            fn get_fields(
                tag: u8,
                r: &mut ::dsm_storage::ByteReader,
            ) -> Result<Self, ::dsm_storage::CodecError> {
                use $crate::wire::{tail, Codec, BATCH, KIND, RELAY};
                let bad = |context| ::dsm_storage::CodecError::BadTag { context, tag };
                let mut tails = tag & !KIND;
                let payload = match tag & KIND {
                    $($retired => return Err(bad("retired kind")),)+
                    $($tag => {
                        $(let $field = <$crate::wire::codec!($($codec)?) as Codec<$fty>>::get(r)?;)*
                        $(let $relay = tail(r, &mut tails, RELAY)?.unwrap_or_default();)?
                        $(let $batch = tail(r, &mut tails, BATCH)?;)?
                        Self::$kind { $($field,)* $($relay,)? $($batch,)? }
                    })*
                    _ => return Err(bad("message kind")),
                };
                match tails {
                    0 => Ok(payload),
                    _ => Err(bad("tail carrier")),
                }
            }
        }
    };
}
pub(crate) use payloads;

/// Encode a message: [`put_base`], then the piggyback.
pub fn put_msg(w: &mut ByteWriter, m: &Msg) {
    put_base(w, m);
    if let Some(p) = &m.piggy {
        p.put(w);
    }
}

/// Encode the base-protocol part of a message: tag, trace context (only
/// when stamped), payload, a relayed list and a carried batch — everything
/// but the piggyback.
pub(crate) fn put_base(w: &mut ByteWriter, m: &Msg) {
    let traced = m.ctx.is_stamped();
    let flags = (TRACED * traced as u8) | (PIGGY * m.piggy.is_some() as u8);
    w.put_u8(m.payload.tag() | flags);
    if traced {
        put_ctx(w, &m.ctx);
    }
    m.payload.put_fields(w);
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
    let payload = Layout::get_fields(tag & !(TRACED | PIGGY), r)?;
    let piggy = match tag & PIGGY {
        0 => None,
        _ => Some(Wire::get(r)?),
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
    use crate::msg::{Payload, Pushed};
    use dsm_page::Page;
    use hlrc::Have;
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
        assert!(WnDelta::get(&mut ByteReader::new(&spans)).is_err_and(eof));
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
        diffs.put(&mut w);
        let batch = w.into_bytes();
        let get_batch = |bytes: &[u8]| Vec::<Arc<Diff>>::get(&mut ByteReader::new(bytes));
        let mut w = ByteWriter::new();
        PageBody::Delta(diffs.clone()).put(&mut w);
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
            PageBody::get(&mut ByteReader::new(b)).is_ok()
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
        diffs.put(&mut w);
        let batch = w.into_bytes();
        let get_batch = |bytes: &[u8]| Vec::<Arc<Diff>>::get(&mut ByteReader::new(bytes));
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
            body.put(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(PageBody::get(&mut ByteReader::new(&bytes)).unwrap(), body);
            for len in 0..bytes.len() {
                let cut = PageBody::get(&mut ByteReader::new(&bytes[..len]));
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
        let used_bytes = encode(&|w| used.put(w));
        let pushed_bytes = encode(&|w| pushed.put(w));
        // Count; page, incarnation, clock (count and entries) a report.
        assert_eq!(&used_bytes[..6], [2, 3, 1, 2, 2, 0]);
        assert_eq!(
            Vec::<(PageId, Have)>::get(&mut ByteReader::new(&used_bytes)).unwrap(),
            used
        );
        let got = Vec::<Pushed>::get(&mut ByteReader::new(&pushed_bytes)).unwrap();
        assert_eq!(got, pushed);
        no_cut_or_byte_panics(&used_bytes, |b| {
            Vec::<(PageId, Have)>::get(&mut ByteReader::new(b))
        });
        no_cut_or_byte_panics(&pushed_bytes, |b| {
            Vec::<Pushed>::get(&mut ByteReader::new(b))
        });
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
                encode(&|w| pushed.put(w)),
            ),
            (
                release(used.clone()),
                release(Vec::new()),
                encode(&|w| used.put(w)),
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

    /// A list item's `MIN` is the encoding of its emptiest value: every
    /// clock and list empty, every option absent, every number zero. So a
    /// decoded count sizes a list by what its items really take at the
    /// least.
    #[test]
    fn a_min_is_the_emptiest_encoding() {
        use crate::ft::logs::{BarEntry, RelEntry, WnLogEntry};
        use crate::msg::{CkptStamp, Piggy, RecPage};
        fn emptiest<T: Wire>(v: T) {
            let name = std::any::type_name::<T>();
            assert_eq!(len_of(|w| v.put(w)), T::MIN, "{name}");
        }
        let vt = || VectorClock::from_vec(Vec::new());
        let stamp = || CkptStamp::zero(0);
        let body = || PageBody::Delta(Vec::new());
        let have: Option<Have> = None;
        emptiest((PageId(0), vt(), have));
        emptiest((PageId(0), vt(), body()));
        emptiest((PageId(0), (0u32, vt())));
        emptiest(WriteNotice {
            interval: Interval { proc: 0, seq: 0 },
            pages: Vec::new(),
        });
        let (page, base, version, body) = (PageId(0), (0, vt()), vt(), body());
        emptiest(Pushed {
            page,
            base,
            version,
            body,
        });
        let (copy, entries) = (None, Vec::new());
        emptiest(RecPage {
            page,
            copy,
            entries,
        });
        emptiest(WnLogEntry {
            seq: 0,
            pages: vec![],
        });
        emptiest(BarEntry {
            episode: 0,
            result_vt: vt(),
        });
        emptiest(RelEntry {
            acq_seq: 0,
            lock: 0,
            gen: 0,
            req_vt: vt(),
            t_after: vt(),
        });
        let (p0v, table) = (Vec::new(), Vec::new());
        emptiest(Piggy {
            stamp: stamp(),
            p0v,
            table,
        });
        emptiest((0usize, stamp()));
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
        wn.put(&mut w);
        vt.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(WriteNotice::get(&mut r).unwrap(), wn);
        assert_eq!(<VectorClock as Wire>::get(&mut r).unwrap(), vt);
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
        d.put(&mut w);
        // Count, then per notice proc, seq, page count and one byte a page.
        assert_eq!(w.len(), 1 + (3 + 2) + 3);
        assert_eq!(w.len(), len_of(|w| d.put(w)));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(WnDelta::get(&mut r).unwrap(), d);
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
        wns().put(&mut w);
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
        small.put(&mut w);
        assert_eq!((w.len(), len_of(|w| small.put(w))), (9, 9));
        let big = VectorClock::from_vec(vec![128, u32::MAX]);
        assert_eq!(len_of(|w| big.put(w)), 1 + 2 + 5);
        // An entry past `u32` is refused.
        let mut w = ByteWriter::new();
        w.put_varint(1);
        w.put_varint(u64::from(u32::MAX) + 1);
        let bytes = w.into_bytes();
        let invalid = |e| matches!(e, CodecError::Invalid { .. });
        assert!(<VectorClock as Wire>::get(&mut ByteReader::new(&bytes)).is_err_and(invalid));
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
            vt.put(&mut w);
            prop_assert!(w.len() <= 4 * vt.len());
            prop_assert_eq!(w.len(), len_of(|w| vt.put(w)));
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            prop_assert_eq!(<VectorClock as Wire>::get(&mut r).unwrap(), vt);
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
