//! A minimal explicit binary codec: little-endian fixed-width integers,
//! LEB128 varints and length-prefixed byte strings.
//!
//! Used for protocol messages, checkpoint records and saved log entries.
//! Having our own codec (instead of an external format crate) gives exact
//! byte accounting — the encoded length *is* the number charged to stable
//! storage and to message traffic, and a length-only [`ByteWriter`] counts
//! it without writing.

use dsm_page::{get_varint, put_varint, varint_len, SectionError};

/// Errors produced when decoding malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the requested field.
    UnexpectedEof {
        /// Bytes the decoder asked for.
        wanted: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A tag/discriminant byte had no known interpretation.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length field exceeded a sanity bound.
    LengthOverflow {
        /// The rejected length.
        len: u64,
    },
    /// A field held a value its layout rules out.
    Invalid {
        /// What was being decoded.
        context: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { wanted, remaining } => {
                write!(
                    f,
                    "unexpected end of input: wanted {wanted} bytes, {remaining} remain"
                )
            }
            CodecError::BadTag { context, tag } => write!(f, "bad tag {tag} decoding {context}"),
            CodecError::LengthOverflow { len } => write!(f, "length field too large: {len}"),
            CodecError::Invalid { context } => write!(f, "invalid {context}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<SectionError> for CodecError {
    fn from(e: SectionError) -> Self {
        match e {
            SectionError::Eof { wanted, remaining } => {
                CodecError::UnexpectedEof { wanted, remaining }
            }
            SectionError::Invalid { context } => CodecError::Invalid { context },
        }
    }
}

/// Maximum length accepted for a single length-prefixed field (1 GiB): a
/// corrupted length should fail decoding, not abort on allocation.
const MAX_FIELD_LEN: u64 = 1 << 30;

/// Append-only encoder, or a length-only one ([`ByteWriter::length_only`])
/// that runs the same encoder and keeps only the count: a message is charged
/// the length its encoder writes, without writing it.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
    /// `Some(len)` in a length-only writer: the bytes it would have written.
    counted: Option<usize>,
}

impl ByteWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// A writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
            counted: None,
        }
    }

    /// A writer that stores nothing and counts what it is given: its
    /// [`len`](ByteWriter::len) is the encoding's length.
    pub fn length_only() -> Self {
        ByteWriter {
            buf: Vec::new(),
            counted: Some(0),
        }
    }

    /// In a length-only writer, count `len` bytes the caller knows its
    /// encoding of a value takes and return true: the caller then writes
    /// nothing. A storing writer returns false.
    pub fn count_only(&mut self, len: usize) -> bool {
        self.counted.as_mut().map(|n| *n += len).is_some()
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.counted.unwrap_or(self.buf.len())
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish and take the encoded bytes (none from a length-only writer).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Reserve room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        if self.counted.is_none() {
            self.buf.reserve(additional);
        }
    }

    fn extend(&mut self, v: &[u8]) {
        match &mut self.counted {
            Some(n) => *n += v.len(),
            None => self.buf.extend_from_slice(v),
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.extend(&[v]);
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.extend(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.extend(&v.to_le_bytes());
    }

    /// Append an LEB128 varint ([`dsm_page::put_varint`]).
    pub fn put_varint(&mut self, v: u64) {
        if !self.count_only(varint_len(v)) {
            put_varint(&mut self.buf, v);
        }
    }

    /// Append the `len` bytes `put` writes into the buffer; a length-only
    /// writer counts `len` and does not call it.
    pub fn put_with(&mut self, len: usize, put: impl FnOnce(&mut Vec<u8>)) {
        if !self.count_only(len) {
            self.buf.reserve(len);
            put(&mut self.buf);
        }
    }

    /// Append a little-endian f64 (bit pattern preserved).
    pub fn put_f64(&mut self, v: f64) {
        self.extend(&v.to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.extend(v);
    }

    /// Raw bytes with no length prefix (the caller encodes the length
    /// elsewhere; pairs with [`ByteReader::get_raw`]). A length-only writer
    /// adds their length and copies nothing.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.extend(v);
    }
}

/// Sequential decoder over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the input is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an LEB128 varint (pairs with [`ByteWriter::put_varint`]). One
    /// longer than ten bytes, or past `u64`, is refused.
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let (v, len) = get_varint(self.rest())?;
        self.pos += len;
        Ok(v)
    }

    /// The bytes not yet consumed, left unconsumed: a decoder that checks a
    /// field in place reads it here, then takes its length.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Read a little-endian f64 (bit pattern preserved).
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Raw bytes with an externally known length (pairs with
    /// [`ByteWriter::put_raw`]).
    pub fn get_raw(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if len as u64 > MAX_FIELD_LEN {
            return Err(CodecError::LengthOverflow { len: len as u64 });
        }
        self.take(len)
    }

    /// Length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u64()?;
        if len > MAX_FIELD_LEN {
            return Err(CodecError::LengthOverflow { len });
        }
        self.take(len as usize)
    }

    /// The capacity to reserve for `count` items decoded next, each at least
    /// `smallest` bytes on the wire: no more than the input left could hold,
    /// so a hostile count fails on the input's end, not on an allocation.
    pub fn capacity_for(&self, count: u64, smallest: usize) -> usize {
        count.min((self.remaining() / smallest) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(std::f64::consts::PI);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert!(r.is_exhausted());
    }

    #[test]
    fn roundtrip_prefixed_fields() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"hello");
        w.put_bytes(b"");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_bytes().unwrap(), b"");
        assert!(r.is_exhausted());
    }

    #[test]
    fn roundtrip_raw_bytes() {
        let mut w = ByteWriter::new();
        w.put_u32(3);
        w.put_raw(b"abc");
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 4 + 3, "raw bytes carry no length prefix");
        let mut r = ByteReader::new(&bytes);
        let n = r.get_u32().unwrap() as usize;
        assert_eq!(r.get_raw(n).unwrap(), b"abc");
        assert!(r.is_exhausted());
        assert!(matches!(
            r.get_raw(1),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn varints_roundtrip_at_every_length_and_refuse_what_no_u64_is() {
        let lengths: [(u64, usize); 7] = [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX.into(), 5),
            (u64::MAX, 10),
        ];
        let mut w = ByteWriter::new();
        for (v, len) in lengths {
            let before = w.len();
            w.put_varint(v);
            assert_eq!(w.len() - before, len, "{v}");
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for (v, _) in lengths {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        assert!(r.is_exhausted());
        let invalid = |e| matches!(e, CodecError::Invalid { .. });
        // Eleven bytes, and a tenth byte past the top bit of a u64.
        assert!(ByteReader::new(&[0x80; 11])
            .get_varint()
            .is_err_and(invalid));
        let mut over = [0xFF; 10];
        over[9] = 0x02;
        assert!(ByteReader::new(&over).get_varint().is_err_and(invalid));
        // A varint its input ends inside.
        let eof = |e| matches!(e, CodecError::UnexpectedEof { .. });
        assert!(ByteReader::new(&[0x80; 3]).get_varint().is_err_and(eof));
        assert!(ByteReader::new(&[]).get_varint().is_err_and(eof));
    }

    #[test]
    fn eof_is_reported_not_panicked() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(
            r.get_u32(),
            Err(CodecError::UnexpectedEof {
                wanted: 4,
                remaining: 2
            })
        ));
    }

    #[test]
    fn a_count_is_capped_by_what_the_input_left_could_hold() {
        let r = ByteReader::new(&[0; 13]);
        assert_eq!((r.capacity_for(1 << 28, 4), r.capacity_for(1, 4)), (3, 1));
    }

    /// A length-only writer runs the same calls and counts exactly what a
    /// storing one writes, varints of every length included.
    #[test]
    fn a_length_only_writer_counts_what_a_storing_one_writes() {
        let put = |w: &mut ByteWriter| {
            w.put_u8(1);
            w.put_u32(2);
            w.put_u64(3);
            [0, 127, 128, 1 << 20, u64::MAX]
                .into_iter()
                .for_each(|v| w.put_varint(v));
            w.put_f64(0.5);
            w.put_bytes(b"abc");
            w.put_raw(&[9; 100]);
        };
        let (mut stored, mut counted) = (ByteWriter::new(), ByteWriter::length_only());
        put(&mut stored);
        put(&mut counted);
        assert!(!stored.count_only(7));
        assert!(counted.count_only(7));
        assert_eq!(counted.len(), stored.len() + 7);
        assert!(counted.into_bytes().is_empty());
        assert_eq!(
            stored.len(),
            1 + 4 + 8 + (1 + 1 + 2 + 3 + 10) + 8 + 11 + 100
        );
    }

    #[test]
    fn corrupt_length_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_bytes(),
            Err(CodecError::LengthOverflow { .. })
        ));
    }
}
