//! The run section: the one layout a diff and a whole page share, and the
//! LEB128 varints it is written in.
//!
//! A run section is the run count, then per run its gap in words since the
//! previous run's end and its length in words, both varints, followed by
//! its bytes. A [`Diff`](crate::Diff) stores its section exactly as it is
//! encoded; a whole page is its length in words and the section of its
//! non-zero words. The codec crate (`dsm_storage`) reads and writes every
//! varint through [`put_varint`] / [`get_varint`]; they live here because
//! that crate depends on this one.

use crate::page::PAGE_ALIGN_WORD;

/// What a run section or a varint that does not decode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionError {
    /// The input ended inside the field.
    Eof {
        /// Bytes the decoder asked for.
        wanted: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A field held a value the layout rules out.
    Invalid {
        /// What was being decoded.
        context: &'static str,
    },
}

/// Bytes `v` takes as an LEB128 varint.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Append `v` as an LEB128 varint: seven bits a byte, low bits first, the
/// high bit set on every byte but the last (1 byte below 128, at most 10).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    let mut bytes = [0u8; 10];
    let mut n = 0;
    while v >= 0x80 {
        bytes[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    bytes[n] = v as u8;
    out.extend_from_slice(&bytes[..=n]);
}

/// Read the varint `bytes` starts with: its value and its length in bytes.
/// One longer than ten bytes, or past `u64`, is refused.
pub fn get_varint(bytes: &[u8]) -> Result<(u64, usize), SectionError> {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().take(10).enumerate() {
        v |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            // The tenth byte holds only the top bit of a u64.
            if i == 9 && b > 1 {
                break;
            }
            return Ok((v, i + 1));
        }
    }
    match bytes.len() {
        n if n < 10 => Err(SectionError::Eof {
            wanted: n + 1,
            remaining: n,
        }),
        _ => Err(SectionError::Invalid { context: "varint" }),
    }
}

/// Append the run section of `count` runs, each `(byte offset, bytes)`,
/// word aligned and in increasing offset order.
pub(crate) fn put_runs<'a>(
    out: &mut Vec<u8>,
    count: usize,
    runs: impl IntoIterator<Item = (usize, &'a [u8])>,
) {
    put_varint(out, count as u64);
    let mut end = 0;
    for (offset, bytes) in runs {
        put_varint(out, ((offset - end) / PAGE_ALIGN_WORD) as u64);
        put_varint(out, (bytes.len() / PAGE_ALIGN_WORD) as u64);
        out.extend_from_slice(bytes);
        end = offset + bytes.len();
    }
}

/// The encoded length of a run section, counted run by run as
/// [`put_runs`] would write it.
#[derive(Default)]
pub(crate) struct RunSectionLen {
    runs: usize,
    bytes: usize,
    end: usize,
}

impl RunSectionLen {
    /// Count the run of bytes `offset..end`, which starts at or past the
    /// previous run's end.
    pub(crate) fn add(&mut self, offset: usize, end: usize) {
        let gap = (offset - self.end) / PAGE_ALIGN_WORD;
        let words = (end - offset) / PAGE_ALIGN_WORD;
        self.bytes += varint_len(gap as u64) + varint_len(words as u64) + (end - offset);
        self.runs += 1;
        self.end = end;
    }

    pub(crate) fn len(&self) -> usize {
        varint_len(self.runs as u64) + self.bytes
    }
}

/// A run section checked to decode: its exact bytes, its run count and the
/// bytes its runs carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSection<'a> {
    bytes: &'a [u8],
    runs: u32,
    payload: u32,
}

impl<'a> RunSection<'a> {
    /// Check the run section `bytes` starts with. Gaps cannot be negative,
    /// so the runs come out in order and apart; a run's gap or end in bytes
    /// past `u32` is refused, and so is an empty run. Nothing is allocated,
    /// so a count no input could hold ends in the input's end.
    pub fn check(bytes: &'a [u8]) -> Result<Self, SectionError> {
        let mut at = 0;
        let next = |at: &mut usize| {
            let (v, len) = get_varint(&bytes[*at..])?;
            *at += len;
            Ok::<_, SectionError>(v)
        };
        let words = |v: u64, context| {
            let v = v.checked_mul(PAGE_ALIGN_WORD as u64);
            v.and_then(|v| u32::try_from(v).ok())
                .ok_or(SectionError::Invalid { context })
        };
        let count = next(&mut at)?;
        let (mut end, mut payload) = (0u32, 0u32);
        for _ in 0..count {
            let gap = words(next(&mut at)?, "run gap")?;
            let len = words(next(&mut at)?, "run length")?;
            let run_end = end.checked_add(gap).and_then(|o| o.checked_add(len));
            let invalid = SectionError::Invalid { context: "run" };
            end = run_end.filter(|_| len > 0).ok_or(invalid)?;
            let remaining = bytes.len() - at;
            if remaining < len as usize {
                return Err(SectionError::Eof {
                    wanted: len as usize,
                    remaining,
                });
            }
            at += len as usize;
            // The runs are apart, so their bytes are at most the last end.
            payload += len;
        }
        Ok(RunSection {
            bytes: &bytes[..at],
            // Every run carries at least a word of the `u32` payload.
            runs: count as u32,
            payload,
        })
    }

    /// The section's encoded bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs as usize
    }

    /// Bytes the runs carry.
    pub fn payload_bytes(&self) -> usize {
        self.payload as usize
    }

    /// The runs as `(byte offset, bytes)`, in increasing offset order.
    pub fn runs(&self) -> Runs<'a> {
        Runs::of(self.bytes)
    }
}

/// The runs of a checked section, decoded as they are iterated.
#[derive(Debug, Clone)]
pub struct Runs<'a> {
    rest: &'a [u8],
    left: usize,
    end: usize,
}

impl<'a> Runs<'a> {
    /// The runs of `section`, which [`RunSection::check`] accepted.
    pub(crate) fn of(section: &'a [u8]) -> Self {
        let mut runs = Runs {
            rest: section,
            left: 0,
            end: 0,
        };
        runs.left = runs.varint();
        runs
    }

    fn varint(&mut self) -> usize {
        let (v, len) = match self.rest {
            [b, ..] if *b < 0x80 => (u64::from(*b), 1),
            rest => get_varint(rest).expect("a checked run section"),
        };
        self.rest = &self.rest[len..];
        v as usize
    }
}

impl<'a> Iterator for Runs<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let offset = self.end + self.varint() * PAGE_ALIGN_WORD;
        let len = self.varint() * PAGE_ALIGN_WORD;
        let (bytes, rest) = self.rest.split_at(len);
        self.rest = rest;
        self.end = offset + len;
        Some((offset, bytes))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(varints: &[u64], raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        varints.iter().for_each(|&v| put_varint(&mut out, v));
        out.extend_from_slice(raw);
        out
    }

    #[test]
    fn a_varint_roundtrips_at_every_width() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out.len(), varint_len(v));
            assert_eq!(get_varint(&out), Ok((v, out.len())));
        }
        // Eleven bytes, and a tenth byte past `u64`, are refused.
        let invalid = Err(SectionError::Invalid { context: "varint" });
        assert_eq!(get_varint(&[0x80; 11]), invalid);
        assert_eq!(get_varint(&[[0xFF; 9].as_slice(), &[2]].concat()), invalid);
        assert!(matches!(get_varint(&[0x80]), Err(SectionError::Eof { .. })));
    }

    #[test]
    fn a_section_is_checked_to_its_end_and_read_back() {
        let runs = [(8, &[1u8; 8][..]), (1024, &[2u8; 16][..])];
        let mut bytes = Vec::new();
        put_runs(&mut bytes, runs.len(), runs);
        let mut len = RunSectionLen::default();
        runs.iter().for_each(|&(o, b)| len.add(o, o + b.len()));
        assert_eq!(len.len(), bytes.len());
        // The check stops at the section's end.
        bytes.push(0xAA);
        let s = RunSection::check(&bytes).unwrap();
        assert_eq!(s.bytes().len(), bytes.len() - 1);
        assert_eq!((s.run_count(), s.payload_bytes()), (2, 24));
        assert_eq!(s.runs().collect::<Vec<_>>(), runs);
    }

    #[test]
    fn an_empty_run_a_field_past_u32_and_a_cut_run_are_refused() {
        let invalid = |context| Err(SectionError::Invalid { context });
        let big = u64::from(u32::MAX) + 1;
        assert_eq!(RunSection::check(&section(&[1, 0, 0], &[])), invalid("run"));
        assert_eq!(
            RunSection::check(&section(&[1, big / 8, 1], &[0; 8])),
            invalid("run gap")
        );
        assert_eq!(
            RunSection::check(&section(&[1, 0, big / 8], &[])),
            invalid("run length")
        );
        assert_eq!(
            RunSection::check(&section(&[2, big / 8 - 1, 1, 0, 1], &[0; 16])),
            invalid("run")
        );
        let cut = section(&[1, 0, 2], &[0; 8]);
        let eof = Err(SectionError::Eof {
            wanted: 16,
            remaining: 8,
        });
        assert_eq!(RunSection::check(&cut), eof);
    }
}
