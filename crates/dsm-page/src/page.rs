//! The coherence unit: a fixed-size byte buffer with copy-on-write sharing.
//!
//! A [`Page`] is a reference-counted immutable buffer (`Arc<[u8]>`) with
//! copy-on-write mutation. Cloning a page — and in particular taking a
//! [`Page::twin`] before the first write of an interval, or serving the page
//! contents in a reply message via [`Page::share`] — is a reference-count
//! bump, not a memcpy. The single unavoidable copy happens lazily at the
//! first mutation of a shared buffer, and that copy can draw its backing
//! buffer from a [`PagePool`] so steady-state
//! intervals allocate nothing.

use std::sync::Arc;

use crate::pool::PagePool;

/// Diffs are computed at this word granularity (bytes). Page sizes must be a
/// multiple of this.
pub const PAGE_ALIGN_WORD: usize = 8;

/// A shared page: a reference-counted, fixed-size byte buffer with
/// copy-on-write mutation.
///
/// A `Page` is used both for the authoritative copy held at a page's home
/// node and for cached copies / twins at other nodes. Value semantics are
/// preserved: mutating one clone never changes another (the mutation
/// materializes a private buffer first).
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    data: Arc<[u8]>,
}

impl Page {
    /// A zero-filled page of `size` bytes. `size` must be a multiple of
    /// [`PAGE_ALIGN_WORD`].
    pub fn zeroed(size: usize) -> Self {
        assert!(
            size.is_multiple_of(PAGE_ALIGN_WORD),
            "page size must be 8-byte aligned"
        );
        Page {
            data: vec![0u8; size].into(),
        }
    }

    /// A page initialized from a copy of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len().is_multiple_of(PAGE_ALIGN_WORD),
            "page size must be 8-byte aligned"
        );
        Page {
            data: Arc::from(bytes),
        }
    }

    /// A page that adopts `bytes` without copying (zero-copy install of a
    /// fetched buffer).
    pub fn from_shared(bytes: Arc<[u8]>) -> Self {
        assert!(
            bytes.len().is_multiple_of(PAGE_ALIGN_WORD),
            "page size must be 8-byte aligned"
        );
        Page { data: bytes }
    }

    /// Share the page contents without copying. The returned buffer is
    /// immutable; a later write to this page copy-on-writes and leaves the
    /// shared buffer untouched.
    #[inline]
    pub fn share(&self) -> Arc<[u8]> {
        Arc::clone(&self.data)
    }

    /// True when the underlying buffer is referenced from more than one
    /// place (a mutation would have to copy).
    #[inline]
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }

    /// Page size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the page has zero length (never for real pages; kept for
    /// clippy's `len_without_is_empty`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Make the backing buffer unique, copying out of a shared buffer if
    /// necessary. A pool, when given, supplies the replacement buffer.
    #[inline]
    fn materialize(&mut self, pool: Option<&mut PagePool>) -> &mut [u8] {
        if Arc::get_mut(&mut self.data).is_none() {
            let fresh = match pool {
                Some(pool) => pool.take_copy(&self.data),
                None => Arc::from(&self.data[..]),
            };
            self.data = fresh;
        }
        Arc::get_mut(&mut self.data).expect("buffer just made unique")
    }

    /// Mutable view of the page contents (copy-on-write; allocates if the
    /// buffer is shared).
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.materialize(None)
    }

    /// Mutable view of the page contents, drawing any copy-on-write buffer
    /// from `pool`.
    #[inline]
    pub fn bytes_mut_pooled(&mut self, pool: &mut PagePool) -> &mut [u8] {
        self.materialize(Some(pool))
    }

    /// Copy `src` into the page at `offset` (copy-on-write).
    pub fn write(&mut self, offset: usize, src: &[u8]) {
        self.bytes_mut()[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Copy `src` into the page at `offset`, drawing any copy-on-write
    /// buffer from `pool`.
    pub fn write_pooled(&mut self, pool: &mut PagePool, offset: usize, src: &[u8]) {
        self.bytes_mut_pooled(pool)[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Read `len` bytes at `offset`.
    pub fn read(&self, offset: usize, len: usize) -> &[u8] {
        &self.data[offset..offset + len]
    }

    /// Create a twin: an exact pre-write snapshot used later for diff
    /// creation. This is a reference-count bump; the writer's subsequent
    /// first write copies.
    pub fn twin(&self) -> Page {
        self.clone()
    }

    /// Overwrite the whole page from another page of the same size.
    pub fn copy_from(&mut self, other: &Page) {
        assert_eq!(self.len(), other.len(), "page size mismatch");
        if Arc::ptr_eq(&self.data, &other.data) {
            return;
        }
        self.data = Arc::clone(&other.data);
    }

    /// Consume the page, yielding its backing buffer (for pool recycling).
    pub(crate) fn into_arc(self) -> Arc<[u8]> {
        self.data
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nonzero = self.data.iter().filter(|&&b| b != 0).count();
        write!(f, "Page({} bytes, {} non-zero)", self.data.len(), nonzero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_rw() {
        let mut p = Page::zeroed(256);
        assert_eq!(p.len(), 256);
        assert!(p.bytes().iter().all(|&b| b == 0));
        p.write(10, &[1, 2, 3]);
        assert_eq!(p.read(10, 3), &[1, 2, 3]);
        assert_eq!(p.read(9, 1), &[0]);
    }

    #[test]
    fn twin_is_independent_copy() {
        let mut p = Page::zeroed(64);
        p.write(0, &[42]);
        let t = p.twin();
        p.write(0, &[7]);
        assert_eq!(t.read(0, 1), &[42]);
        assert_eq!(p.read(0, 1), &[7]);
    }

    #[test]
    fn twin_shares_until_first_write() {
        let mut p = Page::zeroed(64);
        let t = p.twin();
        assert!(p.is_shared());
        p.write(0, &[1]);
        assert!(!p.is_shared(), "write must have copy-on-written");
        assert!(!t.is_shared());
        assert_eq!(t.read(0, 1), &[0]);
    }

    #[test]
    fn shared_buffer_is_immutable_under_writes() {
        let mut p = Page::zeroed(64);
        p.write(0, &[9; 8]);
        let snapshot = p.share();
        p.write(0, &[1; 8]);
        assert_eq!(&snapshot[..8], &[9; 8]);
        assert_eq!(p.read(0, 8), &[1; 8]);
    }

    #[test]
    fn from_shared_is_zero_copy() {
        let buf: Arc<[u8]> = vec![5u8; 64].into();
        let p = Page::from_shared(Arc::clone(&buf));
        assert!(Arc::ptr_eq(&p.share(), &buf));
    }

    #[test]
    fn copy_from_shares_the_source_buffer() {
        let mut a = Page::zeroed(64);
        let mut b = Page::zeroed(64);
        b.write(0, &[3; 8]);
        a.copy_from(&b);
        assert_eq!(a.read(0, 8), &[3; 8]);
        b.write(0, &[4; 8]);
        assert_eq!(a.read(0, 8), &[3; 8], "copy_from target must not alias");
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_size_rejected() {
        let _ = Page::zeroed(100);
    }
}
