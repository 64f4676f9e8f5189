//! Vendored, dependency-free subset of the `bytes` crate: [`Bytes`], an
//! immutable, cheaply cloneable byte buffer, and [`BytesMut`], a uniquely
//! owned buffer that freezes into one without copying. Only the API surface
//! this workspace actually uses is provided, so the workspace builds with
//! no network access to a registry.

#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::{Arc, OnceLock};

/// Size of the shared all-zero backing buffer used by [`Bytes::zeroed`].
const ZERO_CHUNK: usize = 1 << 16;

/// Lazily initialized shared zero buffer; every `Bytes::zeroed` call up to
/// [`ZERO_CHUNK`] bytes is a reference-count bump into this allocation.
static ZEROS: OnceLock<Arc<[u8]>> = OnceLock::new();

/// An immutable, reference-counted byte buffer. Cloning is O(1). A `Bytes`
/// is a view (`offset`, `len`) into a shared backing allocation, so views
/// of a common buffer (e.g. zero-filled payloads) share storage.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self { data: Arc::from(&[][..]), off: 0, len: 0 }
    }

    /// Wraps a static byte slice (copied; the real crate borrows, but the
    /// observable behaviour is identical for readers).
    #[must_use]
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Copies a slice into a new buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        let len = data.len();
        Self { data: Arc::from(data), off: 0, len }
    }

    /// `len` zero bytes. Allocation-free for lengths up to 64 KiB: the view
    /// aliases one shared zero buffer, which is what makes synthetic-payload
    /// packet construction cheap on the simulator hot path.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        if len <= ZERO_CHUNK {
            let data = ZEROS.get_or_init(|| Arc::from(vec![0u8; ZERO_CHUNK])).clone();
            Self { data, off: 0, len }
        } else {
            Self::from(vec![0u8; len])
        }
    }

    /// Number of bytes in the buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of `range` within this buffer, sharing its storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end && end <= self.len, "slice {start}..{end} out of {} bytes", self.len);
        Self { data: self.data.clone(), off: self.off + start, len: end - start }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

/// A uniquely owned, writable byte buffer of fixed length. It is allocated
/// once, with the reference-counted layout [`Bytes`] uses, so
/// [`BytesMut::freeze`] hands the same allocation over without a copy.
pub struct BytesMut {
    data: Arc<[u8]>,
}

impl BytesMut {
    /// `len` zero bytes in one allocation.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        // `RepeatN` has an exact length, so the `Arc` is allocated once at
        // its final size and filled in place.
        Self { data: std::iter::repeat_n(0u8, len).collect() }
    }

    /// Converts into an immutable [`Bytes`] over the same allocation.
    #[must_use]
    pub fn freeze(self) -> Bytes {
        let len = self.data.len();
        Bytes { data: self.data, off: 0, len }
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        Self { data: Arc::from(v) }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.data).expect("a BytesMut is never shared")
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Self { data: Arc::from(v), off: 0, len }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Self::copy_from_slice(v.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<u8>>().into()
    }
}

// Comparisons and hashing go through the visible slice, never the backing
// storage, so views with different offsets but equal contents are equal
// (and `Hash` stays consistent with `Borrow<[u8]>`).
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.as_slice() == other[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_and_compares() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, Bytes::copy_from_slice(&[1, 2, 3]));
        assert_eq!(b.clone(), b);
        assert!(Bytes::new().is_empty());
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\n")), "b\"a\\n\"");
    }

    #[test]
    fn zeroed_shares_storage_and_compares_by_content() {
        let a = Bytes::zeroed(100);
        let b = Bytes::zeroed(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x == 0));
        assert_eq!(a, b);
        assert_eq!(a, Bytes::from(vec![0u8; 100]));
        // Both views alias the one shared zero chunk.
        assert!(Arc::ptr_eq(&a.data, &b.data));
        // Beyond the chunk size a dedicated allocation is made.
        let big = Bytes::zeroed(ZERO_CHUNK + 1);
        assert_eq!(big.len(), ZERO_CHUNK + 1);
        assert!(big.iter().all(|&x| x == 0));
    }

    #[test]
    fn slices_share_storage() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert!(Arc::ptr_eq(&s.data, &b.data));
        assert_eq!(&s.slice(1..)[..], &[3, 4]);
        assert_eq!(&b.slice(..=1)[..], &[0, 1]);
        assert!(b.slice(6..).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn slice_out_of_bounds_panics() {
        let _ = Bytes::from(vec![0u8; 4]).slice(2..5);
    }

    #[test]
    fn bytes_mut_freezes_in_place() {
        let mut m = BytesMut::zeroed(5);
        assert_eq!(&m[..], &[0; 5]);
        m[1..3].copy_from_slice(&[7, 8]);
        let ptr = m.as_ptr();
        let b = m.freeze();
        assert_eq!(&b[..], &[0, 7, 8, 0, 0]);
        assert_eq!(b.as_ptr(), ptr, "freeze must not copy");
        let mut c = BytesMut::from(&b[1..3]);
        c[0] = 9;
        assert_eq!(&c.freeze()[..], &[9, 8]);
        assert_eq!(&b[..], &[0, 7, 8, 0, 0], "the source is untouched");
    }

    #[test]
    fn hash_matches_borrowed_slice() {
        use std::collections::HashMap;
        let mut m: HashMap<Bytes, u32> = HashMap::new();
        m.insert(Bytes::from(vec![0u8; 4]), 7);
        // Lookup through Borrow<[u8]> must find a zeroed-view key equal.
        assert_eq!(m.get(&[0u8, 0, 0, 0][..]), Some(&7));
        assert_eq!(m.get(Bytes::zeroed(4).as_ref()), Some(&7));
    }
}
