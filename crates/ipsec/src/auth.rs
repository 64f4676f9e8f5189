//! Keyed-hash message authenticator (HMAC stand-in).
//!
//! A 64-bit keyed hash with an HMAC-like inner/outer structure. **Not
//! secure** — see the crate-level disclaimer — but collision-free enough
//! that the integrity and replay tests are meaningful.

/// Length in bytes of the integrity check value appended to ESP payloads.
pub const ICV_LEN: usize = 8;

const INNER_PAD: u64 = 0x3636_3636_3636_3636;
const OUTER_PAD: u64 = 0x5C5C_5C5C_5C5C_5C5C;
const OFFSET: u64 = 0xCBF2_9CE4_8422_2325; // FNV-1a offset basis
const PRIME: u64 = 0x0000_0100_0000_01B3; // FNV-1a prime
const FINISH: u64 = 0xFF51_AFD7_ED55_8CCD;

#[inline(always)]
fn mix(h: u64, b: u8) -> u64 {
    let m = (h ^ u64::from(b)).wrapping_mul(PRIME);
    m ^ (m >> 29)
}

/// Streaming form of [`icv`]: absorbs the authenticated bytes piece by
/// piece, so a caller never gathers them into one buffer. ESP feeds it the
/// SPI, the sequence number and the IV, then the ciphertext byte by byte
/// from inside the cipher's loop.
#[derive(Clone, Debug)]
pub(crate) struct IcvHasher {
    key: u64,
    h: u64,
}

impl IcvHasher {
    /// Starts a tag computation under `key`.
    pub(crate) fn new(key: u64) -> Self {
        IcvHasher { key, h: OFFSET ^ key ^ INNER_PAD }
    }

    /// Absorbs `data`.
    #[inline(always)]
    pub(crate) fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.h = mix(self.h, b);
        }
    }

    /// The ICV of everything absorbed so far (HMAC-like: an outer keyed
    /// hash over the inner digest).
    pub(crate) fn finish(&self) -> [u8; ICV_LEN] {
        let mut outer = IcvHasher { key: self.key, h: OFFSET ^ self.key ^ OUTER_PAD };
        outer.update(&self.h.wrapping_mul(FINISH).to_be_bytes());
        outer.h.wrapping_mul(FINISH).to_be_bytes()
    }

    /// Constant-shape comparison of [`finish`](Self::finish) with `tag`.
    pub(crate) fn verify(&self, tag: &[u8]) -> bool {
        if tag.len() != ICV_LEN {
            return false;
        }
        // XOR-accumulate to avoid early exit (mirrors constant-time practice).
        let mut acc = 0u8;
        for (a, b) in self.finish().iter().zip(tag) {
            acc |= a ^ b;
        }
        acc == 0
    }
}

/// Computes the ICV over `data` with the HMAC-like double hash.
pub fn icv(key: u64, data: &[u8]) -> [u8; ICV_LEN] {
    let mut h = IcvHasher::new(key);
    h.update(data);
    h.finish()
}

/// Constant-shape verification of an ICV.
pub fn verify(key: u64, data: &[u8], tag: &[u8]) -> bool {
    let mut h = IcvHasher::new(key);
    h.update(data);
    h.verify(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_own_tag() {
        let tag = icv(42, b"hello world");
        assert!(verify(42, b"hello world", &tag));
    }

    #[test]
    fn rejects_modified_message() {
        let tag = icv(42, b"hello world");
        assert!(!verify(42, b"hello worle", &tag));
    }

    #[test]
    fn rejects_wrong_key() {
        let tag = icv(42, b"hello");
        assert!(!verify(43, b"hello", &tag));
    }

    #[test]
    fn rejects_truncated_tag() {
        let tag = icv(42, b"hello");
        assert!(!verify(42, b"hello", &tag[..4]));
    }

    #[test]
    fn pinned_tags() {
        // Recorded from the original one-shot implementation.
        assert_eq!(icv(42, b"hello world"), 0x37e0_428e_144c_4636u64.to_be_bytes());
        assert_eq!(icv(0, b""), 0xc5e9_212e_0112_954du64.to_be_bytes());
    }

    #[test]
    fn streaming_matches_one_shot_at_any_split() {
        let data: Vec<u8> = (0u8..=200).collect();
        let want = icv(0x1234, &data);
        for cut in [0, 1, 7, 8, 9, 100, 201] {
            let mut h = IcvHasher::new(0x1234);
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), want, "split at {cut}");
        }
        let mut h = IcvHasher::new(0x1234);
        data.iter().for_each(|&b| h.update(&[b]));
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn distinct_messages_distinct_tags() {
        // Smoke-check for gross collisions over many short messages.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            assert!(seen.insert(icv(7, &i.to_be_bytes())), "collision at {i}");
        }
    }
}
