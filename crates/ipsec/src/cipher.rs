//! A toy 64-bit-block Feistel cipher with CBC mode.
//!
//! Shape-compatible stand-in for DES/3DES (64-bit blocks, 16 rounds, CBC
//! with explicit IV) so that ESP padding, IV handling, and per-byte costs
//! behave like the real thing. **Not secure**; see the crate-level
//! disclaimer.

/// A 16-round Feistel cipher over 64-bit blocks.
#[derive(Clone, Debug)]
pub struct FeistelCipher {
    round_keys: [u32; ROUNDS],
}

/// Cipher block size in bytes.
pub const BLOCK: usize = 8;

/// Rounds per block.
const ROUNDS: usize = 16;

/// Blocks [`FeistelCipher::cbc_decrypt`] decrypts side by side.
const LANES: usize = 4;

#[inline(always)]
fn round_fn(half: u32, key: u32) -> u32 {
    // A small ARX mix: add, rotate, xor. Enough diffusion to make
    // ciphertext look uniform to the classifier experiments.
    let x = half.wrapping_add(key);
    let x = x.rotate_left(5) ^ x.rotate_right(11) ^ key;
    x.wrapping_mul(0x9E37_79B9).rotate_left(7)
}

/// The big-endian block at the start of `bytes`.
#[inline(always)]
fn load(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes[..BLOCK].try_into().expect("a whole block"))
}

impl FeistelCipher {
    /// Derives round keys from a 64-bit key via an xorshift-style schedule.
    pub fn new(key: u64) -> Self {
        let mut s = key | 1;
        let mut round_keys = [0u32; ROUNDS];
        for rk in &mut round_keys {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *rk = (s >> 16) as u32;
        }
        FeistelCipher { round_keys }
    }

    /// Encrypts one 64-bit block.
    #[inline]
    pub fn encrypt_block(&self, block: u64) -> u64 {
        self.encrypt_rounds(block, |_| ())
    }

    /// Encrypts one block, calling `after_round(i)` after round `i`. The
    /// rounds form one serial dependency chain of about ten cycles each;
    /// the hook lets a caller thread independent work through that chain
    /// so the core runs both in the same cycles.
    #[inline(always)]
    fn encrypt_rounds(&self, block: u64, mut after_round: impl FnMut(usize)) -> u64 {
        let (mut l, mut r) = ((block >> 32) as u32, block as u32);
        for (i, &k) in self.round_keys.iter().enumerate() {
            (l, r) = (r, l ^ round_fn(r, k));
            after_round(i);
        }
        // Final swap, as in DES.
        (u64::from(r) << 32) | u64::from(l)
    }

    /// Decrypts one 64-bit block.
    #[inline]
    pub fn decrypt_block(&self, block: u64) -> u64 {
        self.decrypt_lanes([block], |_| ())[0]
    }

    /// Decrypts `N` independent blocks with their rounds interleaved,
    /// calling `after_round(i)` after round `i` of all of them. Each
    /// block's rounds are a serial chain; `N` chains side by side keep the
    /// ALUs busy in the cycles one chain spends waiting on its multiply.
    #[inline(always)]
    fn decrypt_lanes<const N: usize>(
        &self,
        blocks: [u64; N],
        mut after_round: impl FnMut(usize),
    ) -> [u64; N] {
        let mut r = blocks.map(|b| (b >> 32) as u32);
        let mut l = blocks.map(|b| b as u32);
        for (i, &k) in self.round_keys.iter().rev().enumerate() {
            for (l, r) in l.iter_mut().zip(&mut r) {
                (*r, *l) = (*l, *r ^ round_fn(*l, k));
            }
            after_round(i);
        }
        std::array::from_fn(|i| (u64::from(l[i]) << 32) | u64::from(r[i]))
    }

    /// CBC-encrypts `data` in place. `data.len()` must be a multiple of
    /// [`BLOCK`]; the caller pads first (ESP does).
    ///
    /// # Panics
    /// Panics on unpadded input.
    pub fn cbc_encrypt(&self, iv: u64, data: &mut [u8]) {
        self.cbc_encrypt_each(iv, data, |_| ());
    }

    /// [`cbc_encrypt`](Self::cbc_encrypt) that also hands every ciphertext
    /// byte, in order, to `absorb`. CBC encryption is serial (each block
    /// chains on the previous ciphertext), so a block's bytes are absorbed
    /// during the next block's rounds, one every other round: ESP's ICV
    /// then costs almost nothing on top of the cipher.
    #[inline]
    pub(crate) fn cbc_encrypt_each(&self, iv: u64, data: &mut [u8], mut absorb: impl FnMut(u8)) {
        assert!(data.len().is_multiple_of(BLOCK), "CBC input must be block-aligned");
        let mut blocks = data.chunks_exact_mut(BLOCK);
        let Some(first) = blocks.next() else { return };
        let mut prev = self.encrypt_block(load(first) ^ iv);
        first.copy_from_slice(&prev.to_be_bytes());
        for chunk in blocks {
            let done = prev.to_be_bytes();
            prev = self.encrypt_rounds(load(chunk) ^ prev, |i| {
                if i % 2 == 1 {
                    absorb(done[i / 2]);
                }
            });
            chunk.copy_from_slice(&prev.to_be_bytes());
        }
        prev.to_be_bytes().into_iter().for_each(absorb);
    }

    /// CBC-decrypts `data` in place.
    ///
    /// # Panics
    /// Panics on unpadded input.
    pub fn cbc_decrypt(&self, iv: u64, data: &mut [u8]) {
        self.cbc_decrypt_each(iv, data, |_| ());
    }

    /// [`cbc_decrypt`](Self::cbc_decrypt) that also hands every ciphertext
    /// byte, in order, to `absorb` before it is overwritten. CBC
    /// decryption is block-parallel (plaintext `i` needs only ciphertexts
    /// `i` and `i − 1`), so blocks are decrypted [`LANES`] at a time with
    /// interleaved rounds, and the group's ciphertext is absorbed a few
    /// bytes per round alongside them.
    #[inline]
    pub(crate) fn cbc_decrypt_each(&self, iv: u64, data: &mut [u8], mut absorb: impl FnMut(u8)) {
        const PER_ROUND: usize = LANES * BLOCK / ROUNDS;
        assert!(data.len().is_multiple_of(BLOCK), "CBC input must be block-aligned");
        let mut prev = iv;
        let mut groups = data.chunks_exact_mut(LANES * BLOCK);
        for group in &mut groups {
            let ct: [u8; LANES * BLOCK] = (&*group).try_into().expect("a whole group");
            let c: [u64; LANES] = std::array::from_fn(|i| load(&ct[i * BLOCK..]));
            let p = self.decrypt_lanes(c, |i| {
                ct[i * PER_ROUND..][..PER_ROUND].iter().for_each(|&b| absorb(b));
            });
            for (i, chunk) in group.chunks_exact_mut(BLOCK).enumerate() {
                let chain = if i == 0 { prev } else { c[i - 1] };
                chunk.copy_from_slice(&(p[i] ^ chain).to_be_bytes());
            }
            prev = c[LANES - 1];
        }
        for chunk in groups.into_remainder().chunks_exact_mut(BLOCK) {
            let c = load(chunk);
            c.to_be_bytes().into_iter().for_each(&mut absorb);
            chunk.copy_from_slice(&(self.decrypt_block(c) ^ prev).to_be_bytes());
            prev = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_roundtrip() {
        let c = FeistelCipher::new(0xDEAD_BEEF_CAFE_F00D);
        for p in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(c.decrypt_block(c.encrypt_block(p)), p);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = FeistelCipher::new(1);
        let b = FeistelCipher::new(2);
        assert_ne!(a.encrypt_block(42), b.encrypt_block(42));
    }

    #[test]
    fn encryption_is_not_identity_and_diffuses() {
        let c = FeistelCipher::new(7);
        let e0 = c.encrypt_block(0);
        let e1 = c.encrypt_block(1);
        assert_ne!(e0, 0);
        // One flipped plaintext bit should flip many ciphertext bits.
        assert!((e0 ^ e1).count_ones() > 10, "poor diffusion: {:064b}", e0 ^ e1);
    }

    #[test]
    fn cbc_roundtrip_and_chaining() {
        let c = FeistelCipher::new(99);
        let mut data = (0u8..64).collect::<Vec<_>>();
        let orig = data.clone();
        c.cbc_encrypt(0x1111, &mut data);
        assert_ne!(data, orig);
        // Identical plaintext blocks must encrypt differently under CBC.
        let mut rep = vec![0xAB; 32];
        c.cbc_encrypt(0x2222, &mut rep);
        assert_ne!(rep[0..8], rep[8..16]);
        c.cbc_decrypt(0x1111, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn cbc_wrong_iv_garbles_first_block_only() {
        let c = FeistelCipher::new(5);
        let mut data = vec![7u8; 24];
        c.cbc_encrypt(123, &mut data);
        c.cbc_decrypt(124, &mut data);
        assert_ne!(&data[..8], &[7u8; 8][..]);
        assert_eq!(&data[8..], &[7u8; 16][..]);
    }

    #[test]
    fn lane_decrypt_matches_block_decrypt_at_every_length() {
        // Lengths around multiples of the lane group exercise both the
        // interleaved loop and the one-block remainder.
        let c = FeistelCipher::new(0x0BAD_F00D);
        for blocks in 0..=3 * LANES + 1 {
            let plain: Vec<u8> = (0..blocks * BLOCK).map(|i| (i * 13 + 1) as u8).collect();
            let mut ct = plain.clone();
            c.cbc_encrypt(77, &mut ct);
            let mut serial = ct.clone();
            let mut prev = 77;
            for chunk in serial.chunks_exact_mut(BLOCK) {
                let x = load(chunk);
                chunk.copy_from_slice(&(c.decrypt_block(x) ^ prev).to_be_bytes());
                prev = x;
            }
            assert_eq!(serial, plain);
            let mut seen = Vec::new();
            c.cbc_decrypt_each(77, &mut ct, |b| seen.push(b));
            assert_eq!(ct, plain, "{blocks} blocks");
            let mut again = plain.clone();
            let mut absorbed = Vec::new();
            c.cbc_encrypt_each(77, &mut again, |b| absorbed.push(b));
            assert_eq!(seen, again, "decryption absorbs the ciphertext in order");
            assert_eq!(absorbed, again, "encryption absorbs the ciphertext in order");
        }
    }

    #[test]
    fn pinned_ciphertext() {
        // Recorded from the original one-block-at-a-time implementation.
        let c = FeistelCipher::new(0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(c.encrypt_block(0x0123_4567_89AB_CDEF), 0xa100_f602_df8a_e1ef);
        let mut data = (0u8..40).collect::<Vec<_>>();
        c.cbc_encrypt(0x1111, &mut data);
        assert_eq!(load(&data[32..]), 0xeb60_3fdc_3b9c_cc55);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn cbc_rejects_unaligned() {
        FeistelCipher::new(1).cbc_encrypt(0, &mut [0u8; 7]);
    }
}
