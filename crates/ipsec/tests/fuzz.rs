//! Decapsulation under hostile input: arbitrary ESP payloads, malformed
//! lengths, and tampered packets. Decap must never panic, never accept
//! forged bytes, and never let a forgery move the anti-replay window —
//! the ICV is checked before the window is touched (RFC 4303 order), even
//! though the ciphertext is decrypted speculatively alongside the check.

use bytes::Bytes;
use netsim_ipsec::{decapsulate, encapsulate, IpsecError, SecurityAssociation};
use netsim_net::addr::ip;
use netsim_net::ip::proto;
use netsim_net::packet::EspHeader;
use netsim_net::{Dscp, Ipv4Header, Layer, Packet};
use proptest::prelude::*;

fn esp_packet(spi: u32, seq: u32, payload: Bytes) -> Packet {
    Packet::new(
        vec![
            Layer::Ipv4(Ipv4Header::new(ip("1.1.1.1"), ip("2.2.2.2"), proto::ESP, Dscp::BE)),
            Layer::Esp(EspHeader { spi, seq }),
        ],
        payload,
    )
}

/// `len` bytes at offset `lead` of a larger buffer, so the payload view
/// starts at any alignment of its backing storage.
fn view(bytes: &[u8], lead: usize) -> Bytes {
    let mut backing = vec![0xEE; lead];
    backing.extend_from_slice(bytes);
    Bytes::from(backing).slice(lead..)
}

fn sa(key: u64) -> SecurityAssociation {
    SecurityAssociation::new(0x3000, key | 1, key.rotate_left(29) | 1)
}

fn inner(len: usize) -> Packet {
    let mut p = Packet::udp(ip("10.1.0.5"), ip("10.2.0.9"), 16000, 16400, Dscp::EF, 0);
    p.payload = (0..len).map(|i| i as u8).collect();
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random payload bytes of any length and alignment under the SA's own
    /// SPI are rejected without panicking, and leave the window untouched.
    #[test]
    fn arbitrary_payload_never_decapsulates(
        bytes in proptest::collection::vec(any::<u8>(), 0..=2048),
        lead in 0usize..8,
        seq in any::<u32>(),
        key in any::<u64>(),
    ) {
        let mut rx = sa(key);
        let got = decapsulate(&esp_packet(rx.spi, seq, view(&bytes, lead)), &mut rx);
        prop_assert!(got.is_err(), "forged payload of {} bytes accepted", bytes.len());
        prop_assert!(
            matches!(got, Err(IpsecError::BadPadding | IpsecError::BadIcv)),
            "unexpected {:?}",
            got
        );
        prop_assert!(seq == 0 || rx.replay.check_and_update(seq), "window moved");
    }

    /// A payload shorter than IV + ICV, or whose ciphertext is not a whole
    /// number of blocks, is a framing error, reported before any crypto.
    #[test]
    fn misframed_lengths_are_bad_padding(
        len in 0usize..2048,
        fill in any::<u8>(),
        key in any::<u64>(),
    ) {
        prop_assume!(len < 16 || !(len - 16).is_multiple_of(8));
        let mut rx = sa(key);
        let pkt = esp_packet(rx.spi, 1, Bytes::from(vec![fill; len]));
        prop_assert_eq!(decapsulate(&pkt, &mut rx), Err(IpsecError::BadPadding));
    }

    /// A tampered packet carrying a fresh sequence number fails the ICV
    /// and does not advance the replay window: every genuine packet up to
    /// and including that sequence number is still accepted afterwards.
    #[test]
    fn forgery_with_fresh_seq_does_not_advance_window(
        len in 0usize..600,
        key in any::<u64>(),
        ahead in 1u32..200,
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (mut tx, mut rx) = (sa(key), sa(key));
        let genuine: Vec<Packet> = (0..=ahead)
            .map(|_| encapsulate(&inner(len), &mut tx, ip("1.1.1.1"), ip("2.2.2.2")))
            .collect();
        let target = genuine.last().expect("at least one packet");
        let mut body = target.payload.to_vec();
        let i = pos % body.len();
        body[i] ^= 1 << bit;
        let mut forged = target.clone();
        forged.payload = Bytes::from(body);
        prop_assert_eq!(decapsulate(&forged, &mut rx), Err(IpsecError::BadIcv));
        for (k, p) in genuine.iter().enumerate() {
            prop_assert!(decapsulate(p, &mut rx).is_ok(), "genuine packet {} rejected", k + 1);
        }
        prop_assert_eq!(
            decapsulate(target, &mut rx),
            Err(IpsecError::Replayed { seq: ahead + 1 })
        );
    }
}

/// The boundary lengths, spelled out: 16 bytes (IV + ICV, no ciphertext)
/// is well framed and fails on the ICV; 15 and 17 are framing errors.
#[test]
fn boundary_lengths() {
    let mut rx = sa(9);
    let spi = rx.spi;
    for (len, want) in [
        (0, IpsecError::BadPadding),
        (15, IpsecError::BadPadding),
        (16, IpsecError::BadIcv),
        (17, IpsecError::BadPadding),
        (23, IpsecError::BadPadding),
        (24, IpsecError::BadIcv),
    ] {
        let pkt = esp_packet(spi, 1, Bytes::from(vec![0u8; len]));
        assert_eq!(decapsulate(&pkt, &mut rx), Err(want), "{len} bytes");
    }
}

/// A genuine packet whose payload is shifted within its backing buffer
/// still decapsulates: nothing depends on the payload's alignment.
#[test]
fn unaligned_genuine_payload_decapsulates() {
    for lead in 0..8 {
        let (mut tx, mut rx) = (sa(11), sa(11));
        let mut outer = encapsulate(&inner(333), &mut tx, ip("1.1.1.1"), ip("2.2.2.2"));
        outer.payload = view(&outer.payload, lead);
        let got = decapsulate(&outer, &mut rx).expect("decap");
        assert_eq!(got.payload, inner(333).payload);
    }
}
