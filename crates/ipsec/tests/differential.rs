//! Differential tests: the production ESP path against a straightforward
//! reference implementation.
//!
//! `reference` is the original multi-pass ESP code kept verbatim: encode the
//! inner packet, pad, CBC-encrypt, copy IV‖ciphertext into the payload,
//! materialize the authenticated scope and hash it. The production path
//! fuses those passes; every test here holds it to the reference's exact
//! wire bytes and error behaviour.

use bytes::Bytes;
use netsim_ipsec::{decapsulate, encapsulate, SecurityAssociation};
use netsim_net::addr::ip;
use netsim_net::{Dscp, Ip, Packet};
use proptest::prelude::*;

mod reference {
    use bytes::Bytes;
    use netsim_ipsec::auth::{icv, verify, ICV_LEN};
    use netsim_ipsec::cipher::{FeistelCipher, BLOCK};
    use netsim_ipsec::{IpsecError, SecurityAssociation};
    use netsim_net::ip::proto;
    use netsim_net::packet::EspHeader;
    use netsim_net::{wire, Dscp, Ip, Ipv4Header, Layer, Packet};

    pub(super) fn encapsulate(
        inner: &Packet,
        sa: &mut SecurityAssociation,
        outer_src: Ip,
        outer_dst: Ip,
    ) -> Packet {
        let inner_bytes = wire::encode(inner).expect("inner packet must be encodable");
        let seq = sa.next_seq();

        let mut body = inner_bytes;
        let unpadded = body.len() + 2;
        let pad = (BLOCK - unpadded % BLOCK) % BLOCK;
        body.extend(std::iter::repeat_n(0u8, pad));
        body.push(pad as u8);
        body.push(0x04);

        let cipher = FeistelCipher::new(sa.enc_key);
        let iv = cipher.encrypt_block(u64::from(seq) ^ 0xA5A5_5A5A_0F0F_F0F0);
        cipher.cbc_encrypt(iv, &mut body);

        let mut payload = Vec::with_capacity(BLOCK + body.len() + ICV_LEN);
        payload.extend_from_slice(&iv.to_be_bytes());
        payload.extend_from_slice(&body);
        let mut auth_scope = Vec::with_capacity(8 + payload.len());
        auth_scope.extend_from_slice(&sa.spi.to_be_bytes());
        auth_scope.extend_from_slice(&seq.to_be_bytes());
        auth_scope.extend_from_slice(&payload);
        payload.extend_from_slice(&icv(sa.auth_key, &auth_scope));

        let outer_dscp = if sa.copy_dscp {
            inner.outer_ipv4().map(|h| h.dscp).unwrap_or(Dscp::BE)
        } else {
            Dscp::BE
        };
        let mut outer = Packet::new(
            vec![
                Layer::Ipv4(Ipv4Header::new(outer_src, outer_dst, proto::ESP, outer_dscp)),
                Layer::Esp(EspHeader { spi: sa.spi, seq }),
            ],
            Bytes::from(payload),
        );
        outer.meta = inner.meta;
        outer
    }

    pub(super) fn decapsulate(
        outer: &Packet,
        sa: &mut SecurityAssociation,
    ) -> Result<Packet, IpsecError> {
        let esp = match (outer.layers().first(), outer.layers().get(1)) {
            (Some(Layer::Ipv4(h)), Some(Layer::Esp(e))) if h.protocol == proto::ESP => *e,
            _ => return Err(IpsecError::NotEsp),
        };
        if esp.spi != sa.spi {
            return Err(IpsecError::WrongSpi { got: esp.spi });
        }
        let payload = &outer.payload;
        if payload.len() < BLOCK + ICV_LEN
            || !(payload.len() - BLOCK - ICV_LEN).is_multiple_of(BLOCK)
        {
            return Err(IpsecError::BadPadding);
        }
        let (body, tag) = payload.split_at(payload.len() - ICV_LEN);
        let mut auth_scope = Vec::with_capacity(8 + body.len());
        auth_scope.extend_from_slice(&esp.spi.to_be_bytes());
        auth_scope.extend_from_slice(&esp.seq.to_be_bytes());
        auth_scope.extend_from_slice(body);
        if !verify(sa.auth_key, &auth_scope, tag) {
            return Err(IpsecError::BadIcv);
        }
        if !sa.replay.check_and_update(esp.seq) {
            return Err(IpsecError::Replayed { seq: esp.seq });
        }

        let iv = u64::from_be_bytes(body[..BLOCK].try_into().expect("checked length"));
        let mut ct = body[BLOCK..].to_vec();
        let cipher = FeistelCipher::new(sa.enc_key);
        cipher.cbc_decrypt(iv, &mut ct);

        if ct.len() < 2 {
            return Err(IpsecError::BadPadding);
        }
        let next_hdr = ct[ct.len() - 1];
        let pad_len = ct[ct.len() - 2] as usize;
        if next_hdr != 0x04 || pad_len + 2 > ct.len() {
            return Err(IpsecError::BadPadding);
        }
        let inner_len = ct.len() - 2 - pad_len;
        if !ct[inner_len..ct.len() - 2].iter().all(|&b| b == 0) {
            return Err(IpsecError::BadPadding);
        }
        let mut inner = wire::decode(&ct[..inner_len]).map_err(IpsecError::BadInner)?;
        inner.meta = outer.meta;
        Ok(inner)
    }
}

/// Inner packets of 0–1500 payload bytes, TCP or UDP, with random
/// addresses, ports, marking and simulation metadata.
fn arb_inner() -> impl Strategy<Value = Packet> {
    (
        (any::<u32>(), any::<u32>(), 0u8..64, any::<u16>(), any::<u16>()),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..=1500),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|((src, dst, dscp, sp, dp), tcp, payload, (flow, seq, created))| {
            let d = Dscp::new(dscp);
            let mut pkt = if tcp {
                Packet::tcp(Ip(src), Ip(dst), sp, dp, d, seq as u32, 0)
            } else {
                Packet::udp(Ip(src), Ip(dst), sp, dp, d, 0)
            };
            pkt.payload = Bytes::from(payload);
            pkt.meta.flow = flow;
            pkt.meta.seq = seq;
            pkt.meta.created_ns = created;
            pkt
        })
}

/// A random SA pair (sender, receiver) with identical keys, a random SPI,
/// a random starting sequence number that never wraps to the invalid
/// sequence number 0 within a test, and random DSCP copying.
fn arb_sa() -> impl Strategy<Value = SecurityAssociation> {
    (any::<u32>(), any::<u64>(), any::<u64>(), 0u32..u32::MAX - 8, any::<bool>()).prop_map(
        |(spi, enc, auth, start, copy)| {
            let mut sa = SecurityAssociation::new(spi, enc, auth);
            sa.seq = start;
            sa.copy_dscp = copy;
            sa
        },
    )
}

fn assert_same_packet(a: &Packet, b: &Packet) {
    assert_eq!(a.layers(), b.layers());
    assert_eq!(a.payload, b.payload);
    assert_eq!(a.meta, b.meta);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Encapsulation produces the reference's exact outer layers, payload
    /// bytes and metadata, and each side decapsulates the other's output.
    #[test]
    fn encap_matches_reference(inner in arb_inner(), sa in arb_sa()) {
        let (src, dst) = (ip("198.51.100.1"), ip("198.51.100.2"));
        let (mut tx_fast, mut tx_ref) = (sa.clone(), sa.clone());
        let fast = encapsulate(&inner, &mut tx_fast, src, dst);
        let slow = reference::encapsulate(&inner, &mut tx_ref, src, dst);
        assert_same_packet(&fast, &slow);
        prop_assert_eq!(tx_fast.seq, tx_ref.seq);

        let mut rx_ref = sa.clone();
        let via_ref = reference::decapsulate(&fast, &mut rx_ref).expect("reference decap");
        assert_same_packet(&via_ref, &inner);
        let mut rx_fast = sa.clone();
        let via_fast = decapsulate(&slow, &mut rx_fast).expect("production decap");
        assert_same_packet(&via_fast, &inner);
    }

    /// On any mutation of a valid packet — one flipped payload bit, a
    /// truncation, or a forged sequence number — both decapsulators return
    /// the same result and leave the replay window in the same state.
    #[test]
    fn decap_errors_match_reference(
        inner in arb_inner(),
        sa in arb_sa(),
        pos in any::<usize>(),
        bit in 0u8..8,
        cut in 0usize..40,
        mode in 0u8..3,
    ) {
        let mut tx = sa.clone();
        let outer = encapsulate(&inner, &mut tx, ip("1.1.1.1"), ip("2.2.2.2"));
        let mut body = outer.payload.to_vec();
        match mode {
            0 => {
                let i = pos % body.len();
                body[i] ^= 1 << bit;
            }
            1 => body.truncate(body.len().saturating_sub(cut)),
            _ => {}
        }
        let mut forged = outer.clone();
        forged.payload = Bytes::from(body);
        if mode == 2 {
            let layers: Vec<_> = outer
                .layers()
                .iter()
                .map(|l| match *l {
                    netsim_net::Layer::Esp(mut e) => {
                        e.seq = e.seq.wrapping_add(1 + pos as u32 % 100);
                        netsim_net::Layer::Esp(e)
                    }
                    other => other,
                })
                .collect();
            let mut p = Packet::new(layers, forged.payload.clone());
            p.meta = forged.meta;
            forged = p;
        }
        let (mut rx_fast, mut rx_ref) = (sa.clone(), sa.clone());
        let got = decapsulate(&forged, &mut rx_fast);
        let want = reference::decapsulate(&forged, &mut rx_ref);
        prop_assert_eq!(&got, &want);
        prop_assert!(mode == 1 && cut == 0 || got.is_err());
        // The genuine packet afterwards meets identical replay state.
        prop_assert_eq!(decapsulate(&outer, &mut rx_fast), reference::decapsulate(&outer, &mut rx_ref));
    }
}

/// FNV-1a over the ESP payload: a compact fingerprint of the wire bytes.
fn fnv64(data: &[u8]) -> u64 {
    data.iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Known-answer test: the ESP payload for one fixed SA and inner packet at
/// four sizes, pinned to digests recorded from the original multi-pass
/// implementation. Any change to the cipher, the ICV, padding or framing
/// moves these.
#[test]
fn known_answer_payload_digests() {
    const PINS: [(usize, u64); 4] = [
        (0, 0xf293_3b4e_93e5_dab9),
        (64, 0x3850_abca_7f07_ed34),
        (1000, 0xf816_6bbe_bcdf_5a28),
        (1400, 0xfc18_d100_f5b6_a1b9),
    ];
    for (size, want) in PINS {
        let mut sa = SecurityAssociation::new(0x1001, 0xAAAA_BBBB_CCCC_DDDD, 0x1234_5678_9ABC_DEF0);
        let mut inner = Packet::udp(ip("10.1.0.5"), ip("10.2.0.9"), 16000, 16400, Dscp::EF, 0);
        inner.payload = (0..size).map(|i| (i * 7 + 3) as u8).collect();
        let outer = encapsulate(&inner, &mut sa, ip("198.51.100.1"), ip("198.51.100.2"));
        let got = fnv64(&outer.payload);
        assert_eq!(got, want, "ESP payload digest at {size} B");
    }
}
