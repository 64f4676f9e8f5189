//! Wire serialization for the packet model.
//!
//! A frame is a 2-byte ethertype followed by the layer headers and payload.
//! The emulator needs real bytes in exactly three places: IPsec (which must
//! encrypt a genuine serialization of the inner packet), byte-accurate link
//! accounting, and the round-trip property tests; routers otherwise stay on
//! the structured [`Packet`] form.

use bytes::Bytes;

use crate::addr::Ip;
use crate::dscp::Dscp;
use crate::error::NetError;
use crate::fr::VcHeader;
use crate::ip::{internet_checksum, proto, Ipv4Header, IPV4_HEADER_LEN};
use crate::mpls::MplsLabel;
use crate::packet::{EspHeader, Layer, LayerStack, Packet, ESP_HEADER_LEN};
use crate::transport::{TcpHeader, UdpHeader, TCP_HEADER_LEN, UDP_HEADER_LEN};

/// Ethertype for MPLS unicast.
pub const ETHERTYPE_MPLS: u16 = 0x8847;
/// Ethertype for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// Ethertype used by the emulator for the frame-relay-like VC encapsulation.
pub const ETHERTYPE_VC: u16 = 0x6559;

/// Size in bytes of `pkt`'s wire form: the ethertype plus
/// [`Packet::wire_len`].
pub fn encoded_len(pkt: &Packet) -> usize {
    2 + pkt.wire_len()
}

/// Serializes a packet to wire bytes (ethertype + headers + payload).
///
/// Returns an error if the layer stack is not encodable (e.g. a transport
/// header with no IPv4 above it, or an MPLS stack whose payload is not IPv4).
pub fn encode(pkt: &Packet) -> Result<Vec<u8>, NetError> {
    let mut out = vec![0; encoded_len(pkt)];
    encode_into(pkt, &mut out)?;
    Ok(out)
}

/// Serializes a packet into `out`, which must be exactly
/// [`encoded_len`]`(pkt)` bytes long. Lets a caller place the wire form
/// inside a larger buffer (ESP writes it between the IV and the trailer).
/// On error the contents of `out` are unspecified.
///
/// # Panics
/// Panics if `out` has the wrong length.
pub fn encode_into(pkt: &Packet, out: &mut [u8]) -> Result<(), NetError> {
    assert_eq!(out.len(), encoded_len(pkt), "encode_into needs an exactly sized buffer");
    let ethertype = match pkt.layers().first() {
        Some(Layer::Mpls(_)) => ETHERTYPE_MPLS,
        Some(Layer::Ipv4(_)) => ETHERTYPE_IPV4,
        Some(Layer::Vc(_)) => ETHERTYPE_VC,
        _ => return Err(NetError::bad_field("frame", "first layer", 0)),
    };
    let mut w = Writer { buf: out, pos: 0 };
    w.put(&ethertype.to_be_bytes());

    let layers = pkt.layers();
    for (i, layer) in layers.iter().enumerate() {
        // Bytes that will follow this layer's header on the wire.
        let remaining = w.buf.len() - w.pos - layer.wire_len();
        match layer {
            Layer::Mpls(l) => {
                let bos = !matches!(layers.get(i + 1), Some(Layer::Mpls(_)));
                if bos && !matches!(layers.get(i + 1), Some(Layer::Ipv4(_))) {
                    return Err(NetError::bad_field("mpls", "payload type", i as u64));
                }
                w.put(&l.encode(bos).to_be_bytes());
            }
            Layer::Ipv4(h) => encode_ipv4(&mut w, h, remaining),
            Layer::Udp(u) => {
                w.put(&u.src_port.to_be_bytes());
                w.put(&u.dst_port.to_be_bytes());
                let len = (UDP_HEADER_LEN + remaining) as u16;
                w.put(&len.to_be_bytes());
                w.put(&0u16.to_be_bytes()); // checksum unused
            }
            Layer::Tcp(t) => {
                w.put(&t.src_port.to_be_bytes());
                w.put(&t.dst_port.to_be_bytes());
                w.put(&t.seq.to_be_bytes());
                w.put(&t.ack.to_be_bytes());
                w.put(&[5 << 4, t.flags]); // data offset (no options), flags
                w.put(&0xFFFFu16.to_be_bytes()); // window
                w.put(&0u16.to_be_bytes()); // checksum unused
                w.put(&0u16.to_be_bytes()); // urgent
            }
            Layer::Esp(e) => {
                w.put(&e.spi.to_be_bytes());
                w.put(&e.seq.to_be_bytes());
            }
            Layer::Vc(v) => {
                if !matches!(layers.get(i + 1), Some(Layer::Ipv4(_))) {
                    return Err(NetError::bad_field("vc", "payload type", i as u64));
                }
                w.put(&v.encode().to_be_bytes());
            }
        }
    }
    w.put(&pkt.payload);
    Ok(())
}

/// Sequential writer over a pre-sized output buffer.
struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Writer<'_> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }
}

fn encode_ipv4(w: &mut Writer<'_>, h: &Ipv4Header, remaining: usize) {
    let start = w.pos;
    let total = (IPV4_HEADER_LEN + remaining) as u16;
    w.put(&[0x45, h.tos()]); // version 4, IHL 5
    w.put(&total.to_be_bytes());
    w.put(&h.id.to_be_bytes());
    w.put(&0x4000u16.to_be_bytes()); // DF, no fragments
    w.put(&[h.ttl, h.protocol]);
    w.put(&0u16.to_be_bytes()); // checksum placeholder
    w.put(&h.src.0.to_be_bytes());
    w.put(&h.dst.0.to_be_bytes());
    let hdr = &mut w.buf[start..start + IPV4_HEADER_LEN];
    let ck = internet_checksum(hdr);
    hdr[10..12].copy_from_slice(&ck.to_be_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], NetError> {
        if self.buf.len() - self.pos < n {
            return Err(NetError::truncated(what, n, self.buf.len() - self.pos));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, NetError> {
        let s = self.take(2, what)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, NetError> {
        let s = self.take(4, what)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Parses wire bytes back into a structured packet. The returned packet has
/// default (zeroed) simulation metadata.
pub fn decode(buf: &[u8]) -> Result<Packet, NetError> {
    let (layers, hdr_end) = decode_layers(buf)?;
    Ok(Packet::from_stack(layers, Bytes::copy_from_slice(&buf[hdr_end..])))
}

/// [`decode`] for a frame that is already a [`Bytes`]: the packet's
/// payload is a view into `buf` rather than a copy.
pub fn decode_shared(buf: &Bytes) -> Result<Packet, NetError> {
    let (layers, hdr_end) = decode_layers(buf)?;
    Ok(Packet::from_stack(layers, buf.slice(hdr_end..)))
}

/// Parses the layer headers; returns them with the offset where the
/// payload starts.
fn decode_layers(buf: &[u8]) -> Result<(LayerStack, usize), NetError> {
    let mut cur = Cursor { buf, pos: 0 };
    let ethertype = cur.u16("ethertype")?;
    let mut layers = LayerStack::new();
    match ethertype {
        ETHERTYPE_MPLS => {
            loop {
                let (entry, bos) = MplsLabel::decode(cur.u32("mpls entry")?);
                layers.push_back(Layer::Mpls(entry));
                if bos {
                    break;
                }
            }
            decode_ipv4_chain(&mut cur, &mut layers)?;
        }
        ETHERTYPE_IPV4 => decode_ipv4_chain(&mut cur, &mut layers)?,
        ETHERTYPE_VC => {
            layers.push_back(Layer::Vc(VcHeader::decode(cur.u32("vc header")?)));
            decode_ipv4_chain(&mut cur, &mut layers)?;
        }
        other => return Err(NetError::UnknownProtocol(other)),
    }
    Ok((layers, cur.pos))
}

/// Parses an IPv4 header chain. IP-in-IP nests one more header per
/// level; the walk is a loop, so the depth is bounded by the frame length,
/// not by the stack.
fn decode_ipv4_chain(cur: &mut Cursor<'_>, layers: &mut LayerStack) -> Result<(), NetError> {
    while decode_ipv4(cur, layers)? == proto::IPIP {}
    Ok(())
}

/// Parses one IPv4 header and the transport header it carries; returns
/// its protocol.
fn decode_ipv4(cur: &mut Cursor<'_>, layers: &mut LayerStack) -> Result<u8, NetError> {
    let start = cur.pos;
    let hdr = cur.take(IPV4_HEADER_LEN, "ipv4 header")?;
    if hdr[0] != 0x45 {
        return Err(NetError::bad_field("ipv4", "version/ihl", u64::from(hdr[0])));
    }
    if internet_checksum(hdr) != 0 {
        return Err(NetError::BadChecksum);
    }
    let tos = hdr[1];
    let total_len = usize::from(u16::from_be_bytes([hdr[2], hdr[3]]));
    let id = u16::from_be_bytes([hdr[4], hdr[5]]);
    let ttl = hdr[8];
    let protocol = hdr[9];
    let src = Ip(u32::from_be_bytes([hdr[12], hdr[13], hdr[14], hdr[15]]));
    let dst = Ip(u32::from_be_bytes([hdr[16], hdr[17], hdr[18], hdr[19]]));
    let body_len = cur.buf.len() - start;
    if total_len != body_len {
        return Err(NetError::bad_field("ipv4", "total length", total_len as u64));
    }
    layers.push_back(Layer::Ipv4(Ipv4Header {
        src,
        dst,
        dscp: Dscp::new(tos >> 2),
        ecn: tos & 0x3,
        ttl,
        protocol,
        id,
    }));
    match protocol {
        proto::UDP => {
            let u = cur.take(UDP_HEADER_LEN, "udp header")?;
            let len = usize::from(u16::from_be_bytes([u[4], u[5]]));
            if len != UDP_HEADER_LEN + cur.remaining() {
                return Err(NetError::bad_field("udp", "length", len as u64));
            }
            layers.push_back(Layer::Udp(UdpHeader {
                src_port: u16::from_be_bytes([u[0], u[1]]),
                dst_port: u16::from_be_bytes([u[2], u[3]]),
            }));
        }
        proto::TCP => {
            let t = cur.take(TCP_HEADER_LEN, "tcp header")?;
            if t[12] >> 4 != 5 {
                return Err(NetError::bad_field("tcp", "data offset", u64::from(t[12] >> 4)));
            }
            layers.push_back(Layer::Tcp(TcpHeader {
                src_port: u16::from_be_bytes([t[0], t[1]]),
                dst_port: u16::from_be_bytes([t[2], t[3]]),
                seq: u32::from_be_bytes([t[4], t[5], t[6], t[7]]),
                ack: u32::from_be_bytes([t[8], t[9], t[10], t[11]]),
                flags: t[13],
            }));
        }
        proto::ESP => {
            let e = cur.take(ESP_HEADER_LEN, "esp header")?;
            layers.push_back(Layer::Esp(EspHeader {
                spi: u32::from_be_bytes([e[0], e[1], e[2], e[3]]),
                seq: u32::from_be_bytes([e[4], e[5], e[6], e[7]]),
            }));
        }
        // IP-in-IP: the caller parses the inner header. CONTROL and
        // anything else: the rest of the frame is opaque payload.
        _ => {}
    }
    Ok(protocol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ip;

    fn assert_roundtrip(p: &Packet) {
        let bytes = encode(p).expect("encode");
        let back = decode(&bytes).expect("decode");
        assert_eq!(back.layers(), p.layers());
        assert_eq!(back.payload, p.payload);
        assert_eq!(bytes.len(), encoded_len(p));
        let shared = decode_shared(&Bytes::from(bytes)).expect("decode_shared");
        assert_eq!(shared, back);
    }

    #[test]
    fn udp_roundtrip() {
        assert_roundtrip(&Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1234, 80, Dscp::AF21, 37));
    }

    #[test]
    fn tcp_roundtrip() {
        assert_roundtrip(&Packet::tcp(ip("10.0.0.1"), ip("10.9.0.2"), 99, 443, Dscp::BE, 7, 1400));
    }

    #[test]
    fn labeled_roundtrip() {
        let mut p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::EF, 10);
        p.push_outer(Layer::Mpls(MplsLabel::new(9000, 5, 60)));
        p.push_outer(Layer::Mpls(MplsLabel::new(17, 5, 61)));
        assert_roundtrip(&p);
    }

    #[test]
    fn esp_roundtrip() {
        let p = Packet::new(
            vec![
                Layer::Ipv4(Ipv4Header::new(ip("1.1.1.1"), ip("2.2.2.2"), proto::ESP, Dscp::BE)),
                Layer::Esp(EspHeader { spi: 0xDEAD, seq: 42 }),
            ],
            Bytes::from(vec![1u8; 48]),
        );
        assert_roundtrip(&p);
    }

    #[test]
    fn ipip_roundtrip() {
        let mut p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::AF11, 5);
        p.push_outer(Layer::Ipv4(Ipv4Header::new(
            ip("100.0.0.1"),
            ip("100.0.0.2"),
            proto::IPIP,
            Dscp::AF11,
        )));
        assert_roundtrip(&p);
    }

    /// Nesting depth is bounded by the frame, not the stack: a 60 KB
    /// frame of 3 000 nested IPv4 headers (within the u16 total length)
    /// and a 10 000-entry MPLS stack both decode, and decoding the
    /// re-encoded result gives the same layers.
    #[test]
    fn deep_ipip_chains_and_label_stacks_decode() {
        let inner = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 5);
        let tunnel = Ipv4Header::new(ip("100.0.0.1"), ip("100.0.0.2"), proto::IPIP, Dscp::BE);
        let label = Layer::Mpls(MplsLabel::new(16, 0, 64));
        for (outer, depth) in [(Layer::Ipv4(tunnel), 2_999), (label, 10_000)] {
            let mut layers = vec![outer; depth];
            layers.extend_from_slice(inner.layers());
            let p = Packet::new(layers, inner.payload.clone());
            let back = decode(&encode(&p).expect("encode")).expect("deep frame decodes");
            assert_eq!(back.layers(), p.layers());
            let again = decode(&encode(&back).expect("re-encode")).expect("decodes again");
            assert_eq!(again.layers(), back.layers());
        }
    }

    #[test]
    fn vc_roundtrip() {
        let mut p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 5);
        p.push_outer(Layer::Vc(VcHeader::new(77, true)));
        assert_roundtrip(&p);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 5);
        let mut bytes = encode(&p).unwrap();
        bytes[2 + 14] ^= 0xFF; // flip a source-address byte
        assert_eq!(decode(&bytes), Err(NetError::BadChecksum));
    }

    #[test]
    fn truncated_frame_rejected() {
        let p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 5);
        let bytes = encode(&p).unwrap();
        assert!(matches!(decode(&bytes[..10]), Err(NetError::Truncated { .. })));
        assert!(matches!(decode(&bytes[..1]), Err(NetError::Truncated { .. })));
    }

    #[test]
    #[should_panic(expected = "exactly sized")]
    fn encode_into_rejects_wrong_size() {
        let p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 5);
        let mut out = vec![0; encoded_len(&p) + 1];
        let _ = encode_into(&p, &mut out);
    }

    #[test]
    fn unknown_ethertype_rejected() {
        assert_eq!(decode(&[0x12, 0x34, 0, 0]), Err(NetError::UnknownProtocol(0x1234)));
    }

    #[test]
    fn transport_first_layer_unencodable() {
        let p = Packet::new(vec![Layer::Udp(UdpHeader::new(1, 2))], Bytes::new());
        assert!(encode(&p).is_err());
    }

    #[test]
    fn inconsistent_total_length_rejected() {
        let p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 5);
        let mut bytes = encode(&p).unwrap();
        bytes.push(0); // trailing garbage makes total_len inconsistent
        assert!(matches!(decode(&bytes), Err(NetError::BadField { .. })));
    }
}
