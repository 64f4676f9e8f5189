//! # netsim-net — packet formats and address machinery
//!
//! Foundation crate for the MPLS VPN emulator: IPv4 addressing and CIDR
//! prefixes, a longest-prefix-match trie, the packet model shared by every
//! other crate, and wire serialization for all supported headers.
//!
//! The emulator's routers operate on the *structured* representation
//! ([`Packet`], a stack of [`Layer`]s over an opaque payload) so that the hot
//! forwarding path never re-parses bytes. Wire encoding/decoding
//! ([`wire`]) exists so that (a) IPsec can encrypt a *real* serialization of
//! the inner packet — making the paper's "encryption erases QoS visibility"
//! claim physically true in the emulator — and (b) property tests can verify
//! that every structured packet round-trips through its wire form.
//!
//! Nothing in this crate knows about simulation time, queueing, or routing
//! protocols; those live in `netsim-sim`, `netsim-qos`, and `netsim-routing`.
//!
//! # Example
//!
//! ```
//! use netsim_net::{Dscp, LpmTrie, Packet, Prefix};
//!
//! // A forwarding table with two routes.
//! let mut fib: LpmTrie<&str> = LpmTrie::new();
//! fib.insert("10.0.0.0/8".parse().unwrap(), "core");
//! fib.insert("10.1.0.0/16".parse().unwrap(), "customer");
//!
//! // Longest prefix wins.
//! let dst = "10.1.2.3".parse().unwrap();
//! assert_eq!(fib.lookup(dst), Some(&"customer"));
//!
//! // Packets round-trip through the wire codec.
//! let pkt = Packet::udp("10.1.2.3".parse().unwrap(), dst, 1000, 53, Dscp::EF, 64);
//! let bytes = netsim_net::wire::encode(&pkt).unwrap();
//! let back = netsim_net::wire::decode(&bytes).unwrap();
//! assert_eq!(back.layers(), pkt.layers());
//! # let _: Prefix = "0.0.0.0/0".parse().unwrap();
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod dscp;
pub mod error;
pub mod fr;
pub mod ip;
pub mod lpm;
pub mod mpls;
pub mod packet;
pub mod transport;
pub mod wire;

pub use addr::{Ip, Prefix};
/// The payload buffer types, so payload writers need no direct dependency.
pub use bytes::{Bytes, BytesMut};
pub use dscp::Dscp;
pub use error::NetError;
pub use fr::VcHeader;
pub use ip::{proto, Ipv4Header};
pub use lpm::{LpmCache, LpmTrie};
pub use mpls::{MplsLabel, EXPLICIT_NULL, IMPLICIT_NULL, MAX_LABEL, MIN_UNRESERVED_LABEL};
pub use packet::{Layer, Packet, Pkt, PktMeta};
pub use transport::{FiveTuple, TcpHeader, UdpHeader};
