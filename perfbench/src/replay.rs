//! Per-layer cost replays: the workload's own live tables, SAs and packet
//! sizes pushed through each layer's public API in a tight, timed loop.
//! Inputs are built outside the timed region; each figure is the median
//! over several batches.

use std::any::Any;
use std::hint::black_box;
use std::time::Instant;

use mplsvpn_core::ipsec_vpn::IpsecGateway;
use mplsvpn_core::{CoreRouter, DropCause, FlightRecorder, PeRouter};
use netsim_ipsec::{decapsulate, encapsulate};
use netsim_net::Pkt;
use netsim_net::{Dscp, Ip, Layer, LpmCache, LpmTrie, MplsLabel, Packet, Prefix};
use netsim_routing::Igp;
use netsim_sim::{CbrSource, Ctx, IfaceId, LinkConfig, Network, Node, NodeId, Sink, SourceConfig};

use crate::trace::Tracer;
use crate::workloads::{Built, Net};

const BATCHES: usize = 9;

/// Host costs of single layer operations, as replayed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCosts {
    /// Engine cost per calendar event (relay-chain difference).
    pub sim_ns_per_event: f64,
    /// One `Lfib::forward` on a live LFIB entry.
    pub mpls_ns_per_forward: f64,
    /// One `LpmTrie::lookup_cached` that hits its memo.
    pub lpm_ns_cached: f64,
    /// One plain `LpmTrie::lookup` (the walk a cache miss pays).
    pub lpm_ns_uncached: f64,
    /// One ESP `encapsulate` of a workload-sized packet.
    pub ipsec_ns_encap: f64,
    /// One ESP `decapsulate` of that packet.
    pub ipsec_ns_decap: f64,
    /// One `FlightRecorder::record`.
    pub obs_ns_per_record: f64,
    /// One `ProviderNetwork::metrics_snapshot`, ms.
    pub obs_snapshot_ms: f64,
    /// One `Igp::converge` over the workload's backbone, µs.
    pub igp_converge_us: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median over batches of ns per operation. `prepare` builds a batch's
/// inputs untimed; `op` runs one batch and returns its operation count.
fn per_op<T>(mut prepare: impl FnMut() -> T, mut op: impl FnMut(T) -> usize) -> f64 {
    let samples = (0..BATCHES)
        .map(|_| {
            let input = prepare();
            let t = Instant::now();
            let ops = op(input);
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(samples)
}

/// Runs every replay that applies to the workload, each inside a span.
pub fn measure(b: &Built, tracer: &mut Tracer) -> LayerCosts {
    let mut c = LayerCosts::default();
    let s = tracer.enter("replay.sim");
    c.sim_ns_per_event = sim_ns_per_event(b.payload);
    tracer.exit(s);
    let s = tracer.enter("replay.routing.igp_converge");
    c.igp_converge_us = per_op(
        || (),
        |()| {
            black_box(Igp::converge(black_box(&b.topo)));
            1
        },
    ) / 1e3;
    tracer.exit(s);
    let s = tracer.enter("replay.obs.record");
    c.obs_ns_per_record = record_ns(b);
    tracer.exit(s);
    let s = tracer.enter("replay.net.lpm");
    (c.lpm_ns_cached, c.lpm_ns_uncached) = lpm_ns(b);
    tracer.exit(s);
    match &b.net {
        Net::Mpls(pn) => {
            let s = tracer.enter("replay.mpls.forward");
            c.mpls_ns_per_forward = lfib_ns(b);
            tracer.exit(s);
            let s = tracer.enter("replay.obs.snapshot");
            c.obs_snapshot_ms = per_op(
                || (),
                |()| {
                    black_box(pn.metrics_snapshot());
                    1
                },
            ) / 1e6;
            tracer.exit(s);
        }
        Net::Ipsec(_) => {
            let s = tracer.enter("replay.ipsec");
            (c.ipsec_ns_encap, c.ipsec_ns_decap) = esp_ns(b);
            tracer.exit(s);
        }
    }
    c
}

/// Forwards every packet out of its second interface: a hop with no
/// routing work at all.
struct Relay;

impl Node for Relay {
    fn on_packet(&mut self, _iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
        ctx.send(IfaceId(1), pkt);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A CBR source → `hops` relays → sink chain carrying the workload's
/// payload size.
fn relay_chain(hops: usize, payload: usize) -> Network {
    const PKTS: u64 = 10_000;
    let mut net = Network::new();
    let cfg = SourceConfig::udp(1, Ip::new(10, 0, 0, 1), Ip::new(10, 0, 0, 2), 5000, payload);
    let src = net.add_node(Box::new(CbrSource::new(cfg, 2_000, Some(PKTS))));
    let mut prev = src;
    for _ in 0..hops {
        let relay = net.add_node(Box::new(Relay));
        net.connect(prev, relay, LinkConfig::new(100_000_000_000, 1_000));
        prev = relay;
    }
    let dst = net.add_node(Box::new(Sink::new()));
    net.connect(prev, dst, LinkConfig::new(100_000_000_000, 1_000));
    net.arm_timer(src, 0, 0);
    net
}

/// Engine cost per calendar event: the extra host time a longer relay
/// chain takes per extra event, so packet creation at the source and
/// statistics at the sink cancel out. Each event includes its link's
/// default FIFO.
fn sim_ns_per_event(payload: usize) -> f64 {
    let samples = (0..BATCHES)
        .map(|_| {
            let run = |hops| {
                let mut net = relay_chain(hops, payload);
                let t = Instant::now();
                let events = net.run_to_quiescence();
                (t.elapsed().as_nanos() as f64, events as f64)
            };
            let (short_ns, short_ev) = run(0);
            let (long_ns, long_ev) = run(8);
            (long_ns - short_ns).max(0.0) / (long_ev - short_ev)
        })
        .collect();
    median(samples)
}

fn lfib_ns(b: &Built) -> f64 {
    const BATCH: usize = 4096;
    let tables = b.lfibs();
    let entries: Vec<(usize, u32)> = tables
        .iter()
        .enumerate()
        .flat_map(|(t, lfib)| lfib.iter().map(move |(label, _)| (t, label)))
        .collect();
    if entries.is_empty() {
        return 0.0;
    }
    let template =
        Packet::udp(Ip::new(10, 0, 0, 1), Ip::new(10, 0, 0, 2), 5000, 5000, Dscp::BE, b.payload);
    per_op(
        || {
            (0..BATCH)
                .map(|i| {
                    let (t, label) = entries[i % entries.len()];
                    let mut p = template.clone();
                    p.push_outer(Layer::Mpls(MplsLabel::new(label, 0, 64)));
                    (t, p)
                })
                .collect::<Vec<_>>()
        },
        |mut batch| {
            for (t, p) in &mut batch {
                black_box(tables[*t].forward(p));
            }
            batch.len()
        },
    )
}

/// Host addresses covered by the trie, two per prefix.
fn probe_addrs<V>(trie: &LpmTrie<V>) -> Vec<Ip> {
    trie.iter().flat_map(|(p, _): (Prefix, &V)| [p.nth(1), p.nth(2)]).collect()
}

/// `(cached, uncached)` ns per lookup over a set of tries: `lookup_cached`
/// repeating one destination per trie, so its memo hits, and the plain
/// trie walk of `lookup` over every destination the tries cover.
fn lpm_costs<V>(tries: &[&LpmTrie<V>]) -> (f64, f64) {
    const REPEAT: usize = 256;
    let work: Vec<(&LpmTrie<V>, Vec<Ip>)> =
        tries.iter().map(|t| (*t, probe_addrs(t))).filter(|(_, a)| !a.is_empty()).collect();
    if work.is_empty() {
        return (0.0, 0.0);
    }
    let hit = per_op(
        || (),
        |()| {
            for (trie, addrs) in &work {
                let mut cache = LpmCache::default();
                for _ in 0..REPEAT {
                    black_box(trie.lookup_cached(black_box(addrs[0]), &mut cache));
                }
            }
            work.len() * REPEAT
        },
    );
    let miss = per_op(
        || (),
        |()| {
            for (trie, addrs) in &work {
                for i in 0..REPEAT {
                    black_box(trie.lookup(black_box(addrs[i % addrs.len()])));
                }
            }
            work.len() * REPEAT
        },
    );
    (hit, miss)
}

fn lpm_ns(b: &Built) -> (f64, f64) {
    match &b.net {
        Net::Mpls(pn) => {
            let tries: Vec<_> = b
                .pes
                .iter()
                .flat_map(|&u| pn.net.node_ref::<PeRouter>(pn.backbone_node(u)).vrfs.iter())
                .map(|v| &v.fib)
                .collect();
            lpm_costs(&tries)
        }
        Net::Ipsec(n) => {
            // The backbone routes on gateway /32s; gateways on peer prefixes.
            let tries: Vec<_> = (0..b.topo.node_count())
                .map(|u| &n.net.node_ref::<CoreRouter>(NodeId(u)).fib)
                .chain(
                    b.gateways.iter().map(|&g| &n.net.node_ref::<IpsecGateway>(g).peers_by_prefix),
                )
                .collect();
            lpm_costs(&tries)
        }
    }
}

fn esp_ns(b: &Built) -> (f64, f64) {
    const BATCH: usize = 128;
    let Net::Ipsec(n) = &b.net else { return (0.0, 0.0) };
    let gw = n.net.node_ref::<IpsecGateway>(b.gateways[0]);
    let (peer_ip, out_sa, _) = &gw.peers[0];
    let inner =
        Packet::udp(Ip::new(10, 0, 0, 1), Ip::new(10, 0, 1, 1), 5000, 5000, Dscp::BE, b.payload);
    let mut enc_sa = out_sa.clone();
    let mut dec_sa = out_sa.clone();
    let mut sealed: Vec<Packet> = Vec::with_capacity(BATCH * BATCHES);
    let encap = per_op(
        || (),
        |()| {
            for _ in 0..BATCH {
                sealed.push(encapsulate(black_box(&inner), &mut enc_sa, gw.public_ip, *peer_ip));
            }
            BATCH
        },
    );
    let mut chunks = sealed.chunks(BATCH);
    let decap = per_op(
        || chunks.next().expect("one sealed batch per decap batch"),
        |batch| {
            for p in batch {
                black_box(decapsulate(p, &mut dec_sa).expect("replayed ESP decapsulates"));
            }
            batch.len()
        },
    );
    (encap, decap)
}

fn record_ns(b: &Built) -> f64 {
    const BATCH: usize = 4096;
    // The workload's own (flow, cause) mix; workloads that drop nothing
    // replay their flows as queue overflows.
    let mut mix: Vec<(u64, DropCause)> = b
        .flows
        .iter()
        .flat_map(|f| {
            let causes = b.recorder.flow_causes(f.id);
            DropCause::ALL
                .into_iter()
                .filter(move |c| causes[c.index()] > 0)
                .map(move |c| (f.id, c))
        })
        .collect();
    if mix.is_empty() {
        mix = b.flows.iter().map(|f| (f.id, DropCause::QueueOverflow)).collect();
    }
    per_op(FlightRecorder::default, |rec| {
        for i in 0..BATCH {
            let (flow, cause) = mix[i % mix.len()];
            rec.record(i as u64, flow, i as u64, cause);
        }
        BATCH
    })
}
