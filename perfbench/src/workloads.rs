//! The four benchmark workloads: how each network is provisioned from a
//! seed, how its fixed batch of simulated work runs, and how its outputs
//! are checked and summarised.
//!
//! Every source is open-loop in simulated time (CBR or Poisson), so the
//! offered load never depends on how fast the host runs; on the host, a
//! workload is a fixed batch of simulated work that runs as fast as it can.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use mplsvpn_bench::topo;
use mplsvpn_core::ipsec_vpn::{GwId, IpsecGateway, IpsecVpnNetwork};
use mplsvpn_core::membership::site_prefix;
use mplsvpn_core::network::{make_core_qdisc, DsSched};
use mplsvpn_core::{
    BackboneBuilder, CeRouter, ControlMode, CoreQos, CoreRouter, CtrlStats, DropCause,
    FlightRecorder, PeRouter, ProviderNetwork, SiteId, CTRL_FLOW_BASE,
};
use netsim_mpls::{Lfib, LfibStats};
use netsim_net::Dscp;
use netsim_routing::Topology;
use netsim_sim::{
    CbrSource, LinkConfig, LinkId, Network, NodeId, PoissonSource, Sink, SourceConfig, MSEC, SEC,
};

use crate::trace::{QosTally, TimedQdisc, Tracer};

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Oracle control, best-effort core, 256 sites in 16 VPNs, 64 small-
    /// packet flows with interleaved destinations.
    VpnMesh,
    /// Dumbbell with a 2× overloaded DiffServ bottleneck: EF + AF31 + BE.
    DiffservOverload,
    /// In-band control plane under a fixed join/detach/link-flap schedule
    /// beside light background data.
    InbandChurn,
    /// ESP gateways over a DiffServ IP core (the paper's §2.3 baseline).
    IpsecOverlay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::VpnMesh,
        Workload::DiffservOverload,
        Workload::InbandChurn,
        Workload::IpsecOverlay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VpnMesh => "vpn_mesh",
            Workload::DiffservOverload => "diffserv_overload",
            Workload::InbandChurn => "inband_churn",
            Workload::IpsecOverlay => "ipsec_overlay",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Share of the workload's LPM lookups the one-entry `LpmCache` serves
    /// from its memo. It follows from the flow plan, not a measurement:
    /// `vpn_mesh` interleaves two destinations through every ingress and
    /// egress VRF (both miss) while each CE serves one sink (hit);
    /// `diffserv_overload` and `inband_churn` send each VRF one
    /// destination; IPsec gateways use the uncached `lookup`.
    pub fn lpm_hit_share(self) -> f64 {
        match self {
            Workload::VpnMesh => 1.0 / 3.0,
            Workload::DiffservOverload | Workload::InbandChurn => 1.0,
            Workload::IpsecOverlay => 0.0,
        }
    }
}

/// Run size: `Full` for measurement, `Tiny` for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few packets per flow: every code path, in milliseconds.
    Tiny,
}

/// Deterministic 64-bit generator (SplitMix64): the benchmark's only
/// source of randomness, seeded by `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One data flow: its id, its source host and the kind of source.
#[derive(Clone, Copy, Debug)]
pub struct Flow {
    /// Flow id (`meta.flow`), below `CTRL_FLOW_BASE`.
    pub id: u64,
    /// Source node.
    pub src: NodeId,
    /// Poisson (`true`) or CBR source.
    pub poisson: bool,
}

/// The simulated network a workload drives.
pub enum Net {
    /// An MPLS VPN provider network.
    Mpls(Box<ProviderNetwork>),
    /// The IPsec overlay baseline.
    Ipsec(Box<IpsecVpnNetwork>),
}

/// The fixed churn schedule of `inband_churn`, drawn at setup.
pub struct Churn {
    rounds: Vec<ChurnRound>,
    live: VecDeque<SiteId>,
}

struct ChurnRound {
    vpn: usize,
    pe: usize,
    prefix_idx: usize,
    link: usize,
    bounce: bool,
}

impl ChurnRound {
    /// Simulated time the round takes.
    fn sim_ns(&self) -> u64 {
        2 * SLICE_NS + 2 * FLAP_NS + if self.bounce { DETECT_NS + FLAP_NS } else { 0 }
    }
}

/// Simulated time of one churn slice: a join or a detach, then this much
/// propagation time.
const SLICE_NS: u64 = 5 * MSEC;
/// Outage of each link flap, and the settling time after its repair.
const FLAP_NS: u64 = 15 * MSEC;
/// Link failure detection delay (BFD hold time).
const DETECT_NS: u64 = 5 * MSEC;
/// Every this many rounds, the flapping link bounces.
const BOUNCE_EVERY: usize = 4;
/// A churn site stays attached for this many rounds.
const CHURN_LIFETIME: usize = 8;

/// A provisioned, quiesced network with its sources attached.
pub struct Built {
    /// The network.
    pub net: Net,
    /// The backbone topology.
    pub topo: Topology,
    /// Backbone nodes acting as PEs (IPsec: gateway attachment points).
    pub pes: Vec<usize>,
    /// Data flows.
    pub flows: Vec<Flow>,
    /// Each sink and the flow ids that may reach it.
    pub sinks: Vec<(NodeId, Vec<u64>)>,
    /// IPsec gateways.
    pub gateways: Vec<NodeId>,
    /// The drop-cause recorder every node reports to.
    pub recorder: FlightRecorder,
    /// Call tallies of the timed backbone qdiscs (traced runs only).
    pub qos: Option<Arc<QosTally>>,
    /// Churn schedule (`inband_churn` only).
    pub churn: Option<Churn>,
    /// Payload size of most of the workload's packets.
    pub payload: usize,
}

impl Built {
    /// The simulator.
    pub fn sim(&self) -> &Network {
        match &self.net {
            Net::Mpls(pn) => &pn.net,
            Net::Ipsec(n) => &n.net,
        }
    }

    /// The MPLS provider network, if this workload runs one.
    pub fn provider(&self) -> Option<&ProviderNetwork> {
        match &self.net {
            Net::Mpls(pn) => Some(pn.as_ref()),
            Net::Ipsec(_) => None,
        }
    }

    /// In-band control counters, if the network runs in-band control.
    pub fn ctrl(&self) -> Option<CtrlStats> {
        self.provider().and_then(ProviderNetwork::control_stats)
    }

    /// Packets the flow's source has emitted.
    pub fn tx_of(&self, f: &Flow) -> u64 {
        if f.poisson {
            self.sim().node_ref::<PoissonSource>(f.src).tx.tx_packets
        } else {
            self.sim().node_ref::<CbrSource>(f.src).tx.tx_packets
        }
    }

    /// Every backbone router's LFIB (none on the IP-only overlay).
    pub fn lfibs(&self) -> Vec<&Lfib> {
        let Net::Mpls(pn) = &self.net else { return Vec::new() };
        (0..self.topo.node_count())
            .map(|u| {
                let id = pn.backbone_node(u);
                if self.pes.contains(&u) {
                    &pn.net.node_ref::<PeRouter>(id).lfib
                } else {
                    &pn.net.node_ref::<CoreRouter>(id).lfib
                }
            })
            .collect()
    }

    /// LPM lookups counted by every router (PE, P, CE, gateway).
    fn lpm_lookups(&self) -> u64 {
        match &self.net {
            Net::Mpls(pn) => {
                let backbone: u64 = (0..self.topo.node_count())
                    .map(|u| {
                        let id = pn.backbone_node(u);
                        if self.pes.contains(&u) {
                            pn.net.node_ref::<PeRouter>(id).counters.lpm_lookups
                        } else {
                            pn.net.node_ref::<CoreRouter>(id).counters.lpm_lookups
                        }
                    })
                    .sum();
                let ces: u64 = pn
                    .sites
                    .iter()
                    .map(|s| pn.net.node_ref::<CeRouter>(s.ce).counters.lpm_lookups)
                    .sum();
                backbone + ces
            }
            Net::Ipsec(n) => {
                let core: u64 = (0..self.topo.node_count())
                    .map(|u| n.net.node_ref::<CoreRouter>(NodeId(u)).counters.lpm_lookups)
                    .sum();
                let gws: u64 = self
                    .gateways
                    .iter()
                    .map(|&g| n.net.node_ref::<IpsecGateway>(g).counters.lpm_lookups)
                    .sum();
                core + gws
            }
        }
    }

    /// ESP packets rejected at any gateway.
    pub fn esp_errors(&self) -> u64 {
        let Net::Ipsec(n) = &self.net else { return 0 };
        self.gateways.iter().map(|&g| n.net.node_ref::<IpsecGateway>(g).esp_errors).sum()
    }

    /// The exact work counters, read now.
    pub fn counts(&self) -> Counts {
        let ctrl = self.ctrl().unwrap_or_default();
        let lfibs = self.lfibs();
        let lfib_sum = |f: fn(&LfibStats) -> u64| lfibs.iter().map(|l| f(l.stats())).sum();
        Counts {
            events: self.sim().events_processed(),
            lpm_lookups: self.lpm_lookups(),
            label_ops: lfib_sum(|s| s.swaps() + s.pops() + s.pushes()),
            lfib_forwards: lfib_sum(|s| s.swaps() + s.pops()),
            records: self.recorder.total_drops(),
            sync_route_pushes: self.provider().map_or(0, ProviderNetwork::sync_route_pushes),
            ctrl_sent: ctrl.pkts_sent,
            ctrl_terminated: ctrl.pkts_terminated,
            spf_runs: ctrl.spf_runs,
            spf_skips: ctrl.spf_skips,
            allocs: 0,
            alloc_bytes: 0,
        }
    }
}

/// Exact, machine-invariant work counts of one run window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calendar events processed.
    pub events: u64,
    /// LPM lookups at every router (PE, P, CE, gateway).
    pub lpm_lookups: u64,
    /// LFIB label operations (swaps + pops + pushes, from `LfibStats`).
    pub label_ops: u64,
    /// Successful `Lfib::forward` decisions (swaps + pops).
    pub lfib_forwards: u64,
    /// Flight-recorder drop records.
    pub records: u64,
    /// Route installs by the oracle full-table sync.
    pub sync_route_pushes: u64,
    /// In-band control packets put on the wire.
    pub ctrl_sent: u64,
    /// In-band control packets consumed at a router.
    pub ctrl_terminated: u64,
    /// Full SPF runs.
    pub spf_runs: u64,
    /// SPF runs incremental SPF proved unnecessary.
    pub spf_skips: u64,
    /// Heap allocations.
    pub allocs: u64,
    /// Heap bytes requested.
    pub alloc_bytes: u64,
}

impl Counts {
    /// Work done between `base` and `self`.
    pub fn since(self, base: Counts) -> Counts {
        Counts {
            events: self.events - base.events,
            lpm_lookups: self.lpm_lookups - base.lpm_lookups,
            label_ops: self.label_ops - base.label_ops,
            lfib_forwards: self.lfib_forwards - base.lfib_forwards,
            records: self.records - base.records,
            sync_route_pushes: self.sync_route_pushes - base.sync_route_pushes,
            ctrl_sent: self.ctrl_sent - base.ctrl_sent,
            ctrl_terminated: self.ctrl_terminated - base.ctrl_terminated,
            spf_runs: self.spf_runs - base.spf_runs,
            spf_skips: self.spf_skips - base.spf_skips,
            allocs: self.allocs - base.allocs,
            alloc_bytes: self.alloc_bytes - base.alloc_bytes,
        }
    }
}

/// Replaces every backbone egress discipline with a [`TimedQdisc`] around
/// the discipline `BackboneBuilder` would have made: same profile, same per-link
/// seed `base + 2·link + dir`. Called before any packet is queued, so the
/// run is bit-identical to an unwrapped one.
fn wrap_backbone(net: &mut Network, links: usize, qos: CoreQos, base: u64) -> Arc<QosTally> {
    assert_eq!(net.queued_packets(), 0, "wrap before traffic");
    let tally = Arc::new(QosTally::default());
    for l in 0..links {
        for dir in 0..2u8 {
            let seed = base.wrapping_add(l as u64 * 2 + u64::from(dir));
            let q = TimedQdisc::new(make_core_qdisc(&qos, seed), tally.clone());
            net.set_qdisc(LinkId(l), dir, Box::new(q));
        }
    }
    tally
}

/// Builds the MPLS backbone inside a `core.network.build` span and, when
/// tracing, wraps its backbone qdiscs.
fn build_backbone(
    b: BackboneBuilder,
    topo: &Topology,
    qos: CoreQos,
    seed: u64,
    tracer: &mut Tracer,
) -> (ProviderNetwork, Option<Arc<QosTally>>) {
    let s = tracer.enter("core.network.build");
    let mut pn = b.core_qos(qos).seed(seed).build();
    tracer.exit(s);
    let tally = tracer.enabled().then(|| wrap_backbone(&mut pn.net, topo.link_count(), qos, seed));
    (pn, tally)
}

fn add_site(
    pn: &mut ProviderNetwork,
    tracer: &mut Tracer,
    vpn: mplsvpn_core::VpnId,
    pe: usize,
    prefix_idx: usize,
) -> SiteId {
    let s = tracer.enter("core.network.add_site");
    let site = pn.add_site(vpn, pe, site_prefix(prefix_idx), None);
    tracer.exit(s);
    site
}

/// Attaches a CBR (even `k`) or Poisson (odd `k`) source sending
/// `duration` ns worth of packets every `interval` ns on average.
fn attach_source(
    pn: &mut ProviderNetwork,
    rng: &mut Rng,
    k: usize,
    site: SiteId,
    cfg: SourceConfig,
    interval: u64,
    duration: u64,
) -> Flow {
    let id = cfg.flow;
    let poisson = k % 2 == 1;
    let src = if poisson {
        let start = pn.net.now();
        pn.attach_poisson_source(site, cfg, interval, rng.next_u64(), Some(start + duration))
    } else {
        pn.attach_cbr_source(site, cfg, interval, Some(duration / interval))
    };
    Flow { id, src, poisson }
}

/// Provisions workload `w` for `seed`: everything `setup_s` measures.
pub fn setup(w: Workload, seed: u64, size: Size, tracer: &mut Tracer) -> Built {
    match w {
        Workload::VpnMesh => setup_vpn_mesh(seed, size, tracer),
        Workload::DiffservOverload => setup_diffserv(seed, size, tracer),
        Workload::InbandChurn => setup_churn(seed, size, tracer),
        Workload::IpsecOverlay => setup_ipsec(seed, size, tracer),
    }
}

/// Ring of 8 P routers with one PE on each, 1 Gb/s everywhere.
fn national() -> (Topology, Vec<usize>) {
    topo::national(8, 8, 1000)
}

fn setup_vpn_mesh(seed: u64, size: Size, tracer: &mut Tracer) -> Built {
    const SITES_PER_VPN: usize = 16; // two per PE
    const INTERVAL: u64 = 100_000; // 10 kpps per flow
    const PAYLOAD: usize = 64;
    let (vpns, pkts) = match size {
        Size::Full => (16, 1000),
        Size::Tiny => (2, 40),
    };
    let (topo, pes) = national();
    let qos = CoreQos::BestEffort { cap_bytes: 256 * 1024 };
    let b = BackboneBuilder::new(topo.clone(), pes.clone());
    let (mut pn, qos_tally) = build_backbone(b, &topo, qos, seed, tracer);
    let mut rng = Rng::new(seed);
    let mut flows = Vec::new();
    let mut sinks: BTreeMap<usize, (NodeId, Vec<u64>)> = BTreeMap::new();
    let mut sites = Vec::new();
    for v in 0..vpns {
        // Every VPN reuses the same address plan: isolation is then a
        // property of the VRFs, not of the addresses.
        let vpn = pn.new_vpn(format!("vpn{v}"));
        let rot = rng.below(8);
        let first = sites.len();
        for k in 0..SITES_PER_VPN {
            sites.push(add_site(&mut pn, tracer, vpn, (k + rot) % 8, k));
        }
        // Four flows: the two sites on PE x send to the two sites on PE
        // x + offset, so each ingress and egress VRF interleaves two
        // destinations. The offset depends on the VPN only, which fixes
        // the mix of path lengths for every seed.
        let offset = 1 + v % 7;
        for f in 0..4 {
            let x = f / 2;
            let src_k = x + 8 * (f % 2);
            let dst_k = (x + offset) % 8 + 8 * ((f % 2) ^ 1);
            let (src, dst) = (sites[first + src_k], sites[first + dst_k]);
            let id = 1 + (v * 4 + f) as u64;
            let entry = sinks
                .entry(first + dst_k)
                .or_insert_with(|| (pn.attach_sink(dst, site_prefix(dst_k)), Vec::new()));
            entry.1.push(id);
            let cfg = SourceConfig::udp(
                id,
                pn.site_addr(src, 1 + f as u32),
                pn.site_addr(dst, 1 + (f % 2) as u32),
                5000,
                PAYLOAD,
            );
            flows.push(attach_source(&mut pn, &mut rng, f, src, cfg, INTERVAL, pkts * INTERVAL));
        }
    }
    finish(pn, topo, pes, flows, sinks.into_values().collect(), qos_tally, PAYLOAD)
}

fn setup_diffserv(seed: u64, size: Size, tracer: &mut Tracer) -> Built {
    let duration = match size {
        Size::Full => 20 * SEC,
        Size::Tiny => SEC / 2,
    };
    let (topo, pes) = topo::dumbbell(10);
    let qos = CoreQos::DiffServ { cap_bytes: 1 << 20, sched: DsSched::Priority };
    let b = BackboneBuilder::new(topo.clone(), pes.clone());
    let (mut pn, qos_tally) = build_backbone(b, &topo, qos, seed, tracer);
    let mut rng = Rng::new(seed);
    let vpn = pn.new_vpn("acme");
    let a = add_site(&mut pn, tracer, vpn, 0, 1);
    let z = add_site(&mut pn, tracer, vpn, 1, 2);
    let sink = pn.attach_sink(z, site_prefix(2));
    // ≈ 2 + 8 + 10 Mb/s offered against the 10 Mb/s bottleneck, four
    // flows per class, every flow to one host (the VRF cache always hits).
    let classes =
        [(Dscp::EF, 160, 3_000_000), (Dscp::AF31, 500, 2_100_000), (Dscp::BE, 1000, 3_300_000)];
    let mut flows = Vec::new();
    for (c, &(dscp, payload, interval)) in classes.iter().enumerate() {
        for k in 0..4 {
            let id = 1 + (c * 4 + k) as u64;
            let cfg = SourceConfig::udp(
                id,
                pn.site_addr(a, id as u32),
                pn.site_addr(z, 1),
                5000,
                payload,
            )
            .with_dscp(dscp);
            flows.push(attach_source(&mut pn, &mut rng, k, a, cfg, interval, duration));
        }
    }
    let ids = flows.iter().map(|f| f.id).collect();
    finish(pn, topo, pes, flows, vec![(sink, ids)], qos_tally, 500)
}

fn setup_churn(seed: u64, size: Size, tracer: &mut Tracer) -> Built {
    const VPNS: usize = 4;
    const INTERVAL: u64 = 5 * MSEC; // 200 pps per background flow
    const PAYLOAD: usize = 200;
    let rounds = match size {
        Size::Full => 1000,
        Size::Tiny => 12,
    };
    let (topo, pes) = national();
    let qos = CoreQos::BestEffort { cap_bytes: 256 * 1024 };
    let b = BackboneBuilder::new(topo.clone(), pes.clone())
        .control_mode(ControlMode::InBand)
        .detection(DETECT_NS);
    let (mut pn, qos_tally) = build_backbone(b, &topo, qos, seed, tracer);
    let mut rng = Rng::new(seed);
    // Long-lived sites: one per PE in every VPN.
    let mut sites = Vec::new();
    for v in 0..VPNS {
        let vpn = pn.new_vpn(format!("vpn{v}"));
        for pe in 0..8 {
            sites.push(add_site(&mut pn, tracer, vpn, pe, pe));
        }
    }
    let s = tracer.enter("core.control.bring_up");
    pn.run_to_quiescence();
    tracer.exit(s);
    let schedule: Vec<ChurnRound> = (0..rounds)
        .map(|r| ChurnRound {
            vpn: r % VPNS,
            pe: rng.below(8),
            prefix_idx: 64 + r,
            // Ring links only: a cut never partitions the backbone.
            link: rng.below(8),
            bounce: r % BOUNCE_EVERY == BOUNCE_EVERY - 1,
        })
        .collect();
    let duration = schedule.iter().map(ChurnRound::sim_ns).sum();
    // Eight background flows, two per VPN, each crossing three ring links
    // (the offset fixes the path mix for every seed), so flaps bite. Every
    // PE sends one flow and receives one, so each VRF sees one destination.
    let rot = rng.below(8);
    let mut flows = Vec::new();
    let mut sinks = Vec::new();
    for i in 0..8 {
        let v = i % VPNS;
        let src_pe = (i + rot) % 8;
        let dst_pe = (src_pe + 3) % 8;
        let (src, dst) = (sites[v * 8 + src_pe], sites[v * 8 + dst_pe]);
        let id = 1 + i as u64;
        let host = pn.site_addr(dst, 1 + i as u32);
        sinks.push((pn.attach_sink(dst, netsim_net::Prefix::host(host)), vec![id]));
        let cfg = SourceConfig::udp(id, pn.site_addr(src, 1 + i as u32), host, 5000, PAYLOAD);
        flows.push(attach_source(&mut pn, &mut rng, i, src, cfg, INTERVAL, duration));
    }
    let churn = Churn { rounds: schedule, live: VecDeque::new() };
    let mut built = finish(pn, topo, pes, flows, sinks, qos_tally, PAYLOAD);
    built.churn = Some(churn);
    built
}

fn setup_ipsec(seed: u64, size: Size, tracer: &mut Tracer) -> Built {
    const INTERVAL: u64 = 333_000; // 3 kpps of 1000 B: ≈ 52 Mb/s per uplink
    const PAYLOAD: usize = 1000;
    let pkts = match size {
        Size::Full => 625,
        Size::Tiny => 20,
    };
    let (topo, pes) = national();
    let qos = CoreQos::DiffServ { cap_bytes: 1 << 20, sched: DsSched::Priority };
    let s = tracer.enter("core.ipsec_vpn.build");
    let mut n = IpsecVpnNetwork::build(topo.clone(), MSEC, qos);
    tracer.exit(s);
    let qos_tally = tracer.enabled().then(|| wrap_backbone(&mut n.net, topo.link_count(), qos, 0));
    let recorder = FlightRecorder::default();
    n.net.set_recorder(recorder.clone());
    for u in 0..topo.node_count() {
        n.net.node_mut::<CoreRouter>(NodeId(u)).set_recorder(recorder.clone());
    }
    let mut rng = Rng::new(seed);
    let rot = rng.below(8);
    let gws: Vec<GwId> =
        (0..8).map(|k| n.add_gateway(pes[(k + rot) % 8], site_prefix(k), None)).collect();
    let s = tracer.enter("core.ipsec_vpn.connect_gateways");
    for a in 0..gws.len() {
        for b in a + 1..gws.len() {
            n.connect_gateways(gws[a], gws[b]);
        }
    }
    tracer.exit(s);
    let sinks: Vec<NodeId> = (0..8).map(|k| n.attach_sink(gws[k], site_prefix(k))).collect();
    let mut sink_flows = vec![Vec::new(); 8];
    let mut flows = Vec::new();
    // Two flows per gateway, to the gateways one and three PEs away: a CBR
    // flow and a Poisson flow (the overlay has no Poisson helper, so it is
    // wired the way `attach_cbr_source` wires its source).
    for k in 0..8 {
        for (j, off) in [1usize, 3].into_iter().enumerate() {
            let d = (k + off) % 8;
            let id = 1 + (k * 2 + j) as u64;
            let cfg = SourceConfig::udp(
                id,
                n.site_addr(gws[k], 1 + j as u32),
                n.site_addr(gws[d], 1),
                5000,
                PAYLOAD,
            );
            let poisson = j == 1;
            let src = if poisson {
                let until = Some(pkts * INTERVAL);
                let node = PoissonSource::new(cfg, INTERVAL, rng.next_u64(), until);
                let src = n.net.add_node(Box::new(node));
                n.net.connect(src, n.gateway_node(gws[k]), LinkConfig::new(1_000_000_000, 10_000));
                n.net.arm_timer(src, 0, 0);
                src
            } else {
                n.attach_cbr_source(gws[k], cfg, INTERVAL, Some(pkts))
            };
            sink_flows[d].push(id);
            flows.push(Flow { id, src, poisson });
        }
    }
    let gateways = gws.iter().map(|&g| n.gateway_node(g)).collect();
    Built {
        net: Net::Ipsec(Box::new(n)),
        topo,
        pes,
        flows,
        sinks: sinks.into_iter().zip(sink_flows).collect(),
        gateways,
        recorder,
        qos: qos_tally,
        churn: None,
        payload: PAYLOAD,
    }
}

fn finish(
    pn: ProviderNetwork,
    topo: Topology,
    pes: Vec<usize>,
    flows: Vec<Flow>,
    sinks: Vec<(NodeId, Vec<u64>)>,
    qos: Option<Arc<QosTally>>,
    payload: usize,
) -> Built {
    let recorder = pn.recorder().clone();
    Built {
        net: Net::Mpls(Box::new(pn)),
        topo,
        pes,
        flows,
        sinks,
        gateways: Vec::new(),
        recorder,
        qos,
        churn: None,
        payload,
    }
}

/// Runs the workload's fixed batch of simulated work to quiescence.
pub fn run(b: &mut Built, tracer: &mut Tracer) {
    let churn = b.churn.take();
    match (&mut b.net, churn) {
        (Net::Mpls(pn), Some(mut churn)) => {
            run_churn(pn, &mut churn, tracer);
            b.churn = Some(churn);
        }
        (Net::Mpls(pn), None) => {
            let s = tracer.enter("sim.run_to_quiescence");
            pn.run_to_quiescence();
            tracer.exit(s);
        }
        (Net::Ipsec(n), _) => {
            let s = tracer.enter("sim.run_to_quiescence");
            n.net.run_to_quiescence();
            tracer.exit(s);
        }
    }
}

/// Each round: a site joins, the site that joined `CHURN_LIFETIME`
/// rounds earlier detaches, and one ring link flaps. Every
/// `BOUNCE_EVERY`-th round the link bounces: it fails again at the instant
/// its repair is detected, when both ends have just queued their LDP label
/// re-advertisements on it, and is then repaired for good. Control packets
/// purged by such a cut are never re-sent; the benchmark counts them as
/// failed.
fn run_churn(pn: &mut ProviderNetwork, churn: &mut Churn, tracer: &mut Tracer) {
    for round in &churn.rounds {
        let s = tracer.enter("core.control.join_slice");
        let vpn = mplsvpn_core::VpnId(round.vpn);
        churn.live.push_back(add_site(pn, tracer, vpn, round.pe, round.prefix_idx));
        run_for(pn, tracer, SLICE_NS);
        tracer.exit(s);

        let s = tracer.enter("core.control.detach_slice");
        if churn.live.len() > CHURN_LIFETIME {
            let site = churn.live.pop_front().expect("non-empty");
            let d = tracer.enter("core.network.detach_site");
            pn.detach_site(site);
            tracer.exit(d);
        }
        run_for(pn, tracer, SLICE_NS);
        tracer.exit(s);

        let s = tracer.enter("core.control.flap_slice");
        flap(pn, tracer, round.link);
        if round.bounce {
            run_for(pn, tracer, DETECT_NS);
            flap(pn, tracer, round.link);
        }
        run_for(pn, tracer, FLAP_NS);
        tracer.exit(s);
    }
    let s = tracer.enter("sim.run_to_quiescence");
    pn.run_to_quiescence();
    tracer.exit(s);
}

/// Fails `link`, lets `FLAP_NS` pass, and repairs it.
fn flap(pn: &mut ProviderNetwork, tracer: &mut Tracer, link: usize) {
    let s = tracer.enter("core.network.fail_link");
    pn.fail_link(link);
    tracer.exit(s);
    run_for(pn, tracer, FLAP_NS);
    let s = tracer.enter("core.network.repair_link");
    pn.repair_link(link);
    tracer.exit(s);
}

fn run_for(pn: &mut ProviderNetwork, tracer: &mut Tracer, ns: u64) {
    let s = tracer.enter("sim.run_for");
    pn.run_for(ns);
    tracer.exit(s);
}

/// What one finished run produced, after every output check passed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Data packets offered.
    pub offered: u64,
    /// Data packets delivered to sinks.
    pub delivered: u64,
    /// Operations attempted: data packets offered plus control packets
    /// sent.
    pub attempted: u64,
    /// Failed operations: data packets dropped for `no_route`, `vrf_miss`
    /// or `ttl`, plus control packets sent but never terminated.
    pub failed: u64,
    /// Digest of the simulated outputs.
    pub digest: u64,
}

/// FNV-1a over 64-bit words: a stable digest independent of the host.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// Checks the finished run's outputs and summarises them.
///
/// # Errors
/// Describes the first check that failed: a per-flow conservation gap,
/// an unbalanced control ledger, a packet at a foreign sink, an ESP error
/// or a packet left queued after quiescence.
pub fn check(b: &Built) -> Result<Outcome, String> {
    let sim = b.sim();
    let rec = &b.recorder;
    if sim.queued_packets() != 0 {
        return Err(format!("{} packets still queued after quiescence", sim.queued_packets()));
    }
    // VRF isolation: a sink sees only the flows addressed to it.
    let mut delivered_by_flow: BTreeMap<u64, &netsim_sim::FlowStats> = BTreeMap::new();
    for (sink, ids) in &b.sinks {
        let s = sim.node_ref::<Sink>(*sink);
        for (flow, stats) in s.flows() {
            if !ids.contains(&flow) {
                return Err(format!("flow {flow} reached a sink of another VPN or site"));
            }
            delivered_by_flow.insert(flow, stats);
        }
    }
    // Per-flow conservation: offered = delivered + attributed drops (+
    // absorbed; queued is zero at quiescence).
    let mut d = Digest::new();
    let (mut offered, mut delivered, mut failed) = (0, 0, 0);
    for f in &b.flows {
        let tx = b.tx_of(f);
        let (rx, bytes, lat) = delivered_by_flow.get(&f.id).map_or((0, 0, [0; 4]), |s| {
            let h = &s.latency;
            (s.rx_packets, s.rx_bytes, [h.count(), h.min(), h.max(), h.mean().to_bits()])
        });
        let causes = rec.flow_causes(f.id);
        let attributed: u64 = causes.iter().sum::<u64>() + rec.absorbed_of(f.id);
        if tx != rx + attributed {
            return Err(format!(
                "flow {} conservation broke: offered {tx} != delivered {rx} + attributed {attributed}",
                f.id
            ));
        }
        offered += tx;
        delivered += rx;
        failed += [DropCause::NoRoute, DropCause::VrfMiss, DropCause::Ttl]
            .iter()
            .map(|c| causes[c.index()])
            .sum::<u64>();
        for w in [f.id, tx, rx, bytes].into_iter().chain(lat).chain(causes) {
            d.word(w);
        }
    }
    for w in rec.totals() {
        d.word(w);
    }
    // Control ledger: sent = terminated + lost, and every lost control
    // packet has a recorded drop.
    let mut attempted = offered;
    if let Some(c) = b.ctrl() {
        let lost: u64 = (0..3).map(|p| rec.flow_drops(CTRL_FLOW_BASE + p)).sum();
        if c.pkts_sent != c.pkts_terminated + lost {
            return Err(format!(
                "control ledger broke: sent {} != terminated {} + lost {lost}",
                c.pkts_sent, c.pkts_terminated
            ));
        }
        attempted += c.pkts_sent;
        failed += lost;
        for w in [
            c.pkts_sent,
            c.pkts_terminated,
            c.bytes_sent,
            c.undeliverable,
            c.spf_runs,
            c.spf_skips,
            c.bgp_applied,
            c.no_lsp_to_egress,
        ] {
            d.word(w);
        }
    }
    let esp = b.esp_errors();
    if esp != 0 {
        return Err(format!("{esp} ESP packets rejected"));
    }
    if delivered == 0 {
        return Err("nothing delivered".to_owned());
    }
    Ok(Outcome { offered, delivered, attempted, failed, digest: d.0 })
}
