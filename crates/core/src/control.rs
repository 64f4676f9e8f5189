//! The control plane: one message-driven implementation, two deliveries.
//!
//! IGP link-state advertisements flood hop-by-hop, LDP mappings/withdraws
//! ride single-hop session messages, and MP-BGP VPN deltas (labels
//! piggybacked on the route, per the paper's §4) travel PE-to-PE. Every
//! produced message lands in an outbox; emptying it is the only mode
//! difference. `ControlMode::InBand` routers flush it to the wire as CS6
//! packets sharing links and queues with data; `ControlMode::Oracle`
//! reconvergence drains it instantly through `ControlDb::apply`, the
//! function in-band routers call on arrival. VPN deltas likewise share
//! one applier, `VpnDelta::apply`.
//!
//! The shared [`ControlDb`] holds one *view* per router — the network's
//! only IGP/LDP state: what that node believes about the topology (failed
//! links, its SPF tree) and its LDP state (label space, bindings received
//! from each neighbor, its FTN). Routers lend the database their live
//! tables (LFIB, VRF FIBs) while a message is applied, so incremental
//! updates land directly in the forwarding plane — no global rebuild.
//!
//! Determinism: the database never iterates a hash map. All fan-out walks
//! index ranges (FEC ordinals, topology adjacency order) and the outbox
//! keeps production order, so replays are bit-identical for a fixed seed
//! and event sequence.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use netsim_mpls::ldp::{Fec, LdpNodeState};
use netsim_mpls::lfib::{FtnEntry, LabelOp, Lfib, Nhlfe};
use netsim_mpls::LabelSpace;
use netsim_net::mpls::IMPLICIT_NULL;
use netsim_net::{Dscp, Ip, Packet, Prefix};
use netsim_obs::Histogram;
use netsim_qos::Nanos;
use netsim_routing::igp::spf_filtered;
use netsim_routing::{SpfTree, Topology};
use netsim_sim::{Ctx, FxHashMap, IfaceId};

use crate::router::{VrfFib, VrfRoute};

/// How routing, label and VPN state propagates through the backbone.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ControlMode {
    /// Out-of-band delivery: link-state messages are delivered instantly
    /// and losslessly when `ProviderNetwork::reconverge` runs, and VPN
    /// route deltas apply at their target PE the instant they are
    /// produced. Zero control packets on the wire; convergence is
    /// instantaneous at the reconvergence instant.
    #[default]
    Oracle,
    /// In-band event-driven control plane: LSAs flood hop-by-hop as CS6
    /// control packets, each router runs incremental SPF and repairs its
    /// LFIB from retained LDP bindings, and BGP VPN deltas travel as typed
    /// PE-to-PE messages. Convergence takes real (simulated) time.
    InBand,
}

/// Flow-id namespace for control packets. Distinct from (and above) the
/// SLA-probe namespace so routers and sinks can cheaply classify:
/// `flow >= CTRL_FLOW_BASE` means control plane.
pub const CTRL_FLOW_BASE: u64 = 1 << 49;

/// Shared handle to the control database: the builder creates one per
/// network and, in in-band mode, threads it through every backbone router.
pub type ControlHandle = Rc<RefCell<ControlDb>>;

/// Protocol ordinal inside the control flow-id namespace.
const PROTO_IGP: usize = 0;
const PROTO_LDP: usize = 1;
const PROTO_BGP: usize = 2;

/// A typed control message. The on-wire packet carries only CS6-marked
/// UDP bytes of a representative size; the structured content rides in the
/// database's side table keyed by the packet's `meta.seq`, mirroring how
/// the data plane never parses control payloads.
#[derive(Clone, Debug)]
pub(crate) enum CtrlMsg {
    /// Link-state advertisement: link `link` changed to `down` at event
    /// sequence `seq`. Flooded hop-by-hop; deduplicated per (link, seq).
    Lsa {
        /// Topology link id the advertisement describes.
        link: usize,
        /// New state of the link.
        down: bool,
        /// Per-link event sequence number (dedup key).
        seq: u64,
    },
    /// LDP label mapping: `from`'s binding for tunnel FEC `fec` is
    /// `label`. Single hop (LDP sessions are link-local here).
    LdpMapping {
        /// Tunnel FEC ordinal (egress-PE index).
        fec: u32,
        /// The advertised label (possibly [`IMPLICIT_NULL`]).
        label: u32,
        /// Topology node that owns the binding.
        from: usize,
    },
    /// LDP label withdraw: `from` no longer has a usable binding for
    /// `fec`. Single hop.
    LdpWithdraw {
        /// Tunnel FEC ordinal.
        fec: u32,
        /// Topology node withdrawing its binding.
        from: usize,
    },
    /// MP-BGP VPN route delta, forwarded hop-by-hop toward its target PE.
    /// The VPN label is piggybacked on the route update (paper §4).
    Vpn(VpnDelta),
}

/// One VPN-route change for one VRF: the unit both control modes
/// produce when a site joins or leaves. Oracle mode applies it at the
/// target PE at once; in-band mode carries it as a CS6 MP-BGP packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct VpnDelta {
    /// Destination PE ordinal.
    pub(crate) target: usize,
    /// VRF slot index at the target PE.
    pub(crate) vrf_idx: usize,
    /// Customer prefix that changed.
    pub(crate) prefix: Prefix,
    /// What changed about it.
    pub(crate) change: VpnChange,
}

/// A VPN best path: (egress PE ordinal, VPN label at that egress).
pub(crate) type VpnPath = (usize, u32);

/// The two kinds of VPN route change. They differ only when the target
/// has no LSP toward the new path's egress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VpnChange {
    /// A better path appeared. Without an LSP toward it the existing
    /// route stays in place.
    Update(VpnPath),
    /// The old path is gone; `Some` carries the next-best path. Without
    /// an LSP toward that replacement the route is removed.
    Withdraw(Option<VpnPath>),
}

/// How a [`VpnDelta`] landed in a VRF.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Applied {
    /// A locally attached route holds the prefix; nothing changed.
    LocalWins,
    /// The new path was installed.
    Installed,
    /// The route was removed (a withdraw without replacement).
    Removed,
    /// No LSP toward the update's egress; the existing route was kept.
    NoLspKept,
    /// No LSP toward the withdraw's replacement; the route was removed.
    NoLspRemoved,
}

impl Applied {
    /// The target had no LSP toward the new path's egress.
    pub(crate) fn no_lsp(self) -> bool {
        matches!(self, Applied::NoLspKept | Applied::NoLspRemoved)
    }
}

impl VpnDelta {
    /// The path this delta would install, if any.
    pub(crate) fn path(&self) -> Option<VpnPath> {
        match self.change {
            VpnChange::Update(p) => Some(p),
            VpnChange::Withdraw(p) => p,
        }
    }

    /// The one VPN-route applier. `tunnel` is the target's FTN toward
    /// [`VpnDelta::path`]'s egress (`None` when there is no LSP). A
    /// locally attached route always wins over an imported one; an update
    /// without an LSP is counted as such even then.
    pub(crate) fn apply(&self, vrf: &mut VrfFib, tunnel: Option<FtnEntry>) -> Applied {
        if matches!(self.change, VpnChange::Update(_)) && tunnel.is_none() {
            return Applied::NoLspKept;
        }
        if matches!(vrf.fib.get(self.prefix), Some(VrfRoute::Local { .. })) {
            return Applied::LocalWins;
        }
        match (self.path(), tunnel) {
            (Some((egress_pe, vpn_label)), Some(tunnel)) => {
                vrf.fib.insert(self.prefix, VrfRoute::Remote { egress_pe, vpn_label, tunnel });
                Applied::Installed
            }
            (Some(_), None) => {
                vrf.fib.remove(self.prefix);
                Applied::NoLspRemoved
            }
            (None, _) => {
                vrf.fib.remove(self.prefix);
                Applied::Removed
            }
        }
    }
}

impl CtrlMsg {
    /// Protocol ordinal: 0 IGP, 1 LDP, 2 MP-BGP.
    pub(crate) fn proto(&self) -> usize {
        match self {
            CtrlMsg::Lsa { .. } => PROTO_IGP,
            CtrlMsg::LdpMapping { .. } | CtrlMsg::LdpWithdraw { .. } => PROTO_LDP,
            CtrlMsg::Vpn(_) => PROTO_BGP,
        }
    }

    /// Representative payload size in bytes (headers are added by
    /// `Packet::udp`); keeps per-link control-byte counters meaningful.
    fn payload_len(&self) -> usize {
        match self {
            CtrlMsg::Lsa { .. } => 64,
            CtrlMsg::LdpMapping { .. } | CtrlMsg::LdpWithdraw { .. } => 32,
            CtrlMsg::Vpn(_) => 64,
        }
    }

    fn port(&self) -> u16 {
        match self.proto() {
            PROTO_IGP => 89,
            PROTO_LDP => 646,
            _ => 179,
        }
    }
}

/// Control-plane counters, all emergent (counted, not analytic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// LSAs originated by detection events (not counting floods).
    pub lsa_originated: u64,
    /// LDP session messages originated (mappings + withdraws).
    pub ldp_originated: u64,
    /// BGP VPN updates/withdraws originated at PEs.
    pub bgp_originated: u64,
    /// Control packets put on the wire, by protocol [igp, ldp, bgp].
    pub pkts_by_proto: [u64; 3],
    /// Total control packets put on the wire (floods + forwards included).
    pub pkts_sent: u64,
    /// Total control packets terminated (consumed) at a router.
    pub pkts_terminated: u64,
    /// Control bytes put on the wire.
    pub bytes_sent: u64,
    /// Messages dropped at origination/forwarding for lack of any route
    /// toward the destination.
    pub undeliverable: u64,
    /// Full SPF recomputations triggered by LSA application.
    pub spf_runs: u64,
    /// LSA applications that incremental SPF proved irrelevant (skipped).
    pub spf_skips: u64,
    /// FTN repairs deferred because no binding from the new next hop was
    /// retained yet (session refresh in flight).
    pub ldp_missing_binding: u64,
    /// BGP deltas applied into a VRF FIB.
    pub bgp_applied: u64,
    /// BGP deltas whose receiving PE has no LSP toward the egress PE
    /// (counted, never a panic — see also
    /// `ProviderNetwork::no_lsp_to_egress`).
    pub no_lsp_to_egress: u64,
}

/// What one router currently believes: its link-state database, SPF tree
/// and LDP state. Taken over from the bring-up convergence ("initial RIB
/// download"), then maintained purely by messages.
struct NodeView {
    /// Latest applied (seq, down) per link — the LSA dedup state, and
    /// which links this node believes are down.
    link_state: Vec<(u64, bool)>,
    /// This node's shortest-path tree over the believed topology.
    spf: SpfTree,
    /// The node's platform label space (LDP and explicit LSPs share it).
    space: LabelSpace,
    /// Local label bindings per tunnel FEC (immutable once allocated).
    bindings: std::collections::HashMap<Fec, u32>,
    /// Liberal-retention label store: (fec, neighbor) → advertised label.
    received: std::collections::HashMap<(Fec, usize), u32>,
    /// Current FEC-to-NHLFE map (ingress push state).
    ftn: std::collections::HashMap<Fec, FtnEntry>,
}

/// Mutable references to one router's forwarding tables, lent to the
/// database for the duration of a single message application.
pub(crate) struct NodeTables<'a> {
    /// The router's live LFIB.
    pub lfib: &'a mut Lfib,
    /// PE routers also lend their VRF FIBs (None for P routers).
    pub vrfs: Option<&'a mut Vec<VrfFib>>,
}

/// The shared control database: per-node views, the outbox, the message
/// side table, and control-plane telemetry.
pub struct ControlDb {
    topo: Topology,
    pes: Vec<usize>,
    views: Vec<NodeView>,
    /// Messages produced and not yet delivered, in production order:
    /// (sending node, interface it leaves on, message).
    outbox: VecDeque<(usize, usize, CtrlMsg)>,
    /// Structured content of in-flight control packets, keyed by the
    /// packet's `meta.seq`. Entries are removed on termination; packets
    /// purged at dead links leak their (bounded) entries harmlessly.
    msgs: FxHashMap<u64, CtrlMsg>,
    next_msg_id: u64,
    /// Per-link event sequence, bumped once per fail/repair at the
    /// provider-network level so both endpoints originate the same LSA.
    link_seq: Vec<u64>,
    /// (link, seq) → origination timestamp (event + detection delay);
    /// every LSA application records `now - t0` as a convergence sample.
    episodes: FxHashMap<(usize, u64), Nanos>,
    /// Control bytes offered per topology link (both directions).
    ctrl_bytes_by_link: Vec<u64>,
    /// Propagation + processing latency of LSA application, ns.
    convergence: Histogram,
    max_convergence_ns: Nanos,
    pub(crate) stats: CtrlStats,
}

impl ControlDb {
    /// Builds the database from the bring-up convergence: node `u`'s SPF
    /// tree `trees[u]` and LDP state `ldp[u]` (its LFIB already moved into
    /// the router) become `u`'s view.
    pub(crate) fn new(
        topo: &Topology,
        pes: &[usize],
        trees: Vec<SpfTree>,
        ldp: Vec<LdpNodeState>,
    ) -> ControlDb {
        let nl = topo.link_count();
        let views = trees
            .into_iter()
            .zip(ldp)
            .map(|(spf, st)| NodeView {
                link_state: vec![(0, false); nl],
                spf,
                space: st.space,
                bindings: st.bindings,
                received: st.received,
                ftn: st.ftn,
            })
            .collect();
        ControlDb {
            topo: topo.clone(),
            pes: pes.to_vec(),
            views,
            outbox: VecDeque::new(),
            msgs: FxHashMap::default(),
            next_msg_id: 1,
            link_seq: vec![0; nl],
            episodes: FxHashMap::default(),
            ctrl_bytes_by_link: vec![0; nl],
            convergence: Histogram::new(),
            max_convergence_ns: 0,
            stats: CtrlStats::default(),
        }
    }

    /// Records a physical link event: bumps the per-link LSA sequence and
    /// opens a convergence episode whose clock starts at `origination_at`
    /// (event time + detection delay, so samples measure propagation and
    /// processing, not detection).
    pub(crate) fn note_link_event(&mut self, link: usize, origination_at: Nanos) {
        self.link_seq[link] += 1;
        self.episodes.insert((link, self.link_seq[link]), origination_at);
    }

    /// `node` detected that the link on `iface` went down or up (its
    /// detection timer fired, or Oracle reconvergence found its view
    /// lagging): originate the LSA, apply it locally, and (on link-up)
    /// exchange link-state databases and refresh the LDP session over the
    /// recovered link.
    pub(crate) fn on_link_event(
        &mut self,
        node: usize,
        iface: usize,
        down: bool,
        tables: &mut NodeTables<'_>,
        now: Nanos,
    ) {
        let Some((far, link)) = self.topo.neighbors(node).nth(iface).map(|(p, _, l)| (p, l)) else {
            return;
        };
        let seq = self.link_seq[link];
        if down {
            // LDP session loss: retained labels from the far end die with
            // the session.
            let view = &mut self.views[node];
            for f in 0..self.pes.len() {
                view.received.remove(&(Fec(f as u32), far));
            }
        }
        self.stats.lsa_originated += 1;
        self.apply_lsa(node, link, down, seq, None, tables, now);
        if !down {
            // Database exchange: send the peer every other LSA it lacks;
            // the summary handshake that finds them is not on the wire.
            let (mine, peer) = (&self.views[node].link_state, &self.views[far].link_state);
            for (l, (&(s, d), &(peer_seq, _))) in mine.iter().zip(peer).enumerate() {
                if l != link && s > peer_seq {
                    self.outbox.push_back((node, iface, CtrlMsg::Lsa { link: l, down: d, seq: s }));
                }
            }
            // Session re-establishment: re-advertise our bindings to the
            // peer (it dropped them when the session died).
            let view = &self.views[node];
            for f in 0..self.pes.len() {
                let Some(&label) = view.bindings.get(&Fec(f as u32)) else { continue };
                if !view.spf.reachable(self.pes[f]) {
                    continue;
                }
                self.stats.ldp_originated += 1;
                let msg = CtrlMsg::LdpMapping { fec: f as u32, label, from: node };
                self.outbox.push_back((node, iface, msg));
            }
        }
    }

    /// A control packet arrived at `node` on `iface`: terminate it, apply
    /// its message, and put what that produces on the wire.
    pub(crate) fn on_control_packet(
        &mut self,
        node: usize,
        iface: usize,
        pkt: &Packet,
        tables: &mut NodeTables<'_>,
        ctx: &mut Ctx,
    ) {
        self.stats.pkts_terminated += 1;
        if let Some(msg) = self.msgs.remove(&pkt.meta.seq) {
            self.apply(node, iface, msg, tables, ctx.now());
        }
        self.flush(ctx);
    }

    /// Applies (or forwards) one message that reached `node` on `iface`.
    /// Both deliveries end here: in-band routers after the side-table
    /// lookup, Oracle reconvergence straight from the outbox.
    pub(crate) fn apply(
        &mut self,
        node: usize,
        iface: usize,
        msg: CtrlMsg,
        tables: &mut NodeTables<'_>,
        now: Nanos,
    ) {
        match msg {
            CtrlMsg::Lsa { link, down, seq } => {
                self.apply_lsa(node, link, down, seq, Some(iface), tables, now);
            }
            CtrlMsg::LdpMapping { fec, label, from } => {
                self.views[node].received.insert((Fec(fec), from), label);
                self.repair_fec(node, fec as usize, tables, None);
            }
            CtrlMsg::LdpWithdraw { fec, from } => {
                self.views[node].received.remove(&(Fec(fec), from));
                self.repair_fec(node, fec as usize, tables, None);
            }
            CtrlMsg::Vpn(delta) => {
                if self.pes[delta.target] != node {
                    self.forward_toward(node, self.pes[delta.target], msg);
                    return;
                }
                let Some(vrfs) = tables.vrfs.as_deref_mut() else { return };
                let tunnel = delta
                    .path()
                    .and_then(|(egress, _)| self.views[node].ftn.get(&Fec(egress as u32)).cloned());
                let applied = delta.apply(&mut vrfs[delta.vrf_idx], tunnel);
                self.stats.no_lsp_to_egress += u64::from(applied.no_lsp());
                if !matches!(applied, Applied::LocalWins | Applied::NoLspKept) {
                    self.stats.bgp_applied += 1;
                }
            }
        }
    }

    /// Applies one LSA at one node: dedup, link-state update, incremental
    /// SPF, LDP/FTN/VRF repair, convergence sample, re-flood.
    #[allow(clippy::too_many_arguments)]
    fn apply_lsa(
        &mut self,
        node: usize,
        link: usize,
        down: bool,
        seq: u64,
        arrival: Option<usize>,
        tables: &mut NodeTables<'_>,
        now: Nanos,
    ) {
        let view = &mut self.views[node];
        let (s_seq, s_down) = view.link_state[link];
        let fresh = seq > s_seq || (seq == s_seq && down != s_down);
        if !fresh {
            return;
        }
        view.link_state[link] = (seq, down);
        // Incremental SPF: recompute only if the changed link can alter
        // this root's tree; otherwise the LSA is topological noise here.
        let prev = if view.spf.affected_by(&self.topo, link, down) {
            let state = &view.link_state;
            self.stats.spf_runs += 1;
            Some(std::mem::replace(&mut view.spf, spf_filtered(&self.topo, node, &|l| !state[l].1)))
        } else {
            self.stats.spf_skips += 1;
            None
        };
        // Repair every tunnel FEC from retained LDP state (liberal
        // retention is what makes this purely local in the common case).
        for f in 0..self.pes.len() {
            self.repair_fec(node, f, tables, prev.as_ref());
        }
        if let Some(&t0) = self.episodes.get(&(link, seq)) {
            let d = now.saturating_sub(t0);
            self.convergence.record(d);
            self.max_convergence_ns = self.max_convergence_ns.max(d);
        }
        // Re-flood to every live neighbor except the one we heard from.
        let state = &self.views[node].link_state;
        for (iface, (_, _, l)) in self.topo.neighbors(node).enumerate() {
            if Some(iface) != arrival && !state[l].1 {
                self.outbox.push_back((node, iface, CtrlMsg::Lsa { link, down, seq }));
            }
        }
    }

    /// Recomputes the desired FTN for tunnel FEC `f` at `node` from the
    /// current view, re-points the LFIB transit entry and any VRF routes
    /// using that tunnel, and advertises/withdraws when the egress became
    /// reachable or unreachable since `prev`, the SPF tree this one
    /// replaced (`None`: the tree did not change).
    fn repair_fec(
        &mut self,
        node: usize,
        f: usize,
        tables: &mut NodeTables<'_>,
        prev: Option<&SpfTree>,
    ) {
        let egress = self.pes[f];
        if node == egress {
            return;
        }
        let fec = Fec(f as u32);
        let view = &mut self.views[node];
        let (desired, reachable) = match view.spf.next_hop[egress] {
            None => (None, false),
            Some(nh) => {
                let iface = self.topo.iface_toward(node, nh);
                // `None`: session refresh in flight.
                (view.received.get(&(fec, nh)).map(|&l| (iface, l)), true)
            }
        };
        if desired.is_none() && reachable {
            self.stats.ldp_missing_binding += 1;
        }
        let new_ftn = desired.map(|(iface, l)| FtnEntry {
            push: if l == IMPLICIT_NULL { Vec::new() } else { vec![l] },
            out_iface: iface,
        });
        if view.ftn.get(&fec) != new_ftn.as_ref() {
            // Transit repair: re-point the ILM entry for our own binding.
            if let Some(&local) = view.bindings.get(&fec) {
                if local != IMPLICIT_NULL {
                    match desired {
                        Some((iface, l)) => {
                            let op =
                                if l == IMPLICIT_NULL { LabelOp::Pop } else { LabelOp::Swap(l) };
                            tables.lfib.install(local, Nhlfe { op, out_iface: iface });
                        }
                        None => {
                            tables.lfib.remove(local);
                        }
                    }
                }
            }
            // Ingress repair: VRF routes tunneled toward this egress.
            if let Some(vrfs) = tables.vrfs.as_deref_mut() {
                repoint_vrfs(vrfs, f, new_ftn.as_ref());
            }
            match new_ftn {
                Some(e) => view.ftn.insert(fec, e),
                None => view.ftn.remove(&fec),
            };
        }
        if prev.is_some_and(|t| t.reachable(egress) != reachable) {
            let label = view.bindings.get(&fec).copied();
            for (iface, (_, _, l)) in self.topo.neighbors(node).enumerate() {
                if view.link_state[l].1 {
                    continue;
                }
                let msg = match (reachable, label) {
                    (true, Some(label)) => CtrlMsg::LdpMapping { fec: f as u32, label, from: node },
                    (true, None) => continue,
                    (false, _) => CtrlMsg::LdpWithdraw { fec: f as u32, from: node },
                };
                self.stats.ldp_originated += 1;
                self.outbox.push_back((node, iface, msg));
            }
        }
    }

    /// Forwards a PE-addressed message one hop along the current view's
    /// shortest path toward the target node.
    fn forward_toward(&mut self, node: usize, target_node: usize, msg: CtrlMsg) {
        let Some(nh) = self.views[node].spf.next_hop[target_node] else {
            self.stats.undeliverable += 1;
            return;
        };
        let iface = self.topo.iface_toward(node, nh);
        self.outbox.push_back((node, iface, msg));
    }

    /// In-band delivery: puts every produced message on the wire as a CS6
    /// packet, in production order.
    pub(crate) fn flush(&mut self, ctx: &mut Ctx) {
        while let Some((node, iface, msg)) = self.outbox.pop_front() {
            let pkt = self.prepare(node, iface, msg);
            ctx.send(IfaceId(iface), pkt);
        }
    }

    /// Oracle delivery: the oldest produced message not yet delivered.
    pub(crate) fn next_outgoing(&mut self) -> Option<(usize, usize, CtrlMsg)> {
        self.outbox.pop_front()
    }

    /// Prepares a VPN delta for injection at `origin_node` (used by the
    /// provider-network layer, which has no router context): returns the
    /// first-hop interface and the wire packet, or `None` if the origin's
    /// view has no path toward the target.
    pub(crate) fn prepare_vpn_from(
        &mut self,
        origin_node: usize,
        delta: VpnDelta,
    ) -> Option<(IfaceId, Packet)> {
        self.stats.bgp_originated += 1;
        let Some(nh) = self.views[origin_node].spf.next_hop[self.pes[delta.target]] else {
            self.stats.undeliverable += 1;
            return None;
        };
        let iface = self.topo.iface_toward(origin_node, nh);
        Some((IfaceId(iface), self.prepare(origin_node, iface, CtrlMsg::Vpn(delta))))
    }

    /// Builds the wire packet for `msg` leaving `node` on `iface` and does
    /// all send-side bookkeeping (side table, counters, per-link bytes).
    fn prepare(&mut self, node: usize, iface: usize, msg: CtrlMsg) -> Packet {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        let proto = msg.proto();
        let mut pkt = Packet::udp(
            Ip(0xC0DE_0000 + node as u32),
            Ip(0xC0DE_FFFF),
            msg.port(),
            msg.port(),
            Dscp::CS6,
            msg.payload_len(),
        );
        pkt.meta.flow = CTRL_FLOW_BASE + proto as u64;
        pkt.meta.seq = id;
        self.stats.pkts_by_proto[proto] += 1;
        self.stats.pkts_sent += 1;
        self.stats.bytes_sent += pkt.wire_len() as u64;
        if let Some((_, _, link)) = self.topo.neighbors(node).nth(iface) {
            self.ctrl_bytes_by_link[link] += pkt.wire_len() as u64;
        }
        self.msgs.insert(id, msg);
        pkt
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CtrlStats {
        self.stats.clone()
    }

    /// Convergence-latency histogram (propagation + processing, ns).
    pub fn convergence(&self) -> &Histogram {
        &self.convergence
    }

    /// Worst observed propagation + processing latency, ns.
    pub fn max_convergence_ns(&self) -> Nanos {
        self.max_convergence_ns
    }

    /// Control bytes offered on `link` since bring-up.
    pub fn ctrl_bytes_on_link(&self, link: usize) -> u64 {
        self.ctrl_bytes_by_link[link]
    }

    /// The SPF tree `node` currently forwards on.
    pub fn view_spf(&self, node: usize) -> &SpfTree {
        &self.views[node].spf
    }

    /// `node`'s current FTN entry for a tunnel FEC.
    pub fn view_ftn(&self, node: usize, fec: u32) -> Option<&FtnEntry> {
        self.views[node].ftn.get(&Fec(fec))
    }

    /// Whether `node` currently believes `link` is down.
    pub(crate) fn believes_down(&self, node: usize, link: usize) -> bool {
        self.views[node].link_state[link].1
    }

    /// Allocates a fresh label from `node`'s platform label space.
    pub(crate) fn allocate_label(&mut self, node: usize) -> u32 {
        self.views[node].space.allocate()
    }

    /// Labels allocated across every node's label space.
    pub(crate) fn total_labels(&self) -> u64 {
        self.views.iter().map(|v| v.space.live()).sum()
    }
}

/// Re-points every VRF route tunneled toward `egress_pe` at the new FTN.
/// When the LSP is gone entirely the stale tunnel is left in place — the
/// same degrade-in-place `sync_remote_routes` exhibits — so traffic drops
/// at the dead link instead of silently un-routing.
fn repoint_vrfs(vrfs: &mut [VrfFib], egress_pe: usize, ftn: Option<&FtnEntry>) {
    let Some(t) = ftn else { return };
    for vrf in vrfs.iter_mut() {
        let stale: Vec<(Prefix, u32)> = vrf
            .fib
            .iter()
            .filter_map(|(p, r)| match r {
                VrfRoute::Remote { egress_pe: e, vpn_label, tunnel }
                    if *e == egress_pe && tunnel != t =>
                {
                    Some((p, *vpn_label))
                }
                _ => None,
            })
            .collect();
        for (p, vpn_label) in stale {
            vrf.fib.insert(p, VrfRoute::Remote { egress_pe, vpn_label, tunnel: t.clone() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::pfx;

    fn tunnel() -> FtnEntry {
        FtnEntry { push: vec![16], out_iface: 0 }
    }

    fn remote(egress_pe: usize, vpn_label: u32) -> VrfRoute {
        VrfRoute::Remote { egress_pe, vpn_label, tunnel: tunnel() }
    }

    /// The applier's one semantic split: without an LSP toward the new
    /// path, an update keeps the old route and a withdraw removes it. A
    /// local route wins over every delta.
    #[test]
    fn applier_keeps_on_update_and_removes_on_withdraw_without_lsp() {
        let p = pfx("10.9.0.0/16");
        let delta = |change| VpnDelta { target: 0, vrf_idx: 0, prefix: p, change };
        let mut vrf = VrfFib::default();

        let update = delta(VpnChange::Update((1, 7)));
        assert_eq!(update.apply(&mut vrf, Some(tunnel())), Applied::Installed);
        let better = delta(VpnChange::Update((0, 8)));
        assert_eq!(better.apply(&mut vrf, None), Applied::NoLspKept);
        assert_eq!(vrf.fib.get(p), Some(&remote(1, 7)));
        let failover = delta(VpnChange::Withdraw(Some((2, 9))));
        assert_eq!(failover.apply(&mut vrf, None), Applied::NoLspRemoved);
        assert_eq!(vrf.fib.get(p), None);
        assert_eq!(failover.apply(&mut vrf, Some(tunnel())), Applied::Installed);
        assert_eq!(vrf.fib.get(p), Some(&remote(2, 9)));
        let gone = delta(VpnChange::Withdraw(None));
        assert_eq!(gone.apply(&mut vrf, None), Applied::Removed);
        assert_eq!(vrf.fib.get(p), None);

        let local = VrfRoute::Local { out_iface: 3 };
        vrf.fib.insert(p, local.clone());
        for d in [update, failover, gone] {
            assert_eq!(d.apply(&mut vrf, Some(tunnel())), Applied::LocalWins);
        }
        assert_eq!(failover.apply(&mut vrf, None), Applied::LocalWins);
        assert_eq!(update.apply(&mut vrf, None), Applied::NoLspKept);
        assert_eq!(vrf.fib.get(p), Some(&local));
    }
}
