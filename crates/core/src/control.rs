//! The control plane: one message-driven implementation, two deliveries.
//!
//! IGP link-state advertisements flood hop-by-hop, LDP mappings/withdraws
//! ride single-hop session messages, and MP-BGP VPN deltas (labels
//! piggybacked on the route, per the paper's §4) travel PE-to-PE. Every
//! produced message lands in an outbox; emptying it is the only mode
//! difference. In-band, `ControlDb::prepare` turns each message into a
//! CS6 packet whose payload is the encoded message, sharing links and
//! queues with data; `ControlMode::Oracle` reconvergence drains it
//! instantly through `ControlDb::apply`, the function in-band routers
//! call on arrival. VPN deltas likewise share one applier, `VpnDelta::apply`.
//!
//! The shared [`ControlDb`] holds one *view* per router — the network's
//! only IGP/LDP state: what that node believes about the topology (failed
//! links, its SPF tree) and its LDP state (label space, bindings received
//! from each neighbor, its FTN). Routers lend the database their live
//! tables (LFIB, VRF FIBs) while a message is applied, so incremental
//! updates land directly in the forwarding plane — no global rebuild.
//!
//! Bring-up takes the same path: views start with every link up and no
//! labels, each egress binds its FEC in `ControlDb::repair_fec`, and the
//! LDP mappings that follow are delivered as Oracle reconvergence's are.
//!
//! Determinism: the database never iterates a hash map. All fan-out walks
//! index ranges (FEC ordinals, topology adjacency order) and the outbox
//! keeps production order, so replays are bit-identical for a fixed seed
//! and event sequence.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use netsim_mpls::lfib::{FtnEntry, LabelOp, Lfib, Nhlfe, LOCAL_IFACE};
use netsim_mpls::LabelSpace;
use netsim_net::mpls::IMPLICIT_NULL;
use netsim_net::{Bytes, BytesMut, Dscp, Ip, Packet, Prefix};
use netsim_obs::Histogram;
use netsim_qos::Nanos;
use netsim_routing::igp::spf;
use netsim_routing::{SpfScratch, SpfTree, Topology};
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

/// Encoded length in `u64` words per message tag (1 LSA, 2 LDP mapping,
/// 3 LDP withdraw, 4 MP-BGP); tag 0 is never sent.
const TAG_WORDS: [usize; 5] = [0, 8, 4, 4, 8];

/// A typed control message. It travels as the UDP payload of a CS6 packet
/// ([`CtrlMsg::encode`]); the receiving router decodes it from there, so
/// an in-flight message lives only in its packet.
#[derive(Clone, Debug, PartialEq)]
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

    /// The wire payload: a tag word plus fields as little-endian `u64`
    /// words, zero-padded to [`TAG_WORDS`] (32 B for LDP, 64 B for LSA and
    /// MP-BGP). Written in place into one allocation.
    pub(crate) fn encode(&self) -> Bytes {
        let words = match *self {
            CtrlMsg::Lsa { link, down, seq } => [1, link as u64, down.into(), seq, 0, 0, 0, 0],
            CtrlMsg::LdpMapping { fec, label, from } => {
                [2, fec.into(), label.into(), from as u64, 0, 0, 0, 0]
            }
            CtrlMsg::LdpWithdraw { fec, from } => [3, fec.into(), from as u64, 0, 0, 0, 0, 0],
            CtrlMsg::Vpn(VpnDelta { target, vrf_idx, prefix, change }) => {
                let (kind, (egress, label)) = match change {
                    VpnChange::Update(p) => (0, p),
                    VpnChange::Withdraw(Some(p)) => (1, p),
                    VpnChange::Withdraw(None) => (2, (0, 0)),
                };
                let pfx = u64::from(prefix.addr().0) << 8 | u64::from(prefix.len());
                [4, target as u64, vrf_idx as u64, pfx, kind, egress as u64, label.into(), 0]
            }
        };
        let mut buf = BytesMut::zeroed(8 * TAG_WORDS[words[0] as usize]);
        for (b, w) in buf.chunks_exact_mut(8).zip(words) {
            b.copy_from_slice(&w.to_le_bytes());
        }
        buf.freeze()
    }

    /// Inverse of [`CtrlMsg::encode`]; `None`, never a panic, for an
    /// unknown tag, a wrong length or a field too wide for its type.
    pub(crate) fn decode(buf: &[u8]) -> Option<CtrlMsg> {
        let mut w = [0u64; 8];
        for (w, b) in w.iter_mut().zip(buf.chunks_exact(8)) {
            *w = u64::from_le_bytes(b.try_into().ok()?);
        }
        let u32_at = |i: usize| u32::try_from(w[i]).ok();
        let msg = match w[0] {
            1 => CtrlMsg::Lsa { link: w[1] as usize, down: w[2] != 0, seq: w[3] },
            2 => CtrlMsg::LdpMapping { fec: u32_at(1)?, label: u32_at(2)?, from: w[3] as usize },
            3 => CtrlMsg::LdpWithdraw { fec: u32_at(1)?, from: w[2] as usize },
            4 => {
                let path = (w[5] as usize, u32_at(6)?);
                let change = match w[4] {
                    0 => VpnChange::Update(path),
                    1 => VpnChange::Withdraw(Some(path)),
                    2 => VpnChange::Withdraw(None),
                    _ => return None,
                };
                let len = u8::try_from(w[3] & 0xff).ok().filter(|&l| l <= 32)?;
                let prefix = Prefix::new(Ip(u32::try_from(w[3] >> 8).ok()?), len);
                let (target, vrf_idx) = (w[1] as usize, w[2] as usize);
                CtrlMsg::Vpn(VpnDelta { target, vrf_idx, prefix, change })
            }
            _ => return None,
        };
        (buf.len() == 8 * TAG_WORDS[w[0] as usize]).then_some(msg)
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
    /// LSA applications that updated the SPF tree: the
    /// `SpfTree::affected_by` gate admitted the event and the incremental
    /// `SpfTree::update` ran.
    pub spf_runs: u64,
    /// LSA applications the gate proved cannot change the tree (no update).
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
/// and LDP state. Starts with every link up and no labels, and is then
/// maintained purely by messages, bring-up's LDP mappings included.
struct NodeView {
    /// Latest applied (seq, down) per link — the LSA dedup state, and
    /// which links this node believes are down.
    link_state: Vec<(u64, bool)>,
    /// This node's shortest-path tree over the believed topology.
    spf: SpfTree,
    /// The node's platform label space (LDP and explicit LSPs share it).
    space: LabelSpace,
    /// Local label binding per FEC ordinal (immutable once allocated).
    bindings: Vec<Option<u32>>,
    /// Liberal-retention label store: (FEC, neighbor) → advertised label.
    received: FxHashMap<(u32, usize), u32>,
    /// Current FTN per FEC ordinal: (out interface, next hop's label).
    ftn: Vec<Option<(usize, u32)>>,
}

/// Mutable references to one router's forwarding tables, lent to the
/// database for the duration of a single message application.
pub(crate) struct NodeTables<'a> {
    /// The router's live LFIB.
    pub lfib: &'a mut Lfib,
    /// PE routers also lend their VRF FIBs (None for P routers).
    pub vrfs: Option<&'a mut Vec<VrfFib>>,
}

/// The shared control database: per-node views, the outbox and
/// control-plane telemetry. No per-packet state: a sent message lives
/// only in its packet's payload.
pub struct ControlDb {
    topo: Topology,
    pes: Vec<usize>,
    /// Penultimate-hop popping: egresses bind their FEC to implicit null.
    php: bool,
    views: Vec<NodeView>,
    /// Incremental-SPF buffers shared by every view, and the report of
    /// the last update.
    spf_scratch: SpfScratch,
    /// Messages produced and not yet delivered, in production order:
    /// (sending node, interface it leaves on, message).
    outbox: VecDeque<(usize, usize, CtrlMsg)>,
    /// Per-link event sequence, bumped once per fail/repair at the
    /// provider-network level so both endpoints originate the same LSA.
    link_seq: Vec<u64>,
    /// Open convergence episodes per link, oldest first: (seq,
    /// origination timestamp = event + detection delay). Every LSA
    /// application of a listed (link, seq) records `now - t0` as a
    /// convergence sample. An episode closes once every view holds a newer
    /// sequence for the link: no view can apply its LSA any more.
    episodes: Vec<Vec<(u64, Nanos)>>,
    /// Control bytes offered per topology link (both directions).
    ctrl_bytes_by_link: Vec<u64>,
    /// Propagation + processing latency of LSA application, ns.
    convergence: Histogram,
    max_convergence_ns: Nanos,
    pub(crate) stats: CtrlStats,
}

impl ControlDb {
    /// Builds the database with one view per node: every link up, the
    /// node's own SPF tree over them, and no LDP state yet. Label bindings
    /// arrive as messages at bring-up (see [`ControlDb::repair_fec`]).
    pub(crate) fn new(topo: &Topology, pes: &[usize], php: bool) -> ControlDb {
        let nl = topo.link_count();
        let views = (0..topo.node_count())
            .map(|u| NodeView {
                link_state: vec![(0, false); nl],
                spf: spf(topo, u),
                space: LabelSpace::new(),
                bindings: vec![None; pes.len()],
                received: FxHashMap::default(),
                ftn: vec![None; pes.len()],
            })
            .collect();
        ControlDb {
            topo: topo.clone(),
            pes: pes.to_vec(),
            php,
            views,
            spf_scratch: SpfScratch::default(),
            outbox: VecDeque::new(),
            link_seq: vec![0; nl],
            episodes: vec![Vec::new(); nl],
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
        let oldest = self.views.iter().map(|v| v.link_state[link].0).min().unwrap_or(0);
        let open = &mut self.episodes[link];
        open.retain(|&(seq, _)| seq >= oldest);
        open.push((self.link_seq[link], origination_at));
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
        // The LDP session to `far` lives while any adjacency to it does.
        let view = &mut self.views[node];
        let state = &view.link_state;
        let session_up =
            self.topo.neighbors(node).any(|(p, _, l)| p == far && l != link && !state[l].1);
        if down && !session_up {
            // Session loss: retained labels from the far end die with it.
            for f in 0..self.pes.len() as u32 {
                view.received.remove(&(f, far));
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
        }
        if !down && !session_up {
            // Session re-establishment: re-advertise our bindings to the
            // peer (it dropped them when the session died).
            let view = &self.views[node];
            for (f, &binding) in view.bindings.iter().enumerate() {
                let Some(label) = binding else { continue };
                if !view.spf.reachable(self.pes[f]) {
                    continue;
                }
                self.stats.ldp_originated += 1;
                let msg = CtrlMsg::LdpMapping { fec: f as u32, label, from: node };
                self.outbox.push_back((node, iface, msg));
            }
        }
    }

    /// A control packet arrived at `node` on `iface`: terminate it, decode
    /// and apply its message (ignored if it does not decode or names an
    /// unknown link, FEC, PE or VRF), and put what that produces on the wire.
    pub(crate) fn on_control_packet(
        &mut self,
        node: usize,
        iface: usize,
        pkt: &Packet,
        tables: &mut NodeTables<'_>,
        ctx: &mut Ctx,
    ) {
        self.stats.pkts_terminated += 1;
        if let Some(msg) = CtrlMsg::decode(&pkt.payload) {
            self.apply(node, iface, msg, tables, ctx.now());
        }
        self.flush(ctx);
    }

    /// Applies (or forwards) one message that reached `node` on `iface`.
    /// Both deliveries end here: in-band routers after decoding it from
    /// the packet, Oracle reconvergence straight from the outbox.
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
            // A foreign LDP message (unknown FEC or sender) is not retained.
            CtrlMsg::LdpMapping { fec, from, .. } | CtrlMsg::LdpWithdraw { fec, from }
                if fec as usize >= self.pes.len() || from >= self.views.len() => {}
            CtrlMsg::LdpMapping { fec, label, from } => {
                self.views[node].received.insert((fec, from), label);
                self.repair_fec(node, fec as usize, tables, false);
            }
            CtrlMsg::LdpWithdraw { fec, from } => {
                self.views[node].received.remove(&(fec, from));
                self.repair_fec(node, fec as usize, tables, false);
            }
            CtrlMsg::Vpn(delta) => {
                let Some(&target) = self.pes.get(delta.target) else { return };
                if target != node {
                    self.forward_toward(node, target, msg);
                    return;
                }
                let Some(vrf) = tables.vrfs.as_mut().and_then(|v| v.get_mut(delta.vrf_idx)) else {
                    return;
                };
                let tunnel = delta.path().and_then(|(egress, _)| self.view_ftn(node, egress));
                let applied = delta.apply(vrf, tunnel);
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
        let Some(&(s_seq, s_down)) = view.link_state.get(link) else { return };
        let fresh = seq > s_seq || (seq == s_seq && down != s_down);
        if !fresh {
            return;
        }
        view.link_state[link] = (seq, down);
        // Incremental SPF, behind the admission gate: a link that cannot
        // alter this root's tree is topological noise here.
        let updated = view.spf.affected_by(&self.topo, link, down);
        if updated {
            let state = &view.link_state;
            self.stats.spf_runs += 1;
            view.spf.update(&self.topo, link, &|l| !state[l].1, &mut self.spf_scratch);
        } else {
            self.stats.spf_skips += 1;
        }
        // Repair, from retained LDP state (liberal retention keeps this
        // local), the tunnel FECs whose egress changed next hop or
        // reachability, and at an endpoint those routed via the far end,
        // whose LDP session or interface may have changed.
        let (a, b, _) = self.topo.link(link);
        let far = if node == a {
            Some(b)
        } else if node == b {
            Some(a)
        } else {
            None
        };
        for f in 0..self.pes.len() {
            let egress = self.pes[f];
            let moved = updated && self.spf_scratch.next_hop_changed(egress);
            if moved || (far.is_some() && self.views[node].spf.next_hop[egress] == far) {
                let flipped = updated && self.spf_scratch.reachability_changed(egress);
                self.repair_fec(node, f, tables, flipped);
            }
        }
        if let Some(&(_, t0)) = self.episodes[link].iter().find(|&&(s, _)| s == seq) {
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
    /// reachable or unreachable (`reach_flipped`, from the SPF update
    /// that led here). The FTN leaves on the first interface toward the
    /// next hop that the view believes is up. Ordered control: the
    /// first usable binding — the egress's own, or the next hop's — makes
    /// the node bind the FEC (implicit null at a PHP egress, otherwise a
    /// label from its space), install the ILM entry and advertise the
    /// binding to every live neighbor. Bring-up calls this at each egress.
    pub(crate) fn repair_fec(
        &mut self,
        node: usize,
        f: usize,
        tables: &mut NodeTables<'_>,
        reach_flipped: bool,
    ) {
        let Some(&egress) = self.pes.get(f) else { return };
        let view = &mut self.views[node];
        let (desired, reachable) = match view.spf.next_hop[egress] {
            // The egress pops its own FEC's label.
            _ if node == egress => (Some((LOCAL_IFACE, IMPLICIT_NULL)), true),
            None => (None, false),
            Some(nh) => {
                let state = &view.link_state;
                let iface = self.topo.live_iface_toward(node, nh, |l| !state[l].1);
                // `None`: session refresh in flight.
                let label = view.received.get(&(f as u32, nh));
                (iface.zip(label.copied()), true)
            }
        };
        if desired.is_none() && reachable {
            self.stats.ldp_missing_binding += 1;
        }
        let fresh = desired.is_some() && view.bindings[f].is_none();
        if fresh {
            let php_egress = node == egress && self.php;
            view.bindings[f] = Some(if php_egress { IMPLICIT_NULL } else { view.space.allocate() });
        }
        let ftn = desired.filter(|_| node != egress);
        if fresh || view.ftn[f] != ftn {
            // Transit repair: re-point the ILM entry for our own binding.
            if let Some(local) = view.bindings[f].filter(|&l| l != IMPLICIT_NULL) {
                match desired {
                    Some((iface, l)) => {
                        let op = if l == IMPLICIT_NULL { LabelOp::Pop } else { LabelOp::Swap(l) };
                        tables.lfib.install(local, Nhlfe { op, out_iface: iface });
                    }
                    None => {
                        tables.lfib.remove(local);
                    }
                }
            }
            // Ingress repair: VRF routes tunneled toward this egress.
            if let (Some(vrfs), Some(ftn)) = (tables.vrfs.as_deref_mut(), ftn) {
                repoint_vrfs(vrfs, f, &ftn_entry(ftn));
            }
            view.ftn[f] = ftn;
        }
        if fresh || reach_flipped {
            let label = view.bindings[f];
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
    /// shortest path toward the target node, on the first interface
    /// toward the next hop that the view believes is up.
    pub(crate) fn forward_toward(&mut self, node: usize, target_node: usize, msg: CtrlMsg) {
        let view = &self.views[node];
        let iface = view.spf.next_hop[target_node]
            .and_then(|nh| self.topo.live_iface_toward(node, nh, |l| !view.link_state[l].1));
        match iface {
            Some(iface) => self.outbox.push_back((node, iface, msg)),
            None => self.stats.undeliverable += 1,
        }
    }

    /// In-band delivery from a router: puts every produced message on the
    /// wire as a CS6 packet, in production order.
    pub(crate) fn flush(&mut self, ctx: &mut Ctx) {
        while let Some((node, iface, msg)) = self.outbox.pop_front() {
            let pkt = self.prepare(node, iface, msg);
            ctx.send(IfaceId(iface), pkt);
        }
    }

    /// The oldest produced message not yet delivered: Oracle delivery
    /// applies it, in-band delivery outside a router hands it to
    /// [`ControlDb::prepare`].
    pub(crate) fn next_outgoing(&mut self) -> Option<(usize, usize, CtrlMsg)> {
        self.outbox.pop_front()
    }

    /// Builds the wire packet for `msg` leaving `node` on `iface`: the
    /// encoded message is its payload. Does all send-side bookkeeping
    /// (counters, per-link bytes); `meta.seq` numbers packets for traces.
    pub(crate) fn prepare(&mut self, node: usize, iface: usize, msg: CtrlMsg) -> Packet {
        let proto = msg.proto();
        let port = [89, 646, 179][proto];
        let mut pkt =
            Packet::udp(Ip(0xC0DE_0000 + node as u32), Ip(0xC0DE_FFFF), port, port, Dscp::CS6, 0);
        pkt.payload = msg.encode();
        self.stats.pkts_by_proto[proto] += 1;
        self.stats.pkts_sent += 1;
        pkt.meta.flow = CTRL_FLOW_BASE + proto as u64;
        pkt.meta.seq = self.stats.pkts_sent;
        self.stats.bytes_sent += pkt.wire_len() as u64;
        if let Some((_, _, link)) = self.topo.neighbors(node).nth(iface) {
            self.ctrl_bytes_by_link[link] += pkt.wire_len() as u64;
        }
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

    /// `node`'s current FTN entry for tunnel FEC ordinal `fec`.
    pub fn view_ftn(&self, node: usize, fec: usize) -> Option<FtnEntry> {
        self.views[node].ftn.get(fec).copied().flatten().map(ftn_entry)
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

/// The FTN entry that forwards to a next hop advertising `label` on
/// `out_iface`: push the label, or nothing for implicit null.
fn ftn_entry((out_iface, label): (usize, u32)) -> FtnEntry {
    FtnEntry { push: if label == IMPLICIT_NULL { Vec::new() } else { vec![label] }, out_iface }
}

/// Re-points every VRF route tunneled toward `egress_pe` at the new FTN
/// `t`. When the LSP is gone entirely the caller leaves the stale tunnel
/// in place — the same degrade-in-place `sync_remote_routes` exhibits — so
/// traffic drops at the dead link instead of silently un-routing.
fn repoint_vrfs(vrfs: &mut [VrfFib], egress_pe: usize, t: &FtnEntry) {
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

    /// One message of every kind: both LSA states, both LDP messages,
    /// all three VPN change kinds, and /0, /16 and /32 prefixes.
    fn every_message() -> Vec<CtrlMsg> {
        let vpn = |prefix: &str, change| {
            CtrlMsg::Vpn(VpnDelta { target: 3, vrf_idx: 9, prefix: pfx(prefix), change })
        };
        vec![
            CtrlMsg::Lsa { link: 5, down: true, seq: 1 },
            CtrlMsg::Lsa { link: 0, down: false, seq: u64::MAX },
            CtrlMsg::LdpMapping { fec: 2, label: IMPLICIT_NULL, from: 7 },
            CtrlMsg::LdpMapping { fec: u32::MAX, label: 1_048_575, from: usize::MAX },
            CtrlMsg::LdpWithdraw { fec: 1, from: 4 },
            vpn("10.9.0.0/16", VpnChange::Update((1, 17))),
            vpn("255.255.255.255/32", VpnChange::Withdraw(Some((2, u32::MAX)))),
            vpn("0.0.0.0/0", VpnChange::Withdraw(None)),
        ]
    }

    #[test]
    fn codec_round_trips_every_message_at_its_nominal_size() {
        for msg in every_message() {
            let buf = msg.encode();
            let nominal = if msg.proto() == PROTO_LDP { 32 } else { 64 };
            assert_eq!(buf.len(), nominal, "{msg:?}");
            assert_eq!(CtrlMsg::decode(&buf), Some(msg));
        }
    }

    #[test]
    fn codec_rejects_truncated_padded_and_unknown_payloads() {
        for msg in every_message() {
            let buf = msg.encode();
            for k in 0..buf.len() {
                assert_eq!(CtrlMsg::decode(&buf[..k]), None, "{msg:?} cut to {k} B");
            }
            let mut long = buf.to_vec();
            long.extend_from_slice(&[0; 8]);
            assert_eq!(CtrlMsg::decode(&long), None, "{msg:?} padded");
        }
        let word = |w: u64| w.to_le_bytes();
        for tag in [0, 5, u64::MAX] {
            for words in [4, 8] {
                let mut buf = vec![0u8; words * 8];
                buf[..8].copy_from_slice(&word(tag));
                assert_eq!(CtrlMsg::decode(&buf), None, "tag {tag}, {words} words");
            }
        }
        // Fields too wide for their type: a 33-bit FEC, a /33 prefix and
        // an unknown VPN change kind.
        let mut ldp = CtrlMsg::LdpWithdraw { fec: 1, from: 4 }.encode().to_vec();
        ldp[8..16].copy_from_slice(&word(1 << 32));
        assert_eq!(CtrlMsg::decode(&ldp), None);
        let vpn = CtrlMsg::Vpn(VpnDelta {
            target: 0,
            vrf_idx: 0,
            prefix: pfx("10.0.0.0/8"),
            change: VpnChange::Withdraw(None),
        });
        let mut wide = vpn.encode().to_vec();
        wide[24..32].copy_from_slice(&word(33));
        assert_eq!(CtrlMsg::decode(&wide), None);
        let mut kind = vpn.encode().to_vec();
        kind[32..40].copy_from_slice(&word(3));
        assert_eq!(CtrlMsg::decode(&kind), None);
        // Arbitrary bytes of every length up to 72 never panic.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..=72 {
            let buf: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let _ = CtrlMsg::decode(&buf);
        }
    }

    /// The packet `prepare` builds carries the message through the wire
    /// codec: serialized and parsed back, its payload still decodes to the
    /// same message, at the nominal size.
    #[test]
    fn prepared_packet_survives_the_wire_codec() {
        let topo = Topology::full_mesh(2, netsim_routing::LinkAttrs::default());
        let pn = crate::BackboneBuilder::new(topo, vec![0, 1]).build();
        let mut db = pn.control.borrow_mut();
        for (k, msg) in every_message().into_iter().enumerate() {
            let pkt = db.prepare(0, 0, msg.clone());
            assert_eq!(pkt.meta.seq, k as u64 + 1, "packets are numbered from 1");
            assert_eq!(pkt.meta.flow, CTRL_FLOW_BASE + msg.proto() as u64);
            let bytes = netsim_net::wire::encode(&pkt).expect("encodes");
            let back = netsim_net::wire::decode(&bytes).expect("decodes");
            assert_eq!(back.wire_len(), pkt.wire_len());
            assert_eq!(CtrlMsg::decode(&back.payload), Some(msg));
        }
        assert_eq!(db.stats.pkts_sent, every_message().len() as u64);
    }
}
