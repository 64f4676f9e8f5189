//! BGP/MPLS VPN control plane (RFC 2547 model, emulated).
//!
//! The paper's §4 requires three functions; this module provides the first
//! two and the state the third consumes:
//!
//! * **Membership discovery** — VRFs declare route-target import/export
//!   communities; any two VRFs sharing a target discover each other through
//!   route distribution alone ("a single routing system \[supporting\]
//!   multiple VPNs whose internal address spaces overlap").
//! * **Reachability exchange** — each PE advertises its customer prefixes
//!   as VPN-IPv4 routes (route distinguisher + prefix) with a *piggybacked
//!   VPN label*, via a route reflector or a full iBGP mesh. Messages and
//!   sessions are counted: they are the per-VPN control cost that the §2.1
//!   overlay model pays N(N−1)/2 circuits for.
//! * **Data separation** — the importer ends up with a per-VRF LPM table
//!   mapping prefixes to `(egress PE, VPN label)`, which `mplsvpn-core`
//!   installs into PE data planes.
//!
//! One function decides which advertisement a VRF imports for a prefix:
//! it re-selects that (VRF, prefix) pair from the RIB under the VRF's
//! current import policy. [`BgpVpnFabric::advertise`],
//! [`BgpVpnFabric::withdraw`] and [`BgpVpnFabric::refilter_vrf`] run it for
//! the VRFs they can affect and return every table row that changed as a
//! [`RouteChange`], so a caller mirroring the tables into data planes
//! applies exactly those.

use std::collections::{BTreeMap, HashMap};

use netsim_mpls::LabelSpace;
use netsim_net::{LpmTrie, Prefix};

/// A route distinguisher: makes VPN-IPv4 routes globally unique even when
/// customer prefixes overlap. (Encoded here as provider ASN + assigned
/// number.)
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RouteDistinguisher {
    /// Provider AS number.
    pub asn: u32,
    /// Assigned number (unique per VPN or per VRF, per provider policy).
    pub assigned: u32,
}

impl RouteDistinguisher {
    /// Creates `asn:assigned`.
    pub fn new(asn: u32, assigned: u32) -> Self {
        RouteDistinguisher { asn, assigned }
    }
}

impl std::fmt::Display for RouteDistinguisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.asn, self.assigned)
    }
}

/// A route-target extended community controlling VRF import/export.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RouteTarget(pub u64);

/// Identifies one VRF instance on one PE.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VrfHandle {
    /// The PE hosting the VRF.
    pub pe: usize,
    /// Index of the VRF on that PE.
    pub index: usize,
}

/// A route as imported into a VRF: where to tunnel and which VPN label to
/// push beneath the tunnel label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RemoteRoute {
    /// Egress PE (tunnel endpoint).
    pub egress_pe: usize,
    /// VPN label advertised by the egress PE.
    pub vpn_label: u32,
    /// The distinguishing RD of the originating VRF.
    pub rd: RouteDistinguisher,
}

/// One changed row of a VRF's imported table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteChange {
    /// The VRF whose table changed.
    pub vrf: VrfHandle,
    /// The prefix whose row changed.
    pub prefix: Prefix,
    /// The row now: the selected best path, or `None` when the prefix left
    /// the table.
    pub best: Option<RemoteRoute>,
}

/// A VPN-IPv4 advertisement as carried by the fabric (the RIB key holds
/// its prefix).
#[derive(Clone, Debug)]
struct VpnRouteAd {
    route: RemoteRoute,
    export_targets: Vec<RouteTarget>,
    origin: VrfHandle,
}

impl VpnRouteAd {
    /// Whether VRF `vrf` (state `v`) may import this route: a route from
    /// another PE whose export targets meet the VRF's import targets.
    fn importable(&self, vrf: VrfHandle, v: &VrfControl) -> bool {
        self.route.egress_pe != vrf.pe && v.imports(&self.export_targets)
    }
}

/// One VRF's control-plane state.
#[derive(Debug)]
struct VrfControl {
    rd: RouteDistinguisher,
    import: Vec<RouteTarget>,
    export: Vec<RouteTarget>,
    /// Prefixes this VRF originates, with their VPN labels.
    local: Vec<(Prefix, u32)>,
    /// Imported remote routes.
    table: LpmTrie<RemoteRoute>,
}

impl VrfControl {
    /// Whether the VRF's import policy admits a route exported with
    /// `exports`.
    fn imports(&self, exports: &[RouteTarget]) -> bool {
        self.import.iter().any(|t| exports.contains(t))
    }
}

/// One PE's control-plane state.
#[derive(Debug)]
struct PeControl {
    vrfs: Vec<VrfControl>,
    /// VPN label space (per-prefix allocation, the RFC 2547 default).
    label_space: LabelSpace,
    /// Incoming VPN label → (local VRF index, prefix) — what the PE data
    /// plane needs to dispatch a popped VPN label into the right VRF.
    vpn_ilm: HashMap<u32, (usize, Prefix)>,
}

/// How VPN-IPv4 routes are distributed among PEs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DistributionMode {
    /// Full iBGP mesh: P·(P−1)/2 sessions; an update goes to every peer.
    FullMesh,
    /// One route reflector: P sessions; an update goes PE → RR → others.
    RouteReflector,
}

/// First label value the fabric hands out as a VPN label. Kept disjoint
/// from the LDP range (which grows upward from 16) so that a PE's VPN
/// labels can never alias its transit labels.
pub const VPN_LABEL_BASE: u32 = 1 << 17;

/// The provider's VPN route distribution fabric.
pub struct BgpVpnFabric {
    pes: Vec<PeControl>,
    mode: DistributionMode,
    /// All advertisements currently in the fabric (the RR's Adj-RIB), by
    /// prefix.
    rib: BTreeMap<Prefix, Vec<VpnRouteAd>>,
    messages: u64,
}

impl BgpVpnFabric {
    /// Creates a fabric over `pe_count` PEs.
    pub fn new(pe_count: usize, mode: DistributionMode) -> Self {
        BgpVpnFabric {
            pes: (0..pe_count)
                .map(|_| PeControl {
                    vrfs: Vec::new(),
                    label_space: LabelSpace::with_base(VPN_LABEL_BASE),
                    vpn_ilm: HashMap::new(),
                })
                .collect(),
            mode,
            rib: BTreeMap::new(),
            messages: 0,
        }
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// iBGP sessions implied by the distribution mode.
    pub fn session_count(&self) -> u64 {
        let p = self.pes.len() as u64;
        match self.mode {
            DistributionMode::FullMesh => p * (p.saturating_sub(1)) / 2,
            DistributionMode::RouteReflector => p,
        }
    }

    /// Update messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Creates a VRF on `pe` with the given RD and import/export targets.
    pub fn add_vrf(
        &mut self,
        pe: usize,
        rd: RouteDistinguisher,
        import: Vec<RouteTarget>,
        export: Vec<RouteTarget>,
    ) -> VrfHandle {
        let vrfs = &mut self.pes[pe].vrfs;
        vrfs.push(VrfControl { rd, import, export, local: Vec::new(), table: LpmTrie::new() });
        VrfHandle { pe, index: vrfs.len() - 1 }
    }

    /// Adds an import target to a VRF (extranet provisioning). Takes
    /// effect for subsequently distributed routes; call
    /// [`BgpVpnFabric::refilter_vrf`] to pull existing ones.
    pub fn add_import_target(&mut self, vrf: VrfHandle, rt: RouteTarget) {
        let v = &mut self.pes[vrf.pe].vrfs[vrf.index];
        if !v.import.contains(&rt) {
            v.import.push(rt);
        }
    }

    /// Adds an export target to a VRF (extranet provisioning). Takes
    /// effect for routes advertised afterwards; re-advertise existing
    /// prefixes to distribute them under the new policy.
    pub fn add_export_target(&mut self, vrf: VrfHandle, rt: RouteTarget) {
        let v = &mut self.pes[vrf.pe].vrfs[vrf.index];
        if !v.export.contains(&rt) {
            v.export.push(rt);
        }
    }

    /// Removes an import target from a VRF. Routes already imported under
    /// it stay in the table until [`BgpVpnFabric::refilter_vrf`] re-selects
    /// them — exactly the stale state the static verifier exists to catch.
    pub fn remove_import_target(&mut self, vrf: VrfHandle, rt: RouteTarget) {
        self.pes[vrf.pe].vrfs[vrf.index].import.retain(|t| *t != rt);
    }

    /// The import route targets of a VRF (read by the isolation verifier).
    pub fn import_targets(&self, vrf: VrfHandle) -> &[RouteTarget] {
        &self.pes[vrf.pe].vrfs[vrf.index].import
    }

    /// The export route targets of a VRF (read by the isolation verifier).
    pub fn export_targets(&self, vrf: VrfHandle) -> &[RouteTarget] {
        &self.pes[vrf.pe].vrfs[vrf.index].export
    }

    /// The route distinguisher of a VRF.
    pub fn vrf_rd(&self, vrf: VrfHandle) -> RouteDistinguisher {
        self.pes[vrf.pe].vrfs[vrf.index].rd
    }

    /// Advertises `prefix` from `vrf` (a connected customer route learned
    /// from the attached CE): allocates a VPN label, installs the egress
    /// dispatch entry, and distributes the route to every importing VRF.
    /// Returns the VPN label and the table rows that changed.
    pub fn advertise(&mut self, vrf: VrfHandle, prefix: Prefix) -> (u32, Vec<RouteChange>) {
        let pe = &mut self.pes[vrf.pe];
        let label = pe.label_space.allocate();
        pe.vpn_ilm.insert(label, (vrf.index, prefix));
        let v = &mut pe.vrfs[vrf.index];
        v.local.push((prefix, label));
        let route = RemoteRoute { egress_pe: vrf.pe, vpn_label: label, rd: v.rd };
        let exports = v.export.clone();
        self.messages += self.update_fanout();
        let ad = VpnRouteAd { route, export_targets: exports.clone(), origin: vrf };
        self.rib.entry(prefix).or_default().push(ad);
        // Only a VRF that imports the new route can select it.
        (label, self.reselect(prefix, |v| v.imports(&exports)))
    }

    /// Withdraws a previously advertised prefix: frees the label, removes
    /// the dispatch entry and re-selects the prefix in every VRF that held
    /// the withdrawn route — which fails it over to the next-best path
    /// where another PE still advertises the prefix (a multihomed site).
    /// Returns the table rows that changed.
    pub fn withdraw(&mut self, vrf: VrfHandle, prefix: Prefix) -> Vec<RouteChange> {
        let Some(ads) = self.rib.get_mut(&prefix) else {
            return Vec::new();
        };
        let Some(pos) = ads.iter().position(|ad| ad.origin == vrf) else {
            return Vec::new();
        };
        let gone = ads.swap_remove(pos).route;
        if ads.is_empty() {
            self.rib.remove(&prefix);
        }
        // Withdrawal costs the same messages as the announcement.
        self.messages += self.update_fanout();
        let pe = &mut self.pes[vrf.pe];
        pe.vpn_ilm.remove(&gone.vpn_label);
        pe.label_space.release(gone.vpn_label);
        pe.vrfs[vrf.index].local.retain(|(p, _)| *p != prefix);
        self.reselect(prefix, |v| v.table.get(prefix) == Some(&gone))
    }

    fn update_fanout(&self) -> u64 {
        let p = self.pes.len() as u64;
        match self.mode {
            DistributionMode::FullMesh => p.saturating_sub(1),
            // PE → RR, then RR reflects to the other P−1 PEs.
            DistributionMode::RouteReflector => 1 + p.saturating_sub(1),
        }
    }

    /// Re-selects `prefix` in every VRF `affected` admits, in (PE, VRF
    /// index) order, and returns the rows that changed.
    fn reselect(
        &mut self,
        prefix: Prefix,
        affected: impl Fn(&VrfControl) -> bool,
    ) -> Vec<RouteChange> {
        let ads = self.rib.get(&prefix).map_or(&[][..], Vec::as_slice);
        let mut changes = Vec::new();
        for (pe, p) in self.pes.iter_mut().enumerate() {
            for (index, v) in p.vrfs.iter_mut().enumerate().filter(|(_, v)| affected(v)) {
                Self::select(VrfHandle { pe, index }, v, prefix, ads, &mut changes);
            }
        }
        changes
    }

    /// The VPN best-path selection. Re-selects `prefix` in VRF `vrf` (state
    /// `v`) from the prefix's advertisements `ads`: among those importable
    /// under the VRF's current policy, the lowest `(egress PE, VPN label)`
    /// wins (a deterministic tie-break for a multihomed site). Records the
    /// row in `changes` if it changed.
    fn select(
        vrf: VrfHandle,
        v: &mut VrfControl,
        prefix: Prefix,
        ads: &[VpnRouteAd],
        changes: &mut Vec<RouteChange>,
    ) {
        let best = ads
            .iter()
            .filter(|ad| ad.importable(vrf, v))
            .map(|ad| ad.route)
            .min_by_key(|r| (r.egress_pe, r.vpn_label));
        if v.table.get(prefix) == best.as_ref() {
            return;
        }
        match best {
            Some(r) => v.table.insert(prefix, r),
            None => v.table.remove(prefix),
        };
        changes.push(RouteChange { vrf, prefix, best });
    }

    /// Re-sends every RIB route `vrf` imports (used after adding a VRF to
    /// an already-running VPN — the "new site joins" path of experiment
    /// M1): [`BgpVpnFabric::refilter_vrf`] plus one replayed update message
    /// per importable route. Returns the number of routes replayed.
    pub fn refresh_vrf(&mut self, vrf: VrfHandle) -> usize {
        self.refilter_vrf(vrf);
        let v = &self.pes[vrf.pe].vrfs[vrf.index];
        let replayed = self.rib.values().flatten().filter(|ad| ad.importable(vrf, v)).count();
        self.messages += replayed as u64;
        replayed
    }

    /// Re-selects every RIB prefix in `vrf` under its *current* import
    /// policy: routes no longer covered by any import target leave or give
    /// way to the best one still covered, newly importable ones come in.
    /// This is the RT-policy delta path — a local Adj-RIB-In re-evaluation
    /// that costs zero update messages in either distribution mode.
    /// Returns the table rows that changed, in prefix order.
    pub fn refilter_vrf(&mut self, vrf: VrfHandle) -> Vec<RouteChange> {
        let v = &mut self.pes[vrf.pe].vrfs[vrf.index];
        let mut changes = Vec::new();
        for (&prefix, ads) in &self.rib {
            Self::select(vrf, v, prefix, ads, &mut changes);
        }
        changes
    }

    /// The imported remote-route table of a VRF.
    pub fn routes(&self, vrf: VrfHandle) -> &LpmTrie<RemoteRoute> {
        &self.pes[vrf.pe].vrfs[vrf.index].table
    }

    /// The locally originated `(prefix, vpn_label)` pairs of a VRF.
    pub fn local_routes(&self, vrf: VrfHandle) -> &[(Prefix, u32)] {
        &self.pes[vrf.pe].vrfs[vrf.index].local
    }

    /// Egress dispatch: which `(vrf index, prefix)` an incoming VPN label
    /// on `pe` belongs to.
    pub fn vpn_label_owner(&self, pe: usize, label: u32) -> Option<(usize, Prefix)> {
        self.pes[pe].vpn_ilm.get(&label).copied()
    }

    /// All `(label, vrf index, prefix)` dispatch entries of a PE.
    pub fn vpn_ilm(&self, pe: usize) -> impl Iterator<Item = (u32, usize, Prefix)> + '_ {
        self.pes[pe].vpn_ilm.iter().map(|(&l, &(v, p))| (l, v, p))
    }

    /// Per-PE control state size: (VRFs, imported routes, live VPN labels).
    /// The T1 state metric.
    pub fn pe_state(&self, pe: usize) -> (usize, usize, u64) {
        let p = &self.pes[pe];
        let routes = p.vrfs.iter().map(|v| v.table.len() + v.local.len()).sum();
        (p.vrfs.len(), routes, p.label_space.live())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::pfx;

    const RT_A: RouteTarget = RouteTarget(100);
    const RT_B: RouteTarget = RouteTarget(200);

    fn rd(n: u32) -> RouteDistinguisher {
        RouteDistinguisher::new(65000, n)
    }

    /// Two VPNs with byte-identical address spaces over 3 PEs: imports must
    /// stay strictly separate.
    #[test]
    fn overlapping_address_spaces_stay_separate() {
        let mut f = BgpVpnFabric::new(3, DistributionMode::RouteReflector);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
        let b0 = f.add_vrf(0, rd(2), vec![RT_B], vec![RT_B]);
        let b2 = f.add_vrf(2, rd(2), vec![RT_B], vec![RT_B]);

        let (la, _) = f.advertise(a1, pfx("10.1.0.0/16"));
        let (lb, _) = f.advertise(b2, pfx("10.1.0.0/16")); // same prefix, other VPN

        let ra = f.routes(a0).lookup(pfx("10.1.0.0/16").addr()).copied().unwrap();
        assert_eq!(ra.egress_pe, 1);
        assert_eq!(ra.vpn_label, la);
        let rb = f.routes(b0).lookup(pfx("10.1.0.0/16").addr()).copied().unwrap();
        assert_eq!(rb.egress_pe, 2);
        assert_eq!(rb.vpn_label, lb);
        assert_eq!(ra.rd, rd(1));
        assert_eq!(rb.rd, rd(2));

        // No cross-pollination: VPN A's VRF on PE1 must not have B's route.
        assert!(f.routes(a1).is_empty());
        assert!(f.routes(b2).is_empty());
    }

    #[test]
    fn labels_dispatch_to_the_right_vrf_at_egress() {
        let mut f = BgpVpnFabric::new(2, DistributionMode::RouteReflector);
        let a = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        let b = f.add_vrf(0, rd(2), vec![RT_B], vec![RT_B]);
        let (la, _) = f.advertise(a, pfx("10.0.0.0/8"));
        let (lb, _) = f.advertise(b, pfx("10.0.0.0/8"));
        assert_ne!(la, lb);
        assert_eq!(f.vpn_label_owner(0, la), Some((a.index, pfx("10.0.0.0/8"))));
        assert_eq!(f.vpn_label_owner(0, lb), Some((b.index, pfx("10.0.0.0/8"))));
        assert_eq!(f.vpn_label_owner(1, la), None);
    }

    #[test]
    fn session_counts_by_mode() {
        let mesh = BgpVpnFabric::new(10, DistributionMode::FullMesh);
        assert_eq!(mesh.session_count(), 45);
        let rr = BgpVpnFabric::new(10, DistributionMode::RouteReflector);
        assert_eq!(rr.session_count(), 10);
    }

    #[test]
    fn message_counting_per_update() {
        let mut f = BgpVpnFabric::new(5, DistributionMode::RouteReflector);
        let v = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        f.advertise(v, pfx("192.168.0.0/24"));
        // PE → RR (1) + RR → 4 other PEs.
        assert_eq!(f.messages(), 5);

        let mut m = BgpVpnFabric::new(5, DistributionMode::FullMesh);
        let v = m.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        m.advertise(v, pfx("192.168.0.0/24"));
        assert_eq!(m.messages(), 4);
    }

    #[test]
    fn withdraw_removes_route_and_frees_label() {
        let mut f = BgpVpnFabric::new(2, DistributionMode::RouteReflector);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
        let (l, _) = f.advertise(a1, pfx("172.16.0.0/12"));
        assert!(f.routes(a0).lookup(pfx("172.16.0.0/12").addr()).is_some());
        f.withdraw(a1, pfx("172.16.0.0/12"));
        assert!(f.routes(a0).lookup(pfx("172.16.0.0/12").addr()).is_none());
        assert_eq!(f.vpn_label_owner(1, l), None);
        assert_eq!(f.pe_state(1).2, 0, "label freed");
        // Idempotent on a second withdraw.
        f.withdraw(a1, pfx("172.16.0.0/12"));
    }

    #[test]
    fn hub_and_spoke_via_asymmetric_targets() {
        // Spokes export RT_A, import RT_B; hub exports RT_B, imports RT_A:
        // spokes see only the hub, the hub sees all spokes.
        let mut f = BgpVpnFabric::new(3, DistributionMode::RouteReflector);
        let hub = f.add_vrf(0, rd(10), vec![RT_A], vec![RT_B]);
        let s1 = f.add_vrf(1, rd(11), vec![RT_B], vec![RT_A]);
        let s2 = f.add_vrf(2, rd(12), vec![RT_B], vec![RT_A]);
        f.advertise(hub, pfx("10.0.0.0/24"));
        f.advertise(s1, pfx("10.1.0.0/24"));
        f.advertise(s2, pfx("10.2.0.0/24"));
        assert_eq!(f.routes(hub).len(), 2, "hub imports both spokes");
        assert_eq!(f.routes(s1).len(), 1, "spoke sees only the hub");
        assert!(
            f.routes(s1).lookup(pfx("10.2.0.0/24").addr()).is_none(),
            "no spoke-to-spoke route"
        );
    }

    #[test]
    fn late_joining_vrf_catches_up_with_refresh() {
        let mut f = BgpVpnFabric::new(3, DistributionMode::RouteReflector);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        f.advertise(a0, pfx("10.0.0.0/24"));
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
        f.advertise(a1, pfx("10.1.0.0/24"));
        // The late VRF missed the first update until refreshed.
        let late = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]);
        assert!(f.routes(late).is_empty());
        assert_eq!(f.refresh_vrf(late), 2);
        assert_eq!(f.routes(late).len(), 2);
    }

    /// A site advertised from two PEs (multihoming): importers pick the
    /// deterministic best path, and a withdraw fails them over to the
    /// survivor.
    #[test]
    fn multihomed_prefix_best_path_and_failover() {
        let mut f = BgpVpnFabric::new(3, DistributionMode::RouteReflector);
        let v0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]); // importer
        let v1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]); // primary home
        let v2 = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]); // backup home
        let p = pfx("10.5.0.0/16");
        let (l1, _) = f.advertise(v1, p);
        let (l2, _) = f.advertise(v2, p);
        // Best path: lowest egress PE (1) regardless of arrival order.
        let r = f.routes(v0).lookup(p.addr()).copied().unwrap();
        assert_eq!((r.egress_pe, r.vpn_label), (1, l1));
        // Primary withdraws: importer fails over to PE2.
        f.withdraw(v1, p);
        let r = f.routes(v0).lookup(p.addr()).copied().unwrap();
        assert_eq!((r.egress_pe, r.vpn_label), (2, l2));
        // Backup withdraws too: the prefix is gone.
        f.withdraw(v2, p);
        assert!(f.routes(v0).lookup(p.addr()).is_none());
    }

    /// Best-path choice is independent of advertisement order.
    #[test]
    fn multihoming_is_order_independent() {
        let order_a = {
            let mut f = BgpVpnFabric::new(3, DistributionMode::RouteReflector);
            let v0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
            let v1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
            let v2 = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]);
            f.advertise(v1, pfx("10.5.0.0/16"));
            f.advertise(v2, pfx("10.5.0.0/16"));
            f.routes(v0).lookup(pfx("10.5.0.0/16").addr()).copied().unwrap().egress_pe
        };
        let order_b = {
            let mut f = BgpVpnFabric::new(3, DistributionMode::RouteReflector);
            let v0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
            let v1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
            let v2 = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]);
            f.advertise(v2, pfx("10.5.0.0/16"));
            f.advertise(v1, pfx("10.5.0.0/16"));
            f.routes(v0).lookup(pfx("10.5.0.0/16").addr()).copied().unwrap().egress_pe
        };
        assert_eq!(order_a, order_b);
        assert_eq!(order_a, 1);
    }

    /// Re-filtering after an RT change removes now-unimportable routes and
    /// pulls newly importable ones — and reports exactly the delta.
    #[test]
    fn refilter_applies_import_policy_deltas() {
        let mut f = BgpVpnFabric::new(3, DistributionMode::RouteReflector);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
        let b2 = f.add_vrf(2, rd(2), vec![RT_B], vec![RT_B]);
        f.advertise(a1, pfx("10.1.0.0/16"));
        f.advertise(b2, pfx("10.9.0.0/16"));
        assert_eq!(f.routes(a0).len(), 1);

        // Import RT_B too: the refilter pulls b2's route without messages.
        let before = f.messages();
        f.add_import_target(a0, RT_B);
        let changes = f.refilter_vrf(a0);
        assert_eq!(f.messages(), before, "RT policy is local, not an update");
        let added: Vec<_> = changes.iter().filter(|c| c.best.is_some()).collect();
        let removed: Vec<_> = changes.iter().filter(|c| c.best.is_none()).collect();
        assert_eq!(added.len(), 1);
        assert_eq!(added[0].prefix, pfx("10.9.0.0/16"));
        assert!(removed.is_empty());
        assert_eq!(f.routes(a0).len(), 2);

        // Drop RT_A: its route leaves and the delta says so.
        f.remove_import_target(a0, RT_A);
        let changes = f.refilter_vrf(a0);
        let added: Vec<_> = changes.iter().filter(|c| c.best.is_some()).collect();
        let removed: Vec<_> = changes.iter().filter(|c| c.best.is_none()).collect();
        assert!(added.is_empty());
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].prefix, pfx("10.1.0.0/16"));
        assert_eq!(f.routes(a0).len(), 1);

        // Idempotent once settled.
        let changes = f.refilter_vrf(a0);
        assert!(changes.is_empty());
    }

    #[test]
    fn pe_state_counts() {
        let mut f = BgpVpnFabric::new(2, DistributionMode::RouteReflector);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
        f.advertise(a0, pfx("10.0.0.0/24"));
        f.advertise(a1, pfx("10.1.0.0/24"));
        let (vrfs, routes, labels) = f.pe_state(0);
        assert_eq!(vrfs, 1);
        assert_eq!(routes, 2, "one local + one imported");
        assert_eq!(labels, 1);
    }
}
