//! Property-based tests for routing: SPF against a Floyd–Warshall oracle
//! on random weighted graphs, incremental SPF against full runs under
//! random link events, and BGP/VPN fabric invariants under random
//! VRF/route scripts, including a brute-force reference model of VPN
//! best-path selection.

use std::collections::BTreeMap;

use netsim_net::{Ip, Prefix};
use netsim_routing::igp::{spf, spf_filtered};
use netsim_routing::{
    BgpVpnFabric, DistributionMode, Igp, LinkAttrs, RemoteRoute, RouteChange, RouteDistinguisher,
    RouteTarget, SpfScratch, Topology, VrfHandle,
};
use proptest::prelude::*;

/// Random connected weighted topology: spanning tree + extras.
fn arb_topo(max_n: usize) -> impl Strategy<Value = Topology> {
    (2..max_n)
        .prop_flat_map(|n| {
            let tree = proptest::collection::vec((any::<u64>(), 1u64..20), n - 1);
            let extra = proptest::collection::vec((0..n, 0..n, 1u64..20), 0..n);
            (Just(n), tree, extra)
        })
        .prop_map(|(n, tree, extra)| {
            let mut t = Topology::new(n);
            for (i, (r, cost)) in tree.iter().enumerate() {
                let u = i + 1;
                let v = (*r as usize) % u;
                t.add_link(u, v, LinkAttrs { cost: *cost, capacity_bps: 1 });
            }
            for (u, v, cost) in extra {
                if u != v {
                    t.add_link(u, v, LinkAttrs { cost, capacity_bps: 1 });
                }
            }
            t
        })
}

fn floyd_warshall(t: &Topology) -> Vec<Vec<u64>> {
    let n = t.node_count();
    let mut d = vec![vec![u64::MAX / 4; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for l in 0..t.link_count() {
        let (u, v, a) = t.link(l);
        d[u][v] = d[u][v].min(a.cost);
        d[v][u] = d[v][u].min(a.cost);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SPF distances match the Floyd–Warshall oracle, and every reported
    /// path is consistent with its advertised cost.
    #[test]
    #[allow(clippy::needless_range_loop)] // oracle is indexed by (a, b)
    fn spf_matches_floyd_warshall(topo in arb_topo(10)) {
        let oracle = floyd_warshall(&topo);
        let igp = Igp::converge(&topo);
        let n = topo.node_count();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(igp.path_cost(a, b), Some(oracle[a][b]), "{} -> {}", a, b);
                let path = igp.path(a, b).expect("connected");
                // Sum edge costs along the path and compare.
                let mut cost = 0u64;
                for w in path.windows(2) {
                    let c = topo
                        .neighbors(w[0])
                        .filter(|&(peer, _, _)| peer == w[1])
                        .map(|(_, attrs, _)| attrs.cost)
                        .min()
                        .expect("adjacent");
                    cost += c;
                }
                prop_assert_eq!(cost, oracle[a][b]);
            }
        }
    }

    /// ECMP sets always contain the chosen next hop, and the chosen hop is
    /// the minimum (determinism contract).
    #[test]
    fn ecmp_contains_next_hop(topo in arb_topo(9)) {
        let igp = Igp::converge(&topo);
        let n = topo.node_count();
        for a in 0..n {
            let tree = igp.tree(a);
            for b in 0..n {
                if a == b {
                    continue;
                }
                let nh = tree.next_hop[b].expect("connected");
                prop_assert!(tree.ecmp[b].contains(&nh));
                prop_assert_eq!(Some(&nh), tree.ecmp[b].iter().min());
            }
        }
    }

    /// BGP/VPN fabric: a VRF imports a route iff the route's export
    /// targets intersect its import targets — over random target sets.
    #[test]
    fn import_iff_rt_intersection(
        import_bits in 0u8..16,
        export_bits in 1u8..16,
        pe_count in 2usize..5,
    ) {
        let rts = |bits: u8| -> Vec<RouteTarget> {
            (0..4).filter(|b| bits & (1 << b) != 0).map(|b| RouteTarget(b as u64)).collect()
        };
        let mut f = BgpVpnFabric::new(pe_count, DistributionMode::RouteReflector);
        let importer = f.add_vrf(0, RouteDistinguisher::new(65000, 1), rts(import_bits), vec![]);
        let exporter =
            f.add_vrf(1, RouteDistinguisher::new(65000, 2), vec![], rts(export_bits));
        let p: Prefix = "192.168.0.0/24".parse().unwrap();
        f.advertise(exporter, p);
        let should_import = import_bits & export_bits != 0;
        prop_assert_eq!(f.routes(importer).lookup(p.addr()).is_some(), should_import);
    }

    /// Advertise-then-withdraw leaves every VRF table exactly as before,
    /// and label accounting returns to baseline, for any interleaving of
    /// other routes.
    #[test]
    fn withdraw_restores_state(
        others in proptest::collection::vec((0u8..4, any::<u16>()), 0..12),
        target_pe in 0u8..4,
    ) {
        let rt = RouteTarget(9);
        let rd = RouteDistinguisher::new(65000, 9);
        let build = |with_extra: bool| {
            let mut f = BgpVpnFabric::new(4, DistributionMode::RouteReflector);
            let handles: Vec<_> = (0..4).map(|pe| f.add_vrf(pe, rd, vec![rt], vec![rt])).collect();
            for (pe, third) in &others {
                let p = Prefix::new(Ip(0xC0A8_0000 | (u32::from(*third) << 8)), 24);
                f.advertise(handles[*pe as usize % 4], p);
            }
            if with_extra {
                let extra: Prefix = "172.16.0.0/12".parse().unwrap();
                let h = handles[target_pe as usize % 4];
                f.advertise(h, extra);
                f.withdraw(h, extra);
            }
            let tables: Vec<Vec<(Prefix, usize, u32)>> = handles
                .iter()
                .map(|&h| {
                    let mut v: Vec<(Prefix, usize, u32)> = f
                        .routes(h)
                        .iter()
                        .map(|(p, r)| (p, r.egress_pe, r.vpn_label))
                        .collect();
                    v.sort();
                    v
                })
                .collect();
            let labels: Vec<u64> = (0..4).map(|pe| f.pe_state(pe).2).collect();
            (tables, labels)
        };
        // Duplicate prefixes in `others` advertise twice; fine — both runs
        // do the same thing, so state must still match.
        prop_assert_eq!(build(false), build(true));
    }

    /// Session-count algebra: full mesh is quadratic, RR linear, and both
    /// distribute to the same importers.
    #[test]
    fn distribution_modes_agree_on_reachability(pe_count in 2usize..6, n_routes in 1usize..8) {
        let rt = RouteTarget(1);
        let rd = RouteDistinguisher::new(65000, 1);
        let run = |mode| {
            let mut f = BgpVpnFabric::new(pe_count, mode);
            let handles: Vec<_> =
                (0..pe_count).map(|pe| f.add_vrf(pe, rd, vec![rt], vec![rt])).collect();
            for i in 0..n_routes {
                let p = Prefix::new(Ip(0x0A00_0000 | ((i as u32) << 8)), 24);
                f.advertise(handles[i % pe_count], p);
            }
            let routes: Vec<usize> = handles.iter().map(|&h| f.routes(h).len()).collect();
            (routes, f.session_count())
        };
        let (mesh_routes, mesh_sessions) = run(DistributionMode::FullMesh);
        let (rr_routes, rr_sessions) = run(DistributionMode::RouteReflector);
        prop_assert_eq!(mesh_routes, rr_routes, "reachability must not depend on distribution");
        prop_assert_eq!(mesh_sessions, (pe_count * (pe_count - 1) / 2) as u64);
        prop_assert_eq!(rr_sessions, pe_count as u64);
    }
}

/// A random multigraph: 1–9 nodes, links of cost 1–4 between random
/// endpoints (parallel links kept, self-loops dropped, so some nodes may be
/// isolated).
fn arb_multigraph() -> impl Strategy<Value = Topology> {
    (1usize..10)
        .prop_flat_map(|n| (Just(n), proptest::collection::vec((0..n, 0..n, 1u64..=4), 0..3 * n)))
        .prop_map(|(n, links)| {
            let mut t = Topology::new(n);
            for (u, v, cost) in links.into_iter().filter(|&(u, v, _)| u != v) {
                t.add_link(u, v, LinkAttrs { cost, capacity_bps: 1 });
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Incremental SPF equals a full run after every event of a random
    /// down/up sequence (repeats of a link's current state included), from
    /// every root. Trees follow the control plane's discipline: the
    /// `affected_by` gate first, `update` only when it admits the event;
    /// a skipped tree must already be exact. The update's report names
    /// exactly the nodes whose next hop or reachability changed.
    #[test]
    fn incremental_spf_equals_a_full_run(
        topo in arb_multigraph(),
        events in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..24),
    ) {
        let n = topo.node_count();
        let mut down = vec![false; topo.link_count()];
        let mut trees: Vec<_> = (0..n).map(|r| spf(&topo, r)).collect();
        let mut scratch = SpfScratch::default();
        for (pick, now_down) in events {
            if down.is_empty() {
                break;
            }
            let link = (pick % down.len() as u64) as usize;
            down[link] = now_down;
            let usable = |l: usize| !down[l];
            for tree in &mut trees {
                let old = tree.clone();
                let admitted = tree.affected_by(&topo, link, now_down);
                if admitted {
                    tree.update(&topo, link, &usable, &mut scratch);
                }
                let want = spf_filtered(&topo, tree.root, &usable);
                let root = tree.root;
                prop_assert_eq!(&tree.dist, &want.dist, "dist from {} (admitted {})", root, admitted);
                prop_assert_eq!(&tree.next_hop, &want.next_hop, "next hops from {}", root);
                prop_assert_eq!(&tree.ecmp, &want.ecmp, "ECMP sets from {}", root);
                if admitted {
                    for v in 0..n {
                        let moved = old.next_hop[v] != want.next_hop[v];
                        let flipped = old.reachable(v) != want.reachable(v);
                        prop_assert_eq!(scratch.next_hop_changed(v), moved, "{} → {}", root, v);
                        prop_assert_eq!(scratch.reachability_changed(v), flipped);
                    }
                }
            }
        }
    }
}

/// Every VRF's imported table, keyed by (PE, VRF index, prefix).
type Tables = BTreeMap<(usize, usize, Prefix), RemoteRoute>;

/// The fabric's tables, as [`Tables`].
fn fabric_tables(f: &BgpVpnFabric, vrfs: &[VrfHandle]) -> Tables {
    let mut t = Tables::new();
    for &h in vrfs {
        t.extend(f.routes(h).iter().map(|(p, r)| ((h.pe, h.index, p), *r)));
    }
    t
}

/// The reference model: for every VRF and prefix, the minimum by
/// `(egress PE, VPN label)` over the live advertisements `(origin,
/// prefix, route, export targets)` from another PE whose export targets
/// meet the VRF's import targets `imports`.
fn reference_tables(
    vrfs: &[VrfHandle],
    imports: &[Vec<RouteTarget>],
    ads: &[(VrfHandle, Prefix, RemoteRoute, Vec<RouteTarget>)],
) -> Tables {
    let mut t = Tables::new();
    for (h, import) in vrfs.iter().zip(imports) {
        for (_, prefix, route, exports) in ads {
            if route.egress_pe == h.pe || !import.iter().any(|rt| exports.contains(rt)) {
                continue;
            }
            let row = t.entry((h.pe, h.index, *prefix)).or_insert(*route);
            if (route.egress_pe, route.vpn_label) < (row.egress_pe, row.vpn_label) {
                *row = *route;
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fabric against a brute-force model of VPN best-path selection
    /// over random scripts of VRF creation, advertisements, withdrawals
    /// and import-policy edits (each creation and edit followed by a
    /// re-filter): after every step each VRF table equals the model's, and
    /// the returned changes are exactly the rows that changed.
    #[test]
    fn vrf_tables_match_a_brute_force_selection(
        pe_count in 3usize..5,
        ops in proptest::collection::vec((0u8..5, any::<u8>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        let prefixes: [Prefix; 3] =
            ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"].map(|p| p.parse().unwrap());
        let rts = |bits: u8| -> Vec<RouteTarget> {
            (0..4).filter(|b| bits & (1 << b) != 0).map(RouteTarget).collect()
        };
        let mut f = BgpVpnFabric::new(pe_count, DistributionMode::RouteReflector);
        let mut vrfs: Vec<VrfHandle> = Vec::new();
        let mut imports: Vec<Vec<RouteTarget>> = Vec::new();
        let mut exports: Vec<Vec<RouteTarget>> = Vec::new();
        let mut ads: Vec<(VrfHandle, Prefix, RemoteRoute, Vec<RouteTarget>)> = Vec::new();
        for (kind, a, b, c) in ops {
            if kind > 0 && vrfs.is_empty() {
                continue;
            }
            let pick = usize::from(a) % vrfs.len().max(1);
            let prefix = prefixes[usize::from(b) % 3];
            let rt = RouteTarget(u64::from(c % 4));
            let before = fabric_tables(&f, &vrfs);
            let changes: Vec<RouteChange> = match kind {
                0 => {
                    let rd = RouteDistinguisher::new(65000, vrfs.len() as u32);
                    let h = f.add_vrf(usize::from(a) % pe_count, rd, rts(b), rts(c));
                    vrfs.push(h);
                    imports.push(rts(b));
                    exports.push(rts(c));
                    f.refilter_vrf(h)
                }
                1 => {
                    let h = vrfs[pick];
                    if ads.iter().any(|ad| ad.0 == h && ad.1 == prefix) {
                        continue;
                    }
                    let (label, changes) = f.advertise(h, prefix);
                    let route = RemoteRoute { egress_pe: h.pe, vpn_label: label, rd: f.vrf_rd(h) };
                    ads.push((h, prefix, route, exports[pick].clone()));
                    changes
                }
                2 => {
                    let h = vrfs[pick];
                    ads.retain(|ad| !(ad.0 == h && ad.1 == prefix));
                    f.withdraw(h, prefix)
                }
                3 => {
                    f.add_import_target(vrfs[pick], rt);
                    if !imports[pick].contains(&rt) {
                        imports[pick].push(rt);
                    }
                    f.refilter_vrf(vrfs[pick])
                }
                _ => {
                    f.remove_import_target(vrfs[pick], rt);
                    imports[pick].retain(|t| *t != rt);
                    f.refilter_vrf(vrfs[pick])
                }
            };
            let after = fabric_tables(&f, &vrfs);
            prop_assert_eq!(&after, &reference_tables(&vrfs, &imports, &ads), "op {}", kind);
            let mut changed: BTreeMap<(usize, usize, Prefix), Option<RemoteRoute>> =
                BTreeMap::new();
            for key in before.keys().chain(after.keys()) {
                if before.get(key) != after.get(key) {
                    changed.insert(*key, after.get(key).copied());
                }
            }
            let reported: BTreeMap<_, _> =
                changes.iter().map(|c| ((c.vrf.pe, c.vrf.index, c.prefix), c.best)).collect();
            prop_assert_eq!(reported.len(), changes.len(), "a row reported twice");
            prop_assert_eq!(reported, changed, "op {}", kind);
        }
    }
}
