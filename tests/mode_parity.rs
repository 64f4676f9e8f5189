//! Oracle ↔ in-band control-plane parity.
//!
//! Both control modes run the same message-driven control plane and
//! differ only in delivery: in-band mode carries LSAs, LDP label messages
//! and MP-BGP route deltas as CS6 packets through the same links the data
//! plane uses, so convergence takes simulated *time*; Oracle mode delivers
//! the same messages instantly and losslessly when `reconverge()` runs.
//! Once quiescent, both modes must agree on every piece of forwarding
//! state: SPF trees, every router's LFIB (label values included — labels
//! are allocated once at bring-up and retained in both modes), LSP
//! forwarding paths through the live LFIBs, VRF contents, and VPN-label
//! dispatch tables.
//!
//! Neither mode may agree with the other by sharing a mistake: at every
//! checkpoint both are also checked against an independent reference, a
//! fresh global IGP + LDP computation over the live links
//! (`Igp::converge_filtered`, `LdpDomain::run`, `LdpDomain::walk`), which
//! the runtime itself no longer uses. Bring-up, which runs LDP as
//! messages, is held to the reference more tightly: on random topologies
//! every LFIB, label values included, every PE's FTNs and the bring-up
//! message counts must equal `LdpDomain::run`'s.

use mplsvpn::mpls::{Fec, LabelOp, LdpConfig, LdpDomain, Lfib};
use mplsvpn::net::{Bytes, Dscp, Ip, Packet};
use mplsvpn::routing::{Igp, LinkAttrs, RouteTarget, Topology};
use mplsvpn::sim::{IfaceId, MSEC};
use mplsvpn::vpn::{
    BackboneBuilder, ControlMode, CoreRouter, CtrlStats, PeRouter, ProviderNetwork, VpnId,
    VrfDigestRow, CTRL_FLOW_BASE,
};
use proptest::prelude::*;

/// One node's SPF view: (dist, next_hop, ecmp) of the tree it forwards on.
type SpfRow = (Vec<u64>, Vec<Option<usize>>, Vec<Vec<usize>>);

/// Fish: short path PE0-P1-PE4 (links 0,1), long PE0-P2-P3-PE4 (2,3,4).
fn fish() -> (Topology, Vec<usize>) {
    let mut topo = Topology::new(5);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    for (u, v) in [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)] {
        topo.add_link(u, v, attrs);
    }
    (topo, vec![0, 4])
}

/// Ladder: two rails 0-2-4 and 1-3-5 with rungs at every level.
fn ladder() -> (Topology, Vec<usize>) {
    let mut topo = Topology::new(6);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    for (u, v) in [(0, 2), (2, 4), (1, 3), (3, 5), (0, 1), (2, 3), (4, 5)] {
        topo.add_link(u, v, attrs);
    }
    (topo, vec![0, 5])
}

/// One router's LFIB: sorted (in label, operation, out interface) rows.
type LfibRows = Vec<(u32, LabelOp, usize)>;

fn lfib_rows(lfib: &Lfib) -> LfibRows {
    let mut rows: LfibRows = lfib.iter().map(|(l, e)| (l, e.op, e.out_iface)).collect();
    rows.sort_unstable_by_key(|&(l, _, _)| l);
    rows
}

/// Backbone node `u`'s live LFIB.
fn router_lfib(pn: &ProviderNetwork, pes: &[usize], u: usize) -> LfibRows {
    let id = pn.backbone_node(u);
    if pes.contains(&u) {
        lfib_rows(&pn.net.node_ref::<PeRouter>(id).lfib)
    } else {
        lfib_rows(&pn.net.node_ref::<CoreRouter>(id).lfib)
    }
}

/// Everything forwarding-relevant, in deterministic order. Failed
/// (dead) nodes are left out of the per-node rows: a dead node detects
/// nothing in-band, and its tables forward nothing.
#[derive(Debug, PartialEq)]
struct Digest {
    /// Per live backbone node: the SPF tree it forwards on.
    spf: Vec<(usize, SpfRow)>,
    /// Per live backbone node: its LFIB.
    lfibs: Vec<(usize, LfibRows)>,
    /// LSP node walk for every ordered PE pair.
    lsps: Vec<Option<Vec<usize>>>,
    /// Per (PE, VPN): sorted VRF rows (prefix, remote → egress/label/path).
    vrfs: Vec<Vec<VrfDigestRow>>,
    /// Per PE: sorted VPN-label dispatch table.
    ilm: Vec<Vec<(u32, usize)>>,
}

fn digest(pn: &mut ProviderNetwork, pes: &[usize], vpns: &[VpnId], dead: &[usize]) -> Digest {
    let live: Vec<usize> = (0..pn.topo.node_count()).filter(|u| !dead.contains(u)).collect();
    let spf = live
        .iter()
        .map(|&u| {
            let t = pn.effective_spf(u);
            (u, (t.dist.clone(), t.next_hop.clone(), t.ecmp.clone()))
        })
        .collect();
    let lfibs = live.iter().map(|&u| (u, router_lfib(pn, pes, u))).collect();
    let n_pe = pn.pe_count();
    let mut lsps = Vec::new();
    for i in 0..n_pe {
        for j in 0..n_pe {
            if i != j {
                lsps.push(pn.lsp_path(i, j));
            }
        }
    }
    let mut vrfs = Vec::new();
    for pe in 0..n_pe {
        for &vpn in vpns {
            if pn.vrf_handle(pe, vpn).is_some() {
                vrfs.push(pn.vrf_digest(pe, vpn));
            }
        }
    }
    let ilm = (0..n_pe)
        .map(|k| {
            let id = pn.pe_node(k);
            let mut rows: Vec<(u32, usize)> =
                pn.net.node_ref::<PeRouter>(id).vpn_ilm.iter().map(|(&l, &v)| (l, v)).collect();
            rows.sort_unstable();
            rows
        })
        .collect();
    Digest { spf, lfibs, lsps, vrfs, ilm }
}

/// Checks a checkpoint against the independent reference: SPF trees and
/// PE-to-PE LSP walks from a fresh global IGP + LDP computation over the
/// links that are up.
fn assert_matches_reference(pn: &ProviderNetwork, pes: &[usize], d: &Digest, at: &str) {
    let failed = pn.failed_links();
    let igp = Igp::converge_filtered(&pn.topo, &|l| !failed.contains(&l));
    for (u, (dist, next_hop, ecmp)) in &d.spf {
        let t = igp.tree(*u);
        assert_eq!((dist, next_hop, ecmp), (&t.dist, &t.next_hop, &t.ecmp), "{at}: SPF of {u}");
    }
    let adjacency = pn.topo.adjacency_lists();
    let fecs: Vec<(Fec, usize)> =
        pes.iter().enumerate().map(|(k, &pe)| (Fec(k as u32), pe)).collect();
    let nh = |u: usize, v: usize| igp.next_hop(u, v);
    let ldp = LdpDomain::run(&adjacency, &fecs, &nh, LdpConfig { php: pn.php() });
    let mut walks = d.lsps.iter();
    for &from in pes {
        for (j, &to) in pes.iter().enumerate() {
            if from != to {
                let want = ldp.walk(&adjacency, from, Fec(j as u32));
                assert_eq!(walks.next(), Some(&want), "{at}: LSP {from} → {to}");
            }
        }
    }
}

/// Runs the canonical churn scenario — cut, join-under-failure, repair,
/// detach, RT-policy add/remove, and (given `dead`) a node failure —
/// returning the digest at each checkpoint after checking it against the
/// reference. Oracle arms reconverge explicitly after cut, repair and node
/// failure; in-band arms are given settle time and converge by themselves.
fn run_scenario(
    topo: Topology,
    pes: Vec<usize>,
    cut: usize,
    dead: Option<usize>,
    mode: ControlMode,
    seed: u64,
) -> Vec<Digest> {
    let oracle = mode == ControlMode::Oracle;
    let mut pn = BackboneBuilder::new(topo, pes.clone())
        .detection(20 * MSEC)
        .seed(seed)
        .control_mode(mode)
        .build();
    let vpn_a = pn.new_vpn("acme");
    let vpn_b = pn.new_vpn("buynlarge");
    let vpns = [vpn_a, vpn_b];
    let mut out = Vec::new();
    let mut checkpoint = |pn: &mut ProviderNetwork, dead: &[usize]| {
        let d = digest(pn, &pes, &vpns, dead);
        let at = format!("{mode:?} seed {seed} checkpoint {}", out.len());
        assert_matches_reference(pn, &pes, &d, &at);
        out.push(d);
    };
    pn.add_site(vpn_a, 0, "10.1.0.0/16".parse().unwrap(), None);
    pn.add_site(vpn_a, 1, "10.2.0.0/16".parse().unwrap(), None);
    pn.add_site(vpn_b, 0, "10.1.0.0/16".parse().unwrap(), None); // overlap is the point
    let b1 = pn.add_site(vpn_b, 1, "10.9.0.0/16".parse().unwrap(), None);
    pn.run_for(100 * MSEC);
    checkpoint(&mut pn, &[]);

    // Cut a short-path link; detection fires, then LSAs (or the oracle).
    pn.fail_link(cut);
    pn.run_for(300 * MSEC);
    if oracle {
        pn.reconverge();
    }
    pn.run_for(100 * MSEC);
    checkpoint(&mut pn, &[]);

    // Membership join while the failure is still active: the new route
    // must reach the other PE over the surviving path.
    pn.add_site(vpn_a, 1, "10.3.0.0/16".parse().unwrap(), None);
    pn.run_for(100 * MSEC);
    checkpoint(&mut pn, &[]);

    pn.repair_link(cut);
    pn.run_for(300 * MSEC);
    if oracle {
        pn.reconverge();
    }
    pn.run_for(100 * MSEC);
    checkpoint(&mut pn, &[]);

    // Membership leave: the withdraw must evict the route remotely.
    pn.detach_site(b1);
    pn.run_for(100 * MSEC);
    checkpoint(&mut pn, &[]);

    // RT-policy extranet: import acme's routes into buynlarge at PE0,
    // then take the import back. Local re-filtering, zero messages.
    pn.add_import_target(0, vpn_b, RouteTarget(100 + vpn_a.0 as u64));
    pn.run_for(50 * MSEC);
    checkpoint(&mut pn, &[]);
    pn.remove_import_target(0, vpn_b, RouteTarget(100 + vpn_a.0 as u64));
    pn.run_for(50 * MSEC);
    checkpoint(&mut pn, &[]);

    // Node failure: every adjacency of `dead` goes at once, and only its
    // surviving neighbors detect it.
    if let Some(node) = dead {
        pn.fail_node(node);
        pn.run_for(300 * MSEC);
        if oracle {
            pn.reconverge();
        }
        pn.run_for(100 * MSEC);
        checkpoint(&mut pn, &[node]);
    }
    out
}

fn assert_parity(
    name: &str,
    topo: fn() -> (Topology, Vec<usize>),
    cut: usize,
    dead: Option<usize>,
) {
    for seed in [1, 2, 3] {
        let (t, p) = topo();
        let oracle = run_scenario(t, p, cut, dead, ControlMode::Oracle, seed);
        let (t, p) = topo();
        let inband = run_scenario(t, p, cut, dead, ControlMode::InBand, seed);
        assert_eq!(oracle.len(), inband.len());
        for (k, (o, i)) in oracle.iter().zip(inband.iter()).enumerate() {
            assert_eq!(o, i, "{name} seed {seed}: modes diverge at checkpoint {k}");
        }
    }
}

#[test]
fn fish_modes_quiesce_to_identical_state() {
    assert_parity("fish", fish, 1, None);
}

#[test]
fn ladder_modes_quiesce_to_identical_state() {
    // P node 2 sits on the rail 0-2-4 both PEs' shortest paths share.
    assert_parity("ladder", ladder, 1, Some(2));
}

/// A partition heals through a database exchange: P1 is cut off (links
/// 0 and 1), link 3 fails while it is isolated, and link 0 comes back.
/// P1 never saw the LSA for link 3, so on link-up PE0 must hand it over,
/// or P1 keeps routing toward PE4 over the dead link. Every checkpoint is
/// checked against the reference and across modes.
#[test]
fn partition_heals_through_database_exchange_in_both_modes() {
    let run = |mode: ControlMode| {
        let (t, p) = fish();
        let pes = p.clone();
        let mut pn = BackboneBuilder::new(t, p).detection(20 * MSEC).control_mode(mode).build();
        let vpn = pn.new_vpn("acme");
        pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
        pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
        pn.run_for(100 * MSEC);
        let mut out = Vec::new();
        let steps: [(&[usize], &[usize]); 3] = [(&[0, 1], &[]), (&[3], &[]), (&[], &[0])];
        for (k, (fail, repair)) in steps.into_iter().enumerate() {
            fail.iter().for_each(|&l| pn.fail_link(l));
            repair.iter().for_each(|&l| pn.repair_link(l));
            pn.run_for(300 * MSEC);
            if mode == ControlMode::Oracle {
                pn.reconverge();
            }
            pn.run_for(100 * MSEC);
            let d = digest(&mut pn, &pes, &[vpn], &[]);
            assert_matches_reference(&pn, &pes, &d, &format!("{mode:?} heal step {k}"));
            out.push(d);
        }
        out
    };
    assert_eq!(run(ControlMode::Oracle), run(ControlMode::InBand), "modes diverge");
}

/// PE0 and P1 joined by two parallel links (0 and 1), P1 to PE2 by link 2.
fn twin() -> (Topology, Vec<usize>) {
    let mut topo = Topology::new(3);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    for (u, v) in [(0, 1), (0, 1), (1, 2)] {
        topo.add_link(u, v, attrs);
    }
    (topo, vec![0, 2])
}

/// Cutting one of two parallel links keeps the LSP on the other one in
/// both modes: the LDP session to the far end lives while any adjacency
/// does, and FTNs, transit entries and forwarded MP-BGP updates leave on
/// the first interface the view believes is up. A join while link 0 is
/// down must reach PE0 over link 1. Cutting both links partitions the
/// backbone, and repairing one heals it. Every step is checked against
/// the reference over the live links and across modes.
#[test]
fn parallel_link_failure_keeps_the_lsp_in_both_modes() {
    let joined: mplsvpn::net::Prefix = "10.3.0.0/16".parse().unwrap();
    let run = |mode: ControlMode| {
        let (t, p) = twin();
        let pes = p.clone();
        let mut pn = BackboneBuilder::new(t, p).detection(20 * MSEC).control_mode(mode).build();
        let vpn = pn.new_vpn("acme");
        pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
        pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
        pn.run_for(100 * MSEC);
        let mut out = Vec::new();
        let steps: [(&[usize], &[usize], bool); 5] = [
            (&[0], &[], true),
            (&[], &[0], true),
            (&[1], &[], true),
            (&[0], &[], false),
            (&[], &[1], true),
        ];
        for (k, &(fail, repair, connected)) in steps.iter().enumerate() {
            fail.iter().for_each(|&l| pn.fail_link(l));
            repair.iter().for_each(|&l| pn.repair_link(l));
            pn.run_for(300 * MSEC);
            if mode == ControlMode::Oracle {
                pn.reconverge();
            }
            pn.run_for(100 * MSEC);
            if k == 0 {
                pn.add_site(vpn, 1, joined, None);
                pn.run_for(100 * MSEC);
                let row = pn.vrf_digest(0, vpn).into_iter().find(|(p, _)| *p == joined);
                assert!(
                    matches!(&row, Some((_, Some((1, _, Some(path))))) if *path == [0, 1, 2]),
                    "PE0 learned 10.3/16 over link 1 on a live tunnel ({mode:?}): {row:?}"
                );
            }
            let at = format!("{mode:?} parallel step {k}");
            let d = digest(&mut pn, &pes, &[vpn], &[]);
            assert_matches_reference(&pn, &pes, &d, &at);
            for (i, j) in [(0, 1), (1, 0)] {
                assert_eq!(pn.lsp_path(i, j).is_some(), connected, "{at}: LSP {i} → {j}");
            }
            out.push(d);
        }
        out
    };
    assert_eq!(run(ControlMode::Oracle), run(ControlMode::InBand), "modes diverge");
}

/// The RT-policy checkpoints actually do something: the extranet import
/// adds acme's remote routes to buynlarge's VRF and the removal takes
/// them back — in both modes, with zero control messages either way.
#[test]
fn rt_policy_is_a_local_delta_in_both_modes() {
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let (t, p) = fish();
        let mut pn = BackboneBuilder::new(t, p).detection(20 * MSEC).control_mode(mode).build();
        let vpn_a = pn.new_vpn("acme");
        let vpn_b = pn.new_vpn("buynlarge");
        pn.add_site(vpn_a, 1, "10.2.0.0/16".parse().unwrap(), None);
        pn.add_site(vpn_b, 0, "10.8.0.0/16".parse().unwrap(), None);
        pn.run_for(100 * MSEC);
        let bgp_before = pn.control_stats().map_or(0, |s| s.pkts_by_proto[2]);
        let before = pn.vrf_digest(0, vpn_b);
        assert!(
            before.iter().all(|(p, _)| *p != "10.2.0.0/16".parse().unwrap()),
            "no extranet import yet"
        );

        pn.add_import_target(0, vpn_b, RouteTarget(100 + vpn_a.0 as u64));
        let mid = pn.vrf_digest(0, vpn_b);
        let imported = mid
            .iter()
            .find(|(p, _)| *p == "10.2.0.0/16".parse().unwrap())
            .expect("extranet import landed");
        let (egress, _label, path) = imported.1.as_ref().expect("imported route is remote");
        assert_eq!(*egress, 1);
        assert!(path.is_some(), "imported route rides a live tunnel");

        pn.remove_import_target(0, vpn_b, RouteTarget(100 + vpn_a.0 as u64));
        assert_eq!(pn.vrf_digest(0, vpn_b), before, "removal restores the old VRF");
        let bgp_after = pn.control_stats().map_or(0, |s| s.pkts_by_proto[2]);
        assert_eq!(bgp_after, bgp_before, "RT re-filtering costs zero messages");
    }
}

/// Dropping an import target re-selects the prefix under the remaining
/// policy. A hub VRF on PE2 imports two VPNs that both use 10.5/16:
/// acme's home on PE0 wins the tie-break while both targets are
/// imported. Once acme's target is removed, the hub must switch to
/// globex's route via PE1; keeping acme's route would leak the hub's
/// traffic into a VPN it no longer imports.
#[test]
fn removed_import_target_gives_way_to_the_remaining_import() {
    use mplsvpn::sim::{Sink, SourceConfig};
    let shared: mplsvpn::net::Prefix = "10.5.0.0/16".parse().unwrap();
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        let mut pn = BackboneBuilder::new(topo, vec![0, 1, 2])
            .detection(20 * MSEC)
            .control_mode(mode)
            .build();
        let acme = pn.new_vpn("acme");
        let globex = pn.new_vpn("globex");
        let hub = pn.new_vpn("hub");
        let acme_site = pn.add_site(acme, 0, shared, None);
        let globex_site = pn.add_site(globex, 1, shared, None);
        let hub_site = pn.add_site(hub, 2, "10.9.0.0/16".parse().unwrap(), None);
        for vpn in [acme, globex] {
            pn.add_import_target(2, hub, RouteTarget(100 + vpn.0 as u64));
        }
        pn.run_for(100 * MSEC);
        let row = |pn: &mut ProviderNetwork| {
            pn.vrf_digest(2, hub).into_iter().find(|(p, _)| *p == shared).map(|(_, r)| r)
        };
        assert!(matches!(row(&mut pn), Some(Some((0, _, Some(_))))), "acme wins ({mode:?})");

        pn.remove_import_target(2, hub, RouteTarget(100 + acme.0 as u64));
        let Some(Some((egress, _label, path))) = row(&mut pn) else {
            panic!("hub lost 10.5/16 although it still imports globex ({mode:?})");
        };
        assert_eq!(egress, 1, "hub re-selects globex's route via PE1 ({mode:?})");
        assert_eq!(path, Some(vec![2, 1]), "on a live tunnel ({mode:?})");

        let acme_sink = pn.attach_sink(acme_site, shared);
        let globex_sink = pn.attach_sink(globex_site, shared);
        let probe = SourceConfig::udp(1, pn.site_addr(hub_site, 1), shared.nth(9), 5000, 128);
        pn.attach_cbr_source(hub_site, probe, MSEC, Some(10));
        pn.run_for(100 * MSEC);
        let received = |sink| pn.net.node_ref::<Sink>(sink).flow(1).map_or(0, |f| f.rx_packets);
        assert_eq!(received(globex_sink), 10, "the probe reaches globex ({mode:?})");
        assert_eq!(received(acme_sink), 0, "nothing leaks into acme ({mode:?})");
    }
}

/// A partition no longer panics the oracle resync: a PE with no LSP to
/// the egress skips the install and the event is counted, surfaced
/// through the metrics snapshot.
#[test]
fn partition_counts_no_lsp_to_egress_instead_of_panicking() {
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        let mut pn =
            BackboneBuilder::new(topo, vec![0, 2]).detection(20 * MSEC).control_mode(mode).build();
        let vpn = pn.new_vpn("acme");
        pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
        pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
        pn.run_for(100 * MSEC);
        // Cut the only link out of PE0: the backbone is partitioned.
        pn.fail_link(0);
        pn.run_for(100 * MSEC);
        if mode == ControlMode::Oracle {
            pn.reconverge(); // used to assert; must now count and continue
            assert!(
                pn.no_lsp_to_egress() >= 1,
                "partition must surface as a counted skip, not a panic"
            );
            let snap = pn.metrics_snapshot();
            let row = snap
                .counters
                .iter()
                .find(|(n, _)| n == "control.no_lsp_to_egress")
                .expect("counter exported");
            assert!(row.1 >= 1);
        } else {
            // Join on the far side: the MP-BGP update cannot cross the
            // partition — counted as undeliverable, never a panic.
            pn.add_site(vpn, 1, "10.3.0.0/16".parse().unwrap(), None);
            pn.run_for(100 * MSEC);
            let stats = pn.control_stats().expect("in-band stats");
            assert!(
                stats.undeliverable >= 1,
                "partitioned update must be counted undeliverable: {stats:?}"
            );
            let snap = pn.metrics_snapshot();
            let row = snap
                .counters
                .iter()
                .find(|(n, _)| n == "control.undeliverable")
                .expect("counter exported");
            assert!(row.1 >= 1);
        }
    }
}

/// Oracle reconvergence still re-installs the fabric's routes: a join
/// while PE0 is cut off meets no LSP at PE0 and is skipped there, and
/// nothing but `reconverge()`'s resync installs it once the link heals.
#[test]
fn oracle_heal_installs_a_route_that_met_no_lsp_during_the_partition() {
    let mut topo = Topology::new(3);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    topo.add_link(0, 1, attrs);
    topo.add_link(1, 2, attrs);
    let mut pn = BackboneBuilder::new(topo, vec![0, 2]).detection(20 * MSEC).build();
    let vpn = pn.new_vpn("acme");
    pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
    pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
    pn.run_for(100 * MSEC);
    pn.fail_link(0);
    pn.run_for(100 * MSEC);
    pn.reconverge();
    let joined: mplsvpn::net::Prefix = "10.3.0.0/16".parse().unwrap();
    pn.add_site(vpn, 1, joined, None);
    pn.run_for(100 * MSEC);
    pn.repair_link(0);
    pn.run_for(100 * MSEC);
    pn.reconverge();
    let row = pn.vrf_digest(0, vpn).into_iter().find(|(p, _)| *p == joined);
    assert!(
        matches!(&row, Some((_, Some((1, _, Some(path))))) if *path == [0, 1, 2]),
        "PE0 holds 10.3/16 on the live tunnel after the heal: {row:?}"
    );
}

/// A CS6 packet in the control flow namespace that no router of this
/// network built — zero payload, garbage, a truncated message, or a
/// well-formed one naming a link, FEC, PE or VRF the network lacks — is
/// terminated where it lands (or forwarded toward its PE, then
/// terminated) and changes no view, LFIB, VRF or VPN-label table. P1 and
/// P2 receive them from PE0, PE0 and PE4 from P1.
#[test]
fn foreign_control_packets_are_terminated_and_ignored() {
    let (t, pes) = fish();
    let mut pn = BackboneBuilder::new(t, pes.clone()).control_mode(ControlMode::InBand).build();
    let vpn = pn.new_vpn("acme");
    pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
    pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
    pn.run_for(100 * MSEC);
    let before = digest(&mut pn, &pes, &[vpn], &[]);
    let stats = pn.control_stats().expect("in-band stats");
    // Payload words as `CtrlMsg::encode` lays them out (DESIGN.md §9).
    let words = |w: &[u64]| w.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    let pfx = 0x0A01_0000 << 8 | 16;
    let payloads = [
        vec![0u8; 64],
        vec![0u8; 32],
        vec![0xA5; 64],
        words(&[1, 0, 1]),
        Vec::new(),
        words(&[1, 999, 1, 9, 0, 0, 0, 0]),
        words(&[2, 999, 16, 0]),
        words(&[4, 999, 0, pfx, 0, 1, 16, 0]),
        words(&[4, 0, 999, pfx, 0, 1, 16, 0]),
    ];
    let (pe0, p1) = (pn.backbone_node(0), pn.backbone_node(1));
    let senders = [(pe0, 0), (pe0, 1), (p1, 0), (p1, 1)];
    for payload in &payloads {
        let mut pkt = Packet::udp(Ip(0xC0DE_0000), Ip(0xC0DE_FFFF), 89, 89, Dscp::CS6, 0);
        pkt.payload = Bytes::copy_from_slice(payload);
        pkt.meta.flow = CTRL_FLOW_BASE;
        for &(node, iface) in &senders {
            pn.net.inject(node, IfaceId(iface), pkt.clone());
        }
    }
    pn.run_for(100 * MSEC);
    let after = pn.control_stats().expect("in-band stats");
    let injected = (payloads.len() * senders.len()) as u64;
    let forwarded = after.pkts_sent - stats.pkts_sent;
    assert_eq!(after.pkts_terminated - stats.pkts_terminated, injected + forwarded);
    assert_eq!(digest(&mut pn, &pes, &[vpn], &[]), before, "a foreign packet changed state");
}

/// Detaching a site evicts its route from every importer in both modes:
/// an intranet VRF of the same VPN and an extranet VRF of another VPN
/// that imports it through an extra route target. That holds even when
/// the site's access link was cut (an access failure) before the detach.
#[test]
fn detach_withdraws_remotely_in_both_modes() {
    let gone: mplsvpn::net::Prefix = "10.2.0.0/16".parse().unwrap();
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let (t, p) = fish();
        let mut pn = BackboneBuilder::new(t, p).detection(20 * MSEC).control_mode(mode).build();
        let vpn = pn.new_vpn("acme");
        let extranet = pn.new_vpn("buynlarge");
        pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
        pn.add_site(extranet, 0, "10.8.0.0/16".parse().unwrap(), None);
        let far = pn.add_site(vpn, 1, gone, None);
        pn.add_import_target(0, extranet, RouteTarget(100 + vpn.0 as u64));
        pn.run_for(100 * MSEC);
        for v in [vpn, extranet] {
            assert!(
                pn.vrf_digest(0, v).iter().any(|(p, _)| *p == gone),
                "{v:?} imports the route before detach ({mode:?})"
            );
        }
        let access = pn.sites[far.0].access_link;
        pn.net.set_link_enabled(access, false);
        pn.detach_site(far);
        pn.run_for(100 * MSEC);
        for v in [vpn, extranet] {
            assert!(
                pn.vrf_digest(0, v).iter().all(|(p, _)| *p != gone),
                "withdraw evicted the route from {v:?} ({mode:?})"
            );
        }
    }
}

/// A dual-homed prefix fails over at its own origin PE too: when the
/// PE1 home of 10.9/16 detaches, PE1's VRF loses its local route and
/// must pick up the route imported from the surviving home on PE2, on a
/// live tunnel. The remote importer on PE0 fails over the same way.
#[test]
fn detach_fails_the_origin_pe_over_to_the_surviving_home() {
    let served: mplsvpn::net::Prefix = "10.9.0.0/16".parse().unwrap();
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            topo.add_link(u, v, attrs);
        }
        let mut pn = BackboneBuilder::new(topo, vec![0, 1, 2])
            .detection(20 * MSEC)
            .control_mode(mode)
            .build();
        let vpn = pn.new_vpn("acme");
        pn.add_site(vpn, 0, "10.0.0.0/16".parse().unwrap(), None);
        pn.add_site(vpn, 1, "10.1.0.0/16".parse().unwrap(), None);
        let primary = pn.add_site(vpn, 1, served, None);
        pn.add_site(vpn, 2, served, None);
        pn.run_for(100 * MSEC);
        let row = |pn: &mut ProviderNetwork, pe| {
            pn.vrf_digest(pe, vpn).into_iter().find(|(p, _)| *p == served).map(|(_, r)| r)
        };
        assert_eq!(row(&mut pn, 1), Some(None), "PE1 serves 10.9/16 locally ({mode:?})");
        assert!(matches!(row(&mut pn, 0), Some(Some((1, _, Some(_))))), "PE0 prefers PE1");

        pn.detach_site(primary);
        pn.run_for(100 * MSEC);
        for pe in [1, 0] {
            let Some(Some((egress, _label, path))) = row(&mut pn, pe) else {
                panic!("PE{pe} lost 10.9/16 instead of failing over ({mode:?})");
            };
            assert_eq!(egress, 2, "PE{pe} fails over to the PE2 home ({mode:?})");
            assert_eq!(path, Some(vec![pe, 2]), "PE{pe} rides a live tunnel ({mode:?})");
        }

        // Detaching the same site again changes nothing: PE2 still
        // serves the prefix, so no PE may lose its failover route.
        let settled = [row(&mut pn, 0), row(&mut pn, 1)];
        pn.detach_site(primary);
        pn.run_for(100 * MSEC);
        assert_eq!(
            [row(&mut pn, 0), row(&mut pn, 1)],
            settled,
            "second detach is a no-op ({mode:?})"
        );
    }
}

/// A random backbone: 2–9 nodes, links of cost 1–4 between random
/// endpoints (parallel links kept, self-loops dropped, so some nodes may
/// be isolated) and a non-empty random PE set.
fn arb_backbone() -> impl Strategy<Value = (Topology, Vec<usize>)> {
    (2usize..10)
        .prop_flat_map(|n| {
            let links = proptest::collection::vec((0..n, 0..n, 1u64..=4), 0..2 * n);
            (Just(n), links, proptest::collection::vec(any::<bool>(), n))
        })
        .prop_map(|(n, links, pe_mask)| {
            let mut topo = Topology::new(n);
            for (u, v, cost) in links.into_iter().filter(|&(u, v, _)| u != v) {
                topo.add_link(u, v, LinkAttrs { cost, capacity_bps: 10_000_000 });
            }
            let mut pes: Vec<usize> = (0..n).filter(|&u| pe_mask[u]).collect();
            if pes.is_empty() {
                pes.push(n - 1);
            }
            (topo, pes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bring-up on the message path equals the synchronous-rounds
    /// reference exactly: every router's LFIB (label values included),
    /// every PE's tunnel FTNs and the bring-up message, label and session
    /// counts. An in-band build starts with zeroed control counters.
    #[test]
    fn bring_up_equals_the_reference_ldp_run(
        (topo, pes) in arb_backbone(),
        php in any::<bool>(),
    ) {
        let igp = Igp::converge(&topo);
        let adjacency = topo.adjacency_lists();
        let fecs: Vec<(Fec, usize)> =
            pes.iter().enumerate().map(|(k, &pe)| (Fec(k as u32), pe)).collect();
        let nh = |u: usize, v: usize| igp.next_hop(u, v);
        let ldp = LdpDomain::run(&adjacency, &fecs, &nh, LdpConfig { php });
        let pn = BackboneBuilder::new(topo.clone(), pes.clone()).php(php).build();
        for (u, want) in ldp.nodes.iter().enumerate() {
            prop_assert_eq!(router_lfib(&pn, &pes, u), lfib_rows(&want.lfib), "LFIB of {}", u);
        }
        for &pe in &pes {
            for (fec, _) in &fecs {
                let want = ldp.nodes[pe].ftn.get(fec).cloned();
                let got = pn.tunnel_ftn(pe, fec.0 as usize);
                prop_assert_eq!(got, want, "FTN of {} to {:?}", pe, fec);
            }
        }
        let s = pn.control_summary();
        let counts = (s.ldp_messages, s.ldp_labels, s.ldp_sessions, s.igp_lsa_messages);
        let want = (ldp.messages, ldp.total_labels(), ldp.sessions, igp.lsa_messages());
        prop_assert_eq!(counts, want);
        let inband =
            BackboneBuilder::new(topo, pes).php(php).control_mode(ControlMode::InBand).build();
        prop_assert_eq!(inband.control_stats(), Some(CtrlStats::default()));
    }
}
