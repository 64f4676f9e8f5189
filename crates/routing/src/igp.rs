//! Link-state interior routing: SPF computation and a flooding cost model.
//!
//! The paper's §2.2 observes that "routing protocols like OSPF used to build
//! routing tables do not exchange QoS information" — the IGP here computes
//! pure min-cost paths (experiment Q3 contrasts that against CSPF from
//! `netsim-te`, which *does* see resources).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::topology::Topology;

/// The SPF result rooted at one node.
#[derive(Clone, Debug)]
pub struct SpfTree {
    /// Root node.
    pub root: usize,
    /// Total cost to each node (`u64::MAX` = unreachable).
    pub dist: Vec<u64>,
    /// First hop (neighbor of the root) toward each node; `None` for the
    /// root itself and unreachable nodes.
    pub next_hop: Vec<Option<usize>>,
    /// All equal-cost first hops toward each node (ECMP set; the single
    /// `next_hop` is the smallest id, making runs deterministic).
    pub ecmp: Vec<Vec<usize>>,
}

impl SpfTree {
    /// Whether `dst` is reachable from the root.
    pub fn reachable(&self, dst: usize) -> bool {
        self.dist[dst] != u64::MAX
    }

    /// Incremental-SPF admission test: could the state change of `link`
    /// (`down` = failure, otherwise repair) alter this tree? A link
    /// failure matters only if the link lay on *some* shortest path from
    /// the root — i.e. it is tight in one direction
    /// (`dist[a] + cost == dist[b]` or vice versa). A repair matters only
    /// if the restored link offers a path at least as good as what either
    /// endpoint already has (`dist[a] + cost <= dist[b]` or vice versa;
    /// equality included so equal-cost sets regain their ECMP members).
    /// When the test returns false the tree is provably unaffected and
    /// [`SpfTree::update`] can be skipped.
    pub fn affected_by(&self, topo: &Topology, link: usize, down: bool) -> bool {
        let (a, b, attrs) = topo.link(link);
        let (da, db) = (self.dist[a], self.dist[b]);
        if down {
            (da != u64::MAX && da.saturating_add(attrs.cost) == db)
                || (db != u64::MAX && db.saturating_add(attrs.cost) == da)
        } else {
            (da != u64::MAX && da.saturating_add(attrs.cost) <= db)
                || (db != u64::MAX && db.saturating_add(attrs.cost) <= da)
        }
    }

    /// Incremental SPF (Ramalingam–Reps, the basis of OSPF iSPF): brings
    /// the tree up to date in place after `link` changed state. `usable`
    /// describes every link now; the tree must be exact for the other
    /// links' states (an update for a link the tree already reflects
    /// changes nothing). The result equals [`spf_filtered`] over `usable`.
    ///
    /// A link-down re-attaches only the nodes whose every shortest path
    /// crossed the link; a link-up relaxes outward from the endpoint that
    /// improved. `ecmp` and `next_hop` are then recomputed only in the
    /// cone of nodes whose distance or equal-cost predecessors changed.
    /// `scratch` holds every buffer, so a warm update allocates nothing,
    /// and afterwards reports the nodes whose next hop or reachability
    /// changed. Topologies with zero-cost links fall back to a full run.
    pub fn update(
        &mut self,
        topo: &Topology,
        link: usize,
        usable: &dyn Fn(usize) -> bool,
        scratch: &mut SpfScratch,
    ) {
        scratch.reset(topo.node_count());
        if (0..topo.link_count()).any(|l| topo.link(l).2.cost == 0) {
            // Equal-distance predecessors break the dist-ordered cone.
            let fresh = spf_filtered(topo, self.root, usable);
            for v in 0..fresh.dist.len() {
                scratch.report(v, self.next_hop[v], fresh.next_hop[v]);
            }
            *self = fresh;
            return;
        }
        let (a, b, attrs) = topo.link(link);
        if usable(link) {
            for (x, y) in [(a, b), (b, a)] {
                let d = self.dist[x].saturating_add(attrs.cost);
                if self.dist[x] != u64::MAX && d < self.dist[y] {
                    self.dist[y] = d;
                    scratch.mark(y, MOVED);
                    scratch.heap.push(Reverse((d, y)));
                }
            }
        } else {
            self.detach_below(topo, link, usable, scratch);
        }
        // Dijkstra from the improved or re-attached nodes only.
        while let Some(Reverse((d, u))) = scratch.heap.pop() {
            if d > self.dist[u] {
                continue;
            }
            for (v, attrs, l) in topo.neighbors(u) {
                let nd = d.saturating_add(attrs.cost);
                if usable(l) && nd < self.dist[v] {
                    self.dist[v] = nd;
                    scratch.mark(v, MOVED);
                    scratch.heap.push(Reverse((nd, v)));
                }
            }
        }
        self.recompute_cone(topo, a, b, usable, scratch);
    }

    /// Link-down, first half: finds the nodes whose every shortest path
    /// crossed `link` (already unusable), in distance order, and queues
    /// each at its best distance through the rest of the tree.
    fn detach_below(
        &mut self,
        topo: &Topology,
        link: usize,
        usable: &dyn Fn(usize) -> bool,
        scratch: &mut SpfScratch,
    ) {
        let (a, b, attrs) = topo.link(link);
        let tight = |x: usize, y: usize| {
            self.dist[x] != u64::MAX && self.dist[x].saturating_add(attrs.cost) == self.dist[y]
        };
        let below = if tight(a, b) {
            b
        } else if tight(b, a) {
            a
        } else {
            return;
        };
        scratch.queue(below, QUEUED, self.dist[below]);
        // Every tight predecessor has a smaller distance, so it is settled
        // (cut or not) before the node it supports is examined.
        while let Some(Reverse((d, u))) = scratch.heap.pop() {
            let supported = topo.neighbors(u).any(|(x, attrs, l)| {
                usable(l)
                    && !scratch.has(x, CUT)
                    && self.dist[x] != u64::MAX
                    && self.dist[x].saturating_add(attrs.cost) == d
            });
            if supported {
                continue;
            }
            scratch.mark(u, CUT | MOVED);
            for (v, attrs, l) in topo.neighbors(u) {
                if usable(l) && d.saturating_add(attrs.cost) == self.dist[v] {
                    scratch.queue(v, QUEUED, self.dist[v]);
                }
            }
        }
        // Seed each cut node with its best distance from the uncut rest.
        for i in 0..scratch.touched.len() {
            let u = scratch.touched[i];
            if !scratch.has(u, CUT) {
                continue;
            }
            let best = topo
                .neighbors(u)
                .filter(|&(x, _, l)| usable(l) && !scratch.has(x, CUT) && self.dist[x] != u64::MAX)
                .map(|(x, attrs, _)| self.dist[x].saturating_add(attrs.cost))
                .min()
                .unwrap_or(u64::MAX);
            self.dist[u] = best;
            if best != u64::MAX {
                scratch.heap.push(Reverse((best, u)));
            }
        }
    }

    /// Recomputes `ecmp`/`next_hop` in distance order, starting from the
    /// changed link's endpoints, every node whose distance moved and their
    /// neighbors; a node whose set changed passes the change on to its
    /// tight successors.
    fn recompute_cone(
        &mut self,
        topo: &Topology,
        a: usize,
        b: usize,
        usable: &dyn Fn(usize) -> bool,
        scratch: &mut SpfScratch,
    ) {
        scratch.queue(a, CONE, self.dist[a]);
        scratch.queue(b, CONE, self.dist[b]);
        for i in 0..scratch.touched.len() {
            let u = scratch.touched[i];
            if scratch.has(u, MOVED) {
                scratch.queue(u, CONE, self.dist[u]);
                for (v, _, l) in topo.neighbors(u) {
                    if usable(l) {
                        scratch.queue(v, CONE, self.dist[v]);
                    }
                }
            }
        }
        while let Some(Reverse((d, u))) = scratch.heap.pop() {
            if u == self.root {
                continue;
            }
            scratch.hops.clear();
            if d != u64::MAX {
                for (x, attrs, l) in topo.neighbors(u) {
                    if usable(l)
                        && self.dist[x] != u64::MAX
                        && self.dist[x].saturating_add(attrs.cost) == d
                    {
                        if x == self.root {
                            scratch.hops.push(u);
                        } else {
                            scratch.hops.extend_from_slice(&self.ecmp[x]);
                        }
                    }
                }
                scratch.hops.sort_unstable();
                scratch.hops.dedup();
            }
            if scratch.hops == self.ecmp[u] {
                continue;
            }
            self.ecmp[u].clear();
            self.ecmp[u].extend_from_slice(&scratch.hops);
            let next_hop = scratch.hops.first().copied();
            scratch.report(u, self.next_hop[u], next_hop);
            self.next_hop[u] = next_hop;
            for (v, attrs, l) in topo.neighbors(u) {
                if usable(l) && d != u64::MAX && d.saturating_add(attrs.cost) == self.dist[v] {
                    scratch.queue(v, CONE, self.dist[v]);
                }
            }
        }
    }
}

// Per-node flags of one `SpfTree::update`.
const QUEUED: u8 = 1; // link-down: examined for a surviving shortest path
const CUT: u8 = 1 << 1; // link-down: every shortest path crossed the link
const MOVED: u8 = 1 << 2; // distance changed
const CONE: u8 = 1 << 3; // queued for the ECMP recomputation
const NEXT_HOP: u8 = 1 << 4; // report: next hop changed
const REACH: u8 = 1 << 5; // report: reachability flipped

/// The working memory of [`SpfTree::update`], reused across updates (one
/// scratch serves any number of trees over one topology), and its report
/// of the last update: which nodes' next hop or reachability changed.
#[derive(Clone, Debug, Default)]
pub struct SpfScratch {
    /// (distance, node) min-heap, shared by every phase.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per-node flags of the last update.
    flags: Vec<u8>,
    /// The nodes with a flag set, in the order they got their first one.
    touched: Vec<usize>,
    /// The ECMP set under construction.
    hops: Vec<usize>,
}

impl SpfScratch {
    /// Whether the last update changed `node`'s next hop (reachability
    /// flips included).
    pub fn next_hop_changed(&self, node: usize) -> bool {
        self.has(node, NEXT_HOP)
    }

    /// Whether the last update made `node` reachable or unreachable.
    pub fn reachability_changed(&self, node: usize) -> bool {
        self.has(node, REACH)
    }

    /// Clears the last update's flags and sizes them for `n` nodes.
    fn reset(&mut self, n: usize) {
        for &u in &self.touched {
            self.flags[u] = 0;
        }
        self.touched.clear();
        self.heap.clear();
        self.flags.resize(n, 0);
    }

    fn has(&self, node: usize, flag: u8) -> bool {
        self.flags.get(node).is_some_and(|f| f & flag != 0)
    }

    fn mark(&mut self, node: usize, flag: u8) {
        if self.flags[node] == 0 {
            self.touched.push(node);
        }
        self.flags[node] |= flag;
    }

    /// Pushes `node` at distance `dist` unless `flag` shows it was already.
    fn queue(&mut self, node: usize, flag: u8, dist: u64) {
        if !self.has(node, flag) {
            self.mark(node, flag);
            self.heap.push(Reverse((dist, node)));
        }
    }

    /// Records a next-hop change of `node` from `old` to `new`.
    fn report(&mut self, node: usize, old: Option<usize>, new: Option<usize>) {
        if old != new {
            let flip = if old.is_some() == new.is_some() { 0 } else { REACH };
            self.mark(node, NEXT_HOP | flip);
        }
    }
}

/// The link-state IGP over a topology: per-node SPF trees plus an LSA
/// flooding cost estimate.
#[derive(Clone, Debug)]
pub struct Igp {
    trees: Vec<SpfTree>,
    lsa_messages: u64,
}

impl Igp {
    /// Runs SPF from every node and tallies the flooding cost: each node
    /// originates one LSA which is flooded once over every link (the
    /// standard reliable-flooding lower bound, 2·E messages per LSA).
    pub fn converge(topo: &Topology) -> Igp {
        Self::converge_filtered(topo, &|_| true)
    }

    /// Like [`Igp::converge`], but links for which `usable(link_id)` is
    /// false are ignored — the reconvergence path after a link failure.
    pub fn converge_filtered(topo: &Topology, usable: &dyn Fn(usize) -> bool) -> Igp {
        let n = topo.node_count();
        let live_links = (0..topo.link_count()).filter(|&l| usable(l)).count() as u64;
        let trees = (0..n).map(|r| spf_filtered(topo, r, usable)).collect();
        let lsa_messages = (n as u64) * 2 * live_links;
        Igp { trees, lsa_messages }
    }

    /// The SPF tree rooted at `node`.
    pub fn tree(&self, node: usize) -> &SpfTree {
        &self.trees[node]
    }

    /// First hop on the min-cost path `from → to` (deterministic ECMP
    /// tie-break: lowest neighbor id).
    pub fn next_hop(&self, from: usize, to: usize) -> Option<usize> {
        if from == to {
            None
        } else {
            self.trees[from].next_hop[to]
        }
    }

    /// Total cost of the min-cost path, if reachable.
    pub fn path_cost(&self, from: usize, to: usize) -> Option<u64> {
        let d = self.trees[from].dist[to];
        (d != u64::MAX).then_some(d)
    }

    /// The full min-cost node path `from → … → to`, if reachable.
    pub fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        if !self.trees[from].reachable(to) {
            return None;
        }
        let mut path = vec![from];
        let mut at = from;
        while at != to {
            at = self.next_hop(at, to)?;
            path.push(at);
            if path.len() > self.trees.len() {
                return None; // inconsistent trees would loop; fail loudly
            }
        }
        Some(path)
    }

    /// LSA messages flooded during convergence (M1 metric).
    pub fn lsa_messages(&self) -> u64 {
        self.lsa_messages
    }
}

/// Dijkstra from `root` with deterministic tie-breaking and ECMP first-hop
/// tracking.
pub fn spf(topo: &Topology, root: usize) -> SpfTree {
    spf_filtered(topo, root, &|_| true)
}

/// [`spf`] restricted to links for which `usable(link_id)` holds.
pub fn spf_filtered(topo: &Topology, root: usize, usable: &dyn Fn(usize) -> bool) -> SpfTree {
    let n = topo.node_count();
    let mut dist = vec![u64::MAX; n];
    let mut first_hops: Vec<Vec<usize>> = vec![Vec::new(); n];
    dist[root] = 0;
    // (cost, node); BinaryHeap min via Reverse. Ties resolve by node id,
    // which keeps runs deterministic.
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u64, root)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for (v, attrs, link) in topo.neighbors(u) {
            if !usable(link) {
                continue;
            }
            let nd = d.saturating_add(attrs.cost);
            // First hop set toward v through u.
            let through: Vec<usize> = if u == root { vec![v] } else { first_hops[u].clone() };
            if nd < dist[v] {
                dist[v] = nd;
                first_hops[v] = through;
                heap.push(Reverse((nd, v)));
            } else if nd == dist[v] && nd != u64::MAX {
                for h in through {
                    if !first_hops[v].contains(&h) {
                        first_hops[v].push(h);
                    }
                }
            }
        }
    }
    let next_hop = first_hops
        .iter()
        .enumerate()
        .map(|(v, hops)| if v == root { None } else { hops.iter().copied().min() })
        .collect();
    for h in &mut first_hops {
        h.sort_unstable();
    }
    SpfTree { root, dist, next_hop, ecmp: first_hops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkAttrs;

    fn attrs(cost: u64) -> LinkAttrs {
        LinkAttrs { cost, capacity_bps: 1 }
    }

    /// The classic "fish": 0-1 cheap direct path vs longer detour.
    fn diamond() -> Topology {
        let mut t = Topology::new(4);
        t.add_link(0, 1, attrs(1));
        t.add_link(1, 3, attrs(1));
        t.add_link(0, 2, attrs(1));
        t.add_link(2, 3, attrs(5));
        t
    }

    #[test]
    fn spf_prefers_min_cost() {
        let igp = Igp::converge(&diamond());
        assert_eq!(igp.path(0, 3), Some(vec![0, 1, 3]));
        assert_eq!(igp.path_cost(0, 3), Some(2));
        assert_eq!(igp.next_hop(0, 3), Some(1));
        assert_eq!(igp.next_hop(3, 0), Some(1));
    }

    #[test]
    fn equal_cost_paths_collected_deterministically() {
        let mut t = Topology::new(4);
        t.add_link(0, 1, attrs(1));
        t.add_link(0, 2, attrs(1));
        t.add_link(1, 3, attrs(1));
        t.add_link(2, 3, attrs(1));
        let igp = Igp::converge(&t);
        assert_eq!(igp.tree(0).ecmp[3], vec![1, 2]);
        // Deterministic single choice: smallest id.
        assert_eq!(igp.next_hop(0, 3), Some(1));
        assert_eq!(igp.path_cost(0, 3), Some(2));
    }

    #[test]
    fn unreachable_nodes() {
        let mut t = Topology::new(3);
        t.add_link(0, 1, attrs(1));
        let igp = Igp::converge(&t);
        assert!(!igp.tree(0).reachable(2));
        assert_eq!(igp.path(0, 2), None);
        assert_eq!(igp.next_hop(0, 2), None);
        assert_eq!(igp.path_cost(0, 2), None);
    }

    #[test]
    fn self_paths_are_trivial() {
        let igp = Igp::converge(&diamond());
        assert_eq!(igp.path(2, 2), Some(vec![2]));
        assert_eq!(igp.next_hop(2, 2), None);
        assert_eq!(igp.path_cost(2, 2), Some(0));
    }

    #[test]
    fn costs_are_symmetric_on_undirected_graph() {
        let t = Topology::ring(7, attrs(3));
        let igp = Igp::converge(&t);
        for a in 0..7 {
            for b in 0..7 {
                assert_eq!(igp.path_cost(a, b), igp.path_cost(b, a));
            }
        }
    }

    #[test]
    fn flooding_cost_model() {
        let t = Topology::ring(10, attrs(1));
        let igp = Igp::converge(&t);
        // 10 LSAs × 2 × 10 links.
        assert_eq!(igp.lsa_messages(), 200);
    }

    #[test]
    fn affected_by_skips_irrelevant_links() {
        // diamond: links 0:(0-1,c1) 1:(1-3,c1) 2:(0-2,c1) 3:(2-3,c5).
        let t = diamond();
        let tree = spf(&t, 0);
        // The shortest path 0→3 runs over links 0 and 1: cutting either
        // affects the tree.
        assert!(tree.affected_by(&t, 0, true));
        assert!(tree.affected_by(&t, 1, true));
        // Link 3 (2-3, cost 5) is on no shortest path from 0: dist[2]=1,
        // dist[3]=2, 1+5 != 2 — a failure there cannot change the tree.
        assert!(!tree.affected_by(&t, 3, true));

        // After cutting link 1 the detour is in use; repairing link 1
        // (offering 0→3 at cost 2 < 6) affects the tree, while
        // "repairing" the already-loose link 3 at its current cost does:
        // dist[2]=1, 1+5=6 == dist[3]=6 → equality recomputes (ECMP).
        let cut = spf_filtered(&t, 0, &|l| l != 1);
        assert_eq!(cut.dist[3], 6);
        assert!(cut.affected_by(&t, 1, false));
        assert!(cut.affected_by(&t, 3, false));
    }

    #[test]
    fn affected_by_handles_unreachable_endpoints() {
        let mut t = Topology::new(3);
        t.add_link(0, 1, attrs(1)); // link 0
        t.add_link(1, 2, attrs(1)); // link 1
                                    // Tree computed with link 1 dead: node 2 unreachable.
        let tree = spf_filtered(&t, 0, &|l| l != 1);
        assert!(!tree.reachable(2));
        // Failing the already-unusable far link cannot affect the tree…
        assert!(!tree.affected_by(&t, 1, true));
        // …but repairing it (reaching node 2 at all) must.
        assert!(tree.affected_by(&t, 1, false));
    }

    /// A live-link set plus the trees `update` maintains from every root.
    struct Live {
        down: Vec<bool>,
        trees: Vec<SpfTree>,
        scratch: SpfScratch,
    }

    impl Live {
        fn new(t: &Topology) -> Live {
            let trees = (0..t.node_count()).map(|r| spf(t, r)).collect();
            Live { down: vec![false; t.link_count()], trees, scratch: SpfScratch::default() }
        }

        /// Sets `link`'s state and updates every tree, checking each one
        /// and its report against the reference. Returns, per root, the
        /// nodes reported as (next hop changed, reachability changed).
        fn set(&mut self, t: &Topology, link: usize, down: bool) -> Vec<Vec<(usize, bool)>> {
            self.down[link] = down;
            let usable = |l: usize| !self.down[l];
            let mut reports = Vec::new();
            for tree in &mut self.trees {
                let old = tree.clone();
                tree.update(t, link, &usable, &mut self.scratch);
                let want = spf_filtered(t, tree.root, &usable);
                let root = tree.root;
                assert_eq!(tree.dist, want.dist, "dist from {root} after link {link}");
                assert_eq!(tree.next_hop, want.next_hop, "next hops from {root}");
                assert_eq!(tree.ecmp, want.ecmp, "ECMP sets from {root}");
                let mut report = Vec::new();
                for v in 0..t.node_count() {
                    let moved = old.next_hop[v] != want.next_hop[v];
                    let flipped = old.reachable(v) != want.reachable(v);
                    assert_eq!(self.scratch.next_hop_changed(v), moved, "{root}→{v} next hop");
                    assert_eq!(self.scratch.reachability_changed(v), flipped, "{root}→{v} reach");
                    if moved {
                        report.push((v, flipped));
                    }
                }
                reports.push(report);
            }
            reports
        }
    }

    #[test]
    fn update_cuts_one_branch_of_an_even_ring_ecmp_pair() {
        // Ring 0-1-2-3-0: node 2 is two hops from 0 both ways.
        let t = Topology::ring(4, attrs(1));
        let mut live = Live::new(&t);
        assert_eq!(live.trees[0].ecmp[2], vec![1, 3]);
        // Cut link 1 (1-2): same distance, one ECMP member fewer, and the
        // single next hop moves from 1 to 3.
        let reports = live.set(&t, 1, true);
        assert_eq!(live.trees[0].dist[2], 2);
        assert_eq!(live.trees[0].ecmp[2], vec![3]);
        assert_eq!(reports[0], vec![(2, false)]);
    }

    #[test]
    fn update_link_up_adds_an_equal_cost_member() {
        let t = Topology::ring(4, attrs(1));
        let mut live = Live::new(&t);
        live.set(&t, 2, true); // 2-3: node 2 is reached via 1 only
        assert_eq!(live.trees[0].ecmp[2], vec![1]);
        let reports = live.set(&t, 2, false);
        assert_eq!(live.trees[0].ecmp[2], vec![1, 3]);
        assert_eq!(reports[0], vec![], "next hop 1 stays the smallest member");
    }

    #[test]
    fn update_partition_and_heal_flip_reachability() {
        // Line 0-1-2-3: cutting 1-2 splits it in two.
        let mut t = Topology::new(4);
        for i in 0..3 {
            t.add_link(i, i + 1, attrs(1));
        }
        let mut live = Live::new(&t);
        let reports = live.set(&t, 1, true);
        assert!(!live.trees[0].reachable(3));
        assert_eq!(reports[0], vec![(2, true), (3, true)]);
        let reports = live.set(&t, 1, false);
        assert_eq!(live.trees[0].dist[3], 3);
        assert_eq!(reports[0], vec![(2, true), (3, true)]);
    }

    #[test]
    fn update_parallel_links_of_unequal_cost() {
        // 0=1 over a cheap and a dear link, then 1-2.
        let mut t = Topology::new(3);
        let cheap = t.add_link(0, 1, attrs(1));
        let dear = t.add_link(0, 1, attrs(3));
        t.add_link(1, 2, attrs(1));
        let mut live = Live::new(&t);
        // The dear link carries nothing: cutting it changes no route.
        assert!(live.set(&t, dear, true).iter().all(Vec::is_empty));
        live.set(&t, dear, false);
        // Cutting the cheap one re-attaches 1 and 2 over the dear one.
        let reports = live.set(&t, cheap, true);
        assert_eq!(live.trees[0].dist[2], 4);
        assert_eq!(reports[0], vec![], "same neighbor, dearer link");
        live.set(&t, cheap, false);
        assert_eq!(live.trees[0].dist[2], 2);
    }

    #[test]
    fn update_on_a_current_tree_changes_nothing() {
        let t = diamond();
        let mut live = Live::new(&t);
        for down in [true, false] {
            live.set(&t, 1, down);
            let current = live.trees.clone();
            assert!(live.set(&t, 1, down).iter().all(Vec::is_empty), "repeat of {down}");
            for (tree, was) in live.trees.iter().zip(&current) {
                assert_eq!((&tree.dist, &tree.ecmp), (&was.dist, &was.ecmp));
            }
        }
    }

    #[test]
    fn update_with_zero_cost_links_falls_back_to_a_full_run() {
        let mut t = Topology::new(3);
        t.add_link(0, 1, attrs(0));
        t.add_link(1, 2, attrs(1));
        t.add_link(0, 2, attrs(1));
        let mut live = Live::new(&t);
        live.set(&t, 0, true);
        live.set(&t, 0, false);
    }

    #[test]
    fn paths_follow_next_hops_consistently() {
        // Random-ish fixed topology; every path must terminate and match
        // its advertised cost.
        let mut t = Topology::new(8);
        let edges = [
            (0, 1, 2),
            (1, 2, 2),
            (2, 3, 1),
            (3, 4, 4),
            (4, 5, 1),
            (5, 6, 2),
            (6, 7, 1),
            (7, 0, 3),
            (1, 5, 7),
            (2, 6, 1),
        ];
        for (u, v, c) in edges {
            t.add_link(u, v, attrs(c));
        }
        let igp = Igp::converge(&t);
        for a in 0..8 {
            for b in 0..8 {
                let p = igp.path(a, b).expect("connected graph");
                assert_eq!(p[0], a);
                assert_eq!(*p.last().unwrap(), b);
                let mut cost = 0;
                for w in p.windows(2) {
                    cost += edges
                        .iter()
                        .filter(|&&(x, y, _)| (x, y) == (w[0], w[1]) || (y, x) == (w[0], w[1]))
                        .map(|&(_, _, c)| c)
                        .min()
                        .unwrap();
                }
                assert_eq!(Some(cost), igp.path_cost(a, b), "{a}->{b} via {p:?}");
            }
        }
    }
}
