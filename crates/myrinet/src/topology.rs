//! Cluster interconnect topology and source-route computation.
//!
//! ParPar's data network is a Myrinet SAN: hosts attach to crossbar
//! switches, and FM uses a single precomputed route between each pair of
//! hosts (paper §3.2 relies on this for the FIFO property of the flush
//! protocol). The topology is a directed graph of [`Link`]s between
//! [`Port`]s.
//!
//! Two route engines live behind [`Topology::route`]:
//!
//! * **CSR** — explicit topologies ([`Topology::from_parts`] and the
//!   single/dual-switch constructors) precompute every pair's route by
//!   breadth-first search into one flat arena indexed by a CSR offset
//!   table. Routes stay fixed for the life of the network, exactly as
//!   before; only the storage changed from `Vec<Vec<LinkId>>` (24 bytes
//!   of header plus one allocation per pair) to two flat vectors.
//! * **Fat-tree** — the k-ary Clos constructor ([`Topology::fat_tree`])
//!   stores no table at all. Routes are derived arithmetically from the
//!   shape plus a deterministic ECMP hash of `(src, dst)`, so a
//!   4096-host fabric costs O(links) memory instead of O(hosts²).
//!   The hash involves no RNG seed: the same pair always takes the same
//!   path, preserving the per-route FIFO property and digest
//!   reproducibility.

use std::collections::VecDeque;
use std::ops::Deref;

/// Identifies a host (compute node) on the data network.
pub type HostId = usize;

/// Index of a link in the topology's link table.
pub type LinkId = usize;

/// An endpoint of a link: either a host NIC or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// A host's NIC port.
    Host(HostId),
    /// A switch, by index.
    Switch(usize),
}

/// A unidirectional physical link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Transmitting side.
    pub from: Port,
    /// Receiving side.
    pub to: Port,
    /// Usable bandwidth in bytes/second.
    pub bandwidth: u64,
    /// Propagation + routing latency in cycles.
    pub latency_cycles: u64,
}

/// Which tier of the fabric a link belongs to, for per-tier statistics.
///
/// In a fat-tree these are the three stages host↔edge, edge↔aggregation,
/// aggregation↔spine. Explicit (CSR) topologies map host↔switch links to
/// [`LinkTier::Edge`] and inter-switch links (the dual-switch trunk) to
/// [`LinkTier::Agg`]; they have no spine stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkTier {
    /// Host ↔ edge-switch links.
    Edge,
    /// Edge ↔ aggregation links (or any inter-switch link in an explicit
    /// topology).
    Agg,
    /// Aggregation ↔ spine links.
    Spine,
}

/// A source route returned by [`Topology::route`].
///
/// CSR topologies hand out a borrow into the precomputed route arena;
/// the fat-tree computes the (at most six-link) route inline. Both deref
/// to `[LinkId]`, so call sites iterate and index routes as slices.
#[derive(Debug, Clone, Copy)]
pub enum Route<'a> {
    /// A borrow into a precomputed CSR route arena.
    Slice(&'a [LinkId]),
    /// An inline route computed on the fly (fat-tree: up to 6 links for
    /// host→edge→agg→spine→agg→edge→host).
    Inline {
        /// Link ids; the first `len` entries are valid.
        links: [LinkId; 6],
        /// Number of valid entries.
        len: u8,
    },
}

impl Deref for Route<'_> {
    type Target = [LinkId];
    fn deref(&self) -> &[LinkId] {
        match self {
            Route::Slice(s) => s,
            Route::Inline { links, len } => &links[..*len as usize],
        }
    }
}

/// Shape of a three-tier k-ary fat-tree (folded Clos).
///
/// `pods` pods each hold `edges_per_pod` edge switches (`hosts_per_edge`
/// hosts each) and `aggs_per_pod` aggregation switches; every edge switch
/// connects to every aggregation switch in its pod. `spines` top-tier
/// switches are striped across the aggregation index: with
/// `k = spines / aggs_per_pod`, aggregation switch `a` of every pod
/// connects to spines `a*k .. a*k+k`. A cross-pod route therefore
/// descends through the *same* aggregation index it climbed, which is
/// what makes arithmetic up-down routing valid.
///
/// The degenerate shape `pods = edges_per_pod = 1, aggs_per_pod =
/// spines = 0` is a single crossbar with the exact link layout of
/// [`Topology::single_switch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeShape {
    /// Number of pods.
    pub pods: usize,
    /// Edge switches per pod.
    pub edges_per_pod: usize,
    /// Hosts per edge switch.
    pub hosts_per_edge: usize,
    /// Aggregation switches per pod (0 only for the degenerate
    /// single-switch shape).
    pub aggs_per_pod: usize,
    /// Spine switches (must be a multiple of `aggs_per_pod`).
    pub spines: usize,
}

impl FatTreeShape {
    /// A canonical shape for `n` hosts, used by the scalability sweep.
    ///
    /// `n ≤ 16` gives the degenerate single-crossbar shape (so the p=16
    /// paper configuration is bit-identical to `single_switch`). Larger
    /// `n` must be a power-of-two multiple of 8 hosts per edge switch;
    /// pods and edges split the remaining factor as evenly as possible
    /// with `aggs_per_pod = edges_per_pod` and a 2:1 spine fan-out.
    pub fn for_hosts(n: usize) -> FatTreeShape {
        assert!(n >= 1, "fat-tree needs at least one host");
        if n <= 16 {
            return FatTreeShape {
                pods: 1,
                edges_per_pod: 1,
                hosts_per_edge: n,
                aggs_per_pod: 0,
                spines: 0,
            };
        }
        let hpe = 8;
        assert!(
            n.is_multiple_of(hpe) && (n / hpe).is_power_of_two(),
            "fat-tree shape for {n} hosts: need a power-of-two multiple of {hpe}"
        );
        let pe = n / hpe;
        let bits = pe.trailing_zeros() as usize;
        let pods = 1usize << bits.div_ceil(2);
        let edges = pe / pods;
        FatTreeShape {
            pods,
            edges_per_pod: edges,
            hosts_per_edge: hpe,
            aggs_per_pod: edges,
            spines: 2 * edges,
        }
    }

    /// Total hosts.
    pub fn hosts(&self) -> usize {
        self.pods * self.edges_per_pod * self.hosts_per_edge
    }

    /// Total switches across all three tiers.
    pub fn switches(&self) -> usize {
        self.pods * self.edges_per_pod + self.pods * self.aggs_per_pod + self.spines
    }

    /// Spine links per aggregation switch.
    fn k(&self) -> usize {
        self.spines.checked_div(self.aggs_per_pod).unwrap_or(0)
    }

    /// Global edge-switch index of a host.
    pub fn edge_of(&self, h: HostId) -> usize {
        h / self.hosts_per_edge
    }

    /// Pod index of a host.
    pub fn pod_of(&self, h: HostId) -> usize {
        h / (self.edges_per_pod * self.hosts_per_edge)
    }

    /// First link id of the edge↔agg block (host links occupy `0..b1`,
    /// two per host in the `single_switch` layout: `2h` up, `2h+1` down).
    fn b1(&self) -> usize {
        2 * self.hosts()
    }

    /// First link id of the agg↔spine block.
    fn b2(&self) -> usize {
        self.b1() + 2 * self.pods * self.edges_per_pod * self.aggs_per_pod
    }

    /// Uplink edge `ge` → aggregation `a` of its pod.
    fn edge_up(&self, ge: usize, a: usize) -> LinkId {
        self.b1() + 2 * (ge * self.aggs_per_pod + a)
    }

    /// Uplink aggregation `(pod, a)` → spine `a*k + j`.
    fn agg_up(&self, pod: usize, a: usize, j: usize) -> LinkId {
        self.b2() + 2 * ((pod * self.aggs_per_pod + a) * self.k() + j)
    }

    /// The arithmetic up-down route. Same edge: two links (identical to
    /// the single-switch BFS result). Same pod: four links via one ECMP
    /// aggregation choice. Cross pod: six links via one ECMP spine
    /// choice, descending through the same aggregation index.
    fn route(&self, src: HostId, dst: HostId) -> Route<'static> {
        let mut links = [0 as LinkId; 6];
        let len;
        if src == dst {
            len = 0;
        } else if self.edge_of(src) == self.edge_of(dst) {
            links[0] = 2 * src;
            links[1] = 2 * dst + 1;
            len = 2;
        } else if self.pod_of(src) == self.pod_of(dst) {
            let a = (ecmp_hash(src, dst) % self.aggs_per_pod as u64) as usize;
            links[0] = 2 * src;
            links[1] = self.edge_up(self.edge_of(src), a);
            links[2] = self.edge_up(self.edge_of(dst), a) + 1;
            links[3] = 2 * dst + 1;
            len = 4;
        } else {
            let s = (ecmp_hash(src, dst) % self.spines as u64) as usize;
            let (a, j) = (s / self.k(), s % self.k());
            links[0] = 2 * src;
            links[1] = self.edge_up(self.edge_of(src), a);
            links[2] = self.agg_up(self.pod_of(src), a, j);
            links[3] = self.agg_up(self.pod_of(dst), a, j) + 1;
            links[4] = self.edge_up(self.edge_of(dst), a) + 1;
            links[5] = 2 * dst + 1;
            len = 6;
        }
        Route::Inline { links, len }
    }
}

/// Deterministic ECMP path selector: a splitmix64 finalizer over the
/// `(src, dst)` pair. No RNG seed is involved, so the chosen path is a
/// pure function of the pair — routes stay fixed (per-route FIFO holds)
/// and digests are reproducible across seeds.
fn ecmp_hash(src: HostId, dst: HostId) -> u64 {
    let mut z = ((src as u64) << 32) ^ (dst as u64) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The route engine behind a topology: a precomputed CSR table or the
/// table-free fat-tree arithmetic.
#[derive(Debug, Clone)]
enum Router {
    /// Flat CSR storage: `link_ids[offsets[src*hosts+dst] ..
    /// offsets[src*hosts+dst+1]]` is the route.
    Csr {
        offsets: Vec<u32>,
        link_ids: Vec<LinkId>,
    },
    /// Routes derived from the shape on every lookup; no table.
    FatTree(FatTreeShape),
}

/// A static interconnect description with fixed per-pair routes.
#[derive(Debug, Clone)]
pub struct Topology {
    hosts: usize,
    switches: usize,
    links: Vec<Link>,
    router: Router,
    /// Cut-through (wormhole) forwarding: a downstream link starts once
    /// the header arrives instead of after the full packet (real Myrinet
    /// behavior). Off by default — the calibrated reproduction uses
    /// store-and-forward, whose extra per-hop latency is absorbed into
    /// the hop-latency constant.
    pub cut_through: bool,
}

/// Myrinet link rate used throughout the reproduction: 1.28 Gb/s =
/// 160 MB/s (paper §2.1).
pub const MYRINET_BW: u64 = 160_000_000;

/// Per-hop switch/wire latency: ~0.5 µs (100 cycles at 200 MHz), typical for
/// the era's cut-through crossbars.
pub const HOP_LATENCY_CYCLES: u64 = 100;

impl Topology {
    /// Build a topology from explicit parts and precompute all routes
    /// into flat CSR storage.
    ///
    /// Panics if any host pair is unreachable.
    pub fn from_parts(hosts: usize, switches: usize, links: Vec<Link>) -> Self {
        let mut t = Topology {
            hosts,
            switches,
            links,
            router: Router::Csr {
                offsets: Vec::new(),
                link_ids: Vec::new(),
            },
            cut_through: false,
        };
        let (offsets, link_ids) = t.compute_csr();
        t.router = Router::Csr { offsets, link_ids };
        t
    }

    /// The ParPar configuration: `n` hosts on one crossbar switch.
    pub fn single_switch(n: usize) -> Self {
        Self::single_switch_custom(n, MYRINET_BW, HOP_LATENCY_CYCLES)
    }

    /// The single-crossbar topology with cut-through (wormhole)
    /// forwarding enabled.
    pub fn single_switch_cut_through(n: usize) -> Self {
        let mut t = Self::single_switch(n);
        t.cut_through = true;
        t
    }

    /// Single crossbar with custom link bandwidth/latency.
    pub fn single_switch_custom(n: usize, bandwidth: u64, latency_cycles: u64) -> Self {
        let mut links = Vec::with_capacity(2 * n);
        for h in 0..n {
            links.push(Link {
                from: Port::Host(h),
                to: Port::Switch(0),
                bandwidth,
                latency_cycles,
            });
            links.push(Link {
                from: Port::Switch(0),
                to: Port::Host(h),
                bandwidth,
                latency_cycles,
            });
        }
        Self::from_parts(n, 1, links)
    }

    /// Two crossbars joined by `trunks` parallel inter-switch links, hosts
    /// split evenly. Used to exercise multi-hop routes in tests and the
    /// extension benches.
    pub fn dual_switch(n: usize, trunks: usize) -> Self {
        assert!(n >= 2 && trunks >= 1);
        let half = n / 2;
        let mut links = Vec::new();
        for h in 0..n {
            let sw = if h < half { 0 } else { 1 };
            links.push(Link {
                from: Port::Host(h),
                to: Port::Switch(sw),
                bandwidth: MYRINET_BW,
                latency_cycles: HOP_LATENCY_CYCLES,
            });
            links.push(Link {
                from: Port::Switch(sw),
                to: Port::Host(h),
                bandwidth: MYRINET_BW,
                latency_cycles: HOP_LATENCY_CYCLES,
            });
        }
        for _ in 0..trunks {
            links.push(Link {
                from: Port::Switch(0),
                to: Port::Switch(1),
                bandwidth: MYRINET_BW,
                latency_cycles: HOP_LATENCY_CYCLES,
            });
            links.push(Link {
                from: Port::Switch(1),
                to: Port::Switch(0),
                bandwidth: MYRINET_BW,
                latency_cycles: HOP_LATENCY_CYCLES,
            });
        }
        Self::from_parts(n, 2, links)
    }

    /// A three-tier k-ary fat-tree (folded Clos) with table-free
    /// ECMP-deterministic routing.
    ///
    /// Host links use the `single_switch` layout (`2h` up / `2h+1` down),
    /// so the degenerate one-pod one-edge shape routes bit-identically to
    /// [`Topology::single_switch`]. All links run at [`MYRINET_BW`] with
    /// [`HOP_LATENCY_CYCLES`] latency.
    pub fn fat_tree(shape: FatTreeShape) -> Self {
        let n = shape.hosts();
        assert!(n >= 1, "fat-tree needs at least one host");
        if shape.pods * shape.edges_per_pod > 1 {
            assert!(
                shape.aggs_per_pod >= 1,
                "multi-edge fat-tree needs aggregation switches"
            );
        }
        if shape.pods > 1 {
            assert!(
                shape.spines >= shape.aggs_per_pod
                    && shape.spines.is_multiple_of(shape.aggs_per_pod),
                "spines ({}) must be a positive multiple of aggs_per_pod ({})",
                shape.spines,
                shape.aggs_per_pod
            );
        } else if shape.aggs_per_pod > 0 {
            assert!(
                shape.spines.is_multiple_of(shape.aggs_per_pod),
                "spines ({}) must be a multiple of aggs_per_pod ({})",
                shape.spines,
                shape.aggs_per_pod
            );
        }
        let pe = shape.pods * shape.edges_per_pod;
        let agg_base = pe;
        let spine_base = pe + shape.pods * shape.aggs_per_pod;
        let link = |from, to| Link {
            from,
            to,
            bandwidth: MYRINET_BW,
            latency_cycles: HOP_LATENCY_CYCLES,
        };
        let mut links = Vec::with_capacity(shape.b2() + 2 * shape.pods * shape.aggs_per_pod);
        // Host block: ids 2h / 2h+1, exactly the single-switch layout.
        for h in 0..n {
            let ge = shape.edge_of(h);
            links.push(link(Port::Host(h), Port::Switch(ge)));
            links.push(link(Port::Switch(ge), Port::Host(h)));
        }
        // Edge↔agg block, starting at b1.
        for ge in 0..pe {
            let pod = ge / shape.edges_per_pod;
            for a in 0..shape.aggs_per_pod {
                let agg = agg_base + pod * shape.aggs_per_pod + a;
                links.push(link(Port::Switch(ge), Port::Switch(agg)));
                links.push(link(Port::Switch(agg), Port::Switch(ge)));
            }
        }
        // Agg↔spine block, starting at b2: agg `a` of every pod connects
        // to spines `a*k .. a*k+k`.
        let k = shape.k();
        for pod in 0..shape.pods {
            for a in 0..shape.aggs_per_pod {
                let agg = agg_base + pod * shape.aggs_per_pod + a;
                for j in 0..k {
                    let spine = spine_base + a * k + j;
                    links.push(link(Port::Switch(agg), Port::Switch(spine)));
                    links.push(link(Port::Switch(spine), Port::Switch(agg)));
                }
            }
        }
        debug_assert_eq!(
            links.len(),
            shape.b2() + 2 * shape.pods * shape.aggs_per_pod * k
        );
        Topology {
            hosts: n,
            switches: shape.switches(),
            links,
            router: Router::FatTree(shape),
            cut_through: false,
        }
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Number of switches.
    pub fn switches(&self) -> usize {
        self.switches
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The fat-tree shape, if this topology is one.
    pub fn fat_tree_shape(&self) -> Option<&FatTreeShape> {
        match &self.router {
            Router::FatTree(s) => Some(s),
            Router::Csr { .. } => None,
        }
    }

    /// Which fabric tier a link belongs to (for per-tier statistics).
    pub fn link_tier(&self, lid: LinkId) -> LinkTier {
        match &self.router {
            Router::FatTree(shape) => {
                if lid < shape.b1() {
                    LinkTier::Edge
                } else if lid < shape.b2() {
                    LinkTier::Agg
                } else {
                    LinkTier::Spine
                }
            }
            Router::Csr { .. } => {
                let l = &self.links[lid];
                match (l.from, l.to) {
                    (Port::Switch(_), Port::Switch(_)) => LinkTier::Agg,
                    _ => LinkTier::Edge,
                }
            }
        }
    }

    /// The fixed route from `src` to `dst` as a sequence of link ids.
    /// Empty iff `src == dst`.
    ///
    /// Panics (naming the pair) when either host is outside the topology
    /// or no route exists.
    pub fn route(&self, src: HostId, dst: HostId) -> Route<'_> {
        assert!(
            src < self.hosts && dst < self.hosts,
            "no route for host pair ({src}, {dst}): topology has {} hosts",
            self.hosts
        );
        match &self.router {
            Router::Csr { offsets, link_ids } => {
                let i = src * self.hosts + dst;
                let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                if src != dst && lo == hi {
                    panic!("no route for host pair ({src}, {dst})");
                }
                Route::Slice(&link_ids[lo..hi])
            }
            Router::FatTree(shape) => shape.route(src, dst),
        }
    }

    fn port_index(&self, p: Port) -> usize {
        match p {
            Port::Host(h) => h,
            Port::Switch(s) => self.hosts + s,
        }
    }

    /// BFS every pair's route into flat CSR storage: `offsets` has
    /// `hosts² + 1` entries, `link_ids` is one arena shared by all
    /// routes. Panics if any pair is unreachable.
    fn compute_csr(&self) -> (Vec<u32>, Vec<LinkId>) {
        let nports = self.hosts + self.switches;
        // adjacency: outgoing link ids per port
        let mut adj: Vec<Vec<LinkId>> = vec![Vec::new(); nports];
        for (i, l) in self.links.iter().enumerate() {
            adj[self.port_index(l.from)].push(i);
        }
        let mut offsets = Vec::with_capacity(self.hosts * self.hosts + 1);
        offsets.push(0u32);
        let mut link_ids: Vec<LinkId> = Vec::new();
        let mut path: Vec<LinkId> = Vec::new();
        for src in 0..self.hosts {
            // BFS from src over ports; remember the in-link per port.
            let mut in_link: Vec<Option<LinkId>> = vec![None; nports];
            let mut seen = vec![false; nports];
            let s = self.port_index(Port::Host(src));
            seen[s] = true;
            let mut q = VecDeque::from([s]);
            while let Some(p) = q.pop_front() {
                for &lid in &adj[p] {
                    let np = self.port_index(self.links[lid].to);
                    if !seen[np] {
                        seen[np] = true;
                        in_link[np] = Some(lid);
                        q.push_back(np);
                    }
                }
            }
            for dst in 0..self.hosts {
                if dst != src {
                    path.clear();
                    let mut p = self.port_index(Port::Host(dst));
                    while p != s {
                        let lid = in_link[p]
                            .unwrap_or_else(|| panic!("host {dst} unreachable from host {src}"));
                        path.push(lid);
                        p = self.port_index(self.links[lid].from);
                    }
                    link_ids.extend(path.iter().rev());
                }
                let end = u32::try_from(link_ids.len()).expect("route arena fits in u32 offsets");
                offsets.push(end);
            }
        }
        (offsets, link_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_routes_are_two_hops() {
        let t = Topology::single_switch(16);
        assert_eq!(t.hosts(), 16);
        for s in 0..16 {
            for d in 0..16 {
                let r = t.route(s, d);
                if s == d {
                    assert!(r.is_empty());
                } else {
                    assert_eq!(r.len(), 2, "{s}->{d}");
                    assert_eq!(t.links()[r[0]].from, Port::Host(s));
                    assert_eq!(t.links()[r[1]].to, Port::Host(d));
                }
            }
        }
    }

    #[test]
    fn dual_switch_cross_routes_are_three_hops() {
        let t = Topology::dual_switch(8, 1);
        // same side: 2 hops
        assert_eq!(t.route(0, 1).len(), 2);
        // across the trunk: 3 hops
        assert_eq!(t.route(0, 7).len(), 3);
        assert_eq!(t.route(7, 0).len(), 3);
    }

    #[test]
    fn routes_are_fixed_and_symmetric_in_length() {
        let t = Topology::single_switch(4);
        for s in 0..4 {
            for d in 0..4 {
                assert_eq!(t.route(s, d).len(), t.route(d, s).len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn unreachable_host_panics() {
        // Host 1 has no incoming link.
        let links = vec![Link {
            from: Port::Host(0),
            to: Port::Switch(0),
            bandwidth: MYRINET_BW,
            latency_cycles: 1,
        }];
        Topology::from_parts(2, 1, links);
    }

    #[test]
    #[should_panic(expected = "(1, 7)")]
    fn route_out_of_range_names_the_pair() {
        Topology::single_switch(4).route(1, 7);
    }

    #[test]
    fn degenerate_fat_tree_matches_single_switch_routes() {
        let ft = Topology::fat_tree(FatTreeShape::for_hosts(16));
        let ss = Topology::single_switch(16);
        assert_eq!(ft.hosts(), 16);
        assert_eq!(ft.links().len(), ss.links().len());
        for s in 0..16 {
            for d in 0..16 {
                assert_eq!(&*ft.route(s, d), &*ss.route(s, d), "{s}->{d}");
            }
        }
    }

    #[test]
    fn fat_tree_route_lengths_by_locality() {
        let shape = FatTreeShape::for_hosts(64); // 4 pods x 2 edges x 8 hosts
        let t = Topology::fat_tree(shape);
        assert_eq!(t.hosts(), 64);
        // Same edge switch: 2 links.
        assert_eq!(t.route(0, 7).len(), 2);
        // Same pod, different edge: 4 links.
        assert_eq!(t.route(0, 8).len(), 4);
        // Different pods: 6 links.
        assert_eq!(t.route(0, 63).len(), 6);
        // Symmetric in length.
        for (s, d) in [(0, 7), (0, 8), (0, 63), (17, 42)] {
            assert_eq!(t.route(s, d).len(), t.route(d, s).len());
        }
    }

    #[test]
    fn fat_tree_routes_are_connected_chains() {
        // Every route is a valid chain: consecutive links share a port,
        // starting at Host(src) and ending at Host(dst).
        let t = Topology::fat_tree(FatTreeShape::for_hosts(64));
        for src in 0..t.hosts() {
            for dst in 0..t.hosts() {
                if src == dst {
                    continue;
                }
                let r = t.route(src, dst);
                assert_eq!(t.links()[r[0]].from, Port::Host(src));
                assert_eq!(t.links()[*r.last().unwrap()].to, Port::Host(dst));
                for w in r.windows(2) {
                    assert_eq!(
                        t.links()[w[0]].to,
                        t.links()[w[1]].from,
                        "broken chain {src}->{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn fat_tree_tiers_partition_the_link_table() {
        let shape = FatTreeShape::for_hosts(64);
        let t = Topology::fat_tree(shape);
        let mut counts = [0usize; 3];
        for lid in 0..t.links().len() {
            match t.link_tier(lid) {
                LinkTier::Edge => counts[0] += 1,
                LinkTier::Agg => counts[1] += 1,
                LinkTier::Spine => counts[2] += 1,
            }
        }
        assert_eq!(counts[0], 2 * 64);
        assert_eq!(
            counts[1],
            2 * shape.pods * shape.edges_per_pod * shape.aggs_per_pod
        );
        assert_eq!(counts[2], 2 * shape.spines * shape.pods);
    }
}
