//! Cluster interconnect topology and source-route computation.
//!
//! ParPar's data network is a Myrinet SAN: hosts attach to crossbar
//! switches, and FM uses a single fixed route between each pair of hosts
//! (paper §3.2 relies on this for the FIFO property of the flush
//! protocol). The topology is a directed graph of [`Link`]s between
//! [`Port`]s.
//!
//! Every topology is a [`FatTreeShape`]: the paper's single crossbar is
//! the one-pod, one-edge shape ([`FatTreeShape::crossbar`]), and the
//! datacenter fabrics are k-ary folded Clos networks. No route table is
//! stored. [`Topology::route`] derives each route arithmetically from the
//! shape plus a deterministic ECMP hash of `(src, dst)`, so a 4096-host
//! fabric costs O(links) memory instead of O(hosts²). The hash involves no
//! RNG seed: the same pair always takes the same path, preserving the
//! per-route FIFO property and digest reproducibility.

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

/// A unidirectional physical link. Every link runs at [`MYRINET_BW`] with
/// [`HOP_LATENCY_CYCLES`] latency.
#[derive(Debug, Clone)]
pub struct Link {
    /// Transmitting side.
    pub from: Port,
    /// Receiving side.
    pub to: Port,
}

/// Which tier of the fabric a link belongs to, for per-tier statistics:
/// the three fat-tree stages host↔edge, edge↔aggregation and
/// aggregation↔spine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkTier {
    /// Host ↔ edge-switch links.
    Edge,
    /// Edge ↔ aggregation links.
    Agg,
    /// Aggregation ↔ spine links.
    Spine,
}

/// A source route returned by [`Topology::route`]: at most six links
/// (host→edge→agg→spine→agg→edge→host), stored inline. Derefs to
/// `[LinkId]`, so call sites iterate and index routes as slices.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    links: [LinkId; 6],
    len: u8,
}

impl Deref for Route {
    type Target = [LinkId];
    fn deref(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
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
/// spines = 0` is a single crossbar ([`FatTreeShape::crossbar`]).
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
    /// `n` hosts on one crossbar switch: the ParPar configuration.
    pub fn crossbar(n: usize) -> FatTreeShape {
        FatTreeShape {
            pods: 1,
            edges_per_pod: 1,
            hosts_per_edge: n,
            aggs_per_pod: 0,
            spines: 0,
        }
    }

    /// A canonical shape for `n` hosts, used by the scalability sweep.
    ///
    /// `n ≤ 16` gives the single crossbar (so the p=16 paper configuration
    /// is the same fabric as `single_switch`). Larger `n` must be a
    /// power-of-two multiple of 8 hosts per edge switch; pods and edges
    /// split the remaining factor as evenly as possible with
    /// `aggs_per_pod = edges_per_pod` and a 2:1 spine fan-out.
    pub fn for_hosts(n: usize) -> FatTreeShape {
        assert!(n >= 1, "fat-tree needs at least one host");
        if n <= 16 {
            return FatTreeShape::crossbar(n);
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
    /// two per host: `2h` up, `2h+1` down).
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

    /// The arithmetic up-down route. Same edge: two links. Same pod: four
    /// links via one ECMP aggregation choice. Cross pod: six links via one
    /// ECMP spine choice, descending through the same aggregation index.
    fn route(&self, src: HostId, dst: HostId) -> Route {
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
        Route { links, len }
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

/// A static interconnect description with fixed per-pair routes.
#[derive(Debug, Clone)]
pub struct Topology {
    shape: FatTreeShape,
    links: Vec<Link>,
}

/// Myrinet link rate used throughout the reproduction: 1.28 Gb/s =
/// 160 MB/s (paper §2.1).
pub const MYRINET_BW: u64 = 160_000_000;

/// Per-hop switch/wire latency: ~0.5 µs (100 cycles at 200 MHz), typical for
/// the era's cut-through crossbars.
pub const HOP_LATENCY_CYCLES: u64 = 100;

impl Topology {
    /// The ParPar configuration: `n` hosts on one crossbar switch.
    pub fn single_switch(n: usize) -> Self {
        Self::fat_tree(FatTreeShape::crossbar(n))
    }

    /// A three-tier k-ary fat-tree (folded Clos) with table-free
    /// ECMP-deterministic routing.
    ///
    /// Host links come first (`2h` up / `2h+1` down), then the edge↔agg
    /// block, then the agg↔spine block.
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
        let k = shape.k();
        let mut links = Vec::with_capacity(shape.b2() + 2 * shape.pods * shape.aggs_per_pod * k);
        let mut duplex = |a, b| {
            links.push(Link { from: a, to: b });
            links.push(Link { from: b, to: a });
        };
        // Host block: ids 2h / 2h+1.
        for h in 0..n {
            duplex(Port::Host(h), Port::Switch(shape.edge_of(h)));
        }
        // Edge↔agg block, starting at b1.
        for ge in 0..pe {
            let pod = ge / shape.edges_per_pod;
            for a in 0..shape.aggs_per_pod {
                let agg = agg_base + pod * shape.aggs_per_pod + a;
                duplex(Port::Switch(ge), Port::Switch(agg));
            }
        }
        // Agg↔spine block, starting at b2: agg `a` of every pod connects
        // to spines `a*k .. a*k+k`.
        for pod in 0..shape.pods {
            for a in 0..shape.aggs_per_pod {
                let agg = agg_base + pod * shape.aggs_per_pod + a;
                for j in 0..k {
                    duplex(Port::Switch(agg), Port::Switch(spine_base + a * k + j));
                }
            }
        }
        debug_assert_eq!(
            links.len(),
            shape.b2() + 2 * shape.pods * shape.aggs_per_pod * k
        );
        Topology { shape, links }
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.shape.hosts()
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Which fabric tier a link belongs to (for per-tier statistics).
    pub fn link_tier(&self, lid: LinkId) -> LinkTier {
        if lid < self.shape.b1() {
            LinkTier::Edge
        } else if lid < self.shape.b2() {
            LinkTier::Agg
        } else {
            LinkTier::Spine
        }
    }

    /// The fixed route from `src` to `dst` as a sequence of link ids.
    /// Empty iff `src == dst`.
    ///
    /// Panics (naming the pair) when either host is outside the topology.
    pub fn route(&self, src: HostId, dst: HostId) -> Route {
        let hosts = self.hosts();
        assert!(
            src < hosts && dst < hosts,
            "no route for host pair ({src}, {dst}): topology has {hosts} hosts"
        );
        self.shape.route(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_routes_are_two_hops() {
        for n in [2usize, 16, 64] {
            let t = Topology::single_switch(n);
            assert_eq!(t.hosts(), n);
            assert_eq!(t.links().len(), 2 * n, "link table at n = {n}");
            for s in 0..n {
                for d in 0..n {
                    let r = t.route(s, d);
                    if s == d {
                        assert!(r.is_empty());
                    } else {
                        assert_eq!(&*r, &[2 * s, 2 * d + 1], "{s}->{d} at n = {n}");
                        assert_eq!(t.links()[r[0]].from, Port::Host(s));
                        assert_eq!(t.links()[r[1]].to, Port::Host(d));
                    }
                }
            }
        }
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
    #[should_panic(expected = "(1, 7)")]
    fn route_out_of_range_names_the_pair() {
        Topology::single_switch(4).route(1, 7);
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
