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
//! stored. [`Topology::route`] derives each route arithmetically from a
//! per-host placement table (each host's edge switch and pod, O(hosts))
//! plus a deterministic ECMP hash of `(src, dst)`, so a 4096-host fabric
//! costs O(links + hosts) memory instead of O(hosts²). The hash involves no
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
///
/// Besides the link table it keeps what [`Topology::route`] reads on
/// every packet: each host's placement and the link-block bases, so a
/// route divides only to make its ECMP choice.
#[derive(Debug, Clone)]
pub struct Topology {
    shape: FatTreeShape,
    links: Vec<Link>,
    /// Per host: `[global edge switch, pod]`. O(hosts), unlike a route
    /// table's O(hosts²).
    place: Vec<[u32; 2]>,
    /// First link id of the edge↔agg block.
    b1: usize,
    /// First link id of the agg↔spine block.
    b2: usize,
    /// Spine links per aggregation switch.
    k: usize,
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

    /// A three-tier k-ary fat-tree (folded Clos) with ECMP-deterministic
    /// routing and no route table: only an O(hosts) placement table of
    /// each host's edge switch and pod.
    ///
    /// Host links come first (`2h` up / `2h+1` down), then the edge↔agg
    /// block, then the agg↔spine block.
    pub fn fat_tree(shape: FatTreeShape) -> Self {
        let n = shape.hosts();
        assert!(n >= 1, "fat-tree needs at least one host");
        assert!(
            u32::try_from(n).is_ok(),
            "fat-tree of {n} hosts: at most {} are supported",
            u32::MAX
        );
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
        let place = (0..n)
            .map(|h| [shape.edge_of(h) as u32, shape.pod_of(h) as u32])
            .collect();
        Topology {
            shape,
            links,
            place,
            b1: shape.b1(),
            b2: shape.b2(),
            k,
        }
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.place.len()
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Which fabric tier a link belongs to (for per-tier statistics).
    pub fn link_tier(&self, lid: LinkId) -> LinkTier {
        if lid < self.b1 {
            LinkTier::Edge
        } else if lid < self.b2 {
            LinkTier::Agg
        } else {
            LinkTier::Spine
        }
    }

    /// The fixed route from `src` to `dst` as a sequence of link ids.
    /// Empty iff `src == dst`.
    ///
    /// The arithmetic up-down route. Same edge: two links. Same pod: four
    /// links via one ECMP aggregation choice. Cross pod: six links via one
    /// ECMP spine choice, descending through the same aggregation index.
    /// The endpoints' edge and pod come from the placement table, so the
    /// ECMP choice is the only division.
    ///
    /// Panics (naming the pair) when either host is outside the topology.
    pub fn route(&self, src: HostId, dst: HostId) -> Route {
        let (Some(&[se, sp]), Some(&[de, dp])) = (self.place.get(src), self.place.get(dst)) else {
            panic!(
                "no route for host pair ({src}, {dst}): topology has {} hosts",
                self.hosts()
            );
        };
        let aggs = self.shape.aggs_per_pod;
        // Uplink edge `ge` → aggregation `a` of its pod.
        let edge_up = |ge: u32, a: usize| self.b1 + 2 * (ge as usize * aggs + a);
        let (links, len) = if src == dst {
            ([0; 6], 0)
        } else if se == de {
            ([2 * src, 2 * dst + 1, 0, 0, 0, 0], 2)
        } else if sp == dp {
            let a = (ecmp_hash(src, dst) % aggs as u64) as usize;
            let up = edge_up(se, a);
            let down = edge_up(de, a) + 1;
            ([2 * src, up, down, 2 * dst + 1, 0, 0], 4)
        } else {
            let s = (ecmp_hash(src, dst) % self.shape.spines as u64) as usize;
            let (a, j) = (s / self.k, s % self.k);
            // Uplink aggregation `(pod, a)` → spine `a*k + j`.
            let agg_up = |pod: u32| self.b2 + 2 * ((pod as usize * aggs + a) * self.k + j);
            let links = [
                2 * src,
                edge_up(se, a),
                agg_up(sp),
                agg_up(dp) + 1,
                edge_up(de, a) + 1,
                2 * dst + 1,
            ];
            (links, 6)
        };
        Route { links, len }
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

    /// FNV-1a over every `(src, dst)` route of `shape`, in pair order:
    /// each route folds its length, then its link ids.
    fn route_digest(shape: FatTreeShape) -> u64 {
        let t = Topology::fat_tree(shape);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |w: usize| {
            for b in (w as u64).to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for src in 0..t.hosts() {
            for dst in 0..t.hosts() {
                let r = t.route(src, dst);
                fold(r.len());
                r.iter().for_each(|&lid| fold(lid));
            }
        }
        h
    }

    /// Every route of a range of shapes, pinned: the crossbars, the
    /// canonical 64- and 256-host fat-trees, and a shape whose sizes are
    /// not powers of two (k = 3 spines per aggregation switch).
    #[test]
    fn route_digests_are_pinned() {
        let odd = FatTreeShape {
            pods: 3,
            edges_per_pod: 2,
            hosts_per_edge: 5,
            aggs_per_pod: 2,
            spines: 6,
        };
        let cells = [
            (FatTreeShape::crossbar(2), 0x1f4e_d95f_dd0d_b285),
            (FatTreeShape::crossbar(6), 0x3651_e105_94d9_1045),
            (FatTreeShape::crossbar(16), 0x5d44_44ea_3af9_3c25),
            (FatTreeShape::for_hosts(64), 0x8227_ef97_7678_5325),
            (FatTreeShape::for_hosts(256), 0x541b_7205_e7a7_1821),
            (odd, 0xb70d_ef4c_7115_81a5),
        ];
        for (shape, want) in cells {
            assert_eq!(route_digest(shape), want, "{shape:?}");
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
