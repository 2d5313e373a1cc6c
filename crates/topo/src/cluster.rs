//! Cluster-level topology: many identical nodes joined by a non-blocking
//! switch, and the instantiation of the whole machine into simulator links
//! ([`Fabric`]).

use detsim::{Kernel, LinkId, Path, SimDuration};

use crate::node::{CompId, NodeSpec};

/// Description of a whole machine: `num_nodes` copies of `node` attached to
/// a non-blocking switch. Per-node injection/ejection capacity models the
/// NIC's network-side limit (the per-node bottleneck for all off-node
/// traffic).
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Number of nodes.
    pub num_nodes: usize,
    /// NIC injection (and ejection) bandwidth, bytes/second per direction.
    pub injection_bandwidth: f64,
    /// One-way switch traversal latency.
    pub switch_latency: SimDuration,
}

impl ClusterSpec {
    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.num_nodes * self.node.num_gpus()
    }
}

/// A multi-level switch hierarchy over the nodes of a cluster — the
/// inter-node analogue of [`crate::NodeDiscovery::distance_matrix`], in
/// O(1) per pair instead of a materialized n² matrix (a 4608-node dense
/// matrix is ~170 MB; the hierarchy is three integers and three floats).
///
/// Nodes are grouped by contiguous index at each level: level `k` groups
/// `group_size[k]` nodes behind one switch, and the distance between two
/// nodes is the reciprocal bandwidth of the *lowest* level whose group
/// contains both. Pairs above the top configured level pay the root
/// distance. This is the standard fat-tree abstraction used by
/// hierarchical process mappers (Schulz & Woydt); see `docs/PLACEMENT.md`.
///
/// The default [`ClusterSpec`] fabric models the switch as non-blocking
/// (every placement equal); `SwitchHierarchy` is the tapered model the
/// *global mapping stage* optimizes against, kept standalone so existing
/// cluster construction is untouched.
#[derive(Clone, Debug)]
pub struct SwitchHierarchy {
    num_nodes: usize,
    /// `(group_size, distance)` per level, ascending group size.
    levels: Vec<(usize, f64)>,
    /// Distance when two nodes share no configured level.
    root_distance: f64,
}

impl SwitchHierarchy {
    /// Build from `(group_size, bandwidth)` pairs, lowest level first, plus
    /// the bandwidth of the root (cross-everything) tier. Distances are
    /// stored as reciprocal bandwidths, matching the QAP convention of the
    /// node-level distance matrix.
    ///
    /// # Panics
    /// If group sizes are not strictly increasing and ≥ 2, or any
    /// bandwidth is not finite-positive.
    pub fn new(num_nodes: usize, levels: &[(usize, f64)], root_bandwidth: f64) -> SwitchHierarchy {
        let mut prev = 1;
        for &(size, bw) in levels {
            assert!(size > prev, "group sizes must be strictly increasing");
            assert!(
                bw > 0.0 && bw.is_finite(),
                "level bandwidth must be positive"
            );
            prev = size;
        }
        assert!(
            root_bandwidth > 0.0 && root_bandwidth.is_finite(),
            "root bandwidth must be positive"
        );
        SwitchHierarchy {
            num_nodes,
            levels: levels.iter().map(|&(s, bw)| (s, bw.recip())).collect(),
            root_distance: root_bandwidth.recip(),
        }
    }

    /// A Summit-flavored three-tier fat tree: 18 nodes per leaf switch,
    /// 324 per pod (18 leaves), everything else through the core. The
    /// real machine's tree is non-blocking; the mild taper here
    /// (25/20/16 GB/s) is the modeling knob that gives a topology-aware
    /// mapper something to gain — set all three equal to recover the
    /// indifferent switch.
    pub fn summit_fat_tree(num_nodes: usize) -> SwitchHierarchy {
        SwitchHierarchy::new(num_nodes, &[(18, 25e9), (324, 20e9)], 16e9)
    }

    /// Number of nodes under the hierarchy.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Distance between nodes `a` and `b`: 0 on the diagonal, otherwise
    /// the reciprocal bandwidth of the lowest level grouping both. O(1)
    /// in the number of nodes.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        debug_assert!(a < self.num_nodes && b < self.num_nodes);
        if a == b {
            return 0.0;
        }
        for &(size, dist) in &self.levels {
            if a / size == b / size {
                return dist;
            }
        }
        self.root_distance
    }

    /// Number of configured levels below the root.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Nodes per group at `level` (0 = leaf switches).
    pub fn group_size(&self, level: usize) -> usize {
        self.levels[level].0
    }

    /// Which level-`level` group (switch) `node` sits under.
    pub fn group_of(&self, level: usize, node: usize) -> usize {
        debug_assert!(node < self.num_nodes);
        node / self.levels[level].0
    }

    /// The contiguous node range behind switch `group` of `level`, clamped
    /// to the cluster size — the blast radius of a fault on that switch
    /// (see `faultsim::FaultTarget::Switch`).
    pub fn group_nodes(&self, level: usize, group: usize) -> std::ops::Range<usize> {
        let size = self.levels[level].0;
        let first = group * size;
        first..((first + size).min(self.num_nodes))
    }

    /// Materialize the dense distance matrix — only sensible for small
    /// node counts (tests, the exhaustive rung); the mapper itself uses
    /// [`SwitchHierarchy::distance`] directly.
    pub fn distance_matrix(&self) -> Vec<Vec<f64>> {
        (0..self.num_nodes)
            .map(|a| (0..self.num_nodes).map(|b| self.distance(a, b)).collect())
            .collect()
    }
}

/// The instantiated machine: every directed link of every node, plus
/// injection/ejection links, registered with a [`Kernel`]. Provides directed
/// link paths for the transfers the upper layers perform.
pub struct Fabric {
    spec: ClusterSpec,
    /// `fwd[node][link]`: simulator link for node-local duplex link `link`
    /// in its `a -> b` direction.
    fwd: Vec<Vec<LinkId>>,
    /// Same, `b -> a` direction.
    rev: Vec<Vec<LinkId>>,
    /// `inject[node]`: NIC -> switch.
    inject: Vec<LinkId>,
    /// `eject[node]`: switch -> NIC.
    eject: Vec<LinkId>,
    /// Node-local route of every ordered component pair, computed once
    /// here: `routes[from * components + to]` lists `(link index, a -> b
    /// direction?)` hops, `None` when disconnected. The same for every node.
    routes: Vec<Option<Vec<(usize, bool)>>>,
}

impl Fabric {
    /// Register every link of `spec` with the kernel.
    pub fn build(kernel: &mut Kernel, spec: ClusterSpec) -> Fabric {
        assert!(spec.num_nodes > 0, "cluster needs at least one node");
        assert!(
            spec.node.num_nics() > 0 || spec.num_nodes == 1,
            "multi-node cluster requires a NIC in the node spec"
        );
        let mut fwd = Vec::with_capacity(spec.num_nodes);
        let mut rev = Vec::with_capacity(spec.num_nodes);
        let mut inject = Vec::with_capacity(spec.num_nodes);
        let mut eject = Vec::with_capacity(spec.num_nodes);
        for n in 0..spec.num_nodes {
            let mut f = Vec::with_capacity(spec.node.links.len());
            let mut r = Vec::with_capacity(spec.node.links.len());
            for (li, l) in spec.node.links.iter().enumerate() {
                let name =
                    |dir: &str| format!("n{n}.{:?}[{li}].{dir} {:?}->{:?}", l.kind, l.a, l.b);
                f.push(kernel.add_link(name("fwd"), l.bandwidth, l.latency));
                r.push(kernel.add_link(name("rev"), l.bandwidth, l.latency));
            }
            fwd.push(f);
            rev.push(r);
            if spec.node.num_nics() > 0 {
                inject.push(kernel.add_link(
                    format!("n{n}.inject"),
                    spec.injection_bandwidth,
                    spec.switch_latency,
                ));
                eject.push(kernel.add_link(
                    format!("n{n}.eject"),
                    spec.injection_bandwidth,
                    SimDuration::ZERO,
                ));
            }
        }
        let node = &spec.node;
        let routes = (0..node.components.len())
            .flat_map(|from| {
                let from = CompId(from);
                node.routes_from(from).into_iter().map(move |route| {
                    let mut cur = from;
                    let hops = route?.into_iter().map(|li| {
                        let l = &node.links[li];
                        let forward = l.a == cur;
                        debug_assert!(forward || l.b == cur, "route is not contiguous");
                        cur = if forward { l.b } else { l.a };
                        (li, forward)
                    });
                    Some(hops.collect())
                })
            })
            .collect();
        Fabric {
            spec,
            fwd,
            rev,
            inject,
            eject,
            routes,
        }
    }

    /// Append the directed simulator links from `from` to `to` on `node`.
    fn push_node_path(&self, path: &mut Path, node: usize, from: CompId, to: CompId) {
        let comps = self.spec.node.components.len();
        let route = self.routes[from.0 * comps + to.0]
            .as_ref()
            .unwrap_or_else(|| panic!("no route {from:?} -> {to:?} in node spec"));
        for &(li, forward) in route {
            path.push(if forward {
                self.fwd[node][li]
            } else {
                self.rev[node][li]
            });
        }
    }

    /// Inter-node path: `c1` on `n1` to the NIC, injection, ejection, NIC to
    /// `c2` on `n2`.
    fn internode_path(&self, n1: usize, c1: CompId, n2: usize, c2: CompId) -> Path {
        assert_ne!(n1, n2, "internode path within one node");
        let nic = self.spec.node.nic(0);
        let mut path = Path::new();
        self.push_node_path(&mut path, n1, c1, nic);
        path.push(self.inject[n1]);
        path.push(self.eject[n2]);
        self.push_node_path(&mut path, n2, nic, c2);
        path
    }

    /// The cluster description this fabric was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Node-local hardware description.
    pub fn node_spec(&self) -> &NodeSpec {
        &self.spec.node
    }

    /// Directed simulator-link path between two components of one node.
    pub fn node_path(&self, node: usize, from: CompId, to: CompId) -> Path {
        let mut path = Path::new();
        self.push_node_path(&mut path, node, from, to);
        path
    }

    /// Path for a peer copy between two GPUs on one node.
    pub fn gpu_gpu_path(&self, node: usize, g1: usize, g2: usize) -> Path {
        self.node_path(node, self.spec.node.gpu(g1), self.spec.node.gpu(g2))
    }

    /// Path for a device-to-host copy from GPU `g` to its socket's memory.
    pub fn gpu_to_host_path(&self, node: usize, g: usize) -> Path {
        let s = self.spec.node.gpu_socket(g);
        self.node_path(node, self.spec.node.gpu(g), self.spec.node.cpu(s))
    }

    /// Path for a host-to-device copy from GPU `g`'s socket memory to GPU `g`.
    pub fn host_to_gpu_path(&self, node: usize, g: usize) -> Path {
        let s = self.spec.node.gpu_socket(g);
        self.node_path(node, self.spec.node.cpu(s), self.spec.node.gpu(g))
    }

    /// Inter-node path between a source CPU socket and a destination CPU
    /// socket: source-node fabric to the NIC, injection, ejection,
    /// destination-node fabric from the NIC. Panics if `n1 == n2` (same-node
    /// transfers never cross the switch; route them with [`Self::node_path`]).
    pub fn internode_host_path(
        &self,
        n1: usize,
        socket1: usize,
        n2: usize,
        socket2: usize,
    ) -> Path {
        let node = &self.spec.node;
        self.internode_path(n1, node.cpu(socket1), n2, node.cpu(socket2))
    }

    /// Inter-node path directly between two GPUs (the GPUDirect-style route
    /// used by CUDA-aware MPI): source GPU to its node's NIC, across the
    /// switch, NIC to destination GPU.
    pub fn internode_gpu_path(&self, n1: usize, g1: usize, n2: usize, g2: usize) -> Path {
        let node = &self.spec.node;
        self.internode_path(n1, node.gpu(g1), n2, node.gpu(g2))
    }

    /// Inter-node path between two arbitrary components (e.g. a GPU on one
    /// node and a CPU socket on another, as in a CUDA-aware send with a
    /// device buffer on one side only).
    pub fn internode_comp_path(&self, n1: usize, c1: CompId, n2: usize, c2: CompId) -> Path {
        self.internode_path(n1, c1, n2, c2)
    }

    /// Injection link of a node (diagnostics: delivered-bytes accounting).
    pub fn injection_link(&self, node: usize) -> LinkId {
        self.inject[node]
    }

    /// Ejection link of a node (switch -> NIC direction).
    pub fn ejection_link(&self, node: usize) -> LinkId {
        self.eject[node]
    }

    /// Number of duplex links in each node's local fabric (the valid
    /// `link` range for [`Self::node_duplex_link`]).
    pub fn node_link_count(&self) -> usize {
        self.spec.node.links.len()
    }

    /// The `(forward, reverse)` simulator links instantiating duplex link
    /// `link` of node `node` — the addressing handle fault injection uses
    /// to degrade one physical link in both directions.
    pub fn node_duplex_link(&self, node: usize, link: usize) -> (LinkId, LinkId) {
        (self.fwd[node][link], self.rev[node][link])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LinkKind;
    use crate::summit::{summit_cluster, summit_node};

    fn small_cluster(n: usize) -> (Kernel, Fabric) {
        let mut k = Kernel::new();
        let f = Fabric::build(&mut k, summit_cluster(n));
        (k, f)
    }

    #[test]
    fn build_creates_links_per_node() {
        let (k, f) = small_cluster(2);
        let spec_links = f.node_spec().links.len();
        // 2 directed per duplex link per node + inject/eject per node
        assert!(k.link_name(f.injection_link(0)).contains("inject"));
        assert_eq!(f.fwd[0].len(), spec_links);
        assert_eq!(f.fwd[1].len(), spec_links);
    }

    #[test]
    fn triad_gpu_path_is_single_nvlink() {
        let (k, f) = small_cluster(1);
        let p = f.gpu_gpu_path(0, 0, 1);
        assert_eq!(p.len(), 1);
        assert_eq!(k.link_capacity(p[0]), 50e9);
    }

    #[test]
    fn cross_socket_gpu_path_traverses_xbus() {
        let (k, f) = small_cluster(1);
        let p = f.gpu_gpu_path(0, 0, 3);
        assert_eq!(p.len(), 3);
        // middle link is the X-Bus at 64 GB/s
        assert_eq!(k.link_capacity(p[1]), 64e9);
    }

    #[test]
    fn d2h_and_h2d_are_distinct_directed_links() {
        let (_k, f) = small_cluster(1);
        let d2h = f.gpu_to_host_path(0, 2);
        let h2d = f.host_to_gpu_path(0, 2);
        assert_eq!(d2h.len(), 1);
        assert_eq!(h2d.len(), 1);
        assert_ne!(d2h[0], h2d[0], "full duplex: directions are separate links");
    }

    #[test]
    fn internode_path_crosses_switch() {
        let (k, f) = small_cluster(3);
        let p = f.internode_host_path(0, 0, 2, 1);
        assert!(p.contains(&f.injection_link(0)));
        // destination ejection link named n2.eject
        assert!(p.iter().any(|&l| k.link_name(l) == "n2.eject"));
        // source socket -> NIC hop exists
        assert!(p.len() >= 4);
    }

    #[test]
    fn internode_gpu_path_endpoints() {
        let (k, f) = small_cluster(2);
        let p = f.internode_gpu_path(0, 5, 1, 0);
        // gpu5 is on socket 1: gpu->cpu1->nic hops then switch then nic->cpu0->gpu0
        assert!(p.len() >= 6);
        assert!(p.iter().any(|&l| k.link_name(l).contains("inject")));
    }

    #[test]
    #[should_panic(expected = "internode")]
    fn same_node_internode_path_panics() {
        let (_k, f) = small_cluster(2);
        let _ = f.internode_host_path(1, 0, 1, 0);
    }

    #[test]
    fn single_node_cluster_without_nic_is_ok() {
        let mut node = NodeSpec::new("gpu-only");
        let c = node.add_cpu();
        let g = node.add_gpu();
        node.link(c, g, LinkKind::NvLink, 50e9, SimDuration::from_micros(1));
        let mut k = Kernel::new();
        let f = Fabric::build(
            &mut k,
            ClusterSpec {
                node,
                num_nodes: 1,
                injection_bandwidth: 1.0,
                switch_latency: SimDuration::ZERO,
            },
        );
        assert_eq!(f.gpu_to_host_path(0, 0).len(), 1);
    }

    #[test]
    fn summit_node_shape() {
        let n = summit_node();
        assert_eq!(n.num_gpus(), 6);
        assert_eq!(n.num_cpus(), 2);
        assert_eq!(n.num_nics(), 1);
        // triads: gpus 0-2 socket 0, gpus 3-5 socket 1
        for g in 0..3 {
            assert_eq!(n.gpu_socket(g), 0, "gpu{g}");
        }
        for g in 3..6 {
            assert_eq!(n.gpu_socket(g), 1, "gpu{g}");
        }
        // all pairs peer-capable on the fabric
        for a in 0..6 {
            for b in 0..6 {
                assert!(n.gpus_can_peer(a, b));
            }
        }
    }

    #[test]
    fn switch_hierarchy_levels() {
        let h = SwitchHierarchy::new(100, &[(4, 100.0), (20, 50.0)], 10.0);
        assert_eq!(h.num_nodes(), 100);
        assert_eq!(h.distance(7, 7), 0.0);
        assert_eq!(h.distance(0, 3), 1.0 / 100.0); // same leaf (0..4)
        assert_eq!(h.distance(0, 4), 1.0 / 50.0); // same pod (0..20)
        assert_eq!(h.distance(0, 21), 1.0 / 10.0); // across the root
        assert_eq!(h.distance(21, 0), h.distance(0, 21), "symmetric");
    }

    #[test]
    fn switch_hierarchy_matrix_matches_pointwise() {
        let h = SwitchHierarchy::summit_fat_tree(40);
        let m = h.distance_matrix();
        for (a, row) in m.iter().enumerate() {
            for (b, &v) in row.iter().enumerate() {
                assert_eq!(v, h.distance(a, b), "{a}-{b}");
            }
        }
        // taper: same-leaf closer than cross-leaf
        assert!(h.distance(0, 17) < h.distance(0, 18));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn switch_hierarchy_rejects_unordered_levels() {
        let _ = SwitchHierarchy::new(10, &[(6, 1.0), (4, 1.0)], 1.0);
    }

    #[test]
    fn switch_hierarchy_groups_cover_contiguous_ranges() {
        let h = SwitchHierarchy::new(100, &[(4, 100.0), (20, 50.0)], 10.0);
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.group_size(0), 4);
        assert_eq!(h.group_of(0, 7), 1);
        assert_eq!(h.group_of(1, 7), 0);
        assert_eq!(h.group_nodes(0, 1), 4..8);
        assert_eq!(h.group_nodes(1, 4), 80..100);
        // Last group clamps to the cluster size.
        let h2 = SwitchHierarchy::summit_fat_tree(20);
        assert_eq!(h2.group_nodes(0, 1), 18..20);
        // Every node is in the group it maps to.
        for node in 0..20 {
            let g = h2.group_of(0, node);
            assert!(h2.group_nodes(0, g).contains(&node));
        }
    }
}
