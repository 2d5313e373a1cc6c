//! Intra-node hardware description: components (CPU sockets, GPUs, NICs) and
//! the duplex links connecting them, plus hop-count routing between
//! components.

use detsim::SimDuration;

/// What a physical link is. Only used for reporting and for classifying
/// GPU-GPU connectivity (the discovery API); the simulator cares only about
/// capacity and latency.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum LinkKind {
    /// NVLink (GPU-GPU or GPU-CPU).
    NvLink,
    /// The SMP interconnect between CPU sockets (X-Bus on POWER9).
    XBus,
    /// PCIe between a CPU and a NIC (or a PCIe-attached GPU).
    Pcie,
    /// NIC to the network switch (injection/ejection).
    Network,
}

/// A component inside a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Component {
    /// CPU socket `i`.
    Cpu(usize),
    /// GPU `i` (node-local index).
    Gpu(usize),
    /// NIC `i`.
    Nic(usize),
}

/// Index into [`NodeSpec::components`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct CompId(pub usize);

/// A full-duplex link between two components (instantiated as two directed
/// simulator links, one per direction).
#[derive(Clone, Debug)]
pub struct DuplexLink {
    /// One endpoint.
    pub a: CompId,
    /// Other endpoint.
    pub b: CompId,
    /// Link class.
    pub kind: LinkKind,
    /// Capacity per direction, bytes/second.
    pub bandwidth: f64,
    /// One-way latency.
    pub latency: SimDuration,
}

/// Description of one node's internals.
#[derive(Clone, Debug, Default)]
pub struct NodeSpec {
    /// All components; index = `CompId`.
    pub components: Vec<Component>,
    /// All duplex links.
    pub links: Vec<DuplexLink>,
    name: String,
    cpus: Vec<CompId>,
    gpus: Vec<CompId>,
    nics: Vec<CompId>,
}

impl NodeSpec {
    /// An empty node with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        NodeSpec {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The node model name (e.g. `"summit"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a CPU socket; returns its component id.
    pub fn add_cpu(&mut self) -> CompId {
        let id = CompId(self.components.len());
        self.components.push(Component::Cpu(self.cpus.len()));
        self.cpus.push(id);
        id
    }

    /// Add a GPU; returns its component id.
    pub fn add_gpu(&mut self) -> CompId {
        let id = CompId(self.components.len());
        self.components.push(Component::Gpu(self.gpus.len()));
        self.gpus.push(id);
        id
    }

    /// Add a NIC; returns its component id.
    pub fn add_nic(&mut self) -> CompId {
        let id = CompId(self.components.len());
        self.components.push(Component::Nic(self.nics.len()));
        self.nics.push(id);
        id
    }

    /// Connect two components with a full-duplex link.
    pub fn link(
        &mut self,
        a: CompId,
        b: CompId,
        kind: LinkKind,
        bandwidth: f64,
        latency: SimDuration,
    ) {
        assert!(a != b, "self-links are meaningless");
        assert!(bandwidth > 0.0, "link bandwidth must be positive");
        self.links.push(DuplexLink {
            a,
            b,
            kind,
            bandwidth,
            latency,
        });
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Number of CPU sockets.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Number of NICs.
    pub fn num_nics(&self) -> usize {
        self.nics.len()
    }

    /// Component id of GPU `i`.
    pub fn gpu(&self, i: usize) -> CompId {
        self.gpus[i]
    }

    /// Component id of CPU socket `i`.
    pub fn cpu(&self, i: usize) -> CompId {
        self.cpus[i]
    }

    /// Component id of NIC `i`.
    pub fn nic(&self, i: usize) -> CompId {
        self.nics[i]
    }

    /// The CPU socket "closest" (fewest hops) to GPU `i`; the socket whose
    /// memory holds this GPU's staging buffers.
    pub fn gpu_socket(&self, i: usize) -> usize {
        let route = self
            .cpus
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| {
                self.route(self.gpus[i], c)
                    .map(|r| r.len())
                    .unwrap_or(usize::MAX)
            })
            .expect("node has no CPU sockets");
        route.0
    }

    /// Shortest route (by hop count, ties broken by link insertion order)
    /// between two components, as a sequence of link indices into
    /// [`NodeSpec::links`]. `None` if disconnected. An `(a, a)` route is the
    /// empty sequence.
    pub fn route(&self, from: CompId, to: CompId) -> Option<Vec<usize>> {
        self.routes_from(from).swap_remove(to.0)
    }

    /// [`NodeSpec::route`] from `from` to every component (indexed by
    /// component id), from one breadth-first search.
    pub fn routes_from(&self, from: CompId) -> Vec<Option<Vec<usize>>> {
        let n = self.components.len();
        let mut prev: Vec<Option<(CompId, usize)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[from.0] = true;
        queue.push_back(from);
        while let Some(c) = queue.pop_front() {
            for (li, l) in self.links.iter().enumerate() {
                let next = if l.a == c {
                    l.b
                } else if l.b == c {
                    l.a
                } else {
                    continue;
                };
                if visited[next.0] {
                    continue;
                }
                visited[next.0] = true;
                prev[next.0] = Some((c, li));
                queue.push_back(next);
            }
        }
        (0..n)
            .map(|to| {
                if !visited[to] {
                    return None;
                }
                let mut path = Vec::new();
                let mut cur = CompId(to);
                while cur != from {
                    let (p, li) = prev[cur.0].expect("BFS chain broken");
                    path.push(li);
                    cur = p;
                }
                path.reverse();
                Some(path)
            })
            .collect()
    }

    /// Whether the route between two GPUs stays on GPU/CPU fabric (i.e. does
    /// not traverse a NIC) — the condition for CUDA peer access in this
    /// model.
    pub fn gpus_can_peer(&self, g1: usize, g2: usize) -> bool {
        if g1 == g2 {
            return true;
        }
        match self.route(self.gpu(g1), self.gpu(g2)) {
            Some(route) => route
                .iter()
                .all(|&li| self.links[li].kind != LinkKind::Network),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_node() -> NodeSpec {
        // cpu0 -- cpu1 (xbus); gpu0,gpu1 on cpu0 (nvlink, plus direct
        // gpu0-gpu1); gpu2 on cpu1; nic on cpu0
        let mut n = NodeSpec::new("toy");
        let c0 = n.add_cpu();
        let c1 = n.add_cpu();
        let g0 = n.add_gpu();
        let g1 = n.add_gpu();
        let g2 = n.add_gpu();
        let nic = n.add_nic();
        let us = SimDuration::from_micros;
        n.link(c0, c1, LinkKind::XBus, 64e9, us(1));
        n.link(g0, c0, LinkKind::NvLink, 50e9, us(1));
        n.link(g1, c0, LinkKind::NvLink, 50e9, us(1));
        n.link(g0, g1, LinkKind::NvLink, 50e9, us(1));
        n.link(g2, c1, LinkKind::NvLink, 50e9, us(1));
        n.link(nic, c0, LinkKind::Pcie, 25e9, us(1));
        n
    }

    #[test]
    fn direct_link_beats_two_hop() {
        let n = toy_node();
        let r = n.route(n.gpu(0), n.gpu(1)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(n.links[r[0]].kind, LinkKind::NvLink);
    }

    #[test]
    fn cross_socket_route_goes_via_xbus() {
        let n = toy_node();
        let r = n.route(n.gpu(0), n.gpu(2)).unwrap();
        assert_eq!(r.len(), 3); // gpu0->cpu0->cpu1->gpu2
        assert!(r.iter().any(|&li| n.links[li].kind == LinkKind::XBus));
    }

    #[test]
    fn self_route_is_empty() {
        let n = toy_node();
        assert_eq!(n.route(n.gpu(1), n.gpu(1)).unwrap().len(), 0);
    }

    #[test]
    fn disconnected_component_has_no_route() {
        let mut n = toy_node();
        let lonely = n.add_gpu();
        assert!(n.route(n.gpu(0), lonely).is_none());
        assert!(!n.gpus_can_peer(0, 3));
    }

    #[test]
    fn gpu_socket_assignment() {
        let n = toy_node();
        assert_eq!(n.gpu_socket(0), 0);
        assert_eq!(n.gpu_socket(1), 0);
        assert_eq!(n.gpu_socket(2), 1);
    }

    #[test]
    fn peer_access_on_fabric() {
        let n = toy_node();
        assert!(n.gpus_can_peer(0, 1));
        assert!(n.gpus_can_peer(0, 2)); // via X-Bus, still peer-capable
        assert!(n.gpus_can_peer(2, 2));
    }

    #[test]
    fn counts_and_accessors() {
        let n = toy_node();
        assert_eq!(n.num_cpus(), 2);
        assert_eq!(n.num_gpus(), 3);
        assert_eq!(n.num_nics(), 1);
        assert_eq!(n.name(), "toy");
        assert!(matches!(n.components[n.gpu(2).0], Component::Gpu(2)));
    }
}
