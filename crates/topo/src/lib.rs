//! # topo — heterogeneous node & cluster topology model
//!
//! Describes the hardware the stencil library runs on: multi-socket,
//! multi-GPU nodes with non-uniform links (NVLink triads, X-Bus SMP
//! interconnect, PCIe-attached NICs) joined by a switch. Provides
//!
//! * [`NodeSpec`] / [`ClusterSpec`] — declarative hardware descriptions with
//!   hop-count routing between components;
//! * [`Fabric`] — the machine instantiated as directed `detsim` links, with
//!   path queries for every transfer the upper layers make (peer copies,
//!   staging copies, inter-node messages, GPUDirect-style routes);
//! * [`NodeDiscovery`] — the simulated analogue of NVML topology queries:
//!   per-pair connectivity classes, nominal bandwidths, peer-access
//!   capability, and the QAP distance matrix of paper §III-B;
//! * [`summit::summit_node`] / [`summit::summit_cluster`] — the Summit
//!   preset (paper Fig. 10, Table I) — plus alternative presets
//!   ([`presets::dgx_node`], [`presets::pcie_workstation_node`]) showing
//!   the model generalizes beyond Summit.
//!
//! ## Example: discovering a Summit node's GPU connectivity
//!
//! ```
//! use topo::summit::summit_node;
//! use topo::{NodeDiscovery, P2PClass};
//!
//! let disc = NodeDiscovery::discover(&summit_node());
//! assert_eq!(disc.num_gpus(), 6);
//! // GPUs 0 and 1 share an NVLink triad; GPUs 0 and 3 sit on
//! // different sockets and talk over the X-Bus.
//! assert_eq!(disc.p2p_class(0, 1), P2PClass::NvLinkDirect);
//! assert_eq!(disc.p2p_class(0, 3), P2PClass::Sys);
//! assert!(disc.can_peer(0, 1));
//! assert!(disc.bandwidth(0, 1) > disc.bandwidth(0, 3));
//! // The QAP distance matrix of paper §III-B is 1/bandwidth.
//! let d = disc.distance_matrix();
//! assert_eq!(d.len(), 6);
//! ```

#![warn(missing_docs)]

mod cluster;
mod discover;
mod node;
pub mod presets;
pub mod summit;

pub use cluster::{ClusterSpec, Fabric, SwitchHierarchy};
pub use detsim::Path;
pub use discover::{NodeDiscovery, P2PClass, SAME_NOMINAL_BW, SYS_NOMINAL_BW};
pub use node::{CompId, Component, DuplexLink, LinkKind, NodeSpec};
