//! The simulated multi-GPU machine: device registry, memory allocation,
//! streams, and peer-access management.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use detsim::{FifoId, Kernel, LinkId, SimCtx, Slab};
use topo::{ClusterSpec, Fabric, NodeDiscovery};

use crate::buffer::{Buffer, Placement};
use crate::config::{DataMode, GpuCostModel};
use crate::error::GpuError;
use crate::ops::Op;

/// Handle to a CUDA-like stream: an in-order queue of device operations.
/// Copyable; valid for the machine that created it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stream(pub(crate) usize);

pub(crate) struct StreamInfo {
    pub device: usize,
    pub fifo: FifoId,
    pub track: detsim::trace::TrackId,
}

struct DeviceState {
    /// Flow link modeling the device's kernel/memory engine: concurrent
    /// kernels share its (pack) bandwidth.
    engine: LinkId,
    allocated: Cell<u64>,
    /// Runtime override of [`GpuCostModel::device_mem_limit`] for this
    /// device — the fault-injection hook for mid-run memory shrink (a
    /// device "coming back sick" with less usable HBM). `None` means the
    /// configured limit applies.
    mem_limit: Cell<Option<u64>>,
}

pub(crate) struct MachineInner {
    pub fabric: Fabric,
    pub discovery: NodeDiscovery,
    pub cfg: GpuCostModel,
    pub mode: DataMode,
    devices: Vec<DeviceState>,
    pub(crate) streams: RefCell<Vec<StreamInfo>>,
    /// Stream-registry indices per device (default stream first), so
    /// per-device lookups don't scan the whole registry.
    streams_by_device: RefCell<Vec<Vec<usize>>>,
    peer_enabled: RefCell<HashSet<(usize, usize)>>,
    /// In-flight memcpys and kernels (see [`Op`]).
    pub(crate) ops: RefCell<Slab<Op>>,
}

/// The simulated machine: a cluster of multi-GPU nodes with CUDA-like
/// semantics. Cheaply cloneable handle; share it across the simulated
/// ranks of its world (it is `!Send`, like the world).
#[derive(Clone)]
pub struct GpuMachine {
    pub(crate) inner: Rc<MachineInner>,
}

impl GpuMachine {
    /// Build the machine inside `kernel` from a cluster description.
    pub fn new(
        kernel: &mut Kernel,
        cluster: ClusterSpec,
        cfg: GpuCostModel,
        mode: DataMode,
    ) -> Self {
        let discovery = NodeDiscovery::discover(&cluster.node);
        let gpus_per_node = cluster.node.num_gpus();
        let num_nodes = cluster.num_nodes;
        let fabric = Fabric::build(kernel, cluster);
        let mut devices = Vec::with_capacity(num_nodes * gpus_per_node);
        let mut streams = Vec::with_capacity(num_nodes * gpus_per_node);
        let mut streams_by_device = Vec::with_capacity(num_nodes * gpus_per_node);
        for node in 0..num_nodes {
            for g in 0..gpus_per_node {
                let engine = kernel.add_link(
                    format!("n{node}.g{g}.engine"),
                    cfg.pack_bandwidth,
                    cfg.kernel_launch_latency,
                );
                devices.push(DeviceState {
                    engine,
                    allocated: Cell::new(0),
                    mem_limit: Cell::new(None),
                });
                // Default stream: registry slot == global device id.
                let fifo = kernel.add_fifo(format!("n{node}.g{g}.s0"), 1);
                let track = kernel.trace.add_track(format!("n{node}.g{g} default"));
                streams_by_device.push(vec![streams.len()]);
                streams.push(StreamInfo {
                    device: node * gpus_per_node + g,
                    fifo,
                    track,
                });
            }
        }
        GpuMachine {
            inner: Rc::new(MachineInner {
                fabric,
                discovery,
                cfg,
                mode,
                devices,
                streams: RefCell::new(streams),
                streams_by_device: RefCell::new(streams_by_device),
                peer_enabled: RefCell::new(HashSet::new()),
                ops: RefCell::new(Slab::new()),
            }),
        }
    }

    /// Number of GPUs in the whole machine.
    pub fn num_devices(&self) -> usize {
        self.inner.devices.len()
    }

    /// GPUs per node.
    pub fn gpus_per_node(&self) -> usize {
        self.inner.fabric.node_spec().num_gpus()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.fabric.spec().num_nodes
    }

    /// Node of a global device id.
    pub fn node_of(&self, device: usize) -> usize {
        device / self.gpus_per_node()
    }

    /// Node-local GPU index of a global device id.
    pub fn local_of(&self, device: usize) -> usize {
        device % self.gpus_per_node()
    }

    /// Global device id from (node, local GPU).
    pub fn device_at(&self, node: usize, local: usize) -> usize {
        assert!(local < self.gpus_per_node());
        node * self.gpus_per_node() + local
    }

    /// Topology discovery results (NVML analogue).
    pub fn discovery(&self) -> &NodeDiscovery {
        &self.inner.discovery
    }

    /// The instantiated link fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &GpuCostModel {
        &self.inner.cfg
    }

    /// Data mode in effect.
    pub fn data_mode(&self) -> DataMode {
        self.inner.mode
    }

    /// Flow link modeling `device`'s kernel/memory engine. Kernels, packs,
    /// and same-device copies ride this link, so scaling its capacity (see
    /// [`GpuMachine::set_device_speed_factor`]) models a straggler device.
    pub fn engine_link(&self, device: usize) -> LinkId {
        self.inner.devices[device].engine
    }

    /// Scale a device's engine throughput to `factor` x its configured
    /// [`GpuCostModel::pack_bandwidth`] — the fault-injection hook for
    /// straggler GPUs. `factor` must be positive and finite; `1.0` restores
    /// nominal speed. In-flight work on the engine is re-rated by the flow
    /// network. The engine link's capacity is absolute, so repeated calls
    /// do not compound.
    pub fn set_device_speed_factor(&self, kernel: &mut Kernel, device: usize, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "device speed factor must be positive and finite"
        );
        let engine = self.inner.devices[device].engine;
        kernel.set_link_capacity(engine, self.inner.cfg.pack_bandwidth * factor);
    }

    // ----- memory management ---------------------------------------------

    /// Allocate device memory on `device` (global id). Fails when the
    /// device's memory limit would be exceeded.
    pub fn alloc_device(&self, ctx: &SimCtx, device: usize, len: u64) -> Result<Buffer, GpuError> {
        ctx.delay(self.inner.cfg.alloc_overhead);
        self.alloc_device_untimed(device, len)
    }

    /// As [`Self::alloc_device`] without charging setup time (tests,
    /// initialization outside the timed region).
    pub fn alloc_device_untimed(&self, device: usize, len: u64) -> Result<Buffer, GpuError> {
        let limit = self.device_mem_limit(device);
        let used = &self.inner.devices[device].allocated;
        if used.get() + len > limit {
            return Err(GpuError::OutOfMemory {
                device,
                requested: len,
                in_use: used.get(),
                limit,
            });
        }
        used.set(used.get() + len);
        Ok(Buffer::new(
            Placement::Device(device),
            len,
            self.inner.mode == DataMode::Full,
        ))
    }

    /// Release a device allocation's accounting. (Data is freed when the
    /// last handle drops.)
    pub fn free_device(&self, buf: &Buffer) {
        if let Placement::Device(d) = buf.placement {
            let used = &self.inner.devices[d].allocated;
            used.set(used.get().saturating_sub(buf.len));
        }
    }

    /// Device memory currently allocated on `device`.
    pub fn device_mem_used(&self, device: usize) -> u64 {
        self.inner.devices[device].allocated.get()
    }

    /// Effective memory limit of `device`: the runtime override if one is
    /// set, else the configured [`GpuCostModel::device_mem_limit`].
    pub fn device_mem_limit(&self, device: usize) -> u64 {
        self.inner.devices[device]
            .mem_limit
            .get()
            .unwrap_or(self.inner.cfg.device_mem_limit)
    }

    /// Override (or with `None`, clear back to configured) the memory
    /// limit of `device` — the fault-injection hook for mid-run memory
    /// shrink. Allocations already accounted are untouched; only future
    /// [`Self::alloc_device`] calls see the new limit, mirroring a driver
    /// that fenced off bad pages. The override is absolute, so repeated
    /// shrinks do not compound.
    pub fn set_device_mem_limit(&self, device: usize, limit: Option<u64>) {
        self.inner.devices[device].mem_limit.set(limit);
    }

    /// Allocate pinned host memory on the socket nearest to `device`
    /// (where its staging buffers live).
    pub fn alloc_host_for(&self, ctx: &SimCtx, device: usize, len: u64) -> Buffer {
        ctx.delay(self.inner.cfg.alloc_overhead);
        self.alloc_host_untimed(
            self.node_of(device),
            self.inner
                .fabric
                .node_spec()
                .gpu_socket(self.local_of(device)),
            len,
        )
    }

    /// Allocate pinned host memory at an explicit (node, socket).
    pub fn alloc_host_untimed(&self, node: usize, socket: usize, len: u64) -> Buffer {
        Buffer::new(
            Placement::Host(node, socket),
            len,
            self.inner.mode == DataMode::Full,
        )
    }

    // ----- streams --------------------------------------------------------

    /// The device's default stream (used implicitly by the CUDA-aware MPI
    /// pathology model).
    pub fn default_stream(&self, device: usize) -> Stream {
        Stream(device)
    }

    /// Create a new stream on `device`.
    pub fn create_stream(&self, k: &mut Kernel, device: usize) -> Stream {
        let mut streams = self.inner.streams.borrow_mut();
        let mut by_dev = self.inner.streams_by_device.borrow_mut();
        let idx = streams.len();
        let node = self.node_of(device);
        let local = self.local_of(device);
        let per_dev = by_dev[device].len();
        let fifo = k.add_fifo(format!("n{node}.g{local}.s{per_dev}"), 1);
        let track = k
            .trace
            .add_track(format!("n{node}.g{local} stream{per_dev}"));
        by_dev[device].push(idx);
        streams.push(StreamInfo {
            device,
            fifo,
            track,
        });
        Stream(idx)
    }

    /// Device owning a stream.
    pub fn stream_device(&self, s: Stream) -> usize {
        self.inner.streams.borrow()[s.0].device
    }

    /// The FIFO resource backing a stream (used by the simulated MPI's
    /// CUDA-aware transport to model default-stream serialization).
    pub fn stream_fifo(&self, s: Stream) -> FifoId {
        self.inner.streams.borrow()[s.0].fifo
    }

    /// The trace track of a stream.
    pub fn stream_track(&self, s: Stream) -> detsim::trace::TrackId {
        self.inner.streams.borrow()[s.0].track
    }

    /// All streams currently on `device` (default first).
    pub fn device_streams(&self, device: usize) -> Vec<Stream> {
        self.inner.streams_by_device.borrow()[device]
            .iter()
            .map(|&i| Stream(i))
            .collect()
    }

    // ----- peer access ----------------------------------------------------

    /// `cudaDeviceCanAccessPeer`: whether two (same-node) devices can be
    /// peers.
    pub fn can_access_peer(&self, a: usize, b: usize) -> bool {
        if self.node_of(a) != self.node_of(b) {
            return false;
        }
        self.inner
            .discovery
            .can_peer(self.local_of(a), self.local_of(b))
    }

    /// `cudaDeviceEnablePeerAccess`: enable direct copies between two
    /// devices. Idempotent.
    pub fn enable_peer_access(&self, a: usize, b: usize) -> Result<(), GpuError> {
        if !self.can_access_peer(a, b) {
            return Err(GpuError::PeerAccessUnavailable { a, b });
        }
        let mut set = self.inner.peer_enabled.borrow_mut();
        set.insert((a, b));
        set.insert((b, a));
        Ok(())
    }

    /// Whether peer access has been enabled for a pair.
    pub fn peer_enabled(&self, a: usize, b: usize) -> bool {
        a == b || self.inner.peer_enabled.borrow().contains(&(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::summit::summit_cluster;

    fn machine(nodes: usize) -> (Kernel, GpuMachine) {
        let mut k = Kernel::new();
        let m = GpuMachine::new(
            &mut k,
            summit_cluster(nodes),
            GpuCostModel::default(),
            DataMode::Full,
        );
        (k, m)
    }

    #[test]
    fn device_indexing() {
        let (_k, m) = machine(3);
        assert_eq!(m.num_devices(), 18);
        assert_eq!(m.gpus_per_node(), 6);
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.node_of(13), 2);
        assert_eq!(m.local_of(13), 1);
        assert_eq!(m.device_at(2, 1), 13);
    }

    #[test]
    fn allocation_respects_memory_limit() {
        let (_k, m) = machine(1);
        let b = m.alloc_device_untimed(0, 10 << 30).unwrap();
        assert_eq!(m.device_mem_used(0), 10 << 30);
        let err = m.alloc_device_untimed(0, 10 << 30).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { device: 0, .. }));
        m.free_device(&b);
        assert_eq!(m.device_mem_used(0), 0);
        assert!(m.alloc_device_untimed(0, 10 << 30).is_ok());
    }

    #[test]
    fn mem_limit_override_shrinks_and_restores() {
        let (_k, m) = machine(1);
        let nominal = m.device_mem_limit(3);
        let b = m.alloc_device_untimed(3, 1 << 30).unwrap();
        // Shrink below current usage: existing allocations survive, new
        // ones fail against the overridden limit.
        m.set_device_mem_limit(3, Some(1 << 20));
        assert_eq!(m.device_mem_limit(3), 1 << 20);
        assert_eq!(m.device_mem_used(3), 1 << 30);
        let err = m.alloc_device_untimed(3, 1 << 20).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { device: 3, limit, .. } if limit == 1 << 20));
        // Other devices are unaffected.
        assert!(m.alloc_device_untimed(4, 1 << 20).is_ok());
        // Clearing the override restores the configured limit.
        m.set_device_mem_limit(3, None);
        assert_eq!(m.device_mem_limit(3), nominal);
        m.free_device(&b);
        assert!(m.alloc_device_untimed(3, 1 << 20).is_ok());
    }

    #[test]
    fn virtual_mode_allocates_no_data() {
        let mut k = Kernel::new();
        let m = GpuMachine::new(
            &mut k,
            summit_cluster(1),
            GpuCostModel::default(),
            DataMode::Virtual,
        );
        let b = m.alloc_device_untimed(0, 8 << 30).unwrap();
        assert!(!b.has_data());
    }

    #[test]
    fn default_streams_exist_per_device() {
        let (_k, m) = machine(2);
        for d in 0..m.num_devices() {
            assert_eq!(m.stream_device(m.default_stream(d)), d);
        }
    }

    #[test]
    fn created_streams_attach_to_device() {
        let (mut k, m) = machine(1);
        let s1 = m.create_stream(&mut k, 4);
        let s2 = m.create_stream(&mut k, 4);
        assert_ne!(s1, s2);
        assert_eq!(m.stream_device(s1), 4);
        let streams = m.device_streams(4);
        assert_eq!(streams.len(), 3); // default + 2
        assert_eq!(streams[0], m.default_stream(4));
    }

    #[test]
    fn peer_access_same_node_only() {
        let (_k, m) = machine(2);
        assert!(m.can_access_peer(0, 5));
        assert!(!m.can_access_peer(0, 6)); // different node
        assert!(m.enable_peer_access(0, 5).is_ok());
        assert!(m.peer_enabled(0, 5));
        assert!(m.peer_enabled(5, 0));
        assert!(!m.peer_enabled(0, 1));
        assert!(m.peer_enabled(3, 3)); // self always
        assert!(m.enable_peer_access(0, 7).is_err());
    }

    #[test]
    fn host_alloc_picks_gpu_socket() {
        let (_k, m) = machine(1);
        let b = m.alloc_host_untimed(0, 1, 64);
        assert_eq!(b.placement(), Placement::Host(0, 1));
    }
}
