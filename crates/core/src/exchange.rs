//! The halo-exchange engine: per-pair communication plans built at setup
//! (phase 3, §III-C) and the asynchronous execution with Sender/Receiver
//! state machines (§III-D).
//!
//! Pure-CUDA methods (`Kernel`, `PeerMemcpy`, `ColocatedMemcpy` on the
//! sending side) are enqueued on streams up front and simply complete.
//! Methods mixing CUDA and MPI (`Staged`, `CudaAwareMpi`, plus the
//! receiving side of `ColocatedMemcpy`) are driven by small state machines
//! polled in a loop, so every transfer's phases overlap with everything
//! else — exactly the paper's Fig. 9 structure.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use detsim::{Completion, Kernel};
use gpusim::{Buffer, DataMode, GpuMachine, Stream, Work};
use mpisim::{Channel, ChannelRound, RankCtx, Request};

use crate::dim3::Dim3;
use crate::domain::DistributedDomain;
use crate::method::{select, Method, PairCaps};
use crate::region::{self, Region};
use crate::stats::PlanSummary;

/// A shared one-slot-per-exchange channel carrying "your data has landed"
/// completions from a colocated sender to its receiver — the simulation
/// analogue of the `cudaIpc` event handles real colocated exchange shares
/// at setup so that no MPI happens during exchanges.
#[derive(Clone)]
pub struct Mailbox(Rc<RefCell<MailboxState>>);

#[derive(Default)]
struct MailboxState {
    items: VecDeque<Completion>,
    waiters: VecDeque<Completion>,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox(Rc::new(RefCell::new(MailboxState::default())))
    }

    fn put(&self, k: &mut Kernel, c: Completion) {
        let mut st = self.0.borrow_mut();
        st.items.push_back(c);
        // Complete *every* queued waiter, so no receiver can be stranded
        // behind a waiter nobody watches any more.
        let waiters = std::mem::take(&mut st.waiters);
        drop(st);
        for w in waiters {
            k.complete(&w);
        }
    }

    /// Take a landed-data completion, or a completion to wait on before
    /// retrying.
    fn try_take(&self, k: &mut Kernel) -> Result<Completion, Completion> {
        let mut st = self.0.borrow_mut();
        match st.items.pop_front() {
            Some(c) => Ok(c),
            None => {
                let w = k.completion();
                st.waiters.push_back(w.clone());
                Err(w)
            }
        }
    }
}

/// Setup payload a colocated receiver sends its sender: the IPC handle of
/// its receive buffer and the event mailbox.
struct ColoShare {
    handle: gpusim::IpcMemHandle,
    mailbox: Mailbox,
}

/// One outgoing transfer (this rank's subdomain → a neighbor).
pub(crate) struct SendPlan {
    pub method: Method,
    pub stream: Stream,
    pub dst_rank: usize,
    pub tag: u64,
    pub bytes: u64,
    pub arrays: Vec<Buffer>,
    pub dims: Dim3,
    pub elem: usize,
    pub src_region: Region,
    /// `Kernel` method: the destination halo region in the *same* array.
    pub self_dst_region: Region,
    pub pack_buf: Option<Buffer>,
    pub host_buf: Option<Buffer>,
    /// `ColocatedMemcpy`: the receiver's buffer, IPC-opened at setup.
    pub remote_buf: Option<Buffer>,
    /// `ColocatedMemcpy`: landed-data notification channel.
    pub mailbox: Option<Mailbox>,
    /// `PeerMemcpy`: index of the matching receive plan in this rank.
    pub peer_recv: Option<usize>,
    /// `PersistentStaged`/`PartitionedStaged`: the channel end set up once
    /// at plan-build time (`*_init`), started every exchange.
    pub chan: Option<Channel>,
}

/// One segment of a consolidated message: the pack/unpack geometry for one
/// original direction within the combined buffer.
pub(crate) struct Segment {
    pub arrays: Vec<Buffer>,
    pub dims: Dim3,
    pub elem: usize,
    pub region: Region,
    /// Byte offset of this segment inside the combined message.
    pub offset: u64,
    pub bytes: u64,
    /// Receive side: the per-segment device staging buffer.
    pub dev_buf: Option<Buffer>,
    /// Receive side: stream on the segment's destination device.
    pub stream: Option<Stream>,
}

/// Several staged transfers from one subdomain to one rank, consolidated
/// into a single message (paper §VI: "fewer, larger MPI messages tend to
/// achieve better performance").
pub(crate) struct GroupedSendPlan {
    pub stream: Stream,
    pub dst_rank: usize,
    pub tag: u64,
    pub bytes: u64,
    pub segments: Vec<Segment>,
    pub pack_buf: Buffer,
    pub host_buf: Buffer,
}

/// Receive side of a consolidated message: one `Irecv`, then per-segment
/// H2D + unpack fan-out (segments may land on different GPUs of this rank).
pub(crate) struct GroupedRecvPlan {
    pub src_rank: usize,
    pub tag: u64,
    pub bytes: u64,
    pub segments: Vec<Segment>,
    pub host_buf: Buffer,
}

/// One incoming transfer (a neighbor → this rank's subdomain).
pub(crate) struct RecvPlan {
    pub method: Method,
    pub stream: Stream,
    pub src_rank: usize,
    pub tag: u64,
    pub bytes: u64,
    pub arrays: Vec<Buffer>,
    pub dims: Dim3,
    pub elem: usize,
    pub dst_region: Region,
    pub recv_dev_buf: Option<Buffer>,
    pub host_buf: Option<Buffer>,
    pub mailbox: Option<Mailbox>,
    /// `PersistentStaged`/`PartitionedStaged`: the receive channel end.
    pub chan: Option<Channel>,
}

/// How many partitions a `PartitionedStaged` message of `bytes` uses: one
/// per 8 KiB up to 4, so small messages degrade gracefully to a single
/// partition (≈ persistent) instead of paying per-partition overhead for
/// nothing.
pub(crate) fn partition_count(bytes: u64) -> usize {
    (bytes / 8192).clamp(1, 4) as usize
}

/// Byte range of partition `part` of `parts` over a `bytes`-long message —
/// the same equal-chunk split `mpisim` uses on the wire.
fn partition_range(bytes: u64, parts: usize, part: usize) -> (u64, u64) {
    let chunk = bytes.div_ceil(parts as u64);
    let off = part as u64 * chunk;
    (off, chunk.min(bytes - off))
}

/// Host-side pack/unpack work exists only in full-data mode: virtual-mode
/// buffers hold no bytes, so the closure (and the array list it clones)
/// would be allocated for nothing.
fn full_data(m: &GpuMachine) -> bool {
    m.data_mode() == DataMode::Full
}

fn make_pack_work(
    m: &GpuMachine,
    arrays: &[Buffer],
    dims: Dim3,
    elem: usize,
    reg: Region,
    out: &Buffer,
) -> Option<Work> {
    if !full_data(m) {
        return None;
    }
    let (arrays, out) = (arrays.to_vec(), out.clone());
    Some(Box::new(move || {
        if !out.has_data() {
            return;
        }
        let mut off = 0usize;
        for a in &arrays {
            a.with_data(|src| {
                out.with_data(|dst| {
                    off += region::pack(src, dims, elem, reg, dst, off);
                })
            });
        }
    }))
}

fn make_unpack_work(
    m: &GpuMachine,
    arrays: &[Buffer],
    dims: Dim3,
    elem: usize,
    reg: Region,
    inp: &Buffer,
) -> Option<Work> {
    if !full_data(m) {
        return None;
    }
    let (arrays, inp) = (arrays.to_vec(), inp.clone());
    Some(Box::new(move || {
        if !inp.has_data() {
            return;
        }
        let mut off = 0usize;
        for a in &arrays {
            inp.with_data(|src| {
                a.with_data(|dst| {
                    off += region::unpack(src, off, dst, dims, elem, reg);
                })
            });
        }
    }))
}

fn make_group_pack_work(m: &GpuMachine, segments: &[Segment], out: &Buffer) -> Option<Work> {
    if !full_data(m) {
        return None;
    }
    let segs: Vec<(Vec<Buffer>, Dim3, usize, Region, u64)> = segments
        .iter()
        .map(|s| (s.arrays.clone(), s.dims, s.elem, s.region, s.offset))
        .collect();
    let out = out.clone();
    Some(Box::new(move || {
        if !out.has_data() {
            return;
        }
        for (arrays, dims, elem, reg, base) in &segs {
            let mut off = *base as usize;
            for a in arrays {
                a.with_data(|src| {
                    out.with_data(|dst| {
                        off += region::pack(src, *dims, *elem, *reg, dst, off);
                    })
                });
            }
        }
    }))
}

fn make_self_exchange_work(
    m: &GpuMachine,
    arrays: &[Buffer],
    dims: Dim3,
    elem: usize,
    from: Region,
    to: Region,
) -> Option<Work> {
    if !full_data(m) {
        return None;
    }
    let arrays = arrays.to_vec();
    Some(Box::new(move || {
        for a in &arrays {
            if !a.has_data() {
                return;
            }
            a.with_data(|arr| region::copy_region(arr, dims, elem, from, to));
        }
    }))
}

/// Build the specialized communication plan for this rank (setup phase 3).
/// Collective: performs the colocated IPC handshake and ends with a
/// barrier.
pub(crate) fn build_plans(
    ctx: &RankCtx,
    dom_part: &crate::partition::Partition,
    placements: &[crate::placement::Placement],
    locals: &[crate::local::LocalDomain],
    spec: &crate::domain::DomainSpec,
) -> (
    Vec<SendPlan>,
    Vec<RecvPlan>,
    Vec<GroupedSendPlan>,
    Vec<GroupedRecvPlan>,
    PlanSummary,
) {
    let machine = ctx.machine().clone();
    let rpn = ctx.ranks_per_node();
    let gpr = machine.gpus_per_node() / rpn;
    let my_rank = ctx.rank();

    let device_of = |n: crate::dim3::Idx3, g: crate::dim3::Idx3| -> usize {
        let node = dom_part.node_linear(n);
        let s = dom_part.gpu_linear(g);
        let local_gpu = placements[node].gpu_for_subdomain[s];
        machine.device_at(node, local_gpu)
    };
    let rank_of_device =
        |d: usize| -> usize { machine.node_of(d) * rpn + machine.local_of(d) / gpr };

    let dirs = spec.neighborhood.directions();
    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    let mut summary = PlanSummary::default();

    for local in locals {
        let ext = local.interior.extent;
        let sid = dom_part.subdomain_id(local.node_idx, local.gpu_idx) as u64;
        for &d in &dirs {
            // ---- outgoing: local sends toward d (None on an open edge) ---
            if let Some((nn, gg)) =
                dom_part.neighbor_bc(local.node_idx, local.gpu_idx, d, spec.boundary)
            {
                let dst_dev = device_of(nn, gg);
                let dst_rank = rank_of_device(dst_dev);
                let e = spec.radius.halo_extent(ext, d);
                let bytes = e[0] * e[1] * e[2] * spec.quantities as u64 * spec.elem_size as u64;
                if bytes > 0 {
                    let caps = PairCaps {
                        same_device: dst_dev == local.device,
                        same_rank: dst_rank == my_rank,
                        same_node: machine.node_of(dst_dev) == machine.node_of(local.device),
                        peer_access: machine.can_access_peer(local.device, dst_dev)
                            || dst_dev == local.device,
                        cuda_aware: ctx.cuda_aware(),
                        persistent: ctx.mpi_persistent(),
                        partitioned: ctx.mpi_partitioned(),
                    };
                    let method = select(spec.methods, caps);
                    if matches!(method, Method::PeerMemcpy | Method::ColocatedMemcpy)
                        && dst_dev != local.device
                    {
                        machine
                            .enable_peer_access(local.device, dst_dev)
                            .expect("peer access checked in caps");
                    }
                    let stream = ctx
                        .sim()
                        .with_kernel(|k| machine.create_stream(k, local.device));
                    let pack_buf = (method != Method::Kernel).then(|| {
                        machine
                            .alloc_device_untimed(local.device, bytes)
                            .expect("pack buffer")
                    });
                    let host_buf = matches!(
                        method,
                        Method::Staged | Method::PersistentStaged | Method::PartitionedStaged
                    )
                    .then(|| {
                        machine.alloc_host_untimed(
                            machine.node_of(local.device),
                            machine
                                .fabric()
                                .node_spec()
                                .gpu_socket(machine.local_of(local.device)),
                            bytes,
                        )
                    });
                    summary.record(method, bytes);
                    sends.push(SendPlan {
                        method,
                        stream,
                        dst_rank,
                        tag: sid * 32 + d.index() as u64,
                        bytes,
                        arrays: local.arrays.clone(),
                        dims: local.dims,
                        elem: spec.elem_size,
                        src_region: region::src_region(ext, &spec.radius, d),
                        self_dst_region: region::dst_region(ext, &spec.radius, d),
                        pack_buf,
                        host_buf,
                        remote_buf: None,
                        mailbox: None,
                        peer_recv: None,
                        chan: None,
                    });
                }
            }

            // ---- incoming: neighbor at -d sends toward d to local --------
            let Some((sn, sg)) =
                dom_part.neighbor_bc(local.node_idx, local.gpu_idx, d.opposite(), spec.boundary)
            else {
                continue; // open boundary: outward halo stays untouched
            };
            let src_dev = device_of(sn, sg);
            let src_rank = rank_of_device(src_dev);
            let src_ext = dom_part.gpu_box(sn, sg).extent;
            let se = spec.radius.halo_extent(src_ext, d);
            let rbytes = se[0] * se[1] * se[2] * spec.quantities as u64 * spec.elem_size as u64;
            if rbytes > 0 {
                let dst_reg = region::dst_region(ext, &spec.radius, d);
                debug_assert_eq!(
                    dst_reg.volume() * spec.quantities as u64 * spec.elem_size as u64,
                    rbytes,
                    "sender/receiver disagree on message size"
                );
                let caps = PairCaps {
                    same_device: src_dev == local.device,
                    same_rank: src_rank == my_rank,
                    same_node: machine.node_of(src_dev) == machine.node_of(local.device),
                    peer_access: machine.can_access_peer(src_dev, local.device)
                        || src_dev == local.device,
                    cuda_aware: ctx.cuda_aware(),
                    persistent: ctx.mpi_persistent(),
                    partitioned: ctx.mpi_partitioned(),
                };
                let method = select(spec.methods, caps);
                let src_sid = dom_part.subdomain_id(sn, sg) as u64;
                let stream = ctx
                    .sim()
                    .with_kernel(|k| machine.create_stream(k, local.device));
                let recv_dev_buf = (method != Method::Kernel).then(|| {
                    machine
                        .alloc_device_untimed(local.device, rbytes)
                        .expect("recv buffer")
                });
                let host_buf = matches!(
                    method,
                    Method::Staged | Method::PersistentStaged | Method::PartitionedStaged
                )
                .then(|| {
                    machine.alloc_host_untimed(
                        machine.node_of(local.device),
                        machine
                            .fabric()
                            .node_spec()
                            .gpu_socket(machine.local_of(local.device)),
                        rbytes,
                    )
                });
                let mailbox = (method == Method::ColocatedMemcpy).then(Mailbox::new);
                recvs.push(RecvPlan {
                    method,
                    stream,
                    src_rank,
                    tag: src_sid * 32 + d.index() as u64,
                    bytes: rbytes,
                    arrays: local.arrays.clone(),
                    dims: local.dims,
                    elem: spec.elem_size,
                    dst_region: dst_reg,
                    recv_dev_buf,
                    host_buf,
                    mailbox,
                    chan: None,
                });
            }
        }
    }

    // Colocated IPC handshake: receivers share (handle, mailbox), senders
    // open the handle. One-time, during setup — no MPI during exchanges.
    for rp in &recvs {
        if rp.method == Method::ColocatedMemcpy {
            ctx.send_obj(
                rp.src_rank,
                rp.tag,
                ColoShare {
                    handle: ctx
                        .machine()
                        .ipc_get_handle(rp.recv_dev_buf.as_ref().unwrap()),
                    mailbox: rp.mailbox.clone().unwrap(),
                },
            );
        }
    }
    for sp in &mut sends {
        if sp.method == Method::ColocatedMemcpy {
            let share: ColoShare = ctx.recv_obj(sp.dst_rank, sp.tag);
            sp.remote_buf = Some(ctx.machine().ipc_open(ctx.sim(), &share.handle));
            sp.mailbox = Some(share.mailbox);
        }
    }
    // Optional consolidation (paper §VI): merge every set of >1 staged
    // transfers sharing (source subdomain, destination rank) into a single
    // message. Both sides compute the same groups from the same partition
    // and method-selection math, ordered by tag, so offsets agree without
    // extra handshaking.
    let mut grouped_sends: Vec<GroupedSendPlan> = Vec::new();
    let mut grouped_recvs: Vec<GroupedRecvPlan> = Vec::new();
    if spec.consolidate {
        use std::collections::BTreeMap;
        // --- sends: group staged by (src subdomain, dst rank) -------------
        let mut keep = Vec::new();
        let mut groups: BTreeMap<(u64, usize), Vec<SendPlan>> = BTreeMap::new();
        for sp in sends {
            if sp.method == Method::Staged {
                groups
                    .entry((sp.tag / 32, sp.dst_rank))
                    .or_default()
                    .push(sp);
            } else {
                keep.push(sp);
            }
        }
        for ((sid, dst_rank), mut members) in groups {
            if members.len() == 1 {
                keep.push(members.pop().unwrap());
                continue;
            }
            members.sort_by_key(|p| p.tag);
            // all members originate on one source device
            let device = machine.stream_device(members[0].stream);
            let total: u64 = members.iter().map(|p| p.bytes).sum();
            let pack_buf = machine
                .alloc_device_untimed(device, total)
                .expect("consolidated pack buffer");
            let host_buf = machine.alloc_host_untimed(
                machine.node_of(device),
                machine
                    .fabric()
                    .node_spec()
                    .gpu_socket(machine.local_of(device)),
                total,
            );
            let mut off = 0;
            let segments: Vec<Segment> = members
                .iter()
                .map(|p| {
                    let seg = Segment {
                        arrays: p.arrays.clone(),
                        dims: p.dims,
                        elem: p.elem,
                        region: p.src_region,
                        offset: off,
                        bytes: p.bytes,
                        dev_buf: None,
                        stream: None,
                    };
                    off += p.bytes;
                    seg
                })
                .collect();
            grouped_sends.push(GroupedSendPlan {
                stream: members[0].stream,
                dst_rank,
                tag: sid * 32 + 26, // reserved "consolidated" direction slot
                bytes: total,
                segments,
                pack_buf,
                host_buf,
            });
        }
        sends = keep;
        // --- receives: the mirror grouping by (src subdomain, src rank) ---
        let mut keep = Vec::new();
        let mut groups: BTreeMap<(u64, usize), Vec<RecvPlan>> = BTreeMap::new();
        for rp in recvs {
            if rp.method == Method::Staged {
                groups
                    .entry((rp.tag / 32, rp.src_rank))
                    .or_default()
                    .push(rp);
            } else {
                keep.push(rp);
            }
        }
        for ((sid, src_rank), mut members) in groups {
            if members.len() == 1 {
                keep.push(members.pop().unwrap());
                continue;
            }
            members.sort_by_key(|p| p.tag);
            let total: u64 = members.iter().map(|p| p.bytes).sum();
            // the host landing buffer lives on the first segment's socket
            let dev0 = machine.stream_device(members[0].stream);
            let host_buf = machine.alloc_host_untimed(
                machine.node_of(dev0),
                machine
                    .fabric()
                    .node_spec()
                    .gpu_socket(machine.local_of(dev0)),
                total,
            );
            let mut off = 0;
            let segments: Vec<Segment> = members
                .iter()
                .map(|p| {
                    let seg = Segment {
                        arrays: p.arrays.clone(),
                        dims: p.dims,
                        elem: p.elem,
                        region: p.dst_region,
                        offset: off,
                        bytes: p.bytes,
                        dev_buf: p.recv_dev_buf.clone(),
                        stream: Some(p.stream),
                    };
                    off += p.bytes;
                    seg
                })
                .collect();
            grouped_recvs.push(GroupedRecvPlan {
                src_rank,
                tag: sid * 32 + 26,
                bytes: total,
                segments,
                host_buf,
            });
        }
        recvs = keep;
    }

    // Persistent/partitioned channel setup (`*_init`): register both ends
    // under the plan's (rank pair, tag) key. Pays the full per-call MPI
    // overhead once, here — every exchange then pays only the cheap start.
    // The closing barrier below guarantees both ends exist before the
    // first round starts.
    for sp in &mut sends {
        match sp.method {
            Method::PersistentStaged => {
                let host = sp.host_buf.as_ref().unwrap();
                sp.chan = Some(ctx.send_init(host, 0, sp.bytes, sp.dst_rank, sp.tag));
            }
            Method::PartitionedStaged => {
                let host = sp.host_buf.as_ref().unwrap();
                let parts = partition_count(sp.bytes);
                sp.chan = Some(ctx.psend_init(host, 0, sp.bytes, sp.dst_rank, sp.tag, parts));
            }
            _ => {}
        }
    }
    for rp in &mut recvs {
        match rp.method {
            Method::PersistentStaged => {
                let host = rp.host_buf.as_ref().unwrap();
                rp.chan = Some(ctx.recv_init(host, 0, rp.bytes, rp.src_rank, rp.tag));
            }
            Method::PartitionedStaged => {
                let host = rp.host_buf.as_ref().unwrap();
                let parts = partition_count(rp.bytes);
                rp.chan = Some(ctx.precv_init(host, 0, rp.bytes, rp.src_rank, rp.tag, parts));
            }
            _ => {}
        }
    }

    // Link each peer send to its same-rank receive plan. This must happen
    // after consolidation: filtering staged plans out of `recvs` shifts the
    // indices of the surviving PeerMemcpy plans.
    for sp in &mut sends {
        if sp.method == Method::PeerMemcpy {
            let idx = recvs
                .iter()
                .position(|rp| rp.tag == sp.tag && rp.method == Method::PeerMemcpy)
                .expect("peer send without matching local receive plan");
            assert_eq!(
                recvs[idx].bytes, sp.bytes,
                "peer send/recv plans disagree on message size"
            );
            sp.peer_recv = Some(idx);
        }
    }
    ctx.barrier();
    (sends, recvs, grouped_sends, grouped_recvs, summary)
}

/// A state machine driving one CUDA+MPI transfer through its phases.
enum Machine {
    StagedSend {
        plan: usize,
        staged_ev: Completion,
        req: Option<Request>,
    },
    StagedRecv {
        plan: usize,
        req: Request,
        unpack_ev: Option<Completion>,
    },
    CaSend {
        plan: usize,
        pack_ev: Completion,
        req: Option<Request>,
    },
    CaRecv {
        plan: usize,
        req: Request,
        unpack_ev: Option<Completion>,
    },
    ColoRecv {
        plan: usize,
        unpack_ev: Option<Completion>,
    },
    GroupedSend {
        plan: usize,
        staged_ev: Completion,
        req: Option<Request>,
    },
    GroupedRecv {
        plan: usize,
        req: Request,
        unpack_all: Option<Completion>,
    },
    /// `PersistentStaged` send: pack → D2H as staged, then `start` on the
    /// channel instead of a fresh `Isend`.
    PersistentSend {
        plan: usize,
        staged_ev: Completion,
        round: Option<Request>,
    },
    /// `PersistentStaged` receive: the round was started up front
    /// (receivers first); H2D + unpack when it lands.
    PersistentRecv {
        plan: usize,
        round: Request,
        unpack_ev: Option<Completion>,
    },
    /// `PartitionedStaged` send: the packed message stages D2H in
    /// partition-sized chunks; each chunk's `pready` fires as its copy
    /// lands, so early partitions fly while later ones still stage.
    PartitionedSend {
        plan: usize,
        d2h_evs: Vec<Completion>,
        next_ready: usize,
        round: Request,
    },
    /// `PartitionedStaged` receive: partitions H2D individually as they
    /// arrive (`MPI_Parrived`), one unpack after the last.
    PartitionedRecv {
        plan: usize,
        round: ChannelRound,
        next_arrived: usize,
        unpack_ev: Option<Completion>,
    },
}

impl Machine {
    fn method(&self) -> Method {
        match self {
            Machine::StagedSend { .. } | Machine::StagedRecv { .. } => Method::Staged,
            Machine::CaSend { .. } | Machine::CaRecv { .. } => Method::CudaAwareMpi,
            Machine::ColoRecv { .. } => Method::ColocatedMemcpy,
            Machine::GroupedSend { .. } | Machine::GroupedRecv { .. } => Method::Staged,
            Machine::PersistentSend { .. } | Machine::PersistentRecv { .. } => {
                Method::PersistentStaged
            }
            Machine::PartitionedSend { .. } | Machine::PartitionedRecv { .. } => {
                Method::PartitionedStaged
            }
        }
    }
}

enum Poll {
    Done,
    Blocked(Completion),
}

/// Flags of an in-flight exchange: which machines (indices `0..n`) and
/// pending pure-CUDA completions (`n..`) saw their blocker fire since they
/// were last looked at. Blocker callbacks set flags and wake the rank when
/// it is parked waiting for one.
struct Wakeups {
    tid: usize,
    flags: RefCell<Vec<bool>>,
    parked: Cell<bool>,
}

impl Wakeups {
    fn new(tid: usize, machines: usize, pending: usize) -> Wakeups {
        let mut flags = vec![true; machines];
        flags.resize(machines + pending, false);
        Wakeups {
            tid,
            flags: RefCell::new(flags),
            parked: Cell::new(false),
        }
    }

    /// Flag `index` when `c` completes (at once if it already has).
    fn arm(self: &Rc<Self>, ctx: &RankCtx, c: &Completion, index: usize) {
        let w = Rc::clone(self);
        ctx.sim().with_kernel(|k| {
            k.on_complete(c, move |k| {
                w.flags.borrow_mut()[index] = true;
                if w.parked.get() {
                    k.wake(w.tid);
                }
            })
        });
    }

    /// Clear and return the lowest flagged index in `range`.
    fn take_flag(&self, range: std::ops::Range<usize>) -> Option<usize> {
        let mut flags = self.flags.borrow_mut();
        let i = range.into_iter().find(|&i| flags[i])?;
        flags[i] = false;
        Some(i)
    }

    /// Give up the token until some blocker fires, unless one already has.
    fn park_until_flagged(&self, ctx: &RankCtx) {
        if self.flags.borrow().contains(&true) {
            return;
        }
        self.parked.set(true);
        while !self.flags.borrow().contains(&true) {
            ctx.sim().park();
        }
        self.parked.set(false);
    }
}

/// An in-flight exchange started by
/// [`DistributedDomain::exchange_start`]; finish it with
/// [`DistributedDomain::exchange_finish`]. Compute on subdomain interiors
/// may proceed (on compute streams) between the two calls.
pub struct ExchangeHandle {
    machines: Vec<Machine>,
    pending: Vec<(Method, Completion)>,
    started: detsim::SimTime,
}

/// Virtual-time breakdown of one exchange: when the last transfer of each
/// method completed, relative to the exchange start (paper Fig. 9's
/// question — "what is the critical path made of?" — as numbers).
#[derive(Clone, Debug, Default)]
pub struct ExchangeTiming {
    /// Start-to-last-completion of the whole exchange.
    pub total: detsim::SimDuration,
    /// Per method: time from exchange start until its last transfer
    /// (including unpack) was observed complete.
    pub per_method: std::collections::BTreeMap<Method, detsim::SimDuration>,
    /// Per phase ("pack", "send", "wait", "unpack"): time from exchange
    /// start until the last transfer finished that phase. Fused methods
    /// (kernel, peer, colocated sends) have no distinct phases and only
    /// appear in `per_method`.
    pub per_phase: std::collections::BTreeMap<&'static str, detsim::SimDuration>,
}

impl ExchangeTiming {
    /// Max-update the completion time of `phase` relative to the start.
    fn phase(&mut self, phase: &'static str, d: detsim::SimDuration) {
        let e = self.per_phase.entry(phase).or_default();
        if d > *e {
            *e = d;
        }
    }
}

impl DistributedDomain {
    /// Issue one full halo exchange asynchronously. Pure-CUDA transfers are
    /// enqueued; CUDA+MPI transfers are set up as state machines. Returns a
    /// handle to finish with.
    pub fn exchange_start(&self, ctx: &RankCtx) -> ExchangeHandle {
        let m = ctx.machine().clone();
        let started = ctx.sim().now();
        let mut machines = Vec::new();
        let mut pending: Vec<(Method, Completion)> = Vec::new();

        // Receivers first: post all MPI receives before anyone sends.
        for (i, gp) in self.grouped_recv_plans.iter().enumerate() {
            let req = ctx.irecv(&gp.host_buf, 0, gp.bytes, gp.src_rank, gp.tag);
            machines.push(Machine::GroupedRecv {
                plan: i,
                req,
                unpack_all: None,
            });
        }
        for (i, rp) in self.recv_plans.iter().enumerate() {
            match rp.method {
                Method::Staged => {
                    let req = ctx.irecv(
                        rp.host_buf.as_ref().unwrap(),
                        0,
                        rp.bytes,
                        rp.src_rank,
                        rp.tag,
                    );
                    machines.push(Machine::StagedRecv {
                        plan: i,
                        req,
                        unpack_ev: None,
                    });
                }
                Method::CudaAwareMpi => {
                    let req = ctx.irecv(
                        rp.recv_dev_buf.as_ref().unwrap(),
                        0,
                        rp.bytes,
                        rp.src_rank,
                        rp.tag,
                    );
                    machines.push(Machine::CaRecv {
                        plan: i,
                        req,
                        unpack_ev: None,
                    });
                }
                Method::ColocatedMemcpy => {
                    machines.push(Machine::ColoRecv {
                        plan: i,
                        unpack_ev: None,
                    });
                }
                Method::PersistentStaged => {
                    let round = ctx.start(rp.chan.as_ref().unwrap());
                    machines.push(Machine::PersistentRecv {
                        plan: i,
                        round: round.all,
                        unpack_ev: None,
                    });
                }
                Method::PartitionedStaged => {
                    let round = ctx.start(rp.chan.as_ref().unwrap());
                    machines.push(Machine::PartitionedRecv {
                        plan: i,
                        round,
                        next_arrived: 0,
                        unpack_ev: None,
                    });
                }
                // Kernel and Peer receives are driven by the sender (same rank).
                Method::Kernel | Method::PeerMemcpy => {}
            }
        }

        for (si, sp) in self.send_plans.iter().enumerate() {
            match sp.method {
                Method::Kernel => {
                    let work = make_self_exchange_work(
                        &m,
                        &sp.arrays,
                        sp.dims,
                        sp.elem,
                        sp.src_region,
                        sp.self_dst_region,
                    );
                    let done =
                        m.launch_kernel(ctx.sim(), sp.stream, "self-exchange", sp.bytes, work);
                    pending.push((Method::Kernel, done));
                }
                Method::PeerMemcpy => {
                    let rp = &self.recv_plans[sp.peer_recv.expect("linked at setup")];
                    let pack_buf = sp.pack_buf.as_ref().unwrap();
                    let recv_buf = rp.recv_dev_buf.as_ref().unwrap();
                    let pack =
                        make_pack_work(&m, &sp.arrays, sp.dims, sp.elem, sp.src_region, pack_buf);
                    m.launch_kernel(ctx.sim(), sp.stream, "pack", sp.bytes, pack);
                    m.memcpy_async(ctx.sim(), sp.stream, recv_buf, 0, pack_buf, 0, sp.bytes);
                    let ev = m.record_event(ctx.sim(), sp.stream);
                    m.stream_wait_event(ctx.sim(), rp.stream, &ev);
                    let unpack =
                        make_unpack_work(&m, &rp.arrays, rp.dims, rp.elem, rp.dst_region, recv_buf);
                    let done = m.launch_kernel(ctx.sim(), rp.stream, "unpack", rp.bytes, unpack);
                    pending.push((Method::PeerMemcpy, done));
                }
                Method::ColocatedMemcpy => {
                    let pack_buf = sp.pack_buf.as_ref().unwrap();
                    let remote = sp.remote_buf.as_ref().expect("IPC handshake done at setup");
                    let pack =
                        make_pack_work(&m, &sp.arrays, sp.dims, sp.elem, sp.src_region, pack_buf);
                    m.launch_kernel(ctx.sim(), sp.stream, "pack", sp.bytes, pack);
                    let copied =
                        m.memcpy_async(ctx.sim(), sp.stream, remote, 0, pack_buf, 0, sp.bytes);
                    let mailbox = sp.mailbox.clone().unwrap();
                    let c2 = copied.clone();
                    ctx.sim().with_kernel(move |k| {
                        let c3 = c2.clone();
                        k.on_complete(&c2.clone(), move |k| mailbox.put(k, c3));
                    });
                    pending.push((Method::ColocatedMemcpy, copied));
                }
                Method::CudaAwareMpi => {
                    let pack_buf = sp.pack_buf.as_ref().unwrap();
                    let pack =
                        make_pack_work(&m, &sp.arrays, sp.dims, sp.elem, sp.src_region, pack_buf);
                    m.launch_kernel(ctx.sim(), sp.stream, "pack", sp.bytes, pack);
                    let pack_ev = m.record_event(ctx.sim(), sp.stream);
                    machines.push(Machine::CaSend {
                        plan: si,
                        pack_ev,
                        req: None,
                    });
                }
                Method::Staged => {
                    let pack_buf = sp.pack_buf.as_ref().unwrap();
                    let host_buf = sp.host_buf.as_ref().unwrap();
                    let pack =
                        make_pack_work(&m, &sp.arrays, sp.dims, sp.elem, sp.src_region, pack_buf);
                    m.launch_kernel(ctx.sim(), sp.stream, "pack", sp.bytes, pack);
                    m.memcpy_async(ctx.sim(), sp.stream, host_buf, 0, pack_buf, 0, sp.bytes);
                    let staged_ev = m.record_event(ctx.sim(), sp.stream);
                    machines.push(Machine::StagedSend {
                        plan: si,
                        staged_ev,
                        req: None,
                    });
                }
                Method::PersistentStaged => {
                    // Same pack → D2H pipeline as staged, but the wire leg is
                    // a pre-matched channel: the machine calls `start` (cheap,
                    // no per-iteration match) once staging completes.
                    let pack_buf = sp.pack_buf.as_ref().unwrap();
                    let host_buf = sp.host_buf.as_ref().unwrap();
                    let pack =
                        make_pack_work(&m, &sp.arrays, sp.dims, sp.elem, sp.src_region, pack_buf);
                    m.launch_kernel(ctx.sim(), sp.stream, "pack", sp.bytes, pack);
                    m.memcpy_async(ctx.sim(), sp.stream, host_buf, 0, pack_buf, 0, sp.bytes);
                    let staged_ev = m.record_event(ctx.sim(), sp.stream);
                    machines.push(Machine::PersistentSend {
                        plan: si,
                        staged_ev,
                        round: None,
                    });
                }
                Method::PartitionedStaged => {
                    // One pack kernel, then partition-sized D2H chunks with an
                    // event after each: partition p is `pready`d as soon as
                    // its chunk lands on the host, so early partitions are on
                    // the wire while later ones still stage.
                    let pack_buf = sp.pack_buf.as_ref().unwrap();
                    let host_buf = sp.host_buf.as_ref().unwrap();
                    let pack =
                        make_pack_work(&m, &sp.arrays, sp.dims, sp.elem, sp.src_region, pack_buf);
                    m.launch_kernel(ctx.sim(), sp.stream, "pack", sp.bytes, pack);
                    let chan = sp.chan.as_ref().unwrap();
                    let parts = chan.parts();
                    let mut d2h_evs = Vec::with_capacity(parts);
                    for p in 0..parts {
                        let (off, len) = partition_range(sp.bytes, parts, p);
                        m.memcpy_async(ctx.sim(), sp.stream, host_buf, off, pack_buf, off, len);
                        d2h_evs.push(m.record_event(ctx.sim(), sp.stream));
                    }
                    let round = ctx.start(chan);
                    machines.push(Machine::PartitionedSend {
                        plan: si,
                        d2h_evs,
                        next_ready: 0,
                        round: round.all,
                    });
                }
            }
        }
        // Consolidated sends: one combined pack kernel, one D2H, then the
        // state machine posts the single Isend when staging completes.
        for (i, gp) in self.grouped_send_plans.iter().enumerate() {
            let pack = make_group_pack_work(&m, &gp.segments, &gp.pack_buf);
            m.launch_kernel(ctx.sim(), gp.stream, "pack-group", gp.bytes, pack);
            m.memcpy_async(
                ctx.sim(),
                gp.stream,
                &gp.host_buf,
                0,
                &gp.pack_buf,
                0,
                gp.bytes,
            );
            let staged_ev = m.record_event(ctx.sim(), gp.stream);
            machines.push(Machine::GroupedSend {
                plan: i,
                staged_ev,
                req: None,
            });
        }
        ExchangeHandle {
            machines,
            pending,
            started,
        }
    }

    fn poll_machine(
        &self,
        ctx: &RankCtx,
        mach: &mut Machine,
        started: detsim::SimTime,
        timing: &mut ExchangeTiming,
    ) -> Poll {
        let m = ctx.machine().clone();
        let since_start = |ctx: &RankCtx| ctx.sim().now().since(started);
        match mach {
            Machine::StagedSend {
                plan,
                staged_ev,
                req,
            } => {
                let sp = &self.send_plans[*plan];
                if req.is_none() {
                    if !staged_ev.is_done() {
                        return Poll::Blocked(staged_ev.clone());
                    }
                    timing.phase("pack", since_start(ctx));
                    *req = Some(ctx.isend(
                        sp.host_buf.as_ref().unwrap(),
                        0,
                        sp.bytes,
                        sp.dst_rank,
                        sp.tag,
                    ));
                }
                let r = req.as_ref().unwrap();
                if r.is_done() {
                    timing.phase("send", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(r.completion().clone())
                }
            }
            Machine::StagedRecv {
                plan,
                req,
                unpack_ev,
            } => {
                let rp = &self.recv_plans[*plan];
                if unpack_ev.is_none() {
                    if !req.is_done() {
                        return Poll::Blocked(req.completion().clone());
                    }
                    timing.phase("wait", since_start(ctx));
                    let dev = rp.recv_dev_buf.as_ref().unwrap();
                    m.memcpy_async(
                        ctx.sim(),
                        rp.stream,
                        dev,
                        0,
                        rp.host_buf.as_ref().unwrap(),
                        0,
                        rp.bytes,
                    );
                    let unpack =
                        make_unpack_work(&m, &rp.arrays, rp.dims, rp.elem, rp.dst_region, dev);
                    *unpack_ev =
                        Some(m.launch_kernel(ctx.sim(), rp.stream, "unpack", rp.bytes, unpack));
                }
                let ev = unpack_ev.as_ref().unwrap();
                if ev.is_done() {
                    timing.phase("unpack", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(ev.clone())
                }
            }
            Machine::PersistentSend {
                plan,
                staged_ev,
                round,
            } => {
                let sp = &self.send_plans[*plan];
                if round.is_none() {
                    if !staged_ev.is_done() {
                        return Poll::Blocked(staged_ev.clone());
                    }
                    timing.phase("pack", since_start(ctx));
                    *round = Some(ctx.start(sp.chan.as_ref().unwrap()).all);
                }
                let r = round.as_ref().unwrap();
                if r.is_done() {
                    timing.phase("send", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(r.completion().clone())
                }
            }
            Machine::PersistentRecv {
                plan,
                round,
                unpack_ev,
            } => {
                let rp = &self.recv_plans[*plan];
                if unpack_ev.is_none() {
                    if !round.is_done() {
                        return Poll::Blocked(round.completion().clone());
                    }
                    timing.phase("wait", since_start(ctx));
                    let dev = rp.recv_dev_buf.as_ref().unwrap();
                    m.memcpy_async(
                        ctx.sim(),
                        rp.stream,
                        dev,
                        0,
                        rp.host_buf.as_ref().unwrap(),
                        0,
                        rp.bytes,
                    );
                    let unpack =
                        make_unpack_work(&m, &rp.arrays, rp.dims, rp.elem, rp.dst_region, dev);
                    *unpack_ev =
                        Some(m.launch_kernel(ctx.sim(), rp.stream, "unpack", rp.bytes, unpack));
                }
                let ev = unpack_ev.as_ref().unwrap();
                if ev.is_done() {
                    timing.phase("unpack", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(ev.clone())
                }
            }
            Machine::PartitionedSend {
                plan,
                d2h_evs,
                next_ready,
                round,
            } => {
                let sp = &self.send_plans[*plan];
                while *next_ready < d2h_evs.len() {
                    if !d2h_evs[*next_ready].is_done() {
                        return Poll::Blocked(d2h_evs[*next_ready].clone());
                    }
                    ctx.pready(sp.chan.as_ref().unwrap(), *next_ready);
                    *next_ready += 1;
                    if *next_ready == d2h_evs.len() {
                        timing.phase("pack", since_start(ctx));
                    }
                }
                if round.is_done() {
                    timing.phase("send", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(round.completion().clone())
                }
            }
            Machine::PartitionedRecv {
                plan,
                round,
                next_arrived,
                unpack_ev,
            } => {
                let rp = &self.recv_plans[*plan];
                if unpack_ev.is_none() {
                    let parts = round.parts.len();
                    while *next_arrived < parts {
                        if !round.parts[*next_arrived].is_done() {
                            return Poll::Blocked(round.parts[*next_arrived].clone());
                        }
                        // H2D just this partition's bytes as soon as they land.
                        let (off, len) = partition_range(rp.bytes, parts, *next_arrived);
                        m.memcpy_async(
                            ctx.sim(),
                            rp.stream,
                            rp.recv_dev_buf.as_ref().unwrap(),
                            off,
                            rp.host_buf.as_ref().unwrap(),
                            off,
                            len,
                        );
                        *next_arrived += 1;
                    }
                    timing.phase("wait", since_start(ctx));
                    let dev = rp.recv_dev_buf.as_ref().unwrap();
                    let unpack =
                        make_unpack_work(&m, &rp.arrays, rp.dims, rp.elem, rp.dst_region, dev);
                    *unpack_ev =
                        Some(m.launch_kernel(ctx.sim(), rp.stream, "unpack", rp.bytes, unpack));
                }
                let ev = unpack_ev.as_ref().unwrap();
                if ev.is_done() {
                    timing.phase("unpack", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(ev.clone())
                }
            }
            Machine::CaSend { plan, pack_ev, req } => {
                let sp = &self.send_plans[*plan];
                if req.is_none() {
                    if !pack_ev.is_done() {
                        return Poll::Blocked(pack_ev.clone());
                    }
                    timing.phase("pack", since_start(ctx));
                    *req = Some(ctx.isend(
                        sp.pack_buf.as_ref().unwrap(),
                        0,
                        sp.bytes,
                        sp.dst_rank,
                        sp.tag,
                    ));
                }
                let r = req.as_ref().unwrap();
                if r.is_done() {
                    timing.phase("send", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(r.completion().clone())
                }
            }
            Machine::CaRecv {
                plan,
                req,
                unpack_ev,
            } => {
                let rp = &self.recv_plans[*plan];
                if unpack_ev.is_none() {
                    if !req.is_done() {
                        return Poll::Blocked(req.completion().clone());
                    }
                    timing.phase("wait", since_start(ctx));
                    let dev = rp.recv_dev_buf.as_ref().unwrap();
                    let unpack =
                        make_unpack_work(&m, &rp.arrays, rp.dims, rp.elem, rp.dst_region, dev);
                    *unpack_ev =
                        Some(m.launch_kernel(ctx.sim(), rp.stream, "unpack", rp.bytes, unpack));
                }
                let ev = unpack_ev.as_ref().unwrap();
                if ev.is_done() {
                    timing.phase("unpack", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(ev.clone())
                }
            }
            Machine::GroupedSend {
                plan,
                staged_ev,
                req,
            } => {
                let gp = &self.grouped_send_plans[*plan];
                if req.is_none() {
                    if !staged_ev.is_done() {
                        return Poll::Blocked(staged_ev.clone());
                    }
                    timing.phase("pack", since_start(ctx));
                    *req = Some(ctx.isend(&gp.host_buf, 0, gp.bytes, gp.dst_rank, gp.tag));
                }
                let r = req.as_ref().unwrap();
                if r.is_done() {
                    timing.phase("send", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(r.completion().clone())
                }
            }
            Machine::GroupedRecv {
                plan,
                req,
                unpack_all,
            } => {
                let gp = &self.grouped_recv_plans[*plan];
                if unpack_all.is_none() {
                    if !req.is_done() {
                        return Poll::Blocked(req.completion().clone());
                    }
                    timing.phase("wait", since_start(ctx));
                    // Fan the combined buffer out: per segment, H2D to its
                    // device then unpack on its stream. Segments on
                    // different devices proceed in parallel.
                    let mut evs = Vec::with_capacity(gp.segments.len());
                    for seg in &gp.segments {
                        let stream = seg.stream.expect("recv segment stream");
                        let dev = seg.dev_buf.as_ref().expect("recv segment buffer");
                        m.memcpy_async(
                            ctx.sim(),
                            stream,
                            dev,
                            0,
                            &gp.host_buf,
                            seg.offset,
                            seg.bytes,
                        );
                        let unpack =
                            make_unpack_work(&m, &seg.arrays, seg.dims, seg.elem, seg.region, dev);
                        evs.push(m.launch_kernel(ctx.sim(), stream, "unpack", seg.bytes, unpack));
                    }
                    *unpack_all = Some(ctx.sim().with_kernel(|k| k.completion_all(&evs)));
                }
                let ev = unpack_all.as_ref().unwrap();
                if ev.is_done() {
                    timing.phase("unpack", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(ev.clone())
                }
            }
            Machine::ColoRecv { plan, unpack_ev } => {
                let rp = &self.recv_plans[*plan];
                if unpack_ev.is_none() {
                    // The machine is polled again only once the returned
                    // waiter fires, so at most one is ever outstanding.
                    let mailbox = rp.mailbox.as_ref().unwrap();
                    let copied = match ctx.sim().with_kernel(|k| mailbox.try_take(k)) {
                        Ok(c) => c,
                        Err(waiter) => return Poll::Blocked(waiter),
                    };
                    timing.phase("wait", since_start(ctx));
                    m.stream_wait_event(ctx.sim(), rp.stream, &copied);
                    let dev = rp.recv_dev_buf.as_ref().unwrap();
                    let unpack =
                        make_unpack_work(&m, &rp.arrays, rp.dims, rp.elem, rp.dst_region, dev);
                    *unpack_ev =
                        Some(m.launch_kernel(ctx.sim(), rp.stream, "unpack", rp.bytes, unpack));
                }
                let ev = unpack_ev.as_ref().unwrap();
                if ev.is_done() {
                    timing.phase("unpack", since_start(ctx));
                    Poll::Done
                } else {
                    Poll::Blocked(ev.clone())
                }
            }
        }
    }

    /// Drive an in-flight exchange to completion, until all transfers
    /// (sends *and* receives, including unpacks) and pending pure-CUDA
    /// completions have finished. Returns the observed timing breakdown.
    ///
    /// Wake-driven: each machine's blocker is armed once with a callback
    /// that flags the machine and wakes this rank, and a round polls only
    /// the flagged machines, in ascending index order (one flagged above the
    /// cursor mid-round is polled in the same round). Polling a machine
    /// whose blocker has not fired is a no-op, so this makes exactly the
    /// calls, at the same virtual instants, that re-polling every live
    /// machine on every wake would.
    pub fn exchange_finish(&self, ctx: &RankCtx, mut handle: ExchangeHandle) -> ExchangeTiming {
        let mut live: Vec<Machine> = std::mem::take(&mut handle.machines);
        let pending = std::mem::take(&mut handle.pending);
        let n = live.len();
        let mut timing = ExchangeTiming::default();
        let stamp = |timing: &mut ExchangeTiming, m: Method, now: detsim::SimTime| {
            let d = now.since(handle.started);
            let e = timing.per_method.entry(m).or_default();
            if d > *e {
                *e = d;
            }
            if d > timing.total {
                timing.total = d;
            }
        };
        // Every machine starts flagged: the first round polls them all.
        let wake = Rc::new(Wakeups::new(ctx.sim().tid(), n, pending.len()));
        for (j, (_, c)) in pending.iter().enumerate() {
            wake.arm(ctx, c, n + j);
        }
        let mut left = n + pending.len();
        while left > 0 {
            let mut cursor = 0;
            while let Some(i) = wake.take_flag(cursor..n) {
                match self.poll_machine(ctx, &mut live[i], handle.started, &mut timing) {
                    Poll::Done => {
                        left -= 1;
                        stamp(&mut timing, live[i].method(), ctx.sim().now());
                    }
                    Poll::Blocked(c) => wake.arm(ctx, &c, i),
                }
                cursor = i + 1;
            }
            let now = ctx.sim().now();
            while let Some(j) = wake.take_flag(n..n + pending.len()) {
                left -= 1;
                stamp(&mut timing, pending[j - n].0, now);
            }
            if left > 0 {
                wake.park_until_flagged(ctx);
            }
        }
        self.record_exchange_metrics(ctx, &timing);
        timing
    }

    /// Fold one finished exchange into the metrics registry: critical-path
    /// histograms per method and per phase, plus per-method byte counters
    /// from the plans. No-op unless metrics are enabled on the kernel.
    fn record_exchange_metrics(&self, ctx: &RankCtx, timing: &ExchangeTiming) {
        ctx.sim().with_kernel(|k| {
            if !k.metrics.is_enabled() {
                return;
            }
            k.metrics.counter_add("exchange", "exchanges", &[], 1);
            k.metrics
                .observe("exchange", "total_ps", &[], timing.total.picos() as f64);
            for (method, d) in &timing.per_method {
                let name = method.to_string();
                k.metrics.observe(
                    "exchange",
                    "method_ps",
                    &[("method", &name)],
                    d.picos() as f64,
                );
            }
            for (phase, d) in &timing.per_phase {
                k.metrics.observe(
                    "exchange",
                    "phase_ps",
                    &[("phase", phase)],
                    d.picos() as f64,
                );
            }
            for sp in &self.send_plans {
                let name = sp.method.to_string();
                k.metrics
                    .counter_add("exchange", "method_bytes", &[("method", &name)], sp.bytes);
            }
            for gp in &self.grouped_send_plans {
                k.metrics.counter_add(
                    "exchange",
                    "method_bytes",
                    &[("method", "staged")],
                    gp.bytes,
                );
            }
        });
    }

    /// One complete halo exchange: issue, overlap, and drain.
    pub fn exchange(&self, ctx: &RankCtx) {
        let h = self.exchange_start(ctx);
        self.exchange_finish(ctx, h);
    }

    /// One complete halo exchange, returning the per-method timing
    /// breakdown.
    pub fn exchange_timed(&self, ctx: &RankCtx) -> ExchangeTiming {
        let h = self.exchange_start(ctx);
        self.exchange_finish(ctx, h)
    }
}
