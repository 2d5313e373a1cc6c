//! Message matching and the three transports: shared-memory (intra-node),
//! NIC (inter-node), and CUDA-aware (device buffers passed straight to MPI).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use detsim::{Completion, Kernel, LinkId, Path, SimDuration, SimTime, Slab};
use faultsim::{FaultAction, FaultSchedule};
use gpusim::{Buffer, GpuMachine, Placement};

use crate::config::MpiCostModel;

/// A pending non-blocking operation. Wait on it via
/// [`RankCtx::wait`](crate::RankCtx::wait).
#[derive(Clone, Debug)]
pub struct Request {
    pub(crate) done: Completion,
    /// Set when the operation resolved as *revoked* (ULFM-style): one of
    /// its endpoints died while the operation was still pending. A revoked
    /// request is complete (waits return immediately) but moved no bytes.
    pub(crate) revoked: Rc<Cell<bool>>,
}

impl Request {
    pub(crate) fn new(done: Completion) -> Request {
        Request {
            done,
            revoked: Rc::new(Cell::new(false)),
        }
    }

    /// Whether the operation has completed.
    pub fn is_done(&self) -> bool {
        self.done.is_done()
    }

    /// Whether the operation resolved as revoked: an endpoint rank died
    /// while it was pending, so it completed without transferring data
    /// (see `docs/RESILIENCE.md` for the shrink-or-respawn contract).
    pub fn is_revoked(&self) -> bool {
        self.revoked.get()
    }

    /// The underlying completion (to chain callbacks on, or to wait on
    /// alongside stream events).
    pub fn completion(&self) -> &Completion {
        &self.done
    }
}

type MatchKey = (usize, usize, u64); // (dst, src, tag)

/// Which family of setup-once channel semantics a [`Channel`] carries
/// (`docs/TRANSPORTS.md`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChanKind {
    /// `MPI_Send_init`/`MPI_Recv_init`: the whole message flies on each
    /// `start`, but matching and protocol negotiation were paid at init.
    Persistent,
    /// `MPI_Psend_init`/`MPI_Precv_init`: the message is split into
    /// partitions that fly individually as the sender marks them ready.
    Partitioned,
}

impl ChanKind {
    fn label(self) -> &'static str {
        match self {
            ChanKind::Persistent => "persistent",
            ChanKind::Partitioned => "partitioned",
        }
    }
}

/// Which end of a channel a handle controls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChanSide {
    /// The sending end (`send_init`/`psend_init`).
    Send,
    /// The receiving end (`recv_init`/`precv_init`).
    Recv,
}

/// Handle to one end of a persistent or partitioned channel, created once
/// at setup by [`RankCtx::send_init`](crate::RankCtx::send_init) and
/// friends, then driven every iteration with
/// [`RankCtx::start`](crate::RankCtx::start) (and, for partitioned sends,
/// [`RankCtx::pready`](crate::RankCtx::pready)).
#[derive(Clone, Debug)]
pub struct Channel {
    pub(crate) id: usize,
    pub(crate) kind: ChanKind,
    pub(crate) side: ChanSide,
    pub(crate) parts: usize,
}

impl Channel {
    /// Number of partitions (1 for persistent channels).
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The channel family.
    pub fn kind(&self) -> ChanKind {
        self.kind
    }
}

/// One round of a channel, returned by
/// [`RankCtx::start`](crate::RankCtx::start): wait on [`Self::all`] for the
/// whole round; poll [`Self::parts`] for per-partition arrival
/// (`MPI_Parrived`).
pub struct ChannelRound {
    /// Completes when every partition of this side's round has landed. For
    /// a one-partition round it is that partition's completion itself.
    pub all: Request,
    /// Per-partition completions, in partition order.
    pub parts: Vec<Completion>,
}

/// One registered end of a channel: the buffer region pinned at init time.
struct ChanEnd {
    buf: Buffer,
    off: u64,
    len: u64,
    rank: usize,
}

/// One side of a channel round.
#[derive(Default)]
struct RoundSide {
    started: bool,
    /// The per-partition completions this side's `start` handed out.
    parts: Vec<Completion>,
    /// Revocation flag handed out with this side's round request, so a
    /// kill can mark an in-flight round revoked.
    flag: Option<Rc<Cell<bool>>>,
}

/// Per-round state: which sides have started, which partitions are ready,
/// and the completions each side's `start` handed out. A finished round's
/// state is kept and reset for the next round, so steady-state rounds
/// reuse its vectors.
struct ChannelRoundState {
    send: RoundSide,
    recv: RoundSide,
    ready: Vec<bool>,
    launched: Vec<bool>,
    remaining: usize,
    /// When the earlier side started (match-wait metrics).
    first_started: SimTime,
}

impl ChannelRoundState {
    /// A fresh round of `parts` partitions, reusing `spare`'s vectors.
    fn begin(spare: Option<ChannelRoundState>, parts: usize, now: SimTime) -> Self {
        let mut r = spare.unwrap_or(ChannelRoundState {
            send: RoundSide::default(),
            recv: RoundSide::default(),
            ready: Vec::new(),
            launched: Vec::new(),
            remaining: 0,
            first_started: now,
        });
        for side in [&mut r.send, &mut r.recv] {
            side.started = false;
            side.parts.clear();
            side.flag = None;
        }
        r.ready.clear();
        r.ready.resize(parts, false);
        r.launched.clear();
        r.launched.resize(parts, false);
        r.remaining = parts;
        r.first_started = now;
        r
    }
}

struct ChannelState {
    kind: ChanKind,
    parts: usize,
    send: Option<ChanEnd>,
    recv: Option<ChanEnd>,
    /// Completed rounds. Round 0 pays the protocol handshake
    /// (rendezvous); later rounds reuse the negotiated match.
    rounds_done: u64,
    cur: Option<ChannelRoundState>,
    /// The last finished round, kept for [`ChannelRoundState::begin`].
    spare: Option<ChannelRoundState>,
    /// A rank death revokes the communicator's channels (ULFM
    /// `MPI_Comm_revoke` semantics): every later `start` on an old handle
    /// completes immediately as revoked. Survivors re-init fresh channels
    /// under the same keys (the index entry is cleared at kill time).
    revoked: bool,
}

struct PendingMsg {
    buf: Buffer,
    off: u64,
    len: u64,
    done: Completion,
    revoked: Rc<Cell<bool>>,
    rank: usize,
    /// When the operation was posted (for match-latency metrics).
    posted: SimTime,
}

/// A matched message or channel partition, from the send being issued to
/// its last byte landing. It sits in the MPI state's transfer slab, so each
/// closure that drives it captures only `(state, slot)` — two words, which
/// the event kernel stores inline.
struct Transfer {
    path: Path,
    bytes: u64,
    src: Buffer,
    src_off: u64,
    dst: Buffer,
    dst_off: u64,
    send_done: Completion,
    recv_done: Completion,
    /// Fired after both ends: releases the default streams a CUDA-aware
    /// transfer holds.
    landed: Option<Completion>,
    /// The channel whose round this partition belongs to.
    chan: Option<Rc<RefCell<ChannelState>>>,
    track: detsim::trace::TrackId,
    label: &'static str,
    start: SimTime,
}

#[derive(Default)]
struct MatchQueue {
    sends: VecDeque<PendingMsg>,
    recvs: VecDeque<PendingMsg>,
}

#[derive(Default)]
struct ObjQueue {
    items: VecDeque<Box<dyn Any>>,
    waiters: VecDeque<Completion>,
}

pub(crate) struct BarrierState {
    /// Which ranks have arrived in the current round.
    pub arrived: Vec<bool>,
    /// How many *alive* ranks have arrived. The barrier releases when this
    /// reaches the alive count — a shrunken world's barrier waits only for
    /// its survivors.
    pub alive_arrived: usize,
    pub release: Completion,
}

/// Rank-lifecycle state: who is alive, how often the membership changed,
/// and who is parked waiting for a membership transition.
pub(crate) struct LifeState {
    alive: Vec<bool>,
    dead: usize,
    /// Bumped on every kill or respawn — the communicator epoch. Cached
    /// plans or channels built under an older epoch are suspect.
    epoch: u64,
    /// `(rank, completion)` pairs released when `rank` respawns.
    respawn_waiters: Vec<(usize, Completion)>,
    /// Completions released when every rank is alive again.
    all_alive_waiters: Vec<Completion>,
}

/// Shared state of the simulated MPI library.
pub(crate) struct MpiState {
    pub machine: GpuMachine,
    pub cfg: MpiCostModel,
    pub cuda_aware: bool,
    /// Whether the simulated stack implements persistent requests.
    pub persistent: bool,
    /// Whether the simulated stack implements partitioned communication.
    pub partitioned: bool,
    pub num_ranks: usize,
    pub ranks_per_node: usize,
    /// Per-rank shared-memory progress-engine link: all of a rank's
    /// intra-node host messages flow through it.
    pub shm_link: Vec<LinkId>,
    /// Per-rank trace track for MPI spans.
    pub rank_track: Vec<detsim::trace::TrackId>,
    queues: RefCell<HashMap<MatchKey, MatchQueue>>,
    /// Persistent/partitioned channels: both ends register under the same
    /// `(dst, src, tag)` key at init time; the index maps it to a slot in
    /// `channels`.
    chan_index: RefCell<HashMap<MatchKey, usize>>,
    channels: RefCell<Vec<Rc<RefCell<ChannelState>>>>,
    objs: RefCell<HashMap<MatchKey, ObjQueue>>,
    pub barrier: RefCell<BarrierState>,
    life: RefCell<LifeState>,
    /// Memoized deterministic setup artifacts shared across the world's
    /// ranks (see [`RankCtx::cached_setup`](crate::RankCtx::cached_setup)).
    pub(crate) setup_cache: RefCell<HashMap<String, Rc<dyn Any>>>,
    /// In-flight transfers (see [`Transfer`]).
    transfers: RefCell<Slab<Transfer>>,
}

impl MpiState {
    pub fn new(
        k: &mut Kernel,
        machine: GpuMachine,
        cfg: MpiCostModel,
        cuda_aware: bool,
        persistent: bool,
        partitioned: bool,
        ranks_per_node: usize,
    ) -> Rc<MpiState> {
        assert!(ranks_per_node >= 1);
        let num_ranks = machine.num_nodes() * ranks_per_node;
        let mut shm_link = Vec::with_capacity(num_ranks);
        let mut rank_track = Vec::with_capacity(num_ranks);
        for r in 0..num_ranks {
            shm_link.push(k.add_link(format!("r{r}.shm"), cfg.shm_bandwidth, cfg.shm_latency));
            rank_track.push(k.trace.add_track(format!("rank{r} mpi")));
        }
        let release = k.completion();
        Rc::new(MpiState {
            machine,
            cfg,
            cuda_aware,
            persistent,
            partitioned,
            num_ranks,
            ranks_per_node,
            shm_link,
            rank_track,
            queues: RefCell::new(HashMap::new()),
            chan_index: RefCell::new(HashMap::new()),
            channels: RefCell::new(Vec::new()),
            objs: RefCell::new(HashMap::new()),
            barrier: RefCell::new(BarrierState {
                arrived: vec![false; num_ranks],
                alive_arrived: 0,
                release,
            }),
            life: RefCell::new(LifeState {
                alive: vec![true; num_ranks],
                dead: 0,
                epoch: 0,
                respawn_waiters: Vec::new(),
                all_alive_waiters: Vec::new(),
            }),
            setup_cache: RefCell::new(HashMap::new()),
            transfers: RefCell::new(Slab::new()),
        })
    }

    pub fn node_of_rank(&self, r: usize) -> usize {
        r / self.ranks_per_node
    }

    /// Post a non-blocking send. Matching (and the transfer) happens when
    /// the peer's receive is also posted.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI signature
    pub fn isend(
        self: &Rc<Self>,
        k: &mut Kernel,
        src_rank: usize,
        dst_rank: usize,
        tag: u64,
        buf: &Buffer,
        off: u64,
        len: u64,
    ) -> Request {
        assert!(off + len <= buf.len(), "isend region out of range");
        assert!(
            dst_rank < self.num_ranks,
            "isend to invalid rank {dst_rank}"
        );
        if let Some(req) = self.revoked_if_dead(k, src_rank, dst_rank) {
            return req;
        }
        let done = k.completion();
        let req = Request::new(done.clone());
        let msg = PendingMsg {
            buf: buf.clone(),
            off,
            len,
            done,
            revoked: Rc::clone(&req.revoked),
            rank: src_rank,
            posted: k.now(),
        };
        let matched = {
            let mut q = self.queues.borrow_mut();
            let entry = q.entry((dst_rank, src_rank, tag)).or_default();
            match entry.recvs.pop_front() {
                Some(recv) => Ok((msg, recv)),
                None => {
                    entry.sends.push_back(msg);
                    Err(())
                }
            }
        };
        if let Ok((send, recv)) = matched {
            self.record_match(k, "recv", recv.posted);
            self.start_transfer(k, send, recv);
        }
        req
    }

    /// If either endpoint of an operation is currently dead, resolve it as
    /// revoked on the spot: complete, no bytes, `is_revoked()` set. On the
    /// (fault-free) fast path this is two boolean reads.
    fn revoked_if_dead(&self, k: &mut Kernel, a: usize, b: usize) -> Option<Request> {
        let dead = {
            let life = self.life.borrow();
            !life.alive[a] || !life.alive[b]
        };
        if !dead {
            return None;
        }
        let done = k.completion();
        k.complete(&done);
        if k.metrics.is_enabled() {
            k.metrics
                .counter_add("mpisim", "revoked_ops", &[("when", "posted")], 1);
        }
        Some(Request {
            done,
            revoked: Rc::new(Cell::new(true)),
        })
    }

    /// Post a non-blocking receive.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI signature
    pub fn irecv(
        self: &Rc<Self>,
        k: &mut Kernel,
        dst_rank: usize,
        src_rank: usize,
        tag: u64,
        buf: &Buffer,
        off: u64,
        len: u64,
    ) -> Request {
        assert!(off + len <= buf.len(), "irecv region out of range");
        assert!(
            src_rank < self.num_ranks,
            "irecv from invalid rank {src_rank}"
        );
        if let Some(req) = self.revoked_if_dead(k, dst_rank, src_rank) {
            return req;
        }
        let done = k.completion();
        let req = Request::new(done.clone());
        let msg = PendingMsg {
            buf: buf.clone(),
            off,
            len,
            done,
            revoked: Rc::clone(&req.revoked),
            rank: dst_rank,
            posted: k.now(),
        };
        let matched = {
            let mut q = self.queues.borrow_mut();
            let entry = q.entry((dst_rank, src_rank, tag)).or_default();
            match entry.sends.pop_front() {
                Some(send) => Ok((send, msg)),
                None => {
                    entry.recvs.push_back(msg);
                    Err(())
                }
            }
        };
        if let Ok((send, recv)) = matched {
            self.record_match(k, "send", send.posted);
            self.start_transfer(k, send, recv);
        }
        req
    }

    /// Record how long the queued side of a newly matched pair sat waiting
    /// for its partner. `side` names the operation that was posted first.
    fn record_match(&self, k: &mut Kernel, side: &'static str, posted: SimTime) {
        if k.metrics.is_enabled() {
            let wait = k.now().since(posted).picos() as f64;
            k.metrics
                .observe("mpi", "match_wait_ps", &[("side", side)], wait);
        }
    }

    fn start_transfer(self: &Rc<Self>, k: &mut Kernel, send: PendingMsg, recv: PendingMsg) {
        assert!(
            recv.len >= send.len,
            "receive buffer region ({}) smaller than message ({})",
            recv.len,
            send.len
        );
        if k.metrics.is_enabled() {
            let protocol = if send.len > self.cfg.eager_threshold {
                "rendezvous"
            } else {
                "eager"
            };
            k.metrics
                .counter_add("mpi", "messages", &[("protocol", protocol)], 1);
            k.metrics
                .counter_add("mpi", "message_bytes", &[("protocol", protocol)], send.len);
        }
        let device_involved = send.buf.device().is_some() || recv.buf.device().is_some();
        if device_involved {
            assert!(
                self.cuda_aware,
                "device buffer passed to MPI but CUDA-aware support is disabled"
            );
            self.cuda_aware_transfer(k, send, recv);
        } else {
            self.host_transfer(k, send, recv);
        }
    }

    fn protocol_latency(&self, bytes: u64) -> SimDuration {
        if bytes > self.cfg.eager_threshold {
            self.cfg.rendezvous_latency
        } else {
            SimDuration::ZERO
        }
    }

    /// Route between host buffers on `(n1, s1)` and `(n2, s2)`. Within a
    /// node that is the shared-memory transport: the sending rank's
    /// progress engine pumps the bytes, and cross-socket copies also ride
    /// the X-Bus.
    fn host_path(
        &self,
        send_rank: usize,
        (n1, s1): (usize, usize),
        (n2, s2): (usize, usize),
    ) -> Path {
        let fabric = self.machine.fabric();
        if n1 == n2 {
            let mut p = Path::new();
            p.push(self.shm_link[send_rank]);
            let spec = fabric.node_spec();
            p.extend_from_slice(&fabric.node_path(n1, spec.cpu(s1), spec.cpu(s2)));
            p
        } else {
            fabric.internode_host_path(n1, s1, n2, s2)
        }
    }

    fn host_transfer(self: &Rc<Self>, k: &mut Kernel, send: PendingMsg, recv: PendingMsg) {
        let (Placement::Host(n1, s1), Placement::Host(n2, s2)) =
            (send.buf.placement(), recv.buf.placement())
        else {
            unreachable!("host_transfer with device buffers");
        };
        let path = self.host_path(send.rank, (n1, s1), (n2, s2));
        let label = if n1 == n2 { "MPI shm" } else { "MPI net" };
        if k.metrics.is_enabled() {
            let transport = if n1 == n2 { "shm" } else { "net" };
            k.metrics.counter_add(
                "mpi",
                "transport_bytes",
                &[("transport", transport)],
                send.len,
            );
        }
        let latency = self.protocol_latency(send.len);
        let t = self.transfer(k, path, send, recv, label);
        let slot = self.transfers.borrow_mut().insert(t);
        let st = Rc::clone(self);
        k.schedule_in(latency, move |k| st.start_transfer_flow(k, slot));
    }

    /// The transfer of a matched `send` into `recv` over `path`.
    fn transfer(
        &self,
        k: &Kernel,
        path: Path,
        send: PendingMsg,
        recv: PendingMsg,
        label: &'static str,
    ) -> Transfer {
        Transfer {
            path,
            bytes: send.len,
            src: send.buf,
            src_off: send.off,
            dst: recv.buf,
            dst_off: recv.off,
            send_done: send.done,
            recv_done: recv.done,
            landed: None,
            chan: None,
            track: self.rank_track[send.rank],
            label,
            start: k.now(),
        }
    }

    /// Start the flow that carries parked transfer `slot`.
    fn start_transfer_flow(self: &Rc<Self>, k: &mut Kernel, slot: usize) {
        let st = Rc::clone(self);
        let transfers = self.transfers.borrow();
        let t = transfers.get(slot).expect("transfer parked until it lands");
        k.start_flow(&t.path, t.bytes, move |k| st.land_transfer(k, slot));
    }

    /// The last byte of parked transfer `slot` arrived: copy the data,
    /// fire both ends (and the CUDA-aware stream release), and count a
    /// channel partition towards its round.
    fn land_transfer(&self, k: &mut Kernel, slot: usize) {
        let t = self.transfers.borrow_mut().remove(slot);
        t.dst.copy_from(t.dst_off, &t.src, t.src_off, t.bytes);
        if k.trace.is_enabled() {
            k.trace.record(
                t.track,
                format!("{} {}B", t.label, t.bytes),
                "mpi",
                t.start,
                k.now(),
            );
        }
        k.complete(&t.send_done);
        k.complete(&t.recv_done);
        if let Some(landed) = &t.landed {
            k.complete(landed);
        }
        if let Some(chan) = &t.chan {
            let mut st = chan.borrow_mut();
            // A kill may have revoked the round out from under an in-flight
            // partition; the late finish is then a no-op.
            if let Some(r) = st.cur.as_mut() {
                r.remaining -= 1;
                if r.remaining == 0 {
                    let mut done = st.cur.take().expect("round in progress");
                    done.send.parts.clear();
                    done.recv.parts.clear();
                    st.spare = Some(done);
                    st.rounds_done += 1;
                }
            }
        }
    }

    /// CUDA-aware transfer: the MPI library moves device buffers itself.
    /// Models the pathology the paper profiles (§IV-D): the library runs its
    /// transfers through the *default* stream of each involved device (so
    /// concurrent CUDA-aware messages on one GPU serialize) and performs
    /// per-message synchronization/setup (`cuda_aware_overhead`).
    fn cuda_aware_transfer(self: &Rc<Self>, k: &mut Kernel, send: PendingMsg, recv: PendingMsg) {
        let fabric = self.machine.fabric();
        let spec = fabric.node_spec();
        let comp_of = |b: &Buffer| match b.placement() {
            Placement::Device(d) => (self.machine.node_of(d), spec.gpu(self.machine.local_of(d))),
            Placement::Host(n, s) => (n, spec.cpu(s)),
        };
        let (n1, c1) = comp_of(&send.buf);
        let (n2, c2) = comp_of(&recv.buf);
        let path = if n1 == n2 {
            fabric.node_path(n1, c1, c2)
        } else {
            fabric.internode_comp_path(n1, c1, n2, c2)
        };
        if k.metrics.is_enabled() {
            k.metrics.counter_add(
                "mpi",
                "transport_bytes",
                &[("transport", "cuda-aware")],
                send.len,
            );
        }
        // The transfer occupies the default stream of *every* involved
        // device until the data lands: the MPI library stages its transfers
        // through the default stream and synchronizes around them, so all
        // CUDA-aware messages touching one GPU — sends and receives alike —
        // serialize. This is the pathology the paper profiles in §IV-D and
        // the mechanism behind Fig. 12c's degradation at scale: off-node
        // transfers are slow (NIC shares), and holding the device hostage
        // for each one prevents any overlap.
        let src_dev = send.buf.device();
        let dst_dev = recv.buf.device().filter(|d| Some(*d) != send.buf.device());
        let primary = src_dev
            .or(recv.buf.device())
            .expect("cuda-aware without device");
        let landed = k.completion();
        let mut t = self.transfer(k, path, send, recv, "MPI cuda-aware");
        t.landed = Some(landed.clone());
        let slot = self.transfers.borrow_mut().insert(t);
        let fifo_primary = self
            .machine
            .stream_fifo(self.machine.default_stream(primary));
        let st = Rc::clone(self);
        k.fifo_submit(fifo_primary, move |k, token| {
            let (bytes, landed) = {
                let mut transfers = st.transfers.borrow_mut();
                let t = transfers
                    .get_mut(slot)
                    .expect("transfer parked until it lands");
                t.start = k.now();
                (
                    t.bytes,
                    t.landed
                        .clone()
                        .expect("cuda-aware transfers release streams"),
                )
            };
            let overhead = st.cfg.cuda_aware_overhead + st.protocol_latency(bytes);
            let st2 = Rc::clone(&st);
            k.schedule_in(overhead, move |k| st2.start_transfer_flow(k, slot));
            k.on_complete(&landed, move |k| k.fifo_task_done(token));
        });
        if let Some(other) = dst_dev {
            let fifo_other = self.machine.stream_fifo(self.machine.default_stream(other));
            k.fifo_submit(fifo_other, move |k, token| {
                k.on_complete(&landed, move |k| k.fifo_task_done(token));
            });
        }
    }

    // ----- persistent / partitioned channels ------------------------------

    /// Register one end of a persistent or partitioned channel. Both ends
    /// must register under the same `(dst, src, tag)` key (in any order)
    /// before either side starts a round.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI *_init signature
    pub fn channel_init(
        &self,
        k: &mut Kernel,
        kind: ChanKind,
        side: ChanSide,
        my_rank: usize,
        peer: usize,
        tag: u64,
        buf: &Buffer,
        off: u64,
        len: u64,
        parts: usize,
    ) -> Channel {
        match kind {
            ChanKind::Persistent => assert!(
                self.persistent,
                "persistent channels used but WorldConfig::mpi_persistent is off"
            ),
            ChanKind::Partitioned => assert!(
                self.partitioned,
                "partitioned channels used but WorldConfig::mpi_partitioned is off"
            ),
        }
        assert!(off + len <= buf.len(), "channel region out of range");
        assert!(peer < self.num_ranks, "channel peer rank out of range");
        assert!(
            buf.device().is_none(),
            "persistent/partitioned channels require host buffers \
             (CUDA-aware persistent requests are not modeled)"
        );
        assert!(
            parts >= 1 && parts as u64 <= len.max(1),
            "bad partition count"
        );
        let key = match side {
            ChanSide::Send => (peer, my_rank, tag),
            ChanSide::Recv => (my_rank, peer, tag),
        };
        let end = ChanEnd {
            buf: buf.clone(),
            off,
            len,
            rank: my_rank,
        };
        let mut index = self.chan_index.borrow_mut();
        let mut channels = self.channels.borrow_mut();
        let id = *index.entry(key).or_insert_with(|| {
            channels.push(Rc::new(RefCell::new(ChannelState {
                kind,
                parts,
                send: None,
                recv: None,
                rounds_done: 0,
                cur: None,
                spare: None,
                revoked: false,
            })));
            channels.len() - 1
        });
        {
            let mut st = channels[id].borrow_mut();
            assert_eq!(st.kind, kind, "channel ends disagree on kind (key {key:?})");
            assert_eq!(
                st.parts, parts,
                "channel ends disagree on partition count (key {key:?})"
            );
            if let (ChanSide::Recv, Some(send)) = (side, &st.send) {
                assert!(len >= send.len, "channel receive region smaller than send");
            }
            if let (ChanSide::Send, Some(recv)) = (side, &st.recv) {
                assert!(recv.len >= len, "channel receive region smaller than send");
            }
            let slot = match side {
                ChanSide::Send => &mut st.send,
                ChanSide::Recv => &mut st.recv,
            };
            assert!(
                slot.is_none(),
                "duplicate channel init for the same end (key {key:?})"
            );
            *slot = Some(end);
        }
        if k.metrics.is_enabled() {
            let s = match side {
                ChanSide::Send => "send",
                ChanSide::Recv => "recv",
            };
            k.metrics.counter_add(
                "mpi",
                "channel_ends",
                &[("kind", kind.label()), ("side", s)],
                1,
            );
        }
        Channel {
            id,
            kind,
            side,
            parts,
        }
    }

    /// Start one round on a channel end. Returns the per-partition
    /// completions for this side (persistent channels have exactly one)
    /// plus the round's revocation flag. Partitions of a persistent
    /// channel — and none of a partitioned send until
    /// [`Self::channel_pready`] — begin flying as soon as both sides of
    /// the round have started. On a revoked channel the round resolves
    /// immediately: all completions done, flag set, no bytes.
    pub fn channel_start(
        self: &Rc<Self>,
        k: &mut Kernel,
        ch: &Channel,
    ) -> (Vec<Completion>, Rc<Cell<bool>>) {
        let state = Rc::clone(&self.channels.borrow()[ch.id]);
        let mut st = state.borrow_mut();
        assert!(
            st.send.is_some() && st.recv.is_some(),
            "channel started before both ends were initialized"
        );
        if st.revoked {
            let mine: Vec<Completion> = (0..st.parts).map(|_| k.completion()).collect();
            drop(st);
            for c in &mine {
                k.complete(c);
            }
            if k.metrics.is_enabled() {
                k.metrics
                    .counter_add("mpisim", "revoked_ops", &[("when", "channel-start")], 1);
            }
            return (mine, Rc::new(Cell::new(true)));
        }
        let parts = st.parts;
        let now = k.now();
        let st = &mut *st;
        let round = st
            .cur
            .get_or_insert_with(|| ChannelRoundState::begin(st.spare.take(), parts, now));
        let mine: Vec<Completion> = (0..parts).map(|_| k.completion()).collect();
        let flag = Rc::new(Cell::new(false));
        let (side, other_started, waited_side) = match ch.side {
            ChanSide::Send => (&mut round.send, round.recv.started, "recv"),
            ChanSide::Recv => (&mut round.recv, round.send.started, "send"),
        };
        assert!(!side.started, "channel end started twice in one round");
        side.started = true;
        side.parts.extend(mine.iter().cloned());
        side.flag = Some(Rc::clone(&flag));
        if ch.side == ChanSide::Send && ch.kind == ChanKind::Persistent {
            // The whole persistent message is implicitly ready at start.
            round.ready.iter_mut().for_each(|r| *r = true);
        }
        if k.metrics.is_enabled() {
            let s = match ch.side {
                ChanSide::Send => "send",
                ChanSide::Recv => "recv",
            };
            k.metrics.counter_add(
                "mpi",
                "channel_starts",
                &[("kind", ch.kind.label()), ("side", s)],
                1,
            );
            if ch.side == ChanSide::Send {
                let label = ch.kind.label();
                let len = st.send.as_ref().unwrap().len;
                k.metrics
                    .counter_add("mpi", "messages", &[("protocol", label)], 1);
                k.metrics
                    .counter_add("mpi", "message_bytes", &[("protocol", label)], len);
            }
            if other_started {
                let waited = k
                    .now()
                    .since(st.cur.as_ref().unwrap().first_started)
                    .picos() as f64;
                k.metrics
                    .observe("mpi", "match_wait_ps", &[("side", waited_side)], waited);
            }
        }
        self.channel_try_launch(k, &state, st);
        (mine, flag)
    }

    /// `MPI_Pready`: mark one partition of a partitioned send ready. Its
    /// bytes begin flying immediately if the receiver's round has started.
    pub fn channel_pready(self: &Rc<Self>, k: &mut Kernel, ch: &Channel, part: usize) {
        assert_eq!(ch.side, ChanSide::Send, "pready on a receive channel");
        assert_eq!(
            ch.kind,
            ChanKind::Partitioned,
            "pready on a persistent channel"
        );
        assert!(part < ch.parts, "partition index out of range");
        let state = Rc::clone(&self.channels.borrow()[ch.id]);
        let mut st = state.borrow_mut();
        if st.revoked {
            // The round already resolved as revoked; readiness is moot.
            return;
        }
        let round = st
            .cur
            .as_mut()
            .expect("pready before the send side started the round");
        assert!(
            round.send.started,
            "pready before the send side started the round"
        );
        assert!(!round.ready[part], "partition marked ready twice");
        round.ready[part] = true;
        if k.metrics.is_enabled() {
            k.metrics.counter_add("mpi", "partition_ready", &[], 1);
        }
        self.channel_try_launch(k, &state, &mut st);
    }

    /// Launch every partition that is ready and unlaunched, provided both
    /// sides of the round have started. Round 0 of a channel additionally
    /// pays the protocol handshake latency (rendezvous for large messages);
    /// later rounds reuse the negotiated match — the persistent win.
    fn channel_try_launch(
        self: &Rc<Self>,
        k: &mut Kernel,
        state: &Rc<RefCell<ChannelState>>,
        st: &mut ChannelState,
    ) {
        let Some(round) = st.cur.as_mut() else {
            return;
        };
        if !(round.send.started && round.recv.started) {
            return;
        }
        let send = st.send.as_ref().unwrap();
        let recv = st.recv.as_ref().unwrap();
        let (Placement::Host(n1, s1), Placement::Host(n2, s2)) =
            (send.buf.placement(), recv.buf.placement())
        else {
            unreachable!("channel ends are asserted host-resident at init");
        };
        let path = self.host_path(send.rank, (n1, s1), (n2, s2));
        let transport = if n1 == n2 { "shm" } else { "net" };
        let label: &'static str = match (st.kind, n1 == n2) {
            (ChanKind::Persistent, true) => "MPI persistent shm",
            (ChanKind::Persistent, false) => "MPI persistent net",
            (ChanKind::Partitioned, true) => "MPI partitioned shm",
            (ChanKind::Partitioned, false) => "MPI partitioned net",
        };
        let extra = if st.rounds_done == 0 {
            self.protocol_latency(send.len)
        } else {
            SimDuration::ZERO
        };
        let chunk = send.len.div_ceil(st.parts as u64);
        let track = self.rank_track[send.rank];
        for part in 0..st.parts {
            if !round.ready[part] || round.launched[part] {
                continue;
            }
            round.launched[part] = true;
            let rel = part as u64 * chunk;
            let bytes = chunk.min(send.len - rel);
            if k.metrics.is_enabled() {
                k.metrics
                    .counter_add("mpi", "transport_bytes", &[("transport", transport)], bytes);
            }
            let slot = self.transfers.borrow_mut().insert(Transfer {
                path: path.clone(),
                bytes,
                src: send.buf.clone(),
                src_off: send.off + rel,
                dst: recv.buf.clone(),
                dst_off: recv.off + rel,
                send_done: round.send.parts[part].clone(),
                recv_done: round.recv.parts[part].clone(),
                landed: None,
                chan: Some(Rc::clone(state)),
                track,
                label,
                start: k.now(),
            });
            let st = Rc::clone(self);
            k.schedule_in(extra, move |k| st.start_transfer_flow(k, slot));
        }
    }

    // ----- out-of-band typed messages (setup metadata, IPC handles) -------

    /// Send a typed value to `(dst, tag)`. Delivery is charged
    /// `obj_latency`; payloads are not byte-serialized (they model small
    /// setup messages whose transfer time is latency-dominated).
    pub fn send_obj(
        self: &Rc<Self>,
        k: &mut Kernel,
        src_rank: usize,
        dst_rank: usize,
        tag: u64,
        obj: Box<dyn Any>,
    ) {
        let key = (dst_rank, src_rank, tag);
        let state = Rc::clone(self);
        k.schedule_in(self.cfg.obj_latency, move |k| {
            let mut q = state.objs.borrow_mut();
            let entry = q.entry(key).or_default();
            entry.items.push_back(obj);
            if let Some(w) = entry.waiters.pop_front() {
                drop(q);
                k.complete(&w);
            }
        });
    }

    /// Take the next typed value from `(src, tag)`, if one has arrived.
    /// Otherwise returns a completion to wait on before retrying.
    pub fn try_recv_obj(
        &self,
        k: &mut Kernel,
        dst_rank: usize,
        src_rank: usize,
        tag: u64,
    ) -> Result<Box<dyn Any>, Completion> {
        let mut q = self.objs.borrow_mut();
        let entry = q.entry((dst_rank, src_rank, tag)).or_default();
        match entry.items.pop_front() {
            Some(obj) => Ok(obj),
            None => {
                let c = k.completion();
                entry.waiters.push_back(c.clone());
                Err(c)
            }
        }
    }

    // ----- rank lifecycle (kill / shrink / respawn) ------------------------

    /// Whether `rank` is currently alive.
    pub fn is_alive(&self, rank: usize) -> bool {
        self.life.borrow().alive[rank]
    }

    /// Number of currently alive ranks.
    pub fn alive_count(&self) -> usize {
        let life = self.life.borrow();
        life.alive.len() - life.dead
    }

    /// The currently alive ranks, ascending — the membership of the
    /// shrunken world every survivor agrees on (reads of shared state at
    /// one virtual instant are identical across ranks).
    pub fn alive_ranks(&self) -> Vec<usize> {
        let life = self.life.borrow();
        (0..life.alive.len()).filter(|&r| life.alive[r]).collect()
    }

    /// The communicator epoch: bumped on every kill and respawn. A
    /// fault-free world stays at epoch 0.
    pub fn failure_epoch(&self) -> u64 {
        self.life.borrow().epoch
    }

    /// A completion released when `rank` respawns, or `None` if it is
    /// already alive.
    pub fn respawn_completion(&self, k: &mut Kernel, rank: usize) -> Option<Completion> {
        let mut life = self.life.borrow_mut();
        if life.alive[rank] {
            return None;
        }
        let c = k.completion();
        life.respawn_waiters.push((rank, c.clone()));
        Some(c)
    }

    /// A completion released when every rank is alive, or `None` if the
    /// world is already whole.
    pub fn all_alive_completion(&self, k: &mut Kernel) -> Option<Completion> {
        let mut life = self.life.borrow_mut();
        if life.dead == 0 {
            return None;
        }
        let c = k.completion();
        life.all_alive_waiters.push(c.clone());
        Some(c)
    }

    /// Whether a channel handle has been revoked by a rank death. A
    /// revoked handle never transfers again; both ends must `*_init` a
    /// fresh channel (the re-handshake).
    pub fn channel_revoked(&self, ch: &Channel) -> bool {
        self.channels.borrow()[ch.id].borrow().revoked
    }

    /// Install the rank kill/respawn events of `schedule` as kernel
    /// timers, offsets measured from `base`. Link/device events are *not*
    /// installed here — pair with [`FaultSchedule::install_at`], which
    /// skips rank events; together the two passes install every event
    /// exactly once. A schedule without rank events registers nothing.
    pub fn install_rank_faults(
        self: &Rc<Self>,
        k: &mut Kernel,
        schedule: &FaultSchedule,
        base: SimTime,
    ) {
        for (at, rank, action) in schedule.rank_events() {
            assert!(rank < self.num_ranks, "rank fault target out of range");
            let st = Rc::clone(self);
            match action {
                FaultAction::Kill => {
                    k.schedule_at(base + at, move |k| st.kill_rank(k, rank));
                }
                FaultAction::Respawn => {
                    k.schedule_at(base + at, move |k| st.respawn_rank(k, rank));
                }
                _ => unreachable!("rank events carry only Kill/Respawn (validated at build)"),
            }
        }
    }

    /// Kill `rank`: the ULFM-style failure transition.
    ///
    /// * Pending (unmatched) sends/receives with `rank` as either endpoint
    ///   resolve as revoked. Matched transfers already in flight land
    ///   normally — the bytes were on the wire.
    /// * Every channel is revoked, communicator-wide (`MPI_Comm_revoke`):
    ///   in-flight rounds resolve as revoked, old handles are dead, and
    ///   the channel index is cleared so survivors and a respawned rank
    ///   re-handshake fresh channels under the same keys.
    /// * Receivers parked on out-of-band objects from `rank` are woken
    ///   (they re-park; see `RankCtx::recv_obj` — resilient protocols must
    ///   not block on a dead peer's setup messages).
    /// * The barrier stops counting `rank`: a round waiting only on dead
    ///   ranks releases to its survivors — the shrunken-world agreement.
    ///
    /// Idempotent; killing a dead rank is a no-op.
    pub fn kill_rank(self: &Rc<Self>, k: &mut Kernel, rank: usize) {
        {
            let mut life = self.life.borrow_mut();
            if !life.alive[rank] {
                return;
            }
            life.alive[rank] = false;
            life.dead += 1;
            life.epoch += 1;
        }
        let mut to_complete: Vec<Completion> = Vec::new();
        let mut revoked_ops = 0u64;
        {
            let mut q = self.queues.borrow_mut();
            for (key, mq) in q.iter_mut() {
                if key.0 != rank && key.1 != rank {
                    continue;
                }
                for msg in mq.sends.drain(..).chain(mq.recvs.drain(..)) {
                    msg.revoked.set(true);
                    to_complete.push(msg.done);
                    revoked_ops += 1;
                }
            }
        }
        {
            let index_len = {
                let mut index = self.chan_index.borrow_mut();
                let n = index.len();
                index.clear();
                n
            };
            let channels = self.channels.borrow();
            for chan in channels.iter() {
                let mut st = chan.borrow_mut();
                if st.revoked {
                    continue;
                }
                st.revoked = true;
                if let Some(round) = st.cur.take() {
                    for side in [round.send, round.recv] {
                        if let Some(flag) = &side.flag {
                            flag.set(true);
                        }
                        if side.started {
                            to_complete.extend(side.parts);
                            revoked_ops += 1;
                        }
                    }
                }
            }
            let _ = index_len;
        }
        {
            let mut q = self.objs.borrow_mut();
            for (key, oq) in q.iter_mut() {
                if key.0 == rank || key.1 == rank {
                    to_complete.extend(oq.waiters.drain(..));
                }
            }
        }
        self.barrier_drop_rank(k, rank);
        for c in &to_complete {
            k.complete(c);
        }
        if k.metrics.is_enabled() {
            k.metrics
                .counter_add("mpisim", "rank_transitions", &[("action", "kill")], 1);
            if revoked_ops > 0 {
                k.metrics
                    .counter_add("mpisim", "revoked_ops", &[("when", "kill")], revoked_ops);
            }
        }
    }

    /// Respawn `rank`: it rejoins the world (epoch bumps again), waiters
    /// parked on its return — and, once the world is whole, on
    /// all-alive — are released, and the barrier counts it again.
    /// Idempotent; respawning a live rank is a no-op.
    pub fn respawn_rank(self: &Rc<Self>, k: &mut Kernel, rank: usize) {
        let mut wake: Vec<Completion> = Vec::new();
        {
            let mut life = self.life.borrow_mut();
            if life.alive[rank] {
                return;
            }
            life.alive[rank] = true;
            life.dead -= 1;
            life.epoch += 1;
            let mut i = 0;
            while i < life.respawn_waiters.len() {
                if life.respawn_waiters[i].0 == rank {
                    wake.push(life.respawn_waiters.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            if life.dead == 0 {
                wake.append(&mut life.all_alive_waiters);
            }
        }
        // If the rank is parked at the barrier (it arrived dead, or died
        // after arriving), its arrival counts again.
        {
            let mut b = self.barrier.borrow_mut();
            if b.arrived[rank] {
                b.alive_arrived += 1;
            }
        }
        self.barrier_maybe_release(k);
        for c in &wake {
            k.complete(c);
        }
        if k.metrics.is_enabled() {
            k.metrics
                .counter_add("mpisim", "rank_transitions", &[("action", "respawn")], 1);
        }
    }

    /// Barrier bookkeeping for a kill: the dead rank's arrival (if any)
    /// stops counting, and a round now waiting only on dead ranks releases
    /// to its survivors.
    fn barrier_drop_rank(&self, k: &mut Kernel, rank: usize) {
        {
            let mut b = self.barrier.borrow_mut();
            if b.arrived[rank] {
                b.alive_arrived -= 1;
            }
        }
        self.barrier_maybe_release(k);
    }

    /// One rank arrives at the barrier. Returns the round's release
    /// completion to park on.
    pub fn barrier_arrive(&self, k: &mut Kernel, rank: usize) -> Completion {
        let (me_alive, rel) = {
            let alive = self.is_alive(rank);
            let mut b = self.barrier.borrow_mut();
            debug_assert!(!b.arrived[rank], "rank re-entered barrier before release");
            b.arrived[rank] = true;
            if alive {
                b.alive_arrived += 1;
            }
            (alive, b.release.clone())
        };
        if me_alive {
            self.barrier_maybe_release(k);
        }
        rel
    }

    /// Release the barrier if every alive rank has arrived. The release
    /// delay models the `ceil(log2 n)` hops of a dissemination barrier,
    /// unchanged from the fault-free path.
    fn barrier_maybe_release(&self, k: &mut Kernel) {
        let alive_total = self.alive_count();
        let mut b = self.barrier.borrow_mut();
        if b.alive_arrived == 0 || b.alive_arrived != alive_total {
            return;
        }
        b.arrived.iter_mut().for_each(|f| *f = false);
        b.alive_arrived = 0;
        let rel = std::mem::replace(&mut b.release, k.completion());
        drop(b);
        let n = self.num_ranks;
        let hops = (n as f64).log2().ceil() as u64;
        let d = SimDuration::from_picos(self.cfg.barrier_hop.picos() * hops.max(1));
        k.schedule_in(d, move |k| k.complete(&rel));
    }
}
