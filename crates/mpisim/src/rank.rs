//! The per-rank API: what a simulated MPI rank program sees.

use std::any::Any;
use std::rc::Rc;

use detsim::{SimCtx, SimTime};
use faultsim::FaultSchedule;
use gpusim::{Buffer, GpuMachine};

use crate::transport::{ChanKind, ChanSide, Channel, ChannelRound, MpiState, Request};

/// Handle given to each rank program: its identity, its GPUs, and the MPI
/// operations. Mirrors the subset of MPI + CUDA context the paper's library
/// uses.
pub struct RankCtx<'a> {
    pub(crate) sim: &'a SimCtx,
    pub(crate) st: Rc<MpiState>,
    pub(crate) rank: usize,
}

impl<'a> RankCtx<'a> {
    /// This rank's id in the world communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (total ranks).
    pub fn size(&self) -> usize {
        self.st.num_ranks
    }

    /// Node index this rank runs on.
    pub fn node(&self) -> usize {
        self.st.node_of_rank(self.rank)
    }

    /// Ranks co-located on each node.
    pub fn ranks_per_node(&self) -> usize {
        self.st.ranks_per_node
    }

    /// Whether the MPI library is CUDA-aware in this run.
    pub fn cuda_aware(&self) -> bool {
        self.st.cuda_aware
    }

    /// Whether the MPI library implements persistent requests
    /// (`send_init`/`recv_init`/`start`) in this run.
    pub fn mpi_persistent(&self) -> bool {
        self.st.persistent
    }

    /// Whether the MPI library implements partitioned communication
    /// (`psend_init`/`precv_init`/`pready`) in this run.
    pub fn mpi_partitioned(&self) -> bool {
        self.st.partitioned
    }

    /// Global device ids of the GPUs this rank controls (GPUs of its node
    /// split evenly among the node's ranks).
    pub fn gpus(&self) -> Vec<usize> {
        let gpn = self.st.machine.gpus_per_node();
        let rpn = self.st.ranks_per_node;
        assert!(
            gpn.is_multiple_of(rpn),
            "gpus per node ({gpn}) must divide evenly among ranks per node ({rpn})"
        );
        let per_rank = gpn / rpn;
        let node = self.node();
        let slot = self.rank % rpn;
        (0..per_rank)
            .map(|i| self.st.machine.device_at(node, slot * per_rank + i))
            .collect()
    }

    /// The simulated GPU machine.
    pub fn machine(&self) -> &GpuMachine {
        &self.st.machine
    }

    /// The underlying simulation context (delays, waits, kernel access).
    pub fn sim(&self) -> &SimCtx {
        self.sim
    }

    /// `MPI_Wtime`: virtual seconds since simulation start.
    pub fn wtime(&self) -> f64 {
        self.sim.now().as_secs_f64()
    }

    /// Memoize a deterministic setup computation across the world's ranks.
    ///
    /// Every rank of a world often derives the *same* pure function of the
    /// world's geometry during setup (partitions, placements, plan shapes).
    /// Under the coroutine runtime all ranks share one address space and one
    /// OS thread, so recomputing it per rank multiplies a milliseconds-scale
    /// computation by the world size for no semantic benefit. This helper
    /// runs `build` on the first rank to ask for `key` and hands every later
    /// caller the shared result.
    ///
    /// Correctness contract (the caller's obligations):
    ///
    /// * `build` must be **pure compute**: it must not perform simulation
    ///   operations (no delays, sends, waits — nothing that advances
    ///   virtual time or yields the run token). The cache stays borrowed
    ///   while it runs, and virtual time must not depend on which rank
    ///   happened to populate the cache.
    /// * Every rank using `key` must pass a `build` that would produce a
    ///   value-identical result, so sharing is unobservable.
    ///
    /// Panics if `key` was previously populated with a different type.
    ///
    /// ```no_run
    /// # fn partition_for(_w: usize) -> Vec<usize> { Vec::new() }
    /// # fn demo(ctx: &mpisim::RankCtx) {
    /// let part = ctx.cached_setup("my-lib/partition", || partition_for(ctx.size()));
    /// # }
    /// ```
    pub fn cached_setup<T, F>(&self, key: &str, build: F) -> Rc<T>
    where
        T: Any,
        F: FnOnce() -> T,
    {
        let mut cache = self.st.setup_cache.borrow_mut();
        let entry = match cache.get(key) {
            Some(v) => Rc::clone(v),
            None => {
                let v: Rc<dyn Any> = Rc::new(build());
                cache.insert(key.to_string(), Rc::clone(&v));
                v
            }
        };
        entry
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("cached_setup: type mismatch for key {key:?}"))
    }

    // ----- point-to-point ---------------------------------------------------

    /// `MPI_Isend`: post a non-blocking send of `buf[off..off+len]`.
    pub fn isend(&self, buf: &Buffer, off: u64, len: u64, dst: usize, tag: u64) -> Request {
        self.sim.delay(self.st.cfg.call_overhead);
        self.sim
            .with_kernel(|k| self.st.isend(k, self.rank, dst, tag, buf, off, len))
    }

    /// `MPI_Irecv`: post a non-blocking receive into `buf[off..off+len]`.
    pub fn irecv(&self, buf: &Buffer, off: u64, len: u64, src: usize, tag: u64) -> Request {
        self.sim.delay(self.st.cfg.call_overhead);
        self.sim
            .with_kernel(|k| self.st.irecv(k, self.rank, src, tag, buf, off, len))
    }

    /// `MPI_Wait`. Returns normally for revoked requests too — check
    /// [`Request::is_revoked`] when running under rank faults.
    pub fn wait(&self, req: &Request) {
        self.sim.wait(&req.done);
    }

    /// `MPI_Waitall`.
    pub fn wait_all(&self, reqs: &[Request]) {
        for r in reqs {
            self.wait(r);
        }
    }

    /// Blocking send (Isend + Wait).
    pub fn send(&self, buf: &Buffer, off: u64, len: u64, dst: usize, tag: u64) {
        let r = self.isend(buf, off, len, dst, tag);
        self.wait(&r);
    }

    /// Blocking receive (Irecv + Wait).
    pub fn recv(&self, buf: &Buffer, off: u64, len: u64, src: usize, tag: u64) {
        let r = self.irecv(buf, off, len, src, tag);
        self.wait(&r);
    }

    // ----- persistent / partitioned channels --------------------------------

    /// `MPI_Send_init`: set up a persistent send of `buf[off..off+len]` to
    /// `(dst, tag)`. Pays full `call_overhead` once, here; each later
    /// [`Self::start`] pays only `persistent_start_overhead`.
    pub fn send_init(&self, buf: &Buffer, off: u64, len: u64, dst: usize, tag: u64) -> Channel {
        self.sim.delay(self.st.cfg.call_overhead);
        self.sim.with_kernel(|k| {
            self.st.channel_init(
                k,
                ChanKind::Persistent,
                ChanSide::Send,
                self.rank,
                dst,
                tag,
                buf,
                off,
                len,
                1,
            )
        })
    }

    /// `MPI_Recv_init`: set up a persistent receive into
    /// `buf[off..off+len]` from `(src, tag)`.
    pub fn recv_init(&self, buf: &Buffer, off: u64, len: u64, src: usize, tag: u64) -> Channel {
        self.sim.delay(self.st.cfg.call_overhead);
        self.sim.with_kernel(|k| {
            self.st.channel_init(
                k,
                ChanKind::Persistent,
                ChanSide::Recv,
                self.rank,
                src,
                tag,
                buf,
                off,
                len,
                1,
            )
        })
    }

    /// `MPI_Psend_init`: set up a partitioned send of `buf[off..off+len]`
    /// split into `parts` equal partitions, each released individually with
    /// [`Self::pready`].
    pub fn psend_init(
        &self,
        buf: &Buffer,
        off: u64,
        len: u64,
        dst: usize,
        tag: u64,
        parts: usize,
    ) -> Channel {
        self.sim.delay(self.st.cfg.call_overhead);
        self.sim.with_kernel(|k| {
            self.st.channel_init(
                k,
                ChanKind::Partitioned,
                ChanSide::Send,
                self.rank,
                dst,
                tag,
                buf,
                off,
                len,
                parts,
            )
        })
    }

    /// `MPI_Precv_init`: set up a partitioned receive into
    /// `buf[off..off+len]` with `parts` partitions (must equal the
    /// sender's).
    pub fn precv_init(
        &self,
        buf: &Buffer,
        off: u64,
        len: u64,
        src: usize,
        tag: u64,
        parts: usize,
    ) -> Channel {
        self.sim.delay(self.st.cfg.call_overhead);
        self.sim.with_kernel(|k| {
            self.st.channel_init(
                k,
                ChanKind::Partitioned,
                ChanSide::Recv,
                self.rank,
                src,
                tag,
                buf,
                off,
                len,
                parts,
            )
        })
    }

    /// `MPI_Start` on a channel end: begin one round. Persistent sends fly
    /// as soon as both sides have started; partitioned sends additionally
    /// wait for each partition's [`Self::pready`]. Wait on
    /// [`ChannelRound::all`] (or the per-partition
    /// [`ChannelRound::parts`]) before starting the next round on this end.
    pub fn start(&self, ch: &Channel) -> ChannelRound {
        self.sim.delay(self.st.cfg.persistent_start_overhead);
        let (parts, revoked) = self.sim.with_kernel(|k| self.st.channel_start(k, ch));
        // A one-partition round (every persistent one) completes with its
        // partition: no aggregate completion is needed.
        let all = match &parts[..] {
            [only] => only.clone(),
            _ => self.sim.with_kernel(|k| k.completion_all(&parts)),
        };
        ChannelRound {
            all: Request { done: all, revoked },
            parts,
        }
    }

    /// `MPI_Pready`: release partition `part` of a started partitioned
    /// send. Its bytes begin flying immediately (if the receiver's round
    /// has started), overlapping with the packing of later partitions.
    pub fn pready(&self, ch: &Channel, part: usize) {
        self.sim.delay(self.st.cfg.partition_ready_overhead);
        self.sim
            .with_kernel(|k| self.st.channel_pready(k, ch, part));
    }

    // ----- typed out-of-band messages ---------------------------------------

    /// Send a small typed setup message (subdomain metadata, IPC handles) to
    /// `dst`. Models an eager small MPI message without byte serialization.
    pub fn send_obj<T: Any>(&self, dst: usize, tag: u64, value: T) {
        self.sim.delay(self.st.cfg.call_overhead);
        self.sim
            .with_kernel(|k| self.st.send_obj(k, self.rank, dst, tag, Box::new(value)));
    }

    /// Receive a typed setup message from `src`. Blocks until it arrives;
    /// panics if the arriving payload has a different type.
    pub fn recv_obj<T: Any>(&self, src: usize, tag: u64) -> T {
        self.sim.delay(self.st.cfg.call_overhead);
        loop {
            let got = self
                .sim
                .with_kernel(|k| self.st.try_recv_obj(k, self.rank, src, tag));
            match got {
                Ok(obj) => {
                    return *obj
                        .downcast::<T>()
                        .unwrap_or_else(|_| panic!("recv_obj: unexpected payload type"));
                }
                Err(arrival) => self.sim.wait(&arrival),
            }
        }
    }

    // ----- rank lifecycle (shrink-or-respawn worlds) ------------------------

    /// Whether `rank` is currently alive (`MPIX_Comm_failure_ack`-style
    /// local knowledge — in the simulator, exact and globally agreed).
    pub fn is_alive(&self, rank: usize) -> bool {
        self.st.is_alive(rank)
    }

    /// Number of currently alive ranks.
    pub fn alive_count(&self) -> usize {
        self.st.alive_count()
    }

    /// The alive ranks in ascending order: the membership of the shrunken
    /// world (`MPIX_Comm_shrink` semantics). Every rank reading this at the
    /// same virtual instant sees the same membership.
    pub fn alive_ranks(&self) -> Vec<usize> {
        self.st.alive_ranks()
    }

    /// The communicator epoch: bumped on every kill and respawn. Zero for
    /// a fault-free world. Compare epochs to detect membership changes
    /// since a plan or channel set was built.
    pub fn failure_epoch(&self) -> u64 {
        self.st.failure_epoch()
    }

    /// Block until `rank` is alive. Returns immediately if it already is.
    pub fn await_respawn(&self, rank: usize) {
        let waiter = self
            .sim
            .with_kernel(|k| self.st.respawn_completion(k, rank));
        if let Some(c) = waiter {
            self.sim.wait(&c);
        }
    }

    /// Block until every rank of the world is alive. Returns immediately
    /// if the world is already whole.
    pub fn await_all_alive(&self) {
        let waiter = self.sim.with_kernel(|k| self.st.all_alive_completion(k));
        if let Some(c) = waiter {
            self.sim.wait(&c);
        }
    }

    /// Whether a channel handle was revoked by a rank death. Revoked
    /// handles never transfer again; re-init a fresh channel under the
    /// same key (the re-handshake).
    pub fn channel_revoked(&self, ch: &Channel) -> bool {
        self.st.channel_revoked(ch)
    }

    /// Install a fault schedule mid-run, offsets measured from `base`:
    /// link/device events via [`faultsim::FaultSchedule::install_at`] and
    /// rank kill/respawn events as communicator transitions. Call from
    /// exactly one rank (events are world-global); a schedule installed a
    /// second time would fire twice.
    pub fn install_faults_at(&self, schedule: &FaultSchedule, base: SimTime) {
        self.sim.with_kernel(|k| {
            schedule.install_at(k, &self.st.machine, base);
            self.st.install_rank_faults(k, schedule, base);
        });
    }

    // ----- collectives -------------------------------------------------------

    /// `MPI_Barrier` over the world communicator. Under rank faults the
    /// barrier counts only *alive* ranks: a round whose missing arrivals
    /// are all dead releases to its survivors (the shrunken-world
    /// agreement). The release delay still models `ceil(log2 n)`
    /// dissemination hops of the full world size, so a fault-free run is
    /// bit-identical to the pre-resilience barrier.
    pub fn barrier(&self) {
        self.sim.delay(self.st.cfg.call_overhead);
        if self.st.num_ranks == 1 {
            return;
        }
        let release = self
            .sim
            .with_kernel(|k| self.st.barrier_arrive(k, self.rank));
        self.sim.wait(&release);
    }

    /// Gather one typed value from every rank onto all ranks, in rank order.
    /// Convenience for small-scale setup exchanges (O(n) messages per rank —
    /// fine at setup time; not used on hot paths).
    pub fn all_gather_obj<T: Any + Clone>(&self, tag: u64, value: T) -> Vec<T> {
        let n = self.st.num_ranks;
        for dst in 0..n {
            if dst != self.rank {
                self.send_obj(dst, tag, value.clone());
            }
        }
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        out[self.rank] = Some(value);
        for (src, slot) in out.iter_mut().enumerate() {
            if src != self.rank {
                *slot = Some(self.recv_obj::<T>(src, tag));
            }
        }
        out.into_iter().map(|v| v.expect("gathered")).collect()
    }
}
