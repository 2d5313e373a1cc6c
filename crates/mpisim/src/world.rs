//! The cluster world: builds the whole simulated machine and runs one
//! program per MPI rank.

use std::rc::Rc;

use detsim::{Program, Sim, SimDuration};
use faultsim::FaultSchedule;
use gpusim::{DataMode, GpuCostModel, GpuMachine};
use topo::ClusterSpec;

use crate::config::MpiCostModel;
use crate::rank::RankCtx;
use crate::transport::MpiState;

/// Everything needed to stand up a simulated job.
#[derive(Clone)]
pub struct WorldConfig {
    /// The machine.
    pub cluster: ClusterSpec,
    /// MPI ranks per node (must divide the node's GPU count).
    pub ranks_per_node: usize,
    /// GPU runtime cost model.
    pub gpu_cost: GpuCostModel,
    /// MPI cost model.
    pub mpi_cost: MpiCostModel,
    /// Whether buffers carry real bytes.
    pub data_mode: DataMode,
    /// Whether the MPI library accepts device pointers.
    pub cuda_aware: bool,
    /// Whether the MPI library implements persistent requests
    /// (`send_init`/`recv_init`/`start`). Off by default, like
    /// `cuda_aware`: runs that never ask for the capability are
    /// bit-identical to builds without it.
    pub mpi_persistent: bool,
    /// Whether the MPI library implements partitioned communication
    /// (`psend_init`/`precv_init`/`pready`). Off by default.
    pub mpi_partitioned: bool,
    /// Record a timeline trace.
    pub trace: bool,
    /// Record metrics (counters, gauges, histograms across every layer).
    pub metrics: bool,
    /// Deterministic fault schedule installed at virtual time zero. The
    /// default (empty) schedule registers no events, leaving the run
    /// bit-identical to one without fault injection.
    pub faults: FaultSchedule,
}

impl WorldConfig {
    /// Defaults: full data, no CUDA-aware, no trace.
    pub fn new(cluster: ClusterSpec, ranks_per_node: usize) -> Self {
        WorldConfig {
            cluster,
            ranks_per_node,
            gpu_cost: GpuCostModel::default(),
            mpi_cost: MpiCostModel::default(),
            data_mode: DataMode::Full,
            cuda_aware: false,
            mpi_persistent: false,
            mpi_partitioned: false,
            trace: false,
            metrics: false,
            faults: FaultSchedule::new(),
        }
    }

    /// Enable/disable CUDA-aware MPI.
    pub fn cuda_aware(mut self, on: bool) -> Self {
        self.cuda_aware = on;
        self
    }

    /// Enable/disable persistent-request support in the simulated MPI.
    pub fn mpi_persistent(mut self, on: bool) -> Self {
        self.mpi_persistent = on;
        self
    }

    /// Enable/disable partitioned-communication support in the simulated
    /// MPI.
    pub fn mpi_partitioned(mut self, on: bool) -> Self {
        self.mpi_partitioned = on;
        self
    }

    /// Set the data mode.
    pub fn data_mode(mut self, mode: DataMode) -> Self {
        self.data_mode = mode;
        self
    }

    /// Enable timeline tracing.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enable metrics collection (disabled by default; zero overhead when
    /// off). The collected registry is returned as
    /// [`WorldReport::metrics`].
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Install a deterministic fault schedule (see [`faultsim`]). Event
    /// offsets are measured from virtual time zero.
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = schedule;
        self
    }

    /// Total ranks.
    pub fn num_ranks(&self) -> usize {
        self.cluster.num_nodes * self.ranks_per_node
    }
}

/// Results of a completed run.
pub struct WorldReport {
    /// Final virtual time (job duration).
    pub elapsed: SimDuration,
    /// Bytes injected into the network by each node (diagnostics).
    pub nic_injected: Vec<u64>,
    /// Peak utilization of each node's injection link (diagnostics; > 1.0
    /// would indicate a flow-model bug).
    pub nic_peak_util: Vec<f64>,
    /// Load-integral bytes for each node's injection link (diagnostics).
    pub nic_busy_bytes: Vec<f64>,
    /// Number of simulator events executed (diagnostics).
    pub executed_events: u64,
    /// Chrome trace JSON, if tracing was enabled.
    pub trace_json: Option<String>,
    /// ASCII timeline, if tracing was enabled.
    pub trace_ascii: Option<String>,
    /// Metrics registry snapshot, if metrics were enabled.
    pub metrics: Option<detsim::MetricsReport>,
}

/// Run `program` once per rank on a freshly built world. Blocks until every
/// rank returns; returns timing and (optionally) trace output.
///
/// The program receives a [`RankCtx`]; share results out through captured
/// `Rc<RefCell<..>>` state.
pub fn run_world<F>(config: WorldConfig, program: F) -> WorldReport
where
    F: Fn(&RankCtx) + 'static,
{
    let num_ranks = config.num_ranks();
    assert!(num_ranks > 0, "world with zero ranks");
    assert!(
        config
            .cluster
            .node
            .num_gpus()
            .is_multiple_of(config.ranks_per_node),
        "ranks per node ({}) must divide GPUs per node ({})",
        config.ranks_per_node,
        config.cluster.node.num_gpus()
    );
    let mut sim = Sim::new();
    let st = sim.with_kernel(|k| {
        if config.trace {
            k.trace.enable();
        }
        if config.metrics {
            k.metrics.enable();
        }
        let machine = GpuMachine::new(
            k,
            config.cluster.clone(),
            config.gpu_cost.clone(),
            config.data_mode,
        );
        config.faults.install(k, &machine);
        let st = MpiState::new(
            k,
            machine,
            config.mpi_cost.clone(),
            config.cuda_aware,
            config.mpi_persistent,
            config.mpi_partitioned,
            config.ranks_per_node,
        );
        // Link/device events were installed above; rank kill/respawn events
        // need the communicator state and are installed here. A schedule
        // without rank events registers nothing (faults-off runs untouched).
        st.install_rank_faults(k, &config.faults, detsim::SimTime::ZERO);
        st
    });
    let program = Rc::new(program);
    let programs: Vec<Program> = (0..num_ranks)
        .map(|rank| {
            let st = Rc::clone(&st);
            let program = Rc::clone(&program);
            Box::new(move |sim_ctx: &detsim::SimCtx| {
                debug_assert_eq!(sim_ctx.tid(), rank);
                let ctx = RankCtx {
                    sim: sim_ctx,
                    st,
                    rank,
                };
                program(&ctx);
            }) as Program
        })
        .collect();
    sim.run_programs(programs);
    let elapsed = sim.now().since(detsim::SimTime::ZERO);
    let machine = st.machine.clone();
    sim.with_kernel(|k| WorldReport {
        elapsed,
        nic_injected: if machine.num_nodes() > 1 {
            (0..machine.num_nodes())
                .map(|n| k.link_delivered(machine.fabric().injection_link(n)))
                .collect()
        } else {
            Vec::new()
        },
        nic_peak_util: if machine.num_nodes() > 1 {
            (0..machine.num_nodes())
                .map(|n| k.link_peak_utilization(machine.fabric().injection_link(n)))
                .collect()
        } else {
            Vec::new()
        },
        nic_busy_bytes: if machine.num_nodes() > 1 {
            (0..machine.num_nodes())
                .map(|n| k.link_busy_bytes(machine.fabric().injection_link(n)))
                .collect()
        } else {
            Vec::new()
        },
        executed_events: k.executed_events(),
        trace_json: k.trace.is_enabled().then(|| k.trace.to_chrome_json()),
        trace_ascii: k.trace.is_enabled().then(|| k.trace.to_ascii(100)),
        metrics: k.metrics.is_enabled().then(|| k.metrics.report()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use topo::summit::summit_cluster;

    fn cfg(nodes: usize, rpn: usize) -> WorldConfig {
        WorldConfig::new(summit_cluster(nodes), rpn)
    }

    #[test]
    fn world_runs_every_rank() {
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = Rc::clone(&hits);
        run_world(cfg(2, 6), move |ctx| {
            h.borrow_mut().push((ctx.rank(), ctx.node()));
        });
        let mut v = hits.borrow_mut().clone();
        v.sort();
        assert_eq!(v.len(), 12);
        assert_eq!(v[0], (0, 0));
        assert_eq!(v[11], (11, 1));
    }

    #[test]
    fn gpu_assignment_partitions_node() {
        let out = Rc::new(RefCell::new(vec![Vec::new(); 4]));
        let o = Rc::clone(&out);
        run_world(cfg(2, 2), move |ctx| {
            o.borrow_mut()[ctx.rank()] = ctx.gpus();
        });
        let v = out.borrow_mut().clone();
        assert_eq!(v[0], vec![0, 1, 2]);
        assert_eq!(v[1], vec![3, 4, 5]);
        assert_eq!(v[2], vec![6, 7, 8]);
        assert_eq!(v[3], vec![9, 10, 11]);
    }

    #[test]
    fn single_rank_per_node_owns_all_gpus() {
        let out = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&out);
        run_world(cfg(1, 1), move |ctx| {
            *o.borrow_mut() = ctx.gpus();
        });
        assert_eq!(*out.borrow_mut(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn uneven_rank_split_rejected() {
        run_world(cfg(1, 4), |_| {});
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = Rc::clone(&times);
        run_world(cfg(1, 6), move |ctx| {
            // stagger arrivals
            ctx.sim()
                .delay(SimDuration::from_micros(10 * ctx.rank() as u64));
            ctx.barrier();
            t.borrow_mut().push(ctx.wtime());
        });
        let v = times.borrow_mut().clone();
        assert_eq!(v.len(), 6);
        let first = v[0];
        for &x in &v {
            assert!((x - first).abs() < 1e-12, "all exit barrier together");
        }
        assert!(first >= 50e-6, "barrier waits for slowest arrival");
    }

    #[test]
    fn host_send_recv_moves_data_intra_node() {
        let ok = Rc::new(RefCell::new(false));
        let o = Rc::clone(&ok);
        run_world(cfg(1, 2), move |ctx| {
            let m = ctx.machine();
            if ctx.rank() == 0 {
                let buf = m.alloc_host_untimed(0, 0, 1024);
                buf.write(0, &[42u8; 1024]);
                ctx.send(&buf, 0, 1024, 1, 7);
            } else {
                let buf = m.alloc_host_untimed(0, 1, 1024);
                ctx.recv(&buf, 0, 1024, 0, 7);
                let mut got = [0u8; 1024];
                buf.read(0, &mut got);
                *o.borrow_mut() = got.iter().all(|&b| b == 42);
            }
        });
        assert!(*ok.borrow_mut());
    }

    #[test]
    fn internode_transfer_charges_nic_time() {
        let dt = Rc::new(RefCell::new(0.0));
        let d = Rc::clone(&dt);
        run_world(cfg(2, 1), move |ctx| {
            let m = ctx.machine();
            let bytes = 25_000_000u64; // 1 ms at 25 GB/s injection
            if ctx.rank() == 0 {
                let buf = m.alloc_host_untimed(0, 0, bytes);
                ctx.send(&buf, 0, bytes, 1, 0);
            } else {
                let buf = m.alloc_host_untimed(1, 0, bytes);
                let t0 = ctx.wtime();
                ctx.recv(&buf, 0, bytes, 0, 0);
                *d.borrow_mut() = ctx.wtime() - t0;
            }
        });
        let secs = *dt.borrow_mut();
        assert!(secs > 0.001 && secs < 0.00105, "25MB over IB ~1ms: {secs}");
    }

    #[test]
    fn shm_transfer_slower_than_nvlink_rate() {
        let dt = Rc::new(RefCell::new(0.0));
        let d = Rc::clone(&dt);
        run_world(cfg(1, 2), move |ctx| {
            let m = ctx.machine();
            let bytes = 10_000_000u64; // 1 ms at shm 10 GB/s
            if ctx.rank() == 0 {
                let buf = m.alloc_host_untimed(0, 0, bytes);
                let t0 = ctx.wtime();
                ctx.send(&buf, 0, bytes, 1, 0);
                *d.borrow_mut() = ctx.wtime() - t0;
            } else {
                let buf = m.alloc_host_untimed(0, 1, bytes);
                ctx.recv(&buf, 0, bytes, 0, 0);
            }
        });
        let secs = *dt.borrow_mut();
        assert!(secs > 0.001 && secs < 0.0011, "10MB over shm ~1ms: {secs}");
    }

    #[test]
    fn one_rank_sends_serialize_on_progress_engine() {
        // Rank 0 sends two large messages to ranks 1 and 2 concurrently:
        // both flow through rank 0's shm engine and share its bandwidth.
        let dt = Rc::new(RefCell::new(0.0));
        let d = Rc::clone(&dt);
        run_world(cfg(1, 3), move |ctx| {
            let m = ctx.machine();
            let bytes = 10_000_000u64;
            if ctx.rank() == 0 {
                let a = m.alloc_host_untimed(0, 0, bytes);
                let b = m.alloc_host_untimed(0, 0, bytes);
                let t0 = ctx.wtime();
                let r1 = ctx.isend(&a, 0, bytes, 1, 0);
                let r2 = ctx.isend(&b, 0, bytes, 2, 0);
                ctx.wait_all(&[r1, r2]);
                *d.borrow_mut() = ctx.wtime() - t0;
            } else {
                let buf = m.alloc_host_untimed(0, 0, bytes);
                ctx.recv(&buf, 0, bytes, 0, 0);
            }
        });
        let secs = *dt.borrow_mut();
        assert!(secs > 0.0019, "two 1ms sends share one engine: {secs}");
    }

    #[test]
    fn obj_channel_round_trip() {
        #[derive(Clone, PartialEq, Debug)]
        struct Meta {
            id: usize,
            shape: [u64; 3],
        }
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        run_world(cfg(1, 2), move |ctx| {
            if ctx.rank() == 0 {
                ctx.send_obj(
                    1,
                    3,
                    Meta {
                        id: 9,
                        shape: [1, 2, 3],
                    },
                );
            } else {
                *g.borrow_mut() = Some(ctx.recv_obj::<Meta>(0, 3));
            }
        });
        assert_eq!(
            got.borrow_mut().clone().unwrap(),
            Meta {
                id: 9,
                shape: [1, 2, 3]
            }
        );
    }

    #[test]
    fn all_gather_obj_collects_in_rank_order() {
        let out = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&out);
        run_world(cfg(1, 6), move |ctx| {
            let all = ctx.all_gather_obj(11, ctx.rank() * 10);
            if ctx.rank() == 3 {
                *o.borrow_mut() = all;
            }
        });
        assert_eq!(*out.borrow_mut(), vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    #[should_panic(expected = "CUDA-aware support is disabled")]
    fn device_buffer_without_cuda_aware_panics() {
        run_world(cfg(1, 2), move |ctx| {
            let m = ctx.machine();
            if ctx.rank() == 0 {
                let buf = m.alloc_device_untimed(0, 1024).unwrap();
                ctx.send(&buf, 0, 1024, 1, 0);
            } else {
                let buf = m.alloc_host_untimed(0, 1, 1024);
                ctx.recv(&buf, 0, 1024, 0, 0);
            }
        });
    }

    #[test]
    fn cuda_aware_device_transfer_works_and_serializes() {
        // Two CUDA-aware messages from the same source GPU serialize on its
        // default stream.
        let dt = Rc::new(RefCell::new(0.0));
        let d = Rc::clone(&dt);
        run_world(cfg(1, 3).cuda_aware(true), move |ctx| {
            let m = ctx.machine();
            let bytes = 50_000_000u64; // 1 ms on NVLink
            if ctx.rank() == 0 {
                let a = m.alloc_device_untimed(0, bytes).unwrap();
                let t0 = ctx.wtime();
                let r1 = ctx.isend(&a, 0, bytes, 1, 0);
                let r2 = ctx.isend(&a, 0, bytes, 2, 1);
                ctx.wait_all(&[r1, r2]);
                *d.borrow_mut() = ctx.wtime() - t0;
            } else {
                // gpu of rank 1 is 2? ranks_per_node=3 => 2 gpus per rank
                let g = ctx.gpus()[0];
                let b = m.alloc_device_untimed(g, bytes).unwrap();
                ctx.recv(&b, 0, bytes, 0, ctx.rank() as u64 - 1);
            }
        });
        let secs = *dt.borrow_mut();
        assert!(
            secs > 0.002,
            "two CA transfers from one GPU must serialize on its default stream: {secs}"
        );
    }

    #[test]
    fn cuda_aware_moves_real_bytes() {
        let ok = Rc::new(RefCell::new(false));
        let o = Rc::clone(&ok);
        run_world(cfg(2, 1).cuda_aware(true), move |ctx| {
            let m = ctx.machine();
            if ctx.rank() == 0 {
                let buf = m.alloc_device_untimed(0, 64).unwrap();
                buf.write(0, &[9u8; 64]);
                ctx.send(&buf, 0, 64, 1, 0);
            } else {
                let buf = m.alloc_device_untimed(6, 64).unwrap();
                ctx.recv(&buf, 0, 64, 0, 0);
                let mut got = [0u8; 64];
                buf.read(0, &mut got);
                *o.borrow_mut() = got.iter().all(|&b| b == 9);
            }
        });
        assert!(*ok.borrow_mut());
    }

    #[test]
    fn report_contains_trace_when_enabled() {
        let rep = run_world(cfg(1, 2).trace(true), move |ctx| {
            let m = ctx.machine();
            if ctx.rank() == 0 {
                let buf = m.alloc_host_untimed(0, 0, 4096 * 10);
                ctx.send(&buf, 0, 40960, 1, 0);
            } else {
                let buf = m.alloc_host_untimed(0, 1, 4096 * 10);
                ctx.recv(&buf, 0, 40960, 0, 0);
            }
        });
        assert!(rep.trace_json.unwrap().contains("MPI shm"));
        assert!(rep.elapsed.picos() > 0);
        assert!(rep.executed_events > 0);
    }

    #[test]
    fn nic_flap_stalls_and_resumes_internode_transfer() {
        use faultsim::FaultSchedule;
        let xfer = |faults: FaultSchedule| {
            run_world(cfg(2, 1).faults(faults), move |ctx| {
                let m = ctx.machine();
                let bytes = 25_000_000u64; // 1 ms at 25 GB/s injection
                if ctx.rank() == 0 {
                    let buf = m.alloc_host_untimed(0, 0, bytes);
                    ctx.send(&buf, 0, bytes, 1, 0);
                } else {
                    let buf = m.alloc_host_untimed(1, 0, bytes);
                    ctx.recv(&buf, 0, bytes, 0, 0);
                }
            })
            .elapsed
            .as_secs_f64()
        };
        let clean = xfer(FaultSchedule::new());
        // NIC down for 2 ms in the middle of the ~1 ms transfer: the flow
        // trickles during the stall and resumes after the restore.
        let flapped = xfer(FaultSchedule::flapping_nic(
            0,
            SimDuration::from_micros(200),
            SimDuration::from_micros(2000),
            SimDuration::from_micros(100),
            1,
        ));
        assert!(
            flapped > clean + 0.0015,
            "flap should add ~2ms of stall: clean {clean}, flapped {flapped}"
        );
        assert!(
            flapped < clean + 0.0025,
            "transfer should resume after restore: clean {clean}, flapped {flapped}"
        );
    }

    #[test]
    fn kill_revokes_pending_ops_and_shrinks_barrier() {
        use faultsim::FaultSchedule;
        let out = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&out);
        let faults = FaultSchedule::kill(1, SimDuration::from_micros(100));
        run_world(cfg(1, 2).faults(faults), move |ctx| {
            let m = ctx.machine();
            if ctx.rank() == 0 {
                // Receive from rank 1 that will never be satisfied: rank 1
                // dies at t=100us with the recv still pending.
                let buf = m.alloc_host_untimed(0, 0, 1024);
                let r = ctx.irecv(&buf, 0, 1024, 1, 7);
                ctx.wait(&r);
                o.borrow_mut().push(("revoked", r.is_revoked()));
                assert!(!ctx.is_alive(1));
                assert_eq!(ctx.alive_ranks(), vec![0]);
                assert_eq!(ctx.failure_epoch(), 1);
                // Post-kill ops against the dead rank revoke immediately.
                let r2 = ctx.isend(&buf, 0, 1024, 1, 8);
                o.borrow_mut().push(("posted-dead", r2.is_revoked()));
                // The shrunken barrier releases with only rank 0 arriving.
                ctx.barrier();
                o.borrow_mut().push(("past-barrier", true));
            } else {
                // Rank 1 parks on a message nobody sends; its death revokes
                // the recv so the coroutine unwinds instead of deadlocking.
                let buf = m.alloc_host_untimed(0, 1, 1024);
                let r = ctx.irecv(&buf, 0, 1024, 0, 9);
                ctx.wait(&r);
            }
        });
        let v = out.borrow_mut().clone();
        assert_eq!(
            v,
            vec![
                ("revoked", true),
                ("posted-dead", true),
                ("past-barrier", true)
            ]
        );
    }

    #[test]
    fn respawn_rejoins_and_rehandshakes_channels() {
        use faultsim::FaultSchedule;
        let out = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&out);
        let faults = FaultSchedule::kill_respawn(
            1,
            SimDuration::from_micros(100),
            SimDuration::from_micros(300),
        );
        run_world(cfg(1, 2).faults(faults).mpi_persistent(true), move |ctx| {
            let m = ctx.machine();
            let bytes = 4096u64;
            if ctx.rank() == 0 {
                let buf = m.alloc_host_untimed(0, 0, bytes);
                let ch = ctx.send_init(&buf, 0, bytes, 1, 5);
                // Round 0 lands before the kill.
                let r0 = ctx.start(&ch);
                ctx.wait(&r0.all);
                o.borrow_mut().push(("round0-revoked", r0.all.is_revoked()));
                // Step into the death window, wait it out, then observe
                // the revoked handle: starting it resolves immediately.
                ctx.sim().delay(SimDuration::from_micros(200));
                ctx.await_all_alive();
                o.borrow_mut()
                    .push(("handle-revoked", ctx.channel_revoked(&ch)));
                let dead_round = ctx.start(&ch);
                ctx.wait(&dead_round.all);
                o.borrow_mut()
                    .push(("dead-start", dead_round.all.is_revoked()));
                // Re-handshake: fresh channel under the same key works.
                let ch2 = ctx.send_init(&buf, 0, bytes, 1, 5);
                let r1 = ctx.start(&ch2);
                ctx.wait(&r1.all);
                o.borrow_mut().push(("round1-revoked", r1.all.is_revoked()));
            } else {
                let buf = m.alloc_host_untimed(0, 1, bytes);
                let ch = ctx.recv_init(&buf, 0, bytes, 0, 5);
                let r0 = ctx.start(&ch);
                ctx.wait(&r0.all);
                // Simulated death window: the coroutine idles past it,
                // then rejoins with a fresh channel.
                ctx.sim().delay(SimDuration::from_micros(200));
                ctx.await_all_alive();
                assert_eq!(ctx.failure_epoch(), 2);
                let ch2 = ctx.recv_init(&buf, 0, bytes, 0, 5);
                let r1 = ctx.start(&ch2);
                ctx.wait(&r1.all);
            }
        });
        let v = out.borrow_mut().clone();
        assert_eq!(
            v,
            vec![
                ("round0-revoked", false),
                ("handle-revoked", true),
                ("dead-start", true),
                ("round1-revoked", false),
            ]
        );
    }

    #[test]
    fn await_respawn_wakes_at_respawn_time() {
        use faultsim::FaultSchedule;
        let t = Rc::new(RefCell::new(0.0));
        let tt = Rc::clone(&t);
        let faults = FaultSchedule::kill_respawn(
            1,
            SimDuration::from_micros(100),
            SimDuration::from_micros(400),
        );
        run_world(cfg(1, 2).faults(faults), move |ctx| {
            if ctx.rank() == 0 {
                ctx.sim().delay(SimDuration::from_micros(200));
                assert!(!ctx.is_alive(1));
                ctx.await_respawn(1);
                *tt.borrow_mut() = ctx.wtime();
                assert!(ctx.is_alive(1));
                // Already-alive waits return immediately.
                ctx.await_respawn(1);
                ctx.await_all_alive();
            }
        });
        let secs = *t.borrow_mut();
        assert!(
            (secs - 500e-6).abs() < 1e-9,
            "respawn waiter wakes at kill+down_for = 500us: {secs}"
        );
    }

    #[test]
    fn kill_respawn_deterministic_across_runs() {
        use faultsim::FaultSchedule;
        let run = || {
            let faults = FaultSchedule::kill_respawn(
                3,
                SimDuration::from_micros(50),
                SimDuration::from_micros(200),
            );
            run_world(cfg(1, 6).faults(faults), move |ctx| {
                let m = ctx.machine();
                let bytes = 100_000u64;
                let n = ctx.size();
                let me = ctx.rank();
                let sbuf = m.alloc_host_untimed(ctx.node(), 0, bytes);
                let rbuf = m.alloc_host_untimed(ctx.node(), 0, bytes * n as u64);
                let _ = n;
                // Fault-tolerant round structure: the barrier keeps even a
                // dead rank's coroutine in lockstep (it parks on the same
                // release the survivors get), and each round exchanges only
                // among the ranks alive at the release instant.
                for round in 0..4u64 {
                    ctx.barrier();
                    let alive = ctx.alive_ranks();
                    if !alive.contains(&me) {
                        continue; // dead this round: skip the exchange
                    }
                    let mut reqs = Vec::new();
                    for &peer in &alive {
                        if peer == me {
                            continue;
                        }
                        let tag = round * 100;
                        reqs.push(ctx.isend(&sbuf, 0, bytes, peer, tag + me as u64));
                        reqs.push(ctx.irecv(
                            &rbuf,
                            peer as u64 * bytes,
                            bytes,
                            peer,
                            tag + peer as u64,
                        ));
                    }
                    ctx.wait_all(&reqs);
                }
            })
            .elapsed
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            run_world(cfg(2, 6), move |ctx| {
                let m = ctx.machine();
                let bytes = 1_000_000u64;
                let n = ctx.size();
                let me = ctx.rank();
                let sbuf = m.alloc_host_untimed(ctx.node(), 0, bytes);
                let rbuf = m.alloc_host_untimed(ctx.node(), 0, bytes * n as u64);
                let mut reqs = Vec::new();
                for peer in 0..n {
                    if peer == me {
                        continue;
                    }
                    reqs.push(ctx.isend(&sbuf, 0, bytes, peer, me as u64));
                    reqs.push(ctx.irecv(&rbuf, peer as u64 * bytes, bytes, peer, peer as u64));
                }
                ctx.wait_all(&reqs);
                ctx.barrier();
            })
            .elapsed
        };
        assert_eq!(run(), run());
    }
}
