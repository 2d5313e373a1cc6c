//! Asynchronous device operations: memcpy, kernel launches, events, stream
//! and device synchronization, and IPC handles.
//!
//! Every operation has two forms:
//!
//! * a thread-level form taking [`SimCtx`] (e.g. [`GpuMachine::memcpy_async`])
//!   that charges the issuing thread the driver's per-call CPU overhead —
//!   this is what application code (and the stencil library) uses;
//! * a kernel-level `submit_*` form taking `&mut Kernel`, used from event
//!   callbacks (state machines, the MPI progress engine) where no thread
//!   context exists and no CPU issue time should be charged.
//!
//! Operations on one stream execute in order; operations on different
//! streams overlap freely, contending only for links and engines.

use detsim::{Completion, FifoToken, Kernel, LinkId, Path, SimCtx, SimTime};

use crate::buffer::{Buffer, Placement};
use crate::machine::{GpuMachine, Stream};

/// Host-side work executed when a simulated op completes (real data
/// movement or compute in full-data mode).
pub type Work = Box<dyn FnOnce()>;

/// Opaque sharable reference to a device allocation
/// (`cudaIpcGetMemHandle` analogue). Send it to another rank (through the
/// simulated MPI's typed channel) and open it there.
pub struct IpcMemHandle {
    buf: Buffer,
}

/// An in-flight memcpy or kernel. It sits in its machine's op slab from
/// issue to completion, so each closure that drives it captures only
/// `(machine, slot)` — two words, which the event kernel stores inline.
pub(crate) struct Op {
    kind: OpKind,
    label: &'static str,
    track: detsim::trace::TrackId,
    done: Completion,
    /// The stream slot, once the op reaches the head of its stream.
    token: Option<FifoToken>,
    /// When the op reached the head of its stream.
    start: SimTime,
}

enum OpKind {
    Memcpy {
        path: Path,
        len: u64,
        dst: Buffer,
        dst_off: u64,
        src: Buffer,
        src_off: u64,
    },
    Kernel {
        engine: LinkId,
        bytes: u64,
        work: Option<Work>,
    },
}

impl GpuMachine {
    fn classify(&self, src: &Buffer, dst: &Buffer) -> (&'static str, Path) {
        let fabric = self.fabric();
        match (src.placement(), dst.placement()) {
            (Placement::Device(a), Placement::Device(b)) => {
                if a == b {
                    let mut path = Path::new();
                    path.push(self.engine_link(a));
                    ("D2D", path)
                } else {
                    assert_eq!(
                        self.node_of(a),
                        self.node_of(b),
                        "cudaMemcpyPeer between devices on different nodes (use MPI)"
                    );
                    assert!(
                        self.peer_enabled(a, b),
                        "peer access not enabled between devices {a} and {b}"
                    );
                    (
                        "P2P",
                        fabric.gpu_gpu_path(self.node_of(a), self.local_of(a), self.local_of(b)),
                    )
                }
            }
            (Placement::Device(d), Placement::Host(n, s)) => {
                assert_eq!(self.node_of(d), n, "D2H copy to a different node's memory");
                (
                    "D2H",
                    fabric.node_path(
                        n,
                        fabric.node_spec().gpu(self.local_of(d)),
                        fabric.node_spec().cpu(s),
                    ),
                )
            }
            (Placement::Host(n, s), Placement::Device(d)) => {
                assert_eq!(
                    self.node_of(d),
                    n,
                    "H2D copy from a different node's memory"
                );
                (
                    "H2D",
                    fabric.node_path(
                        n,
                        fabric.node_spec().cpu(s),
                        fabric.node_spec().gpu(self.local_of(d)),
                    ),
                )
            }
            (Placement::Host(..), Placement::Host(..)) => {
                panic!("host-to-host copies are MPI's job, not the GPU runtime's")
            }
        }
    }

    /// Park `op` in the op slab and queue it on `stream`; `issue` runs
    /// when the op reaches the head of the stream. `issue` must capture
    /// nothing, so the queued task stays `(machine, slot)`.
    fn submit_op(
        &self,
        k: &mut Kernel,
        stream: Stream,
        op: Op,
        issue: impl FnOnce(&GpuMachine, &mut Kernel, usize) + 'static,
    ) -> Completion {
        let done = op.done.clone();
        let slot = self.inner.ops.borrow_mut().insert(op);
        let m = self.clone();
        k.fifo_submit(self.stream_fifo(stream), move |k, token| {
            {
                let mut ops = m.inner.ops.borrow_mut();
                let op = ops.get_mut(slot).expect("op parked until it finishes");
                op.token = Some(token);
                op.start = k.now();
            }
            issue(&m, k, slot);
        });
        done
    }

    /// Start the flow that moves a parked op's bytes; the op finishes when
    /// it lands.
    fn start_op_flow(&self, k: &mut Kernel, slot: usize) {
        let m = self.clone();
        let on_done = move |k: &mut Kernel| m.finish_op(k, slot);
        let ops = self.inner.ops.borrow();
        match &ops.get(slot).expect("op parked until it finishes").kind {
            OpKind::Memcpy { path, len, .. } => k.start_flow(path, *len, on_done),
            OpKind::Kernel { engine, bytes, .. } => k.start_flow(&[*engine], *bytes, on_done),
        }
    }

    /// A parked op's last byte landed: run its effect, release its stream
    /// slot and fire its completion.
    fn finish_op(&self, k: &mut Kernel, slot: usize) {
        let op = self.inner.ops.borrow_mut().remove(slot);
        match op.kind {
            OpKind::Memcpy {
                len,
                dst,
                dst_off,
                src,
                src_off,
                ..
            } => {
                dst.copy_from(dst_off, &src, src_off, len);
                if k.trace.is_enabled() {
                    k.trace.record(
                        op.track,
                        format!("{} {len}B", op.label),
                        "memcpy",
                        op.start,
                        k.now(),
                    );
                }
            }
            OpKind::Kernel { work, .. } => {
                if let Some(w) = work {
                    w();
                }
                k.trace
                    .record(op.track, op.label, "kernel", op.start, k.now());
            }
        }
        k.fifo_task_done(op.token.expect("op finished before it started"));
        k.complete(&op.done);
    }

    /// `cudaMemcpyAsync`/`cudaMemcpyPeerAsync`: enqueue a copy on `stream`.
    /// Returns a completion that fires when the copy lands.
    #[allow(clippy::too_many_arguments)] // mirrors the CUDA signature
    pub fn memcpy_async(
        &self,
        ctx: &SimCtx,
        stream: Stream,
        dst: &Buffer,
        dst_off: u64,
        src: &Buffer,
        src_off: u64,
        len: u64,
    ) -> Completion {
        ctx.delay(self.cost_model().call_overhead);
        ctx.with_kernel(|k| self.submit_memcpy(k, stream, dst, dst_off, src, src_off, len))
    }

    /// Kernel-level form of [`Self::memcpy_async`].
    #[allow(clippy::too_many_arguments)] // mirrors the CUDA signature
    pub fn submit_memcpy(
        &self,
        k: &mut Kernel,
        stream: Stream,
        dst: &Buffer,
        dst_off: u64,
        src: &Buffer,
        src_off: u64,
        len: u64,
    ) -> Completion {
        assert!(src_off + len <= src.len(), "memcpy source out of range");
        assert!(
            dst_off + len <= dst.len(),
            "memcpy destination out of range"
        );
        let (label, path) = self.classify(src, dst);
        if k.metrics.is_enabled() {
            let device = self.stream_device(stream);
            let dev = format!("n{}.g{}", self.node_of(device), self.local_of(device));
            k.metrics.counter_add(
                "gpusim",
                "memcpy_bytes",
                &[("dev", &dev), ("dir", label)],
                len,
            );
            k.metrics.counter_add(
                "gpusim",
                "memcpy_count",
                &[("dev", &dev), ("dir", label)],
                1,
            );
        }
        let op = Op {
            kind: OpKind::Memcpy {
                path,
                len,
                dst: dst.clone(),
                dst_off,
                src: src.clone(),
                src_off,
            },
            label,
            track: self.stream_track(stream),
            done: k.completion(),
            token: None,
            start: SimTime::ZERO,
        };
        // The copy engine's setup latency elapses before the bytes move.
        self.submit_op(k, stream, op, |m, k, slot| {
            let m2 = m.clone();
            k.schedule_in(m.cost_model().memcpy_latency, move |k| {
                m2.start_op_flow(k, slot)
            });
        })
    }

    /// Launch a kernel on `stream` that touches `bytes` of device memory
    /// (pack/unpack/compute cost model) and, in full-data mode, runs `work`
    /// when it completes. Concurrent kernels on one device share its engine
    /// bandwidth.
    pub fn launch_kernel(
        &self,
        ctx: &SimCtx,
        stream: Stream,
        label: &'static str,
        bytes: u64,
        work: Option<Work>,
    ) -> Completion {
        ctx.delay(self.cost_model().call_overhead);
        ctx.with_kernel(|k| self.submit_kernel(k, stream, label, bytes, work))
    }

    /// Kernel-level form of [`Self::launch_kernel`].
    pub fn submit_kernel(
        &self,
        k: &mut Kernel,
        stream: Stream,
        label: &'static str,
        bytes: u64,
        work: Option<Work>,
    ) -> Completion {
        let device = self.stream_device(stream);
        if k.metrics.is_enabled() {
            let dev = format!("n{}.g{}", self.node_of(device), self.local_of(device));
            k.metrics
                .counter_add("gpusim", "kernel_launches", &[("dev", &dev)], 1);
            k.metrics
                .counter_add("gpusim", "kernel_bytes", &[("dev", &dev)], bytes);
        }
        let op = Op {
            kind: OpKind::Kernel {
                engine: self.engine_link(device),
                bytes,
                work,
            },
            label,
            track: self.stream_track(stream),
            done: k.completion(),
            token: None,
            start: SimTime::ZERO,
        };
        self.submit_op(k, stream, op, GpuMachine::start_op_flow)
    }

    /// `cudaEventRecord`: returns a completion that fires when the stream
    /// reaches this point.
    pub fn record_event(&self, ctx: &SimCtx, stream: Stream) -> Completion {
        ctx.delay(self.cost_model().call_overhead);
        ctx.with_kernel(|k| self.submit_record_event(k, stream))
    }

    /// Kernel-level form of [`Self::record_event`].
    pub fn submit_record_event(&self, k: &mut Kernel, stream: Stream) -> Completion {
        let fifo = self.stream_fifo(stream);
        let done = k.completion();
        let d2 = done.clone();
        k.fifo_submit(fifo, move |k, token| {
            k.complete(&d2);
            k.fifo_task_done(token);
        });
        done
    }

    /// `cudaStreamWaitEvent`: `stream` stalls until `event` fires.
    pub fn stream_wait_event(&self, ctx: &SimCtx, stream: Stream, event: &Completion) {
        ctx.delay(self.cost_model().call_overhead);
        ctx.with_kernel(|k| self.submit_wait_event(k, stream, event));
    }

    /// Kernel-level form of [`Self::stream_wait_event`].
    pub fn submit_wait_event(&self, k: &mut Kernel, stream: Stream, event: &Completion) {
        let fifo = self.stream_fifo(stream);
        let ev = event.clone();
        k.fifo_submit(fifo, move |k, token| {
            k.on_complete(&ev, move |k| k.fifo_task_done(token));
        });
    }

    /// `cudaStreamSynchronize`: block the calling thread until everything
    /// enqueued on `stream` so far has completed.
    pub fn stream_sync(&self, ctx: &SimCtx, stream: Stream) {
        let c = self.record_event(ctx, stream);
        ctx.wait(&c);
    }

    /// `cudaDeviceSynchronize`: block until every stream of `device` drains.
    pub fn device_sync(&self, ctx: &SimCtx, device: usize) {
        ctx.delay(self.cost_model().call_overhead);
        let c = ctx.with_kernel(|k| self.submit_device_sync(k, device));
        ctx.wait(&c);
    }

    /// Kernel-level device sync: completion firing when every stream of
    /// `device` has drained (as of submission).
    pub fn submit_device_sync(&self, k: &mut Kernel, device: usize) -> Completion {
        let events: Vec<Completion> = self
            .device_streams(device)
            .into_iter()
            .map(|s| self.submit_record_event(k, s))
            .collect();
        k.completion_all(&events)
    }

    /// `cudaIpcGetMemHandle`: export a device buffer for another rank.
    pub fn ipc_get_handle(&self, buf: &Buffer) -> IpcMemHandle {
        assert!(
            buf.device().is_some(),
            "IPC handles only exist for device memory"
        );
        IpcMemHandle { buf: buf.clone() }
    }

    /// `cudaIpcOpenMemHandle`: map another rank's device buffer into this
    /// rank. One-time setup cost.
    pub fn ipc_open(&self, ctx: &SimCtx, handle: &IpcMemHandle) -> Buffer {
        ctx.delay(self.cost_model().ipc_open_overhead);
        handle.buf.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DataMode, GpuCostModel};
    use detsim::{Sim, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;
    use topo::summit::summit_cluster;

    fn setup(nodes: usize) -> (Sim, GpuMachine) {
        let sim = Sim::new();
        let m = sim.with_kernel(|k| {
            GpuMachine::new(
                k,
                summit_cluster(nodes),
                GpuCostModel::default(),
                DataMode::Full,
            )
        });
        (sim, m)
    }

    #[test]
    fn d2h_copy_time_matches_model() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let dev = m2.alloc_device_untimed(0, 50_000_000).unwrap();
            let host = m2.alloc_host_untimed(0, 0, 50_000_000);
            let t0 = ctx.now();
            let c = m2.memcpy_async(ctx, m2.default_stream(0), &host, 0, &dev, 0, 50_000_000);
            ctx.wait(&c);
            let dt = ctx.now().since(t0).as_secs_f64();
            // 50 MB over 50 GB/s = 1 ms, plus ~11 us of overheads.
            assert!(dt > 0.001 && dt < 0.00102, "dt = {dt}");
        });
    }

    #[test]
    fn data_really_moves_d2h() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let dev = m2.alloc_device_untimed(0, 8).unwrap();
            let host = m2.alloc_host_untimed(0, 0, 8);
            dev.write(0, &[7u8; 8]);
            let c = m2.memcpy_async(ctx, m2.default_stream(0), &host, 0, &dev, 0, 8);
            ctx.wait(&c);
            let mut out = [0u8; 8];
            host.read(0, &mut out);
            assert_eq!(out, [7u8; 8]);
        });
    }

    #[test]
    fn same_stream_copies_serialize() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let dev = m2.alloc_device_untimed(0, 100_000_000).unwrap();
            let host = m2.alloc_host_untimed(0, 0, 100_000_000);
            let s = m2.default_stream(0);
            let t0 = ctx.now();
            let c1 = m2.memcpy_async(ctx, s, &host, 0, &dev, 0, 50_000_000);
            let c2 = m2.memcpy_async(ctx, s, &host, 0, &dev, 0, 50_000_000);
            ctx.wait_all(&[c1, c2]);
            let dt = ctx.now().since(t0).as_secs_f64();
            assert!(
                dt > 0.002,
                "two 1ms copies on one stream must serialize: {dt}"
            );
        });
    }

    #[test]
    fn different_direction_copies_overlap() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let dev = m2.alloc_device_untimed(0, 100_000_000).unwrap();
            let host = m2.alloc_host_untimed(0, 0, 100_000_000);
            let (s1, s2) = ctx.with_kernel(|k| (m2.create_stream(k, 0), m2.create_stream(k, 0)));
            let t0 = ctx.now();
            // D2H and H2D use distinct directed links: full overlap.
            let c1 = m2.memcpy_async(ctx, s1, &host, 0, &dev, 0, 50_000_000);
            let c2 = m2.memcpy_async(ctx, s2, &dev, 0, &host, 0, 50_000_000);
            ctx.wait_all(&[c1, c2]);
            let dt = ctx.now().since(t0).as_secs_f64();
            assert!(dt < 0.0015, "duplex copies should overlap: {dt}");
        });
    }

    #[test]
    fn p2p_between_triad_gpus() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            m2.enable_peer_access(0, 1).unwrap();
            let a = m2.alloc_device_untimed(0, 50_000_000).unwrap();
            let b = m2.alloc_device_untimed(1, 50_000_000).unwrap();
            a.write(0, &[3u8; 4]);
            let t0 = ctx.now();
            let c = m2.memcpy_async(ctx, m2.default_stream(0), &b, 0, &a, 0, 50_000_000);
            ctx.wait(&c);
            let dt = ctx.now().since(t0).as_secs_f64();
            assert!(dt > 0.001 && dt < 0.00102, "NVLink P2P 50MB ~ 1ms: {dt}");
            let mut out = [0u8; 4];
            b.read(0, &mut out);
            assert_eq!(out, [3u8; 4]);
        });
    }

    #[test]
    #[should_panic(expected = "peer access not enabled")]
    fn p2p_without_enablement_panics() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let a = m2.alloc_device_untimed(0, 8).unwrap();
            let b = m2.alloc_device_untimed(1, 8).unwrap();
            let c = m2.memcpy_async(ctx, m2.default_stream(0), &b, 0, &a, 0, 8);
            ctx.wait(&c);
        });
    }

    #[test]
    #[should_panic(expected = "different nodes")]
    fn cross_node_p2p_panics() {
        let (mut sim, m) = setup(2);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let a = m2.alloc_device_untimed(0, 8).unwrap();
            let b = m2.alloc_device_untimed(6, 8).unwrap();
            let c = m2.memcpy_async(ctx, m2.default_stream(0), &b, 0, &a, 0, 8);
            ctx.wait(&c);
        });
    }

    #[test]
    fn kernels_share_engine_bandwidth() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let (s1, s2) = ctx.with_kernel(|k| (m2.create_stream(k, 0), m2.create_stream(k, 0)));
            let bytes = 350_000_000; // 1 ms at 350 GB/s alone
            let t0 = ctx.now();
            let c1 = m2.launch_kernel(ctx, s1, "pack", bytes, None);
            let c2 = m2.launch_kernel(ctx, s2, "pack", bytes, None);
            ctx.wait_all(&[c1, c2]);
            let dt = ctx.now().since(t0).as_secs_f64();
            assert!(dt > 0.0019 && dt < 0.0022, "two kernels share engine: {dt}");
        });
    }

    #[test]
    fn kernel_work_closure_runs_on_completion() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let dev = m2.alloc_device_untimed(0, 4).unwrap();
            let dev2 = dev.clone();
            let c = m2.launch_kernel(
                ctx,
                m2.default_stream(0),
                "init",
                4,
                Some(Box::new(move || dev2.write(0, &[1, 2, 3, 4]))),
            );
            ctx.wait(&c);
            let mut out = [0u8; 4];
            dev.read(0, &mut out);
            assert_eq!(out, [1, 2, 3, 4]);
        });
    }

    #[test]
    fn events_order_across_streams() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(vec![]));
        let o2 = Rc::clone(&order);
        sim.run(1, move |ctx| {
            let (s1, s2) = ctx.with_kernel(|k| (m2.create_stream(k, 0), m2.create_stream(k, 0)));
            let o3 = Rc::clone(&o2);
            let o4 = Rc::clone(&o2);
            let k1 = m2.launch_kernel(
                ctx,
                s1,
                "first",
                350_000_000,
                Some(Box::new(move || o3.borrow_mut().push("first"))),
            );
            let ev = m2.record_event(ctx, s1);
            m2.stream_wait_event(ctx, s2, &ev);
            let k2 = m2.launch_kernel(
                ctx,
                s2,
                "second",
                1000,
                Some(Box::new(move || o4.borrow_mut().push("second"))),
            );
            ctx.wait_all(&[k1, k2]);
        });
        assert_eq!(*order.borrow_mut(), vec!["first", "second"]);
    }

    #[test]
    fn device_sync_drains_all_streams() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let (s1, s2) = ctx.with_kernel(|k| (m2.create_stream(k, 0), m2.create_stream(k, 0)));
            let _ = m2.launch_kernel(ctx, s1, "a", 350_000_000, None);
            let _ = m2.launch_kernel(ctx, s2, "b", 700_000_000, None);
            let t0 = ctx.now();
            m2.device_sync(ctx, 0);
            let dt = ctx.now().since(t0).as_secs_f64();
            assert!(dt > 0.0015, "device sync waits for slowest stream: {dt}");
        });
    }

    #[test]
    fn ipc_round_trip_shares_memory() {
        let (mut sim, m) = setup(1);
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let a = m2.alloc_device_untimed(2, 16).unwrap();
            let h = m2.ipc_get_handle(&a);
            let t0 = ctx.now();
            let opened = m2.ipc_open(ctx, &h);
            assert!(ctx.now().since(t0) >= SimDuration::from_micros(100));
            opened.write(0, &[5u8; 16]);
            let mut out = [0u8; 16];
            a.read(0, &mut out);
            assert_eq!(out, [5u8; 16]);
        });
    }

    #[test]
    fn trace_records_stream_spans() {
        let (mut sim, m) = setup(1);
        sim.with_kernel(|k| k.trace.enable());
        let m2 = m.clone();
        sim.run(1, move |ctx| {
            let dev = m2.alloc_device_untimed(0, 1024).unwrap();
            let host = m2.alloc_host_untimed(0, 0, 1024);
            let c = m2.memcpy_async(ctx, m2.default_stream(0), &host, 0, &dev, 0, 1024);
            ctx.wait(&c);
        });
        sim.with_kernel(|k| {
            assert_eq!(k.trace.spans().len(), 1);
            assert!(k.trace.spans()[0].name.contains("D2H"));
        });
    }
}
