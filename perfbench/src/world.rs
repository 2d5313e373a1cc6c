//! Barrier-bounded timing of one simulated world.
//!
//! Ranks are coroutines on one OS thread, so the host time rank 0 stamps
//! between two barrier exits is the whole world's cost for that phase. A
//! world runs: spawn → barrier → `DomainBuilder::build` → barrier → one
//! warm-up op → measured ops until the time share is spent → barrier →
//! teardown. Every measured op is bracketed by the paper's protocol
//! (barrier, `wtime`, op, `wtime`) plus a closing barrier.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use detsim::MetricsReport;
use mpisim::{run_world, RankCtx, WorldConfig};
use stencil_core::{DistributedDomain, DomainBuilder};

/// What one measured op does inside the world.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `DistributedDomain::exchange_timed`.
    Exchange,
    /// `DistributedDomain::step_overlapped` with this modeled compute
    /// traffic per cell.
    Step { bytes_per_cell: u64 },
}

/// Kernel and fabric counters read by rank 0 at a barrier exit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub events: u64,
    pub stale: u64,
    pub compactions: u64,
    pub nic_bytes: u64,
}

impl Counters {
    fn read(ctx: &RankCtx) -> Counters {
        let machine = ctx.machine();
        let links: Vec<_> = if machine.num_nodes() > 1 {
            (0..machine.num_nodes())
                .map(|n| machine.fabric().injection_link(n))
                .collect()
        } else {
            Vec::new()
        };
        ctx.sim().with_kernel(|k| Counters {
            events: k.executed_events(),
            stale: k.stale_events_dropped(),
            compactions: k.heap_compactions(),
            nic_bytes: links.iter().map(|&l| k.link_delivered(l)).sum(),
        })
    }

    fn since(self, earlier: Counters) -> Counters {
        Counters {
            events: self.events - earlier.events,
            stale: self.stale - earlier.stale,
            compactions: self.compactions - earlier.compactions,
            nic_bytes: self.nic_bytes - earlier.nic_bytes,
        }
    }
}

/// One op as seen from outside the world.
#[derive(Clone, Debug, Default)]
pub struct OpSample {
    /// Host seconds between rank 0's barrier exits around the op.
    pub wall_s: f64,
    /// Virtual picoseconds of the op alone, max over ranks (the paper's
    /// exchange-time protocol).
    pub op_virtual_ps: u64,
    /// Virtual picoseconds rank 0 saw from the opening barrier exit to the
    /// closing barrier exit (op plus barrier: the `overlap` bench protocol).
    pub window_virtual_ps: u64,
    /// Counter deltas over the op.
    pub counters: Counters,
    /// Per-phase virtual seconds, max over ranks (exchange ops only).
    pub phases: BTreeMap<&'static str, f64>,
    /// Metrics registry deltas over the op (traced runs only).
    pub metrics: Option<BTreeMap<String, f64>>,
}

impl OpSample {
    pub fn op_virtual_s(&self) -> f64 {
        self.op_virtual_ps as f64 / detsim::PS_PER_SEC as f64
    }

    pub fn window_virtual_s(&self) -> f64 {
        self.window_virtual_ps as f64 / detsim::PS_PER_SEC as f64
    }

    /// Sum of the metric deltas whose key starts with `prefix` (0 when the
    /// registry was off).
    pub fn metric_sum(&self, prefix: &str) -> f64 {
        self.metrics
            .iter()
            .flat_map(|m| m.range(prefix.to_string()..))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Host instants of a world's phases, for spans.
#[derive(Clone, Debug)]
pub struct Marks {
    pub op_name: &'static str,
    pub call: Instant,
    pub first_entry: Instant,
    pub build: (Instant, Instant),
    pub warmup: (Instant, Instant),
    pub ops: Vec<(Instant, Instant)>,
    pub last_barrier: Instant,
    pub ret: Instant,
}

/// Everything one world measured.
#[derive(Clone, Debug)]
pub struct WorldRun {
    /// Whether the metrics registry was on.
    pub traced: bool,
    /// `run_world` call to the first rank-program entry.
    pub spawn_s: f64,
    /// Barrier-bounded `DomainBuilder::build`.
    pub build_s: f64,
    /// `run_world` call to the end of the warm-up op: the set-up a user
    /// pays before the first measured op.
    pub setup_s: f64,
    /// Last barrier exit to the return of `run_world`.
    pub teardown_s: f64,
    pub warmup: OpSample,
    pub ops: Vec<OpSample>,
    /// Highest injection-link utilization over the world's lifetime.
    pub nic_peak_util: f64,
    /// Peak of the `flow/active_flows` gauge (traced runs only).
    pub active_flows_peak: f64,
    pub marks: Marks,
}

/// Flatten the registry to `subsystem/name{labels}` → value, keeping the
/// values whose per-op deltas the per-layer table reads: `mpi`, `gpusim`
/// and `exchange` counters, and `mpi` histogram sums and counts.
pub fn flatten(report: &MetricsReport) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (id, v) in report.entries() {
        // Per-device instances are summed: the table reads world totals.
        let labels: Vec<String> = id
            .labels
            .iter()
            .filter(|(k, _)| *k != "dev" && *k != "dir")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let key = if labels.is_empty() {
            format!("{}/{}", id.subsystem, id.name)
        } else {
            format!("{}/{}{{{}}}", id.subsystem, id.name, labels.join(","))
        };
        match v {
            detsim::metrics::MetricValue::Counter(c) => {
                if id.subsystem == "mpi" || id.subsystem == "gpusim" || id.subsystem == "exchange" {
                    *out.entry(key).or_insert(0.0) += *c as f64;
                }
            }
            detsim::metrics::MetricValue::Histogram(h) => {
                if id.subsystem == "mpi" {
                    out.insert(format!("{key}#sum"), h.sum);
                    out.insert(format!("{key}#count"), h.count as f64);
                }
            }
            detsim::metrics::MetricValue::Gauge(_) => {}
        }
    }
    out
}

fn delta(after: &BTreeMap<String, f64>, before: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// How a world should run.
pub struct WorldPlan {
    pub config: WorldConfig,
    pub builder: DomainBuilder,
    pub op: Op,
    /// Host time for the measured ops; at least `min_ops` run regardless.
    pub budget: Duration,
    pub min_ops: usize,
    pub max_ops: usize,
}

#[derive(Default)]
struct Shared {
    first_entry: Option<Instant>,
    /// When the previous stamp finished (the start of the next interval).
    stamp: Option<Instant>,
    counters: Counters,
    metrics: BTreeMap<String, f64>,
    v_start: Option<detsim::SimTime>,
    build_s: f64,
    setup_s: f64,
    warmup: OpSample,
    ops: Vec<OpSample>,
    /// Host intervals: build, warm-up, then each measured op.
    intervals: Vec<(Instant, Instant)>,
    /// Per-op max over ranks, indexed like `run.ops` (warm-up at 0).
    op_virtual: Vec<u64>,
    phases: Vec<BTreeMap<&'static str, f64>>,
    last_barrier: Option<Instant>,
    measure_start: Option<Instant>,
}

fn run_op(ctx: &RankCtx, dom: &DistributedDomain, op: Op) -> (u64, Vec<(&'static str, f64)>) {
    let v0 = ctx.sim().now();
    let phases = match op {
        Op::Exchange => dom
            .exchange_timed(ctx)
            .per_phase
            .iter()
            .map(|(p, d)| (*p, d.as_secs_f64()))
            .collect(),
        Op::Step { bytes_per_cell } => {
            dom.step_overlapped(ctx, bytes_per_cell);
            Vec::new()
        }
    };
    (ctx.sim().now().since(v0).picos(), phases)
}

/// Run one world under `plan` and return what it measured.
pub fn measure_world(plan: WorldPlan) -> WorldRun {
    let WorldPlan {
        config,
        builder,
        op,
        budget,
        min_ops,
        max_ops,
    } = plan;
    let traced = config.metrics;
    let shared: Arc<Mutex<Shared>> = Arc::default();
    let stop = Arc::new(AtomicBool::new(false));
    let sh = Arc::clone(&shared);
    let st = Arc::clone(&stop);
    let t_call = Instant::now();
    let report = run_world(config, move |ctx| {
        let lock = || sh.lock().expect("world state lock poisoned");
        lock().first_entry.get_or_insert_with(Instant::now);
        let me = ctx.rank();
        // Rank 0 stamps host time, counters and (traced) metrics at a
        // barrier exit; returns the op-level deltas since the last stamp.
        let stamp = |s: &mut Shared| -> (f64, Counters, Option<BTreeMap<String, f64>>) {
            let now = Instant::now();
            let c = Counters::read(ctx);
            let wall = s.stamp.map(|t| (now - t).as_secs_f64()).unwrap_or(0.0);
            if let Some(t) = s.stamp {
                s.intervals.push((t, now));
            }
            let dc = c.since(s.counters);
            let dm = traced.then(|| {
                let m = ctx.sim().with_kernel(|k| flatten(&k.metrics.report()));
                let d = delta(&m, &s.metrics);
                s.metrics = m;
                d
            });
            s.counters = c;
            s.stamp = Some(Instant::now());
            (wall, dc, dm)
        };
        ctx.barrier();
        if me == 0 {
            stamp(&mut lock());
        }
        let dom = builder.clone().build(ctx);
        ctx.barrier();
        if me == 0 {
            let mut s = lock();
            s.build_s = stamp(&mut s).0;
        }
        let mut index = 0usize;
        loop {
            ctx.barrier();
            if st.load(Ordering::SeqCst) {
                break;
            }
            if me == 0 {
                let mut s = lock();
                stamp(&mut s);
                // The gap since the last barrier exit is not part of an op.
                s.intervals.pop();
                s.v_start = Some(ctx.sim().now());
            }
            let (v, phases) = run_op(ctx, &dom, op);
            {
                let mut s = lock();
                if s.op_virtual.len() <= index {
                    s.op_virtual.resize(index + 1, 0);
                    s.phases.resize(index + 1, BTreeMap::new());
                }
                let slot = &mut s.op_virtual[index];
                *slot = (*slot).max(v);
                let slot = &mut s.phases[index];
                for (p, d) in phases {
                    let e = slot.entry(p).or_insert(0.0);
                    *e = e.max(d);
                }
            }
            ctx.barrier();
            if me == 0 {
                let mut s = lock();
                let window = ctx
                    .sim()
                    .now()
                    .since(s.v_start.expect("op start stamped"))
                    .picos();
                let (wall, counters, metrics) = stamp(&mut s);
                let sample = OpSample {
                    wall_s: wall,
                    op_virtual_ps: 0,
                    window_virtual_ps: window,
                    counters,
                    phases: BTreeMap::new(),
                    metrics,
                };
                if index == 0 {
                    s.warmup = sample;
                    s.setup_s = (Instant::now() - t_call).as_secs_f64();
                    s.measure_start = Some(Instant::now());
                } else {
                    s.ops.push(sample);
                }
                let done = s.ops.len();
                let spent = s.measure_start.map(|t| t.elapsed()).unwrap_or_default();
                if done >= max_ops || (done >= min_ops && spent >= budget) {
                    st.store(true, Ordering::SeqCst);
                }
            }
            index += 1;
        }
        if me == 0 {
            lock().last_barrier = Some(Instant::now());
        }
    });
    let t_ret = Instant::now();
    let s = Arc::try_unwrap(shared)
        .ok()
        .expect("world finished, no rank holds the state")
        .into_inner()
        .expect("world state lock poisoned");
    let first_entry = s.first_entry.expect("a rank ran");
    let last_barrier = s.last_barrier.expect("rank 0 finished");
    let mut warmup = s.warmup;
    warmup.op_virtual_ps = s.op_virtual[0];
    warmup.phases = s.phases[0].clone();
    let mut ops = s.ops;
    for (i, o) in ops.iter_mut().enumerate() {
        o.op_virtual_ps = s.op_virtual[i + 1];
        o.phases = s.phases[i + 1].clone();
    }
    WorldRun {
        traced,
        spawn_s: (first_entry - t_call).as_secs_f64(),
        build_s: s.build_s,
        setup_s: s.setup_s,
        teardown_s: (t_ret - last_barrier).as_secs_f64(),
        warmup,
        ops,
        nic_peak_util: report.nic_peak_util.iter().copied().fold(0.0, f64::max),
        active_flows_peak: report
            .metrics
            .as_ref()
            .and_then(|m| match m.get("flow", "active_flows", &[]) {
                Some(detsim::metrics::MetricValue::Gauge(g)) => Some(g.max),
                _ => None,
            })
            .unwrap_or(0.0),
        marks: Marks {
            op_name: match op {
                Op::Exchange => "core.exchange",
                Op::Step { .. } => "core.overlap.step",
            },
            call: t_call,
            first_entry,
            build: s.intervals[0],
            warmup: s.intervals[1],
            ops: s.intervals[2..].to_vec(),
            last_barrier,
            ret: t_ret,
        },
    }
}
