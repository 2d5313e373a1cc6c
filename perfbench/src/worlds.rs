//! The two world workloads: `fig12b-256n` (halo exchanges at the paper's
//! 256-node point) and `transport-4n` (overlapped steps on five rungs).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gpusim::DataMode;
use mpisim::WorldConfig;
use stencil_bench::weak_scaling_extent;
use stencil_core::{DomainBuilder, Methods, Neighborhood, Partition, PlacementStrategy, Radius};
use topo::summit::{summit_cluster, summit_node};

use crate::checks::{matches_golden, same_nic_bytes};
use crate::report::{Layers, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::world::{measure_world, Op, OpSample, WorldPlan, WorldRun};

/// Paper Fig. 12b at 256 nodes: 6 ranks x 6 GPUs per node, 750^3 per GPU.
const FIG_NODES: usize = 256;
/// `specialized_s` of the 256-node row of `BENCH_summit_fig12.json`, which
/// the steady-state exchange must reproduce to the printed precision.
const FIG_GOLDEN_S: &str = "0.016363541";
/// Worlds per untraced fig12b-256n run: set-up is reported as their median.
const FIG_WORLDS: usize = 3;

/// Four nodes keep each world small. On a shared 2-vCPU VM, the run-level
/// step time of 64-node worlds (384 ranks) spread up to 0.26 (quartile
/// distance over median) across sets of identical runs; 4-node worlds
/// spread 0.06–0.12.
const TR_NODES: usize = 4;
/// Per-GPU cells per axis and modeled compute traffic per cell, as in the
/// `overlap` bench: small, latency-bound faces.
const TR_PER_GPU: u64 = 24;
const TR_BYTES_PER_CELL: u64 = 2000;
/// Rounds over the five rungs per untraced transport-4n run: each rung's
/// median step is taken over this many short worlds spread over the run,
/// and set-up is reported as the median round.
const TR_ROUNDS: usize = 20;

/// One transport-4n rung: its name, method set, world capabilities, and
/// its pinned overlapped per-step virtual time (staged, persistent and
/// partitioned: the 4-node rows of `BENCH_pr9.json`; consolidated: as
/// measured when the benchmark was defined). The cuda-aware rung drifts
/// below the printed precision from step to step and is not pinned.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    pub name: &'static str,
    methods: fn() -> Methods,
    consolidate: bool,
    cuda_aware: bool,
    golden_s: Option<&'static str>,
}

pub const RUNGS: [Rung; 5] = [
    Rung {
        name: "staged",
        methods: Methods::all,
        consolidate: false,
        cuda_aware: false,
        golden_s: Some("0.000612681"),
    },
    Rung {
        name: "consolidated",
        methods: Methods::all,
        consolidate: true,
        cuda_aware: false,
        golden_s: Some("0.000486831"),
    },
    Rung {
        name: "cuda-aware",
        methods: Methods::all_with_cuda_aware,
        consolidate: false,
        cuda_aware: true,
        golden_s: None,
    },
    Rung {
        name: "persistent",
        methods: || Methods::all().with_persistent(),
        consolidate: false,
        cuda_aware: false,
        golden_s: Some("0.000579081"),
    },
    Rung {
        name: "partitioned",
        methods: || Methods::all().with_partitioned(),
        consolidate: false,
        cuda_aware: false,
        golden_s: Some("0.000582747"),
    },
];

impl Rung {
    pub fn methods(&self) -> Methods {
        (self.methods)()
    }

    pub fn method_set(&self) -> crate::real::MethodSet {
        crate::real::MethodSet {
            methods: self.methods(),
            cuda_aware: self.cuda_aware,
            consolidate: self.consolidate,
        }
    }

    fn world(&self, traced: bool) -> WorldConfig {
        let m = self.methods();
        WorldConfig::new(summit_cluster(TR_NODES), 6)
            .data_mode(DataMode::Virtual)
            .cuda_aware(self.cuda_aware)
            .mpi_persistent(m.contains(stencil_core::Method::PersistentStaged))
            .mpi_partitioned(m.contains(stencil_core::Method::PartitionedStaged))
            .metrics(traced)
    }

    fn builder(&self) -> DomainBuilder {
        let e = weak_scaling_extent(TR_PER_GPU, TR_NODES * 6);
        DomainBuilder::new([e; 3])
            .radius(2)
            .quantities(2)
            .neighborhood(Neighborhood::Full26)
            .methods(self.methods())
            .consolidate(self.consolidate)
    }
}

fn fig_extent() -> u64 {
    weak_scaling_extent(750, FIG_NODES * 6)
}

fn fig_plan(traced: bool, budget: Duration) -> WorldPlan {
    let e = fig_extent();
    WorldPlan {
        config: WorldConfig::new(summit_cluster(FIG_NODES), 6)
            .data_mode(DataMode::Virtual)
            .metrics(traced),
        builder: DomainBuilder::new([e; 3])
            .radius(2)
            .quantities(4)
            .neighborhood(Neighborhood::Full26)
            .methods(Methods::all())
            .placement(PlacementStrategy::NodeAware),
        op: Op::Exchange,
        budget,
        min_ops: 2,
        max_ops: 64,
    }
}

/// Spans for one world, from the stamps the harness took.
fn record_world(tracer: &Tracer, run: &WorldRun, request: &str) {
    let m = &run.marks;
    let world = tracer.record("mpisim.run_world", m.call, m.ret, None, request);
    tracer.record("mpisim.world.spawn", m.call, m.first_entry, world, request);
    tracer.record("core.domain.build", m.build.0, m.build.1, world, request);
    tracer.record("warmup", m.warmup.0, m.warmup.1, world, request);
    for (s, e) in &m.ops {
        tracer.record(m.op_name, *s, *e, world, request);
    }
    tracer.record(
        "mpisim.world.teardown",
        m.last_barrier,
        m.ret,
        world,
        request,
    );
}

/// Check that every measured op of a run repeated the same work: kernel
/// events, NIC bytes and (traced) MPI messages. Virtual time is pinned
/// separately against golden values: on some rungs it drifts by a few
/// picoseconds from op to op, as float settlement depends on the absolute
/// clock.
fn check_repeats(what: &str, ops: &[&OpSample], out: &mut Outcome) {
    let Some(first) = ops.first() else {
        out.fail_all(format!("{what}: no measured ops"));
        return;
    };
    for (i, o) in ops.iter().enumerate() {
        let mut bad = Vec::new();
        if o.counters.events != first.counters.events {
            bad.push(format!(
                "events {} vs {}",
                o.counters.events, first.counters.events
            ));
        }
        if o.counters.nic_bytes != first.counters.nic_bytes {
            bad.push(format!(
                "NIC bytes {} vs {}",
                o.counters.nic_bytes, first.counters.nic_bytes
            ));
        }
        let messages = |s: &OpSample| s.metric_sum("mpi/messages{");
        let traced_first = ops.iter().find(|s| s.metrics.is_some());
        if let (Some(t), Some(_)) = (traced_first, &o.metrics) {
            if messages(o) != messages(t) {
                bad.push(format!("messages {} vs {}", messages(o), messages(t)));
            }
        }
        if !bad.is_empty() {
            out.fail_op(format!("{what} op {i}: {}", bad.join(", ")));
        }
    }
}

/// Host time of `Partition::new` and of the placement entry point
/// (one solve per distinct node extent, as the domain builder memoizes),
/// outside any world; medians of `reps` repetitions.
pub fn time_partition_and_placement(
    domain: [u64; 3],
    nodes: usize,
    node: &topo::NodeSpec,
    quantities: usize,
    strategy: PlacementStrategy,
    reps: usize,
) -> (f64, f64) {
    let discovery = topo::NodeDiscovery::discover(node);
    let gpn = node.num_gpus();
    let radius = Radius::constant(2);
    let mut part_s = Vec::new();
    let mut place_s = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let part = std::hint::black_box(Partition::new(domain, nodes, gpn));
        part_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..part.num_nodes() {
            let idx = part.node_from_linear(n);
            if seen.insert(part.node_box(idx).extent) {
                std::hint::black_box(stencil_core::placement::place(
                    &part,
                    idx,
                    &discovery,
                    Neighborhood::Full26,
                    &radius,
                    quantities,
                    4,
                    strategy,
                    stencil_core::dim3::Boundary::Periodic,
                ));
            }
        }
        place_s.push(t0.elapsed().as_secs_f64());
    }
    (median(&part_s), median(&place_s))
}

/// Per-layer values every world workload reads the same way. Host times
/// come from `timed` (worlds with the metrics registry off, whose cost
/// would inflate them); counts come from `counted` (registry on).
pub fn world_layers(timed: &[&WorldRun], counted: &[&WorldRun], layers: &mut Layers) {
    let med = |f: fn(&WorldRun) -> f64| median(&timed.iter().map(|r| f(r)).collect::<Vec<_>>());
    layers.set("mpisim.world.spawn_s", med(|r| r.spawn_s));
    layers.set("mpisim.world.teardown_s", med(|r| r.teardown_s));
    layers.set("core.domain.build_s", med(|r| r.build_s));
    let ops: Vec<&OpSample> = counted.iter().flat_map(|r| r.ops.iter()).collect();
    let per_op = |f: fn(&OpSample) -> f64| ops.iter().map(|o| f(o)).sum::<f64>() / ops.len() as f64;
    let events = per_op(|o| o.counters.events as f64);
    let stale = per_op(|o| o.counters.stale as f64);
    let wall: Vec<f64> = timed
        .iter()
        .flat_map(|r| r.ops.iter().map(|o| o.wall_s / o.counters.events as f64))
        .collect();
    layers.set("detsim.kernel.events_per_op", events);
    layers.set("detsim.kernel.ns_per_event", median(&wall) * 1e9);
    layers.set("detsim.kernel.stale_frac", stale / (events + stale));
    layers.set(
        "detsim.kernel.heap_compactions_per_op",
        per_op(|o| o.counters.compactions as f64),
    );
    layers.set(
        "detsim.flow.active_flows_peak",
        counted
            .iter()
            .map(|r| r.active_flows_peak)
            .fold(0.0, f64::max),
    );
    layers.set(
        "detsim.flow.nic_bytes_per_op",
        per_op(|o| o.counters.nic_bytes as f64),
    );
    layers.set(
        "mpisim.nic.peak_util",
        counted.iter().map(|r| r.nic_peak_util).fold(0.0, f64::max),
    );
    // Virtual phase times of exchange ops (steps have none and report 0).
    for phase in ["pack", "send", "wait", "unpack"] {
        let v = ops
            .iter()
            .map(|o| o.phases.get(phase).copied().unwrap_or(0.0))
            .sum::<f64>()
            / ops.len() as f64;
        layers.set(&format!("core.exchange.virtual_phase_ms.{phase}"), v * 1e3);
    }
    let metrics: Vec<&BTreeMap<String, f64>> =
        ops.iter().filter_map(|o| o.metrics.as_ref()).collect();
    layers.registry(&metrics);
}

/// A job spec's world and domain as `svc::execute` builds them, fault-free,
/// running exactly the spec's exchange iterations.
pub fn job_shape(spec: &svc::JobSpec) -> WorldPlan {
    let m = spec.methods;
    WorldPlan {
        config: WorldConfig::new(spec.cluster.cluster_spec(), spec.ranks_per_node)
            .cuda_aware(spec.cuda_aware)
            .mpi_persistent(m.contains(stencil_core::Method::PersistentStaged))
            .mpi_partitioned(m.contains(stencil_core::Method::PartitionedStaged))
            .data_mode(DataMode::Virtual),
        builder: DomainBuilder::new(spec.domain)
            .radius(spec.radius)
            .quantities(spec.quantities)
            .neighborhood(Neighborhood::Full26)
            .methods(m)
            .placement(spec.placement)
            .consolidate(spec.consolidate),
        op: Op::Exchange,
        budget: Duration::ZERO,
        min_ops: spec.iters,
        max_ops: spec.iters,
    }
}

fn op_walls(runs: &[&WorldRun]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.ops.iter().map(|o| o.wall_s))
        .collect()
}

/// fig12b-256n. Untraced: `FIG_WORLDS` worlds share the measuring time.
/// Traced: one untraced and one traced world, for the tracing overhead.
pub fn fig12b(seconds: f64, traced: bool, tracer: &Tracer) -> Outcome {
    println!("inputs: fig12b-256n has no seed-dependent input");
    let mut out = Outcome::default();
    let worlds = if traced { 2 } else { FIG_WORLDS };
    let mut runs = Vec::new();
    for w in 0..worlds {
        let metrics_on = traced && w == 1;
        let budget = Duration::from_secs_f64(seconds / worlds as f64);
        let run = measure_world(fig_plan(metrics_on, budget));
        record_world(tracer, &run, &format!("fig12b-256n/world-{w}"));
        println!(
            "world {w}{}: setup {:.3} s (spawn {:.3}, build {:.3}, warm-up {:.3}), {} exchanges, \
             {:.3} s each (median), teardown {:.3} s",
            if metrics_on { " (metrics on)" } else { "" },
            run.setup_s,
            run.spawn_s,
            run.build_s,
            run.warmup.wall_s,
            run.ops.len(),
            median(&op_walls(&[&run])),
            run.teardown_s
        );
        runs.push(run);
    }
    let all: Vec<&OpSample> = runs.iter().flat_map(|r| r.ops.iter()).collect();
    out.attempted = all.len() as u64;
    check_repeats("fig12b-256n", &all, &mut out);
    let v = all[0].op_virtual_s();
    for (i, o) in all.iter().enumerate() {
        if !matches_golden(o.op_virtual_s(), FIG_GOLDEN_S) {
            out.fail_op(format!(
                "exchange {i}: virtual time {:.9} s differs from the golden {FIG_GOLDEN_S} s",
                o.op_virtual_s()
            ));
        }
    }
    println!(
        "exchange virtual time {:.6} ms, {} events and {} NIC bytes per exchange",
        v * 1e3,
        all[0].counters.events,
        all[0].counters.nic_bytes
    );
    let untraced: Vec<&WorldRun> = runs.iter().filter(|r| !r.traced).collect();
    let op_wall = median(&op_walls(&untraced));
    out.e2e("op_wall_ms", op_wall * 1e3, "ms");
    out.e2e(
        "setup_s",
        median(&untraced.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        "s",
    );
    if traced {
        let counted: Vec<&WorldRun> = runs.iter().filter(|r| r.traced).collect();
        let l = &mut out.layers;
        world_layers(&untraced, &counted, l);
        l.set("core.exchange.wall_s", op_wall);
        l.set(
            "trace.overhead_frac",
            median(&op_walls(&counted)) / op_wall - 1.0,
        );
        let (p, s) = time_partition_and_placement(
            [fig_extent(); 3],
            FIG_NODES,
            &summit_node(),
            4,
            PlacementStrategy::NodeAware,
            5,
        );
        l.set("core.partition.build_s", p);
        l.set("core.placement.solve_s", s);
    }
    out
}

/// transport-4n: the five rungs, each in its own world, in a seeded
/// order. Untraced: `TR_ROUNDS` rounds over the rungs. Traced:
/// one untraced and one traced round.
pub fn transport(seed: u64, seconds: f64, traced: bool, tracer: &Tracer) -> Outcome {
    let mut order: Vec<usize> = (0..RUNGS.len()).collect();
    crate::gen::Rng::new(seed).shuffle(&mut order);
    let names: Vec<&str> = order.iter().map(|&i| RUNGS[i].name).collect();
    println!(
        "inputs: rung order {} (digest {:016x})",
        names.join(","),
        crate::gen::fnv1a(&names)
    );
    let mut out = Outcome::default();
    let rounds = if traced {
        vec![false, true]
    } else {
        vec![false; TR_ROUNDS]
    };
    let budget = Duration::from_secs_f64(seconds / (RUNGS.len() * rounds.len()) as f64);
    // Per rung: its worlds, one per round.
    let mut by_rung: BTreeMap<usize, Vec<WorldRun>> = BTreeMap::new();
    for &metrics_on in &rounds {
        for &i in &order {
            let r = &RUNGS[i];
            let run = measure_world(WorldPlan {
                config: r.world(metrics_on),
                builder: r.builder(),
                op: Op::Step {
                    bytes_per_cell: TR_BYTES_PER_CELL,
                },
                budget,
                min_ops: 3,
                max_ops: 400,
            });
            record_world(tracer, &run, &format!("transport-4n/{}", r.name));
            println!(
                "{:<12}{}: setup {:.3} s, {} steps, {:.2} ms each (median), virtual {:.6} ms",
                r.name,
                if metrics_on { " (metrics on)" } else { "" },
                run.setup_s,
                run.ops.len(),
                median(&op_walls(&[&run])) * 1e3,
                run.ops[0].window_virtual_s() * 1e3
            );
            by_rung.entry(i).or_default().push(run);
        }
    }
    let all: Vec<&OpSample> = by_rung
        .values()
        .flat_map(|rs| rs.iter().flat_map(|r| r.ops.iter()))
        .collect();
    out.attempted = all.len() as u64;
    let mut step_wall = Vec::new();
    let mut step_wall_traced = Vec::new();
    for (&i, runs) in &by_rung {
        let r = &RUNGS[i];
        let ops: Vec<&OpSample> = runs.iter().flat_map(|w| w.ops.iter()).collect();
        check_repeats(r.name, &ops, &mut out);
        let v = ops[0].window_virtual_s();
        for (k, o) in ops.iter().enumerate() {
            let golden = r
                .golden_s
                .filter(|g| !matches_golden(o.window_virtual_s(), g));
            if let Some(golden) = golden {
                out.fail_op(format!(
                    "{} step {k}: virtual time {:.9} s differs from the golden {golden} s",
                    r.name,
                    o.window_virtual_s()
                ));
            }
        }
        let timed: Vec<&WorldRun> = runs.iter().filter(|w| !w.traced).collect();
        step_wall.push(median(&op_walls(&timed)));
        if let Some(t) = runs.iter().find(|w| w.traced) {
            step_wall_traced.push(median(&op_walls(&[t])));
            out.layers.set(
                &format!("core.overlap.step_wall_ms.{}", r.name),
                step_wall.last().expect("pushed above") * 1e3,
            );
            out.layers
                .set(&format!("core.overlap.step_virtual_ms.{}", r.name), v * 1e3);
        }
    }
    // Identical delivered bytes on every rung, as `overlap --validate` pins
    // (within a rung, `check_repeats` already pinned every step).
    let per_rung: Vec<(&str, u64)> = by_rung
        .iter()
        .map(|(i, rs)| (RUNGS[*i].name, rs[0].ops[0].counters.nic_bytes))
        .collect();
    match same_nic_bytes(&per_rung) {
        Ok(nic) => println!("every rung injects {nic} NIC bytes per step"),
        Err(e) => out.fail_all(e),
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.e2e("op_wall_ms", mean(&step_wall) * 1e3, "ms");
    // Set-up of one round (every rung's world), median over the untraced
    // rounds.
    let round_setup: Vec<f64> = (0..rounds.len())
        .filter(|&k| !rounds[k])
        .map(|k| by_rung.values().map(|rs| rs[k].setup_s).sum())
        .collect();
    out.e2e("setup_s", median(&round_setup), "s");
    if traced {
        let worlds = by_rung.values().flatten();
        let timed: Vec<&WorldRun> = worlds.clone().filter(|w| !w.traced).collect();
        let counted: Vec<&WorldRun> = worlds.filter(|w| w.traced).collect();
        world_layers(&timed, &counted, &mut out.layers);
        out.layers.set(
            "trace.overhead_frac",
            mean(&step_wall_traced) / mean(&step_wall) - 1.0,
        );
        let e = weak_scaling_extent(TR_PER_GPU, TR_NODES * 6);
        let (p, s) = time_partition_and_placement(
            [e; 3],
            TR_NODES,
            &summit_node(),
            2,
            PlacementStrategy::NodeAware,
            5,
        );
        out.layers.set("core.partition.build_s", p);
        out.layers.set("core.placement.solve_s", s);
    }
    out
}
