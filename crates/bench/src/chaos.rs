//! Resilience scenario harness shared by the `chaos` bench binary and the
//! degraded-triad / kill-respawn acceptance tests.
//!
//! The headline scenarios follow the paper's premise in reverse: placement
//! matches exchange volume to link bandwidth, so when a link's bandwidth
//! collapses mid-run — or a rank dies and takes its placement state with
//! it — the placement is suddenly wrong. The harness runs the same
//! physical fault under several policies — keep the stale placement, adapt
//! ([`stencil_core::AdaptPolicy`] + `DistributedDomain::adapt`), or
//! rebuild from scratch against the degraded substrate (the recovery
//! target) — and reports steady-state exchange times for each.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use detsim::{MetricsReport, SimDuration};
use faultsim::FaultSchedule;
use gpusim::DataMode;
use mpisim::{run_world, WorldConfig};
use stencil_core::dim3::Boundary;
use stencil_core::placement::flow_matrix_bc;
use stencil_core::{
    AdaptOutcome, AdaptPolicy, AdaptScope, DomainBuilder, Methods, MigrationMode, Neighborhood,
    Partition, Placement, PlacementStrategy, Radius,
};
use topo::presets::fat_cluster;
use topo::summit::summit_cluster;
use topo::ClusterSpec;

use crate::{node_aware_placements_for, ExchangeConfig};

/// Policy for responding to the mid-run triad degradation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriadMode {
    /// Keep the pre-fault placement: the control arm showing the cost of
    /// not adapting.
    NoAdapt,
    /// Detect the degradation with a [`stencil_core::HealthMonitor`] and
    /// trigger adaptive re-placement.
    Adapt,
    /// Build the domain from scratch with empirical placement while the
    /// fault is already live — the fresh-optimal recovery target that
    /// adaptation is measured against.
    FreshOptimal,
}

/// Outcome of one degraded-triad run.
#[derive(Clone, Debug)]
pub struct TriadRun {
    /// Mean max-across-ranks exchange seconds before the fault (for
    /// [`TriadMode::FreshOptimal`] the fault is live from the start, so
    /// this is just its warmup under the degraded substrate).
    pub healthy_mean: f64,
    /// Mean max-across-ranks exchange seconds in the post-fault steady
    /// state (after adaptation, when the mode adapts).
    pub degraded_mean: f64,
    /// Whether adaptive re-placement ran and changed the placement.
    pub adapted: bool,
    /// Metrics snapshot of the run.
    pub metrics: Option<MetricsReport>,
}

/// The same-triad GPU pair carrying the most exchange volume under
/// `placement` — the highest-impact NVLink to degrade. Restricting to
/// same-triad pairs keeps the fault on a dedicated GPU-GPU link (a
/// cross-socket pair would degrade the shared X-Bus path instead).
pub fn heaviest_triad_pair(
    part: &Partition,
    placement: &Placement,
    radius: u64,
    quantities: usize,
) -> (usize, usize) {
    heaviest_island_pair(part, placement, radius, quantities, 3)
}

/// As [`heaviest_triad_pair`], for nodes whose NVLink islands hold
/// `gpus_per_island` GPUs each (Summit's triads are the 3-GPU case;
/// [`topo::presets::fat_node`] numbers GPUs island by island, so
/// `g / gpus_per_island` is the island index on both presets).
pub fn heaviest_island_pair(
    part: &Partition,
    placement: &Placement,
    radius: u64,
    quantities: usize,
    gpus_per_island: usize,
) -> (usize, usize) {
    heaviest_island_pair_at(part, placement, 0, radius, quantities, gpus_per_island)
}

/// As [`heaviest_island_pair`], against the flow matrix of an arbitrary
/// node (the linear node index) — for faults aimed at nodes other than 0.
pub fn heaviest_island_pair_at(
    part: &Partition,
    placement: &Placement,
    node: usize,
    radius: u64,
    quantities: usize,
    gpus_per_island: usize,
) -> (usize, usize) {
    let idx = part.node_from_linear(node);
    let w = flow_matrix_bc(
        part,
        idx,
        Neighborhood::Full26,
        &Radius::constant(radius),
        quantities,
        4,
        Boundary::Periodic,
    );
    let island = |g: usize| g / gpus_per_island;
    let mut best = (0usize, 1usize);
    let mut best_vol = -1.0f64;
    for (s, row) in w.iter().enumerate() {
        for t in (s + 1)..row.len() {
            let g1 = placement.gpu_for_subdomain[s];
            let g2 = placement.gpu_for_subdomain[t];
            if g1 == g2 || island(g1) != island(g2) {
                continue;
            }
            let vol = row[t] + w[t][s];
            if vol > best_vol {
                best_vol = vol;
                best = (g1.min(g2), g1.max(g2));
            }
        }
    }
    best
}

/// Run the degraded-triad scenario on one Summit node: build under a
/// healthy node-aware placement, degrade the placement's busiest NVLink to
/// `bandwidth_factor` × nominal mid-run, and respond per `mode`.
///
/// All three modes degrade the *same* physical link (the pair is chosen
/// from the healthy placement, computed purely up front), so their
/// steady-state times are directly comparable. Runs are deterministic:
/// same inputs, bit-identical times.
pub fn degraded_triad_run(
    domain: [u64; 3],
    ranks_per_node: usize,
    bandwidth_factor: f64,
    warmup_iters: usize,
    measure_iters: usize,
    mode: TriadMode,
) -> TriadRun {
    degraded_island_run(
        summit_cluster(1),
        3,
        1.25,
        domain,
        ranks_per_node,
        bandwidth_factor,
        warmup_iters,
        measure_iters,
        mode,
    )
}

/// The fat-node variant of the headline scenario: one 12-GPU node
/// ([`topo::presets::fat_node`]`(2, 2, 3)` — two NVLink islands per
/// socket), exercising the placement ladder's *heuristic* rung end to end
/// (12 > `qap::EXHAUSTIVE_MAX_N`, so both the initial placement and
/// `DistributedDomain::adapt`'s parallel re-solve run delta-2-opt/
/// multilevel, not exhaustive search). Detection threshold is lower than
/// the triad run's
/// because 10 unaffected ranks dilute the degraded pair in the mean.
pub fn degraded_fat_node_run(
    domain: [u64; 3],
    bandwidth_factor: f64,
    warmup_iters: usize,
    measure_iters: usize,
    mode: TriadMode,
) -> TriadRun {
    degraded_island_run(
        fat_cluster(1, 2, 2, 3),
        3,
        1.05,
        domain,
        12,
        bandwidth_factor,
        warmup_iters,
        measure_iters,
        mode,
    )
}

/// Run the degraded-island scenario on one node of an arbitrary cluster
/// preset: build under a healthy node-aware placement, degrade the
/// placement's busiest intra-island NVLink to `bandwidth_factor` ×
/// nominal mid-run, and respond per `mode`. `monitor_threshold` is the
/// [`stencil_core::HealthMonitor`] degradation factor (how much the
/// fleet-mean exchange
/// time must exceed baseline — scale it down for nodes with many
/// unaffected ranks). See [`degraded_triad_run`] for the Summit headline
/// configuration.
#[allow(clippy::too_many_arguments)] // scenario knobs, mirrors degraded_triad_run
pub fn degraded_island_run(
    cluster: ClusterSpec,
    gpus_per_island: usize,
    monitor_threshold: f64,
    domain: [u64; 3],
    ranks_per_node: usize,
    bandwidth_factor: f64,
    warmup_iters: usize,
    measure_iters: usize,
    mode: TriadMode,
) -> TriadRun {
    assert!(warmup_iters >= 1 && measure_iters >= 1);
    let gpn = cluster.node.num_gpus();
    let cfg = ExchangeConfig::new(1, ranks_per_node, 0).domain(domain);
    let healthy = node_aware_placements_for(&cfg, &cluster.node);
    let part = Partition::new(domain, 1, gpn);
    let (a, b) = heaviest_island_pair(
        &part,
        &healthy[0],
        cfg.radius,
        cfg.quantities,
        gpus_per_island,
    );
    let fault = FaultSchedule::degraded_triad(0, a, b, SimDuration::ZERO, bandwidth_factor);

    let num_ranks = ranks_per_node;
    let healthy_times: Rc<RefCell<Vec<Vec<f64>>>> =
        Rc::new(RefCell::new(vec![Vec::new(); num_ranks]));
    let degraded_times: Rc<RefCell<Vec<Vec<f64>>>> =
        Rc::new(RefCell::new(vec![Vec::new(); num_ranks]));
    let adapted_flag = Rc::new(RefCell::new(false));
    let (ht, dt, af) = (
        Rc::clone(&healthy_times),
        Rc::clone(&degraded_times),
        Rc::clone(&adapted_flag),
    );

    let mut world = WorldConfig::new(cluster, ranks_per_node)
        .data_mode(DataMode::Virtual)
        .metrics(true);
    if mode == TriadMode::FreshOptimal {
        // The fault precedes the build, so the empirical probes measure the
        // degraded substrate and placement is optimal *for it*.
        world = world.faults(fault.clone());
    }
    let radius = cfg.radius;
    let quantities = cfg.quantities;
    let report = run_world(world, move |ctx| {
        let mut builder = DomainBuilder::new(domain)
            .radius(radius)
            .quantities(quantities)
            .neighborhood(Neighborhood::Full26)
            .methods(Methods::all());
        builder = match mode {
            TriadMode::FreshOptimal => builder.placement(PlacementStrategy::Empirical),
            _ => builder.preplaced(Arc::clone(&healthy)),
        };
        let mut dom = builder.build(ctx);
        // One window per iteration; baseline = mean of the warmup windows.
        // The exchange histogram averages every rank's critical path, so a
        // fault on one link is diluted by the unaffected ranks — 1.25x of
        // baseline is already a large, localized hit (and the simulation is
        // deterministic, so healthy windows sit exactly on the baseline).
        let mut monitor = AdaptPolicy::new()
            .threshold(monitor_threshold)
            .warmup_windows(warmup_iters)
            .monitor();

        let mut mine = Vec::with_capacity(warmup_iters);
        for _ in 0..warmup_iters {
            ctx.barrier();
            let t0 = ctx.wtime();
            dom.exchange(ctx);
            mine.push(ctx.wtime() - t0);
            // Barrier-synchronized checkpoint: every rank sees the same
            // registry and reaches the same verdict.
            ctx.barrier();
            monitor.check(ctx);
        }
        ht.borrow_mut()[ctx.rank()] = mine;

        if mode != TriadMode::FreshOptimal {
            // Inject mid-run: one rank schedules the degradation at the
            // current virtual time; the surrounding barriers make sure no
            // rank races ahead of the installation.
            ctx.barrier();
            if ctx.rank() == 0 {
                let machine = ctx.machine().clone();
                ctx.sim().with_kernel(|k| {
                    let now = k.now();
                    fault.install_at(k, &machine, now);
                });
            }
            ctx.barrier();
            // Detection phase: the monitor flags the slowdown and (in
            // adapt mode) the domain re-places itself.
            for _ in 0..2 {
                ctx.barrier();
                dom.exchange(ctx);
                ctx.barrier();
                if mode == TriadMode::Adapt {
                    if let AdaptOutcome::Migrated { .. } = dom.adapt(ctx, &mut monitor) {
                        *af.borrow_mut() = true;
                    }
                } else {
                    monitor.check(ctx);
                }
            }
        }

        let mut mine = Vec::with_capacity(measure_iters);
        for _ in 0..measure_iters {
            ctx.barrier();
            let t0 = ctx.wtime();
            dom.exchange(ctx);
            mine.push(ctx.wtime() - t0);
        }
        dt.borrow_mut()[ctx.rank()] = mine;
    });

    let mean_of = |per_rank: &[Vec<f64>], iters: usize| {
        let per_iter: Vec<f64> = (0..iters)
            .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0f64, f64::max))
            .collect();
        per_iter.iter().sum::<f64>() / per_iter.len().max(1) as f64
    };
    let healthy_mean = mean_of(&healthy_times.borrow_mut(), warmup_iters);
    let degraded_mean = mean_of(&degraded_times.borrow_mut(), measure_iters);
    let adapted = *adapted_flag.borrow_mut();
    TriadRun {
        healthy_mean,
        degraded_mean,
        adapted,
        metrics: report.metrics,
    }
}

/// Policy for responding to the correlated kill-respawn fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Rejoin after the respawn but keep the stale placement: the control
    /// arm showing the cost of ignoring the correlated link degradation.
    NoAdapt,
    /// Rejoin, then adapt with the naive policy: global re-probe/re-solve
    /// and [`MigrationMode::StopTheWorld`] migration.
    StopTheWorldAdapt,
    /// Rejoin, then adapt with the full policy: per-link localization
    /// ([`AdaptScope::Localized`]) and [`MigrationMode::Overlapped`]
    /// migration.
    OverlappedAdapt,
    /// Build from scratch with empirical placement while the degradation
    /// is already live (no kill) — the fresh-optimal recovery target.
    FreshOptimal,
}

/// Outcome of one kill-respawn recovery run.
#[derive(Clone, Debug)]
pub struct RecoveryRun {
    /// Mean max-across-ranks exchange seconds before the fault (for
    /// [`RecoveryMode::FreshOptimal`], under the already-degraded
    /// substrate).
    pub healthy_mean: f64,
    /// Mean max-across-ranks exchange seconds in the recovered steady
    /// state.
    pub steady_mean: f64,
    /// Max-across-ranks virtual seconds from the fault installation to the
    /// end of the reaction phase (down-window + rejoin + detection +
    /// migration).
    pub recovery_secs: f64,
    /// Max-across-ranks virtual seconds spent inside the `adapt` call that
    /// migrated (probe + re-solve + data movement); `0.0` when nothing
    /// migrated.
    pub migrate_secs: f64,
    /// Whether adaptation migrated the placement.
    pub adapted: bool,
    /// The [`AdaptOutcome::Migrated`] `node` field: `Some(Some(n))` when
    /// localization re-solved only node `n`, `Some(None)` for a global
    /// re-solve, `None` when nothing migrated.
    pub adapted_node: Option<Option<usize>>,
    /// Metrics snapshot of the run.
    pub metrics: Option<MetricsReport>,
}

/// Run the correlated kill-respawn (or OOM-respawn, with `oom`) scenario
/// on two Summit nodes, 3 ranks each: rank 4 dies mid-run while — same
/// root cause, think a failing PCIe riser — node 1's busiest placed NVLink
/// drops to 2% and the inter-node switch to 70% of nominal. The rank
/// respawns 300 virtual µs later with its device data gone, rejoins via
/// `DistributedDomain::rejoin_after_respawn` (the re-handshake over the
/// revoked communicator), and the world reacts per `mode`.
///
/// With `oom`, the kill is an OOM event: the victim's first device shrinks
/// to 5% memory for the down-window (its post-death allocations fail), and
/// is restored just before the respawn.
///
/// All modes share the physical fault, so steady-state times are directly
/// comparable; runs are deterministic, so repeated runs are bit-identical.
pub fn kill_recovery_run(
    domain: [u64; 3],
    warmup_iters: usize,
    measure_iters: usize,
    mode: RecoveryMode,
    oom: bool,
) -> RecoveryRun {
    assert!(warmup_iters >= 1 && measure_iters >= 1);
    let cluster = summit_cluster(2);
    let ranks_per_node = 3;
    let num_ranks = 2 * ranks_per_node;
    let victim = 4usize; // node 1, local rank 1 -> devices 8 and 9
    let victim_device = 8usize;
    let kill_at = SimDuration::from_micros(50);
    let down_for = SimDuration::from_micros(300);
    let gpn = cluster.node.num_gpus();

    let cfg = ExchangeConfig::new(2, ranks_per_node, 0).domain(domain);
    let healthy = node_aware_placements_for(&cfg, &cluster.node);
    let part = Partition::new(domain, 2, gpn);
    // Aim the link degradation at node 1's busiest placed NVLink so the
    // stale placement really is wrong afterwards.
    let (a, b) = heaviest_island_pair_at(&part, &healthy[1], 1, cfg.radius, cfg.quantities, 3);
    // 2% NVLink bandwidth: with two nodes the inter-node leg dominates the
    // critical path, so a milder intra-node degradation would hide behind
    // it and never clear the detection threshold.
    let degrade = |at: SimDuration| {
        FaultSchedule::degraded_triad(1, a, b, at, 0.02)
            .merge(FaultSchedule::degraded_switch(0, 2, at, 0.7))
    };
    let fault = degrade(kill_at).merge(if oom {
        FaultSchedule::oom_respawn(victim_device, victim, kill_at, down_for, 0.05)
    } else {
        FaultSchedule::kill_respawn(victim, kill_at, down_for)
    });

    let radius = cfg.radius;
    let quantities = cfg.quantities;
    let healthy_times: Rc<RefCell<Vec<Vec<f64>>>> =
        Rc::new(RefCell::new(vec![Vec::new(); num_ranks]));
    let steady_times: Rc<RefCell<Vec<Vec<f64>>>> =
        Rc::new(RefCell::new(vec![Vec::new(); num_ranks]));
    let recovery_secs = Rc::new(RefCell::new(vec![0.0f64; num_ranks]));
    let migrate_secs = Rc::new(RefCell::new(vec![0.0f64; num_ranks]));
    let adapted_node: Rc<RefCell<Option<Option<usize>>>> = Rc::new(RefCell::new(None));
    let (ht, st, rs, ms, an) = (
        Rc::clone(&healthy_times),
        Rc::clone(&steady_times),
        Rc::clone(&recovery_secs),
        Rc::clone(&migrate_secs),
        Rc::clone(&adapted_node),
    );

    let mut world = WorldConfig::new(cluster, ranks_per_node)
        .data_mode(DataMode::Virtual)
        .metrics(true);
    if mode == RecoveryMode::FreshOptimal {
        world = world.faults(degrade(SimDuration::ZERO));
    }
    let report = run_world(world, move |ctx| {
        let me = ctx.rank();
        let mut builder = DomainBuilder::new(domain)
            .radius(radius)
            .quantities(quantities)
            .neighborhood(Neighborhood::Full26)
            .methods(Methods::all());
        builder = match mode {
            RecoveryMode::FreshOptimal => builder.placement(PlacementStrategy::Empirical),
            _ => builder.preplaced(Arc::clone(&healthy)),
        };
        let mut dom = builder.build(ctx);
        let mut monitor = match mode {
            RecoveryMode::StopTheWorldAdapt => AdaptPolicy::new()
                .warmup_windows(warmup_iters)
                .scope(AdaptScope::Global)
                .mode(MigrationMode::StopTheWorld),
            _ => AdaptPolicy::new()
                .warmup_windows(warmup_iters)
                .scope(AdaptScope::Localized)
                .mode(MigrationMode::Overlapped),
        }
        .monitor();

        let mut mine = Vec::with_capacity(warmup_iters);
        for _ in 0..warmup_iters {
            ctx.barrier();
            let t0 = ctx.wtime();
            dom.exchange(ctx);
            mine.push(ctx.wtime() - t0);
            ctx.barrier();
            monitor.check(ctx);
        }
        ht.borrow_mut()[me] = mine;

        if mode != RecoveryMode::FreshOptimal {
            // Install the correlated fault mid-run: kill + link + switch
            // degradation, one event table, one root cause.
            ctx.barrier();
            let t_fault = ctx.wtime();
            if me == 0 {
                let now = ctx.sim().with_kernel(|k| k.now());
                ctx.install_faults_at(&fault, now);
            }
            ctx.barrier();
            // Step past the kill instant so every rank observes the death.
            ctx.sim().delay(kill_at + SimDuration::from_micros(10));
            if !ctx.is_alive(me) {
                // We are the simulated casualty: device state is gone.
                dom.abandon_local_state(ctx);
                if oom {
                    // The OOM that killed us also shrank the device; until
                    // the restore, allocations keep failing.
                    let limit = ctx.machine().device_mem_limit(victim_device);
                    let err = ctx.machine().alloc_device_untimed(victim_device, limit + 1);
                    assert!(
                        matches!(err, Err(gpusim::GpuError::OutOfMemory { .. })),
                        "post-OOM allocation should fail while the device is shrunk"
                    );
                }
                ctx.await_respawn(me);
            } else {
                ctx.await_all_alive();
            }
            ctx.barrier();
            // Whole world again: re-handshake and reallocate the victim.
            dom.rejoin_after_respawn(ctx);

            // Detection + reaction: the placement is stale against the
            // degraded NVLink; adapt modes find and fix it.
            let mut my_migrate = 0.0f64;
            for _ in 0..2 {
                ctx.barrier();
                dom.exchange(ctx);
                ctx.barrier();
                if mode == RecoveryMode::NoAdapt {
                    monitor.check(ctx);
                } else {
                    let t0 = ctx.wtime();
                    if let AdaptOutcome::Migrated { node, .. } = dom.adapt(ctx, &mut monitor) {
                        my_migrate = ctx.wtime() - t0;
                        *an.borrow_mut() = Some(node);
                    }
                }
            }
            rs.borrow_mut()[me] = ctx.wtime() - t_fault;
            ms.borrow_mut()[me] = my_migrate;
        }

        let mut mine = Vec::with_capacity(measure_iters);
        for _ in 0..measure_iters {
            ctx.barrier();
            let t0 = ctx.wtime();
            dom.exchange(ctx);
            mine.push(ctx.wtime() - t0);
        }
        st.borrow_mut()[me] = mine;
    });

    let mean_of = |per_rank: &[Vec<f64>], iters: usize| {
        let per_iter: Vec<f64> = (0..iters)
            .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0f64, f64::max))
            .collect();
        per_iter.iter().sum::<f64>() / per_iter.len().max(1) as f64
    };
    let max_of = |v: &[f64]| v.iter().fold(0.0f64, |m, &x| m.max(x));
    let node = *adapted_node.borrow_mut();
    let healthy_mean = mean_of(&healthy_times.borrow_mut(), warmup_iters);
    let steady_mean = mean_of(&steady_times.borrow_mut(), measure_iters);
    let recovery_secs = max_of(&recovery_secs.borrow_mut());
    let migrate_secs = max_of(&migrate_secs.borrow_mut());
    RecoveryRun {
        healthy_mean,
        steady_mean,
        recovery_secs,
        migrate_secs,
        adapted: node.is_some(),
        adapted_node: node,
        metrics: report.metrics,
    }
}
