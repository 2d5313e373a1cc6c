//! Spec → world construction and execution.
//!
//! [`execute_with`] is the one place in the tree that turns a declarative
//! workload description into a running simulated world: resolve the
//! cluster preset, install the fault schedule, build the distributed
//! domain inside the world, and run the measured exchange loop under the
//! paper's timing protocol (barrier, `wtime`, exchange, max across
//! ranks). The bench harness (`stencil_bench::measure_exchange`) and the
//! job service both delegate here, so every figure binary and every
//! service job measures through identical construction code.
//!
//! Each world runs on the coroutine runtime inside the calling OS thread
//! and shares nothing with other worlds, so a job's committed virtual
//! times are bit-identical no matter how many neighbors run concurrently
//! on other workers — the property `crates/svc/tests/determinism.rs`
//! pins.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use faultsim::FaultSchedule;
use gpusim::DataMode;
use mpisim::{run_world, WorldConfig};
use stencil_core::{DomainBuilder, Method, Neighborhood, Placement};

use crate::spec::{FaultScenario, JobSpec};

/// Panic payload used to unwind a world whose job was cancelled (timeout
/// or explicit cancel). The service classifies unwinds carrying this
/// message as cancellation rather than a crashed job.
pub const CANCEL_PANIC: &str = "svc: job cancelled";

/// Panic payload produced by the [`JobSpec::poison_at_iter`] chaos hook.
pub const POISON_PANIC: &str = "svc: poisoned world (poison_at_iter hook)";

/// Caller-supplied extras that are not part of the declarative spec.
#[derive(Clone, Default)]
pub struct RunHooks {
    /// Precomputed per-node placements: skips the in-world placement
    /// phase (bench sweeps measuring one geometry under several method
    /// tiers pay the QAP cost once).
    pub preplaced: Option<Arc<Vec<Placement>>>,
    /// Replace the spec's named fault scenario with an explicit schedule
    /// (bench scenarios that aim faults at computed targets).
    pub fault_override: Option<FaultSchedule>,
    /// Cooperative cancellation: checked by every rank at each iteration
    /// boundary; when set, the world unwinds with [`CANCEL_PANIC`].
    pub cancel: Option<Arc<AtomicBool>>,
}

/// What one executed job measured.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Per-iteration max-across-ranks exchange seconds (virtual time).
    pub per_iter: Vec<f64>,
    /// Mean of `per_iter`.
    pub mean: f64,
    /// Human-readable plan summary from rank 0.
    pub plan: String,
    /// Metrics snapshot, if the spec asked for one.
    pub metrics: Option<detsim::MetricsReport>,
    /// Final virtual time of the world, picoseconds — the primary
    /// bit-identity anchor for determinism comparisons.
    pub elapsed_virtual_ps: u64,
}

/// Run the job described by `spec` to completion in a fresh world on the
/// calling thread. See [`execute_with`].
pub fn execute(spec: &JobSpec) -> RunOutcome {
    execute_with(spec, RunHooks::default())
}

/// Run `spec` with caller hooks. Panics propagate (after the runtime's
/// poison teardown) when a rank program panics — including cancellation
/// unwinds ([`CANCEL_PANIC`]) and the poison chaos hook
/// ([`POISON_PANIC`]); the service catches and classifies them.
pub fn execute_with(spec: &JobSpec, hooks: RunHooks) -> RunOutcome {
    let num_ranks = spec.num_ranks();
    let times = Rc::new(RefCell::new(vec![Vec::new(); num_ranks]));
    let plan_out = Rc::new(RefCell::new(String::new()));
    let t2 = Rc::clone(&times);
    let p2 = Rc::clone(&plan_out);
    // Rank kill/respawn scenarios cannot be installed at world start: the
    // kill could land mid-build (empirical probes, the IPC handshake),
    // where the domain has no recovery protocol. Defer the whole schedule
    // to a quiet point inside the rank program instead — the measured
    // iterations then run against the re-handshaked, post-respawn world.
    // Fault overrides (bench-aimed schedules) bypass the deferral.
    let spec_faults = spec.faults;
    let rank_fault = hooks.fault_override.is_none()
        && matches!(
            spec_faults,
            FaultScenario::KillRespawn { .. } | FaultScenario::OomRespawn { .. }
        );
    let kill_at_us = match spec_faults {
        FaultScenario::KillRespawn { at_us, .. } | FaultScenario::OomRespawn { at_us, .. } => at_us,
        _ => 0,
    };
    let faults = if rank_fault {
        FaultSchedule::new()
    } else {
        hooks
            .fault_override
            .unwrap_or_else(|| spec.faults.schedule())
    };
    // The MPI stack's transport capabilities follow the requested method
    // set: asking for persistent/partitioned rungs implies a stack that
    // provides them. No new wire fields — `methods_bits` already carries it.
    let world = WorldConfig::new(spec.cluster.cluster_spec(), spec.ranks_per_node)
        .cuda_aware(spec.cuda_aware)
        .mpi_persistent(spec.methods.contains(Method::PersistentStaged))
        .mpi_partitioned(spec.methods.contains(Method::PartitionedStaged))
        .data_mode(DataMode::Virtual)
        .metrics(spec.collect_metrics)
        .faults(faults);
    let domain = spec.domain;
    let radius = spec.radius;
    let quantities = spec.quantities;
    let methods = spec.methods;
    let placement = spec.placement;
    let consolidate = spec.consolidate;
    let iters = spec.iters;
    let poison_at_iter = spec.poison_at_iter;
    let preplaced = hooks.preplaced;
    let cancel = hooks.cancel;
    let report = run_world(world, move |ctx| {
        let mut builder = DomainBuilder::new(domain)
            .radius(radius)
            .quantities(quantities)
            .neighborhood(Neighborhood::Full26)
            .methods(methods)
            .placement(placement)
            .consolidate(consolidate);
        if let Some(pre) = &preplaced {
            builder = builder.preplaced(Arc::clone(pre));
        }
        let mut dom = builder.build(ctx);
        if ctx.rank() == 0 {
            *p2.borrow_mut() = dom.plan_summary().to_string();
        }
        if rank_fault {
            let me = ctx.rank();
            ctx.barrier();
            if me == 0 {
                let now = ctx.sim().with_kernel(|k| k.now());
                ctx.install_faults_at(&spec_faults.schedule(), now);
            }
            ctx.barrier();
            ctx.sim()
                .delay(detsim::SimDuration::from_micros(kill_at_us + 10));
            if !ctx.is_alive(me) {
                dom.abandon_local_state(ctx);
                ctx.await_respawn(me);
            } else {
                ctx.await_all_alive();
            }
            ctx.barrier();
            dom.rejoin_after_respawn(ctx);
        }
        let mut mine = Vec::with_capacity(iters);
        for i in 0..iters {
            if let Some(flag) = &cancel {
                if flag.load(Ordering::Relaxed) {
                    std::panic::panic_any(CANCEL_PANIC);
                }
            }
            if poison_at_iter == Some(i) && ctx.rank() == 0 {
                std::panic::panic_any(POISON_PANIC);
            }
            ctx.barrier();
            let t0 = ctx.wtime();
            dom.exchange(ctx);
            mine.push(ctx.wtime() - t0);
        }
        t2.borrow_mut()[ctx.rank()] = mine;
    });
    let per_rank = times.take();
    let per_iter: Vec<f64> = (0..spec.iters)
        .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0f64, f64::max))
        .collect();
    let mean = per_iter.iter().sum::<f64>() / per_iter.len().max(1) as f64;
    let plan = plan_out.take();
    RunOutcome {
        per_iter,
        mean,
        plan,
        metrics: report.metrics,
        elapsed_virtual_ps: report.elapsed.picos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterPreset, FaultScenario};

    fn tiny() -> JobSpec {
        JobSpec::new("t", ClusterPreset::Summit { nodes: 1 }, 2, [64, 64, 64]).iters(2)
    }

    #[test]
    fn executes_and_reports_virtual_times() {
        let out = execute(&tiny());
        assert_eq!(out.per_iter.len(), 2);
        assert!(out.mean > 0.0);
        assert!(out.elapsed_virtual_ps > 0);
        assert!(!out.plan.is_empty());
    }

    #[test]
    fn named_fault_scenario_slows_the_run() {
        // Full node so every device is placed, and a domain big enough
        // that pack/unpack time is visible next to link latency.
        let spec =
            JobSpec::new("t", ClusterPreset::Summit { nodes: 1 }, 6, [384, 384, 384]).iters(2);
        let clean = execute(&spec);
        let faulted = execute(&spec.clone().faults(FaultScenario::StragglerGpu {
            device: 2,
            at_us: 0,
            speed_factor: 0.05,
        }));
        assert!(
            faulted.mean > clean.mean * 1.5,
            "straggler must bite: clean {} faulted {}",
            clean.mean,
            faulted.mean
        );
    }

    #[test]
    fn metrics_requested_means_metrics_returned() {
        let out = execute(&tiny().collect_metrics(true));
        let json = out.metrics.expect("metrics requested").to_json();
        assert!(json.contains("\"exchange\""), "{json}");
    }

    #[test]
    fn cancel_flag_unwinds_with_cancel_payload() {
        let flag = Arc::new(AtomicBool::new(true));
        let hooks = RunHooks {
            cancel: Some(Arc::clone(&flag)),
            ..Default::default()
        };
        let spec = tiny();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_with(&spec, hooks)))
                .expect_err("pre-set cancel flag must unwind the world");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, CANCEL_PANIC);
    }

    #[test]
    fn poison_hook_unwinds_with_poison_payload() {
        let spec = tiny().poison_at_iter(1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(&spec)))
            .expect_err("poison hook must unwind the world");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, POISON_PANIC);
    }
}
