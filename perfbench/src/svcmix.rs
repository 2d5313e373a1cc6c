//! svc-mix: an open-loop job stream into `svc::Service`.
//!
//! One generator thread submits the seeded arrival list on schedule; the
//! main thread waits for each job. A job's latency runs from its scheduled
//! arrival to its completion, so a generator that falls behind adds to it.
//!
//! The end-to-end op time is a job's execution in the pool (dispatch to
//! completion). Latency, which adds queueing, is reported per layer: on a
//! 2-vCPU host its median moved 25–45% between identical runs, with one
//! worker or two, while the execution median moved 3–5% with one worker.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use svc::{FaultScenario, JobStatus, ResultStore, Service, ServiceConfig};

use crate::gen::{self, Arrival, Class};
use crate::report::Outcome;
use crate::stats::{median, percentile, summarize};
use crate::trace::Tracer;

/// Mean arrival rate, jobs per second: about a fifth of what the one-worker
/// pool completes of this mix (about 80 jobs/s closed-loop), so jobs queue
/// behind the large rows but the backlog does not grow. At half capacity the
/// execution median moved 12% between identical runs.
pub const RATE: f64 = 15.0;
/// Enough jobs that p95 has at least ten samples beyond it.
const MIN_JOBS: usize = 220;
/// Service starts per run; set-up is reported as their median.
const STARTS: usize = 3;

struct Done {
    class: Class,
    status: Option<JobStatus>,
    latency_ms: f64,
    queue_ms: f64,
    run_ms: f64,
    lag_ms: f64,
}

/// Submit `list` on schedule and wait for every job.
fn stream(service: &Service, list: &[Arrival], tracer: &Tracer) -> Vec<Done> {
    let start = Instant::now() + Duration::from_millis(5);
    let mut done = Vec::with_capacity(list.len());
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        s.spawn(move || {
            for (i, a) in list.iter().enumerate() {
                let due = start + Duration::from_secs_f64(a.due_s);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let submitted = Instant::now();
                let handle = service.submit(a.spec.clone());
                tx.send((i, due, submitted, handle))
                    .expect("collector outlives the generator");
            }
        });
        for (i, due, submitted, handle) in rx {
            let lag_ms = (submitted - due).as_secs_f64() * 1e3;
            let class = list[i].class;
            let d = match handle {
                Ok(h) => {
                    let r = h.wait();
                    let ms = |v: f64| Duration::from_secs_f64(v / 1e3);
                    let request = format!("job-{}", r.job_id);
                    let job =
                        tracer.record("svc.job", due, submitted + ms(r.total_ms), None, &request);
                    let ran = submitted + ms(r.queue_ms);
                    tracer.record("svc.queue", submitted, ran, job, &request);
                    tracer.record("svc.execute", ran, ran + ms(r.run_ms), job, &request);
                    Done {
                        class,
                        status: Some(r.status),
                        latency_ms: lag_ms + r.total_ms,
                        queue_ms: r.queue_ms,
                        run_ms: r.run_ms,
                        lag_ms,
                    }
                }
                Err(e) => {
                    eprintln!("job {i} rejected: {e}");
                    Done {
                        class,
                        status: None,
                        latency_ms: 0.0,
                        queue_ms: 0.0,
                        run_ms: 0.0,
                        lag_ms,
                    }
                }
            };
            done.push(d);
        }
    });
    done
}

/// Each fault class must change virtual time against its clean twin. The
/// first seeded instance of each class is run both ways through
/// `svc::execute`. Returns the problems found.
fn chaos_bite(list: &[Arrival]) -> Vec<String> {
    let mut problems = Vec::new();
    for template in gen::templates(Class::Chaos) {
        let scenario = template.faults.scenario();
        let spec = list
            .iter()
            .find(|a| a.spec.faults.scenario() == scenario)
            .map(|a| a.spec.clone())
            .unwrap_or(template);
        let mut clean = spec.clone();
        clean.faults = FaultScenario::None;
        let faulted = svc::execute(&spec);
        let twin = svc::execute(&clean);
        println!(
            "chaos {:<14} virtual {:.6} ms (clean {:.6} ms), elapsed {} ps (clean {} ps)",
            scenario.name(),
            faulted.mean * 1e3,
            twin.mean * 1e3,
            faulted.elapsed_virtual_ps,
            twin.elapsed_virtual_ps
        );
        if faulted.elapsed_virtual_ps == twin.elapsed_virtual_ps
            && faulted.mean.to_bits() == twin.mean.to_bits()
        {
            problems.push(format!(
                "fault {} did not change virtual time: {:?}",
                scenario.name(),
                spec.faults
            ));
        }
    }
    problems
}

fn percentiles(values: &[f64]) -> (f64, f64) {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    (median(&s), percentile(&s, 0.95))
}

pub fn svc_mix(seed: u64, seconds: f64, traced: bool, tracer: &Tracer) -> Outcome {
    // One worker: with two on a 2-vCPU host, co-running jobs slowed each
    // other by up to 1.6x and the execution median moved 40% between runs.
    let workers = 1;
    let list = gen::arrivals(seed, RATE, seconds, MIN_JOBS);
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for a in &list {
        *counts.entry(a.class.name()).or_default() += 1;
    }
    println!(
        "inputs: {} jobs over {:.1} s at {RATE} jobs/s, {counts:?}, {workers} workers (digest {:016x})",
        list.len(),
        list.last().map(|a| a.due_s).unwrap_or(0.0),
        gen::arrivals_digest(&list)
    );
    let mut out = Outcome::default();
    let bite = chaos_bite(&list);

    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).expect("create .perfbench");
    let store_path = dir.join(format!("svc-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let config = ServiceConfig {
        workers,
        queue_capacity: 4 * list.len(),
        default_timeout_ms: None,
    };
    // Set-up: service start plus one warm-up run of every template, waited
    // in turn, so first-touch costs stay out of the measured stream.
    let mut setup = Vec::new();
    let mut service = None;
    for i in 0..STARTS {
        let t0 = Instant::now();
        let s = Service::with_store(
            config.clone(),
            ResultStore::open(&store_path).expect("open result store"),
        );
        tracer.record("svc.start", t0, Instant::now(), None, &format!("start-{i}"));
        for class in Class::ALL {
            for spec in gen::templates(class) {
                match s.submit(spec).map(|h| h.wait().status) {
                    Ok(JobStatus::Completed) => {}
                    other => out.fail_all(format!("warm-up {} job: {other:?}", class.name())),
                }
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
        if i + 1 < STARTS {
            s.shutdown();
        } else {
            service = Some(s);
        }
    }
    let service = service.expect("the last start is kept");

    let jobs = stream(&service, &list, tracer);
    let stats = service.shutdown();
    let groups = ResultStore::open(&store_path)
        .and_then(|s| s.by_digest())
        .expect("read result store");
    let _ = std::fs::remove_file(&store_path);

    out.attempted = jobs.len() as u64;
    for d in &jobs {
        if d.status != Some(JobStatus::Completed) {
            out.fail_op(format!("{} job ended {:?}", d.class.name(), d.status));
        }
    }
    for p in bite {
        out.fail_all(p);
    }
    let (problems, diverged) = crate::checks::digest_groups(&groups);
    println!(
        "determinism audit: {} digests, {} with repeats, {} diverged",
        groups.len(),
        groups.iter().filter(|g| g.completed().len() > 1).count(),
        problems.len()
    );
    for p in problems {
        out.problems.push(p);
    }
    out.failed = (out.failed + diverged).min(out.attempted);

    let lat: Vec<f64> = jobs.iter().map(|d| d.latency_ms).collect();
    let run: Vec<f64> = jobs.iter().map(|d| d.run_ms).collect();
    println!("job latency ms: {}", summarize(&lat));
    for class in Class::ALL {
        let of: Vec<f64> = jobs
            .iter()
            .filter(|d| d.class == class)
            .map(|d| d.latency_ms)
            .collect();
        println!("  {:<12} {}", class.name(), summarize(&of));
    }
    println!(
        "queue ms: {}; run ms: {}; generator lag ms: {}",
        summarize(&jobs.iter().map(|d| d.queue_ms).collect::<Vec<_>>()),
        summarize(&run),
        summarize(&jobs.iter().map(|d| d.lag_ms).collect::<Vec<_>>())
    );
    out.e2e("op_wall_ms", median(&run), "ms");
    out.e2e("setup_s", median(&setup), "s");
    if traced {
        let l = &mut out.layers;
        let col = |f: fn(&Done) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
        let (q50, q95) = percentiles(&col(|d| d.queue_ms));
        let (r50, r95) = percentiles(&col(|d| d.run_ms));
        l.set("svc.queue_ms.p50", q50);
        l.set("svc.queue_ms.p95", q95);
        l.set("svc.run_ms.p50", r50);
        l.set("svc.run_ms.p95", r95);
        let (l50, l95) = percentiles(&lat);
        l.set("svc.latency_ms.p50", l50);
        l.set("svc.latency_ms.p95", l95);
        l.set(
            "svc.generator_lag_ms.p95",
            percentiles(&col(|d| d.lag_ms)).1,
        );
        l.set("svc.jobs.completed", stats.completed as f64);
        l.set(
            "svc.jobs.rejected",
            (stats.rejected_queue_full + stats.rejected_invalid) as f64,
        );
        l.set("svc.jobs.timed_out", stats.timed_out as f64);
        l.set("svc.jobs.panicked", stats.panicked as f64);
        runner_layers(l, tracer);
    }
    out
}

/// `svc::execute` per class with no pool: host time (median of three runs
/// per template, averaged over the class), then one run per template with
/// the metrics registry on for the per-job counts and its overhead. The
/// world-level layers (spawn, build, kernel events, teardown), which
/// `svc::execute` does not expose, come from each template's shape run
/// fault-free through the benchmark's own barrier-bounded harness.
/// Partition and placement are timed for each template geometry.
fn runner_layers(l: &mut crate::report::Layers, tracer: &Tracer) {
    let mut part = Vec::new();
    let mut place = Vec::new();
    let mut registry = Vec::new();
    let (mut plain_ms, mut metrics_ms) = (0.0, 0.0);
    let mut transitions = Vec::new();
    let mut shapes = Vec::new();
    let mut flows_peak = 0.0f64;
    for class in Class::ALL {
        let mut per_template = Vec::new();
        for spec in gen::templates(class) {
            let mut ms = Vec::new();
            for _ in 0..3 {
                let t0 = Instant::now();
                svc::execute(&spec);
                let request = format!("runner/{}", class.name());
                tracer.record("svc.runner.execute", t0, Instant::now(), None, &request);
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            let ms = median(&ms);
            per_template.push(ms);
            plain_ms += ms;
            let t0 = Instant::now();
            let report = svc::execute(&spec.clone().collect_metrics(true))
                .metrics
                .expect("metrics requested");
            metrics_ms += t0.elapsed().as_secs_f64() * 1e3;
            registry.push(crate::world::flatten(&report));
            if let Some(detsim::metrics::MetricValue::Gauge(g)) =
                report.get("flow", "active_flows", &[])
            {
                flows_peak = flows_peak.max(g.max);
            }
            shapes.push(crate::world::measure_world(crate::worlds::job_shape(&spec)));
            if class == Class::Chaos {
                transitions.push(
                    report
                        .entries()
                        .iter()
                        .filter(|(id, _)| id.subsystem == "faultsim" && id.name == "transitions")
                        .map(|(_, v)| match v {
                            detsim::metrics::MetricValue::Counter(c) => *c as f64,
                            _ => 0.0,
                        })
                        .sum::<f64>(),
                );
            }
            if spec.placement != stencil_core::PlacementStrategy::Empirical {
                let (p, s) = crate::worlds::time_partition_and_placement(
                    spec.domain,
                    spec.cluster.nodes(),
                    &spec.cluster.cluster_spec().node,
                    spec.quantities,
                    spec.placement,
                    5,
                );
                part.push(p);
                place.push(s);
            }
        }
        l.set(
            &format!("svc.execute_ms.{}", class.name()),
            per_template.iter().sum::<f64>() / per_template.len() as f64,
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    l.set("core.partition.build_s", mean(&part));
    l.set("core.placement.solve_s", mean(&place));
    let shapes: Vec<&crate::world::WorldRun> = shapes.iter().collect();
    crate::worlds::world_layers(&shapes, &shapes, l);
    let walls: Vec<f64> = shapes
        .iter()
        .flat_map(|r| r.ops.iter().map(|o| o.wall_s))
        .collect();
    l.set("core.exchange.wall_s", median(&walls));
    l.registry(&registry.iter().collect::<Vec<_>>());
    l.set("detsim.flow.active_flows_peak", flows_peak);
    l.set("faultsim.transitions_per_chaos_job", mean(&transitions));
    l.set("trace.overhead_frac", metrics_ms / plain_ms - 1.0);
}
