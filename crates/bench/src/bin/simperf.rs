//! simperf — wall-clock performance suite for the **simulator itself**.
//!
//! Every other bench in this crate measures *virtual* time (what the paper
//! reports). This one measures how long the simulator takes in real time to
//! produce those virtual results, and is the repo's perf trajectory record:
//! run it before and after a kernel change and compare.
//!
//! Groups:
//! * `sched/*` — cooperative-scheduler churn: coroutine world spawn +
//!   teardown (up to the full-Summit 27,648-rank count) and token hand-off
//!   (`yield_now`) at 16/64/256-node rank counts.
//! * `event/*` — raw event-queue throughput (schedule + drain).
//! * `flow/*`  — flow-network churn: a single contended link (worst-case
//!   reshare fan-out) and a fabric-shaped link set at paper scales.
//! * `fig12b/*` — end-to-end: one fully-specialized weak-scaling exchange
//!   step, the shape behind the paper's Fig. 12b.
//!
//! Flags:
//! * `--quick`           tiny shapes, one sample each (CI smoke).
//! * `--json PATH`       write results as JSON.
//! * `--baseline PATH`   merge `min_s` numbers from an earlier `--json`
//!   artifact into the output as `baseline_min_s` + `speedup`.
//! * `--validate PATH`   parse a previously written JSON artifact and exit
//!   non-zero if it is malformed (used by `ci.sh bench-smoke`).
//!
//! `BENCH_pr2.json` and `BENCH_pr6.json` at the repo root were produced by
//! running this suite with `--baseline` pointed at a seed-kernel artifact,
//! so their `baseline_min_s`/`speedup` columns compare against the
//! original pre-optimization simulator. See `docs/PERFORMANCE.md`.

use std::cell::RefCell;
use std::rc::Rc;

use detsim::{Kernel, Sim, SimDuration};
use stencil_bench::microbench::{Bench, Summary};
use stencil_bench::{measure_exchange, weak_scaling_extent, ExchangeConfig};

/// Deterministic 64-bit LCG (same constants as `flow_properties` tests).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Token hand-off churn: `threads` sim threads each yield `rounds` times.
fn sched_churn(threads: usize, rounds: usize) {
    let mut sim = Sim::new();
    sim.run(threads, move |ctx| {
        for _ in 0..rounds {
            ctx.yield_now();
        }
    });
}

/// Coroutine world spawn + teardown: one stack allocation and one token
/// round per rank, no work.
fn sched_spawn(threads: usize) {
    let mut sim = Sim::new();
    sim.run(threads, |_| {});
}

/// Schedule `n` closure events (in scheduling order) and drain the queue.
fn event_churn(n: usize) {
    let mut k = Kernel::new();
    let hits = Rc::new(RefCell::new(0u64));
    for i in 0..n {
        let hits = Rc::clone(&hits);
        k.schedule_in(SimDuration::from_nanos((i % 977) as u64), move |_| {
            *hits.borrow_mut() += 1;
        });
    }
    k.run_to_completion();
    assert_eq!(*hits.borrow_mut(), n as u64);
}

/// Worst-case reshare fan-out: every flow shares one link, so each
/// join/leave re-settles every other flow.
fn flow_contended(flows: usize) {
    let mut k = Kernel::new();
    let l = k.add_link("hot", 12.5e9, SimDuration::from_micros(1));
    let mut rng = Lcg(7);
    for i in 0..flows {
        let bytes = 200_000 + rng.below(400_000);
        k.schedule_in(SimDuration::from_nanos(i as u64 * 40), move |k| {
            k.start_flow(&[l], bytes, |_| {});
        });
    }
    k.run_to_completion();
    assert_eq!(k.active_flows(), 0);
}

/// Fabric-shaped churn at an `n`-node scale: per-node injection/ejection
/// links, `156 * n` transfers between deterministic-random node pairs
/// (26 neighbors x 6 ranks per node is the paper's message count).
fn flow_fabric(nodes: usize) {
    let mut k = Kernel::new();
    let inject: Vec<_> = (0..nodes)
        .map(|n| k.add_link(format!("n{n}.in"), 12.5e9, SimDuration::from_micros(1)))
        .collect();
    let eject: Vec<_> = (0..nodes)
        .map(|n| k.add_link(format!("n{n}.out"), 12.5e9, SimDuration::from_micros(1)))
        .collect();
    let mut rng = Lcg(42);
    for i in 0..(156 * nodes) {
        let src = rng.below(nodes as u64) as usize;
        let mut dst = rng.below(nodes as u64) as usize;
        if dst == src {
            dst = (dst + 1) % nodes;
        }
        let path = [inject[src], eject[dst]];
        let bytes = 1_000_000 + rng.below(4_000_000);
        // Bursty starts: whole wavefronts begin close together, like a
        // halo-exchange step.
        let at = SimDuration::from_nanos((i % 64) as u64 * 25);
        k.schedule_in(at, move |k| {
            k.start_flow(&path, bytes, |_| {});
        });
    }
    k.run_to_completion();
    assert_eq!(k.active_flows(), 0);
}

/// One fully-specialized fig12b weak-scaling step at `nodes` nodes.
fn fig12b_step(nodes: usize) {
    let extent = weak_scaling_extent(750, nodes * 6);
    let cfg = ExchangeConfig::new(nodes, 6, extent).iters(1);
    let r = measure_exchange(&cfg);
    assert!(r.mean > 0.0);
}

struct Args {
    quick: bool,
    json: Option<String>,
    baseline: Option<String>,
    validate: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        json: None,
        baseline: None,
        validate: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let operand = |i: usize| -> String {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", argv[i]))
                .clone()
        };
        match argv[i].as_str() {
            "--quick" => {
                args.quick = true;
                i += 1;
            }
            "--json" => {
                args.json = Some(operand(i));
                i += 2;
            }
            "--baseline" => {
                args.baseline = Some(operand(i));
                i += 2;
            }
            "--validate" => {
                args.validate = Some(operand(i));
                i += 2;
            }
            other => panic!(
                "unknown flag {other} (expected --quick / --json PATH / --baseline PATH / --validate PATH)"
            ),
        }
    }
    args
}

/// Extract `(name, min_s)` pairs from a simperf JSON artifact. Tiny
/// line-oriented scanner — the emitter writes one bench object per line.
fn parse_artifact(text: &str) -> Option<Vec<(String, f64)>> {
    if !text.contains("\"suite\": \"simperf\"") {
        return None;
    }
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"name\":") {
            continue;
        }
        let name = line.split('"').nth(3)?.to_string();
        let min_s = line
            .split("\"min_s\": ")
            .nth(1)?
            .split([',', '}'])
            .next()?
            .trim()
            .parse::<f64>()
            .ok()?;
        if !min_s.is_finite() || min_s < 0.0 {
            return None;
        }
        out.push((name, min_s));
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

fn write_json(path: &str, quick: bool, results: &[Summary], baseline: &[(String, f64)]) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"suite\": \"simperf\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"unit\": \"seconds (wall clock)\",\n");
    s.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let mut entry = format!(
            "    {{\"name\": \"{}\", \"samples\": {}, \"mean_s\": {:.6}, \"min_s\": {:.6}, \"max_s\": {:.6}",
            r.name, r.samples, r.mean_s, r.min_s, r.max_s
        );
        if let Some((_, base)) = baseline.iter().find(|(n, _)| *n == r.name) {
            entry.push_str(&format!(
                ", \"baseline_min_s\": {:.6}, \"speedup\": {:.2}",
                base,
                base / r.min_s.max(1e-12)
            ));
        }
        entry.push('}');
        if i + 1 < results.len() {
            entry.push(',');
        }
        entry.push('\n');
        s.push_str(&entry);
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nresults written to {path}");
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.validate {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        match parse_artifact(&text) {
            Some(entries) => {
                println!("{path}: valid simperf artifact, {} benches", entries.len());
                return;
            }
            None => {
                eprintln!("{path}: not a valid simperf artifact");
                std::process::exit(1);
            }
        }
    }
    let baseline: Vec<(String, f64)> = match &args.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            parse_artifact(&text).unwrap_or_else(|| panic!("{path}: not a simperf artifact"))
        }
        None => Vec::new(),
    };
    let quick = args.quick;
    let mut results: Vec<Summary> = Vec::new();

    let mut b = Bench::new("sched");
    b.sample_size(if quick { 1 } else { 3 });
    b.warmup(!quick);
    if quick {
        results.push(b.run_summary("spawn/24t", || sched_spawn(24)));
        results.push(b.run_summary("churn/24tx20", || sched_churn(24, 20)));
    } else {
        results.push(b.run_summary("spawn/1536t", || sched_spawn(1536)));
        results.push(b.run_summary("spawn/27648t", || sched_spawn(27648)));
        results.push(b.run_summary("churn/96tx200", || sched_churn(96, 200)));
        results.push(b.run_summary("churn/384tx50", || sched_churn(384, 50)));
        results.push(b.run_summary("churn/1536tx20", || sched_churn(1536, 20)));
    }

    let mut b = Bench::new("event");
    b.sample_size(if quick { 1 } else { 3 });
    b.warmup(!quick);
    if quick {
        results.push(b.run_summary("churn/100k", || event_churn(100_000)));
    } else {
        results.push(b.run_summary("churn/1m", || event_churn(1_000_000)));
    }

    let mut b = Bench::new("flow");
    b.sample_size(if quick { 1 } else { 2 });
    b.warmup(false);
    if quick {
        results.push(b.run_summary("contended/120f", || flow_contended(120)));
        results.push(b.run_summary("fabric/4n", || flow_fabric(4)));
    } else {
        results.push(b.run_summary("contended/600f", || flow_contended(600)));
        results.push(b.run_summary("fabric/16n", || flow_fabric(16)));
        results.push(b.run_summary("fabric/64n", || flow_fabric(64)));
        results.push(b.run_summary("fabric/256n", || flow_fabric(256)));
    }

    let mut b = Bench::new("fig12b");
    b.warmup(false);
    if quick {
        b.sample_size(1);
        results.push(b.run_summary("step/2n", || fig12b_step(2)));
    } else {
        b.sample_size(2);
        results.push(b.run_summary("step/16n", || fig12b_step(16)));
        results.push(b.run_summary("step/64n", || fig12b_step(64)));
        b.sample_size(1);
        results.push(b.run_summary("step/256n", || fig12b_step(256)));
    }

    if !baseline.is_empty() {
        println!("\nvs baseline:");
        for r in &results {
            if let Some((_, base)) = baseline.iter().find(|(n, _)| *n == r.name) {
                println!(
                    "  {:<24} {:>10.3}s -> {:>10.3}s   {:5.2}x",
                    r.name,
                    base,
                    r.min_s,
                    base / r.min_s.max(1e-12)
                );
            }
        }
    }
    if let Some(path) = &args.json {
        write_json(path, quick, &results, &baseline);
    }
}
