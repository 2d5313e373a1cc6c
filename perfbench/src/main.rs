//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <fig12b-256n|transport-4n|svc-mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload, checks its outputs, prints a readable report, and ends
//! with one JSON line: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end table untraced, the per-layer table traced). Exits non-zero
//! when a check fails. See `README.md` beside this package.

use std::process::ExitCode;

use perfbench::real::MethodSet;
use perfbench::report::{self, peak_rss_mb, Outcome};
use perfbench::trace::{self, Tracer};
use perfbench::{gen, real, svcmix, worlds, WORKLOADS};
use stencil_core::Methods;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value} (one of {WORKLOADS:?})"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

/// The method sets a workload runs, for the element-exact check.
fn method_sets(workload: &str) -> Vec<MethodSet> {
    let mut sets = Vec::new();
    let mut add = |s: MethodSet| {
        if !sets.contains(&s) {
            sets.push(s);
        }
    };
    match workload {
        "fig12b-256n" => add(MethodSet {
            methods: Methods::all(),
            cuda_aware: false,
            consolidate: false,
        }),
        "transport-4n" => {
            for r in &worlds::RUNGS {
                add(r.method_set());
            }
        }
        _ => {
            for class in gen::Class::ALL {
                for spec in gen::templates(class) {
                    add(MethodSet {
                        methods: spec.methods,
                        cuda_aware: spec.cuda_aware,
                        consolidate: spec.consolidate,
                    });
                }
            }
        }
    }
    sets
}

fn print_spans(tracer: &Tracer, workload: &str, seed: u64) {
    let spans = tracer.spans();
    println!("spans (self time = duration minus the part child spans cover):");
    println!(
        "  {:<24} {:>6} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for (name, (count, total, own)) in trace::by_name(&spans) {
        println!("  {name:<24} {count:>6} {total:>12.4} {own:>12.4}");
    }
    let path = format!(".perfbench/trace-{workload}-{seed}.json");
    match std::fs::create_dir_all(".perfbench")
        .and_then(|_| std::fs::write(&path, trace::to_json(&spans)))
    {
        Ok(()) => println!("  {} spans written to {path}", spans.len()),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "perfbench {} seed {} seconds {} trace {} ({threads} hardware threads)",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    let tracer = Tracer::new(args.traced);
    let mut real_problems = Vec::new();
    let t0 = std::time::Instant::now();
    let sets = method_sets(&args.workload);
    for &set in &sets {
        let (wrong, first) = real::check(set);
        if wrong > 0 {
            real_problems.push(format!("{wrong} wrong halo cells for {set:?}: {first:?}"));
        }
    }
    println!(
        "element-exact halo check: {} method sets, {} failed ({:.2} s)",
        sets.len(),
        real_problems.len(),
        t0.elapsed().as_secs_f64()
    );
    let mut out: Outcome = match args.workload.as_str() {
        "fig12b-256n" => worlds::fig12b(args.seconds, args.traced, &tracer),
        "transport-4n" => worlds::transport(args.seed, args.seconds, args.traced, &tracer),
        _ => svcmix::svc_mix(args.seed, args.seconds, args.traced, &tracer),
    };
    for p in real_problems {
        out.fail_all(p);
    }
    out.layers.set("process.peak_rss_mb", peak_rss_mb());
    if args.traced {
        out.layers.set("trace.spans", tracer.spans().len() as f64);
        print_spans(&tracer, &args.workload, args.seed);
        println!("per-layer metrics:");
        for (name, unit) in report::PER_LAYER {
            println!("  {name:<44} {:>16.6} {unit}", out.layers.get(name));
        }
    } else {
        println!("end-to-end metrics:");
        for (name, value) in &out.end_to_end {
            println!("  {name:<44} {value:>16.6}");
        }
    }
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", out.result_line(args.traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
