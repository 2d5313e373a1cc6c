//! Interleaved A/B comparison of two builds' benchmark results.
//!
//! ```text
//! compare BENCHMARK.json A_DIR B_DIR
//! ```
//!
//! Each directory holds `<workload>.jsonl`: the result line (the last line
//! of the benchmark's output) of each run, in run order. Run the two builds
//! in alternating order, so line `i` of A and line `i` of B form a pair.
//! For every workload and metric this prints each side's median and
//! quartiles, the share of pairs B won (ties count for neither), and a
//! verdict against the bound `BENCHMARK.json` fixes. It only reads.

use std::collections::BTreeMap;
use std::process::ExitCode;

use perfbench::stats::{median, quartiles};
use svc::json::{self, Json};

/// `(better, bound)` per metric name; per-layer metrics have no bound.
fn directions(bench: &Json) -> Result<BTreeMap<String, (String, Option<f64>)>, String> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = m.get("bound").and_then(Json::as_f64);
            out.insert(name.to_string(), (better.to_string(), bound));
        }
    }
    Ok(out)
}

/// One side's runs: per metric, the values in run order; plus how many
/// runs reported incorrect output.
struct Side {
    values: BTreeMap<String, Vec<f64>>,
    incorrect: usize,
    runs: usize,
}

fn read_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side {
        values: BTreeMap::new(),
        incorrect: 0,
        runs: 0,
    };
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        side.runs += 1;
        if v.get("correct").and_then(Json::as_bool) != Some(true) {
            side.incorrect += 1;
        }
        if let Some(Json::Obj(metrics)) = v.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                side.values.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(side)
}

/// The verdict for one metric: B against A.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: Option<f64>) -> &'static str {
    let Some(bound) = bound else { return "-" };
    if a.len() < 2 || b.len() < 2 {
        return "too few runs";
    }
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (qa1, qa3) = quartiles(a);
    let (ma, mb) = (median(a), median(b));
    let spread = (qa3 - qa1) / ma.abs();
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let worse_by = if lower_is_better {
        mb / ma - 1.0
    } else {
        1.0 - mb / ma
    };
    let pairs = a.len().min(b.len());
    let won = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    if spread > bound {
        if all_better {
            "improved (every B run beats every A run)"
        } else if all_worse {
            "regressed (every B run worse than every A run)"
        } else {
            "unresolved (A's spread exceeds the bound)"
        }
    } else if worse_by > bound {
        "regressed (beyond the bound)"
    } else if better(mb, ma) && won * 10 >= pairs * 9 && (mb - ma).abs() > qa3 - qa1 {
        "improved"
    } else {
        "no change within the bound"
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let [bench, a_dir, b_dir] = args else {
        return Err("usage: compare BENCHMARK.json A_DIR B_DIR".into());
    };
    let bench_text = std::fs::read_to_string(bench).map_err(|e| format!("{bench}: {e}"))?;
    let dirs = directions(&json::parse(&bench_text)?)?;
    for workload in perfbench::WORKLOADS {
        let a_path = format!("{a_dir}/{workload}.jsonl");
        let b_path = format!("{b_dir}/{workload}.jsonl");
        if !std::path::Path::new(&a_path).exists() || !std::path::Path::new(&b_path).exists() {
            continue;
        }
        let (a, b) = (read_side(&a_path)?, read_side(&b_path)?);
        println!(
            "{workload}: A {} runs ({} incorrect), B {} runs ({} incorrect)",
            a.runs, a.incorrect, b.runs, b.incorrect
        );
        println!(
            "  {:<42} {:>32} {:>32} {:>6}  verdict",
            "metric", "A median [q1, q3]", "B median [q1, q3]", "B won"
        );
        for (name, av) in &a.values {
            let Some(bv) = b.values.get(name) else {
                continue;
            };
            let Some((better, bound)) = dirs.get(name) else {
                continue;
            };
            let lower = better == "lower";
            let show = |v: &[f64]| {
                if v.len() < 2 {
                    return format!("{:.6}", v[0]);
                }
                let (q1, q3) = quartiles(v);
                format!("{:.6} [{:.6}, {:.6}]", median(v), q1, q3)
            };
            let pairs = av.len().min(bv.len());
            let won = (0..pairs)
                .filter(|&i| if lower { bv[i] < av[i] } else { bv[i] > av[i] })
                .count();
            println!(
                "  {name:<42} {:>32} {:>32} {:>5.0}%  {}",
                show(av),
                show(bv),
                100.0 * won as f64 / pairs.max(1) as f64,
                verdict(av, bv, lower, *bound)
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&a, &faster, true, Some(0.1)), "improved");
        assert_eq!(
            verdict(&a, &slower, true, Some(0.1)),
            "regressed (beyond the bound)"
        );
        assert_eq!(
            verdict(&a, &a, true, Some(0.1)),
            "no change within the bound"
        );
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 20.0, 3.0, 10.0, 9.0, 11.0];
        assert_eq!(
            verdict(&noisy, &a, true, Some(0.1)),
            "unresolved (A's spread exceeds the bound)"
        );
        assert_eq!(verdict(&a, &faster, true, None), "-");
    }
}
