//! Metric tables, the per-run outcome, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports each of them (untraced runs).
pub const END_TO_END: [(&str, &str); 2] = [("op_wall_ms", "ms"), ("setup_s", "s")];

/// Virtual (modeled) time: deterministic, so a unit of its own keeps it
/// apart from host time.
const VMS: &str = "virtual_ms";

/// Per-layer metrics from the traced run. A layer a workload does not
/// exercise, or cannot be observed from outside on it, reports 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("svc.queue_ms.p50", "ms"),
    ("svc.queue_ms.p95", "ms"),
    ("svc.run_ms.p50", "ms"),
    ("svc.run_ms.p95", "ms"),
    ("svc.latency_ms.p50", "ms"),
    ("svc.latency_ms.p95", "ms"),
    ("svc.generator_lag_ms.p95", "ms"),
    ("svc.jobs.completed", "count"),
    ("svc.jobs.rejected", "count"),
    ("svc.jobs.timed_out", "count"),
    ("svc.jobs.panicked", "count"),
    ("svc.execute_ms.interactive", "ms"),
    ("svc.execute_ms.sweep", "ms"),
    ("svc.execute_ms.placement", "ms"),
    ("svc.execute_ms.chaos", "ms"),
    ("mpisim.world.spawn_s", "s"),
    ("mpisim.world.teardown_s", "s"),
    ("core.partition.build_s", "s"),
    ("core.placement.solve_s", "s"),
    ("core.domain.build_s", "s"),
    ("core.exchange.wall_s", "s"),
    ("core.exchange.virtual_phase_ms.pack", VMS),
    ("core.exchange.virtual_phase_ms.send", VMS),
    ("core.exchange.virtual_phase_ms.wait", VMS),
    ("core.exchange.virtual_phase_ms.unpack", VMS),
    ("core.exchange.method_bytes.kernel", "bytes"),
    ("core.exchange.method_bytes.peer", "bytes"),
    ("core.exchange.method_bytes.colocated", "bytes"),
    ("core.exchange.method_bytes.staged", "bytes"),
    ("core.exchange.method_bytes.cuda-aware", "bytes"),
    ("core.exchange.method_bytes.persistent", "bytes"),
    ("core.exchange.method_bytes.partitioned", "bytes"),
    ("core.overlap.step_wall_ms.staged", "ms"),
    ("core.overlap.step_wall_ms.consolidated", "ms"),
    ("core.overlap.step_wall_ms.cuda-aware", "ms"),
    ("core.overlap.step_wall_ms.persistent", "ms"),
    ("core.overlap.step_wall_ms.partitioned", "ms"),
    ("core.overlap.step_virtual_ms.staged", VMS),
    ("core.overlap.step_virtual_ms.consolidated", VMS),
    ("core.overlap.step_virtual_ms.cuda-aware", VMS),
    ("core.overlap.step_virtual_ms.persistent", VMS),
    ("core.overlap.step_virtual_ms.partitioned", VMS),
    ("detsim.kernel.events_per_op", "count"),
    ("detsim.kernel.ns_per_event", "ns"),
    ("detsim.kernel.stale_frac", "ratio"),
    ("detsim.kernel.heap_compactions_per_op", "count"),
    ("detsim.flow.active_flows_peak", "count"),
    ("detsim.flow.nic_bytes_per_op", "bytes"),
    ("mpisim.messages_per_op", "count"),
    ("mpisim.match_wait_ms.send", VMS),
    ("mpisim.match_wait_ms.recv", VMS),
    ("mpisim.channel_starts_per_op", "count"),
    ("mpisim.partition_ready_per_op", "count"),
    ("mpisim.nic.peak_util", "ratio"),
    ("gpusim.memcpy_count_per_op", "count"),
    ("gpusim.kernel_launches_per_op", "count"),
    ("mpisim.messages.eager", "count"),
    ("mpisim.messages.rendezvous", "count"),
    ("mpisim.messages.persistent", "count"),
    ("mpisim.messages.partitioned", "count"),
    ("faultsim.transitions_per_chaos_job", "count"),
    ("process.peak_rss_mb", "MB"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Per-layer values a workload measured; unset ones print as 0.
#[derive(Default, Debug)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not in the per-layer table"
        );
        // `+ 0.0` turns a -0.0 delta into 0.
        self.0.insert(name.to_string(), value + 0.0);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Per-op means of the registry deltas (`mpi`, `gpusim`, `exchange`).
    pub fn registry(&mut self, per_op: &[&BTreeMap<String, f64>]) {
        if per_op.is_empty() {
            return;
        }
        let n = per_op.len() as f64;
        let sum = |prefix: &str| -> f64 {
            per_op
                .iter()
                .flat_map(|m| m.iter())
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| v)
                .sum()
        };
        self.set("mpisim.messages_per_op", sum("mpi/messages{") / n);
        for p in ["eager", "rendezvous", "persistent", "partitioned"] {
            self.set(
                &format!("mpisim.messages.{p}"),
                sum(&format!("mpi/messages{{protocol={p}}}")) / n,
            );
        }
        for side in ["send", "recv"] {
            let key = format!("mpi/match_wait_ps{{side={side}}}");
            let count = sum(&format!("{key}#count"));
            let mean_ps = if count > 0.0 {
                sum(&format!("{key}#sum")) / count
            } else {
                0.0
            };
            self.set(&format!("mpisim.match_wait_ms.{side}"), mean_ps * 1e-9);
        }
        self.set(
            "mpisim.channel_starts_per_op",
            sum("mpi/channel_starts") / n,
        );
        self.set(
            "mpisim.partition_ready_per_op",
            sum("mpi/partition_ready") / n,
        );
        self.set("gpusim.memcpy_count_per_op", sum("gpusim/memcpy_count") / n);
        self.set(
            "gpusim.kernel_launches_per_op",
            sum("gpusim/kernel_launches") / n,
        );
        for m in [
            "kernel",
            "peer",
            "colocated",
            "staged",
            "cuda-aware",
            "persistent",
            "partitioned",
        ] {
            self.set(
                &format!("core.exchange.method_bytes.{m}"),
                sum(&format!("exchange/method_bytes{{method={m}}}")) / n,
            );
        }
    }
}

/// What one workload run measured and checked.
#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, in the order found.
    pub problems: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub layers: Layers,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &str) {
        assert!(
            END_TO_END.contains(&(name, unit)),
            "{name} [{unit}] is not in the end-to-end table"
        );
        self.end_to_end.push((name, value));
    }

    /// One op failed its check.
    pub fn fail_op(&mut self, problem: String) {
        self.failed = (self.failed + 1).min(self.attempted.max(1));
        self.problems.push(problem);
    }

    /// A check covering every op failed.
    pub fn fail_all(&mut self, problem: String) {
        self.failed = self.attempted.max(1);
        self.problems.push(problem);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with the end-to-end or the per-layer table.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<(&str, &str, f64)> = if traced {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.layers.get(n)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = self
                        .end_to_end
                        .iter()
                        .find(|(m, _)| *m == n)
                        .unwrap_or_else(|| panic!("workload did not measure {n}"))
                        .1;
                    (n, u, v)
                })
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    svc::json::fmt_f64(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.e2e("op_wall_ms", 1.5, "ms");
        o.e2e("setup_s", 0.25, "s");
        let v = svc::json::parse(&o.result_line(false)).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(4));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0));
        let m = v.get("metrics").expect("metrics");
        let op = m.get("op_wall_ms").expect("op_wall_ms");
        assert_eq!(op.get("value").and_then(|x| x.as_f64()), Some(1.5));
        assert_eq!(op.get("unit").and_then(|x| x.as_str()), Some("ms"));
        o.fail_op("op 2 differs".into());
        let traced = svc::json::parse(&o.result_line(true)).expect("valid JSON");
        assert_eq!(traced.get("correct").and_then(|c| c.as_bool()), Some(false));
        assert_eq!(traced.get("failed").and_then(|c| c.as_u64()), Some(1));
        let tm = traced.get("metrics").expect("metrics");
        for (name, _) in PER_LAYER {
            assert!(tm.get(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let v = svc::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &mut dyn Iterator<Item = (&str, &str)>| -> Vec<(String, String)> {
            t.map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&mut END_TO_END.iter().copied()));
        assert_eq!(names("per_layer"), own(&mut PER_LAYER.iter().copied()));
    }
}
