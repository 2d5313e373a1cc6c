//! Property-style tests for the fair-share flow network: conservation,
//! fairness, monotonicity, and determinism under randomized workloads.
//!
//! Cases are driven by a deterministic xorshift generator over fixed seed
//! ranges (no external property-testing dependency), so every run exercises
//! the same inputs.

use detsim::{Kernel, SimDuration};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Deterministic xorshift for workload generation.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// No link ever runs above capacity, and total delivered bytes match the
/// load integral, for arbitrary multi-link flow mixes.
#[test]
fn prop_capacity_and_conservation() {
    for case in 0u64..40 {
        let mut r = rng(case * 251 + 17);
        let nflows = 1 + (case as usize * 2) % 80;
        let mut k = Kernel::new();
        let links: Vec<_> = (0..4)
            .map(|i| {
                k.add_link(
                    format!("l{i}"),
                    1e9 * (1.0 + (r() % 10) as f64),
                    SimDuration::from_nanos(r() % 3000),
                )
            })
            .collect();
        for _ in 0..nflows {
            let bytes = 1 + r() % 8_000_000;
            let at = SimDuration::from_nanos(r() % 4_000_000);
            // path of 1-2 distinct links
            let mut path = vec![links[(r() % 4) as usize]];
            if r().is_multiple_of(2) {
                let l = links[(r() % 4) as usize];
                if !path.contains(&l) {
                    path.push(l);
                }
            }
            k.schedule_in(at, move |k| {
                k.start_flow(&path, bytes, |_| {});
            });
        }
        k.run_to_completion();
        for &l in &links {
            assert!(
                k.link_peak_utilization(l) <= 1.0 + 1e-9,
                "case {case}: link over capacity: {}",
                k.link_peak_utilization(l)
            );
            let busy = k.link_busy_bytes(l);
            let delivered = k.link_delivered(l) as f64;
            assert!(
                (busy - delivered).abs() <= delivered * 1e-6 + 1.0,
                "case {case}: integral {busy} != delivered {delivered}"
            );
        }
        assert_eq!(k.active_flows(), 0, "case {case}");
    }
}

/// The per-link delivered-bytes metric must equal `link_delivered` exactly,
/// and busy time must never exceed elapsed time.
#[test]
fn prop_metrics_conserve_link_bytes() {
    for case in 0u64..20 {
        let mut r = rng(case * 7919 + 3);
        let mut k = Kernel::new();
        k.metrics.enable();
        let links: Vec<_> = (0..3)
            .map(|i| {
                k.add_link(
                    format!("l{i}"),
                    1e9 * (1.0 + (r() % 5) as f64),
                    SimDuration::from_nanos(r() % 1000),
                )
            })
            .collect();
        for _ in 0..(5 + (case as usize * 3) % 40) {
            let bytes = 1 + r() % 4_000_000;
            let at = SimDuration::from_nanos(r() % 2_000_000);
            let path = vec![links[(r() % 3) as usize]];
            k.schedule_in(at, move |k| {
                k.start_flow(&path, bytes, |_| {});
            });
        }
        k.run_to_completion();
        let elapsed = k.now().picos();
        for (i, &l) in links.iter().enumerate() {
            let name = format!("l{i}");
            let metric = k
                .metrics
                .counter("flow", "link_delivered_bytes", &[("link", &name)]);
            assert_eq!(
                metric,
                k.link_delivered(l),
                "case {case}: metric bytes != link_delivered on {name}"
            );
            let busy = k
                .metrics
                .counter("flow", "link_busy_ps", &[("link", &name)]);
            assert!(
                busy <= elapsed,
                "case {case}: busy {busy} ps exceeds elapsed {elapsed} ps"
            );
            // the active-flow gauge must have drained back to zero
            if let Some(g) = k
                .metrics
                .gauge("flow", "link_active_flows", &[("link", &name)])
            {
                assert_eq!(g.current, 0.0, "case {case}: flows left on {name}");
                assert!(g.max >= 1.0, "case {case}: no high-water mark on {name}");
            }
        }
    }
}

/// Two identical flows arriving together finish together (fairness).
#[test]
fn prop_equal_flows_finish_together() {
    for case in 0u64..30 {
        let mut r = rng(case + 101);
        let bytes = 1_000 + r() % 4_999_000;
        let n = 2 + (r() % 10) as usize;
        let mut k = Kernel::new();
        let l = k.add_link("l", 2e9, SimDuration::from_micros(1));
        let ends: Vec<Rc<Cell<u64>>> = (0..n).map(|_| Rc::new(Cell::new(0))).collect();
        for e in &ends {
            let e = Rc::clone(e);
            k.start_flow(&[l], bytes, move |k| {
                e.set(k.now().picos());
            });
        }
        k.run_to_completion();
        let first = ends[0].get();
        for e in &ends {
            let v = e.get();
            assert!(v > 0, "case {case}");
            // picosecond rounding can separate them by a hair
            assert!(v.abs_diff(first) <= n as u64, "case {case}");
        }
        // and the shared link serves them at exactly cap/n each
        let expect = bytes as f64 / (2e9 / n as f64);
        let got = first as f64 / 1e12 - 1e-6;
        assert!(
            (got - expect).abs() < expect * 1e-6 + 1e-9,
            "case {case}: got {got}, expect {expect}"
        );
    }
}

/// Adding extra background load never makes a probe flow finish sooner.
#[test]
fn prop_contention_is_monotone() {
    for case in 0u64..25 {
        let seed = case * 191 + 7;
        let extra = (case as usize * 3) % 20;
        let run = |extra: usize| {
            let mut r = rng(seed);
            let mut k = Kernel::new();
            let l = k.add_link("l", 1e9, SimDuration::ZERO);
            let probe_end = Rc::new(Cell::new(0));
            let pe = Rc::clone(&probe_end);
            k.start_flow(&[l], 2_000_000, move |k| {
                pe.set(k.now().picos());
            });
            for _ in 0..extra {
                let bytes = 1 + r() % 1_000_000;
                let at = SimDuration::from_nanos(r() % 1_000_000);
                k.schedule_in(at, move |k| k.start_flow(&[l], bytes, |_| {}));
            }
            k.run_to_completion();
            probe_end.get()
        };
        let alone = run(0);
        let loaded = run(extra);
        assert!(
            loaded >= alone,
            "case {case}: background load sped the probe up: {alone} -> {loaded}"
        );
    }
}

/// Identical workloads produce bit-identical completion schedules — and
/// bit-identical metrics reports.
#[test]
fn prop_flow_schedule_deterministic() {
    for case in 0u64..15 {
        let seed = case * 47 + 11;
        let run = || {
            let mut r = rng(seed);
            let mut k = Kernel::new();
            k.metrics.enable();
            let a = k.add_link("a", 3e9, SimDuration::from_nanos(500));
            let b = k.add_link("b", 1e9, SimDuration::from_nanos(100));
            let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..40u64 {
                let bytes = 1 + r() % 3_000_000;
                let at = SimDuration::from_nanos(r() % 2_000_000);
                let two = r().is_multiple_of(2);
                let log = Rc::clone(&log);
                k.schedule_in(at, move |k| {
                    let path: Vec<_> = if two { vec![a, b] } else { vec![b] };
                    k.start_flow(&path, bytes, move |k| {
                        log.borrow_mut().push((i, k.now().picos()));
                    });
                });
            }
            k.run_to_completion();
            let v = log.borrow_mut().clone();
            (v, k.metrics.report().to_json())
        };
        let (sched1, json1) = run();
        let (sched2, json2) = run();
        assert_eq!(
            sched1, sched2,
            "case {case}: schedule must be deterministic"
        );
        assert_eq!(json1, json2, "case {case}: metrics must be bit-identical");
    }
}
