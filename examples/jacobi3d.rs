//! Multi-node Jacobi relaxation with communication/computation overlap.
//!
//! Each step splits the update into an *inner* region (no halo dependence,
//! computed while the exchange is in flight via
//! `DistributedDomain::exchange_start`/`exchange_finish`) and a
//! boundary *shell* computed after halos land — the overlap structure of
//! paper §III-D. Runs both the overlapped and the serialized schedule and
//! reports the virtual-time difference, then verifies the result against a
//! serial reference.
//!
//! ```text
//! cargo run --release -p stencil-examples --bin jacobi3d
//! cargo run --release -p stencil-examples --bin jacobi3d -- --metrics out.json
//! ```
//!
//! With `--metrics PATH`, a [`detsim::MetricsReport`] covering both
//! schedules is printed as a table and written to `PATH` as JSON (see
//! `docs/OBSERVABILITY.md`).

use std::cell::RefCell;
use std::rc::Rc;

use mpisim::{run_world, RankCtx, WorldConfig};
use stencil_core::{DistributedDomain, DomainBuilder, Methods, Neighborhood};
use stencil_examples::{jacobi_region_work, jacobi_traffic, shell_boxes, SerialGrid};
use topo::summit::summit_cluster;

const DOMAIN: [u64; 3] = [96, 80, 64];
const STEPS: usize = 4;
const K: f32 = 0.08;
/// The simulated kernel's memory-traffic multiplier: the toy 7-point update
/// is scaled up to the cost of a heavier physics kernel (e.g. an MHD update
/// touching dozens of quantities), so the overlap benefit is visible at
/// this small, fast-to-verify domain size. Numerics are unaffected.
const KERNEL_WEIGHT: u64 = 50;

fn init(p: [u64; 3]) -> f32 {
    ((p[0] * 11 + p[1] * 5 + p[2] * 17) % 97) as f32
}

fn run_steps(ctx: &RankCtx, dom: &DistributedDomain, overlap: bool) -> f64 {
    for local in dom.locals() {
        local.fill(0, init);
    }
    ctx.barrier();
    let t0 = ctx.wtime();
    for step in 0..STEPS {
        let (q_src, q_dst) = (step % 2, (step + 1) % 2);
        if overlap {
            let handle = dom.exchange_start(ctx);
            // Inner region: computable with stale halos (it doesn't read them).
            let mut kernels = Vec::new();
            for l in dom.locals() {
                let e = l.interior.extent;
                if e.iter().all(|&v| v > 2) {
                    kernels.push(l.launch_compute(
                        ctx.sim(),
                        "jacobi-inner",
                        jacobi_traffic(l) * KERNEL_WEIGHT,
                        Some(jacobi_region_work(
                            l,
                            q_src,
                            q_dst,
                            K,
                            [1, 1, 1],
                            [e[0] - 1, e[1] - 1, e[2] - 1],
                        )),
                    ));
                }
            }
            dom.exchange_finish(ctx, handle);
            // Shell: needs the fresh halos.
            for l in dom.locals() {
                for (lo, hi) in shell_boxes(l.interior.extent, 1) {
                    kernels.push(l.launch_compute(
                        ctx.sim(),
                        "jacobi-shell",
                        (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]) * 32 * KERNEL_WEIGHT,
                        Some(jacobi_region_work(l, q_src, q_dst, K, lo, hi)),
                    ));
                }
            }
            ctx.sim().wait_all(&kernels);
        } else {
            dom.exchange(ctx);
            let kernels: Vec<_> = dom
                .locals()
                .iter()
                .map(|l| {
                    let e = l.interior.extent;
                    l.launch_compute(
                        ctx.sim(),
                        "jacobi",
                        jacobi_traffic(l) * KERNEL_WEIGHT,
                        Some(jacobi_region_work(l, q_src, q_dst, K, [0, 0, 0], e)),
                    )
                })
                .collect();
            ctx.sim().wait_all(&kernels);
        }
        ctx.barrier();
    }
    ctx.wtime() - t0
}

fn verify(dom: &DistributedDomain) -> f32 {
    let mut reference = SerialGrid::init(DOMAIN, init);
    for _ in 0..STEPS {
        reference.jacobi_step(K);
    }
    let q_final = STEPS % 2;
    let mut worst = 0.0f32;
    for local in dom.locals() {
        let o = local.interior.origin;
        let e = local.interior.extent;
        for z in 0..e[2] {
            for y in 0..e[1] {
                for x in 0..e[0] {
                    let got = local.get_global_f32(q_final, [o[0] + x, o[1] + y, o[2] + z]);
                    let want =
                        reference.at((o[0] + x) as i64, (o[1] + y) as i64, (o[2] + z) as i64);
                    worst = worst.max((got - want).abs());
                }
            }
        }
    }
    worst
}

fn metrics_path() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--metrics" => Some(path.clone()),
        other => panic!("unknown arguments {other:?} (expected --metrics PATH)"),
    }
}

fn main() {
    let metrics = metrics_path();
    let results: Rc<RefCell<Vec<(bool, f64, f32)>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = Rc::clone(&results);
    // 2 nodes x 3 ranks x 2 GPUs: peer, colocated, and staged paths are all
    // exercised in one run.
    let world = WorldConfig::new(summit_cluster(2), 3).metrics(metrics.is_some());
    let report = run_world(world, move |ctx| {
        let dom = DomainBuilder::new(DOMAIN)
            .radius(1)
            .quantities(2)
            .neighborhood(Neighborhood::Faces6)
            .methods(Methods::all())
            .build(ctx);
        for &overlap in &[false, true] {
            let dt = run_steps(ctx, &dom, overlap);
            let err = verify(&dom);
            if ctx.rank() == 0 {
                r2.borrow_mut().push((overlap, dt, err));
            }
            ctx.barrier();
        }
    });
    println!("jacobi3d: {STEPS} steps on {DOMAIN:?}, 2 nodes x 3 ranks x 2 GPUs");
    let res = results.borrow_mut();
    for (overlap, dt, err) in res.iter() {
        println!(
            "  {:<22} {:8.3} ms   max err vs serial: {err:e}",
            if *overlap {
                "overlapped schedule"
            } else {
                "serialized schedule"
            },
            dt * 1e3
        );
        assert_eq!(*err, 0.0, "distributed Jacobi must match the reference");
    }
    let speedup = res[0].1 / res[1].1;
    println!("  overlap speedup: {speedup:.2}x");
    println!("  (overlap is bounded by the CPU time spent issuing CUDA calls —");
    println!("   the effect the paper's Fig. 9 shows and its §VI proposes fixing)");
    println!("  OK: identical numerics, overlapped communication");
    if let (Some(path), Some(m)) = (metrics, report.metrics) {
        println!();
        println!("{}", m.to_text());
        std::fs::write(&path, m.to_json()).expect("write metrics JSON");
        println!("  metrics written to {path}");
    }
}
