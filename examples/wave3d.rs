//! Acoustic wave propagation (leapfrog, 7-point Laplacian) across a
//! simulated multi-GPU node, verified against a serial reference — the kind
//! of seismic/wave workload that motivates the paper's introduction.
//!
//! ```text
//! cargo run --release -p stencil-examples --bin wave3d
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use mpisim::{run_world, WorldConfig};
use stencil_core::{DomainBuilder, Methods, Neighborhood};
use stencil_examples::{wave_step_work, SerialGrid};
use topo::summit::summit_cluster;

const DOMAIN: [u64; 3] = [40, 36, 30];
const STEPS: usize = 6;
const C2: f32 = 0.05; // (c * dt / dx)^2

/// Initial displacement: a smooth pulse in the middle of the domain.
fn pulse(p: [u64; 3]) -> f32 {
    let c = [
        DOMAIN[0] as f32 / 2.0,
        DOMAIN[1] as f32 / 2.0,
        DOMAIN[2] as f32 / 2.0,
    ];
    let d2 =
        (p[0] as f32 - c[0]).powi(2) + (p[1] as f32 - c[1]).powi(2) + (p[2] as f32 - c[2]).powi(2);
    (-d2 / 18.0).exp()
}

fn main() {
    let out: Rc<RefCell<(f64, f32, f32)>> = Rc::new(RefCell::new((0.0, 0.0, 0.0)));
    let o2 = Rc::clone(&out);
    let world = WorldConfig::new(summit_cluster(1), 6);
    run_world(world, move |ctx| {
        // Three quantities: displacement at t-1, t, t+1, rotating each step.
        let dom = DomainBuilder::new(DOMAIN)
            .radius(1)
            .quantities(3)
            .neighborhood(Neighborhood::Faces6)
            .methods(Methods::all())
            .build(ctx);
        for local in dom.locals() {
            local.fill(0, pulse); // u(t-1)
            local.fill(1, pulse); // u(t)   (starts at rest)
        }
        ctx.barrier();
        let t0 = ctx.wtime();
        for step in 0..STEPS {
            let (qp, qc, qn) = (step % 3, (step + 1) % 3, (step + 2) % 3);
            dom.exchange(ctx);
            let kernels: Vec<_> = dom
                .locals()
                .iter()
                .map(|l| {
                    l.launch_compute(
                        ctx.sim(),
                        "wave",
                        l.interior.extent.iter().product::<u64>() * 10 * 4,
                        Some(wave_step_work(l, qp, qc, qn, C2)),
                    )
                })
                .collect();
            ctx.sim().wait_all(&kernels);
            ctx.barrier();
        }
        let elapsed = ctx.wtime() - t0;

        // Serial reference with the same buffer rotation.
        let mut prev = SerialGrid::init(DOMAIN, pulse);
        let mut cur = SerialGrid::init(DOMAIN, pulse);
        for _ in 0..STEPS {
            SerialGrid::wave_step(&mut prev, &cur, C2);
            std::mem::swap(&mut prev, &mut cur);
        }
        let q_final = (STEPS + 1) % 3; // the "current" buffer after STEPS rotations
        let mut worst = 0.0f32;
        let mut peak = 0.0f32;
        for local in dom.locals() {
            let og = local.interior.origin;
            let e = local.interior.extent;
            for z in 0..e[2] {
                for y in 0..e[1] {
                    for x in 0..e[0] {
                        let got = local.get_global_f32(q_final, [og[0] + x, og[1] + y, og[2] + z]);
                        let want =
                            cur.at((og[0] + x) as i64, (og[1] + y) as i64, (og[2] + z) as i64);
                        worst = worst.max((got - want).abs());
                        peak = peak.max(got.abs());
                    }
                }
            }
        }
        if ctx.rank() == 0 {
            *o2.borrow_mut() = (elapsed, worst, peak);
        }
    });
    let (elapsed, err, peak) = *out.borrow_mut();
    println!("wave3d: {STEPS} leapfrog steps on {DOMAIN:?}, 1 node x 6 ranks");
    println!("  virtual time: {:.3} ms", elapsed * 1e3);
    println!("  wavefield peak |u|: {peak:.4}");
    println!("  max err vs serial reference: {err:e}");
    assert_eq!(err, 0.0, "distributed wave must match the reference");
    println!("  OK: bit-identical to the serial reference");
}
