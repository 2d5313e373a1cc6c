//! Quickstart: distribute a 3D heat-diffusion (Jacobi) problem over one
//! simulated Summit node, exchange halos each step, and verify the result
//! cell-by-cell against a serial reference.
//!
//! ```text
//! cargo run --release -p stencil-examples --bin quickstart
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use mpisim::{run_world, WorldConfig};
use stencil_core::{DomainBuilder, Methods, Neighborhood};
use stencil_examples::{jacobi_step_work, jacobi_traffic, SerialGrid};
use topo::summit::summit_cluster;

fn main() {
    const DOMAIN: [u64; 3] = [36, 30, 24];
    const STEPS: usize = 5;
    const K: f32 = 0.1;
    let init = |p: [u64; 3]| ((p[0] * 7 + p[1] * 13 + p[2] * 29) % 101) as f32;

    // ---- distributed run: 1 node, 6 ranks, 1 GPU each --------------------
    let max_err: Rc<RefCell<f32>> = Rc::new(RefCell::new(0.0));
    let elapsed: Rc<RefCell<f64>> = Rc::new(RefCell::new(0.0));
    let me = Rc::clone(&max_err);
    let el = Rc::clone(&elapsed);
    let world = WorldConfig::new(summit_cluster(1), 6);
    run_world(world, move |ctx| {
        // Build the distributed domain: radius-1 halos, two quantities
        // (double buffering), face neighbors only (7-point stencil).
        let dom = DomainBuilder::new(DOMAIN)
            .radius(1)
            .quantities(2)
            .neighborhood(Neighborhood::Faces6)
            .methods(Methods::all())
            .build(ctx);
        for local in dom.locals() {
            local.fill(0, init);
        }
        ctx.barrier();
        let t0 = ctx.wtime();
        for step in 0..STEPS {
            let (q_src, q_dst) = (step % 2, (step + 1) % 2);
            dom.exchange(ctx); // refresh halos of both quantities
            let kernels: Vec<_> = dom
                .locals()
                .iter()
                .map(|l| {
                    l.launch_compute(
                        ctx.sim(),
                        "jacobi",
                        jacobi_traffic(l),
                        Some(jacobi_step_work(l, q_src, q_dst, K)),
                    )
                })
                .collect();
            ctx.sim().wait_all(&kernels);
            ctx.barrier();
        }
        if ctx.rank() == 0 {
            *el.borrow_mut() = ctx.wtime() - t0;
        }

        // ---- verify against the serial reference ------------------------
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
        let mut m = me.borrow_mut();
        *m = m.max(worst);
    });

    println!("quickstart: {STEPS} Jacobi steps on a {DOMAIN:?} grid over 6 simulated GPUs");
    println!(
        "  virtual time for compute+exchange loop: {:.3} ms",
        *elapsed.borrow_mut() * 1e3
    );
    let err = *max_err.borrow_mut();
    println!("  max |distributed - serial reference|:  {err:e}");
    assert!(
        err == 0.0,
        "distributed result must match the reference exactly"
    );
    println!("  OK: bit-identical to the serial reference");
}
