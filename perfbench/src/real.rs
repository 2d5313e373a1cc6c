//! Element-exact halo check: a small `DataMode::Full` world per method set
//! fills every cell from its global coordinate, exchanges twice (so
//! persistent and partitioned channels are reused), and compares every
//! halo cell with the periodic-wrapped fill.

use std::sync::{Arc, Mutex};

use gpusim::DataMode;
use mpisim::{run_world, WorldConfig};
use stencil_core::{DomainBuilder, Method, Methods, Neighborhood};
use topo::summit::summit_cluster;

const DOMAIN: [u64; 3] = [40, 36, 24];
const RADIUS: i64 = 2;
const QUANTITIES: usize = 2;

/// A method set as a workload runs it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MethodSet {
    pub methods: Methods,
    pub cuda_aware: bool,
    pub consolidate: bool,
}

fn cell_value(q: usize, p: [u64; 3]) -> f32 {
    let id = (p[2] * DOMAIN[1] + p[1]) * DOMAIN[0] + p[0];
    id as f32 + q as f32 * 0.125
}

/// Run the check on two Summit nodes; returns the number of wrong cells
/// and the first few of them.
pub fn check(set: MethodSet) -> (usize, Vec<String>) {
    let bad: Arc<Mutex<(usize, Vec<String>)>> = Arc::default();
    let b = Arc::clone(&bad);
    let m = set.methods;
    let cfg = WorldConfig::new(summit_cluster(2), 6)
        .data_mode(DataMode::Full)
        .cuda_aware(set.cuda_aware)
        .mpi_persistent(m.contains(Method::PersistentStaged))
        .mpi_partitioned(m.contains(Method::PartitionedStaged));
    run_world(cfg, move |ctx| {
        let dom = DomainBuilder::new(DOMAIN)
            .radius(RADIUS as u64)
            .quantities(QUANTITIES)
            .neighborhood(Neighborhood::Full26)
            .methods(m)
            .consolidate(set.consolidate)
            .build(ctx);
        for local in dom.locals() {
            for q in 0..QUANTITIES {
                local.fill(q, |p| cell_value(q, p));
            }
        }
        for _ in 0..2 {
            ctx.barrier();
            dom.exchange(ctx);
        }
        ctx.barrier();
        let mut wrong = Vec::new();
        for local in dom.locals() {
            let o = local.interior.origin;
            let e = local.interior.extent;
            let span = |a: usize| -RADIUS..e[a] as i64 + RADIUS;
            for q in 0..QUANTITIES {
                for z in span(2) {
                    for y in span(1) {
                        for x in span(0) {
                            let p = [x, y, z];
                            let global: Vec<u64> = (0..3)
                                .map(|a| (o[a] as i64 + p[a]).rem_euclid(DOMAIN[a] as i64) as u64)
                                .collect();
                            let want = cell_value(q, [global[0], global[1], global[2]]);
                            let got = local.get_local_f32(q, p);
                            if got != want {
                                wrong.push(format!(
                                    "rank {} q{q} local {p:?}: got {got}, want {want}",
                                    ctx.rank()
                                ));
                            }
                        }
                    }
                }
            }
        }
        let mut g = b.lock().expect("check state lock poisoned");
        g.0 += wrong.len();
        g.1.extend(wrong.into_iter().take(3));
    });
    let g = bad.lock().expect("check state lock poisoned");
    (g.0, g.1.clone())
}
