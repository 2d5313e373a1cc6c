//! The whole stack must be exactly reproducible: identical virtual times
//! across repeated runs, identical placements on every rank, identical
//! traces.

use std::cell::RefCell;
use std::rc::Rc;

use stencil_bench::{measure_exchange, ExchangeConfig};
use stencil_core::{DomainBuilder, Methods};
use topo::summit::summit_cluster;

#[test]
fn exchange_times_are_bit_identical_across_runs() {
    let run = || {
        let cfg = ExchangeConfig::new(2, 6, 400)
            .methods(Methods::all())
            .iters(3);
        measure_exchange(&cfg).per_iter
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn cuda_aware_runs_are_deterministic_too() {
    let run = || {
        let cfg = ExchangeConfig::new(2, 6, 400)
            .methods(Methods::cuda_aware_only())
            .cuda_aware(true)
            .iters(2);
        measure_exchange(&cfg).per_iter
    };
    assert_eq!(run(), run());
}

#[test]
fn repeated_exchanges_take_identical_time() {
    // After the first exchange the system returns to quiescence, so every
    // following exchange must cost exactly the same virtual time.
    let cfg = ExchangeConfig::new(1, 6, 500)
        .methods(Methods::all())
        .iters(4);
    let r = measure_exchange(&cfg);
    for w in r.per_iter.windows(2) {
        // identical up to f64 rounding of (wtime - wtime) at different
        // absolute offsets; the underlying picosecond durations are equal
        assert!(
            (w[0] - w[1]).abs() < w[0] * 1e-9,
            "iterations differ: {:?}",
            r.per_iter
        );
    }
}

#[test]
fn every_rank_computes_the_same_placement() {
    let placements: Rc<RefCell<Vec<Vec<usize>>>> = Rc::new(RefCell::new(Vec::new()));
    let p2 = Rc::clone(&placements);
    let world = mpisim::WorldConfig::new(summit_cluster(2), 6);
    mpisim::run_world(world, move |ctx| {
        let dom = DomainBuilder::new([1440, 1452, 700])
            .radius(2)
            .quantities(4)
            .build(ctx);
        let mine: Vec<usize> = (0..2)
            .flat_map(|n| dom.placement(n).gpu_for_subdomain.clone())
            .collect();
        p2.borrow_mut().push(mine);
    });
    let all = placements.borrow_mut();
    assert_eq!(all.len(), 12);
    for p in all.iter() {
        assert_eq!(p, &all[0], "ranks disagree on placement");
    }
}

#[test]
fn trace_output_is_deterministic() {
    let run = || {
        let world = mpisim::WorldConfig::new(summit_cluster(1), 2).trace(true);
        let rep = mpisim::run_world(world, |ctx| {
            let dom = DomainBuilder::new([48, 48, 48]).radius(1).build(ctx);
            ctx.barrier();
            dom.exchange(ctx);
        });
        rep.trace_json.unwrap()
    };
    assert_eq!(run(), run());
}
