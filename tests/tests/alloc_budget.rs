//! Steady-state op issue allocates almost nothing: after one warm-up
//! overlapped step, the next step's heap allocations on every transport
//! rung stay within a budget of the count measured before op state moved
//! into slabs and inline event storage, while the kernel executes exactly
//! the same events.
//!
//! A counting global allocator tallies allocation calls. This file holds a
//! single test so no other test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use gpusim::DataMode;
use mpisim::{run_world, WorldConfig};
use stencil_bench::weak_scaling_extent;
use stencil_core::{DomainBuilder, Method, Methods, Neighborhood};
use topo::summit::summit_cluster;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 2;
const PER_GPU: u64 = 24;
const BYTES_PER_CELL: u64 = 2000;

/// One transport rung with the step counts measured before this budget
/// was set: kernel events (pinned exactly: allocation work must not add,
/// drop or re-sequence an event) and allocation calls (the baseline the
/// budget is a share of).
struct Rung {
    name: &'static str,
    methods: Methods,
    consolidate: bool,
    cuda_aware: bool,
    events: u64,
    parent_allocs: u64,
}

/// Allocations per steady-state step may be at most this share of the
/// baseline count.
const BUDGET: f64 = 0.40;

fn rungs() -> [Rung; 5] {
    [
        Rung {
            name: "staged",
            methods: Methods::all(),
            consolidate: false,
            cuda_aware: false,
            events: 5473,
            parent_allocs: 11_032,
        },
        Rung {
            name: "consolidated",
            methods: Methods::all(),
            consolidate: true,
            cuda_aware: false,
            events: 3601,
            parent_allocs: 7_636,
        },
        Rung {
            name: "cuda-aware",
            methods: Methods::all_with_cuda_aware(),
            consolidate: false,
            cuda_aware: true,
            events: 3745,
            parent_allocs: 9_292,
        },
        Rung {
            name: "persistent",
            methods: Methods::all().with_persistent(),
            consolidate: false,
            cuda_aware: false,
            events: 5473,
            parent_allocs: 14_704,
        },
        Rung {
            name: "partitioned",
            methods: Methods::all().with_partitioned(),
            consolidate: false,
            cuda_aware: false,
            events: 5689,
            parent_allocs: 14_936,
        },
    ]
}

/// Kernel events and allocation calls of the second overlapped step of a
/// fresh world (the first one warms up every pool and slab).
fn measure(rung: &Rung) -> (u64, u64) {
    let config = WorldConfig::new(summit_cluster(NODES), 6)
        .data_mode(DataMode::Virtual)
        .cuda_aware(rung.cuda_aware)
        .mpi_persistent(rung.methods.contains(Method::PersistentStaged))
        .mpi_partitioned(rung.methods.contains(Method::PartitionedStaged));
    let e = weak_scaling_extent(PER_GPU, NODES * 6);
    let builder = DomainBuilder::new([e; 3])
        .radius(2)
        .quantities(2)
        .neighborhood(Neighborhood::Full26)
        .methods(rung.methods)
        .consolidate(rung.consolidate);
    let out = Rc::new(Cell::new((0u64, 0u64)));
    let o = Rc::clone(&out);
    run_world(config, move |ctx| {
        let dom = builder.clone().build(ctx);
        ctx.barrier();
        dom.step_overlapped(ctx, BYTES_PER_CELL);
        ctx.barrier();
        let read = || {
            let events = ctx.sim().with_kernel(|k| k.executed_events());
            (events, ALLOCS.load(Ordering::Relaxed))
        };
        let before = (ctx.rank() == 0).then(read);
        dom.step_overlapped(ctx, BYTES_PER_CELL);
        ctx.barrier();
        if let Some((events, allocs)) = before {
            let (events_after, allocs_after) = read();
            o.set((events_after - events, allocs_after - allocs));
        }
    });
    out.get()
}

#[test]
fn steady_state_steps_stay_within_the_allocation_budget() {
    let mut report = Vec::new();
    for rung in rungs() {
        let (events, allocs) = measure(&rung);
        report.push(format!(
            "{}: {events} events, {allocs} allocations (baseline {})",
            rung.name, rung.parent_allocs
        ));
        assert_eq!(
            events,
            rung.events,
            "{}: kernel events per step moved\n{}",
            rung.name,
            report.join("\n")
        );
        let budget = (rung.parent_allocs as f64 * BUDGET) as u64;
        assert!(
            allocs <= budget,
            "{}: {allocs} allocations per step exceed the budget of {budget}\n{}",
            rung.name,
            report.join("\n")
        );
    }
    println!("{}", report.join("\n"));
}
