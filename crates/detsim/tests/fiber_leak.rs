//! Repeated worlds in one process must not leak: every rank's fiber start
//! record and entry closure are freed before the fiber parks for good, so a
//! long-running process (the svc worker pool) does not grow per job.
//!
//! A counting global allocator tracks live heap bytes. This file holds a
//! single test so no other test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use detsim::{Sim, SimDuration};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RANKS: usize = 64;
const WORLDS: usize = 10;

fn run_world() {
    let mut sim = Sim::new();
    sim.run(RANKS, |ctx| {
        ctx.delay(SimDuration::from_nanos(ctx.tid() as u64 + 1));
        ctx.yield_now();
    });
}

#[test]
fn repeated_worlds_return_live_bytes_to_baseline() {
    // One warm-up world pays for lazily initialized process state.
    run_world();
    let baseline = LIVE.load(Ordering::SeqCst);
    for _ in 0..WORLDS {
        run_world();
    }
    let leaked = LIVE.load(Ordering::SeqCst) - baseline;
    assert_eq!(
        leaked, 0,
        "{WORLDS} worlds of {RANKS} ranks leaked {leaked} bytes"
    );
}
