#[test]
fn staggered_flows_respect_capacity() {
    use detsim::{Kernel, SimDuration};
    use std::cell::Cell;
    use std::rc::Rc;
    let mut k = Kernel::new();
    let l = k.add_link("l", 25e9, SimDuration::from_micros(1));
    let last_end = Rc::new(Cell::new(0));
    // 100 flows of 4 MB each, staggered 10us apart: 400 MB over 25 GB/s = 16 ms minimum
    for i in 0..100u64 {
        let le = Rc::clone(&last_end);
        k.schedule_in(SimDuration::from_micros(10 * i), move |k| {
            k.start_flow(&[l], 4_000_000, move |k| {
                le.set(le.get().max(k.now().picos()));
            });
        });
    }
    k.run_to_completion();
    let end_s = last_end.get() as f64 / 1e12;
    println!("last end: {:.3} ms", end_s * 1e3);
    assert!(end_s >= 0.016, "conservation violated: {end_s}");
}

#[test]
fn random_staggered_flows_never_exceed_capacity() {
    use detsim::{Kernel, SimDuration};
    use std::cell::Cell;
    use std::rc::Rc;
    let mut state = 42u64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for trial in 0..50 {
        let mut k = Kernel::new();
        let cap = 25e9;
        let l = k.add_link("l", cap, SimDuration::from_micros(1));
        let last_end = Rc::new(Cell::new(0));
        let first_start = Rc::new(Cell::new(u64::MAX));
        let mut total = 0u64;
        let n = 20 + rnd() % 200;
        for _ in 0..n {
            let bytes = 1000 + rnd() % 20_000_000;
            total += bytes;
            let at = SimDuration::from_nanos(rnd() % 3_000_000);
            let le = Rc::clone(&last_end);
            let fs = Rc::clone(&first_start);
            k.schedule_in(at, move |k| {
                fs.set(fs.get().min(k.now().picos()));
                k.start_flow(&[l], bytes, move |k| {
                    le.set(le.get().max(k.now().picos()));
                });
            });
        }
        k.run_to_completion();
        let window = (last_end.get() - first_start.get()) as f64 / 1e12;
        let floor = total as f64 / cap;
        assert!(
            window >= floor * 0.999,
            "trial {trial}: {total} bytes in {window}s < floor {floor}s"
        );
    }
}

#[test]
fn peak_utilization_never_exceeds_one() {
    use detsim::{Kernel, SimDuration};
    let mut state = 7u64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for trial in 0..200 {
        let mut k = Kernel::new();
        let l = k.add_link("l", 1e9, SimDuration::from_micros(1));
        let l2 = k.add_link("l2", 2e9, SimDuration::from_micros(2));
        let n = 2 + rnd() % 50;
        for i in 0..n {
            let bytes = 1 + rnd() % 5_000_000;
            let at = SimDuration::from_nanos(rnd() % 2_000_000);
            let two = rnd() % 2 == 0;
            k.schedule_in(at, move |k| {
                let path: Vec<_> = if two { vec![l, l2] } else { vec![l] };
                k.start_flow(&path, bytes, |_| {});
            });
            let _ = i;
        }
        k.run_to_completion();
        let u1 = k.link_peak_utilization(l);
        let u2 = k.link_peak_utilization(l2);
        assert!(
            u1 <= 1.0 + 1e-9 && u2 <= 1.0 + 1e-9,
            "trial {trial}: over-allocation u1={u1} u2={u2}"
        );
    }
}

/// Regression test: flow slots are recycled; a stale completion event from a
/// previous occupant must never complete the new flow early. (This bug let
/// large simulations deliver more bytes than link capacity allowed.)
#[test]
fn slot_reuse_does_not_finish_new_flows_early() {
    use detsim::{Kernel, SimDuration};
    let mut k = Kernel::new();
    let l = k.add_link("l", 1e9, SimDuration::ZERO);
    // Flow A: finishes quickly, slot freed. Its completion reschedules often.
    for round in 0..50u64 {
        k.schedule_in(SimDuration::from_micros(round * 100), move |k| {
            k.start_flow(&[l], 1_000 + round, |_| {});
        });
    }
    // One long flow whose slot churns through many generations around it.
    k.schedule_in(SimDuration::from_micros(10), move |k| {
        k.start_flow(&[l], 5_000_000, |k| {
            // 5 MB at <= 1 GB/s takes >= 5 ms.
            assert!(
                k.now().picos() >= 5_000_000_000,
                "long flow finished early at {}",
                k.now()
            );
        });
    });
    k.run_to_completion();
    let busy = k.link_busy_bytes(l);
    let delivered = k.link_delivered(l) as f64;
    assert!(
        (busy - delivered).abs() < delivered * 1e-6,
        "load integral {busy} != delivered {delivered}"
    );
}
