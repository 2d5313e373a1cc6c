//! Irregular sparse exchange over persistent channels — the hook for the
//! second workload family (ROADMAP item 2): graph/SpMV-style neighbor
//! lists instead of a 3D grid.
//!
//! Each rank owns a contiguous strip of "graph rows" and exchanges boundary
//! values with an *irregular* neighbor set (a deterministic expander-style
//! pattern: ring hops 1 and 2, plus a long-range stride), so neighbor
//! counts and message sizes differ per rank — exactly the shape Lockhart et
//! al. characterize. The neighbor lists are fixed across iterations, which
//! is the sweet spot for persistent channels: match once at setup
//! (`send_init`/`recv_init`), then pay only the cheap `start` per sweep.
//!
//! Runs the same sweep over plain nonblocking `isend`/`irecv` and over
//! persistent channels, verifies delivered values agree element-for-element,
//! and reports the per-sweep virtual-time difference (docs/TRANSPORTS.md).
//!
//! ```text
//! cargo run --release -p stencil-examples --bin irregular_halo
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use mpisim::{run_world, RankCtx, WorldConfig};
use topo::summit::summit_cluster;

const NODES: usize = 2;
const RPN: usize = 6;
const SWEEPS: usize = 8;
/// Base f64 values per boundary block; scaled per neighbor below so
/// message sizes are deliberately non-uniform.
const BLOCK: u64 = 64;

/// The irregular neighbor set of `rank`: ring±1, ring±2, and a long-range
/// stride partner. Deduplicated, self excluded; order is deterministic.
fn neighbors(rank: usize, size: usize) -> Vec<usize> {
    let stride = size / 3 + 1;
    let mut out = Vec::new();
    for d in [1, size - 1, 2, size - 2, stride, size - stride] {
        let p = (rank + d) % size;
        if p != rank && !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// Bytes rank `a` sends to rank `b`: proportional to how "close" they are
/// on the ring, so the pattern is irregular in size as well as shape.
fn msg_bytes(a: usize, b: usize, size: usize) -> u64 {
    let d = (b + size - a) % size;
    let hops = d.min(size - d) as u64;
    BLOCK * 8 * (1 + hops % 5)
}

/// Value rank `a` contributes to rank `b` at sweep `s`, element `i`.
fn value(a: usize, b: usize, s: usize, i: u64) -> f64 {
    (a * 1000 + b) as f64 + s as f64 * 0.5 + i as f64 * 1e-6
}

fn sweep_loop(ctx: &RankCtx, persistent: bool) -> (f64, Vec<f64>) {
    let m = ctx.machine();
    let me = ctx.rank();
    let n = ctx.size();
    let nbrs = neighbors(me, n);
    // One send and one recv block per neighbor, packed back to back.
    let sbytes: Vec<u64> = nbrs.iter().map(|&p| msg_bytes(me, p, n)).collect();
    let rbytes: Vec<u64> = nbrs.iter().map(|&p| msg_bytes(p, me, n)).collect();
    let sbuf: Vec<_> = sbytes
        .iter()
        .map(|&b| m.alloc_host_untimed(ctx.node(), 0, b))
        .collect();
    let rbuf: Vec<_> = rbytes
        .iter()
        .map(|&b| m.alloc_host_untimed(ctx.node(), 0, b))
        .collect();
    let chans = persistent.then(|| {
        let s: Vec<_> = nbrs
            .iter()
            .enumerate()
            .map(|(j, &p)| ctx.send_init(&sbuf[j], 0, sbytes[j], p, 5))
            .collect();
        let r: Vec<_> = nbrs
            .iter()
            .enumerate()
            .map(|(j, &p)| ctx.recv_init(&rbuf[j], 0, rbytes[j], p, 5))
            .collect();
        (s, r)
    });
    ctx.barrier();
    let t0 = ctx.wtime();
    let mut checksum = Vec::new();
    for s in 0..SWEEPS {
        for (j, &p) in nbrs.iter().enumerate() {
            let vals: Vec<u8> = (0..sbytes[j] / 8)
                .flat_map(|i| value(me, p, s, i).to_le_bytes())
                .collect();
            sbuf[j].write(0, &vals);
        }
        if let Some((sch, rch)) = &chans {
            let rr: Vec<_> = rch.iter().map(|c| ctx.start(c)).collect();
            let sr: Vec<_> = sch.iter().map(|c| ctx.start(c)).collect();
            for r in rr.iter().chain(sr.iter()) {
                ctx.wait(&r.all);
            }
        } else {
            let rr: Vec<_> = nbrs
                .iter()
                .enumerate()
                .map(|(j, &p)| ctx.irecv(&rbuf[j], 0, rbytes[j], p, 5))
                .collect();
            let sr: Vec<_> = nbrs
                .iter()
                .enumerate()
                .map(|(j, &p)| ctx.isend(&sbuf[j], 0, sbytes[j], p, 5))
                .collect();
            for r in rr.iter().chain(sr.iter()) {
                ctx.wait(r);
            }
        }
        // Fold received values so both paths can be compared exactly.
        for (j, &p) in nbrs.iter().enumerate() {
            let mut acc = 0.0;
            let mut raw = vec![0u8; rbytes[j] as usize];
            rbuf[j].read(0, &mut raw);
            for (i, w) in raw.chunks_exact(8).enumerate() {
                let got = f64::from_le_bytes(w.try_into().unwrap());
                assert_eq!(got, value(p, me, s, i as u64), "corrupt element");
                acc += got;
            }
            checksum.push(acc);
        }
        ctx.barrier();
    }
    (ctx.wtime() - t0, checksum)
}

fn run(persistent: bool) -> (f64, Vec<Vec<f64>>) {
    let out: Rc<RefCell<(f64, Vec<Vec<f64>>)>> = Rc::new(RefCell::new((0.0, Vec::new())));
    let o = Rc::clone(&out);
    run_world(
        WorldConfig::new(summit_cluster(NODES), RPN).mpi_persistent(true),
        move |ctx| {
            let (dt, sums) = sweep_loop(ctx, persistent);
            let mut g = o.borrow_mut();
            if ctx.rank() == 0 {
                g.0 = dt;
            }
            g.1.push(sums);
        },
    );
    let mut g = out.borrow_mut().clone();
    g.1.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (g.0, g.1)
}

fn main() {
    let size = NODES * RPN;
    let degrees: Vec<usize> = (0..size).map(|r| neighbors(r, size).len()).collect();
    println!("irregular_halo: {size} ranks, per-rank neighbor degrees {degrees:?}");

    let (t_nb, sums_nb) = run(false);
    let (t_p, sums_p) = run(true);
    assert_eq!(
        sums_nb, sums_p,
        "persistent sweep must deliver identical values"
    );
    println!("  nonblocking: {:8.3} us / {SWEEPS} sweeps", t_nb * 1e6);
    println!("  persistent:  {:8.3} us / {SWEEPS} sweeps", t_p * 1e6);
    println!(
        "  per-sweep saving: {:.3} us ({:.1}%)",
        (t_nb - t_p) * 1e6 / SWEEPS as f64,
        (1.0 - t_p / t_nb) * 100.0
    );
    assert!(
        t_p < t_nb,
        "persistent channels should win on a fixed graph"
    );
    println!(
        "verified: all {} sweeps element-exact on both paths",
        SWEEPS
    );
}
