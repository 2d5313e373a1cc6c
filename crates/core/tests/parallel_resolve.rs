//! Pins the determinism contract of `resolve_node_placements`: the
//! parallel per-node QAP re-solve used by `adapt` (global scope) must produce
//! **bit-identical** placements to the serial path, for any thread count,
//! on both the exhaustive (6-GPU) and heuristic (12-GPU fat node) ladder
//! rungs. If this breaks, committed virtual times after an adaptation
//! diverge between machines with different core counts.

use stencil_core::dim3::Boundary;
use stencil_core::{resolve_node_placements, Neighborhood, Partition, Radius};
use topo::presets::fat_node;
use topo::summit::summit_node;
use topo::NodeDiscovery;

/// Per-node measured-style matrices: the discovered matrix with a
/// deterministic per-node perturbation (node k's GPU pair (k % g, (k+1) % g)
/// degraded 4×) so different nodes genuinely solve different instances.
fn perturbed_rank_distances(
    base: &[Vec<f64>],
    num_nodes: usize,
    ranks_per_node: usize,
) -> Vec<Vec<Vec<f64>>> {
    let g = base.len();
    let mut all = Vec::with_capacity(num_nodes * ranks_per_node);
    for n in 0..num_nodes {
        let mut d = base.to_vec();
        let (a, b) = (n % g, (n + 1) % g);
        if a != b {
            d[a][b] *= 4.0;
            d[b][a] *= 4.0;
        }
        for _ in 0..ranks_per_node {
            all.push(d.clone());
        }
    }
    all
}

fn assert_bit_identical(part: &Partition, rank_distances: &[Vec<Vec<f64>>], ranks_per_node: usize) {
    let solve = |threads: usize| {
        resolve_node_placements(
            part,
            Neighborhood::Full26,
            &Radius::constant(2),
            4,
            4,
            Boundary::Periodic,
            rank_distances,
            ranks_per_node,
            threads,
        )
    };
    let serial = solve(1);
    for threads in [2, 3, 8, 64] {
        let parallel = solve(threads);
        assert_eq!(serial.len(), parallel.len());
        for (n, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.gpu_for_subdomain, p.gpu_for_subdomain,
                "node {n}, {threads} threads: assignment diverged"
            );
            assert_eq!(
                s.subdomain_for_gpu, p.subdomain_for_gpu,
                "node {n}, {threads} threads"
            );
            assert_eq!(
                s.cost.to_bits(),
                p.cost.to_bits(),
                "node {n}, {threads} threads: cost bits diverged"
            );
        }
    }
}

#[test]
fn parallel_matches_serial_summit_nodes() {
    // 8 Summit nodes, 6 GPUs each: the exhaustive rung.
    let part = Partition::new([720, 726, 350], 8, 6);
    let disc = NodeDiscovery::discover(&summit_node());
    let all = perturbed_rank_distances(&disc.distance_matrix(), 8, 2);
    assert_bit_identical(&part, &all, 2);
}

#[test]
fn parallel_matches_serial_fat_nodes() {
    // 4 fat nodes, 12 GPUs each: the heuristic rung (n > EXHAUSTIVE_MAX_N).
    let part = Partition::new([720, 726, 352], 4, 12);
    let disc = NodeDiscovery::discover(&fat_node(2, 2, 3));
    let all = perturbed_rank_distances(&disc.distance_matrix(), 4, 1);
    assert_bit_identical(&part, &all, 1);
}

#[test]
fn oversubscribed_thread_count_is_clamped() {
    // More threads than nodes must neither panic nor change results.
    let part = Partition::new([240, 242, 120], 2, 6);
    let disc = NodeDiscovery::discover(&summit_node());
    let all = perturbed_rank_distances(&disc.distance_matrix(), 2, 1);
    assert_bit_identical(&part, &all, 1);
}
