//! Report the simulated machine's topology and show which exchange method
//! capability specialization selects for every subdomain pair of a small
//! job — the paper's §III-C decision table, made visible.
//!
//! ```text
//! cargo run --release -p stencil-examples --bin topology_report
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use mpisim::{run_world, WorldConfig};
use stencil_core::{method, Dir3, DomainBuilder, Methods};
use topo::summit::{summit_cluster, summit_node};
use topo::NodeDiscovery;

fn main() {
    let node = summit_node();
    let disc = NodeDiscovery::discover(&node);
    println!(
        "simulated node: {} ({} CPUs, {} GPUs, {} NIC)",
        node.name(),
        node.num_cpus(),
        node.num_gpus(),
        node.num_nics()
    );
    println!("\nGPU connectivity:");
    print!("{}", disc.render_matrix());

    println!("\nmethod selection truth table (Methods::all(), platform not CUDA-aware):");
    println!("  {:<46} -> method", "pair relationship");
    for (desc, caps) in [
        (
            "same GPU (self-exchange)",
            method::PairCaps {
                same_device: true,
                same_rank: true,
                same_node: true,
                peer_access: true,
                cuda_aware: false,
                persistent: false,
                partitioned: false,
            },
        ),
        (
            "same rank, different GPUs, peer ok",
            method::PairCaps {
                same_device: false,
                same_rank: true,
                same_node: true,
                peer_access: true,
                cuda_aware: false,
                persistent: false,
                partitioned: false,
            },
        ),
        (
            "same node, different ranks, peer ok",
            method::PairCaps {
                same_device: false,
                same_rank: false,
                same_node: true,
                peer_access: true,
                cuda_aware: false,
                persistent: false,
                partitioned: false,
            },
        ),
        (
            "same node, no peer access",
            method::PairCaps {
                same_device: false,
                same_rank: false,
                same_node: true,
                peer_access: false,
                cuda_aware: false,
                persistent: false,
                partitioned: false,
            },
        ),
        (
            "different nodes",
            method::PairCaps {
                same_device: false,
                same_rank: false,
                same_node: false,
                peer_access: false,
                cuda_aware: false,
                persistent: false,
                partitioned: false,
            },
        ),
    ] {
        println!("  {:<46} -> {}", desc, method::select(Methods::all(), caps));
    }

    // A live plan from a real (small) job: 2 nodes, 2 ranks each.
    let plans: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let p2 = Rc::clone(&plans);
    run_world(WorldConfig::new(summit_cluster(2), 2), move |ctx| {
        let dom = DomainBuilder::new([48, 48, 48]).radius(1).build(ctx);
        let mut lines = vec![format!(
            "rank {} (node {}, gpus {:?}): {}",
            ctx.rank(),
            ctx.node(),
            ctx.gpus(),
            dom.plan_summary()
        )];
        if ctx.rank() == 0 {
            let l = &dom.locals()[0];
            lines.push(format!(
                "  subdomain {:?} sends toward +x to neighbor {:?}",
                l.gpu_idx,
                dom.partition()
                    .neighbor(l.node_idx, l.gpu_idx, Dir3::new(1, 0, 0))
            ));
        }
        p2.borrow_mut().push(lines.join("\n"));
    });
    println!("\nlive specialized plans for a 48^3 domain on 2 nodes x 2 ranks:");
    let mut v = plans.borrow_mut().clone();
    v.sort();
    for line in v {
        println!("  {line}");
    }
}
