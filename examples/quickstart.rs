//! Quickstart: build a small distribution tree, run the three algorithms of
//! the paper, and compare them against the exact optimum.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use replica_placement::algorithms::{baselines, bounds, multiple_bin, single_gen, single_nod};
use replica_placement::prelude::*;

fn main() {
    // A small binary distribution tree: the root owns the original copy, two
    // regional nodes fan out to four edge sites, each serving two clients.
    //
    //                     root
    //                  1 /    \ 1
    //               west        east
    //             2 /  \ 2    1 /  \ 3
    //            e1     e2    e3    e4
    //           /\      /\    /\     /\
    //        (clients: 8,5  7,3   6,6  4,9 requests)
    let mut b = TreeBuilder::new();
    let root = b.root();
    let west = b.add_internal(root, 1);
    let east = b.add_internal(root, 1);
    let e1 = b.add_internal(west, 2);
    let e2 = b.add_internal(west, 2);
    let e3 = b.add_internal(east, 1);
    let e4 = b.add_internal(east, 3);
    for (edge_node, reqs) in [(e1, [8, 5]), (e2, [7, 3]), (e3, [6, 6]), (e4, [4, 9])] {
        for r in reqs {
            b.add_client(edge_node, 1, r);
        }
    }
    let tree = b.freeze().expect("valid tree");

    // Servers process at most W = 15 requests; a client must be served within
    // distance 4.
    let instance = Instance::new(tree, 15, Some(4)).expect("positive capacity");

    println!(
        "nodes: {}, clients: {}, total requests: {}",
        instance.tree().len(),
        instance.tree().client_count(),
        instance.tree().total_requests()
    );
    println!("capacity W = {}, dmax = {:?}", instance.capacity(), instance.dmax());
    println!("volume lower bound: {}", bounds::volume_lower_bound(&instance));
    println!("combined lower bound: {}", bounds::combined_lower_bound(&instance));
    println!();

    // Algorithm 1: (Δ+1)-approximation for the Single policy.
    let sol = single_gen(&instance).expect("every client fits in one server");
    let stats = validate(&instance, Policy::Single, &sol).expect("feasible");
    println!("single-gen   (Single):   {} replicas at {:?}", stats.replica_count, sol.replicas());

    // Algorithm 2: 2-approximation, no distance constraints (they are ignored).
    let nod_instance = Instance::new(instance.tree().clone(), instance.capacity(), None).unwrap();
    let sol = single_nod(&nod_instance).expect("feasible");
    let stats = validate(&nod_instance, Policy::Single, &sol).expect("feasible");
    println!(
        "single-nod   (Single, no dmax): {} replicas at {:?}",
        stats.replica_count,
        sol.replicas()
    );

    // Algorithm 3: the paper proves it optimal for Multiple on binary trees.
    let sol = multiple_bin(&instance).expect("binary tree with r_i ≤ W");
    let stats = validate(&instance, Policy::Multiple, &sol).expect("feasible");
    println!("multiple-bin (Multiple): {} replicas at {:?}", stats.replica_count, sol.replicas());

    // Baseline and exact reference.
    let trivial = baselines::clients_only(&instance).expect("feasible");
    println!("clients-only baseline:   {} replicas", trivial.replica_count());
    let opt_single = replica_placement::exact::optimal_replica_count(&instance, Policy::Single)
        .expect("feasible");
    let opt_multiple = replica_placement::exact::optimal_replica_count(&instance, Policy::Multiple)
        .expect("feasible");
    println!();
    println!("exact optimum: Single = {opt_single}, Multiple = {opt_multiple}");
}
