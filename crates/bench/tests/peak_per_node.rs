//! Memory-shape regression: a `multiple-bin` solve's peak heap must stay
//! linear in the tree size on every bench family, so no input *shape* can
//! make memory super-linear again (a long spine once held Θ(n²) bytes of
//! pending lists: ≈28 KB per node at 4096 clients, ≈99 KB per node at
//! 16384).
//!
//! This binary registers the counting allocator, and everything runs in
//! one test so no other test's allocations land in the measurements. Each
//! cell builds its instance first, then measures the peak of live heap
//! bytes above that post-load baseline during one solve on a fresh scratch
//! (arena, slabs and solution included), divided by the node count.

use rp_bench::alloc_track::{current_bytes, peak_bytes, reset_peak, CountingAlloc};
use rp_bench::{binary_instance, deep_fallback_instance, long_spine_instance};
use rp_core::{multiple_bin_with, SolverScratch};
use rp_tree::Instance;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling on the solve's peak heap per tree node, in bytes, for every
/// family and size below.
const BYTES_PER_NODE: u64 = 1024;

/// Largest allowed growth of the per-node peak from 4096 to 16384 clients.
const GROWTH: f64 = 1.5;

/// Peak heap bytes above the post-load baseline, per node, of one solve.
fn peak_per_node(instance: &Instance) -> u64 {
    let nodes = instance.tree().len() as u64;
    let base = current_bytes();
    reset_peak();
    let mut scratch = SolverScratch::new();
    let solution = multiple_bin_with(instance, &mut scratch).expect("bench instances are feasible");
    let peak = peak_bytes().saturating_sub(base);
    drop((solution, scratch));
    peak / nodes
}

#[test]
fn solve_peak_heap_stays_linear_in_the_node_count() {
    type Family = fn(usize) -> Instance;
    let families: [(&str, Family); 4] = [
        ("spine NoD", |n| long_spine_instance(n, false, 3)),
        ("spine dmax", |n| long_spine_instance(n, true, 3)),
        ("deep dmax", |n| deep_fallback_instance(n, true, 3)),
        ("binary dmax", |n| binary_instance(n, Some(0.7), 3)),
    ];
    for (name, family) in families {
        let small = peak_per_node(&family(4096));
        let large = peak_per_node(&family(16384));
        assert!(
            small <= BYTES_PER_NODE && large <= BYTES_PER_NODE,
            "{name}: {small} B/node at 4096 clients, {large} B/node at 16384 \
             (ceiling {BYTES_PER_NODE})"
        );
        assert!(
            large as f64 <= GROWTH * small as f64,
            "{name}: per-node peak grew from {small} B at 4096 clients to {large} B at 16384"
        );
    }
}
