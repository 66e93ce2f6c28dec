//! Integration tests of the plain-text instance format: full-equality round
//! trips, including the degenerate shapes the unit tests don't cover
//! (single-client trees, `dmax`-less instances, zero-request clients) and
//! idempotence of the writer.

use rp_tree::io::{parse_instance, write_instance};
use rp_tree::{Instance, TreeBuilder};

/// Structural equality of two instances, field by field (the model types
/// deliberately don't implement `PartialEq` across the tree arena).
fn assert_instances_equal(a: &Instance, b: &Instance) {
    assert_eq!(a.capacity(), b.capacity());
    assert_eq!(a.dmax(), b.dmax());
    assert_eq!(a.tree().len(), b.tree().len());
    assert_eq!(a.tree().client_count(), b.tree().client_count());
    for id in a.tree().node_ids() {
        assert_eq!(a.tree().parent(id), b.tree().parent(id), "parent of {id}");
        assert_eq!(a.tree().edge(id), b.tree().edge(id), "edge of {id}");
        assert_eq!(a.tree().is_client(id), b.tree().is_client(id), "kind of {id}");
        assert_eq!(a.tree().requests(id), b.tree().requests(id), "requests of {id}");
        assert!(a.tree().children(id).eq(b.tree().children(id)), "children of {id}");
    }
}

fn roundtrip(inst: &Instance) -> Instance {
    parse_instance(&write_instance(inst)).expect("written instances must parse back")
}

#[test]
fn roundtrip_general_instance() {
    let mut b = TreeBuilder::new();
    let root = b.root();
    let n1 = b.add_internal(root, 2);
    let n2 = b.add_internal(root, 5);
    b.add_client(n1, 1, 7);
    b.add_client(n1, 3, 0); // zero-request client survives the format
    b.add_client(n2, 4, 123_456_789);
    let inst = Instance::new(b.freeze().unwrap(), 1_000_000, Some(9)).unwrap();
    assert_instances_equal(&inst, &roundtrip(&inst));
}

#[test]
fn roundtrip_without_dmax() {
    let mut b = TreeBuilder::new();
    let root = b.root();
    let n = b.add_internal(root, 1);
    b.add_client(n, 2, 3);
    b.add_client(root, 1, 4);
    let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
    let back = roundtrip(&inst);
    assert_eq!(back.dmax(), None);
    assert_instances_equal(&inst, &back);
}

#[test]
fn roundtrip_degenerate_single_client_tree() {
    // Smallest legal instance: the root plus one client.
    let mut b = TreeBuilder::new();
    let root = b.root();
    b.add_client(root, 6, 2);
    let inst = Instance::new(b.freeze().unwrap(), 2, Some(6)).unwrap();
    let back = roundtrip(&inst);
    assert_instances_equal(&inst, &back);
    assert_eq!(back.tree().len(), 2);
    assert_eq!(back.tree().client_count(), 1);
}

#[test]
fn roundtrip_single_client_without_dmax() {
    let mut b = TreeBuilder::new();
    let root = b.root();
    b.add_client(root, 0, 0); // zero-length edge, zero requests
    let inst = Instance::new(b.freeze().unwrap(), 1, None).unwrap();
    assert_instances_equal(&inst, &roundtrip(&inst));
}

#[test]
fn roundtrip_deep_chain() {
    let mut b = TreeBuilder::new();
    let mut parent = b.root();
    for depth in 0..40u64 {
        parent = b.add_internal(parent, depth % 3 + 1);
    }
    b.add_client(parent, 2, 11);
    let inst = Instance::new(b.freeze().unwrap(), 64, Some(100)).unwrap();
    assert_instances_equal(&inst, &roundtrip(&inst));
}

#[test]
fn writer_is_idempotent() {
    // write(parse(write(i))) must be byte-identical to write(i): the format
    // has one canonical rendering per instance.
    let mut b = TreeBuilder::new();
    let root = b.root();
    let n = b.add_internal(root, 3);
    b.add_client(n, 1, 5);
    b.add_client(root, 2, 8);
    let inst = Instance::new(b.freeze().unwrap(), 13, Some(4)).unwrap();
    let first = write_instance(&inst);
    let second = write_instance(&parse_instance(&first).unwrap());
    assert_eq!(first, second);
}
