//! The chaos gauntlet: with the `fault-inject` feature armed, every
//! planned fault — I/O errors on persist writes, snapshot writes and
//! recovery loads, delays blowing solve budgets, failures in delta
//! application — must surface as a structured [`ServeError`] or a
//! `stale`-tagged outcome, and must never lose an acknowledged delta,
//! poison the warm scratch, or abort the engine.
//!
//! The fault plan is process-global, so every test takes `GAUNTLET`
//! before installing one (ignoring poisoning: a failed test poisons the
//! lock without invalidating anything).
#![cfg(feature = "fault-inject")]

use rp_core::fault::{self, FaultPlan};
use rp_core::serve::persist::PersistConfig;
use rp_core::serve::{DemandDelta, ServeEngine};
use rp_tree::{Instance, TreeBuilder};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

static GAUNTLET: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GAUNTLET.lock().unwrap_or_else(|e| e.into_inner())
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("rp-gauntlet-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn small_instance() -> Instance {
    let mut b = TreeBuilder::new();
    let root = b.root();
    let n1 = b.add_internal(root, 2);
    b.add_client(n1, 1, 4); // node 2
    b.add_client(n1, 2, 5); // node 3
    Instance::new(b.freeze().unwrap(), 10, Some(4)).unwrap()
}

#[test]
fn injected_append_failures_reject_the_delta_and_keep_serving() {
    let _guard = lock();
    let tmp = TempDir::new("append");
    let inst = small_instance();
    let mut engine = ServeEngine::new(&inst).unwrap();
    engine.attach_persist(tmp.path(), PersistConfig::default()).unwrap();
    // Nth-hit triggers at several seeded positions in the append stream.
    fault::install(FaultPlan::new().io_error("persist.append", 2).io_error("persist.append", 4));

    // A reference engine (no persistence, no faults) is fed only the
    // deltas the faulted engine acknowledged.
    let mut reference = ServeEngine::new(&inst).unwrap();
    let stream: [(u32, DemandDelta); 5] = [
        (2, DemandDelta::Set(1)),
        (3, DemandDelta::Set(2)), // append hit 2: injected failure
        (2, DemandDelta::Set(3)),
        (3, DemandDelta::Set(4)), // append hit 4: injected failure
        (2, DemandDelta::Set(5)),
    ];
    let mut rejected = 0;
    for (node, delta) in stream {
        match engine.apply_delta(node, delta) {
            Ok(_) => {
                reference.apply_delta(node, delta).unwrap();
            }
            Err(e) => {
                assert_eq!(e.code(), "persist", "append failures are structured: {e}");
                rejected += 1;
            }
        }
    }
    fault::clear();
    assert_eq!(rejected, 2, "both armed triggers fired, nothing else");
    assert_eq!(engine.stats().deltas_rejected, 2);
    // The rejected delta mutated nothing: demand matches the reference…
    assert_eq!(engine.requests_of(2), reference.requests_of(2));
    assert_eq!(engine.requests_of(3), reference.requests_of(3));
    // …and so do the solutions, warm state intact.
    engine.solve().unwrap();
    reference.solve().unwrap();
    assert_eq!(engine.solution(), reference.solution());

    // A restart recovers exactly the acknowledged stream.
    drop(engine);
    let mut revived = ServeEngine::new(&inst).unwrap();
    revived.attach_persist(tmp.path(), PersistConfig::default()).unwrap();
    assert_eq!(revived.requests_of(2), reference.requests_of(2));
    assert_eq!(revived.requests_of(3), reference.requests_of(3));
}

#[test]
fn injected_snapshot_failure_is_counted_not_fatal() {
    let _guard = lock();
    let tmp = TempDir::new("snapshot");
    let inst = small_instance();
    let mut engine = ServeEngine::new(&inst).unwrap();
    let config = PersistConfig { snapshot_every: 2, ..PersistConfig::default() };
    engine.attach_persist(tmp.path(), config).unwrap();
    fault::install(FaultPlan::new().io_error("persist.snapshot", 1));
    engine.apply_delta(2, DemandDelta::Set(1)).unwrap();
    engine.apply_delta(3, DemandDelta::Set(2)).unwrap(); // snapshot attempt: injected failure
    engine.apply_delta(2, DemandDelta::Set(3)).unwrap(); // retried snapshot succeeds
    fault::clear();
    let counters = engine.persist_counters().unwrap();
    assert_eq!(counters.snapshot_failures, 1, "the failure is tallied");
    assert_eq!(counters.snapshots_written, 1, "the next interval retries and succeeds");
    drop(engine);
    // Recovery is still exact: the WAL covered everything the failed
    // snapshot did not.
    let mut revived = ServeEngine::new(&inst).unwrap();
    revived.attach_persist(tmp.path(), config).unwrap();
    assert_eq!(revived.requests_of(2), Some(3));
    assert_eq!(revived.requests_of(3), Some(2));
}

#[test]
fn injected_recovery_failure_is_a_structured_refusal() {
    let _guard = lock();
    let tmp = TempDir::new("recover");
    let inst = small_instance();
    let mut engine = ServeEngine::new(&inst).unwrap();
    fault::install(FaultPlan::new().io_error("persist.recover", 1));
    let err = engine.attach_persist(tmp.path(), PersistConfig::default()).unwrap_err();
    fault::clear();
    assert_eq!(err.code(), "recovery", "{err}");
    // The engine was never attached; a retry (fault cleared) succeeds.
    engine.attach_persist(tmp.path(), PersistConfig::default()).unwrap();
    engine.apply_delta(2, DemandDelta::Set(7)).unwrap();
    engine.solve().unwrap();
}

#[test]
fn injected_apply_failure_rejects_without_mutating() {
    let _guard = lock();
    let inst = small_instance();
    let mut engine = ServeEngine::new(&inst).unwrap();
    engine.solve().unwrap();
    let before = engine.solution();
    fault::install(FaultPlan::new().io_error("serve.apply", 1));
    let err = engine.apply_delta(2, DemandDelta::Set(9)).unwrap_err();
    fault::clear();
    assert_eq!(err.code(), "persist", "{err}");
    assert_eq!(engine.requests_of(2), Some(4), "the delta did not land");
    assert_eq!(engine.stats().deltas_rejected, 1);
    // Warm state intact: re-solving changes nothing.
    engine.solve().unwrap();
    assert_eq!(engine.solution(), before);
}

#[test]
fn injected_sweep_delay_degrades_to_a_stale_answer() {
    let _guard = lock();
    let inst = small_instance();
    let mut engine = ServeEngine::new(&inst).unwrap();
    let good = engine.solve().unwrap();
    let reference = engine.solution();
    engine.set_solve_budget(Some(Duration::from_millis(25)));
    // The sweep's first deadline probe sleeps well past the budget.
    fault::install(FaultPlan::new().delay("solve.sweep", 1, 100));
    engine.apply_delta(2, DemandDelta::Add(1)).unwrap();
    let outcome = engine.solve().unwrap();
    fault::clear();
    assert!(outcome.stale, "a blown budget answers stale, it does not block or fail");
    assert_eq!(outcome.replicas, good.replicas);
    assert_eq!(engine.solution(), reference, "the stale answer is the last good solution");
    assert_eq!(engine.stats().stale_served, 1);
    // With the delay gone the next solve catches up.
    let caught_up = engine.solve().unwrap();
    assert!(!caught_up.stale);
    assert_eq!(engine.stats().stale_served, 1);
}
