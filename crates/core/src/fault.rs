//! Deterministic fault injection: named fault points compiled to no-ops
//! unless the `fault-inject` feature is on.
//!
//! Production code threads [`point`] calls through its failure-prone
//! seams — persist writes (`"persist.append"`, `"persist.snapshot"`),
//! recovery loads (`"persist.recover"`), delta application
//! (`"serve.apply"`) and the solve sweep (`"solve.sweep"`). Without the
//! feature every call is an `#[inline(always)]` `Ok(())` with no global
//! state, so the hot paths pay nothing. With the feature, a process-global
//! `FaultPlan` arms nth-hit triggers per point: the nth time execution
//! reaches the point, it injects an I/O error (returned for the caller to
//! surface as a structured error) or a delay (to blow solve-deadline
//! budgets on demand). No call site isolates panics, so there is no panic
//! action: an unplanned panic rightly aborts.
//!
//! Hit counters live behind one mutex, so each trigger fires on exactly
//! its nth hit — the chaos gauntlet in `tests/fault_gauntlet.rs` relies
//! on that to prove every injected failure surfaces as a structured
//! `ServeError` or a stale response, never a poisoned engine. The plan is
//! global: tests that install one must serialize (the gauntlet shares a
//! lock).

use std::io;

#[cfg(feature = "fault-inject")]
pub use armed::{clear, install, FaultAction, FaultPlan};

/// Passes or injects the planned fault for the named point.
///
/// Feature off: always `Ok(())`, fully inlined. Feature on: consults the
/// installed `FaultPlan`; an armed nth-hit trigger fires exactly once —
/// `IoError` returns `Err`, `Delay` sleeps and passes.
///
/// # Errors
///
/// Only with `fault-inject` enabled and an `IoError` trigger armed for
/// this point's current hit count.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn point(_name: &str) -> io::Result<()> {
    Ok(())
}

/// Passes or injects the planned fault for the named point (armed build —
/// see the no-op twin above for the contract).
///
/// # Errors
///
/// An injected I/O error when an `IoError` trigger is armed for this
/// point's current hit count.
#[cfg(feature = "fault-inject")]
pub fn point(name: &str) -> io::Result<()> {
    armed::hit(name)
}

#[cfg(feature = "fault-inject")]
mod armed {
    use super::io;
    use std::sync::Mutex;
    use std::time::Duration;

    /// What an armed trigger does when its hit count comes up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultAction {
        /// `point` returns an injected `io::Error` (kind `Other`).
        IoError,
        /// `point` sleeps for the given milliseconds, then passes — used to
        /// blow solve-deadline budgets deterministically.
        Delay(u64),
    }

    #[derive(Debug)]
    struct Trigger {
        point: String,
        /// Fires when the point's hit counter reaches exactly this value
        /// (1-based: `nth == 1` fires on the first hit).
        nth: u64,
        action: FaultAction,
        hits: u64,
        fired: bool,
    }

    /// A deterministic set of nth-hit triggers, installed process-wide with
    /// [`install`]. Triggers are independent: several may arm the same
    /// point at different hit counts, and each fires at most once.
    #[derive(Debug, Default)]
    pub struct FaultPlan {
        triggers: Vec<Trigger>,
    }

    impl FaultPlan {
        /// An empty plan.
        pub fn new() -> FaultPlan {
            FaultPlan::default()
        }

        /// Arms an injected I/O error on the `nth` hit of `point`.
        #[must_use]
        pub fn io_error(self, point: &str, nth: u64) -> FaultPlan {
            self.arm(point, nth, FaultAction::IoError)
        }

        /// Arms a `ms`-millisecond delay on the `nth` hit of `point`.
        #[must_use]
        pub fn delay(self, point: &str, nth: u64, ms: u64) -> FaultPlan {
            self.arm(point, nth, FaultAction::Delay(ms))
        }

        fn arm(mut self, point: &str, nth: u64, action: FaultAction) -> FaultPlan {
            let point = point.to_string();
            self.triggers.push(Trigger { point, nth, action, hits: 0, fired: false });
            self
        }
    }

    static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

    /// Installs `plan` process-wide, replacing any previous plan (and its
    /// hit counters). Tests sharing the process must serialize around this.
    pub fn install(plan: FaultPlan) {
        *PLAN.lock().expect("fault plan lock") = Some(plan);
    }

    /// Removes the installed plan; every point passes again.
    pub fn clear() {
        *PLAN.lock().expect("fault plan lock") = None;
    }

    pub(super) fn hit(name: &str) -> io::Result<()> {
        // Decide under the lock, act outside it (a Delay must not hold the
        // lock).
        let action = {
            let mut guard = PLAN.lock().expect("fault plan lock");
            let Some(plan) = guard.as_mut() else { return Ok(()) };
            let mut fired = None;
            for t in plan.triggers.iter_mut().filter(|t| t.point == name) {
                t.hits += 1;
                if !t.fired && t.hits == t.nth {
                    t.fired = true;
                    fired = Some(t.action);
                }
            }
            fired
        };
        match action {
            None => Ok(()),
            Some(FaultAction::IoError) => {
                Err(io::Error::other(format!("injected fault at {name}")))
            }
            Some(FaultAction::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unarmed_points_always_pass() {
        // Holds in both configurations: feature-off is a no-op by
        // construction; feature-on never arms these names (the sibling
        // test uses the `t.*` namespace, so the two can run in parallel).
        for _ in 0..3 {
            assert!(super::point("persist.append").is_ok());
            assert!(super::point("nonexistent.point").is_ok());
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn nth_hit_triggers_fire_exactly_once() {
        // Note: fault-inject tests share the global plan; this in-crate
        // test and the integration gauntlet run in different processes, so
        // only the gauntlet needs its internal lock.
        super::install(super::FaultPlan::new().io_error("t.point", 2));
        assert!(super::point("t.point").is_ok(), "first hit passes");
        assert!(super::point("t.point").is_err(), "second hit injects");
        assert!(super::point("t.point").is_ok(), "triggers fire once");
        assert!(super::point("t.other").is_ok(), "other points unaffected");
        super::clear();
        assert!(super::point("t.point").is_ok());
    }
}
