//! The fungible stage dynamic program, used two ways by the stage engine:
//!
//! * **Lower bound** ([`sparse_pass`] in relaxed mode): over the full
//!   *scoped* stage demand (the affected-scope pool of `crate::stage`)
//!   with the scope's replicas contributing their whole capacity (the
//!   stage may re-route them), dropping the deadline constraints. Any
//!   routable placement of `r` new replicas induces a fungible flow of the
//!   same shape, so the smallest `r` with zero leftover is a true lower
//!   bound on the enumeration — subset sizes below it are pruned without
//!   routing a single candidate set, and the minimising placement seeds the
//!   enumeration's incumbent.
//! * **Fallback** ([`fallback_placement`], strict mode): for stages whose
//!   candidate space exceeds the enumeration cost model — the dynamic
//!   program over the (then fungible) stuck volume with existing
//!   assignments kept fixed. Because nothing is reassigned, a fallback
//!   stage can open more replicas than the optimum needs (see
//!   `crate::multiple_bin`).
//!
//! Both modes run one sparse convex pass (`super::chain_dp`) over the
//! **scope forest** the stage's scope collection in `stage/mod.rs` already
//! built (the union of the pool clients' service paths) — never the whole
//! subtree. The lower bound takes every node of it; the fallback takes only
//! the **stuck forest** (the stuck clients' paths to the stage root), which
//! the collection stamps into `stuck_mark` as it walks, and passes over the
//! rest of the scope forest in place. The restriction is exact: a free node
//! whose subtree holds no demand of the pass can never reduce pass-up
//! volume (its `m ≡ 0` already), and an off-forest existing replica is an
//! ancestor of no demanding client, so its spare is unusable under the
//! Multiple policy. Neither can be part of a minimum placement: handing
//! either a replica share would make the stage feasible with fewer,
//! contradicting `rmin`'s first-zero minimality. So the fallback returns
//! the same `rmin` and placement as a pass over the full scope forest.
//!
//! The pass is uncapped and total, so there is no replica budget to guess
//! and no widening schedule: one pass per call decides the optimum and its
//! tie-broken placement. Its state lives in the pooled segment store of
//! [`SolverScratch`], so a steady-state pass allocates nothing.

use crate::error::SolveError;
use crate::scratch::SolverScratch;
use crate::stage::PendingRequest;
use rp_tree::{NodeId, Requests};

/// Reassignment-free fallback for oversized stages: dynamic program over the
/// (then fungible) stuck volume, existing spare included, on the stuck
/// forest inside the stage's scope forest. Writes the chosen placement into
/// `scratch.best_set` and leaves the scope forest as the collection built
/// it, ready for the commit route.
///
/// # Errors
///
/// [`SolveError::StageDpExhausted`] when even a replica on every free node
/// of the stuck forest leaves stuck volume unserved — a modelling bug
/// (the sweep only creates feasible stages), surfaced as a structured
/// error instead of aborting a long solve.
pub(crate) fn fallback_placement(
    scratch: &mut SolverScratch,
    w: Requests,
    j: u32,
    stuck: &[PendingRequest],
) -> Result<(), SolveError> {
    {
        let s = &mut *scratch;
        s.dp_clients.clear();
        for t in stuck {
            if s.dp_demand[t.client as usize] == 0 {
                s.dp_clients.push(t.client);
            }
            s.dp_demand[t.client as usize] += t.w;
        }
    }
    let rmin = sparse_pass(scratch, w, j, true);
    let s = &mut *scratch;
    for &c in s.dp_clients.iter() {
        s.dp_demand[c as usize] = 0;
    }
    s.dp_clients.clear();
    match rmin {
        Some(_) => Ok(()),
        None => {
            let free = s.sdp.free_nodes(s.active_nodes.len() - 1);
            Err(SolveError::StageDpExhausted { node: NodeId(j), rmax: free as u64 })
        }
    }
}

/// One sparse pass over the scope forest (`active_nodes`, whose last node
/// is `j`), leaving the minimising placement in `best_set`. Relaxed mode
/// takes every scope node and reads the stage `demand` rows with existing
/// replicas at full capacity; strict mode takes the `stuck_mark`ed nodes
/// and `j`, and reads the stuck `dp_demand` rows with existing replicas at
/// their spare. Returns the minimum replica count, or `None` when even a
/// replica on every free node of the pass leaves volume unserved.
pub(crate) fn sparse_pass(
    scratch: &mut SolverScratch,
    cap: u64,
    j: u32,
    strict: bool,
) -> Option<usize> {
    let SolverScratch {
        arena,
        in_r,
        load,
        demand,
        dp_demand,
        best_set,
        active_nodes,
        active_pos,
        active_mark,
        stuck_mark,
        stage_id,
        sdp,
        stats,
        ..
    } = scratch;
    debug_assert_eq!(active_nodes.last(), Some(&j), "j closes the scope forest");
    let (mark, demand) =
        if strict { (&stuck_mark[..], &dp_demand[..]) } else { (&active_mark[..], &demand[..]) };
    super::chain_dp::sparse_dp(
        arena,
        in_r,
        load,
        demand,
        best_set,
        sdp,
        active_nodes,
        active_pos,
        mark,
        *stage_id,
        j,
        cap,
        !strict,
        &mut stats.dp_node_visits,
    )
}

/// Test-only window into the strict stage DP, so the integration proptests
/// in `crates/core/tests/` can pin the sparse pass against a dense
/// reference. Hidden: not part of the crate's API surface.
#[doc(hidden)]
pub mod testing {
    use super::*;
    use rp_tree::Tree;

    /// Result of one [`sparse_strict_dp`] / [`filtered_strict_dp`] run.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StrictDpRun {
        /// The stage root's full `m_j(r)` table (`free + 1` entries, where
        /// `free` counts the stuck forest's free nodes).
        pub m_root: Vec<u64>,
        /// Smallest `r` with `m_j(r) = 0`, if any reaches zero.
        pub rmin: Option<usize>,
        /// The chosen placement (raw node indices) when `rmin` exists.
        pub chosen: Vec<u32>,
        /// Size of the stuck forest the pass ran over (`j` included).
        pub active_len: usize,
        /// Size of the scope forest the stuck forest lies in.
        pub scope_len: usize,
    }

    /// Runs the strict stage DP exactly as the oversized-stage fallback
    /// drives it when the scope holds only the stuck clients: scope forest
    /// built from the demand rows, existing `replicas` (node, load)
    /// contributing their spare, one uncapped sparse pass.
    pub fn sparse_strict_dp(
        tree: &Tree,
        j: u32,
        cap: u64,
        replicas: &[(u32, u64)],
        demand: &[(u32, u64)],
    ) -> StrictDpRun {
        filtered_strict_dp(tree, j, cap, replicas, demand, &[])
    }

    /// Runs the strict stage DP on the stuck forest inside a larger scope
    /// forest. The stuck clients of `demand` head the pool
    /// and walk up to `j`; each `(client, deadline)` of `pool` (clients of
    /// `subtree(j)`) then walks up to its deadline or `j`, whichever comes
    /// first, as collected clients do in the scope collection. The stuck
    /// demand alone decides the pass, so the result must equal
    /// [`sparse_strict_dp`] on the same `demand`.
    pub fn filtered_strict_dp(
        tree: &Tree,
        j: u32,
        cap: u64,
        replicas: &[(u32, u64)],
        demand: &[(u32, u64)],
        pool: &[(u32, u32)],
    ) -> StrictDpRun {
        let injected: u128 = demand.iter().map(|&(_, w)| w as u128).sum();
        assert!(
            injected <= Tree::MAX_REQUESTS as u128,
            "harness demand must respect the tree-wide volume bound the u64 slabs rest on"
        );
        let mut scratch = SolverScratch::new();
        scratch.load_arena(tree);
        scratch.prepare_multiple_bin();
        scratch.prepare_deadlines(None);
        for &(u, l) in replicas {
            scratch.in_r[u as usize] = true;
            scratch.load[u as usize] = l;
        }
        for &(c, w) in demand {
            if scratch.dp_demand[c as usize] == 0 {
                scratch.dp_clients.push(c);
            }
            scratch.dp_demand[c as usize] += w;
            scratch.deadline[c as usize] = j;
        }
        let stuck_clients = scratch.dp_clients.len();
        scratch.demand_clients.clone_from(&scratch.dp_clients);
        for &(c, dl) in pool {
            assert!(scratch.arena.is_ancestor_or_self(j, c), "pool clients live in subtree(j)");
            if !scratch.demand_clients.contains(&c) {
                scratch.deadline[c as usize] = dl;
                scratch.demand_clients.push(c);
            }
        }
        scratch.stage_id = 1;
        super::super::build_scope_forest(&mut scratch, j, stuck_clients);
        let rmin = sparse_pass(&mut scratch, cap, j, true);
        let s = &scratch;
        let scope_len = s.active_nodes.len();
        let active_len = s
            .active_nodes
            .iter()
            .filter(|&&u| s.stuck_mark[u as usize] == s.stage_id || u == j)
            .count();
        StrictDpRun {
            m_root: super::super::chain_dp::root_table(&s.sdp, scope_len - 1),
            rmin,
            chosen: if rmin.is_some() { s.best_set.clone() } else { Vec::new() },
            active_len,
            scope_len,
        }
    }
}
