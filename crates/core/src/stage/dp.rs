//! The fungible stage dynamic program, used two ways by the stage engine:
//!
//! * **Lower bound** ([`lower_bound`], relaxed mode): over the full
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
//! Both modes run one sparse convex pass (`super::chain_dp`) over a forest
//! the stage's scope collection in `stage/mod.rs` already built — never
//! the whole subtree. The lower bound runs over the **scope forest** (the
//! union of the pool clients' service paths); the fallback runs over the
//! **stuck forest** (the stuck clients' paths to the stage root), which
//! the collection marks as it walks and the fallback filters out of the
//! scope forest. The restriction is exact: a free node whose subtree holds
//! no demand of the pass can never reduce pass-up volume (its `m ≡ 0`
//! already), and an off-forest existing replica is an ancestor of no
//! demanding client, so its spare is unusable under the Multiple policy.
//!
//! The pass is uncapped and total, so there is no replica budget to guess
//! and no widening schedule: one pass per call decides the optimum and its
//! tie-broken placement. Its state lives in the pooled segment slabs of
//! [`SolverScratch`], so a steady-state pass allocates nothing.

use crate::error::SolveError;
use crate::scratch::SolverScratch;
use crate::stage::PendingRequest;
use rp_tree::{NodeId, Requests};

/// Runs the relaxed dynamic program as a lower bound on the enumeration:
/// the smallest `r ≤ rmax` for which the full stage demand fits `r` new
/// replicas plus the existing ones at full capacity, ignoring deadlines.
/// Runs over the stage's active forest — the enumeration only ever places
/// on active nodes, so the bound stays valid (and tighter). The minimising
/// placement is left in `scratch.best_set` (a seed for the incumbent).
/// `None` when every `r ≤ rmax` leaves volume unserved.
pub(crate) fn lower_bound(
    scratch: &mut SolverScratch,
    cap: u64,
    j: u32,
    rmax: usize,
) -> Option<usize> {
    sparse_pass(scratch, cap, j, false, rmax).ok()
}

/// Reassignment-free fallback for oversized stages: dynamic program over the
/// (then fungible) stuck volume, existing spare included, on the stuck
/// forest filtered out of the stage's scope forest (see [`strict_pass`]).
/// Writes the chosen placement into `scratch.best_set` and leaves the
/// scope forest as the collection built it, ready for the commit route.
///
/// # Errors
///
/// [`SolveError::StageDpExhausted`] when even a replica on every free node
/// of the active forest leaves stuck volume unserved — a modelling bug
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
    let (rmin, free_active) = strict_pass(scratch, w, j);
    let s = &mut *scratch;
    for &c in s.dp_clients.iter() {
        s.dp_demand[c as usize] = 0;
    }
    s.dp_clients.clear();
    match rmin {
        Some(_) => Ok(()),
        None => Err(SolveError::StageDpExhausted { node: NodeId(j), rmax: free_active as u64 }),
    }
}

/// Filters the stuck forest out of the scope forest and runs the strict
/// pass over it: demand is the `dp_demand` rows of `dp_clients`, existing
/// replicas contribute only their spare. Returns the minimum replica count
/// (placement in `best_set`), if any, and the forest's free-node count —
/// the pass is uncapped, since no `r` beyond that count can help.
///
/// The forest is narrowed to the *stuck* clients' paths: a free node off
/// every stuck path has `m ≡ 0` and an off-path existing replica's spare
/// absorbs no stuck volume, so neither can be part of a minimum placement
/// (handing either a replica share would make the stage feasible with
/// fewer — contradicting `rmin`'s first-zero minimality). The pass
/// therefore returns the same `rmin` and placement as over the stage's
/// full scope forest.
///
/// The scope collection stamped the stuck paths into `stuck_mark` while
/// walking them, and `active_nodes` is already in post order, so one
/// in-order filter yields the stuck forest in post order — the node
/// sequence a fresh walk-and-sort would build. It lands in the
/// fallback's own `dp_nodes` / `dp_pos` rows, leaving the scope forest
/// (`active_nodes`, `active_pos`, `active_mark`) in place for the commit
/// route.
fn strict_pass(scratch: &mut SolverScratch, cap: u64, j: u32) -> (Option<usize>, usize) {
    let SolverScratch { in_r, active_nodes, stuck_mark, stage_id, dp_nodes, dp_pos, .. } =
        &mut *scratch;
    let stamp = *stage_id;
    dp_nodes.clear();
    let mut free_active = 0;
    // `j` closes the scope forest and roots the stuck one.
    debug_assert_eq!(active_nodes.last(), Some(&j));
    for &u in active_nodes.iter() {
        if stuck_mark[u as usize] == stamp || u == j {
            dp_pos[u as usize] = dp_nodes.len() as u32;
            dp_nodes.push(u);
            free_active += usize::from(!in_r[u as usize]);
        }
    }
    (sparse_pass(scratch, cap, j, true, free_active).ok(), free_active)
}

/// One sparse pass. Relaxed mode runs over the scope forest and reads the
/// stage `demand` rows with existing replicas at full capacity; strict
/// mode runs over the stuck forest (`dp_nodes`) and reads the stuck
/// `dp_demand` rows with existing replicas at their spare.
fn sparse_pass(
    scratch: &mut SolverScratch,
    cap: u64,
    j: u32,
    strict: bool,
    r_budget: usize,
) -> Result<usize, u64> {
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
        dp_nodes,
        dp_pos,
        stage_id,
        sdp,
        stats,
        ..
    } = scratch;
    let stamp = *stage_id;
    let (order, pos, mark, demand) = if strict {
        (&dp_nodes[..], &dp_pos[..], &stuck_mark[..], &dp_demand[..])
    } else {
        (&active_nodes[..], &active_pos[..], &active_mark[..], &demand[..])
    };
    super::chain_dp::sparse_dp(
        arena,
        in_r,
        load,
        demand,
        best_set,
        sdp,
        order,
        j,
        cap,
        !strict,
        r_budget,
        &mut stats.dp_node_visits,
        &|v| pos[v as usize] as usize,
        &|c| mark[c as usize] == stamp,
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
        /// Size of the stuck forest the pass ran over.
        pub active_len: usize,
        /// Size of the scope forest it was filtered out of.
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

    /// Runs the strict stage DP on the stuck forest filtered out of a
    /// larger scope forest. The stuck clients of `demand` head the pool
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
        let (rmin, _) = strict_pass(&mut scratch, cap, j);
        let active_len = scratch.dp_nodes.len();
        StrictDpRun {
            m_root: super::super::chain_dp::root_table(&scratch.sdp, active_len - 1),
            rmin,
            chosen: if rmin.is_some() { scratch.best_set.clone() } else { Vec::new() },
            active_len,
            scope_len: scratch.active_nodes.len(),
        }
    }
}
