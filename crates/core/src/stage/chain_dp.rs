//! The stage dynamic program as a sparse convex pass.
//!
//! Every per-node vector `m_v(r)` of the stage DP ([`super::dp`]) — the
//! table a dense min-plus pass over the active forest would build — is
//! **convex, non-increasing, and drops by at most `W` per step**:
//!
//! * a client singleton `[own]` has no steps;
//! * a free-node apply shifts the vector by one slot and subtracts `W`,
//!   creating exactly one new step `min(W, m(0))` — the largest step the
//!   vector can hold, so convexity is preserved;
//! * an existing replica subtracts its spare with a clamp at zero, which
//!   only shortens the step tail (one partial crossing step, zeros after);
//! * min-plus convolution of two convex sequences is the sorted merge of
//!   their step multisets (the classic convex-conjugacy fact), again convex
//!   with the same step bound.
//!
//! A vector is therefore fully described by its value at `r = 0`, its
//! length, and a handful of `(count, step)` segments with strictly
//! decreasing steps — on a maximal chain or a caterpillar (the spine
//! families, and most near-chain stage forests of the huge tier) the
//! segment count stays O(1) because every free node contributes the *same*
//! step `W`, which merges into one segment, while clamp residuals are cut
//! away as soon as the value floors at zero. The whole pass is then
//! O(|active| · segments) instead of the dense O(|active| · rmax), with a
//! per-node slab of a few words instead of `rmax` cells.
//!
//! **Exactness.** The sparse pass reproduces the dense table *bit for bit*
//! (pinned by `proptest_stage_dp`): values by the convex-merge argument
//! above, and the chosen placement by replaying the dense tie-breaks in
//! closed form —
//!
//! * the dense monotonicity fix-up redirects a queried `r` to the first
//!   cell of its flat run; convexity makes flat runs a pure tail, so the
//!   redirect is `r₀ = min(r, strict)` where `strict` is the number of
//!   positive steps;
//! * a free node records "placed" at every `r ≥ 1` (its `place ≤ keep`
//!   test always passes — the step bound `≤ W` is exactly that
//!   inequality), so after the redirect a replica is opened iff `r₀ ≥ 1`;
//! * the dense convolution scans `rp` ascending and updates on strict
//!   improvement, so the recorded split gives the child the *largest*
//!   optimal share. In segment form the split objective
//!   `G(rp) = base(rp) + child(r − rp)` is convex, and the dense answer is
//!   the first `rp` where `ΔG(rp) ≥ 0` — found by binary search over the
//!   two step sequences.
//!
//! The pass is total: a node's segment count is bounded by its strict-step
//! count, which never exceeds the dense vector's length, so the sparse
//! form is never asymptotically worse than a dense table.

use rp_tree::Requests;

/// One convex vector: `m(r) = v0 − Σ` of the first `min(r, strict)` steps,
/// for `r` in `0..len`, where the steps are `cnt[i]` copies of `step[i]`
/// (steps strictly decreasing, all positive) and `strict = Σ cnt[i]`.
/// Borrowed views into the pooled slabs of [`SparseDp`].
#[derive(Clone, Copy)]
struct Rep<'a> {
    v0: u64,
    len: usize,
    cnt: &'a [u32],
    step: &'a [u64],
}

impl Rep<'_> {
    /// Number of strictly decreasing entries (`m(strict)` is the floor).
    fn strict(&self) -> usize {
        self.cnt.iter().map(|&c| c as usize).sum()
    }

    /// The decrement `m(i) − m(i+1)` (zero beyond the strict prefix).
    fn step_at(&self, i: usize) -> u64 {
        let mut at = i;
        for (&c, &s) in self.cnt.iter().zip(self.step) {
            if at < c as usize {
                return s;
            }
            at -= c as usize;
        }
        0
    }

    /// `m(r)` (the vector is flat at its floor beyond the strict prefix).
    fn value_at(&self, r: usize) -> u64 {
        let mut left = r;
        let mut v = self.v0;
        for (&c, &s) in self.cnt.iter().zip(self.step) {
            let take = left.min(c as usize);
            v -= take as u64 * s;
            left -= take;
            if left == 0 {
                break;
            }
        }
        v
    }
}

/// Pooled storage for the sparse pass: per-position reps plus the working
/// buffers of one convolution and of the backtracking walk. All capacity
/// survives across stages, so steady-state passes allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct SparseDp {
    /// Per-position `v0` (value at `r = 0`).
    v0: Vec<u64>,
    /// Per-position vector length (`min(free in part, …) + 1`).
    len: Vec<u32>,
    /// Per-position segment range into `cnt`/`step` (`off[p]..off[p+1]`).
    off: Vec<u32>,
    /// Flattened segment counts.
    cnt: Vec<u32>,
    /// Flattened segment steps (strictly decreasing within a node).
    step: Vec<u64>,
    /// Working rep of the node under construction.
    wcnt: Vec<u32>,
    wstep: Vec<u64>,
    /// Merge target of one convolution (swapped with `wcnt`/`wstep`).
    tcnt: Vec<u32>,
    tstep: Vec<u64>,
    /// Backtrack: per-layer reps of the node being unwound.
    lv0: Vec<u64>,
    llen: Vec<u32>,
    loff: Vec<u32>,
    lcnt: Vec<u32>,
    lstep: Vec<u64>,
    /// Backtrack: participating children of the node being unwound.
    kids: Vec<u32>,
    /// Backtrack stack of `(node, replicas)` frames.
    stack: Vec<(u32, usize)>,
}

impl SparseDp {
    fn reset(&mut self, nodes: usize) {
        self.v0.clear();
        self.len.clear();
        self.off.clear();
        self.cnt.clear();
        self.step.clear();
        self.v0.reserve(nodes);
        self.len.reserve(nodes);
        self.off.reserve(nodes + 1);
        self.off.push(0);
    }

    fn rep(&self, p: usize) -> Rep<'_> {
        let (a, b) = (self.off[p] as usize, self.off[p + 1] as usize);
        Rep {
            v0: self.v0[p],
            len: self.len[p] as usize,
            cnt: &self.cnt[a..b],
            step: &self.step[a..b],
        }
    }

    /// Release slab capacity (see `SolverScratch::shrink_to_fit_slabs`).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.v0.shrink_to_fit();
        self.len.shrink_to_fit();
        self.off.shrink_to_fit();
        self.cnt.shrink_to_fit();
        self.step.shrink_to_fit();
        self.lcnt.shrink_to_fit();
        self.lstep.shrink_to_fit();
    }
}

/// Truncates the working segments so their total drop is at most `budget`
/// (the value clamp at zero): the crossing segment keeps its full steps
/// that fit plus one partial remainder step, everything beyond is dropped.
fn clamp_total(cnt: &mut Vec<u32>, step: &mut Vec<u64>, budget: u64) {
    let mut left = budget;
    for i in 0..cnt.len() {
        let seg = cnt[i] as u64 * step[i];
        if seg <= left {
            left -= seg;
            continue;
        }
        let fit = (left / step[i]) as u32;
        let rem = left - fit as u64 * step[i];
        cnt.truncate(i + 1);
        step.truncate(i + 1);
        cnt[i] = fit;
        if rem > 0 {
            cnt.push(1);
            step.push(rem);
        }
        if cnt[i] == 0 {
            cnt.remove(i);
            step.remove(i);
        }
        return;
    }
}

/// The sparse stage DP: identical outputs to one *uncapped* dense pass
/// (`rmax` = free nodes of the forest). Returns `Ok(rmin)` with the
/// placement in `best_set` (computed only when `rmin ≤ r_budget`, mirroring
/// a dense pass capped at `r_budget` that leaves `best_set` untouched on
/// failure), or `Err(leftover)` with `m_j(r_budget)` — the flat tail value
/// when even a replica on every free node leaves volume unserved.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sparse_dp(
    arena: &rp_tree::arena::TreeArena,
    in_r: &[bool],
    load: &[Requests],
    demand: &[u64],
    best_set: &mut Vec<u32>,
    sp: &mut SparseDp,
    order: &[u32],
    j: u32,
    cap: u64,
    full_cap_existing: bool,
    r_budget: usize,
    node_visits: &mut u64,
    pos: &impl Fn(u32) -> usize,
    child_ok: &impl Fn(u32) -> bool,
) -> Result<usize, u64> {
    sp.reset(order.len());
    for &v in order {
        *node_visits += 1;
        let vi = v as usize;
        let own = demand[vi];

        // --- min-plus convolution over the participating children ---
        // The working rep starts as the `[own]` singleton; each child
        // merges its step segments in (sorted merge = convex min-plus).
        let mut wv0 = own;
        let mut wlen = 1usize;
        sp.wcnt.clear();
        sp.wstep.clear();
        for &c in arena.children(v) {
            if !child_ok(c) {
                continue;
            }
            let cp = pos(c);
            let (a, b) = (sp.off[cp] as usize, sp.off[cp + 1] as usize);
            wv0 += sp.v0[cp];
            wlen += sp.len[cp] as usize - 1;
            // Sorted merge of the two step lists, coalescing equal steps.
            sp.tcnt.clear();
            sp.tstep.clear();
            let (mut i, mut k) = (0usize, a);
            while i < sp.wcnt.len() || k < b {
                let (c2, s2) = if k >= b || (i < sp.wcnt.len() && sp.wstep[i] >= sp.step[k]) {
                    let pair = (sp.wcnt[i], sp.wstep[i]);
                    i += 1;
                    pair
                } else {
                    let pair = (sp.cnt[k], sp.step[k]);
                    k += 1;
                    pair
                };
                if let (Some(lc), Some(&ls)) = (sp.tcnt.last_mut(), sp.tstep.last()) {
                    if ls == s2 {
                        *lc += c2;
                        continue;
                    }
                }
                sp.tcnt.push(c2);
                sp.tstep.push(s2);
            }
            std::mem::swap(&mut sp.wcnt, &mut sp.tcnt);
            std::mem::swap(&mut sp.wstep, &mut sp.tstep);
        }

        // --- apply the node itself ---
        if in_r[vi] {
            // Existing replica: spare in strict mode, full capacity in the
            // re-routing relaxation; subtract with a clamp at zero.
            let spare = if full_cap_existing { cap } else { cap - load[vi] };
            wv0 = wv0.saturating_sub(spare);
            clamp_total(&mut sp.wcnt, &mut sp.wstep, wv0);
        } else {
            // Free node: one new slot whose step is the largest the vector
            // can hold, then re-clamp the tail at zero.
            let s = cap.min(wv0);
            wlen += 1;
            if s > 0 {
                debug_assert!(sp.wstep.first().is_none_or(|&f| f <= s));
                if sp.wstep.first() == Some(&s) {
                    sp.wcnt[0] += 1;
                } else {
                    sp.wcnt.insert(0, 1);
                    sp.wstep.insert(0, s);
                }
            }
            clamp_total(&mut sp.wcnt, &mut sp.wstep, wv0);
        }

        sp.v0.push(wv0);
        sp.len.push(wlen as u32);
        sp.cnt.extend_from_slice(&sp.wcnt);
        sp.step.extend_from_slice(&sp.wstep);
        sp.off.push(sp.cnt.len() as u32);
    }

    let root = sp.rep(order.len() - 1);
    let strict = root.strict();
    let floor = root.value_at(strict);
    if floor != 0 {
        return Err(floor);
    }
    let rmin = strict;
    if rmin > r_budget {
        // A dense pass capped at `r_budget` would report the leftover at
        // its horizon and leave `best_set` untouched.
        return Err(root.value_at(r_budget));
    }

    // --- backtrack: replay the dense tie-breaks in closed form ---
    best_set.clear();
    sp.stack.clear();
    sp.stack.push((j, rmin));
    while let Some((v, r)) = sp.stack.pop() {
        let p = pos(v);
        let rep = sp.rep(p);
        // The dense monotonicity redirect: first cell of the flat run.
        let r0 = r.min(rep.strict());
        let placed = !in_r[v as usize] && r0 >= 1;
        if placed {
            best_set.push(v);
        }
        let mut rest = r0 - usize::from(placed);
        sp.kids.clear();
        sp.kids.extend(arena.children(v).iter().copied().filter(|&c| child_ok(c)));
        if sp.kids.is_empty() {
            debug_assert_eq!(rest, 0);
            continue;
        }
        // Recompute the convolution layers (L₀ = [own], Lₖ₊₁ = Lₖ ⊗ m_c),
        // storing each rep so the reverse walk below can query them.
        sp.lv0.clear();
        sp.llen.clear();
        sp.loff.clear();
        sp.lcnt.clear();
        sp.lstep.clear();
        sp.loff.push(0);
        sp.lv0.push(demand[v as usize]);
        sp.llen.push(1);
        sp.loff.push(0);
        for ki in 0..sp.kids.len() - 1 {
            let cp = pos(sp.kids[ki]);
            let (a, b) = (sp.off[cp] as usize, sp.off[cp + 1] as usize);
            let prev = sp.loff[sp.loff.len() - 2] as usize;
            let prev_end = sp.loff[sp.loff.len() - 1] as usize;
            sp.lv0.push(sp.lv0[ki] + sp.v0[cp]);
            sp.llen.push(sp.llen[ki] + sp.len[cp] - 1);
            let (mut i, mut k) = (prev, a);
            let start = sp.lcnt.len();
            while i < prev_end || k < b {
                let (c2, s2) = if k >= b || (i < prev_end && sp.lstep[i] >= sp.step[k]) {
                    let pair = (sp.lcnt[i], sp.lstep[i]);
                    i += 1;
                    pair
                } else {
                    let pair = (sp.cnt[k], sp.step[k]);
                    k += 1;
                    pair
                };
                if sp.lcnt.len() > start && sp.lstep[sp.lstep.len() - 1] == s2 {
                    let at = sp.lcnt.len() - 1;
                    sp.lcnt[at] += c2;
                } else {
                    sp.lcnt.push(c2);
                    sp.lstep.push(s2);
                }
            }
            sp.loff.push(sp.lcnt.len() as u32);
        }
        for ki in (0..sp.kids.len()).rev() {
            let c = sp.kids[ki];
            let cp = pos(c);
            let child = sp.rep(cp);
            let (a, b) = (sp.loff[ki] as usize, sp.loff[ki + 1] as usize);
            let layer = Rep {
                v0: sp.lv0[ki],
                len: sp.llen[ki] as usize,
                cnt: &sp.lcnt[a..b],
                step: &sp.lstep[a..b],
            };
            let rp = argmin_min_rp(&layer, &child, rest);
            sp.stack.push((c, rest - rp));
            rest = rp;
        }
        debug_assert_eq!(rest, 0);
    }
    Ok(rmin)
}

/// Test-support: the dense table of the node at order position `p`,
/// reconstructed entry by entry from its segment rep (the shape
/// `proptest_stage_dp` compares against its dense reference DP).
#[doc(hidden)]
pub(crate) fn root_table(sp: &SparseDp, p: usize) -> Vec<u64> {
    let rep = sp.rep(p);
    (0..rep.len).map(|r| rep.value_at(r)).collect()
}

/// The split the dense convolution records at cell `r` of `base ⊗ child`:
/// the smallest `rp` minimising `base(rp) + child(r − rp)` (the dense scan
/// runs `rp` ascending and updates on strict improvement, so ties keep the
/// largest child share). `G(rp)` is convex, so the answer is the first
/// `rp` with `ΔG(rp) = child.step(r−1−rp) − base.step(rp) ≥ 0` — the
/// predicate is monotone in `rp` (child steps re-read at *earlier* indices
/// only grow, base steps at later indices only shrink), hence the binary
/// search.
fn argmin_min_rp(base: &Rep<'_>, child: &Rep<'_>, r: usize) -> usize {
    if r == 0 {
        return 0;
    }
    let lo = r.saturating_sub(child.len - 1);
    let hi = r.min(base.len - 1);
    debug_assert!(lo <= hi);
    let (mut l, mut h) = (lo, hi);
    while l < h {
        let mid = l + (h - l) / 2;
        if child.step_at(r - 1 - mid) >= base.step_at(mid) {
            h = mid;
        } else {
            l = mid + 1;
        }
    }
    l
}
