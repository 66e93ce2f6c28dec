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
//! The backtrack walks only the frames that receive replicas. A frame with
//! `r = 0` opens nothing (a free node places only at `r₀ ≥ 1`) and every
//! split of zero hands each child zero, so no node below it is placed:
//! such a frame is never pushed, and a frame whose own replica uses up its
//! share stops there without recomputing its convolution layers. The
//! walk's cost follows the paths to the chosen nodes, not the forest.
//!
//! **Storage.** One segment store holds every vector of a pass: the
//! per-node vectors at their scope-forest positions, then, during the
//! backtrack, one frame's convolution layers, truncated away after the
//! frame. One merge routine builds the forward convolutions and the
//! backtrack's layers alike. A pass runs over the stage's scope forest
//! and takes only the nodes that pass a mark test; a node it skips keeps an
//! empty placeholder, so positions stay those of the scope forest.
//!
//! The pass is total: a node's segment count is bounded by its strict-step
//! count, which never exceeds the dense vector's length, so the sparse
//! form is never asymptotically worse than a dense table.

use rp_tree::Requests;

/// One convex vector: `m(r) = v0 − Σ` of the first `min(r, strict)` steps,
/// for `r` in `0..len`, where the steps are `cnt[i]` copies of `step[i]`
/// (steps strictly decreasing, all positive) and `strict = Σ cnt[i]`.
/// A borrowed view into the segment store of [`SparseDp`].
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

/// The segment store: one convex vector per index, its `v0`, its length
/// and its segment range `off[p]..off[p + 1]` into the flattened
/// `cnt` / `step` rows. The per-node vectors of a pass take the first
/// `order.len()` indices; the backtrack appends a node's convolution layers
/// after them and truncates them away again.
#[derive(Debug, Default)]
struct Reps {
    v0: Vec<u64>,
    len: Vec<u32>,
    off: Vec<u32>,
    cnt: Vec<u32>,
    step: Vec<u64>,
}

impl Reps {
    fn clear(&mut self, vectors: usize) {
        self.v0.clear();
        self.len.clear();
        self.off.clear();
        self.cnt.clear();
        self.step.clear();
        self.v0.reserve(vectors);
        self.len.reserve(vectors);
        self.off.reserve(vectors + 1);
        self.off.push(0);
    }

    fn push(&mut self, v0: u64, len: usize, cnt: &[u32], step: &[u64]) {
        self.v0.push(v0);
        self.len.push(len as u32);
        self.cnt.extend_from_slice(cnt);
        self.step.extend_from_slice(step);
        self.off.push(self.cnt.len() as u32);
    }

    /// Keeps the first `vectors` vectors.
    fn truncate(&mut self, vectors: usize) {
        self.v0.truncate(vectors);
        self.len.truncate(vectors);
        self.off.truncate(vectors + 1);
        let segs = self.off[vectors] as usize;
        self.cnt.truncate(segs);
        self.step.truncate(segs);
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

    fn shrink_to_fit(&mut self) {
        self.v0.shrink_to_fit();
        self.len.shrink_to_fit();
        self.off.shrink_to_fit();
        self.cnt.shrink_to_fit();
        self.step.shrink_to_fit();
    }
}

/// Pooled storage for the sparse pass: the segment store plus the working
/// vector of one convolution and the backtracking walk's buffers. All
/// capacity survives across stages, so steady-state passes allocate
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct SparseDp {
    /// Per-node vectors, then the backtrack's convolution layers.
    reps: Reps,
    /// Working vector under construction: `v0`, length and segments.
    wv0: u64,
    wlen: usize,
    wcnt: Vec<u32>,
    wstep: Vec<u64>,
    /// Merge target of one convolution (swapped with `wcnt`/`wstep`).
    tcnt: Vec<u32>,
    tstep: Vec<u64>,
    /// Backtrack: participating children of the node being unwound.
    kids: Vec<u32>,
    /// Backtrack stack of `(node, replicas)` frames.
    stack: Vec<(u32, usize)>,
}

impl SparseDp {
    /// Release slab capacity (see `SolverScratch::shrink_to_fit_slabs`).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.reps.shrink_to_fit();
    }

    /// Free nodes under the vector at `p` (its length minus one).
    pub(crate) fn free_nodes(&self, p: usize) -> usize {
        self.reps.len[p] as usize - 1
    }

    /// Resets the working vector to the `[own]` singleton.
    fn start(&mut self, own: u64) {
        self.wv0 = own;
        self.wlen = 1;
        self.wcnt.clear();
        self.wstep.clear();
    }

    /// Min-plus convolves the working vector with stored vector `p`: the
    /// values at `r = 0` add, the free slots add, and the two step lists
    /// meet in one sorted merge that coalesces equal steps.
    fn merge_steps(&mut self, p: usize) {
        let other = self.reps.rep(p);
        self.wv0 += other.v0;
        self.wlen += other.len - 1;
        self.tcnt.clear();
        self.tstep.clear();
        let (mut i, mut k) = (0usize, 0usize);
        while i < self.wcnt.len() || k < other.cnt.len() {
            let (c, s) = if k >= other.cnt.len()
                || (i < self.wcnt.len() && self.wstep[i] >= other.step[k])
            {
                i += 1;
                (self.wcnt[i - 1], self.wstep[i - 1])
            } else {
                k += 1;
                (other.cnt[k - 1], other.step[k - 1])
            };
            if self.tstep.last() == Some(&s) {
                *self.tcnt.last_mut().expect("paired with tstep") += c;
            } else {
                self.tcnt.push(c);
                self.tstep.push(s);
            }
        }
        std::mem::swap(&mut self.wcnt, &mut self.tcnt);
        std::mem::swap(&mut self.wstep, &mut self.tstep);
    }

    /// Appends the working vector to the store.
    fn push_working(&mut self) {
        self.reps.push(self.wv0, self.wlen, &self.wcnt, &self.wstep);
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
/// (`rmax` = free nodes of the forest) over the nodes of `order` that pass
/// the forest test `mark[u] == stamp || u == j`. `order` is a post-order
/// forest rooted at its last node `j`, and `pos` maps each of its nodes to
/// its index; a node that fails the test keeps an empty placeholder slot
/// that no one reads, because children face the same test. Returns the
/// minimum replica count with its placement in `best_set`, or `None` when
/// even a replica on every free node leaves volume unserved.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sparse_dp(
    arena: &rp_tree::arena::TreeArena,
    in_r: &[bool],
    load: &[Requests],
    demand: &[u64],
    best_set: &mut Vec<u32>,
    sp: &mut SparseDp,
    order: &[u32],
    pos: &[u32],
    mark: &[u32],
    stamp: u32,
    j: u32,
    cap: u64,
    full_cap_existing: bool,
    node_visits: &mut u64,
) -> Option<usize> {
    let in_pass = |u: u32| mark[u as usize] == stamp || u == j;
    sp.reps.clear(order.len());
    for &v in order {
        if !in_pass(v) {
            sp.reps.push(0, 0, &[], &[]);
            continue;
        }
        *node_visits += 1;
        let vi = v as usize;

        // --- min-plus convolution over the participating children ---
        // The working rep starts as the `[own]` singleton; each child
        // merges its step segments in (sorted merge = convex min-plus).
        sp.start(demand[vi]);
        for &c in arena.children(v) {
            if in_pass(c) {
                sp.merge_steps(pos[c as usize] as usize);
            }
        }

        // --- apply the node itself, then re-clamp the tail at zero ---
        if in_r[vi] {
            // Existing replica: spare in strict mode, full capacity in the
            // re-routing relaxation; subtract with a clamp at zero.
            let spare = if full_cap_existing { cap } else { cap - load[vi] };
            sp.wv0 = sp.wv0.saturating_sub(spare);
        } else {
            // Free node: one new slot whose step is the largest the vector
            // can hold.
            let s = cap.min(sp.wv0);
            sp.wlen += 1;
            if s > 0 {
                debug_assert!(sp.wstep.first().is_none_or(|&f| f <= s));
                if sp.wstep.first() == Some(&s) {
                    sp.wcnt[0] += 1;
                } else {
                    sp.wcnt.insert(0, 1);
                    sp.wstep.insert(0, s);
                }
            }
        }
        clamp_total(&mut sp.wcnt, &mut sp.wstep, sp.wv0);
        sp.push_working();
    }

    let nodes = order.len();
    let root = sp.reps.rep(nodes - 1);
    let rmin = root.strict();
    if root.value_at(rmin) != 0 {
        return None;
    }

    // --- backtrack: replay the dense tie-breaks in closed form, pushing
    // only frames with a positive share (see the module docs) ---
    best_set.clear();
    sp.stack.clear();
    sp.stack.push((j, rmin));
    while let Some((v, r)) = sp.stack.pop() {
        // The dense monotonicity redirect: first cell of the flat run.
        let r0 = r.min(sp.reps.rep(pos[v as usize] as usize).strict());
        let placed = !in_r[v as usize] && r0 >= 1;
        if placed {
            best_set.push(v);
        }
        let mut rest = r0 - usize::from(placed);
        if rest == 0 {
            // Every split of zero gives each child zero: nothing below
            // `v` is placed, so its layers need no recomputation.
            continue;
        }
        sp.kids.clear();
        sp.kids.extend(arena.children(v).iter().copied().filter(|&c| in_pass(c)));
        debug_assert!(!sp.kids.is_empty(), "a leaf's replicas are its own");
        // Recompute the convolution layers (L₀ = [own], Lₖ₊₁ = Lₖ ⊗ m_c)
        // into the store after the node vectors, so the reverse walk
        // below can query them.
        sp.start(demand[v as usize]);
        sp.push_working();
        for ki in 0..sp.kids.len() - 1 {
            sp.merge_steps(pos[sp.kids[ki] as usize] as usize);
            sp.push_working();
        }
        for ki in (0..sp.kids.len()).rev() {
            let c = sp.kids[ki];
            let layer = sp.reps.rep(nodes + ki);
            let child = sp.reps.rep(pos[c as usize] as usize);
            let rp = argmin_min_rp(&layer, &child, rest);
            if rest > rp {
                sp.stack.push((c, rest - rp));
            }
            rest = rp;
        }
        debug_assert_eq!(rest, 0);
        sp.reps.truncate(nodes);
    }
    Some(rmin)
}

/// Test-support: the dense table of the node at order position `p`,
/// reconstructed entry by entry from its segment rep (the shape
/// `proptest_stage_dp` compares against its dense reference DP).
#[doc(hidden)]
pub(crate) fn root_table(sp: &SparseDp, p: usize) -> Vec<u64> {
    let rep = sp.reps.rep(p);
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
