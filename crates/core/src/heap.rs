//! The mergeable pending heap shared by the `multiple-bin` sweep and the
//! stage router.
//!
//! Both are bottom-up passes that hold a set of pending clients per node,
//! merge the children's sets at every node and take entries off in one
//! fixed priority order:
//!
//! * the sweep (Algorithm 3's `req(j)`) hands out the most
//!   distance-constrained requests first: the largest distance `d` to `j`
//!   (see [`mod@crate::multiple_bin`]);
//! * the router serves the nearest deadline first: the deepest deadline
//!   (see `crate::stage::router`).
//!
//! In both passes the priority is a **static per-client key**. The distance
//! to `j` is `root_dist(c) − root_dist(j)`, so at any one node, ordering by
//! `d` is ordering by the client's root distance. A deadline depth never
//! changes during a routing sweep. So each per-node set is a max-heap of
//! keys that never need rewriting, and merging is **small-to-large**: the
//! largest child heap becomes the parent's heap by swap and the others are
//! pushed into it. Each entry is pushed O(log n) times over a whole pass,
//! and nothing is ever re-sorted; a chain costs O(n log n), not Θ(n²).
//!
//! [`HeapForest`] holds one heap per node of the loaded arena.

use std::collections::BinaryHeap;

/// Largest capacity (in entries) an emptied heap may keep in
/// [`HeapForest`]'s spare list.
const SPARE_CAP: usize = 32;

/// Most emptied heaps [`HeapForest`]'s spare list holds.
const SPARE_MAX: usize = 256;

/// One max-heap per tree node, merged small-to-large up the tree (see the
/// module docs). Rows are indexed by raw node index.
#[derive(Debug)]
pub(crate) struct HeapForest<T> {
    heaps: Vec<BinaryHeap<T>>,
    /// Small emptied heaps released by [`HeapForest::gather`], handed to
    /// the next [`HeapForest::push`] that starts a heap — at most
    /// [`SPARE_MAX`] of at most [`SPARE_CAP`] entries each, so a released
    /// forest holds O(live entries) memory without a malloc per leaf.
    spare: Vec<BinaryHeap<T>>,
}

impl<T> Default for HeapForest<T> {
    fn default() -> Self {
        HeapForest { heaps: Vec::new(), spare: Vec::new() }
    }
}

impl<T: Ord> HeapForest<T> {
    /// Sizes the forest for an `n`-node tree with every heap empty. With
    /// `release` set, every heap allocation is dropped as well; otherwise
    /// allocations are kept for the next pass.
    pub(crate) fn prepare(&mut self, n: usize, release: bool) {
        if release {
            self.heaps.clear();
        }
        if self.heaps.len() < n {
            self.heaps.resize_with(n, BinaryHeap::new);
        }
        for heap in self.heaps.iter_mut() {
            heap.clear();
        }
    }

    /// The heap of node `v`.
    #[inline]
    pub(crate) fn get(&self, v: u32) -> &BinaryHeap<T> {
        &self.heaps[v as usize]
    }

    /// The heap of node `v`, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, v: u32) -> &mut BinaryHeap<T> {
        &mut self.heaps[v as usize]
    }

    /// Pushes `item` onto `v`'s heap, starting it from a spare heap when
    /// `v` has no allocation yet.
    pub(crate) fn push(&mut self, v: u32, item: T) {
        let heap = &mut self.heaps[v as usize];
        if heap.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *heap = spare;
            }
        }
        heap.push(item);
    }

    /// The child of `children` holding the largest heap (the first one in
    /// child order on ties), or `None` when every child heap is empty —
    /// the merge base of [`HeapForest::gather`].
    pub(crate) fn largest_child(&self, children: &[u32]) -> Option<u32> {
        let mut big: Option<u32> = None;
        for &c in children {
            let len = self.heaps[c as usize].len();
            if len > 0 && big.is_none_or(|b| len > self.heaps[b as usize].len()) {
                big = Some(c);
            }
        }
        big
    }

    /// Moves `from`'s heap to `to` in O(1); `to` must be empty. `from` is
    /// left with `to`'s old (empty) heap and its capacity.
    #[inline]
    pub(crate) fn move_up(&mut self, from: u32, to: u32) {
        debug_assert!(self.heaps[to as usize].is_empty());
        self.heaps.swap(from as usize, to as usize);
    }

    /// Gathers every child heap of `u` into `u`'s (empty) heap,
    /// small-to-large: `base` — the [`HeapForest::largest_child`] — moves
    /// up by swap and the other children's entries are pushed onto it.
    /// Returns the number of entries pushed. With `release` set, every
    /// other child's allocation leaves its node, drained or not — small
    /// ones for the spare list, the rest dropped — so the forest's memory
    /// follows the live entries; otherwise each child keeps its allocation.
    pub(crate) fn gather(
        &mut self,
        u: u32,
        children: &[u32],
        base: Option<u32>,
        release: bool,
    ) -> u64 {
        if let Some(base) = base {
            self.move_up(base, u);
        }
        let mut pushed = 0u64;
        for &c in children {
            let heap = &self.heaps[c as usize];
            if Some(c) == base || (heap.is_empty() && (!release || heap.capacity() == 0)) {
                continue;
            }
            let mut other = std::mem::take(&mut self.heaps[c as usize]);
            pushed += other.len() as u64;
            debug_assert!(other.len() <= self.heaps[u as usize].len(), "small-to-large");
            self.heaps[u as usize].append(&mut other);
            if !release {
                self.heaps[c as usize] = other;
            } else if other.capacity() <= SPARE_CAP && self.spare.len() < SPARE_MAX {
                self.spare.push(other);
            }
        }
        pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_moves_the_largest_child_and_pushes_the_rest() {
        let mut f: HeapForest<u32> = HeapForest::default();
        f.prepare(4, false);
        f.get_mut(1).extend([5, 1, 9]);
        f.get_mut(2).extend([7, 3, 8]);
        f.get_mut(3).push(4);
        let children = [1, 2, 3];
        // Ties go to the first child in child order.
        assert_eq!(f.largest_child(&children), Some(1));
        let pushed = f.gather(0, &children, Some(1), true);
        assert_eq!(pushed, 4, "the non-base children's entries are pushed");
        assert!(children.iter().all(|&c| f.get(c).is_empty()));
        let mut drained = Vec::new();
        while let Some(x) = f.get_mut(0).pop() {
            drained.push(x);
        }
        assert_eq!(drained, vec![9, 8, 7, 5, 4, 3, 1]);
        assert_eq!(f.largest_child(&children), None);
        assert_eq!(f.gather(0, &children, None, true), 0);
    }

    #[test]
    fn prepare_empties_every_heap() {
        let mut f: HeapForest<u32> = HeapForest::default();
        f.prepare(3, false);
        f.get_mut(2).push(1);
        f.prepare(5, false);
        assert!((0..5).all(|v| f.get(v).is_empty()));
        f.get_mut(4).push(1);
        f.prepare(2, true);
        assert!((0..2).all(|v| f.get(v).is_empty()));
    }
}
