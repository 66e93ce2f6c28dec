//! Solutions of the replica placement problem: the replica set `R` and the
//! assignment of client requests to servers.

use crate::tree::NodeId;
use crate::Requests;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One assignment fragment: `amount` requests of `client` processed by
/// `server` (`r_{i,s}` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fragment {
    /// The client issuing the requests.
    pub client: NodeId,
    /// The server processing them (must lie on the client's root path).
    pub server: NodeId,
    /// Number of requests of `client` processed by `server`.
    pub amount: Requests,
}

/// A complete solution: which nodes hold replicas and how each client's
/// requests are distributed over them.
///
/// The replica set is derived from the assignment: a node is a replica iff it
/// processes at least one request, plus any node explicitly added through
/// [`Solution::force_replica`] (used by algorithms that may place an idle
/// replica, which still counts towards the objective).
///
/// Fragments for the same `(client, server)` pair are merged automatically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Solution {
    /// Assignment fragments keyed by `(client, server)`.
    fragments: BTreeMap<(NodeId, NodeId), Requests>,
    /// Replicas placed without any assigned request (still counted). A set,
    /// not a `Vec`: solvers emit hundreds of thousands of replicas and the
    /// historical linear dedup scan made building the solution quadratic —
    /// it dominated the million-client profiles once the solver itself got
    /// fast. (Serde shape is unchanged: both serialize as a sequence.)
    forced: BTreeSet<NodeId>,
}

impl Solution {
    /// Creates an empty solution (no replicas, nothing assigned).
    pub fn new() -> Self {
        Solution::default()
    }

    /// Assigns `amount` requests of `client` to `server`, merging with any
    /// existing fragment for the same pair. Zero amounts are ignored.
    pub fn assign(&mut self, client: NodeId, server: NodeId, amount: Requests) {
        if amount == 0 {
            return;
        }
        *self.fragments.entry((client, server)).or_insert(0) += amount;
    }

    /// Builds a solution in bulk from its parts: `forced` replicas (see
    /// [`Solution::force_replica`]) and assignment `fragments` in any
    /// order. Equal to calling [`Solution::force_replica`] and
    /// [`Solution::assign`] once per item, but the fragments are sorted and
    /// merged in place first and both maps are built from sorted sequences,
    /// instead of one tree insert per fragment. Fragments already in
    /// `(client, server)` order cost one linear scan to sort.
    pub fn from_fragments(
        forced: impl IntoIterator<Item = NodeId>,
        mut fragments: Vec<Fragment>,
    ) -> Solution {
        fragments.sort_unstable_by_key(|f| (f.client, f.server));
        fragments.retain(|f| f.amount != 0);
        fragments.dedup_by(|next, kept| {
            let same = (next.client, next.server) == (kept.client, kept.server);
            if same {
                kept.amount += next.amount;
            }
            same
        });
        Solution {
            fragments: fragments.into_iter().map(|f| ((f.client, f.server), f.amount)).collect(),
            forced: forced.into_iter().collect(),
        }
    }

    /// Removes `amount` requests of `client` from `server`, dropping the
    /// fragment once it is empty: the inverse of [`Solution::assign`]. Zero
    /// amounts are ignored.
    ///
    /// # Panics
    ///
    /// If `server` processes fewer than `amount` requests of `client`.
    pub fn retract(&mut self, client: NodeId, server: NodeId, amount: Requests) {
        if amount == 0 {
            return;
        }
        match self.fragments.get_mut(&(client, server)) {
            Some(held) if *held > amount => *held -= amount,
            Some(held) if *held == amount => {
                self.fragments.remove(&(client, server));
            }
            _ => panic!("retract: {server:?} does not serve {amount} requests of {client:?}"),
        }
    }

    /// Marks `node` as holding a replica even if no request is assigned to it.
    ///
    /// Algorithms normally never need this, but it allows representing
    /// solutions in which a placed replica ends up unused (it still counts in
    /// the objective `|R|`).
    pub fn force_replica(&mut self, node: NodeId) {
        self.forced.insert(node);
    }

    /// Undoes [`Solution::force_replica`]: `node` stays a replica only while
    /// it still processes some request.
    pub fn unforce_replica(&mut self, node: NodeId) {
        self.forced.remove(&node);
    }

    /// All fragments, ordered by `(client, server)`.
    pub fn fragments(&self) -> impl DoubleEndedIterator<Item = Fragment> + '_ {
        self.fragments.iter().map(|(&(client, server), &amount)| Fragment {
            client,
            server,
            amount,
        })
    }

    /// Number of fragments (distinct `(client, server)` pairs).
    pub fn fragment_count(&self) -> usize {
        self.fragments.len()
    }

    /// The servers of the fragments, with repeats.
    fn servers(&self) -> impl Iterator<Item = NodeId> + Clone + '_ {
        self.fragments.keys().map(|&(_, s)| s)
    }

    /// The replica set `R`, sorted by node id.
    pub fn replicas(&self) -> Vec<NodeId> {
        let all = self.servers().chain(self.forced.iter().copied());
        NodeSet::new(all, self.fragments.len() + self.forced.len()).into_sorted()
    }

    /// The objective value `|R|`: number of distinct nodes holding a replica.
    pub fn replica_count(&self) -> usize {
        self.census().0
    }

    /// The replicas that process no request (placed through
    /// [`Solution::force_replica`] and left idle), sorted by node id.
    pub fn idle_replicas(&self) -> Vec<NodeId> {
        self.census().1
    }

    /// `|R|` and the idle replicas, from one pass over the fragments: the
    /// distinct servers plus the forced nodes that serve nothing.
    pub(crate) fn census(&self) -> (usize, Vec<NodeId>) {
        let serving = NodeSet::new(self.servers(), self.fragments.len());
        let idle: Vec<NodeId> =
            self.forced.iter().copied().filter(|&n| !serving.contains(n)).collect();
        (serving.len() + idle.len(), idle)
    }

    /// Whether `node` holds a replica in this solution.
    pub fn is_replica(&self, node: NodeId) -> bool {
        self.forced.contains(&node) || self.fragments.keys().any(|&(_, s)| s == node)
    }

    /// Total requests processed by `server` across all clients.
    pub fn load(&self, server: NodeId) -> Requests {
        self.fragments.iter().filter(|(&(_, s), _)| s == server).map(|(_, &amount)| amount).sum()
    }

    /// Per-server load map (only servers with at least one request).
    pub fn loads(&self) -> BTreeMap<NodeId, Requests> {
        let mut out = BTreeMap::new();
        for (&(_, server), &amount) in &self.fragments {
            *out.entry(server).or_insert(0) += amount;
        }
        out
    }

    /// Total requests of `client` covered by this solution.
    pub fn assigned_to_client(&self, client: NodeId) -> Requests {
        self.fragments.iter().filter(|(&(c, _), _)| c == client).map(|(_, &amount)| amount).sum()
    }

    /// The distinct servers serving `client` (`servers(i)` in the paper).
    pub fn servers_of(&self, client: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> =
            self.fragments.keys().filter(|&&(c, _)| c == client).map(|&(_, s)| s).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total number of requests assigned across all fragments.
    pub fn total_assigned(&self) -> u128 {
        self.fragments.values().map(|&a| a as u128).sum()
    }

    /// Whether the solution assigns nothing and places no replica.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty() && self.forced.is_empty()
    }
}

/// A set of distinct node ids, built without a comparison sort when the ids
/// are dense: a bitset over `0..=max` while it takes at most one 64-bit word
/// per id it is built from, else a sorted, deduplicated list (a solution
/// naming node `u32::MAX` must not allocate a 512 MiB bitset).
enum NodeSet {
    Bits(Vec<u64>),
    Sorted(Vec<NodeId>),
}

impl NodeSet {
    /// The distinct ids among the `count` items of `ids`.
    fn new(ids: impl Iterator<Item = NodeId> + Clone, count: usize) -> NodeSet {
        let mut bits: Vec<u64> = Vec::new();
        for id in ids.clone() {
            let word = id.0 as usize / 64;
            if word >= bits.len() {
                if word >= count {
                    let mut list: Vec<NodeId> = ids.collect();
                    list.sort_unstable();
                    list.dedup();
                    return NodeSet::Sorted(list);
                }
                bits.resize(word + 1, 0);
            }
            bits[word] |= 1u64 << (id.0 % 64);
        }
        NodeSet::Bits(bits)
    }

    fn contains(&self, id: NodeId) -> bool {
        match self {
            NodeSet::Bits(bits) => {
                bits.get(id.0 as usize / 64).is_some_and(|w| w & (1u64 << (id.0 % 64)) != 0)
            }
            NodeSet::Sorted(list) => list.binary_search(&id).is_ok(),
        }
    }

    fn len(&self) -> usize {
        match self {
            NodeSet::Bits(bits) => bits.iter().map(|w| w.count_ones() as usize).sum(),
            NodeSet::Sorted(list) => list.len(),
        }
    }

    fn into_sorted(self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let bits = match self {
            NodeSet::Bits(bits) => bits,
            NodeSet::Sorted(list) => return list,
        };
        for (i, &word) in bits.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(NodeId(i as u32 * 64 + w.trailing_zeros()));
                w &= w - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn fragments_merge_per_pair() {
        let mut s = Solution::new();
        s.assign(n(3), n(1), 4);
        s.assign(n(3), n(1), 2);
        s.assign(n(3), n(0), 1);
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.assigned_to_client(n(3)), 7);
        assert_eq!(s.load(n(1)), 6);
        assert_eq!(s.servers_of(n(3)), vec![n(0), n(1)]);
    }

    #[test]
    fn zero_amounts_are_ignored() {
        let mut s = Solution::new();
        s.assign(n(2), n(0), 0);
        assert!(s.is_empty());
        assert_eq!(s.fragment_count(), 0);
    }

    #[test]
    fn replica_set_includes_forced_nodes() {
        let mut s = Solution::new();
        s.assign(n(4), n(1), 3);
        s.force_replica(n(2));
        s.force_replica(n(2));
        assert_eq!(s.replicas(), vec![n(1), n(2)]);
        assert_eq!(s.replica_count(), 2);
        assert!(s.is_replica(n(2)));
        assert!(s.is_replica(n(1)));
        assert!(!s.is_replica(n(4)));
    }

    #[test]
    fn loads_map_and_totals() {
        let mut s = Solution::new();
        s.assign(n(5), n(1), 3);
        s.assign(n(6), n(1), 4);
        s.assign(n(6), n(0), 2);
        let loads = s.loads();
        assert_eq!(loads[&n(1)], 7);
        assert_eq!(loads[&n(0)], 2);
        assert_eq!(s.total_assigned(), 9);
    }

    #[test]
    fn bulk_build_and_retract_match_one_at_a_time_edits() {
        let frag = |c, s, amount| Fragment { client: n(c), server: n(s), amount };
        let bulk = Solution::from_fragments(
            [n(2), n(0)],
            vec![frag(5, 2, 3), frag(4, 0, 1), frag(5, 2, 2), frag(4, 2, 0), frag(4, 2, 6)],
        );
        let mut one = Solution::new();
        one.force_replica(n(0));
        one.force_replica(n(2));
        one.assign(n(5), n(2), 5);
        one.assign(n(4), n(0), 1);
        one.assign(n(4), n(2), 6);
        assert_eq!(bulk, one);

        one.retract(n(5), n(2), 2);
        assert_eq!(one.assigned_to_client(n(5)), 3);
        one.retract(n(5), n(2), 3);
        one.retract(n(4), n(2), 0);
        assert_eq!(one.fragment_count(), 2, "an emptied fragment is dropped");
        one.unforce_replica(n(0));
        assert!(one.is_replica(n(0)), "a serving node stays a replica");
        one.retract(n(4), n(0), 1);
        assert!(!one.is_replica(n(0)));
        assert_eq!(one.replicas(), vec![n(2)]);
    }

    #[test]
    #[should_panic(expected = "does not serve")]
    fn retracting_more_than_assigned_panics() {
        let mut s = Solution::new();
        s.assign(n(3), n(1), 2);
        s.retract(n(3), n(1), 3);
    }

    #[test]
    fn serde_roundtrip_via_clone_semantics() {
        // Solutions are plain data; equality and clone behave structurally.
        let mut s = Solution::new();
        s.assign(n(1), n(0), 2);
        let t = s.clone();
        assert_eq!(s, t);
    }
}
