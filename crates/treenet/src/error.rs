//! Error types for tree construction and solution validation.

use crate::tree::NodeId;
use std::fmt;

/// Errors raised while building or freezing a [`crate::Tree`], or while
/// constructing an [`crate::Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A client node was given children; clients must be leaves of the tree.
    ClientHasChildren(NodeId),
    /// A node references a parent that was not added before it (so a tree
    /// can hold neither a cycle nor a node unreachable from the root).
    UnknownParent(NodeId),
    /// The tree has no nodes at all.
    Empty,
    /// The root must be an internal node (it holds the original copy of the
    /// database in the paper's model).
    RootNotInternal,
    /// The capacity `W` of an instance must be strictly positive.
    ZeroCapacity,
    /// A client issues more requests than fit in `u64` arithmetic used by the
    /// solvers (guards against overflow when summing subtree requests).
    RequestsTooLarge(NodeId),
    /// The tree holds more nodes than the u32 index width of the solver
    /// arenas can address (see [`crate::Tree::MAX_NODES`]); carries the
    /// offending node count. Raised by `TreeArena::rebuild_from_stream`, and
    /// so by [`crate::Tree`] freezing, instead of silently truncating indices.
    TooManyNodes(usize),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::ClientHasChildren(n) => {
                write!(f, "client node {n:?} has children; clients must be leaves")
            }
            TreeError::UnknownParent(n) => write!(f, "node {n:?} references an unknown parent"),
            TreeError::Empty => write!(f, "the tree has no nodes"),
            TreeError::RootNotInternal => write!(f, "the root node must be an internal node"),
            TreeError::ZeroCapacity => write!(f, "server capacity W must be strictly positive"),
            TreeError::RequestsTooLarge(n) => {
                write!(f, "client {n:?} issues too many requests for u64 arithmetic")
            }
            TreeError::TooManyNodes(n) => {
                write!(f, "tree has {n} nodes, more than the u32 node index width can address")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Errors raised by [`fn@crate::validate`] when a solution violates one of the
/// constraints of the replica placement problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A fragment references a node id outside the tree.
    UnknownNode(NodeId),
    /// A fragment assigns requests of a non-client node.
    NotAClient(NodeId),
    /// A fragment has a zero amount (fragments must carry at least 1 request).
    EmptyFragment {
        /// Client whose fragment is empty.
        client: NodeId,
        /// Server of the empty fragment.
        server: NodeId,
    },
    /// The server of a fragment is not on the path from the client to the
    /// root (servers can only serve clients of their own subtree).
    NotAnAncestor {
        /// The client issuing the requests.
        client: NodeId,
        /// The assigned server, which is not an ancestor of `client`.
        server: NodeId,
    },
    /// The client→server distance exceeds `dmax`.
    DistanceExceeded {
        /// The client issuing the requests.
        client: NodeId,
        /// The assigned server.
        server: NodeId,
        /// Distance along the tree path between them.
        distance: u64,
        /// The maximum allowed distance of the instance.
        dmax: u64,
    },
    /// A server processes more requests than the capacity `W`.
    CapacityExceeded {
        /// The overloaded server.
        server: NodeId,
        /// Requests assigned to it.
        load: u64,
        /// Instance capacity.
        capacity: u64,
    },
    /// A client is not fully served (the sum of its fragments differs from
    /// `r_i`).
    ClientNotServed {
        /// The under- or over-served client.
        client: NodeId,
        /// Total requests assigned across all fragments.
        assigned: u64,
        /// Requests the client actually issues.
        required: u64,
    },
    /// Under the [`crate::Policy::Single`] policy a client is served by more
    /// than one server.
    MultipleServersForClient {
        /// The client violating the Single policy.
        client: NodeId,
        /// Number of distinct servers it was assigned to.
        servers: usize,
    },
    /// A fragment is assigned to a node that is not in the replica set of the
    /// solution (the replica set is derived automatically, so this only occurs
    /// for solutions whose replica set was edited by hand).
    ServerNotPlaced(NodeId),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnknownNode(n) => write!(f, "fragment references unknown node {n:?}"),
            ValidationError::NotAClient(n) => {
                write!(f, "fragment assigns requests of non-client node {n:?}")
            }
            ValidationError::EmptyFragment { client, server } => {
                write!(f, "empty fragment for client {client:?} on server {server:?}")
            }
            ValidationError::NotAnAncestor { client, server } => {
                write!(f, "server {server:?} is not on the path from client {client:?} to the root")
            }
            ValidationError::DistanceExceeded { client, server, distance, dmax } => write!(
                f,
                "client {client:?} is served by {server:?} at distance {distance} > dmax {dmax}"
            ),
            ValidationError::CapacityExceeded { server, load, capacity } => {
                write!(f, "server {server:?} processes {load} requests > capacity {capacity}")
            }
            ValidationError::ClientNotServed { client, assigned, required } => write!(
                f,
                "client {client:?} has {assigned} requests assigned but issues {required}"
            ),
            ValidationError::MultipleServersForClient { client, servers } => write!(
                f,
                "client {client:?} is served by {servers} servers under the Single policy"
            ),
            ValidationError::ServerNotPlaced(n) => {
                write!(f, "requests assigned to {n:?} which is not in the replica set")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_error_display_is_informative() {
        let e = TreeError::ClientHasChildren(NodeId(3));
        assert!(e.to_string().contains("client"));
        let e = TreeError::ZeroCapacity;
        assert!(e.to_string().contains('W'));
        let e = TreeError::TooManyNodes(5_000_000_000);
        assert!(e.to_string().contains("5000000000") && e.to_string().contains("u32"));
    }

    #[test]
    fn validation_error_display_is_informative() {
        let e = ValidationError::DistanceExceeded {
            client: NodeId(1),
            server: NodeId(0),
            distance: 7,
            dmax: 5,
        };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains('5'));
        let e = ValidationError::CapacityExceeded { server: NodeId(0), load: 12, capacity: 10 };
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<TreeError>();
        assert_err::<ValidationError>();
    }
}
