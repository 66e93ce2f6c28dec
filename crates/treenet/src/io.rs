//! Plain-text serialisation of instances and solutions.
//!
//! The format is line-oriented and human-editable, so that instances used in
//! the experiments can be inspected and re-run from files:
//!
//! ```text
//! # replica-placement instance v1
//! capacity 100
//! dmax 12            # or: dmax none
//! nodes 5
//! 0 - 0 internal 0   # id parent edge kind requests
//! 1 0 2 internal 0
//! 2 1 1 client 5
//! 3 1 3 client 7
//! 4 0 4 client 2
//! ```
//!
//! Node ids must be dense, the root must be node 0 with parent `-`, and a
//! node's parent must appear on an earlier line.

use crate::arena::{StreamNode, NO_PARENT};
use crate::error::TreeError;
use crate::instance::Instance;
use crate::solution::Solution;
use crate::tree::{NodeId, NodeKind, Tree};
use std::fmt;

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not have the expected shape.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description of what went wrong.
        reason: String,
    },
    /// A required header (`capacity`, `nodes`, …) was missing.
    MissingHeader(&'static str),
    /// The node section declared a different number of nodes than found.
    NodeCountMismatch {
        /// Number declared in the `nodes` header.
        declared: usize,
        /// Number of node lines actually present.
        found: usize,
    },
    /// The parsed structure is not a valid tree/instance.
    Tree(TreeError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            ParseError::MissingHeader(h) => write!(f, "missing `{h}` header"),
            ParseError::NodeCountMismatch { declared, found } => {
                write!(f, "declared {declared} nodes but found {found}")
            }
            ParseError::Tree(e) => write!(f, "invalid tree: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<TreeError> for ParseError {
    fn from(e: TreeError) -> Self {
        ParseError::Tree(e)
    }
}

/// Renders an instance in the plain-text format.
pub fn write_instance(instance: &Instance) -> String {
    let tree = instance.tree();
    let mut out = String::new();
    out.push_str("# replica-placement instance v1\n");
    out.push_str(&format!("capacity {}\n", instance.capacity()));
    match instance.dmax() {
        Some(d) => out.push_str(&format!("dmax {d}\n")),
        None => out.push_str("dmax none\n"),
    }
    out.push_str(&format!("nodes {}\n", tree.len()));
    for id in tree.node_ids() {
        let parent = match tree.parent(id) {
            Some(p) => p.0.to_string(),
            None => "-".to_string(),
        };
        let (kind, req) = match tree.kind(id) {
            NodeKind::Client(r) => ("client", r),
            NodeKind::Internal => ("internal", 0),
        };
        out.push_str(&format!("{} {} {} {} {}\n", id.0, parent, tree.edge(id), kind, req));
    }
    out
}

/// Parses an instance from the plain-text format produced by
/// [`write_instance`].
pub fn parse_instance(text: &str) -> Result<Instance, ParseError> {
    let mut capacity: Option<u64> = None;
    let mut dmax: Option<Option<u64>> = None;
    let mut node_count: Option<usize> = None;
    let mut nodes: Vec<StreamNode> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.next().unwrap();
        let malformed =
            |reason: &str| ParseError::Malformed { line: lineno + 1, reason: reason.to_string() };
        match first {
            "capacity" => {
                let v = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| malformed("expected `capacity <u64>`"))?;
                capacity = Some(v);
            }
            "dmax" => {
                let v = parts.next().ok_or_else(|| malformed("expected `dmax <u64|none>`"))?;
                if v == "none" {
                    dmax = Some(None);
                } else {
                    let d = v.parse::<u64>().map_err(|_| malformed("invalid dmax value"))?;
                    dmax = Some(Some(d));
                }
            }
            "nodes" => {
                let v = parts
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| malformed("expected `nodes <count>`"))?;
                node_count = Some(v);
            }
            id_str => {
                let id: u32 =
                    id_str.parse().map_err(|_| malformed("expected a numeric node id"))?;
                if id as usize != nodes.len() {
                    return Err(malformed("node ids must be dense and in order"));
                }
                let parent_str = parts.next().ok_or_else(|| malformed("missing parent field"))?;
                let parent = if parent_str == "-" {
                    None
                } else {
                    Some(parent_str.parse::<u32>().map_err(|_| malformed("invalid parent id"))?)
                };
                let edge: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed("invalid edge length"))?;
                let kind = parts.next().ok_or_else(|| malformed("missing node kind"))?;
                let req: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed("invalid request count"))?;
                let is_client = match kind {
                    "client" => true,
                    "internal" => false,
                    _ => return Err(malformed("kind must be `client` or `internal`")),
                };
                if parent.is_none() && id != 0 {
                    return Err(malformed("only node 0 may be the root"));
                }
                if parent.is_some() && id == 0 {
                    return Err(malformed("node 0 must be the root (parent `-`)"));
                }
                if let Some(p) = parent {
                    if p >= id {
                        return Err(malformed("parents must appear before their children"));
                    }
                }
                nodes.push(StreamNode {
                    parent: parent.unwrap_or(NO_PARENT),
                    edge,
                    requests: req,
                    is_client,
                });
            }
        }
    }

    let capacity = capacity.ok_or(ParseError::MissingHeader("capacity"))?;
    let dmax = dmax.ok_or(ParseError::MissingHeader("dmax"))?;
    let declared = node_count.ok_or(ParseError::MissingHeader("nodes"))?;
    if declared != nodes.len() {
        return Err(ParseError::NodeCountMismatch { declared, found: nodes.len() });
    }
    let tree = Tree::from_stream(nodes.len(), nodes)?;
    Ok(Instance::new(tree, capacity, dmax)?)
}

/// Renders a solution: a `replicas <count>` header, one `idle <node>` line
/// per replica that processes no request (see
/// [`Solution::idle_replicas`]), then one `client server amount` line per
/// fragment in `(client, server)` order:
///
/// ```text
/// # replica-placement solution v1
/// replicas 2
/// idle 4
/// 2 1 5
/// 3 1 7
/// ```
///
/// The text is built in one byte buffer sized up front, one line at a time
/// with the integers formatted by hand.
pub fn write_solution(solution: &Solution) -> String {
    const HEAD: &[u8] = b"# replica-placement solution v1\nreplicas ";
    let (count, idle) = solution.census();
    // An upper bound on the length while no server id outgrows the largest
    // client id and no amount has more than three digits; past that the
    // buffer grows.
    let id_len = solution.fragments().next_back().map_or(1, |f| decimal_len(f.client.0.into()));
    let mut out = Vec::with_capacity(
        HEAD.len() + 21 + idle.len() * 16 + solution.fragment_count() * (2 * id_len + 6),
    );
    out.extend_from_slice(HEAD);
    push_line(&mut out, &[count as u64]);
    for n in idle {
        out.extend_from_slice(b"idle ");
        push_line(&mut out, &[n.0.into()]);
    }
    for f in solution.fragments() {
        push_line(&mut out, &[f.client.0.into(), f.server.0.into(), f.amount]);
    }
    String::from_utf8(out).expect("the solution writer emits ASCII only")
}

/// Number of decimal digits of `v`.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends `values` in decimal, separated by spaces and ended by a newline:
/// the line is formatted back to front in a stack buffer and copied once.
fn push_line(out: &mut Vec<u8>, values: &[u64]) {
    let mut buf = [0u8; 63];
    let mut at = buf.len();
    let mut sep = b'\n';
    for &v in values.iter().rev() {
        at -= 1;
        buf[at] = sep;
        sep = b' ';
        let mut v = v;
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
    }
    out.extend_from_slice(&buf[at..]);
}

/// Parses a solution written by [`write_solution`]: `idle <node>` lines
/// become [`Solution::force_replica`] calls and `client server amount`
/// lines [`Solution::assign`] calls. The `replicas` header is skipped (the
/// count follows from the other lines), as are blank lines and `#`
/// comments.
pub fn parse_solution(text: &str) -> Result<Solution, ParseError> {
    let mut sol = Solution::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() || line.starts_with("replicas") {
            continue;
        }
        let malformed = |reason: String| ParseError::Malformed { line: lineno + 1, reason };
        let fields: Vec<&str> = line.split_whitespace().collect();
        let node = |s: &str| -> Result<NodeId, ParseError> {
            s.parse().map(NodeId).map_err(|_| malformed(format!("invalid node id `{s}`")))
        };
        match fields[..] {
            ["idle", n] => sol.force_replica(node(n)?),
            [client, server, amount] => {
                let amount = amount
                    .parse()
                    .map_err(|_| malformed(format!("invalid request count `{amount}`")))?;
                sol.assign(node(client)?, node(server)?, amount);
            }
            _ => return Err(malformed("expected `client server amount` or `idle node`".into())),
        }
    }
    Ok(sol)
}

/// Convenience: round-trips a tree through the instance format (useful in
/// tests of generators).
pub fn roundtrip_instance(instance: &Instance) -> Result<Instance, ParseError> {
    parse_instance(&write_instance(instance))
}

/// Re-export used by round-trip helpers and tests.
pub use crate::tree::Tree as TreeAlias;

#[allow(unused)]
fn _assert_tree_alias(t: &Tree) -> &TreeAlias {
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Policy;
    use crate::tree::TreeBuilder;
    use crate::validate::validate;

    fn sample_instance() -> Instance {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 2);
        b.add_client(n1, 1, 5);
        b.add_client(n1, 3, 7);
        b.add_client(root, 4, 2);
        Instance::new(b.freeze().unwrap(), 20, Some(6)).unwrap()
    }

    #[test]
    fn instance_roundtrip_preserves_structure() {
        let inst = sample_instance();
        let text = write_instance(&inst);
        let back = parse_instance(&text).unwrap();
        assert_eq!(back.capacity(), 20);
        assert_eq!(back.dmax(), Some(6));
        assert_eq!(back.tree().len(), inst.tree().len());
        for id in inst.tree().node_ids() {
            assert_eq!(back.tree().parent(id), inst.tree().parent(id));
            assert_eq!(back.tree().edge(id), inst.tree().edge(id));
            assert_eq!(back.tree().requests(id), inst.tree().requests(id));
        }
    }

    #[test]
    fn instance_roundtrip_without_dmax() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        b.add_client(root, 1, 3);
        let inst = Instance::new(b.freeze().unwrap(), 5, None).unwrap();
        let back = roundtrip_instance(&inst).unwrap();
        assert_eq!(back.dmax(), None);
    }

    #[test]
    fn missing_headers_are_reported() {
        assert_eq!(
            parse_instance("nodes 1\n0 - 0 internal 0\n").unwrap_err(),
            ParseError::MissingHeader("capacity")
        );
        assert_eq!(
            parse_instance("capacity 5\nnodes 1\n0 - 0 internal 0\n").unwrap_err(),
            ParseError::MissingHeader("dmax")
        );
    }

    #[test]
    fn node_count_mismatch_detected() {
        let text = "capacity 5\ndmax none\nnodes 2\n0 - 0 internal 0\n";
        assert_eq!(
            parse_instance(text).unwrap_err(),
            ParseError::NodeCountMismatch { declared: 2, found: 1 }
        );
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let text = "capacity 5\ndmax none\nnodes 1\n0 - x internal 0\n";
        match parse_instance(text).unwrap_err() {
            ParseError::Malformed { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn client_root_rejected() {
        let text = "capacity 5\ndmax none\nnodes 1\n0 - 0 client 3\n";
        assert_eq!(parse_instance(text).unwrap_err(), ParseError::Tree(TreeError::RootNotInternal));
    }

    #[test]
    fn parent_must_precede_child() {
        let text = "capacity 5\ndmax none\nnodes 2\n0 - 0 internal 0\n1 2 1 client 3\n";
        assert!(matches!(parse_instance(text).unwrap_err(), ParseError::Malformed { .. }));
    }

    #[test]
    fn solution_roundtrip() {
        let inst = sample_instance();
        let mut sol = Solution::new();
        sol.assign(NodeId(2), NodeId(1), 5);
        sol.assign(NodeId(3), NodeId(1), 7);
        sol.assign(NodeId(4), NodeId(0), 2);
        let text = write_solution(&sol);
        let back = parse_solution(&text).unwrap();
        assert_eq!(back, sol);
        assert!(validate(&inst, Policy::Single, &back).is_ok());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text =
            "\n# hello\ncapacity 5\ndmax 3\nnodes 2\n0 - 0 internal 0 # root\n1 0 1 client 2\n\n";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.tree().len(), 2);
        assert_eq!(inst.dmax(), Some(3));
    }
}
