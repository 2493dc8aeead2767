//! Twig evaluation plans.
//!
//! A twig with `k` nodes has `k − 1` edges; a **plan** is an order in
//! which those edges are joined such that every prefix touches a
//! connected sub-pattern (left-deep structural-join trees). The first
//! edge may be any edge; each later edge must share a pattern node with
//! the already-joined component.

use xmlest_core::{Axis, TwigNode};
use xmlest_predicate::PredExpr;

/// A twig flattened to indexed nodes (0 = pattern root, pre-order).
#[derive(Debug, Clone)]
pub struct FlatTwig {
    /// Each node's predicate, by node index.
    pub preds: Vec<PredExpr>,
    /// `(parent index, child index, axis)` per edge, pre-order.
    pub edges: Vec<(usize, usize, Axis)>,
}

impl FlatTwig {
    /// Flattens `twig` into indexed predicate and edge lists, pre-order.
    pub fn from_twig(twig: &TwigNode) -> FlatTwig {
        let mut preds = Vec::new();
        let mut edges = Vec::new();
        flatten(twig, None, &mut preds, &mut edges);
        FlatTwig { preds, edges }
    }

    /// Number of pattern nodes.
    pub fn node_count(&self) -> usize {
        self.preds.len()
    }

    /// Rebuilds the (sub-)twig induced by a set of nodes, rooted at the
    /// minimum index in the set. The set must be connected through the
    /// twig's edges. Used to estimate intermediate-result sizes.
    pub fn induced_twig(&self, nodes: &[usize]) -> TwigNode {
        #[expect(
            clippy::expect_used,
            reason = "documented precondition: induced node sets are non-empty by construction"
        )]
        let root = *nodes.iter().min().expect("non-empty node set");
        self.build_node(root, nodes)
    }

    fn build_node(&self, idx: usize, keep: &[usize]) -> TwigNode {
        let mut node = TwigNode::with_pred(self.preds[idx].clone());
        for &(p, c, axis) in &self.edges {
            if p == idx && keep.contains(&c) {
                let mut child = self.build_node(c, keep);
                child.axis = axis;
                node.children.push(child);
            }
        }
        node
    }

    /// The axis of edge `e`.
    pub fn axis(&self, e: usize) -> Axis {
        self.edges[e].2
    }
}

fn flatten(
    node: &TwigNode,
    parent: Option<usize>,
    preds: &mut Vec<PredExpr>,
    edges: &mut Vec<(usize, usize, Axis)>,
) {
    let idx = preds.len();
    preds.push(node.pred.clone());
    if let Some(p) = parent {
        edges.push((p, idx, node.axis));
    }
    for child in &node.children {
        flatten(child, Some(idx), preds, edges);
    }
}

/// One structural-join step: the edge index into [`FlatTwig::edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep(pub usize);

/// Physical algorithm for one join step — the "multiple join
/// algorithms" whose choice Section 1 motivates estimation for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// Stack-based merge over both sorted candidate lists:
    /// O(|A| + |D| + |out|).
    Structural,
    /// Node-at-a-time subtree scan from each ancestor candidate:
    /// O(Σ subtree sizes + |out|) — wins when ancestors are few and
    /// shallow but the descendant list is huge.
    Navigational,
}

/// An edge order forming a left-deep plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The edges in join order.
    pub steps: Vec<PlanStep>,
}

impl Plan {
    /// Validates connectivity: each step after the first must attach to
    /// the component built so far.
    pub fn is_connected(&self, twig: &FlatTwig) -> bool {
        let mut joined: Vec<usize> = Vec::new();
        for (i, step) in self.steps.iter().enumerate() {
            let Some(&(p, c, _)) = twig.edges.get(step.0) else {
                return false;
            };
            if i == 0 {
                joined.extend([p, c]);
            } else if joined.contains(&p) && !joined.contains(&c) {
                joined.push(c);
            } else if joined.contains(&c) && !joined.contains(&p) {
                joined.push(p);
            } else {
                return false;
            }
        }
        self.steps.len() == twig.edges.len()
    }
}

/// Enumerates all connected edge orders (left-deep plans) of a twig,
/// capped to keep planning tractable on large patterns.
pub fn enumerate_plans(twig: &FlatTwig, cap: usize) -> Vec<Plan> {
    let e = twig.edges.len();
    let mut out = Vec::new();
    if e == 0 {
        return out;
    }
    let mut current: Vec<usize> = Vec::new();
    let mut used = vec![false; e];
    let mut joined: Vec<usize> = Vec::new();
    fn recurse(
        twig: &FlatTwig,
        current: &mut Vec<usize>,
        used: &mut Vec<bool>,
        joined: &mut Vec<usize>,
        out: &mut Vec<Plan>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        if current.len() == twig.edges.len() {
            out.push(Plan {
                steps: current.iter().map(|&e| PlanStep(e)).collect(),
            });
            return;
        }
        for e in 0..twig.edges.len() {
            if used[e] {
                continue;
            }
            let (p, c, _) = twig.edges[e];
            let connects = joined.is_empty() || (joined.contains(&p) ^ joined.contains(&c));
            if !connects {
                continue;
            }
            used[e] = true;
            current.push(e);
            let added: Vec<usize> = [p, c].into_iter().filter(|n| !joined.contains(n)).collect();
            joined.extend(&added);
            recurse(twig, current, used, joined, out, cap);
            for _ in &added {
                joined.pop();
            }
            current.pop();
            used[e] = false;
        }
    }
    recurse(twig, &mut current, &mut used, &mut joined, &mut out, cap);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlest_query::parse_path;

    fn fig2() -> FlatTwig {
        FlatTwig::from_twig(&parse_path("//department//faculty[.//TA][.//RA]").unwrap())
    }

    #[test]
    fn flatten_fig2() {
        let t = fig2();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edges.len(), 3);
        // Edges: dept->faculty, faculty->TA, faculty->RA.
        assert_eq!(t.edges[0].0, 0);
        assert_eq!(t.edges[0].1, 1);
        assert_eq!(t.edges[1], (1, 2, Axis::Descendant));
        assert_eq!(t.edges[2], (1, 3, Axis::Descendant));
    }

    #[test]
    fn induced_twig_round_trip() {
        let t = fig2();
        let full = t.induced_twig(&[0, 1, 2, 3]);
        assert_eq!(full.node_count(), 4);
        let partial = t.induced_twig(&[1, 3]);
        assert_eq!(partial.node_count(), 2);
        assert_eq!(partial.pred.to_string(), "faculty");
        assert_eq!(partial.children[0].pred.to_string(), "RA");
    }

    #[test]
    fn enumerate_connected_orders() {
        let t = fig2();
        let plans = enumerate_plans(&t, 1000);
        // Edges: e0 = dept-fac, e1 = fac-TA, e2 = fac-RA. All 3! = 6
        // permutations are connected (every edge touches faculty).
        assert_eq!(plans.len(), 6);
        for p in &plans {
            assert!(p.is_connected(&t), "{p:?}");
        }
    }

    #[test]
    fn chain_has_constrained_orders() {
        // a//b//c: edges e0 = a-b, e1 = b-c; both orders are connected.
        let t = FlatTwig::from_twig(&parse_path("//a//b//c").unwrap());
        let plans = enumerate_plans(&t, 1000);
        assert_eq!(plans.len(), 2);
        // A 4-chain: e0=a-b, e1=b-c, e2=c-d. Order [e0, e2, ...] is
        // disconnected at step 2.
        let t = FlatTwig::from_twig(&parse_path("//a//b//c//d").unwrap());
        let plans = enumerate_plans(&t, 1000);
        for p in &plans {
            assert!(p.is_connected(&t));
        }
        // Connected orders of a path with 3 edges: e0 then {e1 then e2},
        // e1 then {e0, e2} in any order, e2 then e1 then e0 -> 4? Count:
        // starting from any edge, extend left/right: orders = 2^(k-1) = 4.
        assert_eq!(plans.len(), 4);
    }

    #[test]
    fn disconnected_plans_rejected() {
        let t = FlatTwig::from_twig(&parse_path("//a//b//c//d").unwrap());
        let bad = Plan {
            steps: vec![PlanStep(0), PlanStep(2), PlanStep(1)],
        };
        assert!(!bad.is_connected(&t));
        let incomplete = Plan {
            steps: vec![PlanStep(0)],
        };
        assert!(!incomplete.is_connected(&t));
    }

    #[test]
    fn single_node_twig_has_no_plans() {
        let t = FlatTwig::from_twig(&parse_path("//a").unwrap());
        assert!(enumerate_plans(&t, 10).is_empty());
    }

    #[test]
    fn cap_limits_enumeration() {
        let t = fig2();
        let plans = enumerate_plans(&t, 2);
        assert_eq!(plans.len(), 2);
    }
}
