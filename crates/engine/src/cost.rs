//! The cost model: structural-join steps priced by estimated
//! cardinalities, with a per-step physical-algorithm choice.
//!
//! Two operators compete at every step (Section 1: "if there are
//! multiple join algorithms, the optimizer will require accurate
//! estimates to enable it to choose the more efficient algorithm"):
//!
//! * **structural** merge join over sorted inputs:
//!   `|left| + |right| + |output|`;
//! * **navigational** subtree scan from each ancestor candidate:
//!   `scans × avg_subtree_width(ancestor predicate) + |output|`.
//!
//! The optimizer never sees real cardinalities — every term comes from
//! the estimator (match estimates for partial patterns, predicate counts
//! and mean subtree widths from the summaries).

use crate::error::Result;
use crate::plan::{FlatTwig, JoinAlgorithm, Plan};
use std::collections::HashMap;
use xmlest_core::{Estimator, TwigNode};

/// Estimated cost breakdown of one plan.
#[derive(Debug, Clone)]
pub struct CostedPlan {
    /// The join order being costed.
    pub plan: Plan,
    /// Estimated per-step output cardinalities (pattern matches of the
    /// sub-pattern joined so far).
    pub step_outputs: Vec<f64>,
    /// Cheapest algorithm per step.
    pub step_algos: Vec<JoinAlgorithm>,
    /// Estimated per-step cost under the chosen algorithm.
    pub step_costs: Vec<f64>,
    /// Total estimated cost: Σ step costs.
    pub total: f64,
}

/// Reusable scratch for plan costing over **one** twig: the induced
/// sub-twigs a plan prefix generates are memoized by joined-node
/// bitmask, and the per-step result buffers are reused across plans.
/// After every induced sub-twig of a twig's plans has been seen once,
/// re-costing allocates nothing (cardinalities come from the estimator's
/// view-based totals, which run on the thread-local arena) — enforced by
/// `tests/alloc_discipline.rs`.
///
/// A workspace is bound to the twig of its first use; using it with a
/// different twig would serve wrong sub-patterns, so don't share one
/// across queries (the optimizer creates one per enumeration).
#[derive(Debug, Default)]
pub struct CostWorkspace {
    /// Induced sub-twigs keyed by the joined-node set's bitmask.
    induced: HashMap<u64, TwigNode>,
    joined: Vec<usize>,
    /// Per-step outputs of the most recent [`cost_plan_with`] call.
    pub step_outputs: Vec<f64>,
    /// Per-step algorithm choices of the most recent call.
    pub step_algos: Vec<JoinAlgorithm>,
    /// Per-step costs of the most recent call.
    pub step_costs: Vec<f64>,
}

/// Key for the induced-twig memo: node sets with every index < 64 get
/// an exact bitmask; larger twigs (beyond any plan the optimizer
/// enumerates, but reachable through the public costing API) bypass the
/// memo rather than risk colliding masks.
const UNMEMOIZABLE: u64 = u64::MAX;

impl CostWorkspace {
    /// A fresh workspace; the induced-twig memo fills on first use.
    pub fn new() -> Self {
        CostWorkspace::default()
    }

    /// Clears the twig binding (the induced sub-twig memo) so the
    /// workspace can serve a different query, keeping every buffer's
    /// capacity. The planner calls this between queries; sharing a
    /// workspace across twigs *without* resetting would serve wrong
    /// sub-patterns.
    pub fn reset(&mut self) {
        self.induced.clear();
        self.joined.clear();
        self.step_outputs.clear();
        self.step_algos.clear();
        self.step_costs.clear();
    }

    fn mask_of(joined: &[usize]) -> u64 {
        if joined.iter().any(|&n| n >= 64) {
            return UNMEMOIZABLE;
        }
        joined.iter().fold(0, |m, &n| m | (1u64 << n))
    }

    /// The memoized induced twig for the current `joined` set; sets too
    /// large to key exactly are rebuilt each time instead.
    fn induced<'s>(
        induced: &'s mut HashMap<u64, TwigNode>,
        twig: &FlatTwig,
        joined: &[usize],
    ) -> &'s TwigNode {
        let mask = Self::mask_of(joined);
        let entry = induced.entry(mask);
        if mask == UNMEMOIZABLE {
            // Not memoizable: always rebuild (the slot just holds the
            // latest, so the returned borrow stays valid).
            return &*entry
                .and_modify(|t| *t = twig.induced_twig(joined))
                .or_insert_with(|| twig.induced_twig(joined));
        }
        entry.or_insert_with(|| twig.induced_twig(joined))
    }
}

/// Prices a plan with the estimator, choosing the cheaper physical
/// algorithm at each step. Convenience wrapper over [`cost_plan_with`]
/// that materializes an owned [`CostedPlan`].
pub fn cost_plan(est: &Estimator<'_>, twig: &FlatTwig, plan: &Plan) -> Result<CostedPlan> {
    let mut ws = CostWorkspace::new();
    let total = cost_plan_with(est, twig, plan, &mut ws)?;
    Ok(CostedPlan {
        plan: plan.clone(),
        step_outputs: ws.step_outputs.clone(),
        step_algos: ws.step_algos.clone(),
        step_costs: ws.step_costs.clone(),
        total,
    })
}

/// [`cost_plan`] on a reused workspace, returning the total and leaving
/// per-step data in the workspace buffers. Every cardinality comes from
/// the estimator's view-based totals ([`Estimator::node_total`],
/// [`Estimator::twig_match_total`]) — no owned `NodeStats` (histogram +
/// coverage clones) are materialized anywhere on this path.
pub fn cost_plan_with(
    est: &Estimator<'_>,
    twig: &FlatTwig,
    plan: &Plan,
    ws: &mut CostWorkspace,
) -> Result<f64> {
    ws.joined.clear();
    ws.step_outputs.clear();
    ws.step_algos.clear();
    ws.step_costs.clear();
    let mut total = 0.0;

    for (i, step) in plan.steps.iter().enumerate() {
        let (p, c, _) = twig.edges[step.0];
        // Cardinality of the already-joined component (or the ancestor
        // predicate itself on the first step) and of the attached node.
        let (new_node, left_card) = if i == 0 {
            ws.joined.extend([p, c]);
            let left = est.node_total(&twig.preds[p])?;
            (None, left)
        } else if ws.joined.contains(&p) {
            let partial = CostWorkspace::induced(&mut ws.induced, twig, &ws.joined);
            let left = est.twig_match_total(partial)?;
            ws.joined.push(c);
            (Some(c), left)
        } else {
            let partial = CostWorkspace::induced(&mut ws.induced, twig, &ws.joined);
            let left = est.twig_match_total(partial)?;
            ws.joined.push(p);
            (Some(p), left)
        };
        let right_node = new_node.unwrap_or(c);
        let right_card = est.node_total(&twig.preds[right_node])?;

        let combined = CostWorkspace::induced(&mut ws.induced, twig, &ws.joined);
        let out_card = est.twig_match_total(combined)?;

        // The scanning side of a navigational join is the edge's parent
        // endpoint; estimate scans as its participation so far.
        let anc_scans = if right_node == p {
            right_card
        } else {
            left_card
        };
        let structural = left_card + right_card + out_card;
        let navigational = match est.avg_width(&twig.preds[p]) {
            Some(w) if w > 0.0 => anc_scans * (w - 1.0).max(0.0) + out_card,
            _ => f64::INFINITY,
        };

        let (algo, cost) = if navigational < structural {
            (JoinAlgorithm::Navigational, navigational)
        } else {
            (JoinAlgorithm::Structural, structural)
        };
        total += cost;
        ws.step_outputs.push(out_card);
        ws.step_algos.push(algo);
        ws.step_costs.push(cost);
    }

    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{enumerate_plans, FlatTwig};
    use xmlest_core::{Summaries, SummaryConfig};
    use xmlest_predicate::Catalog;
    use xmlest_query::parse_path;
    use xmlest_xml::parser::parse_str;

    fn setup() -> Summaries {
        // Document where joining b//c first is far cheaper than a//b:
        // many b's, few c's.
        let mut xml = String::from("<root>");
        for i in 0..50 {
            xml.push_str("<a>");
            for _ in 0..5 {
                xml.push_str(if i == 0 { "<b><c/></b>" } else { "<b/>" });
            }
            xml.push_str("</a>");
        }
        xml.push_str("</root>");
        let tree = parse_str(&xml).unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        Summaries::build(
            &tree,
            &catalog,
            &SummaryConfig::paper_defaults().with_grid_size(8),
        )
        .unwrap()
    }

    #[test]
    fn costs_differ_across_orders_and_selective_first_wins() {
        let s = setup();
        let est = s.estimator();
        let twig = FlatTwig::from_twig(&parse_path("//a//b//c").unwrap());
        let plans = enumerate_plans(&twig, 100);
        assert_eq!(plans.len(), 2);
        let costed: Vec<CostedPlan> = plans
            .iter()
            .map(|p| cost_plan(&est, &twig, p).unwrap())
            .collect();
        // The plan starting with the selective b//c edge (edge index 1)
        // must be cheaper than starting with a//b.
        let bc_first = costed.iter().find(|c| c.plan.steps[0].0 == 1).unwrap();
        let ab_first = costed.iter().find(|c| c.plan.steps[0].0 == 0).unwrap();
        assert!(
            bc_first.total < ab_first.total,
            "bc-first {} vs ab-first {}",
            bc_first.total,
            ab_first.total
        );
        // Step metadata is recorded per step.
        assert_eq!(bc_first.step_outputs.len(), 2);
        assert_eq!(bc_first.step_algos.len(), 2);
        assert_eq!(bc_first.step_costs.len(), 2);
        assert!((bc_first.step_costs.iter().sum::<f64>() - bc_first.total).abs() < 1e-9);
    }

    #[test]
    fn final_step_output_is_full_pattern_estimate() {
        let s = setup();
        let est = s.estimator();
        let parsed = parse_path("//a//b//c").unwrap();
        let twig = FlatTwig::from_twig(&parsed);
        let full = est.estimate_twig(&parsed).unwrap().value;
        for p in enumerate_plans(&twig, 100) {
            let c = cost_plan(&est, &twig, &p).unwrap();
            let last = *c.step_outputs.last().unwrap();
            assert!((last - full).abs() < 1e-9, "{last} vs {full}");
        }
    }

    #[test]
    fn navigational_chosen_for_narrow_ancestors_wide_lists() {
        // Few tiny ancestors (b: 5 nodes, width 2) against a huge
        // descendant list (c: 250): scanning b subtrees costs ~5,
        // merging costs ~255.
        let mut xml = String::from("<root>");
        for i in 0..50 {
            if i < 5 {
                xml.push_str("<b><c/></b>");
            }
            for _ in 0..5 {
                xml.push_str("<c/>");
            }
        }
        xml.push_str("</root>");
        let tree = parse_str(&xml).unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let s = Summaries::build(&tree, &catalog, &SummaryConfig::paper_defaults()).unwrap();
        let est = s.estimator();
        let twig = FlatTwig::from_twig(&parse_path("//b//c").unwrap());
        let plan = &enumerate_plans(&twig, 10)[0];
        let costed = cost_plan(&est, &twig, plan).unwrap();
        assert_eq!(costed.step_algos, vec![JoinAlgorithm::Navigational]);
    }

    #[test]
    fn structural_chosen_for_wide_ancestors() {
        let s = setup();
        let est = s.estimator();
        // a spans ~5 children each: nav scan = 50 a's x ~10 positions,
        // structural = 50 + 250 + out. Both plausible; root//a is the
        // clear case: one root spanning everything.
        let twig = FlatTwig::from_twig(&parse_path("//root//b").unwrap());
        let plan = &enumerate_plans(&twig, 10)[0];
        let costed = cost_plan(&est, &twig, plan).unwrap();
        assert_eq!(costed.step_algos, vec![JoinAlgorithm::Structural]);
    }
}
