//! The unified planner: one front door from query to costed plan, and
//! from plan to execution (EXPLAIN ANALYZE style).
//!
//! The [`Planner`] owns the front half of the pipeline — parse,
//! flatten, enumerate, cost — so no consumer stitches it together by
//! hand or pays the full enumeration per call:
//!
//! * it resolves queries through the database's prepared-query cache
//!   (canonical twig interning, epoch validation — see
//!   [`crate::prepared`]);
//! * it owns the [`CostWorkspace`] and reuses it across queries
//!   ([`CostWorkspace::reset`] keeps buffer capacity), so warm costing
//!   stays allocation-free;
//! * it memoizes the cheapest [`CostedPlan`] **by [`TwigId`]** on the
//!   prepared entry itself: every spelling of a query shares one plan,
//!   computed once per database epoch. A collection mutation bumps the
//!   epoch, the entry re-prepares, and its plan slot comes back empty —
//!   a stale plan is unreachable by construction.
//!
//! Plans are computed on the **canonical** twig, so plan step indices
//! refer to the canonical pre-order flattening (sibling branches sorted
//! by `(axis, rendering)`), whatever the query's original spelling —
//! pass plans produced here back to the `execute*` methods and the
//! numbering always matches.

use crate::cost::{cost_plan_with, CostWorkspace, CostedPlan};
use crate::db::Database;
use crate::error::{Error, Result};
use crate::exec::{execute_plan, execute_plan_with, Execution};
use crate::plan::{enumerate_plans, FlatTwig, JoinAlgorithm, Plan};
use crate::prepared::PreparedQuery;
use std::fmt::Write;
use std::sync::{Arc, Mutex};
use xmlest_core::{Axis, TwigNode};
use xmlest_xobs::Stage;

/// Upper bound on enumerated plans (twigs in the paper's experiments
/// have at most a handful of edges; 5040 covers 7 freely-ordered edges).
pub(crate) const PLAN_CAP: usize = 5040;

/// A chosen plan with its estimated and (optionally) measured behaviour.
#[derive(Debug, Clone)]
pub struct ExplainedPlan {
    /// The pattern, flattened to indexed nodes.
    pub twig: FlatTwig,
    /// The chosen plan and its estimated costs.
    pub costed: CostedPlan,
    /// The measured run, when the plan was executed (EXPLAIN ANALYZE).
    pub execution: Option<Execution>,
}

impl ExplainedPlan {
    /// Human-readable EXPLAIN output: one line per join step with
    /// estimated and actual intermediate sizes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "plan cost (estimated): {:.1}", self.costed.total);
        for (i, step) in self.costed.plan.steps.iter().enumerate() {
            let (p, c, axis) = self.twig.edges[step.0];
            let axis_str = match axis {
                Axis::Descendant => "//",
                Axis::Child => "/",
            };
            let actual = self
                .execution
                .as_ref()
                .map(|e| e.step_pairs[i].to_string())
                .unwrap_or_else(|| "-".into());
            let algo = match self.costed.step_algos[i] {
                JoinAlgorithm::Structural => "structural",
                JoinAlgorithm::Navigational => "navigational",
            };
            let _ = writeln!(
                out,
                "  step {i}: join {} {axis_str} {}  [{algo}] est_out={:.1} actual_pairs={actual}",
                self.twig.preds[p], self.twig.preds[c], self.costed.step_outputs[i],
            );
        }
        out
    }
}

/// The planning facade over one database. Cheap to construct (the plan
/// memo lives on the database's prepared entries and persists across
/// planners); hold one wherever plans are needed repeatedly so the cost
/// workspace stays warm.
pub struct Planner<'db> {
    db: &'db Database,
    /// Reused costing scratch; locked only while actually costing (the
    /// memoized path never touches it).
    ws: Mutex<CostWorkspace>,
}

impl<'db> Planner<'db> {
    pub(crate) fn new(db: &'db Database) -> Self {
        Planner {
            db,
            ws: Mutex::new(CostWorkspace::new()),
        }
    }

    /// The database this planner plans over.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// Prepares a query string through the shared cache (parse →
    /// canonicalize → intern → resolve leaves).
    pub fn prepare(&self, path: &str) -> Result<Arc<PreparedQuery>> {
        self.db.prepare(path)
    }

    /// Prepares a pre-built pattern (canonicalize → intern → resolve).
    pub fn prepare_twig(&self, twig: &TwigNode) -> Result<Arc<PreparedQuery>> {
        self.db.prepare_twig(twig)
    }

    /// The cheapest plan for a prepared query, memoized on the entry.
    /// First call per (canonical twig, epoch) enumerates and costs every
    /// connected order; later calls — from any spelling, any planner —
    /// return the shared `Arc`. A stale entry (prepared under an older
    /// epoch) is transparently refreshed first, so the returned plan is
    /// always costed under the database's current summaries.
    pub fn best_plan(&self, prepared: &Arc<PreparedQuery>) -> Result<Arc<CostedPlan>> {
        let entry = self.db.refresh_prepared(prepared)?;
        if let Some(slot) = entry.plan_slot().get() {
            return slot.clone().ok_or_else(Self::no_edges);
        }
        let span = self.db.recorder().span(Stage::Plan);
        let computed = self.compute_best(entry.twig())?;
        drop(span);
        // First write wins on a race; both sides computed the identical
        // deterministic plan.
        let slot = entry.plan_slot().get_or_init(|| computed);
        slot.clone().ok_or_else(Self::no_edges)
    }

    /// Prepares a query string and returns its memoized cheapest plan.
    pub fn plan(&self, path: &str) -> Result<(Arc<PreparedQuery>, Arc<CostedPlan>)> {
        let prepared = self.prepare(path)?;
        let costed = self.best_plan(&prepared)?;
        Ok((prepared, costed))
    }

    /// All plans of a pattern, each priced by the estimator, cheapest
    /// first — the diagnostic/EXPLAIN surface, **always recomputed**
    /// (the uncached baseline benches compare against; EXPLAIN
    /// workloads should prefer [`Planner::ranked_plans`]). Runs on the
    /// shared workspace, canonical flattening.
    pub fn costed_plans(&self, twig: &TwigNode) -> Result<Vec<CostedPlan>> {
        let mut costed: Vec<CostedPlan> = Vec::new();
        if !self.cost_each_plan(twig, |c| costed.push(c))? {
            return Err(Self::no_edges());
        }
        costed.sort_by(|a, b| a.total.total_cmp(&b.total));
        Ok(costed)
    }

    /// The full ranked plan list of a prepared query, cheapest first,
    /// memoized on the entry per (canonical twig, epoch) — repeated
    /// EXPLAIN calls skip re-enumeration and re-costing entirely and
    /// share one `Arc`. A stale entry refreshes first (fresh entries
    /// carry an empty ranked slot), so a ranking costed under old
    /// summaries is never served; edgeless patterns memoize an empty
    /// list and keep returning the plan error.
    pub fn ranked_plans(&self, prepared: &Arc<PreparedQuery>) -> Result<Arc<Vec<CostedPlan>>> {
        let entry = self.db.refresh_prepared(prepared)?;
        let ranked = match entry.ranked_slot().get() {
            Some(r) => r.clone(),
            None => {
                let span = self.db.recorder().span(Stage::Plan);
                let mut costed: Vec<CostedPlan> = Vec::new();
                self.cost_each_plan(entry.twig(), |c| costed.push(c))?;
                costed.sort_by(|a, b| a.total.total_cmp(&b.total));
                drop(span);
                // First write wins on a race; both sides computed the
                // identical deterministic ranking.
                entry.ranked_slot().get_or_init(|| Arc::new(costed)).clone()
            }
        };
        if ranked.is_empty() {
            return Err(Self::no_edges());
        }
        Ok(ranked)
    }

    /// EXPLAIN: cheapest plan, optionally executed for actual numbers.
    /// Runs the full prepared pipeline — the query resolves through the
    /// shared cache and the plan memo.
    pub fn explain(&self, path: &str, analyze: bool) -> Result<ExplainedPlan> {
        let (prepared, costed) = self.plan(path)?;
        let flat = FlatTwig::from_twig(prepared.twig());
        let execution = if analyze {
            Some(execute_plan_with(
                self.db,
                &flat,
                &costed.plan,
                &costed.step_algos,
            )?)
        } else {
            None
        };
        Ok(ExplainedPlan {
            twig: flat,
            costed: (*costed).clone(),
            execution,
        })
    }

    /// Executes a specific plan with all-structural steps (for
    /// best-vs-worst comparisons independent of algorithm choice). The
    /// plan's step indices must refer to the canonical flattening —
    /// which every plan produced by this planner does.
    pub fn execute(&self, twig: &TwigNode, plan: &Plan) -> Result<Execution> {
        let flat = FlatTwig::from_twig(&twig.canonicalize());
        execute_plan(self.db, &flat, plan)
    }

    /// Executes a costed plan honoring its per-step algorithm choices.
    pub fn execute_costed(&self, twig: &TwigNode, costed: &CostedPlan) -> Result<Execution> {
        let flat = FlatTwig::from_twig(&twig.canonicalize());
        execute_plan_with(self.db, &flat, &costed.plan, &costed.step_algos)
    }

    /// Executes a prepared query end to end: refresh to the current
    /// epoch, take (or compute) the memoized cheapest plan, run it.
    pub fn execute_prepared(&self, prepared: &Arc<PreparedQuery>) -> Result<Execution> {
        let fresh = self.db.refresh_prepared(prepared)?;
        let costed = self.best_plan(&fresh)?;
        let flat = FlatTwig::from_twig(fresh.twig());
        execute_plan_with(self.db, &flat, &costed.plan, &costed.step_algos)
    }

    /// Enumerates and costs every connected order of the (canonical)
    /// twig, keeping only the cheapest; `None` for edgeless patterns.
    /// The strict `<` fold keeps the first-enumerated plan on ties —
    /// matching the stable sort the ranked API uses.
    fn compute_best(&self, twig: &TwigNode) -> Result<Option<Arc<CostedPlan>>> {
        let mut best: Option<CostedPlan> = None;
        if !self.cost_each_plan(twig, |c| {
            if best.as_ref().is_none_or(|b| c.total < b.total) {
                best = Some(c);
            }
        })? {
            return Ok(None);
        }
        Ok(best.map(Arc::new))
    }

    /// The one costing loop both ranked and memoized planning share:
    /// canonical flatten, connected-order enumeration (capped at
    /// [`PLAN_CAP`]), shared-workspace costing, one [`CostedPlan`] per
    /// order handed to `visit`. Returns `Ok(false)` — without invoking
    /// `visit` — for edgeless patterns.
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "planning, not estimate serving, holds this lock. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    fn cost_each_plan(&self, twig: &TwigNode, mut visit: impl FnMut(CostedPlan)) -> Result<bool> {
        let canonical = twig.canonicalize();
        let flat = FlatTwig::from_twig(&canonical);
        let plans = enumerate_plans(&flat, PLAN_CAP);
        if plans.is_empty() {
            return Ok(false);
        }
        let est = self.db.summaries().estimator();
        let mut ws = self.ws.lock().expect("planner workspace lock");
        ws.reset();
        for p in &plans {
            let total = cost_plan_with(&est, &flat, p, &mut ws)?;
            visit(CostedPlan {
                plan: p.clone(),
                step_outputs: ws.step_outputs.clone(),
                step_algos: ws.step_algos.clone(),
                step_costs: ws.step_costs.clone(),
                total,
            });
        }
        Ok(true)
    }

    fn no_edges() -> Error {
        Error::Plan("pattern has no edges to join".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlest_core::SummaryConfig;
    use xmlest_query::parse_path;

    fn skewed_db() -> Database {
        let mut xml = String::from("<department>");
        for i in 0..60 {
            xml.push_str("<faculty><name/>");
            for _ in 0..8 {
                xml.push_str("<RA/>");
            }
            if i == 0 {
                xml.push_str("<TA/>");
            }
            xml.push_str("</faculty>");
        }
        xml.push_str("</department>");
        Database::load_str(&xml, &SummaryConfig::paper_defaults().with_grid_size(10)).unwrap()
    }

    #[test]
    fn best_plan_is_memoized_per_identity() {
        let db = skewed_db();
        let planner = db.planner();
        let a = planner
            .prepare("//department//faculty[.//TA][.//RA]")
            .unwrap();
        let b = planner
            .prepare("//department//faculty[.//RA][.//TA]")
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "spellings share one prepared entry");
        assert!(!a.is_planned());
        let plan_a = planner.best_plan(&a).unwrap();
        assert!(a.is_planned());
        let plan_b = planner.best_plan(&b).unwrap();
        assert!(Arc::ptr_eq(&plan_a, &plan_b), "one plan for both spellings");
        // A second planner over the same database shares the memo.
        let other = db.planner();
        let plan_c = other.best_plan(&a).unwrap();
        assert!(Arc::ptr_eq(&plan_a, &plan_c));
    }

    #[test]
    fn best_plan_matches_ranked_enumeration() {
        let db = skewed_db();
        let planner = db.planner();
        let twig = parse_path("//department//faculty[.//TA][.//RA]").unwrap();
        let ranked = planner.costed_plans(&twig).unwrap();
        let prepared = planner.prepare_twig(&twig).unwrap();
        let best = planner.best_plan(&prepared).unwrap();
        assert_eq!(best.plan, ranked[0].plan);
        assert_eq!(best.total.to_bits(), ranked[0].total.to_bits());
    }

    #[test]
    fn canonical_flattening_orders_selective_edge() {
        // Canonical sibling order under faculty is [RA, TA] (sorted by
        // rendering), so the selective faculty//TA edge is index 2.
        let db = skewed_db();
        let planner = db.planner();
        let (_, best) = planner.plan("//department//faculty[.//TA][.//RA]").unwrap();
        let (_, best_swapped) = planner.plan("//department//faculty[.//RA][.//TA]").unwrap();
        assert_eq!(best.plan, best_swapped.plan);
        assert_eq!(best.plan.steps[0].0, 2, "TA edge first: {best:?}");
    }

    #[test]
    fn ranked_plans_memoize_per_identity_and_epoch() {
        let db = skewed_db();
        let planner = db.planner();
        let a = planner
            .prepare("//department//faculty[.//TA][.//RA]")
            .unwrap();
        let ranked = planner.ranked_plans(&a).unwrap();
        // Matches the uncached enumeration exactly.
        let twig = parse_path("//department//faculty[.//TA][.//RA]").unwrap();
        let uncached = planner.costed_plans(&twig).unwrap();
        assert_eq!(ranked.len(), uncached.len());
        for (r, u) in ranked.iter().zip(&uncached) {
            assert_eq!(r.plan, u.plan);
            assert_eq!(r.total.to_bits(), u.total.to_bits());
        }
        // Repeated calls — and equivalent spellings — share one Arc.
        let b = planner
            .prepare("//department//faculty[.//RA][.//TA]")
            .unwrap();
        let again = planner.ranked_plans(&b).unwrap();
        assert!(Arc::ptr_eq(&ranked, &again), "ranking recomputed");
        assert_eq!(db.telemetry().cache.ranked, 1);
        // Edgeless patterns memoize the empty ranking and keep erroring.
        let single = planner.prepare("//faculty").unwrap();
        assert!(planner.ranked_plans(&single).is_err());
        assert!(planner.ranked_plans(&single).is_err());
        assert_eq!(single.cached_ranked_plans().map(|r| r.len()), Some(0));
    }

    #[test]
    fn estimated_order_matches_actual_order() {
        // The headline claim: ranking plans by estimated cost should
        // agree with ranking by actual cost, at least at the extremes.
        let db = skewed_db();
        let planner = db.planner();
        let twig = parse_path("//department//faculty[.//TA][.//RA]").unwrap();
        let costed = planner.costed_plans(&twig).unwrap();
        let best = costed.first().unwrap();
        let worst = costed.last().unwrap();
        let actual_best = planner.execute(&twig, &best.plan).unwrap().total_cost;
        let actual_worst = planner.execute(&twig, &worst.plan).unwrap().total_cost;
        assert!(
            actual_best < actual_worst,
            "estimated-best actual {actual_best} vs estimated-worst actual {actual_worst}"
        );
    }

    #[test]
    fn explain_renders_steps() {
        let db = skewed_db();
        let planner = db.planner();
        let explained = planner.explain("//faculty[.//TA][.//RA]", true).unwrap();
        let text = explained.render();
        assert!(text.contains("plan cost"));
        assert!(text.contains("step 0"));
        assert!(text.contains("actual_pairs="));
        // Without analyze, actuals are dashes.
        let explained = planner.explain("//faculty[.//TA][.//RA]", false).unwrap();
        assert!(explained.render().contains("actual_pairs=-"));
    }

    #[test]
    fn edgeless_pattern_is_a_plan_error() {
        let db = skewed_db();
        let planner = db.planner();
        let prepared = planner.prepare("//faculty").unwrap();
        assert!(matches!(planner.best_plan(&prepared), Err(Error::Plan(_))));
        // The "planned" state is still memoized (slot holds None).
        assert!(prepared.is_planned());
        assert!(prepared.cached_plan().is_none());
        assert!(matches!(planner.best_plan(&prepared), Err(Error::Plan(_))));
    }
}
