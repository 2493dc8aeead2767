//! Integration: the optimizer's estimate-driven plan choice pays off on
//! generated data (Section 1's motivation, measured).

use xmlest::core::SummaryConfig;
use xmlest::prelude::*;
use xmlest::xml::serialize::{to_xml_string, WriteOptions};

fn dept_db(seed: u64) -> Database {
    let tree = xmlest::datagen::dept::generate_dept(&xmlest::datagen::dept::DeptOptions {
        seed,
        ..Default::default()
    });
    // Round-trip through XML text to exercise parser + labeling too.
    let xml = to_xml_string(&tree, WriteOptions::default());
    Database::load_str(&xml, &SummaryConfig::paper_defaults()).unwrap()
}

#[test]
fn estimated_best_plan_is_actually_good() {
    let db = dept_db(42);
    let planner = db.planner();
    for q in [
        "//manager//department[.//employee][.//email]",
        "//department[.//employee][.//name]",
        "//manager//employee[.//name][.//email]",
    ] {
        let twig = parse_path(q).unwrap();
        let plans = planner.costed_plans(&twig).unwrap();
        let actual_costs: Vec<u64> = plans
            .iter()
            .map(|p| planner.execute(&twig, &p.plan).unwrap().total_cost)
            .collect();
        let best_actual = actual_costs[0];
        let max_actual = *actual_costs.iter().max().unwrap();
        let min_actual = *actual_costs.iter().min().unwrap();
        // The estimated-best plan must land in the cheap half of the
        // actual-cost range (estimation errors allowed; catastrophic
        // misranking not). When every plan costs within ~10% of the
        // optimum the ranking is inside measurement noise and any pick
        // is fine.
        let midpoint = min_actual + (max_actual - min_actual) / 2;
        assert!(
            best_actual <= midpoint || best_actual * 10 <= min_actual * 11,
            "{q}: estimated-best actual cost {best_actual}, range {min_actual}..{max_actual}"
        );
    }
}

#[test]
fn engine_exact_counts_match_matcher() {
    let db = dept_db(7);
    for q in [
        "//manager//department",
        "//department//email",
        "//employee//name",
        "//manager//department//employee",
    ] {
        let twig = parse_path(q).unwrap();
        let via_matcher = count_matches(db.tree(), db.catalog(), &twig).unwrap();
        let via_db = db.count(q).unwrap();
        assert_eq!(via_matcher, via_db, "{q}");
    }
}

#[test]
fn explain_reports_est_and_actual() {
    let db = dept_db(42);
    let explained = db
        .planner()
        .explain("//manager//department[.//employee][.//email]", true)
        .unwrap();
    let text = explained.render();
    assert!(text.contains("est_out="));
    assert!(text.contains("actual_pairs="));
    assert_eq!(explained.costed.plan.steps.len(), 3);
    let exec = explained.execution.unwrap();
    assert_eq!(exec.step_pairs.len(), 3);
}
