//! The Section 1 motivation, executed: a cost-based optimizer choosing
//! structural-join orders with nothing but position-histogram estimates.
//!
//! Loads a department document (the paper's synthetic DTD), plans the
//! Fig. 2 twig `//department//faculty[//TA][//RA]`-style query under
//! every connected join order, picks the cheapest by *estimated* cost,
//! then executes the best and worst plans and compares actual
//! intermediate-result sizes.
//!
//! Run with: `cargo run --release --example query_optimizer`

use xmlest::core::SummaryConfig;
use xmlest::datagen::dept::{generate_dept, DeptOptions};
use xmlest::engine::Database;
use xmlest::prelude::*;
use xmlest::xml::serialize::{to_xml_string, WriteOptions};

fn main() {
    // Generate the paper's synthetic data set and round-trip it through
    // the XML parser (exercising the full substrate).
    let generated = generate_dept(&DeptOptions::default());
    let xml = to_xml_string(&generated, WriteOptions::default());
    let db = Database::load_str(&xml, &SummaryConfig::paper_defaults()).expect("database loads");
    println!("database: {} nodes", db.tree().len());

    let query = "//manager//department[.//employee][.//email]";
    println!("query: {query}\n");

    let planner = db.planner();
    let twig = parse_path(query).expect("query parses");
    // The full ranking is memoized per (canonical twig, epoch):
    // repeated EXPLAIN calls share one Arc and skip re-enumeration.
    let prepared = planner.prepare_twig(&twig).expect("query prepares");
    let plans = planner.ranked_plans(&prepared).expect("plans enumerate");
    println!("{} connected join orders considered", plans.len());

    let best = plans.first().expect("at least one plan").clone();
    let worst = plans.last().expect("at least one plan").clone();

    let best_exec = planner.execute_costed(&twig, &best).expect("best executes");
    let worst_exec = planner
        .execute_costed(&twig, &worst)
        .expect("worst executes");

    println!(
        "\nbest plan (by estimate):   est cost {:>10.1}  actual cost {:>8}",
        best.total, best_exec.total_cost
    );
    println!(
        "worst plan (by estimate):  est cost {:>10.1}  actual cost {:>8}",
        worst.total, worst_exec.total_cost
    );
    println!(
        "actual speedup of picking the estimated-best plan: {:.2}x",
        worst_exec.total_cost as f64 / best_exec.total_cost.max(1) as f64
    );

    // EXPLAIN ANALYZE the chosen plan.
    println!("\nEXPLAIN ANALYZE (best plan):");
    let explained = planner.explain(query, true).expect("explain");
    print!("{}", explained.render());

    // Sanity: the engine's answer matches the exact matcher.
    let exact = db.count(query).expect("exact count");
    let estimate = db.estimate(query).expect("estimate");
    println!(
        "\nexact matches: {exact}   estimated: {:.1}   ({:?})",
        estimate.value, estimate.elapsed
    );
}
