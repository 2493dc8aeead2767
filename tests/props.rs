//! Property-based tests over randomly generated trees: the invariants
//! the whole system rests on.

use proptest::prelude::*;
use xmlest::core::{
    ph_join, ph_join_total, summary, Basis, EstimateMethod, Grid, PositionHistogram, Summaries,
    SummaryConfig,
};
use xmlest::prelude::*;
use xmlest::query::count_matches_brute_force;
use xmlest::xml::label;
use xmlest::xml::serialize::{to_xml_string, WriteOptions};

/// Builds a random but well-formed tree from an op tape.
/// 0..=3: open tag `t{op}`; 4..=5: close (when possible); 6: text leaf.
/// Adjacent text siblings are suppressed — XML text round-trips coalesce
/// them, so they cannot occur in parsed documents.
fn build_tree(ops: &[u8]) -> XmlTree {
    let mut b = TreeBuilder::new();
    b.open("t0");
    let mut depth = 1usize;
    let mut last_was_text = vec![false];
    for &op in ops {
        match op % 7 {
            o @ 0..=3 => {
                b.open(&format!("t{o}"));
                depth += 1;
                *last_was_text.last_mut().expect("non-empty") = false;
                last_was_text.push(false);
            }
            4 | 5 => {
                if depth > 1 {
                    b.close().expect("depth tracked");
                    depth -= 1;
                    last_was_text.pop();
                }
            }
            _ => {
                if !*last_was_text.last().expect("non-empty") {
                    b.text("x");
                    *last_was_text.last_mut().expect("non-empty") = true;
                }
            }
        }
    }
    while depth > 0 {
        b.close().expect("depth tracked");
        depth -= 1;
    }
    b.finish().expect("balanced by construction")
}

fn arb_tree(max_ops: usize) -> impl Strategy<Value = XmlTree> {
    prop::collection::vec(0u8..7, 0..max_ops).prop_map(|ops| build_tree(&ops))
}

fn tag_intervals(tree: &XmlTree, tag: &str) -> Vec<Interval> {
    tree.intervals_where(|n| tree.tag_name(n) == Some(tag))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn labeling_invariants(tree in arb_tree(120)) {
        // Parent intervals strictly contain child intervals.
        for n in tree.iter() {
            if let Some(p) = tree.parent(n) {
                prop_assert!(tree.interval(p).is_ancestor_of(tree.interval(n)));
            }
        }
        // All intervals together satisfy containment.
        let all: Vec<Interval> = tree.iter().map(|n| tree.interval(n)).collect();
        prop_assert!(label::check_containment(&all));
    }

    #[test]
    fn histograms_respect_geometry(tree in arb_tree(150), g in 2u16..24) {
        let grid = Grid::uniform(g, tree.max_pos()).unwrap();
        for tag in ["t0", "t1", "t2", "t3"] {
            let ivs = tag_intervals(&tree, tag);
            let h = PositionHistogram::from_intervals(grid.clone(), &ivs);
            prop_assert!(h.upper_triangular());
            prop_assert!(h.satisfies_lemma1(), "tag {tag}");
            prop_assert_eq!(h.total(), ivs.len() as f64);
        }
    }

    #[test]
    fn ph_join_matches_reference(tree in arb_tree(150), g in 2u16..16) {
        let grid = Grid::uniform(g, tree.max_pos()).unwrap();
        let a = PositionHistogram::from_intervals(grid.clone(), &tag_intervals(&tree, "t1"));
        let b = PositionHistogram::from_intervals(grid, &tag_intervals(&tree, "t2"));
        for basis in [Basis::AncestorBased, Basis::DescendantBased] {
            let fast = ph_join(&a, &b, basis).unwrap();
            let slow = xmlest::core::ph_join::ph_join_reference(&a, &b, basis).unwrap();
            prop_assert!((fast.total() - slow.total()).abs() < 1e-6);
        }
    }

    #[test]
    fn primitive_estimate_bounded_by_naive(tree in arb_tree(150), g in 2u16..16) {
        let grid = Grid::uniform(g, tree.max_pos()).unwrap();
        let a_ivs = tag_intervals(&tree, "t1");
        let b_ivs = tag_intervals(&tree, "t2");
        let a = PositionHistogram::from_intervals(grid.clone(), &a_ivs);
        let b = PositionHistogram::from_intervals(grid, &b_ivs);
        let est = ph_join_total(&a, &b, Basis::AncestorBased).unwrap();
        prop_assert!(est >= 0.0);
        prop_assert!(est <= (a_ivs.len() * b_ivs.len()) as f64 + 1e-9);
    }

    #[test]
    fn matcher_dp_equals_brute_force(tree in arb_tree(40), q in 0usize..6) {
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let queries = [
            "//t0//t1",
            "//t1//t2",
            "//t0//t1//t2",
            "//t0[.//t1][.//t2]",
            "//t1/t2",
            "//t0/t1[.//t3]",
        ];
        let twig = parse_path(queries[q]).unwrap();
        // Tags may be absent from small trees; both matchers must agree
        // on the error/value either way.
        let dp = count_matches(&tree, &catalog, &twig);
        let bf = count_matches_brute_force(&tree, &catalog, &twig);
        prop_assert_eq!(dp, bf);
    }

    #[test]
    fn auto_estimate_is_finite_and_nonnegative(tree in arb_tree(120), g in 2u16..20) {
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let summaries = Summaries::build(
            &tree,
            &catalog,
            &SummaryConfig::paper_defaults().with_grid_size(g),
        ).unwrap();
        let est = summaries.estimator();
        for (anc, desc) in [("t0", "t1"), ("t1", "t2"), ("t2", "t3")] {
            if summaries.get(anc).is_none() || summaries.get(desc).is_none() {
                continue;
            }
            let e = est.estimate_pair(anc, desc, EstimateMethod::Auto).unwrap();
            prop_assert!(e.value.is_finite());
            prop_assert!(e.value >= 0.0);
            prop_assert!(e.value <= est.naive_pair(anc, desc).unwrap() + 1e-9);
        }
    }

    #[test]
    fn no_overlap_estimate_bounded_by_descendants(tree in arb_tree(150), g in 2u16..20) {
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let summaries = Summaries::build(
            &tree,
            &catalog,
            &SummaryConfig::paper_defaults().with_grid_size(g),
        ).unwrap();
        let est = summaries.estimator();
        for (anc, desc) in [("t1", "t2"), ("t3", "t1")] {
            let (Some(a), Some(d)) = (summaries.get(anc), summaries.get(desc)) else {
                continue;
            };
            if !(a.no_overlap && a.cvg.is_some()) {
                continue;
            }
            let d_count = d.count as f64;
            let e = est
                .estimate_pair(anc, desc, EstimateMethod::NoOverlap(Basis::AncestorBased))
                .unwrap();
            prop_assert!(e.value <= d_count + 1e-6, "est {} > |desc| {}", e.value, d_count);
        }
    }

    #[test]
    fn serializer_parser_round_trip(tree in arb_tree(100)) {
        let xml = to_xml_string(&tree, WriteOptions::default());
        let reparsed = xmlest::xml::parser::parse_str(&xml).unwrap();
        prop_assert_eq!(reparsed.len(), tree.len());
        prop_assert_eq!(to_xml_string(&reparsed, WriteOptions::default()), xml);
    }

    #[test]
    fn summary_persistence_round_trips(tree in arb_tree(100), g in 2u16..12) {
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let summaries = Summaries::build(
            &tree,
            &catalog,
            &SummaryConfig::paper_defaults().with_grid_size(g),
        ).unwrap();
        let restored = summary::from_bytes(&summary::to_bytes(&summaries)).unwrap();
        prop_assert_eq!(restored.len(), summaries.len());
        for s in summaries.iter() {
            let r = restored.get(&s.name).unwrap();
            prop_assert_eq!(&r.hist, &s.hist);
            prop_assert_eq!(&r.cvg, &s.cvg);
            prop_assert_eq!(r.count, s.count);
        }
    }

    #[test]
    fn ordered_estimate_bounded(tree in arb_tree(150), g in 2u16..16) {
        let grid = Grid::uniform(g, tree.max_pos()).unwrap();
        let a_ivs = tag_intervals(&tree, "t1");
        let b_ivs = tag_intervals(&tree, "t2");
        let a = PositionHistogram::from_intervals(grid.clone(), &a_ivs);
        let b = PositionHistogram::from_intervals(grid, &b_ivs);
        let est = xmlest::core::ordered::estimate_before(&a, &b).unwrap();
        prop_assert!(est >= 0.0);
        prop_assert!(est <= (a_ivs.len() * b_ivs.len()) as f64 + 1e-9);
        let exact = xmlest::core::ordered::exact_before(&a_ivs, &b_ivs);
        prop_assert!(exact as usize <= a_ivs.len() * b_ivs.len());
    }

    #[test]
    fn structural_join_equals_nested_loop(tree in arb_tree(150)) {
        use xmlest::query::structural::{count_ad_pairs, count_ad_pairs_nested_loop};
        let a = tag_intervals(&tree, "t1");
        let b = tag_intervals(&tree, "t2");
        prop_assert_eq!(count_ad_pairs(&a, &b), count_ad_pairs_nested_loop(&a, &b));
    }

    // ---- robustness: parsers must never panic on arbitrary input ----

    #[test]
    fn xml_parser_never_panics(input in "\\PC{0,200}") {
        let _ = xmlest::xml::parser::parse_str(&input);
    }

    #[test]
    fn xml_parser_never_panics_on_markup_soup(
        pieces in prop::collection::vec(
            prop::sample::select(vec![
                "<a>", "</a>", "<b x='1'>", "</b>", "<c/>", "text", "&amp;", "&bad;",
                "<!--", "-->", "<![CDATA[", "]]>", "<?pi?>", "<!DOCTYPE r [", "]>", "<", ">",
                "\"", "'",
            ]),
            0..24,
        )
    ) {
        let doc: String = pieces.concat();
        let _ = xmlest::xml::parser::parse_str(&doc);
    }

    #[test]
    fn dtd_parser_never_panics(input in "\\PC{0,200}") {
        let _ = xmlest::xml::dtd::parse_dtd(&input);
    }

    #[test]
    fn path_parser_never_panics(input in "\\PC{0,80}") {
        let _ = parse_path(&input);
    }

    #[test]
    fn forest_merges_random_trees(trees in prop::collection::vec(prop::collection::vec(0u8..7, 0..40), 1..5)) {
        use xmlest::xml::ForestBuilder;
        let built: Vec<XmlTree> = trees.iter().map(|ops| build_tree(ops)).collect();
        let mut fb = ForestBuilder::new();
        for (i, t) in built.iter().enumerate() {
            fb.add_tree(format!("doc{i}"), t).unwrap();
        }
        let forest = fb.finish().unwrap();
        // Mega-tree node count = 1 + sum of document sizes.
        let expected: usize = 1 + built.iter().map(XmlTree::len).sum::<usize>();
        prop_assert_eq!(forest.tree().len(), expected);
        // Labeling invariants hold across the merged numbering.
        let all: Vec<Interval> = forest.tree().iter().map(|n| forest.tree().interval(n)).collect();
        prop_assert!(label::check_containment(&all));
        // Every non-root node resolves to the right document.
        for (i, doc) in forest.documents().iter().enumerate() {
            let expected_name = format!("doc{i}");
            let members = forest.tree().descendants(doc.root).chain([doc.root]);
            for m in members {
                prop_assert_eq!(
                    forest.document_of(m).map(|d| d.name.as_str()),
                    Some(expected_name.as_str())
                );
            }
        }
    }
}

// ---- flat-storage engine: model-based and cross-validation props ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The flat CSR store must behave exactly like a map under arbitrary
    /// interleavings of set/add/delete, including the epsilon-drop rule.
    #[test]
    fn flat_histogram_matches_map_model(
        g in 2u16..12,
        ops in prop::collection::vec((0u8..4, 0u16..12, 0u16..12, 0u32..64), 0..60),
    ) {
        use std::collections::BTreeMap;
        let grid = Grid::uniform(g, 119).unwrap();
        let g = grid.g(); // may be capped
        let mut h = PositionHistogram::empty(grid);
        let mut model: BTreeMap<(u16, u16), f64> = BTreeMap::new();
        for (sel, i, j, raw) in ops {
            let (i, j) = (i % g, j % g);
            let cell = if i <= j { (i, j) } else { (j, i) };
            let v = raw as f64 * 0.25;
            match sel {
                0 => {
                    h.set(cell, v);
                    if v.abs() > f64::EPSILON {
                        model.insert(cell, v);
                    } else {
                        model.remove(&cell);
                    }
                }
                1 => {
                    h.add(cell, v);
                    let nv = model.get(&cell).copied().unwrap_or(0.0) + v;
                    if nv.abs() > f64::EPSILON {
                        model.insert(cell, nv);
                    } else {
                        model.remove(&cell);
                    }
                }
                2 => {
                    h.set(cell, 0.0);
                    model.remove(&cell);
                }
                _ => {
                    h.add(cell, -v);
                    let nv = model.get(&cell).copied().unwrap_or(0.0) - v;
                    if nv.abs() > f64::EPSILON {
                        model.insert(cell, nv);
                    } else {
                        model.remove(&cell);
                    }
                }
            }
        }
        // Point lookups agree on every cell of the grid.
        for i in 0..g {
            for j in i..g {
                let want = model.get(&(i, j)).copied().unwrap_or(0.0);
                prop_assert!(
                    (h.get((i, j)) - want).abs() < 1e-12,
                    "cell ({i},{j}): {} vs {}", h.get((i, j)), want
                );
            }
        }
        // Aggregates and iteration order agree.
        prop_assert_eq!(h.non_zero_cells(), model.len());
        let want_total: f64 = model.values().sum();
        prop_assert!((h.total() - want_total).abs() < 1e-9);
        let entries: Vec<_> = h.iter().collect();
        let model_entries: Vec<_> = model.iter().map(|(&c, &v)| (c, v)).collect();
        prop_assert_eq!(entries, model_entries);
        // CSR row slices partition the entries.
        let by_rows: Vec<_> = (0..g).flat_map(|i| h.flat().row(i).to_vec()).collect();
        prop_assert_eq!(by_rows.len(), h.non_zero_cells());
    }

    /// Merge-based `plus` equals the model's cell-wise sum.
    #[test]
    fn flat_plus_matches_model(
        g in 2u16..10,
        a_cells in prop::collection::vec((0u16..10, 0u16..10, 1u32..64), 0..25),
        b_cells in prop::collection::vec((0u16..10, 0u16..10, 1u32..64), 0..25),
    ) {
        use std::collections::BTreeMap;
        let grid = Grid::uniform(g, 99).unwrap();
        let g = grid.g();
        let mut model: BTreeMap<(u16, u16), f64> = BTreeMap::new();
        let mut load = |cells: &[(u16, u16, u32)]| {
            let mut h = PositionHistogram::empty(grid.clone());
            for &(i, j, raw) in cells {
                let (i, j) = (i % g, j % g);
                let cell = if i <= j { (i, j) } else { (j, i) };
                let v = raw as f64 * 0.5;
                h.add(cell, v);
                *model.entry(cell).or_insert(0.0) += v;
            }
            h
        };
        let a = load(&a_cells);
        let b = load(&b_cells);
        let sum = a.plus(&b).unwrap();
        for (&cell, &want) in &model {
            prop_assert!((sum.get(cell) - want).abs() < 1e-9, "cell {cell:?}");
        }
        prop_assert!((sum.total() - model.values().sum::<f64>()).abs() < 1e-9);
    }

    /// The lazy-pass workspace kernel agrees with the O(g⁴) region-sum
    /// reference cell for cell on histograms from random trees (which
    /// are Lemma-1-consistent by construction).
    #[test]
    fn ph_join_cells_match_reference(tree in arb_tree(150), g in 2u16..16) {
        let grid = Grid::uniform(g, tree.max_pos()).unwrap();
        let a = PositionHistogram::from_intervals(grid.clone(), &tag_intervals(&tree, "t1"));
        let b = PositionHistogram::from_intervals(grid, &tag_intervals(&tree, "t2"));
        let mut ws = xmlest::core::JoinWorkspace::new();
        let mut out = PositionHistogram::empty(a.grid().clone());
        for basis in [Basis::AncestorBased, Basis::DescendantBased] {
            ws.ph_join_into(&a, &b, basis, &mut out).unwrap();
            let reference = xmlest::core::ph_join::ph_join_reference(&a, &b, basis).unwrap();
            prop_assert_eq!(out.non_zero_cells(), reference.non_zero_cells());
            for ((c1, v1), (c2, v2)) in out.iter().zip(reference.iter()) {
                prop_assert_eq!(c1, c2);
                prop_assert!((v1 - v2).abs() < 1e-9, "{basis:?} cell {c1:?}: {v1} vs {v2}");
            }
            // The total-only kernel agrees with the materialized sum.
            let total = ws.ph_join_total(&a, &b, basis).unwrap();
            prop_assert!((total - reference.total()).abs() < 1e-9);
        }
    }

    /// The merge-based no-overlap kernels (co-merge over CSR coverage
    /// rows + dominance tables) agree with the retained nested-loop
    /// reference implementations cell for cell, including chained joins
    /// that propagate rescaled coverage.
    #[test]
    fn no_overlap_merge_kernels_match_reference(tree in arb_tree(150), g in 2u16..20) {
        use xmlest::core::no_overlap::{
            ancestor_join, ancestor_join_no_overlap_reference, descendant_join,
            descendant_join_no_overlap_reference, NodeStats,
        };
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let summaries = Summaries::build(
            &tree,
            &catalog,
            &SummaryConfig::paper_defaults().with_grid_size(g),
        ).unwrap();
        let close = |a: &PositionHistogram, b: &PositionHistogram| -> std::result::Result<(), proptest::TestCaseError> {
            prop_assert_eq!(a.non_zero_cells(), b.non_zero_cells());
            for ((c1, v1), (c2, v2)) in a.iter().zip(b.iter()) {
                prop_assert_eq!(c1, c2);
                prop_assert!((v1 - v2).abs() < 1e-9 * v2.abs().max(1.0), "cell {:?}: {} vs {}", c1, v1, v2);
            }
            Ok(())
        };
        for (anc, desc, chain) in [("t0", "t1", "t2"), ("t1", "t2", "t3"), ("t2", "t3", "t1")] {
            let (Some(a), Some(d)) = (summaries.get(anc), summaries.get(desc)) else { continue };
            let Some(cvg) = a.cvg.as_ref() else { continue };
            let x = NodeStats::leaf(a.hist.clone(), a.cvg.clone(), true);
            let y = NodeStats::leaf(d.hist.clone(), None, d.no_overlap);
            let merged = ancestor_join(&x, &y).unwrap();
            let reference = ancestor_join_no_overlap_reference(&x, &y, cvg).unwrap();
            close(&merged.hist, &reference.hist)?;
            close(&merged.jn_fct, &reference.jn_fct)?;
            prop_assert!((merged.match_total() - reference.match_total()).abs()
                < 1e-9 * reference.match_total().abs().max(1.0));
            let merged_d = descendant_join(&x, &y).unwrap();
            let reference_d = descendant_join_no_overlap_reference(&x, &y, cvg).unwrap();
            close(&merged_d.hist, &reference_d.hist)?;
            close(&merged_d.jn_fct, &reference_d.jn_fct)?;
            // Chain a second join so the merge path exercises overlay
            // propagation against the reference's materialized rescale.
            if let Some(z) = summaries.get(chain) {
                let z = NodeStats::leaf(z.hist.clone(), None, z.no_overlap);
                let merged2 = ancestor_join(&merged, &z).unwrap();
                let reference2 = ancestor_join_no_overlap_reference(
                    &reference, &z, reference.cvg.as_ref().unwrap()).unwrap();
                close(&merged2.hist, &reference2.hist)?;
                prop_assert!((merged2.match_total() - reference2.match_total()).abs()
                    < 1e-9 * reference2.match_total().abs().max(1.0));
            }
            // Descendant join with a no-overlap descendant: the y-side
            // coverage overlay must rescale identically to the
            // reference's materialized scale_covering pass.
            if d.cvg.is_some() {
                let y_cov = NodeStats::leaf(d.hist.clone(), d.cvg.clone(), true);
                let merged_dc = descendant_join(&x, &y_cov).unwrap();
                let reference_dc =
                    descendant_join_no_overlap_reference(&x, &y_cov, cvg).unwrap();
                close(&merged_dc.hist, &reference_dc.hist)?;
                close(&merged_dc.jn_fct, &reference_dc.jn_fct)?;
                let (mc, rc) = (
                    merged_dc.cvg.as_ref().unwrap(),
                    reference_dc.cvg.as_ref().unwrap(),
                );
                let covering: Vec<_> = rc.covering_cells().collect();
                for i in 0..g {
                    for j in i..g {
                        for &a in &covering {
                            let (mv, rv) = (mc.coverage((i, j), a), rc.coverage((i, j), a));
                            prop_assert!(
                                (mv - rv).abs() < 1e-9 * rv.abs().max(1.0),
                                "coverage of {:?} by {:?}: {} vs {}", (i, j), a, mv, rv
                            );
                        }
                    }
                }
                // Consume the propagated coverage in a further join.
                if let Some(z) = summaries.get(chain) {
                    let z = NodeStats::leaf(z.hist.clone(), None, z.no_overlap);
                    let m2 = ancestor_join(&merged_dc, &z).unwrap();
                    let r2 = ancestor_join_no_overlap_reference(&reference_dc, &z, rc).unwrap();
                    close(&m2.hist, &r2.hist)?;
                    prop_assert!((m2.match_total() - r2.match_total()).abs()
                        < 1e-9 * r2.match_total().abs().max(1.0));
                }
            }
        }
    }
}
