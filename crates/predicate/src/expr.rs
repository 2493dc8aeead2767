//! Boolean combinations of named base predicates.
//!
//! Query nodes may carry predicates that are not in the precomputed set
//! `P` but are boolean combinations of its members (Section 3.4). This
//! module gives them an AST; exact evaluation lives here, and histogram
//! *estimation* for them (per-cell independence, normalized by the TRUE
//! histogram) lives in `xmlest-core::compound`.

use crate::base::BasePredicate;
use crate::catalog::Catalog;
use xmlest_xml::{NodeId, XmlTree};

/// A predicate expression tree over named catalog entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredExpr {
    /// Reference to a named predicate in the catalog.
    Named(String),
    /// Inline base predicate (no catalog entry required).
    Base(BasePredicate),
    And(Box<PredExpr>, Box<PredExpr>),
    Or(Box<PredExpr>, Box<PredExpr>),
    Not(Box<PredExpr>),
}

impl PredExpr {
    /// Convenience constructor for a named reference.
    pub fn named(name: impl Into<String>) -> Self {
        PredExpr::Named(name.into())
    }

    /// Convenience constructor for a tag predicate.
    pub fn tag(name: impl Into<String>) -> Self {
        PredExpr::Base(BasePredicate::Tag(name.into()))
    }

    pub fn and(self, other: PredExpr) -> Self {
        PredExpr::And(Box::new(self), Box::new(other))
    }

    pub fn or(self, other: PredExpr) -> Self {
        PredExpr::Or(Box::new(self), Box::new(other))
    }

    #[expect(
        clippy::should_implement_trait,
        reason = "a builder beside `and` and `or`; `std::ops::Not` would add a second spelling"
    )]
    pub fn not(self) -> Self {
        PredExpr::Not(Box::new(self))
    }

    /// Exact evaluation on one node. Returns `None` when the expression
    /// references a name absent from the catalog.
    pub fn eval(&self, catalog: &Catalog, tree: &XmlTree, node: NodeId) -> Option<bool> {
        Some(match self {
            PredExpr::Named(name) => catalog.get(name)?.predicate.eval(tree, node),
            PredExpr::Base(p) => p.eval(tree, node),
            PredExpr::And(a, b) => a.eval(catalog, tree, node)? && b.eval(catalog, tree, node)?,
            PredExpr::Or(a, b) => a.eval(catalog, tree, node)? || b.eval(catalog, tree, node)?,
            PredExpr::Not(a) => !a.eval(catalog, tree, node)?,
        })
    }

    /// All referenced catalog names, in first-occurrence order.
    pub fn referenced_names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_names(&mut out);
        out
    }

    fn collect_names<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            PredExpr::Named(n) => {
                if !out.contains(&n.as_str()) {
                    out.push(n);
                }
            }
            PredExpr::Base(_) => {}
            PredExpr::And(a, b) | PredExpr::Or(a, b) => {
                a.collect_names(out);
                b.collect_names(out);
            }
            PredExpr::Not(a) => a.collect_names(out),
        }
    }

    /// Canonical form for interning and cache keying: commutative
    /// operands of [`PredExpr::And`]/[`PredExpr::Or`] sort by their
    /// rendering, and double negations collapse. Semantics are unchanged
    /// — [`PredExpr::eval`] is operand-order independent, and the
    /// per-cell estimation formulas (product for AND, inclusion–
    /// exclusion for OR) are commutative even in floating point — so two
    /// spellings of the same boolean combination normalize to one
    /// expression, sharing one interned identity downstream.
    pub fn normalize(&self) -> PredExpr {
        match self {
            PredExpr::Named(_) | PredExpr::Base(_) => self.clone(),
            PredExpr::And(a, b) => Self::ordered(a.normalize(), b.normalize(), PredExpr::And),
            PredExpr::Or(a, b) => Self::ordered(a.normalize(), b.normalize(), PredExpr::Or),
            PredExpr::Not(a) => match a.normalize() {
                PredExpr::Not(inner) => *inner,
                n => PredExpr::Not(Box::new(n)),
            },
        }
    }

    /// Rebuilds a commutative node with its operands in display order.
    fn ordered(
        a: PredExpr,
        b: PredExpr,
        build: fn(Box<PredExpr>, Box<PredExpr>) -> PredExpr,
    ) -> PredExpr {
        if a.to_string() <= b.to_string() {
            build(Box::new(a), Box::new(b))
        } else {
            build(Box::new(b), Box::new(a))
        }
    }

    /// Exact count of nodes satisfying the expression.
    pub fn count(&self, catalog: &Catalog, tree: &XmlTree) -> Option<usize> {
        let mut n = 0;
        for node in tree.iter() {
            if self.eval(catalog, tree, node)? {
                n += 1;
            }
        }
        Some(n)
    }
}

impl std::fmt::Display for PredExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredExpr::Named(n) => write!(f, "{n}"),
            PredExpr::Base(b) => write!(f, "[{}]", b.describe()),
            PredExpr::And(a, b) => write!(f, "({a} AND {b})"),
            PredExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            PredExpr::Not(a) => write!(f, "(NOT {a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use xmlest_xml::parser::parse_str;

    fn setup() -> (Catalog, XmlTree) {
        let tree = parse_str(
            "<lib><book><year>1985</year></book><book><year>1994</year></book>\
             <article><year>1994</year></article></lib>",
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.define("book", BasePredicate::Tag("book".into()));
        cat.define("article", BasePredicate::Tag("article".into()));
        cat.define("y1985", BasePredicate::ContentEquals("1985".into()));
        cat.define("y1994", BasePredicate::ContentEquals("1994".into()));
        (cat, tree)
    }

    #[test]
    fn boolean_combinators() {
        let (cat, tree) = setup();
        let book_or_article = PredExpr::named("book").or(PredExpr::named("article"));
        assert_eq!(book_or_article.count(&cat, &tree), Some(3));

        let both_years = PredExpr::named("y1985").or(PredExpr::named("y1994"));
        assert_eq!(both_years.count(&cat, &tree), Some(3));

        let impossible = PredExpr::named("book").and(PredExpr::named("article"));
        assert_eq!(impossible.count(&cat, &tree), Some(0));

        let not_book = PredExpr::named("book").not();
        assert_eq!(not_book.count(&cat, &tree), Some(tree.len() - 2));
    }

    #[test]
    fn inline_base_predicates() {
        let (cat, tree) = setup();
        let e = PredExpr::tag("book");
        assert_eq!(e.count(&cat, &tree), Some(2));
    }

    #[test]
    fn missing_name_yields_none() {
        let (cat, tree) = setup();
        let e = PredExpr::named("ghost").or(PredExpr::named("book"));
        assert_eq!(e.eval(&cat, &tree, tree.root()), None);
        assert_eq!(e.count(&cat, &tree), None);
    }

    #[test]
    fn referenced_names_deduplicated_in_order() {
        let e = PredExpr::named("b")
            .or(PredExpr::named("a"))
            .and(PredExpr::named("b").not());
        assert_eq!(e.referenced_names(), vec!["b", "a"]);
    }

    #[test]
    fn display_formatting() {
        let e = PredExpr::named("a").and(PredExpr::named("b").not());
        assert_eq!(e.to_string(), "(a AND (NOT b))");
    }

    #[test]
    fn normalize_sorts_commutative_operands() {
        let ab = PredExpr::named("a").and(PredExpr::named("b"));
        let ba = PredExpr::named("b").and(PredExpr::named("a"));
        assert_eq!(ab.normalize(), ba.normalize());
        let ab_or = PredExpr::named("a").or(PredExpr::named("b"));
        let ba_or = PredExpr::named("b").or(PredExpr::named("a"));
        assert_eq!(ab_or.normalize(), ba_or.normalize());
        // AND and OR stay distinct.
        assert_ne!(ab.normalize(), ab_or.normalize());
    }

    #[test]
    fn normalize_collapses_double_negation() {
        let e = PredExpr::named("a").not().not();
        assert_eq!(e.normalize(), PredExpr::named("a"));
        let triple = PredExpr::named("a").not().not().not();
        assert_eq!(triple.normalize(), PredExpr::named("a").not());
    }

    #[test]
    fn normalize_recurses_and_preserves_semantics() {
        let (cat, tree) = setup();
        let e = PredExpr::named("y1994")
            .or(PredExpr::named("y1985"))
            .and(PredExpr::named("book").not().not());
        let n = e.normalize();
        assert_eq!(e.count(&cat, &tree), n.count(&cat, &tree));
        // Nested commutative nodes sort too.
        let mirrored = PredExpr::named("book")
            .and(PredExpr::named("y1985").or(PredExpr::named("y1994")))
            .normalize();
        assert_eq!(n, mirrored);
    }
}
