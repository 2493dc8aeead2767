//! A small path-expression language for twig patterns.
//!
//! Grammar (a pragmatic XPath subset matching the paper's queries):
//!
//! ```text
//! path    :=  ('/' | '//')? step (('/' | '//') step)*
//! step    :=  name branch*
//! branch  :=  '[' ('.')? ('/' | '//')? path ']'
//! name    :=  '*' | [^/\[\]()]+
//! ```
//!
//! * `//` between steps means ancestor–descendant, `/` parent–child.
//!   A leading axis on the whole path is accepted and ignored (the first
//!   step is the pattern root).
//! * Inside a branch, a leading `.//` or `//` means descendant; `./`,
//!   `/`, or nothing means child.
//! * `*` is "any element". Any other name refers to a catalog predicate —
//!   which covers plain tags (`faculty`) and exotic entries (`=1990`,
//!   `conf*∗`-style prefix names, `1990's`) alike.
//!
//! The parser produces [`TwigNode`]s — the estimation layer's pattern
//! type — so parsed queries flow directly into both the estimator and the
//! exact matcher. Example: the Fig. 2 query is
//! `//department/faculty[.//TA][.//RA]`.

use crate::error::{Error, Result};
use xmlest_core::{Axis, TwigNode};
use xmlest_predicate::{BasePredicate, PredExpr};

/// Parses a path expression into a twig pattern.
pub fn parse_path(input: &str) -> Result<TwigNode> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let (node, _) = p.parse_path()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(node)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse {
            msg: msg.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Parses an axis prefix; `default` applies when none is present.
    fn parse_axis(&mut self, default: Axis) -> Axis {
        if self.eat("//") {
            Axis::Descendant
        } else if self.eat("/") {
            Axis::Child
        } else {
            default
        }
    }

    /// Parses `step (axis step)*`, returning the root node (whose own
    /// `axis` field is set to the leading axis, meaningful only inside
    /// branches) .
    fn parse_path(&mut self) -> Result<(TwigNode, Axis)> {
        let lead = self.parse_axis(Axis::Descendant);
        let mut first = self.parse_step()?;
        first.axis = lead;
        let mut steps: Vec<TwigNode> = vec![first];
        loop {
            self.skip_ws();
            if matches!(self.peek(), Some(b'/')) {
                let axis = self.parse_axis(Axis::Descendant);
                let mut step = self.parse_step()?;
                step.axis = axis;
                steps.push(step);
            } else {
                break;
            }
        }
        // Fold right-to-left: each step becomes the sole trailing child of
        // its predecessor; every node's `axis` is the edge leading into it.
        #[expect(
            clippy::expect_used,
            reason = "parser rejected empty paths before building steps"
        )]
        let mut current = steps.pop().expect("at least one step");
        while let Some(mut parent) = steps.pop() {
            parent.children.push(current);
            current = parent;
        }
        Ok((current, lead))
    }

    fn parse_step(&mut self) -> Result<TwigNode> {
        self.skip_ws();
        let name = self.parse_name()?;
        let pred = if name == "*" {
            PredExpr::Base(BasePredicate::AnyElement)
        } else {
            PredExpr::named(name)
        };
        let mut node = TwigNode::with_pred(pred);
        // Branch predicates.
        loop {
            self.skip_ws();
            if !self.eat("[") {
                break;
            }
            self.skip_ws();
            let _ = self.eat("."); // ".//x" == "//x", "./x" == "/x"
            let axis = self.parse_axis(Axis::Child);
            let (mut branch, _) = self.parse_path()?;
            branch.axis = axis;
            self.skip_ws();
            if !self.eat("]") {
                return Err(self.err("expected ']'"));
            }
            node.children.push(branch);
        }
        Ok(node)
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if matches!(c, b'/' | b'[' | b']' | b' ' | b'\t') {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("empty step name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in name"))?
            .to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_of(node: &TwigNode) -> String {
        node.pred.to_string()
    }

    #[test]
    fn single_step() {
        let t = parse_path("faculty").unwrap();
        assert_eq!(name_of(&t), "faculty");
        assert!(t.children.is_empty());
    }

    #[test]
    fn leading_axes_accepted() {
        for q in ["//faculty", "/faculty", "faculty"] {
            let t = parse_path(q).unwrap();
            assert_eq!(name_of(&t), "faculty");
        }
    }

    #[test]
    fn chain_with_mixed_axes() {
        let t = parse_path("//a//b/c").unwrap();
        assert_eq!(name_of(&t), "a");
        assert_eq!(t.children.len(), 1);
        let b = &t.children[0];
        assert_eq!(name_of(b), "b");
        assert_eq!(b.axis, Axis::Descendant);
        let c = &b.children[0];
        assert_eq!(name_of(c), "c");
        assert_eq!(c.axis, Axis::Child);
    }

    #[test]
    fn fig2_pattern() {
        let t = parse_path("//department/faculty[.//TA][.//RA]").unwrap();
        assert_eq!(name_of(&t), "department");
        let fac = &t.children[0];
        assert_eq!(name_of(fac), "faculty");
        assert_eq!(fac.axis, Axis::Child);
        assert_eq!(fac.children.len(), 2);
        assert_eq!(name_of(&fac.children[0]), "TA");
        assert_eq!(fac.children[0].axis, Axis::Descendant);
        assert_eq!(name_of(&fac.children[1]), "RA");
        assert_eq!(fac.children[1].axis, Axis::Descendant);
    }

    #[test]
    fn branch_axis_defaults_to_child() {
        let t = parse_path("a[b][.//c][/d]").unwrap();
        assert_eq!(t.children[0].axis, Axis::Child);
        assert_eq!(t.children[1].axis, Axis::Descendant);
        assert_eq!(t.children[2].axis, Axis::Child);
    }

    #[test]
    fn nested_branches() {
        let t = parse_path("a[b[.//c]//d]").unwrap();
        let b = &t.children[0];
        assert_eq!(name_of(b), "b");
        // b has branch c and path-continuation d.
        assert_eq!(b.children.len(), 2);
        assert_eq!(name_of(&b.children[0]), "c");
        assert_eq!(name_of(&b.children[1]), "d");
        assert_eq!(b.children[1].axis, Axis::Descendant);
    }

    #[test]
    fn star_is_any_element() {
        let t = parse_path("*//b").unwrap();
        assert_eq!(t.pred, PredExpr::Base(BasePredicate::AnyElement));
    }

    #[test]
    fn exotic_catalog_names() {
        let t = parse_path("//article//=1990").unwrap();
        assert_eq!(name_of(&t.children[0]), "=1990");
        let t = parse_path("//year//1990's").unwrap();
        assert_eq!(name_of(&t.children[0]), "1990's");
    }

    #[test]
    fn errors() {
        assert!(parse_path("").is_err());
        assert!(parse_path("a[").is_err());
        assert!(parse_path("a[b").is_err());
        assert!(parse_path("a]").is_err());
        assert!(parse_path("a//").is_err());
        assert!(parse_path("[b]").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let t = parse_path("  //a [ .//b ] / c ").unwrap();
        assert_eq!(name_of(&t), "a");
        assert_eq!(t.children.len(), 2);
        assert_eq!(name_of(&t.children[0]), "b");
        assert_eq!(name_of(&t.children[1]), "c");
        assert_eq!(t.children[1].axis, Axis::Child);
    }
}
