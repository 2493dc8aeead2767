//! Structural analysis of a DTD — the "schema information" of Section 4.
//!
//! From the element/child grammar we derive:
//!
//! * the **descendant closure**: which tags can appear (at any depth)
//!   under which;
//! * the **no-overlap property** (Definition 2): a tag whose nodes can
//!   never nest, i.e. the tag is not reachable from itself;
//! * **impossible pairs**: `desc` not reachable from `anc` ⇒ a query
//!   `anc//desc` has zero matches, no histograms needed;
//! * **sole-parent uniqueness**: if every `child` element can only appear
//!   directly under one tag `p`, then `count(p/child) = count(child)`, and
//!   when additionally `p` has the no-overlap property,
//!   `count(p//child) = count(child)` exactly.

use super::{ContentModel, Dtd};
use std::collections::{BTreeMap, BTreeSet};

/// Precomputed structural facts about a DTD.
#[derive(Debug, Clone)]
pub struct DtdAnalysis {
    /// Direct child edges: parent tag → set of possible child tags.
    children: BTreeMap<String, BTreeSet<String>>,
    /// Descendant closure: tag → set of tags reachable below it.
    closure: BTreeMap<String, BTreeSet<String>>,
    /// child tag → the unique tag it can appear under, if unique.
    sole_parent: BTreeMap<String, Option<String>>,
    /// child tag → parents that *require* at least one occurrence of it.
    required_by: BTreeMap<String, BTreeSet<String>>,
}

impl DtdAnalysis {
    pub fn new(dtd: &Dtd) -> Self {
        let mut children: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut parents: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut required_by: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

        for (name, model) in &dtd.elements {
            let kids: BTreeSet<String> = match model {
                // ANY means "any declared element may appear".
                ContentModel::Any => dtd.elements.keys().cloned().collect(),
                other => other.child_names().into_iter().collect(),
            };
            for k in &kids {
                parents.entry(k.clone()).or_default().insert(name.clone());
            }
            for r in model.required_children() {
                required_by.entry(r).or_default().insert(name.clone());
            }
            children.insert(name.clone(), kids);
        }

        // Descendant closure via BFS from each tag.
        let mut closure: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for name in dtd.elements.keys() {
            let mut seen: BTreeSet<String> = BTreeSet::new();
            let mut frontier: Vec<&str> = vec![name.as_str()];
            while let Some(cur) = frontier.pop() {
                if let Some(kids) = children.get(cur) {
                    for k in kids {
                        if seen.insert(k.clone()) {
                            frontier.push(k.as_str());
                        }
                    }
                }
            }
            closure.insert(name.clone(), seen);
        }

        let sole_parent = parents
            .iter()
            .map(|(child, ps)| {
                let unique = if ps.len() == 1 {
                    #[expect(clippy::expect_used, reason = "branch taken only when ps.len() == 1")]
                    Some(ps.iter().next().expect("len 1").clone())
                } else {
                    None
                };
                (child.clone(), unique)
            })
            .collect();

        DtdAnalysis {
            children,
            closure,
            sole_parent,
            required_by,
        }
    }

    /// Tags that may appear directly under `tag`.
    pub fn child_tags(&self, tag: &str) -> impl Iterator<Item = &str> {
        self.children
            .get(tag)
            .into_iter()
            .flatten()
            .map(String::as_str)
    }

    /// True iff `desc` can appear somewhere below `anc`.
    pub fn can_descend(&self, anc: &str, desc: &str) -> bool {
        self.closure.get(anc).is_some_and(|s| s.contains(desc))
    }

    /// The no-overlap property (Definition 2): nodes with this tag can
    /// never be nested within each other. Derived as "tag not reachable
    /// from itself". Tags not declared in the DTD return `false`
    /// (unknown ⇒ assume overlap possible).
    pub fn no_overlap(&self, tag: &str) -> bool {
        match self.closure.get(tag) {
            Some(desc) => !desc.contains(tag),
            None => false,
        }
    }

    /// If every element with this tag must appear directly under exactly
    /// one parent tag, returns that parent (the `book/author` uniqueness
    /// example of Section 4).
    pub fn sole_parent(&self, tag: &str) -> Option<&str> {
        self.sole_parent.get(tag).and_then(|o| o.as_deref())
    }

    /// Parents whose content model requires at least one `tag` child.
    pub fn required_by(&self, tag: &str) -> impl Iterator<Item = &str> {
        self.required_by
            .get(tag)
            .into_iter()
            .flatten()
            .map(String::as_str)
    }

    /// All tags known to the analysis.
    pub fn tags(&self) -> impl Iterator<Item = &str> {
        self.children.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::parser::{parse_dtd, PAPER_SYNTHETIC_DTD};

    fn paper() -> DtdAnalysis {
        parse_dtd(PAPER_SYNTHETIC_DTD).unwrap().analyze()
    }

    #[test]
    fn paper_dtd_overlap_properties_match_table3() {
        let a = paper();
        // Table 3 of the paper: manager and department overlap;
        // employee, email and name do not.
        assert!(!a.no_overlap("manager"));
        assert!(!a.no_overlap("department"));
        assert!(a.no_overlap("employee"));
        assert!(a.no_overlap("email"));
        assert!(a.no_overlap("name"));
    }

    #[test]
    fn descendant_closure() {
        let a = paper();
        assert!(a.can_descend("manager", "email"));
        assert!(a.can_descend("manager", "manager"));
        assert!(a.can_descend("department", "department"));
        assert!(!a.can_descend("employee", "employee"));
        assert!(!a.can_descend("email", "name"));
        assert!(!a.can_descend("employee", "department"));
    }

    #[test]
    fn sole_parent_uniqueness() {
        let dtd = parse_dtd(
            "<!ELEMENT book (author+, title)><!ELEMENT author (#PCDATA)>
             <!ELEMENT title (#PCDATA)>",
        )
        .unwrap();
        let a = dtd.analyze();
        assert_eq!(a.sole_parent("author"), Some("book"));
        assert_eq!(a.sole_parent("title"), Some("book"));
        assert_eq!(a.sole_parent("book"), None, "book has no declared parent");
        // In the paper DTD, name can appear under manager, department and
        // employee, so it has no sole parent.
        let p = paper();
        assert_eq!(p.sole_parent("name"), None);
        // employee can appear under manager and department.
        assert_eq!(p.sole_parent("employee"), None);
    }

    #[test]
    fn required_by_tracks_mandatory_children() {
        let a = paper();
        let req: Vec<_> = a.required_by("name").collect();
        assert_eq!(req, vec!["department", "employee", "manager"]);
        let req: Vec<_> = a.required_by("email").collect();
        assert!(req.is_empty(), "email is optional everywhere");
        let req: Vec<_> = a.required_by("employee").collect();
        assert_eq!(
            req,
            vec!["department"],
            "manager requires (m|d|e)+ not employee"
        );
    }

    #[test]
    fn any_content_reaches_every_tag() {
        let dtd = parse_dtd("<!ELEMENT a ANY><!ELEMENT b EMPTY>").unwrap();
        let an = dtd.analyze();
        assert!(an.can_descend("a", "b"));
        assert!(an.can_descend("a", "a"));
        assert!(!an.no_overlap("a"));
        assert!(an.no_overlap("b"));
    }

    #[test]
    fn undeclared_tag_defaults() {
        let a = paper();
        assert!(!a.no_overlap("mystery"));
        assert!(!a.can_descend("mystery", "name"));
        assert_eq!(a.sole_parent("mystery"), None);
    }
}
