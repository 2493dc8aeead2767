//! The "mega-tree": merging a document collection into one labeled tree.
//!
//! Section 3.1 of the paper: *"we merge all documents in the database
//! into a single mega-tree with a dummy element as the root, and each
//! document as a child subtree. We number nodes in this tree to obtain
//! the desired labels."* A single numbering space means one grid and one
//! histogram set covers the whole database, and cross-document position
//! comparisons are trivially impossible (their intervals are disjoint).
//!
//! [`Forest`] wraps the merged tree and remembers each document's root
//! and name, so per-document views remain available.

use crate::error::Result;
use crate::parser::{parse_into, ParseOptions};
use crate::tree::{NodeId, TreeBuilder, XmlTree};

/// Tag used for the synthetic root of the mega-tree. The leading `#`
/// cannot appear in a parsed element name, so it never collides.
pub const MEGA_ROOT_TAG: &str = "#root";

/// One document registered in the forest.
#[derive(Debug, Clone)]
pub struct DocumentInfo {
    /// Caller-supplied name (file name, URI, ...).
    pub name: String,
    /// Root element of this document inside the mega-tree.
    pub root: NodeId,
}

/// A document collection merged into a single interval-labeled tree.
#[derive(Debug)]
pub struct Forest {
    tree: XmlTree,
    documents: Vec<DocumentInfo>,
}

/// Incremental forest builder.
#[derive(Debug)]
pub struct ForestBuilder {
    builder: TreeBuilder,
    names: Vec<String>,
    roots: Vec<NodeId>,
    opts: ParseOptions,
}

impl Default for ForestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ForestBuilder {
    pub fn new() -> Self {
        Self::with_options(ParseOptions::default())
    }

    pub fn with_options(opts: ParseOptions) -> Self {
        let mut builder = TreeBuilder::new();
        builder.open(MEGA_ROOT_TAG);
        ForestBuilder {
            builder,
            names: Vec::new(),
            roots: Vec::new(),
            opts,
        }
    }

    /// Parses `xml` and appends it as the next document subtree.
    pub fn add_document(&mut self, name: impl Into<String>, xml: &str) -> Result<()> {
        let root = NodeId(self.builder.len() as u32);
        parse_into(&mut self.builder, xml, self.opts)?;
        self.names.push(name.into());
        self.roots.push(root);
        Ok(())
    }

    /// Appends an already-built tree as the next document subtree by
    /// replaying it into the mega-tree builder.
    pub fn add_tree(&mut self, name: impl Into<String>, tree: &XmlTree) -> Result<()> {
        let root = NodeId(self.builder.len() as u32);
        self.replay(tree, tree.root())?;
        self.names.push(name.into());
        self.roots.push(root);
        Ok(())
    }

    fn replay(&mut self, tree: &XmlTree, node: NodeId) -> Result<()> {
        match tree.kind(node) {
            crate::tree::NodeKind::Text => {
                self.builder.text(tree.text(node).unwrap_or(""));
            }
            crate::tree::NodeKind::Element(_) => {
                #[expect(
                    clippy::expect_used,
                    reason = "match arm guarantees an Element node, which always has a tag"
                )]
                self.builder
                    .open(tree.tag_name(node).expect("element has a tag"));
                for attr in tree.attributes(node) {
                    self.builder.attr(&attr.name, &attr.value)?;
                }
                for child in tree.children(node) {
                    self.replay(tree, child)?;
                }
                self.builder.close()?;
            }
        }
        Ok(())
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no document has been added.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Finalizes the mega-tree.
    pub fn finish(mut self) -> Result<Forest> {
        self.builder.close()?;
        let tree = self.builder.finish()?;
        let documents = self
            .names
            .into_iter()
            .zip(self.roots)
            .map(|(name, root)| DocumentInfo { name, root })
            .collect();
        Ok(Forest { tree, documents })
    }
}

impl Forest {
    /// The merged, labeled mega-tree (root tag [`MEGA_ROOT_TAG`]).
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// Consumes the forest, returning the mega-tree.
    pub fn into_tree(self) -> XmlTree {
        self.tree
    }

    /// Registered documents in insertion order.
    pub fn documents(&self) -> &[DocumentInfo] {
        &self.documents
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the forest holds no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// The document a node belongs to, if any (the mega-root belongs to
    /// none). Binary search over document root positions.
    pub fn document_of(&self, node: NodeId) -> Option<&DocumentInfo> {
        if node.0 == 0 {
            return None;
        }
        let idx = self.documents.partition_point(|d| d.root <= node);
        let doc = &self.documents[idx.checked_sub(1)?];
        self.tree
            .interval(doc.root)
            .is_ancestor_of(self.tree.interval(node))
            .then_some(doc)
            .or((doc.root == node).then_some(doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_documents_and_number_continuously() {
        let mut fb = ForestBuilder::new();
        fb.add_document("a.xml", "<a><x/><x/></a>").unwrap();
        fb.add_document("b.xml", "<b><y/></b>").unwrap();
        let forest = fb.finish().unwrap();
        let t = forest.tree();
        // #root + (a, x, x) + (b, y) = 6 nodes.
        assert_eq!(t.len(), 6);
        assert_eq!(t.tag_name(t.root()), Some(MEGA_ROOT_TAG));
        assert_eq!(forest.len(), 2);
        assert_eq!(forest.documents()[0].root, NodeId(1));
        assert_eq!(forest.documents()[1].root, NodeId(4));
        // Intervals of the two documents are disjoint.
        let iv_a = t.interval(NodeId(1));
        let iv_b = t.interval(NodeId(4));
        assert!(iv_a.disjoint(iv_b));
        // And both nested in the mega-root.
        assert!(t.interval(t.root()).is_ancestor_of(iv_a));
        assert!(t.interval(t.root()).is_ancestor_of(iv_b));
    }

    #[test]
    fn document_of_resolves_membership() {
        let mut fb = ForestBuilder::new();
        fb.add_document("a", "<a><x/></a>").unwrap();
        fb.add_document("b", "<b><y><z/></y></b>").unwrap();
        let forest = fb.finish().unwrap();
        assert!(forest.document_of(NodeId(0)).is_none(), "mega-root");
        assert_eq!(forest.document_of(NodeId(1)).unwrap().name, "a");
        assert_eq!(forest.document_of(NodeId(2)).unwrap().name, "a");
        assert_eq!(forest.document_of(NodeId(3)).unwrap().name, "b");
        assert_eq!(forest.document_of(NodeId(5)).unwrap().name, "b");
    }

    #[test]
    fn add_tree_replays_structure_attributes_and_text() {
        let src = crate::parser::parse_str("<d k=\"v\"><e>hi</e></d>").unwrap();
        let mut fb = ForestBuilder::new();
        fb.add_tree("doc", &src).unwrap();
        fb.add_document("other", "<f/>").unwrap();
        let forest = fb.finish().unwrap();
        let t = forest.tree();
        assert_eq!(t.len(), 1 + 3 + 1);
        let d = NodeId(1);
        assert_eq!(t.tag_name(d), Some("d"));
        assert_eq!(t.attributes(d).len(), 1);
        assert_eq!(t.attributes(d)[0].value, "v");
        assert_eq!(t.text_content(d), "hi");
    }

    #[test]
    fn cross_document_ancestry_is_impossible() {
        let mut fb = ForestBuilder::new();
        fb.add_document("a", "<a><x/></a>").unwrap();
        fb.add_document("b", "<a><x/></a>").unwrap();
        let forest = fb.finish().unwrap();
        let t = forest.tree();
        // The first document's <a> is not an ancestor of the second's <x>.
        assert!(!t.is_ancestor(NodeId(1), NodeId(4)));
        assert!(!t.is_ancestor(NodeId(1), NodeId(3)));
    }

    #[test]
    fn empty_and_builder_misuse() {
        let forest = ForestBuilder::new().finish().unwrap();
        assert!(forest.is_empty());
        assert_eq!(forest.tree().len(), 1, "just the mega-root");

        let mut fb = ForestBuilder::new();
        assert!(fb.add_document("bad", "<unclosed>").is_err());
    }
}
