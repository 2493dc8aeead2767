//! Arena-based node-labeled tree in document order.
//!
//! Nodes are stored in a flat `Vec` in pre-order (document) position, which
//! means a [`NodeId`] doubles as the node's *start* label: the interval
//! labeling of Section 3.1 of the paper falls out of the representation for
//! free (see [`crate::label`]). The subtree of a node occupies a contiguous
//! index range `[id, subtree_end]`, so descendant iteration, subtree counts
//! and range-based prefix sums (used by the exact matcher in
//! `xmlest-query`) are all O(1)/O(k) with no pointer chasing.

use crate::error::{Error, Result};
use crate::label::Interval;
use crate::tag::{TagId, TagInterner};

/// Sentinel for "no node".
const NIL: u32 = u32::MAX;

/// Identifier of a node; equals the node's pre-order (document) position,
/// and therefore also its *start* label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the tree's node arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is: an element with an interned tag, or a text node whose
/// content lives in the tree's text table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    Element(TagId),
    Text,
}

#[derive(Debug, Clone)]
struct NodeRaw {
    parent: u32,
    next_sibling: u32,
    /// Index of the last node in this node's subtree (== own index for a
    /// leaf). This is exactly the *end* label of the paper's numbering.
    subtree_end: u32,
    /// Tag id for elements; `NIL` for text nodes.
    tag: u32,
    /// Index into `texts` for text nodes; `NIL` for elements.
    text: u32,
    /// Root has depth 0.
    depth: u32,
}

/// An attribute attached to an element node. Attributes do not receive
/// interval labels (the paper's predicates are over elements and text), but
/// they are preserved for round-tripping and future predicate kinds.
#[derive(Debug, Clone)]
pub struct Attr {
    pub node: NodeId,
    pub name: String,
    pub value: String,
}

/// An immutable node-labeled tree with document-order storage.
#[derive(Debug, Clone)]
pub struct XmlTree {
    nodes: Vec<NodeRaw>,
    texts: Vec<String>,
    tags: TagInterner,
    /// Attributes sorted by owning node id (builder appends in order).
    attrs: Vec<Attr>,
}

impl XmlTree {
    /// Number of nodes (elements + text nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no nodes. A finished builder never produces
    /// an empty tree, but a deserialized value might.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node (always id 0).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Tag interner for this tree.
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// The kind of `id`.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        let n = &self.nodes[id.index()];
        if n.tag == NIL {
            NodeKind::Text
        } else {
            NodeKind::Element(TagId(n.tag))
        }
    }

    /// Tag of `id` if it is an element.
    pub fn tag(&self, id: NodeId) -> Option<TagId> {
        let t = self.nodes[id.index()].tag;
        (t != NIL).then_some(TagId(t))
    }

    /// Tag name of `id` if it is an element.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        self.tag(id).map(|t| self.tags.name(t))
    }

    /// Text content of `id` if it is a text node.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        let t = self.nodes[id.index()].text;
        (t != NIL).then(|| self.texts[t as usize].as_str())
    }

    /// Parent of `id`, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.nodes[id.index()].parent;
        (p != NIL).then_some(NodeId(p))
    }

    /// First child in document order, if any.
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        let n = &self.nodes[id.index()];
        (n.subtree_end > id.0).then_some(NodeId(id.0 + 1))
    }

    /// Next sibling in document order, if any.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        let s = self.nodes[id.index()].next_sibling;
        (s != NIL).then_some(NodeId(s))
    }

    /// Iterates the direct children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            tree: self,
            next: self.first_child(id),
        }
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].depth
    }

    /// The `(start, end)` interval label of `id` (Section 3.1): `start` is
    /// the pre-order position, `end` the largest start in the subtree.
    pub fn interval(&self, id: NodeId) -> Interval {
        Interval {
            start: id.0,
            end: self.nodes[id.index()].subtree_end,
        }
    }

    /// The largest position value in the tree (the paper's `Max(X)`);
    /// equals `len() - 1`.
    pub fn max_pos(&self) -> u32 {
        (self.nodes.len().saturating_sub(1)) as u32
    }

    /// True iff `a` is a proper ancestor of `d` (never true for `a == d`).
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        self.interval(a).is_ancestor_of(self.interval(d))
    }

    /// Iterates all node ids in document order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates the proper descendants of `id` in document order.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let end = self.nodes[id.index()].subtree_end;
        (id.0 + 1..=end).filter(move |_| end > id.0).map(NodeId)
    }

    /// Number of proper descendants of `id`.
    pub fn descendant_count(&self, id: NodeId) -> usize {
        (self.nodes[id.index()].subtree_end - id.0) as usize
    }

    /// Concatenated content of the *direct* text children of an element;
    /// for a text node, its own content. Used by content predicates.
    pub fn direct_text(&self, id: NodeId) -> String {
        if let Some(t) = self.text(id) {
            return t.to_owned();
        }
        let mut out = String::new();
        for c in self.children(id) {
            if let Some(t) = self.text(c) {
                out.push_str(t);
            }
        }
        out
    }

    /// Concatenated text of the whole subtree, in document order.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        if let Some(t) = self.text(id) {
            out.push_str(t);
        }
        for d in self.descendants(id) {
            if let Some(t) = self.text(d) {
                out.push_str(t);
            }
        }
        out
    }

    /// Attributes of `id` (empty slice for text nodes / attribute-less
    /// elements).
    pub fn attributes(&self, id: NodeId) -> &[Attr] {
        let lo = self.attrs.partition_point(|a| a.node < id);
        let hi = self.attrs.partition_point(|a| a.node <= id);
        &self.attrs[lo..hi]
    }

    /// All intervals of nodes matching `pred`, in document order. This is
    /// the raw input to position-histogram construction.
    pub fn intervals_where(&self, mut pred: impl FnMut(NodeId) -> bool) -> Vec<Interval> {
        self.iter()
            .filter(|&id| pred(id))
            .map(|id| self.interval(id))
            .collect()
    }

    /// Appends `doc`'s whole tree as a new **last child of this tree's
    /// root**, returning the appended subtree's root id.
    ///
    /// Cost is O(`doc`) — the appended nodes land at the tail of the
    /// pre-order arena, so no existing node's id, interval or depth
    /// changes; only the root's `end` label grows. This is what makes a
    /// slack-grid `add_document` O(new document): the mega-tree extends
    /// in place instead of being replayed. The result is structurally
    /// identical to rebuilding the forest with `doc` appended (tag ids
    /// may differ; tags are resolved by name).
    pub fn append_document_subtree(&mut self, doc: &XmlTree) -> NodeId {
        let offset = self.nodes.len() as u32;
        let text_offset = self.texts.len() as u32;
        // Resolve the document's tag ids into this tree's interner.
        let tag_map: Vec<u32> = (0..doc.tags.len() as u32)
            .map(|t| self.tags.intern(doc.tags.name(TagId(t))).0)
            .collect();
        // Link the previous last top-level subtree to the new one.
        if let Some(first) = self.first_child(NodeId(0)) {
            let mut last = first;
            while let Some(next) = self.next_sibling(last) {
                last = next;
            }
            self.nodes[last.index()].next_sibling = offset;
        }
        self.nodes.reserve(doc.nodes.len());
        for n in &doc.nodes {
            self.nodes.push(NodeRaw {
                parent: if n.parent == NIL {
                    0
                } else {
                    n.parent + offset
                },
                next_sibling: if n.next_sibling == NIL {
                    NIL
                } else {
                    n.next_sibling + offset
                },
                subtree_end: n.subtree_end + offset,
                tag: if n.tag == NIL {
                    NIL
                } else {
                    tag_map[n.tag as usize]
                },
                text: if n.text == NIL {
                    NIL
                } else {
                    n.text + text_offset
                },
                depth: n.depth + 1,
            });
        }
        self.texts.extend(doc.texts.iter().cloned());
        self.attrs.extend(doc.attrs.iter().map(|a| Attr {
            node: NodeId(a.node.0 + offset),
            name: a.name.clone(),
            value: a.value.clone(),
        }));
        self.nodes[0].subtree_end = (self.nodes.len() - 1) as u32;
        NodeId(offset)
    }
}

/// Iterator over direct children.
pub struct Children<'a> {
    tree: &'a XmlTree,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.next_sibling(cur);
        Some(cur)
    }
}

/// Incremental builder producing an [`XmlTree`] in document order.
///
/// The builder enforces pre-order construction: `open` pushes an element,
/// `text` adds a leaf, `close` pops. `finish` validates that exactly one
/// top-level node was produced (use an explicit synthetic root such as
/// `#root` when merging several documents into the paper's "mega-tree").
#[derive(Debug, Default)]
pub struct TreeBuilder {
    nodes: Vec<NodeRaw>,
    texts: Vec<String>,
    tags: TagInterner,
    attrs: Vec<Attr>,
    /// Stack of open element indices.
    stack: Vec<u32>,
    /// Last completed child at each open level (for sibling links); the
    /// entry at `stack.len()` tracks top-level nodes.
    last_child: Vec<u32>,
    top_level: u32,
}

impl TreeBuilder {
    pub fn new() -> Self {
        Self {
            top_level: NIL,
            last_child: vec![NIL],
            ..Default::default()
        }
    }

    /// Interns a tag without adding a node (useful for pre-registering a
    /// deterministic tag order).
    pub fn intern(&mut self, name: &str) -> TagId {
        self.tags.intern(name)
    }

    fn push_node(&mut self, tag: u32, text: u32) -> NodeId {
        let idx = self.nodes.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NIL);
        let depth = self.stack.len() as u32;
        // Link the previous sibling at this level to the new node.
        let level = self.stack.len();
        if self.last_child[level] != NIL {
            self.nodes[self.last_child[level] as usize].next_sibling = idx;
        } else if parent == NIL && self.top_level == NIL {
            self.top_level = idx;
        }
        self.last_child[level] = idx;
        self.nodes.push(NodeRaw {
            parent,
            next_sibling: NIL,
            subtree_end: idx,
            tag,
            text,
            depth,
        });
        NodeId(idx)
    }

    /// Opens an element with the given tag name.
    pub fn open(&mut self, tag: &str) -> NodeId {
        let t = self.tags.intern(tag);
        self.open_id(t)
    }

    /// Opens an element with an already-interned tag.
    pub fn open_id(&mut self, tag: TagId) -> NodeId {
        let id = self.push_node(tag.0, NIL);
        self.stack.push(id.0);
        self.last_child.push(NIL);
        id
    }

    /// Adds a text leaf under the innermost open element.
    pub fn text(&mut self, content: &str) -> NodeId {
        let tidx = self.texts.len() as u32;
        self.texts.push(content.to_owned());
        self.push_node(NIL, tidx)
    }

    /// Attaches an attribute to the innermost open element.
    pub fn attr(&mut self, name: &str, value: &str) -> Result<()> {
        let Some(&owner) = self.stack.last() else {
            return Err(Error::Builder("attr() with no open element".into()));
        };
        self.attrs.push(Attr {
            node: NodeId(owner),
            name: name.to_owned(),
            value: value.to_owned(),
        });
        Ok(())
    }

    /// Closes the innermost open element, fixing its subtree end label.
    pub fn close(&mut self) -> Result<()> {
        let Some(idx) = self.stack.pop() else {
            return Err(Error::Builder("close() with no open element".into()));
        };
        self.last_child.pop();
        let end = (self.nodes.len() - 1) as u32;
        self.nodes[idx as usize].subtree_end = end;
        Ok(())
    }

    /// Number of currently open elements.
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// Number of nodes emitted so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finalizes the tree. Fails if elements are still open, nothing was
    /// built, or more than one top-level node exists.
    pub fn finish(self) -> Result<XmlTree> {
        if !self.stack.is_empty() {
            return Err(Error::Builder(format!(
                "{} element(s) left open",
                self.stack.len()
            )));
        }
        if self.nodes.is_empty() {
            return Err(Error::Builder("empty tree".into()));
        }
        if self.nodes[self.top_level as usize].next_sibling != NIL {
            return Err(Error::Builder(
                "multiple top-level nodes; wrap documents in a synthetic root".into(),
            ));
        }
        Ok(XmlTree {
            nodes: self.nodes,
            texts: self.texts,
            tags: self.tags,
            attrs: self.attrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the six-person department document of Fig. 1 of the paper.
    pub(crate) fn fig1_tree() -> XmlTree {
        let mut b = TreeBuilder::new();
        b.open("department");
        b.open("faculty"); // faculty 1
        b.open("name");
        b.close().unwrap();
        b.open("RA");
        b.close().unwrap();
        b.close().unwrap();
        b.open("staff");
        b.open("name");
        b.close().unwrap();
        b.close().unwrap();
        b.open("faculty"); // faculty 2
        for t in ["name", "secretary", "RA", "RA", "RA"] {
            b.open(t);
            b.close().unwrap();
        }
        b.close().unwrap();
        b.open("lecturer");
        for t in ["name", "TA", "TA", "TA"] {
            b.open(t);
            b.close().unwrap();
        }
        b.close().unwrap();
        b.open("faculty"); // faculty 3
        for t in ["name", "secretary", "TA", "RA", "RA", "TA"] {
            b.open(t);
            b.close().unwrap();
        }
        b.close().unwrap();
        b.open("research_scientist");
        for t in ["name", "secretary", "RA", "RA", "RA", "RA"] {
            b.open(t);
            b.close().unwrap();
        }
        b.close().unwrap();
        b.close().unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn fig1_shape() {
        let t = fig1_tree();
        assert_eq!(t.len(), 31);
        let faculty = t.tags().get("faculty").unwrap();
        let ta = t.tags().get("TA").unwrap();
        let n_fac = t.iter().filter(|&n| t.tag(n) == Some(faculty)).count();
        let n_ta = t.iter().filter(|&n| t.tag(n) == Some(ta)).count();
        assert_eq!(n_fac, 3, "paper: three faculty nodes");
        assert_eq!(n_ta, 5, "paper: five TA nodes");
    }

    #[test]
    fn intervals_nest_properly() {
        let t = fig1_tree();
        // Root covers everything.
        assert_eq!(t.interval(t.root()), Interval { start: 0, end: 30 });
        for n in t.iter() {
            let iv = t.interval(n);
            assert!(iv.start <= iv.end);
            if let Some(p) = t.parent(n) {
                let piv = t.interval(p);
                assert!(piv.start < iv.start && piv.end >= iv.end);
            }
        }
    }

    #[test]
    fn ancestor_relation_matches_parent_chain() {
        let t = fig1_tree();
        for a in t.iter() {
            for d in t.iter() {
                let by_interval = t.is_ancestor(a, d);
                let mut cur = t.parent(d);
                let mut by_chain = false;
                while let Some(p) = cur {
                    if p == a {
                        by_chain = true;
                        break;
                    }
                    cur = t.parent(p);
                }
                assert_eq!(by_interval, by_chain, "a={a:?} d={d:?}");
            }
        }
    }

    #[test]
    fn children_iteration() {
        let t = fig1_tree();
        let kids: Vec<_> = t
            .children(t.root())
            .map(|c| t.tag_name(c).unwrap().to_owned())
            .collect();
        assert_eq!(
            kids,
            vec![
                "faculty",
                "staff",
                "faculty",
                "lecturer",
                "faculty",
                "research_scientist"
            ]
        );
        for c in t.children(t.root()) {
            assert_eq!(t.parent(c), Some(t.root()));
            assert_eq!(t.depth(c), 1);
        }
    }

    #[test]
    fn text_nodes_and_direct_text() {
        let mut b = TreeBuilder::new();
        b.open("book");
        b.open("title");
        b.text("XML ");
        b.text("Estimation");
        b.close().unwrap();
        b.open("year");
        b.text("1999");
        b.close().unwrap();
        b.close().unwrap();
        let t = b.finish().unwrap();
        let title = t.iter().find(|&n| t.tag_name(n) == Some("title")).unwrap();
        assert_eq!(t.direct_text(title), "XML Estimation");
        assert_eq!(t.text_content(t.root()), "XML Estimation1999");
        let texts: Vec<_> = t.iter().filter(|&n| t.kind(n) == NodeKind::Text).collect();
        assert_eq!(texts.len(), 3);
        assert_eq!(t.direct_text(texts[2]), "1999");
    }

    #[test]
    fn attributes_attach_to_innermost_element() {
        let mut b = TreeBuilder::new();
        b.open("a");
        b.attr("id", "1").unwrap();
        b.open("b");
        b.attr("x", "y").unwrap();
        b.attr("z", "w").unwrap();
        b.close().unwrap();
        b.close().unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.attributes(NodeId(0)).len(), 1);
        let battrs = t.attributes(NodeId(1));
        assert_eq!(battrs.len(), 2);
        assert_eq!(battrs[0].name, "x");
        assert_eq!(battrs[1].value, "w");
    }

    #[test]
    fn builder_misuse_is_rejected() {
        let mut b = TreeBuilder::new();
        assert!(b.close().is_err());

        let mut b = TreeBuilder::new();
        b.open("a");
        assert!(b.finish().is_err(), "unclosed element");

        let b = TreeBuilder::new();
        assert!(b.finish().is_err(), "empty tree");

        let mut b = TreeBuilder::new();
        b.open("a");
        b.close().unwrap();
        b.open("b");
        b.close().unwrap();
        assert!(b.finish().is_err(), "two roots");

        let mut b = TreeBuilder::new();
        assert!(b.attr("k", "v").is_err(), "attr with no open element");
    }

    #[test]
    fn descendant_count_and_iteration_agree() {
        let t = fig1_tree();
        for n in t.iter() {
            assert_eq!(t.descendants(n).count(), t.descendant_count(n));
        }
        assert_eq!(t.descendant_count(t.root()), 30);
    }

    #[test]
    fn append_subtree_matches_forest_replay() {
        use crate::forest::ForestBuilder;
        let a = crate::parser::parse_str("<a k=\"v\"><x>hi</x><x/></a>").unwrap();
        let b = crate::parser::parse_str("<b><y><z/></y>tail</b>").unwrap();

        // Reference: replay both documents through the forest builder.
        let mut fb = ForestBuilder::new();
        fb.add_tree("a", &a).unwrap();
        fb.add_tree("b", &b).unwrap();
        let want = fb.finish().unwrap().into_tree();

        // Incremental: build the forest with only `a`, then append `b`.
        let mut fb = ForestBuilder::new();
        fb.add_tree("a", &a).unwrap();
        let mut got = fb.finish().unwrap().into_tree();
        let appended_root = got.append_document_subtree(&b);
        assert_eq!(appended_root, NodeId(a.len() as u32 + 1));

        assert_eq!(got.len(), want.len());
        for n in want.iter() {
            assert_eq!(got.interval(n), want.interval(n), "{n:?}");
            assert_eq!(got.depth(n), want.depth(n), "{n:?}");
            assert_eq!(got.parent(n), want.parent(n), "{n:?}");
            assert_eq!(got.next_sibling(n), want.next_sibling(n), "{n:?}");
            assert_eq!(got.tag_name(n), want.tag_name(n), "{n:?}");
            assert_eq!(got.text(n), want.text(n), "{n:?}");
            assert_eq!(got.attributes(n).len(), want.attributes(n).len());
        }
        // Sibling chain under the root sees the appended document.
        let kids: Vec<_> = got.children(got.root()).collect();
        assert_eq!(kids, vec![NodeId(1), appended_root]);
    }

    #[test]
    fn interval_equals_id_and_subtree_end() {
        let t = fig1_tree();
        // First faculty: id 1, subtree = {name, RA} -> end 3.
        assert_eq!(t.interval(NodeId(1)), Interval { start: 1, end: 3 });
        // Leaf: end == start.
        assert_eq!(t.interval(NodeId(2)), Interval { start: 2, end: 2 });
    }
}
