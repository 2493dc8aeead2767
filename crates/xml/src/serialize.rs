//! Serializing trees back to XML text.
//!
//! Used by the data generators to materialize documents (so the parser is
//! exercised end-to-end) and by round-trip property tests.

use crate::tree::{NodeId, NodeKind, XmlTree};
use std::fmt::Write;

/// Serialization style.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions {
    /// Pretty-print with two-space indentation. Note that pretty-printed
    /// output re-parses to the same tree only when whitespace text nodes
    /// are dropped (the parser default).
    pub indent: bool,
}

/// Serializes the whole tree.
pub fn to_xml_string(tree: &XmlTree, opts: WriteOptions) -> String {
    let mut out = String::new();
    write_node(tree, tree.root(), opts, 0, &mut out);
    out
}

/// Serializes the subtree rooted at `node`.
pub fn subtree_to_xml_string(tree: &XmlTree, node: NodeId, opts: WriteOptions) -> String {
    let mut out = String::new();
    write_node(tree, node, opts, 0, &mut out);
    out
}

fn write_node(tree: &XmlTree, node: NodeId, opts: WriteOptions, depth: usize, out: &mut String) {
    match tree.kind(node) {
        NodeKind::Text => {
            indent(opts, depth, out);
            escape_text(tree.text(node).unwrap_or(""), out);
            newline(opts, out);
        }
        NodeKind::Element(_) => {
            #[expect(
                clippy::expect_used,
                reason = "match arm guarantees an Element node, which always has a tag"
            )]
            let name = tree.tag_name(node).expect("element has a tag");
            indent(opts, depth, out);
            out.push('<');
            out.push_str(name);
            for attr in tree.attributes(node) {
                let _ = write!(out, " {}=\"", attr.name);
                escape_attr(&attr.value, out);
                out.push('"');
            }
            if tree.first_child(node).is_none() {
                out.push_str("/>");
                newline(opts, out);
                return;
            }
            out.push('>');
            // Text-only elements render inline even when pretty-printing,
            // so that indentation never alters character data.
            let text_only = tree.children(node).all(|c| tree.kind(c) == NodeKind::Text);
            if text_only {
                for child in tree.children(node) {
                    escape_text(tree.text(child).unwrap_or(""), out);
                }
            } else {
                newline(opts, out);
                for child in tree.children(node) {
                    write_node(tree, child, opts, depth + 1, out);
                }
                indent(opts, depth, out);
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
            newline(opts, out);
        }
    }
}

fn indent(opts: WriteOptions, depth: usize, out: &mut String) {
    if opts.indent {
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn newline(opts: WriteOptions, out: &mut String) {
    if opts.indent {
        out.push('\n');
    }
}

fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            other => out.push(other),
        }
    }
}

fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            other => out.push(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_str;
    use crate::tree::TreeBuilder;

    #[test]
    fn compact_round_trip() {
        let doc = "<a x=\"1\"><b>hi &amp; bye</b><c/></a>";
        let tree = parse_str(doc).unwrap();
        let out = to_xml_string(&tree, WriteOptions::default());
        assert_eq!(out, doc);
        // Second round trip is a fixed point.
        let tree2 = parse_str(&out).unwrap();
        assert_eq!(to_xml_string(&tree2, WriteOptions::default()), out);
    }

    #[test]
    fn pretty_output_reparses_to_same_shape() {
        let doc = "<a><b>text</b><c><d/></c></a>";
        let tree = parse_str(doc).unwrap();
        let pretty = to_xml_string(&tree, WriteOptions { indent: true });
        assert!(pretty.contains("\n"));
        let reparsed = parse_str(&pretty).unwrap();
        assert_eq!(reparsed.len(), tree.len());
        assert_eq!(to_xml_string(&reparsed, WriteOptions::default()), doc);
    }

    #[test]
    fn escaping_special_characters() {
        let mut b = TreeBuilder::new();
        b.open("a");
        b.attr("k", "x\"<>&").unwrap();
        b.text("1 < 2 & 3 > 2");
        b.close().unwrap();
        let tree = b.finish().unwrap();
        let out = to_xml_string(&tree, WriteOptions::default());
        assert_eq!(
            out,
            "<a k=\"x&quot;&lt;&gt;&amp;\">1 &lt; 2 &amp; 3 &gt; 2</a>"
        );
        let back = parse_str(&out).unwrap();
        assert_eq!(back.direct_text(back.root()), "1 < 2 & 3 > 2");
    }

    #[test]
    fn subtree_serialization() {
        let tree = parse_str("<a><b><c/></b><d/></a>").unwrap();
        let b = tree.children(tree.root()).next().unwrap();
        assert_eq!(
            subtree_to_xml_string(&tree, b, WriteOptions::default()),
            "<b><c/></b>"
        );
    }
}
