//! A from-scratch, non-validating XML parser.
//!
//! Supports the XML subset needed by the paper's workloads (and a bit
//! more): elements, attributes, character data, CDATA sections, comments,
//! processing instructions, numeric and predefined entities, an XML
//! declaration, and a `<!DOCTYPE>` whose *internal subset* is captured
//! verbatim so [`crate::dtd`] can analyze it.
//!
//! Two entry points:
//! * [`parse_str`] — one document, one tree;
//! * [`parse_into`] — appends a document's root under the currently open
//!   element of an existing [`TreeBuilder`], which is how several documents
//!   are merged into the paper's single "mega-tree" with a dummy root.

use crate::error::{Error, Result};
use crate::tree::{TreeBuilder, XmlTree};

/// Parser configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParseOptions {
    /// Keep text nodes consisting solely of whitespace. Off by default:
    /// indentation between elements should not produce nodes (it would
    /// distort node counts and position histograms).
    pub keep_whitespace_text: bool,
}

/// Result of [`parse_document`]: the tree plus the raw internal DTD subset
/// (the text between `[` and `]` of the DOCTYPE), if any.
#[derive(Debug)]
pub struct Parsed {
    pub tree: XmlTree,
    pub internal_dtd: Option<String>,
}

/// Parses a complete document into a fresh tree.
pub fn parse_str(input: &str) -> Result<XmlTree> {
    Ok(parse_document(input, ParseOptions::default())?.tree)
}

/// Parses a complete document, also returning the internal DTD subset.
pub fn parse_document(input: &str, opts: ParseOptions) -> Result<Parsed> {
    let mut b = TreeBuilder::new();
    let internal_dtd = Cursor::new(input, opts).run(&mut b)?;
    Ok(Parsed {
        tree: b.finish()?,
        internal_dtd,
    })
}

/// Parses a document and appends its root element as a child of the
/// currently open element of `builder`. Returns the internal DTD subset.
pub fn parse_into(
    builder: &mut TreeBuilder,
    input: &str,
    opts: ParseOptions,
) -> Result<Option<String>> {
    let depth_before = builder.open_depth();
    let dtd = Cursor::new(input, opts).run(builder)?;
    debug_assert_eq!(builder.open_depth(), depth_before);
    Ok(dtd)
}

struct Cursor<'a> {
    input: &'a [u8],
    pos: usize,
    opts: ParseOptions,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str, opts: ParseOptions) -> Self {
        let mut pos = 0;
        // Skip a UTF-8 BOM if present.
        if input.as_bytes().starts_with(&[0xEF, 0xBB, 0xBF]) {
            pos = 3;
        }
        Cursor {
            input: input.as_bytes(),
            pos,
            opts,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(Error::parse(msg, self.pos))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.eat(s) {
            Ok(())
        } else {
            self.err(format!("expected {s:?}"))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Main loop. Returns the internal DTD subset if a DOCTYPE carried one.
    fn run(mut self, b: &mut TreeBuilder) -> Result<Option<String>> {
        let mut internal_dtd = None;
        let base_depth = b.open_depth();
        let mut roots_seen = 0usize;
        let mut text = String::new();
        // Names of open elements, for end-tag validation.
        let mut open_names: Vec<String> = Vec::new();

        loop {
            match self.peek() {
                None => break,
                Some(b'<') => {
                    let after = self.pos + 1;
                    match self.input.get(after).copied() {
                        // Comments and PIs do not break up character data.
                        Some(b'?') => self.skip_pi()?,
                        Some(b'!') => {
                            if self.input[after..].starts_with(b"!--") {
                                self.skip_comment()?;
                            } else if self.input[after..].starts_with(b"![CDATA[") {
                                let cd = self.read_cdata()?;
                                if b.open_depth() == base_depth {
                                    return self.err("character data outside root element");
                                }
                                text.push_str(cd);
                            } else if self.input[after..].starts_with(b"!DOCTYPE") {
                                self.flush_text(b, &mut text, base_depth, roots_seen)?;
                                if b.open_depth() > base_depth || roots_seen > 0 {
                                    return self.err("DOCTYPE inside content");
                                }
                                internal_dtd = self.read_doctype()?;
                            } else {
                                return self.err("unrecognized markup after '<!'");
                            }
                        }
                        Some(b'/') => {
                            self.flush_text(b, &mut text, base_depth, roots_seen)?;
                            self.pos = after + 1;
                            let name = self.read_name()?;
                            self.skip_ws();
                            self.expect(">")?;
                            match open_names.pop() {
                                None => {
                                    return self.err(format!("unmatched end tag </{name}>"));
                                }
                                Some(open) if open != name => {
                                    return self.err(format!(
                                        "end tag </{name}> does not match open <{open}>"
                                    ));
                                }
                                Some(_) => {}
                            }
                            b.close()
                                .map_err(|e| Error::parse(e.to_string(), self.pos))?;
                        }
                        _ => {
                            // Start tag.
                            self.flush_text(b, &mut text, base_depth, roots_seen)?;
                            self.pos = after;
                            if b.open_depth() == base_depth {
                                roots_seen += 1;
                                if roots_seen > 1 {
                                    return self.err("more than one root element");
                                }
                            }
                            if let Some(name) = self.read_start_tag(b)? {
                                open_names.push(name);
                            }
                        }
                    }
                }
                Some(_) => {
                    let chunk = self.read_text()?;
                    text.push_str(&chunk);
                }
            }
        }
        self.flush_text(b, &mut text, base_depth, roots_seen)?;
        if b.open_depth() > base_depth {
            return self.err("unclosed element at end of input");
        }
        if roots_seen == 0 {
            return self.err("no root element");
        }
        Ok(internal_dtd)
    }

    fn flush_text(
        &self,
        b: &mut TreeBuilder,
        text: &mut String,
        base_depth: usize,
        roots_seen: usize,
    ) -> Result<()> {
        if text.is_empty() {
            return Ok(());
        }
        let only_ws = text.chars().all(|c| c.is_ascii_whitespace());
        if b.open_depth() == base_depth {
            // Outside the root element only whitespace is allowed.
            if !only_ws {
                return self.err(if roots_seen == 0 {
                    "character data before root element"
                } else {
                    "character data after root element"
                });
            }
        } else if !only_ws || self.opts.keep_whitespace_text {
            b.text(text);
        }
        text.clear();
        Ok(())
    }

    /// Parses a start tag. Returns the element name when the element was
    /// left open (i.e. not a self-closing `<name/>`).
    fn read_start_tag(&mut self, b: &mut TreeBuilder) -> Result<Option<String>> {
        let name = self.read_name()?;
        b.open(&name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Some(name));
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(">")?;
                    b.close()
                        .map_err(|e| Error::parse(e.to_string(), self.pos))?;
                    return Ok(None);
                }
                Some(_) => {
                    let aname = self.read_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.read_quoted()?;
                    b.attr(&aname, &value)
                        .map_err(|e| Error::parse(e.to_string(), self.pos))?;
                }
                None => return self.err("unterminated start tag"),
            }
        }
    }

    fn read_name(&mut self) -> Result<String> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => {
                self.pos += 1;
            }
            _ => return self.err("expected a name"),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.pos += 1;
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| Error::parse("invalid UTF-8 in name", start))?
            .to_owned())
    }

    fn read_quoted(&mut self) -> Result<String> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected quoted value"),
        };
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated attribute value"),
                Some(c) if c == quote => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'&') => {
                    let e = self.read_entity()?;
                    out.push_str(&e);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote || c == b'&' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| Error::parse("invalid UTF-8", start))?,
                    );
                }
            }
        }
    }

    fn read_text(&mut self) -> Result<String> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => return Ok(out),
                Some(b'&') => {
                    let e = self.read_entity()?;
                    out.push_str(&e);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' || c == b'&' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| Error::parse("invalid UTF-8 in text", start))?,
                    );
                }
            }
        }
    }

    fn read_entity(&mut self) -> Result<String> {
        let start = self.pos;
        self.expect("&")?;
        if self.eat("#") {
            let hex = self.eat("x");
            let dstart = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            #[expect(
                clippy::unwrap_used,
                reason = "every byte in the range passed is_ascii_hexdigit; ASCII is valid UTF-8"
            )]
            let digits = std::str::from_utf8(&self.input[dstart..self.pos]).unwrap();
            self.expect(";")?;
            let code = u32::from_str_radix(digits, if hex { 16 } else { 10 })
                .map_err(|_| Error::parse("bad character reference", start))?;
            let ch = char::from_u32(code)
                .ok_or_else(|| Error::parse("invalid character reference", start))?;
            return Ok(ch.to_string());
        }
        let name = self.read_name()?;
        self.expect(";")?;
        let decoded = match name.as_str() {
            "lt" => "<",
            "gt" => ">",
            "amp" => "&",
            "apos" => "'",
            "quot" => "\"",
            other => {
                return Err(Error::parse(format!("unknown entity &{other};"), start));
            }
        };
        Ok(decoded.to_owned())
    }

    fn skip_pi(&mut self) -> Result<()> {
        self.expect("<?")?;
        match find(self.input, self.pos, b"?>") {
            Some(end) => {
                self.pos = end + 2;
                Ok(())
            }
            None => self.err("unterminated processing instruction"),
        }
    }

    fn skip_comment(&mut self) -> Result<()> {
        self.expect("<!--")?;
        match find(self.input, self.pos, b"-->") {
            Some(end) => {
                self.pos = end + 3;
                Ok(())
            }
            None => self.err("unterminated comment"),
        }
    }

    fn read_cdata(&mut self) -> Result<&'a str> {
        self.expect("<![CDATA[")?;
        match find(self.input, self.pos, b"]]>") {
            Some(end) => {
                let s = std::str::from_utf8(&self.input[self.pos..end])
                    .map_err(|_| Error::parse("invalid UTF-8 in CDATA", self.pos))?;
                self.pos = end + 3;
                Ok(s)
            }
            None => self.err("unterminated CDATA section"),
        }
    }

    /// Reads `<!DOCTYPE name [internal subset]? >`, returning the internal
    /// subset text if present.
    fn read_doctype(&mut self) -> Result<Option<String>> {
        self.expect("<!DOCTYPE")?;
        let mut subset = None;
        let mut depth = 0usize;
        loop {
            match self.bump() {
                None => return self.err("unterminated DOCTYPE"),
                Some(b'[') => {
                    let start = self.pos;
                    depth += 1;
                    // Internal subsets do not nest '[' in our supported
                    // grammar, but tolerate it.
                    while depth > 0 {
                        match self.bump() {
                            None => return self.err("unterminated DOCTYPE subset"),
                            Some(b'[') => depth += 1,
                            Some(b']') => depth -= 1,
                            Some(_) => {}
                        }
                    }
                    let text = std::str::from_utf8(&self.input[start..self.pos - 1])
                        .map_err(|_| Error::parse("invalid UTF-8 in DTD", start))?;
                    subset = Some(text.to_owned());
                }
                Some(b'>') => return Ok(subset),
                Some(_) => {}
            }
        }
    }
}

#[inline]
fn is_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b':' || c >= 0x80
}

#[inline]
fn is_name_char(c: u8) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == b'-' || c == b'.'
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;

    #[test]
    fn parses_simple_document() {
        let t = parse_str("<a><b>hi</b><c/></a>").unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.tag_name(t.root()), Some("a"));
        let kids: Vec<_> = t.children(t.root()).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.tag_name(kids[0]), Some("b"));
        assert_eq!(t.direct_text(kids[0]), "hi");
        assert_eq!(t.tag_name(kids[1]), Some("c"));
    }

    #[test]
    fn whitespace_between_elements_is_dropped_by_default() {
        let t = parse_str("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(t.len(), 3);
        let kept = parse_document(
            "<a>\n  <b/>\n</a>",
            ParseOptions {
                keep_whitespace_text: true,
            },
        )
        .unwrap()
        .tree;
        assert_eq!(kept.len(), 4); // a, "\n  ", b, "\n"
    }

    #[test]
    fn entities_are_decoded() {
        let t =
            parse_str("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos; &#65;&#x42;</a>").unwrap();
        assert_eq!(t.direct_text(t.root()), "<x> & \"y\" 'z' AB");
    }

    #[test]
    fn unknown_entity_is_an_error() {
        let err = parse_str("<a>&nope;</a>").unwrap_err();
        assert!(err.to_string().contains("unknown entity"));
    }

    #[test]
    fn attributes_parsed_with_both_quote_styles() {
        let t = parse_str(r#"<a x="1" y='two &amp; three'/>"#).unwrap();
        let attrs = t.attributes(t.root());
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].name, "x");
        assert_eq!(attrs[0].value, "1");
        assert_eq!(attrs[1].value, "two & three");
    }

    #[test]
    fn cdata_becomes_text() {
        let t = parse_str("<a><![CDATA[<not> &markup;]]></a>").unwrap();
        assert_eq!(t.direct_text(t.root()), "<not> &markup;");
    }

    #[test]
    fn comments_and_pis_are_skipped() {
        let t = parse_str("<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><?pi data?><b/></a>")
            .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn doctype_internal_subset_is_captured() {
        let doc = "<!DOCTYPE a [<!ELEMENT a (b*)><!ELEMENT b EMPTY>]><a><b/></a>";
        let parsed = parse_document(doc, ParseOptions::default()).unwrap();
        let dtd = parsed.internal_dtd.unwrap();
        assert!(dtd.contains("<!ELEMENT a (b*)>"));
        assert_eq!(parsed.tree.len(), 2);
    }

    #[test]
    fn doctype_without_subset() {
        let parsed =
            parse_document("<!DOCTYPE a SYSTEM \"a.dtd\"><a/>", ParseOptions::default()).unwrap();
        assert!(parsed.internal_dtd.is_none());
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse_str("<a><b></a></b>").is_err());
        assert!(parse_str("<a>").is_err());
        assert!(parse_str("</a>").is_err());
        assert!(parse_str("<a/><b/>").is_err());
        assert!(parse_str("x<a/>").is_err());
        assert!(parse_str("<a/>x").is_err());
        assert!(parse_str("").is_err());
    }

    #[test]
    fn text_coalesces_around_comments() {
        let t = parse_str("<a>one<!-- c -->two</a>").unwrap();
        // Two text nodes would also be acceptable semantically; we coalesce.
        let texts: Vec<_> = t
            .iter()
            .filter(|&n| t.kind(n) == NodeKind::Text)
            .map(|n| t.text(n).unwrap().to_owned())
            .collect();
        assert_eq!(texts, vec!["onetwo".to_owned()]);
    }

    #[test]
    fn parse_into_builds_mega_tree() {
        let mut b = TreeBuilder::new();
        b.open("#root");
        parse_into(&mut b, "<doc1><x/></doc1>", ParseOptions::default()).unwrap();
        parse_into(&mut b, "<doc2/>", ParseOptions::default()).unwrap();
        b.close().unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.len(), 4);
        let kids: Vec<_> = t
            .children(t.root())
            .map(|c| t.tag_name(c).unwrap().to_owned())
            .collect();
        assert_eq!(kids, vec!["doc1".to_owned(), "doc2".to_owned()]);
    }

    #[test]
    fn bom_is_skipped() {
        let doc = "\u{FEFF}<a/>";
        assert!(parse_str(doc).is_ok());
    }

    #[test]
    fn deeply_nested_document() {
        let mut doc = String::new();
        for _ in 0..2000 {
            doc.push_str("<d>");
        }
        for _ in 0..2000 {
            doc.push_str("</d>");
        }
        let t = parse_str(&doc).unwrap();
        assert_eq!(t.len(), 2000);
        assert_eq!(t.depth(crate::tree::NodeId(1999)), 1999);
    }
}
