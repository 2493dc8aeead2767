//! Parser for the internal DTD subset.
//!
//! Supports `<!ELEMENT name content-model>` declarations with the full
//! content-particle grammar (sequences, choices, nesting, `? * +`
//! quantifiers, `EMPTY`, `ANY`, `(#PCDATA)` and mixed content).
//! `<!ATTLIST>`, `<!ENTITY>` and `<!NOTATION>` declarations, comments and
//! processing instructions are recognized and skipped.

use super::content::{ContentModel, ContentParticle, ParticleKind, Quantifier};
use super::Dtd;
use crate::error::{Error, Result};

/// Parses the text of an internal DTD subset (the part between `[` and `]`
/// of a DOCTYPE, or a standalone `.dtd` file body).
pub fn parse_dtd(input: &str) -> Result<Dtd> {
    let mut p = DtdCursor {
        input: input.as_bytes(),
        pos: 0,
    };
    let mut dtd = Dtd::default();
    loop {
        p.skip_ws_and_comments()?;
        if p.peek().is_none() {
            return Ok(dtd);
        }
        if p.eat("<!ELEMENT") {
            p.require_ws()?;
            let name = p.read_name()?;
            p.require_ws()?;
            let model = p.read_content_model()?;
            p.skip_ws();
            p.expect(">")?;
            if dtd.elements.insert(name.clone(), model).is_some() {
                return Err(Error::dtd(format!("duplicate <!ELEMENT {name}>"), p.pos));
            }
        } else if p.eat("<!ATTLIST") || p.eat("<!ENTITY") || p.eat("<!NOTATION") {
            p.skip_until_gt()?;
        } else if p.eat("<?") {
            p.skip_until("?>")?;
        } else {
            return Err(Error::dtd("expected a declaration", p.pos));
        }
    }
}

struct DtdCursor<'a> {
    input: &'a [u8],
    pos: usize,
}

impl DtdCursor<'_> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(Error::dtd(msg, self.pos))
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

    fn require_ws(&mut self) -> Result<()> {
        if !matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            return self.err("expected whitespace");
        }
        self.skip_ws();
        Ok(())
    }

    fn skip_ws_and_comments(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.eat("<!--") {
                self.skip_until("-->")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, s: &str) -> Result<()> {
        let needle = s.as_bytes();
        match self.input[self.pos..]
            .windows(needle.len())
            .position(|w| w == needle)
        {
            Some(p) => {
                self.pos += p + needle.len();
                Ok(())
            }
            None => self.err(format!("unterminated construct (looking for {s:?})")),
        }
    }

    /// Skips to the matching `>` of a declaration we don't interpret,
    /// ignoring `>` inside quoted strings.
    fn skip_until_gt(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                None => return self.err("unterminated declaration"),
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(q @ (b'"' | b'\'')) => {
                    self.pos += 1;
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == q {
                            break;
                        }
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn read_name(&mut self) -> Result<String> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => self.pos += 1,
            _ => return self.err("expected a name"),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.pos += 1;
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| Error::dtd("invalid UTF-8 in name", start))?
            .to_owned())
    }

    fn read_quantifier(&mut self) -> Quantifier {
        match self.peek() {
            Some(b'?') => {
                self.pos += 1;
                Quantifier::Opt
            }
            Some(b'*') => {
                self.pos += 1;
                Quantifier::Star
            }
            Some(b'+') => {
                self.pos += 1;
                Quantifier::Plus
            }
            _ => Quantifier::One,
        }
    }

    fn read_content_model(&mut self) -> Result<ContentModel> {
        if self.eat("EMPTY") {
            return Ok(ContentModel::Empty);
        }
        if self.eat("ANY") {
            return Ok(ContentModel::Any);
        }
        if self.peek() != Some(b'(') {
            return self.err("expected '(' or EMPTY or ANY");
        }
        // Look ahead for #PCDATA.
        let save = self.pos;
        self.pos += 1;
        self.skip_ws();
        if self.eat("#PCDATA") {
            self.skip_ws();
            if self.eat(")") {
                // (#PCDATA) possibly followed by '*'.
                let _ = self.read_quantifier();
                return Ok(ContentModel::PcData);
            }
            // Mixed content: (#PCDATA | a | b)*
            let mut names = Vec::new();
            loop {
                self.skip_ws();
                if self.eat(")") {
                    break;
                }
                self.expect("|")?;
                self.skip_ws();
                names.push(self.read_name()?);
            }
            self.expect("*")?;
            return Ok(ContentModel::Mixed(names));
        }
        // Pure element content: rewind and parse the particle grammar.
        self.pos = save;
        let particle = self.read_group()?;
        Ok(ContentModel::Children(particle))
    }

    /// Parses `( cp ((',' cp)* | ('|' cp)*) )` + quantifier.
    fn read_group(&mut self) -> Result<ContentParticle> {
        self.expect("(")?;
        self.skip_ws();
        let first = self.read_cp()?;
        self.skip_ws();
        let mut parts = vec![first];
        let sep = match self.peek() {
            Some(b',') => Some(b','),
            Some(b'|') => Some(b'|'),
            Some(b')') => None,
            _ => return self.err("expected ',', '|' or ')'"),
        };
        if let Some(sep) = sep {
            while self.peek() == Some(sep) {
                self.pos += 1;
                self.skip_ws();
                parts.push(self.read_cp()?);
                self.skip_ws();
            }
        }
        self.expect(")")?;
        let quant = self.read_quantifier();
        let kind = match (sep, parts.len()) {
            (_, 1) => {
                // A singleton group: keep the inner particle, combining
                // quantifiers conservatively (e.g. `(a?)+` -> a*).
                #[expect(clippy::expect_used, reason = "match arm requires parts.len() == 1")]
                let inner = parts.pop().expect("len checked");
                let combined = combine_quantifiers(inner.quant, quant);
                return Ok(ContentParticle {
                    kind: inner.kind,
                    quant: combined,
                });
            }
            (Some(b'|'), _) => ParticleKind::Choice(parts),
            // b',' — and the only other value `sep` can hold is None,
            // which implies a singleton group handled above.
            _ => ParticleKind::Seq(parts),
        };
        Ok(ContentParticle { kind, quant })
    }

    fn read_cp(&mut self) -> Result<ContentParticle> {
        if self.peek() == Some(b'(') {
            return self.read_group();
        }
        let name = self.read_name()?;
        let quant = self.read_quantifier();
        Ok(ContentParticle {
            kind: ParticleKind::Name(name),
            quant,
        })
    }
}

/// `inner` then `outer` applied to a singleton group, e.g. `(a?)+` ≡ `a*`.
fn combine_quantifiers(inner: Quantifier, outer: Quantifier) -> Quantifier {
    use Quantifier::*;
    match (inner, outer) {
        (q, One) => q,
        (One, q) => q,
        (Opt, Opt) => Opt,
        (Plus, Plus) => Plus,
        _ => Star,
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

/// The exact DTD printed in Section 5.2 of the paper.
pub const PAPER_SYNTHETIC_DTD: &str = r#"
<!ELEMENT manager (name,(manager | department | employee)+)>
<!ELEMENT department (name, email?, employee+, department*)>
<!ELEMENT employee (name+,email?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT email (#PCDATA)>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_dtd() {
        let dtd = parse_dtd(PAPER_SYNTHETIC_DTD).unwrap();
        assert_eq!(dtd.elements.len(), 5);
        assert_eq!(
            dtd.element("manager").unwrap().to_string(),
            "(name,(manager|department|employee)+)"
        );
        assert_eq!(
            dtd.element("department").unwrap().to_string(),
            "(name,email?,employee+,department*)"
        );
        assert_eq!(
            dtd.element("employee").unwrap().to_string(),
            "(name+,email?)"
        );
        assert_eq!(dtd.element("name").unwrap(), &ContentModel::PcData);
    }

    #[test]
    fn empty_any_and_mixed() {
        let dtd = parse_dtd("<!ELEMENT a EMPTY><!ELEMENT b ANY><!ELEMENT c (#PCDATA|em|strong)*>")
            .unwrap();
        assert_eq!(dtd.element("a").unwrap(), &ContentModel::Empty);
        assert_eq!(dtd.element("b").unwrap(), &ContentModel::Any);
        assert_eq!(
            dtd.element("c").unwrap(),
            &ContentModel::Mixed(vec!["em".into(), "strong".into()])
        );
    }

    #[test]
    fn nested_groups_and_quantifiers() {
        let dtd = parse_dtd("<!ELEMENT a ((b,c)+|(d?,e)*)>").unwrap();
        assert_eq!(dtd.element("a").unwrap().to_string(), "((b,c)+|(d?,e)*)");
        let names = dtd.element("a").unwrap().child_names();
        assert_eq!(names, vec!["b", "c", "d", "e"]);
    }

    #[test]
    fn singleton_group_is_flattened() {
        let dtd = parse_dtd("<!ELEMENT a ((b))><!ELEMENT c ((d?)+)>").unwrap();
        assert_eq!(dtd.element("a").unwrap().to_string(), "b");
        assert_eq!(dtd.element("c").unwrap().to_string(), "d*");
    }

    #[test]
    fn attlist_and_entities_are_skipped() {
        let dtd = parse_dtd(
            r#"<!ELEMENT a (b*)>
               <!ATTLIST a id ID #REQUIRED note CDATA "x > y">
               <!ENTITY copy "(c)">
               <!-- a comment -->
               <!ELEMENT b EMPTY>"#,
        )
        .unwrap();
        assert_eq!(dtd.elements.len(), 2);
    }

    #[test]
    fn duplicate_element_rejected() {
        assert!(parse_dtd("<!ELEMENT a EMPTY><!ELEMENT a ANY>").is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(parse_dtd("<!WAT>").is_err());
        assert!(parse_dtd("<!ELEMENT a (b").is_err());
        assert!(parse_dtd("<!ELEMENT a (b,|c)>").is_err());
    }

    #[test]
    fn pcdata_with_star() {
        let dtd = parse_dtd("<!ELEMENT a (#PCDATA)*>").unwrap();
        assert_eq!(dtd.element("a").unwrap(), &ContentModel::PcData);
    }
}
