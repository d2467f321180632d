//! A small, dependency-free XML parser.
//!
//! Supports the subset of XML needed for data-centric and document-centric
//! corpora: elements, attributes (modelled as child element nodes, per
//! §III), character data, CDATA sections, comments, processing
//! instructions, the XML declaration, and the five predefined entities plus
//! numeric character references.
//!
//! The parser is non-validating and operates on a single pass over the
//! input string: names and runs of character data are slices of it, and
//! a run's newlines are counted as it is skipped.

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};
use crate::tree::{TreeBuilder, XmlTree};

/// Parses a complete XML document into a tree.
///
/// Attributes become child nodes: `<e a="v"/>` parses the same as
/// `<e><a>v</a></e>` would, matching the paper's model where attribute
/// nodes are treated as element nodes.
pub fn parse_document(input: &str) -> XmlResult<XmlTree> {
    Parser::new(input).parse()
}

/// Parses a collection of XML documents, grafting each document's root
/// under a fresh virtual root labelled `virtual_root_label` (§III: "we add
/// a virtual root node that connects to the roots of all the individual XML
/// documents").
pub fn parse_collection<'a>(
    documents: impl IntoIterator<Item = &'a str>,
    virtual_root_label: &str,
) -> XmlResult<XmlTree> {
    let mut builder = TreeBuilder::new(virtual_root_label);
    for doc in documents {
        let mut p = Parser::new(doc);
        p.skip_prolog()?;
        p.parse_element(&mut builder)?;
        p.skip_misc();
        if !p.at_end() {
            return Err(p.err("trailing content after document element"));
        }
    }
    Ok(builder.finish())
}

struct Parser<'a> {
    src: &'a str,
    input: &'a [u8],
    pos: usize,
    line: u32,
}

/// Whether `b` may appear in an element or attribute name. Bytes of
/// non-ASCII chars all do, so a name ends on a char boundary.
fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            src: input,
            input: input.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn parse(mut self) -> XmlResult<XmlTree> {
        self.skip_prolog()?;
        // The document element starts the builder directly.
        if !self.eat(b'<') {
            return Err(self.err("expected document element"));
        }
        let name = self.read_name()?;
        let mut builder = TreeBuilder::new(name);
        self.parse_attributes_and_content(&mut builder, name)?;
        self.skip_misc();
        if !self.at_end() {
            return Err(self.err("trailing content after document element"));
        }
        Ok(builder.finish())
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    /// Moves to byte `end`, counting the newlines passed over.
    fn skip_to(&mut self, end: usize) {
        let run = &self.input[self.pos..end];
        self.line += run.iter().filter(|&&b| b == b'\n').count() as u32;
        self.pos = end;
    }

    /// The position of the next `pattern` at or after the cursor.
    fn find(&self, pattern: &[u8]) -> Option<usize> {
        self.input[self.pos..]
            .windows(pattern.len())
            .position(|w| w == pattern)
            .map(|i| self.pos + i)
    }

    fn err(&self, msg: &str) -> XmlError {
        XmlError::parse(msg, self.line)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Skips the XML declaration, doctype, comments and PIs before the
    /// document element.
    fn skip_prolog(&mut self) -> XmlResult<()> {
        loop {
            self.skip_ws();
            if self.starts_with(b"<?") {
                self.skip_until(b"?>")?;
            } else if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
            } else if self.starts_with(b"<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skips comments/PIs/whitespace after the document element.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with(b"<?") {
                if self.skip_until(b"?>").is_err() {
                    return;
                }
            } else if self.starts_with(b"<!--") {
                if self.skip_until(b"-->").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    /// Skips past the next `end`, or to the end of the input and fails.
    fn skip_until(&mut self, end: &[u8]) -> XmlResult<()> {
        match self.find(end) {
            Some(at) => {
                self.skip_to(at + end.len());
                Ok(())
            }
            None => {
                self.skip_to(self.input.len());
                Err(self.err("unterminated construct"))
            }
        }
    }

    fn skip_doctype(&mut self) -> XmlResult<()> {
        // Balance '<' and '>' to tolerate internal subsets.
        let mut depth = 0usize;
        while let Some(b) = self.bump() {
            match b {
                b'<' => depth += 1,
                b'>' => {
                    if depth == 1 {
                        return Ok(());
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        Err(self.err("unterminated DOCTYPE"))
    }

    /// The name at the cursor, as a slice of the input (names hold no
    /// newline).
    fn read_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        let rest = &self.input[start..];
        let len = rest
            .iter()
            .position(|&b| !is_name_byte(b))
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.err("expected name"));
        }
        self.pos += len;
        Ok(&self.src[start..self.pos])
    }

    /// Parses one element, assuming the builder is positioned at its
    /// parent. Opens + closes the element on the builder.
    fn parse_element(&mut self, builder: &mut TreeBuilder) -> XmlResult<()> {
        if !self.eat(b'<') {
            return Err(self.err("expected '<'"));
        }
        let name = self.read_name()?;
        builder.open(name);
        self.parse_attributes_and_content(builder, name)?;
        builder.close();
        Ok(())
    }

    /// Parses attributes and, unless self-closing, content + end tag of
    /// the element `name`, whose node the builder has open.
    fn parse_attributes_and_content(
        &mut self,
        builder: &mut TreeBuilder,
        name: &str,
    ) -> XmlResult<()> {
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.bump();
                    if !self.eat(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    return Ok(()); // self-closing
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(_) => {
                    let attr = self.read_name()?;
                    self.skip_ws();
                    if !self.eat(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.skip_ws();
                    let quote = self
                        .bump()
                        .filter(|&q| q == b'"' || q == b'\'')
                        .ok_or_else(|| self.err("expected quoted attribute value"))?;
                    let value = self.read_text_until(quote)?;
                    if !self.eat(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    builder.open(attr);
                    if !value.is_empty() {
                        builder.text(&value);
                    }
                    builder.close();
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }

        // Content.
        loop {
            if self.peek() != Some(b'<') {
                if self.at_end() {
                    return Err(self.err(&format!("unexpected end of input inside <{name}>")));
                }
                let text = self.read_text_until(b'<')?;
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    builder.text(trimmed);
                }
            } else if self.starts_with(b"</") {
                self.pos += 2;
                let end = self.read_name()?;
                if end != name {
                    return Err(self.err(&format!(
                        "mismatched end tag: expected </{name}>, found </{end}>"
                    )));
                }
                self.skip_ws();
                if !self.eat(b'>') {
                    return Err(self.err("expected '>' in end tag"));
                }
                return Ok(());
            } else if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
            } else if self.starts_with(b"<![CDATA[") {
                self.pos += 9;
                let start = self.pos;
                let Some(end) = self.find(b"]]>") else {
                    self.skip_to(self.input.len());
                    return Err(self.err("unterminated CDATA"));
                };
                self.skip_to(end);
                let text = self.src[start..end].trim();
                if !text.is_empty() {
                    builder.text(text);
                }
                self.pos += 3;
            } else if self.starts_with(b"<?") {
                self.skip_until(b"?>")?;
            } else {
                self.parse_element(builder)?;
            }
        }
    }

    /// Reads character data until (not including) `stop`, expanding entity
    /// and character references. Each run between references is one slice
    /// of the input; text without a reference is returned as that slice.
    fn read_text_until(&mut self, stop: u8) -> XmlResult<Cow<'a, str>> {
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            let rest = &self.input[start..];
            let len = rest
                .iter()
                .position(|&b| b == stop || b == b'&')
                .unwrap_or(rest.len());
            self.skip_to(start + len);
            let run = &self.src[start..self.pos];
            if self.peek() != Some(b'&') {
                return Ok(match out {
                    None => Cow::Borrowed(run),
                    Some(mut text) => {
                        text.push_str(run);
                        Cow::Owned(text)
                    }
                });
            }
            let text = out.get_or_insert_with(String::new);
            text.push_str(run);
            self.bump();
            let start = self.pos;
            while self.peek().is_some_and(|c| c != b';') {
                self.bump();
                if self.pos - start > 12 {
                    return Err(self.err("unterminated entity reference"));
                }
            }
            if !self.eat(b';') {
                return Err(self.err("unterminated entity reference"));
            }
            let ent = &self.src[start..self.pos - 1];
            match ent {
                "amp" => text.push('&'),
                "lt" => text.push('<'),
                "gt" => text.push('>'),
                "quot" => text.push('"'),
                "apos" => text.push('\''),
                _ if ent.starts_with('#') => {
                    let s = &ent[1..];
                    let cp = if let Some(hex) = s.strip_prefix('x').or_else(|| s.strip_prefix('X'))
                    {
                        u32::from_str_radix(hex, 16).ok()
                    } else {
                        s.parse().ok()
                    };
                    match cp.and_then(char::from_u32) {
                        Some(c) => text.push(c),
                        None => return Err(self.err("invalid character reference")),
                    }
                }
                // Unknown entity (e.g. &uuml; without a DTD): keep a
                // placeholder of its name so text is not lost.
                _ => text.push_str(ent),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dewey::Dewey;

    #[test]
    fn minimal_document() {
        let t = parse_document("<a><b>hello</b></a>").unwrap();
        assert_eq!(t.len(), 2);
        let b = t.children(t.root()).next().unwrap();
        assert_eq!(t.label_name(b), "b");
        assert_eq!(t.text(b), Some("hello"));
    }

    #[test]
    fn declaration_comments_and_pis() {
        let t = parse_document(
            "<?xml version=\"1.0\"?><!-- c --><a><?pi data?><b>x</b><!-- c2 --></a>\n<!-- after -->",
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn attributes_become_child_nodes() {
        let t = parse_document(r#"<paper year="2011" venue="icde"><title>XClean</title></paper>"#)
            .unwrap();
        let kids: Vec<_> = t
            .children(t.root())
            .map(|n| (t.label_name(n).to_string(), t.text(n).map(str::to_string)))
            .collect();
        assert_eq!(
            kids,
            vec![
                ("year".into(), Some("2011".into())),
                ("venue".into(), Some("icde".into())),
                ("title".into(), Some("XClean".into())),
            ]
        );
    }

    #[test]
    fn self_closing_and_nested() {
        let t = parse_document("<a><b/><c><d/></c></a>").unwrap();
        assert_eq!(t.len(), 4);
        let c = t.node_at(&Dewey::parse("1.2").unwrap()).unwrap();
        assert_eq!(t.label_name(c), "c");
        assert_eq!(t.children(c).count(), 1);
    }

    #[test]
    fn entities_and_char_refs() {
        let t = parse_document("<a>x &amp; y &lt;z&gt; &#65;&#x42; Sch&uuml;tze</a>").unwrap();
        assert_eq!(t.text(t.root()), Some("x & y <z> AB Schuumltze"));
    }

    #[test]
    fn cdata() {
        let t = parse_document("<a><![CDATA[raw <stuff> & more]]></a>").unwrap();
        assert_eq!(t.text(t.root()), Some("raw <stuff> & more"));
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse_document("<a><b></a></b>").is_err());
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a></a><b></b>").is_err());
    }

    #[test]
    fn doctype_with_internal_subset() {
        let t = parse_document("<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>ok</a>").unwrap();
        assert_eq!(t.text(t.root()), Some("ok"));
    }

    #[test]
    fn collection_gets_virtual_root() {
        let t = parse_collection(
            ["<doc><t>one</t></doc>", "<doc><t>two</t></doc>"],
            "collection",
        )
        .unwrap();
        assert_eq!(t.label_name(t.root()), "collection");
        assert_eq!(t.children(t.root()).count(), 2);
        let second = t.node_at(&Dewey::parse("1.2.1").unwrap()).unwrap();
        assert_eq!(t.text(second), Some("two"));
        assert_eq!(t.path_string(second), "/collection/doc/t");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let t = parse_document("<a>\n  <b>x</b>\n</a>").unwrap();
        assert_eq!(t.text(t.root()), None);
    }

    /// The line of the error in `xml`.
    fn error_line(xml: &str) -> u32 {
        match parse_document(xml) {
            Err(XmlError::Parse { line, .. }) => line,
            Ok(_) => panic!("{xml:?} parsed"),
        }
    }

    /// A malformed tag after a run that spans lines reports the line the
    /// tag is on: every newline of a text run, an attribute value, a
    /// CDATA section, a comment or a PI is counted.
    #[test]
    fn error_lines_count_newlines_inside_runs() {
        assert_eq!(error_line("<a>one\ntwo &amp;\nthree\n<b =/></a>"), 4);
        assert_eq!(error_line("<a>\n<b k=\"x\ny &lt;\nz\"/>\n<c =/></a>"), 5);
        assert_eq!(error_line("<a><![CDATA[x\ny\n]]>\n\n<b =/></a>"), 5);
        assert_eq!(error_line("<a><!-- x\ny -->\n<?pi\n?><b =/></a>"), 4);
        assert_eq!(error_line("<a>\n  <b>\u{e9}t\u{e9}\n</c></a>"), 3);
        assert_eq!(error_line("<a>x\ny\n"), 3);
    }

    #[test]
    fn mixed_content() {
        let t = parse_document("<p>alpha <em>beta</em> gamma</p>").unwrap();
        assert_eq!(t.text(t.root()), Some("alpha gamma"));
        let em = t.children(t.root()).next().unwrap();
        assert_eq!(t.text(em), Some("beta"));
    }
}
