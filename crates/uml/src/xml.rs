//! A tiny self-contained XML document model, writer, and parser.
//!
//! The paper's profiling tool parses "the XML presentation of the UML 2.0
//! model" (§4.4). To keep the tool-boundary honest without pulling in an
//! external dependency, this module implements the small XML subset the XMI
//! serialisation needs: elements, attributes, character data, comments, and
//! the XML declaration. It does not support DOCTYPE, CDATA, processing
//! instructions other than the declaration, or namespace resolution
//! (namespace prefixes are kept as part of the element/attribute name).
//!
//! # Example
//!
//! ```
//! use tut_uml::xml::XmlNode;
//!
//! let mut root = XmlNode::new("library");
//! root.set_attr("name", "TUT");
//! root.add_child(XmlNode::new("shelf"));
//! let text = root.to_xml_string();
//! let parsed = XmlNode::parse(&text)?;
//! assert_eq!(parsed.name, "library");
//! assert_eq!(parsed.attr("name"), Some("TUT"));
//! # Ok::<(), tut_uml::Error>(())
//! ```

use std::fmt::Write as _;

use tut_diag::{locate_in, Span};

use crate::error::{Error, Result};

/// An XML element node.
///
/// Parsed nodes carry source [`Span`]s (the start tag for the element, the
/// quoted value for each attribute) so downstream decoders can attach
/// line:column locations to their diagnostics. Programmatically built nodes
/// have [`Span::NONE`] everywhere. Spans are *ignored* by equality so that
/// write → parse round trips compare equal.
#[derive(Clone, Eq, Debug, Default)]
pub struct XmlNode {
    /// Element name (namespace prefixes included verbatim, e.g. `xmi:XMI`).
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode>,
    /// Concatenated character data directly inside this element.
    pub text: String,
    /// Span of `<name` in the source document ([`Span::NONE`] when built
    /// programmatically).
    pub span: Span,
    /// Value spans parallel to `attrs` (each covers the text between the
    /// quotes in the source document).
    pub attr_spans: Vec<Span>,
    /// One past the element's last byte (the `>` of its closing tag or of
    /// `/>`) in the source document; 0 when built programmatically.
    pub end: usize,
}

/// Source spans are bookkeeping, not document content: two trees that
/// serialise identically are equal regardless of where they were parsed
/// from.
impl PartialEq for XmlNode {
    fn eq(&self, other: &XmlNode) -> bool {
        self.name == other.name
            && self.attrs == other.attrs
            && self.children == other.children
            && self.text == other.text
    }
}

impl XmlNode {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> XmlNode {
        XmlNode {
            name: name.into(),
            ..XmlNode::default()
        }
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        let key = key.into();
        let value = value.into();
        if let Some(existing) = self.attrs.iter_mut().find(|(k, _)| *k == key) {
            existing.1 = value;
        } else {
            self.attrs.push((key, value));
            self.attr_spans.push(Span::NONE);
        }
        self
    }

    /// Returns the source span of an attribute's value, when the node was
    /// parsed from a document. [`Span::NONE`] for built nodes.
    pub fn attr_span(&self, key: &str) -> Option<Span> {
        let index = self.attrs.iter().position(|(k, _)| k == key)?;
        Some(self.attr_spans.get(index).copied().unwrap_or(Span::NONE))
    }

    /// Returns an attribute value by name.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Returns an attribute value or an [`Error::XmiStructure`] naming the
    /// element, for use while decoding documents.
    pub fn required_attr(&self, key: &str) -> Result<&str> {
        self.attr(key).ok_or_else(|| {
            Error::XmiStructure(format!(
                "element `{}` is missing required attribute `{key}`",
                self.name
            ))
        })
    }

    /// Appends a child element and returns a mutable reference to it.
    pub fn add_child(&mut self, child: XmlNode) -> &mut XmlNode {
        self.children.push(child);
        self.children.last_mut().expect("just pushed")
    }

    /// Iterates over child elements with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Returns the first child with the given name.
    pub fn child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Returns the first child with the given name, or an error.
    pub fn required_child(&self, name: &str) -> Result<&XmlNode> {
        self.child(name).ok_or_else(|| {
            Error::XmiStructure(format!(
                "element `{}` is missing required child `{name}`",
                self.name
            ))
        })
    }

    /// Serialises the tree to a pretty-printed XML string with a standard
    /// declaration header.
    pub fn to_xml_string(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        self.write_into(&mut out, 0);
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            let _ = write!(out, " {k}=\"{}\"", escape(v));
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            out.push_str(&escape(&self.text));
        }
        if !self.children.is_empty() {
            out.push('\n');
            for child in &self.children {
                child.write_into(out, depth + 1);
            }
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
        let _ = writeln!(out, "</{}>", self.name);
    }

    /// Parses a document and returns its root element.
    ///
    /// # Errors
    ///
    /// Returns [`Error::XmlSyntax`] carrying both the byte offset and its
    /// resolved line:column on malformed input.
    pub fn parse(input: &str) -> Result<XmlNode> {
        let mut parser = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            attrs: Vec::new(),
            attr_spans: Vec::new(),
            children: Vec::new(),
        };
        parser.skip_prolog()?;
        let root = parser.parse_element()?;
        parser.skip_misc()?;
        if parser.pos < parser.bytes.len() {
            return Err(parser.error("trailing content after document element"));
        }
        Ok(root)
    }
}

/// Escapes the five XML special characters in text/attribute content.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The attributes of the start tag being read, moved into its node
    /// at their exact count.
    attrs: Vec<(String, String)>,
    attr_spans: Vec<Span>,
    /// The children read so far of every open element, innermost last;
    /// an element takes its own, at their exact count, when it closes.
    children: Vec<XmlNode>,
}

impl<'a> Parser<'a> {
    /// Builds an [`Error::XmlSyntax`] at the current position. Uses the
    /// allocation-free scan rather than building a throwaway `SourceMap`
    /// (which would clone and index the whole document for one lookup).
    fn error(&self, message: impl Into<String>) -> Error {
        let at = locate_in(self.text, self.pos);
        Error::XmlSyntax {
            offset: self.pos,
            line: at.line,
            column: at.column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, prefix: &str) -> bool {
        self.bytes[self.pos..].starts_with(prefix.as_bytes())
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) -> Result<()> {
        self.skip_whitespace();
        if self.starts_with("<?xml") {
            match self.bytes[self.pos..].windows(2).position(|w| w == b"?>") {
                Some(rel) => self.pos += rel + 2,
                None => return Err(self.error("unterminated xml declaration")),
            }
        }
        self.skip_misc()
    }

    /// Skips whitespace and comments between markup.
    fn skip_misc(&mut self) -> Result<()> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skips the comment that starts at the current position.
    fn skip_comment(&mut self) -> Result<()> {
        match self.bytes[self.pos + 4..]
            .windows(3)
            .position(|w| w == b"-->")
        {
            Some(rel) => {
                self.pos += 4 + rel + 3;
                Ok(())
            }
            None => Err(self.error("unterminated comment")),
        }
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ch = b as char;
            if ch.is_ascii_alphanumeric() || matches!(ch, ':' | '_' | '-' | '.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("name bytes are ascii")
            .to_owned())
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn parse_attr_value(&mut self) -> Result<(String, Span)> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("attribute value is not utf-8"))?;
                let span = Span::new(start, self.pos);
                self.pos += 1;
                let mut value = String::with_capacity(raw.len());
                unescape_into(raw, &mut value).map_err(|m| self.error(m))?;
                return Ok((value, span));
            }
            if b == b'<' {
                return Err(self.error("`<` inside attribute value"));
            }
            self.pos += 1;
        }
        Err(self.error("unterminated attribute value"))
    }

    fn parse_element(&mut self) -> Result<XmlNode> {
        let tag_start = self.pos;
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut node = XmlNode::new(name);
        node.span = Span::new(tag_start, self.pos);
        let self_closing = loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    break true;
                }
                Some(b'>') => {
                    self.pos += 1;
                    break false;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect(b'=')?;
                    self.skip_whitespace();
                    let (value, span) = self.parse_attr_value()?;
                    self.attrs.push((key, value));
                    self.attr_spans.push(span);
                }
                None => return Err(self.error("unterminated start tag")),
            }
        };
        node.attrs = self.attrs.drain(..).collect();
        node.attr_spans = self.attr_spans.drain(..).collect();
        if self_closing {
            node.end = self.pos;
            return Ok(node);
        }
        let first_child = self.children.len();
        // Content loop. `node.text` is the unescaped character data runs,
        // concatenated, then trimmed. Runs are unescaped straight into it,
        // and leading whitespace is never stored while it is still empty:
        // the closing trim would drop it anyway.
        loop {
            match self.peek() {
                Some(b'<') => {
                    if self.starts_with("<!--") {
                        self.skip_comment()?;
                    } else if self.starts_with("</") {
                        self.pos += 2;
                        let close = self.parse_name()?;
                        if close != node.name {
                            return Err(self.error(format!(
                                "mismatched closing tag `{close}` for `{}`",
                                node.name
                            )));
                        }
                        self.skip_whitespace();
                        self.expect(b'>')?;
                        node.end = self.pos;
                        let trimmed = node.text.trim();
                        if trimmed.len() != node.text.len() {
                            node.text = trimmed.to_owned();
                        }
                        node.children = self.children.drain(first_child..).collect();
                        return Ok(node);
                    } else {
                        let child = self.parse_element()?;
                        self.children.push(child);
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("text content is not utf-8"))?;
                    let raw = if node.text.is_empty() {
                        raw.trim_start()
                    } else {
                        raw
                    };
                    unescape_into(raw, &mut node.text).map_err(|m| self.error(m))?;
                }
                None => return Err(self.error(format!("unterminated element `{}`", node.name))),
            }
        }
    }
}

/// Appends `raw` to `out` with its entity and character references
/// expanded.
fn unescape_into(raw: &str, out: &mut String) -> std::result::Result<(), String> {
    let mut rest = raw;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let end = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_owned())?;
        let entity = &rest[1..end];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            other => {
                if let Some(hex) = other.strip_prefix("#x") {
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad character reference `&{other};`"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("invalid character reference `&{other};`"))?,
                    );
                } else if let Some(dec) = other.strip_prefix('#') {
                    let code: u32 = dec
                        .parse()
                        .map_err(|_| format!("bad character reference `&{other};`"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("invalid character reference `&{other};`"))?,
                    );
                } else {
                    return Err(format!("unknown entity `&{other};`"));
                }
            }
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_serialise() {
        let mut root = XmlNode::new("a");
        root.set_attr("k", "v");
        root.add_child(XmlNode::new("b")).set_attr("x", "1");
        let text = root.to_xml_string();
        assert!(text.starts_with("<?xml"));
        assert!(text.contains("<a k=\"v\">"));
        assert!(text.contains("<b x=\"1\"/>"));
    }

    #[test]
    fn parse_round_trip() {
        let mut root = XmlNode::new("model");
        root.set_attr("name", "T<&>T");
        let child = root.add_child(XmlNode::new("class"));
        child.set_attr("name", "A \"quoted\" 'one'");
        child.text = "some & text".into();
        root.add_child(XmlNode::new("empty"));

        let text = root.to_xml_string();
        let parsed = XmlNode::parse(&text).unwrap();
        assert_eq!(parsed, root);
    }

    #[test]
    fn set_attr_replaces() {
        let mut n = XmlNode::new("n");
        n.set_attr("a", "1");
        n.set_attr("a", "2");
        assert_eq!(n.attrs.len(), 1);
        assert_eq!(n.attr("a"), Some("2"));
    }

    #[test]
    fn parse_handles_comments_and_whitespace() {
        let doc = r#"<?xml version="1.0"?>
            <!-- leading comment -->
            <root>
              <!-- inner comment -->
              <leaf/>
            </root>
            <!-- trailing comment -->"#;
        let parsed = XmlNode::parse(doc).unwrap();
        assert_eq!(parsed.name, "root");
        assert_eq!(parsed.children.len(), 1);
    }

    #[test]
    fn parse_entities() {
        let doc = "<r a=\"&lt;&gt;&amp;&quot;&apos;\">&#65;&#x42;</r>";
        let parsed = XmlNode::parse(doc).unwrap();
        assert_eq!(parsed.attr("a"), Some("<>&\"'"));
        assert_eq!(parsed.text, "AB");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "<a>",
            "<a></b>",
            "<a attr></a>",
            "<a attr=value/>",
            "<a/><b/>",
            "<a>&bogus;</a>",
            "",
        ] {
            assert!(XmlNode::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn error_carries_offset_and_line_col() {
        let err = XmlNode::parse("<a></b>").unwrap_err();
        match err {
            Error::XmlSyntax {
                offset,
                line,
                column,
                ..
            } => {
                assert!(offset > 0);
                assert_eq!(line, 1);
                assert_eq!(column, offset + 1, "single-line input: column = offset + 1");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A failure on a later line resolves to that line.
        let err = XmlNode::parse("<a>\n  <b>\n</a>").unwrap_err();
        match err {
            Error::XmlSyntax { line, .. } => assert!(line >= 2, "line was {line}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parsed_nodes_carry_spans() {
        let doc = "<root name=\"top\">\n  <leaf kind=\"x\"/>\n</root>";
        let parsed = XmlNode::parse(doc).unwrap();
        assert_eq!(&doc[parsed.span.start..parsed.span.end], "<root");
        let name_span = parsed.attr_span("name").unwrap();
        assert_eq!(&doc[name_span.start..name_span.end], "top");
        let leaf = &parsed.children[0];
        assert_eq!(&doc[leaf.span.start..leaf.span.end], "<leaf");
        let kind_span = leaf.attr_span("kind").unwrap();
        assert_eq!(&doc[kind_span.start..kind_span.end], "x");
        // Each element runs from its span's start to its end offset.
        assert_eq!(&doc[leaf.span.start..leaf.end], "<leaf kind=\"x\"/>");
        assert_eq!(parsed.end, doc.len());
        // Built nodes have no spans, and equality ignores spans entirely.
        let mut built = XmlNode::new("leaf");
        built.set_attr("kind", "x");
        assert_eq!(built.attr_span("kind"), Some(Span::NONE));
        assert_eq!(built, *leaf);
    }

    /// The parser allocates only what the tree keeps: attribute and child
    /// vectors at their exact length, and no text for whitespace-only
    /// content.
    #[test]
    fn parsed_vectors_hold_exactly_their_elements() {
        fn check(node: &XmlNode) {
            assert_eq!(node.attrs.capacity(), node.attrs.len(), "{}", node.name);
            assert_eq!(node.attr_spans.capacity(), node.attr_spans.len());
            assert_eq!(node.children.capacity(), node.children.len());
            if node.text.is_empty() {
                assert_eq!(node.text.capacity(), 0, "{}", node.name);
            }
            node.children.iter().for_each(check);
        }
        let doc = "<r a=\"1\" b=\"2\" c=\"3\">\n  <x k=\"v\"/>\n  <!-- c -->\n  <y>\n    <z/>\n  </y>\n  <w> t </w>\n</r>";
        let parsed = XmlNode::parse(doc).unwrap();
        assert_eq!(parsed.children.len(), 3);
        assert_eq!(parsed.children[2].text, "t");
        check(&parsed);
    }

    #[test]
    fn children_helpers() {
        let mut root = XmlNode::new("r");
        root.add_child(XmlNode::new("x"));
        root.add_child(XmlNode::new("y"));
        root.add_child(XmlNode::new("x"));
        assert_eq!(root.children_named("x").count(), 2);
        assert!(root.child("y").is_some());
        assert!(root.child("z").is_none());
        assert!(root.required_child("z").is_err());
        assert!(root.required_attr("missing").is_err());
    }

    #[test]
    fn namespaced_names_pass_through() {
        let doc = "<xmi:XMI xmlns:xmi=\"http://example\"><uml:Model/></xmi:XMI>";
        let parsed = XmlNode::parse(doc).unwrap();
        assert_eq!(parsed.name, "xmi:XMI");
        assert_eq!(parsed.children[0].name, "uml:Model");
    }
}
