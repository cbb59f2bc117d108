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
//! # Borrowed trees
//!
//! An [`XmlNode<'a>`] borrows its strings. A parsed tree borrows every
//! name, attribute key, attribute value and text from the input. A value
//! or text is owned only when an entity or character reference (`&amp;`,
//! `&#x20;`) had to be expanded. So parsing makes one allocation per
//! element with attributes and one per element with children, and none
//! for a string. A tree built by an encoder such as
//! [`crate::xmi::to_xml_node`] borrows the model's own strings and owns
//! only what it formats (ids, numbers).
//!
//! An element's `text` is its character data runs, each unescaped, then
//! concatenated across children and comments, then trimmed. The trim
//! comes after unescaping, so `<a>&#x20;x</a>` has the text `"x"`.
//!
//! Elements may nest at most 1,024 levels deep. A deeper start tag fails
//! with [`Error::XmlSyntax`] (`E0101`) at its `<`. The parser keeps open
//! elements on the heap, so the bound is not about the parser's stack:
//! it keeps every recursive walk of a tree (drop, equality, the writer,
//! the XMI reader) shallow.
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
//! assert_eq!(parsed.required_attr("name")?, "TUT");
//! # Ok::<(), tut_uml::Error>(())
//! ```

use std::borrow::Cow;

use tut_diag::{locate_in, Span};

use crate::error::{Error, Result};

/// The deepest element nesting the parser accepts; the root is level 1.
const MAX_DEPTH: usize = 1024;

/// An XML element node, borrowing its strings for `'a`.
///
/// Parsed nodes carry source [`Span`]s (the start tag for the element, the
/// quoted value for each attribute) so downstream decoders can attach
/// line:column locations to their diagnostics. Programmatically built nodes
/// have [`Span::NONE`] everywhere. Spans are *ignored* by equality so that
/// write → parse round trips compare equal.
#[derive(Clone, Eq, Debug)]
pub struct XmlNode<'a> {
    /// Element name (namespace prefixes included verbatim, e.g. `xmi:XMI`).
    pub name: Cow<'a, str>,
    /// Attributes in document order: key, value, and the span of the
    /// value between its quotes in the source ([`Span::NONE`] when built).
    pub attrs: Vec<(Cow<'a, str>, Cow<'a, str>, Span)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode<'a>>,
    /// Character data directly inside this element (see the module docs
    /// for how runs combine).
    pub text: Cow<'a, str>,
    /// Span of `<name` in the source document ([`Span::NONE`] when built
    /// programmatically).
    pub span: Span,
    /// One past the element's last byte (the `>` of its closing tag or of
    /// `/>`) in the source document; 0 when built programmatically.
    pub end: usize,
}

/// Source spans are bookkeeping, not document content: two trees that
/// serialise identically are equal regardless of where they were parsed
/// from.
impl PartialEq for XmlNode<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.attrs.len() == other.attrs.len()
            && self
                .attrs
                .iter()
                .zip(&other.attrs)
                .all(|((k, v, _), (ok, ov, _))| k == ok && v == ov)
            && self.children == other.children
            && self.text == other.text
    }
}

impl<'a> XmlNode<'a> {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<Cow<'a, str>>) -> XmlNode<'a> {
        XmlNode {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
            text: Cow::Borrowed(""),
            span: Span::NONE,
            end: 0,
        }
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(
        &mut self,
        key: impl Into<Cow<'a, str>>,
        value: impl Into<Cow<'a, str>>,
    ) -> &mut Self {
        let key = key.into();
        let value = value.into();
        if let Some(existing) = self.attrs.iter_mut().find(|(k, _, _)| *k == key) {
            existing.1 = value;
        } else {
            self.attrs.push((key, value, Span::NONE));
        }
        self
    }

    /// Returns the source span of an attribute's value, when the node was
    /// parsed from a document. [`Span::NONE`] for built nodes.
    pub(crate) fn attr_span(&self, key: &str) -> Option<Span> {
        self.attrs
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|&(_, _, span)| span)
    }

    /// Returns an attribute value by name.
    pub(crate) fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, _)| &**v)
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
    pub fn add_child(&mut self, child: XmlNode<'a>) -> &mut XmlNode<'a> {
        self.children.push(child);
        self.children.last_mut().expect("just pushed")
    }

    /// Iterates over child elements with the given name.
    pub fn children_named<'s>(
        &'s self,
        name: &'s str,
    ) -> impl Iterator<Item = &'s XmlNode<'a>> + 's {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Returns the first child with the given name.
    pub fn child(&self, name: &str) -> Option<&XmlNode<'a>> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Returns the first child with the given name, or an error.
    pub(crate) fn required_child(&self, name: &str) -> Result<&XmlNode<'a>> {
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
        for (k, v, _) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape(v, out);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        escape(&self.text, out);
        if !self.children.is_empty() {
            out.push('\n');
            for child in &self.children {
                child.write_into(out, depth + 1);
            }
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }

    /// Parses a document and returns its root element, borrowing from
    /// `input` (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::XmlSyntax`] carrying both the byte offset and its
    /// resolved line:column on malformed input, and on elements nested
    /// deeper than 1,024 levels.
    pub fn parse(input: &'a str) -> Result<XmlNode<'a>> {
        let mut parser = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            attrs: Vec::new(),
            children: Vec::new(),
            open: Vec::new(),
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

/// Appends `text` to `out` with the five XML special characters escaped.
fn escape(text: &str, out: &mut String) {
    let mut from = 0;
    for (i, b) in text.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&apos;",
            _ => continue,
        };
        out.push_str(&text[from..i]);
        out.push_str(entity);
        from = i + 1;
    }
    out.push_str(&text[from..]);
}

/// An element whose start tag has been read and whose close has not.
struct Open<'a> {
    node: XmlNode<'a>,
    /// Where its children start in [`Parser::children`].
    first_child: usize,
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The attributes of the start tag being read, moved into its node
    /// at their exact count.
    attrs: Vec<(Cow<'a, str>, Cow<'a, str>, Span)>,
    /// The children read so far of every open element, innermost last;
    /// an element takes its own, at their exact count, when it closes.
    children: Vec<XmlNode<'a>>,
    /// The open elements, outermost first.
    open: Vec<Open<'a>>,
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

    fn parse_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b':' | b'_' | b'-' | b'.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(&self.text[start..self.pos])
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn parse_attr_value(&mut self) -> Result<(Cow<'a, str>, Span)> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        let stop = self.bytes[start..]
            .iter()
            .position(|&b| b == quote || b == b'<');
        match stop {
            Some(rel) if self.bytes[start + rel] == quote => {
                let span = Span::new(start, start + rel);
                self.pos = span.end + 1;
                let value = unescape(&self.text[start..span.end]).map_err(|m| self.error(m))?;
                Ok((value, span))
            }
            Some(rel) => {
                self.pos = start + rel;
                Err(self.error("`<` inside attribute value"))
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.error("unterminated attribute value"))
            }
        }
    }

    /// Reads a start tag. Returns the node and whether it closed itself
    /// (`/>`), in which case its end offset is set.
    fn parse_start_tag(&mut self) -> Result<(XmlNode<'a>, bool)> {
        let tag_start = self.pos;
        self.expect(b'<')?;
        let mut node = XmlNode::new(self.parse_name()?);
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
                    self.attrs.push((Cow::Borrowed(key), value, span));
                }
                None => return Err(self.error("unterminated start tag")),
            }
        };
        node.attrs = self.attrs.drain(..).collect();
        if self_closing {
            node.end = self.pos;
        }
        Ok((node, self_closing))
    }

    /// Reads the element at the current position and everything inside
    /// it. Open elements wait on `self.open`, so nesting costs heap, not
    /// stack; [`MAX_DEPTH`] bounds it.
    fn parse_element(&mut self) -> Result<XmlNode<'a>> {
        loop {
            // At the `<` of a start tag.
            if self.open.len() == MAX_DEPTH {
                return Err(self.error(format!("elements nest deeper than {MAX_DEPTH} levels")));
            }
            let (node, self_closing) = self.parse_start_tag()?;
            let mut closed = if self_closing {
                Some(node)
            } else {
                let first_child = self.children.len();
                self.open.push(Open { node, first_child });
                None
            };
            // Content of the innermost open element, up to the next
            // start tag; each close hands its node to its parent.
            loop {
                if let Some(node) = closed.take() {
                    if self.open.is_empty() {
                        return Ok(node);
                    }
                    self.children.push(node);
                }
                match self.peek() {
                    Some(b'<') if self.starts_with("<!--") => self.skip_comment()?,
                    Some(b'<') if self.starts_with("</") => closed = Some(self.close_element()?),
                    Some(b'<') => break,
                    Some(_) => self.read_text()?,
                    None => {
                        let name = &self.open.last().expect("an element is open").node.name;
                        return Err(self.error(format!("unterminated element `{name}`")));
                    }
                }
            }
        }
    }

    /// Reads the closing tag at the current position and returns the
    /// innermost open element, finished.
    fn close_element(&mut self) -> Result<XmlNode<'a>> {
        self.pos += 2;
        let close = self.parse_name()?;
        let name = &self.open.last().expect("an element is open").node.name;
        if close != name {
            return Err(self.error(format!("mismatched closing tag `{close}` for `{name}`")));
        }
        self.skip_whitespace();
        self.expect(b'>')?;
        let Open {
            mut node,
            first_child,
        } = self.open.pop().expect("an element is open");
        node.end = self.pos;
        node.text = match node.text {
            Cow::Borrowed(text) => Cow::Borrowed(text.trim()),
            Cow::Owned(text) if text.trim().len() == text.len() => Cow::Owned(text),
            Cow::Owned(text) => Cow::Owned(text.trim().to_owned()),
        };
        node.children = self.children.drain(first_child..).collect();
        Ok(node)
    }

    /// Reads one character data run into the innermost open element's
    /// text. A run with no reference, reaching a text that is still
    /// empty, is borrowed; every other run is unescaped onto an owned
    /// text. Whitespace ahead of the first non-blank run is never stored:
    /// the closing trim would drop it anyway.
    fn read_text(&mut self) -> Result<()> {
        let start = self.pos;
        self.pos = self.bytes[start..]
            .iter()
            .position(|&b| b == b'<')
            .map_or(self.bytes.len(), |rel| start + rel);
        let raw = &self.text[start..self.pos];
        let text = &mut self.open.last_mut().expect("an element is open").node.text;
        let raw = if text.is_empty() {
            raw.trim_start()
        } else {
            raw
        };
        if raw.is_empty() {
            return Ok(());
        }
        if text.is_empty() && !raw.contains('&') {
            *text = Cow::Borrowed(raw);
            return Ok(());
        }
        let result = unescape_into(raw, text.to_mut());
        result.map_err(|m| self.error(m))
    }
}

/// `raw` with its entity and character references expanded: borrowed
/// when it has none.
fn unescape(raw: &str) -> std::result::Result<Cow<'_, str>, String> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    unescape_into(raw, &mut out)?;
    Ok(Cow::Owned(out))
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
    /// vectors at their exact length, and no string for a document
    /// without references, whitespace-only content included.
    #[test]
    fn parsed_vectors_hold_exactly_their_elements() {
        fn check(node: &XmlNode<'_>) {
            assert_eq!(node.attrs.capacity(), node.attrs.len(), "{}", node.name);
            assert_eq!(node.children.capacity(), node.children.len());
            assert!(matches!(node.name, Cow::Borrowed(_)), "{}", node.name);
            assert!(matches!(node.text, Cow::Borrowed(_)), "{}", node.name);
            for (k, v, _) in &node.attrs {
                assert!(matches!((k, v), (Cow::Borrowed(_), Cow::Borrowed(_))));
            }
            node.children.iter().for_each(check);
        }
        let doc = "<r a=\"1\" b=\"2\" c=\"3\">\n  <x k=\"v\"/>\n  <!-- c -->\n  <y>\n    <z/>\n  </y>\n  <w> t </w>\n</r>";
        let parsed = XmlNode::parse(doc).unwrap();
        assert_eq!(parsed.children.len(), 3);
        assert_eq!(parsed.children[2].text, "t");
        check(&parsed);
    }

    /// True when `s` is a borrowed slice of `input`.
    fn borrows_from(input: &str, s: Cow<'_, str>) -> bool {
        let range = input.as_bytes().as_ptr_range();
        matches!(s, Cow::Borrowed(b) if range.start <= b.as_ptr() && b.as_ptr() <= range.end)
    }

    #[test]
    fn entity_free_names_values_and_text_borrow_the_input() {
        let doc = "<r kind=\"x\">\n  <leaf key='v w'>  some text  </leaf>\n</r>";
        let parsed = XmlNode::parse(doc).unwrap();
        let leaf = &parsed.children[0];
        for s in [&parsed.name, &leaf.name, &leaf.text] {
            assert!(borrows_from(doc, s.clone()), "{s:?} is not borrowed");
        }
        for (k, v, _) in parsed.attrs.iter().chain(&leaf.attrs) {
            assert!(borrows_from(doc, k.clone()), "{k}");
            assert!(borrows_from(doc, v.clone()), "{v}");
        }
        assert_eq!(leaf.text, "some text");
        assert_eq!(leaf.attr("key"), Some("v w"));
    }

    #[test]
    fn a_value_with_a_reference_is_owned_and_unescaped() {
        let doc = "<r k=\"a &amp; b\" plain=\"c\">x &lt; y</r>";
        let parsed = XmlNode::parse(doc).unwrap();
        let (_, value, span) = &parsed.attrs[0];
        assert!(matches!(value, Cow::Owned(_)));
        assert_eq!(value, "a & b");
        // The span still covers the raw value between the quotes.
        assert_eq!(&doc[span.start..span.end], "a &amp; b");
        assert!(borrows_from(doc, parsed.attrs[1].1.clone()));
        assert!(matches!(parsed.text, Cow::Owned(_)));
        assert_eq!(parsed.text, "x < y");
    }

    /// Text is trimmed after unescaping, so whitespace a reference
    /// produces at either end goes too.
    #[test]
    fn text_is_trimmed_after_unescaping() {
        for (doc, text) in [
            ("<a>&#x20;x</a>", "x"),
            ("<a>x&#10;</a>", "x"),
            ("<a> &#32; x <b/> y &#x9;</a>", "x  y"),
            ("<a>&#x20;</a>", ""),
            ("<a>  x  <!-- c -->  </a>", "x"),
        ] {
            assert_eq!(XmlNode::parse(doc).unwrap().text, text, "{doc}");
        }
    }

    /// Documents nest up to `MAX_DEPTH` levels; the first deeper start
    /// tag is an `E0101` syntax error at its `<`.
    #[test]
    fn nesting_deeper_than_the_bound_is_a_syntax_error() {
        let nested = |depth: usize| "<a>".repeat(depth) + &"</a>".repeat(depth);
        let deepest = nested(MAX_DEPTH);
        assert_eq!(XmlNode::parse(&deepest).unwrap().end, deepest.len());
        match XmlNode::parse(&nested(MAX_DEPTH + 1)) {
            Err(Error::XmlSyntax {
                offset, message, ..
            }) => {
                assert_eq!(offset, MAX_DEPTH * 3, "at the offending `<`");
                assert!(message.contains("1024"), "{message}");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
        // A self-closing element at the bound's next level counts too.
        let text = "<a>".repeat(MAX_DEPTH) + "<b/>" + &"</a>".repeat(MAX_DEPTH);
        assert!(XmlNode::parse(&text).is_err());
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
