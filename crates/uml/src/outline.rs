//! A conservative raw-text outline scanner for XMI documents.
//!
//! The incremental front end needs to know *which bytes belong to which
//! top-level model element* without paying for a full parse: each
//! `packagedElement` directly under `uml:Model` becomes an independently
//! hashed, independently parsed segment, and everything else (the XMI
//! envelope, the `uml:Model` start/end tags, inter-element whitespace)
//! is the *skeleton*. An edit that stays inside one segment leaves every
//! other segment's fingerprint — and therefore every cached result keyed
//! on it — untouched.
//!
//! The scanner is deliberately conservative: it understands exactly the
//! XML subset [`crate::xml`] parses (start/end/empty tags, quoted
//! attributes, comments, one leading declaration) and returns `None` the
//! moment it sees anything unusual — a non-`packagedElement` child of
//! the model, a missing `xmi:id`, text where none is expected, a
//! DOCTYPE. Callers fall back to the plain whole-document pipeline in
//! that case, so a bailout can never change observable behaviour, only
//! forgo caching.
//!
//! Correctness leans on two properties shared with the real parser:
//! quoted attribute values may not contain `<` (so `<` outside a comment
//! is always markup), and comments are atomic. Tag nesting is tracked by
//! depth alone; a mismatched closing *name* inside a segment makes the
//! later segment-local parse fail at the same byte the whole-document
//! parse would have failed at, so error reports stay identical.

use std::rc::Rc;

use tut_diag::Span;

/// One top-level `packagedElement` directly under `uml:Model`. The type
/// and id are shared, so cloning an outline copies no string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Byte range of the whole element, `<packagedElement` through the
    /// end of its closing tag (or `/>`).
    pub range: Span,
    /// The `xmi:type` attribute value, e.g. `uml:Class`.
    pub ty: Rc<str>,
    /// The `xmi:id` attribute value, e.g. `class0`.
    pub id: Rc<str>,
}

/// The segment decomposition of one document.
#[derive(Clone, Debug, Default)]
pub struct Outline {
    /// Top-level packaged elements in document order.
    pub segments: Vec<Segment>,
    /// Byte range of the `profileApplication` element under the root,
    /// when present.
    pub profile_app: Option<Span>,
}

impl Outline {
    /// Scans `text` into segments, or `None` whenever the document's
    /// shape is anything but the plain XMI layout this module handles.
    pub fn scan(text: &str) -> Option<Outline> {
        Scanner {
            b: text.as_bytes(),
            pos: 0,
        }
        .run()
    }

    /// The document with every segment (and the profile application)
    /// spliced out. All removed ranges sit *after* the root and model
    /// start tags, so the spans of everything that survives into the
    /// skeleton's prefix equal their whole-document spans.
    pub fn skeleton(&self, text: &str) -> String {
        let mut ranges: Vec<Span> = self.segments.iter().map(|s| s.range).collect();
        if let Some(pa) = self.profile_app {
            ranges.push(pa);
        }
        ranges.sort_by_key(|r| r.start);
        let mut out = String::with_capacity(text.len() / 4);
        let mut pos = 0;
        for r in &ranges {
            out.push_str(&text[pos..r.start]);
            pos = r.end;
        }
        out.push_str(&text[pos..]);
        out
    }

    /// The text of one segment.
    pub fn segment_text<'a>(&self, text: &'a str, index: usize) -> &'a str {
        let r = self.segments[index].range;
        &text[r.start..r.end]
    }
}

/// A scanned tag: either `</name ...>` or `<name ...>` / `<name .../>`.
struct Tag {
    name_start: usize,
    name_end: usize,
    /// Attribute source region (between the name and the closing `>`).
    attrs: Span,
    /// One past the closing `>`.
    end: usize,
    closing: bool,
    self_closing: bool,
}

struct Scanner<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn run(mut self) -> Option<Outline> {
        self.skip_prolog()?;
        self.skip_misc()?;
        // Root element: must be an open `xmi:XMI` with content.
        let root = self.tag()?;
        if root.closing || root.self_closing || self.name(&root) != "xmi:XMI" {
            return None;
        }
        let mut outline = Outline::default();
        let mut saw_model = false;
        loop {
            self.skip_misc()?;
            if !self.ws_until_lt() {
                return None; // non-whitespace text under the root
            }
            if self.peek()? != b'<' {
                return None;
            }
            if self.at_comment() {
                self.skip_misc()?;
                continue;
            }
            let tag = self.tag()?;
            if tag.closing {
                break; // end of root content; name checked by the parser
            }
            match self.name(&tag) {
                "uml:Model" if !saw_model => {
                    saw_model = true;
                    if !tag.self_closing {
                        self.model_content(&mut outline)?;
                    }
                }
                "profileApplication" if outline.profile_app.is_none() => {
                    let end = if tag.self_closing {
                        tag.end
                    } else {
                        self.matching_end()?
                    };
                    outline.profile_app = Some(Span::new(tag.name_start - 1, end));
                }
                _ => return None,
            }
        }
        // After the root: only whitespace and comments may follow.
        self.skip_misc()?;
        if self.pos < self.b.len() {
            return None;
        }
        if !saw_model {
            return None;
        }
        Some(outline)
    }

    /// Scans the children of `uml:Model`: a run of `packagedElement`s.
    fn model_content(&mut self, outline: &mut Outline) -> Option<()> {
        loop {
            self.skip_misc()?;
            if !self.ws_until_lt() {
                return None;
            }
            if self.peek()? != b'<' {
                return None;
            }
            if self.at_comment() {
                self.skip_misc()?;
                continue;
            }
            let tag = self.tag()?;
            if tag.closing {
                return Some(()); // `</uml:Model>` (name checked by the parser)
            }
            if self.name(&tag) != "packagedElement" {
                return None;
            }
            let (ty, id) = self.type_and_id(&tag)?;
            let end = if tag.self_closing {
                tag.end
            } else {
                self.matching_end()?
            };
            outline.segments.push(Segment {
                range: Span::new(tag.name_start - 1, end),
                ty,
                id,
            });
        }
    }

    /// Skips the content of the element whose open tag was just scanned,
    /// tracking nesting by depth only, and returns one past the `>` of
    /// the matching close tag.
    fn matching_end(&mut self) -> Option<usize> {
        let mut depth = 1usize;
        loop {
            self.until_lt()?;
            if self.at_comment() {
                self.skip_comment()?;
                continue;
            }
            let tag = self.tag()?;
            if tag.closing {
                depth -= 1;
                if depth == 0 {
                    return Some(tag.end);
                }
            } else if !tag.self_closing {
                depth += 1;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn name(&self, tag: &Tag) -> &'a str {
        std::str::from_utf8(&self.b[tag.name_start..tag.name_end]).unwrap_or("")
    }

    /// Advances past whitespace; true when stopped at `<` or end.
    fn ws_until_lt(&mut self) -> bool {
        while let Some(c) = self.peek() {
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'<' => return true,
                _ => return false,
            }
        }
        true
    }

    /// Advances to the next `<`, allowing any text on the way.
    fn until_lt(&mut self) -> Option<()> {
        while let Some(c) = self.peek() {
            if c == b'<' {
                return Some(());
            }
            self.pos += 1;
        }
        None
    }

    fn at_comment(&self) -> bool {
        self.b[self.pos..].starts_with(b"<!--")
    }

    fn skip_comment(&mut self) -> Option<()> {
        let rel = self.b[self.pos + 4..]
            .windows(3)
            .position(|w| w == b"-->")?;
        self.pos += 4 + rel + 3;
        Some(())
    }

    fn skip_prolog(&mut self) -> Option<()> {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
        if self.b[self.pos..].starts_with(b"<?xml") {
            let rel = self.b[self.pos..].windows(2).position(|w| w == b"?>")?;
            self.pos += rel + 2;
        }
        Some(())
    }

    /// Skips whitespace and comments.
    fn skip_misc(&mut self) -> Option<()> {
        loop {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                self.pos += 1;
            }
            if self.at_comment() {
                self.skip_comment()?;
            } else {
                return Some(());
            }
        }
    }

    /// Scans one tag starting at `<`. Honors quotes (a `>` inside a
    /// quoted attribute value does not end the tag); bails on `<!` and
    /// `<?` markup.
    fn tag(&mut self) -> Option<Tag> {
        if self.peek()? != b'<' {
            return None;
        }
        self.pos += 1;
        let closing = self.peek()? == b'/';
        if closing {
            self.pos += 1;
        }
        match self.peek()? {
            b'!' | b'?' => return None,
            _ => {}
        }
        let name_start = self.pos;
        while let Some(c) = self.peek() {
            if (c as char).is_ascii_alphanumeric() || matches!(c, b':' | b'_' | b'-' | b'.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == name_start {
            return None;
        }
        let name_end = self.pos;
        let attrs_start = self.pos;
        let mut quote: Option<u8> = None;
        let mut self_closing = false;
        loop {
            let c = self.peek()?;
            self.pos += 1;
            match quote {
                Some(q) => {
                    if c == q {
                        quote = None;
                    }
                }
                None => match c {
                    b'"' | b'\'' => quote = Some(c),
                    b'>' => break,
                    b'/' if self.peek() == Some(b'>') => {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                    _ => {}
                },
            }
        }
        let attrs_end = self.pos - 1 - usize::from(self_closing);
        Some(Tag {
            name_start,
            name_end,
            attrs: Span::new(attrs_start, attrs_end),
            end: self.pos,
            closing,
            self_closing,
        })
    }

    /// Extracts `xmi:type` and `xmi:id` from a tag's attribute region.
    /// Bails on syntax the parser would reject and on values carrying
    /// entity references (never the case for types and identifiers).
    fn type_and_id(&self, tag: &Tag) -> Option<(Rc<str>, Rc<str>)> {
        let mut ty = None;
        let mut id = None;
        let region = &self.b[tag.attrs.start..tag.attrs.end];
        let mut i = 0;
        while i < region.len() {
            match region[i] {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    i += 1;
                    continue;
                }
                _ => {}
            }
            let key_start = i;
            while i < region.len()
                && ((region[i] as char).is_ascii_alphanumeric()
                    || matches!(region[i], b':' | b'_' | b'-' | b'.'))
            {
                i += 1;
            }
            if i == key_start {
                return None;
            }
            let key = &region[key_start..i];
            while i < region.len() && region[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= region.len() || region[i] != b'=' {
                return None;
            }
            i += 1;
            while i < region.len() && region[i].is_ascii_whitespace() {
                i += 1;
            }
            let q = *region.get(i)?;
            if q != b'"' && q != b'\'' {
                return None;
            }
            i += 1;
            let val_start = i;
            while i < region.len() && region[i] != q {
                i += 1;
            }
            if i >= region.len() {
                return None;
            }
            let value = std::str::from_utf8(&region[val_start..i]).ok()?;
            i += 1;
            if key == b"xmi:type" || key == b"xmi:id" {
                if value.contains('&') {
                    return None;
                }
                if key == b"xmi:type" {
                    ty = Some(Rc::from(value));
                } else {
                    id = Some(Rc::from(value));
                }
            }
        }
        Some((ty?, id?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::XmlNode;

    const DOC: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<xmi:XMI xmlns:xmi="http://www.omg.org/XMI">
  <uml:Model name="m">
    <!-- a comment between elements -->
    <packagedElement xmi:type="uml:Class" xmi:id="class0" name="A"/>
    <packagedElement xmi:type="uml:StateMachine" xmi:id="sm0" name="b">
      <state name="s0" kind="normal"/>
    </packagedElement>
  </uml:Model>
  <profileApplication appliedProfile="TUTProfile">
    <stereotypeApplication base="class0" stereotype="ApplicationComponent"/>
  </profileApplication>
</xmi:XMI>
"#;

    #[test]
    fn scans_segments_in_document_order() {
        let outline = Outline::scan(DOC).unwrap();
        assert_eq!(outline.segments.len(), 2);
        assert_eq!(&*outline.segments[0].ty, "uml:Class");
        assert_eq!(&*outline.segments[0].id, "class0");
        assert_eq!(&*outline.segments[1].ty, "uml:StateMachine");
        assert_eq!(&*outline.segments[1].id, "sm0");
        let seg0 = outline.segment_text(DOC, 0);
        assert!(seg0.starts_with("<packagedElement"));
        assert!(seg0.ends_with("/>"));
        let seg1 = outline.segment_text(DOC, 1);
        assert!(seg1.ends_with("</packagedElement>"));
        let pa = outline.profile_app.unwrap();
        assert!(DOC[pa.start..pa.end].starts_with("<profileApplication"));
        assert!(DOC[pa.start..pa.end].ends_with("</profileApplication>"));
    }

    #[test]
    fn segments_parse_standalone_and_skeleton_parses() {
        let outline = Outline::scan(DOC).unwrap();
        for i in 0..outline.segments.len() {
            let node = XmlNode::parse(outline.segment_text(DOC, i)).unwrap();
            assert_eq!(node.name, "packagedElement");
            assert_eq!(node.attr("xmi:id"), Some(&*outline.segments[i].id));
        }
        let skeleton = outline.skeleton(DOC);
        let root = XmlNode::parse(&skeleton).unwrap();
        assert_eq!(root.name, "xmi:XMI");
        let model = root.child("uml:Model").unwrap();
        assert!(model.children.is_empty());
        assert!(root.child("profileApplication").is_none());
        // Skeleton-prefix spans equal whole-document spans: every splice
        // comes after the model start tag.
        let whole = XmlNode::parse(DOC).unwrap();
        assert_eq!(root.span, whole.span);
        assert_eq!(model.span, whole.child("uml:Model").unwrap().span);
    }

    #[test]
    fn real_generated_documents_scan() {
        // The writer's output for any system model must be scannable,
        // otherwise the incremental path never engages.
        let doc = crate::xmi::to_xml(&crate::model::Model::new("empty"));
        let outline = Outline::scan(&doc).expect("generated documents must scan");
        assert!(outline.segments.is_empty());
    }

    #[test]
    fn quoted_gt_and_comments_do_not_confuse_the_scanner() {
        let doc = r#"<xmi:XMI><uml:Model name="m">
            <packagedElement xmi:type="uml:StateMachine" xmi:id="sm0">
              <transition guard="x > 1"/>
              <!-- </packagedElement> a close tag inside a comment -->
            </packagedElement>
        </uml:Model></xmi:XMI>"#;
        let outline = Outline::scan(doc).unwrap();
        assert_eq!(outline.segments.len(), 1);
        assert!(outline.segment_text(doc, 0).ends_with("</packagedElement>"));
        assert!(outline.profile_app.is_none());
    }

    #[test]
    fn bails_on_anything_unusual() {
        for (label, doc) in [
            ("wrong root", "<root/>"),
            ("no model", "<xmi:XMI><other/></xmi:XMI>"),
            (
                "non-packaged child",
                "<xmi:XMI><uml:Model><weird/></uml:Model></xmi:XMI>",
            ),
            (
                "missing xmi:id",
                r#"<xmi:XMI><uml:Model><packagedElement xmi:type="uml:Class"/></uml:Model></xmi:XMI>"#,
            ),
            (
                "text under model",
                "<xmi:XMI><uml:Model>stray</uml:Model></xmi:XMI>",
            ),
            ("two models", "<xmi:XMI><uml:Model/><uml:Model/></xmi:XMI>"),
            ("doctype", "<!DOCTYPE x><xmi:XMI><uml:Model/></xmi:XMI>"),
            (
                "truncated",
                r#"<xmi:XMI><uml:Model><packagedElement xmi:type="uml:Class" xmi:id="c0">"#,
            ),
            (
                "trailing content",
                "<xmi:XMI><uml:Model/></xmi:XMI><extra/>",
            ),
        ] {
            assert!(Outline::scan(doc).is_none(), "should bail: {label}");
        }
    }
}
