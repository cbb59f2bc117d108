//! The segment outline of an XMI document, read off its parse tree.
//!
//! The incremental front end needs to know *which bytes belong to which
//! top-level model element*: each `packagedElement` directly under the
//! first `uml:Model` (the children [`crate::xmi::read_model`] reads)
//! becomes an independently hashed segment. An edit that stays inside one
//! state-machine segment leaves every other segment's fingerprint — and
//! therefore every cached result keyed on it — untouched.
//!
//! The outline is derived from the tree [`crate::xml`] already parsed, so
//! the document has one reading: there is no second tokenizer whose view
//! of the bytes could differ from the parser's.

use std::rc::Rc;

use tut_diag::Span;

use crate::xml::XmlNode;

/// One top-level `packagedElement` directly under `uml:Model`. The
/// strings are shared, so cloning an outline copies no string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Byte range of the whole element, `<packagedElement` through the
    /// end of its closing tag (or `/>`).
    pub range: Span,
    /// The `xmi:type` attribute value, e.g. `uml:Class` (empty if absent).
    pub ty: Rc<str>,
    /// The `xmi:id` attribute value, e.g. `class0` (empty if absent).
    pub id: Rc<str>,
    /// The `name` attribute value (empty if absent); for a state machine,
    /// the machine's name.
    pub name: Rc<str>,
}

impl Segment {
    /// The span of `<packagedElement`, the location the reader's
    /// [`SpanIndex`](crate::xmi::SpanIndex) records for the element.
    pub fn tag_span(&self) -> Span {
        let start = self.range.start;
        Span::new(start, start + "<packagedElement".len())
    }
}

/// The segment decomposition of one document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outline {
    /// Top-level packaged elements in document order.
    pub segments: Vec<Segment>,
    /// Byte range of the first `profileApplication` element under the
    /// root, when present.
    pub profile_app: Option<Span>,
}

impl Outline {
    /// The outline of the document `root` was parsed from. A document
    /// without a `uml:Model` has no segments.
    pub fn of_tree(root: &XmlNode<'_>) -> Outline {
        let attr = |node: &XmlNode<'_>, key: &str| Rc::from(node.attr(key).unwrap_or(""));
        let segments = root
            .child("uml:Model")
            .map(|model| {
                model
                    .children_named("packagedElement")
                    .map(|node| Segment {
                        range: Span::new(node.span.start, node.end),
                        ty: attr(node, "xmi:type"),
                        id: attr(node, "xmi:id"),
                        name: attr(node, "name"),
                    })
                    .collect()
            })
            .unwrap_or_default();
        Outline {
            segments,
            profile_app: root
                .child("profileApplication")
                .map(|node| Span::new(node.span.start, node.end)),
        }
    }

    /// The text of one segment.
    pub fn segment_text<'a>(&self, text: &'a str, index: usize) -> &'a str {
        let r = self.segments[index].range;
        &text[r.start..r.end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<xmi:XMI xmlns:xmi="http://www.omg.org/XMI">
  <uml:Model name="m">
    <!-- a comment between elements -->
    <packagedElement xmi:type="uml:Class" xmi:id="class0" name="A"/>
    <ownedComment body="not a segment"/>
    <packagedElement xmi:type="uml:StateMachine" xmi:id="sm0" name="b">
      <transition guard="x > 1"/>
      <!-- </packagedElement> a close tag inside a comment -->
    </packagedElement>
  </uml:Model>
  <profileApplication appliedProfile="TUTProfile">
    <stereotypeApplication base="class0" stereotype="ApplicationComponent"/>
  </profileApplication>
</xmi:XMI>
"#;

    #[test]
    fn segments_follow_the_tree_in_document_order() {
        let outline = Outline::of_tree(&XmlNode::parse(DOC).unwrap());
        assert_eq!(outline.segments.len(), 2);
        assert_eq!(&*outline.segments[0].ty, "uml:Class");
        assert_eq!(&*outline.segments[0].id, "class0");
        assert_eq!(&*outline.segments[1].ty, "uml:StateMachine");
        assert_eq!(&*outline.segments[1].id, "sm0");
        assert_eq!(&*outline.segments[1].name, "b");
        let seg0 = outline.segment_text(DOC, 0);
        assert!(seg0.starts_with("<packagedElement"));
        assert!(seg0.ends_with("/>"));
        let seg1 = outline.segment_text(DOC, 1);
        assert!(seg1.ends_with("-->\n    </packagedElement>"));
        let pa = outline.profile_app.unwrap();
        assert!(DOC[pa.start..pa.end].starts_with("<profileApplication"));
        assert!(DOC[pa.start..pa.end].ends_with("</profileApplication>"));
    }

    /// Each segment parses standalone to the subtree the whole-document
    /// parse holds, and its tag span is the one that parse recorded.
    #[test]
    fn segments_parse_standalone_to_their_subtrees() {
        let root = XmlNode::parse(DOC).unwrap();
        let outline = Outline::of_tree(&root);
        let model = root.child("uml:Model").unwrap();
        for (seg, whole) in outline
            .segments
            .iter()
            .zip(model.children_named("packagedElement"))
        {
            let text = &DOC[seg.range.start..seg.range.end];
            assert_eq!(XmlNode::parse(text).unwrap(), *whole);
            assert_eq!(seg.tag_span(), whole.span);
        }
    }

    #[test]
    fn a_document_without_a_model_has_no_segments() {
        let root = XmlNode::parse("<xmi:XMI><other/></xmi:XMI>").unwrap();
        assert_eq!(Outline::of_tree(&root), Outline::default());
        let doc = crate::xmi::to_xml(&crate::model::Model::new("empty"));
        let outline = Outline::of_tree(&XmlNode::parse(&doc).unwrap());
        assert!(outline.segments.is_empty());
        assert!(outline.profile_app.is_none());
    }
}
