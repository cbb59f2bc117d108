//! Deterministic diagram renderings.
//!
//! The paper presents its models as UML diagrams (Figures 4–8). This module
//! regenerates the same information as plain text:
//!
//! * [`class_diagram`] — the class hierarchy with composition associations
//!   (Figure 4).
//! * [`composite_structure_diagram`] — parts, ports, and connectors of one
//!   class (Figure 5).
//!
//! Renderings are deterministic (arena order) so they can be asserted on in
//! tests and diffed across runs. Stereotype annotations are supplied by the
//! caller through a labelling closure, keeping this crate independent of
//! the profile layer.

use std::fmt::Write as _;

use crate::ids::{ClassId, ElementRef};
use crate::model::Model;

/// Options for diagram rendering.
pub struct DiagramOptions<'a> {
    /// Returns the guillemet label (e.g. `«ApplicationComponent»`) for an
    /// element, or `None` for unstereotyped elements.
    pub stereotype_label: Box<dyn Fn(ElementRef) -> Option<String> + 'a>,
}

impl Default for DiagramOptions<'_> {
    fn default() -> Self {
        DiagramOptions {
            stereotype_label: Box::new(|_| None),
        }
    }
}

impl std::fmt::Debug for DiagramOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiagramOptions").finish_non_exhaustive()
    }
}

impl<'a> DiagramOptions<'a> {
    /// Creates options that label elements with the given closure.
    pub fn with_labels(label: impl Fn(ElementRef) -> Option<String> + 'a) -> Self {
        DiagramOptions {
            stereotype_label: Box::new(label),
        }
    }

    fn label(&self, element: impl Into<ElementRef>) -> String {
        match (self.stereotype_label)(element.into()) {
            Some(s) => format!("\u{ab}{s}\u{bb} "),
            None => String::new(),
        }
    }
}

/// Renders a textual class diagram rooted at `root`: the class, its parts'
/// types (composition), and recursively their structures.
pub fn class_diagram(model: &Model, root: ClassId, options: &DiagramOptions<'_>) -> String {
    let mut out = String::new();
    let mut visited = vec![false; model.classes().count()];
    render_class(model, root, options, 0, &mut out, &mut visited);
    out
}

fn render_class(
    model: &Model,
    class_id: ClassId,
    options: &DiagramOptions<'_>,
    depth: usize,
    out: &mut String,
    visited: &mut [bool],
) {
    let class = model.class(class_id);
    let indent = "  ".repeat(depth);
    let kind = if class.is_active() {
        "active"
    } else {
        "passive"
    };
    let _ = writeln!(
        out,
        "{indent}{}class {} ({kind})",
        options.label(class_id),
        model.qualified_class_name(class_id),
    );
    if std::mem::replace(&mut visited[class_id.index()], true) {
        return;
    }
    for &part in class.parts() {
        let p = model.property(part);
        let _ = writeln!(
            out,
            "{indent}  {}part {} : {}",
            options.label(part),
            p.name(),
            model.class(p.type_()).name()
        );
        render_class(model, p.type_(), options, depth + 2, out, visited);
    }
}

/// Renders the composite-structure diagram of `owner` as text: each part
/// with its ports, then each connector with both ends and the signals it
/// carries.
pub fn composite_structure_diagram(
    model: &Model,
    owner: ClassId,
    options: &DiagramOptions<'_>,
) -> String {
    let mut out = String::new();
    let class = model.class(owner);
    let _ = writeln!(
        out,
        "composite structure of {}{}",
        options.label(owner),
        class.name()
    );
    for &port in class.ports() {
        let _ = writeln!(out, "  boundary port {}", model.port(port).name());
    }
    for &part in class.parts() {
        let p = model.property(part);
        let part_class = model.class(p.type_());
        let _ = writeln!(
            out,
            "  {}part {} : {}",
            options.label(part),
            p.name(),
            part_class.name()
        );
        for &port in part_class.ports() {
            let _ = writeln!(out, "    port {}", model.port(port).name());
        }
    }
    for (_, conn) in model.connectors_of(owner) {
        let [a, b] = conn.ends();
        let fmt_end = |end: crate::model::ConnectorEnd| match end.part {
            Some(part) => format!(
                "{}.{}",
                model.property(part).name(),
                model.port(end.port).name()
            ),
            None => format!("self.{}", model.port(end.port).name()),
        };
        let mut signals: Vec<&str> = Vec::new();
        for end in [a, b] {
            for &sig in model.port(end.port).required() {
                let name = model.signal(sig).name();
                if !signals.contains(&name) {
                    signals.push(name);
                }
            }
        }
        let _ = writeln!(
            out,
            "  connector {}: {} <-> {} [{}]",
            conn.name(),
            fmt_end(a),
            fmt_end(b),
            signals.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ConnectorEnd;

    fn sample() -> (Model, ClassId) {
        let mut m = Model::new("M");
        let top = m.add_class("Top");
        let worker = m.add_class("Worker");
        let part_a = m.add_part(top, "a", worker);
        let part_b = m.add_part(top, "b", worker);
        let sig = m.add_signal("Data");
        let pout = m.add_port(worker, "out");
        let pin = m.add_port(worker, "in");
        m.port_mut(pout).add_required(sig);
        m.port_mut(pin).add_provided(sig);
        m.add_connector(
            top,
            "a2b",
            ConnectorEnd {
                part: Some(part_a),
                port: pout,
            },
            ConnectorEnd {
                part: Some(part_b),
                port: pin,
            },
        );
        (m, top)
    }

    #[test]
    fn class_diagram_lists_parts() {
        let (m, top) = sample();
        let text = class_diagram(&m, top, &DiagramOptions::default());
        assert!(text.contains("class Top"));
        assert!(text.contains("part a : Worker"));
        assert!(text.contains("part b : Worker"));
        // Worker structure is rendered only once despite two parts.
        assert_eq!(text.matches("class Worker").count(), 2); // header per part
    }

    #[test]
    fn composite_structure_lists_connectors_and_signals() {
        let (m, top) = sample();
        let text = composite_structure_diagram(&m, top, &DiagramOptions::default());
        assert!(text.contains("connector a2b: a.out <-> b.in [Data]"));
        assert!(text.contains("part a : Worker"));
    }

    #[test]
    fn stereotype_labels_appear() {
        let (m, top) = sample();
        let options = DiagramOptions::with_labels(|e| match e {
            ElementRef::Class(_) => Some("Application".to_owned()),
            _ => None,
        });
        let text = class_diagram(&m, top, &options);
        assert!(text.contains("\u{ab}Application\u{bb} class Top"));
    }

    #[test]
    fn delegation_connector_renders_self_end() {
        let mut m = Model::new("M");
        let top = m.add_class("Top");
        let inner = m.add_class("Inner");
        let part = m.add_part(top, "i", inner);
        let boundary = m.add_port(top, "p");
        let inner_port = m.add_port(inner, "q");
        m.add_connector(
            top,
            "deleg",
            ConnectorEnd {
                part: None,
                port: boundary,
            },
            ConnectorEnd {
                part: Some(part),
                port: inner_port,
            },
        );
        let text = composite_structure_diagram(&m, top, &DiagramOptions::default());
        assert!(text.contains("self.p <-> i.q"));
    }
}
