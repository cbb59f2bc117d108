//! XMI-flavoured XML interchange for [`Model`]s.
//!
//! [`to_xml`] serialises a model to an XML document; [`from_xml`] parses it
//! back. The round trip is exact: `from_xml(&to_xml(&m)) == m` (checked by
//! property tests in the crate's test suite). The profiling tool in
//! `tut-profiling` consumes this format, mirroring the paper's flow where
//! the TCL scripts parse the XML dump of the TAU model (§4.4).
//!
//! The format follows XMI conventions loosely (`xmi:XMI` root,
//! `packagedElement` with `xmi:type`) but is self-describing rather than
//! schema-exact — the paper's tooling was equally tool-specific.
//!
//! # Textual action attributes
//!
//! The writer serialises statements and expressions structurally, but the
//! reader additionally accepts the designer-facing textual notation inline:
//! an `<entry>`, `<actions>`, or `<guard>` element may carry a `text`
//! attribute holding [`crate::textual`] source instead of structural
//! children. [`read_model`] parses such attributes with statement-level
//! error recovery and maps the resulting diagnostics' spans back into the
//! enclosing document, so a syntax error inside an action string is
//! reported at its real line and column in the `.xml` file. (Offsets drift
//! after an XML entity reference inside the attribute, since spans index
//! the unescaped text; plain action source needs none.)

use std::collections::HashMap;

use tut_diag::{Diagnostic, DiagnosticBag, Span};

use crate::action::{BinOp, Builtin, CostClass, Expr, Statement, UnaryOp};
use crate::error::{Error, Result};
use crate::ids::{
    ClassId, ElementRef, PackageId, PortId, PropertyId, SignalId, StateId, StateMachineId,
};
use crate::model::{ConnectorEnd, Model};
use crate::statemachine::{StateMachine, Trigger};
use crate::textual;
use crate::value::{DataType, Value};
use crate::xml::XmlNode;

/// XMI structure error code (lenient reading surfaces these as
/// diagnostics through the check driver).
pub const E_XMI_STRUCTURE: &str = "E0102";

/// Serialises a model to an XML string.
pub fn to_xml(model: &Model) -> String {
    to_xml_node(model).to_xml_string()
}

/// Parses a model from an XML string produced by [`to_xml`].
///
/// # Errors
///
/// Returns [`Error::XmlSyntax`] on malformed XML and
/// [`Error::XmiStructure`] when the XML does not describe a valid model.
pub fn from_xml(text: &str) -> Result<Model> {
    from_xml_node(&XmlNode::parse(text)?)
}

/// Maps element display forms (e.g. `"class3"`, `"port0"`) to the span of
/// the XML start tag that declared them.
///
/// Model-level diagnostics carry only an element attribution (the display
/// form); a driver that read the model from a document uses this index to
/// attach real source locations to them.
#[derive(Clone, Debug, Default)]
pub struct SpanIndex {
    entries: HashMap<String, Span>,
}

impl SpanIndex {
    /// The declaration span of an element, by display form.
    pub fn get(&self, element: &str) -> Option<Span> {
        self.entries
            .get(element)
            .copied()
            .filter(|s| *s != Span::NONE)
    }

    /// Number of indexed elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Serialises a model to an [`XmlNode`] tree.
pub fn to_xml_node(model: &Model) -> XmlNode<'_> {
    let mut root = XmlNode::new("xmi:XMI");
    root.set_attr("xmlns:xmi", "http://schema.omg.org/spec/XMI/2.1");
    root.set_attr("xmlns:uml", "http://schema.omg.org/spec/UML/2.0");
    let doc = root.add_child(XmlNode::new("uml:Model"));
    doc.set_attr("name", model.name());

    for (id, pkg) in model.packages() {
        let node = doc.add_child(packaged("uml:Package", id.to_string(), pkg.name()));
        if let Some(parent) = pkg.parent() {
            node.set_attr("parent", parent.to_string());
        }
    }
    for (id, sig) in model.signals() {
        let node = doc.add_child(packaged("uml:Signal", id.to_string(), sig.name()));
        for param in sig.params() {
            let p = node.add_child(XmlNode::new("ownedParameter"));
            p.set_attr("name", &param.name);
            p.set_attr("type", param.data_type.name());
        }
    }
    for (id, class) in model.classes() {
        let node = doc.add_child(packaged("uml:Class", id.to_string(), class.name()));
        node.set_attr("isActive", bool_str(class.is_active()));
        if let Some(pkg) = class.package() {
            node.set_attr("package", pkg.to_string());
        }
        if let Some(general) = class.general() {
            node.set_attr("general", general.to_string());
        }
        if let Some(behavior) = class.behavior() {
            node.set_attr("classifierBehavior", behavior.to_string());
        }
        for attr in class.attributes() {
            let a = node.add_child(XmlNode::new("ownedAttribute"));
            a.set_attr("name", &attr.name);
            a.set_attr("type", attr.data_type.name());
        }
    }
    for (id, prop) in model.properties() {
        let node = doc.add_child(packaged("uml:Property", id.to_string(), prop.name()));
        node.set_attr("owner", prop.owner().to_string());
        node.set_attr("classType", prop.type_().to_string());
        node.set_attr("multiplicity", prop.multiplicity().to_string());
    }
    for (id, port) in model.ports() {
        let node = doc.add_child(packaged("uml:Port", id.to_string(), port.name()));
        node.set_attr("owner", port.owner().to_string());
        for sig in port.provided() {
            node.add_child(XmlNode::new("provided"))
                .set_attr("signal", sig.to_string());
        }
        for sig in port.required() {
            node.add_child(XmlNode::new("required"))
                .set_attr("signal", sig.to_string());
        }
    }
    for (id, conn) in model.connectors() {
        let node = doc.add_child(packaged("uml:Connector", id.to_string(), conn.name()));
        node.set_attr("owner", conn.owner().to_string());
        for end in conn.ends() {
            let e = node.add_child(XmlNode::new("end"));
            if let Some(part) = end.part {
                e.set_attr("part", part.to_string());
            }
            e.set_attr("port", end.port.to_string());
        }
    }
    for (id, dep) in model.dependencies() {
        let node = doc.add_child(packaged("uml:Dependency", id.to_string(), dep.name()));
        node.set_attr("client", element_ref_str(dep.client()));
        node.set_attr("supplier", element_ref_str(dep.supplier()));
    }
    // State machines are serialised after classes; the owning class is
    // recovered from the class's `classifierBehavior` attribute.
    for (id, sm) in model.state_machines() {
        let node = doc.add_child(packaged("uml:StateMachine", id.to_string(), sm.name()));
        for var in sm.variables() {
            let v = node.add_child(XmlNode::new("variable"));
            v.set_attr("name", &var.name);
            v.set_attr("type", var.data_type.name());
            v.add_child(encode_value(&var.init));
        }
        for (sid, state) in sm.states() {
            let s = node.add_child(XmlNode::new("state"));
            s.set_attr("xmi:id", sid.to_string());
            s.set_attr("name", state.name());
            if !state.entry().is_empty() {
                let entry = s.add_child(XmlNode::new("entry"));
                for statement in state.entry() {
                    entry.add_child(encode_statement(statement));
                }
            }
        }
        if let Some(initial) = sm.initial() {
            node.add_child(XmlNode::new("initial"))
                .set_attr("state", initial.to_string());
        }
        for (_, t) in sm.transitions() {
            let tn = node.add_child(XmlNode::new("transition"));
            tn.set_attr("source", t.source().to_string());
            tn.set_attr("target", t.target().to_string());
            let trig = tn.add_child(XmlNode::new("trigger"));
            match t.trigger() {
                Trigger::Signal(sig) => {
                    trig.set_attr("kind", "signal");
                    trig.set_attr("signal", sig.to_string());
                }
                Trigger::Timer(name) => {
                    trig.set_attr("kind", "timer");
                    trig.set_attr("timer", name.as_str());
                }
                Trigger::Completion => {
                    trig.set_attr("kind", "completion");
                }
            }
            if let Some(guard) = t.guard() {
                tn.add_child(XmlNode::new("guard"))
                    .add_child(encode_expr(guard));
            }
            if !t.actions().is_empty() {
                let actions = tn.add_child(XmlNode::new("actions"));
                for statement in t.actions() {
                    actions.add_child(encode_statement(statement));
                }
            }
        }
    }
    root
}

/// Reconstructs a model from an [`XmlNode`] tree.
///
/// # Errors
///
/// Returns [`Error::XmiStructure`] when required elements or attributes
/// are missing or malformed.
pub fn from_xml_node(root: &XmlNode<'_>) -> Result<Model> {
    let mut bag = DiagnosticBag::new();
    let (model, _) = read_model(root, &mut bag)?;
    if let Some(first) = bag.iter().find(|d| d.is_error()) {
        return Err(Error::Action(first.to_string()));
    }
    Ok(model)
}

/// Reconstructs a model from an [`XmlNode`] tree, recovering from errors
/// in embedded textual action language.
///
/// This is the lenient counterpart of [`from_xml_node`]: `<entry>`,
/// `<actions>`, and `<guard>` elements may carry the designer-facing
/// textual notation in a `text` attribute, and parse errors inside it are
/// pushed into `bag` as spanned diagnostics (located in the enclosing
/// document) instead of aborting the read. Broken statements are dropped;
/// the surviving model is returned together with a [`SpanIndex`] mapping
/// element display forms to their declaration spans.
///
/// # Errors
///
/// Returns [`Error::XmiStructure`] when required elements or attributes
/// are missing or malformed — structural damage still fails fast because
/// nothing downstream can interpret a half-decoded element.
pub fn read_model(root: &XmlNode<'_>, bag: &mut DiagnosticBag) -> Result<(Model, SpanIndex)> {
    if root.name != "xmi:XMI" {
        return Err(Error::XmiStructure(format!(
            "expected root `xmi:XMI`, found `{}`",
            root.name
        )));
    }
    let doc = root.required_child("uml:Model")?;
    let mut model = Model::new(doc.required_attr("name")?);

    let mut index = SpanIndex::default();
    for node in doc.children_named("packagedElement") {
        if let Some(id) = node.attr("xmi:id") {
            index.entries.insert(id.to_owned(), node.span);
        }
    }

    let typed = |ty: &'static str| {
        doc.children_named("packagedElement")
            .filter(move |n| n.attr("xmi:type") == Some(ty))
    };

    for node in typed("uml:Package") {
        let parent = node
            .attr("parent")
            .map(|s| parse_id(s, "pkg").map(PackageId::from_index))
            .transpose()?;
        let id = model.add_package_in(parent, node.required_attr("name")?);
        check_id(node, &id.to_string())?;
    }
    for node in typed("uml:Signal") {
        let id = model.add_signal(node.required_attr("name")?);
        check_id(node, &id.to_string())?;
        for param in node.children_named("ownedParameter") {
            model
                .signal_mut(id)
                .add_param(param.required_attr("name")?, parse_type(param)?);
        }
    }
    // Classes: first pass creates them; `general` / `classifierBehavior`
    // may point forward so they are resolved afterwards.
    let mut class_fixups: Vec<(ClassId, Option<usize>, bool)> = Vec::new();
    for node in typed("uml:Class") {
        let package = node
            .attr("package")
            .map(|s| parse_id(s, "pkg").map(PackageId::from_index))
            .transpose()?;
        let id = model.add_class_in(package, node.required_attr("name")?);
        check_id(node, &id.to_string())?;
        for attr in node.children_named("ownedAttribute") {
            model
                .class_mut(id)
                .add_attribute(attr.required_attr("name")?, parse_type(attr)?);
        }
        let general = node
            .attr("general")
            .map(|s| parse_id(s, "class"))
            .transpose()?;
        let active = node.attr("isActive") == Some("true");
        class_fixups.push((id, general, active));
    }
    for (id, general, active) in &class_fixups {
        let class = model.class_mut(*id);
        class.set_general(general.map(ClassId::from_index));
        class.set_active(*active);
    }
    let class_count = class_fixups.len();
    for node in typed("uml:Property") {
        let owner = parse_owner(node, class_count)?;
        let type_ = ClassId::from_index(parse_id(node.required_attr("classType")?, "class")?);
        let id = model.add_part(owner, node.required_attr("name")?, type_);
        check_id(node, &id.to_string())?;
    }
    for node in typed("uml:Port") {
        let owner = parse_owner(node, class_count)?;
        let id = model.add_port(owner, node.required_attr("name")?);
        check_id(node, &id.to_string())?;
        for p in node.children_named("provided") {
            let sig = SignalId::from_index(parse_id(p.required_attr("signal")?, "sig")?);
            model.port_mut(id).add_provided(sig);
        }
        for r in node.children_named("required") {
            let sig = SignalId::from_index(parse_id(r.required_attr("signal")?, "sig")?);
            model.port_mut(id).add_required(sig);
        }
    }
    for node in typed("uml:Connector") {
        let owner = ClassId::from_index(parse_id(node.required_attr("owner")?, "class")?);
        let ends: Vec<&XmlNode<'_>> = node.children_named("end").collect();
        if ends.len() != 2 {
            return Err(Error::XmiStructure(format!(
                "connector `{}` must have exactly 2 ends, found {}",
                node.attr("name").unwrap_or(""),
                ends.len()
            )));
        }
        let mut decoded = Vec::with_capacity(2);
        for end in ends {
            let part = end
                .attr("part")
                .map(|s| parse_id(s, "prop").map(PropertyId::from_index))
                .transpose()?;
            let port = PortId::from_index(parse_id(end.required_attr("port")?, "port")?);
            decoded.push(ConnectorEnd { part, port });
        }
        let id = model.add_connector(owner, node.required_attr("name")?, decoded[0], decoded[1]);
        check_id(node, &id.to_string())?;
    }
    for node in typed("uml:Dependency") {
        let client = parse_element_ref(node.required_attr("client")?)?;
        let supplier = parse_element_ref(node.required_attr("supplier")?)?;
        let id = model.add_dependency(node.attr("name").unwrap_or(""), client, supplier);
        check_id(node, &id.to_string())?;
    }
    // State machines: re-attach via the class `classifierBehavior` attr.
    let mut owners: Vec<Option<ClassId>> = vec![None; typed("uml:StateMachine").count()];
    for node in typed("uml:Class") {
        if let Some(sm) = node.attr("classifierBehavior") {
            let class = ClassId::from_index(parse_id(node.required_attr("xmi:id")?, "class")?);
            let slot = owners
                .get_mut(parse_id(sm, "sm")?)
                .ok_or_else(|| missing_element(sm))?;
            *slot = Some(class);
        }
    }
    for (i, node) in typed("uml:StateMachine").enumerate() {
        check_id(node, &StateMachineId::from_index(i).to_string())?;
        let sm = decode_state_machine(node, &model, bag)?;
        let owner = owners.get(i).copied().flatten().ok_or_else(|| {
            Error::XmiStructure(format!("state machine `{}` has no owning class", sm.name()))
        })?;
        model.add_state_machine(owner, sm);
    }
    // add_state_machine forces is_active; restore the serialised flags so
    // the round trip is exact.
    for (id, _, active) in class_fixups {
        model.class_mut(id).set_active(active);
    }
    check_references(&model)?;
    Ok((model, index))
}

/// The error for a reference to an element the document does not
/// declare.
fn missing_element(reference: impl std::fmt::Display) -> Error {
    Error::XmiStructure(format!("reference to undeclared element `{reference}`"))
}

/// The `owner` class of a property or port, one of the `class_count`
/// classes already read.
fn parse_owner(node: &XmlNode<'_>, class_count: usize) -> Result<ClassId> {
    let owner = node.required_attr("owner")?;
    let index = parse_id(owner, "class")?;
    if index >= class_count {
        return Err(missing_element(owner));
    }
    Ok(ClassId::from_index(index))
}

/// Rejects a model that refers to an element it does not declare. The
/// reader stores ids as written, and every later pass indexes the
/// model's arenas with them.
fn check_references(model: &Model) -> Result<()> {
    let classes = model.classes().count();
    let properties = model.properties().count();
    let ports = model.ports().count();
    let connectors = model.connectors().count();
    let dependencies = model.dependencies().count();
    let signals = model.signals().count();
    let packages = model.packages().count();
    let declared = |r: ElementRef| {
        let (index, count) = match r {
            ElementRef::Class(id) => (id.index(), classes),
            ElementRef::Property(id) => (id.index(), properties),
            ElementRef::Port(id) => (id.index(), ports),
            ElementRef::Connector(id) => (id.index(), connectors),
            ElementRef::Dependency(id) => (id.index(), dependencies),
            ElementRef::Signal(id) => (id.index(), signals),
            ElementRef::Package(id) => (id.index(), packages),
        };
        if index < count {
            Ok(())
        } else {
            Err(missing_element(r))
        }
    };
    let declared_if_set = |r: Option<ElementRef>| r.map_or(Ok(()), declared);
    for (_, pkg) in model.packages() {
        declared_if_set(pkg.parent().map(ElementRef::from))?;
    }
    for (_, class) in model.classes() {
        declared_if_set(class.package().map(ElementRef::from))?;
        declared_if_set(class.general().map(ElementRef::from))?;
    }
    for (_, prop) in model.properties() {
        declared(prop.type_().into())?;
    }
    for (_, port) in model.ports() {
        for &sig in port.provided().iter().chain(port.required()) {
            declared(sig.into())?;
        }
    }
    for (_, conn) in model.connectors() {
        declared(conn.owner().into())?;
        for end in conn.ends() {
            declared_if_set(end.part.map(ElementRef::from))?;
            declared(end.port.into())?;
        }
    }
    for (_, dep) in model.dependencies() {
        declared(dep.client())?;
        declared(dep.supplier())?;
    }
    Ok(())
}

/// Decodes the body of one `uml:StateMachine` packaged element —
/// variables, states (with entry programs), the initial-state marker,
/// and transitions. Recoverable textual-notation errors are pushed into
/// `bag` with spans in the node's coordinate system; `model` supplies
/// the signal table for the textual parser. The caller attaches the
/// returned machine to its owning class.
///
/// This is the per-element unit the incremental front end re-runs when
/// a single state machine's segment changes.
pub fn decode_state_machine(
    node: &XmlNode<'_>,
    model: &Model,
    bag: &mut DiagnosticBag,
) -> Result<StateMachine> {
    let mut sm = StateMachine::new(node.required_attr("name")?);
    for var in node.children_named("variable") {
        let value_node = var.children.first().ok_or_else(|| {
            Error::XmiStructure("state-machine variable is missing its init value".into())
        })?;
        sm.add_variable(
            var.required_attr("name")?,
            parse_type(var)?,
            decode_value(value_node)?,
        );
    }
    for state in node.children_named("state") {
        let entry = match state.child("entry") {
            Some(entry) => decode_program(entry, model, bag)?,
            None => Vec::new(),
        };
        let sid = sm.add_state_with_entry(state.required_attr("name")?, entry);
        check_id(state, &sid.to_string())?;
    }
    if let Some(initial) = node.child("initial") {
        sm.set_initial(StateId::from_index(parse_id(
            initial.required_attr("state")?,
            "state",
        )?));
    }
    for t in node.children_named("transition") {
        let source = StateId::from_index(parse_id(t.required_attr("source")?, "state")?);
        let target = StateId::from_index(parse_id(t.required_attr("target")?, "state")?);
        let trig_node = t.required_child("trigger")?;
        let trigger = match trig_node.required_attr("kind")? {
            "signal" => Trigger::Signal(SignalId::from_index(parse_id(
                trig_node.required_attr("signal")?,
                "sig",
            )?)),
            "timer" => Trigger::Timer(trig_node.required_attr("timer")?.to_owned()),
            "completion" => Trigger::Completion,
            other => {
                return Err(Error::XmiStructure(format!(
                    "unknown trigger kind `{other}`"
                )))
            }
        };
        let guard = match t.child("guard") {
            Some(g) => match g.attr("text") {
                Some(text) => match textual::parse_expr(text) {
                    Ok(expr) => Some(expr),
                    Err(err) => {
                        let span = g.attr_span("text").unwrap_or(Span::NONE);
                        bag.push(
                            Diagnostic::error(textual::E_SYNTAX, format!("in guard: {err}"))
                                .with_span(span),
                        );
                        None
                    }
                },
                None => Some(
                    g.children
                        .first()
                        .ok_or_else(|| Error::XmiStructure("empty guard element".into()))
                        .and_then(decode_expr)?,
                ),
            },
            None => None,
        };
        let actions = match t.child("actions") {
            Some(actions) => decode_program(actions, model, bag)?,
            None => Vec::new(),
        };
        sm.add_transition(source, target, trigger, guard, actions);
    }
    check_machine_references(&sm, model)?;
    Ok(sm)
}

/// Rejects a machine that refers to a state it does not declare or a
/// signal `model` does not declare.
fn check_machine_references(sm: &StateMachine, model: &Model) -> Result<()> {
    let states = sm.state_count();
    let signals = model.signals().count();
    let state = |id: StateId| {
        if id.index() < states {
            Ok(())
        } else {
            Err(missing_element(id))
        }
    };
    fn sends(statements: &[Statement], signals: usize) -> Result<()> {
        for statement in statements {
            match statement {
                Statement::Send { signal, .. } if signal.index() >= signals => {
                    return Err(missing_element(signal))
                }
                Statement::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    sends(then_branch, signals)?;
                    sends(else_branch, signals)?;
                }
                Statement::While { body, .. } => sends(body, signals)?,
                _ => {}
            }
        }
        Ok(())
    }
    sm.initial().map_or(Ok(()), state)?;
    for (_, s) in sm.states() {
        sends(s.entry(), signals)?;
    }
    for (_, t) in sm.transitions() {
        state(t.source())?;
        state(t.target())?;
        if let Trigger::Signal(sig) = t.trigger() {
            if sig.index() >= signals {
                return Err(missing_element(sig));
            }
        }
        sends(t.actions(), signals)?;
    }
    Ok(())
}

/// Decodes an `<entry>` or `<actions>` element: structural children by
/// default, or textual notation from a `text` attribute with recovery.
fn decode_program(
    parent: &XmlNode<'_>,
    model: &Model,
    bag: &mut DiagnosticBag,
) -> Result<Vec<Statement>> {
    match parent.attr("text") {
        Some(text) => {
            let base = parent.attr_span("text").unwrap_or(Span::NONE).start;
            let parsed = textual::parse_program(text, Some(model));
            for mut d in parsed.diagnostics {
                d.span = d.span.map(|s| s.offset(base));
                bag.push(d);
            }
            Ok(parsed.statements)
        }
        None => decode_statements(parent),
    }
}

fn packaged<'a>(ty: &'static str, id: String, name: &'a str) -> XmlNode<'a> {
    let mut node = XmlNode::new("packagedElement");
    node.set_attr("xmi:type", ty);
    node.set_attr("xmi:id", id);
    node.set_attr("name", name);
    node
}

fn bool_str(v: bool) -> &'static str {
    if v {
        "true"
    } else {
        "false"
    }
}

fn check_id(node: &XmlNode<'_>, expected: &str) -> Result<()> {
    let found = node.required_attr("xmi:id")?;
    if found != expected {
        return Err(Error::XmiStructure(format!(
            "element ids must be dense and ordered: expected `{expected}`, found `{found}`"
        )));
    }
    Ok(())
}

fn parse_id(text: &str, prefix: &'static str) -> Result<usize> {
    text.strip_prefix(prefix)
        .and_then(|rest| rest.parse().ok())
        .ok_or_else(|| Error::XmiStructure(format!("malformed `{prefix}` id `{text}`")))
}

fn parse_type(node: &XmlNode<'_>) -> Result<DataType> {
    let name = node.required_attr("type")?;
    DataType::from_name(name)
        .ok_or_else(|| Error::XmiStructure(format!("unknown data type `{name}`")))
}

fn element_ref_str(r: ElementRef) -> String {
    r.to_string()
}

/// Parses an element reference from its display form (e.g. `"class3"`,
/// `"prop0"`), the inverse of [`ElementRef`]'s `Display`.
///
/// # Errors
///
/// Returns [`Error::XmiStructure`] for unknown prefixes or malformed
/// indices.
pub fn parse_element_ref(text: &str) -> Result<ElementRef> {
    let split = text
        .char_indices()
        .find(|(_, c)| c.is_ascii_digit())
        .map(|(i, _)| i)
        .ok_or_else(|| Error::XmiStructure(format!("malformed element reference `{text}`")))?;
    let (prefix, digits) = text.split_at(split);
    let index: usize = digits
        .parse()
        .map_err(|_| Error::XmiStructure(format!("malformed element reference `{text}`")))?;
    let r = match prefix {
        "class" => ElementRef::Class(ClassId::from_index(index)),
        "prop" => ElementRef::Property(PropertyId::from_index(index)),
        "port" => ElementRef::Port(PortId::from_index(index)),
        "conn" => ElementRef::Connector(crate::ids::ConnectorId::from_index(index)),
        "dep" => ElementRef::Dependency(crate::ids::DependencyId::from_index(index)),
        "sig" => ElementRef::Signal(SignalId::from_index(index)),
        "pkg" => ElementRef::Package(PackageId::from_index(index)),
        other => {
            return Err(Error::XmiStructure(format!(
                "unknown element reference kind `{other}`"
            )))
        }
    };
    Ok(r)
}

fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

fn hex_decode(text: &str) -> Result<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return Err(Error::XmiStructure("odd-length hex string".into()));
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&text[i..i + 2], 16)
                .map_err(|_| Error::XmiStructure(format!("bad hex byte `{}`", &text[i..i + 2])))
        })
        .collect()
}

fn encode_value(value: &Value) -> XmlNode<'_> {
    let mut node = XmlNode::new("value");
    node.set_attr("type", value.data_type().name());
    match value {
        Value::Int(i) => {
            node.set_attr("data", i.to_string());
        }
        Value::Bool(b) => {
            node.set_attr("data", bool_str(*b));
        }
        Value::Bytes(b) => {
            node.set_attr("data", hex_encode(b));
        }
        Value::Str(s) => {
            node.set_attr("data", s.as_str());
        }
    }
    node
}

fn decode_value(node: &XmlNode<'_>) -> Result<Value> {
    let data = node.required_attr("data")?;
    let ty = parse_type(node)?;
    let v = match ty {
        DataType::Int => Value::Int(
            data.parse()
                .map_err(|_| Error::XmiStructure(format!("bad int literal `{data}`")))?,
        ),
        DataType::Bool => Value::Bool(data == "true"),
        DataType::Bytes => Value::from(hex_decode(data)?),
        DataType::Str => Value::Str(data.to_owned()),
    };
    Ok(v)
}

fn binop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Mod => "mod",
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::BitAnd => "bitand",
        BinOp::BitOr => "bitor",
        BinOp::BitXor => "bitxor",
        BinOp::Shl => "shl",
        BinOp::Shr => "shr",
    }
}

fn binop_from_name(name: &str) -> Result<BinOp> {
    const ALL: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
        BinOp::Shl,
        BinOp::Shr,
    ];
    ALL.into_iter()
        .find(|op| binop_name(*op) == name)
        .ok_or_else(|| Error::XmiStructure(format!("unknown binary operator `{name}`")))
}

/// Encodes an expression as a structural XML subtree.
pub fn encode_expr(expr: &Expr) -> XmlNode<'_> {
    match expr {
        Expr::Lit(v) => {
            let mut node = encode_value(v);
            node.name = "lit".into();
            node
        }
        Expr::Var(name) => {
            let mut node = XmlNode::new("var");
            node.set_attr("name", name.as_str());
            node
        }
        Expr::Param(name) => {
            let mut node = XmlNode::new("param");
            node.set_attr("name", name.as_str());
            node
        }
        Expr::Unary(op, e) => {
            let mut node = XmlNode::new("unary");
            node.set_attr(
                "op",
                match op {
                    UnaryOp::Not => "not",
                    UnaryOp::Neg => "neg",
                },
            );
            node.add_child(encode_expr(e));
            node
        }
        Expr::Binary(op, l, r) => {
            let mut node = XmlNode::new("binary");
            node.set_attr("op", binop_name(*op));
            node.add_child(encode_expr(l));
            node.add_child(encode_expr(r));
            node
        }
        Expr::Call(builtin, args) => {
            let mut node = XmlNode::new("call");
            node.set_attr("fn", builtin.name());
            for a in args {
                node.add_child(encode_expr(a));
            }
            node
        }
    }
}

/// Decodes an expression from its structural XML form.
///
/// # Errors
///
/// Returns [`Error::XmiStructure`] for unknown node names, operators, or
/// malformed literals.
pub fn decode_expr(node: &XmlNode<'_>) -> Result<Expr> {
    let expr = match &*node.name {
        "lit" => Expr::Lit(decode_value(node)?),
        "var" => Expr::Var(node.required_attr("name")?.to_owned()),
        "param" => Expr::Param(node.required_attr("name")?.to_owned()),
        "unary" => {
            let op = match node.required_attr("op")? {
                "not" => UnaryOp::Not,
                "neg" => UnaryOp::Neg,
                other => {
                    return Err(Error::XmiStructure(format!(
                        "unknown unary operator `{other}`"
                    )))
                }
            };
            let child = node
                .children
                .first()
                .ok_or_else(|| Error::XmiStructure("unary node missing operand".into()))?;
            Expr::Unary(op, Box::new(decode_expr(child)?))
        }
        "binary" => {
            let op = binop_from_name(node.required_attr("op")?)?;
            if node.children.len() != 2 {
                return Err(Error::XmiStructure("binary node needs two operands".into()));
            }
            Expr::Binary(
                op,
                Box::new(decode_expr(&node.children[0])?),
                Box::new(decode_expr(&node.children[1])?),
            )
        }
        "call" => {
            let name = node.required_attr("fn")?;
            let builtin = Builtin::from_name(name)
                .ok_or_else(|| Error::XmiStructure(format!("unknown builtin `{name}`")))?;
            let args = node
                .children
                .iter()
                .map(decode_expr)
                .collect::<Result<Vec<_>>>()?;
            if args.len() != builtin.arity() {
                return Err(Error::XmiStructure(format!(
                    "builtin `{name}` expects {} arguments, found {}",
                    builtin.arity(),
                    args.len()
                )));
            }
            Expr::Call(builtin, args)
        }
        other => {
            return Err(Error::XmiStructure(format!(
                "unknown expression node `{other}`"
            )))
        }
    };
    Ok(expr)
}

/// Encodes a statement as a structural XML subtree.
pub(crate) fn encode_statement(statement: &Statement) -> XmlNode<'_> {
    match statement {
        Statement::Assign { var, expr } => {
            let mut node = XmlNode::new("assign");
            node.set_attr("var", var.as_str());
            node.add_child(encode_expr(expr));
            node
        }
        Statement::Send { port, signal, args } => {
            let mut node = XmlNode::new("send");
            node.set_attr("port", port.as_str());
            node.set_attr("signal", signal.to_string());
            for a in args {
                node.add_child(encode_expr(a));
            }
            node
        }
        Statement::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let mut node = XmlNode::new("if");
            node.add_child(XmlNode::new("cond"))
                .add_child(encode_expr(cond));
            let then_node = node.add_child(XmlNode::new("then"));
            for s in then_branch {
                then_node.add_child(encode_statement(s));
            }
            let else_node = node.add_child(XmlNode::new("else"));
            for s in else_branch {
                else_node.add_child(encode_statement(s));
            }
            node
        }
        Statement::While {
            cond,
            body,
            max_iter,
        } => {
            let mut node = XmlNode::new("while");
            node.set_attr("max", max_iter.to_string());
            node.add_child(XmlNode::new("cond"))
                .add_child(encode_expr(cond));
            let body_node = node.add_child(XmlNode::new("body"));
            for s in body {
                body_node.add_child(encode_statement(s));
            }
            node
        }
        Statement::Compute { class, amount } => {
            let mut node = XmlNode::new("compute");
            node.set_attr("class", class.name());
            node.add_child(encode_expr(amount));
            node
        }
        Statement::Log { message, args } => {
            let mut node = XmlNode::new("log");
            node.set_attr("message", message.as_str());
            for a in args {
                node.add_child(encode_expr(a));
            }
            node
        }
        Statement::SetTimer { name, duration } => {
            let mut node = XmlNode::new("settimer");
            node.set_attr("name", name.as_str());
            node.add_child(encode_expr(duration));
            node
        }
        Statement::CancelTimer { name } => {
            let mut node = XmlNode::new("canceltimer");
            node.set_attr("name", name.as_str());
            node
        }
        Statement::Count { counter, amount } => {
            let mut node = XmlNode::new("count");
            node.set_attr("counter", counter.as_str());
            node.add_child(encode_expr(amount));
            node
        }
    }
}

fn decode_statements(parent: &XmlNode<'_>) -> Result<Vec<Statement>> {
    parent.children.iter().map(decode_statement).collect()
}

/// Decodes a statement from its structural XML form.
///
/// # Errors
///
/// Returns [`Error::XmiStructure`] for unknown node names or malformed
/// children.
pub(crate) fn decode_statement(node: &XmlNode<'_>) -> Result<Statement> {
    let statement =
        match &*node.name {
            "assign" => Statement::Assign {
                var: node.required_attr("var")?.to_owned(),
                expr: decode_expr(node.children.first().ok_or_else(|| {
                    Error::XmiStructure("assign node missing expression".into())
                })?)?,
            },
            "send" => Statement::Send {
                port: node.required_attr("port")?.to_owned(),
                signal: SignalId::from_index(parse_id(node.required_attr("signal")?, "sig")?),
                args: node
                    .children
                    .iter()
                    .map(decode_expr)
                    .collect::<Result<_>>()?,
            },
            "if" => {
                let cond_node = node.required_child("cond")?;
                Statement::If {
                    cond: decode_expr(
                        cond_node
                            .children
                            .first()
                            .ok_or_else(|| Error::XmiStructure("if condition is empty".into()))?,
                    )?,
                    then_branch: decode_statements(node.required_child("then")?)?,
                    else_branch: decode_statements(node.required_child("else")?)?,
                }
            }
            "while" => {
                let cond_node = node.required_child("cond")?;
                Statement::While {
                    cond: decode_expr(
                        cond_node.children.first().ok_or_else(|| {
                            Error::XmiStructure("while condition is empty".into())
                        })?,
                    )?,
                    body: decode_statements(node.required_child("body")?)?,
                    max_iter: node
                        .required_attr("max")?
                        .parse()
                        .map_err(|_| Error::XmiStructure("bad while bound".into()))?,
                }
            }
            "compute" => {
                let class_name = node.required_attr("class")?;
                Statement::Compute {
                    class: CostClass::from_name(class_name).ok_or_else(|| {
                        Error::XmiStructure(format!("unknown cost class `{class_name}`"))
                    })?,
                    amount: decode_expr(node.children.first().ok_or_else(|| {
                        Error::XmiStructure("compute node missing amount".into())
                    })?)?,
                }
            }
            "log" => Statement::Log {
                message: node.required_attr("message")?.to_owned(),
                args: node
                    .children
                    .iter()
                    .map(decode_expr)
                    .collect::<Result<_>>()?,
            },
            "settimer" => Statement::SetTimer {
                name: node.required_attr("name")?.to_owned(),
                duration: decode_expr(node.children.first().ok_or_else(|| {
                    Error::XmiStructure("settimer node missing duration".into())
                })?)?,
            },
            "canceltimer" => Statement::CancelTimer {
                name: node.required_attr("name")?.to_owned(),
            },
            "count" => Statement::Count {
                counter: node.required_attr("counter")?.to_owned(),
                amount: decode_expr(
                    node.children
                        .first()
                        .ok_or_else(|| Error::XmiStructure("count node missing amount".into()))?,
                )?,
            },
            other => {
                return Err(Error::XmiStructure(format!(
                    "unknown statement node `{other}`"
                )))
            }
        };
    Ok(statement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{BinOp, Builtin};
    use crate::model::ConnectorEnd;

    fn sample_model() -> Model {
        let mut m = Model::new("Sample");
        let pkg = m.add_package("App");
        let sub = m.add_package_in(Some(pkg), "Inner");
        let sig = m.add_signal("Data");
        m.signal_mut(sig).add_param("payload", DataType::Bytes);
        m.signal_mut(sig).add_param("seq", DataType::Int);
        let top = m.add_class_in(Some(pkg), "Top");
        let worker = m.add_class_in(Some(sub), "Worker");
        m.class_mut(worker).add_attribute("count", DataType::Int);
        m.class_mut(worker).set_general(Some(top));
        let part = m.add_part(top, "w", worker);
        let pin = m.add_port(worker, "in");
        let pout = m.add_port(top, "out");
        m.port_mut(pin).add_provided(sig);
        m.port_mut(pout).add_required(sig);
        m.add_connector(
            top,
            "c",
            ConnectorEnd {
                part: None,
                port: pout,
            },
            ConnectorEnd {
                part: Some(part),
                port: pin,
            },
        );
        m.add_dependency("uses", part, worker);

        let mut sm = StateMachine::new("WorkerBehavior");
        sm.add_variable("n", DataType::Int, Value::Int(0));
        sm.add_variable(
            "buf",
            DataType::Bytes,
            Value::Bytes(vec![0xde, 0xad].into()),
        );
        let idle = sm.add_state("Idle");
        let busy = sm.add_state_with_entry(
            "Busy",
            vec![Statement::Log {
                message: "entered busy".into(),
                args: vec![],
            }],
        );
        sm.set_initial(idle);
        sm.add_transition(
            idle,
            busy,
            Trigger::Signal(sig),
            Some(Expr::param("seq").bin(BinOp::Gt, Expr::int(0))),
            vec![
                Statement::Assign {
                    var: "n".into(),
                    expr: Expr::var("n").bin(BinOp::Add, Expr::int(1)),
                },
                Statement::Send {
                    port: "in".into(),
                    signal: sig,
                    args: vec![
                        Expr::call(Builtin::Fill, vec![Expr::int(0), Expr::int(4)]),
                        Expr::var("n"),
                    ],
                },
                Statement::SetTimer {
                    name: "tick".into(),
                    duration: Expr::int(100),
                },
            ],
        );
        sm.add_transition(busy, idle, Trigger::Timer("tick".into()), None, vec![]);
        sm.add_transition(
            busy,
            busy,
            Trigger::Completion,
            Some(Expr::bool(false)),
            vec![],
        );
        m.add_state_machine(worker, sm);
        m
    }

    #[test]
    fn model_round_trips_exactly() {
        let model = sample_model();
        let text = to_xml(&model);
        let parsed = from_xml(&text).expect("parse back");
        assert_eq!(parsed, model);
    }

    #[test]
    fn inactive_class_with_behaviorless_round_trip() {
        let mut m = Model::new("M");
        m.add_class("Passive");
        let text = to_xml(&m);
        assert_eq!(from_xml(&text).unwrap(), m);
    }

    #[test]
    fn expr_round_trip() {
        let exprs = [
            Expr::int(5),
            Expr::Lit(Value::Bytes(vec![1, 2, 3].into())),
            Expr::Lit(Value::Str("hi <&> there".into())),
            Expr::var("x"),
            Expr::param("p"),
            Expr::Unary(UnaryOp::Not, Box::new(Expr::bool(true))),
            Expr::var("a").bin(BinOp::Shl, Expr::int(2)),
            Expr::call(Builtin::Crc32, vec![Expr::var("buf")]),
        ];
        for e in exprs {
            let node = encode_expr(&e);
            assert_eq!(decode_expr(&node).unwrap(), e, "round trip of {e}");
        }
    }

    #[test]
    fn statement_round_trip_via_xml_text() {
        let s = Statement::If {
            cond: Expr::var("x").bin(BinOp::Eq, Expr::int(0)),
            then_branch: vec![Statement::Compute {
                class: CostClass::Dsp,
                amount: Expr::int(64),
            }],
            else_branch: vec![Statement::While {
                cond: Expr::bool(false),
                body: vec![
                    Statement::CancelTimer { name: "t".into() },
                    Statement::Count {
                        counter: "arq.tx".into(),
                        amount: Expr::int(1),
                    },
                ],
                max_iter: 8,
            }],
        };
        let text = encode_statement(&s).to_xml_string();
        let node = XmlNode::parse(&text).unwrap();
        assert_eq!(decode_statement(&node).unwrap(), s);
    }

    #[test]
    fn from_xml_rejects_garbage() {
        assert!(from_xml("<xmi:XMI/>").is_err());
        assert!(from_xml("<wrong/>").is_err());
        assert!(from_xml("not xml at all").is_err());
    }

    fn textual_doc(entry: &str, guard: &str, actions: &str) -> String {
        format!(
            r#"<xmi:XMI>
<uml:Model name="M">
<packagedElement xmi:type="uml:Signal" xmi:id="sig0" name="Data">
<ownedParameter name="seq" type="Int"/>
</packagedElement>
<packagedElement xmi:type="uml:Class" xmi:id="class0" name="Worker" isActive="true" classifierBehavior="sm0"/>
<packagedElement xmi:type="uml:Port" xmi:id="port0" name="out" owner="class0">
<required signal="sig0"/>
</packagedElement>
<packagedElement xmi:type="uml:StateMachine" xmi:id="sm0" name="B">
<variable name="n" type="Int"><value type="Int" data="0"/></variable>
<state xmi:id="state0" name="Idle">
<entry text="{entry}"/>
</state>
<initial state="state0"/>
<transition source="state0" target="state0">
<trigger kind="signal" signal="sig0"/>
<guard text="{guard}"/>
<actions text="{actions}"/>
</transition>
</packagedElement>
</uml:Model>
</xmi:XMI>"#
        )
    }

    #[test]
    fn textual_attributes_read_cleanly() {
        let text = textual_doc("n := 1;", "n == 1", "n := n + 1; send out.Data(n);");
        let root = XmlNode::parse(&text).unwrap();
        let mut bag = DiagnosticBag::new();
        let (model, index) = read_model(&root, &mut bag).expect("read");
        assert!(bag.is_empty(), "unexpected diagnostics: {bag}");

        let sm = model.state_machines().next().unwrap().1;
        let (_, t) = sm.transitions().next().unwrap();
        assert!(t.guard().is_some());
        assert_eq!(t.actions().len(), 2);
        assert!(matches!(t.actions()[1], Statement::Send { .. }));

        // The index points at the declaring start tags.
        let class_span = index.get("class0").expect("class0 indexed");
        assert!(text[class_span.start..].starts_with("<packagedElement"));
        assert!(index.get("sm0").is_some());
        assert!(index.get("nonexistent").is_none());
    }

    #[test]
    fn broken_textual_attributes_recover_with_document_spans() {
        let text = textual_doc("n := 1;", "n ==", "n := ; n := 2;");
        let root = XmlNode::parse(&text).unwrap();
        let mut bag = DiagnosticBag::new();
        let (model, _) = read_model(&root, &mut bag).expect("read");

        // One guard error, one actions error; the guard is dropped and the
        // surviving action statement is kept.
        assert_eq!(bag.error_count(), 2);
        assert!(bag.iter().all(|d| d.code == textual::E_SYNTAX));
        let sm = model.state_machines().next().unwrap().1;
        let (_, t) = sm.transitions().next().unwrap();
        assert!(t.guard().is_none());
        assert_eq!(t.actions().len(), 1);

        // Spans land inside the document's attribute values.
        let actions_attr = text.find("n := ;").unwrap();
        let d = bag
            .iter()
            .find(|d| d.span.is_some_and(|s| s.start >= actions_attr))
            .expect("actions diagnostic carries a document span");
        let span = d.span.unwrap();
        assert!(span.start < actions_attr + "n := ;".len());
    }

    #[test]
    fn strict_reader_rejects_broken_textual_attributes() {
        let text = textual_doc("n := ;", "n == 1", "n := 2;");
        let err = from_xml(&text).unwrap_err();
        assert!(err.to_string().contains("E0110"), "got: {err}");
    }

    #[test]
    fn element_ref_parsing() {
        assert_eq!(
            parse_element_ref("class3").unwrap(),
            ElementRef::Class(ClassId::from_index(3))
        );
        assert_eq!(
            parse_element_ref("prop0").unwrap(),
            ElementRef::Property(PropertyId::from_index(0))
        );
        assert!(parse_element_ref("bogus").is_err());
        assert!(parse_element_ref("class").is_err());
    }

    #[test]
    fn hex_round_trip() {
        let bytes = vec![0x00, 0xff, 0x10, 0xab];
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }
}
