//! The UML model arena: packages, classes, parts, ports, connectors,
//! signals, and dependencies.
//!
//! A [`Model`] owns every element in flat vectors and hands out typed ids
//! ([`crate::ids`]). Elements never hold references to each other — only
//! ids — so the whole model is a plain value: `Clone`, `Send`, `Sync`, and
//! serialisable.

use std::fmt;

use crate::ids::{
    ClassId, ConnectorId, DependencyId, ElementRef, PackageId, PortId, PropertyId, SignalId,
    StateMachineId,
};
use crate::statemachine::StateMachine;
use crate::value::DataType;

/// A UML package: a namespace for classes.
#[derive(Clone, PartialEq, Debug)]
pub struct Package {
    name: String,
    parent: Option<PackageId>,
}

impl Package {
    /// The package name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The owning package, if nested.
    pub fn parent(&self) -> Option<PackageId> {
        self.parent
    }
}

/// A typed attribute of a class (becomes a process-local variable for
/// active classes).
#[derive(Clone, PartialEq, Debug)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Attribute data type.
    pub data_type: DataType,
}

/// A UML class.
///
/// Active classes ("functional components" in the paper) carry behaviour
/// via a [`StateMachine`]; passive classes ("structural components") only
/// have composite structure.
#[derive(Clone, PartialEq, Debug)]
pub struct Class {
    name: String,
    package: Option<PackageId>,
    is_active: bool,
    attributes: Vec<Attribute>,
    parts: Vec<PropertyId>,
    ports: Vec<PortId>,
    behavior: Option<StateMachineId>,
    general: Option<ClassId>,
}

impl Class {
    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The owning package, if any.
    pub fn package(&self) -> Option<PackageId> {
        self.package
    }

    /// Whether the class is active (has its own thread of control).
    pub fn is_active(&self) -> bool {
        self.is_active
    }

    /// Marks the class active or passive.
    pub(crate) fn set_active(&mut self, active: bool) {
        self.is_active = active;
    }

    /// The class attributes.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Adds an attribute.
    pub(crate) fn add_attribute(&mut self, name: impl Into<String>, data_type: DataType) {
        self.attributes.push(Attribute {
            name: name.into(),
            data_type,
        });
    }

    /// The composite-structure parts owned by this class.
    pub fn parts(&self) -> &[PropertyId] {
        &self.parts
    }

    /// The ports on this class.
    pub fn ports(&self) -> &[PortId] {
        &self.ports
    }

    /// The classifier behaviour (state machine), if the class is active.
    pub fn behavior(&self) -> Option<StateMachineId> {
        self.behavior
    }

    /// The generalisation (superclass), if any. Used for stereotype
    /// specialisation at the model level.
    pub fn general(&self) -> Option<ClassId> {
        self.general
    }

    /// Sets the superclass.
    pub(crate) fn set_general(&mut self, general: Option<ClassId>) {
        self.general = general;
    }
}

/// A property: a composite-structure part (a class instance playing a role
/// inside another class, e.g. `mng : Management` in Figure 5).
#[derive(Clone, PartialEq, Debug)]
pub struct Property {
    name: String,
    owner: ClassId,
    type_: ClassId,
    multiplicity: u32,
}

impl Property {
    /// The role name of the part.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The class whose composite structure contains this part.
    pub fn owner(&self) -> ClassId {
        self.owner
    }

    /// The class this part is an instance of.
    pub fn type_(&self) -> ClassId {
        self.type_
    }

    /// The multiplicity (number of instances; 1 for scalar parts).
    pub(crate) fn multiplicity(&self) -> u32 {
        self.multiplicity
    }
}

/// A port: an interaction point on a class through which signals flow.
#[derive(Clone, PartialEq, Debug)]
pub struct Port {
    name: String,
    owner: ClassId,
    provided: Vec<SignalId>,
    required: Vec<SignalId>,
}

impl Port {
    /// The port name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The class the port sits on.
    pub fn owner(&self) -> ClassId {
        self.owner
    }

    /// Signals this port can receive.
    pub fn provided(&self) -> &[SignalId] {
        &self.provided
    }

    /// Signals this port can emit.
    pub fn required(&self) -> &[SignalId] {
        &self.required
    }

    /// Declares that the port can receive `signal`.
    pub fn add_provided(&mut self, signal: SignalId) {
        if !self.provided.contains(&signal) {
            self.provided.push(signal);
        }
    }

    /// Declares that the port can emit `signal`.
    pub fn add_required(&mut self, signal: SignalId) {
        if !self.required.contains(&signal) {
            self.required.push(signal);
        }
    }
}

/// One end of a connector: a port, optionally qualified by the part it
/// belongs to. `part == None` means the port sits on the boundary of the
/// class that owns the connector (a delegation connector end).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConnectorEnd {
    /// The part whose port is connected, or `None` for the owning class's
    /// own boundary port.
    pub part: Option<PropertyId>,
    /// The connected port.
    pub port: PortId,
}

/// A connector between two ports in a composite structure.
#[derive(Clone, PartialEq, Debug)]
pub struct Connector {
    name: String,
    owner: ClassId,
    ends: [ConnectorEnd; 2],
}

impl Connector {
    /// The connector name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The class whose composite structure owns this connector.
    pub fn owner(&self) -> ClassId {
        self.owner
    }

    /// Both connector ends.
    pub fn ends(&self) -> [ConnectorEnd; 2] {
        self.ends
    }
}

/// A parameter of a signal.
#[derive(Clone, PartialEq, Debug)]
pub struct SignalParam {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub data_type: DataType,
}

/// A signal type: an asynchronous message with typed parameters.
#[derive(Clone, PartialEq, Debug)]
pub struct Signal {
    name: String,
    params: Vec<SignalParam>,
}

impl Signal {
    /// The signal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The signal parameters, in declaration order.
    pub fn params(&self) -> &[SignalParam] {
        &self.params
    }

    /// Appends a parameter.
    pub fn add_param(&mut self, name: impl Into<String>, data_type: DataType) {
        self.params.push(SignalParam {
            name: name.into(),
            data_type,
        });
    }
}

/// A UML dependency between two elements. TUT-Profile stereotypes
/// dependencies to express process grouping (`«ProcessGrouping»`) and
/// platform mapping (`«PlatformMapping»`).
#[derive(Clone, PartialEq, Debug)]
pub struct Dependency {
    name: String,
    client: ElementRef,
    supplier: ElementRef,
}

impl Dependency {
    /// The dependency name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dependent element (arrow tail).
    pub fn client(&self) -> ElementRef {
        self.client
    }

    /// The element depended upon (arrow head).
    pub fn supplier(&self) -> ElementRef {
        self.supplier
    }
}

/// A complete UML model: the arena of all elements.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Model {
    name: String,
    packages: Vec<Package>,
    classes: Vec<Class>,
    properties: Vec<Property>,
    ports: Vec<Port>,
    connectors: Vec<Connector>,
    signals: Vec<Signal>,
    dependencies: Vec<Dependency>,
    state_machines: Vec<StateMachine>,
}

macro_rules! accessors {
    ($get:ident, $get_mut:ident, $iter:ident, $field:ident, $ty:ty, $id:ty, $kind:literal) => {
        /// Returns the element for `id`.
        ///
        /// # Panics
        ///
        /// Panics if `id` does not belong to this model.
        pub fn $get(&self, id: $id) -> &$ty {
            &self.$field[id.index()]
        }

        /// Returns the element for `id`, mutably.
        ///
        /// # Panics
        ///
        /// Panics if `id` does not belong to this model.
        pub fn $get_mut(&mut self, id: $id) -> &mut $ty {
            &mut self.$field[id.index()]
        }

        /// Iterates over all elements of this kind with their ids.
        pub fn $iter(&self) -> impl Iterator<Item = ($id, &$ty)> + '_ {
            self.$field
                .iter()
                .enumerate()
                .map(|(i, e)| (<$id>::from_index(i), e))
        }
    };
}

impl Model {
    /// Creates an empty model with the given name.
    pub fn new(name: impl Into<String>) -> Model {
        Model {
            name: name.into(),
            ..Model::default()
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    accessors!(
        package,
        package_mut,
        packages,
        packages,
        Package,
        PackageId,
        "package"
    );
    accessors!(class, class_mut, classes, classes, Class, ClassId, "class");
    accessors!(
        property,
        property_mut,
        properties,
        properties,
        Property,
        PropertyId,
        "property"
    );
    accessors!(port, port_mut, ports, ports, Port, PortId, "port");
    accessors!(
        connector,
        connector_mut,
        connectors,
        connectors,
        Connector,
        ConnectorId,
        "connector"
    );
    accessors!(signal, signal_mut, signals, signals, Signal, SignalId, "signal");
    accessors!(
        dependency,
        dependency_mut,
        dependencies,
        dependencies,
        Dependency,
        DependencyId,
        "dependency"
    );
    accessors!(
        state_machine,
        state_machine_mut,
        state_machines,
        state_machines,
        StateMachine,
        StateMachineId,
        "state machine"
    );

    /// Adds a top-level package.
    pub fn add_package(&mut self, name: impl Into<String>) -> PackageId {
        self.add_package_in(None, name)
    }

    /// Adds a package nested under `parent`.
    pub(crate) fn add_package_in(
        &mut self,
        parent: Option<PackageId>,
        name: impl Into<String>,
    ) -> PackageId {
        let id = PackageId::from_index(self.packages.len());
        self.packages.push(Package {
            name: name.into(),
            parent,
        });
        id
    }

    /// Adds a class outside any package.
    pub fn add_class(&mut self, name: impl Into<String>) -> ClassId {
        self.add_class_in(None, name)
    }

    /// Adds a class inside `package`.
    pub fn add_class_in(&mut self, package: Option<PackageId>, name: impl Into<String>) -> ClassId {
        let id = ClassId::from_index(self.classes.len());
        self.classes.push(Class {
            name: name.into(),
            package,
            is_active: false,
            attributes: Vec::new(),
            parts: Vec::new(),
            ports: Vec::new(),
            behavior: None,
            general: None,
        });
        id
    }

    /// Adds a composite-structure part named `name` of type `type_` inside
    /// `owner`.
    pub fn add_part(
        &mut self,
        owner: ClassId,
        name: impl Into<String>,
        type_: ClassId,
    ) -> PropertyId {
        let id = PropertyId::from_index(self.properties.len());
        self.properties.push(Property {
            name: name.into(),
            owner,
            type_,
            multiplicity: 1,
        });
        self.classes[owner.index()].parts.push(id);
        id
    }

    /// Adds a port named `name` on `owner`.
    pub fn add_port(&mut self, owner: ClassId, name: impl Into<String>) -> PortId {
        let id = PortId::from_index(self.ports.len());
        self.ports.push(Port {
            name: name.into(),
            owner,
            provided: Vec::new(),
            required: Vec::new(),
        });
        self.classes[owner.index()].ports.push(id);
        id
    }

    /// Adds a connector inside the composite structure of `owner`.
    pub fn add_connector(
        &mut self,
        owner: ClassId,
        name: impl Into<String>,
        a: ConnectorEnd,
        b: ConnectorEnd,
    ) -> ConnectorId {
        let id = ConnectorId::from_index(self.connectors.len());
        self.connectors.push(Connector {
            name: name.into(),
            owner,
            ends: [a, b],
        });
        id
    }

    /// Adds a signal type.
    pub fn add_signal(&mut self, name: impl Into<String>) -> SignalId {
        let id = SignalId::from_index(self.signals.len());
        self.signals.push(Signal {
            name: name.into(),
            params: Vec::new(),
        });
        id
    }

    /// Adds a dependency from `client` to `supplier`.
    pub fn add_dependency(
        &mut self,
        name: impl Into<String>,
        client: impl Into<ElementRef>,
        supplier: impl Into<ElementRef>,
    ) -> DependencyId {
        let id = DependencyId::from_index(self.dependencies.len());
        self.dependencies.push(Dependency {
            name: name.into(),
            client: client.into(),
            supplier: supplier.into(),
        });
        id
    }

    /// Adds a state machine as the classifier behaviour of `owner`, marking
    /// the class active.
    pub fn add_state_machine(&mut self, owner: ClassId, sm: StateMachine) -> StateMachineId {
        let id = StateMachineId::from_index(self.state_machines.len());
        self.state_machines.push(sm);
        let class = &mut self.classes[owner.index()];
        class.behavior = Some(id);
        class.is_active = true;
        id
    }

    /// Finds a signal by name.
    pub(crate) fn find_signal(&self, name: &str) -> Option<SignalId> {
        self.signals()
            .find(|(_, s)| s.name() == name)
            .map(|(id, _)| id)
    }

    /// Finds a port of `owner` by name.
    pub fn find_port(&self, owner: ClassId, name: &str) -> Option<PortId> {
        self.class(owner)
            .ports()
            .iter()
            .copied()
            .find(|&p| self.port(p).name() == name)
    }

    /// The connectors owned by the composite structure of `owner`.
    pub fn connectors_of(&self, owner: ClassId) -> impl Iterator<Item = (ConnectorId, &Connector)> {
        self.connectors().filter(move |(_, c)| c.owner() == owner)
    }

    /// The fully qualified name of a class (`Package::Class`).
    pub(crate) fn qualified_class_name(&self, id: ClassId) -> String {
        let class = self.class(id);
        let mut segments = vec![class.name().to_owned()];
        let mut pkg = class.package();
        while let Some(p) = pkg {
            let package = self.package(p);
            segments.push(package.name().to_owned());
            pkg = package.parent();
        }
        segments.reverse();
        segments.join("::")
    }

    /// Human-readable display name for any element reference.
    pub fn display_name(&self, element: ElementRef) -> String {
        match element {
            ElementRef::Class(id) => self.class(id).name().to_owned(),
            ElementRef::Property(id) => {
                let p = self.property(id);
                format!("{}:{}", p.name(), self.class(p.type_()).name())
            }
            ElementRef::Port(id) => self.port(id).name().to_owned(),
            ElementRef::Connector(id) => self.connector(id).name().to_owned(),
            ElementRef::Dependency(id) => {
                let d = self.dependency(id);
                if d.name().is_empty() {
                    format!("dep({} -> {})", d.client(), d.supplier())
                } else {
                    d.name().to_owned()
                }
            }
            ElementRef::Signal(id) => self.signal(id).name().to_owned(),
            ElementRef::Package(id) => self.package(id).name().to_owned(),
        }
    }

    /// Total number of elements of all kinds (model size metric used by the
    /// parsing benchmarks).
    pub fn element_count(&self) -> usize {
        self.packages.len()
            + self.classes.len()
            + self.properties.len()
            + self.ports.len()
            + self.connectors.len()
            + self.signals.len()
            + self.dependencies.len()
            + self.state_machines.len()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model `{}` ({} classes, {} parts, {} ports, {} connectors, {} signals, {} dependencies, {} state machines)",
            self.name,
            self.classes.len(),
            self.properties.len(),
            self.ports.len(),
            self.connectors.len(),
            self.signals.len(),
            self.dependencies.len(),
            self.state_machines.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_composite_structure() {
        let mut m = Model::new("M");
        let pkg = m.add_package("App");
        let top = m.add_class_in(Some(pkg), "Top");
        let worker = m.add_class_in(Some(pkg), "Worker");
        let part_a = m.add_part(top, "a", worker);
        let part_b = m.add_part(top, "b", worker);
        let out = m.add_port(worker, "out");
        let inp = m.add_port(worker, "in");
        let sig = m.add_signal("Data");
        m.signal_mut(sig).add_param("payload", DataType::Bytes);
        m.port_mut(out).add_required(sig);
        m.port_mut(inp).add_provided(sig);
        let conn = m.add_connector(
            top,
            "a2b",
            ConnectorEnd {
                part: Some(part_a),
                port: out,
            },
            ConnectorEnd {
                part: Some(part_b),
                port: inp,
            },
        );

        assert_eq!(m.class(top).parts().len(), 2);
        assert_eq!(m.property(part_a).type_(), worker);
        assert_eq!(m.connector(conn).ends()[0].part, Some(part_a));
        assert_eq!(m.connectors_of(top).count(), 1);
        assert_eq!(m.qualified_class_name(top), "App::Top");
        assert_eq!(m.element_count(), 9);
    }

    #[test]
    fn lookups_by_name() {
        let mut m = Model::new("M");
        let c = m.add_class("Alpha");
        let p = m.add_port(c, "north");
        assert_eq!(m.find_port(c, "north"), Some(p));
        assert_eq!(m.find_port(c, "south"), None);
    }

    #[test]
    fn dependencies_between_parts() {
        let mut m = Model::new("M");
        let c = m.add_class("C");
        let g = m.add_class("G");
        let part = m.add_part(c, "x", c);
        let dep = m.add_dependency("grouping", part, g);
        assert_eq!(m.dependency(dep).client(), ElementRef::Property(part));
        assert_eq!(m.dependency(dep).supplier(), ElementRef::Class(g));
        assert!(m
            .display_name(ElementRef::Dependency(dep))
            .contains("grouping"));
    }

    #[test]
    fn nested_packages_qualify_names() {
        let mut m = Model::new("M");
        let outer = m.add_package("Outer");
        let inner = m.add_package_in(Some(outer), "Inner");
        let c = m.add_class_in(Some(inner), "Leaf");
        assert_eq!(m.qualified_class_name(c), "Outer::Inner::Leaf");
    }

    #[test]
    fn ports_dedupe_signal_lists() {
        let mut m = Model::new("M");
        let c = m.add_class("C");
        let p = m.add_port(c, "p");
        let s = m.add_signal("S");
        m.port_mut(p).add_provided(s);
        m.port_mut(p).add_provided(s);
        assert_eq!(m.port(p).provided().len(), 1);
    }

    #[test]
    fn model_is_send_sync_clone() {
        fn assert_traits<T: Send + Sync + Clone>() {}
        assert_traits::<Model>();
    }

    #[test]
    fn display_summarises_counts() {
        let mut m = Model::new("X");
        m.add_class("A");
        let text = m.to_string();
        assert!(text.contains("model `X`"));
        assert!(text.contains("1 classes"));
    }
}
