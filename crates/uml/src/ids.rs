//! Typed arena ids for model elements.
//!
//! Every element kind in the [`crate::model::Model`] arena gets its own
//! newtype id (C-NEWTYPE): a `ClassId` can never be confused with a
//! [`PortId`] at compile time. Ids are indices into per-kind vectors and are
//! only meaningful relative to the model that produced them.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a raw arena index.
            ///
            /// Normally ids are handed out by the `Model`'s `add_*` methods;
            /// this constructor exists for deserialisation and testing.
            pub fn from_index(index: usize) -> Self {
                $name(index as u32)
            }

            /// Returns the raw arena index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifies a package in a model.
    PackageId, "pkg"
);
define_id!(
    /// Identifies a class in a model.
    ClassId, "class"
);
define_id!(
    /// Identifies a property (attribute or composite part) in a model.
    PropertyId, "prop"
);
define_id!(
    /// Identifies a port in a model.
    PortId, "port"
);
define_id!(
    /// Identifies a connector in a model.
    ConnectorId, "conn"
);
define_id!(
    /// Identifies a signal type in a model.
    SignalId, "sig"
);
define_id!(
    /// Identifies a dependency in a model.
    DependencyId, "dep"
);
define_id!(
    /// Identifies a state machine in a model.
    StateMachineId, "sm"
);
define_id!(
    /// Identifies a state inside a state machine.
    StateId, "state"
);
define_id!(
    /// Identifies a transition inside a state machine.
    TransitionId, "trans"
);

/// A reference to any stereotypable model element.
///
/// The profile mechanism (see the `tut-profile-core` crate) attaches
/// stereotypes to elements through this enum, which mirrors the UML
/// metaclasses that TUT-Profile extends: `Class`, `Property` (class
/// instances / parts) and `Dependency`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ElementRef {
    /// A class element.
    Class(ClassId),
    /// A property (part) element.
    Property(PropertyId),
    /// A port element.
    Port(PortId),
    /// A connector element.
    Connector(ConnectorId),
    /// A dependency element.
    Dependency(DependencyId),
    /// A signal element.
    Signal(SignalId),
    /// A package element.
    Package(PackageId),
}

impl ElementRef {
    /// Returns the UML metaclass name of the referenced element.
    pub fn metaclass(self) -> Metaclass {
        match self {
            ElementRef::Class(_) => Metaclass::Class,
            ElementRef::Property(_) => Metaclass::Property,
            ElementRef::Port(_) => Metaclass::Port,
            ElementRef::Connector(_) => Metaclass::Connector,
            ElementRef::Dependency(_) => Metaclass::Dependency,
            ElementRef::Signal(_) => Metaclass::Signal,
            ElementRef::Package(_) => Metaclass::Package,
        }
    }
}

impl fmt::Display for ElementRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElementRef::Class(id) => write!(f, "{id}"),
            ElementRef::Property(id) => write!(f, "{id}"),
            ElementRef::Port(id) => write!(f, "{id}"),
            ElementRef::Connector(id) => write!(f, "{id}"),
            ElementRef::Dependency(id) => write!(f, "{id}"),
            ElementRef::Signal(id) => write!(f, "{id}"),
            ElementRef::Package(id) => write!(f, "{id}"),
        }
    }
}

impl From<ClassId> for ElementRef {
    fn from(id: ClassId) -> Self {
        ElementRef::Class(id)
    }
}
impl From<PropertyId> for ElementRef {
    fn from(id: PropertyId) -> Self {
        ElementRef::Property(id)
    }
}
impl From<PortId> for ElementRef {
    fn from(id: PortId) -> Self {
        ElementRef::Port(id)
    }
}
impl From<ConnectorId> for ElementRef {
    fn from(id: ConnectorId) -> Self {
        ElementRef::Connector(id)
    }
}
impl From<DependencyId> for ElementRef {
    fn from(id: DependencyId) -> Self {
        ElementRef::Dependency(id)
    }
}
impl From<SignalId> for ElementRef {
    fn from(id: SignalId) -> Self {
        ElementRef::Signal(id)
    }
}
impl From<PackageId> for ElementRef {
    fn from(id: PackageId) -> Self {
        ElementRef::Package(id)
    }
}

/// The UML metaclasses this metamodel subset knows about.
///
/// Stereotypes declare which metaclass they extend (second-class
/// extensibility, §2 of the paper); applying a stereotype to an element of a
/// different metaclass is rejected by the profile layer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Metaclass {
    /// `uml::Class`.
    Class,
    /// `uml::Property` (attributes and composite-structure parts).
    Property,
    /// `uml::Port`.
    Port,
    /// `uml::Connector`.
    Connector,
    /// `uml::Dependency`.
    Dependency,
    /// `uml::Signal`.
    Signal,
    /// `uml::Package`.
    Package,
}

impl Metaclass {
    /// The metaclass name as it appears in UML (and in Table 1 of the paper).
    pub fn name(self) -> &'static str {
        match self {
            Metaclass::Class => "Class",
            Metaclass::Property => "Property",
            Metaclass::Port => "Port",
            Metaclass::Connector => "Connector",
            Metaclass::Dependency => "Dependency",
            Metaclass::Signal => "Signal",
            Metaclass::Package => "Package",
        }
    }
}

impl fmt::Display for Metaclass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_indices() {
        let id = ClassId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "class7");
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we just check equality works.
        assert_eq!(PortId::from_index(0), PortId::from_index(0));
        assert_ne!(PortId::from_index(0), PortId::from_index(1));
    }

    #[test]
    fn element_ref_metaclass() {
        assert_eq!(
            ElementRef::Class(ClassId::from_index(0)).metaclass(),
            Metaclass::Class
        );
        assert_eq!(
            ElementRef::Dependency(DependencyId::from_index(3)).metaclass(),
            Metaclass::Dependency
        );
    }

    #[test]
    fn element_ref_from_impls() {
        let r: ElementRef = ClassId::from_index(2).into();
        assert_eq!(r, ElementRef::Class(ClassId::from_index(2)));
        let r: ElementRef = PortId::from_index(1).into();
        assert_eq!(r.metaclass(), Metaclass::Port);
    }
}
