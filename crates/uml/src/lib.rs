//! A from-scratch UML 2.0 metamodel subset for embedded-system design.
//!
//! This crate is the modelling substrate of the TUT-Profile reproduction
//! (Kukkala et al., *UML 2.0 Profile for Embedded System Design*, DATE 2005).
//! It implements the parts of UML 2.0 the paper relies on:
//!
//! * **Kernel** — packages, classes, properties (parts), ports, connectors,
//!   signals, dependencies ([`model::Model`] and friends).
//! * **Composite structures** — parts typed by classes, ports on classes and
//!   parts, connectors between part/port pairs (Figure 5 of the paper).
//! * **Behaviour** — statecharts as asynchronous communicating Extended
//!   Finite State Machines ([`statemachine::StateMachine`]) with a small
//!   action language ([`action`]) used both by the simulator and the C code
//!   generator.
//! * **Interchange** — an XMI-flavoured XML serialisation ([`xmi`]) on top of
//!   a tiny self-contained XML reader/writer ([`xml`]).
//! * **Diagrams** — deterministic text and Graphviz renderings of class and
//!   composite-structure diagrams ([`diagram`]), used to regenerate the
//!   paper's figures.
//!
//! The model is stored in a flat arena keyed by typed ids (see [`ids`]), so a
//! [`model::Model`] is `Clone + Send + Sync`, cheap to snapshot, and easy to
//! serialise — there are no `Rc` cycles.
//!
//! # Example
//!
//! ```
//! use tut_uml::model::Model;
//!
//! let mut model = Model::new("Tiny");
//! let sig = model.add_signal("Ping");
//! let class = model.add_class("Echo");
//! let port = model.add_port(class, "pIn");
//! model.port_mut(port).add_provided(sig);
//! assert_eq!(model.class(class).name(), "Echo");
//! assert_eq!(model.class(class).ports(), [port]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod diagram;
pub mod error;
pub mod ids;
pub mod instances;
pub mod lower;
pub mod model;
pub mod outline;
pub mod statemachine;
pub mod textual;
pub mod validate;
pub mod value;
pub mod xmi;
pub mod xml;

pub use error::{Error, Result};
pub use ids::{
    ClassId, ConnectorId, DependencyId, PackageId, PortId, PropertyId, SignalId, StateId,
    StateMachineId, TransitionId,
};
pub use model::Model;
pub use value::{Bytes, DataType, Value};
