//! Instance trees and signal routing through composite structures.
//!
//! The TUTMAC model (Figure 5) nests processes inside structural
//! components: `msduRec` lives inside the `ui : UserInterface` part of
//! `Tutmac_Protocol`. When `msduRec` sends a signal through one of its
//! ports, the receiver is found by following connectors *across* the
//! boundary ports of the structural components.
//!
//! This module builds the instance tree of a top-level class
//! ([`InstanceTree`]) and resolves end-to-end signal routes
//! ([`RoutingTable`]): for every (process instance, port, signal) triple it
//! precomputes the set of receiving (process instance, port) pairs. The
//! simulator and the code generator both consume the table.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::error::{Error, Result};
use crate::ids::{ClassId, PortId, PropertyId, SignalId};
use crate::model::Model;

/// A node of the instance tree: one concrete instance of a class reached
/// by a chain of parts from the top-level class.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstanceNode {
    /// The chain of parts from the top class to this instance (empty for
    /// the top instance itself).
    pub path: Vec<PropertyId>,
    /// The class this instance instantiates.
    pub class: ClassId,
    /// Index of the parent instance in the tree, `None` for the top.
    pub parent: Option<usize>,
}

/// Index of an instance within an [`InstanceTree`].
pub type InstanceIndex = usize;

/// The fully unfolded instance tree of a top-level class.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstanceTree {
    top: ClassId,
    nodes: Vec<InstanceNode>,
}

impl InstanceTree {
    /// Unfolds the instance tree rooted at `top`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WellFormedness`] if the composition hierarchy is
    /// cyclic (the tree would be infinite).
    pub fn build(model: &Model, top: ClassId) -> Result<InstanceTree> {
        let mut nodes = vec![InstanceNode {
            path: Vec::new(),
            class: top,
            parent: None,
        }];
        let mut queue = VecDeque::from([0usize]);
        // A part chain longer than the number of classes in the model must
        // repeat a class, i.e. the composition is cyclic.
        let max_depth = model.classes().count();
        while let Some(index) = queue.pop_front() {
            let class = nodes[index].class;
            if nodes[index].path.len() > max_depth {
                return Err(Error::WellFormedness(format!(
                    "composition of class `{}` appears cyclic",
                    model.class(top).name()
                )));
            }
            for &part in model.class(class).parts() {
                let mut path = nodes[index].path.clone();
                path.push(part);
                let child = InstanceNode {
                    path,
                    class: model.property(part).type_(),
                    parent: Some(index),
                };
                nodes.push(child);
                queue.push_back(nodes.len() - 1);
                if nodes.len() > 100_000 {
                    return Err(Error::WellFormedness(
                        "instance tree exceeds 100000 nodes; composition is likely cyclic".into(),
                    ));
                }
            }
        }
        Ok(InstanceTree { top, nodes })
    }

    /// The top-level class.
    pub fn top(&self) -> ClassId {
        self.top
    }

    /// All instances, top first, in breadth-first order.
    pub fn nodes(&self) -> &[InstanceNode] {
        &self.nodes
    }

    /// The instance at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node(&self, index: InstanceIndex) -> &InstanceNode {
        &self.nodes[index]
    }

    /// Indices of all instances whose class is active ("processes").
    pub fn active_instances(&self, model: &Model) -> Vec<InstanceIndex> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| model.class(n.class).is_active())
            .map(|(i, _)| i)
            .collect()
    }

    /// Finds the direct child of `parent` introduced by `part`.
    pub fn child(&self, parent: InstanceIndex, part: PropertyId) -> Option<InstanceIndex> {
        self.nodes
            .iter()
            .position(|n| n.parent == Some(parent) && n.path.last() == Some(&part))
    }

    /// A human-readable dotted name, e.g. `ui.msduRec`, or the class name
    /// for the top instance.
    pub fn display_name(&self, model: &Model, index: InstanceIndex) -> String {
        let node = &self.nodes[index];
        if node.path.is_empty() {
            return model.class(node.class).name().to_owned();
        }
        node.path
            .iter()
            .map(|&p| model.property(p).name().to_owned())
            .collect::<Vec<_>>()
            .join(".")
    }
}

/// A resolved communication endpoint: a port on a concrete instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Endpoint {
    /// The instance.
    pub instance: InstanceIndex,
    /// The port on that instance's class.
    pub port: PortId,
}

/// Precomputed signal routes: who receives what, sent from where.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RoutingTable {
    routes: HashMap<(InstanceIndex, PortId, SignalId), Vec<Endpoint>>,
}

impl RoutingTable {
    /// Builds the routing table for every active instance in `tree`.
    ///
    /// For each active instance, each of its ports, and each signal the
    /// port *requires*, the table records every reachable active endpoint
    /// whose port *provides* the signal, found by breadth-first search over
    /// the connector graph (crossing structural-component boundary ports).
    pub fn build(model: &Model, tree: &InstanceTree) -> RoutingTable {
        // Node = (instance, port). Build undirected adjacency from every
        // connector, interpreted in the context of the instance that owns
        // the composite structure.
        let mut adjacency: HashMap<Endpoint, Vec<Endpoint>> = HashMap::new();
        for (context_index, context) in tree.nodes().iter().enumerate() {
            for (_, conn) in model.connectors_of(context.class) {
                let resolve = |end: crate::model::ConnectorEnd| -> Option<Endpoint> {
                    match end.part {
                        Some(part) => tree.child(context_index, part).map(|child| Endpoint {
                            instance: child,
                            port: end.port,
                        }),
                        None => Some(Endpoint {
                            instance: context_index,
                            port: end.port,
                        }),
                    }
                };
                let [a, b] = conn.ends();
                if let (Some(ea), Some(eb)) = (resolve(a), resolve(b)) {
                    adjacency.entry(ea).or_default().push(eb);
                    adjacency.entry(eb).or_default().push(ea);
                }
            }
        }

        let mut routes = HashMap::new();
        for &source_instance in &tree.active_instances(model) {
            let class = model.class(tree.node(source_instance).class);
            for &port in class.ports() {
                for &signal in model.port(port).required() {
                    let start = Endpoint {
                        instance: source_instance,
                        port,
                    };
                    let mut receivers = Vec::new();
                    let mut visited: HashSet<Endpoint> = HashSet::from([start]);
                    let mut queue = VecDeque::from([start]);
                    while let Some(node) = queue.pop_front() {
                        let Some(neighbors) = adjacency.get(&node) else {
                            continue;
                        };
                        for &next in neighbors {
                            if !visited.insert(next) {
                                continue;
                            }
                            let next_class = model.class(tree.node(next.instance).class);
                            let provides = model.port(next.port).provided().contains(&signal);
                            if next_class.is_active() && next.instance != source_instance {
                                if provides {
                                    receivers.push(next);
                                }
                                // Active instances terminate the walk: their
                                // ports are endpoints, not relays.
                                continue;
                            }
                            queue.push_back(next);
                        }
                    }
                    receivers.sort_by_key(|e| (e.instance, e.port));
                    routes.insert((source_instance, port, signal), receivers);
                }
            }
        }
        RoutingTable { routes }
    }

    /// The receivers for a signal sent from `instance` through `port`.
    pub fn receivers(
        &self,
        instance: InstanceIndex,
        port: PortId,
        signal: SignalId,
    ) -> &[Endpoint] {
        self.routes
            .get(&(instance, port, signal))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates over every route entry.
    pub fn iter(
        &self,
    ) -> impl Iterator<Item = (&(InstanceIndex, PortId, SignalId), &Vec<Endpoint>)> + '_ {
        self.routes.iter()
    }

    /// Number of (sender, port, signal) entries.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no routes were resolved.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The class called `name`.
    fn class_named(model: &Model, name: &str) -> ClassId {
        model
            .classes()
            .find(|(_, c)| c.name() == name)
            .map(|(id, _)| id)
            .expect("class exists")
    }
    use crate::model::ConnectorEnd;
    use crate::statemachine::{StateMachine, Trigger};

    /// Top contains a structural `shell` containing active `inner`, plus an
    /// active `peer` at top level. peer.out --> shell boundary --> inner.in.
    fn nested_model() -> (Model, ClassId) {
        let mut m = Model::new("Nested");
        let sig = m.add_signal("Data");
        let top = m.add_class("Top");
        let shell = m.add_class("Shell");
        let inner = m.add_class("Inner");
        let peer = m.add_class("Peer");

        let inner_in = m.add_port(inner, "in");
        m.port_mut(inner_in).add_provided(sig);
        let peer_out = m.add_port(peer, "out");
        m.port_mut(peer_out).add_required(sig);
        let shell_port = m.add_port(shell, "boundary");
        m.port_mut(shell_port).add_provided(sig);

        let inner_part = m.add_part(shell, "inner", inner);
        let shell_part = m.add_part(top, "shell", shell);
        let peer_part = m.add_part(top, "peer", peer);

        // Delegation inside Shell: boundary -> inner.in
        m.add_connector(
            shell,
            "deleg",
            ConnectorEnd {
                part: None,
                port: shell_port,
            },
            ConnectorEnd {
                part: Some(inner_part),
                port: inner_in,
            },
        );
        // Assembly at Top: peer.out -> shell.boundary
        m.add_connector(
            top,
            "wire",
            ConnectorEnd {
                part: Some(peer_part),
                port: peer_out,
            },
            ConnectorEnd {
                part: Some(shell_part),
                port: shell_port,
            },
        );

        // Behaviours to mark Inner and Peer active.
        for class in [inner, peer] {
            let mut sm = StateMachine::new("B");
            let s = sm.add_state("S");
            sm.set_initial(s);
            sm.add_transition(s, s, Trigger::Signal(sig), None, vec![]);
            m.add_state_machine(class, sm);
        }
        (m, top)
    }

    #[test]
    fn instance_tree_unfolds_nesting() {
        let (m, top) = nested_model();
        let tree = InstanceTree::build(&m, top).unwrap();
        // top, shell, peer, inner
        assert_eq!(tree.nodes().len(), 4);
        let actives = tree.active_instances(&m);
        assert_eq!(actives.len(), 2);
        let names: Vec<_> = actives.iter().map(|&i| tree.display_name(&m, i)).collect();
        assert!(names.contains(&"peer".to_owned()));
        assert!(names.contains(&"shell.inner".to_owned()));
    }

    #[test]
    fn routing_crosses_structural_boundaries() {
        let (m, top) = nested_model();
        let tree = InstanceTree::build(&m, top).unwrap();
        let table = RoutingTable::build(&m, &tree);

        let sig = m.find_signal("Data").unwrap();
        let peer_class = class_named(&m, "Peer");
        let peer_out = m.find_port(peer_class, "out").unwrap();
        let peer_index = tree
            .nodes()
            .iter()
            .position(|n| n.class == peer_class)
            .unwrap();

        let receivers = table.receivers(peer_index, peer_out, sig);
        assert_eq!(receivers.len(), 1);
        let receiver = receivers[0];
        assert_eq!(tree.display_name(&m, receiver.instance), "shell.inner");
        let inner_class = class_named(&m, "Inner");
        assert_eq!(receiver.port, m.find_port(inner_class, "in").unwrap());
    }

    #[test]
    fn cyclic_composition_is_rejected() {
        let mut m = Model::new("Cycle");
        let a = m.add_class("A");
        let b = m.add_class("B");
        m.add_part(a, "b", b);
        m.add_part(b, "a", a);
        assert!(InstanceTree::build(&m, a).is_err());
    }

    #[test]
    fn child_follows_the_part_chain() {
        let (m, top) = nested_model();
        let tree = InstanceTree::build(&m, top).unwrap();
        let part_named = |owner: ClassId, name: &str| {
            m.class(owner)
                .parts()
                .iter()
                .copied()
                .find(|&p| m.property(p).name() == name)
                .unwrap()
        };
        let shell_part = part_named(top, "shell");
        let inner_part = part_named(class_named(&m, "Shell"), "inner");
        let shell_index = tree.child(0, shell_part).unwrap();
        let inner_index = tree.child(shell_index, inner_part).unwrap();
        assert_eq!(tree.node(inner_index).class, class_named(&m, "Inner"));
        assert_eq!(tree.node(inner_index).path, [shell_part, inner_part]);
        assert_eq!(tree.child(0, inner_part), None, "not a direct child");
    }

    #[test]
    fn unrouted_port_has_no_receivers() {
        let mut m = Model::new("Loose");
        let sig = m.add_signal("S");
        let top = m.add_class("Top");
        let lone = m.add_class("Lone");
        let out = m.add_port(lone, "out");
        m.port_mut(out).add_required(sig);
        m.add_part(top, "lone", lone);
        let mut sm = StateMachine::new("B");
        let s = sm.add_state("S");
        sm.set_initial(s);
        m.add_state_machine(lone, sm);

        let tree = InstanceTree::build(&m, top).unwrap();
        let table = RoutingTable::build(&m, &tree);
        let lone_index = tree.nodes().iter().position(|n| n.class == lone).unwrap();
        assert!(table.receivers(lone_index, out, sig).is_empty());
    }
}
