//! Stage 1: parse the model XML and gather process-group information.

use std::collections::BTreeMap;

use tut_profile::SystemModel;
use tut_uml::instances::InstanceTree;

use crate::error::ProfilingError;

/// The reserved group label for processes outside every group (traffic
/// sources, channel models): the `Environment` row of Table 4.
pub const ENVIRONMENT: &str = "Environment";

/// One process group with its member process instances.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupEntry {
    /// Group name (e.g. `group1`).
    pub name: String,
    /// Dotted instance names of member processes (e.g. `ui.msduRec`).
    pub processes: Vec<String>,
}

/// The process-group information extracted from the model XML.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ProcessGroupInfo {
    /// Groups in model order, with the synthetic [`ENVIRONMENT`] group
    /// appended when ungrouped processes exist.
    pub groups: Vec<GroupEntry>,
    group_of: BTreeMap<String, String>,
}

impl ProcessGroupInfo {
    /// The group a process instance belongs to ([`ENVIRONMENT`] when
    /// ungrouped or unknown).
    pub fn group_of(&self, process: &str) -> &str {
        self.group_of
            .get(process)
            .map(String::as_str)
            .unwrap_or(ENVIRONMENT)
    }

    /// Group labels in report order (declared groups first, then
    /// `Environment`).
    pub fn labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.groups.iter().map(|g| g.name.clone()).collect();
        if !labels.iter().any(|l| l == ENVIRONMENT) {
            labels.push(ENVIRONMENT.to_owned());
        }
        labels
    }

    /// Total number of grouped processes.
    pub fn process_count(&self) -> usize {
        self.group_of.len()
    }

    /// Crate-internal mutable access to the membership map (used by
    /// tests and the exploration tools when re-grouping virtually).
    #[cfg(test)]
    pub(crate) fn group_of_mut(&mut self) -> &mut BTreeMap<String, String> {
        &mut self.group_of
    }
}

/// Parses the XML form of a system model (produced by
/// [`SystemModel::to_xml`]) and gathers the process-group information: for
/// every `«ProcessGroup»`, the dotted instance names of its member
/// processes, resolved through the application's composite structure.
///
/// # Errors
///
/// Returns [`ProfilingError::Model`] when the XML is malformed or does not
/// contain a TUT-Profile application.
pub fn parse_model_xml(xml: &str) -> Result<ProcessGroupInfo, ProfilingError> {
    let system = SystemModel::from_xml(xml).map_err(|e| ProfilingError::Model(e.to_string()))?;
    gather_groups(&system)
}

/// Gathers process-group information from an in-memory system (the
/// XML-free path used by tests and the exploration tools).
///
/// # Errors
///
/// Returns [`ProfilingError::Model`] when the model has no application
/// top or its composition is cyclic.
pub fn gather_groups(system: &SystemModel) -> Result<ProcessGroupInfo, ProfilingError> {
    let app = system.application();
    let top = app
        .top()
        .ok_or_else(|| ProfilingError::Model("no \u{ab}Application\u{bb} class".into()))?;
    let tree = InstanceTree::build(&system.model, top)
        .map_err(|e| ProfilingError::Model(e.to_string()))?;

    // Part id -> all dotted instance names containing it as the last hop.
    let mut names_of_part: BTreeMap<tut_uml::ids::PropertyId, Vec<String>> = BTreeMap::new();
    for &instance in &tree.active_instances(&system.model) {
        let node = tree.node(instance);
        if let Some(&part) = node.path.last() {
            names_of_part
                .entry(part)
                .or_default()
                .push(tree.display_name(&system.model, instance));
        }
    }

    let mut info = ProcessGroupInfo::default();
    for group in app.groups() {
        let mut processes = Vec::new();
        for part in group.members {
            for name in names_of_part.get(&part).cloned().unwrap_or_default() {
                info.group_of.insert(name.clone(), group.name.clone());
                processes.push(name);
            }
        }
        info.groups.push(GroupEntry {
            name: group.name,
            processes,
        });
    }
    // Ungrouped processes form the environment.
    let mut environment = Vec::new();
    for &instance in &tree.active_instances(&system.model) {
        let name = tree.display_name(&system.model, instance);
        if !info.group_of.contains_key(&name) {
            info.group_of.insert(name.clone(), ENVIRONMENT.to_owned());
            environment.push(name);
        }
    }
    if !environment.is_empty() {
        info.groups.push(GroupEntry {
            name: ENVIRONMENT.to_owned(),
            processes: environment,
        });
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The class called `name`.
    fn class_named(model: &tut_uml::Model, name: &str) -> tut_uml::ids::ClassId {
        model
            .classes()
            .find(|(_, c)| c.name() == name)
            .map(|(id, _)| id)
            .expect("class exists")
    }
    use tut_profile::application::ProcessType;
    use tut_uml::statemachine::{StateMachine, Trigger};

    fn sample() -> SystemModel {
        let mut s = SystemModel::new("G");
        let top = s.model.add_class("Top");
        s.apply(top, |t| t.application).unwrap();
        let sig = s.model.add_signal("S");
        let comp = s.model.add_class("Worker");
        s.apply(comp, |t| t.application_component).unwrap();
        let port = s.model.add_port(comp, "in");
        s.model.port_mut(port).add_provided(sig);
        let mut sm = StateMachine::new("B");
        let st = sm.add_state("S0");
        sm.set_initial(st);
        sm.add_transition(st, st, Trigger::Signal(sig), None, vec![]);
        s.model.add_state_machine(comp, sm);

        let a = s.model.add_part(top, "a", comp);
        let b = s.model.add_part(top, "b", comp);
        let c = s.model.add_part(top, "envproc", comp);
        for part in [a, b, c] {
            s.apply(part, |t| t.application_process).unwrap();
        }
        let g1 = s.add_process_group("group1", false, ProcessType::General);
        let g2 = s.add_process_group("group2", false, ProcessType::General);
        s.assign_to_group(a, g1);
        s.assign_to_group(b, g2);
        // c stays ungrouped -> Environment.
        s
    }

    #[test]
    fn gather_resolves_membership_and_environment() {
        let info = gather_groups(&sample()).unwrap();
        assert_eq!(info.group_of("a"), "group1");
        assert_eq!(info.group_of("b"), "group2");
        assert_eq!(info.group_of("envproc"), ENVIRONMENT);
        assert_eq!(info.group_of("unknown"), ENVIRONMENT);
        assert_eq!(info.labels(), vec!["group1", "group2", ENVIRONMENT]);
        assert_eq!(info.process_count(), 3);
    }

    #[test]
    fn xml_path_matches_in_memory_path() {
        let system = sample();
        let via_xml = parse_model_xml(&system.to_xml()).unwrap();
        let direct = gather_groups(&system).unwrap();
        assert_eq!(via_xml, direct);
    }

    #[test]
    fn malformed_xml_rejected() {
        assert!(parse_model_xml("<not-a-model/>").is_err());
        assert!(parse_model_xml("garbage").is_err());
    }

    #[test]
    fn nested_processes_get_dotted_names() {
        let mut s = sample();
        // Wrap another process inside a structural component.
        let shell = s.model.add_class("Shell");
        let comp = class_named(&s.model, "Worker");
        let inner = s.model.add_part(shell, "inner", comp);
        s.apply(inner, |t| t.application_process).unwrap();
        let top = class_named(&s.model, "Top");
        s.model.add_part(top, "shell", shell);
        let g1 = class_named(&s.model, "group1");
        s.assign_to_group(inner, g1);

        let info = gather_groups(&s).unwrap();
        assert_eq!(info.group_of("shell.inner"), "group1");
    }
}
