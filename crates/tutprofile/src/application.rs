//! Typed view of the application model (§3.1 of the paper).

use tut_profile_core::TagValue;
use tut_uml::ids::{ClassId, DependencyId, ElementRef, PropertyId};

use crate::system::SystemModel;

/// The `ProcessType` tagged value as a typed enum.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ProcessType {
    /// General-purpose control processing.
    #[default]
    General,
    /// Signal-processing workload.
    Dsp,
    /// Bit-level workload suitable for hardware acceleration.
    Hardware,
}

impl ProcessType {
    /// The tagged-value literal.
    pub fn literal(self) -> &'static str {
        match self {
            ProcessType::General => "general",
            ProcessType::Dsp => "dsp",
            ProcessType::Hardware => "hardware",
        }
    }

    /// Parses from the tagged-value literal.
    pub(crate) fn from_literal(text: &str) -> Option<ProcessType> {
        match text {
            "general" => Some(ProcessType::General),
            "dsp" => Some(ProcessType::Dsp),
            "hardware" => Some(ProcessType::Hardware),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProcessType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.literal())
    }
}

/// The `RealTimeType` tagged value as a typed enum.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum RealTimeType {
    /// Hard real-time requirements.
    Hard,
    /// Soft real-time requirements.
    Soft,
    /// No real-time requirements.
    #[default]
    None,
}

impl RealTimeType {
    /// Parses from the tagged-value literal.
    pub(crate) fn from_literal(text: &str) -> Option<RealTimeType> {
        match text {
            "hard" => Some(RealTimeType::Hard),
            "soft" => Some(RealTimeType::Soft),
            "none" => Some(RealTimeType::None),
            _ => None,
        }
    }
}

/// One application process: a part stereotyped `«ApplicationProcess»`.
#[derive(Clone, PartialEq, Debug)]
pub struct ProcessInfo {
    /// The part element.
    pub part: PropertyId,
    /// The part's role name (e.g. `rca`).
    pub name: String,
    /// The functional component class it instantiates.
    pub component: ClassId,
    /// Execution priority.
    pub priority: i64,
    /// Declared process type.
    pub process_type: ProcessType,
    /// Declared real-time class.
    pub real_time: RealTimeType,
    /// Declared code memory requirement (bytes), if set.
    pub code_memory: Option<i64>,
    /// Declared data memory requirement (bytes), if set.
    pub data_memory: Option<i64>,
}

/// One process group: a class stereotyped `«ProcessGroup»` together with
/// its members (resolved through `«ProcessGrouping»` dependencies).
#[derive(Clone, PartialEq, Debug)]
pub struct GroupInfo {
    /// The group class.
    pub class: ClassId,
    /// Group name (e.g. `group1`).
    pub name: String,
    /// Whether the group membership is frozen.
    pub fixed: bool,
    /// The declared process type of the group.
    pub process_type: ProcessType,
    /// Member processes (parts), in dependency order.
    pub members: Vec<PropertyId>,
}

/// Read-only typed access to the application model.
#[derive(Clone, Copy, Debug)]
pub struct ApplicationView<'a> {
    system: &'a SystemModel,
}

impl<'a> ApplicationView<'a> {
    pub(crate) fn new(system: &'a SystemModel) -> Self {
        ApplicationView { system }
    }

    /// The top-level `«Application»` class, if one is stereotyped.
    pub fn top(&self) -> Option<ClassId> {
        let s = self.system;
        s.model
            .classes()
            .map(|(id, _)| id)
            .find(|&id| s.has(id, s.tut.application))
    }

    /// All `«ApplicationComponent»` classes.
    pub fn components(&self) -> Vec<ClassId> {
        let s = self.system;
        s.model
            .classes()
            .map(|(id, _)| id)
            .filter(|&id| s.has(id, s.tut.application_component))
            .collect()
    }

    /// All `«ApplicationProcess»` parts with their resolved parameters.
    pub fn processes(&self) -> Vec<ProcessInfo> {
        let s = self.system;
        s.model
            .properties()
            .filter(|(id, _)| s.has(*id, s.tut.application_process))
            .map(|(id, prop)| {
                let tag = |name: &str| s.tag_value(id, s.tut.application_process, name).cloned();
                ProcessInfo {
                    part: id,
                    name: prop.name().to_owned(),
                    component: prop.type_(),
                    priority: tag("Priority").and_then(|v| v.as_int()).unwrap_or(0),
                    process_type: tag("ProcessType")
                        .and_then(|v| v.as_str().and_then(ProcessType::from_literal))
                        .unwrap_or_default(),
                    real_time: tag("RealTimeType")
                        .and_then(|v| v.as_str().and_then(RealTimeType::from_literal))
                        .unwrap_or_default(),
                    code_memory: tag("CodeMemory").and_then(|v| v.as_int()),
                    data_memory: tag("DataMemory").and_then(|v| v.as_int()),
                }
            })
            .collect()
    }

    /// Looks up one process by part id.
    pub fn process(&self, part: PropertyId) -> Option<ProcessInfo> {
        self.processes().into_iter().find(|p| p.part == part)
    }

    /// All `«ProcessGroup»` classes with resolved membership.
    pub fn groups(&self) -> Vec<GroupInfo> {
        let s = self.system;
        s.model
            .classes()
            .filter(|(id, _)| s.has(*id, s.tut.process_group))
            .map(|(id, class)| {
                let members = self.members_of(id);
                GroupInfo {
                    class: id,
                    name: class.name().to_owned(),
                    fixed: s
                        .tag_value(id, s.tut.process_group, "Fixed")
                        .and_then(TagValue::as_bool)
                        .unwrap_or(false),
                    process_type: s
                        .tag_value(id, s.tut.process_group, "ProcessType")
                        .and_then(|v| v.as_str().and_then(ProcessType::from_literal))
                        .unwrap_or_default(),
                    members,
                }
            })
            .collect()
    }

    /// The member processes of `group` (through `«ProcessGrouping»`
    /// dependencies).
    pub(crate) fn members_of(&self, group: ClassId) -> Vec<PropertyId> {
        let s = self.system;
        s.model
            .dependencies()
            .filter(|(dep_id, dep)| {
                s.has(*dep_id, s.tut.process_grouping) && dep.supplier() == ElementRef::Class(group)
            })
            .filter_map(|(_, dep)| match dep.client() {
                ElementRef::Property(part) => Some(part),
                _ => None,
            })
            .collect()
    }

    /// The group a process belongs to, if any.
    pub fn group_of(&self, part: PropertyId) -> Option<ClassId> {
        let s = self.system;
        s.model
            .dependencies()
            .filter(|(dep_id, dep)| {
                s.has(*dep_id, s.tut.process_grouping) && dep.client() == ElementRef::Property(part)
            })
            .find_map(|(_, dep)| match dep.supplier() {
                ElementRef::Class(class) => Some(class),
                _ => None,
            })
    }

    /// The `«ProcessGrouping»` dependency of a process, if grouped.
    pub fn grouping_dependency(&self, part: PropertyId) -> Option<DependencyId> {
        let s = self.system;
        s.model
            .dependencies()
            .find(|(dep_id, dep)| {
                s.has(*dep_id, s.tut.process_grouping) && dep.client() == ElementRef::Property(part)
            })
            .map(|(id, _)| id)
    }
}

/// Mutating helpers for building application models.
impl SystemModel {
    /// Creates a `«ProcessGroup»` class with the given parameters and
    /// returns it.
    ///
    /// # Panics
    ///
    /// Panics on profile errors, which indicate construction bugs (the
    /// class is freshly created so applications cannot clash).
    pub fn add_process_group(
        &mut self,
        name: &str,
        fixed: bool,
        process_type: super::application::ProcessType,
    ) -> ClassId {
        let class = self.model.add_class(name);
        self.apply_with(
            class,
            |t| t.process_group,
            [
                ("Fixed", TagValue::Bool(fixed)),
                ("ProcessType", TagValue::Enum(process_type.literal().into())),
            ],
        )
        .expect("fresh group class accepts the stereotype");
        class
    }

    /// Adds a `«ProcessGrouping»` dependency putting `process` into
    /// `group`.
    ///
    /// # Panics
    ///
    /// Panics on profile errors (construction bug).
    pub fn assign_to_group(&mut self, process: PropertyId, group: ClassId) -> DependencyId {
        let dep = self.model.add_dependency("grouping", process, group);
        self.apply(dep, |t| t.process_grouping)
            .expect("fresh dependency accepts the stereotype");
        dep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_uml::statemachine::{StateMachine, Trigger};

    fn active(system: &mut SystemModel, name: &str) -> ClassId {
        let class = system.model.add_class(name);
        let sig = system.model.add_signal(format!("Sig{name}"));
        let port = system.model.add_port(class, "in");
        system.model.port_mut(port).add_provided(sig);
        let mut sm = StateMachine::new(format!("{name}Behavior"));
        let s = sm.add_state("S");
        sm.set_initial(s);
        sm.add_transition(s, s, Trigger::Signal(sig), None, vec![]);
        system.model.add_state_machine(class, sm);
        class
    }

    fn sample() -> (SystemModel, PropertyId, PropertyId, ClassId) {
        let mut s = SystemModel::new("S");
        let top = s.model.add_class("Proto");
        s.apply(top, |t| t.application).unwrap();
        let comp = active(&mut s, "Worker");
        s.apply(comp, |t| t.application_component).unwrap();
        let p1 = s.model.add_part(top, "w1", comp);
        let p2 = s.model.add_part(top, "w2", comp);
        for (p, prio) in [(p1, 5i64), (p2, 1i64)] {
            s.apply_with(
                p,
                |t| t.application_process,
                [
                    ("Priority", TagValue::Int(prio)),
                    ("ProcessType", TagValue::Enum("dsp".into())),
                ],
            )
            .unwrap();
        }
        let group = s.add_process_group("group1", true, ProcessType::Dsp);
        s.assign_to_group(p1, group);
        (s, p1, p2, group)
    }

    #[test]
    fn processes_resolve_parameters() {
        let (s, p1, _, _) = sample();
        let view = s.application();
        let procs = view.processes();
        assert_eq!(procs.len(), 2);
        let info = view.process(p1).unwrap();
        assert_eq!(info.priority, 5);
        assert_eq!(info.process_type, ProcessType::Dsp);
        assert_eq!(info.real_time, RealTimeType::None);
        assert_eq!(info.name, "w1");
    }

    #[test]
    fn groups_and_membership() {
        let (s, p1, p2, group) = sample();
        let view = s.application();
        let groups = view.groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].name, "group1");
        assert!(groups[0].fixed);
        assert_eq!(groups[0].process_type, ProcessType::Dsp);
        assert_eq!(groups[0].members, vec![p1]);
        assert_eq!(view.group_of(p1), Some(group));
        assert_eq!(view.group_of(p2), None);
        assert!(view.grouping_dependency(p1).is_some());
    }

    #[test]
    fn top_and_components() {
        let (s, ..) = sample();
        let view = s.application();
        assert_eq!(view.top().map(|c| s.model.class(c).name()), Some("Proto"));
        assert_eq!(view.components().len(), 1);
    }

    #[test]
    fn process_type_literals_round_trip() {
        for t in [
            ProcessType::General,
            ProcessType::Dsp,
            ProcessType::Hardware,
        ] {
            assert_eq!(ProcessType::from_literal(t.literal()), Some(t));
        }
        assert_eq!(ProcessType::from_literal("fpga"), None);
    }
}
