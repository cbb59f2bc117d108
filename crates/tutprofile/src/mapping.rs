//! Typed view of the platform mapping (§3.3 of the paper).

use tut_profile_core::TagValue;
use tut_uml::ids::{ClassId, DependencyId, ElementRef, PropertyId};

use crate::system::SystemModel;

/// One `«PlatformMapping»` dependency: a process group mapped to a
/// platform component instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MappingInfo {
    /// The dependency element.
    pub dependency: DependencyId,
    /// The mapped `«ProcessGroup»` class.
    pub group: ClassId,
    /// The target `«PlatformComponentInstance»` part.
    pub instance: PropertyId,
    /// Whether the mapping is fixed (profiling tools must not change it,
    /// §3.3).
    pub fixed: bool,
}

/// Read-only typed access to the mapping.
#[derive(Clone, Copy, Debug)]
pub struct MappingView<'a> {
    system: &'a SystemModel,
}

impl<'a> MappingView<'a> {
    pub(crate) fn new(system: &'a SystemModel) -> Self {
        MappingView { system }
    }

    /// All mappings, in dependency order.
    pub fn mappings(&self) -> Vec<MappingInfo> {
        let s = self.system;
        s.model
            .dependencies()
            .filter(|(id, _)| s.has(*id, s.tut.platform_mapping))
            .filter_map(|(id, dep)| {
                let (ElementRef::Class(group), ElementRef::Property(instance)) =
                    (dep.client(), dep.supplier())
                else {
                    return None;
                };
                Some(MappingInfo {
                    dependency: id,
                    group,
                    instance,
                    fixed: s
                        .tag_value(id, s.tut.platform_mapping, "Fixed")
                        .and_then(|v| v.as_bool())
                        .unwrap_or(false),
                })
            })
            .collect()
    }

    /// The platform instance a group is mapped to.
    pub fn instance_of(&self, group: ClassId) -> Option<PropertyId> {
        self.mappings()
            .into_iter()
            .find(|m| m.group == group)
            .map(|m| m.instance)
    }

    /// The groups mapped to one platform instance (several groups may
    /// share a processor, as group1 and group3 share processor1 in
    /// Figure 8).
    pub fn groups_on(&self, instance: PropertyId) -> Vec<ClassId> {
        self.mappings()
            .into_iter()
            .filter(|m| m.instance == instance)
            .map(|m| m.group)
            .collect()
    }

    /// The platform instance that will execute `process`, resolved through
    /// its group.
    pub fn instance_of_process(&self, process: PropertyId) -> Option<PropertyId> {
        let group = self.system.application().group_of(process)?;
        self.instance_of(group)
    }
}

/// Mutating helper for building mappings.
impl SystemModel {
    /// Adds a `«PlatformMapping»` dependency from `group` to `instance`.
    ///
    /// # Panics
    ///
    /// Panics on profile errors (construction bug).
    pub fn map_group(&mut self, group: ClassId, instance: PropertyId, fixed: bool) -> DependencyId {
        let dep = self.model.add_dependency("mapping", group, instance);
        self.apply_with(
            dep,
            |t| t.platform_mapping,
            [("Fixed", TagValue::Bool(fixed))],
        )
        .expect("fresh dependency accepts the stereotype");
        dep
    }

    /// Removes a mapping (deletes its stereotype applications; the bare
    /// dependency remains in the model, which mirrors how exploration
    /// tools rewrite mappings without touching the base model).
    pub fn unmap(&mut self, dependency: DependencyId) {
        self.apps.clear_element(dependency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::ProcessType;
    use crate::platform::ComponentKind;

    fn sample() -> (SystemModel, ClassId, ClassId, PropertyId, PropertyId) {
        let mut s = SystemModel::new("S");
        // Application side.
        let top = s.model.add_class("App");
        s.apply(top, |t| t.application).unwrap();
        let comp = s.model.add_class("Worker");
        s.apply(comp, |t| t.application_component).unwrap();
        let proc1 = s.model.add_part(top, "p1", comp);
        s.apply(proc1, |t| t.application_process).unwrap();
        let g1 = s.add_process_group("group1", false, ProcessType::General);
        let g2 = s.add_process_group("group2", false, ProcessType::General);
        s.assign_to_group(proc1, g1);
        // Platform side.
        let platform = s.model.add_class("Plat");
        s.apply(platform, |t| t.platform).unwrap();
        let nios = s.add_platform_component("Nios", ComponentKind::General, 50, 1.0, 0.1);
        let cpu1 = s.add_platform_instance(platform, "cpu1", nios, 1, 0);
        let cpu2 = s.add_platform_instance(platform, "cpu2", nios, 2, 0);
        (s, g1, g2, cpu1, cpu2)
    }

    #[test]
    fn mapping_resolves() {
        let (mut s, g1, g2, cpu1, _) = sample();
        s.map_group(g1, cpu1, true);
        s.map_group(g2, cpu1, false);
        let view = s.mapping();
        let mappings = view.mappings();
        assert_eq!(mappings.len(), 2);
        assert!(mappings[0].fixed);
        assert!(!mappings[1].fixed);
        assert_eq!(view.instance_of(g1), Some(cpu1));
        assert_eq!(view.groups_on(cpu1), vec![g1, g2]);
    }

    #[test]
    fn process_to_instance_resolution() {
        let (mut s, g1, _, cpu1, _) = sample();
        s.map_group(g1, cpu1, false);
        let proc1 = s.application().groups()[0].members[0];
        assert_eq!(s.mapping().instance_of_process(proc1), Some(cpu1));
    }

    #[test]
    fn unmap_removes_mapping() {
        let (mut s, g1, _, cpu1, _) = sample();
        let dep = s.map_group(g1, cpu1, false);
        assert_eq!(s.mapping().mappings().len(), 1);
        s.unmap(dep);
        assert!(s.mapping().mappings().is_empty());
    }
}
