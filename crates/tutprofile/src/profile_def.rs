//! The TUT-Profile definition: every stereotype of Table 1 with the tagged
//! values of Tables 2 and 3, plus the HIBI specialisations of §4.2.

use tut_profile_core::{Profile, StereotypeId, TagType, TagValue};
use tut_uml::ids::Metaclass;

/// The enumeration literals of the `RealTimeType` tagged value.
pub const REAL_TIME_TYPES: [&str; 3] = ["hard", "soft", "none"];
/// The enumeration literals of the `ProcessType` tagged value.
pub const PROCESS_TYPES: [&str; 3] = ["general", "dsp", "hardware"];
/// The enumeration literals of the platform component `Type` tagged value.
pub const COMPONENT_TYPES: [&str; 3] = ["general", "dsp", "hw_accelerator"];
/// The enumeration literals of the `Arbitration` tagged value.
pub const ARBITRATION_SCHEMES: [&str; 3] = ["priority", "round-robin", "tdma"];

fn enum_of(literals: &[&str]) -> TagType {
    TagType::Enum(literals.iter().map(|s| (*s).to_owned()).collect())
}

/// The TUT-Profile with named handles to each stereotype.
///
/// The struct is cheap to build and clone; most code keeps one around next
/// to the model (see [`crate::SystemModel`]).
#[derive(Clone, PartialEq, Debug)]
pub struct TutProfile {
    profile: Profile,
    /// `«Application»` — top-level application class.
    pub application: StereotypeId,
    /// `«ApplicationComponent»` — functional application component (active
    /// class, has behaviour).
    pub application_component: StereotypeId,
    /// `«ApplicationProcess»` — instance of a functional application
    /// component.
    pub application_process: StereotypeId,
    /// `«ProcessGroup»` — group of application processes.
    pub process_group: StereotypeId,
    /// `«ProcessGrouping»` — dependency between an application process and
    /// a process group.
    pub process_grouping: StereotypeId,
    /// `«Platform»` — top-level platform class.
    pub platform: StereotypeId,
    /// `«PlatformComponent»` — defines features of a platform component.
    pub platform_component: StereotypeId,
    /// `«PlatformComponentInstance»` — instantiated platform component.
    pub platform_component_instance: StereotypeId,
    /// `«CommunicationWrapper»` — wrapper parameters of a communication
    /// agent.
    pub communication_wrapper: StereotypeId,
    /// `«CommunicationSegment»` — interconnection structure of
    /// communicating agents.
    pub communication_segment: StereotypeId,
    /// `«PlatformMapping»` — dependency between a process group and a
    /// platform component instance.
    pub platform_mapping: StereotypeId,
    /// `«HIBIWrapper»` — HIBI specialisation of `«CommunicationWrapper»`.
    pub hibi_wrapper: StereotypeId,
    /// `«HIBISegment»` — HIBI specialisation of `«CommunicationSegment»`.
    pub hibi_segment: StereotypeId,
}

impl TutProfile {
    /// Builds the complete TUT-Profile.
    pub fn new() -> TutProfile {
        let mut p = Profile::new("TUT-Profile");

        let application = p
            .stereotype("Application", Metaclass::Class)
            .describe("Top-level application class")
            .tag_full(
                "Priority",
                TagType::Int,
                Some(TagValue::Int(0)),
                "Execution priority of an application",
            )
            .tag_full(
                "CodeMemory",
                TagType::Int,
                None,
                "Required memory for application code",
            )
            .tag_full(
                "DataMemory",
                TagType::Int,
                None,
                "Required memory for application data",
            )
            .tag_full(
                "RealTimeType",
                enum_of(&REAL_TIME_TYPES),
                Some(TagValue::Enum("none".into())),
                "Type of real-time requirements (hard/soft/none)",
            )
            .finish();

        let application_component = p
            .stereotype("ApplicationComponent", Metaclass::Class)
            .describe("Functional application component (active class, has behavior)")
            .tag_full(
                "CodeMemory",
                TagType::Int,
                None,
                "Required memory for application component code",
            )
            .tag_full(
                "DataMemory",
                TagType::Int,
                None,
                "Required memory for application component data",
            )
            .tag_full(
                "RealTimeType",
                enum_of(&REAL_TIME_TYPES),
                Some(TagValue::Enum("none".into())),
                "Type of real-time requirements (hard/soft/none)",
            )
            .finish();

        let application_process = p
            .stereotype("ApplicationProcess", Metaclass::Property)
            .describe("Instance of a functional application component")
            .tag_full(
                "Priority",
                TagType::Int,
                Some(TagValue::Int(0)),
                "Execution priority of application process",
            )
            .tag_full(
                "CodeMemory",
                TagType::Int,
                None,
                "Required memory for application process code",
            )
            .tag_full(
                "DataMemory",
                TagType::Int,
                None,
                "Required memory for application process data",
            )
            .tag_full(
                "RealTimeType",
                enum_of(&REAL_TIME_TYPES),
                Some(TagValue::Enum("none".into())),
                "Type of real-time requirements (hard/soft/none)",
            )
            .tag_full(
                "ProcessType",
                enum_of(&PROCESS_TYPES),
                Some(TagValue::Enum("general".into())),
                "Type of process (general/dsp/hardware)",
            )
            .finish();

        let process_group = p
            .stereotype("ProcessGroup", Metaclass::Class)
            .describe("Group of application processes")
            .tag_full(
                "Fixed",
                TagType::Bool,
                Some(TagValue::Bool(false)),
                "Defines if the group is fixed (true/false)",
            )
            .tag_full(
                "ProcessType",
                enum_of(&PROCESS_TYPES),
                Some(TagValue::Enum("general".into())),
                "Type of processes in a group (general/dsp/hardware)",
            )
            .finish();

        let process_grouping = p
            .stereotype("ProcessGrouping", Metaclass::Dependency)
            .describe("Dependency between an application process and a process group")
            .tag_full(
                "Fixed",
                TagType::Bool,
                Some(TagValue::Bool(false)),
                "Defines if the grouping is fixed (true/false)",
            )
            .finish();

        let platform = p
            .stereotype("Platform", Metaclass::Class)
            .describe("Top-level platform class")
            .finish();

        let platform_component = p
            .stereotype("PlatformComponent", Metaclass::Class)
            .describe("Defines features of a platform component")
            .tag_full(
                "Type",
                enum_of(&COMPONENT_TYPES),
                Some(TagValue::Enum("general".into())),
                "Type of a component (general/dsp/hw accelerator)",
            )
            .tag_full("Area", TagType::Real, None, "Area of a component")
            .tag_full(
                "Power",
                TagType::Real,
                None,
                "Power consumption of a component",
            )
            .tag_full(
                "Frequency",
                TagType::Int,
                Some(TagValue::Int(50)),
                "Clock frequency (MHz) of a component (refinement, cf. §3.2)",
            )
            .finish();

        let platform_component_instance = p
            .stereotype("PlatformComponentInstance", Metaclass::Property)
            .describe("Instantiated platform component")
            .tag_full(
                "Priority",
                TagType::Int,
                Some(TagValue::Int(0)),
                "Execution priority of a component instance",
            )
            .tag_full(
                "ID",
                TagType::Int,
                None,
                "Unique ID of a component instance",
            )
            .tag_full(
                "IntMemory",
                TagType::Int,
                Some(TagValue::Int(65536)),
                "Amount of internal memory",
            )
            .finish();

        let communication_wrapper = p
            .stereotype("CommunicationWrapper", Metaclass::Class)
            .describe("Defines wrapper parameters of a communication agent")
            .tag_full("Address", TagType::Int, None, "Address of a wrapper")
            .tag_full(
                "BufferSize",
                TagType::Int,
                Some(TagValue::Int(8)),
                "Buffer size of a wrapper",
            )
            .tag_full(
                "MaxTime",
                TagType::Int,
                Some(TagValue::Int(16)),
                "Maximum time a wrapper can reserve the segment",
            )
            .finish();

        let communication_segment = p
            .stereotype("CommunicationSegment", Metaclass::Class)
            .describe("Interconnection structure of communicating agents")
            .tag_full(
                "DataWidth",
                TagType::Int,
                Some(TagValue::Int(32)),
                "Data width (in bits) of a communication segment",
            )
            .tag_full(
                "Frequency",
                TagType::Int,
                Some(TagValue::Int(50)),
                "Clock frequency of a communication segment",
            )
            .tag_full(
                "Arbitration",
                enum_of(&ARBITRATION_SCHEMES),
                Some(TagValue::Enum("priority".into())),
                "Arbitration scheme (e.g. priority or round-robin)",
            )
            .finish();

        let platform_mapping = p
            .stereotype("PlatformMapping", Metaclass::Dependency)
            .describe("Dependency between a process group and a platform component instance")
            .tag_full(
                "Fixed",
                TagType::Bool,
                Some(TagValue::Bool(false)),
                "Defines if the mapping is fixed (true/false)",
            )
            .finish();

        let hibi_wrapper = p
            .specialize("HIBIWrapper", communication_wrapper)
            .describe("HIBI bus wrapper (specialisation of CommunicationWrapper, §4.2)")
            .tag_full(
                "TxFifoDepth",
                TagType::Int,
                Some(TagValue::Int(4)),
                "Transmit FIFO depth in words",
            )
            .tag_full(
                "RxFifoDepth",
                TagType::Int,
                Some(TagValue::Int(4)),
                "Receive FIFO depth in words",
            )
            .finish();

        let hibi_segment = p
            .specialize("HIBISegment", communication_segment)
            .describe("HIBI bus segment (specialisation of CommunicationSegment, §4.2)")
            .tag_full(
                "TdmaSlots",
                TagType::Int,
                Some(TagValue::Int(0)),
                "Number of TDMA slots (0 disables the TDMA schedule)",
            )
            .finish();

        TutProfile {
            profile: p,
            application,
            application_component,
            application_process,
            process_group,
            process_grouping,
            platform,
            platform_component,
            platform_component_instance,
            communication_wrapper,
            communication_segment,
            platform_mapping,
            hibi_wrapper,
            hibi_segment,
        }
    }

    /// The underlying generic profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The Figure 3 hierarchy rendered as text: application and platform
    /// composition down to mapping.
    pub fn hierarchy(&self) -> String {
        let mut out = String::new();
        out.push_str("TUT-Profile hierarchy (Figure 3)\n");
        out.push_str("  \u{ab}Application\u{bb}\n");
        out.push_str("    --composition--> \u{ab}ApplicationComponent\u{bb}\n");
        out.push_str("      --instantiate--> \u{ab}ApplicationProcess\u{bb}\n");
        out.push_str("        --\u{ab}ProcessGrouping\u{bb}--> \u{ab}ProcessGroup\u{bb}\n");
        out.push_str(
            "          --\u{ab}PlatformMapping\u{bb}--> \u{ab}PlatformComponentInstance\u{bb}\n",
        );
        out.push_str("      <--instantiate-- \u{ab}PlatformComponent\u{bb}\n");
        out.push_str("    <--composition-- \u{ab}Platform\u{bb}\n");
        out.push_str("  communication: \u{ab}CommunicationSegment\u{bb} / \u{ab}CommunicationWrapper\u{bb}\n");
        out.push_str("    specialised: \u{ab}HIBISegment\u{bb} / \u{ab}HIBIWrapper\u{bb}\n");
        out
    }

    /// Ids of the eleven core stereotypes of Table 1 (without the HIBI
    /// specialisations), in the table's order.
    pub(crate) fn table1_order(&self) -> [StereotypeId; 11] {
        [
            self.application,
            self.application_component,
            self.application_process,
            self.process_group,
            self.process_grouping,
            self.platform,
            self.platform_component,
            self.platform_component_instance,
            self.communication_wrapper,
            self.communication_segment,
            self.platform_mapping,
        ]
    }
}

impl Default for TutProfile {
    fn default() -> Self {
        TutProfile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_has_all_table1_stereotypes() {
        let tut = TutProfile::new();
        let p = tut.profile();
        for name in [
            "Application",
            "ApplicationComponent",
            "ApplicationProcess",
            "ProcessGroup",
            "ProcessGrouping",
            "Platform",
            "PlatformComponent",
            "PlatformComponentInstance",
            "CommunicationWrapper",
            "CommunicationSegment",
            "PlatformMapping",
            "HIBIWrapper",
            "HIBISegment",
        ] {
            assert!(p.find(name).is_some(), "missing stereotype {name}");
        }
        assert_eq!(p.len(), 13);
    }

    #[test]
    fn metaclasses_match_table1() {
        let tut = TutProfile::new();
        let p = tut.profile();
        assert_eq!(p.get(tut.application).extends(), Metaclass::Class);
        assert_eq!(
            p.get(tut.application_process).extends(),
            Metaclass::Property
        );
        assert_eq!(p.get(tut.process_grouping).extends(), Metaclass::Dependency);
        assert_eq!(p.get(tut.platform_mapping).extends(), Metaclass::Dependency);
        assert_eq!(
            p.get(tut.platform_component_instance).extends(),
            Metaclass::Property
        );
        assert_eq!(p.get(tut.hibi_segment).extends(), Metaclass::Class);
    }

    #[test]
    fn table2_tagged_values_present() {
        let tut = TutProfile::new();
        let p = tut.profile();
        for tag in ["Priority", "CodeMemory", "DataMemory", "RealTimeType"] {
            assert!(
                p.tag_def(tut.application, tag).is_some(),
                "Application::{tag}"
            );
        }
        for tag in [
            "Priority",
            "CodeMemory",
            "DataMemory",
            "RealTimeType",
            "ProcessType",
        ] {
            assert!(
                p.tag_def(tut.application_process, tag).is_some(),
                "ApplicationProcess::{tag}"
            );
        }
        assert!(p.tag_def(tut.process_group, "Fixed").is_some());
        assert!(p.tag_def(tut.process_grouping, "Fixed").is_some());
        // Application has no ProcessType.
        assert!(p.tag_def(tut.application, "ProcessType").is_none());
    }

    #[test]
    fn table3_tagged_values_present() {
        let tut = TutProfile::new();
        let p = tut.profile();
        for tag in ["Type", "Area", "Power"] {
            assert!(p.tag_def(tut.platform_component, tag).is_some());
        }
        for tag in ["Priority", "ID", "IntMemory"] {
            assert!(p.tag_def(tut.platform_component_instance, tag).is_some());
        }
        for tag in ["DataWidth", "Frequency", "Arbitration"] {
            assert!(p.tag_def(tut.communication_segment, tag).is_some());
        }
        for tag in ["Address", "BufferSize", "MaxTime"] {
            assert!(p.tag_def(tut.communication_wrapper, tag).is_some());
        }
    }

    #[test]
    fn hibi_specialisations_inherit() {
        let tut = TutProfile::new();
        let p = tut.profile();
        assert!(p.is_kind_of(tut.hibi_segment, tut.communication_segment));
        assert!(p.is_kind_of(tut.hibi_wrapper, tut.communication_wrapper));
        // Inherited + own tags visible.
        assert!(p.tag_def(tut.hibi_segment, "Arbitration").is_some());
        assert!(p.tag_def(tut.hibi_segment, "TdmaSlots").is_some());
        assert!(p.tag_def(tut.hibi_wrapper, "MaxTime").is_some());
        assert!(p.tag_def(tut.hibi_wrapper, "TxFifoDepth").is_some());
    }

    #[test]
    fn hierarchy_mentions_every_layer() {
        let tut = TutProfile::new();
        let h = tut.hierarchy();
        for token in [
            "Application",
            "ProcessGroup",
            "PlatformMapping",
            "HIBISegment",
        ] {
            assert!(h.contains(token), "hierarchy missing {token}");
        }
    }
}
