//! Typed view of the platform model (§3.2 of the paper).
//!
//! A platform is a class stereotyped `«Platform»` whose composite structure
//! contains:
//!
//! * parts stereotyped `«PlatformComponentInstance»` ("processing
//!   elements"), typed by classes stereotyped `«PlatformComponent»`;
//! * parts typed by `«CommunicationSegment»` classes (bus segments);
//! * parts typed by `«CommunicationWrapper»` classes, each connected by one
//!   connector to a processing element and by another to a segment — "the
//!   communication elements are implemented as communication wrappers that
//!   are used to connect processing elements to communication segments";
//! * connectors directly between two segment parts, forming bridges
//!   (the hierarchical bus of Figure 7).

use tut_profile_core::TagValue;
use tut_uml::ids::{ClassId, PropertyId};

use crate::system::SystemModel;

/// The platform component `Type` tagged value as a typed enum.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ComponentKind {
    /// General-purpose processor.
    #[default]
    General,
    /// DSP processor.
    Dsp,
    /// Fixed-function hardware accelerator.
    HwAccelerator,
}

impl ComponentKind {
    /// The tagged-value literal.
    pub fn literal(self) -> &'static str {
        match self {
            ComponentKind::General => "general",
            ComponentKind::Dsp => "dsp",
            ComponentKind::HwAccelerator => "hw_accelerator",
        }
    }

    /// Parses from the tagged-value literal.
    fn from_literal(text: &str) -> Option<ComponentKind> {
        match text {
            "general" => Some(ComponentKind::General),
            "dsp" => Some(ComponentKind::Dsp),
            "hw_accelerator" => Some(ComponentKind::HwAccelerator),
            _ => None,
        }
    }
}

impl std::fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.literal())
    }
}

/// The `Arbitration` tagged value as a typed enum.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Arbitration {
    /// Fixed-priority arbitration (lower address wins, paper default).
    #[default]
    Priority,
    /// Round-robin arbitration.
    RoundRobin,
    /// Time-division multiple access schedule.
    Tdma,
}

impl Arbitration {
    /// The tagged-value literal.
    pub fn literal(self) -> &'static str {
        match self {
            Arbitration::Priority => "priority",
            Arbitration::RoundRobin => "round-robin",
            Arbitration::Tdma => "tdma",
        }
    }

    /// Parses from the tagged-value literal.
    fn from_literal(text: &str) -> Option<Arbitration> {
        match text {
            "priority" => Some(Arbitration::Priority),
            "round-robin" => Some(Arbitration::RoundRobin),
            "tdma" => Some(Arbitration::Tdma),
            _ => None,
        }
    }
}

impl std::fmt::Display for Arbitration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.literal())
    }
}

/// One processing-element instance (`«PlatformComponentInstance»` part).
#[derive(Clone, PartialEq, Debug)]
pub struct InstanceInfo {
    /// The part element.
    pub part: PropertyId,
    /// Instance name (e.g. `processor1`).
    pub name: String,
    /// The `«PlatformComponent»` class.
    pub component: ClassId,
    /// Component kind from the component class's `Type` tag.
    pub kind: ComponentKind,
    /// Unique instance id (`ID` tag).
    pub id: Option<i64>,
    /// Internal memory in bytes.
    pub int_memory: i64,
    /// Component clock frequency in MHz.
    pub frequency: i64,
}

/// One communication segment instance (part typed by a
/// `«CommunicationSegment»` class).
#[derive(Clone, PartialEq, Debug)]
pub struct SegmentInfo {
    /// The part element.
    pub part: PropertyId,
    /// Segment name (e.g. `hibisegment1`).
    pub name: String,
    /// The segment class.
    pub class: ClassId,
    /// Bus width in bits.
    pub data_width: i64,
    /// Clock frequency in MHz.
    pub frequency: i64,
    /// Arbitration scheme.
    pub arbitration: Arbitration,
    /// TDMA slot count (`«HIBISegment»` refinement; 0 = disabled).
    pub tdma_slots: i64,
}

/// One communication wrapper instance with its parameters.
#[derive(Clone, PartialEq, Debug)]
pub struct WrapperInfo {
    /// The part element.
    pub part: PropertyId,
    /// Wrapper name.
    pub name: String,
    /// Bus address.
    pub address: Option<i64>,
    /// Buffer size in words.
    pub buffer_size: i64,
    /// Maximum time the wrapper may hold the segment.
    pub max_time: i64,
}

/// A resolved attachment: a processing element connected to a segment
/// through a wrapper.
#[derive(Clone, PartialEq, Debug)]
pub struct Attachment {
    /// The processing-element part.
    pub pe: PropertyId,
    /// The segment part.
    pub segment: PropertyId,
    /// The wrapper and its parameters.
    pub wrapper: WrapperInfo,
}

/// A bridge between two segments (a connector joining two segment parts).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bridge {
    /// First segment part.
    pub a: PropertyId,
    /// Second segment part.
    pub b: PropertyId,
}

/// Read-only typed access to the platform model.
#[derive(Clone, Copy, Debug)]
pub struct PlatformView<'a> {
    system: &'a SystemModel,
}

impl<'a> PlatformView<'a> {
    pub(crate) fn new(system: &'a SystemModel) -> Self {
        PlatformView { system }
    }

    /// The `«Platform»` top-level class, if one is stereotyped.
    pub fn top(&self) -> Option<ClassId> {
        let s = self.system;
        s.model
            .classes()
            .map(|(id, _)| id)
            .find(|&id| s.has(id, s.tut.platform))
    }

    /// All `«PlatformComponent»` classes (the component library).
    pub fn components(&self) -> Vec<ClassId> {
        let s = self.system;
        s.model
            .classes()
            .map(|(id, _)| id)
            .filter(|&id| s.has(id, s.tut.platform_component))
            .collect()
    }

    /// All processing-element instances with resolved parameters.
    pub fn instances(&self) -> Vec<InstanceInfo> {
        let s = self.system;
        s.model
            .properties()
            .filter(|(id, _)| s.has(*id, s.tut.platform_component_instance))
            .map(|(id, prop)| {
                let component = prop.type_();
                let inst_tag = |name: &str| {
                    s.tag_value(id, s.tut.platform_component_instance, name)
                        .cloned()
                };
                let comp_tag = |name: &str| {
                    s.tag_value(component, s.tut.platform_component, name)
                        .cloned()
                };
                InstanceInfo {
                    part: id,
                    name: prop.name().to_owned(),
                    component,
                    kind: comp_tag("Type")
                        .and_then(|v| v.as_str().and_then(ComponentKind::from_literal))
                        .unwrap_or_default(),
                    id: inst_tag("ID").and_then(|v| v.as_int()),
                    int_memory: inst_tag("IntMemory")
                        .and_then(|v| v.as_int())
                        .unwrap_or(65536),
                    frequency: comp_tag("Frequency").and_then(|v| v.as_int()).unwrap_or(50),
                }
            })
            .collect()
    }

    /// Looks up one instance by part id.
    pub fn instance(&self, part: PropertyId) -> Option<InstanceInfo> {
        self.instances().into_iter().find(|i| i.part == part)
    }

    /// All segment instances: parts whose *type class* carries
    /// `«CommunicationSegment»` (or a specialisation).
    pub fn segments(&self) -> Vec<SegmentInfo> {
        let s = self.system;
        s.model
            .properties()
            .filter(|(_, prop)| s.has(prop.type_(), s.tut.communication_segment))
            .map(|(id, prop)| {
                let class = prop.type_();
                let tag = |name: &str| {
                    s.tag_value(class, s.tut.communication_segment, name)
                        .cloned()
                };
                SegmentInfo {
                    part: id,
                    name: prop.name().to_owned(),
                    class,
                    data_width: tag("DataWidth").and_then(|v| v.as_int()).unwrap_or(32),
                    frequency: tag("Frequency").and_then(|v| v.as_int()).unwrap_or(50),
                    arbitration: tag("Arbitration")
                        .and_then(|v| v.as_str().and_then(Arbitration::from_literal))
                        .unwrap_or_default(),
                    tdma_slots: tag("TdmaSlots").and_then(|v| v.as_int()).unwrap_or(0),
                }
            })
            .collect()
    }

    fn wrapper_info(&self, part: PropertyId) -> WrapperInfo {
        let s = self.system;
        let prop = s.model.property(part);
        let class = prop.type_();
        let tag = |name: &str| {
            s.tag_value(class, s.tut.communication_wrapper, name)
                .cloned()
        };
        WrapperInfo {
            part,
            name: prop.name().to_owned(),
            address: tag("Address").and_then(|v| v.as_int()),
            buffer_size: tag("BufferSize").and_then(|v| v.as_int()).unwrap_or(8),
            max_time: tag("MaxTime").and_then(|v| v.as_int()).unwrap_or(16),
        }
    }

    /// Resolves the attachments: each wrapper part connected (by two
    /// connectors in the platform's composite structure) to one processing
    /// element and one segment.
    pub fn attachments(&self) -> Vec<Attachment> {
        let s = self.system;
        let Some(top) = self.top() else {
            return Vec::new();
        };
        let is_pe = |part: PropertyId| s.has(part, s.tut.platform_component_instance);
        let is_segment =
            |part: PropertyId| s.has(s.model.property(part).type_(), s.tut.communication_segment);
        let is_wrapper =
            |part: PropertyId| s.has(s.model.property(part).type_(), s.tut.communication_wrapper);

        let mut attachments = Vec::new();
        let wrapper_parts: Vec<PropertyId> = s
            .model
            .properties()
            .filter(|(_, p)| p.owner() == top)
            .map(|(id, _)| id)
            .filter(|&id| is_wrapper(id))
            .collect();
        for wrapper_part in wrapper_parts {
            let mut pe = None;
            let mut segment = None;
            for (_, conn) in s.model.connectors_of(top) {
                let [a, b] = conn.ends();
                for (this, other) in [(a, b), (b, a)] {
                    if this.part != Some(wrapper_part) {
                        continue;
                    }
                    if let Some(peer) = other.part {
                        if is_pe(peer) {
                            pe = Some(peer);
                        } else if is_segment(peer) {
                            segment = Some(peer);
                        }
                    }
                }
            }
            if let (Some(pe), Some(segment)) = (pe, segment) {
                attachments.push(Attachment {
                    pe,
                    segment,
                    wrapper: self.wrapper_info(wrapper_part),
                });
            }
        }
        attachments.sort_by_key(|a| a.wrapper.part);
        attachments
    }

    /// Resolves the bridges: connectors joining two segment parts
    /// directly.
    pub fn bridges(&self) -> Vec<Bridge> {
        let s = self.system;
        let Some(top) = self.top() else {
            return Vec::new();
        };
        let is_segment =
            |part: PropertyId| s.has(s.model.property(part).type_(), s.tut.communication_segment);
        let mut bridges = Vec::new();
        for (_, conn) in s.model.connectors_of(top) {
            let [a, b] = conn.ends();
            if let (Some(pa), Some(pb)) = (a.part, b.part) {
                if is_segment(pa) && is_segment(pb) {
                    bridges.push(Bridge { a: pa, b: pb });
                }
            }
        }
        bridges
    }

    /// The segment a processing element is attached to (first attachment).
    pub fn segment_of(&self, pe: PropertyId) -> Option<PropertyId> {
        self.attachments()
            .into_iter()
            .find(|a| a.pe == pe)
            .map(|a| a.segment)
    }
}

/// Mutating helpers for building platform models. These mirror how a
/// designer "selects suitable components from the TUT-Profile library and
/// connects components together" (§4.2).
impl SystemModel {
    /// Creates a `«PlatformComponent»` class.
    ///
    /// # Panics
    ///
    /// Panics on profile errors (construction bug).
    pub fn add_platform_component(
        &mut self,
        name: &str,
        kind: ComponentKind,
        frequency_mhz: i64,
        area: f64,
        power: f64,
    ) -> ClassId {
        let class = self.model.add_class(name);
        self.apply_with(
            class,
            |t| t.platform_component,
            [
                ("Type", TagValue::Enum(kind.literal().into())),
                ("Frequency", TagValue::Int(frequency_mhz)),
                ("Area", TagValue::Real(area)),
                ("Power", TagValue::Real(power)),
            ],
        )
        .expect("fresh component class accepts the stereotype");
        class
    }

    /// Instantiates a platform component as a part of `platform_class`.
    ///
    /// # Panics
    ///
    /// Panics on profile errors (construction bug).
    pub fn add_platform_instance(
        &mut self,
        platform_class: ClassId,
        name: &str,
        component: ClassId,
        id: i64,
        priority: i64,
    ) -> PropertyId {
        let part = self.model.add_part(platform_class, name, component);
        self.apply_with(
            part,
            |t| t.platform_component_instance,
            [
                ("ID", TagValue::Int(id)),
                ("Priority", TagValue::Int(priority)),
            ],
        )
        .expect("fresh part accepts the stereotype");
        part
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_uml::model::ConnectorEnd;

    /// Builds a two-segment platform:
    /// cpu1, cpu2 -> seg1; acc -> seg2; bridge seg1<->seg2.
    fn sample() -> (SystemModel, Vec<PropertyId>, Vec<PropertyId>) {
        let mut s = SystemModel::new("P");
        let platform = s.model.add_class("Tutwlan");
        s.apply(platform, |t| t.platform).unwrap();

        let nios = s.add_platform_component("Nios", ComponentKind::General, 50, 2.0, 0.5);
        let crc =
            s.add_platform_component("Crc32Acc", ComponentKind::HwAccelerator, 100, 0.2, 0.05);

        let seg_class = s.model.add_class("HibiSegment");
        s.apply_with(
            seg_class,
            |t| t.hibi_segment,
            [
                ("DataWidth", TagValue::Int(32)),
                ("Frequency", TagValue::Int(100)),
                ("Arbitration", TagValue::Enum("round-robin".into())),
            ],
        )
        .unwrap();

        let wrap_class = s.model.add_class("HibiWrapper");
        s.apply_with(
            wrap_class,
            |t| t.hibi_wrapper,
            [("BufferSize", TagValue::Int(16))],
        )
        .unwrap();

        let cpu1 = s.add_platform_instance(platform, "processor1", nios, 1, 2);
        let cpu2 = s.add_platform_instance(platform, "processor2", nios, 2, 1);
        let acc = s.add_platform_instance(platform, "accelerator1", crc, 3, 0);
        let seg1 = s.model.add_part(platform, "hibisegment1", seg_class);
        let seg2 = s.model.add_part(platform, "hibisegment2", seg_class);

        // Ports for wiring.
        let pe_port = s.model.add_port(nios, "hibi");
        let acc_port = s.model.add_port(crc, "hibi");
        let seg_port = s.model.add_port(seg_class, "agents");
        let wrap_pe = s.model.add_port(wrap_class, "pe");
        let wrap_bus = s.model.add_port(wrap_class, "bus");

        let attach = |s: &mut SystemModel, pe: PropertyId, seg: PropertyId, n: &str, port| {
            let w = s.model.add_part(platform, n, wrap_class);
            s.model.add_connector(
                platform,
                format!("{n}_pe"),
                ConnectorEnd {
                    part: Some(w),
                    port: wrap_pe,
                },
                ConnectorEnd {
                    part: Some(pe),
                    port,
                },
            );
            s.model.add_connector(
                platform,
                format!("{n}_bus"),
                ConnectorEnd {
                    part: Some(w),
                    port: wrap_bus,
                },
                ConnectorEnd {
                    part: Some(seg),
                    port: seg_port,
                },
            );
        };
        attach(&mut s, cpu1, seg1, "w1", pe_port);
        attach(&mut s, cpu2, seg1, "w2", pe_port);
        attach(&mut s, acc, seg2, "w3", acc_port);
        s.model.add_connector(
            platform,
            "bridge",
            ConnectorEnd {
                part: Some(seg1),
                port: seg_port,
            },
            ConnectorEnd {
                part: Some(seg2),
                port: seg_port,
            },
        );
        (s, vec![cpu1, cpu2, acc], vec![seg1, seg2])
    }

    #[test]
    fn instances_resolve_parameters() {
        let (s, pes, _) = sample();
        let view = s.platform();
        let instances = view.instances();
        assert_eq!(instances.len(), 3);
        let cpu1 = view.instance(pes[0]).unwrap();
        assert_eq!(cpu1.kind, ComponentKind::General);
        assert_eq!(cpu1.id, Some(1));
        assert_eq!(cpu1.frequency, 50);
        let acc = view.instance(pes[2]).unwrap();
        assert_eq!(acc.kind, ComponentKind::HwAccelerator);
        assert_eq!(acc.frequency, 100);
    }

    #[test]
    fn segments_resolve_through_specialisation() {
        let (s, _, segs) = sample();
        let view = s.platform();
        let segments = view.segments();
        assert_eq!(segments.len(), 2);
        let seg1 = segments.iter().find(|x| x.part == segs[0]).unwrap();
        assert_eq!(seg1.arbitration, Arbitration::RoundRobin);
        assert_eq!(seg1.frequency, 100);
        assert_eq!(
            seg1.tdma_slots, 0,
            "HIBI default visible through base query"
        );
    }

    #[test]
    fn attachments_and_bridges_resolve() {
        let (s, pes, segs) = sample();
        let view = s.platform();
        let attachments = view.attachments();
        assert_eq!(attachments.len(), 3);
        assert_eq!(view.segment_of(pes[0]), Some(segs[0]));
        assert_eq!(view.segment_of(pes[2]), Some(segs[1]));
        assert_eq!(attachments[0].wrapper.buffer_size, 16);
        let bridges = view.bridges();
        assert_eq!(bridges.len(), 1);
        assert_eq!((bridges[0].a, bridges[0].b), (segs[0], segs[1]));
    }

    #[test]
    fn literals_round_trip() {
        for k in [
            ComponentKind::General,
            ComponentKind::Dsp,
            ComponentKind::HwAccelerator,
        ] {
            assert_eq!(ComponentKind::from_literal(k.literal()), Some(k));
        }
        for a in [
            Arbitration::Priority,
            Arbitration::RoundRobin,
            Arbitration::Tdma,
        ] {
            assert_eq!(Arbitration::from_literal(a.literal()), Some(a));
        }
    }
}
