//! The TUTWLAN terminal platform (Figure 7): three processors and a
//! CRC-32 accelerator on a hierarchical HIBI bus.

use tut_profile::platform::ComponentKind;
use tut_profile::SystemModel;
use tut_profile_core::TagValue;
use tut_uml::ids::{ClassId, PortId, PropertyId};
use tut_uml::model::ConnectorEnd;

use crate::model::BuildTutmacError;

/// Handles to the built platform.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TutwlanPlatform {
    /// The `«Platform»` top-level class.
    pub platform: ClassId,
    /// `processor1..processor3`.
    pub processors: [PropertyId; 3],
    /// `accelerator1`.
    pub accelerator: PropertyId,
    /// `hibisegment1`, `hibisegment2`, and the bridge segment.
    pub segments: [PropertyId; 3],
}

/// Builds the Figure 7 platform into `system`:
///
/// * `processor1`, `processor2` on `hibisegment1`,
/// * `processor3` and `accelerator1` (CRC-32) on `hibisegment2`,
/// * both segments joined through a `bridge` segment,
/// * each attachment through a `«HIBIWrapper»` with a unique address.
///
/// # Errors
///
/// Returns [`BuildTutmacError`] if a profile application fails.
pub(crate) fn build_tutwlan_platform(
    system: &mut SystemModel,
) -> Result<TutwlanPlatform, BuildTutmacError> {
    let platform = system.model.add_class("Tutwlan_Platform");
    system.apply(platform, |t| t.platform)?;

    // Component library entries (Table 3 parameters).
    let nios = system.add_platform_component("NiosCpu", ComponentKind::General, 50, 2.0, 0.50);
    let crc_acc = system.add_platform_component(
        "CrcAccelerator",
        ComponentKind::HwAccelerator,
        100,
        0.2,
        0.05,
    );
    let nios_port = system.model.add_port(nios, "hibi");
    let acc_port = system.model.add_port(crc_acc, "hibi");

    // HIBI segment classes: the data segments and the bridge segment.
    let seg_class = system.model.add_class("HibiSegment");
    system.apply_with(
        seg_class,
        |t| t.hibi_segment,
        [
            ("DataWidth", TagValue::Int(32)),
            ("Frequency", TagValue::Int(100)),
            ("Arbitration", TagValue::Enum("priority".into())),
        ],
    )?;
    let bridge_class = system.model.add_class("HibiBridgeSegment");
    system.apply_with(
        bridge_class,
        |t| t.hibi_segment,
        [
            ("DataWidth", TagValue::Int(32)),
            ("Frequency", TagValue::Int(100)),
            ("Arbitration", TagValue::Enum("priority".into())),
        ],
    )?;
    let seg_port = system.model.add_port(seg_class, "agents");
    let bridge_port = system.model.add_port(bridge_class, "agents");

    // Segment instances.
    let seg1 = system.model.add_part(platform, "hibisegment1", seg_class);
    let seg2 = system.model.add_part(platform, "hibisegment2", seg_class);
    let bridge = system.model.add_part(platform, "bridge", bridge_class);

    // Processing-element instances (Figure 7).
    let p1 = system.add_platform_instance(platform, "processor1", nios, 1, 3);
    let p2 = system.add_platform_instance(platform, "processor2", nios, 2, 2);
    let p3 = system.add_platform_instance(platform, "processor3", nios, 3, 1);
    let acc = system.add_platform_instance(platform, "accelerator1", crc_acc, 4, 0);
    // Processors carry 256 KiB of local memory (the Stratix board backs
    // the soft cores with on-board SRAM); the accelerator keeps its 4 KiB
    // of FIFOs.
    for pe in [p1, p2, p3] {
        system
            .set_tag(
                pe,
                |t| t.platform_component_instance,
                "IntMemory",
                256 * 1024i64,
            )
            .expect("fresh instance accepts the tag");
    }
    system
        .set_tag(
            acc,
            |t| t.platform_component_instance,
            "IntMemory",
            4 * 1024i64,
        )
        .expect("fresh instance accepts the tag");

    // One wrapper class per attachment, with HIBI parameters (§4.2: "the
    // specialized information contains sizes of buffers, bus arbitration,
    // and addressing").
    let attach = |system: &mut SystemModel,
                  pe: PropertyId,
                  pe_port: PortId,
                  segment: PropertyId,
                  segment_port: PortId,
                  name: &str,
                  address: i64|
     -> Result<(), BuildTutmacError> {
        let wrapper_class = system.model.add_class(format!("HibiWrapper_{name}"));
        system.apply_with(
            wrapper_class,
            |t| t.hibi_wrapper,
            [
                ("Address", TagValue::Int(address)),
                ("BufferSize", TagValue::Int(16)),
                ("MaxTime", TagValue::Int(16)),
            ],
        )?;
        let wrapper_pe = system.model.add_port(wrapper_class, "pe");
        let wrapper_bus = system.model.add_port(wrapper_class, "bus");
        let wrapper = system.model.add_part(platform, name, wrapper_class);
        system.model.add_connector(
            platform,
            format!("{name}_pe"),
            ConnectorEnd {
                part: Some(wrapper),
                port: wrapper_pe,
            },
            ConnectorEnd {
                part: Some(pe),
                port: pe_port,
            },
        );
        system.model.add_connector(
            platform,
            format!("{name}_bus"),
            ConnectorEnd {
                part: Some(wrapper),
                port: wrapper_bus,
            },
            ConnectorEnd {
                part: Some(segment),
                port: segment_port,
            },
        );
        Ok(())
    };
    attach(system, p1, nios_port, seg1, seg_port, "wrapper1", 0x10)?;
    attach(system, p2, nios_port, seg1, seg_port, "wrapper2", 0x20)?;
    attach(system, p3, nios_port, seg2, seg_port, "wrapper3", 0x30)?;
    attach(system, acc, acc_port, seg2, seg_port, "wrapper4", 0x40)?;

    // Hierarchical bus: both data segments connect to the bridge segment.
    system.model.add_connector(
        platform,
        "seg1_bridge",
        ConnectorEnd {
            part: Some(seg1),
            port: seg_port,
        },
        ConnectorEnd {
            part: Some(bridge),
            port: bridge_port,
        },
    );
    system.model.add_connector(
        platform,
        "seg2_bridge",
        ConnectorEnd {
            part: Some(seg2),
            port: seg_port,
        },
        ConnectorEnd {
            part: Some(bridge),
            port: bridge_port,
        },
    );

    Ok(TutwlanPlatform {
        platform,
        processors: [p1, p2, p3],
        accelerator: acc,
        segments: [seg1, seg2, bridge],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_matches_figure7() {
        let mut system = SystemModel::new("P");
        let platform = build_tutwlan_platform(&mut system).unwrap();
        let view = system.platform();
        assert_eq!(view.instances().len(), 4);
        assert_eq!(view.segments().len(), 3);
        assert_eq!(view.attachments().len(), 4);
        assert_eq!(view.bridges().len(), 2);
        assert_eq!(
            view.segment_of(platform.processors[0]),
            Some(platform.segments[0])
        );
        assert_eq!(
            view.segment_of(platform.processors[1]),
            Some(platform.segments[0])
        );
        assert_eq!(
            view.segment_of(platform.processors[2]),
            Some(platform.segments[1])
        );
        assert_eq!(
            view.segment_of(platform.accelerator),
            Some(platform.segments[1])
        );
    }

    #[test]
    fn accelerator_is_a_hw_component() {
        let mut system = SystemModel::new("P");
        let platform = build_tutwlan_platform(&mut system).unwrap();
        let info = system.platform().instance(platform.accelerator).unwrap();
        assert_eq!(info.kind, ComponentKind::HwAccelerator);
        assert_eq!(info.frequency, 100);
    }

    #[test]
    fn wrapper_addresses_unique() {
        let mut system = SystemModel::new("P");
        build_tutwlan_platform(&mut system).unwrap();
        let attachments = system.platform().attachments();
        assert_eq!(
            attachments.len(),
            4,
            "every wrapper joins a PE to a segment"
        );
        let mut addresses: Vec<_> = attachments
            .iter()
            .filter_map(|a| a.wrapper.address)
            .collect();
        addresses.sort();
        addresses.dedup();
        assert_eq!(addresses.len(), 4);
    }
}
