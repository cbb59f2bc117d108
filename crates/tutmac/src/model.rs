//! Assembly of the TUTMAC application model (Figures 4–6) and the full
//! system (application + platform + mapping).

use tut_profile::application::ProcessType;
use tut_profile::SystemModel;
use tut_profile_core::TagValue;
use tut_uml::ids::{ClassId, PropertyId};
use tut_uml::model::ConnectorEnd;

use crate::behavior;
use crate::config::TutmacConfig;
use crate::platform_model;
use crate::signals::Signals;

/// Errors while building the case study.
#[derive(Clone, PartialEq, Debug)]
pub struct BuildTutmacError(pub String);

impl std::fmt::Display for BuildTutmacError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build the tutmac system: {}", self.0)
    }
}

impl std::error::Error for BuildTutmacError {}

impl From<tut_profile_core::ProfileError> for BuildTutmacError {
    fn from(err: tut_profile_core::ProfileError) -> Self {
        BuildTutmacError(err.to_string())
    }
}

/// Handles into the built system, used by tests, benches, and the
/// exploration tools.
#[derive(Clone, PartialEq, Debug)]
pub struct TutmacHandles {
    /// The signal alphabet.
    pub signals: Signals,
    /// The `Tutmac_Protocol` top-level class.
    pub protocol: ClassId,
    /// The process parts: (dotted display name, part id).
    pub processes: Vec<(String, PropertyId)>,
    /// The four process groups of Figure 6.
    pub groups: [ClassId; 4],
    /// Platform instances: processor1..3 and accelerator1 (Figure 7).
    pub processors: [PropertyId; 3],
    /// The CRC accelerator instance.
    pub accelerator: PropertyId,
}

/// Builds the complete TUTMAC/TUTWLAN system: application, behaviours,
/// grouping, platform, and mapping. See the crate-level docs for the map
/// to the paper's figures.
///
/// # Errors
///
/// Returns [`BuildTutmacError`] if any profile application fails (which
/// would indicate a bug in this builder).
pub fn build_tutmac_system(config: &TutmacConfig) -> Result<SystemModel, BuildTutmacError> {
    Ok(build_with_handles(config)?.0)
}

/// Like [`build_tutmac_system`], also returning the element handles.
///
/// # Errors
///
/// As [`build_tutmac_system`].
pub fn build_with_handles(
    config: &TutmacConfig,
) -> Result<(SystemModel, TutmacHandles), BuildTutmacError> {
    let mut s = SystemModel::new("TUTMAC");
    let pkg = s.model.add_package("Tutmac");
    let signals = Signals::declare(&mut s.model);

    // ---- Classes (Figure 4) --------------------------------------------
    let protocol = s.model.add_class_in(Some(pkg), "Tutmac_Protocol");
    s.apply_with(
        protocol,
        |t| t.application,
        [
            ("Priority", TagValue::Int(1)),
            ("CodeMemory", TagValue::Int(96 * 1024)),
            ("DataMemory", TagValue::Int(64 * 1024)),
            ("RealTimeType", TagValue::Enum("soft".into())),
        ],
    )?;

    // Structural components (no behaviour, composite structure only).
    let user_interface = s.model.add_class_in(Some(pkg), "UserInterface");
    let data_processing = s.model.add_class_in(Some(pkg), "DataProcessing");

    // Functional components.
    let functional = |s: &mut SystemModel,
                      name: &str,
                      code: i64,
                      data: i64|
     -> Result<ClassId, BuildTutmacError> {
        let class = s.model.add_class_in(Some(pkg), name);
        s.apply_with(
            class,
            |t| t.application_component,
            [
                ("CodeMemory", TagValue::Int(code)),
                ("DataMemory", TagValue::Int(data)),
                ("RealTimeType", TagValue::Enum("soft".into())),
            ],
        )?;
        Ok(class)
    };
    let management = functional(&mut s, "Management", 12 * 1024, 4 * 1024)?;
    let radio_management = functional(&mut s, "RadioManagement", 10 * 1024, 4 * 1024)?;
    let radio_channel_access = functional(&mut s, "RadioChannelAccess", 24 * 1024, 8 * 1024)?;
    let msdu_rec_class = functional(&mut s, "MsduReception", 6 * 1024, 8 * 1024)?;
    let msdu_del_class = functional(&mut s, "MsduDelivery", 6 * 1024, 8 * 1024)?;
    let frag_class = functional(&mut s, "Fragmentation", 8 * 1024, 16 * 1024)?;
    let defrag_class = functional(&mut s, "Defragmentation", 8 * 1024, 16 * 1024)?;
    let crc_class = functional(&mut s, "CrcProcessing", 2 * 1024, 1024)?;
    let user_class = functional(&mut s, "UserEnvironment", 0, 0)?;
    let channel_class = functional(&mut s, "RadioChannel", 0, 0)?;

    // ---- Ports ----------------------------------------------------------
    // msduRec
    let rec_user = s.model.add_port(msdu_rec_class, "pUser");
    let rec_dp = s.model.add_port(msdu_rec_class, "pDp");
    s.model.port_mut(rec_user).add_provided(signals.msdu_req);
    s.model.port_mut(rec_dp).add_required(signals.msdu);
    // msduDel
    let del_dp = s.model.add_port(msdu_del_class, "pDp");
    let del_user = s.model.add_port(msdu_del_class, "pUser");
    s.model.port_mut(del_dp).add_provided(signals.msdu_out);
    s.model.port_mut(del_user).add_required(signals.msdu_ind);
    // frag
    let frag_in = s.model.add_port(frag_class, "pIn");
    let frag_crc = s.model.add_port(frag_class, "pCrc");
    s.model.port_mut(frag_in).add_provided(signals.msdu);
    s.model.port_mut(frag_in).add_provided(signals.pdu_done);
    s.model.port_mut(frag_crc).add_required(signals.tx_pdu);
    // defrag
    let defrag_in = s.model.add_port(defrag_class, "pIn");
    let defrag_out = s.model.add_port(defrag_class, "pOut");
    s.model.port_mut(defrag_in).add_provided(signals.rx_pdu);
    s.model.port_mut(defrag_out).add_required(signals.msdu_out);
    // crc
    let crc_in = s.model.add_port(crc_class, "pIn");
    let crc_out = s.model.add_port(crc_class, "pOut");
    s.model.port_mut(crc_in).add_provided(signals.tx_pdu);
    s.model.port_mut(crc_in).add_provided(signals.rx_frame);
    s.model.port_mut(crc_out).add_required(signals.tx_frame);
    s.model.port_mut(crc_out).add_required(signals.rx_pdu);
    // mng
    let mng_rca = s.model.add_port(management, "pRca");
    s.model.port_mut(mng_rca).add_required(signals.beacon_req);
    // rmng
    let rmng_phy = s.model.add_port(radio_management, "pPhy");
    s.model.port_mut(rmng_phy).add_provided(signals.quality_ind);
    // rca
    let rca_dp = s.model.add_port(radio_channel_access, "pDp");
    let rca_mng = s.model.add_port(radio_channel_access, "pMng");
    let rca_phy = s.model.add_port(radio_channel_access, "pPhy");
    s.model.port_mut(rca_dp).add_provided(signals.tx_frame);
    s.model.port_mut(rca_dp).add_required(signals.rx_frame);
    s.model.port_mut(rca_dp).add_required(signals.pdu_done);
    s.model.port_mut(rca_mng).add_provided(signals.beacon_req);
    s.model.port_mut(rca_phy).add_required(signals.air_frame);
    s.model.port_mut(rca_phy).add_provided(signals.air_rx);
    s.model.port_mut(rca_phy).add_provided(signals.ack);
    // user (environment)
    let user_ui = s.model.add_port(user_class, "pUi");
    s.model.port_mut(user_ui).add_required(signals.msdu_req);
    s.model.port_mut(user_ui).add_provided(signals.msdu_ind);
    // channel (environment)
    let chan_rca = s.model.add_port(channel_class, "pRca");
    let chan_rmng = s.model.add_port(channel_class, "pRmng");
    s.model.port_mut(chan_rca).add_provided(signals.air_frame);
    s.model.port_mut(chan_rca).add_required(signals.air_rx);
    s.model.port_mut(chan_rca).add_required(signals.ack);
    s.model
        .port_mut(chan_rmng)
        .add_required(signals.quality_ind);

    // Boundary ports of the structural components.
    let ui_user = s.model.add_port(user_interface, "pUser");
    let ui_dp = s.model.add_port(user_interface, "pDp");
    s.model.port_mut(ui_user).add_provided(signals.msdu_req);
    s.model.port_mut(ui_user).add_required(signals.msdu_ind);
    s.model.port_mut(ui_dp).add_required(signals.msdu);
    s.model.port_mut(ui_dp).add_provided(signals.msdu_out);

    let dp_ui = s.model.add_port(data_processing, "pUi");
    let dp_rca = s.model.add_port(data_processing, "pRca");
    s.model.port_mut(dp_ui).add_provided(signals.msdu);
    s.model.port_mut(dp_ui).add_required(signals.msdu_out);
    s.model.port_mut(dp_rca).add_required(signals.tx_frame);
    s.model.port_mut(dp_rca).add_provided(signals.rx_frame);
    s.model.port_mut(dp_rca).add_provided(signals.pdu_done);

    // ---- Behaviours ------------------------------------------------------
    s.model
        .add_state_machine(msdu_rec_class, behavior::msdu_rec(config, &signals));
    s.model
        .add_state_machine(msdu_del_class, behavior::msdu_del(config, &signals));
    s.model
        .add_state_machine(frag_class, behavior::frag(config, &signals));
    s.model
        .add_state_machine(defrag_class, behavior::defrag(config, &signals));
    s.model
        .add_state_machine(crc_class, behavior::crc(config, &signals));
    s.model
        .add_state_machine(radio_channel_access, behavior::rca(config, &signals));
    s.model
        .add_state_machine(management, behavior::mng(config, &signals));
    s.model
        .add_state_machine(radio_management, behavior::rmng(config, &signals));
    s.model
        .add_state_machine(user_class, behavior::user(config, &signals));
    s.model
        .add_state_machine(channel_class, behavior::channel(config, &signals));

    // ---- Composite structure (Figure 5) ----------------------------------
    // Parts inside the structural components.
    let msdu_rec_part = s.model.add_part(user_interface, "msduRec", msdu_rec_class);
    let msdu_del_part = s.model.add_part(user_interface, "msduDel", msdu_del_class);
    let frag_part = s.model.add_part(data_processing, "frag", frag_class);
    let defrag_part = s.model.add_part(data_processing, "defrag", defrag_class);
    let crc_part = s.model.add_part(data_processing, "crc", crc_class);

    // Parts of the top-level protocol class.
    let ui_part = s.model.add_part(protocol, "ui", user_interface);
    let dp_part = s.model.add_part(protocol, "dp", data_processing);
    let mng_part = s.model.add_part(protocol, "mng", management);
    let rmng_part = s.model.add_part(protocol, "rmng", radio_management);
    let rca_part = s.model.add_part(protocol, "rca", radio_channel_access);
    let user_part = s.model.add_part(protocol, "user", user_class);
    let channel_part = s.model.add_part(protocol, "channel", channel_class);

    // Stereotype the process instances (Figure 5: «ApplicationProcess»).
    let process = |s: &mut SystemModel,
                   part: PropertyId,
                   priority: i64,
                   kind: &str|
     -> Result<(), BuildTutmacError> {
        s.apply_with(
            part,
            |t| t.application_process,
            [
                ("Priority", TagValue::Int(priority)),
                ("ProcessType", TagValue::Enum(kind.into())),
            ],
        )?;
        Ok(())
    };
    process(&mut s, mng_part, 2, "general")?;
    process(&mut s, rmng_part, 1, "dsp")?;
    process(&mut s, rca_part, 3, "general")?;
    process(&mut s, msdu_rec_part, 1, "general")?;
    process(&mut s, msdu_del_part, 1, "general")?;
    process(&mut s, frag_part, 2, "general")?;
    process(&mut s, defrag_part, 1, "general")?;
    process(&mut s, crc_part, 1, "hardware")?;
    // user / channel stay unstereotyped-by-group: they are environment
    // processes, but are still «ApplicationProcess» parts.
    process(&mut s, user_part, 0, "general")?;
    process(&mut s, channel_part, 0, "general")?;

    // Delegation connectors inside UserInterface.
    let conn = |s: &mut SystemModel, owner, name: &str, a, b| {
        s.model.add_connector(owner, name, a, b);
    };
    conn(
        &mut s,
        user_interface,
        "uToRec",
        ConnectorEnd {
            part: None,
            port: ui_user,
        },
        ConnectorEnd {
            part: Some(msdu_rec_part),
            port: rec_user,
        },
    );
    conn(
        &mut s,
        user_interface,
        "delToU",
        ConnectorEnd {
            part: None,
            port: ui_user,
        },
        ConnectorEnd {
            part: Some(msdu_del_part),
            port: del_user,
        },
    );
    conn(
        &mut s,
        user_interface,
        "recToDp",
        ConnectorEnd {
            part: None,
            port: ui_dp,
        },
        ConnectorEnd {
            part: Some(msdu_rec_part),
            port: rec_dp,
        },
    );
    conn(
        &mut s,
        user_interface,
        "dpToDel",
        ConnectorEnd {
            part: None,
            port: ui_dp,
        },
        ConnectorEnd {
            part: Some(msdu_del_part),
            port: del_dp,
        },
    );

    // Delegation connectors inside DataProcessing.
    conn(
        &mut s,
        data_processing,
        "uiToFrag",
        ConnectorEnd {
            part: None,
            port: dp_ui,
        },
        ConnectorEnd {
            part: Some(frag_part),
            port: frag_in,
        },
    );
    conn(
        &mut s,
        data_processing,
        "defragToUi",
        ConnectorEnd {
            part: None,
            port: dp_ui,
        },
        ConnectorEnd {
            part: Some(defrag_part),
            port: defrag_out,
        },
    );
    conn(
        &mut s,
        data_processing,
        "rcaToFrag",
        ConnectorEnd {
            part: None,
            port: dp_rca,
        },
        ConnectorEnd {
            part: Some(frag_part),
            port: frag_in,
        },
    );
    conn(
        &mut s,
        data_processing,
        "rcaToCrc",
        ConnectorEnd {
            part: None,
            port: dp_rca,
        },
        ConnectorEnd {
            part: Some(crc_part),
            port: crc_in,
        },
    );
    conn(
        &mut s,
        data_processing,
        "crcToRca",
        ConnectorEnd {
            part: None,
            port: dp_rca,
        },
        ConnectorEnd {
            part: Some(crc_part),
            port: crc_out,
        },
    );
    // Assembly connectors inside DataProcessing.
    conn(
        &mut s,
        data_processing,
        "fragToCrc",
        ConnectorEnd {
            part: Some(frag_part),
            port: frag_crc,
        },
        ConnectorEnd {
            part: Some(crc_part),
            port: crc_in,
        },
    );
    conn(
        &mut s,
        data_processing,
        "crcToDefrag",
        ConnectorEnd {
            part: Some(crc_part),
            port: crc_out,
        },
        ConnectorEnd {
            part: Some(defrag_part),
            port: defrag_in,
        },
    );

    // Top-level connectors (Figure 5).
    conn(
        &mut s,
        protocol,
        "userToUi",
        ConnectorEnd {
            part: Some(user_part),
            port: user_ui,
        },
        ConnectorEnd {
            part: Some(ui_part),
            port: ui_user,
        },
    );
    conn(
        &mut s,
        protocol,
        "uiToDp",
        ConnectorEnd {
            part: Some(ui_part),
            port: ui_dp,
        },
        ConnectorEnd {
            part: Some(dp_part),
            port: dp_ui,
        },
    );
    conn(
        &mut s,
        protocol,
        "dpToRca",
        ConnectorEnd {
            part: Some(dp_part),
            port: dp_rca,
        },
        ConnectorEnd {
            part: Some(rca_part),
            port: rca_dp,
        },
    );
    conn(
        &mut s,
        protocol,
        "mngToRca",
        ConnectorEnd {
            part: Some(mng_part),
            port: mng_rca,
        },
        ConnectorEnd {
            part: Some(rca_part),
            port: rca_mng,
        },
    );
    conn(
        &mut s,
        protocol,
        "rcaToPhy",
        ConnectorEnd {
            part: Some(rca_part),
            port: rca_phy,
        },
        ConnectorEnd {
            part: Some(channel_part),
            port: chan_rca,
        },
    );
    conn(
        &mut s,
        protocol,
        "chanToRmng",
        ConnectorEnd {
            part: Some(channel_part),
            port: chan_rmng,
        },
        ConnectorEnd {
            part: Some(rmng_part),
            port: rmng_phy,
        },
    );

    // ---- Process grouping (Figure 6) --------------------------------------
    let group1 = s.add_process_group("group1", false, ProcessType::General);
    let group2 = s.add_process_group("group2", false, ProcessType::General);
    let group3 = s.add_process_group("group3", false, ProcessType::General);
    let group4 = s.add_process_group("group4", true, ProcessType::Hardware);
    s.assign_to_group(rca_part, group1);
    s.assign_to_group(mng_part, group1);
    s.assign_to_group(rmng_part, group1);
    s.assign_to_group(msdu_rec_part, group2);
    s.assign_to_group(msdu_del_part, group2);
    s.assign_to_group(frag_part, group3);
    s.assign_to_group(defrag_part, group3);
    s.assign_to_group(crc_part, group4);
    // user/channel stay ungrouped: the Environment.

    // ---- Platform (Figure 7) + mapping (Figure 8) -------------------------
    let platform = platform_model::build_tutwlan_platform(&mut s)?;
    s.map_group(group1, platform.processors[0], false);
    s.map_group(group3, platform.processors[0], false);
    s.map_group(group2, platform.processors[1], false);
    s.map_group(group4, platform.accelerator, true);

    let handles = TutmacHandles {
        signals,
        protocol,
        processes: vec![
            ("ui.msduRec".into(), msdu_rec_part),
            ("ui.msduDel".into(), msdu_del_part),
            ("dp.frag".into(), frag_part),
            ("dp.defrag".into(), defrag_part),
            ("dp.crc".into(), crc_part),
            ("mng".into(), mng_part),
            ("rmng".into(), rmng_part),
            ("rca".into(), rca_part),
            ("user".into(), user_part),
            ("channel".into(), channel_part),
        ],
        groups: [group1, group2, group3, group4],
        processors: platform.processors,
        accelerator: platform.accelerator,
    };
    Ok((s, handles))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The class called `name`.
    fn class_named(model: &tut_uml::Model, name: &str) -> ClassId {
        model
            .classes()
            .find(|(_, c)| c.name() == name)
            .map(|(id, _)| id)
            .expect("class exists")
    }

    #[test]
    fn system_builds_and_validates() {
        let system = build_tutmac_system(&TutmacConfig::default()).unwrap();
        let errors = system.validate_errors();
        assert!(errors.is_empty(), "validation errors: {errors:#?}");
    }

    #[test]
    fn figure6_grouping_is_reproduced() {
        let (system, handles) = build_with_handles(&TutmacConfig::default()).unwrap();
        let app = system.application();
        let find = |name: &str| {
            handles
                .processes
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| *p)
                .unwrap()
        };
        assert_eq!(app.group_of(find("rca")), Some(handles.groups[0]));
        assert_eq!(app.group_of(find("mng")), Some(handles.groups[0]));
        assert_eq!(app.group_of(find("rmng")), Some(handles.groups[0]));
        assert_eq!(app.group_of(find("ui.msduRec")), Some(handles.groups[1]));
        assert_eq!(app.group_of(find("dp.frag")), Some(handles.groups[2]));
        assert_eq!(app.group_of(find("dp.crc")), Some(handles.groups[3]));
        assert_eq!(app.group_of(find("user")), None, "environment");
        assert_eq!(app.group_of(find("channel")), None, "environment");
    }

    #[test]
    fn figure8_mapping_is_reproduced() {
        let (system, handles) = build_with_handles(&TutmacConfig::default()).unwrap();
        let mapping = system.mapping();
        assert_eq!(
            mapping.instance_of(handles.groups[0]),
            Some(handles.processors[0])
        );
        assert_eq!(
            mapping.instance_of(handles.groups[2]),
            Some(handles.processors[0]),
            "group1 and group3 share processor1 (Figure 8)"
        );
        assert_eq!(
            mapping.instance_of(handles.groups[1]),
            Some(handles.processors[1])
        );
        assert_eq!(
            mapping.instance_of(handles.groups[3]),
            Some(handles.accelerator)
        );
        // processor3 is the unmapped spare.
        assert!(mapping.groups_on(handles.processors[2]).is_empty());
    }

    #[test]
    fn routing_resolves_the_tx_path() {
        use tut_uml::instances::{InstanceTree, RoutingTable};
        let (system, handles) = build_with_handles(&TutmacConfig::default()).unwrap();
        let tree = InstanceTree::build(&system.model, handles.protocol).unwrap();
        let table = RoutingTable::build(&system.model, &tree);

        // user -> msduRec
        let user_class = class_named(&system.model, "UserEnvironment");
        let user_port = system.model.find_port(user_class, "pUi").unwrap();
        let user_index = tree
            .nodes()
            .iter()
            .position(|n| n.class == user_class)
            .unwrap();
        let receivers = table.receivers(user_index, user_port, handles.signals.msdu_req);
        assert_eq!(receivers.len(), 1);
        assert_eq!(
            tree.display_name(&system.model, receivers[0].instance),
            "ui.msduRec"
        );

        // msduRec -> frag crosses two structural boundaries.
        let rec_class = class_named(&system.model, "MsduReception");
        let rec_port = system.model.find_port(rec_class, "pDp").unwrap();
        let rec_index = tree
            .nodes()
            .iter()
            .position(|n| n.class == rec_class)
            .unwrap();
        let receivers = table.receivers(rec_index, rec_port, handles.signals.msdu);
        assert_eq!(receivers.len(), 1);
        assert_eq!(
            tree.display_name(&system.model, receivers[0].instance),
            "dp.frag"
        );

        // crc -> rca (outbound through the dp boundary).
        let crc_class = class_named(&system.model, "CrcProcessing");
        let crc_port = system.model.find_port(crc_class, "pOut").unwrap();
        let crc_index = tree
            .nodes()
            .iter()
            .position(|n| n.class == crc_class)
            .unwrap();
        let receivers = table.receivers(crc_index, crc_port, handles.signals.tx_frame);
        assert_eq!(receivers.len(), 1);
        assert_eq!(
            tree.display_name(&system.model, receivers[0].instance),
            "rca"
        );
        // crc -> defrag stays inside dp.
        let receivers = table.receivers(crc_index, crc_port, handles.signals.rx_pdu);
        assert_eq!(receivers.len(), 1);
        assert_eq!(
            tree.display_name(&system.model, receivers[0].instance),
            "dp.defrag"
        );
    }

    #[test]
    fn xml_round_trip_of_the_full_case_study() {
        let system = build_tutmac_system(&TutmacConfig::default()).unwrap();
        let xml = system.to_xml();
        let parsed = SystemModel::from_xml(&xml).unwrap();
        assert_eq!(parsed.model, system.model);
        assert_eq!(parsed.apps, system.apps);
    }
}
