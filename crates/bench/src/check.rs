//! The `repro check` driver: one-shot spanned diagnostics over a model
//! document.
//!
//! Runs the whole front end over an XML model/system document — XML parse,
//! model decode (with statement-level recovery inside embedded textual
//! action language), profile application, UML well-formedness, the
//! TUT-Profile rule catalogue, and a code-generation dry run — and
//! aggregates every finding into one severity-sorted
//! [`DiagnosticBag`]. Model-level findings that carry only an element
//! attribution are given document spans through the
//! [`SpanIndex`](tut_uml::xmi::SpanIndex) built while reading, so the
//! report points at real lines and columns of the input file.

use tut_diag::{render_bag_json, render_bag_text, Diagnostic, DiagnosticBag, SourceMap, Span};
use tut_profile::{SystemModel, TutProfile};
use tut_profile_core::interchange::{applications_from_xml_node, E_PROFILE_INTERCHANGE};
use tut_profile_core::Applications;
use tut_trace::perf;
use tut_uml::error::{Error, E_XML_SYNTAX};
use tut_uml::xmi::{self, E_XMI_STRUCTURE};
use tut_uml::xml::XmlNode;

/// The outcome of checking one document: its source map plus every
/// finding, severity-sorted.
#[derive(Debug)]
pub struct CheckReport {
    source: SourceMap,
    bag: DiagnosticBag,
}

impl CheckReport {
    /// The findings.
    pub fn bag(&self) -> &DiagnosticBag {
        &self.bag
    }

    /// The source the findings refer to.
    pub fn source(&self) -> &SourceMap {
        &self.source
    }

    /// True when at least one error-severity finding fired. This drives
    /// the exit contract: errors → nonzero, warnings only → zero.
    pub fn has_errors(&self) -> bool {
        self.bag.has_errors()
    }

    /// Rustc-style text rendering with source excerpts.
    pub fn render_text(&self) -> String {
        render_bag_text(&self.bag, Some(&self.source))
    }

    /// Machine-readable single-line JSON rendering.
    pub fn render_json(&self) -> String {
        render_bag_json(&self.bag, Some(&self.source))
    }
}

/// Checks a document given as text. `name` labels the source in the
/// report (usually the file path).
pub fn check_source(name: &str, text: &str) -> CheckReport {
    let source = SourceMap::new(name, text);
    let mut bag = DiagnosticBag::new();
    run_stages(text, &mut bag);
    bag.sort();
    CheckReport { source, bag }
}

fn run_stages(text: &str, bag: &mut DiagnosticBag) {
    // Front-end phases are cold (once per document), so the scoped
    // profiler spans here go through the dynamically-gated module entry
    // points; with profiling off each is a flag load.
    let _check_span = perf::enter_named("check.run");

    // Stage 1: XML parse. A syntax error here leaves nothing to analyse.
    let stage_span = perf::enter_named("check.parse_xml");
    let root = match XmlNode::parse(text) {
        Ok(root) => root,
        Err(Error::XmlSyntax {
            offset, message, ..
        }) => {
            bag.push(Diagnostic::error(E_XML_SYNTAX, message).with_span(Span::point(offset)));
            return;
        }
        Err(e) => {
            bag.push(Diagnostic::error(E_XML_SYNTAX, e.to_string()));
            return;
        }
    };

    // Stage 2: model decode. Embedded textual action language recovers
    // statement-by-statement into `bag`; structural damage stops here.
    let stage_span = stage_span.then_named("check.xmi_decode");
    let (model, index) = match xmi::read_model(&root, bag) {
        Ok(v) => v,
        Err(e) => {
            bag.push(Diagnostic::error(E_XMI_STRUCTURE, e.to_string()));
            return;
        }
    };

    // Stage 3: profile application. A broken subtree degrades to "no
    // applications" so the UML checks still run.
    let stage_span = stage_span.then_named("check.profile_apply");
    let tut = TutProfile::new();
    let apps = match root.child("profileApplication") {
        Some(node) => match applications_from_xml_node(tut.profile(), node) {
            Ok(apps) => apps,
            Err(e) => {
                let mut d = Diagnostic::error(E_PROFILE_INTERCHANGE, e.to_string());
                if node.span != Span::NONE {
                    d = d.with_span(node.span);
                }
                bag.push(d);
                Applications::new()
            }
        },
        None => Applications::new(),
    };
    let system = SystemModel { tut, model, apps };

    // Stage 4: well-formedness (incl. action type-check) + profile rules.
    // Findings carry element attributions; resolve them to declaration
    // spans so the renderer can excerpt the document.
    let stage_span = stage_span.then_named("check.model_rules");
    let mut findings = system.check();
    for d in findings.iter_mut() {
        if d.span.is_none() {
            if let Some(element) = &d.element {
                d.span = index.get(element);
            }
        }
    }
    bag.merge(findings);

    // Stage 5: codegen dry run — the generated files are discarded, only
    // the structural prerequisites are checked.
    let stage_span = stage_span.then_named("check.codegen_dry_run");
    if let Some(d) = tut_codegen::dry_run_diagnostic(&system) {
        bag.push(d);
    }

    // Stage 6: simulation-setup dry run — lowering the platform for the
    // simulator re-derives every tagged value with checked conversions,
    // so attributes outside the representable range of the engine (and
    // the HIBI RTL it models) surface here as spanned E0410 findings
    // instead of truncating silently at simulation time. Errors without
    // a stable diagnostic code (no application, missing behaviour, …)
    // are structural conditions the model rules already cover and are
    // not re-reported.
    let _stage_span = stage_span.then_named("check.sim_setup");
    if let Some(mut d) = tut_sim::setup_diagnostic(&system, tut_sim::SimConfig::default()) {
        if let Some(element) = &d.element {
            if let Some(span) = index.get(element) {
                d.span = Some(span);
            }
        }
        bag.push(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_profile::application::ProcessType;
    use tut_profile::platform::ComponentKind;
    use tut_uml::action::{CostClass, Expr, Statement};
    use tut_uml::statemachine::{StateMachine, Trigger};

    /// A small simulatable system whose HIBI segment declares a
    /// `DataWidth` wider than the engine (or the RTL it models) can
    /// represent — the shape `fixtures/check_param_range.xml` was
    /// serialised from.
    fn wide_segment_system() -> SystemModel {
        use tut_profile_core::TagValue;
        let mut s = SystemModel::new("WideBus");
        let top = s.model.add_class("Top");
        s.apply(top, |t| t.application).unwrap();
        let comp = s.model.add_class("Ticker");
        s.apply(comp, |t| t.application_component).unwrap();
        let mut sm = StateMachine::new("B");
        let run = sm.add_state_with_entry(
            "Run",
            vec![Statement::SetTimer {
                name: "tick".into(),
                duration: Expr::int(1000),
            }],
        );
        sm.set_initial(run);
        sm.add_transition(
            run,
            run,
            Trigger::Timer("tick".into()),
            None,
            vec![
                Statement::Compute {
                    class: CostClass::Control,
                    amount: Expr::int(100),
                },
                Statement::SetTimer {
                    name: "tick".into(),
                    duration: Expr::int(1000),
                },
            ],
        );
        s.model.add_state_machine(comp, sm);
        let part = s.model.add_part(top, "ticker", comp);
        s.apply(part, |t| t.application_process).unwrap();
        let group = s.add_process_group("group1", false, ProcessType::General);
        s.assign_to_group(part, group);

        let platform = s.model.add_class("Plat");
        s.apply(platform, |t| t.platform).unwrap();
        let nios = s.add_platform_component("Nios", ComponentKind::General, 50, 1.0, 0.1);
        let cpu = s.add_platform_instance(platform, "cpu1", nios, 1, 0);
        let seg_class = s.model.add_class("Seg");
        s.apply_with(
            seg_class,
            |t| t.hibi_segment,
            [
                // u32::MAX is 4294967295; this cannot be lowered.
                ("DataWidth", TagValue::Int(5_000_000_000)),
                ("Frequency", TagValue::Int(100)),
                ("Arbitration", TagValue::Enum("priority".into())),
            ],
        )
        .unwrap();
        s.model.add_part(platform, "seg1", seg_class);
        s.map_group(group, cpu, false);
        s
    }

    #[test]
    fn sim_setup_dry_run_reports_param_range_with_span() {
        let system = wide_segment_system();
        let report = check_source("wide.xml", &system.to_xml());
        assert!(report.has_errors(), "{}", report.render_text());
        let d = report
            .bag()
            .iter()
            .find(|d| d.code == tut_sim::E_PARAM_RANGE)
            .unwrap_or_else(|| panic!("no E0410 finding:\n{}", report.render_text()));
        assert!(d.message.contains("DataWidth"), "{}", d.message);
        assert!(d.span.is_some(), "E0410 resolves to a document span");
        assert!(report.render_text().contains("E0410"));
    }

    #[test]
    fn param_range_fixture_is_detected() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/fixtures/check_param_range.xml"
        );
        let text = std::fs::read_to_string(path).expect("committed fixture present");
        let report = check_source("check_param_range.xml", &text);
        assert!(report.has_errors(), "{}", report.render_text());
        assert!(
            report
                .bag()
                .iter()
                .any(|d| d.code == tut_sim::E_PARAM_RANGE),
            "fixture must trip E0410:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn xml_syntax_error_is_spanned() {
        let report = check_source("broken.xml", "<xmi:XMI><uml:Model name=");
        assert!(report.has_errors());
        let d = report.bag().first().unwrap();
        assert_eq!(d.code, E_XML_SYNTAX);
        assert!(d.span.is_some());
        assert!(report.render_text().contains("broken.xml:1:"));
    }

    #[test]
    fn structure_error_reported_with_code() {
        let report = check_source("bad.xml", "<xmi:XMI><wrong/></xmi:XMI>");
        assert!(report.has_errors());
        assert_eq!(report.bag().first().unwrap().code, E_XMI_STRUCTURE);
    }

    #[test]
    fn json_rendering_is_single_line() {
        let report = check_source("bad.xml", "<xmi:XMI>");
        let json = report.render_json();
        assert_eq!(json.lines().count(), 1);
        assert!(json.starts_with("{\"summary\""));
    }
}
