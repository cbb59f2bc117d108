//! End-to-end tests for the `repro check` pipeline: one run over a
//! known-bad document must surface a syntax error, a well-formedness
//! violation, and a profile-rule violation together, each with a stable
//! code and a real line:column location.

use tut_bench::check::check_source;

fn bad_fixture() -> (&'static str, String) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/check_bad.xml");
    (
        path,
        std::fs::read_to_string(path).expect("fixture readable"),
    )
}

#[test]
fn bad_fixture_reports_all_three_layers_in_one_run() {
    let (path, text) = bad_fixture();
    let report = check_source(path, &text);
    let codes: Vec<&str> = report.bag().iter().map(|d| d.code).collect();

    // Syntax error inside the embedded action language.
    assert!(codes.contains(&"E0110"), "missing E0110 in {codes:?}");
    // UML well-formedness: active class without behaviour.
    assert!(codes.contains(&"E0314"), "missing E0314 in {codes:?}");
    // TUT-Profile rule: component without behaviour.
    assert!(codes.contains(&"E0202"), "missing E0202 in {codes:?}");

    // Every one of the three carries a document span.
    for code in ["E0110", "E0314", "E0202"] {
        let d = report.bag().iter().find(|d| d.code == code).unwrap();
        assert!(d.span.is_some(), "{code} has no span");
    }
    assert!(report.has_errors());
}

#[test]
fn text_report_locates_findings_by_line_and_column() {
    let (path, text) = bad_fixture();
    let report = check_source(path, &text);
    let rendered = report.render_text();

    // The broken statement sits on the fixture's <actions> line; the
    // declaration of the behaviour-less class on its own line. Assert the
    // renderer points into the file rather than at 1:1.
    let actions_line = text
        .lines()
        .position(|l| l.contains("n := n + ;"))
        .expect("fixture contains the broken statement")
        + 1;
    assert!(
        rendered.contains(&format!("{path}:{actions_line}:")),
        "report does not point at line {actions_line}:\n{rendered}"
    );
    let rogue_line = text
        .lines()
        .position(|l| l.contains("\"Rogue\""))
        .expect("fixture declares Rogue")
        + 1;
    assert!(
        rendered.contains(&format!("{path}:{rogue_line}:")),
        "report does not point at line {rogue_line}:\n{rendered}"
    );
    // Summary line tallies severities.
    assert!(rendered.contains("error"), "{rendered}");
}

#[test]
fn json_report_carries_codes_and_line_numbers() {
    let (path, text) = bad_fixture();
    let report = check_source(path, &text);
    let json = report.render_json();
    assert_eq!(json.lines().count(), 1);
    for code in ["E0110", "E0314", "E0202"] {
        assert!(json.contains(&format!("\"code\":\"{code}\"")), "{json}");
    }
    assert!(json.contains("\"line\":"), "{json}");
    assert!(json.contains("\"column\":"), "{json}");
}

#[test]
fn findings_are_severity_sorted() {
    let (path, text) = bad_fixture();
    let report = check_source(path, &text);
    let severities: Vec<_> = report.bag().iter().map(|d| d.severity).collect();
    let mut sorted = severities.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(severities, sorted, "report not severity-sorted");
}

#[test]
fn clean_tutmac_model_checks_without_errors() {
    let report = check_source("paper-system.xml", &tut_bench::paper_system().to_xml());
    assert!(!report.has_errors(), "{}", report.render_text());
}
