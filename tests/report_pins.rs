//! Byte pins for `repro check`'s reports. The text and JSON renderings of
//! `check_source` over the two committed bad fixtures and over the
//! serialised TUTMAC system are pinned by length and FNV-1a hash, so a
//! change to the front end, the rule catalogue or either renderer that
//! moves a single report byte fails here.

use tut_bench::check::check_source;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn fixture(name: &str) -> String {
    let path = format!(
        "{}/crates/bench/fixtures/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// (length, fnv1a) of the text and the JSON rendering of one check.
fn pins(name: &str, text: &str) -> [(usize, u64); 2] {
    let report = check_source(name, text);
    [report.render_text(), report.render_json()].map(|r| (r.len(), fnv1a(r.as_bytes())))
}

#[test]
fn check_bad_fixture_reports_are_pinned() {
    let name = "crates/bench/fixtures/check_bad.xml";
    assert_eq!(
        pins(name, &fixture("check_bad.xml")),
        [(751, 0x87B8_F914_070C_CC51), (836, 0x53B4_16E3_7049_EA0F)],
        "check_bad.xml report bytes changed: (length, fnv1a) of text, JSON"
    );
}

#[test]
fn param_range_fixture_reports_are_pinned() {
    let name = "crates/bench/fixtures/check_param_range.xml";
    assert_eq!(
        pins(name, &fixture("check_param_range.xml")),
        [(710, 0x0CD1_9AED_D085_CD73), (576, 0x1427_4064_2149_147F)],
        "check_param_range.xml report bytes changed: (length, fnv1a) of text, JSON"
    );
}

#[test]
fn tutmac_reports_are_pinned() {
    let xml = tut_bench::paper_system().to_xml();
    assert_eq!(
        pins("paper-system.xml", &xml),
        [(898, 0xEE0B_824C_4BCE_629D), (759, 0xBBE7_A249_B620_C2B1)],
        "TUTMAC report bytes changed: (length, fnv1a) of text, JSON"
    );
}
