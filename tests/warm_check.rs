//! The warm front end's contract, in the tier-1 suite: one `Checker` fed
//! a short seeded edit script renders every report byte-identically to
//! the cold `check_source` pipeline. The script takes each path the warm
//! checker has: behaviour constants (the patch path), a tagged value (a
//! structural rebuild), an inserted and removed element (a full
//! rebuild), and a syntax error with its repair (an `E0101` report,
//! then a report-cache hit). A second test takes the document shapes an
//! outline must survive through a fresh checker and one warm edit.

use tut_bench::check::check_source;
use tut_bench::incremental::Checker;
use tut_trace::SplitMix64;

const NAME: &str = "paper-system.xml";
const LIT: &str = "<lit type=\"Int\" data=\"";
const TAGGED: &str = "<taggedValue name=\"Priority\" type=\"Int\" data=\"";
const CLOSE: &str = "</compute>";
const BROKEN: &str = "</comput>";
const ANCHOR: &str = "<packagedElement xmi:type=\"uml:StateMachine\"";
const INSERTED: &str =
    "<packagedElement xmi:type=\"uml:Package\" xmi:id=\"pkg1\" name=\"EditPkg\"/>\n    ";

#[derive(Clone, Copy, Debug)]
enum Op {
    Constant,
    Tagged,
    Insert,
    Remove,
    Break,
    Repair,
}

/// Rewrites the value after a randomly chosen occurrence of `needle`.
fn rewrite_value(rng: &mut SplitMix64, text: &mut String, needle: &str, modulus: u64) {
    let sites: Vec<usize> = text
        .match_indices(needle)
        .map(|(i, _)| i + needle.len())
        .collect();
    let at = sites[rng.next_index(sites.len())];
    let end = at + text[at..].find('"').expect("quoted value");
    let value = 1 + rng.next_below(modulus);
    text.replace_range(at..end, &value.to_string());
}

#[test]
fn seeded_edit_script_stays_byte_identical_to_the_cold_pipeline() {
    use Op::*;
    let mut text = tut_bench::paper_system().to_xml();
    let mut rng = SplitMix64::new(0x0E17_0008);
    let mut checker = Checker::new();
    let script = [
        Constant, Constant, Tagged, Constant, Insert, Constant, Remove, Constant, Break, Repair,
        Constant, Constant,
    ];
    for (step, op) in [Constant].iter().chain(&script).enumerate() {
        match op {
            Constant => rewrite_value(&mut rng, &mut text, LIT, 1_000_000),
            Tagged => rewrite_value(&mut rng, &mut text, TAGGED, 1_000),
            Insert => {
                let at = text.find(ANCHOR).expect("a state machine");
                text.insert_str(at, INSERTED);
            }
            Remove => text = text.replacen(INSERTED, "", 1),
            Break => {
                let sites: Vec<usize> = text.match_indices(CLOSE).map(|(i, _)| i).collect();
                let at = sites[rng.next_index(sites.len())];
                text.replace_range(at..at + CLOSE.len(), BROKEN);
            }
            Repair => text = text.replacen(BROKEN, CLOSE, 1),
        }
        let oracle = check_source(NAME, &text);
        let warm = checker.check(NAME, &text);
        let what = format!("step {step} ({op:?})");
        assert_eq!(warm.text, oracle.render_text(), "text diverged at {what}");
        assert_eq!(warm.json, oracle.render_json(), "json diverged at {what}");
        assert_eq!(warm.has_errors, oracle.has_errors(), "{what}");
        assert_eq!(warm.has_errors, matches!(op, Break), "{what}");
    }
}

/// Checks `text` on `checker` and requires the oracle's bytes.
fn check_matches_oracle(checker: &mut Checker, text: &str, what: &str) {
    let oracle = check_source(NAME, text);
    let out = checker.check(NAME, text);
    assert_eq!(out.text, oracle.render_text(), "text diverged: {what}");
    assert_eq!(out.json, oracle.render_json(), "json diverged: {what}");
    assert_eq!(out.has_errors, oracle.has_errors(), "{what}");
}

/// Misses of one query stage since `before`.
fn misses(checker: &Checker, before: &tut_query::CacheStats, stage: &str) -> u64 {
    let delta = checker.stats().since(before);
    delta
        .stages
        .iter()
        .filter(|s| s.name == stage)
        .map(|s| s.misses)
        .sum()
}

/// Document shapes beyond what the model writer emits: declarations,
/// comments, stray text, foreign children, a missing profile
/// application or model, and a DOCTYPE. Each is checked by a fresh
/// checker, then warm after a seeded constant edit, and both reports
/// equal the cold pipeline's byte for byte. Where the shape reads as a
/// model, the constant edit takes the patch path: it decodes exactly
/// one state machine.
#[test]
fn unusual_document_shapes_stay_byte_identical_to_the_cold_pipeline() {
    let base = tut_bench::paper_system().to_xml();
    let sm_body = base.find(ANCHOR).expect("a state machine");
    let sm_body = sm_body + base[sm_body..].find(">\n").unwrap() + 2;
    let model_start = base.find("<uml:Model").unwrap();
    let model_body = model_start + base[model_start..].find(">\n").unwrap() + 2;
    let root_start = base.find("<xmi:XMI").unwrap();
    let root_body = root_start + base[root_start..].find(">\n").unwrap() + 2;
    let app = base
        .find("  <profileApplication")
        .expect("a profile application");
    let app_end = base.find("</profileApplication>\n").unwrap() + "</profileApplication>\n".len();
    let insert = |at: usize, what: &str| format!("{}{what}{}", &base[..at], &base[at..]);
    let shapes: Vec<(&str, String, bool)> = vec![
        ("an XML declaration", base.clone(), true),
        (
            "no XML declaration",
            base[base.find("?>").unwrap() + 2..].trim_start().to_owned(),
            true,
        ),
        (
            "comments between and inside segments",
            insert(sm_body, "      <!-- inside a machine -->\n").replacen(
                ANCHOR,
                &format!("<!-- between -->\n    {ANCHOR}"),
                1,
            ),
            true,
        ),
        (
            "text under the root",
            insert(root_body, "  stray text\n"),
            true,
        ),
        (
            "a foreign child of uml:Model",
            insert(model_body, "    <ownedComment body=\"note\"/>\n"),
            true,
        ),
        (
            "no profileApplication",
            format!("{}{}", &base[..app], &base[app_end..]),
            true,
        ),
        (
            "a missing uml:Model",
            base.replace("uml:Model", "uml:Modell"),
            false,
        ),
        ("a DOCTYPE", insert(root_start, "<!DOCTYPE xmi>\n"), false),
    ];
    let mut rng = SplitMix64::new(0x0E17_0028);
    for (what, text, reads) in shapes {
        let mut checker = Checker::new();
        check_matches_oracle(&mut checker, &text, &format!("{what}, fresh"));
        let mut edited = text.clone();
        rewrite_value(&mut rng, &mut edited, LIT, 1_000_000);
        let before = checker.stats();
        check_matches_oracle(&mut checker, &edited, &format!("{what}, warm"));
        let decoded = misses(&checker, &before, "xmi_decode");
        assert_eq!(decoded, u64::from(reads), "{what}: patch path taken");
    }

    // A first check that is a syntax error, then its repair and a warm
    // constant edit, which patches the model the repair read.
    let broken = base.replacen(CLOSE, BROKEN, 1);
    let mut checker = Checker::new();
    check_matches_oracle(&mut checker, &broken, "syntax error first");
    check_matches_oracle(&mut checker, &base, "its repair");
    let mut edited = base.clone();
    rewrite_value(&mut rng, &mut edited, LIT, 1_000_000);
    let before = checker.stats();
    check_matches_oracle(&mut checker, &edited, "constant edit after the repair");
    assert_eq!(misses(&checker, &before, "xmi_decode"), 1);
}
