//! The warm front end's contract, in the tier-1 suite: one `Checker` fed
//! a short seeded edit script renders every report byte-identically to
//! the cold `check_source` pipeline. The script takes each path the warm
//! checker has: behaviour constants (the patch path), a tagged value (a
//! structural rebuild), an inserted and removed element (a full
//! rebuild), and a syntax error with its repair (an `E0101` report,
//! then a report-cache hit). The same script gates the memo layer: every
//! stage the checker stores must hit at least once. Further tests take
//! the document shapes an outline must survive through a fresh checker
//! and one warm edit, and body edits that fire behaviour findings
//! through the patch path.

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

/// Runs the seeded edit script on one `Checker`, requiring every report
/// to equal the cold pipeline's byte for byte, and returns the checker.
fn run_seeded_edit_script() -> Checker {
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
    checker
}

#[test]
fn seeded_edit_script_stays_byte_identical_to_the_cold_pipeline() {
    run_seeded_edit_script();
}

/// Stages that execute without storing anything: their key is an edited
/// segment's text, which no later edit repeats.
const UNSTORED: [&str; 2] = ["parse_xml", "xmi_decode"];

/// A memo earns its place only by hitting: over the seeded edit script,
/// every stage the checker stores must answer at least one lookup from
/// its cache, so a memo that never hits cannot return unnoticed.
#[test]
fn every_memoized_stage_hits_on_the_seeded_edit_script() {
    let stats = run_seeded_edit_script().stats();
    let memoized: Vec<&str> = stats
        .stages
        .iter()
        .map(|s| s.name.as_str())
        .filter(|name| !UNSTORED.contains(name))
        .collect();
    assert_eq!(
        memoized,
        ["report", "profile_apply", "structure", "wf_behavior"],
        "{}",
        stats.render()
    );
    for stage in &stats.stages {
        let memoized = !UNSTORED.contains(&stage.name.as_str());
        assert_eq!(
            stage.hits > 0,
            memoized,
            "stage {}:\n{}",
            stage.name,
            stats.render()
        );
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

/// Rewrites the first `from` after `anchor` to `to`.
fn edit_after(text: &str, anchor: &str, from: &str, to: &str) -> String {
    let at = text.find(anchor).expect("anchor present");
    let at = at + text[at..].find(from).expect("edit site present");
    format!("{}{to}{}", &text[..at], &text[at + from.len()..])
}

/// Edits inside one state-machine body that make the behaviour check of
/// its class fire take the patch path (one machine decoded, the
/// `structure` query replayed), and the warm report equals the cold
/// pipeline's byte for byte. This pins the premise of the `structure`
/// key: no pass it holds reads a machine body.
#[test]
fn body_edits_that_fire_behavior_findings_take_the_patch_path() {
    let base = tut_bench::paper_system().to_xml();
    let cases = [
        (
            "a transition retargeted so a state is unreachable",
            edit_after(
                &base,
                "name=\"RcaBehavior\"",
                "target=\"state1\"",
                "target=\"state0\"",
            ),
            "E0312",
        ),
        (
            "a trigger on a signal no port provides",
            edit_after(
                &base,
                "name=\"MsduRecBehavior\"",
                "signal=\"sig0\"",
                "signal=\"sig1\"",
            ),
            "E0313",
        ),
    ];
    assert!(!check_source(NAME, &base).render_text().contains("E031"));
    for (what, edited, code) in cases {
        let mut checker = Checker::new();
        check_matches_oracle(&mut checker, &base, "the base document");
        let before = checker.stats();
        check_matches_oracle(&mut checker, &edited, what);
        assert!(
            check_source(NAME, &edited).render_text().contains(code),
            "{what}: {code} fires"
        );
        assert_eq!(misses(&checker, &before, "xmi_decode"), 1, "{what}");
        assert_eq!(misses(&checker, &before, "structure"), 0, "{what}");
        assert_eq!(misses(&checker, &before, "wf_behavior"), 1, "{what}");
    }
}
