//! The warm front end's contract, in the tier-1 suite: one `Checker` fed
//! a short seeded edit script renders every report byte-identically to
//! the cold `check_source` pipeline. The script takes each path the warm
//! checker has: behaviour constants (the patch path), a tagged value (a
//! structural rebuild), an inserted and removed element (a full
//! re-outline), and a syntax error with its repair (an `E0101` report,
//! then a report-cache hit).

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
