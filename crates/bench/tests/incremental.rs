//! The correctness contract of the incremental front end: for *any*
//! edit, a warm [`Checker`] re-check renders byte-identically to the
//! cold pipeline, and a behaviour-body edit invalidates exactly the
//! queries that depend on the edited bytes.

use tut_bench::benchcheck::edit_behavior;
use tut_bench::check::check_source;
use tut_bench::incremental::Checker;
use tut_query::CacheStats;

const NAME: &str = "paper-system.xml";

fn paper_xml() -> String {
    tut_bench::paper_system().to_xml()
}

/// Checks `text` through `checker` and asserts the outcome is
/// byte-identical to the cold pipeline's.
fn check_against_oracle(checker: &mut Checker, text: &str, what: &str) {
    let oracle = check_source(NAME, text);
    let out = checker.check(NAME, text);
    assert_eq!(out.text, oracle.render_text(), "text diverged: {what}");
    assert_eq!(out.json, oracle.render_json(), "json diverged: {what}");
    assert_eq!(
        out.has_errors,
        oracle.has_errors(),
        "severity diverged: {what}"
    );
}

/// Total misses of the stage called `name` in a stats delta.
fn misses_of(stats: &CacheStats, name: &str) -> u64 {
    stats
        .stages
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.misses)
        .sum()
}

/// Total recomputes of the stage called `name` in a stats delta.
fn recomputes_of(stats: &CacheStats, name: &str) -> u64 {
    stats
        .stages
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.recomputes)
        .sum()
}

/// A tiny deterministic LCG (same constants as `tut_sim`'s noise
/// source) so the random-edit sweep reproduces bit-for-bit.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Property: one checker fed a stream of random single-byte mutations
/// (overwrites, deletions, insertions — structural bytes included, so
/// both the patch path and every fallback fire) always renders exactly
/// what the cold pipeline renders for the same bytes.
#[test]
fn random_edits_stay_byte_identical_to_the_cold_pipeline() {
    let base = paper_xml();
    let mut checker = Checker::new();
    check_against_oracle(&mut checker, &base, "base document");
    let mut rng = Lcg(0x5eed_cafe);
    let replacements = b"0123456789abcdef<>\"/ \n";
    for round in 0..40 {
        let mut text = base.clone().into_bytes();
        let at = rng.below(text.len() - 2) + 1;
        match rng.below(3) {
            0 => text[at] = replacements[rng.below(replacements.len())],
            1 => {
                text.remove(at);
            }
            _ => text.insert(at, replacements[rng.below(replacements.len())]),
        }
        let Ok(text) = String::from_utf8(text) else {
            continue; // mutated a multi-byte character: not a text edit
        };
        check_against_oracle(&mut checker, &text, &format!("random edit {round}"));
        // Interleave returns to the base document, as an editor's undo
        // would; these must come straight from the report cache.
        if round % 5 == 4 {
            check_against_oracle(&mut checker, &base, &format!("undo after edit {round}"));
        }
    }
}

/// Edits that insert or delete whole lines move every later line, so
/// the line index the checker carries across edits must follow them.
/// One checker takes the edits in sequence; each warm report, shifted
/// line numbers included, matches the cold pipeline byte for byte. The
/// fixture's first warning sits on line 86, ahead of every state
/// machine: edits in the first signal segment move all three warnings,
/// and edits inside the first state-machine body take the patch path.
#[test]
fn line_shifting_edits_stay_byte_identical_to_the_cold_pipeline() {
    let base = paper_xml();
    let mut checker = Checker::new();
    check_against_oracle(&mut checker, &base, "base document");
    assert!(
        check_source(NAME, &base).render_text().contains(":86:5"),
        "the fixture's first warning is on line 86"
    );
    let line_start = |text: &str, needle: &str| {
        let at = text.find(needle).expect("fixture line present");
        text[..at].rfind('\n').map_or(0, |nl| nl + 1)
    };
    let line_end = |text: &str, from: usize| from + text[from..].find('\n').unwrap() + 1;
    let param = "<ownedParameter name=\"payload\" type=\"Bytes\"/>";
    let sm_state = "<state xmi:id=\"state0\" name=\"Run\"/>";
    let compute = "<compute class=\"control\">";

    let mut text = base.clone();
    let mut edit = |text: &mut String, what: &str, f: &dyn Fn(&str) -> String| {
        *text = f(text);
        check_against_oracle(&mut checker, text, what);
    };
    // A blank line, then a CRLF blank line, ahead of line 86.
    edit(&mut text, "insert a blank line", &|t| {
        let at = line_start(t, param);
        format!("{}\n{}", &t[..at], &t[at..])
    });
    assert!(
        check_source(NAME, &text).render_text().contains(":87:5"),
        "the warnings moved down a line"
    );
    edit(&mut text, "insert a CRLF line", &|t| {
        let at = line_start(t, param);
        format!("{}  \r\n{}", &t[..at], &t[at..])
    });
    // Duplicate a whole markup line, then delete both copies.
    edit(&mut text, "duplicate a parameter line", &|t| {
        let at = line_start(t, param);
        let end = line_end(t, at);
        format!("{}{}", &t[..end], &t[at..])
    });
    edit(&mut text, "delete both parameter lines", &|t| {
        let at = line_start(t, param);
        format!("{}{}", &t[..at], &t[line_end(t, line_end(t, at))..])
    });
    // Join the blank lines back into the line after them.
    edit(&mut text, "join the blank lines", &|t| {
        let at = line_start(t, param);
        let blank = t[..at - 1].rfind('\n').unwrap() + 1;
        let blank = t[..blank - 1].rfind('\n').unwrap() + 1;
        format!("{}{}", &t[..blank], &t[at..])
    });
    // Inside a state-machine body: a blank line, then a whole
    // three-line statement deleted.
    edit(&mut text, "insert a line in a state machine", &|t| {
        let at = line_end(t, line_start(t, sm_state));
        format!("{}\n{}", &t[..at], &t[at..])
    });
    edit(&mut text, "delete a statement's lines", &|t| {
        let at = line_start(t, compute);
        let end = line_end(t, line_end(t, line_end(t, at)));
        format!("{}{}", &t[..at], &t[end..])
    });
    // Split a line inside the statement after it.
    edit(&mut text, "split a line in a state machine", &|t| {
        let at = t.find("<compute class=\"mem\">").unwrap() + "<compute".len();
        format!("{}\n {}", &t[..at], &t[at..])
    });
}

/// A long edit session trimmed after every edit, as `repro watch` does,
/// keeps the memo table bounded by a few runs' worth of entries, and
/// eviction never changes a report: every warm result still matches the
/// cold pipeline byte for byte.
#[test]
fn trimmed_session_stays_bounded_and_byte_identical() {
    let base = paper_xml();
    let mut checker = Checker::new();
    check_against_oracle(&mut checker, &base, "base document");
    let one_run = checker.memo_len();
    let mut peak = 0;
    for n in 0..200 {
        let edited = edit_behavior(&base, n).expect("fixture has a compute site");
        check_against_oracle(&mut checker, &edited, &format!("edit {n}"));
        checker.trim(2);
        peak = peak.max(checker.memo_len());
    }
    assert!(
        peak <= 3 * one_run,
        "memo table grew to {peak} entries (one cold run holds {one_run})"
    );
}

/// A behaviour-body edit recomputes exactly the queries downstream of
/// the edited segment: the report, the outline, one segment parse, one
/// state-machine decode, one per-class behaviour check — and nothing
/// else.
#[test]
fn behavior_edit_invalidates_exactly_the_downstream_queries() {
    let base = paper_xml();
    let mut checker = Checker::new();
    checker.check(NAME, &base);
    let edited = edit_behavior(&base, 1).expect("fixture has a compute site");
    let before = checker.stats();
    check_against_oracle(&mut checker, &edited, "behaviour edit");
    let warm = checker.stats().since(&before);
    for stage in [
        "report",
        "outline",
        "parse_xml",
        "xmi_decode",
        "wf_behavior",
    ] {
        assert_eq!(
            misses_of(&warm, stage),
            1,
            "stage {stage}:\n{}",
            warm.render()
        );
    }
    assert_eq!(
        warm.total_misses(),
        5,
        "no other stage recomputes:\n{}",
        warm.render()
    );
    assert!(warm.total_hits() > 0, "downstream stages replay from cache");
}

/// A structural edit (renaming a class) keeps the report byte-identical
/// through the rebuild path, and a syntax-breaking edit reproduces the
/// cold parser's `E0101` exactly.
#[test]
fn structural_and_broken_edits_match_the_cold_pipeline() {
    let base = paper_xml();
    let mut checker = Checker::new();
    checker.check(NAME, &base);
    let renamed = base.replacen("name=\"user\"", "name=\"customer\"", 1);
    assert_ne!(renamed, base, "fixture names a `user` class");
    check_against_oracle(&mut checker, &renamed, "class rename");
    let broken = base.replacen("</packagedElement>", "</packagedElemen>", 1);
    let out = checker.check(NAME, &broken);
    assert!(out.has_errors);
    assert!(
        out.text.contains("E0101"),
        "syntax error surfaces:\n{}",
        out.text
    );
    check_against_oracle(&mut checker, &broken, "broken close tag (cached)");
}

/// Reverting an edit (A → B → A) answers the third check from the
/// report cache alone: one hit, zero misses across every stage.
#[test]
fn reverted_edit_is_a_pure_report_hit() {
    let base = paper_xml();
    let edited = edit_behavior(&base, 9).expect("fixture has a compute site");
    let mut checker = Checker::new();
    checker.check(NAME, &base);
    checker.check(NAME, &edited);
    let before = checker.stats();
    check_against_oracle(&mut checker, &base, "revert to base");
    let delta = checker.stats().since(&before);
    assert_eq!(
        delta.total_misses(),
        0,
        "revert recomputes nothing:\n{}",
        delta.render()
    );
    assert_eq!(
        delta.total_hits(),
        1,
        "exactly the report lookup:\n{}",
        delta.render()
    );
}

/// Two documents with the same content share every content-keyed query:
/// checking the second name misses only the (name-keyed) report stage.
#[test]
fn identical_documents_share_the_content_keyed_caches() {
    let base = paper_xml();
    let mut checker = Checker::new();
    checker.check("first.xml", &base);
    let before = checker.stats();
    let out = checker.check("second.xml", &base);
    let oracle = check_source("second.xml", &base);
    assert_eq!(out.text, oracle.render_text());
    let delta = checker.stats().since(&before);
    assert_eq!(misses_of(&delta, "report"), 1);
    assert_eq!(
        delta.total_misses(),
        1,
        "only the report key is per-name:\n{}",
        delta.render()
    );
}

/// A syntax error and its repair leave the warm state intact: the
/// constant edit after the repair still takes the patch path. It
/// re-decodes one state machine and re-checks that class's behaviour,
/// and every whole-model query (the other well-formedness passes, the
/// profile rules) replays from cache.
#[test]
fn constant_edit_after_break_and_repair_still_patches() {
    let base = paper_xml();
    let mut checker = Checker::new();
    checker.check(NAME, &base);
    let edited = edit_behavior(&base, 1).expect("fixture has a compute site");
    check_against_oracle(&mut checker, &edited, "constant edit");
    let broken = edited.replacen("</compute>", "</comput>", 1);
    assert_ne!(broken, edited, "fixture has a compute close tag");
    check_against_oracle(&mut checker, &broken, "broken close tag");
    let before = checker.stats();
    check_against_oracle(&mut checker, &edited, "repair");
    let repair = checker.stats().since(&before);
    assert_eq!(repair.total_misses(), 0, "{}", repair.render());

    let before = checker.stats();
    let again = edit_behavior(&base, 2).expect("fixture has a compute site");
    check_against_oracle(&mut checker, &again, "constant edit after the repair");
    let warm = checker.stats().since(&before);
    assert_eq!(
        recomputes_of(&warm, "xmi_decode"),
        1,
        "one machine re-decoded:\n{}",
        warm.render()
    );
    assert_eq!(recomputes_of(&warm, "wf_behavior"), 1, "{}", warm.render());
    for stage in [
        "wf_unique_names",
        "wf_parts_ports",
        "wf_connectors",
        "wf_composition",
        "wf_generalisation",
        "profile_rules",
    ] {
        assert_eq!(
            recomputes_of(&warm, stage),
            0,
            "stage {stage}:\n{}",
            warm.render()
        );
    }
}
