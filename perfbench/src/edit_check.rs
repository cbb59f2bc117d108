//! `edit_check`: the front-end edit loop on the ~60 KB TUTMAC XML. A
//! seeded script of edits is re-checked on one warm `Checker`: mostly
//! behaviour constants (the patch path), plus tagged-value edits,
//! inserted and removed elements, and syntax errors with their repair
//! (the re-outline and cold-fallback paths). Every warm report is
//! compared byte for byte with the cold `check_source` oracle, computed
//! outside the timed region, and every [`COLD_EVERY`]th edit also times a
//! cold check on a fresh `Checker`. Oracles and cold checks run a batch
//! of [`BATCH`] edits ahead, so they leave the caches cold for only one
//! warm check in [`BATCH`].

use std::collections::VecDeque;
use std::time::Instant;

use tut_bench::check::check_source;
use tut_bench::incremental::{CheckOutcome, Checker};
use tut_query::CacheStats;
use tut_trace::perf;
use tutmac::TutmacConfig;

use crate::layers::stage_counts;
use crate::measure::{median, ms, quantile, timed, Fnv, SplitMix};
use crate::{Iteration, Output, SetupCost, Workload};

const NAME: &str = "paper-system.xml";
/// Edits in one pass of the script.
pub const SCRIPT_LEN: usize = 256;
/// A cold check on a fresh `Checker` every this many edits.
pub const COLD_EVERY: usize = 16;
/// Edits prepared (and cold-checked) ahead of their warm checks.
pub const BATCH: usize = 64;
/// Memo generations kept between edits (as `repro watch` keeps).
const KEEP_GENERATIONS: u64 = 16;

const LIT: &str = "<lit type=\"Int\" data=\"";
const TAGGED: &str = "<taggedValue ";
const INT_DATA: &str = "type=\"Int\" data=\"";
const CLOSE: &str = "</compute>";
const BROKEN: &str = "</comput>";
const ANCHOR: &str = "<packagedElement xmi:type=\"uml:StateMachine\"";
const INSERTED: &str =
    "<packagedElement xmi:type=\"uml:Package\" xmi:id=\"pkg1\" name=\"EditPkg\"/>\n    ";
/// Application-side tagged values: any small value keeps every memory
/// budget satisfied.
const TAG_NAMES: [&str; 3] = ["CodeMemory", "DataMemory", "Priority"];

/// One scripted edit. Constants are drawn when the edit is applied, so
/// later passes over the script never repeat an earlier text.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Rewrite the `n`th integer literal of a behaviour.
    Constant(usize),
    /// Rewrite the `n`th integer tagged value.
    Tagged(usize),
    /// Insert a package element before the first state machine.
    Insert,
    /// Remove it again.
    Remove,
    /// Break the `n`th `</compute>` close tag (a syntax error).
    Break(usize),
    /// Repair the broken tag.
    Repair,
}

impl Op {
    fn kind(self) -> usize {
        match self {
            Op::Constant(_) => 0,
            Op::Tagged(_) => 1,
            Op::Insert | Op::Remove => 2,
            Op::Break(_) | Op::Repair => 3,
        }
    }
}

const KINDS: [&str; 4] = ["constant", "tagged", "insert/remove", "break/repair"];

/// Byte offsets just past each occurrence of `needle`.
fn sites(text: &str, needle: &str) -> Vec<usize> {
    text.match_indices(needle)
        .map(|(i, _)| i + needle.len())
        .collect()
}

/// Offsets of the data value of each integer application tagged value.
fn tagged_sites(text: &str) -> Vec<usize> {
    text.match_indices(TAGGED)
        .filter_map(|(i, _)| {
            let tag = &text[i..i + text[i..].find('>')?];
            let named = TAG_NAMES
                .iter()
                .any(|n| tag.contains(&format!("name=\"{n}\"")));
            named.then_some(i + tag.find(INT_DATA)? + INT_DATA.len())
        })
        .collect()
}

/// Replaces the digits starting at `at` (up to the closing quote).
fn replace_value(text: &mut String, at: usize, value: u64) {
    let end = at + text[at..].find('"').expect("quoted attribute value");
    text.replace_range(at..end, &value.to_string());
}

fn shuffle<T>(rng: &mut SplitMix, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Deals site indices `0..n` in seeded order, reshuffling when the deck
/// runs out, so every site is edited about equally often.
struct Deck(Vec<usize>, usize);

impl Deck {
    fn draw(&mut self, rng: &mut SplitMix) -> usize {
        if self.0.is_empty() {
            self.0 = (0..self.1).collect();
            shuffle(rng, &mut self.0);
        }
        self.0.pop().expect("a non-empty deck")
    }
}

/// The seeded edit script. The mix is fixed — 8 tagged-value edits, 8
/// break→repair pairs, 4 insert…remove groups and constants for the
/// rest, 32 of 256 edits off the patch path — and sites are dealt
/// evenly, so every seed weighs the paths alike; the seed picks the
/// order and which site each edit touches.
fn script(rng: &mut SplitMix, lits: usize, tagged: usize, closes: usize) -> Vec<Op> {
    let (mut lit, mut tag, mut close) = (
        Deck(Vec::new(), lits),
        Deck(Vec::new(), tagged),
        Deck(Vec::new(), closes),
    );
    let mut units: Vec<Vec<Op>> = Vec::new();
    for _ in 0..8 {
        units.push(vec![Op::Tagged(tag.draw(rng))]);
        units.push(vec![Op::Break(close.draw(rng)), Op::Repair]);
    }
    for _ in 0..4 {
        let (a, b) = (lit.draw(rng), lit.draw(rng));
        units.push(vec![
            Op::Insert,
            Op::Constant(a),
            Op::Constant(b),
            Op::Remove,
        ]);
    }
    let structural: usize = units.iter().map(Vec::len).sum();
    for _ in structural..SCRIPT_LEN {
        units.push(vec![Op::Constant(lit.draw(rng))]);
    }
    // Shuffle whole units, so pairs stay adjacent.
    shuffle(rng, &mut units);
    units.concat()
}

/// One prepared edit: its text and the cold oracle's rendering of it.
struct Prepared {
    op: Op,
    text: String,
    oracle_text: String,
    oracle_json: String,
    oracle_errors: bool,
    /// Whether a cold check of this text matched the oracle, if one ran.
    cold_ok: Option<bool>,
}

pub struct EditCheck {
    /// Fingerprint of the unedited model XML.
    input_fp: u64,
    /// The document after the last prepared edit.
    text: String,
    script: Vec<Op>,
    values: SplitMix,
    /// Edits prepared but not yet checked. Oracles are computed a batch
    /// at a time, so no cold pipeline runs between two warm checks.
    batch: VecDeque<Prepared>,
    prepared: usize,
    checker: Checker,
    primed: CacheStats,
    /// Edits checked so far.
    applied: usize,
    /// Error reports and report fingerprint over the first pass.
    first_pass_errors: u64,
    first_pass_fp: Fnv,
    first_pass_stats: Option<CacheStats>,
    warm_ns: Vec<u64>,
    warm_by_kind: [Vec<u64>; 4],
    cold_ns: Vec<u64>,
    oracle_ns: Vec<u64>,
}

impl EditCheck {
    pub fn set_up(seed: u64) -> (EditCheck, SetupCost) {
        let started = Instant::now();
        let (system, build_ns) =
            timed(|| tutmac::build_tutmac_system(&TutmacConfig::default()).expect("TUTMAC builds"));
        let (text, xml_ns) = timed(|| system.to_xml());
        let mut rng = SplitMix::new(seed);
        let ops = script(
            &mut rng,
            sites(&text, LIT).len(),
            tagged_sites(&text).len(),
            sites(&text, CLOSE).len(),
        );
        let mut checker = Checker::new();
        let primed_out = checker.check(NAME, &text);
        assert!(!primed_out.has_errors, "the TUTMAC document checks clean");
        let primed = checker.stats();
        let workload = EditCheck {
            input_fp: Fnv::new().str(&text).finish(),
            text,
            script: ops,
            values: rng,
            batch: VecDeque::with_capacity(BATCH),
            prepared: 0,
            checker,
            primed,
            applied: 0,
            first_pass_errors: 0,
            first_pass_fp: Fnv::new(),
            first_pass_stats: None,
            warm_ns: Vec::new(),
            warm_by_kind: Default::default(),
            cold_ns: Vec::new(),
            oracle_ns: Vec::new(),
        };
        let cost = SetupCost {
            total_ns: started.elapsed().as_nanos() as u64,
            build_ns,
            xml_ns,
        };
        (workload, cost)
    }

    fn apply(&mut self, op: Op) {
        let text = &mut self.text;
        match op {
            Op::Constant(n) => {
                let at = sites(text, LIT)[n];
                let value = 1 + self.values.next_u64() % 1_000_000;
                replace_value(text, at, value);
            }
            Op::Tagged(n) => {
                let at = tagged_sites(text)[n];
                let value = 1 + self.values.next_u64() % 1_000;
                replace_value(text, at, value);
            }
            Op::Insert => {
                let at = text.find(ANCHOR).expect("a state machine to insert before");
                text.insert_str(at, INSERTED);
            }
            Op::Remove => *text = text.replacen(INSERTED, "", 1),
            Op::Break(n) => {
                let at = sites(text, CLOSE)[n] - CLOSE.len();
                text.replace_range(at..at + CLOSE.len(), BROKEN);
            }
            Op::Repair => *text = text.replacen(BROKEN, CLOSE, 1),
        }
    }

    /// Applies the next [`BATCH`] edits, renders each text with the cold
    /// `check_source` oracle (timed as `check.cold_oracle_ms`), and times a
    /// cold check on a fresh `Checker` for every [`COLD_EVERY`]th.
    fn prepare_batch(&mut self) {
        for _ in 0..BATCH {
            let op = self.script[self.prepared % self.script.len()];
            self.prepared += 1;
            self.apply(op);
            let (oracle, oracle_ns) = timed(|| check_source(NAME, &self.text));
            self.oracle_ns.push(oracle_ns);
            let mut edit = Prepared {
                op,
                text: self.text.clone(),
                oracle_text: oracle.render_text(),
                oracle_json: oracle.render_json(),
                oracle_errors: oracle.has_errors(),
                cold_ok: None,
            };
            if self.prepared.is_multiple_of(COLD_EVERY) {
                let (cold, cold_ns) = timed(|| Checker::new().check(NAME, &edit.text));
                self.cold_ns.push(cold_ns);
                edit.cold_ok = Some(edit.matches(&cold));
            }
            self.batch.push_back(edit);
        }
    }
}

impl Prepared {
    fn matches(&self, out: &CheckOutcome) -> bool {
        out.text == self.oracle_text
            && out.json == self.oracle_json
            && out.has_errors == self.oracle_errors
    }
}

impl Workload for EditCheck {
    fn iterate(&mut self, traced: bool) -> Iteration {
        if self.batch.is_empty() {
            self.prepare_batch();
        }
        let edit = self.batch.pop_front().expect("a prepared batch");
        if traced {
            perf::reset();
            perf::enable();
        }
        let (warm, warm_ns) = timed(|| self.checker.check(NAME, &edit.text));
        if traced {
            perf::disable();
            perf::reset();
        }
        let mut attempted = 1;
        let mut failed = u64::from(!edit.matches(&warm));
        self.checker.trim(KEEP_GENERATIONS);
        // Latency samples come from untraced checks after the warm-up.
        if self.applied > 0 && !traced {
            self.warm_ns.push(warm_ns);
            self.warm_by_kind[edit.op.kind()].push(warm_ns);
        }
        self.applied += 1;
        if let Some(ok) = edit.cold_ok {
            attempted += 1;
            failed += u64::from(!ok);
        }
        if self.applied <= self.script.len() {
            self.first_pass_errors += u64::from(warm.has_errors);
            self.first_pass_fp = self.first_pass_fp.str(&warm.text).str(&warm.json);
            if self.applied == self.script.len() {
                self.first_pass_stats = Some(self.checker.stats().since(&self.primed));
            }
        }
        Iteration {
            total_ns: warm_ns,
            layers: vec![("query.check_ms", warm_ns)],
            inner: Vec::new(),
            attempted,
            failed,
        }
    }

    fn finish(&self, out: &mut Output) {
        out.set("query.warm_ms", ms(median(&self.warm_ns)));
        out.set("query.warm_p95_ms", ms(quantile(&self.warm_ns, 0.95)));
        out.set("query.cold_ms", ms(median(&self.cold_ns)));
        out.set("check.cold_oracle_ms", ms(median(&self.oracle_ns)));
        let mut mix = [0; 4];
        for op in &self.script {
            mix[op.kind()] += 1;
        }
        let mix: Vec<String> = KINDS
            .iter()
            .zip(mix)
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        out.line(format!(
            "inputs: TutmacConfig::default() (model XML {:016x}), script of {} edits ({}), \
             cold check every {COLD_EVERY} edits",
            self.input_fp,
            self.script.len(),
            mix.join(" "),
        ));
        out.line(format!(
            "check_cold_ms = {:.6} (median of {}); check_warm_ms = {:.6}, check_warm_p95_ms = {:.6} \
             (of {}); oracle {:.6} ms",
            ms(median(&self.cold_ns)),
            self.cold_ns.len(),
            ms(median(&self.warm_ns)),
            ms(quantile(&self.warm_ns, 0.95)),
            self.warm_ns.len(),
            ms(median(&self.oracle_ns)),
        ));
        let by_kind: Vec<String> = KINDS
            .iter()
            .zip(&self.warm_by_kind)
            .map(|(k, v)| format!("{k} {:.6} ms (of {})", ms(median(v)), v.len()))
            .collect();
        out.line(format!("warm median by edit kind: {}", by_kind.join(", ")));
        let Some(stats) = &self.first_pass_stats else {
            out.line("fingerprint: none (the run ended inside the first pass)".into());
            return;
        };
        stage_counts(out, stats);
        let edits = self.script.len() as f64;
        out.set(
            "query.recomputed_per_edit",
            stats.total_recomputes() as f64 / edits,
        );
        out.line(format!(
            "exact: first pass of {} edits: {} recomputed ({:.4} per edit), {} error reports",
            self.script.len(),
            stats.total_recomputes(),
            stats.total_recomputes() as f64 / edits,
            self.first_pass_errors,
        ));
        out.line(format!(
            "fingerprint: first-pass reports={:016x}",
            self.first_pass_fp.finish()
        ));
    }

    fn iteration_alias(&self) -> (&'static str, f64) {
        ("check_warm_ms", 1e-6)
    }

    fn min_iterations(&self) -> usize {
        self.script.len()
    }
}
