//! The incremental, query-based front end behind `repro check`,
//! `repro watch` and `repro bench-check`.
//!
//! [`Checker`] runs the same pipeline as [`crate::check::check_source`]
//! — XML parse, XMI decode, profile application, well-formedness, the
//! TUT-Profile rule catalogue, codegen and simulation-setup dry runs —
//! but demand-driven over a [`tut_query::QueryDb`]: every stage is a
//! memoized query keyed by content fingerprints, so re-checking an
//! edited document recomputes only what the edit can actually reach.
//!
//! A check takes one of two paths:
//!
//! * **Rebuild.** The whole document is parsed once with
//!   [`XmlNode::parse`] and read with [`xmi::read_model`], exactly as the
//!   cold pipeline's first two stages do, and the [`tut_uml::outline`]
//!   of `packagedElement` segments is read off that tree. From the
//!   outline the checker derives a `struct_fp` — a fingerprint of
//!   everything *except* state-machine bodies — and keys the expensive
//!   semantic queries on it.
//! * **Patch.** An edit confined to one state-machine body moves the
//!   previous outline instead of reparsing (`fast_outline`). Only the
//!   changed machines are parsed, decoded and spliced into the retained
//!   model, so the fifteen profile rules, the other well-formedness
//!   passes and both dry runs are cache hits.
//!
//! Anything the patch path cannot prove equivalent (a segment that does
//! not parse, a decode error, a structural change) takes the rebuild,
//! which reports what the cold pipeline reports by construction.
//!
//! Correctness contract: the warm report is **byte-identical** to what a
//! cold [`check_source`](crate::check::check_source) produces for the
//! same text — the sub-results are assembled in exactly the order the
//! cold pipeline pushes them (decode recoveries, profile interchange,
//! sorted+span-attached findings, codegen, sim setup, final sort).
//! `crates/bench/tests/incremental.rs` pins the contract with randomised
//! single-element edits.

use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;

use tut_diag::{render_bag_json, render_bag_text, Diagnostic, DiagnosticBag, SourceMap, Span};
use tut_profile::rules::tut_profile_rules;
use tut_profile::{SystemModel, TutProfile};
use tut_profile_core::interchange::{applications_from_xml_node, E_PROFILE_INTERCHANGE};
use tut_profile_core::{Applications, ConstraintSet};
use tut_query::{CacheStats, Fp, FpBuilder, QueryDb, StageId};
use tut_uml::error::{Error, E_XML_SYNTAX};
use tut_uml::ids::StateMachineId;
use tut_uml::outline::{Outline, Segment};
use tut_uml::validate;
use tut_uml::xmi::{self, E_XMI_STRUCTURE};
use tut_uml::xml::XmlNode;

/// The rendered result of checking one document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckOutcome {
    /// True when at least one error-severity finding fired.
    pub has_errors: bool,
    /// Rustc-style text rendering (identical to cold `check_source`).
    pub text: String,
    /// Machine-readable single-line JSON rendering.
    pub json: String,
}

/// The type of segments the incremental decode path can patch.
const SM_TYPE: &str = "uml:StateMachine";

fn is_sm(seg: &Segment) -> bool {
    &*seg.ty == SM_TYPE
}

/// One stage id per pipeline query (profiler frames are named
/// `query.<stage>` after these).
#[derive(Clone, Copy)]
struct Stages {
    report: StageId,
    parse_xml: StageId,
    xmi_decode: StageId,
    profile_apply: StageId,
    wf_unique_names: StageId,
    wf_parts_ports: StageId,
    wf_connectors: StageId,
    wf_composition: StageId,
    wf_behavior: StageId,
    wf_generalisation: StageId,
    profile_rules: StageId,
    codegen_dry_run: StageId,
    sim_setup: StageId,
}

/// Outline of one document plus the fingerprints the queries key on.
struct OutlineData {
    outline: Outline,
    /// Content fingerprint of each state-machine segment, in document
    /// order; [`Fp::ABSENT`] for every other segment, which `struct_fp`
    /// covers.
    seg_fps: Vec<Fp>,
    /// Fingerprint of everything except state-machine bodies: the text
    /// outside the state-machine segments, with each machine's id and
    /// name in its place.
    struct_fp: Fp,
}

impl OutlineData {
    fn new(text: &str, outline: Outline) -> OutlineData {
        let mut seg_fps = Vec::with_capacity(outline.segments.len());
        let mut b = FpBuilder::new();
        let mut pos = 0;
        for seg in &outline.segments {
            if is_sm(seg) {
                let r = seg.range;
                b = b.str(&text[pos..r.start]).str(&seg.id).str(&seg.name);
                pos = r.end;
                seg_fps.push(Fp::of_str(&text[r.start..r.end]));
            } else {
                seg_fps.push(Fp::ABSENT);
            }
        }
        OutlineData {
            outline,
            seg_fps,
            struct_fp: b.str(&text[pos..]).finish(),
        }
    }
}

/// The bytes one edit changed: `old[start..old_end]` became
/// `new[start..new_end]`, and the texts agree before `start` and from the
/// two ends on. Both ends sit on `char` boundaries, so the window can be
/// spliced into a `String`.
#[derive(Clone, Copy)]
struct EditWindow {
    start: usize,
    old_end: usize,
    new_end: usize,
}

impl EditWindow {
    /// The window between two texts, from their common prefix and suffix;
    /// `None` when the texts are identical.
    fn between(old: &str, new: &str) -> Option<EditWindow> {
        let a = old.as_bytes();
        let b = new.as_bytes();
        let min = a.len().min(b.len());
        // Word-at-a-time common prefix, then suffix (clamped so they
        // never overlap); slice equality compiles down to memcmp.
        let mut p = 0;
        while p + 8 <= min && a[p..p + 8] == b[p..p + 8] {
            p += 8;
        }
        while p < min && a[p] == b[p] {
            p += 1;
        }
        if a.len() == b.len() && p == min {
            return None;
        }
        while !(old.is_char_boundary(p) && new.is_char_boundary(p)) {
            p -= 1;
        }
        let max_s = min - p;
        let mut s = 0;
        while s + 8 <= max_s && a[a.len() - s - 8..a.len() - s] == b[b.len() - s - 8..b.len() - s] {
            s += 8;
        }
        while s < max_s && a[a.len() - 1 - s] == b[b.len() - 1 - s] {
            s += 1;
        }
        while !(old.is_char_boundary(a.len() - s) && new.is_char_boundary(b.len() - s)) {
            s -= 1;
        }
        Some(EditWindow {
            start: p,
            old_end: a.len() - s,
            new_end: b.len() - s,
        })
    }
}

/// Derives the outline of `new_text` from the previous text's outline
/// when the edit `w` is confined to the body of one state-machine
/// segment: later ranges shift by the length delta, only that segment is
/// rehashed, and `struct_fp` carries over unchanged. The per-keystroke
/// cost is then the window search instead of a parse.
///
/// `None` means the edit is not such an edit, and the caller rebuilds.
/// The window (on both the old and new side) must be free of every byte
/// that could alter tag structure — `<` `>` (tags), `"` `'` (attribute
/// quoting), `/` (self-closing flip), `-` and `!` (comment delimiters) —
/// and must stay clear of the segment's start tag, whose `xmi:id` and
/// `name` the outline records. The patch path parses each changed
/// segment, so a window that slips past these checks still cannot
/// change a report: a segment that no longer parses on its own sends the
/// check to the rebuild.
fn fast_outline(
    old_text: &str,
    mut od: OutlineData,
    new_text: &str,
    w: EditWindow,
) -> Option<OutlineData> {
    let a = old_text.as_bytes();
    let b = new_text.as_bytes();
    let inert = |w: &[u8]| {
        w.iter()
            .all(|&c| !matches!(c, b'<' | b'>' | b'"' | b'\'' | b'/' | b'-' | b'!'))
    };
    if !inert(&a[w.start..w.old_end]) || !inert(&b[w.start..w.new_end]) {
        return None;
    }
    let i = od
        .outline
        .segments
        .iter()
        .position(|seg| seg.range.start < w.start && w.old_end < seg.range.end)?;
    let seg = &od.outline.segments[i];
    if !is_sm(seg) || w.start <= start_tag_end(a, seg.range.start)? {
        return None;
    }
    let delta = b.len() as isize - a.len() as isize;
    let shift = |at: usize| (at as isize + delta) as usize;
    let r = od.outline.segments[i].range;
    od.outline.segments[i].range = Span::new(r.start, shift(r.end));
    for seg in &mut od.outline.segments[i + 1..] {
        seg.range = Span::new(shift(seg.range.start), shift(seg.range.end));
    }
    if let Some(pa) = &mut od.outline.profile_app {
        if pa.start >= w.old_end {
            *pa = Span::new(shift(pa.start), shift(pa.end));
        }
    }
    od.seg_fps[i] = Fp::of_str(od.outline.segment_text(new_text, i));
    Some(od)
}

/// Position of the `>` closing the start tag that begins at `from`
/// (quote-aware, like the real tokenizer).
fn start_tag_end(bytes: &[u8], from: usize) -> Option<usize> {
    let mut quote = 0u8;
    for (i, &c) in bytes.iter().enumerate().skip(from) {
        if quote != 0 {
            if c == quote {
                quote = 0;
            }
        } else if c == b'"' || c == b'\'' {
            quote = c;
        } else if c == b'>' {
            return Some(i);
        }
    }
    None
}

/// A state machine decoded from one segment: the machine plus the
/// statement-recovery diagnostics, spans relative to the segment.
type DecodeOut = Result<(tut_uml::statemachine::StateMachine, Vec<Diagnostic>), ()>;

/// The applications decoded from a `profileApplication` subtree, and the
/// interchange diagnostic (spans relative to the element) when decoding
/// failed.
type ProfileOut = (Applications, Vec<Diagnostic>);

/// The last fully-analysed state of one document, kept so the next edit
/// can be applied as a patch instead of a rebuild.
struct PrevAnalysis {
    struct_fp: Fp,
    seg_fps: Vec<Fp>,
    system: SystemModel,
    /// Per-segment decode-recovery diagnostics (relative spans);
    /// `Some` exactly for state-machine segments.
    decode_frags: Vec<Option<Rc<Vec<Diagnostic>>>>,
    /// The profile-application query's result; `None` when the document
    /// has no `profileApplication`.
    profile: Option<Rc<ProfileOut>>,
    /// False when some decode diagnostic could not be attributed to a
    /// segment — the next edit rebuilds instead of patching.
    patchable: bool,
}

#[derive(Default)]
struct DocState {
    /// Replaced only by a rebuild that read a model. A report that takes
    /// any other path (a syntax or structure error) leaves it: it still
    /// describes its own `struct_fp` and `seg_fps`, which the next patch
    /// compares against.
    prev: Option<PrevAnalysis>,
    /// The last checked text, held by its line index, and its outline
    /// (`None` when it has none: the text did not parse, or a report hit
    /// could not derive it). The next edit's window (common prefix and
    /// suffix) updates both instead of reparsing the whole document.
    last: Option<(SourceMap, Option<OutlineData>)>,
}

impl DocState {
    /// Takes the carried text and moves it to `text`: locates the edit
    /// against it once (common prefix and suffix), splices the window
    /// into the line index, and tries to derive the new outline from the
    /// old one instead of reparsing the document.
    fn advance(&mut self, name: &str, text: &str) -> (SourceMap, Option<OutlineData>) {
        let Some((mut source, old_od)) = self.last.take() else {
            return (SourceMap::new(name, text), None);
        };
        let window = EditWindow::between(source.text(), text);
        let od = match window {
            Some(w) => old_od.and_then(|od| fast_outline(source.text(), od, text, w)),
            None => old_od,
        };
        if let Some(w) = window {
            source.replace_range(w.start..w.old_end, &text[w.start..w.new_end]);
        }
        debug_assert_eq!(source.text(), text);
        (source, od)
    }
}

/// The demand-driven checker. One instance amortises work across many
/// checks of (edits of) the same documents; an optional disk layer
/// extends the top-level report cache across processes.
pub struct Checker {
    db: QueryDb,
    st: Stages,
    tut: TutProfile,
    rules: ConstraintSet,
    docs: HashMap<String, DocState>,
}

impl Default for Checker {
    fn default() -> Checker {
        Checker::new()
    }
}

impl Checker {
    /// Creates a checker with an empty cache.
    pub fn new() -> Checker {
        let mut db = QueryDb::new();
        let st = Stages {
            report: db.stage("report"),
            parse_xml: db.stage("parse_xml"),
            xmi_decode: db.stage("xmi_decode"),
            profile_apply: db.stage("profile_apply"),
            wf_unique_names: db.stage("wf_unique_names"),
            wf_parts_ports: db.stage("wf_parts_ports"),
            wf_connectors: db.stage("wf_connectors"),
            wf_composition: db.stage("wf_composition"),
            wf_behavior: db.stage("wf_behavior"),
            wf_generalisation: db.stage("wf_generalisation"),
            profile_rules: db.stage("profile_rules"),
            codegen_dry_run: db.stage("codegen_dry_run"),
            sim_setup: db.stage("sim_setup"),
        };
        let tut = TutProfile::new();
        let rules = tut_profile_rules(&tut);
        Checker {
            db,
            st,
            tut,
            rules,
            docs: HashMap::new(),
        }
    }

    /// Attaches the on-disk report cache (a `tut-store` journal at
    /// `path`), replaying any compatible records already present.
    ///
    /// # Errors
    ///
    /// Returns a message when the journal cannot be created; the checker
    /// stays usable (memory-only) in that case.
    pub fn open_disk(&mut self, path: &Path) -> Result<usize, String> {
        self.db.open_disk(path)
    }

    /// True while the disk layer (if any) is accepting writes.
    pub fn disk_ok(&self) -> bool {
        self.db.disk_ok()
    }

    /// Checks one document. `name` labels the source in the report.
    pub fn check(&mut self, name: &str, text: &str) -> CheckOutcome {
        self.db.begin_run();
        let key = FpBuilder::new().str(name).fp(Fp::of_str(text)).finish();
        let db = &mut self.db;
        let st = self.st;
        let tut = &self.tut;
        let rules = &self.rules;
        let doc = self.docs.entry(name.to_owned()).or_default();
        // The carried text moves on a report hit too, so the next miss
        // diffs against this text rather than an older one.
        let mut moved = Some(doc.advance(name, text));
        let payload = db.memo_bytes(st.report, key, |db| {
            let (source, od) = moved.take().expect("the report computes once");
            encode_outcome(&analyze(db, st, tut, rules, doc, source, od))
        });
        match (decode_outcome(&payload), moved) {
            (Some(outcome), moved) => {
                if let Some(last) = moved {
                    doc.last = Some(last);
                }
                outcome
            }
            // Only a disk record can fail to decode, and a disk hit leaves
            // the carried text unused: analyse the text afresh.
            (None, Some((source, od))) => analyze(db, st, tut, rules, doc, source, od),
            (None, None) => unreachable!("a payload computed in this process decodes"),
        }
    }

    /// Cumulative hit/miss/recompute counters per stage.
    pub fn stats(&self) -> CacheStats {
        self.db.stats()
    }

    /// Drops cached values not touched in the last `keep_last` runs
    /// (the `repro watch` loop calls this so long sessions stay flat).
    pub fn trim(&mut self, keep_last: u64) {
        self.db.evict_older_than(keep_last);
    }

    /// Number of live memoized values (observability for tests).
    pub fn memo_len(&self) -> usize {
        self.db.memo_len()
    }
}

fn render_outcome(src: &SourceMap, bag: DiagnosticBag) -> CheckOutcome {
    CheckOutcome {
        has_errors: bag.has_errors(),
        text: render_bag_text(&bag, Some(src)),
        json: render_bag_json(&bag, Some(src)),
    }
}

fn encode_outcome(o: &CheckOutcome) -> Vec<u8> {
    let mut v = Vec::with_capacity(1 + 16 + o.text.len() + o.json.len());
    v.push(u8::from(o.has_errors));
    for s in [&o.text, &o.json] {
        v.extend_from_slice(&(s.len() as u64).to_le_bytes());
        v.extend_from_slice(s.as_bytes());
    }
    v
}

fn decode_outcome(b: &[u8]) -> Option<CheckOutcome> {
    let has_errors = *b.first()? != 0;
    let mut pos = 1;
    let mut field = || -> Option<String> {
        let len = u64::from_le_bytes(b.get(pos..pos + 8)?.try_into().ok()?) as usize;
        pos += 8;
        let s = std::str::from_utf8(b.get(pos..pos.checked_add(len)?)?).ok()?;
        pos += len;
        Some(s.to_owned())
    };
    let text = field()?;
    let json = field()?;
    Some(CheckOutcome {
        has_errors,
        text,
        json,
    })
}

/// Collects the diagnostics a validation pass emits, as a fragment.
fn frag_of(f: impl FnOnce(&mut DiagnosticBag)) -> Vec<Diagnostic> {
    let mut bag = DiagnosticBag::new();
    f(&mut bag);
    bag.into_vec()
}

/// Shifts a diagnostic's spans from document coordinates down to
/// segment-relative ones (the exact inverse of
/// [`Diagnostic::rebased`]); `None` when any span starts before `base`.
fn make_relative(d: &Diagnostic, base: usize) -> Option<Diagnostic> {
    let mut out = d.clone();
    if let Some(span) = out.span {
        if span != Span::NONE {
            if span.start < base {
                return None;
            }
            out.span = Some(Span::new(span.start - base, span.end - base));
        }
    }
    for label in &mut out.labels {
        if label.span != Span::NONE {
            if label.span.start < base {
                return None;
            }
            label.span = Span::new(label.span.start - base, label.span.end - base);
        }
    }
    Some(out)
}

/// The analysis behind a report-level cache miss: the patch path when
/// `od` was derived from the previous outline and the structure matches
/// the retained analysis, the rebuild otherwise. Returns a rendered
/// outcome byte-identical to the cold pipeline's, and carries the text
/// and its outline forward for the next edit.
fn analyze(
    db: &mut QueryDb,
    st: Stages,
    tut: &TutProfile,
    rules: &ConstraintSet,
    doc: &mut DocState,
    source: SourceMap,
    od: Option<OutlineData>,
) -> CheckOutcome {
    let DocState { prev, last } = doc;
    if let (Some(fast), Some(prev)) = (&od, prev.as_mut()) {
        if prev.patchable
            && prev.struct_fp == fast.struct_fp
            && prev.seg_fps.len() == fast.seg_fps.len()
        {
            if let Some(outcome) = patch(db, st, rules, prev, fast, &source) {
                *last = Some((source, od));
                return outcome;
            }
        }
    }
    let (outcome, od) = rebuild(db, st, tut, rules, prev, &source, od);
    *last = Some((source, od));
    outcome
}

/// Applies an edit confined to state-machine bodies onto the previous
/// analysis: parses and decodes each changed machine and splices it into
/// the retained model. `None` when a changed segment does not parse or
/// decode — the caller rebuilds, which reports the error exactly as the
/// cold pipeline does.
fn patch(
    db: &mut QueryDb,
    st: Stages,
    rules: &ConstraintSet,
    prev: &mut PrevAnalysis,
    od: &OutlineData,
    src: &SourceMap,
) -> Option<CheckOutcome> {
    // `struct_fp` matches, so only state-machine bodies can differ.
    let segments = &od.outline.segments;
    let mut decoded: Vec<(usize, Rc<DecodeOut>)> = Vec::new();
    for i in (0..segments.len()).filter(|&i| od.seg_fps[i] != prev.seg_fps[i]) {
        let seg_text = od.outline.segment_text(src.text(), i);
        let parsed = db.memo(st.parse_xml, od.seg_fps[i], |_| {
            XmlNode::parse(seg_text).ok()
        });
        let node = (*parsed).as_ref()?;
        // Decode against the retained model (signal and port resolution
        // only touch structure, which is unchanged).
        let key = FpBuilder::new().fp(od.seg_fps[i]).fp(od.struct_fp).finish();
        let model = &prev.system.model;
        let out = db.memo(st.xmi_decode, key, |_| {
            let mut frag = DiagnosticBag::new();
            match xmi::decode_state_machine(node, model, &mut frag) {
                Ok(sm) => Ok((sm, frag.into_vec())),
                Err(_) => Err(()),
            }
        });
        if out.is_err() {
            return None;
        }
        decoded.push((i, out));
    }

    // Splice: the n-th state-machine segment holds the machine with
    // arena index n (the reader allocates them in document order).
    for (i, out) in &decoded {
        let Ok((sm, frag)) = &**out else { return None };
        let ordinal = segments[..*i].iter().filter(|s| is_sm(s)).count();
        *prev
            .system
            .model
            .state_machine_mut(StateMachineId::from_index(ordinal)) = sm.clone();
        prev.decode_frags[*i] = Some(Rc::new(frag.clone()));
    }
    prev.seg_fps.clone_from(&od.seg_fps);

    // Replay decode recoveries (relative fragments rebased to the new
    // segment offsets), in document order — the order the cold reader
    // pushes them — then the profile interchange diagnostic.
    let mut bag = DiagnosticBag::new();
    for (seg, frag) in segments.iter().zip(&prev.decode_frags) {
        if let Some(frag) = frag {
            bag.merge_fragment(frag, seg.range.start);
        }
    }
    if let (Some(out), Some(pa)) = (&prev.profile, od.outline.profile_app) {
        bag.merge_fragment(&out.1, pa.start);
    }

    // Segment offsets moved with the edit, so spans are looked up on
    // demand: the last segment declaring the id (the reader's index keeps
    // the last too).
    let span_of = |element: &str| {
        segments
            .iter()
            .rfind(|s| &*s.id == element)
            .map(Segment::tag_span)
    };
    Some(assemble(
        db,
        st,
        rules,
        &prev.system,
        &span_of,
        od,
        bag,
        src,
    ))
}

/// Parses and reads the whole document, exactly as the cold pipeline's
/// first stages do, and runs the semantic stages over the result — the
/// path for first sights, structural edits and every error. Returns the
/// outcome and the outline to carry: the tree's when the text parsed,
/// else the one `fast` derived from the previous text, if any.
fn rebuild(
    db: &mut QueryDb,
    st: Stages,
    tut: &TutProfile,
    rules: &ConstraintSet,
    prev: &mut Option<PrevAnalysis>,
    src: &SourceMap,
    fast: Option<OutlineData>,
) -> (CheckOutcome, Option<OutlineData>) {
    let text = src.text();
    let root = match XmlNode::parse(text) {
        Ok(root) => root,
        Err(e) => {
            let d = match e {
                Error::XmlSyntax {
                    offset, message, ..
                } => Diagnostic::error(E_XML_SYNTAX, message).with_span(Span::point(offset)),
                e => Diagnostic::error(E_XML_SYNTAX, e.to_string()),
            };
            let mut bag = DiagnosticBag::new();
            bag.push(d);
            bag.sort();
            return (render_outcome(src, bag), fast);
        }
    };
    let od = OutlineData::new(text, Outline::of_tree(&root));

    let mut decode_bag = DiagnosticBag::new();
    let (model, index) = match xmi::read_model(&root, &mut decode_bag) {
        Ok(v) => v,
        Err(e) => {
            decode_bag.push(Diagnostic::error(E_XMI_STRUCTURE, e.to_string()));
            decode_bag.sort();
            return (render_outcome(src, decode_bag), Some(od));
        }
    };

    // Attribute each decode recovery to its segment (relative spans) so
    // the next edit can replay them without re-reading the document.
    let segments = &od.outline.segments;
    let mut frags: Vec<Option<Vec<Diagnostic>>> =
        segments.iter().map(|s| is_sm(s).then(Vec::new)).collect();
    let mut patchable = true;
    for d in decode_bag.iter() {
        let seg = d.span.filter(|&s| s != Span::NONE).and_then(|span| {
            segments
                .iter()
                .position(|s| is_sm(s) && s.range.start <= span.start && span.end <= s.range.end)
        });
        match seg {
            Some(i) => match make_relative(d, segments[i].range.start) {
                Some(rel) => frags[i].get_or_insert_with(Vec::new).push(rel),
                None => patchable = false,
            },
            None => patchable = false,
        }
    }

    // The profile-application query, keyed on the element's text, with
    // its interchange diagnostic cached relative to the element.
    let mut bag = decode_bag;
    let profile = root.child("profileApplication").map(|node| {
        let out = db.memo(
            st.profile_apply,
            Fp::of_str(&text[node.span.start..node.end]),
            |_| match applications_from_xml_node(tut.profile(), node) {
                Ok(apps) => (apps, Vec::new()),
                Err(e) => {
                    let d = Diagnostic::error(E_PROFILE_INTERCHANGE, e.to_string())
                        .with_span(Span::new(0, node.span.len()));
                    (Applications::new(), vec![d])
                }
            },
        );
        bag.merge_fragment(&out.1, node.span.start);
        out
    });
    let system = SystemModel {
        tut: tut.clone(),
        model,
        apps: profile
            .as_ref()
            .map_or_else(Applications::new, |out| out.0.clone()),
    };

    let span_of = |element: &str| index.get(element);
    let outcome = assemble(db, st, rules, &system, &span_of, &od, bag, src);
    *prev = Some(PrevAnalysis {
        struct_fp: od.struct_fp,
        seg_fps: od.seg_fps.clone(),
        system,
        decode_frags: frags.into_iter().map(|f| f.map(Rc::new)).collect(),
        profile,
        patchable,
    });
    (outcome, Some(od))
}

/// Runs (or replays) the semantic stages and assembles the final bag in
/// exactly the cold pipeline's order: findings are collected in pass
/// order, sorted, given spans by `span_of`, merged after the decode
/// and interchange diagnostics already in `bag`, then the two dry runs
/// append and the whole bag is sorted once more.
#[allow(clippy::too_many_arguments)]
fn assemble(
    db: &mut QueryDb,
    st: Stages,
    rules: &ConstraintSet,
    system: &SystemModel,
    span_of: &dyn Fn(&str) -> Option<Span>,
    od: &OutlineData,
    mut bag: DiagnosticBag,
    src: &SourceMap,
) -> CheckOutcome {
    let model = &system.model;
    let struct_fp = od.struct_fp;

    // Map each class to the fingerprint of its behaviour's segment, so
    // the per-class behaviour query misses exactly for the edited body.
    let sm_seg_fp: HashMap<&str, Fp> = od
        .outline
        .segments
        .iter()
        .zip(&od.seg_fps)
        .filter(|(s, _)| is_sm(s))
        .map(|(s, &fp)| (&*s.id, fp))
        .collect();

    let mut findings = DiagnosticBag::new();
    let names = db.memo(st.wf_unique_names, struct_fp, |_| {
        frag_of(|b| validate::check_unique_names(model, b))
    });
    findings.merge_fragment(&names, 0);
    for (class_id, _) in model.classes() {
        let key = FpBuilder::new()
            .u64(class_id.index() as u64)
            .fp(struct_fp)
            .finish();
        let frag = db.memo(st.wf_parts_ports, key, |_| {
            frag_of(|b| validate::check_parts_and_ports_of(model, class_id, b))
        });
        findings.merge_fragment(&frag, 0);
    }
    let connectors = db.memo(st.wf_connectors, struct_fp, |_| {
        frag_of(|b| validate::check_connectors(model, b))
    });
    findings.merge_fragment(&connectors, 0);
    let composition = db.memo(st.wf_composition, struct_fp, |_| {
        frag_of(|b| validate::check_composition_cycles(model, b))
    });
    findings.merge_fragment(&composition, 0);
    for (class_id, class) in model.classes() {
        let body_fp = class
            .behavior()
            .and_then(|sm| sm_seg_fp.get(sm.to_string().as_str()).copied())
            .unwrap_or(Fp::ABSENT);
        let key = FpBuilder::new()
            .u64(class_id.index() as u64)
            .fp(struct_fp)
            .fp(body_fp)
            .finish();
        let frag = db.memo(st.wf_behavior, key, |_| {
            frag_of(|b| validate::check_behavior_of(model, class_id, b))
        });
        findings.merge_fragment(&frag, 0);
    }
    let generalisation = db.memo(st.wf_generalisation, struct_fp, |_| {
        frag_of(|b| validate::check_generalisation_cycles(model, b))
    });
    findings.merge_fragment(&generalisation, 0);

    for i in 0..rules.len() {
        let key = FpBuilder::new().u64(i as u64).fp(struct_fp).finish();
        let frag = db.memo(st.profile_rules, key, |_| {
            frag_of(|b| rules.check_one(i, model, system.tut.profile(), &system.apps, b))
        });
        findings.merge_fragment(&frag, 0);
    }

    findings.sort();
    for d in findings.iter_mut() {
        if d.span.is_none() {
            if let Some(element) = &d.element {
                d.span = span_of(element);
            }
        }
    }
    bag.merge(findings);

    let codegen = db.memo(st.codegen_dry_run, struct_fp, |_| {
        tut_codegen::dry_run_diagnostic(system)
    });
    if let Some(d) = codegen.as_ref() {
        bag.push(d.clone());
    }

    let sim = db.memo(st.sim_setup, struct_fp, |_| {
        tut_sim::setup_diagnostic(system, tut_sim::SimConfig::default())
    });
    if let Some(d) = sim.as_ref() {
        let mut d = d.clone();
        if let Some(element) = &d.element {
            if let Some(span) = span_of(element) {
                d.span = Some(span);
            }
        }
        bag.push(d);
    }

    bag.sort();
    render_outcome(src, bag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_xml() -> String {
        crate::paper_system().to_xml()
    }

    /// The correctness contract on the unedited paper system: first
    /// (cold) and second (cached) incremental checks both match the
    /// plain pipeline byte-for-byte.
    #[test]
    fn cold_and_cached_match_the_plain_pipeline() {
        let xml = paper_xml();
        let oracle = crate::check::check_source("paper-system.xml", &xml);
        let mut checker = Checker::new();
        let first = checker.check("paper-system.xml", &xml);
        assert_eq!(first.text, oracle.render_text());
        assert_eq!(first.json, oracle.render_json());
        assert_eq!(first.has_errors, oracle.has_errors());
        let second = checker.check("paper-system.xml", &xml);
        assert_eq!(second, first);
        let stats = checker.stats();
        assert!(stats.total_hits() >= 1, "{}", stats.render());
    }

    #[test]
    fn syntax_errors_match_the_plain_pipeline() {
        let xml = paper_xml();
        let broken = xml.replacen("</packagedElement>", "</wrongElement>", 1);
        let oracle = crate::check::check_source("m.xml", &broken);
        let mut checker = Checker::new();
        let out = checker.check("m.xml", &broken);
        assert!(out.has_errors);
        assert_eq!(out.text, oracle.render_text());
        assert_eq!(out.json, oracle.render_json());
    }

    /// An empty bag renders the same bytes whether or not a source map
    /// is supplied: the summary line alone, in both formats.
    #[test]
    fn empty_bag_renders_identically_without_a_source() {
        let bag = DiagnosticBag::new();
        let source = SourceMap::new("m.xml", "<a>\n</a>\n");
        assert_eq!(
            render_bag_text(&bag, Some(&source)),
            render_bag_text(&bag, None)
        );
        assert_eq!(
            render_bag_json(&bag, Some(&source)),
            render_bag_json(&bag, None)
        );
    }

    /// The outline a parse of `text` yields.
    fn tree_outline(text: &str) -> OutlineData {
        let root = XmlNode::parse(text).expect("the text parses");
        OutlineData::new(text, Outline::of_tree(&root))
    }

    fn assert_same_outline(a: &OutlineData, b: &OutlineData) {
        assert_eq!(a.outline, b.outline);
        assert_eq!(a.seg_fps, b.seg_fps);
        assert_eq!(a.struct_fp, b.struct_fp);
    }

    /// The outline moved through an edit must agree exactly with the one
    /// read off a parse of the edited text on state-machine body edits
    /// (replacement, growth, shrinkage), and the edit must be refused
    /// anywhere else.
    #[test]
    fn fast_outline_matches_the_tree_outline() {
        let base = paper_xml();
        let fast = |edited: &str| {
            let w = EditWindow::between(&base, edited).expect("an edit");
            fast_outline(&base, tree_outline(&base), edited, w)
        };
        let compare = |edited: &str| {
            let fast = fast(edited).expect("fast path applies");
            assert_same_outline(&fast, &tree_outline(edited));
        };
        // Same-length replacement, growth, and shrinkage of a behaviour
        // constant (the bench edit takes `data="100"`-style sites).
        compare(&crate::benchcheck::edit_behavior(&base, 0).unwrap());
        let old = tree_outline(&base);
        let sm = old.outline.segments.iter().find(|s| is_sm(s)).unwrap();
        let at = sm.range.start + base[sm.range.start..].find("<compute ").unwrap();
        let at = at + base[at..].find("data=\"").unwrap() + "data=\"".len();
        let digits = base[at..].find('"').unwrap();
        for value in ["123456789", "7"] {
            compare(&format!("{}{value}{}", &base[..at], &base[at + digits..]));
        }
        // An edit inside the profileApplication element changes structure.
        let pa = old
            .outline
            .profile_app
            .expect("the paper system applies the profile");
        let at = pa.start + base[pa.start..pa.end].find("data=\"").unwrap() + "data=\"".len();
        let end = at + base[at..].find('"').unwrap();
        let app_edit = format!("{}9{}", &base[..at], &base[end..]);
        assert!(
            fast(&app_edit).is_none(),
            "profile application edits rebuild"
        );
        // So does one inside a class, or in a machine's start tag.
        let renamed = base.replacen("name=\"user\"", "name=\"customer\"", 1);
        assert!(fast(&renamed).is_none(), "class edits rebuild");
        let sm = old.outline.segments.iter().find(|s| is_sm(s)).unwrap();
        let sm_name = format!("name=\"{}\"", sm.name);
        let renamed_sm = base.replacen(&sm_name, "name=\"Renamed\"", 1);
        assert!(fast(&renamed_sm).is_none(), "start-tag edits rebuild");
        // Deleting markup puts `<` in the changed window: refused.
        let broken = base.replacen("<packagedElement", "packagedElement", 1);
        assert!(fast(&broken).is_none(), "window has structural bytes");
    }

    /// A report-cache hit still moves the carried text and outline to
    /// the text it answered for, so the next miss diffs against it.
    #[test]
    fn report_hit_moves_the_carried_text() {
        let base = paper_xml();
        let broken = base.replacen("</compute>", "</comput>", 1);
        let mut checker = Checker::new();
        checker.check("m.xml", &base);
        checker.check("m.xml", &broken);
        let hits = checker.stats().total_hits();
        checker.check("m.xml", &base);
        assert_eq!(
            checker.stats().total_hits(),
            hits + 1,
            "the repair is a hit"
        );
        let (source, od) = checker.docs["m.xml"].last.as_ref().expect("carried");
        assert_eq!(source.text(), base);
        let od = od.as_ref().expect("the repair's outline is derived");
        assert_same_outline(od, &tree_outline(&base));
    }

    /// A disk record that does not decode as an outcome is recomputed by
    /// the checker's own analysis, and the report still matches the
    /// plain pipeline.
    #[test]
    fn undecodable_disk_payload_is_recomputed() {
        let dir = std::env::temp_dir().join(format!("tut-corrupt-report-{}", std::process::id()));
        let path = dir.join("reports.journal");
        std::fs::create_dir_all(&dir).unwrap();
        let xml = paper_xml();
        let mut first = Checker::new();
        first.open_disk(&path).unwrap();
        first.check("m.xml", &xml);
        drop(first);
        // Append a record under the same stage and key whose payload is
        // not an encoded outcome; replay keeps the later record.
        let mut rec = tut_store::Journal::open(&path).unwrap();
        let mut record = rec.records[0][..16].to_vec();
        record.push(1);
        rec.journal.append(&record).unwrap();
        rec.journal.commit().unwrap();
        drop(rec);
        let mut second = Checker::new();
        second.open_disk(&path).unwrap();
        let out = second.check("m.xml", &xml);
        let oracle = crate::check::check_source("m.xml", &xml);
        assert_eq!(out.text, oracle.render_text());
        assert_eq!(out.json, oracle.render_json());
        assert_eq!(second.stats().total_hits(), 1, "the disk record was hit");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn outcome_payload_round_trips() {
        let out = CheckOutcome {
            has_errors: true,
            text: "text with\nnewlines".into(),
            json: "{\"summary\":\"x\"}".into(),
        };
        assert_eq!(decode_outcome(&encode_outcome(&out)).unwrap(), out);
        assert!(decode_outcome(&[]).is_none());
        assert!(decode_outcome(&[1, 2, 3]).is_none());
        let mut huge = vec![1];
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(
            decode_outcome(&huge).is_none(),
            "a corrupt length is rejected"
        );
    }
}
