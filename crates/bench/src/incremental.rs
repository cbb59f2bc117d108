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
//! The decomposition leans on the [`tut_uml::outline`] scanner: the
//! document splits into a *skeleton* (the XMI envelope) plus one segment
//! per top-level `packagedElement` and the `profileApplication`. From
//! those the checker derives a `struct_fp` — a fingerprint of everything
//! *except* state-machine bodies — and keys the expensive semantic
//! queries on it. A behaviour-body edit therefore re-parses one segment,
//! re-decodes one state machine and re-type-checks one class, while the
//! fifteen profile rules, the other well-formedness passes and both dry
//! runs are cache hits.
//!
//! Correctness contract: the warm report is **byte-identical** to what a
//! cold [`check_source`](crate::check::check_source) produces for the
//! same text — the sub-results are assembled in exactly the order the
//! cold pipeline pushes them (decode recoveries, profile interchange,
//! sorted+span-attached findings, codegen, sim setup, final sort), and
//! whenever the document's shape falls outside what the outline scanner
//! understands the checker silently falls back to the cold pipeline.
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
    outline: StageId,
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
    /// Per-segment content fingerprints, in document order.
    seg_fps: Vec<Fp>,
    /// The document with all segments spliced out.
    skeleton: String,
    skeleton_fp: Fp,
    /// Fingerprint of the `profileApplication` text ([`Fp::ABSENT`]
    /// when the document has none).
    app_fp: Fp,
}

impl OutlineData {
    fn build(text: &str) -> Option<OutlineData> {
        let outline = Outline::scan(text)?;
        let seg_fps = (0..outline.segments.len())
            .map(|i| Fp::of_str(outline.segment_text(text, i)))
            .collect();
        let skeleton = outline.skeleton(text);
        let skeleton_fp = Fp::of_str(&skeleton);
        let app_fp = match outline.profile_app {
            Some(pa) => Fp::of_str(&text[pa.start..pa.end]),
            None => Fp::ABSENT,
        };
        Some(OutlineData {
            outline,
            seg_fps,
            skeleton,
            skeleton_fp,
            app_fp,
        })
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
/// when the edit `w` is confined to the interior of one segment (or the
/// `profileApplication`): surviving ranges shift by the length delta and
/// only the touched piece is rehashed, so the per-keystroke cost is the
/// window search instead of a full rescan plus per-segment hashing.
///
/// `None` means "no proof of equivalence — do the full scan". The fast
/// path must return exactly what [`OutlineData::build`] would: it bails
/// unless the changed window (on both the old and new side) is free of
/// every byte that could alter tag structure — `<` `>` (tags), `"` `'`
/// (attribute quoting), `/` (self-closing flip), `-` (comment
/// terminator) — and stays clear of the containing segment's start tag,
/// whose `xmi:type`/`xmi:id` attributes are cached in the outline.
fn fast_outline(
    old_text: &str,
    old: &OutlineData,
    new_text: &str,
    w: EditWindow,
) -> Option<OutlineData> {
    let a = old_text.as_bytes();
    let b = new_text.as_bytes();
    let EditWindow {
        start: p,
        old_end: we_old,
        new_end: we_new,
    } = w;
    let inert = |w: &[u8]| {
        w.iter()
            .all(|&c| !matches!(c, b'<' | b'>' | b'"' | b'\'' | b'/' | b'-'))
    };
    if !inert(&a[p..we_old]) || !inert(&b[p..we_new]) {
        return None;
    }
    let delta = b.len() as isize - a.len() as isize;
    let shift = |sp: Span| {
        Span::new(
            (sp.start as isize + delta) as usize,
            (sp.end as isize + delta) as usize,
        )
    };

    let mut outline = old.outline.clone();
    let mut seg_fps = old.seg_fps.clone();
    let mut app_fp = old.app_fp;
    let seg_hit = old
        .outline
        .segments
        .iter()
        .position(|seg| seg.range.start < p && we_old < seg.range.end);
    if let Some(i) = seg_hit {
        if p <= start_tag_end(a, old.outline.segments[i].range.start)? {
            return None;
        }
        let r = &mut outline.segments[i].range;
        *r = Span::new(r.start, (r.end as isize + delta) as usize);
        for seg in &mut outline.segments[i + 1..] {
            seg.range = shift(seg.range);
        }
        if let Some(pa) = outline.profile_app {
            if pa.start >= we_old {
                outline.profile_app = Some(shift(pa));
            }
        }
        let r = outline.segments[i].range;
        seg_fps[i] = Fp::of_str(&new_text[r.start..r.end]);
    } else if let Some(pa) = old
        .outline
        .profile_app
        .filter(|pa| pa.start < p && we_old < pa.end)
    {
        let new_pa = Span::new(pa.start, (pa.end as isize + delta) as usize);
        outline.profile_app = Some(new_pa);
        for seg in &mut outline.segments {
            if seg.range.start >= we_old {
                seg.range = shift(seg.range);
            }
        }
        app_fp = Fp::of_str(&new_text[new_pa.start..new_pa.end]);
    } else {
        // The window straddles a boundary or sits in the skeleton.
        return None;
    }
    Some(OutlineData {
        outline,
        seg_fps,
        skeleton: old.skeleton.clone(),
        skeleton_fp: old.skeleton_fp,
        app_fp,
    })
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

/// A memoized standalone parse of one segment (spans are relative to
/// the segment's first byte).
enum ParseOut {
    Ok(XmlNode),
    /// An `E0101` at a relative offset — rebased it reproduces the
    /// whole-document error exactly.
    Syntax(usize, String),
    /// Any other parse failure: bail to the cold pipeline.
    Other,
}

impl ParseOut {
    fn of(text: &str) -> ParseOut {
        match XmlNode::parse(text) {
            Ok(node) => ParseOut::Ok(node),
            Err(Error::XmlSyntax {
                offset, message, ..
            }) => ParseOut::Syntax(offset, message),
            Err(_) => ParseOut::Other,
        }
    }
}

/// A state machine decoded from one segment: the machine plus the
/// statement-recovery diagnostics, spans relative to the segment.
type DecodeOut = Result<(tut_uml::statemachine::StateMachine, Vec<Diagnostic>), ()>;

/// The last fully-analysed state of one document, kept so the next edit
/// can be applied as a patch instead of a rebuild.
struct PrevAnalysis {
    struct_fp: Fp,
    seg_fps: Vec<Fp>,
    system: SystemModel,
    /// Per-segment decode-recovery diagnostics (relative spans);
    /// `Some` exactly for state-machine segments.
    decode_frags: Vec<Option<Rc<Vec<Diagnostic>>>>,
    /// False when some decode diagnostic could not be attributed to a
    /// segment — the next edit rebuilds instead of patching.
    patchable: bool,
}

#[derive(Default)]
struct DocState {
    /// Replaced only by a successful rebuild. A report that takes any
    /// other path (a syntax error, a cold fallback) leaves it: it still
    /// describes its own `seg_fps`, which the next patch diffs against.
    prev: Option<PrevAnalysis>,
    /// The last checked text, held by its line index, and its outline
    /// (`None` when it has none, or when a report hit could not derive
    /// it). The next edit's window (common prefix/suffix) updates both
    /// instead of rescanning the whole document.
    last: Option<(SourceMap, Rc<Option<OutlineData>>)>,
}

impl DocState {
    /// Takes the carried text and moves it to `text`: locates the edit
    /// against it once (common prefix and suffix), splices the window
    /// into the line index, and tries to derive the new outline from the
    /// old one instead of rescanning the document.
    fn advance(&mut self, name: &str, text: &str) -> (SourceMap, Option<OutlineData>) {
        let Some((mut source, old_od)) = self.last.take() else {
            return (SourceMap::new(name, text), None);
        };
        let window = EditWindow::between(source.text(), text);
        let fast = window.and_then(|w| fast_outline(source.text(), (*old_od).as_ref()?, text, w));
        if let Some(w) = window {
            source.replace_range(w.start..w.old_end, &text[w.start..w.new_end]);
        }
        debug_assert_eq!(source.text(), text);
        (source, fast)
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
            outline: db.stage("outline"),
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
        let text_fp = Fp::of_str(text);
        let key = FpBuilder::new().str(name).fp(text_fp).finish();
        let db = &mut self.db;
        let st = self.st;
        let tut = &self.tut;
        let rules = &self.rules;
        let doc = self.docs.entry(name.to_owned()).or_default();
        // The carried text moves on a report hit too, so the next miss
        // diffs against this text rather than an older one.
        let mut moved = Some(doc.advance(name, text));
        let payload = db.memo_bytes(st.report, key, |db| {
            let (source, fast) = moved.take().expect("the report computes once");
            encode_outcome(&analyze(
                db, st, tut, rules, doc, text, text_fp, source, fast,
            ))
        });
        if let Some((source, fast)) = moved {
            doc.last = Some((source, Rc::new(fast)));
        }
        decode_outcome(&payload).unwrap_or_else(|| cold_outcome(name, text))
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

/// The cold pipeline as an outcome — the fallback whenever the document
/// shape is outside what the incremental decomposition handles.
fn cold_outcome(name: &str, text: &str) -> CheckOutcome {
    let report = crate::check::check_source(name, text);
    CheckOutcome {
        has_errors: report.has_errors(),
        text: report.render_text(),
        json: report.render_json(),
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
        let s = std::str::from_utf8(b.get(pos..pos + len)?).ok()?;
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

/// The analysis behind a report-level cache miss. Returns a rendered
/// outcome byte-identical to the cold pipeline's.
#[allow(clippy::too_many_arguments)]
fn analyze(
    db: &mut QueryDb,
    st: Stages,
    tut: &TutProfile,
    rules: &ConstraintSet,
    doc: &mut DocState,
    text: &str,
    text_fp: Fp,
    source: SourceMap,
    fast: Option<OutlineData>,
) -> CheckOutcome {
    // The memoized query owns the outline; `fast` (derived from the
    // previous text's outline) only saves the rescan on a miss.
    let od = db.memo(st.outline, text_fp, |_| match fast {
        Some(od) => Some(od),
        None => OutlineData::build(text),
    });
    let DocState { prev, last } = doc;
    let src = &last.insert((source, od.clone())).0;
    let name = src.name();
    let Some(od) = od.as_ref() else {
        return cold_outcome(name, text);
    };

    // Parse every piece through the content-keyed parse query: the
    // skeleton, each segment, and the profile application.
    let skeleton = db.memo(st.parse_xml, od.skeleton_fp, |_| ParseOut::of(&od.skeleton));
    let ParseOut::Ok(skeleton_node) = &*skeleton else {
        // A skeleton-local error offset cannot be mapped back onto the
        // document, so this (never seen from the scanner's subset) goes
        // through the cold pipeline.
        return cold_outcome(name, text);
    };
    let mut seg_nodes: Vec<Rc<ParseOut>> = Vec::with_capacity(od.seg_fps.len());
    for (i, &fp) in od.seg_fps.iter().enumerate() {
        let seg_text = od.outline.segment_text(text, i);
        seg_nodes.push(db.memo(st.parse_xml, fp, |_| ParseOut::of(seg_text)));
    }
    let app_node = od.outline.profile_app.map(|pa| {
        let app_text = &text[pa.start..pa.end];
        (
            pa,
            db.memo(st.parse_xml, od.app_fp, |_| ParseOut::of(app_text)),
        )
    });

    // First syntax error in document order wins, exactly as the cold
    // linear parse would have stopped there.
    let mut first_err: Option<(usize, String)> = None;
    let mut note_err = |abs: usize, msg: &str| {
        if first_err.as_ref().is_none_or(|(at, _)| abs < *at) {
            first_err = Some((abs, msg.to_owned()));
        }
    };
    for (i, parse) in seg_nodes.iter().enumerate() {
        match &**parse {
            ParseOut::Ok(_) => {}
            ParseOut::Syntax(off, msg) => {
                note_err(od.outline.segments[i].range.start + off, msg);
            }
            ParseOut::Other => return cold_outcome(name, text),
        }
    }
    if let Some((pa, parse)) = &app_node {
        match &**parse {
            ParseOut::Ok(_) => {}
            ParseOut::Syntax(off, msg) => note_err(pa.start + *off, msg),
            ParseOut::Other => return cold_outcome(name, text),
        }
    }
    if let Some((abs, msg)) = first_err {
        let mut bag = DiagnosticBag::new();
        bag.push(Diagnostic::error(E_XML_SYNTAX, msg).with_span(Span::point(abs)));
        bag.sort();
        return render_outcome(src, bag);
    }

    // The structural fingerprint: everything except state-machine
    // bodies. Expensive whole-model queries key on this, so behaviour
    // edits leave them untouched.
    let mut b = FpBuilder::new().fp(od.skeleton_fp).fp(od.app_fp);
    for (i, seg) in od.outline.segments.iter().enumerate() {
        if is_sm(seg) {
            let sm_name = match &*seg_nodes[i] {
                ParseOut::Ok(node) => node.attr("name").unwrap_or(""),
                _ => "",
            };
            b = b.str("sm").str(&seg.id).str(sm_name);
        } else {
            b = b.str("seg").fp(od.seg_fps[i]);
        }
    }
    let struct_fp = b.finish();

    // Patch path: same structure as the previous analysis and only
    // state-machine bodies changed — splice freshly decoded machines
    // into the retained model instead of re-reading the document.
    if let Some(prev) = prev.as_mut() {
        if prev.patchable && prev.struct_fp == struct_fp && prev.seg_fps.len() == od.seg_fps.len() {
            let changed: Vec<usize> = (0..od.seg_fps.len())
                .filter(|&i| od.seg_fps[i] != prev.seg_fps[i])
                .collect();
            if changed.iter().all(|&i| is_sm(&od.outline.segments[i])) {
                if let Some(outcome) = patch(
                    db,
                    st,
                    tut,
                    rules,
                    prev,
                    od,
                    &seg_nodes,
                    app_node.as_ref(),
                    &changed,
                    struct_fp,
                    src,
                ) {
                    return outcome;
                }
            }
        }
    }

    rebuild(
        db,
        st,
        tut,
        rules,
        prev,
        od,
        skeleton_node,
        &seg_nodes,
        app_node.as_ref(),
        struct_fp,
        src,
    )
}

/// Applies an edit confined to state-machine bodies onto the previous
/// analysis. `None` means a decode error surfaced — the caller rebuilds
/// (reproducing the cold `E0102` path exactly).
#[allow(clippy::too_many_arguments)]
fn patch(
    db: &mut QueryDb,
    st: Stages,
    tut: &TutProfile,
    rules: &ConstraintSet,
    prev: &mut PrevAnalysis,
    od: &OutlineData,
    seg_nodes: &[Rc<ParseOut>],
    app_node: Option<&(Span, Rc<ParseOut>)>,
    changed: &[usize],
    struct_fp: Fp,
    src: &SourceMap,
) -> Option<CheckOutcome> {
    // Decode each changed machine against the retained model (signal
    // and port resolution only touch structure, which is unchanged).
    let mut decoded: Vec<(usize, Rc<DecodeOut>)> = Vec::with_capacity(changed.len());
    for &i in changed {
        let ParseOut::Ok(node) = &*seg_nodes[i] else {
            return None;
        };
        let key = FpBuilder::new().fp(od.seg_fps[i]).fp(struct_fp).finish();
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
        let ordinal = od.outline.segments[..*i]
            .iter()
            .filter(|s| is_sm(s))
            .count();
        *prev
            .system
            .model
            .state_machine_mut(StateMachineId::from_index(ordinal)) = sm.clone();
        prev.decode_frags[*i] = Some(Rc::new(frag.clone()));
    }
    prev.seg_fps = od.seg_fps.clone();

    // Replay decode recoveries (relative fragments rebased to the new
    // segment offsets), in document order — the order the cold reader
    // pushes them.
    let mut bag = DiagnosticBag::new();
    for (i, seg) in od.outline.segments.iter().enumerate() {
        if let Some(frag) = &prev.decode_frags[i] {
            bag.merge_fragment(frag, seg.range.start);
        }
    }
    // `struct_fp` folds in `app_fp`, so `prev.system.apps` is already the
    // applications of this text; the query only replays the fragment.
    apply_profile(db, st, tut, od, app_node, &mut bag)?;

    // Segment offsets moved with the edit, so spans are looked up on
    // demand: the last segment declaring the id (the reader's index keeps
    // the last too), its `<packagedElement` span moved to the segment.
    let span_of = |element: &str| {
        let i = od
            .outline
            .segments
            .iter()
            .rposition(|s| &*s.id == element)?;
        let ParseOut::Ok(node) = &*seg_nodes[i] else {
            return None;
        };
        Some(node.span.offset(od.outline.segments[i].range.start)).filter(|s| *s != Span::NONE)
    };
    Some(assemble(
        db,
        st,
        rules,
        &prev.system,
        &span_of,
        od,
        struct_fp,
        bag,
        src,
    ))
}

/// Reconstructs the whole document tree from cached per-segment parses
/// and runs the plain reader over it — the path for first sights and
/// structural edits. Byte-identity holds by construction: the reader
/// sees a tree equal (spans included) to a whole-document parse.
#[allow(clippy::too_many_arguments)]
fn rebuild(
    db: &mut QueryDb,
    st: Stages,
    tut: &TutProfile,
    rules: &ConstraintSet,
    prev: &mut Option<PrevAnalysis>,
    od: &OutlineData,
    skeleton_node: &XmlNode,
    seg_nodes: &[Rc<ParseOut>],
    app_node: Option<&(Span, Rc<ParseOut>)>,
    struct_fp: Fp,
    src: &SourceMap,
) -> CheckOutcome {
    let mut root = skeleton_node.clone();
    let Some(model_child) = root.children.iter_mut().find(|c| c.name == "uml:Model") else {
        return cold_outcome(src.name(), src.text());
    };
    for (i, seg) in od.outline.segments.iter().enumerate() {
        let ParseOut::Ok(node) = &*seg_nodes[i] else {
            return cold_outcome(src.name(), src.text());
        };
        let mut tree = node.clone();
        tree.offset_spans(seg.range.start);
        model_child.children.push(tree);
    }

    let mut decode_bag = DiagnosticBag::new();
    let (model, index) = match xmi::read_model(&root, &mut decode_bag) {
        Ok(v) => v,
        Err(e) => {
            decode_bag.push(Diagnostic::error(E_XMI_STRUCTURE, e.to_string()));
            decode_bag.sort();
            return render_outcome(src, decode_bag);
        }
    };

    // Attribute each decode recovery to its segment (relative spans) so
    // the next edit can replay them without re-reading the document.
    let mut frags: Vec<Option<Vec<Diagnostic>>> = od
        .outline
        .segments
        .iter()
        .map(|s| is_sm(s).then(Vec::new))
        .collect();
    let mut patchable = true;
    for d in decode_bag.iter() {
        let seg = d.span.filter(|&s| s != Span::NONE).and_then(|span| {
            od.outline
                .segments
                .iter()
                .position(|s| is_sm(s) && s.range.start <= span.start && span.end <= s.range.end)
        });
        match seg {
            Some(i) => match make_relative(d, od.outline.segments[i].range.start) {
                Some(rel) => frags[i].get_or_insert_with(Vec::new).push(rel),
                None => patchable = false,
            },
            None => patchable = false,
        }
    }

    let mut bag = decode_bag;
    let Some(apps) = apply_profile(db, st, tut, od, app_node, &mut bag) else {
        return cold_outcome(src.name(), src.text());
    };
    let system = SystemModel {
        tut: tut.clone(),
        model,
        apps: apps.map_or_else(Applications::new, |out| out.0.clone()),
    };

    let span_of = |element: &str| index.get(element);
    let outcome = assemble(db, st, rules, &system, &span_of, od, struct_fp, bag, src);
    *prev = Some(PrevAnalysis {
        struct_fp,
        seg_fps: od.seg_fps.clone(),
        system,
        decode_frags: frags.into_iter().map(|f| f.map(Rc::new)).collect(),
        patchable,
    });
    outcome
}

/// The applications decoded from a `profileApplication` subtree, and the
/// interchange diagnostic (relative spans) when decoding failed.
type ProfileOut = (Applications, Vec<Diagnostic>);

/// The profile-application query: decodes the (standalone-parsed)
/// `profileApplication` subtree into [`Applications`], caching both the
/// result and any interchange diagnostic as a relative fragment. Pushes
/// the rebased fragment into `bag` and returns the memoized result
/// (`Some(None)` when the document has no profile application), or
/// `None` when the subtree failed to parse (callers bail to cold).
fn apply_profile(
    db: &mut QueryDb,
    st: Stages,
    tut: &TutProfile,
    od: &OutlineData,
    app_node: Option<&(Span, Rc<ParseOut>)>,
    bag: &mut DiagnosticBag,
) -> Option<Option<Rc<ProfileOut>>> {
    let Some((pa, parse)) = app_node else {
        return Some(None);
    };
    let ParseOut::Ok(node) = &**parse else {
        return None;
    };
    let out = db.memo(
        st.profile_apply,
        od.app_fp,
        |_| match applications_from_xml_node(tut.profile(), node) {
            Ok(apps) => (apps, Vec::new()),
            Err(e) => {
                let mut d = Diagnostic::error(E_PROFILE_INTERCHANGE, e.to_string());
                if node.span != Span::NONE {
                    d = d.with_span(node.span);
                }
                (Applications::new(), vec![d])
            }
        },
    );
    bag.merge_fragment(&out.1, pa.start);
    Some(Some(out))
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
    struct_fp: Fp,
    mut bag: DiagnosticBag,
    src: &SourceMap,
) -> CheckOutcome {
    let model = &system.model;

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

    /// The incremental re-outline must agree exactly with a full rescan
    /// on in-segment edits (replacement, growth, shrinkage, profile
    /// application) and must refuse anything structural.
    #[test]
    fn fast_outline_matches_full_scan() {
        let base = paper_xml();
        let old = OutlineData::build(&base).expect("fixture outlines");
        let fast = |edited: &str| {
            let w = EditWindow::between(&base, edited).expect("an edit");
            fast_outline(&base, &old, edited, w)
        };
        let compare = |edited: &str| {
            let fast = fast(edited).expect("fast path applies");
            let full = OutlineData::build(edited).expect("edited text outlines");
            assert_eq!(fast.outline.segments, full.outline.segments);
            assert_eq!(fast.outline.profile_app, full.outline.profile_app);
            assert_eq!(fast.seg_fps, full.seg_fps);
            assert_eq!(fast.skeleton, full.skeleton);
            assert_eq!(fast.skeleton_fp, full.skeleton_fp);
            assert_eq!(fast.app_fp, full.app_fp);
        };
        // Same-length replacement, growth, and shrinkage of a behaviour
        // constant (the bench edit takes `data="100"`-style sites).
        compare(&crate::benchcheck::edit_behavior(&base, 0).unwrap());
        let site = base.find("data=\"").map(|i| i + "data=\"".len()).unwrap();
        let digits = base[site..].find('"').unwrap();
        compare(&format!(
            "{}{}{}",
            &base[..site],
            "123456789",
            &base[site + digits..]
        ));
        compare(&format!(
            "{}{}{}",
            &base[..site],
            "7",
            &base[site + digits..]
        ));
        // An edit inside the profileApplication element.
        if let Some(pa) = old.outline.profile_app {
            let inner = base[pa.start..pa.end]
                .find("base=\"")
                .map(|i| pa.start + i + "base=\"".len());
            if let Some(at) = inner {
                let end = at + base[at..].find('"').unwrap();
                compare(&format!("{}{}{}", &base[..at], "classX", &base[end..]));
            }
        }
        // A close-tag rename keeps every range (the scanner tracks depth
        // only), so the fast path applies and must agree with the full
        // scan; the parse queries surface the mismatch later.
        compare(&base.replacen("</packagedElement>", "</wrongElement>", 1));
        // Deleting markup puts `<` in the changed window: refused.
        let broken = base.replacen("<packagedElement", "packagedElement", 1);
        assert!(fast(&broken).is_none(), "window has structural bytes");
        let renamed_id = base.replacen("xmi:id=\"class0\"", "xmi:id=\"classZ\"", 1);
        assert!(
            fast(&renamed_id).is_none(),
            "start-tag edits fall back to the full scan"
        );
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
        let od = (**od).as_ref().expect("the repair's outline is derived");
        let full = OutlineData::build(&base).expect("fixture outlines");
        assert_eq!(od.outline.segments, full.outline.segments);
        assert_eq!(od.seg_fps, full.seg_fps);
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
    }
}
