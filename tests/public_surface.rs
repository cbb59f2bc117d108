//! The public surface is what runs: every `pub fn` in the library and
//! binary sources has a caller outside tests, or an entry in
//! `scripts/public_fn_allowlist.txt` that says why it stays.
//!
//! The rules, applied to every `.rs` file under `src/` and
//! `crates/*/src/` (binaries included):
//!
//! * a file is read up to the first `#[cfg(test)]` that opens a `mod`
//!   (an attribute on a single item does not cut the file);
//! * `//` comments are stripped, doc comments included;
//! * `pub fn NAME` and `pub const fn NAME` declare `NAME`;
//! * `NAME` counts as called when the identifier occurs more often than it
//!   is declared, counting that text plus `examples/*.rs` and
//!   `perfbench/src/*.rs`.
//!
//! The uncalled set must equal the allowlist, so the test fails both for
//! a new uncalled function and for an entry that no longer names one (a
//! caller was added, or the function was deleted). Matching is by name,
//! so the check is a lower bound: two functions sharing a name hide each
//! other, and so does a `//` inside a string literal, which cuts its line.
//!
//! `cargo test -q --test public_surface -- --nocapture` prints the counts.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const ALLOWLIST: &str = "scripts/public_fn_allowlist.txt";

/// The reasons an uncalled `pub fn` may stay, as allowlist prefixes.
const REASONS: [&str; 3] = ["reference:", "test-support:", "roadmap item "];

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path, recursive: bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if recursive {
                rust_files(&path, true, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The part of a source text the rules read: up to the first
/// `#[cfg(test)]` that opens a `mod`, with `//` comments removed.
fn scoped(text: &str) -> String {
    let mut end = text.len();
    for (at, _) in text.match_indices("#[cfg(test)]") {
        let rest = text[at + "#[cfg(test)]".len()..].trim_start();
        let rest = rest
            .strip_prefix("pub(crate) ")
            .or_else(|| rest.strip_prefix("pub "))
            .unwrap_or(rest);
        if rest.starts_with("mod ") {
            end = at;
            break;
        }
    }
    text[..end]
        .lines()
        .map(|line| line.find("//").map_or(line, |cut| &line[..cut]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The identifiers of `text` in order. Number literals are skipped, and
/// a macro metavariable keeps its `$` (`$get`), so it names no function.
fn identifiers(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        if !word(bytes[at]) {
            at += 1;
            continue;
        }
        let start = at;
        while at < bytes.len() && word(bytes[at]) {
            at += 1;
        }
        if start > 0 && bytes[start - 1] == b'$' {
            out.push(&text[start - 1..at]);
        } else if !bytes[start].is_ascii_digit() {
            out.push(&text[start..at]);
        }
    }
    out
}

/// `pub fn` / `pub const fn` names declared in a token stream.
fn pub_fn_names<'a>(tokens: &[&'a str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (i, &token) in tokens.iter().enumerate() {
        if token != "pub" {
            continue;
        }
        let name = match (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3)) {
            (Some(&"fn"), Some(name), _) => name,
            (Some(&"const"), Some(&"fn"), Some(name)) => name,
            _ => continue,
        };
        if !name.starts_with('$') {
            out.push(*name);
        }
    }
    out
}

struct Surface {
    /// Declarations per name, with the files that declare it.
    declared: BTreeMap<String, Vec<String>>,
    /// Names whose identifier occurs no more often than it is declared.
    uncalled: BTreeSet<String>,
}

fn surface(root: &Path) -> Surface {
    let mut scope = Vec::new();
    rust_files(&root.join("src"), true, &mut scope);
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path().join("src"))
        .collect();
    crates.sort();
    for dir in crates {
        rust_files(&dir, true, &mut scope);
    }
    let mut callers = Vec::new();
    rust_files(&root.join("examples"), false, &mut callers);
    rust_files(&root.join("perfbench/src"), false, &mut callers);

    let mut declared: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut occurrences: BTreeMap<String, usize> = BTreeMap::new();
    for (path, in_scope) in scope
        .iter()
        .map(|p| (p, true))
        .chain(callers.iter().map(|p| (p, false)))
    {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let text = scoped(&text);
        let tokens = identifiers(&text);
        if in_scope {
            let file = path
                .strip_prefix(root)
                .unwrap_or(path)
                .display()
                .to_string();
            for name in pub_fn_names(&tokens) {
                declared
                    .entry(name.to_owned())
                    .or_default()
                    .push(file.clone());
            }
        }
        for token in tokens {
            *occurrences.entry(token.to_owned()).or_default() += 1;
        }
    }
    let uncalled = declared
        .iter()
        .filter(|(name, files)| occurrences[name.as_str()] <= files.len())
        .map(|(name, _)| name.clone())
        .collect();
    Surface { declared, uncalled }
}

/// `(name, reason)` per allowlist line; `#` lines and blank lines are
/// skipped.
fn allowlist(root: &Path) -> Vec<(String, String)> {
    let text = fs::read_to_string(root.join(ALLOWLIST)).expect("allowlist readable");
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (name, reason) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            (name.to_owned(), reason.trim().to_owned())
        })
        .collect()
}

#[test]
fn every_public_fn_has_a_caller_or_an_allowlist_entry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let surface = surface(root);
    let entries = allowlist(root);
    let declarations: usize = surface.declared.values().map(Vec::len).sum();
    println!(
        "public surface: {declarations} `pub fn` declarations, {} distinct names, {} uncalled, \
         {} allowlist entries",
        surface.declared.len(),
        surface.uncalled.len(),
        entries.len()
    );

    let mut problems = Vec::new();
    let roadmap = fs::read_to_string(root.join("ROADMAP.md")).expect("ROADMAP.md");
    for (name, reason) in &entries {
        match REASONS.iter().find(|r| reason.starts_with(**r)) {
            None => problems.push(format!(
                "allowlist entry `{name}` needs a reason starting with one of {REASONS:?}"
            )),
            Some(&"roadmap item ") => {
                let item: String = reason["roadmap item ".len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                if item.is_empty() || !roadmap.contains(&format!("\n{item}. **")) {
                    problems.push(format!(
                        "allowlist entry `{name}` cites a ROADMAP item that ROADMAP.md does not \
                         list: {reason}"
                    ));
                }
            }
            Some(_) => {}
        }
    }
    let listed: BTreeSet<String> = entries.iter().map(|(name, _)| name.clone()).collect();
    if listed.len() != entries.len() {
        problems.push("the allowlist names a function twice".to_owned());
    }
    for name in surface.uncalled.difference(&listed) {
        problems.push(format!(
            "`pub fn {name}` ({}) has no caller outside tests: delete it, narrow it, or \
             allowlist it with a reason",
            surface.declared[name].join(", ")
        ));
    }
    for name in listed.difference(&surface.uncalled) {
        let why = if surface.declared.contains_key(name) {
            "now has a caller"
        } else {
            "is no longer declared"
        };
        problems.push(format!(
            "allowlist entry `{name}` {why}: remove it from {ALLOWLIST}"
        ));
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_rules_read_what_they_say() {
    let source = "\
/// Calls `gone()`.
pub fn a() {} // a()
pub const fn b() {}
pub(crate) fn c() { 0x1f; a(); }
macro_rules! m { ($get:ident) => { pub fn $get() {} }; }
#[cfg(test)]
fn helper() { b(); }
pub fn last() {}
#[cfg(test)]
mod tests { fn t() { c(); } }
";
    let text = scoped(source);
    assert!(
        text.contains("helper") && !text.contains("mod tests"),
        "{text}"
    );
    let tokens = identifiers(&text);
    // A declaration that ends the read text counts too.
    assert_eq!(pub_fn_names(&tokens), ["a", "b", "last"]);
    let count = |name: &str| tokens.iter().filter(|t| **t == name).count();
    assert_eq!((count("a"), count("b"), count("c")), (2, 2, 1));
    assert_eq!(count("gone"), 0, "doc comments are stripped");
    assert!(
        !tokens.contains(&"x1f"),
        "number literals are not identifiers"
    );
}
