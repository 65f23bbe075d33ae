//! One public surface: a library `pub fn` stays `pub` only if something
//! outside its crate's `src/` names it.
//!
//! The users are: another crate's library code, the facade (`src/`),
//! `examples/`, the root `tests/`, any crate's `tests/`, and
//! `benchmark/src/`. Library code is each file's text up to its first
//! `#[cfg(test)]`; unit tests are not users. Everything else is
//! `pub(crate)` or private, so rustc's `dead_code` lint sees it.
//!
//! The check goes by name (a word anywhere in a user file counts), so a
//! name shared with a used item passes: it is a floor, not a proof.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            out.extend(rust_files(&p));
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    out
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The library part of a source file: its text up to the first
/// `#[cfg(test)]`.
fn library_text(text: &str) -> &str {
    text.find("#[cfg(test)]").map_or(text, |i| &text[..i])
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every identifier-shaped word of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty())
}

/// The names declared `pub fn` in `text`.
fn pub_fns(text: &str) -> Vec<&str> {
    text.match_indices("pub fn ")
        .filter(|(i, _)| !text[..*i].ends_with(is_ident))
        .filter_map(|(i, m)| words(&text[i + m.len()..]).next())
        .collect()
}

#[test]
fn every_pub_fn_has_a_user_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this_file = root.join(file!());
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crates.sort();

    // Users every crate shares: the facade, examples, tests, benchmark.
    let mut shared = HashSet::new();
    let mut shared_files = Vec::new();
    for dir in ["src", "examples", "tests", "benchmark/src"] {
        shared_files.extend(rust_files(&root.join(dir)));
    }
    for krate in &crates {
        shared_files.extend(rust_files(&krate.join("tests")));
    }
    let shared_texts: Vec<String> = shared_files
        .iter()
        .filter(|p| **p != this_file)
        .map(|p| read(p))
        .collect();
    for text in &shared_texts {
        shared.extend(words(text).map(str::to_owned));
    }

    // Per crate: the words of its library code and its `pub fn`s.
    let mut library_words = BTreeMap::new();
    let mut declared = Vec::new();
    for krate in &crates {
        let mut set = HashSet::new();
        for file in rust_files(&krate.join("src")) {
            let text = read(&file);
            let lib = library_text(&text);
            set.extend(words(lib).map(str::to_owned));
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            for name in pub_fns(lib) {
                declared.push((krate.clone(), rel.clone(), name.to_owned()));
            }
        }
        library_words.insert(krate.clone(), set);
    }
    assert!(!declared.is_empty(), "no pub fn found under crates/*/src");

    let unused: Vec<String> = declared
        .iter()
        .filter(|(krate, _, name)| {
            !shared.contains(name)
                && !library_words
                    .iter()
                    .any(|(other, set)| other != krate && set.contains(name))
        })
        .map(|(_, file, name)| format!("{file}: {name}"))
        .collect();
    assert!(
        unused.is_empty(),
        "{} `pub fn`s have no user outside their crate; make them pub(crate) or \
         private and let rustc name what is dead:\n{}",
        unused.len(),
        unused.join("\n")
    );
}
