//! The public surface is what something uses: every `pub fn` in product
//! code has a caller outside its own file's tests.
//!
//! Product code is each source file of `crates/*/src` and `src/` up to its
//! first column-0 `#[cfg(test)]`. A `pub fn` there is flagged when its name
//! appears (as a whole identifier) only once in that part of its file — the
//! definition — and in no other `.rs` file under `crates/`, `src/`,
//! `tests/`, `examples/` or `benchmark/src`. Such a function serves only its
//! own file's tests: move it into that test module, or delete it.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten() {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Occurrences of each whole identifier in `text`.
fn identifiers(text: &str) -> HashMap<&str, usize> {
    let mut counts = HashMap::new();
    for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        *counts.entry(word).or_insert(0) += 1;
    }
    counts
}

#[test]
fn every_public_function_has_a_user_outside_its_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let texts: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source");
            let rel = p.strip_prefix(root).expect("under the root").to_path_buf();
            (rel, text)
        })
        .collect();
    let mut everywhere: HashMap<&str, usize> = HashMap::new();
    for (_, text) in &texts {
        for (word, n) in identifiers(text) {
            *everywhere.entry(word).or_insert(0) += n;
        }
    }

    let mut unused = Vec::new();
    for (path, text) in &texts {
        let parts: Vec<_> = path.iter().map(|p| p.to_string_lossy()).collect();
        let product_file = parts[0] == "src" || (parts[0] == "crates" && parts[2] == "src");
        if !product_file {
            continue;
        }
        let end = text.find("\n#[cfg(test)]").map_or(text.len(), |at| at + 1);
        let product = &text[..end];
        let (in_product, in_file) = (identifiers(product), identifiers(text));
        for line in product.lines() {
            let Some((_, rest)) = line.split_once("pub fn ") else {
                continue;
            };
            let mut name = rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            let name = name.next().expect("split yields a first part");
            if in_product[name] == 1 && everywhere[name] == in_file[name] {
                unused.push(format!("{}: {name}", path.display()));
            }
        }
    }
    unused.sort();
    assert!(
        unused.is_empty(),
        "public functions only their own file's tests use (move each into \
         its test module, or delete it):\n{}",
        unused.join("\n")
    );
}
