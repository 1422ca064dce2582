//! The public surface is what something uses: every `pub fn` in product
//! code has a caller outside its own file's tests.
//!
//! Product code is each source file of `crates/*/src` and `src/` up to its
//! first column-0 `#[cfg(test)]`. A use is counted in that product part of
//! the defining file and anywhere in every other `.rs` file under
//! `crates/`, `src/`, `tests/`, `examples/` or `benchmark/src` (doc
//! examples included), outside `pub use` re-exports:
//!
//! - a `pub fn name` inside a column-0 `impl T` block is used where `T::name`
//!   (or, in its own file, `Self::name`) or a method call `.name(` appears;
//! - a free `pub fn name` is used where its name appears as a whole
//!   identifier, the definition aside.
//!
//! A function with no use serves only its own file's tests: move it into
//! that test module, or delete it.
//!
//! Blind spot: a method call is matched by name alone, not by the type it
//! is called on. So a method whose name a common method shares (`.len(`,
//! `.is_empty(`, `.stats(`) passes unflagged even when nothing calls it.

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

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The lines of `text` that can hold a use: none of a `pub use` re-export
/// (up to its `;`).
fn code_lines(text: &str) -> Vec<&str> {
    let mut in_reexport = false;
    let mut lines = Vec::new();
    for line in text.lines() {
        in_reexport |= line.trim_start().starts_with("pub use ");
        if in_reexport {
            in_reexport = !line.contains(';');
        } else {
            lines.push(line);
        }
    }
    lines
}

/// Occurrences of `needle` in `line` that are not the tail of a longer
/// identifier and, when `whole` is set, not the head of one either.
fn count(line: &str, needle: &str, whole: bool) -> usize {
    let glued = needle.starts_with(is_ident);
    line.match_indices(needle)
        .filter(|&(at, _)| !glued || !line[..at].ends_with(is_ident))
        .filter(|&(at, _)| !whole || !line[at + needle.len()..].starts_with(is_ident))
        .count()
}

/// The type an `impl` header implements methods for: the last path segment
/// of the self type, generics stripped (`impl<'a, C> Foo<'a, C> {` → `Foo`).
fn impl_type(header: &str) -> String {
    let mut rest = header.trim_start_matches("impl");
    if rest.starts_with('<') {
        let mut depth = 0;
        for (at, c) in rest.char_indices() {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            if depth == 0 {
                rest = &rest[at + 1..];
                break;
            }
        }
    }
    let ty = rest.rsplit(" for ").next().expect("rsplit yields a part");
    let ty = ty
        .trim()
        .split(['<', ' ', '{'])
        .next()
        .expect("split yields a part");
    ty.rsplit("::")
        .next()
        .expect("rsplit yields a part")
        .to_string()
}

/// A `pub fn` of product code: where it is defined, its name, and the
/// inherent `impl` type it belongs to (`None` for a free function).
struct PublicFn<'a> {
    file: usize,
    name: &'a str,
    owner: Option<String>,
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

    // Each file's lines, and the lines of its product part (none outside
    // product files): a function is searched in its own file's product part
    // and in the whole of every other file.
    let mut whole: Vec<Vec<&str>> = Vec::new();
    let mut product_part: Vec<Vec<&str>> = Vec::new();
    let mut defined: Vec<PublicFn> = Vec::new();
    for (file, (path, text)) in texts.iter().enumerate() {
        let parts: Vec<_> = path.iter().map(|p| p.to_string_lossy()).collect();
        let product_file = parts[0] == "src" || (parts[0] == "crates" && parts[2] == "src");
        whole.push(code_lines(text));
        if !product_file {
            product_part.push(Vec::new());
            continue;
        }
        let end = text.find("\n#[cfg(test)]").map_or(text.len(), |at| at + 1);
        let product = &text[..end];
        product_part.push(code_lines(product));
        let mut owner: Option<String> = None;
        for line in product.lines() {
            if line.starts_with("impl") {
                owner = Some(impl_type(line));
            } else if line.starts_with('}') {
                owner = None;
            }
            let Some((_, rest)) = line.split_once("pub fn ") else {
                continue;
            };
            let name = rest.split(|c: char| !is_ident(c)).next();
            let name = name.expect("split yields a first part");
            let owner = owner.clone();
            defined.push(PublicFn { file, name, owner });
        }
    }

    let mut unused = Vec::new();
    for f in &defined {
        let lines = |file: usize| {
            if file == f.file {
                &product_part[file]
            } else {
                &whole[file]
            }
        };
        let uses: usize = (0..texts.len())
            .flat_map(|file| lines(file).iter().map(move |&l| (file, l)))
            .map(|(file, line)| match &f.owner {
                Some(ty) => {
                    let path = |t: &str| count(line, &format!("{t}::{}", f.name), true);
                    let own = if file == f.file { path("Self") } else { 0 };
                    let call = |tail: &str| count(line, &format!(".{}{tail}", f.name), false);
                    path(ty) + own + call("(") + call("::<")
                }
                None => {
                    let definition =
                        file == f.file && count(line, &format!("fn {}", f.name), true) > 0;
                    count(line, f.name, true) - usize::from(definition)
                }
            })
            .sum();
        if uses == 0 {
            let owner = f.owner.as_ref().map_or(String::new(), |t| format!("{t}::"));
            unused.push(format!("{}: {owner}{}", texts[f.file].0.display(), f.name));
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
