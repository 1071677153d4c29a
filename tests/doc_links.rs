//! Doc truth: a file, binary or figure that `README.md`, `docs/*.md`, the CI
//! workflow or a doc comment under `crates/`, `src/`, `examples/` names must
//! exist.
//!
//! Four kinds of mention are checked: a path ending in `.md` or `.json`
//! (resolved against the repo root, the citing file's directory, or — for a
//! bare `NAME.md` — `docs/`), `--bin <name>` (a file in some crate's
//! `src/bin/`), and the figure a `gre-figs <name>` or `gre-figs -- <name>`
//! command line names (a row of `gre_bench::FIGURES`).
//!
//! The metric catalog of `docs/OBSERVABILITY.md` lists exactly the metric
//! ids `gre-telemetry` defines.

use gre_bench::FIGURES;
use gre_telemetry::{CounterId, GlobalHistId, ShardHistId};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `(file, line number, text)` the check reads: whole Markdown and
/// YAML files, and only the doc-comment lines of Rust sources.
fn scanned_lines() -> Vec<(PathBuf, usize, String)> {
    let root = root();
    let mut files = vec![
        root.join("README.md"),
        root.join(".github/workflows/ci.yml"),
    ];
    for entry in fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    for dir in ["crates", "src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }

    let mut lines = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("scanned file is UTF-8");
        let rust = file.extension().is_some_and(|e| e == "rs");
        for (i, line) in text.lines().enumerate() {
            let doc = line.trim_start();
            if !rust || doc.starts_with("//!") || doc.starts_with("///") {
                lines.push((file.clone(), i + 1, line.to_string()));
            }
        }
    }
    lines
}

fn bin_exists(name: &str) -> bool {
    fs::read_dir(root().join("crates"))
        .expect("crates/ exists")
        .any(|c| {
            c.expect("directory entry")
                .path()
                .join("src/bin")
                .join(format!("{name}.rs"))
                .is_file()
        })
}

/// The names `line` passes to `gre-figs` as its figure argument, directly or
/// after cargo's `--`, that are not rows of the figure table. A placeholder
/// (`gre-figs <figure>`) or a flag names no figure.
fn unknown_figures(line: &str) -> Vec<&str> {
    line.match_indices("gre-figs ")
        .filter_map(|(at, cmd)| {
            let rest = &line[at + cmd.len()..];
            let rest = rest.strip_prefix("-- ").unwrap_or(rest);
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let name = &rest[..end];
            (!name.is_empty() && FIGURES.iter().all(|f| f.name != name)).then_some(name)
        })
        .collect()
}

/// Whether `token`, found in `file`, is a `.md` / `.json` path naming nothing.
fn dangling(token: &str, file: &Path) -> bool {
    let name = token.rsplit('/').next().expect("rsplit yields an item");
    let bare = name == token;
    let (md, json) = (name.ends_with(".md"), name.ends_with(".json"));
    if !(md || json) || name.starts_with('.') {
        return false;
    }
    let root = root();
    let mut homes = vec![root.clone(), file.parent().expect("file in a dir").into()];
    if bare && md {
        homes.push(root.join("docs"));
    }
    !homes.iter().any(|home| home.join(token).is_file())
}

#[test]
fn every_named_file_and_binary_exists() {
    let root = root();
    let mut problems = Vec::new();
    for (file, line_no, line) in scanned_lines() {
        let shown = file.strip_prefix(&root).unwrap_or(&file).display();
        let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
        for token in line.split(|c| !is_path_char(c)) {
            let token = token.trim_end_matches('.');
            if dangling(token, &file) {
                problems.push(format!("{shown}:{line_no}: `{token}` does not exist"));
            }
        }
        for (at, _) in line.match_indices("--bin ") {
            let name: String = line[at + "--bin ".len()..]
                .chars()
                .take_while(|&c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                .collect();
            if !name.is_empty() && !bin_exists(&name) {
                problems.push(format!("{shown}:{line_no}: no binary `{name}`"));
            }
        }
        for name in unknown_figures(&line) {
            problems.push(format!("{shown}:{line_no}: no figure `{name}`"));
        }
    }
    assert!(
        problems.is_empty(),
        "documentation names files, binaries or figures that do not exist:\n{}",
        problems.join("\n")
    );
}

#[test]
fn a_cited_figure_must_be_a_table_row() {
    let ok = "$ cargo run --release -p gre-bench --bin gre-figs -- fig2_heatmap --quick";
    assert!(unknown_figures(ok).is_empty());
    assert!(unknown_figures("run: target/release/gre-figs fig8_memory --quick").is_empty());
    assert!(unknown_figures("`gre-figs <figure> [flags]`, the `gre-figs` binary").is_empty());
    assert!(unknown_figures("cargo run --bin gre-figs -- --quick").is_empty());

    let gone = "$ cargo run -p gre-bench --bin gre-figs -- figa_lock_granularity";
    assert_eq!(unknown_figures(gone), ["figa_lock_granularity"]);
    assert_eq!(
        unknown_figures("target/release/gre-figs fig2 && target/release/gre-figs fig8_memory"),
        ["fig2"]
    );
}

/// The `` `CounterId::…` ``, `` `ShardHistId::…` `` and
/// `` `GlobalHistId::…` `` ids in the table rows of the metric catalog
/// section.
fn catalog_ids(doc: &str) -> BTreeSet<String> {
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Metric catalog"))
        .expect("docs/OBSERVABILITY.md has a `## Metric catalog` section");
    section
        .lines()
        .filter(|l| l.starts_with('|'))
        .flat_map(|l| l.split('`').skip(1).step_by(2))
        .filter(|name| name.contains("Id::"))
        .map(str::to_string)
        .collect()
}

#[test]
fn metric_catalog_lists_every_exported_name() {
    let defined: BTreeSet<String> = CounterId::ALL
        .iter()
        .map(|id| format!("CounterId::{id:?}"))
        .chain(
            ShardHistId::ALL
                .iter()
                .map(|id| format!("ShardHistId::{id:?}")),
        )
        .chain(
            GlobalHistId::ALL
                .iter()
                .map(|id| format!("GlobalHistId::{id:?}")),
        )
        .collect();
    let doc = fs::read_to_string(root().join("docs/OBSERVABILITY.md")).expect("catalog exists");
    let listed = catalog_ids(&doc);
    let missing: Vec<_> = defined.difference(&listed).collect();
    let unknown: Vec<_> = listed.difference(&defined).collect();
    assert!(
        missing.is_empty() && unknown.is_empty(),
        "metric catalog out of date: defined but not listed {missing:?}, \
         listed but not defined {unknown:?}"
    );
}
