//! Every repository path the docs cite exists.
//!
//! A backticked span in DESIGN.md, PROTOCOL.md or README.md (fenced code
//! blocks aside) is read as a repository path when it is made of path
//! characters, holds a `/`, and either starts at a top-level entry of the
//! repository (`crates/rse/src/coder.rs`, `tools/ci.sh`, `.cargo/config.toml`)
//! or starts at a crate and names a file (`rse/tests/no_alloc_marks.rs` is
//! `crates/rse/tests/no_alloc_marks.rs`). A span with a glob or a placeholder
//! (`crates/*/src`, `target/BENCH_<name>.json`) names no one path, build
//! outputs under `target/` are not the repository's, and a crate-rooted span
//! without a file name (`obs/enabled`, a feature) is not a path.

use std::path::Path;

const DOCS: [&str; 3] = ["DESIGN.md", "PROTOCOL.md", "README.md"];

/// The paths `doc` cites that do not exist under `root`.
fn dead_paths(doc: &str, root: &Path) -> Vec<String> {
    let mut fenced = false;
    let prose: Vec<&str> = (doc.lines())
        .filter(|line| {
            let fence = line.trim_start().starts_with("```");
            fenced ^= fence;
            !fence && !fenced
        })
        .collect();
    let prose = prose.join("\n");
    let spans = prose.split('`').skip(1).step_by(2);
    let path_chars = |s: &str| {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-/".contains(c);
        s.chars().all(ok) && s.contains('/') && !s.starts_with('/') && !s.contains("..")
    };
    let mut dead = Vec::new();
    for span in spans.filter(|s| path_chars(s)) {
        let first = span.split('/').next().unwrap_or_default();
        let names_file = span
            .rsplit('/')
            .next()
            .is_some_and(|last| last.contains('.'));
        let at = if first != "target" && root.join(first).exists() {
            root.join(span)
        } else if names_file && root.join("crates").join(first).is_dir() {
            root.join("crates").join(span)
        } else {
            continue;
        };
        if !at.exists() {
            dead.push(span.to_string());
        }
    }
    dead
}

#[test]
fn every_cited_repository_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        assert_eq!(dead_paths(&text, root), Vec::<String>::new(), "{doc}");
    }
}

/// The oracle fires: a planted dead path is reported, at the repository
/// root and under a crate, and what is no path is not.
#[test]
fn a_dead_path_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = "\
Live: `crates/rse/src/coder.rs`, `rse/tests/no_alloc_marks.rs`, `tools/ci.sh`.
Dead: `crates/rse/src/gone.rs` and `rse/tests/gone.rs`.
No path: `obs/enabled`, `crates/*/src`, `target/BENCH_<name>.json`,
`target/trace.json`, `obs/v2`, `a/b.rs`.
```
`crates/inside_a_fence.rs`
```
";
    assert_eq!(
        dead_paths(doc, root),
        ["crates/rse/src/gone.rs", "rse/tests/gone.rs"]
    );
}
