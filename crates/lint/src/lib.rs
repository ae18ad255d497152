//! Workspace invariant linter for the beeping-mis reproduction.
//!
//! The correctness claims we reproduce (Thm 2.1/2.2, Cor 2.3) rest on
//! invariants `rustc` cannot see: executions must be a pure function of the
//! seed, level transitions must stay inside `[-ℓmax, ℓmax]`, protocol hot
//! paths must never panic on corrupted state — transitively, through every
//! helper they call — and the parallel engine's determinism fence (RNG
//! purpose streams, sanctioned concurrency, truncation-free casts) must
//! hold workspace-wide. This crate enforces them as a CI gate:
//!
//! ```text
//! cargo run -p lint              # lint the workspace, exit 1 on findings
//! cargo run -p lint -- --strict  # stale allowlist entries fail too (CI)
//! cargo run -p lint -- --json    # machine-readable output
//! ```
//!
//! See [`rules`] for the catalog (L1 determinism, L2 level-arithmetic, L3
//! transitive panic-freedom, L4 rng-discipline, L5 concurrency-discipline,
//! L6 cast-audit) and DESIGN.md §7 for the policy. The structural layer is
//! [`parse`] (item boundaries, call sites, test regions) feeding
//! [`callgraph`] (deterministic workspace call graph). Deliberately sound
//! sites are recorded in `lint-allow.txt` at the workspace root, each with
//! a justifying comment (enforced at parse time).
//!
//! The crate is dependency-free by design: it is itself part of the CI gate
//! and must build on air-gapped runners, so it uses a small hand-rolled
//! lexer ([`lexer`]) instead of `syn`.

pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use report::{parse_allowlist, AllowEntry, Report};
pub use rules::{check_workspace, rules_for, Finding, RuleId, SourceFile};

/// Lints one source string as `path` (workspace-relative, forward slashes)
/// under `rules`. Workspace passes (transitive L3, L4 purpose collisions)
/// see only this one file.
pub fn lint_source(path: &str, source: &str, rules: &[RuleId]) -> Vec<Finding> {
    check_workspace(&[SourceFile {
        path: path.to_string(),
        source: source.to_string(),
        rules: rules.to_vec(),
    }])
}

/// The lines of `source` outside `#[cfg(test)]` / `#[test]` items: every
/// line, blank and comment lines included, except those from a test item's
/// attribute through its closing brace or semicolon.
fn non_test_lines(source: &str) -> usize {
    let tokens = lexer::tokenize(source);
    let in_test = parse::index_file(&tokens).in_test;
    // A test token covers the lines back to the previous token, if that
    // one is in the same test region.
    let (mut test_lines, mut prev) = (BTreeSet::new(), None);
    for (token, test) in tokens.iter().zip(in_test) {
        if test {
            test_lines.extend(prev.unwrap_or(token.line)..=token.line);
        }
        prev = test.then_some(token.line);
    }
    source.lines().count().saturating_sub(test_lines.len())
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// output. Build output (`target/`), hidden (`.`-prefixed) directories and
/// symlinks are skipped: a stale per-crate `target/` tree is generated
/// code, not source, and following symlinks can both escape the workspace
/// and loop forever on a self-referential link.
///
/// # Errors
///
/// Propagates I/O errors as readable strings.
pub fn collect_rs_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        // `file_type()` does not follow symlinks, so a symlinked dir or
        // file reports `is_symlink()` here and is dropped before recursion.
        let file_type =
            entry.file_type().map_err(|e| format!("cannot stat {}: {e}", path.display()))?;
        if file_type.is_symlink() {
            continue;
        }
        if file_type.is_dir() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == "target" || name.starts_with('.') {
                continue;
            }
            files.extend(collect_rs_files(&path)?);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Normalizes `path` relative to `root` with forward slashes, for scope
/// matching and stable output on every platform.
pub fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Lints the whole workspace rooted at `root` (every `.rs` file under
/// `crates/`, scoped per [`rules::rules_for`]), applying the allowlist, and
/// counts the non-test lines of `crates/*/src`. Under `strict`, stale
/// allowlist entries fail the run.
///
/// # Errors
///
/// Returns a readable message on I/O or allowlist-syntax errors.
pub fn lint_workspace(
    root: &Path,
    allowlist: &[AllowEntry],
    strict: bool,
) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!("{} has no crates/ directory; pass --root", root.display()));
    }
    let mut files = Vec::new();
    for file in collect_rs_files(&crates_dir)? {
        let rel = relative_slash_path(root, &file);
        let rules = rules_for(&rel);
        if rules.is_empty() {
            continue;
        }
        let source =
            std::fs::read_to_string(&file).map_err(|e| format!("cannot read {rel}: {e}"))?;
        files.push(SourceFile { path: rel, source, rules });
    }
    let files_checked = files.len();
    // Every scoped file is under `crates/*/src`.
    let non_test_lines = files.iter().map(|f| non_test_lines(&f.source)).sum();
    let report = Report::from_findings(check_workspace(&files), allowlist, files_checked, strict);
    Ok(Report { non_test_lines, ..report })
}

/// Lints explicit files with **all** rules (used by the fixture self-tests
/// and for ad-hoc checks of files outside the standard scope), counting
/// their non-test lines. The files form their own little workspace:
/// transitive L3 and purpose-collision analysis run across exactly this
/// set.
///
/// # Errors
///
/// Returns a readable message on I/O errors.
pub fn lint_files_all_rules(root: &Path, files: &[PathBuf]) -> Result<Report, String> {
    let mut sources = Vec::new();
    for file in files {
        let rel = relative_slash_path(root, file);
        let source =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {rel}: {e}"))?;
        sources.push(SourceFile { path: rel, source, rules: RuleId::all().to_vec() });
    }
    let non_test_lines = sources.iter().map(|f| non_test_lines(&f.source)).sum();
    let report = Report::from_findings(check_workspace(&sources), &[], files.len(), false);
    Ok(Report { non_test_lines, ..report })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_applies_scope() {
        let src = "fn f() { let m = std::collections::HashMap::new(); }";
        assert_eq!(lint_source("x.rs", src, &[RuleId::L1]).len(), 1);
        assert!(lint_source("x.rs", src, &[RuleId::L2]).is_empty());
    }

    #[test]
    fn non_test_lines_skip_test_items_only() {
        let src =
            "fn a() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n// tail\n";
        assert_eq!(non_test_lines(src), 3);
        assert_eq!(non_test_lines("#[cfg(not(test))]\nfn a() {}\n"), 2);
        assert_eq!(non_test_lines(""), 0);
    }

    #[test]
    fn relative_paths_are_slashed() {
        let root = Path::new("/a/b");
        let file = Path::new("/a/b/crates/mis/src/levels.rs");
        assert_eq!(relative_slash_path(root, file), "crates/mis/src/levels.rs");
    }

    #[test]
    fn collect_skips_target_hidden_and_symlinked_dirs() {
        let base = std::env::temp_dir().join(format!("lint-collect-{}", std::process::id()));
        let make = |rel: &str| {
            let p = base.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(&p, "fn x() {}").unwrap();
        };
        make("a/src/lib.rs");
        make("a/target/debug/build/gen.rs");
        make(".hidden/src/sneaky.rs");
        #[cfg(unix)]
        {
            // A symlink loop: a/link -> a would recurse forever if followed.
            let _ = std::os::unix::fs::symlink(base.join("a"), base.join("a/link"));
        }
        let files = collect_rs_files(&base).unwrap();
        let rels: Vec<String> = files.iter().map(|f| relative_slash_path(&base, f)).collect();
        std::fs::remove_dir_all(&base).unwrap();
        assert_eq!(rels, vec!["a/src/lib.rs"]);
    }
}
