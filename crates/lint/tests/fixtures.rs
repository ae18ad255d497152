//! Self-tests of the lint rules against checked-in fixture files, each
//! containing exactly one deliberate violation (plus clean negatives).
//! Asserts the right rule fires at the right span and the run exits
//! nonzero — the contract CI relies on.

use std::path::{Path, PathBuf};

use lint::{lint_files_all_rules, RuleId};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Lints one fixture and asserts it produces exactly one finding with the
/// expected rule, span and snippet, and a failing exit code.
fn assert_single_finding(name: &str, rule: RuleId, line: u32, col: u32, snippet: &str) {
    let report = lint_files_all_rules(&root(), &[fixture(name)]).expect("fixture readable");
    assert_eq!(report.exit_code(), 1, "{name} must fail the lint");
    assert_eq!(report.findings.len(), 1, "{name}: {:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, rule, "{name}");
    assert_eq!((f.line, f.col), (line, col), "{name}: wrong span: {f:?}");
    assert!(f.snippet.contains(snippet), "{name}: snippet {:?}", f.snippet);
}

/// Lints one fixture and asserts it is completely clean.
fn assert_clean(name: &str) {
    let report = lint_files_all_rules(&root(), &[fixture(name)]).expect("fixture readable");
    assert_eq!(report.exit_code(), 0, "{name}: {:?}", report.findings);
    assert!(report.findings.is_empty(), "{name}: {:?}", report.findings);
}

#[test]
fn l1_fires_on_hash_collections() {
    assert_single_finding("l1_determinism.rs", RuleId::L1, 5, 38, "HashSet");
}

#[test]
fn l2_fires_on_raw_level_arithmetic() {
    assert_single_finding("l2_level_arithmetic.rs", RuleId::L2, 5, 11, "level + 1");
}

#[test]
fn l3_fires_on_unwrap_in_hot_path() {
    assert_single_finding("l3_panic_freedom.rs", RuleId::L3, 5, 17, "observation.unwrap()");
}

/// Acceptance criterion: a panic **two call edges** below the hot-path root
/// `step` is caught, and the finding's message names the full chain.
#[test]
fn l3_transitive_catches_panic_two_edges_below_step() {
    assert_single_finding("l3_transitive.rs", RuleId::L3, 15, 9, "panic!");
    let report =
        lint_files_all_rules(&root(), &[fixture("l3_transitive.rs")]).expect("fixture readable");
    let f = &report.findings[0];
    assert!(
        f.message.contains("step → settle → drain"),
        "message must name the call chain: {:?}",
        f.message
    );
}

#[test]
fn l3_transitive_does_not_traverse_test_definitions() {
    // The same panic shape under `#[cfg(test)]` is invisible to the graph.
    assert_clean("l3_transitive_test_only.rs");
}

#[test]
fn l4_fires_on_ad_hoc_seeding() {
    assert_single_finding("l4_rng_discipline.rs", RuleId::L4, 6, 35, "seed_from_u64");
}

/// Acceptance criterion: two `aux_rng` call sites sharing one literal
/// purpose collide, and **both** sites are reported.
#[test]
fn l4_fires_on_duplicate_purpose_streams() {
    let report = lint_files_all_rules(&root(), &[fixture("l4_purpose_collision.rs")])
        .expect("fixture readable");
    assert_eq!(report.exit_code(), 1);
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    for f in &report.findings {
        assert_eq!(f.rule, RuleId::L4);
        assert!(f.message.contains("collide"), "{:?}", f.message);
    }
    assert_eq!(
        report.findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![7, 11],
        "both colliding sites must be reported"
    );
}

#[test]
fn l5_fires_on_static_mut() {
    assert_single_finding("l5_static_mut.rs", RuleId::L5, 5, 1, "static mut ROUND_COUNTER");
}

#[test]
fn l5_fires_on_undocumented_unsafe() {
    assert_single_finding("l5_unsafe_no_safety.rs", RuleId::L5, 6, 5, "unsafe");
}

#[test]
fn l5_accepts_unsafe_with_safety_comment() {
    assert_clean("l5_unsafe_documented.rs");
}

#[test]
fn l5_fires_on_sync_primitive_outside_sanctioned_modules() {
    assert_single_finding("l5_sync_outside_sanctioned.rs", RuleId::L5, 5, 46, "Mutex");
}

#[test]
fn l6_fires_on_narrowing_cast_not_widening() {
    assert_single_finding("l6_cast.rs", RuleId::L6, 6, 7, "v as u32");
}

#[test]
fn clean_fixture_passes() {
    assert_clean("clean.rs");
}

#[test]
fn all_fixtures_together_exit_nonzero() {
    let files: Vec<PathBuf> = [
        "l1_determinism.rs",
        "l2_level_arithmetic.rs",
        "l3_panic_freedom.rs",
        "l3_transitive.rs",
        "l4_rng_discipline.rs",
        "l5_static_mut.rs",
        "l6_cast.rs",
        "clean.rs",
    ]
    .iter()
    .map(|n| fixture(n))
    .collect();
    let report = lint_files_all_rules(&root(), &files).expect("fixtures readable");
    assert_eq!(report.exit_code(), 1);
    // At least one finding per rule family across the corpus.
    for rule in RuleId::all() {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "{rule:?} produced no finding: {:?}",
            report.findings
        );
    }
}

/// The line counter skips exactly the `#[cfg(test)]` item: lines 10–21
/// of the 21-line fixture.
#[test]
fn non_test_lines_are_pinned_on_fixtures() {
    let count = |names: &[&str]| {
        let files: Vec<PathBuf> = names.iter().map(|n| fixture(n)).collect();
        lint_files_all_rules(&root(), &files).expect("fixtures readable").non_test_lines
    };
    assert_eq!(count(&["l3_transitive_test_only.rs"]), 9);
    assert_eq!(count(&["clean.rs"]), 16);
    assert_eq!(count(&["clean.rs", "l3_transitive_test_only.rs"]), 25);
}

/// The linter holds itself to its own bar: `crates/lint/src` must pass every
/// rule with no allowlist at all.
#[test]
fn lint_crate_passes_its_own_rules() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let files = lint::collect_rs_files(&src_dir).expect("lint sources readable");
    assert!(!files.is_empty());
    let report = lint_files_all_rules(&root(), &files).expect("lint sources lintable");
    assert_eq!(report.exit_code(), 0, "self-lint findings: {:#?}", report.findings);
}

/// The workspace itself must lint clean under the checked-in allowlist —
/// the same invocation CI runs via `cargo run -p lint -- --strict`.
#[test]
fn workspace_lints_clean_with_allowlist_strict() {
    let root = root();
    let allowlist_text =
        std::fs::read_to_string(root.join("lint-allow.txt")).expect("lint-allow.txt present");
    let allowlist = lint::parse_allowlist(&allowlist_text).expect("allowlist well-formed");
    let report = lint::lint_workspace(&root, &allowlist, true).expect("workspace readable");
    assert_eq!(report.exit_code(), 0, "workspace findings: {:#?}", report.findings);
    assert!(report.unused_allows.is_empty(), "stale allowlist: {:?}", report.unused_allows);
}

/// Strict mode turns a stale allowlist entry into a failing exit code;
/// non-strict reports it as a warning only.
#[test]
fn strict_mode_fails_on_stale_allowlist_entries() {
    let stale = "# justification: exercises the stale-entry path in this test\n\
                 L6 crates/nonexistent/src/ghost.rs x as u8\n";
    let allowlist = lint::parse_allowlist(stale).expect("stale entry parses");
    let report = lint::lint_workspace(&root(), &allowlist, false).expect("workspace readable");
    assert_eq!(report.unused_allows.len(), 1);
    let strict = lint::lint_workspace(&root(), &allowlist, true).expect("workspace readable");
    assert_eq!(strict.unused_allows.len(), 1);
    assert_ne!(strict.exit_code(), 0, "strict must fail on a stale entry");
}
