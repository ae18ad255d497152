//! Every non-timing `--quick` report is pinned byte for byte against its
//! committed `results/<ID>.quick.txt` (the CLI's `--out` file name, `.`
//! replaced by `_`), so a change that moves any execution behind the
//! experiment tables fails Tier-1.
//!
//! PERF, SCALE and RESIL print wall-clock timings and are not pinned. A
//! new experiment fails here until its golden is committed.
//!
//! A golden changes only in a change whose point is to change that output:
//! its CHANGES.md line names the files and the reason. Regenerate a golden
//! from this same call (`(find_experiment(id).run)(true)`), not from a CLI
//! run at the repository root: SCEN and BYZ append a "certificate written"
//! line when the working directory has a `results/` folder, and this test
//! runs in `crates/experiments`, which has none.

use std::path::PathBuf;

/// Reports that print wall-clock timings.
const TIMED: [&str; 3] = ["PERF", "SCALE", "RESIL"];

/// The slowest reports (about 14 s and 6 s in a debug build), pinned in
/// their own test functions so the harness runs them beside the rest.
const SLOW: [&str; 2] = ["NOISE", "MOB"];

/// Runs experiment `id` in quick mode and compares its report with the
/// committed golden, naming the first line that differs.
fn assert_matches_golden(id: &str) {
    let experiment =
        experiments::find_experiment(id).unwrap_or_else(|| panic!("no experiment {id}"));
    let report = (experiment.run)(true);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{}.quick.txt", id.replace('.', "_")));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{id}: cannot read {}: {e}", path.display()));
    if report == golden {
        return;
    }
    let got: Vec<&str> = report.lines().collect();
    let want: Vec<&str> = golden.lines().collect();
    match (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        Some(i) => panic!(
            "{id}: quick report differs from {} at line {}\n   got: {}\n  want: {}",
            path.display(),
            i + 1,
            got.get(i).unwrap_or(&"<end of report>"),
            want.get(i).unwrap_or(&"<end of file>")
        ),
        None => panic!("{id}: quick report differs from {} in line endings", path.display()),
    }
}

#[test]
fn quick_reports_match_their_goldens() {
    for experiment in experiments::all_experiments() {
        if !TIMED.contains(&experiment.id) && !SLOW.contains(&experiment.id) {
            assert_matches_golden(experiment.id);
        }
    }
}

#[test]
fn noise_quick_report_matches_its_golden() {
    assert_matches_golden("NOISE");
}

#[test]
fn mob_quick_report_matches_its_golden() {
    assert_matches_golden("MOB");
}
