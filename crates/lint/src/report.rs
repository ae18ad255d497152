//! Allowlist handling and finding output (human text and JSON for CI).

use crate::rules::Finding;

/// One allowlist entry: `RULE path-suffix line-snippet`.
///
/// A finding is suppressed when the rule name matches, the finding's file
/// ends with `path`, and the offending source line contains `snippet`.
/// Snippet matching (rather than line numbers) keeps entries stable across
/// unrelated edits. Every entry **must** carry a `#`-comment on the
/// immediately preceding line explaining *why* the site is sound; this is
/// enforced at parse time, so an unjustified entry fails the lint run
/// outright rather than silently suppressing findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule name (`L1`…`L6`).
    pub rule: String,
    /// Path suffix the finding's file must end with.
    pub path: String,
    /// Substring the offending line must contain.
    pub snippet: String,
    /// Line in the allowlist file (for diagnostics).
    pub line: u32,
}

impl AllowEntry {
    /// `true` if this entry suppresses `finding`.
    pub fn matches(&self, finding: &Finding) -> bool {
        self.rule == finding.rule.name()
            && finding.file.ends_with(&self.path)
            && finding.snippet.contains(&self.snippet)
    }
}

/// Parses an allowlist file. Blank lines and `#` comments are skipped;
/// every entry must be immediately preceded by a `#` justification comment.
///
/// # Errors
///
/// Returns a message naming the malformed line when an entry does not have
/// the three `RULE path snippet` fields, or lacks its justification comment.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    let mut prev_was_comment = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            prev_was_comment = false;
            continue;
        }
        if line.starts_with('#') {
            prev_was_comment = true;
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (rule, path, snippet) = (parts.next(), parts.next(), parts.next());
        match (rule, path, snippet) {
            (Some(rule), Some(path), Some(snippet)) if !snippet.trim().is_empty() => {
                if !prev_was_comment {
                    return Err(format!(
                        "allowlist line {}: entry has no `#` justification comment on the \
                         preceding line; every suppression must say why the site is sound",
                        i + 1
                    ));
                }
                entries.push(AllowEntry {
                    rule: rule.to_string(),
                    path: path.to_string(),
                    snippet: snippet.trim().to_string(),
                    line: u32::try_from(i + 1).unwrap_or(u32::MAX),
                });
            }
            _ => {
                return Err(format!(
                    "allowlist line {}: expected `RULE path-suffix line-snippet`, got {line:?}",
                    i + 1
                ))
            }
        }
        prev_was_comment = false;
    }
    Ok(entries)
}

/// Result of a lint run, after allowlist filtering.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving violations.
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by the allowlist.
    pub allowed: usize,
    /// Files checked.
    pub files_checked: usize,
    /// Lines outside `#[cfg(test)]` items (blank and comment lines
    /// included) of `crates/*/src`, or of the named files in fixture mode.
    pub non_test_lines: usize,
    /// Allowlist entries that suppressed nothing (stale; reported so the
    /// list can only shrink, never silently rot).
    pub unused_allows: Vec<AllowEntry>,
    /// Strict mode: stale allowlist entries are failures, not warnings.
    pub strict: bool,
}

impl Report {
    /// Process exit code: `0` clean, `1` violations present (under
    /// `--strict`, stale allowlist entries count as violations).
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.findings.is_empty() || (self.strict && !self.unused_allows.is_empty()))
    }

    /// Splits raw findings into kept and allowed using `allowlist`.
    pub fn from_findings(
        findings: Vec<Finding>,
        allowlist: &[AllowEntry],
        files_checked: usize,
        strict: bool,
    ) -> Report {
        let mut used = vec![false; allowlist.len()];
        let mut kept = Vec::new();
        let mut allowed = 0usize;
        for finding in findings {
            match allowlist.iter().position(|e| e.matches(&finding)) {
                Some(i) => {
                    used[i] = true;
                    allowed += 1;
                }
                None => kept.push(finding),
            }
        }
        let unused_allows =
            allowlist.iter().zip(&used).filter(|(_, &u)| !u).map(|(e, _)| e.clone()).collect();
        Report { findings: kept, allowed, files_checked, unused_allows, strict, non_test_lines: 0 }
    }

    /// Human-readable output, one finding per block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{} [{}/{}] {}:{}:{}\n  {}\n  > {}\n",
                "error:",
                f.rule.name(),
                f.rule.title(),
                f.file,
                f.line,
                f.col,
                f.message,
                f.snippet
            ));
        }
        let stale_severity = if self.strict { "error" } else { "warning" };
        for e in &self.unused_allows {
            out.push_str(&format!(
                "{stale_severity}: unused allowlist entry (line {}): {} {} {}{}\n",
                e.line,
                e.rule,
                e.path,
                e.snippet,
                if self.strict { " — the list only shrinks; remove it" } else { "" }
            ));
        }
        out.push_str(&format!(
            "{} finding(s), {} allowlisted, {} file(s) checked\n\
             {} non-test line(s) outside #[cfg(test)] items\n",
            self.findings.len(),
            self.allowed,
            self.files_checked,
            self.non_test_lines
        ));
        out
    }

    /// Machine-readable output for CI annotation tooling.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"name\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\
                 \"message\":\"{}\",\"snippet\":\"{}\"}}",
                f.rule.name(),
                f.rule.title(),
                escape_json(&f.file),
                f.line,
                f.col,
                escape_json(&f.message),
                escape_json(&f.snippet)
            ));
        }
        out.push_str("],\"unused_allowlist_entries\":[");
        for (i, e) in self.unused_allows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"line\":{},\"rule\":\"{}\",\"path\":\"{}\",\"snippet\":\"{}\"}}",
                e.line,
                escape_json(&e.rule),
                escape_json(&e.path),
                escape_json(&e.snippet)
            ));
        }
        out.push_str(&format!(
            "],\"allowed\":{},\"files_checked\":{},\"non_test_lines\":{},\"strict\":{}}}",
            self.allowed, self.files_checked, self.non_test_lines, self.strict
        ));
        out.push('\n');
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    fn finding(rule: RuleId, file: &str, snippet: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 3,
            col: 7,
            message: "msg".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn allowlist_parse_and_match() {
        let text = "# why: clamp path is checked\nL2 crates/mis/src/runner.rs lmax as i64\n\n";
        let entries = parse_allowlist(text).unwrap();
        assert_eq!(entries.len(), 1);
        let f = finding(RuleId::L2, "crates/mis/src/runner.rs", "let x = -(lmax as i64);");
        assert!(entries[0].matches(&f));
        let other = finding(RuleId::L2, "crates/mis/src/policy.rs", "let x = -(lmax as i64);");
        assert!(!entries[0].matches(&other));
    }

    #[test]
    fn allowlist_rejects_malformed() {
        assert!(parse_allowlist("# why\nL2 onlytwo").is_err());
    }

    #[test]
    fn allowlist_requires_justification_comment() {
        // No comment at all.
        let bare = "L2 crates/mis/src/runner.rs lmax as i64\n";
        assert!(parse_allowlist(bare).unwrap_err().contains("justification"));
        // A comment separated by a blank line does not count.
        let detached = "# why\n\nL2 crates/mis/src/runner.rs lmax as i64\n";
        assert!(parse_allowlist(detached).is_err());
        // Two entries sharing one comment: the second is unjustified.
        let shared = "# why\nL2 a.rs x\nL2 b.rs y\n";
        assert!(parse_allowlist(shared).is_err());
    }

    #[test]
    fn report_filters_and_tracks_unused() {
        let entries = parse_allowlist("# a\nL1 a.rs HashMap\n# b\nL3 b.rs unwrap\n").unwrap();
        let findings = vec![finding(RuleId::L1, "x/a.rs", "let m: HashMap<u32, u32>;")];
        let report = Report::from_findings(findings, &entries, 5, false);
        assert_eq!(report.findings.len(), 0);
        assert_eq!(report.allowed, 1);
        assert_eq!(report.unused_allows.len(), 1);
        assert_eq!(report.exit_code(), 0);
        assert!(report.render_text().contains("warning: unused allowlist entry"));
    }

    #[test]
    fn strict_promotes_stale_entries_to_failures() {
        let entries = parse_allowlist("# a\nL1 a.rs HashMap\n").unwrap();
        let report = Report::from_findings(Vec::new(), &entries, 5, true);
        assert_eq!(report.exit_code(), 1);
        assert!(report.render_text().contains("error: unused allowlist entry"));
        assert!(report.render_json().contains("\"strict\":true"));
        // A used entry under strict stays clean.
        let findings = vec![finding(RuleId::L1, "x/a.rs", "let m: HashMap<u32, u32>;")];
        let report = Report::from_findings(findings, &entries, 5, true);
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn json_escapes() {
        let report = Report {
            findings: vec![finding(RuleId::L1, "a\"b.rs", "x\t")],
            allowed: 0,
            files_checked: 1,
            non_test_lines: 12,
            unused_allows: vec![],
            strict: false,
        };
        let json = report.render_json();
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("x\\t"));
        assert!(json.contains("\"non_test_lines\":12,"));
        assert!(report.render_text().ends_with("12 non-test line(s) outside #[cfg(test)] items\n"));
        assert_eq!(report.exit_code(), 1);
    }
}
