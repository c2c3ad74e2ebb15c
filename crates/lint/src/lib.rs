//! `uni-lint` — the workspace's own static-analysis pass.
//!
//! ROADMAP.md's standing conventions (flat buffers, uni-parallel-only
//! threading, total float orders, schedule-order-only accounting, pure
//! policies, allocation-free hot loops) used to be enforced by review.
//! This crate machine-enforces them: a dependency-free lexer strips
//! comments/strings/attributes, a context tracker follows `impl`/`fn`
//! nesting, and twelve deny-by-default rules (see [`rules::RULES`]) turn
//! each convention into `file:line:col` diagnostics. R1–R7 are
//! single-function passes; R8–R10 and R12 run over a whole-workspace
//! call graph ([`graph`]) so the no-alloc, determinism, lock-order and
//! owned-math contracts follow calls instead of stopping at the first
//! `fn` boundary; R11
//! ratchets findings and suppressions against a committed baseline
//! ([`baseline`]). Suppression is explicit and audited:
//! `// uni-lint: allow(RULE, reason)` with a mandatory reason, counted
//! in every report and gated by the baseline.
//!
//! Run it as `cargo run -p uni-lint -- --deny-all` (CI does, between
//! clippy and the build).

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod rules;

use lexer::Directive;
use rules::RawDiag;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// How a run treats each rule.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Rule IDs demoted to warnings (`--allow R5`). Reported, never
    /// fatal.
    pub allowed_rules: BTreeSet<String>,
    /// `--deny-all`: every rule is fatal regardless of `allowed_rules`.
    pub deny_all: bool,
}

impl Config {
    fn denies(&self, rule: &str) -> bool {
        self.deny_all || !self.allowed_rules.contains(&rule.to_ascii_uppercase())
    }
}

/// One reported finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// Whether this finding fails the run (false only for `--allow`ed
    /// rules without `--deny-all`).
    pub denied: bool,
}

/// One `allow` directive that actually suppressed a finding.
#[derive(Debug, Clone)]
pub struct UsedAllow {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub reason: String,
}

/// The outcome of a whole run.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
    pub allows_used: Vec<UsedAllow>,
}

impl Report {
    pub fn denied_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.denied).count()
    }

    pub fn is_clean(&self) -> bool {
        self.denied_count() == 0
    }
}

/// Lints a set of files as one workspace: intra-function rules R1–R7
/// per file, then the interprocedural rules R8–R10 and R12 over the combined
/// call graph, then allow-directive filtering per file. Diagnostics are
/// sorted by (path, line, col, rule) and deduplicated, so output is
/// stable regardless of walk order — the property the baseline diff and
/// the exact-snapshot selftests rely on.
pub fn analyze_files(files: &[(String, String)], config: &Config) -> Report {
    let mut ws = graph::Workspace::default();
    let mut lexed_files = Vec::with_capacity(files.len());
    for (path, src) in files {
        let lexed = lexer::lex(src);
        ws.index_file(path, &lexed);
        lexed_files.push(lexed);
    }
    let ws_diags = graph::check_workspace(&ws);

    let mut report = Report::default();
    for (fi, (path, _)) in files.iter().enumerate() {
        let mut raw = rules::check(path, &lexed_files[fi]);
        raw.extend(
            ws_diags
                .iter()
                .filter(|w| w.file == fi)
                .map(|w| w.diag.clone()),
        );
        apply_allows(path, &lexed_files[fi], raw, config, &mut report);
        report.files_scanned += 1;
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    report.diagnostics.dedup_by(|a, b| {
        a.path == b.path
            && a.line == b.line
            && a.col == b.col
            && a.rule == b.rule
            && a.message == b.message
    });
    report
        .allows_used
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report
}

/// Lints one file's source under a (virtual) workspace-relative path.
/// The path drives rule scoping, so self-tests can lint fixture text as
/// if it lived in any crate. The interprocedural rules see just this
/// file's call graph.
pub fn analyze_source(path: &str, src: &str, config: &Config, report: &mut Report) {
    let single = analyze_files(&[(path.to_string(), src.to_string())], config);
    report.files_scanned += single.files_scanned;
    report.diagnostics.extend(single.diagnostics);
    report.allows_used.extend(single.allows_used);
}

/// Filters raw diagnostics through the file's `allow` directives and
/// records malformed directives as denied findings.
fn apply_allows(
    path: &str,
    lexed: &lexer::Lexed,
    raw: Vec<RawDiag>,
    config: &Config,
    report: &mut Report,
) {
    let allows: Vec<(&u32, &String, &String)> = lexed
        .directives
        .iter()
        .filter_map(|d| match d {
            Directive::Allow { line, rule, reason } => Some((line, rule, reason)),
            _ => None,
        })
        .collect();

    // Malformed directives are findings themselves: a suppression that
    // does not parse must fail loudly, not silently stop suppressing.
    for d in &lexed.directives {
        if let Directive::Malformed { line, message } = d {
            report.diagnostics.push(Diagnostic {
                rule: "LINT".to_string(),
                path: path.to_string(),
                line: *line,
                col: 1,
                message: message.clone(),
                denied: true,
            });
        }
    }

    let mut used: Vec<bool> = vec![false; allows.len()];
    for d in raw {
        let suppressed = allows.iter().enumerate().find(|(_, (line, rule, _))| {
            rule.eq_ignore_ascii_case(d.rule) && (**line == d.line || **line + 1 == d.line)
        });
        if let Some((ai, (line, rule, reason))) = suppressed {
            if !used[ai] {
                used[ai] = true;
                report.allows_used.push(UsedAllow {
                    rule: (*rule).clone(),
                    path: path.to_string(),
                    line: **line,
                    reason: (*reason).clone(),
                });
            }
            continue;
        }
        let RawDiag {
            rule,
            line,
            col,
            message,
        } = d;
        report.diagnostics.push(Diagnostic {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            col,
            message,
            denied: config.denies(rule),
        });
    }
}

/// Directory names never descended into.
fn skip_dir(path: &Path) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    matches!(name, "target" | "vendor" | ".git")
        // The lint's own known-bad test corpus must not lint the
        // workspace red.
        || path.ends_with("crates/lint/fixtures")
}

/// Collects every `.rs` file under `root` (sorted, deterministic),
/// honoring [`skip_dir`].
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            if entry.is_dir() {
                if !skip_dir(&entry) {
                    stack.push(entry);
                }
            } else if entry.extension().is_some_and(|e| e == "rs") {
                files.push(entry);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints `files` (or, when empty, the whole tree under `root`) as one
/// workspace, so the interprocedural rules see cross-crate calls.
pub fn run(root: &Path, files: &[PathBuf], config: &Config) -> std::io::Result<Report> {
    let files = if files.is_empty() {
        collect_files(root)?
    } else {
        files.to_vec()
    };
    let mut inputs = Vec::with_capacity(files.len());
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(file)?;
        inputs.push((rel, src));
    }
    Ok(analyze_files(&inputs, config))
}

/// Human-readable report (one diagnostic per line, then the audit trail
/// of used suppressions, then a summary).
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let verdict = if d.denied { "deny" } else { "warn" };
        out.push_str(&format!(
            "{}:{}:{}: [{}/{}] {}\n",
            d.path, d.line, d.col, d.rule, verdict, d.message
        ));
    }
    for a in &report.allows_used {
        out.push_str(&format!(
            "{}:{}: allow({}) — {}\n",
            a.path, a.line, a.rule, a.reason
        ));
    }
    out.push_str(&format!(
        "uni-lint: {} file(s), {} finding(s) ({} denied), {} suppression(s) used\n",
        report.files_scanned,
        report.diagnostics.len(),
        report.denied_count(),
        report.allows_used.len()
    ));
    out
}

/// Machine-readable report: a stable-shaped JSON object (hand-rolled —
/// the lint is dependency-free by design).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"denied\": {}, \"message\": {}}}",
            json_str(&d.rule),
            json_str(&d.path),
            d.line,
            d.col,
            d.denied,
            json_str(&d.message)
        ));
    }
    out.push_str("\n  ],\n  \"allows\": [");
    for (i, a) in report.allows_used.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"reason\": {}}}",
            json_str(&a.rule),
            json_str(&a.path),
            a.line,
            json_str(&a.reason)
        ));
    }
    out.push_str(&format!(
        "\n  ],\n  \"summary\": {{\"files\": {}, \"findings\": {}, \"denied\": {}, \"allows_used\": {}}}\n}}\n",
        report.files_scanned,
        report.diagnostics.len(),
        report.denied_count(),
        report.allows_used.len()
    ));
    out
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Report {
        let mut report = Report::default();
        analyze_source(path, src, &Config::default(), &mut report);
        report
    }

    #[test]
    fn allow_on_previous_line_suppresses_and_is_audited() {
        let src =
            "// uni-lint: allow(R3, fixture of the seed comparator)\nlet o = a.partial_cmp(&b);\n";
        let report = lint("crates/x/src/lib.rs", src);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.allows_used.len(), 1);
        assert_eq!(report.allows_used[0].rule, "R3");
    }

    #[test]
    fn allow_does_not_leak_past_the_next_line() {
        let src = "// uni-lint: allow(R3, only the first)\nlet o = a.partial_cmp(&b);\nlet p = a.partial_cmp(&b);\n";
        let report = lint("crates/x/src/lib.rs", src);
        assert_eq!(report.denied_count(), 1);
        assert_eq!(report.allows_used.len(), 1);
    }

    #[test]
    fn allow_for_the_wrong_rule_suppresses_nothing() {
        let src = "// uni-lint: allow(R1, wrong rule)\nlet o = a.partial_cmp(&b);\n";
        let report = lint("crates/x/src/lib.rs", src);
        assert_eq!(report.denied_count(), 1);
        assert!(report.allows_used.is_empty());
    }

    #[test]
    fn malformed_directive_is_a_denied_finding() {
        let report = lint("crates/x/src/lib.rs", "// uni-lint: allow(R3)\n");
        assert_eq!(report.denied_count(), 1);
        assert_eq!(report.diagnostics[0].rule, "LINT");
    }

    #[test]
    fn allowed_rule_downgrades_unless_deny_all() {
        let src = "let o = a.partial_cmp(&b);\n";
        let mut config = Config::default();
        config.allowed_rules.insert("R3".to_string());
        let mut report = Report::default();
        analyze_source("crates/x/src/lib.rs", src, &config, &mut report);
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.is_clean());

        config.deny_all = true;
        let mut report = Report::default();
        analyze_source("crates/x/src/lib.rs", src, &config, &mut report);
        assert_eq!(report.denied_count(), 1);
    }

    #[test]
    fn json_report_shape_is_stable() {
        let report = lint(
            "crates/x/src/lib.rs",
            "// uni-lint: allow(R3, audited)\nlet o = a.partial_cmp(&b);\nlet p = b.partial_cmp(&a);\n",
        );
        let json = render_json(&report);
        let expected = "{\n  \"version\": 1,\n  \"diagnostics\": [\n    {\"rule\": \"R3\", \"path\": \"crates/x/src/lib.rs\", \"line\": 3, \"col\": 11, \"denied\": true, \"message\": \"partial_cmp orders floats partially (NaN breaks determinism): use f32::total_cmp / f64::total_cmp (found `partial_cmp`)\"}\n  ],\n  \"allows\": [\n    {\"rule\": \"R3\", \"path\": \"crates/x/src/lib.rs\", \"line\": 1, \"reason\": \"audited\"}\n  ],\n  \"summary\": {\"files\": 1, \"findings\": 1, \"denied\": 1, \"allows_used\": 1}\n}\n";
        assert_eq!(json, expected);
    }
}
