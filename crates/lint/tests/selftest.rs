//! Fixture self-tests: every rule must fire on its known-bad fixture
//! and stay silent on the known-good twin, suppression must demand a
//! reason and leave an audit trail, and the JSON report shape must not
//! drift. Fixtures live in `crates/lint/fixtures/` — excluded from
//! directory walks (the corpus must not lint the workspace red) but
//! lintable when passed explicitly, which the CI negative step relies
//! on.

use std::path::Path;
use uni_lint::baseline::Baseline;
use uni_lint::{analyze_files, analyze_source, render_json, Config, Report};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path:?}: {e}"))
}

/// Lints a fixture under a virtual workspace path (which drives rule
/// scoping), exactly as `analyze_source` would see a real file.
fn lint_as(virtual_path: &str, name: &str) -> Report {
    let mut report = Report::default();
    analyze_source(
        virtual_path,
        &fixture(name),
        &Config::default(),
        &mut report,
    );
    report
}

#[test]
fn every_rule_fires_on_bad_and_stays_silent_on_good() {
    let cases = [
        ("R1", "crates/scene/src/fixture.rs"),
        ("R2", "crates/engine/src/fixture.rs"),
        ("R3", "crates/engine/src/fixture.rs"),
        ("R4", "crates/engine/src/sched.rs"),
        ("R5", "crates/engine/src/fixture.rs"),
        ("R6", "crates/engine/src/fixture.rs"),
        ("R7", "crates/renderers/src/fixture.rs"),
    ];
    for (rule, vpath) in cases {
        let stem = rule.to_ascii_lowercase();
        let bad = lint_as(vpath, &format!("{stem}_bad.rs"));
        assert!(
            bad.diagnostics.iter().any(|d| d.rule == rule && d.denied),
            "{rule}: bad fixture must produce a denied {rule} finding, got {:?}",
            bad.diagnostics
        );
        let good = lint_as(vpath, &format!("{stem}_good.rs"));
        assert!(
            good.is_clean() && good.diagnostics.is_empty(),
            "{rule}: good fixture must lint clean, got {:?}",
            good.diagnostics
        );
    }
}

#[test]
fn reasoned_allow_suppresses_and_is_audited() {
    let report = lint_as("crates/engine/src/fixture.rs", "allow_ok.rs");
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(report.allows_used.len(), 1, "the suppression is counted");
    assert_eq!(report.allows_used[0].rule, "R3");
    assert!(
        report.allows_used[0].reason.contains("seed"),
        "the audit trail carries the reason verbatim"
    );
}

#[test]
fn allow_without_reason_is_rejected_and_suppresses_nothing() {
    let report = lint_as("crates/engine/src/fixture.rs", "allow_missing_reason.rs");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "LINT" && d.denied),
        "a reasonless allow is itself a denied finding: {:?}",
        report.diagnostics
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "R3" && d.denied),
        "and the violation it sat on still fires: {:?}",
        report.diagnostics
    );
    assert!(report.allows_used.is_empty());
}

#[test]
fn fixture_corpus_is_excluded_from_directory_walks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = uni_lint::collect_files(root).expect("walk the lint crate");
    assert!(
        files
            .iter()
            .all(|f| !f.components().any(|c| c.as_os_str() == "fixtures")),
        "fixtures must never lint the workspace red: {files:?}"
    );
    assert!(
        files
            .iter()
            .any(|f| f.file_name().is_some_and(|n| n == "lib.rs")),
        "the walk still finds real sources"
    );
}

#[test]
fn injected_fixture_fails_when_passed_explicitly() {
    // The CI negative step runs exactly this file through the binary; the
    // library-level contract is that it produces a denied finding.
    let report = lint_as("crates/lint/fixtures/ci_injected.rs", "ci_injected.rs");
    assert!(!report.is_clean());
}

#[test]
fn interprocedural_rules_fire_on_bad_and_stay_silent_on_good() {
    let cases = [
        ("R8", "crates/renderers/src/fixture.rs"),
        ("R9", "crates/renderers/src/fixture.rs"),
        ("R10", "crates/engine/src/fixture.rs"),
        ("R12", "crates/renderers/src/fixture.rs"),
    ];
    for (rule, vpath) in cases {
        let stem = rule.to_ascii_lowercase();
        let bad = lint_as(vpath, &format!("{stem}_bad.rs"));
        assert!(
            bad.diagnostics.iter().any(|d| d.rule == rule && d.denied),
            "{rule}: bad fixture must produce a denied {rule} finding, got {:?}",
            bad.diagnostics
        );
        let good = lint_as(vpath, &format!("{stem}_good.rs"));
        assert!(
            good.is_clean() && good.diagnostics.is_empty(),
            "{rule}: good fixture must lint clean, got {:?}",
            good.diagnostics
        );
    }
}

#[test]
fn r8_diagnostic_carries_the_call_chain() {
    let report = lint_as("crates/renderers/src/fixture.rs", "r8_bad.rs");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R8")
        .expect("an R8 finding");
    assert!(
        d.message.contains("render_rows -> helper -> deeper -> vec"),
        "the chain names every hop down to the allocation: {}",
        d.message
    );
}

#[test]
fn r12_flags_the_hot_fn_and_its_callees_with_the_chain() {
    let report = lint_as("crates/renderers/src/fixture.rs", "r12_bad.rs");
    let chains: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R12")
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(chains.len(), 2, "{chains:?}");
    assert!(chains
        .iter()
        .any(|m| m.contains("shade_rows -> blend -> exp")));
    assert!(chains.iter().any(|m| m.contains("shade_rows -> sin")));
}

#[test]
fn r10_reports_both_the_cycle_and_the_wait_under_lock() {
    let report = lint_as("crates/engine/src/fixture.rs", "r10_bad.rs");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "R10" && d.message.contains("alpha -> beta -> alpha")),
        "the acquisition cycle is reported with its full loop: {:?}",
        report.diagnostics
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "R10" && d.message.contains("held across `wait`")),
        "the guard held across the ticket wait is reported: {:?}",
        report.diagnostics
    );
}

#[test]
fn call_graph_handles_recursion() {
    let src = "// uni-lint: hot\nfn spin(n: usize) -> usize {\n    if n == 0 {\n        leaf()\n    } else {\n        spin(n - 1)\n    }\n}\nfn leaf() -> usize {\n    let v = vec![1];\n    v.len()\n}\n";
    let report = analyze_files(
        &[("crates/x/src/a.rs".to_string(), src.to_string())],
        &Config::default(),
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "R8" && d.message.contains("spin -> leaf")),
        "recursion must terminate and still reach the leaf: {:?}",
        report.diagnostics
    );
}

#[test]
fn ambiguous_method_calls_link_to_every_candidate() {
    // `w.step()` cannot be type-resolved from tokens; the conservative
    // resolution links it to both `step` impls, so B::step's allocation
    // is found.
    let caller = "// uni-lint: hot\nfn hot_entry(w: &W) -> usize {\n    w.step()\n}\n";
    let defs = "struct A;\nimpl A {\n    fn step(&self) -> usize {\n        1\n    }\n}\nstruct B;\nimpl B {\n    fn step(&self) -> usize {\n        let v = vec![2];\n        v.len()\n    }\n}\n";
    let report = analyze_files(
        &[
            ("crates/x/src/caller.rs".to_string(), caller.to_string()),
            ("crates/y/src/defs.rs".to_string(), defs.to_string()),
        ],
        &Config::default(),
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "R8" && d.message.contains("B::step")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn self_calls_resolve_within_their_own_impl() {
    // `self.tick()` in A must bind to A::tick only — B::tick's
    // allocation is unreachable from the hot fn.
    let src = "struct A;\nimpl A {\n    // uni-lint: hot\n    fn run(&self) -> usize {\n        self.tick()\n    }\n    fn tick(&self) -> usize {\n        1\n    }\n}\nstruct B;\nimpl B {\n    fn tick(&self) -> usize {\n        let v = vec![1];\n        v.len()\n    }\n}\n";
    let report = analyze_files(
        &[("crates/x/src/a.rs".to_string(), src.to_string())],
        &Config::default(),
    );
    assert!(
        !report.diagnostics.iter().any(|d| d.rule == "R8"),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn cross_crate_free_fn_chains_resolve() {
    let hot = "// uni-lint: hot\nfn render(n: usize) -> usize {\n    shared_helper(n)\n}\n";
    let lib =
        "pub fn shared_helper(n: usize) -> usize {\n    let v = vec![0u8; n];\n    v.len()\n}\n";
    let report = analyze_files(
        &[
            ("crates/renderers/src/hot.rs".to_string(), hot.to_string()),
            ("crates/geometry/src/lib.rs".to_string(), lib.to_string()),
        ],
        &Config::default(),
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "R8" && d.message.contains("render -> shared_helper -> vec")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn findings_sort_by_path_regardless_of_input_order() {
    let src = "fn f(a: f32, b: f32) {\n    a.partial_cmp(&b);\n}\n".to_string();
    let report = analyze_files(
        &[("b.rs".to_string(), src.clone()), ("a.rs".to_string(), src)],
        &Config::default(),
    );
    let paths: Vec<&str> = report.diagnostics.iter().map(|d| d.path.as_str()).collect();
    assert_eq!(paths, ["a.rs", "b.rs"], "output order is walk-independent");
}

#[test]
fn r11_new_suppression_is_denied_without_blessing() {
    let mut report = lint_as("crates/engine/src/fixture.rs", "r11_bad.rs");
    assert!(report.is_clean(), "the allow suppresses the R3 finding");
    let notes = Baseline::default().rebase(&mut report);
    assert!(notes.is_empty());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "R11" && d.denied),
        "an unblessed suppression is itself a denied finding: {:?}",
        report.diagnostics
    );
}

#[test]
fn r11_blessed_suppression_passes_and_baseline_roundtrips() {
    let mut report = lint_as("crates/engine/src/fixture.rs", "r11_good.rs");
    let snapshot = Baseline::from_report(&report);
    let parsed = Baseline::parse(&snapshot.render()).expect("rendered baseline parses back");
    assert_eq!(parsed, snapshot, "render/parse roundtrip is lossless");
    let notes = parsed.rebase(&mut report);
    assert!(notes.is_empty());
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(report.allows_used.len(), 1);
}

#[test]
fn r11_baseline_downgrades_known_findings_but_not_new_ones() {
    let mut old = lint_as("crates/engine/src/fixture.rs", "r3_bad.rs");
    let snapshot = Baseline::from_report(&old);
    snapshot.rebase(&mut old);
    assert!(
        old.is_clean(),
        "a baselined finding downgrades to warn: {:?}",
        old.diagnostics
    );
    assert!(!old.diagnostics.is_empty(), "…but it is still reported");

    // The same violation appearing in a *new* file stays denied.
    let src = fixture("r3_bad.rs");
    let mut fresh = analyze_files(
        &[
            ("crates/engine/src/fixture.rs".to_string(), src.clone()),
            ("crates/engine/src/other.rs".to_string(), src),
        ],
        &Config::default(),
    );
    snapshot.rebase(&mut fresh);
    assert_eq!(fresh.denied_count(), 1, "{:?}", fresh.diagnostics);
}

#[test]
fn the_linter_lints_its_own_sources_clean() {
    // The lint crate's src/ is part of the default walk (skip_dir only
    // excludes the fixture corpus), so it must hold its own contracts —
    // including the interprocedural ones — under deny-all.
    let lint_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let files = uni_lint::collect_files(&lint_src).expect("walk lint src");
    assert!(
        files.iter().any(|f| f.ends_with("graph.rs")),
        "the walk sees the linter's own modules: {files:?}"
    );
    let config = Config {
        deny_all: true,
        ..Config::default()
    };
    let report = uni_lint::run(&lint_src, &files, &config).expect("lint the linter");
    assert!(report.is_clean(), "{:?}", report.diagnostics);
}

#[test]
fn injected_r8_fixture_fails_when_passed_explicitly() {
    // The CI negative step runs exactly this file through the binary.
    let report = lint_as(
        "crates/lint/fixtures/ci_injected_r8.rs",
        "ci_injected_r8.rs",
    );
    assert!(!report.is_clean());
    assert!(report.diagnostics.iter().any(|d| d.rule == "R8"));
}

#[test]
fn json_snapshot_of_the_injected_r8_fixture() {
    let report = lint_as("ci_injected_r8.rs", "ci_injected_r8.rs");
    let json = render_json(&report);
    let expected = "{\n  \"version\": 1,\n  \"diagnostics\": [\n    {\"rule\": \"R8\", \"path\": \"ci_injected_r8.rs\", \"line\": 15, \"col\": 15, \"denied\": true, \"message\": \"allocation in a fn reachable from a `// uni-lint: hot` fn: render_rows -> helper -> deeper -> vec — the whole hot call tree must borrow scratch, not allocate; fix the helper (and mark it hot) or audited-suppress\"}\n  ],\n  \"allows\": [\n  ],\n  \"summary\": {\"files\": 1, \"findings\": 1, \"denied\": 1, \"allows_used\": 0}\n}\n";
    assert_eq!(json, expected);
}

#[test]
fn json_snapshot_of_the_injected_fixture() {
    let report = lint_as("ci_injected.rs", "ci_injected.rs");
    let json = render_json(&report);
    let expected = "{\n  \"version\": 1,\n  \"diagnostics\": [\n    {\"rule\": \"R3\", \"path\": \"ci_injected.rs\", \"line\": 5, \"col\": 7, \"denied\": true, \"message\": \"partial_cmp orders floats partially (NaN breaks determinism): use f32::total_cmp / f64::total_cmp (found `partial_cmp`)\"}\n  ],\n  \"allows\": [\n  ],\n  \"summary\": {\"files\": 1, \"findings\": 1, \"denied\": 1, \"allows_used\": 0}\n}\n";
    assert_eq!(json, expected);
}
