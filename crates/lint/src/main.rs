//! CLI for `uni-lint`.
//!
//! ```text
//! uni-lint [--deny-all] [--json] [--allow RULE]... [--root DIR]
//!          [--baseline FILE] [--write-baseline FILE] [--audit] [PATH]...
//! ```
//!
//! With no `PATH`s the whole workspace is scanned (the directory holding
//! the workspace `Cargo.toml`, found by walking up from the cwd; `--root`
//! overrides). `--baseline` applies the R11 ratchet: findings in the
//! committed snapshot downgrade to warnings, anything new (including any
//! suppression not in the snapshot) stays denied. `--write-baseline`
//! blesses the current state. `--audit` prints every suppression with
//! its mandatory reason. Exit status: 0 clean, 1 findings, 2 usage/IO
//! error.

use std::path::PathBuf;
use std::process::ExitCode;
use uni_lint::{baseline::Baseline, render_json, render_text, rules, run, Config};

fn main() -> ExitCode {
    let mut config = Config::default();
    let mut json = false;
    let mut audit = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => config.deny_all = true,
            "--json" => json = true,
            "--audit" => audit = true,
            "--allow" => match args.next() {
                Some(rule) if rules::rule_by_id(&rule).is_some() => {
                    config.allowed_rules.insert(rule.to_ascii_uppercase());
                }
                Some(rule) => return usage(&format!("unknown rule {rule:?}")),
                None => return usage("--allow needs a rule id (R1..R12)"),
            },
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--baseline" => match args.next() {
                Some(file) => baseline_path = Some(PathBuf::from(file)),
                None => return usage("--baseline needs a file"),
            },
            "--write-baseline" => match args.next() {
                Some(file) => write_baseline = Some(PathBuf::from(file)),
                None => return usage("--write-baseline needs a file"),
            },
            "--rules" => {
                for r in &rules::RULES {
                    println!("{}  {:<24} {}", r.id, r.name, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "uni-lint [--deny-all] [--json] [--allow RULE]... [--root DIR]\n\
                     \x20        [--baseline FILE] [--write-baseline FILE] [--audit] [PATH]...\n\
                     Machine-enforces the workspace determinism & hot-path contracts (see --rules)."
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => return usage(&format!("unknown flag {arg:?}")),
            _ => paths.push(PathBuf::from(arg)),
        }
    }

    let root = root.unwrap_or_else(workspace_root);
    let mut report = match run(&root, &paths, &config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("uni-lint: {err}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = write_baseline {
        let snapshot = Baseline::from_report(&report);
        if let Err(err) = std::fs::write(&path, snapshot.render()) {
            eprintln!("uni-lint: writing {}: {err}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "uni-lint: baseline written to {} ({} finding key(s), {} suppression key(s))",
            path.display(),
            snapshot.findings.len(),
            snapshot.allows.len()
        );
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &baseline_path {
        // Relative baseline paths resolve against the workspace root, so
        // the CI invocation works from any cwd.
        let resolved = if path.is_absolute() {
            path.clone()
        } else {
            root.join(path)
        };
        let src = match std::fs::read_to_string(&resolved) {
            Ok(src) => src,
            Err(err) => {
                eprintln!("uni-lint: reading baseline {}: {err}", resolved.display());
                return ExitCode::from(2);
            }
        };
        let baseline = match Baseline::parse(&src) {
            Ok(b) => b,
            Err(err) => {
                eprintln!("uni-lint: baseline {}: {err}", resolved.display());
                return ExitCode::from(2);
            }
        };
        for note in baseline.rebase(&mut report) {
            eprintln!("uni-lint: note: {note}");
        }
    }

    if json {
        print!("{}", render_json(&report));
    } else {
        print!("{}", render_text(&report));
    }
    if audit {
        println!(
            "uni-lint audit: {} suppression(s) in force",
            report.allows_used.len()
        );
        for a in &report.allows_used {
            println!("  {}:{}: allow({}) — {}", a.path, a.line, a.rule, a.reason);
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("uni-lint: {msg} (try --help)");
    ExitCode::from(2)
}

/// Nearest ancestor of the cwd whose `Cargo.toml` declares a
/// `[workspace]`; falls back to the cwd.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return cwd;
        }
    }
}
