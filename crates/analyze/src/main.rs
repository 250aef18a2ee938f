//! omen-analyze CLI — runs the domain lints over the workspace.
//!
//! ```sh
//! cargo run --release -p omen-analyze                # warn mode
//! cargo run --release -p omen-analyze -- --deny-all  # CI gate: exit 1 on findings
//! cargo run --release -p omen-analyze -- --list-rules
//! cargo run --release -p omen-analyze -- --rule spmd-divergence crates/parsim
//! ```
//!
//! Exit codes: 0 clean (or findings in warn mode), 1 findings under
//! `--deny-all`, 2 usage or I/O error.

use omen_analyze::{analyze_sources, classify, walk_workspace, FileClass, Finding, RULES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    deny_all: bool,
    list_rules: bool,
    rules: Vec<String>,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny_all: false,
        list_rules: false,
        rules: Vec::new(),
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny-all" => args.deny_all = true,
            "--list-rules" => args.list_rules = true,
            "--rule" => {
                let name = it.next().ok_or("--rule requires a rule name")?;
                if !RULES.iter().any(|r| r.name == name) {
                    return Err(format!("unknown rule `{name}` (try --list-rules)"));
                }
                args.rules.push(name);
            }
            "--help" | "-h" => {
                println!(
                    "usage: omen-analyze [--deny-all] [--list-rules] [--rule NAME]... [PATH]..."
                );
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    Ok(args)
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omen-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        println!("{:<26} {:<88} scope", "rule", "summary");
        println!("{} {} {}", "-".repeat(26), "-".repeat(88), "-".repeat(40));
        for r in RULES {
            println!("{:<26} {:<88} {}", r.name, r.summary, r.scope);
        }
        println!("\nescape hatch: // analyze: allow(<rule>, <reason>)");
        return ExitCode::SUCCESS;
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("omen-analyze: cannot read cwd: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match find_workspace_root(&cwd) {
        Some(r) => r,
        None => cwd.clone(),
    };

    // Explicit paths are taken as given (files or directories); the default
    // is the whole workspace.
    let mut files: Vec<PathBuf> = Vec::new();
    let targets = if args.paths.is_empty() {
        vec![root.clone()]
    } else {
        args.paths.clone()
    };
    for t in &targets {
        let t = if t.is_absolute() {
            t.clone()
        } else {
            cwd.join(t)
        };
        if t.is_dir() {
            match walk_workspace(&t) {
                Ok(mut v) => files.append(&mut v),
                Err(e) => {
                    eprintln!("omen-analyze: walking {}: {e}", t.display());
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(t);
        }
    }
    files.sort();
    files.dedup();

    let started = Instant::now();
    let mut sources: Vec<(String, String, FileClass)> = Vec::with_capacity(files.len());
    for f in &files {
        let src = match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("omen-analyze: reading {}: {e}", f.display());
                return ExitCode::from(2);
            }
        };
        let rel = f.strip_prefix(&root).unwrap_or(f);
        let class = classify(rel);
        sources.push((rel.display().to_string(), src, class));
    }
    let scanned = sources.len();
    let findings: Vec<Finding> = analyze_sources(&sources)
        .into_iter()
        .filter(|fd| args.rules.is_empty() || args.rules.iter().any(|r| r == fd.rule))
        .collect();
    let wall_ms = started.elapsed().as_millis();

    for fd in &findings {
        println!("{}:{}: [{}] {}", fd.path, fd.line, fd.rule, fd.message);
    }
    // Per-rule counts, findings first, then silent rules — CI surfaces
    // this as the analyzer scoreboard.
    let mut counts: Vec<(usize, &str)> = RULES
        .iter()
        .map(|r| (findings.iter().filter(|f| f.rule == r.name).count(), r.name))
        .collect();
    counts.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
    let line = counts
        .iter()
        .map(|(n, name)| format!("{name}={n}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("omen-analyze: per-rule {line}");
    let verdict = if findings.is_empty() {
        "clean"
    } else {
        "dirty"
    };
    println!(
        "omen-analyze: {} finding(s) in {scanned} file(s) in {wall_ms} ms — {verdict}",
        findings.len()
    );

    if args.deny_all && !findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
