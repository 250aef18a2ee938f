//! Fixture tests for the direct half of `spmd-divergence` and for
//! `tolerance-literal` (one trip + one clean fixture each), plus
//! classification and allow-annotation semantics. The call-graph rules
//! have theirs in `interproc.rs`.

use omen_analyze::{analyze_sources, classify, FileClass, Finding, TargetKind, RULES};
use std::path::Path;

fn run(src: &str, crate_name: &str, kind: TargetKind) -> Vec<Finding> {
    let class = FileClass {
        crate_name: crate_name.to_string(),
        kind,
    };
    analyze_sources(&[("fixture.rs".to_string(), src.to_string(), class)])
}

// --- spmd-divergence -------------------------------------------------------

#[test]
fn spmd_trip_fixture() {
    let f = run(
        include_str!("fixtures/spmd_trip.rs"),
        "omen",
        TargetKind::Lib,
    );
    let spmd: Vec<&Finding> = f.iter().filter(|x| x.rule == "spmd-divergence").collect();
    // bcast, barrier, allreduce_sum (else arm), gather (match arm), split
    // (nested if) — five divergent collectives.
    assert_eq!(spmd.len(), 5, "findings: {f:?}");
    for name in ["bcast", "barrier", "allreduce_sum", "gather", "split"] {
        assert!(
            spmd.iter()
                .any(|x| x.message.contains(&format!("`{name}`"))),
            "missing {name}: {spmd:?}"
        );
    }
}

#[test]
fn spmd_clean_fixture() {
    let f = run(
        include_str!("fixtures/spmd_clean.rs"),
        "omen",
        TargetKind::Lib,
    );
    assert!(
        f.iter().all(|x| x.rule != "spmd-divergence"),
        "unexpected: {f:?}"
    );
}

#[test]
fn string_split_under_rank_is_not_a_collective() {
    // `str::split(pat)` takes one argument, `Comm::split(color, key)` two:
    // the arity table keeps a rank-0-only string split off the schedule.
    let src = "pub fn f(comm: &Comm, s: &str) -> usize {\n    if comm.rank() == 0 {\n        return s.split(',').count();\n    }\n    0\n}\n";
    let f = run(src, "parsim", TargetKind::Lib);
    assert!(
        f.iter().all(|x| x.rule != "spmd-divergence"),
        "unexpected: {f:?}"
    );
}

// --- tolerance-literal -----------------------------------------------------

#[test]
fn tolerance_literal_trip_fixture() {
    let f = run(
        include_str!("fixtures/tolerance_literal_trip.rs"),
        "omen",
        TargetKind::Test,
    );
    let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == "tolerance-literal").collect();
    assert_eq!(hits.len(), 3, "findings: {f:?}");
    for lit in ["1e-12", "2.5e-9", "1E-7"] {
        assert!(
            hits.iter().any(|x| x.message.contains(&format!("`{lit}`"))),
            "missing {lit}: {hits:?}"
        );
    }
}

#[test]
fn tolerance_literal_clean_fixture() {
    let f = run(
        include_str!("fixtures/tolerance_literal_clean.rs"),
        "omen",
        TargetKind::Test,
    );
    assert!(
        f.iter().all(|x| x.rule != "tolerance-literal"),
        "unexpected: {f:?}"
    );
}

#[test]
fn tolerance_literal_only_applies_to_test_targets() {
    let src = include_str!("fixtures/tolerance_literal_trip.rs");
    for kind in [TargetKind::Lib, TargetKind::Bin, TargetKind::Bench] {
        let f = run(src, "num", kind);
        assert!(
            f.iter().all(|x| x.rule != "tolerance-literal"),
            "{kind:?}: {f:?}"
        );
    }
}

// --- allow-annotation semantics -------------------------------------------

#[test]
fn trailing_allow_covers_its_own_line_only() {
    let src = "#[test]\nfn t() {\n    assert!(e() < 1e-9); // analyze: allow(tolerance-literal, trailing)\n    assert!(e() < 1e-9);\n}\n";
    let f = run(src, "omen", TargetKind::Test);
    let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == "tolerance-literal").collect();
    assert_eq!(hits.len(), 1, "{f:?}");
    assert_eq!(hits[0].line, 4);
}

#[test]
fn own_line_allow_covers_the_block_it_opens() {
    let src = "// analyze: allow(tolerance-literal, whole fn)\n#[test]\nfn t() {\n    assert!(e() < 1e-9);\n}\n#[test]\nfn u() {\n    assert!(e() < 1e-9);\n}\n";
    let f = run(src, "omen", TargetKind::Test);
    let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == "tolerance-literal").collect();
    assert_eq!(hits.len(), 1, "{f:?}");
    assert_eq!(hits[0].line, 8);
}

#[test]
fn allow_for_one_rule_does_not_suppress_another() {
    let src = "#[test]\nfn t() {\n    // analyze: allow(spmd-divergence, wrong rule)\n    assert!(e() < 1e-9);\n}\n";
    let f = run(src, "omen", TargetKind::Test);
    assert_eq!(
        f.iter().filter(|x| x.rule == "tolerance-literal").count(),
        1
    );
}

// --- classification --------------------------------------------------------

#[test]
fn path_classification() {
    let cases = [
        ("crates/negf/src/rgf.rs", "negf", TargetKind::Lib),
        ("crates/bench/src/bin/fig6.rs", "bench", TargetKind::Bin),
        ("crates/num/tests/props.rs", "num", TargetKind::Test),
        ("crates/wf/benches/solve.rs", "wf", TargetKind::Bench),
        ("src/lib.rs", "omen", TargetKind::Lib),
        ("src/bin/omen_cli.rs", "omen", TargetKind::Bin),
        ("examples/iv_curve.rs", "omen", TargetKind::Example),
        ("tests/integration.rs", "omen", TargetKind::Test),
    ];
    for (path, crate_name, kind) in cases {
        let c = classify(Path::new(path));
        assert_eq!(c.crate_name, crate_name, "{path}");
        assert_eq!(c.kind, kind, "{path}");
    }
}

#[test]
fn walk_stops_at_nested_workspace_roots() {
    // The standalone `benchmark/` package opens its own `[workspace]`: it
    // is not this workspace's code, so the default walk must not lint it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = omen_analyze::walk_workspace(&root).expect("workspace walks");
    let rel = |f: &std::path::PathBuf| f.strip_prefix(&root).expect("under root").to_path_buf();
    assert!(files.iter().any(|f| rel(f) == Path::new("src/lib.rs")));
    assert!(root.join("benchmark/src/main.rs").is_file());
    assert!(!files.iter().any(|f| rel(f).starts_with("benchmark")));
}

#[test]
fn rule_table_is_complete() {
    let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        [
            "spmd-divergence",
            "protocol-early-exit",
            "tag-conflict",
            "tolerance-literal"
        ]
    );
}
