//! Fixture tests: one trip + one clean fixture per analyzer rule, plus
//! classification and allow-annotation semantics.

use omen_analyze::{analyze_source, classify, FileClass, Finding, TargetKind, RULES};
use std::path::Path;

fn run(src: &str, crate_name: &str, kind: TargetKind) -> Vec<Finding> {
    let class = FileClass {
        crate_name: crate_name.to_string(),
        kind,
    };
    analyze_source("fixture.rs", src, &class)
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

// --- float-eq --------------------------------------------------------------

#[test]
fn float_eq_trip_fixture() {
    let f = run(
        include_str!("fixtures/float_eq_trip.rs"),
        "linalg",
        TargetKind::Lib,
    );
    assert_eq!(
        f.iter().filter(|x| x.rule == "float-eq").count(),
        3,
        "findings: {f:?}"
    );
}

#[test]
fn float_eq_clean_fixture() {
    let f = run(
        include_str!("fixtures/float_eq_clean.rs"),
        "linalg",
        TargetKind::Lib,
    );
    assert!(f.iter().all(|x| x.rule != "float-eq"), "unexpected: {f:?}");
}

#[test]
fn float_eq_out_of_scope_crates_are_exempt() {
    let f = run(
        include_str!("fixtures/float_eq_trip.rs"),
        "lattice",
        TargetKind::Lib,
    );
    assert!(f.iter().all(|x| x.rule != "float-eq"), "unexpected: {f:?}");
}

// --- print-in-lib ----------------------------------------------------------

#[test]
fn print_trip_fixture() {
    let f = run(
        include_str!("fixtures/print_trip.rs"),
        "wf",
        TargetKind::Lib,
    );
    assert_eq!(
        f.iter().filter(|x| x.rule == "print-in-lib").count(),
        4,
        "findings: {f:?}"
    );
}

#[test]
fn print_clean_fixture() {
    let f = run(
        include_str!("fixtures/print_clean.rs"),
        "wf",
        TargetKind::Lib,
    );
    assert!(
        f.iter().all(|x| x.rule != "print-in-lib"),
        "unexpected: {f:?}"
    );
}

#[test]
fn prints_are_fine_in_bins_and_bench_crate() {
    let src = include_str!("fixtures/print_trip.rs");
    for (crate_name, kind) in [
        ("wf", TargetKind::Bin),
        ("wf", TargetKind::Example),
        ("bench", TargetKind::Lib),
    ] {
        let f = run(src, crate_name, kind);
        assert!(
            f.iter().all(|x| x.rule != "print-in-lib"),
            "{crate_name}/{kind:?}: {f:?}"
        );
    }
}

// --- errors-doc ------------------------------------------------------------

#[test]
fn errors_doc_trip_fixture() {
    let f = run(
        include_str!("fixtures/errors_doc_trip.rs"),
        "num",
        TargetKind::Lib,
    );
    let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == "errors-doc").collect();
    assert_eq!(hits.len(), 2, "findings: {f:?}");
    assert!(hits.iter().any(|x| x.message.contains("parse_header")));
    assert!(hits.iter().any(|x| x.message.contains("bare_undocumented")));
}

#[test]
fn errors_doc_clean_fixture() {
    let f = run(
        include_str!("fixtures/errors_doc_clean.rs"),
        "num",
        TargetKind::Lib,
    );
    assert!(
        f.iter().all(|x| x.rule != "errors-doc"),
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
    let src = "pub fn f(x: f64) -> bool {\n    let a = x == 0.0; // analyze: allow(float-eq, trailing)\n    let b = x == 1.0;\n    a && b\n}\n";
    let f = run(src, "linalg", TargetKind::Lib);
    let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == "float-eq").collect();
    assert_eq!(hits.len(), 1, "{f:?}");
    assert_eq!(hits[0].line, 3);
}

#[test]
fn own_line_allow_covers_the_block_it_opens() {
    let src = "// analyze: allow(float-eq, whole fn)\npub fn f(x: f64) -> bool {\n    x == 0.0\n}\npub fn g(x: f64) -> bool {\n    x == 2.0\n}\n";
    let f = run(src, "linalg", TargetKind::Lib);
    let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == "float-eq").collect();
    assert_eq!(hits.len(), 1, "{f:?}");
    assert_eq!(hits[0].line, 6);
}

#[test]
fn allow_for_one_rule_does_not_suppress_another() {
    let src = "pub fn f(x: f64) -> bool {\n    // analyze: allow(print-in-lib, wrong rule)\n    x == 0.0\n}\n";
    let f = run(src, "linalg", TargetKind::Lib);
    assert_eq!(f.iter().filter(|x| x.rule == "float-eq").count(), 1);
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
            "spmd-divergence-interproc",
            "protocol-early-exit",
            "tag-conflict",
            "float-eq",
            "print-in-lib",
            "errors-doc",
            "tolerance-literal"
        ]
    );
}
