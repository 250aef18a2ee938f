//! Call-graph tests: the rules that read effect summaries (`spmd-divergence`
//! through calls, `protocol-early-exit`, `tag-conflict`) run through
//! [`analyze_sources`] on seeded trip/clean fixture pairs, plus
//! effect-propagation depth and recursive-cycle coverage.

use omen_analyze::{analyze_sources, FileClass, Finding, TargetKind};

fn run_one(path: &str, src: &str, crate_name: &str, kind: TargetKind) -> Vec<Finding> {
    let files = vec![(
        path.to_string(),
        src.to_string(),
        FileClass {
            crate_name: crate_name.to_string(),
            kind,
        },
    )];
    analyze_sources(&files)
}

fn by_rule<'a>(f: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    f.iter().filter(|x| x.rule == rule).collect()
}

// --- spmd-divergence through calls -----------------------------------------

#[test]
fn interproc_trip_fires_through_the_helper() {
    let f = run_one(
        "crates/parsim/src/trip.rs",
        include_str!("fixtures/interproc_trip.rs"),
        "parsim",
        TargetKind::Lib,
    );
    // The collective is behind `sync_halo`: the one finding is the call in
    // the rank branch, with the helper on its witness chain.
    let hits = by_rule(&f, "spmd-divergence");
    assert_eq!(hits.len(), 1, "findings: {f:?}");
    assert_eq!(hits[0].line, 27, "{}", hits[0].message);
    assert!(hits[0].message.contains("`bcast`"), "{}", hits[0].message);
    assert!(
        hits[0].message.contains("sync_halo()"),
        "{}",
        hits[0].message
    );
}

#[test]
fn interproc_clean_twin_is_silent() {
    let f = run_one(
        "crates/parsim/src/clean.rs",
        include_str!("fixtures/interproc_clean.rs"),
        "parsim",
        TargetKind::Lib,
    );
    assert!(
        by_rule(&f, "spmd-divergence").is_empty(),
        "unexpected: {f:?}"
    );
}

#[test]
fn allgather_and_agree_are_collectives_directly_and_through_calls() {
    let f = run_one(
        "crates/negf/src/trip.rs",
        include_str!("fixtures/allgather_trip.rs"),
        "negf",
        TargetKind::Lib,
    );
    let hits = by_rule(&f, "spmd-divergence");
    assert_eq!(hits.len(), 3, "findings: {f:?}");
    assert!(hits[0].message.contains("`allgather`"), "{hits:?}");
    assert!(hits[1].message.contains("`agree`"), "{hits:?}");
    // The third is hidden behind `phase_health`.
    assert!(hits[2].message.contains("`agree`"), "{}", hits[2].message);
    assert!(
        hits[2].message.contains("phase_health()"),
        "{}",
        hits[2].message
    );

    let f = run_one(
        "crates/negf/src/clean.rs",
        include_str!("fixtures/allgather_clean.rs"),
        "negf",
        TargetKind::Lib,
    );
    assert!(
        by_rule(&f, "spmd-divergence").is_empty(),
        "unexpected: {f:?}"
    );
}

#[test]
fn interproc_resolves_helpers_across_files_in_the_same_crate() {
    let helper = "pub struct Comm;\n\
         impl Comm {\n\
             pub fn rank(&self) -> usize { 0 }\n\
             pub fn barrier(&self) {}\n\
         }\n\
         pub fn quiesce(comm: &Comm) {\n\
             comm.barrier();\n\
         }\n";
    let driver = "use crate::halo::{quiesce, Comm};\n\
         pub fn step(comm: &Comm) {\n\
             let me = comm.rank();\n\
             if me == 0 {\n\
                 quiesce(comm);\n\
             }\n\
         }\n";
    let class = |_| FileClass {
        crate_name: "negf".to_string(),
        kind: TargetKind::Lib,
    };
    let files = vec![
        (
            "crates/negf/src/halo.rs".to_string(),
            helper.to_string(),
            class(0),
        ),
        (
            "crates/negf/src/driver.rs".to_string(),
            driver.to_string(),
            class(1),
        ),
    ];
    let f = analyze_sources(&files);
    let hits = by_rule(&f, "spmd-divergence");
    assert_eq!(hits.len(), 1, "findings: {f:?}");
    assert_eq!(hits[0].path, "crates/negf/src/driver.rs");
    assert!(
        hits[0].message.contains("crates/negf/src/halo.rs"),
        "witness should point at the helper file: {}",
        hits[0].message
    );
}

// --- effect propagation depth ----------------------------------------------

#[test]
fn collectives_propagate_one_two_and_three_calls_deep() {
    let f = run_one(
        "crates/parsim/src/depth.rs",
        include_str!("fixtures/effects_depth.rs"),
        "parsim",
        TargetKind::Lib,
    );
    let hits = by_rule(&f, "spmd-divergence");
    assert_eq!(hits.len(), 3, "findings: {f:?}");
    for chain in [
        "depth1()",
        "depth2() -> depth1()",
        "depth3() -> depth2() -> depth1()",
    ] {
        assert!(
            hits.iter().any(|x| x.message.contains(chain)),
            "missing chain {chain}: {hits:?}"
        );
    }
}

#[test]
fn recursive_cycle_terminates_and_reports_conservatively() {
    let f = run_one(
        "crates/parsim/src/cycle.rs",
        include_str!("fixtures/effects_recursive.rs"),
        "parsim",
        TargetKind::Lib,
    );
    let hits = by_rule(&f, "spmd-divergence");
    assert_eq!(hits.len(), 1, "findings: {f:?}");
    assert!(
        hits[0].message.contains("ping()"),
        "entry call into the cycle should be the witness head: {}",
        hits[0].message
    );
}

// --- protocol-early-exit ----------------------------------------------------

#[test]
fn early_exit_trip_flags_the_question_mark_inside_the_epoch() {
    let f = run_one(
        "crates/parsim/src/epoch.rs",
        include_str!("fixtures/early_exit_trip.rs"),
        "parsim",
        TargetKind::Lib,
    );
    let hits = by_rule(&f, "protocol-early-exit");
    assert_eq!(hits.len(), 1, "findings: {f:?}");
    assert!(hits[0].message.contains("epoch"), "{}", hits[0].message);
    assert!(hits[0].message.contains("run_epoch"), "{}", hits[0].message);
}

#[test]
fn early_exit_clean_twin_is_silent() {
    let f = run_one(
        "crates/parsim/src/epoch_ok.rs",
        include_str!("fixtures/early_exit_clean.rs"),
        "parsim",
        TargetKind::Lib,
    );
    assert!(
        by_rule(&f, "protocol-early-exit").is_empty(),
        "unexpected: {f:?}"
    );
}

#[test]
fn early_exit_is_scoped_to_lib_and_bin_non_test_code() {
    let f = run_one(
        "crates/parsim/tests/epoch.rs",
        include_str!("fixtures/early_exit_trip.rs"),
        "parsim",
        TargetKind::Test,
    );
    assert!(
        by_rule(&f, "protocol-early-exit").is_empty(),
        "test targets are out of scope: {f:?}"
    );
}

// --- tag-conflict -----------------------------------------------------------

#[test]
fn tag_conflict_trip_flags_the_shared_tag() {
    let f = run_one(
        "crates/parsim/src/tags.rs",
        include_str!("fixtures/tag_conflict_trip.rs"),
        "parsim",
        TargetKind::Lib,
    );
    let hits = by_rule(&f, "tag-conflict");
    assert_eq!(hits.len(), 1, "findings: {f:?}");
    assert!(hits[0].message.contains("TAG_HALO"), "{}", hits[0].message);
    assert!(
        hits[0].message.contains("exchange_left") && hits[0].message.contains("exchange_right"),
        "both phases should be named: {}",
        hits[0].message
    );
}

#[test]
fn tag_conflict_clean_twin_is_silent() {
    let f = run_one(
        "crates/parsim/src/tags_ok.rs",
        include_str!("fixtures/tag_conflict_clean.rs"),
        "parsim",
        TargetKind::Lib,
    );
    assert!(by_rule(&f, "tag-conflict").is_empty(), "unexpected: {f:?}");
}

// --- allow semantics reach the call-graph half --------------------------------

#[test]
fn interproc_findings_honor_allow_annotations() {
    let src = include_str!("fixtures/interproc_trip.rs").replace(
        "let _ = sync_halo(comm, Vec::new());",
        "// analyze: allow(spmd-divergence, fixture: rank 0 re-syncs alone by design)\n        let _ = sync_halo(comm, Vec::new());",
    );
    let f = run_one("crates/parsim/src/trip.rs", &src, "parsim", TargetKind::Lib);
    assert!(
        by_rule(&f, "spmd-divergence").is_empty(),
        "allow should suppress the finding: {f:?}"
    );
}
