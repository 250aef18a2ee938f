//! The perf ledger's two decoders, through the API the benches and
//! `bench-gate` use: one battery per `records` behaviour instantiated for
//! every record type, and adversarial bytes (ROADMAP aim 3) against both
//! the `BENCH_*.json` reader and the `TOLERANCES.toml` reader.

mod common;

use omen_bench::records::{
    from_json, merge_records, path, read_records, to_json, BenchRecord, KernelRecord, SchedRecord,
    ServeRecord,
};
use omen_num::tolerance::{TolerancePolicy, DEFAULT_POLICY_PATH};
use omen_num::OmenError;
use std::path::PathBuf;

fn krec(kernel: &str, n: usize, simd: bool, gflops: f64) -> KernelRecord {
    KernelRecord {
        kernel: kernel.into(),
        n,
        threads: 4,
        simd,
        median_s: 0.5 * n as f64 * 1e-6,
        min_s: 0.4 * n as f64 * 1e-6,
        gflops,
    }
}

fn srec(case: &str, schedule: &str, ranks: usize, imbalance: f64) -> SchedRecord {
    SchedRecord {
        case: case.into(),
        schedule: schedule.into(),
        ranks,
        units: 64,
        wall_s: 0.25,
        imbalance,
        reissued: 0,
    }
}

fn vrec(case: &str, clients: usize, jobs_per_s: f64) -> ServeRecord {
    ServeRecord {
        case: case.into(),
        clients,
        jobs: 256,
        jobs_per_s,
        p50_ms: 0.2,
        p99_ms: 1.5,
        dedupe_hit_rate: 0.5,
    }
}

/// A fresh scratch file per test: tests run on parallel threads.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("omen_bench_records_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.json"));
    let _ = std::fs::remove_file(&path);
    path
}

fn detail<R: BenchRecord + std::fmt::Debug>(text: &str) -> String {
    match from_json::<R>("doc", text) {
        Err(OmenError::InvalidBaseline { path, detail }) => {
            assert_eq!(path, "doc");
            detail
        }
        other => panic!("expected InvalidBaseline, got {other:?}"),
    }
}

/// One battery per behaviour, instantiated for every record type.
/// `$sorted` is three records in ascending key order, `$update` shares
/// `$sorted[1]`'s key with a different measurement, `$field` is a
/// numeric field, and `$hostile` carries `,`, `}`, `"` and `\` in its
/// name.
macro_rules! battery {
    ($ledger:ident, $R:ty, $sorted:expr, $update:expr, $field:literal, $hostile:expr) => {
        mod $ledger {
            use super::*;

            fn file(test: &str) -> PathBuf {
                scratch(&format!("{}_{test}", stringify!($ledger)))
            }

            #[test]
            fn roundtrip() {
                let records: Vec<$R> = $sorted.to_vec();
                let parsed: Vec<$R> = from_json("test", &to_json(&records)).unwrap();
                assert_eq!(parsed, records);
                let none: Vec<$R> = from_json("test", &to_json::<$R>(&[])).unwrap();
                assert!(none.is_empty());
            }

            #[test]
            fn wrong_or_missing_schema_is_a_clear_error() {
                let v9 = <$R>::SCHEMA.replace("-v1", "-v9");
                let d = detail::<$R>(&format!("{{\"schema\": \"{v9}\"}}"));
                assert!(d.contains(&v9) && d.contains(<$R>::SCHEMA), "{d}");
                assert!(detail::<$R>("").contains("missing schema"));
                let d = detail::<$R>("{\"records\": []}");
                assert!(d.contains("missing schema"), "{d}");
            }

            #[test]
            fn malformed_record_names_its_index_and_field() {
                let good = to_json::<$R>(&$sorted[..2]);
                let tag = format!("\"{}\": ", $field);
                let at = good.rfind(&tag).unwrap() + tag.len();
                let end = at + good[at..].find([',', '}']).unwrap();
                let bad = format!("{}\"wat\"{}", &good[..at], &good[end..]);
                let d = detail::<$R>(&bad);
                assert!(d.contains("record 1"), "{d}");
                assert!(d.contains(&format!("{:?}", $field)), "{d}");
                let cut = format!("{}{}", &good[..at - tag.len()], &good[end + 2..]);
                let d = detail::<$R>(&cut);
                assert!(d.contains("record 1: missing field"), "{d}");
            }

            #[test]
            fn merge_replaces_matching_keys_and_sorts() {
                let path = file("merge");
                let [a, b, c]: [$R; 3] = $sorted;
                merge_records(&path, &[c.clone(), b]).unwrap();
                merge_records(&path, &[$update, a.clone()]).unwrap();
                let all: Vec<$R> = read_records(&path).unwrap();
                assert_eq!(all, vec![a, $update, c]);
                let _ = std::fs::remove_file(&path);
            }

            #[test]
            fn merge_is_idempotent_and_order_independent() {
                let path = file("idem");
                let mut records: Vec<$R> = $sorted.to_vec();
                merge_records(&path, &records).unwrap();
                let first = std::fs::read_to_string(&path).unwrap();
                // Re-running the same bench must not duplicate or
                // reorder anything, nor may the input order matter.
                merge_records(&path, &records).unwrap();
                assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
                records.reverse();
                merge_records(&path, &records).unwrap();
                assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
                let _ = std::fs::remove_file(&path);
            }

            #[test]
            fn failed_merge_leaves_the_file_untouched() {
                let path = file("clobber");
                let v9 = <$R>::SCHEMA.replace("-v1", "-v9");
                let before = format!("{{\"schema\": \"{v9}\", \"records\": []}}");
                std::fs::write(&path, &before).unwrap();
                let err = merge_records::<$R>(&path, &$sorted).unwrap_err();
                assert!(matches!(err, OmenError::InvalidBaseline { .. }), "{err}");
                assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
                let _ = std::fs::remove_file(&path);
            }

            #[test]
            fn hostile_names_roundtrip_and_merge_once() {
                let path = file("hostile");
                let hostile: $R = $hostile;
                let parsed: Vec<$R> =
                    from_json("test", &to_json(std::slice::from_ref(&hostile))).unwrap();
                assert_eq!(parsed, vec![hostile.clone()]);
                merge_records(&path, std::slice::from_ref(&hostile)).unwrap();
                let first = std::fs::read_to_string(&path).unwrap();
                merge_records(&path, std::slice::from_ref(&hostile)).unwrap();
                assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
                assert_eq!(read_records::<$R>(&path).unwrap(), vec![hostile]);
                let _ = std::fs::remove_file(&path);
            }

            #[test]
            fn shipped_baseline_reserialises_byte_identically() {
                let text = std::fs::read_to_string(path::<$R>(false)).unwrap();
                let records: Vec<$R> = from_json("shipped", &text).unwrap();
                assert!(!records.is_empty());
                assert_eq!(to_json(&records), text);
            }
        }
    };
}

const HOSTILE: &str = "a,b}c\"d\\e{f]";

// The scalar/SIMD pair in the middle differs in the `simd` key part
// only: the two dispatch legs must stay separate rows.
battery!(
    kernels,
    KernelRecord,
    [
        krec("gemm", 128, false, 7.5),
        krec("gemm", 128, true, 20.0),
        krec("lu", 64, false, 1.0)
    ],
    krec("gemm", 128, true, 25.0),
    "n",
    krec(HOSTILE, 8, false, 1.0)
);
battery!(
    sched,
    SchedRecord,
    [
        srec("edge", "dynamic", 3, 1.2),
        srec("edge", "dynamic", 4, 1.1),
        srec("edge", "static", 4, 2.5)
    ],
    srec("edge", "dynamic", 4, 1.05),
    "imbalance",
    srec(HOSTILE, HOSTILE, 4, 1.0)
);
battery!(
    serve,
    ServeRecord,
    [
        vrec("dedupe-storm", 4, 2.1e4),
        vrec("dedupe-storm", 8, 3.0e4),
        vrec("unique-jobs", 4, 9.5e3)
    ],
    vrec("dedupe-storm", 8, 3.5e4),
    "jobs_per_s",
    vrec(HOSTILE, 4, 1.0e4)
);

#[test]
fn pre_simd_kernel_records_parse_as_scalar() {
    let legacy = to_json(&[krec("gemm", 64, true, 2.0)]).replace("\"simd\": true, ", "");
    assert!(!legacy.contains("simd"));
    let parsed: Vec<KernelRecord> = from_json("test", &legacy).unwrap();
    assert_eq!(parsed, vec![krec("gemm", 64, false, 2.0)]);
}

/// [`common::mutants`] of a text document, as the (lossily decoded) strings
/// its reader takes.
fn mutants(text: &[u8]) -> impl Iterator<Item = String> + '_ {
    common::mutants(text).map(|m| String::from_utf8_lossy(&m).into_owned())
}

fn ledger_survives<R: BenchRecord>() {
    let text = std::fs::read(path::<R>(false)).unwrap();
    for mutant in mutants(&text) {
        match from_json::<R>("mutant", &mutant) {
            Ok(_) | Err(OmenError::InvalidBaseline { .. }) => {}
            Err(other) => panic!("untyped failure {other} on {mutant:?}"),
        }
    }
}

#[test]
fn mutated_ledgers_parse_or_fail_as_invalid_baseline() {
    ledger_survives::<KernelRecord>();
    ledger_survives::<SchedRecord>();
    ledger_survives::<ServeRecord>();
}

#[test]
fn mutated_policy_parses_or_fails_as_invalid_policy() {
    let text = std::fs::read(DEFAULT_POLICY_PATH).unwrap();
    for mutant in mutants(&text) {
        match TolerancePolicy::parse("mutant", &mutant) {
            Ok(_) | Err(OmenError::InvalidPolicy { .. }) => {}
            Err(other) => panic!("untyped failure {other} on {mutant:?}"),
        }
    }
}
