//! Bench-regression gate — compares throughput baselines against the
//! guardbands declared in the repo-root `TOLERANCES.toml`.
//!
//! Two checks, both release-blocking in `ci.sh` (via the `bench-gate`
//! binary in `src/bin/bench_gate.rs`):
//!
//! 1. **Committed-baseline validation** (always): every record in the
//!    committed `BENCH_kernels.json` must clear its `[[kernel_guardband]]`
//!    floor — `reference_gflops · (1 − guardband)` — and a SIMD record may
//!    not be slower than the scalar record of the same
//!    `(kernel, n, threads)`; every record in
//!    `BENCH_sched.json` must stay under its `[[sched_guardband]]`
//!    imbalance ceiling, and every record in `BENCH_serve.json` must
//!    clear its `[[serve_guardband]]` throughput floor and minimum
//!    dedupe hit rate. This is deterministic (no timing involved): it
//!    catches a re-benchmarked baseline that silently regressed past its
//!    guardband at commit time, when the author can still annotate the
//!    policy with a rationale instead of letting the drift land unremarked.
//! 2. **Smoke validation** (`--smoke`): fresh `target/BENCH_*.smoke.json`
//!    records from this very CI run must exist for the current dispatch
//!    leg (`gemm`, `lu`, `trsm`, `inverse`, `selinv` and `contacts_point`),
//!    clear the
//!    catastrophic `[[kernel_smoke_floor]]` throughput floors, stay under the
//!    `[[sched_smoke_floor]]` imbalance ceilings, and clear the
//!    `[[serve_smoke_floor]]` service throughputs. Smoke floors are set an
//!    order of magnitude below any believable machine so they only trip on
//!    a genuine perf catastrophe (e.g. a debug-mode kernel, a scheduler
//!    serializing every unit), never on CI timing noise.
//!
//! Every failed check becomes one human-readable line in a [`GateReport`];
//! the report never short-circuits, so a broken baseline surfaces all of
//! its problems in one run. Records whose *data* is unreadable (missing
//! files, schema mismatches) surface as typed
//! [`OmenError::InvalidBaseline`](omen_num::OmenError) instead — those are
//! harness bugs, not perf regressions, and exit with a different code.

use crate::records::{BenchRecord, KernelRecord, SchedRecord, ServeRecord};
use omen_num::tolerance::TolerancePolicy;
use omen_num::OmenResult;

/// Outcome of one gate pass: how many records were checked and one line
/// per violated guardband. An empty `failures` list means the gate is
/// green.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Number of baseline records inspected.
    pub checked: usize,
    /// One human-readable line per violated check, in record order.
    pub failures: Vec<String>,
}

impl GateReport {
    /// True when every inspected record cleared its guardband.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Folds another report into this one (summing counts, appending
    /// failures) so the binary can print one combined verdict.
    pub fn merge(&mut self, other: GateReport) {
        self.checked += other.checked;
        self.failures.extend(other.failures);
    }

    /// Unwraps a policy lookup for the record `label tag`; a miss becomes
    /// that record's failure line.
    fn resolve<T>(&mut self, label: &str, tag: &str, found: OmenResult<T>) -> Option<T> {
        found
            .map_err(|e| self.failures.push(format!("{label} {tag}: {e}")))
            .ok()
    }
}

/// Runs `check` over every record of a committed ledger. An empty ledger
/// is itself a failure — the gate exists to stop silent drift, and "no
/// records" is the silentest drift of all.
fn committed<R: BenchRecord>(
    what: &str,
    records: &[R],
    mut check: impl FnMut(&R, &mut GateReport),
) -> GateReport {
    let mut report = GateReport::default();
    if records.is_empty() {
        let file = R::NAME;
        report.failures.push(format!(
            "committed {what} baseline has no records (BENCH_{file}.json)"
        ));
    }
    for r in records {
        report.checked += 1;
        check(r, &mut report);
    }
    report
}

/// Validates the committed kernel baseline: every record must have a
/// `[[kernel_guardband]]` group for its `(kernel, simd)` leg and clear
/// the group's floor `reference_gflops · (1 − guardband)`; timings must
/// be finite and positive; and wherever a `(kernel, n, threads)` is
/// recorded on both legs, the SIMD record must be at least as fast as the
/// scalar one — the dispatched path may never lose to the reference.
pub fn check_committed_kernels(policy: &TolerancePolicy, records: &[KernelRecord]) -> GateReport {
    committed("kernel", records, |r, report| {
        let tag = format!("{}/n{}/t{}/simd={}", r.kernel, r.n, r.threads, r.simd);
        let finite_positive = |v: f64| v.is_finite() && v > 0.0;
        if !(finite_positive(r.gflops) && finite_positive(r.median_s) && finite_positive(r.min_s)) {
            report.failures.push(format!(
                "kernel record {tag}: non-finite or non-positive measurement \
                 (gflops {}, median_s {}, min_s {})",
                r.gflops, r.median_s, r.min_s
            ));
            return;
        }
        let found = policy.kernel_guardband(&r.kernel, r.simd);
        let Some(g) = report.resolve("kernel record", &tag, found) else {
            return;
        };
        let floor = g.reference_gflops * (1.0 - g.guardband);
        if r.gflops < floor {
            report.failures.push(format!(
                "kernel record {tag}: {:.3} Gflop/s is below the guardband floor \
                 {floor:.3} (reference {:.3}, band {:.0}%) — re-baseline with a \
                 rationale in TOLERANCES.toml or fix the regression",
                r.gflops,
                g.reference_gflops,
                g.guardband * 100.0
            ));
        }
        let scalar = records.iter().find(|o| {
            r.simd && !o.simd && (&o.kernel, o.n, o.threads) == (&r.kernel, r.n, r.threads)
        });
        if let Some(s) = scalar.filter(|s| r.gflops < s.gflops) {
            report.failures.push(format!(
                "kernel record {tag}: {:.3} Gflop/s loses to the scalar leg's {:.3} — \
                 the dispatched path must never be slower than the reference",
                r.gflops, s.gflops
            ));
        }
    })
}

/// Validates the committed scheduler baseline: every record must have a
/// `[[sched_guardband]]` entry for its `(case, schedule)` pair and stay
/// under the entry's imbalance ceiling; wall time must be finite and
/// positive. A guardband carrying `min_speedup` additionally requires a
/// committed `static` record of the same `(case, ranks)` and enforces
/// `static wall / this wall >= min_speedup` — the dynamic scheduler must
/// actually buy wall clock, not merely balance busy time.
pub fn check_committed_sched(policy: &TolerancePolicy, records: &[SchedRecord]) -> GateReport {
    committed("scheduler", records, |r, report| {
        let tag = format!("{}/{}/r{}", r.case, r.schedule, r.ranks);
        if !(r.wall_s.is_finite() && r.wall_s > 0.0 && r.imbalance.is_finite()) {
            report.failures.push(format!(
                "sched record {tag}: non-finite or non-positive measurement \
                 (wall_s {}, imbalance {})",
                r.wall_s, r.imbalance
            ));
            return;
        }
        let found = policy.sched_guardband(&r.case, &r.schedule);
        let Some(g) = report.resolve("sched record", &tag, found) else {
            return;
        };
        if r.imbalance > g.max_imbalance {
            report.failures.push(format!(
                "sched record {tag}: imbalance {:.3} exceeds the guardband ceiling \
                 {:.3} — re-baseline with a rationale in TOLERANCES.toml or fix the \
                 regression",
                r.imbalance, g.max_imbalance
            ));
        }
        let Some(min) = g.min_speedup else { return };
        let partner = records
            .iter()
            .find(|o| o.case == r.case && o.ranks == r.ranks && o.schedule == "static");
        match partner {
            None => report.failures.push(format!(
                "sched record {tag}: guardband requires min_speedup {min:.2} but \
                 the baseline has no static record for ({}, r{}) to compare \
                 against",
                r.case, r.ranks
            )),
            Some(st) => {
                // Both walls already passed the finite/positive
                // screen above, so the ratio is well-defined.
                let speedup = st.wall_s / r.wall_s;
                if speedup < min {
                    report.failures.push(format!(
                        "sched record {tag}: wall {:.3e} s is only {speedup:.3}× \
                         faster than static's {:.3e} s (floor {min:.2}×) — the \
                         dynamic schedule stopped paying for itself",
                        r.wall_s, st.wall_s
                    ));
                }
            }
        }
    })
}

/// The kernels a `--smoke` run of the kernels bench must record per leg.
const SMOKE_KERNELS: [&str; 6] = ["gemm", "lu", "trsm", "inverse", "selinv", "contacts_point"];

/// Validates fresh `--smoke` kernel records for the current dispatch leg
/// (`simd_leg` is the `simd` flag the running process stamps into
/// records): `gemm`, `lu`, `trsm`, `inverse` and `selinv` (kernels bench)
/// and `contacts_point` (`tab2_flops --json --smoke`) must all be present
/// for that leg —
/// a missing kernel means a smoke bench silently skipped a code path —
/// and every leg record must clear its catastrophic
/// `[[kernel_smoke_floor]]`.
pub fn check_smoke_kernels(
    policy: &TolerancePolicy,
    records: &[KernelRecord],
    simd_leg: bool,
) -> GateReport {
    let mut report = GateReport::default();
    let leg: Vec<&KernelRecord> = records.iter().filter(|r| r.simd == simd_leg).collect();
    for required in SMOKE_KERNELS {
        if !leg.iter().any(|r| r.kernel == required) {
            report.failures.push(format!(
                "no fresh {required} smoke record for the simd={simd_leg} leg — run \
                 `cargo bench -p omen-bench --bench kernels -- --smoke` and \
                 `tab2_flops --json --smoke` on this leg first"
            ));
        }
    }
    for r in leg {
        report.checked += 1;
        let tag = format!("{}/n{}/t{}/simd={}", r.kernel, r.n, r.threads, r.simd);
        let found = policy.kernel_smoke_floor(&r.kernel);
        let Some(f) = report.resolve("smoke record", &tag, found) else {
            continue;
        };
        if !(r.gflops.is_finite() && r.gflops >= f.min_gflops) {
            report.failures.push(format!(
                "smoke record {tag}: {:.3} Gflop/s is below the catastrophic floor \
                 {:.3} — the kernel path is broken, not merely slow",
                r.gflops, f.min_gflops
            ));
        }
    }
    report
}

/// Validates fresh `--smoke` scheduler records: at least one record per
/// schedule (`static`, `dynamic`) must exist, and every record must stay
/// under its `[[sched_smoke_floor]]` imbalance ceiling.
pub fn check_smoke_sched(policy: &TolerancePolicy, records: &[SchedRecord]) -> GateReport {
    let mut report = GateReport::default();
    for required in ["static", "dynamic"] {
        if !records.iter().any(|r| r.schedule == required) {
            report.failures.push(format!(
                "no fresh {required} smoke record — run \
                 `cargo bench -p omen-bench --bench sched -- --smoke` first"
            ));
        }
    }
    for r in records {
        report.checked += 1;
        let tag = format!("{}/{}/r{}", r.case, r.schedule, r.ranks);
        let found = policy.sched_smoke_floor(&r.case, &r.schedule);
        let Some(f) = report.resolve("smoke record", &tag, found) else {
            continue;
        };
        if !(r.imbalance.is_finite() && r.imbalance <= f.max_imbalance) {
            report.failures.push(format!(
                "smoke record {tag}: imbalance {:.3} exceeds the catastrophic \
                 ceiling {:.3} — the scheduler is serializing work, not merely noisy",
                r.imbalance, f.max_imbalance
            ));
        }
    }
    report
}

/// Validates the committed service baseline: every record in
/// `BENCH_serve.json` must have a `[[serve_guardband]]` entry for its
/// `(case, clients)` pair, clear the throughput floor
/// `reference_jobs_per_s · (1 − guardband)`, and meet the entry's
/// minimum dedupe hit rate; latencies must be finite and positive.
pub fn check_committed_serve(policy: &TolerancePolicy, records: &[ServeRecord]) -> GateReport {
    committed("service", records, |r, report| {
        let tag = format!("{}/c{}", r.case, r.clients);
        let finite_positive = |v: f64| v.is_finite() && v > 0.0;
        if !(finite_positive(r.jobs_per_s)
            && finite_positive(r.p50_ms)
            && finite_positive(r.p99_ms)
            && r.dedupe_hit_rate.is_finite()
            && (0.0..=1.0).contains(&r.dedupe_hit_rate))
        {
            report.failures.push(format!(
                "serve record {tag}: non-finite or out-of-range measurement \
                 (jobs_per_s {}, p50_ms {}, p99_ms {}, dedupe_hit_rate {})",
                r.jobs_per_s, r.p50_ms, r.p99_ms, r.dedupe_hit_rate
            ));
            return;
        }
        let found = policy.serve_guardband(&r.case, r.clients);
        let Some(g) = report.resolve("serve record", &tag, found) else {
            return;
        };
        let floor = g.reference_jobs_per_s * (1.0 - g.guardband);
        if r.jobs_per_s < floor {
            report.failures.push(format!(
                "serve record {tag}: {:.3} jobs/s is below the guardband floor \
                 {floor:.3} (reference {:.3}, band {:.0}%) — re-baseline with a \
                 rationale in TOLERANCES.toml or fix the regression",
                r.jobs_per_s,
                g.reference_jobs_per_s,
                g.guardband * 100.0
            ));
        }
        if r.dedupe_hit_rate < g.min_dedupe_hit_rate {
            report.failures.push(format!(
                "serve record {tag}: dedupe hit rate {:.3} is below the policy \
                 minimum {:.3} — the dedupe/cache machinery stopped sharing work",
                r.dedupe_hit_rate, g.min_dedupe_hit_rate
            ));
        }
    })
}

/// Validates fresh `--smoke` service records: both canonical cases
/// (`unique-jobs`, `dedupe-storm`) must be present — a missing case means
/// the smoke bench silently skipped a service path — and every record
/// must clear its catastrophic `[[serve_smoke_floor]]` throughput floor.
pub fn check_smoke_serve(policy: &TolerancePolicy, records: &[ServeRecord]) -> GateReport {
    let mut report = GateReport::default();
    for required in ["unique-jobs", "dedupe-storm"] {
        if !records.iter().any(|r| r.case == required) {
            report.failures.push(format!(
                "no fresh {required} smoke record — run \
                 `cargo bench -p omen-bench --bench serve -- --smoke` first"
            ));
        }
    }
    for r in records {
        report.checked += 1;
        let tag = format!("{}/c{}", r.case, r.clients);
        let found = policy.serve_smoke_floor(&r.case);
        let Some(f) = report.resolve("smoke record", &tag, found) else {
            continue;
        };
        if !(r.jobs_per_s.is_finite() && r.jobs_per_s >= f.min_jobs_per_s) {
            report.failures.push(format!(
                "smoke record {tag}: {:.3} jobs/s is below the catastrophic floor \
                 {:.3} — the service path is broken, not merely slow",
                r.jobs_per_s, f.min_jobs_per_s
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{path, read_records};

    /// A minimal but complete policy for the gate tests: one guardband per
    /// leg with easy round numbers (gemm scalar floor = 10·(1−0.2) = 8).
    fn test_policy() -> TolerancePolicy {
        TolerancePolicy::parse(
            "gate-test",
            r#"
schema = "omen-tolerances-v1"

[[kernel_guardband]]
kernel = "gemm"
simd = false
reference_gflops = 10.0
guardband = 0.2
rationale = "test floor 8.0"

[[kernel_guardband]]
kernel = "lu"
simd = false
reference_gflops = 5.0
guardband = 0.2
rationale = "test floor 4.0"

[[kernel_guardband]]
kernel = "lu"
simd = true
reference_gflops = 5.0
guardband = 0.2
rationale = "test floor 4.0"

[[sched_guardband]]
case = "resonance-comb"
schedule = "dynamic"
max_imbalance = 1.5
rationale = "test ceiling"

[[sched_guardband]]
case = "iv-multibias"
schedule = "dynamic"
max_imbalance = 1.2
min_speedup = 1.5
rationale = "test speedup floor"

[[sched_guardband]]
case = "iv-multibias"
schedule = "static"
max_imbalance = 3.0
rationale = "test bad baseline"

[[kernel_smoke_floor]]
kernel = "gemm"
min_gflops = 0.05
rationale = "catastrophic only"

[[kernel_smoke_floor]]
kernel = "lu"
min_gflops = 0.05
rationale = "catastrophic only"

[[kernel_smoke_floor]]
kernel = "trsm"
min_gflops = 0.05
rationale = "catastrophic only"

[[kernel_smoke_floor]]
kernel = "inverse"
min_gflops = 0.05
rationale = "catastrophic only"

[[kernel_smoke_floor]]
kernel = "selinv"
min_gflops = 0.05
rationale = "catastrophic only"

[[kernel_smoke_floor]]
kernel = "contacts_point"
min_gflops = 0.05
rationale = "catastrophic only"

[[sched_smoke_floor]]
case = "resonance-comb"
schedule = "dynamic"
max_imbalance = 1.9
rationale = "catastrophic only"

[[sched_smoke_floor]]
case = "resonance-comb"
schedule = "static"
max_imbalance = 2.9
rationale = "degenerate comb"

[[serve_guardband]]
case = "unique-jobs"
clients = 4
reference_jobs_per_s = 1000.0
guardband = 0.5
min_dedupe_hit_rate = 0.0
rationale = "test floor 500.0"

[[serve_guardband]]
case = "dedupe-storm"
clients = 4
reference_jobs_per_s = 2000.0
guardband = 0.5
min_dedupe_hit_rate = 0.5
rationale = "test floor 1000.0, storm must share work"

[[serve_smoke_floor]]
case = "unique-jobs"
min_jobs_per_s = 10.0
rationale = "catastrophic only"

[[serve_smoke_floor]]
case = "dedupe-storm"
min_jobs_per_s = 10.0
rationale = "catastrophic only"
"#,
        )
        .expect("test policy parses")
    }

    fn krec(kernel: &str, simd: bool, gflops: f64) -> KernelRecord {
        KernelRecord {
            kernel: kernel.into(),
            n: 64,
            threads: 1,
            simd,
            median_s: 1e-3,
            min_s: 9e-4,
            gflops,
        }
    }

    fn srec(schedule: &str, imbalance: f64) -> SchedRecord {
        SchedRecord {
            case: "resonance-comb".into(),
            schedule: schedule.into(),
            ranks: 4,
            units: 64,
            wall_s: 0.5,
            imbalance,
            reissued: 0,
        }
    }

    fn ivrec(schedule: &str, wall_s: f64) -> SchedRecord {
        SchedRecord {
            case: "iv-multibias".into(),
            schedule: schedule.into(),
            ranks: 4,
            units: 72,
            wall_s,
            imbalance: 1.1,
            reissued: 0,
        }
    }

    #[test]
    fn min_speedup_floor_requires_and_compares_the_static_partner() {
        let policy = test_policy();
        // 2.0× faster than the static partner — clears the 1.5× floor.
        let pair = vec![ivrec("static", 1.0), ivrec("dynamic", 0.5)];
        assert!(check_committed_sched(&policy, &pair).is_clean());
        // 1.25× is under the floor.
        let slow = vec![ivrec("static", 1.0), ivrec("dynamic", 0.8)];
        let report = check_committed_sched(&policy, &slow);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(
            report.failures[0].contains("stopped paying for itself"),
            "{:?}",
            report.failures
        );
        // A static partner at a different rank count does not satisfy the
        // comparison — the floor is per (case, ranks).
        let mut other_ranks = ivrec("static", 1.0);
        other_ranks.ranks = 8;
        let report = check_committed_sched(&policy, &[other_ranks, ivrec("dynamic", 0.5)]);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(
            report.failures[0].contains("no static record"),
            "{:?}",
            report.failures
        );
    }

    /// The acceptance criterion for the gate: a committed record
    /// hand-degraded below its guardband floor must fail, and restoring
    /// it must pass again.
    #[test]
    fn hand_degraded_committed_record_fails_and_reverted_passes() {
        let policy = test_policy();
        let healthy = vec![krec("gemm", false, 9.5), krec("lu", false, 4.5)];
        assert!(check_committed_kernels(&policy, &healthy).is_clean());

        let mut degraded = healthy.clone();
        degraded[0].gflops = 7.9; // just below the 8.0 floor
        let report = check_committed_kernels(&policy, &degraded);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("guardband floor 8.000"));
        assert!(report.failures[0].contains("gemm/n64/t1/simd=false"));

        degraded[0].gflops = healthy[0].gflops; // revert — green again
        assert!(check_committed_kernels(&policy, &degraded).is_clean());
    }

    #[test]
    fn committed_record_without_a_guardband_entry_fails() {
        let policy = test_policy();
        let report = check_committed_kernels(&policy, &[krec("gemm", true, 50.0)]);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("no kernel_guardband"));
    }

    /// A SIMD record hand-degraded below the scalar record of the same
    /// `(kernel, n, threads)` trips the gate even though it clears its own
    /// guardband floor; restoring it passes, and records at another size
    /// or thread count are no partner.
    #[test]
    fn simd_record_slower_than_its_scalar_partner_fails() {
        let policy = test_policy();
        let healthy = vec![krec("lu", false, 16.0), krec("lu", true, 19.0)];
        assert!(check_committed_kernels(&policy, &healthy).is_clean());

        let mut degraded = healthy.clone();
        degraded[1].gflops = 11.3; // above the 4.0 floor, below scalar
        let report = check_committed_kernels(&policy, &degraded);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("lu/n64/t1/simd=true"));
        assert!(report.failures[0].contains("loses to the scalar leg's 16.000"));

        degraded[1].gflops = healthy[1].gflops; // revert — green again
        assert!(check_committed_kernels(&policy, &degraded).is_clean());

        let mut other_size = krec("lu", false, 50.0);
        other_size.n = 128;
        let mut other_width = krec("lu", false, 50.0);
        other_width.threads = 2;
        let unpaired = vec![other_size, other_width, krec("lu", true, 19.0)];
        assert!(check_committed_kernels(&policy, &unpaired).is_clean());
    }

    #[test]
    fn non_finite_committed_measurements_fail() {
        let policy = test_policy();
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let report = check_committed_kernels(&policy, &[krec("gemm", false, bad)]);
            assert_eq!(report.failures.len(), 1, "gflops {bad} must fail");
            assert!(report.failures[0].contains("non-finite or non-positive"));
        }
        let mut r = krec("gemm", false, 9.0);
        r.median_s = f64::NAN;
        assert!(!check_committed_kernels(&policy, &[r]).is_clean());
    }

    #[test]
    fn empty_committed_baselines_fail() {
        let policy = test_policy();
        assert!(!check_committed_kernels(&policy, &[]).is_clean());
        assert!(!check_committed_sched(&policy, &[]).is_clean());
    }

    #[test]
    fn sched_imbalance_past_its_ceiling_fails() {
        let policy = test_policy();
        assert!(check_committed_sched(&policy, &[srec("dynamic", 1.4)]).is_clean());
        let report = check_committed_sched(&policy, &[srec("dynamic", 1.6)]);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("exceeds the guardband ceiling"));
        // No guardband for the static schedule in the test policy.
        assert!(!check_committed_sched(&policy, &[srec("static", 1.0)]).is_clean());
    }

    #[test]
    fn smoke_requires_every_kernel_on_the_current_leg() {
        let policy = test_policy();
        let all: Vec<KernelRecord> = SMOKE_KERNELS.iter().map(|k| krec(k, false, 0.2)).collect();
        assert!(check_smoke_kernels(&policy, &all, false).is_clean());

        // One kernel missing on the leg: the missing kernel is named.
        for missing in SMOKE_KERNELS {
            let rest: Vec<KernelRecord> = all
                .iter()
                .filter(|r| r.kernel != missing)
                .cloned()
                .collect();
            let report = check_smoke_kernels(&policy, &rest, false);
            assert_eq!(report.failures.len(), 1);
            assert!(report.failures[0].contains(&format!("no fresh {missing} smoke record")));
        }

        // Records exist but for the *other* leg: every kernel is missing.
        let report = check_smoke_kernels(&policy, &all, true);
        assert_eq!(report.failures.len(), SMOKE_KERNELS.len());
    }

    #[test]
    fn smoke_floor_catches_catastrophic_kernel_regression() {
        let policy = test_policy();
        let mut slow: Vec<KernelRecord> =
            SMOKE_KERNELS.iter().map(|k| krec(k, false, 0.2)).collect();
        slow[0].gflops = 0.01;
        let report = check_smoke_kernels(&policy, &slow, false);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("catastrophic floor"));
    }

    #[test]
    fn smoke_sched_requires_both_schedules_and_honors_ceilings() {
        let policy = test_policy();
        let both = vec![srec("dynamic", 1.2), srec("static", 2.5)];
        assert!(check_smoke_sched(&policy, &both).is_clean());

        let report = check_smoke_sched(&policy, &[srec("dynamic", 1.2)]);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("no fresh static smoke record"));

        let report = check_smoke_sched(&policy, &[srec("dynamic", 2.0), srec("static", 2.5)]);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("catastrophic ceiling"));
    }

    fn vrec(case: &str, jobs_per_s: f64, dedupe_hit_rate: f64) -> ServeRecord {
        ServeRecord {
            case: case.into(),
            clients: 4,
            jobs: 256,
            jobs_per_s,
            p50_ms: 0.2,
            p99_ms: 1.5,
            dedupe_hit_rate,
        }
    }

    #[test]
    fn serve_throughput_below_its_floor_fails_and_reverted_passes() {
        let policy = test_policy();
        let healthy = vec![
            vrec("unique-jobs", 900.0, 0.0),
            vrec("dedupe-storm", 1800.0, 0.9),
        ];
        assert!(check_committed_serve(&policy, &healthy).is_clean());

        let mut degraded = healthy.clone();
        degraded[0].jobs_per_s = 499.0; // just below the 500.0 floor
        let report = check_committed_serve(&policy, &degraded);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("guardband floor 500.000"));
        assert!(report.failures[0].contains("unique-jobs/c4"));

        degraded[0].jobs_per_s = healthy[0].jobs_per_s; // revert — green again
        assert!(check_committed_serve(&policy, &degraded).is_clean());
    }

    #[test]
    fn serve_dedupe_collapse_and_missing_guardband_fail() {
        let policy = test_policy();
        // The storm stopped deduping: throughput fine, hit rate floored.
        let report = check_committed_serve(&policy, &[vrec("dedupe-storm", 1800.0, 0.1)]);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("dedupe hit rate"));
        // No guardband entry for an 8-client record in the test policy.
        let mut r = vrec("unique-jobs", 900.0, 0.0);
        r.clients = 8;
        let report = check_committed_serve(&policy, &[r]);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("no serve_guardband"));
        // Empty committed baseline fails outright.
        assert!(!check_committed_serve(&policy, &[]).is_clean());
        // Non-finite measurements fail before any guardband lookup.
        assert!(!check_committed_serve(&policy, &[vrec("unique-jobs", f64::NAN, 0.0)]).is_clean());
        assert!(!check_committed_serve(&policy, &[vrec("unique-jobs", 900.0, 1.5)]).is_clean());
    }

    #[test]
    fn smoke_serve_requires_both_cases_and_honors_floors() {
        let policy = test_policy();
        let both = vec![
            vrec("unique-jobs", 50.0, 0.0),
            vrec("dedupe-storm", 80.0, 0.9),
        ];
        assert!(check_smoke_serve(&policy, &both).is_clean());

        let report = check_smoke_serve(&policy, &[vrec("unique-jobs", 50.0, 0.0)]);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("no fresh dedupe-storm smoke record"));

        let slow = vec![
            vrec("unique-jobs", 1.0, 0.0),
            vrec("dedupe-storm", 80.0, 0.9),
        ];
        let report = check_smoke_serve(&policy, &slow);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("catastrophic floor"));
    }

    /// The shipped policy must gate the shipped baselines: the committed
    /// `BENCH_*.json` pass as-is, and degrading any one committed kernel
    /// record below its guardband floor trips the gate (in memory — the
    /// files are never touched).
    #[test]
    fn shipped_policy_gates_the_shipped_baselines() {
        let policy = TolerancePolicy::load_default().expect("shipped TOLERANCES.toml loads");
        let kernels: Vec<KernelRecord> =
            read_records(&path::<KernelRecord>(false)).expect("committed kernels");
        let sched = read_records(&path::<SchedRecord>(false)).expect("committed sched");
        let kreport = check_committed_kernels(&policy, &kernels);
        assert!(
            kreport.is_clean(),
            "shipped kernel baseline violates its own policy: {:?}",
            kreport.failures
        );
        let sreport = check_committed_sched(&policy, &sched);
        assert!(
            sreport.is_clean(),
            "shipped sched baseline violates its own policy: {:?}",
            sreport.failures
        );
        let serve = read_records(&path::<ServeRecord>(false)).expect("committed serve");
        let vreport = check_committed_serve(&policy, &serve);
        assert!(
            vreport.is_clean(),
            "shipped serve baseline violates its own policy: {:?}",
            vreport.failures
        );

        let mut degraded = kernels.clone();
        let g = policy
            .kernel_guardband(&degraded[0].kernel, degraded[0].simd)
            .expect("every committed record has a guardband");
        degraded[0].gflops = g.reference_gflops * (1.0 - g.guardband) * 0.99;
        assert!(
            !check_committed_kernels(&policy, &degraded).is_clean(),
            "degrading a committed record below its floor must trip the gate"
        );
    }
}
