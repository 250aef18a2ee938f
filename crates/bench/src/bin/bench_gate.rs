//! `bench-gate` — release-blocking perf-regression gate (DESIGN.md §12).
//!
//! Default mode validates the **committed** `BENCH_kernels.json` /
//! `BENCH_sched.json` / `BENCH_serve.json` baselines against the
//! guardbands in the repo-root
//! `TOLERANCES.toml`. `--smoke` additionally checks the **fresh**
//! `target/BENCH_*.smoke.json` records written by
//! `cargo bench -p omen-bench -- --smoke` and `tab2_flops --json --smoke`
//! earlier in the same CI run: structural presence (`gemm`, `lu`, `trsm`,
//! `inverse`, `selinv` and `contacts_point` on the current dispatch leg,
//! both schedules, both service cases) plus catastrophic-only floors.
//!
//! Exit codes: `0` gate green (or a printed self-skip NOTICE when
//! `OMEN_SIMD=1` demands a leg this CPU cannot run), `1` guardband
//! violations (each printed as a `FAIL` line), `2` configuration errors —
//! unreadable policy or baseline, invalid `OMEN_SIMD` — which are harness
//! bugs, not perf regressions.

use omen_bench::gate::{self, GateReport};
use omen_bench::records::{self, KernelRecord, SchedRecord, ServeRecord};
use omen_linalg::threads;
use omen_num::tolerance::TolerancePolicy;
use omen_num::OmenResult;
use std::process::ExitCode;

/// Runs every requested check, folding all failures into one report.
///
/// # Errors
///
/// Returns the underlying typed error when the policy or a baseline file
/// is unreadable or malformed — those are configuration failures, distinct
/// from guardband violations (which land in the report).
fn run(policy: &TolerancePolicy, smoke: bool, simd_leg: bool) -> OmenResult<GateReport> {
    let mut report = GateReport::default();

    let kernels = records::read_records(&records::path::<KernelRecord>(false))?;
    report.merge(gate::check_committed_kernels(policy, &kernels));
    let sched = records::read_records(&records::path::<SchedRecord>(false))?;
    report.merge(gate::check_committed_sched(policy, &sched));
    let serve = records::read_records(&records::path::<ServeRecord>(false))?;
    report.merge(gate::check_committed_serve(policy, &serve));

    if smoke {
        let fresh_k = records::read_records(&records::path::<KernelRecord>(true))?;
        report.merge(gate::check_smoke_kernels(policy, &fresh_k, simd_leg));
        let fresh_s = records::read_records(&records::path::<SchedRecord>(true))?;
        report.merge(gate::check_smoke_sched(policy, &fresh_s));
        let fresh_v = records::read_records(&records::path::<ServeRecord>(true))?;
        report.merge(gate::check_smoke_serve(policy, &fresh_v));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("bench-gate: unknown argument {other:?}\nusage: bench-gate [--smoke]");
                return ExitCode::from(2);
            }
        }
    }

    // Resolve the dispatch leg from OMEN_SIMD without forcing the process
    // down simd_path()'s panicking backstop: an explicit `1` on a CPU
    // without AVX2+FMA is a *self-skip with a notice*, never a silent pass
    // and never a crash.
    let simd_leg = match threads::simd_policy() {
        Ok(Some(true)) if !threads::simd_supported() => {
            println!(
                "bench-gate: NOTICE — OMEN_SIMD=1 requested but this CPU lacks AVX2+FMA; \
                 skipping the SIMD-leg gate (the scalar-leg run still gates this build)"
            );
            return ExitCode::SUCCESS;
        }
        Ok(Some(forced)) => forced,
        Ok(None) => threads::simd_supported(),
        Err(e) => {
            eprintln!("bench-gate: {e}");
            return ExitCode::from(2);
        }
    };

    let policy = match TolerancePolicy::load_default() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench-gate: {e}");
            return ExitCode::from(2);
        }
    };

    match run(&policy, smoke, simd_leg) {
        Err(e) => {
            eprintln!("bench-gate: {e}");
            ExitCode::from(2)
        }
        Ok(report) if report.is_clean() => {
            println!(
                "bench-gate: OK — {} records within guardbands ({} mode, simd={simd_leg} leg)",
                report.checked,
                if smoke { "smoke" } else { "committed" }
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            for f in &report.failures {
                eprintln!("bench-gate: FAIL — {f}");
            }
            eprintln!(
                "bench-gate: {} of {} checks failed (see TOLERANCES.toml to re-baseline \
                 with a rationale)",
                report.failures.len(),
                report.checked
            );
            ExitCode::FAILURE
        }
    }
}
