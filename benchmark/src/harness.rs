//! What every workload shares: the pass loop, set-up sampling, the
//! end-to-end metric arithmetic, and where files go.

use crate::metrics::Outcome;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::Workload;
use std::path::PathBuf;
use std::time::Instant;

/// Arguments of one measuring (child) process.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Exact pass count, overriding the time budget.
    pub passes: Option<usize>,
}

/// End-to-end passes per run, at least: with fewer, one burst of host noise
/// can cover them all.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` the end-to-end passes may fill; the rest is for the
/// correctness checks that follow them.
pub const PASS_SHARE: f64 = 0.9;
/// Set-ups timed after each pass.
const SET_UPS_PER_PASS: usize = 50;
/// Not the minimum: a set-up that starts threads now and then gets a
/// recycled stack and finishes in two thirds of the usual time, and how
/// often that happens grows with the sample count. The 5th percentile of
/// 150+ samples moves by under 10 % between processes.
const SET_UP_PERCENTILE: f64 = 5.0;

/// Runs `pass` at least `min_passes` times and then for as long as one more
/// pass, taken to last as long as the longest so far, still ends within
/// `budget_s` (`--smoke`: one pass; `--passes N`: exactly N).
pub fn passes<T>(
    args: &ChildArgs,
    budget_s: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let (min_passes, budget_s) = match args.passes {
        Some(n) => (n.max(1), 0.0),
        None if args.smoke => (1, 0.0),
        None => (min_passes, budget_s),
    };
    let start = Instant::now();
    let mut longest_s = 0.0f64;
    let mut out = Vec::new();
    while out.len() < min_passes || start.elapsed().as_secs_f64() + longest_s <= budget_s {
        let t0 = Instant::now();
        out.push(pass()?);
        longest_s = longest_s.max(t0.elapsed().as_secs_f64());
    }
    Ok(out)
}

/// What [`measure`] collected.
pub struct Measured<T> {
    pub set_up_s: Vec<f64>,
    pub passes: Vec<T>,
    /// `VmHWM` after the first pass: what one request costs a fresh
    /// process. Taken there because later passes and the set-up samples
    /// only add what the allocator retains (a second daemon lifetime in one
    /// process starts 2 MB above the first), which made the high-water mark
    /// at exit follow the pass count: 10.7–12.5 MB at exit against
    /// 10.0–10.2 MB after pass one on `ranks2-utb-k3`.
    pub peak_rss_mb: f64,
}

/// [`passes`] with a batch of set-ups after each pass, so the samples
/// spread over the whole run and the first pass has warmed them up.
/// `set_up` returns the seconds it took (it may do untimed tear-down of its
/// own).
pub fn measure<T>(
    args: &ChildArgs,
    mut set_up: impl FnMut() -> Result<f64, String>,
    mut pass: impl FnMut() -> Result<T, String>,
) -> Result<Measured<T>, String> {
    let per_pass = if args.smoke { 3 } else { SET_UPS_PER_PASS };
    let mut set_up_s = Vec::new();
    let mut peak_rss_mb = None;
    let passes = passes(args, PASS_SHARE * args.seconds, MIN_PASSES, || {
        let done = pass()?;
        peak_rss_mb.get_or_insert_with(vm_hwm_mb);
        for _ in 0..per_pass {
            set_up_s.push(set_up()?);
        }
        Ok(done)
    })?;
    Ok(Measured {
        set_up_s,
        passes,
        peak_rss_mb: peak_rss_mb.unwrap_or_else(vm_hwm_mb),
    })
}

/// Seconds `f` took.
pub fn timed(f: impl FnOnce() -> Result<(), String>) -> Result<f64, String> {
    let t0 = Instant::now();
    f()?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Times `n` repetitions of `f`, after one untimed warm-up.
pub fn samples(n: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<Vec<f64>, String> {
    f()?;
    (0..n).map(|_| timed(&mut f)).collect()
}

/// Peak resident set of this process so far (MB), from the kernel's
/// high-water mark.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The five end-to-end metrics from set-up samples and
/// `(wall_s, flops, energy_points)` per pass.
///
/// Every pass does identical work, so on an idle machine every pass takes
/// the same time; what differs between passes is what the host added, and
/// on the 2-vCPU hosts this runs on that is one-sided and drifts over
/// minutes. Over ten 15 s runs of each workload the per-run *median* pass
/// spread by 14 / 6 / 11 / 12 % (quartile distance over median, workloads
/// in `BENCHMARK.json` order) and the per-run *fastest* pass by
/// 10 / 3 / 4 / 6 %. The run therefore reports its fastest pass — the
/// estimate of the program's own cost that repeats from run to run — and a
/// low percentile of its set-ups; every pass's wall is kept in the result
/// file.
pub fn put_end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    peak_rss_mb: f64,
    passes: &[(f64, u64, usize)],
) {
    let Some(&(wall, flops, points)) = passes.iter().min_by(|a, b| a.0.total_cmp(&b.0)) else {
        return;
    };
    out.pass_wall_s = passes.iter().map(|p| p.0).collect();
    out.put(
        "setup_s",
        percentile(setup_s, SET_UP_PERCENTILE),
        setup_s.len(),
    );
    out.put("curve_wall_s", wall, passes.len());
    out.put("energy_points_per_s", points as f64 / wall, passes.len());
    out.put("sustained_gflops", flops as f64 / wall * 1e-9, passes.len());
    out.put("peak_rss_mb", peak_rss_mb, 1);
}

/// What the recorder may cost the replay it records, and how much of the
/// replay wall the layer spans must (and can) account for.
const MAX_TRACE_OVERHEAD: f64 = 0.03;
const LAYER_COVERAGE: std::ops::RangeInclusive<f64> = 0.95..=1.05;

/// The two numbers that say whether a traced run's layer split can be
/// trusted; outside their limits the run is incorrect.
pub fn put_trace_validity(out: &mut Outcome, covered: f64, spans: usize, overhead: f64) {
    out.put("core.layer_sum_over_wall", covered, 1);
    out.check(LAYER_COVERAGE.contains(&covered), || {
        format!("layer spans cover {covered} of the traced wall, outside {LAYER_COVERAGE:?}")
    });
    out.put("trace.spans", spans as f64, 1);
    out.put("trace.overhead_fraction", overhead, spans);
    out.check(overhead <= MAX_TRACE_OVERHEAD, || {
        format!(
            "recording the spans costs {overhead} of the traced wall, limit {MAX_TRACE_OVERHEAD}"
        )
    });
}

/// `benchmark/out/`, next to the sources this binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the run's spans to `out/trace-<workload>.jsonl`. Losing the file
/// does not invalidate the metrics, so a write error is only reported.
pub fn write_trace(args: &ChildArgs, tc: &Tracer) {
    let name = if args.smoke {
        format!("trace-{}.smoke.jsonl", args.workload.name())
    } else {
        format!("trace-{}.jsonl", args.workload.name())
    };
    let path = out_dir().join(name);
    if let Err(e) = tc.write_jsonl(&path) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}
