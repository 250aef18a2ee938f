//! The repo benchmark: four workloads, end to end and layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload idvg-scf-wf --seed 0 --seconds 20 --trace 0
//! ```
//!
//! See `README.md` for the catalogue and `../BENCHMARK.json` for the contract.
//!
//! Each measurement runs in a child process of this binary: the kernel
//! thread and SIMD policies are resolved once per process from `OMEN_*`, so
//! a fresh process is the only way to fix them whatever the caller's
//! environment (and to run one curve under the library's default), and the
//! child's peak RSS is the workload's alone.

mod compare;
mod gen;
mod harness;
mod idvg;
mod json;
mod kernels;
mod metrics;
mod ranks;
mod replay;
mod serve;
mod stats;
mod trace;

use harness::ChildArgs;
use json::Json;
use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IdvgScfWf,
    IdvgFrozenRgf,
    Ranks2Utb,
    ServeMixed,
}

impl Workload {
    /// In `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::IdvgScfWf,
        Workload::IdvgFrozenRgf,
        Workload::Ranks2Utb,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IdvgScfWf => "idvg-scf-wf",
            Workload::IdvgFrozenRgf => "idvg-frozen-sp3s-rgf",
            Workload::Ranks2Utb => "ranks2-utb-k3",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The `OMEN_*` environment of every measuring child: one kernel thread
/// per rank, worker or request, as a multi-rank or daemon deployment on this
/// many cores runs. The library's default (kernel threads = cores) is the
/// environment a user's first run gets, but there every small GEMM starts
/// threads, the wall follows the host's system-call cost, and ten 15 s runs
/// of `idvg-scf-wf` spread by 7–30 % of their median — past any bound the
/// contract allows. What the default costs is kept as the per-layer metric
/// `linalg.thread_policy_slowdown`.
const PINNED: &[(&str, &str)] = &[("OMEN_THREADS", "1")];

/// End-to-end runs per workload when everything is run.
const REPEATS: usize = 3;
/// Passes behind each side of `linalg.thread_policy_slowdown`.
const POLICY_PASSES: usize = 3;

const USAGE: &str = "\
usage: omen-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       omen-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--out <file>]
                      (every workload: 3 end-to-end runs and one traced run each)
       omen-benchmark --smoke          (the same, every workload shrunk, one run per mode)
       omen-benchmark --compare <A.json> <B.json>
workloads: idvg-scf-wf idvg-frozen-sp3s-rgf ranks2-utb-k3 serve-mixed";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    child: bool,
    passes: Option<usize>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: 20.0,
        trace: None,
        smoke: false,
        out: None,
        compare: None,
        child: false,
        passes: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                let v = value()?;
                cli.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                });
            }
            "--passes" => {
                let v = value()?;
                cli.passes = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--out" => cli.out = Some(value()?),
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--smoke" => cli.smoke = true,
            "--child" => cli.child = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.passes.is_some() && !cli.child {
        return Err("unknown argument `--passes`".to_string());
    }
    Ok(cli)
}

// ------------------------------------------------------------------ child

fn run_child(args: &ChildArgs) -> Result<Outcome, String> {
    let mut out = match (args.workload, args.trace) {
        (Workload::IdvgScfWf | Workload::IdvgFrozenRgf, false) => idvg::run_end_to_end(args),
        (Workload::IdvgScfWf | Workload::IdvgFrozenRgf, true) => idvg::run_traced(args),
        (Workload::Ranks2Utb, false) => ranks::run_end_to_end(args),
        (Workload::Ranks2Utb, true) => ranks::run_traced(args),
        (Workload::ServeMixed, false) => serve::run_end_to_end(args),
        (Workload::ServeMixed, true) => serve::run_traced(args),
    }?;
    // The workloads are chosen so that nothing fails; an energy point the
    // solver drops would otherwise make the curve cheaper, not wrong.
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(failed == 0, || {
        format!("{failed} of {attempted} operations failed")
    });
    Ok(out)
}

fn child_main(args: &ChildArgs) -> ExitCode {
    match run_child(args) {
        Ok(out) => {
            let mut rec = out.to_json();
            if let Json::Obj(pairs) = &mut rec {
                pairs.push((
                    "dispatch".to_string(),
                    Json::str(omen_linalg::threads::dispatch_summary()),
                ));
            }
            println!("{}", rec.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

// ----------------------------------------------------------------- parent

/// Runs one child under exactly `env` (every inherited `OMEN_*` scrubbed)
/// and returns its record.
fn spawn_child(args: &ChildArgs, env: &[(&str, &str)]) -> Result<(Outcome, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(n) = args.passes {
        cmd.args(["--passes", &n.to_string()]);
    }
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("OMEN_") {
            cmd.env_remove(k);
        }
    }
    cmd.envs(env.iter().copied());
    // `output()` waits for the child to end before it returns.
    let done = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !done.status.success() {
        return Err(format!("child exited with {}", done.status));
    }
    let stdout = String::from_utf8_lossy(&done.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    let rec = Json::parse(line)?;
    let dispatch = rec
        .get("dispatch")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    Ok((Outcome::from_json(&rec)?, dispatch))
}

/// HEAD of the enclosing git checkout, read from `.git` directly (the
/// driver's checkout has none, and nothing else is worth a subprocess).
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn env_json(env: &[(&str, &str)]) -> Json {
    Json::Obj(
        env.iter()
            .map(|(k, v)| (k.to_string(), Json::str(*v)))
            .collect(),
    )
}

/// One contract run: measures `args` in children, returns the record that
/// goes into the result file; its `line` member is the contract's last line.
fn run_one(args: &ChildArgs) -> Result<Json, String> {
    let env = PINNED;
    let (mut out, dispatch) = spawn_child(args, env)?;

    if args.trace && args.workload == Workload::IdvgScfWf {
        // What the library's default thread policy costs this workload: its
        // first gate point (the `--smoke` request) in a child with no
        // `OMEN_*` set over the same in a pinned child, the fastest of
        // three passes each. The whole curve takes 26 s unpinned.
        let small = ChildArgs {
            trace: false,
            smoke: true,
            passes: Some(POLICY_PASSES),
            ..args.clone()
        };
        let (as_user, _) = spawn_child(&small, &[])?;
        let (pinned, _) = spawn_child(&small, env)?;
        let wall = |o: &Outcome| o.get("curve_wall_s").unwrap_or(f64::NAN);
        out.put(
            "linalg.thread_policy_slowdown",
            wall(&as_user) / wall(&pinned),
            POLICY_PASSES,
        );
        out.violations.extend(as_user.violations);
        out.violations.extend(pinned.violations);
    }

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    let mut samples = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let found = out.values.iter().find(|v| v.0 == *name);
        let (value, n) = match found {
            Some(v) => (v.1, v.2),
            // A layer this workload never reaches.
            None if args.trace => (0.0, 0),
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            out.violations
                .push(format!("metric `{name}` is not finite"));
        }
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(*unit)),
            ]),
        ));
        samples.push((name.to_string(), Json::Num(n as f64)));
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(out.violations.is_empty())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    Ok(Json::obj(vec![
        (
            "header",
            Json::obj(vec![
                ("workload", Json::str(args.workload.name())),
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(args.seconds)),
                ("trace", Json::Bool(args.trace)),
                ("smoke", Json::Bool(args.smoke)),
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
                ),
                ("dispatch", Json::str(dispatch)),
                ("omen_env", env_json(env)),
                ("git_commit", Json::str(git_commit())),
            ]),
        ),
        ("line", line),
        ("samples", Json::Obj(samples)),
        (
            "pass_wall_s",
            Json::Arr(out.pass_wall_s.iter().map(|w| Json::Num(*w)).collect()),
        ),
        (
            "violations",
            Json::Arr(out.violations.iter().map(Json::str).collect()),
        ),
    ]))
}

fn write_results(path: &std::path::Path, runs: Vec<Json>) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = Json::obj(vec![("runs", Json::Arr(runs))]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn is_correct(run: &Json) -> bool {
    run.get("line").and_then(|l| l.get("correct")) == Some(&Json::Bool(true))
}

fn report_violations(run: &Json) {
    for v in run.get("violations").and_then(Json::as_arr).unwrap_or(&[]) {
        eprintln!("benchmark: INCORRECT: {}", v.as_str().unwrap_or("?"));
    }
}

fn parent_main(cli: &Cli) -> Result<bool, String> {
    let results = cli
        .out
        .as_ref()
        .map_or_else(|| harness::out_dir().join("results.json"), Into::into);
    let child_args = |workload, trace| ChildArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        smoke: cli.smoke,
        passes: None,
    };

    // The driver's form: one workload, one mode, the contract line last.
    if let (Some(w), Some(trace)) = (cli.workload, cli.trace) {
        let run = run_one(&child_args(w, trace))?;
        report_violations(&run);
        let line = run.get("line").map(Json::render).unwrap_or_default();
        let ok = is_correct(&run);
        if let Err(e) = write_results(&results, vec![run]) {
            eprintln!("benchmark: result file not written: {e}");
        }
        println!("{line}");
        return Ok(ok);
    }

    // Every workload (or one, in both modes): `REPEATS` end-to-end runs and
    // one traced run each, every metric printed by name.
    let workloads: Vec<Workload> = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut runs = Vec::new();
    let mut ok = true;
    for w in workloads {
        let repeat = if cli.smoke { 1 } else { REPEATS };
        let modes = std::iter::repeat_n(false, repeat)
            .chain(std::iter::once(true))
            .filter(|t| cli.trace.is_none_or(|only| only == *t));
        for trace in modes {
            let run = run_one(&child_args(w, trace))?;
            report_violations(&run);
            ok &= is_correct(&run);
            println!(
                "== {} (seed {}, {}) — {}",
                w.name(),
                cli.seed,
                if trace { "per-layer" } else { "end-to-end" },
                if is_correct(&run) {
                    "correct"
                } else {
                    "INCORRECT"
                },
            );
            let metrics = run.get("line").and_then(|l| l.get("metrics"));
            for (name, m) in metrics.and_then(Json::as_obj).unwrap_or(&[]) {
                let n = run
                    .get("samples")
                    .and_then(|s| s.get(name))
                    .and_then(Json::as_f64);
                if n == Some(0.0) {
                    continue; // a layer this workload never reaches
                }
                println!(
                    "{name:<36} {:>16.6} {:<8} n={}",
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit").and_then(Json::as_str).unwrap_or(""),
                    n.unwrap_or(0.0),
                );
            }
            runs.push(run);
        }
    }
    write_results(&results, runs)?;
    println!("results: {}", results.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(c) => c,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return match compare::run(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    if cli.child {
        let Some(workload) = cli.workload else {
            eprintln!("benchmark: --child needs --workload");
            return ExitCode::from(2);
        };
        return child_main(&ChildArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace.unwrap_or(false),
            smoke: cli.smoke,
            passes: cli.passes,
        });
    }
    match parent_main(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
