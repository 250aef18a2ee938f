//! `BENCH_*.json` — the machine-readable benchmark ledgers.
//!
//! Every bench run (`benches/{kernels,sched,serve}.rs`, `tab2_flops --json`)
//! merges its records into one JSON document per ledger at the repository
//! root, so successive PRs compare against a committed baseline instead of
//! against folklore, and `bench-gate` holds each baseline to the guardbands
//! in `TOLERANCES.toml`. This module is the only reader and writer of those
//! documents. A record type declares its ledger through [`BenchRecord`]
//! (ledger name, schema tag, identity key, one-object writer and reader);
//! document framing, parsing, merge-by-key and the smoke-vs-committed path
//! choice are written once, generically over it.
//!
//! ## Document layout
//!
//! ```json
//! {
//!   "schema": "omen-bench-kernels-v1",
//!   "records": [
//!     {"kernel": "gemm", "n": 512, "threads": 4, "simd": true,
//!      "median_s": 1.234560e0, "min_s": 1.200000e0, "gflops": 0.870}
//!   ]
//! }
//! ```
//!
//! The writer emits one record per line for reviewable diffs, and a ledger
//! holds one record per identity key: merging replaces records with the
//! same key and keeps the rest, so partial reruns (e.g. one per `OMEN_SIMD`
//! leg) never lose history. The reader is hand-rolled for exactly this
//! layout (the container bakes in no serde): flat record objects whose
//! values are strings (escaping `"` and `\`) or bare numbers and booleans,
//! scanned quote-aware so a name may hold any delimiter.

use omen_num::{OmenError, OmenResult};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// One ledger's record type. A new ledger is one struct and one impl of
/// this trait; everything below the impls is shared.
pub trait BenchRecord: Clone {
    /// Ledger name: the committed baseline is `BENCH_<NAME>.json` at the
    /// workspace root (see [`path`]).
    const NAME: &'static str;
    /// Tag of the only document layout this type reads and writes.
    const SCHEMA: &'static str;
    /// Identity of a record within its ledger; merging replaces and sorts
    /// by it.
    type Key<'a>: Ord
    where
        Self: 'a;
    /// This record's identity key.
    fn key(&self) -> Self::Key<'_>;
    /// Writes the record as one JSON object, names through `quoted`.
    fn write(&self) -> String;
    /// Reads the record back from the text of one object (`text`, `num`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or unparsable field.
    fn read(obj: &str) -> Result<Self, String>;
}

/// One kernel throughput measurement (`BENCH_kernels.json`), keyed by
/// `(kernel, n, threads, simd)` so the scalar and SIMD legs of a benchmark
/// run coexist as separate rows.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel name (`gemm`, `lu`, `rgf_energy_point`, ...).
    pub kernel: String,
    /// Problem edge: square matrix size or slab-block size.
    pub n: usize,
    /// Kernel threads the measurement ran with.
    pub threads: usize,
    /// True when the process dispatched the AVX2+FMA microkernel
    /// (`omen_linalg::threads::simd_path`), false for the scalar reference
    /// path — and for records written before the field existed, which were
    /// all measured on the scalar kernel.
    pub simd: bool,
    /// Median seconds per iteration.
    pub median_s: f64,
    /// Minimum seconds per iteration.
    pub min_s: f64,
    /// Real double-precision Gflop/s (Gordon-Bell convention; counted, not
    /// assumed, for the transport records).
    pub gflops: f64,
}

impl BenchRecord for KernelRecord {
    const NAME: &'static str = "kernels";
    const SCHEMA: &'static str = "omen-bench-kernels-v1";
    type Key<'a> = (&'a str, usize, usize, bool);

    fn key(&self) -> Self::Key<'_> {
        (&self.kernel, self.n, self.threads, self.simd)
    }

    fn write(&self) -> String {
        format!(
            "{{\"kernel\": {}, \"n\": {}, \"threads\": {}, \"simd\": {}, \"median_s\": {:.6e}, \"min_s\": {:.6e}, \"gflops\": {:.3}}}",
            quoted(&self.kernel), self.n, self.threads, self.simd, self.median_s, self.min_s, self.gflops
        )
    }

    fn read(obj: &str) -> Result<Self, String> {
        Ok(KernelRecord {
            kernel: text(obj, "kernel")?,
            n: num(obj, "n")?,
            threads: num(obj, "threads")?,
            simd: field(obj, "simd").map_or(Ok(false), |_| num(obj, "simd"))?,
            median_s: num(obj, "median_s")?,
            min_s: num(obj, "min_s")?,
            gflops: num(obj, "gflops")?,
        })
    }
}

/// One scheduler load-balance measurement (`BENCH_sched.json`), keyed by
/// `(case, schedule, ranks)`: the same synthetic unit set swept with the
/// static round-robin assignment and with the dynamic pull-based scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedRecord {
    /// Workload name (`resonance-comb`, ...).
    pub case: String,
    /// `static` or `dynamic`.
    pub schedule: String,
    /// Total ranks in the sweep group (dynamic: one of them coordinates).
    pub ranks: usize,
    /// Work units swept.
    pub units: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_s: f64,
    /// Max/mean busy-seconds ratio over the ranks that solved units (1.0
    /// is perfect; a dynamic coordinator that only brokered is excluded).
    /// The static `utb-k3` record holds the split's unit-count ratio.
    pub imbalance: f64,
    /// Units re-issued by the dynamic scheduler (0 for static).
    pub reissued: usize,
}

impl BenchRecord for SchedRecord {
    const NAME: &'static str = "sched";
    const SCHEMA: &'static str = "omen-bench-sched-v1";
    type Key<'a> = (&'a str, &'a str, usize);

    fn key(&self) -> Self::Key<'_> {
        (&self.case, &self.schedule, self.ranks)
    }

    fn write(&self) -> String {
        format!(
            "{{\"case\": {}, \"schedule\": {}, \"ranks\": {}, \"units\": {}, \"wall_s\": {:.4e}, \"imbalance\": {:.3}, \"reissued\": {}}}",
            quoted(&self.case), quoted(&self.schedule), self.ranks, self.units, self.wall_s, self.imbalance, self.reissued
        )
    }

    fn read(obj: &str) -> Result<Self, String> {
        Ok(SchedRecord {
            case: text(obj, "case")?,
            schedule: text(obj, "schedule")?,
            ranks: num(obj, "ranks")?,
            units: num(obj, "units")?,
            wall_s: num(obj, "wall_s")?,
            imbalance: num(obj, "imbalance")?,
            reissued: num(obj, "reissued")?,
        })
    }
}

/// One `omen-serve` daemon measurement (`BENCH_serve.json`), keyed by
/// `(case, clients)`: N concurrent clients against a loopback server with
/// an instant executor, so the numbers measure the service machinery.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRecord {
    /// Workload name (`unique-jobs`, `dedupe-storm`).
    pub case: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Jobs submitted across all clients.
    pub jobs: usize,
    /// Completed jobs per second (all clients together).
    pub jobs_per_s: f64,
    /// Median submit→done latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile submit→done latency (ms).
    pub p99_ms: f64,
    /// Fraction of accepted jobs served without a fresh solve (joined in
    /// flight or replayed from cache).
    pub dedupe_hit_rate: f64,
}

impl BenchRecord for ServeRecord {
    const NAME: &'static str = "serve";
    const SCHEMA: &'static str = "omen-bench-serve-v1";
    type Key<'a> = (&'a str, usize);

    fn key(&self) -> Self::Key<'_> {
        (&self.case, self.clients)
    }

    fn write(&self) -> String {
        format!(
            "{{\"case\": {}, \"clients\": {}, \"jobs\": {}, \"jobs_per_s\": {:.4e}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"dedupe_hit_rate\": {:.4}}}",
            quoted(&self.case), self.clients, self.jobs, self.jobs_per_s, self.p50_ms, self.p99_ms, self.dedupe_hit_rate
        )
    }

    fn read(obj: &str) -> Result<Self, String> {
        Ok(ServeRecord {
            case: text(obj, "case")?,
            clients: num(obj, "clients")?,
            jobs: num(obj, "jobs")?,
            jobs_per_s: num(obj, "jobs_per_s")?,
            p50_ms: num(obj, "p50_ms")?,
            p99_ms: num(obj, "p99_ms")?,
            dedupe_hit_rate: num(obj, "dedupe_hit_rate")?,
        })
    }
}

/// `s` as a JSON string literal, escaping the two characters the reader
/// gives meaning to inside one.
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Byte offset of the first of `stops` in `s` that is outside every string
/// literal (inside one, `\` escapes the next character).
fn find_unquoted(s: &str, stops: &[char]) -> Option<usize> {
    let (mut quoted, mut escaped) = (false, false);
    for (i, c) in s.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if quoted => escaped = true,
            '"' => quoted = !quoted,
            c if !quoted && stops.contains(&c) => return Some(i),
            _ => {}
        }
    }
    None
}

/// Extracts the raw text of `"key": <value>` from one record object. The
/// tag cannot match inside a name: there every `"` follows a `\`.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let at = obj.find(&tag)? + tag.len();
    let rest = obj[at..].trim_start();
    let end = find_unquoted(rest, &[',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn req<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    field(obj, key).ok_or_else(|| format!("missing field {key:?}"))
}

/// A required number or boolean field.
fn num<T: FromStr>(obj: &str, key: &str) -> Result<T, String> {
    let raw = req(obj, key)?;
    raw.parse()
        .map_err(|_| format!("unparsable field {key:?}: {raw:?}"))
}

/// A required string field, unescaped (the inverse of [`quoted`]).
fn text(obj: &str, key: &str) -> Result<String, String> {
    let raw = req(obj, key)?;
    let inner = raw.strip_prefix('"').and_then(|r| r.strip_suffix('"'));
    let mut chars = inner
        .ok_or_else(|| format!("unparsable field {key:?}: {raw:?}"))?
        .chars();
    let mut out = String::new();
    while let Some(c) = chars.next() {
        out.push(if c == '\\' {
            chars.next().unwrap_or(c)
        } else {
            c
        });
    }
    Ok(out)
}

fn berr(source: impl ToString, detail: impl Into<String>) -> OmenError {
    OmenError::InvalidBaseline {
        path: source.to_string(),
        detail: detail.into(),
    }
}

/// Serializes `records` as a full document.
pub fn to_json<R: BenchRecord>(records: &[R]) -> String {
    let body: Vec<String> = records
        .iter()
        .map(|r| format!("    {}", r.write()))
        .collect();
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"records\": [\n{}\n  ]\n}}\n",
        R::SCHEMA,
        body.join(",\n")
    )
}

/// Parses a document produced by [`to_json`]. `source` names the document
/// in error messages (a path, or a logical label in tests).
///
/// # Errors
///
/// Returns [`OmenError::InvalidBaseline`] when the schema tag is missing or
/// not `R::SCHEMA` (the error names the found schema), the records array is
/// absent, or any record fails to parse (the error names the record index
/// and field) — a corrupt baseline is never silently read as a smaller one.
pub fn from_json<R: BenchRecord>(source: &str, text: &str) -> OmenResult<Vec<R>> {
    let schema = field(text, "schema")
        .map(|s| s.trim_matches('"'))
        .ok_or_else(|| berr(source, "missing schema tag"))?;
    if schema != R::SCHEMA {
        let expected = R::SCHEMA;
        let detail = format!("schema {schema:?} (expected {expected:?})");
        return Err(berr(source, detail));
    }
    let open = text
        .find("\"records\"")
        .and_then(|at| Some(at + text[at..].find('[')? + 1))
        .ok_or_else(|| berr(source, "missing records array"))?;
    let close = text[open..]
        .rfind(']')
        .ok_or_else(|| berr(source, "unterminated records array"))?;
    let mut records = Vec::new();
    let mut rest = text[open..open + close].trim_start();
    while !rest.is_empty() {
        let i = records.len();
        let end = match find_unquoted(rest, &['}']) {
            Some(end) if rest.starts_with('{') => end + 1,
            _ => return Err(berr(source, format!("record {i}: not a {{...}} object"))),
        };
        let r = R::read(&rest[..end]).map_err(|e| berr(source, format!("record {i}: {e}")))?;
        records.push(r);
        rest = rest[end..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(records)
}

/// Reads the ledger at `path`. A file that does not exist yet is an empty
/// ledger (first run); anything else that fails is an error.
///
/// # Errors
///
/// Returns [`OmenError::InvalidBaseline`] when the file exists but cannot
/// be read, or fails any [`from_json`] validation.
pub fn read_records<R: BenchRecord>(path: &Path) -> OmenResult<Vec<R>> {
    let source = path.display().to_string();
    match std::fs::read_to_string(path) {
        Ok(text) => from_json(&source, &text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(berr(source, format!("cannot read baseline: {e}"))),
    }
}

/// Merges `fresh` into the ledger at `path`: records with a matching
/// identity key are replaced, everything else is kept, and the result is
/// written back sorted by key. Replace-by-key plus the total sort make the
/// merge idempotent: merging the same records twice, in any input order,
/// yields byte-identical documents.
///
/// # Errors
///
/// Returns [`OmenError::InvalidBaseline`] when the existing ledger is
/// unreadable or fails validation (it is left untouched rather than
/// clobbered), or when the merged document cannot be written.
pub fn merge_records<R: BenchRecord>(path: &Path, fresh: &[R]) -> OmenResult<()> {
    let mut all: Vec<R> = read_records(path)?;
    for r in fresh {
        all.retain(|e| e.key() != r.key());
        all.push(r.clone());
    }
    all.sort_by(|a, b| a.key().cmp(&b.key()));
    std::fs::write(path, to_json(&all))
        .map_err(|e| berr(path.display(), format!("cannot write baseline: {e}")))
}

/// Where `R`'s ledger lives: the committed `BENCH_<NAME>.json` at the
/// workspace root, or — for `--smoke` runs, which must never touch the
/// committed baseline — its twin under `target/`.
pub fn path<R: BenchRecord>(smoke: bool) -> PathBuf {
    let name = R::NAME;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if smoke {
        root.join(format!("target/BENCH_{name}.smoke.json"))
    } else {
        root.join(format!("BENCH_{name}.json"))
    }
}

/// Merges a bench run's `records` into their ledger (see [`path`]) and
/// re-reads the file to prove every record survived the round trip.
/// Returns the path written.
///
/// # Errors
///
/// Returns [`OmenError::InvalidBaseline`] when the merge or the re-read
/// fails, or a published record is missing from what was read back.
pub fn publish<R: BenchRecord>(smoke: bool, records: &[R]) -> OmenResult<PathBuf> {
    let path = path::<R>(smoke);
    merge_records(&path, records)?;
    let back: Vec<R> = read_records(&path)?;
    let lost = |r: &&R| back.iter().all(|b| b.key() != r.key());
    match records.iter().find(lost) {
        None => Ok(path),
        Some(r) => Err(berr(
            path.display(),
            format!("round-trip lost {}", r.write()),
        )),
    }
}
