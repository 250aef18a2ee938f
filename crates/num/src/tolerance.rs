//! Machine-readable numeric tolerance policy and perf guardbands.
//!
//! Every numeric bound the conformance batteries use — and every
//! throughput guardband the bench gate enforces — lives in one committed
//! artifact, `TOLERANCES.toml` at the repo root, parsed here into a typed
//! [`TolerancePolicy`]. Tests pull bounds through [`test_bound`] instead of
//! hard-coding `1e-12` literals (the `tolerance-literal` lint in
//! `omen-analyze` rejects inline bounds in test files), so loosening a
//! tolerance is always a reviewable one-line diff with a rationale string
//! next to it, never a silent edit buried in an assert.
//!
//! The parser is a dependency-free TOML subset: top-level `key = "value"`
//! pairs, `[[section]]` array-of-tables headers, and `key = value` entries
//! whose values are strings, floats, or booleans. That covers the whole
//! policy schema; anything else is a loud [`OmenError::InvalidPolicy`].
//!
//! Validation is strict by design — unknown op names, missing rationales,
//! non-finite bounds, duplicate entries, and lookups that miss all raise a
//! typed error rather than falling back to a default bound.

use crate::error::{OmenError, OmenResult};
use std::path::Path;
use std::sync::OnceLock;

/// Schema tag the policy document must carry.
pub const POLICY_SCHEMA: &str = "omen-tolerances-v1";

/// Default policy location relative to this crate's manifest
/// (`crates/num`), i.e. the repo root. Compile-time constant, so lookups
/// work from any working directory.
pub const DEFAULT_POLICY_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TOLERANCES.toml");

/// Closed set of operation names the conformance batteries consume. A
/// `[[tolerance]]` entry whose `op` is not listed here is a typo and is
/// rejected at load time.
pub const KNOWN_OPS: &[&str] = &[
    // tests/kernel_conformance.rs
    "gemm.vs_oracle",
    "gemm.cancellation",
    "lu.vs_oracle",
    "lu.reconstruction",
    "lu.pivot_floor",
    // tests/linalg_properties.rs
    "lu.solve_residual",
    "lu.det_multiplicative",
    "eigh.reconstruction",
    "eigh.value_order",
    "geig.trace",
    "gemm.associativity",
    "gemm.adjoint",
    "sparse.matvec",
    "sparse.assembly_order",
    // tests/engine_equivalence.rs
    "engine.chain",
    "engine.si_wire",
    "engine.agnr",
    "engine.utb",
    "engine.spin_orbit",
    "engine.thomas_vs_bcr",
    "engine.selinv_chain",
    "engine.selinv_si_wire",
    "engine.selinv_agnr",
    "engine.selinv_utb",
    "engine.selinv_spin_orbit",
    // tests/selinv_properties.rs
    "selinv.vs_dense",
    // crates/negf/src/sancho.rs
    "contacts.pair_vs_single",
    // crates/wf/src/solver.rs
    "wf.thin_vs_dense",
    // tests/physics_invariants.rs
    "physics.unitarity_slack",
    "physics.reciprocity",
    "physics.sum_rule",
    "physics.hermiticity",
    "physics.wf_vs_rgf",
    "physics.splitsolve_vs_thomas",
    "physics.selinv_reciprocity",
    "physics.selinv_current",
    "physics.selinv_zero_bias",
    "fermi.seam",
    "fermi.complement",
    // tests/end_to_end.rs
    "e2e.rgf_vs_wf",
];

/// Which dispatch path a tolerance entry covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchLeg {
    /// Scalar reference kernels (`OMEN_SIMD=0`).
    Scalar,
    /// AVX2+FMA vectorized kernels (`OMEN_SIMD=1`).
    Avx2Fma,
    /// Bound holds on every path (leg-independent).
    Any,
    /// Bound governs a comparison whose two sides may run on different
    /// paths (e.g. kernel-vs-oracle), i.e. the cross-path contract.
    Cross,
}

impl DispatchLeg {
    fn parse(s: &str) -> Option<DispatchLeg> {
        match s {
            "scalar" => Some(DispatchLeg::Scalar),
            "avx2fma" => Some(DispatchLeg::Avx2Fma),
            "any" => Some(DispatchLeg::Any),
            "cross" => Some(DispatchLeg::Cross),
            _ => None,
        }
    }

    /// Canonical spelling used in `TOLERANCES.toml`.
    pub fn as_str(self) -> &'static str {
        match self {
            DispatchLeg::Scalar => "scalar",
            DispatchLeg::Avx2Fma => "avx2fma",
            DispatchLeg::Any => "any",
            DispatchLeg::Cross => "cross",
        }
    }
}

/// How a bound value is applied by its consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// `|a - b| <= bound * scale` with a consumer-chosen relative scale.
    Relative,
    /// `|a - b| <= bound` (or a plain magnitude threshold).
    Absolute,
    /// Per-term bound against the accumulated magnitude of the summands
    /// (guards catastrophic-cancellation contracts).
    Termwise,
    /// Maximum distance in units in the last place (bound is an integer
    /// ulp count).
    Ulp,
}

impl BoundKind {
    fn parse(s: &str) -> Option<BoundKind> {
        match s {
            "relative" => Some(BoundKind::Relative),
            "absolute" => Some(BoundKind::Absolute),
            "termwise" => Some(BoundKind::Termwise),
            "ulp" => Some(BoundKind::Ulp),
            _ => None,
        }
    }

    /// Canonical spelling used in `TOLERANCES.toml`.
    pub fn as_str(self) -> &'static str {
        match self {
            BoundKind::Relative => "relative",
            BoundKind::Absolute => "absolute",
            BoundKind::Termwise => "termwise",
            BoundKind::Ulp => "ulp",
        }
    }
}

/// One `[[tolerance]]` entry: the bound for `op` on `path`.
#[derive(Debug, Clone, PartialEq)]
pub struct ToleranceEntry {
    /// Operation name (member of [`KNOWN_OPS`]).
    pub op: String,
    /// Dispatch leg the bound covers.
    pub path: DispatchLeg,
    /// How the bound is applied.
    pub kind: BoundKind,
    /// The bound value (finite, positive; integer ≥ 1 for ulp kinds).
    pub bound: f64,
    /// Why this bound is what it is (never empty).
    pub rationale: String,
    /// Source line of the entry header (for error reporting).
    pub line: usize,
}

/// One `[[kernel_guardband]]` entry: the committed-baseline floor for a
/// `(kernel, simd)` group in `BENCH_kernels.json`. A committed record whose
/// throughput falls below `reference_gflops * (1 - guardband)` fails the
/// bench gate until the entry is re-baselined with a new rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelGuardband {
    /// Kernel name as recorded in the baseline (`gemm`, `lu`, ...).
    pub kernel: String,
    /// Which dispatch leg the group covers.
    pub simd: bool,
    /// Slowest committed throughput in the group at baseline time.
    pub reference_gflops: f64,
    /// Allowed fractional drop below the reference (in `(0, 1)`).
    pub guardband: f64,
    /// Why this reference/band is what it is (never empty).
    pub rationale: String,
}

/// One `[[sched_guardband]]` entry: imbalance ceiling for a committed
/// `(case, schedule)` record in `BENCH_sched.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedGuardband {
    /// Workload case name.
    pub case: String,
    /// Schedule name (`static`, `dynamic`).
    pub schedule: String,
    /// Maximum allowed max/mean busy-time imbalance.
    pub max_imbalance: f64,
    /// Optional wall-clock floor: the committed record must be at least
    /// this many times faster than the `static` record of the same
    /// `(case, ranks)` (static wall / this wall ≥ `min_speedup`). Only
    /// meaningful on non-static schedules; ≥ 1.
    pub min_speedup: Option<f64>,
    /// Why this ceiling is what it is (never empty).
    pub rationale: String,
}

/// One `[[kernel_smoke_floor]]` entry: the catastrophic-regression floor a
/// fresh `--smoke` kernel record must clear on CI hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSmokeFloor {
    /// Kernel name.
    pub kernel: String,
    /// Minimum believable throughput for a fresh smoke record.
    pub min_gflops: f64,
    /// Why the floor is set where it is (never empty).
    pub rationale: String,
}

/// One `[[sched_smoke_floor]]` entry: imbalance ceiling for a fresh
/// `--smoke` scheduler record.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedSmokeFloor {
    /// Workload case name.
    pub case: String,
    /// Schedule name.
    pub schedule: String,
    /// Maximum believable imbalance for a fresh smoke record.
    pub max_imbalance: f64,
    /// Why the ceiling is set where it is (never empty).
    pub rationale: String,
}

/// One `[[serve_guardband]]` entry: throughput/dedupe floor for a
/// committed `(case, clients)` record in `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeGuardband {
    /// Service workload case name (`unique-jobs`, `dedupe-storm`).
    pub case: String,
    /// Concurrent client count the record was taken at.
    pub clients: usize,
    /// Committed end-to-end throughput at baseline time (jobs/s).
    pub reference_jobs_per_s: f64,
    /// Allowed fractional drop below the reference (in `(0, 1)`).
    pub guardband: f64,
    /// Minimum believable dedupe hit rate for the case (in `[0, 1]`).
    pub min_dedupe_hit_rate: f64,
    /// Why this reference/band is what it is (never empty).
    pub rationale: String,
}

/// One `[[serve_smoke_floor]]` entry: the catastrophic-regression floor a
/// fresh `--smoke` service record must clear on CI hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSmokeFloor {
    /// Service workload case name.
    pub case: String,
    /// Minimum believable throughput for a fresh smoke record (jobs/s).
    pub min_jobs_per_s: f64,
    /// Why the floor is set where it is (never empty).
    pub rationale: String,
}

/// The parsed, validated policy document.
#[derive(Debug, Clone, PartialEq)]
pub struct TolerancePolicy {
    source: String,
    entries: Vec<ToleranceEntry>,
    /// Committed-baseline kernel guardbands.
    pub kernel_guardbands: Vec<KernelGuardband>,
    /// Committed-baseline scheduler guardbands.
    pub sched_guardbands: Vec<SchedGuardband>,
    /// Fresh-smoke kernel floors.
    pub kernel_smoke_floors: Vec<KernelSmokeFloor>,
    /// Fresh-smoke scheduler floors.
    pub sched_smoke_floors: Vec<SchedSmokeFloor>,
    /// Committed-baseline service guardbands.
    pub serve_guardbands: Vec<ServeGuardband>,
    /// Fresh-smoke service floors.
    pub serve_smoke_floors: Vec<ServeSmokeFloor>,
}

/// Raw scalar value on the right of a `key = value` line.
#[derive(Debug, Clone, PartialEq)]
enum Raw {
    Str(String),
    Num(f64),
    Bool(bool),
}

impl Raw {
    fn type_name(&self) -> &'static str {
        match self {
            Raw::Str(_) => "string",
            Raw::Num(_) => "number",
            Raw::Bool(_) => "boolean",
        }
    }
}

/// What a section key must hold: its TOML type and, for numbers, the range.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    Str,
    Bool,
    /// Finite and `> 0`.
    Positive,
    /// A fractional drop in `(0, 1)`.
    Fraction,
    /// A ratio `>= 1`.
    Ratio,
    /// A share in `[0, 1]` (zero is meaningful: unique jobs never dedupe).
    Share,
    /// A positive integer.
    Count,
}

impl Rule {
    fn type_name(self) -> &'static str {
        match self {
            Rule::Str => "string",
            Rule::Bool => "boolean",
            _ => "number",
        }
    }

    /// The requirement `v` breaks, if any.
    fn broken_by(self, v: f64) -> Option<&'static str> {
        let positive = v.is_finite() && v > 0.0;
        // Exact integrality guard: a client count of 2.5 must be rejected, not rounded.
        let count = positive && v.fract() == 0.0 && v <= 1e6;
        match self {
            Rule::Str | Rule::Bool => None,
            Rule::Share => (!(0.0..=1.0).contains(&v)).then_some("must be in [0, 1]"),
            Rule::Count => (!count).then_some("must be a positive integer"),
            _ if !positive => Some("must be finite and positive"),
            Rule::Fraction if v >= 1.0 => Some("must be < 1 (a fractional drop)"),
            Rule::Ratio if v < 1.0 => Some("must be >= 1 (a ratio)"),
            _ => None,
        }
    }
}

/// How a key takes part in its section.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Need {
    /// Required, and part of the identity no two entries may share.
    Id,
    Req,
    Opt,
}

/// One key of a `[[section]]`.
type Field = (&'static str, Rule, Need);

use Need::{Id, Opt, Req};
use Rule::{Bool, Count, Fraction, Positive, Ratio, Share, Str};

/// Every section carries a non-empty rationale on top of its own keys.
static RATIONALE: Field = ("rationale", Str, Req);

/// The policy schema: every `[[section]]` the document may hold and the
/// keys of each. This table is *the* place a new ledger section is
/// declared — [`TolerancePolicy::parse`] walks it for the type, range,
/// missing-key, unknown-key, rationale and duplicate-identity checks, so a
/// section cannot skip validation; only its typed struct, builder arm and
/// lookup are written by hand.
static SECTIONS: &[(&str, &[Field])] = &[
    (
        "tolerance",
        &[
            ("op", Str, Id),
            ("path", Str, Id),
            ("kind", Str, Req),
            ("bound", Positive, Req),
        ],
    ),
    (
        "kernel_guardband",
        &[
            ("kernel", Str, Id),
            ("simd", Bool, Id),
            ("reference_gflops", Positive, Req),
            ("guardband", Fraction, Req),
        ],
    ),
    (
        "sched_guardband",
        &[
            ("case", Str, Id),
            ("schedule", Str, Id),
            ("max_imbalance", Ratio, Req),
            ("min_speedup", Ratio, Opt),
        ],
    ),
    (
        "kernel_smoke_floor",
        &[("kernel", Str, Id), ("min_gflops", Positive, Req)],
    ),
    (
        "sched_smoke_floor",
        &[
            ("case", Str, Id),
            ("schedule", Str, Id),
            ("max_imbalance", Positive, Req),
        ],
    ),
    (
        "serve_guardband",
        &[
            ("case", Str, Id),
            ("clients", Count, Id),
            ("reference_jobs_per_s", Positive, Req),
            ("guardband", Fraction, Req),
            ("min_dedupe_hit_rate", Share, Req),
        ],
    ),
    (
        "serve_smoke_floor",
        &[("case", Str, Id), ("min_jobs_per_s", Positive, Req)],
    ),
];

fn perr(source: &str, line: usize, detail: impl Into<String>) -> OmenError {
    OmenError::InvalidPolicy {
        source: source.to_string(),
        line,
        detail: detail.into(),
    }
}

fn parse_value(source: &str, line: usize, raw: &str) -> OmenResult<Raw> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(end) = rest.find('"') else {
            return Err(perr(source, line, "unterminated string value"));
        };
        let tail = rest[end + 1..].trim();
        if !tail.is_empty() && !tail.starts_with('#') {
            return Err(perr(
                source,
                line,
                format!("trailing garbage after string value: {tail:?}"),
            ));
        }
        return Ok(Raw::Str(rest[..end].to_string()));
    }
    // Strip a trailing comment from non-string values.
    let bare = raw.split('#').next().unwrap_or("").trim();
    match bare {
        "true" => Ok(Raw::Bool(true)),
        "false" => Ok(Raw::Bool(false)),
        _ => bare.parse::<f64>().map(Raw::Num).map_err(|_| {
            perr(
                source,
                line,
                format!("unparsable value {bare:?} (expected string, number, or bool)"),
            )
        }),
    }
}

/// One `[[section]]` block: its raw keys, checked against [`SECTIONS`] by
/// [`Entry::validate`] before anything reads them.
struct Entry<'a> {
    source: &'a str,
    section: String,
    line: usize,
    keys: Vec<(String, Raw, usize)>,
}

impl Entry<'_> {
    fn get(&self, key: &str) -> Option<(&Raw, usize)> {
        let hit = self.keys.iter().find(|(k, _, _)| k == key);
        hit.map(|(_, v, line)| (v, *line))
    }

    fn value(&self, key: &str) -> Option<&Raw> {
        self.get(key).map(|(v, _)| v)
    }

    fn err(&self, line: usize, detail: String) -> OmenError {
        perr(self.source, line, format!("[[{}]] {detail}", self.section))
    }

    /// Checks this entry against its row of [`SECTIONS`]: known section,
    /// no unknown keys, every key typed and in range, required keys and a
    /// non-empty rationale present, identity distinct from every entry in
    /// `earlier`.
    fn validate(&self, earlier: &[Entry]) -> OmenResult<()> {
        let Some((_, fields)) = SECTIONS.iter().find(|(name, _)| *name == self.section) else {
            let detail = format!("unknown section [[{}]]", self.section);
            return Err(perr(self.source, self.line, detail));
        };
        let fields = || fields.iter().chain([&RATIONALE]);
        for (key, _, line) in &self.keys {
            if !fields().any(|f| f.0 == key) {
                return Err(self.err(*line, format!("entry has an unknown key {key:?}")));
            }
        }
        for &(key, rule, need) in fields() {
            let Some((value, line)) = self.get(key) else {
                if need != Opt {
                    return Err(self.err(self.line, format!("entry is missing key {key:?}")));
                }
                continue;
            };
            let (want, got) = (rule.type_name(), value.type_name());
            let broken = match value {
                _ if want != got => Some(format!("key {key:?} must be a {want}, got {got}")),
                Raw::Num(v) => rule.broken_by(*v).map(|why| format!("{key} = {v} {why}")),
                _ => None,
            };
            if let Some(detail) = broken {
                return Err(self.err(line, detail));
            }
        }
        if self.str("rationale")?.trim().is_empty() {
            return Err(self.err(self.line, "entry has an empty rationale".into()));
        }
        let identity = || fields().filter(|f| f.2 == Id).map(|f| f.0);
        let same = |other: &&Entry| {
            other.section == self.section && identity().all(|k| other.value(k) == self.value(k))
        };
        if let Some(first) = earlier.iter().find(same) {
            let detail = format!(
                "duplicate {} for the same ({}) as the entry at line {}",
                self.section,
                identity().collect::<Vec<_>>().join(", "),
                first.line
            );
            return Err(perr(self.source, self.line, detail));
        }
        Ok(())
    }

    /// A builder asked for a key its [`SECTIONS`] row does not guarantee.
    fn undeclared(&self, key: &str, want: &str) -> OmenError {
        self.err(
            self.line,
            format!("builder reads {key:?} as a {want} the section table does not declare"),
        )
    }

    fn str(&self, key: &str) -> OmenResult<String> {
        match self.get(key) {
            Some((Raw::Str(s), _)) => Ok(s.clone()),
            _ => Err(self.undeclared(key, "string")),
        }
    }

    fn bool(&self, key: &str) -> OmenResult<bool> {
        match self.get(key) {
            Some((Raw::Bool(b), _)) => Ok(*b),
            _ => Err(self.undeclared(key, "boolean")),
        }
    }

    /// An optional numeric key: `None` when the entry omits it.
    fn opt_num(&self, key: &str) -> OmenResult<Option<f64>> {
        match self.get(key) {
            None => Ok(None),
            Some((Raw::Num(v), _)) => Ok(Some(*v)),
            Some(_) => Err(self.undeclared(key, "number")),
        }
    }

    fn num(&self, key: &str) -> OmenResult<f64> {
        self.opt_num(key)?
            .ok_or_else(|| self.undeclared(key, "number"))
    }

    /// The cross-field rules of a `[[tolerance]]` entry, which no single
    /// [`Field`] can state: closed-set membership of `op`/`path`/`kind`
    /// and the integrality of `ulp` bounds.
    fn tolerance(&self) -> OmenResult<ToleranceEntry> {
        let op = self.str("op")?;
        if !KNOWN_OPS.contains(&op.as_str()) {
            let detail = format!("unknown op {op:?} (not in the KNOWN_OPS registry)");
            return Err(perr(self.source, self.line, detail));
        }
        let path_s = self.str("path")?;
        let Some(path) = DispatchLeg::parse(&path_s) else {
            let detail = format!("unknown path {path_s:?} (expected scalar|avx2fma|any|cross)");
            return Err(perr(self.source, self.line, detail));
        };
        let kind_s = self.str("kind")?;
        let Some(kind) = BoundKind::parse(&kind_s) else {
            let detail =
                format!("unknown kind {kind_s:?} (expected relative|absolute|termwise|ulp)");
            return Err(perr(self.source, self.line, detail));
        };
        let bound = self.num("bound")?;
        if kind == BoundKind::Ulp && (bound < 1.0 || (bound - bound.round()).abs() > 0.0) {
            let line = self.get("bound").map_or(self.line, |(_, line)| line);
            let detail = format!("ulp bound {bound} must be an integer >= 1");
            return Err(perr(self.source, line, detail));
        }
        Ok(ToleranceEntry {
            op,
            path,
            kind,
            bound,
            rationale: self.str("rationale")?,
            line: self.line,
        })
    }
}

/// Why a miss in a committed-baseline guardband lookup is a policy error.
const EVERY_RECORD: &str = " — every committed bench record needs one";

impl TolerancePolicy {
    /// Parses and validates a policy document.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPolicy`] on syntax errors, a missing or
    /// wrong `schema` tag, unknown sections/keys/ops, non-finite or
    /// non-positive bounds, empty rationales, and duplicate entries.
    pub fn parse(source: &str, text: &str) -> OmenResult<TolerancePolicy> {
        let mut schema: Option<String> = None;
        let mut raws: Vec<Entry> = Vec::new();
        for (idx, full) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = full.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[") {
                let Some(name) = header.strip_suffix("]]") else {
                    return Err(perr(source, line_no, format!("malformed header {line:?}")));
                };
                raws.push(Entry {
                    source,
                    section: name.trim().to_string(),
                    line: line_no,
                    keys: Vec::new(),
                });
                continue;
            }
            if line.starts_with('[') {
                return Err(perr(
                    source,
                    line_no,
                    format!("plain [table] headers are not part of the schema: {line:?}"),
                ));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(perr(
                    source,
                    line_no,
                    format!("expected key = value: {line:?}"),
                ));
            };
            let key = key.trim().to_string();
            let value = parse_value(source, line_no, value)?;
            match (raws.last_mut(), value) {
                (Some(entry), value) => {
                    if entry.get(&key).is_some() {
                        return Err(
                            entry.err(line_no, format!("entry has a duplicate key {key:?}"))
                        );
                    }
                    entry.keys.push((key, value, line_no));
                }
                (None, Raw::Str(s)) if key == "schema" => schema = Some(s),
                (None, other) if key == "schema" => {
                    let detail = format!("schema must be a string, got {}", other.type_name());
                    return Err(perr(source, line_no, detail));
                }
                (None, _) => {
                    let detail = format!("unexpected top-level key {key:?} (only \"schema\")");
                    return Err(perr(source, line_no, detail));
                }
            }
        }
        match schema.as_deref() {
            Some(POLICY_SCHEMA) => {}
            Some(other) => {
                let detail = format!("schema {other:?} (expected {POLICY_SCHEMA:?})");
                return Err(perr(source, 0, detail));
            }
            None => {
                let detail = format!("missing schema tag (expected schema = {POLICY_SCHEMA:?})");
                return Err(perr(source, 0, detail));
            }
        }

        let mut policy = TolerancePolicy {
            source: source.to_string(),
            entries: Vec::new(),
            kernel_guardbands: Vec::new(),
            sched_guardbands: Vec::new(),
            kernel_smoke_floors: Vec::new(),
            sched_smoke_floors: Vec::new(),
            serve_guardbands: Vec::new(),
            serve_smoke_floors: Vec::new(),
        };
        for (i, e) in raws.iter().enumerate() {
            e.validate(&raws[..i])?;
            let rationale = e.str("rationale")?;
            match e.section.as_str() {
                "tolerance" => policy.entries.push(e.tolerance()?),
                "kernel_guardband" => policy.kernel_guardbands.push(KernelGuardband {
                    kernel: e.str("kernel")?,
                    simd: e.bool("simd")?,
                    reference_gflops: e.num("reference_gflops")?,
                    guardband: e.num("guardband")?,
                    rationale,
                }),
                "sched_guardband" => {
                    let schedule = e.str("schedule")?;
                    let min_speedup = e.opt_num("min_speedup")?;
                    if min_speedup.is_some() && schedule == "static" {
                        let line = e.get("min_speedup").map_or(e.line, |(_, line)| line);
                        let detail = "min_speedup compares against the static record and \
                                      cannot appear on the static schedule itself";
                        return Err(perr(source, line, detail));
                    }
                    policy.sched_guardbands.push(SchedGuardband {
                        case: e.str("case")?,
                        schedule,
                        max_imbalance: e.num("max_imbalance")?,
                        min_speedup,
                        rationale,
                    });
                }
                "kernel_smoke_floor" => policy.kernel_smoke_floors.push(KernelSmokeFloor {
                    kernel: e.str("kernel")?,
                    min_gflops: e.num("min_gflops")?,
                    rationale,
                }),
                "sched_smoke_floor" => policy.sched_smoke_floors.push(SchedSmokeFloor {
                    case: e.str("case")?,
                    schedule: e.str("schedule")?,
                    max_imbalance: e.num("max_imbalance")?,
                    rationale,
                }),
                "serve_guardband" => policy.serve_guardbands.push(ServeGuardband {
                    case: e.str("case")?,
                    // `Rule::Count` admitted only exact integers <= 1e6.
                    clients: e.num("clients")? as usize,
                    reference_jobs_per_s: e.num("reference_jobs_per_s")?,
                    guardband: e.num("guardband")?,
                    min_dedupe_hit_rate: e.num("min_dedupe_hit_rate")?,
                    rationale,
                }),
                "serve_smoke_floor" => policy.serve_smoke_floors.push(ServeSmokeFloor {
                    case: e.str("case")?,
                    min_jobs_per_s: e.num("min_jobs_per_s")?,
                    rationale,
                }),
                _ => return Err(e.err(e.line, "is in the section table but has no builder".into())),
            }
        }
        Ok(policy)
    }

    /// Loads and validates the policy at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPolicy`] when the file cannot be read or
    /// fails any [`TolerancePolicy::parse`] validation.
    pub fn load(path: &Path) -> OmenResult<TolerancePolicy> {
        let source = path.display().to_string();
        let text = std::fs::read_to_string(path)
            .map_err(|e| perr(&source, 0, format!("cannot read policy file: {e}")))?;
        TolerancePolicy::parse(&source, &text)
    }

    /// Loads the repo-root `TOLERANCES.toml`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TolerancePolicy::load`].
    pub fn load_default() -> OmenResult<TolerancePolicy> {
        TolerancePolicy::load(Path::new(DEFAULT_POLICY_PATH))
    }

    /// All validated `[[tolerance]]` entries, in document order.
    pub fn entries(&self) -> &[ToleranceEntry] {
        &self.entries
    }

    /// Resolves the bound for `op` on `leg`: an entry declared for exactly
    /// `leg` wins, otherwise a leg-independent (`path = "any"`) entry.
    /// The entry's declared kind must match `kind` — asking for a relative
    /// bound where the policy declares an absolute one is a consumer bug,
    /// not a fallback case.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPolicy`] when no entry covers
    /// `(op, leg)` or the covering entry's kind differs from `kind`.
    pub fn bound(&self, op: &str, leg: DispatchLeg, kind: BoundKind) -> OmenResult<f64> {
        let on = |leg| self.entries.iter().find(|e| e.op == op && e.path == leg);
        let entry = on(leg).or_else(|| on(DispatchLeg::Any)).ok_or_else(|| {
            let detail = format!("no tolerance entry for op {op:?} on leg {:?}", leg.as_str());
            perr(&self.source, 0, detail)
        })?;
        if entry.kind != kind {
            return Err(perr(
                &self.source,
                entry.line,
                format!(
                    "op {op:?} declares a {} bound, consumer requested {}",
                    entry.kind.as_str(),
                    kind.as_str()
                ),
            ));
        }
        Ok(entry.bound)
    }

    /// The one finder behind the guardband/floor lookups: the first of
    /// `items` that `hit` accepts, or a typed miss naming `what` (section
    /// and identity).
    fn find<'a, T>(
        &self,
        items: &'a [T],
        what: String,
        hit: impl Fn(&T) -> bool,
    ) -> OmenResult<&'a T> {
        items
            .iter()
            .find(|&g| hit(g))
            .ok_or_else(|| perr(&self.source, 0, format!("no {what}")))
    }

    /// The committed-baseline guardband for a `(kernel, simd)` group.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPolicy`] when the group has no entry.
    pub fn kernel_guardband(&self, kernel: &str, simd: bool) -> OmenResult<&KernelGuardband> {
        let what = format!("kernel_guardband for ({kernel:?}, simd={simd}){EVERY_RECORD}");
        let hit = |g: &KernelGuardband| g.kernel == kernel && g.simd == simd;
        self.find(&self.kernel_guardbands, what, hit)
    }

    /// The committed-baseline imbalance ceiling for `(case, schedule)`.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPolicy`] when the pair has no entry.
    pub fn sched_guardband(&self, case: &str, schedule: &str) -> OmenResult<&SchedGuardband> {
        let what = format!("sched_guardband for ({case:?}, {schedule:?}){EVERY_RECORD}");
        let hit = |g: &SchedGuardband| g.case == case && g.schedule == schedule;
        self.find(&self.sched_guardbands, what, hit)
    }

    /// The fresh-smoke floor for `kernel`.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPolicy`] when the kernel has no entry.
    pub fn kernel_smoke_floor(&self, kernel: &str) -> OmenResult<&KernelSmokeFloor> {
        let what = format!("kernel_smoke_floor for {kernel:?}");
        self.find(&self.kernel_smoke_floors, what, |g| g.kernel == kernel)
    }

    /// The fresh-smoke imbalance ceiling for `(case, schedule)`.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPolicy`] when the pair has no entry.
    pub fn sched_smoke_floor(&self, case: &str, schedule: &str) -> OmenResult<&SchedSmokeFloor> {
        let what = format!("sched_smoke_floor for ({case:?}, {schedule:?})");
        let hit = |g: &SchedSmokeFloor| g.case == case && g.schedule == schedule;
        self.find(&self.sched_smoke_floors, what, hit)
    }

    /// The committed-baseline service guardband for `(case, clients)`.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPolicy`] when the pair has no entry.
    pub fn serve_guardband(&self, case: &str, clients: usize) -> OmenResult<&ServeGuardband> {
        let what = format!("serve_guardband for ({case:?}, clients={clients}){EVERY_RECORD}");
        let hit = |g: &ServeGuardband| g.case == case && g.clients == clients;
        self.find(&self.serve_guardbands, what, hit)
    }

    /// The fresh-smoke throughput floor for a service `case`.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPolicy`] when the case has no entry.
    pub fn serve_smoke_floor(&self, case: &str) -> OmenResult<&ServeSmokeFloor> {
        let what = format!("serve_smoke_floor for {case:?}");
        self.find(&self.serve_smoke_floors, what, |g| g.case == case)
    }
}

/// The process-wide policy, loaded once from [`DEFAULT_POLICY_PATH`].
///
/// # Errors
///
/// Returns the (cached) [`OmenError::InvalidPolicy`] when the repo-root
/// `TOLERANCES.toml` is missing or invalid.
pub fn policy() -> OmenResult<&'static TolerancePolicy> {
    static POLICY: OnceLock<OmenResult<TolerancePolicy>> = OnceLock::new();
    POLICY
        .get_or_init(TolerancePolicy::load_default)
        .as_ref()
        .map_err(Clone::clone)
}

/// Bound lookup for the integration batteries: resolves `op` on the
/// cross-path leg (the batteries compare quantities that may have been
/// produced on different dispatch paths), falling back to a
/// leg-independent entry.
///
/// # Errors
///
/// Same failure modes as [`policy`] and [`TolerancePolicy::bound`].
pub fn test_bound(op: &str, kind: BoundKind) -> OmenResult<f64> {
    policy()?.bound(op, DispatchLeg::Cross, kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: &str) -> String {
        format!("schema = \"{POLICY_SCHEMA}\"\n{body}")
    }

    fn entry(op: &str, path: &str, kind: &str, bound: &str) -> String {
        format!(
            "[[tolerance]]\nop = \"{op}\"\npath = \"{path}\"\nkind = \"{kind}\"\n\
             bound = {bound}\nrationale = \"unit test\"\n"
        )
    }

    fn expect_policy_err(text: &str, needle: &str) {
        match TolerancePolicy::parse("test", text) {
            Err(OmenError::InvalidPolicy { detail, .. }) => assert!(
                detail.contains(needle),
                "detail {detail:?} does not mention {needle:?}"
            ),
            other => panic!("expected InvalidPolicy({needle:?}), got {other:?}"),
        }
    }

    #[test]
    fn parses_minimal_document() {
        let text = doc(&entry("gemm.vs_oracle", "cross", "relative", "1e-12"));
        let p = TolerancePolicy::parse("test", &text).unwrap();
        assert_eq!(p.entries().len(), 1);
        let b = p
            .bound("gemm.vs_oracle", DispatchLeg::Cross, BoundKind::Relative)
            .unwrap();
        assert!((b - 1e-12).abs() < f64::MIN_POSITIVE);
    }

    #[test]
    fn any_leg_is_a_fallback_not_an_override() {
        let text = doc(&format!(
            "{}{}",
            entry("gemm.vs_oracle", "any", "relative", "1e-10"),
            entry("gemm.vs_oracle", "cross", "relative", "1e-12"),
        ));
        let p = TolerancePolicy::parse("test", &text).unwrap();
        let cross = p
            .bound("gemm.vs_oracle", DispatchLeg::Cross, BoundKind::Relative)
            .unwrap();
        let scalar = p
            .bound("gemm.vs_oracle", DispatchLeg::Scalar, BoundKind::Relative)
            .unwrap();
        assert!(cross < scalar, "exact leg must win over the any fallback");
    }

    #[test]
    fn rejects_unknown_op_kind_path_and_sections() {
        expect_policy_err(
            &doc(&entry("gemm.warp_drive", "any", "relative", "1e-12")),
            "unknown op",
        );
        expect_policy_err(
            &doc(&entry("gemm.vs_oracle", "gpu", "relative", "1e-12")),
            "unknown path",
        );
        expect_policy_err(
            &doc(&entry("gemm.vs_oracle", "any", "fuzzy", "1e-12")),
            "unknown kind",
        );
        expect_policy_err(&doc("[[quantum_guardband]]\nx = 1\n"), "unknown section");
    }

    #[test]
    fn rejects_bad_bounds_and_missing_rationale() {
        expect_policy_err(
            &doc(&entry("gemm.vs_oracle", "any", "relative", "nan")),
            "finite and positive",
        );
        expect_policy_err(
            &doc(&entry("gemm.vs_oracle", "any", "relative", "-1e-9")),
            "finite and positive",
        );
        expect_policy_err(
            &doc(&entry("fermi.seam", "any", "ulp", "1.5")),
            "integer >= 1",
        );
        let no_rationale = doc("[[tolerance]]\nop = \"gemm.vs_oracle\"\npath = \"any\"\n\
             kind = \"relative\"\nbound = 1e-12\nrationale = \"  \"\n");
        expect_policy_err(&no_rationale, "empty rationale");
        let missing = doc("[[tolerance]]\nop = \"gemm.vs_oracle\"\npath = \"any\"\n\
             kind = \"relative\"\nbound = 1e-12\n");
        expect_policy_err(&missing, "missing key \"rationale\"");
    }

    #[test]
    fn rejects_duplicates_and_unknown_keys() {
        let dup = doc(&format!(
            "{}{}",
            entry("gemm.vs_oracle", "any", "relative", "1e-12"),
            entry("gemm.vs_oracle", "any", "relative", "1e-10"),
        ));
        expect_policy_err(&dup, "duplicate tolerance");
        let extra = doc(
            "[[tolerance]]\nop = \"gemm.vs_oracle\"\npath = \"any\"\nkind = \"relative\"\n\
             bound = 1e-12\nrationale = \"ok\"\nflavor = \"grape\"\n",
        );
        expect_policy_err(&extra, "unknown key \"flavor\"");
    }

    #[test]
    fn rejects_wrong_or_missing_schema() {
        expect_policy_err("schema = \"omen-tolerances-v9\"\n", "expected");
        expect_policy_err(
            &entry("gemm.vs_oracle", "any", "relative", "1e-12"),
            "missing schema",
        );
    }

    #[test]
    fn lookup_misses_are_typed_errors() {
        let p = TolerancePolicy::parse(
            "test",
            &doc(&entry("gemm.vs_oracle", "any", "relative", "1e-12")),
        )
        .unwrap();
        assert!(matches!(
            p.bound("physics.sum_rule", DispatchLeg::Any, BoundKind::Relative),
            Err(OmenError::InvalidPolicy { .. })
        ));
        assert!(matches!(
            p.bound("gemm.vs_oracle", DispatchLeg::Any, BoundKind::Ulp),
            Err(OmenError::InvalidPolicy { .. })
        ));
        assert!(matches!(
            p.kernel_guardband("gemm", false),
            Err(OmenError::InvalidPolicy { .. })
        ));
    }

    #[test]
    fn parses_guardbands_and_floors() {
        let text = doc("[[kernel_guardband]]\nkernel = \"gemm\"\nsimd = false\n\
             reference_gflops = 7.5\nguardband = 0.35\nrationale = \"baseline floor\"\n\
             [[sched_guardband]]\ncase = \"comb\"\nschedule = \"dynamic\"\n\
             max_imbalance = 1.3\nrationale = \"ceiling\"\n\
             [[kernel_smoke_floor]]\nkernel = \"gemm\"\nmin_gflops = 0.05\n\
             rationale = \"catastrophic only\"\n\
             [[sched_smoke_floor]]\ncase = \"comb\"\nschedule = \"dynamic\"\n\
             max_imbalance = 1.9\nrationale = \"two workers\"\n");
        let p = TolerancePolicy::parse("test", &text).unwrap();
        let g = p.kernel_guardband("gemm", false).unwrap();
        assert!(g.reference_gflops > 7.0 && g.guardband < 1.0);
        assert!(p.kernel_guardband("gemm", true).is_err());
        assert!(p.sched_guardband("comb", "dynamic").is_ok());
        assert!(p.kernel_smoke_floor("gemm").is_ok());
        assert!(p.sched_smoke_floor("comb", "dynamic").is_ok());
        let bad_band = doc("[[kernel_guardband]]\nkernel = \"gemm\"\nsimd = false\n\
             reference_gflops = 7.5\nguardband = 1.5\nrationale = \"x\"\n");
        expect_policy_err(&bad_band, "must be < 1");
    }

    #[test]
    fn sched_guardband_min_speedup_is_optional_and_validated() {
        // Absent key parses to None (the resonance-comb style entry above
        // already covers that); a present key must be >= 1 and must not
        // sit on the static schedule.
        let text = doc(
            "[[sched_guardband]]\ncase = \"iv\"\nschedule = \"dynamic\"\n\
             max_imbalance = 1.1\nmin_speedup = 1.05\nrationale = \"curve floor\"\n\
             [[sched_guardband]]\ncase = \"iv\"\nschedule = \"static\"\n\
             max_imbalance = 2.0\nrationale = \"bad baseline\"\n",
        );
        let p = TolerancePolicy::parse("test", &text).unwrap();
        assert_eq!(
            p.sched_guardband("iv", "dynamic").unwrap().min_speedup,
            Some(1.05)
        );
        assert_eq!(p.sched_guardband("iv", "static").unwrap().min_speedup, None);
        let slow = doc(
            "[[sched_guardband]]\ncase = \"iv\"\nschedule = \"dynamic\"\n\
             max_imbalance = 1.1\nmin_speedup = 0.9\nrationale = \"x\"\n",
        );
        expect_policy_err(&slow, "must be >= 1");
        let on_static = doc(
            "[[sched_guardband]]\ncase = \"iv\"\nschedule = \"static\"\n\
             max_imbalance = 2.0\nmin_speedup = 1.1\nrationale = \"x\"\n",
        );
        expect_policy_err(&on_static, "cannot appear on the static schedule");
        let typed = doc(
            "[[sched_guardband]]\ncase = \"iv\"\nschedule = \"dynamic\"\n\
             max_imbalance = 1.1\nmin_speedup = \"fast\"\nrationale = \"x\"\n",
        );
        expect_policy_err(&typed, "must be a number");
    }

    #[test]
    fn parses_serve_guardbands_and_floors() {
        let text = doc("[[serve_guardband]]\ncase = \"unique-jobs\"\nclients = 4\n\
             reference_jobs_per_s = 250.0\nguardband = 0.5\nmin_dedupe_hit_rate = 0.0\n\
             rationale = \"baseline floor\"\n\
             [[serve_guardband]]\ncase = \"dedupe-storm\"\nclients = 4\n\
             reference_jobs_per_s = 900.0\nguardband = 0.5\nmin_dedupe_hit_rate = 0.5\n\
             rationale = \"storm must actually dedupe\"\n\
             [[serve_smoke_floor]]\ncase = \"unique-jobs\"\nmin_jobs_per_s = 5.0\n\
             rationale = \"catastrophic only\"\n");
        let p = TolerancePolicy::parse("test", &text).unwrap();
        let g = p.serve_guardband("unique-jobs", 4).unwrap();
        assert!(g.reference_jobs_per_s > 0.0 && g.guardband < 1.0);
        assert!(g.min_dedupe_hit_rate.abs() < f64::MIN_POSITIVE);
        assert!(
            p.serve_guardband("dedupe-storm", 4)
                .unwrap()
                .min_dedupe_hit_rate
                > 0.4
        );
        assert!(
            p.serve_guardband("unique-jobs", 8).is_err(),
            "clients key distinct"
        );
        assert!(p.serve_smoke_floor("unique-jobs").is_ok());
        assert!(p.serve_smoke_floor("dedupe-storm").is_err());
    }

    #[test]
    fn rejects_bad_serve_entries() {
        let fractional_clients = doc("[[serve_guardband]]\ncase = \"u\"\nclients = 2.5\n\
             reference_jobs_per_s = 1.0\nguardband = 0.5\nmin_dedupe_hit_rate = 0.0\n\
             rationale = \"x\"\n");
        expect_policy_err(&fractional_clients, "positive integer");
        let bad_rate = doc("[[serve_guardband]]\ncase = \"u\"\nclients = 4\n\
             reference_jobs_per_s = 1.0\nguardband = 0.5\nmin_dedupe_hit_rate = 1.5\n\
             rationale = \"x\"\n");
        expect_policy_err(&bad_rate, "must be in [0, 1]");
        let dup = doc(
            "[[serve_smoke_floor]]\ncase = \"u\"\nmin_jobs_per_s = 1.0\n\
             rationale = \"x\"\n[[serve_smoke_floor]]\ncase = \"u\"\nmin_jobs_per_s = 2.0\n\
             rationale = \"x\"\n",
        );
        expect_policy_err(&dup, "duplicate serve_smoke_floor");
    }

    /// One `[[section]]` block holding a valid value for every key of
    /// `fields` plus the rationale, except that `swap` replaces one key's
    /// value or (`None`) drops the key.
    fn block(section: &str, fields: &[Field], swap: Option<(&str, Option<&str>)>) -> String {
        let mut out = format!("[[{section}]]\n");
        for &(key, rule, _) in fields.iter().chain([&RATIONALE]) {
            let valid = match (key, rule) {
                ("op", _) => "\"gemm.vs_oracle\"",
                ("path", _) => "\"any\"",
                ("kind", _) => "\"relative\"",
                (_, Str) => "\"x\"",
                (_, Bool) => "true",
                (_, Fraction | Share) => "0.5",
                _ => "2",
            };
            match swap {
                Some((k, None)) if k == key => {}
                Some((k, Some(v))) if k == key => out += &format!("{key} = {v}\n"),
                _ => out += &format!("{key} = {valid}\n"),
            }
        }
        out
    }

    /// Generated from [`SECTIONS`], so a section or key added to the table
    /// is covered the moment it is declared: every way a key can be wrong
    /// is an `InvalidPolicy` naming the section and key at the right line.
    #[test]
    fn every_section_table_row_is_validated() {
        let rejects =
            |body: String, section: &str, key: &str, line: usize| match TolerancePolicy::parse(
                "t",
                &doc(&body),
            ) {
                Err(OmenError::InvalidPolicy {
                    detail, line: at, ..
                }) => {
                    assert!(detail.contains(section) && detail.contains(key), "{detail}");
                    assert_eq!(at, line, "{section}.{key}: {detail}");
                }
                other => panic!("{section}.{key}: expected InvalidPolicy, got {other:?}\n{body}"),
            };
        for &(section, fields) in SECTIONS {
            let valid = block(section, fields, None);
            TolerancePolicy::parse("t", &doc(&valid)).expect("the generated entry is valid");
            // Line 1 is the schema tag, line 2 the header, keys follow.
            let after = 3 + fields.len() + 1;
            rejects(format!("{valid}{valid}"), section, fields[0].0, after);
            rejects(format!("{valid}flavor = 1\n"), section, "flavor", after);
            let blank = Some(("rationale", Some("\"  \"")));
            rejects(block(section, fields, blank), section, "rationale", 2);
            for (i, &(key, rule, need)) in fields.iter().chain([&RATIONALE]).enumerate() {
                if need != Opt {
                    rejects(block(section, fields, Some((key, None))), section, key, 2);
                }
                let mistyped = if rule == Str { "1" } else { "\"x\"" };
                let out_of_range = match rule {
                    Str | Bool => vec![],
                    Positive => vec!["0", "-1", "nan", "inf"],
                    Fraction => vec!["0", "1", "nan"],
                    Ratio => vec!["0.5", "nan"],
                    Share => vec!["-0.1", "1.5", "nan"],
                    Count => vec!["0", "2.5", "1e7"],
                };
                for bad in out_of_range.into_iter().chain([mistyped]) {
                    let body = block(section, fields, Some((key, Some(bad))));
                    rejects(body, section, key, 3 + i);
                }
            }
        }
    }

    #[test]
    fn default_policy_loads_and_covers_every_known_op() {
        let p = policy().expect("repo-root TOLERANCES.toml must be valid");
        for op in KNOWN_OPS {
            // Every registered op must resolve on the cross leg for *some*
            // kind; probe all four and require at least one hit.
            let hit = [
                BoundKind::Relative,
                BoundKind::Absolute,
                BoundKind::Termwise,
                BoundKind::Ulp,
            ]
            .iter()
            .any(|&k| p.bound(op, DispatchLeg::Cross, k).is_ok());
            assert!(hit, "op {op:?} has no usable policy entry");
        }
        for e in p.entries() {
            assert!(!e.rationale.trim().is_empty(), "op {:?}", e.op);
        }
    }
}
