//! Typed errors and recovery accounting for the whole solver stack.
//!
//! The production simulator sustains long sweeps precisely because a point
//! failure — one singular pivot block, one non-converged lead at one energy
//! — stays local to its (bias, k, E) task instead of aborting the job.
//! [`OmenError`] is the typed currency every solver layer speaks, and
//! [`SweepReport`] is the per-sweep ledger of what was solved, retried,
//! recovered, or abandoned.

use std::fmt;

/// Result alias used across the solver stack.
pub type OmenResult<T> = Result<T, OmenError>;

/// Sentinel for "energy unknown at this layer" (filled in by the transport
/// driver via [`OmenError::with_energy`]).
pub const ENERGY_UNKNOWN: f64 = f64::NAN;

/// Typed failure of any solver-stack operation.
#[derive(Debug, Clone, PartialEq)]
pub enum OmenError {
    /// A diagonal pivot block was singular to working precision (even after
    /// any regularization the calling policy allowed).
    SingularBlock {
        /// Slab/block index in the block-tridiagonal system.
        block: usize,
        /// Energy (eV) of the transport point, `NaN` when not yet known.
        energy: f64,
        /// Pivot index inside the block where elimination broke down.
        pivot: usize,
        /// Magnitude of the failing pivot.
        magnitude: f64,
    },
    /// Sancho–Rubio decimation did not converge within its iteration bound.
    LeadNotConverged {
        /// Energy (eV) at which the lead was evaluated.
        energy: f64,
        /// Iterations performed before giving up.
        iters: usize,
    },
    /// Operands with incompatible shapes reached a kernel.
    ShapeMismatch {
        /// Which operation rejected its operands.
        context: &'static str,
        /// Expected (rows, cols).
        expected: (usize, usize),
        /// Received (rows, cols).
        got: (usize, usize),
    },
    /// A rank of a distributed run failed (panic or error).
    RankFailed {
        /// Rank index in the world communicator.
        rank: usize,
        /// Human-readable failure description.
        detail: String,
    },
    /// The SPMD collective schedule diverged: a member of a communicator
    /// entered a collective whose fingerprint (op kind, communicator id,
    /// op counter, payload length) does not match the root's. Raised on
    /// *every* member of the communicator within one collective round.
    ScheduleDivergence {
        /// Global rank whose fingerprint disagreed with the root's.
        rank: usize,
        /// The root's fingerprint, e.g. `bcast#2 comm=1 len=0`.
        expected: String,
        /// The divergent rank's fingerprint.
        got: String,
    },
    /// A blocking receive waited past its bound: the peer died or the
    /// communication schedule diverged outside any collective.
    RecvTimeout {
        /// Rank that was blocked in the receive.
        rank: usize,
        /// Source rank the receive was matching.
        from: usize,
        /// Tag the receive was matching.
        tag: u64,
        /// How long the receive waited (ms).
        waited_ms: u64,
        /// Received-but-unconsumed messages sitting in the out-of-order
        /// buffer at the time of the timeout — nonzero values point at a
        /// schedule divergence rather than a dead peer.
        pending: usize,
    },
    /// A rank's message channel closed while it was blocked in a receive
    /// (every peer's sender dropped — the runtime is tearing down).
    ChannelClosed {
        /// Rank that was blocked in the receive.
        rank: usize,
        /// Source rank the receive was matching.
        from: usize,
        /// Tag the receive was matching.
        tag: u64,
        /// Received-but-unconsumed messages in the out-of-order buffer.
        pending: usize,
    },
    /// A rank-message payload could not be decoded.
    Deserialize {
        /// Which decoder rejected the payload.
        context: &'static str,
    },
    /// The `OMEN_SIMD` environment variable held a value the dispatch
    /// policy cannot honor — unparsable, or requesting hardware the machine
    /// does not have. Raised instead of silently defaulting, so a typo'd
    /// `OMEN_SIMD=yes` never ships an unattributable benchmark.
    InvalidEnv {
        /// Variable name (`OMEN_SIMD`).
        var: &'static str,
        /// The rejected raw value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// The machine-readable tolerance/guardband policy (`TOLERANCES.toml`)
    /// is missing, malformed, or does not cover what a consumer asked for.
    /// Raised instead of falling back to an ad-hoc bound, so a typo'd or
    /// deleted policy entry fails loudly rather than silently loosening a
    /// conformance gate.
    InvalidPolicy {
        /// File (or logical source) of the policy text.
        source: String,
        /// 1-based line of the offending entry, 0 for whole-document
        /// problems (missing file, missing schema, lookup misses).
        line: usize,
        /// What is wrong.
        detail: String,
    },
    /// A committed benchmark baseline (`BENCH_*.json`) could not be
    /// decoded: wrong schema version, malformed record, or unreadable
    /// file. Raised instead of silently dropping records so a stale or
    /// corrupt baseline never masquerades as an empty one.
    InvalidBaseline {
        /// Path of the baseline file.
        path: String,
        /// What is wrong (includes the found-vs-expected schema when the
        /// version does not match).
        detail: String,
    },
    /// A non-finite or negative duration reached the scheduler's cost
    /// model (e.g. a corrupt wire-encoded timing). Rejected instead of
    /// folded into the EWMA, where a single NaN would poison every later
    /// LPT hand-out decision.
    NonFiniteCost {
        /// Work-unit index whose observation was rejected.
        unit: usize,
        /// The rejected seconds value.
        value: f64,
    },
    /// A wire-protocol frame or payload violated the `omen-serve` framing
    /// contract: truncated header, bad magic, unsupported version, a
    /// length prefix past the frame-size cap, an unknown frame kind, or a
    /// connection that died mid-frame. Raised instead of a panic or a hang
    /// so one garbage client never takes the daemon down.
    Protocol {
        /// Which decoder/validator rejected the bytes.
        context: &'static str,
        /// What was wrong (includes the offending values).
        detail: String,
    },
    /// The service job queue is at capacity: the request was rejected
    /// up-front with the observed depth instead of being dropped silently
    /// or buffered without bound. Clients are expected to retry with
    /// backoff.
    Busy {
        /// Jobs queued (not yet running) when the request arrived.
        queue_depth: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// A matrix entry falls outside the block-tridiagonal envelope of the
    /// given slab partition (non-nearest-neighbor coupling).
    InvalidPartition {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Slab containing the row.
        slab_row: usize,
        /// Slab containing the column.
        slab_col: usize,
    },
}

impl OmenError {
    /// Fills in the energy on variants that carry one but were raised below
    /// the layer that knows it (e.g. a singular block inside a solver).
    #[must_use]
    pub fn with_energy(self, e: f64) -> OmenError {
        match self {
            OmenError::SingularBlock {
                block,
                energy,
                pivot,
                magnitude,
            } if energy.is_nan() => OmenError::SingularBlock {
                block,
                energy: e,
                pivot,
                magnitude,
            },
            other => other,
        }
    }

    /// The energy this error is attached to, when known.
    pub fn energy(&self) -> Option<f64> {
        match self {
            OmenError::SingularBlock { energy, .. }
            | OmenError::LeadNotConverged { energy, .. }
                if !energy.is_nan() =>
            {
                Some(*energy)
            }
            _ => None,
        }
    }
}

impl fmt::Display for OmenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmenError::SingularBlock {
                block,
                energy,
                pivot,
                magnitude,
            } => {
                if energy.is_nan() {
                    write!(
                        f,
                        "singular diagonal block {block} (pivot {pivot}, |p| = {magnitude:.3e})"
                    )
                } else {
                    write!(
                        f,
                        "singular diagonal block {block} at E = {energy} eV \
                         (pivot {pivot}, |p| = {magnitude:.3e})"
                    )
                }
            }
            OmenError::LeadNotConverged { energy, iters } => {
                write!(
                    f,
                    "Sancho-Rubio lead not converged at E = {energy} eV after {iters} iterations"
                )
            }
            OmenError::ShapeMismatch {
                context,
                expected,
                got,
            } => {
                write!(
                    f,
                    "shape mismatch in {context}: expected {}x{}, got {}x{}",
                    expected.0, expected.1, got.0, got.1
                )
            }
            OmenError::RankFailed { rank, detail } => {
                write!(f, "rank {rank} failed: {detail}")
            }
            OmenError::ScheduleDivergence {
                rank,
                expected,
                got,
            } => {
                write!(
                    f,
                    "collective schedule divergence: rank {rank} entered {got}, \
                     root expected {expected}"
                )
            }
            OmenError::RecvTimeout {
                rank,
                from,
                tag,
                waited_ms,
                pending,
            } => {
                write!(
                    f,
                    "rank {rank} recv(from = {from}, tag = {tag:#x}) timed out after \
                     {waited_ms} ms (peer dead or schedule divergence; {pending} \
                     unconsumed messages pending)"
                )
            }
            OmenError::ChannelClosed {
                rank,
                from,
                tag,
                pending,
            } => {
                write!(
                    f,
                    "rank {rank} channel closed while receiving (from = {from}, \
                     tag = {tag:#x}, {pending} unconsumed messages pending)"
                )
            }
            OmenError::Deserialize { context } => {
                write!(f, "malformed rank-message payload in {context}")
            }
            OmenError::InvalidEnv {
                var,
                value,
                expected,
            } => {
                write!(f, "invalid {var}={value:?}: expected {expected}")
            }
            OmenError::InvalidPolicy {
                source,
                line,
                detail,
            } => {
                if *line == 0 {
                    write!(f, "invalid tolerance policy {source}: {detail}")
                } else {
                    write!(f, "invalid tolerance policy {source}:{line}: {detail}")
                }
            }
            OmenError::InvalidBaseline { path, detail } => {
                write!(f, "invalid bench baseline {path}: {detail}")
            }
            OmenError::NonFiniteCost { unit, value } => {
                write!(
                    f,
                    "rejected cost observation for unit {unit}: {value} is not a \
                     finite non-negative duration"
                )
            }
            OmenError::Protocol { context, detail } => {
                write!(f, "protocol violation in {context}: {detail}")
            }
            OmenError::Busy {
                queue_depth,
                capacity,
            } => {
                write!(
                    f,
                    "service busy: job queue at {queue_depth}/{capacity} — retry with backoff"
                )
            }
            OmenError::InvalidPartition {
                row,
                col,
                slab_row,
                slab_col,
            } => {
                write!(
                    f,
                    "entry ({row},{col}) spans non-adjacent slabs {slab_row},{slab_col}: \
                     slab partition incompatible with nearest-neighbor coupling"
                )
            }
        }
    }
}

impl std::error::Error for OmenError {}

/// One abandoned point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedPoint {
    /// Energy (eV) of the abandoned point (for bias sweeps, the bias value).
    pub energy: f64,
    /// Why it was abandoned.
    pub error: OmenError,
}

/// Per-sweep fault ledger: how many points solved cleanly, how many retry
/// attempts the recovery policies spent, how many points only succeeded
/// because of a recovery, and which points were abandoned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepReport {
    /// Points solved (including recovered ones).
    pub solved: usize,
    /// Total recovery attempts spent across the sweep (pivot
    /// regularizations, lead energy nudges).
    pub retried: usize,
    /// Points that succeeded only after at least one recovery attempt.
    pub recovered: usize,
    /// Points abandoned after recovery was exhausted.
    pub failed: Vec<FailedPoint>,
}

impl SweepReport {
    /// Records a point solved with `retries` recovery attempts.
    pub fn record_solved(&mut self, retries: usize) {
        self.solved += 1;
        self.retried += retries;
        if retries > 0 {
            self.recovered += 1;
        }
    }

    /// Records an abandoned point.
    pub fn record_failed(&mut self, energy: f64, error: OmenError) {
        self.failed.push(FailedPoint { energy, error });
    }

    /// Total points attempted.
    pub fn attempted(&self) -> usize {
        self.solved + self.failed.len()
    }

    /// True when every attempted point solved cleanly on the first try.
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty() && self.retried == 0
    }

    /// Folds another report into this one (k-point / bias aggregation).
    pub fn merge(&mut self, other: &SweepReport) {
        self.solved += other.solved;
        self.retried += other.retried;
        self.recovered += other.recovered;
        self.failed.extend(other.failed.iter().cloned());
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} solved ({} recovered, {} retries), {} failed",
            self.solved,
            self.recovered,
            self.retried,
            self.failed.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_energy_fills_only_unknown() {
        let e = OmenError::SingularBlock {
            block: 3,
            energy: ENERGY_UNKNOWN,
            pivot: 1,
            magnitude: 0.0,
        };
        match e.with_energy(0.5) {
            OmenError::SingularBlock { energy, .. } => assert_eq!(energy, 0.5),
            _ => unreachable!(),
        }
        let known = OmenError::SingularBlock {
            block: 3,
            energy: 1.25,
            pivot: 1,
            magnitude: 0.0,
        };
        match known.with_energy(0.5) {
            OmenError::SingularBlock { energy, .. } => assert_eq!(energy, 1.25),
            _ => unreachable!(),
        }
    }

    #[test]
    fn report_accounting() {
        let mut r = SweepReport::default();
        r.record_solved(0);
        r.record_solved(2);
        r.record_failed(
            0.7,
            OmenError::LeadNotConverged {
                energy: 0.7,
                iters: 200,
            },
        );
        assert_eq!(r.solved, 2);
        assert_eq!(r.retried, 2);
        assert_eq!(r.recovered, 1);
        assert_eq!(r.attempted(), 3);
        assert!(!r.is_clean());

        let mut total = SweepReport::default();
        total.merge(&r);
        total.merge(&r);
        assert_eq!(total.solved, 4);
        assert_eq!(total.failed.len(), 2);
    }

    #[test]
    fn comm_error_displays() {
        let d = OmenError::ScheduleDivergence {
            rank: 3,
            expected: "bcast#2 comm=1 len=0".into(),
            got: "allreduce#2 comm=1 len=8".into(),
        };
        let s = d.to_string();
        assert!(s.contains("rank 3"));
        assert!(s.contains("bcast#2"));
        assert!(s.contains("allreduce#2"));
        let t = OmenError::RecvTimeout {
            rank: 1,
            from: 0,
            tag: 0x10,
            waited_ms: 250,
            pending: 2,
        };
        let s = t.to_string();
        assert!(s.contains("250 ms"));
        assert!(s.contains("2 unconsumed"));
        let c = OmenError::ChannelClosed {
            rank: 0,
            from: 1,
            tag: 7,
            pending: 0,
        };
        assert!(c.to_string().contains("channel closed"));
    }

    #[test]
    fn invalid_env_displays_var_and_value() {
        let e = OmenError::InvalidEnv {
            var: "OMEN_SIMD",
            value: "maybe".into(),
            expected: "0, 1, or unset",
        };
        let s = e.to_string();
        assert!(s.contains("OMEN_SIMD"));
        assert!(s.contains("maybe"));
        assert!(s.contains("0, 1, or unset"));
    }

    #[test]
    fn policy_and_baseline_errors_display() {
        let p = OmenError::InvalidPolicy {
            source: "TOLERANCES.toml".into(),
            line: 12,
            detail: "missing rationale".into(),
        };
        let s = p.to_string();
        assert!(s.contains("TOLERANCES.toml:12"));
        assert!(s.contains("missing rationale"));
        let p0 = OmenError::InvalidPolicy {
            source: "TOLERANCES.toml".into(),
            line: 0,
            detail: "no entry for op \"gemm\"".into(),
        };
        let s = p0.to_string();
        assert!(s.contains("TOLERANCES.toml: no entry"));
        assert!(!s.contains(":0:"));
        let b = OmenError::InvalidBaseline {
            path: "BENCH_kernels.json".into(),
            detail: "schema \"v9\" (expected \"omen-bench-kernels-v1\")".into(),
        };
        let s = b.to_string();
        assert!(s.contains("BENCH_kernels.json"));
        assert!(s.contains("expected"));
        let c = OmenError::NonFiniteCost {
            unit: 7,
            value: f64::NAN,
        };
        let s = c.to_string();
        assert!(s.contains("unit 7"));
        assert!(s.contains("NaN"));
    }

    #[test]
    fn protocol_and_busy_errors_display() {
        let p = OmenError::Protocol {
            context: "frame header",
            detail: "bad magic 0xdeadbeef (expected \"OMSV\")".into(),
        };
        let s = p.to_string();
        assert!(s.contains("frame header"));
        assert!(s.contains("0xdeadbeef"));
        let b = OmenError::Busy {
            queue_depth: 64,
            capacity: 64,
        };
        let s = b.to_string();
        assert!(s.contains("64/64"));
        assert!(s.contains("retry"));
    }

    #[test]
    fn display_formats() {
        let e = OmenError::SingularBlock {
            block: 2,
            energy: 0.4,
            pivot: 0,
            magnitude: 1e-301,
        };
        assert!(e.to_string().contains("block 2"));
        assert!(e.to_string().contains("0.4"));
        let u = OmenError::SingularBlock {
            block: 2,
            energy: ENERGY_UNKNOWN,
            pivot: 0,
            magnitude: 0.0,
        };
        assert!(!u.to_string().contains("NaN"));
    }
}
