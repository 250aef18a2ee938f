//! Env-gated driver progress logging.
//!
//! Library crates must stay silent by default (the `print-in-lib` analyzer
//! rule enforces this), yet the SCF and I–V drivers are long-running and
//! operators need per-bias-point progress — convergence state and the
//! [`omen_num::SweepReport`] fault-recovery counts — without attaching a
//! debugger. This module is the one sanctioned stderr sink: it writes only
//! when the `OMEN_LOG` environment variable is set to a non-empty value
//! other than `0`.

use std::sync::OnceLock;

/// Interprets the raw `OMEN_LOG` value: set, non-blank, and not `"0"`
/// after trimming — ` 0 ` from a quoted shell variable must mean the same
/// as `0`, and a whitespace-only value is as good as unset.
fn parse_enabled(val: Option<&str>) -> bool {
    match val.map(str::trim) {
        Some(v) => !v.is_empty() && v != "0",
        None => false,
    }
}

/// Whether driver logging is on for this process (reads `OMEN_LOG` once).
pub fn enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| parse_enabled(std::env::var("OMEN_LOG").ok().as_deref()))
}

/// Emits one progress line to stderr when `OMEN_LOG` is on.
// The env-gated driver log sink: the one sanctioned stderr writer in
// library code.
#[allow(clippy::print_stderr)]
pub fn emit(line: &str) {
    if enabled() {
        eprintln!("[omen] {line}");
    }
}

/// Monotonic per-sweep sequence counter for per-point progress reporting.
///
/// Every attempted point of one sweep draws the next number — solved,
/// recovered, and failed points alike — so the `OMEN_LOG` progress lines
/// and the `omen-serve` streamed progress frames of the same sweep carry
/// identical, gapless sequence numbers and can be cross-checked line by
/// frame. A fresh counter is created per sweep; it is not process-global.
#[derive(Debug, Default)]
pub struct SweepSeq {
    next: u64,
}

impl SweepSeq {
    /// A counter starting at sequence number 0.
    pub fn new() -> SweepSeq {
        SweepSeq::default()
    }

    /// Draws the next sequence number (0, 1, 2, … — never skips).
    pub fn draw(&mut self) -> u64 {
        let n = self.next;
        self.next += 1;
        n
    }

    /// How many sequence numbers have been drawn so far.
    pub fn issued(&self) -> u64 {
        self.next
    }
}

/// Emits the resolved kernel dispatch
/// ([`omen_linalg::threads::dispatch_summary`]) exactly once per process —
/// drivers and bench mains call this before their first kernel so every
/// benchmark record and progress log is attributable to a concrete SIMD
/// path and thread policy. Silent unless `OMEN_LOG` is on; repeat calls
/// are no-ops. Note this resolves the dispatch as a side effect, so an
/// invalid `OMEN_SIMD` fails here, at startup, not mid-run.
pub fn emit_kernel_dispatch() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| emit(&omen_linalg::threads::dispatch_summary()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_value_parsing() {
        // (raw OMEN_LOG value, logging enabled) — whitespace trims away, so
        // a quoted " 0 " disables exactly like a bare 0 and a blank value
        // is as good as unset.
        let cases: &[(Option<&str>, bool)] = &[
            (None, false),
            (Some(""), false),
            (Some("   "), false),
            (Some("0"), false),
            (Some(" 0 "), false),
            (Some("1"), true),
            (Some(" 1 "), true),
            (Some("01"), true),
            (Some("verbose"), true),
        ];
        for &(raw, want) in cases {
            assert_eq!(parse_enabled(raw), want, "OMEN_LOG={raw:?}");
        }
    }

    #[test]
    fn emit_is_safe_either_way() {
        emit("test line (suppressed unless OMEN_LOG is set)");
    }

    #[test]
    fn kernel_dispatch_emit_is_idempotent() {
        emit_kernel_dispatch();
        emit_kernel_dispatch();
    }

    #[test]
    fn sweep_seq_is_gapless_and_starts_at_zero() {
        let mut seq = SweepSeq::new();
        let drawn: Vec<u64> = (0..5).map(|_| seq.draw()).collect();
        assert_eq!(drawn, vec![0, 1, 2, 3, 4]);
        assert_eq!(seq.issued(), 5);
        // A fresh counter restarts — the sequence is per-sweep, not global.
        assert_eq!(SweepSeq::new().draw(), 0);
    }
}
