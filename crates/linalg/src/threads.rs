//! Thread-count and SIMD-dispatch policy for the parallel dense kernels.
//!
//! The tiled GEMM (and through it the blocked LU trailing update) fan work
//! out over `std::thread::scope` stripes whose inner loops run a
//! register-blocked microkernel. Two runtime policies are decided here, in
//! one place:
//!
//! ## Thread count (`OMEN_THREADS`)
//!
//! 1. an **explicit count** passed by the caller
//!    ([`gemm_threaded`](crate::gemm::gemm_threaded)) always wins — the
//!    conformance battery uses this to pin serial-vs-parallel equality at
//!    fixed thread counts;
//! 2. otherwise the **`OMEN_THREADS`** environment variable (a positive
//!    integer) is honored, letting drivers and CI pick a width without
//!    recompiling;
//! 3. otherwise `std::thread::available_parallelism()` — the whole machine.
//!
//! Small problems never leave the calling thread: below
//! [`PAR_MIN_WORK`] multiply-add operations the spawn cost exceeds the
//! kernel cost, so the auto policy returns 1 and the kernel runs the
//! identical stripe code serially. Because every output element accumulates
//! its `k`-products in the same fixed order no matter how rows are split
//! (see `crate::gemm`), the parallel result is bit-identical to the serial
//! one — the fallback is a pure performance decision, never a numerical
//! one.
//!
//! ## SIMD dispatch (`OMEN_SIMD`)
//!
//! The microkernel has two implementations: a portable scalar reference
//! and an `x86_64` AVX2+FMA variant (`crate::simd`). Which one runs is
//! resolved **once per process** by [`simd_path`]: `OMEN_SIMD=0` forces
//! scalar, `OMEN_SIMD=1` demands the SIMD path (and is rejected when the
//! CPU lacks AVX2+FMA — never a silent downgrade), unset auto-detects via
//! `is_x86_feature_detected!`. For a fixed path, output is bit-identical
//! across thread counts; across paths, results agree only to rounding
//! (FMA and split accumulators legitimately change the rounding sequence —
//! see DESIGN.md §10), which is why the choice is pinned per process and
//! surfaced through [`dispatch_summary`] / the `OMEN_LOG` sink.
//!
//! ## Strict parsing
//!
//! Both variables reject garbage with a typed
//! [`OmenError::InvalidEnv`](omen_num::OmenError) instead of silently
//! defaulting: a typo'd `OMEN_THREADS=fuor` or `OMEN_SIMD=yes` would
//! otherwise produce unattributable benchmark records. The fallible
//! parsers ([`thread_policy`], [`simd_policy`]) are public for drivers
//! that want to validate at startup; the infallible kernel-facing
//! accessors reject by panicking with the typed error's message (the
//! kernels are infallible by contract, like their dimension asserts).

use omen_num::{OmenError, OmenResult};
use std::sync::OnceLock;

/// Smallest kernel (in complex multiply-adds, `m·n·k`) that fans out over
/// threads. A scoped spawn + join costs 30–60 µs, and whether the second
/// thread then lands on an idle core is a host state, so the crossover is
/// a band, not a point. `gemm_threaded` on an `n`-cube, two threads over
/// one on a 2-core host, best of 7; ranges over four AVX2 and two scalar
/// sessions (EXPERIMENTS.md "Kernel fan-out crossover"):
///
/// | n | t1 AVX2 (µs) | t2/t1 AVX2 | t1 scalar (µs) | t2/t1 scalar |
/// |---|---|---|---|---|
/// | 32 | 10 | 3.1–7.0 | 38 | 1.9 |
/// | 64 | 75 | 1.4–1.6 | 304 | 0.75–1.12 |
/// | 90 | 212 | 0.97–1.22 | 878 | 0.62–1.09 |
/// | 128 | 543 | 0.75–1.09 | 2 464 | 0.58–1.03 |
/// | 256 | 4 313 | 0.61–1.02 | 19 102 | 0.52–1.01 |
/// | 512 | 32 651 | 0.54–1.00 | 151 979 | 0.51–0.53 |
///
/// 128³ is the smallest measured cube that reaches t2/t1 ≤ 0.8 on the
/// AVX2 leg and never loses by more than 9 % on either; everything under
/// it loses or ties there — and that is every slab block a shipped device
/// produces (18 … 113).
pub const PAR_MIN_WORK: u64 = 128 * 128 * 128;

/// Environment variable overriding the kernel thread count.
pub const THREADS_ENV: &str = "OMEN_THREADS";

/// Environment variable overriding the SIMD dispatch: `0` forces the
/// scalar microkernel, `1` demands the AVX2+FMA one, unset auto-detects.
pub const SIMD_ENV: &str = "OMEN_SIMD";

/// The instruction-set path the dense kernels dispatch to, resolved once
/// per process by [`simd_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// Portable scalar microkernel — the reference arithmetic order.
    Scalar,
    /// `x86_64` AVX2+FMA microkernel (`crate::simd`).
    Avx2Fma,
}

/// Surfaces an invalid environment configuration from an infallible kernel
/// entry point. The kernels cannot return errors by contract (they sit
/// under solvers that assume shape-checked, infallible BLAS), so a bad
/// `OMEN_*` value is rejected loudly at first use instead of silently
/// defaulting — the same policy as the dimension asserts.
#[allow(clippy::panic)]
fn reject(e: OmenError) -> ! {
    panic!("{e}")
}

/// Parses a raw `OMEN_THREADS` value: `Ok(None)` when unset, `Ok(Some(n))`
/// for a positive integer, a typed error otherwise (including `0`).
fn parse_threads(raw: Option<&str>) -> OmenResult<Option<usize>> {
    let Some(v) = raw else { return Ok(None) };
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(OmenError::InvalidEnv {
            var: THREADS_ENV,
            value: v.to_string(),
            expected: "a positive integer thread count, or unset",
        }),
    }
}

/// Parses a raw `OMEN_SIMD` value: `Ok(None)` when unset (auto-detect),
/// `Ok(Some(false))` for `0`, `Ok(Some(true))` for `1`, a typed error for
/// anything else.
fn parse_simd(raw: Option<&str>) -> OmenResult<Option<bool>> {
    match raw.map(str::trim) {
        None => Ok(None),
        Some("0") => Ok(Some(false)),
        Some("1") => Ok(Some(true)),
        Some(v) => Err(OmenError::InvalidEnv {
            var: SIMD_ENV,
            value: v.to_string(),
            expected: "0 (force scalar), 1 (force SIMD), or unset (auto)",
        }),
    }
}

/// The `OMEN_THREADS` policy, parsed strictly: `Ok(None)` when unset
/// (use available parallelism), `Ok(Some(n))` when set to a positive
/// integer.
///
/// # Errors
///
/// Returns [`OmenError::InvalidEnv`] when the variable is set but not a
/// positive integer.
pub fn thread_policy() -> OmenResult<Option<usize>> {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

/// The `OMEN_SIMD` policy, parsed strictly: `Ok(None)` when unset (auto),
/// `Ok(Some(force))` when pinned to `0`/`1`.
///
/// # Errors
///
/// Returns [`OmenError::InvalidEnv`] when the variable is set to anything
/// other than `0` or `1`.
pub fn simd_policy() -> OmenResult<Option<bool>> {
    parse_simd(std::env::var(SIMD_ENV).ok().as_deref())
}

/// True when this build/CPU combination can run the AVX2+FMA microkernel.
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn resolve_simd() -> OmenResult<SimdPath> {
    match simd_policy()? {
        Some(false) => Ok(SimdPath::Scalar),
        Some(true) => {
            if simd_supported() {
                Ok(SimdPath::Avx2Fma)
            } else {
                Err(OmenError::InvalidEnv {
                    var: SIMD_ENV,
                    value: "1".to_string(),
                    expected: "a CPU with AVX2+FMA when forcing the SIMD path",
                })
            }
        }
        None => Ok(if simd_supported() {
            SimdPath::Avx2Fma
        } else {
            SimdPath::Scalar
        }),
    }
}

/// The resolved SIMD dispatch path, chosen **once per process**: the
/// `OMEN_SIMD` override wins, otherwise CPU feature detection. Later env
/// changes do not move a running process between paths — mixed-path output
/// inside one run would be irreproducible.
///
/// Panics with the typed [`OmenError::InvalidEnv`](omen_num::OmenError)
/// message when `OMEN_SIMD` is garbage or demands SIMD on a CPU without
/// AVX2+FMA.
pub fn simd_path() -> SimdPath {
    static PATH: OnceLock<OmenResult<SimdPath>> = OnceLock::new();
    match PATH.get_or_init(resolve_simd) {
        Ok(p) => *p,
        Err(e) => reject(e.clone()),
    }
}

/// One-line human summary of the resolved kernel dispatch — the SIMD path
/// and why it was chosen, plus the thread policy — for the `OMEN_LOG`
/// sink (`omen-core::log`), so every benchmark record is attributable to
/// a concrete code path.
pub fn dispatch_summary() -> String {
    let why = match simd_policy() {
        Ok(Some(false)) => "OMEN_SIMD=0 forced",
        Ok(Some(true)) => "OMEN_SIMD=1 forced",
        Ok(None) if simd_supported() => "auto: avx2+fma detected",
        Ok(None) => "auto: avx2+fma not available",
        Err(_) => "invalid OMEN_SIMD",
    };
    let path = match simd_path() {
        SimdPath::Scalar => "scalar",
        SimdPath::Avx2Fma => "avx2+fma",
    };
    let threads = match thread_policy() {
        Ok(Some(n)) => format!("OMEN_THREADS={n}"),
        Ok(None) => format!("auto ({} available)", configured_threads()),
        Err(_) => "invalid OMEN_THREADS".to_string(),
    };
    format!("kernel dispatch: simd={path} ({why}), threads={threads}")
}

/// Configured kernel thread width: `OMEN_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism (1 when even
/// that is unknown). Re-read on every call so tests and drivers can change
/// the policy at runtime; callers on hot paths gate on work size first.
///
/// Panics with the typed [`OmenError::InvalidEnv`](omen_num::OmenError)
/// message when `OMEN_THREADS` is set but not a positive integer.
pub fn configured_threads() -> usize {
    match thread_policy() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(e) => reject(e),
    }
}

/// Auto thread count for a kernel performing `work` complex multiply-adds:
/// 1 below [`PAR_MIN_WORK`] (serial fallback), else
/// [`configured_threads`].
pub fn auto_threads(work: u64) -> usize {
    if work < PAR_MIN_WORK {
        1
    } else {
        configured_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_work_stays_serial() {
        assert_eq!(auto_threads(0), 1);
        assert_eq!(auto_threads(PAR_MIN_WORK - 1), 1);
    }

    /// The traffic the threshold was sized for: every slab-block size in
    /// the kernel ledger's devices stays on the calling thread, and the
    /// threshold cube itself fans out.
    #[test]
    fn no_shipped_block_size_fans_out() {
        for n in [18u64, 32, 41, 72, 90, 113] {
            assert_eq!(auto_threads(n * n * n), 1, "n={n}");
        }
        assert_eq!(auto_threads(PAR_MIN_WORK), configured_threads());
    }

    #[test]
    fn configured_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn threads_parse_accepts_positive_rejects_garbage() {
        // (raw OMEN_THREADS value, parsed count) — whitespace trims away
        // and a leading zero is still the same strict integer.
        let good: &[(Option<&str>, Option<usize>)] = &[
            (None, None),
            (Some("1"), Some(1)),
            (Some(" 4 "), Some(4)),
            (Some("01"), Some(1)),
            (Some("128"), Some(128)),
        ];
        for &(raw, want) in good {
            assert_eq!(parse_threads(raw).unwrap(), want, "OMEN_THREADS={raw:?}");
        }
        // Empty, whitespace-only, zero, negative, fractional, textual and
        // overflowing counts all surface the exact typed error — never a
        // silent default.
        let bad = [
            "",
            "   ",
            "0",
            " 0 ",
            "-2",
            "1.5",
            "four",
            "18446744073709551616",
        ];
        for raw in bad {
            match parse_threads(Some(raw)) {
                Err(OmenError::InvalidEnv {
                    var,
                    value,
                    expected,
                }) => {
                    assert_eq!(var, THREADS_ENV, "{raw:?}");
                    assert_eq!(value, raw, "{raw:?}");
                    assert_eq!(expected, "a positive integer thread count, or unset");
                }
                other => panic!("{raw:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn simd_parse_accepts_binary_rejects_garbage() {
        let good: &[(Option<&str>, Option<bool>)] = &[
            (None, None),
            (Some("0"), Some(false)),
            (Some(" 0 "), Some(false)),
            (Some("1"), Some(true)),
            (Some(" 1 "), Some(true)),
        ];
        for &(raw, want) in good {
            assert_eq!(parse_simd(raw).unwrap(), want, "OMEN_SIMD={raw:?}");
        }
        // `01` is not `0` or `1`: a typo'd leg selector must fail loudly,
        // not pick a leg. Likewise empty/whitespace/boolean-ish spellings.
        let bad = ["", "   ", "01", "2", "-1", "true", "yes", "avx2"];
        for raw in bad {
            match parse_simd(Some(raw)) {
                Err(OmenError::InvalidEnv {
                    var,
                    value,
                    expected,
                }) => {
                    assert_eq!(var, SIMD_ENV, "{raw:?}");
                    assert_eq!(value, raw.trim(), "{raw:?}");
                    assert_eq!(
                        expected,
                        "0 (force scalar), 1 (force SIMD), or unset (auto)"
                    );
                }
                other => panic!("{raw:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn dispatch_summary_names_path_and_threads() {
        let s = dispatch_summary();
        assert!(s.contains("simd="));
        assert!(s.contains("threads="));
    }

    #[test]
    fn simd_path_is_stable_across_calls() {
        assert_eq!(simd_path(), simd_path());
        if !simd_supported() {
            assert_eq!(simd_path(), SimdPath::Scalar);
        }
    }
}
