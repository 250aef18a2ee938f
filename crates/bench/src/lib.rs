//! # omen-bench — evaluation harness
//!
//! One binary per table/figure of the reconstructed evaluation (see
//! DESIGN.md §4 and EXPERIMENTS.md). Each binary regenerates the rows or
//! series the corresponding experiment reports:
//!
//! | target | experiment |
//! |---|---|
//! | `fig1_bands` | bulk bandstructure validation (Si, GaAs) |
//! | `fig2_wire_bands` | nanowire subbands / gap vs cross-section |
//! | `tab1_wf_vs_rgf` | WF ≡ RGF ≡ dense equivalence |
//! | `fig3_idvg` | self-consistent Id–Vg of a GAA nanowire nMOSFET |
//! | `fig4_tfet` | GNR TFET transfer curve |
//! | `tab2_flops` | measured flops/energy-point, RGF vs WF |
//! | `fig5_solver_scaling` | SplitSolve strong scaling vs ranks |
//! | `fig6_multilevel` | efficiency of the parallel levels |
//! | `fig7_petascale` | sustained-PFlop/s projection on the Jaguar model |
//! | `tab3_timetosol` | time-to-solution per bias point, engine comparison |
//! | `fig8_ballistic_limits` | conductance quantization & analytic barrier |
//! | `fig9_complex_bands` | evanescent decay constants (extension) |
//! | `fig10_alloy` | SiGe random alloy vs virtual crystal (extension) |
//! | `fig11_utb_kpoints` | transverse momentum integration (extension) |
//! | `fig12_adaptive_grid` | adaptive vs uniform energy grids (extension) |
//! | `fig13_phonon` | phonon dispersion & thermal conductance (extension) |
//! | `fig14_idvd` | output characteristic Id–V_DS (extension) |
//! | `ablations` | SCF predictor / passivation / η / strain studies |
//!
//! Microbenches for the kernels, the scheduler and the service live in
//! `benches/`; they and `tab2_flops --json` persist machine-readable
//! records to the repo-root `BENCH_*.json` ledgers through [`records`] —
//! the one reader/writer of those files — and [`gate`] holds the ledgers
//! to the guardbands in `TOLERANCES.toml`.

pub mod gate;
pub mod records;

use std::time::Instant;

/// Times `f` repeatedly, reporting `(median, min)` seconds per iteration
/// over `samples` timed batches. One warm-up call sizes the batch so each
/// sample covers roughly `target_s` seconds (at least one iteration).
pub fn sample_secs<T>(samples: usize, target_s: f64, mut f: impl FnMut() -> T) -> (f64, f64) {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((target_s / once).ceil() as usize).clamp(1, 10_000);
    let samples = samples.max(1);
    let mut per_iter = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        per_iter.push(t.elapsed().as_secs_f64() / iters as f64);
    }
    per_iter.sort_by(f64::total_cmp);
    (per_iter[samples / 2], per_iter[0])
}

/// Prints a fixed-width table.
// The figure/table bins' stdout report: printing is this crate's job.
#[allow(clippy::print_stdout)]
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let head: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", head.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Formats a float in engineering style.
pub fn eng(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if !(1e-3..1e7).contains(&a) {
        format!("{v:.3e}")
    } else if a < 1.0 {
        format!("{v:.5}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        print_table("t", &["a", "bb"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn timer_returns_result() {
        let (v, s) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn eng_formats() {
        assert_eq!(eng(0.0), "0");
        assert!(eng(1e-9).contains('e'));
        assert!(!eng(12.5).contains('e'));
    }
}
