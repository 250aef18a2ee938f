//! omen-cli — run device simulations from a plain-text spec file.
//!
//! ```sh
//! cargo run --release --bin omen_cli -- examples/specs/nanowire.omen
//! cargo run --release --bin omen_cli -- --print-default > my_device.omen
//! ```
//!
//! The spec format is the `omen-serve` request format (one `key = value`
//! pair per line, `#` comments, unknown keys are an error), read by the
//! same [`SweepRequest`] parser and validator the daemon uses. The only
//! difference is the default of an unset `mode` key: the CLI runs the
//! self-consistent sweep. See `--print-default` for every key.

use omen::core::iv::{frozen_field_sweep, gate_sweep, on_off_ratio, subthreshold_swing};
use omen::num::OmenError;
use omen::serve::{Mode, SweepRequest};

/// The request defaults with the CLI's `mode = scf`.
fn default_spec() -> String {
    SweepRequest::default_text().replace("mode       = frozen", "mode       = scf   ")
}

/// Request-level rejections carry their own wording; drop the wire prefix.
fn message(e: OmenError) -> String {
    match e {
        OmenError::Protocol { detail, .. } => detail,
        e => e.to_string(),
    }
}

fn run(spec_text: &str) -> Result<(), String> {
    let req = SweepRequest::parse_with_default_mode(spec_text, Mode::Scf).map_err(message)?;
    let engine = req.engine_kind().map_err(message)?;
    let vgs = req.v_gates();
    let mut tr = req.device_spec().map_err(message)?.build();
    println!(
        "# device: {} atoms, {} slabs, {} ({}), engine {:?}",
        tr.device.num_atoms(),
        tr.device.num_slabs,
        req.material,
        req.geometry,
        engine,
    );

    let points = match req.mode {
        Mode::Frozen => frozen_field_sweep(&tr, &vgs, req.vds, req.mu_source, engine, req.n_energy),
        Mode::Scf => {
            let opts = req.scf_options().map_err(message)?;
            gate_sweep(&mut tr, &vgs, req.vds, req.mu_source, &opts)
        }
    };

    println!("# V_G(V)      I_D(µA)        SCF_iters  converged");
    for p in &points {
        println!(
            "{:+.4}    {:14.6e}   {:3}       {}",
            p.v_gate, p.current_ua, p.scf_iterations, p.converged
        );
    }
    if let Some(ss) = subthreshold_swing(&points) {
        println!("# SS = {ss:.1} mV/dec");
    }
    if let Some(r) = on_off_ratio(&points) {
        println!("# on/off = {r:.3e}");
    }
    Ok(())
}

fn run_file(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec `{path}`: {e}"))?;
    run(&text)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("--print-default") => print!("{}", default_spec()),
        Some(path) => {
            if let Err(e) = run_file(path) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        None => {
            eprintln!("usage: omen_cli <spec-file> | omen_cli --print-default");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_self_consistent() {
        // What `--print-default` shows is what an empty spec runs.
        let d = SweepRequest::parse(&default_spec()).expect("printed default parses");
        assert_eq!(d.mode, Mode::Scf);
        assert_eq!(
            d,
            SweepRequest::parse_with_default_mode("", Mode::Scf).unwrap()
        );
    }

    #[test]
    fn unreadable_spec_file_is_an_error_not_a_panic() {
        let e = run_file("no/such/dir/device.omen").unwrap_err();
        assert!(e.contains("cannot read spec"), "{e}");
    }

    #[test]
    fn unknown_key_is_an_error() {
        let e = run("materiall = si_sp3s\n").unwrap_err();
        assert!(e.contains("unknown key"), "{e}");
    }

    #[test]
    fn frozen_run_executes() {
        let spec = "\
material = single_band_1000
mode = frozen
slabs = 6
n_energy = 15
vg_points = 3
vg_start = -0.1
vg_stop = 0.1
mu_source = -3.4
doping_sd = 0.0
";
        run(spec).expect("frozen sweep runs");
    }
}
