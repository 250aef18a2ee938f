//! Adversarial bytes (ROADMAP aim 3) against every decoder built on
//! `omen_num::wire`, and against the spec text the CLI and the daemon
//! parse: one encoded sample of each rank payload, of each `omen-serve`
//! frame kind and of a shipped spec file, mutated by the seeded generator
//! the ledger battery uses. Every mutant must decode or fail with the
//! decoder's typed error; a panic or a wire-sized allocation fails the
//! test.

mod common;

use common::mutants;
use omen_core::contacts::{decode_entry, encode_entry, PackedContact};
use omen_linalg::ZMat;
use omen_negf::serialize::{bytes_to_mats, mats_to_bytes};
use omen_negf::{ContactSelfEnergy, Side};
use omen_num::{c64, FailedPoint, OmenError, OmenResult, SweepReport};
use omen_sched::dynamic::{decode_outcome, encode_outcome};
use omen_sched::proto::{
    decode_coord, decode_failures, decode_worker, encode_coord, encode_failures, encode_worker,
    CoordMsg, WorkerMsg,
};
use omen_sched::{SchedStats, SweepOutcome};
use omen_serve::protocol::{decode_result, encode_result, read_frame};
use omen_serve::{Disposition, Frame, Progress, StatsSnapshot, SweepRequest};

/// Runs `decode` over every mutant of `sample`; an `Err` must satisfy
/// `typed`. Returns the number of mutants tried.
fn survives<T>(
    sample: &[u8],
    decode: impl Fn(&[u8]) -> OmenResult<T>,
    typed: impl Fn(&OmenError) -> bool,
) -> usize {
    mutants(sample)
        .inspect(|m| {
            if let Err(e) = decode(m) {
                assert!(typed(&e), "untyped failure {e} on {m:?}");
            }
        })
        .count()
}

fn deserialize(e: &OmenError) -> bool {
    matches!(e, OmenError::Deserialize { .. })
}

fn lead_failure() -> OmenError {
    OmenError::LeadNotConverged {
        energy: 0.25,
        iters: 200,
    }
}

fn failures() -> Vec<FailedPoint> {
    vec![
        FailedPoint {
            energy: -0.25,
            error: OmenError::SingularBlock {
                block: 2,
                energy: -0.25,
                pivot: 1,
                magnitude: 1e-17,
            },
        },
        FailedPoint {
            energy: 0.5,
            error: OmenError::RankFailed {
                rank: 3,
                detail: "worker panicked".into(),
            },
        },
    ]
}

#[test]
fn mutated_rank_payloads_decode_or_fail_as_deserialize() {
    let block = ZMat::from_fn(3, 3, |i, j| c64::new((i * j) as f64, 1.0));
    let mut tried = survives(
        &mats_to_bytes(&[&ZMat::eye(2), &ZMat::zeros(1, 4), &block]),
        bytes_to_mats,
        deserialize,
    );

    // A contact-table entry carries either both contacts or the
    // decimating rank's own failure, so a mutant may also decode *to* a
    // lead error.
    let entry = |b: &[u8]| decode_entry(b).and_then(|outcome| outcome.map(drop));
    let lead_error =
        |e: &OmenError| deserialize(e) || matches!(e, OmenError::LeadNotConverged { .. });
    // Σ on a support of two orbitals of three.
    let mut sigma = block.clone();
    for k in 0..3 {
        sigma[(1, k)] = c64::ZERO;
        sigma[(k, 1)] = c64::ZERO;
    }
    let packed = |side| {
        PackedContact::pack(&ContactSelfEnergy {
            side,
            sigma: sigma.clone(),
            gamma: ZMat::eye(3),
            retries: 1,
        })
    };
    let pair = Ok([packed(Side::Left), packed(Side::Right)]);
    for outcome in [pair, Err(lead_failure())] {
        tried += survives(&encode_entry(3, &outcome), entry, lead_error);
    }

    let worker = [
        WorkerMsg::Request { epoch: 3 },
        WorkerMsg::Result {
            epoch: 3,
            unit: 7,
            elapsed_s: 0.125,
            outcome: Ok(vec![1.0, -2.5, 0.0]),
        },
        WorkerMsg::Result {
            epoch: 4,
            unit: 9,
            elapsed_s: 0.5,
            outcome: Err(lead_failure()),
        },
    ];
    for m in &worker {
        tried += survives(&encode_worker(m, 3), decode_worker, deserialize);
    }
    let coord = [
        CoordMsg::Assign {
            epoch: 2,
            units: vec![5, 1, 9],
        },
        CoordMsg::Fin {
            epoch: 2,
            payload: vec![1, 2, 3],
        },
        CoordMsg::Stale { epoch: 1 },
    ];
    for m in &coord {
        tried += survives(&encode_coord(m), decode_coord, deserialize);
    }

    let outcome = SweepOutcome {
        values: vec![Some(vec![1.0, 2.0]), Some(vec![]), None],
        report: SweepReport {
            solved: 2,
            retried: 1,
            recovered: 1,
            failed: failures(),
        },
        stats: SchedStats {
            units: 3,
            chunks: 2,
            worker_busy_s: vec![0.25, 1.5],
            ..SchedStats::default()
        },
    };
    tried += survives(&encode_outcome(&outcome), decode_outcome, deserialize);
    tried += survives(
        &encode_failures(&failures(), 3),
        decode_failures,
        deserialize,
    );
    assert!(tried > 2_000, "{tried} mutants");
}

#[test]
fn mutated_serve_frames_decode_or_fail_as_protocol() {
    let frames = [
        Frame::Submit("vds = 0.2\n".to_string()),
        Frame::Ping,
        Frame::Stats,
        Frame::Shutdown,
        Frame::Accepted {
            job_id: 42,
            cache_key: 0xdead_beef_dead_beef_dead_beef_dead_beef,
            disposition: Disposition::Joined,
        },
        Frame::Busy {
            queue_depth: 64,
            capacity: 64,
        },
        Frame::Reject("unknown key `materiall`".to_string()),
        Frame::Progress(Progress {
            seq: 3,
            index: 3,
            total: 9,
            v_gate: -0.25,
            v_ds: 0.2,
            current_ua: 1.25e-3,
            scf_iters: 7,
            converged: true,
            solved: 124,
            retried: 2,
            recovered: 1,
            failed: 1,
        }),
        Frame::Done {
            cache_hit: true,
            payload: vec![1, 2, 3, 4, 5],
        },
        Frame::JobFailed("singular block at slab 3".to_string()),
        Frame::StatsReply(StatsSnapshot {
            jobs_accepted: 10,
            solves_started: 4,
            ..StatsSnapshot::default()
        }),
        Frame::Pong,
        Frame::ShutdownAck,
    ];
    let protocol = |e: &OmenError| matches!(e, OmenError::Protocol { .. });
    let mut tried = 0;
    for f in &frames {
        // A truncated stream may also end cleanly on a frame boundary.
        tried += survives(&f.encode(), |mut b| read_frame(&mut b), protocol);
    }
    let points = [omen_core::iv::IvPoint {
        v_gate: -0.1,
        v_ds: 0.2,
        current_ua: 3.5e-2,
        scf_iterations: 4,
        converged: true,
    }];
    let result = encode_result(&points, &SweepReport::default());
    tried += survives(&result, decode_result, protocol);
    assert!(tried > 500, "{tried} mutants");
}

#[test]
fn mutated_spec_text_parses_or_fails_as_protocol() {
    // A spec reaches the parser as text. A mutant that breaks the UTF-8
    // encoding is parsed with the damage as replacement characters, which
    // also puts multi-byte characters in front of every slicing site.
    let spec = include_str!("../../../examples/specs/nanowire.omen");
    let protocol = |e: &OmenError| matches!(e, OmenError::Protocol { .. });
    let tried = survives(
        spec.as_bytes(),
        |b| {
            let req = SweepRequest::parse(&String::from_utf8_lossy(b))?;
            req.device_spec()?;
            req.scf_options()?;
            req.engine_kind()
        },
        protocol,
    );
    assert!(tried > 400, "{tried} mutants");
}
