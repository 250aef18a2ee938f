//! Wire protocol of the coordinator/worker scheduler.
//!
//! Every message travels over `omen-parsim` point-to-point sends on two
//! typed tags — [`TAG_CTRL`] (worker → coordinator) and [`TAG_WORK`]
//! (coordinator → worker) — and opens with a fingerprint header in the
//! spirit of the collective fingerprints of `omen-parsim`: a magic byte, a
//! protocol version and the message kind. A stray or stale payload decodes
//! into a typed [`OmenError::Deserialize`] instead of corrupting the
//! schedule.
//!
//! The primitive layout (little-endian integers, `f64` bit patterns,
//! `u64`-length-prefixed strings and lists) and the typed-error format
//! are declared once, in [`omen_num::wire`]: the per-point failure
//! variants round-trip exactly, so a failed work unit lands in the
//! coordinator's `SweepReport` with the *same* typed error a static sweep
//! would have recorded locally.

use omen_num::wire::{Dec, Enc};
use omen_num::{FailedPoint, OmenError, OmenResult};

/// Worker → coordinator tag (requests, results).
pub const TAG_CTRL: u64 = 0x5C0;
/// Coordinator → worker tag (assignments, termination).
pub const TAG_WORK: u64 = 0x5C1;

/// First header byte of every scheduler message.
const MAGIC: u8 = 0xC5;
/// Protocol version carried in the second header byte. Version 2 added the
/// solving coordinator's `coordinator_units` counter to the FIN-payload
/// stats block; version 3 dropped the request's unused busy-seconds
/// field; version 4 dropped the per-unit heartbeat and the FIN payload's
/// straggler and duplicate counters. An older peer must reject rather
/// than misparse any of them.
const VERSION: u8 = 4;

const KIND_REQUEST: u8 = 1;
const KIND_RESULT: u8 = 3;
const KIND_ASSIGN: u8 = 4;
const KIND_FIN: u8 = 5;
const KIND_STALE: u8 = 6;

/// A message a worker sends the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Pull request for a chunk of work. A worker keeps exactly one
    /// outstanding; the coordinator answers it with [`CoordMsg::Assign`] or
    /// [`CoordMsg::Fin`], at once or — when nothing is queued — as soon as
    /// there is something to say.
    Request {
        /// Sweep epoch this worker is participating in.
        epoch: u64,
    },
    /// Outcome of one unit; also the worker's sign of life.
    Result {
        /// Sweep epoch the unit belongs to — a late copy from a superseded
        /// sweep is dropped by the coordinator instead of being merged into
        /// the wrong sweep's values.
        epoch: u64,
        /// Canonical unit id.
        unit: usize,
        /// Measured solve seconds (feeds the EWMA ledger).
        elapsed_s: f64,
        /// The solved payload, or the typed failure.
        outcome: Result<Vec<f64>, OmenError>,
    },
}

/// A message the coordinator sends a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordMsg {
    /// A chunk of unit ids to solve; empty means "this request is void,
    /// send another after a short pause" — the answer to a request from a
    /// sweep this coordinator has not reached yet, and the liveness probe
    /// of a request parked for long.
    Assign {
        /// Echo of the requester's sweep epoch.
        epoch: u64,
        /// Canonical unit ids, in hand-out order.
        units: Vec<usize>,
    },
    /// Terminal message: the complete merged sweep, identical for every
    /// worker regardless of who solved what.
    Fin {
        /// Sweep epoch being terminated.
        epoch: u64,
        /// Encoded [`crate::SweepOutcome`] (see [`crate::dynamic::encode_outcome`]).
        payload: Vec<u8>,
    },
    /// The requester was declared dead — in a sweep since superseded, or
    /// in the current one, whose units it held were reclaimed: the worker
    /// must abandon its sweep with a typed error instead of waiting for
    /// work that will never come.
    Stale {
        /// The requester's epoch being refused.
        epoch: u64,
    },
}

fn header(kind: u8) -> Enc {
    let mut e = Enc::new();
    e.u8(MAGIC);
    e.u8(VERSION);
    e.u8(kind);
    e
}

/// Checks the fingerprint header and returns the message kind with the
/// reader positioned on the body.
fn open<'a>(b: &'a [u8], context: &'static str) -> OmenResult<(u8, Dec<'a>)> {
    let mut d = Dec::new(b, context);
    let (magic, version, kind) = (d.u8()?, d.u8()?, d.u8()?);
    if magic != MAGIC || version != VERSION {
        return Err(d.invalid("bad magic/version"));
    }
    Ok((kind, d))
}

// ---------------------------------------------------------------------------
// Failure-list codec (SweepReport exchange)
// ---------------------------------------------------------------------------

pub(crate) fn put_failures(e: &mut Enc, failed: &[FailedPoint], origin_rank: usize) {
    e.usize(failed.len());
    for f in failed {
        e.f64(f.energy);
        e.error(&f.error, origin_rank);
    }
}

pub(crate) fn take_failures(d: &mut Dec<'_>) -> OmenResult<Vec<FailedPoint>> {
    // Each entry is at least an energy and an error kind byte.
    let n = d.count(8 + 1)?;
    (0..n)
        .map(|_| {
            Ok(FailedPoint {
                energy: d.f64()?,
                error: d.error()?,
            })
        })
        .collect()
}

/// Serializes a list of abandoned sweep points so a static schedule can
/// exchange its per-group fault ledger across a communicator and every
/// rank ends up with the identical merged `SweepReport`. Errors that
/// cannot cross the wire exactly are attributed to `origin_rank`.
pub fn encode_failures(failed: &[FailedPoint], origin_rank: usize) -> Vec<u8> {
    let mut e = Enc::new();
    put_failures(&mut e, failed, origin_rank);
    e.finish()
}

/// Decodes a failure list produced by [`encode_failures`].
///
/// # Errors
///
/// [`OmenError::Deserialize`] when the blob is truncated, carries an
/// unknown error kind, or has trailing bytes.
pub fn decode_failures(b: &[u8]) -> OmenResult<Vec<FailedPoint>> {
    let mut d = Dec::new(b, "sched failure-list blob");
    let out = take_failures(&mut d)?;
    d.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

/// Serializes a worker message. `origin_rank` stamps opaque error
/// fallbacks with the failing worker's global rank.
pub fn encode_worker(msg: &WorkerMsg, origin_rank: usize) -> Vec<u8> {
    let e = match msg {
        WorkerMsg::Request { epoch } => {
            let mut e = header(KIND_REQUEST);
            e.u64(*epoch);
            e
        }
        WorkerMsg::Result {
            epoch,
            unit,
            elapsed_s,
            outcome,
        } => {
            let mut e = header(KIND_RESULT);
            e.u64(*epoch);
            e.usize(*unit);
            e.f64(*elapsed_s);
            match outcome {
                Ok(values) => {
                    e.u8(1);
                    e.f64s(values);
                }
                Err(err) => {
                    e.u8(0);
                    e.error(err, origin_rank);
                }
            }
            e
        }
    };
    e.finish()
}

/// Decodes a worker message.
///
/// # Errors
///
/// [`OmenError::Deserialize`] on truncation, trailing bytes, a bad header
/// or an unknown kind.
pub fn decode_worker(b: &[u8]) -> OmenResult<WorkerMsg> {
    let (kind, mut d) = open(b, "sched worker message")?;
    let msg = match kind {
        KIND_REQUEST => WorkerMsg::Request { epoch: d.u64()? },
        KIND_RESULT => WorkerMsg::Result {
            epoch: d.u64()?,
            unit: d.usize()?,
            elapsed_s: d.f64()?,
            outcome: match d.u8()? {
                1 => Ok(d.f64s()?),
                0 => Err(d.error()?),
                flag => return Err(d.invalid(format_args!("unknown outcome flag {flag}"))),
            },
        },
        _ => return Err(d.invalid(format_args!("unknown worker message kind {kind}"))),
    };
    d.finish()?;
    Ok(msg)
}

/// Serializes a coordinator message.
pub fn encode_coord(msg: &CoordMsg) -> Vec<u8> {
    let e = match msg {
        CoordMsg::Assign { epoch, units } => {
            let mut e = header(KIND_ASSIGN);
            e.u64(*epoch);
            e.usize(units.len());
            for &u in units {
                e.usize(u);
            }
            e
        }
        CoordMsg::Fin { epoch, payload } => {
            let mut e = header(KIND_FIN);
            e.u64(*epoch);
            e.raw(payload);
            e
        }
        CoordMsg::Stale { epoch } => {
            let mut e = header(KIND_STALE);
            e.u64(*epoch);
            e
        }
    };
    e.finish()
}

/// Decodes a coordinator message.
///
/// # Errors
///
/// [`OmenError::Deserialize`] on truncation, trailing bytes, a bad header
/// or an unknown kind.
pub fn decode_coord(b: &[u8]) -> OmenResult<CoordMsg> {
    let (kind, mut d) = open(b, "sched coordinator message")?;
    let msg = match kind {
        KIND_ASSIGN => {
            let epoch = d.u64()?;
            let n = d.count(8)?;
            let units = (0..n).map(|_| d.usize()).collect::<OmenResult<_>>()?;
            CoordMsg::Assign { epoch, units }
        }
        KIND_FIN => CoordMsg::Fin {
            epoch: d.u64()?,
            payload: d.rest().to_vec(),
        },
        KIND_STALE => CoordMsg::Stale { epoch: d.u64()? },
        _ => return Err(d.invalid(format_args!("unknown coordinator message kind {kind}"))),
    };
    d.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_messages_roundtrip() {
        let msgs = [
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
                outcome: Err(OmenError::LeadNotConverged {
                    energy: 0.25,
                    iters: 200,
                }),
            },
        ];
        for m in &msgs {
            assert_eq!(&decode_worker(&encode_worker(m, 3)).unwrap(), m);
        }
    }

    #[test]
    fn coord_messages_roundtrip() {
        let msgs = [
            CoordMsg::Assign {
                epoch: 1,
                units: vec![],
            },
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
        for m in &msgs {
            assert_eq!(&decode_coord(&encode_coord(m)).unwrap(), m);
        }
    }

    #[test]
    fn failure_lists_roundtrip() {
        let failed = vec![
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
                error: OmenError::LeadNotConverged {
                    energy: 0.5,
                    iters: 200,
                },
            },
        ];
        let got = decode_failures(&encode_failures(&failed, 3)).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].energy, -0.25);
        assert!(matches!(
            got[0].error,
            OmenError::SingularBlock { block: 2, .. }
        ));
        assert!(matches!(
            got[1].error,
            OmenError::LeadNotConverged { iters: 200, .. }
        ));
        assert!(decode_failures(&[]).is_err(), "empty blob is truncated");
        assert_eq!(decode_failures(&encode_failures(&[], 0)).unwrap(), vec![]);
        let mut trailing = encode_failures(&failed, 3);
        trailing.push(0);
        assert!(decode_failures(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn garbage_is_rejected_typed() {
        assert!(decode_worker(&[]).is_err());
        assert!(decode_worker(&[0xC5, 1, 99]).is_err());
        assert!(decode_worker(&[0xAA, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(decode_coord(&[0xC5, 9, 4]).is_err(), "wrong version");
        // Trailing bytes after a well-formed request are a framing error.
        let mut ok = encode_worker(&WorkerMsg::Request { epoch: 0 }, 0);
        ok.push(0);
        assert!(decode_worker(&ok).is_err());
    }

    #[test]
    fn hostile_result_value_count_is_a_typed_error() {
        // A well-formed Result header whose value list claims 2^61 entries.
        let mut e = header(KIND_RESULT);
        e.u64(3);
        e.usize(7);
        e.f64(0.125);
        e.u8(1);
        e.u64(1 << 61);
        assert_eq!(
            decode_worker(&e.finish()),
            Err(OmenError::Deserialize {
                context: "sched worker message"
            })
        );
        // Same for an Assign's unit list and a failure list.
        let mut e = header(KIND_ASSIGN);
        e.u64(3);
        e.u64(1 << 61);
        assert!(matches!(
            decode_coord(&e.finish()),
            Err(OmenError::Deserialize { .. })
        ));
        assert!(matches!(
            decode_failures(&(1u64 << 61).to_le_bytes()),
            Err(OmenError::Deserialize { .. })
        ));
    }
}
