//! Length-prefix-framed, versioned wire protocol.
//!
//! Every message is one frame:
//!
//! ```text
//! magic  4 B   b"OMSV"
//! ver    2 B   u16 LE, currently 2
//! kind   1 B   frame discriminant
//! len    4 B   u32 LE payload length, <= 16 MiB
//! body   len B kind-specific payload (all integers LE, floats as
//!              IEEE-754 bit patterns)
//! ```
//!
//! Payloads are written with [`omen_num::wire::Enc`] and read through
//! [`omen_num::wire::Dec`] — the one place the primitive layout is
//! declared; this module owns only the frame header and the field order
//! of each kind.
//!
//! The decoder is total: truncated headers, bad magic, unsupported
//! versions, unknown kinds, oversized lengths, short payloads, and
//! trailing payload bytes all come back as typed
//! [`OmenError::Protocol`] values — never a panic, never a hang on a
//! closed socket. A connection that closes *between* frames is a clean
//! end-of-stream (`Ok(None)`); closing *inside* a frame is a protocol
//! error, because the peer died mid-sentence.

use omen_num::wire::{Dec, Enc};
use omen_num::{OmenError, OmenResult, SweepReport};
use std::io::Read;

/// Frame magic: "OMSV" (OMen SerVe).
pub const MAGIC: [u8; 4] = *b"OMSV";
/// Current protocol version. Version 2 added `cache_evictions` to the
/// `StatsReply` payload when the result cache became a bounded LRU.
pub const VERSION: u16 = 2;
/// Maximum payload bytes one frame may carry.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// Fixed header size (magic + version + kind + length).
pub const HEADER_LEN: usize = 11;

/// How a submitted job was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// A fresh solve was queued.
    Fresh,
    /// Joined an identical job already queued or running.
    Joined,
    /// Served from the result cache; `Done` follows immediately.
    Cached,
}

/// One per-point progress observation, as carried on the wire. The
/// cumulative [`SweepReport`] counters cover the sweep *so far* (up to
/// and including this point), so the last progress frame of a job must
/// agree with the totals embedded in the final result payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Monotonic per-sweep sequence number (gapless from 0).
    pub seq: u64,
    /// Bias-point index in the requested grid.
    pub index: u64,
    /// Total bias points in the sweep.
    pub total: u64,
    /// Gate voltage of this point (V).
    pub v_gate: f64,
    /// Drain voltage of this point (V).
    pub v_ds: f64,
    /// Drain current of this point (µA).
    pub current_ua: f64,
    /// SCF iterations spent on this point.
    pub scf_iters: u64,
    /// Whether this point converged.
    pub converged: bool,
    /// Energy points solved so far (cumulative).
    pub solved: u64,
    /// Retries so far (cumulative).
    pub retried: u64,
    /// Recovered points so far (cumulative).
    pub recovered: u64,
    /// Failed points so far (cumulative).
    pub failed: u64,
}

/// Server load/health counters returned by `Stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs admitted (fresh + joined + cached).
    pub jobs_accepted: u64,
    /// Submissions rejected with `Busy`.
    pub busy_rejections: u64,
    /// Fresh solves actually started by a worker (the dedupe witness:
    /// identical concurrent submissions bump this once).
    pub solves_started: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Submissions that joined an in-flight identical job.
    pub dedupe_joins: u64,
    /// Finished results evicted from the bounded LRU cache to stay
    /// within the byte budget.
    pub cache_evictions: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Jobs currently being solved.
    pub running: u64,
}

/// Every protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ----- client → server -----
    /// Submit a sweep job; payload is `key = value` request text.
    Submit(String),
    /// Liveness probe.
    Ping,
    /// Request a [`StatsSnapshot`].
    Stats,
    /// Ask the server to drain in-flight work and exit.
    Shutdown,

    // ----- server → client -----
    /// Job admitted; identifies it and says how it was admitted.
    Accepted {
        /// Server-assigned job id.
        job_id: u64,
        /// Content-address of the canonical request.
        cache_key: u128,
        /// How the job was admitted.
        disposition: Disposition,
    },
    /// Queue at capacity; retry with backoff.
    Busy {
        /// Jobs currently queued.
        queue_depth: u64,
        /// Queue capacity.
        capacity: u64,
    },
    /// Request refused (malformed, unknown keys, draining, …).
    Reject(String),
    /// One per-point progress observation.
    Progress(Progress),
    /// Job finished; payload is the serialized sweep result.
    Done {
        /// Whether the payload came from the result cache.
        cache_hit: bool,
        /// Serialized result (see [`SweepResult`]).
        payload: Vec<u8>,
    },
    /// Job failed with a typed solver error (rendered).
    JobFailed(String),
    /// Reply to `Stats`.
    StatsReply(StatsSnapshot),
    /// Reply to `Ping`.
    Pong,
    /// Reply to `Shutdown`: drain has begun.
    ShutdownAck,
}

const K_SUBMIT: u8 = 1;
const K_PING: u8 = 2;
const K_STATS: u8 = 3;
const K_SHUTDOWN: u8 = 4;
const K_ACCEPTED: u8 = 16;
const K_BUSY: u8 = 17;
const K_REJECT: u8 = 18;
const K_PROGRESS: u8 = 19;
const K_DONE: u8 = 20;
const K_JOB_FAILED: u8 = 21;
const K_STATS_REPLY: u8 = 22;
const K_PONG: u8 = 23;
const K_SHUTDOWN_ACK: u8 = 24;

fn perr(context: &'static str, detail: String) -> OmenError {
    OmenError::Protocol { context, detail }
}

// ---------------------------------------------------------------- encode

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Submit(_) => K_SUBMIT,
            Frame::Ping => K_PING,
            Frame::Stats => K_STATS,
            Frame::Shutdown => K_SHUTDOWN,
            Frame::Accepted { .. } => K_ACCEPTED,
            Frame::Busy { .. } => K_BUSY,
            Frame::Reject(_) => K_REJECT,
            Frame::Progress(_) => K_PROGRESS,
            Frame::Done { .. } => K_DONE,
            Frame::JobFailed(_) => K_JOB_FAILED,
            Frame::StatsReply(_) => K_STATS_REPLY,
            Frame::Pong => K_PONG,
            Frame::ShutdownAck => K_SHUTDOWN_ACK,
        }
    }

    /// Serializes the frame (header + payload) into wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Frame::Submit(text) | Frame::Reject(text) | Frame::JobFailed(text) => {
                e.raw(text.as_bytes());
            }
            Frame::Ping | Frame::Stats | Frame::Shutdown | Frame::Pong | Frame::ShutdownAck => {}
            Frame::Accepted {
                job_id,
                cache_key,
                disposition,
            } => {
                e.u64(*job_id);
                e.u128(*cache_key);
                e.u8(match disposition {
                    Disposition::Fresh => 0,
                    Disposition::Joined => 1,
                    Disposition::Cached => 2,
                });
            }
            Frame::Busy {
                queue_depth,
                capacity,
            } => {
                e.u64(*queue_depth);
                e.u64(*capacity);
            }
            Frame::Progress(p) => {
                e.u64(p.seq);
                e.u64(p.index);
                e.u64(p.total);
                e.f64(p.v_gate);
                e.f64(p.v_ds);
                e.f64(p.current_ua);
                e.u64(p.scf_iters);
                e.u8(u8::from(p.converged));
                e.u64(p.solved);
                e.u64(p.retried);
                e.u64(p.recovered);
                e.u64(p.failed);
            }
            Frame::Done { cache_hit, payload } => {
                e.u8(u8::from(*cache_hit));
                e.raw(payload);
            }
            Frame::StatsReply(s) => {
                e.u64(s.jobs_accepted);
                e.u64(s.busy_rejections);
                e.u64(s.solves_started);
                e.u64(s.cache_hits);
                e.u64(s.dedupe_joins);
                e.u64(s.cache_evictions);
                e.u64(s.queued);
                e.u64(s.running);
            }
        }
        let payload = e.finish();
        let mut out = Enc::new();
        out.raw(&MAGIC);
        out.u16(VERSION);
        out.u8(self.kind());
        out.u32(payload.len() as u32);
        out.raw(&payload);
        out.finish()
    }
}

// ---------------------------------------------------------------- decode

fn decode_payload(kind: u8, payload: &[u8]) -> OmenResult<Frame> {
    let mut d = Dec::protocol(payload, "frame payload");
    let frame = match kind {
        K_SUBMIT => Frame::Submit(d.rest_str()?),
        K_PING => Frame::Ping,
        K_STATS => Frame::Stats,
        K_SHUTDOWN => Frame::Shutdown,
        K_ACCEPTED => {
            let job_id = d.u64()?;
            let cache_key = d.u128()?;
            let disposition = match d.u8()? {
                0 => Disposition::Fresh,
                1 => Disposition::Joined,
                2 => Disposition::Cached,
                b => return Err(d.invalid(format_args!("unknown disposition byte {b}"))),
            };
            Frame::Accepted {
                job_id,
                cache_key,
                disposition,
            }
        }
        K_BUSY => Frame::Busy {
            queue_depth: d.u64()?,
            capacity: d.u64()?,
        },
        K_REJECT => Frame::Reject(d.rest_str()?),
        K_PROGRESS => Frame::Progress(Progress {
            seq: d.u64()?,
            index: d.u64()?,
            total: d.u64()?,
            v_gate: d.f64()?,
            v_ds: d.f64()?,
            current_ua: d.f64()?,
            scf_iters: d.u64()?,
            converged: d.u8()? != 0,
            solved: d.u64()?,
            retried: d.u64()?,
            recovered: d.u64()?,
            failed: d.u64()?,
        }),
        K_DONE => {
            let cache_hit = d.u8()? != 0;
            let payload = d.rest().to_vec();
            Frame::Done { cache_hit, payload }
        }
        K_JOB_FAILED => Frame::JobFailed(d.rest_str()?),
        K_STATS_REPLY => Frame::StatsReply(StatsSnapshot {
            jobs_accepted: d.u64()?,
            busy_rejections: d.u64()?,
            solves_started: d.u64()?,
            cache_hits: d.u64()?,
            dedupe_joins: d.u64()?,
            cache_evictions: d.u64()?,
            queued: d.u64()?,
            running: d.u64()?,
        }),
        K_PONG => Frame::Pong,
        K_SHUTDOWN_ACK => Frame::ShutdownAck,
        k => return Err(perr("frame header", format!("unknown frame kind {k}"))),
    };
    d.finish()?;
    Ok(frame)
}

/// Reads exactly `buf.len()` bytes, distinguishing "closed before any
/// byte" (`Ok(false)`) from "closed mid-read" (typed error).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8], context: &'static str) -> OmenResult<bool> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(perr(
                    context,
                    format!(
                        "connection closed mid-frame: got {got} of {} bytes",
                        buf.len()
                    ),
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(perr(context, format!("read failed: {e}"))),
        }
    }
    Ok(true)
}

/// Reads one frame from the stream.
///
/// Returns `Ok(None)` on a clean close (end-of-stream on a frame
/// boundary).
///
/// # Errors
///
/// [`OmenError::Protocol`] on bad magic, an unsupported version, an
/// unknown kind, a length prefix beyond [`MAX_FRAME`], a connection
/// closed mid-frame, an I/O failure, or a malformed payload.
pub fn read_frame(r: &mut impl Read) -> OmenResult<Option<Frame>> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header, "frame header")? {
        return Ok(None);
    }
    let mut d = Dec::protocol(&header, "frame header");
    let magic = d.take(4)?;
    if magic != MAGIC {
        return Err(d.invalid(format_args!(
            "bad magic 0x{:02x}{:02x}{:02x}{:02x} (want \"OMSV\")",
            magic[0], magic[1], magic[2], magic[3]
        )));
    }
    let version = d.u16()?;
    if version != VERSION {
        return Err(d.invalid(format_args!(
            "unsupported protocol version {version} (this build speaks {VERSION})"
        )));
    }
    let kind = d.u8()?;
    let len = d.u32()?;
    if len > MAX_FRAME {
        return Err(perr(
            "frame header",
            format!("length prefix {len} exceeds the {MAX_FRAME}-byte frame cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    if !read_exact_or_eof(r, &mut payload, "frame payload")? && len > 0 {
        return Err(perr(
            "frame payload",
            format!("connection closed before {len}-byte payload"),
        ));
    }
    decode_payload(kind, &payload).map(Some)
}

// ------------------------------------------------------------- results

/// A decoded sweep result: the I–V points plus the final fault-ledger
/// totals of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// (v_gate, v_ds, current_ua, scf_iterations, converged) per point.
    pub points: Vec<(f64, f64, f64, u64, bool)>,
    /// Total energy points solved.
    pub solved: u64,
    /// Total retries.
    pub retried: u64,
    /// Total recovered points.
    pub recovered: u64,
    /// Total failed points.
    pub failed: u64,
}

/// Serializes a solved sweep into the `Done` payload bytes. The
/// encoding is canonical (pure little-endian function of the inputs),
/// so a cache hit is bit-identical to the original solve's payload.
pub fn encode_result(points: &[omen_core::iv::IvPoint], report: &SweepReport) -> Vec<u8> {
    let mut e = Enc::new();
    e.usize(points.len());
    for p in points {
        e.f64(p.v_gate);
        e.f64(p.v_ds);
        e.f64(p.current_ua);
        e.usize(p.scf_iterations);
        e.u8(u8::from(p.converged));
    }
    e.usize(report.solved);
    e.usize(report.retried);
    e.usize(report.recovered);
    e.usize(report.failed.len());
    e.finish()
}

/// Decodes a `Done` payload.
///
/// # Errors
///
/// [`OmenError::Protocol`] on truncation or trailing bytes.
pub fn decode_result(payload: &[u8]) -> OmenResult<SweepResult> {
    let mut d = Dec::protocol(payload, "result payload");
    // Each point is four 8-byte fields and a flag byte.
    let n = d.count(33)?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let v_gate = d.f64()?;
        let v_ds = d.f64()?;
        let current_ua = d.f64()?;
        let iters = d.u64()?;
        let converged = d.u8()? != 0;
        points.push((v_gate, v_ds, current_ua, iters, converged));
    }
    let out = SweepResult {
        points,
        solved: d.u64()?,
        retried: d.u64()?,
        recovered: d.u64()?,
        failed: d.u64()?,
    };
    d.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(f: &Frame) -> Frame {
        let bytes = f.encode();
        let mut cur = Cursor::new(bytes);
        let got = read_frame(&mut cur)
            .expect("decodes")
            .expect("one frame present");
        // And the stream is exactly one frame long.
        assert!(read_frame(&mut cur).expect("clean close").is_none());
        got
    }

    fn all_frames() -> Vec<Frame> {
        vec![
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
                busy_rejections: 2,
                solves_started: 4,
                cache_hits: 3,
                dedupe_joins: 3,
                cache_evictions: 5,
                queued: 1,
                running: 2,
            }),
            Frame::Pong,
            Frame::ShutdownAck,
        ]
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// Wire bytes of `all_frames()`, pinned: result caches, committed bench
    /// records and `benchmark/` hold these bytes, so no codec change may
    /// move them.
    const FRAME_BYTES: [&str; 13] = [
        "4f4d53560200010a000000766473203d20302e320a",
        "4f4d535602000200000000",
        "4f4d535602000300000000",
        "4f4d535602000400000000",
        "4f4d5356020010190000002a00000000000000efbeaddeefbeaddeefbeaddeefbeadde01",
        "4f4d53560200111000000040000000000000004000000000000000",
        "4f4d535602001217000000756e6b6e6f776e206b657920606d6174657269616c6c60",
        "4f4d535602001359000000030000000000000003000000000000000900000000000000\
         000000000000d0bf9a9999999999c93f7b14ae47e17a543f0700000000000000017c00\
         000000000000020000000000000001000000000000000100000000000000",
        "4f4d535602001406000000010102030405",
        "4f4d53560200151800000073696e67756c617220626c6f636b20617420736c61622033",
        "4f4d5356020016400000000a0000000000000002000000000000000400000000000000\
         0300000000000000030000000000000005000000000000000100000000000000020000\
         0000000000",
        "4f4d535602001700000000",
        "4f4d535602001800000000",
    ];

    #[test]
    fn frame_bytes_are_unchanged() {
        let frames = all_frames();
        assert_eq!(frames.len(), FRAME_BYTES.len());
        for (f, want) in frames.iter().zip(FRAME_BYTES) {
            assert_eq!(hex(&f.encode()), want, "{f:?}");
        }
    }

    #[test]
    fn every_frame_round_trips() {
        for f in all_frames() {
            assert_eq!(roundtrip(&f), f);
        }
    }

    fn expect_protocol(bytes: &[u8]) -> String {
        match read_frame(&mut Cursor::new(bytes.to_vec())) {
            Err(OmenError::Protocol { context, detail }) => format!("{context}: {detail}"),
            other => panic!("wanted a Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn robustness_truncated_header() {
        // Cut the header at every interior offset: each is "closed
        // mid-frame", never a hang or panic.
        let full = Frame::Ping.encode();
        for cut in 1..HEADER_LEN {
            let msg = expect_protocol(&full[..cut]);
            assert!(msg.contains("mid-frame"), "cut {cut}: {msg}");
        }
    }

    #[test]
    fn robustness_mid_payload_disconnect() {
        let full = Frame::Submit("material = si_sp3s\n".to_string()).encode();
        for cut in HEADER_LEN + 1..full.len() {
            let msg = expect_protocol(&full[..cut]);
            assert!(msg.contains("mid-frame"), "cut {cut}: {msg}");
        }
        // Header complete but zero payload bytes delivered.
        let msg = expect_protocol(&full[..HEADER_LEN]);
        assert!(msg.contains("payload"), "{msg}");
    }

    #[test]
    fn robustness_garbage_magic_and_version() {
        let mut bad_magic = Frame::Ping.encode();
        bad_magic[0] = b'X';
        assert!(expect_protocol(&bad_magic).contains("bad magic"));

        let mut bad_version = Frame::Ping.encode();
        bad_version[4] = 0xff;
        bad_version[5] = 0xff;
        assert!(expect_protocol(&bad_version).contains("unsupported protocol version"));
    }

    #[test]
    fn robustness_oversized_length_prefix() {
        let mut huge = Frame::Ping.encode();
        huge[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        let msg = expect_protocol(&huge);
        assert!(msg.contains("frame cap"), "{msg}");
    }

    #[test]
    fn robustness_unknown_kind_and_trailing_bytes() {
        let mut unknown = Frame::Ping.encode();
        unknown[6] = 0x7f;
        assert!(expect_protocol(&unknown).contains("unknown frame kind"));

        // A Pong with a stray payload byte.
        let mut trailing = Frame::Pong.encode();
        trailing[7..11].copy_from_slice(&1u32.to_le_bytes());
        trailing.push(0);
        assert!(expect_protocol(&trailing).contains("trailing"));
    }

    #[test]
    fn robustness_truncated_typed_payload() {
        // An Accepted frame whose payload is one byte short: shrink both
        // the body and the length prefix so the *decoder* (not the frame
        // reader) must catch it.
        let ok = Frame::Accepted {
            job_id: 1,
            cache_key: 2,
            disposition: Disposition::Fresh,
        }
        .encode();
        let mut short = ok.clone();
        short.pop();
        let plen = (ok.len() - HEADER_LEN - 1) as u32;
        short[7..11].copy_from_slice(&plen.to_le_bytes());
        assert!(expect_protocol(&short).contains("truncated"));
    }

    #[test]
    fn robustness_non_utf8_submit() {
        let mut f = Frame::Submit(String::new()).encode();
        f[7..11].copy_from_slice(&2u32.to_le_bytes());
        f.extend_from_slice(&[0xff, 0xfe]);
        assert!(expect_protocol(&f).contains("UTF-8"));
    }

    #[test]
    fn empty_stream_is_a_clean_close() {
        assert!(read_frame(&mut Cursor::new(Vec::new()))
            .expect("clean")
            .is_none());
    }

    #[test]
    fn result_payload_round_trips_and_is_canonical() {
        use omen_core::iv::IvPoint;
        let pts = vec![
            IvPoint {
                v_gate: -0.1,
                v_ds: 0.2,
                current_ua: 3.5e-2,
                scf_iterations: 4,
                converged: true,
            },
            IvPoint {
                v_gate: 0.1,
                v_ds: 0.2,
                current_ua: 7.1e-1,
                scf_iterations: 6,
                converged: false,
            },
        ];
        let mut report = SweepReport::default();
        for _ in 0..13 {
            report.record_solved(0);
        }
        let a = encode_result(&pts, &report);
        let b = encode_result(&pts, &report);
        assert_eq!(a, b, "encoding is canonical");
        assert_eq!(
            hex(&a),
            "02000000000000009a9999999999b9bf9a9999999999c93fec51b81e85eba13f04000000\
             00000000019a9999999999b93f9a9999999999c93fb81e85eb51b8e63f060000000000\
             0000000d000000000000000000000000000000000000000000000000000000000000\
             00",
            "result bytes are unchanged"
        );
        let dec = decode_result(&a).expect("decodes");
        assert_eq!(dec.points.len(), 2);
        assert_eq!(dec.solved, 13);
        assert_eq!(dec.points[0].0.to_bits(), (-0.1f64).to_bits());
        // Truncated result payload is typed, not a panic.
        match decode_result(&a[..a.len() - 3]) {
            Err(OmenError::Protocol { .. }) => {}
            other => panic!("wanted Protocol, got {other:?}"),
        }
    }
}
