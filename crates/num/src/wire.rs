//! The one little-endian byte cursor and the one [`OmenError`] wire format.
//!
//! Every byte-level codec in the workspace — rank messages (matrix
//! bundles, contact payloads, collective allgathers), the scheduler
//! protocol and the `omen-serve` frames — is written against [`Enc`] and
//! read through [`Dec`]. The primitive layout is declared here and nowhere
//! else: integers little-endian, `usize` as `u64`, floats as IEEE-754 bit
//! patterns, byte strings / UTF-8 strings / `f64` lists behind a `u64`
//! length or count prefix.
//!
//! [`Dec`] is total: checked offset arithmetic, short reads, trailing
//! bytes and wire-supplied counts that exceed the bytes actually present
//! all come back as a typed error — [`OmenError::Deserialize`] for rank
//! messages ([`Dec::new`]), [`OmenError::Protocol`] with a detail text for
//! service frames ([`Dec::protocol`]) — never a panic and never an
//! allocation sized by the wire.

use crate::error::{OmenError, OmenResult};
use std::fmt;

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty writer.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Enc {
        Enc {
            buf: Vec::with_capacity(n),
        }
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` carried as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Bytes with no prefix (the reader knows the length from context, or
    /// takes [`Dec::rest`]).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// `u64` length followed by the bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.raw(v);
    }

    /// `u64` length followed by the UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// `u64` count followed by the values.
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// A typed error. The per-point solver failures and the communicator
    /// faults round-trip exactly; the remaining variants (whose
    /// `&'static str` fields cannot be reconstructed) degrade to
    /// [`OmenError::RankFailed`] carrying `origin_rank` and the original
    /// error's display text.
    pub fn error(&mut self, e: &OmenError, origin_rank: usize) {
        match e {
            OmenError::SingularBlock {
                block,
                energy,
                pivot,
                magnitude,
            } => {
                self.u8(ERR_SINGULAR);
                self.usize(*block);
                self.f64(*energy);
                self.usize(*pivot);
                self.f64(*magnitude);
            }
            OmenError::LeadNotConverged { energy, iters } => {
                self.u8(ERR_LEAD);
                self.f64(*energy);
                self.usize(*iters);
            }
            OmenError::RankFailed { rank, detail } => {
                self.u8(ERR_RANK_FAILED);
                self.usize(*rank);
                self.str(detail);
            }
            OmenError::ScheduleDivergence {
                rank,
                expected,
                got,
            } => {
                self.u8(ERR_DIVERGENCE);
                self.usize(*rank);
                self.str(expected);
                self.str(got);
            }
            OmenError::RecvTimeout {
                rank,
                from,
                tag,
                waited_ms,
                pending,
            } => {
                self.u8(ERR_RECV_TIMEOUT);
                self.usize(*rank);
                self.usize(*from);
                self.u64(*tag);
                self.u64(*waited_ms);
                self.usize(*pending);
            }
            OmenError::ChannelClosed {
                rank,
                from,
                tag,
                pending,
            } => {
                self.u8(ERR_CHANNEL_CLOSED);
                self.usize(*rank);
                self.usize(*from);
                self.u64(*tag);
                self.usize(*pending);
            }
            other => {
                self.u8(ERR_OPAQUE);
                self.usize(origin_rank);
                self.str(&other.to_string());
            }
        }
    }

    /// The written bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

const ERR_SINGULAR: u8 = 1;
const ERR_LEAD: u8 = 2;
const ERR_RANK_FAILED: u8 = 3;
const ERR_DIVERGENCE: u8 = 4;
const ERR_RECV_TIMEOUT: u8 = 5;
const ERR_CHANNEL_CLOSED: u8 = 6;
const ERR_OPAQUE: u8 = 7;

/// Strict little-endian reader over one received payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
    detailed: bool,
}

impl<'a> Dec<'a> {
    /// Reader over a rank message: malformed input is
    /// [`OmenError::Deserialize`] naming `context`.
    pub fn new(buf: &'a [u8], context: &'static str) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            context,
            detailed: false,
        }
    }

    /// Reader over a service frame or payload: malformed input is
    /// [`OmenError::Protocol`] naming `context` and what was wrong.
    pub fn protocol(buf: &'a [u8], context: &'static str) -> Dec<'a> {
        Dec {
            detailed: true,
            ..Dec::new(buf, context)
        }
    }

    /// This reader's typed error for a payload that is well-framed but
    /// semantically wrong (unknown discriminant, inconsistent header);
    /// `detail` is rendered only for [`Dec::protocol`] readers.
    pub fn invalid(&self, detail: impl fmt::Display) -> OmenError {
        if self.detailed {
            OmenError::Protocol {
                context: self.context,
                detail: detail.to_string(),
            }
        } else {
            OmenError::Deserialize {
                context: self.context,
            }
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// This reader's typed error when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> OmenResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.invalid(format_args!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> OmenResult<[u8; N]> {
        let mut raw = [0u8; N];
        raw.copy_from_slice(self.take(N)?);
        Ok(raw)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// This reader's typed error on a short read.
    pub fn u8(&mut self) -> OmenResult<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Little-endian `u16`.
    ///
    /// # Errors
    ///
    /// This reader's typed error on a short read.
    pub fn u16(&mut self) -> OmenResult<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Little-endian `u32`.
    ///
    /// # Errors
    ///
    /// This reader's typed error on a short read.
    pub fn u32(&mut self) -> OmenResult<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Little-endian `u64`.
    ///
    /// # Errors
    ///
    /// This reader's typed error on a short read.
    pub fn u64(&mut self) -> OmenResult<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Little-endian `u128`.
    ///
    /// # Errors
    ///
    /// This reader's typed error on a short read.
    pub fn u128(&mut self) -> OmenResult<u128> {
        self.array().map(u128::from_le_bytes)
    }

    /// `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// This reader's typed error on a short read.
    pub fn f64(&mut self) -> OmenResult<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A `u64` that must fit this platform's `usize`.
    ///
    /// # Errors
    ///
    /// This reader's typed error on a short read or an out-of-range value.
    pub fn usize(&mut self) -> OmenResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.invalid(format_args!("value {v} exceeds usize")))
    }

    /// A wire-supplied element count, accepted only when `count` items of
    /// at least `min_item_bytes` each can still be present — so a
    /// `Vec::with_capacity(count)` is bounded by the bytes received, not
    /// by what the header claims.
    ///
    /// # Errors
    ///
    /// This reader's typed error on a short read or an impossible count.
    pub fn count(&mut self, min_item_bytes: usize) -> OmenResult<usize> {
        let n = self.usize()?;
        match n.checked_mul(min_item_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(self.invalid(format_args!(
                "payload truncated: count {n} of {min_item_bytes}-byte items at offset {}, have {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// A `u64`-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// This reader's typed error when the prefix or the bytes are short.
    pub fn bytes(&mut self) -> OmenResult<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A `u64`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// This reader's typed error on a short read or invalid UTF-8.
    pub fn str(&mut self) -> OmenResult<String> {
        let b = self.bytes()?;
        self.utf8(b)
    }

    /// A `u64`-count-prefixed `f64` list.
    ///
    /// # Errors
    ///
    /// This reader's typed error when the count exceeds the bytes present.
    pub fn f64s(&mut self) -> OmenResult<Vec<f64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Everything not yet consumed, as UTF-8.
    ///
    /// # Errors
    ///
    /// This reader's typed error on invalid UTF-8.
    pub fn rest_str(&mut self) -> OmenResult<String> {
        let b = self.rest();
        self.utf8(b)
    }

    fn utf8(&self, b: &[u8]) -> OmenResult<String> {
        String::from_utf8(b.to_vec()).map_err(|_| self.invalid("payload is not valid UTF-8"))
    }

    /// Inverse of [`Enc::error`].
    ///
    /// # Errors
    ///
    /// This reader's typed error on truncation or an unknown error kind.
    pub fn error(&mut self) -> OmenResult<OmenError> {
        Ok(match self.u8()? {
            ERR_SINGULAR => OmenError::SingularBlock {
                block: self.usize()?,
                energy: self.f64()?,
                pivot: self.usize()?,
                magnitude: self.f64()?,
            },
            ERR_LEAD => OmenError::LeadNotConverged {
                energy: self.f64()?,
                iters: self.usize()?,
            },
            ERR_RANK_FAILED | ERR_OPAQUE => OmenError::RankFailed {
                rank: self.usize()?,
                detail: self.str()?,
            },
            ERR_DIVERGENCE => OmenError::ScheduleDivergence {
                rank: self.usize()?,
                expected: self.str()?,
                got: self.str()?,
            },
            ERR_RECV_TIMEOUT => OmenError::RecvTimeout {
                rank: self.usize()?,
                from: self.usize()?,
                tag: self.u64()?,
                waited_ms: self.u64()?,
                pending: self.usize()?,
            },
            ERR_CHANNEL_CLOSED => OmenError::ChannelClosed {
                rank: self.usize()?,
                from: self.usize()?,
                tag: self.u64()?,
                pending: self.usize()?,
            },
            k => return Err(self.invalid(format_args!("unknown error kind {k}"))),
        })
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// This reader's typed error when bytes are left over.
    pub fn finish(self) -> OmenResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.invalid(format_args!("{n} trailing payload bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_and_finish_checks_the_tail() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.u128(1 << 100);
        e.usize(42);
        e.f64(-0.0);
        e.bytes(&[1, 2, 3]);
        e.bytes(&[]);
        e.str("séparateur");
        e.f64s(&[1.5, f64::MIN_POSITIVE]);
        e.raw(&[9, 9]);
        let b = e.finish();
        let mut d = Dec::new(&b, "probe");
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.u128().unwrap(), 1 << 100);
        assert_eq!(d.usize().unwrap(), 42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(d.bytes().unwrap(), &[] as &[u8]);
        assert_eq!(d.str().unwrap(), "séparateur");
        assert_eq!(d.f64s().unwrap(), vec![1.5, f64::MIN_POSITIVE]);
        assert_eq!(d.remaining(), 2);
        assert_eq!(
            Dec::new(&b, "probe").finish(),
            Err(OmenError::Deserialize { context: "probe" })
        );
        assert_eq!(d.rest(), &[9, 9]);
        d.finish().unwrap();
    }

    #[test]
    fn hostile_lengths_are_typed_and_never_allocate() {
        // Every prefixed accessor, fed a count the buffer cannot hold.
        for claim in [9u64, 1 << 60, u64::MAX] {
            let mut e = Enc::new();
            e.u64(claim);
            e.raw(&[0; 8]);
            let b = e.finish();
            let bad = Err(OmenError::Deserialize { context: "probe" });
            assert_eq!(Dec::new(&b, "probe").bytes().map(<[u8]>::to_vec), bad);
            assert_eq!(Dec::new(&b, "probe").str().map(|_| vec![]), bad);
            assert_eq!(Dec::new(&b, "probe").f64s().map(|_| vec![]), bad);
            assert_eq!(Dec::new(&b, "probe").count(16).map(|_| vec![]), bad);
        }
        let mut d = Dec::new(&[1, 2, 3], "probe");
        assert!(d.take(usize::MAX).is_err());
        assert!(d.u64().is_err());
        assert_eq!(d.remaining(), 3, "a failed read consumes nothing");
    }

    #[test]
    fn protocol_readers_say_what_was_wrong() {
        let detail = |r: OmenResult<()>| match r {
            Err(OmenError::Protocol { context, detail }) => {
                assert_eq!(context, "frame payload");
                detail
            }
            other => panic!("wanted Protocol, got {other:?}"),
        };
        let mut d = Dec::protocol(&[1, 2, 3], "frame payload");
        assert_eq!(
            detail(d.u64().map(|_| ())),
            "payload truncated: wanted 8 bytes at offset 0, have 3"
        );
        assert_eq!(detail(d.finish()), "3 trailing payload bytes");
        let mut d = Dec::protocol(&[0xff, 0xfe], "frame payload");
        assert_eq!(
            detail(d.rest_str().map(|_| ())),
            "payload is not valid UTF-8"
        );
    }

    /// Whether a variant crosses the wire unchanged. Exhaustive on
    /// purpose: a new `OmenError` variant does not compile until it says
    /// which side it is on (and gets a sample below).
    fn round_trips_exactly(e: &OmenError) -> bool {
        match e {
            OmenError::SingularBlock { .. }
            | OmenError::LeadNotConverged { .. }
            | OmenError::RankFailed { .. }
            | OmenError::ScheduleDivergence { .. }
            | OmenError::RecvTimeout { .. }
            | OmenError::ChannelClosed { .. } => true,
            OmenError::ShapeMismatch { .. }
            | OmenError::Deserialize { .. }
            | OmenError::InvalidEnv { .. }
            | OmenError::InvalidPolicy { .. }
            | OmenError::InvalidBaseline { .. }
            | OmenError::NonFiniteCost { .. }
            | OmenError::Protocol { .. }
            | OmenError::Busy { .. }
            | OmenError::InvalidPartition { .. } => false,
        }
    }

    #[test]
    fn every_error_variant_round_trips_or_degrades_to_rank_failed() {
        let samples = [
            OmenError::SingularBlock {
                block: 7,
                energy: 0.25,
                pivot: 2,
                magnitude: 1e-300,
            },
            OmenError::SingularBlock {
                block: 0,
                energy: -0.0,
                pivot: 0,
                magnitude: 0.0,
            },
            OmenError::LeadNotConverged {
                energy: -3.1,
                iters: 200,
            },
            OmenError::RankFailed {
                rank: 4,
                detail: "worker panicked".into(),
            },
            OmenError::ScheduleDivergence {
                rank: 1,
                expected: "bcast#2 comm=1 len=0".into(),
                got: "gather#2 comm=1 len=?".into(),
            },
            OmenError::RecvTimeout {
                rank: 0,
                from: 3,
                tag: 1 << 63,
                waited_ms: 100,
                pending: 2,
            },
            OmenError::ChannelClosed {
                rank: 0,
                from: 1,
                tag: 7,
                pending: 0,
            },
            OmenError::ShapeMismatch {
                context: "gemm",
                expected: (2, 2),
                got: (2, 3),
            },
            OmenError::Deserialize { context: "probe" },
            OmenError::InvalidEnv {
                var: "OMEN_SIMD",
                value: "maybe".into(),
                expected: "0, 1, or unset",
            },
            OmenError::InvalidPolicy {
                source: "TOLERANCES.toml".into(),
                line: 12,
                detail: "missing rationale".into(),
            },
            OmenError::InvalidBaseline {
                path: "BENCH_kernels.json".into(),
                detail: "bad schema".into(),
            },
            OmenError::NonFiniteCost {
                unit: 7,
                value: f64::INFINITY,
            },
            OmenError::Protocol {
                context: "frame header",
                detail: "bad magic".into(),
            },
            OmenError::Busy {
                queue_depth: 64,
                capacity: 64,
            },
            OmenError::InvalidPartition {
                row: 1,
                col: 9,
                slab_row: 0,
                slab_col: 3,
            },
        ];
        let mut kinds = std::collections::HashSet::new();
        for e in &samples {
            kinds.insert(std::mem::discriminant(e));
            let mut enc = Enc::new();
            enc.error(e, 11);
            let bytes = enc.finish();
            let mut d = Dec::new(&bytes, "error blob");
            let got = d.error().unwrap();
            d.finish().unwrap();
            if round_trips_exactly(e) {
                assert_eq!(&got, e);
            } else {
                assert_eq!(
                    got,
                    OmenError::RankFailed {
                        rank: 11,
                        detail: e.to_string()
                    }
                );
            }
            // Every strict prefix is a typed short read.
            for cut in 0..bytes.len() {
                assert_eq!(
                    Dec::new(&bytes[..cut], "error blob").error(),
                    Err(OmenError::Deserialize {
                        context: "error blob"
                    })
                );
            }
        }
        assert_eq!(kinds.len(), 15, "one sample per OmenError variant");
        assert!(Dec::new(&[0], "error blob").error().is_err(), "kind 0");
        assert!(Dec::new(&[8], "error blob").error().is_err(), "kind 8");
    }
}
