//! Byte (de)serialization of dense blocks for rank messages.
//!
//! Shared matrix wire format of the distributed solvers: the
//! wave-function SplitSolve and the rank path's contact table
//! (`omen_core::contacts`) move blocks between ranks through these
//! helpers. The primitive layout (little-endian integers, `f64` bit
//! patterns, length prefixes) and the typed-error format that travels
//! beside the blocks are declared once, in [`omen_num::wire`].
//!
//! Decoding is fallible: a malformed payload surfaces as
//! [`OmenError::Deserialize`](omen_num::OmenError) instead of a panic, so
//! a corrupted rank message poisons one energy point rather than the
//! whole run.

use omen_linalg::ZMat;
use omen_num::wire::{Dec, Enc};
use omen_num::{c64, OmenError, OmenResult};
use omen_parsim::Comm;

/// Serializes a matrix as `[nrows u64][ncols u64][re, im f64 pairs…]`.
pub fn mat_to_bytes(m: &ZMat) -> Vec<u8> {
    let mut e = Enc::with_capacity(16 + 16 * m.data().len());
    e.usize(m.nrows());
    e.usize(m.ncols());
    for z in m.data() {
        e.f64(z.re);
        e.f64(z.im);
    }
    e.finish()
}

/// Inverse of [`mat_to_bytes`].
///
/// # Errors
///
/// Returns [`OmenError::Deserialize`](omen_num::OmenError) when the buffer
/// is truncated or its header disagrees with the payload length.
pub fn bytes_to_mat(b: &[u8]) -> OmenResult<ZMat> {
    let mut d = Dec::new(b, "matrix payload");
    let (nrows, ncols) = (d.usize()?, d.usize()?);
    let n = nrows
        .checked_mul(ncols)
        .filter(|n| n.checked_mul(16) == Some(d.remaining()))
        .ok_or_else(|| d.invalid("header disagrees with payload length"))?;
    let data = (0..n)
        .map(|_| Ok(c64::new(d.f64()?, d.f64()?)))
        .collect::<OmenResult<Vec<_>>>()?;
    Ok(ZMat::from_vec(nrows, ncols, data))
}

/// Serializes several matrices back-to-back: a count, then each matrix
/// behind its byte length.
pub fn mats_to_bytes(ms: &[&ZMat]) -> Vec<u8> {
    let mut e = Enc::new();
    e.usize(ms.len());
    for m in ms {
        e.bytes(&mat_to_bytes(m));
    }
    e.finish()
}

/// Inverse of [`mats_to_bytes`].
///
/// # Errors
///
/// Returns [`OmenError::Deserialize`](omen_num::OmenError) when the bundle
/// header or any contained matrix is malformed.
pub fn bytes_to_mats(b: &[u8]) -> OmenResult<Vec<ZMat>> {
    let mut d = Dec::new(b, "matrix bundle");
    // Each entry is at least a length prefix and an empty matrix header.
    let count = d.count(8 + 16)?;
    let out = (0..count)
        .map(|_| bytes_to_mat(d.bytes()?))
        .collect::<OmenResult<Vec<_>>>()?;
    d.finish()?;
    Ok(out)
}

/// [`bytes_to_mats`] for a bundle that must hold exactly `N` matrices.
///
/// # Errors
///
/// [`OmenError::Deserialize`](omen_num::OmenError) — from the bundle
/// decoder, or naming `context` when the count is not `N`.
pub fn bytes_to_mat_array<const N: usize>(
    b: &[u8],
    context: &'static str,
) -> OmenResult<[ZMat; N]> {
    bytes_to_mats(b)?
        .try_into()
        .map_err(|_| OmenError::Deserialize { context })
}

/// Allgathers per-block records over `comm`: each rank contributes the
/// `(block index, encoded body)` pairs of the blocks it owns, and every rank
/// returns all `nb` bodies, decoded, in block order — the closing exchange
/// of SplitSolve's distributed elimination.
///
/// # Errors
///
/// The collective's communicator faults; [`OmenError::Deserialize`] naming
/// `context` when the gathered records are malformed or a block is missing,
/// duplicated or out of range; `decode`'s error for a malformed body.
pub fn allgather_block_records<T>(
    comm: &Comm<'_>,
    nb: usize,
    mine: &[(usize, Vec<u8>)],
    context: &'static str,
    decode: impl Fn(&[u8]) -> OmenResult<T>,
) -> OmenResult<Vec<T>> {
    let mut e = Enc::new();
    e.usize(mine.len());
    for (block, body) in mine {
        e.usize(*block);
        e.bytes(body);
    }
    decode_block_records(&comm.allgather(e.finish())?, nb, context, decode)
}

/// The receiving half of [`allgather_block_records`]: one payload per rank.
fn decode_block_records<T>(
    parts: &[Vec<u8>],
    nb: usize,
    context: &'static str,
    decode: impl Fn(&[u8]) -> OmenResult<T>,
) -> OmenResult<Vec<T>> {
    let mut out: Vec<Option<T>> = (0..nb).map(|_| None).collect();
    for part in parts {
        let mut d = Dec::new(part, context);
        // Each record is a block index and a length-prefixed body.
        for _ in 0..d.count(8 + 8)? {
            let block = d.usize()?;
            match out.get_mut(block) {
                Some(slot @ None) => *slot = Some(decode(d.bytes()?)?),
                _ => return Err(OmenError::Deserialize { context }),
            }
        }
        d.finish()?;
    }
    out.into_iter()
        .map(|o| o.ok_or(OmenError::Deserialize { context }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single() {
        let m = ZMat::from_fn(3, 5, |i, j| c64::new(i as f64 + 0.5, -(j as f64)));
        let b = mat_to_bytes(&m);
        let m2 = bytes_to_mat(&b).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn roundtrip_bundle() {
        let a = ZMat::eye(2);
        let b = ZMat::zeros(1, 4);
        let c = ZMat::from_fn(3, 3, |i, j| c64::new((i * j) as f64, 1.0));
        let bytes = mats_to_bytes(&[&a, &b, &c]);
        let out = bytes_to_mats(&bytes).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], a);
        assert_eq!(out[1], b);
        assert_eq!(out[2], c);
    }

    #[test]
    fn corrupt_payload_is_typed_error() {
        let m = ZMat::eye(2);
        let mut b = mat_to_bytes(&m);
        b.pop();
        match bytes_to_mat(&b) {
            Err(OmenError::Deserialize { .. }) => {}
            other => panic!("expected Deserialize error, got {other:?}"),
        }
        // Truncated header too short for the dims.
        assert!(matches!(
            bytes_to_mat(&[0u8; 7]),
            Err(OmenError::Deserialize { .. })
        ));
        // Bundle whose inner length overruns the buffer.
        let mut bundle = mats_to_bytes(&[&m]);
        bundle.truncate(bundle.len() - 4);
        assert!(matches!(
            bytes_to_mats(&bundle),
            Err(OmenError::Deserialize { .. })
        ));
    }

    fn assert_deserialize<T: std::fmt::Debug>(r: OmenResult<T>) {
        match r {
            Err(OmenError::Deserialize { .. }) => {}
            other => panic!("expected Deserialize error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_matrix_header_is_a_typed_error() {
        // 2^63 x 2 "fits" the 16-byte buffer only if the size arithmetic
        // wraps.
        let mut e = Enc::new();
        e.u64(1 << 63);
        e.u64(2);
        assert_deserialize(bytes_to_mat(&e.finish()));
    }

    #[test]
    fn hostile_bundle_count_is_a_typed_error() {
        let mut e = Enc::new();
        e.u64(1 << 60);
        assert_deserialize(bytes_to_mats(&e.finish()));
        // An inner length that wraps `offset + len`.
        let mut e = Enc::new();
        e.u64(1);
        e.u64(u64::MAX - 7);
        e.raw(&[0; 16]);
        assert_deserialize(bytes_to_mats(&e.finish()));
    }

    #[test]
    fn block_records_reject_missing_duplicate_and_out_of_range_blocks() {
        let record = |blocks: &[usize]| {
            let mut e = Enc::new();
            e.usize(blocks.len());
            for &g in blocks {
                e.usize(g);
                e.bytes(&mat_to_bytes(&ZMat::eye(g + 1)));
            }
            e.finish()
        };
        let gather = |parts: &[Vec<u8>]| decode_block_records(parts, 3, "test", bytes_to_mat);
        let sizes: Vec<usize> = gather(&[record(&[2]), record(&[]), record(&[0, 1])])
            .unwrap()
            .iter()
            .map(ZMat::nrows)
            .collect();
        assert_eq!(sizes, [1, 2, 3], "bodies come back in block order");
        assert_deserialize(gather(&[record(&[0, 1])]));
        assert_deserialize(gather(&[record(&[0, 1, 2]), record(&[1])]));
        assert_deserialize(gather(&[record(&[0, 1, 2, 3])]));
        // A count the payload cannot hold, a body overrunning it, a
        // malformed body, trailing bytes.
        let mut e = Enc::new();
        e.u64(1 << 60);
        assert_deserialize(gather(&[e.finish()]));
        let mut e = Enc::new();
        e.u64(1);
        e.u64(0);
        e.u64(u64::MAX - 7);
        assert_deserialize(gather(&[e.finish()]));
        let mut e = Enc::new();
        e.u64(1);
        e.u64(0);
        e.bytes(&[0; 15]);
        assert_deserialize(gather(&[e.finish(), record(&[1, 2])]));
        let mut trailing = record(&[0, 1, 2]);
        trailing.push(0);
        assert_deserialize(gather(&[trailing]));
    }

    #[test]
    fn exact_bundles_reject_a_wrong_count() {
        let m = ZMat::eye(2);
        let bytes = mats_to_bytes(&[&m, &m]);
        let [a, b] = bytes_to_mat_array(&bytes, "pair").unwrap();
        assert_eq!((a, b), (m.clone(), m));
        assert_eq!(
            bytes_to_mat_array::<3>(&bytes, "triple").unwrap_err(),
            OmenError::Deserialize { context: "triple" }
        );
    }
}
