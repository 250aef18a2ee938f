//! SplitSolve: block cyclic reduction distributed over ranks.
//!
//! The spatial parallel level of the simulator: device slabs are owned by
//! ranks in contiguous ranges; every cyclic-reduction level eliminates the
//! odd-position blocks of the active set, which requires each surviving
//! block to receive three factored products `(D⁻¹b, D⁻¹L, D⁻¹U)` from its
//! eliminated neighbors — a nearest-neighbor exchange whose volume halves
//! every level. Back substitution replays the tree downward, sending the
//! solved even blocks to the owners of the eliminated odd blocks.
//!
//! This module is a schedule, not a solver: the block arithmetic is the
//! serial cyclic reduction's (`crate::solver`), applied by each rank to the
//! blocks it owns in the order [`bcr_solve`](crate::bcr_solve) applies it to all of them, so
//! the solution equals `bcr_solve`'s bit for bit at every rank count. What
//! lives here is ownership, message tags, the health barriers and the
//! bundle / x-block traffic, executed and counted by `omen-parsim`.
//!
//! Every rank calls with the same assembled system (SPMD; in the full
//! simulator each rank assembles its slabs deterministically) but only
//! factors and updates the blocks it owns.
//!
//! ## Failure protocol
//!
//! A singular pivot on one rank must not leave its peers blocked in `recv`.
//! Each elimination level therefore factors all owned odd blocks *before*
//! any point-to-point traffic and agrees on collective health with one
//! [`Comm::agree`] round (the lowest failing rank's typed error on every
//! member — the block the serial driver fails on). Only an all-clear level
//! exchanges bundles, so the SPMD communication schedule stays aligned and
//! every rank returns the same typed [`OmenError`].

use crate::solver::{back_substitute, Bundle, Reduction, System, Thin};
use omen_linalg::ZMat;
use omen_negf::serialize::{allgather_block_records, bytes_to_mat, mat_to_bytes};
use omen_num::wire::{Dec, Enc};
use omen_num::{OmenError, OmenResult};
use omen_parsim::Comm;
use omen_sparse::BlockTridiag;
use std::collections::HashSet;

/// Tag layout: `[level:6][block:16][kind:2]` (fits the 24-bit comm tag).
fn tag(level: usize, block: usize, kind: u64) -> u64 {
    assert!(level < 64 && block < (1 << 16));
    ((level as u64) << 18) | ((block as u64) << 2) | kind
}

const KIND_BUNDLE: u64 = 0;
const KIND_X: u64 = 1;

/// Owner of original block `g` among `r` ranks for `n` blocks: contiguous
/// ranges, monotone in `g`.
fn owner(g: usize, n: usize, r: usize) -> usize {
    ((g * r) / n).min(r - 1)
}

/// Wire form of a bundle: `D⁻¹b`, then per coupling a presence byte and,
/// when present, its column support and its `n × |C|` matrix. The supports
/// travel with the blocks, so a receiving rank applies exactly the
/// products its sender's serial twin would.
fn encode_bundle((dib, dil, diu): &Bundle) -> Vec<u8> {
    let mut e = Enc::new();
    e.bytes(&mat_to_bytes(dib));
    for side in [dil, diu] {
        match side {
            None => e.u8(0),
            Some(t) => {
                e.u8(1);
                e.usize(t.cols.len());
                for &j in &t.cols {
                    e.usize(j);
                }
                e.bytes(&mat_to_bytes(&t.m));
            }
        }
    }
    e.finish()
}

fn decode_bundle(data: &[u8]) -> OmenResult<Bundle> {
    let mut d = Dec::new(data, "elimination bundle");
    let dib = bytes_to_mat(d.bytes()?)?;
    let mut side = || -> OmenResult<Option<Thin>> {
        match d.u8()? {
            0 => Ok(None),
            1 => {
                let cols = (0..d.count(8)?)
                    .map(|_| d.usize())
                    .collect::<OmenResult<Vec<_>>>()?;
                let m = bytes_to_mat(d.bytes()?)?;
                if m.ncols() != cols.len() || m.nrows() != dib.nrows() {
                    return Err(d.invalid("coupling support disagrees with its block"));
                }
                Ok(Some(Thin { m, cols }))
            }
            _ => Err(d.invalid("coupling presence byte")),
        }
    };
    let (dil, diu) = (side()?, side()?);
    d.finish()?;
    Ok((dib, dil, diu))
}

/// The value in `slot`: this rank's own, or received from rank `from` and
/// decoded on first use.
fn fetched<'s, T>(
    comm: &Comm,
    from: usize,
    tag: u64,
    slot: &'s mut Option<T>,
    decode: impl FnOnce(&[u8]) -> OmenResult<T>,
) -> OmenResult<&'s T> {
    Ok(match slot {
        Some(value) => value,
        None => slot.insert(decode(&comm.recv(from, tag)?)?),
    })
}

/// Solves `A X = B` with rank-distributed block cyclic reduction. All
/// members of `comm` must call with identical `a` and `b`; each returns the
/// complete solution (one block per slab) or the same typed error. The
/// solution is [`bcr_solve`](crate::bcr_solve)'s to the bit, whatever the rank count; a
/// one-member communicator calls it directly.
///
/// # Errors
///
/// A singular pivot surfaces as the *same*
/// [`omen_num::OmenError::SingularBlock`] on every rank (the per-level
/// status exchange keeps the SPMD schedule aligned); communicator faults
/// surface as [`omen_num::OmenError::ScheduleDivergence`] /
/// [`omen_num::OmenError::RecvTimeout`].
pub fn splitsolve_parallel(comm: &Comm, a: &BlockTridiag, b: &[ZMat]) -> OmenResult<Vec<ZMat>> {
    System::observe(a).splitsolve(comm, b.to_vec())
}

impl System {
    /// [`splitsolve_parallel`] on a system whose couplings are already on
    /// their supports: [`System::bcr`]'s bits on every member of `comm`.
    ///
    /// # Errors
    ///
    /// [`splitsolve_parallel`]'s.
    pub fn splitsolve(self, comm: &Comm, b: Vec<ZMat>) -> OmenResult<Vec<ZMat>> {
        if comm.size() == 1 {
            return self.bcr(b);
        }
        let nb = self.diag.len();
        let nrhs = b[0].ncols();
        // Only owned blocks of the active system are kept current.
        splitsolve_reduction(comm, Reduction::new(self, b), nb, nrhs)
    }
}

/// The distributed elimination of `sys` (`nb` slabs, `nrhs` columns).
fn splitsolve_reduction(
    comm: &Comm,
    mut sys: Reduction,
    nb: usize,
    nrhs: usize,
) -> OmenResult<Vec<ZMat>> {
    let me = comm.rank();
    let own = |g: usize| owner(g, nb, comm.size());
    let mine = |g: &usize| own(*g) == me;

    // Bundles by eliminated slab: the owned ones, and those received from
    // the eliminated neighbours of owned survivors.
    let mut bundles: Vec<Option<Bundle>> = vec![None; nb];

    let (mut level, mut s) = (0, 1);
    while s < nb {
        // 1a. Factor owned odd blocks (no traffic yet; a failure here must
        // first be agreed on collectively).
        let mut local_err: Option<OmenError> = None;
        for g in (s..nb).step_by(2 * s).filter(mine) {
            match sys.eliminate(g) {
                Ok(bundle) => bundles[g] = Some(bundle),
                Err(e) => {
                    local_err = Some(e);
                    break;
                }
            }
        }

        // 1b. Health barrier: every rank learns of any singular pivot and
        // returns the same error before any bundle is sent.
        comm.agree(local_err.as_ref())?;

        // 1c. Ship bundles to the even neighbours on other ranks (ownership
        // is monotone, so the two are never the same other rank).
        for g in (s..nb).step_by(2 * s).filter(mine) {
            if let Some(bundle) = &bundles[g] {
                let payload = encode_bundle(bundle);
                for to in [g - s, g + s].into_iter().filter(|&n| n < nb).map(own) {
                    if to != me {
                        comm.send(to, tag(level, g, KIND_BUNDLE), payload.clone());
                    }
                }
            }
        }

        // 2. Update owned even blocks, right neighbour first.
        for g in (0..nb).step_by(2 * s).filter(mine) {
            if g + s < nb {
                let (o, t) = (g + s, tag(level, g + s, KIND_BUNDLE));
                sys.absorb_right(g, fetched(comm, own(o), t, &mut bundles[o], decode_bundle)?);
            }
            if g >= s {
                let (o, t) = (g - s, tag(level, g - s, KIND_BUNDLE));
                sys.absorb_left(g, fetched(comm, own(o), t, &mut bundles[o], decode_bundle)?);
            }
        }
        level += 1;
        s *= 2;
    }

    // 3. Root solve on its owner; others learn the outcome through the
    // same health barrier before back substitution starts.
    let mut x: Vec<Option<ZMat>> = vec![None; nb];
    let mut root_err: Option<OmenError> = None;
    if own(0) == me {
        match sys.solve_root() {
            Ok(x0) => x[0] = Some(x0),
            Err(e) => root_err = Some(e),
        }
    }
    comm.agree(root_err.as_ref())?;

    // 4. Back substitution down the tree, with x-block exchanges. Each
    // solved even block travels to a given rank at most once: the receiver
    // caches it across levels, so the sender dedupes on the
    // `(destination, block)` pair for the whole descent.
    let mut sent: HashSet<(usize, usize)> = HashSet::new();
    while level > 0 {
        level -= 1;
        s /= 2;
        // First: owners of needed even blocks send them to the odd owners.
        for g in (s..nb).step_by(2 * s) {
            let to = own(g);
            for dep in [g - s, g + s].into_iter().filter(|&n| n < nb) {
                if own(dep) == me && to != me && sent.insert((to, dep)) {
                    let xb = x[dep].as_ref().ok_or(OmenError::Deserialize {
                        context: "back-substitution dependency not yet solved",
                    })?;
                    comm.send(to, tag(level, dep, KIND_X), mat_to_bytes(xb));
                }
            }
        }
        // Then: owned odd blocks compute their solution from neighbours
        // that are this rank's own (solved higher up the tree) or fetched
        // once, mirroring the send side exactly so the mailbox drains.
        for g in (s..nb).step_by(2 * s).filter(mine) {
            for dep in [g - s, g + s].into_iter().filter(|&n| n < nb) {
                let t = tag(level, dep, KIND_X);
                fetched(comm, own(dep), t, &mut x[dep], bytes_to_mat)?;
            }
            if let Some(bundle) = &bundles[g] {
                let right = x.get(g + s).and_then(Option::as_ref);
                x[g] = Some(back_substitute(bundle, x[g - s].as_ref(), right));
            }
        }
    }

    // The dedup above must leave no orphan x-block in the mailbox; an
    // undrained message would mean the send and receive schedules diverged.
    assert_eq!(
        comm.pending_p2p_messages(),
        0,
        "back substitution must drain every x-block exchange"
    );

    // 5. Allgather: everyone ends up with the complete block solution.
    let solved = (0..nb)
        .filter(mine)
        .map(|g| match &x[g] {
            Some(xb) => Ok((g, mat_to_bytes(xb))),
            None => Err(OmenError::Deserialize {
                context: "owned block unsolved after back substitution",
            }),
        })
        .collect::<OmenResult<Vec<_>>>()?;
    let blocks = allgather_block_records(comm, nb, &solved, "solution allgather", bytes_to_mat)?;
    for blk in &blocks {
        if blk.ncols() != nrhs {
            return Err(OmenError::ShapeMismatch {
                context: "splitsolve solution block",
                expected: (blk.nrows(), nrhs),
                got: (blk.nrows(), blk.ncols()),
            });
        }
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::tests::{rand_blocks, rand_system};
    use crate::solver::{bcr_solve, thomas_solve};
    use omen_parsim::{run_ranks, Comm};

    #[test]
    fn owner_partition_is_contiguous_and_complete() {
        for (n, r) in [(8usize, 3usize), (13, 4), (4, 8), (1, 1), (16, 16)] {
            let mut prev = 0;
            for g in 0..n {
                let o = owner(g, n, r);
                assert!(o < r);
                assert!(o >= prev, "ownership must be monotone");
                prev = o;
            }
        }
    }

    #[test]
    fn matches_thomas_across_rank_counts() {
        for &nranks in &[1usize, 2, 3, 4] {
            for &(nb, bs, nrhs, seed) in
                &[(4usize, 2usize, 2usize, 1u64), (8, 3, 2, 2), (13, 2, 3, 3)]
            {
                let (a, b) = rand_system(nb, bs, nrhs, seed);
                let reference = thomas_solve(&a, &b).unwrap();
                let out = run_ranks(nranks, |ctx| {
                    let comm = Comm::world(ctx);
                    splitsolve_parallel(&comm, &a, &b)
                })
                .flattened();
                for (rank, sol) in out.unwrap_all().into_iter().enumerate() {
                    for (i, (x, y)) in sol.iter().zip(&reference).enumerate() {
                        let d = (x - y).max_abs();
                        assert!(
                            d < 1e-8,
                            "ranks={nranks} nb={nb} rank {rank} block {i}: deviation {d}"
                        );
                    }
                }
            }
        }
    }

    /// The module's contract: a schedule over the serial reduction returns
    /// [`bcr_solve`]'s bits on every rank, whatever the rank count, block
    /// count or block sizes — including blocks past the GEMM depth tile
    /// (n = 90 > `KC`) and more ranks than blocks.
    #[test]
    fn every_rank_count_returns_the_serial_drivers_bits() {
        let bits = |x: &[ZMat]| -> Vec<u64> {
            x.iter()
                .flat_map(|m| {
                    m.data()
                        .iter()
                        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                })
                .collect()
        };
        let ragged = [5usize, 1, 7, 3, 2, 6, 4, 1, 3, 8, 2, 5, 4];
        for nb in [1usize, 2, 8, 13] {
            let uniform = [3usize, 32, 90].map(|n| vec![n; nb]);
            for sizes in uniform.iter().chain([&ragged[..nb].to_vec()]) {
                let (a, b) = rand_blocks(sizes, 3, (nb + sizes[0]) as u64);
                let serial = bits(&bcr_solve(&a, &b).unwrap());
                for nranks in [1, 2, 3, 4, nb + 3] {
                    let out = run_ranks(nranks, |ctx| {
                        let comm = Comm::world(ctx);
                        splitsolve_parallel(&comm, &a, &b)
                    })
                    .flattened();
                    for (rank, sol) in out.unwrap_all().iter().enumerate() {
                        assert!(
                            bits(sol) == serial,
                            "blocks {sizes:?}, {nranks} ranks: rank {rank} left the serial bits"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn communication_happens_for_multirank() {
        let (a, b) = rand_system(8, 2, 1, 42);
        let out = run_ranks(4, |ctx| {
            let comm = Comm::world(ctx);
            splitsolve_parallel(&comm, &a, &b).map(|_| ())
        })
        .flattened();
        let total = out.total_stats();
        assert!(
            total.messages_sent > 8,
            "reduction tree must exchange blocks: {total:?}"
        );
        out.unwrap_all();
        // Single rank: only the trivial gather/bcast collectives.
        let out1 = run_ranks(1, |ctx| {
            let comm = Comm::world(ctx);
            splitsolve_parallel(&comm, &a, &b).map(|_| ())
        })
        .flattened();
        assert_eq!(out1.total_stats().messages_sent, 0);
        out1.unwrap_all();
    }

    #[test]
    fn more_ranks_than_blocks() {
        let (a, b) = rand_system(3, 2, 2, 7);
        let reference = thomas_solve(&a, &b).unwrap();
        let out = run_ranks(6, |ctx| {
            let comm = Comm::world(ctx);
            splitsolve_parallel(&comm, &a, &b)
        })
        .flattened();
        for sol in &out.unwrap_all() {
            for (x, y) in sol.iter().zip(&reference) {
                assert!((x - y).max_abs() < 1e-8);
            }
        }
    }

    #[test]
    fn singular_block_fails_identically_on_every_rank() {
        use omen_num::OmenError;
        // Zero couplings + a zero diagonal block: that slab's pivot is
        // provably singular, at the first level (5), a deeper one (4) or
        // the root (0). Every rank must return the serial driver's typed
        // error — no deadlock, no panic, no divergent verdicts.
        let (a0, b) = rand_system(8, 2, 2, 9);
        for singular in [5usize, 4, 0] {
            let mut diag = a0.diag.clone();
            diag[singular] = ZMat::zeros(2, 2);
            let a = BlockTridiag::new(
                diag,
                a0.lower.iter().map(|_| ZMat::zeros(2, 2)).collect(),
                a0.upper.iter().map(|_| ZMat::zeros(2, 2)).collect(),
            );
            match bcr_solve(&a, &b) {
                Err(OmenError::SingularBlock { block, .. }) => assert_eq!(block, singular),
                other => panic!("serial: expected SingularBlock {singular}, got {other:?}"),
            }
            for &nranks in &[1usize, 3, 4] {
                let out = run_ranks(nranks, |ctx| {
                    let comm = Comm::world(ctx);
                    splitsolve_parallel(&comm, &a, &b)
                });
                assert_eq!(out.results.len(), nranks);
                for r in &out.results {
                    match r {
                        Ok(Err(OmenError::SingularBlock { block, .. })) if *block == singular => {}
                        Ok(other) => {
                            panic!(
                                "ranks={nranks}: expected SingularBlock {singular}, got {other:?}"
                            )
                        }
                        Err(e) => panic!("ranks={nranks}: rank must not die: {e}"),
                    }
                }
            }
        }
    }
}
