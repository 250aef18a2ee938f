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
//! Every rank calls with the same assembled system (SPMD; in the full
//! simulator each rank assembles its slabs deterministically) but only
//! factors and updates the blocks it owns, so the arithmetic is genuinely
//! distributed and the traffic is executed and counted by `omen-parsim`.
//!
//! ## Failure protocol
//!
//! A singular pivot on one rank must not leave its peers blocked in `recv`.
//! Each elimination level therefore factors all owned odd blocks *before*
//! any point-to-point traffic and agrees on collective health with one
//! [`Comm::agree`] round (the lowest failing rank's typed error on every
//! member). Only an all-clear level exchanges bundles, so the SPMD
//! communication schedule stays aligned and every rank returns the same
//! typed [`OmenError`].

use omen_linalg::{gemm, lu::Lu, matmul, Op, ZMat};
use omen_negf::serialize::{bytes_to_mat, bytes_to_mat_array, mat_to_bytes, mats_to_bytes};
use omen_num::wire::{Dec, Enc};
use omen_num::{c64, OmenError, OmenResult};
use omen_parsim::Comm;
use omen_sparse::BlockTridiag;
use std::collections::HashSet;

/// Tag layout: `[level:6][position:16][kind:2]` (fits the 24-bit comm tag).
fn tag(level: usize, pos: usize, kind: u64) -> u64 {
    assert!(level < 64 && pos < (1 << 16));
    ((level as u64) << 18) | ((pos as u64) << 2) | kind
}

const KIND_BUNDLE: u64 = 0;
const KIND_X: u64 = 1;

/// Factored products of one eliminated odd block: `(D⁻¹B, D⁻¹L, D⁻¹U)`,
/// with the couplings absent at the chain ends.
type ElimBundle = (ZMat, Option<ZMat>, Option<ZMat>);
/// Back-substitution schedule entry: (odd index, left, right neighbors).
type ElimStep = (usize, Option<usize>, Option<usize>);

/// Owner of original block `g` among `r` ranks for `n` blocks: contiguous
/// ranges.
fn owner(g: usize, n: usize, r: usize) -> usize {
    ((g * r) / n).min(r - 1)
}

/// Solves `A X = B` with rank-distributed block cyclic reduction. All
/// members of `comm` must call with identical `a` and `b`; each returns the
/// complete solution (one block per slab) or the same typed error.
///
/// # Errors
///
/// A singular pivot surfaces as the *same*
/// [`omen_num::OmenError::SingularBlock`] on every rank (the per-level
/// status exchange keeps the SPMD schedule aligned); communicator faults
/// surface as [`omen_num::OmenError::ScheduleDivergence`] /
/// [`omen_num::OmenError::RecvTimeout`].
pub fn splitsolve_parallel(comm: &Comm, a: &BlockTridiag, b: &[ZMat]) -> OmenResult<Vec<ZMat>> {
    let nb = a.num_blocks();
    assert_eq!(b.len(), nb);
    let nranks = comm.size();
    let me = comm.rank();
    let nrhs = b[0].ncols();

    let own = |g: usize| owner(g, nb, nranks);

    // Working copies (only owned entries are kept current).
    let mut diag: Vec<ZMat> = a.diag.clone();
    let mut rhs: Vec<ZMat> = b.to_vec();

    // Eliminated-block records for back substitution, per level:
    // (odd original index, left/right original indices, factored products).
    struct Elim {
        index: usize,
        left: Option<usize>,
        right: Option<usize>,
        d_inv_b: ZMat,
        d_inv_l: Option<ZMat>,
        d_inv_u: Option<ZMat>,
    }
    let mut my_elims: Vec<Vec<Elim>> = Vec::new();
    // Level structure replayed identically on every rank for back-sub
    // scheduling: (odd index, left, right).
    let mut schedule: Vec<Vec<ElimStep>> = Vec::new();

    let mut active: Vec<usize> = (0..nb).collect();
    let mut cl: Vec<Option<ZMat>> = std::iter::once(None)
        .chain(a.lower.iter().cloned().map(Some))
        .collect();
    let mut cu: Vec<Option<ZMat>> = a
        .upper
        .iter()
        .cloned()
        .map(Some)
        .chain(std::iter::once(None))
        .collect();

    let mut level = 0usize;
    while active.len() > 1 {
        let m = active.len();
        let empty = ZMat::zeros(0, 0);

        // 1a. Factor owned odd blocks (no traffic yet; a failure here must
        // first be agreed on collectively).
        let mut local_fact: Vec<Option<ElimBundle>> = vec![None; m];
        let mut local_err: Option<OmenError> = None;
        for k in (1..m).step_by(2) {
            let g = active[k];
            if own(g) != me {
                continue;
            }
            match Lu::factor(&diag[g]) {
                Ok(f) => {
                    let dib = f.solve_mat(&rhs[g]);
                    let dil = cl[k].as_ref().map(|l| f.solve_mat(l));
                    let diu = cu[k].as_ref().map(|u| f.solve_mat(u));
                    local_fact[k] = Some((dib, dil, diu));
                }
                Err(s) => {
                    local_err = Some(s.at_block(g));
                    break;
                }
            }
        }

        // 1b. Health barrier: every rank learns of any singular pivot and
        // returns the same error before any bundle is sent.
        comm.agree(local_err.as_ref())?;

        // 1c. Ship bundles to even neighbors on other ranks; when one rank
        // owns both neighbors it receives (and caches) the bundle once.
        for k in (1..m).step_by(2) {
            if let Some((dib, dil, diu)) = &local_fact[k] {
                let payload = mats_to_bytes(&[
                    dib,
                    dil.as_ref().unwrap_or(&empty),
                    diu.as_ref().unwrap_or(&empty),
                ]);
                let mut shipped: Option<usize> = None;
                for nk in [k.wrapping_sub(1), k + 1] {
                    if nk < m {
                        let no = own(active[nk]);
                        if no != me && shipped != Some(no) {
                            comm.send(no, tag(level, k, KIND_BUNDLE), payload.clone());
                            shipped = Some(no);
                        }
                    }
                }
            }
        }

        // 2. Update owned even blocks, building the next level's couplings.
        let mut new_active = Vec::with_capacity(m / 2 + 1);
        let mut new_cl: Vec<Option<ZMat>> = Vec::with_capacity(m / 2 + 1);
        let mut new_cu: Vec<Option<ZMat>> = Vec::with_capacity(m / 2 + 1);
        // Cache of received bundles keyed by odd position.
        let mut received: Vec<Option<ElimBundle>> = vec![None; m];
        let get_bundle = |k: usize,
                          local_fact: &[Option<ElimBundle>],
                          received: &mut [Option<ElimBundle>]|
         -> OmenResult<ElimBundle> {
            if let Some(f) = &local_fact[k] {
                return Ok(f.clone());
            }
            if let Some(f) = &received[k] {
                return Ok(f.clone());
            }
            let o = own(active[k]);
            let data = comm.recv(o, tag(level, k, KIND_BUNDLE))?;
            let [dib, dil, diu] = bytes_to_mat_array(&data, "elimination bundle")?;
            let opt = |m_: ZMat| (m_.nrows() != 0).then_some(m_);
            let f = (dib, opt(dil), opt(diu));
            received[k] = Some(f.clone());
            Ok(f)
        };

        for k in (0..m).step_by(2) {
            let g = active[k];
            let mine = own(g) == me;
            let mut ncl = None;
            let mut ncu = None;
            if mine {
                // Schur-complement updates fused into the accumulation
                // (`gemm` with α=−1, β=1): no temporaries, and the dense
                // work runs on the tiled multi-threaded kernel.
                if k + 1 < m {
                    if let Some(u) = cu[k].clone() {
                        let (dib, dil, diu) = get_bundle(k + 1, &local_fact, &mut received)?;
                        if let Some(dil) = &dil {
                            gemm(-c64::ONE, &u, Op::N, dil, Op::N, c64::ONE, &mut diag[g]);
                        }
                        gemm(-c64::ONE, &u, Op::N, &dib, Op::N, c64::ONE, &mut rhs[g]);
                        if k + 2 < m {
                            if let Some(diu) = &diu {
                                ncu = Some(-&matmul(&u, diu));
                            }
                        }
                    }
                }
                if k >= 1 {
                    if let Some(l) = cl[k].clone() {
                        let (dib, dil, diu) = get_bundle(k - 1, &local_fact, &mut received)?;
                        if let Some(diu) = &diu {
                            gemm(-c64::ONE, &l, Op::N, diu, Op::N, c64::ONE, &mut diag[g]);
                        }
                        gemm(-c64::ONE, &l, Op::N, &dib, Op::N, c64::ONE, &mut rhs[g]);
                        if k >= 2 {
                            if let Some(dil) = &dil {
                                ncl = Some(-&matmul(&l, dil));
                            }
                        }
                    }
                }
            }
            new_active.push(g);
            new_cl.push(ncl);
            new_cu.push(ncu);
        }

        // 3. Record eliminations and the global schedule.
        let mut sched_level = Vec::new();
        let mut elim_level = Vec::new();
        for k in (1..m).step_by(2) {
            let left = if k >= 1 { Some(active[k - 1]) } else { None };
            let right = if k + 1 < m { Some(active[k + 1]) } else { None };
            sched_level.push((active[k], left, right));
            if let Some((dib, dil, diu)) = local_fact[k].take() {
                elim_level.push(Elim {
                    index: active[k],
                    left,
                    right,
                    d_inv_b: dib,
                    d_inv_l: dil,
                    d_inv_u: diu,
                });
            }
        }
        schedule.push(sched_level);
        my_elims.push(elim_level);

        active = new_active;
        cl = new_cl;
        cu = new_cu;
        level += 1;
    }

    // 4. Root solve on its owner; others learn the outcome through the
    // same health barrier before back substitution starts.
    let root = active[0];
    let mut x: Vec<Option<ZMat>> = vec![None; nb];
    let mut root_err: Option<OmenError> = None;
    if own(root) == me {
        match Lu::factor(&diag[root]) {
            Ok(f) => x[root] = Some(f.solve_mat(&rhs[root])),
            Err(s) => root_err = Some(s.at_block(root)),
        }
    }
    comm.agree(root_err.as_ref())?;

    // 5. Back substitution down the tree, with x-block exchanges. Each
    // solved even block travels to a given rank at most once: the receiver
    // caches it across levels, so the sender dedupes on the
    // `(destination, block)` pair for the whole descent.
    let mut sent: HashSet<(usize, usize)> = HashSet::new();
    for (lvl, sched_level) in schedule.iter().enumerate().rev() {
        let my_level: &Vec<Elim> = &my_elims[lvl];
        // First: owners of needed even blocks send them to the odd owners.
        for &(odd, left, right) in sched_level {
            let odd_owner = own(odd);
            for dep in [left, right].into_iter().flatten() {
                let dep_owner = own(dep);
                if dep_owner == me && odd_owner != me && sent.insert((odd_owner, dep)) {
                    let xb = x[dep].as_ref().ok_or(OmenError::Deserialize {
                        context: "back-substitution dependency not yet solved",
                    })?;
                    comm.send(odd_owner, tag(lvl, dep, KIND_X), mat_to_bytes(xb));
                }
            }
        }
        // Then: owned odd blocks compute their solution. Dependencies are
        // fetched by schedule position (mirroring the send side exactly,
        // so the mailbox drains even for decoupled neighbors) and cached.
        for e in my_level.iter() {
            for dep in [e.left, e.right].into_iter().flatten() {
                if x[dep].is_none() {
                    let o = own(dep);
                    if o == me {
                        // analyze: allow(protocol-early-exit, internal-invariant breach: peers waiting on this rank's x-block hit their recv timeout and fail typed; the per-level health barrier then propagates one verdict to all ranks)
                        return Err(OmenError::Deserialize {
                            context: "back-substitution dependency not yet solved",
                        });
                    }
                    x[dep] = Some(bytes_to_mat(&comm.recv(o, tag(lvl, dep, KIND_X))?)?);
                }
            }
            let mut xi = e.d_inv_b.clone();
            if let (Some(left), Some(dil)) = (e.left, e.d_inv_l.as_ref()) {
                if let Some(xl) = &x[left] {
                    gemm(-c64::ONE, dil, Op::N, xl, Op::N, c64::ONE, &mut xi);
                }
            }
            if let (Some(right), Some(diu)) = (e.right, e.d_inv_u.as_ref()) {
                if let Some(xr) = &x[right] {
                    gemm(-c64::ONE, diu, Op::N, xr, Op::N, c64::ONE, &mut xi);
                }
            }
            x[e.index] = Some(xi);
        }
    }

    // The dedup above must leave no orphan x-block in the mailbox; an
    // undrained message would mean the send and receive schedules diverged.
    assert_eq!(
        comm.pending_p2p_messages(),
        0,
        "back substitution must drain every x-block exchange"
    );

    // 6. Allgather: everyone ends up with the complete block solution.
    const CTX: &str = "solution allgather";
    let mut mine = Enc::new();
    let my_blocks: Vec<usize> = (0..nb).filter(|&g| own(g) == me).collect();
    mine.usize(my_blocks.len());
    for &g in &my_blocks {
        let xb = x[g].as_ref().ok_or(OmenError::Deserialize {
            context: "owned block unsolved after back substitution",
        })?;
        mine.usize(g);
        mine.bytes(&mat_to_bytes(xb));
    }
    let mut out: Vec<Option<ZMat>> = vec![None; nb];
    for part in comm.allgather(mine.finish())? {
        let mut d = Dec::new(&part, CTX);
        // Each record is a block index and a length-prefixed matrix.
        for _ in 0..d.count(8 + 8 + 16)? {
            let g = d.usize()?;
            let slot = out
                .get_mut(g)
                .ok_or(OmenError::Deserialize { context: CTX })?;
            *slot = Some(bytes_to_mat(d.bytes()?)?);
        }
        d.finish()?;
    }
    let blocks = out
        .into_iter()
        .map(|o| o.ok_or(OmenError::Deserialize { context: CTX }))
        .collect::<OmenResult<Vec<_>>>()?;
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
    use crate::solver::thomas_solve;
    use omen_num::c64;
    use omen_parsim::{run_ranks, Comm};

    fn rand_system(nb: usize, bs: usize, nrhs: usize, seed: u64) -> (BlockTridiag, Vec<ZMat>) {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
        let mut next = move || {
            s = s.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut rnd = |r: usize, c: usize| ZMat::from_fn(r, c, |_, _| c64::new(next(), next()));
        let diag: Vec<ZMat> = (0..nb)
            .map(|_| {
                let mut d = rnd(bs, bs);
                for i in 0..bs {
                    d[(i, i)] += c64::real(6.0);
                }
                d
            })
            .collect();
        let lower = (0..nb - 1).map(|_| rnd(bs, bs)).collect();
        let upper = (0..nb - 1).map(|_| rnd(bs, bs)).collect();
        let b = (0..nb).map(|_| rnd(bs, nrhs)).collect();
        (BlockTridiag::new(diag, lower, upper), b)
    }

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
        // Zero couplings + a zero diagonal block: slab 5's pivot is
        // provably singular. Every rank must return the same typed error —
        // no deadlock, no panic, no divergent verdicts.
        let (a0, b) = rand_system(8, 2, 2, 9);
        let mut diag = a0.diag.clone();
        diag[5] = ZMat::zeros(2, 2);
        let a = BlockTridiag::new(
            diag,
            a0.lower.iter().map(|_| ZMat::zeros(2, 2)).collect(),
            a0.upper.iter().map(|_| ZMat::zeros(2, 2)).collect(),
        );
        for &nranks in &[1usize, 3, 4] {
            let out = run_ranks(nranks, |ctx| {
                let comm = Comm::world(ctx);
                splitsolve_parallel(&comm, &a, &b)
            });
            assert_eq!(out.results.len(), nranks);
            for r in &out.results {
                match r {
                    Ok(inner) => match inner {
                        Err(OmenError::SingularBlock { block: 5, .. }) => {}
                        other => panic!("ranks={nranks}: expected SingularBlock 5, got {other:?}"),
                    },
                    Err(e) => panic!("ranks={nranks}: rank must not die: {e}"),
                }
            }
        }
    }
}
