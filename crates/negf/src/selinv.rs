//! Selected inversion of the block-tridiagonal `A` on a binary
//! elimination tree.
//!
//! The third transport engine, serial like the other two. RGF walks the
//! chain slab by slab; selected inversion builds a binary **elimination
//! tree** over the block indices instead: every node owns one separator
//! block and a contiguous interval of the chain, the upward pass
//! Schur-eliminates separators bottom-up, and the downward pass propagates
//! exact boundary Green's blocks top-down. It shares no recursion with
//! RGF or the wave-function solvers, which is why it is kept: it is the
//! independently derived third engine of the oracle and three-engine
//! batteries (`engine.selinv_*`, `physics.selinv_*`, `selinv.vs_dense` in
//! TOLERANCES.toml), not a fast path (`tab3_timetosol`). DESIGN.md §13
//! records why the tree has no rank-parallel driver.
//!
//! **Upward pass.** For an interval `I = L ∪ {m} ∪ R` (children `L`, `R`,
//! separator `m`) each node stores the four corner blocks of the
//! *interval-local* inverse `Ĝ = (A_II)⁻¹` plus its separator cross terms.
//! The separator pivot is the Schur complement
//! `S_m = A_mm − A_{m,m−1}·Ĝ^L_{hh}·A_{m−1,m} − A_{m,m+1}·Ĝ^R_{ll}·A_{m+1,m}`,
//! factored with the same `i·η` pivot-regularization policy as RGF
//! ([`REGULARIZATION_ETA`]), so a provably singular point recovers (and is
//! accounted) identically to the RGF path.
//!
//! **Downward pass.** The exterior of an interval couples to it only
//! through its two boundary blocks, so the exact correction is
//! `G_II = Ĝ + Ĝ·C·G_EE·Cᵀ·Ĝ` with `G_EE` the exact Green's blocks over
//! the two exterior neighbor points — a 2×2 block payload handed from
//! parent to child. The same identity restricted to global columns `0`
//! and `N−1` propagates the first/last block columns — on the orbitals
//! `Γ_L` / `Γ_R` touch only, as [`crate::rgf`] keeps them — so one tree
//! traversal recovers exactly the [`RgfResult`] surface: every diagonal
//! block, both contact columns on their supports, and the Caroli
//! transmission.
//!
//! The elimination tree is balanced bisection over the block range, a
//! pure function of the block count; agreement with RGF/WF is a
//! cross-engine tolerance statement.

use crate::rgf::{build_a_matrix, caroli, RgfResult, REGULARIZATION_ETA};
use crate::sancho::ContactSelfEnergy;
use crate::transport::{package, EnergyPointData};
use omen_linalg::{gemm, lu, matmul, Op, ZMat};
use omen_num::{c64, OmenResult};
use omen_sparse::BlockTridiag;

/// `A` with its couplings scattered dense: the tree's products take the
/// `n × n` off-diagonal blocks as operands.
struct Blocks<'a> {
    diag: &'a [ZMat],
    /// `A_{i+1,i}`.
    lower: Vec<ZMat>,
    /// `A_{i,i+1}`.
    upper: Vec<ZMat>,
}

impl<'a> Blocks<'a> {
    fn of(a: &'a BlockTridiag<ZMat>) -> Self {
        let links = 0..a.num_blocks() - 1;
        Blocks {
            diag: &a.diag,
            lower: links.clone().map(|i| a.lower_dense(i)).collect(),
            upper: links.map(|i| a.upper_dense(i)).collect(),
        }
    }
}

/// One elimination-tree node: separator `sep` eliminating interval
/// `[lo, hi]`. Nodes are stored indexed by separator (each block is the
/// separator of exactly one node).
#[derive(Debug, Clone)]
struct Node {
    lo: usize,
    hi: usize,
    sep: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// Balanced-bisection elimination tree over `nb` blocks, a pure function
/// of `nb`: the nodes, and their separators in children-before-parent
/// order (left subtree, right subtree, separator).
fn build_tree(nb: usize) -> (Vec<Node>, Vec<usize>) {
    fn split(nodes: &mut [Node], order: &mut Vec<usize>, lo: usize, hi: usize) -> Option<usize> {
        if lo > hi {
            return None;
        }
        let sep = lo + (hi - lo) / 2;
        let left = if sep > lo {
            split(nodes, order, lo, sep - 1)
        } else {
            None
        };
        let right = split(nodes, order, sep + 1, hi);
        nodes[sep] = Node {
            lo,
            hi,
            sep,
            left,
            right,
        };
        order.push(sep);
        Some(sep)
    }
    let unset = Node {
        lo: 0,
        hi: 0,
        sep: 0,
        left: None,
        right: None,
    };
    let mut nodes = vec![unset; nb];
    let mut order = Vec::with_capacity(nb);
    split(&mut nodes, &mut order, 0, nb - 1);
    (nodes, order)
}

/// Corner blocks of an interval-local inverse `Ĝ = (A_II)⁻¹`:
/// `gll = Ĝ_{lo,lo}`, `glh = Ĝ_{lo,hi}`, `ghl = Ĝ_{hi,lo}`,
/// `ghh = Ĝ_{hi,hi}`. This is all a parent needs from a child.
#[derive(Debug, Clone)]
struct Corners {
    gll: ZMat,
    glh: ZMat,
    ghl: ZMat,
    ghh: ZMat,
}

/// Everything the upward pass stores per node, consumed by the downward
/// pass: the inverted Schur pivot, the interval corners, and the
/// separator↔boundary cross terms of the interval-local inverse.
struct UpNode {
    /// `S_m⁻¹` (interval-local separator diagonal).
    gmm: ZMat,
    /// Pivot-regularization retries spent factoring `S_m`.
    retries: usize,
    corners: Corners,
    /// `Ĝ_{m,lo}`.
    ms_lo: ZMat,
    /// `Ĝ_{m,hi}`.
    ms_hi: ZMat,
    /// `Ĝ_{lo,m}`.
    lo_ms: ZMat,
    /// `Ĝ_{hi,m}`.
    hi_ms: ZMat,
}

/// Schur-eliminates one separator given its children's corners.
fn eliminate(
    a: &Blocks,
    node: &Node,
    left: Option<&Corners>,
    right: Option<&Corners>,
) -> OmenResult<UpNode> {
    let m = node.sep;
    let mut s = a.diag[m].clone();
    // X/Y wings: X couples a child boundary into the separator row space,
    // Y the separator column space into the child boundary.
    let lw = left.map(|l| {
        let x = matmul(&l.glh, &a.upper[m - 1]); // Ĝ^L_{lo,h}·A_{m−1,m}
        let y = matmul(&a.lower[m - 1], &l.ghl); // A_{m,m−1}·Ĝ^L_{h,lo}
        let t = matmul(&a.lower[m - 1], &l.ghh); // A_{m,m−1}·Ĝ^L_{hh}
        (x, y, t)
    });
    if let Some((_, _, t)) = &lw {
        gemm(
            -c64::ONE,
            t,
            Op::N,
            &a.upper[m - 1],
            Op::N,
            c64::ONE,
            &mut s,
        );
    }
    let rw = right.map(|r| {
        let x = matmul(&r.ghl, &a.lower[m]); // Ĝ^R_{hi,l}·A_{m+1,m}
        let y = matmul(&a.upper[m], &r.glh); // A_{m,m+1}·Ĝ^R_{l,hi}
        let t = matmul(&a.upper[m], &r.gll); // A_{m,m+1}·Ĝ^R_{ll}
        (x, y, t)
    });
    if let Some((_, _, t)) = &rw {
        gemm(-c64::ONE, t, Op::N, &a.lower[m], Op::N, c64::ONE, &mut s);
    }
    let (f, retries) = lu::factor_regularized(&s, REGULARIZATION_ETA).map_err(|e| e.at_block(m))?;
    let gmm = f.inverse();

    // Separator ↔ interval-boundary cross terms of Ĝ.
    let neg = -c64::ONE;
    let cross = |flip: bool, w: &ZMat| {
        // flip=false: −gmm·w ; flip=true: −w·gmm
        let (p, q) = if flip { (w, &gmm) } else { (&gmm, w) };
        let mut out = ZMat::zeros(p.nrows(), q.ncols());
        gemm(neg, p, Op::N, q, Op::N, c64::ZERO, &mut out);
        out
    };
    let ms_lo = match &lw {
        Some((_, y, _)) => cross(false, y),
        None => gmm.clone(),
    };
    let ms_hi = match &rw {
        Some((_, y, _)) => cross(false, y),
        None => gmm.clone(),
    };
    let lo_ms = match &lw {
        Some((x, _, _)) => cross(true, x),
        None => gmm.clone(),
    };
    let hi_ms = match &rw {
        Some((x, _, _)) => cross(true, x),
        None => gmm.clone(),
    };

    // Merged-interval corners. With both children:
    //   gll = Ĝ^L_{ll} − X_l·ms_lo,  ghh = Ĝ^R_{hh} − X_r·ms_hi,
    //   glh = −X_l·ms_hi,            ghl = −X_r·ms_lo,
    // degenerating to the separator cross terms when a side is empty.
    let corners = match (&lw, &rw, left, right) {
        (Some((xl, _, _)), Some((xr, _, _)), Some(l), Some(r)) => {
            let mut gll = l.gll.clone();
            gemm(neg, xl, Op::N, &ms_lo, Op::N, c64::ONE, &mut gll);
            let mut ghh = r.ghh.clone();
            gemm(neg, xr, Op::N, &ms_hi, Op::N, c64::ONE, &mut ghh);
            let mut glh = ZMat::zeros(gll.nrows(), ghh.ncols());
            gemm(neg, xl, Op::N, &ms_hi, Op::N, c64::ZERO, &mut glh);
            let mut ghl = ZMat::zeros(ghh.nrows(), gll.ncols());
            gemm(neg, xr, Op::N, &ms_lo, Op::N, c64::ZERO, &mut ghl);
            Corners { gll, glh, ghl, ghh }
        }
        (Some((xl, _, _)), None, Some(l), None) => {
            let mut gll = l.gll.clone();
            gemm(neg, xl, Op::N, &ms_lo, Op::N, c64::ONE, &mut gll);
            Corners {
                gll,
                glh: lo_ms.clone(),
                ghl: ms_lo.clone(),
                ghh: gmm.clone(),
            }
        }
        (None, Some((xr, _, _)), None, Some(r)) => {
            let mut ghh = r.ghh.clone();
            gemm(neg, xr, Op::N, &ms_hi, Op::N, c64::ONE, &mut ghh);
            Corners {
                gll: gmm.clone(),
                glh: ms_hi.clone(),
                ghl: hi_ms.clone(),
                ghh,
            }
        }
        _ => Corners {
            gll: gmm.clone(),
            glh: gmm.clone(),
            ghl: gmm.clone(),
            ghh: gmm.clone(),
        },
    };

    Ok(UpNode {
        gmm,
        retries,
        corners,
        ms_lo,
        ms_hi,
        lo_ms,
        hi_ms,
    })
}

/// Exact Green's blocks of one exterior neighbor point `p` of an
/// interval: `G_{p,p}` plus the global contact columns `G_{p,0}` and
/// `G_{p,N−1}`, each carried on its contact's [`Supports`] columns only.
#[derive(Debug, Clone)]
struct ExtPoint {
    diag: ZMat,
    col0: ZMat,
    coln: ZMat,
}

/// Downward payload a parent hands a child: the child's exterior boundary
/// pair `{lo−1, hi+1}` (whichever exist) with exact diagonal/column
/// blocks and the exact cross blocks between the two points.
#[derive(Debug, Clone, Default)]
struct DownPayload {
    /// Exterior point `lo−1` (absent at the global left edge).
    lo: Option<ExtPoint>,
    /// Exterior point `hi+1` (absent at the global right edge).
    hi: Option<ExtPoint>,
    /// Exact `G_{lo−1, hi+1}` (present iff both points exist).
    lo_hi: Option<ZMat>,
    /// Exact `G_{hi+1, lo−1}`.
    hi_lo: Option<ZMat>,
}

/// Exact per-separator output of the downward pass: `G_{m,m}`,
/// `G_{m,0}[:, S_L]`, `G_{m,N−1}[:, S_R]`.
struct NodeResult {
    diag: ZMat,
    col0: ZMat,
    coln: ZMat,
}

/// The orbitals `Γ_L` touches in slab 0 and `Γ_R` in slab `N−1`: the only
/// columns of `G_{·,0}` / `G_{·,N−1}` the observables read, so the only
/// ones the downward pass carries (as in [`crate::rgf`]).
struct Supports {
    left: Vec<usize>,
    right: Vec<usize>,
}

impl Supports {
    fn of(gamma_l: &ZMat, gamma_r: &ZMat) -> Self {
        Supports {
            left: gamma_l.support(),
            right: gamma_r.support(),
        }
    }
}

/// Applies the exterior correction `G_II = Ĝ + Ĝ·C·G_EE·Cᵀ·Ĝ` at one
/// node and assembles the payloads for its children.
fn descend(
    a: &Blocks,
    sup: &Supports,
    node: &Node,
    u: &UpNode,
    p: &DownPayload,
) -> (NodeResult, Option<DownPayload>, Option<DownPayload>) {
    let nb = a.diag.len();
    let (lo, hi) = (node.lo, node.hi);
    let neg = -c64::ONE;
    // Row wings W = Ĝ_{m,∂p}·A_{∂p,p} and column wings V = A_{p,∂p}·Ĝ_{∂p,m}
    // for each exterior point p (∂p is the adjacent interval boundary).
    let wm_l = p.lo.as_ref().map(|_| matmul(&u.ms_lo, &a.lower[lo - 1]));
    let wm_h = p.hi.as_ref().map(|_| matmul(&u.ms_hi, &a.upper[hi]));
    let vm_l = p.lo.as_ref().map(|_| matmul(&a.upper[lo - 1], &u.lo_ms));
    let vm_h = p.hi.as_ref().map(|_| matmul(&a.lower[hi], &u.hi_ms));

    // Exact separator diagonal: Ĝ_mm + Σ_{p,q} W_p·G_{p,q}·V_q.
    let mut diag = u.gmm.clone();
    if let (Some(w), Some(v), Some(ext)) = (&wm_l, &vm_l, &p.lo) {
        let t = matmul(w, &ext.diag);
        gemm(c64::ONE, &t, Op::N, v, Op::N, c64::ONE, &mut diag);
    }
    if let (Some(w), Some(v), Some(ext)) = (&wm_h, &vm_h, &p.hi) {
        let t = matmul(w, &ext.diag);
        gemm(c64::ONE, &t, Op::N, v, Op::N, c64::ONE, &mut diag);
    }
    if let (Some(w), Some(v), Some(x)) = (&wm_l, &vm_h, &p.lo_hi) {
        let t = matmul(w, x);
        gemm(c64::ONE, &t, Op::N, v, Op::N, c64::ONE, &mut diag);
    }
    if let (Some(w), Some(v), Some(x)) = (&wm_h, &vm_l, &p.hi_lo) {
        let t = matmul(w, x);
        gemm(c64::ONE, &t, Op::N, v, Op::N, c64::ONE, &mut diag);
    }

    // Exact G_{m,0}: when the interval contains block 0 it is the exact
    // lo-corner (corrected through hi+1 only); otherwise the exterior
    // column relation −Σ_p W_p·G_{p,0}.
    let col0 = if lo == 0 {
        let mut g = u.ms_lo.select_cols(&sup.left);
        if let (Some(w), Some(ext)) = (&wm_h, &p.hi) {
            let t = matmul(w, &ext.diag);
            let t2 = matmul(&t, &a.lower[hi]);
            gemm(
                c64::ONE,
                &t2,
                Op::N,
                &u.corners.ghl.select_cols(&sup.left),
                Op::N,
                c64::ONE,
                &mut g,
            );
        }
        g
    } else {
        let mut g = ZMat::zeros(u.gmm.nrows(), sup.left.len());
        if let (Some(w), Some(ext)) = (&wm_l, &p.lo) {
            gemm(neg, w, Op::N, &ext.col0, Op::N, c64::ONE, &mut g);
        }
        if let (Some(w), Some(ext)) = (&wm_h, &p.hi) {
            gemm(neg, w, Op::N, &ext.col0, Op::N, c64::ONE, &mut g);
        }
        g
    };

    // Exact G_{m,N−1}, mirrored.
    let coln = if hi == nb - 1 {
        let mut g = u.ms_hi.select_cols(&sup.right);
        if let (Some(w), Some(ext)) = (&wm_l, &p.lo) {
            let t = matmul(w, &ext.diag);
            let t2 = matmul(&t, &a.upper[lo - 1]);
            gemm(
                c64::ONE,
                &t2,
                Op::N,
                &u.corners.glh.select_cols(&sup.right),
                Op::N,
                c64::ONE,
                &mut g,
            );
        }
        g
    } else {
        let mut g = ZMat::zeros(u.gmm.nrows(), sup.right.len());
        if let (Some(w), Some(ext)) = (&wm_l, &p.lo) {
            gemm(neg, w, Op::N, &ext.coln, Op::N, c64::ONE, &mut g);
        }
        if let (Some(w), Some(ext)) = (&wm_h, &p.hi) {
            gemm(neg, w, Op::N, &ext.coln, Op::N, c64::ONE, &mut g);
        }
        g
    };

    let sep_point = ExtPoint {
        diag: diag.clone(),
        col0: col0.clone(),
        coln: coln.clone(),
    };

    // Left child payload: exterior pair {lo−1, m}.
    let left_pay = node.left.map(|_| {
        let (lo_hi, hi_lo) = match &p.lo {
            Some(ext) => {
                // G_{lo−1,m} = −(G_{lo−1,lo−1}·V_l + G_{lo−1,hi+1}·V_h)
                let mut glm = ZMat::zeros(ext.diag.nrows(), u.gmm.ncols());
                if let Some(v) = &vm_l {
                    gemm(neg, &ext.diag, Op::N, v, Op::N, c64::ONE, &mut glm);
                }
                if let (Some(v), Some(x)) = (&vm_h, &p.lo_hi) {
                    gemm(neg, x, Op::N, v, Op::N, c64::ONE, &mut glm);
                }
                // G_{m,lo−1} = −(W_l·G_{lo−1,lo−1} + W_h·G_{hi+1,lo−1})
                let mut gml = ZMat::zeros(u.gmm.nrows(), ext.diag.ncols());
                if let Some(w) = &wm_l {
                    gemm(neg, w, Op::N, &ext.diag, Op::N, c64::ONE, &mut gml);
                }
                if let (Some(w), Some(x)) = (&wm_h, &p.hi_lo) {
                    gemm(neg, w, Op::N, x, Op::N, c64::ONE, &mut gml);
                }
                (Some(glm), Some(gml))
            }
            None => (None, None),
        };
        DownPayload {
            lo: p.lo.clone(),
            hi: Some(sep_point.clone()),
            lo_hi,
            hi_lo,
        }
    });

    // Right child payload: exterior pair {m, hi+1}.
    let right_pay = node.right.map(|_| {
        let (lo_hi, hi_lo) = match &p.hi {
            Some(ext) => {
                // G_{m,hi+1} = −(W_l·G_{lo−1,hi+1} + W_h·G_{hi+1,hi+1})
                let mut gmh = ZMat::zeros(u.gmm.nrows(), ext.diag.ncols());
                if let (Some(w), Some(x)) = (&wm_l, &p.lo_hi) {
                    gemm(neg, w, Op::N, x, Op::N, c64::ONE, &mut gmh);
                }
                if let Some(w) = &wm_h {
                    gemm(neg, w, Op::N, &ext.diag, Op::N, c64::ONE, &mut gmh);
                }
                // G_{hi+1,m} = −(G_{hi+1,lo−1}·V_l + G_{hi+1,hi+1}·V_h)
                let mut ghm = ZMat::zeros(ext.diag.nrows(), u.gmm.ncols());
                if let (Some(v), Some(x)) = (&vm_l, &p.hi_lo) {
                    gemm(neg, x, Op::N, v, Op::N, c64::ONE, &mut ghm);
                }
                if let Some(v) = &vm_h {
                    gemm(neg, &ext.diag, Op::N, v, Op::N, c64::ONE, &mut ghm);
                }
                (Some(gmh), Some(ghm))
            }
            None => (None, None),
        };
        DownPayload {
            lo: Some(sep_point.clone()),
            hi: p.hi.clone(),
            lo_hi,
            hi_lo,
        }
    });

    (NodeResult { diag, col0, coln }, left_pay, right_pay)
}

/// Tree-structured selected inversion of the prebuilt `A` matrix. Returns
/// the same surface as [`crate::rgf::rgf_solve`]: diagonal blocks, both
/// contact columns, the Caroli transmission (from `G_{0,N−1}`, exactly as
/// RGF evaluates it) and the regularization retries.
///
/// # Errors
///
/// [`OmenError::SingularBlock`](omen_num::OmenError) carrying the
/// separator index when pivot regularization is exhausted — the same
/// failure surface as RGF.
pub fn selinv_solve(
    a: &BlockTridiag<ZMat>,
    gamma_l: &ZMat,
    gamma_r: &ZMat,
) -> OmenResult<RgfResult> {
    let nb = a.num_blocks();
    let sup = Supports::of(gamma_l, gamma_r);
    let (nodes, order) = build_tree(nb);
    let a = Blocks::of(a);

    // Upward pass, children before parents: `up` is in postorder and
    // `at[s]` is separator `s`'s position in it.
    let mut at = vec![0usize; nb];
    let mut up: Vec<UpNode> = Vec::with_capacity(nb);
    let mut retries = 0usize;
    for (i, &s) in order.iter().enumerate() {
        at[s] = i;
        let n = &nodes[s];
        let corners = |child: Option<usize>| child.map(|c| &up[at[c]].corners);
        let node = eliminate(&a, n, corners(n.left), corners(n.right))?;
        retries += node.retries;
        up.push(node);
    }

    // Downward pass, the same order reversed: a parent writes its
    // children's payloads before they are reached (the root's is empty).
    let mut payloads = vec![DownPayload::default(); nb];
    let mut g_diag = vec![ZMat::zeros(0, 0); nb];
    let mut g_col_left = g_diag.clone();
    let mut g_col_right = g_diag.clone();
    for (&s, u) in order.iter().zip(&up).rev() {
        let n = &nodes[s];
        let pay = std::mem::take(&mut payloads[s]);
        let (res, pl, pr) = descend(&a, &sup, n, u, &pay);
        g_diag[s] = res.diag;
        g_col_left[s] = res.col0;
        g_col_right[s] = res.coln;
        for (child, p) in [(n.left, pl), (n.right, pr)] {
            if let (Some(c), Some(p)) = (child, p) {
                payloads[c] = p;
            }
        }
    }

    let transmission = caroli(gamma_l, gamma_r, &sup.left, &sup.right, &g_col_right[0]);
    Ok(RgfResult {
        g_diag,
        g_col_left,
        g_col_right,
        support_left: sup.left,
        support_right: sup.right,
        transmission,
        retries,
    })
}

/// One energy point with the selected-inversion engine, from the
/// contacts on — the tree-structured twin of
/// [`rgf_point`](crate::rgf::rgf_point), same result surface and the same
/// per-orbital `potential` (empty for none).
///
/// # Errors
///
/// [`selinv_solve`]'s [`omen_num::OmenError::SingularBlock`], stamped with
/// the energy.
pub fn selinv_point(
    e: f64,
    eta: f64,
    h: &BlockTridiag,
    potential: &[f64],
    sigma_l: &ContactSelfEnergy,
    sigma_r: &ContactSelfEnergy,
) -> OmenResult<EnergyPointData> {
    let a = build_a_matrix(e, eta, h, potential, sigma_l, sigma_r);
    let r = selinv_solve(&a, &sigma_l.gamma, &sigma_r.gamma).map_err(|err| err.with_energy(e))?;
    Ok(package(e, h, &r, sigma_l, sigma_r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgf::rgf_solve;
    use crate::sancho::Side;

    fn chain(nb: usize, e0: f64, t: f64, barrier: &[f64]) -> BlockTridiag {
        let diag: Vec<ZMat> = (0..nb)
            .map(|i| ZMat::from_diag(&[c64::real(e0 + barrier.get(i).copied().unwrap_or(0.0))]))
            .collect();
        let off: Vec<ZMat> = (0..nb - 1)
            .map(|_| ZMat::from_diag(&[c64::real(t)]))
            .collect();
        BlockTridiag::from_dense(diag, off.clone(), off)
    }

    fn chain_leads(e0: f64, t: f64, e: f64) -> (ContactSelfEnergy, ContactSelfEnergy) {
        let h00 = ZMat::from_diag(&[c64::real(e0)]);
        let h01 = ZMat::from_diag(&[c64::real(t)]);
        (
            ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, Side::Left).unwrap(),
            ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, Side::Right).unwrap(),
        )
    }

    #[test]
    fn tree_covers_every_block_once() {
        for nb in 1..40 {
            let (nodes, order) = build_tree(nb);
            assert_eq!(order.len(), nb, "nb={nb}");
            let mut seen = vec![false; nb];
            for s in order {
                assert!(!seen[s] && nodes[s].sep == s);
                seen[s] = true;
            }
        }
    }

    #[test]
    fn matches_rgf_on_barrier_chains() {
        let (e0, t) = (0.0, -1.0);
        for nb in [1usize, 2, 3, 5, 8, 13] {
            let mut barrier = vec![0.0; nb];
            if nb > 2 {
                barrier[nb / 2] = 0.6;
            }
            let h = chain(nb, e0, t, &barrier);
            for &e in &[-1.3_f64, 0.25, 1.1] {
                let (sl, sr) = chain_leads(e0, t, e);
                let a = build_a_matrix(e, 1e-6, &h, &[], &sl, &sr);
                let rgf = rgf_solve(&a, &sl.gamma, &sr.gamma).unwrap();
                let si = selinv_solve(&a, &sl.gamma, &sr.gamma).unwrap();
                assert!(
                    (si.transmission - rgf.transmission).abs()
                        < 1e-10 * (1.0 + rgf.transmission.abs()),
                    "nb={nb} E={e}: selinv {} vs rgf {}",
                    si.transmission,
                    rgf.transmission
                );
                for i in 0..nb {
                    assert!(
                        (&si.g_diag[i] - &rgf.g_diag[i]).max_abs() < 1e-10,
                        "diag {i}"
                    );
                    assert!((&si.g_col_left[i] - &rgf.g_col_left[i]).max_abs() < 1e-10);
                    assert!((&si.g_col_right[i] - &rgf.g_col_right[i]).max_abs() < 1e-10);
                }
            }
        }
    }
}
