//! Tree-parallel selected inversion over the block-tridiagonal `A`.
//!
//! The third transport engine. RGF walks the chain serially — `O(N)`
//! critical path in the transport direction. Selected inversion builds a
//! binary **elimination tree** over the block indices instead: every node
//! owns one separator block and a contiguous interval of the chain, the
//! upward pass Schur-eliminates separators bottom-up, and the downward
//! pass propagates exact boundary Green's blocks top-down. The critical
//! path is `O(log N)` block factorizations, and disjoint subtrees are
//! independent — which is what the rank-parallel driver exploits.
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
//! **Determinism contract.** The numeric elimination DAG is *canonical*:
//! balanced bisection over the block range, a pure function of the block
//! count. [`TreeShape`] and the rank count select only the task schedule
//! (which rank computes which node, in which wave); every node evaluates
//! the same floating-point expressions on the same inputs, and rank
//! messages round-trip `f64` bits exactly — so the output is bit-identical
//! across 1/2/4 workers and across balanced vs path-shaped schedules,
//! while agreement with RGF/WF is a cross-engine tolerance statement
//! (`engine.selinv_*` in TOLERANCES.toml). See DESIGN.md §13.

use crate::rgf::{build_a_matrix, caroli, RgfResult, REGULARIZATION_ETA};
use crate::sancho::ContactSelfEnergy;
use crate::serialize::{allgather_block_records, bytes_to_mat_array, bytes_to_mats, mats_to_bytes};
use crate::transport::{package, EnergyPointData};
use omen_linalg::{gemm, lu, matmul, Op, ZMat};
use omen_num::wire::{Dec, Enc};
use omen_num::{c64, OmenError, OmenResult};
use omen_parsim::Comm;
use omen_sparse::BlockTridiag;

/// Task-schedule shape for the parallel driver. This chooses *only* which
/// rank computes which elimination-tree node and in how many waves — the
/// numeric elimination DAG (and therefore every output bit) is identical
/// for both shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeShape {
    /// Subtree-recursive ownership, one wave per tree level: the
    /// `O(log N)` critical-path schedule.
    Balanced,
    /// Degenerate path schedule: one node per wave in postorder,
    /// round-robin ownership — the adversarial shape the bit-identity
    /// battery pins against [`TreeShape::Balanced`].
    Path,
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
    parent: Option<usize>,
}

/// Canonical balanced-bisection elimination tree over `nb` blocks.
/// Pure function of `nb` — this is the numeric DAG both drivers share.
fn build_tree(nb: usize) -> Vec<Node> {
    fn split(
        nodes: &mut Vec<Option<Node>>,
        lo: usize,
        hi: usize,
        parent: Option<usize>,
    ) -> Option<usize> {
        if lo > hi {
            return None;
        }
        let sep = lo + (hi - lo) / 2;
        nodes[sep] = Some(Node {
            lo,
            hi,
            sep,
            left: None,
            right: None,
            parent,
        });
        let left = if sep > lo {
            split(nodes, lo, sep - 1, Some(sep))
        } else {
            None
        };
        let right = split(nodes, sep + 1, hi, Some(sep));
        if let Some(n) = &mut nodes[sep] {
            n.left = left;
            n.right = right;
        }
        Some(sep)
    }
    let mut nodes: Vec<Option<Node>> = vec![None; nb];
    split(&mut nodes, 0, nb - 1, None);
    nodes
        .into_iter()
        .enumerate()
        .map(|(sep, n)| {
            n.unwrap_or(Node {
                lo: sep,
                hi: sep,
                sep,
                left: None,
                right: None,
                parent: None,
            })
        })
        .collect()
}

/// Children-before-parent traversal order (left, right, separator).
fn postorder(nodes: &[Node]) -> Vec<usize> {
    fn walk(nodes: &[Node], sep: usize, out: &mut Vec<usize>) {
        if let Some(l) = nodes[sep].left {
            walk(nodes, l, out);
        }
        if let Some(r) = nodes[sep].right {
            walk(nodes, r, out);
        }
        out.push(sep);
    }
    let mut out = Vec::with_capacity(nodes.len());
    if let Some(root) = nodes.iter().find(|n| n.parent.is_none()) {
        walk(nodes, root.sep, &mut out);
    }
    out
}

/// Upward-pass waves: each wave's nodes depend only on earlier waves.
/// Balanced: one wave per tree level (nodes grouped by height, ascending
/// separator within a wave). Path: one node per wave in postorder.
fn waves(nodes: &[Node], shape: TreeShape) -> Vec<Vec<usize>> {
    let post = postorder(nodes);
    match shape {
        TreeShape::Path => post.into_iter().map(|s| vec![s]).collect(),
        TreeShape::Balanced => {
            let mut height = vec![0usize; nodes.len()];
            let mut max_h = 0usize;
            for &s in &post {
                let hl = nodes[s].left.map_or(0, |c| height[c] + 1);
                let hr = nodes[s].right.map_or(0, |c| height[c] + 1);
                height[s] = hl.max(hr);
                max_h = max_h.max(height[s]);
            }
            let mut out = vec![Vec::new(); max_h + 1];
            for s in 0..nodes.len() {
                out[height[s]].push(s);
            }
            out
        }
    }
}

/// Deterministic node → owning-rank map (pure function of tree, shape and
/// rank count, so every rank computes it identically).
fn owners(nodes: &[Node], shape: TreeShape, nranks: usize) -> Vec<usize> {
    let mut own = vec![0usize; nodes.len()];
    match shape {
        TreeShape::Path => {
            for (i, s) in postorder(nodes).into_iter().enumerate() {
                own[s] = i % nranks;
            }
        }
        TreeShape::Balanced => {
            // Subtree-recursive rank ranges: a node is owned by the first
            // rank of its range; the left child shares the parent's rank.
            fn assign(nodes: &[Node], own: &mut [usize], sep: usize, r_lo: usize, r_hi: usize) {
                own[sep] = r_lo;
                let size = r_hi - r_lo;
                let mid = if size >= 2 { r_lo + size / 2 } else { r_hi };
                if let Some(l) = nodes[sep].left {
                    assign(nodes, own, l, r_lo, mid.max(r_lo + 1));
                }
                if let Some(r) = nodes[sep].right {
                    let (lo, hi) = if size >= 2 { (mid, r_hi) } else { (r_lo, r_hi) };
                    assign(nodes, own, r, lo, hi);
                }
            }
            if let Some(root) = nodes.iter().find(|n| n.parent.is_none()) {
                assign(nodes, &mut own, root.sep, 0, nranks);
            }
        }
    }
    own
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
    a: &BlockTridiag,
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
    a: &BlockTridiag,
    sup: &Supports,
    node: &Node,
    u: &UpNode,
    p: &DownPayload,
) -> (NodeResult, Option<DownPayload>, Option<DownPayload>) {
    let nb = a.num_blocks();
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

/// Assembles the per-separator results into the [`RgfResult`] surface and
/// evaluates the Caroli transmission from `G_{0,N−1}` exactly as
/// [`crate::rgf::rgf_solve`] does.
fn assemble(
    results: Vec<Option<NodeResult>>,
    retries: usize,
    gamma_l: &ZMat,
    gamma_r: &ZMat,
    sup: Supports,
) -> OmenResult<RgfResult> {
    let mut g_diag = Vec::with_capacity(results.len());
    let mut g_col_left = Vec::with_capacity(results.len());
    let mut g_col_right = Vec::with_capacity(results.len());
    for r in results {
        let r = r.ok_or(OmenError::Deserialize {
            context: "selinv result set is missing a block",
        })?;
        g_diag.push(r.diag);
        g_col_left.push(r.col0);
        g_col_right.push(r.coln);
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

/// Serial tree-structured selected inversion of the prebuilt `A` matrix.
/// Returns the same surface as [`crate::rgf::rgf_solve`] (diagonal blocks,
/// both contact columns, Caroli transmission, regularization retries) and
/// is the bit-reference for [`selinv_solve_parallel`] at any rank count.
///
/// # Errors
///
/// [`OmenError::SingularBlock`](omen_num::OmenError) carrying the
/// separator index when pivot regularization is exhausted — the same
/// failure surface as RGF.
pub fn selinv_solve(a: &BlockTridiag, gamma_l: &ZMat, gamma_r: &ZMat) -> OmenResult<RgfResult> {
    let nb = a.num_blocks();
    let sup = Supports::of(gamma_l, gamma_r);
    let nodes = build_tree(nb);
    let order = postorder(&nodes);

    let mut up: Vec<Option<UpNode>> = (0..nb).map(|_| None).collect();
    let mut retries = 0usize;
    for &s in &order {
        let n = &nodes[s];
        let node = {
            let lc = n.left.and_then(|c| up[c].as_ref()).map(|u| &u.corners);
            let rc = n.right.and_then(|c| up[c].as_ref()).map(|u| &u.corners);
            eliminate(a, n, lc, rc)?
        };
        retries += node.retries;
        up[s] = Some(node);
    }

    let mut payloads: Vec<Option<DownPayload>> = (0..nb).map(|_| None).collect();
    let mut results: Vec<Option<NodeResult>> = (0..nb).map(|_| None).collect();
    for &s in order.iter().rev() {
        let n = &nodes[s];
        let pay = payloads[s].take().unwrap_or_default();
        let u = up[s].as_ref().ok_or(OmenError::Deserialize {
            context: "selinv upward pass skipped a node",
        })?;
        let (res, pl, pr) = descend(a, &sup, n, u, &pay);
        results[s] = Some(res);
        if let Some(c) = n.left {
            payloads[c] = pl;
        }
        if let Some(c) = n.right {
            payloads[c] = pr;
        }
    }
    assemble(results, retries, gamma_l, gamma_r, sup)
}

// ---------------------------------------------------------------------------
// Rank-parallel driver.
// ---------------------------------------------------------------------------

const KIND_UP: u64 = 0;
const KIND_DOWN: u64 = 1;

fn tag(sep: usize, kind: u64) -> u64 {
    debug_assert!(sep < (1 << 16));
    ((sep as u64) << 2) | kind
}

fn encode_corners(c: &Corners) -> Vec<u8> {
    mats_to_bytes(&[&c.gll, &c.glh, &c.ghl, &c.ghh])
}

fn decode_corners(b: &[u8]) -> OmenResult<Corners> {
    let [gll, glh, ghl, ghh] = bytes_to_mat_array(b, "selinv corner bundle")?;
    Ok(Corners { gll, glh, ghl, ghh })
}

/// Wire format: one presence byte (bit0 = lo, bit1 = hi, bit2 = crosses)
/// followed by the present matrices in a fixed order.
fn encode_payload(p: &DownPayload) -> Vec<u8> {
    let mut flags = 0u8;
    let mut mats: Vec<&ZMat> = Vec::with_capacity(8);
    if let Some(ext) = &p.lo {
        flags |= 1;
        mats.extend([&ext.diag, &ext.col0, &ext.coln]);
    }
    if let Some(ext) = &p.hi {
        flags |= 2;
        mats.extend([&ext.diag, &ext.col0, &ext.coln]);
    }
    if let (Some(lh), Some(hl)) = (&p.lo_hi, &p.hi_lo) {
        flags |= 4;
        mats.extend([lh, hl]);
    }
    let mut v = vec![flags];
    v.extend_from_slice(&mats_to_bytes(&mats));
    v
}

fn decode_payload(b: &[u8]) -> OmenResult<DownPayload> {
    const CTX: &str = "selinv downward payload";
    let mut d = Dec::new(b, CTX);
    let flags = d.u8()?;
    let mats = bytes_to_mats(d.rest())?;
    let mut it = mats.into_iter();
    let mut next = || it.next().ok_or(OmenError::Deserialize { context: CTX });
    let mut take_ext = |on: bool| -> OmenResult<Option<ExtPoint>> {
        if !on {
            return Ok(None);
        }
        Ok(Some(ExtPoint {
            diag: next()?,
            col0: next()?,
            coln: next()?,
        }))
    };
    let lo = take_ext(flags & 1 != 0)?;
    let hi = take_ext(flags & 2 != 0)?;
    let (lo_hi, hi_lo) = if flags & 4 != 0 {
        (Some(next()?), Some(next()?))
    } else {
        (None, None)
    };
    Ok(DownPayload {
        lo,
        hi,
        lo_hi,
        hi_lo,
    })
}

/// Rank-parallel selected inversion. All members of `comm` must call
/// collectively with identical arguments; each returns the complete
/// [`RgfResult`], bit-identical to [`selinv_solve`] regardless of the
/// rank count or [`TreeShape`] (the shape selects the task schedule, not
/// the numeric DAG — see the module docs).
///
/// # Errors
///
/// An exhausted pivot regularization surfaces as the *same*
/// [`OmenError::SingularBlock`](omen_num::OmenError) on every rank (the
/// per-wave health barrier aligns the SPMD schedule); communicator faults
/// surface typed ([`OmenError::RecvTimeout`] / [`OmenError::ChannelClosed`]
/// / [`OmenError::ScheduleDivergence`]) — a dead worker mid-tree times out,
/// it never hangs the healthy ranks.
pub fn selinv_solve_parallel(
    comm: &Comm,
    a: &BlockTridiag,
    gamma_l: &ZMat,
    gamma_r: &ZMat,
    shape: TreeShape,
) -> OmenResult<RgfResult> {
    let nb = a.num_blocks();
    let sup = Supports::of(gamma_l, gamma_r);
    let nodes = build_tree(nb);
    let wave_list = waves(&nodes, shape);
    let own = owners(&nodes, shape, comm.size());
    let me = comm.rank();

    // Upward pass: per wave — drain child corners, eliminate owned nodes,
    // health-barrier, ship corners to remote parents.
    let mut up: Vec<Option<UpNode>> = (0..nb).map(|_| None).collect();
    let mut remote: Vec<Option<Corners>> = (0..nb).map(|_| None).collect();
    for wave in &wave_list {
        let mut local_err: Option<OmenError> = None;
        for &s in wave {
            if own[s] != me {
                continue;
            }
            for c in [nodes[s].left, nodes[s].right].into_iter().flatten() {
                if own[c] != me && remote[c].is_none() {
                    let bytes = comm.recv(own[c], tag(c, KIND_UP))?;
                    remote[c] = Some(decode_corners(&bytes)?);
                }
            }
            if local_err.is_some() {
                continue;
            }
            let res = {
                let pick = |child: Option<usize>| {
                    child.and_then(|c| up[c].as_ref().map(|u| &u.corners).or(remote[c].as_ref()))
                };
                let lc = pick(nodes[s].left);
                let rc = pick(nodes[s].right);
                eliminate(a, &nodes[s], lc, rc)
            };
            match res {
                Ok(u) => up[s] = Some(u),
                Err(e) => local_err = Some(e),
            }
        }
        comm.agree(local_err.as_ref())?;
        for &s in wave {
            if own[s] != me {
                continue;
            }
            if let (Some(par), Some(u)) = (nodes[s].parent, up[s].as_ref()) {
                if own[par] != me {
                    comm.send(own[par], tag(s, KIND_UP), encode_corners(&u.corners));
                }
            }
        }
    }

    // Downward pass: reverse wave order (parents strictly precede
    // children); payloads cross ranks as tagged point-to-point messages.
    // No factorization happens here, so a fault can only be a typed
    // communicator error.
    let mut payloads: Vec<Option<DownPayload>> = (0..nb).map(|_| None).collect();
    let mut results: Vec<Option<NodeResult>> = (0..nb).map(|_| None).collect();
    for wave in wave_list.iter().rev() {
        for &s in wave {
            if own[s] != me {
                continue;
            }
            let n = &nodes[s];
            let pay = match n.parent {
                None => DownPayload::default(),
                Some(par) if own[par] == me => {
                    // analyze: allow(protocol-early-exit, internal-invariant breach: a missing local payload means the wave order itself is broken; peers waiting on this rank's child payloads hit their recv timeout and fail typed rather than consuming garbage)
                    payloads[s].take().ok_or(OmenError::Deserialize {
                        context: "selinv local payload missing",
                    })?
                }
                Some(par) => decode_payload(&comm.recv(own[par], tag(s, KIND_DOWN))?)?,
            };
            let u = up[s].as_ref().ok_or(OmenError::Deserialize {
                context: "selinv upward node missing",
            })?;
            let (res, pl, pr) = descend(a, &sup, n, u, &pay);
            results[s] = Some(res);
            for (child, cp) in [(n.left, pl), (n.right, pr)] {
                if let (Some(c), Some(cp)) = (child, cp) {
                    if own[c] == me {
                        payloads[c] = Some(cp);
                    } else {
                        comm.send(own[c], tag(c, KIND_DOWN), encode_payload(&cp));
                    }
                }
            }
        }
    }

    // Allgather the per-separator results; every rank assembles the same
    // bits from the same records. A record body is the separator's
    // regularization retries, then its three result blocks.
    const CTX: &str = "selinv result record";
    let mut mine = Vec::new();
    for s in (0..nb).filter(|&s| own[s] == me) {
        let r = results[s].take().ok_or(OmenError::Deserialize {
            context: "selinv owned result missing",
        })?;
        let mut body = Enc::new();
        body.usize(up[s].as_ref().map_or(0, |u| u.retries));
        body.raw(&mats_to_bytes(&[&r.diag, &r.col0, &r.coln]));
        mine.push((s, body.finish()));
    }
    let gathered = allgather_block_records(comm, nb, &mine, CTX, |body| {
        let mut d = Dec::new(body, CTX);
        let retries = d.usize()?;
        let [diag, col0, coln] = bytes_to_mat_array(d.rest(), CTX)?;
        Ok((retries, NodeResult { diag, col0, coln }))
    })?;
    let total_retries = gathered
        .iter()
        .fold(0usize, |total, (retries, _)| total.saturating_add(*retries));
    let all_results = gathered.into_iter().map(|(_, r)| Some(r)).collect();
    debug_assert_eq!(comm.pending_p2p_messages(), 0);
    assemble(all_results, total_retries, gamma_l, gamma_r, sup)
}

/// One energy point with the serial selected-inversion engine, from the
/// contacts on — the tree-structured twin of
/// [`rgf_point`](crate::rgf::rgf_point), same result surface.
///
/// # Errors
///
/// [`selinv_solve`]'s [`omen_num::OmenError::SingularBlock`], stamped with
/// the energy.
pub fn selinv_point(
    e: f64,
    eta: f64,
    h: &BlockTridiag,
    sigma_l: &ContactSelfEnergy,
    sigma_r: &ContactSelfEnergy,
) -> OmenResult<EnergyPointData> {
    let a = build_a_matrix(e, eta, h, sigma_l, sigma_r);
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
        BlockTridiag::new(diag, off.clone(), off)
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
            let nodes = build_tree(nb);
            let post = postorder(&nodes);
            assert_eq!(post.len(), nb, "nb={nb}");
            let mut seen = vec![false; nb];
            for s in post {
                assert!(!seen[s]);
                seen[s] = true;
            }
            for shape in [TreeShape::Balanced, TreeShape::Path] {
                let w = waves(&nodes, shape);
                assert_eq!(w.iter().map(Vec::len).sum::<usize>(), nb);
                for nranks in [1usize, 3, 5] {
                    for &o in &owners(&nodes, shape, nranks) {
                        assert!(o < nranks);
                    }
                }
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
                let a = build_a_matrix(e, 1e-6, &h, &sl, &sr);
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

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let (e0, t) = (0.0, -1.0);
        let mut barrier = vec![0.0; 9];
        barrier[4] = 0.5;
        let h = chain(9, e0, t, &barrier);
        let e = 0.45;
        let (sl, sr) = chain_leads(e0, t, e);
        let a = build_a_matrix(e, 1e-6, &h, &sl, &sr);
        let serial = selinv_solve(&a, &sl.gamma, &sr.gamma).unwrap();
        for shape in [TreeShape::Balanced, TreeShape::Path] {
            for nranks in [1usize, 2, 4] {
                let out = omen_parsim::run_ranks(nranks, |ctx| {
                    let comm = Comm::world(ctx);
                    selinv_solve_parallel(&comm, &a, &sl.gamma, &sr.gamma, shape)
                })
                .flattened();
                for r in out.unwrap_all() {
                    assert_eq!(
                        r.transmission.to_bits(),
                        serial.transmission.to_bits(),
                        "{shape:?} nranks={nranks}"
                    );
                    for i in 0..9 {
                        assert_eq!(r.g_diag[i], serial.g_diag[i]);
                        assert_eq!(r.g_col_left[i], serial.g_col_left[i]);
                        assert_eq!(r.g_col_right[i], serial.g_col_right[i]);
                    }
                    assert_eq!(r.retries, serial.retries);
                }
            }
        }
    }
}
