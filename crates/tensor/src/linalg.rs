//! Small dense linear algebra: one-sided Jacobi SVD and the orthogonal
//! Procrustes solve built on it.
//!
//! The ITQ rotation trainer (paper §5.4) solves an orthogonal Procrustes
//! problem each iteration: given `M = Xᵀ·B`, find the orthogonal `R`
//! minimizing `‖X·R − B‖`, which is `R = U·Vᵀ` from the SVD `M = U·Σ·Vᵀ`.
//! Head dimensions are at most 128 (Table 1). The `O(d³)`-per-sweep Jacobi
//! method is numerically robust but not cheap: thirty 128×128 solves once
//! took about 90% of a trace sweep's set-up. [`svd_square`] therefore keeps
//! U and V column-major, fuses the three dot products of each pair into one
//! pass and caches column norms between rotations — all without reordering
//! a single floating-point operation, so trained rotations are
//! bit-identical to the straightforward row-major loop.

use crate::{Matrix, SimRng};

/// Result of a singular value decomposition `A = U·diag(σ)·Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors as columns.
    pub u: Matrix,
    /// Singular values in descending order.
    pub sigma: Vec<f32>,
    /// Right singular vectors as columns (i.e. `V`, not `Vᵀ`).
    pub v: Matrix,
}

const JACOBI_SWEEPS: usize = 60;
const JACOBI_TOL: f64 = 1e-12;

/// One-sided Jacobi SVD of a square matrix.
///
/// Orthogonalizes the columns of `A` by plane rotations accumulated into `V`;
/// the column norms become the singular values and the normalized columns
/// become `U`. Columns with (numerically) zero singular values have their `U`
/// columns completed to an orthonormal basis so that `U` is always orthogonal
/// — this is what the Procrustes solve requires. On a host with AVX2 the
/// solve runs its AVX2 build, with the same bits.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn svd_square(a: &Matrix) -> Svd {
    assert_eq!(a.rows(), a.cols(), "svd_square requires a square matrix");
    crate::simd::svd_square(a)
}

/// [`svd_square`]'s body, compiled once per instruction set. Its helpers
/// are `#[inline(always)]` so that each build carries its own copy.
#[inline(always)]
pub(crate) fn svd_square_body(a: &Matrix) -> Svd {
    let n = a.rows();
    // Column-major f64 working copies: column `c` of U is `u[c·n..(c+1)·n]`,
    // so every dot product and plane rotation below streams contiguous
    // memory. V starts as the identity, which is the same in either layout.
    let mut u = vec![0.0f64; n * n];
    for r in 0..n {
        for c in 0..n {
            u[c * n + r] = a.get(r, c) as f64;
        }
    }
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    // Squared column norms of U, re-summed only after a rotation has touched
    // the column. An untouched column's sum runs over the same values in the
    // same order, so reusing it changes no bit of the result.
    let mut norm2 = vec![0.0f64; n];
    let mut stale = vec![true; n];
    for _ in 0..JACOBI_SWEEPS {
        let mut converged = true;
        for p in 0..n {
            for q in (p + 1)..n {
                let (up, uq) = column_pair(&mut u, n, p, q);
                let cached = |i: usize| (!stale[i]).then_some(norm2[i]);
                let (alpha, beta, gamma) = gram(up, uq, cached(p), cached(q));
                norm2[p] = alpha;
                norm2[q] = beta;
                stale[p] = false;
                stale[q] = false;
                if gamma.abs() <= JACOBI_TOL * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                converged = false;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate(up, uq, c, s);
                let (vp, vq) = column_pair(&mut v, n, p, q);
                rotate(vp, vq, c, s);
                stale[p] = true;
                stale[q] = true;
            }
        }
        if converged {
            break;
        }
    }

    // Extract singular values and normalize U's columns.
    let mut sigma: Vec<f64> = (0..n)
        .map(|i| {
            let col = &u[i * n..(i + 1) * n];
            dot(col, col).sqrt()
        })
        .collect();
    let scale = sigma.iter().cloned().fold(0.0f64, f64::max).max(1e-300);
    for i in 0..n {
        if sigma[i] > scale * 1e-9 {
            for x in &mut u[i * n..(i + 1) * n] {
                *x /= sigma[i];
            }
        } else {
            sigma[i] = 0.0;
        }
    }
    // Complete zero columns of U to an orthonormal basis (Gram–Schmidt against
    // the nonzero columns and previously-completed ones).
    for i in 0..n {
        if sigma[i] > 0.0 {
            continue;
        }
        // Try basis vectors until one survives projection.
        let mut best: Option<Vec<f64>> = None;
        for e in 0..n {
            let mut cand = vec![0.0f64; n];
            cand[e] = 1.0;
            for j in 0..n {
                if j == i || (sigma[j] == 0.0 && j > i) {
                    continue;
                }
                let uj = &u[j * n..(j + 1) * n];
                let proj: f64 = cand.iter().zip(uj).map(|(c, x)| c * x).sum();
                for (c, x) in cand.iter_mut().zip(uj) {
                    *c -= proj * x;
                }
            }
            let norm: f64 = cand.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-6 {
                for c in &mut cand {
                    *c /= norm;
                }
                best = Some(cand);
                break;
            }
        }
        let col = best.expect("orthonormal completion must succeed for n basis vectors");
        u[i * n..(i + 1) * n].copy_from_slice(&col);
    }

    // Sort by descending singular value.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));
    let su = Matrix::from_fn(n, n, |r, c| u[order[c] * n + r] as f32);
    let sv = Matrix::from_fn(n, n, |r, c| v[order[c] * n + r] as f32);
    let ss: Vec<f32> = order.iter().map(|&i| sigma[i] as f32).collect();
    Svd {
        u: su,
        sigma: ss,
        v: sv,
    }
}

/// Columns `p < q` of the column-major `n×n` matrix `m`, borrowed together.
#[inline(always)]
fn column_pair(m: &mut [f64], n: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = m.split_at_mut(q * n);
    (&mut head[p * n..(p + 1) * n], &mut tail[..n])
}

/// Dot product accumulated in index order.
#[inline(always)]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// `(‖a‖², ‖b‖², a·b)` in one pass over both columns, re-summing a norm
/// only when no cached value is given. Each sum accumulates in index order,
/// exactly as separate [`dot`] calls would; interleaving them only overlaps
/// their latency.
#[inline(always)]
fn gram(a: &[f64], b: &[f64], norm_a: Option<f64>, norm_b: Option<f64>) -> (f64, f64, f64) {
    let (mut aa, mut bb, mut ab) = (0.0, 0.0, 0.0);
    match (norm_a, norm_b) {
        (None, None) => {
            for (x, y) in a.iter().zip(b) {
                aa += x * x;
                bb += y * y;
                ab += x * y;
            }
        }
        (None, Some(nb)) => {
            bb = nb;
            for (x, y) in a.iter().zip(b) {
                aa += x * x;
                ab += x * y;
            }
        }
        (Some(na), None) => {
            aa = na;
            for (x, y) in a.iter().zip(b) {
                bb += y * y;
                ab += x * y;
            }
        }
        (Some(na), Some(nb)) => (aa, bb, ab) = (na, nb, dot(a, b)),
    }
    (aa, bb, ab)
}

/// Applies the plane rotation `(a, b) ← (c·a − s·b, s·a + c·b)` elementwise.
#[inline(always)]
fn rotate(a: &mut [f64], b: &mut [f64], c: f64, s: f64) {
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let (xa, yb) = (*x, *y);
        *x = c * xa - s * yb;
        *y = s * xa + c * yb;
    }
}

/// Solves the orthogonal Procrustes problem: the orthogonal `R` maximizing
/// `trace(Rᵀ·M)`, i.e. `R = U·Vᵀ` where `M = U·Σ·Vᵀ`.
///
/// In ITQ, `M = Xᵀ·B` (data times binary codes) and the returned `R` is the
/// updated rotation.
///
/// # Panics
///
/// Panics if `m` is not square.
pub fn procrustes_rotation(m: &Matrix) -> Matrix {
    let svd = svd_square(m);
    svd.u.matmul(&svd.v.transpose())
}

/// Generates a Haar-ish random orthogonal matrix by Gram–Schmidt on a
/// Gaussian matrix.
pub fn random_orthogonal(n: usize, rng: &mut SimRng) -> Matrix {
    loop {
        let g = Matrix::random_gaussian(n, n, rng);
        if let Some(q) = gram_schmidt_columns(&g) {
            return q;
        }
        // Astronomically unlikely to loop: retry on degenerate draw.
    }
}

/// Orthonormalizes the columns of `m`; returns `None` if a column collapses.
fn gram_schmidt_columns(m: &Matrix) -> Option<Matrix> {
    let n = m.rows();
    let k = m.cols();
    let mut cols: Vec<Vec<f32>> = (0..k).map(|c| m.col(c)).collect();
    for i in 0..k {
        // Re-orthogonalize twice for stability (classical GS done twice).
        for _pass in 0..2 {
            for j in 0..i {
                let proj = crate::vecops::dot(&cols[i], &cols[j]);
                let (left, right) = cols.split_at_mut(i);
                crate::vecops::axpy(-proj, &left[j], &mut right[0]);
            }
        }
        let norm = crate::vecops::l2_norm(&cols[i]);
        if norm < 1e-6 {
            return None;
        }
        for x in &mut cols[i] {
            *x /= norm;
        }
    }
    Some(Matrix::from_fn(n, k, |r, c| cols[c][r]))
}

/// Maximum absolute deviation of `QᵀQ` from the identity — 0 for a perfectly
/// orthogonal matrix. Used in tests and to validate trained ITQ rotations.
pub fn orthogonality_error(q: &Matrix) -> f32 {
    let qtq = q.transpose().matmul(q);
    qtq.max_abs_diff(&Matrix::identity(q.cols()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct_svd(svd: &Svd) -> Matrix {
        let n = svd.sigma.len();
        let mut us = svd.u.clone();
        for r in 0..n {
            for c in 0..n {
                us.set(r, c, us.get(r, c) * svd.sigma[c]);
            }
        }
        us.matmul(&svd.v.transpose())
    }

    #[test]
    fn svd_reconstructs_random_matrix() {
        let mut rng = SimRng::seed_from(21);
        let a = Matrix::random_gaussian(8, 8, &mut rng);
        let svd = svd_square(&a);
        let rec = reconstruct_svd(&svd);
        assert!(rec.max_abs_diff(&a) < 1e-3);
        assert!(orthogonality_error(&svd.u) < 1e-4);
        assert!(orthogonality_error(&svd.v) < 1e-4);
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1], "singular values must be descending");
        }
    }

    #[test]
    fn svd_of_rank_deficient_matrix_completes_u() {
        // Rank-1 matrix: outer product.
        let u = [1.0f32, 2.0, 3.0];
        let v = [-1.0f32, 0.5, 2.0];
        let a = Matrix::from_fn(3, 3, |r, c| u[r] * v[c]);
        let svd = svd_square(&a);
        assert!(svd.sigma[1].abs() < 1e-4);
        assert!(svd.sigma[2].abs() < 1e-4);
        assert!(
            orthogonality_error(&svd.u) < 1e-4,
            "U must still be orthogonal"
        );
        let rec = reconstruct_svd(&svd);
        assert!(rec.max_abs_diff(&a) < 1e-3);
    }

    #[test]
    fn procrustes_recovers_a_known_rotation() {
        let mut rng = SimRng::seed_from(31);
        let r_true = random_orthogonal(5, &mut rng);
        let x = Matrix::random_gaussian(64, 5, &mut rng);
        let b = x.matmul(&r_true);
        // M = Xᵀ B; Procrustes on M should recover R (X is full rank w.h.p.).
        let m = x.transpose().matmul(&b);
        let r = procrustes_rotation(&m);
        assert!(r.max_abs_diff(&r_true) < 1e-3);
    }

    #[test]
    fn random_orthogonal_is_orthogonal() {
        let mut rng = SimRng::seed_from(41);
        for n in [2, 3, 8, 16] {
            let q = random_orthogonal(n, &mut rng);
            assert!(orthogonality_error(&q) < 1e-4, "n = {n}");
        }
    }
}
