//! Bit-identity of the production Jacobi SVD against the straightforward
//! row-major loop it replaced, on the in-repo [`check`](longsight_tensor::check)
//! runner (replay a failure with `LONGSIGHT_PROP_SEED`).
//!
//! `reference_svd` below is that original loop, kept only as the oracle: it
//! recomputes every column norm for every pair and walks U and V with a
//! stride of one row. The production kernel must reproduce its output bit
//! for bit, so ITQ rotations trained before and after are identical.

use longsight_tensor::check::{run_cases, run_seed, Gen};
use longsight_tensor::linalg::{procrustes_rotation, svd_square, Svd};
use longsight_tensor::{prop_ensure_eq, Matrix};

const JACOBI_SWEEPS: usize = 60;
const JACOBI_TOL: f64 = 1e-12;

/// The row-major one-sided Jacobi SVD, verbatim apart from its name.
fn reference_svd(a: &Matrix) -> Svd {
    assert_eq!(a.rows(), a.cols(), "svd_square requires a square matrix");
    let n = a.rows();
    let mut u: Vec<f64> = a.data().iter().map(|&x| x as f64).collect();
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let col_dot = |m: &[f64], i: usize, j: usize| -> f64 {
        let mut s = 0.0;
        for r in 0..n {
            s += m[r * n + i] * m[r * n + j];
        }
        s
    };

    for _ in 0..JACOBI_SWEEPS {
        let mut converged = true;
        for p in 0..n {
            for q in (p + 1)..n {
                let alpha = col_dot(&u, p, p);
                let beta = col_dot(&u, q, q);
                let gamma = col_dot(&u, p, q);
                if gamma.abs() <= JACOBI_TOL * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                converged = false;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for r in 0..n {
                    let up = u[r * n + p];
                    let uq = u[r * n + q];
                    u[r * n + p] = c * up - s * uq;
                    u[r * n + q] = s * up + c * uq;
                }
                for r in 0..n {
                    let vp = v[r * n + p];
                    let vq = v[r * n + q];
                    v[r * n + p] = c * vp - s * vq;
                    v[r * n + q] = s * vp + c * vq;
                }
            }
        }
        if converged {
            break;
        }
    }

    // Extract singular values and normalize U's columns.
    let mut sigma: Vec<f64> = (0..n).map(|i| col_dot(&u, i, i).sqrt()).collect();
    let scale = sigma.iter().cloned().fold(0.0f64, f64::max).max(1e-300);
    for i in 0..n {
        if sigma[i] > scale * 1e-9 {
            for r in 0..n {
                u[r * n + i] /= sigma[i];
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
                let proj: f64 = (0..n).map(|r| cand[r] * u[r * n + j]).sum();
                for (r, c) in cand.iter_mut().enumerate() {
                    *c -= proj * u[r * n + j];
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
        for r in 0..n {
            u[r * n + i] = col[r];
        }
    }

    // Sort by descending singular value.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));
    let su = Matrix::from_fn(n, n, |r, c| u[r * n + order[c]] as f32);
    let sv = Matrix::from_fn(n, n, |r, c| v[r * n + order[c]] as f32);
    let ss: Vec<f32> = order.iter().map(|&i| sigma[i] as f32).collect();
    Svd {
        u: su,
        sigma: ss,
        v: sv,
    }
}

fn reference_procrustes(m: &Matrix) -> Matrix {
    let svd = reference_svd(m);
    svd.u.matmul(&svd.v.transpose())
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

fn ensure_same_svd(got: &Svd, want: &Svd) -> Result<(), String> {
    prop_ensure_eq!(bits(&got.u), bits(&want.u));
    prop_ensure_eq!(
        got.sigma.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        want.sigma.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    prop_ensure_eq!(bits(&got.v), bits(&want.v));
    Ok(())
}

/// Both SVDs and both Procrustes solves agree bit for bit on `m`.
fn ensure_identical(m: &Matrix) -> Result<(), String> {
    ensure_same_svd(&svd_square(m), &reference_svd(m))?;
    prop_ensure_eq!(
        bits(&procrustes_rotation(m)),
        bits(&reference_procrustes(m))
    );
    Ok(())
}

/// A size in `1..=130`, biased towards small matrices so the oracle's
/// strided loop keeps the suite fast.
fn size(g: &mut Gen) -> usize {
    if g.bool() {
        g.usize_in(1, 17)
    } else {
        g.usize_in(1, 131)
    }
}

fn gaussian(g: &mut Gen, rows: usize, cols: usize) -> Matrix {
    Matrix::random_gaussian(rows, cols, g.rng())
}

#[test]
fn svd_matches_reference_on_random_matrices() {
    run_cases("svd_matches_reference_on_random_matrices", 24, |g| {
        let n = size(g);
        ensure_identical(&gaussian(g, n, n))
    });
}

#[test]
fn svd_matches_reference_on_rank_deficient_matrices() {
    run_cases(
        "svd_matches_reference_on_rank_deficient_matrices",
        24,
        |g| {
            let n = size(g).max(2);
            let rank = g.usize_in(0, n);
            let m = if rank == 0 {
                Matrix::zeros(n, n)
            } else {
                gaussian(g, n, rank).matmul(&gaussian(g, rank, n))
            };
            ensure_identical(&m)
        },
    );
}

#[test]
fn svd_matches_reference_with_zero_columns() {
    run_cases("svd_matches_reference_with_zero_columns", 24, |g| {
        let n = size(g);
        let mut m = gaussian(g, n, n);
        let zeroed: Vec<bool> = (0..n).map(|_| g.usize_in(0, 4) == 0).collect();
        for r in 0..n {
            for (c, &z) in zeroed.iter().enumerate() {
                if z {
                    m.set(r, c, 0.0);
                }
            }
        }
        ensure_identical(&m)
    });
}

/// The ITQ shape: `M = Xᵀ·B` with `B = sign(X·R)` in `{−1, +1}`.
#[test]
fn svd_matches_reference_on_itq_procrustes_inputs() {
    run_cases("svd_matches_reference_on_itq_procrustes_inputs", 8, |g| {
        let d = g.usize_in(2, 65);
        let x = gaussian(g, 4 * d, d);
        let r = longsight_tensor::linalg::random_orthogonal(d, g.rng());
        let xr = x.matmul(&r);
        let b = Matrix::from_fn(
            xr.rows(),
            d,
            |i, j| if xr.get(i, j) < 0.0 { -1.0 } else { 1.0 },
        );
        ensure_identical(&x.transpose().matmul(&b))
    });
}

/// The boundary sizes, each pinned once: 1×1 through 3×3 and the head
/// dimension 128 with its neighbours.
#[test]
fn svd_matches_reference_at_boundary_sizes() {
    for n in [1usize, 2, 3, 127, 128, 129, 130] {
        run_seed("svd_matches_reference_at_boundary_sizes", n as u64, |g| {
            ensure_identical(&gaussian(g, n, n))
        });
    }
}
