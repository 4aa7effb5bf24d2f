//! AVX2 builds of the hot numeric kernels, chosen once per call at run time.
//!
//! The workspace compiles for baseline x86-64, whose vector unit is SSE2:
//! four `f32` or two `f64` lanes. Each kernel below is compiled twice from
//! one `#[inline(always)]` body, which lives next to its public entry point
//! in its home module:
//!
//! * the body itself, inlined into a plain build that runs on any host;
//! * an AVX2 *twin*, `#[target_feature(enable = "avx2")]`, that only calls
//!   the body, so the body is inlined again under eight `f32` (four `f64`)
//!   lanes.
//!
//! The dispatcher calls the twin when `is_x86_feature_detected!("avx2")`
//! holds. That is one cached load per kernel call (per rotate chunk, per
//! probe block, per matmul or SVD), not per key. Other targets compile only
//! the body.
//!
//! The two builds give the same bits. Rust never contracts `a * b + c`
//! into a fused multiply-add, and `avx2` does not enable `fma` anyway. An
//! IEEE multiply or add rounds each lane exactly, whatever the vector width.
//! No reduction is reassociated: every sum keeps the order written in its
//! body, such as [`dot`](crate::vecops::dot)'s four lanes and the
//! index-order chains of the SVD's `gram`. Only the sign and payload of a
//! NaN result may differ, as they already may between two inlined copies
//! of one kernel: the rotate kernel packs signs with `x < 0.0`, which reads
//! every NaN alike, and the trace sweep rejects non-finite scores. The
//! property tests below compare each twin with its body, bit for bit.
//!
//! This is the only module of the workspace allowed `unsafe` code: one
//! `unsafe` call per kernel, behind the feature check.

use crate::linalg::{self, Svd};
use crate::{matrix, sign, vecops, FlatVecs, Matrix, SignArena};

/// Declares, for each kernel, its AVX2 twin and the dispatcher that picks
/// between the twin and the plain body.
macro_rules! dispatched {
    ($(
        $(#[$doc:meta])*
        fn $name:ident, $twin:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;
    )*) => {$(
        /// The kernel's body built for AVX2.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $twin($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        $(#[$doc])*
        pub(crate) fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                // SAFETY: the twin needs only AVX2, which this host has (checked above).
                return unsafe { $twin($($arg),*) };
            }
            $body($($arg),*)
        }
    )*};
}

dispatched! {
    /// [`SignArena::push_rotated`]'s kernel.
    fn push_rotated, push_rotated_avx2(arena: &mut SignArena, r: &Matrix, keys: &[f32])
        = sign::push_rotated_body;
    /// [`vecops::dot_batch_rows`]'s kernel.
    fn dot_batch_rows, dot_batch_rows_avx2(rows: &[&[f32]], keys: &FlatVecs, out: &mut [Vec<f32>])
        = vecops::dot_batch_rows_body;
    /// [`vecops::axpy_rows`]'s kernel.
    fn axpy_rows, axpy_rows_avx2(weights: &[Vec<f32>], values: &FlatVecs, out: &mut [Vec<f32>])
        = vecops::axpy_rows_body;
    /// [`Matrix::matmul`]'s kernel.
    fn matmul, matmul_avx2(a: &Matrix, b: &Matrix) -> Matrix = matrix::matmul_body;
    /// [`Matrix::transpose_matmul`]'s kernel.
    fn transpose_matmul, transpose_matmul_avx2(a: &Matrix, b: &Matrix) -> Matrix
        = matrix::transpose_matmul_body;
    /// [`linalg::svd_square`]'s kernel.
    fn svd_square, svd_square_avx2(a: &Matrix) -> Svd = linalg::svd_square_body;
}

#[cfg(test)]
mod tests {
    //! Each kernel's dispatcher against its plain body, by bits. On a host
    //! with AVX2 the dispatcher runs the twin, so these compare the twin
    //! with the body; elsewhere they compare the body with itself.

    use super::*;
    use crate::check::{run_cases, Gen};
    use crate::prop_ensure;

    /// A dimension in 1..=130, most often one that is not a multiple of 8.
    fn dim(g: &mut Gen) -> usize {
        match g.usize_in(0, 4) {
            0 => [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 130][g.usize_in(0, 11)],
            _ => g.usize_in(1, 131),
        }
    }

    /// An ordinary value, or now and then `0.0`, `-0.0` or a subnormal of
    /// either sign; with `non_finite`, also ±∞ or a NaN of either sign.
    fn entry(g: &mut Gen, non_finite: bool) -> f32 {
        match g.usize_in(0, if non_finite { 24 } else { 20 }) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::MIN_POSITIVE * g.f32_in(0.0, 1.0),
            3 => -f32::MIN_POSITIVE * g.f32_in(0.0, 1.0),
            20 => f32::INFINITY,
            21 => f32::NEG_INFINITY,
            22 => f32::NAN,
            23 => -f32::NAN,
            _ => g.rng().normal() as f32,
        }
    }

    fn entries(g: &mut Gen, n: usize, non_finite: bool) -> Vec<f32> {
        (0..n).map(|_| entry(g, non_finite)).collect()
    }

    fn matrix(g: &mut Gen, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, entries(g, rows * cols, false))
    }

    fn flat(g: &mut Gen, n: usize, d: usize, non_finite: bool) -> FlatVecs {
        let mut v = FlatVecs::with_capacity(d, n);
        for _ in 0..n {
            v.push(&entries(g, d, non_finite));
        }
        v
    }

    /// Equal bits, or two NaNs: the sign and payload of a NaN result are
    /// left unspecified, and which NaN operand an add propagates depends on
    /// the operand order the compiler picks.
    fn ensure_same(what: &str, got: &[f32], want: &[f32]) -> Result<(), String> {
        prop_ensure!(got.len() == want.len(), "{what}: lengths differ");
        for (i, (&x, &y)) in got.iter().zip(want).enumerate() {
            prop_ensure!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}[{i}]: dispatched {x:e} ({:#x}) != body {y:e} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
        Ok(())
    }

    #[test]
    fn rotate_and_pack_dispatch_packs_the_bodys_signs() {
        run_cases("rotate_and_pack_dispatch_packs_the_bodys_signs", 96, |g| {
            let d = dim(g);
            // The identity's many exact zeros exercise the zero-skip.
            let r = if g.usize_in(0, 4) == 0 {
                Matrix::identity(d)
            } else {
                linalg::random_orthogonal(d, g.rng())
            };
            // Ragged: within one 8-key block, around one 256-key chunk,
            // or a few blocks past it.
            let n = match g.usize_in(0, 3) {
                0 => g.usize_in(0, 2 * sign::ROTATE_BLOCK_KEYS + 1),
                1 => g.usize_in(250, 263),
                _ => g.usize_in(0, 600),
            };
            // Half the keys are columns of `r` (now and then with an edge
            // entry): rotated, they give one entry near 1 and the rest
            // rounding noise around zero, whose signs flip if a build
            // rounds differently.
            let mut keys = entries(g, n * d, true);
            for key in keys.chunks_exact_mut(d) {
                if g.bool() {
                    let c = g.usize_in(0, d);
                    for (row, x) in key.iter_mut().enumerate() {
                        if g.usize_in(0, 16) != 0 {
                            *x = r.get(row, c);
                        }
                    }
                }
            }
            let mut base = SignArena::new(d);
            base.push_signs_of(&entries(g, d, true));
            let mut want = base.clone();
            sign::push_rotated_body(&mut want, &r, &keys);
            let mut got = base;
            push_rotated(&mut got, &r, &keys);
            prop_ensure!(got == want, "d={d}, {n} keys: packed sign words differ");
            Ok(())
        });
    }

    #[test]
    fn score_pass_dispatch_matches_the_body() {
        run_cases("score_pass_dispatch_matches_the_body", 96, |g| {
            let d = dim(g);
            let non_finite = g.bool();
            let n = g.usize_in(0, 70);
            let keys = flat(g, n, d, non_finite);
            let rows: Vec<Vec<f32>> = (0..g.usize_in(0, vecops::DOT_BATCH + 1))
                .map(|_| entries(g, d, false))
                .collect();
            let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            let mut want = vec![vec![0.0; keys.len()]; rows.len()];
            vecops::dot_batch_rows_body(&refs, &keys, &mut want);
            let mut got = vec![vec![0.5; keys.len()]; rows.len()];
            dot_batch_rows(&refs, &keys, &mut got);
            for (p, (got, want)) in got.iter().zip(&want).enumerate() {
                ensure_same(&format!("d={d} probe {p} scores"), got, want)?;
            }
            Ok(())
        });
    }

    #[test]
    fn value_pass_dispatch_matches_the_body() {
        run_cases("value_pass_dispatch_matches_the_body", 96, |g| {
            let d = dim(g);
            let non_finite = g.bool();
            let n = g.usize_in(0, 70);
            let values = flat(g, n, d, non_finite);
            let weights: Vec<Vec<f32>> = (0..g.usize_in(0, vecops::DOT_BATCH + 1))
                .map(|_| entries(g, values.len(), false))
                .collect();
            let start: Vec<Vec<f32>> = weights.iter().map(|_| entries(g, d, false)).collect();
            let mut want = start.clone();
            vecops::axpy_rows_body(&weights, &values, &mut want);
            let mut got = start;
            axpy_rows(&weights, &values, &mut got);
            for (p, (got, want)) in got.iter().zip(&want).enumerate() {
                ensure_same(&format!("d={d} probe {p} output"), got, want)?;
            }
            Ok(())
        });
    }

    #[test]
    fn matmul_dispatch_matches_the_bodies() {
        run_cases("matmul_dispatch_matches_the_bodies", 96, |g| {
            let (m, k, n) = (dim(g), dim(g), dim(g));
            let a = matrix(g, m, k);
            let b = matrix(g, k, n);
            let c = matrix(g, m, n);
            let got = matmul(&a, &b);
            let want = matrix::matmul_body(&a, &b);
            ensure_same(&format!("{m}x{k} · {k}x{n}"), got.data(), want.data())?;
            let got = transpose_matmul(&a, &c);
            let want = matrix::transpose_matmul_body(&a, &c);
            ensure_same(&format!("({m}x{k})ᵀ · {m}x{n}"), got.data(), want.data())
        });
    }

    #[test]
    fn svd_dispatch_matches_the_body() {
        run_cases("svd_dispatch_matches_the_body", 24, |g| {
            // Mostly small solves; now and then one at a head dimension.
            let n = if g.usize_in(0, 6) == 0 {
                dim(g)
            } else {
                g.usize_in(1, 33)
            };
            let mut a = matrix(g, n, n);
            if n > 1 && g.bool() {
                // A repeated column: rank deficient, so U is completed.
                let c = g.usize_in(1, n);
                for r in 0..n {
                    a.set(r, c, a.get(r, 0));
                }
            }
            let got = svd_square(&a);
            let want = linalg::svd_square_body(&a);
            ensure_same(&format!("n={n} U"), got.u.data(), want.u.data())?;
            ensure_same(&format!("n={n} sigma"), &got.sigma, &want.sigma)?;
            ensure_same(&format!("n={n} V"), got.v.data(), want.v.data())
        });
    }
}
