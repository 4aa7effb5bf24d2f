//! Vector kernels: dot products, softmax, norms.
//!
//! These are the scalar building blocks of the attention math. They operate on
//! plain `&[f32]` slices so callers control allocation (C-CALLER-CONTROL).
//! [`dot_batch_rows`] and [`axpy_rows`] run them over a whole [`FlatVecs`]
//! store, in an AVX2 build on hosts that have it.

use crate::FlatVecs;

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(longsight_tensor::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    // Unrolled-by-4 accumulation into four lanes, summed in a fixed order so
    // the result never depends on -ffast-math. The compiler keeps the lanes
    // in one vector register, so the whole dot is one serial chain of vector
    // adds; [`dot_batch`] interleaves the chains of several rows.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Rows per [`dot_batch`] call: four accumulator vectors and their row
/// loads fit the sixteen vector registers of baseline x86-64.
pub const DOT_BATCH: usize = 4;

/// `out[p] = dot(rows[p], b)` for up to [`DOT_BATCH`] rows in one pass
/// over `b`, bit-identical to [`dot`].
///
/// Each row keeps `dot`'s four lanes, its lane-then-tail summation order
/// and its operand order, so only the interleaving of the independent
/// per-row chains changes: the adds of one row overlap the latency of the
/// others, and each element of `b` is loaded once for all rows. A ragged
/// batch (fewer than [`DOT_BATCH`] rows) runs the same loop with the
/// missing rows padded by `b` itself; their results are dropped.
///
/// # Panics
///
/// Panics if `rows` holds more than [`DOT_BATCH`] rows, if `out` and
/// `rows` differ in length, or if a row and `b` differ in length.
///
/// # Example
///
/// ```
/// use longsight_tensor::vecops::{dot, dot_batch};
///
/// let (a, c, b) = ([1.0, 2.0, 3.0], [0.5, -1.0, 4.0], [3.0, 4.0, 5.0]);
/// let mut out = [0.0; 2];
/// dot_batch(&[&a, &c], &b, &mut out);
/// assert_eq!(out, [dot(&a, &b), dot(&c, &b)]);
/// ```
#[inline(always)]
pub fn dot_batch(rows: &[&[f32]], b: &[f32], out: &mut [f32]) {
    assert!(
        rows.len() <= DOT_BATCH,
        "dot_batch takes at most {DOT_BATCH} rows"
    );
    assert_eq!(rows.len(), out.len(), "dot_batch output length mismatch");
    for row in rows {
        assert_eq!(row.len(), b.len(), "dot length mismatch");
    }
    let row = |p: usize| rows.get(p).copied().unwrap_or(b);
    let (b4, b_tail) = b.as_chunks::<4>();
    let lanes = |p: usize| &row(p).as_chunks::<4>().0[..b4.len()];
    let mut acc = [[0.0f32; 4]; DOT_BATCH];
    for ((((bj, a0), a1), a2), a3) in b4
        .iter()
        .zip(lanes(0))
        .zip(lanes(1))
        .zip(lanes(2))
        .zip(lanes(3))
    {
        lane_step(&mut acc[0], a0, bj);
        lane_step(&mut acc[1], a1, bj);
        lane_step(&mut acc[2], a2, bj);
        lane_step(&mut acc[3], a3, bj);
    }
    // Left alone, LLVM's SLP vectorizer turns the four rows' final lane sums
    // into three vertical adds by transposing the accumulators: one vector
    // per lane across rows, with four shuffles in every step above. Passing
    // the accumulators through `black_box` hides the sums from it, so each
    // row keeps one accumulator vector and a step is one load, multiply and
    // add per row.
    let acc = std::hint::black_box(acc);
    for (p, (out, acc)) in out.iter_mut().zip(&acc).enumerate() {
        let a_tail = &row(p)[b4.len() * 4..];
        let mut tail = 0.0;
        for (x, y) in a_tail.iter().zip(b_tail) {
            tail += x * y;
        }
        *out = acc[0] + acc[1] + acc[2] + acc[3] + tail;
    }
}

/// One step of [`dot`]'s four-lane accumulation.
#[inline(always)]
fn lane_step(acc: &mut [f32; 4], a: &[f32; 4], b: &[f32; 4]) {
    acc[0] += a[0] * b[0];
    acc[1] += a[1] * b[1];
    acc[2] += a[2] * b[2];
    acc[3] += a[3] * b[3];
}

/// `y += alpha * x` (the BLAS `axpy`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline(always)]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `out[p][i] = dot(rows[p], keys[i])` for up to [`DOT_BATCH`] rows and
/// every key: one [`dot_batch`] per key, bit-identical to [`dot`]. On a
/// host with AVX2 the pass runs its AVX2 build, with the same bits.
///
/// # Panics
///
/// Panics if `rows` holds more than [`DOT_BATCH`] rows, if `out` and
/// `rows` differ in length, or if a row's length is not `keys.dim()` or an
/// output row's is not `keys.len()`.
///
/// # Example
///
/// ```
/// use longsight_tensor::vecops::{dot, dot_batch_rows};
/// use longsight_tensor::FlatVecs;
///
/// let mut keys = FlatVecs::new(2);
/// keys.push(&[1.0, 2.0]);
/// keys.push(&[3.0, -1.0]);
/// let q = [0.5, 4.0];
/// let mut out = vec![vec![0.0; 2]];
/// dot_batch_rows(&[&q], &keys, &mut out);
/// assert_eq!(out[0], [dot(&q, keys.get(0)), dot(&q, keys.get(1))]);
/// ```
pub fn dot_batch_rows(rows: &[&[f32]], keys: &FlatVecs, out: &mut [Vec<f32>]) {
    assert!(
        rows.len() <= DOT_BATCH,
        "dot_batch takes at most {DOT_BATCH} rows"
    );
    assert_eq!(rows.len(), out.len(), "dot_batch output length mismatch");
    assert!(
        out.iter().all(|o| o.len() == keys.len()),
        "dot_batch_rows output row length mismatch"
    );
    for row in rows {
        assert_eq!(row.len(), keys.dim(), "dot length mismatch");
    }
    crate::simd::dot_batch_rows(rows, keys, out);
}

/// [`dot_batch_rows`]' body, compiled once per instruction set.
#[inline(always)]
pub(crate) fn dot_batch_rows_body(rows: &[&[f32]], keys: &FlatVecs, out: &mut [Vec<f32>]) {
    let mut dots = [0.0f32; DOT_BATCH];
    let dots = &mut dots[..rows.len()];
    for (i, k) in keys.iter().enumerate() {
        dot_batch(rows, k, dots);
        for (row, &s) in out.iter_mut().zip(dots.iter()) {
            row[i] = s;
        }
    }
}

/// `out[p] += weights[p][i] · values[i]` for every value row `i` in
/// ascending order: one [`axpy`] per (value row, output), every output
/// updated by row `i` before any by row `i + 1`. Bit-identical to one
/// output at a time. On a host with AVX2 the pass runs its AVX2 build,
/// with the same bits.
///
/// # Panics
///
/// Panics if `weights` and `out` differ in length, or if a weight row's
/// length is not `values.len()` or an output's is not `values.dim()`.
///
/// # Example
///
/// ```
/// use longsight_tensor::vecops::axpy_rows;
/// use longsight_tensor::FlatVecs;
///
/// let mut values = FlatVecs::new(2);
/// values.push(&[1.0, 2.0]);
/// values.push(&[3.0, -1.0]);
/// let mut out = vec![vec![0.0; 2]];
/// axpy_rows(&[vec![0.5, 2.0]], &values, &mut out);
/// assert_eq!(out[0], [6.5, -1.0]);
/// ```
pub fn axpy_rows(weights: &[Vec<f32>], values: &FlatVecs, out: &mut [Vec<f32>]) {
    assert_eq!(weights.len(), out.len(), "axpy_rows output length mismatch");
    for (w, o) in weights.iter().zip(out.iter()) {
        assert_eq!(w.len(), values.len(), "axpy_rows weight length mismatch");
        assert_eq!(o.len(), values.dim(), "axpy length mismatch");
    }
    crate::simd::axpy_rows(weights, values, out);
}

/// [`axpy_rows`]' body, compiled once per instruction set.
#[inline(always)]
pub(crate) fn axpy_rows_body(weights: &[Vec<f32>], values: &FlatVecs, out: &mut [Vec<f32>]) {
    for (i, v) in values.iter().enumerate() {
        for (w, out) in weights.iter().zip(out.iter_mut()) {
            axpy(w[i], v, out);
        }
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn l2_norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

/// Normalizes `v` to unit L2 norm in place. Zero vectors are left unchanged.
pub fn normalize_in_place(v: &mut [f32]) {
    let n = l2_norm(v);
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

/// Cosine similarity; returns 0 when either vector is all zeros.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Numerically-stable softmax, in place.
///
/// Subtracts the maximum before exponentiating. An empty slice is a no-op.
pub fn softmax_in_place(v: &mut [f32]) {
    if v.is_empty() {
        return;
    }
    let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

/// Numerically-stable log-softmax, returning a new vector.
pub fn log_softmax(v: &[f32]) -> Vec<f32> {
    if v.is_empty() {
        return Vec::new();
    }
    let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = v.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
    v.iter().map(|x| x - max - log_sum).collect()
}

/// Index of the maximum element (first occurrence on ties); `None` for an
/// empty slice.
pub fn argmax(v: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in v.iter().enumerate() {
        match best {
            Some((_, b)) if x.total_cmp(&b).is_le() => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Root-mean-square of a slice, with epsilon guard (used by RMSNorm).
pub fn rms(v: &[f32], eps: f32) -> f32 {
    if v.is_empty() {
        return eps.sqrt();
    }
    let ms = v.iter().map(|x| x * x).sum::<f32>() / v.len() as f32;
    (ms + eps).sqrt()
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mse(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "mse length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>() / a.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{run_cases, Gen};
    use crate::prop_ensure;

    /// An entry drawn to stress the float edge cases: ±0, NaN of either
    /// sign, ±∞, a subnormal of either sign, or an ordinary value.
    fn entry(g: &mut Gen) -> f32 {
        match g.usize_in(0, 10) {
            0 => 0.0,
            1 => -0.0,
            2 => [f32::NAN, -f32::NAN][g.usize_in(0, 2)],
            3 => [f32::INFINITY, f32::NEG_INFINITY][g.usize_in(0, 2)],
            4 => [1, -1][g.usize_in(0, 2)] as f32 * f32::MIN_POSITIVE * g.f32_in(0.0, 1.0),
            _ => g.f32_in(-4.0, 4.0),
        }
    }

    /// `dot_batch` against `dot`, by bits. Two NaN results count as equal:
    /// Rust leaves the sign and payload of a NaN result unspecified, and
    /// which NaN operand an add propagates depends on the operand order
    /// the compiler picks at each inlined call site of `dot` itself.
    #[test]
    fn dot_batch_matches_dot_by_bits() {
        run_cases("dot_batch_matches_dot_by_bits", 512, |g| {
            let d = [1, 3, 4, 63, 64, 65, 127, 128, 129][g.usize_in(0, 9)];
            // Ordinary values with no, a few or only edge-case entries.
            let vec = |g: &mut Gen| -> Vec<f32> {
                let mut v = g.vec_f32(d, d + 1, -2.0, 2.0);
                match g.usize_in(0, 4) {
                    0 => {}
                    1 => v.iter_mut().for_each(|x| *x = entry(g)),
                    _ => {
                        for _ in 0..g.usize_in(1, 4) {
                            let j = g.usize_in(0, d);
                            v[j] = entry(g);
                        }
                    }
                }
                v
            };
            let b = vec(g);
            let rows: Vec<Vec<f32>> = (0..g.usize_in(0, DOT_BATCH + 1)).map(|_| vec(g)).collect();
            let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            let mut out = vec![0.5; rows.len()];
            dot_batch(&refs, &b, &mut out);
            for (p, (row, got)) in rows.iter().zip(&out).enumerate() {
                let want = dot(row, &b);
                prop_ensure!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "d={d} row {p} of {}: dot_batch {got:e} ({:#x}) != dot {want:e} ({:#x})",
                    rows.len(),
                    got.to_bits(),
                    want.to_bits()
                );
            }
            Ok(())
        });
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..131).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..131).map(|i| (i as f32).cos()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        let mut shifted: Vec<f32> = v.iter().map(|x| x + 100.0).collect();
        softmax_in_place(&mut v);
        softmax_in_place(&mut shifted);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        for (a, b) in v.iter().zip(&shifted) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extreme_values() {
        let mut v = vec![1e30, -1e30, 0.0];
        softmax_in_place(&mut v);
        assert!((v[0] - 1.0).abs() < 1e-6);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let v = vec![0.3, -1.2, 2.5, 0.0];
        let ls = log_softmax(&v);
        let mut sm = v.clone();
        softmax_in_place(&mut sm);
        for (l, s) in ls.iter().zip(&sm) {
            assert!((l.exp() - s).abs() < 1e-6);
        }
    }

    #[test]
    fn argmax_picks_first_max_of_ties_deterministically() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn cosine_of_identical_unit_vectors_is_one() {
        let v = vec![0.6, 0.8];
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-6);
        assert_eq!(cosine(&v, &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn rms_of_unit_constant_vector() {
        let v = vec![1.0; 16];
        assert!((rms(&v, 0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, vec![10.5, 21.0]);
    }

    #[test]
    fn normalize_makes_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize_in_place(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize_in_place(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }
}
