//! Iterative Quantization (ITQ) — paper §5.4, following Gong & Lazebnik.
//!
//! SCF assumes sign bits are informative, i.e. vectors spread around the
//! origin. Real K/Q representations are strongly clustered with a large DC
//! component, so raw sign bits waste dimensions. ITQ learns an orthogonal
//! rotation `R` minimizing the binary quantization error `‖sign(X·R) − X·R‖²`
//! by alternating:
//!
//! 1. `B = sign(X·R)` (binary codes for fixed rotation),
//! 2. `R = U·Vᵀ` from the SVD of `Xᵀ·B` (orthogonal Procrustes).
//!
//! One rotation is trained per KV head on a short (≈1K token) trace of
//! post-RoPE keys and queries; at inference it is applied to queries and keys
//! *after* positional embedding, because RoPE breaks the invariance that
//! would allow fusing it into the projection weights. Crucially, applying
//! the same rotation to both Q and K leaves dot products unchanged — only
//! the sign bits (and therefore SCF) are affected.

use longsight_tensor::{linalg, Matrix, SignArena, SignBits, SimRng};

/// Keys that share one pass over a row of `R` in
/// [`ItqRotation::rotate_and_pack`].
pub const ROTATE_BLOCK_KEYS: usize = 8;

/// Keys per parallel chunk of [`ItqRotation::rotate_and_pack`]; runs of at
/// most this many keys are packed serially on the calling thread.
pub const ROTATE_CHUNK_KEYS: usize = 256;

/// A learned orthogonal rotation for one KV head.
#[derive(Debug, Clone)]
pub struct ItqRotation {
    r: Matrix,
}

/// Training hyperparameters for [`ItqRotation::train`].
#[derive(Debug, Clone)]
pub struct ItqConfig {
    /// Number of alternating iterations (50 in the original paper's setup).
    pub iterations: usize,
    /// RNG seed for the initial random rotation.
    pub seed: u64,
}

impl Default for ItqConfig {
    fn default() -> Self {
        Self {
            iterations: 40,
            seed: 0x17_0517,
        }
    }
}

impl ItqRotation {
    /// The identity rotation (ITQ disabled).
    pub fn identity(dim: usize) -> Self {
        Self {
            r: Matrix::identity(dim),
        }
    }

    /// Trains a rotation on `data` (rows are training vectors).
    ///
    /// Following Gong & Lazebnik, the training data is **mean-centered**
    /// before the alternating minimization: on raw (uncentered) data the
    /// objective is minimized by aligning the data mean with a binary corner,
    /// which *concentrates* sign bits instead of balancing them. The learned
    /// rotation is then applied *without* centering at inference (a pure
    /// matrix multiply, preserving Q·K dot products) — the centered-trained
    /// rotation spreads the variance (and the DC lands incoherently across
    /// dimensions), which is exactly the sign-balance repair the paper
    /// describes (§5.4).
    ///
    /// # Panics
    ///
    /// Panics if `data` has no rows.
    pub fn train(data: &Matrix, cfg: &ItqConfig) -> Self {
        assert!(data.rows() > 0, "ITQ needs at least one training vector");
        let d = data.cols();
        let means = data.col_means();
        let centered = Matrix::from_fn(data.rows(), d, |r, c| data.get(r, c) - means[c]);
        let data = &centered;
        let mut rng = SimRng::seed_from(cfg.seed);
        let mut r = linalg::random_orthogonal(d, &mut rng);
        for _ in 0..cfg.iterations {
            // B = sign(X R), entries in {-1, +1}.
            let xr = data.matmul(&r);
            let b = Matrix::from_fn(
                xr.rows(),
                d,
                |i, j| {
                    if xr.get(i, j) < 0.0 {
                        -1.0
                    } else {
                        1.0
                    }
                },
            );
            // Procrustes: R = U Vᵀ of M = Xᵀ B, read straight from X.
            let m = data.transpose_matmul(&b);
            r = linalg::procrustes_rotation(&m);
        }
        Self { r }
    }

    /// Dimensionality the rotation operates on.
    pub fn dim(&self) -> usize {
        self.r.rows()
    }

    /// The rotation matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.r
    }

    /// Applies the rotation to a vector (`v · R`).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn apply(&self, v: &[f32]) -> Vec<f32> {
        self.r.vecmat(v)
    }

    /// Rotates and extracts sign bits in one step (the query side; bits are
    /// identical to packing [`ItqRotation::apply`]'s output).
    pub fn signs(&self, v: &[f32]) -> SignBits {
        let mut one = SignArena::new(self.dim());
        self.signs_into(v, &mut one);
        one.get(0)
    }

    /// Rotates `v` and packs its sign bits straight onto the tail of a
    /// [`SignArena`]: the one-key case of [`ItqRotation::rotate_and_pack`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim` or the arena's dimension differs.
    pub fn signs_into(&self, v: &[f32], arena: &mut SignArena) {
        assert_eq!(v.len(), self.dim(), "sign vector dimension mismatch");
        self.rotate_and_pack(v, arena);
    }

    /// Rotates every key of `keys` (key-major, `dim` floats per key) and
    /// appends their sign bits to `arena` in key order — the append path of
    /// the packed sign store.
    ///
    /// Each key's rotation is bit-identical to [`ItqRotation::apply`]: every
    /// output element accumulates `x_r · R[r][j]` over `r` in ascending
    /// order and skips `x_r == 0.0`, so `-0.0` and NaN inputs pack exactly
    /// as the per-key product does. [`ROTATE_BLOCK_KEYS`] keys share each
    /// pass over a row of `R`, and runs longer than [`ROTATE_CHUNK_KEYS`]
    /// are split into chunks on the deterministic worker pool, each packed
    /// into its own arena and appended in index order. No rotated `f32` key
    /// outlives its block.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len()` is not a multiple of `dim` or the arena's
    /// dimension differs.
    pub fn rotate_and_pack(&self, keys: &[f32], arena: &mut SignArena) {
        let d = self.dim();
        assert_eq!(arena.dim(), d, "sign vector dimension mismatch");
        assert_eq!(keys.len() % d, 0, "key slice is not whole keys");
        let n = keys.len() / d;
        if n <= ROTATE_CHUNK_KEYS {
            self.pack_chunk(keys, arena);
            return;
        }
        let chunk = ROTATE_CHUNK_KEYS * d;
        let parts = longsight_exec::map_range(n.div_ceil(ROTATE_CHUNK_KEYS), |c| {
            let mut part = SignArena::new(d);
            self.pack_chunk(
                &keys[c * chunk..((c + 1) * chunk).min(keys.len())],
                &mut part,
            );
            part
        });
        for part in &parts {
            arena.append(part);
        }
    }

    /// The serial kernel behind [`ItqRotation::rotate_and_pack`].
    fn pack_chunk(&self, keys: &[f32], arena: &mut SignArena) {
        let d = self.dim();
        let block = ROTATE_BLOCK_KEYS * d;
        let mut acc = vec![0.0f32; block.min(keys.len())];
        for keys in keys.chunks(block) {
            let acc = &mut acc[..keys.len()];
            acc.fill(0.0);
            for (r, row) in self.r.iter_rows().enumerate() {
                for (key, out) in keys.chunks_exact(d).zip(acc.chunks_exact_mut(d)) {
                    let x = key[r];
                    if x == 0.0 {
                        continue;
                    }
                    for (o, &m) in out.iter_mut().zip(row) {
                        *o += x * m;
                    }
                }
            }
            for out in acc.chunks_exact(d) {
                arena.push_signs_of(out);
            }
        }
    }

    /// Mean binary quantization error `‖sign(XR) − XR‖² / n` over `data` —
    /// the objective ITQ minimizes. Exposed for diagnostics and tests.
    pub fn quantization_error(&self, data: &Matrix) -> f64 {
        let xr = data.matmul(&self.r);
        let mut err = 0.0f64;
        for i in 0..xr.rows() {
            for j in 0..xr.cols() {
                let v = xr.get(i, j);
                let b = if v < 0.0 { -1.0 } else { 1.0 };
                err += ((v - b) as f64).powi(2);
            }
        }
        err / xr.rows() as f64
    }
}

/// Per-`(layer, kv_head)` rotations.
#[derive(Debug, Clone)]
pub struct RotationTable {
    kv_heads: usize,
    rotations: Vec<ItqRotation>,
}

impl RotationTable {
    /// Builds a table of identity rotations (ITQ off).
    pub fn identity(layers: usize, kv_heads: usize, dim: usize) -> Self {
        Self {
            kv_heads,
            rotations: vec![ItqRotation::identity(dim); layers * kv_heads],
        }
    }

    /// Builds a table from a function producing each head's rotation.
    pub fn from_fn(
        layers: usize,
        kv_heads: usize,
        mut f: impl FnMut(usize, usize) -> ItqRotation,
    ) -> Self {
        let mut rotations = Vec::with_capacity(layers * kv_heads);
        for l in 0..layers {
            for h in 0..kv_heads {
                rotations.push(f(l, h));
            }
        }
        Self {
            kv_heads,
            rotations,
        }
    }

    /// The rotation for `(layer, kv_head)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, layer: usize, kv_head: usize) -> &ItqRotation {
        &self.rotations[layer * self.kv_heads + kv_head]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_tensor::vecops;

    /// Clustered anisotropic data: a DC offset plus a Gaussian mixture.
    fn clustered_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = SimRng::seed_from(seed);
        let dc: Vec<f32> = (0..d).map(|i| if i < d / 4 { 2.0 } else { 0.0 }).collect();
        let centers: Vec<Vec<f32>> = (0..8).map(|_| rng.normal_vec(d)).collect();
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let c = &centers[rng.below(centers.len())];
            let row: Vec<f32> = (0..d)
                .map(|j| dc[j] + c[j] + 0.5 * rng.normal() as f32)
                .collect();
            rows.push(row);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn rotation_is_orthogonal() {
        let data = clustered_data(256, 16, 1);
        let rot = ItqRotation::train(&data, &ItqConfig::default());
        assert!(linalg::orthogonality_error(rot.matrix()) < 1e-3);
    }

    #[test]
    fn rotation_preserves_dot_products() {
        let data = clustered_data(128, 16, 2);
        let rot = ItqRotation::train(&data, &ItqConfig::default());
        let mut rng = SimRng::seed_from(3);
        let q = rng.normal_vec(16);
        let k = rng.normal_vec(16);
        let before = vecops::dot(&q, &k);
        let after = vecops::dot(&rot.apply(&q), &rot.apply(&k));
        assert!((before - after).abs() < 1e-3);
    }

    #[test]
    fn training_reduces_quantization_error() {
        let data = clustered_data(512, 16, 4);
        let identity = ItqRotation::identity(16);
        let trained = ItqRotation::train(&data, &ItqConfig::default());
        let before = identity.quantization_error(&data);
        let after = trained.quantization_error(&data);
        assert!(
            after < before,
            "ITQ should reduce quantization error: {before} -> {after}"
        );
    }

    #[test]
    fn itq_balances_sign_bits_on_dc_shifted_data() {
        // All vectors share a large positive offset in the first quarter of
        // dims: raw sign bits there are constant (useless). ITQ trains on
        // centered data, so the balance it promises is of the centered,
        // rotated codes — measure exactly that pipeline. (Rotating the
        // uncentered data keeps the DC component and guarantees nothing.)
        let data = clustered_data(512, 16, 5);
        let imbalance = |m: &Matrix| -> f64 {
            let mut worst: f64 = 0.0;
            for j in 0..m.cols() {
                let neg = (0..m.rows()).filter(|&i| m.get(i, j) < 0.0).count();
                let frac = neg as f64 / m.rows() as f64;
                worst = worst.max((frac - 0.5).abs());
            }
            worst
        };
        let raw = imbalance(&data);
        assert!(
            raw > 0.49,
            "test premise: raw data has a dead sign dimension"
        );
        let rot = ItqRotation::train(&data, &ItqConfig::default());
        let means = data.col_means();
        let centered = Matrix::from_fn(data.rows(), data.cols(), |r, c| data.get(r, c) - means[c]);
        let fixed = imbalance(&centered.matmul(rot.matrix()));
        assert!(
            fixed < 0.2,
            "centered+rotated codes must have balanced signs ({raw} -> {fixed})"
        );
    }

    #[test]
    fn identity_rotation_is_noop() {
        let rot = ItqRotation::identity(8);
        let v = vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0];
        assert_eq!(rot.apply(&v), v);
    }

    #[test]
    fn rotation_table_indexing() {
        let t = RotationTable::from_fn(2, 3, |l, h| {
            if (l, h) == (1, 2) {
                ItqRotation::identity(4)
            } else {
                ItqRotation::identity(8)
            }
        });
        assert_eq!(t.get(1, 2).dim(), 4);
        assert_eq!(t.get(0, 0).dim(), 8);
    }
}
