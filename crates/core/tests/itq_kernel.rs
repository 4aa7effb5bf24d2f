//! Bit-identity of the batch rotate-and-pack kernel against the per-key
//! path it replaced, on the in-repo [`check`](longsight_tensor::check)
//! runner (replay a failure with `LONGSIGHT_PROP_SEED`).
//!
//! The oracle rotates one key at a time with [`ItqRotation::apply`] (the
//! plain `v · R` vector–matrix product) and packs it with
//! [`SignArena::push_signs_of`]. The kernel must produce the same arena at
//! every worker-thread count. So must [`ItqRotation::train`], which splits
//! its two products into row and column blocks, against the whole-matrix
//! loop it replaced ([`whole_product_train`]). This file is its own test
//! binary because it sets the process-wide thread count.

use longsight_core::{ItqConfig, ItqRotation, ROTATE_BLOCK_KEYS, ROTATE_CHUNK_KEYS};
use longsight_tensor::check::{run_cases, run_seed, Gen};
use longsight_tensor::{linalg, prop_ensure_eq, FlatVecs, Matrix, SignArena, SignBits, SimRng};
use std::sync::Mutex;

/// Serializes the tests of this binary around the process-wide thread count.
static THREADS: Mutex<()> = Mutex::new(());

const DIMS: [usize; 6] = [63, 64, 65, 127, 128, 129];

/// A trained rotation, or (one time in four) the identity, whose many
/// exact zeros exercise the kernel's products with `0.0` entries of `R`.
fn rotation(g: &mut Gen, d: usize) -> ItqRotation {
    if g.usize_in(0, 4) == 0 {
        return ItqRotation::identity(d);
    }
    let data = Matrix::random_gaussian(2 * d, d, g.rng());
    let seed = g.u64_in(0, 1 << 20);
    ItqRotation::train(
        &data,
        &ItqConfig {
            iterations: 1,
            seed,
        },
    )
}

/// `n` keys for `rot`, with roughly one entry in ten replaced by `0.0`,
/// `-0.0` or NaN (the inputs whose sign handling and zero-skip differ).
/// Half the keys are columns of `R`: rotated, they give one entry near 1
/// and the rest rounding noise around zero, whose signs flip if the
/// kernel changes the order it accumulates in. The rest are Gaussian.
fn keys(g: &mut Gen, n: usize, rot: &ItqRotation) -> FlatVecs {
    let d = rot.dim();
    let mut out = FlatVecs::with_capacity(d, n);
    let mut key = vec![0.0f32; d];
    for _ in 0..n {
        let column = g.bool().then(|| g.usize_in(0, d));
        for (r, x) in key.iter_mut().enumerate() {
            *x = match (g.usize_in(0, 30), column) {
                (0, _) => 0.0,
                (1, _) => -0.0,
                (2, _) => f32::NAN,
                (_, Some(c)) => rot.matrix().get(r, c),
                (_, None) => g.rng().normal() as f32,
            };
        }
        out.push(&key);
    }
    out
}

/// A key count that is usually not a multiple of the block or chunk size.
fn key_count(g: &mut Gen) -> usize {
    match g.usize_in(0, 3) {
        0 => g.usize_in(0, 2 * ROTATE_BLOCK_KEYS + 1),
        1 => g.usize_in(0, 2 * ROTATE_CHUNK_KEYS + 2),
        _ => {
            let chunks = g.usize_in(2, 5);
            chunks * ROTATE_CHUNK_KEYS + g.usize_in(0, ROTATE_CHUNK_KEYS)
        }
    }
}

/// The per-key oracle appended onto a copy of `base`.
fn per_key(rot: &ItqRotation, keys: &FlatVecs, base: &SignArena) -> SignArena {
    let mut arena = base.clone();
    for k in keys.iter() {
        arena.push_signs_of(&rot.apply(k));
    }
    arena
}

fn thread_counts() -> [usize; 3] {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    [1, 2, hw]
}

/// The kernel appended onto a copy of `base` (so appends land after
/// existing keys, as in the hybrid backend's window sync) equals the
/// oracle at 1, 2 and hardware thread counts; so do the one-key forms.
fn check_kernel(g: &mut Gen, d: usize, n: usize) -> Result<(), String> {
    let rot = rotation(g, d);
    let prefix = if g.bool() { 0 } else { g.usize_in(1, 5) };
    let mut base = SignArena::new(d);
    for k in keys(g, prefix, &rot).iter() {
        base.push_signs_of(&rot.apply(k));
    }
    let batch = keys(g, n, &rot);
    let want = per_key(&rot, &batch, &base);
    let _serial = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    for threads in thread_counts() {
        longsight_exec::set_thread_count(threads);
        let mut got = base.clone();
        rot.rotate_and_pack(batch.slice(0..n), &mut got);
        longsight_exec::set_thread_count(0);
        prop_ensure_eq!(got, want);
    }
    for (i, k) in batch.iter().enumerate().take(3) {
        let mut one = SignArena::new(d);
        rot.signs_into(k, &mut one);
        prop_ensure_eq!(one.get(0), want.get(prefix + i));
        prop_ensure_eq!(rot.signs(k), SignBits::from_slice(&rot.apply(k)));
    }
    Ok(())
}

#[test]
fn rotate_and_pack_matches_per_key_apply() {
    run_cases("rotate_and_pack_matches_per_key_apply", 24, |g| {
        let d = DIMS[g.usize_in(0, DIMS.len())];
        let n = key_count(g);
        check_kernel(g, d, n)
    });
}

/// Every dimension at the counts around the block and chunk boundaries,
/// each pinned once.
#[test]
fn rotate_and_pack_matches_per_key_at_boundaries() {
    let counts = [
        1,
        ROTATE_BLOCK_KEYS - 1,
        ROTATE_BLOCK_KEYS + 1,
        ROTATE_CHUNK_KEYS + 1,
        2 * ROTATE_CHUNK_KEYS + 3,
    ];
    for (i, &d) in DIMS.iter().enumerate() {
        for (j, &n) in counts.iter().enumerate() {
            let seed = (i * counts.len() + j) as u64;
            run_seed("rotate_and_pack_matches_per_key_at_boundaries", seed, |g| {
                check_kernel(g, d, n)
            });
        }
    }
}

/// ITQ training as one whole-matrix `X·R` and one `Xᵀ·B` per iteration:
/// the loop `ItqRotation::train` replaced, kept verbatim as its oracle.
fn whole_product_train(data: &Matrix, cfg: &ItqConfig) -> Matrix {
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
    r
}

/// Training data of `n` rows around an offset. About one column in six
/// is constant, so the centered data holds exact zeros, which the
/// products skip.
fn training_data(g: &mut Gen, n: usize, d: usize) -> Matrix {
    let offset = g.f32_in(-2.0, 2.0);
    let constant: Vec<bool> = (0..d).map(|_| g.usize_in(0, 6) == 0).collect();
    Matrix::from_fn(n, d, |_, c| {
        if constant[c] {
            1.5
        } else {
            offset + g.rng().normal() as f32
        }
    })
}

/// Row counts on both sides of the 128-row blocks, column counts on both
/// sides of the 32-column blocks.
#[test]
fn train_matches_the_whole_product_loop() {
    run_cases("train_matches_the_whole_product_loop", 24, |g| {
        let n = [1, 3, 127, 128, 129, 300][g.usize_in(0, 6)];
        let d = [2, 6, 31, 32, 33, 64, 70][g.usize_in(0, 7)];
        let data = training_data(g, n, d);
        let cfg = ItqConfig {
            iterations: g.usize_in(0, 4),
            seed: g.u64_in(0, 1 << 20),
        };
        let want: Vec<u32> = whole_product_train(&data, &cfg)
            .data()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let _serial = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        for threads in thread_counts() {
            longsight_exec::set_thread_count(threads);
            let got = ItqRotation::train(&data, &cfg);
            longsight_exec::set_thread_count(0);
            let got: Vec<u32> = got.matrix().data().iter().map(|x| x.to_bits()).collect();
            prop_ensure_eq!(got, want, "n {n}, d {d}, {threads} threads");
        }
        Ok(())
    });
}
