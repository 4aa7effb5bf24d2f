//! Seeded random number generation for reproducible simulation.
//!
//! The generator is an in-repo **xoshiro256\*\*** (Blackman & Vigna) seeded
//! through **splitmix64**, the pairing the reference implementation
//! recommends. Carrying the ~30 lines of generator here, instead of
//! depending on an external crate, keeps the workspace's dependency graph
//! empty (builds are fully offline) and pins every simulated bit to this
//! repository: no upstream version bump can ever shift a golden value.

/// splitmix64 step: advances `state` and returns the next output.
///
/// Used only to expand a 64-bit seed into the 256-bit xoshiro state, as the
/// xoshiro authors prescribe (it guarantees a non-zero, well-mixed state for
/// every seed, including 0).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded RNG with the Gaussian and categorical helpers the synthetic
/// weight/workload generators need.
///
/// Wrapping the raw generator in a newtype keeps its identity out of the
/// public API of downstream crates and pins the distribution implementations
/// (e.g. Box–Muller for normals) so simulation outputs are stable forever —
/// the golden-value tests below notarize the exact stream.
///
/// # Example
///
/// ```
/// use longsight_tensor::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.normal(), b.normal()); // deterministic given the seed
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256** state (never all-zero by construction).
    s: [u64; 4],
    /// Spare Gaussian deviate from the last Box–Muller draw.
    cached_normal: Option<f64>,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    #[inline]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            cached_normal: None,
        }
    }

    /// The next raw 64-bit output (xoshiro256** scrambler + state update).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Derives an independent child RNG, keyed by `stream`.
    ///
    /// Used to give each layer/head its own reproducible stream regardless of
    /// the order in which they draw.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform `f64` in `[0, 1)` (53 high bits of one raw output).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` (Lemire's widening-multiply reduction).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Standard normal deviate via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - self.uniform();
        let u2: f64 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Advances the generator exactly as `k` calls of [`SimRng::normal`]
    /// would: the raw state and the cached Box–Muller spare both end where
    /// those calls leave them.
    ///
    /// Skipped pairs cost their two raw draws only; the logarithm and the
    /// sine and cosine are computed just when an odd remainder leaves a
    /// fresh spare in the cache.
    pub fn skip_normals(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        let fresh = k - usize::from(self.cached_normal.take().is_some());
        for _ in 0..fresh / 2 {
            self.next_u64();
            self.next_u64();
        }
        if fresh % 2 == 1 {
            self.normal();
        }
    }

    /// Fills a fresh `f32` vector with i.i.d. `N(0, 1)` entries.
    pub fn normal_vec(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.normal() as f32).collect()
    }

    /// Samples an index from unnormalized non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_choice over empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_choice weights sum to zero");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn coin(&mut self, p: f64) -> bool {
        self.uniform() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from(99);
        let mut b = SimRng::seed_from(99);
        for _ in 0..32 {
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    /// Pins the raw xoshiro256** stream for seed 0 — cross-checked against
    /// the reference C implementation seeded via splitmix64(0).
    #[test]
    fn golden_raw_stream_seed_zero() {
        let mut rng = SimRng::seed_from(0);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0x99EC_5F36_CB75_F2B4,
                0xBF6E_1F78_4956_452A,
                0x1A5F_849D_4933_E6E0,
                0x6AA5_94F1_262D_2D2C,
            ]
        );
    }

    /// Pins the derived distributions. These values notarize the exact
    /// stream every synthetic corpus/weight generator consumes; they must
    /// never change (all downstream goldens depend on them).
    #[test]
    fn golden_derived_values_seed_42() {
        let mut rng = SimRng::seed_from(42);
        let u: Vec<u64> = (0..4).map(|_| rng.uniform().to_bits()).collect();
        assert_eq!(
            u,
            vec![
                GOLDEN_UNIFORM_42[0],
                GOLDEN_UNIFORM_42[1],
                GOLDEN_UNIFORM_42[2],
                GOLDEN_UNIFORM_42[3]
            ]
        );
        let mut rng = SimRng::seed_from(42);
        let n: Vec<u64> = (0..4).map(|_| rng.normal().to_bits()).collect();
        assert_eq!(
            n,
            vec![
                GOLDEN_NORMAL_42[0],
                GOLDEN_NORMAL_42[1],
                GOLDEN_NORMAL_42[2],
                GOLDEN_NORMAL_42[3]
            ]
        );
        let mut rng = SimRng::seed_from(42);
        let b: Vec<usize> = (0..4).map(|_| rng.below(1_000_003)).collect();
        assert_eq!(b, GOLDEN_BELOW_42);
    }

    /// Golden bit patterns, generated once from this implementation and
    /// frozen. `uniform`/`normal` values stored as f64 bits to be exact.
    const GOLDEN_UNIFORM_42: [u64; 4] = [
        0x3FB5_780B_2E0C_2EC0,
        0x3FD8_4136_619B_444E,
        0x3FE5_C2EA_6647_3C93,
        0x3FED_9715_A8E0_766C,
    ];
    const GOLDEN_NORMAL_42: [u64; 4] = [
        0xBFD3_68A9_7C38_507C,
        0x3FD2_7628_399A_DBDA,
        0x3FF5_8040_C37F_1762,
        0xBFE6_03E4_8643_DB8F,
    ];
    const GOLDEN_BELOW_42: [usize; 4] = [83_863, 378_981, 680_045, 924_695];

    #[test]
    fn skip_normals_leaves_the_state_of_k_normal_calls() {
        // Both cache parities at the start, k in 0..=600; afterwards the
        // raw stream and the normals (the cached spare first) agree by bits.
        crate::check::run_cases(
            "skip_normals_leaves_the_state_of_k_normal_calls",
            256,
            |g| {
                let mut skipped = SimRng::seed_from(g.rng().next_u64());
                if g.bool() {
                    skipped.normal();
                }
                let k = g.usize_in(0, 601);
                let mut called = skipped.clone();
                skipped.skip_normals(k);
                for _ in 0..k {
                    called.normal();
                }
                for step in 0..6 {
                    crate::prop_ensure_eq!(
                        skipped.normal().to_bits(),
                        called.normal().to_bits(),
                        "normal {step} after skipping {k}"
                    );
                    if step % 3 == 2 {
                        crate::prop_ensure_eq!(skipped.next_u64(), called.next_u64());
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn forks_are_independent_streams() {
        let mut root = SimRng::seed_from(1);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        // Not a statistical test, just "they diverge".
        let a: Vec<u64> = (0..8).map(|_| c1.normal().to_bits()).collect();
        let b: Vec<u64> = (0..8).map(|_| c2.normal().to_bits()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::seed_from(1234);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn uniform_is_in_unit_interval_and_covers_it() {
        let mut rng = SimRng::seed_from(8);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = SimRng::seed_from(5);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[rng.weighted_choice(&[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 2, "counts {counts:?}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SimRng::seed_from(6);
        for _ in 0..100 {
            assert!(rng.below(7) < 7);
        }
        // Lemire reduction is exhaustive over small ranges.
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
