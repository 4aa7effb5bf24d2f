//! Algorithmic filtering baselines (paper §3.1, §5.1).
//!
//! * [`blockwise_surviving_indices`] — block-granular selection as in NSA /
//!   DynaX: a whole 128-key block is kept or dropped. The paper argues
//!   per-token filtering "improves quality" because block granularity caps
//!   achievable sparsity (§3.1: "it imposes a limitation on the achievable
//!   overall sparsity due to its coarse granularity").
//! * [`LshFilter`] — Reformer-style locality-sensitive hashing: random
//!   hyperplane signatures with multi-table lookup. Keys are candidates when
//!   they collide with the query in at least one table. Included as the
//!   software-sparse-attention comparator the paper discusses.

use crate::scf::PFU_BLOCK_KEYS;
use longsight_tensor::{vecops, Matrix, SignBits, SimRng};

/// Block-granular SCF: a block survives when the *best* key in it passes the
/// threshold; all of its keys are then fetched and scored.
///
/// Returns the indices of every key in every surviving block.
pub fn blockwise_surviving_indices(
    query: &SignBits,
    keys: &[SignBits],
    threshold: u32,
    block: usize,
) -> Vec<usize> {
    assert!(block > 0, "block size must be positive");
    let mut out = Vec::new();
    for (b, chunk) in keys.chunks(block).enumerate() {
        let pass = chunk.iter().any(|k| query.concordance(k) >= threshold);
        if pass {
            let start = b * block;
            out.extend(start..start + chunk.len());
        }
    }
    out
}

/// Cost/quality comparison point between per-token and blockwise filtering
/// at the same threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GranularityComparison {
    /// Keys fetched by per-token filtering.
    pub per_token_fetched: usize,
    /// Keys fetched by block-granular filtering.
    pub blockwise_fetched: usize,
}

impl GranularityComparison {
    /// How many times more keys blockwise filtering fetches.
    pub fn blockwise_overfetch(&self) -> f64 {
        if self.per_token_fetched == 0 {
            return if self.blockwise_fetched == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.blockwise_fetched as f64 / self.per_token_fetched as f64
    }
}

/// Evaluates both granularities on one query over a key-sign stream.
pub fn compare_granularity(
    query: &SignBits,
    keys: &[SignBits],
    threshold: u32,
) -> GranularityComparison {
    let per_token = crate::scf::surviving_indices(query, keys, threshold).len();
    let blockwise = blockwise_surviving_indices(query, keys, threshold, PFU_BLOCK_KEYS).len();
    GranularityComparison {
        per_token_fetched: per_token,
        blockwise_fetched: blockwise,
    }
}

/// Reformer-style LSH candidate filter: `tables` independent signatures of
/// `bits` random hyperplanes each; a key is a candidate when any table's
/// signature matches the query's exactly.
#[derive(Debug, Clone)]
pub struct LshFilter {
    /// Hyperplanes per table: `tables × bits` rows of dimension `dim`.
    planes: Vec<Matrix>,
    bits: usize,
}

impl LshFilter {
    /// Builds a filter with `tables` hash tables of `bits` hyperplanes over
    /// dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `bits > 64`.
    pub fn new(dim: usize, tables: usize, bits: usize, rng: &mut SimRng) -> Self {
        assert!(
            dim > 0 && tables > 0 && bits > 0,
            "LSH parameters must be positive"
        );
        assert!(bits <= 64, "signatures are stored in u64");
        let planes = (0..tables)
            .map(|_| Matrix::random_gaussian(bits, dim, rng))
            .collect();
        Self { planes, bits }
    }

    /// Number of hash tables.
    pub fn tables(&self) -> usize {
        self.planes.len()
    }

    /// Signature bits per table.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The per-table signatures of a vector.
    pub fn signatures(&self, v: &[f32]) -> Vec<u64> {
        self.planes
            .iter()
            .map(|p| {
                let mut sig = 0u64;
                for (i, row) in p.iter_rows().enumerate() {
                    if vecops::dot(row, v) >= 0.0 {
                        sig |= 1 << i;
                    }
                }
                sig
            })
            .collect()
    }

    /// Indices of keys colliding with the query in at least one table.
    ///
    /// `key_sigs[i]` must be the output of [`Self::signatures`] for key `i`.
    pub fn candidates(&self, query_sigs: &[u64], key_sigs: &[Vec<u64>]) -> Vec<usize> {
        key_sigs
            .iter()
            .enumerate()
            .filter(|(_, ks)| ks.iter().zip(query_sigs).any(|(a, b)| a == b))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_tensor::top_k_indices;

    fn clustered_keys(n: usize, dim: usize, rng: &mut SimRng) -> Vec<Vec<f32>> {
        let centers: Vec<Vec<f32>> = (0..8).map(|_| rng.normal_vec(dim)).collect();
        (0..n)
            .map(|i| {
                let c = &centers[i % centers.len()];
                c.iter().map(|x| x + 0.4 * rng.normal() as f32).collect()
            })
            .collect()
    }

    #[test]
    fn blockwise_is_a_superset_of_per_token() {
        let mut rng = SimRng::seed_from(1);
        let keys: Vec<Vec<f32>> = (0..1000).map(|_| rng.normal_vec(32)).collect();
        let signs: Vec<SignBits> = keys.iter().map(|k| SignBits::from_slice(k)).collect();
        let q = SignBits::from_slice(&rng.normal_vec(32));
        let per_token = crate::scf::surviving_indices(&q, &signs, 20);
        let blockwise = blockwise_surviving_indices(&q, &signs, 20, 128);
        for i in &per_token {
            assert!(
                blockwise.contains(i),
                "blockwise must contain every per-token survivor"
            );
        }
    }

    #[test]
    fn blockwise_overfetches_substantially_at_high_thresholds() {
        // The paper's §3.1 point: block granularity caps sparsity. At a
        // threshold where per-token filtering keeps a few percent, blockwise
        // keeps whole 128-key blocks.
        let mut rng = SimRng::seed_from(2);
        let keys: Vec<Vec<f32>> = (0..4096).map(|_| rng.normal_vec(32)).collect();
        let signs: Vec<SignBits> = keys.iter().map(|k| SignBits::from_slice(k)).collect();
        let q = SignBits::from_slice(&rng.normal_vec(32));
        let cmp = compare_granularity(&q, &signs, 22);
        assert!(
            cmp.blockwise_overfetch() > 3.0,
            "expected large overfetch, got {:.2} ({} vs {})",
            cmp.blockwise_overfetch(),
            cmp.blockwise_fetched,
            cmp.per_token_fetched
        );
    }

    #[test]
    fn lsh_signatures_are_deterministic_and_similarity_sensitive() {
        let mut rng = SimRng::seed_from(3);
        let f = LshFilter::new(32, 4, 10, &mut rng);
        let v = rng.normal_vec(32);
        assert_eq!(f.signatures(&v), f.signatures(&v));
        // A near-duplicate shares most signature bits; an unrelated vector
        // collides less often. Statistical over several probes.
        let mut near_coll = 0;
        let mut far_coll = 0;
        for s in 0..40 {
            let mut rng2 = SimRng::seed_from(100 + s);
            let base = rng2.normal_vec(32);
            let near: Vec<f32> = base
                .iter()
                .map(|x| x + 0.05 * rng2.normal() as f32)
                .collect();
            let far = rng2.normal_vec(32);
            let bs = f.signatures(&base);
            if f.candidates(&bs, &[f.signatures(&near)]).len() == 1 {
                near_coll += 1;
            }
            if f.candidates(&bs, &[f.signatures(&far)]).len() == 1 {
                far_coll += 1;
            }
        }
        assert!(
            near_coll > far_coll,
            "near vectors must collide more often ({near_coll} vs {far_coll})"
        );
    }

    #[test]
    fn scf_with_matched_cost_beats_lsh_recall_on_clustered_keys() {
        // The comparison the paper implies: at similar candidate-set sizes,
        // SCF (with ITQ geometry assumptions met) retains more of the true
        // top-k than multi-table LSH on clustered keys.
        let mut rng = SimRng::seed_from(4);
        let dim = 64;
        let keys = clustered_keys(2048, dim, &mut rng);
        let signs: Vec<SignBits> = keys.iter().map(|k| SignBits::from_slice(k)).collect();
        let lsh = LshFilter::new(dim, 6, 9, &mut rng);
        let key_sigs: Vec<Vec<u64>> = keys.iter().map(|k| lsh.signatures(k)).collect();

        let mut scf_recall = 0.0;
        let mut lsh_recall = 0.0;
        let probes = 12;
        for p in 0..probes {
            // Query near one of the keys (a genuine neighbor query).
            let target = &keys[(p * 97) % keys.len()];
            let q: Vec<f32> = target
                .iter()
                .map(|x| x + 0.3 * rng.normal() as f32)
                .collect();
            let scores: Vec<f32> = keys.iter().map(|k| vecops::dot(&q, k)).collect();
            let truth = top_k_indices(&scores, 16);

            let qs = SignBits::from_slice(&q);
            // Pick the SCF threshold whose candidate count is closest to
            // LSH's (cost-matched comparison).
            let lsh_cands = lsh.candidates(&lsh.signatures(&q), &key_sigs);
            let mut scf_cands = Vec::new();
            let mut best_diff = usize::MAX;
            for th in 0..=dim as u32 {
                let c = crate::scf::surviving_indices(&qs, &signs, th);
                let diff = c.len().abs_diff(lsh_cands.len());
                if diff < best_diff {
                    best_diff = diff;
                    scf_cands = c;
                }
            }
            scf_recall += truth.iter().filter(|i| scf_cands.contains(i)).count() as f64;
            lsh_recall += truth.iter().filter(|i| lsh_cands.contains(i)).count() as f64;
        }
        assert!(
            scf_recall >= lsh_recall,
            "cost-matched SCF should not trail LSH: {scf_recall} vs {lsh_recall}"
        );
    }
}
