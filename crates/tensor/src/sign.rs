//! Bit-packed sign vectors for Sign-Concordance Filtering.
//!
//! LongSight's PFUs operate on one-bit quantized keys: only the sign bit of
//! each dimension is stored. [`SignBits`] packs those sign bits 64 per word
//! so that the concordance count — `D − popcount(SQ ⊕ SK)` — is a handful of
//! XOR and popcount instructions, exactly the operation the in-DRAM filter
//! units implement.

use crate::Matrix;

/// Keys that share one pass over a row of the rotation in
/// [`SignArena::push_rotated`].
pub const ROTATE_BLOCK_KEYS: usize = 8;

/// Packs the signs of up to 64 values into one word: bit `i` is set when
/// `lane[i] < 0.0`. Branch-free, so random signs cost no mispredictions.
fn pack_word(lane: &[f32]) -> u64 {
    lane.iter()
        .enumerate()
        .fold(0, |w, (i, &x)| w | u64::from(x < 0.0) << i)
}

/// A bit-packed vector of sign bits.
///
/// Bit `i` is **1** when dimension `i` of the source vector is negative
/// (`x < 0.0`), **0** otherwise. Zero is treated as non-negative, matching the
/// paper's "sign bit of the full-precision representation" (IEEE-754 `+0.0`
/// has sign bit 0).
///
/// # Example
///
/// ```
/// use longsight_tensor::SignBits;
///
/// let q = SignBits::from_slice(&[1.0, -2.0, 3.0, -4.0]);
/// let k = SignBits::from_slice(&[1.0, -2.0, -3.0, 4.0]);
/// assert_eq!(q.concordance(&k), 2); // dims 0 and 1 agree
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignBits {
    dim: usize,
    words: Vec<u64>,
}

impl SignBits {
    /// Extracts the packed sign bits of `v`.
    ///
    /// `-0.0` and NaN compare as non-negative here: the bit is set only when
    /// `x < 0.0`, so packing is a pure function of that comparison.
    pub fn from_slice(v: &[f32]) -> Self {
        Self {
            dim: v.len(),
            words: v.chunks(64).map(pack_word).collect(),
        }
    }

    /// Dimensionality of the source vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed words (little-bit-endian within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns the sign bit of dimension `i` (`true` = negative).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.dim, "sign bit index out of bounds");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Hamming distance: the number of dimensions whose signs **differ**.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn hamming(&self, other: &SignBits) -> u32 {
        assert_eq!(self.dim, other.dim, "sign vector dimension mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Sign concordance: the number of dimensions whose signs **match**,
    /// i.e. `D − hamming`. This is the quantity SCF thresholds.
    pub fn concordance(&self, other: &SignBits) -> u32 {
        self.dim as u32 - self.hamming(other)
    }

    /// Storage footprint in bytes when laid out in DRAM (one bit per
    /// dimension, rounded up to whole bytes). Used by the DReX capacity model.
    pub fn storage_bytes(dim: usize) -> usize {
        dim.div_ceil(8)
    }
}

/// A contiguous, append-only arena of bit-packed sign vectors — the
/// functional mirror of one `(layer, kv_head)` region of Key Sign Objects
/// laid out in DReX DRAM.
///
/// Where a `Vec<SignBits>` scatters every key's lanes behind its own heap
/// allocation, the arena stores all keys **key-major** in a single `u64`
/// buffer: key `i` owns words `[i·W, (i+1)·W)` with `W = ⌈dim/64⌉`. A block
/// kernel (`filter_block_packed` in `longsight-core`) can therefore stream
/// the lanes of 128 consecutive keys with no pointer chasing — the honest
/// model of the PFU's word-wide XOR/popcount running at internal DRAM
/// bandwidth (104.9 TB/s in the paper, §7.4).
///
/// The arena is append-only: keys enter when they leave the dense window
/// (the functional flush of Key Sign Objects to the device) and are only
/// discarded wholesale via [`SignArena::clear`].
///
/// # Example
///
/// ```
/// use longsight_tensor::{SignArena, SignBits};
///
/// let mut arena = SignArena::new(4);
/// arena.push_signs_of(&[1.0, -2.0, 3.0, -4.0]);
/// arena.push_signs_of(&[-1.0, 2.0, -3.0, 4.0]);
/// let q = SignBits::from_slice(&[1.0, -2.0, 3.0, -4.0]);
/// assert_eq!(arena.concordance(0, &q), 4);
/// assert_eq!(arena.concordance(1, &q), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignArena {
    dim: usize,
    words_per_key: usize,
    len: usize,
    words: Vec<u64>,
}

impl SignArena {
    /// Creates an empty arena for sign vectors of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            words_per_key: dim.div_ceil(64),
            len: 0,
            words: Vec::new(),
        }
    }

    /// Dimensionality of every stored sign vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `u64` lanes per key (`⌈dim/64⌉`).
    pub fn words_per_key(&self) -> usize {
        self.words_per_key
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards every key (capacity is retained for reuse).
    pub fn clear(&mut self) {
        self.len = 0;
        self.words.clear();
    }

    /// Packs the sign bits of `v` directly into the arena tail — no
    /// intermediate [`SignBits`] allocation. Bit semantics match
    /// [`SignBits::from_slice`]: the bit is set only when `x < 0.0`, so
    /// `-0.0` and NaN pack as non-negative.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    #[inline]
    pub fn push_signs_of(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "sign vector dimension mismatch");
        self.words.extend(v.chunks(64).map(pack_word));
        self.len += 1;
    }

    /// Rotates every key of `keys` (key-major, `dim` floats per key) by `r`
    /// and appends the sign bits of each `key · r` in key order — the
    /// serial kernel of the ITQ append path.
    ///
    /// Each key's rotation is bit-identical to [`Matrix::vecmat`]: every
    /// output element accumulates `x_r · r[r][j]` over `r` in ascending
    /// order and skips `x_r == 0.0`, so `-0.0` and NaN inputs pack exactly
    /// as the per-key product does. [`ROTATE_BLOCK_KEYS`] keys share each
    /// pass over a row of `r`, and no rotated `f32` key outlives its block.
    /// On a host with AVX2 the kernel runs its AVX2 build, with the same
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not `dim × dim` or `keys.len()` is not a multiple
    /// of `dim`.
    pub fn push_rotated(&mut self, r: &Matrix, keys: &[f32]) {
        assert_eq!(
            (r.rows(), r.cols()),
            (self.dim, self.dim),
            "sign vector dimension mismatch"
        );
        assert_eq!(keys.len() % self.dim, 0, "key slice is not whole keys");
        crate::simd::push_rotated(self, r, keys);
    }

    /// Appends an already-packed sign vector.
    ///
    /// # Panics
    ///
    /// Panics if `bits.dim() != dim`.
    pub fn push_bits(&mut self, bits: &SignBits) {
        assert_eq!(bits.dim(), self.dim, "sign vector dimension mismatch");
        self.words.extend_from_slice(bits.words());
        self.len += 1;
    }

    /// Appends every key of `other`, in order — how per-chunk arenas packed
    /// in parallel are joined.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn append(&mut self, other: &SignArena) {
        assert_eq!(other.dim, self.dim, "sign vector dimension mismatch");
        self.words.extend_from_slice(&other.words);
        self.len += other.len;
    }

    /// The packed lanes of key `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn key_words(&self, i: usize) -> &[u64] {
        assert!(i < self.len, "key index out of bounds");
        &self.words[i * self.words_per_key..(i + 1) * self.words_per_key]
    }

    /// The contiguous lanes of keys `range` (key-major), the block-kernel
    /// input: `range.len() * words_per_key` words with no per-key
    /// indirection.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `len`.
    pub fn lane_words(&self, range: core::ops::Range<usize>) -> &[u64] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "key range out of bounds"
        );
        &self.words[range.start * self.words_per_key..range.end * self.words_per_key]
    }

    /// Copies key `i` back out as a standalone [`SignBits`] (tests and
    /// diagnostics; the hot paths stay on the packed lanes).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> SignBits {
        SignBits {
            dim: self.dim,
            words: self.key_words(i).to_vec(),
        }
    }

    /// Sign concordance of key `i` against `query` — identical to
    /// `query.concordance(&self.get(i))` without materializing the key.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` or the dimensions differ.
    pub fn concordance(&self, i: usize, query: &SignBits) -> u32 {
        assert_eq!(query.dim(), self.dim, "sign vector dimension mismatch");
        let hamming: u32 = self
            .key_words(i)
            .iter()
            .zip(query.words())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        self.dim as u32 - hamming
    }
}

/// [`SignArena::push_rotated`]'s body, compiled once per instruction set.
#[inline(always)]
pub(crate) fn push_rotated_body(arena: &mut SignArena, r: &Matrix, keys: &[f32]) {
    let d = arena.dim;
    let block = ROTATE_BLOCK_KEYS * d;
    let mut acc = vec![0.0f32; block.min(keys.len())];
    for keys in keys.chunks(block) {
        let acc = &mut acc[..keys.len()];
        acc.fill(0.0);
        for (r, row) in r.iter_rows().enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_concordance(a: &[f32], b: &[f32]) -> u32 {
        a.iter()
            .zip(b)
            .filter(|(x, y)| (**x < 0.0) == (**y < 0.0))
            .count() as u32
    }

    #[test]
    fn concordance_matches_naive_on_odd_dims() {
        // 67 dims crosses a word boundary.
        let a: Vec<f32> = (0..67).map(|i| ((i * 37) % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..67).map(|i| ((i * 53) % 11) as f32 - 5.0).collect();
        let sa = SignBits::from_slice(&a);
        let sb = SignBits::from_slice(&b);
        assert_eq!(sa.concordance(&sb), naive_concordance(&a, &b));
        assert_eq!(sa.hamming(&sb) + sa.concordance(&sb), 67);
    }

    #[test]
    fn identical_vectors_have_full_concordance() {
        let v: Vec<f32> = (0..128).map(|i| (i as f32).sin()).collect();
        let s = SignBits::from_slice(&v);
        assert_eq!(s.concordance(&s), 128);
        assert_eq!(s.hamming(&s), 0);
    }

    #[test]
    fn negated_vector_has_zero_concordance_when_no_zeros() {
        let v: Vec<f32> = (0..64)
            .map(|i| (i as f32 + 0.5) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        let s = SignBits::from_slice(&v);
        let sn = SignBits::from_slice(&neg);
        assert_eq!(s.concordance(&sn), 0);
    }

    #[test]
    fn zero_and_negative_zero_are_non_negative() {
        let s = SignBits::from_slice(&[0.0, -0.0, -1.0]);
        assert!(!s.bit(0));
        assert!(!s.bit(1));
        assert!(s.bit(2));
    }

    #[test]
    fn storage_bytes_rounds_up() {
        assert_eq!(SignBits::storage_bytes(64), 8);
        assert_eq!(SignBits::storage_bytes(65), 9);
        assert_eq!(SignBits::storage_bytes(128), 16);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let a = SignBits::from_slice(&[1.0; 4]);
        let b = SignBits::from_slice(&[1.0; 5]);
        let _ = a.concordance(&b);
    }
}
