//! Bounded top-*k* selection.
//!
//! The NMAs in DReX maintain a partial top-*k* list (hardware maximum
//! `k = 1,024`) while streaming scored keys out of DRAM. [`TopK`] models that
//! structure: a bounded min-heap keyed on score, with deterministic
//! tie-breaking on the index so simulation runs are reproducible.
//! [`select_top_k`] ranks a complete score list in one batch, with the same
//! result as pushing every entry through a [`TopK`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(score, index)` pair ordered by score, then by index (lower index wins
/// ties, matching "earlier token wins" determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredIndex {
    /// Similarity / attention score.
    pub score: f32,
    /// Identifier of the scored item (e.g. token position).
    pub index: usize,
}

impl ScoredIndex {
    /// Creates a new scored index.
    pub fn new(score: f32, index: usize) -> Self {
        Self { score, index }
    }
}

impl Eq for ScoredIndex {}

impl PartialOrd for ScoredIndex {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoredIndex {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp gives a total order over floats (NaN sorts consistently);
        // reverse the index comparison so that for equal scores the *lower*
        // index is considered larger (kept preferentially).
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.index.cmp(&self.index))
    }
}

/// Wrapper flipping the ordering so `BinaryHeap` acts as a min-heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MinHeapEntry(ScoredIndex);

impl PartialOrd for MinHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MinHeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

/// A bounded min-heap retaining the `k` highest-scoring entries seen so far.
///
/// # Example
///
/// ```
/// use longsight_tensor::TopK;
///
/// let mut top = TopK::new(2);
/// for (i, s) in [0.1, 0.9, 0.5, 0.7].iter().enumerate() {
///     top.push(*s, i);
/// }
/// let best = top.into_sorted_vec();
/// assert_eq!(best[0].index, 1); // 0.9
/// assert_eq!(best[1].index, 3); // 0.7
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<MinHeapEntry>,
}

impl TopK {
    /// Creates an empty selector keeping at most `k` entries.
    ///
    /// `k = 0` is allowed and keeps nothing.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1)),
        }
    }

    /// The bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers a `(score, index)` pair; keeps it only if it is among the `k`
    /// best seen so far. Returns `true` if the entry was retained.
    pub fn push(&mut self, score: f32, index: usize) -> bool {
        if self.k == 0 {
            return false;
        }
        let entry = MinHeapEntry(ScoredIndex::new(score, index));
        if self.heap.len() < self.k {
            self.heap.push(entry);
            return true;
        }
        // Full: replace the current minimum in place if strictly better;
        // dropping the `PeekMut` restores the heap with one sift-down.
        let mut min = self.heap.peek_mut().expect("non-empty when full");
        if entry.0 > min.0 {
            *min = entry;
            true
        } else {
            false
        }
    }

    /// The smallest retained score, if any (the current admission threshold).
    pub fn min_score(&self) -> Option<f32> {
        self.heap.peek().map(|e| e.0.score)
    }

    /// Merges another selector's contents into this one (used when the DCC
    /// aggregates partial top-k lists from multiple NMAs).
    pub fn merge(&mut self, other: TopK) {
        for e in other.heap {
            self.push(e.0.score, e.0.index);
        }
    }

    /// Consumes the selector and returns the retained entries sorted by
    /// descending score (ties broken by ascending index).
    pub fn into_sorted_vec(self) -> Vec<ScoredIndex> {
        let mut v: Vec<ScoredIndex> = self.heap.into_iter().map(|e| e.0).collect();
        v.sort_by(|a, b| b.cmp(a));
        v
    }
}

impl Extend<ScoredIndex> for TopK {
    fn extend<T: IntoIterator<Item = ScoredIndex>>(&mut self, iter: T) {
        for s in iter {
            self.push(s.score, s.index);
        }
    }
}

/// The `k` best of `items`, sorted by descending score (ties broken by
/// ascending index): the batch counterpart of [`TopK`].
///
/// Selects with `select_nth_unstable_by`, then sorts the `k` selected
/// entries. [`ScoredIndex`]'s order is total over distinct indices, so when
/// the indices of `items` are distinct the result equals pushing every item
/// into a [`TopK::new(k)`](TopK::new) and calling
/// [`into_sorted_vec`](TopK::into_sorted_vec), bit for bit, in any input
/// order. It runs in linear time plus `O(k log k)` instead of a heap
/// sift-down per admitted entry, so it suits a score list that is complete
/// before ranking; the streaming [`TopK`] suits merged partial lists. The
/// result reuses the allocation of `items`.
///
/// # Example
///
/// ```
/// use longsight_tensor::{select_top_k, ScoredIndex};
///
/// let items = [0.1, 0.9, 0.5, 0.9].iter().enumerate();
/// let best = select_top_k(items.map(|(i, &s)| ScoredIndex::new(s, i)).collect(), 2);
/// assert_eq!(best, [ScoredIndex::new(0.9, 1), ScoredIndex::new(0.9, 3)]);
/// ```
pub fn select_top_k(mut items: Vec<ScoredIndex>, k: usize) -> Vec<ScoredIndex> {
    let descending = |a: &ScoredIndex, b: &ScoredIndex| b.cmp(a);
    if k == 0 {
        items.clear();
    } else if k < items.len() {
        items.select_nth_unstable_by(k - 1, descending);
        items.truncate(k);
    }
    items.sort_unstable_by(descending);
    items
}

/// Selects the indices of the `k` largest values of `scores`, descending
/// (ties to the lower index), by [`select_top_k`].
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let items = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| ScoredIndex::new(s, i))
        .collect();
    select_top_k(items, k)
        .into_iter()
        .map(|s| s.index)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{run_cases, Gen};
    use crate::{prop_ensure, prop_ensure_eq};

    /// A score drawn to collide: ties from a small grid, ±0.0, NaN of
    /// either sign and ±∞, or an arbitrary value.
    fn score(g: &mut Gen) -> f32 {
        match g.usize_in(0, 8) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::NAN,
            3 => -f32::NAN,
            4 => [f32::INFINITY, f32::NEG_INFINITY][g.usize_in(0, 2)],
            5 | 6 => g.usize_in(0, 4) as f32 * 0.5,
            _ => g.f32_in(-3.0, 3.0),
        }
    }

    /// The `k` best of `seen` by full sort: descending score under
    /// `total_cmp`, ties to the lower index.
    fn oracle(seen: &[ScoredIndex], k: usize) -> Vec<ScoredIndex> {
        let mut v = seen.to_vec();
        v.sort_by(|a, b| b.cmp(a));
        v.truncate(k);
        v
    }

    fn bits(v: &[ScoredIndex]) -> Vec<(u32, usize)> {
        v.iter().map(|s| (s.score.to_bits(), s.index)).collect()
    }

    #[test]
    fn push_matches_sort_oracle() {
        run_cases("push_matches_sort_oracle", 256, |g| {
            let n = g.usize_in(0, 40);
            let k = match g.usize_in(0, 4) {
                0 => 0,
                1 => 1,
                2 => n + g.usize_in(1, 4),
                _ => g.usize_in(0, n + 1),
            };
            // Distinct indices in a shuffled order.
            let mut indices: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                indices.swap(i, g.usize_in(0, i + 1));
            }
            let mut top = TopK::new(k);
            let mut seen = Vec::new();
            for index in indices {
                let entry = ScoredIndex::new(score(g), index);
                seen.push(entry);
                let best = oracle(&seen, k);
                let kept = top.push(entry.score, entry.index);
                prop_ensure_eq!(kept, best.iter().any(|s| s.index == index));
                prop_ensure_eq!(top.len(), best.len());
                prop_ensure_eq!(
                    top.min_score().map(f32::to_bits),
                    best.last().map(|s| s.score.to_bits())
                );
            }
            let got = top.into_sorted_vec();
            prop_ensure!(got.len() <= k);
            prop_ensure_eq!(bits(&got), bits(&oracle(&seen, k)));
            Ok(())
        });
    }

    #[test]
    fn select_matches_push_all() {
        run_cases("select_matches_push_all", 256, |g| {
            let n = g.usize_in(0, 40);
            let k = match g.usize_in(0, 4) {
                0 => 0,
                1 => 1,
                2 => n + g.usize_in(0, 4),
                _ => g.usize_in(0, n + 1),
            };
            // Distinct indices in a shuffled order.
            let mut indices: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                indices.swap(i, g.usize_in(0, i + 1));
            }
            let items: Vec<ScoredIndex> = indices
                .into_iter()
                .map(|index| ScoredIndex::new(score(g), index))
                .collect();
            let mut top = TopK::new(k);
            top.extend(items.iter().copied());
            let want = top.into_sorted_vec();
            prop_ensure_eq!(bits(&select_top_k(items, k)), bits(&want), "n={n} k={k}");
            Ok(())
        });
    }

    #[test]
    fn matches_full_sort() {
        let scores: Vec<f32> = (0..100).map(|i| ((i * 31 % 97) as f32).sin()).collect();
        let got = top_k_indices(&scores, 10);
        let mut pairs: Vec<(f32, usize)> = scores.iter().copied().zip(0..).collect();
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let want: Vec<usize> = pairs.into_iter().take(10).map(|(_, i)| i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn k_larger_than_input_returns_all() {
        let got = top_k_indices(&[3.0, 1.0, 2.0], 10);
        assert_eq!(got, vec![0, 2, 1]);
    }

    #[test]
    fn k_zero_returns_nothing() {
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
        let mut t = TopK::new(0);
        assert!(!t.push(5.0, 0));
        assert!(t.is_empty());
    }

    #[test]
    fn ties_prefer_lower_index() {
        let got = top_k_indices(&[1.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn merge_equals_single_pass() {
        let scores: Vec<f32> = (0..64).map(|i| ((i * 7 % 23) as f32).cos()).collect();
        let mut a = TopK::new(8);
        let mut b = TopK::new(8);
        for (i, &s) in scores.iter().enumerate() {
            if i % 2 == 0 {
                a.push(s, i);
            } else {
                b.push(s, i);
            }
        }
        a.merge(b);
        let merged: Vec<usize> = a.into_sorted_vec().into_iter().map(|s| s.index).collect();
        assert_eq!(merged, top_k_indices(&scores, 8));
    }

    #[test]
    fn min_score_tracks_admission_threshold() {
        let mut t = TopK::new(2);
        assert_eq!(t.min_score(), None);
        t.push(1.0, 0);
        t.push(3.0, 1);
        assert_eq!(t.min_score(), Some(1.0));
        t.push(2.0, 2);
        assert_eq!(t.min_score(), Some(2.0));
    }
}
