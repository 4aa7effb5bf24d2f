//! Latency populations as compacted `(value, count)` multisets.
//!
//! A serving run records one token-latency sample per decoding member per
//! step (up to 64), all equal to the step's duration, so a workload's
//! millions of samples hold few distinct values. [`LatencySamples`] stores
//! them as `(value, count)` runs: a push extends the run it pushed last
//! when the next value has the same bits. Consecutive step durations do
//! not always share bits (a speculation miss or a token-fault penalty
//! changes one step's duration and the next step changes it back), so the
//! runs alone would still grow with the number of steps.
//!
//! When the run buffer is full (and holds at least [`MIN_COMPACT_RUNS`]
//! runs), the population is compacted: its runs are sorted by
//! [`f64::total_cmp`] and runs with equal bits are merged, the same
//! operation [`LatencySamples::sorted`] performs. A compaction that
//! freed less than half of the buffer grows it to twice the runs it kept,
//! so the next compaction again finds at least half the buffer new. The
//! buffer therefore holds at most `MIN_COMPACT_RUNS` runs or twice the
//! population's distinct values, whichever is more, however many samples
//! it records; a mostly distinct population (request latencies) pays one
//! sort per doubling. Compaction forgets the recording order; no read
//! depends on it.
//!
//! Percentiles are order statistics of the expanded population. A
//! [`SortedSamples`] view holds one run per distinct bit pattern in
//! ascending `total_cmp` order; element `i` of the sorted expansion is
//! found by walking the cumulative counts. `total_cmp` orders two values as
//! equal exactly when their bits are equal, so this expansion is the same
//! sequence, bit for bit, as sorting the expanded `Vec<f64>` with
//! `sort_by(f64::total_cmp)`, and both rank rules return the same sample
//! the slice-based percentiles they replace did. Views of disjoint
//! populations combine with [`SortedSamples::merge`], a linear merge, so
//! each population is sorted once.

use std::cmp::Ordering;

/// Runs a [`LatencySamples`] buffer holds before its first compaction.
pub const MIN_COMPACT_RUNS: usize = 1024;

/// A latency population as `(value, count)` runs, compacted into a
/// multiset when its buffer fills (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct LatencySamples {
    runs: Vec<(f64, usize)>,
    len: usize,
    /// Index of the run pushed last; the next push extends it when its
    /// value has the same bits.
    last: usize,
}

impl LatencySamples {
    /// An empty population.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.push_n(v, 1);
    }

    /// Records `n` samples of value `v` (none when `n == 0`). Extends the
    /// run pushed last when `v` has its bits.
    #[inline]
    pub fn push_n(&mut self, v: f64, n: usize) {
        if n == 0 {
            return;
        }
        self.len += n;
        if let Some((last, count)) = self.runs.get_mut(self.last) {
            if last.to_bits() == v.to_bits() {
                *count += n;
                return;
            }
        }
        if self.runs.len() == self.runs.capacity() {
            self.full();
        }
        self.last = self.runs.len();
        self.runs.push((v, n));
    }

    /// The buffer is full: compact it in place once it holds
    /// [`MIN_COMPACT_RUNS`] runs, and grow it to twice the runs kept when
    /// that freed less than half of it.
    #[cold]
    #[inline(never)]
    fn full(&mut self) {
        let before = self.runs.len();
        if before < MIN_COMPACT_RUNS {
            return;
        }
        compact(&mut self.runs);
        let kept = self.runs.len();
        if kept * 2 > before {
            self.runs.reserve_exact(kept);
        }
    }

    /// Number of samples (the sum of the run counts).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Runs the buffer holds before it next compacts or grows: the
    /// population's memory, in 16-byte runs.
    pub fn capacity(&self) -> usize {
        self.runs.capacity()
    }

    /// The population in ascending order, for percentiles.
    pub fn sorted(&self) -> SortedSamples {
        let mut runs = self.runs.clone();
        compact(&mut runs);
        SortedSamples {
            runs,
            len: self.len,
        }
    }
}

/// Sorts `runs` by [`f64::total_cmp`] and merges runs with equal bits.
fn compact(runs: &mut Vec<(f64, usize)>) {
    runs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    runs.dedup_by(|later, kept| {
        let same = later.0.to_bits() == kept.0.to_bits();
        if same {
            kept.1 += later.1;
        }
        same
    });
}

/// A [`LatencySamples`] population in ascending [`f64::total_cmp`] order,
/// one run per distinct bit pattern.
#[derive(Debug, Clone, Default)]
pub struct SortedSamples {
    runs: Vec<(f64, usize)>,
    len: usize,
}

impl SortedSamples {
    /// The union of `views` as one view: a linear merge per view, runs
    /// with equal bits summed. Equal to sorting the populations' combined
    /// samples.
    pub fn merge<'a>(views: impl IntoIterator<Item = &'a SortedSamples>) -> SortedSamples {
        views
            .into_iter()
            .fold(SortedSamples::default(), |acc, v| acc.union(v))
    }

    fn union(&self, other: &SortedSamples) -> SortedSamples {
        let (a, b) = (&self.runs, &other.runs);
        let mut runs = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.total_cmp(&b[j].0) {
                Ordering::Less => {
                    runs.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    runs.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    runs.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        runs.extend_from_slice(&a[i..]);
        runs.extend_from_slice(&b[j..]);
        SortedSamples {
            runs,
            len: self.len + other.len,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `(value, count)` runs in ascending order, one per distinct bit
    /// pattern; no count is zero.
    pub fn runs(&self) -> &[(f64, usize)] {
        &self.runs
    }

    /// Element `i` of the ascending expansion; `None` past the end.
    pub fn get(&self, i: usize) -> Option<f64> {
        let mut end = 0usize;
        for &(v, n) in &self.runs {
            end += n;
            if i < end {
                return Some(v);
            }
        }
        None
    }

    /// Ceil nearest-rank percentile: the smallest sample such that at
    /// least `p` of the population is ≤ it, i.e. element
    /// `ceil(len × p) - 1`, with the rank clamped to `1..=len`; `0.0` for
    /// an empty population. The scheduler's per-class and fleet rule.
    ///
    /// The ceil convention is monotone in `p` and pins p99 of a
    /// <100-sample population to the maximum, which is what the SLO tables
    /// report (a `.round()` rank would pick the upper median at p50).
    pub fn percentile_ceil(&self, p: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = (self.len as f64 * p).ceil() as usize;
        self.get(rank.clamp(1, self.len) - 1).unwrap_or(0.0)
    }

    /// Rounded nearest-rank percentile: element `round((len - 1) × p)`,
    /// clamped to the last element; `0.0` for an empty population. The rule
    /// of the serving metrics and the attribution tables.
    pub fn percentile_round(&self, p: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let idx = ((self.len - 1) as f64 * p).round() as usize;
        self.get(idx.min(self.len - 1)).unwrap_or(0.0)
    }

    /// The ascending expansion, one item per sample.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.runs
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(samples: &[f64]) -> SortedSamples {
        let mut s = LatencySamples::new();
        for &v in samples {
            s.push(v);
        }
        s.sorted()
    }

    fn ceil(samples: &[f64], p: f64) -> f64 {
        sorted(samples).percentile_ceil(p)
    }

    fn round(samples: &[f64], p: f64) -> f64 {
        sorted(samples).percentile_round(p)
    }

    #[test]
    fn percentile_uses_ceil_nearest_rank() {
        // p99 over any sample smaller than 100 must be the maximum: with
        // the old `.round()` convention a 4-sample p99 landed on index
        // round(3 × 0.99) = 3 (correct) but a 50-sample p99 landed on
        // round(49 × 0.99) = 49 only by luck of rounding — and p50 of an
        // even population rounded *up* to the upper median.
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ceil(&four, 0.99), 4.0);
        assert_eq!(ceil(&four, 0.5), 2.0, "lower median");
        assert_eq!(ceil(&four, 1.0), 4.0);
        assert_eq!(ceil(&four, 0.0), 1.0, "rank clamps to 1");
        let one = [7.0];
        assert_eq!(ceil(&one, 0.5), 7.0);
        assert_eq!(ceil(&one, 0.99), 7.0);
        assert_eq!(ceil(&[], 0.99), 0.0);
        // 50 samples: ceil(50 × 0.99) = 50 → the maximum, and
        // ceil(50 × 0.5) = 25 → the lower median.
        let fifty: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        assert_eq!(ceil(&fifty, 0.99), 50.0);
        assert_eq!(ceil(&fifty, 0.5), 25.0);
        // Monotone in p.
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let v = ceil(&fifty, i as f64 / 20.0);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn percentile_rounds_the_fractional_rank() {
        let one = [7.0];
        assert_eq!(round(&one, 0.5), 7.0);
        assert_eq!(round(&one, 0.99), 7.0);
        // n = 2: rank 0.5 rounds half away from zero, 0.99 rounds up.
        let two = [1.0, 2.0];
        assert_eq!(round(&two, 0.5), 2.0);
        assert_eq!(round(&two, 0.99), 2.0);
        // n = 101: ranks 50 and 99 exactly (index, not ceil, semantics).
        let many: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(round(&many, 0.5), 50.0);
        assert_eq!(round(&many, 0.99), 99.0);
        assert_eq!(round(&[], 0.5), 0.0);
    }

    #[test]
    fn runs_coalesce_by_bits_and_ranks_never_panic() {
        let mut s = LatencySamples::new();
        s.push_n(2.0, 3);
        s.push_n(2.0, 0);
        s.push_n(2.0, 2);
        s.push_n(0.0, 1);
        s.push_n(-0.0, 1);
        s.push_n(1.0, 4);
        assert_eq!(s.len(), 11);
        let sorted = s.sorted();
        let bits: Vec<_> = sorted
            .runs()
            .iter()
            .map(|&(v, n)| (v.to_bits(), n))
            .collect();
        let want = [(-0.0f64, 1), (0.0, 1), (1.0, 4), (2.0, 5)];
        assert_eq!(bits, want.map(|(v, n)| (v.to_bits(), n)));
        assert_eq!(sorted.get(0).map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(sorted.get(10), Some(2.0));
        assert_eq!(sorted.get(11), None);
        assert_eq!(sorted.percentile_round(5.0), 2.0, "clamps past the end");
        assert_eq!(sorted.percentile_ceil(5.0), 2.0);
        assert_eq!(LatencySamples::new().sorted().get(0), None);
    }
}
