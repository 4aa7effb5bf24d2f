//! Run-length latency samples: a latency population stored as
//! `(value, count)` runs instead of one `f64` per sample.
//!
//! A serving run records one token-latency sample per decoding member per
//! step (up to 64), all equal to the step's duration, so a workload's few
//! million samples hold only a handful to a few hundred thousand runs.
//! [`LatencySamples`] keeps the runs in recording order, extending the last
//! run when the next value has the same bits.
//!
//! Percentiles are order statistics of the expanded population. A
//! [`SortedSamples`] view sorts a copy of the runs by [`f64::total_cmp`] and
//! merges runs with equal bits; element `i` of the sorted expansion is then
//! found by walking the cumulative counts. `total_cmp` orders two values as
//! equal exactly when their bits are equal, so this expansion is the same
//! sequence, bit for bit, as sorting the expanded `Vec<f64>` with
//! `sort_by(f64::total_cmp)`, and both rank rules return the same sample
//! the slice-based percentiles they replace did.

/// A latency population as `(value, count)` runs, in recording order.
#[derive(Debug, Clone, Default)]
pub struct LatencySamples {
    runs: Vec<(f64, usize)>,
    len: usize,
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
    /// last run when `v` has its bits.
    pub fn push_n(&mut self, v: f64, n: usize) {
        if n == 0 {
            return;
        }
        self.len += n;
        match self.runs.last_mut() {
            Some((last, count)) if last.to_bits() == v.to_bits() => *count += n,
            _ => self.runs.push((v, n)),
        }
    }

    /// Appends `other`'s samples after this population's, in `other`'s
    /// recording order.
    pub fn append(&mut self, other: &LatencySamples) {
        for &(v, n) in &other.runs {
            self.push_n(v, n);
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

    /// The `(value, count)` runs in recording order; no count is zero.
    pub fn runs(&self) -> &[(f64, usize)] {
        &self.runs
    }

    /// Sum of the samples, added one at a time in recording order with the
    /// start value of `Iterator::sum`, so it is bit-identical to summing the
    /// expanded `Vec<f64>`.
    pub fn sum(&self) -> f64 {
        self.runs
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .sum()
    }

    /// The population in ascending order, for percentiles.
    pub fn sorted(&self) -> SortedSamples {
        let mut runs = self.runs.clone();
        runs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        runs.dedup_by(|later, kept| {
            let same = later.0.to_bits() == kept.0.to_bits();
            if same {
                kept.1 += later.1;
            }
            same
        });
        SortedSamples {
            runs,
            len: self.len,
        }
    }
}

/// A [`LatencySamples`] population in ascending [`f64::total_cmp`] order,
/// one run per distinct bit pattern.
#[derive(Debug)]
pub struct SortedSamples {
    runs: Vec<(f64, usize)>,
    len: usize,
}

impl SortedSamples {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        assert_eq!(s.runs(), &[(2.0, 5), (0.0, 1), (-0.0, 1), (1.0, 4)]);
        assert_eq!(s.len(), 11);
        let sorted = s.sorted();
        assert_eq!(sorted.get(0).map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(sorted.get(10), Some(2.0));
        assert_eq!(sorted.get(11), None);
        assert_eq!(sorted.percentile_round(5.0), 2.0, "clamps past the end");
        assert_eq!(sorted.percentile_ceil(5.0), 2.0);
        assert_eq!(LatencySamples::new().sorted().get(0), None);
    }
}
