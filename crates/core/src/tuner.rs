//! SCF threshold tuning (paper §8.1.3).
//!
//! > "We initialize all thresholds such that no Keys are filtered (i.e.
//! > filter ratio = 1). We iteratively increase the thresholds for KV heads
//! > with the lowest filtering ratios. This process continues until the
//! > perplexity exceeds a predefined threshold (5 %), at which point we
//! > record the filter ratio from the prior iteration."
//!
//! The tuner is generic over a *quality probe* — any closure that evaluates a
//! threshold table and returns a quality figure (lower is better; perplexity
//! for model runs, attention-output error for trace runs) plus the filter
//! statistics of the evaluation.

use crate::scf::ThresholdTable;
use crate::stats::FilterStats;

/// Result of one probe evaluation.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// Quality figure; **lower is better** (e.g. perplexity).
    pub quality: f64,
    /// Access statistics of the evaluation (per-head ratios drive the
    /// head-selection heuristic).
    pub stats: FilterStats,
}

/// Tuner hyperparameters.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Allowed relative quality degradation vs. the unfiltered baseline
    /// (the paper uses 5 %).
    pub quality_budget: f64,
    /// Threshold increment per accepted step.
    pub step: u32,
    /// Hard cap on thresholds (the head dimension: concordance can never
    /// exceed it).
    pub max_threshold: u32,
    /// Safety cap on tuning rounds.
    pub max_rounds: usize,
}

/// Outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The tuned thresholds (the last accepted iterate).
    pub thresholds: ThresholdTable,
    /// Quality of the unfiltered baseline.
    pub baseline_quality: f64,
    /// Quality at the tuned thresholds.
    pub final_quality: f64,
    /// Filter statistics at the tuned thresholds.
    pub final_stats: FilterStats,
    /// Number of probe evaluations performed.
    pub probes: usize,
}

impl TuneOutcome {
    /// Relative quality degradation of the tuned configuration.
    pub fn quality_increase(&self) -> f64 {
        self.final_quality / self.baseline_quality - 1.0
    }
}

/// Runs the paper's greedy threshold-tuning loop.
///
/// `probe` evaluates a candidate table; it is called once for the all-zeros
/// baseline and once per candidate step.
///
/// # Panics
///
/// Panics if `layers * kv_heads == 0`.
pub fn tune_thresholds(
    layers: usize,
    kv_heads: usize,
    cfg: &TunerConfig,
    mut probe: impl FnMut(&ThresholdTable) -> ProbeResult,
) -> TuneOutcome {
    assert!(layers * kv_heads > 0, "no heads to tune");
    let mut thresholds = ThresholdTable::zeros(layers, kv_heads);
    let baseline = probe(&thresholds);
    let budget = baseline.quality * (1.0 + cfg.quality_budget);

    let mut frozen = vec![false; layers * kv_heads];
    let mut best = baseline.clone();
    let mut probes = 1;

    for _ in 0..cfg.max_rounds {
        // Pick the unfrozen head with the lowest filter ratio.
        let candidate = best
            .stats
            .per_head
            .iter()
            .enumerate()
            .filter(|(i, _)| !frozen[*i])
            .filter(|(i, _)| thresholds.get(i / kv_heads, i % kv_heads) < cfg.max_threshold)
            .min_by(|a, b| a.1.filter_ratio().total_cmp(&b.1.filter_ratio()));
        let Some((head_idx, _)) = candidate else {
            break; // every head frozen or capped
        };
        let (layer, head) = (head_idx / kv_heads, head_idx % kv_heads);
        let old = thresholds.get(layer, head);
        let proposed = (old + cfg.step).min(cfg.max_threshold);
        thresholds.set(layer, head, proposed);

        let result = probe(&thresholds);
        probes += 1;
        if result.quality <= budget {
            best = result;
        } else {
            // Revert and freeze: this head cannot be raised further.
            thresholds.set(layer, head, old);
            frozen[head_idx] = true;
        }
        if frozen.iter().all(|&f| f) {
            break;
        }
    }

    TuneOutcome {
        thresholds,
        baseline_quality: baseline.quality,
        final_quality: best.quality,
        final_stats: best.stats,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::PerHeadStats;

    /// A synthetic probe: quality degrades quadratically with each head's
    /// threshold, filter ratio improves linearly. Head 1 is "cheap" (quality
    /// barely degrades), head 0 is "expensive".
    fn synthetic_probe(costs: Vec<f64>) -> impl FnMut(&ThresholdTable) -> ProbeResult {
        move |t: &ThresholdTable| {
            let mut quality = 100.0;
            let mut per_head = Vec::new();
            for ((_, _), th) in t.iter() {
                let i = per_head.len();
                quality += costs[i] * (th as f64).powi(2);
                let survivors = (1000.0 / (1.0 + th as f64)) as u64;
                per_head.push(PerHeadStats {
                    region: 1000,
                    scored: survivors,
                    retrieved: 10,
                });
            }
            let stats = FilterStats {
                queries: 1,
                dense_kv: per_head.len() as u64 * 1000,
                window_accessed: 0,
                sparse_region: per_head.iter().map(|h| h.region).sum(),
                scored: per_head.iter().map(|h| h.scored).sum(),
                retrieved: per_head.iter().map(|h| h.retrieved).sum(),
                per_head,
            };
            ProbeResult { quality, stats }
        }
    }

    #[test]
    fn tuner_raises_cheap_heads_more() {
        let cfg = TunerConfig {
            quality_budget: 0.05,
            step: 1,
            max_threshold: 32,
            max_rounds: 200,
        };
        let outcome = tune_thresholds(1, 2, &cfg, synthetic_probe(vec![1.0, 0.01]));
        let expensive = outcome.thresholds.get(0, 0);
        let cheap = outcome.thresholds.get(0, 1);
        assert!(
            cheap > expensive,
            "cheap head should end with the higher threshold ({cheap} vs {expensive})"
        );
        assert!(outcome.quality_increase() <= 0.05 + 1e-9);
    }

    #[test]
    fn tuner_respects_quality_budget() {
        let cfg = TunerConfig {
            quality_budget: 0.02,
            step: 2,
            max_threshold: 64,
            max_rounds: 500,
        };
        let outcome = tune_thresholds(2, 2, &cfg, synthetic_probe(vec![0.3, 0.2, 0.1, 0.05]));
        assert!(outcome.quality_increase() <= 0.02 + 1e-9);
        assert!(outcome.final_quality >= outcome.baseline_quality);
    }

    #[test]
    fn zero_budget_keeps_thresholds_at_zero_for_costly_heads() {
        let cfg = TunerConfig {
            quality_budget: 0.0,
            step: 1,
            max_threshold: 8,
            max_rounds: 50,
        };
        let outcome = tune_thresholds(1, 1, &cfg, synthetic_probe(vec![10.0]));
        assert_eq!(outcome.thresholds.get(0, 0), 0);
        assert_eq!(outcome.final_quality, outcome.baseline_quality);
    }

    #[test]
    fn max_threshold_caps_progress() {
        // Free quality: tuner would raise forever without the cap.
        let cfg = TunerConfig {
            quality_budget: 10.0,
            step: 3,
            max_threshold: 7,
            max_rounds: 100,
        };
        let outcome = tune_thresholds(1, 1, &cfg, synthetic_probe(vec![0.0]));
        assert_eq!(outcome.thresholds.get(0, 0), 7);
    }
}
