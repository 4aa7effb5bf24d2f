//! Trace-based quality evaluation for long contexts.
//!
//! Full-model perplexity runs are quadratic in context length; beyond ~16K
//! tokens the quality experiments instead run the *identical* retrieval
//! pipeline over generated Q/K/V traces ([`longsight_model::tracegen`]) and
//! measure how faithfully hybrid attention approximates dense attention:
//!
//! * **top-k recall** — fraction of the exact highest-scoring non-window keys
//!   that the SCF→score→rank pipeline retrieves,
//! * **ground-truth recall** — fraction of the trace's engineered relevant
//!   positions present in the final candidate set,
//! * **output error** — relative L2 distance between the hybrid and dense
//!   attention outputs.
//!
//! `DESIGN.md` documents this as the substitution for perplexity at contexts
//! the forward pass cannot reach.
//!
//! # The fused pass
//!
//! Every consumer of a probe's scores (the SCF-region ranking, the hybrid
//! output and the dense output) needs the same raw dots `q · k`, and dense
//! attention needs all `n` of them. So probes run in blocks of
//! `PROBE_BLOCK` = 4: one pass over the key store reads each key row once
//! and fills a `PROBE_BLOCK × n` buffer of raw scores, which every consumer
//! then reads; no `(probe, key)` dot is computed twice. Each probe's row turns
//! into its dense weights in place once its region and hybrid work is done,
//! and one pass over the value store accumulates every probe's dense output.
//! On the trace_sweep shape (32K keys, `d = 128`, 32 probes) this reads the
//! key store once per block instead of twice per probe and the value store
//! once per block instead of once per probe. On a shared 2-core x86-64
//! host that cut one call from ~195 to ~135 ms (`DESIGN.md` §4).
//!
//! The pass is bit-identical to per-probe attention over
//! [`longsight_model::attend_over_kv`]: the softmax inputs are the same
//! `dot(q, k) * scale` products, the softmax runs over the same slice, and
//! every output still accumulates its value rows in ascending index order.
//! Per-probe results are folded in probe order, so every metric is
//! bit-identical at any thread count.

use crate::hybrid::HybridConfig;
use crate::itq::ItqRotation;
use crate::scf::{filter_block_packed, PFU_BLOCK_KEYS};
use crate::stats::FilterStats;
use longsight_model::attend_with_scores;
use longsight_model::tracegen::{HeadTrace, QueryProbe};
use longsight_tensor::{vecops, FlatVecs, SignArena, TopK};

/// Probes that share one pass over the key store and one over the value
/// store. The score buffer holds `PROBE_BLOCK × n` floats per worker.
const PROBE_BLOCK: usize = 4;

/// Quality of the hybrid pipeline on one head trace.
#[derive(Debug, Clone)]
pub struct TraceQuality {
    /// Recall of the exact top-k (by true score) within the sparse region.
    pub topk_recall: f64,
    /// Recall of the trace's ground-truth relevant positions in the full
    /// candidate set (window + sinks + retrieved).
    pub ground_truth_recall: f64,
    /// Mean relative L2 error of hybrid vs. dense attention output.
    pub output_rel_err: f64,
    /// Access statistics (single head).
    pub stats: FilterStats,
}

/// One probe's contribution to the trace totals.
struct ProbeQuality {
    topk_hits: usize,
    topk_total: usize,
    gt_hits: usize,
    gt_total: usize,
    rel_err: f64,
    scored: u64,
    retrieved: u64,
}

/// The read-only state every probe block shares.
struct Pass<'a> {
    keys: &'a FlatVecs,
    values: &'a FlatVecs,
    key_signs: &'a SignArena,
    rotation: &'a ItqRotation,
    top_k: usize,
    threshold: u32,
    sinks_end: usize,
    window_start: usize,
    scale: f32,
}

/// Runs the hybrid pipeline over every query probe of `trace`.
///
/// `rotation` is applied to queries and keys before sign extraction (pass
/// [`ItqRotation::identity`] for raw SCF); `threshold` is this head's SCF
/// threshold.
///
/// # Panics
///
/// Panics if the trace is empty or the rotation dimension mismatches.
pub fn evaluate_trace(
    trace: &HeadTrace,
    rotation: &ItqRotation,
    config: &HybridConfig,
    threshold: u32,
) -> TraceQuality {
    assert!(!trace.is_empty(), "empty trace");
    let n = trace.len();
    let d = trace.keys.dim();
    assert_eq!(rotation.dim(), d, "rotation dimension mismatch");

    // Precompute rotated sign bits for all keys into one packed arena (the
    // Key Sign Object region the PFUs scan).
    let mut key_signs = SignArena::new(d);
    rotation.rotate_and_pack(trace.keys.slice(0..n), &mut key_signs);

    let window_start = n.saturating_sub(config.window);
    let sinks_end = config.sinks.min(window_start);
    let region = window_start.saturating_sub(sinks_end);
    let pass = Pass {
        keys: &trace.keys,
        values: &trace.values,
        key_signs: &key_signs,
        rotation,
        top_k: config.top_k,
        threshold,
        sinks_end,
        window_start,
        scale: 1.0 / (d as f32).sqrt(),
    };

    // Probe blocks are independent evaluations of the same read-only trace
    // state, so they run on the deterministic parallel map; the per-probe
    // results are folded serially in probe order below, which keeps the
    // floating-point `err_sum` reduction order — and therefore every metric
    // — bit-identical to the serial loop at any thread count.
    let probes = &trace.queries;
    let blocks = longsight_exec::map_range(probes.len().div_ceil(PROBE_BLOCK), |b| {
        let end = ((b + 1) * PROBE_BLOCK).min(probes.len());
        pass.evaluate_block(&probes[b * PROBE_BLOCK..end])
    });

    let mut stats = FilterStats::new(1, 1);
    let mut topk_hits = 0usize;
    let mut topk_total = 0usize;
    let mut gt_hits = 0usize;
    let mut gt_total = 0usize;
    let mut err_sum = 0.0f64;
    for p in blocks.into_iter().flatten() {
        topk_hits += p.topk_hits;
        topk_total += p.topk_total;
        gt_hits += p.gt_hits;
        gt_total += p.gt_total;
        err_sum += p.rel_err;

        stats.queries += 1;
        stats.dense_kv += n as u64;
        stats.window_accessed += (n - window_start) as u64 + sinks_end as u64;
        stats.sparse_region += region as u64;
        stats.scored += p.scored;
        stats.retrieved += p.retrieved;
        let ph = &mut stats.per_head[0];
        ph.region += region as u64;
        ph.scored += p.scored;
        ph.retrieved += p.retrieved;
    }

    let probes = trace.queries.len().max(1) as f64;
    TraceQuality {
        topk_recall: if topk_total == 0 {
            1.0
        } else {
            topk_hits as f64 / topk_total as f64
        },
        ground_truth_recall: if gt_total == 0 {
            1.0
        } else {
            gt_hits as f64 / gt_total as f64
        },
        output_rel_err: err_sum / probes,
        stats,
    }
}

impl Pass<'_> {
    /// The fused pass over one block of at most [`PROBE_BLOCK`] probes.
    fn evaluate_block(&self, probes: &[QueryProbe]) -> Vec<ProbeQuality> {
        let n = self.keys.len();

        // One score pass: each key row is read once for the whole block.
        // Row `p` of `raw` holds probe `p`'s raw dot with every key.
        let mut raw = vec![0.0f32; probes.len() * n];
        for (i, k) in self.keys.iter().enumerate() {
            for (p, probe) in probes.iter().enumerate() {
                raw[p * n + i] = vecops::dot(&probe.q, k);
            }
        }

        // Region, recall and hybrid work per probe; afterwards each row is
        // that probe's dense softmax weights.
        let mut partial: Vec<(ProbeQuality, Vec<f32>)> = probes
            .iter()
            .zip(raw.chunks_exact_mut(n))
            .map(|(probe, row)| self.evaluate_probe(probe, row))
            .collect();

        // One value pass: each value row is read once for the whole block,
        // and every probe's dense output accumulates rows in ascending order.
        let mut dense: Vec<Vec<f32>> = vec![vec![0.0f32; self.values.dim()]; probes.len()];
        for (i, v) in self.values.iter().enumerate() {
            for (p, out) in dense.iter_mut().enumerate() {
                vecops::axpy(raw[p * n + i], v, out);
            }
        }

        for ((quality, hybrid_out), dense_out) in partial.iter_mut().zip(&dense) {
            let diff: f32 = hybrid_out
                .iter()
                .zip(dense_out)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            let denom = vecops::l2_norm(dense_out).max(1e-12);
            quality.rel_err = (diff / denom) as f64;
        }
        partial.into_iter().map(|(quality, _)| quality).collect()
    }

    /// One probe's sparse pipeline and hybrid output, read off its row of
    /// raw scores, which it then turns into dense softmax weights in place.
    /// Returns the probe's counts (`rel_err` still unset) and hybrid output.
    fn evaluate_probe(&self, probe: &QueryProbe, row: &mut [f32]) -> (ProbeQuality, Vec<f32>) {
        let q_signs = self.rotation.signs(&probe.q);

        // Sparse pipeline over the region: one PFU epoch per 128-key block
        // off the packed arena; every key is ranked for the exact
        // (true_top) side while survivors also feed the hybrid heap, in
        // ascending key order.
        let mut top = TopK::new(self.top_k);
        let mut true_top = TopK::new(self.top_k);
        let mut scored = 0u64;
        let mut block = self.sinks_end;
        while block < self.window_start {
            let block_end = (block + PFU_BLOCK_KEYS).min(self.window_start);
            let bitmap =
                filter_block_packed(&q_signs, self.key_signs, block..block_end, self.threshold);
            for (j, &s) in row[block..block_end].iter().enumerate() {
                true_top.push(s, block + j);
                if bitmap >> j & 1 == 1 {
                    scored += 1;
                    top.push(s, block + j);
                }
            }
            block = block_end;
        }
        let retrieved: Vec<usize> = top.into_sorted_vec().iter().map(|s| s.index).collect();
        let exact = true_top.into_sorted_vec();

        let n = row.len();
        let mut candidates: Vec<usize> = (0..self.sinks_end).collect();
        candidates.extend(retrieved.iter().copied());
        candidates.extend(self.window_start..n);
        candidates.sort_unstable();

        // Exact top-k keys all lie in the region, where the candidate set
        // holds exactly the retrieved keys, so a binary search of the
        // sorted candidates counts `exact ∩ retrieved`.
        let topk_hits = exact
            .iter()
            .filter(|s| candidates.binary_search(&s.index).is_ok())
            .count();
        let gt_hits = probe
            .relevant
            .iter()
            .filter(|i| candidates.binary_search(i).is_ok())
            .count();

        let hybrid_scores: Vec<f32> = candidates.iter().map(|&i| row[i] * self.scale).collect();
        let hybrid_out = attend_with_scores(self.values, &candidates, &hybrid_scores);

        for s in row.iter_mut() {
            *s *= self.scale;
        }
        vecops::softmax_in_place(row);

        let quality = ProbeQuality {
            topk_hits,
            topk_total: exact.len(),
            gt_hits,
            gt_total: probe.relevant.len(),
            rel_err: 0.0,
            scored,
            retrieved: retrieved.len() as u64,
        };
        (quality, hybrid_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_model::tracegen::{generate_head_trace, TraceConfig};
    use longsight_tensor::SimRng;

    fn trace() -> HeadTrace {
        let mut rng = SimRng::seed_from(42);
        generate_head_trace(&TraceConfig::llama_like(64, 4096), &mut rng)
    }

    #[test]
    fn zero_threshold_full_k_gives_perfect_topk_recall() {
        let t = trace();
        let q = evaluate_trace(
            &t,
            &ItqRotation::identity(64),
            &HybridConfig {
                window: 1024,
                sinks: 16,
                top_k: 1024,
            },
            0,
        );
        assert!(
            (q.topk_recall - 1.0).abs() < 1e-12,
            "recall {}",
            q.topk_recall
        );
        assert!(q.output_rel_err < 0.2, "output error {}", q.output_rel_err);
    }

    #[test]
    fn impossible_threshold_kills_recall() {
        let t = trace();
        let q = evaluate_trace(
            &t,
            &ItqRotation::identity(64),
            &HybridConfig {
                window: 256,
                sinks: 16,
                top_k: 512,
            },
            65, // > head_dim: nothing passes
        );
        assert_eq!(q.stats.scored, 0);
        assert!(q.topk_recall < 1e-9);
    }

    #[test]
    fn higher_threshold_means_higher_filter_ratio() {
        let t = trace();
        let cfg = HybridConfig {
            window: 512,
            sinks: 16,
            top_k: 256,
        };
        let rot = ItqRotation::identity(64);
        let low = evaluate_trace(&t, &rot, &cfg, 20);
        let high = evaluate_trace(&t, &rot, &cfg, 40);
        assert!(
            high.stats.filter_ratio_nonwindow() >= low.stats.filter_ratio_nonwindow(),
            "raising the threshold must not lower the filter ratio"
        );
    }

    #[test]
    fn window_contributes_to_ground_truth_recall() {
        let t = trace();
        // Even with the sparse path disabled (impossible threshold), the
        // window catches the recent share of relevant positions.
        let q = evaluate_trace(
            &t,
            &ItqRotation::identity(64),
            &HybridConfig {
                window: 1024,
                sinks: 16,
                top_k: 64,
            },
            65,
        );
        assert!(q.ground_truth_recall > 0.0);
        assert!(q.ground_truth_recall < 1.0);
    }
}
