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
//! # Score once, sweep thresholds
//!
//! Most of an evaluation does not depend on the SCF threshold, so it is
//! split in two, as DReX writes each key's sign bits once and answers every
//! decode step from that store (paper §5–6):
//!
//! * [`TraceSweep::new`] does the threshold-independent work once: it packs
//!   every key's rotated sign bits, scores each probe against every key,
//!   and keeps each probe's raw scores, its exact top-k over the sparse
//!   region and its dense attention output.
//! * [`TraceSweep::evaluate`] does the rest per threshold: the SCF scan, the
//!   hybrid top-k over the survivors, the candidate set and the hybrid
//!   output.
//!
//! [`evaluate_trace`] is one `new` and one `evaluate`. A Fig 3/4/10 sweep
//! builds one [`TraceSweep`] per configuration and evaluates each of its
//! thresholds against it.
//!
//! Probes run in blocks of `PROBE_BLOCK` = 4: one pass over the key store
//! fills every probe's raw scores with [`vecops::dot_batch`], which runs the
//! four probes' independent add chains interleaved, and one pass over the
//! value store accumulates every probe's dense output. Both top-k lists are
//! selected in one batch by [`select_top_k`] rather than streamed through a
//! heap. The key rotation and both passes are tensor kernels
//! ([`SignArena::push_rotated`] per chunk, [`vecops::dot_batch_rows`] and
//! [`vecops::axpy_rows`] per probe block) that run an AVX2 build, with the
//! same bits, on hosts that have it. On the trace_sweep shape (32K keys,
//! `d = 128`, 32 probes) at one worker thread, one sweep over eight
//! thresholds takes ~0.37 s against ~1.7 s for eight [`evaluate_trace`]
//! calls; of the sweep, the rotation takes ~94 ms, the score pass ~41 ms,
//! the value pass ~35 ms and the eight evaluations ~173 ms (`DESIGN.md`
//! §4).
//!
//! Every metric is bit-identical to per-probe attention over
//! [`longsight_model::attend_over_kv`]: the softmax inputs are the same
//! `dot(q, k) * scale` products, the softmax runs over the same slice, every
//! output still accumulates its value rows in ascending index order, and
//! the selected top-k lists equal the heaps' in content and order. Per-probe
//! results are folded in probe order, so every metric is bit-identical at
//! any thread count.

use crate::hybrid::HybridConfig;
use crate::itq::ItqRotation;
use crate::scf::{filter_block_packed, PFU_BLOCK_KEYS};
use crate::stats::FilterStats;
use longsight_model::attend_with_scores;
use longsight_model::tracegen::{HeadTrace, QueryProbe};
use longsight_tensor::{select_top_k, vecops, FlatVecs, ScoredIndex, SignArena, SignBits};

/// Probes that share one pass over the key store and one over the value
/// store ([`vecops::DOT_BATCH`] rows per score call).
const PROBE_BLOCK: usize = vecops::DOT_BATCH;

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

/// Why [`TraceSweep::new`] rejects a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The trace holds no keys.
    EmptyTrace,
    /// The rotation's dimension differs from the trace's key dimension.
    DimensionMismatch {
        /// The rotation's dimension.
        rotation: usize,
        /// The trace's key dimension.
        trace: usize,
    },
    /// A key, value or query holds a NaN or an infinity. Such a score has
    /// no rank: its sign, and so its place in a top-k, depends on the
    /// kernel that computed it.
    NonFinite {
        /// `"keys"`, `"values"` or `"queries"`.
        array: &'static str,
        /// The first row (for queries, the probe) holding the non-finite
        /// element; the row count when every element is finite but a score
        /// or the dense output overflowed.
        index: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::EmptyTrace => write!(f, "empty trace"),
            TraceError::DimensionMismatch { rotation, trace } => write!(
                f,
                "rotation dimension mismatch: rotation {rotation}, trace keys {trace}"
            ),
            TraceError::NonFinite { array, index } => {
                write!(f, "non-finite element in {array} row {index}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

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

/// One probe's threshold-independent state.
struct ProbeScores<'a> {
    probe: &'a QueryProbe,
    /// The rotated query's sign bits.
    signs: SignBits,
    /// Raw `q · k` with every key, in key order.
    raw: Vec<f32>,
    /// The exact top-k of the sparse region by raw score.
    exact: Vec<usize>,
    /// Dense attention output over every key.
    dense: Vec<f32>,
    /// `l2_norm(dense)`, floored at `1e-12`: the relative-error denominator.
    dense_norm: f32,
}

/// A head trace scored once for a sweep of SCF thresholds under one
/// [`HybridConfig`].
///
/// # Example
///
/// ```
/// use longsight_core::trace_eval::{evaluate_trace, TraceSweep};
/// use longsight_core::{HybridConfig, ItqRotation};
/// use longsight_model::tracegen::{generate_head_trace, TraceConfig};
/// use longsight_tensor::SimRng;
///
/// let trace = generate_head_trace(&TraceConfig::llama_like(64, 1024), &mut SimRng::seed_from(1));
/// let rotation = ItqRotation::identity(64);
/// let config = HybridConfig { window: 256, sinks: 16, top_k: 64 };
/// let sweep = TraceSweep::new(&trace, &rotation, &config)?;
/// for threshold in [24, 32, 40] {
///     let q = sweep.evaluate(threshold);
///     let once = evaluate_trace(&trace, &rotation, &config, threshold);
///     assert_eq!(q.output_rel_err.to_bits(), once.output_rel_err.to_bits());
/// }
/// # Ok::<(), longsight_core::trace_eval::TraceError>(())
/// ```
pub struct TraceSweep<'a> {
    values: &'a FlatVecs,
    /// Keys in the trace.
    n: usize,
    /// Every key's rotated sign bits (the Key Sign Object region the PFUs
    /// scan).
    key_signs: SignArena,
    top_k: usize,
    sinks_end: usize,
    window_start: usize,
    scale: f32,
    probes: Vec<ProbeScores<'a>>,
}

impl std::fmt::Debug for TraceSweep<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSweep")
            .field("keys", &self.n)
            .field("probes", &self.probes.len())
            .field("top_k", &self.top_k)
            .field("sinks_end", &self.sinks_end)
            .field("window_start", &self.window_start)
            .finish_non_exhaustive()
    }
}

/// Runs the hybrid pipeline over every query probe of `trace`:
/// [`TraceSweep::new`], then [`TraceSweep::evaluate`] at `threshold`.
///
/// `rotation` is applied to queries and keys before sign extraction (pass
/// [`ItqRotation::identity`] for raw SCF); `threshold` is this head's SCF
/// threshold. To evaluate several thresholds of one configuration, build
/// one [`TraceSweep`] instead.
///
/// # Panics
///
/// Panics with the [`TraceError`] that [`TraceSweep::new`] returns: the
/// trace is empty, the rotation dimension mismatches, or a key, value or
/// query is not finite.
pub fn evaluate_trace(
    trace: &HeadTrace,
    rotation: &ItqRotation,
    config: &HybridConfig,
    threshold: u32,
) -> TraceQuality {
    match TraceSweep::new(trace, rotation, config) {
        Ok(sweep) => sweep.evaluate(threshold),
        Err(e) => panic!("evaluate_trace: {e}"),
    }
}

impl<'a> TraceSweep<'a> {
    /// Packs the keys' sign bits and scores every probe of `trace` against
    /// every key under `config`.
    ///
    /// # Errors
    ///
    /// [`TraceError::EmptyTrace`] if the trace has no keys,
    /// [`TraceError::DimensionMismatch`] if `rotation`'s dimension is not
    /// the trace's key dimension, and [`TraceError::NonFinite`] if a key,
    /// value or query holds a NaN or an infinity.
    pub fn new(
        trace: &'a HeadTrace,
        rotation: &ItqRotation,
        config: &HybridConfig,
    ) -> Result<Self, TraceError> {
        if trace.is_empty() {
            return Err(TraceError::EmptyTrace);
        }
        let n = trace.len();
        let d = trace.keys.dim();
        if rotation.dim() != d {
            return Err(TraceError::DimensionMismatch {
                rotation: rotation.dim(),
                trace: d,
            });
        }
        let queries = trace.queries.iter().map(|p| p.q.as_slice());
        if let Some(index) = first_non_finite(queries) {
            return Err(TraceError::NonFinite {
                array: "queries",
                index,
            });
        }
        // The probe passes check the keys and values they read; a trace
        // without probes runs none, so its arrays are scanned here.
        if trace.queries.is_empty() {
            for (array, rows) in [("keys", &trace.keys), ("values", &trace.values)] {
                if let Some(index) = first_non_finite(rows.iter()) {
                    return Err(TraceError::NonFinite { array, index });
                }
            }
        }

        let mut key_signs = SignArena::new(d);
        rotation.rotate_and_pack(trace.keys.slice(0..n), &mut key_signs);
        let window_start = n.saturating_sub(config.window);
        let mut sweep = Self {
            values: &trace.values,
            n,
            key_signs,
            top_k: config.top_k,
            sinks_end: config.sinks.min(window_start),
            window_start,
            scale: 1.0 / (d as f32).sqrt(),
            probes: Vec::new(),
        };

        // Probe blocks are independent, so they run on the deterministic
        // parallel map; results come back in probe order.
        let probes = &trace.queries;
        let blocks = longsight_exec::map_range(probes.len().div_ceil(PROBE_BLOCK), |b| {
            let end = ((b + 1) * PROBE_BLOCK).min(probes.len());
            sweep.score_block(&trace.keys, rotation, &probes[b * PROBE_BLOCK..end])
        });
        for block in blocks {
            sweep.probes.extend(block?);
        }
        Ok(sweep)
    }

    /// The pipeline's quality at SCF `threshold`.
    pub fn evaluate(&self, threshold: u32) -> TraceQuality {
        // Probes are folded serially in probe order, which keeps the
        // floating-point `err_sum` reduction order — and therefore every
        // metric — bit-identical at any thread count.
        let per_probe = longsight_exec::map_range(self.probes.len(), |p| {
            self.evaluate_probe(&self.probes[p], threshold)
        });

        let n = self.n;
        let region = self.window_start - self.sinks_end;
        let mut stats = FilterStats::new(1, 1);
        let mut topk_hits = 0usize;
        let mut topk_total = 0usize;
        let mut gt_hits = 0usize;
        let mut gt_total = 0usize;
        let mut err_sum = 0.0f64;
        for p in per_probe {
            topk_hits += p.topk_hits;
            topk_total += p.topk_total;
            gt_hits += p.gt_hits;
            gt_total += p.gt_total;
            err_sum += p.rel_err;

            stats.queries += 1;
            stats.dense_kv += n as u64;
            stats.window_accessed += (n - self.window_start) as u64 + self.sinks_end as u64;
            stats.sparse_region += region as u64;
            stats.scored += p.scored;
            stats.retrieved += p.retrieved;
            let ph = &mut stats.per_head[0];
            ph.region += region as u64;
            ph.scored += p.scored;
            ph.retrieved += p.retrieved;
        }

        let probes = self.probes.len().max(1) as f64;
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

    /// Scores one block of at most [`PROBE_BLOCK`] probes: one pass over
    /// the key store for every raw score, one over the value store for
    /// every dense output. With finite queries, a non-finite key makes its
    /// scores non-finite and a non-finite value makes every dense output
    /// non-finite, so checking what the passes write rejects both.
    fn score_block(
        &self,
        keys: &FlatVecs,
        rotation: &ItqRotation,
        probes: &'a [QueryProbe],
    ) -> Result<Vec<ProbeScores<'a>>, TraceError> {
        let n = keys.len();
        let queries: Vec<&[f32]> = probes.iter().map(|p| p.q.as_slice()).collect();
        let mut raw = vec![vec![0.0f32; n]; probes.len()];
        vecops::dot_batch_rows(&queries, keys, &mut raw);
        if raw.iter().flatten().any(|s| !s.is_finite()) {
            let index = first_non_finite(keys.iter()).unwrap_or(n);
            return Err(TraceError::NonFinite {
                array: "keys",
                index,
            });
        }

        // Dense softmax weights, then one value pass in which every probe's
        // output accumulates the value rows in ascending order.
        let weights: Vec<Vec<f32>> = raw
            .iter()
            .map(|row| {
                let mut w: Vec<f32> = row.iter().map(|s| s * self.scale).collect();
                vecops::softmax_in_place(&mut w);
                w
            })
            .collect();
        let mut dense = vec![vec![0.0f32; self.values.dim()]; probes.len()];
        vecops::axpy_rows(&weights, self.values, &mut dense);
        if dense.iter().flatten().any(|x| !x.is_finite()) {
            let index = first_non_finite(self.values.iter()).unwrap_or(n);
            return Err(TraceError::NonFinite {
                array: "values",
                index,
            });
        }

        Ok(probes
            .iter()
            .zip(raw)
            .zip(dense)
            .map(|((probe, raw), dense)| {
                let region = raw[self.sinks_end..self.window_start]
                    .iter()
                    .enumerate()
                    .map(|(j, &s)| ScoredIndex::new(s, self.sinks_end + j))
                    .collect();
                // Collected by reference: an in-place `into_iter` collect
                // would keep the whole region's allocation per probe.
                let exact = select_top_k(region, self.top_k)
                    .iter()
                    .map(|s| s.index)
                    .collect();
                ProbeScores {
                    probe,
                    signs: rotation.signs(&probe.q),
                    raw,
                    exact,
                    dense_norm: vecops::l2_norm(&dense).max(1e-12),
                    dense,
                }
            })
            .collect())
    }

    /// One probe's sparse pipeline at `threshold`, read off its raw scores.
    fn evaluate_probe(&self, probe: &ProbeScores, threshold: u32) -> ProbeQuality {
        let row = &probe.raw;

        // One PFU epoch per 128-key block off the packed arena; survivors
        // keep their raw scores for the hybrid top-k.
        let mut survivors = Vec::new();
        let mut block = self.sinks_end;
        while block < self.window_start {
            let block_end = (block + PFU_BLOCK_KEYS).min(self.window_start);
            let mut bitmap =
                filter_block_packed(&probe.signs, &self.key_signs, block..block_end, threshold);
            while bitmap != 0 {
                let i = block + bitmap.trailing_zeros() as usize;
                survivors.push(ScoredIndex::new(row[i], i));
                bitmap &= bitmap - 1;
            }
            block = block_end;
        }
        let scored = survivors.len() as u64;
        let mut retrieved: Vec<usize> = select_top_k(survivors, self.top_k)
            .iter()
            .map(|s| s.index)
            .collect();
        retrieved.sort_unstable();

        // Sinks, retrieved region keys and the window are disjoint ranges
        // in this order, so the candidates come out sorted.
        let mut candidates: Vec<usize> = (0..self.sinks_end).collect();
        candidates.extend(&retrieved);
        candidates.extend(self.window_start..self.n);

        // Exact top-k keys all lie in the region, where the candidate set
        // holds exactly the retrieved keys.
        let topk_hits = probe
            .exact
            .iter()
            .filter(|i| retrieved.binary_search(i).is_ok())
            .count();
        let gt_hits = probe
            .probe
            .relevant
            .iter()
            .filter(|i| candidates.binary_search(i).is_ok())
            .count();

        let hybrid_scores: Vec<f32> = candidates.iter().map(|&i| row[i] * self.scale).collect();
        let hybrid_out = attend_with_scores(self.values, &candidates, &hybrid_scores);
        let diff: f32 = hybrid_out
            .iter()
            .zip(&probe.dense)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();

        ProbeQuality {
            topk_hits,
            topk_total: probe.exact.len(),
            gt_hits,
            gt_total: probe.probe.relevant.len(),
            rel_err: (diff / probe.dense_norm) as f64,
            scored,
            retrieved: retrieved.len() as u64,
        }
    }
}

/// The index of the first row holding a NaN or an infinity.
fn first_non_finite<'r>(rows: impl IntoIterator<Item = &'r [f32]>) -> Option<usize> {
    rows.into_iter()
        .position(|r| r.iter().any(|x| !x.is_finite()))
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
    fn empty_trace_is_an_error() {
        let empty = HeadTrace {
            keys: FlatVecs::new(64),
            values: FlatVecs::new(64),
            queries: Vec::new(),
        };
        let got = TraceSweep::new(
            &empty,
            &ItqRotation::identity(64),
            &HybridConfig::paper_default(),
        );
        assert_eq!(got.unwrap_err(), TraceError::EmptyTrace);
    }

    #[test]
    fn rotation_dimension_mismatch_is_an_error() {
        let t = trace();
        let got = TraceSweep::new(
            &t,
            &ItqRotation::identity(32),
            &HybridConfig::paper_default(),
        );
        assert_eq!(
            got.unwrap_err(),
            TraceError::DimensionMismatch {
                rotation: 32,
                trace: 64
            }
        );
    }

    #[test]
    #[should_panic(expected = "evaluate_trace: rotation dimension mismatch")]
    fn evaluate_trace_panics_with_the_error() {
        evaluate_trace(
            &trace(),
            &ItqRotation::identity(32),
            &HybridConfig::paper_default(),
            0,
        );
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
