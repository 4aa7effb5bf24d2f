//! The attention backend abstraction and reference backends.
//!
//! The transformer forward pass is generic over *how* attention over the KV
//! history is computed. The paper's `LongSightAttn` module "directly replaces
//! the Llama 3 attention module" (§A.1); here the same pluggability is the
//! [`AttentionBackend`] trait. `longsight-core` provides the hybrid
//! dense–sparse backend; this module provides the two reference points the
//! paper compares against:
//!
//! * [`DenseBackend`] — exact full attention (the quality ceiling),
//! * [`SlidingWindowBackend`] — window + attention-sink attention
//!   (StreamingLLM-style, the paper's software baseline in Fig 10).

use crate::kv::HeadKv;
use longsight_tensor::{vecops, FlatVecs};

/// One grouped-query attention request: all query heads that share a single
/// KV head, for one token position in one layer.
#[derive(Debug)]
pub struct AttentionRequest<'a> {
    /// Decoder layer index.
    pub layer: usize,
    /// KV head index within the layer.
    pub kv_head: usize,
    /// Token position of the query (the history has `position + 1` entries).
    pub position: usize,
    /// Post-RoPE query vectors, one per query head in the GQA group.
    pub queries: &'a [Vec<f32>],
    /// Key/value history for this `(layer, kv_head)`, including the current
    /// token.
    pub history: &'a HeadKv,
    /// Score scale, conventionally `1 / sqrt(head_dim)`.
    pub scale: f32,
}

/// A strategy for computing attention over the KV history.
///
/// Implementations receive `&mut self` so they can accumulate statistics
/// (e.g. filter ratios) or maintain device-side state across tokens.
pub trait AttentionBackend {
    /// Computes the attention output for each query head in the request's
    /// group. Each output has the head dimension.
    fn attend(&mut self, req: &AttentionRequest<'_>) -> Vec<Vec<f32>>;

    /// Short human-readable label for reports.
    fn label(&self) -> String;

    /// Called when a sequence ends; backends with per-sequence state reset
    /// here. The default does nothing.
    fn reset(&mut self) {}
}

/// Computes softmax attention over an explicit set of candidate token
/// indices of a [`HeadKv`] history.
///
/// Shared by every backend: dense attention passes `0..=position`, sparse
/// backends pass the union of window, sinks, and retrieved top-k indices.
/// Delegates to [`attend_over_kv`].
///
/// # Panics
///
/// Panics if `candidates` is empty or contains an index beyond the history.
pub fn attend_over_indices(
    q: &[f32],
    history: &HeadKv,
    candidates: &[usize],
    scale: f32,
) -> Vec<f32> {
    attend_over_kv(q, history.keys(), history.values(), candidates, scale)
}

/// The attention kernel: softmax attention of `q` over the candidate rows
/// of borrowed key and value stores (e.g. a trace's, with no copy into a
/// [`HeadKv`]).
///
/// # Panics
///
/// Panics if `candidates` is empty or contains an index beyond either store.
pub fn attend_over_kv(
    q: &[f32],
    keys: &FlatVecs,
    values: &FlatVecs,
    candidates: &[usize],
    scale: f32,
) -> Vec<f32> {
    assert!(
        !candidates.is_empty(),
        "attention needs at least one candidate"
    );
    let mut scores: Vec<f32> = candidates
        .iter()
        .map(|&i| vecops::dot(q, keys.get(i)) * scale)
        .collect();
    vecops::softmax_in_place(&mut scores);
    let mut out = vec![0.0f32; values.dim()];
    for (&i, &w) in candidates.iter().zip(&scores) {
        vecops::axpy(w, values.get(i), &mut out);
    }
    out
}

/// Computes softmax attention from precomputed raw scores over candidate
/// indices (used when scores were produced elsewhere, e.g. returned by the
/// simulated DReX device).
///
/// # Panics
///
/// Panics if lengths mismatch or `candidates` is empty.
pub fn attend_with_scores(history: &HeadKv, candidates: &[usize], raw_scores: &[f32]) -> Vec<f32> {
    assert_eq!(
        candidates.len(),
        raw_scores.len(),
        "score/candidate length mismatch"
    );
    assert!(
        !candidates.is_empty(),
        "attention needs at least one candidate"
    );
    let values = history.values();
    let mut weights = raw_scores.to_vec();
    vecops::softmax_in_place(&mut weights);
    let mut out = vec![0.0f32; values.dim()];
    for (&i, &w) in candidates.iter().zip(&weights) {
        vecops::axpy(w, values.get(i), &mut out);
    }
    out
}

/// Exact full (dense) attention over the entire history.
#[derive(Debug, Clone, Default)]
pub struct DenseBackend;

impl DenseBackend {
    /// Creates the dense backend.
    pub fn new() -> Self {
        Self
    }
}

impl AttentionBackend for DenseBackend {
    fn attend(&mut self, req: &AttentionRequest<'_>) -> Vec<Vec<f32>> {
        let candidates: Vec<usize> = (0..=req.position).collect();
        req.queries
            .iter()
            .map(|q| attend_over_indices(q, req.history, &candidates, req.scale))
            .collect()
    }

    fn label(&self) -> String {
        "dense".into()
    }
}

/// Sliding-window attention with attention-sink tokens (StreamingLLM-style).
///
/// Attends to the `sinks` earliest tokens plus the `window` most recent
/// tokens. This is the paper's software baseline: cheap, hardware friendly,
/// but blind to long-range dependencies outside the window.
#[derive(Debug, Clone)]
pub struct SlidingWindowBackend {
    window: usize,
    sinks: usize,
}

impl SlidingWindowBackend {
    /// Creates a backend with the given window size and sink-token count.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` (a query must at least see itself).
    pub fn new(window: usize, sinks: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self { window, sinks }
    }

    /// The candidate set for a query at `position`: sinks ∪ recent window.
    pub fn candidates(&self, position: usize) -> Vec<usize> {
        let total = position + 1;
        let window_start = total.saturating_sub(self.window);
        let mut c: Vec<usize> = (0..self.sinks.min(window_start)).collect();
        c.extend(window_start..total);
        c
    }
}

impl AttentionBackend for SlidingWindowBackend {
    fn attend(&mut self, req: &AttentionRequest<'_>) -> Vec<Vec<f32>> {
        let candidates = self.candidates(req.position);
        req.queries
            .iter()
            .map(|q| attend_over_indices(q, req.history, &candidates, req.scale))
            .collect()
    }

    fn label(&self) -> String {
        format!("window(W={},sinks={})", self.window, self.sinks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_with(n: usize, dim: usize) -> HeadKv {
        let mut h = HeadKv::new(dim);
        for i in 0..n {
            let k: Vec<f32> = (0..dim).map(|d| ((i * 7 + d) as f32 * 0.3).sin()).collect();
            let v: Vec<f32> = (0..dim).map(|d| ((i * 3 + d) as f32 * 0.5).cos()).collect();
            h.push(&k, &v);
        }
        h
    }

    #[test]
    fn dense_attention_weights_sum_applies_values() {
        let h = history_with(4, 8);
        let q = vec![0.5; 8];
        let out = attend_over_indices(&q, &h, &[0, 1, 2, 3], 0.35);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn single_candidate_returns_its_value() {
        let h = history_with(3, 4);
        let q = vec![1.0; 4];
        let out = attend_over_indices(&q, &h, &[2], 0.5);
        assert_eq!(out, h.values().get(2));
    }

    #[test]
    fn window_candidates_include_sinks_and_recent() {
        let b = SlidingWindowBackend::new(3, 2);
        // pos 9 → tokens 0..=9, window covers 7, 8, 9; sinks 0, 1.
        assert_eq!(b.candidates(9), vec![0, 1, 7, 8, 9]);
        // Early positions: window covers everything; no duplicated sinks.
        assert_eq!(b.candidates(1), vec![0, 1]);
        assert_eq!(b.candidates(3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn window_equals_dense_when_window_covers_history() {
        let h = history_with(5, 8);
        let q = vec![vec![0.1; 8], vec![-0.2; 8]];
        let req = AttentionRequest {
            layer: 0,
            kv_head: 0,
            position: 4,
            queries: &q,
            history: &h,
            scale: 0.35,
        };
        let dense = DenseBackend::new().attend(&req);
        let windowed = SlidingWindowBackend::new(100, 0).attend(&req);
        for (a, b) in dense.iter().zip(&windowed) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn attend_with_scores_matches_attend_over_indices() {
        let h = history_with(6, 8);
        let q = vec![0.3; 8];
        let cands = vec![1usize, 3, 5];
        let scale = 0.35;
        let raw: Vec<f32> = cands
            .iter()
            .map(|&i| vecops::dot(&q, h.keys().get(i)) * scale)
            .collect();
        let a = attend_over_indices(&q, &h, &cands, scale);
        let b = attend_with_scores(&h, &cands, &raw);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
