//! Long-context Q/K/V trace generation.
//!
//! The quality experiments at 32K–128K+ context (paper Figs 3 and 4) need
//! key/query streams with realistic geometry, but a full forward pass at
//! those lengths is quadratic and needlessly slow — the filtering pipeline
//! only ever sees *post-projection, post-RoPE* queries and keys. This module
//! generates such streams directly, with the properties the paper's analysis
//! hinges on:
//!
//! * **Clustering + DC offset** — LLaMA K/Q representations are strongly
//!   clustered and anisotropic (§5.4), which is what defeats raw
//!   sign-concordance filtering and is fixed by ITQ. Keys here are drawn from
//!   a Gaussian mixture around a shared offset direction.
//! * **Sparse ground-truth relevance** — attention mass concentrates on a
//!   small set of past tokens whose keys have high dot-product similarity
//!   with the query (§1, corroborating \[12\]). Each generated query embeds a
//!   known set of relevant positions, giving exact recall ground truth.
//! * **RoPE** — content-matching energy lives in the low-frequency rotary
//!   dimensions (as in trained retrieval heads), so relevance survives
//!   rotation while the high-frequency dimensions decorrelate with distance.

use crate::Rope;
use longsight_tensor::{FlatVecs, SimRng};
use std::ops::Range;

/// Keys per generation chunk. The generator is snapshotted at each chunk's
/// first key, so chunks are generated independently.
const CHUNK_KEYS: usize = 256;

/// Chunks generated per round on the worker pool: ~4 MB of keys and values
/// at `head_dim = 128`, so the chunk buffers stay small next to the trace.
const WAVE_CHUNKS: usize = 16;

/// Parameters of the trace generator.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Head dimension of keys/queries/values.
    pub head_dim: usize,
    /// Number of past tokens (keys) to generate.
    pub context_len: usize,
    /// Number of identity clusters keys are drawn from.
    pub clusters: usize,
    /// Magnitude of the shared DC offset (anisotropy knob; 0 = isotropic).
    pub dc_magnitude: f32,
    /// Within-cluster key noise.
    pub cluster_spread: f32,
    /// How many past positions each query genuinely attends to.
    pub relevant_per_query: usize,
    /// Weight of the relevant-key component in the query.
    pub relevance_strength: f32,
    /// Number of query probes to generate.
    pub queries: usize,
    /// RoPE base; `None` disables rotation.
    pub rope_theta: Option<f64>,
}

impl TraceConfig {
    /// A default configuration mirroring a Llama-3-8B KV head
    /// (`head_dim = 128`) at the given context length.
    pub fn llama_like(head_dim: usize, context_len: usize) -> Self {
        Self {
            head_dim,
            context_len,
            clusters: 48,
            dc_magnitude: 2.5,
            cluster_spread: 0.9,
            relevant_per_query: 4,
            relevance_strength: 3.0,
            queries: 32,
            rope_theta: Some(500_000.0),
        }
    }
}

/// One query probe with ground-truth relevant positions.
#[derive(Debug, Clone)]
pub struct QueryProbe {
    /// Query token position; the query may attend to keys `0..position`.
    pub position: usize,
    /// The (post-RoPE) query vector.
    pub q: Vec<f32>,
    /// Ground-truth relevant key positions (all `< position`).
    pub relevant: Vec<usize>,
}

/// A generated key/value stream plus query probes for one attention head.
#[derive(Debug, Clone)]
pub struct HeadTrace {
    /// Post-RoPE keys, one per past token.
    pub keys: FlatVecs,
    /// Values, one per past token.
    pub values: FlatVecs,
    /// Query probes.
    pub queries: Vec<QueryProbe>,
}

impl HeadTrace {
    /// Context length (number of keys).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Why [`try_generate_head_trace`] rejects a [`TraceConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceGenError {
    /// `context_len` is below 2.
    ContextTooShort {
        /// The configured context length.
        context_len: usize,
    },
    /// `head_dim` is zero or odd: RoPE rotates dimensions in pairs.
    OddHeadDim {
        /// The configured head dimension.
        head_dim: usize,
    },
    /// `relevant_per_query` is not below `context_len`, so a query cannot
    /// draw that many distinct past positions.
    TooManyRelevant {
        /// The configured relevant positions per query.
        relevant_per_query: usize,
        /// The configured context length.
        context_len: usize,
    },
    /// A magnitude is NaN or infinite, which would make every key or
    /// query it scales non-finite.
    NonFinite {
        /// `"dc_magnitude"`, `"cluster_spread"` or `"relevance_strength"`.
        field: &'static str,
        /// The configured value.
        value: f32,
    },
    /// `rope_theta` is not a finite positive base.
    BadRopeTheta {
        /// The configured base.
        theta: f64,
    },
}

impl std::fmt::Display for TraceGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceGenError::ContextTooShort { context_len } => {
                write!(f, "context too short: {context_len} tokens, need at least 2")
            }
            TraceGenError::OddHeadDim { head_dim } => {
                write!(f, "head_dim must be even and positive for RoPE, got {head_dim}")
            }
            TraceGenError::TooManyRelevant {
                relevant_per_query,
                context_len,
            } => write!(
                f,
                "relevant_per_query must be below context_len: {relevant_per_query} >= {context_len}"
            ),
            TraceGenError::NonFinite { field, value } => {
                write!(f, "{field} must be finite, got {value}")
            }
            TraceGenError::BadRopeTheta { theta } => {
                write!(f, "rope_theta must be finite and positive, got {theta}")
            }
        }
    }
}

impl std::error::Error for TraceGenError {}

/// Generates a head trace: [`try_generate_head_trace`], panicking on a
/// rejected configuration.
///
/// # Panics
///
/// Panics with the [`TraceGenError`] that [`try_generate_head_trace`]
/// returns.
pub fn generate_head_trace(cfg: &TraceConfig, rng: &mut SimRng) -> HeadTrace {
    match try_generate_head_trace(cfg, rng) {
        Ok(trace) => trace,
        Err(e) => panic!("generate_head_trace: {e}"),
    }
}

/// Generates a head trace, or says why `cfg` cannot give one.
///
/// A rejected configuration draws nothing from `rng`. Keys and values are
/// generated in chunks on the deterministic worker pool, each from a
/// snapshot of `rng` at its first key, so the trace, and the state `rng` is
/// left in, are bit-identical to one serial pass at any thread count.
///
/// # Errors
///
/// [`TraceGenError::ContextTooShort`] if `context_len < 2`,
/// [`TraceGenError::OddHeadDim`] if `head_dim` is zero or odd,
/// [`TraceGenError::TooManyRelevant`] if `relevant_per_query >=
/// context_len`, [`TraceGenError::NonFinite`] if `dc_magnitude`,
/// `cluster_spread` or `relevance_strength` is NaN or infinite, and
/// [`TraceGenError::BadRopeTheta`] if `rope_theta` is `Some` of a
/// non-finite or non-positive base.
pub fn try_generate_head_trace(
    cfg: &TraceConfig,
    rng: &mut SimRng,
) -> Result<HeadTrace, TraceGenError> {
    if cfg.context_len < 2 {
        return Err(TraceGenError::ContextTooShort {
            context_len: cfg.context_len,
        });
    }
    if cfg.head_dim == 0 || !cfg.head_dim.is_multiple_of(2) {
        return Err(TraceGenError::OddHeadDim {
            head_dim: cfg.head_dim,
        });
    }
    if cfg.relevant_per_query >= cfg.context_len {
        return Err(TraceGenError::TooManyRelevant {
            relevant_per_query: cfg.relevant_per_query,
            context_len: cfg.context_len,
        });
    }
    for (field, value) in [
        ("dc_magnitude", cfg.dc_magnitude),
        ("cluster_spread", cfg.cluster_spread),
        ("relevance_strength", cfg.relevance_strength),
    ] {
        if !value.is_finite() {
            return Err(TraceGenError::NonFinite { field, value });
        }
    }
    if let Some(theta) = cfg.rope_theta {
        if !(theta.is_finite() && theta > 0.0) {
            return Err(TraceGenError::BadRopeTheta { theta });
        }
    }
    let d = cfg.head_dim;
    let rope = cfg.rope_theta.map(|t| Rope::new(d, t));

    // Content mask: the low-frequency half of each rotary pair carries the
    // cluster/relevance content; high-frequency dims carry filler.
    let half = d / 2;
    let low_start = half / 2; // pairs with index >= half/2 rotate slowly
    let content: Vec<bool> = (0..d).map(|i| i % half >= low_start).collect();

    // Shared DC direction, confined to a *sparse* subset of content dims so
    // the per-dimension offset is large — this is what skews sign-bit
    // distributions the way real LLaMA keys are skewed (§5.4). It also
    // survives RoPE (content dims rotate slowly).
    let mut dc = vec![0.0f32; d];
    let content_dims: Vec<usize> = (0..d).filter(|&i| content[i]).collect();
    let dc_support = (content_dims.len() / 4).max(1);
    for _ in 0..dc_support {
        let i = content_dims[rng.below(content_dims.len())];
        dc[i] = rng.normal() as f32;
    }
    longsight_tensor::vecops::normalize_in_place(&mut dc);

    // Cluster centers, in content dims.
    let centers: Vec<Vec<f32>> = (0..cfg.clusters.max(1))
        .map(|_| {
            let mut c = vec![0.0f32; d];
            for (v, &is_content) in c.iter_mut().zip(&content) {
                if is_content {
                    *v = rng.normal() as f32 * 0.5;
                }
            }
            c
        })
        .collect();
    let model = KeyModel {
        content,
        dc,
        centers,
        dc_magnitude: cfg.dc_magnitude,
        cluster_spread: cfg.cluster_spread,
    };

    // Every key draws one `below` and `2·d` normals, so a pass that skips
    // the normals finds where each chunk starts in the stream; the chunks
    // are then generated independently on the worker pool and appended in
    // order. `rng` ends where the serial key loop would leave it.
    let mut snapshots = Vec::with_capacity(cfg.context_len.div_ceil(CHUNK_KEYS));
    for pos in 0..cfg.context_len {
        if pos % CHUNK_KEYS == 0 {
            snapshots.push(rng.clone());
        }
        model.skip_key(rng);
    }
    let mut keys = FlatVecs::with_capacity(d, cfg.context_len);
    let mut values = FlatVecs::with_capacity(d, cfg.context_len);
    for wave in (0..snapshots.len()).step_by(WAVE_CHUNKS) {
        let wave_len = WAVE_CHUNKS.min(snapshots.len() - wave);
        let parts = longsight_exec::map_range(wave_len, |i| {
            let c = wave + i;
            let start = c * CHUNK_KEYS;
            let end = (start + CHUNK_KEYS).min(cfg.context_len);
            model.chunk(&mut snapshots[c].clone(), start..end, rope.as_ref())
        });
        for (part_keys, part_values) in &parts {
            for (k, v) in part_keys.iter().zip(part_values.iter()) {
                keys.push(k);
                values.push(v);
            }
        }
    }

    // Query probes: each targets `relevant_per_query` past keys — a few
    // recent, the rest spread over the whole history (long-range retrieval).
    let mut queries = Vec::with_capacity(cfg.queries);
    for _ in 0..cfg.queries {
        let position = cfg.context_len;
        let mut relevant = Vec::with_capacity(cfg.relevant_per_query);
        while relevant.len() < cfg.relevant_per_query {
            let idx = if rng.coin(0.25) {
                // Recent token.
                position - 1 - rng.below(64.min(position))
            } else {
                rng.below(position)
            };
            if !relevant.contains(&idx) {
                relevant.push(idx);
            }
        }
        relevant.sort_unstable();

        let mut q = vec![0.0f32; d];
        // Content: the (pre-RoPE) sum of relevant keys' content components.
        // Full weight per key (not the mean): each relevant key's individual
        // within-cluster component must stand out over cross-correlation
        // noise from the other keys, which dilution would destroy.
        for &ri in &relevant {
            let k = model.pre_rope_key(&snapshots, ri);
            for ((v, &x), &is_content) in q.iter_mut().zip(&k).zip(&model.content) {
                if is_content {
                    *v += x;
                }
            }
        }
        for (v, &is_content) in q.iter_mut().zip(&model.content) {
            if is_content {
                *v = cfg.relevance_strength * *v + 0.2 * rng.normal() as f32;
            } else {
                *v = 0.6 * rng.normal() as f32;
            }
        }
        if let Some(r) = &rope {
            r.apply_in_place(&mut q, position);
        }
        queries.push(QueryProbe {
            position,
            q,
            relevant,
        });
    }

    Ok(HeadTrace {
        keys,
        values,
        queries,
    })
}

/// What every key and value of one trace is drawn from: the content mask,
/// the DC direction and the cluster centres.
struct KeyModel {
    /// Whether each dimension carries cluster/relevance content.
    content: Vec<bool>,
    dc: Vec<f32>,
    centers: Vec<Vec<f32>>,
    dc_magnitude: f32,
    cluster_spread: f32,
}

impl KeyModel {
    /// Draws one pre-RoPE key: DC + cluster + spread noise (content dims)
    /// + filler (other dims). Returns the key's cluster.
    fn draw_key(&self, rng: &mut SimRng, k: &mut [f32]) -> usize {
        let cluster = rng.below(self.centers.len());
        let center = &self.centers[cluster];
        for (i, v) in k.iter_mut().enumerate() {
            if self.content[i] {
                *v = self.dc_magnitude * self.dc[i]
                    + center[i]
                    + self.cluster_spread * rng.normal() as f32;
            } else {
                *v = 0.6 * rng.normal() as f32;
            }
        }
        cluster
    }

    /// Advances `rng` past one key and its value without computing them.
    fn skip_key(&self, rng: &mut SimRng) {
        rng.below(self.centers.len());
        rng.skip_normals(2 * self.content.len());
    }

    /// Generates keys `range` (RoPE by absolute position) and their values
    /// from `rng`, which stands at the start of the range.
    fn chunk(
        &self,
        rng: &mut SimRng,
        range: Range<usize>,
        rope: Option<&Rope>,
    ) -> (FlatVecs, FlatVecs) {
        let d = self.content.len();
        let mut keys = FlatVecs::with_capacity(d, range.len());
        let mut values = FlatVecs::with_capacity(d, range.len());
        let mut k = vec![0.0f32; d];
        let mut v = vec![0.0f32; d];
        for pos in range {
            let cluster = self.draw_key(rng, &mut k);
            if let Some(r) = rope {
                r.apply_in_place(&mut k, pos);
            }
            keys.push(&k);
            // Values: cluster-correlated plus noise, so attention outputs
            // carry signal about which keys were selected.
            for (x, &c) in v.iter_mut().zip(&self.centers[cluster]) {
                *x = c + 0.3 * rng.normal() as f32;
            }
            values.push(&v);
        }
        (keys, values)
    }

    /// Key `pos` before RoPE, redrawn from the snapshot of its chunk.
    fn pre_rope_key(&self, snapshots: &[SimRng], pos: usize) -> Vec<f32> {
        let mut rng = snapshots[pos / CHUNK_KEYS].clone();
        for _ in 0..pos % CHUNK_KEYS {
            self.skip_key(&mut rng);
        }
        let mut k = vec![0.0f32; self.content.len()];
        self.draw_key(&mut rng, &mut k);
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_tensor::vecops;

    fn small_cfg() -> TraceConfig {
        TraceConfig {
            head_dim: 64,
            context_len: 2048,
            clusters: 16,
            queries: 8,
            ..TraceConfig::llama_like(64, 2048)
        }
    }

    #[test]
    fn trace_has_requested_shape() {
        let mut rng = SimRng::seed_from(1);
        let t = generate_head_trace(&small_cfg(), &mut rng);
        assert_eq!(t.len(), 2048);
        assert_eq!(t.queries.len(), 8);
        assert_eq!(t.queries[0].relevant.len(), 4);
        assert!(t.queries[0].relevant.iter().all(|&i| i < 2048));
    }

    #[test]
    fn relevant_keys_score_higher_than_average() {
        let mut rng = SimRng::seed_from(2);
        let t = generate_head_trace(&small_cfg(), &mut rng);
        for probe in &t.queries {
            let scores: Vec<f32> = t.keys.iter().map(|k| vecops::dot(&probe.q, k)).collect();
            let mean: f32 = scores.iter().sum::<f32>() / scores.len() as f32;
            let rel_mean: f32 = probe.relevant.iter().map(|&i| scores[i]).sum::<f32>()
                / probe.relevant.len() as f32;
            assert!(
                rel_mean > mean,
                "relevant keys should outscore the average: {rel_mean} vs {mean}"
            );
        }
    }

    #[test]
    fn ground_truth_relevant_dominate_topk() {
        // The engineered relevance must be strong enough that exact top-k
        // retrieval finds a large share of the ground truth — otherwise the
        // recall experiments would be measuring noise.
        let mut rng = SimRng::seed_from(3);
        let t = generate_head_trace(&small_cfg(), &mut rng);
        let mut total_hits = 0usize;
        let mut total_rel = 0usize;
        for probe in &t.queries {
            let scores: Vec<f32> = t.keys.iter().map(|k| vecops::dot(&probe.q, k)).collect();
            let top = longsight_tensor::top_k_indices(&scores, 128);
            total_hits += probe.relevant.iter().filter(|i| top.contains(i)).count();
            total_rel += probe.relevant.len();
        }
        let recall = total_hits as f64 / total_rel as f64;
        assert!(
            recall > 0.5,
            "oracle top-128 recall of ground truth too low: {recall}"
        );
    }

    #[test]
    fn dc_offset_skews_sign_bits() {
        // With a strong DC component, some dimensions have heavily imbalanced
        // sign bits across keys — the pathology ITQ corrects.
        let mut rng = SimRng::seed_from(4);
        let t = generate_head_trace(&small_cfg(), &mut rng);
        let d = 64;
        let mut max_imbalance = 0.0f64;
        for dim in 0..d {
            let neg = t.keys.iter().filter(|k| k[dim] < 0.0).count();
            let frac = neg as f64 / t.len() as f64;
            max_imbalance = max_imbalance.max((frac - 0.5).abs());
        }
        assert!(
            max_imbalance > 0.25,
            "expected strongly imbalanced sign dimensions, max imbalance {max_imbalance}"
        );
    }

    /// `small_cfg` with one field changed, through the fallible form.
    fn rejected(edit: impl FnOnce(&mut TraceConfig)) -> TraceGenError {
        let mut cfg = small_cfg();
        edit(&mut cfg);
        let mut rng = SimRng::seed_from(6);
        let mut before = rng.clone();
        let err = try_generate_head_trace(&cfg, &mut rng).unwrap_err();
        assert_eq!(
            rng.next_u64(),
            before.next_u64(),
            "a rejected config must draw nothing"
        );
        err
    }

    #[test]
    fn short_context_is_rejected() {
        assert_eq!(
            rejected(|c| c.context_len = 1),
            TraceGenError::ContextTooShort { context_len: 1 }
        );
    }

    #[test]
    fn odd_or_zero_head_dim_is_rejected() {
        for head_dim in [0, 63] {
            assert_eq!(
                rejected(|c| c.head_dim = head_dim),
                TraceGenError::OddHeadDim { head_dim }
            );
        }
    }

    #[test]
    fn too_many_relevant_positions_are_rejected() {
        assert_eq!(
            rejected(|c| c.relevant_per_query = 2048),
            TraceGenError::TooManyRelevant {
                relevant_per_query: 2048,
                context_len: 2048
            }
        );
    }

    #[test]
    fn non_finite_magnitudes_are_rejected() {
        for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let field = |e: TraceGenError| match e {
                TraceGenError::NonFinite { field, value: v } => {
                    assert_eq!(v.to_bits(), value.to_bits());
                    field
                }
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(field(rejected(|c| c.dc_magnitude = value)), "dc_magnitude");
            assert_eq!(
                field(rejected(|c| c.cluster_spread = value)),
                "cluster_spread"
            );
            assert_eq!(
                field(rejected(|c| c.relevance_strength = value)),
                "relevance_strength"
            );
        }
    }

    #[test]
    fn bad_rope_bases_are_rejected() {
        for theta in [0.0, -0.0, -1.0, f64::INFINITY, f64::NAN] {
            match rejected(|c| c.rope_theta = Some(theta)) {
                TraceGenError::BadRopeTheta { theta: t } => {
                    assert_eq!(t.to_bits(), theta.to_bits())
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn fallible_form_gives_the_panicking_forms_trace() {
        let cfg = small_cfg();
        let a = generate_head_trace(&cfg, &mut SimRng::seed_from(7));
        let b = try_generate_head_trace(&cfg, &mut SimRng::seed_from(7)).unwrap();
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.values, b.values);
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(
                (x.position, &x.q, &x.relevant),
                (y.position, &y.q, &y.relevant)
            );
        }
    }

    #[test]
    #[should_panic(expected = "generate_head_trace: context too short")]
    fn panicking_form_panics_with_the_error() {
        let cfg = TraceConfig {
            context_len: 1,
            ..small_cfg()
        };
        generate_head_trace(&cfg, &mut SimRng::seed_from(8));
    }

    #[test]
    fn no_rope_keeps_content_dims_static() {
        let mut rng = SimRng::seed_from(5);
        let mut cfg = small_cfg();
        cfg.rope_theta = None;
        let t = generate_head_trace(&cfg, &mut rng);
        assert_eq!(t.len(), cfg.context_len);
    }
}
