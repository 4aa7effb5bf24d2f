//! LongSight's sparse-attention algorithm (the paper's primary contribution).
//!
//! The pipeline has three stages (paper §5): **filtering** via
//! Sign-Concordance Filtering (`scf`), full-precision **scoring**, and
//! top-*k* **ranking** — wrapped in a hybrid strategy that keeps a dense
//! sliding window plus attention sinks on the "GPU" side
//! ([`LongSightBackend`]). `itq` provides the Iterative Quantization
//! rotation that rebalances sign bits on clustered keys; [`training`] fits
//! those rotations from live model traces; [`tuner`] implements the paper's
//! greedy per-head threshold tuning; [`trace_eval`] measures retrieval
//! quality on long-context traces.
//!
//! # Example
//!
//! ```
//! use longsight_core::{HybridConfig, LongSightBackend, RotationTable, ThresholdTable};
//! use longsight_model::{corpus, perplexity, Model, ModelConfig};
//! use longsight_model::{InductionParams, ModelWeights};
//! use longsight_tensor::SimRng;
//!
//! let cfg = ModelConfig::tiny();
//! let mut rng = SimRng::seed_from(0);
//! let model = Model::new(ModelWeights::induction(&cfg, &InductionParams::default(), &mut rng));
//! let text = corpus::generate(&corpus::CorpusConfig::long_book(cfg.vocab), 192, &mut rng);
//!
//! let mut hybrid = LongSightBackend::new(
//!     HybridConfig { window: 64, sinks: 16, top_k: 32 },
//!     ThresholdTable::zeros(cfg.layers, cfg.kv_heads),
//!     RotationTable::identity(cfg.layers, cfg.kv_heads, cfg.head_dim),
//! );
//! let report = perplexity::evaluate(&model, &text, &mut hybrid, 16);
//! assert!(report.perplexity.is_finite());
//! println!("filter ratio: {:.1}x", hybrid.stats().filter_ratio_nonwindow());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline_filters;
mod hybrid;
mod itq;
pub mod quant_filter;
mod scf;
mod stats;
pub mod trace_eval;
pub mod training;
pub mod tuner;

pub use baseline_filters::{
    blockwise_surviving_indices, compare_granularity, GranularityComparison, LshFilter,
};
pub use hybrid::{HybridConfig, LongSightBackend};
pub use itq::{ItqConfig, ItqRotation, RotationTable, ROTATE_CHUNK_KEYS};
pub use longsight_tensor::ROTATE_BLOCK_KEYS;
pub use quant_filter::{QuantFilter, QuantVec, SCF_BYTES_LOADED_FRACTION};
pub use scf::{
    filter_block, filter_block_packed, scf_pass, surviving_indices, ThresholdTable, PFU_BLOCK_KEYS,
    PFU_MAX_QUERIES,
};
pub use stats::{FilterStats, PerHeadStats};
