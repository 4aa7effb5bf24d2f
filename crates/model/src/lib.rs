//! Transformer inference substrate for the LongSight reproduction.
//!
//! This crate provides everything "model shaped" that the paper's experiments
//! need:
//!
//! * [`ModelConfig`] — Llama-3-1B/8B architecture presets (paper Table 1) and
//!   a tiny test configuration,
//! * [`ModelWeights`] — synthetic weight generation, including a
//!   hand-constructed *induction-head* transformer whose loss genuinely
//!   depends on long-range retrieval (see the `weights` module docs),
//! * [`Model`] — a decode-style GQA forward pass (RMSNorm, RoPE, SwiGLU)
//!   generic over an [`AttentionBackend`],
//! * reference backends: [`DenseBackend`] (exact attention) and
//!   [`SlidingWindowBackend`] (StreamingLLM-style window + sinks),
//! * [`corpus`] — synthetic Project-Gutenberg-like and concatenated-Wiki2-like
//!   corpora with ground-truth "this token is predictable via long-range
//!   retrieval" annotations,
//! * [`perplexity`] — the paper's quality metric,
//! * [`tracegen`] — long-context Q/K/V trace generation for algorithm
//!   experiments beyond the reach of a full forward pass.
//!
//! # Example
//!
//! ```
//! use longsight_model::{corpus, perplexity, DenseBackend, Model, ModelConfig};
//! use longsight_model::{InductionParams, ModelWeights};
//! use longsight_tensor::SimRng;
//!
//! let cfg = ModelConfig::tiny();
//! let mut rng = SimRng::seed_from(0);
//! let model = Model::new(ModelWeights::induction(&cfg, &InductionParams::default(), &mut rng));
//! let text = corpus::generate(&corpus::CorpusConfig::long_book(cfg.vocab), 256, &mut rng);
//! let report = perplexity::evaluate(&model, &text, &mut DenseBackend::new(), 8);
//! assert!(report.perplexity.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attention;
mod config;
pub mod corpus;
mod generate;
mod kv;
pub mod layers;
pub mod perplexity;
mod rope;
pub mod tracegen;
mod transformer;
mod weights;

pub use attention::{
    attend_over_indices, attend_over_kv, attend_with_scores, AttentionBackend, AttentionRequest,
    DenseBackend, SlidingWindowBackend,
};
pub use config::ModelConfig;
pub use generate::{Generator, Sampling};
pub use kv::{HeadKv, KvCache};
pub use rope::Rope;
pub use transformer::Model;
pub use weights::{InductionParams, LayerWeights, ModelWeights};
