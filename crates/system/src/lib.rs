//! End-to-end serving simulation for LongSight and the paper's baselines.
//!
//! * [`LongSightSystem`] — GPU + DReX hybrid attention pipeline with
//!   window/offload overlap, NMA contention, CXL polling and value reads,
//! * [`GpuOnlySystem`] — dense attention on 1..N data-parallel GPUs,
//! * [`AttAccSystem`] — GPU + HBM-PIM dense-attention offload,
//! * [`SlidingWindowSystem`] — StreamingLLM-style window attention,
//!
//! all behind the [`ServingSystem`] trait, which yields the throughput /
//! per-token-latency / breakdown rows of the paper's Figs 7–9.
//!
//! # Example
//!
//! ```
//! use longsight_system::{LongSightConfig, LongSightSystem, ServingSystem};
//! use longsight_model::ModelConfig;
//!
//! let mut s = LongSightSystem::new(LongSightConfig::paper_default(), ModelConfig::llama3_1b());
//! let report = s.evaluate(4, 131_072)?;
//! println!("{:.1} tok/s at {:.2} ms/token", report.throughput_tps, report.latency_ms());
//! # Ok::<(), longsight_system::Infeasible>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
mod baselines;
pub mod degrade;
mod longsight;
pub mod prefill;
mod report;
pub mod serving;
pub mod session;
pub mod slo;

pub use attribution::{SpecCharge, SpecSample, TokenAttribution};
pub use baselines::{AttAccSystem, GpuOnlySystem, SlidingWindowSystem};
pub use degrade::{DegradeStats, TokenOutcome};
pub use longsight::{
    FaultedLayerReport, LayerTiming, LongSightConfig, LongSightSystem, LookaheadConfig,
    OffloadProfile,
};
pub use report::{
    Infeasible, OffloadComponents, ServingSystem, SpecStep, StepBreakdown, StepReport,
};
pub use session::SessionOptions;
