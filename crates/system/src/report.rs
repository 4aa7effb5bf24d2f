//! Shared serving-performance report types.

use longsight_obs::Recorder;
use longsight_sched::KvDeviceGeometry;

/// Per-token latency breakdown of one decode step (Fig 9's categories).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepBreakdown {
    /// GPU weight-streaming work (projections + FFN), ns.
    pub gpu_weights_ns: f64,
    /// GPU dense (window or full) attention, ns — only the portion *not*
    /// hidden behind the DReX offload.
    pub gpu_attention_ns: f64,
    /// GPU ITQ rotation + softmax/SV merge of retrieved results, ns.
    pub gpu_merge_ns: f64,
    /// DReX offload wait — device compute not hidden behind GPU work, ns.
    pub drex_offload_ns: f64,
    /// CXL value/descriptor transfer and polling, ns.
    pub cxl_ns: f64,
}

impl StepBreakdown {
    /// Total per-token latency.
    pub fn total_ns(&self) -> f64 {
        self.gpu_weights_ns
            + self.gpu_attention_ns
            + self.gpu_merge_ns
            + self.drex_offload_ns
            + self.cxl_ns
    }
}

/// Finer-grained attribution of the *visible* (non-overlapped) offload
/// time within one decode step, split along the DReX pipeline phases.
///
/// The four components always sum exactly to
/// `breakdown.drex_offload_ns + breakdown.cxl_ns`: the filter/score/queue
/// shares are proportional splits of the visible wait by the measured
/// [`OffloadProfile`](crate::longsight::OffloadProfile) fractions, and the
/// link share is the exact remainder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OffloadComponents {
    /// PFU filtering, bitmap reads, and address generation, ns.
    pub filter_ns: f64,
    /// Key fetch + dot-product scoring + top-k ranking, ns.
    pub score_ns: f64,
    /// Waiting for a free NMA (multi-user contention), ns.
    pub queue_ns: f64,
    /// CXL descriptor submit, completion polling, and value transfer, ns.
    pub link_ns: f64,
}

impl OffloadComponents {
    /// Sum of the four components.
    pub fn total_ns(&self) -> f64 {
        self.filter_ns + self.score_ns + self.queue_ns + self.link_ns
    }
}

/// Lookahead-speculation timing attached to a [`StepReport`] when the
/// async offload pipeline is enabled.
///
/// The report's headline numbers (`step_ns`, `breakdown`, `offload`)
/// describe the *hit* path — the speculative chain issued at step *t−1*
/// landed and only the un-hideable remainder is visible. This struct keeps
/// the serial path alongside so the serving loop can charge the exact
/// synchronous timing (plus the configured re-filter penalty) whenever a
/// speculation misses or slot backpressure denies the issue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecStep {
    /// Full unoverlapped filter→score→top-k→link chain across all layers,
    /// ns. This is what one speculative slot occupies per step.
    pub chain_ns: f64,
    /// Synchronous per-token step latency (identical bits to the
    /// lookahead-off `step_ns`), ns.
    pub serial_step_ns: f64,
    /// Visible offload wait on the synchronous path, ns.
    pub serial_visible_ns: f64,
    /// Visible offload wait on the hit path — chain minus what hides
    /// behind the GPU's serial + attention work, ns.
    pub hit_visible_ns: f64,
    /// Deterministic re-filter penalty charged once per missed step, ns.
    pub refilter_penalty_ns: f64,
    /// Per-token speculation miss probability.
    pub miss_rate: f64,
    /// Bound on concurrent in-flight speculative chains per device.
    pub slots: usize,
    /// Seed for the miss-draw stream (`domain::SPEC`).
    pub seed: u64,
}

/// Result of evaluating one serving configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Concurrent users served.
    pub users: usize,
    /// Context length per user, tokens.
    pub context: usize,
    /// Per-token (per decode step) latency, ns.
    pub step_ns: f64,
    /// Aggregate decode throughput across all users, tokens/second.
    pub throughput_tps: f64,
    /// Latency breakdown.
    pub breakdown: StepBreakdown,
    /// Phase-level attribution of the visible offload wait, when the
    /// system can provide it (LongSight only; baselines report `None`).
    pub offload: Option<OffloadComponents>,
    /// Lookahead speculation timing (LongSight with `--lookahead on`;
    /// `None` everywhere else, including the lookahead-off path).
    pub spec: Option<SpecStep>,
}

impl StepReport {
    /// Builds a report from a breakdown.
    pub fn from_breakdown(users: usize, context: usize, breakdown: StepBreakdown) -> Self {
        let step_ns = breakdown.total_ns();
        Self {
            users,
            context,
            step_ns,
            throughput_tps: if step_ns > 0.0 {
                users as f64 * 1e9 / step_ns
            } else {
                0.0
            },
            breakdown,
            offload: None,
            spec: None,
        }
    }

    /// Attaches phase-level offload attribution.
    pub fn with_offload(mut self, offload: OffloadComponents) -> Self {
        self.offload = Some(offload);
        self
    }

    /// Attaches lookahead speculation timing.
    pub fn with_spec(mut self, spec: SpecStep) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Per-user tokens/second (the "tokens per second per user" of §1).
    pub fn tps_per_user(&self) -> f64 {
        self.throughput_tps / self.users.max(1) as f64
    }

    /// Per-token latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.step_ns / 1e6
    }

    /// The evaluation row as printed by `longsight serve`.
    pub fn to_text(&self, name: &str) -> String {
        let b = self.breakdown;
        let mut out = format!(
            "{name}: {} users @ {} tokens\n  throughput: {:.1} tok/s ({:.1} tok/s/user)\n  per-token latency: {:.3} ms\n",
            self.users,
            self.context,
            self.throughput_tps,
            self.tps_per_user(),
            self.latency_ms()
        );
        out.push_str(&format!(
            "  breakdown: weights {:.2} ms | attn {:.2} ms | merge {:.2} ms | drex {:.2} ms | cxl {:.2} ms\n",
            b.gpu_weights_ns / 1e6,
            b.gpu_attention_ns / 1e6,
            b.gpu_merge_ns / 1e6,
            b.drex_offload_ns / 1e6,
            b.cxl_ns / 1e6
        ));
        out
    }
}

/// Why a configuration cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Infeasible {
    /// KV cache + weights exceed GPU HBM.
    GpuMemory,
    /// Context does not fit the DReX device for this many users.
    DrexMemory,
    /// Batch exceeds the DCC request-queue depth (512).
    QueueDepth,
    /// The per-head top-k exceeds what the DReX hardware can rank.
    TopK {
        /// The top-k the offload would need.
        k: usize,
        /// The hardware top-k bound.
        max_k: usize,
    },
}

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasible::GpuMemory => write!(f, "exceeds GPU HBM capacity"),
            Infeasible::DrexMemory => write!(f, "exceeds DReX memory capacity"),
            Infeasible::QueueDepth => write!(f, "exceeds DCC queue depth"),
            Infeasible::TopK { k, max_k } => {
                write!(f, "top-k {k} exceeds the DReX hardware bound of {max_k}")
            }
        }
    }
}

/// A serving system that can be asked for a decode-step evaluation.
pub trait ServingSystem {
    /// Human-readable name for tables.
    fn name(&self) -> String;

    /// Evaluates one decode step at a batch of `users`, each with `context`
    /// tokens of history.
    ///
    /// # Errors
    ///
    /// Returns the reason when the configuration cannot run.
    fn evaluate(&mut self, users: usize, context: usize) -> Result<StepReport, Infeasible>;

    /// Largest batch this system can serve at `context` (0 when even one
    /// user is infeasible).
    fn max_users(&self, context: usize) -> usize;

    /// Records an expanded trace of one decode step's internal timeline
    /// (GPU phases, offload pipeline, link activity) into `rec`, anchored
    /// at simulated time `anchor_ns`.
    ///
    /// Purely observational: implementations must not change any state
    /// that [`ServingSystem::evaluate`] depends on, and with a disabled
    /// recorder this must be free. The default records nothing, which is
    /// correct for systems without internal structure worth tracing.
    fn record_step_detail(
        &mut self,
        _users: usize,
        _context: usize,
        _rec: &mut Recorder,
        _anchor_ns: f64,
    ) {
    }

    /// How this system's devices map request contexts onto HBM window pages
    /// and DReX tail pages, at `page_tokens` tokens per page — the paged
    /// KV-cache surface the SLO-aware scheduler allocates against.
    ///
    /// `None` (the default) means the system exposes no page accounting;
    /// the scheduler then falls back to an unbounded ledger and admission
    /// degenerates to step feasibility alone.
    fn kv_geometry(&self, page_tokens: usize) -> Option<KvDeviceGeometry> {
        let _ = page_tokens;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_users_over_step() {
        let b = StepBreakdown {
            gpu_weights_ns: 1e6,
            ..Default::default()
        };
        let r = StepReport::from_breakdown(10, 1024, b);
        assert!((r.throughput_tps - 10.0 * 1e9 / 1e6).abs() < 1e-6);
        assert!((r.tps_per_user() - 1000.0).abs() < 1e-9);
        assert!((r.latency_ms() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = StepBreakdown {
            gpu_weights_ns: 1.0,
            gpu_attention_ns: 2.0,
            gpu_merge_ns: 3.0,
            drex_offload_ns: 4.0,
            cxl_ns: 5.0,
        };
        assert_eq!(b.total_ns(), 15.0);
    }
}
