//! Request vocabulary of the scheduler: SLO classes, class mixes, the
//! per-request descriptor, and the device geometry that turns context
//! lengths into page counts and resume costs.

use crate::clock::ps;
use crate::pages::PageConfig;

/// Service-level objective class of a request, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloClass {
    /// Latency-sensitive chat traffic: admitted first, never preempted.
    Interactive = 0,
    /// Throughput-oriented batch jobs: admitted behind interactive traffic.
    Batch = 1,
    /// Scavenger traffic: admitted into leftover capacity and evicted to
    /// DReX-resident state when higher classes need HBM pages.
    BestEffort = 2,
}

impl SloClass {
    /// All classes in priority order.
    pub const ALL: [SloClass; 3] = [SloClass::Interactive, SloClass::Batch, SloClass::BestEffort];

    /// Stable index (0 = interactive).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Batch => "batch",
            SloClass::BestEffort => "best-effort",
        }
    }
}

/// Relative weights of the three SLO classes in an offered workload.
///
/// Weights need not sum to 1; they are normalized at classification time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloMix {
    /// Weight of [`SloClass::Interactive`].
    pub interactive: f64,
    /// Weight of [`SloClass::Batch`].
    pub batch: f64,
    /// Weight of [`SloClass::BestEffort`].
    pub best_effort: f64,
}

impl SloMix {
    /// Every request is interactive — the legacy single-class workload.
    pub fn all_interactive() -> Self {
        Self {
            interactive: 1.0,
            batch: 0.0,
            best_effort: 0.0,
        }
    }

    /// A representative mixed fleet: half interactive, 30% batch, 20%
    /// best-effort.
    pub fn mixed() -> Self {
        Self {
            interactive: 0.5,
            batch: 0.3,
            best_effort: 0.2,
        }
    }

    /// Whether the mix degenerates to a single interactive class.
    pub fn is_all_interactive(&self) -> bool {
        self.batch <= 0.0 && self.best_effort <= 0.0
    }

    /// Parses `"I,B,E"` comma-separated non-negative weights, e.g.
    /// `"0.5,0.3,0.2"`.
    ///
    /// # Errors
    ///
    /// Returns a message when the shape or values are invalid.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(',').collect();
        if parts.len() != 3 {
            return Err(format!(
                "invalid SLO mix '{s}' (expected three comma-separated weights, e.g. 0.5,0.3,0.2)"
            ));
        }
        let mut w = [0.0f64; 3];
        for (slot, part) in w.iter_mut().zip(&parts) {
            *slot = part
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("invalid SLO mix weight '{part}'"))?;
            if !slot.is_finite() || *slot < 0.0 {
                return Err(format!("SLO mix weight '{part}' must be finite and >= 0"));
            }
        }
        if w.iter().sum::<f64>() <= 0.0 {
            return Err(format!("SLO mix '{s}' has zero total weight"));
        }
        Ok(Self {
            interactive: w[0],
            batch: w[1],
            best_effort: w[2],
        })
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a class by the normalized
    /// cumulative weights.
    pub fn classify(&self, u: f64) -> SloClass {
        let total = self.interactive + self.batch + self.best_effort;
        if total <= 0.0 {
            return SloClass::Interactive;
        }
        let x = u * total;
        if x < self.interactive {
            SloClass::Interactive
        } else if x < self.interactive + self.batch {
            SloClass::Batch
        } else {
            SloClass::BestEffort
        }
    }
}

/// How an evicted request's HBM window comes back: the three-way cheapest-of
/// decision extending the original restore-vs-recompute pair with a pooled
/// prefix pull from a peer replica's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumePath {
    /// Restore the window from the local DReX tier over the link.
    Restore,
    /// Pull the session prefix from a peer replica over the pooled fabric.
    Pull,
    /// Recompute the window from scratch on the GPU.
    Recompute,
}

impl ResumePath {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ResumePath::Restore => "restore",
            ResumePath::Pull => "pull",
            ResumePath::Recompute => "recompute",
        }
    }
}

/// One request as the scheduler sees it. Times and costs are whole
/// picoseconds of simulated time ([`crate::clock`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedRequest {
    /// Arrival-ordered ID (doubles as the priority tiebreaker).
    pub id: usize,
    /// SLO class.
    pub class: SloClass,
    /// Arrival time, ps. A FIFO admit on arrival folds the prefill into the
    /// request's latency by moving this back by the prefill, modulo 2⁶⁴:
    /// latencies are taken as `now.wrapping_sub(arrival_ps)`, exact while
    /// the true latency fits.
    pub arrival_ps: u64,
    /// Prompt length, tokens (frozen at admission).
    pub context: usize,
    /// Output (decode) length, tokens.
    pub output: usize,
    /// Full prefill cost of the prompt, ps.
    pub prefill_ps: u64,
    /// Cost of restoring the evicted HBM window from DReX over the link, ps.
    pub restore_ps: u64,
    /// Cost of recomputing the HBM window from scratch on the GPU, ps.
    pub recompute_ps: u64,
    /// Cost of pulling the session prefix from a peer replica's cache over
    /// the pooled-DReX fabric, ps. `u64::MAX` when no remote copy exists
    /// (every cold request).
    pub pull_ps: u64,
    /// Content hash of the prefix this request holds a pin on in its
    /// replica's prefix cache; `None` for cold or unpinned requests. The
    /// scheduler drops the pin on completion, failure, and crash.
    pub prefix_hash: Option<u64>,
}

impl SchedRequest {
    /// The deterministic resume cost, ps: the cheapest of
    /// restore-from-DReX, pull-from-peer, and recompute-on-GPU.
    pub fn resume_cost_ps(&self) -> u64 {
        self.restore_ps.min(self.recompute_ps).min(self.pull_ps)
    }

    /// Which of the three resume paths is cheapest. Ties break toward the
    /// cheaper fabric (restore, then pull) over burning GPU flops.
    pub fn resume_path(&self) -> ResumePath {
        let cost = self.resume_cost_ps();
        if self.restore_ps <= cost {
            ResumePath::Restore
        } else if self.pull_ps <= cost {
            ResumePath::Pull
        } else {
            ResumePath::Recompute
        }
    }

    /// Whether resume would restore from DReX (vs recompute on the GPU).
    pub fn resume_restores(&self) -> bool {
        self.resume_path() == ResumePath::Restore
    }
}

/// How a serving system's device geometry maps contexts onto the two page
/// tiers. Produced by `ServingSystem::kv_geometry` implementations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvDeviceGeometry {
    /// Tokens per page.
    pub page_tokens: usize,
    /// Tokens kept HBM-resident per request (window + sinks). Contexts
    /// beyond this spill to DReX tail pages. `usize::MAX` means the whole
    /// context is HBM-resident (dense baselines).
    pub window_tokens: usize,
    /// HBM pages available for KV windows.
    pub hbm_capacity_pages: usize,
    /// DReX pages available for tails.
    pub drex_capacity_pages: usize,
    /// Link cost of restoring one page from DReX to HBM, ns.
    pub restore_ns_per_page: f64,
    /// GPU cost of recomputing one window token from scratch, ns.
    pub recompute_ns_per_token: f64,
}

impl KvDeviceGeometry {
    /// HBM-resident tokens of a `context`-token request.
    pub fn resident_tokens(&self, context: usize) -> usize {
        context.min(self.window_tokens)
    }

    /// HBM window pages of a `context`-token request.
    pub fn hbm_pages_for(&self, context: usize) -> usize {
        self.resident_tokens(context)
            .div_ceil(self.page_tokens.max(1))
    }

    /// DReX tail pages of a `context`-token request.
    pub fn drex_pages_for(&self, context: usize) -> usize {
        (context.saturating_sub(self.window_tokens)).div_ceil(self.page_tokens.max(1))
    }

    /// Restore-from-DReX cost of the request's window, ps.
    pub fn restore_ps(&self, context: usize) -> u64 {
        ps(self.hbm_pages_for(context) as f64 * self.restore_ns_per_page)
    }

    /// Recompute-on-GPU cost of the request's window, ps.
    pub fn recompute_ps(&self, context: usize) -> u64 {
        ps(self.resident_tokens(context) as f64 * self.recompute_ns_per_token)
    }

    /// The [`PageConfig`] this geometry induces under `watermark`.
    pub fn page_config(&self, watermark: f64) -> PageConfig {
        PageConfig {
            page_tokens: self.page_tokens.max(1),
            hbm_capacity_pages: self.hbm_capacity_pages,
            drex_capacity_pages: self.drex_capacity_pages,
            hbm_watermark: watermark,
        }
    }

    /// Largest batch of uniform `context`-token requests the two tiers can
    /// hold under `watermark` — the pure *memory* admission limit.
    pub fn memory_max_users(&self, context: usize, watermark: f64) -> usize {
        let cfg = self.page_config(watermark);
        let hbm = self.hbm_pages_for(context);
        let drex = self.drex_pages_for(context);
        let by_hbm = cfg.hbm_limit_pages().checked_div(hbm).unwrap_or(usize::MAX);
        let by_drex = self
            .drex_capacity_pages
            .checked_div(drex)
            .unwrap_or(usize::MAX);
        by_hbm.min(by_drex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_classifies() {
        let m = SloMix::parse("0.5,0.3,0.2").unwrap();
        assert_eq!(m.classify(0.0), SloClass::Interactive);
        assert_eq!(m.classify(0.49), SloClass::Interactive);
        assert_eq!(m.classify(0.5), SloClass::Batch);
        assert_eq!(m.classify(0.79), SloClass::Batch);
        assert_eq!(m.classify(0.8), SloClass::BestEffort);
        assert_eq!(m.classify(0.999), SloClass::BestEffort);
    }

    #[test]
    fn mix_normalizes_weights() {
        let m = SloMix::parse("2,1,1").unwrap();
        assert_eq!(m.classify(0.49), SloClass::Interactive);
        assert_eq!(m.classify(0.51), SloClass::Batch);
        assert_eq!(m.classify(0.76), SloClass::BestEffort);
    }

    #[test]
    fn mix_rejects_bad_shapes() {
        assert!(SloMix::parse("1,2").is_err());
        assert!(SloMix::parse("a,b,c").is_err());
        assert!(SloMix::parse("-1,0,0").is_err());
        assert!(SloMix::parse("0,0,0").is_err());
        assert!(SloMix::parse("nan,1,1").is_err());
    }

    #[test]
    fn all_interactive_is_single_class() {
        let m = SloMix::all_interactive();
        assert!(m.is_all_interactive());
        for u in [0.0, 0.3, 0.99] {
            assert_eq!(m.classify(u), SloClass::Interactive);
        }
    }

    #[test]
    fn geometry_splits_window_and_tail() {
        let g = KvDeviceGeometry {
            page_tokens: 1024,
            window_tokens: 1040,
            hbm_capacity_pages: 100,
            drex_capacity_pages: 1000,
            restore_ns_per_page: 100.0,
            recompute_ns_per_token: 10.0,
        };
        // 8K context: 1040 resident (2 pages), 7152 tail (7 pages).
        assert_eq!(g.hbm_pages_for(8192), 2);
        assert_eq!(g.drex_pages_for(8192), 7);
        // Short context: fully resident, no tail.
        assert_eq!(g.hbm_pages_for(512), 1);
        assert_eq!(g.drex_pages_for(512), 0);
        // Restore 2 pages vs recompute 1040 tokens: restore wins.
        assert!(g.restore_ps(8192) < g.recompute_ps(8192));
    }

    #[test]
    fn memory_max_users_takes_the_tighter_tier() {
        let g = KvDeviceGeometry {
            page_tokens: 1024,
            window_tokens: 1024,
            hbm_capacity_pages: 10,
            drex_capacity_pages: 1000,
            restore_ns_per_page: 1.0,
            recompute_ns_per_token: 1.0,
        };
        // Each 64K request: 1 HBM page, 63 DReX pages. HBM limit 9 pages
        // (watermark 0.9) binds first.
        assert_eq!(g.memory_max_users(65_536, 0.9), 9);
        // With plentiful HBM the DReX tier binds: 1000/63 = 15.
        let g2 = KvDeviceGeometry {
            hbm_capacity_pages: 1_000_000,
            ..g
        };
        assert_eq!(g2.memory_max_users(65_536, 0.9), 15);
    }

    #[test]
    fn memory_max_users_edge_cases() {
        let g = KvDeviceGeometry {
            page_tokens: 1024,
            window_tokens: 4096,
            hbm_capacity_pages: 100,
            drex_capacity_pages: 1000,
            restore_ns_per_page: 1.0,
            recompute_ns_per_token: 1.0,
        };
        // Context shorter than the window: fully HBM-resident, zero DReX
        // pages, so the DReX divisor is 0 and only HBM binds (no div-by-zero
        // panic, no phantom DReX limit).
        assert_eq!(g.drex_pages_for(2048), 0);
        assert_eq!(g.memory_max_users(2048, 1.0), 50); // 100 / 2 pages
        assert_eq!(g.memory_max_users(2048, 0.5), 25);
        // One token per page: page math degenerates to token math.
        let fine = KvDeviceGeometry {
            page_tokens: 1,
            window_tokens: 4,
            hbm_capacity_pages: 100,
            drex_capacity_pages: 10,
            ..g
        };
        assert_eq!(fine.hbm_pages_for(4), 4);
        assert_eq!(fine.drex_pages_for(9), 5);
        assert_eq!(fine.memory_max_users(9, 1.0), 2); // DReX: 10 / 5
                                                      // Watermark 0.0: no usable HBM, nothing admits.
        assert_eq!(g.memory_max_users(2048, 0.0), 0);
        // Watermark 1.0 equals raw capacity; above 1.0 clamps back to it.
        assert_eq!(g.memory_max_users(2048, 1.0), g.memory_max_users(2048, 2.0));
        // Zero-page request (context 0): both divisors are 0 → unbounded.
        assert_eq!(g.memory_max_users(0, 1.0), usize::MAX);
    }

    #[test]
    fn resume_picks_the_cheaper_path() {
        let r = SchedRequest {
            id: 0,
            class: SloClass::BestEffort,
            arrival_ps: 0,
            context: 4096,
            output: 16,
            prefill_ps: 1_000_000,
            restore_ps: 5_000,
            recompute_ps: 8_000,
            pull_ps: u64::MAX,
            prefix_hash: None,
        };
        assert_eq!(r.resume_cost_ps(), 5_000);
        assert!(r.resume_restores());
        assert_eq!(r.resume_path(), ResumePath::Restore);
    }

    #[test]
    fn resume_three_way_includes_pull() {
        let base = SchedRequest {
            id: 0,
            class: SloClass::Interactive,
            arrival_ps: 0,
            context: 4096,
            output: 16,
            prefill_ps: 1_000_000,
            restore_ps: 5_000,
            recompute_ps: 8_000,
            pull_ps: 3_000,
            prefix_hash: None,
        };
        // Pull is cheapest: the pooled fabric wins.
        assert_eq!(base.resume_cost_ps(), 3_000);
        assert_eq!(base.resume_path(), ResumePath::Pull);
        assert!(!base.resume_restores());
        // Pull ties restore: restore wins (local fabric first).
        let tied = SchedRequest {
            pull_ps: 5_000,
            ..base
        };
        assert_eq!(tied.resume_path(), ResumePath::Restore);
        // Recompute cheapest when both fabrics are expensive.
        let gpu = SchedRequest {
            restore_ps: 9_000,
            pull_ps: 9_000,
            ..base
        };
        assert_eq!(gpu.resume_path(), ResumePath::Recompute);
        assert_eq!(gpu.resume_cost_ps(), 8_000);
    }
}
