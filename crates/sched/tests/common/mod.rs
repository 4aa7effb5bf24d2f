//! The scheduler oracles' shared scenario generator: a generated
//! configuration of either policy, a timeline of arrivals and crashes, and
//! a deterministic `(users, ctx) -> dt` stand-in for the serving system's
//! step model. Times and costs are whole picoseconds, rounded once from
//! the generated ns as the serving driver rounds its own.

use longsight_sched::clock::{ns, ps};
use longsight_sched::{PageConfig, SchedConfig, SchedPolicy, SchedRequest, SloClass};
use longsight_tensor::check::Gen;

/// Something that happens to the scheduler from outside, at a time.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    Arrive(SchedRequest),
    /// Every in-flight request is evacuated and redispatched back onto
    /// the same scheduler behind its rebuild charge.
    Crash,
}

/// One generated scenario.
#[derive(Debug, Clone)]
pub struct Case {
    pub cfg: SchedConfig,
    /// Events in time order, ps.
    pub events: Vec<(u64, Event)>,
    /// Step-model knobs: feasibility limits and the cost polynomial.
    pub max_users: usize,
    pub max_ctx: usize,
    pub zero_cost: bool,
    pub base_ns: f64,
    pub per_user_ns: f64,
    pub per_ctx_ns: f64,
    /// `limit` passed to `steady_run`.
    pub limit: usize,
    /// Clock past which the loop stops stepping, ps.
    pub guard_ps: u64,
}

impl Case {
    pub fn feasible(&self, users: usize, ctx: usize) -> bool {
        users <= self.max_users && ctx <= self.max_ctx
    }

    /// The deterministic stand-in for the serving system's step cost.
    pub fn cost(&self, users: usize, ctx: usize) -> f64 {
        if self.zero_cost {
            0.0
        } else {
            self.base_ns + users as f64 * self.per_user_ns + ctx as f64 * self.per_ctx_ns
        }
    }
}

fn class(g: &mut Gen) -> SloClass {
    SloClass::ALL[g.usize_in(0, 3)]
}

/// A request arriving at `arrival_ps` with a context below `context_end`.
pub fn gen_request(g: &mut Gen, id: usize, arrival_ps: u64, context_end: usize) -> SchedRequest {
    let context = g.usize_in(1, context_end);
    let prefill_ns = match g.usize_in(0, 4) {
        0 => 0.0,
        _ => g.f64_in(1e3, 3e6),
    };
    let (restore_ns, recompute_ns) = match g.usize_in(0, 4) {
        0 => (0.0, 0.0),
        _ => (g.f64_in(0.0, 5e5), g.f64_in(0.0, 5e5)),
    };
    SchedRequest {
        id,
        class: class(g),
        arrival_ps,
        context,
        output: g.usize_in(0, 48),
        prefill_ps: ps(prefill_ns),
        restore_ps: ps(restore_ns),
        recompute_ps: ps(recompute_ns),
        pull_ps: u64::MAX,
        prefix_hash: None,
    }
}

/// A generated case. One in three is an *evicting* shape: SLO-aware, a
/// window of one to three pages, HBM for two to six windows, DReX room
/// for every tail, the first half of the arrivals best-effort and arrivals
/// close together, so higher classes evict best-effort members and they
/// resume.
pub fn gen_case(g: &mut Gen) -> Case {
    let evicting = g.usize_in(0, 3) == 0;
    let page_tokens = [16usize, 64, 256][g.usize_in(0, 3)];
    let window_tokens = if evicting {
        page_tokens * g.usize_in(1, 4)
    } else {
        [256usize, 1024, usize::MAX][g.usize_in(0, 3)]
    };
    let max_context = g.usize_in(64, 3000);
    let policy = if !evicting && g.bool() {
        SchedPolicy::Fifo
    } else {
        SchedPolicy::SloAware
    };
    // Tight HBM ceilings force evictions under SLO-aware admission.
    let pages = PageConfig {
        page_tokens,
        hbm_capacity_pages: if evicting {
            window_tokens.div_ceil(page_tokens) * g.usize_in(2, 7)
        } else {
            g.usize_in(2, 40)
        },
        // Tails beyond a small window are long: room for every one of
        // them when evicting, so DReX never blocks an admission there.
        drex_capacity_pages: if evicting {
            g.usize_in(4000, 8000)
        } else {
            g.usize_in(20, 400)
        },
        hbm_watermark: [1.0, 0.9, 0.75][g.usize_in(0, 3)],
    };
    // Chunks from one token up to one larger than the largest context.
    let chunk_tokens = match g.usize_in(0, 4) {
        0 => 1,
        1 => g.usize_in(1, 16),
        2 => g.usize_in(16, max_context),
        _ => max_context + 1,
    };
    let mut cfg = match policy {
        SchedPolicy::Fifo => SchedConfig::fifo(pages, window_tokens),
        SchedPolicy::SloAware => SchedConfig::slo_aware(pages, window_tokens, chunk_tokens),
    };
    cfg.prefill_slots = g.usize_in(1, 4);

    let mut events = Vec::new();
    let mut t = 0.0f64;
    let requests = g.usize_in(1, if evicting { 24 } else { 14 });
    let gap_ns = if evicting { 1e5 } else { 4e5 };
    for id in 0..requests {
        t += g.f64_in(0.0, gap_ns);
        let mut req = gen_request(g, id, ps(t), max_context + 1);
        if evicting && id < requests / 2 {
            // Best-effort work first, so later higher classes find it
            // holding the HBM they need.
            req.class = SloClass::BestEffort;
        }
        events.push((ps(t), Event::Arrive(req)));
    }
    for _ in 0..g.usize_in(0, 3) {
        events.push((ps(g.f64_in(0.0, t + 2e6)), Event::Crash));
    }
    events.sort_by_key(|e| e.0);
    let zero_cost = g.usize_in(0, 6) == 0;
    Case {
        cfg,
        events,
        max_users: g.usize_in(1, 10),
        max_ctx: max_context - g.usize_in(0, max_context / 8 + 1),
        zero_cost,
        base_ns: g.f64_in(1e3, 1e5),
        per_user_ns: g.f64_in(0.0, 3e4),
        per_ctx_ns: g.f64_in(0.0, 50.0),
        limit: if g.bool() {
            usize::MAX
        } else {
            g.usize_in(0, 9)
        },
        guard_ps: if zero_cost { u64::MAX } else { ps(4e8) },
    }
}

/// The step's duration, ps: the decode batch's cost, or the chunked
/// prefill alone when it is longer, rounded once.
pub fn step_dt(case: &Case, decode_users: usize, max_ctx: usize, prefill_ps: u64) -> u64 {
    let base = if decode_users > 0 {
        case.cost(decode_users, max_ctx)
    } else {
        0.0
    };
    ps(base.max(ns(prefill_ps)))
}
