//! Discrete-event serving simulation: Poisson request arrivals, continuous
//! batching of synchronized decode steps, per-request latency percentiles.
//!
//! The paper's serving claims (§9.1) are about *operating points*: how many
//! concurrent users a system sustains, where throughput plateaus, and what
//! happens to quality of service as load grows. This module turns the
//! per-step cost models into a closed-loop simulation producing those
//! curves: requests arrive over time, join the running batch (continuous
//! batching), decode their output tokens, and leave.
//!
//! Scheduling is delegated to `longsight-sched`. The default FIFO policy
//! reproduces the original serving loop op-for-op (bit-identical metrics);
//! [`SchedOptions::slo_aware`] selects the SLO-aware policy, where admission
//! is a paged-memory decision over HBM window pages and DReX tail pages,
//! prefill is chunked and overlapped with decode, and best-effort requests
//! are evicted to DReX-resident state when higher classes need HBM.
//!
//! [`run`] is the one driver: one arrival loop over N ≥ 1 replicas, each a
//! `ReplicaSim` whose synchronized step exists once, in `ReplicaSim::step`.
//! A single replica is a one-replica fleet that is never routed. Everything
//! a run varies is one [`RunSpec`]: the scheduler, the router, replica fault
//! domains ([`FleetFaultOptions`]), multi-turn sessions
//! ([`SessionOptions`]) and token-level faults, which all compose. Every
//! run ends in the same [`ServeMetrics`] aggregation and [`FleetReport`].

use crate::attribution::{
    attribution_parts, SpecCharge, SpecSample, TokenAttribution, OVERLAP_HIDDEN, SPEC_MISS,
};
use crate::degrade::{
    first_fault, resolve_fault, DegradeStats, FirstFault, RequestStreams, TokenOutcome,
};
use crate::prefill::prefill_cost;
use crate::report::{ServingSystem, SpecStep, StepReport};
use crate::session::{self, SessionOptions, SessionTurn};
use longsight_cxl::CxlLink;
use longsight_drex::SpecSlotPool;
use longsight_faults::{
    fleet_schedule, FaultInjector, FaultLog, ReplicaEvent, ReplicaEventKind, ReplicaFaultProfile,
    RetryPolicy, Threshold,
};
use longsight_gpu::GpuSpec;
use longsight_model::ModelConfig;
use longsight_obs::{ArgVal, Recorder, TrackId};
use longsight_sched::clock;
use longsight_sched::{
    BreakerConfig, BreakerState, CircuitBreaker, ClassViews, FleetFaultSummary, FleetReport,
    KvDeviceGeometry, PagedKvManager, Placement, PullRecord, RedispatchRecord, Router,
    RouterPolicy, SchedConfig, SchedEvent, SchedPolicy, SchedReport, SchedRequest, Scheduler,
    SessionSummary, ShedRecord, SloBurnSummary, SloClass, SloMix, SortedSamples, StepPlan,
};
use longsight_tensor::SimRng;
use std::collections::HashMap;
use std::ops::DerefMut;

/// XOR'd into the workload seed for the SLO-class stream, so class draws
/// never perturb the arrival-process stream (FIFO metrics stay bit-exact
/// for any mix).
const CLASS_SEED: u64 = 0x736c_6f63;

/// Offered-load description.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Mean request arrival rate (Poisson), requests per second.
    pub arrivals_per_s: f64,
    /// Uniform range of per-request context lengths (prompt tokens).
    pub context_tokens: (usize, usize),
    /// Uniform range of output (decode) lengths.
    pub output_tokens: (usize, usize),
    /// Simulated wall-clock duration, seconds.
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A steady long-context chat workload.
    pub fn long_context_chat() -> Self {
        Self {
            arrivals_per_s: 2.0,
            context_tokens: (65_536, 131_072),
            output_tokens: (64, 256),
            duration_s: 30.0,
            seed: 7,
        }
    }
}

/// Scheduler policy and paged-KV knobs of every replica of a [`run`].
#[derive(Debug, Clone)]
pub struct SchedOptions {
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// SLO-class mix of the offered load (classes drawn from a dedicated
    /// RNG stream, so the arrival process is identical across mixes).
    pub mix: SloMix,
    /// Tokens per KV page.
    pub page_tokens: usize,
    /// Prefill chunk size, prompt tokens (SLO-aware only).
    pub prefill_chunk_tokens: usize,
    /// Concurrent requests advancing prefill per step (SLO-aware only).
    /// Must be ≥ 1 — the CLI rejects `--prefill-slots 0` up front.
    pub prefill_slots: usize,
    /// Fraction of HBM pages the SLO-aware allocator may use.
    pub hbm_watermark: f64,
}

impl SchedOptions {
    /// The legacy serving behavior: FIFO admission, single-class load.
    pub fn fifo() -> Self {
        Self {
            policy: SchedPolicy::Fifo,
            mix: SloMix::all_interactive(),
            page_tokens: 1024,
            prefill_chunk_tokens: 8192,
            prefill_slots: 1,
            hbm_watermark: 0.9,
        }
    }

    /// SLO-aware scheduling over the given class mix.
    pub fn slo_aware(mix: SloMix) -> Self {
        Self {
            policy: SchedPolicy::SloAware,
            mix,
            ..Self::fifo()
        }
    }
}

/// Fleet-level fault-domain and overload-control knobs of a [`run`] over
/// two replicas or more. The [`FleetFaultOptions::disabled`] value arms
/// none of them, and the fleet runs byte-identical to a fault-free one.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultOptions {
    /// Replica crash/recovery and DReX-brownout schedule parameters.
    pub profile: ReplicaFaultProfile,
    /// Seed of the replica fault streams (independent of the workload
    /// seed, so the offered load never shifts with the fault draw).
    pub fault_seed: u64,
    /// Health-aware routing: `Some` arms a per-replica circuit breaker
    /// and routes around open replicas; `None` is the naive baseline
    /// where the router stays blind to replica health.
    pub breaker: Option<BreakerConfig>,
    /// Admission control: `Some(n)` caps per-replica queue depth at `n`
    /// best-effort / `2n` batch / `4n` interactive requests and sheds
    /// arrivals no replica can take. `None` admits everything.
    pub shed_queue_cap: Option<usize>,
}

impl FleetFaultOptions {
    /// No replica faults, no breaker, no shedding: the fleet is immortal
    /// and the simulation is byte-identical to the pre-fault-domain path.
    pub fn disabled() -> Self {
        Self {
            profile: ReplicaFaultProfile::disabled(),
            fault_seed: 0,
            breaker: None,
            shed_queue_cap: None,
        }
    }

    /// Whether any fault-domain machinery is armed (crash/brownout
    /// schedule, breaker, or shedding). When false the fleet interns no
    /// fault track and reports no fault summary.
    pub fn is_active(&self) -> bool {
        self.profile.is_enabled() || self.breaker.is_some() || self.shed_queue_cap.is_some()
    }
}

/// Per-class queue-depth cap derived from the single shed knob: the
/// shedding order is best-effort first (cap `n`), then batch (`2n`);
/// interactive keeps the deepest queue (`4n`), so it is only ever shed
/// when the whole fleet is past capacity for everyone.
fn class_queue_cap(base: usize, class: SloClass) -> usize {
    match class {
        SloClass::Interactive => base.saturating_mul(4),
        SloClass::Batch => base.saturating_mul(2),
        SloClass::BestEffort => base,
    }
}

/// Routing eligibility for a breaker-guarded fleet. Normally each
/// replica's breaker state is used as-is, but when *every* breaker is
/// open the tripped-open ones (slow, not dead) are offered as half-open
/// last resorts: an overloaded-but-alive replica always beats shedding,
/// and interactive work is never dropped while a live replica remains.
/// Only when every open breaker is held open (every replica physically
/// down) does the fleet report no healthy target.
fn breaker_health(bs: &[CircuitBreaker]) -> Vec<BreakerState> {
    let mut health: Vec<BreakerState> = bs.iter().map(CircuitBreaker::state).collect();
    if health.iter().all(|&s| s == BreakerState::Open) {
        for (h, b) in health.iter_mut().zip(bs) {
            if !b.is_held_open() {
                *h = BreakerState::HalfOpen;
            }
        }
    }
    health
}

/// Numeric encoding of a breaker state for the `r{i}.breaker` telemetry
/// gauge: 0 = closed, 1 = half-open, 2 = open, so a sparkline of the
/// series rises when a replica trips and falls as probes close it.
fn breaker_level(state: BreakerState) -> f64 {
    match state {
        BreakerState::Closed => 0.0,
        BreakerState::HalfOpen => 1.0,
        BreakerState::Open => 2.0,
    }
}

/// Aggregate results of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Requests fully served.
    pub completed: usize,
    /// Requests rejected at arrival (no capacity at any point in the run).
    pub rejected: usize,
    /// Requests still in flight at the end.
    pub in_flight: usize,
    /// Generated tokens per second over the simulated window.
    pub throughput_tps: f64,
    /// Median per-token (decode step) latency, ms.
    pub p50_token_ms: f64,
    /// 99th-percentile per-token latency, ms.
    pub p99_token_ms: f64,
    /// Median end-to-end request latency (arrival → last token), ms.
    pub p50_request_ms: f64,
    /// 99th-percentile request latency, ms.
    pub p99_request_ms: f64,
    /// Mean batch size across decode steps.
    pub mean_batch: f64,
    /// Tokens whose offload needed at least one retry but completed
    /// (zero on fault-free runs).
    pub retried_tokens: usize,
    /// Tokens that exhausted the retry budget and were emitted from dense
    /// window-only attention (zero on fault-free runs).
    pub degraded_tokens: usize,
    /// Requests that died unrecoverably under injected hard faults
    /// (zero on fault-free runs).
    pub failed_requests: usize,
    /// Quality delta of degradation: the fraction of generated tokens that
    /// lost long-range top-k attention (their recall over the non-window
    /// region dropped to zero for that step).
    pub degraded_quality_delta: f64,
    /// Speculative lookahead chains that landed and hid their offload wait
    /// (zero with the lookahead pipeline off).
    pub spec_hits: usize,
    /// Speculative chains invalidated before use — a stale context draw or
    /// an injected fault voiding the in-flight slice (zero with lookahead
    /// off).
    pub spec_misses: usize,
    /// Speculative issues denied by slot-pool backpressure (zero with
    /// lookahead off).
    pub spec_denied: usize,
    /// SLO error-budget accounting from the burn-rate engine; `None`
    /// unless timeseries telemetry was enabled, so all pre-existing
    /// output stays byte-identical.
    pub slo_burn: Option<SloBurnSummary>,
}

impl ServeMetrics {
    /// The run summary as printed by `longsight loadtest` (four lines:
    /// completion counts, throughput, token and request latency).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "  completed {} | rejected {} | in flight {}\n  throughput: {:.1} tok/s | mean batch {:.1}\n  token latency  p50 {:.2} ms  p99 {:.2} ms\n  request latency p50 {:.1} ms  p99 {:.1} ms\n",
            self.completed,
            self.rejected,
            self.in_flight,
            self.throughput_tps,
            self.mean_batch,
            self.p50_token_ms,
            self.p99_token_ms,
            self.p50_request_ms,
            self.p99_request_ms,
        );
        if let Some(b) = &self.slo_burn {
            out.push_str(&b.to_text());
        }
        out
    }
}

/// One offered request: a Poisson arrival, or a session turn when `turn`
/// is set.
#[derive(Debug, Clone)]
pub(crate) struct Arrival {
    pub(crate) id: usize,
    /// Arrival time, ps, rounded once where it is generated.
    pub(crate) arrival_ps: u64,
    pub(crate) context: usize,
    pub(crate) output: usize,
    pub(crate) class: SloClass,
    /// Cold prefill cost of the full prompt, ns.
    pub(crate) prefill_ns: f64,
    pub(crate) turn: Option<SessionTurn>,
}

impl Arrival {
    /// The scheduler's view of this arrival on a replica of geometry `g`,
    /// priced cold (no prefix reuse).
    fn request(&self, g: &KvDeviceGeometry) -> SchedRequest {
        SchedRequest {
            id: self.id,
            class: self.class,
            arrival_ps: self.arrival_ps,
            context: self.context,
            output: self.output,
            prefill_ps: clock::ps(self.prefill_ns),
            restore_ps: g.restore_ps(self.context),
            recompute_ps: g.recompute_ps(self.context),
            pull_ps: u64::MAX,
            prefix_hash: None,
        }
    }
}

/// Pre-generates the run's Poisson arrival process with its class draws
/// and prefill costs, so the offered load is byte-identical regardless of
/// how many replicas serve it: arrivals from the workload seed, classes
/// from a dedicated stream (`seed ^ CLASS_SEED`). Gaps accumulate in f64
/// ns; each arrival time is rounded to ps once. Comes back reversed — pop
/// from the back in time order. `workload` must pass [`validate`].
fn gen_arrivals(model: &ModelConfig, workload: &WorkloadConfig, mix: &SloMix) -> Vec<Arrival> {
    let mut rng = SimRng::seed_from(workload.seed);
    // The Poisson count of mean λ = rate · duration exceeds λ + 4√λ in
    // about 3 of 10⁵ runs, so reserving that spares the list the copies
    // and the slack of growing by doubling. A reservation the allocator
    // refuses is skipped and the list grows as it would have.
    let mean = workload.arrivals_per_s * workload.duration_s;
    let mut arrivals: Vec<Arrival> = Vec::new();
    let _ = arrivals.try_reserve((mean + 4.0 * mean.sqrt()) as usize);
    let mut t = 0.0f64;
    let horizon_ns = workload.duration_s * 1e9;
    loop {
        let gap = -((1.0 - rng.uniform()).ln()) / workload.arrivals_per_s * 1e9;
        t += gap;
        if t >= horizon_ns {
            break;
        }
        let (c0, c1) = workload.context_tokens;
        let (o0, o1) = workload.output_tokens;
        let context = c0 + rng.below((c1 - c0).max(1));
        let output = o0 + rng.below((o1 - o0).max(1));
        arrivals.push(Arrival {
            id: arrivals.len(),
            arrival_ps: clock::ps(t),
            context,
            output,
            class: SloClass::Interactive,
            prefill_ns: 0.0,
            turn: None,
        });
    }
    // SLO classes draw from their own stream: the arrival process above is
    // identical for every mix (and for the legacy single-class runs).
    let mut class_rng = SimRng::seed_from(workload.seed ^ CLASS_SEED);
    for a in &mut arrivals {
        a.class = mix.classify(class_rng.uniform());
    }
    price_prefill(model, &mut arrivals);
    arrivals
}

/// Prices every arrival's cold prefill and reverses the list (pop from the
/// back in time order). Each cost depends only on the request's own
/// context length, so they compute up front on the deterministic parallel
/// map, bit-identical to calling `prefill_cost` at admission time.
pub(crate) fn price_prefill(model: &ModelConfig, arrivals: &mut [Arrival]) {
    let gpu = GpuSpec::h100_sxm();
    let link = CxlLink::pcie5_x16();
    let costs = longsight_exec::deterministic_map(arrivals, |_, a| {
        prefill_cost(&gpu, &link, model, a.context, 1024).total_ns
    });
    for (a, ns) in arrivals.iter_mut().zip(costs) {
        a.prefill_ns = ns;
    }
    arrivals.reverse();
}

/// The step-cost cache shared by feasibility probes and step execution,
/// keyed by `(batch, context bucket)`. The first (and only) evaluation of
/// each shape also records the system's expanded step timeline, anchored
/// at the simulated time it was first needed.
fn cached_step_cost(
    cache: &mut Vec<((usize, usize), Option<StepReport>)>,
    sys: &mut dyn ServingSystem,
    users: usize,
    ctx: usize,
    rec: &mut Recorder,
    at_ns: f64,
) -> Option<StepReport> {
    let bucket = ctx.next_power_of_two();
    if let Some(&(_, v)) = cache.iter().find(|&&(k, _)| k == (users, bucket)) {
        return v;
    }
    let v = sys.evaluate(users, bucket).ok();
    if v.is_some() {
        sys.record_step_detail(users, bucket, rec, at_ns);
    }
    cache.push(((users, bucket), v));
    v
}

/// Translates scheduler decision events into `sched.*` trace instants:
/// the request id, its class (every event but `sched.degrade`), then the
/// event's own fields.
fn flush_sched_events(sched: &mut Scheduler, rec: &mut Recorder, track: TrackId, at_ns: f64) {
    if !rec.is_enabled() {
        return;
    }
    for ev in sched.take_events() {
        let (name, id, class, extra) = match ev {
            SchedEvent::Admitted { id, class } => ("sched.admit", id, Some(class), vec![]),
            SchedEvent::Queued { id, class } => ("sched.queue", id, Some(class), vec![]),
            SchedEvent::Rejected { id, class } => ("sched.reject", id, Some(class), vec![]),
            SchedEvent::Failed { id, class } => ("sched.fail", id, Some(class), vec![]),
            SchedEvent::Preempted {
                id,
                class,
                hbm_pages,
            } => (
                "sched.preempt",
                id,
                Some(class),
                vec![("hbm_pages", ArgVal::U(hbm_pages as u64))],
            ),
            SchedEvent::Resumed {
                id,
                class,
                cost_ps,
                restored,
            } => (
                "sched.resume",
                id,
                Some(class),
                vec![
                    ("cost_ns", ArgVal::F(clock::ns(cost_ps))),
                    ("restored", ArgVal::U(restored as u64)),
                ],
            ),
            SchedEvent::Degraded { id, drex_pages } => (
                "sched.degrade",
                id,
                None,
                vec![("drex_pages", ArgVal::U(drex_pages as u64))],
            ),
            SchedEvent::Completed {
                id,
                class,
                latency_ms,
            } => (
                "sched.complete",
                id,
                Some(class),
                vec![("latency_ms", ArgVal::F(latency_ms))],
            ),
        };
        let mut args = vec![("id", ArgVal::U(id as u64))];
        args.extend(class.map(|c| ("class", ArgVal::S(c.name()))));
        args.extend(extra);
        rec.instant_with(track, name, at_ns, &args);
    }
}

/// The paged-KV surface: how this system's devices map contexts onto HBM
/// window pages and DReX tail pages. Systems without page accounting get
/// an unbounded ledger (admission degenerates to step feasibility).
fn geometry_for(system: &dyn ServingSystem, opts: &SchedOptions) -> KvDeviceGeometry {
    system
        .kv_geometry(opts.page_tokens)
        .unwrap_or(KvDeviceGeometry {
            page_tokens: opts.page_tokens.max(1),
            window_tokens: usize::MAX,
            hbm_capacity_pages: usize::MAX / 4,
            drex_capacity_pages: usize::MAX / 4,
            restore_ns_per_page: 0.0,
            recompute_ns_per_token: 0.0,
        })
}

fn sched_config_for(geometry: &KvDeviceGeometry, opts: &SchedOptions) -> SchedConfig {
    let page_cfg = geometry.page_config(opts.hbm_watermark);
    let mut sched_cfg = match opts.policy {
        SchedPolicy::Fifo => SchedConfig::fifo(page_cfg, geometry.window_tokens),
        SchedPolicy::SloAware => {
            SchedConfig::slo_aware(page_cfg, geometry.window_tokens, opts.prefill_chunk_tokens)
        }
    };
    // Validated at the CLI boundary (`--prefill-slots 0` is rejected with
    // an error, not clamped); `Scheduler::new` debug-asserts the contract.
    sched_cfg.prefill_slots = opts.prefill_slots;
    sched_cfg
}

/// The miss draws of a speculated step, their rates as exact
/// [`Threshold`]s. Each issued member draws on its own `domain::SPEC`
/// stream: stale speculation (coordinate 0, under the lookahead seed: the
/// context grew past the speculated region or an eviction/restore
/// invalidated pages, modeled by `miss_rate`) and, under fault injection,
/// an in-flight void (coordinate 1, under the fault seed: the slice
/// timeout/bit-flip classes that would corrupt a synchronous offload kill
/// the speculative copy). The void draw lives off the retry ladder's
/// `domain::TOKEN` stream, so a voided slot charges a miss and is never
/// double-retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpecDraws {
    seed: u64,
    stale: Threshold,
    fault_seed: u64,
    void: Threshold,
}

impl SpecDraws {
    fn new(s: &SpecStep, inj: Option<&FaultInjector>) -> Self {
        let (fault_seed, void_rate) = inj.map_or((0, 0.0), |inj| {
            let p = inj.profile();
            (inj.seed(), p.timeout_rate + p.bitflip_rate)
        });
        Self {
            seed: s.seed,
            stale: Threshold::new(s.miss_rate),
            fault_seed,
            void: Threshold::new(void_rate),
        }
    }

    /// An issued member's `(stale, voided)` draws at token `tok`.
    #[inline]
    fn miss(&self, keys: &RequestStreams, tok: u64) -> (bool, bool) {
        let [stale, void] = keys.spec(tok);
        (
            self.stale.fires(self.seed, stale, 0),
            self.void.fires(self.fault_seed, void, 0),
        )
    }
}

/// Everything a step draws per token: token faults' first faults and
/// speculation's misses, each when armed.
#[derive(Debug, Clone, Copy)]
struct StepDraws<'a> {
    faults: Option<&'a FaultInjector>,
    spec: Option<SpecDraws>,
}

impl StepDraws<'_> {
    /// Whether token `tok` meets no first fault and, issued, would not
    /// miss.
    #[inline]
    fn clean(&self, keys: &RequestStreams, tok: u64) -> bool {
        self.faults
            .is_none_or(|inj| first_fault(inj, keys, tok).is_none())
            && self
                .spec
                .is_none_or(|s| s.miss(keys, tok) == (false, false))
    }
}

/// One decoding member's draw streams and how far its tokens are known
/// clean ([`StepDraws::clean`]): tokens `from..clean_to` are, and token
/// `clean_to` is not when `dirty`. Every draw is a pure function of
/// `(seed, request id, token)`, so what one step call scanned holds for
/// the next, and each token is scanned once.
#[derive(Debug, Clone, Copy)]
struct Horizon {
    id: usize,
    keys: RequestStreams,
    from: u64,
    clean_to: u64,
    dirty: bool,
}

impl Horizon {
    fn new(id: usize) -> Self {
        Self {
            id,
            keys: RequestStreams::new(id as u64),
            from: 0,
            clean_to: 0,
            dirty: false,
        }
    }

    /// How many tokens from `tok` on are clean, up to `bound`: the
    /// member's clean horizon. Scans only tokens no earlier call did.
    fn clean_run(&mut self, draws: &StepDraws, tok: u64, bound: usize) -> usize {
        if !(self.from..=self.clean_to).contains(&tok) {
            (self.from, self.clean_to, self.dirty) = (tok, tok, false);
        }
        let end = tok.saturating_add(bound as u64);
        while !self.dirty && self.clean_to < end {
            if draws.clean(&self.keys, self.clean_to) {
                self.clean_to += 1;
            } else {
                self.dirty = true;
            }
        }
        usize::try_from(self.clean_to - tok).map_or(bound, |c| c.min(bound))
    }

    /// Whether an earlier scan found token `tok` clean.
    fn knows_clean(&self, tok: u64) -> bool {
        (self.from..self.clean_to).contains(&tok)
    }
}

/// One decoding member's draws at an unclean step 0 ([`ReplicaSim::draw`]).
#[derive(Debug, Clone, Copy)]
struct Draw {
    id: usize,
    tok: u64,
    /// Gets a speculative slot; always `false` without speculation.
    slot: bool,
    /// The issued member's `(stale, voided)` miss draws ([`SpecDraws::miss`]).
    miss: (bool, bool),
    /// The first fault it meets ([`first_fault`]): its token takes the
    /// retry ladder.
    fault: Option<FirstFault>,
}

/// What [`ReplicaSim::draw`] decided about one step; the default is a
/// step nobody draws for.
#[derive(Debug, Clone, Copy, Default)]
struct Drawn {
    /// Speculated members `(hits, misses, denied)`.
    spec: (usize, usize, usize),
    /// Some member meets a first fault.
    faulted: bool,
}

impl Drawn {
    /// How speculation charges the step: any miss runs the synchronous
    /// path plus the deterministic re-filter penalty, a denial-only step
    /// runs the synchronous path, an all-hit step keeps the hit path.
    fn charge(&self) -> SpecCharge {
        match self.spec {
            (_, misses, _) if misses > 0 => SpecCharge::Miss,
            (_, _, denied) if denied > 0 => SpecCharge::Denied,
            _ => SpecCharge::Hit,
        }
    }
}

/// Why a replica halted short of its work: [`run`] returns it as a
/// [`RunError`] naming the replica.
#[derive(Debug, Clone, Copy)]
enum Refusal {
    /// `sys` cannot evaluate this `(users, context bucket)` decode shape.
    Step(usize, usize),
    /// `sys` speculates with a lookahead pool of zero slots.
    NoSpecSlots,
}

/// Records one telemetry sampling point for a scheduler: queue depth per
/// SLO class, batch size, and page occupancy in both tiers. `prefix` is
/// empty for a lone replica and `r{i}.` inside fleets; series
/// intern themselves on first touch, so the per-sample cost is a window
/// index plus a hash lookup.
fn sample_sched_timeseries(rec: &mut Recorder, prefix: &str, now_ns: f64, sched: &Scheduler) {
    if !rec.timeseries.is_enabled() {
        return;
    }
    let q = sched.queue_depths();
    let load = sched.load();
    let ts = &mut rec.timeseries;
    ts.gauge(&format!("{prefix}queue.interactive"), now_ns, q[0] as f64);
    ts.gauge(&format!("{prefix}queue.batch"), now_ns, q[1] as f64);
    ts.gauge(&format!("{prefix}queue.best_effort"), now_ns, q[2] as f64);
    ts.gauge(&format!("{prefix}active"), now_ns, load.active as f64);
    ts.gauge(&format!("{prefix}hbm_pages"), now_ns, load.hbm_used as f64);
    ts.gauge(
        &format!("{prefix}drex_pages"),
        now_ns,
        load.drex_used as f64,
    );
    // Prefix-cache gauges exist only when the cache is armed (session
    // runs), so every sessionless series list is byte-identical.
    if sched.pages().prefix_capacity() > 0 {
        let stats = sched.pages().stats();
        let lookups = stats.prefix_hits + stats.prefix_misses;
        if lookups > 0 {
            ts.gauge(
                &format!("{prefix}prefix.reuse"),
                now_ns,
                stats.prefix_hits as f64 / lookups as f64,
            );
        }
        ts.gauge(
            &format!("{prefix}prefix.pinned_pages"),
            now_ns,
            sched.pages().prefix_pinned_pages() as f64,
        );
    }
}

/// Drains the burn-rate engine at end of run: emits one `slo.burn` trace
/// instant per alert window on a dedicated `slo` track and returns the
/// budget summary for `ServeMetrics`/`FleetReport`. Returns `None` — and
/// interns no track — when timeseries telemetry is off, keeping
/// telemetry-off traces byte-identical.
fn finalize_slo_burn(rec: &mut Recorder) -> Option<SloBurnSummary> {
    if !rec.timeseries.is_enabled() {
        return None;
    }
    let alerts = rec.timeseries.burn_alerts();
    let totals = rec.timeseries.burn_totals();
    let slo_track = rec.track("slo");
    for a in &alerts {
        rec.instant_with(
            slo_track,
            "slo.burn",
            a.t_ns,
            &[
                ("window", ArgVal::U(a.window as u64)),
                ("fast", ArgVal::F(a.fast)),
                ("slow", ArgVal::F(a.slow)),
            ],
        );
    }
    Some(SloBurnSummary {
        slo_ms: totals.slo_ms,
        budget: totals.budget,
        completions: totals.completions,
        misses: totals.misses,
        consumed: totals.consumed,
        alert_windows: alerts.len() as u64,
        first_alert_ms: alerts.first().map_or(0.0, |a| a.t_ns / 1e6),
    })
}

/// A session turn in flight on a replica (session runs only).
struct PendingTurn {
    id: usize,
    /// Content key and page count this turn publishes into the prefix
    /// cache of the replica it completes on (the next turn's prefix).
    publish: (u64, usize),
    /// Cold prefill of a warm turn — one priced against a prefix it pinned
    /// or pulled. A crash that voids the pin reprices it to this on the
    /// redispatch target. `None` for cold turns and after a redispatch.
    cold_prefill_ns: Option<f64>,
}

/// One replica: the serving system it drives and that system's KV
/// geometry, with its own scheduler, page ledger, clock, step-cost cache
/// and trace tracks.
///
/// A lone replica (`idx = None`, a one-replica run) keeps unprefixed
/// `serving`/`faults`/`sched`/`spec` tracks and telemetry series. Replica
/// `i` of a fleet prefixes its tracks and series with `r{i}.`; [`run`]
/// advances it to every arrival time, routes from its [`Scheduler::load`]
/// snapshot, and injects into it. Token faults and attribution apply to
/// every replica alike.
struct ReplicaSim<'a> {
    sys: &'a mut dyn ServingSystem,
    /// How `sys` maps contexts onto pages; prices restores, recomputes and
    /// pulls of the requests placed here.
    geometry: KvDeviceGeometry,
    sched: Scheduler,
    /// The replica clock, ps.
    now: u64,
    /// Decode steps and the tokens they generated: the mean batch size.
    batch_steps: usize,
    generated_tokens: usize,
    cache: Vec<((usize, usize), Option<StepReport>)>,
    serving_track: TrackId,
    sched_track: TrackId,
    /// Track and series name prefix: empty standalone, `r{i}.` in a fleet.
    prefix: String,
    /// Speculative slot pool, sized from the first speculated report so
    /// the bound comes from the system's own lookahead config. Slots pool
    /// per device: replicas share nothing, and multi-stream DReX sharing
    /// happens inside one replica's pool. Stays `None` — and the `spec`
    /// track uninterned — on every lookahead-off run.
    spec_pool: Option<SpecSlotPool>,
    spec_track: Option<TrackId>,
    spec_counts: (usize, usize, usize),
    /// The decoding members' draws at an unclean step 0, reused.
    draws: Vec<Draw>,
    /// The decoding members' clean horizons in batch order, kept across
    /// step calls ([`ReplicaSim::sync_horizons`]), and the spare buffer
    /// they are lined up in.
    horizons: Vec<Horizon>,
    spare: Vec<Horizon>,
    /// The speculation draws `horizons` were scanned under.
    horizon_spec: Option<SpecDraws>,
    /// Token-level fault injection and its trace track.
    faults: Option<(&'a FaultInjector, &'a RetryPolicy, TrackId)>,
    fault_log: FaultLog,
    /// Token outcomes: retries and failures from token faults; degraded
    /// tokens from token faults or DReX brownouts.
    degrade: DegradeStats,
    /// The brownout share of `degrade.degraded_tokens`: these keep part of
    /// their long-range budget, a token-fault degradation keeps none.
    brownout_tokens: usize,
    /// Crashed and not yet repaired: time passes but no step runs, so
    /// anything queued here wedges until the `Up` event (what a naive
    /// router keeps feeding).
    down: bool,
    /// Fraction of the DReX offload budget retained this step; `1.0`
    /// outside brownouts, `profile.brownout_topk_factor` inside one.
    brownout_factor: f64,
    /// Completions with classes not yet fed to this replica's circuit
    /// breaker, in completion order: the observable signal it is driven
    /// by. `None` on runs without breakers.
    completions: Option<Vec<(SloClass, f64)>>,
    /// Session turns in flight here; always empty on sessionless runs.
    turns: Vec<PendingTurn>,
    /// The overload guard, four horizons, ps: a step ending past it stays
    /// unaccounted and halts the replica.
    guard_ps: u64,
    /// Set by the step that crossed `guard_ps`, or by one `sys` refused
    /// (`refused`): a halted replica never drains or steps again, and
    /// [`run`] routes nothing more.
    halted: bool,
    /// What `sys` refused, halting this replica; [`run`] returns it as an
    /// error.
    refused: Option<Refusal>,
    /// Longest run a step may take, from [`MAX_RUN`] at construction.
    #[cfg(test)]
    max_run: usize,
}

#[cfg(test)]
thread_local! {
    /// Run-length cap of every [`ReplicaSim`] built on this thread: tests
    /// set it to 1 to compare macro-steps against single steps.
    static MAX_RUN: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    /// `(step calls, scheduler steps, per-step loop turns)` run on this
    /// thread, so tests can pin run lengths that bit-identity alone would
    /// not notice shrinking, and that a run without per-step side effects
    /// costs no loop turn.
    static RUN_COUNTS: std::cell::Cell<(usize, usize, usize)> =
        const { std::cell::Cell::new((0, 0, 0)) };
    /// `(samples, buffer capacity, distinct values)` of every class token
    /// ledger at the end of the last run on this thread, so tests can pin
    /// the ledgers' memory.
    static TOKEN_LEDGERS: std::cell::RefCell<Vec<(usize, usize, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Notes every class token ledger's footprint for [`TOKEN_LEDGERS`]
/// (tests only).
fn note_token_ledgers(_replicas: &[ReplicaSim], _views: &[ClassViews]) {
    #[cfg(test)]
    TOKEN_LEDGERS.with(|l| {
        *l.borrow_mut() = _replicas
            .iter()
            .zip(_views)
            .flat_map(|(r, v)| {
                let ledgers = r.sched.class_samples().map(|(tok, _)| tok);
                ledgers
                    .into_iter()
                    .zip(v)
                    .map(|(tok, (view, _))| (tok.len(), tok.capacity(), view.runs().len()))
            })
            .collect();
    });
}

impl<'a> ReplicaSim<'a> {
    fn new(
        sys: &'a mut dyn ServingSystem,
        opts: &SchedOptions,
        rec: &mut Recorder,
        idx: Option<usize>,
        faults: Option<(&'a FaultInjector, &'a RetryPolicy)>,
        guard_ps: u64,
    ) -> Self {
        let geometry = geometry_for(sys, opts);
        let mut sched = Scheduler::new(sched_config_for(&geometry, opts));
        sched.set_event_recording(rec.is_enabled());
        let prefix = idx.map_or(String::new(), |i| format!("r{i}."));
        let serving_track = rec.track(&format!("{prefix}serving"));
        // A lone replica interns its `faults` track even with no injector,
        // so every single-replica trace has one track list; a fleet
        // replica only under token faults.
        let faults_track =
            (idx.is_none() || faults.is_some()).then(|| rec.track(&format!("{prefix}faults")));
        let sched_track = rec.track(&format!("{prefix}sched"));
        Self {
            sys,
            geometry,
            sched,
            now: 0,
            batch_steps: 0,
            generated_tokens: 0,
            cache: Vec::new(),
            serving_track,
            sched_track,
            prefix,
            spec_pool: None,
            spec_track: None,
            spec_counts: (0, 0, 0),
            draws: Vec::new(),
            horizons: Vec::new(),
            spare: Vec::new(),
            horizon_spec: None,
            faults: faults
                .zip(faults_track)
                .map(|((inj, retry), track)| (inj, retry, track)),
            fault_log: FaultLog::new(),
            degrade: DegradeStats::default(),
            brownout_tokens: 0,
            down: false,
            brownout_factor: 1.0,
            completions: None,
            turns: Vec::new(),
            guard_ps,
            halted: false,
            refused: None,
            #[cfg(test)]
            max_run: MAX_RUN.with(std::cell::Cell::get),
        }
    }

    /// The longest run [`ReplicaSim::step`] may take.
    fn run_cap(&self) -> usize {
        #[cfg(test)]
        return self.max_run;
        #[cfg(not(test))]
        usize::MAX
    }

    /// Counts one step call advancing `n` scheduler steps in `turns`
    /// per-step loop turns (tests only).
    fn count_run(&self, _n: usize, _turns: usize) {
        #[cfg(test)]
        RUN_COUNTS.with(|c| {
            let (calls, steps, turns) = c.get();
            c.set((calls + 1, steps + _n, turns + _turns));
        });
    }

    /// Offers an arriving request to this replica's scheduler.
    fn inject(&mut self, rec: &mut Recorder, req: SchedRequest) {
        let Self {
            sys,
            sched,
            cache,
            now,
            ..
        } = self;
        let at_ns = clock::ns(*now);
        let mut feas = |users: usize, ctx: usize| -> bool {
            cached_step_cost(cache, &mut **sys, users, ctx, rec, at_ns).is_some()
        };
        sched.on_arrival(req, &mut feas);
    }

    /// Runs this replica forward until its clock reaches `t` (idling
    /// straight to `t` when the batch empties), or to completion when `t`
    /// is `None`: drain the admission queue, step, repeat. It returns as
    /// soon as the clock has reached `t`, before draining: what arrives at
    /// `t` is injected first and drains at the top of the next call (a lone
    /// replica), or in [`ReplicaSim::catch_up`] before the router reads the
    /// load (a fleet). A lone replica samples its scheduler after every
    /// drain. A crashed replica idles: its clock tracks fleet time but no
    /// queue drains and no step runs until the `Up` event. A halted one
    /// does nothing.
    fn advance(
        &mut self,
        rec: &mut Recorder,
        mut attr: Option<&mut TokenAttribution>,
        t: Option<u64>,
    ) {
        while !self.halted && t.is_none_or(|t| self.now < t) {
            if !self.down {
                self.drain(rec);
                if self.prefix.is_empty() {
                    sample_sched_timeseries(rec, "", clock::ns(self.now), &self.sched);
                }
            }
            if self.down || self.sched.active_is_empty() {
                self.now = t.map_or(self.now, |t| self.now.max(t));
                return;
            }
            self.step(rec, attr.as_deref_mut(), t);
        }
    }

    /// [`ReplicaSim::advance`] to `t`, then drains a live replica at its
    /// new clock: the state a fleet routes and redispatches from.
    fn catch_up(&mut self, rec: &mut Recorder, attr: Option<&mut TokenAttribution>, t: u64) {
        self.advance(rec, attr, Some(t));
        if !self.down && !self.halted {
            self.drain(rec);
        }
    }

    fn drain(&mut self, rec: &mut Recorder) {
        let Self {
            sys,
            sched,
            cache,
            now,
            ..
        } = self;
        let at_ns = clock::ns(*now);
        let mut feas = |users: usize, ctx: usize| -> bool {
            cached_step_cost(cache, &mut **sys, users, ctx, rec, at_ns).is_some()
        };
        sched.drain_queue(&mut feas);
        flush_sched_events(&mut self.sched, rec, self.sched_track, at_ns);
    }

    /// One synchronized step — the only one in the crate — repeated over
    /// a run of identical steps. The decoding members advance one token
    /// per step; chunked prefill shares the step (SLO-aware only).
    /// Speculation, brownout contraction and token faults pace it in that
    /// order ([`ReplicaSim::pace`]): the worst token's retry/backoff
    /// penalty paces the whole batch, and hard-failed requests leave it
    /// without emitting this token. The paced duration is rounded to whole
    /// ps once.
    ///
    /// **Macro-steps.** A step's cost depends only on the batch shape, so
    /// the plan repeats until a member completes or a chunk changes
    /// ([`Scheduler::steady_run`]), or until the first step whose end
    /// reaches `until`, the next arrival or fleet event. On the integer
    /// clock every bound is one division ([`clock::steps_to_reach`],
    /// [`clock::steps_within`]), step `k` of a run starts at exactly
    /// `now + k·dt`, and the run is applied in one go: `now += n·dt` and
    /// one [`Scheduler::advance_step`] for the chunks and the decoders.
    /// A loop over the run's steps remains only for what each step emits:
    /// with the recorder on, its `spec.issue`/`spec.hit` instants and its
    /// `decode.step` span; with the time series on, its `tokens` rate and
    /// scheduler sample. Attribution takes the run as one weighted record.
    ///
    /// **Eligibility.** Speculation and token faults draw per token, so a
    /// run also ends before its first step that is not *clean*: one where a
    /// decoding member is denied a slot, misses (stale or void), hard-fails
    /// or times out on attempt 0. A clean step logs no fault and keeps the
    /// hit path's `dt`, so the run's length is found without stepping
    /// ([`ReplicaSim::clean_steps`]): the smallest clean horizon of the
    /// decoding members, then the steps whose issues all fit the slot
    /// pool, issued in order. When step 0 itself is not clean it runs
    /// alone through one draw ([`ReplicaSim::draw`]) and one commit
    /// ([`ReplicaSim::commit`]) at its own `dt`.
    ///
    /// **Halts.** A step that ends past `guard_ps` stays unaccounted (the
    /// steps of the run before it count) and halts the replica. So does a
    /// decode subset that admission never probed and `sys` cannot
    /// evaluate, and a lookahead pool of zero slots; what was refused is
    /// kept in `refused`.
    // Out of line: inlined into `advance`, its draw, pool and fault paths
    // moved the drain loop's code and cost session_mix, which takes none
    // of them, about 10% host time.
    #[inline(never)]
    fn step(
        &mut self,
        rec: &mut Recorder,
        attr: Option<&mut TokenAttribution>,
        until: Option<u64>,
    ) {
        let plan = self.sched.plan_step();
        let (users, ctx) = (plan.decode_users, plan.max_decode_ctx);
        let now0 = self.now;
        let at_ns = clock::ns(now0);
        let report = match users {
            0 => None,
            _ => match cached_step_cost(&mut self.cache, &mut *self.sys, users, ctx, rec, at_ns) {
                None => return self.refuse(Refusal::Step(users, ctx.next_power_of_two())),
                r => r,
            },
        };
        // With the lookahead pipeline on, the chain for this step was
        // issued speculatively at the previous one. Draws key off the global
        // request id, so a request resolves identically wherever the router
        // placed it. Lookahead-off reports carry no `spec`, so the slot pool
        // (and the `spec` track) never exists on that path.
        let spec_step = report.and_then(|r| r.spec);
        if let Some(s) = spec_step {
            if self.spec_pool.is_none() {
                if s.slots == 0 {
                    return self.refuse(Refusal::NoSpecSlots);
                }
                self.spec_pool = Some(SpecSlotPool::new(s.slots));
            }
            self.spec_track
                .get_or_insert_with(|| rec.track(&format!("{}spec", self.prefix)));
        }
        let token_faults = self.faults.map(|f| f.0);
        let draws = StepDraws {
            faults: token_faults,
            spec: spec_step.map(|s| SpecDraws::new(&s, token_faults)),
        };
        // Every clean step keeps the hit path's pacing.
        let hit = spec_step.as_ref().map(|s| (s, SpecCharge::Hit));
        let (mut work_dt, mut dt) = self.pace(report.as_ref(), &plan, hit, 0.0);
        let (mut taken, mut n) = self.run_bounds(dt, until);
        let decoding = self.sched.decoding_count();
        let clean = if draws.faults.is_some() || draws.spec.is_some() {
            let chain_ps = spec_step.map(|s| clock::ps(s.chain_ns));
            self.clean_steps(&draws, chain_ps, dt, taken)
        } else {
            taken
        };
        let spec = if clean > 0 {
            // `clean` clean steps: every member hits at each.
            (taken, n) = (clean, clean.min(n));
            spec_step.map(|s| {
                self.spec_counts.0 += decoding * clean;
                (s, SpecCharge::Hit, (decoding, 0, 0))
            })
        } else {
            // Step 0 is not clean: it runs alone at its own pacing.
            let drawn = self.draw(&draws);
            let penalty = self.commit(rec, spec_step.as_ref(), drawn);
            let charged = spec_step.map(|s| (s, drawn.charge(), drawn.spec));
            let paced = charged.as_ref().map(|(s, charge, _)| (s, *charge));
            (work_dt, dt) = self.pace(report.as_ref(), &plan, paced, penalty);
            // A hard fault may have emptied the batch.
            if self.faults.is_some() && self.sched.active_is_empty() {
                if rec.is_enabled() {
                    self.trace_step(rec, &plan, work_dt, dt);
                }
                self.now = clock::after(now0, 1, dt);
                flush_sched_events(&mut self.sched, rec, self.sched_track, clock::ns(self.now));
                return;
            }
            (taken, n) = (1, clock::steps_within(now0, dt, self.guard_ps).min(1));
            charged
        };
        // A hard fault leaves the batch smaller than the plan.
        let decoding = if clean > 0 {
            decoding
        } else {
            self.sched.decoding_count()
        };
        let ts_on = rec.timeseries.is_enabled();
        // The steps' own side effects, step `k` at `now0 + k·dt`: the hit
        // instants of a clean step (an unclean step 0 emitted its own in
        // its commit), the end-of-step sample of the step before it and its
        // span. Only the last step can complete a request, so every earlier
        // one samples what the end of a lone step would: no completion, no
        // scheduler event, and gauges it leaves alone. (A lone replica's own
        // sample after each drain repeats them at the same `now`; gauges
        // keep the last write per window.)
        let per_step = ts_on || rec.is_enabled();
        let mut turns = 0;
        while per_step && turns < taken {
            let k = turns;
            self.now = clock::after(now0, k, dt);
            if clean > 0 && spec_step.is_some() {
                self.trace_hits(rec, k);
            }
            if k > 0 && ts_on {
                self.sample_step(rec, decoding);
            }
            if rec.is_enabled() {
                self.trace_step(rec, &plan, work_dt, dt);
            }
            turns += 1;
        }
        self.now = clock::after(now0, taken, dt);
        self.count_run(n, turns);
        if decoding > 0 && n > 0 {
            if let (Some(a), Some(r)) = (attr, report.as_ref()) {
                attribute_steps(a, r, spec, clock::ns(dt), decoding.min(64), n);
            }
            self.batch_steps += n;
            self.generated_tokens += decoding * n;
            if self.brownout_factor < 1.0 {
                self.degrade.degraded_tokens += decoding * n;
                self.brownout_tokens += decoding * n;
            }
        }
        let done = self.sched.advance_step(dt, n, self.now);
        if n < taken {
            // The steps before the one past the guard completed nothing
            // (`done` is empty); the guard step itself stays unaccounted.
            // The run's request latencies are the scheduler's, so a
            // completion dropped here would still count in them.
            debug_assert!(done.is_empty(), "completion before the guard step");
            self.halted = true;
            return;
        }
        let now_ns = clock::ns(self.now);
        for c in done {
            // A completed session turn publishes its prefix under its
            // content key on the replica it completed on.
            if let Some(pos) = self.turns.iter().position(|t| t.id == c.id) {
                let (hash, pages) = self.turns.swap_remove(pos).publish;
                self.sched.pages_mut().prefix_insert(hash, pages);
            }
            if let Some(log) = self.completions.as_mut() {
                log.push((c.class, c.latency_ms));
            }
            if ts_on {
                rec.timeseries
                    .observe_ms("lat.request_ms", now_ns, c.latency_ms);
                if c.class == SloClass::Interactive {
                    rec.timeseries.slo_sample(now_ns, c.latency_ms);
                }
            }
        }
        flush_sched_events(&mut self.sched, rec, self.sched_track, now_ns);
        if ts_on {
            self.sample_step(rec, decoding);
        }
    }

    /// Halts this replica on something `sys` refused.
    fn refuse(&mut self, why: Refusal) {
        self.refused = Some(why);
        self.halted = true;
    }

    /// A step's `(work_dt, dt)`, ps: the report's duration, or under
    /// speculation the one its charge picks (the hit path, the synchronous
    /// path, or that plus the re-filter penalty on a miss), contracted by a
    /// brownout and never below the planned prefill; under token faults
    /// `dt` adds the worst token's `penalty`.
    fn pace(
        &self,
        report: Option<&StepReport>,
        plan: &StepPlan,
        spec: Option<(&SpecStep, SpecCharge)>,
        penalty: f64,
    ) -> (u64, u64) {
        let mut base_dt = report.map_or(0.0, |r| r.step_ns);
        if let Some((s, charge)) = spec {
            match charge {
                SpecCharge::Miss => base_dt = s.serial_step_ns + s.refilter_penalty_ns,
                SpecCharge::Denied => base_dt = s.serial_step_ns,
                SpecCharge::Hit => {}
            }
        }
        if self.brownout_factor < 1.0 {
            // Brownout: the DReX tier runs on a shrunken top-k budget, so
            // the offload share of the step contracts proportionally and
            // every token decoded under it loses part of its long-range
            // attention (charged in `step` as a degraded token).
            if let Some(r) = report {
                let offload = r.breakdown.drex_offload_ns + r.breakdown.cxl_ns;
                base_dt = (base_dt - (1.0 - self.brownout_factor) * offload).max(0.0);
            }
        }
        // Chunked prefill hides inside the memory-bound decode step; only a
        // pure-prefill step pays chunk time alone. FIFO plans no chunks, so
        // `work_ns == base_dt` exactly.
        let work_ns = base_dt.max(clock::ns(plan.prefill_ps));
        match self.faults {
            Some(_) => (clock::ps(work_ns), clock::ps(work_ns + penalty)),
            None => (clock::ps(work_ns), clock::ps(work_ns)),
        }
    }

    /// `(taken, n)` of a run of steps of `dt` from `now`: `taken` steps
    /// repeat the plan up to the first whose end reaches `until`, and `n`
    /// of them end by the guard; the step after those `n` (when the run
    /// gets that far) halts the replica.
    fn run_bounds(&self, dt: u64, until: Option<u64>) -> (usize, usize) {
        let mut run = self.sched.steady_run(self.run_cap());
        if let Some(until) = until {
            run = run.min(clock::steps_to_reach(self.now, dt, until));
        }
        let within = clock::steps_within(self.now, dt, self.guard_ps);
        (run.min(within.saturating_add(1)), run.min(within))
    }

    /// Lines `horizons` up with the decoding members in batch order. A
    /// member keeps what earlier calls scanned; the batch only appends and
    /// removes, so one forward search finds each. Scans under other
    /// speculation draws are dropped.
    fn sync_horizons(&mut self, spec: Option<SpecDraws>) {
        if self.horizon_spec != spec {
            self.horizon_spec = spec;
            self.horizons.clear();
        }
        let Self {
            sched,
            horizons,
            spare,
            ..
        } = self;
        spare.clear();
        let mut rest = &horizons[..];
        for m in sched.active().iter().filter(|m| m.in_decode) {
            let h = match rest.iter().position(|h| h.id == m.req.id) {
                Some(p) => {
                    let h = rest[p];
                    rest = &rest[p + 1..];
                    h
                }
                None => Horizon::new(m.req.id),
            };
            spare.push(h);
        }
        std::mem::swap(horizons, spare);
    }

    /// How many steps of `dt` from step 0 on come out clean, up to `bound`.
    /// Each decoding member scans its tokens once ([`Horizon::clean_run`])
    /// up to the smallest horizon so far; under speculation the slot pool
    /// then issues those steps in order, each releasing at its start, and
    /// the run stops before the first whose issues do not all fit (that
    /// step's release stands, as in the per-step loop). 0 when step 0 is
    /// not clean.
    fn clean_steps(
        &mut self,
        draws: &StepDraws,
        chain_ps: Option<u64>,
        dt: u64,
        bound: usize,
    ) -> usize {
        self.sync_horizons(draws.spec);
        let Self {
            sched,
            horizons,
            spec_pool,
            now,
            ..
        } = self;
        let members = sched.active().iter().filter(|m| m.in_decode);
        let mut clean = bound;
        for (m, h) in members.zip(horizons.iter_mut()) {
            if clean == 0 {
                break;
            }
            clean = h.clean_run(draws, m.generated as u64, clean);
        }
        let (Some(chain), Some(pool)) = (chain_ps, spec_pool.as_mut()) else {
            return clean;
        };
        let per_step = horizons.len();
        for k in 0..clean {
            let t = clock::after(*now, k, dt);
            pool.release_until(t);
            if pool.occupancy() + per_step > pool.capacity() {
                return k;
            }
            for _ in 0..per_step {
                pool.try_issue(t, chain);
            }
        }
        clean
    }

    /// Draws an unclean step 0 at the current `now` in one pass over the
    /// decoding members, at token `generated`, into `draws`. Under
    /// speculation it first releases the slots done by `now`; then the
    /// first `capacity − occupancy` members get a slot (what issuing them
    /// one at a time grants) and each of those draws its miss
    /// ([`SpecDraws::miss`]). Under token faults every member draws its
    /// first fault. A member whose horizon already holds the token clean
    /// draws nothing. Every draw is a pure function of `(seed, id, token)`,
    /// so drawing changes nothing but the pool's release.
    fn draw(&mut self, step: &StepDraws) -> Drawn {
        let Self {
            sched,
            now,
            spec_pool,
            horizons,
            draws,
            ..
        } = self;
        let mut free = match (step.spec, spec_pool.as_mut()) {
            (Some(_), Some(pool)) => {
                pool.release_until(*now);
                pool.capacity() - pool.occupancy()
            }
            _ => 0,
        };
        let mut out = Drawn::default();
        draws.clear();
        let members = sched.active().iter().filter(|r| r.in_decode);
        for (r, h) in members.zip(horizons.iter()) {
            let (id, tok) = (r.req.id, r.generated as u64);
            let known_clean = h.knows_clean(tok);
            let mut d = Draw {
                id,
                tok,
                slot: false,
                miss: (false, false),
                fault: step
                    .faults
                    .filter(|_| !known_clean)
                    .and_then(|inj| first_fault(inj, &h.keys, tok)),
            };
            if let Some(s) = step.spec {
                d.slot = free > 0;
                if d.slot {
                    free -= 1;
                    if !known_clean {
                        d.miss = s.miss(&h.keys, tok);
                    }
                }
                match (d.slot, d.miss) {
                    (false, _) => out.spec.2 += 1,
                    (true, (false, false)) => out.spec.0 += 1,
                    (true, _) => out.spec.1 += 1,
                }
            }
            out.faulted |= d.fault.is_some();
            draws.push(d);
        }
        out
    }

    /// Commits the unclean step 0 just drawn at the current `now`. In
    /// member order it issues each slot (a denied issue fails as it would
    /// alone) with its `spec.issue` and `spec.hit`/`spec.miss` instants.
    /// Then, again in member order, it resolves the token of each member
    /// with a first fault through [`resolve_fault`], so the [`FaultLog`]
    /// keeps its order, replays the new fault events onto the trace (1:1
    /// with the log) at `now`, removes the hard-failed requests from the
    /// batch and returns the DReX tail pages of degraded ones, which lost
    /// their long-range path. Returns the worst retry/backoff penalty of a
    /// token that did not fail.
    fn commit(&mut self, rec: &mut Recorder, spec: Option<&SpecStep>, drawn: Drawn) -> f64 {
        let Self {
            sched,
            now,
            draws,
            spec_pool,
            spec_track,
            spec_counts,
            faults,
            fault_log,
            degrade,
            turns,
            ..
        } = self;
        let (now_ps, now) = (*now, clock::ns(*now));
        if let Some(((s, pool), track)) = spec.zip(spec_pool.as_mut()).zip(*spec_track) {
            let recording = rec.is_enabled();
            let chain_ps = clock::ps(s.chain_ns);
            for d in draws.iter() {
                let issued = pool.try_issue(now_ps, chain_ps);
                debug_assert_eq!(issued, d.slot, "the draw predicts every issue");
                if issued && recording {
                    let (stale, voided) = d.miss;
                    let args = [
                        ("id", ArgVal::U(d.id as u64)),
                        ("tok", ArgVal::U(d.tok)),
                        ("void", ArgVal::U(u64::from(voided))),
                    ];
                    rec.instant_with(track, "spec.issue", now, &args[..2]);
                    if stale || voided {
                        rec.instant_with(track, "spec.miss", now, &args);
                    } else {
                        rec.instant_with(track, "spec.hit", now, &args[..2]);
                    }
                }
            }
            spec_counts.0 += drawn.spec.0;
            spec_counts.1 += drawn.spec.1;
            spec_counts.2 += drawn.spec.2;
        }
        let mut penalty = 0.0f64;
        let Some((inj, retry, track)) = faults.filter(|_| drawn.faulted) else {
            return penalty;
        };
        let (mut dead, mut degraded) = (Vec::new(), Vec::new());
        let logged = fault_log.len();
        for (d, first) in draws.iter().filter_map(|d| Some((d, d.fault?))) {
            let (outcome, p) = resolve_fault(inj, retry, first, fault_log);
            degrade.record(outcome);
            match outcome {
                TokenOutcome::Failed => dead.push(d.id),
                TokenOutcome::Degraded => {
                    degraded.push(d.id);
                    penalty = penalty.max(p);
                }
                TokenOutcome::Completed { .. } => penalty = penalty.max(p),
            }
        }
        fault_log.record_tail_into(logged, rec, track, now);
        sched.remove_failed(&dead);
        turns.retain(|t| !dead.contains(&t.id));
        for id in degraded {
            sched.on_degraded(id);
        }
        penalty
    }

    /// The `spec.issue` and `spec.hit` instants of clean speculated step
    /// `k` of a run at the current `now`, in member order: what its commit
    /// would have emitted. Nothing without a recorder.
    fn trace_hits(&self, rec: &mut Recorder, k: usize) {
        let Some(track) = self.spec_track.filter(|_| rec.is_enabled()) else {
            return;
        };
        let now = clock::ns(self.now);
        for r in self.sched.active().iter().filter(|r| r.in_decode) {
            let args = [
                ("id", ArgVal::U(r.req.id as u64)),
                ("tok", ArgVal::U((r.generated + k) as u64)),
            ];
            rec.instant_with(track, "spec.issue", now, &args);
            rec.instant_with(track, "spec.hit", now, &args);
        }
    }

    /// The [`RunError`] of this replica, index `replica` of the run, if it
    /// halted on something its system refused.
    fn feasible(&self, replica: usize) -> Result<(), RunError> {
        match self.refused {
            Some(Refusal::Step(users, ctx)) => Err(RunError::StepInfeasible {
                replica,
                users,
                ctx,
            }),
            Some(Refusal::NoSpecSlots) => Err(RunError::NoSpecSlots { replica }),
            None => Ok(()),
        }
    }

    /// The trace of one step of `dt` ps starting at the current `now`: a
    /// `decode.step` span (with a nested `decode.retry_wait` when fault
    /// penalties stretch it past `work_dt`), or a `prefill.step` leaf when
    /// nobody decodes.
    fn trace_step(&self, rec: &mut Recorder, plan: &StepPlan, work_dt: u64, dt: u64) {
        let step_start = clock::ns(self.now);
        let step_end = clock::ns(self.now + dt);
        if plan.decode_users > 0 {
            let span = rec.open_with(
                self.serving_track,
                "decode.step",
                step_start,
                &[
                    ("users", ArgVal::U(plan.users as u64)),
                    ("ctx", ArgVal::U(plan.max_decode_ctx as u64)),
                ],
            );
            if dt > work_dt {
                // The worst token's deadline overrun paces the batch.
                rec.leaf_with(
                    self.serving_track,
                    "decode.retry_wait",
                    clock::ns(self.now + work_dt),
                    step_end,
                    &[("penalty_ns", ArgVal::F(clock::ns(dt - work_dt)))],
                );
            }
            rec.close(span, step_end);
        } else {
            rec.leaf_with(
                self.serving_track,
                "prefill.step",
                step_start,
                step_end,
                &[
                    ("users", ArgVal::U(plan.prefill_users as u64)),
                    ("prefill_ns", ArgVal::F(clock::ns(plan.prefill_ps))),
                ],
            );
        }
    }

    /// The end-of-step time-series samples at the current `now`: decoded
    /// tokens (and brownout-degraded ones) plus the scheduler snapshot.
    fn sample_step(&self, rec: &mut Recorder, decoding: usize) {
        let now = clock::ns(self.now);
        if decoding > 0 {
            rec.timeseries.rate_add("tokens", now, decoding as f64);
            if self.brownout_factor < 1.0 {
                rec.timeseries.rate_add(
                    &format!("{}degraded_tok", self.prefix),
                    now,
                    decoding as f64,
                );
            }
        }
        sample_sched_timeseries(rec, &self.prefix, now, &self.sched);
    }
}

/// Records a run of `steps` identical decode steps of `dt` ns into the
/// per-token attribution, for `counted` decoding members each, plus a
/// speculation sample per step when they were speculated. Every step of a
/// run longer than one is clean, so its steps share one charge and one
/// sample.
fn attribute_steps(
    a: &mut TokenAttribution,
    r: &StepReport,
    spec: Option<(SpecStep, SpecCharge, (usize, usize, usize))>,
    dt: f64,
    counted: usize,
    steps: usize,
) {
    let parts = attribution_parts(r, dt, spec.map(|s| s.1));
    a.record_step(parts, dt, counted * steps);
    if let Some((s, charge, (h, m, d))) = spec {
        a.record_spec_steps(
            SpecSample {
                charge,
                chain_ns: s.chain_ns,
                hit_visible_ns: s.hit_visible_ns,
                serial_visible_ns: s.serial_visible_ns,
                spec_miss_ns: parts[SPEC_MISS],
                overlap_hidden_ns: parts[OVERLAP_HIDDEN],
                penalty_ns: if charge == SpecCharge::Miss {
                    s.refilter_penalty_ns
                } else {
                    0.0
                },
            },
            h,
            m,
            d,
            steps,
        );
    }
}

/// The one `ServeMetrics` aggregation every run ends in: token and request
/// latencies merged over every class of every replica (`views`, one entry
/// per replica), summed counters, the span of the slowest replica.
/// `offered` arrivals end completed, rejected, waiting, failed, shed
/// (`shed` of them) or in flight. A token degraded by a token fault keeps
/// none of its long-range top-k budget, one decoded under a brownout keeps
/// `brownout_keep` of it. Returns the metrics with the merged token and
/// request latency views.
fn serve_metrics(
    replicas: &[ReplicaSim],
    views: &[ClassViews],
    offered: usize,
    shed: usize,
    brownout_keep: f64,
    rec: &mut Recorder,
) -> (ServeMetrics, SortedSamples, SortedSamples) {
    let sum = |count: fn(&ReplicaSim) -> usize| -> usize { replicas.iter().map(count).sum() };
    let token_lat = SortedSamples::merge(views.iter().flatten().map(|(tok, _)| tok));
    let request_lat = SortedSamples::merge(views.iter().flatten().map(|(_, req)| req));
    let span_ns = clock::ns(replicas.iter().map(|r| r.now).max().unwrap_or(0));
    let (generated, batch_steps) = (sum(|r| r.generated_tokens), sum(|r| r.batch_steps));
    let degraded = sum(|r| r.degrade.degraded_tokens);
    let brownout = sum(|r| r.brownout_tokens);
    let (completed, rejected) = (request_lat.len(), sum(|r| r.sched.rejected()));
    let failed = sum(|r| r.degrade.failed_requests);
    let waiting = sum(|r| r.sched.waiting_len());
    let metrics = ServeMetrics {
        completed,
        rejected,
        in_flight: offered - (completed + rejected + waiting + failed + shed),
        throughput_tps: generated as f64 / (span_ns.max(1.0) / 1e9),
        p50_token_ms: token_lat.percentile_round(0.5),
        p99_token_ms: token_lat.percentile_round(0.99),
        p50_request_ms: request_lat.percentile_round(0.5),
        p99_request_ms: request_lat.percentile_round(0.99),
        mean_batch: if batch_steps == 0 {
            0.0
        } else {
            generated as f64 / batch_steps as f64
        },
        retried_tokens: sum(|r| r.degrade.retried_tokens),
        degraded_tokens: degraded,
        failed_requests: failed,
        degraded_quality_delta: if generated == 0 || degraded == 0 {
            0.0
        } else {
            let lost = (degraded - brownout) as f64;
            (lost + (1.0 - brownout_keep) * brownout as f64) / generated as f64
        },
        spec_hits: sum(|r| r.spec_counts.0),
        spec_misses: sum(|r| r.spec_counts.1),
        spec_denied: sum(|r| r.spec_counts.2),
        slo_burn: finalize_slo_burn(rec),
    };
    (metrics, token_lat, request_lat)
}

/// Everything one serving [`run`] is parameterised by. [`RunSpec::new`] is
/// the plain FIFO run of one workload; set the other fields with
/// struct-update syntax.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Model every replica serves (prices each request's prefill).
    pub model: ModelConfig,
    /// Offered load (the Poisson process unless `sessions` is active).
    pub workload: WorkloadConfig,
    /// Scheduler policy and paged-KV knobs of every replica.
    pub sched: SchedOptions,
    /// Front-end routing policy (a lone replica is never routed).
    pub router: RouterPolicy,
    /// Replica fault domains, breakers and shedding (two replicas or more).
    pub faults: FleetFaultOptions,
    /// Multi-turn session workload in place of the Poisson process.
    pub sessions: SessionOptions,
    /// Token-level offload faults and their retry policy, one injector for
    /// every replica (a disabled injector is no injector).
    pub token_faults: Option<(FaultInjector, RetryPolicy)>,
}

impl RunSpec {
    /// `workload` on FIFO replicas behind a JSQ router, with no faults and
    /// no sessions.
    pub fn new(model: ModelConfig, workload: WorkloadConfig) -> Self {
        Self {
            model,
            workload,
            sched: SchedOptions::fifo(),
            router: RouterPolicy::JsqSpillover,
            faults: FleetFaultOptions::disabled(),
            sessions: SessionOptions::disabled(),
            token_faults: None,
        }
    }
}

/// Why [`run`] refuses a [`RunSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// No replica to serve the load.
    NoReplicas,
    /// Replica fault domains over a single replica: there is nothing to
    /// fail over to.
    FaultDomainsNeedTwoReplicas,
    /// The workload cannot be generated or timed: `what` names the
    /// offending knob (a negative, NaN or infinite rate or duration, an
    /// inverted context or output range, a negative or non-finite think
    /// time, or a duration whose overload guard, four horizons, overflows
    /// the picosecond clock).
    InvalidWorkload {
        /// The knob and what is wrong with it.
        what: &'static str,
    },
    /// Replica `replica` planned a decode step of `users` members that
    /// admission never probed, and its system cannot evaluate that shape
    /// at context bucket `ctx`. The replica halted there.
    StepInfeasible {
        /// Index of the halted replica.
        replica: usize,
        /// Decoding members of the refused step.
        users: usize,
        /// Context bucket of the refused step, tokens.
        ctx: usize,
    },
    /// Replica `replica`'s system speculates with a lookahead pool of zero
    /// slots, which could issue nothing. The replica halted at its first
    /// speculated step.
    NoSpecSlots {
        /// Index of the halted replica.
        replica: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NoReplicas => f.write_str("a run needs at least one replica"),
            RunError::FaultDomainsNeedTwoReplicas => {
                f.write_str("fleet fault domains need at least two replicas")
            }
            RunError::InvalidWorkload { what } => write!(f, "invalid workload: {what}"),
            RunError::StepInfeasible {
                replica,
                users,
                ctx,
            } => write!(
                f,
                "replica {replica} cannot evaluate a {users}-user decode step at context {ctx}"
            ),
            RunError::NoSpecSlots { replica } => write!(
                f,
                "replica {replica} speculates with a lookahead pool of zero slots"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// The workload knobs [`run`] generates and times arrivals from, checked
/// before anything is generated: a negative or NaN rate or a NaN duration
/// would never end the Poisson loop, an inverted range would wrap, and the
/// guard must fit the clock.
fn validate(spec: &RunSpec) -> Result<(), RunError> {
    let (wl, sess) = (&spec.workload, &spec.sessions);
    let invalid = |what| Err(RunError::InvalidWorkload { what });
    if !wl.arrivals_per_s.is_finite() || wl.arrivals_per_s < 0.0 {
        return invalid("the arrival rate must be finite and >= 0");
    }
    if !wl.duration_s.is_finite() || wl.duration_s < 0.0 {
        return invalid("the duration must be finite and >= 0");
    }
    // An inverted range would wrap `max − min` into a huge context or
    // output length.
    if wl.context_tokens.0 > wl.context_tokens.1 || wl.output_tokens.0 > wl.output_tokens.1 {
        return invalid("the context and output ranges must not be inverted");
    }
    if sess.is_active() && !(sess.think_time_ms.is_finite() && sess.think_time_ms >= 0.0) {
        return invalid("the think time must be finite and >= 0");
    }
    // `u64::MAX as f64` rounds up to 2^64, so `<` keeps the guard in range.
    if guard_horizon_ns(wl) * 1e3 >= u64::MAX as f64 {
        return invalid("the duration's overload guard overflows the picosecond clock");
    }
    Ok(())
}

/// The overload guard of `wl`, four horizons, ns.
fn guard_horizon_ns(wl: &WorkloadConfig) -> f64 {
    4.0 * wl.duration_s * 1e9
}

/// Closed-loop serving of `spec` over `systems`, one replica each: the one
/// arrival loop.
///
/// Each arrival applies the fault events due by then, advances every
/// replica to its arrival time, and is placed and injected. A lone replica
/// takes every arrival and records on unprefixed tracks. A fleet routes
/// each arrival from [`Scheduler::load`] snapshots taken once every live
/// replica has drained at the arrival time, as a pure function of `(seed,
/// arrival index, load)` logged as `route.place` instants on the `router`
/// track; replica `i` records on `r{i}.*` tracks. After the last arrival
/// every replica runs to completion. A step that ends past four horizons
/// halts its replica unaccounted, and no later arrival is placed. A
/// replica whose system refuses a decode step halts too, and the run
/// returns its error at once, before any other replica steps on. Steps
/// are synchronized across a replica's batch, and contexts are frozen at
/// admission: decode adds at most a few hundred tokens to 16K+ prompts.
///
/// * **Token faults** (`spec.token_faults`): each generated token resolves
///   through [`crate::degrade::resolve_token`] — a timeout costs the
///   deadline plus backoff, exhausted retries degrade the token to
///   window-only attention, a hard fault kills the request — and the batch
///   is paced by its worst token. Draws key on `(seed, request id, token,
///   attempt)`, so placement never changes one; the [`FaultLog`] (replica
///   by replica) matches the `faults` track instants one for one.
/// * **Fault domains** (`spec.faults`): a crash/brownout timeline from its
///   own seed, per-replica circuit breakers, and an admission controller
///   that sheds what no replica has queue room for. A crash evacuates the
///   replica and redispatches its requests onto survivors, behind the
///   rebuild charge of their [`KvDeviceGeometry`]. Every arrival is placed
///   once, redispatched with a reason, or shed; the [`FleetReport`] audit
///   enforces it.
/// * **Sessions** (`spec.sessions`, see [`crate::session`]): a session's
///   turns extend one growing context, and a completed turn publishes its
///   KV prefix into its replica's prefix cache. A follow-up resumes
///   cheapest first: a local hit pins the prefix and prefills the suffix; a
///   pooled-DReX pull from the owner pays the target's restore price × 2
///   (two fabric hops) when that beats re-prefilling, traced as a
///   `prefix.pull` span and logged as a [`PullRecord`]; otherwise it
///   prefills cold. [`RouterPolicy::Affinity`] prefers the owner. A crash
///   reprices a warm evacuee to its cold prefill (`prefix.lost`), and a
///   shed follow-up counts cold.
///
/// Recording (`rec`, and `attr` for the per-token attribution) only reads
/// simulation state, so the timeline is bit-identical to an unobserved run
/// at any thread count; only armed options intern their tracks.
///
/// # Errors
///
/// [`RunError::NoReplicas`] for an empty `systems`,
/// [`RunError::FaultDomainsNeedTwoReplicas`] for `spec.faults` armed over
/// one replica, [`RunError::InvalidWorkload`] for a workload that cannot
/// be generated or timed, [`RunError::StepInfeasible`] when a replica's
/// system refuses a decode step its batch planned, and
/// [`RunError::NoSpecSlots`] when a replica's system speculates with no
/// slots.
pub fn run<'s, S: DerefMut<Target = dyn ServingSystem + 's>>(
    systems: &mut [S],
    spec: &RunSpec,
    rec: &mut Recorder,
    mut attr: Option<&mut TokenAttribution>,
) -> Result<(ServeMetrics, FleetReport, FaultLog), RunError> {
    let (opts, fopts, sess) = (&spec.sched, &spec.faults, &spec.sessions);
    let n = systems.len();
    if n == 0 {
        return Err(RunError::NoReplicas);
    }
    if n == 1 && fopts.is_active() {
        return Err(RunError::FaultDomainsNeedTwoReplicas);
    }
    validate(spec)?;
    let mut arrivals = if sess.is_active() {
        session::gen_session_turns(&spec.model, &spec.workload, &opts.mix, sess)
    } else {
        gen_arrivals(&spec.model, &spec.workload, &opts.mix)
    };
    let offered = arrivals.len();
    // Router, fault and session tracks are interned first, each only when
    // armed, so every run keeps its exact track list.
    let mut fleet = (n > 1).then(|| FleetCtl::new(spec, n, offered, rec));
    let sessions_track = sess.is_active().then(|| rec.track("sessions"));
    let token_faults = spec
        .token_faults
        .as_ref()
        .filter(|(inj, _)| inj.is_enabled())
        .map(|(inj, retry)| (inj, retry));
    let guard_ps = clock::ps(guard_horizon_ns(&spec.workload));
    let mut replicas: Vec<ReplicaSim> = Vec::with_capacity(n);
    for (i, sys) in systems.iter_mut().enumerate() {
        let idx = (n > 1).then_some(i);
        let mut r = ReplicaSim::new(&mut **sys, opts, rec, idx, token_faults, guard_ps);
        r.sched
            .pages_mut()
            .set_prefix_capacity(sess.prefix_cache_pages);
        r.completions = fopts.breaker.map(|_| Vec::new());
        replicas.push(r);
    }

    // Content hash -> replica whose cache holds (or will hold) the prefix.
    let mut owners: HashMap<u64, usize> = HashMap::new();
    let mut book = SessionSummary {
        sessions: 0,
        turns: offered,
        prefix_hits: 0,
        cold_turns: 0,
        pulls: Vec::new(),
    };
    let mut placements: Vec<Placement> = Vec::new();
    loop {
        if let Some(f) = fleet.as_mut() {
            // Fault events due by the next arrival apply first. Past the
            // last arrival the rest of the timeline (repairs in particular)
            // runs before the final drain, so every crashed replica comes
            // back up and serves out whatever a naive router parked on it.
            let next = arrivals.last().map_or(u64::MAX, |a| a.arrival_ps);
            while let Some(e) = f.events.pop_if(|e| e.0 <= next) {
                let at = attr.as_deref_mut();
                f.apply_event(e, &mut replicas, &mut owners, rec, at, sessions_track);
            }
        }
        let Some(a) = arrivals.pop() else { break };
        for (i, r) in replicas.iter_mut().enumerate() {
            if fleet.is_some() {
                r.catch_up(rec, attr.as_deref_mut(), a.arrival_ps);
            } else {
                r.advance(rec, attr.as_deref_mut(), Some(a.arrival_ps));
            }
            r.feasible(i)?;
        }
        if replicas.iter().any(|r| r.halted) {
            break;
        }
        let turn = a.turn.as_ref();
        if turn.is_some_and(|t| t.turn == 0) {
            book.sessions += 1;
        }
        // The owning replica only counts while its cache still holds the
        // prefix (LRU reclaim or a crash wipe orphans the owner map entry).
        let owned: Option<(usize, usize)> = turn.and_then(|t| t.pin_hash).and_then(|h| {
            let o = *owners.get(&h)?;
            Some((o, replicas[o].sched.pages().prefix_lookup(h)?))
        });
        let arrival_ns = clock::ns(a.arrival_ps);
        let pick = match fleet.as_mut() {
            None => {
                rec.timeseries.rate_add("arrivals", arrival_ns, 1.0);
                0
            }
            Some(f) => match f.route(&a, &mut replicas, owned, rec) {
                Some(pick) => {
                    placements.push((a.id, pick));
                    pick
                }
                None => {
                    // A shed follow-up never resumed its prefix: it counts
                    // cold, so turn conservation holds.
                    book.cold_turns += usize::from(turn.is_some_and(|t| t.turn > 0));
                    continue;
                }
            },
        };
        let r = &mut replicas[pick];
        let mut req = a.request(&r.geometry);
        if let Some(t) = turn {
            match price_resume(
                &mut req,
                t,
                pick,
                r.sched.pages_mut(),
                owned.filter(|&(o, _)| o != pick),
                (a.prefill_ns, r.geometry.restore_ns_per_page),
            ) {
                Resume::Local => book.prefix_hits += 1,
                Resume::Pull(p) => {
                    if let Some(st) = sessions_track {
                        rec.leaf_with(
                            st,
                            "prefix.pull",
                            arrival_ns,
                            clock::ns(a.arrival_ps + req.pull_ps),
                            &[
                                ("id", ArgVal::U(a.id as u64)),
                                ("from", ArgVal::U(p.from as u64)),
                                ("to", ArgVal::U(pick as u64)),
                                ("pages", ArgVal::U(p.pages as u64)),
                            ],
                        );
                    }
                    rec.timeseries.rate_add("sessions.pull", arrival_ns, 1.0);
                    book.pulls.push(p);
                }
                Resume::Cold => book.cold_turns += usize::from(t.turn > 0),
            }
            // This turn's completion publishes the next turn's prefix.
            r.turns.push(PendingTurn {
                id: a.id,
                publish: (
                    t.publish_hash,
                    t.publish_tokens.div_ceil(r.geometry.page_tokens.max(1)),
                ),
                cold_prefill_ns: req.prefix_hash.map(|_| a.prefill_ns),
            });
            owners.insert(t.publish_hash, pick);
        }
        r.inject(rec, req);
        if fleet.is_some() && rec.timeseries.is_enabled() {
            rec.timeseries.rate_add("fleet.admit", arrival_ns, 1.0);
            sample_sched_timeseries(rec, &r.prefix, arrival_ns, &r.sched);
        }
    }
    for (i, r) in replicas.iter_mut().enumerate() {
        r.advance(rec, attr.as_deref_mut(), None);
        r.feasible(i)?;
    }

    let shed = fleet.as_ref().map_or(0, |f| f.summary.shed.len());
    let (mut reports, views): (Vec<SchedReport>, Vec<ClassViews>) = replicas
        .iter_mut()
        .map(|r| r.sched.finalize_views())
        .unzip();
    note_token_ledgers(&replicas, &views);
    let (metrics, token_lat, request_lat) = serve_metrics(
        &replicas,
        &views,
        offered,
        shed,
        fopts.profile.brownout_topk_factor,
        rec,
    );
    let mut report = match fleet {
        // A lone replica's report already holds its per-class percentiles,
        // and it took every arrival placed, in id order.
        None => FleetReport::single(spec.router, reports.swap_remove(0)),
        Some(f) => {
            let samples = [0, 1, 2].map(|i| {
                (
                    SortedSamples::merge(views.iter().map(|v| &v[i].0)),
                    SortedSamples::merge(views.iter().map(|v| &v[i].1)),
                )
            });
            let faults = fopts.is_active().then_some(f.summary);
            FleetReport::assemble(spec.router, reports, placements, samples, faults)
        }
    };
    report.slo_burn = metrics.slo_burn.clone();
    if sess.is_active() {
        report.attach_sessions(book);
    }
    if rec.is_enabled() {
        record_totals(rec, &metrics, &report, &replicas, &token_lat, &request_lat);
    }
    let mut log = FaultLog::new();
    for r in replicas {
        log.extend(r.fault_log);
    }
    Ok((metrics, report, log))
}

/// The end-of-run counters and gauges. A lone replica also exports its
/// latency histograms, token percentiles, scheduler totals and (when it
/// speculated) speculation counters; a fleet exports its placements,
/// fault-domain and session totals, and token-fault counters when token
/// faults were on.
fn record_totals(
    rec: &mut Recorder,
    m: &ServeMetrics,
    report: &FleetReport,
    replicas: &[ReplicaSim],
    token_lat: &SortedSamples,
    request_lat: &SortedSamples,
) {
    let lone = replicas.len() == 1;
    let spec_pool = replicas[0].spec_pool.as_ref().filter(|_| lone);
    let sched = &report.replicas[0];
    if lone {
        for &(t, n) in token_lat.runs() {
            rec.observe_n("serving.token_latency_ms", t, n as u64);
        }
        for &(l, n) in request_lat.runs() {
            rec.observe_n("serving.request_latency_ms", l, n as u64);
        }
    }
    rec.counter_add("serving.completed", m.completed as u64);
    rec.counter_add("serving.rejected", m.rejected as u64);
    let generated: usize = replicas.iter().map(|r| r.generated_tokens).sum();
    rec.counter_add("serving.generated_tokens", generated as u64);
    if lone || replicas[0].faults.is_some() {
        let events: usize = replicas.iter().map(|r| r.fault_log.len()).sum();
        rec.counter_add("serving.retried_tokens", m.retried_tokens as u64);
        rec.counter_add("serving.degraded_tokens", m.degraded_tokens as u64);
        rec.counter_add("serving.failed_requests", m.failed_requests as u64);
        rec.counter_add("serving.fault_events", events as u64);
    }
    // Speculation counters exist only when a slot pool did: metrics exports
    // of lookahead-off runs keep their exact key set.
    if let Some(pool) = spec_pool {
        rec.counter_add("serving.spec_hits", m.spec_hits as u64);
        rec.counter_add("serving.spec_misses", m.spec_misses as u64);
        rec.counter_add("serving.spec_denied", m.spec_denied as u64);
        rec.gauge_set("serving.spec_peak_slots", pool.peak_occupancy() as f64);
    }
    rec.gauge_set("serving.throughput_tps", m.throughput_tps);
    rec.gauge_set("serving.mean_batch", m.mean_batch);
    if lone {
        rec.gauge_set("serving.p50_token_ms", m.p50_token_ms);
        rec.gauge_set("serving.p99_token_ms", m.p99_token_ms);
        rec.counter_add("sched.preemptions", sched.preemptions as u64);
        rec.counter_add("sched.resumes", sched.resumes as u64);
        rec.counter_add("sched.prefill_chunks", sched.prefill_chunks as u64);
        rec.gauge_set("sched.peak_hbm_pages", sched.pages.peak_hbm as f64);
        rec.gauge_set("sched.peak_drex_pages", sched.pages.peak_drex as f64);
    } else {
        rec.counter_add("router.placements", report.placements.len() as u64);
    }
    if let Some(f) = &report.faults {
        rec.counter_add("fleet.crashes", f.crashes as u64);
        rec.counter_add("fleet.brownouts", f.brownouts as u64);
        rec.counter_add("fleet.redispatched", f.redispatches.len() as u64);
        rec.counter_add("fleet.shed", f.shed.len() as u64);
    }
    if let Some(s) = &report.sessions {
        rec.counter_add("sessions.turns", s.turns as u64);
        rec.counter_add("sessions.prefix_hits", s.prefix_hits as u64);
        rec.counter_add("sessions.pulls", s.pulls.len() as u64);
        rec.counter_add("sessions.pulled_pages", s.pulled_pages() as u64);
        rec.counter_add("sessions.cold_turns", s.cold_turns as u64);
    }
}

// The three `simulate*` forwards below remain for the benchmark harness
// only; the ROADMAP benchmark revision moves it to `run` and deletes them.

/// [`run`] over one replica, returning its [`SchedReport`]; deleted by the
/// ROADMAP benchmark revision.
pub fn simulate_scheduled(
    system: &mut dyn ServingSystem,
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    faults: Option<(&FaultInjector, &RetryPolicy)>,
    rec: &mut Recorder,
    attr: Option<&mut TokenAttribution>,
) -> (ServeMetrics, SchedReport, FaultLog) {
    let spec = RunSpec {
        sched: opts.clone(),
        token_faults: faults.map(|(inj, retry)| (inj.clone(), *retry)),
        ..RunSpec::new(model.clone(), workload.clone())
    };
    let (m, mut fleet, log) = run(&mut [system], &spec, rec, attr).expect("one replica runs");
    (m, fleet.replicas.swap_remove(0), log)
}

/// [`run`] under fault domains, panicking on a [`RunError`]; deleted by the
/// ROADMAP benchmark revision.
pub fn simulate_fleet_faulty(
    systems: &mut [Box<dyn ServingSystem>],
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    router: RouterPolicy,
    fopts: &FleetFaultOptions,
    rec: &mut Recorder,
) -> (ServeMetrics, FleetReport) {
    let spec = RunSpec {
        sched: opts.clone(),
        router,
        faults: fopts.clone(),
        ..RunSpec::new(model.clone(), workload.clone())
    };
    run(systems, &spec, rec, None).map_or_else(|e| panic!("{e}"), |(m, f, _)| (m, f))
}

/// [`run`] of a session workload, panicking on a [`RunError`]; deleted by
/// the ROADMAP benchmark revision.
pub fn simulate_fleet_sessions(
    systems: &mut [Box<dyn ServingSystem>],
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    router: RouterPolicy,
    sess: &SessionOptions,
    rec: &mut Recorder,
) -> (ServeMetrics, FleetReport) {
    let spec = RunSpec {
        sched: opts.clone(),
        router,
        sessions: sess.clone(),
        ..RunSpec::new(model.clone(), workload.clone())
    };
    run(systems, &spec, rec, None).map_or_else(|e| panic!("{e}"), |(m, f, _)| (m, f))
}

/// How a session turn resumed its prefix (see [`run`]).
enum Resume {
    /// Pinned in the placement replica's own cache.
    Local,
    /// Pulled from the owning replica over the pooled-DReX fabric.
    Pull(PullRecord),
    /// Full prefill: an opening or non-reusable turn, or no cheaper copy.
    Cold,
}

/// Prices session turn `turn` on replica `pick`, whose prefix cache is
/// `pages`, cheapest first: a local pin, then a pull from `owner` (the
/// other replica holding the prefix, with its page count), else cold.
/// `costs` are the turn's cold prefill and the replica's restore price per
/// page, ns. A warm resume pins the prefix in `pages` and sets `req`'s
/// prefill to the suffix (plus the pull), its pull price and its prefix
/// handle, each rounded to ps once.
fn price_resume(
    req: &mut SchedRequest,
    turn: &SessionTurn,
    pick: usize,
    pages: &mut PagedKvManager,
    owner: Option<(usize, usize)>,
    (cold_ns, restore_ns_per_page): (f64, f64),
) -> Resume {
    let Some(h) = turn.pin_hash else {
        return Resume::Cold;
    };
    let suffix_frac = (req.context - turn.prefix_tokens) as f64 / req.context.max(1) as f64;
    let suffix_ns = cold_ns * suffix_frac;
    if pages.prefix_pin(h).is_some() {
        req.prefill_ps = clock::ps(suffix_ns);
        req.prefix_hash = Some(h);
        return Resume::Local;
    }
    let Some((from, owner_pages)) = owner else {
        return Resume::Cold;
    };
    // Two fabric hops through the pooled tier: source DReX -> fabric ->
    // target DReX, priced per page by the same CxlLink-derived transfer
    // model as a preemption restore.
    let pull_ns = owner_pages as f64 * restore_ns_per_page * 2.0;
    if pull_ns + suffix_ns >= cold_ns || !pages.prefix_insert(h, owner_pages) {
        return Resume::Cold;
    }
    let pinned = pages.prefix_pin(h);
    debug_assert_eq!(pinned, Some(owner_pages));
    req.prefill_ps = clock::ps(suffix_ns + pull_ns);
    req.pull_ps = clock::ps(pull_ns);
    req.prefix_hash = Some(h);
    Resume::Pull(PullRecord {
        id: req.id,
        hash: h,
        from,
        to: pick,
        pages: owner_pages,
        at_ns: clock::ns(req.arrival_ps),
    })
}

/// The front end of a fleet (two replicas or more): the router, the
/// replica fault timeline, the breakers and the admission controller, and
/// what they logged.
struct FleetCtl<'a> {
    fopts: &'a FleetFaultOptions,
    router: Router,
    router_track: TrackId,
    /// `fleet.faults` when fault domains are armed, else the router track.
    fault_track: TrackId,
    /// The replica fault timeline with each event's time in ps, reversed:
    /// pop from the back in time order.
    events: Vec<(u64, ReplicaEvent)>,
    breakers: Option<Vec<CircuitBreaker>>,
    summary: FleetFaultSummary,
    down_since: Vec<u64>,
    /// Degraded tokens of each replica its breaker has already seen.
    fed: Vec<u64>,
}

impl<'a> FleetCtl<'a> {
    fn new(spec: &'a RunSpec, n: usize, offered: usize, rec: &mut Recorder) -> Self {
        let (fopts, wl) = (&spec.faults, &spec.workload);
        let router_track = rec.track("router");
        let mut events = Vec::new();
        if fopts.profile.is_enabled() {
            let schedule = fleet_schedule(&fopts.profile, fopts.fault_seed, n, wl.duration_s);
            events = schedule
                .into_iter()
                .rev()
                .map(|e| (clock::ps(e.at_ns), e))
                .collect();
        }
        Self {
            fopts,
            router: Router::new(spec.router, wl.seed),
            router_track,
            fault_track: if fopts.is_active() {
                rec.track("fleet.faults")
            } else {
                router_track
            },
            events,
            breakers: fopts.breaker.map(|cfg| vec![CircuitBreaker::new(cfg); n]),
            summary: FleetFaultSummary::new(n, offered),
            down_since: vec![0; n],
            fed: vec![0; n],
        }
    }

    /// Places arrival `a` from the replicas' load snapshot, or sheds it
    /// (`None`, logged with its reason). First each breaker observes what
    /// its replica produced since the last arrival; then the health gate
    /// (a naive baseline sees every replica as closed — it stays blind to
    /// downtime and wedges whatever it places on a dead node), then the
    /// admission controller's per-class queue caps on top. `owned` is the
    /// replica holding the turn's prefix, with its page count.
    fn route(
        &mut self,
        a: &Arrival,
        replicas: &mut [ReplicaSim],
        owned: Option<(usize, usize)>,
        rec: &mut Recorder,
    ) -> Option<usize> {
        let at_ns = clock::ns(a.arrival_ps);
        self.feed_breakers(replicas, at_ns, rec);
        let loads: Vec<_> = replicas.iter().map(|r| r.sched.load()).collect();
        let health: Vec<BreakerState> = match self.breakers.as_ref() {
            Some(bs) => breaker_health(bs),
            None => vec![BreakerState::Closed; replicas.len()],
        };
        let mut gated = health.clone();
        if let Some(cap) = self.fopts.shed_queue_cap {
            for (s, r) in gated.iter_mut().zip(replicas) {
                if r.sched.queue_depth(a.class) >= class_queue_cap(cap, a.class) {
                    *s = BreakerState::Open;
                }
            }
        }
        let routed = self.router.route(a.id, a.class, &loads, &gated, owned);
        let (id, class) = (ArgVal::U(a.id as u64), ArgVal::S(a.class.name()));
        let Ok(pick) = routed else {
            let reason = if health.iter().all(|&s| s == BreakerState::Open) {
                "no-healthy-replica"
            } else {
                "queue-cap"
            };
            self.summary.shed.push(ShedRecord {
                id: a.id,
                class: a.class,
                at_ns,
                reason,
            });
            let args = [("id", id), ("class", class), ("reason", ArgVal::S(reason))];
            rec.instant_with(self.fault_track, "shed", at_ns, &args);
            rec.timeseries.rate_add("fleet.shed", at_ns, 1.0);
            return None;
        };
        let free_hbm = ArgVal::U(loads[pick].free_hbm() as u64);
        let args = [
            ("id", id),
            ("replica", ArgVal::U(pick as u64)),
            ("class", class),
            ("free_hbm", free_hbm),
        ];
        rec.instant_with(self.router_track, "route.place", at_ns, &args);
        Some(pick)
    }

    /// Feeds each breaker the completions and degraded tokens its replica
    /// produced since the last arrival, then ticks the cooldown — the
    /// breaker observes exactly what a real front-end can observe, never
    /// the fault schedule itself — and samples its `r{i}.breaker` gauge.
    /// Transitions land on the fault track.
    fn feed_breakers(&mut self, replicas: &mut [ReplicaSim], now_ns: f64, rec: &mut Recorder) {
        let Some(bs) = self.breakers.as_mut() else {
            return;
        };
        for (i, ((r, b), degraded)) in replicas.iter_mut().zip(bs).zip(&mut self.fed).enumerate() {
            let mut transitions: Vec<Option<BreakerState>> = r
                .completions
                .iter_mut()
                .flat_map(|log| log.drain(..))
                .map(|(class, lat)| b.note_completion(class, lat, now_ns))
                .collect();
            let total = r.degrade.degraded_tokens as u64;
            if total > *degraded {
                transitions.push(b.note_degraded(total - *degraded, now_ns));
                *degraded = total;
            }
            transitions.push(b.poll(now_ns));
            for s in transitions.into_iter().flatten() {
                breaker_instant(rec, self.fault_track, i, now_ns, s);
            }
            if rec.timeseries.is_enabled() {
                let level = breaker_level(b.state());
                rec.timeseries
                    .gauge(&format!("r{i}.breaker"), now_ns, level);
            }
        }
    }

    /// Applies one replica fault-timeline event, due at `at` ps, to the
    /// fleet.
    ///
    /// `Down` catches the replica up to the crash instant, evacuates its
    /// entire in-flight set (pages freed — the KV state is gone), and
    /// redispatches each evacuee through the router onto a surviving
    /// replica, where it queues behind the target geometry's rebuild
    /// charge (full prefill when caught mid-prefill, restore-vs-recompute
    /// otherwise). When every other replica is also down the evacuee parks
    /// on the crashed replica and resumes after repair — redispatch never
    /// loses a request. An evacuated session turn takes its pending prefix
    /// publication along (the owner map follows it), and a warm one is
    /// repriced to its cold prefill: the prefix it pinned or pulled died
    /// with the replica. `Up` restores the replica (and moves a held-open
    /// breaker to half-open); brownout events toggle the replica's
    /// offload-budget factor.
    fn apply_event(
        &mut self,
        (at, e): (u64, ReplicaEvent),
        replicas: &mut [ReplicaSim],
        owners: &mut HashMap<u64, usize>,
        rec: &mut Recorder,
        mut attr: Option<&mut TokenAttribution>,
        sessions_track: Option<TrackId>,
    ) {
        let (r, at_ns, track) = (e.replica, clock::ns(at), self.fault_track);
        let replica = ("replica", ArgVal::U(r as u64));
        match e.kind {
            ReplicaEventKind::Down => {
                replicas[r].catch_up(rec, attr.as_deref_mut(), at);
                let evac = replicas[r].sched.crash_evacuate();
                replicas[r].down = true;
                self.down_since[r] = at;
                self.summary.crashes += 1;
                if rec.timeseries.is_enabled() {
                    rec.timeseries.gauge(&format!("r{r}.up"), at_ns, 0.0);
                    sample_sched_timeseries(rec, &replicas[r].prefix, at_ns, &replicas[r].sched);
                }
                let evacuated = ("evacuated", ArgVal::U(evac.len() as u64));
                rec.instant_with(track, "replica.down", at_ns, &[replica, evacuated]);
                if let Some(s) = self
                    .breakers
                    .as_mut()
                    .and_then(|bs| bs[r].force_open(at_ns))
                {
                    record_breaker(rec, track, r, at_ns, s);
                }
                // Survivors catch up to the crash instant so every failover
                // decision is taken from one consistent snapshot.
                for (i, x) in replicas.iter_mut().enumerate() {
                    if i != r && !x.down {
                        x.catch_up(rec, attr.as_deref_mut(), at);
                    }
                }
                // Redispatch always routes around dead nodes, breaker or
                // not: the crashed stack is gone, not just slow. The naive
                // baseline differs only on *new* arrivals.
                let states: Vec<BreakerState> = match self.breakers.as_ref() {
                    Some(bs) => breaker_health(bs),
                    None => replicas
                        .iter()
                        .map(|x| {
                            if x.down {
                                BreakerState::Open
                            } else {
                                BreakerState::Closed
                            }
                        })
                        .collect(),
                };
                for ev in evac {
                    let (id, class) = (ev.req.id, ev.req.class);
                    let loads: Vec<_> = replicas.iter().map(|x| x.sched.load()).collect();
                    let (to, reason) = match self.router.route(id, class, &loads, &states, None) {
                        Ok(t) => (t, "replica-crash"),
                        Err(_) => (r, "no-healthy-replica"),
                    };
                    let mut moved = ev;
                    let g = &replicas[to].geometry;
                    moved.req.restore_ps = g.restore_ps(moved.req.context);
                    moved.req.recompute_ps = g.recompute_ps(moved.req.context);
                    if let Some(pos) = replicas[r].turns.iter().position(|t| t.id == id) {
                        let mut turn = replicas[r].turns.swap_remove(pos);
                        if let Some(cold_ns) = turn.cold_prefill_ns.take() {
                            moved.req.prefill_ps = clock::ps(cold_ns);
                            let mid_prefill = u64::from(ev.prefill_left_ps > 0);
                            let args = [
                                ("id", ArgVal::U(id as u64)),
                                ("from", ArgVal::U(r as u64)),
                                ("to", ArgVal::U(to as u64)),
                                ("ctx", ArgVal::U(ev.req.context as u64)),
                                ("mid_prefill", ArgVal::U(mid_prefill)),
                                ("prefill_ns", ArgVal::F(cold_ns)),
                            ];
                            if let Some(st) = sessions_track {
                                rec.instant_with(st, "prefix.lost", at_ns, &args);
                            }
                        }
                        owners.insert(turn.publish.0, to);
                        replicas[to].turns.push(turn);
                    }
                    replicas[to].sched.on_redispatch(moved);
                    self.summary.redispatches.push(RedispatchRecord {
                        id,
                        from: r,
                        to,
                        at_ns,
                        reason,
                    });
                    let args = [
                        ("id", ArgVal::U(id as u64)),
                        ("from", ArgVal::U(r as u64)),
                        ("to", ArgVal::U(to as u64)),
                        ("class", ArgVal::S(class.name())),
                    ];
                    rec.instant_with(track, "redispatch", at_ns, &args);
                    rec.timeseries.rate_add("fleet.redispatch", at_ns, 1.0);
                }
            }
            ReplicaEventKind::Up => {
                self.summary.downtime_ns[r] += clock::ns(at - self.down_since[r]);
                replicas[r].now = replicas[r].now.max(at);
                replicas[r].down = false;
                if rec.timeseries.is_enabled() {
                    rec.timeseries.gauge(&format!("r{r}.up"), at_ns, 1.0);
                }
                rec.instant_with(track, "replica.up", at_ns, &[replica]);
                if let Some(s) = self.breakers.as_mut().and_then(|bs| bs[r].on_recovery()) {
                    record_breaker(rec, track, r, at_ns, s);
                }
            }
            ReplicaEventKind::BrownoutStart => {
                if !replicas[r].down {
                    replicas[r].catch_up(rec, attr, at);
                    let factor = self.fopts.profile.brownout_topk_factor;
                    replicas[r].brownout_factor = factor;
                    self.summary.brownouts += 1;
                    let topk = ("topk_factor", ArgVal::F(factor));
                    rec.instant_with(track, "replica.brownout_start", at_ns, &[replica, topk]);
                }
            }
            ReplicaEventKind::BrownoutEnd => {
                replicas[r].catch_up(rec, attr, at);
                replicas[r].brownout_factor = 1.0;
                rec.instant_with(track, "replica.brownout_end", at_ns, &[replica]);
            }
        }
    }
}

/// A breaker transition instant of replica `r` on the fault track.
fn breaker_instant(rec: &mut Recorder, track: TrackId, r: usize, at_ns: f64, s: BreakerState) {
    let name = match s {
        BreakerState::Closed => "breaker.close",
        BreakerState::Open => "breaker.open",
        BreakerState::HalfOpen => "breaker.half_open",
    };
    rec.instant_with(track, name, at_ns, &[("replica", ArgVal::U(r as u64))]);
}

/// Records replica `r`'s breaker moving to `s` outside the per-arrival
/// feed: its `r{r}.breaker` gauge and a transition instant on the fault
/// track.
fn record_breaker(rec: &mut Recorder, track: TrackId, r: usize, at_ns: f64, s: BreakerState) {
    if rec.timeseries.is_enabled() {
        rec.timeseries
            .gauge(&format!("r{r}.breaker"), at_ns, breaker_level(s));
    }
    breaker_instant(rec, track, r, at_ns, s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longsight::{LongSightConfig, LongSightSystem};

    /// One FIFO run of `wl` on `sys`, under `token_faults` if given.
    fn run_one(
        sys: &mut dyn ServingSystem,
        model: &ModelConfig,
        wl: &WorkloadConfig,
        token_faults: Option<(FaultInjector, RetryPolicy)>,
    ) -> (ServeMetrics, FaultLog) {
        let spec = RunSpec {
            token_faults,
            ..RunSpec::new(model.clone(), wl.clone())
        };
        let (m, _, log) =
            run(&mut [sys], &spec, &mut Recorder::disabled(), None).expect("one replica runs");
        (m, log)
    }

    fn plain(arrivals_per_s: f64, seed: u64) -> ServeMetrics {
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = WorkloadConfig {
            arrivals_per_s,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed,
        };
        run_one(&mut sys, &model, &wl, None).0
    }

    fn faulted(
        sys: &mut dyn ServingSystem,
        model: &ModelConfig,
        wl: &WorkloadConfig,
        inj: &FaultInjector,
        retry: &RetryPolicy,
    ) -> (ServeMetrics, FaultLog) {
        run_one(sys, model, wl, Some((inj.clone(), *retry)))
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(plain(2.0, 3), plain(2.0, 3));
    }

    #[test]
    fn completes_requests_at_moderate_load() {
        let m = plain(2.0, 1);
        assert!(m.completed > 0, "some requests must finish: {m:?}");
        assert!(m.p99_token_ms >= m.p50_token_ms);
        assert!(m.p99_request_ms >= m.p50_request_ms);
        assert!(m.throughput_tps > 0.0);
    }

    #[test]
    fn higher_load_means_bigger_batches_and_latency() {
        let low = plain(1.0, 5);
        let high = plain(16.0, 5);
        assert!(
            high.mean_batch > low.mean_batch,
            "more arrivals must grow the batch: {} vs {}",
            low.mean_batch,
            high.mean_batch
        );
        assert!(
            high.p50_token_ms >= low.p50_token_ms,
            "token latency should not shrink under load"
        );
    }

    #[test]
    fn disabled_injector_matches_a_fault_free_run() {
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed: 3,
        };
        let plain = run_one(&mut sys, &model, &wl, None).0;
        let (faulted, log) = faulted(
            &mut sys,
            &model,
            &wl,
            &FaultInjector::disabled(),
            &RetryPolicy::serving_default(),
        );
        assert_eq!(plain, faulted);
        assert!(log.is_empty());
        assert_eq!(plain.degraded_tokens, 0);
        assert_eq!(plain.degraded_quality_delta, 0.0);
    }

    #[test]
    fn injected_timeouts_degrade_and_slow_the_run() {
        use longsight_faults::{FaultKind, FaultProfile};
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed: 3,
        };
        let plain = run_one(&mut sys, &model, &wl, None).0;
        let inj = FaultInjector::new(
            FaultProfile {
                timeout_rate: 0.3,
                ..FaultProfile::disabled()
            },
            7,
        );
        let retry = RetryPolicy::serving_default();
        let (m, log) = faulted(&mut sys, &model, &wl, &inj, &retry);
        assert!(
            m.retried_tokens > 0,
            "30% timeouts must force retries: {m:?}"
        );
        // Degraded tokens in the metrics must equal Degraded events in the
        // log, and each one came from max_retries+1 logged timeouts.
        assert_eq!(
            m.degraded_tokens,
            log.count_matching(|k| matches!(k, FaultKind::Degraded))
        );
        let timeouts = log.count_matching(|k| matches!(k, FaultKind::Timeout { .. }));
        assert!(timeouts >= m.degraded_tokens * (retry.max_retries as usize + 1));
        assert!(
            m.p50_token_ms >= plain.p50_token_ms,
            "deadline penalties cannot make tokens faster"
        );
        assert!(m.throughput_tps <= plain.throughput_tps);
        // Determinism: same seed, same timeline.
        let (m2, log2) = faulted(&mut sys, &model, &wl, &inj, &retry);
        assert_eq!(m, m2);
        assert_eq!(log.to_text(), log2.to_text());
    }

    #[test]
    fn hard_faults_kill_requests() {
        use longsight_faults::FaultProfile;
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = WorkloadConfig {
            arrivals_per_s: 4.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (32, 128),
            duration_s: 5.0,
            seed: 5,
        };
        let inj = FaultInjector::new(
            FaultProfile {
                hard_fail_rate: 0.02,
                ..FaultProfile::disabled()
            },
            13,
        );
        let (m, _) = faulted(&mut sys, &model, &wl, &inj, &RetryPolicy::serving_default());
        assert!(m.failed_requests > 0, "2% per-token hard faults: {m:?}");
        let plain = run_one(&mut sys, &model, &wl, None).0;
        assert!(m.completed < plain.completed + m.failed_requests + 1);
    }

    #[test]
    fn request_latency_includes_prefill() {
        let m = plain(0.5, 9);
        // A 32K-prompt prefill alone is ~0.1+ ms on the roofline; with decode
        // of ≥16 tokens the p50 request latency must exceed several ms.
        assert!(
            m.p50_request_ms > 1.0,
            "suspiciously low request latency: {m:?}"
        );
    }

    /// `n` LongSight replicas of `model` under `cfg`.
    fn fleet_of(
        n: usize,
        cfg: &LongSightConfig,
        model: &ModelConfig,
    ) -> Vec<Box<dyn ServingSystem>> {
        (0..n)
            .map(|_| {
                Box::new(LongSightSystem::new(cfg.clone(), model.clone())) as Box<dyn ServingSystem>
            })
            .collect()
    }

    fn session_fleet(
        replicas: usize,
        reuse: f64,
        cache_pages: usize,
        policy: RouterPolicy,
    ) -> (ServeMetrics, FleetReport) {
        let model = ModelConfig::llama3_1b();
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 12.0,
            seed: 11,
        };
        // Think times comfortably above the ~1-2 s service time, so most
        // follow-ups arrive after their prefix has been published.
        let spec = RunSpec {
            sched: SchedOptions::slo_aware(SloMix::all_interactive()),
            router: policy,
            sessions: SessionOptions {
                sessions: 6,
                turns: 3,
                think_time_ms: 1500.0,
                reuse,
                prefix_cache_pages: cache_pages,
            },
            ..RunSpec::new(model.clone(), wl)
        };
        let mut systems = fleet_of(replicas, &LongSightConfig::paper_default(), &model);
        let (m, rep, _) =
            run(&mut systems, &spec, &mut Recorder::disabled(), None).expect("fleet runs");
        (m, rep)
    }

    #[test]
    fn session_fleet_passes_audit_and_reuses_prefixes() {
        let (_, fleet) = session_fleet(2, 1.0, 4096, RouterPolicy::Affinity);
        assert_eq!(fleet.audit_violation, None, "{:?}", fleet.audit_violation);
        let s = fleet.sessions.as_ref().expect("session summary attached");
        assert_eq!(s.sessions, 6);
        assert_eq!(s.turns, 18);
        assert!(
            s.prefix_hits + s.pulls.len() > 0,
            "full reuse with a generous cache must hit: {s:?}"
        );
        // Deterministic: the placement log and summary reproduce exactly.
        let (_, again) = session_fleet(2, 1.0, 4096, RouterPolicy::Affinity);
        assert_eq!(fleet.placement_log(), again.placement_log());
        assert_eq!(fleet.sessions, again.sessions);
    }

    #[test]
    fn session_reuse_cuts_prefill_work_vs_cold_routing() {
        let (_, warm) = session_fleet(2, 1.0, 4096, RouterPolicy::Affinity);
        let (_, cold) = session_fleet(2, 1.0, 0, RouterPolicy::JsqSpillover);
        assert_eq!(cold.audit_violation, None);
        let work = |f: &FleetReport| -> f64 { f.replicas.iter().map(|r| r.prefill_work_ns).sum() };
        assert!(
            work(&warm) < work(&cold),
            "prefix reuse must cut prefill work: warm {} vs cold {}",
            work(&warm),
            work(&cold)
        );
        let s = cold.sessions.as_ref().expect("summary present even cold");
        assert_eq!(s.prefix_hits, 0);
        assert!(s.pulls.is_empty());
        assert_eq!(s.cold_turns, s.turns - s.sessions);
    }

    #[test]
    fn zero_sessions_are_byte_identical_to_the_poisson_fleet() {
        let model = ModelConfig::llama3_1b();
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed: 3,
        };
        let plain = RunSpec {
            sched: SchedOptions::slo_aware(SloMix::all_interactive()),
            ..RunSpec::new(model.clone(), wl)
        };
        let zero = RunSpec {
            sessions: SessionOptions {
                turns: 3,
                think_time_ms: 1500.0,
                reuse: 0.9,
                ..SessionOptions::disabled()
            },
            ..plain.clone()
        };
        let cfg = LongSightConfig::paper_default();
        let [(m1, f1, _), (m2, f2, _)] = [&plain, &zero].map(|spec| {
            let mut rec = Recorder::disabled();
            run(&mut fleet_of(2, &cfg, &model), spec, &mut rec, None).expect("fleet runs")
        });
        assert_eq!(m1, m2);
        assert_eq!(f1.placement_log(), f2.placement_log());
        assert_eq!(f1.to_text(), f2.to_text());
    }

    /// Resets the run-length cap when a capped scope ends, even by panic.
    struct RunCapScope;

    impl Drop for RunCapScope {
        fn drop(&mut self) {
            MAX_RUN.with(|c| c.set(usize::MAX));
        }
    }

    /// Runs `f` with every replica built inside capped at `cap`-step runs;
    /// returns its result and the `(step calls, scheduler steps, per-step
    /// loop turns)` it ran.
    fn with_run_cap<T>(cap: usize, f: impl FnOnce() -> T) -> (T, (usize, usize, usize)) {
        let _scope = RunCapScope;
        MAX_RUN.with(|c| c.set(cap));
        RUN_COUNTS.with(|c| c.set((0, 0, 0)));
        let out = f();
        (out, RUN_COUNTS.with(std::cell::Cell::get))
    }

    /// One generated driver configuration for the macro-step equivalence
    /// test.
    #[derive(Debug)]
    struct DriverCase {
        replicas: usize,
        wl: WorkloadConfig,
        opts: SchedOptions,
        router: RouterPolicy,
        lookahead: Option<crate::longsight::LookaheadConfig>,
        recorder: bool,
        timeseries: bool,
        attribution: bool,
        /// Token-fault rate and seed.
        token_faults: Option<(f64, u64)>,
        fopts: FleetFaultOptions,
        sess: SessionOptions,
    }

    /// Clean runs must end at every kind of boundary: small slot pools
    /// deny issues, miss rates up to 0.3 miss, and token-fault rates down
    /// to 0.001 leave long clean stretches between faults. Lookahead cases
    /// reach 256K and 1M contexts, where a 1B model's speculated chain
    /// outlasts a hit step (2–15 steps at 1M): slots stay busy across
    /// several steps, and pools of 1–8 slots fill mid-run.
    fn gen_driver_case(g: &mut longsight_tensor::check::Gen) -> DriverCase {
        use crate::longsight::LookaheadConfig;
        use longsight_faults::ReplicaFaultProfile;
        let replicas = [1usize, 1, 2, 3][g.usize_in(0, 4)];
        let fleet = replicas > 1;
        let sessions = g.usize_in(0, 3) == 0;
        let mix = [SloMix::mixed(), SloMix::all_interactive()][g.usize_in(0, 2)];
        let opts = SchedOptions {
            policy: if g.bool() {
                SchedPolicy::SloAware
            } else {
                SchedPolicy::Fifo
            },
            mix,
            page_tokens: 1024,
            prefill_chunk_tokens: [128usize, 1024, 8192, 65_536][g.usize_in(0, 4)],
            prefill_slots: g.usize_in(1, 4),
            hbm_watermark: [0.9, 0.2, 0.01][g.usize_in(0, 3)],
        };
        let lookahead = (g.usize_in(0, 3) == 0).then(|| LookaheadConfig {
            slots: [1usize, 2, 4, 8, 32][g.usize_in(0, 5)],
            miss_rate: [0.0, 0.02, 0.3][g.usize_in(0, 3)],
            ..LookaheadConfig::serving_default()
        });
        let max_ctx = match lookahead {
            Some(_) => [65_536usize, 262_144, 1_048_576][g.usize_in(0, 3)],
            None => [16_384usize, 32_768, 65_536, 262_144][g.usize_in(0, 4)],
        };
        let crashes = fleet && g.bool();
        let fopts = FleetFaultOptions {
            profile: if crashes {
                ReplicaFaultProfile::scaled(g.f64_in(0.05, 0.4))
            } else {
                ReplicaFaultProfile::disabled()
            },
            fault_seed: g.u64_in(0, 64),
            breaker: (fleet && g.bool()).then(BreakerConfig::serving_default),
            shed_queue_cap: (fleet && g.bool()).then(|| g.usize_in(1, 8)),
        };
        let sess = if sessions {
            SessionOptions {
                sessions: g.usize_in(2, 8),
                turns: g.usize_in(1, 4),
                think_time_ms: g.f64_in(200.0, 2000.0),
                reuse: g.f64_in(0.0, 1.0),
                prefix_cache_pages: [0usize, 4096][g.usize_in(0, 2)],
            }
        } else {
            SessionOptions::disabled()
        };
        DriverCase {
            replicas,
            wl: WorkloadConfig {
                arrivals_per_s: g.f64_in(1.0, 12.0),
                context_tokens: (16_384, max_ctx),
                output_tokens: (g.usize_in(1, 16), g.usize_in(16, 96)),
                duration_s: g.f64_in(1.0, 4.0),
                seed: g.u64_in(0, 1 << 20),
            },
            opts,
            router: [
                RouterPolicy::JsqSpillover,
                RouterPolicy::RoundRobin,
                RouterPolicy::Affinity,
            ][g.usize_in(0, if fleet { 3 } else { 1 })],
            lookahead,
            recorder: g.bool(),
            timeseries: g.bool(),
            attribution: g.bool(),
            token_faults: g
                .bool()
                .then(|| (10f64.powf(g.f64_in(-3.0, -0.5)), g.u64_in(0, 64))),
            fopts,
            sess,
        }
    }

    /// Every report, log and export of one driver run, as text, with the
    /// run's metrics and report. `{:?}` prints each f64 in its shortest
    /// round-trip form, so equal text means equal bits.
    fn run_driver(c: &DriverCase) -> (String, ServeMetrics, FleetReport) {
        use crate::TokenAttribution;
        use longsight_faults::FaultProfile;
        let model = ModelConfig::llama3_1b();
        let cfg = match c.lookahead {
            Some(la) => LongSightConfig::paper_default().with_lookahead(la),
            None => LongSightConfig::paper_default(),
        };
        let mut rec = if c.recorder {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        if c.timeseries {
            rec.enable_timeseries(250e6, longsight_obs::BurnConfig::default());
        }
        let spec = RunSpec {
            sched: c.opts.clone(),
            router: c.router,
            faults: c.fopts.clone(),
            sessions: c.sess.clone(),
            token_faults: c.token_faults.map(|(rate, seed)| {
                let inj = FaultInjector::new(FaultProfile::scaled(rate), seed);
                (inj, RetryPolicy::serving_default())
            }),
            ..RunSpec::new(model.clone(), c.wl.clone())
        };
        let mut attr = c.attribution.then(TokenAttribution::new);
        let mut systems = fleet_of(c.replicas, &cfg, &model);
        let (m, rep, log) =
            run(&mut systems, &spec, &mut rec, attr.as_mut()).expect("generated runs are valid");
        let mut out = format!("{m:?}\n{rep:?}\n{}\n{log:?}\n{attr:?}\n", rep.to_text());
        out.push_str(&rec.chrome_trace_json());
        out.push_str(&rec.metrics_json());
        out.push_str(&rec.timeseries.to_tsv());
        out.push_str(&rec.timeseries.to_json());
        (out, m, rep)
    }

    /// The first byte at which `a` and `b` differ, with 80 bytes of context
    /// around it.
    fn first_difference(a: &str, b: &str) -> Option<String> {
        let at = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .or_else(|| (a.len() != b.len()).then_some(a.len().min(b.len())))?;
        let lo = at.saturating_sub(80);
        let window = |s: &str| s.get(lo..(at + 80).min(s.len())).unwrap_or("").to_string();
        Some(format!("byte {at}:\n  {}\n  {}", window(a), window(b)))
    }

    /// Macro-steps equal single steps byte for byte, and every run keeps
    /// the fleet audit and `failed` conservation: the per-class failures of
    /// the report are the requests token faults killed.
    fn macro_steps_match_single_steps(g: &mut longsight_tensor::check::Gen) -> Result<(), String> {
        let c = gen_driver_case(g);
        let ((macro_out, m, rep), (calls, steps, _)) = with_run_cap(usize::MAX, || run_driver(&c));
        let ((single_out, ..), (single_calls, single_steps, _)) =
            with_run_cap(1, || run_driver(&c));
        longsight_tensor::prop_ensure_eq!(steps, single_steps, "scheduler steps: {c:?}");
        longsight_tensor::prop_ensure!(calls <= single_calls);
        if let Some(d) = first_difference(&macro_out, &single_out) {
            return Err(format!("macro and single steps differ at {d}\nfor {c:?}"));
        }
        longsight_tensor::prop_ensure_eq!(rep.audit_violation, None, "{c:?}");
        let failed: usize = rep.per_class.iter().map(|k| k.failed).sum();
        longsight_tensor::prop_ensure_eq!(failed, m.failed_requests, "{c:?}");
        Ok(())
    }

    #[test]
    fn macro_steps_are_byte_identical_to_single_steps() {
        longsight_tensor::check::run_cases(
            "macro_steps_are_byte_identical_to_single_steps",
            96,
            macro_steps_match_single_steps,
        );
    }

    /// Bit-identity alone would still pass if runs silently fell back to
    /// one step, so the run lengths of one fleet-crash-style config are
    /// pinned exactly.
    #[test]
    fn macro_steps_engage_on_a_crashy_fleet() {
        use longsight_faults::ReplicaFaultProfile;
        let model = ModelConfig::llama3_1b();
        let wl = WorkloadConfig {
            arrivals_per_s: 8.0,
            context_tokens: (16_384, 32_768),
            output_tokens: (32, 128),
            duration_s: 20.0,
            seed: 1,
        };
        let opts = SchedOptions {
            prefill_chunk_tokens: 128,
            ..SchedOptions::slo_aware(SloMix::mixed())
        };
        let fopts = FleetFaultOptions {
            profile: ReplicaFaultProfile::scaled(0.1),
            fault_seed: 11,
            breaker: Some(BreakerConfig::serving_default()),
            shed_queue_cap: Some(256),
        };
        let spec = RunSpec {
            sched: opts,
            faults: fopts,
            ..RunSpec::new(model.clone(), wl)
        };
        let ((_, rep, _), (calls, steps, _)) = with_run_cap(usize::MAX, || {
            let mut fleet = fleet_of(2, &LongSightConfig::paper_default(), &model);
            run(&mut fleet, &spec, &mut Recorder::disabled(), None).expect("fleet runs")
        });
        assert!(rep.faults.as_ref().is_some_and(|f| f.crashes > 0));
        assert_eq!(
            (calls, steps),
            (598, 27_184),
            "(step calls, scheduler steps)"
        );
        assert!(steps >= 10 * calls, "{steps} steps over {calls} calls");
    }

    /// A short fleet-crash-shaped run (two replicas, SLO-aware mixed
    /// classes, 128-token chunks, crashes, breakers and a shed cap).
    fn tiny_crashy_fleet(recorded: bool) -> DriverCase {
        use longsight_faults::ReplicaFaultProfile;
        DriverCase {
            replicas: 2,
            wl: WorkloadConfig {
                arrivals_per_s: 8.0,
                context_tokens: (16_384, 32_768),
                output_tokens: (32, 128),
                duration_s: 4.0,
                seed: 1,
            },
            opts: SchedOptions {
                prefill_chunk_tokens: 128,
                ..SchedOptions::slo_aware(SloMix::mixed())
            },
            router: RouterPolicy::JsqSpillover,
            lookahead: None,
            recorder: recorded,
            timeseries: recorded,
            attribution: true,
            token_faults: None,
            fopts: FleetFaultOptions {
                profile: ReplicaFaultProfile::scaled(0.5),
                fault_seed: 11,
                breaker: Some(BreakerConfig::serving_default()),
                shed_queue_cap: Some(256),
            },
            sess: SessionOptions::disabled(),
        }
    }

    /// One lone 1B replica at 256K–1M contexts, where a speculated chain
    /// spans 2–15 hit steps, behind a 4-slot pool that saturates, with
    /// stale misses and token faults: every way a speculated run ends.
    fn tiny_lookahead_with_token_faults(recorded: bool) -> DriverCase {
        use crate::longsight::LookaheadConfig;
        DriverCase {
            replicas: 1,
            wl: WorkloadConfig {
                arrivals_per_s: 6.0,
                context_tokens: (262_144, 1_048_576),
                output_tokens: (16, 96),
                duration_s: 3.0,
                seed: 2,
            },
            opts: SchedOptions::fifo(),
            router: RouterPolicy::JsqSpillover,
            lookahead: Some(LookaheadConfig {
                slots: 4,
                ..LookaheadConfig::serving_default()
            }),
            recorder: recorded,
            timeseries: recorded,
            attribution: true,
            token_faults: Some((0.01, 7)),
            fopts: FleetFaultOptions::disabled(),
            sess: SessionOptions::disabled(),
        }
    }

    /// A run costs one loop turn per step only for what each step emits:
    /// an unrecorded run takes none, whether it draws nothing (attribution
    /// included) or draws speculation and token faults, and a recorded one
    /// takes one per step. Each equals single steps byte for byte: Chrome
    /// trace, fault log, metrics (`serving.spec_peak_slots` among them)
    /// and time series.
    #[test]
    fn only_per_step_side_effects_cost_loop_turns() {
        // Each shape with the fewest steps its runs must average per call.
        let shape: fn(bool) -> DriverCase = tiny_crashy_fleet;
        for (shape, per_call) in [(shape, 10), (tiny_lookahead_with_token_faults, 1)] {
            let unrecorded = shape(false);
            let ((out, m, rep), (calls, steps, turns)) =
                with_run_cap(usize::MAX, || run_driver(&unrecorded));
            if unrecorded.lookahead.is_none() {
                assert!(
                    rep.faults.as_ref().is_some_and(|f| f.crashes > 0),
                    "{rep:?}"
                );
            }
            assert_eq!(turns, 0, "{calls} calls over {steps} steps");
            assert!(steps > per_call * calls, "{steps} steps over {calls} calls");
            let ((single, ..), _) = with_run_cap(1, || run_driver(&unrecorded));
            assert_eq!(first_difference(&out, &single), None);

            let recorded = shape(true);
            let ((out, ..), (rec_calls, rec_steps, turns)) =
                with_run_cap(usize::MAX, || run_driver(&recorded));
            assert_eq!((rec_calls, rec_steps), (calls, steps));
            assert_eq!(turns, steps, "one loop turn per recorded step");
            let ((single, ..), (_, single_steps, single_turns)) =
                with_run_cap(1, || run_driver(&recorded));
            assert_eq!((single_steps, single_turns), (steps, steps));
            assert!(out.contains("decode.step"));
            if unrecorded.lookahead.is_some() {
                assert!(m.spec_misses > 0 && m.spec_denied > 0, "{m:?}");
                assert!(m.retried_tokens > 0, "{m:?}");
                for what in [
                    "spec.hit",
                    "spec.miss",
                    "fault.timeout",
                    "spec_peak_slots\":4",
                ] {
                    assert!(out.contains(what), "no {what} in the recorded run");
                }
            } else {
                assert!(out.contains("r0.queue.interactive"));
            }
            assert_eq!(first_difference(&out, &single), None);
        }
    }

    /// Token faults and speculation draw per token, so a run under them
    /// ends at the first step that is not clean; the clean stretches in
    /// between still run as macro-steps.
    #[test]
    fn token_faults_and_lookahead_end_runs_at_unclean_steps() {
        use crate::longsight::LookaheadConfig;
        use longsight_faults::FaultProfile;
        let model = ModelConfig::llama3_1b();
        let wl = WorkloadConfig {
            arrivals_per_s: 4.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed: 5,
        };
        let spec = RunSpec {
            sched: SchedOptions::slo_aware(SloMix::mixed()),
            token_faults: Some((
                FaultInjector::new(FaultProfile::scaled(0.05), 7),
                RetryPolicy::serving_default(),
            )),
            ..RunSpec::new(model.clone(), wl)
        };
        let cfg =
            LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default());
        let (_, (calls, steps, _)) = with_run_cap(usize::MAX, || {
            let mut sys = LongSightSystem::new(cfg, model.clone());
            run(
                &mut [&mut sys as &mut dyn ServingSystem],
                &spec,
                &mut Recorder::disabled(),
                None,
            )
        });
        assert_eq!((calls, steps), (140, 198), "(step calls, scheduler steps)");
    }

    /// The long-context single-replica shape (8B, FIFO, 128K-1M contexts,
    /// default lookahead, mild token faults without hard failures) over a
    /// short window: its run lengths pinned exactly, no loop turn
    /// unrecorded, and its metrics, fault log and, recorded, its trace,
    /// metrics export and time series equal to single steps.
    #[test]
    fn long_context_lookahead_with_token_faults_runs_macro_steps() {
        use crate::longsight::LookaheadConfig;
        use longsight_faults::FaultProfile;
        let model = ModelConfig::llama3_8b();
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (131_072, 1_048_576),
            output_tokens: (32, 128),
            duration_s: 20.0,
            seed: 1,
        };
        let inj = FaultInjector::new(
            FaultProfile {
                hard_fail_rate: 0.0,
                ..FaultProfile::mild()
            },
            7,
        );
        let spec = RunSpec {
            token_faults: Some((inj, RetryPolicy::serving_default())),
            ..RunSpec::new(model.clone(), wl)
        };
        let once = |recorded: bool| {
            let mut sys = LongSightSystem::new(
                LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default()),
                model.clone(),
            );
            let mut rec = Recorder::disabled();
            if recorded {
                rec = Recorder::enabled();
                rec.enable_timeseries(250e6, longsight_obs::BurnConfig::default());
            }
            let (m, rep, log) = run(
                &mut [&mut sys as &mut dyn ServingSystem],
                &spec,
                &mut rec,
                None,
            )
            .expect("one replica runs");
            assert!(m.spec_misses > 0 && m.retried_tokens > 0, "{m:?}");
            let exports = [
                rec.chrome_trace_json(),
                rec.metrics_json(),
                rec.timeseries.to_tsv(),
            ];
            format!(
                "{m:?}\n{:?}\n{log:?}\n{}",
                rep.replicas[0],
                exports.concat()
            )
        };
        let (macro_out, (calls, steps, turns)) = with_run_cap(usize::MAX, || once(false));
        let (single_out, (single_calls, single_steps, _)) = with_run_cap(1, || once(false));
        assert_eq!(macro_out, single_out);
        assert_eq!((single_calls, single_steps), (steps, steps));
        assert_eq!((calls, steps), (187, 1649), "(step calls, scheduler steps)");
        assert_eq!(turns, 0, "an unrecorded run draws without a loop turn");
        let (rec_out, (rec_calls, rec_steps, rec_turns)) = with_run_cap(usize::MAX, || once(true));
        let (rec_single, _) = with_run_cap(1, || once(true));
        assert_eq!((rec_calls, rec_steps, rec_turns), (calls, steps, steps));
        assert!(rec_out.contains("spec.hit") && rec_out.contains("serving.spec_peak_slots"));
        assert_eq!(first_difference(&rec_out, &rec_single), None);
    }

    /// The long-context single-replica shape over a longer window: misses
    /// and token-fault penalties make consecutive step durations differ,
    /// so a ledger of runs in recording order would grow with the steps.
    /// Every class token ledger must instead stay within about twice its
    /// distinct values plus the compaction threshold.
    #[test]
    fn long_context_token_ledgers_stay_within_their_distinct_values() {
        use crate::longsight::LookaheadConfig;
        use longsight_faults::FaultProfile;
        use longsight_sched::MIN_COMPACT_RUNS;
        let model = ModelConfig::llama3_8b();
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (131_072, 1_048_576),
            output_tokens: (32, 128),
            duration_s: 600.0,
            seed: 3,
        };
        let inj = FaultInjector::new(
            FaultProfile {
                hard_fail_rate: 0.0,
                ..FaultProfile::mild()
            },
            7,
        );
        let spec = RunSpec {
            token_faults: Some((inj, RetryPolicy::serving_default())),
            ..RunSpec::new(model.clone(), wl)
        };
        let mut sys = LongSightSystem::new(
            LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default()),
            model,
        );
        let (m, _, _) = run(
            &mut [&mut sys as &mut dyn ServingSystem],
            &spec,
            &mut Recorder::disabled(),
            None,
        )
        .expect("one replica runs");
        assert!(m.spec_misses > 0 && m.retried_tokens > 0, "{m:?}");
        let ledgers = TOKEN_LEDGERS.with(|l| l.borrow().clone());
        let samples: usize = ledgers.iter().map(|l| l.0).sum();
        assert!(samples > 50 * MIN_COMPACT_RUNS, "{samples} token samples");
        for &(len, capacity, distinct) in &ledgers {
            assert!(
                capacity <= 2 * distinct + MIN_COMPACT_RUNS,
                "{capacity} runs held for {distinct} distinct values over {len} samples"
            );
        }
    }

    /// A crashy two-replica session fleet under ownership-blind JSQ:
    /// crashes, breakers, shedding and prefix pulls together.
    fn crashy_session_case(token_faults: Option<(f64, u64)>) -> DriverCase {
        use longsight_faults::ReplicaFaultProfile;
        DriverCase {
            replicas: 2,
            wl: WorkloadConfig {
                arrivals_per_s: 1.0,
                context_tokens: (32_768, 65_536),
                output_tokens: (16, 64),
                duration_s: 16.0,
                seed: 5,
            },
            opts: SchedOptions::slo_aware(SloMix::mixed()),
            router: RouterPolicy::JsqSpillover,
            lookahead: None,
            recorder: true,
            timeseries: true,
            attribution: true,
            token_faults,
            fopts: FleetFaultOptions {
                profile: ReplicaFaultProfile::scaled(0.2),
                fault_seed: 11,
                breaker: Some(BreakerConfig::serving_default()),
                shed_queue_cap: Some(4),
            },
            sess: SessionOptions {
                sessions: 8,
                turns: 4,
                think_time_ms: 3000.0,
                reuse: 0.9,
                prefix_cache_pages: 4096,
            },
        }
    }

    #[test]
    fn rate_zero_token_faults_are_byte_identical_to_a_fault_free_fleet() {
        let (plain, m, rep) = run_driver(&crashy_session_case(None));
        let (zero, ..) = run_driver(&crashy_session_case(Some((0.0, 3))));
        assert!(rep.faults.as_ref().is_some_and(|f| f.crashes > 0), "{m:?}");
        assert!(rep.sessions.as_ref().is_some_and(|s| !s.pulls.is_empty()));
        if let Some(d) = first_difference(&plain, &zero) {
            panic!("rate-0 token faults changed the run at {d}");
        }
    }

    #[test]
    fn token_fault_failures_are_the_fleet_report_failures() {
        let (_, m, rep) = run_driver(&crashy_session_case(Some((0.3, 3))));
        assert!(m.failed_requests > 0 && m.degraded_tokens > 0, "{m:?}");
        assert!(rep.faults.as_ref().is_some_and(|f| f.crashes > 0));
        let failed: usize = rep.per_class.iter().map(|c| c.failed).sum();
        assert_eq!(failed, m.failed_requests);
        assert_eq!(rep.audit_violation, None);
    }

    /// A rate or duration that would never end the arrival loop, an
    /// inverted context or output range, a negative think time and a
    /// duration whose guard overflows the clock are refused before anything
    /// is generated.
    #[test]
    fn an_unservable_workload_is_a_typed_error() {
        let model = ModelConfig::llama3_1b();
        let base = WorkloadConfig {
            duration_s: 1.0,
            ..WorkloadConfig::long_context_chat()
        };
        let sessions = SessionOptions {
            sessions: 2,
            turns: 2,
            think_time_ms: 100.0,
            reuse: 0.5,
            prefix_cache_pages: 64,
        };
        let serve = |wl: WorkloadConfig, sessions: SessionOptions| {
            let spec = RunSpec {
                sessions,
                ..RunSpec::new(model.clone(), wl)
            };
            let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
            run(
                &mut [&mut sys as &mut dyn ServingSystem],
                &spec,
                &mut Recorder::disabled(),
                None,
            )
            .map(|(m, ..)| m)
        };
        let rate = |arrivals_per_s| WorkloadConfig {
            arrivals_per_s,
            ..base.clone()
        };
        let duration = |duration_s| WorkloadConfig {
            duration_s,
            ..base.clone()
        };
        let think = |think_time_ms| SessionOptions {
            think_time_ms,
            ..sessions.clone()
        };
        let off = SessionOptions::disabled;
        let (rate_err, duration_err) = (
            "the arrival rate must be finite and >= 0",
            "the duration must be finite and >= 0",
        );
        let (range_err, think_err) = (
            "the context and output ranges must not be inverted",
            "the think time must be finite and >= 0",
        );
        let guard_err = "the duration's overload guard overflows the picosecond clock";
        let contexts = WorkloadConfig {
            context_tokens: (32_768, 16_384),
            ..base.clone()
        };
        let outputs = WorkloadConfig {
            output_tokens: (64, 16),
            ..base.clone()
        };
        let cases = [
            (rate(-1.0), off(), rate_err),
            (rate(f64::NAN), off(), rate_err),
            (rate(f64::INFINITY), off(), rate_err),
            (duration(f64::NAN), off(), duration_err),
            (duration(-1.0), off(), duration_err),
            (duration(f64::INFINITY), off(), duration_err),
            (contexts, off(), range_err),
            (outputs, off(), range_err),
            (base.clone(), think(-1.0), think_err),
            (base.clone(), think(f64::NAN), think_err),
            (duration(4.7e6), off(), guard_err),
        ];
        for (wl, sess, what) in cases {
            let err = serve(wl.clone(), sess).expect_err(what);
            assert_eq!(err, RunError::InvalidWorkload { what }, "{wl:?}");
            assert_eq!(err.to_string(), format!("invalid workload: {what}"));
        }
        // A zero rate over a duration whose guard still fits, and a zero
        // think time, run.
        let idle = WorkloadConfig {
            arrivals_per_s: 0.0,
            ..duration(4.6e6)
        };
        assert_eq!(serve(idle, off()).map(|m| m.completed), Ok(0));
        assert!(serve(base.clone(), think(0.0)).is_ok());
    }

    /// A lookahead pool of zero slots could issue nothing. The CLI refuses
    /// `--spec-slots 0`; the library halts the replica at its first
    /// speculated step with a typed error instead of panicking.
    #[test]
    fn a_zero_slot_lookahead_is_a_typed_error() {
        use crate::longsight::LookaheadConfig;
        let model = ModelConfig::llama3_1b();
        let wl = WorkloadConfig {
            duration_s: 2.0,
            ..WorkloadConfig::long_context_chat()
        };
        let lookahead = LookaheadConfig {
            slots: 0,
            ..LookaheadConfig::serving_default()
        };
        let cfg = LongSightConfig::paper_default().with_lookahead(lookahead);
        let mut sys = LongSightSystem::new(cfg, model.clone());
        let err = run(
            &mut [&mut sys as &mut dyn ServingSystem],
            &RunSpec::new(model, wl),
            &mut Recorder::disabled(),
            None,
        )
        .expect_err("a zero-slot pool cannot speculate");
        assert_eq!(err, RunError::NoSpecSlots { replica: 0 });
        assert_eq!(
            err.to_string(),
            "replica 0 speculates with a lookahead pool of zero slots"
        );
    }

    /// A LongSight replica whose system refuses one `(users, context
    /// bucket)` step shape.
    struct Refusing {
        inner: LongSightSystem,
        refuse: (usize, usize),
    }

    impl ServingSystem for Refusing {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn evaluate(
            &mut self,
            users: usize,
            context: usize,
        ) -> Result<StepReport, crate::report::Infeasible> {
            if (users, context) == self.refuse {
                return Err(crate::report::Infeasible::QueueDepth);
            }
            self.inner.evaluate(users, context)
        }

        fn max_users(&self, context: usize) -> usize {
            self.inner.max_users(context)
        }
    }

    /// Under FIFO, arrival 2 (60K context) joins a batch with a 76K and a
    /// 96K member, so admission probes only 128K buckets for it. Both
    /// other members complete first; it then decodes alone at `(1, 64K)`,
    /// a shape admission never probed. A system that refuses that shape
    /// halts the replica with a typed error instead of a panic. A refused
    /// shape that admission does probe rejects the request instead.
    #[test]
    fn an_unprobed_infeasible_decode_subset_is_a_typed_error() {
        let model = ModelConfig::llama3_1b();
        let wl = WorkloadConfig {
            arrivals_per_s: 8.0,
            context_tokens: (16_384, 131_072),
            output_tokens: (16, 64),
            duration_s: 0.5,
            seed: 1,
        };
        let spec = RunSpec::new(model.clone(), wl);
        let serve = |refuse: (usize, usize)| {
            let inner = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
            let mut sys = Refusing { inner, refuse };
            let mut systems = [&mut sys as &mut dyn ServingSystem];
            run(&mut systems, &spec, &mut Recorder::disabled(), None).map(|(m, ..)| m)
        };
        let err = serve((1, 65_536)).expect_err("the lone 64K step cannot evaluate");
        assert_eq!(
            err,
            RunError::StepInfeasible {
                replica: 0,
                users: 1,
                ctx: 65_536
            }
        );
        assert_eq!(
            err.to_string(),
            "replica 0 cannot evaluate a 1-user decode step at context 65536"
        );
        let probed = serve((1, 131_072)).expect("admission rejects what it probes");
        assert!(probed.rejected > 0, "{probed:?}");
    }

    /// Round-robin over two replicas, the first refusing `(1, 64K)`: it
    /// halts at 113 ms while the second has work until 171 ms. `run` returns
    /// the error at once, so no step of the second replica starts after the
    /// first one halted (each halts at the end of its last step).
    #[test]
    fn an_infeasible_halt_stops_every_replica() {
        let model = ModelConfig::llama3_1b();
        let wl = WorkloadConfig {
            arrivals_per_s: 32.0,
            context_tokens: (16_384, 131_072),
            output_tokens: (16, 64),
            duration_s: 1.0,
            seed: 1,
        };
        let spec = RunSpec {
            router: RouterPolicy::RoundRobin,
            ..RunSpec::new(model.clone(), wl)
        };
        let system = || LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let mut refusing = Refusing {
            inner: system(),
            refuse: (1, 65_536),
        };
        let mut other = system();
        let mut systems = [
            &mut refusing as &mut dyn ServingSystem,
            &mut other as &mut dyn ServingSystem,
        ];
        let mut rec = Recorder::enabled();
        let err = run(&mut systems, &spec, &mut rec, None).expect_err("replica 0 halts");
        assert_eq!(
            err,
            RunError::StepInfeasible {
                replica: 0,
                users: 1,
                ctx: 65_536
            }
        );
        let (r0, r1) = (rec.track("r0.serving"), rec.track("r1.serving"));
        let steps = |track| rec.spans().iter().filter(move |s| s.track == track);
        let halted_at = steps(r0).map(|s| s.end_ns).fold(0.0, f64::max);
        let last_start = steps(r1).map(|s| s.start_ns).fold(0.0, f64::max);
        assert!(last_start > 0.0, "replica 1 stepped before the halt");
        assert!(
            last_start < halted_at,
            "replica 1 stepped at {last_start} ns, after replica 0 halted at {halted_at} ns"
        );
    }
}
