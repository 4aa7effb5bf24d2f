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
use crate::degrade::{first_fault, resolve_token, DegradeStats, TokenOutcome};
use crate::prefill::prefill_cost;
use crate::report::{ServingSystem, SpecStep, StepReport};
use crate::session::{self, SessionOptions, SessionTurn};
use longsight_cxl::CxlLink;
use longsight_drex::SpecSlotPool;
use longsight_faults::{
    domain, fleet_schedule, stream, unit_draw, FaultInjector, FaultLog, ReplicaEvent,
    ReplicaEventKind, ReplicaFaultProfile, RetryPolicy,
};
use longsight_gpu::GpuSpec;
use longsight_model::ModelConfig;
use longsight_obs::json::fmt_f64;
use longsight_obs::{ArgVal, Recorder, TrackId};
use longsight_sched::{
    BreakerConfig, BreakerState, CircuitBreaker, FleetFaultSummary, FleetReport, KvDeviceGeometry,
    LatencySamples, PagedKvManager, Placement, PullRecord, RedispatchRecord, Router, RouterPolicy,
    SchedConfig, SchedEvent, SchedPolicy, SchedReport, SchedRequest, Scheduler, SessionSummary,
    ShedRecord, SloBurnSummary, SloClass, SloMix, SortedSamples, StepPlan,
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
            ..Self::fifo()
        }
        .with_mix(mix)
    }

    fn with_mix(mut self, mix: SloMix) -> Self {
        self.mix = mix;
        self
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

impl Default for FleetFaultOptions {
    fn default() -> Self {
        Self::disabled()
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

    /// Every field as a flat JSON object (stable key order). The
    /// speculation counters appear only when any is non-zero, so
    /// lookahead-off output is byte-identical to builds that predate them.
    pub fn to_json(&self) -> String {
        let spec = if self.spec_hits + self.spec_misses + self.spec_denied > 0 {
            format!(
                ",\"spec_hits\":{},\"spec_misses\":{},\"spec_denied\":{}",
                self.spec_hits, self.spec_misses, self.spec_denied
            )
        } else {
            String::new()
        };
        // Like the speculation counters: present only for telemetry-enabled
        // runs, so telemetry-off JSON is byte-identical to older builds.
        let burn = match &self.slo_burn {
            None => String::new(),
            Some(b) => format!(
                ",\"slo_burn\":{{\"slo_ms\":{},\"budget\":{},\"completions\":{},\"misses\":{},\"consumed\":{},\"alert_windows\":{},\"first_alert_ms\":{}}}",
                fmt_f64(b.slo_ms),
                fmt_f64(b.budget),
                b.completions,
                b.misses,
                fmt_f64(b.consumed),
                b.alert_windows,
                fmt_f64(b.first_alert_ms),
            ),
        };
        format!(
            "{{\"completed\":{},\"rejected\":{},\"in_flight\":{},\"throughput_tps\":{},\"p50_token_ms\":{},\"p99_token_ms\":{},\"p50_request_ms\":{},\"p99_request_ms\":{},\"mean_batch\":{},\"retried_tokens\":{},\"degraded_tokens\":{},\"failed_requests\":{},\"degraded_quality_delta\":{}{spec}{burn}}}",
            self.completed,
            self.rejected,
            self.in_flight,
            fmt_f64(self.throughput_tps),
            fmt_f64(self.p50_token_ms),
            fmt_f64(self.p99_token_ms),
            fmt_f64(self.p50_request_ms),
            fmt_f64(self.p99_request_ms),
            fmt_f64(self.mean_batch),
            self.retried_tokens,
            self.degraded_tokens,
            self.failed_requests,
            fmt_f64(self.degraded_quality_delta),
        )
    }

    /// Parses the output of [`ServeMetrics::to_json`] back into a value.
    ///
    /// Round-trips bit-exactly for finite fields; non-finite floats
    /// serialize as `null` and parse back as `0.0`.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON or a field is
    /// missing or of the wrong type.
    pub fn from_json(text: &str) -> Result<Self, String> {
        use longsight_obs::json::{parse, Value};
        let v = parse(text)?;
        let get_usize = |key: &str| -> Result<usize, String> {
            let f = v
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field '{key}'"))?;
            Ok(f as usize)
        };
        let get_f64 = |key: &str| -> Result<f64, String> {
            let field = v.get(key).ok_or_else(|| format!("missing field '{key}'"))?;
            match field {
                Value::Null => Ok(0.0), // fmt_f64 writes non-finite as null
                other => other
                    .as_f64()
                    .ok_or_else(|| format!("non-numeric field '{key}'")),
            }
        };
        // Optional: absent in lookahead-off output (and pre-lookahead JSON).
        let get_spec = |key: &str| -> Result<usize, String> {
            match v.get(key) {
                None => Ok(0),
                Some(f) => f
                    .as_f64()
                    .map(|x| x as usize)
                    .ok_or_else(|| format!("non-numeric field '{key}'")),
            }
        };
        Ok(Self {
            completed: get_usize("completed")?,
            rejected: get_usize("rejected")?,
            in_flight: get_usize("in_flight")?,
            throughput_tps: get_f64("throughput_tps")?,
            p50_token_ms: get_f64("p50_token_ms")?,
            p99_token_ms: get_f64("p99_token_ms")?,
            p50_request_ms: get_f64("p50_request_ms")?,
            p99_request_ms: get_f64("p99_request_ms")?,
            mean_batch: get_f64("mean_batch")?,
            retried_tokens: get_usize("retried_tokens")?,
            degraded_tokens: get_usize("degraded_tokens")?,
            failed_requests: get_usize("failed_requests")?,
            degraded_quality_delta: get_f64("degraded_quality_delta")?,
            spec_hits: get_spec("spec_hits")?,
            spec_misses: get_spec("spec_misses")?,
            spec_denied: get_spec("spec_denied")?,
            slo_burn: match v.get("slo_burn") {
                None => None,
                Some(b) => {
                    let bf = |key: &str| -> Result<f64, String> {
                        match b.get(key) {
                            Some(Value::Null) => Ok(0.0),
                            Some(x) => x
                                .as_f64()
                                .ok_or_else(|| format!("non-numeric slo_burn field '{key}'")),
                            None => Err(format!("missing slo_burn field '{key}'")),
                        }
                    };
                    Some(SloBurnSummary {
                        slo_ms: bf("slo_ms")?,
                        budget: bf("budget")?,
                        completions: bf("completions")? as u64,
                        misses: bf("misses")? as u64,
                        consumed: bf("consumed")?,
                        alert_windows: bf("alert_windows")? as u64,
                        first_alert_ms: bf("first_alert_ms")?,
                    })
                }
            },
        })
    }
}

/// One offered request: a Poisson arrival, or a session turn when `turn`
/// is set.
#[derive(Debug, Clone)]
pub(crate) struct Arrival {
    pub(crate) id: usize,
    pub(crate) arrival_ns: f64,
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
            arrival_ns: self.arrival_ns,
            context: self.context,
            output: self.output,
            prefill_ns: self.prefill_ns,
            restore_ns: g.restore_ns(self.context),
            recompute_ns: g.recompute_ns(self.context),
            pull_ns: f64::INFINITY,
            prefix_hash: None,
        }
    }
}

/// Pre-generates the run's Poisson arrival process with its class draws
/// and prefill costs, so the offered load is byte-identical regardless of
/// how many replicas serve it: arrivals from the workload seed, classes
/// from a dedicated stream (`seed ^ CLASS_SEED`). Comes back reversed —
/// pop from the back in time order.
fn gen_arrivals(model: &ModelConfig, workload: &WorkloadConfig, mix: &SloMix) -> Vec<Arrival> {
    let mut rng = SimRng::seed_from(workload.seed);
    let mut arrivals: Vec<Arrival> = Vec::new();
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
            arrival_ns: t,
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
                cost_ns,
                restored,
            } => (
                "sched.resume",
                id,
                Some(class),
                vec![
                    ("cost_ns", ArgVal::F(cost_ns)),
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

/// Resolves one speculated decode step against the slot pool.
///
/// Each decoding member `(request id, token index)` tries to occupy one
/// slot for the chain issued at the previous step. A denied issue (pool
/// exhausted) leaves the member on the synchronous path. An issued member
/// then draws its miss ([`spec_miss`]). Every decision is a pure function
/// of `(seed, id, token)`, so the schedule is bit-identical at any thread
/// count and across reruns. Emits `spec.issue` / `spec.hit` / `spec.miss`
/// instants and returns the member counts `(hits, misses, denied)`.
fn resolve_spec_step(
    pool: &mut SpecSlotPool,
    s: &SpecStep,
    members: impl Iterator<Item = (u64, u64)>,
    inj: Option<&FaultInjector>,
    rec: &mut Recorder,
    track: TrackId,
    now_ns: f64,
) -> (usize, usize, usize) {
    pool.release_until(now_ns);
    let (mut hits, mut misses, mut denied) = (0usize, 0usize, 0usize);
    for (id, tok) in members {
        if !pool.try_issue(now_ns, s.chain_ns) {
            denied += 1;
            continue;
        }
        if rec.is_enabled() {
            record_spec_instant(rec, track, "spec.issue", now_ns, id, tok);
        }
        let (stale, voided) = spec_miss(s, inj, id, tok);
        if stale || voided {
            misses += 1;
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "spec.miss",
                    now_ns,
                    &[
                        ("id", ArgVal::U(id)),
                        ("tok", ArgVal::U(tok)),
                        ("void", ArgVal::U(u64::from(voided))),
                    ],
                );
            }
        } else {
            hits += 1;
            if rec.is_enabled() {
                record_spec_instant(rec, track, "spec.hit", now_ns, id, tok);
            }
        }
    }
    (hits, misses, denied)
}

/// The two miss draws of one issued member's speculated chain, on its own
/// `domain::SPEC` stream: `(stale, voided)`. Stale speculation (coordinate
/// 0: the context grew past the speculated region or an eviction/restore
/// invalidated pages, modeled by `miss_rate`) and, under fault injection,
/// an in-flight void (coordinate 1: the slice timeout/bit-flip classes
/// that would corrupt a synchronous offload kill the speculative copy).
/// The void draw lives off the retry ladder's `domain::TOKEN` stream, so
/// a voided slot charges a miss and is never double-retried.
fn spec_miss(s: &SpecStep, inj: Option<&FaultInjector>, id: u64, tok: u64) -> (bool, bool) {
    let stale = unit_draw(s.seed, stream(domain::SPEC, id, tok, 0), 0) < s.miss_rate;
    let voided = inj.is_some_and(|inj| {
        let void_rate = inj.profile.timeout_rate + inj.profile.bitflip_rate;
        void_rate > 0.0 && inj.uniform(stream(domain::SPEC, id, tok, 1), 0) < void_rate
    });
    (stale, voided)
}

/// A `spec.issue` or `spec.hit` instant of one member's speculated chain.
fn record_spec_instant(
    rec: &mut Recorder,
    track: TrackId,
    name: &str,
    now_ns: f64,
    id: u64,
    tok: u64,
) {
    rec.instant_with(
        track,
        name,
        now_ns,
        &[("id", ArgVal::U(id)), ("tok", ArgVal::U(tok))],
    );
}

/// How a resolved speculation paces the synchronized step: any miss runs
/// the synchronous path plus the deterministic re-filter penalty, a
/// denial-only step runs the synchronous path, an all-hit step keeps the
/// hit-path timing.
fn spec_pacing(s: &SpecStep, hit_step_ns: f64, misses: usize, denied: usize) -> (f64, SpecCharge) {
    if misses > 0 {
        (s.serial_step_ns + s.refilter_penalty_ns, SpecCharge::Miss)
    } else if denied > 0 {
        (s.serial_step_ns, SpecCharge::Denied)
    } else {
        (hit_step_ns, SpecCharge::Hit)
    }
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

/// One replica's incremental simulation state: its own scheduler, page
/// ledger, clock, step-cost cache and trace tracks.
///
/// A lone replica (`idx = None`, a one-replica run) keeps unprefixed
/// `serving`/`faults`/`sched`/`spec` tracks and telemetry series. Replica
/// `i` of a fleet prefixes its tracks and series with `r{i}.`; [`run`]
/// advances it to every arrival time, routes from its [`Scheduler::load`]
/// snapshot, and injects into it. Token faults and attribution apply to
/// every replica alike.
struct ReplicaSim<'a> {
    sched: Scheduler,
    now: f64,
    /// Token latencies, ms: each decode step's duration, once per decoding
    /// member up to 64.
    token_lat: LatencySamples,
    /// Decoding members summed over decode steps, and the decode step
    /// count: the mean batch size.
    batch_users: usize,
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
    /// Token-level fault injection and its trace track.
    faults: Option<(&'a FaultInjector, &'a RetryPolicy, TrackId)>,
    fault_log: FaultLog,
    /// Entries of `fault_log` already replayed onto the trace.
    fault_cursor: usize,
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
    /// Completion log with classes, in completion order: the request
    /// latency samples, and the observable signal the circuit breaker is
    /// driven by.
    completions: Vec<(SloClass, f64)>,
    /// Session turns in flight here; always empty on sessionless runs.
    turns: Vec<PendingTurn>,
    /// The overload guard, four horizons: a step ending past it stays
    /// unaccounted and halts the replica.
    guard_ns: f64,
    /// Set by the step that crossed `guard_ns`: a halted replica never
    /// drains or steps again, and [`run`] routes nothing more.
    halted: bool,
    /// Longest run a step may take, from [`MAX_RUN`] at construction.
    #[cfg(test)]
    max_run: usize,
}

#[cfg(test)]
thread_local! {
    /// Run-length cap of every [`ReplicaSim`] built on this thread: tests
    /// set it to 1 to compare macro-steps against single steps.
    static MAX_RUN: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    /// `(step calls, scheduler steps)` run on this thread, so tests can pin
    /// run lengths that bit-identity alone would not notice shrinking.
    static RUN_COUNTS: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

impl<'a> ReplicaSim<'a> {
    fn new(
        geometry: &KvDeviceGeometry,
        opts: &SchedOptions,
        rec: &mut Recorder,
        idx: Option<usize>,
        faults: Option<(&'a FaultInjector, &'a RetryPolicy)>,
        guard_ns: f64,
    ) -> Self {
        let mut sched = Scheduler::new(sched_config_for(geometry, opts));
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
            sched,
            now: 0.0,
            token_lat: LatencySamples::new(),
            batch_users: 0,
            batch_steps: 0,
            generated_tokens: 0,
            cache: Vec::new(),
            serving_track,
            sched_track,
            prefix,
            spec_pool: None,
            spec_track: None,
            spec_counts: (0, 0, 0),
            faults: faults
                .zip(faults_track)
                .map(|((inj, retry), track)| (inj, retry, track)),
            fault_log: FaultLog::new(),
            fault_cursor: 0,
            degrade: DegradeStats::default(),
            brownout_tokens: 0,
            down: false,
            brownout_factor: 1.0,
            completions: Vec::new(),
            turns: Vec::new(),
            guard_ns,
            halted: false,
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

    /// Counts one step call advancing `n` scheduler steps (tests only).
    fn count_run(&self, _n: usize) {
        #[cfg(test)]
        RUN_COUNTS.with(|c| {
            let (calls, steps) = c.get();
            c.set((calls + 1, steps + _n));
        });
    }

    /// Offers an arriving request to this replica's scheduler.
    fn inject(&mut self, sys: &mut dyn ServingSystem, rec: &mut Recorder, req: SchedRequest) {
        let Self {
            sched, cache, now, ..
        } = self;
        let mut feas = |users: usize, ctx: usize| -> bool {
            cached_step_cost(cache, sys, users, ctx, rec, *now).is_some()
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
        sys: &mut dyn ServingSystem,
        rec: &mut Recorder,
        mut attr: Option<&mut TokenAttribution>,
        t: Option<f64>,
    ) {
        while !self.halted && !t.is_some_and(|t| self.now >= t) {
            if !self.down {
                self.drain(sys, rec);
                if self.prefix.is_empty() {
                    sample_sched_timeseries(rec, "", self.now, &self.sched);
                }
            }
            if self.down || self.sched.active_is_empty() {
                self.now = t.map_or(self.now, |t| self.now.max(t));
                return;
            }
            self.step(sys, rec, attr.as_deref_mut(), t.unwrap_or(f64::INFINITY));
        }
    }

    /// [`ReplicaSim::advance`] to `t`, then drains a live replica at its
    /// new clock: the state a fleet routes and redispatches from.
    fn catch_up(
        &mut self,
        sys: &mut dyn ServingSystem,
        rec: &mut Recorder,
        attr: Option<&mut TokenAttribution>,
        t: f64,
    ) {
        self.advance(sys, rec, attr, Some(t));
        if !self.down && !self.halted {
            self.drain(sys, rec);
        }
    }

    fn drain(&mut self, sys: &mut dyn ServingSystem, rec: &mut Recorder) {
        let Self {
            sched, cache, now, ..
        } = self;
        let mut feas = |users: usize, ctx: usize| -> bool {
            cached_step_cost(cache, sys, users, ctx, rec, *now).is_some()
        };
        sched.drain_queue(&mut feas);
        flush_sched_events(&mut self.sched, rec, self.sched_track, self.now);
    }

    /// One synchronized step — the only one in the crate — repeated over
    /// a run of identical steps. The decoding members advance one token
    /// per step; chunked prefill shares the step (SLO-aware only).
    /// Speculation, brownout contraction and token faults pace it in that
    /// order: the worst token's retry/backoff penalty paces the whole
    /// batch, and hard-failed requests leave it without emitting this
    /// token.
    ///
    /// **Macro-steps.** A step's cost depends only on the batch shape, so
    /// the plan repeats until a member completes ([`Scheduler::steady_run`])
    /// or a chunk changes ([`Scheduler::chunk_step`], once per step), or
    /// until the first step whose end reaches `until`, the next arrival or
    /// fleet event. The clock takes one `now += dt` per step (`k·dt` is not
    /// the sum of `k` `dt`s in floating point); the counters move by the run
    /// length and the scheduler advances the decoders over it in one call.
    /// With the recorder, the time series or attribution on, each step of
    /// the run still emits its own `decode.step` span, `tokens` rate,
    /// scheduler sample and attribution record at its own `now`.
    ///
    /// **Eligibility.** Speculation and token faults draw per token, so a
    /// run also ends at the first step that is not *clean*: one where some
    /// decoding member is denied a slot, misses (stale or void), hard-fails
    /// or times out on attempt 0. A clean step logs no fault, keeps the
    /// hit-path `dt` (`work_dt + 0.0`, the same bits) and changes only the
    /// slot pool, the hit count and the `spec.*` instants. The first step
    /// of a call always resolves in full; it runs alone unless it came out
    /// clean. Each later step is checked at its own `now` and token index
    /// ([`ReplicaSim::take_clean_step`]); the first one that is not clean
    /// ends the run before it, and the next call resolves it in full.
    /// Checking a step twice is exact: every draw is a pure function of
    /// `(seed, id, token)`, and `release_until` is idempotent at one `now`.
    ///
    /// **Overload guard.** A step that ends past `guard_ns` stays
    /// unaccounted (the steps of the run before it count) and halts the
    /// replica.
    fn step(
        &mut self,
        sys: &mut dyn ServingSystem,
        rec: &mut Recorder,
        mut attr: Option<&mut TokenAttribution>,
        until: f64,
    ) {
        let plan = self.sched.plan_step();
        let report = (plan.decode_users > 0).then(|| {
            cached_step_cost(
                &mut self.cache,
                sys,
                plan.decode_users,
                plan.max_decode_ctx,
                rec,
                self.now,
            )
            .expect("a decode subset of an admitted batch must evaluate")
        });
        let mut base_dt = report.map_or(0.0, |r| r.step_ns);
        // With the lookahead pipeline on, the chain for this step was
        // issued speculatively at the previous one: resolve every decoding
        // member against the slot pool before the step's duration is
        // fixed. Draws key off the global request id, so a request resolves
        // identically wherever the router placed it. Lookahead-off reports
        // carry no `spec`, so this block (and the `spec` track) never
        // exists on that path.
        let mut spec: Option<(SpecStep, SpecCharge, (usize, usize, usize))> = None;
        if let Some(s) = report.and_then(|r| r.spec) {
            let pool = self
                .spec_pool
                .get_or_insert_with(|| SpecSlotPool::new(s.slots));
            let track = *self
                .spec_track
                .get_or_insert_with(|| rec.track(&format!("{}spec", self.prefix)));
            let counts = resolve_spec_step(
                pool,
                &s,
                self.sched
                    .active()
                    .iter()
                    .filter(|r| r.in_decode)
                    .map(|r| (r.req.id as u64, r.generated as u64)),
                self.faults.map(|f| f.0),
                rec,
                track,
                self.now,
            );
            let (paced, charge) = spec_pacing(&s, base_dt, counts.1, counts.2);
            base_dt = paced;
            self.spec_counts.0 += counts.0;
            self.spec_counts.1 += counts.1;
            self.spec_counts.2 += counts.2;
            spec = Some((s, charge, counts));
        }
        if self.brownout_factor < 1.0 {
            // Brownout: the DReX tier runs on a shrunken top-k budget, so
            // the offload share of the step contracts proportionally and
            // every token decoded under it loses part of its long-range
            // attention (charged below as a degraded token).
            if let Some(r) = report {
                let offload = r.breakdown.drex_offload_ns + r.breakdown.cxl_ns;
                base_dt = (base_dt - (1.0 - self.brownout_factor) * offload).max(0.0);
            }
        }
        // Chunked prefill hides inside the memory-bound decode step; only a
        // pure-prefill step pays chunk time alone. FIFO plans no chunks, so
        // `work_dt == base_dt` exactly.
        let work_dt = base_dt.max(plan.prefill_ns);
        let mut dt = work_dt;
        let mut batch_died = false;
        // Clean: no draw changed this step's timing or the scheduler.
        let mut clean = spec.is_none_or(|(_, charge, _)| charge == SpecCharge::Hit);
        if let Some((inj, retry, track)) = self.faults {
            let mut max_penalty = 0.0f64;
            let mut dead: Vec<usize> = Vec::new();
            let mut degraded_ids: Vec<usize> = Vec::new();
            for r in self.sched.active() {
                if !r.in_decode {
                    continue;
                }
                let (outcome, penalty) = resolve_token(
                    inj,
                    retry,
                    r.req.id as u64,
                    r.generated as u64,
                    &mut self.fault_log,
                );
                self.degrade.record(outcome);
                clean &= outcome == TokenOutcome::Completed { retries: 0 };
                match outcome {
                    TokenOutcome::Failed => dead.push(r.req.id),
                    TokenOutcome::Degraded => {
                        degraded_ids.push(r.req.id);
                        max_penalty = max_penalty.max(penalty);
                    }
                    TokenOutcome::Completed { .. } => max_penalty = max_penalty.max(penalty),
                }
            }
            // Replay this step's fault events onto the trace (1:1 with the
            // log) at the step's start time.
            self.fault_cursor +=
                self.fault_log
                    .record_tail_into(self.fault_cursor, rec, track, self.now);
            self.sched.remove_failed(&dead);
            if !dead.is_empty() {
                self.turns.retain(|t| !dead.contains(&t.id));
            }
            // A degraded request lost its long-range path: its DReX tail
            // pages come back to the pool.
            for id in degraded_ids {
                self.sched.on_degraded(id);
            }
            dt += max_penalty;
            batch_died = self.sched.active_is_empty();
        }
        let run = if clean {
            self.sched.steady_run(self.run_cap())
        } else {
            1
        };
        let decoding = self.sched.decoding_count();
        let ts_on = rec.timeseries.is_enabled();
        // Only speculation and token faults draw per token, so only they
        // can leave a later step of the run unclean.
        let draws = spec.is_some() || self.faults.is_some();
        // The run's steps, one clock tick and, when the plan has chunks, one
        // chunk step each; the guard step and a dead batch's step take none.
        // Only the last step can complete a request, so every earlier one
        // emits what the end of a lone step would: no completion, no
        // scheduler event, and a sample of gauges it leaves alone. (A lone
        // replica's own sample after each drain repeats them at the same
        // `now`; gauges keep the last write per window.)
        let mut n = 0usize;
        let past_guard = loop {
            if rec.is_enabled() {
                self.trace_step(rec, &plan, work_dt, dt);
            }
            self.now += dt;
            if batch_died {
                flush_sched_events(&mut self.sched, rec, self.sched_track, self.now);
                return;
            }
            if self.now > self.guard_ns {
                break true;
            }
            n += 1;
            let same_chunks = plan.prefill_users == 0 || self.sched.chunk_step();
            if decoding > 0 {
                if let (Some(a), Some(r)) = (attr.as_deref_mut(), report.as_ref()) {
                    attribute_step(a, r, spec, dt, decoding.min(64));
                }
            }
            if n == run || self.now >= until || !same_chunks {
                break false;
            }
            if draws && !self.take_clean_step(rec, spec.map(|s| s.0), n) {
                break false;
            }
            if ts_on {
                self.sample_step(rec, decoding);
            }
        };
        self.count_run(n);
        if decoding > 0 {
            self.token_lat.push_n(dt / 1e6, decoding.min(64) * n);
            self.batch_users += decoding * n;
            self.batch_steps += n;
            self.generated_tokens += decoding * n;
            if self.brownout_factor < 1.0 {
                self.degrade.degraded_tokens += decoding * n;
                self.brownout_tokens += decoding * n;
            }
        }
        let done = self.sched.advance_step(dt, n, self.now);
        if past_guard {
            // The steps before the one past the guard completed nothing
            // (`done` is empty); the guard step itself stays unaccounted.
            self.halted = true;
            return;
        }
        for c in done {
            // A completed session turn publishes its prefix under its
            // content key on the replica it completed on.
            if let Some(pos) = self.turns.iter().position(|t| t.id == c.id) {
                let (hash, pages) = self.turns.swap_remove(pos).publish;
                self.sched.pages_mut().prefix_insert(hash, pages);
            }
            self.completions.push((c.class, c.latency_ms));
            if ts_on {
                rec.timeseries
                    .observe_ms("lat.request_ms", self.now, c.latency_ms);
                if c.class == SloClass::Interactive {
                    rec.timeseries.slo_sample(self.now, c.latency_ms);
                }
            }
        }
        flush_sched_events(&mut self.sched, rec, self.sched_track, self.now);
        if ts_on {
            self.sample_step(rec, decoding);
        }
    }

    /// Takes step `k` of a run, starting at the current `now`, if it is
    /// clean: every decoding member, at token `generated + k`, neither
    /// hard-fails nor times out on attempt 0 ([`first_fault`]), and under
    /// speculation gets a slot and passes both miss draws ([`spec_miss`]).
    /// The full resolution of a clean step logs no fault and keeps the
    /// hit-path timing, so all it changes is applied here: the slots, the
    /// hit count and the `spec.issue`/`spec.hit` instants. A step that is
    /// not clean changes nothing but the pool's `release_until(now)`,
    /// which the next call's full resolution repeats to the same effect.
    fn take_clean_step(&mut self, rec: &mut Recorder, spec: Option<SpecStep>, k: usize) -> bool {
        let Self {
            sched,
            now,
            spec_pool,
            spec_track,
            spec_counts,
            faults,
            ..
        } = self;
        let members = || {
            sched
                .active()
                .iter()
                .filter(|r| r.in_decode)
                .map(|r| (r.req.id as u64, (r.generated + k) as u64))
        };
        let inj = faults.map(|f| f.0);
        if let Some(inj) = inj {
            if members().any(|(id, tok)| first_fault(inj, id, tok).is_some()) {
                return false;
            }
        }
        let (Some(s), Some(pool), Some(track)) = (spec, spec_pool.as_mut(), *spec_track) else {
            return true;
        };
        pool.release_until(*now);
        let m = members().count();
        if pool.occupancy() + m > pool.capacity()
            || members().any(|(id, tok)| spec_miss(&s, inj, id, tok) != (false, false))
        {
            return false;
        }
        for (id, tok) in members() {
            let issued = pool.try_issue(*now, s.chain_ns);
            debug_assert!(issued, "a clean step's issues fit the pool");
            if rec.is_enabled() {
                record_spec_instant(rec, track, "spec.issue", *now, id, tok);
                record_spec_instant(rec, track, "spec.hit", *now, id, tok);
            }
        }
        spec_counts.0 += m;
        true
    }

    /// The trace of one step of `dt` starting at the current `now`: a
    /// `decode.step` span (with a nested `decode.retry_wait` when fault
    /// penalties stretch it past `work_dt`), or a `prefill.step` leaf when
    /// nobody decodes.
    fn trace_step(&self, rec: &mut Recorder, plan: &StepPlan, work_dt: f64, dt: f64) {
        let step_start = self.now;
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
                    step_start + work_dt,
                    step_start + dt,
                    &[("penalty_ns", ArgVal::F(dt - work_dt))],
                );
            }
            rec.close(span, step_start + dt);
        } else {
            rec.leaf_with(
                self.serving_track,
                "prefill.step",
                step_start,
                step_start + dt,
                &[
                    ("users", ArgVal::U(plan.prefill_users as u64)),
                    ("prefill_ns", ArgVal::F(plan.prefill_ns)),
                ],
            );
        }
    }

    /// The end-of-step time-series samples at the current `now`: decoded
    /// tokens (and brownout-degraded ones) plus the scheduler snapshot.
    fn sample_step(&self, rec: &mut Recorder, decoding: usize) {
        if decoding > 0 {
            rec.timeseries.rate_add("tokens", self.now, decoding as f64);
            if self.brownout_factor < 1.0 {
                rec.timeseries.rate_add(
                    &format!("{}degraded_tok", self.prefix),
                    self.now,
                    decoding as f64,
                );
            }
        }
        sample_sched_timeseries(rec, &self.prefix, self.now, &self.sched);
    }
}

/// Records one decode step of `dt` into the per-token attribution, for
/// `counted` decoding members, plus its speculation sample when the step
/// was speculated.
fn attribute_step(
    a: &mut TokenAttribution,
    r: &StepReport,
    spec: Option<(SpecStep, SpecCharge, (usize, usize, usize))>,
    dt: f64,
    counted: usize,
) {
    let parts = attribution_parts(r, dt, spec.map(|s| s.1));
    a.record_step(parts, dt, counted);
    if let Some((s, charge, (h, m, d))) = spec {
        a.record_spec_step(
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
        );
    }
}

/// The one `ServeMetrics` aggregation every run ends in: merged token and
/// request samples, summed counters, the span of the slowest replica.
/// `offered` arrivals end completed, rejected, waiting, failed, shed
/// (`shed` of them) or in flight. A token degraded by a token fault keeps
/// none of its long-range top-k budget, one decoded under a brownout keeps
/// `brownout_keep` of it. Returns the metrics with the sorted token and
/// request latency samples.
fn serve_metrics(
    replicas: &[ReplicaSim],
    offered: usize,
    shed: usize,
    brownout_keep: f64,
    rec: &mut Recorder,
) -> (ServeMetrics, SortedSamples, SortedSamples) {
    let mut token_lat = LatencySamples::new();
    let mut request_lat = LatencySamples::new();
    let (mut generated, mut batch_users, mut batch_steps) = (0usize, 0usize, 0usize);
    let (mut rejected, mut waiting, mut brownout) = (0usize, 0usize, 0usize);
    let mut spec = (0usize, 0usize, 0usize);
    let mut degrade = DegradeStats::default();
    let mut span_ns = 0.0f64;
    for r in replicas {
        token_lat.append(&r.token_lat);
        batch_users += r.batch_users;
        batch_steps += r.batch_steps;
        for c in &r.completions {
            request_lat.push(c.1);
        }
        generated += r.generated_tokens;
        rejected += r.sched.rejected();
        waiting += r.sched.waiting_len();
        brownout += r.brownout_tokens;
        spec.0 += r.spec_counts.0;
        spec.1 += r.spec_counts.1;
        spec.2 += r.spec_counts.2;
        degrade.retried_tokens += r.degrade.retried_tokens;
        degrade.degraded_tokens += r.degrade.degraded_tokens;
        degrade.failed_requests += r.degrade.failed_requests;
        span_ns = span_ns.max(r.now);
    }
    let (token_lat, request_lat) = (token_lat.sorted(), request_lat.sorted());
    let completed = request_lat.len();
    let metrics = ServeMetrics {
        completed,
        rejected,
        in_flight: offered - (completed + rejected + waiting + degrade.failed_requests + shed),
        throughput_tps: generated as f64 / (span_ns.max(1.0) / 1e9),
        p50_token_ms: token_lat.percentile_round(0.5),
        p99_token_ms: token_lat.percentile_round(0.99),
        p50_request_ms: request_lat.percentile_round(0.5),
        p99_request_ms: request_lat.percentile_round(0.99),
        mean_batch: if batch_steps == 0 {
            0.0
        } else {
            batch_users as f64 / batch_steps as f64
        },
        retried_tokens: degrade.retried_tokens,
        degraded_tokens: degrade.degraded_tokens,
        failed_requests: degrade.failed_requests,
        degraded_quality_delta: if generated == 0 || degrade.degraded_tokens == 0 {
            0.0
        } else {
            let lost = (degrade.degraded_tokens - brownout) as f64;
            (lost + (1.0 - brownout_keep) * brownout as f64) / generated as f64
        },
        spec_hits: spec.0,
        spec_misses: spec.1,
        spec_denied: spec.2,
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
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunError::NoReplicas => "a run needs at least one replica",
            RunError::FaultDomainsNeedTwoReplicas => {
                "fleet fault domains need at least two replicas"
            }
        })
    }
}

impl std::error::Error for RunError {}

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
/// halts its replica unaccounted, and no later arrival is placed. Steps
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
/// [`RunError::NoReplicas`] for an empty `systems`, and
/// [`RunError::FaultDomainsNeedTwoReplicas`] for `spec.faults` armed over
/// one replica.
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
    let guard_ns = 4.0 * spec.workload.duration_s * 1e9;
    let mut replicas: Vec<ReplicaSim> = Vec::with_capacity(n);
    let mut geometries: Vec<KvDeviceGeometry> = Vec::with_capacity(n);
    for (i, sys) in systems.iter_mut().enumerate() {
        let g = geometry_for(&**sys, opts);
        let idx = (n > 1).then_some(i);
        let mut r = ReplicaSim::new(&g, opts, rec, idx, token_faults, guard_ns);
        r.sched
            .pages_mut()
            .set_prefix_capacity(sess.prefix_cache_pages);
        replicas.push(r);
        geometries.push(g);
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
            let next = arrivals.last().map_or(f64::INFINITY, |a| a.arrival_ns);
            while let Some(e) = f.events.pop_if(|e| e.at_ns <= next) {
                let (at, st) = (attr.as_deref_mut(), sessions_track);
                f.apply_event(
                    e,
                    &mut replicas,
                    systems,
                    &geometries,
                    &mut owners,
                    rec,
                    at,
                    st,
                );
            }
        }
        let Some(a) = arrivals.pop() else { break };
        for (r, sys) in replicas.iter_mut().zip(systems.iter_mut()) {
            if fleet.is_some() {
                r.catch_up(&mut **sys, rec, attr.as_deref_mut(), a.arrival_ns);
            } else {
                r.advance(&mut **sys, rec, attr.as_deref_mut(), Some(a.arrival_ns));
            }
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
        let pick = match fleet.as_mut() {
            None => {
                rec.timeseries.rate_add("arrivals", a.arrival_ns, 1.0);
                0
            }
            Some(f) => match f.route(&a, &replicas, owned, rec) {
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
        let g = &geometries[pick];
        let mut req = a.request(g);
        if let Some(t) = turn {
            match price_resume(
                &mut req,
                t,
                pick,
                replicas[pick].sched.pages_mut(),
                owned.filter(|&(o, _)| o != pick),
                g.restore_ns_per_page,
            ) {
                Resume::Local => book.prefix_hits += 1,
                Resume::Pull(p) => {
                    if let Some(st) = sessions_track {
                        rec.leaf_with(
                            st,
                            "prefix.pull",
                            a.arrival_ns,
                            a.arrival_ns + req.pull_ns,
                            &[
                                ("id", ArgVal::U(a.id as u64)),
                                ("from", ArgVal::U(p.from as u64)),
                                ("to", ArgVal::U(pick as u64)),
                                ("pages", ArgVal::U(p.pages as u64)),
                            ],
                        );
                    }
                    rec.timeseries.rate_add("sessions.pull", a.arrival_ns, 1.0);
                    book.pulls.push(p);
                }
                Resume::Cold => book.cold_turns += usize::from(t.turn > 0),
            }
            // This turn's completion publishes the next turn's prefix.
            replicas[pick].turns.push(PendingTurn {
                id: a.id,
                publish: (
                    t.publish_hash,
                    t.publish_tokens.div_ceil(g.page_tokens.max(1)),
                ),
                cold_prefill_ns: req.prefix_hash.map(|_| a.prefill_ns),
            });
            owners.insert(t.publish_hash, pick);
        }
        replicas[pick].inject(&mut *systems[pick], rec, req);
        if fleet.is_some() && rec.timeseries.is_enabled() {
            rec.timeseries.rate_add("fleet.admit", a.arrival_ns, 1.0);
            let r = &replicas[pick];
            sample_sched_timeseries(rec, &r.prefix, a.arrival_ns, &r.sched);
        }
    }
    for (r, sys) in replicas.iter_mut().zip(systems.iter_mut()) {
        r.advance(&mut **sys, rec, attr.as_deref_mut(), None);
    }

    let shed = fleet.as_ref().map_or(0, |f| f.summary.shed.len());
    let (metrics, token_lat, request_lat) = serve_metrics(
        &replicas,
        offered,
        shed,
        fopts.profile.brownout_topk_factor,
        rec,
    );
    let mut reports: Vec<SchedReport> = replicas.iter_mut().map(|r| r.sched.finalize()).collect();
    let mut report = match fleet {
        // A lone replica's report already holds its per-class percentiles,
        // and it took every arrival placed, in id order.
        None => FleetReport::single(spec.router, reports.swap_remove(0)),
        Some(f) => {
            let mut samples: [(LatencySamples, LatencySamples); 3] = Default::default();
            for r in &replicas {
                for (i, (tok, req)) in r.sched.class_samples().into_iter().enumerate() {
                    samples[i].0.append(tok);
                    samples[i].1.append(req);
                }
            }
            let faults = fopts.is_active().then_some(f.summary);
            FleetReport::assemble_with_faults(spec.router, reports, placements, samples, faults)
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
        for t in token_lat.iter() {
            rec.observe("serving.token_latency_ms", t);
        }
        for l in request_lat.iter() {
            rec.observe("serving.request_latency_ms", l);
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
/// A warm resume pins the prefix in `pages` and sets `req`'s prefill to
/// the suffix (plus the pull), its pull price and its prefix handle.
fn price_resume(
    req: &mut SchedRequest,
    turn: &SessionTurn,
    pick: usize,
    pages: &mut PagedKvManager,
    owner: Option<(usize, usize)>,
    restore_ns_per_page: f64,
) -> Resume {
    let Some(h) = turn.pin_hash else {
        return Resume::Cold;
    };
    let cold_ns = req.prefill_ns;
    let suffix_frac = (req.context - turn.prefix_tokens) as f64 / req.context.max(1) as f64;
    let suffix_ns = cold_ns * suffix_frac;
    if pages.prefix_pin(h).is_some() {
        req.prefill_ns = suffix_ns;
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
    req.prefill_ns = suffix_ns + pull_ns;
    req.pull_ns = pull_ns;
    req.prefix_hash = Some(h);
    Resume::Pull(PullRecord {
        id: req.id,
        hash: h,
        from,
        to: pick,
        pages: owner_pages,
        at_ns: req.arrival_ns,
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
    /// The replica fault timeline, reversed: pop from the back in time
    /// order.
    events: Vec<ReplicaEvent>,
    breakers: Option<Vec<CircuitBreaker>>,
    summary: FleetFaultSummary,
    down_since: Vec<f64>,
    /// Completions and degraded tokens of each replica its breaker has
    /// already seen.
    fed: Vec<(usize, u64)>,
}

impl<'a> FleetCtl<'a> {
    fn new(spec: &'a RunSpec, n: usize, offered: usize, rec: &mut Recorder) -> Self {
        let (fopts, wl) = (&spec.faults, &spec.workload);
        let router_track = rec.track("router");
        let mut events = Vec::new();
        if fopts.profile.is_enabled() {
            events = fleet_schedule(&fopts.profile, fopts.fault_seed, n, wl.duration_s);
            events.reverse();
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
            down_since: vec![0.0; n],
            fed: vec![(0, 0); n],
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
        replicas: &[ReplicaSim],
        owned: Option<(usize, usize)>,
        rec: &mut Recorder,
    ) -> Option<usize> {
        self.feed_breakers(replicas, a.arrival_ns, rec);
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
        // With no owner or a non-affinity policy this is `route_healthy`,
        // and over all-Closed states that is `route`.
        let (owner, pages) = owned.unzip();
        let routed =
            self.router
                .route_affine(a.id, a.class, &loads, &gated, owner, pages.unwrap_or(0));
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
                at_ns: a.arrival_ns,
                reason,
            });
            let args = [("id", id), ("class", class), ("reason", ArgVal::S(reason))];
            rec.instant_with(self.fault_track, "shed", a.arrival_ns, &args);
            rec.timeseries.rate_add("fleet.shed", a.arrival_ns, 1.0);
            return None;
        };
        let free_hbm = ArgVal::U(loads[pick].free_hbm() as u64);
        let args = [
            ("id", id),
            ("replica", ArgVal::U(pick as u64)),
            ("class", class),
            ("free_hbm", free_hbm),
        ];
        rec.instant_with(self.router_track, "route.place", a.arrival_ns, &args);
        Some(pick)
    }

    /// Feeds each breaker the completions and degraded tokens its replica
    /// produced since the last arrival, then ticks the cooldown — the
    /// breaker observes exactly what a real front-end can observe, never
    /// the fault schedule itself — and samples its `r{i}.breaker` gauge.
    /// Transitions land on the fault track.
    fn feed_breakers(&mut self, replicas: &[ReplicaSim], now_ns: f64, rec: &mut Recorder) {
        let Some(bs) = self.breakers.as_mut() else {
            return;
        };
        for (i, ((r, b), (done, degraded))) in
            replicas.iter().zip(bs).zip(&mut self.fed).enumerate()
        {
            let mut transitions: Vec<Option<BreakerState>> = r.completions[*done..]
                .iter()
                .map(|&(class, lat)| b.note_completion(class, lat, now_ns))
                .collect();
            *done = r.completions.len();
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

    /// Applies one replica fault-timeline event to the fleet.
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
    #[allow(clippy::too_many_arguments)]
    fn apply_event<'s, S: DerefMut<Target = dyn ServingSystem + 's>>(
        &mut self,
        e: ReplicaEvent,
        replicas: &mut [ReplicaSim],
        systems: &mut [S],
        geometries: &[KvDeviceGeometry],
        owners: &mut HashMap<u64, usize>,
        rec: &mut Recorder,
        mut attr: Option<&mut TokenAttribution>,
        sessions_track: Option<TrackId>,
    ) {
        let (r, at, track) = (e.replica, e.at_ns, self.fault_track);
        let replica = ("replica", ArgVal::U(r as u64));
        match e.kind {
            ReplicaEventKind::Down => {
                replicas[r].catch_up(&mut *systems[r], rec, attr.as_deref_mut(), at);
                let evac = replicas[r].sched.crash_evacuate();
                replicas[r].down = true;
                self.down_since[r] = at;
                self.summary.crashes += 1;
                if rec.timeseries.is_enabled() {
                    rec.timeseries.gauge(&format!("r{r}.up"), at, 0.0);
                    sample_sched_timeseries(rec, &replicas[r].prefix, at, &replicas[r].sched);
                }
                let evacuated = ("evacuated", ArgVal::U(evac.len() as u64));
                rec.instant_with(track, "replica.down", at, &[replica, evacuated]);
                if let Some(s) = self.breakers.as_mut().and_then(|bs| bs[r].force_open(at)) {
                    record_breaker(rec, track, r, at, s);
                }
                // Survivors catch up to the crash instant so every failover
                // decision is taken from one consistent snapshot.
                for (i, (x, sys)) in replicas.iter_mut().zip(systems.iter_mut()).enumerate() {
                    if i != r && !x.down {
                        x.catch_up(&mut **sys, rec, attr.as_deref_mut(), at);
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
                    let (to, reason) = match self.router.route_healthy(id, class, &loads, &states) {
                        Ok(t) => (t, "replica-crash"),
                        Err(_) => (r, "no-healthy-replica"),
                    };
                    let mut moved = ev;
                    moved.req.restore_ns = geometries[to].restore_ns(moved.req.context);
                    moved.req.recompute_ns = geometries[to].recompute_ns(moved.req.context);
                    if let Some(pos) = replicas[r].turns.iter().position(|t| t.id == id) {
                        let mut turn = replicas[r].turns.swap_remove(pos);
                        if let Some(cold_ns) = turn.cold_prefill_ns.take() {
                            moved.req.prefill_ns = cold_ns;
                            let mid_prefill = u64::from(ev.prefill_left_ns > 0.0);
                            let args = [
                                ("id", ArgVal::U(id as u64)),
                                ("from", ArgVal::U(r as u64)),
                                ("to", ArgVal::U(to as u64)),
                                ("ctx", ArgVal::U(ev.req.context as u64)),
                                ("mid_prefill", ArgVal::U(mid_prefill)),
                                ("prefill_ns", ArgVal::F(cold_ns)),
                            ];
                            if let Some(st) = sessions_track {
                                rec.instant_with(st, "prefix.lost", at, &args);
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
                        at_ns: at,
                        reason,
                    });
                    let args = [
                        ("id", ArgVal::U(id as u64)),
                        ("from", ArgVal::U(r as u64)),
                        ("to", ArgVal::U(to as u64)),
                        ("class", ArgVal::S(class.name())),
                    ];
                    rec.instant_with(track, "redispatch", at, &args);
                    rec.timeseries.rate_add("fleet.redispatch", at, 1.0);
                }
            }
            ReplicaEventKind::Up => {
                self.summary.downtime_ns[r] += at - self.down_since[r];
                replicas[r].now = replicas[r].now.max(at);
                replicas[r].down = false;
                if rec.timeseries.is_enabled() {
                    rec.timeseries.gauge(&format!("r{r}.up"), at, 1.0);
                }
                rec.instant_with(track, "replica.up", at, &[replica]);
                if let Some(s) = self.breakers.as_mut().and_then(|bs| bs[r].on_recovery()) {
                    record_breaker(rec, track, r, at, s);
                }
            }
            ReplicaEventKind::BrownoutStart => {
                if !replicas[r].down {
                    replicas[r].catch_up(&mut *systems[r], rec, attr, at);
                    let factor = self.fopts.profile.brownout_topk_factor;
                    replicas[r].brownout_factor = factor;
                    self.summary.brownouts += 1;
                    let topk = ("topk_factor", ArgVal::F(factor));
                    rec.instant_with(track, "replica.brownout_start", at, &[replica, topk]);
                }
            }
            ReplicaEventKind::BrownoutEnd => {
                replicas[r].catch_up(&mut *systems[r], rec, attr, at);
                replicas[r].brownout_factor = 1.0;
                rec.instant_with(track, "replica.brownout_end", at, &[replica]);
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

    #[test]
    fn metrics_json_round_trips_bit_exactly() {
        let m = plain(2.0, 3);
        let parsed = ServeMetrics::from_json(&m.to_json()).expect("own JSON must parse");
        assert_eq!(m, parsed);
    }

    #[test]
    fn metrics_json_round_trips_non_finite_as_zero() {
        let mut m = plain(2.0, 3);
        m.throughput_tps = f64::NAN;
        m.mean_batch = f64::INFINITY;
        let parsed = ServeMetrics::from_json(&m.to_json()).expect("nulls must parse");
        assert_eq!(parsed.throughput_tps, 0.0);
        assert_eq!(parsed.mean_batch, 0.0);
        assert_eq!(parsed.completed, m.completed);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        assert!(ServeMetrics::from_json("{\"completed\":1}").is_err());
        assert!(ServeMetrics::from_json("not json").is_err());
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
    /// returns its result and the `(step calls, scheduler steps)` it ran.
    fn with_run_cap<T>(cap: usize, f: impl FnOnce() -> T) -> (T, (usize, usize)) {
        let _scope = RunCapScope;
        MAX_RUN.with(|c| c.set(cap));
        RUN_COUNTS.with(|c| c.set((0, 0)));
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
    /// reach 256K contexts, where a 1B model's speculated chain outlasts a
    /// hit step: slots stay busy into the next step and fill mid-run.
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
            slots: [1usize, 2, 32][g.usize_in(0, 3)],
            miss_rate: [0.0, 0.02, 0.3][g.usize_in(0, 3)],
            ..LookaheadConfig::serving_default()
        });
        let max_ctx = [16_384usize, 32_768, 65_536, 262_144]
            [g.usize_in(if lookahead.is_some() { 2 } else { 0 }, 4)];
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
        let ((macro_out, m, rep), (calls, steps)) = with_run_cap(usize::MAX, || run_driver(&c));
        let ((single_out, ..), (single_calls, single_steps)) = with_run_cap(1, || run_driver(&c));
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
        let ((_, rep, _), (calls, steps)) = with_run_cap(usize::MAX, || {
            let mut fleet = fleet_of(2, &LongSightConfig::paper_default(), &model);
            run(&mut fleet, &spec, &mut Recorder::disabled(), None).expect("fleet runs")
        });
        assert!(rep.faults.as_ref().is_some_and(|f| f.crashes > 0));
        assert_eq!(
            (calls, steps),
            (597, 27_184),
            "(step calls, scheduler steps)"
        );
        assert!(steps >= 10 * calls, "{steps} steps over {calls} calls");
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
        let (_, (calls, steps)) = with_run_cap(usize::MAX, || {
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
    /// short window: its run lengths pinned exactly, and its metrics and
    /// fault log equal to single steps.
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
        let once = || {
            let mut sys = LongSightSystem::new(
                LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default()),
                model.clone(),
            );
            let mut rec = Recorder::disabled();
            let (m, rep, log) = run(
                &mut [&mut sys as &mut dyn ServingSystem],
                &spec,
                &mut rec,
                None,
            )
            .expect("one replica runs");
            assert!(m.spec_misses > 0 && m.retried_tokens > 0, "{m:?}");
            format!("{m:?}\n{:?}\n{log:?}", rep.replicas[0])
        };
        let (macro_out, (calls, steps)) = with_run_cap(usize::MAX, once);
        let (single_out, single_counts) = with_run_cap(1, once);
        assert_eq!(macro_out, single_out);
        assert_eq!(single_counts, (steps, steps));
        assert_eq!((calls, steps), (187, 1649), "(step calls, scheduler steps)");
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
}
