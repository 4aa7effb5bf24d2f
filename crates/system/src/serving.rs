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
//! [`simulate_scheduled`] exposes the SLO-aware policy, where admission is
//! a paged-memory decision over HBM window pages and DReX tail pages,
//! prefill is chunked and overlapped with decode, and best-effort requests
//! are evicted to DReX-resident state when higher classes need HBM.
//!
//! One replica's synchronized step exists once, in `ReplicaSim::step`.
//! The single-replica entry points drive one standalone replica through
//! their own arrival loop; [`simulate_fleet`] is the one fleet loop, where
//! replica fault domains ([`FleetFaultOptions`]) and multi-turn sessions
//! ([`SessionOptions`]) compose. Every driver ends in the same
//! [`ServeMetrics`] aggregation.

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

/// Scheduler policy and paged-KV knobs for [`simulate_scheduled`].
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

/// Fleet-level fault-domain and overload-control knobs for
/// [`simulate_fleet`]. The [`FleetFaultOptions::disabled`] value arms
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

/// Trace instant name of a breaker transition.
fn breaker_instant_name(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "breaker.close",
        BreakerState::Open => "breaker.open",
        BreakerState::HalfOpen => "breaker.half_open",
    }
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
/// and prefill costs. The single-replica loop and the fleet loop both draw
/// from this one function, so the offered load is byte-identical
/// regardless of how many replicas serve it: arrivals from the workload
/// seed, classes from a dedicated stream (`seed ^ CLASS_SEED`). Comes back
/// reversed — pop from the back in time order.
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

/// Runs the closed-loop simulation of `system` under `workload`.
///
/// Admission: an arriving request joins the batch if the system can evaluate
/// the grown batch at the largest member context; otherwise it waits in an
/// unbounded queue (and counts toward request latency). Steps are
/// synchronized across the batch (all users advance one token per step), and
/// contexts are frozen at admission — decode extends them by at most a few
/// hundred tokens, negligible against 64K+ prompts.
pub fn simulate(
    system: &mut dyn ServingSystem,
    model: &ModelConfig,
    workload: &WorkloadConfig,
) -> ServeMetrics {
    sched_impl(
        system,
        model,
        workload,
        &SchedOptions::fifo(),
        None,
        &mut Recorder::disabled(),
        None,
    )
    .0
}

/// [`simulate`] with token-level fault injection and observability
/// attached.
///
/// Under `faults`, each generated token resolves through the
/// retry/deadline degradation policy ([`crate::degrade::resolve_token`]):
/// sampled offload timeouts cost the full deadline plus backoff, exhausted
/// retries degrade the token to dense window-only attention, and hard
/// faults kill the request. The synchronized batch is paced by its worst
/// token, so a step's latency grows by the largest penalty in the batch.
/// Every fault decision derives from `(inj.seed, request id, token index,
/// attempt)`, so two runs with the same seed return byte-identical
/// [`FaultLog`]s and identical metrics at any thread count; with no (or a
/// disabled) injector this is exactly [`simulate`] plus an empty log.
///
/// Every decode step emits a `decode.step` span on the `serving` track
/// (with a nested `decode.retry_wait` child when fault penalties stretch
/// the step), the first evaluation of each distinct `(batch, context)`
/// shape records the system's expanded internal timeline at the simulated
/// time it was first needed, every fault event lands on the `faults` track
/// as an instant (1:1 with the returned [`FaultLog`]), scheduling decisions
/// land on the `sched` track as instants, and the run's aggregate
/// counters/latency histograms populate `rec.metrics`. When `attr` is
/// given, each generated token's latency is decomposed into the eight
/// attribution components.
///
/// The simulated timeline is bit-identical to an unobserved run:
/// recording only reads simulation state.
pub fn simulate_observed(
    system: &mut dyn ServingSystem,
    model: &ModelConfig,
    workload: &WorkloadConfig,
    faults: Option<(&FaultInjector, &RetryPolicy)>,
    rec: &mut Recorder,
    attr: Option<&mut TokenAttribution>,
) -> (ServeMetrics, FaultLog) {
    let (m, _, log) = sched_impl(
        system,
        model,
        workload,
        &SchedOptions::fifo(),
        faults,
        rec,
        attr,
    );
    (m, log)
}

/// The full serving simulation under an explicit scheduler configuration,
/// returning the per-class [`SchedReport`] alongside the aggregate metrics.
///
/// With `SchedOptions::fifo()` this is exactly [`simulate_observed`]
/// (bit-identical metrics). With an SLO-aware policy, admission allocates
/// HBM window pages and DReX tail pages against the system's
/// [`ServingSystem::kv_geometry`], prefill is chunked (overlapping the
/// memory-bound decode steps), and best-effort requests are preempted to
/// DReX-resident state when higher classes need HBM pages, paying the
/// cheaper of restore-over-CXL or recompute-on-GPU at resume.
pub fn simulate_scheduled(
    system: &mut dyn ServingSystem,
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    faults: Option<(&FaultInjector, &RetryPolicy)>,
    rec: &mut Recorder,
    attr: Option<&mut TokenAttribution>,
) -> (ServeMetrics, SchedReport, FaultLog) {
    sched_impl(system, model, workload, opts, faults, rec, attr)
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

/// The single-replica driver: one standalone [`ReplicaSim`] under its own
/// arrival loop. Each iteration admits every due arrival, *then* drains
/// the queue, then steps. Under FIFO `Scheduler::on_arrival` admits ahead
/// of the queue, so this order (the fleet's `advance` drains first and
/// injects after) is part of the pinned single-replica timeline.
fn sched_impl(
    system: &mut dyn ServingSystem,
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    faults: Option<(&FaultInjector, &RetryPolicy)>,
    rec: &mut Recorder,
    attr: Option<&mut TokenAttribution>,
) -> (ServeMetrics, SchedReport, FaultLog) {
    let horizon_ns = workload.duration_s * 1e9;
    let mut arrivals = gen_arrivals(model, workload, &opts.mix);
    let offered = arrivals.len();
    let geometry = geometry_for(system, opts);
    let faults = faults.filter(|(inj, _)| inj.is_enabled());
    let mut r = ReplicaSim::new(&geometry, opts, rec, None, faults, attr);
    loop {
        // Admission and queue drain are the scheduler's decisions; the step
        // model only answers feasibility. (FIFO issues the exact legacy
        // sequence of feasibility probes, so the step-detail anchors in the
        // trace are unchanged.)
        while arrivals.last().is_some_and(|a| a.arrival_ns <= r.now) {
            let a = arrivals.pop().expect("checked non-empty");
            rec.timeseries.rate_add("arrivals", a.arrival_ns, 1.0);
            r.inject(system, rec, a.request(&geometry));
        }
        r.drain(system, rec);
        sample_sched_timeseries(rec, "", r.now, &r.sched);
        if r.sched.active_is_empty() {
            match arrivals.last() {
                Some(a) => {
                    r.now = a.arrival_ns;
                    continue;
                }
                None => break,
            }
        }
        let until = arrivals.last().map_or(f64::INFINITY, |a| a.arrival_ns);
        if !r.step(system, rec, until, 4.0 * horizon_ns) {
            break; // overload guard: stop accounting far past the window
        }
    }

    let (metrics, token_lat, request_lat) =
        serve_metrics(std::slice::from_ref(&r), offered, 0, 0.0, rec);
    let sched_report = r.sched.finalize();
    if rec.is_enabled() {
        for t in token_lat.iter() {
            rec.observe("serving.token_latency_ms", t);
        }
        for l in request_lat.iter() {
            rec.observe("serving.request_latency_ms", l);
        }
        rec.counter_add("serving.completed", metrics.completed as u64);
        rec.counter_add("serving.rejected", metrics.rejected as u64);
        rec.counter_add("serving.generated_tokens", r.generated_tokens as u64);
        rec.counter_add("serving.retried_tokens", metrics.retried_tokens as u64);
        rec.counter_add("serving.degraded_tokens", metrics.degraded_tokens as u64);
        rec.counter_add("serving.failed_requests", metrics.failed_requests as u64);
        rec.counter_add("serving.fault_events", r.fault_log.len() as u64);
        // Speculation counters exist only when a slot pool did: metrics
        // exports of lookahead-off runs keep their exact key set.
        if let Some(pool) = &r.spec_pool {
            rec.counter_add("serving.spec_hits", metrics.spec_hits as u64);
            rec.counter_add("serving.spec_misses", metrics.spec_misses as u64);
            rec.counter_add("serving.spec_denied", metrics.spec_denied as u64);
            rec.gauge_set("serving.spec_peak_slots", pool.peak_occupancy() as f64);
        }
        rec.gauge_set("serving.throughput_tps", metrics.throughput_tps);
        rec.gauge_set("serving.mean_batch", metrics.mean_batch);
        rec.gauge_set("serving.p50_token_ms", metrics.p50_token_ms);
        rec.gauge_set("serving.p99_token_ms", metrics.p99_token_ms);
        rec.counter_add("sched.preemptions", sched_report.preemptions as u64);
        rec.counter_add("sched.resumes", sched_report.resumes as u64);
        rec.counter_add("sched.prefill_chunks", sched_report.prefill_chunks as u64);
        rec.gauge_set("sched.peak_hbm_pages", sched_report.pages.peak_hbm as f64);
        rec.gauge_set("sched.peak_drex_pages", sched_report.pages.peak_drex as f64);
    }
    (metrics, sched_report, r.fault_log)
}

/// Records one telemetry sampling point for a scheduler: queue depth per
/// SLO class, batch size, and page occupancy in both tiers. `prefix` is
/// empty on the single-replica path and `r{i}.` inside fleets; series
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
/// A standalone replica (`idx = None`) is the single-replica driver's
/// whole system: unprefixed `serving`/`faults`/`sched`/`spec` tracks and
/// telemetry series, optional token-level fault injection and per-token
/// attribution. Replica `i` of a fleet prefixes its tracks and series with
/// `r{i}.` and injects no token faults; the fleet loop advances it to every
/// arrival time, routes from its [`Scheduler::load`] snapshot, and injects
/// into it.
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
    /// Token-level fault injection and its trace track (standalone only).
    faults: Option<(&'a FaultInjector, &'a RetryPolicy, TrackId)>,
    fault_log: FaultLog,
    /// Entries of `fault_log` already replayed onto the trace.
    fault_cursor: usize,
    /// Token outcomes: retries and failures from token faults; degraded
    /// tokens from token faults or DReX brownouts.
    degrade: DegradeStats,
    attr: Option<&'a mut TokenAttribution>,
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
        attr: Option<&'a mut TokenAttribution>,
    ) -> Self {
        let mut sched = Scheduler::new(sched_config_for(geometry, opts));
        sched.set_event_recording(rec.is_enabled());
        let prefix = idx.map_or(String::new(), |i| format!("r{i}."));
        let serving_track = rec.track(&format!("{prefix}serving"));
        // A standalone replica interns its `faults` track even with no
        // injector, so every single-replica trace has one track list.
        let faults_track = idx.is_none().then(|| rec.track("faults"));
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
            attr,
            down: false,
            brownout_factor: 1.0,
            completions: Vec::new(),
            turns: Vec::new(),
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
    /// is `None`: drain the admission queue, step, repeat. Stepping stops
    /// once the clock is past four horizons, the fleet's overload guard. A
    /// crashed replica idles: its clock tracks fleet time but no queue
    /// drains and no step runs until the `Up` event.
    fn advance(
        &mut self,
        sys: &mut dyn ServingSystem,
        rec: &mut Recorder,
        t: Option<f64>,
        horizon_ns: f64,
    ) {
        loop {
            if !self.down {
                self.drain(sys, rec);
            }
            if self.down || self.sched.active_is_empty() {
                self.now = t.map_or(self.now, |t| self.now.max(t));
                return;
            }
            let guard = 4.0 * horizon_ns;
            if t.is_some_and(|t| self.now >= t) || self.now > guard {
                return;
            }
            // A run ending at or past the guard stops early at worst: this
            // loop then takes the next step exactly as it would have.
            self.step(sys, rec, t.map_or(guard, |t| t.min(guard)), f64::INFINITY);
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
    /// Returns `false` when a step ended past `guard_ns` — the
    /// single-replica loop's overload guard — leaving that step
    /// unaccounted; fleets pass infinity and guard through `until` and
    /// [`ReplicaSim::advance`] instead.
    fn step(
        &mut self,
        sys: &mut dyn ServingSystem,
        rec: &mut Recorder,
        until: f64,
        guard_ns: f64,
    ) -> bool {
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
        // scheduler event, and a sample of gauges it leaves alone. (The
        // single-replica loop's own sample after each step repeats them at
        // the same `now`; gauges keep the last write per window.)
        let mut n = 0usize;
        let past_guard = loop {
            if rec.is_enabled() {
                self.trace_step(rec, &plan, work_dt, dt);
            }
            self.now += dt;
            if batch_died {
                flush_sched_events(&mut self.sched, rec, self.sched_track, self.now);
                return true;
            }
            if self.now > guard_ns {
                break true;
            }
            n += 1;
            let same_chunks = plan.prefill_users == 0 || self.sched.chunk_step();
            if decoding > 0 {
                if let (Some(a), Some(r)) = (self.attr.as_deref_mut(), report.as_ref()) {
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
            }
        }
        let done = self.sched.advance_step(dt, n, self.now);
        if past_guard {
            // The steps before the one past the guard completed nothing
            // (`done` is empty); the guard step itself stays unaccounted.
            return false;
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
        true
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

/// The one `ServeMetrics` aggregation every driver ends in: merged token
/// and request samples, summed counters, the span of the slowest replica.
/// `offered` arrivals end completed, rejected, waiting, failed, shed
/// (`shed` of them) or in flight. A degraded token keeps `degraded_keep`
/// of its long-range top-k budget: zero for a token-fault degradation,
/// the brownout factor in a fleet. Returns the metrics with the sorted
/// token and request latency samples.
fn serve_metrics(
    replicas: &[ReplicaSim],
    offered: usize,
    shed: usize,
    degraded_keep: f64,
    rec: &mut Recorder,
) -> (ServeMetrics, SortedSamples, SortedSamples) {
    let mut token_lat = LatencySamples::new();
    let mut request_lat = LatencySamples::new();
    let (mut generated, mut batch_users, mut batch_steps) = (0usize, 0usize, 0usize);
    let (mut rejected, mut waiting) = (0usize, 0usize);
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
            (1.0 - degraded_keep) * degrade.degraded_tokens as f64 / generated as f64
        },
        spec_hits: spec.0,
        spec_misses: spec.1,
        spec_denied: spec.2,
        slo_burn: finalize_slo_burn(rec),
    };
    (metrics, token_lat, request_lat)
}

/// Closed-loop serving over a fleet of replicas behind a deterministic
/// front-end router: the one fleet loop, where fault domains (`fopts`)
/// and sessions (`sess`) are independent options that compose.
///
/// The router places each arrival on one replica from [`Scheduler::load`]
/// snapshots taken after every replica has advanced to the arrival time.
/// Placement is a pure function of `(seed, arrival index, load)`, so the
/// fleet timeline is bit-identical at any worker-thread count. Decisions
/// land on the `router` track as `route.place` instants; each replica gets
/// its own `r<i>.serving` / `r<i>.sched` tracks.
///
/// **Fault domains.** A replica crash/brownout timeline drawn from
/// `fopts.fault_seed` (independent of the workload seed), per-replica
/// circuit breakers driving health-aware failover, and an SLO-aware
/// admission controller that sheds arrivals no replica has queue room
/// for. A crash evacuates the replica's in-flight set (its KV pages are
/// gone) and redispatches each request through the router onto a
/// survivor, where it queues behind the rebuild charge of that replica's
/// [`KvDeviceGeometry`]. Every arrival is placed once, redispatched with a
/// recorded reason, or shed — never lost; the [`FleetReport`] audit
/// enforces it. Fault instants land on a `fleet.faults` track.
///
/// **Sessions.** The session generator ([`crate::session`]) replaces the
/// Poisson process: each session's turns extend one growing context, and
/// a completed turn publishes its KV prefix under a content hash into its
/// replica's prefix cache. A follow-up turn resumes cheapest first: a
/// **local hit** pins the prefix and prefills only the suffix; a
/// **pooled-DReX pull** from the owning replica pays the target's per-page
/// restore price × 2 (two fabric hops, the preemption-restore transfer
/// model) on top of the suffix when that beats re-prefilling, traced as a
/// `prefix.pull` span on the `sessions` track and logged as a
/// [`PullRecord`]; otherwise it prefills **cold**. Under
/// [`RouterPolicy::Affinity`] a resuming turn lands on its owner while the
/// owner's breaker admits it and it has free HBM, else on cost-aware JSQ
/// crediting the owner's cached pages. A crash drops its evacuees' pins:
/// a warm evacuee is repriced to its full cold prefill (a `prefix.lost`
/// instant) and its pending publication moves with it; a shed follow-up
/// counts cold. The session audit checks pin and turn conservation.
///
/// With one replica and no session workload this is bit-identical to
/// [`simulate_scheduled`], wrapped in a degenerate [`FleetReport`]; with
/// both option sets disabled no fault or session track is interned.
///
/// # Panics
///
/// Panics when `systems` is empty, or when fault options are active over
/// a single-replica fleet (there is nothing to fail over to; the CLI
/// rejects the combination).
#[allow(clippy::too_many_arguments)]
pub fn simulate_fleet(
    systems: &mut [Box<dyn ServingSystem>],
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    router_policy: RouterPolicy,
    fopts: &FleetFaultOptions,
    sess: &SessionOptions,
    rec: &mut Recorder,
) -> (ServeMetrics, FleetReport) {
    assert!(!systems.is_empty(), "fleet needs at least one replica");
    assert!(
        systems.len() > 1 || !fopts.is_active(),
        "fleet fault domains need at least two replicas"
    );
    if systems.len() == 1 && !sess.is_active() {
        let (m, rep, _) = sched_impl(systems[0].as_mut(), model, workload, opts, None, rec, None);
        let mut fleet = FleetReport::single(router_policy, rep);
        fleet.slo_burn = m.slo_burn.clone();
        return (m, fleet);
    }
    let n = systems.len();
    let horizon_ns = workload.duration_s * 1e9;
    let mut arrivals = if sess.is_active() {
        session::gen_session_turns(model, workload, &opts.mix, sess)
    } else {
        gen_arrivals(model, workload, &opts.mix)
    };
    let offered = arrivals.len();
    let router = Router::new(router_policy, workload.seed);
    let router_track = rec.track("router");
    let active = fopts.is_active();
    // Fault and session tracks are interned only when armed, so every run
    // keeps its exact track list.
    let track = if active {
        rec.track("fleet.faults")
    } else {
        router_track
    };
    let sessions_track = sess.is_active().then(|| rec.track("sessions"));
    let mut events: Vec<ReplicaEvent> = if fopts.profile.is_enabled() {
        fleet_schedule(&fopts.profile, fopts.fault_seed, n, workload.duration_s)
    } else {
        Vec::new()
    };
    events.reverse(); // pop from the back in time order
    let mut breakers: Option<Vec<CircuitBreaker>> = fopts
        .breaker
        .map(|cfg| (0..n).map(|_| CircuitBreaker::new(cfg)).collect());
    let mut summary = FleetFaultSummary::new(n, offered);
    let mut down_since = vec![0.0f64; n];
    let mut fed_completions = vec![0usize; n];
    let mut fed_degraded = vec![0u64; n];

    let mut replicas: Vec<ReplicaSim> = Vec::with_capacity(n);
    let mut geometries: Vec<KvDeviceGeometry> = Vec::with_capacity(n);
    for (i, sys) in systems.iter_mut().enumerate() {
        let g = geometry_for(sys.as_ref(), opts);
        let mut r = ReplicaSim::new(&g, opts, rec, Some(i), None, None);
        r.sched
            .pages_mut()
            .set_prefix_capacity(sess.prefix_cache_pages);
        replicas.push(r);
        geometries.push(g);
    }

    // Content hash -> replica whose cache holds (or will hold) the prefix.
    let mut owners: HashMap<u64, usize> = HashMap::new();
    let mut placements: Vec<Placement> = Vec::with_capacity(offered);
    let (mut sessions_seen, mut local_hits, mut cold_turns) = (0usize, 0usize, 0usize);
    let mut pulls: Vec<PullRecord> = Vec::new();
    loop {
        // Fault events due by the next arrival apply first. Past the last
        // arrival the rest of the timeline (repairs in particular) runs
        // before the final drain, so every crashed replica comes back up
        // and serves out whatever a naive router parked on it.
        let next = arrivals.last().map_or(f64::INFINITY, |a| a.arrival_ns);
        while let Some(e) = events.pop_if(|e| e.at_ns <= next) {
            apply_fleet_event(
                e,
                &fopts.profile,
                &router,
                &mut replicas,
                systems,
                &geometries,
                &mut breakers,
                &mut summary,
                &mut down_since,
                &mut owners,
                horizon_ns,
                rec,
                track,
                sessions_track,
            );
        }
        let Some(a) = arrivals.pop() else { break };
        for (r, sys) in replicas.iter_mut().zip(systems.iter_mut()) {
            r.advance(sys.as_mut(), rec, Some(a.arrival_ns), horizon_ns);
        }
        if let Some(bs) = breakers.as_mut() {
            feed_breakers(
                &replicas,
                bs,
                &mut fed_completions,
                &mut fed_degraded,
                a.arrival_ns,
                rec,
                track,
            );
            if rec.timeseries.is_enabled() {
                for (i, b) in bs.iter().enumerate() {
                    rec.timeseries.gauge(
                        &format!("r{i}.breaker"),
                        a.arrival_ns,
                        breaker_level(b.state()),
                    );
                }
            }
        }
        let loads: Vec<_> = replicas.iter().map(|r| r.sched.load()).collect();
        // Health gate first (a naive baseline sees every replica as
        // closed — it stays blind to downtime and wedges whatever it
        // places on a dead node), then the admission controller's
        // per-class queue caps on top.
        let health: Vec<BreakerState> = match breakers.as_ref() {
            Some(bs) => breaker_health(bs),
            None => vec![BreakerState::Closed; n],
        };
        let gated: Vec<BreakerState> = match fopts.shed_queue_cap {
            Some(cap) => health
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    if replicas[i].sched.queue_depth(a.class) >= class_queue_cap(cap, a.class) {
                        BreakerState::Open
                    } else {
                        s
                    }
                })
                .collect(),
            None => health.clone(),
        };
        let turn = a.turn.as_ref();
        if turn.is_some_and(|t| t.turn == 0) {
            sessions_seen += 1;
        }
        // The owning replica only counts while its cache still holds the
        // prefix (LRU reclaim or a crash wipe orphans the owner map entry).
        let owned: Option<(usize, usize)> = turn.and_then(|t| t.pin_hash).and_then(|h| {
            let o = *owners.get(&h)?;
            Some((o, replicas[o].sched.pages().prefix_lookup(h)?))
        });
        // With no owner or a non-affinity policy this is `route_healthy`,
        // and over all-Closed states that is `route`.
        let routed = router.route_affine(
            a.id,
            a.class,
            &loads,
            &gated,
            owned.map(|(o, _)| o),
            owned.map_or(0, |(_, pages)| pages),
        );
        let Ok(pick) = routed else {
            let reason = if health.iter().all(|&s| s == BreakerState::Open) {
                "no-healthy-replica"
            } else {
                "queue-cap"
            };
            summary.shed.push(ShedRecord {
                id: a.id,
                class: a.class,
                at_ns: a.arrival_ns,
                reason,
            });
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "shed",
                    a.arrival_ns,
                    &[
                        ("id", ArgVal::U(a.id as u64)),
                        ("class", ArgVal::S(a.class.name())),
                        ("reason", ArgVal::S(reason)),
                    ],
                );
            }
            rec.timeseries.rate_add("fleet.shed", a.arrival_ns, 1.0);
            // A shed follow-up never resumed its prefix: it counts cold,
            // so turn conservation holds.
            if turn.is_some_and(|t| t.turn > 0) {
                cold_turns += 1;
            }
            continue;
        };
        placements.push((a.id, pick));
        if rec.is_enabled() {
            rec.instant_with(
                router_track,
                "route.place",
                a.arrival_ns,
                &[
                    ("id", ArgVal::U(a.id as u64)),
                    ("replica", ArgVal::U(pick as u64)),
                    ("class", ArgVal::S(a.class.name())),
                    ("free_hbm", ArgVal::U(loads[pick].free_hbm() as u64)),
                ],
            );
        }
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
                Resume::Local => local_hits += 1,
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
                    pulls.push(p);
                }
                Resume::Cold => cold_turns += usize::from(t.turn > 0),
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
        replicas[pick].inject(systems[pick].as_mut(), rec, req);
        if rec.timeseries.is_enabled() {
            rec.timeseries.rate_add("fleet.admit", a.arrival_ns, 1.0);
            let prefix = replicas[pick].prefix.clone();
            sample_sched_timeseries(rec, &prefix, a.arrival_ns, &replicas[pick].sched);
        }
    }
    for (r, sys) in replicas.iter_mut().zip(systems.iter_mut()) {
        r.advance(sys.as_mut(), rec, None, horizon_ns);
    }

    let (metrics, _, _) = serve_metrics(
        &replicas,
        offered,
        summary.shed.len(),
        fopts.profile.brownout_topk_factor,
        rec,
    );
    let generated: usize = replicas.iter().map(|r| r.generated_tokens).sum();
    let mut reports: Vec<SchedReport> = Vec::with_capacity(n);
    let mut samples: [(LatencySamples, LatencySamples); 3] = Default::default();
    for r in replicas.iter_mut() {
        reports.push(r.sched.finalize());
        for (i, (tok, req)) in r.sched.class_samples().into_iter().enumerate() {
            samples[i].0.append(tok);
            samples[i].1.append(req);
        }
    }
    let mut fleet = FleetReport::assemble_with_faults(
        router_policy,
        reports,
        placements,
        samples,
        active.then_some(summary),
    );
    fleet.slo_burn = metrics.slo_burn.clone();
    if sess.is_active() {
        fleet.attach_sessions(SessionSummary {
            sessions: sessions_seen,
            turns: offered,
            prefix_hits: local_hits,
            cold_turns,
            pulls,
        });
    }
    if rec.is_enabled() {
        rec.counter_add("serving.completed", metrics.completed as u64);
        rec.counter_add("serving.rejected", metrics.rejected as u64);
        rec.counter_add("serving.generated_tokens", generated as u64);
        rec.counter_add("router.placements", fleet.placements.len() as u64);
        rec.gauge_set("serving.throughput_tps", metrics.throughput_tps);
        rec.gauge_set("serving.mean_batch", metrics.mean_batch);
        if let Some(f) = &fleet.faults {
            rec.counter_add("fleet.crashes", f.crashes as u64);
            rec.counter_add("fleet.brownouts", f.brownouts as u64);
            rec.counter_add("fleet.redispatched", f.redispatches.len() as u64);
            rec.counter_add("fleet.shed", f.shed.len() as u64);
        }
        if let Some(s) = &fleet.sessions {
            rec.counter_add("sessions.turns", s.turns as u64);
            rec.counter_add("sessions.prefix_hits", s.prefix_hits as u64);
            rec.counter_add("sessions.pulls", s.pulls.len() as u64);
            rec.counter_add("sessions.pulled_pages", s.pulled_pages() as u64);
            rec.counter_add("sessions.cold_turns", s.cold_turns as u64);
        }
    }
    (metrics, fleet)
}

/// [`simulate_fleet`] without a session workload.
///
/// # Panics
///
/// As [`simulate_fleet`].
pub fn simulate_fleet_faulty(
    systems: &mut [Box<dyn ServingSystem>],
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    router_policy: RouterPolicy,
    fopts: &FleetFaultOptions,
    rec: &mut Recorder,
) -> (ServeMetrics, FleetReport) {
    let sess = SessionOptions::disabled();
    simulate_fleet(
        systems,
        model,
        workload,
        opts,
        router_policy,
        fopts,
        &sess,
        rec,
    )
}

/// [`simulate_fleet`] without fleet fault domains.
///
/// # Panics
///
/// As [`simulate_fleet`].
pub fn simulate_fleet_sessions(
    systems: &mut [Box<dyn ServingSystem>],
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    router_policy: RouterPolicy,
    sess: &SessionOptions,
    rec: &mut Recorder,
) -> (ServeMetrics, FleetReport) {
    let fopts = FleetFaultOptions::disabled();
    simulate_fleet(
        systems,
        model,
        workload,
        opts,
        router_policy,
        &fopts,
        sess,
        rec,
    )
}

/// How a session turn resumed its prefix (see [`simulate_fleet`]).
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

/// Applies one replica fault-timeline event to the fleet.
///
/// `Down` advances the replica to the crash instant, evacuates its entire
/// in-flight set (pages freed — the KV state is gone), and redispatches
/// each evacuee through the router onto a surviving replica, where it
/// queues behind the target geometry's rebuild charge (full prefill when
/// caught mid-prefill, restore-vs-recompute otherwise). When every other
/// replica is also down the evacuee parks on the crashed replica and
/// resumes after repair — redispatch never loses a request. An evacuated
/// session turn takes its pending prefix publication along (the owner map
/// follows it), and a warm one is repriced to its cold prefill: the prefix
/// it pinned or pulled died with the replica. `Up` restores the replica
/// (and moves a held-open breaker to half-open); brownout events toggle
/// the replica's offload-budget factor.
#[allow(clippy::too_many_arguments)]
fn apply_fleet_event(
    e: ReplicaEvent,
    profile: &ReplicaFaultProfile,
    router: &Router,
    replicas: &mut [ReplicaSim],
    systems: &mut [Box<dyn ServingSystem>],
    geometries: &[KvDeviceGeometry],
    breakers: &mut Option<Vec<CircuitBreaker>>,
    summary: &mut FleetFaultSummary,
    down_since: &mut [f64],
    owners: &mut HashMap<u64, usize>,
    horizon_ns: f64,
    rec: &mut Recorder,
    track: TrackId,
    sessions_track: Option<TrackId>,
) {
    let r = e.replica;
    match e.kind {
        ReplicaEventKind::Down => {
            replicas[r].advance(systems[r].as_mut(), rec, Some(e.at_ns), horizon_ns);
            let evac = replicas[r].sched.crash_evacuate();
            replicas[r].down = true;
            down_since[r] = e.at_ns;
            summary.crashes += 1;
            if rec.timeseries.is_enabled() {
                rec.timeseries.gauge(&format!("r{r}.up"), e.at_ns, 0.0);
                let prefix = replicas[r].prefix.clone();
                sample_sched_timeseries(rec, &prefix, e.at_ns, &replicas[r].sched);
            }
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "replica.down",
                    e.at_ns,
                    &[
                        ("replica", ArgVal::U(r as u64)),
                        ("evacuated", ArgVal::U(evac.len() as u64)),
                    ],
                );
            }
            if let Some(s) = breakers.as_mut().and_then(|bs| bs[r].force_open(e.at_ns)) {
                record_breaker(rec, track, r, e.at_ns, s);
            }
            // Survivors advance to the crash instant so every failover
            // decision is taken from one consistent snapshot.
            for i in 0..replicas.len() {
                if i != r && !replicas[i].down {
                    replicas[i].advance(systems[i].as_mut(), rec, Some(e.at_ns), horizon_ns);
                }
            }
            for ev in evac {
                let loads: Vec<_> = replicas.iter().map(|x| x.sched.load()).collect();
                // Redispatch always routes around dead nodes, breaker or
                // not: the crashed stack is gone, not just slow. The
                // naive baseline differs only on *new* arrivals.
                let states: Vec<BreakerState> = match breakers.as_ref() {
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
                let (to, reason) =
                    match router.route_healthy(ev.req.id, ev.req.class, &loads, &states) {
                        Ok(t) => (t, "replica-crash"),
                        Err(_) => (r, "no-healthy-replica"),
                    };
                let mut moved = ev;
                moved.req.restore_ns = geometries[to].restore_ns(moved.req.context);
                moved.req.recompute_ns = geometries[to].recompute_ns(moved.req.context);
                if let Some(pos) = replicas[r].turns.iter().position(|t| t.id == ev.req.id) {
                    let mut turn = replicas[r].turns.swap_remove(pos);
                    if let Some(cold_ns) = turn.cold_prefill_ns.take() {
                        moved.req.prefill_ns = cold_ns;
                        if let Some(st) = sessions_track {
                            rec.instant_with(
                                st,
                                "prefix.lost",
                                e.at_ns,
                                &[
                                    ("id", ArgVal::U(ev.req.id as u64)),
                                    ("from", ArgVal::U(r as u64)),
                                    ("to", ArgVal::U(to as u64)),
                                    ("ctx", ArgVal::U(ev.req.context as u64)),
                                    (
                                        "mid_prefill",
                                        ArgVal::U(u64::from(ev.prefill_left_ns > 0.0)),
                                    ),
                                    ("prefill_ns", ArgVal::F(moved.req.prefill_ns)),
                                ],
                            );
                        }
                    }
                    owners.insert(turn.publish.0, to);
                    replicas[to].turns.push(turn);
                }
                replicas[to].sched.on_redispatch(moved);
                summary.redispatches.push(RedispatchRecord {
                    id: ev.req.id,
                    from: r,
                    to,
                    at_ns: e.at_ns,
                    reason,
                });
                if rec.is_enabled() {
                    rec.instant_with(
                        track,
                        "redispatch",
                        e.at_ns,
                        &[
                            ("id", ArgVal::U(ev.req.id as u64)),
                            ("from", ArgVal::U(r as u64)),
                            ("to", ArgVal::U(to as u64)),
                            ("class", ArgVal::S(ev.req.class.name())),
                        ],
                    );
                }
                rec.timeseries.rate_add("fleet.redispatch", e.at_ns, 1.0);
            }
        }
        ReplicaEventKind::Up => {
            summary.downtime_ns[r] += e.at_ns - down_since[r];
            replicas[r].now = replicas[r].now.max(e.at_ns);
            replicas[r].down = false;
            if rec.timeseries.is_enabled() {
                rec.timeseries.gauge(&format!("r{r}.up"), e.at_ns, 1.0);
            }
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "replica.up",
                    e.at_ns,
                    &[("replica", ArgVal::U(r as u64))],
                );
            }
            if let Some(s) = breakers.as_mut().and_then(|bs| bs[r].on_recovery()) {
                record_breaker(rec, track, r, e.at_ns, s);
            }
        }
        ReplicaEventKind::BrownoutStart => {
            if !replicas[r].down {
                replicas[r].advance(systems[r].as_mut(), rec, Some(e.at_ns), horizon_ns);
                replicas[r].brownout_factor = profile.brownout_topk_factor;
                summary.brownouts += 1;
                if rec.is_enabled() {
                    rec.instant_with(
                        track,
                        "replica.brownout_start",
                        e.at_ns,
                        &[
                            ("replica", ArgVal::U(r as u64)),
                            ("topk_factor", ArgVal::F(profile.brownout_topk_factor)),
                        ],
                    );
                }
            }
        }
        ReplicaEventKind::BrownoutEnd => {
            replicas[r].advance(systems[r].as_mut(), rec, Some(e.at_ns), horizon_ns);
            replicas[r].brownout_factor = 1.0;
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "replica.brownout_end",
                    e.at_ns,
                    &[("replica", ArgVal::U(r as u64))],
                );
            }
        }
    }
}

/// Records replica `r`'s breaker moving to `s` outside the per-arrival
/// feed: its `r{r}.breaker` gauge and a transition instant on the fault
/// track.
fn record_breaker(rec: &mut Recorder, track: TrackId, r: usize, at_ns: f64, s: BreakerState) {
    if rec.timeseries.is_enabled() {
        rec.timeseries
            .gauge(&format!("r{r}.breaker"), at_ns, breaker_level(s));
    }
    if rec.is_enabled() {
        rec.instant_with(
            track,
            breaker_instant_name(s),
            at_ns,
            &[("replica", ArgVal::U(r as u64))],
        );
    }
}

/// Feeds each breaker the completions and degraded tokens its replica
/// produced since the last arrival, then ticks the cooldown — the breaker
/// observes exactly what a real front-end can observe, never the fault
/// schedule itself. Transitions land on the fault track.
fn feed_breakers(
    replicas: &[ReplicaSim],
    breakers: &mut [CircuitBreaker],
    fed_completions: &mut [usize],
    fed_degraded: &mut [u64],
    now_ns: f64,
    rec: &mut Recorder,
    track: TrackId,
) {
    for (i, r) in replicas.iter().enumerate() {
        let mut transitions: Vec<BreakerState> = Vec::new();
        while fed_completions[i] < r.completions.len() {
            let (class, lat) = r.completions[fed_completions[i]];
            fed_completions[i] += 1;
            if let Some(s) = breakers[i].note_completion(class, lat, now_ns) {
                transitions.push(s);
            }
        }
        let total = r.degrade.degraded_tokens as u64;
        if total > fed_degraded[i] {
            let delta = total - fed_degraded[i];
            fed_degraded[i] = total;
            if let Some(s) = breakers[i].note_degraded(delta, now_ns) {
                transitions.push(s);
            }
        }
        if let Some(s) = breakers[i].poll(now_ns) {
            transitions.push(s);
        }
        if rec.is_enabled() {
            for s in transitions {
                rec.instant_with(
                    track,
                    breaker_instant_name(s),
                    now_ns,
                    &[("replica", ArgVal::U(i as u64))],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longsight::{LongSightConfig, LongSightSystem};

    fn run(arrivals_per_s: f64, seed: u64) -> ServeMetrics {
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = WorkloadConfig {
            arrivals_per_s,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed,
        };
        simulate(&mut sys, &model, &wl)
    }

    fn faulted(
        sys: &mut dyn ServingSystem,
        model: &ModelConfig,
        wl: &WorkloadConfig,
        inj: &FaultInjector,
        retry: &RetryPolicy,
    ) -> (ServeMetrics, FaultLog) {
        let mut rec = Recorder::disabled();
        simulate_observed(sys, model, wl, Some((inj, retry)), &mut rec, None)
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(run(2.0, 3), run(2.0, 3));
    }

    #[test]
    fn completes_requests_at_moderate_load() {
        let m = run(2.0, 1);
        assert!(m.completed > 0, "some requests must finish: {m:?}");
        assert!(m.p99_token_ms >= m.p50_token_ms);
        assert!(m.p99_request_ms >= m.p50_request_ms);
        assert!(m.throughput_tps > 0.0);
    }

    #[test]
    fn higher_load_means_bigger_batches_and_latency() {
        let low = run(1.0, 5);
        let high = run(16.0, 5);
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
    fn disabled_injector_matches_fault_free_simulate() {
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed: 3,
        };
        let plain = simulate(&mut sys, &model, &wl);
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
        let plain = simulate(&mut sys, &model, &wl);
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
        let plain = simulate(&mut sys, &model, &wl);
        assert!(m.completed < plain.completed + m.failed_requests + 1);
    }

    #[test]
    fn request_latency_includes_prefill() {
        let m = run(0.5, 9);
        // A 32K-prompt prefill alone is ~0.1+ ms on the roofline; with decode
        // of ≥16 tokens the p50 request latency must exceed several ms.
        assert!(
            m.p50_request_ms > 1.0,
            "suspiciously low request latency: {m:?}"
        );
    }

    #[test]
    fn metrics_json_round_trips_bit_exactly() {
        let m = run(2.0, 3);
        let parsed = ServeMetrics::from_json(&m.to_json()).expect("own JSON must parse");
        assert_eq!(m, parsed);
    }

    #[test]
    fn metrics_json_round_trips_non_finite_as_zero() {
        let mut m = run(2.0, 3);
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

    fn session_fleet(
        replicas: usize,
        reuse: f64,
        cache_pages: usize,
        policy: RouterPolicy,
    ) -> (ServeMetrics, FleetReport) {
        let model = ModelConfig::llama3_1b();
        let mut systems: Vec<Box<dyn ServingSystem>> = (0..replicas)
            .map(|_| {
                Box::new(LongSightSystem::new(
                    LongSightConfig::paper_default(),
                    model.clone(),
                )) as Box<dyn ServingSystem>
            })
            .collect();
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 12.0,
            seed: 11,
        };
        // Think times comfortably above the ~1-2 s service time, so most
        // follow-ups arrive after their prefix has been published.
        let sess = SessionOptions {
            sessions: 6,
            turns: 3,
            think_time_ms: 1500.0,
            reuse,
            prefix_cache_pages: cache_pages,
        };
        simulate_fleet_sessions(
            &mut systems,
            &model,
            &wl,
            &SchedOptions::slo_aware(SloMix::all_interactive()),
            policy,
            &sess,
            &mut Recorder::disabled(),
        )
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
    fn sessions_off_is_byte_identical_to_plain_fleet() {
        let model = ModelConfig::llama3_1b();
        let make = || -> Vec<Box<dyn ServingSystem>> {
            (0..2)
                .map(|_| {
                    Box::new(LongSightSystem::new(
                        LongSightConfig::paper_default(),
                        model.clone(),
                    )) as Box<dyn ServingSystem>
                })
                .collect()
        };
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed: 3,
        };
        let opts = SchedOptions::slo_aware(SloMix::all_interactive());
        let (m1, f1) = simulate_fleet(
            &mut make(),
            &model,
            &wl,
            &opts,
            RouterPolicy::JsqSpillover,
            &FleetFaultOptions::disabled(),
            &SessionOptions::disabled(),
            &mut Recorder::disabled(),
        );
        let (m2, f2) = simulate_fleet_sessions(
            &mut make(),
            &model,
            &wl,
            &opts,
            RouterPolicy::JsqSpillover,
            &SessionOptions::disabled(),
            &mut Recorder::disabled(),
        );
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
        /// Token-fault rate and seed (single replica only).
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
        let sessions = fleet && g.usize_in(0, 3) == 0;
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
            attribution: !fleet && g.bool(),
            token_faults: (!fleet && g.bool())
                .then(|| (10f64.powf(g.f64_in(-3.0, -0.5)), g.u64_in(0, 64))),
            fopts,
            sess,
        }
    }

    /// Every report, log and export of one driver run, as text. `{:?}`
    /// prints each f64 in its shortest round-trip form, so equal text means
    /// equal bits.
    fn run_driver(c: &DriverCase) -> String {
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
        let mut out = if c.replicas == 1 && !c.sess.is_active() {
            let mut sys = LongSightSystem::new(cfg, model.clone());
            let inj = c
                .token_faults
                .map(|(rate, seed)| FaultInjector::new(FaultProfile::scaled(rate), seed));
            let retry = RetryPolicy::serving_default();
            let mut attr = c.attribution.then(TokenAttribution::new);
            let (m, rep, log) = simulate_scheduled(
                &mut sys,
                &model,
                &c.wl,
                &c.opts,
                inj.as_ref().map(|i| (i, &retry)),
                &mut rec,
                attr.as_mut(),
            );
            format!("{m:?}\n{rep:?}\n{log:?}\n{attr:?}\n")
        } else {
            let mut fleet: Vec<Box<dyn ServingSystem>> = (0..c.replicas)
                .map(|_| {
                    Box::new(LongSightSystem::new(cfg.clone(), model.clone()))
                        as Box<dyn ServingSystem>
                })
                .collect();
            let (m, rep) = simulate_fleet(
                &mut fleet, &model, &c.wl, &c.opts, c.router, &c.fopts, &c.sess, &mut rec,
            );
            format!("{m:?}\n{rep:?}\n{}\n", rep.to_text())
        };
        out.push_str(&rec.chrome_trace_json());
        out.push_str(&rec.metrics_json());
        out.push_str(&rec.timeseries.to_tsv());
        out.push_str(&rec.timeseries.to_json());
        out
    }

    fn macro_steps_match_single_steps(g: &mut longsight_tensor::check::Gen) -> Result<(), String> {
        let c = gen_driver_case(g);
        let (macro_out, (calls, steps)) = with_run_cap(usize::MAX, || run_driver(&c));
        let (single_out, (single_calls, single_steps)) = with_run_cap(1, || run_driver(&c));
        longsight_tensor::prop_ensure_eq!(steps, single_steps, "scheduler steps: {c:?}");
        longsight_tensor::prop_ensure!(calls <= single_calls);
        if let Some(at) = macro_out
            .bytes()
            .zip(single_out.bytes())
            .position(|(a, b)| a != b)
            .or_else(|| (macro_out.len() != single_out.len()).then_some(0))
        {
            let lo = at.saturating_sub(80);
            return Err(format!(
                "outputs differ at byte {at} for {c:?}:\n  macro:  {}\n  single: {}",
                &macro_out[lo..(at + 80).min(macro_out.len())],
                &single_out[lo..(at + 80).min(single_out.len())],
            ));
        }
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
        let ((_, rep), (calls, steps)) = with_run_cap(usize::MAX, || {
            let mut fleet: Vec<Box<dyn ServingSystem>> = (0..2)
                .map(|_| {
                    Box::new(LongSightSystem::new(
                        LongSightConfig::paper_default(),
                        model.clone(),
                    )) as Box<dyn ServingSystem>
                })
                .collect();
            simulate_fleet(
                &mut fleet,
                &model,
                &wl,
                &opts,
                RouterPolicy::JsqSpillover,
                &fopts,
                &SessionOptions::disabled(),
                &mut Recorder::disabled(),
            )
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
        let inj = FaultInjector::new(FaultProfile::scaled(0.05), 7);
        let retry = RetryPolicy::serving_default();
        let (_, (calls, steps)) = with_run_cap(usize::MAX, || {
            let mut sys = LongSightSystem::new(
                LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default()),
                model.clone(),
            );
            simulate_scheduled(
                &mut sys,
                &model,
                &wl,
                &SchedOptions::slo_aware(SloMix::mixed()),
                Some((&inj, &retry)),
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
        let retry = RetryPolicy::serving_default();
        let run = || {
            let mut sys = LongSightSystem::new(
                LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default()),
                model.clone(),
            );
            let (m, rep, log) = simulate_scheduled(
                &mut sys,
                &model,
                &wl,
                &SchedOptions::fifo(),
                Some((&inj, &retry)),
                &mut Recorder::disabled(),
                None,
            );
            assert!(m.spec_misses > 0 && m.retried_tokens > 0, "{m:?}");
            format!("{m:?}\n{rep:?}\n{log:?}")
        };
        let (macro_out, (calls, steps)) = with_run_cap(usize::MAX, run);
        let (single_out, single_counts) = with_run_cap(1, run);
        assert_eq!(macro_out, single_out);
        assert_eq!(single_counts, (steps, steps));
        assert_eq!((calls, steps), (187, 1649), "(step calls, scheduler steps)");
    }
}
