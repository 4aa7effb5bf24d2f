//! Continuous-batching scheduler with SLO classes, chunked prefill, and
//! preemption-by-eviction over the paged KV manager.
//!
//! The scheduler owns the admission/queueing/preemption state machine; the
//! serving loop owns simulated time and step costs. Feasibility questions
//! flow through a callback (`feasible(users, max_ctx)`) so the scheduler
//! stays free of any latency model, and decisions come back as
//! [`SchedEvent`]s for the caller to translate into trace instants.
//!
//! One record, [`Member`], carries a request through the machine: it
//! moves from the wait queue into the running batch, back to the queue
//! when evicted, and out of a crashed replica
//! ([`Scheduler::crash_evacuate`]) into another replica's queue
//! ([`Scheduler::on_redispatch`]). Each move sets only the fields it
//! changes. One step plan serves both policies: a member whose prefill is
//! done decodes, and the first `prefill_slots` members still prefilling
//! advance one chunk each.
//!
//! The policies differ in admission only:
//!
//! * [`SchedPolicy::Fifo`] reproduces the legacy serving loop op-for-op:
//!   arrival-order admission by step feasibility, no preemption, and no
//!   chunked prefill — a member joins the batch decoding, with its prefill
//!   folded into its own latency when it is admitted on arrival. Pages are
//!   tracked but never refuse — admission is the feasibility check.
//! * [`SchedPolicy::SloAware`] admits by the page ledger first (strict
//!   priority with head-of-line order per class), interleaves chunked
//!   prefill with decode steps, and evicts best-effort requests to
//!   DReX-resident state when a higher class cannot get HBM pages, charging
//!   the deterministic restore-or-recompute cost on resume.

use crate::clock::{ms, ns};
use crate::pages::{PageConfig, PageStats, PagedKvManager};
use crate::request::{SchedRequest, SloClass};
use crate::samples::{LatencySamples, SortedSamples};

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Legacy arrival-order admission (bit-identical to the pre-scheduler
    /// serving loop).
    Fifo,
    /// SLO-class priority admission with paged-memory admission control,
    /// chunked prefill, and best-effort preemption.
    SloAware,
}

impl SchedPolicy {
    /// Parses a CLI policy name (`fifo` or `slo-aware`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fifo" => Ok(SchedPolicy::Fifo),
            "slo-aware" | "slo_aware" | "sloaware" => Ok(SchedPolicy::SloAware),
            other => Err(format!(
                "invalid scheduler policy '{other}' (use fifo or slo-aware)"
            )),
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::SloAware => "slo-aware",
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Policy.
    pub policy: SchedPolicy,
    /// Page-tier capacities. The ledger refuses allocations under the
    /// SLO-aware policy and only tracks them under FIFO.
    pub pages: PageConfig,
    /// Tokens kept HBM-resident per request; larger contexts spill their
    /// tail to DReX pages. `usize::MAX` keeps everything HBM-resident.
    pub window_tokens: usize,
    /// Prefill chunk size in prompt tokens (SLO-aware): each scheduled
    /// chunk contributes `⌈prefill_ps × chunk/context⌉` of work to one step.
    pub prefill_chunk_tokens: usize,
    /// Concurrent requests advancing prefill per step. Must be ≥ 1: a
    /// zero-slot scheduler could never finish a prefill, so callers (the
    /// CLI rejects `--prefill-slots 0` up front) must validate before
    /// constructing the config.
    pub prefill_slots: usize,
}

impl SchedConfig {
    /// FIFO over an untracked (non-enforcing) page ledger — the legacy
    /// serving semantics.
    pub fn fifo(pages: PageConfig, window_tokens: usize) -> Self {
        Self {
            policy: SchedPolicy::Fifo,
            pages,
            window_tokens,
            prefill_chunk_tokens: 8192,
            prefill_slots: 1,
        }
    }

    /// SLO-aware over an enforcing page ledger.
    pub fn slo_aware(pages: PageConfig, window_tokens: usize, prefill_chunk_tokens: usize) -> Self {
        Self {
            policy: SchedPolicy::SloAware,
            pages,
            window_tokens,
            prefill_chunk_tokens: prefill_chunk_tokens.max(1),
            prefill_slots: 1,
        }
    }

    fn hbm_pages_for(&self, context: usize) -> usize {
        self.pages.pages_for(context.min(self.window_tokens))
    }

    fn drex_pages_for(&self, context: usize) -> usize {
        self.pages
            .pages_for(context.saturating_sub(self.window_tokens))
    }

    /// A request's chunk, ps: its prefill's share of `prefill_chunk_tokens`
    /// of its context, rounded up, so a ps residue never adds a chunk.
    fn chunk_ps_for(&self, req: &SchedRequest) -> u64 {
        if self.prefill_chunk_tokens >= req.context || req.context == 0 {
            req.prefill_ps
        } else {
            let share = u128::from(req.prefill_ps) * self.prefill_chunk_tokens as u128;
            share.div_ceil(req.context as u128) as u64
        }
    }
}

/// The chunk a prefilling member advances by in a step that starts with
/// `left` ps of its prefill outstanding. A member whose chunk size is zero
/// (a zero-prefill request that still owes resume cost) drains it in one
/// chunk rather than stalling.
#[inline]
fn planned_chunk(chunk_ps: u64, left: u64) -> u64 {
    let budget = if chunk_ps > 0 { chunk_ps } else { left };
    budget.min(left)
}

/// How many steps repeat a `chunk` planned with `left` ps outstanding:
/// its full chunks, `left / chunk`, at least the one planned. What they
/// leave is nothing (the member decodes) or a smaller last chunk, and
/// either changes the plan.
#[inline]
fn chunk_run(chunk: u64, left: u64) -> usize {
    usize::try_from(left / chunk.max(1))
        .unwrap_or(usize::MAX)
        .max(1)
}

/// One request with its progress: waiting, in the running batch, or
/// evacuated from a crashed replica for the router to place again.
#[derive(Debug, Clone, Copy)]
pub struct Member {
    /// The request (original arrival time included, so a crash's latency
    /// cost lands in the request's own tail).
    pub req: SchedRequest,
    /// Output tokens left to decode.
    pub remaining: usize,
    /// Tokens decoded so far (the fault-stream token index).
    pub generated: usize,
    /// Prefill (or resume) work left before this request decodes, ps; 0
    /// once it has reached decode.
    pub prefill_left_ps: u64,
    /// Whether this member decodes in the step planned by
    /// [`Scheduler::plan_step`] (read in the batch only).
    pub in_decode: bool,
    /// Whether degradation already released the DReX tail.
    pub window_only: bool,
    /// Evicted: holds its DReX tail but no HBM window until it resumes.
    preempted: bool,
    /// Prefill chunk, ps, set at SLO-aware admission.
    chunk_ps: u64,
}

impl Member {
    /// A request as it arrives: nothing decoded, its whole prefill ahead.
    pub fn new(req: SchedRequest) -> Self {
        Self {
            req,
            remaining: req.output.max(1),
            generated: 0,
            prefill_left_ps: req.prefill_ps,
            in_decode: false,
            window_only: false,
            preempted: false,
            chunk_ps: 0,
        }
    }
}

/// A scheduling decision, for the caller to emit as a `sched.*` instant.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// A request joined the running batch.
    Admitted {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
    },
    /// A request entered the wait queue.
    Queued {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
    },
    /// A request can never be served and was rejected at arrival.
    Rejected {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
    },
    /// A best-effort request was evicted to DReX-resident state.
    Preempted {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
        /// HBM window pages released by the eviction.
        hbm_pages: usize,
    },
    /// A preempted request rejoined the batch.
    Resumed {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
        /// Resume cost charged before it decodes again, ps.
        cost_ps: u64,
        /// `true` when the window restores from DReX, `false` when it
        /// recomputes on the GPU.
        restored: bool,
    },
    /// A degraded request released its DReX tail pages.
    Degraded {
        /// Request ID.
        id: usize,
        /// DReX pages released.
        drex_pages: usize,
    },
    /// A request finished decoding.
    Completed {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
        /// End-to-end latency, ms.
        latency_ms: f64,
    },
    /// A request died under an injected hard fault.
    Failed {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
    },
}

/// What the next synchronized step looks like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepPlan {
    /// All batch members (decoding + prefilling).
    pub users: usize,
    /// Members decoding this step.
    pub decode_users: usize,
    /// Largest context among decoding members (0 when none decode).
    pub max_decode_ctx: usize,
    /// Total chunked-prefill work sharing this step, ps.
    pub prefill_ps: u64,
    /// Members advancing prefill this step.
    pub prefill_users: usize,
}

/// A request that completed in the step just advanced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Request ID.
    pub id: usize,
    /// SLO class.
    pub class: SloClass,
    /// End-to-end latency (arrival to last token), ms.
    pub latency_ms: f64,
}

#[derive(Debug, Clone, Default)]
struct ClassAccum {
    arrived: usize,
    completed: usize,
    rejected: usize,
    failed: usize,
    preempted: usize,
    tokens: usize,
    token_lat_ms: LatencySamples,
    request_lat_ms: LatencySamples,
}

/// Per-class `(token, request)` latency views, indexed by
/// [`SloClass::index`].
pub type ClassViews = [(SortedSamples, SortedSamples); 3];

/// Per-class outcome summary.
///
/// Percentiles use the **ceil nearest-rank** convention:
/// `sorted[ceil(len × p) - 1]`, the smallest sample with at least `p` of
/// the population at or below it ([`SortedSamples::percentile_ceil`]). In
/// particular, p99 over fewer than 100 samples is the maximum, and p50 of
/// an even-sized population is the lower median.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassReport {
    /// Requests that arrived in this class.
    pub arrived: usize,
    /// Requests fully served.
    pub completed: usize,
    /// Requests rejected at arrival.
    pub rejected: usize,
    /// Requests killed by hard faults.
    pub failed: usize,
    /// Eviction count (a request may be evicted more than once).
    pub preempted: usize,
    /// Tokens decoded.
    pub tokens: usize,
    /// Median per-token latency, ms.
    pub p50_token_ms: f64,
    /// 99th-percentile per-token latency, ms.
    pub p99_token_ms: f64,
    /// Median end-to-end request latency, ms.
    pub p50_request_ms: f64,
    /// 99th-percentile request latency, ms.
    pub p99_request_ms: f64,
}

/// End-of-run scheduler report: per-class latency percentiles, preemption
/// counters, and the page-ledger audit.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedReport {
    /// Policy that produced this report.
    pub policy: SchedPolicy,
    /// Per-class outcomes, indexed by [`SloClass::index`].
    pub per_class: [ClassReport; 3],
    /// Total evictions.
    pub preemptions: usize,
    /// Total resumes of evicted requests.
    pub resumes: usize,
    /// Total resume cost charged, ns.
    pub restore_charged_ns: f64,
    /// Prefill chunks executed.
    pub prefill_chunks: usize,
    /// Total prefill and resume work this replica executed, ns. Chunked
    /// prefill accumulates per executed chunk; FIFO counts the folded
    /// prefill at immediate admission. The `session_reuse` golden asserts
    /// this falls as prefix reuse rises.
    pub prefill_work_ns: f64,
    /// Final page-ledger usage and peaks.
    pub pages: PageStats,
    /// Pages still held by requests no longer active or queued (must be 0).
    pub leaked_pages: usize,
    /// First violated page invariant, if any (must be `None`).
    pub invariant_violation: Option<String>,
}

impl SchedReport {
    /// The per-class table as printed by `longsight loadtest --sched`.
    pub fn to_text(&self) -> String {
        let mut out = format!("scheduler report ({} policy)\n", self.policy.name());
        out.push_str(
            "  class        arrived done rej fail evict  tok p50/p99 ms      req p50/p99 ms\n",
        );
        for class in SloClass::ALL {
            let c = &self.per_class[class.index()];
            if c.arrived == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<12} {:>7} {:>4} {:>3} {:>4} {:>5}  {:>7.2}/{:<8.2} {:>8.1}/{:<8.1}\n",
                class.name(),
                c.arrived,
                c.completed,
                c.rejected,
                c.failed,
                c.preempted,
                c.p50_token_ms,
                c.p99_token_ms,
                c.p50_request_ms,
                c.p99_request_ms,
            ));
        }
        out.push_str(&format!(
            "  pages: hbm peak {}/{} | drex peak {}/{} | preemptions {} (resumes {}, restore {:.2} ms) | prefill chunks {} | leaked {}\n",
            self.pages.peak_hbm,
            self.pages.hbm_limit,
            self.pages.peak_drex,
            self.pages.drex_capacity,
            self.preemptions,
            self.resumes,
            self.restore_charged_ns / 1e6,
            self.prefill_chunks,
            self.leaked_pages,
        ));
        if self.pages.prefix_capacity > 0 {
            let pins = self.pages.prefix_hits + self.pages.prefix_misses;
            out.push_str(&format!(
                "  prefix cache: {}/{} pages | pinned {} | hits {}/{} | reclaims {}\n",
                self.pages.prefix_pages,
                self.pages.prefix_capacity,
                self.pages.prefix_pinned,
                self.pages.prefix_hits,
                pins,
                self.pages.prefix_reclaims,
            ));
        }
        out
    }
}

/// The continuous-batching scheduler state machine.
#[derive(Debug, Clone)]
pub struct Scheduler {
    cfg: SchedConfig,
    pages: PagedKvManager,
    active: Vec<Member>,
    waiting: Vec<Member>,
    /// The planned chunks as `(batch slot, ps)`, in plan order.
    chunks: Vec<(usize, u64)>,
    events: Vec<SchedEvent>,
    record_events: bool,
    /// Whether the last [`Scheduler::drain_queue`] pass reached a fixpoint
    /// and no admission input has changed since, so draining again would
    /// neither admit nor evict anything (see [`Scheduler::steady_run`]).
    drained: bool,
    rejected: usize,
    preemptions: usize,
    resumes: usize,
    restore_charged_ps: u64,
    prefill_chunks: usize,
    prefill_work_ps: u64,
    class: [ClassAccum; 3],
}

impl Scheduler {
    /// Creates a scheduler over `cfg`.
    pub fn new(cfg: SchedConfig) -> Self {
        debug_assert!(
            cfg.prefill_slots >= 1,
            "prefill_slots = 0 can never finish a prefill; validate before construction"
        );
        let pages = PagedKvManager::new(cfg.pages, cfg.policy == SchedPolicy::SloAware);
        Self {
            cfg,
            pages,
            active: Vec::new(),
            waiting: Vec::new(),
            chunks: Vec::new(),
            events: Vec::new(),
            record_events: false,
            drained: true,
            rejected: 0,
            preemptions: 0,
            resumes: 0,
            restore_charged_ps: 0,
            prefill_chunks: 0,
            prefill_work_ps: 0,
            class: Default::default(),
        }
    }

    /// Enables decision-event collection (for trace emission). Events never
    /// influence scheduling, so this cannot perturb the simulated timeline.
    pub fn set_event_recording(&mut self, on: bool) {
        self.record_events = on;
    }

    fn emit(&mut self, ev: SchedEvent) {
        if self.record_events {
            self.events.push(ev);
        }
    }

    /// Drains the decision events accumulated since the last call.
    pub fn take_events(&mut self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.events)
    }

    /// The running batch, in admission order.
    #[inline]
    pub fn active(&self) -> &[Member] {
        &self.active
    }

    /// Whether the running batch is empty.
    #[inline]
    pub fn active_is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Members decoding in the currently planned step (after any deaths).
    #[inline]
    pub fn decoding_count(&self) -> usize {
        self.active.iter().filter(|a| a.in_decode).count()
    }

    /// Requests waiting for admission.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Waiting requests of one class — the admission controller's
    /// queue-depth signal.
    pub fn queue_depth(&self, class: SloClass) -> usize {
        self.waiting.iter().filter(|w| w.req.class == class).count()
    }

    /// Waiting requests of every class in one pass, indexed by
    /// [`SloClass::index`] — the telemetry sampler's per-step snapshot.
    pub fn queue_depths(&self) -> [usize; 3] {
        let mut depths = [0usize; 3];
        for w in &self.waiting {
            depths[w.req.class.index()] += 1;
        }
        depths
    }

    /// A replica crash: every page is lost and every in-flight request —
    /// active or queued — is evacuated for redispatch through the router.
    /// Returns the evacuees sorted by arrival id (the canonical redispatch
    /// order). Arrival/outcome counters stay: the requests did arrive here;
    /// where they end up is the fleet's bookkeeping.
    pub fn crash_evacuate(&mut self) -> Vec<Member> {
        self.chunks.clear();
        self.drained = false;
        let mut out = std::mem::take(&mut self.active);
        out.append(&mut self.waiting);
        // Prefix discipline under a crash: each evacuee drops its *pin*
        // (refcount decrement), never the shared frames — a prefix pinned by
        // several sessions must survive any one of them evacuating. Only
        // after every pin is dropped does the wipe reclaim the cache
        // wholesale (the pooled-tier content died with the replica). The
        // evacuees' prefix handles are cleared so the redispatch target
        // never unpins a pin it does not hold.
        for m in &mut out {
            self.pages.free_all(m.req.id);
            if let Some(h) = m.req.prefix_hash.take() {
                self.pages.prefix_unpin(h);
            }
            m.req.pull_ps = u64::MAX;
        }
        self.pages.prefix_crash_clear();
        out.sort_by_key(|m| m.req.id);
        out
    }

    /// Accepts a request evacuated from a crashed replica. The KV state
    /// died with the donor, so the request queues behind a deterministic
    /// rebuild charge: requests caught mid-prefill redo the full prefill,
    /// requests that had reached decode pay the restore-vs-recompute
    /// resume cost from the device geometry.
    pub fn on_redispatch(&mut self, mut m: Member) {
        self.drained = false;
        self.class[m.req.class.index()].arrived += 1;
        m.prefill_left_ps = if m.prefill_left_ps > 0 {
            m.req.prefill_ps
        } else {
            m.req.resume_cost_ps()
        };
        m.remaining = m.remaining.max(1);
        m.preempted = false;
        m.window_only = false;
        self.waiting.push(m);
        self.emit(SchedEvent::Queued {
            id: m.req.id,
            class: m.req.class,
        });
    }

    /// Requests rejected at arrival.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// The page ledger (for invariant checks in tests).
    pub fn pages(&self) -> &PagedKvManager {
        &self.pages
    }

    /// Mutable page ledger — the fleet driver's handle for arming the
    /// prefix cache and pinning/publishing prefixes at injection time. The
    /// scheduler itself only ever *releases* pins (completion, failure,
    /// crash); taking them is a placement decision that lives upstream.
    pub fn pages_mut(&mut self) -> &mut PagedKvManager {
        self.drained = false;
        &mut self.pages
    }

    /// A point-in-time load snapshot for fleet routing: batch and queue
    /// depth plus page usage against the two tier limits.
    pub fn load(&self) -> crate::router::SchedLoad {
        crate::router::SchedLoad {
            active: self.active.len(),
            waiting: self.waiting.len(),
            hbm_used: self.pages.hbm_used(),
            hbm_limit: self.cfg.pages.hbm_limit_pages(),
            drex_used: self.pages.drex_used(),
            drex_capacity: self.cfg.pages.drex_capacity_pages,
        }
    }

    /// Per-class `(token, request)` latency samples accumulated so far.
    /// Roll-ups take their sorted views from [`Scheduler::finalize_views`]
    /// instead and merge those across replicas.
    pub fn class_samples(&self) -> [(&LatencySamples, &LatencySamples); 3] {
        [0, 1, 2].map(|i| (&self.class[i].token_lat_ms, &self.class[i].request_lat_ms))
    }

    /// Whether the batch grown by one member of context `ctx` evaluates:
    /// the feasibility probe at the largest member context.
    fn grown_fits(&self, ctx: usize, feasible: &mut dyn FnMut(usize, usize) -> bool) -> bool {
        let max_ctx = self
            .active
            .iter()
            .map(|r| r.req.context)
            .fold(ctx, usize::max);
        feasible(self.active.len() + 1, max_ctx)
    }

    /// FIFO admission: `m` joins the batch decoding (FIFO chunks no
    /// prefill), with its pages tracked.
    fn admit_decoding(&mut self, mut m: Member) {
        let ctx = m.req.context;
        let (hbm, drex) = (self.cfg.hbm_pages_for(ctx), self.cfg.drex_pages_for(ctx));
        // The FIFO ledger is non-enforcing, so this cannot refuse; if a
        // caller misconfigures an enforcing FIFO ledger, the member is simply
        // not tracked (pages never gate FIFO decisions).
        let _ = self.pages.try_alloc(m.req.id, hbm, drex);
        m.prefill_left_ps = 0;
        m.in_decode = true;
        self.active.push(m);
        self.emit(SchedEvent::Admitted {
            id: m.req.id,
            class: m.req.class,
        });
    }

    /// Offers an arriving request. `feasible(users, max_ctx)` must answer
    /// whether the system can evaluate a step of that shape.
    ///
    /// FIFO reproduces the legacy loop exactly: join the batch when the
    /// grown batch evaluates at the largest member context (prefill folds
    /// into the request's own latency), reject when even a lone step can
    /// never evaluate, queue otherwise. SLO-aware also rejects requests
    /// whose pages exceed a tier's capacity, and queues everything else;
    /// admission happens in [`Scheduler::drain_queue`].
    pub fn on_arrival(
        &mut self,
        req: SchedRequest,
        feasible: &mut dyn FnMut(usize, usize) -> bool,
    ) {
        self.drained = false;
        self.class[req.class.index()].arrived += 1;
        let mut m = Member::new(req);
        let fifo = self.cfg.policy == SchedPolicy::Fifo;
        if fifo && self.grown_fits(req.context, feasible) {
            // Fold the prefill into the latency (see `arrival_ps`).
            m.req.arrival_ps = req.arrival_ps.wrapping_sub(req.prefill_ps);
            self.prefill_work_ps += req.prefill_ps;
            self.admit_decoding(m);
            return;
        }
        let limits = self.pages.config();
        let never_fits = !fifo
            && (self.cfg.hbm_pages_for(req.context) > limits.hbm_limit_pages()
                || self.cfg.drex_pages_for(req.context) > limits.drex_capacity_pages);
        if never_fits || !feasible(1, req.context) {
            self.rejected += 1;
            self.class[req.class.index()].rejected += 1;
            self.emit(SchedEvent::Rejected {
                id: req.id,
                class: req.class,
            });
        } else {
            self.waiting.push(m);
            self.emit(SchedEvent::Queued {
                id: req.id,
                class: req.class,
            });
        }
    }

    /// Admits waiting requests while capacity allows.
    ///
    /// FIFO scans the queue in arrival order and admits every request whose
    /// grown batch evaluates (the legacy `retain`). SLO-aware repeatedly
    /// picks the highest-priority head (class, then arrival order), admits
    /// it by the page ledger — evicting best-effort requests if a higher
    /// class needs HBM pages — and stops at the first head it cannot place
    /// (strict head-of-line, so a lower class can never slip past a blocked
    /// higher class).
    ///
    /// An SLO-aware pass always ends at a fixpoint: it stops at a head that
    /// failed against the final state, and a retry evicts nothing more and
    /// repeats the same probe. A FIFO pass does only when it admitted
    /// nothing or emptied the queue; otherwise a request it refused before
    /// a later admission has not been probed against the grown batch.
    pub fn drain_queue(&mut self, feasible: &mut dyn FnMut(usize, usize) -> bool) {
        match self.cfg.policy {
            SchedPolicy::Fifo => {
                let before = self.active.len();
                let mut queue = std::mem::take(&mut self.waiting);
                queue.retain(|&m| {
                    // Legacy semantics: queue-admitted requests join decode
                    // directly (their prefill was not folded).
                    let admit = self.grown_fits(m.req.context, feasible);
                    if admit {
                        self.admit_decoding(m);
                    }
                    !admit
                });
                self.waiting = queue;
                self.drained = self.active.len() == before || self.waiting.is_empty();
            }
            SchedPolicy::SloAware => {
                while let Some(pick) = (0..self.waiting.len())
                    .min_by_key(|&i| (self.waiting[i].req.class.index(), self.waiting[i].req.id))
                {
                    if !self.try_admit(pick, feasible) {
                        break;
                    }
                }
                self.drained = true;
            }
        }
    }

    /// Attempts to place `self.waiting[pick]` (SLO-aware). Returns whether
    /// it was admitted (and removed from the queue).
    fn try_admit(&mut self, pick: usize, feasible: &mut dyn FnMut(usize, usize) -> bool) -> bool {
        let req = self.waiting[pick].req;
        let need_hbm = self.cfg.hbm_pages_for(req.context);
        // Memory decision first: evict best-effort members if a higher
        // class cannot get its window pages under the watermark.
        while !self.pages.hbm_fits(need_hbm) && req.class != SloClass::BestEffort {
            let Some(victim) = self
                .active
                .iter()
                .rposition(|a| a.req.class == SloClass::BestEffort)
            else {
                break;
            };
            self.evict(victim);
        }
        if !self.pages.hbm_fits(need_hbm) {
            return false;
        }
        if !self.waiting[pick].preempted
            && !self.pages.drex_fits(self.cfg.drex_pages_for(req.context))
        {
            return false;
        }
        // Feasibility belt: never admit a batch the step model cannot
        // evaluate (e.g. the DCC queue depth).
        if !self.grown_fits(req.context, feasible) {
            return false;
        }

        // Allocate before dequeuing so a refused ledger (already checked
        // above, so only reachable through ledger drift) degrades to "stays
        // queued" instead of a panic.
        if self.waiting[pick].preempted {
            if self.pages.regain_hbm(req.id, need_hbm).is_err() {
                return false;
            }
        } else if self
            .pages
            .try_alloc(req.id, need_hbm, self.cfg.drex_pages_for(req.context))
            .is_err()
        {
            return false;
        }

        let mut m = self.waiting.remove(pick);
        m.in_decode = false;
        m.chunk_ps = self.cfg.chunk_ps_for(&req);
        let ev = if m.preempted {
            let cost = req.resume_cost_ps();
            self.resumes += 1;
            self.restore_charged_ps += cost;
            m.prefill_left_ps += cost;
            m.preempted = false;
            SchedEvent::Resumed {
                id: req.id,
                class: req.class,
                cost_ps: cost,
                restored: req.resume_restores(),
            }
        } else {
            SchedEvent::Admitted {
                id: req.id,
                class: req.class,
            }
        };
        self.active.push(m);
        self.emit(ev);
        true
    }

    /// Evicts `self.active[pos]` to DReX-resident state.
    fn evict(&mut self, pos: usize) {
        let mut m = self.active.remove(pos);
        let freed = self.pages.release_hbm(m.req.id);
        self.preemptions += 1;
        self.class[m.req.class.index()].preempted += 1;
        m.preempted = true;
        self.waiting.push(m);
        self.emit(SchedEvent::Preempted {
            id: m.req.id,
            class: m.req.class,
            hbm_pages: freed,
        });
    }

    /// Plans the next synchronized step: members whose prefill is done
    /// decode, and the first `prefill_slots` members still prefilling
    /// advance one chunk each, sharing the step. A FIFO member is admitted
    /// decoding, so a FIFO plan has no chunks.
    pub fn plan_step(&mut self) -> StepPlan {
        self.chunks.clear();
        let (mut decode_users, mut max_ctx) = (0usize, 0usize);
        let mut slots = self.cfg.prefill_slots;
        let mut prefill_ps = 0u64;
        for (i, a) in self.active.iter_mut().enumerate() {
            a.in_decode = a.prefill_left_ps == 0;
            if a.in_decode {
                decode_users += 1;
                max_ctx = max_ctx.max(a.req.context);
            } else if slots > 0 {
                let chunk = planned_chunk(a.chunk_ps, a.prefill_left_ps);
                self.chunks.push((i, chunk));
                prefill_ps = prefill_ps.saturating_add(chunk);
                slots -= 1;
            }
        }
        StepPlan {
            users: self.active.len(),
            decode_users,
            max_decode_ctx: max_ctx,
            prefill_ps,
            prefill_users: self.chunks.len(),
        }
    }

    /// Removes hard-failed requests from the batch, freeing their pages.
    /// The planned chunks keep pointing at their members' batch slots.
    pub fn remove_failed(&mut self, dead: &[usize]) {
        if dead.is_empty() {
            return;
        }
        self.drained = false;
        let mut i = 0;
        while i < self.active.len() {
            if dead.contains(&self.active[i].req.id) {
                let a = self.active.remove(i);
                self.chunks.retain(|c| c.0 != i);
                for c in &mut self.chunks {
                    c.0 -= usize::from(c.0 > i);
                }
                self.pages.free_all(a.req.id);
                if let Some(h) = a.req.prefix_hash {
                    self.pages.prefix_unpin(h);
                }
                self.class[a.req.class.index()].failed += 1;
                self.emit(SchedEvent::Failed {
                    id: a.req.id,
                    class: a.req.class,
                });
            } else {
                i += 1;
            }
        }
    }

    /// A degraded request abandons its long-range tail: release its DReX
    /// pages (idempotent per request).
    pub fn on_degraded(&mut self, id: usize) {
        let Some(i) = self.active.iter().position(|a| a.req.id == id) else {
            return;
        };
        if self.active[i].window_only {
            return;
        }
        self.active[i].window_only = true;
        self.drained = false;
        let freed = self.pages.release_drex(id);
        self.emit(SchedEvent::Degraded {
            id,
            drex_pages: freed,
        });
    }

    /// How many steps, counting the one [`Scheduler::plan_step`] just
    /// planned, repeat that plan exactly: at least 1, at most `limit`.
    ///
    /// Contexts are frozen at admission, so a step changes the batch only
    /// when a member completes or finishes its prefill, and a plan changes
    /// only then or when a chunk `min(budget, left)` shrinks. The run ends
    /// at the first decoding member's last token (its `remaining`) or at a
    /// planned chunk's last full chunk (`left / chunk`), whichever comes
    /// first: both are exact on the integer clock. Page ledgers change
    /// only at admit, evict, resume, degrade, complete and fail, so they
    /// bound nothing here.
    ///
    /// The queue is part of the plan too: the caller drains it before every
    /// step, and a drain between two steps of a run must be a no-op. It
    /// reads only the page ledger, the active contexts and the waiting
    /// set, which a step that completes nothing leaves alone, and it
    /// repeats probes the step-cost cache already answered — provided the
    /// previous pass ended at a fixpoint (see [`Scheduler::drain_queue`]).
    /// When it did not, or an arrival, redispatch, failure, degradation or
    /// page-ledger edit came after it, the run is one step.
    #[inline]
    pub fn steady_run(&self, limit: usize) -> usize {
        if !self.drained {
            return 1;
        }
        let decoders = self.active.iter().filter(|a| a.in_decode);
        let chunks = self
            .chunks
            .iter()
            .map(|&(slot, chunk)| chunk_run(chunk, self.active[slot].prefill_left_ps));
        decoders
            .map(|a| a.remaining)
            .chain(chunks)
            .fold(limit, usize::min)
            .max(1)
    }

    /// Applies `n` repeats of the planned step, each of duration `dt_ps`,
    /// the last ending at simulated time `now_ps`: every planned chunk
    /// advances by `n` chunks (`left −= n·chunk`), decoding members emit
    /// `n` tokens each, and finished requests retire (freeing their pages).
    /// Returns completions in batch order. `n` must not exceed
    /// [`Scheduler::steady_run`], so nothing completes or finishes prefill
    /// before the last step, and `n` one-step advances, each after its own
    /// plan, leave the same state.
    pub fn advance_step(&mut self, dt_ps: u64, n: usize, now_ps: u64) -> Vec<Completion> {
        for &(slot, chunk) in &self.chunks {
            let work = chunk * n as u64;
            self.active[slot].prefill_left_ps -= work;
            self.prefill_chunks += n;
            self.prefill_work_ps += work;
        }
        self.chunks.clear();
        // Per-class token latencies, capped at 64 per step like the global
        // serving histogram: the first 64 decoding members in batch order
        // count, then each class records its share of the `n` steps as one
        // run (the ledger merges equal bits, so this is `n` pushes).
        let mut counted = [0usize; 3];
        let mut total = 0usize;
        for i in 0..self.active.len() {
            if !self.active[i].in_decode {
                continue;
            }
            let cls = self.active[i].req.class.index();
            if total < 64 {
                counted[cls] += 1;
                total += 1;
            }
            self.class[cls].tokens += n;
            self.active[i].remaining -= n;
            self.active[i].generated += n;
        }
        for (acc, c) in self.class.iter_mut().zip(counted) {
            acc.token_lat_ms.push_n(ms(dt_ps), c * n);
        }
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].remaining == 0 {
                let a = self.active.remove(i);
                self.drained = false;
                let latency_ms = ms(now_ps.wrapping_sub(a.req.arrival_ps));
                self.pages.free_all(a.req.id);
                if let Some(h) = a.req.prefix_hash {
                    self.pages.prefix_unpin(h);
                }
                let cls = a.req.class.index();
                self.class[cls].completed += 1;
                self.class[cls].request_lat_ms.push(latency_ms);
                self.emit(SchedEvent::Completed {
                    id: a.req.id,
                    class: a.req.class,
                    latency_ms,
                });
                done.push(Completion {
                    id: a.req.id,
                    class: a.req.class,
                    latency_ms,
                });
            } else {
                i += 1;
            }
        }
        done
    }

    /// Builds the end-of-run report, auditing the page ledger: every page
    /// still held must belong to a request that is still active or waiting.
    pub fn finalize(&mut self) -> SchedReport {
        self.finalize_views().0
    }

    /// [`Scheduler::finalize`], plus each class's `(token, request)`
    /// latency view, indexed by [`SloClass::index`]. Each ledger is sorted
    /// once, here; fleet and all-class roll-ups merge these views
    /// ([`SortedSamples::merge`]) and recompute percentiles over the union,
    /// since averaging per-replica percentiles would be wrong.
    pub fn finalize_views(&mut self) -> (SchedReport, ClassViews) {
        let mut leaked = 0usize;
        let members = || self.active.iter().chain(&self.waiting);
        for id in self.pages.holder_ids() {
            let live = members().any(|m| m.req.id == id);
            if !live {
                let (h, d) = self.pages.pages_of(id).unwrap_or((0, 0));
                leaked += h + d;
            }
        }
        let mut invariant_violation = self.pages.check_invariants().err();
        // Refcount ≡ live sessions: every outstanding prefix pin must be
        // held by a request that is still active or waiting, one pin each.
        if invariant_violation.is_none() && self.pages.prefix_capacity() > 0 {
            let live_pins = members().filter(|m| m.req.prefix_hash.is_some()).count();
            let refs = self.pages.prefix_pinned_refs();
            if refs != live_pins {
                invariant_violation = Some(format!(
                    "prefix pin drift: {refs} refs held vs {live_pins} live pinned requests"
                ));
            }
        }
        let views = self
            .class
            .each_ref()
            .map(|acc| (acc.token_lat_ms.sorted(), acc.request_lat_ms.sorted()));
        let mut per_class: [ClassReport; 3] = Default::default();
        for ((out, acc), (tok, req)) in per_class.iter_mut().zip(&self.class).zip(&views) {
            *out = ClassReport {
                arrived: acc.arrived,
                completed: acc.completed,
                rejected: acc.rejected,
                failed: acc.failed,
                preempted: acc.preempted,
                tokens: acc.tokens,
                p50_token_ms: tok.percentile_ceil(0.5),
                p99_token_ms: tok.percentile_ceil(0.99),
                p50_request_ms: req.percentile_ceil(0.5),
                p99_request_ms: req.percentile_ceil(0.99),
            };
        }
        let report = SchedReport {
            policy: self.cfg.policy,
            per_class,
            preemptions: self.preemptions,
            resumes: self.resumes,
            restore_charged_ns: ns(self.restore_charged_ps),
            prefill_chunks: self.prefill_chunks,
            prefill_work_ns: ns(self.prefill_work_ps),
            pages: self.pages.stats(),
            leaked_pages: leaked,
            invariant_violation,
        };
        (report, views)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SloMix;
    use longsight_tensor::check::{run_cases, Gen};
    use longsight_tensor::{prop_ensure, prop_ensure_eq};

    fn req(id: usize, class: SloClass, context: usize, output: usize) -> SchedRequest {
        SchedRequest {
            id,
            class,
            arrival_ps: id as u64 * 1_000_000,
            context,
            output,
            prefill_ps: 100_000_000,
            restore_ps: 10_000_000,
            recompute_ps: 50_000_000,
            pull_ps: u64::MAX,
            prefix_hash: None,
        }
    }

    fn slo_cfg() -> SchedConfig {
        SchedConfig::slo_aware(
            PageConfig {
                page_tokens: 1024,
                hbm_capacity_pages: 4,
                drex_capacity_pages: 1000,
                hbm_watermark: 1.0,
            },
            1024, // one HBM page per request
            8192,
        )
    }

    #[test]
    fn fifo_admits_in_arrival_order() {
        let mut s = Scheduler::new(SchedConfig::fifo(PageConfig::unbounded(1024), 1024));
        let mut feas = |users: usize, _ctx: usize| users <= 2;
        s.on_arrival(req(0, SloClass::Interactive, 4096, 4), &mut feas);
        s.on_arrival(req(1, SloClass::Interactive, 4096, 4), &mut feas);
        s.on_arrival(req(2, SloClass::Interactive, 4096, 4), &mut feas);
        assert_eq!(s.active().len(), 2);
        assert_eq!(s.waiting_len(), 1);
        // Pages tracked even though never enforced.
        assert_eq!(s.pages().hbm_used(), 2);
        let plan = s.plan_step();
        assert_eq!(plan.decode_users, 2);
        assert_eq!(plan.prefill_ps, 0);
    }

    #[test]
    fn fifo_rejects_the_never_servable() {
        let mut s = Scheduler::new(SchedConfig::fifo(PageConfig::unbounded(1024), 1024));
        let mut feas = |_users: usize, ctx: usize| ctx <= 8192;
        s.on_arrival(req(0, SloClass::Interactive, 100_000, 4), &mut feas);
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.active().len(), 0);
    }

    #[test]
    fn slo_admission_is_a_memory_decision() {
        // 4 HBM pages, 1 page per request: the 5th stays queued even though
        // the step model would accept it.
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        for i in 0..5 {
            s.on_arrival(req(i, SloClass::Interactive, 1024, 4), &mut feas);
        }
        s.drain_queue(&mut feas);
        assert_eq!(s.active().len(), 4);
        assert_eq!(s.waiting_len(), 1);
        assert_eq!(s.pages().hbm_used(), 4);
    }

    #[test]
    fn interactive_evicts_best_effort_for_hbm() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        for i in 0..4 {
            s.on_arrival(req(i, SloClass::BestEffort, 4096, 8), &mut feas);
        }
        s.drain_queue(&mut feas);
        assert_eq!(s.active().len(), 4);
        // An interactive arrival must displace the most recent best-effort
        // member, which keeps its DReX tail while waiting.
        s.on_arrival(req(9, SloClass::Interactive, 4096, 8), &mut feas);
        s.drain_queue(&mut feas);
        let classes: Vec<SloClass> = s.active().iter().map(|a| a.req.class).collect();
        assert!(classes.contains(&SloClass::Interactive));
        assert_eq!(s.active().len(), 4);
        assert_eq!(s.waiting_len(), 1);
        let rep = s.finalize();
        assert_eq!(rep.preemptions, 1);
        assert_eq!(rep.leaked_pages, 0);
        assert_eq!(rep.invariant_violation, None);
        // The evicted request still holds its DReX tail (3 pages of 3072
        // non-window tokens), but no HBM.
        let evicted = rep.pages.holders;
        assert_eq!(evicted, 5); // 4 active + 1 preempted
    }

    #[test]
    fn best_effort_never_evicts_best_effort() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        for i in 0..5 {
            s.on_arrival(req(i, SloClass::BestEffort, 4096, 8), &mut feas);
        }
        s.drain_queue(&mut feas);
        assert_eq!(s.active().len(), 4);
        assert_eq!(s.waiting_len(), 1);
        assert_eq!(s.finalize().preemptions, 0);
    }

    #[test]
    fn resume_charges_the_cheaper_of_restore_and_recompute() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        let mut be = req(0, SloClass::BestEffort, 4096, 8);
        be.prefill_ps = 0; // decodes immediately once admitted
        s.on_arrival(be, &mut feas);
        s.drain_queue(&mut feas);
        // Fill HBM so the interactive arrival forces an eviction.
        for i in 1..4 {
            s.on_arrival(req(i, SloClass::Interactive, 1024, 8), &mut feas);
        }
        s.on_arrival(req(4, SloClass::Interactive, 4096, 8), &mut feas);
        s.drain_queue(&mut feas);
        let rep_mid = s.pages().stats();
        assert!(rep_mid.hbm_used <= 4);
        // Retire the interactive requests so the best-effort one resumes.
        let mut now = 0;
        for _ in 0..64 {
            s.drain_queue(&mut feas);
            if s.active_is_empty() {
                break;
            }
            let _ = s.plan_step();
            now += 1_000_000_000;
            let _ = s.advance_step(1_000_000_000, 1, now);
        }
        let rep = s.finalize();
        assert_eq!(rep.preemptions, 1);
        assert_eq!(rep.resumes, 1);
        assert_eq!(rep.restore_charged_ns, 1e4); // restore_ps < recompute_ps
        assert_eq!(rep.leaked_pages, 0);
        assert_eq!(rep.per_class[SloClass::BestEffort.index()].completed, 1);
    }

    #[test]
    fn chunked_prefill_shares_steps() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        // 16K context with 8K chunks: two chunks to finish prefill.
        let mut r = req(0, SloClass::Interactive, 16_384, 2);
        r.prefill_ps = 2_000_000_000;
        let mut cfg_probe = slo_cfg();
        cfg_probe.pages.hbm_capacity_pages = 100;
        let mut s2 = Scheduler::new(cfg_probe);
        let _ = &mut s;
        s2.on_arrival(r, &mut feas);
        s2.drain_queue(&mut feas);
        let p1 = s2.plan_step();
        assert_eq!(p1.decode_users, 0);
        assert_eq!(p1.prefill_users, 1);
        assert_eq!(p1.prefill_ps, 1_000_000_000); // half the prefill
        assert_eq!(s2.steady_run(usize::MAX), 2, "two equal chunks");
        let _ = s2.advance_step(p1.prefill_ps, 1, 1_000_000_000);
        let p2 = s2.plan_step();
        assert_eq!(p2.prefill_users, 1);
        assert_eq!(s2.steady_run(usize::MAX), 1, "the last chunk");
        let _ = s2.advance_step(p2.prefill_ps, 1, 2_000_000_000);
        let p3 = s2.plan_step();
        assert_eq!(p3.decode_users, 1, "prefill finished after two chunks");
        let rep = s2.finalize();
        assert_eq!(rep.prefill_chunks, 2);
    }

    #[test]
    fn degradation_releases_the_tail() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        s.on_arrival(req(0, SloClass::Interactive, 4096, 8), &mut feas);
        s.drain_queue(&mut feas);
        let before = s.pages().drex_used();
        assert!(before > 0);
        s.on_degraded(0);
        assert_eq!(s.pages().drex_used(), 0);
        s.on_degraded(0); // idempotent
        assert_eq!(s.pages().drex_used(), 0);
    }

    #[test]
    fn crash_evacuate_drains_everything_and_frees_all_pages() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        for i in 0..6 {
            s.on_arrival(req(i, SloClass::Interactive, 1024, 4), &mut feas);
        }
        s.drain_queue(&mut feas);
        assert_eq!(s.active().len(), 4);
        assert_eq!(s.waiting_len(), 2);
        assert_eq!(s.queue_depth(SloClass::Interactive), 2);
        assert_eq!(s.queue_depth(SloClass::Batch), 0);
        let evac = s.crash_evacuate();
        assert_eq!(evac.len(), 6);
        // Canonical order: sorted by arrival id.
        let ids: Vec<usize> = evac.iter().map(|e| e.req.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert!(s.active_is_empty());
        assert_eq!(s.waiting_len(), 0);
        assert_eq!(s.pages().hbm_used(), 0);
        assert_eq!(s.pages().drex_used(), 0);
        let rep = s.finalize();
        assert_eq!(rep.leaked_pages, 0);
        assert_eq!(rep.invariant_violation, None);
        // Arrivals stay counted where they landed.
        assert_eq!(rep.per_class[SloClass::Interactive.index()].arrived, 6);
    }

    #[test]
    fn redispatch_charges_rebuild_cost_and_counts_an_arrival() {
        let mut donor = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        // One request that reached decode, one caught mid-prefill.
        let mut decoded = req(0, SloClass::Interactive, 1024, 8);
        decoded.prefill_ps = 0;
        donor.on_arrival(decoded, &mut feas);
        // 16K context over 8K chunks: still mid-prefill after one step.
        let mut mid = req(1, SloClass::Batch, 16_384, 8);
        mid.prefill_ps = 2_000_000_000;
        donor.on_arrival(mid, &mut feas);
        donor.drain_queue(&mut feas);
        let _ = donor.plan_step();
        let _ = donor.advance_step(1_000_000_000, 1, 1_000_000_000); // id 0 decodes one token
        let evac = donor.crash_evacuate();
        assert_eq!(evac.len(), 2);
        assert_eq!(evac[0].generated, 1);
        assert!(evac[1].prefill_left_ps > 0, "still mid-prefill");

        let mut target = Scheduler::new(slo_cfg());
        for e in &evac {
            target.on_redispatch(*e);
        }
        assert_eq!(target.waiting_len(), 2);
        target.drain_queue(&mut feas);
        assert_eq!(target.active().len(), 2);
        // The decoded request pays the resume cost (restore < recompute in
        // this fixture); the mid-prefill one redoes its full prefill.
        let a0 = &target.active()[0];
        assert_eq!(a0.req.id, 0);
        assert_eq!(a0.prefill_left_ps, evac[0].req.resume_cost_ps());
        let a1 = &target.active()[1];
        assert_eq!(a1.req.id, 1);
        assert_eq!(a1.prefill_left_ps, evac[1].req.prefill_ps);
        let rep = target.finalize();
        assert_eq!(rep.per_class[SloClass::Interactive.index()].arrived, 1);
        assert_eq!(rep.per_class[SloClass::Batch.index()].arrived, 1);
    }

    #[test]
    fn mix_classification_is_exhaustive() {
        let m = SloMix::mixed();
        for i in 0..100 {
            let _ = m.classify(i as f64 / 100.0);
        }
    }

    #[test]
    fn completion_unpins_and_crash_drops_pins_not_shared_frames() {
        let mut cfg = slo_cfg();
        cfg.pages.hbm_capacity_pages = 16;
        let mut s = Scheduler::new(cfg);
        s.pages_mut().set_prefix_capacity(32);
        assert!(s.pages_mut().prefix_insert(0xbeef, 4));
        let mut feas = |_u: usize, _c: usize| true;
        // Two sessions share the same prefix; a third request is cold.
        for id in 0..2 {
            s.pages_mut().prefix_pin(0xbeef);
            let mut r = req(id, SloClass::Interactive, 1024, 2);
            r.prefix_hash = Some(0xbeef);
            r.prefill_ps = 0;
            s.on_arrival(r, &mut feas);
        }
        s.on_arrival(req(2, SloClass::Interactive, 1024, 2), &mut feas);
        s.drain_queue(&mut feas);
        assert_eq!(s.pages().prefix_pinned_refs(), 2);

        // Completion drops exactly one pin; the shared frames stay cached.
        let mut now = 0;
        let mut done = 0usize;
        for _ in 0..16 {
            s.drain_queue(&mut feas);
            if s.active_is_empty() {
                break;
            }
            let _ = s.plan_step();
            now += 1_000_000_000;
            done += s.advance_step(1_000_000_000, 1, now).len();
        }
        assert_eq!(done, 3);
        assert_eq!(s.pages().prefix_pinned_refs(), 0);
        assert_eq!(s.pages().prefix_lookup(0xbeef), Some(4));
        let rep = s.finalize();
        assert_eq!(rep.invariant_violation, None, "refcount ≡ live sessions");
        assert!(rep.prefill_work_ns >= 0.0);
    }

    #[test]
    fn crash_evacuate_unpins_each_evacuee_once_and_wipes_the_cache() {
        let mut cfg = slo_cfg();
        cfg.pages.hbm_capacity_pages = 16;
        let mut s = Scheduler::new(cfg);
        s.pages_mut().set_prefix_capacity(32);
        assert!(s.pages_mut().prefix_insert(0xcafe, 8));
        let mut feas = |_u: usize, _c: usize| true;
        for id in 0..3 {
            s.pages_mut().prefix_pin(0xcafe);
            let mut r = req(id, SloClass::Interactive, 1024, 4);
            r.prefix_hash = Some(0xcafe);
            s.on_arrival(r, &mut feas);
        }
        s.drain_queue(&mut feas);
        assert_eq!(s.pages().prefix_pinned_refs(), 3);
        let evac = s.crash_evacuate();
        assert_eq!(evac.len(), 3);
        // Pins dropped one per evacuee (never a double-free of the shared
        // frames), then the cache wiped; the evacuees carry no stale pin
        // handle into their redispatch target.
        assert_eq!(s.pages().prefix_pinned_refs(), 0);
        assert_eq!(s.pages().prefix_lookup(0xcafe), None);
        for e in &evac {
            assert_eq!(e.req.prefix_hash, None);
            assert_eq!(e.req.pull_ps, u64::MAX);
        }
        let rep = s.finalize();
        assert_eq!(rep.leaked_pages, 0);
        assert_eq!(rep.invariant_violation, None);
    }

    #[test]
    fn an_unsettled_fifo_drain_limits_the_run_to_one_step() {
        let mut s = Scheduler::new(SchedConfig::fifo(PageConfig::unbounded(1024), 1024));
        let mut alone = |users: usize, _ctx: usize| users == 1;
        s.on_arrival(req(0, SloClass::Interactive, 1024, 20), &mut alone);
        s.on_arrival(req(1, SloClass::Interactive, 8192, 20), &mut alone);
        s.on_arrival(req(2, SloClass::Interactive, 1024, 20), &mut alone);
        assert_eq!(s.waiting_len(), 2);
        let mut small = |users: usize, ctx: usize| users <= 3 && ctx <= 4096;
        s.drain_queue(&mut small);
        assert_eq!(s.active().len(), 2);
        let _ = s.plan_step();
        // Request 1 was refused before request 2 grew the batch, so the
        // next drain probes a new shape: no run may skip it.
        assert_eq!(s.steady_run(usize::MAX), 1);
        s.drain_queue(&mut small);
        assert_eq!(s.active().len(), 2);
        let _ = s.plan_step();
        assert_eq!(s.steady_run(usize::MAX), 20);
        assert_eq!(s.steady_run(5), 5);
    }

    #[test]
    fn prefill_work_accumulates_executed_chunks() {
        let mut cfg = slo_cfg();
        cfg.pages.hbm_capacity_pages = 100;
        let mut s = Scheduler::new(cfg);
        let mut feas = |_u: usize, _c: usize| true;
        let mut r = req(0, SloClass::Interactive, 16_384, 1);
        r.prefill_ps = 2_000_000_000;
        s.on_arrival(r, &mut feas);
        s.drain_queue(&mut feas);
        let mut now = 0;
        for _ in 0..8 {
            if s.active_is_empty() {
                break;
            }
            let _ = s.plan_step();
            now += 1_000_000_000;
            let _ = s.advance_step(1_000_000_000, 1, now);
        }
        let rep = s.finalize();
        assert_eq!(rep.prefill_work_ns, 2e6);
    }

    /// The chunk bound against the step loop it replaces: replan and
    /// subtract one chunk per step while the plan keeps the chunk, over
    /// budgets of zero (a resume owing only its restore), one ps, partial
    /// last chunks and sizes near `u64::MAX`.
    fn chunk_run_matches_the_step_loop(g: &mut Gen) -> Result<(), String> {
        let budget = match g.usize_in(0, 4) {
            0 => 0,
            1 => g.u64_in(1, 3),
            2 => g.u64_in(1, 1 << 20),
            _ => u64::MAX / g.u64_in(1, 64),
        };
        let left = match (budget, g.usize_in(0, 3)) {
            (0, _) => g.u64_in(1, u64::MAX),
            (b, 0) => g.u64_in(1, b.saturating_add(1)),
            (b, _) => b
                .saturating_mul(g.u64_in(1, 2000))
                .saturating_add(g.u64_in(0, b.min(1 << 40) + 1)),
        };
        let chunk = planned_chunk(budget, left);
        let (mut rest, mut steps) = (left - chunk, 1usize);
        while rest > 0 && planned_chunk(budget, rest) == chunk {
            rest -= chunk;
            steps += 1;
        }
        prop_ensure_eq!(
            chunk_run(chunk, left),
            steps,
            "budget {budget}, left {left}"
        );
        Ok(())
    }

    #[test]
    fn chunk_runs_equal_the_brute_force_step_loop() {
        run_cases(
            "chunk_runs_equal_the_brute_force_step_loop",
            2000,
            chunk_run_matches_the_step_loop,
        );
    }

    /// What prefill progress leaves behind: every member's
    /// `(id, prefill_left_ps, remaining)` and the two prefill counters.
    fn chunk_state(s: &Scheduler) -> (Vec<(usize, u64, usize)>, usize, u64) {
        let left = s
            .active
            .iter()
            .map(|a| (a.req.id, a.prefill_left_ps, a.remaining));
        (left.collect(), s.prefill_chunks, s.prefill_work_ps)
    }

    /// A generated SLO-aware batch — fresh arrivals, mid-prefill
    /// redispatches and resumes (some with a zero chunk budget, owing only
    /// their restore), with last chunks partial or exact — runs to the end,
    /// with members now and then failing between plan and run. Each run of
    /// `n` steps advances one twin in one call and the other in `n`
    /// one-step calls, each after its own plan; the twins must agree on
    /// every plan, on prefill progress, completions and the report, and
    /// the step after a full run must plan differently.
    fn one_advance_matches_single_steps(g: &mut Gen) -> Result<(), String> {
        let max_context = g.usize_in(64, 3000);
        // Chunks from one token up to one larger than the largest context.
        let chunk_tokens = match g.usize_in(0, 4) {
            0 => 1,
            1 => g.usize_in(1, 16),
            2 => g.usize_in(16, max_context),
            _ => max_context + 1,
        };
        let pages = PageConfig::unbounded(64);
        let mut cfg = SchedConfig::slo_aware(pages, usize::MAX, chunk_tokens);
        cfg.prefill_slots = g.usize_in(1, 4);
        let mut s = Scheduler::new(cfg);
        let mut feas = |_u: usize, _c: usize| true;
        for id in 0..g.usize_in(1, 10) {
            let prefill_ps = match g.usize_in(0, 4) {
                0 => 0,
                1 => g.u64_in(1, 3000),
                _ => g.u64_in(1_000_000, 3_000_000_000),
            };
            let req = SchedRequest {
                id,
                class: SloClass::ALL[g.usize_in(0, 3)],
                arrival_ps: 0,
                context: g.usize_in(1, max_context + 1),
                output: g.usize_in(1, 48),
                prefill_ps,
                restore_ps: g.u64_in(0, 500_000_000),
                recompute_ps: g.u64_in(0, 500_000_000),
                pull_ps: u64::MAX,
                prefix_hash: None,
            };
            if g.bool() {
                s.on_arrival(req, &mut feas);
            } else {
                // A member that had reached decode resumes (a zero-prefill
                // one with chunk budget 0); one caught mid-prefill redoes it.
                let decoded = g.bool();
                let mut evacuee = Member::new(req);
                evacuee.generated = if decoded { g.usize_in(1, 8) } else { 0 };
                evacuee.prefill_left_ps = u64::from(!decoded);
                s.on_redispatch(evacuee);
            }
        }
        let limit = [1, g.usize_in(2, 9), 10_000][g.usize_in(0, 3)];
        let (dt, mut now) = (100_000_000u64, 0u64);
        // The plan as the run sees it: the decoders and the chunk sizes.
        let shape = |s: &Scheduler| {
            let chunks: Vec<u64> = s.chunks.iter().map(|c| c.1).collect();
            (s.decoding_count(), chunks)
        };
        for _ in 0..300 {
            s.drain_queue(&mut feas);
            if s.active_is_empty() {
                break;
            }
            let _ = s.plan_step();
            if g.usize_in(0, 3) == 0 {
                let mut dead = Vec::new();
                for a in &s.active {
                    if g.usize_in(0, if a.in_decode { 3 } else { 10 }) == 0 {
                        dead.push(a.req.id);
                    }
                }
                s.remove_failed(&dead);
            }
            let (n, steady, planned) = (s.steady_run(limit), s.drained, shape(&s));
            let mut want = s.clone();
            let mut want_done = Vec::new();
            for k in 1..=n {
                if k > 1 {
                    want.drain_queue(&mut feas);
                    let _ = want.plan_step();
                    prop_ensure_eq!(shape(&want), planned, "plan at step {k} of {n}");
                }
                want_done.extend(want.advance_step(dt, 1, now + k as u64 * dt));
            }
            now += n as u64 * dt;
            let done = s.advance_step(dt, n, now);
            prop_ensure_eq!(done, want_done, "completions after {n} steps");
            prop_ensure_eq!(chunk_state(&s), chunk_state(&want), "after {n} steps");
            // A run the scheduler ended itself ends where the plan changes.
            if steady && n < limit && done.is_empty() {
                let mut next = s.clone();
                next.drain_queue(&mut feas);
                let _ = next.plan_step();
                prop_ensure!(shape(&next) != planned, "the plan outlived a run of {n}");
            }
        }
        Ok(())
    }

    #[test]
    fn one_run_advance_equals_its_single_steps() {
        run_cases(
            "one_run_advance_equals_its_single_steps",
            500,
            one_advance_matches_single_steps,
        );
    }
}
