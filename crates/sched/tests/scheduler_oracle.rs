//! The scheduler against the one it replaced, on the in-repo
//! [`check`](longsight_tensor::check) runner (replay a failure with
//! `LONGSIGHT_PROP_SEED`).
//!
//! [`reference`] keeps the scheduler whose requests passed through three
//! records (`ActiveEntry`, `Waiting`, `Evacuated`) and whose step plan had
//! a FIFO arm. Both run one generated FIFO or SLO-aware timeline in
//! lockstep through the serving driver's macro-step loop: the steady-run
//! oracle's scenarios (arrivals, crashes redispatched onto the same
//! scheduler) plus hard failures between plan and step, degradations, and
//! session prefixes pinned at arrival and published at completion. After
//! every call the two must agree by bits: the feasibility probes, in order
//! and shape (the serving driver's first probe of a shape records step
//! detail into the trace), the decision events, each [`StepPlan`], run
//! lengths (the new run's O(1) bounds against the replaced per-step clock
//! and chunk loop), the clock, completions, crash evacuees, the batch, the
//! queue depths and the page ledger; at the end the report and every
//! class's latency views.

mod common;

use common::{gen_case, step_dt, Case, Event};
use longsight_sched::clock::steps_to_reach;
use longsight_sched::{
    Completion, Member, SchedLoad, SchedRequest, Scheduler, SloClass, SortedSamples, StepPlan,
};
use longsight_tensor::check::{run_cases, Gen};
use longsight_tensor::{prop_ensure, prop_ensure_eq};

/// What this oracle adds to a steady-run scenario.
struct Extras {
    /// Prefix-cache carve-out of both page ledgers (0 disables it).
    prefix_pages: usize,
    /// Per request id: the prefix it pins at arrival.
    pin: Vec<Option<u64>>,
    /// Per request id: the prefix it publishes on completion. Prefix `h`
    /// always spans `h` pages.
    publish: Vec<Option<u64>>,
    /// Each member fails between plan and step with odds 1 in this (0:
    /// never).
    fail_one_in: usize,
    /// A step degrades one member with odds 1 in this (0: never).
    degrade_one_in: usize,
}

fn gen_extras(g: &mut Gen, case: &Case) -> Extras {
    let requests = case
        .events
        .iter()
        .filter(|e| matches!(e.1, Event::Arrive(_)))
        .count();
    let sessions = g.bool();
    let mut pin = Vec::with_capacity(requests);
    let mut publish = Vec::with_capacity(requests);
    for _ in 0..requests {
        let warm = sessions && g.usize_in(0, 3) > 0;
        pin.push(warm.then(|| g.usize_in(1, 6) as u64));
        let publishes = sessions && g.bool();
        publish.push(publishes.then(|| g.usize_in(1, 6) as u64));
    }
    Extras {
        prefix_pages: if sessions { g.usize_in(1, 24) } else { 0 },
        pin,
        publish,
        fail_one_in: [0, 4, 12][g.usize_in(0, 3)],
        degrade_one_in: [0, 3, 10][g.usize_in(0, 3)],
    }
}

/// A feasibility callback that logs every probe.
fn probe<'a>(
    case: &'a Case,
    log: &'a mut Vec<(usize, usize)>,
) -> impl FnMut(usize, usize) -> bool + 'a {
    move |users, ctx| {
        log.push((users, ctx));
        case.feasible(users, ctx)
    }
}

fn plan_bits(p: &StepPlan) -> (usize, usize, usize, u64, usize) {
    (
        p.users,
        p.decode_users,
        p.max_decode_ctx,
        p.prefill_ps,
        p.prefill_users,
    )
}

fn completion_bits(done: &[Completion]) -> Vec<(usize, SloClass, u64)> {
    done.iter()
        .map(|c| (c.id, c.class, c.latency_ms.to_bits()))
        .collect()
}

/// A batch member's progress: `(id, remaining, generated, prefill left
/// ps, in_decode, window_only)`.
type MemberState = (usize, usize, usize, u64, bool, bool);

/// A view's `(value bits, count)` runs.
fn view_bits(v: &SortedSamples) -> (usize, Vec<(u64, usize)>) {
    (
        v.len(),
        v.runs().iter().map(|&(x, n)| (x.to_bits(), n)).collect(),
    )
}

/// Feasibility probes as `(users, max_ctx)`, in order.
type Probes = Vec<(usize, usize)>;

/// The two schedulers, and the probes each made since they last agreed.
struct Twin<'c> {
    case: &'c Case,
    new: Scheduler,
    old: reference::Scheduler,
    probes: (Probes, Probes),
}

impl<'c> Twin<'c> {
    fn new(case: &'c Case, extras: &Extras) -> Self {
        let mut new = Scheduler::new(case.cfg.clone());
        let mut old = reference::Scheduler::new(case.cfg.clone());
        new.set_event_recording(true);
        old.set_event_recording(true);
        if extras.prefix_pages > 0 {
            new.pages_mut().set_prefix_capacity(extras.prefix_pages);
            old.pages_mut().set_prefix_capacity(extras.prefix_pages);
            for h in 1..4u64 {
                new.pages_mut().prefix_insert(h, h as usize);
                old.pages_mut().prefix_insert(h, h as usize);
            }
        }
        Self {
            case,
            new,
            old,
            probes: (Vec::new(), Vec::new()),
        }
    }

    /// Everything observable agrees by bits; the probe logs start over.
    fn agree(&mut self, after: &str) -> Result<(), String> {
        let (new, old) = (&mut self.new, &mut self.old);
        prop_ensure_eq!(
            self.probes.0,
            self.probes.1,
            "feasibility probes after {after}"
        );
        self.probes.0.clear();
        self.probes.1.clear();
        // `{:?}` prints every f64 in its shortest round-trip form, so equal
        // strings mean equal bits.
        prop_ensure_eq!(
            format!("{:?}", new.take_events()),
            format!("{:?}", old.take_events()),
            "events after {after}"
        );
        let batch: Vec<MemberState> = new
            .active()
            .iter()
            .map(|m| {
                let left = m.prefill_left_ps;
                (
                    m.req.id,
                    m.remaining,
                    m.generated,
                    left,
                    m.in_decode,
                    m.window_only,
                )
            })
            .collect();
        let want: Vec<MemberState> = old
            .active()
            .iter()
            .map(|a| {
                let left = a.prefill_left_ps;
                (
                    a.req.id,
                    a.remaining,
                    a.generated,
                    left,
                    a.in_decode,
                    a.window_only,
                )
            })
            .collect();
        prop_ensure_eq!(batch, want, "batch after {after}");
        prop_ensure_eq!(new.active_is_empty(), old.active_is_empty());
        prop_ensure_eq!(
            new.decoding_count(),
            old.decoding_count(),
            "decoding after {after}"
        );
        prop_ensure_eq!(new.waiting_len(), old.waiting_len(), "queue after {after}");
        prop_ensure_eq!(
            new.queue_depths(),
            old.queue_depths(),
            "queue after {after}"
        );
        prop_ensure_eq!(new.rejected(), old.rejected(), "rejected after {after}");
        let loads: (SchedLoad, SchedLoad) = (new.load(), old.load());
        prop_ensure_eq!(loads.0, loads.1, "load after {after}");
        prop_ensure_eq!(
            format!("{:?}", new.pages().stats()),
            format!("{:?}", old.pages().stats()),
            "page ledger after {after}"
        );
        Ok(())
    }

    fn arrive(&mut self, mut req: SchedRequest, extras: &Extras) -> Result<(), String> {
        // The serving driver pins a warm turn's prefix before it offers
        // the request, and hands it over only when the pin hit.
        if let Some(h) = extras.pin[req.id] {
            let pinned = self.new.pages_mut().prefix_pin(h);
            prop_ensure_eq!(pinned, self.old.pages_mut().prefix_pin(h), "prefix pin");
            if pinned.is_some() {
                req.prefix_hash = Some(h);
            }
        }
        self.new
            .on_arrival(req, &mut probe(self.case, &mut self.probes.0));
        self.old
            .on_arrival(req, &mut probe(self.case, &mut self.probes.1));
        self.agree("on_arrival")
    }

    /// A crash evacuates both, and every evacuee is redispatched onto the
    /// scheduler it left, then now and then one from another replica: a
    /// fresh request with made-up progress (none left to decode included)
    /// under id `foreign`.
    fn crash(&mut self, g: &mut Gen, foreign: usize) -> Result<(), String> {
        let evac: Vec<Member> = self.new.crash_evacuate();
        let want = self.old.crash_evacuate();
        let got: Vec<String> = evac
            .iter()
            .map(|m| format!("{:?}", (m.req, m.remaining, m.generated, m.prefill_left_ps)))
            .collect();
        let want_s: Vec<String> = want
            .iter()
            .map(|e| format!("{:?}", (e.req, e.remaining, e.generated, e.prefill_left_ps)))
            .collect();
        prop_ensure_eq!(got, want_s, "evacuees");
        self.agree("crash_evacuate")?;
        for (m, e) in evac.into_iter().zip(want) {
            self.new.on_redispatch(m);
            self.old.on_redispatch(e);
        }
        self.agree("on_redispatch")?;
        if g.bool() {
            let mut req = common::gen_request(g, foreign, 0, self.case.max_ctx + 1);
            req.output = g.usize_in(0, 8);
            let mut m = Member::new(req);
            m.remaining = g.usize_in(0, 3);
            m.generated = g.usize_in(0, 5);
            m.prefill_left_ps = [0, 1][g.usize_in(0, 2)];
            self.new.on_redispatch(m);
            self.old.on_redispatch(reference::Evacuated {
                req,
                remaining: m.remaining,
                generated: m.generated,
                prefill_left_ps: m.prefill_left_ps,
            });
            self.agree("a foreign on_redispatch")?;
        }
        Ok(())
    }

    fn drain(&mut self) -> Result<(), String> {
        self.new
            .drain_queue(&mut probe(self.case, &mut self.probes.0));
        self.old
            .drain_queue(&mut probe(self.case, &mut self.probes.1));
        self.agree("drain_queue")
    }
}

/// One generated timeline through both schedulers in lockstep.
fn lockstep(g: &mut Gen) -> Result<(), String> {
    let case = gen_case(g);
    let extras = gen_extras(g, &case);
    let mut t = Twin::new(&case, &extras);
    let mut events: Vec<(u64, Event)> = case.events.iter().rev().copied().collect();
    let (mut now, mut foreign) = (0u64, extras.pin.len());
    loop {
        while let Some(&(_, ev)) = events.last().filter(|e| e.0 <= now) {
            events.pop();
            match ev {
                Event::Arrive(req) => t.arrive(req, &extras)?,
                Event::Crash => {
                    t.crash(g, foreign)?;
                    foreign += 1;
                }
            }
        }
        t.drain()?;
        if t.new.active_is_empty() {
            match events.last() {
                Some(&(at, _)) => {
                    now = now.max(at);
                    continue;
                }
                None => break,
            }
        }
        if now > case.guard_ps {
            break;
        }
        let plan = t.new.plan_step();
        prop_ensure_eq!(plan_bits(&plan), plan_bits(&t.old.plan_step()), "plan");
        t.agree("plan_step")?;
        if extras.fail_one_in > 0 {
            let dead: Vec<usize> = t
                .new
                .active()
                .iter()
                .filter(|_| g.usize_in(0, extras.fail_one_in) == 0)
                .map(|m| m.req.id)
                .collect();
            t.new.remove_failed(&dead);
            t.old.remove_failed(&dead);
            t.agree("remove_failed")?;
        }
        if extras.degrade_one_in > 0 && g.usize_in(0, extras.degrade_one_in) == 0 {
            // Any id: a member, a queued request or one long gone.
            let id = g.usize_in(0, foreign + 1);
            t.new.on_degraded(id);
            t.old.on_degraded(id);
            t.agree("on_degraded")?;
        }
        let dt = step_dt(
            &case,
            plan.decode_users,
            plan.max_decode_ctx,
            plan.prefill_ps,
        );
        let until = events.last().map_or(u64::MAX, |e| e.0).min(case.guard_ps);
        // The replaced run: a clock tick and a chunk step per step.
        let (run, mut want_n, mut at) = (t.old.steady_run(case.limit), 0, now);
        loop {
            at += dt;
            want_n += 1;
            let same_chunks = plan.prefill_users == 0 || t.old.chunk_step();
            if want_n == run || at >= until || !same_chunks {
                break;
            }
        }
        let n = t
            .new
            .steady_run(case.limit)
            .min(steps_to_reach(now, dt, until));
        prop_ensure_eq!(n, want_n, "run length");
        now += n as u64 * dt;
        prop_ensure_eq!(now, at, "clock");
        let done = t.new.advance_step(dt, n, now);
        let want = t.old.advance_step(dt, n, now);
        prop_ensure_eq!(
            completion_bits(&done),
            completion_bits(&want),
            "completions"
        );
        // A completed turn publishes its successor's prefix.
        for c in &done {
            if let Some(&Some(h)) = extras.publish.get(c.id) {
                let published = t.new.pages_mut().prefix_insert(h, h as usize);
                let want = t.old.pages_mut().prefix_insert(h, h as usize);
                prop_ensure_eq!(published, want, "prefix publish");
            }
        }
        t.agree("advance_step")?;
    }
    let report = t.new.finalize();
    let (want, want_views) = t.old.finalize_views();
    let got = format!("{report:?}");
    let want = format!("{want:?}");
    prop_ensure!(got == want, "reports differ:\n  new: {got}\n  old: {want}");
    let (_, views) = t.new.finalize_views();
    for (v, w) in views.iter().zip(&want_views) {
        prop_ensure_eq!(view_bits(&v.0), view_bits(&w.0), "token view");
        prop_ensure_eq!(view_bits(&v.1), view_bits(&w.1), "request view");
    }
    Ok(())
}

#[test]
fn scheduler_reproduces_the_replaced_records_and_plan_arms() {
    run_cases(
        "scheduler_reproduces_the_replaced_records_and_plan_arms",
        1000,
        lockstep,
    );
}

mod reference {
    //! The scheduler before one `Member` record replaced `ActiveEntry`,
    //! `Waiting` and `Evacuated` and one step plan replaced the FIFO arm,
    //! kept verbatim (the same items in the same order, minus the public
    //! types it shares with the crate) over the public page ledger, except
    //! for the unit change every copy took: times and work are whole
    //! picoseconds, a chunk is rounded up, and a prefill is done at 0 ps
    //! left. It keeps its per-step `chunk_step`.

    use longsight_sched::clock::{ms, ns};
    use longsight_sched::{
        ClassReport, ClassViews, Completion, LatencySamples, PagedKvManager, SchedConfig,
        SchedEvent, SchedLoad, SchedPolicy, SchedReport, SchedRequest, SloClass, StepPlan,
    };

    /// `SchedConfig`'s private page and chunk helpers, verbatim (in ps).
    trait ConfigHelpers {
        fn hbm_pages_for(&self, context: usize) -> usize;
        fn drex_pages_for(&self, context: usize) -> usize;
        fn chunk_ps_for(&self, req: &SchedRequest) -> u64;
    }

    impl ConfigHelpers for SchedConfig {
        fn hbm_pages_for(&self, context: usize) -> usize {
            self.pages.pages_for(context.min(self.window_tokens))
        }

        fn drex_pages_for(&self, context: usize) -> usize {
            self.pages
                .pages_for(context.saturating_sub(self.window_tokens))
        }

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

    /// One request in the running batch.
    #[derive(Debug, Clone)]
    pub struct ActiveEntry {
        /// The request.
        pub req: SchedRequest,
        /// Output tokens left to decode.
        pub remaining: usize,
        /// Tokens decoded so far (the fault-stream token index).
        pub generated: usize,
        /// Prefill (or resume) work left before this request decodes, ps.
        pub prefill_left_ps: u64,
        /// Whether this member decodes in the step planned by
        /// [`Scheduler::plan_step`].
        pub in_decode: bool,
        /// Whether degradation already released the DReX tail.
        pub window_only: bool,
        chunk_ps: u64,
    }

    #[derive(Debug, Clone)]
    struct Waiting {
        req: SchedRequest,
        remaining: usize,
        generated: usize,
        preempted: bool,
        prefill_left_ps: u64,
        window_only: bool,
    }

    /// A request evacuated from a crashed replica, carrying its decode
    /// progress so the router can place it again elsewhere.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Evacuated {
        /// The request descriptor (original arrival time included, so the
        /// crash's latency cost lands in the request's own tail).
        pub req: SchedRequest,
        /// Output tokens still to decode.
        pub remaining: usize,
        /// Tokens decoded before the crash.
        pub generated: usize,
        /// Prefill work still outstanding at crash time, ps (0 when the
        /// request had already reached decode).
        pub prefill_left_ps: u64,
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

    /// The continuous-batching scheduler state machine.
    #[derive(Debug, Clone)]
    pub struct Scheduler {
        cfg: SchedConfig,
        pages: PagedKvManager,
        active: Vec<ActiveEntry>,
        waiting: Vec<Waiting>,
        /// The planned chunks as `(batch slot, ps)`, in plan order.
        chunks: Vec<(usize, u64)>,
        /// Steps of `chunks` applied since the plan (see [`Scheduler::chunk_step`]).
        chunk_steps: usize,
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
                chunk_steps: 0,
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
        pub fn active(&self) -> &[ActiveEntry] {
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
        pub fn crash_evacuate(&mut self) -> Vec<Evacuated> {
            self.chunks.clear();
            self.drained = false;
            let active = std::mem::take(&mut self.active);
            let waiting = std::mem::take(&mut self.waiting);
            let mut out = Vec::with_capacity(active.len() + waiting.len());
            for a in active {
                self.pages.free_all(a.req.id);
                out.push(Evacuated {
                    req: a.req,
                    remaining: a.remaining,
                    generated: a.generated,
                    prefill_left_ps: a.prefill_left_ps,
                });
            }
            for w in waiting {
                self.pages.free_all(w.req.id);
                out.push(Evacuated {
                    req: w.req,
                    remaining: w.remaining,
                    generated: w.generated,
                    prefill_left_ps: w.prefill_left_ps,
                });
            }
            // Prefix discipline under a crash: each evacuee drops its *pin*
            // (refcount decrement), never the shared frames — a prefix pinned by
            // several sessions must survive any one of them evacuating. Only
            // after every pin is dropped does the wipe reclaim the cache
            // wholesale (the pooled-tier content died with the replica). The
            // evacuees' prefix handles are cleared so the redispatch target
            // never unpins a pin it does not hold.
            for e in &mut out {
                if let Some(h) = e.req.prefix_hash.take() {
                    self.pages.prefix_unpin(h);
                }
                e.req.pull_ps = u64::MAX;
            }
            self.pages.prefix_crash_clear();
            out.sort_by_key(|e| e.req.id);
            out
        }

        /// Accepts a request evacuated from a crashed replica. The KV state
        /// died with the donor, so the request queues behind a deterministic
        /// rebuild charge: requests caught mid-prefill redo the full prefill,
        /// requests that had reached decode pay the restore-vs-recompute
        /// resume cost from the device geometry.
        pub fn on_redispatch(&mut self, e: Evacuated) {
            self.drained = false;
            self.class[e.req.class.index()].arrived += 1;
            let prefill_left_ps = if e.prefill_left_ps > 0 {
                e.req.prefill_ps
            } else {
                e.req.resume_cost_ps()
            };
            self.waiting.push(Waiting {
                req: e.req,
                remaining: e.remaining.max(1),
                generated: e.generated,
                preempted: false,
                prefill_left_ps,
                window_only: false,
            });
            self.emit(SchedEvent::Queued {
                id: e.req.id,
                class: e.req.class,
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
        pub fn load(&self) -> SchedLoad {
            SchedLoad {
                active: self.active.len(),
                waiting: self.waiting.len(),
                hbm_used: self.pages.hbm_used(),
                hbm_limit: self.cfg.pages.hbm_limit_pages(),
                drex_used: self.pages.drex_used(),
                drex_capacity: self.cfg.pages.drex_capacity_pages,
            }
        }

        fn alloc_tracked(&mut self, id: usize, hbm: usize, drex: usize) {
            // The FIFO ledger is non-enforcing, so this cannot refuse; if a
            // caller misconfigures an enforcing FIFO ledger, the entry is simply
            // not tracked (pages never gate FIFO decisions).
            let _ = self.pages.try_alloc(id, hbm, drex);
        }

        /// Offers an arriving request. `feasible(users, max_ctx)` must answer
        /// whether the system can evaluate a step of that shape.
        ///
        /// FIFO reproduces the legacy loop exactly: join the batch when the
        /// grown batch evaluates at the largest member context (prefill folds
        /// into the request's own latency), reject when even a lone step can
        /// never evaluate, queue otherwise. SLO-aware rejects requests that can
        /// never fit (by feasibility or by page capacity) and queues everything
        /// else; admission happens in [`Scheduler::drain_queue`].
        pub fn on_arrival(
            &mut self,
            req: SchedRequest,
            feasible: &mut dyn FnMut(usize, usize) -> bool,
        ) {
            self.drained = false;
            self.class[req.class.index()].arrived += 1;
            match self.cfg.policy {
                SchedPolicy::Fifo => {
                    let max_ctx = self
                        .active
                        .iter()
                        .map(|r| r.req.context)
                        .fold(req.context, usize::max);
                    if feasible(self.active.len() + 1, max_ctx) {
                        let mut admitted = req;
                        // fold prefill into latency
                        admitted.arrival_ps = admitted.arrival_ps.wrapping_sub(req.prefill_ps);
                        self.prefill_work_ps += req.prefill_ps;
                        let (hbm, drex) = (
                            self.cfg.hbm_pages_for(req.context),
                            self.cfg.drex_pages_for(req.context),
                        );
                        self.alloc_tracked(admitted.id, hbm, drex);
                        self.active.push(ActiveEntry {
                            req: admitted,
                            remaining: req.output.max(1),
                            generated: 0,
                            prefill_left_ps: 0,
                            in_decode: true,
                            window_only: false,
                            chunk_ps: 0,
                        });
                        self.emit(SchedEvent::Admitted {
                            id: req.id,
                            class: req.class,
                        });
                    } else if !feasible(1, req.context) {
                        self.rejected += 1; // can never be served
                        self.class[req.class.index()].rejected += 1;
                        self.emit(SchedEvent::Rejected {
                            id: req.id,
                            class: req.class,
                        });
                    } else {
                        self.waiting.push(Waiting {
                            req,
                            remaining: req.output.max(1),
                            generated: 0,
                            preempted: false,
                            prefill_left_ps: req.prefill_ps,
                            window_only: false,
                        });
                        self.emit(SchedEvent::Queued {
                            id: req.id,
                            class: req.class,
                        });
                    }
                }
                SchedPolicy::SloAware => {
                    let hbm = self.cfg.hbm_pages_for(req.context);
                    let drex = self.cfg.drex_pages_for(req.context);
                    let never_fits = hbm > self.pages.config().hbm_limit_pages()
                        || drex > self.pages.config().drex_capacity_pages;
                    if never_fits || !feasible(1, req.context) {
                        self.rejected += 1;
                        self.class[req.class.index()].rejected += 1;
                        self.emit(SchedEvent::Rejected {
                            id: req.id,
                            class: req.class,
                        });
                    } else {
                        self.waiting.push(Waiting {
                            req,
                            remaining: req.output.max(1),
                            generated: 0,
                            preempted: false,
                            prefill_left_ps: req.prefill_ps,
                            window_only: false,
                        });
                        self.emit(SchedEvent::Queued {
                            id: req.id,
                            class: req.class,
                        });
                    }
                }
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
                    queue.retain(|w| {
                        let max_ctx = self
                            .active
                            .iter()
                            .map(|r| r.req.context)
                            .fold(w.req.context, usize::max);
                        if feasible(self.active.len() + 1, max_ctx) {
                            // Legacy semantics: queue-admitted requests join
                            // decode directly (their prefill was not folded).
                            let (hbm, drex) = (
                                self.cfg.hbm_pages_for(w.req.context),
                                self.cfg.drex_pages_for(w.req.context),
                            );
                            self.alloc_tracked(w.req.id, hbm, drex);
                            self.active.push(ActiveEntry {
                                req: w.req,
                                remaining: w.remaining,
                                generated: w.generated,
                                prefill_left_ps: 0,
                                in_decode: true,
                                window_only: false,
                                chunk_ps: 0,
                            });
                            self.emit(SchedEvent::Admitted {
                                id: w.req.id,
                                class: w.req.class,
                            });
                            false
                        } else {
                            true
                        }
                    });
                    self.waiting = queue;
                    self.drained = self.active.len() == before || self.waiting.is_empty();
                }
                SchedPolicy::SloAware => {
                    while let Some(pick) = (0..self.waiting.len()).min_by_key(|&i| {
                        (self.waiting[i].req.class.index(), self.waiting[i].req.id)
                    }) {
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
        fn try_admit(
            &mut self,
            pick: usize,
            feasible: &mut dyn FnMut(usize, usize) -> bool,
        ) -> bool {
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
            let max_ctx = self
                .active
                .iter()
                .map(|r| r.req.context)
                .fold(req.context, usize::max);
            if !feasible(self.active.len() + 1, max_ctx) {
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

            let w = self.waiting.remove(pick);
            if w.preempted {
                let cost = w.req.resume_cost_ps();
                self.resumes += 1;
                self.restore_charged_ps += cost;
                self.active.push(ActiveEntry {
                    req: w.req,
                    remaining: w.remaining,
                    generated: w.generated,
                    prefill_left_ps: w.prefill_left_ps + cost,
                    in_decode: false,
                    window_only: w.window_only,
                    chunk_ps: self.cfg.chunk_ps_for(&w.req),
                });
                self.emit(SchedEvent::Resumed {
                    id: w.req.id,
                    class: w.req.class,
                    cost_ps: cost,
                    restored: w.req.resume_restores(),
                });
            } else {
                self.active.push(ActiveEntry {
                    req: w.req,
                    remaining: w.remaining,
                    generated: w.generated,
                    prefill_left_ps: w.prefill_left_ps,
                    in_decode: false,
                    window_only: w.window_only,
                    chunk_ps: self.cfg.chunk_ps_for(&w.req),
                });
                self.emit(SchedEvent::Admitted {
                    id: w.req.id,
                    class: w.req.class,
                });
            }
            true
        }

        /// Evicts `self.active[pos]` to DReX-resident state.
        fn evict(&mut self, pos: usize) {
            let a = self.active.remove(pos);
            let freed = self.pages.release_hbm(a.req.id);
            self.preemptions += 1;
            self.class[a.req.class.index()].preempted += 1;
            self.waiting.push(Waiting {
                req: a.req,
                remaining: a.remaining,
                generated: a.generated,
                preempted: true,
                prefill_left_ps: a.prefill_left_ps,
                window_only: a.window_only,
            });
            self.emit(SchedEvent::Preempted {
                id: a.req.id,
                class: a.req.class,
                hbm_pages: freed,
            });
        }

        /// Plans the next synchronized step: who decodes, who advances prefill,
        /// and how much chunked-prefill work shares the step.
        pub fn plan_step(&mut self) -> StepPlan {
            self.chunks.clear();
            self.chunk_steps = 0;
            match self.cfg.policy {
                SchedPolicy::Fifo => {
                    for a in &mut self.active {
                        a.in_decode = true;
                    }
                    let users = self.active.len();
                    let max_ctx = self.active.iter().map(|r| r.req.context).max().unwrap_or(0);
                    StepPlan {
                        users,
                        decode_users: users,
                        max_decode_ctx: max_ctx,
                        prefill_ps: 0,
                        prefill_users: 0,
                    }
                }
                SchedPolicy::SloAware => {
                    let mut decode_users = 0usize;
                    let mut max_ctx = 0usize;
                    for a in &mut self.active {
                        a.in_decode = a.prefill_left_ps == 0;
                        if a.in_decode {
                            decode_users += 1;
                            max_ctx = max_ctx.max(a.req.context);
                        }
                    }
                    let mut slots = self.cfg.prefill_slots;
                    let mut prefill_ps = 0u64;
                    let mut prefill_users = 0usize;
                    for (i, a) in self.active.iter().enumerate() {
                        if slots == 0 {
                            break;
                        }
                        if !a.in_decode {
                            let chunk = planned_chunk(a.chunk_ps, a.prefill_left_ps);
                            self.chunks.push((i, chunk));
                            prefill_ps = prefill_ps.saturating_add(chunk);
                            prefill_users += 1;
                            slots -= 1;
                        }
                    }
                    StepPlan {
                        users: self.active.len(),
                        decode_users,
                        max_decode_ctx: max_ctx,
                        prefill_ps,
                        prefill_users,
                    }
                }
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

        /// An upper bound on how many steps, counting the one
        /// [`Scheduler::plan_step`] just planned, repeat that plan exactly: at
        /// least 1, at most `limit`.
        ///
        /// Contexts are frozen at admission, so a step changes the batch only
        /// when a member completes or finishes its prefill. The bound is the
        /// step where the first decoding member emits its last token; the
        /// caller ends the run earlier after a [`Scheduler::chunk_step`] that
        /// returns `false`. Page ledgers change only at admit, evict, resume,
        /// degrade, complete and fail, so they bound nothing here.
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
            decoders.fold(limit, |n, a| n.min(a.remaining)).max(1)
        }

        /// Applies one step of every planned chunk, in plan order, and returns
        /// whether the next step plans the same chunks: every member still has
        /// prefill left and its chunk `min(budget, left)` keeps its size. The
        /// caller calls this once per step of a run that plans chunks, and
        /// nothing else moves prefill.
        #[inline]
        pub fn chunk_step(&mut self) -> bool {
            self.chunk_steps += 1;
            let mut same = true;
            for &(slot, chunk) in &self.chunks {
                let a = &mut self.active[slot];
                let next = a.prefill_left_ps - chunk;
                a.prefill_left_ps = next;
                self.prefill_chunks += 1;
                self.prefill_work_ps += chunk;
                same &= next > 0 && planned_chunk(a.chunk_ps, next) == chunk;
            }
            same
        }

        /// Applies `n` repeats of the planned step, each of duration `dt`, the
        /// last ending at simulated time `now`: decoding members emit `n`
        /// tokens each, and finished requests retire (freeing their pages).
        /// Returns completions in batch order. `n` must not exceed
        /// [`Scheduler::steady_run`] or the run [`Scheduler::chunk_step`]
        /// allows, so nothing completes or finishes prefill before the last
        /// step; a plan with chunks must have had exactly `n` chunk steps.
        pub fn advance_step(&mut self, dt: u64, n: usize, now: u64) -> Vec<Completion> {
            debug_assert!(
                self.chunks.is_empty() || self.chunk_steps == n,
                "{n} steps advanced after {} chunk steps",
                self.chunk_steps
            );
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
                acc.token_lat_ms.push_n(ms(dt), c * n);
            }
            let mut done = Vec::new();
            let mut i = 0;
            while i < self.active.len() {
                if self.active[i].remaining == 0 {
                    let a = self.active.remove(i);
                    self.drained = false;
                    let latency_ms = ms(now.wrapping_sub(a.req.arrival_ps));
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
        /// [`Scheduler::finalize`], plus each class's `(token, request)`
        /// latency view, indexed by [`SloClass::index`]. Each ledger is sorted
        /// once, here; fleet and all-class roll-ups merge these views
        /// ([`SortedSamples::merge`]) and recompute percentiles over the union,
        /// since averaging per-replica percentiles would be wrong.
        pub fn finalize_views(&mut self) -> (SchedReport, ClassViews) {
            let mut leaked = 0usize;
            for id in self.pages.holder_ids() {
                let live = self.active.iter().any(|a| a.req.id == id)
                    || self.waiting.iter().any(|w| w.req.id == id);
                if !live {
                    let (h, d) = self.pages.pages_of(id).unwrap_or((0, 0));
                    leaked += h + d;
                }
            }
            let mut invariant_violation = self.pages.check_invariants().err();
            // Refcount ≡ live sessions: every outstanding prefix pin must be
            // held by a request that is still active or waiting, one pin each.
            if invariant_violation.is_none() && self.pages.prefix_capacity() > 0 {
                let live_pins = self
                    .active
                    .iter()
                    .filter(|a| a.req.prefix_hash.is_some())
                    .count()
                    + self
                        .waiting
                        .iter()
                        .filter(|w| w.req.prefix_hash.is_some())
                        .count();
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
}
