//! Macro-steps against the per-step loop they replace, on the in-repo
//! [`check`](longsight_tensor::check) runner (replay a failure with
//! `LONGSIGHT_PROP_SEED`).
//!
//! The oracle drives one [`Scheduler`] through the serving driver's
//! per-step loop: admit due events, drain the queue, plan, cost the step,
//! `now += dt`, advance one step. A twin scheduler runs the same timeline
//! in runs bounded by [`Scheduler::steady_run`], ticking the clock and
//! taking one [`Scheduler::chunk_step`] per step (a step after which the
//! chunks change ends the run) and advancing each run in one
//! [`Scheduler::advance_step`] call. The serving system's step model is
//! replaced by a deterministic `(users, ctx) -> dt` cost. Completions, the
//! per-class latency ledgers and the final reports must agree by bits.

use longsight_sched::{
    Completion, Evacuated, PageConfig, SchedConfig, SchedPolicy, SchedRequest, Scheduler, SloClass,
};
use longsight_tensor::check::{run_cases, Gen};
use longsight_tensor::{prop_ensure, prop_ensure_eq};

/// Something that happens to the scheduler from outside, at a time.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrive(SchedRequest),
    /// Every in-flight request is evacuated and redispatched back onto
    /// the same scheduler behind its rebuild charge.
    Crash,
}

/// One generated scenario.
#[derive(Debug, Clone)]
struct Case {
    cfg: SchedConfig,
    /// Events in time order.
    events: Vec<(f64, Event)>,
    /// Step-model knobs: feasibility limits and the cost polynomial.
    max_users: usize,
    max_ctx: usize,
    zero_cost: bool,
    base_ns: f64,
    per_user_ns: f64,
    per_ctx_ns: f64,
    /// `limit` passed to `steady_run`.
    limit: usize,
    /// Clock past which the loop stops stepping.
    guard_ns: f64,
}

impl Case {
    fn feasible(&self, users: usize, ctx: usize) -> bool {
        users <= self.max_users && ctx <= self.max_ctx
    }

    /// The deterministic stand-in for the serving system's step cost.
    fn cost(&self, users: usize, ctx: usize) -> f64 {
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

fn gen_case(g: &mut Gen) -> Case {
    let page_tokens = [16usize, 64, 256][g.usize_in(0, 3)];
    let window_tokens = [256usize, 1024, usize::MAX][g.usize_in(0, 3)];
    let max_context = g.usize_in(64, 3000);
    let policy = if g.bool() {
        SchedPolicy::Fifo
    } else {
        SchedPolicy::SloAware
    };
    // Tight HBM ceilings force evictions under SLO-aware admission.
    let pages = PageConfig {
        page_tokens,
        hbm_capacity_pages: g.usize_in(2, 40),
        drex_capacity_pages: g.usize_in(20, 400),
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
    let requests = g.usize_in(1, 14);
    for id in 0..requests {
        t += g.f64_in(0.0, 4e5);
        let context = g.usize_in(1, max_context + 1);
        let prefill_ns = match g.usize_in(0, 4) {
            0 => 0.0,
            _ => g.f64_in(1e3, 3e6),
        };
        let (restore_ns, recompute_ns) = match g.usize_in(0, 4) {
            0 => (0.0, 0.0),
            _ => (g.f64_in(0.0, 5e5), g.f64_in(0.0, 5e5)),
        };
        let req = SchedRequest {
            id,
            class: class(g),
            arrival_ns: t,
            context,
            output: g.usize_in(0, 48),
            prefill_ns,
            restore_ns,
            recompute_ns,
            pull_ns: f64::INFINITY,
            prefix_hash: None,
        };
        events.push((t, Event::Arrive(req)));
    }
    for _ in 0..g.usize_in(0, 3) {
        events.push((g.f64_in(0.0, t + 2e6), Event::Crash));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
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
        guard_ns: if zero_cost { f64::INFINITY } else { 4e8 },
    }
}

/// A latency ledger as its length and its sorted view's runs, `(value
/// bits, count)`. Compaction forgets the recording order, so the ledgers
/// are compared as the multisets every report reads.
type Runs = (usize, Vec<(u64, usize)>);

/// What a run leaves behind, compared by bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    completions: Vec<(usize, SloClass, u64)>,
    /// Per-class `(token, request)` ledgers.
    samples: Vec<(Runs, Runs)>,
    report: String,
    now: u64,
    steps: usize,
}

fn apply(s: &mut Scheduler, case: &Case, ev: Event) {
    match ev {
        Event::Arrive(req) => s.on_arrival(req, &mut |u, c| case.feasible(u, c)),
        Event::Crash => {
            let evac: Vec<Evacuated> = s.crash_evacuate();
            for e in evac {
                s.on_redispatch(e);
            }
        }
    }
}

fn outcome(mut s: Scheduler, completions: Vec<Completion>, now: f64, steps: usize) -> Outcome {
    let samples = s
        .class_samples()
        .iter()
        .map(|(tok, req)| {
            let runs = |l: &longsight_sched::LatencySamples| -> Runs {
                let view = l.sorted();
                let runs = view.runs().iter().map(|&(v, n)| (v.to_bits(), n));
                (l.len(), runs.collect())
            };
            (runs(tok), runs(req))
        })
        .collect();
    // `{:?}` prints every f64 in its shortest round-trip form, so equal
    // strings mean equal bits.
    let report = format!("{:?}", s.finalize());
    Outcome {
        completions: completions
            .iter()
            .map(|c| (c.id, c.class, c.latency_ms.to_bits()))
            .collect(),
        samples,
        report,
        now: now.to_bits(),
        steps,
    }
}

/// The step's duration: the decode batch's cost, or the chunked prefill
/// alone when it is longer.
fn step_dt(case: &Case, decode_users: usize, max_ctx: usize, prefill_ns: f64) -> f64 {
    let base = if decode_users > 0 {
        case.cost(decode_users, max_ctx)
    } else {
        0.0
    };
    base.max(prefill_ns)
}

/// The per-step loop: one plan, one clock tick, one advance per step.
fn single_steps(case: &Case) -> Outcome {
    let mut s = Scheduler::new(case.cfg.clone());
    let mut events: Vec<(f64, Event)> = case.events.iter().rev().copied().collect();
    let (mut now, mut steps, mut done) = (0.0f64, 0usize, Vec::new());
    loop {
        while let Some(&(_, ev)) = events.last().filter(|e| e.0 <= now) {
            events.pop();
            apply(&mut s, case, ev);
        }
        s.drain_queue(&mut |u, c| case.feasible(u, c));
        if s.active_is_empty() {
            match events.last() {
                Some(&(t, _)) => {
                    now = now.max(t);
                    continue;
                }
                None => break,
            }
        }
        if now > case.guard_ns {
            break;
        }
        let plan = s.plan_step();
        let dt = step_dt(
            case,
            plan.decode_users,
            plan.max_decode_ctx,
            plan.prefill_ns,
        );
        now += dt;
        steps += 1;
        if plan.prefill_users > 0 {
            s.chunk_step();
        }
        done.extend(s.advance_step(dt, 1, now));
    }
    outcome(s, done, now, steps)
}

/// The macro-step loop: one plan per run, one clock tick and chunk step
/// per step, one advance per run. The run ends at the scheduler's bound,
/// after a step that changes the chunks, or after the first step whose
/// end reaches the next event or the guard.
fn macro_steps(case: &Case) -> Outcome {
    let mut s = Scheduler::new(case.cfg.clone());
    let mut events: Vec<(f64, Event)> = case.events.iter().rev().copied().collect();
    let (mut now, mut steps, mut done) = (0.0f64, 0usize, Vec::new());
    loop {
        while let Some(&(_, ev)) = events.last().filter(|e| e.0 <= now) {
            events.pop();
            apply(&mut s, case, ev);
        }
        s.drain_queue(&mut |u, c| case.feasible(u, c));
        if s.active_is_empty() {
            match events.last() {
                Some(&(t, _)) => {
                    now = now.max(t);
                    continue;
                }
                None => break,
            }
        }
        if now > case.guard_ns {
            break;
        }
        let plan = s.plan_step();
        let dt = step_dt(
            case,
            plan.decode_users,
            plan.max_decode_ctx,
            plan.prefill_ns,
        );
        let run = s.steady_run(case.limit);
        let until = events
            .last()
            .map_or(f64::INFINITY, |e| e.0)
            .min(case.guard_ns);
        let mut n = 0;
        loop {
            now += dt;
            n += 1;
            let same_chunks = plan.prefill_users == 0 || s.chunk_step();
            if n == run || now >= until || !same_chunks {
                break;
            }
        }
        steps += n;
        done.extend(s.advance_step(dt, n, now));
    }
    outcome(s, done, now, steps)
}

fn macro_steps_match_single_steps(g: &mut Gen) -> Result<(), String> {
    let case = gen_case(g);
    let want = single_steps(&case);
    let got = macro_steps(&case);
    prop_ensure_eq!(got.steps, want.steps, "scheduler steps");
    prop_ensure_eq!(got.now, want.now, "final clock bits");
    prop_ensure_eq!(got.completions, want.completions);
    prop_ensure_eq!(got.samples, want.samples);
    prop_ensure!(
        got.report == want.report,
        "reports differ:\n  single: {}\n  macro:  {}",
        want.report,
        got.report
    );
    Ok(())
}

#[test]
fn macro_steps_reproduce_the_per_step_loop() {
    run_cases(
        "macro_steps_reproduce_the_per_step_loop",
        400,
        macro_steps_match_single_steps,
    );
}

/// The runs must actually be long: a decode-only batch with no events
/// pending steps to its first completion in one run.
#[test]
fn a_quiet_decode_batch_runs_to_its_first_completion() {
    let pages = PageConfig::unbounded(64);
    let mut s = Scheduler::new(SchedConfig::fifo(pages, usize::MAX));
    for (id, output) in [(0usize, 40usize), (1, 25), (2, 60)] {
        let req = SchedRequest {
            id,
            class: SloClass::Interactive,
            arrival_ns: 0.0,
            context: 512,
            output,
            prefill_ns: 1e4,
            restore_ns: 0.0,
            recompute_ns: 0.0,
            pull_ns: f64::INFINITY,
            prefix_hash: None,
        };
        s.on_arrival(req, &mut |_, _| true);
    }
    s.drain_queue(&mut |_, _| true);
    let _ = s.plan_step();
    assert_eq!(s.steady_run(usize::MAX), 25);
    assert_eq!(s.steady_run(7), 7);
    let done = s.advance_step(1e5, 25, 25.0 * 1e5);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].id, 1);
}

/// A request admitted at time 0 under the pins below.
fn pin_req(id: usize, context: usize, output: usize, prefill_ns: f64) -> SchedRequest {
    SchedRequest {
        id,
        class: SloClass::Interactive,
        arrival_ns: 0.0,
        context,
        output,
        prefill_ns,
        restore_ns: 0.0,
        recompute_ns: 0.0,
        pull_ns: f64::INFINITY,
        prefix_hash: None,
    }
}

/// An SLO-aware scheduler with 1024-token chunks that has admitted `reqs`.
fn chunked(reqs: &[SchedRequest]) -> Scheduler {
    let cfg = SchedConfig::slo_aware(PageConfig::unbounded(64), usize::MAX, 1024);
    let mut s = Scheduler::new(cfg);
    for &r in reqs {
        s.on_arrival(r, &mut |_, _| true);
    }
    s.drain_queue(&mut |_, _| true);
    s
}

/// Plans a step and takes the run the driver would: one chunk step per
/// step, up to the `steady_run` bound or a chunk step that returns false.
/// Returns the run length.
fn chunked_run(s: &mut Scheduler, limit: usize) -> usize {
    let _ = s.plan_step();
    let run = s.steady_run(limit);
    let mut n = 0;
    loop {
        n += 1;
        if !s.chunk_step() || n == run {
            let _ = s.advance_step(1e5, n, n as f64 * 1e5);
            return n;
        }
    }
}

/// The prefill twin of the pin above: a run of full chunks ends at the
/// step that finishes the prefill, or one step early when the last chunk
/// is partial; a chunk below half an ulp never ends a run; and a
/// prefilling member behind a member that fails still advances.
#[test]
fn a_quiet_prefill_runs_to_its_chunk_boundary() {
    // 4e6 ns over 4096 tokens in 1024-token chunks: four full chunks of
    // 1e6, beside a member decoding 100 tokens.
    let mut s = chunked(&[pin_req(0, 512, 100, 0.0), pin_req(1, 4096, 8, 4e6)]);
    assert_eq!(chunked_run(&mut s, usize::MAX), 4);
    assert_eq!(s.plan_step().decode_users, 2, "the prefill finished");

    // 1e6 ns over 4000 tokens: three full chunks of 256 000, then a
    // partial one that the run stops short of.
    let mut s = chunked(&[pin_req(0, 512, 100, 0.0), pin_req(1, 4000, 8, 1e6)]);
    assert_eq!(chunked_run(&mut s, usize::MAX), 3);
    assert!(s.active()[1].prefill_left_ns < 256_000.0);
    assert_eq!(chunked_run(&mut s, usize::MAX), 1);
    assert_eq!(s.plan_step().decode_users, 2, "the prefill finished");

    // A resume of 1e16 ns (an ulp of 2) in chunks of 2.5e-4 ns: the member
    // never progresses, so only the decoder's 25 tokens or the limit end
    // the run.
    let mut resumed = pin_req(1, 4096, 8, 1e-3);
    resumed.restore_ns = 1e16;
    resumed.recompute_ns = 1e16;
    let mut s = chunked(&[pin_req(0, 512, 25, 0.0)]);
    s.on_redispatch(Evacuated {
        req: resumed,
        remaining: 8,
        generated: 1,
        prefill_left_ns: 0.0,
    });
    s.drain_queue(&mut |_, _| true);
    assert_eq!(chunked_run(&mut s, 7), 7);
    assert_eq!(chunked_run(&mut s, usize::MAX), 18);
    assert_eq!(s.active()[0].prefill_left_ns, 1e16);
    assert_eq!(s.finalize().prefill_chunks, 25);

    // The decoder ahead of the prefilling member fails between plan and
    // run: the chunk follows its member to the freed slot.
    let mut s = chunked(&[pin_req(0, 512, 100, 0.0), pin_req(1, 4096, 8, 4e6)]);
    let _ = s.plan_step();
    s.remove_failed(&[0]);
    assert!(s.chunk_step());
    let _ = s.advance_step(1e5, 1, 1e5);
    assert_eq!(s.active()[0].req.id, 1);
    assert_eq!(s.active()[0].prefill_left_ns, 3e6);
    let rep = s.finalize();
    assert_eq!((rep.prefill_chunks, rep.prefill_work_ns), (1, 1e6));
}
