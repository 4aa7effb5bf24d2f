//! Macro-steps against the per-step loop they replace, on the in-repo
//! [`check`](longsight_tensor::check) runner (replay a failure with
//! `LONGSIGHT_PROP_SEED`).
//!
//! The oracle drives one [`Scheduler`] through the serving driver's
//! per-step loop: admit due events, drain the queue, plan, cost the step,
//! `now += dt`, advance one step. A twin scheduler runs the same timeline
//! in runs bounded by [`Scheduler::steady_run`] and by the first step
//! whose end reaches the next event or the guard, each one division on
//! the picosecond clock, moving the clock by `n·dt` and advancing the run
//! in one [`Scheduler::advance_step`] call. The serving system's step
//! model is replaced by a deterministic `(users, ctx) -> dt` cost.
//! Completions, the per-class latency ledgers and the final reports must
//! agree by bits.

mod common;

use common::{gen_case, step_dt, Case, Event};
use longsight_sched::clock::steps_to_reach;
use longsight_sched::{
    Completion, Member, PageConfig, SchedConfig, SchedRequest, Scheduler, SloClass,
};
use longsight_tensor::check::{run_cases, Gen};
use longsight_tensor::{prop_ensure, prop_ensure_eq};

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
            let evac: Vec<Member> = s.crash_evacuate();
            for e in evac {
                s.on_redispatch(e);
            }
        }
    }
}

fn outcome(mut s: Scheduler, completions: Vec<Completion>, now: u64, steps: usize) -> Outcome {
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
        now,
        steps,
    }
}

/// The per-step loop: one plan, one clock tick, one advance per step.
fn single_steps(case: &Case) -> Outcome {
    let mut s = Scheduler::new(case.cfg.clone());
    let mut events: Vec<(u64, Event)> = case.events.iter().rev().copied().collect();
    let (mut now, mut steps, mut done) = (0u64, 0usize, Vec::new());
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
        if now > case.guard_ps {
            break;
        }
        let plan = s.plan_step();
        let dt = step_dt(
            case,
            plan.decode_users,
            plan.max_decode_ctx,
            plan.prefill_ps,
        );
        now += dt;
        steps += 1;
        done.extend(s.advance_step(dt, 1, now));
    }
    outcome(s, done, now, steps)
}

/// The macro-step loop: one plan, one clock move and one advance per run.
/// The run ends at the scheduler's bound (a completion or a chunk that
/// changes) or at the first step whose end reaches the next event or the
/// guard.
fn macro_steps(case: &Case) -> Outcome {
    let mut s = Scheduler::new(case.cfg.clone());
    let mut events: Vec<(u64, Event)> = case.events.iter().rev().copied().collect();
    let (mut now, mut steps, mut done) = (0u64, 0usize, Vec::new());
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
        if now > case.guard_ps {
            break;
        }
        let plan = s.plan_step();
        let dt = step_dt(
            case,
            plan.decode_users,
            plan.max_decode_ctx,
            plan.prefill_ps,
        );
        let until = events.last().map_or(u64::MAX, |e| e.0).min(case.guard_ps);
        let n = s.steady_run(case.limit).min(steps_to_reach(now, dt, until));
        now += n as u64 * dt;
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
        s.on_arrival(pin_req(id, 512, output, 10_000_000), &mut |_, _| true);
    }
    s.drain_queue(&mut |_, _| true);
    let _ = s.plan_step();
    assert_eq!(s.steady_run(usize::MAX), 25);
    assert_eq!(s.steady_run(7), 7);
    let done = s.advance_step(100_000_000, 25, 25 * 100_000_000);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].id, 1);
}

/// A request admitted at time 0 under the pins below.
fn pin_req(id: usize, context: usize, output: usize, prefill_ps: u64) -> SchedRequest {
    SchedRequest {
        id,
        class: SloClass::Interactive,
        arrival_ps: 0,
        context,
        output,
        prefill_ps,
        restore_ps: 0,
        recompute_ps: 0,
        pull_ps: u64::MAX,
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

/// Plans a step and takes the run the driver would, up to the
/// `steady_run` bound, in one advance. Returns the run length.
fn chunked_run(s: &mut Scheduler, limit: usize) -> usize {
    let _ = s.plan_step();
    let n = s.steady_run(limit);
    let _ = s.advance_step(100_000_000, n, n as u64 * 100_000_000);
    n
}

/// The prefill twin of the pin above: a run of full chunks ends at the
/// step that finishes the prefill, or one step early when the last chunk
/// is partial; a one-ps chunk of a huge resume runs until something else
/// ends the run; and a prefilling member behind a member that fails still
/// advances.
#[test]
fn a_quiet_prefill_runs_to_its_chunk_boundary() {
    // 4e9 ps over 4096 tokens in 1024-token chunks: four full chunks of
    // 1e9, beside a member decoding 100 tokens.
    let mut s = chunked(&[pin_req(0, 512, 100, 0), pin_req(1, 4096, 8, 4_000_000_000)]);
    assert_eq!(chunked_run(&mut s, usize::MAX), 4);
    assert_eq!(s.plan_step().decode_users, 2, "the prefill finished");

    // 1e9 ps over 4000 tokens: three full chunks of 256e6, then a partial
    // one that the run stops short of.
    let mut s = chunked(&[pin_req(0, 512, 100, 0), pin_req(1, 4000, 8, 1_000_000_000)]);
    assert_eq!(chunked_run(&mut s, usize::MAX), 3);
    assert_eq!(s.active()[1].prefill_left_ps, 232_000_000);
    assert_eq!(chunked_run(&mut s, usize::MAX), 1);
    assert_eq!(s.plan_step().decode_users, 2, "the prefill finished");

    // A resume of 1e19 ps in chunks of 1 ps (a 1-ps prefill's share): only
    // the decoder's 25 tokens or the limit end the run.
    let mut resumed = pin_req(1, 4096, 8, 1);
    resumed.restore_ps = 10_000_000_000_000_000_000;
    resumed.recompute_ps = resumed.restore_ps;
    let mut s = chunked(&[pin_req(0, 512, 25, 0)]);
    let mut evacuee = Member::new(resumed);
    evacuee.generated = 1;
    evacuee.prefill_left_ps = 0;
    s.on_redispatch(evacuee);
    s.drain_queue(&mut |_, _| true);
    assert_eq!(chunked_run(&mut s, 7), 7);
    assert_eq!(chunked_run(&mut s, usize::MAX), 18);
    assert_eq!(s.active()[0].prefill_left_ps, resumed.restore_ps - 25);
    assert_eq!(s.finalize().prefill_chunks, 25);

    // The decoder ahead of the prefilling member fails between plan and
    // run: the chunk follows its member to the freed slot.
    let mut s = chunked(&[pin_req(0, 512, 100, 0), pin_req(1, 4096, 8, 4_000_000_000)]);
    let _ = s.plan_step();
    s.remove_failed(&[0]);
    assert_eq!(s.steady_run(usize::MAX), 1, "a failure unsettles the run");
    let _ = s.advance_step(100_000_000, 1, 100_000_000);
    assert_eq!(s.active()[0].req.id, 1);
    assert_eq!(s.active()[0].prefill_left_ps, 3_000_000_000);
    let rep = s.finalize();
    assert_eq!((rep.prefill_chunks, rep.prefill_work_ns), (1, 1e6));
}
