//! Fleet failure-domain contract — crash/recovery, failover, and the
//! fault-aware report, pinned end to end.
//!
//! Four promises:
//!
//! 1. **Disabled equivalence.** A zero-rate crash profile with no breaker
//!    and no shed cap is bit-identical to disabled fault options: same
//!    metrics, same report text, `faults: None`. The failure-domain
//!    machinery costs nothing when unused.
//! 2. **Deterministic crash timeline.** With a crash profile on, the
//!    replica events the driver applies are exactly `fleet_schedule` of
//!    `(profile, fault_seed, replicas)` — crash count and downtime in the
//!    report match the pure schedule.
//! 3. **Thread-count invariance.** Metrics, placement log, redispatch
//!    log, and the full report text are byte-identical at 1, 4, and
//!    hardware worker threads, crashes and breaker on.
//! 4. **Conservation under faults.** The audit passes: offered equals
//!    placed plus shed, redispatches reference previously placed
//!    requests, and nothing is lost across a crash.
//! 5. **Sessions compose with fault domains.** A multi-turn session
//!    workload under replica crashes, breakers and a shed cap keeps pin
//!    and turn conservation, leaks no pages, and reprices a warm turn
//!    whose prefix died with its replica to its full cold prefill.

use longsight::cxl::CxlLink;
use longsight::faults::{fleet_schedule, timeline_text, ReplicaEventKind, ReplicaFaultProfile};
use longsight::gpu::GpuSpec;
use longsight::model::ModelConfig;
use longsight::obs::{json, Recorder};
use longsight::sched::{
    BreakerConfig, BreakerState, CircuitBreaker, FleetReport, RouterPolicy, SchedPolicy,
    SloBurnSummary, SloClass, SloMix,
};
use longsight::system::prefill::prefill_cost;
use longsight::system::serving::{
    run, FleetFaultOptions, RunSpec, SchedOptions, ServeMetrics, WorkloadConfig,
};
use longsight::system::SessionOptions;

mod common;

use common::{across_thread_counts, fleet_of};

fn opts() -> SchedOptions {
    SchedOptions {
        policy: SchedPolicy::SloAware,
        mix: SloMix::mixed(),
        page_tokens: 1024,
        prefill_chunk_tokens: 128,
        prefill_slots: 1,
        hbm_watermark: 0.01,
    }
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        arrivals_per_s: 10.0,
        context_tokens: (16_384, 32_768),
        output_tokens: (32, 128),
        duration_s: 6.0,
        seed: 11,
    }
}

/// Seed 11 gives two non-overlapping single-replica crashes on r0 at this
/// rate — the clean "one node dies, the fleet routes around it" regime.
fn crashy() -> FleetFaultOptions {
    FleetFaultOptions {
        profile: ReplicaFaultProfile::scaled(0.1),
        fault_seed: 11,
        breaker: Some(BreakerConfig::serving_default()),
        shed_queue_cap: None,
    }
}

/// A two-replica fleet serving [`workload`] under [`opts`] and `fopts`.
fn serve(fopts: FleetFaultOptions) -> (ServeMetrics, FleetReport) {
    let spec = RunSpec {
        sched: opts(),
        faults: fopts,
        ..RunSpec::new(ModelConfig::llama3_1b(), workload())
    };
    let mut rec = Recorder::disabled();
    let (m, rep, _) = run(&mut fleet_of(2), &spec, &mut rec, None).expect("fleet runs");
    (m, rep)
}

#[test]
fn zero_rate_fault_options_are_bit_identical_to_disabled_ones() {
    let (m0, rep0) = serve(FleetFaultOptions::disabled());
    let (m1, rep1) = serve(FleetFaultOptions {
        profile: ReplicaFaultProfile::scaled(0.0),
        fault_seed: 11,
        ..FleetFaultOptions::disabled()
    });
    assert_eq!(m0, m1, "disabled fault options must not perturb metrics");
    assert_eq!(
        rep0, rep1,
        "disabled fault options must not perturb the report"
    );
    assert!(
        rep1.faults.is_none(),
        "no fault summary when faults are off"
    );
    assert_eq!(rep0.to_text(), rep1.to_text());
}

#[test]
fn crash_timeline_matches_the_pure_schedule() {
    let fopts = crashy();
    let wl = workload();
    let (_, rep) = serve(fopts.clone());
    let faults = rep
        .faults
        .as_ref()
        .expect("crash profile must yield a summary");
    let schedule = fleet_schedule(&fopts.profile, fopts.fault_seed, 2, wl.duration_s);
    let downs: Vec<_> = schedule
        .iter()
        .filter(|e| e.kind == ReplicaEventKind::Down)
        .collect();
    let brownouts = schedule
        .iter()
        .filter(|e| e.kind == ReplicaEventKind::BrownoutStart)
        .count();
    assert_eq!(
        faults.crashes,
        downs.len(),
        "crash count must match the schedule"
    );
    assert_eq!(
        faults.brownouts, brownouts,
        "brownout count must match the schedule"
    );
    // Downtime is the sum of scheduled down windows, clipped at nothing:
    // the tail of the timeline (repairs included) is drained before the
    // final drain, so every crash serves its full repair window.
    let scheduled_down: f64 = downs
        .iter()
        .map(|d| {
            schedule
                .iter()
                .find(|u| {
                    u.kind == ReplicaEventKind::Up && u.replica == d.replica && u.at_ns > d.at_ns
                })
                .map(|u| u.at_ns - d.at_ns)
                .unwrap_or(0.0)
        })
        .sum();
    let reported: f64 = faults.downtime_ns.iter().sum();
    assert!(
        (reported - scheduled_down).abs() < 1.0,
        "downtime {reported} ns must match the schedule's {scheduled_down} ns"
    );
    assert!(
        downs.iter().all(|d| d.replica == 0),
        "seed 11 crashes r0 only"
    );
}

#[test]
fn faulty_fleet_is_byte_identical_at_any_thread_count() {
    let runs = across_thread_counts(|| {
        let (m, rep) = serve(crashy());
        (m.to_text(), rep.to_text(), rep)
    });
    for (t, (_, _, rep)) in &runs {
        assert_eq!(rep.audit_violation, None, "audit failed at {t} threads");
    }
    let (_, (m0, text0, rep0)) = &runs[0];
    assert!(
        rep0.faults.as_ref().is_some_and(|f| f.crashes > 0),
        "the crash profile must actually crash something"
    );
    for (t, (m, text, rep)) in &runs[1..] {
        assert_eq!(m, m0, "metrics diverged at {t} threads");
        assert_eq!(text, text0, "report text diverged at {t} threads");
        assert_eq!(rep, rep0, "fleet report diverged at {t} threads");
    }
}

#[test]
fn crashes_conserve_requests_and_redispatch_placed_work() {
    let (m, rep) = serve(crashy());
    assert_eq!(rep.audit_violation, None);
    let faults = rep.faults.as_ref().unwrap();
    // Offered = placed + shed, and nothing vanishes.
    assert_eq!(
        faults.offered,
        rep.placements.len() + faults.shed.len(),
        "every arrival is placed once or shed with a reason"
    );
    // Every redispatch names a request the router placed earlier and a
    // live target replica.
    for r in &faults.redispatches {
        assert!(
            rep.placements.iter().any(|&(id, _)| id == r.id),
            "redispatch of unplaced request {}",
            r.id
        );
        assert!(r.to < 2 && r.from < 2);
        assert!(!r.reason.is_empty());
    }
    // Shed requests never appear in the placement log.
    for s in &faults.shed {
        assert!(
            rep.placements.iter().all(|&(id, _)| id != s.id),
            "request {} both shed and placed",
            s.id
        );
    }
    // The run still finishes real work through two crashes.
    assert!(m.completed > 0);
    assert!(faults.crashes > 0);
}

#[test]
fn breaker_mode_diverges_from_naive_routing_under_a_crash() {
    // Same workload, same crash timeline; only the breaker differs. The
    // naive fleet keeps placing new arrivals on the dead replica (to JSQ
    // its freed pages look like headroom); the breaker fleet does not
    // place anything there while the breaker is held open.
    let run = |breaker: Option<BreakerConfig>| {
        let fopts = FleetFaultOptions {
            breaker,
            ..crashy()
        };
        let (_, rep) = serve(fopts);
        assert_eq!(rep.audit_violation, None);
        rep.placement_log()
    };
    let naive = run(None);
    let guarded = run(Some(BreakerConfig::serving_default()));
    assert_ne!(
        naive, guarded,
        "the breaker must change where new arrivals land during downtime"
    );
}

/// The fault block and the replica timeline are byte-pinned goldens: any
/// formatting or accounting drift in `FleetFaultSummary` rendering or
/// `timeline_text` must show up as an explicit diff here, not as a silent
/// change to the checked-in results files.
/// Sessions under replica crashes with the breaker on and a shed cap: the
/// composed fleet loop, recorded, returning the report and the trace.
fn session_crash_run() -> (FleetReport, String) {
    let model = ModelConfig::llama3_1b();
    let wl = WorkloadConfig {
        duration_s: 12.0,
        ..workload()
    };
    let opts = SchedOptions {
        prefill_chunk_tokens: 128,
        ..SchedOptions::slo_aware(SloMix::all_interactive())
    };
    let fopts = FleetFaultOptions {
        profile: ReplicaFaultProfile::scaled(0.3),
        fault_seed: 11,
        breaker: Some(BreakerConfig::serving_default()),
        shed_queue_cap: Some(4),
    };
    let sess = SessionOptions {
        sessions: 12,
        turns: 4,
        think_time_ms: 1000.0,
        reuse: 0.9,
        prefix_cache_pages: 4096,
    };
    let spec = RunSpec {
        sched: opts,
        router: RouterPolicy::Affinity,
        faults: fopts,
        sessions: sess,
        ..RunSpec::new(model, wl)
    };
    let mut rec = Recorder::enabled();
    let (_, rep, _) = run(&mut fleet_of(2), &spec, &mut rec, None).expect("fleet runs");
    (rep, rec.chrome_trace_json())
}

#[test]
fn sessions_under_crashes_conserve_pins_and_turns() {
    let runs = across_thread_counts(|| {
        let (rep, trace) = session_crash_run();
        (rep.placement_log(), rep.to_text(), rep, trace)
    });
    let (_, (log0, text0, rep, trace)) = &runs[0];
    for (t, (log, text, _, _)) in &runs[1..] {
        assert_eq!(log, log0, "placement log differs at {t} threads");
        assert_eq!(text, text0, "report text differs at {t} threads");
    }

    assert_eq!(rep.audit_violation, None, "{:?}", rep.audit_violation);
    let f = rep.faults.as_ref().expect("fault summary attached");
    let s = rep.sessions.as_ref().expect("session summary attached");
    assert_eq!(f.offered, rep.placements.len() + f.shed.len());
    assert!(f.crashes > 0 && !f.shed.is_empty(), "{f:?}");
    for (i, r) in rep.replicas.iter().enumerate() {
        assert_eq!(r.leaked_pages, 0, "replica {i} leaked pages");
    }
    let pinned: usize = rep.replicas.iter().map(|r| r.pages.prefix_hits).sum();
    assert_eq!(pinned, s.prefix_hits + s.pulls.len(), "pin conservation");
    assert_eq!(
        s.prefix_hits + s.pulls.len() + s.cold_turns,
        s.turns - s.sessions,
        "turn conservation"
    );
    assert!(s.prefix_hits > 0, "no prefix hit: {s:?}");

    // Every warm evacuee is traced as `prefix.lost`; one caught mid-prefill
    // must be recharged its full cold prefill on the redispatch target.
    let doc = json::parse(trace).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("events");
    let arg = |e: &json::Value, k: &str| -> f64 {
        e.get("args")
            .and_then(|a| a.get(k))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("prefix.lost without {k}"))
    };
    let model = ModelConfig::llama3_1b();
    let (gpu, link) = (GpuSpec::h100_sxm(), CxlLink::pcie5_x16());
    let (mut lost, mut mid_prefill) = (0usize, 0usize);
    for e in events {
        if e.get("name").and_then(|n| n.as_str()) != Some("prefix.lost") {
            continue;
        }
        lost += 1;
        let id = arg(e, "id") as usize;
        assert!(
            f.redispatches.iter().any(|r| r.id == id),
            "warm evacuee {id} has no redispatch record"
        );
        if arg(e, "mid_prefill") == 1.0 {
            mid_prefill += 1;
            let cold = prefill_cost(&gpu, &link, &model, arg(e, "ctx") as usize, 1024).total_ns;
            assert_eq!(arg(e, "prefill_ns"), cold, "evacuee {id} not charged cold");
        }
    }
    assert!(lost > 0, "no redispatch of a turn that held a pin");
    assert!(mid_prefill > 0, "no warm evacuee caught mid-prefill");
}

#[test]
fn fault_summary_and_timeline_render_the_pinned_golden_text() {
    let timeline = timeline_text(&fleet_schedule(
        &ReplicaFaultProfile::scaled(0.1),
        11,
        2,
        6.0,
    ));
    assert_eq!(
        timeline,
        "    2996994160 r1 brownout-start\n\
         \x20   3384393489 r0 down\n\
         \x20   3996994160 r1 brownout-end\n\
         \x20   5308581298 r1 brownout-start\n\
         \x20   6308581298 r1 brownout-end\n\
         \x20   6384393489 r0 up\n"
    );

    let (_, rep) = serve(crashy());
    let text = rep.to_text();
    let fault_block = "  faults: crashes 1 | brownouts 2 | redispatched 2 | shed 0\n\
                       \x20 downtime: r0 3.00s r1 0.00s\n\
                       \x20 shed by class: interactive 0 batch 0 best-effort 0\n\
                       \x20 goodput: 55 completed of 55 offered (100.0%)\n";
    assert!(
        text.contains(fault_block),
        "fault block drifted from the pinned golden:\n{text}"
    );
}

/// The burn summary's two-line report block, pinned for both the alerting
/// and the quiet shape.
#[test]
fn slo_burn_summary_renders_the_pinned_text() {
    let mut s = SloBurnSummary {
        slo_ms: 2500.0,
        budget: 0.05,
        completions: 28,
        misses: 10,
        consumed: 7.142857142857143,
        alert_windows: 4,
        first_alert_ms: 6750.0,
    };
    assert_eq!(
        s.to_text(),
        "  slo burn: deadline 2500 ms budget 5.0% | 28 interactive, 10 missed | budget consumed 714.3%\n\
         \x20 slo burn alerts: 4 window(s), first at 6750 ms\n"
    );
    s.alert_windows = 0;
    s.misses = 0;
    s.consumed = 0.0;
    assert_eq!(
        s.to_text(),
        "  slo burn: deadline 2500 ms budget 5.0% | 28 interactive, 0 missed | budget consumed 0.0%\n\
         \x20 slo burn alerts: none\n"
    );
}

/// Every event the serving loop can feed a circuit breaker, as a closed
/// transition table: the property test below drives a deterministic event
/// stream through the FSM and checks each step lands in the legal set.
#[derive(Debug, Clone, Copy)]
enum BreakerEvent {
    ForceOpen,
    Recovery,
    Poll,
    Good(SloClass),
    Miss,
    Degraded(u64),
}

/// splitmix64 — the same deterministic stream generator the router uses.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Transition-table property test for the circuit breaker FSM:
///
/// * every `(state, event)` lands in that pair's legal successor set;
/// * a transition is reported (`Some`) exactly when the state changed;
/// * a half-open breaker never re-opens on a clean probe — only an
///   interactive deadline miss (or a crash) can send it back to open;
/// * half-open → closed requires the full clean-probe quota.
#[test]
fn breaker_fsm_transitions_stay_in_the_legal_table() {
    use BreakerState::{Closed, HalfOpen, Open};
    let cfg = BreakerConfig::serving_default();
    let mut b = CircuitBreaker::new(cfg);
    let mut now_ns = 0.0f64;
    let mut clean_probes_since_half_open = 0u32;
    for step in 0..20_000u64 {
        now_ns += (splitmix64(step) % 200_000_000) as f64;
        let before = b.state();
        let ev = match splitmix64(step ^ 0xdead_beef) % 10 {
            0 => BreakerEvent::ForceOpen,
            1 => BreakerEvent::Recovery,
            2 | 3 => BreakerEvent::Poll,
            4 | 5 => BreakerEvent::Good(match splitmix64(step ^ 0x00c0_ffee) % 3 {
                0 => SloClass::Interactive,
                1 => SloClass::Batch,
                _ => SloClass::BestEffort,
            }),
            6..=8 => BreakerEvent::Miss,
            _ => BreakerEvent::Degraded(splitmix64(step ^ 0xf00d) % 2048),
        };
        let reported = match ev {
            BreakerEvent::ForceOpen => b.force_open(now_ns),
            BreakerEvent::Recovery => b.on_recovery(),
            BreakerEvent::Poll => b.poll(now_ns),
            BreakerEvent::Good(class) => b.note_completion(class, cfg.slo_ms * 0.5, now_ns),
            BreakerEvent::Miss => {
                b.note_completion(SloClass::Interactive, cfg.slo_ms * 2.0, now_ns)
            }
            BreakerEvent::Degraded(tok) => b.note_degraded(tok, now_ns),
        };
        let after = b.state();

        // Reported iff changed, and the report names the new state.
        assert_eq!(
            reported.is_some(),
            before != after,
            "step {step}: {before:?} --{ev:?}--> {after:?} reported {reported:?}"
        );
        if let Some(s) = reported {
            assert_eq!(s, after, "step {step}: report must name the new state");
        }

        // The legal successor set of (state, event).
        let legal: &[BreakerState] = match (before, ev) {
            (_, BreakerEvent::ForceOpen) => &[Open],
            (Open, BreakerEvent::Recovery) => &[HalfOpen],
            (s, BreakerEvent::Recovery) => match s {
                Closed => &[Closed],
                HalfOpen => &[HalfOpen],
                Open => unreachable!(),
            },
            (Open, BreakerEvent::Poll) => &[Open, HalfOpen],
            (Closed, BreakerEvent::Poll) => &[Closed],
            (HalfOpen, BreakerEvent::Poll) => &[HalfOpen],
            (Closed, BreakerEvent::Miss) => &[Closed, Open],
            (Closed, BreakerEvent::Good(_)) => &[Closed],
            (Closed, BreakerEvent::Degraded(_)) => &[Closed, Open],
            (HalfOpen, BreakerEvent::Miss) => &[Open],
            (HalfOpen, BreakerEvent::Good(_)) => &[HalfOpen, Closed],
            (HalfOpen, BreakerEvent::Degraded(_)) => &[HalfOpen],
            (Open, _) => &[Open],
        };
        assert!(
            legal.contains(&after),
            "step {step}: illegal transition {before:?} --{ev:?}--> {after:?}"
        );

        // Probes never regress: a clean completion cannot open a breaker,
        // and closing out of half-open needs the full probe quota.
        if before == HalfOpen {
            match ev {
                BreakerEvent::Good(_) => {
                    assert_ne!(after, Open, "step {step}: clean probe opened the breaker");
                    clean_probes_since_half_open += 1;
                    if after == Closed {
                        assert!(
                            clean_probes_since_half_open >= cfg.probe_successes,
                            "step {step}: closed after only {clean_probes_since_half_open} probes"
                        );
                    }
                }
                BreakerEvent::Degraded(_) => {
                    assert_ne!(after, Open, "step {step}: degraded tokens opened a probe");
                }
                _ => {}
            }
        }
        if after != HalfOpen || before != HalfOpen {
            clean_probes_since_half_open = 0;
        }
    }
}
