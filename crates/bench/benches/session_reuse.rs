//! Session reuse: prefill work and interactive tail latency vs prefix
//! reuse rate, with the content-keyed prefix cache + session-affine
//! routing against cold JSQ routing, at 2 and 4 replicas.
//!
//! Every cell sees byte-identical session traffic (the reuse draws live
//! on their own RNG stream, so sweeping the reuse rate never moves an
//! arrival, context length, or class); only the reuse rate, router, and
//! cache arming differ. The mechanism this bench pins: a follow-up turn
//! re-sends everything the model already saw, so cold routing pays full
//! re-prefill for a context that grows every turn, while the warm rows
//! resume on the replica that owns the prefix (or — in the
//! ownership-blind warm rows — pull its pages over the pooled-DReX
//! fabric when that is cheaper than recomputing) and prefill only the
//! new suffix. `results/session_reuse.txt` pins the claim; the bench
//! itself asserts that at reuse >= 0.5 every warm cell beats its cold
//! twin on both total prefill work and interactive p99, that the blind
//! rows take the pull path, and that affinity never prefills more than
//! blind routing.
//!
//! A second table runs the warm reuse-0.9 cells under replica crashes with
//! the circuit breaker on (fault domains and sessions composed in one
//! fleet run): a crash drops its evacuees' prefix pins and reprices warm
//! ones cold, and the bench asserts the fleet and session audits still
//! pass in every crash cell.

use longsight_bench::print_table;
use longsight_faults::ReplicaFaultProfile;
use longsight_model::ModelConfig;
use longsight_obs::Recorder;
use longsight_sched::{BreakerConfig, RouterPolicy, SchedPolicy, SloClass, SloMix};
use longsight_system::serving::{simulate_fleet, FleetFaultOptions, SchedOptions, WorkloadConfig};
use longsight_system::{LongSightConfig, LongSightSystem, ServingSystem, SessionOptions};

struct Cell {
    prefill_s: f64,
    p99_ms: f64,
    hits: usize,
    pulls: usize,
    cold_turns: usize,
    crashes: usize,
    redispatches: usize,
}

fn run(
    replicas: usize,
    reuse: f64,
    cache_pages: usize,
    policy: RouterPolicy,
    fopts: &FleetFaultOptions,
) -> Cell {
    let model = ModelConfig::llama3_1b();
    let mut fleet: Vec<Box<dyn ServingSystem>> = (0..replicas)
        .map(|_| {
            Box::new(LongSightSystem::new(
                LongSightConfig::paper_default(),
                model.clone(),
            )) as Box<dyn ServingSystem>
        })
        .collect();
    let wl = WorkloadConfig {
        arrivals_per_s: 2.0, // unused: session traffic replaces the Poisson stream
        context_tokens: (32_768, 65_536),
        output_tokens: (16, 64),
        duration_s: 16.0,
        seed: 11,
    };
    // Think times above the ~1-2 s per-turn service time (so most
    // follow-ups arrive after their prefix has been published) but with
    // enough concurrent sessions per replica that queues form: the
    // prefill work a warm resume skips then shortens everyone's wait,
    // which is what moves the tail.
    let sess = SessionOptions {
        sessions: 8 * replicas,
        turns: 4,
        think_time_ms: 3000.0,
        reuse,
        prefix_cache_pages: cache_pages,
    };
    let opts = SchedOptions {
        policy: SchedPolicy::SloAware,
        mix: SloMix::all_interactive(),
        page_tokens: 1024,
        prefill_chunk_tokens: 8192,
        prefill_slots: 1,
        hbm_watermark: 0.9,
    };
    let (_, rep) = simulate_fleet(
        &mut fleet,
        &model,
        &wl,
        &opts,
        policy,
        fopts,
        &sess,
        &mut Recorder::disabled(),
    );
    assert_eq!(
        rep.audit_violation, None,
        "fleet audit must pass for every cell"
    );
    let s = rep.sessions.as_ref().expect("session summary attached");
    Cell {
        prefill_s: rep.replicas.iter().map(|r| r.prefill_work_ns).sum::<f64>() / 1e9,
        p99_ms: rep.per_class[SloClass::Interactive.index()].p99_request_ms,
        hits: s.prefix_hits,
        pulls: s.pulls.len(),
        cold_turns: s.cold_turns,
        crashes: rep.faults.as_ref().map_or(0, |f| f.crashes),
        redispatches: rep.faults.as_ref().map_or(0, |f| f.redispatches.len()),
    }
}

fn main() {
    let calm = FleetFaultOptions::disabled();
    let mut rows = Vec::new();
    for replicas in [2usize, 4] {
        for reuse in [0.0f64, 0.5, 0.9] {
            let warm = run(replicas, reuse, 4096, RouterPolicy::Affinity, &calm);
            // Ownership-blind routing with the cache still armed: resumes
            // land wherever JSQ sends them, so reuse must go through the
            // pooled-DReX pull path instead of the owner fast path.
            let blind = run(replicas, reuse, 4096, RouterPolicy::JsqSpillover, &calm);
            let cold = run(replicas, reuse, 0, RouterPolicy::JsqSpillover, &calm);
            for (router, cache, c) in [
                ("affinity", "4096", &warm),
                ("jsq", "4096", &blind),
                ("jsq", "off", &cold),
            ] {
                rows.push(vec![
                    format!("{replicas}"),
                    format!("{reuse:.2}"),
                    router.to_string(),
                    cache.to_string(),
                    format!("{:.2} s", c.prefill_s),
                    c.hits.to_string(),
                    c.pulls.to_string(),
                    c.cold_turns.to_string(),
                    format!("{:.0} ms", c.p99_ms),
                ]);
            }
            if reuse >= 0.5 {
                assert!(
                    blind.pulls > 0,
                    "ownership-blind warm routing must exercise the \
                     pooled-DReX pull path at {replicas} replicas, reuse {reuse}"
                );
                assert!(
                    warm.prefill_s <= blind.prefill_s,
                    "affinity must not prefill more than ownership-blind \
                     routing at {replicas} replicas, reuse {reuse}: \
                     {:.2} s vs {:.2} s",
                    warm.prefill_s,
                    blind.prefill_s,
                );
                assert!(
                    warm.prefill_s < cold.prefill_s,
                    "prefix cache + affinity must cut total prefill work at \
                     {replicas} replicas, reuse {reuse}: \
                     {:.2} s (warm) vs {:.2} s (cold)",
                    warm.prefill_s,
                    cold.prefill_s,
                );
                assert!(
                    warm.p99_ms < cold.p99_ms,
                    "prefix cache + affinity must beat cold routing on the \
                     interactive p99 at {replicas} replicas, reuse {reuse}: \
                     {:.0} ms (warm) vs {:.0} ms (cold)",
                    warm.p99_ms,
                    cold.p99_ms,
                );
            }
        }
    }
    print_table(
        "Session reuse — Llama-3-1B, 4 turns/session on seed 11, prefix cache + affinity vs cold JSQ",
        &[
            "Replicas",
            "Reuse",
            "Router",
            "Cache pg",
            "Prefill",
            "Hits",
            "Pulls",
            "Cold",
            "int p99 req",
        ],
        &rows,
    );
    println!("\nshape: each (replicas, reuse) cell runs three modes on byte-identical");
    println!("session traffic — the reuse draws live on their own RNG stream, so");
    println!("sweeping reuse moves no arrival. The affinity rows resume follow-ups");
    println!("on the replica that owns their prefix, so reuse lands as local pin");
    println!("hits (Hits); the warm jsq rows route ownership-blind, so reuse must");
    println!("go through the pooled-DReX pull path (Pulls, priced at two fabric");
    println!("hops per page) and pays slightly more prefill than affinity; the");
    println!("cache-off jsq rows are the cold baseline, re-prefilling a context");
    println!("that grows every turn. At reuse 0 the cache cannot hit and all three");
    println!("modes collapse to the same work. From reuse 0.5 up, every warm cell");
    println!("beats its cold twin on total prefill work and interactive p99, the");
    println!("blind rows exercise the pull path, and affinity prefills no more");
    println!("than blind routing (all asserted). Cold counts follow-ups whose");
    println!("prefix was unusable: edited context or a reuse-rate miss.");

    // Sessions under replica crashes: the same warm reuse-0.9 traffic on a
    // crash/brownout schedule with the breaker on.
    let crashy = FleetFaultOptions {
        profile: ReplicaFaultProfile::scaled(0.1),
        fault_seed: 11,
        breaker: Some(BreakerConfig::serving_default()),
        shed_queue_cap: None,
    };
    let mut crash_rows = Vec::new();
    for replicas in [2usize, 4] {
        for (router, policy) in [
            ("affinity", RouterPolicy::Affinity),
            ("jsq", RouterPolicy::JsqSpillover),
        ] {
            let c = run(replicas, 0.9, 4096, policy, &crashy);
            assert!(
                c.crashes > 0,
                "the crash schedule must fire at {replicas} replicas ({router})"
            );
            crash_rows.push(vec![
                format!("{replicas}"),
                router.to_string(),
                c.crashes.to_string(),
                c.redispatches.to_string(),
                format!("{:.2} s", c.prefill_s),
                c.hits.to_string(),
                c.pulls.to_string(),
                c.cold_turns.to_string(),
                format!("{:.0} ms", c.p99_ms),
            ]);
        }
    }
    println!();
    print_table(
        "Sessions under replica crashes — reuse 0.90, cache 4096 pg, crash profile 0.10 on fault seed 11, breaker on",
        &[
            "Replicas",
            "Router",
            "Crashes",
            "Redisp",
            "Prefill",
            "Hits",
            "Pulls",
            "Cold",
            "int p99 req",
        ],
        &crash_rows,
    );
    println!("\nshape: fault domains and sessions compose in one fleet run. A crash");
    println!("evacuates the replica's turns, drops their prefix pins, reprices warm");
    println!("evacuees to their cold prefill, and moves each pending prefix");
    println!("publication to the redispatch target. Every crash cell passes the");
    println!("fleet audit (offered = placed + shed, no leaked pages, zero live");
    println!("pins) and the session audit (hits + pulls + cold = follow-up turns),");
    println!("all asserted.");
}
