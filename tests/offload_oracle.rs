//! Bit-identity of the one-plan DReX offload timing path against the
//! per-layer twins it replaced, on the in-repo
//! [`check`](longsight::tensor::check) runner (replay a failure with
//! `LONGSIGHT_PROP_SEED`).
//!
//! The `reference_*` functions below are the replaced bodies, verbatim
//! apart from their names, `self` becoming `sys` (with the private
//! `region` helper spelled out below), and the slice-timing calls, which
//! now go through [`try_time_slice_offload`]:
//!
//! * the layer's issue / complete / faulty halves and the two step
//!   evaluations that composed them, each of which re-derived the region,
//!   head spec and slice shapes and re-timed the same (shape, seed) pairs;
//! * the plain and fault-injected head timings and their per-slice fault
//!   step;
//! * the DCC's inline copy of the slice recurrence (without its queue
//!   check, whose counter never moved).
//!
//! Every generated configuration must reproduce them bit for bit: layer
//! timings and profiles, fault logs and counters, step reports with
//! lookahead on and off, and the Chrome-trace export of a traced layer.

use longsight::cxl::CxlLink;
use longsight::drex::layout::MAX_CONTEXT_SLICE_KEYS;
use longsight::drex::{
    slice_layout, try_time_head_offload, try_time_slice_offload, DccSim, DrexParams,
    FaultedHeadTiming, HeadOffloadSpec, HeadOffloadTiming, HeadWork, RequestTiming,
    REQUEST_QUEUE_DEPTH,
};
use longsight::faults::{
    domain, stream, FaultError, FaultInjector, FaultKind, FaultLog, FaultProfile,
};
use longsight::gpu::decode_step;
use longsight::model::ModelConfig;
use longsight::obs::{ArgVal, Recorder, TrackId};
use longsight::system::{
    DegradeStats, FaultedLayerReport, Infeasible, LongSightConfig, LongSightSystem,
    LookaheadConfig, OffloadComponents, OffloadProfile, ServingSystem, SpecStep, StepBreakdown,
    StepReport,
};
use longsight::tensor::check::{run_cases, Gen};
use longsight::tensor::prop_ensure_eq;

// ---------------------------------------------------------------------------
// Adapters the verbatim bodies call.
// ---------------------------------------------------------------------------

/// The sparse (offloaded) region size for a context length.
fn region(sys: &LongSightSystem, context: usize) -> usize {
    context.saturating_sub(sys.config.hybrid.window + sys.config.hybrid.sinks)
}

/// The panicking slice timing the reference bodies called.
fn slice_timing(
    params: &DrexParams,
    spec: &HeadOffloadSpec,
    slice_keys: usize,
    survivors: usize,
    seed: u64,
) -> HeadOffloadTiming {
    match try_time_slice_offload(params, spec, slice_keys, survivors, seed, None) {
        Ok(t) => t,
        Err(e) => panic!("{e}"),
    }
}

/// The fallible slice timing the reference fault step called.
fn try_slice_timing(
    params: &DrexParams,
    spec: &HeadOffloadSpec,
    slice_keys: usize,
    survivors: usize,
    seed: u64,
) -> Result<HeadOffloadTiming, FaultError> {
    try_time_slice_offload(params, spec, slice_keys, survivors, seed, None)
}

/// The traced slice timing the reference issue half called.
#[allow(clippy::too_many_arguments)]
fn traced_slice_timing(
    params: &DrexParams,
    spec: &HeadOffloadSpec,
    slice_keys: usize,
    survivors: usize,
    seed: u64,
    rec: &mut Recorder,
    track: TrackId,
    start_ns: f64,
) -> Result<HeadOffloadTiming, FaultError> {
    try_time_slice_offload(
        params,
        spec,
        slice_keys,
        survivors,
        seed,
        Some((rec, track, start_ns)),
    )
}

// ---------------------------------------------------------------------------
// The replaced layer plan: issue, complete, faulty, and the evaluations.
// ---------------------------------------------------------------------------

/// The in-flight issue half the reference layer handed to its complete half
/// (a public struct once; the bodies below do not read every field).
#[allow(dead_code)]
#[derive(Debug, Clone)]
struct IssuedLayer {
    ready_rel_ns: f64,
    queue_wait_ns: f64,
    submit_ns: f64,
    response_bytes: usize,
    users: usize,
    slices: usize,
    chain: HeadOffloadTiming,
}

fn reference_drex_layer(
    sys: &LongSightSystem,
    users: usize,
    context: usize,
) -> (f64, OffloadProfile) {
    let mut rec = Recorder::disabled();
    reference_drex_layer_traced(sys, users, context, &mut rec, 0.0)
}

fn reference_drex_layer_traced(
    sys: &LongSightSystem,
    users: usize,
    context: usize,
    rec: &mut Recorder,
    anchor_ns: f64,
) -> (f64, OffloadProfile) {
    match reference_drex_layer_issue(sys, users, context, rec, anchor_ns) {
        Some(issued) => reference_drex_layer_complete(sys, &issued, rec, anchor_ns),
        None => (
            0.0,
            OffloadProfile {
                filter_ns: 0.0,
                bitmap_ns: 0.0,
                addr_gen_ns: 0.0,
                fetch_score_ns: 0.0,
                topk_ns: 0.0,
                queue_wait_ns: 0.0,
                value_cxl_ns: 0.0,
            },
        ),
    }
}

fn reference_drex_layer_issue(
    sys: &LongSightSystem,
    users: usize,
    context: usize,
    rec: &mut Recorder,
    anchor_ns: f64,
) -> Option<IssuedLayer> {
    let cfg = &sys.config;
    let region = region(sys, context);
    let kv = sys.model.kv_heads;
    let d = sys.model.head_dim;
    let k = cfg.hybrid.top_k;
    let group = sys.model.group_size();

    if region == 0 || users == 0 {
        return None;
    }

    let survivors_total = ((region as f64 / cfg.filter_ratio) as usize).min(region);
    let spec = HeadOffloadSpec {
        context_len: region,
        head_dim: d,
        queries: group,
        k: k.min(region),
        survivors: survivors_total,
    };

    // Distinct slice shapes: full slices plus one remainder.
    let slices = region.div_ceil(MAX_CONTEXT_SLICE_KEYS);
    let full_keys = region.min(MAX_CONTEXT_SLICE_KEYS);
    let rem_keys = region - (slices - 1) * MAX_CONTEXT_SLICE_KEYS;
    let surv = |keys: usize| -> usize {
        ((survivors_total as f64) * keys as f64 / region as f64).round() as usize
    };
    // The full and remainder shapes are independent seeded simulations,
    // so they time concurrently; each call returns exactly what a serial
    // call with the same (shape, seed) returns.
    let slice_timings = if rem_keys == full_keys {
        vec![slice_timing(
            &cfg.drex,
            &spec,
            full_keys,
            surv(full_keys).min(full_keys),
            17,
        )]
    } else {
        let shapes = [(full_keys, 17u64), (rem_keys, 18u64)];
        longsight_exec::deterministic_map(&shapes, |_, &(keys, seed)| {
            slice_timing(&cfg.drex, &spec, keys, surv(keys).min(keys), seed)
        })
    };
    let t_full = slice_timings[0].total_ns();
    let t_rem = slice_timings.last().expect("non-empty").total_ns();

    // Schedule every user's slices on the NMA pool.
    let mut dcc = DccSim::new(cfg.drex.clone(), cfg.link.clone(), cfg.geometry.packages);
    let desc_bytes = 8 + sys.model.q_heads * d * 2;
    let submit = cfg.link.descriptor_submit_ns(desc_bytes);
    // Response Descriptor: "a list of 1,024 × H top Keys and Values"
    // (§7.3.1) — k entries per KV head, shared by the GQA group.
    let response_bytes = kv * k.min(region) * (d * 2 + 8);

    if rec.is_enabled() {
        // Phase detail of the critical (full-size) slice, anchored where
        // NMA work begins — after the descriptor submit.
        let nma_track = rec.track("nma.critical");
        let _ = traced_slice_timing(
            &cfg.drex,
            &spec,
            full_keys,
            surv(full_keys).min(full_keys),
            17,
            rec,
            nma_track,
            anchor_ns + submit,
        );
    }
    // Shadow scheduler for span emission at absolute sim time: the busy
    // timeline is shift-invariant, so replaying the identical schedule
    // from `anchor_ns + submit` reproduces the real one exactly, offset.
    let mut shadow = rec
        .is_enabled()
        .then(|| DccSim::new(cfg.drex.clone(), cfg.link.clone(), cfg.geometry.packages));

    let mut last_done = 0.0f64;
    let mut last_wait = 0.0f64;
    for u in 0..users {
        let mut works = Vec::with_capacity(kv * slices);
        for h in 0..kv {
            for s in 0..slices {
                let pkg = (u * kv + h + s * kv) % cfg.geometry.packages;
                let dur = if s + 1 == slices { t_rem } else { t_full };
                works.push((pkg, dur));
            }
        }
        let (done, wait) = dcc.schedule_slices(submit, &works);
        if let Some(sh) = shadow.as_mut() {
            let label = format!("offload.u{u}");
            sh.schedule_slices_traced(anchor_ns + submit, &works, rec, &label);
        }
        if done >= last_done {
            last_done = done;
            last_wait = wait;
        }
    }

    Some(IssuedLayer {
        ready_rel_ns: last_done,
        queue_wait_ns: last_wait + submit,
        submit_ns: submit,
        response_bytes,
        users,
        slices,
        chain: slice_timings[0],
    })
}

fn reference_drex_layer_complete(
    sys: &LongSightSystem,
    issued: &IssuedLayer,
    rec: &mut Recorder,
    anchor_ns: f64,
) -> (f64, OffloadProfile) {
    let cfg = &sys.config;
    let ready_rel = issued.ready_rel_ns;
    let value_cxl = cfg.link.polled_completion_ns(ready_rel) - ready_rel
        + cfg.link.transfer_ns(issued.response_bytes);
    let observed = ready_rel + value_cxl;

    if rec.is_enabled() {
        let cxl_track = rec.track("cxl");
        let desc_bytes = 8 + sys.model.q_heads * sys.model.head_dim * 2;
        let _ = cfg
            .link
            .descriptor_submit_ns_traced(desc_bytes, rec, cxl_track, anchor_ns);
        let polled = cfg.link.polled_completion_ns(ready_rel);
        rec.leaf_with(
            cxl_track,
            "cxl.poll",
            anchor_ns + ready_rel,
            anchor_ns + polled,
            &[("ready_at_ns", ArgVal::F(ready_rel))],
        );
        let _ = cfg.link.transfer_ns_traced(
            issued.response_bytes,
            0,
            rec,
            cxl_track,
            anchor_ns + polled,
        );
        let drex_track = rec.track("drex");
        rec.leaf_with(
            drex_track,
            "drex.offload",
            anchor_ns,
            anchor_ns + observed,
            &[
                ("users", ArgVal::U(issued.users as u64)),
                ("slices", ArgVal::U(issued.slices as u64)),
                ("queue_wait_ns", ArgVal::F(issued.queue_wait_ns)),
            ],
        );
    }

    // Decompose the critical chain's device time for the profile (the
    // full-slice timing computed at issue).
    let chain = issued.chain;
    let profile = OffloadProfile {
        filter_ns: chain.filter_ns,
        bitmap_ns: chain.bitmap_ns,
        addr_gen_ns: chain.addr_gen_ns,
        fetch_score_ns: chain.fetch_score_ns,
        topk_ns: chain.topk_ns,
        queue_wait_ns: issued.queue_wait_ns,
        value_cxl_ns: value_cxl,
    };
    (observed, profile)
}

fn reference_drex_layer_faulty(
    sys: &LongSightSystem,
    users: usize,
    context: usize,
) -> FaultedLayerReport {
    let cfg = &sys.config;
    let inj = FaultInjector::new(cfg.faults.clone(), cfg.fault_seed);
    let retry = cfg.retry;
    let (clean_ns, profile) = reference_drex_layer(sys, users, context);
    let mut report = FaultedLayerReport {
        layer_ns: clean_ns,
        profile,
        log: FaultLog::new(),
        stats: DegradeStats::default(),
        replay_rounds: 0,
        straggled_slices: 0,
    };
    if !inj.is_enabled() || users == 0 || region(sys, context) == 0 {
        return report;
    }

    let region = region(sys, context);
    let kv = sys.model.kv_heads;
    let d = sys.model.head_dim;
    let k = cfg.hybrid.top_k;
    let group = sys.model.group_size();
    let survivors_total = ((region as f64 / cfg.filter_ratio) as usize).min(region);
    let spec = HeadOffloadSpec {
        context_len: region,
        head_dim: d,
        queries: group,
        k: k.min(region),
        survivors: survivors_total,
    };
    let slices = region.div_ceil(MAX_CONTEXT_SLICE_KEYS);
    let full_keys = region.min(MAX_CONTEXT_SLICE_KEYS);
    let rem_keys = region - (slices - 1) * MAX_CONTEXT_SLICE_KEYS;
    let surv = |keys: usize| -> usize {
        ((survivors_total as f64) * keys as f64 / region as f64).round() as usize
    };
    let t_full = slice_timing(
        &cfg.drex,
        &spec,
        full_keys,
        surv(full_keys).min(full_keys),
        17,
    )
    .total_ns();
    let t_rem = if rem_keys == full_keys {
        t_full
    } else {
        slice_timing(&cfg.drex, &spec, rem_keys, surv(rem_keys).min(rem_keys), 18).total_ns()
    };
    let desc_bytes = 8 + sys.model.q_heads * d * 2;
    let submit = cfg.link.descriptor_submit_ns(desc_bytes);
    let response_bytes = kv * k.min(region) * (d * 2 + 8);

    let mut elapsed = vec![0.0f64; users];
    let mut resolved = vec![false; users];
    for attempt in 0..=retry.max_retries {
        if resolved.iter().all(|&r| r) {
            break;
        }
        // Full-batch contention every round: resolved users' completed
        // work still occupies the pool from this step's perspective.
        let mut dcc = DccSim::new(cfg.drex.clone(), cfg.link.clone(), cfg.geometry.packages);
        let mut observed = vec![0.0f64; users];
        for (u, obs) in observed.iter_mut().enumerate() {
            let mut works = Vec::with_capacity(kv * slices);
            for h in 0..kv {
                for s in 0..slices {
                    let pkg = (u * kv + h + s * kv) % cfg.geometry.packages;
                    let base = if s + 1 == slices { t_rem } else { t_full };
                    let key = stream(
                        domain::SLICE,
                        u as u64,
                        (h * slices + s) as u64,
                        attempt as u64,
                    );
                    let mult = inj.straggler_multiplier(key);
                    if mult > 1.0 && !resolved[u] {
                        report
                            .log
                            .push(key, FaultKind::Straggler { multiplier: mult });
                        report.straggled_slices += 1;
                    }
                    works.push((pkg, base * mult));
                }
            }
            let (done, _) = dcc.schedule_slices(submit, &works);
            let link_key = stream(domain::LINK, u as u64, attempt as u64, 0);
            let replays = inj.link_replays(link_key);
            if replays > 0 && !resolved[u] {
                report.log.push(link_key, FaultKind::LinkReplay { replays });
                report.replay_rounds += replays as usize;
            }
            *obs = done + cfg.link.polled_completion_ns_with_replays(done, replays) - done
                + cfg.link.transfer_ns_with_replays(response_bytes, replays);
        }
        for u in 0..users {
            if resolved[u] {
                continue;
            }
            let token_key = stream(domain::TOKEN, u as u64, attempt as u64, 0);
            if observed[u] <= retry.offload_deadline_ns {
                elapsed[u] += observed[u];
                resolved[u] = true;
                if attempt > 0 {
                    report.stats.retried_tokens += 1;
                }
            } else {
                report.log.push(token_key, FaultKind::Timeout { attempt });
                elapsed[u] += retry.offload_deadline_ns;
                if attempt < retry.max_retries {
                    let backoff = retry.backoff_ns(attempt + 1);
                    elapsed[u] += backoff;
                    report.log.push(
                        token_key,
                        FaultKind::Retry {
                            attempt: attempt + 1,
                            backoff_ns: backoff,
                        },
                    );
                } else {
                    report.log.push(token_key, FaultKind::Degraded);
                    report.stats.degraded_tokens += 1;
                }
            }
        }
    }
    // A faulted layer is paced by its slowest user and never beats the
    // fault-free schedule (multipliers ≥ 1, failed attempts cost the
    // full deadline).
    report.layer_ns = elapsed.iter().fold(clean_ns, |acc, &e| acc.max(e));
    report
}

fn reference_evaluate_with_faults(
    sys: &LongSightSystem,
    users: usize,
    context: usize,
) -> Result<(StepReport, FaultLog, DegradeStats), Infeasible> {
    let cfg = &sys.config;
    let resident = (cfg.hybrid.window + cfg.hybrid.sinks).min(context);
    if users > REQUEST_QUEUE_DEPTH {
        return Err(Infeasible::QueueDepth);
    }
    if !longsight_gpu::fits_in_hbm(&cfg.gpu, &sys.model, users, resident) {
        return Err(Infeasible::GpuMemory);
    }
    if sys.drex_max_users(context) < users {
        return Err(Infeasible::DrexMemory);
    }

    let layers = sys.model.layers as f64;
    let k_merged = if region(sys, context) > 0 {
        cfg.hybrid.top_k.min(region(sys, context))
    } else {
        0
    };
    let gpu = decode_step(&cfg.gpu, &sys.model, users, resident, true, k_merged);
    let faulted = reference_drex_layer_faulty(sys, users, context);

    let attn_layer = gpu.attention_ns / layers;
    let overlap = attn_layer.max(faulted.layer_ns);
    let drex_visible = (faulted.layer_ns - attn_layer).max(0.0) * layers;
    let breakdown = StepBreakdown {
        gpu_weights_ns: gpu.weights_ns,
        gpu_attention_ns: attn_layer.min(overlap) * layers,
        gpu_merge_ns: gpu.itq_ns + gpu.merge_ns,
        drex_offload_ns: drex_visible * 0.7,
        cxl_ns: drex_visible * 0.3,
    };
    let report = StepReport::from_breakdown(users, context, breakdown)
        .with_offload(visible_components(&faulted.profile, drex_visible));
    let report = if sys.config.lookahead.enabled {
        let gpu_serial_layer = (gpu.weights_ns + gpu.itq_ns + gpu.merge_ns) / layers;
        reference_lookahead_report(
            sys,
            report,
            drex_visible,
            gpu_serial_layer,
            attn_layer,
            faulted.layer_ns,
            &faulted.profile,
            layers,
        )
    } else {
        report
    };
    Ok((report, faulted.log, faulted.stats))
}

#[allow(clippy::too_many_arguments)]
fn reference_lookahead_report(
    sys: &LongSightSystem,
    serial: StepReport,
    serial_visible_ns: f64,
    gpu_serial_layer: f64,
    attn_layer: f64,
    drex_layer_ns: f64,
    profile: &OffloadProfile,
    layers: f64,
) -> StepReport {
    let la = sys.config.lookahead;
    // A chain issued at step t (when the GPU passes layer ℓ) is needed
    // at step t+1's visit to the same layer — one full revisit period
    // later. Its overlap budget is therefore the GPU work of a whole
    // step, not one layer's slice.
    let budget = (gpu_serial_layer + attn_layer) * layers;
    let hidden_layer = sys.config.link.overlapped_ns(drex_layer_ns, budget);
    let hit_visible = (drex_layer_ns - hidden_layer) * layers;
    let breakdown = StepBreakdown {
        gpu_weights_ns: serial.breakdown.gpu_weights_ns,
        gpu_attention_ns: serial.breakdown.gpu_attention_ns,
        gpu_merge_ns: serial.breakdown.gpu_merge_ns,
        drex_offload_ns: hit_visible * 0.7,
        cxl_ns: hit_visible * 0.3,
    };
    StepReport::from_breakdown(serial.users, serial.context, breakdown)
        .with_offload(visible_components(profile, hit_visible))
        .with_spec(SpecStep {
            chain_ns: drex_layer_ns * layers,
            serial_step_ns: serial.step_ns,
            serial_visible_ns,
            hit_visible_ns: hit_visible,
            refilter_penalty_ns: la.refilter_penalty_ns,
            miss_rate: la.miss_rate,
            slots: la.slots,
            seed: la.seed,
        })
}

fn reference_evaluate(
    sys: &LongSightSystem,
    users: usize,
    context: usize,
) -> Result<StepReport, Infeasible> {
    if sys.config.faults.is_enabled() {
        return reference_evaluate_with_faults(sys, users, context).map(|(r, _, _)| r);
    }
    let cfg = &sys.config;
    let resident = (cfg.hybrid.window + cfg.hybrid.sinks).min(context);
    if users > REQUEST_QUEUE_DEPTH {
        return Err(Infeasible::QueueDepth);
    }
    if !longsight_gpu::fits_in_hbm(&cfg.gpu, &sys.model, users, resident) {
        return Err(Infeasible::GpuMemory);
    }
    if sys.drex_max_users(context) < users {
        return Err(Infeasible::DrexMemory);
    }

    let layers = sys.model.layers as f64;
    let k_merged = if region(sys, context) > 0 {
        cfg.hybrid.top_k.min(region(sys, context))
    } else {
        0
    };
    let gpu = decode_step(&cfg.gpu, &sys.model, users, resident, true, k_merged);
    let (drex_layer_ns, profile) = reference_drex_layer(sys, users, context);

    // Per layer: serial GPU work, then window attention overlapped with
    // the offload.
    let gpu_serial_layer = (gpu.weights_ns + gpu.itq_ns + gpu.merge_ns) / layers;
    let attn_layer = gpu.attention_ns / layers;
    let overlap = attn_layer.max(drex_layer_ns);
    let step_ns = (gpu_serial_layer + overlap) * layers;

    // Breakdown: attention is visible up to the overlap; any remainder
    // is DReX wait (device + CXL attributed proportionally).
    let drex_visible = (drex_layer_ns - attn_layer).max(0.0) * layers;
    let breakdown = StepBreakdown {
        gpu_weights_ns: gpu.weights_ns,
        gpu_attention_ns: attn_layer.min(overlap) * layers,
        gpu_merge_ns: gpu.itq_ns + gpu.merge_ns,
        drex_offload_ns: drex_visible * 0.7,
        cxl_ns: drex_visible * 0.3,
    };
    // Note: breakdown components are constructed to sum to step_ns.
    debug_assert!((breakdown.total_ns() - step_ns).abs() < 1e-3 * step_ns.max(1.0));
    let report = StepReport::from_breakdown(users, context, breakdown)
        .with_offload(visible_components(&profile, drex_visible));
    if sys.config.lookahead.enabled {
        return Ok(reference_lookahead_report(
            sys,
            report,
            drex_visible,
            gpu_serial_layer,
            attn_layer,
            drex_layer_ns,
            &profile,
            layers,
        ));
    }
    Ok(report)
}

fn visible_components(profile: &OffloadProfile, visible_ns: f64) -> OffloadComponents {
    let total = profile.total_ns();
    if total <= 0.0 || visible_ns <= 0.0 {
        return OffloadComponents::default();
    }
    let scale = visible_ns / total;
    let filter = (profile.filter_ns + profile.bitmap_ns + profile.addr_gen_ns) * scale;
    let score = (profile.fetch_score_ns + profile.topk_ns) * scale;
    let queue = profile.queue_wait_ns * scale;
    OffloadComponents {
        filter_ns: filter,
        score_ns: score,
        queue_ns: queue,
        link_ns: visible_ns - filter - score - queue,
    }
}

// ---------------------------------------------------------------------------
// The replaced head timings and their per-slice fault step.
// ---------------------------------------------------------------------------

/// A slice timing with its injected-fault annotations.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultedSliceTiming {
    timing: HeadOffloadTiming,
    straggled: bool,
    false_negatives: usize,
    false_positives: usize,
}

#[allow(clippy::too_many_arguments)]
fn reference_slice_offload_injected(
    params: &DrexParams,
    spec: &HeadOffloadSpec,
    slice_keys: usize,
    survivors: usize,
    seed: u64,
    inj: &FaultInjector,
    event_key: u64,
    timeout_ns: f64,
) -> Result<FaultedSliceTiming, FaultError> {
    let (false_negatives, false_positives) = inj.bitflips(
        longsight_faults::stream(domain::PFU, event_key, 0, 0),
        survivors,
        slice_keys,
    );
    let timed_survivors = (survivors + false_positives).min(slice_keys);
    let base = try_slice_timing(params, spec, slice_keys, timed_survivors, seed)?;
    let mult = inj.straggler_multiplier(longsight_faults::stream(domain::SLICE, event_key, 0, 0));
    let timing = base.scaled(mult);
    if timeout_ns.is_finite() && timing.total_ns() > timeout_ns {
        return Err(FaultError::SliceTimeout {
            elapsed_ns: timing.total_ns(),
            timeout_ns,
        });
    }
    Ok(FaultedSliceTiming {
        timing,
        straggled: mult > 1.0,
        false_negatives,
        false_positives,
    })
}

fn reference_head_offload_injected(
    params: &DrexParams,
    spec: &HeadOffloadSpec,
    seed: u64,
    inj: &FaultInjector,
    event_key: u64,
    timeout_ns: f64,
) -> Result<FaultedHeadTiming, FaultError> {
    if spec.context_len == 0 {
        return Ok(FaultedHeadTiming::default());
    }
    let layout = slice_layout(spec, seed);
    let slices = layout.len();
    let timings = longsight_exec::deterministic_map(&layout, |idx, w| {
        reference_slice_offload_injected(
            params,
            spec,
            w.keys,
            w.survivors,
            w.seed,
            inj,
            longsight_faults::stream(domain::SLICE, event_key, idx as u64, 0),
            timeout_ns,
        )
    });
    let mut agg = FaultedHeadTiming::default();
    for t in timings {
        let t = t?;
        agg.timing = agg.timing.max_with(&t.timing);
        agg.straggled_slices += usize::from(t.straggled);
        agg.false_negatives += t.false_negatives;
        agg.false_positives += t.false_positives;
    }
    if slices > 1 {
        agg.timing.topk_ns +=
            (slices - 1) as f64 * spec.k.min(params.max_k) as f64 * params.dcc_merge_per_entry_ns;
    }
    Ok(agg)
}

fn reference_head_offload(
    params: &DrexParams,
    spec: &HeadOffloadSpec,
    seed: u64,
) -> HeadOffloadTiming {
    if spec.context_len == 0 {
        return HeadOffloadTiming::default();
    }
    // Lay out each slice's work first ([`slice_layout`] is a cheap
    // sequential recurrence) — then time the slices on the parallel map,
    // mirroring the NMAs that run them concurrently. Folding `max_with` in
    // slice order afterwards reproduces the serial result bit-for-bit (ties
    // keep the earlier slice either way).
    let layout = slice_layout(spec, seed);
    let slices = layout.len();
    let timings = longsight_exec::deterministic_map(&layout, |_, w| {
        slice_timing(params, spec, w.keys, w.survivors, w.seed)
    });
    let mut worst = HeadOffloadTiming::default();
    for t in &timings {
        worst = worst.max_with(t);
    }
    // DCC merge of partial top-k lists: k entries per extra slice, pipelined.
    let mut result = worst;
    if slices > 1 {
        result.topk_ns +=
            (slices - 1) as f64 * spec.k.min(params.max_k) as f64 * params.dcc_merge_per_entry_ns;
    }
    result
}

// ---------------------------------------------------------------------------
// The DCC with its inline slice recurrence.
// ---------------------------------------------------------------------------

/// The replaced DCC state: per-package NMA busy timelines and the request
/// count that seeds each slice.
struct ReferenceDcc {
    params: DrexParams,
    link: CxlLink,
    nma_busy: Vec<f64>,
    served: u64,
}

impl ReferenceDcc {
    fn submit(
        &mut self,
        arrival_ns: f64,
        heads: &[HeadWork],
        descriptor_bytes: usize,
        response_bytes: usize,
    ) -> Result<RequestTiming, FaultError> {
        let submitted_ns = arrival_ns + self.link.descriptor_submit_ns(descriptor_bytes);

        let mut device_done = submitted_ns;
        let mut critical = HeadOffloadTiming::default();
        let mut queue_wait: f64 = 0.0;
        for (hi, head) in heads.iter().enumerate() {
            let slices = head
                .spec
                .context_len
                .div_ceil(MAX_CONTEXT_SLICE_KEYS)
                .max(1);
            assert_eq!(
                head.slice_packages.len(),
                slices,
                "head {hi}: {} slice packages for {} slices",
                head.slice_packages.len(),
                slices
            );
            let mut head_done = submitted_ns;
            let mut head_worst = HeadOffloadTiming::default();
            let mut remaining = head.spec.context_len;
            let mut remaining_survivors = head.spec.survivors;
            for (si, &pkg) in head.slice_packages.iter().enumerate() {
                let keys = remaining.min(MAX_CONTEXT_SLICE_KEYS);
                let survivors = if si + 1 == slices {
                    remaining_survivors
                } else {
                    ((head.spec.survivors as f64) * keys as f64
                        / head.spec.context_len.max(1) as f64)
                        .round() as usize
                }
                .min(remaining_survivors)
                .min(keys);
                remaining -= keys;
                remaining_survivors -= survivors;
                if keys == 0 {
                    continue;
                }
                let t = slice_timing(
                    &self.params,
                    &head.spec,
                    keys,
                    survivors,
                    (self.served << 16) ^ ((hi as u64) << 8) ^ si as u64,
                );
                let slot = pkg % self.nma_busy.len();
                let nma = &mut self.nma_busy[slot];
                let start = nma.max(submitted_ns);
                queue_wait = queue_wait.max(start - submitted_ns);
                let end = start + t.total_ns();
                *nma = end;
                if end > head_done {
                    head_done = end;
                    head_worst = t;
                }
            }
            // After ranking, the NMA streams the k winning Value vectors out
            // of LPDDR into the Response Buffer (channel-interleaved like the
            // keys; a small serial tail after the last slice finishes).
            let value_bytes = (head.spec.k.min(self.params.max_k) * head.spec.head_dim * 2) as f64;
            let package_bw = 8.0 * self.params.dram.channel_bandwidth_gbps();
            head_done += value_bytes / package_bw + self.params.dram.row_conflict_latency();
            if head_done > device_done {
                device_done = head_done;
                critical = head_worst;
            }
        }

        // GPU observes completion via polling, then reads the response.
        let ready_rel = device_done - arrival_ns;
        let value_read_ns = self.link.transfer_ns(response_bytes);
        let observed_ns = arrival_ns + self.link.polled_completion_ns(ready_rel) + value_read_ns;

        self.served += 1;
        Ok(RequestTiming {
            submitted_ns,
            device_done_ns: device_done,
            observed_ns,
            value_read_ns,
            critical_head: critical,
            queue_wait_ns: queue_wait,
        })
    }
}

// ---------------------------------------------------------------------------
// Generated cases.
// ---------------------------------------------------------------------------

/// A paper-default system on Llama-3-1B or -8B, with lookahead on or off
/// and faults off, mild or severe under a random seed.
fn gen_system(g: &mut Gen) -> LongSightSystem {
    let model = if g.bool() {
        ModelConfig::llama3_1b()
    } else {
        ModelConfig::llama3_8b()
    };
    let mut cfg = LongSightConfig::paper_default();
    match g.usize_in(0, 3) {
        0 => {}
        1 => cfg = cfg.with_faults(FaultProfile::mild(), g.u64_in(0, 1 << 40)),
        _ => cfg = cfg.with_faults(FaultProfile::severe(), g.u64_in(0, 1 << 40)),
    }
    if g.bool() {
        cfg = cfg.with_lookahead(LookaheadConfig::serving_default());
    }
    LongSightSystem::new(cfg, model)
}

/// A context at an edge of the layer plan half the time — empty, either
/// side of the resident window, either side of one Context Slice (raw and
/// as a region), 128K, 1M — and uniform up to 1M otherwise.
fn gen_context(g: &mut Gen, sys: &LongSightSystem) -> usize {
    let w = sys.config.hybrid.window + sys.config.hybrid.sinks;
    let m = MAX_CONTEXT_SLICE_KEYS;
    let edges = [
        0,
        w - 1,
        w,
        w + 1,
        m - 1,
        m,
        m + 1,
        m + w - 1,
        m + w,
        m + w + 1,
        131_072,
        1 << 20,
    ];
    if g.bool() {
        edges[g.usize_in(0, edges.len())]
    } else {
        g.usize_in(0, (1 << 20) + 1)
    }
}

#[test]
fn layer_plan_reproduces_the_replaced_layers_and_steps() {
    run_cases(
        "layer_plan_reproduces_the_replaced_layers_and_steps",
        96,
        |g| {
            let sys = gen_system(g);
            let users = g.usize_in(0, 65);
            let context = gen_context(g, &sys);
            let case = format!("{} users={users} context={context}", sys.model.name);

            let (ns, profile) = sys.drex_layer(users, context);
            let (ref_ns, ref_profile) = reference_drex_layer(&sys, users, context);
            prop_ensure_eq!(ns.to_bits(), ref_ns.to_bits(), "layer ns, {case}");
            prop_ensure_eq!(
                format!("{profile:?}"),
                format!("{ref_profile:?}"),
                "profile, {case}"
            );
            // Equal contexts make the mixed layer the uniform one.
            let mixed = sys.drex_layer_mixed(&vec![context; users]);
            prop_ensure_eq!(
                format!("{mixed:?}"),
                format!("{:?}", (ref_ns, ref_profile)),
                "mixed layer, {case}"
            );

            let faulted = sys.drex_layer_faulty(users, context);
            let ref_faulted = reference_drex_layer_faulty(&sys, users, context);
            prop_ensure_eq!(
                format!("{faulted:?}"),
                format!("{ref_faulted:?}"),
                "faulted layer, {case}"
            );

            let mut stepped = sys.clone();
            prop_ensure_eq!(
                format!("{:?}", stepped.evaluate(users, context)),
                format!("{:?}", reference_evaluate(&sys, users, context)),
                "evaluate, {case}"
            );
            prop_ensure_eq!(
                format!("{:?}", stepped.evaluate_with_faults(users, context)),
                format!("{:?}", reference_evaluate_with_faults(&sys, users, context)),
                "evaluate_with_faults, {case}"
            );
            Ok(())
        },
    );
}

#[test]
fn traced_layer_exports_the_replaced_trace_byte_for_byte() {
    run_cases(
        "traced_layer_exports_the_replaced_trace_byte_for_byte",
        48,
        |g| {
            let sys = gen_system(g);
            let users = g.usize_in(0, 65);
            let context = gen_context(g, &sys);
            let anchor_ns = g.f64_in(0.0, 1e9);
            let case = format!("{} users={users} context={context}", sys.model.name);

            let mut rec = Recorder::enabled();
            let traced = sys.drex_layer_traced(users, context, &mut rec, anchor_ns);
            let mut ref_rec = Recorder::enabled();
            let (ref_ns, ref_profile) =
                reference_drex_layer_traced(&sys, users, context, &mut ref_rec, anchor_ns);
            prop_ensure_eq!(
                traced.observed_ns.to_bits(),
                ref_ns.to_bits(),
                "layer ns, {case}"
            );
            prop_ensure_eq!(
                format!("{:?}", traced.profile),
                format!("{ref_profile:?}"),
                "profile, {case}"
            );
            prop_ensure_eq!(
                rec.chrome_trace_json(),
                ref_rec.chrome_trace_json(),
                "trace export, {case}"
            );
            // The issue-ready instant the replaced issue half exposed.
            let ready =
                reference_drex_layer_issue(&sys, users, context, &mut Recorder::disabled(), 0.0)
                    .map_or(0.0, |issued| issued.ready_rel_ns);
            prop_ensure_eq!(
                traced.ready_ns.to_bits(),
                ready.to_bits(),
                "ready ns, {case}"
            );
            Ok(())
        },
    );
}

#[test]
fn head_offload_reproduces_the_replaced_head_timings() {
    run_cases(
        "head_offload_reproduces_the_replaced_head_timings",
        96,
        |g| {
            let params = DrexParams::paper();
            let context = g.usize_in(0, 5 * MAX_CONTEXT_SLICE_KEYS + 1);
            let spec = HeadOffloadSpec {
                context_len: context,
                head_dim: if g.bool() { 64 } else { 128 },
                queries: g.usize_in(1, 33),
                k: g.usize_in(1, params.max_k + 1),
                survivors: (context as f64 * g.f64_in(0.0, 0.3)) as usize,
            };
            let seed = g.u64_in(0, 1 << 40);
            let case = format!("{spec:?} seed={seed}");

            let plain = try_time_head_offload(&params, &spec, seed, None);
            let ref_plain = reference_head_offload(&params, &spec, seed);
            prop_ensure_eq!(
                format!("{plain:?}"),
                format!(
                    "{:?}",
                    Ok::<_, FaultError>(FaultedHeadTiming {
                        timing: ref_plain,
                        ..FaultedHeadTiming::default()
                    })
                ),
                "plain head, {case}"
            );

            let profile = if g.bool() {
                FaultProfile::mild()
            } else {
                FaultProfile::severe()
            };
            let inj = FaultInjector::new(profile, g.u64_in(0, 1 << 40));
            let event_key = g.u64_in(0, 1 << 40);
            let timeout_ns = if g.bool() {
                f64::INFINITY
            } else {
                ref_plain.total_ns() * g.f64_in(0.5, 3.0)
            };
            let faulted =
                try_time_head_offload(&params, &spec, seed, Some((&inj, event_key, timeout_ns)));
            let ref_faulted =
                reference_head_offload_injected(&params, &spec, seed, &inj, event_key, timeout_ns);
            prop_ensure_eq!(
                format!("{faulted:?}"),
                format!("{ref_faulted:?}"),
                "faulted head, {case} key={event_key} timeout={timeout_ns}"
            );
            Ok(())
        },
    );
}

#[test]
fn dcc_submit_reproduces_the_inline_slice_recurrence() {
    run_cases(
        "dcc_submit_reproduces_the_inline_slice_recurrence",
        64,
        |g| {
            let params = DrexParams::paper();
            let link = CxlLink::pcie5_x16();
            let packages = g.usize_in(1, 9);
            let mut dcc = DccSim::new(params.clone(), link.clone(), packages);
            let mut reference = ReferenceDcc {
                params,
                link,
                nma_busy: vec![0.0; packages],
                served: 0,
            };
            // Several requests in a row: the per-request seeds and the busy
            // timelines carry over between them.
            for request in 0..g.usize_in(1, 4) {
                let mut heads = Vec::new();
                for _ in 0..g.usize_in(1, 5) {
                    let context = g.usize_in(0, 3 * MAX_CONTEXT_SLICE_KEYS + 1);
                    let slices = context.div_ceil(MAX_CONTEXT_SLICE_KEYS).max(1);
                    let mut slice_packages = Vec::with_capacity(slices);
                    for _ in 0..slices {
                        slice_packages.push(g.usize_in(0, 2 * packages));
                    }
                    heads.push(HeadWork {
                        spec: HeadOffloadSpec {
                            context_len: context,
                            head_dim: 128,
                            queries: g.usize_in(1, 9),
                            k: g.usize_in(1, 1025),
                            survivors: (context as f64 * g.f64_in(0.0, 0.3)) as usize,
                        },
                        slice_packages,
                    });
                }
                let arrival_ns = g.f64_in(0.0, 1e6);
                let timing = dcc.submit(arrival_ns, &heads, 4096, 256 * 1024);
                let ref_timing = reference
                    .submit(arrival_ns, &heads, 4096, 256 * 1024)
                    .map_err(|e| e.to_string())?;
                prop_ensure_eq!(
                    format!("{timing:?}"),
                    format!("{ref_timing:?}"),
                    "request {request} of {heads:?}"
                );
            }
            Ok(())
        },
    );
}
