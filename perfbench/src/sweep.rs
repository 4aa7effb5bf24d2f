//! The trace_sweep workload: one Llama-like head trace, an ITQ rotation
//! trained on its first keys, and a Fig 3/4 SCF-threshold sweep of
//! `evaluate_trace` at W = 1024, k = 1024.
//!
//! The sweep evaluates a fixed threshold grid (no early exit), so every
//! seed does the same number of evaluations. The layer run replays the
//! pieces of `evaluate_trace` one pass at a time, each on the same
//! deterministic parallel map, and reports what none of them covers.

use crate::{
    calibrate, calibrated, peak_rss_mb, repeat_for, secs, Outcome, RunArgs, Scale, MAX_REPS,
};
use longsight_core::trace_eval::{evaluate_trace, TraceQuality};
use longsight_core::{filter_block_packed, HybridConfig, ItqConfig, ItqRotation, PFU_BLOCK_KEYS};
use longsight_model::tracegen::{generate_head_trace, HeadTrace, TraceConfig};
use longsight_model::{attend_over_indices, HeadKv};
use longsight_tensor::{vecops, Matrix, SignArena, SimRng, TopK};
use std::time::Instant;

/// Output-error budget of a usable operating point (Fig 3: within 5% of
/// dense attention).
pub const QUALITY_BUDGET: f64 = 0.05;

/// SCF thresholds the sweep evaluates.
pub const THRESHOLDS: [u32; 8] = [64, 68, 70, 72, 74, 76, 78, 80];

/// Trace, rotation and pipeline configuration; built in set-up.
pub struct Inputs {
    /// The head trace.
    pub trace: HeadTrace,
    /// ITQ rotation trained on the trace's first keys.
    pub rotation: ItqRotation,
    /// Hybrid attention configuration (W, sinks, k).
    pub config: HybridConfig,
    /// Host ms of trace generation.
    pub tracegen_ms: f64,
    /// Host ms of ITQ training.
    pub itq_ms: f64,
}

impl Inputs {
    /// Generates the trace from `seed` and trains the rotation.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (keys, train) = match scale {
            Scale::Full => (32_768, 1024),
            Scale::Tiny => (4096, 256),
        };
        let t0 = Instant::now();
        let mut rng = SimRng::seed_from(seed);
        let trace = generate_head_trace(&TraceConfig::llama_like(128, keys), &mut rng);
        let tracegen_ms = secs(t0) * 1e3;
        let t0 = Instant::now();
        let rotation = train_itq(&trace, train, seed);
        let itq_ms = secs(t0) * 1e3;
        Self {
            trace,
            rotation,
            config: HybridConfig {
                window: 1024,
                sinks: 16,
                top_k: 1024,
            },
            tracegen_ms,
            itq_ms,
        }
    }
}

/// Trains ITQ on the first `n` keys, unit-normalized (the Fig 3 recipe).
fn train_itq(trace: &HeadTrace, n: usize, seed: u64) -> ItqRotation {
    let d = trace.keys.dim();
    let n = n.min(trace.len());
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        let k = trace.keys.get(i);
        let norm = vecops::l2_norm(k).max(1e-9);
        data.extend(k.iter().map(|x| x / norm));
    }
    ItqRotation::train(
        &Matrix::from_vec(n, d, data),
        &ItqConfig {
            iterations: 30,
            seed,
        },
    )
}

/// One sweep point's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// SCF threshold.
    pub threshold: u32,
    /// Top-k recall.
    pub topk_recall: f64,
    /// Relative output error vs dense.
    pub output_rel_err: f64,
    /// Non-window filter ratio.
    pub filter_ratio: f64,
    /// Keys scored (SCF survivors), summed over probes.
    pub scored: u64,
}

fn point(threshold: u32, q: &TraceQuality) -> Point {
    Point {
        threshold,
        topk_recall: q.topk_recall,
        output_rel_err: q.output_rel_err,
        filter_ratio: q.stats.filter_ratio_nonwindow(),
        scored: q.stats.scored,
    }
}

/// Evaluates every threshold of the grid.
pub fn sweep(inp: &Inputs) -> Vec<Point> {
    THRESHOLDS
        .iter()
        .map(|&th| {
            point(
                th,
                &evaluate_trace(&inp.trace, &inp.rotation, &inp.config, th),
            )
        })
        .collect()
}

/// The best point within the budget: highest filter ratio.
pub fn best(points: &[Point]) -> Option<&Point> {
    points
        .iter()
        .filter(|p| p.output_rel_err <= QUALITY_BUDGET)
        .max_by(|a, b| a.filter_ratio.total_cmp(&b.filter_ratio))
}

/// Runs trace_sweep.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut setup_calib = Vec::new();
    let mut inputs = None;
    let reps = if args.scale == Scale::Tiny {
        1
    } else {
        SETUP_REPS
    };
    for _ in 0..reps {
        setup_calib.push(calibrate());
        let t0 = Instant::now();
        let inp = Inputs::new(args.seed, args.scale);
        setups.push(secs(t0));
        inputs = Some(inp);
    }
    let inp = inputs.expect("set-up ran");
    setup_calib.push(calibrate());
    out.set("setup_s", calibrated(&setups, &setup_calib));

    let (times, calib, points) = repeat_for(
        args.seconds,
        3,
        MAX_REPS,
        || sweep(&inp),
        |a, b| a == b,
        &mut out,
    );
    out.set("host_s", calibrated(&times, &calib));
    eprintln!("perfbench: host s {times:?}, calibration s {calib:?}");
    eprintln!("perfbench: setup s {setups:?}, calibration s {setup_calib:?}");
    out.set("peak_rss_mb", peak_rss_mb());
    out.attempted = points.len() as u64;
    for p in &points {
        eprintln!(
            "perfbench: threshold {} recall {:.4} rel_err {:.4} filter_ratio {:.3}",
            p.threshold, p.topk_recall, p.output_rel_err, p.filter_ratio
        );
    }

    match best(&points) {
        Some(b) => {
            out.set("topk_recall", b.topk_recall);
            out.set("output_rel_err", b.output_rel_err);
            out.set("filter_ratio_at_budget", b.filter_ratio);
            out.set("sweep.threshold", f64::from(b.threshold));
            out.check(b.filter_ratio.is_finite() && b.filter_ratio > 0.0, || {
                format!("filter ratio {} at the best point", b.filter_ratio)
            });
        }
        None => out.check(false, || "no threshold meets the quality budget".into()),
    }
    out.check(
        points.windows(2).all(|w| w[0].scored >= w[1].scored),
        || "survivors grew with the SCF threshold".into(),
    );

    if args.trace {
        out.set("tracegen.ms", inp.tracegen_ms);
        out.set("itq.train_ms", inp.itq_ms);
        layer_run(&mut out, &inp, &points);
    }
    out
}

/// Set-ups per run; the calibrated median is reported.
const SETUP_REPS: usize = 3;

/// The layer run: a timed sweep, then each piece of `evaluate_trace`
/// replayed over the same thresholds as its own pass.
fn layer_run(out: &mut Outcome, inp: &Inputs, points: &[Point]) {
    let trace = &inp.trace;
    let cfg = &inp.config;
    let n = trace.len();
    let d = trace.keys.dim();
    let window_start = n.saturating_sub(cfg.window);
    let sinks_end = cfg.sinks.min(window_start);
    let scale = 1.0 / (d as f32).sqrt();
    let mut history = HeadKv::new(d);
    for i in 0..n {
        history.push(trace.keys.get(i), trace.values.get(i));
    }
    let all: Vec<usize> = (0..n).collect();

    let mut eval_ms = 0.0;
    let (mut rotate_ms, mut scan_ms, mut dot_ms, mut topk_ms, mut attend_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut keys_scanned = 0u64;
    let mut survivors = 0u64;
    for p in points {
        let th = p.threshold;
        let t0 = Instant::now();
        let q = evaluate_trace(trace, &inp.rotation, cfg, th);
        eval_ms += secs(t0) * 1e3;
        out.check(point(th, &q) == *p, || {
            format!("layer-run evaluation at threshold {th} differs from the plain run")
        });

        // Key re-rotation into the packed sign store (serial, as in
        // evaluate_trace).
        let t0 = Instant::now();
        let mut arena = SignArena::new(d);
        for k in trace.keys.iter() {
            inp.rotation.signs_into(k, &mut arena);
        }
        rotate_ms += secs(t0) * 1e3;

        // SCF scan: one PFU epoch per 128-key block, per probe.
        let t0 = Instant::now();
        let bitmaps: Vec<Vec<u128>> =
            longsight_exec::deterministic_map(&trace.queries, |_, probe| {
                let qs = inp.rotation.signs(&probe.q);
                let mut maps =
                    Vec::with_capacity((window_start - sinks_end).div_ceil(PFU_BLOCK_KEYS));
                let mut block = sinks_end;
                while block < window_start {
                    let end = (block + PFU_BLOCK_KEYS).min(window_start);
                    maps.push(filter_block_packed(&qs, &arena, block..end, th));
                    block = end;
                }
                maps
            });
        scan_ms += secs(t0) * 1e3;
        let kept: u64 = bitmaps
            .iter()
            .flatten()
            .map(|m| u64::from(m.count_ones()))
            .sum();
        keys_scanned += ((window_start - sinks_end) * trace.queries.len()) as u64;
        survivors += kept;
        out.check(kept == q.stats.scored, || {
            format!(
                "replayed scan kept {kept} keys at threshold {th}, evaluate_trace scored {}",
                q.stats.scored
            )
        });

        // Exact dot scoring of every region key, per probe.
        let t0 = Instant::now();
        let scores: Vec<Vec<f32>> =
            longsight_exec::deterministic_map(&trace.queries, |_, probe| {
                (sinks_end..window_start)
                    .map(|i| vecops::dot(&probe.q, history.keys().get(i)))
                    .collect()
            });
        dot_ms += secs(t0) * 1e3;

        // Top-k: the exact heap over all region keys and the hybrid heap
        // over survivors.
        let t0 = Instant::now();
        let candidates: Vec<Vec<usize>> = longsight_exec::map_range(trace.queries.len(), |qi| {
            let mut top = TopK::new(cfg.top_k);
            let mut true_top = TopK::new(cfg.top_k);
            for (j, &s) in scores[qi].iter().enumerate() {
                let i = sinks_end + j;
                true_top.push(s, i);
                if bitmaps[qi][j / PFU_BLOCK_KEYS] >> (j % PFU_BLOCK_KEYS) & 1 == 1 {
                    top.push(s, i);
                }
            }
            std::hint::black_box(true_top.into_sorted_vec());
            let mut c: Vec<usize> = (0..sinks_end).collect();
            c.extend(top.into_sorted_vec().iter().map(|s| s.index));
            c.extend(window_start..n);
            c.sort_unstable();
            c
        });
        topk_ms += secs(t0) * 1e3;

        // Hybrid and dense attention outputs, per probe.
        let t0 = Instant::now();
        let outs = longsight_exec::map_range(trace.queries.len(), |qi| {
            let q = &trace.queries[qi].q;
            (
                attend_over_indices(q, &history, &candidates[qi], scale),
                attend_over_indices(q, &history, &all, scale),
            )
        });
        attend_ms += secs(t0) * 1e3;
        std::hint::black_box(outs);
    }
    let replayed = rotate_ms + scan_ms + dot_ms + topk_ms + attend_ms;
    out.set("trace_eval.calls", points.len() as f64);
    out.set("trace_eval.host_ms", eval_ms);
    out.set("itq.rotate_ms", rotate_ms);
    out.set("scf.scan_ms", scan_ms);
    out.set("scf.keys_scanned", keys_scanned as f64);
    out.set(
        "scf.ns_per_key",
        scan_ms * 1e6 / (keys_scanned.max(1) as f64),
    );
    out.set("scf.survivors", survivors as f64);
    out.set(
        "scf.filter_ratio",
        keys_scanned as f64 / (survivors.max(1) as f64),
    );
    out.set("score.dot_ms", dot_ms);
    out.set("topk.ms", topk_ms);
    out.set("attend.ms", attend_ms);
    out.set("trace_eval.other_ms", eval_ms - replayed);
    out.set("layer_run.host_ms", eval_ms + replayed);
}
