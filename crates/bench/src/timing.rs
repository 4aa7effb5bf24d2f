//! A minimal wall-clock timing harness for the bench targets.
//!
//! The workspace builds with zero external dependencies, so the criterion
//! micro-benchmark framework is replaced by this module: calibrated inner
//! iteration counts, a warmup pass, and median-of-N sampling. It reports the
//! `[min median max]` triple per benchmark in the same shape the criterion
//! goldens under `results/` used, so regenerated outputs stay diffable.
//!
//! Sample counts are tuned for benchmark stability, not statistical rigor —
//! the results/ goldens are shape references (is this microseconds or
//! milliseconds?), not regression gates.
//!
//! # Example
//!
//! ```
//! use longsight_bench::timing;
//!
//! let t = timing::measure(|| std::hint::black_box(7u64.wrapping_mul(13)));
//! assert!(t.min_ns <= t.median_ns && t.median_ns <= t.max_ns);
//! ```

use std::time::Instant;

/// Target wall-clock time for one timed sample, in nanoseconds. The inner
/// iteration count is calibrated so a sample takes about this long.
const TARGET_SAMPLE_NS: f64 = 2_000_000.0;

/// Number of timed samples per benchmark (the median of these is reported).
const SAMPLES: usize = 25;

/// Warmup budget before sampling, in nanoseconds.
const WARMUP_NS: f64 = 100_000_000.0;

/// Per-iteration timing statistics from [`measure`].
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Fastest sample's mean nanoseconds per iteration.
    pub min_ns: f64,
    /// Median sample's mean nanoseconds per iteration.
    pub median_ns: f64,
    /// Slowest sample's mean nanoseconds per iteration.
    pub max_ns: f64,
    /// Inner iterations per sample (after calibration).
    pub iters_per_sample: u64,
}

/// Times `f`, returning per-iteration statistics.
///
/// Calibrates an inner iteration count targeting ~2 ms per sample, warms
/// up for ~100 ms, then records 25 samples and summarizes them. Wrap
/// inputs/outputs in [`std::hint::black_box`] inside `f` to keep the
/// optimizer honest.
pub fn measure<R, F: FnMut() -> R>(mut f: F) -> Timing {
    let iters = calibrate(&mut f);
    let warm_start = Instant::now();
    while (warm_start.elapsed().as_nanos() as f64) < WARMUP_NS {
        std::hint::black_box(f());
    }
    summarize(iters, (0..SAMPLES).map(|_| sample(&mut f, iters)).collect())
}

/// Times `f` and `g` against each other: [`measure`] for both, with their
/// warm-up and their samples interleaved (`f`, `g`, `g`, `f`, `f`, `g`, …)
/// so that a slow phase of a shared host lands on both alike rather than
/// on whichever ran during it.
pub fn measure_pair<R, S, F, G>(mut f: F, mut g: G) -> (Timing, Timing)
where
    F: FnMut() -> R,
    G: FnMut() -> S,
{
    let (f_iters, g_iters) = (calibrate(&mut f), calibrate(&mut g));
    let warm_start = Instant::now();
    while (warm_start.elapsed().as_nanos() as f64) < WARMUP_NS {
        std::hint::black_box(f());
        std::hint::black_box(g());
    }
    let (mut fs, mut gs) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for i in 0..SAMPLES {
        if i % 2 == 0 {
            fs.push(sample(&mut f, f_iters));
            gs.push(sample(&mut g, g_iters));
        } else {
            gs.push(sample(&mut g, g_iters));
            fs.push(sample(&mut f, f_iters));
        }
    }
    (summarize(f_iters, fs), summarize(g_iters, gs))
}

/// The inner iteration count that makes one sample of `f` take about
/// [`TARGET_SAMPLE_NS`]: grow the count until one batch is measurable,
/// then scale to the target.
fn calibrate<R>(f: &mut impl FnMut() -> R) -> u64 {
    let mut iters: u64 = 1;
    let per_iter_ns = loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        if elapsed >= 10_000.0 || iters >= 1 << 40 {
            break elapsed / iters as f64;
        }
        iters *= 10;
    };
    ((TARGET_SAMPLE_NS / per_iter_ns).max(1.0)) as u64
}

/// Mean nanoseconds per iteration over one sample of `iters` calls.
fn sample<R>(f: &mut impl FnMut() -> R, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn summarize(iters_per_sample: u64, mut samples: Vec<f64>) -> Timing {
    samples.sort_by(f64::total_cmp);
    Timing {
        min_ns: samples[0],
        median_ns: samples[SAMPLES / 2],
        max_ns: samples[SAMPLES - 1],
        iters_per_sample,
    }
}

/// Formats nanoseconds the way the criterion goldens did (`4.40 ns`,
/// `509.22 us`, `66.02 ms`).
fn fmt_time(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

/// Formats an element rate (`607.62 Melem/s`, `29.07 Gelem/s`).
fn fmt_rate(elems_per_sec: f64) -> String {
    if elems_per_sec >= 1e9 {
        format!("{:.2} Gelem/s", elems_per_sec / 1e9)
    } else if elems_per_sec >= 1e6 {
        format!("{:.2} Melem/s", elems_per_sec / 1e6)
    } else {
        format!("{:.2} Kelem/s", elems_per_sec / 1e3)
    }
}

/// Times `f` and prints a criterion-style report line.
///
/// With `elements = Some(n)`, a throughput line (`n` elements per iteration)
/// is printed below the timing line.
pub fn bench_report<R, F: FnMut() -> R>(name: &str, elements: Option<u64>, f: F) -> Timing {
    let t = measure(f);
    println!(
        "{name:<23} time:   [{} {} {}]",
        fmt_time(t.min_ns),
        fmt_time(t.median_ns),
        fmt_time(t.max_ns)
    );
    if let Some(n) = elements {
        let rate = |ns: f64| n as f64 / (ns * 1e-9);
        println!(
            "{:<23} thrpt:  [{} {} {}]",
            "",
            fmt_rate(rate(t.max_ns)),
            fmt_rate(rate(t.median_ns)),
            fmt_rate(rate(t.min_ns))
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_orders_statistics() {
        let t = measure(|| std::hint::black_box((0..100u64).sum::<u64>()));
        assert!(t.min_ns > 0.0);
        assert!(t.min_ns <= t.median_ns);
        assert!(t.median_ns <= t.max_ns);
        assert!(t.iters_per_sample >= 1);
    }

    #[test]
    fn measure_pair_orders_both_statistics() {
        let (a, b) = measure_pair(
            || std::hint::black_box((0..100u64).sum::<u64>()),
            || std::hint::black_box((0..10u64).product::<u64>()),
        );
        for t in [a, b] {
            assert!(t.min_ns > 0.0);
            assert!(t.min_ns <= t.median_ns && t.median_ns <= t.max_ns);
            assert!(t.iters_per_sample >= 1);
        }
    }

    #[test]
    fn formats_match_golden_shapes() {
        assert_eq!(fmt_time(4.4028), "4.40 ns");
        assert_eq!(fmt_time(509_220.0), "509.22 us");
        assert_eq!(fmt_time(66_018_000.0), "66.02 ms");
        assert_eq!(fmt_rate(607.62e6), "607.62 Melem/s");
        assert_eq!(fmt_rate(29.072e9), "29.07 Gelem/s");
    }
}
