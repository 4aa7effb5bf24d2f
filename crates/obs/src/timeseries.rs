//! Windowed time-series telemetry driven entirely by simulated time.
//!
//! The sampler slices the simulated clock into fixed `window_ns` intervals
//! and keeps one value per window per named series. Series register
//! themselves on first touch, and because all recording happens on the
//! serial simulation control path, registration order — and therefore every
//! exported byte — is a pure function of the workload, identical across
//! reruns and thread counts.
//!
//! Three series kinds cover everything the serving paths need:
//!
//! - **gauge** — last value written in each window (queue depth, page
//!   occupancy, breaker state). Export forward-fills windows with no sample
//!   from the previous value so step plots do not drop to zero between
//!   samples.
//! - **rate** — values summed within each window (admits, sheds,
//!   redispatches, degraded tokens per window).
//! - **quantile** — a fixed-bucket [`Histogram`] per window, exported as
//!   `<name>.p50` / `<name>.p99` columns (per-window latency quantiles).
//!
//! On top of the sampler sits a multi-window SLO **burn-rate engine**: every
//! interactive completion is classified against the interactive deadline
//! (`BurnConfig::slo_ms`), per-window good/miss totals are kept, and at
//! finalize time each window's burn rate — the miss fraction divided by the
//! error budget — is evaluated over a fast and a slow trailing window. A
//! window where *both* exceed the alert threshold is an alert window
//! (standard multi-window multi-burn-rate alerting: the fast window catches
//! the onset, the slow window suppresses blips).
//!
//! Like [`crate::Recorder::disabled`], the disabled sampler allocates
//! nothing and every record call is an early-return.

use crate::json::{escape_into, fmt_f64};
use crate::metrics::{Histogram, DEFAULT_MS_EDGES};
use std::collections::HashMap;

/// Configuration for the SLO burn-rate engine. All windows are expressed as
/// multiples of the sampler's base window so burn series align with every
/// other exported column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnConfig {
    /// Interactive deadline in milliseconds; a completion above this is a
    /// deadline miss. Matches the breaker's SLO threshold by default.
    pub slo_ms: f64,
    /// Error budget as a miss fraction (0.05 = 5% of interactive requests
    /// may miss the deadline before the budget is exhausted).
    pub budget: f64,
    /// Fast alert window, in base windows (catches onset).
    pub fast_windows: usize,
    /// Slow alert window, in base windows (suppresses blips).
    pub slow_windows: usize,
    /// Alert when both fast and slow burn rates reach this multiple of the
    /// budget (1.0 = burning budget exactly at the sustainable rate).
    pub threshold: f64,
}

impl Default for BurnConfig {
    fn default() -> Self {
        BurnConfig {
            slo_ms: 2500.0,
            budget: 0.05,
            fast_windows: 2,
            slow_windows: 8,
            threshold: 1.0,
        }
    }
}

/// One alert window produced by the burn-rate engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnAlert {
    /// Index of the base window that alerted.
    pub window: usize,
    /// Start of that window in simulated ns (instant timestamp).
    pub t_ns: f64,
    /// Fast-window burn rate at that point (multiples of budget).
    pub fast: f64,
    /// Slow-window burn rate at that point.
    pub slow: f64,
}

/// Whole-run error-budget accounting, computed at finalize time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnTotals {
    /// Interactive deadline in milliseconds (from [`BurnConfig`]).
    pub slo_ms: f64,
    /// Error budget as a miss fraction (from [`BurnConfig`]).
    pub budget: f64,
    /// Interactive completions observed.
    pub completions: u64,
    /// Interactive completions above the deadline.
    pub misses: u64,
    /// Fraction of the error budget consumed over the run
    /// (`miss_fraction / budget`; 1.0 = exhausted).
    pub consumed: f64,
}

#[derive(Debug, Clone, PartialEq)]
enum SeriesData {
    /// Last value written per window (`None` = no sample in that window).
    Gauge(Vec<Option<f64>>),
    /// Values summed per window.
    Rate(Vec<f64>),
    /// One histogram per window.
    Quantile(Vec<Option<Histogram>>),
}

#[derive(Debug, Clone, PartialEq)]
struct Series {
    name: String,
    data: SeriesData,
}

/// The windowed sampler. Embedded in [`crate::Recorder`]; disabled by
/// default and enabled explicitly via [`crate::Recorder::enable_timeseries`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    enabled: bool,
    window_ns: f64,
    burn: BurnConfig,
    series: Vec<Series>,
    index: HashMap<String, usize>,
    slo_good: Vec<u64>,
    slo_miss: Vec<u64>,
}

impl TimeSeries {
    /// A disabled sampler: every record call is a no-op and nothing is
    /// allocated (all vectors have capacity zero).
    pub fn disabled() -> Self {
        TimeSeries {
            enabled: false,
            window_ns: 0.0,
            burn: BurnConfig::default(),
            series: Vec::new(),
            index: HashMap::new(),
            slo_good: Vec::new(),
            slo_miss: Vec::new(),
        }
    }

    /// An enabled sampler with the given base window (simulated ns) and
    /// burn-rate configuration.
    ///
    /// # Panics
    /// If `window_ns` is not a positive finite number, or either burn window
    /// is zero.
    pub fn enabled(window_ns: f64, burn: BurnConfig) -> Self {
        assert!(
            window_ns.is_finite() && window_ns > 0.0,
            "timeseries window must be positive and finite, got {window_ns}"
        );
        assert!(
            burn.fast_windows >= 1 && burn.slow_windows >= 1,
            "burn windows must be at least one base window"
        );
        TimeSeries {
            enabled: true,
            window_ns,
            burn,
            series: Vec::new(),
            index: HashMap::new(),
            slo_good: Vec::new(),
            slo_miss: Vec::new(),
        }
    }

    /// Whether this sampler records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Base window length in simulated ns (0 when disabled).
    pub fn window_ns(&self) -> f64 {
        self.window_ns
    }

    fn window_of(&self, t_ns: f64) -> usize {
        if t_ns.is_finite() && t_ns > 0.0 {
            (t_ns / self.window_ns) as usize
        } else {
            0
        }
    }

    fn series_slot(&mut self, name: &str, make: fn() -> SeriesData) -> &mut SeriesData {
        let i = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.series.len();
                self.index.insert(name.to_string(), i);
                self.series.push(Series {
                    name: name.to_string(),
                    data: make(),
                });
                i
            }
        };
        &mut self.series[i].data
    }

    /// Records a gauge sample: the last write in a window wins.
    pub fn gauge(&mut self, name: &str, t_ns: f64, value: f64) {
        if !self.enabled {
            return;
        }
        let w = self.window_of(t_ns);
        match self.series_slot(name, || SeriesData::Gauge(Vec::new())) {
            SeriesData::Gauge(v) => {
                if v.len() <= w {
                    v.resize(w + 1, None);
                }
                v[w] = Some(value);
            }
            _ => panic!("timeseries series {name} is not a gauge"),
        }
    }

    /// Adds `delta` to a rate series in the window containing `t_ns`.
    pub fn rate_add(&mut self, name: &str, t_ns: f64, delta: f64) {
        if !self.enabled {
            return;
        }
        let w = self.window_of(t_ns);
        match self.series_slot(name, || SeriesData::Rate(Vec::new())) {
            SeriesData::Rate(v) => {
                if v.len() <= w {
                    v.resize(w + 1, 0.0);
                }
                v[w] += delta;
            }
            _ => panic!("timeseries series {name} is not a rate"),
        }
    }

    /// Records one observation into a per-window quantile series (exported
    /// as `<name>.p50` / `<name>.p99`). Buckets use the millisecond SLO-band
    /// edges, matching the latency quantities this is meant for.
    pub fn observe_ms(&mut self, name: &str, t_ns: f64, value: f64) {
        if !self.enabled {
            return;
        }
        let w = self.window_of(t_ns);
        match self.series_slot(name, || SeriesData::Quantile(Vec::new())) {
            SeriesData::Quantile(v) => {
                if v.len() <= w {
                    v.resize(w + 1, None);
                }
                v[w].get_or_insert_with(|| Histogram::new(&DEFAULT_MS_EDGES))
                    .observe(value);
            }
            _ => panic!("timeseries series {name} is not a quantile series"),
        }
    }

    /// Feeds one interactive completion to the burn-rate engine.
    pub fn slo_sample(&mut self, t_ns: f64, latency_ms: f64) {
        if !self.enabled {
            return;
        }
        let w = self.window_of(t_ns);
        if self.slo_good.len() <= w {
            self.slo_good.resize(w + 1, 0);
            self.slo_miss.resize(w + 1, 0);
        }
        if latency_ms > self.burn.slo_ms {
            self.slo_miss[w] += 1;
        } else {
            self.slo_good[w] += 1;
        }
    }

    /// True when no samples of any kind have been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty() && self.slo_good.is_empty()
    }

    /// Number of base windows covered by the recorded data.
    pub fn windows(&self) -> usize {
        let mut n = self.slo_good.len();
        for s in &self.series {
            n = n.max(match &s.data {
                SeriesData::Gauge(v) => v.len(),
                SeriesData::Rate(v) => v.len(),
                SeriesData::Quantile(v) => v.len(),
            });
        }
        n
    }

    /// Burn rate (multiples of budget) over the trailing `span` windows
    /// ending at window `w`, or `None` when that span saw no interactive
    /// completions.
    fn burn_over(&self, w: usize, span: usize) -> Option<f64> {
        let lo = (w + 1).saturating_sub(span);
        let mut good = 0u64;
        let mut miss = 0u64;
        for i in lo..=w {
            if i < self.slo_good.len() {
                good += self.slo_good[i];
                miss += self.slo_miss[i];
            }
        }
        let total = good + miss;
        if total == 0 {
            return None;
        }
        Some(miss as f64 / total as f64 / self.burn.budget)
    }

    /// Evaluates the multi-window burn-rate alert over every recorded
    /// window. Deterministic: a pure function of the per-window totals.
    pub fn burn_alerts(&self) -> Vec<BurnAlert> {
        let mut out = Vec::new();
        if !self.enabled {
            return out;
        }
        for w in 0..self.slo_good.len() {
            let (Some(fast), Some(slow)) = (
                self.burn_over(w, self.burn.fast_windows),
                self.burn_over(w, self.burn.slow_windows),
            ) else {
                continue;
            };
            if fast >= self.burn.threshold && slow >= self.burn.threshold {
                out.push(BurnAlert {
                    window: w,
                    t_ns: w as f64 * self.window_ns,
                    fast,
                    slow,
                });
            }
        }
        out
    }

    /// Whole-run error-budget totals.
    pub fn burn_totals(&self) -> BurnTotals {
        let good: u64 = self.slo_good.iter().sum();
        let miss: u64 = self.slo_miss.iter().sum();
        let total = good + miss;
        let consumed = if total == 0 {
            0.0
        } else {
            miss as f64 / total as f64 / self.burn.budget
        };
        BurnTotals {
            slo_ms: self.burn.slo_ms,
            budget: self.burn.budget,
            completions: total,
            misses: miss,
            consumed,
        }
    }

    /// Expands every series to aligned per-window columns in registration
    /// order: gauges forward-filled (leading empty windows report 0),
    /// rates zero-filled, quantile series expanded to `.p50`/`.p99` columns
    /// (`None` for windows with no observations). When the burn engine saw
    /// any samples, derived `slo.good`, `slo.miss`, `slo.burn.fast`,
    /// `slo.burn.slow`, and `slo.burn.alert` columns are appended.
    pub fn columns(&self) -> Vec<(String, Vec<Option<f64>>)> {
        let n = self.windows();
        let mut out = Vec::with_capacity(self.series.len() + 5);
        for s in &self.series {
            match &s.data {
                SeriesData::Gauge(v) => {
                    let mut col = Vec::with_capacity(n);
                    let mut last = 0.0;
                    for w in 0..n {
                        if let Some(x) = v.get(w).copied().flatten() {
                            last = x;
                        }
                        col.push(Some(last));
                    }
                    out.push((s.name.clone(), col));
                }
                SeriesData::Rate(v) => {
                    let col = (0..n)
                        .map(|w| Some(v.get(w).copied().unwrap_or(0.0)))
                        .collect();
                    out.push((s.name.clone(), col));
                }
                SeriesData::Quantile(v) => {
                    for (suffix, p) in [(".p50", 0.5), (".p99", 0.99)] {
                        let col = (0..n)
                            .map(|w| v.get(w).and_then(|h| h.as_ref()).map(|h| h.quantile(p)))
                            .collect();
                        out.push((format!("{}{suffix}", s.name), col));
                    }
                }
            }
        }
        if !self.slo_good.is_empty() {
            let get = |v: &Vec<u64>, w: usize| v.get(w).copied().unwrap_or(0) as f64;
            out.push((
                "slo.good".to_string(),
                (0..n).map(|w| Some(get(&self.slo_good, w))).collect(),
            ));
            out.push((
                "slo.miss".to_string(),
                (0..n).map(|w| Some(get(&self.slo_miss, w))).collect(),
            ));
            out.push((
                "slo.burn.fast".to_string(),
                (0..n)
                    .map(|w| self.burn_over(w, self.burn.fast_windows))
                    .collect(),
            ));
            out.push((
                "slo.burn.slow".to_string(),
                (0..n)
                    .map(|w| self.burn_over(w, self.burn.slow_windows))
                    .collect(),
            ));
            let alerts = self.burn_alerts();
            let mut alert_col = vec![Some(0.0); n];
            for a in &alerts {
                if a.window < n {
                    alert_col[a.window] = Some(1.0);
                }
            }
            out.push(("slo.burn.alert".to_string(), alert_col));
        }
        out
    }

    /// Tab-separated export: one row per window, one column per series,
    /// `-` for windows with no value. The first column is the window start
    /// in simulated milliseconds. Empty when the sampler is disabled.
    pub fn to_tsv(&self) -> String {
        if !self.enabled {
            return String::new();
        }
        let cols = self.columns();
        let mut out = String::with_capacity(1024);
        out.push_str("# longsight timeseries v1\n");
        out.push_str(&format!("# window_ns {}\n", fmt_f64(self.window_ns)));
        out.push_str("window_ms");
        for (name, _) in &cols {
            out.push('\t');
            out.push_str(name);
        }
        out.push('\n');
        for w in 0..self.windows() {
            out.push_str(&fmt_f64(w as f64 * self.window_ns / 1e6));
            for (_, col) in &cols {
                out.push('\t');
                match col.get(w).copied().flatten() {
                    Some(v) => out.push_str(&fmt_f64(v)),
                    None => out.push('-'),
                }
            }
            out.push('\n');
        }
        out
    }

    /// JSON export: `{"window_ns":..,"windows":..,"series":[{"name":..,
    /// "values":[..]},..]}` with `null` for windows with no value. Empty
    /// when the sampler is disabled.
    pub fn to_json(&self) -> String {
        if !self.enabled {
            return String::new();
        }
        let cols = self.columns();
        let n = self.windows();
        let mut out = String::with_capacity(1024);
        out.push_str("{\"window_ns\":");
        out.push_str(&fmt_f64(self.window_ns));
        out.push_str(",\"windows\":");
        out.push_str(&n.to_string());
        out.push_str(",\"series\":[");
        for (i, (name, col)) in cols.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            escape_into(&mut out, name);
            out.push_str(",\"values\":[");
            for w in 0..n {
                if w > 0 {
                    out.push(',');
                }
                match col.get(w).copied().flatten() {
                    Some(v) => out.push_str(&fmt_f64(v)),
                    None => out.push_str("null"),
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// A parsed timeseries export — the common shape behind the TSV and JSON
/// formats, consumed by `longsight dashboard` and `longsight perf-diff`.
#[derive(Debug, Clone, PartialEq)]
pub struct Export {
    /// Base window length in simulated ns.
    pub window_ns: f64,
    /// Aligned per-window columns in export order.
    pub columns: Vec<(String, Vec<Option<f64>>)>,
}

impl Export {
    /// Number of windows (length of the longest column).
    pub fn windows(&self) -> usize {
        self.columns.iter().map(|(_, c)| c.len()).max().unwrap_or(0)
    }

    /// Parses either export format, sniffing JSON by the leading `{`.
    pub fn parse(src: &str) -> Result<Export, String> {
        if src.trim_start().starts_with('{') {
            Export::parse_json(src)
        } else {
            Export::parse_tsv(src)
        }
    }

    fn parse_json(src: &str) -> Result<Export, String> {
        use crate::json::Value;
        let v = crate::json::parse(src).map_err(|e| format!("invalid JSON: {e}"))?;
        let window_ns = v
            .get("window_ns")
            .and_then(Value::as_f64)
            .ok_or("timeseries JSON missing numeric window_ns")?;
        let series = v
            .get("series")
            .and_then(Value::as_arr)
            .ok_or("timeseries JSON missing series array")?;
        let mut columns = Vec::with_capacity(series.len());
        for s in series {
            let name = s
                .get("name")
                .and_then(Value::as_str)
                .ok_or("series entry missing name")?
                .to_string();
            let vals = s
                .get("values")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("series {name} missing values array"))?;
            let mut col = Vec::with_capacity(vals.len());
            for v in vals {
                col.push(match v {
                    Value::Num(n) => Some(*n),
                    Value::Null => None,
                    _ => return Err(format!("series {name} has a non-numeric value")),
                });
            }
            columns.push((name, col));
        }
        Ok(Export { window_ns, columns })
    }

    fn parse_tsv(src: &str) -> Result<Export, String> {
        let mut window_ns = None;
        let mut names: Option<Vec<String>> = None;
        let mut cols: Vec<Vec<Option<f64>>> = Vec::new();
        let mut rows = 0usize;
        for (lineno, line) in src.lines().enumerate() {
            let line = line.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let rest = rest.trim();
                if let Some(v) = rest.strip_prefix("window_ns ") {
                    window_ns = Some(
                        v.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("line {}: bad window_ns", lineno + 1))?,
                    );
                }
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            match &names {
                None => {
                    if fields.first() != Some(&"window_ms") {
                        return Err(format!(
                            "line {}: expected header starting with window_ms",
                            lineno + 1
                        ));
                    }
                    names = Some(fields[1..].iter().map(|s| s.to_string()).collect());
                    cols = vec![Vec::new(); fields.len() - 1];
                }
                Some(names) => {
                    if fields.len() != names.len() + 1 {
                        return Err(format!(
                            "line {}: {} fields, header has {}",
                            lineno + 1,
                            fields.len(),
                            names.len() + 1
                        ));
                    }
                    for (i, f) in fields[1..].iter().enumerate() {
                        cols[i].push(if *f == "-" {
                            None
                        } else {
                            Some(
                                f.parse::<f64>()
                                    .map_err(|_| format!("line {}: bad value {f:?}", lineno + 1))?,
                            )
                        });
                    }
                    rows += 1;
                }
            }
        }
        let names = names.ok_or("no header row found (not a timeseries export?)")?;
        let window_ns = window_ns.ok_or("missing '# window_ns' comment")?;
        let _ = rows;
        Ok(Export {
            window_ns,
            columns: names.into_iter().zip(cols).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sampler_records_and_allocates_nothing() {
        let mut ts = TimeSeries::disabled();
        ts.gauge("q", 1e9, 3.0);
        ts.rate_add("r", 1e9, 1.0);
        ts.observe_ms("lat_ms", 1e9, 12.0);
        ts.slo_sample(1e9, 9000.0);
        assert!(ts.is_empty());
        assert_eq!(ts.series.capacity(), 0);
        assert_eq!(ts.index.capacity(), 0);
        assert_eq!(ts.slo_good.capacity(), 0);
        assert_eq!(ts.slo_miss.capacity(), 0);
        assert!(ts.burn_alerts().is_empty());
        assert_eq!(ts.burn_totals().completions, 0);
    }

    #[test]
    fn gauge_forward_fills_and_rate_zero_fills() {
        let mut ts = TimeSeries::enabled(100.0, BurnConfig::default());
        ts.gauge("g", 50.0, 2.0); // window 0
        ts.gauge("g", 350.0, 5.0); // window 3
        ts.rate_add("r", 150.0, 1.0); // window 1
        ts.rate_add("r", 160.0, 2.0); // window 1
        let cols = ts.columns();
        assert_eq!(cols[0].0, "g");
        assert_eq!(
            cols[0].1,
            vec![Some(2.0), Some(2.0), Some(2.0), Some(5.0)],
            "gauge must forward-fill"
        );
        assert_eq!(cols[1].0, "r");
        assert_eq!(cols[1].1, vec![Some(0.0), Some(3.0), Some(0.0), Some(0.0)]);
    }

    #[test]
    fn quantile_series_exports_p50_and_p99_columns() {
        let mut ts = TimeSeries::enabled(100.0, BurnConfig::default());
        for v in [1.0, 1.5, 40.0] {
            ts.observe_ms("lat", 10.0, v);
        }
        ts.gauge("g", 250.0, 1.0); // extends to window 2
        let cols = ts.columns();
        let names: Vec<&str> = cols.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["lat.p50", "lat.p99", "g"]);
        assert_eq!(cols[0].1[0], Some(2.0)); // p50 of {1, 1.5, 40} in (1,2] bucket
        assert_eq!(cols[0].1[1], None); // empty window stays empty
        assert_eq!(cols[1].1[0], Some(40.0)); // p99 clamped to max
    }

    #[test]
    fn burn_alert_requires_fast_and_slow_windows() {
        let cfg = BurnConfig {
            slo_ms: 100.0,
            budget: 0.1,
            fast_windows: 1,
            slow_windows: 4,
            threshold: 1.0,
        };
        let mut ts = TimeSeries::enabled(100.0, cfg);
        // Windows 0..3: all good. Window 4: all misses — fast burn is 10x
        // budget, slow burn over windows 1..=4 is 25% miss = 2.5x budget.
        for w in 0..4 {
            for _ in 0..3 {
                ts.slo_sample(w as f64 * 100.0 + 1.0, 10.0);
            }
        }
        for _ in 0..3 {
            ts.slo_sample(401.0, 500.0);
        }
        let alerts = ts.burn_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window, 4);
        assert!((alerts[0].fast - 10.0).abs() < 1e-9);
        assert!((alerts[0].slow - 2.5).abs() < 1e-9);
        let t = ts.burn_totals();
        assert_eq!((t.completions, t.misses), (15, 3));
        assert!((t.consumed - 2.0).abs() < 1e-9); // 20% misses on a 10% budget
    }

    #[test]
    fn single_window_blip_does_not_alert_the_slow_window() {
        let cfg = BurnConfig {
            slo_ms: 100.0,
            budget: 0.1,
            fast_windows: 1,
            slow_windows: 8,
            threshold: 2.0,
        };
        let mut ts = TimeSeries::enabled(100.0, cfg);
        for w in 0..8 {
            for _ in 0..10 {
                ts.slo_sample(w as f64 * 100.0 + 1.0, 10.0);
            }
        }
        ts.slo_sample(701.0, 500.0); // one miss among 81 samples
        assert!(ts.burn_alerts().is_empty());
    }

    #[test]
    fn tsv_and_json_round_trip_through_export_parse() {
        let mut ts = TimeSeries::enabled(1e6, BurnConfig::default());
        ts.gauge("r0.queue.interactive", 0.5e6, 2.0);
        ts.rate_add("fleet.admit", 1.5e6, 1.0);
        ts.observe_ms("lat.request_ms", 2.5e6, 42.0);
        ts.slo_sample(2.5e6, 42.0);
        let a = Export::parse(&ts.to_tsv()).expect("tsv parses");
        let b = Export::parse(&ts.to_json()).expect("json parses");
        assert_eq!(a, b);
        assert_eq!(a.window_ns, 1e6);
        assert_eq!(a.windows(), 3);
        let names: Vec<&str> = a.columns.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"slo.burn.alert"), "names: {names:?}");
    }

    #[test]
    fn export_parse_rejects_malformed_inputs() {
        assert!(Export::parse("").is_err());
        assert!(Export::parse("not\ta\theader\n1\t2\t3\n").is_err());
        assert!(Export::parse("# window_ns 100\nwindow_ms\ta\n0\tbogus\n").is_err());
        assert!(Export::parse("# window_ns 100\nwindow_ms\ta\tb\n0\t1\n").is_err());
        assert!(Export::parse("{\"nope\":1}").is_err());
    }
}
