//! Self-tests of the benchmark: metric declarations, the result line, the
//! tiny size of every workload, and thread-count independence of the
//! simulated outputs.

use longsight_obs::json::{self, Value};
use perfbench::{result_json, run, RunArgs, Scale, Workload, END_TO_END, PER_LAYER};
use std::sync::Mutex;
use std::time::Instant;

/// The worker-thread count is process-global: tests that run workloads
/// take this lock so one test's count never leaks into another's run.
static THREADS: Mutex<()> = Mutex::new(());

fn tiny(trace: bool) -> RunArgs {
    RunArgs {
        seed: 3,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    for list in [END_TO_END, PER_LAYER] {
        for (i, &(name, unit)) in list.iter().enumerate() {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(
                list[..i].iter().all(|&(n, _)| n != name),
                "metric {name} declared twice"
            );
        }
    }
}

/// Parses a result line into `(correct, attempted, [(name, unit, value)])`,
/// asserting its exact shape.
fn parse_result(line: &str) -> (bool, f64, Vec<(String, String, f64)>) {
    let v = json::parse(line).expect("result line is JSON");
    let Value::Obj(fields) = &v else {
        panic!("result is not an object: {line}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let correct = v.get("correct") == Some(&Value::Bool(true));
    let attempted = v
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    let failed = v.get("failed").and_then(Value::as_f64).expect("failed");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0 && failed.fract() == 0.0);
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        panic!("metrics is not an object: {line}")
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            (name.clone(), unit.to_string(), value)
        })
        .collect();
    (correct, attempted, metrics)
}

#[test]
fn every_workload_runs_at_tiny_size_and_emits_exactly_its_metrics() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    longsight_exec::set_thread_count(2);
    for w in Workload::ALL {
        for trace in [false, true] {
            let t0 = Instant::now();
            let out = run(w, &tiny(trace));
            let took = t0.elapsed().as_secs_f64();
            assert!(
                out.correct(),
                "{} failed: {:?}",
                w.name(),
                out.check_failures
            );
            assert!(took < 60.0, "{} took {took:.1} s at tiny size", w.name());

            let (correct, _, metrics) = parse_result(&result_json(&out, trace));
            assert!(correct, "{} printed correct: false", w.name());
            let declared = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(n, u, _)| (n.as_str(), u.as_str()))
                .collect();
            assert_eq!(got, declared, "{} trace={trace}", w.name());
            if !trace {
                for (name, _, value) in &metrics {
                    assert!(*value > 0.0, "{} end-to-end {name} reads {value}", w.name());
                }
            }
        }
    }
}

/// Per-layer metrics that do not depend on host timing or the thread
/// count: everything but host times, host-time ratios and `exec.threads`.
fn deterministic(name: &str, unit: &str) -> bool {
    !unit.starts_with("host_") && !name.ends_with("overhead_x") && name != "exec.threads"
}

#[test]
fn simulated_outputs_are_identical_at_one_and_two_threads() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let at = |threads: usize| {
            longsight_exec::set_thread_count(threads);
            let out = run(w, &tiny(true));
            assert!(
                out.correct(),
                "{} failed: {:?}",
                w.name(),
                out.check_failures
            );
            let values: Vec<(&str, f64)> = PER_LAYER
                .iter()
                .filter(|&&(n, u)| deterministic(n, u))
                .map(|&(n, _)| (n, out.get(n).unwrap_or(0.0)))
                .collect();
            (values, out.attempted, out.failed)
        };
        let one = at(1);
        let two = at(2);
        for ((name, a), (_, b)) in one.0.iter().zip(&two.0) {
            assert!(
                a.to_bits() == b.to_bits(),
                "{} {name}: {a} at 1 thread, {b} at 2",
                w.name()
            );
        }
        assert_eq!((one.1, one.2), (two.1, two.2), "{}", w.name());
    }
}

#[test]
fn benchmark_json_declares_the_same_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let v = json::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names("workloads"), workloads);
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names("per_layer"), layers);
}
