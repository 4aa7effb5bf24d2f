//! CLI error-path contract for the telemetry commands: bad flags and bad
//! input files must fail with a nonzero exit code and a diagnostic on
//! stderr, never a panic or a silent success.

use std::path::PathBuf;
use std::process::{Command, Output};

fn longsight(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_longsight"))
        .args(args)
        .output()
        .expect("spawning the longsight binary")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Runs a fast loadtest that writes a real timeseries export, returns its
/// path inside `dir`.
fn write_export(dir: &std::path::Path, name: &str, seed: &str) -> PathBuf {
    let path = dir.join(name);
    let out = longsight(&[
        "loadtest",
        "--model",
        "1b",
        "--rate",
        "4",
        "--duration",
        "2",
        "--ctx-min",
        "16384",
        "--ctx-max",
        "16384",
        "--sched",
        "slo-aware",
        "--seed",
        seed,
        "--timeseries-out",
        path.to_str().expect("utf-8 tmp path"),
    ]);
    assert!(out.status.success(), "loadtest failed: {}", stderr_of(&out));
    path
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("longsight-cli-errors-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating tmpdir");
    dir
}

#[test]
fn bad_ts_window_fails_with_exit_1_and_a_diagnostic() {
    let dir = tmpdir("window");
    let ts = dir.join("ts.tsv");
    for bad in ["0", "-5", "nan", "inf"] {
        let out = longsight(&[
            "loadtest",
            "--model",
            "1b",
            "--duration",
            "1",
            "--timeseries-out",
            ts.to_str().expect("utf-8 tmp path"),
            "--ts-window-ms",
            bad,
        ]);
        assert_eq!(out.status.code(), Some(1), "--ts-window-ms {bad}");
        assert!(
            stderr_of(&out).contains("--ts-window-ms"),
            "stderr must name the flag for value {bad}: {}",
            stderr_of(&out)
        );
    }
    // The window flag without the export flag is a contradiction, not a
    // silent no-op.
    let out = longsight(&[
        "loadtest",
        "--model",
        "1b",
        "--duration",
        "1",
        "--ts-window-ms",
        "250",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("--timeseries-out"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_flag_contradictions_fail_with_exit_1_and_a_diagnostic() {
    // A session with no turns can never open.
    let out = longsight(&[
        "loadtest",
        "--model",
        "1b",
        "--sessions",
        "4",
        "--turns",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(1), "--turns 0 must exit 1");
    assert!(
        stderr_of(&out).contains("--turns"),
        "stderr must name the flag: {}",
        stderr_of(&out)
    );

    // Negative (or non-finite) think times are a typo, not a workload.
    for bad in ["-5", "nan"] {
        let out = longsight(&[
            "loadtest",
            "--model",
            "1b",
            "--sessions",
            "4",
            "--think-time-ms",
            bad,
        ]);
        assert_eq!(out.status.code(), Some(1), "--think-time-ms {bad}");
        assert!(
            stderr_of(&out).contains("--think-time-ms"),
            "stderr must name the flag for value {bad}: {}",
            stderr_of(&out)
        );
    }

    // Affinity routing on one replica is a contradiction: the single
    // replica owns every prefix, so there is nothing to be affine to.
    let out = longsight(&[
        "loadtest",
        "--model",
        "1b",
        "--router",
        "affinity",
        "--replicas",
        "1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "affinity at 1 replica must exit 1"
    );
    assert!(
        stderr_of(&out).contains("--replicas >= 2"),
        "stderr must state the replica floor: {}",
        stderr_of(&out)
    );

    // Session follow-up flags without --sessions are rejected, not
    // silently ignored.
    let out = longsight(&["loadtest", "--model", "1b", "--turns", "3"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("--sessions"),
        "stderr must point at --sessions: {}",
        stderr_of(&out)
    );
}

#[test]
fn unservable_rates_and_durations_fail_with_exit_1_and_a_diagnostic() {
    // A negative or NaN rate, or a NaN duration, would never end the
    // arrival generator; they are refused before anything is generated.
    for (flag, bad) in [("--rate", "-1"), ("--rate", "nan"), ("--duration", "nan")] {
        let out = longsight(&["loadtest", "--model", "1b", flag, bad]);
        assert_eq!(out.status.code(), Some(1), "{flag} {bad}");
        assert!(
            stderr_of(&out).contains("invalid workload"),
            "stderr must name the workload for {flag} {bad}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn dashboard_and_perf_diff_reject_missing_or_malformed_files() {
    let dir = tmpdir("files");
    let missing = dir.join("does-not-exist.tsv");
    let missing_str = missing.to_str().expect("utf-8 tmp path");

    for args in [
        vec!["dashboard", "--file", missing_str],
        vec!["perf-diff", "--self-check", missing_str],
        vec![
            "perf-diff",
            "--baseline",
            missing_str,
            "--candidate",
            missing_str,
        ],
        vec!["perf-diff", "--gate", missing_str],
    ] {
        let out = longsight(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let err = stderr_of(&out);
        assert!(
            err.contains("does-not-exist.tsv"),
            "{args:?} stderr must name the missing file: {err}"
        );
    }

    let garbage = dir.join("garbage.tsv");
    std::fs::write(&garbage, "not a timeseries export\n").expect("writing garbage file");
    let out = longsight(&[
        "perf-diff",
        "--self-check",
        garbage.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("garbage.tsv"));

    let out = longsight(&["dashboard", "--file", garbage.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_diff_rejects_mismatched_series_sets() {
    let dir = tmpdir("mismatch");
    // Different seeds, same shape: this pair diffs cleanly.
    let a = write_export(&dir, "a.tsv", "7");
    let b = write_export(&dir, "b.tsv", "8");
    let out = longsight(&[
        "perf-diff",
        "--baseline",
        a.to_str().expect("utf-8"),
        "--candidate",
        b.to_str().expect("utf-8"),
        "--threshold-pct",
        "100000",
    ]);
    assert!(
        out.status.success(),
        "same-shape diff with a huge threshold must pass: {}",
        stderr_of(&out)
    );

    // Drop the last column from the candidate: the series sets now differ
    // and the diff must fail loudly instead of comparing what matches.
    let text = std::fs::read_to_string(&b).expect("reading export");
    let truncated: String = text
        .lines()
        .map(|l| match l.rsplit_once('\t') {
            Some((keep, _)) => format!("{keep}\n"),
            None => format!("{l}\n"), // comment lines carry no tabs
        })
        .collect();
    let c = dir.join("c.tsv");
    std::fs::write(&c, truncated).expect("writing truncated export");
    let out = longsight(&[
        "perf-diff",
        "--baseline",
        a.to_str().expect("utf-8"),
        "--candidate",
        c.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(1), "mismatched series must exit 1");
    let err = stderr_of(&out);
    assert!(
        err.contains("missing from candidate"),
        "stderr must name the missing series: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_diff_gate_detects_a_pinned_regression() {
    let dir = tmpdir("gate");
    // A trajectory that pins an impossible tail: the real golden tables
    // exceed 0.001 ms, so the gate must report a regression and exit 1.
    let traj = dir.join("trajectory.tsv");
    std::fs::write(
        &traj,
        "# synthetic\nsched_comparison/8s/slo-aware/interactive_p99_request_ms\t0.001\n",
    )
    .expect("writing trajectory");
    let out = Command::new(env!("CARGO_BIN_EXE_longsight"))
        .args(["perf-diff", "--gate", traj.to_str().expect("utf-8")])
        .current_dir(env!("CARGO_MANIFEST_DIR").to_string() + "/../..")
        .output()
        .expect("spawning the longsight binary");
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let err = stderr_of(&out);
    assert!(
        err.contains("regressed"),
        "stderr must report the regression: {err}"
    );

    // An unknown key is a loud error, not a skipped row.
    std::fs::write(&traj, "mystery_table/1r/foo\t100\n").expect("writing trajectory");
    let out = longsight(&["perf-diff", "--gate", traj.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("unknown trajectory table"));
    std::fs::remove_dir_all(&dir).ok();
}
