//! The benchmark's own checks: identical seeds give identical counts,
//! a different seed changes the inputs, and a corrupted answer or a
//! reply from a stale version trips the correctness gates. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dpsd_perfbench::inputs::{Inputs, Scale};
use dpsd_perfbench::Workload;
use serde::Value;
use std::process::Command;

/// A short run at the test sizes; returns success and stdout.
fn perfbench(workload: &str, seed: u64, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--quick",
        ])
        .args(extra)
        .output()
        .expect("perfbench starts");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

fn result(stdout: &str) -> Value {
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON result")
}

fn value(result: &Value, metric: &str) -> u64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{metric} missing"))
        .to_bits()
}

fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line"))
}

#[test]
fn same_seed_gives_identical_counts() {
    for workload in Workload::ALL {
        let runs: Vec<String> = (0..2)
            .map(|_| {
                let (ok, stdout) = perfbench(workload.name(), 7, &["--trace", "1"]);
                assert!(ok, "{} failed:\n{stdout}", workload.name());
                stdout
            })
            .collect();
        let (a, b) = (result(&runs[0]), result(&runs[1]));
        for metric in [
            "cache.hit_ratio",
            "flat.counts_per_rect",
            "wire.request_bytes",
            "wire.response_bytes",
            "flat.resident_bytes",
            "cache.entries",
        ] {
            assert_eq!(
                value(&a, metric),
                value(&b, metric),
                "{} {metric}",
                workload.name()
            );
        }
        for prefix in ["accuracy:", "versions:"] {
            assert_eq!(
                line(&runs[0], prefix),
                line(&runs[1], prefix),
                "{}",
                workload.name()
            );
        }
    }
}

#[test]
fn another_seed_changes_the_rects() {
    let bits = |inputs: &Inputs| -> Vec<u64> {
        inputs
            .pool
            .iter()
            .flat_map(|r| r.min.into_iter().chain(r.max))
            .map(f64::to_bits)
            .collect()
    };
    for workload in Workload::ALL {
        let inputs = |seed| Inputs::generate(workload, seed, &Scale::QUICK).expect("inputs");
        let (one, again, two) = (inputs(1), inputs(1), inputs(2));
        assert_eq!(bits(&one), bits(&again), "{}", workload.name());
        assert_ne!(bits(&one), bits(&two), "{}", workload.name());
    }
}

/// Runs write_mix with `fault` planted and checks that the gate whose
/// message contains `gate` fails and the run exits non-zero.
fn trips(fault: &str, gate: &str) {
    let (ok, stdout) = perfbench("write_mix", 3, &["--trace", "0", fault]);
    assert!(!ok, "the run must exit non-zero:\n{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("GATE FAILED") && l.contains(gate)),
        "{stdout}"
    );
    assert_eq!(
        result(&stdout).get("correct").and_then(Value::as_bool),
        Some(false)
    );
}

#[test]
fn a_corrupted_answer_trips_the_gate() {
    trips("--corrupt-answer", "differs from the direct synopsis");
}

#[test]
fn a_stale_version_trips_the_gate() {
    trips("--stale-version", "where 2 is live");
}
