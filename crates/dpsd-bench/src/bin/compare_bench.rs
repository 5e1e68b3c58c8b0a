//! Diffs two `BENCH_*.json` reports (the criterion shim's
//! `CRITERION_JSON` output) and flags median-time regressions.
//!
//! ```text
//! compare_bench <baseline.json> <candidate.json> [--threshold-pct N]
//!               [--assert-order <slower_id> <faster_id>]...
//! ```
//!
//! Benchmarks are matched by id. For each match the median-ns delta is
//! printed; any regression beyond the threshold (default 15%, the CI
//! gate) fails the run with exit code 1. Ids present in only one report
//! are listed but never fail the comparison — adding or retiring a
//! bench is not a regression. Exit code 2 reports usage/parse errors.
//!
//! `--assert-order` (repeatable) adds an intra-report gate on the
//! **candidate**: the bench named by `<faster_id>` must have a median
//! no worse than `<slower_id>`'s. CI uses it to pin claims like "binary
//! load is not slower than JSON parse" to the run's own numbers, with a
//! self-diff (`compare_bench R.json R.json --assert-order ...`) when
//! there is no baseline to regress against.

use std::process::ExitCode;

/// Default regression gate, in percent median-time increase.
const DEFAULT_THRESHOLD_PCT: f64 = 15.0;

struct Report {
    bench: String,
    /// `(id, median_ns)` in file order.
    entries: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let bench = value
        .get("bench")
        .and_then(|b| b.as_str())
        .unwrap_or("?")
        .to_string();
    let benches = value
        .get("benches")
        .and_then(|b| b.as_array())
        .ok_or_else(|| format!("{path}: no `benches` array"))?;
    let mut entries = Vec::with_capacity(benches.len());
    for rec in benches {
        let id = rec
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{path}: bench record without id"))?;
        let median = rec
            .get("median_ns")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{path}: {id} has no median_ns"))?;
        entries.push((id.to_string(), median));
    }
    Ok(Report { bench, entries })
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:9.1} ns")
    } else if ns < 1e6 {
        format!("{:9.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:9.2} ms", ns / 1e6)
    } else {
        format!("{:9.3} s ", ns / 1e9)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD_PCT;
    let mut order_gates: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold-pct" => {
                i += 1;
                threshold = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(t) => t,
                    None => {
                        eprintln!("--threshold-pct needs a number");
                        return ExitCode::from(2);
                    }
                };
            }
            "--assert-order" => {
                let (Some(slower), Some(faster)) = (args.get(i + 1), args.get(i + 2)) else {
                    eprintln!("--assert-order needs <slower_id> <faster_id>");
                    return ExitCode::from(2);
                };
                order_gates.push((slower.clone(), faster.clone()));
                i += 2;
            }
            p => paths.push(p.to_string()),
        }
        i += 1;
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        eprintln!(
            "usage: compare_bench <baseline.json> <candidate.json> [--threshold-pct N] \
             [--assert-order <slower_id> <faster_id>]..."
        );
        return ExitCode::from(2);
    };
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare_bench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "comparing {} (baseline) -> {} (candidate), regression gate {threshold}%",
        baseline.bench, candidate.bench
    );
    let mut regressions = 0usize;
    let mut matched = 0usize;
    for (id, new_median) in &candidate.entries {
        let Some((_, old_median)) = baseline.entries.iter().find(|(b_id, _)| b_id == id) else {
            println!("  NEW      {id} {}", fmt_ns(*new_median));
            continue;
        };
        matched += 1;
        let delta_pct = (new_median - old_median) / old_median * 100.0;
        let verdict = if delta_pct > threshold {
            regressions += 1;
            "REGRESSED"
        } else if delta_pct < -threshold {
            "improved "
        } else {
            "ok       "
        };
        println!(
            "  {verdict} {id:<55} {} -> {} ({delta_pct:+6.1}%)",
            fmt_ns(*old_median),
            fmt_ns(*new_median)
        );
    }
    for (id, _) in &baseline.entries {
        if !candidate.entries.iter().any(|(c_id, _)| c_id == id) {
            println!("  RETIRED  {id}");
        }
    }
    let mut order_failures = 0usize;
    for (slower_id, faster_id) in &order_gates {
        let lookup = |id: &str| {
            candidate
                .entries
                .iter()
                .find(|(c_id, _)| c_id == id)
                .map(|&(_, median)| median)
        };
        let (Some(slower), Some(faster)) = (lookup(slower_id), lookup(faster_id)) else {
            eprintln!(
                "compare_bench: --assert-order ids `{slower_id}` / `{faster_id}` not both in {candidate_path}"
            );
            return ExitCode::from(2);
        };
        let verdict = if faster <= slower {
            "ORDER ok  "
        } else {
            order_failures += 1;
            "ORDER FAIL"
        };
        println!(
            "  {verdict} {faster_id} ({}) must not be slower than {slower_id} ({})",
            fmt_ns(faster).trim(),
            fmt_ns(slower).trim()
        );
    }
    println!(
        "{matched} matched, {regressions} regression(s) beyond {threshold}%, {order_failures} order violation(s)"
    );
    if regressions > 0 || order_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
