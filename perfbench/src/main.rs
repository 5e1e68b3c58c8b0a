//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 if any
//! correctness gate fails, 2 on a usage error.

use dpsd_perfbench::bench::{run, Fault, Options};
use dpsd_perfbench::inputs::Scale;
use dpsd_perfbench::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload query_cold|write_mix --seed N \
                     --seconds N --trace 0|1 [--spans PATH] [--quick] \
                     [--corrupt-answer|--stale-version]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::QueryCold,
        seed: 0,
        seconds: 0,
        trace: false,
        scale: Scale::FULL,
        fault: None,
        spans: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans" => opts.spans = Some(value()?.into()),
            // Small inputs for the benchmark's own tests.
            "--quick" => opts.scale = Scale::QUICK,
            "--corrupt-answer" => opts.fault = Some(Fault::CorruptAnswer),
            "--stale-version" => opts.fault = Some(Fault::StaleVersion),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    opts.workload = Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!(
            "{:<28} {:>16.4} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &outcome.errors {
        println!("GATE FAILED: {e}");
    }
    println!(
        "attempted={} failed={} correct={}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // Full precision; JSON has no NaN, so a missing value is null.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
