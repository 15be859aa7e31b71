//! `distscroll-perfbench --workload NAME [--seed N] [--seconds S]
//! [--trace 0|1] [--trace-out FILE]`
//!
//! Runs one workload and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1`, the
//! per-layer ones (and `--trace-out` receives the recorded spans).
//! Exits 1 when a correctness gate fails, 2 on a usage error.

use std::process::ExitCode;

use distscroll_perfbench::{run, Metric, RunConfig, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: distscroll-perfbench --workload study|fleet_ingest|fleet_churn \
         [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]"
    );
    ExitCode::from(2)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed: u64 = 20050607;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut trace_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("--trace takes 0 or 1, not {value:?}")),
            },
            "--trace-out" => trace_out = Some(value),
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    // A traced run alternates untraced and traced passes: give each
    // side at least one. Past those, passes go on for `--seconds`.
    let passes = if trace { 2 } else { 1 };
    let mut result = run(RunConfig {
        seconds,
        ..RunConfig::new(workload, seed, passes, trace)
    });
    let passes = result.passes.len();
    let (attempted, failed) = result.attempted_failed();
    println!(
        "workload {} seed {seed} passes {passes} trace {}",
        workload.name(),
        u8::from(trace)
    );
    println!("digest {}", result.digest());
    println!("{}", result.latency_summary());
    for g in &result.gate_failures {
        println!("GATE FAILED: {g}");
    }

    let metrics = if trace {
        let per_layer = result.per_layer();
        if let (Some(path), Some(tracer)) = (trace_out.as_deref(), result.tracer.as_mut()) {
            let written = std::fs::File::create(path)
                .and_then(|f| tracer.write_tsv(std::io::BufWriter::new(f)));
            match written {
                Ok(()) => println!("spans written to {path}"),
                Err(e) => {
                    eprintln!("error: writing spans to {path}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        per_layer
    } else {
        result.end_to_end()
    };
    for m in &metrics {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let correct = result.gate_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
