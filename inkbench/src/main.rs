//! `inkbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path inkbench/Cargo.toml -- \
//!     --workload <gcn-max-dg10|sage-mean-dg1000|serve-zipf> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, sets the program up, measures
//! for the given time, checks the outputs, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones. See
//! `inkbench/README.md`.

mod calib;
mod engine;
mod inputs;
mod report;
mod serve;

use report::Metrics;
use std::process::ExitCode;

/// What a workload run produced besides its metrics.
pub struct Outcome {
    /// Failed correctness gates; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Operations attempted (engine rounds, or serve requests).
    pub attempted: u64,
    /// Operations that failed (errors, rejections, missing responses).
    pub failed: u64,
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 5] = [
    "visible_ms_p50",
    "visible_ms_p90",
    "changes_per_s",
    "setup_s",
    "rss_mb",
];

/// Per-layer metrics only the serving workload has; the engine workloads
/// report them as 0 (not applicable).
const SERVE_ONLY: [(&str, &str); 19] = [
    ("serve.visible_ms_p99", "ms"),
    ("serve.read_ms_p50", "ms"),
    ("serve.read_ms_p99", "ms"),
    ("serve.ack_ms_p50", "ms"),
    ("serve.ack_ms_p99", "ms"),
    ("serve.ack_to_visible_ms_p50", "ms"),
    ("serve.ack_to_visible_ms_p99", "ms"),
    ("serve.epochs", "count"),
    ("serve.changes_per_epoch", "count"),
    ("serve.coalesce_ratio", "frac"),
    ("serve.max_queue_depth", "count"),
    ("serve.reported.admission_wait_ms_p50", "ms"),
    ("serve.reported.admission_wait_ms_p99", "ms"),
    ("serve.reported.apply_ms_p50", "ms"),
    ("serve.reported.apply_ms_p99", "ms"),
    ("serve.gen_late_ms_p99", "ms"),
    ("serve.backlog_end", "count"),
    ("serve.backlog_end_b", "count"),
    ("serve.failed_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("inkbench: {e}");
            return ExitCode::from(2);
        }
    };
    let graph = format!(
        "rmat(graph500) n={} m={} undirected, features {} sparse power-law, hidden {}",
        inputs::VERTICES,
        inputs::EDGES,
        inputs::FEATURES,
        inputs::HIDDEN
    );
    // The engine applies each batch on one thread. Fork-join rounds on two
    // shared vCPUs made identical runs swing 40-59 ms (a preempted or
    // slowed vCPU sets the round time); on one thread they hold steady.
    // Set before any parallel call reads it.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let fingerprint = report::fingerprint(&args.workload, args.seed, &graph);
    let mut metrics = Metrics::default();
    let outcome = match args.workload.as_str() {
        "gcn-max-dg10" => {
            let spec = engine::EngineSpec {
                sage: false,
                delta: 10,
                prefix: 1000,
                cycle: 10_000,
            };
            engine::run(&spec, args.seed, args.seconds, args.trace, &mut metrics)
        }
        "sage-mean-dg1000" => {
            let spec = engine::EngineSpec {
                sage: true,
                delta: 1000,
                prefix: 6,
                cycle: 25,
            };
            engine::run(&spec, args.seed, args.seconds, args.trace, &mut metrics)
        }
        "serve-zipf" => serve::run(args.seed, args.seconds, args.trace, &mut metrics),
        other => {
            eprintln!("inkbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        for (name, unit) in SERVE_ONLY {
            if metrics.get(name).is_none() {
                metrics.put(name, 0.0, unit);
            }
        }
    } else if outcome.errors.is_empty() {
        let names: Vec<&str> = metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END, "end-to-end metric set");
    }
    println!("fingerprint {fingerprint}");
    eprintln!("inkbench: fingerprint {fingerprint}");
    for e in &outcome.errors {
        eprintln!("inkbench: CHECK FAILED: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        report::result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
