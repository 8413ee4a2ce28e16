//! Pipeline microbenchmark: per-phase latency of the sharded update pipeline.
//!
//! Sweeps ΔG = 1 … 10 000 on a synthetic Erdős–Rényi graph and records, for
//! each delta size, the p50 wall latency of every pipeline phase (generate /
//! group / apply / write / next-messages) under `UpdateConfig::default()`,
//! plus the p50 latency of a `sequential()` engine fed the identical batches,
//! giving the speedup over pure sequential. Output is machine-readable JSON
//! written to `results/BENCH_pipeline.json` and echoed to stdout.
//!
//! The two engines consume the same batch sequence, so the run doubles as an
//! end-to-end bitwise check: with max aggregation their outputs must match
//! exactly after every round. Because both replay the *identical* delta, the
//! engine that runs second gets the round's working set pre-warmed into cache
//! by the first — worth ~2× on tiny rounds — so the harness alternates which
//! engine leads each round and the bias cancels in the p50.
//!
//! Setting `INK_BENCH_MIN_SPEEDUP=<f64>` turns the run into a regression
//! gate: the process exits non-zero if any delta size's speedup lands below
//! the threshold (used by CI with 0.9).

use ink_bench::{scenarios, write_metrics, write_results, BenchOpts, ModelKind};
use ink_graph::generators::erdos_renyi;
use ink_gnn::Aggregator;
use ink_obs::MetricsRegistry;
use ink_tensor::init::{seeded_rng, sparse_power_law};
use inkstream::json::rounded;
use inkstream::{InkStream, Json, UpdateConfig};
use std::time::{Duration, Instant};

const DELTA_SIZES: [usize; 5] = [1, 10, 100, 1_000, 10_000];
const FEAT_DIM: usize = 16;
const SEED: u64 = 0x1A7E57;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Measured rounds per delta size, scaled to per-round cost: the small-delta
/// series — the ones the speedup gate guards — cost microseconds per round,
/// so averaging dozens of them is free and keeps the p50 stable against
/// scheduler jitter; the large sizes stay cheap. (The shared
/// `scenario_count` protocol is tuned for the k-hop table benches, whose
/// baseline makes every extra round expensive.)
fn round_count(delta_g: usize, quick: bool) -> usize {
    let full = match delta_g {
        0..=1 => 64,
        2..=10 => 48,
        11..=100 => 16,
        101..=1000 => 6,
        _ => 2,
    };
    if quick {
        full.min(2)
    } else {
        full
    }
}

fn p50(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[(xs.len() - 1) / 2]
}

fn build_engine(n: usize, edges: usize, opts: &BenchOpts, cfg: UpdateConfig) -> InkStream {
    let mut rng = seeded_rng(SEED);
    let graph = erdos_renyi(&mut rng, n, edges);
    let features = sparse_power_law(&mut rng, n, FEAT_DIM, 0.2, 0.9);
    let model = ModelKind::Gcn.build(FEAT_DIM, opts, Aggregator::Max, SEED);
    InkStream::new(model, graph, features, cfg).unwrap()
}

fn main() {
    let opts = BenchOpts::from_env();
    // Large enough that ΔG = 10k finds both 5k edges to remove and 5k absent
    // pairs to insert, small enough for laptop-class bootstraps.
    let n = ((40_000.0 * opts.scale) as usize).max(2_000);
    let edges = 3 * n;
    let hidden = opts.hidden;

    let par_cfg = UpdateConfig::default();
    let seq_cfg = UpdateConfig::default().sequential();
    eprintln!(
        "pipeline bench: |V|={n} |E|={edges} dims=[{FEAT_DIM},{hidden},{hidden}] \
         threads={} workers={} shards={}",
        rayon::current_num_threads(),
        par_cfg.worker_count(),
        par_cfg.shard_count(),
    );
    let mut par = build_engine(n, edges, &opts, par_cfg);
    let mut seq = build_engine(n, edges, &opts, seq_cfg);
    assert_eq!(par.output(), seq.output(), "bootstrap must agree");

    // Full latency distributions (not just the JSON p50s) go into log-bucket
    // histograms, exported as results/BENCH_pipeline.prom after the sweep.
    let registry = MetricsRegistry::new();
    let phase_hists = ["generate", "group", "apply", "write", "next_messages"].map(|p| {
        registry.histogram(
            &format!("ink_bench_pipeline_phase_{p}_ns"),
            "Per-round phase wall time across all delta sizes, in nanoseconds",
        )
    });
    let wall_hist = registry
        .histogram("ink_bench_pipeline_parallel_ns", "Per-round parallel wall time in nanoseconds");

    let mut series = Vec::new();
    let mut speedups = Vec::new();
    for (si, &dg) in DELTA_SIZES.iter().enumerate() {
        if dg / 2 > par.graph().num_edges() {
            eprintln!("  ΔG={dg}: skipped (graph too small)");
            continue;
        }
        let rounds = opts.scenarios.unwrap_or_else(|| round_count(dg, opts.quick)).max(1);
        // One warm-up scenario readies the scratch pools.
        let batches = scenarios(par.graph(), dg, rounds + 1, SEED ^ (si as u64 + 1));

        let mut par_wall = Vec::new();
        let mut seq_wall = Vec::new();
        let mut phases: [Vec<f64>; 5] = Default::default();
        for (round, batch) in batches.iter().enumerate() {
            // Both engines replay the identical batch, so whichever runs
            // second inherits a cache pre-warmed with exactly the rows the
            // round touches — a 2× advantage on tiny (cache-miss-bound)
            // rounds. Alternate the leader so the bias cancels in the p50.
            let (pw, sw, report) = if round % 2 == 0 {
                let t = Instant::now();
                let report = par.apply_delta(batch);
                let pw = us(t.elapsed());
                let t = Instant::now();
                seq.apply_delta(batch);
                (pw, us(t.elapsed()), report)
            } else {
                let t = Instant::now();
                seq.apply_delta(batch);
                let sw = us(t.elapsed());
                let t = Instant::now();
                let report = par.apply_delta(batch);
                (us(t.elapsed()), sw, report)
            };
            assert_eq!(par.output(), seq.output(), "default and sequential outputs diverged");
            if round == 0 {
                continue; // warm-up
            }
            par_wall.push(pw);
            seq_wall.push(sw);
            wall_hist.record((pw * 1e3) as u64);
            let pt = report.phase_times();
            for ((slot, hist), d) in phases
                .iter_mut()
                .zip(&phase_hists)
                .zip([pt.generate, pt.group, pt.apply, pt.write, pt.next_messages])
            {
                slot.push(us(d));
                hist.record(d.as_nanos() as u64);
            }
        }

        let p50_par = p50(par_wall);
        let p50_seq = p50(seq_wall);
        let speedup = if p50_par > 0.0 { p50_seq / p50_par } else { 0.0 };
        speedups.push((dg, speedup));
        eprintln!(
            "  ΔG={dg}: rounds={rounds} p50 default={p50_par:.1}µs sequential={p50_seq:.1}µs \
             speedup={speedup:.2}x"
        );
        let [gen, group, apply, write, next] = phases;
        series.push(Json::obj([
            ("delta_size", Json::from(dg)),
            ("rounds", Json::from(rounds)),
            ("p50_parallel_us", rounded(p50_par, 3)),
            ("p50_sequential_us", rounded(p50_seq, 3)),
            ("speedup", rounded(speedup, 4)),
            (
                "p50_phases_us",
                Json::obj([
                    ("generate", rounded(p50(gen), 3)),
                    ("group", rounded(p50(group), 3)),
                    ("apply", rounded(p50(apply), 3)),
                    ("write", rounded(p50(write), 3)),
                    ("next_messages", rounded(p50(next), 3)),
                ]),
            ),
        ]));
    }

    let doc = Json::obj([
        ("bench", Json::from("pipeline")),
        ("model", Json::from("GCN")),
        ("aggregator", Json::from("max")),
        ("graph", Json::obj([("vertices", Json::from(n)), ("edges", Json::from(edges))])),
        ("dims", Json::arr([FEAT_DIM, hidden, hidden].map(Json::from))),
        ("threads", Json::from(rayon::current_num_threads())),
        ("workers", Json::from(par_cfg.worker_count())),
        ("shards", Json::from(par_cfg.shard_count())),
        ("series", Json::Arr(series)),
    ]);
    write_results("pipeline", &doc);
    write_metrics("pipeline", &registry);

    // CI regression gate: INK_BENCH_MIN_SPEEDUP=0.9 fails the run if the
    // default engine loses to sequential at any delta size.
    if let Ok(raw) = std::env::var("INK_BENCH_MIN_SPEEDUP") {
        let min: f64 = raw.parse().unwrap_or_else(|e| {
            panic!("INK_BENCH_MIN_SPEEDUP must be an f64, got {raw:?}: {e}")
        });
        let failures: Vec<_> = speedups.iter().filter(|&&(_, s)| s < min).collect();
        for (dg, s) in &failures {
            eprintln!("FAIL ΔG={dg}: speedup {s:.4} < required {min}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        eprintln!("speedup gate passed: all {} delta sizes ≥ {min}", speedups.len());
    }
}
