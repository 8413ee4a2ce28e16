//! The engine workloads (`gcn-max-dg10`, `sage-mean-dg1000`) and the
//! per-round bookkeeping every workload shares: outside-timed rounds, the
//! fixed-prefix probe whose counts must repeat exactly, and the per-layer
//! metrics derived from `UpdateReport`.

use crate::calib::{self, Calibration};
use crate::inputs;
use crate::report::{median, ms, percentile, ratio, Metrics};
use crate::Outcome;
use ink_gnn::{Aggregator, Model};
use ink_graph::bfs::theoretical_affected_area;
use ink_graph::{DeltaBatch, DynGraph};
use ink_tensor::Matrix;
use inkstream::{InkStream, SnapshotPublisher, UpdateConfig, UpdateReport};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Layers of both models.
pub const LAYERS: usize = 2;
/// Pipeline phases, in `PhaseTimes` order.
pub const PHASES: [&str; 5] = ["generate", "group", "apply", "write", "next_messages"];
/// Bootstraps per run; `setup_s` is their median.
const BOOTSTRAPS: usize = 7;
/// Time between calibration samples in a measured pass.
const CAL_EVERY: Duration = Duration::from_millis(100);
/// Kernel calls per calibration sample point.
const CAL_SAMPLES: usize = 2;
/// Kernel calls before and after each bootstrap.
const SETUP_CAL_SAMPLES: usize = 5;

/// One engine workload.
pub struct EngineSpec {
    /// GraphSAGE-mean when true, else GCN-max.
    pub sage: bool,
    /// Changes per batch (ΔG).
    pub delta: usize,
    /// Rounds of the fixed prefix: run untimed on a probe engine and as
    /// warm-up on the measured engine; their counts must agree exactly.
    pub prefix: usize,
    /// Forward batches of the stationary stream the run cycles through
    /// (see [`inputs::cyclic_stream`]).
    pub cycle: usize,
}

impl EngineSpec {
    fn aggregator(&self) -> Aggregator {
        if self.sage {
            Aggregator::Mean
        } else {
            Aggregator::Max
        }
    }

    /// The workload's model (rebuilt per bootstrap: models are not `Clone`).
    pub fn model(&self) -> Model {
        inputs::model(self.sage, self.aggregator())
    }
}

/// Rounds folded together: outside time, per-layer phase self times and
/// the report's counts.
#[derive(Clone, Default)]
pub struct RoundLog {
    rounds: u64,
    changes: u64,
    wall: Vec<f64>,
    /// Start of each round, in seconds after the first.
    offset: Vec<f64>,
    origin: Option<Instant>,
    phase_ns: [[u128; 5]; LAYERS],
    events_created: u64,
    targets: u64,
    alpha_changed: u64,
    cond: [u64; 5],
    real_affected: u64,
    nodes_visited: u64,
    output_changed: u64,
    f32_moved: u64,
    skipped: u64,
    gemm_flops: u64,
    batched_rows: u64,
    batched_apply_rows: u64,
}

impl RoundLog {
    /// Folds one round that started at `start` and took `wall`, timed from
    /// outside.
    pub fn add(&mut self, rep: &UpdateReport, changes: usize, start: Instant, wall: Duration) {
        let origin = *self.origin.get_or_insert(start);
        self.offset.push((start - origin).as_secs_f64());
        self.rounds += 1;
        self.changes += changes as u64;
        self.wall.push(ms(wall));
        for (l, layer) in rep.per_layer.iter().enumerate().take(LAYERS) {
            let p = layer.phases;
            for (slot, d) in self.phase_ns[l].iter_mut().zip([
                p.generate,
                p.group,
                p.apply,
                p.write,
                p.next_messages,
            ]) {
                *slot += d.as_nanos();
            }
            self.targets += layer.targets as u64;
            self.alpha_changed += layer.alpha_changed as u64;
        }
        let c = rep.conditions();
        for (slot, v) in self.cond.iter_mut().zip([
            c.resilient,
            c.no_reset,
            c.covered_reset,
            c.exposed_reset,
            c.accumulative,
        ]) {
            *slot += v;
        }
        self.events_created += rep.events_created() as u64;
        self.real_affected += rep.real_affected;
        self.nodes_visited += rep.nodes_visited;
        self.output_changed += rep.output_changed;
        self.f32_moved += rep.traffic();
        self.skipped += rep.skipped_changes as u64;
        self.gemm_flops += rep.gemm_flops;
        self.batched_rows += rep.batched_rows() as u64;
        self.batched_apply_rows += rep.batched_apply_rows() as u64;
    }

    /// The counts that must repeat exactly for a given seed.
    pub fn exact_counts(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("events_created", self.events_created),
            ("real_affected", self.real_affected),
        ];
        out.extend(COND.iter().copied().zip(self.cond));
        out
    }

    fn wall_sum_ms(&self) -> f64 {
        self.wall.iter().sum()
    }

    /// The end-to-end view of these rounds, each round time scaled to the
    /// reference speed by `cal` with sensitivity `alpha` (`calib::ALPHA`;
    /// 0 leaves the times as measured).
    pub fn e2e(&self, cal: &Calibration, alpha: f64, m: &mut Metrics) {
        let origin = self.origin.unwrap_or_else(Instant::now);
        let scaled: Vec<f64> = self
            .offset
            .iter()
            .zip(&self.wall)
            .map(|(&t, &w)| w * cal.scale_at(origin + Duration::from_secs_f64(t), alpha))
            .collect();
        m.put("visible_ms_p50", median(&scaled), "ms");
        m.put("visible_ms_p90", percentile(&scaled, 0.9), "ms");
        m.put(
            "changes_per_s",
            ratio(self.changes as f64, scaled.iter().sum::<f64>() / 1e3),
            "1/s",
        );
    }
}

/// Condition names, in `RoundLog::cond` order.
pub const COND: [&str; 5] = [
    "resilient",
    "no_reset",
    "covered_reset",
    "exposed_reset",
    "accumulative",
];

/// What the probe learns on the fixed prefix besides its `RoundLog`.
#[derive(Default)]
pub struct Probe {
    pub log: RoundLog,
    /// Sum of theoretical affected areas (k−1 hop balls).
    area: u64,
    /// Sum of `DeltaBatch::apply` times on the shadow graph.
    graph_apply: Duration,
}

/// Runs `batches` on `engine`, timing each round and applying each batch
/// to a shadow copy of the starting graph as well; checks the shadow ends
/// equal to the engine's graph.
pub fn probe(engine: &mut InkStream, batches: &[DeltaBatch]) -> Result<Probe, String> {
    let mut shadow = engine.graph().clone();
    let mut p = Probe::default();
    for b in batches {
        let t = Instant::now();
        let rep = engine.apply_delta(b);
        p.log.add(&rep, b.len(), t, t.elapsed());
        let t = Instant::now();
        b.apply(&mut shadow);
        p.graph_apply += t.elapsed();
        p.area += theoretical_affected_area(engine.graph(), b, LAYERS).len() as u64;
    }
    if sorted_edges(&shadow) != sorted_edges(engine.graph()) {
        return Err("probe: engine graph differs from the shadow replay".into());
    }
    Ok(p)
}

/// Canonical sorted edge list.
pub fn sorted_edges(g: &DynGraph) -> Vec<(u32, u32)> {
    let mut e = g.edges();
    e.sort_unstable();
    e
}

/// Bitwise equality of two matrices.
pub fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bootstraps `BOOTSTRAPS` engines from clones of the inputs, returning the
/// median bootstrap time scaled to the reference speed by `cal` (sampled
/// around each bootstrap), the first engine (the probe) and the last (the
/// measured one).
pub fn bootstrap(
    graph: &DynGraph,
    features: &Matrix,
    model: impl Fn() -> Model,
    cal: &mut Calibration,
) -> (f64, InkStream, InkStream) {
    let mut times = Vec::new();
    let mut first = None;
    let mut last = None;
    for i in 0..BOOTSTRAPS {
        let (g, f, md) = (graph.clone(), features.clone(), model());
        cal.sample(SETUP_CAL_SAMPLES);
        let t = Instant::now();
        let e = InkStream::new(md, g, f, UpdateConfig::default())
            .expect("bootstrap inputs are consistent");
        let took = t.elapsed();
        cal.sample(SETUP_CAL_SAMPLES);
        times.push((t + took / 2, took.as_secs_f64()));
        if i == 0 {
            first = Some(e);
        } else {
            last = Some(e);
        }
    }
    let scaled: Vec<f64> = times
        .iter()
        .map(|&(mid, s)| s * cal.scale_at(mid, calib::ALPHA))
        .collect();
    eprintln!(
        "inkbench: unscaled setup {:.6} s",
        median(&times.iter().map(|t| t.1).collect::<Vec<_>>())
    );
    (
        median(&scaled),
        first.expect("probe engine"),
        last.expect("measured engine"),
    )
}

/// Memory and snapshot facts of one engine, read before it is dropped.
pub struct EngineFacts {
    scratch_mb: f64,
    publish_ms: f64,
}

impl EngineFacts {
    /// Reads the facts of `engine`.
    pub fn of(engine: &InkStream) -> Self {
        Self {
            scratch_mb: engine.scratch_bytes() as f64 / (1 << 20) as f64,
            publish_ms: publish_ms(engine.output()),
        }
    }
}

/// Per-layer metrics shared by every workload: `counts` from the fixed
/// prefix (exact for a seed), `timing` from the traced rounds.
pub fn layer_metrics(
    m: &mut Metrics,
    counts: &Probe,
    timing: &RoundLog,
    facts: &EngineFacts,
    full_ms: f64,
) {
    let c = &counts.log;
    let per = |v: u64| ratio(v as f64, c.rounds as f64);
    let rounds = timing.rounds as f64;
    let mut attributed = 0.0;
    for l in 0..LAYERS {
        for (ph, name) in PHASES.iter().enumerate() {
            let total_ms = timing.phase_ns[l][ph] as f64 / 1e6;
            attributed += total_ms;
            m.put(
                format!("core.l{l}.{name}_ms"),
                ratio(total_ms, rounds),
                "ms",
            );
        }
    }
    m.put("core.events_created", per(c.events_created), "count");
    m.put("core.targets", per(c.targets), "count");
    m.put("core.alpha_changed", per(c.alpha_changed), "count");
    for (name, v) in COND.iter().zip(c.cond) {
        m.put(format!("core.cond.{name}"), per(v), "count");
    }
    m.put("core.real_affected", per(c.real_affected), "count");
    m.put("core.nodes_visited", per(c.nodes_visited), "count");
    m.put("core.output_changed", per(c.output_changed), "count");
    m.put("core.f32_moved", per(c.f32_moved), "count");
    m.put(
        "core.pruning_ratio",
        ratio(c.real_affected as f64, counts.area as f64),
        "frac",
    );
    let closure = ratio(attributed, timing.wall_sum_ms());
    if closure < 0.95 {
        eprintln!("inkbench: closure {closure:.3} < 0.95: layer x phase self times miss part of the round");
    }
    m.put("core.unattributed_frac", 1.0 - closure, "frac");
    m.put("core.scratch_mb", facts.scratch_mb, "MB");
    m.put("core.snapshot_publish_ms", facts.publish_ms, "ms");
    let nm_s: f64 = timing.phase_ns.iter().map(|l| l[4] as f64 / 1e9).sum();
    m.put("tensor.gemm_flops", per(c.gemm_flops), "count");
    m.put(
        "tensor.gemm_gflops_s",
        ratio(timing.gemm_flops as f64 / 1e9, nm_s),
        "GFLOP/s",
    );
    m.put("tensor.batched_rows", per(c.batched_rows), "count");
    m.put(
        "tensor.batched_apply_rows",
        per(c.batched_apply_rows),
        "count",
    );
    m.put("gnn.full_forward_ms", full_ms, "ms");
    m.put(
        "gnn.round_vs_full",
        ratio(percentile(&timing.wall, 0.5), full_ms),
        "frac",
    );
    m.put(
        "graph.delta_apply_us",
        ratio(counts.graph_apply.as_secs_f64() * 1e6, c.rounds as f64),
        "us",
    );
    m.put("graph.affected_area", per(counts.area), "count");
}

/// Median time of `SnapshotPublisher::publish` of an output-shaped matrix.
fn publish_ms(output: &Matrix) -> f64 {
    let (mut publisher, reader) = SnapshotPublisher::new(output.clone());
    let times: Vec<f64> = (1..=16)
        .map(|epoch| {
            let t = Instant::now();
            publisher.publish(black_box(output), epoch);
            ms(t.elapsed())
        })
        .collect();
    assert_eq!(reader.epoch(), 16);
    median(&times)
}

/// `trace.moved.<name>`: how far each end-to-end metric of the traced half
/// moved against the untraced half, as a fraction.
pub fn moved(m: &mut Metrics, untraced: &Metrics, traced: &Metrics) {
    for (name, base, _) in &untraced.0 {
        let now = traced
            .get(name)
            .expect("both halves report the same metrics");
        m.put(
            format!("trace.moved.{name}"),
            ratio(now, *base) - 1.0,
            "frac",
        );
    }
}

/// Runs one engine workload.
pub fn run(spec: &EngineSpec, seed: u64, seconds: f64, traced: bool, out: &mut Metrics) -> Outcome {
    let (graph, features) = inputs::graph_and_features();
    let stream = inputs::cyclic_stream(&graph, seed, spec.delta, spec.cycle);
    let prefix = &stream[..spec.prefix];

    let mut cal = Calibration::new(Instant::now());
    let (setup_s, mut probe_engine, mut engine) =
        bootstrap(&graph, &features, || spec.model(), &mut cal);
    drop((graph, features));
    let mut errors = Vec::new();
    let probed = probe(&mut probe_engine, prefix).unwrap_or_else(|e| {
        errors.push(e);
        Probe::default()
    });
    drop(probe_engine);

    // Warm-up on the measured engine: the same prefix, whose counts must
    // match the probe's exactly.
    let mut warm = RoundLog::default();
    for b in prefix {
        let t = Instant::now();
        let rep = engine.apply_delta(b);
        warm.add(&rep, b.len(), t, t.elapsed());
    }
    if warm.exact_counts() != probed.log.exact_counts() {
        errors.push(format!(
            "exact counts differ between two engines on the same prefix: {:?} vs {:?}",
            warm.exact_counts(),
            probed.log.exact_counts()
        ));
    }
    eprintln!(
        "inkbench: prefix counts ({} rounds) {:?}",
        probed.log.rounds,
        probed.log.exact_counts()
    );

    // Measured rounds: one untraced pass, or an untraced and a traced half.
    let passes = if traced { 2 } else { 1 };
    let budget = Duration::from_secs_f64(seconds / passes as f64);
    let mut next = stream.iter().cycle().skip(spec.prefix);
    let mut logs = Vec::new();
    for _ in 0..passes {
        let mut log = RoundLog::default();
        let begin = Instant::now();
        let end = begin + budget;
        let mut next_cal = begin;
        while Instant::now() < end {
            if Instant::now() >= next_cal {
                cal.sample(CAL_SAMPLES);
                next_cal = Instant::now() + CAL_EVERY;
            }
            let b = next.next().expect("a cycle never ends");
            let t = Instant::now();
            let rep = engine.apply_delta(black_box(b));
            log.add(&rep, b.len(), t, t.elapsed());
        }
        logs.push(log);
    }
    let skipped = warm.skipped + logs.iter().map(|l| l.skipped).sum::<u64>();
    if skipped != 0 {
        errors.push(format!("{skipped} changes were skipped as no-ops"));
    }

    // Correctness gate.
    let t = Instant::now();
    let reference = engine.recompute_reference();
    let full_ms = ms(t.elapsed());
    if spec.sage {
        let drift = engine.audit_full();
        if drift.is_nan() || drift >= 1e-3 {
            errors.push(format!("audit_full drift {drift} is not below 1e-3"));
        }
    } else if !bitwise_eq(engine.output(), &reference) {
        errors.push("output is not bitwise equal to recompute_reference".into());
    }

    let rounds: u64 = logs.iter().map(|l| l.rounds).sum();
    let mut unscaled = Metrics::default();
    logs[0].e2e(&cal, 0.0, &mut unscaled);
    eprintln!(
        "inkbench: unscaled {:?}, kernel median {:.4} ms",
        unscaled.0,
        cal.median_ms()
    );
    if traced {
        let (mut e_untraced, mut e_traced) = (Metrics::default(), Metrics::default());
        logs[0].e2e(&cal, calib::ALPHA, &mut e_untraced);
        logs[1].e2e(&cal, calib::ALPHA, &mut e_traced);
        layer_metrics(out, &probed, &logs[1], &EngineFacts::of(&engine), full_ms);
        out.put("calib.kernel_ms", cal.median_ms(), "ms");
        moved(out, &e_untraced, &e_traced);
    } else {
        logs[0].e2e(&cal, calib::ALPHA, out);
        out.put("setup_s", setup_s, "s");
        out.put("rss_mb", crate::report::peak_rss_mb(), "MB");
    }
    Outcome {
        errors,
        attempted: rounds,
        failed: 0,
    }
}
