//! Cross-crate equivalence tests: the incremental engine against full
//! recomputation, across models, aggregators and change patterns.
//!
//! These are the paper's "arithmetic equivalence" guarantee (§I, §III-G):
//! bitwise identity for monotonic aggregation, tolerance-bounded equality
//! for accumulative aggregation.

use ink_graph::generators::{barabasi_albert, erdos_renyi};
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, VertexId};
use ink_gnn::{full_inference, Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use ink_tensor::Matrix;
use inkstream::{InkStream, UpdateConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn features(rng: &mut StdRng, n: usize, d: usize) -> Matrix {
    uniform(rng, n, d, -1.0, 1.0)
}

fn build_engine(
    model_kind: &str,
    agg: Aggregator,
    seed: u64,
    n: usize,
    edges: usize,
) -> InkStream {
    let mut rng = seeded_rng(seed);
    let g = erdos_renyi(&mut rng, n, edges);
    let feat_dim = 6;
    let x = features(&mut rng, n, feat_dim);
    let model = match model_kind {
        "gcn" => Model::gcn(&mut rng, &[feat_dim, 8, 4], agg),
        "sage" => Model::sage(&mut rng, &[feat_dim, 8, 4], agg),
        "gin" => Model::gin(&mut rng, feat_dim, 8, 3, 0.1, agg),
        _ => unreachable!(),
    };
    InkStream::new(model, g, x, UpdateConfig::default()).unwrap()
}

fn check_matches_reference(engine: &InkStream, agg: Aggregator, context: &str) {
    let reference = engine.recompute_reference();
    if agg.is_monotonic() {
        assert_eq!(
            engine.output(),
            &reference,
            "{context}: monotonic aggregation must be bitwise identical"
        );
    } else {
        let diff = engine.output().max_abs_diff(&reference);
        assert!(diff <= 1e-3, "{context}: accumulative drift too large: {diff}");
    }
}

#[test]
fn random_delta_batches_match_reference_all_models_and_aggregators() {
    for model_kind in ["gcn", "sage", "gin"] {
        for agg in [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean] {
            let mut engine = build_engine(model_kind, agg, 42, 60, 150);
            let mut rng = StdRng::seed_from_u64(99);
            for round in 0..5 {
                let delta = DeltaBatch::random_scenario(engine.graph(), &mut rng, 8);
                engine.apply_delta(&delta);
                check_matches_reference(
                    &engine,
                    agg,
                    &format!("{model_kind}/{agg:?} round {round}"),
                );
            }
        }
    }
}

#[test]
fn engine_matches_gnn_reference_inference_after_updates() {
    // The engine's cached state must equal what ink-gnn's independent
    // full_inference computes on the final graph.
    let mut engine = build_engine("gcn", Aggregator::Max, 7, 40, 100);
    let mut rng = StdRng::seed_from_u64(5);
    let delta = DeltaBatch::random_scenario(engine.graph(), &mut rng, 10);
    engine.apply_delta(&delta);
    let st = full_inference(engine.model(), engine.graph(), engine.features(), None);
    assert_eq!(engine.output(), &st.h);
    for l in 0..2 {
        assert_eq!(&engine.state().m[l], &st.m[l], "messages layer {l}");
        assert_eq!(&engine.state().alpha[l], &st.alpha[l], "alpha layer {l}");
    }
}

#[test]
fn sequential_and_parallel_configs_agree_bitwise() {
    let mut a = build_engine("gcn", Aggregator::Max, 11, 80, 240);
    let mut b = build_engine("gcn", Aggregator::Max, 11, 80, 240);
    b.set_config(UpdateConfig { parallel_threshold: 1, ..UpdateConfig::default() });
    let mut cfg_seq = UpdateConfig::default().sequential();
    cfg_seq.parallel_threshold = usize::MAX;
    a.set_config(cfg_seq);
    let mut rng = StdRng::seed_from_u64(3);
    // 40 changes = 80 directed ops, above the engine's tiny-round cutoff.
    let delta = DeltaBatch::random_scenario(a.graph(), &mut rng, 40);
    a.apply_delta(&delta);
    b.apply_delta(&delta);
    assert_eq!(a.output(), b.output());
}

#[test]
fn ablation_configs_preserve_correctness() {
    // Turning components off must never change the *result*, only the cost.
    for cfg in [
        UpdateConfig::full(),
        UpdateConfig::incremental_only(),
        UpdateConfig::recompute_all(),
    ] {
        let mut engine = build_engine("gcn", Aggregator::Max, 21, 50, 130);
        engine.set_config(cfg);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..3 {
            let delta = DeltaBatch::random_scenario(engine.graph(), &mut rng, 6);
            engine.apply_delta(&delta);
        }
        check_matches_reference(&engine, Aggregator::Max, &format!("{cfg:?}"));
    }
}

#[test]
fn ablation_costs_are_ordered() {
    // Full InkStream must touch no more nodes than incremental-only, which
    // in turn must move no more data than recompute-all.
    let mut rng = StdRng::seed_from_u64(31);
    let mut base = build_engine("gcn", Aggregator::Max, 31, 300, 900);
    let delta = DeltaBatch::random_scenario(base.graph(), &mut rng, 20);

    let run = |cfg: UpdateConfig| {
        let mut engine = build_engine("gcn", Aggregator::Max, 31, 300, 900);
        engine.set_config(cfg);
        engine.apply_delta(&delta)
    };
    let full = run(UpdateConfig::full());
    let inc_only = run(UpdateConfig::incremental_only());
    let recompute = run(UpdateConfig::recompute_all());
    assert!(
        full.nodes_visited <= inc_only.nodes_visited,
        "pruning must not increase visits: {} vs {}",
        full.nodes_visited,
        inc_only.nodes_visited
    );
    assert!(
        inc_only.traffic() <= recompute.traffic(),
        "incremental updates must not increase traffic: {} vs {}",
        inc_only.traffic(),
        recompute.traffic()
    );
    // Sanity: base engine unaffected by the probe runs.
    base.apply_delta(&delta);
    check_matches_reference(&base, Aggregator::Max, "base");
}

#[test]
fn repeated_insert_remove_of_same_edge_is_stable() {
    let mut engine = build_engine("gcn", Aggregator::Max, 17, 30, 60);
    let (u, v) = (3 as VertexId, 17 as VertexId);
    let had_edge = engine.graph().has_edge(u, v);
    for _ in 0..4 {
        if engine.graph().has_edge(u, v) {
            engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::remove(u, v)]));
        } else {
            engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::insert(u, v)]));
        }
        check_matches_reference(&engine, Aggregator::Max, "toggle");
    }
    assert_eq!(engine.graph().has_edge(u, v), had_edge, "even number of toggles");
}

#[test]
fn heavy_tailed_graph_with_hub_changes() {
    // Hubs are where exposed resets concentrate; target them explicitly.
    let mut rng = seeded_rng(55);
    let g = barabasi_albert(&mut rng, 120, 3);
    let hub = (0..120u32).max_by_key(|&u| g.in_degree(u)).unwrap();
    let x = features(&mut rng, 120, 5);
    let model = Model::gcn(&mut rng, &[5, 6, 4], Aggregator::Max);
    let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
    // Remove several hub edges (likely exposed resets at the hub's neighbors).
    let nbrs: Vec<VertexId> = engine.graph().in_neighbors(hub).iter().take(4).copied().collect();
    let delta =
        DeltaBatch::new(nbrs.into_iter().map(|n| EdgeChange::remove(hub, n)).collect());
    let report = engine.apply_delta(&delta);
    assert!(report.conditions().total() > 0);
    check_matches_reference(&engine, Aggregator::Max, "hub removal");
}

#[test]
fn directed_graph_updates_match_reference() {
    let mut rng = seeded_rng(61);
    let mut edges = Vec::new();
    for i in 0..40u32 {
        edges.push((i, (i + 1) % 40));
        edges.push((i, (i + 7) % 40));
    }
    let g = DynGraph::directed_from_edges(40, &edges);
    let x = features(&mut rng, 40, 5);
    let model = Model::sage(&mut rng, &[5, 6, 3], Aggregator::Max);
    let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
    engine.apply_delta(&DeltaBatch::new(vec![
        EdgeChange::insert(0, 20),
        EdgeChange::remove(5, 6),
    ]));
    check_matches_reference(&engine, Aggregator::Max, "directed");
}

#[test]
fn empty_delta_changes_nothing() {
    let mut engine = build_engine("gin", Aggregator::Max, 71, 30, 70);
    let before = engine.output().clone();
    let report = engine.apply_delta(&DeltaBatch::new(vec![]));
    assert_eq!(engine.output(), &before);
    assert_eq!(report.output_changed, 0);
    assert_eq!(report.real_affected, 0);
}

#[test]
fn five_layer_gin_deep_propagation() {
    let mut rng = seeded_rng(81);
    let g = erdos_renyi(&mut rng, 80, 200);
    let x = features(&mut rng, 80, 6);
    let model = Model::gin(&mut rng, 6, 8, 5, 0.0, Aggregator::Max);
    let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
    let mut rng2 = StdRng::seed_from_u64(82);
    let delta = DeltaBatch::random_scenario(engine.graph(), &mut rng2, 2);
    let report = engine.apply_delta(&delta);
    assert_eq!(report.per_layer.len(), 5);
    check_matches_reference(&engine, Aggregator::Max, "gin-5");
}

#[test]
fn min_aggregation_equivalence_sssp_analogy() {
    // §III-G: min aggregation is the SSSP relaxation; the incremental update
    // must match recomputation exactly through inserts and removals.
    let mut engine = build_engine("gcn", Aggregator::Min, 91, 50, 120);
    let mut rng = StdRng::seed_from_u64(92);
    for _ in 0..4 {
        let delta = DeltaBatch::random_scenario(engine.graph(), &mut rng, 6);
        engine.apply_delta(&delta);
        check_matches_reference(&engine, Aggregator::Min, "min agg");
    }
}
