//! Equivalence and steady-state properties of the engine's batched
//! execution plan: the gather→GEMM→scatter transform of the next-messages
//! phase and the panel fold of the apply phase's recomputations.
//!
//! * For every conv family × aggregator × worker/shard split, the engine
//!   produces bitwise-identical state to a `sequential()` engine, and the
//!   sequential engine matches full recomputation: bitwise for max/min,
//!   within the drift harness's 1e-3 for sum/mean. Kernel-level equivalence
//!   (batched conv updates vs. per-node ones, panel folds vs.
//!   `aggregate_into`) is covered by the tensor and gnn unit tests.
//! * Repeated recompute epochs (`resync`) on a hook-free engine reuse the
//!   cached matrices and pooled temporaries — reserved bytes stay flat.

use ink_graph::{DeltaBatch, DynGraph};
use ink_gnn::{Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::{InkStream, UpdateConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random undirected graph as (n, edge list).
fn arb_graph(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (8..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 10..60);
        (Just(n), edges)
    })
}

/// One model per conv family, all depth-2 so inter-layer messages exercise
/// the batched next-layer message GEMM too.
fn model_for(kind: u8, rng: &mut StdRng, agg: Aggregator) -> Model {
    match kind % 3 {
        0 => Model::gcn(rng, &[4, 6, 3], agg),
        1 => Model::sage(rng, &[4, 6, 3], agg),
        _ => Model::gin(rng, 4, 6, 3, 0.2, agg),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any worker/shard split == `sequential()`, bitwise, and `sequential()`
    /// == the full-recompute oracle, across GCN/SAGE/GIN × all four
    /// aggregators.
    #[test]
    fn batched_engine_matches_sequential_and_reference(
        (n, raw_edges) in arb_graph(24),
        seed in 0u64..1000,
        combo in 0usize..12,
        (workers, shards) in (1usize..5, 1usize..9),
        delta_pick in 1usize..16,
    ) {
        // 1–7 changes run as a tiny round; 38–45 (76–90 directed ops) clear
        // the 64-work cutoff and run the configured worker/shard split.
        let delta_size = if delta_pick < 8 { delta_pick } else { delta_pick + 30 };
        // 12 combos = 3 conv families × 4 aggregators.
        let kind = (combo / 4) as u8;
        let agg =
            [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean][combo % 4];
        let g = DynGraph::undirected_from_edges(n, &raw_edges);
        prop_assume!(g.num_edges() > 2.max(delta_size / 2));
        prop_assume!(g.num_edges() + delta_size <= n * (n - 1) / 2);
        let make = |cfg: UpdateConfig| {
            let mut rng = seeded_rng(seed);
            let x = uniform(&mut rng, n, 4, -1.0, 1.0);
            let model = model_for(kind, &mut rng, agg);
            InkStream::new(model, g.clone(), x, cfg).unwrap()
        };
        let mut seq = make(UpdateConfig::default().sequential());
        let mut split = make(UpdateConfig {
            num_workers: workers,
            num_shards: shards,
            parallel_threshold: 0,
            ..UpdateConfig::default()
        });
        let mut drng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let delta = DeltaBatch::random_scenario(seq.graph(), &mut drng, delta_size);
        let rs = seq.apply_delta(&delta);
        split.apply_delta(&delta);
        prop_assert_eq!(split.output(), seq.output());
        for l in 0..seq.model().num_layers() {
            prop_assert_eq!(&split.state().m[l], &seq.state().m[l]);
            prop_assert_eq!(&split.state().alpha[l], &seq.state().alpha[l]);
        }
        prop_assert_eq!(rs.batched_rows() as u64, rs.nodes_visited);
        if agg.is_monotonic() {
            prop_assert_eq!(seq.output(), &seq.recompute_reference());
        } else {
            let d = seq.audit_full();
            prop_assert!(d < 1e-3, "drift {}", d);
        }
    }
}

/// A recompute epoch (`resync`) on a warm hook-free engine reuses every
/// cached matrix and pooled temporary: reserved bytes stay flat while the
/// state is rebuilt bitwise-equal to the reference.
#[test]
fn recompute_epoch_is_allocation_free_once_warm() {
    let mut rng = seeded_rng(77);
    let g = ink_graph::generators::erdos_renyi(&mut rng, 64, 180);
    let x = uniform(&mut rng, 64, 6, -1.0, 1.0);
    let model = Model::sage(&mut rng, &[6, 8, 4], Aggregator::Mean);
    let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
    // Warm the pools with an update round and one in-place epoch.
    let mut drng = StdRng::seed_from_u64(99);
    let delta = DeltaBatch::random_scenario(engine.graph(), &mut drng, 6);
    engine.apply_delta(&delta);
    engine.resync();
    let warm = engine.state().reserved_bytes() + engine.scratch_bytes();
    assert!(warm > 0);
    for _ in 0..4 {
        let r = engine.resync();
        assert!(r.f32_written > 0);
        assert_eq!(engine.output(), &engine.recompute_reference());
    }
    assert_eq!(
        engine.state().reserved_bytes() + engine.scratch_bytes(),
        warm,
        "steady-state recompute epochs must not allocate"
    );
}
