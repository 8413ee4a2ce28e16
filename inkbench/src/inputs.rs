//! Input generation. The dataset — the shared R-MAT graph, its features,
//! the model weights and which vertices are hot — is fixed, like a named
//! dataset; the traffic — every change stream and read sequence — comes
//! from the workload seed. Everything here runs before timing starts.

use ink_gnn::{Aggregator, Model};
use ink_graph::generators::rmat::{rmat, RmatParams};
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, FxHashMap, VertexId};
use ink_tensor::init::{seeded_rng, sparse_power_law};
use ink_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt};

/// Vertex count of the shared graph.
pub const VERTICES: usize = 50_000;
/// Undirected edge count of the shared graph.
pub const EDGES: usize = 500_000;
/// Input feature width.
pub const FEATURES: usize = 64;
/// Hidden (and output) width of both models.
pub const HIDDEN: usize = 64;

/// Seed of the fixed dataset. Keeping the dataset fixed leaves run-to-run
/// spread to the traffic and the machine, not to which graph was drawn.
const DATASET: u64 = 0x1A5D_2025;

/// Derives an independent generator for one input.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    seeded_rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// The R-MAT graph (Graph500 quadrant mix) and its sparse power-law
/// features.
pub fn graph_and_features() -> (DynGraph, Matrix) {
    let graph = rmat(
        &mut rng_for(DATASET, 1),
        VERTICES,
        EDGES,
        RmatParams::default(),
    );
    let features = sparse_power_law(&mut rng_for(DATASET, 2), VERTICES, FEATURES, 0.2, 0.9);
    (graph, features)
}

/// A 2-layer model of the given family with the given aggregator.
pub fn model(sage: bool, agg: Aggregator) -> Model {
    let dims = [FEATURES, HIDDEN, HIDDEN];
    let mut rng = rng_for(DATASET, 3);
    if sage {
        Model::sage(&mut rng, &dims, agg)
    } else {
        Model::gcn(&mut rng, &dims, agg)
    }
}

/// Canonical undirected key of an edge.
fn canon(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// The evolving edge set a change stream is generated against: O(1)
/// membership, uniform sampling of a present edge, insert and remove.
pub struct EdgeSet {
    edges: Vec<(VertexId, VertexId)>,
    slot: FxHashMap<(VertexId, VertexId), usize>,
}

impl EdgeSet {
    /// The edge set of `g` (undirected).
    pub fn of(g: &DynGraph) -> Self {
        let edges = g.edges();
        let slot = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        Self { edges, slot }
    }

    /// Whether `{u, v}` is present.
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.slot.contains_key(&canon(u, v))
    }

    fn insert(&mut self, u: VertexId, v: VertexId) {
        let key = canon(u, v);
        self.slot.insert(key, self.edges.len());
        self.edges.push(key);
    }

    fn remove_at(&mut self, i: usize) -> (VertexId, VertexId) {
        let key = self.edges.swap_remove(i);
        self.slot.remove(&key);
        if let Some(&moved) = self.edges.get(i) {
            self.slot.insert(moved, i);
        }
        key
    }

    /// Applies one change; panics if it is a no-op (streams never hold one).
    pub fn apply(&mut self, c: EdgeChange) {
        let present = self.contains(c.src, c.dst);
        match c.op {
            ink_graph::EdgeOp::Insert => {
                assert!(!present, "stream inserts a present edge");
                self.insert(c.src, c.dst);
            }
            ink_graph::EdgeOp::Remove => {
                assert!(present, "stream removes an absent edge");
                let i = self.slot[&canon(c.src, c.dst)];
                self.remove_at(i);
            }
        }
    }

    /// The change that flips `{u, v}`: a removal when present, else an
    /// insertion. Applies it.
    pub fn flip(&mut self, u: VertexId, v: VertexId) -> EdgeChange {
        let c = if self.contains(u, v) {
            EdgeChange::remove(u, v)
        } else {
            EdgeChange::insert(u, v)
        };
        self.apply(c);
        c
    }

    /// All edges, sorted canonically.
    pub fn sorted(&self) -> Vec<(VertexId, VertexId)> {
        let mut e = self.edges.clone();
        e.sort_unstable();
        e
    }
}

/// `count` batches of `size` changes each, half removals of present edges
/// and half insertions of absent ones (the paper's default mix), generated
/// against the evolving graph. No edge appears twice in one batch.
pub fn mixed_stream(g: &DynGraph, seed: u64, size: usize, count: usize) -> Vec<DeltaBatch> {
    let mut rng = rng_for(seed, 4);
    let mut set = EdgeSet::of(g);
    let n = g.num_vertices() as VertexId;
    (0..count)
        .map(|_| {
            let mut changes = Vec::with_capacity(size);
            let mut removed = Vec::with_capacity(size / 2);
            for _ in 0..size / 2 {
                let (u, v) = set.remove_at(rng.random_range(0..set.edges.len()));
                removed.push((u, v));
                changes.push(EdgeChange::remove(u, v));
            }
            while changes.len() < size {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u == v || set.contains(u, v) || removed.contains(&canon(u, v)) {
                    continue;
                }
                set.insert(u, v);
                changes.push(EdgeChange::insert(u, v));
            }
            DeltaBatch::new(changes)
        })
        .collect()
}

/// A stationary stream of batches of `size` changes: `forward` batches of
/// [`mixed_stream`], then the inverse of each in reverse order, which brings
/// the graph back to `g`. A run cycles through it, so the graph stays
/// within `forward * size` changes of `g` however many rounds a run gets
/// through; a stream that kept inserting random edges would wear the
/// R-MAT structure away and make late rounds slower the faster the machine
/// ran.
pub fn cyclic_stream(g: &DynGraph, seed: u64, size: usize, forward: usize) -> Vec<DeltaBatch> {
    let mut batches = mixed_stream(g, seed, size, forward);
    let back: Vec<DeltaBatch> = batches.iter().rev().map(DeltaBatch::inverse).collect();
    batches.extend(back);
    batches
}

/// A Zipf sampler over ranks `0..n`: rank `r` has weight `1/(r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Self { cdf }
    }

    /// One rank (0 is the hottest).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Zipf-hot vertices: ranks map to vertices through a seeded permutation,
/// so the hot set is not tied to the R-MAT hubs (low vertex ids).
pub struct HotVertices {
    zipf: Zipf,
    perm: Vec<VertexId>,
}

impl HotVertices {
    /// The sampler over `n` vertices with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        let mut rng = rng_for(DATASET, 5);
        for i in (1..n).rev() {
            perm.swap(i, rng.random_range(0..=i));
        }
        Self {
            zipf: Zipf::new(n, s),
            perm,
        }
    }

    /// One hot vertex.
    pub fn sample(&self, rng: &mut StdRng) -> VertexId {
        self.perm[self.zipf.sample(rng)]
    }
}

/// Generates `Update` payloads of Zipf-hot edge flips. The flips toggle
/// edges of a fixed pool of hot vertex pairs, half of them present at the
/// start and half absent, with pair popularity again Zipf; so inserts and
/// removals stay balanced and the graph does not drift as the run goes on.
/// Flipping applies to the caller's `EdgeSet`, keeping the stream
/// consistent with the graph the server holds.
pub struct FlipStream {
    pairs: Vec<(VertexId, VertexId)>,
    zipf: Zipf,
    rng: StdRng,
}

impl FlipStream {
    /// A stream over `pool` pairs drawn around `hot` vertices of `g`; the
    /// pool is part of the dataset, the flip sequence comes from `seed`.
    pub fn new(g: &DynGraph, hot: &HotVertices, pool: usize, s: f64, seed: u64) -> Self {
        let mut rng = rng_for(DATASET, 6);
        let mut seen = ink_graph::FxHashSet::default();
        let mut pairs = Vec::with_capacity(pool);
        while pairs.len() < pool {
            let u = hot.sample(&mut rng);
            let v = if pairs.len() % 2 == 0 {
                let adj = g.out_neighbors(u);
                if adj.is_empty() {
                    continue;
                }
                adj[rng.random_range(0..adj.len())]
            } else {
                let v = hot.sample(&mut rng);
                if g.has_edge(u, v) {
                    continue;
                }
                v
            };
            if u != v && seen.insert(canon(u, v)) {
                pairs.push(canon(u, v));
            }
        }
        Self {
            pairs,
            zipf: Zipf::new(pool, s),
            rng: rng_for(seed, 0x100),
        }
    }

    /// Reseeds the generator, so each phase's pair sequence depends only on
    /// the seed and the phase.
    pub fn reseed(&mut self, seed: u64, stream: u64) {
        self.rng = rng_for(seed, 0x100 + stream);
    }

    /// `count` payloads of `size` distinct flips, applied to `set`.
    pub fn updates(
        &mut self,
        set: &mut EdgeSet,
        size: usize,
        count: usize,
    ) -> Vec<Vec<EdgeChange>> {
        (0..count)
            .map(|_| {
                let mut changes: Vec<EdgeChange> = Vec::with_capacity(size);
                while changes.len() < size {
                    let (u, v) = self.pairs[self.zipf.sample(&mut self.rng)];
                    if changes.iter().any(|c| (c.src, c.dst) == (u, v)) {
                        continue;
                    }
                    changes.push(set.flip(u, v));
                }
                changes
            })
            .collect()
    }
}

/// Undoes generated-but-unsent payloads, newest first (a flip is its own
/// inverse).
pub fn unflip(set: &mut EdgeSet, unsent: &[Vec<EdgeChange>]) {
    for update in unsent.iter().rev() {
        for c in update.iter().rev() {
            set.apply(c.inverse());
        }
    }
}
