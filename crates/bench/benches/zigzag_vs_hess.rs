//! Ablation: per-node enumeration cost, Geosphere 2-D zigzag vs the
//! ETH-SD/Hess row scheme vs the naive full sort, as a function of
//! constellation density and of how many children are actually needed.
//!
//! This isolates the §3.1.1 design choice: the zigzag's advantage is that
//! a node expansion that only ever needs its first few children (the
//! common case at reasonable SNR) never pays for the rest.
//!
//! The `enumerate_*` groups time the cold path (`make`, infinite budget).
//! The `node_reuse_*` groups time the path the search engine pays per tree
//! node: reset a warm slot through `make_in`, take the first child, then
//! drain under a finite budget. Their throughput is nodes per second, so
//! `1e9 / rate` is the cost of one node in ns.
//!
//! ```sh
//! cargo bench -p gs-bench --bench zigzag_vs_hess -- node_reuse
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use geosphere_core::sphere::{
    EnumeratorFactory, ExhaustiveSortFactory, GeosphereFactory, HessFactory, NodeEnumerator,
};
use geosphere_core::DetectorStats;
use gs_linalg::Complex;
use gs_modulation::Constellation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Node centres per `node_reuse` iteration.
const NODES: usize = 4096;
/// Remaining sphere budget per node (unit gain). Grid points are 2 apart,
/// so about 1.5 children fit on average: the search engine accepts about
/// one child per opened node at the paper's operating point
/// (`tests/search_counters.rs`: 4608 visited nodes over 4477 opened at
/// 28 dB), then asks once more and is refused.
const NODE_BUDGET: f64 = 2.0;

fn drain_k<F: EnumeratorFactory>(factory: &F, c: Constellation, k: usize) -> u64 {
    let mut stats = DetectorStats::default();
    // A spread of centers so the benches cover different slice geometries.
    let centers = [
        Complex::new(0.2, -0.6),
        Complex::new(3.4, 2.9),
        Complex::new(-1.1, 0.1),
        Complex::new(7.7, -7.3),
    ];
    let mut acc = 0u64;
    for &center in &centers {
        let mut e = factory.make(c, center, 1.0, &mut stats);
        for _ in 0..k {
            if let Some(ch) = e.next_child(f64::INFINITY, &mut stats) {
                acc = acc.wrapping_add(ch.point.i as u64);
            }
        }
    }
    acc + stats.ped_calcs
}

fn bench_enumeration(cr: &mut Criterion) {
    for c in [Constellation::Qam16, Constellation::Qam64, Constellation::Qam256] {
        let mut group = cr.benchmark_group(format!("enumerate_{c:?}"));
        for &k in &[1usize, 4, 16] {
            group.bench_with_input(BenchmarkId::new("geosphere_zigzag", k), &k, |b, &k| {
                b.iter(|| drain_k(&GeosphereFactory::zigzag_only(), c, k))
            });
            group.bench_with_input(BenchmarkId::new("hess_rows", k), &k, |b, &k| {
                b.iter(|| drain_k(&HessFactory, c, k))
            });
            group.bench_with_input(BenchmarkId::new("full_sort", k), &k, |b, &k| {
                b.iter(|| drain_k(&ExhaustiveSortFactory, c, k))
            });
        }
        group.finish();
    }
}

/// Deterministic node centres spread over (and just past) the grid.
fn node_centers(c: Constellation) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(1410);
    let r = c.side() as f64;
    (0..NODES).map(|_| Complex::new(rng.gen_range(-r..r), rng.gen_range(-r..r))).collect()
}

/// One node per centre through a warm slot: `make_in`, first child, then
/// drain while children fit `NODE_BUDGET`. Returns a checksum of costs and
/// PED count so the work cannot be optimized away.
fn visit_nodes<F: EnumeratorFactory>(
    factory: &F,
    slot: &mut Option<F::Enumerator>,
    c: Constellation,
    centers: &[Complex],
) -> f64 {
    let mut stats = DetectorStats::default();
    let mut acc = 0.0;
    for &center in centers {
        factory.make_in(slot, c, center, 1.0, &mut stats);
        let e = slot.as_mut().expect("slot just filled");
        while let Some(ch) = e.next_child(NODE_BUDGET, &mut stats) {
            if ch.cost >= NODE_BUDGET {
                break;
            }
            acc += ch.cost;
        }
    }
    acc + stats.ped_calcs as f64
}

fn bench_node_reuse(cr: &mut Criterion) {
    for c in [Constellation::Qam16, Constellation::Qam64, Constellation::Qam256] {
        let centers = node_centers(c);
        let mut group = cr.benchmark_group(format!("node_reuse_{c:?}"));
        group.throughput(Throughput::Elements(NODES as u64));
        let full = GeosphereFactory::full();
        let mut slot = None;
        visit_nodes(&full, &mut slot, c, &centers); // warm the slot
        group.bench_function("geosphere_full", |b| {
            b.iter(|| visit_nodes(&full, &mut slot, c, &centers))
        });
        let mut slot = None;
        visit_nodes(&HessFactory, &mut slot, c, &centers);
        group.bench_function("hess_rows", |b| {
            b.iter(|| visit_nodes(&HessFactory, &mut slot, c, &centers))
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_enumeration, bench_node_reuse
}
criterion_main!(benches);
