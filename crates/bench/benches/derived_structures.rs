//! Wall-clock update costs of the derived structures (matching, coloring,
//! clustering) — the composability story of Section 5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dmis_cluster::DynamicClustering;
use dmis_derived::{ColoringEngine, NativeMatching};
use dmis_graph::{generators, TopologyChange};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_matching_native(c: &mut Criterion) {
    let mut group = c.benchmark_group("derived_matching_native");
    for &n in &[64usize, 256] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let (g, _) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
        group.bench_with_input(BenchmarkId::new("edge_toggle", n), &n, |b, _| {
            let mut nm = NativeMatching::new(g.clone(), 2);
            let mut rng = StdRng::seed_from_u64(5);
            let edges: Vec<_> = (0..256)
                .map(|_| generators::random_edge(nm.graph(), &mut rng).expect("has edges"))
                .collect();
            let mut i = 0usize;
            b.iter(|| {
                let (u, v) = edges[i % edges.len()];
                i += 1;
                black_box(nm.remove_edge(u, v).expect("valid"));
                black_box(nm.insert_edge(u, v).expect("valid"));
            });
        });
    }
    group.finish();
}

fn bench_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("derived_coloring");
    for &n in &[64usize, 256] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let (g, _) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
        group.bench_with_input(BenchmarkId::new("edge_toggle", n), &n, |b, _| {
            let mut ce = ColoringEngine::from_graph(g.clone(), 2);
            let mut rng = StdRng::seed_from_u64(5);
            let edges: Vec<_> = (0..256)
                .map(|_| generators::random_edge(ce.graph(), &mut rng).expect("has edges"))
                .collect();
            let mut i = 0usize;
            b.iter(|| {
                let (u, v) = edges[i % edges.len()];
                i += 1;
                black_box(ce.remove_edge(u, v).expect("valid"));
                black_box(ce.insert_edge(u, v).expect("valid"));
            });
        });
    }
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("derived_clustering");
    for &n in &[64usize, 256] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let (g, _) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
        group.bench_with_input(BenchmarkId::new("edge_toggle", n), &n, |b, _| {
            let mut dc = DynamicClustering::new(g.clone(), 2);
            let mut rng = StdRng::seed_from_u64(5);
            let edges: Vec<_> = (0..256)
                .map(|_| generators::random_edge(dc.graph(), &mut rng).expect("has edges"))
                .collect();
            let mut i = 0usize;
            b.iter(|| {
                let (u, v) = edges[i % edges.len()];
                i += 1;
                black_box(dc.apply(&TopologyChange::DeleteEdge(u, v)).expect("valid"));
                black_box(dc.apply(&TopologyChange::InsertEdge(u, v)).expect("valid"));
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_matching_native, bench_coloring, bench_clustering
}
criterion_main!(benches);
