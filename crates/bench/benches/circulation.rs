//! Criterion bench for E1/E4: cost of simulating token circulation and of computing virtual
//! rings, across tree shapes and sizes.

use bench::support::TreeShape;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use klex_core::{naive, KlConfig};
use topology::{Topology, VirtualRing};
use treenet::app::{BoxedDriver, Idle};
use treenet::RoundRobin;

fn bench_virtual_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("virtual_ring");
    for &n in &[8usize, 32, 128] {
        for shape in [TreeShape::Chain, TreeShape::Star, TreeShape::Random] {
            let tree = shape.build(n, 1);
            group.bench_with_input(
                BenchmarkId::new(shape.label(), n),
                &tree,
                |b, tree| b.iter(|| VirtualRing::of(tree).len()),
            );
        }
    }
    group.finish();
}

fn bench_token_circulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfs_token_circulation_10k_steps");
    group.sample_size(10);
    for &n in &[8usize, 32] {
        let tree = topology::builders::random_tree(n, 3);
        group.bench_with_input(BenchmarkId::new("naive_l1", n), &tree, |b, tree| {
            b.iter(|| {
                let cfg = KlConfig::new(1, 1, tree.len());
                let mut net =
                    naive::network(tree.clone(), cfg, |_| Box::new(Idle) as BoxedDriver);
                let mut sched = RoundRobin::new();
                treenet::engine::run(&mut net, &mut sched, 10_000);
                net.metrics().messages_sent
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_virtual_ring, bench_token_circulation);
criterion_main!(benches);
