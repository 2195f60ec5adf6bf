//! Criterion bench for E6: waiting-time measurement kernel under saturation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use bench::support::{scheduler, stabilized_ss_network};
use analysis::waiting::{max_waiting, waiting_times};
use klex_core::KlConfig;
use workloads::all_saturated;

fn bench_waiting(c: &mut Criterion) {
    let mut group = c.benchmark_group("waiting_time_saturated_20k_steps");
    group.sample_size(10);
    for &n in &[6usize, 10] {
        let cfg = KlConfig::new(1, 2, n);
        group.bench_with_input(BenchmarkId::new("chain", n), &n, |b, &n| {
            b.iter(|| {
                let tree = topology::builders::chain(n);
                let mut boot = scheduler(5);
                let mut net =
                    stabilized_ss_network(tree, cfg, all_saturated(1, 3), &mut boot, 2_000_000)
                        .expect("stabilizes");
                let mut sched = scheduler(9);
                treenet::engine::run(&mut net, &mut sched, 20_000);
                max_waiting(&waiting_times(net.trace()))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_waiting);
criterion_main!(benches);
