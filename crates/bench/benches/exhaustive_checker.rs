//! Criterion bench for E12: throughput of the bounded-exhaustive checker (configurations
//! explored per second) on the instances the experiment enumerates, plus a head-to-head
//! comparison of the exploration engines:
//!
//! * `interned` — the packed/interned sequential engine (`Explorer::run_interned`), the
//!   delta engine's oracle;
//! * `delta` — the undo-log delta successor engine (`Explorer::run`, the default);
//! * `parallel` — work-stealing parallel delta exploration over the sharded arena
//!   (`Explorer::run_parallel`), one row per worker count.
//!
//! The comparison group also appends a dated entry to the `BENCH_explorer.json` history at
//! the workspace root recording states/second for each engine (the parallel engine at 1, 2,
//! 4 and all-cores workers, with the requested and effective thread counts spelled out), the
//! resulting speedups, and the largest instance whose reachable set the checker has
//! certified exhaustively (`pusher_star7`, 224k+ configurations).  The history keeps the
//! last [`bench::history::MAX_ENTRIES`] runs plus a `trend` block, so the gains are tracked
//! across runs, not just as a single overwritten snapshot (schema documented in
//! ARCHITECTURE.md § Performance baselines).

use analysis::harness::host_cores;
use bench::history::{Entry, History};
use checker::{drivers, ExploreEngine, Explorer, Limits};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use klex_core::KlConfig;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

fn explore_limits() -> Limits {
    Limits { max_configurations: 2_000_000, max_depth: usize::MAX }
}

/// The engine-comparison instance: a 5-node star under the pusher-only protocol with four
/// holding requesters competing for three tokens — 15k+ reachable configurations, an order of
/// magnitude beyond the Figure-3 instances, so interning and hashing costs dominate.
fn comparison_net(
) -> treenet::Network<klex_core::pusher::PusherNode, topology::OrientedTree> {
    let tree = topology::builders::star(5);
    let cfg = KlConfig::new(2, 3, 5);
    klex_core::pusher::network(tree, cfg, drivers::from_needs_holding(&[0usize, 2, 1, 2, 1]))
}

/// The certification instance: the largest reachable set the checker has enumerated
/// exhaustively — a 7-node star under the pusher-only protocol, six holding requesters
/// competing for three tokens, 224k+ configurations (an order of magnitude beyond
/// `pusher_star5`).  `emit_engine_baseline` re-certifies it on every bench run and records
/// its size and throughput in `BENCH_explorer.json`.
fn certified_net(
) -> treenet::Network<klex_core::pusher::PusherNode, topology::OrientedTree> {
    let tree = topology::builders::star(7);
    let cfg = KlConfig::new(2, 3, 7);
    klex_core::pusher::network(
        tree,
        cfg,
        drivers::from_needs_holding(&[0usize, 2, 1, 2, 1, 1, 1]),
    )
}

fn bench_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("exhaustive_exploration");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("naive_chain3_l2", "full-space"), |b| {
        b.iter(|| {
            let tree = topology::builders::chain(3);
            let cfg = KlConfig::new(2, 2, 3);
            let needs = [0usize, 2, 2];
            let mut net = klex_core::naive::network(tree, cfg, drivers::from_needs(&needs));
            let report = Explorer::new(&mut net).with_limits(explore_limits()).run();
            assert!(report.exhaustive());
            report.configurations
        })
    });

    group.bench_function(BenchmarkId::new("pusher_figure3", "full-space+graph"), |b| {
        b.iter(|| {
            let tree = topology::builders::figure3_tree();
            let cfg = KlConfig::new(2, 3, 3);
            let mut net =
                klex_core::pusher::network(tree, cfg, drivers::from_needs_holding(&[1usize, 2, 1]));
            let mut explorer =
                Explorer::new(&mut net).with_limits(explore_limits()).record_graph(true);
            let report = explorer.run();
            assert!(report.exhaustive());
            (report.configurations, explorer.graph().transition_count())
        })
    });

    group.finish();
}

fn bench_engine_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("explorer_engines");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("interned", "pusher_star5"), |b| {
        b.iter(|| {
            let mut net = comparison_net();
            let report = Explorer::new(&mut net)
                .with_limits(explore_limits())
                .run_with(ExploreEngine::Interned);
            assert!(report.exhaustive());
            report.configurations
        })
    });

    group.bench_function(BenchmarkId::new("delta", "pusher_star5"), |b| {
        b.iter(|| {
            let mut net = comparison_net();
            let report = Explorer::new(&mut net).with_limits(explore_limits()).run();
            assert!(report.exhaustive());
            report.configurations
        })
    });

    let threads = host_cores();
    group.bench_function(BenchmarkId::new(format!("parallel{threads}"), "pusher_star5"), |b| {
        b.iter(|| {
            let mut net = comparison_net();
            let report = Explorer::new(&mut net)
                .with_limits(explore_limits())
                .run_parallel(comparison_net, threads);
            assert!(report.exhaustive());
            report.configurations
        })
    });

    group.finish();
}

fn bench_cycle_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("starvation_cycle_search");
    group.sample_size(10);
    // Explore the priority-augmented Figure-3 instance once; the bench then measures only the
    // SCC decomposition + cycle search over the recorded graph (the negative case, which has
    // to look at the whole graph).
    let tree = topology::builders::figure3_tree();
    let cfg = KlConfig::new(2, 3, 3);
    let needs = [1usize, 2, 1];
    let mut net = klex_core::nonstab::network(tree, cfg, drivers::from_needs_holding(&needs));
    let mut explorer = Explorer::new(&mut net).with_limits(explore_limits()).record_graph(true);
    let report = explorer.run();
    assert!(report.exhaustive());
    let graph = explorer.into_graph();
    group.bench_function(BenchmarkId::new("nonstab_figure3", graph.len()), |b| {
        b.iter(|| {
            let cycle = checker::cycles::find_progress_cycle(&graph, 1);
            assert!(cycle.is_none());
        })
    });
    group.finish();
}

/// Times `run` (which returns the number of configurations explored) over `rounds` runs and
/// returns the best states/second together with the configuration count.
fn states_per_sec(rounds: usize, mut run: impl FnMut() -> usize) -> (f64, usize) {
    let mut best = 0.0f64;
    let mut configurations = 0;
    for _ in 0..rounds {
        let start = Instant::now();
        configurations = run();
        let rate = configurations as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    (best, configurations)
}

/// Records the engine comparison to `BENCH_explorer.json` at the workspace root: the two
/// sequential engines plus one parallel row per worker count (1, 2, 4 and all cores), and
/// the re-certified `pusher_star7` instance.  Every row records the *requested* worker
/// count next to the *effective* one (capped at the host's cores) — on a single-core
/// runner a 4-thread row is honest about the four workers time-slicing one core.
fn emit_engine_baseline(_c: &mut Criterion) {
    let limits = explore_limits();
    let rounds = 3;
    let cores = host_cores();
    let (interned_rate, configurations) = states_per_sec(rounds, || {
        let mut net = comparison_net();
        Explorer::new(&mut net)
            .with_limits(limits)
            .run_with(ExploreEngine::Interned)
            .configurations
    });
    let (delta_rate, delta_configs) = states_per_sec(rounds, || {
        let mut net = comparison_net();
        Explorer::new(&mut net).with_limits(limits).run().configurations
    });
    assert_eq!(configurations, delta_configs, "engines must agree on the state space");

    let mut requested: Vec<usize> = vec![1, 2, 4, cores];
    requested.sort_unstable();
    requested.dedup();
    let mut parallel_rows = Vec::new();
    let mut best_parallel_rate = 0.0f64;
    for &threads in &requested {
        let (rate, parallel_configs) = states_per_sec(rounds, || {
            let mut net = comparison_net();
            Explorer::new(&mut net)
                .with_limits(limits)
                .run_parallel(comparison_net, threads)
                .configurations
        });
        assert_eq!(configurations, parallel_configs, "engines must agree on the state space");
        // The 1-thread row is the sequential fallback by construction; keep it out of the
        // parallel-vs-delta headline so the ratio reflects actual multi-worker runs.
        if threads > 1 {
            best_parallel_rate = best_parallel_rate.max(rate);
        }
        parallel_rows.push(
            Entry::new()
                .int("requested_threads", threads as i128)
                .int("effective_threads", threads.min(cores) as i128)
                .num("states_per_sec", rate.round())
                .build(),
        );
    }

    // Re-certify the largest exhaustively-enumerated instance with both the sequential
    // delta engine and the work-stealing engine at full width.
    let mut certified = None;
    let (certified_delta_rate, certified_configs) = states_per_sec(rounds, || {
        let mut net = certified_net();
        let report = Explorer::new(&mut net).with_limits(limits).run();
        let count = report.configurations;
        certified = Some(report);
        count
    });
    let certified = certified.expect("at least one certification round");
    let (certified_parallel_rate, certified_parallel_configs) = states_per_sec(rounds, || {
        let mut net = certified_net();
        Explorer::new(&mut net)
            .with_limits(limits)
            .run_parallel(certified_net, cores)
            .configurations
    });
    assert!(certified.exhaustive(), "the certification instance must enumerate fully");
    assert_eq!(certified_configs, certified_parallel_configs, "engines must agree");
    assert!(certified_configs > configurations, "certified instance must be the largest");

    let ratio = |x: f64| (x * 100.0).round() / 100.0;
    let certified_entry = Entry::new()
        .str("instance", "pusher_star7 (k=2, l=3, n=7, holding needs 0+2+1+2+1+1+1)")
        .int("configurations", certified_configs as i128)
        .int("transitions", certified.transitions as i128)
        .int("max_depth", certified.max_depth as i128)
        .val("exhaustive", Value::Bool(true))
        .num("delta_states_per_sec", certified_delta_rate.round())
        .num("parallel_states_per_sec", certified_parallel_rate.round())
        .int("parallel_requested_threads", cores as i128)
        .int("parallel_effective_threads", cores as i128)
        .build();
    let entry = Entry::new()
        .str("bench", "exhaustive_checker")
        .str("instance", "pusher_star5 (k=2, l=3, n=5, holding needs 0+2+1+2+1)")
        .int("configurations", configurations as i128)
        .int("host_cores", cores as i128)
        .num("interned_states_per_sec", interned_rate.round())
        .num("delta_states_per_sec", delta_rate.round())
        .val("parallel", Value::Array(parallel_rows))
        .num("speedup_delta_vs_interned", ratio(delta_rate / interned_rate))
        .num("speedup_parallel_vs_delta", ratio(best_parallel_rate / delta_rate))
        .val("certified", certified_entry)
        .build();
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explorer.json"));
    let mut history = History::load(path, "exhaustive_checker").expect("load BENCH_explorer.json");
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_secs();
    history.append_dated(entry, now);
    history
        .save(path, EXPLORER_TREND_KEYS)
        .expect("write BENCH_explorer.json");
    eprintln!(
        "\nBENCH_explorer.json: appended entry {} of {} (delta {delta_rate:.0} states/s, \
         delta-vs-interned {:.2}x)",
        history.entries.len(),
        bench::history::MAX_ENTRIES,
        delta_rate / interned_rate,
    );
}

/// The metrics the history's `trend` block tracks (and `perf_smoke` gates against).
const EXPLORER_TREND_KEYS: &[&str] = &[
    "delta_states_per_sec",
    "speedup_delta_vs_interned",
    "speedup_parallel_vs_delta",
    "certified.delta_states_per_sec",
];

criterion_group!(
    benches,
    bench_exploration,
    bench_engine_comparison,
    bench_cycle_search,
    emit_engine_baseline,
);
criterion_main!(benches);
