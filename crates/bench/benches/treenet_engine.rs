//! Criterion bench for the simulation runtime: steps/second of the fused event-driven loop
//! (`treenet::engine::run`), per daemon, on a 1023-node tree under the `UniformRandom`
//! workload.
//!
//! The recording group appends a dated entry to the `BENCH_treenet.json` history at the
//! workspace root with the fused steps/second of each daemon, so the engine's throughput is
//! tracked across runs (last [`bench::history::MAX_ENTRIES`] entries plus a `trend` block).
//! Override the measured horizon with `TREENET_BENCH_STEPS` (used by the CI smoke run).
//! Trace equivalence against the scan-based oracle daemons is asserted by
//! `tests/engine_equivalence.rs`, not here.
//!
//! A second comparison measures the **multi-trial reuse path**: many short seeded trials of
//! the same instance, once rebuilding the network per trial and once resetting one network
//! in place (`Network::reset_trial` — restart every process, install the trial's driver,
//! keep all allocations).  Both paths must produce identical per-trial metrics; the
//! recorded speedup is the allocation traffic saved per trial.

use analysis::harness::host_cores;
use analysis::SnapshotMonitor;
use bench::history::{Entry, History};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use klex_core::{ss, KlConfig, SsNode};
use serde_json::Value;
use std::path::Path;
use std::time::Instant;
use topology::OrientedTree;
use treenet::app::BoxedDriver;
use treenet::{
    engine, run_with_snapshots, EventScheduler, InitiatorPolicy, Network, RandomFair, Restartable,
    RoundRobin, SnapshotPlan, SnapshotRunner, Synchronous,
};
use workloads::UniformRandom;

const NODES: usize = 1023;

/// The engine-comparison instance: the self-stabilizing protocol on a 1023-node binary
/// tree, every process driven by the `UniformRandom` workload.  The root timeout is
/// shortened so the controller bootstraps within the warmup horizon and tokens circulate
/// during the measured window.
fn sim_net() -> Network<SsNode, OrientedTree> {
    let tree = topology::builders::binary(NODES);
    let cfg = KlConfig::new(3, 5, NODES).with_timeout(500);
    ss::network(tree, cfg, |id| {
        Box::new(UniformRandom::new(1_000 + id as u64, 0.05, 3, 20)) as BoxedDriver
    })
}

fn steps_budget() -> (u64, u64) {
    let measured: u64 = std::env::var("TREENET_BENCH_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_000_000);
    (measured / 2, measured)
}

/// Runs warmup + measured steps under one persistent `daemon` — its decision state (RNG
/// stream, cursors) continues from warmup into the measured window, exactly as in a real
/// experiment — and returns steps/second over the measured window.
fn steps_per_sec(warmup: u64, steps: u64, daemon: &mut impl EventScheduler) -> f64 {
    let mut net = sim_net();
    engine::run(&mut net, daemon, warmup);
    let start = Instant::now();
    engine::run(&mut net, daemon, steps);
    steps as f64 / start.elapsed().as_secs_f64()
}

fn bench_step_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("treenet_engines");
    group.sample_size(10);
    // A smaller instance for the iterating benchmark so each sample stays short.
    let quick_steps = 200_000u64;

    group.bench_function(BenchmarkId::new("fused", "random_fair"), |b| {
        b.iter(|| {
            let mut net = sim_net();
            let mut sched = RandomFair::new(42);
            engine::run(&mut net, &mut sched, quick_steps);
            net.metrics().activations
        })
    });

    group.finish();
}

/// The per-trial driver of the reuse comparison: the trial's stream seeds the workload the
/// same way for both paths, so their executions are identical step for step.
fn trial_driver(trial: u64, id: usize) -> BoxedDriver {
    Box::new(UniformRandom::new(1_000 + trial * 100_000 + id as u64, 0.05, 3, 20)) as BoxedDriver
}

fn trial_net(trial: u64) -> Network<SsNode, OrientedTree> {
    let tree = topology::builders::binary(NODES);
    let cfg = KlConfig::new(3, 5, NODES).with_timeout(500);
    ss::network(tree, cfg, |id| trial_driver(trial, id))
}

/// One trial's execution: run and return a comparable fingerprint of what happened.
fn run_trial(net: &mut Network<SsNode, OrientedTree>, trial: u64, steps: u64) -> (u64, u64, u64) {
    let mut daemon = RandomFair::new(42 + trial);
    engine::run(net, &mut daemon, steps);
    (net.metrics().activations, net.metrics().messages_sent, net.in_flight() as u64)
}

/// Measures the multi-trial comparison: rebuild-per-trial versus reset-in-place, returning
/// (trials/sec rebuild, trials/sec reuse).  Asserts both paths produce identical per-trial
/// fingerprints.
fn measure_trial_reuse(trials: u64, steps_per_trial: u64) -> (f64, f64) {
    let start = Instant::now();
    let rebuilt: Vec<_> = (0..trials)
        .map(|t| {
            let mut net = trial_net(t);
            run_trial(&mut net, t, steps_per_trial)
        })
        .collect();
    let rebuild_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut net = trial_net(0);
    let reused: Vec<_> = (0..trials)
        .map(|t| {
            if t > 0 {
                net.reset_trial(|id, node| {
                    node.restart();
                    node.app.set_driver(trial_driver(t, id));
                });
            }
            run_trial(&mut net, t, steps_per_trial)
        })
        .collect();
    let reuse_secs = start.elapsed().as_secs_f64();

    assert_eq!(rebuilt, reused, "reuse must be observationally identical to rebuilding");
    (trials as f64 / rebuild_secs, trials as f64 / reuse_secs)
}

/// Records the fused engine's throughput to `BENCH_treenet.json` at the workspace root.
fn emit_engine_entry(_c: &mut Criterion) {
    let (warmup, steps) = steps_budget();
    let rf = steps_per_sec(warmup, steps, &mut RandomFair::new(42));
    let rr = steps_per_sec(warmup, steps, &mut RoundRobin::new());
    let sy = steps_per_sec(warmup, steps, &mut Synchronous::new());

    // Multi-trial reuse comparison: many *short* seeded trials — the regime where per-trial
    // construction cost is a real fraction of the trial (long trials amortize the build away
    // and both paths converge; the harness's short convergence probes and smoke sweeps are
    // exactly this short-trial shape).
    let reuse_trials = (steps / 31_250).clamp(16, 256);
    let steps_per_trial = 4_096u64;
    let (rebuild_rate, reuse_rate) = measure_trial_reuse(reuse_trials, steps_per_trial);

    let cores = host_cores();
    let ratio = |x: f64| (x * 100.0).round() / 100.0;
    let daemon = |rate: f64| Entry::new().num("fused_steps_per_sec", rate.round()).build();
    let trial_reuse = Entry::new()
        .int("trials", reuse_trials as i128)
        .int("steps_per_trial", steps_per_trial as i128)
        .num("rebuild_trials_per_sec", ratio(rebuild_rate))
        .num("reuse_trials_per_sec", ratio(reuse_rate))
        .num("speedup_reuse_vs_rebuild", ratio(reuse_rate / rebuild_rate))
        .build();
    let entry = Entry::new()
        .str("bench", "treenet_engine")
        .str(
            "instance",
            &format!("ss k=3 l=5 on binary tree n={NODES}, UniformRandom(p=0.05, units<=3, hold<=20)"),
        )
        .int("measured_steps", steps as i128)
        .val("random_fair", daemon(rf))
        .val("round_robin", daemon(rr))
        .val("synchronous", daemon(sy))
        .val("trial_reuse", trial_reuse)
        .int("host_cores", cores as i128)
        .build();
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_treenet.json"));
    let mut history = History::load(path, "treenet_engine").expect("load BENCH_treenet.json");
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_secs();
    history.append_dated(entry, now);
    history.save(path, TREENET_TREND_KEYS).expect("write BENCH_treenet.json");
    eprintln!(
        "\nBENCH_treenet.json: appended entry {} of {} (random_fair fused {rf:.0} steps/s)",
        history.entries.len(),
        bench::history::MAX_ENTRIES,
    );
}

/// The metrics the history's `trend` block tracks.  Entries of the two bench series in
/// the file carry disjoint key sets, so each key's trend draws only on its own series
/// (`History::recent` skips entries missing a key); `snapshot_overhead_pct` is tracked
/// across both scale points because the overhead bound is size-independent.
const TREENET_TREND_KEYS: &[&str] = &[
    "random_fair.fused_steps_per_sec",
    "round_robin.fused_steps_per_sec",
    "synchronous.fused_steps_per_sec",
    "trial_reuse.speedup_reuse_vs_rebuild",
    "snapshot_overhead_pct",
];

/// The snapshot-scale instance: the self-stabilizing protocol on an `n`-node binary tree
/// under the arena/SoA network layout.  The root timeout is short enough that the
/// controller bootstraps tokens within the warmup horizon (legitimacy lands near 68n
/// steps), so the measured window snapshots a *stabilized* network and every completed
/// cut is expected clean.
fn scale_net(n: usize) -> Network<SsNode, OrientedTree> {
    let tree = topology::builders::binary(n);
    let cfg = KlConfig::new(3, 5, n).with_timeout(50);
    ss::network(tree, cfg, |id| {
        Box::new(UniformRandom::new(1_000 + id as u64, 0.05, 3, 20)) as BoxedDriver
    })
}

/// Measures one scale point: steps/second of the fused engine plain versus with periodic
/// consistent snapshots at the default `klex --snapshots` interval (128n activations,
/// counted from each cut's completion).  A cut's assembly takes roughly 40–50n activations
/// under `RandomFair` — markers travel FIFO behind protocol traffic, so the last channel
/// closures wait on the daemon draining the queues ahead of them — and every delivery
/// during assembly pays the in-transit recording cost.  The 128n idle span between cuts
/// keeps that recording duty cycle near 25%, holding the whole-run overhead under the 15%
/// budget this entry tracks.  Appends a dated entry to `BENCH_treenet.json`.
fn snapshot_scale_entry(n: usize, steps: u64) -> serde_json::Value {
    let warmup = (80 * n) as u64;
    let interval = 128 * n as u64;

    let mut plain_net = scale_net(n);
    let mut plain_daemon = RandomFair::new(42);
    engine::run(&mut plain_net, &mut plain_daemon, warmup);
    let start = Instant::now();
    engine::run(&mut plain_net, &mut plain_daemon, steps);
    let plain_rate = steps as f64 / start.elapsed().as_secs_f64();

    let mut snap_net = scale_net(n);
    let mut snap_daemon = RandomFair::new(42);
    engine::run(&mut snap_net, &mut snap_daemon, warmup);
    let cfg = KlConfig::new(3, 5, n);
    let mut runner =
        SnapshotRunner::new(SnapshotPlan { interval, initiator: InitiatorPolicy::Rotate });
    let mut monitor = SnapshotMonitor::new(&cfg);
    let start = Instant::now();
    run_with_snapshots(&mut snap_net, &mut snap_daemon, steps, &mut runner, &mut monitor);
    let snap_rate = steps as f64 / start.elapsed().as_secs_f64();

    let overhead_pct = (1.0 - snap_rate / plain_rate) * 100.0;
    let clean = monitor.verdicts().iter().filter(|v| v.clean()).count();
    let ratio = |x: f64| (x * 100.0).round() / 100.0;
    Entry::new()
        .str("bench", "treenet_snapshot_scale")
        .str("instance", &format!("ss k=3 l=5 on binary tree n={n}, UniformRandom(p=0.05)"))
        .int("nodes", n as i128)
        .int("measured_steps", steps as i128)
        .int("snapshot_interval", interval as i128)
        .num("plain_steps_per_sec", plain_rate.round())
        .num("snapshot_steps_per_sec", snap_rate.round())
        .num("snapshot_overhead_pct", ratio(overhead_pct))
        .int("cuts_completed", runner.cuts_completed() as i128)
        .int("cuts_clean", clean as i128)
        .int("markers_sent", runner.markers_sent() as i128)
        .build()
}

/// Records the snapshot-overhead scale sweep (n = 10⁵ and 10⁶ by default) to
/// `BENCH_treenet.json`.  Override the sizes with `TREENET_SNAPSHOT_NODES`
/// (comma-separated) and the per-size measured horizon with `TREENET_SNAPSHOT_STEPS`
/// (default 400n — slightly over two full record+idle snapshot cycles, so every run
/// completes at least two cuts and the measured window reflects the steady-state duty
/// cycle rather than a window that is all recording or all idle).
fn emit_snapshot_scale(_c: &mut Criterion) {
    let sizes: Vec<usize> = std::env::var("TREENET_SNAPSHOT_NODES")
        .map(|s| s.split(',').filter_map(|v| v.trim().parse().ok()).collect())
        .unwrap_or_else(|_| vec![100_000, 1_000_000]);
    let steps_override: Option<u64> =
        std::env::var("TREENET_SNAPSHOT_STEPS").ok().and_then(|s| s.parse().ok());

    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_treenet.json"));
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_secs();
    for n in sizes {
        let steps = steps_override.unwrap_or(400 * n as u64);
        let entry = snapshot_scale_entry(n, steps);
        let overhead = entry.get("snapshot_overhead_pct").and_then(Value::as_f64);
        let cuts = entry.get("cuts_completed").and_then(Value::as_u64).unwrap_or(0);
        let mut history = History::load(path, "treenet_engine").expect("load BENCH_treenet.json");
        history.append_dated(entry, now);
        history.save(path, TREENET_TREND_KEYS).expect("write BENCH_treenet.json");
        eprintln!(
            "BENCH_treenet.json: snapshot scale n={n}: {cuts} cuts, overhead {:.2}%",
            overhead.unwrap_or(f64::NAN),
        );
    }
}

criterion_group!(benches, bench_step_throughput, emit_engine_entry, emit_snapshot_scale);
criterion_main!(benches);
