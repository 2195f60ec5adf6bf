//! `sim-dense`: one `klex run` of the generated simulator spec per job.

use crate::host::peak_rss_mb;
use crate::report::{Report, Samples};
use crate::specs::{self, DENSE_STEPS};
use crate::trace::{clock_cost_ns, Tracer};
use crate::{record_jobs, traced_passes, Run, SpecSetup};
use analysis::harness::render_jsonl;
use analysis::scenario::{CompiledScenario, ScenarioSpec};
use analysis::{SnapshotMonitor, Verdict};
use bench::runner::{run_rows, Backend, RunProduct, RunRequest};
use std::collections::BTreeMap;
use std::time::Instant;
use treenet::{Activation, EnabledShape, EventScheduler, SnapshotPlan, SnapshotRunner};

/// Simulated counts of one job, read from the network after the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    activations: u64,
    deliveries: u64,
    ticks: u64,
    messages_sent: u64,
    grants: u64,
}

impl Counts {
    fn digest(&self, report: &mut Report) {
        report.digest("activations", self.activations);
        report.digest("deliveries", self.deliveries);
        report.digest("ticks", self.ticks);
        report.digest("messages_sent", self.messages_sent);
        report.digest("grants", self.grants);
    }
}

fn counts_of<P: treenet::Process, T: topology::Topology>(net: &treenet::Network<P, T>) -> Counts {
    let metrics = net.metrics();
    Counts {
        activations: metrics.activations,
        deliveries: metrics.deliveries,
        ticks: metrics.ticks,
        messages_sent: metrics.messages_sent,
        grants: net.trace().cs_entries(None) as u64,
    }
}

/// Checks one `run_rows` job: a single row whose monitors are satisfied, with the full step
/// count.  Returns the rendered JSONL and the row's metrics.
fn check_job(
    product: Result<RunProduct, String>,
) -> Result<(String, BTreeMap<String, f64>), String> {
    let product = product?;
    let [row] = product.rows.as_slice() else {
        return Err(format!("expected one row, got {}", product.rows.len()));
    };
    for (name, value) in &row.metrics {
        if name.starts_with("mon:") && *value != 1.0 {
            return Err(format!(
                "monitor {name} not satisfied ({value}): {:?}",
                product.notes
            ));
        }
    }
    let metric = |name: &str| row.metrics.get(name).copied();
    if metric("steps") != Some(DENSE_STEPS as f64) || metric("satisfied") != Some(1.0) {
        return Err(format!("run did not complete: {:?}", row.metrics));
    }
    Ok((render_jsonl(&product.rows), row.metrics.clone()))
}

/// Re-runs the job's execution directly on the simulator (the network and daemon the
/// scenario builds, through the fused loop) and returns its counts — the digest,
/// cross-checked against the `run_rows` row.
fn engine_counts(scenario: &CompiledScenario) -> Result<Counts, String> {
    let mut net = scenario.build_ss().map_err(|e| e.to_string())?;
    let mut daemon = scenario.make_daemon();
    treenet::engine::run(&mut net, &mut daemon, DENSE_STEPS);
    Ok(counts_of(&net))
}

/// The row figures the direct re-run must reproduce.
fn matches_row(counts: &Counts, row: &BTreeMap<String, f64>) -> Result<(), String> {
    let pairs = [
        ("steps", counts.activations),
        ("messages_sent", counts.messages_sent),
        ("cs_entries", counts.grants),
    ];
    for (name, value) in pairs {
        if row.get(name) != Some(&(value as f64)) {
            return Err(format!(
                "direct re-run {name} = {value}, run_rows row says {:?}",
                row.get(name)
            ));
        }
    }
    Ok(())
}

/// The untraced run: set-up, then `run_rows` jobs until the window closes.
pub fn measure(run: &Run, report: &mut Report) -> Option<Tracer> {
    let json = specs::sim_dense(run.seed).to_json();
    let (mut setup, scenario) = match SpecSetup::start(&json) {
        Ok(started) => started,
        Err(message) => {
            report.record(Err(message));
            return None;
        }
    };
    let request = RunRequest {
        backend: Backend::Sim,
        shards: 0,
        threads: None,
        bench: false,
    };

    // One unmeasured warm-up job; every later job must render the same bytes.  The peak RSS
    // of the process is read after it, so `peak_rss_mb` is the memory of one job at any
    // speed.
    let (reference, row) = match check_job(run_rows(&scenario, &request, None)) {
        Ok(first) => first,
        Err(message) => {
            report.record(Err(format!("warm-up job: {message}")));
            return None;
        }
    };
    let peak = peak_rss_mb(std::process::id()).unwrap_or(0.0);
    report.metric("peak_rss_mb", peak);
    report.summary("peak_rss_mb", peak, "MB");
    let mut latencies = Vec::new();
    let window = Instant::now();
    let deadline = run.deadline();
    while latencies.is_empty() || Instant::now() < deadline {
        let start = Instant::now();
        let product = run_rows(&scenario, &request, None);
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        report.record(check_job(product).and_then(|(rendered, _)| {
            if rendered == reference {
                Ok(())
            } else {
                Err("a repeated job rendered different rows".to_string())
            }
        }));
        if let Err(message) = setup.between_jobs() {
            report.record(Err(message));
        }
    }
    let window_s = window.elapsed().as_secs_f64() - setup.window_share_s();
    report.metric("setup_s", setup.median_s());
    report.summary("setup_s", setup.median_s(), "s");
    record_jobs(report, &latencies, window_s);

    let counts = match engine_counts(&scenario) {
        Ok(counts) => counts,
        Err(message) => {
            report.record(Err(message));
            return None;
        }
    };
    report.record(matches_row(&counts, &row));
    counts.digest(report);
    let jobs_per_s = latencies.len() as f64 / window_s;
    report.summary(
        "activations_per_s",
        counts.activations as f64 * jobs_per_s,
        "1/s",
    );
    report.summary(
        "deliveries_per_s",
        counts.deliveries as f64 * jobs_per_s,
        "1/s",
    );
    report.summary("cs_grants_per_s", counts.grants as f64 * jobs_per_s, "1/s");
    None
}

/// Per-call timings of one job stepped activation by activation.
struct Stepped {
    counts: Counts,
    daemon_ns: f64,
    tick_ns: f64,
    deliver_ns: f64,
}

/// Steps the job's network the way the fused loop does — one `next_event` then one
/// `execute` per activation — timing each call.  Every timed interval contains one clock
/// read, whose cost `clock_ns` is subtracted from the means.
fn step_by_call(scenario: &CompiledScenario, clock_ns: f64) -> Result<Stepped, String> {
    let mut net = scenario.build_ss().map_err(|e| e.to_string())?;
    let mut daemon = scenario.make_daemon();
    let (mut daemon_ns, mut tick_ns, mut deliver_ns) = (0u64, 0u64, 0u64);
    let (mut ticks, mut deliveries) = (0u64, 0u64);
    let mut before = Instant::now();
    for _ in 0..DENSE_STEPS {
        let activation = daemon.next_event(&EnabledShape::new(net.enabled_set()));
        let chosen = Instant::now();
        net.execute(activation);
        let executed = Instant::now();
        daemon_ns += (chosen - before).as_nanos() as u64;
        let execute_ns = (executed - chosen).as_nanos() as u64;
        match activation {
            Activation::Tick { .. } => {
                tick_ns += execute_ns;
                ticks += 1;
            }
            Activation::Deliver { .. } => {
                deliver_ns += execute_ns;
                deliveries += 1;
            }
        }
        before = executed;
    }
    let mean = |total: u64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            (total as f64 / calls as f64 - clock_ns).max(0.0)
        }
    };
    let counts = counts_of(&net);
    if counts.ticks + counts.deliveries != ticks + deliveries {
        return Err(format!(
            "stepped {ticks} ticks + {deliveries} deliveries, metrics say {counts:?}"
        ));
    }
    Ok(Stepped {
        counts,
        daemon_ns: mean(daemon_ns, DENSE_STEPS),
        tick_ns: mean(tick_ns, ticks),
        deliver_ns: mean(deliver_ns, deliveries),
    })
}

/// The job's execution with periodic consistent snapshots interposed (one cut every 128n
/// activations from the root, the `klex run --snapshots` default); returns how many cuts
/// were taken and how many were clean.  No workload's spec takes cuts, so this is where
/// the snapshot layer is measured: on delivery-dense traffic, where in-transit recording
/// has the most to record.
fn snapshot_cuts(scenario: &CompiledScenario) -> Result<(u64, u64), String> {
    let spec = scenario.spec();
    let mut net = scenario.build_ss().map_err(|e| e.to_string())?;
    let mut daemon = scenario.make_daemon();
    let cfg = spec.config.to_kl(spec.topology.len());
    let plan = SnapshotPlan {
        interval: 128 * spec.topology.len() as u64,
        initiator: treenet::InitiatorPolicy::Root,
    };
    let mut runner = SnapshotRunner::new(plan);
    let mut monitor = SnapshotMonitor::new(&cfg);
    treenet::run_with_snapshots(
        &mut net,
        &mut daemon,
        DENSE_STEPS,
        &mut runner,
        &mut monitor,
    );
    let verdicts = monitor.into_verdicts();
    // Every cut must respect the safety bounds.  The census reaches (ℓ, 1, 1) only once the
    // root has created all ℓ tokens, so cuts before that are expected to miss it; from the
    // first complete census on, every cut must match (closure).
    let bootstrap = verdicts.iter().take_while(|v| !v.census_matches).count();
    if let Some(bad) = verdicts
        .iter()
        .enumerate()
        .find(|(i, v)| !v.safety_ok || (*i >= bootstrap && !v.census_matches))
    {
        return Err(format!(
            "snapshot cut {} at {} is not clean: {:?}",
            bad.0, bad.1.initiated_at, bad.1.census
        ));
    }
    let clean = verdicts.iter().filter(|v| v.clean()).count() as u64;
    Ok((verdicts.len() as u64, clean))
}

/// One traced pass; returns an error for a failed output check.
fn traced_pass(
    json: &str,
    clock_ns: f64,
    tracer: &mut Tracer,
    samples: &mut Samples,
    digest: &mut Option<Counts>,
) -> Result<(), String> {
    let (spec, decode_s) = tracer.timed("analysis.decode", |_| ScenarioSpec::from_json(json));
    let (scenario, compile_s) = tracer.timed("analysis.compile", |_| spec?.compile());
    let scenario = scenario.map_err(|e| e.to_string())?;
    samples.add("analysis.decode_us", decode_s * 1e6);
    samples.add("analysis.compile_s", compile_s);

    let (stepped, stepped_s) = tracer.timed("treenet.step_by_call", |_| {
        step_by_call(&scenario, clock_ns)
    });
    let stepped = stepped?;
    let (counts, fused_s) = tracer.timed("treenet.engine_run", |_| engine_counts(&scenario));
    let counts = counts?;
    if counts != stepped.counts {
        return Err(format!(
            "call-by-call stepping {:?} differs from the fused loop {counts:?}",
            stepped.counts
        ));
    }
    samples.add("treenet.daemon_ns", stepped.daemon_ns);
    samples.add("treenet.tick_ns", stepped.tick_ns);
    samples.add("treenet.deliver_ns", stepped.deliver_ns);
    samples.add(
        "trace.overhead_pct",
        (stepped_s - fused_s) / fused_s * 100.0,
    );
    samples.add("treenet.activations", counts.activations as f64);
    samples.add("treenet.deliveries", counts.deliveries as f64);
    samples.add("treenet.ticks", counts.ticks as f64);
    samples.add("treenet.messages_sent", counts.messages_sent as f64);
    samples.add("treenet.grants", counts.grants as f64);
    samples.add(
        "treenet.delivery_share",
        counts.deliveries as f64 / counts.activations as f64,
    );
    samples.add(
        "treenet.messages_per_grant",
        counts.messages_sent as f64 / counts.grants.max(1) as f64,
    );
    *digest = Some(counts);

    let (cuts, snap_s) = tracer.timed("treenet.run_with_snapshots", |_| snapshot_cuts(&scenario));
    let (cuts, clean) = cuts?;
    samples.add(
        "treenet.snapshot_overhead_pct",
        (snap_s - fused_s) / fused_s * 100.0,
    );
    samples.add("treenet.snapshot_cuts", cuts as f64);
    samples.add(
        "treenet.snapshot_clean_share",
        clean as f64 / cuts.max(1) as f64,
    );
    if clean == 0 {
        return Err(format!("none of {cuts} snapshot cuts is clean"));
    }

    // The scenario layer around the same execution: run, monitors, render.
    let outcome = tracer.span("analysis.run", |_| scenario.run());
    samples.add("treenet.trace_events", outcome.trace.len() as f64);
    let (monitors, monitor_s) = tracer.timed("analysis.monitor_outcome", |_| {
        scenario.monitor_outcome(&outcome)
    });
    samples.add("analysis.monitor_s", monitor_s);
    if let Some(monitor) = monitors
        .iter()
        .find(|m| !matches!(m.verdict, Verdict::Satisfied))
    {
        return Err(format!(
            "monitor {} not satisfied: {:?}",
            monitor.name, monitor.verdict
        ));
    }
    matches_row(&counts, &outcome.metrics)?;
    // The row `run_rows` renders: the outcome's metrics plus one score per monitor.
    let mut rows = [analysis::ExperimentRow {
        label: format!("{} [sim]", scenario.spec().name),
        metrics: outcome.metrics.clone(),
    }];
    for monitor in &monitors {
        rows[0]
            .metrics
            .insert(format!("mon:{}", monitor.name), monitor.verdict.score());
    }
    let (_, render_s) = tracer.timed("analysis.render_jsonl", |_| {
        std::hint::black_box(render_jsonl(&rows))
    });
    samples.add("analysis.render_us", render_s * 1e6);
    Ok(())
}

/// The traced run: passes of per-layer calls until the window closes.
pub fn traced(run: &Run, report: &mut Report) -> Option<Tracer> {
    let json = specs::sim_dense(run.seed).to_json();
    let clock_ns = clock_cost_ns();
    report.metric("trace.clock_ns", clock_ns);
    let mut tracer = Tracer::new();
    let mut samples = Samples::default();
    let mut digest = None;
    traced_passes(run, report, &mut tracer, |tracer| {
        traced_pass(&json, clock_ns, tracer, &mut samples, &mut digest)
    });
    samples.report(report);
    if let Some(counts) = digest {
        counts.digest(report);
    }
    Some(tracer)
}
