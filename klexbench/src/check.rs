//! `check-exhaustive`: one certification of pusher on `Star{n:5}` per job.

use crate::host::peak_rss_mb;
use crate::report::{Report, Samples};
use crate::specs::{self, CHECK_CONFIGURATIONS, CHECK_LASSOS, CHECK_TRANSITIONS};
use crate::trace::{clock_cost_ns, Tracer};
use crate::{record_jobs, traced_passes, Run, SpecSetup};
use analysis::harness::{auto_workers, render_jsonl};
use analysis::scenario::ScenarioSpec;
use bench::runner::{run_rows, Backend, RunProduct, RunRequest};
use checker::drivers::{HoldOneActivation, NeverRequest};
use checker::{find_fair_cycles, ExplorationReport, Explorer, GraphSummary, Limits, StateGraph};
use klex_core::pusher::{self, PusherNode};
use std::time::Instant;
use topology::{OrientedTree, Topology};
use treenet::Network;

/// The certification request `klex run --backend check` makes (threads from the spec: the
/// sequential engine).
const REQUEST: RunRequest = RunRequest {
    backend: Backend::Check,
    shards: 0,
    threads: None,
    bench: false,
};

/// Checks one certification job's row against the instance's known figures.  Returns the
/// rendered JSONL.
fn check_job(
    product: Result<RunProduct, String>,
    observed: &mut Option<(usize, usize, usize)>,
) -> Result<String, String> {
    let product = product?;
    let [row] = product.rows.as_slice() else {
        return Err(format!("expected one row, got {}", product.rows.len()));
    };
    let count = |name: &str| row.metrics.get(name).map_or(0, |v| *v as usize);
    *observed = Some((
        count("configurations"),
        count("transitions"),
        count("liveness_violations"),
    ));
    let expected = [
        ("configurations", CHECK_CONFIGURATIONS as f64),
        ("transitions", CHECK_TRANSITIONS as f64),
        ("violations", 0.0),
        ("exhaustive", 1.0),
        ("liveness_violations", CHECK_LASSOS as f64),
    ];
    for (name, value) in expected {
        if row.metrics.get(name) != Some(&value) {
            return Err(format!(
                "certification {name} = {:?}, expected {value}",
                row.metrics.get(name)
            ));
        }
    }
    Ok(render_jsonl(&product.rows))
}

/// Checks an explorer report against the instance's known figures.
fn check_report(engine: &str, report: &ExplorationReport, lassos: usize) -> Result<(), String> {
    let ok = report.configurations == CHECK_CONFIGURATIONS
        && report.transitions == CHECK_TRANSITIONS
        && report.violations.is_empty()
        && report.exhaustive()
        && lassos == CHECK_LASSOS;
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{engine}: {} configurations, {} transitions, {} violations, {lassos} lassos, \
             exhaustive {}",
            report.configurations,
            report.transitions,
            report.violations.len(),
            report.exhaustive()
        ))
    }
}

/// The untraced run: set-up, then certifications until the window closes.
pub fn measure(run: &Run, report: &mut Report) -> Option<Tracer> {
    let json = specs::check_exhaustive().to_json();
    let (mut setup, scenario) = match SpecSetup::start(&json) {
        Ok(started) => started,
        Err(message) => {
            report.record(Err(message));
            return None;
        }
    };
    let mut reference = None;
    let mut observed = None;
    let mut latencies = Vec::new();
    let mut peak = None;
    let window = Instant::now();
    let deadline = run.deadline();
    while latencies.is_empty() || Instant::now() < deadline {
        let start = Instant::now();
        let product = run_rows(&scenario, &REQUEST, None);
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        // The peak RSS of one certification, at any speed.
        if latencies.len() == 1 {
            peak = peak_rss_mb(std::process::id());
        }
        report.record(
            check_job(product, &mut observed).and_then(|rendered| match &reference {
                None => {
                    reference = Some(rendered);
                    Ok(())
                }
                Some(first) if *first == rendered => Ok(()),
                Some(_) => Err("a repeated certification rendered different rows".to_string()),
            }),
        );
        if let Err(message) = setup.between_jobs() {
            report.record(Err(message));
        }
    }
    let window_s = window.elapsed().as_secs_f64() - setup.window_share_s();
    report.metric("setup_s", setup.median_s());
    report.summary("setup_s", setup.median_s(), "s");
    record_jobs(report, &latencies, window_s);
    let jobs = latencies.len() as f64;
    report.summary(
        "states_per_s",
        CHECK_CONFIGURATIONS as f64 * jobs / window_s,
        "1/s",
    );
    report.summary(
        "transitions_per_s",
        CHECK_TRANSITIONS as f64 * jobs / window_s,
        "1/s",
    );
    report.summary("checker_threads", 1.0, "count");
    if let Some((configurations, transitions, lassos)) = observed {
        digest(report, configurations, transitions, lassos);
    }
    let peak = peak
        .or_else(|| peak_rss_mb(std::process::id()))
        .unwrap_or(0.0);
    report.metric("peak_rss_mb", peak);
    report.summary("peak_rss_mb", peak, "MB");
    None
}

fn digest(report: &mut Report, configurations: usize, transitions: usize, lassos: usize) {
    report.digest("configurations", configurations as u64);
    report.digest("transitions", transitions as u64);
    report.digest("lassos", lassos as u64);
}

/// The lowered network the checker explores: the spec's tree and parameters with the
/// checker's stateless drivers (a `Needs` hold lowers to a one-activation critical section).
fn lowered_net(spec: &ScenarioSpec) -> Network<PusherNode, OrientedTree> {
    let analysis::scenario::WorkloadSpec::Needs { needs, .. } = &spec.workload else {
        unreachable!("check-exhaustive runs a Needs workload")
    };
    let tree = spec.topology.build(0);
    let cfg = spec.config.to_kl(tree.len());
    pusher::network(tree, cfg, |node| {
        match needs.get(node).copied().unwrap_or(0) {
            0 => NeverRequest::boxed(),
            units => HoldOneActivation::boxed(units),
        }
    })
}

/// Explores the lowered instance with the graph recorded, on the delta engine (`threads`
/// ≤ 1) or the work-stealing engine.
fn explore(spec: &ScenarioSpec, threads: usize) -> (ExplorationReport, StateGraph) {
    let limits = Limits {
        max_configurations: spec.check.max_configurations,
        max_depth: usize::MAX,
    };
    let cfg = spec.config.to_kl(spec.topology.len());
    let mut net = lowered_net(spec);
    let mut explorer = Explorer::new(&mut net)
        .with_limits(limits)
        .with_property(checker::properties::safety(cfg))
        .record_graph(true);
    let report = if threads <= 1 {
        explorer.run()
    } else {
        explorer.run_parallel(|| lowered_net(spec), threads)
    };
    (report, explorer.into_graph())
}

/// One traced pass; returns an error for a failed output check.
fn traced_pass(
    json: &str,
    tracer: &mut Tracer,
    samples: &mut Samples,
    observed: &mut Option<(usize, usize, usize)>,
) -> Result<(), String> {
    let (spec, decode_s) = tracer.timed("analysis.decode", |_| ScenarioSpec::from_json(json));
    let spec = spec.map_err(|e| e.to_string())?;
    let to_compile = spec.clone();
    let (scenario, compile_s) = tracer.timed("analysis.compile", |_| to_compile.compile());
    let scenario = scenario.map_err(|e| e.to_string())?;
    samples.add("analysis.decode_us", decode_s * 1e6);
    samples.add("analysis.compile_s", compile_s);

    let ((delta, graph), delta_s) = tracer.timed("checker.explore_delta", |_| explore(&spec, 1));
    let (summary, summary_s) = tracer.timed("checker.graph_summary", |_| GraphSummary::of(&graph));
    let (lassos, liveness_s) =
        tracer.timed("checker.find_fair_cycles", |_| find_fair_cycles(&graph));
    *observed = Some((delta.configurations, delta.transitions, lassos.len()));
    check_report("delta", &delta, lassos.len())?;
    tracer.span("checker.drop_graph", |_| drop(graph));

    let threads = auto_workers(0);
    let ((parallel, graph), parallel_s) =
        tracer.timed("checker.explore_parallel", |_| explore(&spec, threads));
    let (parallel_lassos, _) =
        tracer.timed("checker.find_fair_cycles", |_| find_fair_cycles(&graph));
    check_report("parallel", &parallel, parallel_lassos.len())?;
    if GraphSummary::of(&graph) != summary || parallel.max_depth != delta.max_depth {
        return Err("delta and parallel explorations recorded different graphs".to_string());
    }
    tracer.span("checker.drop_graph", |_| drop(graph));

    // The same certification untraced, as `klex run --backend check` makes it: on the
    // sequential engine, like the spanned delta exploration above.
    let (product, untraced_s) =
        tracer.timed("runner.run_rows", |_| run_rows(&scenario, &REQUEST, None));
    let product = product?;
    let (_, render_s) = tracer.timed("analysis.render_jsonl", |_| {
        std::hint::black_box(render_jsonl(&product.rows))
    });
    check_job(Ok(product), &mut None)?;

    samples.add("analysis.render_us", render_s * 1e6);
    samples.add("checker.delta_s", delta_s);
    samples.add("checker.parallel_s", parallel_s);
    samples.add("checker.parallel_vs_delta", delta_s / parallel_s);
    samples.add("checker.summary_s", summary_s);
    samples.add("checker.liveness_s", liveness_s);
    samples.add("checker.arena_bytes", delta.arena_bytes as f64);
    samples.add("checker.configurations", delta.configurations as f64);
    samples.add("checker.transitions", delta.transitions as f64);
    samples.add("checker.lassos", lassos.len() as f64);
    samples.add(
        "trace.overhead_pct",
        (delta_s + liveness_s - untraced_s) / untraced_s * 100.0,
    );
    Ok(())
}

/// The traced run: passes of per-layer checker calls until the window closes.
pub fn traced(run: &Run, report: &mut Report) -> Option<Tracer> {
    let json = specs::check_exhaustive().to_json();
    report.metric("trace.clock_ns", clock_cost_ns());
    let mut tracer = Tracer::new();
    let mut samples = Samples::default();
    let mut observed = None;
    traced_passes(run, report, &mut tracer, |tracer| {
        traced_pass(&json, tracer, &mut samples, &mut observed)
    });
    samples.report(report);
    if let Some((configurations, transitions, lassos)) = observed {
        digest(report, configurations, transitions, lassos);
    }
    Some(tracer)
}
