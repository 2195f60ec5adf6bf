//! `serve-mix`: a `klex serve` daemon driven closed-loop by one client per core.
//!
//! Each client submits a job, follows its stream to the terminal state, checks the result,
//! and only then submits the next, cycling through the seeded deck of
//! [`crate::specs::serve_deck`].  Latency runs from submit to the terminal result.  Every
//! served result must be byte-identical to the in-process `run_rows` + `render_jsonl` of the
//! same spec, computed before the measured window.

use crate::catalogue::JOB_CLASSES;
use crate::host::{peak_rss_mb, rss_mb};
use crate::report::{Report, Samples};
use crate::specs::{serve_deck, theorem2_bound, Job};
use crate::stats::median;
use crate::trace::{clock_cost_ns, span_cost_ns, Tracer};
use crate::{record_jobs, Run};
use analysis::harness::{auto_workers, render_jsonl};
use analysis::scenario::ScenarioSpec;
use bench::runner::{run_rows, Backend, RunRequest};
use bench::serve::client;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Daemons started per run; `setup_s` is the median of their spawn-to-`/healthz` times and
/// `peak_rss_mb` the median of their peak RSS after one warm-up deck.  One daemon's peak lies
/// anywhere within ±15% of the median, so it takes this many for the median to repeat within 5%.
const SETUP_REPS: usize = 21;
/// `/healthz` round trips timed by the traced run.
const HEALTHZ_PROBES: usize = 20;
/// How long a daemon may take to answer its first `/healthz` or to exit after shutdown.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(30);

/// A `klex serve` child process; killed and reaped on drop unless shut down cleanly.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns a daemon on an ephemeral loopback port and waits until `/healthz` answers;
    /// returns it with the elapsed seconds.
    fn spawn(klex: &Path, seed: u64, workers: usize) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(klex)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
            ])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", klex.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("klex serve listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        loop {
            match client::healthz(&daemon.addr) {
                Ok(_) => break,
                Err(e) if start.elapsed() > DAEMON_TIMEOUT => return Err(format!("/healthz: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    /// Asks the daemon to shut down and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        client::shutdown(&self.addr)?;
        let start = Instant::now();
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if start.elapsed() > DAEMON_TIMEOUT => {
                    return Err("daemon did not stop".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        // The exited daemon's farewell line is drained so no pipe outlives it.
        let mut rest = Vec::new();
        let _ = self.stdout.read_to_end(&mut rest);
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A deck entry with its expected result.
struct Prepared {
    job: Job,
    body: String,
    reference: String,
    run_rows_ms: f64,
    rows: Vec<analysis::ExperimentRow>,
}

/// Runs `f` and returns its result with its duration in seconds; with a tracer, as a span.
fn timed<R>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    match tracer {
        Some(tracer) => tracer.timed(name, |_| f()),
        None => {
            let start = Instant::now();
            let result = f();
            (result, start.elapsed().as_secs_f64())
        }
    }
}

/// Computes every deck entry's expected result in process (decode, compile, `run_rows`,
/// render — the daemon's own path).  With a tracer, each call is a span and its time a
/// per-layer sample.
fn prepare(
    deck: Vec<Job>,
    mut tracer: Option<&mut Tracer>,
    samples: &mut Samples,
) -> Result<Vec<Prepared>, String> {
    let mut prepared = Vec::with_capacity(deck.len());
    for job in deck {
        let json = job.spec.to_json();
        let (spec, decode_s) = timed(tracer.as_deref_mut(), "analysis.decode", || {
            ScenarioSpec::from_json(&json)
        });
        let (scenario, compile_s) = timed(tracer.as_deref_mut(), "analysis.compile", || {
            spec?.compile()
        });
        let scenario = scenario.map_err(|e| e.to_string())?;
        let request = RunRequest {
            backend: job.backend,
            shards: 0,
            threads: None,
            bench: false,
        };
        let (product, run_s) = timed(tracer.as_deref_mut(), "runner.run_rows", || {
            run_rows(&scenario, &request, None)
        });
        let product = product?;
        if JOB_CLASSES[job.class] == "theorem2" {
            // Theorem 2: no request waits through more than ℓ(2n−3)² CS entries.
            let bound = theorem2_bound(job.spec.config.l, job.spec.topology.len());
            let waited = product
                .rows
                .iter()
                .filter_map(|row| row.metrics.get("waiting_max"));
            if let Some(wait) = waited.copied().find(|&wait| wait > bound) {
                return Err(format!(
                    "theorem2 waiting_max {wait} exceeds ℓ(2n−3)² = {bound}"
                ));
            }
        }
        let (reference, render_s) = timed(tracer.as_deref_mut(), "analysis.render_jsonl", || {
            render_jsonl(&product.rows)
        });
        samples.add("analysis.decode_us", decode_s * 1e6);
        samples.add("analysis.compile_s", compile_s);
        samples.add("analysis.render_us", render_s * 1e6);
        prepared.push(Prepared {
            body: job.body(),
            job,
            reference,
            run_rows_ms: run_s * 1e3,
            rows: product.rows,
        });
    }
    Ok(prepared)
}

/// The scenario-layer calls inside the served jobs, timed on the deck's specs: monitors of
/// the simulator jobs, the waiting-time scan of the `theorem2` jobs and the harness
/// throughput of the `theorem1` jobs.
fn analysis_layers(
    deck: &[Prepared],
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    let (mut trials, mut harness_s) = (0u64, 0.0);
    for entry in deck {
        match entry.job.backend {
            Backend::Sim => {
                let scenario = entry
                    .job
                    .spec
                    .clone()
                    .compile()
                    .map_err(|e| e.to_string())?;
                let outcome = tracer.span("analysis.run", |_| scenario.run());
                let (_, monitor_s) = tracer.timed("analysis.monitor_outcome", |_| {
                    scenario.monitor_outcome(&outcome)
                });
                samples.add("analysis.monitor_s", monitor_s);
                if JOB_CLASSES[entry.job.class] == "theorem2" {
                    let (_, scan_s) = tracer.timed("analysis.waiting_times", |_| {
                        analysis::waiting_times(&outcome.trace)
                    });
                    samples.add("analysis.waiting_scan_ms", scan_s * 1e3);
                }
            }
            Backend::Harness => {
                trials += entry.job.spec.trials;
                harness_s += entry.run_rows_ms / 1e3;
            }
            _ => {}
        }
    }
    if harness_s > 0.0 {
        samples.add("analysis.harness_trials_per_s", trials as f64 / harness_s);
    }
    Ok(())
}

/// One served job as a client saw it.
struct Served {
    deck_index: usize,
    latency_ms: f64,
    submit_ms: f64,
    stream_ms: f64,
    done: bool,
    rejected: bool,
    outcome: Result<(), String>,
}

/// How long a closed loop runs.
enum Until {
    /// Until the measured window closes.
    Deadline(Instant),
    /// Until this many jobs have been submitted.
    Jobs(usize),
}

/// One closed-loop client: submit, follow to the terminal state, check, repeat.  With a
/// tracer, the submit and the stream of every job are spans tagged with the job id.
fn client_loop(
    addr: &str,
    deck: &[Prepared],
    next: &AtomicUsize,
    until: &Until,
    mut tracer: Option<Tracer>,
) -> (Vec<Served>, Option<Tracer>) {
    let mut served = Vec::new();
    loop {
        if matches!(until, Until::Deadline(deadline) if Instant::now() >= *deadline) {
            break;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        if matches!(until, Until::Jobs(jobs) if index >= *jobs) {
            break;
        }
        let deck_index = index % deck.len();
        let entry = &deck[deck_index];
        let start = Instant::now();
        let (submitted, submit_s) = timed(tracer.as_mut(), "serve.submit", || {
            client::submit(addr, &entry.body)
        });
        let mut job = Served {
            deck_index,
            latency_ms: 0.0,
            submit_ms: submit_s * 1e3,
            stream_ms: 0.0,
            done: false,
            rejected: false,
            outcome: Ok(()),
        };
        match submitted {
            Err(message) => {
                job.rejected = message.contains("(503)");
                job.outcome = Err(format!("submit: {message}"));
            }
            Ok(id) => {
                if let Some(tracer) = tracer.as_mut() {
                    tracer.set_request(id);
                }
                let (status, stream_s) = timed(tracer.as_mut(), "serve.stream", || {
                    client::watch(addr, id, &mut |_line: &str| {})
                });
                job.stream_ms = stream_s * 1e3;
                job.outcome = status.and_then(|doc| {
                    let state = doc.get("state").and_then(Value::as_str).unwrap_or("");
                    job.done = state == "done";
                    match doc.get("result").and_then(Value::as_str) {
                        _ if !job.done => {
                            Err(format!("job {id} ended {state}: {:?}", doc.get("error")))
                        }
                        Some(result) if result == entry.reference => Ok(()),
                        _ => Err(format!("job {id} result differs from the in-process run")),
                    }
                });
            }
        }
        job.latency_ms = start.elapsed().as_secs_f64() * 1e3;
        served.push(job);
    }
    (served, tracer)
}

/// Drives `addr` with one closed-loop client per core until `until`; returns the served jobs
/// and the loop's wall time.  With a tracer, every client records spans on its time line.
fn closed_loop(
    addr: &str,
    deck: &[Prepared],
    until: Until,
    clients: usize,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Served>, f64) {
    let next = AtomicUsize::new(0);
    let origin = tracer.as_ref().map(|tracer| tracer.origin());
    let started = Instant::now();
    let results: Vec<(Vec<Served>, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let client_tracer = origin.map(|origin| Tracer::with_origin(origin, client + 1));
                let (next, until) = (&next, &until);
                scope.spawn(move || client_loop(addr, deck, next, until, client_tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut served = Vec::new();
    for (jobs, client_tracer) in results {
        served.extend(jobs);
        if let (Some(tracer), Some(client_tracer)) = (tracer.as_deref_mut(), client_tracer) {
            tracer.merge(client_tracer);
        }
    }
    (served, wall_s)
}

/// Records every served job's output check; returns how many ended `done`.
fn record_served(report: &mut Report, served: &mut [Served]) -> u64 {
    for job in served.iter_mut() {
        report.record(std::mem::replace(&mut job.outcome, Ok(())));
    }
    served.iter().filter(|job| job.done).count() as u64
}

/// The daemon's `klex_jobs_done_total`.
fn jobs_done_total(addr: &str) -> Result<u64, String> {
    let text = client::metrics(addr)?;
    text.lines()
        .find_map(|line| line.strip_prefix("klex_jobs_done_total "))
        .and_then(|value| value.trim().parse::<f64>().ok())
        .map(|value| value as u64)
        .ok_or_else(|| "no klex_jobs_done_total in /metrics".to_string())
}

/// Seed-determined counts of the deck's expected results.
fn digest(deck: &[Prepared], report: &mut Report) {
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    for entry in deck {
        for row in &entry.rows {
            for name in [
                "steps",
                "messages_sent",
                "cs_entries",
                "configurations",
                "transitions",
            ] {
                *totals.entry(name).or_default() += row.metrics.get(name).copied().unwrap_or(0.0);
            }
        }
    }
    report.digest("deck_jobs", deck.len() as u64);
    report.digest("activations", totals["steps"] as u64);
    report.digest("messages_sent", totals["messages_sent"] as u64);
    report.digest("grants", totals["cs_entries"] as u64);
    report.digest("configurations", totals["configurations"] as u64);
    report.digest("transitions", totals["transitions"] as u64);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in deck.iter().flat_map(|entry| entry.reference.bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    report.digest(
        "result_bytes",
        deck.iter().map(|entry| entry.reference.len() as u64).sum(),
    );
    report.digest("result_fnv", hash);
}

/// Per-class medians of `value` over the served jobs, keyed by catalogue metric name.
fn per_class(
    served: &[Served],
    deck: &[Prepared],
    samples: &mut Samples,
    names: [&'static str; 6],
    value: impl Fn(&Served) -> f64,
) {
    for (class, name) in names.into_iter().enumerate() {
        let values: Vec<f64> = served
            .iter()
            .filter(|job| deck[job.deck_index].job.class == class)
            .map(&value)
            .collect();
        if let Some(m) = median(&values) {
            samples.add(name, m);
        }
    }
}

/// One run, untraced or traced: references, set-up, the closed loop and the run-level
/// checks.  The traced run also records spans and the per-layer metrics.
pub fn run(run: &Run, report: &mut Report, traced: bool) -> Option<Tracer> {
    let clients = auto_workers(0);
    let mut tracer = Tracer::new();
    let mut samples = Samples::default();
    let deck = match prepare(
        serve_deck(run.seed),
        traced.then_some(&mut tracer),
        &mut samples,
    ) {
        Ok(deck) => deck,
        Err(message) => {
            report.record(Err(format!("in-process reference run: {message}")));
            return traced.then_some(tracer);
        }
    };
    digest(&deck, report);
    if traced {
        report.record(analysis_layers(&deck, &mut tracer, &mut samples));
    }

    // Set-up: daemons spawned until /healthz answers.  Each then serves one warm-up deck
    // and has its peak RSS read; one daemon's heap layout varies from run to run, so
    // `peak_rss_mb` is the median over the daemons.  The last one serves the window.
    let mut setup = Vec::new();
    let mut peaks = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let (spawned, _) = timed(traced.then_some(&mut tracer), "serve.spawn", || {
            Daemon::spawn(&run.klex, run.seed, clients)
        });
        let (daemon, seconds) = match spawned {
            Ok(spawned) => spawned,
            Err(message) => {
                report.record(Err(message));
                return traced.then_some(tracer);
            }
        };
        setup.push(seconds);
        let warm_up = Until::Jobs(deck.len());
        let (mut warm, _) = closed_loop(
            &daemon.addr,
            &deck,
            warm_up,
            clients,
            traced.then_some(&mut tracer),
        );
        let warm_done = record_served(report, &mut warm);
        peaks.push(peak_rss_mb(daemon.child.id()).unwrap_or(0.0));
        if rep + 1 == SETUP_REPS {
            kept = Some((daemon, warm_done));
        } else {
            report.record(daemon.shutdown());
        }
    }
    let (daemon, warm_done) = kept.expect("the last set-up daemon is kept");
    let pid = daemon.child.id();
    let peak = median(&peaks).unwrap_or(0.0);
    report.metric("setup_s", median(&setup).unwrap_or(0.0));
    report.summary("setup_s", median(&setup).unwrap_or(0.0), "s");
    report.metric("peak_rss_mb", peak);
    report.summary("peak_rss_mb", peak, "MB");

    if traced {
        let mut probes = Vec::new();
        for _ in 0..HEALTHZ_PROBES {
            let (ok, seconds) = tracer.timed("serve.healthz", |_| client::healthz(&daemon.addr));
            probes.push(seconds * 1e3);
            report.record(ok.map(|_| ()));
        }
        samples.add("serve.healthz_ms", median(&probes).unwrap_or(0.0));
    }

    // The measured window.
    let rss_before = rss_mb(pid).unwrap_or(0.0);
    let until = Until::Deadline(run.deadline());
    let (mut served, window_s) = closed_loop(
        &daemon.addr,
        &deck,
        until,
        clients,
        traced.then_some(&mut tracer),
    );
    let done = warm_done + record_served(report, &mut served);
    let rejected = served.iter().filter(|job| job.rejected).count();
    let latencies: Vec<f64> = served.iter().map(|job| job.latency_ms).collect();
    record_jobs(report, &latencies, window_s);
    report.summary("rejected", rejected as f64, "count");
    report.summary("clients", clients as f64, "count");

    // Run-level checks: the daemon counted what the clients saw, and stops cleanly.
    report.record(jobs_done_total(&daemon.addr).and_then(|total| {
        if total == done {
            Ok(())
        } else {
            Err(format!(
                "/metrics klex_jobs_done_total = {total}, clients saw {done} done"
            ))
        }
    }));
    let final_peak = peak_rss_mb(pid).unwrap_or(0.0);
    report.record(daemon.shutdown());

    if !traced {
        return None;
    }
    // A traced job differs from an untraced one only by its two spans' bookkeeping.
    let p50_ns = median(&latencies).unwrap_or(0.0) * 1e6;
    samples.add("trace.overhead_pct", 2.0 * span_cost_ns() / p50_ns * 100.0);
    samples.add(
        "serve.submit_ms",
        median(&served.iter().map(|j| j.submit_ms).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    samples.add(
        "serve.stream_ms",
        median(&served.iter().map(|j| j.stream_ms).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    samples.add(
        "serve.run_rows_ms",
        median(&deck.iter().map(|e| e.run_rows_ms).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    let overhead = |job: &Served| job.latency_ms - deck[job.deck_index].run_rows_ms;
    samples.add(
        "serve.overhead_ms",
        median(&served.iter().map(overhead).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    per_class(&served, &deck, &mut samples, RUN_ROWS_BY_CLASS, |job| {
        deck[job.deck_index].run_rows_ms
    });
    per_class(&served, &deck, &mut samples, OVERHEAD_BY_CLASS, overhead);
    samples.add("serve.jobs", served.len() as f64);
    samples.add("serve.rejected", rejected as f64);
    samples.add(
        "serve.daemon_rss_mb_per_1k_jobs",
        (final_peak - rss_before) / served.len().max(1) as f64 * 1e3,
    );
    samples.add("trace.clock_ns", clock_cost_ns());
    samples.add("trace.passes", 1.0);
    samples.report(report);
    Some(tracer)
}

/// `serve.run_rows_ms.<class>`, in [`JOB_CLASSES`] order.
const RUN_ROWS_BY_CLASS: [&str; 6] = [
    "serve.run_rows_ms.figure2",
    "serve.run_rows_ms.figure3-ss",
    "serve.run_rows_ms.theorem2",
    "serve.run_rows_ms.churn-campaign",
    "serve.run_rows_ms.theorem1",
    "serve.run_rows_ms.checker-safety",
];

/// `serve.overhead_ms.<class>`, in [`JOB_CLASSES`] order.
const OVERHEAD_BY_CLASS: [&str; 6] = [
    "serve.overhead_ms.figure2",
    "serve.overhead_ms.figure3-ss",
    "serve.overhead_ms.theorem2",
    "serve.overhead_ms.churn-campaign",
    "serve.overhead_ms.theorem1",
    "serve.overhead_ms.checker-safety",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_metric_names_follow_the_class_order() {
        for (class, name) in JOB_CLASSES.iter().enumerate() {
            assert_eq!(
                RUN_ROWS_BY_CLASS[class],
                format!("serve.run_rows_ms.{name}")
            );
            assert_eq!(
                OVERHEAD_BY_CLASS[class],
                format!("serve.overhead_ms.{name}")
            );
        }
    }
}
