//! `klexbench` — the end-to-end and per-layer benchmark of the kl-exclusion workspace.
//!
//! ```text
//! klexbench --workload <sim-dense|check-exhaustive|serve-mix> --seed <n>
//!           --seconds <s> --trace <0|1> --klex <path to the klex binary>
//! ```
//!
//! Normally started through `python3 klexbench/run.py` (same arguments minus `--klex`),
//! which builds this package and the `klex` binary first.
//!
//! * `--trace 0` measures the workload untraced and reports the end-to-end metrics:
//!   set-up time, peak RSS of the working process and the p1 job latency (the minimum, median,
//!   p90 and jobs per second are summary lines), where a *job* is one `klex run` of the spec
//!   (`sim-dense`, through `bench::runner::run_rows`), one certification
//!   (`check-exhaustive`), or one served job from submit to terminal result (`serve-mix`).
//! * `--trace 1` repeats the workload's layer calls inside spans and reports the per-layer
//!   metrics, the tracing overhead and the share of wall time the spans cover; the spans are
//!   written to `.bench_trace/<workload>-seed<n>.jsonl`.
//!
//! Every job's output is checked; a failed check counts in `failed` and makes the exit code 1.
//! `README.md` beside this package says why each workload exists and which layer metric should
//! move which end-to-end metric.

mod catalogue;
mod check;
mod host;
mod report;
mod serve;
mod sim;
mod specs;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["sim-dense", "check-exhaustive", "serve-mix"];

/// One benchmark invocation.
pub struct Run {
    /// The workload seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// The `klex` binary (serve-mix spawns its daemon from it).
    pub klex: PathBuf,
}

impl Run {
    /// The end of a measured window that starts now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + self.seconds
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    klex: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut klex = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number(value)?),
            "--seconds" => seconds = Some(number(value)?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--klex" => klex = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.ok_or("--trace is required")?,
        klex: klex.ok_or("--klex is required")?,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("klexbench: {message}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        klex: args.klex,
    };
    let mut report = report::Report::default();
    let spans = match (args.workload.as_str(), args.traced) {
        ("sim-dense", false) => sim::measure(&run, &mut report),
        ("sim-dense", true) => sim::traced(&run, &mut report),
        ("check-exhaustive", false) => check::measure(&run, &mut report),
        ("check-exhaustive", true) => check::traced(&run, &mut report),
        ("serve-mix", traced) => serve::run(&run, &mut report, traced),
        _ => unreachable!("workload names are validated"),
    };
    if let Some(tracer) = spans {
        write_spans(&args.workload, args.seed, &tracer, &mut report);
    }
    let expected: &[(&str, &str)] = if args.traced {
        &catalogue::PER_LAYER
    } else {
        &catalogue::END_TO_END
    };
    if args.traced {
        // Layers a workload does not exercise did no work.
        for (name, _) in catalogue::PER_LAYER {
            report.default_metric(name, 0.0);
        }
    }
    let failed = report.print(&args.workload, args.seed, args.traced, &host, expected);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the traced run's spans as JSON lines and reports their count, wall time and
/// coverage.
fn write_spans(workload: &str, seed: u64, tracer: &trace::Tracer, report: &mut report::Report) {
    let wall_ns = tracer.now_ns();
    report.metric("trace.spans", tracer.spans().len() as f64);
    report.metric("trace.wall_s", wall_ns as f64 / 1e9);
    report.metric("trace.span_coverage", tracer.coverage(wall_ns));
    let dir = PathBuf::from(".bench_trace");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    report.record(written.map_err(|e| format!("cannot write {}: {e}", path.display())));
}

/// Runs `pass` as a `bench.pass` span until the window closes (at least once); a failed
/// output check ends the run early.  Reports the number of passes.
pub fn traced_passes(
    run: &Run,
    report: &mut report::Report,
    tracer: &mut trace::Tracer,
    mut pass: impl FnMut(&mut trace::Tracer) -> Result<(), String>,
) {
    let deadline = run.deadline();
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        passes += 1;
        let outcome = tracer.span("bench.pass", &mut pass);
        let failed = outcome.is_err();
        report.record(outcome);
        if failed {
            break;
        }
    }
    report.metric("trace.passes", passes as f64);
}

/// Set-up time of the spec-driven workloads: one spec decode plus compile, the work a
/// `klex run` does before its first activation.  It takes microseconds, so one scheduling
/// hiccup of the host could decide a single timing: the set-up is repeated in a burst before
/// the first job and in further bursts between jobs across the whole window, and `setup_s` is
/// the median of every repetition.
pub struct SpecSetup<'a> {
    json: &'a str,
    times: Vec<f64>,
    last_burst: Instant,
    /// Seconds spent in bursts between jobs (taken out of the window's wall time).
    between_s: f64,
}

impl<'a> SpecSetup<'a> {
    /// Repetitions per burst.
    const BURST: usize = 101;
    /// Least time between two bursts.
    const EVERY: Duration = Duration::from_millis(500);

    /// Times the first burst; returns the set-up with the compiled scenario.
    pub fn start(json: &'a str) -> Result<(SpecSetup<'a>, analysis::CompiledScenario), String> {
        let mut setup = SpecSetup {
            json,
            times: Vec::new(),
            last_burst: Instant::now(),
            between_s: 0.0,
        };
        let scenario = setup.burst()?;
        Ok((setup, scenario))
    }

    /// Times another burst when [`SpecSetup::EVERY`] has passed since the last one.
    pub fn between_jobs(&mut self) -> Result<(), String> {
        if self.last_burst.elapsed() >= Self::EVERY {
            let start = Instant::now();
            self.burst()?;
            self.between_s += start.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// The median set-up time, in seconds.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.times).unwrap_or(0.0)
    }

    /// Seconds the bursts between jobs took.
    pub fn window_share_s(&self) -> f64 {
        self.between_s
    }

    fn burst(&mut self) -> Result<analysis::CompiledScenario, String> {
        let mut compiled = None;
        for _ in 0..Self::BURST {
            let start = Instant::now();
            let scenario = analysis::ScenarioSpec::from_json(self.json)
                .and_then(analysis::ScenarioSpec::compile)
                .map_err(|e| format!("spec does not compile: {e}"))?;
            self.times.push(start.elapsed().as_secs_f64());
            compiled = Some(scenario);
        }
        self.last_burst = Instant::now();
        Ok(compiled.expect("a burst has repetitions"))
    }
}

/// Records the latency metric of a measured window of sequential or concurrent jobs, plus the
/// summary lines of its whole distribution.
///
/// `job_latency_p1_ms` is the fast end of the window's latencies: at most 1% of jobs were
/// faster.  A `sim-dense` or `check-exhaustive` job repeats the same deterministic work, so its
/// latencies differ only by what the shared host takes from the process, and other tenants slow
/// a 2-core host for seconds to minutes at a time: over runs of the same code the median, the
/// p90 and jobs per second spread by 0.1 to 0.5 of their median, the p1 by 0.01 to 0.08.  The
/// minimum, steadier still on those two, is not on `serve-mix`, where a few jobs per run catch
/// the daemon's accept loop just before it polls.  The other figures stay on as summary lines.
pub fn record_jobs(report: &mut report::Report, latencies_ms: &[f64], window_s: f64) {
    let at = |p: f64| stats::percentile(latencies_ms, p).unwrap_or(0.0);
    report.metric("job_latency_p1_ms", at(1.0));
    for (name, p) in [
        ("job_latency_min_ms", 0.0),
        ("job_latency_p1_ms", 1.0),
        ("job_latency_p50_ms", 50.0),
        ("job_latency_p90_ms", 90.0),
    ] {
        report.summary(name, at(p), "ms");
    }
    report.summary("jobs_per_s", latencies_ms.len() as f64 / window_s, "1/s");
    report.summary("jobs", latencies_ms.len() as f64, "count");
    report.summary(
        "jobs_beyond_p90",
        stats::tail_samples(latencies_ms.len(), 90.0) as f64,
        "count",
    );
    if let Some(spread) = stats::quartile_spread(latencies_ms) {
        report.summary("job_latency_quartile_spread", spread, "ratio");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve-mix",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--klex",
            "k",
        ]))
        .unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.traced),
            ("serve-mix", 3, 10, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        let base = [
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--klex",
            "k",
        ];
        let with = |extra: &[&str]| {
            let mut all = strings(extra);
            all.extend(strings(&base));
            parse_args(&all)
        };
        assert!(with(&["--workload", "nope"]).is_err());
        assert!(with(&[]).is_err());
        assert!(parse_args(&strings(&["--workload", "sim-dense", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }
}
