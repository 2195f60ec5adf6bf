//! The generated inputs: every spec and job the system under test receives is built here
//! from the workload seed alone.

use analysis::harness::trial_seed;
use analysis::scenario::{
    preset, CheckSpec, DaemonSpec, ProtocolSpec, ScenarioSpec, StopSpec, TopologySpec, WarmupSpec,
    WorkloadSpec,
};
use bench::runner::Backend;

/// Activations per `sim-dense` job.
pub const DENSE_STEPS: u64 = 100_000;
/// The `check-exhaustive` instance's certified figures.
pub const CHECK_CONFIGURATIONS: usize = 15_461;
/// See [`CHECK_CONFIGURATIONS`].
pub const CHECK_TRANSITIONS: usize = 116_655;
/// See [`CHECK_CONFIGURATIONS`].
pub const CHECK_LASSOS: usize = 2;

/// The temporal monitors every simulated workload runs under.
const SIM_MONITORS: [&str; 2] = ["at-most-k-in-cs", "l-availability"];

/// Delivery-dense: a small tree, a large ℓ and every process saturating — about 40% of
/// activations deliver a token and CS grants are frequent.
pub fn sim_dense(seed: u64) -> ScenarioSpec {
    ScenarioSpec::builder("sim-dense")
        .topology(TopologySpec::Binary { n: 15 })
        .protocol(ProtocolSpec::Ss)
        .kl(8, 64)
        .workload(WorkloadSpec::Saturated { units: 4, hold: 1 })
        .daemon(DaemonSpec::RandomFair { seed })
        .stop(StopSpec::Steps { steps: DENSE_STEPS })
        .metrics(&["steps", "cs_entries", "messages_sent", "satisfied"])
        .properties(&SIM_MONITORS)
        .base_seed(seed)
        .spec()
}

/// Theorem 2's bound ℓ(2n−3)² on the CS entries a request waits through, for an `n`-process
/// tree.
pub fn theorem2_bound(l: usize, n: usize) -> f64 {
    let span = 2.0 * n as f64 - 3.0;
    l as f64 * span * span
}

/// Pusher on a 5-process star, certified for safety and liveness on the sequential delta
/// engine.  The smaller sibling of `pusher_star7` (Star{n:7}, 224,493 configurations, ~290 MB):
/// a certification takes tens of milliseconds and stays in cache, so a window holds hundreds of
/// identical jobs.  Seed-free by construction (exploration covers every schedule).
pub fn check_exhaustive() -> ScenarioSpec {
    ScenarioSpec::builder("check-exhaustive")
        .topology(TopologySpec::Star { n: 5 })
        .protocol(ProtocolSpec::Pusher)
        .kl(2, 3)
        .workload(WorkloadSpec::Needs {
            needs: vec![0, 2, 1, 2, 1],
            hold: 1,
        })
        .daemon(DaemonSpec::RoundRobin)
        .check(CheckSpec {
            max_configurations: 2_000_000,
            max_depth: 0,
            properties: vec!["safety".into(), "liveness".into()],
            from_legitimate: false,
            threads: 1,
        })
        .spec()
}

/// One serve-mix job: a class (the preset it is drawn from), the generated spec and the
/// backend it runs on.
#[derive(Clone, Debug)]
pub struct Job {
    /// Index into [`crate::catalogue::JOB_CLASSES`].
    pub class: usize,
    /// The submitted spec.
    pub spec: ScenarioSpec,
    /// The backend requested.
    pub backend: Backend,
}

impl Job {
    /// The `POST /jobs` body.
    pub fn body(&self) -> String {
        format!(
            "{{\"spec\": {}, \"backend\": \"{}\"}}",
            self.spec.to_json(),
            self.backend.name()
        )
    }
}

/// Instances of each class in one deck.
const DECK_COPIES: u64 = 2;

/// The serve-mix deck: [`DECK_COPIES`] rounds of every class in catalogue order, each
/// instance re-seeded from the workload seed wherever its preset carries a seed.  Clients
/// cycle through the deck, so every run serves the classes in equal shares, and the fixed
/// order keeps the two heaviest jobs (the checker's) half a deck apart for every seed.
pub fn serve_deck(seed: u64) -> Vec<Job> {
    let classes = crate::catalogue::JOB_CLASSES;
    let mut deck = Vec::new();
    for copy in 0..DECK_COPIES {
        for (class, name) in classes.iter().enumerate() {
            let job_seed = trial_seed(seed, copy * classes.len() as u64 + class as u64);
            deck.push(serve_job(class, name, job_seed));
        }
    }
    deck
}

fn serve_job(class: usize, name: &str, seed: u64) -> Job {
    let mut spec = preset(name).expect("serve-mix classes are presets");
    let backend = match name {
        "theorem1" => Backend::Harness,
        "checker-safety" => Backend::Check,
        _ => Backend::Sim,
    };
    match name {
        "figure3-ss" => spec.daemon = DaemonSpec::RandomFair { seed },
        "theorem2" => {
            if let Some(warmup) = &mut spec.warmup {
                *warmup = WarmupSpec {
                    daemon: Some(DaemonSpec::RandomFair { seed }),
                    ..warmup.clone()
                };
            }
        }
        "churn-campaign" => {
            spec.daemon = DaemonSpec::RandomFair { seed };
            if let Some(schedule) = &mut spec.fault_schedule {
                schedule.seed = seed;
            }
        }
        "theorem1" => {
            spec.daemon = DaemonSpec::RandomFair { seed };
            spec.base_seed = seed;
        }
        // figure2 (a fixed deadlocked configuration under round-robin) and checker-safety
        // (exhaustive) carry no seed.
        _ => {}
    }
    Job {
        class,
        spec,
        backend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_compile() {
        for spec in [sim_dense(1), check_exhaustive()] {
            spec.compile().expect("workload spec compiles");
        }
        for job in serve_deck(1) {
            job.spec.compile().expect("deck spec compiles");
        }
    }

    #[test]
    fn deck_is_seeded_with_equal_class_shares() {
        let deck = serve_deck(7);
        assert_eq!(deck.len(), 12);
        for class in 0..6 {
            assert_eq!(deck.iter().filter(|job| job.class == class).count(), 2);
        }
        let bodies = |deck: &[Job]| deck.iter().map(Job::body).collect::<Vec<_>>();
        assert_eq!(
            bodies(&deck),
            bodies(&serve_deck(7)),
            "same seed, same deck"
        );
        assert_ne!(
            bodies(&deck),
            bodies(&serve_deck(8)),
            "another seed, another deck"
        );
    }

    #[test]
    fn waiting_bound_is_theorem_2() {
        assert_eq!(theorem2_bound(5, 1023), 5.0 * 2043.0 * 2043.0);
        assert_eq!(theorem2_bound(3, 9), 675.0);
    }
}
