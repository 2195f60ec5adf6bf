//! Integration tests for the unified scenario API.
//!
//! * **Serde round-trip** (proptest): `spec → JSON → spec` is the identity for randomly
//!   generated specs — the derived decoder exactly inverts the derived serializer.
//! * **Cross-backend consistency**: a small preset produces the *identical trace* via
//!   `Scenario::run` and via a hand-wired `protocol::ss::network` + `engine::run` execution.
//! * **Acceptance**: one `ScenarioSpec` value — the `figure2` preset — demonstrably drives
//!   all three backends (simulator, sharded harness, bounded-exhaustive checker), including
//!   after a round trip through its JSON representation (the `klex` CLI path).

use kl_exclusion::prelude::*;
use proptest::prelude::*;

use analysis::scenario::{
    preset, CsStateSpec, FaultEventSpec, FaultScheduleSpec, FaultSpec, InitiatorSpec, InjectSpec,
    MessageSpec, NodeInit, SnapshotSpec, PRESET_NAMES,
};

// ---------------------------------------------------------------- serde round-trip proptest

fn topology_strategy() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        Just(TopologySpec::Figure1),
        Just(TopologySpec::Figure3),
        (2usize..40).prop_map(|n| TopologySpec::Chain { n }),
        (2usize..40).prop_map(|n| TopologySpec::Star { n }),
        ((2usize..40), any::<u64>()).prop_map(|(n, seed)| TopologySpec::Random { n, seed }),
        ((3usize..30), (1usize..4), any::<u64>())
            .prop_map(|(n, max_children, seed)| TopologySpec::BoundedDegree {
                n,
                max_children,
                seed
            }),
        ((4usize..20), (0usize..8), any::<u64>())
            .prop_map(|(n, extra_edges, seed)| TopologySpec::SpanningTree { n, extra_edges, seed }),
    ]
}

fn protocol_strategy() -> impl Strategy<Value = ProtocolSpec> {
    prop_oneof![
        Just(ProtocolSpec::Naive),
        Just(ProtocolSpec::Pusher),
        Just(ProtocolSpec::NonStab),
        Just(ProtocolSpec::Ss),
        Just(ProtocolSpec::Ring),
    ]
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        Just(WorkloadSpec::Idle),
        ((1usize..4), (0u64..30)).prop_map(|(units, hold)| WorkloadSpec::Saturated { units, hold }),
        (any::<u64>(), (1usize..4), (1u64..40)).prop_map(|(seed, max_units, max_hold)| {
            WorkloadSpec::Uniform { seed, p_request: 0.25, max_units, max_hold }
        }),
        (proptest::collection::vec(0usize..4, 0..8), (0u64..20))
            .prop_map(|(needs, hold)| WorkloadSpec::Needs { needs, hold }),
        (any::<u64>(), (1usize..4), (1u64..40)).prop_map(|(seed, max_units, max_hold)| {
            WorkloadSpec::LeafUniform { seed, p_request: 0.5, max_units, max_hold }
        }),
    ]
}

fn daemon_strategy() -> impl Strategy<Value = DaemonSpec> {
    prop_oneof![
        Just(DaemonSpec::RoundRobin),
        Just(DaemonSpec::Synchronous),
        any::<u64>().prop_map(|seed| DaemonSpec::RandomFair { seed }),
        (proptest::collection::vec(0usize..8, 0..3), (1u64..20))
            .prop_map(|(victims, patience)| DaemonSpec::Adversarial { victims, patience }),
    ]
}

fn stop_strategy() -> impl Strategy<Value = StopSpec> {
    prop_oneof![
        (1u64..1_000_000).prop_map(|steps| StopSpec::Steps { steps }),
        ((1u64..1_000_000), (1u64..200))
            .prop_map(|(max_steps, grace)| StopSpec::Quiescent { max_steps, grace }),
        ((1u64..500), (1u64..1_000_000))
            .prop_map(|(entries, max_steps)| StopSpec::CsEntries { entries, max_steps }),
        ((0usize..3), (1u64..1_000_000), (0u64..5_000)).prop_map(
            |(name, max_steps, sustained_for)| StopSpec::Predicate {
                name: StopSpec::PREDICATES[name].to_string(),
                max_steps,
                sustained_for,
            }
        ),
    ]
}

fn init_strategy() -> impl Strategy<Value = Option<InitSpec>> {
    prop_oneof![
        Just(None),
        (
            any::<bool>(),
            proptest::collection::vec(
                ((0usize..8), (0usize..4), proptest::collection::vec(0usize..3, 0..3)).prop_map(
                    |(node, need, rset)| NodeInit {
                        node,
                        state: if need > 0 { CsStateSpec::Req } else { CsStateSpec::Out },
                        need,
                        rset,
                    }
                ),
                0..3
            ),
            proptest::collection::vec(
                ((0usize..8), (0usize..3), (0u64..10)).prop_map(|(from, channel, c)| InjectSpec {
                    from,
                    channel,
                    message: if c == 0 {
                        MessageSpec::ResT
                    } else if c == 1 {
                        MessageSpec::PushT
                    } else {
                        MessageSpec::Ctrl { c, r: c % 2 == 0, pt: c / 2, ppr: (c % 3) as u8 }
                    },
                }),
                0..3
            ),
        )
            .prop_map(|(bootstrapped_root, nodes, inject)| Some(InitSpec {
                bootstrapped_root,
                nodes,
                inject
            })),
    ]
}

/// `None`, or `Some` of a value drawn from `strategy`.
fn optional<S>(strategy: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), strategy.prop_map(Some)]
}

fn plan_strategy() -> impl Strategy<Value = FaultPlanSpec> {
    prop_oneof![
        Just(FaultPlanSpec::Catastrophic),
        Just(FaultPlanSpec::Moderate),
        Just(FaultPlanSpec::MessageOnly),
    ]
}

fn fault_event_strategy() -> impl Strategy<Value = FaultEventSpec> {
    prop_oneof![
        Just(FaultEventSpec::TargetTokenPath),
        Just(FaultEventSpec::JoinLeaf),
        Just(FaultEventSpec::LeaveLeaf),
        Just(FaultEventSpec::RewireEdge),
        plan_strategy().prop_map(|plan| FaultEventSpec::Transient { plan }),
        ((0.0f64..1.0), (0.0f64..1.0), (0usize..16)).prop_map(|(drop, duplicate, garbage)| {
            FaultEventSpec::MessageBurst { drop, duplicate, garbage }
        }),
        ((1usize..4), any::<bool>())
            .prop_map(|(count, lose_incoming)| FaultEventSpec::Crash { count, lose_incoming }),
    ]
}

/// Warmup, one-shot fault, fault schedule and snapshots, each present or absent.
type Phases =
    (Option<WarmupSpec>, Option<FaultSpec>, Option<FaultScheduleSpec>, Option<SnapshotSpec>);

fn phases_strategy() -> impl Strategy<Value = Phases> {
    let warmup = ((1u64..1_000_000), optional(1u64..5_000), optional(daemon_strategy()))
        .prop_map(|(max_steps, window, daemon)| WarmupSpec { max_steps, window, daemon });
    let fault = (any::<u64>(), plan_strategy()).prop_map(|(seed, plan)| FaultSpec { seed, plan });
    let schedule = (
        any::<u64>(),
        proptest::collection::vec(fault_event_strategy(), 0..6),
        (1u64..1_000_000),
        optional(1u64..5_000),
    )
        .prop_map(|(seed, epochs, max_steps, window)| FaultScheduleSpec {
            seed,
            epochs,
            max_steps,
            window,
        });
    let initiator = prop_oneof![Just(InitiatorSpec::Root), Just(InitiatorSpec::Rotate)];
    let snapshots = ((1u64..10_000), initiator)
        .prop_map(|(interval, initiator)| SnapshotSpec { interval, initiator });
    (optional(warmup), optional(fault), optional(schedule), optional(snapshots))
}

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    // Note: these specs are arbitrary *data* — many will not pass `compile()` validation
    // (out-of-range nodes, ring + leaf workloads, …).  Round-tripping must be lossless for
    // all of them regardless.
    (
        (topology_strategy(), protocol_strategy(), workload_strategy(), daemon_strategy()),
        (stop_strategy(), init_strategy()),
        ((1usize..4), (1usize..6), any::<bool>(), (0u64..100)),
        ((1u64..20), any::<u64>()),
        phases_strategy(),
    )
        .prop_map(|(core, run, cfg, plan, phases)| {
            let (topology, protocol, workload, daemon) = core;
            let (stop, init) = run;
            let (k, l_extra, unbounded, timeout) = cfg;
            let (trials, base_seed) = plan;
            let mut config = ConfigSpec::new(k, k + l_extra).with_unbounded_counter(unbounded);
            if timeout > 0 {
                config = config.with_timeout(timeout);
            }
            let mut spec = ScenarioSpec::builder("roundtrip \"probe\" — ℓ units\n")
                .topology(topology)
                .protocol(protocol)
                .config(config)
                .workload(workload)
                .daemon(daemon)
                .stop(stop)
                .metrics(&["steps", "satisfied"])
                .trials(trials)
                .base_seed(base_seed)
                .spec();
            spec.init = init;
            (spec.warmup, spec.fault, spec.fault_schedule, spec.snapshots) = phases;
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// spec → JSON → spec is the identity (including tricky characters in the name and
    /// every enum variant the strategies can reach).
    #[test]
    fn spec_json_roundtrip_is_identity(spec in spec_strategy()) {
        let json = spec.to_json();
        let parsed = ScenarioSpec::from_json(&json).expect("own JSON must parse");
        prop_assert_eq!(parsed, spec);
    }
}

#[test]
fn roundtrip_covers_warmup_fault_and_check_fields() {
    // The strategy above leaves check and properties at defaults; pin them here.
    let mut spec = preset("theorem1").expect("bundled preset");
    spec.warmup = Some(WarmupSpec {
        max_steps: 123,
        window: Some(7),
        daemon: Some(DaemonSpec::Adversarial { victims: vec![1, 2], patience: 3 }),
    });
    spec.check = CheckSpec {
        max_configurations: 42,
        max_depth: 9,
        properties: vec!["safety".into(), "no-garbage".into(), "liveness".into()],
        from_legitimate: true,
        threads: 3,
    };
    spec.properties = vec!["request-eventually-cs".into(), "l-availability".into()];
    let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(parsed, spec);
}

#[test]
fn malformed_specs_are_rejected_with_context() {
    assert!(ScenarioSpec::from_json("{").is_err());
    assert!(ScenarioSpec::from_json("{}").is_err());
    let err = ScenarioSpec::from_json(r#"{"name":"x"}"#).unwrap_err();
    assert!(err.to_string().contains("topology"), "{err}");

    // A spec runs exactly as written or is rejected with the path to the bad field named:
    // unknown keys (a typo such as `snapshot` used to be ignored, and the run went ahead
    // without snapshots), missing fields, unknown variants and out-of-range values.
    let base = serde_json::from_str(&preset("checker-safety").unwrap().to_json()).unwrap();
    let with_field = |path: &[&str], json: &str| {
        let mut doc = base.clone();
        let mut node = &mut doc;
        for key in path {
            let serde_json::Value::Object(fields) = node else { panic!("{key}: not an object") };
            node = fields.entry(key.to_string()).or_insert(serde_json::Value::Null);
        }
        *node = serde_json::from_str(json).unwrap();
        ScenarioSpec::from_json(&serde_json::to_string(&doc).unwrap())
    };
    assert!(with_field(&["check", "threads"], "2").is_ok());
    for (path, json, expected) in [
        (&["snapshot"][..], r#"{"interval": 5, "initiator": "Root"}"#, "unknown field `snapshot`"),
        (&["config", "cmaxx"], "4", "config: unknown field `cmaxx`"),
        (&["check", "thread"], "2", "check: unknown field `thread`"),
        (
            &["snapshots"],
            r#"{"interval": 5, "initiator": "Root", "every": 2}"#,
            "snapshots: unknown field `every`",
        ),
        (&["topology"], r#"{"Chain": {"n": 4, "m": 2}}"#, "topology.Chain: unknown field `m`"),
        (&["topology"], r#"{"Chain": {}}"#, "topology.Chain: missing field `n`"),
        (
            &["fault_schedule"],
            r#"{"seed": 1, "epochs": ["JoinLeaf", {"Crash": {"count": 1}}], "max_steps": 9}"#,
            "fault_schedule.epochs[1].Crash: missing field `lose_incoming`",
        ),
        (&["protocol"], r#""Sss""#, "protocol: unknown variant `Sss`"),
        (&["trials"], "-1", "trials: expected an unsigned integer"),
        (
            &["init"],
            r#"{"bootstrapped_root": false, "nodes": [], "inject": [{"from": 0, "channel": 0,
                "message": {"Ctrl": {"c": 0, "r": false, "pt": 0, "ppr": 256}}}]}"#,
            "init.inject[0].message.Ctrl.ppr: 256 exceeds u8",
        ),
    ] {
        match with_field(path, json) {
            Err(err @ ScenarioError::Json(_)) => {
                assert!(err.to_string().contains(expected), "{expected}: {err}")
            }
            other => panic!("{expected}: not rejected as bad JSON: {other:?}"),
        }
    }

    // Out-of-range request sizes and trial counts are rejected with the field named, not
    // clamped or silently run.
    let with = |workload: WorkloadSpec, trials: u64| {
        ScenarioSpec::builder("bad field")
            .topology(TopologySpec::Chain { n: 4 })
            .kl(2, 3)
            .workload(workload)
            .trials(trials)
            .build()
    };
    let uniform =
        |max_units| WorkloadSpec::Uniform { seed: 1, p_request: 0.1, max_units, max_hold: 5 };
    let leaf =
        |max_units| WorkloadSpec::LeafUniform { seed: 1, p_request: 0.1, max_units, max_hold: 5 };
    let cases = [
        (with(WorkloadSpec::Saturated { units: 3, hold: 1 }, 1), "Saturated.units"),
        (with(WorkloadSpec::Saturated { units: 0, hold: 1 }, 1), "Saturated.units"),
        (with(uniform(3), 1), "Uniform.max_units"),
        (with(uniform(0), 1), "Uniform.max_units"),
        (with(leaf(3), 1), "LeafUniform.max_units"),
        (with(leaf(0), 1), "LeafUniform.max_units"),
        (with(WorkloadSpec::Needs { needs: vec![0, 2, 3], hold: 1 }, 1), "needs[2]"),
        (with(WorkloadSpec::Saturated { units: 2, hold: 1 }, 0), "trials"),
    ];
    for (built, field) in cases {
        match built {
            Err(err @ ScenarioError::Invalid(_)) => {
                assert!(err.to_string().contains(field), "{field}: {err}")
            }
            Err(err) => panic!("{field}: wrong error kind: {err}"),
            Ok(_) => panic!("{field}: out-of-range value was accepted"),
        }
    }
    // The boundaries themselves are valid.
    assert!(with(WorkloadSpec::Saturated { units: 2, hold: 1 }, 1).is_ok());
    assert!(with(uniform(1), 1).is_ok());
    assert!(with(leaf(2), 1).is_ok());
    assert!(with(WorkloadSpec::Needs { needs: vec![0, 2, 1], hold: 1 }, 1).is_ok());
}

/// The snapshot-smoke spec the CI workflow writes by hand (an older document layout that
/// must keep loading).
const CI_SNAPSHOT_SMOKE: &str = r#"{"name": "snapshot-smoke 100k", "topology": {"Binary": {"n": 100000}},
 "protocol": "Ss",
 "config": {"k": 3, "l": 5, "cmax": null, "timeout": 50,
            "literal_pusher_guard": false, "literal_completion_order": false,
            "unbounded_counter": false},
 "workload": {"Saturated": {"units": 2, "hold": 10}},
 "daemon": {"RandomFair": {"seed": 2024}},
 "init": null, "warmup": null, "fault": null, "fault_schedule": null,
 "snapshots": null, "stop": {"Steps": {"steps": 30000000}},
 "metrics": ["steps", "satisfied", "snapshots_taken", "snapshots_clean"],
 "properties": [], "trials": 1, "base_seed": 0,
 "check": {"max_configurations": 1000, "max_depth": 0,
           "properties": ["safety"], "from_legitimate": false, "threads": 0}}"#;

/// A fault-schedule document with every epoch kind (the CI `--fault-schedule` file is its
/// prefix).
const SCHEDULE: &str = r#"{"seed": 5, "epochs": ["JoinLeaf", {"Transient": {"plan": "MessageOnly"}},
 "LeaveLeaf", "RewireEdge", "TargetTokenPath", {"Crash": {"count": 2, "lose_incoming": true}},
 {"MessageBurst": {"drop": 0.25, "duplicate": 0.125, "garbage": 3}}], "max_steps": 200000,
 "window": 64}"#;

/// One seeded byte-level edit: flip a bit, insert a JSON-significant byte, delete a byte,
/// truncate, or duplicate a span.
fn mutate_bytes(bytes: &mut Vec<u8>, rng: &mut rand::rngs::StdRng) {
    use rand::Rng;
    const ALPHABET: &[u8] = b"{}[]\",:-.eE0123456789 \\nultrfas";
    let at = rng.gen_range(0..=bytes.len());
    match rng.gen_range(0..5u32) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        1 => bytes.insert(at, ALPHABET[rng.gen_range(0..ALPHABET.len())]),
        2 if at < bytes.len() => drop(bytes.remove(at)),
        3 => bytes.truncate(at),
        _ => {
            let end = rng.gen_range(at..=bytes.len().min(at + 32));
            let span = bytes[at..end].to_vec();
            let to = rng.gen_range(0..=bytes.len());
            bytes.splice(to..to, span);
        }
    }
}

/// Decodes `text` without panicking; an accepted document must re-encode and decode to an
/// equal value.  Returns whether it was accepted.
fn decodes_cleanly<T: PartialEq + std::fmt::Debug>(
    text: &str,
    decode: fn(&str) -> Result<T, ScenarioError>,
    encode: fn(&T) -> String,
) -> bool {
    let decoded = std::panic::catch_unwind(|| decode(text))
        .unwrap_or_else(|_| panic!("decoder panicked on {text:?}"));
    match decoded {
        Ok(value) => {
            assert_eq!(decode(&encode(&value)).as_ref(), Ok(&value), "re-encoding {text:?}");
            true
        }
        Err(_) => false,
    }
}

#[test]
fn hostile_json_never_panics_and_accepted_documents_round_trip() {
    use rand::{Rng, SeedableRng};
    let encode_schedule = |schedule: &FaultScheduleSpec| serde_json::to_string(schedule).unwrap();
    let mut seeds: Vec<String> =
        PRESET_NAMES.iter().map(|name| preset(name).unwrap().to_json()).collect();
    seeds.extend([CI_SNAPSHOT_SMOKE.to_string(), SCHEDULE.to_string()]);
    // Every seed document loads as written: the presets and the CI snapshot spec as specs,
    // the schedule as a schedule.
    for seed in &seeds[..seeds.len() - 1] {
        assert!(decodes_cleanly(seed, ScenarioSpec::from_json, ScenarioSpec::to_json), "{seed}");
    }
    assert!(decodes_cleanly(SCHEDULE, FaultScheduleSpec::from_json, encode_schedule));

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_4a50);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..400 {
        for seed in &seeds {
            let mut bytes = seed.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=3u32) {
                mutate_bytes(&mut bytes, &mut rng);
            }
            let text = String::from_utf8_lossy(&bytes);
            for ok in [
                decodes_cleanly(&text, ScenarioSpec::from_json, ScenarioSpec::to_json),
                decodes_cleanly(&text, FaultScheduleSpec::from_json, encode_schedule),
            ] {
                if ok {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    // Both outcomes occur, so the mutations reach the decoders and not just the parser.
    assert!(accepted > 100 && rejected > 1_000, "accepted {accepted}, rejected {rejected}");
}

/// An adversarial victim list whose duplicates cover every node used to send the daemon
/// looking for a non-victim forever; the run must terminate.
#[test]
fn adversarial_duplicate_victims_covering_every_node_terminate() {
    let outcome = Scenario::builder("duplicate victims")
        .topology(TopologySpec::Chain { n: 2 })
        .daemon(DaemonSpec::Adversarial { victims: vec![0, 1, 1], patience: 5 })
        .stop(StopSpec::Steps { steps: 5_000 })
        .build()
        .expect("validates")
        .run();
    assert_eq!(outcome.ended_at, 5_000);
}

#[test]
fn out_of_range_victims_are_rejected_for_main_and_warmup_daemons() {
    let base = || {
        ScenarioSpec::builder("bad victims")
            .topology(TopologySpec::Chain { n: 4 })
            .kl(1, 2)
    };
    let main = base()
        .daemon(DaemonSpec::Adversarial { victims: vec![99], patience: 2 })
        .build();
    assert!(matches!(main, Err(ScenarioError::Invalid(_))));
    let warmup = base()
        .warmup_spec(WarmupSpec {
            max_steps: 1_000,
            window: None,
            daemon: Some(DaemonSpec::Adversarial { victims: vec![99], patience: 2 }),
        })
        .build();
    assert!(matches!(warmup, Err(ScenarioError::Invalid(_))));
}

// ---------------------------------------------------------------- cross-backend consistency

/// A small preset produces the identical trace via `Scenario::run` and via hand-wired
/// `protocol::ss::network` + the classic run loop: the declarative layer adds nothing and
/// loses nothing.
#[test]
fn scenario_run_equals_hand_wired_execution() {
    let scenario = Scenario::builder("figure3 cross-check")
        .topology(TopologySpec::Figure3)
        .protocol(ProtocolSpec::Ss)
        .kl(2, 3)
        .workload(WorkloadSpec::Needs { needs: vec![1, 2, 1], hold: 6 })
        .daemon(DaemonSpec::RoundRobin)
        .stop(StopSpec::Steps { steps: 20_000 })
        .build()
        .expect("validates");
    let outcome = scenario.run();

    // The same regime, wired by hand exactly as pre-scenario code did.
    let tree = topology::builders::figure3_tree();
    let cfg = KlConfig::new(2, 3, 3);
    let mut net = protocol::ss::network(tree, cfg, analysis::scenarios::figure3_drivers(6));
    let mut sched = RoundRobin::new();
    treenet::engine::run(&mut net, &mut sched, 20_000);

    assert_eq!(outcome.trace.events(), net.trace().events(), "traces must be identical");
    assert_eq!(outcome.ended_at, net.now());
    assert_eq!(
        outcome.metric("cs_entries").unwrap() as usize,
        net.trace().cs_entries(None),
    );
}

/// The same consistency through the predicate path (run_until).
#[test]
fn scenario_predicate_run_equals_hand_wired_run_until() {
    let scenario = Scenario::builder("cs-entries cross-check")
        .topology(TopologySpec::Chain { n: 4 })
        .protocol(ProtocolSpec::Ss)
        .kl(1, 2)
        .workload(WorkloadSpec::Saturated { units: 1, hold: 3 })
        .daemon(DaemonSpec::RoundRobin)
        .stop(StopSpec::CsEntries { entries: 8, max_steps: 2_000_000 })
        .build()
        .expect("validates");
    let outcome = scenario.run();
    assert!(outcome.outcome.is_satisfied());

    let tree = topology::builders::chain(4);
    let cfg = KlConfig::new(1, 2, 4);
    let mut net = protocol::ss::network(tree, cfg, workloads::all_saturated(1, 3));
    let mut sched = RoundRobin::new();
    let hand = treenet::run_until(&mut net, &mut sched, 2_000_000, |n| {
        n.trace().cs_entries(None) >= 8
    });
    assert_eq!(outcome.outcome, hand);
    assert_eq!(outcome.trace.events(), net.trace().events());
}

// ---------------------------------------------------------------- three-backend acceptance

/// One `ScenarioSpec` value — the `figure2` preset, after a round trip through its JSON
/// form — drives the simulator, the sharded harness, and the exhaustive checker.
#[test]
fn figure2_preset_drives_all_three_backends_from_one_spec() {
    // The spec travels as JSON (what `klex run <file>` does) and comes back identical.
    let spec = preset("figure2").expect("bundled preset");
    let json = spec.to_json();
    let spec = ScenarioSpec::from_json(&json).expect("bundled presets round-trip");
    let scenario = spec.compile().expect("bundled presets validate");

    // Backend 1 — simulator: the naive protocol goes quiescent with all four requesters
    // blocked forever and zero critical sections: Figure 2's deadlock.
    let sim = scenario.run();
    assert!(matches!(sim.outcome, treenet::RunOutcome::Quiescent(_)), "{:?}", sim.outcome);
    assert_eq!(sim.metric("blocked_requesters"), Some(4.0));
    assert_eq!(sim.metric("cs_entries"), Some(0.0));
    assert_eq!(sim.metric("in_flight"), Some(0.0));

    // Backend 2 — sharded multi-trial harness: every trial agrees, at any shard count.
    let harness = scenario.run_harness(4);
    assert_eq!(harness.per_trial.len(), scenario.spec().trials as usize);
    assert_eq!(harness.fraction("satisfied"), 1.0);
    assert_eq!(harness.summaries["blocked_requesters"].max, 4.0);
    assert_eq!(harness.summaries["blocked_requesters"].min, 4.0);
    assert_eq!(scenario.run_harness(1).per_trial, harness.per_trial);

    // Backend 3 — bounded-exhaustive checker: from the figure's configuration the deadlock
    // is not merely observed on one schedule, it is *every* schedule: the configuration has
    // no outgoing transition that changes it, and exploration is exhaustive.
    let report = scenario.check().expect("the naive rung lowers into the checker");
    assert!(report.exhaustive(), "the deadlocked instance must be fully explored");
    assert!(!report.deadlock_free(), "the checker must find the Figure-2 deadlock");
    assert!(report.ok(), "safety still holds in the deadlocked configuration");
}

/// The pusher variant of the same scenario family shows the deadlock resolving — and the
/// checker confirms no deadlock is reachable once the pusher token is in flight.
#[test]
fn figure2_pusher_preset_resolves_the_deadlock_on_all_backends() {
    let scenario = preset("figure2-pusher").unwrap().compile().unwrap();
    let sim = scenario.run();
    assert!(sim.outcome.is_satisfied(), "{:?}", sim.outcome);
    assert!(sim.metric("cs_entries").unwrap() >= 20.0);

    let report = scenario.check().expect("the pusher rung lowers into the checker");
    assert!(report.deadlock_free(), "with the pusher the deadlock must be unreachable");
}

#[test]
fn uniform_workloads_do_not_lower_into_the_checker() {
    let scenario = Scenario::builder("not checkable")
        .topology(TopologySpec::Figure3)
        .kl(1, 2)
        .workload(WorkloadSpec::Uniform { seed: 1, p_request: 0.1, max_units: 1, max_hold: 5 })
        .build()
        .unwrap();
    assert!(matches!(scenario.check(), Err(ScenarioError::NotCheckable(_))));
}
