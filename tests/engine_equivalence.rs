//! Trace equivalence of the event-driven engine against a scan-based test oracle.
//!
//! The bundled daemons (`treenet::scheduler`) read the enabled set the network maintains
//! incrementally.  The oracle daemons below are their executable specification: each one
//! re-derives channel occupancy on every step from nothing but `net.channel(v, c)` and
//! `net.topology().degree(v)`, and drives the network with `net.execute`.  For every daemon,
//! every topology and every seed, all three execution paths —
//!
//! 1. the oracle daemon, one `Network::execute` per decision,
//! 2. the bundled daemon through the fused loop `engine::run_observed`,
//! 3. the bundled daemon through `Network::step` (the single-step path of `run_until` and
//!    the scenario stops),
//!
//! — must produce **identical activation sequences, traces, and metrics**.  A proptest
//! additionally checks the enabled-set invariant itself against brute-force recomputation
//! after arbitrary execution, injection and channel-surgery histories.

use kl_exclusion::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treenet::{Activation, NodeId};
use workloads::UniformRandom;

type SsNet = Network<SsNode, OrientedTree>;

/// The common scenario: a self-stabilizing k-out-of-ℓ network under a uniform-random
/// workload with a short root timeout (so controller traffic starts early) and a burst of
/// injected faults (so channels hold garbage from the start).
fn scenario(tree: OrientedTree, seed: u64) -> SsNet {
    let n = tree.len();
    let cfg = KlConfig::new(2, 3, n).with_timeout(40);
    let mut net = protocol::ss::network(tree, cfg, |id| {
        Box::new(UniformRandom::new(seed ^ (id as u64).wrapping_mul(0x9E37), 0.1, 2, 5))
            as Box<dyn AppDriver + Send>
    });
    let mut injector = FaultInjector::new(seed.wrapping_add(77));
    injector.inject(&mut net, &FaultPlan::moderate(cfg.cmax));
    net
}

/// The topologies every daemon is checked on.  The wide star's hub has 129 channels, so its
/// occupancy bits span three words of the enabled set's bitset.
fn shapes() -> Vec<(&'static str, OrientedTree)> {
    vec![
        ("chain", topology::builders::chain(9)),
        ("star", topology::builders::star(9)),
        ("wide-star", topology::builders::star(130)),
        ("binary", topology::builders::binary(15)),
        ("random", topology::builders::random_tree(12, 5)),
    ]
}

// ------------------------------------------------------------------------ the scan oracle

/// A scan-based daemon: decides from the raw channels, with no enabled set.
trait ScanDaemon {
    fn next(&mut self, net: &SsNet) -> Activation;
}

fn degree(net: &SsNet, v: NodeId) -> usize {
    net.topology().degree(v)
}

fn non_empty(net: &SsNet, v: NodeId, c: usize) -> bool {
    !net.channel(v, c).is_empty()
}

/// The first non-empty channel of `v` at or cyclically after `start`.
fn scan_from(net: &SsNet, v: NodeId, start: usize) -> Option<usize> {
    let d = degree(net, v);
    (0..d).map(|off| (start + off) % d).find(|&c| non_empty(net, v, c))
}

#[derive(Default)]
struct ScanRoundRobin {
    cursor: usize,
    channel_cursor: Vec<usize>,
}

impl ScanDaemon for ScanRoundRobin {
    fn next(&mut self, net: &SsNet) -> Activation {
        let n = net.len();
        if self.channel_cursor.len() != n {
            self.channel_cursor = vec![0; n];
        }
        let node = self.cursor % n;
        self.cursor = (self.cursor + 1) % n;
        match scan_from(net, node, self.channel_cursor[node]) {
            Some(channel) => {
                self.channel_cursor[node] = (channel + 1) % degree(net, node);
                Activation::Deliver { node, channel }
            }
            None => Activation::Tick { node },
        }
    }
}

struct ScanRandomFair {
    rng: StdRng,
    deliver_bias: f64,
}

impl ScanRandomFair {
    fn new(seed: u64, deliver_bias: f64) -> Self {
        ScanRandomFair { rng: StdRng::seed_from_u64(seed), deliver_bias }
    }
}

impl ScanDaemon for ScanRandomFair {
    fn next(&mut self, net: &SsNet) -> Activation {
        let node = self.rng.gen_range(0..net.len());
        let full: Vec<usize> =
            (0..degree(net, node)).filter(|&c| non_empty(net, node, c)).collect();
        if !full.is_empty() && self.rng.gen_bool(self.deliver_bias) {
            let channel = full[self.rng.gen_range(0..full.len())];
            Activation::Deliver { node, channel }
        } else {
            Activation::Tick { node }
        }
    }
}

/// Rebuilds the round snapshot by scanning every channel of every node at each boundary.
#[derive(Default)]
struct ScanSynchronous {
    round: Vec<Option<usize>>,
    cursor: usize,
}

impl ScanDaemon for ScanSynchronous {
    fn next(&mut self, net: &SsNet) -> Activation {
        let n = net.len();
        if self.round.len() != n {
            self.round = vec![None; n];
            self.cursor = 0;
        }
        if self.cursor == 0 {
            for (v, slot) in self.round.iter_mut().enumerate() {
                *slot = (0..degree(net, v)).find(|&c| non_empty(net, v, c));
            }
        }
        let node = self.cursor;
        self.cursor = (self.cursor + 1) % n;
        match self.round[node] {
            Some(channel) => Activation::Deliver { node, channel },
            None => Activation::Tick { node },
        }
    }
}

struct ScanAdversarial {
    victims: Vec<NodeId>,
    patience: u64,
    counter: u64,
    inner: ScanRoundRobin,
    victim_cursor: usize,
    victim_channel_cursor: usize,
}

impl ScanAdversarial {
    fn new(victims: Vec<NodeId>, patience: u64) -> Self {
        ScanAdversarial {
            victims,
            patience: patience.max(1),
            counter: 0,
            inner: ScanRoundRobin::default(),
            victim_cursor: 0,
            victim_channel_cursor: 0,
        }
    }
}

impl ScanDaemon for ScanAdversarial {
    fn next(&mut self, net: &SsNet) -> Activation {
        self.counter += 1;
        if !self.victims.is_empty() && self.counter.is_multiple_of(self.patience) {
            let node = self.victims[self.victim_cursor % self.victims.len()];
            self.victim_cursor += 1;
            return match scan_from(net, node, self.victim_channel_cursor) {
                Some(channel) => {
                    self.victim_channel_cursor = (channel + 1) % degree(net, node);
                    Activation::Deliver { node, channel }
                }
                None => Activation::Tick { node },
            };
        }
        // Otherwise schedule a non-victim; when every node is a victim, any node will do.
        let everyone = (0..net.len()).all(|v| self.victims.contains(&v));
        loop {
            let act = self.inner.next(net);
            let (Activation::Deliver { node, .. } | Activation::Tick { node }) = act;
            if everyone || !self.victims.contains(&node) {
                return act;
            }
        }
    }
}

// ------------------------------------------------------------------- trace-equivalence runs

/// Serialized observable outcome of a run: metrics and the application-level trace length.
fn observables(net: &SsNet) -> String {
    let metrics = serde_json::to_string(net.metrics()).expect("metrics serialize");
    let events = net.trace().events().len();
    format!("{metrics}|events={events}")
}

fn assert_same_sequence(label: &str, path: &str, oracle: &[Activation], other: &[Activation]) {
    assert_eq!(oracle.len(), other.len(), "{label}: {path} ran a different number of steps");
    if let Some(i) = (0..oracle.len()).find(|&i| oracle[i] != other[i]) {
        panic!("{label}: oracle vs {path} differ at step {i}: {:?} vs {:?}", oracle[i], other[i]);
    }
}

/// Runs `steps` activations of the same scenario through the oracle, the fused loop and the
/// single-step path, and asserts that all three are indistinguishable.
fn assert_equivalent<S: EventScheduler + Clone>(
    label: &str,
    tree: OrientedTree,
    seed: u64,
    steps: u64,
    mut oracle: impl ScanDaemon,
    daemon: S,
) {
    let mut oracle_net = scenario(tree.clone(), seed);
    let oracle_seq: Vec<Activation> = (0..steps)
        .map(|_| {
            let act = oracle.next(&oracle_net);
            oracle_net.execute(act);
            act
        })
        .collect();

    let mut fused_net = scenario(tree.clone(), seed);
    let mut fused_seq = Vec::with_capacity(steps as usize);
    engine::run_observed(&mut fused_net, &mut daemon.clone(), steps, |a| fused_seq.push(a));

    let mut step_net = scenario(tree, seed);
    let mut stepped = daemon;
    let step_seq: Vec<Activation> = (0..steps).map(|_| step_net.step(&mut stepped)).collect();

    assert_same_sequence(label, "fused", &oracle_seq, &fused_seq);
    assert_same_sequence(label, "step", &oracle_seq, &step_seq);
    let expected = observables(&oracle_net);
    assert_eq!(expected, observables(&fused_net), "{label}: oracle vs fused metrics differ");
    assert_eq!(expected, observables(&step_net), "{label}: oracle vs step metrics differ");
}

#[test]
fn round_robin_is_trace_equivalent_across_shapes() {
    for (name, tree) in shapes() {
        assert_equivalent(
            &format!("round-robin/{name}"),
            tree,
            11,
            40_000,
            ScanRoundRobin::default(),
            RoundRobin::new(),
        );
    }
}

#[test]
fn random_fair_is_trace_equivalent_across_shapes_and_seeds() {
    for (name, tree) in shapes() {
        for seed in [3u64, 1077, 424242] {
            assert_equivalent(
                &format!("random-fair/{name}/seed{seed}"),
                tree.clone(),
                seed,
                40_000,
                ScanRandomFair::new(seed, 0.75),
                RandomFair::new(seed),
            );
        }
    }
}

#[test]
fn random_fair_bias_extremes_are_trace_equivalent() {
    for (name, tree) in shapes() {
        for bias in [0.0, 0.5, 1.0] {
            assert_equivalent(
                &format!("random-fair/{name}/bias{bias}"),
                tree.clone(),
                19,
                30_000,
                ScanRandomFair::new(7, bias),
                RandomFair::new(7).with_deliver_bias(bias),
            );
        }
    }
}

#[test]
fn synchronous_is_trace_equivalent_across_shapes() {
    for (name, tree) in shapes() {
        assert_equivalent(
            &format!("synchronous/{name}"),
            tree,
            23,
            40_000,
            ScanSynchronous::default(),
            Synchronous::new(),
        );
    }
}

#[test]
fn adversarial_is_trace_equivalent_across_shapes() {
    for (name, tree) in shapes() {
        let victims = vec![1, tree.len() - 1];
        assert_equivalent(
            &format!("adversarial/{name}"),
            tree,
            31,
            40_000,
            ScanAdversarial::new(victims.clone(), 7),
            Adversarial::new(victims, 7),
        );
    }
    // A victim list whose duplicates cover every node: the daemon must fall back to
    // scheduling victims instead of searching forever for a non-victim.
    assert_equivalent(
        "adversarial/chain2-duplicate-victims",
        topology::builders::chain(2),
        31,
        10_000,
        ScanAdversarial::new(vec![0, 1, 1], 5),
        Adversarial::new(vec![0, 1, 1], 5),
    );
}

// ------------------------------------------------------------- enabled-set invariant checks

/// Brute-force recomputation of everything the enabled set claims to know, compared entry
/// by entry against the maintained structure.
fn assert_enabled_invariant(net: &SsNet) {
    let es = net.enabled_set();
    let mut total_in_flight = 0usize;
    let mut expected_enabled = std::collections::BTreeSet::new();
    for v in 0..net.len() {
        let degree = net.topology().degree(v);
        assert_eq!(es.degree(v), degree, "node {v}: degree mismatch");
        let non_empty: Vec<usize> =
            (0..degree).filter(|&c| !net.channel(v, c).is_empty()).collect();
        total_in_flight += (0..degree).map(|c| net.channel(v, c).len()).sum::<usize>();
        assert_eq!(
            es.deliverable_count(v),
            non_empty.len(),
            "node {v}: deliverable_count mismatch"
        );
        for (i, &c) in non_empty.iter().enumerate() {
            assert_eq!(es.nth_deliverable(v, i), Some(c), "node {v}: nth_deliverable({i})");
        }
        assert_eq!(es.nth_deliverable(v, non_empty.len()), None, "node {v}: nth past end");
        for start in 0..degree {
            let expected = (0..degree)
                .map(|off| (start + off) % degree)
                .find(|&c| !net.channel(v, c).is_empty());
            assert_eq!(
                es.next_deliverable_from(v, start),
                expected,
                "node {v}: next_deliverable_from({start})"
            );
        }
        if !non_empty.is_empty() {
            expected_enabled.insert(v);
        }
    }
    assert_eq!(es.in_flight() as usize, total_in_flight, "in-flight total mismatch");
    assert_eq!(es.enabled_len(), expected_enabled.len(), "enabled list length mismatch");
    let listed: std::collections::BTreeSet<usize> =
        (0..es.enabled_len()).map(|i| es.enabled_node(i)).collect();
    assert_eq!(listed, expected_enabled, "enabled list contents mismatch");
    assert_eq!(net.in_flight(), total_in_flight, "Network::in_flight mismatch");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// After an arbitrary history of scheduled steps, fault injections and direct channel
    /// surgery, the maintained enabled set equals the brute-force recomputed guard set.
    #[test]
    fn enabled_set_always_equals_brute_force(
        n in 3usize..=14,
        tree_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        let tree = topology::builders::random_tree(n, tree_seed);
        let mut net = scenario(tree, run_seed);
        assert_enabled_invariant(&net);

        let mut sched = RandomFair::new(run_seed ^ 0xABCD);
        for phase in 0..6u64 {
            for _ in 0..500 {
                net.step(&mut sched);
            }
            // Direct surgery through every mutation path the network exposes.
            let v = (run_seed.wrapping_mul(phase + 1) % n as u64) as usize;
            let degree = net.topology().degree(v);
            if degree > 0 {
                let l = (phase as usize) % degree;
                net.inject_into(v, l, Message::Garbage(7));
                net.inject_from(v, l, Message::ResT);
                let mut ch = net.channel_mut(v, l);
                if ch.len() > 1 {
                    ch.remove(0);
                }
                if phase.is_multiple_of(3) {
                    ch.clear();
                }
                drop(ch);
            }
            if phase == 4 {
                let mut injector = FaultInjector::new(run_seed.wrapping_add(phase));
                injector.inject(&mut net, &FaultPlan::catastrophic(2));
            }
            assert_enabled_invariant(&net);
        }
    }
}
