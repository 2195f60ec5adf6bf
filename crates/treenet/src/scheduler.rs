//! Daemons (schedulers): fair, synchronous and adversarial activation orders.
//!
//! The paper assumes executions that are *asynchronous but fair*: every process takes
//! infinitely many steps, with unbounded (finite) delays between them.  A daemon — any
//! [`EventScheduler`] — chooses, at each simulation step, which process is activated and
//! whether it consumes a message or only runs its bottom-of-loop actions.  In the
//! terminology of the self-stabilization literature the bundled daemons realise the four
//! classic ones:
//!
//! * [`RandomFair`] — a **randomized central daemon**: each step activates one uniformly
//!   chosen process, delivering from a uniformly chosen non-empty channel with probability
//!   `deliver_bias`.  Fair with probability 1; the default model of an arbitrary
//!   asynchronous execution (alias [`CentralDaemon`]).
//! * [`RoundRobin`] — a **weakly fair distributed daemon**, serialized: processes are
//!   activated cyclically and serve their channels cyclically; the closest deterministic
//!   analogue of "everyone moves at the same rate" (alias [`DistributedDaemon`]).
//! * [`Synchronous`] — the **synchronous daemon**: rounds in which every process acts once
//!   on the channel occupancy *snapshotted at the start of the round*, serialized in id
//!   order (alias [`SynchronousDaemon`]).
//! * [`Adversarial`] — a **bounded-unfairness adversary** that starves designated victims as
//!   long as the fairness bound allows; used to stress worst-case waiting times (Theorem 2)
//!   (alias [`AdversarialDaemon`]).
//!
//! # One daemon path, one test oracle
//!
//! Every daemon is written once, against the [`EnabledShape`] of the enabled set the network
//! maintains incrementally (see [`crate::engine`]): O(1) per decision, no per-step
//! allocation, no virtual dispatch.  Every run loop — [`crate::Network::step`],
//! [`crate::engine::run`], [`crate::run_until`], the snapshot runner — calls the same
//! [`EventScheduler::next_event`].
//!
//! The executable specification lives in test code: `tests/engine_equivalence.rs` carries
//! scan-based daemons that re-derive channel occupancy from the raw channels on every step,
//! and asserts that each daemon here produces a **bit-identical activation sequence** (same
//! RNG, same number of draws, same ranges, same order), trace and metrics.

use crate::engine::{EnabledShape, EventScheduler};
use crate::{ChannelLabel, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Deliver the head message of `node`'s incoming channel `channel` (if the channel is
    /// empty, the activation degrades to a tick).
    Deliver {
        /// The destination process.
        node: NodeId,
        /// The incoming channel to read.
        channel: ChannelLabel,
    },
    /// Activate `node` without delivering a message (bottom-of-loop actions only).
    Tick {
        /// The activated process.
        node: NodeId,
    },
}

/// Deterministic fair scheduler: nodes are activated cyclically; each node serves its
/// incoming channels in round-robin order, interleaved with ticks.
///
/// The per-node channel probe reads the maintained enabled set instead of scanning every
/// channel.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
    channel_cursor: Vec<usize>,
}

impl RoundRobin {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl EventScheduler for RoundRobin {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        let n = shape.num_nodes();
        if self.channel_cursor.len() != n {
            self.channel_cursor = vec![0; n];
        }
        let node = self.cursor % n;
        self.cursor = (self.cursor + 1) % n;
        let degree = shape.degree(node);
        if degree == 0 || shape.deliverable_count(node) == 0 {
            return Activation::Tick { node };
        }
        let start = self.channel_cursor[node] % degree;
        let channel = shape
            .next_deliverable_from(node, start)
            .expect("deliverable_count > 0 guarantees a non-empty channel");
        self.channel_cursor[node] = (channel + 1) % degree;
        Activation::Deliver { node, channel }
    }
}

/// Seeded random fair scheduler (randomized central daemon).
///
/// Each step activates a uniformly random node.  With probability `deliver_bias` (default
/// 0.75) it delivers from a uniformly chosen non-empty incoming channel of that node (if
/// any); otherwise the node just ticks.  Every node is activated infinitely often with
/// probability 1, satisfying the paper's fairness assumption.
///
/// The non-empty-channel count and the chosen channel are read from the maintained enabled
/// set — no per-step scan or allocation.  The RNG discipline is one node draw; then, only if
/// the node has deliverable messages, one Bernoulli draw; then, only on success, one channel
/// draw.
#[derive(Clone, Debug)]
pub struct RandomFair {
    rng: StdRng,
    deliver_bias: f64,
}

impl RandomFair {
    /// Creates a random scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomFair { rng: StdRng::seed_from_u64(seed), deliver_bias: 0.75 }
    }

    /// Overrides the probability of preferring a delivery over a tick when messages are
    /// available (clamped to `[0, 1]`).
    pub fn with_deliver_bias(mut self, bias: f64) -> Self {
        self.deliver_bias = bias.clamp(0.0, 1.0);
        self
    }
}

impl EventScheduler for RandomFair {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        let n = shape.num_nodes();
        let node = self.rng.gen_range(0..n);
        let deliverable = shape.deliverable_count(node);
        if deliverable > 0 && self.rng.gen_bool(self.deliver_bias) {
            let idx = self.rng.gen_range(0..deliverable);
            let channel = shape.nth_deliverable(node, idx).expect("idx < deliverable_count");
            Activation::Deliver { node, channel }
        } else {
            Activation::Tick { node }
        }
    }
}

/// The synchronous daemon, serialized: execution proceeds in rounds of `n` activations; at
/// the start of a round the channel occupancy is snapshotted, and within the round every
/// process acts once, in id order, on that snapshot — process `v` delivers from its lowest
/// channel that was non-empty *at the round boundary*, or ticks if it had none.
///
/// Because only `v` itself ever consumes `v`'s incoming messages, the snapshot stays valid
/// for the process it concerns throughout the round; messages arriving mid-round are
/// deliberately ignored until the next round, which is what makes the daemon synchronous.
///
/// The snapshot is assembled from the maintained enabled set (O(enabled) instead of
/// O(total channels)).
#[derive(Clone, Debug, Default)]
pub struct Synchronous {
    round: Vec<Option<ChannelLabel>>,
    cursor: usize,
}

impl Synchronous {
    /// Creates a synchronous-daemon scheduler.
    pub fn new() -> Self {
        Synchronous::default()
    }
}

impl EventScheduler for Synchronous {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        let n = shape.num_nodes();
        if self.round.len() != n {
            // The network changed size under us: restart the round.
            self.cursor = 0;
        }
        if self.cursor == 0 {
            // Only the delivery-enabled nodes of the dense list are visited; everyone else
            // keeps the `None` from the reset.
            self.round.clear();
            self.round.resize(n, None);
            for i in 0..shape.enabled_len() {
                let v = shape.enabled_node(i);
                self.round[v] = shape.next_deliverable_from(v, 0);
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

/// A bounded-unfairness scheduler used to stress waiting times.
///
/// The designated `victims` are starved of activations: they are only activated once every
/// `patience` scheduler decisions; all other decisions go (round-robin) to the non-victims.
/// Because victims are still activated infinitely often, the execution remains fair in the
/// paper's sense, but it approximates the worst case used in the waiting-time analysis,
/// where all other processes move as often as possible between two steps of the victim.
#[derive(Clone, Debug)]
pub struct Adversarial {
    victims: Vec<NodeId>,
    /// `victims`, sorted and deduplicated: decides whether every node is a victim.
    distinct: Vec<NodeId>,
    patience: u64,
    counter: u64,
    inner: RoundRobin,
    victim_cursor: usize,
    victim_channel_cursor: usize,
}

impl Adversarial {
    /// Creates an adversarial scheduler that activates each of `victims` only once every
    /// `patience` steps (`patience >= 1`).
    pub fn new(victims: Vec<NodeId>, patience: u64) -> Self {
        let mut distinct = victims.clone();
        distinct.sort_unstable();
        distinct.dedup();
        Adversarial {
            victims,
            distinct,
            patience: patience.max(1),
            counter: 0,
            inner: RoundRobin::new(),
            victim_cursor: 0,
            victim_channel_cursor: 0,
        }
    }
}

impl EventScheduler for Adversarial {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        self.counter += 1;
        if !self.victims.is_empty() && self.counter.is_multiple_of(self.patience) {
            let node = self.victims[self.victim_cursor % self.victims.len()];
            self.victim_cursor += 1;
            let degree = shape.degree(node);
            if degree == 0 || shape.deliverable_count(node) == 0 {
                return Activation::Tick { node };
            }
            let start = self.victim_channel_cursor % degree;
            let channel = shape
                .next_deliverable_from(node, start)
                .expect("deliverable_count > 0 guarantees a non-empty channel");
            self.victim_channel_cursor = (channel + 1) % degree;
            return Activation::Deliver { node, channel };
        }
        // Otherwise schedule a non-victim (fall back to any node if every node is a victim;
        // duplicates in the list must not hide that, or no non-victim would ever turn up).
        let n = shape.num_nodes();
        let everyone = self.distinct.partition_point(|&v| v < n) == n;
        loop {
            let act = self.inner.next_event(shape);
            let node = match act {
                Activation::Deliver { node, .. } | Activation::Tick { node } => node,
            };
            if everyone || self.distinct.binary_search(&node).is_err() {
                return act;
            }
        }
    }
}

/// The randomized central daemon: exactly one process activated per step.
pub type CentralDaemon = RandomFair;
/// The weakly fair distributed daemon, serialized as a deterministic cyclic sweep.
pub type DistributedDaemon = RoundRobin;
/// The synchronous daemon, serialized in rounds over a round-boundary snapshot.
pub type SynchronousDaemon = Synchronous;
/// The bounded-unfairness adversary of the waiting-time experiments.
pub type AdversarialDaemon = Adversarial;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EnabledSet;

    /// Three nodes of degrees 2, 3 and 1: node 0 holds two messages on channel 1, node 1
    /// holds none, node 2 holds five on its only channel.
    fn set() -> EnabledSet {
        let mut s = EnabledSet::new(&[2, 3, 1]);
        s.note_len(0, 1, 2);
        s.note_len(2, 0, 5);
        s
    }

    fn next(daemon: &mut impl EventScheduler, set: &EnabledSet) -> Activation {
        daemon.next_event(&EnabledShape::new(set))
    }

    fn node_of(act: Activation) -> NodeId {
        match act {
            Activation::Deliver { node, .. } | Activation::Tick { node } => node,
        }
    }

    #[test]
    fn round_robin_cycles_all_nodes() {
        let v = set();
        let mut s = RoundRobin::new();
        let mut nodes_seen = vec![0u32; 3];
        for _ in 0..9 {
            nodes_seen[node_of(next(&mut s, &v))] += 1;
        }
        assert_eq!(nodes_seen, vec![3, 3, 3]);
    }

    #[test]
    fn round_robin_prefers_non_empty_channels() {
        let v = set();
        let mut s = RoundRobin::new();
        let a0 = next(&mut s, &v);
        assert_eq!(a0, Activation::Deliver { node: 0, channel: 1 });
        let a1 = next(&mut s, &v);
        assert_eq!(a1, Activation::Tick { node: 1 });
        let a2 = next(&mut s, &v);
        assert_eq!(a2, Activation::Deliver { node: 2, channel: 0 });
    }

    #[test]
    fn random_fair_touches_every_node() {
        let v = set();
        let mut s = RandomFair::new(42);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[node_of(next(&mut s, &v))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_fair_is_deterministic_per_seed() {
        let v = set();
        let mut a = RandomFair::new(7);
        let mut b = RandomFair::new(7);
        for _ in 0..50 {
            assert_eq!(next(&mut a, &v), next(&mut b, &v));
        }
    }

    #[test]
    fn adversarial_starves_victims_but_not_forever() {
        let v = set();
        let mut s = Adversarial::new(vec![2], 10);
        let mut victim_activations = 0;
        for _ in 0..100 {
            if node_of(next(&mut s, &v)) == 2 {
                victim_activations += 1;
            }
        }
        assert_eq!(victim_activations, 10, "victim activated exactly once per patience window");
    }

    #[test]
    fn adversarial_with_all_victims_still_schedules() {
        let v = set();
        // Duplicates must not hide that every node is a victim.
        for victims in [vec![0, 1, 2], vec![0, 1, 2, 2]] {
            let mut s = Adversarial::new(victims, 3);
            let mut seen = [0u32; 3];
            for _ in 0..30 {
                seen[node_of(next(&mut s, &v))] += 1;
            }
            assert!(seen.iter().all(|&c| c > 0), "every node is scheduled: {seen:?}");
        }
    }

    #[test]
    fn synchronous_round_uses_boundary_snapshot() {
        let v = set();
        let mut s = Synchronous::new();
        // Round 1: node 0 delivers from channel 1, node 1 ticks, node 2 delivers.
        assert_eq!(next(&mut s, &v), Activation::Deliver { node: 0, channel: 1 });
        assert_eq!(next(&mut s, &v), Activation::Tick { node: 1 });
        assert_eq!(next(&mut s, &v), Activation::Deliver { node: 2, channel: 0 });
        // Round 2 re-snapshots (the set is static, so the same decisions repeat).
        assert_eq!(next(&mut s, &v), Activation::Deliver { node: 0, channel: 1 });
    }
}
