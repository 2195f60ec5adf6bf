//! Token censuses and legitimate-configuration predicates.
//!
//! The convergence argument of the paper (Lemmas 6–8) is phrased in terms of the number of
//! tokens present in the system: a configuration is on the way to legitimacy once there are
//! exactly ℓ resource tokens, one priority token and one pusher token, and the safety bounds
//! on reservations hold.  These helpers compute that census over a whole network — counting
//! both in-flight tokens (in channels) and held tokens (reserved in `RSet`s, or a `Prio`
//! variable pointing at a channel) — and decide legitimacy.

use crate::config::KlConfig;
use crate::inspect::KlInspect;
use crate::message::Message;
use serde::Serialize;
use topology::Topology;
use treenet::{Network, Process};

/// The number of tokens of each kind currently in the system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct TokenCensus {
    /// Resource tokens: in flight plus reserved in `RSet`s.
    pub resource: usize,
    /// Pusher tokens (always in flight: no process ever holds the pusher).
    pub pusher: usize,
    /// Priority tokens: in flight plus held (`Prio ≠ ⊥`).
    pub priority: usize,
    /// Controller messages in flight.
    pub ctrl: usize,
    /// Garbage (non-protocol) messages in flight.
    pub garbage: usize,
}

impl TokenCensus {
    /// True when the circulating-token population matches a legitimate configuration:
    /// exactly `l` resource tokens, one pusher and one priority token.
    pub fn matches(&self, l: usize) -> bool {
        self.resource == l && self.pusher == 1 && self.priority == 1
    }
}

/// Counts every token in `net`, both in flight and held by processes.
pub fn count_tokens<P, T>(net: &Network<P, T>) -> TokenCensus
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    let mut census = TokenCensus::default();
    for (_, _, msg) in net.iter_messages() {
        match msg {
            Message::ResT => census.resource += 1,
            Message::PushT => census.pusher += 1,
            Message::PrioT => census.priority += 1,
            Message::Ctrl { .. } => census.ctrl += 1,
            Message::Garbage(_) => census.garbage += 1,
            // Snapshot markers are observability traffic, not tokens: they exist only while
            // a cut is being assembled and never enter the census.
            Message::Marker(_) => {}
        }
    }
    for node in net.nodes() {
        census.resource += node.reserved();
        if node.holds_priority() {
            census.priority += 1;
        }
    }
    census
}

/// True when every per-process safety bound holds: no process reserves more than `k` tokens,
/// no process uses more than `k` units, and at most `l` units are in use overall.
pub fn safety_holds<P, T>(net: &Network<P, T>, cfg: &KlConfig) -> bool
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    let mut in_use = 0usize;
    for node in net.nodes() {
        if node.reserved() > cfg.k || node.units_in_use() > cfg.k {
            return false;
        }
        in_use += node.units_in_use();
    }
    in_use <= cfg.l
}

/// The legitimacy predicate used by the convergence experiments: the token census is exactly
/// `(ℓ, 1, 1)`, the per-process safety bounds hold, and no garbage message survives.
///
/// (The number of in-flight controller messages is *not* constrained: the root's timeout may
/// legitimately produce a transient duplicate which counter flushing later discards.)
pub fn is_legitimate<P, T>(net: &Network<P, T>, cfg: &KlConfig) -> bool
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    let census = count_tokens(net);
    census.matches(cfg.l) && census.garbage == 0 && safety_holds(net, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::nonstab;
    use treenet::app::{AppDriver, BoxedDriver, Idle};
    use treenet::NodeId;

    #[test]
    fn census_counts_in_flight_and_reserved() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(2, 4, 8);
        struct Grab;
        impl AppDriver for Grab {
            fn next_request(&mut self, _n: NodeId, _t: u64) -> Option<usize> {
                Some(2)
            }
            fn release_cs(&mut self, _n: NodeId, _now: u64, _e: u64) -> bool {
                false
            }
        }
        let mut net = naive::network(tree, cfg, |id| {
            if id == 2 {
                Box::new(Grab) as BoxedDriver
            } else {
                Box::new(Idle) as BoxedDriver
            }
        });
        let mut sched = treenet::RoundRobin::new();
        treenet::engine::run(&mut net, &mut sched, 10_000);
        let census = count_tokens(&net);
        assert_eq!(census.resource, cfg.l, "reserved + in-flight resource tokens = l");
        assert_eq!(census.pusher, 0);
        assert_eq!(census.priority, 0);
    }

    #[test]
    fn census_matches_and_legitimacy() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = nonstab::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = treenet::RoundRobin::new();
        treenet::engine::run(&mut net, &mut sched, 5_000);
        let census = count_tokens(&net);
        assert!(census.matches(cfg.l));
        assert!(is_legitimate(&net, &cfg));
        assert!(safety_holds(&net, &cfg));
    }

    #[test]
    fn surplus_tokens_break_legitimacy() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = nonstab::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = treenet::RoundRobin::new();
        treenet::engine::run(&mut net, &mut sched, 2_000);
        net.inject_into(1, 0, Message::ResT);
        assert!(!is_legitimate(&net, &cfg));
        let census = count_tokens(&net);
        assert_eq!(census.resource, cfg.l + 1);
    }

    #[test]
    fn garbage_breaks_legitimacy() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = nonstab::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = treenet::RoundRobin::new();
        treenet::engine::run(&mut net, &mut sched, 2_000);
        assert!(is_legitimate(&net, &cfg));
        net.inject_into(2, 0, Message::Garbage(1));
        assert!(!is_legitimate(&net, &cfg));
    }

    #[test]
    fn default_census_is_empty() {
        let census = TokenCensus::default();
        assert!(!census.matches(1));
        assert_eq!(census.resource + census.pusher + census.priority, 0);
    }
}
