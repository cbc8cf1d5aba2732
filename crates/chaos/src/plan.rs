//! Fault plans: the randomized schedules the chaos harness executes.
//!
//! A [`FaultPlan`] is a pure value — node count, mining-round horizon,
//! link behaviour and a round-indexed list of [`FaultEvent`]s — so a run
//! is a deterministic function of `(plan, seed)`. Plans are generated from
//! a seed by [`FaultPlan::random`] under constraints that keep the
//! protocol's invariants *supposed to hold* (partitions heal and private
//! forks release before anything reaches the 6-block finality depth,
//! crashed nodes restart, fewer than half the nodes misbehave), so every
//! oracle violation a plan provokes is a genuine bug, not an impossible
//! demand on the protocol.

use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::CONFIRMATION_DEPTH;
use smartcrowd_net::LinkConfig;
use std::fmt;

/// Quiet rounds left at the end of every plan so that finality catches up
/// and the convergence oracle has a fair chance after the last fault.
pub const RECOVERY_TAIL: usize = CONFIRMATION_DEPTH as usize + 2;

/// A Byzantine behaviour assigned to one node for the rest of the run.
#[derive(Debug, Clone, PartialEq)]
pub enum ByzantineBehavior {
    /// Mine won rounds privately and release the withheld fork `rounds`
    /// rounds later (a short-range reorg attack; bounded below finality).
    Withhold {
        /// Rounds the private fork is withheld before release.
        rounds: usize,
    },
    /// Double-mine: produce two sibling blocks on the same parent and send
    /// one to each half of the network (equivocation on the mining race).
    Equivocate,
    /// Broadcast `per_round` well-signed records with garbage payloads
    /// every round (decode-level spam).
    GarbageFlood {
        /// Garbage records broadcast per round.
        per_round: usize,
    },
    /// Rebroadcast `per_round` stale canonical blocks every round
    /// (duplicate-suppression spam).
    StaleFlood {
        /// Stale blocks rebroadcast per round.
        per_round: usize,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Cut the listed node indices off from the rest.
    Partition {
        /// Isolated node indices.
        minority: Vec<usize>,
    },
    /// Reconnect everyone.
    Heal,
    /// Crash a node: chain exported to "disk", soft state lost, messages
    /// to it dropped.
    Crash {
        /// Crashing node index.
        node: usize,
    },
    /// Restart a crashed node from its exported chain.
    Restart {
        /// Restarting node index.
        node: usize,
    },
    /// Turn a node Byzantine with the given behaviour.
    Byzantine {
        /// Misbehaving node index.
        node: usize,
        /// The behaviour it adopts.
        behavior: ByzantineBehavior,
    },
}

/// A fault scheduled at a mining-round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Round (0-based) before which the fault is applied.
    pub round: usize,
    /// The fault.
    pub kind: FaultKind,
}

/// A complete randomized fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Number of provider nodes.
    pub nodes: usize,
    /// Mining-round horizon.
    pub rounds: usize,
    /// Global link behaviour (latency, jitter, drop, duplication,
    /// reordering).
    pub link: LinkConfig,
    /// Scheduled faults, sorted by round.
    pub events: Vec<FaultEvent>,
}

/// Fewest nodes a random plan runs.
const MIN_NODES: usize = 3;
/// Most nodes a random plan runs.
const MAX_NODES: usize = 6;
/// Fewest mining rounds of a random plan: room for faults ahead of the
/// recovery tail.
const MIN_ROUNDS: usize = RECOVERY_TAIL + 8;
/// Most mining rounds of a random plan.
const MAX_ROUNDS: usize = 28;
/// Most faults a random plan schedules.
const MAX_FAULTS: usize = 4;
/// Highest link drop rate of a random plan.
const MAX_DROP_RATE: f64 = 0.10;
/// Highest link duplication rate of a random plan.
const MAX_DUPLICATE_RATE: f64 = 0.20;
/// Highest link reorder rate of a random plan.
const MAX_REORDER_RATE: f64 = 0.20;

impl FaultPlan {
    /// Generates a randomized plan from a seed: 3–6 nodes,
    /// `RECOVERY_TAIL + 8`–28 rounds, 1–4 faults, link drop rate below 0.1
    /// and duplication and reorder rates below 0.2.
    ///
    /// Constraints enforced so oracle violations indicate genuine bugs:
    /// partitions heal within `CONFIRMATION_DEPTH - 1` rounds; at most one
    /// node is crashed at a time and every crash restarts within 3 rounds;
    /// fewer than half the nodes turn Byzantine; withheld forks release
    /// within `CONFIRMATION_DEPTH - 1` rounds; the last [`RECOVERY_TAIL`]
    /// rounds are fault-free.
    pub fn random(seed: u64) -> FaultPlan {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xc4a0_55ee);
        let nodes = rng.next_range(MIN_NODES as u64, MAX_NODES as u64 + 1) as usize;
        let rounds = rng.next_range(MIN_ROUNDS as u64, MAX_ROUNDS as u64 + 1) as usize;
        let link = LinkConfig {
            drop_rate: rng.next_f64() * MAX_DROP_RATE,
            duplicate_rate: rng.next_f64() * MAX_DUPLICATE_RATE,
            reorder_rate: rng.next_f64() * MAX_REORDER_RATE,
            ..LinkConfig::default()
        };
        let fault_budget = rng.next_range(1, MAX_FAULTS as u64 + 1) as usize;
        // Faults live in [1, last_fault_round]: round 0 carries the
        // workload injection, the tail stays quiet for recovery.
        let last_fault_round = rounds.saturating_sub(RECOVERY_TAIL).max(2);
        let max_cut = (CONFIRMATION_DEPTH as usize).saturating_sub(1).max(1);

        let mut events = Vec::new();
        let mut byzantine: Vec<usize> = Vec::new();
        for _ in 0..fault_budget {
            let round = rng.next_range(1, last_fault_round as u64) as usize;
            match rng.next_below(4) {
                0 => {
                    // Partition a strict minority, heal within max_cut rounds.
                    let max_minority = ((nodes - 1) / 2).max(1);
                    let size = rng.next_range(1, max_minority as u64 + 1) as usize;
                    let mut minority = Vec::with_capacity(size);
                    while minority.len() < size {
                        let n = rng.next_below(nodes as u64) as usize;
                        if !minority.contains(&n) {
                            minority.push(n);
                        }
                    }
                    minority.sort_unstable();
                    let heal = round + 1 + rng.next_below(max_cut as u64) as usize;
                    events.push(FaultEvent {
                        round,
                        kind: FaultKind::Partition { minority },
                    });
                    events.push(FaultEvent {
                        round: heal.min(last_fault_round),
                        kind: FaultKind::Heal,
                    });
                }
                1 => {
                    // Crash + restart within 3 rounds.
                    let node = rng.next_below(nodes as u64) as usize;
                    let restart = round + 1 + rng.next_below(3) as usize;
                    events.push(FaultEvent {
                        round,
                        kind: FaultKind::Crash { node },
                    });
                    events.push(FaultEvent {
                        round: restart.min(last_fault_round),
                        kind: FaultKind::Restart { node },
                    });
                }
                _ => {
                    // Byzantine conversion, strictly-minority cap.
                    if byzantine.len() + 1 >= nodes.div_ceil(2) {
                        continue;
                    }
                    let node = rng.next_below(nodes as u64) as usize;
                    if byzantine.contains(&node) {
                        continue;
                    }
                    byzantine.push(node);
                    let behavior = match rng.next_below(4) {
                        0 => ByzantineBehavior::Withhold {
                            rounds: 1 + rng.next_below(max_cut as u64 - 1).min(2) as usize,
                        },
                        1 => ByzantineBehavior::Equivocate,
                        2 => ByzantineBehavior::GarbageFlood {
                            per_round: 1 + rng.next_below(4) as usize,
                        },
                        _ => ByzantineBehavior::StaleFlood {
                            per_round: 1 + rng.next_below(4) as usize,
                        },
                    };
                    events.push(FaultEvent {
                        round,
                        kind: FaultKind::Byzantine { node, behavior },
                    });
                }
            }
        }
        let mut plan = FaultPlan {
            nodes,
            rounds,
            link,
            events,
        };
        plan.normalize();
        plan
    }

    /// Sorts events by round (stable: same-round events keep insertion
    /// order, so a Crash always precedes its paired Restart).
    pub(crate) fn normalize(&mut self) {
        self.events.sort_by_key(|e| e.round);
    }

    /// Rounds of the fault classes present in this plan (for corpus
    /// coverage accounting).
    pub fn fault_classes(&self) -> (bool, bool, bool) {
        let mut partition = false;
        let mut crash = false;
        let mut byzantine = false;
        for e in &self.events {
            match e.kind {
                FaultKind::Partition { .. } | FaultKind::Heal => partition = true,
                FaultKind::Crash { .. } | FaultKind::Restart { .. } => crash = true,
                FaultKind::Byzantine { .. } => byzantine = true,
            }
        }
        (partition, crash, byzantine)
    }

    /// A copy with event `i` removed (shrinking move 1: fewer faults).
    /// Removing a `Crash` also removes its node's later `Restart` (and
    /// vice versa would leave a no-op `Restart`, which is harmless).
    pub(crate) fn without_event(&self, i: usize) -> FaultPlan {
        let mut plan = self.clone();
        let removed = plan.events.remove(i);
        if let FaultKind::Crash { node } = removed.kind {
            plan.events.retain(|e| {
                !matches!(&e.kind, FaultKind::Restart { node: n }
                    if *n == node && e.round >= removed.round)
            });
        }
        plan
    }

    /// A copy with the horizon shortened to `rounds` (shrinking move 2),
    /// clamped so every event still fits ahead of the recovery tail.
    pub(crate) fn with_rounds(&self, rounds: usize) -> FaultPlan {
        let last_event = self.events.iter().map(|e| e.round).max().unwrap_or(0);
        let mut plan = self.clone();
        plan.rounds = rounds.max(last_event + RECOVERY_TAIL);
        plan
    }

    /// A copy with the node count reduced to `nodes` (shrinking move 3).
    /// Events referencing removed nodes are dropped; partition minorities
    /// are filtered and dropped if they stop being a strict minority.
    pub(crate) fn with_nodes(&self, nodes: usize) -> FaultPlan {
        let mut plan = self.clone();
        plan.nodes = nodes;
        plan.events.retain_mut(|e| match &mut e.kind {
            FaultKind::Partition { minority } => {
                minority.retain(|n| *n < nodes);
                !minority.is_empty() && minority.len() < nodes
            }
            FaultKind::Heal => true,
            FaultKind::Crash { node } | FaultKind::Restart { node } => *node < nodes,
            FaultKind::Byzantine { node, .. } => *node < nodes,
        });
        plan
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the plan as a ready-to-commit Rust literal, the form the
    /// shrinker prints for regression corpora.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FaultPlan {{")?;
        writeln!(f, "    nodes: {},", self.nodes)?;
        writeln!(f, "    rounds: {},", self.rounds)?;
        writeln!(f, "    link: LinkConfig {{")?;
        writeln!(f, "        base_latency: {:?},", self.link.base_latency)?;
        writeln!(f, "        jitter: {:?},", self.link.jitter)?;
        writeln!(f, "        drop_rate: {:?},", self.link.drop_rate)?;
        writeln!(f, "        duplicate_rate: {:?},", self.link.duplicate_rate)?;
        writeln!(f, "        reorder_rate: {:?},", self.link.reorder_rate)?;
        writeln!(f, "    }},")?;
        writeln!(f, "    events: vec![")?;
        for e in &self.events {
            let kind = match &e.kind {
                FaultKind::Partition { minority } => {
                    format!("FaultKind::Partition {{ minority: vec!{minority:?} }}")
                }
                FaultKind::Heal => "FaultKind::Heal".to_string(),
                FaultKind::Crash { node } => format!("FaultKind::Crash {{ node: {node} }}"),
                FaultKind::Restart { node } => {
                    format!("FaultKind::Restart {{ node: {node} }}")
                }
                FaultKind::Byzantine { node, behavior } => format!(
                    "FaultKind::Byzantine {{ node: {node}, behavior: ByzantineBehavior::{behavior:?} }}"
                ),
            };
            writeln!(
                f,
                "        FaultEvent {{ round: {}, kind: {kind} }},",
                e.round
            )?;
        }
        writeln!(f, "    ],")?;
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(FaultPlan::random(9), FaultPlan::random(9));
        assert_ne!(FaultPlan::random(9), FaultPlan::random(10));
    }

    #[test]
    fn generated_plans_respect_constraints() {
        for seed in 0..200 {
            let plan = FaultPlan::random(seed);
            assert!((MIN_NODES..=MAX_NODES).contains(&plan.nodes));
            assert!((MIN_ROUNDS..=MAX_ROUNDS).contains(&plan.rounds));
            let tail_start = plan.rounds - RECOVERY_TAIL;
            let mut byz = 0;
            for e in &plan.events {
                assert!(e.round <= tail_start, "tail stays quiet: {plan}");
                match &e.kind {
                    FaultKind::Partition { minority } => {
                        assert!(!minority.is_empty());
                        assert!(minority.len() < plan.nodes - minority.len());
                        assert!(minority.iter().all(|n| *n < plan.nodes));
                        // A matching heal exists within finality depth.
                        let heal = plan
                            .events
                            .iter()
                            .find(|h| matches!(h.kind, FaultKind::Heal) && h.round > e.round);
                        let heal_round = heal.map(|h| h.round).unwrap_or(usize::MAX);
                        assert!(
                            heal_round - e.round <= CONFIRMATION_DEPTH as usize,
                            "partition heals below finality: {plan}"
                        );
                    }
                    FaultKind::Crash { node } => {
                        let restart = plan.events.iter().find(|r| {
                            matches!(&r.kind, FaultKind::Restart { node: n } if n == node)
                                && r.round > e.round
                        });
                        assert!(restart.is_some(), "every crash restarts: {plan}");
                    }
                    FaultKind::Byzantine { node, behavior } => {
                        assert!(*node < plan.nodes);
                        byz += 1;
                        if let ByzantineBehavior::Withhold { rounds } = behavior {
                            assert!(*rounds < CONFIRMATION_DEPTH as usize);
                        }
                    }
                    _ => {}
                }
            }
            assert!(byz < plan.nodes.div_ceil(2), "byzantine strict minority");
        }
    }

    #[test]
    fn all_fault_classes_appear_across_a_seed_band() {
        let (mut p, mut c, mut b) = (false, false, false);
        for seed in 0..64 {
            let (pp, cc, bb) = FaultPlan::random(seed).fault_classes();
            p |= pp;
            c |= cc;
            b |= bb;
        }
        assert!(p && c && b, "partition={p} crash={c} byzantine={b}");
    }

    #[test]
    fn shrinking_moves_preserve_wellformedness() {
        let plan = FaultPlan::random(3);
        if !plan.events.is_empty() {
            let fewer = plan.without_event(0);
            // Removing a Crash cascades its paired Restart, so one call
            // removes one or two events.
            let removed = plan.events.len() - fewer.events.len();
            assert!(
                (1..=2).contains(&removed),
                "removed {removed} events: {plan}"
            );
            if removed == 2 {
                assert!(matches!(plan.events[0].kind, FaultKind::Crash { .. }));
            }
        }
        let shorter = plan.with_rounds(4);
        let last = shorter.events.iter().map(|e| e.round).max().unwrap_or(0);
        assert!(shorter.rounds >= last + RECOVERY_TAIL);
        let smaller = plan.with_nodes(3);
        for e in &smaller.events {
            match &e.kind {
                FaultKind::Partition { minority } => {
                    assert!(minority.iter().all(|n| *n < 3));
                }
                FaultKind::Crash { node }
                | FaultKind::Restart { node }
                | FaultKind::Byzantine { node, .. } => assert!(*node < 3),
                FaultKind::Heal => {}
            }
        }
    }

    #[test]
    fn display_renders_a_rust_literal() {
        let plan = FaultPlan::random(1);
        let s = plan.to_string();
        assert!(s.starts_with("FaultPlan {"));
        assert!(s.contains("events: vec!["));
    }
}
