//! Invariant oracles checked after every chaos round.
//!
//! Four oracles, each phrased so that under the plan generator's
//! constraints (partitions heal, crashes restart, Byzantine strict
//! minority, faults bounded below finality depth) a violation is a
//! genuine protocol bug:
//!
//! 1. **Agreement** — honest running nodes that can currently talk to
//!    each other (same partition group) agree on every block at
//!    confirmation depth.
//! 2. **Finality** — no node's confirmed prefix ever rolls back: once a
//!    block is final on a node, it stays final at that height forever.
//! 3. **Conservation** — every honest node's settlement has folded its
//!    chain exactly up to the finality horizon, and in its world state the
//!    insurance deposited equals detector payouts plus the refunds of the
//!    closed detection windows plus what the escrow contracts still hold,
//!    and the total supply equals the allocation plus one block reward per
//!    applied block ([`crate::settle::audit`]).
//! 4. **Convergence** — after the final heal and recovery tail, every
//!    honest running node — restarted ones included — holds the same best
//!    tip and the same contract balances, refunds and payout list.

use crate::settle::audit;
use smartcrowd_chain::{BlockId, ChainQuery, CONFIRMATION_DEPTH};
use smartcrowd_core::settlement::Settlement;
use std::fmt;

/// Which oracle fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Same-partition honest nodes disagree at confirmation depth.
    Agreement,
    /// A node's confirmed prefix rolled back.
    Finality,
    /// Escrow accounting broke (overdraw, imbalance, overflow).
    Conservation,
    /// Honest nodes failed to converge after recovery.
    Convergence,
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OracleKind::Agreement => "agreement",
            OracleKind::Finality => "finality",
            OracleKind::Conservation => "conservation",
            OracleKind::Convergence => "convergence",
        };
        f.write_str(name)
    }
}

/// An oracle violation: the failing invariant, when, and the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed.
    pub oracle: OracleKind,
    /// The mining round after which the check failed.
    pub round: usize,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} oracle violated after round {}: {}",
            self.oracle, self.round, self.detail
        )
    }
}

/// One node's view as the oracles see it.
#[derive(Debug)]
pub struct NodeView<'a> {
    /// The node's chain view and the settlement it derived from it;
    /// `None` while crashed. Any [`ChainQuery`] backend qualifies, so
    /// durable-mode runs check the same oracles over paged stores.
    pub running: Option<(&'a dyn ChainQuery, &'a Settlement)>,
    /// Whether the node is honest (Byzantine nodes are exempt from the
    /// honest-agreement checks; their stores are their own problem).
    pub honest: bool,
    /// Current partition group (nodes in different groups cannot talk, so
    /// agreement between them is not yet due).
    pub group: usize,
}

/// The confirmed prefix of a store's canonical chain. Ids only — no
/// block body is paged in for this check.
fn confirmed_prefix(store: &dyn ChainQuery) -> Vec<BlockId> {
    let final_height = store.best_height().saturating_sub(CONFIRMATION_DEPTH);
    if store.best_height() <= CONFIRMATION_DEPTH {
        return vec![store.genesis_id()];
    }
    (0..=final_height)
        .filter_map(|h| store.canonical_id_at(h))
        .collect()
}

/// Append-only ledger of every node's finalized blocks, used by the
/// finality oracle to detect rollbacks across rounds.
#[derive(Debug)]
pub struct Oracles {
    finalized: Vec<Vec<BlockId>>,
}

impl Oracles {
    /// Fresh ledger for `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Oracles {
        Oracles {
            finalized: vec![Vec::new(); n],
        }
    }

    /// Runs the per-round oracles (agreement, finality, conservation)
    /// over the given views.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    pub(crate) fn check_round(
        &mut self,
        round: usize,
        views: &[NodeView<'_>],
    ) -> Result<(), Violation> {
        let _span = smartcrowd_telemetry::span!("chaos.oracle.check");
        // Finality: each running node's confirmed prefix extends what we
        // recorded for it before. (Byzantine nodes included: even an
        // equivocator's own store must never roll back its finalized
        // prefix — the store is honest code.)
        for (i, view) in views.iter().enumerate() {
            let Some((store, _)) = view.running else {
                continue;
            };
            let prefix = confirmed_prefix(store);
            let ledger = &mut self.finalized[i];
            let common = ledger.len().min(prefix.len());
            if prefix[..common] != ledger[..common] {
                let at = (0..common).find(|&k| prefix[k] != ledger[k]).unwrap_or(0);
                return Err(Violation {
                    oracle: OracleKind::Finality,
                    round,
                    detail: format!(
                        "node {i} rolled back finalized block at height {at}: \
                         had {}, now {}",
                        ledger[at], prefix[at]
                    ),
                });
            }
            if prefix.len() > ledger.len() {
                ledger.extend_from_slice(&prefix[ledger.len()..]);
            }
        }

        // Agreement: honest running nodes in the same partition group
        // share their finalized prefixes (compare the overlap).
        for i in 0..views.len() {
            for j in (i + 1)..views.len() {
                let (a, b) = (&views[i], &views[j]);
                if !a.honest || !b.honest || a.group != b.group {
                    continue;
                }
                let (Some((sa, _)), Some((sb, _))) = (a.running, b.running) else {
                    continue;
                };
                let pa = confirmed_prefix(sa);
                let pb = confirmed_prefix(sb);
                let common = pa.len().min(pb.len());
                if pa[..common] != pb[..common] {
                    let at = (0..common).find(|&k| pa[k] != pb[k]).unwrap_or(0);
                    return Err(Violation {
                        oracle: OracleKind::Agreement,
                        round,
                        detail: format!(
                            "honest nodes {i} and {j} disagree at finalized height {at}: \
                             {} vs {}",
                            pa[at], pb[at]
                        ),
                    });
                }
            }
        }

        // Conservation: every honest running node settled exactly its
        // confirmed chain, and its contract balances add up.
        for (i, view) in views.iter().enumerate() {
            let Some((store, settlement)) = view.running.filter(|_| view.honest) else {
                continue;
            };
            let horizon = store.best_height().saturating_sub(CONFIRMATION_DEPTH);
            let folded = settlement.cursor();
            let detail = if Some(folded) != store.canonical_id_at(horizon).map(|id| (horizon, id)) {
                format!("settled through {folded:?}, finality horizon is {horizon}")
            } else if let Err(e) = audit(settlement) {
                e.to_string()
            } else {
                continue;
            };
            return Err(Violation {
                oracle: OracleKind::Conservation,
                round,
                detail: format!("node {i}: {detail}"),
            });
        }
        Ok(())
    }

    /// Runs the end-of-run convergence oracle: all honest running nodes
    /// share one best tip and one contract state (escrow balances and
    /// payout list as each node's own SCVM left them — conservation was
    /// checked per round).
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] with [`OracleKind::Convergence`].
    pub(crate) fn check_convergence(
        &self,
        round: usize,
        views: &[NodeView<'_>],
    ) -> Result<(), Violation> {
        let _span = smartcrowd_telemetry::span!("chaos.oracle.check");
        let mut honest = views
            .iter()
            .enumerate()
            .filter(|(_, v)| v.honest)
            .filter_map(|(i, v)| v.running.map(|r| (i, r)));
        let Some((first, (first_store, first_settlement))) = honest.next() else {
            return Ok(());
        };
        let tip = first_store.best_tip();
        let baseline = audit(first_settlement);
        for (i, (store, settlement)) in honest {
            let detail = if store.best_tip() != tip {
                format!("different tips: {tip} vs {}", store.best_tip())
            } else if audit(settlement) != baseline {
                format!(
                    "different contract state: {baseline:?} vs {:?}",
                    audit(settlement)
                )
            } else {
                continue;
            };
            return Err(Violation {
                oracle: OracleKind::Convergence,
                round,
                detail: format!("nodes {first} and {i} end with {detail}"),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_chain::ChainStore;
    use smartcrowd_chain::{Block, Difficulty};

    /// A chain of `n` empty blocks, `skew` apart from any other skew's,
    /// with the settlement a node would have derived from it.
    fn chain(n: u64, skew: u64) -> (ChainStore, Settlement) {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let mut parent = genesis;
        for i in 0..n {
            let block = Block::assemble(
                &parent,
                vec![],
                parent.header().timestamp + 1 + skew + i,
                Difficulty::from_u64(1),
                smartcrowd_crypto::Address::from_label("m"),
            );
            store.insert(block.clone()).unwrap();
            parent = block;
        }
        let mut settlement = Settlement::new(store.genesis_id(), &[]);
        settlement.advance(&store);
        (store, settlement)
    }

    fn view((store, settlement): &(ChainStore, Settlement), honest: bool) -> NodeView<'_> {
        NodeView {
            running: Some((store, settlement)),
            honest,
            group: 0,
        }
    }

    #[test]
    fn identical_chains_pass_all_round_oracles() {
        let (a, b) = (chain(10, 0), chain(10, 0));
        let mut oracles = Oracles::new(2);
        let views = [view(&a, true), view(&b, true)];
        oracles.check_round(1, &views).unwrap();
        oracles.check_convergence(1, &views).unwrap();
    }

    #[test]
    fn divergent_tips_fail_convergence_but_not_agreement_below_finality() {
        let (a, b) = (chain(3, 0), chain(1, 99));
        let mut oracles = Oracles::new(2);
        let views = [view(&a, true), view(&b, true)];
        // Divergence is shallower than finality: agreement holds.
        oracles.check_round(1, &views).unwrap();
        // But the tips differ, so convergence fails.
        let err = oracles.check_convergence(1, &views).unwrap_err();
        assert_eq!(err.oracle, OracleKind::Convergence);
    }

    #[test]
    fn crashed_and_byzantine_nodes_are_exempt() {
        let a = chain(12, 0);
        let mut oracles = Oracles::new(3);
        let crashed = NodeView {
            running: None,
            honest: true,
            group: 0,
        };
        let views = [view(&a, true), crashed, view(&a, false)];
        oracles.check_round(5, &views).unwrap();
        oracles.check_convergence(5, &views).unwrap();
    }

    #[test]
    fn finality_rollback_is_detected() {
        let long = chain(12, 0);
        let mut oracles = Oracles::new(1);
        oracles.check_round(1, &[view(&long, true)]).unwrap();
        // Replace the node's store with a conflicting chain of the same
        // length — its finalized prefix differs from the ledger.
        let other = chain(12, 50);
        let err = oracles.check_round(2, &[view(&other, true)]).unwrap_err();
        assert_eq!(err.oracle, OracleKind::Finality);
    }

    #[test]
    fn settlement_short_of_the_finality_horizon_is_a_conservation_violation() {
        let (store, _) = chain(12, 0);
        let stale = (store, Settlement::new(chain(0, 0).0.genesis_id(), &[]));
        let err = Oracles::new(1)
            .check_round(1, &[view(&stale, true)])
            .unwrap_err();
        assert_eq!(err.oracle, OracleKind::Conservation);
    }
}
