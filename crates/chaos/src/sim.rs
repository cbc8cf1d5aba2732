//! The chaos simulator: executes a [`FaultPlan`] deterministically.
//!
//! [`ChaosSim`] drives the shared [`Fleet`] — N provider nodes over a
//! seeded gossip fabric and a hash-power-weighted mining race — and
//! applies the plan's faults at round boundaries:
//!
//! - **Partitions** cut and heal via the gossip fabric; a heal triggers
//!   the anti-entropy rebroadcast so laggards reconcile before the next
//!   fault lands.
//! - **Crashes** export the node's chain through
//!   [`smartcrowd_chain::storage::export_chain`] (the "disk"), drop all
//!   soft state, and discard deliveries; restarts import the image and
//!   rebuild verification state and the settlement from it
//!   ([`Fleet::restart`]). In *durable mode* ([`ChaosSim::new_durable`])
//!   every node runs on a real [`DurableStore`] directory instead: a crash
//!   leaves its directory as a power loss in the next commit would (a
//!   torn frame at the end of `blocks.log`, or a torn `state.snap` after
//!   a durable append) and a restart reopens from disk, so the
//!   agreement/finality/conservation oracles run against the actual
//!   recovery path of the on-disk format.
//! - **Byzantine behaviours** act when the misbehaving node wins a round
//!   (withholding, equivocation) or on every round (flooding).
//!
//! A workload of SRA releases and detector reports runs underneath, and
//! every node settles it on its own SCVM as blocks confirm, so the
//! conservation oracle has real escrow contracts to audit. Everything is a
//! pure function of `(plan, seed)`: re-running reproduces byte-identical
//! traces, which is what makes shrinking possible.
//!
//! The harness can also *plant a bug* ([`PlantedBug`]) by disabling the
//! reconciliation machinery, which is how the test-suite proves the
//! oracles and the shrinker actually detect protocol violations rather
//! than vacuously passing.
//!
//! [`FaultPlan`]: crate::plan::FaultPlan

use crate::oracle::{NodeView, OracleKind, Oracles, Violation};
use crate::plan::{ByzantineBehavior, FaultKind, FaultPlan};
use crate::settle::{audit, Audit};
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::storage::{export_chain, frame, import_chain, DurableStore, StoreConfig};
use smartcrowd_chain::{Block, ChainBackend, ChainStore, Difficulty, Ether};
use smartcrowd_core::economics::{BLOCK_CAPACITY, INCENTIVE_PER_VULN, INSURANCE, REPORT_FEE};
use smartcrowd_core::report::{create_report_pair, Findings};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_detect::vulnerability::VulnId;
use smartcrowd_net::Message;
use smartcrowd_sim::fleet::Fleet;
use smartcrowd_sim::SimError;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Extra honest rounds granted after the horizon for convergence
/// (longest-chain convergence needs continued honest progress to break
/// equal-work ties left by the last fault).
const EPILOGUE_LIMIT: usize = 14;

/// A bug deliberately planted in the harness (never in production code)
/// to prove the oracles catch real protocol violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// Nodes accept equivocating forks without the reconciliation
    /// machinery: block re-gossip on orphan connection, `BlockRequest`
    /// gap repair and the heal-time anti-entropy rebroadcast are all
    /// disabled, so an equivocator's split-brain never resolves.
    AcceptEquivocation,
}

/// Why a chaos run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosFailure {
    /// An invariant oracle fired.
    Oracle(Violation),
    /// The gossip pump failed to quiesce.
    PumpDiverged {
        /// The run seed (replays the schedule).
        seed: u64,
        /// The round the pump diverged in.
        round: usize,
        /// Iterations executed before giving up.
        iterations: usize,
        /// Deliveries still pending.
        pending: usize,
    },
    /// A crash-restart round-trip through the persistence layer failed.
    Persist {
        /// The round of the failing restart.
        round: usize,
        /// The underlying chain error.
        detail: String,
    },
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosFailure::Oracle(v) => write!(f, "{v}"),
            ChaosFailure::PumpDiverged {
                seed,
                round,
                iterations,
                pending,
            } => write!(
                f,
                "message pump diverged in round {round} (seed {seed}): \
                 {pending} deliveries pending after {iterations} iterations"
            ),
            ChaosFailure::Persist { round, detail } => {
                write!(
                    f,
                    "crash-restart persistence failed in round {round}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for ChaosFailure {}

/// Node `i`'s store directory in durable mode.
fn node_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("node-{i}"))
}

fn persist_failure(round: usize, e: impl fmt::Display) -> ChaosFailure {
    ChaosFailure::Persist {
        round,
        detail: e.to_string(),
    }
}

/// Summary of a passing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Rounds executed (horizon plus any epilogue rounds).
    pub rounds: usize,
    /// Final canonical height on the honest nodes.
    pub best_height: u64,
    /// Insurance deposited on the confirmed chain.
    pub deposits: Ether,
    /// Detector payouts on the confirmed chain.
    pub payouts: Ether,
    /// Confirmed reports still awaiting their SRA's confirmation.
    pub pending_reports: usize,
    /// Messages the link layer duplicated.
    pub duplicated: u64,
}

/// The planted bug: handlers' reconciliation messages (block re-gossip,
/// gap-repair requests) never reach the wire.
fn drop_reconciliation(m: &Message) -> bool {
    !matches!(m, Message::Block(_) | Message::BlockRequest { .. })
}

/// The deterministic chaos simulator for one `(plan, seed)` pair: the
/// shared [`Fleet`] driver plus the plan's faults.
#[derive(Debug)]
pub struct ChaosSim {
    plan: FaultPlan,
    seed: u64,
    fleet: Fleet,
    /// In-memory mode: the chain export each crashed node left behind
    /// (durable mode leaves its store directory under `durable_root`).
    dumps: BTreeMap<usize, Vec<u8>>,
    groups: Vec<usize>,
    byzantine: BTreeMap<usize, ByzantineBehavior>,
    /// Withheld blocks: `(release_round, owner, block)` in prefix order.
    withheld: Vec<(usize, usize, Block)>,
    rng: SimRng,
    durable_root: Option<PathBuf>,
    store_config: StoreConfig,
    round: usize,
    garbage_nonce: u64,
}

impl ChaosSim {
    /// Boots the plan's node fleet over a seeded network, on the
    /// in-memory backend.
    #[must_use]
    pub fn new(plan: &FaultPlan, seed: u64, bug: Option<PlantedBug>) -> ChaosSim {
        Self::build(plan, seed, bug, None, StoreConfig::default())
            .expect("in-memory boot cannot fail")
    }

    /// Boots the fleet with every node on a [`DurableStore`] under
    /// `root/node-<i>` (directories are recreated from scratch), so
    /// crash faults tear the real on-disk format.
    ///
    /// # Errors
    ///
    /// [`ChaosFailure::Persist`] if a store directory cannot be created.
    pub fn new_durable(
        plan: &FaultPlan,
        seed: u64,
        bug: Option<PlantedBug>,
        root: &Path,
    ) -> Result<ChaosSim, ChaosFailure> {
        Self::new_durable_with(plan, seed, bug, root, StoreConfig::default())
    }

    /// [`ChaosSim::new_durable`] with an explicit [`StoreConfig`], so
    /// plans can run the fleet on paged stores — a small block cache
    /// forcing cold page-ins mid-consensus, and aggressive snapshot
    /// cadence so crash faults land around snapshot writes.
    ///
    /// # Errors
    ///
    /// [`ChaosFailure::Persist`] if a store directory cannot be created.
    pub fn new_durable_with(
        plan: &FaultPlan,
        seed: u64,
        bug: Option<PlantedBug>,
        root: &Path,
        config: StoreConfig,
    ) -> Result<ChaosSim, ChaosFailure> {
        Self::build(plan, seed, bug, Some(root.to_path_buf()), config)
    }

    fn build(
        plan: &FaultPlan,
        seed: u64,
        bug: Option<PlantedBug>,
        durable_root: Option<PathBuf>,
        store_config: StoreConfig,
    ) -> Result<ChaosSim, ChaosFailure> {
        let relay = match bug {
            Some(PlantedBug::AcceptEquivocation) => drop_reconciliation,
            None => |_: &Message| true,
        };
        let fleet = Fleet::boot(
            plan.nodes,
            seed,
            plan.link,
            "chaos-node",
            relay,
            |i, genesis| -> Result<Box<dyn ChainBackend>, ChaosFailure> {
                let Some(root) = &durable_root else {
                    return Ok(Box::new(ChainStore::new(genesis.clone())));
                };
                let dir = node_dir(root, i);
                let _ = std::fs::remove_dir_all(&dir);
                let store = DurableStore::open_with(&dir, genesis, store_config)
                    .map_err(|e| persist_failure(0, e))?;
                Ok(Box::new(store))
            },
        )?;
        Ok(ChaosSim {
            plan: plan.clone(),
            seed,
            fleet,
            dumps: BTreeMap::new(),
            groups: vec![0; plan.nodes],
            byzantine: BTreeMap::new(),
            withheld: Vec::new(),
            rng: SimRng::seed_from_u64(seed ^ 0x5eed),
            durable_root,
            store_config,
            round: 0,
            garbage_nonce: 0,
        })
    }

    /// Oracle views of every node.
    #[must_use]
    pub fn views(&self) -> Vec<NodeView<'_>> {
        (0..self.plan.nodes)
            .map(|i| NodeView {
                running: self.fleet.node(i).map(|n| (n.store(), n.settlement())),
                honest: !self.byzantine.contains_key(&i),
                group: self.groups[i],
            })
            .collect()
    }

    /// Whether every honest running node holds the same best tip.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.fleet.converged(|i| !self.byzantine.contains_key(&i))
    }

    /// A diverged pump as a chaos failure, stamped with the current round.
    fn diverged(&self, e: SimError) -> ChaosFailure {
        let SimError::PumpDiverged {
            seed,
            iterations,
            pending,
        } = e;
        ChaosFailure::PumpDiverged {
            seed,
            round: self.round,
            iterations,
            pending,
        }
    }

    /// Applies every fault scheduled for `round`.
    ///
    /// # Errors
    ///
    /// Propagates pump divergence from heals and persistence failures
    /// from restarts.
    pub(crate) fn apply_events(&mut self, round: usize) -> Result<(), ChaosFailure> {
        let due: Vec<FaultKind> = self
            .plan
            .events
            .iter()
            .filter(|e| e.round == round)
            .map(|e| e.kind.clone())
            .collect();
        for kind in due {
            {
                use smartcrowd_telemetry::counter;
                match &kind {
                    FaultKind::Partition { .. } => {
                        counter!("chaos.faults.injected", "kind" => "partition").inc()
                    }
                    FaultKind::Heal => counter!("chaos.faults.injected", "kind" => "heal").inc(),
                    FaultKind::Crash { .. } => {
                        counter!("chaos.faults.injected", "kind" => "crash").inc()
                    }
                    FaultKind::Restart { .. } => {
                        counter!("chaos.faults.injected", "kind" => "restart").inc()
                    }
                    FaultKind::Byzantine { .. } => {
                        counter!("chaos.faults.injected", "kind" => "byzantine").inc()
                    }
                }
            }
            match kind {
                FaultKind::Partition { minority } => {
                    self.fleet.partition(&minority);
                    for g in &mut self.groups {
                        *g = 0;
                    }
                    for &i in &minority {
                        if i < self.groups.len() {
                            self.groups[i] = 1;
                        }
                    }
                }
                FaultKind::Heal => self.heal()?,
                FaultKind::Crash { node } => self.crash(node, round)?,
                FaultKind::Restart { node } => self.restart(node, round)?,
                FaultKind::Byzantine { node, behavior } => {
                    self.byzantine.insert(node, behavior);
                }
            }
        }
        Ok(())
    }

    /// Crashes a node. In-memory mode keeps the chain as an exported log
    /// image. Durable mode drops the node and leaves its directory as a
    /// power loss in its next commit would: a strict prefix of the
    /// in-flight block's frame appended to `blocks.log`, or, on
    /// snapshot-enabled stores one time in three, the whole frame and a
    /// strict prefix of the snapshot the store then writes, as a rewrite
    /// in place leaves `state.snap` on a filesystem without atomic
    /// rename. The restart's recovery must truncate or reject the tear.
    fn crash(&mut self, node: usize, round: usize) -> Result<(), ChaosFailure> {
        let Some(n) = self.fleet.slot(node).take() else {
            return Ok(());
        };
        let Some(root) = &self.durable_root else {
            self.dumps.insert(node, export_chain(n.store()));
            return Ok(());
        };
        let tear = frame::FRAME_HEADER_LEN as u64 + self.rng.next_below(64);
        let tear_snapshot = self.store_config.snapshot_interval > 0 && self.rng.next_below(3) == 0;
        let parent = n.store().best_block();
        let inflight = Block::assemble(
            &parent,
            vec![],
            parent.header().timestamp + 1,
            Difficulty::from_u64(1),
            n.address(),
        );
        drop(n);
        let dir = node_dir(root, node);
        let frame = frame::block_frame(&inflight);
        let keep = if tear_snapshot {
            frame.len()
        } else {
            (tear as usize).clamp(1, frame.len() - 1)
        };
        let (genesis, config) = (self.fleet.genesis(), self.store_config);
        let power_loss = || -> Result<(), Box<dyn std::error::Error>> {
            let mut log = OpenOptions::new()
                .append(true)
                .open(dir.join("blocks.log"))?;
            log.write_all(&frame[..keep])?;
            if tear_snapshot {
                DurableStore::open_with(&dir, genesis, config)?.write_snapshot()?;
                let snap = OpenOptions::new()
                    .write(true)
                    .open(dir.join("state.snap"))?;
                snap.set_len(tear.clamp(1, snap.metadata()?.len() - 1))?;
            }
            Ok(())
        };
        power_loss().map_err(|e| persist_failure(round, e))
    }

    fn restart(&mut self, node: usize, round: usize) -> Result<(), ChaosFailure> {
        if self.fleet.node(node).is_some() {
            return Ok(());
        }
        let backend: Box<dyn ChainBackend> = match &self.durable_root {
            Some(root) => {
                let dir = node_dir(root, node);
                let reopened =
                    DurableStore::open_with(&dir, self.fleet.genesis(), self.store_config);
                Box::new(reopened.map_err(|e| persist_failure(round, e))?)
            }
            None => {
                let imported = import_chain(&self.dumps[&node]);
                Box::new(imported.map_err(|e| persist_failure(round, e))?)
            }
        };
        self.fleet.restart(node, backend);
        Ok(())
    }

    /// Heals any partition and runs the anti-entropy resync.
    ///
    /// # Errors
    ///
    /// Propagates pump divergence.
    pub fn heal(&mut self) -> Result<(), ChaosFailure> {
        self.fleet.heal_partition();
        for g in &mut self.groups {
            *g = 0;
        }
        self.anti_entropy()
    }

    /// Anti-entropy: every honest running node rebroadcasts its canonical
    /// chain so laggards catch up. A no-op (plain pump) under the planted
    /// bug — the relay filter drops exactly this machinery.
    fn anti_entropy(&mut self) -> Result<(), ChaosFailure> {
        let byzantine = &self.byzantine;
        let synced = self.fleet.anti_entropy(|i| !byzantine.contains_key(&i));
        synced.map_err(|d| self.diverged(d))
    }

    /// Runs one mining round: the race picks a winner; a crashed winner
    /// loses the round, a Byzantine winner misbehaves, everyone else
    /// mines and broadcasts. Flooders spam every round, and due withheld
    /// forks release.
    ///
    /// # Errors
    ///
    /// Propagates pump divergence.
    pub fn mine_round(&mut self) -> Result<(), ChaosFailure> {
        let (winner, timestamp) = self.fleet.next_round();
        match self.byzantine.get(&winner) {
            Some(&ByzantineBehavior::Withhold { rounds }) => {
                if let Some(node) = self.fleet.slot(winner) {
                    let block = node.mine(timestamp, BLOCK_CAPACITY).0;
                    self.withheld.push((self.round + rounds, winner, block));
                }
            }
            Some(ByzantineBehavior::Equivocate) => self.equivocate(winner, timestamp),
            // Honest mining (flooders mine honestly; their misbehaviour
            // is the per-round spam below).
            _ => self.fleet.mine_and_broadcast(winner, timestamp),
        }
        self.release_due_withheld();
        self.flood();
        self.fleet.pump().map_err(|e| self.diverged(e))
    }

    /// Double-mines two sibling blocks on the winner's tip and sends one
    /// to each half of the network; the equivocator adopts one arm and
    /// re-gossips nothing.
    fn equivocate(&mut self, winner: usize, timestamp: u64) {
        let Some(node) = self.fleet.slot(winner) else {
            return;
        };
        let parent = node.store().best_block();
        let t = timestamp.max(parent.header().timestamp);
        let address = node.address();
        let block_a = Block::assemble(&parent, vec![], t, Difficulty::from_u64(1), address);
        let block_b = Block::assemble(&parent, vec![], t + 1, Difficulty::from_u64(1), address);
        // The equivocator silently adopts arm A (outbox discarded).
        let _ = node.handle(Message::Block(Box::new(block_a.clone())));
        let mut toggle = false;
        for i in 0..self.plan.nodes {
            if i == winner || self.fleet.node(i).is_none() {
                continue;
            }
            let arm = if toggle { &block_b } else { &block_a };
            toggle = !toggle;
            self.fleet
                .send(winner, i, Message::Block(Box::new(arm.clone())));
        }
    }

    /// Broadcasts every withheld block whose release round is due, in the
    /// order the forks were mined (prefix order).
    fn release_due_withheld(&mut self) {
        let round = self.round;
        let mut due = Vec::new();
        self.withheld.retain(|(release, owner, block)| {
            if *release <= round {
                due.push((*owner, block.clone()));
                false
            } else {
                true
            }
        });
        for (owner, block) in due {
            if self.fleet.node(owner).is_some() {
                self.fleet.broadcast(owner, Message::Block(Box::new(block)));
            }
        }
    }

    /// Per-round spam from flooding Byzantine nodes.
    fn flood(&mut self) {
        let flooders: Vec<(usize, ByzantineBehavior)> = self
            .byzantine
            .iter()
            .filter(|(i, _)| self.fleet.node(**i).is_some())
            .map(|(i, b)| (*i, b.clone()))
            .collect();
        for (idx, behavior) in flooders {
            match behavior {
                ByzantineBehavior::GarbageFlood { per_round } => {
                    for _ in 0..per_round {
                        let len = 16 + self.rng.next_below(32) as usize;
                        let payload: Vec<u8> =
                            (0..len).map(|_| self.rng.next_u64() as u8).collect();
                        self.garbage_nonce += 1;
                        let record = Record::signed(
                            RecordKind::DetailedReport,
                            payload,
                            Ether::from_microether(5),
                            1_000_000 + self.garbage_nonce,
                            self.fleet.keypair(idx),
                        );
                        self.fleet.broadcast(idx, Message::Record(record));
                    }
                }
                ByzantineBehavior::StaleFlood { per_round } => {
                    let Some(node) = self.fleet.node(idx) else {
                        continue;
                    };
                    let best = node.store().best_height();
                    if best == 0 {
                        continue;
                    }
                    let heights: Vec<u64> = (0..per_round)
                        .map(|_| 1 + self.rng.next_below(best))
                        .collect();
                    let blocks: Vec<Block> = heights
                        .iter()
                        .filter_map(|h| node.store().canonical_block_at(*h))
                        .collect();
                    for b in blocks {
                        self.fleet.broadcast(idx, Message::Block(Box::new(b)));
                    }
                }
                _ => {}
            }
        }
    }

    /// Injects the round-0 workload: an SRA release plus a detector
    /// report pair, so escrow flows exist for the conservation oracle.
    ///
    /// # Errors
    ///
    /// Propagates pump divergence.
    pub(crate) fn inject_initial_workload(&mut self) -> Result<(), ChaosFailure> {
        self.release_and_report(0x01, vec![VulnId(3)], "chaos-fw-alpha")
    }

    /// Injects the mid-run workload (second release, two findings) so
    /// escrow flows also cross the faulty window.
    ///
    /// # Errors
    ///
    /// Propagates pump divergence.
    pub(crate) fn inject_mid_workload(&mut self) -> Result<(), ChaosFailure> {
        self.release_and_report(0x02, vec![VulnId(5), VulnId(9)], "chaos-fw-beta")
    }

    fn release_and_report(
        &mut self,
        tag: u8,
        vulns: Vec<VulnId>,
        name: &str,
    ) -> Result<(), ChaosFailure> {
        let honest = |i: &usize| !self.byzantine.contains_key(i);
        let Some(entry) = self.fleet.running().map(|(i, _)| i).find(honest) else {
            return Ok(());
        };
        let mut build_rng = SimRng::seed_from_u64(self.seed ^ u64::from(tag));
        let library = self.fleet.library();
        let system = IoTSystem::build(name, "1", library, vulns.clone(), &mut build_rng)
            .expect("workload vulns exist in the library");
        let released = self
            .fleet
            .release(entry, system, INSURANCE, INCENTIVE_PER_VULN);
        let sra_id = released.map_err(|d| self.diverged(d))?;
        let detector = KeyPair::from_seed(format!("chaos-detector-{tag}").as_bytes());
        let (initial, detailed) =
            create_report_pair(&detector, sra_id, Findings::new(vulns, "chaos workload"));
        let submissions = [
            (RecordKind::InitialReport, initial.encode(), 0),
            (RecordKind::DetailedReport, detailed.encode(), 1),
        ];
        for (kind, payload, nonce) in submissions {
            let record = Record::signed(kind, payload, REPORT_FEE, nonce, &detector);
            let injected = self.fleet.inject(entry, Message::Record(record));
            injected.map_err(|d| self.diverged(d))?;
        }
        Ok(())
    }

    /// One epilogue round: only honest nodes mine (the adversary has
    /// stopped), so equal-work ties left by the last fault break.
    ///
    /// # Errors
    ///
    /// Propagates pump divergence.
    pub(crate) fn mine_honest_round(&mut self) -> Result<(), ChaosFailure> {
        let byzantine = &self.byzantine;
        let mined = self.fleet.mine_round(|i| !byzantine.contains_key(&i));
        mined.map(drop).map_err(|d| self.diverged(d))
    }

    /// Executes the plan, checking every oracle after every round.
    ///
    /// After the horizon the run enters a bounded epilogue — anti-entropy
    /// plus honest-only mining — until the honest nodes converge, then the
    /// convergence oracle gives the final verdict. The outcome's escrow
    /// figures are read from the first honest node's settlement.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChaosFailure`] encountered: an oracle
    /// [`Violation`], a diverged message pump, or a persistence failure
    /// during crash-restart.
    pub fn run(&mut self) -> Result<ChaosOutcome, ChaosFailure> {
        let mut oracles = Oracles::new(self.plan.nodes);
        let rounds = self.plan.rounds;
        let mid = (rounds / 2).max(1);
        self.inject_initial_workload()?;
        for round in 0..rounds {
            self.round = round;
            self.apply_events(round)?;
            if round == mid {
                self.inject_mid_workload()?;
            }
            self.mine_round()?;
            oracles
                .check_round(round, &self.views())
                .map_err(ChaosFailure::Oracle)?;
        }
        let mut round = rounds;
        for _ in 0..EPILOGUE_LIMIT {
            if self.converged() {
                break;
            }
            self.round = round;
            self.heal()?;
            if self.converged() {
                break;
            }
            self.mine_honest_round()?;
            oracles
                .check_round(round, &self.views())
                .map_err(ChaosFailure::Oracle)?;
            round += 1;
        }
        let views = self.views();
        oracles
            .check_convergence(round, &views)
            .map_err(ChaosFailure::Oracle)?;

        // Shrinking can legitimately produce plans with no honest running
        // node left; such runs pass vacuously with an empty outcome.
        let honest = views.iter().filter(|v| v.honest).find_map(|v| v.running);
        let (best_height, audit) = match honest {
            Some((store, settlement)) => {
                let audited = audit(settlement).map_err(|e| {
                    ChaosFailure::Oracle(Violation {
                        oracle: OracleKind::Conservation,
                        round,
                        detail: e.to_string(),
                    })
                })?;
                (store.best_height(), audited)
            }
            None => (0, Audit::default()),
        };
        Ok(ChaosOutcome {
            rounds: round,
            best_height,
            deposits: audit.deposits,
            payouts: audit.payouts,
            pending_reports: audit.pending_reports,
            duplicated: self.fleet.duplicated(),
        })
    }
}

/// Executes `plan` under `seed` on the in-memory backend
/// ([`ChaosSim::run`]).
///
/// # Errors
///
/// As [`ChaosSim::run`].
pub fn run_plan(
    plan: &FaultPlan,
    seed: u64,
    bug: Option<PlantedBug>,
) -> Result<ChaosOutcome, ChaosFailure> {
    ChaosSim::new(plan, seed, bug).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultEvent;
    use smartcrowd_net::LinkConfig;

    fn quiet_plan(rounds: usize) -> FaultPlan {
        FaultPlan {
            nodes: 4,
            rounds,
            link: LinkConfig::default(),
            events: vec![],
        }
    }

    #[test]
    fn fault_free_plan_passes_with_escrow_flows() {
        let outcome = run_plan(&quiet_plan(16), 7, None).unwrap();
        assert!(outcome.best_height >= 14, "height {}", outcome.best_height);
        // Both workloads confirm: 25 ETH (1 finding) + 50 ETH (2 findings).
        assert_eq!(outcome.deposits, Ether::from_ether(2000));
        assert_eq!(outcome.payouts, Ether::from_ether(75));
        assert_eq!(outcome.pending_reports, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let plan = {
            let mut p = quiet_plan(18);
            p.events.push(FaultEvent {
                round: 3,
                kind: FaultKind::Partition { minority: vec![3] },
            });
            p.events.push(FaultEvent {
                round: 6,
                kind: FaultKind::Heal,
            });
            p
        };
        let a = run_plan(&plan, 21, None).unwrap();
        let b = run_plan(&plan, 21, None).unwrap();
        assert_eq!(a.best_height, b.best_height);
        assert_eq!(a.payouts, b.payouts);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn crash_restart_recovers_via_persistence() {
        let mut plan = quiet_plan(18);
        plan.events.push(FaultEvent {
            round: 4,
            kind: FaultKind::Crash { node: 2 },
        });
        plan.events.push(FaultEvent {
            round: 7,
            kind: FaultKind::Restart { node: 2 },
        });
        let outcome = run_plan(&plan, 5, None).unwrap();
        assert!(outcome.best_height >= 12);
    }

    #[test]
    fn planted_equivocation_bug_is_caught_by_an_oracle() {
        let mut plan = quiet_plan(24);
        plan.events.push(FaultEvent {
            round: 2,
            kind: FaultKind::Byzantine {
                node: 1,
                behavior: ByzantineBehavior::Equivocate,
            },
        });
        // Without the bug the reconciliation machinery resolves the
        // split-brain and the run passes.
        run_plan(&plan, 9, None).unwrap();
        // With the bug the same plan violates agreement or convergence.
        let failure = run_plan(&plan, 9, Some(PlantedBug::AcceptEquivocation)).unwrap_err();
        assert!(matches!(failure, ChaosFailure::Oracle(_)), "{failure}");
    }
}
