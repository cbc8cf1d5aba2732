//! `fleet_gossip`: the distributed half — `net::gossip`, `net::sync` and
//! the `ProviderNode` copy of the protocol (`handle_record`,
//! `handle_block`, `semantic_ok`), block re-gossip and N-fold validation.
//! The harness owns the delivery loop over the public API (`drain` →
//! per-node `handle_batch` → re-broadcast) so that spans sit on the
//! boundaries. The signature cache is process-wide and the records were
//! verified in set-up, so message counts and per-node block handling
//! dominate, not crypto.
//!
//! Every round waits for the slowest of the nodes, so the tail of
//! `handle_block`, not its mean, sets the submit→commit tail.

use super::{settle, Acc, Phase, Probe, Rep, Sizes, Workload};
use crate::inputs::{self, InputsDigest};
use crate::spanned;
use crate::trace::Tracer;
use smartcrowd_chain::record::Record;
use smartcrowd_chain::{sigcache, Block, Difficulty};
use smartcrowd_core::node::ProviderNode;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Digest;
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_net::gossip::{GossipNet, LinkConfig, NodeId};
use smartcrowd_net::protocol::Message;
use std::collections::HashMap;
use std::time::Instant;

/// Generated inputs of `fleet_gossip`.
pub struct FleetGossip {
    sizes: Sizes,
    seed: u64,
    node_keys: Vec<KeyPair>,
    wire: Vec<Vec<u8>>,
    /// Record id → node it is injected at.
    node_of: HashMap<Digest, usize>,
    digest: String,
}

/// The nodes, the fabric between them and the delivery count.
struct Fleet {
    nodes: Vec<ProviderNode>,
    ids: Vec<NodeId>,
    net: GossipNet,
    deliveries: u64,
}

impl Fleet {
    fn broadcast(&mut self, from: usize, messages: Vec<Message>, t: &mut Tracer) {
        let n = messages.len();
        spanned!(t, "net.gossip.broadcast", n, {
            for m in messages {
                self.net
                    .broadcast(self.ids[from], m)
                    .expect("registered node");
            }
        });
    }

    /// Delivers queued messages, and what the nodes send in response,
    /// until the fabric is quiet.
    fn pump(&mut self, t: &mut Tracer, probe: &Probe, acc: &mut Acc) {
        while self.net.has_pending() {
            let span = t.enter("net.gossip.drain");
            let deliveries = self.net.drain();
            t.exit(span, deliveries.len() as u64);
            self.deliveries += deliveries.len() as u64;
            let mut inbox: Vec<Vec<Message>> = vec![Vec::new(); self.nodes.len()];
            for d in deliveries {
                inbox[d.to.0].push(d.message);
            }
            for (i, messages) in inbox.into_iter().enumerate() {
                if messages.is_empty() {
                    continue;
                }
                let blocks = messages.iter().any(|m| matches!(m, Message::Block(_)));
                let span = t.enter(if blocks {
                    "core.node.handle_batch.blocks"
                } else {
                    "core.node.handle_batch.records"
                });
                let since = probe.mark(t);
                let n = messages.len() as u64;
                let out = self.nodes[i].handle_batch(messages);
                probe.ingested(t, span, since, acc);
                t.exit(span, n);
                self.broadcast(i, out.broadcast, t);
            }
        }
    }
}

impl Workload for FleetGossip {
    fn setup(seed: u64, sizes: &Sizes) -> Self {
        let keys = inputs::keypairs(seed, "fleet_gossip", sizes.senders);
        let mut rng = inputs::rng(seed, "fleet_gossip");
        let drafts = inputs::drafts(
            &mut rng,
            sizes.fleet_records,
            keys.len(),
            sizes.transfer_payload,
        );
        let records = inputs::sign_transfers(&drafts, &keys);
        sigcache::reset();
        let refs: Vec<&Record> = records.iter().collect();
        let verdicts = sigcache::verify_batch(&refs, smartcrowd_pool::global());
        assert!(
            verdicts.iter().all(Result::is_ok),
            "generated records verify"
        );
        let wire = inputs::to_wire(&records);
        let mut digest = InputsDigest::new("fleet_gossip");
        wire.iter().for_each(|w| digest.add(w));
        FleetGossip {
            sizes: *sizes,
            seed,
            node_keys: inputs::keypairs(seed, "fleet_gossip/node", sizes.nodes),
            node_of: records
                .iter()
                .enumerate()
                .map(|(k, r)| (r.id(), k % sizes.nodes))
                .collect(),
            wire,
            digest: digest.finish(),
        }
    }

    fn inputs_digest(&self) -> &str {
        &self.digest
    }

    fn repetition(&self, t: &mut Tracer, probe: &Probe, acc: &mut Acc) {
        let s = &self.sizes;
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let library = VulnLibrary::synthetic(50, 1);
        let mut net = GossipNet::new(LinkConfig::default(), self.seed);
        let mut fleet = Fleet {
            nodes: self
                .node_keys
                .iter()
                .map(|k| ProviderNode::new(*k, genesis.clone(), library.clone()))
                .collect(),
            ids: (0..s.nodes).map(|_| net.register()).collect(),
            net,
            deliveries: 0,
        };
        let mut injections: Vec<Vec<Message>> = vec![Vec::new(); s.nodes];
        for (k, record) in inputs::from_wire(&self.wire).into_iter().enumerate() {
            injections[k % s.nodes].push(Message::Record(record));
        }
        let copies = injections.clone();
        let dropped = super::counter("core.node.record_dropped");
        let dropped_before = dropped.get();
        let (hits, misses) = (acc.ingest_hits, acc.ingest_misses);
        let (mut handed, mut stored) = (Vec::new(), Vec::new());

        let phase = Phase::open(t);
        for (i, (messages, for_peers)) in injections.into_iter().zip(copies).enumerate() {
            handed.push(Instant::now());
            let span = t.enter("core.node.handle_batch.records");
            let since = probe.mark(t);
            let n = messages.len() as u64;
            let out = fleet.nodes[i].handle_batch(messages);
            probe.ingested(t, span, since, acc);
            t.exit(span, n);
            fleet.broadcast(i, for_peers, t);
            fleet.broadcast(i, out.broadcast, t);
        }
        fleet.pump(t, probe, acc);
        let mut rounds = 0u64;
        let round_limit = 4 * (s.fleet_records / s.fleet_block_records + 1) as u64;
        while fleet.nodes.iter().any(|n| n.mempool_len() > 0) && rounds < round_limit {
            let miner = rounds as usize % s.nodes;
            let ts = genesis.header().timestamp + 15 * (rounds + 1);
            let (_, out) = spanned!(
                t,
                "core.node.mine",
                1,
                fleet.nodes[miner].mine(ts, s.fleet_block_records)
            );
            fleet.broadcast(miner, out.broadcast, t);
            fleet.pump(t, probe, acc);
            stored.push(Instant::now());
            rounds += 1;
        }
        let wall_s = phase.close(t);

        // Every node holds every offered record exactly once, on the
        // same canonical chain.
        let reference = fleet.nodes[0].store().canonical_blocks();
        let on_chain = settle(acc, &self.node_of, &handed, &stored, reference.iter());
        let converged = fleet.nodes.iter().all(|n| {
            let store = n.store();
            store.best_tip() == fleet.nodes[0].store().best_tip()
                && reference
                    .iter()
                    .all(|b| store.canonical_id_at(b.header().height) == Some(b.id()))
        });
        acc.expect(converged, || "fleet tips did not converge".to_string());
        let lost = dropped.get() - dropped_before;
        acc.expect(lost == 0, || format!("{lost} records dropped at admission"));
        let (hits, misses) = (acc.ingest_hits - hits, acc.ingest_misses - misses);
        acc.expect(misses == 0 && hits > 0, || {
            format!("warm fleet saw {misses} cache misses, {hits} hits")
        });
        acc.exact("records_committed", on_chain);
        acc.exact("blocks_committed", fleet.nodes[0].store().best_height());
        acc.exact("net.gossip.deliveries", fleet.deliveries);
        acc.exact("net.gossip.rounds", rounds);
        acc.sample("records_dropped", lost as f64);
        acc.reps
            .push(Rep::new(wall_s, if converged { on_chain } else { 0 }));
    }
}
