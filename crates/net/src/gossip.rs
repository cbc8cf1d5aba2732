//! A deterministic gossip network on a simulated clock.
//!
//! Nodes register once; anyone can then unicast or broadcast
//! [`Message`]s. Deliveries are queued with per-link latency (base plus
//! seeded jitter), may be dropped with a configurable probability, and are
//! blocked entirely across an active partition. The network delivers in
//! global timestamp order, so a run is reproducible from its seed — the
//! property all experiment harnesses rely on.

use crate::error::NetError;
use crate::protocol::Message;
use smartcrowd_chain::rng::SimRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies a registered node (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Link behaviour, shared by every pair of nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Base one-way latency in seconds.
    pub base_latency: f64,
    /// Uniform jitter added on top, in seconds.
    pub jitter: f64,
    /// Probability a message is silently dropped.
    pub drop_rate: f64,
    /// Probability a message is delivered *twice* (the second copy gets an
    /// independent latency sample), modelling at-least-once gossip relays.
    pub duplicate_rate: f64,
    /// Probability a message is adversarially delayed by a multiple of the
    /// nominal latency, so that later sends overtake it (reordering).
    pub reorder_rate: f64,
}

/// How much a reordered message is delayed, as a multiple of the nominal
/// `base_latency + jitter` budget: enough that several subsequent sends
/// overtake it.
const REORDER_STRETCH: f64 = 8.0;

impl Default for LinkConfig {
    fn default() -> Self {
        // LAN-ish defaults comparable to the paper's single-host testbed.
        LinkConfig {
            base_latency: 0.05,
            jitter: 0.05,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
        }
    }
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Simulated delivery time (seconds).
    pub at: f64,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The message.
    pub message: Message,
}

#[derive(Debug)]
struct Queued {
    at: f64,
    seq: u64,
    from: NodeId,
    to: NodeId,
    message: Message,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Queued {}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq): earliest first, FIFO within a timestamp.
        other
            .at
            .partial_cmp(&self.at)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The gossip network.
///
/// # Example
///
/// ```
/// use smartcrowd_net::{GossipNet, LinkConfig, Message};
///
/// let mut net = GossipNet::new(LinkConfig::default(), 42);
/// let a = net.register();
/// let b = net.register();
/// net.send(a, b, Message::ImageRequest { image_hash: [0u8; 32] }).unwrap();
/// let deliveries = net.drain();
/// assert_eq!(deliveries.len(), 1);
/// assert_eq!(deliveries[0].to, b);
/// ```
#[derive(Debug)]
pub struct GossipNet {
    link: LinkConfig,
    rng: SimRng,
    nodes: usize,
    queue: BinaryHeap<Queued>,
    clock: f64,
    seq: u64,
    /// Partition groups: nodes in different groups cannot communicate.
    /// Partitions gate *sends*, so in-flight messages still deliver — as
    /// on a real network, where cutting a link does not recall packets
    /// already on the wire.
    partition: Vec<usize>,
    duplicated: u64,
}

/// The `net.gossip.sent{type=…}` counter for a message's wire type.
fn sent_counter(message: &Message) -> &'static smartcrowd_telemetry::Counter {
    use smartcrowd_telemetry::counter;
    match message {
        Message::Record(_) => counter!("net.gossip.sent", "type" => "record"),
        Message::Block(_) => counter!("net.gossip.sent", "type" => "block"),
        Message::ImageRequest { .. } => counter!("net.gossip.sent", "type" => "image_request"),
        Message::ImageResponse { .. } => counter!("net.gossip.sent", "type" => "image_response"),
        Message::BlockRequest { .. } => counter!("net.gossip.sent", "type" => "block_request"),
    }
}

impl GossipNet {
    /// Creates a network with uniform link behaviour and a seed.
    pub fn new(link: LinkConfig, seed: u64) -> Self {
        GossipNet {
            link,
            rng: SimRng::seed_from_u64(seed),
            nodes: 0,
            queue: BinaryHeap::new(),
            clock: 0.0,
            seq: 0,
            partition: Vec::new(),
            duplicated: 0,
        }
    }

    /// Registers a node, returning its id.
    pub fn register(&mut self) -> NodeId {
        let id = NodeId(self.nodes);
        self.nodes += 1;
        self.partition.push(0);
        id
    }

    /// Messages that were delivered twice by link-level duplication.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Splits the network: nodes in `group_b` can no longer exchange
    /// messages with the rest. Heals with [`GossipNet::heal_partition`].
    pub fn partition(&mut self, group_b: &[NodeId]) {
        for p in self.partition.iter_mut() {
            *p = 0;
        }
        for n in group_b {
            if n.0 < self.partition.len() {
                self.partition[n.0] = 1;
            }
        }
    }

    /// Removes any partition.
    pub fn heal_partition(&mut self) {
        for p in self.partition.iter_mut() {
            *p = 0;
        }
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.partition[from.0] == self.partition[to.0]
    }

    /// Unicasts a message.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for unregistered endpoints.
    pub fn send(&mut self, from: NodeId, to: NodeId, message: Message) -> Result<(), NetError> {
        if from.0 >= self.nodes {
            return Err(NetError::UnknownNode { node: from.0 });
        }
        if to.0 >= self.nodes {
            return Err(NetError::UnknownNode { node: to.0 });
        }
        let link = self.link;
        let size = message.wire_size() as u64;
        sent_counter(&message).inc();
        smartcrowd_telemetry::counter!("net.gossip.bytes").add(size);
        if !self.reachable(from, to) || self.rng.next_bool(link.drop_rate) {
            smartcrowd_telemetry::counter!("net.gossip.dropped").inc();
            return Ok(());
        }
        if self.rng.next_bool(link.duplicate_rate) {
            self.duplicated += 1;
            smartcrowd_telemetry::counter!("net.gossip.duplicated").inc();
            self.enqueue(from, to, &link, message.clone());
        }
        self.enqueue(from, to, &link, message);
        Ok(())
    }

    /// Queues one copy of `message` with its own latency sample.
    fn enqueue(&mut self, from: NodeId, to: NodeId, link: &LinkConfig, message: Message) {
        let mut latency = link.base_latency + self.rng.next_f64() * link.jitter;
        if self.rng.next_bool(link.reorder_rate) {
            // Adversarial reordering: hold the message long enough that
            // several subsequent sends overtake it.
            latency += (link.base_latency + link.jitter) * REORDER_STRETCH * self.rng.next_f64();
        }
        self.queue.push(Queued {
            at: self.clock + latency,
            seq: self.seq,
            from,
            to,
            message,
        });
        self.seq += 1;
    }

    /// Broadcasts from `from` to every other node (the SRA/report/block
    /// dissemination pattern of §V).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] when `from` is unregistered.
    pub fn broadcast(&mut self, from: NodeId, message: Message) -> Result<(), NetError> {
        if from.0 >= self.nodes {
            return Err(NetError::UnknownNode { node: from.0 });
        }
        // Every peer but the last gets a clone; the last gets the message.
        let mut peers = (0..self.nodes).filter(|to| *to != from.0).peekable();
        while let Some(to) = peers.next() {
            if peers.peek().is_none() {
                return self.send(from, NodeId(to), message);
            }
            self.send(from, NodeId(to), message.clone())?;
        }
        Ok(())
    }

    /// Pops the next delivery, advancing the clock to it.
    fn step(&mut self) -> Option<Delivery> {
        let q = self.queue.pop()?;
        self.clock = self.clock.max(q.at);
        Some(Delivery {
            at: q.at,
            from: q.from,
            to: q.to,
            message: q.message,
        })
    }

    /// Drains every queued delivery regardless of time.
    pub fn drain(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(d) = self.step() {
            out.push(d);
        }
        out
    }

    /// Whether deliveries are pending.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message::ImageRequest {
            image_hash: [7u8; 32],
        }
    }

    fn net(drop: f64) -> GossipNet {
        GossipNet::new(
            LinkConfig {
                base_latency: 0.1,
                jitter: 0.05,
                drop_rate: drop,
                ..LinkConfig::default()
            },
            99,
        )
    }

    #[test]
    fn unicast_delivers_with_latency() {
        let mut n = net(0.0);
        let a = n.register();
        let b = n.register();
        n.send(a, b, msg()).unwrap();
        let d = n.drain().pop().unwrap();
        assert_eq!(d.to, b);
        assert!(d.at >= 0.1 && d.at <= 0.15);
        assert!(n.clock >= 0.1);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut n = net(0.0);
        let ids: Vec<NodeId> = (0..5).map(|_| n.register()).collect();
        n.broadcast(ids[0], msg()).unwrap();
        let deliveries = n.drain();
        assert_eq!(deliveries.len(), 4);
        assert!(deliveries.iter().all(|d| d.to != ids[0]));
    }

    #[test]
    fn deliveries_are_time_ordered() {
        let mut n = net(0.0);
        let a = n.register();
        let _ = n.register();
        for _ in 0..20 {
            n.broadcast(a, msg()).unwrap();
        }
        let deliveries = n.drain();
        for w in deliveries.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn drops_thin_traffic() {
        let mut n = net(0.5);
        let a = n.register();
        let b = n.register();
        for _ in 0..1000 {
            n.send(a, b, msg()).unwrap();
        }
        let delivered = n.drain().len();
        assert!(delivered > 350 && delivered < 650, "delivered {delivered}");
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut n = net(0.0);
        let a = n.register();
        let b = n.register();
        let c = n.register();
        n.partition(&[c]);
        n.send(a, c, msg()).unwrap();
        n.send(a, b, msg()).unwrap();
        let deliveries = n.drain();
        assert_eq!(deliveries.len(), 1, "only a→b crosses");
        assert_eq!(deliveries[0].to, b);
        n.heal_partition();
        n.send(a, c, msg()).unwrap();
        assert_eq!(n.drain().len(), 1);
    }

    #[test]
    fn unknown_nodes_rejected() {
        let mut n = net(0.0);
        let a = n.register();
        assert!(matches!(
            n.send(a, NodeId(9), msg()),
            Err(NetError::UnknownNode { node: 9 })
        ));
        assert!(matches!(
            n.send(NodeId(9), a, msg()),
            Err(NetError::UnknownNode { node: 9 })
        ));
        assert!(n.broadcast(NodeId(5), msg()).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut n = GossipNet::new(LinkConfig::default(), seed);
            let a = n.register();
            let _ = n.register();
            let _ = n.register();
            for _ in 0..10 {
                n.broadcast(a, msg()).unwrap();
            }
            n.drain()
                .into_iter()
                .map(|d| (d.to, (d.at * 1e9) as u64))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut n = GossipNet::new(
            LinkConfig {
                duplicate_rate: 1.0,
                ..LinkConfig::default()
            },
            3,
        );
        let a = n.register();
        let b = n.register();
        for _ in 0..10 {
            n.send(a, b, msg()).unwrap();
        }
        assert_eq!(n.drain().len(), 20, "every message duplicated");
        assert_eq!(n.duplicated(), 10);
    }

    #[test]
    fn reordering_lets_later_sends_overtake() {
        let mut n = GossipNet::new(
            LinkConfig {
                base_latency: 0.1,
                jitter: 0.0,
                reorder_rate: 0.5,
                ..LinkConfig::default()
            },
            17,
        );
        let a = n.register();
        let b = n.register();
        // Tag messages by image hash so arrival order is observable.
        for i in 0..30u8 {
            n.send(
                a,
                b,
                Message::ImageRequest {
                    image_hash: [i; 32],
                },
            )
            .unwrap();
        }
        let order: Vec<u8> = n
            .drain()
            .into_iter()
            .map(|d| match d.message {
                Message::ImageRequest { image_hash } => image_hash[0],
                _ => unreachable!(),
            })
            .collect();
        assert!(
            order.windows(2).any(|w| w[0] > w[1]),
            "some message overtook an earlier one: {order:?}"
        );
    }

    #[test]
    fn in_flight_messages_survive_a_cut() {
        let mut n = net(0.0);
        let a = n.register();
        let b = n.register();
        n.send(a, b, msg()).unwrap();
        n.partition(&[b]);
        assert_eq!(n.drain().len(), 1, "packets on the wire are not recalled");
    }
}
