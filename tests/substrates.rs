//! Cross-substrate integration: records travelling over the gossip
//! network into provider mempools and onto the chain; the VM applying
//! block economics.

use smartcrowd::chain::mempool::Mempool;
use smartcrowd::chain::pow::Miner;
use smartcrowd::chain::record::{Record, RecordKind};
use smartcrowd::chain::{Block, ChainQuery, ChainStore, Difficulty, Ether};
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::crypto::Address;
use smartcrowd::net::{GossipNet, LinkConfig, Message};

fn record(seed: u64) -> Record {
    let kp = KeyPair::from_seed(&seed.to_be_bytes());
    Record::signed(
        RecordKind::InitialReport,
        vec![seed as u8; 32],
        Ether::from_milliether(11),
        seed,
        &kp,
    )
}

#[test]
fn gossip_delivers_reports_to_all_provider_mempools() {
    // One detector broadcasts a report; every provider's mempool admits it
    // (§V-B: reports "will be delivered to all IoT providers").
    let mut net = GossipNet::new(LinkConfig::default(), 7);
    let detector = net.register();
    let providers: Vec<_> = (0..5).map(|_| net.register()).collect();
    let mut mempools: Vec<Mempool> = (0..5).map(|_| Mempool::new(64)).collect();

    let r = record(1);
    net.broadcast(detector, Message::Record(r.clone())).unwrap();
    for delivery in net.drain() {
        let idx = providers.iter().position(|p| *p == delivery.to).unwrap();
        if let Message::Record(rec) = delivery.message {
            mempools[idx].insert(rec).unwrap();
        }
    }
    for (i, pool) in mempools.iter().enumerate() {
        assert!(pool.contains(&r.id()), "provider {i} missing the report");
    }
}

#[test]
fn partitioned_provider_catches_up_via_block_sync() {
    // A provider cut off during mining accepts the longer chain on heal.
    let mut net = GossipNet::new(LinkConfig::default(), 9);
    let miner_node = net.register();
    let lagging = net.register();

    let genesis = Block::genesis(Difficulty::from_u64(1));
    let mut main_store = ChainStore::new(genesis.clone());
    let mut lagging_store = ChainStore::new(genesis.clone());
    let miner = Miner::new(Address::from_label("m"));

    net.partition(&[lagging]);
    let mut parent = genesis;
    let mut blocks = Vec::new();
    for _ in 0..3 {
        let b = miner
            .mine_next(&parent, vec![], parent.header().timestamp + 15)
            .unwrap();
        main_store.insert(b.clone()).unwrap();
        net.broadcast(miner_node, Message::Block(Box::new(b.clone())))
            .unwrap();
        blocks.push(b.clone());
        parent = b;
    }
    // Nothing crossed the partition.
    assert!(net.drain().is_empty());
    assert_eq!(lagging_store.best_height(), 0);

    // Heal and re-broadcast (a trivial sync protocol).
    net.heal_partition();
    for b in &blocks {
        net.broadcast(miner_node, Message::Block(Box::new(b.clone())))
            .unwrap();
    }
    // Gossip jitter can reorder deliveries: buffer and connect by height,
    // as a real sync implementation does.
    let mut received: Vec<Block> = net
        .drain()
        .into_iter()
        .filter(|d| d.to == lagging)
        .filter_map(|d| match d.message {
            Message::Block(b) => Some(*b),
            _ => None,
        })
        .collect();
    received.sort_by_key(|b| b.header().height);
    for b in received {
        lagging_store.insert(b).unwrap();
    }
    assert_eq!(lagging_store.best_height(), 3);
    assert_eq!(lagging_store.best_tip(), main_store.best_tip());
}

#[test]
fn record_fees_flow_to_the_including_miner() {
    use smartcrowd::vm::WorldState;
    let mut state = WorldState::new();
    let sender = KeyPair::from_seed(&5u64.to_be_bytes());
    state.credit(sender.address(), Ether::from_ether(1));
    let miner_addr = Address::from_label("winner");

    let r = record(5);
    // Simulate inclusion economics the way the platform applies them.
    let fee = r.fee();
    state.transfer(sender.address(), miner_addr, fee).unwrap();
    assert_eq!(state.balance(&miner_addr), Ether::from_milliether(11));
    assert_eq!(
        state.balance(&sender.address()),
        Ether::from_ether(1) - Ether::from_milliether(11)
    );
    assert_eq!(state.total_supply(), Ether::from_ether(1));
}

#[test]
fn drop_heavy_network_still_converges_with_retries() {
    // 30% loss: repeated broadcast eventually reaches every provider.
    let mut net = GossipNet::new(
        LinkConfig {
            base_latency: 0.05,
            jitter: 0.01,
            drop_rate: 0.3,
            ..LinkConfig::default()
        },
        13,
    );
    let src = net.register();
    let dst: Vec<_> = (0..4).map(|_| net.register()).collect();
    let r = record(9);
    let mut received = [false; 4];
    for _ in 0..12 {
        net.broadcast(src, Message::Record(r.clone())).unwrap();
        for d in net.drain() {
            if let Some(i) = dst.iter().position(|x| *x == d.to) {
                received[i] = true;
            }
        }
        if received.iter().all(|&x| x) {
            break;
        }
    }
    assert!(received.iter().all(|&x| x), "retries defeat 30% loss");
}
