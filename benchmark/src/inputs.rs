//! Seeded input generation. Everything a workload feeds the program is a
//! pure function of `--seed`: key seeds, fees, payload bytes, sampled
//! heights. Generating it is the clients' work, so it all happens in
//! set-up; the program only ever receives the finished inputs.

use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::Ether;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::sha256::Sha256;
use smartcrowd_crypto::{hex, Digest};

/// A seeded stream for one named purpose, independent of the others.
pub fn rng(seed: u64, purpose: &str) -> SimRng {
    let tag = smartcrowd_crypto::keccak::keccak256(purpose.as_bytes());
    let mut word = [0u8; 8];
    word.copy_from_slice(&tag[..8]);
    SimRng::seed_from_u64(seed ^ u64::from_be_bytes(word))
}

/// `n` key pairs derived from the seed and a purpose tag.
pub fn keypairs(seed: u64, purpose: &str, n: usize) -> Vec<KeyPair> {
    (0..n)
        .map(|i| KeyPair::from_seed(format!("bench/{purpose}/{seed}/{i}").as_bytes()))
        .collect()
}

/// `len` seeded bytes.
pub fn bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// What one generated record looks like before it is signed.
#[derive(Debug, Clone)]
pub struct Draft {
    /// Index into the sender key list.
    pub sender: usize,
    /// Record payload.
    pub payload: Vec<u8>,
    /// Fee in wei.
    pub fee: u128,
    /// Per-record nonce (the input index, so ids are unique).
    pub nonce: u64,
}

/// `n` transfer drafts: seeded sender, a seeded fee made distinct by its
/// low bits (so fee order is total and eviction never meets a tie), and
/// a payload of `payload_len` seeded bytes.
pub fn drafts(rng: &mut SimRng, n: usize, senders: usize, payload_len: usize) -> Vec<Draft> {
    (0..n)
        .map(|i| Draft {
            sender: rng.next_below(senders as u64) as usize,
            payload: bytes(rng, payload_len),
            fee: u128::from(rng.next_range(1_000, 1_000_000)) << 32 | i as u128,
            nonce: i as u64,
        })
        .collect()
}

/// Signs drafts into `Transfer` records on the program's worker pool
/// (clients sign independently; output order is input order).
pub fn sign_transfers(drafts: &[Draft], keys: &[KeyPair]) -> Vec<Record> {
    smartcrowd_pool::global().par_map(drafts, |d| {
        Record::signed(
            RecordKind::Transfer,
            d.payload.clone(),
            Ether::from_wei(d.fee),
            d.nonce,
            &keys[d.sender],
        )
    })
}

/// Wire form of records, as a peer would receive them.
pub fn to_wire(records: &[Record]) -> Vec<Vec<u8>> {
    records.iter().map(Record::encode).collect()
}

/// Fresh record instances from wire bytes: the canonical encoding is
/// adopted, nothing else (no id) is memoised — the state in which a
/// record reaches a node.
pub fn from_wire(wire: &[Vec<u8>]) -> Vec<Record> {
    wire.iter()
        .map(|b| Record::decode(b).expect("generated records decode"))
        .collect()
}

/// Running sha256 over the encoded generated inputs.
pub struct InputsDigest(Sha256);

impl InputsDigest {
    /// Starts a digest labelled with the workload and its sizes.
    pub fn new(label: &str) -> Self {
        let mut d = InputsDigest(Sha256::new());
        d.add(label.as_bytes());
        d
    }

    /// Folds one length-prefixed input in.
    pub fn add(&mut self, part: &[u8]) {
        self.0.update(&(part.len() as u64).to_be_bytes());
        self.0.update(part);
    }

    /// Hex digest.
    pub fn finish(self) -> String {
        let digest: Digest = self.0.finalize();
        hex::encode(&digest)
    }
}
