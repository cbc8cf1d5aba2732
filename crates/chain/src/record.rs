//! Chain records: the unit of storage inside a block.
//!
//! Besides plain value-transfer transactions, SmartCrowd blocks "also record
//! SRAs and detection reports" (§IV). The chain stays protocol-agnostic: a
//! [`Record`] carries a [`RecordKind`] tag and an opaque canonical payload
//! produced by the core crate, plus the fee `ψ` that rewards the miner for
//! recording it (Eq. 8) and the submitter's signature.

use crate::amount::Ether;
use crate::codec::{Decoder, Encoder};
use crate::error::ChainError;
use smartcrowd_crypto::ecdsa::{self, Signature};
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::keys::{KeyPair, PublicKey};
use smartcrowd_crypto::merkle::leaf_hash;
use smartcrowd_crypto::point::Point;
use smartcrowd_crypto::{Address, CryptoError, Digest};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// What a record contains.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum RecordKind {
    /// A plain value transfer.
    Transfer = 0,
    /// An IoT system release announcement `Δ` (Eq. 1).
    Sra = 1,
    /// An initial detection report `R†` (Eq. 3).
    InitialReport = 2,
    /// A detailed detection report `R*` (Eq. 5).
    DetailedReport = 3,
}

impl RecordKind {
    /// All kinds, for exhaustive iteration in tests and stats.
    pub const ALL: [RecordKind; 4] = [
        RecordKind::Transfer,
        RecordKind::Sra,
        RecordKind::InitialReport,
        RecordKind::DetailedReport,
    ];

    /// The kind's name, as it displays and as chain statistics count it.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            RecordKind::Transfer => "transfer",
            RecordKind::Sra => "sra",
            RecordKind::InitialReport => "initial-report",
            RecordKind::DetailedReport => "detailed-report",
        }
    }

    /// Parses the wire tag.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] for unknown tags.
    pub(crate) fn from_tag(tag: u8) -> Result<Self, ChainError> {
        Self::ALL
            .into_iter()
            .find(|k| *k as u8 == tag)
            .ok_or_else(|| ChainError::Codec {
                detail: format!("unknown record kind {tag}"),
            })
    }
}

impl fmt::Display for RecordKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Bytes of the canonical encoding before the payload: kind tag, sender,
/// payload length prefix.
const PAYLOAD_OFFSET: usize = 1 + 20 + 8;
/// Bytes of the signature, the encoding's last field.
const SIGNATURE_LEN: usize = 65;
/// Bytes of the canonical encoding after the payload: fee, nonce, signature.
const TRAILER_LEN: usize = 16 + 8 + SIGNATURE_LEN;

/// What every handle to one record shares.
///
/// Frozen at construction: [`Record::signed`] and [`Record::decode`] are
/// the only constructors and nothing mutates a body afterwards. The two
/// cells memoize digests — pure functions of `encoded` — and never a
/// verdict; a body built by `decode` starts with both empty, so tampered
/// bytes inherit nothing from the record they were copied from.
struct RecordBody {
    /// The canonical encoding, held once: the payload is a range of it and
    /// the signed preimage is everything before the signature.
    encoded: Box<[u8]>,
    kind: RecordKind,
    sender: Address,
    fee: Ether,
    nonce: u64,
    signature: Signature,
    id: OnceLock<Digest>,
    merkle_leaf: OnceLock<Digest>,
}

/// A signed record awaiting (or holding) a place in a block.
///
/// A handle over an immutable shared body: a clone is a reference-count
/// bump, and every clone reads and fills the same id and Merkle-leaf
/// memos.
#[derive(Clone)]
pub struct Record(Arc<RecordBody>);

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        // One encoding per record, so the bytes decide; the memos are
        // derived state.
        Arc::ptr_eq(&self.0, &other.0) || self.0.encoded == other.0.encoded
    }
}

impl Eq for Record {}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("kind", &self.0.kind)
            .field("sender", &self.0.sender)
            .field("payload_len", &self.payload().len())
            .field("fee", &self.0.fee)
            .field("nonce", &self.0.nonce)
            .field("signature", &self.0.signature)
            .finish_non_exhaustive()
    }
}

impl Record {
    /// Builds and signs a record with the submitter's key pair.
    ///
    /// `nonce` is a per-sender sequence number preventing replay of an
    /// identical submission.
    pub fn signed(
        kind: RecordKind,
        payload: Vec<u8>,
        fee: Ether,
        nonce: u64,
        signer: &KeyPair,
    ) -> Record {
        let sender = signer.address();
        let mut enc = Encoder::new();
        enc.put_u8(kind as u8)
            .put_array(sender.as_bytes())
            .put_bytes(&payload)
            .put_u128(fee.wei())
            .put_u64(nonce);
        let mut encoded = enc.finish();
        let signature = signer.sign(&keccak256(&encoded));
        encoded.extend_from_slice(&signature.to_bytes());
        Record(Arc::new(RecordBody {
            encoded: encoded.into_boxed_slice(),
            kind,
            sender,
            fee,
            nonce,
            signature,
            id: OnceLock::new(),
            merkle_leaf: OnceLock::new(),
        }))
    }

    /// The signed digest: Keccak-256 of the encoding up to the signature.
    fn signing_digest(&self) -> Digest {
        let encoded = &self.0.encoded;
        keccak256(&encoded[..encoded.len() - SIGNATURE_LEN])
    }

    /// The record kind.
    pub fn kind(&self) -> RecordKind {
        self.0.kind
    }

    /// The declared sender address.
    pub fn sender(&self) -> Address {
        self.0.sender
    }

    /// The opaque canonical payload.
    pub fn payload(&self) -> &[u8] {
        let encoded = &self.0.encoded;
        &encoded[PAYLOAD_OFFSET..encoded.len() - TRAILER_LEN]
    }

    /// The transaction fee `ψ` paid to the recording miner.
    pub fn fee(&self) -> Ether {
        self.0.fee
    }

    /// The per-sender sequence number.
    pub fn nonce(&self) -> u64 {
        self.0.nonce
    }

    /// The submitter's signature.
    pub fn signature(&self) -> &Signature {
        &self.0.signature
    }

    /// The record id: Keccak-256 over the full canonical encoding
    /// (including the signature).
    ///
    /// Memoized on the shared body: the first call on any handle hashes
    /// the encoding and every later call on any clone (there are ~75
    /// `.id()` call sites across the workspace — mempool ordering, store
    /// indexing, dedup sets) returns the stored digest without re-running
    /// Keccak. `chain.idcache.hit` counts the skipped hashes.
    pub fn id(&self) -> Digest {
        if let Some(id) = self.0.id.get() {
            smartcrowd_telemetry::counter!("chain.idcache.hit").inc();
            return *id;
        }
        *self.0.id.get_or_init(|| keccak256(&self.0.encoded))
    }

    /// The record's Merkle leaf digest, memoized on the shared body like
    /// the id: a block assembled, validated or re-validated anywhere in
    /// the process hashes each record's leaf once.
    pub(crate) fn merkle_leaf(&self) -> Digest {
        *self
            .0
            .merkle_leaf
            .get_or_init(|| leaf_hash(&self.0.encoded))
    }

    /// Whether [`Record::merkle_leaf`] would hash.
    pub(crate) fn merkle_leaf_is_cold(&self) -> bool {
        self.0.merkle_leaf.get().is_none()
    }

    /// Verifies that the signature recovers to the declared sender.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::RecordRejected`] when recovery fails or the
    /// recovered address differs from [`Record::sender`].
    pub fn verify_signature(&self) -> Result<(), ChainError> {
        Record::verify_signatures(&[self]).remove(0)
    }

    /// [`Record::verify_signature`] of every record, index-aligned: the
    /// same verdict and reason string per record.
    ///
    /// The records are grouped by sender. Each sender's first record is
    /// recovered, all of them in one [`ecdsa::recover_batch`], and a
    /// recovery that yields the declared sender establishes that sender's
    /// key. When the cost rule `known_sender_batch_pays` says so, every
    /// later record of an established sender is then checked against that
    /// key in one [`ecdsa::verify_batch_known`], which passes only if each
    /// of them would recover to it. Whatever that batch does not vouch
    /// for (the later records of a sender whose first record failed, or
    /// every record of a batch that failed) is recovered in one more
    /// `recover_batch`, so each failure is named exactly as one recovery
    /// would name it.
    pub(crate) fn verify_signatures(records: &[&Record]) -> Vec<Result<(), ChainError>> {
        // Per sender, in order of first appearance: its first record.
        let mut slot_of: HashMap<Address, usize> = HashMap::new();
        let mut firsts = Vec::new();
        // Every later record, with its sender's slot.
        let mut followers = Vec::new();
        for (index, record) in records.iter().enumerate() {
            match slot_of.entry(record.0.sender) {
                Entry::Occupied(slot) => followers.push((index, *slot.get())),
                Entry::Vacant(slot) => {
                    slot.insert(firsts.len());
                    firsts.push(index);
                }
            }
        }
        let mut verdicts: Vec<Result<(), ChainError>> = vec![Ok(()); records.len()];
        let established = recover_into(records, &firsts, &mut verdicts);
        // The keys the followers are checked against, and each slot's
        // index among them once one of its followers needs it.
        let mut keys = Vec::new();
        let mut key_of: Vec<Option<usize>> = vec![None; established.len()];
        let mut items: Vec<(Digest, Signature, usize)> = Vec::new();
        let mut batched = Vec::new();
        let mut rest = Vec::new();
        for (index, slot) in followers {
            let Some(q) = established[slot] else {
                rest.push(index);
                continue;
            };
            let k = *key_of[slot].get_or_insert_with(|| {
                keys.push(q);
                keys.len() - 1
            });
            let record = records[index];
            items.push((record.signing_digest(), record.0.signature, k));
            batched.push(index);
        }
        if !(known_sender_batch_pays(items.len(), keys.len())
            && ecdsa::verify_batch_known(&keys, &items))
        {
            rest.extend(batched);
        }
        recover_into(records, &rest, &mut verdicts);
        verdicts
    }

    /// Canonical encoding, as an owned buffer.
    ///
    /// Prefer the borrowing [`Record::encoded`] on hot paths to avoid the
    /// copy.
    pub fn encode(&self) -> Vec<u8> {
        self.0.encoded.to_vec()
    }

    /// The canonical encoding: built once by [`Record::signed`], or
    /// adopted verbatim from the wire bytes by [`Record::decode`].
    pub fn encoded(&self) -> &[u8] {
        &self.0.encoded
    }

    /// Decodes a canonical encoding into a fresh body with empty memos.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] for malformed bytes or an invalid
    /// signature structure.
    pub fn decode(bytes: &[u8]) -> Result<Record, ChainError> {
        let mut dec = Decoder::new(bytes);
        let kind = RecordKind::from_tag(dec.take_u8()?)?;
        let sender = Address::from_bytes(dec.take_array::<20>()?);
        dec.take_bytes()?; // the payload stays where it is, in `bytes`
        let fee = Ether::from_wei(dec.take_u128()?);
        let nonce = dec.take_u64()?;
        let sig_bytes = dec.take_array::<SIGNATURE_LEN>()?;
        dec.expect_end()?;
        let signature = Signature::from_bytes(&sig_bytes).map_err(|e| ChainError::Codec {
            detail: format!("bad signature: {e}"),
        })?;
        // The decoder consumed every byte and each field round-trips
        // exactly (Signature::from_bytes validates without normalizing),
        // so the input *is* the canonical encoding.
        Ok(Record(Arc::new(RecordBody {
            encoded: bytes.into(),
            kind,
            sender,
            fee,
            nonce,
            signature,
            id: OnceLock::new(),
            merkle_leaf: OnceLock::new(),
        })))
    }
}

/// Whether one [`ecdsa::verify_batch_known`] over `followers` records
/// signed by `keys` distinct, established keys costs less than recovering
/// each of them.
///
/// Measured on the 2-core Xeon sandbox (release, one thread, best of
/// seven): a recovery inside a `recover_batch` of 64 costs ≈ 53 µs. The
/// batch costs ≈ 28 µs whatever its size (the 129 shared doublings, the
/// generator's digits and the weight seed), ≈ 17 µs per key (its two
/// tables and two digit strings) and ≈ 13 µs per record (lifting `R`,
/// its table, its ≈ 22 additions, its scalars and weight). So a lone
/// follower is recovered, and from two followers on the batch pays. A
/// batch that fails is paid on top of the recoveries that follow it: the
/// price of a forged follower, not of an honest burst.
const fn known_sender_batch_pays(followers: usize, keys: usize) -> bool {
    const RECOVER_US: usize = 53;
    const BATCH_US: usize = 28;
    const PER_KEY_US: usize = 17;
    const PER_RECORD_US: usize = 13;
    followers * RECOVER_US > BATCH_US + keys * PER_KEY_US + followers * PER_RECORD_US
}

/// Recovers the records at `indices` in one [`ecdsa::recover_batch`],
/// writes each verdict, and returns the key each recovered to when that
/// key is its declared sender's.
fn recover_into(
    records: &[&Record],
    indices: &[usize],
    verdicts: &mut [Result<(), ChainError>],
) -> Vec<Option<Point>> {
    if indices.is_empty() {
        return Vec::new();
    }
    let signed: Vec<(Digest, Signature)> = indices
        .iter()
        .map(|&index| (records[index].signing_digest(), records[index].0.signature))
        .collect();
    let keys = ecdsa::recover_batch(&signed);
    let check = |record: &Record, key: Result<Point, CryptoError>| {
        let pk = key
            .and_then(PublicKey::from_point)
            .map_err(|e| ChainError::RecordRejected {
                reason: format!("signature recovery failed: {e}"),
            })?;
        if pk.address() != record.0.sender {
            return Err(ChainError::RecordRejected {
                reason: format!(
                    "signature recovers to {} but record claims sender {}",
                    pk.address(),
                    record.0.sender
                ),
            });
        }
        Ok(pk.point())
    };
    indices
        .iter()
        .zip(keys)
        .map(|(&index, key)| {
            let verdict = check(records[index], key);
            let established = verdict.as_ref().ok().copied();
            verdicts[index] = verdict.map(|_| ());
            established
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (KeyPair, Record) {
        let kp = KeyPair::from_seed(b"detector-7");
        let r = Record::signed(
            RecordKind::InitialReport,
            b"initial report payload".to_vec(),
            Ether::from_milliether(11),
            0,
            &kp,
        );
        (kp, r)
    }

    #[test]
    fn signature_verifies() {
        let (_, r) = sample();
        assert!(r.verify_signature().is_ok());
    }

    #[test]
    fn tampered_payload_rejected() {
        let (_, r) = sample();
        let mut bytes = r.encode();
        // Flip a byte inside the payload region.
        let payload_start = 1 + 20 + 8;
        bytes[payload_start + 2] ^= 0xff;
        let tampered = Record::decode(&bytes).unwrap();
        assert!(tampered.verify_signature().is_err());
    }

    #[test]
    fn forged_sender_rejected() {
        // An attacker re-labels the record with a victim address.
        let (_, r) = sample();
        let mut bytes = r.encode();
        let victim = Address::from_label("victim");
        bytes[1..21].copy_from_slice(victim.as_bytes());
        let forged = Record::decode(&bytes).unwrap();
        let err = forged.verify_signature().unwrap_err();
        assert!(matches!(err, ChainError::RecordRejected { .. }));
    }

    #[test]
    fn verify_signatures_matches_one_at_a_time() {
        let (_, good) = sample();
        let with = |at: usize, bytes: &[u8]| {
            let mut encoded = good.encode();
            encoded[at..at + bytes.len()].copy_from_slice(bytes);
            Record::decode(&encoded).unwrap()
        };
        let tampered = with(PAYLOAD_OFFSET + 2, b"X");
        let forged = with(1, Address::from_label("victim").as_bytes());
        // r = 2²⁵⁵ with recovery id 2 names x = r + n ≥ 2²⁵⁶: no R.
        let mut sig = [0u8; SIGNATURE_LEN];
        sig[0] = 0x80;
        sig[63] = 1;
        sig[64] = 2;
        let unrecoverable = with(good.encoded().len() - SIGNATURE_LEN, &sig);
        let burst = [&good, &tampered, &unrecoverable, &forged, &good];
        let one_at_a_time: Vec<_> = burst.iter().map(|r| r.verify_signature()).collect();
        assert_eq!(Record::verify_signatures(&burst), one_at_a_time);
        assert!(Record::verify_signatures(&[]).is_empty());
        let reason = |index: usize| match &one_at_a_time[index] {
            Err(ChainError::RecordRejected { reason }) => reason.clone(),
            other => panic!("record {index}: {other:?}"),
        };
        assert!(one_at_a_time[0].is_ok() && one_at_a_time[4].is_ok());
        for index in [1, 3] {
            assert!(reason(index).starts_with("signature recovers to "));
        }
        assert_eq!(
            reason(2),
            "signature recovery failed: structurally invalid ECDSA signature"
        );

        // Repeated senders: the first record of each is recovered and the
        // rest are checked against the key it established. `a` has a good
        // first record, a good follower, a forged follower (signed by `c`
        // and re-labelled) and a wrong-parity follower; `b`'s first record
        // is tampered, so its good follower has no key to be checked
        // against and is recovered.
        let (a, b, c) = (
            KeyPair::from_seed(b"sender-a"),
            KeyPair::from_seed(b"sender-b"),
            KeyPair::from_seed(b"sender-c"),
        );
        let from = |kp: &KeyPair, nonce: u64| {
            Record::signed(
                RecordKind::Transfer,
                vec![nonce as u8; 5],
                Ether::ZERO,
                nonce,
                kp,
            )
        };
        let rewrite = |record: &Record, at: usize, bytes: &[u8]| {
            let mut encoded = record.encode();
            encoded[at..at + bytes.len()].copy_from_slice(bytes);
            Record::decode(&encoded).unwrap()
        };
        let a_follower = from(&a, 1);
        let a_forged = rewrite(&from(&c, 2), 1, a.address().as_bytes());
        let flipped = from(&a, 3);
        let v_at = flipped.encoded().len() - 1;
        let a_wrong_parity = rewrite(&flipped, v_at, &[flipped.signature().recovery_id() ^ 1]);
        let b_bad_first = rewrite(&from(&b, 0), PAYLOAD_OFFSET, b"X");
        let b_follower = from(&b, 1);
        let (a_first, a_more) = (from(&a, 0), from(&a, 4));
        let repeated = [
            &a_first,
            &b_bad_first,
            &a_follower,
            &a_forged,
            &b_follower,
            &a_wrong_parity,
            &a_more,
            &b_follower,
        ];
        let one_at_a_time: Vec<_> = repeated.iter().map(|r| r.verify_signature()).collect();
        assert_eq!(Record::verify_signatures(&repeated), one_at_a_time);
        let bad = [1, 3, 5];
        for (index, verdict) in one_at_a_time.iter().enumerate() {
            assert_eq!(verdict.is_err(), bad.contains(&index), "record {index}");
        }
        // And an honest burst of repeat senders, whose followers all pass
        // in one batch.
        let honest: Vec<Record> = (0..12).map(|i| from([&a, &b][i % 2], i as u64)).collect();
        let honest: Vec<&Record> = honest.iter().collect();
        assert!(known_sender_batch_pays(10, 2));
        assert!(Record::verify_signatures(&honest).iter().all(Result::is_ok));
    }

    #[test]
    fn known_sender_batch_pays_from_two_followers() {
        assert!(!known_sender_batch_pays(0, 0));
        assert!(!known_sender_batch_pays(1, 1));
        assert!(known_sender_batch_pays(2, 1));
        assert!(known_sender_batch_pays(2, 2));
        assert!(known_sender_batch_pays(60, 4));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (_, r) = sample();
        let decoded = Record::decode(&r.encode()).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.id(), r.id());
    }

    #[test]
    fn memoized_encoding_and_id_are_stable() {
        let (_, r) = sample();
        // A clone taken before either digest exists is the same body…
        let clone = r.clone();
        assert!(Arc::ptr_eq(&r.0, &clone.0));
        assert!(clone.merkle_leaf_is_cold());
        let (id, leaf) = (r.id(), r.merkle_leaf());
        // …so it reads what the original computed.
        assert!(!clone.merkle_leaf_is_cold());
        assert_eq!(clone.0.id.get(), Some(&id));
        assert_eq!((clone.id(), clone.merkle_leaf()), (id, leaf));
        assert_eq!(clone.encoded(), r.encoded());
        // A decode of the same bytes is a fresh body with empty memos
        // that hashes to the same digests.
        let decoded = Record::decode(r.encoded()).unwrap();
        assert!(!Arc::ptr_eq(&r.0, &decoded.0));
        assert!(decoded.0.id.get().is_none() && decoded.merkle_leaf_is_cold());
        assert_eq!(decoded, r);
        assert_eq!((decoded.id(), decoded.merkle_leaf()), (id, leaf));
        assert_eq!(leaf, leaf_hash(&r.encode()));
    }

    #[test]
    fn payload_is_a_range_of_the_encoding() {
        let kp = KeyPair::from_seed(b"sizes");
        for len in [0usize, 1, 255, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let r = Record::signed(RecordKind::Transfer, payload.clone(), Ether::ZERO, 7, &kp);
            assert_eq!(r.payload(), payload);
            assert_eq!(r.encoded().len(), PAYLOAD_OFFSET + len + TRAILER_LEN);
            assert!(r.verify_signature().is_ok());
            let decoded = Record::decode(r.encoded()).unwrap();
            assert_eq!(decoded.payload(), payload);
            assert!(decoded.verify_signature().is_ok());
        }
    }

    #[test]
    fn decode_adopts_input_as_canonical_encoding() {
        let (_, r) = sample();
        let bytes = r.encode();
        let decoded = Record::decode(&bytes).unwrap();
        // The wire bytes were adopted verbatim as the memoized encoding —
        // and they must equal what a from-scratch serialization produces.
        assert_eq!(decoded.encoded(), bytes.as_slice());
        assert_eq!(decoded.encode(), bytes);
        assert_eq!(decoded.id(), r.id());
    }

    #[test]
    fn distinct_nonces_distinct_ids() {
        let kp = KeyPair::from_seed(b"d");
        let a = Record::signed(RecordKind::Transfer, vec![], Ether::ZERO, 0, &kp);
        let b = Record::signed(RecordKind::Transfer, vec![], Ether::ZERO, 1, &kp);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn kind_tags_roundtrip() {
        for k in RecordKind::ALL {
            assert_eq!(RecordKind::from_tag(k as u8).unwrap(), k);
        }
        assert!(RecordKind::from_tag(99).is_err());
    }

    #[test]
    fn retired_contract_kind_tags_do_not_decode() {
        // Tags 4 and 5 named contract-deploy / contract-call kinds that
        // nothing produced or consumed; a record carrying one is garbage.
        let (_, r) = sample();
        for tag in [4u8, 5] {
            let mut bytes = r.encode();
            bytes[0] = tag;
            assert!(matches!(
                Record::decode(&bytes),
                Err(ChainError::Codec { detail }) if detail == format!("unknown record kind {tag}")
            ));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Record::decode(&[]).is_err());
        assert!(Record::decode(&[0xff; 40]).is_err());
    }
}
