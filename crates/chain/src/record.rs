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
use smartcrowd_crypto::ecdsa::{self, Group, Signature};
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::keys::{KeyPair, PublicKey};
use smartcrowd_crypto::merkle::leaf_hash;
use smartcrowd_crypto::point::Point;
use smartcrowd_crypto::{Address, CryptoError, Digest, DigestMap};
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

/// A signature a record's payload carries, made by the record's own
/// sender: the digest it signs and the signature, borrowed from the
/// decoded payload. It is checked in the sender's pass
/// ([`crate::sigcache::verify_claimed`]); PROTOCOL.md §4.3 states the
/// rule.
pub type Claim<'a> = (&'a Digest, &'a Signature);

/// A `(digest, signature)` member of an [`ecdsa::recover_groups`] group.
type Member = (Digest, Signature);

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

    /// Verifies that the signature recovers to the declared sender.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::RecordRejected`] when recovery fails or the
    /// recovered address differs from [`Record::sender`].
    pub fn verify_signature(&self) -> Result<(), ChainError> {
        Record::verify_signatures(&[(self, None)])
            .remove(0)
            .map(|_| ())
    }

    /// [`Record::verify_signature`] of every record, index-aligned: the
    /// same verdict and reason string per record, `Ok(true)` when the
    /// record's [`Claim`] was checked with it and holds, `Ok(false)` when
    /// it carried none or the claim is still to be checked.
    ///
    /// The records are grouped by sender, and each sender's records and
    /// claims are one [`ecdsa::recover_groups`] group (why one pass may
    /// stand for one recovery per member is on that function), all groups
    /// in one call. A group whose key has its sender's address vouches
    /// for every record and claim in it. A group of one record is that
    /// record's recovery, so its failure is named already; a larger group
    /// that fails is run again as one group per record, without the
    /// claims, so each failure is named exactly as one recovery would name
    /// it, a bad member spoils only its own sender's group, and the claims
    /// of that group go unvouched, back to their owner's own check.
    pub(crate) fn verify_signatures(
        items: &[(&Record, Option<Claim<'_>>)],
    ) -> Vec<Result<bool, ChainError>> {
        // Each record's own signature as a member of its sender's group.
        let own: Vec<Member> = items
            .iter()
            .map(|(record, _)| (record.signing_digest(), record.0.signature))
            .collect();
        // Per sender, in order of first appearance: its members, and the
        // index of each of its records.
        let mut slot_of: DigestMap<Address, usize> = DigestMap::default();
        let mut senders: Vec<(Address, Vec<Member>, Vec<usize>)> = Vec::new();
        for (index, (record, claim)) in items.iter().enumerate() {
            let sender = record.0.sender;
            let slot = *slot_of.entry(sender).or_insert_with(|| {
                senders.push((sender, Vec::new(), Vec::new()));
                senders.len() - 1
            });
            let (_, members, owned) = &mut senders[slot];
            members.push(own[index]);
            members.extend(claim.map(|(digest, signature)| (*digest, *signature)));
            owned.push(index);
        }
        let groups: Vec<Group<'_>> = senders
            .iter()
            .map(|(sender, members, _)| (*sender, members.as_slice()))
            .collect();
        let mut verdicts: Vec<Result<bool, ChainError>> = vec![Ok(false); items.len()];
        // The records of failed groups of several, each run again alone.
        let mut alone: Vec<usize> = Vec::new();
        for ((sender, members, owned), key) in senders.iter().zip(ecdsa::recover_groups(&groups)) {
            let verdict = signed_by(key, *sender);
            if verdict.is_err() && members.len() > 1 {
                alone.extend(owned);
                continue;
            }
            for &index in owned {
                verdicts[index] = verdict.clone().map(|()| items[index].1.is_some());
            }
        }
        let sender = |index: usize| items[index].0.sender();
        let singles: Vec<Group<'_>> = alone
            .iter()
            .map(|&index| (sender(index), std::slice::from_ref(&own[index])))
            .collect();
        for (&index, key) in alone.iter().zip(ecdsa::recover_groups(&singles)) {
            verdicts[index] = signed_by(key, sender(index)).map(|()| false);
        }
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

/// The verdict on a record whose signature group recovered `key`: the
/// reason strings one recovery names.
fn signed_by(key: Result<Point, CryptoError>, sender: Address) -> Result<(), ChainError> {
    let pk = key
        .and_then(PublicKey::from_point)
        .map_err(|e| ChainError::RecordRejected {
            reason: format!("signature recovery failed: {e}"),
        })?;
    if pk.address() != sender {
        return Err(ChainError::RecordRejected {
            reason: format!(
                "signature recovers to {} but record claims sender {}",
                pk.address(),
                sender
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
impl Record {
    /// The leaf memo cell itself, for block tests that pin which bodies
    /// start with it empty.
    pub(crate) fn merkle_leaf_memo(&self) -> &OnceLock<Digest> {
        &self.0.merkle_leaf
    }
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

    /// [`Record::verify_signatures`] of records without claims, as the
    /// verdicts [`Record::verify_signature`] gives.
    fn verify_unclaimed(records: &[&Record]) -> Vec<Result<(), ChainError>> {
        let items: Vec<_> = records.iter().map(|r| (*r, None)).collect();
        let verdicts = Record::verify_signatures(&items);
        assert!(
            verdicts.iter().all(|v| v != &Ok(true)),
            "no claim to vouch for"
        );
        verdicts.into_iter().map(|v| v.map(|_| ())).collect()
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
        assert_eq!(verify_unclaimed(&burst), one_at_a_time);
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

        // Repeated senders: each sender's records are one group. `a` has a
        // good first record, a good follower, a forged follower (signed by
        // `c` and re-labelled) and a wrong-parity follower; `b`'s first
        // record is tampered. Both groups fail and are run again record by
        // record, so each bad record is named and each good one passes.
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
        assert_eq!(verify_unclaimed(&repeated), one_at_a_time);
        let bad = [1, 3, 5];
        for (index, verdict) in one_at_a_time.iter().enumerate() {
            assert_eq!(verdict.is_err(), bad.contains(&index), "record {index}");
        }
        // And an honest burst of repeat senders: two groups, both pass.
        let honest: Vec<Record> = (0..12).map(|i| from([&a, &b][i % 2], i as u64)).collect();
        let honest: Vec<&Record> = honest.iter().collect();
        assert!(verify_unclaimed(&honest).iter().all(Result::is_ok));
    }

    #[test]
    fn a_claim_is_vouched_only_beside_its_senders_good_records() {
        let (a, b) = (
            KeyPair::from_seed(b"sender-a"),
            KeyPair::from_seed(b"sender-b"),
        );
        let record = |kp: &KeyPair, nonce: u64| {
            Record::signed(
                RecordKind::Sra,
                vec![nonce as u8; 3],
                Ether::ZERO,
                nonce,
                kp,
            )
        };
        let inner = keccak256(b"payload id");
        fn claim(member: &Member) -> Option<Claim<'_>> {
            Some((&member.0, &member.1))
        }
        let by_a: Member = (inner, a.sign(&inner));
        let by_b: Member = (inner, b.sign(&inner));
        let flipped = {
            let mut bytes = by_a.1.to_bytes();
            bytes[64] ^= 1;
            (inner, Signature::from_bytes(&bytes).unwrap())
        };
        let elsewhere = (keccak256(b"another id"), by_a.1);
        let (a0, a1, b0) = (record(&a, 0), record(&a, 1), record(&b, 0));
        let forged = {
            let mut encoded = record(&b, 2).encode();
            encoded[1..21].copy_from_slice(a.address().as_bytes());
            Record::decode(&encoded).unwrap()
        };
        // A good claim beside good records of its signer is vouched for,
        // alone or among the sender's other records and another sender.
        let good = [(&a0, claim(&by_a)), (&b0, None), (&a1, claim(&by_a))];
        assert_eq!(
            Record::verify_signatures(&good),
            [Ok(true), Ok(false), Ok(true)]
        );
        assert_eq!(Record::verify_signatures(&good[..1]), [Ok(true)]);
        // A claim by another key, with the other R, or over another digest
        // is not; its record keeps the verdict it has alone, and so does
        // every record of the group it spoiled. Another sender's group is
        // not touched.
        for bad in [&by_b, &flipped, &elsewhere] {
            let items = [(&a0, claim(bad)), (&b0, claim(&by_b)), (&a1, claim(&by_a))];
            assert_eq!(
                Record::verify_signatures(&items),
                [Ok(false), Ok(true), Ok(false)]
            );
        }
        // A forged record fails by the reason it has alone, whatever its
        // claim, and its good neighbour from the same sender passes.
        let items = [(&forged, claim(&by_a)), (&a0, claim(&by_a))];
        let verdicts = Record::verify_signatures(&items);
        assert_eq!(verdicts[0], forged.verify_signature().map(|()| false));
        assert!(verdicts[0].is_err());
        assert_eq!(verdicts[1], Ok(false));
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
        assert!(clone.0.merkle_leaf.get().is_none());
        let (id, leaf) = (r.id(), r.merkle_leaf());
        // …so it reads what the original computed.
        assert!(clone.0.merkle_leaf.get().is_some());
        assert_eq!(clone.0.id.get(), Some(&id));
        assert_eq!((clone.id(), clone.merkle_leaf()), (id, leaf));
        assert_eq!(clone.encoded(), r.encoded());
        // A decode of the same bytes is a fresh body with empty memos
        // that hashes to the same digests.
        let decoded = Record::decode(r.encoded()).unwrap();
        assert!(!Arc::ptr_eq(&r.0, &decoded.0));
        assert!(decoded.0.id.get().is_none() && decoded.0.merkle_leaf.get().is_none());
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
