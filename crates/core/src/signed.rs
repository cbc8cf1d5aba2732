//! The signed-payload envelope the SRA, `R†` and `R*` share (PROTOCOL.md
//! §3–§4).
//!
//! The paper states one procedure three times — `Δ_id`/`P_Sign` for the
//! SRA (§V-A), `ID†`/`D†_Sign` and `ID*`/`D*_Sign` in Algorithm 1 (§V-C):
//! the id is the Keccak of the payload's canonical preimage, the signature
//! is the signer's over that id, and a receiver recomputes the one and
//! recovers the other. [`Signed`] is that procedure, written once; a
//! [`Body`] gives it what differs between the three formats.
//!
//! ```text
//! wire := preimage ‖ id[32] ‖ sig[65]        (R*: bytes(preimage))
//! id   = keccak256(preimage)
//! sig  = ECDSA_sign(sk_signer, id)
//! ```

use crate::error::CoreError;
use smartcrowd_chain::codec::{Decoder, Encoder};
use smartcrowd_chain::record::Claim;
use smartcrowd_chain::ChainError;
use smartcrowd_crypto::ecdsa::Signature;
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::keys::{recover_public_key, KeyPair};
use smartcrowd_crypto::{Address, Digest};
use std::ops::Deref;

/// What one signed payload format adds to the envelope: its fields, its
/// signer, and the errors its integrity and authenticity checks raise.
pub trait Body: Sized {
    /// The id is not the Keccak of the preimage: a field was altered.
    const ID_MISMATCH: CoreError;
    /// The signature does not recover to [`Body::signer`].
    const BAD_SIGNATURE: CoreError;
    /// Whether the preimage goes on the wire length-prefixed (`R*`).
    const PREFIXED: bool = false;

    /// Whose signature the payload must carry.
    fn signer(&self) -> Address;

    /// Writes the canonical preimage of the id.
    fn encode_fields(&self, enc: &mut Encoder);

    /// Reads what [`Body::encode_fields`] wrote.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] for malformed bytes.
    fn decode_fields(dec: &mut Decoder<'_>) -> Result<Self, ChainError>;
}

/// A body, the Keccak id of its preimage, and its signer's signature over
/// that id. Reads through to the body's accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signed<B> {
    pub(crate) body: B,
    pub(crate) id: Digest,
    pub(crate) signature: Signature,
}

impl<B> Deref for Signed<B> {
    type Target = B;

    fn deref(&self) -> &B {
        &self.body
    }
}

fn preimage(body: &impl Body) -> Vec<u8> {
    let mut enc = Encoder::new();
    body.encode_fields(&mut enc);
    enc.finish()
}

impl<B: Body> Signed<B> {
    /// Computes the id of `body` and signs it as `key`.
    pub(crate) fn sign(key: &KeyPair, body: B) -> Self {
        let id = keccak256(&preimage(&body));
        Signed {
            signature: key.sign(&id),
            body,
            id,
        }
    }

    /// The id: Keccak over the body's canonical preimage.
    pub fn id(&self) -> &Digest {
        &self.id
    }

    /// The signer's signature over the id.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The check every receiver runs: recompute the id (integrity), then
    /// recover the signature (authenticity).
    ///
    /// # Errors
    ///
    /// [`Body::ID_MISMATCH`] when any field was altered;
    /// [`Body::BAD_SIGNATURE`] when the signature does not recover to the
    /// body's signer — a payload framing another identity.
    pub fn verify(&self) -> Result<(), CoreError> {
        self.verify_vouched(false)
    }

    /// [`Signed::verify`], without recovering the signature when
    /// `vouched`: it was checked in its record sender's pass (PROTOCOL.md
    /// §4.3).
    pub(crate) fn verify_vouched(&self, vouched: bool) -> Result<(), CoreError> {
        if keccak256(&preimage(&self.body)) != self.id {
            return Err(B::ID_MISMATCH);
        }
        if vouched {
            return Ok(());
        }
        match recover_public_key(&self.id, &self.signature) {
            Ok(key) if key.address() == self.body.signer() => Ok(()),
            _ => Err(B::BAD_SIGNATURE),
        }
    }

    /// The signature as a claim of the signer's: who signed, and what.
    pub(crate) fn claim(&self) -> (Address, Claim<'_>) {
        (self.body.signer(), (&self.id, &self.signature))
    }

    /// Canonical payload for a chain record.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        if B::PREFIXED {
            enc.put_bytes(&preimage(&self.body));
        } else {
            self.body.encode_fields(&mut enc);
        }
        enc.put_array(&self.id)
            .put_array(&self.signature.to_bytes());
        enc.finish()
    }

    /// Decodes a chain-record payload: exactly the bytes
    /// [`Signed::encode`] writes, or an error.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Payload`] for malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut dec = Decoder::new(bytes);
        let mut inner = || -> Result<Self, ChainError> {
            let body = if B::PREFIXED {
                let mut fields = Decoder::new(dec.take_bytes()?);
                let body = B::decode_fields(&mut fields)?;
                fields.expect_end()?;
                body
            } else {
                B::decode_fields(&mut dec)?
            };
            let id = dec.take_array::<32>()?;
            let signature = dec.take_array::<65>()?;
            dec.expect_end()?;
            let signature = Signature::from_bytes(&signature).map_err(|e| ChainError::Codec {
                detail: format!("bad signature: {e}"),
            })?;
            Ok(Signed {
                body,
                id,
                signature,
            })
        };
        inner().map_err(|e| CoreError::Payload {
            detail: e.to_string(),
        })
    }
}
