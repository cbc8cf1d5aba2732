//! The insuranced System Release Announcement `Δ` (Eq. 1–2, §V-A).
//!
//! ```text
//! Δ = {Δ_id, P_i, U_n, U_v, U_h, U_l, I_i, P_Sign}
//! Δ_id = H(P_i ‖ U_n ‖ U_v ‖ U_h ‖ U_l ‖ I_i)
//! P_Sign = Sign_{sk_{P_i}}(Δ_id)
//! ```
//!
//! The insurance `I_i` "will not be refunded once any vulnerability is
//! detected"; the per-vulnerability incentive `μ` is preset in the contract
//! at release time (§V-D). Verification is decentralized: every receiving
//! provider checks `U_h`, `Δ_id` and `P_Sign` before propagating, which
//! "effectively eradicates" counterfeit SRAs.

use crate::error::CoreError;
use crate::verify::signed_by;
use smartcrowd_chain::codec::{Decoder, Encoder};
use smartcrowd_chain::record::Claim;
use smartcrowd_chain::Ether;
use smartcrowd_crypto::ecdsa::Signature;
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::{Address, Digest};
use smartcrowd_detect::system::IoTSystem;

/// An identifier for an SRA (`Δ_id`).
pub type SraId = Digest;

/// A System Release Announcement.
///
/// # Example
///
/// ```
/// use smartcrowd_core::Sra;
/// use smartcrowd_chain::Ether;
/// use smartcrowd_crypto::keys::KeyPair;
///
/// let provider = KeyPair::from_seed(b"vendor");
/// let sra = Sra::create(
///     &provider,
///     "smart-cam-fw",
///     "2.1.0",
///     [7u8; 32],
///     "https://vendor.example/fw/2.1.0",
///     Ether::from_ether(1000),
///     Ether::from_ether(25),
/// );
/// assert!(sra.verify().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sra {
    /// The announcing provider `P_i`.
    provider: Address,
    /// System name `U_n`.
    name: String,
    /// System version `U_v`.
    version: String,
    /// Image hash `U_h`.
    image_hash: Digest,
    /// Download link `U_l`.
    link: String,
    /// Insurance deposit `I_i`.
    insurance: Ether,
    /// Preset per-vulnerability incentive `μ` (§V-D).
    incentive_per_vuln: Ether,
    /// `Δ_id`.
    id: SraId,
    /// `P_Sign`.
    signature: Signature,
}

impl Sra {
    /// Computes `Δ_id` over the announcement fields.
    fn compute_id(
        provider: &Address,
        name: &str,
        version: &str,
        image_hash: &Digest,
        link: &str,
        insurance: Ether,
        incentive_per_vuln: Ether,
    ) -> SraId {
        let mut enc = Encoder::new();
        enc.put_array(provider.as_bytes())
            .put_str(name)
            .put_str(version)
            .put_array(image_hash)
            .put_str(link)
            .put_u128(insurance.wei())
            .put_u128(incentive_per_vuln.wei());
        keccak256(&enc.finish())
    }

    /// Creates and signs an announcement.
    pub fn create(
        provider: &KeyPair,
        name: &str,
        version: &str,
        image_hash: Digest,
        link: &str,
        insurance: Ether,
        incentive_per_vuln: Ether,
    ) -> Sra {
        let addr = provider.address();
        let id = Self::compute_id(
            &addr,
            name,
            version,
            &image_hash,
            link,
            insurance,
            incentive_per_vuln,
        );
        let signature = provider.sign(&id);
        Sra {
            provider: addr,
            name: name.to_string(),
            version: version.to_string(),
            image_hash,
            link: link.to_string(),
            insurance,
            incentive_per_vuln,
            id,
            signature,
        }
    }

    /// Announces `system`, signed by `key`, downloadable at
    /// `sim://{name}/{version}`.
    pub(crate) fn announce(key: &KeyPair, system: &IoTSystem, insurance: Ether, mu: Ether) -> Sra {
        let (name, version, hash) = (system.name(), system.version(), *system.image_hash());
        let link = format!("sim://{name}/{version}");
        Sra::create(key, name, version, hash, &link, insurance, mu)
    }

    /// The announcing provider.
    pub fn provider(&self) -> Address {
        self.provider
    }

    /// System name `U_n`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// System version `U_v`.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Image hash `U_h`.
    pub fn image_hash(&self) -> &Digest {
        &self.image_hash
    }

    /// Download link `U_l`.
    pub fn link(&self) -> &str {
        &self.link
    }

    /// Insurance deposit `I_i`.
    pub fn insurance(&self) -> Ether {
        self.insurance
    }

    /// Preset per-vulnerability incentive `μ`.
    pub fn incentive_per_vuln(&self) -> Ether {
        self.incentive_per_vuln
    }

    /// `Δ_id`.
    pub fn id(&self) -> &SraId {
        &self.id
    }

    /// The provider signature `P_Sign`.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The decentralized verification every receiving provider performs
    /// (§V-A): recompute `Δ_id` (integrity) and recover `P_Sign`
    /// (authenticity).
    ///
    /// # Errors
    ///
    /// - [`CoreError::SraIdMismatch`] when any announced field was altered.
    /// - [`CoreError::SraSignatureInvalid`] when the signature does not
    ///   recover to `P_i` — a spoofed SRA framing another provider.
    pub fn verify(&self) -> Result<(), CoreError> {
        self.verify_vouched(false)
    }

    /// [`Sra::verify`], without recovering `P_Sign` when `vouched`: it was
    /// checked in its record sender's pass (PROTOCOL.md §4.3).
    pub(crate) fn verify_vouched(&self, vouched: bool) -> Result<(), CoreError> {
        let expected = Self::compute_id(
            &self.provider,
            &self.name,
            &self.version,
            &self.image_hash,
            &self.link,
            self.insurance,
            self.incentive_per_vuln,
        );
        if expected != self.id {
            return Err(CoreError::SraIdMismatch);
        }
        if !vouched && !signed_by(&self.id, &self.signature, self.provider) {
            return Err(CoreError::SraSignatureInvalid);
        }
        Ok(())
    }

    /// `P_Sign` as a claim of `P_i`'s: the signer and what it signed.
    pub(crate) fn claim(&self) -> (Address, Claim<'_>) {
        (self.provider, (&self.id, &self.signature))
    }

    /// Checks a downloaded image against the announced `U_h` (the detector
    /// integrity step of §V-B).
    pub(crate) fn image_matches(&self, image: &[u8]) -> bool {
        keccak256(image) == self.image_hash
    }

    /// Canonical payload for embedding in a chain record.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_array(self.provider.as_bytes())
            .put_str(&self.name)
            .put_str(&self.version)
            .put_array(&self.image_hash)
            .put_str(&self.link)
            .put_u128(self.insurance.wei())
            .put_u128(self.incentive_per_vuln.wei())
            .put_array(&self.id)
            .put_array(&self.signature.to_bytes());
        enc.finish()
    }

    /// Decodes a chain-record payload.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Payload`] for malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<Sra, CoreError> {
        let mut dec = Decoder::new(bytes);
        let mut inner = || -> Result<Sra, smartcrowd_chain::ChainError> {
            let provider = Address::from_bytes(dec.take_array::<20>()?);
            let name = dec.take_str()?.to_string();
            let version = dec.take_str()?.to_string();
            let image_hash = dec.take_array::<32>()?;
            let link = dec.take_str()?.to_string();
            let insurance = Ether::from_wei(dec.take_u128()?);
            let incentive_per_vuln = Ether::from_wei(dec.take_u128()?);
            let id = dec.take_array::<32>()?;
            let sig_bytes = dec.take_array::<65>()?;
            dec.expect_end()?;
            let signature = Signature::from_bytes(&sig_bytes).map_err(|e| {
                smartcrowd_chain::ChainError::Codec {
                    detail: format!("bad signature: {e}"),
                }
            })?;
            Ok(Sra {
                provider,
                name,
                version,
                image_hash,
                link,
                insurance,
                incentive_per_vuln,
                id,
                signature,
            })
        };
        inner().map_err(|e| CoreError::Payload {
            detail: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (KeyPair, Sra) {
        let kp = KeyPair::from_seed(b"provider-A");
        let sra = Sra::create(
            &kp,
            "smart-lock-fw",
            "3.2.1",
            [9u8; 32],
            "https://vendor/fw",
            Ether::from_ether(1000),
            Ether::from_ether(25),
        );
        (kp, sra)
    }

    #[test]
    fn valid_sra_verifies() {
        let (_, sra) = sample();
        assert!(sra.verify().is_ok());
    }

    #[test]
    fn field_tamper_breaks_id() {
        let (_, sra) = sample();
        let mut forged = sra.clone();
        forged.insurance = Ether::from_ether(1);
        assert_eq!(forged.verify(), Err(CoreError::SraIdMismatch));
        let mut forged = sra.clone();
        forged.version = "9.9.9".into();
        assert_eq!(forged.verify(), Err(CoreError::SraIdMismatch));
    }

    #[test]
    fn spoofed_provider_detected() {
        // An attacker re-labels the SRA with a victim provider and fixes up
        // the id — the signature still recovers to the attacker.
        let (_, sra) = sample();
        let victim = Address::from_label("victim-vendor");
        let forged_id = Sra::compute_id(
            &victim,
            &sra.name,
            &sra.version,
            &sra.image_hash,
            &sra.link,
            sra.insurance,
            sra.incentive_per_vuln,
        );
        let mut forged = sra.clone();
        forged.provider = victim;
        forged.id = forged_id;
        assert_eq!(forged.verify(), Err(CoreError::SraSignatureInvalid));
    }

    #[test]
    fn image_hash_check() {
        let kp = KeyPair::from_seed(b"p");
        let image = b"firmware image bytes";
        let sra = Sra::create(
            &kp,
            "fw",
            "1",
            keccak256(image),
            "link",
            Ether::from_ether(10),
            Ether::from_ether(1),
        );
        assert!(sra.image_matches(image));
        assert!(!sra.image_matches(b"tampered image"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (_, sra) = sample();
        let decoded = Sra::decode(&sra.encode()).unwrap();
        assert_eq!(decoded, sra);
        assert!(decoded.verify().is_ok());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            Sra::decode(&[1, 2, 3]),
            Err(CoreError::Payload { .. })
        ));
        let (_, sra) = sample();
        let mut bytes = sra.encode();
        bytes.truncate(bytes.len() - 10);
        assert!(Sra::decode(&bytes).is_err());
    }

    #[test]
    fn distinct_releases_distinct_ids() {
        let kp = KeyPair::from_seed(b"p");
        let a = Sra::create(
            &kp,
            "fw",
            "1.0",
            [1; 32],
            "l",
            Ether::from_ether(1),
            Ether::ZERO,
        );
        let b = Sra::create(
            &kp,
            "fw",
            "1.1",
            [1; 32],
            "l",
            Ether::from_ether(1),
            Ether::ZERO,
        );
        assert_ne!(a.id(), b.id());
    }
}
