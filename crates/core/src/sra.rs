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
//! "effectively eradicates" counterfeit SRAs. An [`Sra`] is a [`Signed`]
//! [`SraBody`]: `Δ_id` and `P_Sign` are the envelope's id and signature.

use crate::error::CoreError;
use crate::signed::{Body, Signed};
use smartcrowd_chain::codec::{Decoder, Encoder};
use smartcrowd_chain::{ChainError, Ether};
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::{Address, Digest};
use smartcrowd_detect::system::IoTSystem;

/// An identifier for an SRA (`Δ_id`).
pub type SraId = Digest;

/// A System Release Announcement: its fields, `Δ_id` and `P_Sign`.
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
pub type Sra = Signed<SraBody>;

/// The announced fields of an [`Sra`], the preimage of `Δ_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SraBody {
    /// The announcing provider `P_i`.
    pub(crate) provider: Address,
    /// System name `U_n`.
    pub(crate) name: String,
    /// System version `U_v`.
    pub(crate) version: String,
    /// Image hash `U_h`.
    pub(crate) image_hash: Digest,
    /// Download link `U_l`.
    pub(crate) link: String,
    /// Insurance deposit `I_i`.
    pub(crate) insurance: Ether,
    /// Preset per-vulnerability incentive `μ` (§V-D).
    pub(crate) incentive_per_vuln: Ether,
}

impl Body for SraBody {
    const ID_MISMATCH: CoreError = CoreError::SraIdMismatch;
    const BAD_SIGNATURE: CoreError = CoreError::SraSignatureInvalid;

    fn signer(&self) -> Address {
        self.provider
    }

    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_array(self.provider.as_bytes())
            .put_str(&self.name)
            .put_str(&self.version)
            .put_array(&self.image_hash)
            .put_str(&self.link)
            .put_u128(self.insurance.wei())
            .put_u128(self.incentive_per_vuln.wei());
    }

    fn decode_fields(dec: &mut Decoder<'_>) -> Result<Self, ChainError> {
        Ok(SraBody {
            provider: Address::from_bytes(dec.take_array()?),
            name: dec.take_str()?.to_string(),
            version: dec.take_str()?.to_string(),
            image_hash: dec.take_array()?,
            link: dec.take_str()?.to_string(),
            insurance: Ether::from_wei(dec.take_u128()?),
            incentive_per_vuln: Ether::from_wei(dec.take_u128()?),
        })
    }
}

impl Sra {
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
        let body = SraBody {
            provider: provider.address(),
            name: name.to_string(),
            version: version.to_string(),
            image_hash,
            link: link.to_string(),
            insurance,
            incentive_per_vuln,
        };
        Sra::sign(provider, body)
    }

    /// Announces `system`, signed by `key`, downloadable at
    /// `sim://{name}/{version}`.
    pub(crate) fn announce(key: &KeyPair, system: &IoTSystem, insurance: Ether, mu: Ether) -> Sra {
        let (name, version, hash) = (system.name(), system.version(), *system.image_hash());
        let link = format!("sim://{name}/{version}");
        Sra::create(key, name, version, hash, &link, insurance, mu)
    }
}

impl SraBody {
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

    /// Insurance deposit `I_i`.
    pub fn insurance(&self) -> Ether {
        self.insurance
    }

    /// Preset per-vulnerability incentive `μ`.
    pub fn incentive_per_vuln(&self) -> Ether {
        self.incentive_per_vuln
    }

    /// Checks a downloaded image against the announced `U_h` (the detector
    /// integrity step of §V-B).
    pub(crate) fn image_matches(&self, image: &[u8]) -> bool {
        keccak256(image) == self.image_hash
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
        forged.body.insurance = Ether::from_ether(1);
        assert_eq!(forged.verify(), Err(CoreError::SraIdMismatch));
        let mut forged = sra.clone();
        forged.body.version = "9.9.9".into();
        assert_eq!(forged.verify(), Err(CoreError::SraIdMismatch));
    }

    #[test]
    fn spoofed_provider_detected() {
        // An attacker re-labels the SRA with a victim provider and fixes up
        // the id — the signature still recovers to the attacker.
        let (attacker, sra) = sample();
        let victim = Address::from_label("victim-vendor");
        let relabelled = SraBody {
            provider: victim,
            ..sra.body.clone()
        };
        let mut forged = sra.clone();
        forged.id = *Sra::sign(&attacker, relabelled.clone()).id();
        forged.body = relabelled;
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
