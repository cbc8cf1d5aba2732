//! Synthetic IoT systems (firmware/app images).
//!
//! An [`IoTSystem`] is what an SRA announces: a name `U_n`, version `U_v`,
//! image hash `U_h` and a download channel `U_l` (Eq. 1 — here the image
//! itself stands in for the download link). Vulnerability signatures are
//! *physically embedded* in the image bytes, so scanners genuinely search
//! rather than sample, and `AutoVerif` can re-check any claim against the
//! artifact.

use crate::error::DetectError;
use crate::library::VulnLibrary;
use crate::vulnerability::VulnId;
use smartcrowd_chain::rng::SimRng;
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::Digest;

/// A released IoT system image.
///
/// # Example
///
/// ```
/// use smartcrowd_detect::{IoTSystem, VulnLibrary};
/// use smartcrowd_chain::rng::SimRng;
///
/// let lib = VulnLibrary::synthetic(50, 1);
/// let mut rng = SimRng::seed_from_u64(2);
/// let vulns = lib.sample_ids(3, &mut rng).unwrap();
/// let sys = IoTSystem::build("cam-fw", "1.0.3", &lib, vulns.clone(), &mut rng).unwrap();
/// assert!(sys.verify_image());
/// assert_eq!(sys.ground_truth(), &vulns[..]);
/// ```
#[derive(Debug, Clone)]
pub struct IoTSystem {
    name: String,
    version: String,
    image: Vec<u8>,
    image_hash: Digest,
    ground_truth: Vec<VulnId>,
}

/// Size of the benign filler around planted signatures.
const BASE_IMAGE_LEN: usize = 4096;

impl IoTSystem {
    /// Builds a system whose image embeds the signatures of
    /// `vulnerabilities` at seeded offsets.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::UnknownVulnerability`] when an id is not in
    /// `library`.
    pub fn build(
        name: &str,
        version: &str,
        library: &VulnLibrary,
        vulnerabilities: Vec<VulnId>,
        rng: &mut SimRng,
    ) -> Result<IoTSystem, DetectError> {
        // Benign filler: deterministic pseudo-random bytes.
        let mut image = vec![0u8; BASE_IMAGE_LEN + 64 * vulnerabilities.len()];
        for chunk in image.chunks_mut(8) {
            let w = rng.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&w[..n]);
        }
        // Plant each signature at a non-overlapping seeded offset.
        let slots = image.len() / 8;
        let mut used = std::collections::HashSet::new();
        for id in &vulnerabilities {
            let vuln = library.require(*id)?;
            let mut slot = rng.next_below(slots as u64) as usize;
            while !used.insert(slot) {
                slot = (slot + 1) % slots;
            }
            let offset = slot * 8;
            image[offset..offset + 8].copy_from_slice(&vuln.signature());
        }
        let image_hash = keccak256(&image);
        Ok(IoTSystem {
            name: name.to_string(),
            version: version.to_string(),
            image,
            image_hash,
            ground_truth: vulnerabilities,
        })
    }

    /// Reconstructs an artifact view from downloaded raw bytes (a node
    /// that fetched the image via `U_l` holds no ground truth — signature
    /// containment and `U_h` verification still work over the bytes).
    pub fn from_parts(name: &str, version: &str, image: Vec<u8>) -> IoTSystem {
        let image_hash = keccak256(&image);
        IoTSystem {
            name: name.to_string(),
            version: version.to_string(),
            image,
            image_hash,
            ground_truth: Vec::new(),
        }
    }

    /// The system name (`U_n`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The version string (`U_v`).
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The raw image bytes (what `U_l` points at).
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// The announced image hash (`U_h`).
    pub fn image_hash(&self) -> &Digest {
        &self.image_hash
    }

    /// Re-hashes the image and compares against `U_h` — the integrity check
    /// every receiving provider performs on an SRA (§V-A).
    pub fn verify_image(&self) -> bool {
        keccak256(&self.image) == self.image_hash
    }

    /// Ground-truth planted vulnerabilities (known to the generator and to
    /// `AutoVerif`, never revealed to scanners).
    pub fn ground_truth(&self) -> &[VulnId] {
        &self.ground_truth
    }

    /// Whether the image contains a given vulnerability's signature —
    /// a real byte search, used by both scanners and `AutoVerif`.
    pub fn contains_signature(&self, signature: &[u8; 8]) -> bool {
        self.image.windows(8).any(|w| w == signature)
    }

    /// Returns a tampered copy (repackaged by a malicious marketplace,
    /// §III-A): same announced hash, different bytes.
    pub fn repackaged_with(&self, library: &VulnLibrary, malware: VulnId) -> IoTSystem {
        let mut copy = self.clone();
        if let Ok(vuln) = library.require(malware) {
            let sig = vuln.signature();
            let len = copy.image.len();
            copy.image[len - 8..].copy_from_slice(&sig);
            copy.ground_truth.push(malware);
            // The announced hash is left stale — integrity checking must
            // catch this.
        }
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VulnLibrary, SimRng) {
        (VulnLibrary::synthetic(100, 1), SimRng::seed_from_u64(2))
    }

    #[test]
    fn build_embeds_all_signatures() {
        let (lib, mut rng) = setup();
        let vulns = lib.sample_ids(10, &mut rng).unwrap();
        let sys = IoTSystem::build("fw", "1.0", &lib, vulns.clone(), &mut rng).unwrap();
        for id in &vulns {
            let sig = lib.get(*id).unwrap().signature();
            assert!(sys.contains_signature(&sig), "{id} signature missing");
        }
    }

    #[test]
    fn absent_signatures_not_found() {
        let (lib, mut rng) = setup();
        let sys = IoTSystem::build("fw", "1.0", &lib, vec![VulnId(1)], &mut rng).unwrap();
        // Check a handful of unplanted ids.
        let mut false_hits = 0;
        for id in 2..50u64 {
            let sig = lib.get(VulnId(id)).unwrap().signature();
            if sys.contains_signature(&sig) {
                false_hits += 1;
            }
        }
        assert_eq!(false_hits, 0, "no accidental 64-bit collisions expected");
    }

    #[test]
    fn clean_system_has_no_signatures() {
        let (lib, mut rng) = setup();
        let sys = IoTSystem::build("fw", "1.0", &lib, vec![], &mut rng).unwrap();
        assert!(sys.ground_truth().is_empty());
        assert!(sys.verify_image());
    }

    #[test]
    fn image_hash_detects_tampering() {
        let (lib, mut rng) = setup();
        let sys = IoTSystem::build("fw", "1.0", &lib, vec![VulnId(1)], &mut rng).unwrap();
        assert!(sys.verify_image());
        let repackaged = sys.repackaged_with(&lib, VulnId(50));
        assert!(!repackaged.verify_image(), "repackaging must break U_h");
        assert!(repackaged.contains_signature(&lib.get(VulnId(50)).unwrap().signature()));
    }

    #[test]
    fn unknown_vuln_rejected() {
        let (lib, mut rng) = setup();
        let err = IoTSystem::build("fw", "1.0", &lib, vec![VulnId(9999)], &mut rng).unwrap_err();
        assert_eq!(err, DetectError::UnknownVulnerability { id: 9999 });
    }

    #[test]
    fn builds_are_seed_deterministic() {
        let lib = VulnLibrary::synthetic(100, 1);
        let mut r1 = SimRng::seed_from_u64(9);
        let mut r2 = SimRng::seed_from_u64(9);
        let a = IoTSystem::build("fw", "1.0", &lib, vec![VulnId(5)], &mut r1).unwrap();
        let b = IoTSystem::build("fw", "1.0", &lib, vec![VulnId(5)], &mut r2).unwrap();
        assert_eq!(a.image_hash(), b.image_hash());
    }
}
