//! The synthetic vulnerability library.
//!
//! Stands in for the CVE/NVD/SecurityFocus databases the paper's §VIII
//! points detectors at. Generation is seeded and deterministic so every
//! experiment can be replayed.

use crate::error::DetectError;
use crate::vulnerability::{Category, Severity, VulnId, Vulnerability};
use smartcrowd_chain::rng::SimRng;
use std::collections::HashMap;

/// A searchable collection of vulnerability entries.
///
/// # Example
///
/// ```
/// use smartcrowd_detect::VulnLibrary;
///
/// let lib = VulnLibrary::synthetic(100, 42);
/// assert_eq!(lib.len(), 100);
/// let entry = lib.entries().next().unwrap();
/// assert!(lib.get(entry.id).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct VulnLibrary {
    entries: HashMap<VulnId, Vulnerability>,
    ordered_ids: Vec<VulnId>,
}

impl VulnLibrary {
    /// Builds a library from explicit entries.
    pub(crate) fn from_entries(entries: Vec<Vulnerability>) -> Self {
        let ordered_ids = entries.iter().map(|v| v.id).collect();
        let entries = entries.into_iter().map(|v| (v.id, v)).collect();
        VulnLibrary {
            entries,
            ordered_ids,
        }
    }

    /// Generates `size` synthetic entries. Severity follows the roughly
    /// pyramid-shaped distribution of real advisories (≈15 % High, 35 %
    /// Medium, 50 % Low, similar to the proportions visible in Table I's
    /// jaq.alibaba row).
    pub fn synthetic(size: usize, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut entries = Vec::with_capacity(size);
        for i in 0..size {
            let roll = rng.next_f64();
            let severity = if roll < 0.15 {
                Severity::High
            } else if roll < 0.50 {
                Severity::Medium
            } else {
                Severity::Low
            };
            let category = Category::ALL[rng.next_below(Category::ALL.len() as u64) as usize];
            let id = VulnId(i as u64 + 1);
            entries.push(Vulnerability {
                id,
                severity,
                category,
                description: format!("{severity}-severity {category:?} flaw ({id})"),
            });
        }
        Self::from_entries(entries)
    }

    /// Publishes a new entry (a freshly disclosed CVE). Returns `false`
    /// without inserting when the id already exists.
    pub fn publish(&mut self, entry: Vulnerability) -> bool {
        if self.entries.contains_key(&entry.id) {
            return false;
        }
        self.ordered_ids.push(entry.id);
        self.entries.insert(entry.id, entry);
        true
    }

    /// The next unused id (for publishing fresh entries).
    pub fn next_id(&self) -> VulnId {
        VulnId(self.ordered_ids.iter().map(|v| v.0).max().unwrap_or(0) + 1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks an entry up.
    pub fn get(&self, id: VulnId) -> Option<&Vulnerability> {
        self.entries.get(&id)
    }

    /// Looks an entry up, erroring when absent.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::UnknownVulnerability`].
    pub(crate) fn require(&self, id: VulnId) -> Result<&Vulnerability, DetectError> {
        self.get(id)
            .ok_or(DetectError::UnknownVulnerability { id: id.0 })
    }

    /// Iterates entries in id order.
    pub fn entries(&self) -> impl Iterator<Item = &Vulnerability> + '_ {
        self.ordered_ids
            .iter()
            .filter_map(move |id| self.entries.get(id))
    }

    /// All ids of a given severity.
    pub fn ids_by_severity(&self, severity: Severity) -> Vec<VulnId> {
        self.entries()
            .filter(|v| v.severity == severity)
            .map(|v| v.id)
            .collect()
    }

    /// Samples `count` distinct ids uniformly (seeded).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::SampleTooLarge`] when `count > len`.
    pub fn sample_ids(&self, count: usize, rng: &mut SimRng) -> Result<Vec<VulnId>, DetectError> {
        if count > self.ordered_ids.len() {
            return Err(DetectError::SampleTooLarge {
                requested: count,
                available: self.ordered_ids.len(),
            });
        }
        // Partial Fisher–Yates over a copy of the id list.
        let mut pool = self.ordered_ids.clone();
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let j = i + rng.next_below((pool.len() - i) as u64) as usize;
            pool.swap(i, j);
            out.push(pool[i]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        let a = VulnLibrary::synthetic(50, 7);
        let b = VulnLibrary::synthetic(50, 7);
        let ids_a: Vec<_> = a.entries().map(|v| (v.id, v.severity)).collect();
        let ids_b: Vec<_> = b.entries().map(|v| (v.id, v.severity)).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn severity_distribution_is_pyramidal() {
        let lib = VulnLibrary::synthetic(10_000, 1);
        let high = lib.ids_by_severity(Severity::High).len() as f64 / 10_000.0;
        let med = lib.ids_by_severity(Severity::Medium).len() as f64 / 10_000.0;
        let low = lib.ids_by_severity(Severity::Low).len() as f64 / 10_000.0;
        assert!((high - 0.15).abs() < 0.02, "high {high}");
        assert!((med - 0.35).abs() < 0.02, "med {med}");
        assert!((low - 0.50).abs() < 0.02, "low {low}");
    }

    #[test]
    fn require_unknown_errors() {
        let lib = VulnLibrary::synthetic(5, 1);
        assert!(lib.require(VulnId(3)).is_ok());
        assert_eq!(
            lib.require(VulnId(999)),
            Err(DetectError::UnknownVulnerability { id: 999 })
        );
    }

    #[test]
    fn sample_without_replacement() {
        let lib = VulnLibrary::synthetic(20, 2);
        let mut rng = SimRng::seed_from_u64(3);
        let sample = lib.sample_ids(15, &mut rng).unwrap();
        assert_eq!(sample.len(), 15);
        let mut dedup = sample.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 15, "no duplicates");
        assert!(lib.sample_ids(21, &mut rng).is_err());
    }

    #[test]
    fn sample_full_population() {
        let lib = VulnLibrary::synthetic(10, 4);
        let mut rng = SimRng::seed_from_u64(5);
        let all = lib.sample_ids(10, &mut rng).unwrap();
        let mut sorted = all.clone();
        sorted.sort();
        let expected: Vec<VulnId> = (1..=10).map(VulnId).collect();
        assert_eq!(sorted, expected);
    }
}
