//! The detection-capability model of §VI-B.
//!
//! `DC_i` is "the probability for identifying a vulnerability" of detector
//! `i`; the paper's experiment scales it with the thread count allocated to
//! each detector (1–8 threads, §VII-B). This module implements the
//! capability algebra: per-detector capability, the recording proportion
//! `ρ_i`, the capability share `ξ_i`, and the total platform capability
//! `DC_T = Σ DC_i·ρ_i` (Eq. 11), whose convergence toward 1 with more
//! detectors is the paper's core "more participation → better coverage"
//! claim.

/// One detector's capability parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionCapability {
    /// `DC_i ∈ [0, 1]`: probability of identifying any given vulnerability.
    pub dc: f64,
}

impl DetectionCapability {
    /// Creates a capability, clamped to `[0, 1]`.
    pub fn new(dc: f64) -> Self {
        DetectionCapability {
            dc: dc.clamp(0.0, 1.0),
        }
    }
}

/// A pool of detectors with their capabilities.
#[derive(Debug, Clone, Default)]
pub struct CapabilityPool {
    capabilities: Vec<DetectionCapability>,
}

impl CapabilityPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a detector.
    pub fn push(&mut self, capability: DetectionCapability) {
        self.capabilities.push(capability);
    }

    /// The recording proportions `ρ_i`: the probability that detector `i`'s
    /// result is the one recorded for a vulnerability. A result is recorded
    /// only if not submitted before (§VI-B), so `ρ` splits each
    /// vulnerability among the detectors that find it, proportional to
    /// capability — giving `Σρ_i ≤ 1` with equality in the limit.
    pub(crate) fn recording_proportions(&self) -> Vec<f64> {
        let total: f64 = self.capabilities.iter().map(|c| c.dc).sum();
        if total == 0.0 {
            return vec![0.0; self.capabilities.len()];
        }
        // Probability at least one detector finds the vulnerability.
        let p_any = 1.0
            - self
                .capabilities
                .iter()
                .map(|c| 1.0 - c.dc)
                .product::<f64>();
        self.capabilities
            .iter()
            .map(|c| p_any * c.dc / total)
            .collect()
    }

    /// The total detection capability `DC_T = Σ DC_i·ρ_i` (Eq. 11).
    pub fn total_capability(&self) -> f64 {
        let rho = self.recording_proportions();
        self.capabilities
            .iter()
            .zip(rho)
            .map(|(c, r)| c.dc * r)
            .sum()
    }

    /// Probability that at least one detector catches a given vulnerability
    /// — the platform-level coverage consumers experience.
    pub fn coverage(&self) -> f64 {
        1.0 - self
            .capabilities
            .iter()
            .map(|c| 1.0 - c.dc)
            .product::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_is_clamped() {
        assert_eq!(DetectionCapability::new(1.5).dc, 1.0);
        assert_eq!(DetectionCapability::new(-0.5).dc, 0.0);
    }

    /// The paper's eight detectors of §VII-B: threads 1..=8, capability
    /// `base·threads/8`.
    fn paper_detectors(base: f64) -> CapabilityPool {
        let mut pool = CapabilityPool::new();
        for t in 1..=8 {
            pool.push(DetectionCapability::new(base * t as f64 / 8.0));
        }
        pool
    }

    #[test]
    fn rho_sums_below_one() {
        // "There is up to one detection result confirmed per vulnerability,
        // i.e. 0 ≤ Σρ_i ≤ 1" (§VI-B).
        let pool = paper_detectors(0.8);
        let rho_sum: f64 = pool.recording_proportions().iter().sum();
        assert!(rho_sum > 0.0 && rho_sum <= 1.0 + 1e-12, "Σρ = {rho_sum}");
    }

    #[test]
    fn rho_sum_approaches_one_with_more_detectors() {
        // "Σρ_i approaches 1 when m becomes larger" (§VI-B).
        let small = paper_detectors(0.6);
        let mut large = paper_detectors(0.6);
        for _ in 0..5 {
            for c in &paper_detectors(0.6).capabilities {
                large.push(*c);
            }
        }
        let s: f64 = small.recording_proportions().iter().sum();
        let l: f64 = large.recording_proportions().iter().sum();
        assert!(l > s, "Σρ must grow with m: {l} vs {s}");
        assert!(l > 0.99, "with 48 detectors Σρ ≈ 1, got {l}");
    }

    #[test]
    fn total_capability_grows_with_m() {
        // "DC_T has a positive correlation with m" (§VI-B).
        let mut pool = CapabilityPool::new();
        let mut last = 0.0;
        for i in 0..20 {
            pool.push(DetectionCapability::new(0.3));
            let dct = pool.total_capability();
            assert!(dct >= last - 1e-12, "DC_T regressed at m={}", i + 1);
            last = dct;
        }
        assert!(last <= 1.0);
    }

    #[test]
    fn empty_pool_is_safe() {
        let pool = CapabilityPool::new();
        assert_eq!(pool.total_capability(), 0.0);
        assert!(pool.recording_proportions().is_empty());
        // coverage of empty pool: product over empty = 1 → coverage 0.
        assert_eq!(pool.coverage(), 0.0);
    }

    #[test]
    fn zero_capability_pool() {
        let mut pool = CapabilityPool::new();
        pool.push(DetectionCapability::new(0.0));
        pool.push(DetectionCapability::new(0.0));
        assert_eq!(pool.total_capability(), 0.0);
        assert_eq!(pool.recording_proportions(), vec![0.0, 0.0]);
    }

    #[test]
    fn coverage_dominates_any_single_detector() {
        let pool = paper_detectors(0.8);
        let best = pool.capabilities.iter().map(|c| c.dc).fold(0.0, f64::max);
        assert!(pool.coverage() > best);
    }
}
