//! Parameter sweeps for the §VII experiments.
//!
//! Each sweep runs seeded simulations across one axis and returns compact
//! result rows; the bench binaries print them in the paper's table/figure
//! shapes.

use crate::config::SimConfig;
use crate::ledger::RunLedger;
use crate::run::simulate;

/// One row of a sweep result.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter value.
    pub x: f64,
    /// The ledger of that run.
    pub ledger: RunLedger,
}

/// Sweeps the vulnerability proportion (Fig. 4(b), Fig. 5(b)).
pub fn sweep_vp(base: &SimConfig, vps: &[f64]) -> Vec<SweepPoint> {
    vps.iter()
        .map(|&vp| {
            let mut cfg = base.clone();
            cfg.vulnerability_proportion = vp;
            SweepPoint {
                x: vp,
                ledger: simulate(&cfg),
            }
        })
        .collect()
}

/// Sweeps the run duration (Fig. 4(a), Fig. 5(a)).
pub fn sweep_duration(base: &SimConfig, durations_secs: &[f64]) -> Vec<SweepPoint> {
    durations_secs
        .iter()
        .map(|&d| {
            let mut cfg = base.clone();
            cfg.duration_secs = d;
            SweepPoint {
                x: d,
                ledger: simulate(&cfg),
            }
        })
        .collect()
}

/// Repeats the same configuration across seeds (the "measured for 100
/// times" averaging of Fig. 6(a)).
pub fn sweep_seeds(base: &SimConfig, seeds: &[u64]) -> Vec<SweepPoint> {
    seeds
        .iter()
        .map(|&s| {
            let mut cfg = base.clone();
            cfg.seed = s;
            SweepPoint {
                x: s as f64,
                ledger: simulate(&cfg),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimConfig {
        let mut c = SimConfig::paper();
        c.duration_secs = 250.0;
        c.sra_period_secs = 120.0;
        c.vulns_per_release = 3;
        c
    }

    #[test]
    fn vp_sweep_orders_forfeits() {
        let points = sweep_vp(&quick(), &[0.0, 1.0]);
        let forfeit = |l: &RunLedger| {
            l.provider_forfeits
                .values()
                .map(|e| e.as_f64())
                .sum::<f64>()
        };
        assert!(forfeit(&points[1].ledger) >= forfeit(&points[0].ledger));
        assert_eq!(forfeit(&points[0].ledger), 0.0);
    }

    #[test]
    fn duration_sweep_orders_income() {
        let points = sweep_duration(&quick(), &[150.0, 600.0]);
        let income = |l: &RunLedger| {
            l.provider_income
                .values()
                .filter_map(|s| s.last())
                .map(|s| s.income.as_f64())
                .sum::<f64>()
        };
        assert!(income(&points[1].ledger) > income(&points[0].ledger));
    }

    #[test]
    fn seed_sweep_and_mean() {
        let points = sweep_seeds(&quick(), &[1, 2, 3]);
        assert_eq!(points.len(), 3);
        assert!(points.iter().any(|p| p.ledger.blocks_mined > 0));
    }
}
