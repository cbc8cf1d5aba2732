//! `lifecycle`: the paper's Phases #1–#4 on one `Platform` — release
//! (SRA verification, SCVM escrow deploy with its analyzers), initial
//! reports, mining to finality, detailed reports (AutoVerif), mining to
//! payout. The only path that executes `vm`, `detect::autoverif` and the
//! `Platform` half of the protocol. It is serial and bound by report
//! signatures, so it shows an ECDSA gain without the thread pool: a
//! change that only adds parallelism moves `ingest_cold` and not this.

use super::{settle, Acc, Phase, Probe, Rep, Sizes, Workload};
use crate::inputs::{self, InputsDigest};
use crate::trace::Tracer;
use smartcrowd_chain::record::RecordKind;
use smartcrowd_chain::{sigcache, Ether};
use smartcrowd_core::platform::{Platform, PlatformConfig};
use smartcrowd_core::report::{create_report_pair, DetailedReport, Findings, InitialReport};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Digest;
use smartcrowd_detect::system::IoTSystem;
use std::collections::HashMap;
use std::time::Instant;

const INSURANCE: Ether = Ether::from_ether(1000);
const INCENTIVE: Ether = Ether::from_ether(25);

/// One released system with every detector's report pair on it.
struct Release {
    system: IoTSystem,
    sra_id: Digest,
    reports: Vec<(InitialReport, DetailedReport)>,
}

/// Generated inputs of `lifecycle`.
pub struct Lifecycle {
    sizes: Sizes,
    config: PlatformConfig,
    detectors: Vec<KeyPair>,
    releases: Vec<Release>,
    digest: String,
}

fn config(seed: u64) -> PlatformConfig {
    PlatformConfig {
        seed,
        ..PlatformConfig::paper()
    }
}

impl Workload for Lifecycle {
    fn setup(seed: u64, sizes: &Sizes) -> Self {
        let detectors = inputs::keypairs(seed, "lifecycle", sizes.detectors);
        let mut rng = inputs::rng(seed, "lifecycle");
        // A scratch platform tells the clients the library and the SRA
        // ids their reports must name; repetitions replay the same
        // releases on fresh platforms and must see the same ids.
        let mut scratch = Platform::new(config(seed));
        let providers = scratch.providers().len();
        let mut digest = InputsDigest::new("lifecycle");
        let releases = (0..sizes.releases)
            .map(|r| {
                let vulns = scratch
                    .library()
                    .sample_ids(sizes.detectors, &mut rng)
                    .expect("library holds enough vulnerabilities");
                let system = IoTSystem::build(
                    &format!("fw-{r}"),
                    "1.0",
                    scratch.library(),
                    vulns.clone(),
                    &mut rng,
                )
                .expect("sampled ids are in the library");
                let sra_id = scratch
                    .release_system(r % providers, system.clone(), INSURANCE, INCENTIVE)
                    .expect("scratch release verifies");
                let reports: Vec<_> = detectors
                    .iter()
                    .zip(vulns)
                    .map(|(d, v)| create_report_pair(d, sra_id, Findings::new(vec![v], "found")))
                    .collect();
                digest.add(system.image());
                for (initial, detailed) in &reports {
                    digest.add(&initial.encode());
                    digest.add(&detailed.encode());
                }
                Release {
                    system,
                    sra_id,
                    reports,
                }
            })
            .collect();
        Lifecycle {
            sizes: *sizes,
            config: config(seed),
            detectors,
            releases,
            digest: digest.finish(),
        }
    }

    fn inputs_digest(&self) -> &str {
        &self.digest
    }

    fn repetition(&self, t: &mut Tracer, probe: &Probe, acc: &mut Acc) {
        let s = &self.sizes;
        sigcache::reset();
        let mut platform = Platform::new(self.config.clone());
        let providers = platform.providers().len();
        for d in &self.detectors {
            platform.fund(d.address(), Ether::from_ether(10));
        }
        let systems: Vec<IoTSystem> = self.releases.iter().map(|r| r.system.clone()).collect();
        let mut expected: HashMap<Digest, usize> = HashMap::new();
        let (mut handed, mut stored, mut release_groups) = (Vec::new(), Vec::new(), Vec::new());
        let mut payouts = 0u64;

        let phase = Phase::open(t);
        for (r, (release, system)) in self.releases.iter().zip(systems).enumerate() {
            handed.push(Instant::now());
            release_groups.push(handed.len() - 1);
            let span = t.enter("core.platform.release_system");
            let since = probe.mark(t);
            let released = platform.release_system(r % providers, system, INSURANCE, INCENTIVE);
            probe.ingested(t, span, since, acc);
            t.exit(span, 1);
            acc.expect(
                released.as_ref().is_ok_and(|id| *id == release.sra_id),
                || format!("release {r} failed or changed its id: {released:?}"),
            );
            for detailed_wave in [false, true] {
                for (detector, (initial, detailed)) in self.detectors.iter().zip(&release.reports) {
                    handed.push(Instant::now());
                    let span = t.enter(if detailed_wave {
                        "core.platform.submit_detailed"
                    } else {
                        "core.platform.submit_initial"
                    });
                    let since = probe.mark(t);
                    let submitted = if detailed_wave {
                        platform.submit_detailed(detector, detailed.clone())
                    } else {
                        platform.submit_initial(detector, initial.clone())
                    };
                    probe.ingested(t, span, since, acc);
                    t.exit(span, 1);
                    match submitted {
                        Ok(record_id) => {
                            expected.insert(record_id, handed.len() - 1);
                        }
                        Err(e) => acc.fail(1, || format!("report refused: {e:?}")),
                    }
                }
                for _ in 0..s.confirm_blocks {
                    let span = t.enter("core.platform.mine_block");
                    let (_, fired) = platform.mine_block();
                    t.exit(span, 1);
                    stored.push(Instant::now());
                    payouts += fired.len() as u64;
                }
            }
        }
        let wall_s = phase.close(t);

        // SRA records carry no id the caller sees; they reach the chain
        // in release order.
        let sras = platform.store().records_of_kind(RecordKind::Sra);
        acc.expect(sras.len() == release_groups.len(), || {
            format!(
                "{} SRA records on chain for {} releases",
                sras.len(),
                release_groups.len()
            )
        });
        for ((record, _), group) in sras.iter().zip(&release_groups) {
            expected.insert(record.id(), *group);
        }
        let chain = platform.store().canonical_blocks();
        let on_chain = settle(acc, &expected, &handed, &stored, chain);
        acc.exact("records_committed", on_chain);
        acc.exact("blocks_committed", platform.store().best_height());
        acc.exact("core.platform.payouts", payouts);
        acc.expect(payouts == (s.releases * s.detectors) as u64, || {
            format!("{payouts} payouts for {} reports", s.releases * s.detectors)
        });
        let (supply, accounted) = platform.audit_supply();
        acc.expect(supply == accounted, || {
            format!("supply {supply} does not balance allocations {accounted}")
        });
        acc.reps.push(Rep::new(wall_s, on_chain));
    }
}
