//! `telemetry_report`: run a short seeded protocol exercise and regenerate
//! a paper-style latency table from the telemetry registry alone.
//!
//! ```text
//! telemetry_report [--blocks N]
//! ```
//!
//! The numbers come out of the same histograms every other layer feeds
//! (`chain.miner.interval_us`, `core.lifecycle.submit_to_confirm_us`,
//! `vm.exec.gas`), so the table doubles as an end-to-end check that the
//! instrumentation is wired: the run must light up at least four
//! subsystems or the binary exits non-zero. CI runs this as the telemetry
//! smoke job.
//!
//! Run: `cargo run --release -p smartcrowd-bench --bin telemetry_report`

use smartcrowd_bench::table;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{Block, ChainBackend, ChainStore, Ether};
use smartcrowd_core::economics::{INCENTIVE_PER_VULN, INSURANCE, REPORT_FEE};
use smartcrowd_core::platform::{Platform, PlatformConfig};
use smartcrowd_core::report::{create_report_pair, Findings};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_detect::vulnerability::VulnId;
use smartcrowd_net::{LinkConfig, Message};
use smartcrowd_sim::fleet::Fleet;
use smartcrowd_telemetry::{HistogramSnapshot, MetricValue};
use std::convert::Infallible;
use std::process::ExitCode;

/// A seeded run across every layer: a distributed race with a partition,
/// then a full two-phase report lifecycle with an escrow payout.
fn exercise(blocks: usize) {
    let memory = |_, genesis: &Block| {
        Ok::<_, Infallible>(Box::new(ChainStore::new(genesis.clone())) as Box<dyn ChainBackend>)
    };
    let Ok(mut fleet) = Fleet::boot(5, 7, LinkConfig::default(), "dist-node", |_| true, memory);
    let library = smartcrowd_detect::VulnLibrary::synthetic(100, 7 ^ 0x11b);
    let mut rng = SimRng::seed_from_u64(40);
    let system = IoTSystem::build("fw", "1.0", &library, vec![VulnId(8)], &mut rng).unwrap();
    let sra_id = fleet
        .release(0, system, INSURANCE, INCENTIVE_PER_VULN)
        .expect("gossip quiesces");
    let detector = KeyPair::from_seed(b"telemetry-report-detector");
    let (initial, _) =
        create_report_pair(&detector, sra_id, Findings::new(vec![VulnId(8)], "found"));
    let record = Record::signed(
        RecordKind::InitialReport,
        initial.encode(),
        REPORT_FEE,
        0,
        &detector,
    );
    fleet
        .inject(3, Message::Record(record))
        .expect("gossip quiesces");
    for _ in 0..blocks / 2 {
        fleet.mine_round(|_| true).expect("gossip quiesces");
    }
    fleet.partition(&[4]);
    for _ in 0..blocks / 2 {
        fleet.mine_round(|_| true).expect("gossip quiesces");
    }
    fleet.heal_partition();
    fleet.anti_entropy(|_| true).expect("gossip quiesces");

    // The incentive payout is a contract execution: run the lifecycle on
    // the platform so the vm and core.lifecycle series are populated.
    let mut platform = Platform::new(PlatformConfig::paper());
    let mut rng = SimRng::seed_from_u64(41);
    let system =
        IoTSystem::build("fw", "2.0", platform.library(), vec![VulnId(8)], &mut rng).unwrap();
    let sra_id = platform
        .release_system(0, system, INSURANCE, INCENTIVE_PER_VULN)
        .expect("release verifies");
    platform.fund(detector.address(), Ether::from_ether(10));
    let (initial, detailed) =
        create_report_pair(&detector, sra_id, Findings::new(vec![VulnId(8)], "found"));
    platform
        .submit_initial(&detector, initial)
        .expect("R† admits");
    platform.mine_blocks(8);
    platform
        .submit_detailed(&detector, detailed)
        .expect("R* verifies");
    platform.mine_blocks(8);
}

/// One latency-table row from a time-valued histogram (µs → seconds).
fn latency_row(label: &str, h: &HistogramSnapshot) -> Vec<String> {
    let s = 1e-6;
    vec![
        label.to_string(),
        h.count.to_string(),
        table::f(h.mean() * s, 2),
        table::f(h.quantile(0.5) as f64 * s, 2),
        table::f(h.quantile(0.99) as f64 * s, 2),
        table::f(h.max.unwrap_or(0) as f64 * s, 2),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut blocks = 10usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--blocks" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--blocks needs a number");
                    return ExitCode::from(2);
                };
                blocks = v;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    println!("telemetry_report: seeded {blocks}-round exercise across all layers\n");
    exercise(blocks);

    let snapshot = smartcrowd_telemetry::global().snapshot();

    // The paper reports per-phase latencies in seconds of simulated time
    // (§VII: 15.35 s mean block interval, ~6 block confirmations). The
    // same numbers now fall out of the registry.
    println!("latency (simulated seconds)\n");
    let mut rows = Vec::new();
    for (label, key) in [
        ("block interval", "chain.miner.interval_us"),
        (
            "submit → 6-block confirm",
            "core.lifecycle.submit_to_confirm_us",
        ),
    ] {
        if let Some(MetricValue::Histogram(h)) = snapshot.get(key) {
            rows.push(latency_row(label, h));
        }
    }
    println!(
        "{}",
        table::render(&["phase", "n", "mean", "p50", "p99", "max"], &rows)
    );

    smartcrowd_bench::write_results(
        "telemetry_report",
        &serde_json::json!({ "experiment": "telemetry_report", "blocks": blocks }),
    );

    let subsystems = snapshot.subsystems();
    println!("\nactive subsystems: {}", subsystems.join(", "));
    if subsystems.len() < 4 {
        eprintln!("instrumentation regression: fewer than 4 subsystems reported metrics");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
