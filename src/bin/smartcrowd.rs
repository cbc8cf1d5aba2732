//! The `smartcrowd` command-line tool.
//!
//! A small operational frontend over the library:
//!
//! ```text
//! smartcrowd demo                         walk the four-phase protocol once
//! smartcrowd keygen <seed>                derive an entity keypair/address
//! smartcrowd simulate [flags]             run an end-to-end simulation
//!   --duration <secs>    simulated time            (default 900)
//!   --vp <0..1>          vulnerability proportion  (default 0.5)
//!   --insurance <eth>    escrow per release        (default 1000)
//!   --detectors <n>      fleet size                (default 8)
//!   --seed <n>           run seed                  (default 2019)
//!   --export <path>      write the chain export (a `blocks.log` image) afterwards
//!   --store <dir>        commit the chain into a durable store directory
//!   --cache <n>          block-cache capacity for --store (default unbounded)
//!   --snapshot-interval <n>  checkpoint heights between snapshots (0 = off)
//! smartcrowd inspect <path> [--cache <n>] validate + summarize a chain export
//!                                         (a `blocks.log` image) or a durable
//!                                         store directory
//! smartcrowd table1                       print the Table-I reproduction
//! ```
//!
//! Exits non-zero with a message on bad usage; every subcommand is
//! deterministic given its flags.

use smartcrowd::chain::stats::{chain_stats, ChainStats};
use smartcrowd::chain::storage::{export_chain, import_chain, ChainQuery};
use smartcrowd::chain::{ChainError, DurableStore, Ether, StorageError, StoreConfig};
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::sim::config::SimConfig;
use smartcrowd::sim::run::simulate_full;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(),
        Some("keygen") => cmd_keygen(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("table1") => cmd_table1(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
smartcrowd — decentralized, automated incentives for IoT system detection

USAGE:
  smartcrowd demo
  smartcrowd keygen <seed>
  smartcrowd simulate [--duration <secs>] [--vp <0..1>] [--insurance <eth>]
                      [--detectors <n>] [--seed <n>] [--export <path>]
                      [--store <dir>] [--cache <blocks>]
                      [--snapshot-interval <checkpoints>]
  smartcrowd inspect <chain-export | store-dir> [--cache <blocks>]
      (a chain export is a `blocks.log` image)
  smartcrowd table1
";

fn cmd_demo() -> Result<(), String> {
    use smartcrowd::chain::rng::SimRng;
    use smartcrowd::core::economics::{INCENTIVE_PER_VULN, INSURANCE};
    use smartcrowd::core::platform::{Platform, PlatformConfig};
    use smartcrowd::core::report::{create_report_pair, Findings};
    use smartcrowd::detect::system::IoTSystem;
    use smartcrowd::detect::vulnerability::VulnId;

    let mut platform = Platform::new(PlatformConfig::paper());
    let mut rng = SimRng::seed_from_u64(1);
    let system = IoTSystem::build(
        "demo-fw",
        "1.0",
        platform.library(),
        vec![VulnId(1), VulnId(2)],
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    let sra_id = platform
        .release_system(0, system, INSURANCE, INCENTIVE_PER_VULN)
        .map_err(|e| e.to_string())?;
    println!("released demo-fw v1.0 (insurance 1000 ETH, μ = 25 ETH)");
    let detector = KeyPair::from_seed(b"cli-demo-detector");
    platform.fund(detector.address(), Ether::from_ether(10));
    let (initial, detailed) = create_report_pair(
        &detector,
        sra_id,
        Findings::new(vec![VulnId(1), VulnId(2)], "demo findings"),
    );
    platform
        .submit_initial(&detector, initial)
        .map_err(|e| e.to_string())?;
    platform.mine_blocks(8);
    println!("R† submitted and finalized after 8 blocks");
    platform
        .submit_detailed(&detector, detailed)
        .map_err(|e| e.to_string())?;
    let payouts = platform.mine_blocks(8);
    for p in &payouts {
        println!(
            "R* finalized → escrow auto-paid {} for {} vulnerabilities to {}",
            p.amount, p.vulnerabilities, p.wallet
        );
    }
    println!(
        "consumer query: confirmed vulnerabilities = {:?}",
        platform.confirmed_vulnerabilities(&sra_id)
    );
    Ok(())
}

fn cmd_keygen(args: &[String]) -> Result<(), String> {
    let seed = args.first().ok_or("keygen needs a seed argument")?;
    let kp = KeyPair::from_seed(seed.as_bytes());
    println!("seed:    {seed}");
    println!("address: {}", kp.address());
    println!(
        "pubkey:  0x{}",
        smartcrowd::crypto::hex::encode(&kp.public().to_compressed())
    );
    Ok(())
}

/// Parses `--flag value` pairs; unknown flags are errors.
fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        if !flag.starts_with("--") {
            return Err(format!("expected --flag, got '{flag}'"));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        out.push((flag.trim_start_matches("--").to_string(), value.clone()));
        i += 2;
    }
    Ok(out)
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut cfg = SimConfig::paper();
    cfg.duration_secs = 900.0;
    cfg.sra_period_secs = 150.0;
    cfg.vulnerability_proportion = 0.5;
    cfg.vulns_per_release = 6;
    let mut export: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut store_config = StoreConfig::default();
    for (flag, value) in parse_flags(args)? {
        match flag.as_str() {
            "duration" => {
                cfg.duration_secs = value
                    .parse()
                    .map_err(|_| format!("bad duration '{value}'"))?
            }
            "vp" => {
                cfg.vulnerability_proportion =
                    value.parse().map_err(|_| format!("bad vp '{value}'"))?
            }
            "insurance" => {
                let eth: u64 = value
                    .parse()
                    .map_err(|_| format!("bad insurance '{value}'"))?;
                cfg.insurance = Ether::from_ether(eth);
            }
            "detectors" => {
                cfg.detectors = value
                    .parse()
                    .map_err(|_| format!("bad detectors '{value}'"))?
            }
            "seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "export" => export = Some(value),
            "store" => store_dir = Some(value),
            "cache" => {
                store_config.cache_capacity =
                    value.parse().map_err(|_| format!("bad cache '{value}'"))?
            }
            "snapshot-interval" => {
                store_config.snapshot_interval = value
                    .parse()
                    .map_err(|_| format!("bad snapshot-interval '{value}'"))?
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let (ledger, platform) = simulate_full(&cfg);
    println!("simulated {:.0}s of platform time", ledger.final_time);
    println!("  blocks mined:            {}", ledger.blocks_mined);
    println!(
        "  mean block interval:     {:.2}s",
        ledger.mean_block_time()
    );
    println!(
        "  releases:                {} ({} vulnerable)",
        ledger.releases, ledger.vulnerable_releases
    );
    println!(
        "  vulnerabilities confirmed: {}",
        ledger.confirmed_vulnerabilities
    );
    let earned: f64 = ledger.detector_earnings.values().map(|e| e.as_f64()).sum();
    let forfeited: f64 = ledger.provider_forfeits.values().map(|e| e.as_f64()).sum();
    println!("  bounties paid:           {earned:.2} ETH");
    println!("  insurance forfeited:     {forfeited:.2} ETH");
    if let Some(path) = export {
        let image = export_chain(platform.store());
        std::fs::write(&path, &image).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  chain exported to {path} ({} bytes)", image.len());
    }
    if let Some(dir) = store_dir {
        let dir = std::path::PathBuf::from(dir);
        let genesis = platform
            .store()
            .canonical_block_at(0)
            .ok_or("simulated chain has no genesis")?;
        let mut durable = DurableStore::open_with(&dir, &genesis, store_config)
            .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
        let mut committed = 0u64;
        for block in platform.store().canonical_blocks().skip(1) {
            match durable.commit(block.clone()) {
                Ok(_) => committed += 1,
                // Re-running into the same directory: already durable.
                Err(StorageError::Chain(ChainError::DuplicateBlock { .. })) => {}
                Err(e) => return Err(format!("store commit failed: {e}")),
            }
        }
        println!(
            "  durable store:           {} (+{committed} blocks, height {})",
            dir.display(),
            durable.best_height()
        );
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .ok_or("inspect needs a chain export or store directory")?;
    let mut config = StoreConfig::default();
    for (flag, value) in parse_flags(&args[1..])? {
        match flag.as_str() {
            "cache" => {
                config.cache_capacity = value.parse().map_err(|_| format!("bad cache '{value}'"))?
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    if std::path::Path::new(path).is_dir() {
        let store = DurableStore::open_existing_with(std::path::Path::new(path), config)
            .map_err(|e| format!("invalid store directory: {e}"))?;
        println!("durable store: {path}");
        print_stats(&chain_stats(&store));
        let rec = store.last_recovery();
        if rec.snapshot_loaded {
            println!(
                "  snapshot:            loaded (checkpoint height {}, tail replayed from log)",
                store.snapshot_height()
            );
        } else if let Some(detail) = store.snapshot_rejection() {
            println!("  snapshot:            rejected ({detail}); fell back to full replay");
        } else if store.has_snapshot() {
            println!("  snapshot:            written at this open");
        } else {
            println!("  snapshot:            none");
        }
        println!("  resident bodies:     {}", store.resident_blocks());
        if rec.clean() {
            println!("  (clean open; frames verified lazily on page-in)");
        } else {
            println!(
                "  (recovery: torn_truncated={} snapshot_rejected={})",
                rec.torn_truncated, rec.snapshot_rejected
            );
        }
        return Ok(());
    }
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let store = import_chain(&bytes).map_err(|e| format!("invalid chain export: {e}"))?;
    println!("chain export: {path}");
    print_stats(&chain_stats(&store));
    println!("  (every block re-validated during import)");
    Ok(())
}

fn print_stats(stats: &ChainStats) {
    println!("  height:              {}", stats.height);
    println!("  mean block interval: {:.1}s", stats.mean_block_interval);
    println!("  total record fees:   {}", stats.total_fees);
    println!("  confirmed records:   {}", stats.confirmed_records);
    println!("  records by kind:");
    for (kind, count) in &stats.records_by_kind {
        println!("    {kind:<18} {count}");
    }
    println!("  blocks by miner:");
    for (miner, blocks) in &stats.blocks_by_miner {
        println!("    {miner} {blocks}");
    }
}

fn cmd_table1() -> Result<(), String> {
    use smartcrowd::detect::corpus::{Table1Setup, EXPECTED, SCANNER_NAMES};
    let setup = Table1Setup::build(2019);
    let rows = setup.run(7);
    println!(
        "{:<12} {:>22} {:>22}",
        "service", "Connect H/M/L", "SmartHome H/M/L"
    );
    for (i, row) in rows.iter().enumerate() {
        println!(
            "{:<12} {:>22} {:>22}",
            SCANNER_NAMES[i],
            format!("{}/{}/{}", row[0].0, row[0].1, row[0].2),
            format!("{}/{}/{}", row[1].0, row[1].1, row[1].2),
        );
        if rows[i] != EXPECTED[i] {
            return Err(format!("row {i} deviates from the paper"));
        }
    }
    println!("\nall rows match Table I of the paper exactly");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_roundtrip() {
        let parsed = parse_flags(&flags(&["--vp", "0.3", "--seed", "7"])).unwrap();
        assert_eq!(
            parsed,
            vec![
                ("vp".to_string(), "0.3".to_string()),
                ("seed".to_string(), "7".to_string())
            ]
        );
    }

    #[test]
    fn parse_flags_rejects_malformed() {
        assert!(parse_flags(&flags(&["vp", "0.3"])).is_err());
        assert!(parse_flags(&flags(&["--vp"])).is_err());
    }

    #[test]
    fn keygen_is_deterministic() {
        assert!(cmd_keygen(&flags(&["alice"])).is_ok());
        assert!(cmd_keygen(&[]).is_err());
    }

    #[test]
    fn table1_matches_paper() {
        assert!(cmd_table1().is_ok());
    }
}
