//! Integration: a full simulated run survives export → import with every
//! record, statistic and confirmation intact — the provider-restart story.

use smartcrowd::chain::record::RecordKind;
use smartcrowd::chain::stats::chain_stats;
use smartcrowd::chain::storage::{export_chain, import_chain, ChainQuery};
use smartcrowd::sim::config::SimConfig;
use smartcrowd::sim::run::simulate_full;

#[test]
fn simulated_chain_roundtrips_through_persistence() {
    let mut cfg = SimConfig::paper();
    cfg.duration_secs = 500.0;
    cfg.sra_period_secs = 120.0;
    cfg.vulnerability_proportion = 1.0;
    cfg.vulns_per_release = 4;
    let (_ledger, platform) = simulate_full(&cfg);
    let original = platform.store();

    let dump = export_chain(original);
    let restored = import_chain(&dump).expect("dump re-validates");

    assert_eq!(restored.best_tip(), original.best_tip());
    assert_eq!(restored.best_height(), original.best_height());
    let stats_a = chain_stats(original);
    let stats_b = chain_stats(&restored);
    assert_eq!(stats_a.records_by_kind, stats_b.records_by_kind);
    assert_eq!(stats_a.total_fees, stats_b.total_fees);
    assert_eq!(stats_a.confirmed_records, stats_b.confirmed_records);

    // Every report is still locatable with identical confirmations.
    for kind in [
        RecordKind::Sra,
        RecordKind::InitialReport,
        RecordKind::DetailedReport,
    ] {
        let originals = original.records_of_kind(kind);
        for (record, confs) in &originals {
            let (restored_record, restored_confs) = restored
                .record_with_confirmations(&record.id())
                .expect("record survives");
            assert_eq!(restored_record.id(), record.id());
            assert_eq!(restored_confs, *confs);
        }
        assert_eq!(restored.records_of_kind(kind).len(), originals.len());
    }
}

#[test]
fn tampering_any_record_in_the_dump_is_caught() {
    let mut cfg = SimConfig::paper();
    cfg.duration_secs = 250.0;
    cfg.sra_period_secs = 120.0;
    cfg.vulnerability_proportion = 1.0;
    cfg.vulns_per_release = 2;
    let (_, platform) = simulate_full(&cfg);
    let dump = export_chain(platform.store());

    // Every byte of an export sits under a frame checksum (or is the
    // frame header the checksum is checked through), so a flip anywhere
    // — the tip block's own header included — must be rejected without
    // any help from proof-of-work.
    for pos in 0..dump.len() {
        let mut corrupted = dump.clone();
        corrupted[pos] ^= 0xff;
        assert!(
            import_chain(&corrupted).is_err(),
            "corruption at byte {pos} was not detected"
        );
    }
}
