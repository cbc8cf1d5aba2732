//! **Fig. 5 — Balance of IoT providers.**
//!
//! - Fig. 5(a): the VP baseline (VPB) — the vulnerability proportion at
//!   which a provider's incentives equal its punishments — for each of the
//!   five providers, with 1000-ether insurance, over 10/20/30-minute
//!   participation windows. The paper reads VPB(14.90 %, 10 min) = 0.038
//!   off its measured Fig. 4.
//! - Fig. 5(b): provider balance at VP ∈ {VPB−0.01, VPB, VPB+0.01} —
//!   ±0.01 VP swings the balance by ∓10 ether at 1000-ether insurance
//!   ("IoT providers can obtain an additional 10 ethers when the VP is
//!   reduced by 0.01").
//!
//! Run: `cargo run --release -p smartcrowd-bench --bin fig5_provider_balance`

use smartcrowd_bench::table;
use smartcrowd_chain::simminer::PAPER_HASH_POWERS;
use smartcrowd_chain::Ether;
use smartcrowd_core::economics::{self, INSURANCE};
use smartcrowd_sim::config::SimConfig;
use smartcrowd_sim::run::simulate;

fn main() {
    // ---- Fig. 5(a): VPB per provider and window ------------------------
    println!("Fig. 5(a) — VPB (balance-of-payments VP) per provider, insurance 1000 ETH\n");
    let windows = [(600.0, "10min"), (1200.0, "20min"), (1800.0, "30min")];
    let mut rows = Vec::new();
    let mut vpb_json = Vec::new();
    for (i, &hp) in PAPER_HASH_POWERS.iter().enumerate() {
        let mut cells = vec![format!("provider-{i} ({:.2}% HP)", hp * 100.0)];
        for &(t, _) in &windows {
            let vpb = economics::vpb(hp, t, INSURANCE);
            cells.push(table::f(vpb, 4));
            vpb_json.push(serde_json::json!({"hp": hp, "t_s": t, "vpb": vpb}));
        }
        // Measured cross-check at 10 min: VPB from the simulated income.
        let measured = measured_vpb(i, 600.0, INSURANCE);
        cells.push(table::f(measured, 4));
        rows.push(cells);
    }
    println!(
        "{}",
        table::render(
            &[
                "provider",
                "VPB 10min",
                "VPB 20min",
                "VPB 30min",
                "measured VPB 10min"
            ],
            &rows,
        )
    );
    let paper_point = economics::reference_vp();
    println!(
        "reference point: analytic VPB(14.90 %, 10 min) = {paper_point:.4} \
         (paper reads 0.038 off its measured runs; same few-percent regime, \
         see EXPERIMENTS.md for the fee-volume sensitivity)\n"
    );
    println!(
        "shape checks: VPB grows with hash power (more income offsets more \
         punishment) and with the participation window.\n"
    );

    // ---- Fig. 5(b): balance at VPB and VPB±0.01 ------------------------
    println!("Fig. 5(b) — provider balance at VPB−0.01 / VPB / VPB+0.01 (10 min)\n");
    let mut rows_b = Vec::new();
    let mut bal_json = Vec::new();
    for (i, &hp) in PAPER_HASH_POWERS.iter().enumerate() {
        let vpb = economics::vpb(hp, 600.0, INSURANCE);
        let below = economics::provider_balance(hp, 600.0, INSURANCE, (vpb - 0.01).max(0.0));
        let at = economics::provider_balance(hp, 600.0, INSURANCE, vpb);
        let above = economics::provider_balance(hp, 600.0, INSURANCE, vpb + 0.01);
        rows_b.push(vec![
            format!("provider-{i} ({:.2}% HP)", hp * 100.0),
            table::f(below, 2),
            table::f(at, 2),
            table::f(above, 2),
        ]);
        bal_json.push(serde_json::json!({
            "hp": hp, "vpb": vpb,
            "balance_below": below, "balance_at": at, "balance_above": above,
        }));
        assert!(at.abs() < 1e-6, "balance at VPB must be 0");
        assert!((below - 10.0).abs() < 1e-6 && (above + 10.0).abs() < 1e-6);
    }
    println!(
        "{}",
        table::render(
            &[
                "provider",
                "VP=VPB−0.01 (ETH)",
                "VP=VPB (ETH)",
                "VP=VPB+0.01 (ETH)"
            ],
            &rows_b,
        )
    );
    println!(
        "shape checks: balance is 0 at VPB, +10 ETH at VPB−0.01 and −10 ETH \
         at VPB+0.01 — exactly the paper's 'additional 10 ethers when the VP \
         is reduced by 0.01'."
    );

    let json = serde_json::json!({
        "experiment": "fig5",
        "vpb": vpb_json,
        "balances": bal_json,
        "analytic_vpb_1490_10min": paper_point,
        "paper_vpb_1490_10min": 0.038,
    });
    smartcrowd_bench::write_results("fig5_provider_balance", &json);
}

/// Measures a provider's 10-minute mining income end-to-end and converts it
/// into a VPB the way the paper reads Fig. 5(a) off Fig. 4.
fn measured_vpb(provider_index: usize, duration: f64, insurance: Ether) -> f64 {
    let mut cfg = SimConfig::paper();
    cfg.duration_secs = duration;
    cfg.vulnerability_proportion = 0.0;
    cfg.releasing_provider = provider_index;
    cfg.sra_period_secs = duration; // a single release in the window
    let ledger = simulate(&cfg);
    let platform = smartcrowd_core::platform::Platform::new(cfg.platform.clone());
    let addr = platform.providers()[provider_index].address;
    let income = ledger
        .provider_income
        .get(&addr)
        .and_then(|s| s.iter().take_while(|p| p.time <= duration).last())
        .map(|s| s.income.as_f64())
        .unwrap_or(0.0);
    let gas: f64 = ledger
        .provider_release_gas
        .values()
        .map(|e| e.as_f64())
        .sum();
    ((income - gas) / insurance.as_f64()).clamp(0.0, 1.0)
}
