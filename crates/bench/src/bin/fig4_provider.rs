//! **Fig. 4 — Incentives and punishments of IoT providers.**
//!
//! - Fig. 4(a): cumulative provider incentives (block rewards + record
//!   fees) over 30 simulated minutes for the five hash-power proportions.
//! - Fig. 4(b): punishments vs the vulnerability proportion (VP) for
//!   insurances of 500 / 1000 / 1500 ether — measured from end-to-end runs
//!   (escrow forfeits + release gas) against the analytic `VP·I + cp`.
//!
//! Run: `cargo run --release -p smartcrowd-bench --bin fig4_provider`

use smartcrowd_bench::{stats, table};
use smartcrowd_chain::simminer::PAPER_HASH_POWERS;
use smartcrowd_chain::Ether;
use smartcrowd_core::economics;
use smartcrowd_sim::config::SimConfig;
use smartcrowd_sim::run::simulate;
use smartcrowd_sim::sweep::{sweep_seeds, SweepPoint};

fn main() {
    fig4a();
    fig4b();
}

fn fig4a() {
    println!("Fig. 4(a) — provider incentives vs time (30 min, 5 HP levels)\n");
    let mut cfg = SimConfig::paper();
    cfg.duration_secs = 1800.0;
    cfg.sra_period_secs = 600.0;
    cfg.vulnerability_proportion = 0.0; // isolate incentives from punishments
    let ledger = simulate(&cfg);

    let checkpoints = [300.0, 600.0, 900.0, 1200.0, 1500.0, 1800.0];
    let mut rows = Vec::new();
    let providers: Vec<_> = {
        // Ledger keys are addresses; recover index order via hash powers.
        let platform = smartcrowd_core::platform::Platform::new(cfg.platform.clone());
        platform
            .providers()
            .iter()
            .map(|p| (p.address, p.hash_power))
            .collect()
    };
    for (i, (addr, hp)) in providers.iter().enumerate() {
        let series = ledger
            .provider_income
            .get(addr)
            .cloned()
            .unwrap_or_default();
        let mut cells = vec![format!("provider-{i} ({:.2}% HP)", hp * 100.0)];
        for &t in &checkpoints {
            let income = series
                .iter()
                .take_while(|s| s.time <= t)
                .last()
                .map(|s| s.income.as_f64())
                .unwrap_or(0.0);
            cells.push(table::f(income, 1));
        }
        rows.push(cells);
    }
    let headers = [
        "provider", "5min", "10min", "15min", "20min", "25min", "30min",
    ];
    println!("{}", table::render(&headers, &rows));
    println!(
        "shape checks: incentives increase with time for every provider; \
         higher HP ⇒ higher curve; deviations from strict proportionality \
         are the Nonce-discovery randomness the paper remarks on.\n"
    );

    let json = serde_json::json!({
        "experiment": "fig4a",
        "checkpoints_s": checkpoints,
        "rows": rows,
    });
    smartcrowd_bench::write_results("fig4a_provider_income", &json);
}

fn fig4b() {
    println!("\nFig. 4(b) — punishments vs VP for insurances 500/1000/1500 ETH\n");
    let vps = [0.0, 0.02, 0.04, 0.06, 0.08, 0.10];
    let insurances = [500u64, 1000, 1500];
    // Punishment variance is dominated by the Bernoulli release gate;
    // 16 seeds × ~25 releases ≈ 400 gates per point. Tune with
    // SMARTCROWD_TRIALS.
    let trials: u64 = std::env::var("SMARTCROWD_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let seeds: Vec<u64> = (0..trials).collect();

    let mut rows = Vec::new();
    let mut json_points = Vec::new();
    for &ins in &insurances {
        for &vp in &vps {
            let mut cfg = SimConfig::paper();
            cfg.duration_secs = 1500.0;
            cfg.sra_period_secs = 60.0; // ~25 releases per run
            cfg.vulnerability_proportion = vp;
            cfg.insurance = Ether::from_ether(ins);
            // Ample capital: the paper does not model vendor bankruptcy,
            // and a broke provider would bias the release mix.
            cfg.platform.provider_funding = Ether::from_ether(1_000_000);
            // Punishment is capped by the insurance: scale μ so a fully
            // detected release forfeits the whole deposit (the paper's
            // forfeit-the-insurance model).
            cfg.incentive_per_vuln = Ether::from_ether(ins / 10);
            let points: Vec<SweepPoint> = sweep_seeds(&cfg, &seeds);
            let per_release: Vec<f64> = points
                .iter()
                .map(|p| {
                    let forfeit: f64 = p
                        .ledger
                        .provider_forfeits
                        .values()
                        .map(|e| e.as_f64())
                        .sum();
                    let gas: f64 = p
                        .ledger
                        .provider_release_gas
                        .values()
                        .map(|e| e.as_f64())
                        .sum();
                    (forfeit + gas) / p.ledger.releases.max(1) as f64
                })
                .collect();
            let measured = stats::Summary::of(&per_release).mean;
            let analytic = economics::provider_punishment(Ether::from_ether(ins), vp);
            rows.push(vec![
                ins.to_string(),
                table::f(vp, 2),
                table::f(measured, 1),
                table::f(analytic, 1),
            ]);
            json_points.push(serde_json::json!({
                "insurance": ins, "vp": vp,
                "measured_punishment_eth": measured,
                "analytic_punishment_eth": analytic,
            }));
        }
    }
    println!(
        "{}",
        table::render(
            &[
                "insurance (ETH)",
                "VP",
                "measured punishment/release",
                "analytic VP·I + cp"
            ],
            &rows,
        )
    );
    println!(
        "shape checks: punishment grows with VP; a larger insurance gives a \
         steeper line — 'a high VP can introduce more punishments for a \
         misbehaved IoT provider'."
    );

    let json = serde_json::json!({
        "experiment": "fig4b",
        "points": json_points,
        "hash_powers": PAPER_HASH_POWERS,
    });
    smartcrowd_bench::write_results("fig4b_provider_punishment", &json);
}
