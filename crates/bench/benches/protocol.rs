//! Criterion benchmarks for the SmartCrowd protocol layer: SRA
//! verification, two-phase report construction/verification (Algorithm 1),
//! and `AutoVerif` over a real firmware image.

use criterion::{criterion_group, criterion_main, Criterion};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::Ether;
use smartcrowd_core::report::{create_report_pair, Findings};
use smartcrowd_core::sra::Sra;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_detect::autoverif::AutoVerifier;
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_detect::scanner::Scanner;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_detect::vulnerability::VulnId;
use std::hint::black_box;

fn bench_sra(c: &mut Criterion) {
    let provider = KeyPair::from_seed(b"provider");
    c.bench_function("protocol/sra-create", |b| {
        b.iter(|| {
            Sra::create(
                black_box(&provider),
                "fw",
                "1.0",
                [7u8; 32],
                "sim://fw/1.0",
                Ether::from_ether(1000),
                Ether::from_ether(25),
            )
        })
    });
    let sra = Sra::create(
        &provider,
        "fw",
        "1.0",
        [7u8; 32],
        "sim://fw/1.0",
        Ether::from_ether(1000),
        Ether::from_ether(25),
    );
    c.bench_function("protocol/sra-verify", |b| {
        b.iter(|| black_box(&sra).verify().unwrap())
    });
}

fn bench_reports(c: &mut Criterion) {
    let detector = KeyPair::from_seed(b"detector");
    let findings = Findings::new((1..=10).map(VulnId).collect(), "ten findings");
    c.bench_function("protocol/report-pair-create", |b| {
        b.iter(|| create_report_pair(black_box(&detector), [3u8; 32], findings.clone()))
    });
    let (initial, detailed) = create_report_pair(&detector, [3u8; 32], findings);
    c.bench_function("protocol/algorithm1-initial", |b| {
        b.iter(|| black_box(&initial).verify().unwrap())
    });
    c.bench_function("protocol/algorithm1-detailed-structural", |b| {
        b.iter(|| {
            black_box(&detailed)
                .verify_against(black_box(&initial))
                .unwrap()
        })
    });
}

fn bench_autoverif(c: &mut Criterion) {
    let library = VulnLibrary::synthetic(200, 1);
    let mut rng = SimRng::seed_from_u64(2);
    let vulns: Vec<VulnId> = (1..=10).map(VulnId).collect();
    let system = IoTSystem::build("fw", "1", &library, vulns.clone(), &mut rng).unwrap();
    let detector = KeyPair::from_seed(b"detector");
    let (initial, detailed) =
        create_report_pair(&detector, [3u8; 32], Findings::new(vulns, "found"));
    let verifier = AutoVerifier::new(&library);
    c.bench_function("protocol/algorithm1+autoverif-10claims", |b| {
        b.iter(|| {
            let detailed = black_box(&detailed);
            detailed.verify_against(black_box(&initial)).unwrap();
            let claims = &detailed.findings().vulnerabilities;
            assert!(verifier.auto_verif(black_box(&system), claims));
        })
    });
}

fn bench_scan(c: &mut Criterion) {
    let library = VulnLibrary::synthetic(200, 1);
    let mut rng = SimRng::seed_from_u64(2);
    let vulns: Vec<VulnId> = (1..=20).map(VulnId).collect();
    let system = IoTSystem::build("fw", "1", &library, vulns, &mut rng).unwrap();
    let scanner = Scanner::new("full", (1..=200).map(VulnId));
    c.bench_function("detect/scan-200sig-5KiB-image", |b| {
        b.iter(|| scanner.scan(black_box(&system), &library, &mut rng))
    });
}

criterion_group!(
    benches,
    bench_sra,
    bench_reports,
    bench_autoverif,
    bench_scan
);
criterion_main!(benches);
