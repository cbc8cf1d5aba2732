//! The micro-section of a traced run: a fixed, short (≈1 s) pass that
//! times primitives the workloads only reach through other layers —
//! ECDSA, hashing, Merkle, signature-cache bookkeeping, telemetry, the
//! pool's fan-out cost, SCVM escrow calls and AutoVerif. Each value is
//! the median of several batches.

use crate::inputs;
use crate::stats::median;
use smartcrowd_chain::{sigcache, Ether};
use smartcrowd_core::contracts::{ReportRegistry, SraEscrow};
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::keys::recover_public_key;
use smartcrowd_crypto::merkle::MerkleTree;
use smartcrowd_crypto::sha256::sha256;
use smartcrowd_crypto::Address;
use smartcrowd_detect::{AutoVerifier, IoTSystem, VulnLibrary};
use smartcrowd_vm::{Vm, WorldState};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Median over `batches` of the mean time of `per_batch` calls, in
/// nanoseconds per call.
fn time_ns(batches: usize, per_batch: usize, mut call: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|b| {
            let at = Instant::now();
            for i in 0..per_batch {
                call(b * per_batch + i);
            }
            at.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// `Registry::snapshot` cost in milliseconds. Taken after the workload,
/// when the registry holds every metric the workload registered.
pub fn telemetry_snapshot_ms() -> f64 {
    time_ns(5, 4, |_| {
        black_box(smartcrowd_telemetry::global().snapshot());
    }) * 1e-6
}

/// Runs the micro-section; keys are per-layer metric names.
pub fn run(seed: u64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let mut rng = inputs::rng(seed, "micro");

    // crypto: one key, distinct digests.
    let key = &inputs::keypairs(seed, "micro", 1)[0];
    let digests: Vec<[u8; 32]> = (0..64)
        .map(|_| keccak256(&inputs::bytes(&mut rng, 32)))
        .collect();
    let signatures: Vec<_> = digests.iter().map(|d| key.sign(d)).collect();
    out.insert(
        "crypto.ecdsa.sign_us",
        time_ns(5, 8, |i| {
            black_box(key.sign(black_box(&digests[i % 64])));
        }) * 1e-3,
    );
    out.insert(
        "crypto.ecdsa.verify_us",
        time_ns(5, 8, |i| {
            black_box(key.public().verify(&digests[i % 64], &signatures[i % 64]));
        }) * 1e-3,
    );
    out.insert(
        "crypto.ecdsa.recover_us",
        time_ns(5, 8, |i| {
            black_box(recover_public_key(&digests[i % 64], &signatures[i % 64]).is_ok());
        }) * 1e-3,
    );
    let buffer = inputs::bytes(&mut rng, 64 * 1024);
    let mb_per_s = |ns_per_call: f64| buffer.len() as f64 / ns_per_call * 1e3;
    out.insert(
        "crypto.keccak256.mb_per_s",
        mb_per_s(time_ns(5, 8, |_| {
            black_box(keccak256(black_box(&buffer)));
        })),
    );
    out.insert(
        "crypto.sha256.mb_per_s",
        mb_per_s(time_ns(5, 8, |_| {
            black_box(sha256(black_box(&buffer)));
        })),
    );
    let leaves: Vec<Vec<u8>> = (0..256).map(|_| inputs::bytes(&mut rng, 160)).collect();
    out.insert(
        "crypto.merkle.build_us_per_leaf",
        time_ns(5, 8, |_| {
            black_box(MerkleTree::from_leaves(leaves.iter().map(Vec::as_slice)).root());
        }) * 1e-3
            / leaves.len() as f64,
    );

    // chain::sigcache bookkeeping, on a cache holding 4096 ids.
    sigcache::reset();
    let ids: Vec<[u8; 32]> = (0..8192u64).map(|i| keccak256(&i.to_be_bytes())).collect();
    ids[..4096].iter().for_each(|id| sigcache::insert(*id));
    out.insert(
        "chain.sigcache.lookup_us",
        time_ns(5, 4096, |i| {
            black_box(sigcache::contains(&ids[i % 8192]));
        }) * 1e-3,
    );
    out.insert(
        "chain.sigcache.insert_us",
        time_ns(4, 1024, |i| sigcache::insert(ids[4096 + i])) * 1e-3,
    );
    sigcache::reset();

    // telemetry and pool.
    let probe = smartcrowd_telemetry::global().counter("benchmark.micro.counter", &[]);
    out.insert(
        "telemetry.counter_inc_ns",
        time_ns(5, 200_000, |_| black_box(probe).inc()),
    );
    let pool = smartcrowd_pool::global();
    let items = [0u8; 16];
    out.insert("pool.threads", pool.threads() as f64);
    out.insert(
        "pool.par_map_overhead_us",
        time_ns(5, 40, |_| {
            black_box(pool.par_map(&items, |x| *x));
        }) * 1e-3,
    );

    // vm: escrow deploy, payout and registry submit, as Platform drives them.
    let vm = Vm::default();
    let mut state = WorldState::new();
    let (provider, trigger) = (
        Address::from_label("micro-provider"),
        Address::from_label("micro-trigger"),
    );
    let wallet = Address::from_label("micro-wallet");
    state.credit(provider, Ether::from_ether(1_000_000));
    state.credit(trigger, Ether::from_ether(1_000));
    state.credit(wallet, Ether::from_ether(1_000));
    let mut escrows = Vec::new();
    out.insert(
        "vm.escrow_deploy_us",
        time_ns(5, 4, |_| {
            let deployed = SraEscrow::deploy(
                &vm,
                &mut state,
                provider,
                Ether::from_ether(1000),
                Ether::from_ether(25),
                trigger,
                (0, 0),
            );
            escrows.push(deployed.expect("escrow deploys"));
        }) * 1e-3,
    );
    let mut gas = Vec::new();
    out.insert(
        "vm.escrow_payout_us",
        time_ns(5, 4, |i| {
            let receipt = escrows[i].payout(&vm, &mut state, trigger, wallet, 1, (0, 0));
            gas.push(receipt.expect("payout succeeds").gas_used as f64);
        }) * 1e-3,
    );
    out.insert("vm.gas_per_payout", median(&gas));
    let registry = ReportRegistry::deploy(&vm, &mut state, trigger).expect("registry deploys");
    out.insert(
        "vm.registry_submit_us",
        time_ns(5, 4, |i| {
            let submitted = registry.submit(&vm, &mut state, wallet, &digests[i % 64], (0, 0));
            black_box(submitted.expect("registry accepts"));
        }) * 1e-3,
    );

    // detect: building a 16-vulnerability image and verifying its claims.
    let library = VulnLibrary::synthetic(500, seed);
    let claims = library
        .sample_ids(16, &mut rng)
        .expect("library is large enough");
    let mut build = || {
        IoTSystem::build("micro", "1.0", &library, claims.clone(), &mut rng).expect("ids are known")
    };
    let system = build();
    out.insert(
        "detect.system_build_us",
        time_ns(5, 8, |_| {
            black_box(build());
        }) * 1e-3,
    );
    let verifier = AutoVerifier::new(&library);
    out.insert(
        "detect.autoverif_us",
        time_ns(5, 8, |_| {
            black_box(verifier.auto_verif(&system, &claims));
        }) * 1e-3,
    );
    out
}
