//! Criterion benchmarks for the SCVM: assembly, contract deployment, and
//! the two SmartCrowd contract hot paths (escrow payout, registry submit).

use criterion::{criterion_group, criterion_main, Criterion};
use smartcrowd_chain::Ether;
use smartcrowd_core::contracts::{ReportRegistry, SraEscrow, REPORT_REGISTRY_ASM, SRA_ESCROW_ASM};
use smartcrowd_crypto::Address;
use smartcrowd_vm::analysis::analyze;
use smartcrowd_vm::asm::assemble;
use smartcrowd_vm::exec::{CallContext, Vm};
use smartcrowd_vm::verify::verify;
use smartcrowd_vm::WorldState;
use std::hint::black_box;

fn bench_assembler(c: &mut Criterion) {
    c.bench_function("vm/assemble-escrow", |b| {
        b.iter(|| assemble(black_box(SRA_ESCROW_ASM)).unwrap())
    });
    c.bench_function("vm/assemble-registry", |b| {
        b.iter(|| assemble(black_box(REPORT_REGISTRY_ASM)).unwrap())
    });
}

fn bench_interpreter(c: &mut Criterion) {
    // A compute-heavy loop: sum 1..=100.
    let code = assemble(
        "
        PUSH 100\nPUSH 0\nSSTORE\n
    loop:
        PUSH 0\nSLOAD\nISZERO\nPUSH @end\nJUMPI\n
        PUSH 1\nSLOAD\nPUSH 0\nSLOAD\nADD\nPUSH 1\nSSTORE\n
        PUSH 0\nSLOAD\nPUSH 1\nSUB\nPUSH 0\nSSTORE\n
        PUSH 1\nPUSH @loop\nJUMPI\n
    end:
        JUMPDEST\nPUSH 1\nSLOAD\nRETURNVAL\n
    ",
    )
    .unwrap();
    let mut state = WorldState::new();
    let owner = Address::from_label("owner");
    state.credit(owner, Ether::from_ether(1_000_000));
    let contract = state.deploy_contract(owner, code).unwrap();
    let vm = Vm::default();
    c.bench_function("vm/loop-100-iterations", |b| {
        b.iter(|| {
            let mut s = state.clone();
            vm.call(&mut s, CallContext::new(owner, contract), &[])
                .unwrap()
        })
    });
}

fn bench_verifier(c: &mut Criterion) {
    let escrow = assemble(SRA_ESCROW_ASM).unwrap();
    let registry = assemble(REPORT_REGISTRY_ASM).unwrap();
    c.bench_function("vm/verify-escrow", |b| {
        b.iter(|| verify(black_box(&escrow)).unwrap())
    });
    c.bench_function("vm/verify-registry", |b| {
        b.iter(|| verify(black_box(&registry)).unwrap())
    });

    // A synthetic control-flow-heavy program: 256 guarded segments, each a
    // static forward branch over a short straight-line body. Stresses CFG
    // construction, the fixpoint, and the acyclic gas-bound DP.
    let mut src = String::new();
    for i in 0..256 {
        src.push_str(&format!(
            "PUSH {}\nPUSH @s{i}\nJUMPI\nPUSH {i}\nPUSH {i}\nSSTORE\ns{i}:\n",
            i % 2
        ));
    }
    src.push_str("STOP\n");
    let synthetic = assemble(&src).unwrap();
    c.bench_function("vm/verify-256-blocks", |b| {
        b.iter(|| verify(black_box(&synthetic)).unwrap())
    });
}

fn bench_analysis(c: &mut Criterion) {
    // The full abstract-interpretation pipeline (depth + ranges + loops +
    // gas verdict + diagnostics) on the escrow contract.
    let escrow = assemble(SRA_ESCROW_ASM).unwrap();
    c.bench_function("vm/analyze-escrow", |b| {
        b.iter(|| analyze(black_box(&escrow)).unwrap())
    });

    // 64 back-to-back counter loops: stresses the SCC decomposition, the
    // range fixpoint with widening, and the trip-count pattern matcher.
    let mut src = String::new();
    for i in 0..64 {
        src.push_str(&format!(
            "PUSH {}\nl{i}:\nJUMPDEST\nPUSH 1\nSUB\nDUP 0\nPUSH @l{i}\nJUMPI\nPOP\n",
            10 + i
        ));
    }
    src.push_str("STOP\n");
    let loopy = assemble(&src).unwrap();
    c.bench_function("vm/analyze-64-counter-loops", |b| {
        b.iter(|| {
            let a = analyze(black_box(&loopy)).unwrap();
            assert!(a.gas.is_bounded());
            a
        })
    });

    // 24 guarded calldata-amount transfers in sequence: stresses the
    // balance-flow domain (symbolic amount expressions, guarded-edge
    // reachability, per-site verdict composition) far past the two
    // transfer sites the shipped escrow has.
    let mut flows = String::new();
    for i in 0..24 {
        flows.push_str(&format!(
            "CALLER\nPUSH 4\nSLOAD\nEQ\nISZERO\nPUSH @fail\nJUMPI\n\
             CALLER\nPUSH {}\nCALLDATALOAD\nTRANSFER\n",
            32 * i
        ));
    }
    flows.push_str("STOP\nfail:\nPUSH 1\nREVERT\n");
    let flows = assemble(&flows).unwrap();
    c.bench_function("vm/analyze-24-guarded-transfers", |b| {
        b.iter(|| {
            let a = analyze(black_box(&flows)).unwrap();
            assert!(a.safety.conserves_escrow.is_proved());
            assert_eq!(a.safety.transfers.len(), 24);
            a
        })
    });
}

fn bench_contracts(c: &mut Criterion) {
    let vm = Vm::default();
    c.bench_function("vm/escrow-deploy+init", |b| {
        b.iter(|| {
            let mut state = WorldState::new();
            let provider = Address::from_label("p");
            state.credit(provider, Ether::from_ether(2000));
            SraEscrow::deploy(
                &vm,
                &mut state,
                provider,
                Ether::from_ether(1000),
                Ether::from_ether(25),
                Address::from_label("consensus"),
                (0, 0),
            )
            .unwrap()
        })
    });

    let mut state = WorldState::new();
    let provider = Address::from_label("p");
    let trigger = Address::from_label("consensus");
    state.credit(provider, Ether::from_ether(2_000_000));
    state.credit(trigger, Ether::from_ether(1_000_000));
    // μ = 1 wei and a 10²⁴-wei escrow: criterion's warmup cannot drain it.
    let escrow = SraEscrow::deploy(
        &vm,
        &mut state,
        provider,
        Ether::from_ether(1_000_000),
        Ether::from_wei(1),
        trigger,
        (0, 0),
    )
    .unwrap();
    let wallet = Address::from_label("detector");
    state.credit(wallet, Ether::from_ether(1_000_000)); // gas float
    c.bench_function("vm/escrow-payout", |b| {
        b.iter(|| {
            escrow
                .payout(&vm, &mut state, trigger, wallet, 1, (0, 0))
                .unwrap()
        })
    });

    let registry = ReportRegistry::deploy(&vm, &mut state, trigger).unwrap();
    c.bench_function("vm/registry-submit", |b| {
        let mut i = 0u8;
        b.iter(|| {
            i = i.wrapping_add(1);
            registry
                .submit(&vm, &mut state, wallet, &[i; 32], (0, 0))
                .unwrap()
        })
    });
}

/// Coverage-hook overhead guard.
///
/// `Vm::call` threads a zero-sized [`NoCov`](smartcrowd_vm::cov::CovSink)
/// sink through the interpreter loop; monomorphization must compile the
/// uninstrumented path down to the pre-instrumentation loop. This bench
/// times the plain and instrumented paths in interleaved rounds and
/// **panics** (nonzero exit — CI treats it as a failure) if the plain
/// path stops being at least as fast as the instrumented one, which is
/// the signature of the hook leaking cost into the hot path (e.g. a
/// dynamic-dispatch or branch-per-opcode regression).
fn bench_coverage_hook(c: &mut Criterion) {
    use smartcrowd_vm::CoverageMap;
    use std::time::Instant;

    // The same compute-heavy loop as `bench_interpreter`: jump-dense, so
    // a leaky edge hook would show up immediately.
    let code = assemble(
        "
        PUSH 100\nPUSH 0\nSSTORE\n
    loop:
        PUSH 0\nSLOAD\nISZERO\nPUSH @end\nJUMPI\n
        PUSH 1\nSLOAD\nPUSH 0\nSLOAD\nADD\nPUSH 1\nSSTORE\n
        PUSH 0\nSLOAD\nPUSH 1\nSUB\nPUSH 0\nSSTORE\n
        PUSH 1\nPUSH @loop\nJUMPI\n
    end:
        JUMPDEST\nPUSH 1\nSLOAD\nRETURNVAL\n
    ",
    )
    .unwrap();
    let mut state = WorldState::new();
    let owner = Address::from_label("owner");
    state.credit(owner, Ether::from_ether(1_000_000));
    let contract = state.deploy_contract(owner, code).unwrap();
    let vm = Vm::default();

    c.bench_function("vm/loop-100-coverage-off", |b| {
        b.iter(|| {
            let mut s = state.clone();
            vm.call(&mut s, CallContext::new(owner, contract), &[])
                .unwrap()
        })
    });
    let mut cov = CoverageMap::new();
    c.bench_function("vm/loop-100-coverage-on", |b| {
        b.iter(|| {
            let mut s = state.clone();
            cov.clear();
            vm.call_with_coverage(&mut s, CallContext::new(owner, contract), &[], &mut cov)
                .unwrap()
        })
    });

    // Paired guard measurement: alternate plain/instrumented rounds so
    // clock drift and cache state hit both sides equally.
    const ROUNDS: usize = 24;
    const ITERS: usize = 30;
    let mut plain = Vec::with_capacity(ROUNDS);
    let mut instrumented = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..ITERS {
            let mut s = state.clone();
            black_box(
                vm.call(&mut s, CallContext::new(owner, contract), &[])
                    .unwrap(),
            );
        }
        plain.push(t.elapsed());

        let t = Instant::now();
        for _ in 0..ITERS {
            let mut s = state.clone();
            cov.clear();
            black_box(
                vm.call_with_coverage(&mut s, CallContext::new(owner, contract), &[], &mut cov)
                    .unwrap(),
            );
        }
        instrumented.push(t.elapsed());
    }
    plain.sort();
    instrumented.sort();
    let plain_med = plain[ROUNDS / 2].as_secs_f64();
    let instr_med = instrumented[ROUNDS / 2].as_secs_f64();
    let ratio = plain_med / instr_med;
    println!(
        "vm/coverage-hook-guard                   off/on ratio: {ratio:.3} \
         (off {off:.4} ms, on {on:.4} ms per round)",
        off = plain_med * 1e3,
        on = instr_med * 1e3,
    );
    // The instrumented path does strictly more work per jump and storage
    // op; the uninstrumented path must not cost more than it (25% noise
    // margin for shared CI runners).
    assert!(
        ratio <= 1.25,
        "coverage hook is no longer free when disabled: \
         plain path is {ratio:.2}x the instrumented path"
    );
}

criterion_group!(
    benches,
    bench_assembler,
    bench_interpreter,
    bench_verifier,
    bench_analysis,
    bench_contracts,
    bench_coverage_hook
);
criterion_main!(benches);
