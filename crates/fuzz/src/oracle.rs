//! Differential oracles: one concrete execution cross-checked against
//! the abstract interpreter's verdicts.
//!
//! Soundness of each check (see DESIGN.md §14 for the full argument):
//!
//! - **gas-bound** — `GasVerdict::Bounded(g)` promises no execution
//!   charges more than `g` beyond the intrinsic call gas. A runtime
//!   `OutOfGas` under a budget of exactly `g` is only *suspicious*: a
//!   single oversized dynamic charge (huge `KECCAK` length, huge memory
//!   offset) can trip the meter on a path that would have faulted
//!   anyway with more gas. The oracle therefore re-runs the case with a
//!   generous budget: if the re-run halts cleanly (or still runs out of
//!   gas), the analyzer undercounted — a confirmed violation; if it
//!   traps, the original `OutOfGas` merely masked a legitimate fault.
//! - **clean-trap** — a program the analysis pipeline accepts has been
//!   proven free of stack faults and decode errors on *all* paths, so a
//!   runtime `StackUnderflow`/`StackOverflow`/`InvalidOpcode`/
//!   `TruncatedImmediate` after acceptance is a soundness bug. Dynamic
//!   `BadJump` and `OutOfGas` are intentionally outside the proof.
//! - **phantom-fault** — `DivByZero` and `OobMemory` diagnostics claim
//!   *provable* facts ("provably zero divisor", "always exceeds the
//!   limit"). If a trace shows the flagged pc executing with a nonzero
//!   divisor, or execution continuing past a flagged memory op, the
//!   claim was wrong.
//! - **storage-effect** — when every `SSTORE` key resolved statically
//!   (`!writes_unknown`), the summary's write set is a may-write
//!   over-approximation of *all* executions: a runtime write to a slot
//!   outside the set disproves it.
//! - **safety-verdict** — two checks against the balance-flow domain.
//!   A provable escrow leak says the transfer at `leak.pc` can never
//!   pay once the drain at `drain_pc` ran, so execution continuing past
//!   that transfer with a positive amount contradicts the proof. And a
//!   resolved [`smartcrowd_vm::analysis::FlowExpr`] transfer amount is
//!   a closed function of the
//!   call's inputs — the fuzz world starts every contract with empty
//!   storage, so the oracle evaluates it concretely and compares
//!   against the top-of-stack word the trace recorded at the site.
//!   (`ConservesEscrow` itself is cross-checked at sequence level by
//!   the native differential's deposit/outflow ledger — see
//!   [`crate::native`].)
//!
//! Gas-verdict `Unbounded { witness_block }` claims are not refutable
//! by any single run, but a witness block that *no* execution of a
//! program ever enters is suspicious (a phantom witness would hide a
//! missed `Bounded` proof); [`CaseOutcome::gas_witness`] feeds the
//! fuzzer's corpus-wide suspicious-witness report.

use crate::input::FuzzInput;
use smartcrowd_chain::Ether;
use smartcrowd_crypto::{Address, U256};
use smartcrowd_vm::analysis::{DiagnosticKind, SafetyReport, StorageSummary};
use smartcrowd_vm::cov::CoverageMap;
use smartcrowd_vm::exec::{address_to_word, CallContext, TraceStep, Vm};
use smartcrowd_vm::isa::Op;
use smartcrowd_vm::{analyze, gas, GasVerdict, VmError, WorldState};
use std::fmt;

/// Interpreter step limit per fuzz execution.
const STEP_LIMIT: u64 = 4_096;

/// A bug the harness can plant to prove the oracle pipeline end to end
/// (the fuzzing analogue of the chaos harness's `PlantedBug`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// Halve every `Bounded(g)` verdict before using it as the budget —
    /// the signature of a broken widening/trip-count analysis. Caught
    /// by the gas-bound oracle.
    GasBoundHalved,
    /// Skew the native escrow model's payout by one wei. Caught by the
    /// native-differential oracle (see [`crate::native`]).
    EscrowPayoutDrift,
}

/// A confirmed analyzer/VM disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Runtime `OutOfGas` under a `Bounded(claimed)` budget, confirmed
    /// by a clean (or still-starving) generous re-run.
    GasBound {
        /// The analyzer's claimed execution-gas bound.
        claimed: u64,
        /// What the generous re-run did: `None` = halted cleanly,
        /// `Some(fault)` = still out of gas.
        rerun_fault: Option<VmError>,
    },
    /// A trap the deploy-gate proof rules out fired anyway.
    CleanTrap {
        /// The impossible fault.
        fault: VmError,
    },
    /// A provable-fault diagnostic that did not manifest at its pc.
    PhantomFault {
        /// The diagnostic kind (`DivByZero` or `OobMemory`).
        kind: DiagnosticKind,
        /// The flagged program counter.
        pc: usize,
    },
    /// The SCVM bytecode and the native Rust model of an in-repo
    /// contract disagreed on an operation's outcome.
    NativeDivergence {
        /// Which operation in the sequence diverged.
        op: String,
        /// What differed.
        detail: String,
    },
    /// A runtime `SSTORE` hit a slot the storage-effect summary calls
    /// untouched (only checked when every key resolved statically).
    StorageEffect {
        /// The writing instruction.
        pc: usize,
        /// The slot outside the summary's write set.
        slot: U256,
    },
    /// A balance-flow claim (escrow-leak witness, resolved transfer
    /// amount, or the escrow conservation ledger) was contradicted by
    /// concrete execution.
    SafetyVerdict {
        /// The refuted claim, as a stable kebab-case label
        /// (`escrow-leak`, `bounded-payout`, `conserves-escrow`,
        /// `all-proved`).
        claim: String,
        /// What contradicted it.
        detail: String,
    },
}

impl Violation {
    /// Stable kebab-case oracle name (telemetry label, dedup key,
    /// generated test names).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::GasBound { .. } => "gas-bound",
            Violation::CleanTrap { .. } => "clean-trap",
            Violation::PhantomFault { .. } => "phantom-fault",
            Violation::NativeDivergence { .. } => "native-divergence",
            Violation::StorageEffect { .. } => "storage-effect",
            Violation::SafetyVerdict { .. } => "safety-verdict",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::GasBound {
                claimed,
                rerun_fault,
            } => match rerun_fault {
                None => write!(
                    f,
                    "analyzer claimed Bounded({claimed}) but the run starved under that \
                     budget and halted cleanly with more gas"
                ),
                Some(e) => write!(
                    f,
                    "analyzer claimed Bounded({claimed}) but the run starved even under a \
                     generous budget ({e})"
                ),
            },
            Violation::CleanTrap { fault } => {
                write!(f, "analysis accepted the program but it trapped: {fault}")
            }
            Violation::PhantomFault { kind, pc } => {
                write!(f, "provable {kind:?} at pc {pc} never manifested")
            }
            Violation::NativeDivergence { op, detail } => {
                write!(f, "native model diverged from bytecode on {op}: {detail}")
            }
            Violation::StorageEffect { pc, slot } => {
                write!(
                    f,
                    "storage summary omits slot {slot} from the write set but SSTORE \
                     at pc {pc} wrote it"
                )
            }
            Violation::SafetyVerdict { claim, detail } => {
                write!(f, "economic-safety claim '{claim}' contradicted: {detail}")
            }
        }
    }
}

/// Everything one fuzz execution produced.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Whether the analysis pipeline accepted the program.
    pub analyzed: bool,
    /// The analyzer's execution-gas bound, when finite.
    pub claimed_gas: Option<u64>,
    /// The runtime fault, if the call trapped.
    pub fault: Option<VmError>,
    /// Edge/storage coverage the execution reached.
    pub coverage: CoverageMap,
    /// The first oracle violation detected, if any.
    pub violation: Option<Violation>,
    /// When the gas verdict was `Unbounded { witness_block }`: the
    /// witness block and whether this execution entered it. The fuzzer
    /// aggregates these per program — a witness no run ever reaches is
    /// reported as suspicious.
    pub gas_witness: Option<(usize, bool)>,
}

fn fuzz_world(input: &FuzzInput) -> (WorldState, Address, Address) {
    let mut state = WorldState::new();
    let owner = Address::from_label("fuzz-owner");
    state.credit(owner, Ether::from_ether(1_000_000));
    // Plant the code directly (bypassing the deploy gate) so even
    // verifier-rejected programs execute and contribute coverage — the
    // same technique the VM's own defense-in-depth tests use.
    let contract = WorldState::contract_address(&owner, 0);
    state.account_mut(contract).code = input.code.clone();
    state.credit(contract, Ether::from_ether(1000));
    (state, owner, contract)
}

/// Zero-fee context: the fuzzer prices gas at 0 wei so funding never
/// interferes with the oracles (the gas *meter* is unaffected).
fn fuzz_ctx(owner: Address, contract: Address, gas_limit: u64) -> CallContext {
    let mut ctx = CallContext::new(owner, contract).with_gas_limit(gas_limit);
    ctx.gas_price_wei = 0;
    ctx
}

/// Traps the deploy-gate proof rules out for accepted programs.
fn impossible_after_accept(e: &VmError) -> bool {
    matches!(
        e,
        VmError::StackUnderflow { .. }
            | VmError::StackOverflow { .. }
            | VmError::InvalidOpcode { .. }
            | VmError::TruncatedImmediate { .. }
    )
}

/// Checks the provable-fault diagnostics against the trace. `DivByZero`
/// must see a zero divisor every time its pc executes; `OobMemory` must
/// fault the execution the moment its pc executes.
fn phantom_fault(
    diags: &[smartcrowd_vm::analysis::Diagnostic],
    trace: &[TraceStep],
    fault: Option<&VmError>,
) -> Option<Violation> {
    for d in diags {
        match d.kind {
            DiagnosticKind::DivByZero => {
                // The divisor is the top of stack before a DIV/MOD.
                let contradicted = trace.iter().any(|s| {
                    s.pc == d.pc
                        && matches!(s.op, Op::Div | Op::Mod)
                        && s.top.map(|t| !t.is_zero()).unwrap_or(false)
                });
                if contradicted {
                    return Some(Violation::PhantomFault {
                        kind: d.kind,
                        pc: d.pc,
                    });
                }
            }
            DiagnosticKind::OobMemory => {
                let Some(idx) = trace.iter().rposition(|s| s.pc == d.pc) else {
                    continue; // never reached: no claim tested
                };
                // "Always exceeds the limit" means execution cannot get
                // past this instruction: either a later step exists, or
                // the flagged step was last *and* the run halted cleanly
                // — both contradict the diagnostic. (Any fault at the
                // flagged step — MemoryLimit, or OutOfGas from the
                // pre-access charge — counts as the fault manifesting.)
                let continued = idx + 1 < trace.len() || fault.is_none();
                if continued {
                    return Some(Violation::PhantomFault {
                        kind: d.kind,
                        pc: d.pc,
                    });
                }
            }
            _ => {}
        }
    }
    None
}

/// Checks the storage-effect summary: with every `SSTORE` key resolved
/// statically, a runtime write outside the declared write set disproves
/// the summary. (The key is the top of stack before the `SSTORE`.)
fn storage_effect(storage: &StorageSummary, trace: &[TraceStep]) -> Option<Violation> {
    if storage.writes_unknown {
        return None;
    }
    trace
        .iter()
        .filter(|s| s.op == Op::SStore)
        .find_map(|s| match s.top {
            Some(key) if !storage.writes.contains(&key) => Some(Violation::StorageEffect {
                pc: s.pc,
                slot: key,
            }),
            _ => None,
        })
}

/// Checks the balance-flow claims against one concrete trace.
///
/// - A provable leak promises the transfer at `leak.pc` can never pay
///   once the drain at `drain_pc` executed: a later execution of the
///   leak pc with a positive amount must fault on the spot
///   (`InsufficientBalance`), so execution continuing past it — or the
///   run halting cleanly — contradicts the proof.
/// - A resolved transfer amount is evaluated concretely (the fuzz world
///   plants the contract fresh, so storage at entry is all zeros and
///   the call carries no value) and compared against the top-of-stack
///   word the trace recorded at the transfer site.
fn safety_contradiction(
    safety: &SafetyReport,
    input: &FuzzInput,
    caller: &U256,
    trace: &[TraceStep],
    fault: Option<&VmError>,
) -> Option<Violation> {
    if let Some(leak) = &safety.leak {
        let drained = trace
            .iter()
            .position(|s| s.pc == leak.drain_pc && s.op == Op::Transfer);
        if let Some(d) = drained {
            let paid = trace.iter().enumerate().skip(d + 1).find(|(_, s)| {
                s.pc == leak.pc
                    && s.op == Op::Transfer
                    && s.top.map(|t| !t.is_zero()).unwrap_or(false)
            });
            if let Some((i, _)) = paid {
                let continued = i + 1 < trace.len() || fault.is_none();
                if continued {
                    return Some(Violation::SafetyVerdict {
                        claim: "escrow-leak".into(),
                        detail: format!(
                            "the provably-dead transfer at pc {} paid out after the \
                             drain at pc {}",
                            leak.pc, leak.drain_pc
                        ),
                    });
                }
            }
        }
    }
    for site in &safety.transfers {
        if !site.amount.is_resolved() {
            continue;
        }
        let Some(predicted) = site
            .amount
            .eval(&input.calldata, caller, &U256::ZERO, &|_| U256::ZERO)
        else {
            continue; // SelfBalance leaf: not evaluable without replay
        };
        let mismatch = trace
            .iter()
            .filter(|s| s.pc == site.pc && s.op == Op::Transfer)
            .find_map(|s| s.top.filter(|actual| *actual != predicted));
        if let Some(actual) = mismatch {
            return Some(Violation::SafetyVerdict {
                claim: "bounded-payout".into(),
                detail: format!(
                    "derived amount {} at pc {} but the VM transferred {actual}",
                    site.amount, site.pc
                ),
            });
        }
    }
    None
}

/// Executes one fuzz case and checks the per-execution oracles.
///
/// The run is a pure function of `(input, planted)`: world setup is
/// fixed, gas is priced at zero, the interpreter stops after
/// `STEP_LIMIT` (4 096) steps and is deterministic, so outcomes are
/// reproducible byte for byte.
pub(crate) fn run_case(input: &FuzzInput, planted: Option<PlantedBug>) -> CaseOutcome {
    let analysis = analyze(&input.code);
    let intrinsic = gas::call_intrinsic_gas(input.calldata.len());
    let (claimed, budget) = match &analysis {
        Ok(a) => match a.gas {
            GasVerdict::Bounded(g) => {
                let claim = if planted == Some(PlantedBug::GasBoundHalved) {
                    g / 2
                } else {
                    g
                };
                (Some(claim), intrinsic.saturating_add(claim))
            }
            GasVerdict::Unbounded { .. } => (None, gas::DEFAULT_GAS_LIMIT),
        },
        Err(_) => (None, gas::DEFAULT_GAS_LIMIT),
    };

    let (mut state, owner, contract) = fuzz_world(input);
    let vm = Vm::default().with_step_limit(STEP_LIMIT);
    let mut coverage = CoverageMap::new();
    let run = vm.call_traced_with_coverage(
        &mut state,
        fuzz_ctx(owner, contract, budget),
        &input.calldata,
        &mut coverage,
    );
    let (receipt, trace) = match run {
        Ok(pair) => pair,
        Err(e) => {
            // Pre-execution failure (cannot happen with the fixed world,
            // kept as a defensive arm): no oracle claim is testable.
            return CaseOutcome {
                analyzed: analysis.is_ok(),
                claimed_gas: claimed,
                fault: Some(e),
                coverage,
                violation: None,
                gas_witness: None,
            };
        }
    };

    let mut violation = None;
    if let Ok(a) = &analysis {
        // Oracle 2: a trap the acceptance proof rules out.
        if let Some(f) = receipt
            .fault
            .as_ref()
            .filter(|f| impossible_after_accept(f))
        {
            violation = Some(Violation::CleanTrap { fault: f.clone() });
        }
        // Oracle 1: OutOfGas under the claimed bound, confirmed by a
        // generous re-run.
        if violation.is_none() {
            if let (Some(g), Some(VmError::OutOfGas { .. })) = (claimed, receipt.fault.as_ref()) {
                let generous = intrinsic
                    .saturating_add(g.saturating_mul(64))
                    .saturating_add(1_000_000);
                let (mut state2, owner2, contract2) = fuzz_world(input);
                let rerun = vm.call(
                    &mut state2,
                    fuzz_ctx(owner2, contract2, generous),
                    &input.calldata,
                );
                if let Ok(r2) = rerun {
                    match r2.fault {
                        None => {
                            violation = Some(Violation::GasBound {
                                claimed: g,
                                rerun_fault: None,
                            });
                        }
                        Some(f2 @ VmError::OutOfGas { .. }) => {
                            violation = Some(Violation::GasBound {
                                claimed: g,
                                rerun_fault: Some(f2),
                            });
                        }
                        // Any other trap: the OutOfGas masked a fault the
                        // bound never promised to price. Benign.
                        Some(_) => {}
                    }
                }
            }
        }
        // Oracle 3: provable-fault diagnostics must manifest.
        if violation.is_none() {
            violation = phantom_fault(&a.diagnostics, &trace, receipt.fault.as_ref());
        }
        // Oracle 4: runtime writes must stay inside the static write set.
        if violation.is_none() {
            violation = storage_effect(&a.storage, &trace);
        }
        // Oracle 5: balance-flow claims against the concrete trace.
        if violation.is_none() {
            violation = safety_contradiction(
                &a.safety,
                input,
                &address_to_word(&owner),
                &trace,
                receipt.fault.as_ref(),
            );
        }
    }

    let gas_witness = match &analysis {
        Ok(a) => match a.gas {
            GasVerdict::Unbounded { witness_block } => {
                Some((witness_block, trace.iter().any(|s| s.pc == witness_block)))
            }
            GasVerdict::Bounded(_) => None,
        },
        Err(_) => None,
    };

    CaseOutcome {
        analyzed: analysis.is_ok(),
        claimed_gas: claimed,
        fault: receipt.fault,
        coverage,
        violation,
        gas_witness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_vm::asm::assemble;

    fn case(src: &str) -> FuzzInput {
        FuzzInput::from_code(assemble(src).unwrap())
    }

    #[test]
    fn clean_contract_has_no_violation() {
        let input = case("PUSH 2\nPUSH 3\nADD\nRETURNVAL\n");
        let out = run_case(&input, None);
        assert!(out.analyzed);
        assert!(out.violation.is_none(), "got {:?}", out.violation);
        assert!(out.fault.is_none());
        assert!(out.claimed_gas.is_some());
    }

    #[test]
    fn bounded_loop_runs_within_its_claimed_budget() {
        // The gas-verdict oracle runs the program with *exactly* the
        // claimed bound as its budget; a sound bound never starves.
        let input = case("PUSH 10\nloop:\nJUMPDEST\nPUSH 1\nSUB\nDUP 0\nPUSH @loop\nJUMPI\nSTOP\n");
        let out = run_case(&input, None);
        assert!(out.analyzed);
        assert!(out.claimed_gas.is_some(), "loop bound should be finite");
        assert!(out.violation.is_none(), "got {:?}", out.violation);
        assert!(out.fault.is_none(), "fault: {:?}", out.fault);
    }

    #[test]
    fn planted_gas_bug_is_caught() {
        let input = case("PUSH 1\nPUSH 2\nADD\nPOP\nSTOP\n");
        let out = run_case(&input, Some(PlantedBug::GasBoundHalved));
        assert!(
            matches!(out.violation, Some(Violation::GasBound { .. })),
            "halved budget must starve and confirm: {:?}",
            out.violation
        );
    }

    #[test]
    fn oob_diagnostic_that_manifests_is_not_flagged() {
        // Provably OOB MLoad: diagnostic fires, and so does the runtime
        // MemoryLimit trap — claim and runtime agree, no violation.
        let oob = (smartcrowd_vm::exec::MEMORY_LIMIT as u64) + 1;
        let input = case(&format!("PUSH {oob}\nMLOAD\nPOP\nSTOP\n"));
        let out = run_case(&input, None);
        assert!(out.analyzed);
        assert!(out.violation.is_none(), "got {:?}", out.violation);
        assert!(
            matches!(out.fault, Some(VmError::MemoryLimit { .. })),
            "fault: {:?}",
            out.fault
        );
    }

    #[test]
    fn unverified_garbage_still_yields_coverage() {
        // Decodable but unverifiable (ADD on an empty stack): rejected by
        // analysis, traps at runtime — the synthetic fault edge still
        // lands in the coverage map, so even broken candidates feed the
        // corpus-novelty signal.
        let input = FuzzInput::from_code(vec![Op::Add as u8]);
        let out = run_case(&input, None);
        assert!(!out.analyzed);
        assert!(out.violation.is_none());
        assert!(matches!(out.fault, Some(VmError::StackUnderflow { .. })));
        assert!(out.coverage.hit_slots().0 >= 1);
    }

    #[test]
    fn undecodable_garbage_fails_before_execution() {
        // An undecodable stream never reaches the interpreter loop (the
        // jumpdest pre-scan rejects it), so there is no coverage and no
        // oracle claim to test.
        let input = FuzzInput::from_code(vec![0xfe, 0x01, 0x02]);
        let out = run_case(&input, None);
        assert!(!out.analyzed);
        assert!(out.violation.is_none());
        assert!(out.fault.is_some());
        assert_eq!(out.coverage.hit_slots(), (0, 0, 0));
    }

    #[test]
    fn phantom_divzero_detection_works_on_fake_diag() {
        // Craft a diagnostic claiming a provably-zero divisor at the DIV
        // of `10 / 2` and check the trace-based contradiction fires.
        let input = case("PUSH 10\nPUSH 2\nDIV\nRETURNVAL\n");
        let (mut state, owner, contract) = fuzz_world(&input);
        let mut cov = CoverageMap::new();
        let (_, trace) = Vm::default()
            .call_traced_with_coverage(
                &mut state,
                fuzz_ctx(owner, contract, gas::DEFAULT_GAS_LIMIT),
                &[],
                &mut cov,
            )
            .unwrap();
        let fake = smartcrowd_vm::analysis::Diagnostic {
            severity: smartcrowd_vm::analysis::Severity::Warning,
            kind: DiagnosticKind::DivByZero,
            pc: 18, // the DIV after two 9-byte PUSHes
            message: String::new(),
        };
        let v = phantom_fault(&[fake], &trace, None);
        assert!(
            matches!(
                v,
                Some(Violation::PhantomFault {
                    kind: DiagnosticKind::DivByZero,
                    pc: 18
                })
            ),
            "got {v:?}"
        );
    }

    /// Replays `input` and returns its trace.
    fn trace_of(input: &FuzzInput) -> Vec<TraceStep> {
        let (mut state, owner, contract) = fuzz_world(input);
        let mut cov = CoverageMap::new();
        Vm::default()
            .call_traced_with_coverage(
                &mut state,
                fuzz_ctx(owner, contract, gas::DEFAULT_GAS_LIMIT),
                &input.calldata,
                &mut cov,
            )
            .unwrap()
            .1
    }

    #[test]
    fn storage_writes_inside_the_summary_are_clean() {
        let input = case("PUSH 7\nPUSH 0\nSSTORE\nCALLER\nPUSH 3\nSSTORE\nSTOP\n");
        let out = run_case(&input, None);
        assert!(out.analyzed);
        assert!(out.violation.is_none(), "got {:?}", out.violation);
    }

    #[test]
    fn storage_effect_detection_works_on_fake_summary() {
        // A summary claiming only slot 9 is written, against a trace
        // that writes slot 0: the oracle must flag the SSTORE.
        let input = case("PUSH 7\nPUSH 0\nSSTORE\nSTOP\n");
        let trace = trace_of(&input);
        let mut summary = smartcrowd_vm::analysis::StorageSummary::default();
        summary.writes.insert(U256::from_u64(9));
        let v = storage_effect(&summary, &trace);
        assert!(
            matches!(v, Some(Violation::StorageEffect { pc: 18, .. })),
            "got {v:?}"
        );
        // With unresolved keys the summary makes no claim at all.
        summary.writes_unknown = true;
        assert!(storage_effect(&summary, &trace).is_none());
    }

    #[test]
    fn safety_verdict_oracle_accepts_real_contracts() {
        // Both shipped contracts carry resolved transfer amounts; the
        // concrete evaluation must agree with the interpreter on every
        // dispatch arm the fuzz inputs reach.
        for asm in [
            smartcrowd_core::contracts::SRA_ESCROW_ASM,
            smartcrowd_core::contracts::REPORT_REGISTRY_ASM,
        ] {
            for selector in 0u8..3 {
                let mut input = FuzzInput::from_code(assemble(asm).unwrap());
                input.calldata = vec![0u8; 32];
                input.calldata[31] = selector;
                let out = run_case(&input, None);
                assert!(out.analyzed);
                assert!(out.violation.is_none(), "got {:?}", out.violation);
            }
        }
    }

    #[test]
    fn leak_contradiction_fires_when_the_dead_transfer_pays() {
        use smartcrowd_vm::analysis::{LeakWitness, SafetyReport};
        // Two one-wei transfers that both succeed. A fabricated leak
        // claim naming them drain/leak is contradicted by the second
        // one paying out (execution continues to STOP).
        let input = case("CALLER\nPUSH 1\nTRANSFER\nCALLER\nPUSH 1\nTRANSFER\nSTOP\n");
        let trace = trace_of(&input);
        let transfer_pcs: Vec<usize> = trace
            .iter()
            .filter(|s| s.op == Op::Transfer)
            .map(|s| s.pc)
            .collect();
        assert_eq!(transfer_pcs.len(), 2);
        let report = SafetyReport {
            leak: Some(LeakWitness {
                pc: transfer_pcs[1],
                drain_pc: transfer_pcs[0],
                witness: vec![0],
            }),
            ..SafetyReport::default()
        };
        let caller = address_to_word(&Address::from_label("fuzz-owner"));
        let v = safety_contradiction(&report, &input, &caller, &trace, None);
        assert!(
            matches!(&v, Some(Violation::SafetyVerdict { claim, .. }) if claim == "escrow-leak"),
            "got {v:?}"
        );
    }

    #[test]
    fn amount_differential_fires_on_a_wrong_resolved_expression() {
        use smartcrowd_vm::analysis::{FlowExpr, SafetyReport, TransferSite};
        // The program transfers 6 wei; a fabricated site claiming the
        // resolved amount is 5 must be contradicted by the trace.
        let input = case("CALLER\nPUSH 6\nTRANSFER\nSTOP\n");
        let trace = trace_of(&input);
        let pc = trace.iter().find(|s| s.op == Op::Transfer).unwrap().pc;
        let site = |amount: FlowExpr| TransferSite {
            pc,
            block: 0,
            amount,
            to: FlowExpr::Caller,
            selectors: Vec::new(),
            guarded: false,
            in_unbounded_loop: false,
            drains: false,
        };
        let caller = address_to_word(&Address::from_label("fuzz-owner"));
        let wrong = SafetyReport {
            transfers: vec![site(FlowExpr::Const(U256::from_u64(5)))],
            ..SafetyReport::default()
        };
        let v = safety_contradiction(&wrong, &input, &caller, &trace, None);
        assert!(
            matches!(&v, Some(Violation::SafetyVerdict { claim, .. }) if claim == "bounded-payout"),
            "got {v:?}"
        );
        let right = SafetyReport {
            transfers: vec![site(FlowExpr::Const(U256::from_u64(6)))],
            ..SafetyReport::default()
        };
        assert!(safety_contradiction(&right, &input, &caller, &trace, None).is_none());
    }

    #[test]
    fn unexecuted_gas_witness_is_reported_suspicious() {
        // The unbounded loop is gated on calldata word 0; with empty
        // calldata the branch falls through and the witness block never
        // executes.
        let src = "PUSH 0\nCALLDATALOAD\nPUSH @loop\nJUMPI\nSTOP\n\
                   loop:\nPUSH 1\nPUSH @loop\nJUMPI\nSTOP\n";
        let input = case(src);
        let out = run_case(&input, None);
        assert!(out.analyzed);
        let (block, executed) = out.gas_witness.expect("verdict must be unbounded");
        assert!(!executed, "block {block} must not run on empty calldata");

        // Selecting the loop executes the witness (and starves on gas,
        // which the unbounded verdict makes benign).
        let mut looping = input.clone();
        looping.calldata = vec![0u8; 32];
        looping.calldata[31] = 1;
        let out2 = run_case(&looping, None);
        let (block2, executed2) = out2.gas_witness.expect("still unbounded");
        assert_eq!(block, block2);
        assert!(executed2);
        assert!(out2.violation.is_none(), "got {:?}", out2.violation);
    }
}
