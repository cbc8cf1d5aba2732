//! # SCVM — the SmartCrowd contract virtual machine
//!
//! The paper implements its incentive logic as "SmartCrowd contracts with
//! 350 lines of Solidity" executed by the Ethereum VM (§VII). This crate is
//! the from-scratch substitute: a deterministic, gas-metered, 256-bit stack
//! machine with persistent per-contract storage, value transfer, and an
//! assembler — everything the SmartCrowd contracts need:
//!
//! - **deterministic execution** so every IoT provider reaches the same
//!   post-state (the consensus requirement of §V-C);
//! - **gas metering** so contract deployment and report submission carry
//!   real, measurable costs (the 0.095-ether SRA deployment and 0.011-ether
//!   report costs of §VII-A/B);
//! - **escrowed balances** so insurance deposits are held by code, not by a
//!   trustworthy third party ("the security deposit can be allocated to
//!   detectors as incentives, automatically", §V-D);
//! - **automatic triggering**: a confirmed record invokes a contract entry
//!   point with no human in the loop (§IV, Phase #4).
//!
//! # Deploy-time verification
//!
//! [`WorldState::deploy_contract`] and [`Vm::deploy`] refuse bytecode the
//! deploy gate ([`verify`]) rejects, returning the decode errors or
//! [`VmError::Verify`]: provable stack faults, bad static jumps,
//! target-less dynamic jumps, `SWAP 0` and provable escrow leaks. The gate
//! is the static [`analysis`] pipeline; the [`Analysis`] it returns also
//! carries the loop-aware gas verdict, the storage-effect summary and the
//! economic-safety report, which `scvm-lint` prints. Per-opcode stack
//! effects are `analysis::cfg::stack_effect`.
//!
//! Tests that must exercise the interpreter's own runtime checks plant
//! bytecode directly via [`WorldState::account_mut`], bypassing the gate.
//!
//! # Example
//!
//! ```
//! use smartcrowd_vm::asm::assemble;
//! use smartcrowd_vm::exec::{CallContext, Vm};
//! use smartcrowd_vm::state::WorldState;
//! use smartcrowd_chain::Ether;
//! use smartcrowd_crypto::Address;
//!
//! // A contract that stores 42 at storage slot 0 and returns it.
//! let code = assemble(
//!     "PUSH 42\n PUSH 0\n SSTORE\n PUSH 0\n SLOAD\n RETURNVAL\n",
//! ).unwrap();
//! let mut state = WorldState::new();
//! let owner = Address::from_label("owner");
//! state.credit(owner, Ether::from_ether(10));
//! let contract = state.deploy_contract(owner, code).unwrap();
//! let mut vm = Vm::default();
//! let receipt = vm
//!     .call(&mut state, CallContext::new(owner, contract), &[])
//!     .unwrap();
//! assert!(receipt.success);
//! assert_eq!(receipt.return_value.unwrap().low_u64(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The unwrap/expect wall (configured in the workspace clippy.toml): a panic
// in the VM can split the replicated state machine, so library code must
// surface failures as typed errors. Tests are exempt.
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod analysis;
pub mod asm;
pub mod cov;
pub mod error;
pub mod exec;
pub mod gas;
pub mod isa;
pub mod receipt;
pub mod state;
pub mod verify;

pub use analysis::{analyze, Analysis, GasVerdict, SafetyReport, SafetyVerdict};
pub use cov::{CoverageAccumulator, CoverageMap};
pub use error::VmError;
pub use exec::{CallContext, Vm};
pub use receipt::Receipt;
pub use state::WorldState;
pub use verify::VerifyError;
