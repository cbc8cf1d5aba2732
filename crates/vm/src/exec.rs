//! The SCVM interpreter.
//!
//! Execution is fully deterministic: the same `(state, context, calldata)`
//! triple always produces the same receipt and post-state on every IoT
//! provider, which is what lets SmartCrowd's PoW consensus agree on
//! incentive payouts without a central authority (§V-D).
//!
//! ## Operand conventions
//!
//! Unlike the EVM's reversed operand order, SCVM binary operators read
//! naturally from the assembly: `PUSH a, PUSH b, SUB` computes `a − b`.
//! `PUSH value, PUSH key, SSTORE` stores `value` at `key`;
//! `PUSH to, PUSH amount, TRANSFER` pays `amount` wei to `to`;
//! `PUSH cond, PUSH dest, JUMPI` jumps to `dest` when `cond ≠ 0`.

use crate::cov::{CovSink, CoverageMap, NoCov};
use crate::error::VmError;
use crate::gas;
use crate::isa::{analyze_jumpdests, Op, OpClass};
use crate::receipt::Receipt;
use crate::state::WorldState;
use smartcrowd_chain::Ether;
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::{Address, U256};

/// Maximum operand-stack depth.
pub(crate) const STACK_LIMIT: usize = 1024;

/// Maximum scratch-memory size in bytes.
pub const MEMORY_LIMIT: usize = 1 << 20;

/// Default instruction budget (runaway-loop guard independent of gas).
pub const STEP_LIMIT: u64 = 1_000_000;

/// Immutable parameters of one call.
#[derive(Debug, Clone)]
pub struct CallContext {
    /// The externally-owned account issuing the call.
    pub caller: Address,
    /// The contract being invoked.
    pub contract: Address,
    /// Value (wei) transferred with the call.
    pub value: Ether,
    /// Block timestamp visible to the contract.
    pub timestamp: u64,
    /// Block height visible to the contract.
    pub block_number: u64,
    /// Gas price in wei per gas unit.
    pub gas_price_wei: u128,
    /// Gas limit for this call.
    pub gas_limit: u64,
}

impl CallContext {
    /// A context with library defaults (zero value, paper gas price).
    pub fn new(caller: Address, contract: Address) -> Self {
        CallContext {
            caller,
            contract,
            value: Ether::ZERO,
            timestamp: 0,
            block_number: 0,
            gas_price_wei: gas::DEFAULT_GAS_PRICE_WEI,
            gas_limit: gas::DEFAULT_GAS_LIMIT,
        }
    }

    /// Sets the call value.
    #[must_use]
    pub fn with_value(mut self, value: Ether) -> Self {
        self.value = value;
        self
    }

    /// Sets block metadata.
    #[must_use]
    pub fn with_block(mut self, timestamp: u64, number: u64) -> Self {
        self.timestamp = timestamp;
        self.block_number = number;
        self
    }

    /// Sets the gas limit.
    #[must_use]
    pub fn with_gas_limit(mut self, limit: u64) -> Self {
        self.gas_limit = limit;
        self
    }
}

/// One executed instruction in a trace (see
/// [`Vm::call_traced_with_coverage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Program counter before execution.
    pub pc: usize,
    /// The decoded opcode.
    pub op: Op,
    /// Gas consumed so far (before this instruction's dynamic charges).
    pub gas_used: u64,
    /// Operand-stack depth before execution.
    pub stack_depth: usize,
    /// Top of stack before execution, if any.
    pub top: Option<U256>,
}

/// The interpreter. Stateless between calls; reusable.
#[derive(Debug, Clone)]
pub struct Vm {
    step_limit: u64,
}

impl Default for Vm {
    fn default() -> Self {
        Vm {
            step_limit: STEP_LIMIT,
        }
    }
}

/// Converts the low 20 bytes of a word into an address.
pub fn word_to_address(w: &U256) -> Address {
    let bytes = w.to_be_bytes();
    let mut out = [0u8; 20];
    out.copy_from_slice(&bytes[12..]);
    Address::from_bytes(out)
}

/// Embeds an address into a word (zero-extended).
pub fn address_to_word(a: &Address) -> U256 {
    let mut bytes = [0u8; 32];
    bytes[12..].copy_from_slice(a.as_bytes());
    U256::from_be_bytes(&bytes)
}

struct Machine<'a> {
    code: &'a [u8],
    jumpdests: Vec<usize>,
    stack: Vec<U256>,
    memory: Vec<u8>,
    pc: usize,
    gas_used: u64,
    gas_limit: u64,
    logs: Vec<U256>,
    /// Executed-instruction tally per [`OpClass`], accumulated locally in
    /// the interpreter loop and flushed to the telemetry counters once per
    /// call, keeping atomics out of the dispatch hot path.
    op_counts: [u64; OpClass::ALL.len()],
}

enum Halt {
    Stop,
    Return(U256),
    Revert(U256),
}

/// Flushes one finished call's locally-accumulated telemetry: outcome
/// counters, the gas histogram and the per-class executed-op counters.
fn record_call_telemetry(m: &Machine<'_>, receipt: &Receipt) {
    use smartcrowd_telemetry::{buckets, counter, histogram};
    counter!("vm.exec.calls").inc();
    histogram!("vm.exec.gas", buckets::GAS).observe(receipt.gas_used);
    if receipt.success {
        counter!("vm.exec.success").inc();
    } else if receipt.fault.is_some() {
        counter!("vm.exec.fault").inc();
    } else {
        counter!("vm.exec.revert").inc();
    }
    for class in OpClass::ALL {
        let n = m.op_counts[class.index()];
        if n == 0 {
            continue;
        }
        let handle = match class {
            OpClass::Stack => counter!("vm.exec.ops", "class" => "stack"),
            OpClass::Arith => counter!("vm.exec.ops", "class" => "arith"),
            OpClass::Crypto => counter!("vm.exec.ops", "class" => "crypto"),
            OpClass::Env => counter!("vm.exec.ops", "class" => "env"),
            OpClass::Storage => counter!("vm.exec.ops", "class" => "storage"),
            OpClass::Memory => counter!("vm.exec.ops", "class" => "memory"),
            OpClass::Control => counter!("vm.exec.ops", "class" => "control"),
            OpClass::Value => counter!("vm.exec.ops", "class" => "value"),
            OpClass::Halt => counter!("vm.exec.ops", "class" => "halt"),
        };
        handle.add(n);
    }
}

impl Vm {
    /// Overrides the instruction budget.
    #[must_use]
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Deploys `code` from `ctx.caller`, charging intrinsic deployment gas.
    /// `ctx.contract` is ignored; the derived address is returned.
    ///
    /// The bytecode must pass the static verifier ([`crate::verify`]):
    /// malformed streams, provable stack faults and bad static jump
    /// targets are rejected before any gas is charged.
    ///
    /// # Errors
    ///
    /// Returns structural code errors ([`VmError::InvalidOpcode`],
    /// [`VmError::TruncatedImmediate`]), verifier rejections
    /// ([`VmError::Verify`]), [`VmError::AddressCollision`], or
    /// [`VmError::InsufficientCallerFunds`] when the deployer cannot pay.
    pub fn deploy(
        &self,
        state: &mut WorldState,
        ctx: &CallContext,
        code: Vec<u8>,
    ) -> Result<(Address, Receipt), VmError> {
        crate::verify::verify(&code)?; // reject malformed code outright
        let gas_used = gas::deploy_intrinsic_gas(code.len());
        if gas_used > ctx.gas_limit {
            return Err(VmError::OutOfGas {
                used: gas_used,
                limit: ctx.gas_limit,
            });
        }
        let fee = gas::gas_to_ether(gas_used, ctx.gas_price_wei);
        let reserve = ctx
            .value
            .checked_add(fee)
            .ok_or(VmError::InsufficientCallerFunds)?;
        if state.balance(&ctx.caller) < reserve {
            return Err(VmError::InsufficientCallerFunds);
        }
        let addr = state.install_verified(ctx.caller, code)?;
        if !ctx.value.is_zero() {
            state.transfer(ctx.caller, addr, ctx.value)?;
        }
        state.debit(ctx.caller, fee)?;
        state.credit(Address::ZERO, fee);
        smartcrowd_telemetry::counter!("vm.deploy.calls").inc();
        Ok((addr, Receipt::success(gas_used, fee)))
    }

    /// Invokes the contract at `ctx.contract` with `calldata`.
    ///
    /// State changes revert on fault or `REVERT`, but the gas fee is always
    /// charged (EVM semantics). Gas fees, here and at deploy, accrue to
    /// [`Address::ZERO`].
    ///
    /// # Errors
    ///
    /// Returns `Err` only for pre-execution failures (unknown contract,
    /// caller cannot reserve value + max fee). Execution failures come back
    /// as an unsuccessful [`Receipt`].
    pub fn call(
        &self,
        state: &mut WorldState,
        ctx: CallContext,
        calldata: &[u8],
    ) -> Result<Receipt, VmError> {
        self.call_inner(state, ctx, calldata, None, &mut NoCov)
    }

    /// Like [`Vm::call`], additionally recording edge coverage into
    /// `cov` (see [`crate::cov`]) — the fuzzer's feedback signal.
    ///
    /// # Errors
    ///
    /// Same contract as [`Vm::call`].
    pub fn call_with_coverage(
        &self,
        state: &mut WorldState,
        ctx: CallContext,
        calldata: &[u8],
        cov: &mut CoverageMap,
    ) -> Result<Receipt, VmError> {
        self.call_inner(state, ctx, calldata, None, cov)
    }

    /// [`Vm::call_with_coverage`] that also records a step-by-step
    /// execution trace — the contract-debugging view (pc, opcode, gas,
    /// stack).
    ///
    /// # Errors
    ///
    /// Same contract as [`Vm::call`].
    pub fn call_traced_with_coverage(
        &self,
        state: &mut WorldState,
        ctx: CallContext,
        calldata: &[u8],
        cov: &mut CoverageMap,
    ) -> Result<(Receipt, Vec<TraceStep>), VmError> {
        let mut trace = Vec::new();
        let receipt = self.call_inner(state, ctx, calldata, Some(&mut trace), cov)?;
        Ok((receipt, trace))
    }

    fn call_inner<C: CovSink>(
        &self,
        state: &mut WorldState,
        ctx: CallContext,
        calldata: &[u8],
        tracer: Option<&mut Vec<TraceStep>>,
        cov: &mut C,
    ) -> Result<Receipt, VmError> {
        let code: Vec<u8> = state
            .account(&ctx.contract)
            .filter(|a| a.is_contract())
            .map(|a| a.code.clone())
            .ok_or(VmError::UnknownAccount)?;
        let max_fee = gas::gas_to_ether(ctx.gas_limit, ctx.gas_price_wei);
        let reserve = ctx
            .value
            .checked_add(max_fee)
            .ok_or(VmError::InsufficientCallerFunds)?;
        if state.balance(&ctx.caller) < reserve {
            return Err(VmError::InsufficientCallerFunds);
        }

        state.begin_transaction();
        if !ctx.value.is_zero() {
            if let Err(e) = state.transfer(ctx.caller, ctx.contract, ctx.value) {
                state.rollback();
                return Err(e);
            }
        }

        let jumpdests = match analyze_jumpdests(&code) {
            Ok(j) => j,
            Err(e) => {
                state.rollback();
                return Err(e);
            }
        };

        let mut m = Machine {
            code: &code,
            jumpdests,
            stack: Vec::with_capacity(64),
            memory: Vec::new(),
            pc: 0,
            gas_used: gas::call_intrinsic_gas(calldata.len()),
            gas_limit: ctx.gas_limit,
            logs: Vec::new(),
            op_counts: [0; OpClass::ALL.len()],
        };

        let outcome = if m.gas_used > m.gas_limit {
            Err(VmError::OutOfGas {
                used: m.gas_limit,
                limit: m.gas_limit,
            })
        } else {
            self.run(&mut m, state, &ctx, calldata, tracer, cov)
        };

        let gas_used = m.gas_used.min(ctx.gas_limit);
        let fee = gas::gas_to_ether(gas_used, ctx.gas_price_wei);
        let mut receipt = Receipt {
            success: false,
            gas_used,
            fee,
            return_value: None,
            revert_code: None,
            logs: m.logs.clone(),
            fault: None,
        };
        match outcome {
            Ok(Halt::Stop) => {
                receipt.success = true;
                state.commit();
            }
            Ok(Halt::Return(v)) => {
                receipt.success = true;
                receipt.return_value = Some(v);
                state.commit();
            }
            Ok(Halt::Revert(code)) => {
                receipt.revert_code = Some(code);
                receipt.logs.clear();
                state.rollback();
            }
            Err(fault) => {
                // Synthetic fault edge: lets coverage distinguish "same pc,
                // different trap class" outcomes (mirrors CoverageMap::fault).
                cov.edge(m.pc, usize::MAX - crate::cov::fault_class(&fault) as usize);
                receipt.fault = Some(fault);
                receipt.logs.clear();
                state.rollback();
            }
        }
        // Fee is charged regardless of outcome.
        state.debit(ctx.caller, fee)?;
        state.credit(Address::ZERO, fee);
        record_call_telemetry(&m, &receipt);
        Ok(receipt)
    }

    fn run<C: CovSink>(
        &self,
        m: &mut Machine<'_>,
        state: &mut WorldState,
        ctx: &CallContext,
        calldata: &[u8],
        mut tracer: Option<&mut Vec<TraceStep>>,
        cov: &mut C,
    ) -> Result<Halt, VmError> {
        let mut steps = 0u64;
        loop {
            steps += 1;
            if steps > self.step_limit {
                return Err(VmError::StepLimit);
            }
            if m.pc >= m.code.len() {
                return Ok(Halt::Stop); // falling off the end halts cleanly
            }
            let op = Op::from_byte(m.code[m.pc])?;
            m.op_counts[op.class().index()] += 1;
            if let Some(trace) = tracer.as_deref_mut() {
                trace.push(TraceStep {
                    pc: m.pc,
                    op,
                    gas_used: m.gas_used,
                    stack_depth: m.stack.len(),
                    top: m.stack.last().copied(),
                });
            }
            m.charge(gas::static_cost(op))?;
            let imm_start = m.pc + 1;
            let next_pc = imm_start + op.immediate_len();
            if next_pc > m.code.len() {
                return Err(VmError::TruncatedImmediate { pc: m.pc });
            }
            match op {
                Op::Stop | Op::Return => return Ok(Halt::Stop),
                Op::ReturnVal => return Ok(Halt::Return(m.pop()?)),
                Op::Revert => return Ok(Halt::Revert(m.pop()?)),
                Op::Push8 => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&m.code[imm_start..imm_start + 8]);
                    m.push(U256::from_u64(u64::from_be_bytes(b)))?;
                }
                Op::Push32 => {
                    let mut b = [0u8; 32];
                    b.copy_from_slice(&m.code[imm_start..imm_start + 32]);
                    m.push(U256::from_be_bytes(&b))?;
                }
                Op::Pop => {
                    m.pop()?;
                }
                Op::Dup => {
                    let n = m.code[imm_start] as usize;
                    let len = m.stack.len();
                    if n >= len {
                        return Err(VmError::StackUnderflow { pc: m.pc });
                    }
                    let v = m.stack[len - 1 - n];
                    m.push(v)?;
                }
                Op::Swap => {
                    let n = m.code[imm_start] as usize;
                    let len = m.stack.len();
                    if n == 0 || n >= len {
                        return Err(VmError::StackUnderflow { pc: m.pc });
                    }
                    m.stack.swap(len - 1, len - 1 - n);
                }
                Op::Add
                | Op::Sub
                | Op::Mul
                | Op::Div
                | Op::Mod
                | Op::Lt
                | Op::Gt
                | Op::Eq
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::Min => {
                    let rhs = m.pop()?;
                    let lhs = m.pop()?;
                    let out = match op {
                        Op::Add => lhs.wrapping_add(&rhs),
                        Op::Sub => lhs.wrapping_sub(&rhs),
                        Op::Mul => lhs.wrapping_mul(&rhs),
                        Op::Div => {
                            if rhs.is_zero() {
                                U256::ZERO
                            } else {
                                lhs.div_rem(&rhs).0
                            }
                        }
                        Op::Mod => {
                            if rhs.is_zero() {
                                U256::ZERO
                            } else {
                                lhs.div_rem(&rhs).1
                            }
                        }
                        Op::Lt => bool_word(lhs < rhs),
                        Op::Gt => bool_word(lhs > rhs),
                        Op::Eq => bool_word(lhs == rhs),
                        Op::And => and(lhs, rhs),
                        Op::Or => or(lhs, rhs),
                        Op::Xor => xor(lhs, rhs),
                        Op::Min => {
                            if lhs < rhs {
                                lhs
                            } else {
                                rhs
                            }
                        }
                        _ => unreachable!(),
                    };
                    m.push(out)?;
                }
                Op::IsZero => {
                    let v = m.pop()?;
                    m.push(bool_word(v.is_zero()))?;
                }
                Op::Not => {
                    let v = m.pop()?;
                    let limbs = v.limbs();
                    m.push(U256::from_limbs([
                        !limbs[0], !limbs[1], !limbs[2], !limbs[3],
                    ]))?;
                }
                Op::Keccak => {
                    let len = m.pop()?.low_u64() as usize;
                    let offset = m.pop()?.low_u64() as usize;
                    // Bounds before the per-word hashing charge: `len` is
                    // attacker-controlled and unbounded, so charging for it
                    // first would let an out-of-bounds request charge past
                    // any finite amount — the gas-bound analysis prices
                    // KECCAK by the largest *in-bounds* range (found by
                    // scvm-fuzz's gas-verdict oracle).
                    m.touch_memory(offset, len)?;
                    m.charge(6 * (len as u64 / 32 + 1))?;
                    let digest = keccak256(&m.memory[offset..offset + len]);
                    m.push(U256::from_be_bytes(&digest))?;
                }
                Op::EcRecover => {
                    let offset = m.pop()?.low_u64() as usize;
                    m.touch_memory(offset, 32 + 65)?;
                    let mut digest = [0u8; 32];
                    digest.copy_from_slice(&m.memory[offset..offset + 32]);
                    let mut sig_bytes = [0u8; 65];
                    sig_bytes.copy_from_slice(&m.memory[offset + 32..offset + 97]);
                    let recovered = smartcrowd_crypto::ecdsa::Signature::from_bytes(&sig_bytes)
                        .ok()
                        .and_then(|sig| {
                            smartcrowd_crypto::keys::recover_public_key(&digest, &sig).ok()
                        })
                        .map(|pk| address_to_word(&pk.address()))
                        .unwrap_or(U256::ZERO);
                    m.push(recovered)?;
                }
                Op::SelfAddr => m.push(address_to_word(&ctx.contract))?,
                Op::Caller => m.push(address_to_word(&ctx.caller))?,
                Op::CallValue => m.push(U256::from_u128(ctx.value.wei()))?,
                Op::CallDataSize => m.push(U256::from_u64(calldata.len() as u64))?,
                Op::CallDataLoad => {
                    let offset = m.pop()?.low_u64() as usize;
                    let mut word = [0u8; 32];
                    for (i, byte) in word.iter_mut().enumerate() {
                        // checked_add: an offset near usize::MAX must read
                        // as zero-padding, not wrap around to byte i.
                        *byte = offset
                            .checked_add(i)
                            .and_then(|idx| calldata.get(idx))
                            .copied()
                            .unwrap_or(0);
                    }
                    m.push(U256::from_be_bytes(&word))?;
                }
                Op::Timestamp => m.push(U256::from_u64(ctx.timestamp))?,
                Op::Number => m.push(U256::from_u64(ctx.block_number))?,
                Op::Balance => {
                    let addr = word_to_address(&m.pop()?);
                    m.push(U256::from_u128(state.balance(&addr).wei()))?;
                }
                Op::SelfBalance => {
                    m.push(U256::from_u128(state.balance(&ctx.contract).wei()))?;
                }
                Op::SLoad => {
                    let key = m.pop()?;
                    cov.read(&key);
                    m.push(state.storage_get(&ctx.contract, &key))?;
                }
                Op::SStore => {
                    let key = m.pop()?;
                    let value = m.pop()?;
                    cov.write(&key);
                    // Dynamic cost depends on slot freshness: peek first.
                    let fresh = state.storage_get(&ctx.contract, &key).is_zero();
                    m.charge(if fresh {
                        gas::SSTORE_NEW_GAS
                    } else {
                        gas::SSTORE_UPDATE_GAS
                    })?;
                    state.storage_set(ctx.contract, key, value);
                }
                Op::MLoad => {
                    let offset = m.pop()?.low_u64() as usize;
                    m.touch_memory(offset, 32)?;
                    let mut word = [0u8; 32];
                    word.copy_from_slice(&m.memory[offset..offset + 32]);
                    m.push(U256::from_be_bytes(&word))?;
                }
                Op::MStore => {
                    let offset = m.pop()?.low_u64() as usize;
                    let value = m.pop()?;
                    m.touch_memory(offset, 32)?;
                    m.memory[offset..offset + 32].copy_from_slice(&value.to_be_bytes());
                }
                Op::Jump => {
                    let dest = m.pop()?.low_u64() as usize;
                    let from = m.pc;
                    m.jump(dest)?;
                    cov.edge(from, dest);
                    continue;
                }
                Op::JumpI => {
                    let dest = m.pop()?.low_u64() as usize;
                    let cond = m.pop()?;
                    if !cond.is_zero() {
                        let from = m.pc;
                        m.jump(dest)?;
                        cov.edge(from, dest);
                        continue;
                    }
                    cov.edge(m.pc, next_pc);
                }
                Op::JumpDest => {}
                Op::Transfer => {
                    let amount = Ether::from_wei(m.pop()?.low_u128());
                    let to = word_to_address(&m.pop()?);
                    m.charge(gas::TRANSFER_GAS)?;
                    state
                        .transfer(ctx.contract, to, amount)
                        .map_err(|_| VmError::InsufficientBalance)?;
                }
                Op::Log => {
                    let topic = m.pop()?;
                    m.logs.push(topic);
                }
            }
            m.pc = next_pc;
        }
    }
}

fn bool_word(b: bool) -> U256 {
    if b {
        U256::ONE
    } else {
        U256::ZERO
    }
}

fn and(a: U256, b: U256) -> U256 {
    let (x, y) = (a.limbs(), b.limbs());
    U256::from_limbs([x[0] & y[0], x[1] & y[1], x[2] & y[2], x[3] & y[3]])
}

fn or(a: U256, b: U256) -> U256 {
    let (x, y) = (a.limbs(), b.limbs());
    U256::from_limbs([x[0] | y[0], x[1] | y[1], x[2] | y[2], x[3] | y[3]])
}

fn xor(a: U256, b: U256) -> U256 {
    let (x, y) = (a.limbs(), b.limbs());
    U256::from_limbs([x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2], x[3] ^ y[3]])
}

impl Machine<'_> {
    fn charge(&mut self, gas: u64) -> Result<(), VmError> {
        // Checked, not saturating: with `gas_limit == u64::MAX` a saturated
        // sum would sit exactly at the limit and the overflow would never
        // fault, handing out unmetered execution past 2^64 gas.
        match self.gas_used.checked_add(gas) {
            Some(total) if total <= self.gas_limit => {
                self.gas_used = total;
                Ok(())
            }
            _ => {
                self.gas_used = self.gas_limit;
                Err(VmError::OutOfGas {
                    used: self.gas_limit,
                    limit: self.gas_limit,
                })
            }
        }
    }

    fn push(&mut self, v: U256) -> Result<(), VmError> {
        if self.stack.len() >= STACK_LIMIT {
            return Err(VmError::StackOverflow { pc: self.pc });
        }
        self.stack.push(v);
        Ok(())
    }

    fn pop(&mut self) -> Result<U256, VmError> {
        self.stack
            .pop()
            .ok_or(VmError::StackUnderflow { pc: self.pc })
    }

    fn jump(&mut self, dest: usize) -> Result<(), VmError> {
        if self.jumpdests.binary_search(&dest).is_err() {
            return Err(VmError::BadJump { pc: self.pc, dest });
        }
        self.pc = dest;
        Ok(())
    }

    fn touch_memory(&mut self, offset: usize, len: usize) -> Result<(), VmError> {
        let end = offset.checked_add(len).ok_or(VmError::MemoryLimit {
            pc: self.pc,
            offset,
        })?;
        if end > MEMORY_LIMIT {
            return Err(VmError::MemoryLimit {
                pc: self.pc,
                offset,
            });
        }
        if end > self.memory.len() {
            let new_words = (end - self.memory.len()).div_ceil(32) as u64;
            self.charge(3 * new_words)?;
            self.memory.resize(end.div_ceil(32) * 32, 0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn setup(code: &str) -> (WorldState, Address, Address) {
        let mut state = WorldState::new();
        let owner = Address::from_label("owner");
        state.credit(owner, Ether::from_ether(1000));
        let bytecode = assemble(code).expect("test program assembles");
        let contract = state.deploy_contract(owner, bytecode).unwrap();
        state.credit(contract, Ether::from_ether(100));
        (state, owner, contract)
    }

    fn run(code: &str, calldata: &[u8]) -> (Receipt, WorldState, Address) {
        let (mut state, owner, contract) = setup(code);
        let vm = Vm::default();
        let receipt = vm
            .call(&mut state, CallContext::new(owner, contract), calldata)
            .unwrap();
        (receipt, state, contract)
    }

    /// Plants bytecode the deploy-time verifier would reject, bypassing
    /// [`WorldState::deploy_contract`], so the interpreter's own runtime
    /// checks (defense in depth) can be exercised directly.
    fn plant_unverified(code: &str) -> (WorldState, Address, Address) {
        let mut state = WorldState::new();
        let owner = Address::from_label("owner");
        state.credit(owner, Ether::from_ether(1000));
        let bytecode = assemble(code).expect("test program assembles");
        let contract = WorldState::contract_address(&owner, 0);
        state.account_mut(contract).code = bytecode;
        state.credit(contract, Ether::from_ether(100));
        (state, owner, contract)
    }

    fn run_unverified(code: &str) -> Receipt {
        let (mut state, owner, contract) = plant_unverified(code);
        Vm::default()
            .call(&mut state, CallContext::new(owner, contract), &[])
            .unwrap()
    }

    #[test]
    fn keccak_oob_length_faults_without_unbounded_charge() {
        // Found by scvm-fuzz: a KECCAK length past MEMORY_LIMIT used to
        // charge its per-word hashing gas before the bounds check — an
        // effectively unbounded charge (~6 * 2^59 gas for a u64-max
        // length), contradicting every finite analyzer gas bound. The
        // bounds check must fire first, leaving a MemoryLimit fault and
        // only the gas charged up to that point.
        let (receipt, _, _) = run("PUSH 0\nPUSH 0x020000000000001f\nKECCAK\nRETURNVAL\n", &[]);
        assert!(
            matches!(receipt.fault, Some(VmError::MemoryLimit { .. })),
            "fault: {:?}",
            receipt.fault
        );
        // Intrinsic call gas plus a few static charges — nowhere near the
        // ~2.7e16 the length-derived charge would have been.
        assert!(
            receipt.gas_used < 10_000,
            "no unbounded length charge: {}",
            receipt.gas_used
        );
    }

    #[test]
    fn calldataload_near_max_offset_reads_zero_padding() {
        // Found by scvm-fuzz: an offset whose low 64 bits are u64::MAX
        // used to compute `offset + i` unchecked — an overflow panic in
        // debug builds and a wrap-around read of calldata byte `i` in
        // release builds. Past-the-end loads must read as zeros.
        let (receipt, _, _) = run(
            "PUSH 0xffffffffffffffff\nCALLDATALOAD\nRETURNVAL\n",
            &[0xab; 64],
        );
        assert!(receipt.success, "fault: {:?}", receipt.fault);
        assert_eq!(receipt.return_value, Some(U256::ZERO));
    }

    #[test]
    fn charge_overflow_faults_instead_of_saturating() {
        let mut m = Machine {
            code: &[],
            jumpdests: Vec::new(),
            stack: Vec::new(),
            memory: Vec::new(),
            pc: 0,
            gas_used: u64::MAX - 1,
            gas_limit: u64::MAX,
            logs: Vec::new(),
            op_counts: [0; OpClass::ALL.len()],
        };
        // Filling the meter exactly to a maximal limit is still in budget.
        m.charge(1).expect("exactly at the limit");
        assert_eq!(m.gas_used, u64::MAX);
        // The next charge overflows the accumulator. A saturating add
        // would leave gas_used == gas_limit and never fault — unmetered
        // execution. The checked add must report OutOfGas.
        assert!(matches!(m.charge(1), Err(VmError::OutOfGas { .. })));
        assert_eq!(m.gas_used, u64::MAX);
    }

    #[test]
    fn arithmetic_natural_order() {
        let (r, _, _) = run("PUSH 10\nPUSH 3\nSUB\nRETURNVAL\n", &[]);
        assert_eq!(r.return_value.unwrap().low_u64(), 7);
        let (r, _, _) = run("PUSH 10\nPUSH 3\nDIV\nRETURNVAL\n", &[]);
        assert_eq!(r.return_value.unwrap().low_u64(), 3);
        let (r, _, _) = run("PUSH 10\nPUSH 3\nMOD\nRETURNVAL\n", &[]);
        assert_eq!(r.return_value.unwrap().low_u64(), 1);
        let (r, _, _) = run("PUSH 3\nPUSH 10\nLT\nRETURNVAL\n", &[]);
        assert_eq!(r.return_value.unwrap().low_u64(), 1);
        let (r, _, _) = run("PUSH 7\nPUSH 10\nMIN\nRETURNVAL\n", &[]);
        assert_eq!(r.return_value.unwrap().low_u64(), 7);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let (r, _, _) = run("PUSH 10\nPUSH 0\nDIV\nRETURNVAL\n", &[]);
        assert_eq!(r.return_value.unwrap(), U256::ZERO);
        let (r, _, _) = run("PUSH 10\nPUSH 0\nMOD\nRETURNVAL\n", &[]);
        assert_eq!(r.return_value.unwrap(), U256::ZERO);
    }

    #[test]
    fn storage_persists_across_calls() {
        let (mut state, owner, contract) =
            setup("PUSH 0\nSLOAD\nPUSH 1\nADD\nPUSH 0\nSSTORE\nPUSH 0\nSLOAD\nRETURNVAL\n");
        let vm = Vm::default();
        for expected in 1..=3u64 {
            let r = vm
                .call(&mut state, CallContext::new(owner, contract), &[])
                .unwrap();
            assert_eq!(r.return_value.unwrap().low_u64(), expected);
        }
    }

    #[test]
    fn calldata_access() {
        let mut data = vec![0u8; 32];
        data[31] = 55;
        let (r, _, _) = run("PUSH 0\nCALLDATALOAD\nRETURNVAL\n", &data);
        assert_eq!(r.return_value.unwrap().low_u64(), 55);
        let (r, _, _) = run("CALLDATASIZE\nRETURNVAL\n", &data);
        assert_eq!(r.return_value.unwrap().low_u64(), 32);
        // Past-the-end reads are zero-padded.
        let (r, _, _) = run("PUSH 100\nCALLDATALOAD\nRETURNVAL\n", &data);
        assert_eq!(r.return_value.unwrap(), U256::ZERO);
    }

    #[test]
    fn revert_rolls_back_state_but_charges_fee() {
        let (mut state, owner, contract) = setup("PUSH 9\nPUSH 0\nSSTORE\nPUSH 77\nREVERT\n");
        let owner_before = state.balance(&owner);
        let vm = Vm::default();
        let r = vm
            .call(&mut state, CallContext::new(owner, contract), &[])
            .unwrap();
        assert!(!r.success);
        assert_eq!(r.revert_code.unwrap().low_u64(), 77);
        assert_eq!(state.storage_get(&contract, &U256::ZERO), U256::ZERO);
        assert!(state.balance(&owner) < owner_before, "fee still charged");
    }

    #[test]
    fn transfer_pays_out_and_reverts_on_overdraft() {
        let payee = Address::from_label("payee");
        let payee_word = address_to_word(&payee);
        let code = format!(
            "PUSH32 0x{}\nPUSH32 0x{}\nTRANSFER\nSTOP\n",
            smartcrowd_crypto::hex::encode(&payee_word.to_be_bytes()),
            smartcrowd_crypto::hex::encode(
                &U256::from_u128(Ether::from_ether(5).wei()).to_be_bytes()
            ),
        );
        let (r, state, _) = run(&code, &[]);
        assert!(r.success, "fault: {:?}", r.fault);
        assert_eq!(state.balance(&payee), Ether::from_ether(5));

        // Overdraft: contract has 100 ETH; paying 500 must fault + revert.
        let code = format!(
            "PUSH32 0x{}\nPUSH32 0x{}\nTRANSFER\nSTOP\n",
            smartcrowd_crypto::hex::encode(&payee_word.to_be_bytes()),
            smartcrowd_crypto::hex::encode(
                &U256::from_u128(Ether::from_ether(500).wei()).to_be_bytes()
            ),
        );
        let (r, state, _) = run(&code, &[]);
        assert!(!r.success);
        assert_eq!(r.fault, Some(VmError::InsufficientBalance));
        assert_eq!(state.balance(&payee), Ether::ZERO);
    }

    #[test]
    fn call_value_moves_to_contract() {
        let (mut state, owner, contract) = setup("CALLVALUE\nRETURNVAL\n");
        let contract_before = state.balance(&contract);
        let vm = Vm::default();
        let r = vm
            .call(
                &mut state,
                CallContext::new(owner, contract).with_value(Ether::from_ether(7)),
                &[],
            )
            .unwrap();
        assert_eq!(
            r.return_value.unwrap().low_u128(),
            Ether::from_ether(7).wei()
        );
        assert_eq!(
            state.balance(&contract),
            contract_before + Ether::from_ether(7)
        );
    }

    #[test]
    fn loop_with_jumpi_counts() {
        // Sum 1..=5 via a loop: slot0 = counter, slot1 = total.
        let code = "
            PUSH 5\nPUSH 0\nSSTORE\n
        loop:
            PUSH 0\nSLOAD\nISZERO\nPUSH @end\nJUMPI\n
            PUSH 1\nSLOAD\nPUSH 0\nSLOAD\nADD\nPUSH 1\nSSTORE\n
            PUSH 0\nSLOAD\nPUSH 1\nSUB\nPUSH 0\nSSTORE\n
            PUSH 1\nPUSH @loop\nJUMPI\n
        end:
            JUMPDEST\nPUSH 1\nSLOAD\nRETURNVAL\n
        ";
        let (r, _, _) = run(code, &[]);
        assert!(r.success, "fault: {:?}", r.fault);
        assert_eq!(r.return_value.unwrap().low_u64(), 15);
    }

    #[test]
    fn bad_jump_faults() {
        // The verifier rejects this at deploy; planted directly, the
        // runtime check must still catch it.
        let r = run_unverified("PUSH 3\nJUMP\nSTOP\n");
        assert!(!r.success);
        assert!(matches!(r.fault, Some(VmError::BadJump { .. })));
    }

    #[test]
    fn out_of_gas_faults_and_reverts() {
        let (mut state, owner, contract) =
            setup("loop:\nJUMPDEST\nPUSH 1\nPUSH 0\nSSTORE\nPUSH 1\nPUSH @loop\nJUMPI\n");
        let vm = Vm::default();
        let r = vm
            .call(
                &mut state,
                CallContext::new(owner, contract).with_gas_limit(10_000),
                &[],
            )
            .unwrap();
        assert!(matches!(r.fault, Some(VmError::OutOfGas { .. })));
        assert_eq!(r.gas_used, 10_000);
        assert_eq!(state.storage_get(&contract, &U256::ZERO), U256::ZERO);
    }

    #[test]
    fn stack_underflow_faults() {
        // Rejected at deploy by the verifier; planted directly, the
        // runtime check must still catch it.
        let r = run_unverified("ADD\n");
        assert!(matches!(r.fault, Some(VmError::StackUnderflow { .. })));
    }

    #[test]
    fn deploy_rejects_provable_stack_fault() {
        let mut state = WorldState::new();
        let owner = Address::from_label("owner");
        state.credit(owner, Ether::from_ether(10));
        let vm = Vm::default();
        let err = vm
            .deploy(
                &mut state,
                &CallContext::new(owner, Address::ZERO),
                assemble("ADD\n").unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, VmError::Verify(_)), "got {err:?}");
        // Nothing was deployed and no fee was charged.
        assert_eq!(state.balance(&owner), Ether::from_ether(10));
    }

    #[test]
    fn keccak_matches_library() {
        // Store a word at offset 0, hash 32 bytes.
        let (r, _, _) = run(
            "PUSH 42\nPUSH 0\nMSTORE\nPUSH 0\nPUSH 32\nKECCAK\nRETURNVAL\n",
            &[],
        );
        let expected = keccak256(&U256::from_u64(42).to_be_bytes());
        assert_eq!(r.return_value.unwrap(), U256::from_be_bytes(&expected));
    }

    #[test]
    fn env_ops_report_context() {
        let (mut state, owner, contract) = setup("TIMESTAMP\nNUMBER\nADD\nRETURNVAL\n");
        let vm = Vm::default();
        let r = vm
            .call(
                &mut state,
                CallContext::new(owner, contract).with_block(1000, 7),
                &[],
            )
            .unwrap();
        assert_eq!(r.return_value.unwrap().low_u64(), 1007);

        let (r2, _, contract2) = run("SELFADDR\nRETURNVAL\n", &[]);
        assert_eq!(word_to_address(&r2.return_value.unwrap()), contract2);
    }

    #[test]
    fn caller_and_balance_ops() {
        let (mut state, owner, contract) = setup("CALLER\nBALANCE\nRETURNVAL\n");
        let vm = Vm::default();
        let owner_balance = state.balance(&owner);
        let r = vm
            .call(&mut state, CallContext::new(owner, contract), &[])
            .unwrap();
        // Balance read happens mid-execution: value+fee already reserved?
        // Value is zero here; the fee is charged *after* execution, so the
        // observed balance equals the pre-call balance.
        assert_eq!(r.return_value.unwrap().low_u128(), owner_balance.wei());
    }

    #[test]
    fn logs_survive_success_only() {
        let (r, _, _) = run("PUSH 11\nLOG\nSTOP\n", &[]);
        assert_eq!(r.logs, vec![U256::from_u64(11)]);
        let (r, _, _) = run("PUSH 11\nLOG\nPUSH 0\nREVERT\n", &[]);
        assert!(r.logs.is_empty());
    }

    #[test]
    fn fees_accrue_to_collector() {
        let (mut state, owner, contract) = setup("STOP\n");
        let vm = Vm::default();
        let r = vm
            .call(&mut state, CallContext::new(owner, contract), &[])
            .unwrap();
        assert_eq!(state.balance(&Address::ZERO), r.fee);
        assert!(r.fee > Ether::ZERO);
    }

    #[test]
    fn unknown_contract_is_an_error() {
        let mut state = WorldState::new();
        let owner = Address::from_label("o");
        state.credit(owner, Ether::from_ether(10));
        let vm = Vm::default();
        let err = vm
            .call(
                &mut state,
                CallContext::new(owner, Address::from_label("nope")),
                &[],
            )
            .unwrap_err();
        assert_eq!(err, VmError::UnknownAccount);
    }

    #[test]
    fn insufficient_caller_funds_is_an_error() {
        let (mut state, _, contract) = setup("STOP\n");
        let pauper = Address::from_label("pauper");
        let vm = Vm::default();
        let err = vm
            .call(&mut state, CallContext::new(pauper, contract), &[])
            .unwrap_err();
        assert_eq!(err, VmError::InsufficientCallerFunds);
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let (mut state, owner, contract) = setup("loop:\nJUMPDEST\nPUSH 1\nPUSH @loop\nJUMPI\n");
        let vm = Vm::default().with_step_limit(1000);
        let r = vm
            .call(
                &mut state,
                // Generous gas so the step limit binds first.
                CallContext::new(owner, contract).with_gas_limit(100_000_000),
                &[],
            )
            .unwrap();
        assert_eq!(r.fault, Some(VmError::StepLimit));
    }

    #[test]
    fn coverage_records_jumps_and_storage() {
        let code = "
            PUSH 3\nPUSH 0\nSSTORE\n
        loop:
            PUSH 0\nSLOAD\nISZERO\nPUSH @end\nJUMPI\n
            PUSH 0\nSLOAD\nPUSH 1\nSUB\nPUSH 0\nSSTORE\n
            PUSH 1\nPUSH @loop\nJUMPI\n
        end:
            JUMPDEST\nSTOP\n
        ";
        let (mut state, owner, contract) = setup(code);
        let mut cov = crate::cov::CoverageMap::new();
        let r = Vm::default()
            .call_with_coverage(&mut state, CallContext::new(owner, contract), &[], &mut cov)
            .unwrap();
        assert!(r.success, "fault: {:?}", r.fault);
        let (jmp, read, write) = cov.hit_slots();
        assert!(jmp >= 2, "taken + fallthrough edges: {jmp}");
        assert_eq!(read, 1, "one storage slot read");
        assert_eq!(write, 1, "one storage slot written");

        // The instrumented and uninstrumented paths agree on the receipt.
        let (mut state2, owner2, contract2) = setup(code);
        let plain = Vm::default()
            .call(&mut state2, CallContext::new(owner2, contract2), &[])
            .unwrap();
        assert_eq!(plain, r);
    }

    #[test]
    fn coverage_records_fault_edges() {
        let (mut state, owner, contract) = plant_unverified("PUSH 3\nJUMP\nSTOP\n");
        let mut cov = crate::cov::CoverageMap::new();
        let r = Vm::default()
            .call_with_coverage(&mut state, CallContext::new(owner, contract), &[], &mut cov)
            .unwrap();
        assert!(matches!(r.fault, Some(VmError::BadJump { .. })));
        assert!(cov.hit_slots().0 >= 1, "synthetic fault edge recorded");
    }

    #[test]
    fn address_word_roundtrip() {
        let a = Address::from_label("roundtrip");
        assert_eq!(word_to_address(&address_to_word(&a)), a);
    }

    #[test]
    fn deploy_charges_by_code_size() {
        let mut state = WorldState::new();
        let owner = Address::from_label("owner");
        state.credit(owner, Ether::from_ether(1000));
        let vm = Vm::default();
        let small = assemble("STOP\n").unwrap();
        let big = assemble(&"PUSH 1\nPOP\n".repeat(50)).unwrap();
        let ctx = CallContext::new(owner, Address::ZERO);
        let (_, r_small) = vm.deploy(&mut state, &ctx, small).unwrap();
        let (_, r_big) = vm.deploy(&mut state, &ctx, big).unwrap();
        assert!(r_big.gas_used > r_small.gas_used);
        assert!(r_big.fee > r_small.fee);
    }

    #[test]
    fn deploy_rejects_malformed_code() {
        let mut state = WorldState::new();
        let owner = Address::from_label("owner");
        state.credit(owner, Ether::from_ether(10));
        let vm = Vm::default();
        let err = vm
            .deploy(
                &mut state,
                &CallContext::new(owner, Address::ZERO),
                vec![0xfe],
            )
            .unwrap_err();
        assert!(matches!(err, VmError::InvalidOpcode { .. }));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::asm::assemble;

    fn traced(code: &str) -> (Receipt, Vec<TraceStep>) {
        let mut state = WorldState::new();
        let owner = Address::from_label("owner");
        state.credit(owner, Ether::from_ether(100));
        let bytecode = assemble(code).unwrap();
        let contract = state.deploy_contract(owner, bytecode).unwrap();
        Vm::default()
            .call_traced_with_coverage(
                &mut state,
                CallContext::new(owner, contract),
                &[],
                &mut CoverageMap::new(),
            )
            .unwrap()
    }

    #[test]
    fn trace_records_every_step_in_order() {
        let (receipt, trace) = traced("PUSH 2\nPUSH 3\nADD\nRETURNVAL\n");
        assert!(receipt.success);
        let ops: Vec<Op> = trace.iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![Op::Push8, Op::Push8, Op::Add, Op::ReturnVal]);
        // Stack depth before each step: 0, 1, 2, 1.
        let depths: Vec<usize> = trace.iter().map(|s| s.stack_depth).collect();
        assert_eq!(depths, vec![0, 1, 2, 1]);
        // Top before RETURNVAL is the sum.
        assert_eq!(trace[3].top.unwrap().low_u64(), 5);
        // Gas is monotone.
        for w in trace.windows(2) {
            assert!(w[1].gas_used >= w[0].gas_used);
        }
    }

    #[test]
    fn trace_shows_loop_iterations() {
        let (_, trace) = traced(
            "PUSH 3\nPUSH 0\nSSTORE\nloop:\nPUSH 0\nSLOAD\nISZERO\nPUSH @end\nJUMPI\nPUSH 0\nSLOAD\nPUSH 1\nSUB\nPUSH 0\nSSTORE\nPUSH 1\nPUSH @loop\nJUMPI\nend:\nJUMPDEST\nSTOP\n",
        );
        let jumps = trace.iter().filter(|s| s.op == Op::JumpI).count();
        assert!(jumps >= 6, "3 iterations × 2 JUMPIs: {jumps}");
    }

    #[test]
    fn untraced_and_traced_agree() {
        let code = "PUSH 7\nPUSH 0\nSSTORE\nPUSH 0\nSLOAD\nRETURNVAL\n";
        let run = |traced: bool| {
            let mut state = WorldState::new();
            let owner = Address::from_label("owner");
            state.credit(owner, Ether::from_ether(100));
            let bytecode = assemble(code).unwrap();
            let contract = state.deploy_contract(owner, bytecode).unwrap();
            let vm = Vm::default();
            if traced {
                vm.call_traced_with_coverage(
                    &mut state,
                    CallContext::new(owner, contract),
                    &[],
                    &mut CoverageMap::new(),
                )
                .unwrap()
                .0
            } else {
                vm.call(&mut state, CallContext::new(owner, contract), &[])
                    .unwrap()
            }
        };
        assert_eq!(run(false), run(true));
    }
}

#[cfg(test)]
mod ecrecover_tests {
    use super::*;
    use crate::asm::assemble;
    use smartcrowd_crypto::keys::KeyPair;

    /// Builds a program that writes digest‖signature into memory word by
    /// word and runs ECRECOVER over it.
    fn recover_program(digest: &[u8; 32], sig: &[u8; 65]) -> String {
        // Memory layout: digest at 0..32, signature at 32..97. MSTORE
        // writes 32-byte words; pack the 65 signature bytes into three
        // words (the last padded with zeros past offset 97 — harmless).
        let mut blob = [0u8; 128];
        blob[..32].copy_from_slice(digest);
        blob[32..97].copy_from_slice(sig);
        let mut src = String::new();
        for (i, chunk) in blob.chunks(32).enumerate() {
            let mut word = [0u8; 32];
            word.copy_from_slice(chunk);
            src.push_str(&format!(
                "PUSH32 0x{}\nPUSH {}\nMSTORE\n",
                smartcrowd_crypto::hex::encode(&word),
                i * 32
            ));
        }
        src.push_str("PUSH 0\nECRECOVER\nRETURNVAL\n");
        src
    }

    fn run_recover(digest: &[u8; 32], sig: &[u8; 65]) -> U256 {
        let mut state = WorldState::new();
        let owner = Address::from_label("owner");
        state.credit(owner, Ether::from_ether(100));
        let code = assemble(&recover_program(digest, sig)).unwrap();
        let contract = state.deploy_contract(owner, code).unwrap();
        let receipt = Vm::default()
            .call(&mut state, CallContext::new(owner, contract), &[])
            .unwrap();
        assert!(receipt.success, "fault: {:?}", receipt.fault);
        receipt.return_value.unwrap()
    }

    #[test]
    fn recovers_the_signer_address_on_chain() {
        let kp = KeyPair::from_seed(b"onchain-signer");
        let digest = keccak256(b"signed claim");
        let sig = kp.sign(&digest).to_bytes();
        let out = run_recover(&digest, &sig);
        assert_eq!(word_to_address(&out), kp.address());
    }

    #[test]
    fn wrong_digest_recovers_a_different_address() {
        let kp = KeyPair::from_seed(b"onchain-signer");
        let sig = kp.sign(&keccak256(b"original")).to_bytes();
        let out = run_recover(&keccak256(b"tampered"), &sig);
        assert_ne!(word_to_address(&out), kp.address());
    }

    #[test]
    fn garbage_signature_yields_zero() {
        let out = run_recover(&keccak256(b"x"), &[0u8; 65]);
        assert_eq!(out, U256::ZERO);
    }

    #[test]
    fn ecrecover_charges_substantial_gas() {
        let kp = KeyPair::from_seed(b"gas");
        let digest = keccak256(b"gas test");
        let sig = kp.sign(&digest).to_bytes();
        let mut state = WorldState::new();
        let owner = Address::from_label("owner");
        state.credit(owner, Ether::from_ether(100));
        let code = assemble(&recover_program(&digest, &sig)).unwrap();
        let contract = state.deploy_contract(owner, code).unwrap();
        let receipt = Vm::default()
            .call(&mut state, CallContext::new(owner, contract), &[])
            .unwrap();
        assert!(receipt.gas_used > 3_000, "gas {}", receipt.gas_used);
    }
}
