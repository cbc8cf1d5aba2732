//! The SCVM instruction set.
//!
//! A compact, EVM-inspired ISA: 256-bit stack words, byte-addressed scratch
//! memory, word-addressed persistent storage, and explicit value transfer.
//! Immediates are encoded inline after the opcode byte (`PUSH8` carries 8
//! bytes, `PUSH32` carries 32).

use crate::error::VmError;

/// An SCVM opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Halt successfully with no return value.
    Stop = 0x00,
    /// Push an 8-byte immediate (zero-extended to 256 bits).
    Push8 = 0x01,
    /// Push a 32-byte immediate.
    Push32 = 0x02,
    /// Discard the top of stack.
    Pop = 0x03,
    /// Duplicate the n-th stack item (immediate byte, 0 = top).
    Dup = 0x04,
    /// Swap the top with the n-th item (immediate byte, 1-based below top).
    Swap = 0x05,

    /// `a + b` (wrapping).
    Add = 0x10,
    /// `a - b` (wrapping).
    Sub = 0x11,
    /// `a * b` (wrapping).
    Mul = 0x12,
    /// `a / b` (zero when dividing by zero, EVM semantics).
    Div = 0x13,
    /// `a % b` (zero modulus yields zero).
    Mod = 0x14,
    /// `1` if `a < b` else `0`.
    Lt = 0x15,
    /// `1` if `a > b` else `0`.
    Gt = 0x16,
    /// `1` if `a == b` else `0`.
    Eq = 0x17,
    /// `1` if `a == 0` else `0`.
    IsZero = 0x18,
    /// Bitwise and.
    And = 0x19,
    /// Bitwise or.
    Or = 0x1a,
    /// Bitwise xor.
    Xor = 0x1b,
    /// Bitwise not.
    Not = 0x1c,
    /// Minimum of two values (native helper; saves contract bytecode).
    Min = 0x1d,

    /// Keccak-256 over a memory range: pops `offset`, `len`.
    Keccak = 0x20,
    /// ECDSA public-key recovery (the `ecrecover` precompile as an opcode):
    /// pops `offset`; reads 32 digest bytes then 65 signature bytes from
    /// memory at `offset`; pushes the recovered signer address as a word,
    /// or 0 on an invalid signature.
    EcRecover = 0x21,

    /// Push the executing contract's address.
    SelfAddr = 0x30,
    /// Push the caller's address.
    Caller = 0x31,
    /// Push the call value in wei.
    CallValue = 0x32,
    /// Push the byte length of calldata.
    CallDataSize = 0x33,
    /// Pop `offset`; push the 32-byte calldata word at `offset`
    /// (zero-padded past the end).
    CallDataLoad = 0x34,
    /// Push the current block timestamp.
    Timestamp = 0x35,
    /// Push the current block height.
    Number = 0x36,
    /// Pop an address word; push that account's balance in wei.
    Balance = 0x37,
    /// Push the executing contract's balance in wei.
    SelfBalance = 0x38,

    /// Pop `key`; push `storage[key]`.
    SLoad = 0x40,
    /// Pop `key`, `value`; set `storage[key] = value`.
    SStore = 0x41,
    /// Pop `offset`; push the 32-byte memory word at `offset`.
    MLoad = 0x42,
    /// Pop `offset`, `value`; write 32 bytes at `offset`.
    MStore = 0x43,

    /// Pop `dest`; jump to it (must be a `JumpDest`).
    Jump = 0x50,
    /// Pop `dest`, `cond`; jump when `cond != 0`.
    JumpI = 0x51,
    /// A valid jump target.
    JumpDest = 0x52,

    /// Pop `to`, `amount`; transfer wei from the contract's balance.
    /// Reverts on insufficient balance. This native op replaces the EVM's
    /// general `CALL` — SmartCrowd contracts only ever pay out, never
    /// re-enter, which also removes the re-entrancy attack class.
    Transfer = 0x60,
    /// Pop `topic`; append a log entry with the topic and no data.
    Log = 0x61,

    /// Pop one word and halt successfully returning it.
    ReturnVal = 0x70,
    /// Halt successfully with no return value (alias of `Stop` kept
    /// distinct for readability in listings).
    Return = 0x71,
    /// Pop one word (an error code) and revert all state changes.
    Revert = 0x72,
}

/// Every opcode, in byte order.
const OPS: &[Op] = &[
    Op::Stop,
    Op::Push8,
    Op::Push32,
    Op::Pop,
    Op::Dup,
    Op::Swap,
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Div,
    Op::Mod,
    Op::Lt,
    Op::Gt,
    Op::Eq,
    Op::IsZero,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Not,
    Op::Min,
    Op::Keccak,
    Op::EcRecover,
    Op::SelfAddr,
    Op::Caller,
    Op::CallValue,
    Op::CallDataSize,
    Op::CallDataLoad,
    Op::Timestamp,
    Op::Number,
    Op::Balance,
    Op::SelfBalance,
    Op::SLoad,
    Op::SStore,
    Op::MLoad,
    Op::MStore,
    Op::Jump,
    Op::JumpI,
    Op::JumpDest,
    Op::Transfer,
    Op::Log,
    Op::ReturnVal,
    Op::Return,
    Op::Revert,
];

/// Coarse opcode families, mirroring the ISA's byte-range grouping. The
/// interpreter tallies executed instructions per class into the
/// `vm.exec.ops{class=…}` telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Stack shuffling: `PUSH*`, `POP`, `DUP`, `SWAP`.
    Stack,
    /// Arithmetic, comparison and bitwise logic (`0x10`–`0x1d`).
    Arith,
    /// Cryptographic ops: `KECCAK`, `ECRECOVER`.
    Crypto,
    /// Environment reads (`0x30`–`0x38`): caller, value, timestamp, …
    Env,
    /// Persistent storage: `SLOAD`, `SSTORE`.
    Storage,
    /// Transient memory: `MLOAD`, `MSTORE`.
    Memory,
    /// Control flow: `JUMP`, `JUMPI`, `JUMPDEST`.
    Control,
    /// Value movement and events: `TRANSFER`, `LOG`.
    Value,
    /// Halting: `STOP`, `RETURN*`, `REVERT`.
    Halt,
}

impl OpClass {
    /// Every class, in index order.
    pub const ALL: [OpClass; 9] = [
        OpClass::Stack,
        OpClass::Arith,
        OpClass::Crypto,
        OpClass::Env,
        OpClass::Storage,
        OpClass::Memory,
        OpClass::Control,
        OpClass::Value,
        OpClass::Halt,
    ];

    /// Stable index of the class (for per-class accumulation arrays).
    pub fn index(self) -> usize {
        match self {
            OpClass::Stack => 0,
            OpClass::Arith => 1,
            OpClass::Crypto => 2,
            OpClass::Env => 3,
            OpClass::Storage => 4,
            OpClass::Memory => 5,
            OpClass::Control => 6,
            OpClass::Value => 7,
            OpClass::Halt => 8,
        }
    }
}

impl Op {
    /// The coarse [`OpClass`] this opcode belongs to.
    pub fn class(self) -> OpClass {
        match self {
            Op::Push8 | Op::Push32 | Op::Pop | Op::Dup | Op::Swap => OpClass::Stack,
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Mod
            | Op::Lt
            | Op::Gt
            | Op::Eq
            | Op::IsZero
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Not
            | Op::Min => OpClass::Arith,
            Op::Keccak | Op::EcRecover => OpClass::Crypto,
            Op::SelfAddr
            | Op::Caller
            | Op::CallValue
            | Op::CallDataSize
            | Op::CallDataLoad
            | Op::Timestamp
            | Op::Number
            | Op::Balance
            | Op::SelfBalance => OpClass::Env,
            Op::SLoad | Op::SStore => OpClass::Storage,
            Op::MLoad | Op::MStore => OpClass::Memory,
            Op::Jump | Op::JumpI | Op::JumpDest => OpClass::Control,
            Op::Transfer | Op::Log => OpClass::Value,
            Op::Stop | Op::ReturnVal | Op::Return | Op::Revert => OpClass::Halt,
        }
    }

    /// Decodes an opcode byte.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidOpcode`] for unknown bytes.
    pub fn from_byte(b: u8) -> Result<Op, VmError> {
        OPS.iter()
            .copied()
            .find(|op| *op as u8 == b)
            .ok_or(VmError::InvalidOpcode { byte: b })
    }

    /// The number of immediate bytes following this opcode.
    pub fn immediate_len(&self) -> usize {
        match self {
            Op::Push8 => 8,
            Op::Push32 => 32,
            Op::Dup | Op::Swap => 1,
            _ => 0,
        }
    }

    /// The mnemonic used by the assembler/disassembler.
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            Op::Stop => "STOP",
            Op::Push8 => "PUSH",
            Op::Push32 => "PUSH32",
            Op::Pop => "POP",
            Op::Dup => "DUP",
            Op::Swap => "SWAP",
            Op::Add => "ADD",
            Op::Sub => "SUB",
            Op::Mul => "MUL",
            Op::Div => "DIV",
            Op::Mod => "MOD",
            Op::Lt => "LT",
            Op::Gt => "GT",
            Op::Eq => "EQ",
            Op::IsZero => "ISZERO",
            Op::And => "AND",
            Op::Or => "OR",
            Op::Xor => "XOR",
            Op::Not => "NOT",
            Op::Min => "MIN",
            Op::Keccak => "KECCAK",
            Op::EcRecover => "ECRECOVER",
            Op::SelfAddr => "SELFADDR",
            Op::Caller => "CALLER",
            Op::CallValue => "CALLVALUE",
            Op::CallDataSize => "CALLDATASIZE",
            Op::CallDataLoad => "CALLDATALOAD",
            Op::Timestamp => "TIMESTAMP",
            Op::Number => "NUMBER",
            Op::Balance => "BALANCE",
            Op::SelfBalance => "SELFBALANCE",
            Op::SLoad => "SLOAD",
            Op::SStore => "SSTORE",
            Op::MLoad => "MLOAD",
            Op::MStore => "MSTORE",
            Op::Jump => "JUMP",
            Op::JumpI => "JUMPI",
            Op::JumpDest => "JUMPDEST",
            Op::Transfer => "TRANSFER",
            Op::Log => "LOG",
            Op::ReturnVal => "RETURNVAL",
            Op::Return => "RETURN",
            Op::Revert => "REVERT",
        }
    }

    /// Looks an opcode up by mnemonic (case-insensitive).
    pub(crate) fn from_mnemonic(s: &str) -> Option<Op> {
        let upper = s.to_ascii_uppercase();
        OPS.iter().copied().find(|op| op.mnemonic() == upper)
    }
}

/// Validates bytecode structure and returns the set of valid jump targets.
///
/// # Errors
///
/// Returns [`VmError::InvalidOpcode`] for undecodable bytes and
/// [`VmError::TruncatedImmediate`] when an immediate runs past the end.
pub(crate) fn analyze_jumpdests(code: &[u8]) -> Result<Vec<usize>, VmError> {
    let mut targets = Vec::new();
    let mut pc = 0usize;
    while pc < code.len() {
        let op = Op::from_byte(code[pc])?;
        if op == Op::JumpDest {
            targets.push(pc);
        }
        let imm = op.immediate_len();
        if pc + 1 + imm > code.len() {
            return Err(VmError::TruncatedImmediate { pc });
        }
        pc += 1 + imm;
    }
    Ok(targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip_all_ops() {
        for b in 0u8..=0xff {
            if let Ok(op) = Op::from_byte(b) {
                assert_eq!(op as u8, b);
                assert_eq!(Op::from_mnemonic(op.mnemonic()), Some(op));
            }
        }
    }

    #[test]
    fn unknown_byte_rejected() {
        assert_eq!(
            Op::from_byte(0xfe),
            Err(VmError::InvalidOpcode { byte: 0xfe })
        );
    }

    #[test]
    fn mnemonic_case_insensitive() {
        assert_eq!(Op::from_mnemonic("sload"), Some(Op::SLoad));
        assert_eq!(Op::from_mnemonic("SLOAD"), Some(Op::SLoad));
        assert_eq!(Op::from_mnemonic("nosuch"), None);
    }

    #[test]
    fn immediate_lengths() {
        assert_eq!(Op::Push8.immediate_len(), 8);
        assert_eq!(Op::Push32.immediate_len(), 32);
        assert_eq!(Op::Dup.immediate_len(), 1);
        assert_eq!(Op::Add.immediate_len(), 0);
    }

    #[test]
    fn jumpdest_analysis() {
        // PUSH8 x8 bytes, JUMPDEST, STOP
        let mut code = vec![Op::Push8 as u8];
        code.extend_from_slice(&[0; 8]);
        code.push(Op::JumpDest as u8);
        code.push(Op::Stop as u8);
        assert_eq!(analyze_jumpdests(&code).unwrap(), vec![9]);
    }

    #[test]
    fn jumpdest_inside_immediate_not_counted() {
        // PUSH8 with an immediate byte equal to JUMPDEST's opcode.
        let mut code = vec![Op::Push8 as u8];
        code.extend_from_slice(&[Op::JumpDest as u8; 8]);
        code.push(Op::Stop as u8);
        assert!(analyze_jumpdests(&code).unwrap().is_empty());
    }

    #[test]
    fn truncated_immediate_detected() {
        let code = vec![Op::Push32 as u8, 1, 2, 3];
        assert!(matches!(
            analyze_jumpdests(&code),
            Err(VmError::TruncatedImmediate { pc: 0 })
        ));
    }
}
