//! Fuzz inputs: a bytecode program plus calldata, with the structural
//! helpers (instruction boundaries, hex round-trips, stable ids) the
//! mutation and shrinking stages need.

use smartcrowd_crypto::hex;
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_vm::isa::Op;

/// One fuzz case: the contract bytecode to plant and the calldata to
/// invoke it with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzInput {
    /// Raw SCVM bytecode (not necessarily well-formed).
    pub code: Vec<u8>,
    /// Calldata for the single call the case performs.
    pub calldata: Vec<u8>,
}

impl FuzzInput {
    /// Builds a case from bytecode with empty calldata.
    pub(crate) fn from_code(code: Vec<u8>) -> Self {
        FuzzInput {
            code,
            calldata: Vec::new(),
        }
    }

    /// Start offsets of decodable instructions, walking from pc 0 until
    /// the first undecodable byte or truncated immediate. Raw mutation
    /// can produce garbage tails; everything before the first bad byte
    /// still has meaningful structure.
    pub fn boundaries(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut pc = 0usize;
        while pc < self.code.len() {
            let Ok(op) = Op::from_byte(self.code[pc]) else {
                break;
            };
            let next = pc + 1 + op.immediate_len();
            if next > self.code.len() {
                break;
            }
            out.push(pc);
            pc = next;
        }
        out
    }

    /// Number of whole decodable instructions (the size metric the
    /// shrinker minimizes and the acceptance criterion counts).
    pub fn instruction_count(&self) -> usize {
        self.boundaries().len()
    }

    /// A short stable identifier: the first 8 hex digits of
    /// `keccak(code ‖ calldata)`. Used in generated test names.
    pub fn id(&self) -> String {
        let mut blob = self.code.clone();
        blob.extend_from_slice(&self.calldata);
        hex::encode(&keccak256(&blob))[..8].to_string()
    }

    /// Stable identifier of the bytecode alone (calldata excluded):
    /// groups fuzz cases that execute the same program, e.g. for the
    /// corpus-wide suspicious-gas-witness report.
    pub(crate) fn code_id(&self) -> String {
        hex::encode(&keccak256(&self.code))[..8].to_string()
    }

    /// Hex of the bytecode.
    pub fn code_hex(&self) -> String {
        hex::encode(&self.code)
    }

    /// Hex of the calldata.
    pub fn calldata_hex(&self) -> String {
        hex::encode(&self.calldata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_vm::asm::assemble;

    #[test]
    fn boundaries_walk_whole_instructions() {
        let input = FuzzInput::from_code(assemble("PUSH 1\nPUSH 2\nADD\nSTOP\n").unwrap());
        assert_eq!(input.boundaries(), vec![0, 9, 18, 19]);
        assert_eq!(input.instruction_count(), 4);
    }

    #[test]
    fn boundaries_stop_at_garbage() {
        // Valid PUSH, then an undecodable byte.
        let mut code = assemble("PUSH 1\n").unwrap();
        code.push(0xfe);
        let input = FuzzInput::from_code(code);
        assert_eq!(input.boundaries(), vec![0]);
    }

    #[test]
    fn boundaries_stop_at_truncated_immediate() {
        // PUSH32 opcode with only 3 bytes of immediate.
        let input = FuzzInput::from_code(vec![Op::Push32 as u8, 1, 2, 3]);
        assert!(input.boundaries().is_empty());
    }

    #[test]
    fn id_is_stable_and_input_sensitive() {
        let a = FuzzInput::from_code(vec![0x00]);
        let b = FuzzInput::from_code(vec![0x01]);
        assert_eq!(a.id(), a.id());
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id().len(), 8);
    }
}
