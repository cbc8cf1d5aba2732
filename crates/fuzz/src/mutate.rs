//! Corpus mutation: havoc, opcode-aware edits, splicing and calldata
//! tweaks, all driven by a caller-supplied [`SimRng`] so the fuzzer's
//! candidate stream is a pure function of the seed.

use crate::input::FuzzInput;
use smartcrowd_chain::rng::SimRng;
use smartcrowd_vm::exec::MEMORY_LIMIT;
use smartcrowd_vm::isa::Op;

/// Maximum bytecode length of a mutated candidate.
const MAX_CODE: usize = 256;
/// Maximum calldata length of a mutated candidate.
const MAX_CALLDATA: usize = 96;

/// Every decodable opcode byte, in byte order. Built on first use;
/// deterministic.
fn all_ops() -> Vec<Op> {
    (0u8..=255).filter_map(|b| Op::from_byte(b).ok()).collect()
}

/// Magic operands that sit on the interpreter's behavioral boundaries.
fn interesting_u64(input: &FuzzInput, rng: &mut SimRng) -> u64 {
    let jumpdests: Vec<u64> = input
        .boundaries()
        .iter()
        .filter(|&&pc| input.code[pc] == Op::JumpDest as u8)
        .map(|&pc| pc as u64)
        .collect();
    let pool = [
        0,
        1,
        2,
        31,
        32,
        33,
        1023,
        1024,
        input.code.len() as u64,
        MEMORY_LIMIT as u64 - 32,
        MEMORY_LIMIT as u64,
        MEMORY_LIMIT as u64 + 1,
        u64::MAX,
    ];
    if !jumpdests.is_empty() && rng.next_bool(0.4) {
        jumpdests[rng.next_below(jumpdests.len() as u64) as usize]
    } else {
        pool[rng.next_below(pool.len() as u64) as usize]
    }
}

/// Random bit/byte-level churn over the raw bytecode.
fn havoc(input: &mut FuzzInput, rng: &mut SimRng) {
    let edits = 1 + rng.next_below(8);
    for _ in 0..edits {
        if input.code.is_empty() {
            input.code.push(rng.next_u64() as u8);
            continue;
        }
        let i = rng.next_below(input.code.len() as u64) as usize;
        match rng.next_below(5) {
            0 => input.code[i] ^= 1 << rng.next_below(8),
            1 => input.code[i] = rng.next_u64() as u8,
            2 => {
                input.code.remove(i);
            }
            3 => input.code.insert(i, rng.next_u64() as u8),
            _ => {
                let v = input.code[i];
                input.code.insert(i, v);
            }
        }
    }
}

/// Emits one random instruction (opcode plus a plausible immediate).
fn random_instruction(input: &FuzzInput, rng: &mut SimRng, ops: &[Op]) -> Vec<u8> {
    let op = ops[rng.next_below(ops.len() as u64) as usize];
    let mut insn = vec![op as u8];
    match op {
        Op::Push8 => insn.extend_from_slice(&interesting_u64(input, rng).to_be_bytes()),
        Op::Push32 => {
            let mut word = [0u8; 32];
            word[24..].copy_from_slice(&interesting_u64(input, rng).to_be_bytes());
            if rng.next_bool(0.2) {
                for b in word.iter_mut() {
                    *b = rng.next_u64() as u8;
                }
            }
            insn.extend_from_slice(&word);
        }
        Op::Dup | Op::Swap => insn.push(rng.next_below(4) as u8),
        _ => {}
    }
    insn
}

/// Structure-aware edits on the decodable instruction prefix.
fn opcode_aware(input: &mut FuzzInput, rng: &mut SimRng) {
    let ops = all_ops();
    let bounds = input.boundaries();
    if bounds.is_empty() {
        let insn = random_instruction(input, rng, &ops);
        input.code.extend_from_slice(&insn);
        return;
    }
    let pc = bounds[rng.next_below(bounds.len() as u64) as usize];
    // The boundary walk guarantees this decodes.
    let Ok(op) = Op::from_byte(input.code[pc]) else {
        return;
    };
    let len = 1 + op.immediate_len();
    match rng.next_below(4) {
        0 => {
            // Replace the opcode with one of the same immediate width,
            // keeping the rest of the stream aligned.
            let same_width: Vec<Op> = ops
                .iter()
                .copied()
                .filter(|o| o.immediate_len() == op.immediate_len())
                .collect();
            input.code[pc] = same_width[rng.next_below(same_width.len() as u64) as usize] as u8;
        }
        1 => {
            // Perturb the immediate (push operands steer jumps, memory
            // offsets and divisors; Dup/Swap depth steers stack shape).
            match op {
                Op::Push8 => {
                    let v = interesting_u64(input, rng);
                    input.code[pc + 1..pc + 9].copy_from_slice(&v.to_be_bytes());
                }
                Op::Push32 => {
                    let v = interesting_u64(input, rng);
                    input.code[pc + 1..pc + 25].fill(0);
                    input.code[pc + 25..pc + 33].copy_from_slice(&v.to_be_bytes());
                }
                Op::Dup | Op::Swap => input.code[pc + 1] = rng.next_below(6) as u8,
                _ => input.code[pc] ^= 1 << rng.next_below(8),
            }
        }
        2 => {
            // Insert a fresh instruction at this boundary.
            let insn = random_instruction(input, rng, &ops);
            input.code.splice(pc..pc, insn);
        }
        _ => {
            // Delete this instruction.
            input.code.drain(pc..pc + len);
        }
    }
}

/// Crosses two corpus entries at instruction boundaries.
fn splice(input: &mut FuzzInput, other: &FuzzInput, rng: &mut SimRng) {
    let a = input.boundaries();
    let b = other.boundaries();
    if a.is_empty() || b.is_empty() {
        input.code.extend_from_slice(&other.code);
        return;
    }
    let cut_a = a[rng.next_below(a.len() as u64) as usize];
    let cut_b = b[rng.next_below(b.len() as u64) as usize];
    let mut code = input.code[..cut_a].to_vec();
    code.extend_from_slice(&other.code[cut_b..]);
    input.code = code;
}

/// Word-level calldata churn.
fn mutate_calldata(input: &mut FuzzInput, rng: &mut SimRng) {
    match rng.next_below(4) {
        0 => {
            // Append an interesting word.
            let mut word = [0u8; 32];
            let v = interesting_u64(input, rng);
            word[24..].copy_from_slice(&v.to_be_bytes());
            input.calldata.extend_from_slice(&word);
        }
        1 if !input.calldata.is_empty() => {
            let i = rng.next_below(input.calldata.len() as u64) as usize;
            input.calldata[i] = rng.next_u64() as u8;
        }
        2 => input.calldata.truncate(input.calldata.len() / 2),
        _ => {
            // Overwrite the selector word (word 0) with a small value —
            // the in-repo contracts dispatch on it.
            if input.calldata.len() < 32 {
                input.calldata.resize(32, 0);
            }
            input.calldata[..32].fill(0);
            input.calldata[31] = rng.next_below(4) as u8;
        }
    }
}

/// Derives one candidate from the corpus: pick a base entry, apply one
/// mutation strategy, clamp to `MAX_CODE` (256) bytes of code and
/// `MAX_CALLDATA` (96) of calldata. With an empty corpus the candidate is a
/// fresh random instruction sequence.
pub fn mutate(corpus: &[FuzzInput], rng: &mut SimRng) -> FuzzInput {
    let mut input = if corpus.is_empty() {
        FuzzInput::from_code(Vec::new())
    } else {
        corpus[rng.next_below(corpus.len() as u64) as usize].clone()
    };
    match rng.next_below(10) {
        0..=2 => havoc(&mut input, rng),
        3..=6 => opcode_aware(&mut input, rng),
        7 => {
            if corpus.is_empty() {
                havoc(&mut input, rng);
            } else {
                let other = &corpus[rng.next_below(corpus.len() as u64) as usize];
                splice(&mut input, other, rng);
            }
        }
        _ => mutate_calldata(&mut input, rng),
    }
    input.code.truncate(MAX_CODE);
    input.calldata.truncate(MAX_CALLDATA);
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_vm::asm::assemble;

    fn base_corpus() -> Vec<FuzzInput> {
        vec![
            FuzzInput::from_code(assemble("PUSH 1\nPUSH 2\nADD\nRETURNVAL\n").unwrap()),
            FuzzInput::from_code(assemble("PUSH 1\nPUSH 0\nSSTORE\nSTOP\n").unwrap()),
        ]
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let corpus = base_corpus();
        let gen = |seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..50)
                .map(|_| mutate(&corpus, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8), "different seeds diverge");
    }

    #[test]
    fn mutation_respects_limits() {
        // Splicing grows the code, so a mutant of a mutant can outgrow the
        // clamp unless it is applied every time.
        let mut corpus = base_corpus();
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..500 {
            let m = mutate(&corpus, &mut rng);
            assert!(m.code.len() <= MAX_CODE);
            assert!(m.calldata.len() <= MAX_CALLDATA);
            corpus.push(m);
        }
    }

    #[test]
    fn empty_corpus_still_produces_candidates() {
        let mut rng = SimRng::seed_from_u64(1);
        let m = mutate(&[], &mut rng);
        // Either havoc on empty code or a fresh instruction — both fine,
        // as long as something came out without panicking.
        let _ = m.instruction_count();
    }
}
