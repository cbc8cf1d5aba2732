//! A two-pass assembler for SCVM bytecode.
//!
//! The SmartCrowd incentive contracts in `smartcrowd-core` are written in
//! this assembly — the analogue of the paper's 350 lines of Solidity (§VII).
//!
//! ## Syntax
//!
//! - one instruction per line; `;` and `#` start comments;
//! - `PUSH <n>` takes a decimal or `0x`-hex value up to 64 bits;
//! - `PUSH32 <n>` takes up to 256 bits;
//! - `PUSH @label` pushes the code offset of `label`;
//! - `DUP <n>` / `SWAP <n>` take a small immediate;
//! - `label:` defines a jump target and implicitly emits a `JUMPDEST`.
//!
//! ## Source maps
//!
//! [`assemble_with_source_map`] additionally returns a [`SourceMap`]
//! recording the source line/column of every emitted instruction, so
//! diagnostics from the verifier and the abstract-interpretation engine
//! (`scvm-lint`) can point at the listing instead of raw byte offsets.
//!
//! ```
//! use smartcrowd_vm::asm::assemble;
//!
//! let code = assemble("
//!     PUSH 2
//!     PUSH 3
//!     ADD
//!     RETURNVAL
//! ").unwrap();
//! assert!(!code.is_empty());
//! ```

use crate::error::VmError;
use crate::isa::Op;
use smartcrowd_crypto::U256;
use std::collections::{BTreeMap, HashMap};

/// A line/column position in assembly source (both 1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based column of the instruction's first character.
    pub col: usize,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps emitted instruction offsets (program counters) back to source
/// positions. Built by [`assemble_with_source_map`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceMap {
    spans: BTreeMap<usize, Span>,
    /// Length of the emitted bytecode: offsets at or past this are not
    /// inside any instruction.
    end: usize,
}

impl SourceMap {
    /// The span of the instruction covering `pc` (the nearest instruction
    /// start at or before `pc` — useful for offsets into immediates).
    pub fn enclosing(&self, pc: usize) -> Option<Span> {
        if pc >= self.end {
            return None;
        }
        self.spans.range(..=pc).next_back().map(|(_, s)| *s)
    }

    /// The program counter a [`VmError`] points at, when it carries one.
    pub(crate) fn vm_error_pc(e: &VmError) -> Option<usize> {
        match e {
            VmError::TruncatedImmediate { pc }
            | VmError::StackUnderflow { pc }
            | VmError::StackOverflow { pc }
            | VmError::BadJump { pc, .. }
            | VmError::MemoryLimit { pc, .. } => Some(*pc),
            VmError::Verify(v) => Some(v.pc()),
            _ => None,
        }
    }

    /// Renders a [`VmError`] with its source span (when the error names a
    /// program counter that maps back to the listing).
    pub fn describe_vm_error(&self, e: &VmError) -> String {
        match Self::vm_error_pc(e).and_then(|pc| self.enclosing(pc)) {
            Some(span) => format!("{span}: {e}"),
            None => e.to_string(),
        }
    }
}

enum Item {
    Op(Op),
    Push8(u64),
    Push32(U256),
    PushLabel(String),
    Immediate(u8),
    Label(String),
}

fn parse_u256(token: &str, line: usize) -> Result<U256, VmError> {
    let parsed = if let Some(hexpart) = token.strip_prefix("0x") {
        U256::from_hex(hexpart).map_err(|e| VmError::Parse {
            line,
            detail: format!("bad hex literal '{token}': {e}"),
        })
    } else {
        token
            .parse::<u128>()
            .map(U256::from_u128)
            .map_err(|_| VmError::Parse {
                line,
                detail: format!("bad literal '{token}'"),
            })
    }?;
    Ok(parsed)
}

fn tokenize(source: &str) -> Result<Vec<(Span, Item)>, VmError> {
    let mut items = Vec::new();
    for (lineno, raw) in source.lines().enumerate() {
        let line_number = lineno + 1;
        let line = raw.split([';', '#']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let span = Span {
            line: line_number,
            col: raw.len() - raw.trim_start().len() + 1,
        };
        if let Some(label) = line.strip_suffix(':') {
            let label = label.trim();
            if label.is_empty() || !label.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(VmError::Parse {
                    line: line_number,
                    detail: format!("bad label '{label}'"),
                });
            }
            items.push((span, Item::Label(label.to_string())));
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(mnemonic) = parts.next() else {
            continue; // blank after comment stripping
        };
        let operand = parts.next();
        if parts.next().is_some() {
            return Err(VmError::Parse {
                line: line_number,
                detail: "too many operands".to_string(),
            });
        }
        let op = Op::from_mnemonic(mnemonic).ok_or_else(|| VmError::Parse {
            line: line_number,
            detail: format!("unknown mnemonic '{mnemonic}'"),
        })?;
        match op {
            Op::Push8 => {
                let token = operand.ok_or_else(|| VmError::Parse {
                    line: line_number,
                    detail: "PUSH needs an operand".to_string(),
                })?;
                if let Some(label) = token.strip_prefix('@') {
                    items.push((span, Item::PushLabel(label.to_string())));
                } else {
                    let v = parse_u256(token, line_number)?;
                    if v.bits() > 64 {
                        return Err(VmError::Parse {
                            line: line_number,
                            detail: format!("'{token}' exceeds 64 bits; use PUSH32"),
                        });
                    }
                    items.push((span, Item::Push8(v.low_u64())));
                }
            }
            Op::Push32 => {
                let token = operand.ok_or_else(|| VmError::Parse {
                    line: line_number,
                    detail: "PUSH32 needs an operand".to_string(),
                })?;
                items.push((span, Item::Push32(parse_u256(token, line_number)?)));
            }
            Op::Dup | Op::Swap => {
                let token = operand.ok_or_else(|| VmError::Parse {
                    line: line_number,
                    detail: format!("{} needs an operand", op.mnemonic()),
                })?;
                let n: u8 = token.parse().map_err(|_| VmError::Parse {
                    line: line_number,
                    detail: format!("bad immediate '{token}'"),
                })?;
                items.push((span, Item::Op(op)));
                items.push((span, Item::Immediate(n)));
            }
            _ => {
                if operand.is_some() {
                    return Err(VmError::Parse {
                        line: line_number,
                        detail: format!("{} takes no operand", op.mnemonic()),
                    });
                }
                items.push((span, Item::Op(op)));
            }
        }
    }
    Ok(items)
}

/// Assembles SCVM source into bytecode.
///
/// # Errors
///
/// Returns [`VmError::Parse`], [`VmError::DuplicateLabel`] or
/// [`VmError::UndefinedLabel`].
pub fn assemble(source: &str) -> Result<Vec<u8>, VmError> {
    assemble_with_source_map(source).map(|(code, _)| code)
}

/// Assembles SCVM source into bytecode plus a [`SourceMap`] from emitted
/// instruction offsets back to source line/column spans.
///
/// # Errors
///
/// Returns [`VmError::Parse`], [`VmError::DuplicateLabel`] or
/// [`VmError::UndefinedLabel`].
pub fn assemble_with_source_map(source: &str) -> Result<(Vec<u8>, SourceMap), VmError> {
    let items = tokenize(source)?;

    // Pass 1: lay out offsets and collect labels.
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut offset = 0usize;
    for (_, item) in &items {
        match item {
            Item::Label(name) => {
                if labels.insert(name.clone(), offset).is_some() {
                    return Err(VmError::DuplicateLabel {
                        label: name.clone(),
                    });
                }
                offset += 1; // the implicit JUMPDEST
            }
            Item::Op(_) => offset += 1,
            Item::Push8(_) | Item::PushLabel(_) => offset += 9,
            Item::Push32(_) => offset += 33,
            Item::Immediate(_) => offset += 1,
        }
    }

    // Pass 2: emit, recording each instruction-start offset's span.
    let mut code = Vec::with_capacity(offset);
    let mut map = SourceMap::default();
    for (span, item) in &items {
        if !matches!(item, Item::Immediate(_)) {
            map.spans.insert(code.len(), *span);
        }
        match item {
            Item::Label(_) => code.push(Op::JumpDest as u8),
            Item::Op(op) => code.push(*op as u8),
            Item::Push8(v) => {
                code.push(Op::Push8 as u8);
                code.extend_from_slice(&v.to_be_bytes());
            }
            Item::Push32(v) => {
                code.push(Op::Push32 as u8);
                code.extend_from_slice(&v.to_be_bytes());
            }
            Item::PushLabel(name) => {
                let target = labels.get(name).ok_or_else(|| VmError::UndefinedLabel {
                    label: name.clone(),
                })?;
                code.push(Op::Push8 as u8);
                code.extend_from_slice(&(*target as u64).to_be_bytes());
            }
            Item::Immediate(n) => code.push(*n),
        }
    }
    map.end = code.len();
    Ok((code, map))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_basic_program() {
        let code = assemble("PUSH 2\nPUSH 3\nADD\nRETURNVAL\n").unwrap();
        assert_eq!(code[0], Op::Push8 as u8);
        assert_eq!(code.len(), 9 + 9 + 1 + 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let a = assemble("PUSH 1 ; comment\n\n# full line comment\nSTOP\n").unwrap();
        let b = assemble("PUSH 1\nSTOP\n").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hex_and_decimal_literals() {
        let a = assemble("PUSH 255\n").unwrap();
        let b = assemble("PUSH 0xff\n").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn push32_large_value() {
        let code =
            assemble("PUSH32 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff\n")
                .unwrap();
        assert_eq!(code.len(), 33);
        assert!(code[1..].iter().all(|&b| b == 0xff));
    }

    #[test]
    fn push_rejects_oversized_literal() {
        let err = assemble("PUSH 0x10000000000000000\n").unwrap_err();
        assert!(matches!(err, VmError::Parse { .. }));
    }

    #[test]
    fn labels_resolve_and_emit_jumpdest() {
        let code = assemble("PUSH @end\nJUMP\nend:\nSTOP\n").unwrap();
        // PUSH8(9 bytes) + JUMP(1) = 10; label at offset 10 is JUMPDEST.
        assert_eq!(code[10], Op::JumpDest as u8);
        let mut imm = [0u8; 8];
        imm.copy_from_slice(&code[1..9]);
        assert_eq!(u64::from_be_bytes(imm), 10);
    }

    #[test]
    fn undefined_label_rejected() {
        assert!(matches!(
            assemble("PUSH @nowhere\nJUMP\n"),
            Err(VmError::UndefinedLabel { .. })
        ));
    }

    #[test]
    fn duplicate_label_rejected() {
        assert!(matches!(
            assemble("a:\nSTOP\na:\nSTOP\n"),
            Err(VmError::DuplicateLabel { .. })
        ));
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        match assemble("PUSH 1\nFROBNICATE\n") {
            Err(VmError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn dup_swap_immediates() {
        let code = assemble("PUSH 1\nPUSH 2\nDUP 1\nSWAP 2\nSTOP\n").unwrap();
        let dup_pos = 18;
        assert_eq!(code[dup_pos], Op::Dup as u8);
        assert_eq!(code[dup_pos + 1], 1);
        assert_eq!(code[dup_pos + 2], Op::Swap as u8);
        assert_eq!(code[dup_pos + 3], 2);
    }

    #[test]
    fn operand_arity_checked() {
        assert!(matches!(assemble("ADD 1\n"), Err(VmError::Parse { .. })));
        assert!(matches!(assemble("PUSH\n"), Err(VmError::Parse { .. })));
        assert!(matches!(assemble("DUP\n"), Err(VmError::Parse { .. })));
        assert!(matches!(assemble("PUSH 1 2\n"), Err(VmError::Parse { .. })));
    }

    #[test]
    fn bad_label_names_rejected() {
        assert!(matches!(
            assemble("bad label:\nSTOP\n"),
            Err(VmError::Parse { .. })
        ));
        assert!(matches!(assemble(":\nSTOP\n"), Err(VmError::Parse { .. })));
    }

    #[test]
    fn source_map_tracks_lines_and_columns() {
        let src = "PUSH 2\n  PUSH 3\nADD\nRETURNVAL\n";
        let (code, map) = assemble_with_source_map(src).unwrap();
        assert_eq!(code.len(), 20);
        assert_eq!(map.spans.get(&0), Some(&Span { line: 1, col: 1 }));
        // Second PUSH is indented by two spaces.
        assert_eq!(map.spans.get(&9), Some(&Span { line: 2, col: 3 }));
        assert_eq!(map.spans.get(&18), Some(&Span { line: 3, col: 1 }));
        assert_eq!(map.spans.get(&19), Some(&Span { line: 4, col: 1 }));
    }

    #[test]
    fn source_map_enclosing_covers_immediates() {
        let (_, map) = assemble_with_source_map("PUSH 2\nSTOP\n").unwrap();
        // pc 5 is inside the PUSH immediate: report the PUSH's span.
        assert_eq!(map.enclosing(5), Some(Span { line: 1, col: 1 }));
        assert_eq!(map.spans.get(&5), None);
        assert_eq!(map.enclosing(999), None, "past the end");
    }

    #[test]
    fn source_map_covers_labels_and_dups() {
        let (code, map) = assemble_with_source_map("a:\nPUSH 1\nPUSH 2\nDUP 1\nSTOP\n").unwrap();
        // JUMPDEST at 0, PUSHes at 1 and 10, DUP at 19 (+imm), STOP at 21.
        assert_eq!(map.spans.get(&0), Some(&Span { line: 1, col: 1 }));
        assert_eq!(map.spans.get(&19), Some(&Span { line: 4, col: 1 }));
        assert_eq!(map.spans.get(&21), Some(&Span { line: 5, col: 1 }));
        assert_eq!(code.len(), 22);
    }

    #[test]
    fn source_map_maps_mid_block_runtime_traps() {
        // BadJump and MemoryLimit fire mid-block (the faulting jump /
        // memory op is rarely a block entry), so they must carry their
        // own pc for the span lookup rather than rendering bare.
        let (_, map) = assemble_with_source_map("PUSH 1\nPUSH 5\nJUMP\nSTOP\n").unwrap();
        // The JUMP sits at pc 18, past the two 9-byte PUSHes.
        let err = VmError::BadJump { pc: 18, dest: 5 };
        assert_eq!(SourceMap::vm_error_pc(&err), Some(18));
        let rendered = map.describe_vm_error(&err);
        assert!(rendered.starts_with("3:1:"), "got {rendered}");

        let (_, map) = assemble_with_source_map("PUSH 1\nPUSH 2\nADD\nMLOAD\nSTOP\n").unwrap();
        // The MLOAD sits at pc 19, mid-block after the ADD.
        let err = VmError::MemoryLimit {
            pc: 19,
            offset: usize::MAX,
        };
        assert_eq!(SourceMap::vm_error_pc(&err), Some(19));
        let rendered = map.describe_vm_error(&err);
        assert!(rendered.starts_with("4:1:"), "got {rendered}");
    }

    #[test]
    fn source_map_renders_vm_errors_with_spans() {
        let (_, map) = assemble_with_source_map("PUSH 1\nPUSH 2\nSWAP 0\nSTOP\n").unwrap();
        let err = VmError::Verify(crate::verify::VerifyError::SwapZero { pc: 18 });
        let rendered = map.describe_vm_error(&err);
        assert!(rendered.starts_with("3:1:"), "got {rendered}");
        // Errors without a pc render unchanged.
        let plain = map.describe_vm_error(&VmError::InsufficientBalance);
        assert_eq!(plain, VmError::InsufficientBalance.to_string());
    }
}
