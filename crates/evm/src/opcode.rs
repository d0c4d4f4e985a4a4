//! Opcode definitions for the simulated EVM.
//!
//! The subset covers everything the study's workloads execute: arithmetic,
//! comparison, Keccak, environment access, storage, memory, control flow,
//! logging, calls (including value-bearing reentrant calls — the DAO drain),
//! and contract self-balance movement.

/// EVM opcodes (byte values match the real instruction set so disassembly of
/// real fragments lines up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)] // names match the yellow paper mnemonics
pub enum Opcode {
    Stop = 0x00,
    Add = 0x01,
    Mul = 0x02,
    Sub = 0x03,
    Div = 0x04,
    SDiv = 0x05,
    Mod = 0x06,
    SMod = 0x07,
    AddMod = 0x08,
    MulMod = 0x09,
    Exp = 0x0A,
    SignExtend = 0x0B,
    Lt = 0x10,
    Gt = 0x11,
    Slt = 0x12,
    Sgt = 0x13,
    Eq = 0x14,
    IsZero = 0x15,
    And = 0x16,
    Or = 0x17,
    Xor = 0x18,
    Not = 0x19,
    Byte = 0x1A,
    Sha3 = 0x20,
    Address = 0x30,
    Balance = 0x31,
    Origin = 0x32,
    Caller = 0x33,
    CallValue = 0x34,
    CallDataLoad = 0x35,
    CallDataSize = 0x36,
    CallDataCopy = 0x37,
    CodeSize = 0x38,
    GasPrice = 0x3A,
    ExtCodeSize = 0x3B,
    ExtCodeCopy = 0x3C,
    Coinbase = 0x41,
    Timestamp = 0x42,
    Number = 0x43,
    Difficulty = 0x44,
    GasLimit = 0x45,
    Pop = 0x50,
    MLoad = 0x51,
    MStore = 0x52,
    MStore8 = 0x53,
    SLoad = 0x54,
    SStore = 0x55,
    Jump = 0x56,
    JumpI = 0x57,
    Pc = 0x58,
    MSize = 0x59,
    Gas = 0x5A,
    JumpDest = 0x5B,
    // PUSH1..PUSH32 are 0x60..=0x7F, DUP1..DUP16 are 0x80..=0x8F,
    // SWAP1..SWAP16 are 0x90..=0x9F; handled numerically by the interpreter.
    Log0 = 0xA0,
    Log1 = 0xA1,
    Log2 = 0xA2,
    Log3 = 0xA3,
    Log4 = 0xA4,
    Create = 0xF0,
    Call = 0xF1,
    CallCode = 0xF2,
    Return = 0xF3,
    DelegateCall = 0xF4,
    SelfDestruct = 0xFF,
}

impl Opcode {
    /// Decodes a byte into a structured opcode, if it is one of the
    /// non-parameterized instructions (PUSH/DUP/SWAP are ranges and decoded
    /// inline by the interpreter).
    pub fn from_byte(b: u8) -> Option<Opcode> {
        use Opcode::*;
        Some(match b {
            0x00 => Stop,
            0x01 => Add,
            0x02 => Mul,
            0x03 => Sub,
            0x04 => Div,
            0x05 => SDiv,
            0x06 => Mod,
            0x07 => SMod,
            0x08 => AddMod,
            0x09 => MulMod,
            0x0A => Exp,
            0x0B => SignExtend,
            0x10 => Lt,
            0x11 => Gt,
            0x12 => Slt,
            0x13 => Sgt,
            0x14 => Eq,
            0x15 => IsZero,
            0x16 => And,
            0x17 => Or,
            0x18 => Xor,
            0x19 => Not,
            0x1A => Byte,
            0x20 => Sha3,
            0x30 => Address,
            0x31 => Balance,
            0x32 => Origin,
            0x33 => Caller,
            0x34 => CallValue,
            0x35 => CallDataLoad,
            0x36 => CallDataSize,
            0x37 => CallDataCopy,
            0x38 => CodeSize,
            0x3A => GasPrice,
            0x3B => ExtCodeSize,
            0x3C => ExtCodeCopy,
            0x41 => Coinbase,
            0x42 => Timestamp,
            0x43 => Number,
            0x44 => Difficulty,
            0x45 => GasLimit,
            0x50 => Pop,
            0x51 => MLoad,
            0x52 => MStore,
            0x53 => MStore8,
            0x54 => SLoad,
            0x55 => SStore,
            0x56 => Jump,
            0x57 => JumpI,
            0x58 => Pc,
            0x59 => MSize,
            0x5A => Gas,
            0x5B => JumpDest,
            0xA0 => Log0,
            0xA1 => Log1,
            0xA2 => Log2,
            0xA3 => Log3,
            0xA4 => Log4,
            0xF0 => Create,
            0xF1 => Call,
            0xF2 => CallCode,
            0xF3 => Return,
            0xF4 => DelegateCall,
            0xFF => SelfDestruct,
            _ => return None,
        })
    }
}

/// Coarse instruction families used by the telemetry dispatch counters.
///
/// Classification works on the *raw byte* (not [`Opcode`]) so the PUSH /
/// DUP / SWAP ranges — which the interpreter handles numerically and which
/// have no enum variant — are still attributed, and undefined bytes land in
/// [`OpClass::Other`] rather than being dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// ADD..SIGNEXTEND (0x01–0x0B).
    Arithmetic,
    /// LT..SAR comparisons and bitwise ops (0x10–0x1A).
    Compare,
    /// KECCAK256 (0x20).
    Keccak,
    /// Caller/call-data/code/balance environment reads (0x30–0x3C).
    Environment,
    /// Block header accessors (0x41–0x45).
    Block,
    /// Stack and memory shuffling: POP/MLOAD/MSTORE(8), PC/MSIZE/GAS/
    /// JUMPDEST, and the PUSH/DUP/SWAP ranges (0x50–0x53, 0x58–0x5B,
    /// 0x60–0x9F).
    StackMem,
    /// SLOAD/SSTORE (0x54–0x55).
    Storage,
    /// STOP, JUMP/JUMPI, RETURN (0x00, 0x56–0x57, 0xF3).
    ControlFlow,
    /// LOG0..LOG4 (0xA0–0xA4).
    Logging,
    /// CREATE and the call family plus SELFDESTRUCT (0xF0–0xF2, 0xF4, 0xFF).
    CallCreate,
    /// Anything not covered above (undefined / invalid bytes).
    Other,
}

impl OpClass {
    /// Every class, in the order used for counters and reports.
    pub const ALL: [OpClass; 11] = [
        OpClass::Arithmetic,
        OpClass::Compare,
        OpClass::Keccak,
        OpClass::Environment,
        OpClass::Block,
        OpClass::StackMem,
        OpClass::Storage,
        OpClass::ControlFlow,
        OpClass::Logging,
        OpClass::CallCreate,
        OpClass::Other,
    ];

    /// Stable lowercase name (used as the metric-name suffix).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Arithmetic => "arithmetic",
            OpClass::Compare => "compare",
            OpClass::Keccak => "keccak",
            OpClass::Environment => "environment",
            OpClass::Block => "block",
            OpClass::StackMem => "stack_mem",
            OpClass::Storage => "storage",
            OpClass::ControlFlow => "control_flow",
            OpClass::Logging => "logging",
            OpClass::CallCreate => "call_create",
            OpClass::Other => "other",
        }
    }

    /// Index into [`OpClass::ALL`] (and the telemetry counter table).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Classifies a raw code byte.
    #[inline]
    pub fn classify(byte: u8) -> OpClass {
        match byte {
            0x00 | 0x56 | 0x57 | 0xF3 => OpClass::ControlFlow,
            0x01..=0x0B => OpClass::Arithmetic,
            0x10..=0x1A => OpClass::Compare,
            0x20 => OpClass::Keccak,
            0x30..=0x3C => OpClass::Environment,
            0x41..=0x45 => OpClass::Block,
            0x50..=0x53 | 0x58..=0x5B | 0x60..=0x9F => OpClass::StackMem,
            0x54 | 0x55 => OpClass::Storage,
            0xA0..=0xA4 => OpClass::Logging,
            0xF0..=0xF2 | 0xF4 | 0xFF => OpClass::CallCreate,
            _ => OpClass::Other,
        }
    }
}

/// A tiny bytecode assembler used by tests, examples and the scenario
/// generators to author contracts (the DAO-style splitter, ping-pong callers,
/// storage churners) without hand-writing hex.
#[derive(Default, Debug, Clone)]
pub struct Assembler {
    code: Vec<u8>,
}

impl Assembler {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a non-parameterized opcode.
    pub fn op(mut self, op: Opcode) -> Self {
        self.code.push(op as u8);
        self
    }

    /// Appends a raw byte (escape hatch).
    pub fn raw(mut self, b: u8) -> Self {
        self.code.push(b);
        self
    }

    /// Appends the smallest PUSH that fits `value`.
    pub fn push(mut self, value: u64) -> Self {
        let be = value.to_be_bytes();
        let start = be.iter().position(|&b| b != 0).unwrap_or(7);
        let bytes = &be[start..];
        self.code.push(0x60 + (bytes.len() as u8 - 1));
        self.code.extend_from_slice(bytes);
        self
    }

    /// Appends PUSH20 of an address.
    pub fn push_address(mut self, addr: fork_primitives::Address) -> Self {
        self.code.push(0x60 + 19); // PUSH20
        self.code.extend_from_slice(addr.as_bytes());
        self
    }

    /// Appends DUPn (1-indexed, n ≤ 16).
    pub fn dup(mut self, n: u8) -> Self {
        assert!((1..=16).contains(&n));
        self.code.push(0x80 + n - 1);
        self
    }

    /// Appends SWAPn (1-indexed, n ≤ 16).
    pub fn swap(mut self, n: u8) -> Self {
        assert!((1..=16).contains(&n));
        self.code.push(0x90 + n - 1);
        self
    }

    /// Current length (for computing jump destinations).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when no bytes have been emitted.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Finishes and returns the bytecode.
    pub fn build(self) -> Vec<u8> {
        self.code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip_for_defined_opcodes() {
        for b in 0u8..=255 {
            if let Some(op) = Opcode::from_byte(b) {
                assert_eq!(op as u8, b);
            }
        }
    }

    #[test]
    fn push_dup_swap_ranges_not_structured() {
        assert!(Opcode::from_byte(0x60).is_none()); // PUSH1
        assert!(Opcode::from_byte(0x7F).is_none()); // PUSH32
        assert!(Opcode::from_byte(0x80).is_none()); // DUP1
        assert!(Opcode::from_byte(0x9F).is_none()); // SWAP16
    }

    #[test]
    fn assembler_minimal_push() {
        let code = Assembler::new().push(0x01).push(0x1234).build();
        assert_eq!(code, vec![0x60, 0x01, 0x61, 0x12, 0x34]);
    }

    #[test]
    fn assembler_push_zero() {
        // Zero still needs one byte (PUSH1 0x00).
        assert_eq!(Assembler::new().push(0).build(), vec![0x60, 0x00]);
    }

    #[test]
    fn assembler_dup_swap_encoding() {
        let code = Assembler::new().dup(1).dup(16).swap(1).swap(16).build();
        assert_eq!(code, vec![0x80, 0x8F, 0x90, 0x9F]);
    }

    #[test]
    fn assembler_address_push() {
        let addr = fork_primitives::Address([9u8; 20]);
        let code = Assembler::new().push_address(addr).build();
        assert_eq!(code[0], 0x73); // PUSH20
        assert_eq!(&code[1..], addr.as_bytes());
    }

    #[test]
    fn classify_covers_defined_opcodes_sensibly() {
        // Every structured opcode must land somewhere other than Other.
        for b in 0u8..=255 {
            if Opcode::from_byte(b).is_some() {
                assert_ne!(
                    OpClass::classify(b),
                    OpClass::Other,
                    "defined opcode {b:#04x} classified as Other"
                );
            }
        }
        // Spot checks across the partition.
        assert_eq!(OpClass::classify(Opcode::Add as u8), OpClass::Arithmetic);
        assert_eq!(OpClass::classify(Opcode::Lt as u8), OpClass::Compare);
        assert_eq!(OpClass::classify(Opcode::Sha3 as u8), OpClass::Keccak);
        assert_eq!(
            OpClass::classify(Opcode::Caller as u8),
            OpClass::Environment
        );
        assert_eq!(OpClass::classify(Opcode::Number as u8), OpClass::Block);
        assert_eq!(OpClass::classify(0x60), OpClass::StackMem); // PUSH1
        assert_eq!(OpClass::classify(0x8F), OpClass::StackMem); // DUP16
        assert_eq!(OpClass::classify(Opcode::SStore as u8), OpClass::Storage);
        assert_eq!(OpClass::classify(Opcode::Jump as u8), OpClass::ControlFlow);
        assert_eq!(
            OpClass::classify(Opcode::Return as u8),
            OpClass::ControlFlow
        );
        assert_eq!(OpClass::classify(Opcode::Log0 as u8), OpClass::Logging);
        assert_eq!(OpClass::classify(Opcode::Call as u8), OpClass::CallCreate);
        assert_eq!(OpClass::classify(0xFE), OpClass::Other); // INVALID
    }

    #[test]
    fn opclass_index_matches_all_order() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
    }
}
