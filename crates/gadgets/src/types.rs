//! Gadget representation and typed effects.

use core::fmt;
use std::ops::Deref;
use std::sync::Arc;

use parallax_x86::{Reg32, Reg8, ShiftOp};

/// Binary operations implementable by a single gadget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GBinOp {
    /// `dst += src`
    Add,
    /// `dst -= src`
    Sub,
    /// `dst &= src`
    And,
    /// `dst |= src`
    Or,
    /// `dst ^= src`
    Xor,
    /// `dst *= src` (truncated signed multiply)
    Imul,
}

impl GBinOp {
    /// True if the operation commutes.
    pub fn commutes(self) -> bool {
        matches!(
            self,
            GBinOp::Add | GBinOp::And | GBinOp::Or | GBinOp::Xor | GBinOp::Imul
        )
    }
}

/// The semantic effect of a gadget, as used by the chain compiler.
///
/// This is the paper's "gadget mapping" type system (§III), extended —
/// as §V-B requires for probabilistic chains — with the operand
/// registers, so that two gadgets of the same type are interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effect {
    /// `dst = <stack slot `slot`>` (a `pop`-style constant load).
    LoadConst {
        /// Destination register.
        dst: Reg32,
        /// Which consumed stack slot carries the value.
        slot: u32,
    },
    /// `dst = src`.
    MovReg {
        /// Destination register.
        dst: Reg32,
        /// Source register.
        src: Reg32,
    },
    /// `dst = dst ⊕ src`.
    Binary {
        /// Operation.
        op: GBinOp,
        /// Destination (and left operand).
        dst: Reg32,
        /// Right operand.
        src: Reg32,
    },
    /// `dst = -dst`.
    Neg {
        /// Destination register.
        dst: Reg32,
    },
    /// `dst = !dst`.
    Not {
        /// Destination register.
        dst: Reg32,
    },
    /// `dst = [addr + off]`.
    LoadMem {
        /// Destination register.
        dst: Reg32,
        /// Address base register.
        addr: Reg32,
        /// Constant displacement.
        off: i32,
    },
    /// `[addr + off] = src`.
    StoreMem {
        /// Address base register.
        addr: Reg32,
        /// Constant displacement.
        off: i32,
        /// Source register.
        src: Reg32,
    },
    /// `[addr + off] += src` — the paper's §IV-B6 store-through-add
    /// (acts as a store when the destination starts zeroed).
    AddMem {
        /// Address base register.
        addr: Reg32,
        /// Constant displacement.
        off: i32,
        /// Source register.
        src: Reg32,
    },
    /// `esp = <popped slot>` — the stack pivot used by chain epilogues.
    PopEsp,
    /// `esp += src` — the branch primitive for in-chain control flow.
    AddEsp {
        /// Register added to the stack pointer.
        src: Reg32,
    },
    /// `int 0x80` followed by a return.
    Syscall,
    /// `dst = dst <shift-op> cl` (count in `cl`, masked to 31).
    ShiftCl {
        /// Shift operation.
        op: ShiftOp,
        /// Destination register.
        dst: Reg32,
    },
    /// Low byte of `dst` = low or high byte of `src` (8-bit move, as in
    /// the paper's `and al,0; add [eax],al; add al,ch; retf` example).
    MovLow8 {
        /// Destination byte register.
        dst: Reg8,
        /// Source byte register.
        src: Reg8,
    },
    /// No architectural effect besides consuming stack slots.
    Nop,
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::LoadConst { dst, slot } => write!(f, "{dst} = slot[{slot}]"),
            Effect::MovReg { dst, src } => write!(f, "{dst} = {src}"),
            Effect::Binary { op, dst, src } => write!(f, "{dst} {op:?}= {src}"),
            Effect::Neg { dst } => write!(f, "{dst} = -{dst}"),
            Effect::Not { dst } => write!(f, "{dst} = ~{dst}"),
            Effect::LoadMem { dst, addr, off } => write!(f, "{dst} = [{addr}{off:+}]"),
            Effect::StoreMem { addr, off, src } => write!(f, "[{addr}{off:+}] = {src}"),
            Effect::AddMem { addr, off, src } => write!(f, "[{addr}{off:+}] += {src}"),
            Effect::PopEsp => write!(f, "esp = pop"),
            Effect::AddEsp { src } => write!(f, "esp += {src}"),
            Effect::Syscall => write!(f, "syscall"),
            Effect::ShiftCl { op, dst } => write!(f, "{dst} = {dst} {} cl", op.name()),
            Effect::MovLow8 { dst, src } => write!(f, "{dst} = {src}"),
            Effect::Nop => write!(f, "nop"),
        }
    }
}

/// What a gadget is apart from where it sits: a function of its
/// content (text bytes and return kind), so every copy of one content
/// shares one record (DESIGN.md §18).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GadgetRecord {
    /// Total encoded length in bytes, including the terminating return.
    pub len: u32,
    /// Ends in `retf` (the chain must supply a dummy code-segment slot).
    pub far: bool,
    /// Stack slots (dwords) consumed before the terminating return.
    pub slots: u32,
    /// All validated effects of this gadget.
    pub effects: Vec<Effect>,
    /// Registers modified beyond the effects' destinations.
    pub clobbers: Vec<Reg32>,
    /// Registers that must point into writable scratch memory when the
    /// gadget runs (bases of incidental memory writes).
    pub mem_preconditions: Vec<Reg32>,
    /// Human-readable disassembly.
    pub disasm: String,
    /// Number of instructions including the return.
    pub insn_count: u32,
}

/// A discovered gadget: its address and its content's shared record,
/// whose fields it derefs to.
#[derive(Debug, Clone)]
pub struct Gadget {
    /// Virtual address of the first instruction.
    pub vaddr: u32,
    /// The record every copy of this gadget's content points at.
    pub record: Arc<GadgetRecord>,
}

impl Deref for Gadget {
    type Target = GadgetRecord;

    fn deref(&self) -> &GadgetRecord {
        &self.record
    }
}

impl Gadget {
    /// The gadget at `vaddr` with a record of its own.
    pub fn new(vaddr: u32, record: GadgetRecord) -> Gadget {
        Gadget {
            vaddr,
            record: Arc::new(record),
        }
    }

    /// End address (exclusive) of the gadget bytes.
    pub fn end(&self) -> u32 {
        self.vaddr + self.len
    }

    /// True if the byte range `[start, end)` overlaps this gadget.
    pub fn overlaps(&self, start: u32, end: u32) -> bool {
        start < self.end() && self.vaddr < end
    }

    /// True if the gadget has no usable effect.
    pub fn is_unusable(&self) -> bool {
        self.effects.is_empty()
    }
}

impl fmt::Display for Gadget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}: {}", self.vaddr, self.disasm)?;
        if !self.effects.is_empty() {
            write!(f, "  ; ")?;
            for (i, e) in self.effects.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_logic() {
        let g = Gadget::new(
            100,
            GadgetRecord {
                len: 5,
                far: false,
                slots: 0,
                effects: vec![Effect::Nop],
                clobbers: vec![],
                mem_preconditions: vec![],
                disasm: "nop; ret".into(),
                insn_count: 2,
            },
        );
        assert!(g.overlaps(100, 101));
        assert!(g.overlaps(104, 105));
        assert!(!g.overlaps(105, 110));
        assert!(!g.overlaps(90, 100));
        assert!(g.overlaps(90, 101));
    }

    #[test]
    fn display_formats() {
        let e = Effect::Binary {
            op: GBinOp::Add,
            dst: Reg32::Esi,
            src: Reg32::Eax,
        };
        assert_eq!(e.to_string(), "esi Add= eax");
        assert!(GBinOp::Add.commutes());
        assert!(!GBinOp::Sub.commutes());
    }
}
