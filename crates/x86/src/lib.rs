//! x86-32 instruction machinery for Parallax.
//!
//! This crate is the syntactic foundation of the Parallax toolchain:
//!
//! * [`reg`] — register definitions with hardware encodings;
//! * [`insn`] — the decoded-instruction model, including the byte
//!   positions of immediates, displacements, and branch offsets inside
//!   each encoding (the binary-rewriting rules patch those in place);
//! * [`mod@decode`] — a conservative decoder safe to run at *any* byte
//!   offset, as required for ROP-gadget scanning of unaligned
//!   instruction sequences;
//! * [`encode`] — an assembler with labels and symbol relocations, used
//!   by the compiler, the rewriter, and the chain loader.
//!
//! ```
//! use parallax_x86::{Asm, decode, Reg32, AluOp};
//!
//! // Assemble...
//! let mut a = Asm::new();
//! a.mov_ri(Reg32::Eax, 0x58);
//! a.alu_rr(AluOp::Add, Reg32::Eax, Reg32::Ecx);
//! a.ret();
//! let code = a.finish().unwrap();
//!
//! // ...and disassemble, at any offset.
//! let i = decode(&code.bytes).unwrap();
//! assert_eq!(i.to_string(), "mov eax,0x58");
//! assert_eq!(i.len, 5);
//! let unaligned = decode(&code.bytes[1..]).unwrap(); // inside the imm!
//! assert_eq!(unaligned.to_string(), "pop eax");
//! ```
//!
//! The supported subset is 32-bit flat-model user code: the group-1 ALU
//! family, moves, stack operations, shifts, multiplies/divides, all
//! conditional and unconditional branches, near and far returns, and
//! `int` for system calls. Prefixed encodings (`0x66`, `lock`, segment
//! overrides) are deliberately rejected so the gadget scanner stays
//! conservative.

#![warn(missing_docs)]

pub mod decode;
pub mod encode;
pub mod insn;
pub mod reg;

pub use decode::{decode, decode_read, decode_run, decode_shape, DecodeError};
pub use encode::{Asm, AsmError, Assembled, Label, RelocKind, SymReloc};
pub use insn::{AluOp, Cond, FieldLoc, Insn, Mem, Mnemonic, OpSize, Operand, ShiftOp};
pub use reg::{Reg, Reg32, Reg8};
