//! A small compiler targeting x86-32, standing in for the paper's
//! `gcc 4.6.3 -m32` toolchain.
//!
//! Workload programs, verification functions, and the chain-loader
//! runtime are all written in the [`ir`] and compiled by [`codegen`]
//! into the instruction idioms the Parallax rewriting rules exploit
//! (imm32 moves, group-1 immediates, rel32 branches and calls).

//! ```
//! // Source text front-end...
//! let m = parallax_compiler::parse_module(
//!     "fn main() { let x = 6; return x * 7; }",
//! ).unwrap();
//! // ...reference interpreter...
//! assert_eq!(parallax_compiler::Interp::new(&m).run().unwrap(), 42);
//! // ...and the x86 backend agree.
//! let img = parallax_compiler::compile_module(&m).unwrap().link().unwrap();
//! let mut vm = parallax_vm::Vm::new(&img);
//! assert_eq!(vm.run(), parallax_vm::Exit::Exited(42));
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod interp;
pub mod ir;
pub mod parse;

/// System-call numbers understood by the VM (see `parallax_vm::syscall`).
pub mod sysno {
    /// Terminate with a status code.
    pub const EXIT: u32 = 1;
    /// Read bytes from the VM input buffer.
    pub const READ: u32 = 3;
    /// Write bytes to the VM output buffer.
    pub const WRITE: u32 = 4;
    /// Deterministic monotone time counter.
    pub const TIME: u32 = 13;
    /// `ptrace` (request 0 = TRACEME).
    pub const PTRACE: u32 = 26;
    /// Deterministic pseudo-random stream.
    pub const RANDOM: u32 = 42;
}

pub use codegen::{compile_module, CompileError};
pub use interp::{Interp, InterpError};
pub use ir::{build, BinOp, CmpOp, Expr, Function, Global, Module, Stmt, UnOp};
pub use parse::{parse_module, ParseError};
