//! An x86-32 virtual machine for executing and attacking Parallax-
//! protected images.
//!
//! The VM is the testbed substitute for the paper's real hardware. It
//! provides:
//!
//! * a faithful interpreter for the instruction subset emitted by the
//!   toolchain (including unaligned gadget sequences);
//! * a **cycle-cost model** with a simulated return-stack buffer, so
//!   ROP chains pay realistic `ret`-mispredict penalties while native
//!   code runs at ALU speed — the asymmetry behind the paper's
//!   slowdown measurements;
//! * a **split instruction/data cache mode** implementing the attack of
//!   Wurster et al., which defeats checksumming-based verification;
//! * deterministic syscalls (`exit`, `read`, `write`, `time`,
//!   `ptrace`, `random`) so experiments are reproducible;
//! * a flat per-function profiler backing the paper's §VII-B
//!   verification-function selection algorithm.

//! ```
//! use parallax_image::Program;
//! use parallax_vm::{Vm, Exit};
//! use parallax_x86::{Asm, Reg32};
//!
//! let mut a = Asm::new();
//! a.mov_ri(Reg32::Eax, 1);  // exit syscall
//! a.mov_ri(Reg32::Ebx, 42); // status
//! a.int(0x80);
//! let mut p = Program::new();
//! p.add_func("main", a.finish().unwrap());
//! p.set_entry("main");
//!
//! let mut vm = Vm::new(&p.link().unwrap());
//! assert_eq!(vm.run(), Exit::Exited(42));
//! assert!(vm.cycles() > 0);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod chaintrace;
pub mod cost;
pub mod cpu;
pub mod error;
pub mod exec;
pub mod mem;
pub mod profile;
pub mod syscall;

pub use block::{BlockStats, BLOCK_CACHE_SLOTS, MAX_BLOCK_INSNS, MAX_FUSED_OPS};
pub use chaintrace::{ChainTracer, Dispatch, DispatchEvent, Episode};
pub use cost::{CostModel, ReturnStackBuffer, RSB_DEPTH};
pub use cpu::{Cpu, Flags};
pub use error::{Exit, Fault, FaultKind};
pub use exec::{Vm, VmOptions, CALL_SENTINEL};
pub use mem::{Memory, HEAP_SIZE, PAGE_SIZE, STACK_SIZE, STACK_TOP};
pub use profile::{FuncProfile, Profiler};
pub use syscall::{SyscallState, PTRACE_TRACEME};
