//! The system-call layer (`int 0x80`, Linux-flavoured numbering).
//!
//! The guest ABI: syscall number in `eax`, arguments in `ebx`, `ecx`,
//! `edx`, `esi`; result in `eax` (negative for errors).
//!
//! | # | name     | arguments                      | semantics |
//! |---|----------|--------------------------------|-----------|
//! | 1 | `exit`   | ebx = status                   | terminate |
//! | 3 | `read`   | ebx = fd, ecx = buf, edx = len | consume VM input buffer |
//! | 4 | `write`  | ebx = fd, ecx = buf, edx = len | append to VM output buffer |
//! | 13| `time`   | —                              | deterministic monotone counter |
//! | 26| `ptrace` | ebx = request                  | request 0 = TRACEME, fails if a debugger is attached |
//! | 42| `random` | —                              | deterministic xorshift64* stream |
//!
//! `ptrace` is the paper's running example of *non-deterministic* code
//! that oblivious hashing cannot protect: its result depends on the
//! runtime environment (whether a debugger is attached), not on
//! program-visible state.

use std::collections::VecDeque;

use parallax_x86::Reg32;

use crate::cpu::Cpu;
use crate::error::{Fault, FaultKind};
use crate::mem::Memory;

/// `ptrace` request: attach-to-self (PTRACE_TRACEME).
pub const PTRACE_TRACEME: u32 = 0;

/// Host-side state backing the syscall layer.
#[derive(Debug, Clone)]
pub struct SyscallState {
    /// Bytes available to the `read` syscall.
    pub input: VecDeque<u8>,
    /// Bytes collected from the `write` syscall.
    pub output: Vec<u8>,
    /// A debugger is attached to the process.
    pub debugger_attached: bool,
    /// The process has already requested tracing.
    pub traced: bool,
    rng: u64,
    time: u32,
}

impl SyscallState {
    /// Creates syscall state with the given RNG seed.
    pub fn new(seed: u64) -> SyscallState {
        SyscallState {
            input: VecDeque::new(),
            output: Vec::new(),
            debugger_attached: false,
            traced: false,
            rng: seed | 1,
            time: 0,
        }
    }

    fn next_random(&mut self) -> u32 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
    }
}

/// The syscall numbers [`dispatch`] defines, the table above; any other
/// number faults with `BadSyscall`.
const DEFINED: [u32; 6] = [1, 3, 4, 13, 26, 42];

/// Whether [`dispatch`] defines syscall `nr`.
pub fn is_defined(nr: u32) -> bool {
    DEFINED.contains(&nr)
}

/// Dispatches the syscall selected by `eax`. Returns `Ok(Some(status))`
/// for `exit`, and a `BadSyscall` fault for a number [`is_defined`]
/// rejects.
pub fn dispatch(
    cpu: &mut Cpu,
    mem: &mut Memory,
    sys: &mut SyscallState,
) -> Result<Option<i32>, Fault> {
    let nr = cpu.reg(Reg32::Eax);
    let a1 = cpu.reg(Reg32::Ebx);
    let a2 = cpu.reg(Reg32::Ecx);
    let a3 = cpu.reg(Reg32::Edx);
    if !is_defined(nr) {
        return Err(Fault::new(cpu.eip, FaultKind::BadSyscall));
    }
    match nr {
        1 => return Ok(Some(a1 as i32)),
        3 => {
            // read(fd, buf, len)
            let mut n = 0u32;
            while n < a3 {
                match sys.input.pop_front() {
                    Some(b) => {
                        mem.write8(a2 + n, b)?;
                        n += 1;
                    }
                    None => break,
                }
            }
            cpu.set_reg(Reg32::Eax, n);
        }
        4 => {
            // write(fd, buf, len)
            let bytes = mem.read_bytes(a2, a3)?;
            sys.output.extend_from_slice(&bytes);
            cpu.set_reg(Reg32::Eax, a3);
        }
        13 => {
            sys.time += 1;
            cpu.set_reg(Reg32::Eax, sys.time);
        }
        26 => {
            // ptrace(request, ...)
            let result = if a1 == PTRACE_TRACEME {
                if sys.debugger_attached || sys.traced {
                    -1i32
                } else {
                    sys.traced = true;
                    0
                }
            } else {
                -1
            };
            cpu.set_reg(Reg32::Eax, result as u32);
        }
        42 => {
            let v = sys.next_random();
            cpu.set_reg(Reg32::Eax, v);
        }
        _ => unreachable!("`DEFINED` lists every number matched above"),
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Cpu, Memory, SyscallState) {
        let cpu = Cpu::default();
        let mem = Memory::new(vec![0x90], 0x1000, &[0; 64], 0x2000, 0);
        let sys = SyscallState::new(7);
        (cpu, mem, sys)
    }

    #[test]
    fn exit_returns_status() {
        let (mut cpu, mut mem, mut sys) = setup();
        cpu.set_reg(Reg32::Eax, 1);
        cpu.set_reg(Reg32::Ebx, 3);
        assert_eq!(dispatch(&mut cpu, &mut mem, &mut sys).unwrap(), Some(3));
    }

    #[test]
    fn write_captures_output() {
        let (mut cpu, mut mem, mut sys) = setup();
        mem.write_bytes(0x2000, b"hi").unwrap();
        cpu.set_reg(Reg32::Eax, 4);
        cpu.set_reg(Reg32::Ebx, 1);
        cpu.set_reg(Reg32::Ecx, 0x2000);
        cpu.set_reg(Reg32::Edx, 2);
        dispatch(&mut cpu, &mut mem, &mut sys).unwrap();
        assert_eq!(sys.output, b"hi");
        assert_eq!(cpu.reg(Reg32::Eax), 2);
    }

    #[test]
    fn read_consumes_input() {
        let (mut cpu, mut mem, mut sys) = setup();
        sys.input = b"abc".to_vec().into();
        cpu.set_reg(Reg32::Eax, 3);
        cpu.set_reg(Reg32::Ecx, 0x2000);
        cpu.set_reg(Reg32::Edx, 8);
        dispatch(&mut cpu, &mut mem, &mut sys).unwrap();
        assert_eq!(cpu.reg(Reg32::Eax), 3);
        assert_eq!(&*mem.read_bytes(0x2000, 3).unwrap(), b"abc");
    }

    #[test]
    fn ptrace_detects_debugger() {
        let (mut cpu, mut mem, mut sys) = setup();
        // No debugger: TRACEME succeeds once.
        cpu.set_reg(Reg32::Eax, 26);
        cpu.set_reg(Reg32::Ebx, PTRACE_TRACEME);
        dispatch(&mut cpu, &mut mem, &mut sys).unwrap();
        assert_eq!(cpu.reg(Reg32::Eax), 0);
        // Second TRACEME fails (already traced).
        cpu.set_reg(Reg32::Eax, 26);
        dispatch(&mut cpu, &mut mem, &mut sys).unwrap();
        assert_eq!(cpu.reg(Reg32::Eax) as i32, -1);
        // With a debugger attached it fails immediately.
        let (mut cpu2, mut mem2, mut sys2) = setup();
        sys2.debugger_attached = true;
        cpu2.set_reg(Reg32::Eax, 26);
        cpu2.set_reg(Reg32::Ebx, PTRACE_TRACEME);
        dispatch(&mut cpu2, &mut mem2, &mut sys2).unwrap();
        assert_eq!(cpu2.reg(Reg32::Eax) as i32, -1);
    }

    #[test]
    fn random_is_deterministic() {
        let (mut cpu, mut mem, mut sys) = setup();
        cpu.set_reg(Reg32::Eax, 42);
        dispatch(&mut cpu, &mut mem, &mut sys).unwrap();
        let v1 = cpu.reg(Reg32::Eax);
        let mut sys2 = SyscallState::new(7);
        cpu.set_reg(Reg32::Eax, 42);
        dispatch(&mut cpu, &mut mem, &mut sys2).unwrap();
        assert_eq!(cpu.reg(Reg32::Eax), v1);
    }

    #[test]
    fn unknown_syscall_faults() {
        let (mut cpu, mut mem, mut sys) = setup();
        cpu.set_reg(Reg32::Eax, 999);
        assert!(dispatch(&mut cpu, &mut mem, &mut sys).is_err());
    }

    /// `is_defined` admits exactly the numbers `dispatch` runs.
    #[test]
    fn is_defined_matches_dispatch() {
        for nr in (0..=256).chain([0x0100_0000, 0xc3b8_5015, u32::MAX]) {
            let (mut cpu, mut mem, mut sys) = setup();
            cpu.set_reg(Reg32::Eax, nr);
            let faulted = matches!(
                dispatch(&mut cpu, &mut mem, &mut sys),
                Err(f) if f.kind == FaultKind::BadSyscall
            );
            assert_eq!(is_defined(nr), !faulted, "syscall {nr}");
        }
    }
}
