//! Concrete validation of proposed gadget effects.
//!
//! Symbolic classification can be fooled by abstraction gaps (an
//! untracked flag dependency, an aliasing store). Before a gadget
//! enters the mapping, every proposed effect is executed in a probe VM
//! with pseudo-random register/flag/memory states, and only effects
//! whose observable outcome matches survive. This mirrors the semantic
//! gadget discovery of Q/ROPC on which the paper's prototype is built.
//!
//! Validation is *shared-trial*: a probe run is a pure function of
//! `(proposal, seed)` and the seed depends only on the candidate's
//! text bytes, its return kind and the trial index (`probe_seed`), so
//! one run per trial serves every effect of the proposal. Effects that
//! fail trial 1 drop out of a liveness mask. Survivors are re-checked
//! against a second trial's run only when trial 1 could have passed a
//! wrong claim by chance ([`one_trial_settles`], DESIGN.md §16). A
//! trial redraws values, never addresses: every access of a settled
//! proposal starts at one address that is a constant of the proposal
//! (`Access::at`, from the classifier's roots and the registers the
//! probe pins), so the bytes each access reaches are known. [`taint`]
//! marks what an instruction outside the one-trial list (a flag reader,
//! an 8-bit lane, a shift by `cl`) may have written, with write sets
//! from x86 semantics ([`flow`]), not from the classifier, and carries
//! the marks through listed instructions, pushes, pops and reads of
//! bytes a write reached; a register that holds a constant of the
//! proposal carries none. Trial 2 runs when a live effect's check reads
//! a mark, or another write reaches the word a memory claim names. Each
//! run fills only the scratch windows its accesses can reach
//! ([`windows_to_fill`]), with the words the oracle draws there. The
//! legacy one-probe-per-(effect, trial) path, which always runs both
//! trials and fills all eight windows, is preserved in [`legacy`] as
//! the differential oracle.
//!
//! A proposal the probe must reject without looking at its effects is
//! rejected without a run: when one of its memory accesses can only
//! start at an address the probe VM does not map ([`prejudged`]).

use parallax_image::LinkedImage;
use parallax_vm::{Memory, Vm, VmOptions, CALL_SENTINEL, STACK_SIZE, STACK_TOP};
use parallax_x86::insn::{AluOp, Insn, Mem, Mnemonic, OpSize, Operand};
use parallax_x86::{Reg, Reg32, Reg8, ShiftOp};

use crate::classify::{MemLoc, Proposal, SyscallEax};
use crate::types::{Effect, GBinOp, Gadget, GadgetRecord};

/// Maximum instructions a gadget probe may execute.
const PROBE_STEPS: usize = 64;

/// Words snapshotted per scratch region (±0x200 bytes around the
/// scratch pointer).
const SCRATCH_WORDS: usize = 256;

/// The 64 KiB-aligned block of the VM stack region that holds the
/// probe's eight scratch regions. The stack region sits at the same
/// place for every image, so a scratch pointer, and any access a
/// gadget makes near one, does not depend on the image layout
/// (DESIGN.md §17).
pub(crate) const SCRATCH_BLOCK: u32 = 0x0bfd_0000;

/// The initial `esp` of every probe: the chain's first slot.
pub const PROBE_ESP: u32 = STACK_TOP - 0x2000;

/// The scratch pointer a probe puts in `r` when `r` must address
/// memory: region `r.encoding()` of the scratch block, with ~0x800
/// bytes of displacement headroom to either side. Its low byte is not
/// 0, so a gadget that adds or ors `al` into the word it just stored
/// through `eax` fails the store check, as it would corrupt a chain's
/// store to any address whose low byte is not 0.
pub fn scratch_pointer(r: Reg32) -> u32 {
    SCRATCH_BLOCK + 0x18a4 + 0x1000 * u32::from(r.encoding())
}

// Whatever a gadget does to a scratch pointer's low two bytes, the
// pointer stays in the block; the block with 0x1000 bytes to either
// side lies inside the stack region, below the probe's stack window.
const _: () = assert!(
    SCRATCH_BLOCK.is_multiple_of(0x1_0000)
        && SCRATCH_BLOCK - 0x1000 >= STACK_TOP - STACK_SIZE
        && SCRATCH_BLOCK + 0x1_1000 <= PROBE_ESP - 0x1000
);

/// A register the probe does not pin starts as `DRAW_BASE | (draw &
/// DRAW_MASK)`: arbitrary, but not an address any image maps.
pub(crate) const DRAW_BASE: u32 = 0x0100_0000;
/// See [`DRAW_BASE`].
pub(crate) const DRAW_MASK: u32 = 0x00ff_ffff;

/// The syscall number a probe puts in eax for a gadget with a
/// `Syscall` effect: `time`, which touches no memory.
pub(crate) const PROBE_SYSCALL: u32 = 13;

/// The registers a probe of `p` points at scratch memory, as a bit set
/// by encoding: its memory preconditions and every memory effect's
/// address register.
fn scratch_regs(p: &Proposal) -> u8 {
    let addrs = p.effects.iter().filter_map(|e| match *e {
        Effect::LoadMem { addr, .. }
        | Effect::StoreMem { addr, .. }
        | Effect::AddMem { addr, .. } => Some(addr),
        _ => None,
    });
    p.mem_preconditions
        .iter()
        .copied()
        .chain(addrs)
        .fold(0, |set, r| set | 1 << r.encoding())
}

/// The register file every probe of `p` starts from, by encoding:
/// `Some(v)` where the probe pins the value, `None` where it draws one
/// at random ([`DRAW_BASE`]). esp holds [`PROBE_ESP`] and each scratch
/// register its [`scratch_pointer`]; a syscall gadget's eax holds 13
/// (`time`, harmless), and an `AddEsp` source 64, the distance to the
/// probe's sentinel. [`run_probe`] starts each trial from it and
/// [`prejudged`] reasons from it, so the two cannot drift apart.
pub(crate) fn probe_registers(p: &Proposal) -> [Option<u32>; 8] {
    let scratch = scratch_regs(p);
    let mut regs =
        Reg32::ALL.map(|r| (scratch >> r.encoding() & 1 == 1).then(|| scratch_pointer(r)));
    regs[Reg32::Esp.encoding() as usize] = Some(PROBE_ESP);
    if p.effects.contains(&Effect::Syscall) {
        regs[Reg32::Eax.encoding() as usize] = Some(PROBE_SYSCALL);
    }
    if let Some(Effect::AddEsp { src }) = p
        .effects
        .iter()
        .find(|e| matches!(e, Effect::AddEsp { .. }))
    {
        regs[src.encoding() as usize] = Some(64);
    }
    regs
}

/// Whether a probe of `p` must fault before it returns, so that its
/// verdict is `None` without a run (DESIGN.md §16): some memory access
/// the classifier resolved can only start, whatever value its root
/// holds in the probe, at an address `mem` does not map (its text, its
/// data, BSS and heap, and the stack region), or its first `int 0x80`
/// passes a number, computed from the probe's pinned eax, that the VM
/// does not define. A gadget is straight-line and its bytes cannot be
/// written (W⊕X), so that access or syscall executes unless an earlier
/// fault ends the probe first, and either way every trial fails. An
/// interval that wraps past the top of the address space is left to the
/// probe.
pub fn prejudged(mem: &Memory, p: &Proposal) -> bool {
    if matches!(p.syscall_eax, SyscallEax::Fixed(nr) if !parallax_vm::syscall::is_defined(nr)) {
        return true;
    }
    let regs = probe_registers(p);
    let regions = [
        (mem.text_base(), mem.text_end()),
        (mem.data_base(), mem.data_end()),
        (STACK_TOP - STACK_SIZE, STACK_TOP),
    ];
    p.accesses.iter().any(|a| {
        let (lo, hi) = a.loc.starts(&regs);
        hi < 1 << 32
            && regions
                .iter()
                .all(|&(start, end)| hi < i64::from(start) || lo >= i64::from(end))
    })
}

/// Whether trial 1 alone settles the verdict of every effect of `p`
/// still set in `alive`, so trial 2 is not run (DESIGN.md §16). `regs`
/// is the register file the probe starts from ([`probe_registers`]);
/// `strayed` is set when trial 1 ran text outside the candidate.
///
/// A trial redraws values, never addresses: each unpinned register
/// draws 24 random bits and each scratch word and canary 32, while
/// every pinned register is a constant of the proposal, the same in
/// both trials. A wrong claim passes a trial only when the claimed and
/// the actual value coincide on its draw. When they differ by a
/// full-width function of the draws, that is a chance of about 2⁻²⁴,
/// below the 2⁻¹⁶ that two trials give the byte compares they accept.
/// Trial 2 is kept wherever the difference can be narrower, or an
/// address can move:
///
/// - Every explicit access starts at one constant address
///   ([`Access::at`](crate::classify::Access::at): esp's, a pinned
///   register's, or that of a `Patch8` of one whose bytes are constants,
///   plus the displacement), none goes unresolved, no access has a
///   marked root, and esp moves by whole words ([`stays_near_chain`]).
///   So each access reaches the same bytes in both trials, and [`taint`]
///   knows which.
/// - A value an instruction outside the list computes ([`Flow::listed`]:
///   a flag reader, an 8-bit lane, a shift by `cl`) can be a narrow
///   function of the draws. [`taint`] marks every location such an
///   instruction can write ([`flow`], from x86 semantics), unless it
///   computes a constant of the proposal (from immediates and registers
///   that hold one, reading neither a flag nor memory), and carries the
///   mark forward through listed instructions, pushes, pops and reads.
///   An 8-bit operation that writes its lane back unchanged (`add al,
///   0`, `and al, 0xff`) marks nothing. Trial 2 runs when a live
///   effect's check reads a marked location ([`check_reads`]): its
///   destination, each register outside the clobbers for a `Nop`, and
///   esp and the return slot for every effect. A listed operation can
///   narrow a value too (`and r, 1`), but the classifier follows
///   registers and esp-rooted words through every listed operation, so
///   such a value that reaches a claim changes the claim with it.
/// - The classifier does not follow a write into a later explicit read
///   of the bytes it reached, nor into a stack word the write aliases or
///   crosses. So a read of bytes an earlier write reached is marked, and
///   a write the classifier does not follow (an unlisted one, a second
///   one, one through a register root or one off a word boundary) marks
///   the stack unless it lies in the scratch block, away from every
///   stack word.
/// - A memory effect's check reads the word it claims, which must lie
///   in the scratch block. A store or add claim settles only when
///   exactly one write reaches that word, covering it exactly with an
///   unmarked value: a second write through another root, or one that a
///   listed operation narrowed, changes the word where the classifier
///   does not look ([`claimed_word_settles`]). A trial 1 that strayed ran
///   instructions the walk did not see; it settles only when every
///   instruction is listed and at most one writes memory.
/// - A live `MovLow8` settles only as an identity (`al ← al`), whose
///   check compares the whole parent register. A live `ShiftCl` settles
///   only when its own `shl`/`shr`/`sar`/`rol`/`ror r, cl` ran on
///   unmarked `r` and ecx and nothing wrote `r` after it: the check then
///   computes what the instruction computed, whatever the 5-bit count.
fn one_trial_settles(p: &Proposal, alive: u64, regs: &[Option<u32>; 8], strayed: bool) -> bool {
    let live = || {
        p.effects
            .iter()
            .enumerate()
            .filter(move |&(i, _)| alive >> i & 1 == 1)
            .map(|(_, e)| e)
    };
    if !stays_near_chain(p)
        || live().any(|e| matches!(e, Effect::MovLow8 { dst, src } if dst != src))
    {
        return false;
    }
    let Some(t) = taint(p, regs) else {
        return false;
    };
    if t.stack || strayed && (t.opaque || t.written.len() > 1) {
        return false;
    }
    live().all(|e| {
        let exact_shift = match *e {
            Effect::ShiftCl { op, dst } if t.shifted[dst.encoding() as usize] == Some(op) => {
                bit(dst)
            }
            _ => 0,
        };
        check_reads(e, p) & t.regs & !exact_shift == 0 && claimed_word_settles(e, regs, &t.written)
    })
}

/// Whether the word a memory effect `e` claims (true for any other
/// effect) lies in the scratch block, at its root's pinned value plus
/// the displacement, and, for a store or add claim, exactly one write of
/// `written` reaches it, covering the whole word with an unmarked value.
fn claimed_word_settles(e: &Effect, regs: &[Option<u32>; 8], written: &[Written]) -> bool {
    let (addr, off, stored) = match *e {
        Effect::LoadMem { addr, off, .. } => (addr, off, false),
        Effect::StoreMem { addr, off, .. } | Effect::AddMem { addr, off, .. } => (addr, off, true),
        _ => return true,
    };
    let Some(word) =
        regs[addr.encoding() as usize].map(|v| Span::new(v.wrapping_add(off as u32), 4))
    else {
        return false;
    };
    let mut reach = written.iter().filter(|w| w.span.overlaps(word));
    let one_whole_unmarked = match (reach.next(), reach.next()) {
        (Some(w), None) => w.span == word && !w.marked,
        _ => false,
    };
    word.in_scratch_block() && (!stored || one_whole_unmarked)
}

/// Bit of `r` in a register set by encoding.
const fn bit(r: Reg32) -> u8 {
    1 << r as u8
}

/// Whether `a` lies in the probe's scratch block, which holds every
/// scratch region and lies 0x1000 bytes or more below every stack word
/// a probe of a proposal that [`stays_near_chain`] touches.
fn in_scratch_block(a: u32) -> bool {
    (SCRATCH_BLOCK..SCRATCH_BLOCK + 0x1_0000).contains(&a)
}

/// The bytes `lo..hi` an explicit access touches, counted past the top
/// of the address space rather than wrapped.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Span {
    lo: u64,
    hi: u64,
}

impl Span {
    /// `len` bytes from `at`.
    fn new(at: u32, len: u32) -> Span {
        Span {
            lo: u64::from(at),
            hi: u64::from(at) + u64::from(len),
        }
    }

    fn overlaps(self, other: Span) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// Whether every byte lies in the scratch block.
    fn in_scratch_block(self) -> bool {
        self.hi <= 1 << 32
            && in_scratch_block(self.lo as u32)
            && in_scratch_block((self.hi - 1) as u32)
    }
}

/// The registers the check of `e` reads after a trial, as a bit set by
/// encoding. Every check compares esp with the slot past the chain
/// words the gadget consumes, so it reads esp.
fn check_reads(e: &Effect, p: &Proposal) -> u8 {
    bit(Reg32::Esp)
        | match *e {
            Effect::LoadConst { dst, .. }
            | Effect::MovReg { dst, .. }
            | Effect::Binary { dst, .. }
            | Effect::Neg { dst }
            | Effect::Not { dst }
            | Effect::LoadMem { dst, .. }
            | Effect::ShiftCl { dst, .. } => bit(dst),
            Effect::MovLow8 { dst, .. } => bit(dst.parent()),
            Effect::Nop => Reg32::ALL
                .into_iter()
                .filter(|r| !p.clobbers.contains(r))
                .fold(0, |set, r| set | bit(r)),
            Effect::StoreMem { .. }
            | Effect::AddMem { .. }
            | Effect::PopEsp
            | Effect::AddEsp { .. }
            | Effect::Syscall => 0,
        }
}

/// What an instruction reads and writes besides its operands and the
/// flags, by x86 semantics, and whether the classifier follows its
/// result exactly ([`flow`]).
#[derive(Clone, Copy, Default)]
struct Flow {
    /// On the one-trial list: a 32-bit `mov`, `lea`, `xchg`, `push`,
    /// `pop`, `inc`, `dec`, `neg`, `not`, `add`/`or`/`and`/`sub`/`xor`/
    /// `cmp`, `test`, `mul`, `imul`, shift by an immediate, `leave`,
    /// `nop`, `pushad`, `popad`, `clc`, `stc` or `int`, with no 8-bit
    /// register and no scaled index, or an 8-bit operation that writes
    /// its lane back unchanged (`add al, 0`), which writes no register.
    /// None of these reads a flag (1 random bit) or a `cl` shift count
    /// (5 bits), and none changes an 8-bit lane.
    listed: bool,
    /// Its first `dsts` operands are destinations.
    dsts: usize,
    /// The destinations are read too (a read-modify-write).
    rmw: bool,
    /// Registers it reads and writes implicitly, as bit sets by encoding.
    reads: u8,
    writes: u8,
    /// It pushes words below esp, or pops words at esp.
    push: bool,
    pop: bool,
    /// It reads a flag.
    flags: bool,
}

/// The `write` syscall: whether it faults depends on the length and
/// the buffer its arguments give, which listed operations can narrow.
const SYS_WRITE: u32 = 4;

/// What `insn` reads and writes ([`Flow`]), or `None` when the table
/// does not describe it: a syscall of unknown number, or `write`, whose
/// outcome depends on its arguments; `div`, which faults on its
/// operands' values; the control transfers, which a candidate holds
/// only as its final return. The match names every mnemonic, so a new
/// one cannot settle before it has a row.
fn flow(insn: &Insn, syscall_eax: SyscallEax) -> Option<Flow> {
    use Mnemonic as M;
    const EAX: u8 = bit(Reg32::Eax);
    const EDX: u8 = bit(Reg32::Edx);
    let none = |listed| Flow {
        listed,
        ..Flow::default()
    };
    let dst = |listed, rmw| Flow {
        listed,
        dsts: 1,
        rmw,
        ..Flow::default()
    };
    // An 8-bit operation that writes its lane back unchanged changes no
    // register, only flags, and every flag reader is off the list.
    if writes_lane_back(insn) {
        return Some(none(true));
    }
    let flags = |f| Flow { flags: true, ..f };
    let f = match insn.mnemonic {
        M::Alu(AluOp::Cmp) | M::Test | M::Nop | M::Clc | M::Stc => none(true),
        M::Cmc => flags(none(false)),
        M::Mov | M::Lea => dst(true, false),
        M::Movzx | M::Movsx => dst(false, false),
        M::Setcc(_) => flags(dst(false, false)),
        M::Alu(AluOp::Adc | AluOp::Sbb) | M::Cmovcc(_) => flags(dst(false, true)),
        M::Alu(_) | M::Inc | M::Dec | M::Neg | M::Not => dst(true, true),
        M::Shift(_) => dst(matches!(insn.ops.get(1), Some(Operand::Imm(_))), true),
        M::Imul if insn.ops.len() == 3 => dst(true, false),
        M::Imul if insn.ops.len() == 2 => dst(true, true),
        M::Mul | M::Imul => Flow {
            reads: EAX,
            writes: EAX | EDX,
            ..none(true)
        },
        M::Xchg => Flow {
            dsts: 2,
            rmw: true,
            ..none(true)
        },
        M::Cwde => Flow {
            reads: EAX,
            writes: EAX,
            ..none(false)
        },
        M::Cdq => Flow {
            reads: EAX,
            writes: EDX,
            ..none(false)
        },
        M::Push => Flow {
            push: true,
            ..none(true)
        },
        M::Pushfd => Flow {
            push: true,
            flags: true,
            ..none(false)
        },
        M::Pushad => Flow {
            reads: u8::MAX,
            push: true,
            ..none(true)
        },
        M::Pop => Flow {
            pop: true,
            ..dst(true, false)
        },
        M::Popfd => Flow {
            pop: true,
            ..none(false)
        },
        M::Popad => Flow {
            writes: !bit(Reg32::Esp),
            pop: true,
            ..none(true)
        },
        M::Leave => Flow {
            reads: bit(Reg32::Ebp),
            writes: bit(Reg32::Ebp) | bit(Reg32::Esp),
            pop: true,
            ..none(true)
        },
        M::Int => match syscall_eax {
            SyscallEax::Pinned => Flow {
                writes: EAX,
                ..none(true)
            },
            SyscallEax::Fixed(nr) if nr != SYS_WRITE => Flow {
                writes: EAX,
                ..none(true)
            },
            SyscallEax::Fixed(_) | SyscallEax::NoInt | SyscallEax::Unknown => return None,
        },
        M::Div
        | M::Idiv
        | M::Int3
        | M::Hlt
        | M::Jmp
        | M::JmpInd
        | M::Jcc(_)
        | M::Call
        | M::CallInd
        | M::Ret
        | M::Retf => return None,
    };
    let full_width = insn.size == OpSize::Dword
        && insn.ops.iter().all(|op| match op {
            Operand::Reg(Reg::R8(_)) => false,
            Operand::Mem(m) => m.index.is_none(),
            _ => true,
        });
    Some(Flow {
        listed: f.listed && full_width,
        ..f
    })
}

/// Whether `insn` is an 8-bit operation that writes a register's lane
/// back unchanged: `add`/`sub`/`or`/`xor r8, 0` or `and r8, 0xff`.
fn writes_lane_back(insn: &Insn) -> bool {
    match (insn.mnemonic, insn.ops.as_slice()) {
        (Mnemonic::Alu(op), [Operand::Reg(Reg::R8(_)), Operand::Imm(v)]) => match op {
            AluOp::Add | AluOp::Sub | AluOp::Or | AluOp::Xor => *v as u8 == 0,
            AluOp::And => *v as u8 == 0xff,
            AluOp::Adc | AluOp::Sbb | AluOp::Cmp => false,
        },
        _ => false,
    }
}

/// The registers a memory operand's address is built from.
fn address_regs(m: &Mem) -> u8 {
    m.base.map_or(0, bit) | m.index.map_or(0, |(r, _)| bit(r))
}

/// An explicit write [`taint`] saw: the bytes it reached, and whether
/// its value is marked.
struct Written {
    span: Span,
    marked: bool,
}

/// What [`taint`] found at the candidate's return.
#[derive(Default)]
struct Taint {
    /// Registers, by encoding, whose value may be a narrow function of
    /// the draws.
    regs: u8,
    /// Registers, by encoding, that hold a constant of the proposal:
    /// the same value in both trials, never marked.
    constants: u8,
    /// Set once a stack word may hold such a value, or one the
    /// classifier did not follow there.
    stack: bool,
    /// Set when an instruction is not on the list ([`Flow::listed`]).
    opaque: bool,
    /// The explicit writes, in order.
    written: Vec<Written>,
    /// For each register, by encoding, the op of the shift by `cl` that
    /// wrote it last, when that shift read an unmarked register and
    /// ecx.
    shifted: [Option<ShiftOp>; 8],
}

impl Taint {
    /// Whether `op`, read as a source, may carry a marked value; `mem`
    /// is whether the instruction's explicit access reads marked bytes.
    fn reads(&self, op: &Operand, lea: bool, mem: bool) -> bool {
        match op {
            Operand::Reg(r) => self.regs & bit(r.parent()) != 0,
            Operand::Mem(m) if lea => self.regs & address_regs(m) != 0,
            Operand::Mem(_) => mem,
            Operand::Imm(_) | Operand::Rel(_) => false,
        }
    }

    /// Whether `op`, read as a source, is a constant of the proposal.
    fn constant(&self, op: &Operand, lea: bool) -> bool {
        match op {
            Operand::Reg(r) => self.constants & bit(r.parent()) != 0,
            Operand::Mem(m) if lea => address_regs(m) & !self.constants == 0,
            Operand::Mem(_) | Operand::Rel(_) => false,
            Operand::Imm(_) => true,
        }
    }

    /// Writes a value to the registers in `set`: a constant when `c`,
    /// otherwise one that is marked when `v`. A listed instruction
    /// writes all 32 bits; an unlisted one that computes no constant is
    /// always marked.
    fn write_regs(&mut self, set: u8, v: bool, c: bool) {
        if c {
            self.constants |= set;
        } else {
            self.constants &= !set;
        }
        if v && !c {
            self.regs |= set;
        } else {
            self.regs &= !set;
        }
        for (i, s) in self.shifted.iter_mut().enumerate() {
            if set >> i & 1 == 1 {
                *s = None;
            }
        }
    }

    /// Whether an explicit read of `span` may see a marked value: bytes
    /// an earlier write reached, or, once the stack is marked, bytes
    /// outside the scratch block.
    fn reads_span(&self, span: Span) -> bool {
        self.written.iter().any(|w| w.span.overlaps(span)) || self.stack && !span.in_scratch_block()
    }

    /// Writes a value, marked when `v`, to `span`. Only the first write,
    /// by a listed instruction through esp (`esp`), of a whole word at a
    /// word boundary, is one the classifier follows into the stack
    /// words; any other marks them unless `span` lies in the scratch
    /// block.
    fn write_mem(&mut self, span: Span, v: bool, esp: bool) {
        let followed =
            esp && self.written.is_empty() && span.lo.is_multiple_of(4) && span.hi - span.lo == 4;
        if !span.in_scratch_block() {
            self.stack |= v || !followed;
        }
        self.written.push(Written { span, marked: v });
    }
}

/// Walks `p`'s instructions up to its return, marking the locations
/// that may hold a narrow function of the draws (see
/// [`one_trial_settles`]). `None` when an instruction has no row in
/// [`flow`], an explicit access has no constant address
/// ([`Access::at`](crate::classify::Access::at)) or a marked root, or
/// esp is marked.
fn taint(p: &Proposal, regs: &[Option<u32>; 8]) -> Option<Taint> {
    let mut t = Taint {
        constants: Reg32::ALL
            .into_iter()
            .filter(|r| regs[r.encoding() as usize].is_some())
            .fold(0, |set, r| set | bit(r)),
        ..Taint::default()
    };
    let insns = p.cand.insns();
    for (i, insn) in insns[..insns.len() - 1].iter().enumerate() {
        let f = flow(insn, p.syscall_eax)?;
        let lea = insn.mnemonic == Mnemonic::Lea;
        let access = match insn.ops.iter().find_map(|op| match op {
            Operand::Mem(m) if !lea => Some(m),
            _ => None,
        }) {
            Some(m) => {
                if t.regs & address_regs(m) != 0 {
                    return None;
                }
                let at = p.accesses.iter().find(|a| a.insn == i)?.at(regs)?;
                Some((m, Span::new(at, insn.size.bytes() as u32)))
            }
            None => None,
        };
        let mem = access.is_some_and(|(_, span)| t.reads_span(span));
        let (dsts, srcs) = insn.ops.split_at(f.dsts.min(insn.ops.len()));
        let sources = || srcs.iter().chain(dsts.iter().filter(|_| f.rmw));
        let v = !f.listed
            || sources().any(|op| t.reads(op, lea, mem))
            || t.regs & f.reads != 0
            || f.pop && t.stack;
        // A constant stays one through listed instructions and through
        // an 8-bit operation on its own lane with immediate operands.
        let lane_imm = matches!(dsts, [Operand::Reg(Reg::R8(_))])
            && srcs.iter().all(|op| matches!(op, Operand::Imm(_)));
        let c = (f.listed || lane_imm)
            && !f.flags
            && !f.pop
            && t.constants & f.reads == f.reads
            && sources().all(|op| t.constant(op, lea));
        let shift_cl = match (insn.mnemonic, insn.ops.as_slice()) {
            (Mnemonic::Shift(op), [Operand::Reg(Reg::R32(r)), Operand::Reg(Reg::R8(Reg8::Cl))])
                if t.regs & (bit(*r) | bit(Reg32::Ecx)) == 0 =>
            {
                Some((op, *r))
            }
            _ => None,
        };
        t.opaque |= !f.listed;
        for op in dsts {
            match op {
                // An 8-bit write keeps the rest of its register.
                Operand::Reg(r) => {
                    let rest = matches!(r, Reg::R32(_)) || t.constants & bit(r.parent()) != 0;
                    t.write_regs(bit(r.parent()), v, c && rest);
                }
                Operand::Mem(m) => {
                    let (_, span) = access?;
                    t.write_mem(span, v, f.listed && m.base == Some(Reg32::Esp));
                }
                Operand::Imm(_) | Operand::Rel(_) => {}
            }
        }
        t.write_regs(f.writes, v, false);
        t.stack |= f.push && v;
        if let Some((op, r)) = shift_cl {
            t.shifted[r.encoding() as usize] = Some(op);
        }
        if t.regs & bit(Reg32::Esp) != 0 {
            return None;
        }
    }
    Some(t)
}

/// How far below its first slot a probe's esp may go, in bytes: a push
/// there still writes 0x1000 bytes or more above the scratch block.
const STACK_FLOOR: i64 = (PROBE_ESP - SCRATCH_BLOCK - 0x1_1000) as i64;

/// Whether esp moves only by whole words and stays above the scratch
/// block, so no push, pop or return reaches the block and none reads or
/// writes across a word another access claims: every esp move is a
/// push, a pop or `add`/`sub esp, imm` by a multiple of 4, none takes
/// it more than [`STACK_FLOOR`] below the first slot, and any other
/// write of esp is a pivot's, just before the return, which the probe
/// lands on its own stack (`inc esp`, `lea esp, [esp+2]` and `mov esp,
/// ebp` are not).
fn stays_near_chain(p: &Proposal) -> bool {
    use Mnemonic as M;
    let esp = Operand::Reg(Reg::R32(Reg32::Esp));
    let insns = p.cand.insns();
    let pivot = p
        .effects
        .iter()
        .any(|e| matches!(e, Effect::PopEsp | Effect::AddEsp { .. }));
    let mut delta = 0i64;
    for (i, insn) in insns[..insns.len() - 1].iter().enumerate() {
        let Some(f) = flow(insn, p.syscall_eax) else {
            return false;
        };
        let writes_esp = insn.ops[..f.dsts.min(insn.ops.len())].contains(&esp)
            || f.writes & bit(Reg32::Esp) != 0;
        delta += match (insn.mnemonic, insn.ops.get(1)) {
            (M::Alu(AluOp::Add), Some(Operand::Imm(v))) if insn.ops[0] == esp => *v,
            (M::Alu(AluOp::Sub), Some(Operand::Imm(v))) if insn.ops[0] == esp => -v,
            _ if writes_esp => {
                if !(pivot && i + 2 == insns.len()) {
                    return false;
                }
                0
            }
            (M::Pushad, _) => -32,
            (M::Popad, _) => 32,
            _ if f.push => -4,
            _ if f.pop => 4,
            _ => 0,
        };
        if delta % 4 != 0 || delta < -STACK_FLOOR {
            return false;
        }
    }
    true
}

/// Effect liveness is tracked in a `u64` bitmask. The classifier emits
/// far fewer effects (at most one syscall, one per register, the
/// byte-register moves and a few memory effects;
/// `tests/shared_trial.rs` checks the bound), so a proposal with more
/// is rejected rather than shifted past the mask.
pub const MAX_SHARED_EFFECTS: usize = 64;

/// A content tag for the probe PRNG: FNV-1a over the candidate's text
/// bytes and return kind. Its position plays no part, so identical
/// copies of one gadget draw identical probe states (DESIGN.md §18).
fn content_tag(vm: &Vm, p: &Proposal) -> u64 {
    let bytes = vm
        .mem()
        .read_bytes(p.cand.vaddr, p.cand.len)
        .unwrap_or_default();
    bytes
        .iter()
        .chain([&(p.cand.far as u8)])
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The initial PRNG state of `trial` for a candidate tagged `tag`.
/// Xorshift's state 0 is a fixed point that yields 0 forever, and a
/// hashed tag can cancel the constants, so the low bit is forced on:
/// the state is non-zero by construction.
fn probe_seed(tag: u64, trial: u64) -> u64 {
    (0x9e37_79b9_7f4a_7c15u64 ^ tag ^ (trial * 0x1234_5677 + 1)) | 1
}

/// One step of the probe PRNG's xorshift state.
const fn xorshift(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

fn prng(seed: &mut u64) -> u32 {
    *seed = xorshift(*seed);
    (seed.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
}

/// Draws a probe makes to fill its eight scratch regions.
const SCRATCH_DRAWS: usize = 8 * SCRATCH_WORDS;

/// `m · x` over GF(2), for a 64×64 bit matrix `m` stored by column.
const fn gf2_apply(m: &[u64; 64], x: u64) -> u64 {
    let mut r = 0;
    let mut i = 0;
    while i < 64 {
        if x >> i & 1 == 1 {
            r ^= m[i];
        }
        i += 1;
    }
    r
}

/// The xorshift state update is linear over GF(2), so `steps` steps of
/// it are one matrix: its columns, by squaring the one-step matrix
/// log₂(`steps`) times.
const fn skip_matrix(steps: usize) -> [u64; 64] {
    assert!(steps.is_power_of_two());
    let mut m = [0u64; 64];
    let mut i = 0;
    while i < 64 {
        m[i] = xorshift(1 << i);
        i += 1;
    }
    let mut done = 1;
    while done < steps {
        let mut sq = [0u64; 64];
        let mut i = 0;
        while i < 64 {
            sq[i] = gf2_apply(&m, m[i]);
            i += 1;
        }
        m = sq;
        done *= 2;
    }
    m
}

/// [`SCRATCH_DRAWS`] steps of the PRNG: all eight windows' draws.
const SCRATCH_SKIP: [u64; 64] = skip_matrix(SCRATCH_DRAWS);

/// [`SCRATCH_WORDS`] steps of the PRNG: one window's draws.
const WINDOW_SKIP: [u64; 64] = skip_matrix(SCRATCH_WORDS);

/// Advances `seed` past the scratch draws of a probe that need not
/// write them, as [`SCRATCH_DRAWS`] calls of [`prng`] would.
fn skip_scratch_draws(seed: &mut u64) {
    *seed = gf2_apply(&SCRATCH_SKIP, *seed);
}

/// Advances `seed` past one window's draws, as [`SCRATCH_WORDS`] calls
/// of [`prng`] would.
fn skip_window_draws(seed: &mut u64) {
    *seed = gf2_apply(&WINDOW_SKIP, *seed);
}

/// The scratch windows every probe of `p` fills, as a bit set by
/// encoding. A probe reaches a window through an access, a push or a
/// pop. None when no register holds a scratch pointer (no explicit
/// access is then rooted in the block, and [`stays_near_chain`] keeps
/// the stack words away from it too, or its access faults or starts
/// outside it). Only its scratch registers' own windows when every
/// access it makes lands, exactly, in the window of the register it is
/// rooted at or outside the block, none goes unresolved, and esp stays
/// clear of the block. All eight otherwise, as the `legacy` oracle
/// always does. A window left out would hold the pristine stack
/// region's bytes instead of the oracle's draws, which no access of
/// such a proposal reads.
fn windows_to_fill(p: &Proposal, regs: &[Option<u32>; 8]) -> u8 {
    let scratch = scratch_regs(p);
    let window = -0x200..=0x200 - 4;
    let outside = |a: u32| !in_scratch_block(a) && !in_scratch_block(a.wrapping_add(3));
    let own = !p.unresolved_access
        && stays_near_chain(p)
        && p.accesses.iter().all(|a| match a.loc {
            MemLoc::Reg(r, off, exact) => {
                exact
                    && regs[r.encoding() as usize] == Some(scratch_pointer(r))
                    && window.contains(&off)
            }
            MemLoc::Stack(off) => outside(PROBE_ESP.wrapping_add(off as u32)),
        });
    match scratch {
        0 => 0,
        _ if own => scratch,
        _ => u8::MAX,
    }
}

/// Counters for probe-VM validation work, exported to traces as
/// `vm.probe.{proposals,runs,second_trials,prejudged,runs_saved,reseed_words}`
/// and `vm.mem.pages_copied`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeStats {
    /// Distinct proposals validated, with or without a run. A gadget
    /// pass validates one copy of each candidate content and shares its
    /// verdict with the others, so only a content whose probe strayed
    /// counts once per copy.
    pub proposals: u64,
    /// Probe executions actually performed, regardless of effect
    /// count: one first trial per proposal not prejudged, plus
    /// `second_trials`.
    pub runs: u64,
    /// Second-trial runs: proposals with an effect alive after trial 1
    /// that trial 1 alone does not settle ([`one_trial_settles`]).
    pub second_trials: u64,
    /// Proposals rejected without a run, because an access of theirs
    /// can only land on unmapped memory or their syscall number is one
    /// the VM does not define ([`prejudged`]), or because they claim no
    /// effect.
    pub prejudged: u64,
    /// Probe executions the legacy per-(effect, trial) loop, which runs
    /// both trials of every effect trial 1 keeps, would have performed
    /// *in addition to* `runs`.
    pub runs_saved: u64,
    /// Scratch words written into the probe VM on every run of a
    /// proposal that holds a scratch pointer: the windows of its scratch
    /// registers, or all eight when an access may land elsewhere
    /// (`windows_to_fill`).
    pub reseed_words: u64,
    /// Copy-on-write page copies the probe VM made: each page a
    /// proposal writes is copied once, then dropped by the reset.
    pub pages_copied: u64,
}

impl ProbeStats {
    /// Accumulates `other` into `self` (for merging per-worker stats).
    pub fn merge(&mut self, other: &ProbeStats) {
        self.proposals += other.proposals;
        self.runs += other.runs;
        self.second_trials += other.second_trials;
        self.prejudged += other.prejudged;
        self.runs_saved += other.runs_saved;
        self.reseed_words += other.reseed_words;
        self.pages_copied += other.pages_copied;
    }
}

/// Pre-execution contents of the eight scratch regions, stored flat as
/// little-endian bytes, region-major. One buffer serves both duties:
/// the PRNG words are generated straight into it, and each region is
/// seeded from it with a single `write_bytes`.
struct ScratchPre {
    /// Region start addresses (scratch pointer − 0x200 each), `None`
    /// for a region the run did not fill.
    bases: [Option<u32>; 8],
    /// `SCRATCH_WORDS * 4` bytes per region.
    words: Vec<u8>,
}

impl ScratchPre {
    fn empty() -> ScratchPre {
        ScratchPre {
            bases: [None; 8],
            words: Vec::with_capacity(8 * SCRATCH_WORDS * 4),
        }
    }

    /// The snapshotted word at `addr`, if `addr` is a word-aligned
    /// offset inside any filled scratch region (regions are 0x1000
    /// apart, so they never overlap).
    fn get(&self, addr: u32) -> Option<u32> {
        for (i, b) in self.bases.iter().enumerate() {
            let Some(b) = *b else {
                continue;
            };
            let off = addr.wrapping_sub(b);
            if off < (SCRATCH_WORDS as u32) * 4 && off % 4 == 0 {
                let at = i * SCRATCH_WORDS * 4 + off as usize;
                return Some(u32::from_le_bytes(
                    self.words[at..at + 4].try_into().unwrap(),
                ));
            }
        }
        None
    }
}

/// Buffers reused across proposals so probe setup performs no per-probe
/// heap allocation: [`ProbeVm`] owns one set for its whole lifetime.
struct ProbeBufs {
    /// The registers that hold scratch pointers ([`scratch_regs`]), the
    /// initial register file ([`probe_registers`]) and the scratch
    /// windows each run fills ([`windows_to_fill`]), computed once per
    /// proposal.
    scratch: u8,
    regs: [Option<u32>; 8],
    fill: u8,
    /// Chain canary values for the current run.
    canaries: Vec<u32>,
    /// Scratch snapshot/fill slab for the current run.
    pre: ScratchPre,
    /// Set when the current proposal's probe executed an instruction
    /// outside the candidate's own bytes.
    strayed: bool,
}

impl ProbeBufs {
    fn new() -> ProbeBufs {
        ProbeBufs {
            scratch: 0,
            regs: [None; 8],
            fill: 0,
            canaries: Vec::new(),
            pre: ScratchPre::empty(),
            strayed: false,
        }
    }
}

/// Post-execution probe state, shared by every effect check of a trial.
struct Probe<'v> {
    vm: &'v Vm,
    esp0: u32,
    init_regs: [u32; 8],
    canaries: &'v [u32],
    /// Pre-execution contents of the scratch regions.
    pre_mem: &'v ScratchPre,
}

/// Runs the gadget once with randomized state in a reusable probe VM
/// (every location the checks depend on is rewritten per run). Returns
/// `(esp0, init_regs)` for [`Probe`] assembly — the canaries and
/// scratch snapshot land in `bufs` — or `None` if the gadget faulted,
/// ran away, or never returned to the chain.
///
/// Each run draws from `seed` exactly what the legacy oracle's run of
/// the same trial draws, in the same order (registers, flags, scratch
/// words, canaries), so every check sees the values the oracle sees.
fn run_probe(
    vm: &mut Vm,
    p: &Proposal,
    seed: &mut u64,
    bufs: &mut ProbeBufs,
    stats: &mut ProbeStats,
) -> Option<(u32, [u32; 8])> {
    stats.runs += 1;

    // Scratch pointers for memory-operand registers: spaced regions in
    // the scratch block, pre-filled with random words.
    let scratch = Reg32::ALL.map(scratch_pointer);

    let mut init_regs = [0u32; 8];
    for r in Reg32::ALL {
        if r == Reg32::Esp {
            continue;
        }
        let i = r.encoding() as usize;
        // Every register without a scratch pointer takes a draw, even
        // one a pin then overrides, so the PRNG stream of each trial
        // (and every outcome) stays the one the legacy oracle draws.
        let drawn = (bufs.scratch >> i & 1 == 0).then(|| DRAW_BASE | (prng(seed) & DRAW_MASK));
        let v = bufs.regs[i].or(drawn).unwrap_or_default();
        init_regs[i] = v;
        vm.cpu.set_reg(r, v);
    }

    // Randomize flags (catches flag-dependent sequences like adc).
    vm.cpu.flags.cf = prng(seed) & 1 != 0;
    vm.cpu.flags.zf = prng(seed) & 1 != 0;
    vm.cpu.flags.sf = prng(seed) & 1 != 0;
    vm.cpu.flags.of = prng(seed) & 1 != 0;

    // Fill the windows `windows_to_fill` names with random words and
    // snapshot them, region by region, and skip the draws of the others
    // with a jump of the PRNG state, so each filled window holds the
    // oracle's words and the canaries come from the oracle's point of
    // the stream. A probe fills nothing when it cannot observe scratch.
    if bufs.fill == 0 {
        bufs.pre.bases = [None; 8];
        skip_scratch_draws(seed);
    } else {
        bufs.pre.words.resize(SCRATCH_DRAWS * 4, 0);
        for (i, s) in scratch.iter().enumerate() {
            if bufs.fill >> i & 1 == 0 {
                bufs.pre.bases[i] = None;
                skip_window_draws(seed);
                continue;
            }
            bufs.pre.bases[i] = Some(s - 0x200);
            let span = i * SCRATCH_WORDS * 4..(i + 1) * SCRATCH_WORDS * 4;
            let region = &mut bufs.pre.words[span.clone()];
            for chunk in region.chunks_exact_mut(4) {
                chunk.copy_from_slice(&prng(seed).to_le_bytes());
            }
            vm.mem_mut()
                .write_bytes(s - 0x200, &bufs.pre.words[span])
                .ok()?;
        }
        stats.reseed_words += u64::from(bufs.fill.count_ones()) * SCRATCH_WORDS as u64;
    }

    // Lay out the probe chain: `slots` canaries, then the sentinel,
    // then a dummy CS slot for far returns.
    let esp0 = PROBE_ESP;
    bufs.canaries.clear();
    for k in 0..p.slots {
        let c = prng(seed);
        bufs.canaries.push(c);
        vm.mem_mut().write32(esp0 + 4 * k, c).ok()?;
    }
    vm.mem_mut()
        .write32(esp0 + 4 * p.slots, CALL_SENTINEL)
        .ok()?;
    if p.cand.far {
        vm.mem_mut().write32(esp0 + 4 * p.slots + 4, 0x23).ok()?;
    }

    // Pivot gadgets reach the sentinel through their pivot target.
    if p.effects.contains(&Effect::PopEsp) {
        let landing = esp0 + 0x100;
        vm.mem_mut().write32(landing, CALL_SENTINEL).ok()?;
        for k in 0..p.slots {
            bufs.canaries[k as usize] = landing;
            vm.mem_mut().write32(esp0 + 4 * k, landing).ok()?;
        }
    }
    if p.effects.iter().any(|e| matches!(e, Effect::AddEsp { .. })) {
        vm.mem_mut().write32(esp0 + 64, CALL_SENTINEL).ok()?;
    }

    vm.cpu.set_esp(esp0);
    vm.cpu.eip = p.cand.vaddr;

    let own = p.cand.vaddr..p.cand.vaddr + p.cand.len;
    for _ in 0..PROBE_STEPS {
        if vm.cpu.eip == CALL_SENTINEL {
            return Some((esp0, init_regs));
        }
        bufs.strayed |= !own.contains(&vm.cpu.eip);
        match vm.step() {
            Ok(None) => {}
            _ => return None,
        }
    }
    None
}

fn check_effect(e: &Effect, pr: &Probe, p: &Proposal) -> bool {
    let vm = &pr.vm;
    let reg = |r: Reg32| vm.cpu.reg(r);
    let init_of = |r: Reg32| pr.init_regs[r.encoding() as usize];
    let semantics_ok = match *e {
        Effect::LoadConst { dst, slot } => reg(dst) == pr.canaries[slot as usize],
        Effect::MovReg { dst, src } => reg(dst) == init_of(src),
        Effect::Binary { op, dst, src } => {
            let a = init_of(dst);
            let b = init_of(src);
            let expect = match op {
                GBinOp::Add => a.wrapping_add(b),
                GBinOp::Sub => a.wrapping_sub(b),
                GBinOp::And => a & b,
                GBinOp::Or => a | b,
                GBinOp::Xor => a ^ b,
                GBinOp::Imul => a.wrapping_mul(b),
            };
            reg(dst) == expect
        }
        Effect::Neg { dst } => reg(dst) == init_of(dst).wrapping_neg(),
        Effect::Not { dst } => reg(dst) == !init_of(dst),
        Effect::LoadMem { dst, addr, off } => {
            let a = init_of(addr).wrapping_add(off as u32);
            pr.pre_mem.get(a).is_some_and(|v| reg(dst) == v)
        }
        Effect::StoreMem { addr, off, src } => {
            let a = init_of(addr).wrapping_add(off as u32);
            vm.mem()
                .read32(a)
                .map(|v| v == init_of(src))
                .unwrap_or(false)
        }
        Effect::AddMem { addr, off, src } => {
            let a = init_of(addr).wrapping_add(off as u32);
            match (pr.pre_mem.get(a), vm.mem().read32(a)) {
                (Some(pre), Ok(post)) => post == pre.wrapping_add(init_of(src)),
                _ => false,
            }
        }
        Effect::PopEsp | Effect::AddEsp { .. } | Effect::Syscall => true,
        Effect::ShiftCl { op, dst } => {
            let a = init_of(dst);
            let n = init_of(Reg32::Ecx) & 31;
            let expect = match op {
                parallax_x86::ShiftOp::Shl => {
                    if n == 0 {
                        a
                    } else {
                        a << n
                    }
                }
                parallax_x86::ShiftOp::Shr => {
                    if n == 0 {
                        a
                    } else {
                        a >> n
                    }
                }
                parallax_x86::ShiftOp::Sar => ((a as i32) >> n) as u32,
                parallax_x86::ShiftOp::Rol => a.rotate_left(n),
                parallax_x86::ShiftOp::Ror => a.rotate_right(n),
            };
            reg(dst) == expect
        }
        Effect::MovLow8 { dst, src } => {
            let parent = dst.parent();
            let pv = init_of(src.parent());
            let want_byte = if src.is_high() {
                (pv >> 8) as u8
            } else {
                pv as u8
            };
            let hi_mask: u32 = if dst.is_high() {
                0xffff_00ff
            } else {
                0xffff_ff00
            };
            vm.cpu.reg8(dst) == want_byte && (reg(parent) & hi_mask) == (init_of(parent) & hi_mask)
        }
        // A NOP may clobber the registers its proposal declares; all
        // others must be preserved.
        Effect::Nop => Reg32::ALL
            .iter()
            .filter(|&&r| r != Reg32::Esp && !p.clobbers.contains(&r))
            .all(|&r| reg(r) == init_of(r)),
    };
    if !semantics_ok {
        return false;
    }
    // The chain must resume exactly past the consumed slots.
    match e {
        Effect::PopEsp | Effect::AddEsp { .. } => true,
        _ => {
            let extra = if p.cand.far { 8 } else { 4 };
            vm.cpu.esp() == pr.esp0 + 4 * p.slots + extra
        }
    }
}

/// The shared-trial core: one probe run per trial, every live effect
/// checked against it. Effects that fail a trial leave the liveness
/// mask; a probe fault kills the whole proposal (the legacy path would
/// have faulted identically for every effect — same seed, same
/// execution). Trial 2 runs only when effects survive trial 1 and
/// [`one_trial_settles`] does not hold for them.
fn validate_shared(
    vm: &mut Vm,
    p: &Proposal,
    bufs: &mut ProbeBufs,
    stats: &mut ProbeStats,
) -> Option<Gadget> {
    stats.proposals += 1;
    bufs.strayed = false;
    let ne = p.effects.len();
    if ne > MAX_SHARED_EFFECTS {
        return None;
    }

    // The legacy loop would have run each effect's first trial, and
    // every one faults; a proposal that claims no effect (the
    // classifier withdrew an overwritten store) it does not run at all.
    if ne == 0 || prejudged(vm.mem(), p) {
        stats.prejudged += 1;
        stats.runs_saved += ne as u64;
        return None;
    }

    // The initial register file, computed once per proposal (the
    // legacy path recomputes it per probe).
    bufs.scratch = scratch_regs(p);
    bufs.regs = probe_registers(p);
    bufs.fill = windows_to_fill(p, &bufs.regs);

    let tag = content_tag(vm, p);
    let mut alive: u64 = if ne == 64 { u64::MAX } else { (1 << ne) - 1 };
    let mut legacy_runs = 0u64;
    let mut actual_runs = 0u64;
    for trial in 0..2u64 {
        if alive == 0 {
            break;
        }
        // What the per-(effect, trial) loop would have spent here: one
        // probe per effect still alive at this trial, whether or not
        // this path runs the trial.
        legacy_runs += u64::from(alive.count_ones());
        if trial == 1 {
            if one_trial_settles(p, alive, &bufs.regs, bufs.strayed) {
                break;
            }
            stats.second_trials += 1;
        }
        let mut seed = probe_seed(tag, trial);
        actual_runs += 1;
        match run_probe(vm, p, &mut seed, bufs, stats) {
            Some((esp0, init_regs)) => {
                let pr = Probe {
                    vm,
                    esp0,
                    init_regs,
                    canaries: &bufs.canaries,
                    pre_mem: &bufs.pre,
                };
                for (i, e) in p.effects.iter().enumerate() {
                    if alive >> i & 1 == 1 && !check_effect(e, &pr, p) {
                        alive &= !(1 << i);
                    }
                }
            }
            None => alive = 0,
        }
    }
    stats.runs_saved += legacy_runs.saturating_sub(actual_runs);

    if alive == 0 {
        return None;
    }
    let surviving: Vec<Effect> = p
        .effects
        .iter()
        .enumerate()
        .filter(|&(i, _)| alive >> i & 1 == 1)
        .map(|(_, e)| *e)
        .collect();
    Some(validated(p, surviving))
}

/// The gadget `p` describes, keeping the effects that survived.
fn validated(p: &Proposal, effects: Vec<Effect>) -> Gadget {
    Gadget::new(
        p.cand.vaddr,
        GadgetRecord {
            len: p.cand.len,
            far: p.cand.far,
            slots: p.slots,
            effects,
            clobbers: p.clobbers.clone(),
            mem_preconditions: p.mem_preconditions.clone(),
            disasm: p.cand.disasm(),
            insn_count: p.cand.insns().len() as u32,
        },
    )
}

/// Concretely validates a proposal against a reusable probe VM loaded
/// with the image under analysis; returns the surviving gadget, or
/// `None` if no proposed effect holds up. Allocates working buffers
/// per call — prefer [`ProbeVm`], which owns them across proposals.
pub fn validate_with(vm: &mut Vm, p: &Proposal) -> Option<Gadget> {
    let mut bufs = ProbeBufs::new();
    let mut stats = ProbeStats::default();
    validate_shared(vm, p, &mut bufs, &mut stats)
}

/// Convenience wrapper constructing a fresh probe VM (prefer
/// [`ProbeVm`] when validating many proposals on one image).
pub fn validate(img: &LinkedImage, p: &Proposal) -> Option<Gadget> {
    let mut vm = Vm::with_options(img, VmOptions::default());
    validate_with(&mut vm, p)
}

/// A reusable probe VM: one image load amortized over every proposal a
/// worker validates. Construction snapshots the pristine memory (a
/// page-table clone); before each proposal the VM is rolled back to it
/// (registers, flags, cycles, RSB, syscall state included), which puts
/// the pristine page back into each page the last proposal wrote. So
/// the VM is exactly equivalent to a freshly built one and each verdict
/// is a pure function of the proposal, while the predecoded block cache
/// stays hot across proposals (text is immutable under W⊕X).
pub struct ProbeVm {
    vm: Vm,
    pristine: Memory,
    bufs: ProbeBufs,
    stats: ProbeStats,
}

impl ProbeVm {
    /// Builds the reusable VM for `img`.
    pub fn new(img: &LinkedImage) -> ProbeVm {
        let vm = Vm::with_options(img, VmOptions::default());
        let pristine = vm.mem().clone();
        ProbeVm {
            vm,
            pristine,
            bufs: ProbeBufs::new(),
            stats: ProbeStats::default(),
        }
    }

    /// The VM heap base: where the scratch heap starts, after the
    /// image's data and BSS. It does not anchor the probe's scratch
    /// regions, which sit in the stack region.
    pub fn heap_base(&self) -> u32 {
        self.vm.mem().heap_base()
    }

    /// Probe-work counters accumulated over every [`ProbeVm::validate`]
    /// call on this VM.
    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    /// Drains the accumulated counters, leaving zeros (lets a worker
    /// export per-chunk deltas to a shared total).
    pub fn take_stats(&mut self) -> ProbeStats {
        std::mem::take(&mut self.stats)
    }

    /// Validates one proposal from pristine state. Equivalent to
    /// `validate(img, p)` on a fresh VM, minus the construction cost.
    pub fn validate(&mut self, p: &Proposal) -> Option<Gadget> {
        self.vm.reset_to(&self.pristine);
        let copied = self.vm.mem().pages_copied();
        let g = validate_shared(&mut self.vm, p, &mut self.bufs, &mut self.stats);
        self.stats.pages_copied += self.vm.mem().pages_copied() - copied;
        g
    }

    /// Whether the last [`ProbeVm::validate`] executed an instruction
    /// outside the candidate's own bytes (a return that missed the
    /// probe's sentinel). That verdict also depends on the other text
    /// it ran, so it is neither shared with copies of the candidate nor
    /// reused across passes.
    pub fn strayed(&self) -> bool {
        self.bufs.strayed
    }
}

/// The pre-shared-trial validation path — one probe per (effect,
/// trial), scratch redrawn every probe. Not used by `protect()`; built
/// only with the `oracle` feature, as the differential oracle for
/// `tests/shared_trial.rs` and the `validate_throughput` bench's
/// legacy-vs-shared speedup ratio.
#[cfg(feature = "oracle")]
#[doc(hidden)]
pub mod legacy {
    use super::*;

    /// Runs the gadget once with fully redrawn state; returns the probe
    /// inputs plus owned canary/scratch snapshots.
    #[allow(clippy::type_complexity)]
    fn run_probe(
        vm: &mut Vm,
        p: &Proposal,
        seed: &mut u64,
    ) -> Option<(u32, [u32; 8], Vec<u32>, ScratchPre)> {
        let scratch = Reg32::ALL.map(scratch_pointer);

        let mut needs_scratch = p.mem_preconditions.clone();
        for e in &p.effects {
            match e {
                Effect::LoadMem { addr, .. }
                | Effect::StoreMem { addr, .. }
                | Effect::AddMem { addr, .. }
                    if !needs_scratch.contains(addr) =>
                {
                    needs_scratch.push(*addr);
                }
                _ => {}
            }
        }

        let mut init_regs = [0u32; 8];
        for r in Reg32::ALL {
            if r == Reg32::Esp {
                continue;
            }
            let v = if needs_scratch.contains(&r) {
                scratch[r.encoding() as usize]
            } else {
                0x0100_0000 | (prng(seed) & 0x00ff_ffff)
            };
            init_regs[r.encoding() as usize] = v;
            vm.cpu.set_reg(r, v);
        }
        if p.effects.contains(&Effect::Syscall) {
            init_regs[0] = 13;
            vm.cpu.set_reg(Reg32::Eax, 13);
        }

        vm.cpu.flags.cf = prng(seed) & 1 != 0;
        vm.cpu.flags.zf = prng(seed) & 1 != 0;
        vm.cpu.flags.sf = prng(seed) & 1 != 0;
        vm.cpu.flags.of = prng(seed) & 1 != 0;

        let mut pre_mem = ScratchPre::empty();
        pre_mem.bases = scratch.map(|s| Some(s - 0x200));
        for s in scratch {
            let start = pre_mem.words.len();
            for _ in 0..SCRATCH_WORDS {
                let v = prng(seed);
                pre_mem.words.extend_from_slice(&v.to_le_bytes());
            }
            vm.mem_mut()
                .write_bytes(s - 0x200, &pre_mem.words[start..])
                .ok()?;
        }

        let esp0 = PROBE_ESP;
        let mut canaries = Vec::new();
        for k in 0..p.slots {
            let c = prng(seed);
            canaries.push(c);
            vm.mem_mut().write32(esp0 + 4 * k, c).ok()?;
        }
        vm.mem_mut()
            .write32(esp0 + 4 * p.slots, CALL_SENTINEL)
            .ok()?;
        if p.cand.far {
            vm.mem_mut().write32(esp0 + 4 * p.slots + 4, 0x23).ok()?;
        }

        if p.effects.contains(&Effect::PopEsp) {
            let landing = esp0 + 0x100;
            vm.mem_mut().write32(landing, CALL_SENTINEL).ok()?;
            for k in 0..p.slots {
                canaries[k as usize] = landing;
                vm.mem_mut().write32(esp0 + 4 * k, landing).ok()?;
            }
        }
        if let Some(Effect::AddEsp { src }) = p
            .effects
            .iter()
            .find(|e| matches!(e, Effect::AddEsp { .. }))
        {
            vm.cpu.set_reg(*src, 64);
            init_regs[src.encoding() as usize] = 64;
            vm.mem_mut().write32(esp0 + 64, CALL_SENTINEL).ok()?;
        }

        vm.cpu.set_esp(esp0);
        vm.cpu.eip = p.cand.vaddr;

        for _ in 0..PROBE_STEPS {
            if vm.cpu.eip == CALL_SENTINEL {
                return Some((esp0, init_regs, canaries, pre_mem));
            }
            match vm.step() {
                Ok(None) => {}
                _ => return None,
            }
        }
        None
    }

    /// Legacy per-(effect, trial) validation against a caller-provided
    /// VM; byte-for-byte the behavior `protect()` had before the
    /// shared-trial restructuring.
    pub fn validate_with(vm: &mut Vm, p: &Proposal) -> Option<Gadget> {
        let tag = content_tag(vm, p);
        let mut surviving = Vec::new();
        'effects: for e in &p.effects {
            for trial in 0..2u64 {
                let mut seed = probe_seed(tag, trial);
                match run_probe(vm, p, &mut seed) {
                    Some((esp0, init_regs, canaries, pre_mem)) => {
                        let pr = Probe {
                            vm,
                            esp0,
                            init_regs,
                            canaries: &canaries,
                            pre_mem: &pre_mem,
                        };
                        if !check_effect(e, &pr, p) {
                            continue 'effects;
                        }
                    }
                    None => continue 'effects,
                }
            }
            surviving.push(*e);
        }
        if surviving.is_empty() {
            return None;
        }
        Some(validated(p, surviving))
    }

    /// Legacy validation on a fresh VM.
    pub fn validate(img: &LinkedImage, p: &Proposal) -> Option<Gadget> {
        let mut vm = Vm::with_options(img, VmOptions::default());
        validate_with(&mut vm, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, MemLoc};
    use crate::scan::{scan, Candidate};

    /// A scratch pointer's low byte is not 0, so `mov [eax], ebx; add
    /// byte [edx-0x2000], al; add esp, 4; ret`, which adds eax's low byte
    /// into the word it just stored (edx's scratch pointer lies 0x2000
    /// above eax's), fails the store check. The classifier does not see
    /// the alias and claims the store.
    #[test]
    fn a_store_that_adds_al_into_its_word_is_rejected() {
        use parallax_image::Program;
        use parallax_x86::{Asm, Mem};
        assert_ne!(scratch_pointer(Reg32::Eax) & 0xff, 0);
        assert_eq!(
            scratch_pointer(Reg32::Edx) - 0x2000,
            scratch_pointer(Reg32::Eax)
        );
        let mut a = Asm::new();
        a.mov_mr(Mem::base(Reg32::Eax), Reg32::Ebx);
        // add byte [edx-0x2000], al; add esp, 4
        a.db(&[0x00, 0x82, 0x00, 0xe0, 0xff, 0xff, 0x83, 0xc4, 0x04]);
        a.ret();
        let mut prog = Program::new();
        prog.add_func("main", a.finish().unwrap());
        prog.set_entry("main");
        let img = prog.link().unwrap();
        let cand = scan(&img.text, img.text_base)
            .into_iter()
            .find(|c| c.vaddr == img.entry && c.insns.len() == 4)
            .unwrap();
        let p = classify(&cand).unwrap();
        let store = Effect::StoreMem {
            addr: Reg32::Eax,
            off: 0,
            src: Reg32::Ebx,
        };
        assert!(p.effects.contains(&store), "{:?}", p.effects);
        let g = validate(&img, &p);
        assert!(
            g.as_ref().is_none_or(|g| !g.effects.contains(&store)),
            "{g:?}"
        );
    }

    /// Where each access of `p` points.
    fn locs(p: &Proposal) -> Vec<MemLoc> {
        p.accesses.iter().map(|a| a.loc).collect()
    }

    /// A program whose `main` is `bytes`, linked.
    fn image_of(bytes: &[u8]) -> LinkedImage {
        let mut a = parallax_x86::Asm::new();
        a.db(bytes);
        let mut prog = parallax_image::Program::new();
        prog.add_func("main", a.finish().unwrap());
        prog.set_entry("main");
        prog.link().unwrap()
    }

    /// The candidate for the whole of `main`, `bytes` long in `img`. It
    /// lives to the end of the test run, so proposals can borrow it.
    fn main_candidate(img: &LinkedImage, bytes: &[u8]) -> &'static Candidate {
        let cand = scan(&img.text, img.text_base)
            .into_iter()
            .find(|c| c.vaddr == img.entry && c.len as usize == bytes.len())
            .expect("main is one candidate");
        Box::leak(Box::new(cand))
    }

    /// The proposal for the whole of `main` when `main` is `bytes`
    /// (ending in a return), and whether a probe VM rejected it without
    /// a run (after checking that the legacy oracle, which runs every
    /// probe, rejects it too).
    fn rejected_unrun(bytes: &[u8]) -> (Proposal<'static>, bool) {
        let img = image_of(bytes);
        let p = classify(main_candidate(&img, bytes)).expect("classified");
        let mut probe = ProbeVm::new(&img);
        let g = probe.validate(&p);
        let stats = probe.stats();
        let unrun = prejudged(probe.vm.mem(), &p);
        assert_eq!(
            (stats.proposals, stats.prejudged, stats.runs == 0),
            (1, u64::from(unrun), unrun),
            "{}",
            p.cand.disasm()
        );
        if !unrun {
            return (p, false);
        }
        assert!(g.is_none(), "{g:?}");
        assert!(legacy::validate(&img, &p).is_none(), "{}", p.cand.disasm());
        (p, true)
    }

    /// `mov eax, [ecx+disp]; ret`, with `disp` placing the access at
    /// `at` (ecx holds its scratch pointer). Its length, and so the
    /// image layout, does not depend on `at`.
    fn load_at(at: u32) -> Vec<u8> {
        let disp = at.wrapping_sub(scratch_pointer(Reg32::Ecx));
        let mut bytes = vec![0x8b, 0x81];
        bytes.extend_from_slice(&disp.to_le_bytes());
        bytes.push(0xc3);
        bytes
    }

    /// A syscall gadget's probe puts 13 in eax, not eax's scratch
    /// pointer, so `mov ecx, [eax]; int 0x80; ret` reads address 13.
    #[test]
    fn an_eax_rooted_access_of_a_syscall_gadget_starts_at_13() {
        let (p, unrun) = rejected_unrun(&[0x8b, 0x08, 0xcd, 0x80, 0xc3]);
        assert!(p.effects.contains(&Effect::Syscall), "{:?}", p.effects);
        assert!(p.mem_preconditions.contains(&Reg32::Eax));
        assert_eq!(locs(&p), vec![MemLoc::Reg(Reg32::Eax, 0, true)]);
        assert!(unrun);
        // Through the scratch pointer the read would have been mapped.
        let stack = STACK_TOP - STACK_SIZE..STACK_TOP;
        assert!(stack.contains(&scratch_pointer(Reg32::Eax)));
    }

    /// A syscall gadget whose `int 0x80` passes a number the VM does not
    /// define, computed from the pinned 13, is rejected without a run
    /// and counted as prejudged; a defined one is probed.
    #[test]
    fn an_undefined_syscall_number_is_rejected_unrun() {
        // add eax, 0xc3b85008; int 0x80; ret
        let (p, unrun) = rejected_unrun(&[0x05, 0x08, 0x50, 0xb8, 0xc3, 0xcd, 0x80, 0xc3]);
        assert_eq!(p.syscall_eax, SyscallEax::Fixed(0xc3b8_5015));
        assert!(p.accesses.is_empty() && unrun);
        // sub eax, 9; int 0x80; ret: `write`
        let (p, unrun) = rejected_unrun(&[0x83, 0xe8, 0x09, 0xcd, 0x80, 0xc3]);
        assert_eq!(p.syscall_eax, SyscallEax::Fixed(4));
        assert!(!unrun);
    }

    /// An `AddEsp` gadget's source holds 64, so `mov eax, [ecx+0x10];
    /// add esp, ecx; ret` reads address 0x50.
    #[test]
    fn an_add_esp_source_starts_at_64() {
        let (p, unrun) = rejected_unrun(&[0x8b, 0x41, 0x10, 0x01, 0xcc, 0xc3]);
        assert_eq!(p.effects, vec![Effect::AddEsp { src: Reg32::Ecx }]);
        assert_eq!(locs(&p), vec![MemLoc::Reg(Reg32::Ecx, 0x10, true)]);
        assert!(unrun);
    }

    /// Between the end of the heap and the bottom of the stack region
    /// nothing is mapped: an access that starts there is rejected
    /// without a run, one that starts on either region's edge is
    /// probed.
    #[test]
    fn the_gap_between_heap_and_stack_is_unmapped() {
        let img = image_of(&load_at(0));
        let data_end = Vm::with_options(&img, VmOptions::default())
            .mem()
            .data_end();
        let bottom = STACK_TOP - STACK_SIZE;
        assert!(data_end < bottom);
        for (at, outside) in [
            (data_end - 1, false),
            (data_end, true),
            (data_end + (bottom - data_end) / 2, true),
            (bottom - 1, true),
            (bottom, false),
        ] {
            let (p, unrun) = rejected_unrun(&load_at(at));
            assert_eq!(unrun, outside, "{at:#x}: {}", p.cand.disasm());
        }
    }

    /// `mov al, 0x16; mov ebx, [eax+disp]; ret`: eax's low byte is
    /// replaced, so the access may start anywhere in the 64 KiB block of
    /// eax's scratch pointer, offset by `disp`.
    fn patched_load(disp: i32) -> Vec<u8> {
        let mut bytes = vec![0xb0, 0x16, 0x8b, 0x98];
        bytes.extend_from_slice(&disp.to_le_bytes());
        bytes.push(0xc3);
        bytes
    }

    /// A `Patch8` root is probed when one start address of its widened
    /// block is mapped, here the stack region's first byte, even though
    /// the probe's own pointer then faults; one byte lower, every start
    /// address misses.
    #[test]
    fn a_patched_block_with_one_mapped_start_is_probed() {
        let block = scratch_pointer(Reg32::Eax) & !0xffff;
        let disp = (STACK_TOP - STACK_SIZE).wrapping_sub(block + 0xffff) as i32;
        let (p, unrun) = rejected_unrun(&patched_load(disp));
        assert_eq!(locs(&p), vec![MemLoc::Reg(Reg32::Eax, disp, false)]);
        assert!(!unrun);
        let (_, unrun) = rejected_unrun(&patched_load(disp - 1));
        assert!(unrun);
    }

    /// A widened block shifted to straddle the top of the address space
    /// wraps to address 0; such an interval is left to the probe.
    #[test]
    fn an_interval_that_wraps_is_probed() {
        let block = scratch_pointer(Reg32::Eax) & !0xffff;
        let disp = 0xffff_8000u32.wrapping_sub(block) as i32;
        let (p, unrun) = rejected_unrun(&patched_load(disp));
        let (lo, hi) = p.accesses[0].loc.starts(&probe_registers(&p));
        assert!(lo < 1 << 32 && hi >= 1 << 32, "{lo:#x}..={hi:#x}");
        assert!(!unrun);
    }

    /// `mul dword [0x40000000]; ret` reads far from anything mapped, but
    /// the classifier does not resolve an absolute operand, so no access
    /// records it and the probe runs.
    #[test]
    fn an_unresolved_operand_is_probed() {
        let (p, unrun) = rejected_unrun(&[0xf7, 0x25, 0x00, 0x00, 0x00, 0x40, 0xc3]);
        assert!(p.unresolved_access && p.accesses.is_empty());
        assert!(!unrun);
    }

    /// A one-operand `mul` or `imul` records its operand as an access
    /// without making its root a precondition: ecx and esi keep their
    /// draws, so `imul byte [ecx-0x3b7c0001]; ret` and `mul dword
    /// [esi-0x3b7c0001]; ret` can only read above the stack region, and
    /// are rejected without a run.
    #[test]
    fn a_mul_operand_on_a_drawn_root_is_rejected_unrun() {
        for (bytes, root) in [
            (&[0xf6, 0xa9, 0xff, 0xff, 0x83, 0xc4, 0xc3][..], Reg32::Ecx),
            (&[0xf7, 0xa6, 0xff, 0xff, 0x83, 0xc4, 0xc3], Reg32::Esi),
        ] {
            let (p, unrun) = rejected_unrun(bytes);
            assert_eq!(locs(&p), vec![MemLoc::Reg(root, -0x3b7c_0001, true)]);
            assert!(!p.unresolved_access && p.mem_preconditions.is_empty());
            assert!(unrun, "{}", p.cand.disasm());
        }
    }

    /// The proposal for the whole of `main` when `main` is `bytes`,
    /// whether [`one_trial_settles`] holds for all of its effects, and
    /// how many second trials a probe VM ran for it: one exactly when
    /// the predicate does not hold and an effect survives trial 1.
    fn settles(bytes: &[u8]) -> (Proposal<'static>, bool, u64) {
        let img = image_of(bytes);
        let p = classify(main_candidate(&img, bytes)).expect("classified");
        let settled = one_trial_settles(&p, u64::MAX, &probe_registers(&p), false);
        let mut probe = ProbeVm::new(&img);
        probe.validate(&p);
        let stats = probe.stats();
        assert_eq!(stats.runs, 1 + stats.second_trials, "{}", p.cand.disasm());
        if settled {
            assert_eq!(stats.second_trials, 0, "{}", p.cand.disasm());
        }
        (p, settled, stats.second_trials)
    }

    /// A second write to memory keeps trial 2: the classifier does not
    /// see that `[edx+0x1000]` is `[ebx]` (the scratch pointers lie 0x1000
    /// apart), so it claims the first write, and a listed operation can
    /// narrow what the second adds to one random bit. One write, even a
    /// masking one, is settled by trial 1.
    #[test]
    fn a_second_memory_write_takes_two_trials() {
        assert_eq!(
            scratch_pointer(Reg32::Edx) + 0x1000,
            scratch_pointer(Reg32::Ebx)
        );
        // mov [ebx], eax; and ecx, 1; add [edx+0x1000], ecx
        let (p, settled, _) = settles(&[
            0x89, 0x03, 0x83, 0xe1, 0x01, 0x01, 0x8a, 0x00, 0x10, 0x00, 0x00, 0xc3,
        ]);
        assert!(p.effects.contains(&Effect::StoreMem {
            addr: Reg32::Ebx,
            off: 0,
            src: Reg32::Eax,
        }));
        assert!(!settled, "{}", p.cand.disasm());
        // Whether trial 2 runs depends on trial 1's bit; across these
        // narrowings of ecx, some trial 1 passes the wrong store.
        let mut second_trials = 0;
        let add_ecx = [0x01, 0x8a, 0x00, 0x10, 0x00, 0x00]; // add [edx+0x1000], ecx
        for bytes in [
            [&[0x89, 0x03, 0xc1, 0xe1, 0x1f][..], &add_ecx, &[0xc3]].concat(), // mov [ebx], eax; shl ecx, 31
            // mov [ebx], eax; imul ecx, ecx, 0x80000000
            [
                &[0x89, 0x03, 0x69, 0xc9, 0, 0, 0, 0x80][..],
                &add_ecx,
                &[0xc3],
            ]
            .concat(),
            // mov [ebx], eax; and ecx, 0x100
            [&[0x89, 0x03, 0x81, 0xe1, 0, 1, 0, 0][..], &add_ecx, &[0xc3]].concat(),
            // mov [ebx], eax; or dword [edx+0x1000], 0x100; pop eax
            vec![
                0x89, 0x03, 0x81, 0x8a, 0, 0x10, 0, 0, 0, 1, 0, 0, 0x58, 0xc3,
            ],
            // mov [ebx], eax; and [edx+0x1000], ecx; pop eax
            vec![0x89, 0x03, 0x21, 0x8a, 0x00, 0x10, 0x00, 0x00, 0x58, 0xc3],
            // mov [ebx], eax; or eax, 1; mov [edx+0x1000], eax: the second
            // write carries no mark, and half the draws leave the word as
            // claimed.
            vec![
                0x89, 0x03, 0x83, 0xc8, 0x01, 0x89, 0x82, 0x00, 0x10, 0x00, 0x00, 0xc3,
            ],
        ] {
            let (p, settled, second) = settles(&bytes);
            assert!(!settled, "{}", p.cand.disasm());
            second_trials += second;
        }
        assert!(second_trials > 0);
        for bytes in [
            &[0x81, 0x0b, 0x00, 0x01, 0x00, 0x00, 0x58, 0xc3][..], // or dword [ebx], 0x100; pop eax
            &[0x21, 0xc8, 0x0b, 0x13, 0x5e, 0xc3], // and eax, ecx; or edx, [ebx]; pop esi
        ] {
            let (p, settled, _) = settles(bytes);
            assert!(settled, "{}", p.cand.disasm());
        }
    }

    /// An access off a word boundary, or an esp move by part of a word,
    /// keeps trial 2: a word read or written across another claimed word
    /// shares only some of its bytes with it.
    #[test]
    fn a_partial_word_overlap_takes_two_trials() {
        for bytes in [
            &[0x89, 0x4c, 0x24, 0x03, 0x58, 0x5a, 0xc3][..], // mov [esp+3], ecx; pop eax; pop edx
            &[0x89, 0x43, 0x02, 0x8b, 0x0b, 0xc3],           // mov [ebx+2], eax; mov ecx, [ebx]
            &[0x83, 0xc4, 0x02, 0x83, 0xc4, 0x02, 0x58, 0xc3], // add esp, 2; add esp, 2; pop eax
            &[0x44, 0x44, 0x44, 0x44, 0x58, 0xc3],           // inc esp (4 times); pop eax
        ] {
            let (p, settled, _) = settles(bytes);
            assert!(!settled, "{}", p.cand.disasm());
        }
    }

    /// An access whose root had its low byte replaced by a drawn byte
    /// may land anywhere in a 64 KiB block: it keeps trial 2.
    #[test]
    fn a_root_patched_from_a_draw_takes_two_trials() {
        // mov al, bl; mov ecx, [eax]; mov al, 0x16
        let (p, settled, second) = settles(&[0x88, 0xd8, 0x8b, 0x08, 0xb0, 0x16, 0xc3]);
        assert_eq!(locs(&p), vec![MemLoc::Reg(Reg32::Eax, 0, false)]);
        assert_eq!(p.accesses[0].patched, None);
        assert!(!settled && second == 1);
    }

    /// A `Patch8` root whose bytes are constants of the proposal (an
    /// 8-bit immediate on a register the probe pins) starts at one
    /// address: `add al, 0x8; mov eax, [eax+0x4]; ret`, seen in every
    /// protect-large image, takes one run. A drawn register that an
    /// 8-bit immediate patches holds no constant: a claim that reads it
    /// keeps trial 2.
    #[test]
    fn a_pinned_patched_root_takes_one_trial() {
        let pinned = scratch_pointer(Reg32::Eax);
        for (bytes, at) in [
            (&[0x04, 0x08, 0x8b, 0x40, 0x04, 0xc3][..], (pinned + 8) + 4),
            // mov al, 0x16; mov ebx, [eax]
            (&[0xb0, 0x16, 0x8b, 0x18, 0xc3], pinned & !0xff | 0x16),
        ] {
            let (p, settled, second) = settles(bytes);
            assert_eq!(
                p.accesses[0].at(&probe_registers(&p)),
                Some(at),
                "{}",
                p.cand.disasm()
            );
            assert!(settled && second == 0, "{}", p.cand.disasm());
        }
        // add al, 8; pop ecx, claimed as a `Nop` that keeps eax.
        let nop = claim(&[0x04, 0x08, 0x59, 0xc3], &|p| {
            p.effects = vec![Effect::Nop];
            p.clobbers.clear();
        });
        assert_eq!(nop, (true, false));
    }

    /// A memory operand the classifier does not resolve keeps trial 2.
    #[test]
    fn an_unresolved_access_takes_two_trials() {
        // mul dword [TEXT_BASE]; pop ebx
        let mut bytes = vec![0xf7, 0x25];
        bytes.extend_from_slice(&parallax_image::TEXT_BASE.to_le_bytes());
        bytes.extend_from_slice(&[0x5b, 0xc3]);
        let (p, settled, second) = settles(&bytes);
        assert!(p.unresolved_access, "{}", p.cand.disasm());
        assert!(!settled && second == 1);
    }

    /// An `int 0x80` whose number comes from a chain slot keeps trial 2
    /// (here trial 1 passes a random canary, an undefined number, so the
    /// probe faults and no second trial is left to run).
    #[test]
    fn a_syscall_of_unknown_number_takes_two_trials() {
        // pop eax; int 0x80
        let (p, settled, second) = settles(&[0x58, 0xcd, 0x80, 0xc3]);
        assert_eq!(p.syscall_eax, SyscallEax::Unknown);
        assert!(!settled && second == 0);
    }

    /// Full-width moves, ALU operations, pops and stores through a
    /// pinned scratch pointer are settled by trial 1: one run.
    #[test]
    fn full_width_gadgets_on_pinned_addresses_take_one_trial() {
        for bytes in [
            &[0x58, 0xc3][..],                           // pop eax
            &[0x01, 0xd8, 0xc3],                         // add eax, ebx
            &[0x89, 0x03, 0x83, 0xc4, 0x04, 0xc3],       // mov [ebx], eax; add esp, 4
            &[0x8b, 0x41, 0x08, 0xc1, 0xe0, 0x03, 0xc3], // mov eax, [ecx+8]; shl eax, 3
            &[0xf7, 0xe3, 0xf8, 0x5d, 0xc3],             // mul ebx; clc; pop ebp
            &[0x83, 0xc0, 0x1d, 0xcd, 0x80, 0xc3],       // add eax, 29; int 0x80 (42)
        ] {
            let (p, settled, _) = settles(bytes);
            assert!(settled, "{}", p.cand.disasm());
        }
    }

    /// A flag reader, an 8-bit lane, a shift by `cl`, an unlisted
    /// mnemonic or a scaled index whose result no check reads is settled
    /// by trial 1: it writes a clobber, or a scratch word no claim reads.
    #[test]
    fn a_narrowed_value_no_check_reads_takes_one_trial() {
        for bytes in [
            &[0x00, 0x00, 0x5f, 0xc3][..], // add byte [eax], al; pop edi
            &[0x00, 0xd3, 0xf8, 0xc3],     // add bl, dl; clc
            // or byte [eax-0x48], dl; imul eax, ecx
            &[0x08, 0x50, 0xb8, 0x0f, 0xaf, 0xc1, 0xc3],
            &[0xd0, 0xc3, 0x89, 0xc3, 0xc3], // rol bl, 1; mov ebx, eax
            &[0x08, 0x0b, 0x58, 0xc3],       // or [ebx], cl; pop eax
            &[0x80, 0x03, 0x01, 0x58, 0xc3], // add byte [ebx], 1; pop eax
            &[0x0f, 0x94, 0xc1, 0x58, 0xc3], // sete cl; pop eax
            &[0x19, 0xca, 0x58, 0xc3],       // sbb edx, ecx; pop eax
            &[0x0f, 0x42, 0xca, 0x58, 0xc3], // cmovb ecx, edx; pop eax
            &[0xf5, 0x58, 0xc3],             // cmc; pop eax
            &[0x99, 0x58, 0xc3],             // cdq; pop eax
            &[0xd3, 0x23, 0x58, 0xc3],       // shl dword [ebx], cl; pop eax
            &[0x8d, 0x0c, 0x93, 0x58, 0xc3], // lea ecx, [ebx+edx*4]; pop eax
            &[0x0f, 0x94, 0xc1, 0x89, 0xd1, 0xc3], // sete cl; mov ecx, edx
        ] {
            let (p, settled, _) = settles(bytes);
            assert!(settled, "{}", p.cand.disasm());
        }
    }

    /// Whether [`one_trial_settles`] holds for every effect of the
    /// proposal for the whole of `main` when `main` is `bytes`, before
    /// and after `edit` changes the proposal as a classifier that
    /// overlooked an instruction would.
    fn claim(bytes: &[u8], edit: &dyn Fn(&mut Proposal)) -> (bool, bool) {
        let img = image_of(bytes);
        let cand = scan(&img.text, img.text_base)
            .into_iter()
            .find(|c| c.vaddr == img.entry && c.len as usize == bytes.len())
            .expect("main is one candidate");
        let mut p = classify(&cand).expect("classified");
        let before = one_trial_settles(&p, u64::MAX, &probe_registers(&p), false);
        edit(&mut p);
        (
            before,
            one_trial_settles(&p, u64::MAX, &probe_registers(&p), false),
        )
    }

    /// `op [ebx+disp32]` followed by `tail`, with the displacement
    /// putting the access, through ebx's scratch pointer, `offset` bytes
    /// above the probe's first slot (-4: the word a push writes). The
    /// classifier takes it for a scratch word.
    fn on_chain_word(op: &[u8], offset: i32, tail: &[u8]) -> Vec<u8> {
        let at = PROBE_ESP.wrapping_add(offset as u32);
        let mut bytes = op.to_vec();
        bytes.extend_from_slice(&at.wrapping_sub(scratch_pointer(Reg32::Ebx)).to_le_bytes());
        bytes.extend_from_slice(tail);
        bytes
    }

    /// A flag reader keeps trial 2 when its result reaches a claim:
    /// `adc` adds the carry into the chain word `pop eax` loads.
    #[test]
    fn a_flag_reader_takes_two_trials() {
        let (p, settled, _) = settles(&on_chain_word(&[0x83, 0x93], 0, &[0x00, 0x58, 0xc3]));
        assert!(p.effects.contains(&Effect::LoadConst {
            dst: Reg32::Eax,
            slot: 0
        }));
        assert!(!settled, "{}", p.cand.disasm());
    }

    /// A shift by `cl` (a 5-bit count) keeps trial 2 when its result
    /// reaches a claim the shift itself does not decide: a `ShiftCl`
    /// whose ecx an 8-bit write marked first (`mov ch, 5` leaves cl as
    /// it was, but the walk does not look at lanes), `ShiftCl` claims a
    /// classifier that overlooked a write of ecx before the shift or of
    /// the shifted register after it, or took `shr` for `shl`, would
    /// make, and a shifted chain word.
    #[test]
    fn a_shift_by_cl_takes_two_trials() {
        // mov ch, 5; shl eax, cl
        let (p, settled, second) = settles(&[0xb5, 0x05, 0xd3, 0xe0, 0xc3]);
        assert!(p.effects.contains(&Effect::ShiftCl {
            op: ShiftOp::Shl,
            dst: Reg32::Eax
        }));
        assert!(!settled && second == 1);
        let shl_eax = |p: &mut Proposal| {
            p.effects = vec![Effect::ShiftCl {
                op: ShiftOp::Shl,
                dst: Reg32::Eax,
            }];
        };
        for bytes in [
            &[0xb1, 0x03, 0xd3, 0xe0, 0xc3][..], // mov cl, 3; shl eax, cl
            &[0xd3, 0xe0, 0x04, 0x01, 0xc3],     // shl eax, cl; add al, 1
            &[0xd3, 0xe8, 0xc3],                 // shr eax, cl
        ] {
            let (_, after) = claim(bytes, &shl_eax);
            assert!(!after, "{bytes:x?}");
        }
        // shl dword [ebx+disp], cl; pop eax
        let (p, settled, _) = settles(&on_chain_word(&[0xd3, 0xa3], 0, &[0x58, 0xc3]));
        assert!(!settled, "{}", p.cand.disasm());
    }

    /// A `ShiftCl` whose own `shl`/`shr`/`sar r, cl` ran on unmarked `r`
    /// and ecx, with no write of `r` after it, is exactly what its check
    /// computes for every count: `shl eax, cl; ret`, seen in every
    /// protect-large image, takes one run.
    #[test]
    fn a_shift_by_cl_on_unmarked_inputs_takes_one_trial() {
        for (bytes, op, dst) in [
            (&[0xd3, 0xe0, 0xc3][..], ShiftOp::Shl, Reg32::Eax),
            (&[0xd3, 0xfa, 0x58, 0xc3], ShiftOp::Sar, Reg32::Edx), // sar edx, cl; pop eax
            (&[0xd3, 0xeb, 0x59, 0xc3], ShiftOp::Shr, Reg32::Ebx), // shr ebx, cl; pop ecx
        ] {
            let (p, settled, second) = settles(bytes);
            assert!(
                p.effects.contains(&Effect::ShiftCl { op, dst }),
                "{:?}",
                p.effects
            );
            assert!(settled && second == 0, "{}", p.cand.disasm());
        }
    }

    /// An 8-bit immediate that writes its lane back unchanged marks
    /// nothing, and the identity `MovLow8 { al ← al }` it leaves is
    /// checked on the whole of eax: `add al, 0x0; pop esi; ret`, seen in
    /// every protect-large image, takes one run. The identity keeps
    /// trial 2 when its lane went through another register, and claims a
    /// classifier that overlooked an instruction would make keep it too:
    /// an identity after `add al, 1`, a move of another lane after
    /// `add al, 0`.
    #[test]
    fn an_identity_lane_write_takes_one_trial() {
        let (p, settled, second) = settles(&[0x04, 0x00, 0x5e, 0xc3]);
        let identity = Effect::MovLow8 {
            dst: Reg8::Al,
            src: Reg8::Al,
        };
        assert!(p.effects.contains(&identity), "{:?}", p.effects);
        assert!(settled && second == 0);
        for bytes in [
            &[0x80, 0xe1, 0xff, 0x5e, 0xc3][..], // and cl, 0xff; pop esi
            &[0x80, 0xf3, 0x00, 0x5e, 0xc3],     // xor bl, 0; pop esi
            &[0x80, 0xea, 0x00, 0x5e, 0xc3],     // sub dl, 0; pop esi
        ] {
            let (p, settled, second) = settles(bytes);
            assert!(settled && second == 0, "{}", p.cand.disasm());
        }
        // mov cl, al; mov al, cl; pop esi
        let (p, settled, second) = settles(&[0x88, 0xc1, 0x88, 0xc8, 0x5e, 0xc3]);
        assert!(p.effects.contains(&identity), "{:?}", p.effects);
        assert!(!settled && second == 1);
        let moved = |src| {
            move |p: &mut Proposal| {
                p.effects = vec![Effect::MovLow8 { dst: Reg8::Al, src }];
            }
        };
        assert_eq!(
            claim(&[0x04, 0x01, 0x5e, 0xc3], &moved(Reg8::Al)),
            (true, false)
        );
        assert_eq!(
            claim(&[0x04, 0x00, 0x5e, 0xc3], &moved(Reg8::Cl)),
            (true, false)
        );
    }

    /// Byte accesses off a word boundary at constant addresses settle
    /// when their bytes stay clear of every claimed word: `or byte
    /// [eax-0x75], dl; inc ebp; or byte [eax-0x48], dl; ret`, seen in
    /// every protect-large image, takes one run, and so does a byte
    /// written beside a claimed word through another root. A byte written
    /// into the claimed word through another root (edx's scratch pointer
    /// lies 0x1000 below ebx's), or beside a chain slot the return or a
    /// `pop` reads, keeps trial 2.
    #[test]
    fn bytes_off_a_word_boundary_clear_of_every_claim_take_one_trial() {
        assert_eq!(
            scratch_pointer(Reg32::Edx) + 0x1000,
            scratch_pointer(Reg32::Ebx)
        );
        for bytes in [
            &[0x08, 0x50, 0x8b, 0x45, 0x08, 0x50, 0xb8, 0xc3][..],
            // mov [ebx], eax; or byte [edx+0x1004], cl
            &[0x89, 0x03, 0x08, 0x8a, 0x04, 0x10, 0x00, 0x00, 0xc3],
            // mov ecx, [ebx+2]; mov [ebx+5], al; pop eax
            &[0x8b, 0x4b, 0x02, 0x88, 0x43, 0x05, 0x58, 0xc3],
        ] {
            let (p, settled, second) = settles(bytes);
            assert!(settled && second == 0, "{}", p.cand.disasm());
        }
        // mov [ebx], eax; or byte [edx+0x1002], cl
        let (p, settled, _) = settles(&[0x89, 0x03, 0x08, 0x8a, 0x02, 0x10, 0x00, 0x00, 0xc3]);
        assert!(p.effects.contains(&Effect::StoreMem {
            addr: Reg32::Ebx,
            off: 0,
            src: Reg32::Eax,
        }));
        assert!(!settled, "{}", p.cand.disasm());
        // mov byte [ebx+disp], al; pop eax: the byte below slot 0, and
        // or byte [ebx+disp], cl; pop eax: slot 0's top byte.
        for (op, offset) in [(&[0x88, 0x83][..], -1), (&[0x08, 0x8b], 3)] {
            let (p, settled, _) = settles(&on_chain_word(op, offset, &[0x58, 0xc3]));
            assert!(!settled, "{}", p.cand.disasm());
        }
    }

    /// A memory claim settles beside an instruction off the list that
    /// writes no byte of its word: `rol bl, 0x1; mov eax, [ecx]; ret`,
    /// seen in every protect-large image, takes one run, and so does a
    /// store beside a flag reader. A second write of the claimed word,
    /// even an unmarked one through another root, keeps trial 2 (see
    /// [`a_second_memory_write_takes_two_trials`]).
    #[test]
    fn a_memory_claim_beside_an_unlisted_instruction_takes_one_trial() {
        for (bytes, claim) in [
            (
                &[0xd0, 0xc3, 0x8b, 0x01, 0xc3][..],
                Effect::LoadMem {
                    dst: Reg32::Eax,
                    addr: Reg32::Ecx,
                    off: 0,
                },
            ),
            (
                &[0x89, 0x03, 0x0f, 0x94, 0xc1, 0xc3], // mov [ebx], eax; sete cl
                Effect::StoreMem {
                    addr: Reg32::Ebx,
                    off: 0,
                    src: Reg32::Eax,
                },
            ),
        ] {
            let (p, settled, second) = settles(bytes);
            assert!(p.effects.contains(&claim), "{:?}", p.effects);
            assert!(settled && second == 0, "{}", p.cand.disasm());
        }
    }

    /// A read whose bytes no earlier write reached sees the word the
    /// classifier names: the loader's pivot `mov [eax], esp; mov eax,
    /// [esp+0x24]; mov esp, eax; ret`, in every protected image, takes
    /// one run. A read of the word a write through another root reached
    /// keeps trial 2 (and [`a_read_after_a_write_takes_two_trials`]).
    #[test]
    fn a_read_clear_of_every_write_takes_one_trial() {
        let (p, settled, second) = settles(&[0x89, 0x20, 0x8b, 0x44, 0x24, 0x24, 0x89, 0xc4, 0xc3]);
        assert_eq!(p.effects, vec![Effect::PopEsp]);
        assert!(settled && second == 0);
        // mov [edx+0x1000], ecx; mov eax, [ebx]
        let (p, settled, _) = settles(&[0x89, 0x8a, 0x00, 0x10, 0x00, 0x00, 0x8b, 0x03, 0xc3]);
        assert!(p.effects.contains(&Effect::LoadMem {
            dst: Reg32::Eax,
            addr: Reg32::Ebx,
            off: 0,
        }));
        assert!(!settled, "{}", p.cand.disasm());
    }

    /// An 8-bit operand (one random byte) keeps trial 2 when it reaches
    /// a claim: a live `MovLow8` effect, or a byte written into the chain
    /// words, where the classifier does not see it.
    #[test]
    fn an_eight_bit_operand_takes_two_trials() {
        let (p, settled, second) = settles(&[0x88, 0xd8, 0xc3]); // mov al, bl
        assert!(!settled && second == 1);
        assert!(p
            .effects
            .iter()
            .any(|e| matches!(e, Effect::MovLow8 { .. })));
        // or byte [ebx+disp], cl; pop eax
        let (p, settled, _) = settles(&on_chain_word(&[0x08, 0x8b], 0, &[0x58, 0xc3]));
        assert!(p.effects.contains(&Effect::LoadConst {
            dst: Reg32::Eax,
            slot: 0
        }));
        assert!(!settled, "{}", p.cand.disasm());
    }

    /// A narrowed value pushed and then popped into a claimed register
    /// keeps trial 2: `push ecx; or byte [ebx+disp], al; pop eax` is
    /// claimed as eax = ecx, and al's bits land in the pushed word.
    #[test]
    fn a_pushed_and_popped_narrowed_value_takes_two_trials() {
        let (p, settled, _) = settles(&on_chain_word(&[0x51, 0x08, 0x83], -4, &[0x58, 0xc3]));
        assert!(p.effects.contains(&Effect::MovReg {
            dst: Reg32::Eax,
            src: Reg32::Ecx
        }));
        assert!(!settled, "{}", p.cand.disasm());
    }

    /// A scaled index builds a value from two draws; it keeps trial 2
    /// when that value reaches a claim, here through a chain word.
    #[test]
    fn a_scaled_index_takes_two_trials() {
        // lea ecx, [edx+ecx*2]; mov [ebx+disp], ecx; pop eax
        let (p, settled, _) = settles(&on_chain_word(
            &[0x8d, 0x0c, 0x4a, 0x89, 0x8b],
            0,
            &[0x58, 0xc3],
        ));
        assert!(!settled, "{}", p.cand.disasm());
    }

    /// A mnemonic outside the list keeps trial 2 when its result reaches
    /// a claim: `cdq`'s edx added into a chain word. `div` never reaches
    /// the probe: the classifier rejects it.
    #[test]
    fn an_unlisted_mnemonic_takes_two_trials() {
        // cdq; add [ebx+disp], edx; pop eax
        let (p, settled, _) = settles(&on_chain_word(&[0x99, 0x01, 0x93], 0, &[0x58, 0xc3]));
        assert!(!settled, "{}", p.cand.disasm());
        let img = image_of(&[0xf7, 0xf3, 0x58, 0xc3]); // div ebx; pop eax
        let div = scan(&img.text, img.text_base)
            .into_iter()
            .find(|c| c.vaddr == img.entry)
            .expect("main is a candidate");
        assert!(classify(&div).is_none(), "{}", div.disasm());
    }

    /// The walk does not take its write sets from the classifier: a
    /// claim a classifier that overlooked an instruction would make
    /// still keeps trial 2 when a narrowed value reaches it.
    #[test]
    fn a_claim_on_a_narrowed_location_takes_two_trials() {
        // sete cl; push ecx; pop eax: claimed as eax = ecx.
        let pushed = claim(&[0x0f, 0x94, 0xc1, 0x51, 0x58, 0xc3], &|p| {
            p.effects = vec![Effect::MovReg {
                dst: Reg32::Eax,
                src: Reg32::Ecx,
            }];
        });
        assert!(!pushed.1);
        // sete bl; mov eax, [ebx]; pop ecx: the root taken as exact.
        let root = claim(&[0x0f, 0x94, 0xc3, 0x8b, 0x03, 0x59, 0xc3], &|p| {
            p.accesses[0].loc = MemLoc::Reg(Reg32::Ebx, 0, true);
        });
        assert!(!root.1);
        // add bl, dl; clc: a Nop that keeps ebx.
        let nop = claim(&[0x00, 0xd3, 0xf8, 0xc3], &|p| p.clobbers.clear());
        assert_eq!(nop, (true, false));
        // sete al; mov [ecx], eax: a store of the narrowed eax.
        let store = claim(&[0x0f, 0x94, 0xc0, 0x89, 0x01, 0xc3], &|p| {
            p.effects = vec![Effect::StoreMem {
                addr: Reg32::Ecx,
                off: 0,
                src: Reg32::Eax,
            }];
        });
        assert_eq!(store, (true, false));
    }

    /// A write through a register root followed by a read of the same
    /// word keeps trial 2: the classifier claims the word the read sees
    /// is the one before the write, and `or` changes one bit of it.
    #[test]
    fn a_read_after_a_write_takes_two_trials() {
        // or dword [edx], 0x100; mov eax, [edx]
        let (p, settled, _) = settles(&[0x81, 0x0a, 0x00, 0x01, 0x00, 0x00, 0x8b, 0x02, 0xc3]);
        assert_eq!(
            p.effects,
            vec![Effect::LoadMem {
                dst: Reg32::Eax,
                addr: Reg32::Edx,
                off: 0
            }]
        );
        assert!(!settled);
    }

    /// A `write` syscall keeps trial 2: whether it faults depends on the
    /// length it is passed, which a listed operation can narrow to one
    /// random bit (0 or 2³¹ bytes from ecx's scratch pointer).
    #[test]
    fn a_write_syscall_takes_two_trials() {
        // shl edx, 31; cmp [ecx], eax; sub eax, 9; int 0x80
        let (p, settled, _) = settles(&[
            0xc1, 0xe2, 0x1f, 0x39, 0x01, 0x83, 0xe8, 0x09, 0xcd, 0x80, 0xc3,
        ]);
        assert_eq!(p.syscall_eax, SyscallEax::Fixed(SYS_WRITE));
        assert!(!settled);
    }

    /// Skipping the scratch draws lands on the state the draws reach.
    #[test]
    fn skipping_the_scratch_draws_matches_drawing_them() {
        for start in [1u64, 0x9e37_79b9_7f4a_7c15, u64::MAX, probe_seed(7, 1)] {
            let (mut drawn, mut skipped) = (start, start);
            for _ in 0..SCRATCH_DRAWS {
                prng(&mut drawn);
            }
            skip_scratch_draws(&mut skipped);
            assert_eq!(skipped, drawn, "{start:#x}");
            let (mut drawn, mut skipped) = (start, start);
            for _ in 0..SCRATCH_WORDS {
                prng(&mut drawn);
            }
            skip_window_draws(&mut skipped);
            assert_eq!(skipped, drawn, "{start:#x}");
        }
    }

    /// A probe fills the windows of its scratch registers when every
    /// access lands in its own register's window, and all eight when
    /// one may land in another's; it writes 256 words per window.
    #[test]
    fn a_probe_fills_the_windows_its_accesses_reach() {
        let fill = |bytes: &[u8]| {
            let img = image_of(bytes);
            let cand = scan(&img.text, img.text_base)
                .into_iter()
                .find(|c| c.vaddr == img.entry && c.len as usize == bytes.len())
                .expect("main is one candidate");
            let p = classify(&cand).expect("classified");
            let mut probe = ProbeVm::new(&img);
            probe.validate(&p);
            let stats = probe.stats();
            let fill = windows_to_fill(&p, &probe_registers(&p));
            let words = u64::from(fill.count_ones()) * SCRATCH_WORDS as u64;
            assert_eq!(
                stats.reseed_words,
                stats.runs * words,
                "{}",
                p.cand.disasm()
            );
            fill
        };
        let (ecx, edx) = (bit(Reg32::Ecx), bit(Reg32::Edx));
        assert_eq!(fill(&[0x58, 0xc3]), 0); // pop eax
        assert_eq!(fill(&[0x8b, 0x41, 0x08, 0xc3]), ecx); // mov eax, [ecx+8]
                                                          // mov eax, [ecx+8]; add [edx-0x1fc], eax
        assert_eq!(
            fill(&[0x8b, 0x41, 0x08, 0x01, 0x82, 0x04, 0xfe, 0xff, 0xff, 0xc3]),
            ecx | edx
        );
        // mov eax, [ecx+0x1000]: edx's window
        assert_eq!(fill(&[0x8b, 0x81, 0x00, 0x10, 0x00, 0x00, 0xc3]), u8::MAX);
        // mul dword [ecx], in ecx's window
        assert_eq!(fill(&[0xf7, 0x21, 0x8b, 0x41, 0x08, 0xc3]), ecx);
        // mul dword [0x40000000]: not resolved
        assert_eq!(
            fill(&[0xf7, 0x25, 0, 0, 0, 0x40, 0x8b, 0x41, 0x08, 0xc3]),
            u8::MAX
        );
        // mov ah, 0x16; add [eax], al: a patched root
        assert_eq!(fill(&[0xb4, 0x16, 0x00, 0x00, 0xc3]), u8::MAX);
    }

    /// A tag equal to the seed constants would cancel them to 0, the
    /// xorshift fixed point; the derived state stays live instead.
    #[test]
    fn a_cancelling_tag_still_seeds_a_live_prng() {
        let mut stuck = 0u64;
        assert_eq!((prng(&mut stuck), stuck), (0, 0));
        for trial in 0..2u64 {
            let cancelling = 0x9e37_79b9_7f4a_7c15u64 ^ (trial * 0x1234_5677 + 1);
            let mut seed = probe_seed(cancelling, trial);
            assert_ne!(seed, 0, "trial {trial}");
            let draws: Vec<u32> = (0..4).map(|_| prng(&mut seed)).collect();
            assert!(draws.iter().any(|&d| d != 0), "trial {trial}: {draws:?}");
        }
    }
}
