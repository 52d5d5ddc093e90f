//! The instruction execution engine.

#[cfg(feature = "oracle")]
use std::collections::HashMap;
use std::rc::Rc;

use parallax_image::{LinkedImage, VerifiedImage};
#[cfg(feature = "oracle")]
use parallax_x86::decode;
use parallax_x86::insn::{AluOp, Insn, Mem, Mnemonic, OpSize, Operand, ShiftOp};
use parallax_x86::{Reg, Reg32, Reg8};

use crate::block::{
    build_block, Block, BlockCache, BlockKind, BlockStats, FastOp, FusedGadget, MAX_BLOCK_INSNS,
};
use crate::chaintrace::ChainTracer;
use crate::cost::{CostModel, ReturnStackBuffer};
use crate::cpu::{parity, Cpu, Flags};
use crate::error::{Exit, Fault, FaultKind};
use crate::mem::Memory;
use crate::profile::Profiler;
use crate::syscall::{self, SyscallState};

/// Return address sentinel used by [`Vm::call_function`]. Lies outside
/// every mapped region, so a stray jump to it faults instead of
/// silently succeeding.
pub const CALL_SENTINEL: u32 = 0xffff_fff0;

/// Construction options for a [`Vm`].
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Cycle budget before [`Exit::CycleLimit`] (default 2 × 10⁹).
    pub cycle_limit: u64,
    /// Bytes of syscall output before [`Exit::MemLimit`] (default
    /// 64 MiB). Syscall output and an installed [`ChainTracer`]'s log
    /// (8 bytes a gadget dispatch, bounded only by the cycle limit) are
    /// the only allocations in the VM that grow with a run; this caps
    /// the first, so a runaway writer cannot grow memory without bound.
    pub output_limit: usize,
    /// Collect a per-function flat profile.
    pub profile: bool,
    /// The cycle-cost model.
    pub cost: CostModel,
    /// Seed for the deterministic `random` syscall.
    pub seed: u64,
}

impl Default for VmOptions {
    fn default() -> VmOptions {
        VmOptions {
            cycle_limit: 2_000_000_000,
            output_limit: 64 << 20,
            profile: false,
            cost: CostModel::default(),
            seed: 0x5eed_0001,
        }
    }
}

/// A single-process x86-32 virtual machine.
pub struct Vm {
    /// CPU state.
    pub cpu: Cpu,
    mem: Memory,
    cost: CostModel,
    cycles: u64,
    cycle_limit: u64,
    output_limit: usize,
    rsb: ReturnStackBuffer,
    sys: SyscallState,
    profiler: Option<Profiler>,
    chain_tracer: Option<ChainTracer>,
    blocks: BlockCache,
    /// Decoded-instruction cache for the legacy per-instruction
    /// reference path ([`Vm::step_reference`] / [`Vm::run_reference`]),
    /// built only with the `oracle` feature. Unused by the
    /// block-translation path.
    #[cfg(feature = "oracle")]
    ref_decode_cache: HashMap<u32, Rc<Insn>>,
    /// Retired instruction count.
    pub instructions: u64,
    /// Image entry point, kept so [`Vm::reset_to`] can rewind `eip`.
    entry: u32,
    /// Syscall RNG seed, kept so [`Vm::reset_to`] can rewind the
    /// deterministic syscall state.
    seed: u64,
}

impl Vm {
    /// Creates a VM with default options, loading `image`.
    ///
    /// This constructor trusts its input; loaders that receive images
    /// over an untrusted channel must go through
    /// [`Vm::from_verified`] so no CPU is ever built over an
    /// unchecked image (fail-closed loading, DESIGN.md §12).
    pub fn new(image: &LinkedImage) -> Vm {
        Vm::with_options(image, VmOptions::default())
    }

    /// Creates a VM over an image that passed fail-closed
    /// verification — the production load path. The only way to reach
    /// execution without the checks is the loudly named
    /// [`VerifiedImage::dangerous_skip_verify`] escape hatch.
    pub fn from_verified(image: &VerifiedImage) -> Vm {
        Vm::new(image)
    }

    /// [`Vm::from_verified`] with explicit options.
    pub fn from_verified_with_options(image: &VerifiedImage, opts: VmOptions) -> Vm {
        Vm::with_options(image, opts)
    }

    /// Creates a VM with explicit options.
    pub fn with_options(image: &LinkedImage, opts: VmOptions) -> Vm {
        let mem = Memory::new(
            image.text.clone(),
            image.text_base,
            &image.data,
            image.data_base,
            image.bss_size,
        );
        let mut cpu = Cpu::default();
        cpu.set_esp(mem.initial_esp());
        cpu.eip = image.entry;
        let profiler = if opts.profile {
            Some(Profiler::new(
                image.funcs().map(|s| (s.name.clone(), s.vaddr, s.size)),
            ))
        } else {
            None
        };
        Vm {
            cpu,
            mem,
            cost: opts.cost,
            cycles: 0,
            cycle_limit: opts.cycle_limit,
            output_limit: opts.output_limit,
            rsb: ReturnStackBuffer::default(),
            sys: SyscallState::new(opts.seed),
            profiler,
            chain_tracer: None,
            blocks: BlockCache::new(),
            #[cfg(feature = "oracle")]
            ref_decode_cache: HashMap::new(),
            instructions: 0,
            entry: image.entry,
            seed: opts.seed,
        }
    }

    /// Rolls the VM back to its just-constructed state. `pristine`
    /// must be a clone of [`Vm::mem`] taken right after construction;
    /// [`Memory::reset_to`] puts its page back into each page written
    /// since, so memory ends exactly as a fresh VM's at the cost of the
    /// pages written. The predecoded block cache is deliberately kept
    /// hot: text is immutable under W⊕X, and restored text re-dirties.
    pub fn reset_to(&mut self, pristine: &Memory) {
        self.mem.reset_to(pristine);
        self.sync_code_writes();
        self.cpu = Cpu::default();
        self.cpu.set_esp(self.mem.initial_esp());
        self.cpu.eip = self.entry;
        self.cycles = 0;
        self.instructions = 0;
        self.rsb = ReturnStackBuffer::default();
        self.sys = SyscallState::new(self.seed);
    }

    /// Total cycles retired so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Block-translation cache counters (hits, misses, invalidations).
    pub fn block_stats(&self) -> BlockStats {
        self.blocks.stats
    }

    /// The memory subsystem.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to memory (test harnesses and attack drivers).
    /// Any code patch must go through [`Vm::write_code`] /
    /// [`Vm::write_icache`] so the decode cache stays coherent.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The flat profiler, if enabled.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Installs a [`ChainTracer`] that observes `call`/`ret`
    /// retirement for verification-chain telemetry.
    pub fn set_chain_tracer(&mut self, tracer: ChainTracer) {
        self.chain_tracer = Some(tracer);
    }

    /// The installed chain tracer, if any.
    pub fn chain_tracer(&self) -> Option<&ChainTracer> {
        self.chain_tracer.as_ref()
    }

    /// Removes and returns the chain tracer, closing any episode
    /// still open at the current cycle count and trimming its log to
    /// its length.
    pub fn take_chain_tracer(&mut self) -> Option<ChainTracer> {
        let mut ct = self.chain_tracer.take()?;
        ct.finish();
        Some(ct)
    }

    /// Bytes written to stdout via the `write` syscall.
    pub fn output(&self) -> &[u8] {
        &self.sys.output
    }

    /// Drains captured output.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.sys.output)
    }

    /// Provides bytes for the `read` syscall.
    pub fn set_input(&mut self, input: &[u8]) {
        self.sys.input = input.to_vec().into();
    }

    /// Marks a debugger as attached, so the `ptrace(TRACEME)` syscall
    /// fails — the condition the paper's detector checks for.
    pub fn attach_debugger(&mut self) {
        self.sys.debugger_attached = true;
    }

    /// Enables split instruction/data views (Wurster et al. attack).
    pub fn enable_split_cache(&mut self) {
        self.mem.enable_split_cache();
    }

    /// Patches the instruction view only (requires split-cache mode).
    /// Evicts only the predecoded blocks overlapping the written range.
    pub fn write_icache(&mut self, vaddr: u32, bytes: &[u8]) -> Result<(), Fault> {
        self.mem.write_icache(vaddr, bytes)?;
        self.sync_code_writes();
        Ok(())
    }

    /// Patches code in both views (debugger-style dynamic tampering).
    /// Evicts only the predecoded blocks overlapping the written range.
    pub fn write_code(&mut self, vaddr: u32, bytes: &[u8]) -> Result<(), Fault> {
        self.mem.write_code(vaddr, bytes)?;
        self.sync_code_writes();
        Ok(())
    }

    /// Applies pending code-write ranges to the caches: overlapping
    /// predecoded blocks are evicted (range-based), and the legacy
    /// reference decode cache, when built, has no span metadata and is
    /// flushed wholesale, exactly as the pre-block-cache VM did.
    #[inline]
    fn sync_code_writes(&mut self) {
        if self.mem.has_dirty_code() {
            self.evict_written_code();
        }
    }

    #[inline(never)]
    fn evict_written_code(&mut self) {
        #[cfg(feature = "oracle")]
        self.ref_decode_cache.clear();
        for (start, end) in self.mem.take_dirty_code() {
            self.blocks.invalidate_range(start, end);
        }
    }

    /// Runs until exit, fault, or cycle exhaustion.
    pub fn run(&mut self) -> Exit {
        loop {
            if let Some(exit) = self.exec_block() {
                return exit;
            }
        }
    }

    /// Runs until exit via the retained per-instruction reference path
    /// ([`Vm::step_reference`]): no block predecoding, a `HashMap`
    /// probe plus `Rc` clone per instruction. Built only with the
    /// `oracle` feature, as the differential oracle for the
    /// block-translation engine and the baseline leg of the
    /// `vm_dispatch` benchmark.
    #[cfg(feature = "oracle")]
    pub fn run_reference(&mut self) -> Exit {
        loop {
            if self.cycles >= self.cycle_limit {
                return Exit::CycleLimit;
            }
            if self.sys.output.len() > self.output_limit {
                return Exit::MemLimit;
            }
            match self.step_reference() {
                Ok(None) => {}
                Ok(Some(status)) => return Exit::Exited(status),
                Err(f) => return Exit::Fault(f),
            }
        }
    }

    /// Calls the function at `entry` with `args` (cdecl), running until
    /// it returns. Returns `eax`. A clean `exit` syscall or a fault
    /// during the call is reported as `Err`.
    pub fn call_function(&mut self, entry: u32, args: &[u32]) -> Result<u32, Exit> {
        let saved_esp = self.cpu.esp();
        let mut esp = saved_esp;
        for &a in args.iter().rev() {
            esp -= 4;
            self.mem.write32(esp, a).map_err(Exit::Fault)?;
        }
        esp -= 4;
        self.mem.write32(esp, CALL_SENTINEL).map_err(Exit::Fault)?;
        self.cpu.set_esp(esp);
        self.cpu.eip = entry;
        loop {
            if self.cpu.eip == CALL_SENTINEL {
                self.cpu.set_esp(saved_esp);
                return Ok(self.cpu.reg(Reg32::Eax));
            }
            if let Some(exit) = self.exec_block() {
                return Err(exit);
            }
        }
    }

    /// Looks up the block entered at `eip`, or predecodes one of at
    /// most `max_insns` instructions. Entries whose blocks keep getting
    /// invalidated (self-modifying hot spots) are rebuilt one
    /// instruction at a time so repeated patches don't pay a full
    /// predecode per iteration.
    fn block_at(&mut self, eip: u32, max_insns: usize) -> Result<Rc<Block>, Fault> {
        if let Some(b) = self.blocks.lookup(eip) {
            return Ok(b);
        }
        self.build_at(eip, max_insns)
    }

    /// Predecodes and caches the block entered at `eip` (a cache miss).
    #[inline(never)]
    fn build_at(&mut self, eip: u32, max_insns: usize) -> Result<Rc<Block>, Fault> {
        let cap = if self.blocks.thrashing(eip) {
            1
        } else {
            max_insns
        };
        let b = Rc::new(build_block(
            &self.mem,
            eip,
            cap,
            &self.cost,
            self.profiler.as_ref(),
        )?);
        self.blocks.insert(Rc::clone(&b));
        Ok(b)
    }

    /// Executes the block at the current `eip`. Returns `Some(exit)`
    /// when the run is over, `None` to continue with the next block.
    ///
    /// Limit semantics match the stepping loop exactly: the cycle
    /// budget is checked before *every* instruction, but a block whose
    /// cycle bound fits under the budget at entry cannot reach it. The
    /// output budget only moves at a syscall, and syscalls terminate
    /// blocks, so the block-entry check covers it.
    ///
    /// A generic block takes the lean path ([`Vm::exec_lean`]) when
    /// [`Vm::lean_slot`] allows it. Any other takes the per-instruction
    /// checked path ([`Vm::exec_checked`]).
    fn exec_block(&mut self) -> Option<Exit> {
        if self.cycles >= self.cycle_limit {
            return Some(Exit::CycleLimit);
        }
        if self.sys.output.len() > self.output_limit {
            return Some(Exit::MemLimit);
        }
        self.sync_code_writes();
        let eip = self.cpu.eip;
        let block = match self.blocks.peek(eip) {
            Some(b) => {
                let b = match b.kind {
                    // Fused `op; ret` gadgets — the ROP dispatch shape —
                    // execute from a copy of the slot's header: no `Rc`
                    // clone, no op vector.
                    BlockKind::Fused(f) => {
                        self.blocks.hit();
                        return self.exec_fused(f);
                    }
                    BlockKind::Generic => Rc::clone(b),
                };
                self.blocks.hit();
                b
            }
            None => match self.build_at(eip, MAX_BLOCK_INSNS) {
                Ok(b) => b,
                Err(f) => return Some(Exit::Fault(f)),
            },
        };
        match self.lean_slot(&block) {
            Some(slot) => self.exec_lean(block, slot),
            None => {
                self.blocks.stats.checked += 1;
                self.exec_checked(&block)
            }
        }
    }

    /// The profile slot `block` is charged to when it may take the lean
    /// path: it lies inside one function, its cycle bound fits under the
    /// limit, and W⊕X holds, so no op can dirty code. `None` sends it
    /// to the checked path.
    #[inline]
    fn lean_slot(&self, block: &Block) -> Option<u32> {
        block.func.filter(|_| {
            self.mem.w_xor_x && self.cycles.saturating_add(block.max_cost) < self.cycle_limit
        })
    }

    /// Runs `block`, and the generic blocks that follow it while each
    /// may take the lean path too, each at its precomputed cost (see
    /// [`Vm::lean_block`]). Returns `None` at the first block it does
    /// not take, which [`Vm::exec_block`] then runs: a fused gadget, a
    /// block that is not cached yet or must take the checked path, or
    /// any address (`CALL_SENTINEL`, say) with no block. Between blocks
    /// it makes `exec_block`'s entry checks: the output budget, pending
    /// code writes, and, through [`Vm::lean_slot`], the cycle budget.
    /// Each block it takes counts one cache hit, as `exec_block` would.
    ///
    /// Kept out of line, like [`Vm::exec_checked`], so neither loop
    /// competes for registers with the fused path in `exec_block`.
    #[inline(never)]
    fn exec_lean(&mut self, mut block: Rc<Block>, mut slot: u32) -> Option<Exit> {
        loop {
            if let Some(exit) = self.lean_block(&block, slot) {
                return Some(exit);
            }
            if self.sys.output.len() > self.output_limit || self.mem.has_dirty_code() {
                return None;
            }
            let next = self.blocks.peek(self.cpu.eip)?;
            if !matches!(next.kind, BlockKind::Generic) {
                return None;
            }
            slot = self.lean_slot(next)?;
            block = Rc::clone(next);
            self.blocks.hit();
        }
    }

    /// Runs one block at its precomputed cost: the block lies inside
    /// one function (profile `slot`), cannot reach the cycle limit, and
    /// runs under W⊕X. So no op needs a cycle add, a limit check, a
    /// dirty-code check or a profile entry of its own: the body's fixed
    /// cost ([`Block::body_cost`]) is added once, and only `Slow` ops,
    /// whose cost `exec_insn` decides, and the terminator add theirs.
    /// Every hook and `exec_insn` call is still handed the exact cycle
    /// count of its instruction: the entry count plus the op's fixed
    /// prefix ([`crate::block::Op::at`]) plus the cost of the `Slow`
    /// ops before it. A fault inside the body stops with the same
    /// count, so exits are as exact as on the checked path.
    #[inline(always)]
    fn lean_block(&mut self, block: &Block, slot: u32) -> Option<Exit> {
        let start = self.cycles;
        let (body, term) = match block.ops.split_last() {
            Some((last, body)) if block.transfers => (body, Some(last)),
            _ => (block.ops.as_slice(), None),
        };
        // The entry count plus the cost of the `Slow` ops run so far.
        let mut base = start;
        // The loop carries only the op cursor: an op's index and cycle
        // count are derived when a `Slow` op or an exit needs them.
        let mut ops = body.iter();
        let stop = loop {
            let Some(op) = ops.next() else {
                break None;
            };
            let fault = if let FastOp::Slow = op.fast {
                let idx = body.len() - ops.len() - 1;
                let now = base + u64::from(op.at);
                match self.exec_insn(&block.insns[idx], op.eip, op.next, now) {
                    Ok((cost, None)) => {
                        base += cost;
                        continue;
                    }
                    Ok((cost, Some(status))) => {
                        break Some((idx + 1, now + cost, Exit::Exited(status)));
                    }
                    Err(f) => f,
                }
            } else {
                match self.exec_data(op.fast) {
                    Ok(_) => continue,
                    Err(f) => f,
                }
            };
            self.cpu.eip = op.next;
            let retired = body.len() - ops.len();
            break Some((retired, base + u64::from(op.at), Exit::Fault(fault)));
        };
        let (retired, cycles, exit) = match stop {
            Some((retired, cycles, exit)) => (retired, cycles, Some(exit)),
            None => {
                let now = base + block.body_cost;
                match term {
                    None => {
                        self.cpu.eip = block.end;
                        (body.len(), now, None)
                    }
                    Some(op) => match self.exec_jump(op.fast, op.next) {
                        Some(cost) => (block.ops.len(), now + cost, None),
                        None => {
                            let (cost, exit) = self.exec_terminator(block, now);
                            (block.ops.len(), now + cost, exit)
                        }
                    },
                }
            }
        };
        self.instructions += retired as u64;
        self.cycles = cycles;
        self.charge(slot, cycles - start);
        exit
    }

    /// Runs the last op of `block`, a control transfer, at cycle count
    /// `cycles`, for [`Vm::lean_block`]: returns the cycles it retired
    /// and its exit, if any. Out of line, so the body loop keeps its
    /// registers.
    #[inline(never)]
    fn exec_terminator(&mut self, block: &Block, cycles: u64) -> (u64, Option<Exit>) {
        let idx = block.ops.len() - 1;
        match self.exec_op(block, idx, cycles) {
            Ok((cost, status)) => (cost, status.map(Exit::Exited)),
            Err(f) => {
                self.cpu.eip = block.ops[idx].next;
                (0, Some(Exit::Fault(f)))
            }
        }
    }

    /// Runs a block instruction by instruction, for the blocks the lean
    /// path cannot take. The cycle count stays in a local and the
    /// instruction count is the number of ops retired; both are written
    /// back once, when the block ends or stops early, and every hook an
    /// op calls is handed the exact cycle count of its instruction. So
    /// is `eip`: only control transfers and slow ops set it, and an
    /// early stop sets it to where the reference path would have left
    /// it. A block inside one function adds one profile entry for all
    /// its cycles; a block straddling two adds one per op, to the slot
    /// resolved at build time.
    ///
    /// The cycle limit is checked before every instruction. The
    /// dirty-code check follows only the ops that can write memory:
    /// nothing else can dirty code once `sync_code_writes` drained at
    /// block entry.
    #[inline(never)]
    fn exec_checked(&mut self, block: &Block) -> Option<Exit> {
        let start = self.cycles;
        let mut cycles = start;
        let split = block.func.is_none();
        let mut wrote = false;
        let (retired, exit) = 'run: {
            for (idx, op) in block.ops.iter().enumerate() {
                if idx > 0 {
                    if cycles >= self.cycle_limit {
                        self.cpu.eip = op.eip;
                        break 'run (idx, Some(Exit::CycleLimit));
                    }
                    if wrote && self.mem.has_dirty_code() {
                        // An instruction in this block patched code
                        // (W⊕X off). Bail out so the rest re-decodes.
                        self.cpu.eip = op.eip;
                        break 'run (idx, None);
                    }
                }
                wrote = op.fast.may_write();
                match self.exec_op(block, idx, cycles) {
                    Ok((cost, status)) => {
                        cycles += cost;
                        if split {
                            self.charge(op.func, cost);
                        }
                        if let Some(status) = status {
                            break 'run (idx + 1, Some(Exit::Exited(status)));
                        }
                    }
                    Err(f) => {
                        self.cpu.eip = op.next;
                        break 'run (idx + 1, Some(Exit::Fault(f)));
                    }
                }
            }
            if !block.transfers {
                self.cpu.eip = block.end;
            }
            (block.ops.len(), None)
        };
        self.instructions += retired as u64;
        self.cycles = cycles;
        if let Some(slot) = block.func {
            self.charge(slot, cycles - start);
        }
        exit
    }

    /// Executes op `idx` of `block` at cycle count `cycles`: a fast op
    /// through [`Vm::exec_fast`], a `Slow` one through [`Vm::exec_insn`].
    /// Returns its cost and, if it invoked `exit`, the status.
    #[inline(always)]
    fn exec_op(
        &mut self,
        block: &Block,
        idx: usize,
        cycles: u64,
    ) -> Result<(u64, Option<i32>), Fault> {
        let op = block.ops[idx];
        match op.fast {
            FastOp::Slow => self.exec_insn(&block.insns[idx], op.eip, op.next, cycles),
            fast => self.exec_fast(fast, op.next, cycles).map(|c| (c, None)),
        }
    }

    /// Executes a fused `body…; ret` gadget block (up to
    /// [`crate::block::MAX_FUSED_OPS`] body ops) with the same hot-state
    /// discipline as [`Vm::exec_checked`], charging the profile op by op
    /// (each to its own resolved slot: a gadget may straddle two
    /// functions). The cycle limit is checked before each instruction
    /// only when the gadget's bound does not fit under it at entry, and
    /// the dirty-code check only runs with W⊕X off.
    #[inline]
    fn exec_fused(&mut self, f: FusedGadget) -> Option<Exit> {
        let start = self.cycles;
        let mut cycles = start;
        let checked = start.saturating_add(f.max_cost) >= self.cycle_limit;
        // Under W⊕X no body op can dirty code.
        let watch = !self.mem.w_xor_x;
        let len = f.len as usize;
        let (retired, exit) = 'run: {
            for idx in 0..len {
                let op = f.ops[idx];
                if idx > 0 {
                    if checked && cycles >= self.cycle_limit {
                        self.cpu.eip = op.eip;
                        break 'run (idx, Some(Exit::CycleLimit));
                    }
                    if watch && f.ops[idx - 1].fast.may_write() && self.mem.has_dirty_code() {
                        self.cpu.eip = op.eip;
                        break 'run (idx, None);
                    }
                }
                // The final `pop r32; ret` — two adjacent stack reads,
                // resolved once. `pop esp` pivots the stack, so its ret
                // target lives at the *new* esp, not esp+4: that shape
                // takes the sequential path. So does a pair read that
                // fails (region boundary or fault).
                if idx + 1 == len {
                    if let FastOp::PopR(r) = op.fast {
                        let esp = self.cpu.esp();
                        let pair = if r == Reg32::Esp {
                            None
                        } else {
                            self.mem.read32_pair(esp).ok()
                        };
                        if let Some((v, target)) = pair {
                            self.cpu.set_reg(r, v);
                            self.cpu.set_esp(esp.wrapping_add(4));
                            let pop_cost = self.cost.alu + self.cost.mem;
                            cycles += pop_cost;
                            self.charge(op.func, pop_cost);
                            if checked && cycles >= self.cycle_limit {
                                self.cpu.eip = f.ret.eip;
                                break 'run (len, Some(Exit::CycleLimit));
                            }
                            let ret_cost = self.ret_cost(target, cycles);
                            self.cpu.set_esp(esp.wrapping_add(8));
                            self.cpu.eip = target;
                            cycles += ret_cost;
                            self.charge(f.ret.func, ret_cost);
                            break 'run (len + 1, None);
                        }
                    }
                }
                match self.exec_fast(op.fast, op.next, cycles) {
                    Ok(cost) => {
                        cycles += cost;
                        self.charge(op.func, cost);
                    }
                    Err(fault) => {
                        self.cpu.eip = op.next;
                        break 'run (idx + 1, Some(Exit::Fault(fault)));
                    }
                }
            }
            if checked && cycles >= self.cycle_limit {
                self.cpu.eip = f.ret.eip;
                break 'run (len, Some(Exit::CycleLimit));
            }
            if watch && f.ops[len - 1].fast.may_write() && self.mem.has_dirty_code() {
                self.cpu.eip = f.ret.eip;
                break 'run (len, None);
            }
            match self.exec_fast(FastOp::Ret, f.ret.next, cycles) {
                Ok(cost) => {
                    cycles += cost;
                    self.charge(f.ret.func, cost);
                    (len + 1, None)
                }
                Err(fault) => {
                    self.cpu.eip = f.ret.next;
                    (len + 1, Some(Exit::Fault(fault)))
                }
            }
        };
        self.instructions += retired as u64;
        self.cycles = cycles;
        exit
    }

    /// Adds `cycles` to a resolved profile slot, when profiling.
    #[inline]
    fn charge(&mut self, slot: u32, cycles: u64) {
        if let Some(p) = self.profiler.as_mut() {
            p.add(slot, cycles);
        }
    }

    /// The legacy decode front-end: one `HashMap` probe and `Rc` clone
    /// per instruction, flushed wholesale on any code write.
    #[cfg(feature = "oracle")]
    fn decode_at_reference(&mut self, eip: u32) -> Result<Rc<Insn>, Fault> {
        if let Some(i) = self.ref_decode_cache.get(&eip) {
            return Ok(Rc::clone(i));
        }
        let bytes = self.mem.fetch(eip)?;
        let insn = decode(bytes).map_err(|_| Fault::new(eip, FaultKind::InvalidInstruction))?;
        let rc = Rc::new(insn);
        self.ref_decode_cache.insert(eip, Rc::clone(&rc));
        Ok(rc)
    }

    /// Executes one instruction via the per-instruction reference
    /// path: every instruction goes through [`Vm::exec_insn`], and its
    /// cycles go to the profile by a range lookup of its `eip`.
    /// Semantics are identical to [`Vm::step`]; only the decode
    /// front-end and the accounting differ.
    #[cfg(feature = "oracle")]
    pub fn step_reference(&mut self) -> Result<Option<i32>, Fault> {
        self.sync_code_writes();
        let eip = self.cpu.eip;
        let insn = self.decode_at_reference(eip)?;
        let next = eip.wrapping_add(insn.len as u32);
        self.instructions += 1;
        let (cost, exited) = self.exec_insn(&insn, eip, next, self.cycles)?;
        self.cycles += cost;
        if let Some(p) = self.profiler.as_mut() {
            p.record(eip, cost);
        }
        Ok(exited)
    }

    /// Executes one instruction. `Ok(Some(status))` means the program
    /// invoked `exit`. Served from the block-translation cache, so
    /// single-stepping (probe VMs, `--trace`) shares the predecoded
    /// blocks with [`Vm::run`]. On a miss it predecodes only the
    /// instruction it runs: a step entering a gadget at each of its
    /// instructions in turn decodes each once, not each tail again.
    pub fn step(&mut self) -> Result<Option<i32>, Fault> {
        self.sync_code_writes();
        let block = self.block_at(self.cpu.eip, 1)?;
        let op = block.ops[0];
        self.instructions += 1;
        let (cost, exited) = match op.fast {
            FastOp::Slow => self.exec_insn(&block.insns[0], op.eip, op.next, self.cycles)?,
            fast => {
                self.cpu.eip = op.next;
                (self.exec_fast(fast, op.next, self.cycles)?, None)
            }
        };
        self.cycles += cost;
        self.charge(op.func, cost);
        Ok(exited)
    }

    /// The cost of a `ret` to `target` at cycle count `cycles`: pops the
    /// RSB's prediction and notes the return for the chain tracer.
    #[inline]
    fn ret_cost(&mut self, target: u32, cycles: u64) -> u64 {
        let cost = if self.rsb.pop_and_check(target) {
            self.cost.ret_predicted
        } else {
            self.cost.ret_mispredict
        };
        if let Some(ct) = self.chain_tracer.as_mut() {
            ct.note_ret(target, cycles + cost);
        }
        cost
    }

    /// The fast-path micro-op interpreter: executes `op`, whose
    /// successor is `next`, at cycle count `cycles`, and returns its
    /// cost. Each arm reproduces the corresponding [`Vm::exec_insn`]
    /// arm exactly — effects, cycle cost, RSB, and tracer hooks
    /// included. Only control transfers set `eip`; the caller keeps it
    /// for everything else. Every op but a control transfer runs in
    /// [`Vm::exec_data`].
    #[inline(always)]
    fn exec_fast(&mut self, op: FastOp, next: u32, cycles: u64) -> Result<u64, Fault> {
        Ok(match op {
            FastOp::Ret => {
                let target = self.pop()?;
                let cost = self.ret_cost(target, cycles);
                self.cpu.eip = target;
                cost
            }
            FastOp::Jmp(_) | FastOp::Jcc(..) => self.exec_jump(op, next).unwrap_or(0),
            FastOp::Call(target, callee) => {
                self.push(next)?;
                self.rsb.push(next);
                if let Some(p) = self.profiler.as_mut() {
                    p.add_call(callee);
                }
                if let Some(ct) = self.chain_tracer.as_mut() {
                    ct.note_call(target, cycles);
                }
                self.cpu.eip = target;
                self.cost.call
            }
            data => self.exec_data(data)?,
        })
    }

    /// Executes a direct jump (`Jmp` or `Jcc`) whose successor is
    /// `next`: sets `eip` and returns the cost. `None`, doing nothing,
    /// for every other op. The lean path runs a block ending in one
    /// without a call, and [`Vm::exec_fast`] runs them here.
    #[inline(always)]
    fn exec_jump(&mut self, op: FastOp, next: u32) -> Option<u64> {
        Some(match op {
            FastOp::Jmp(target) => {
                self.cpu.eip = target;
                self.cost.branch_taken
            }
            FastOp::Jcc(c, target) => {
                if self.cpu.flags.cond(c) {
                    self.cpu.eip = target;
                    self.cost.branch_taken
                } else {
                    self.cpu.eip = next;
                    self.cost.branch_not_taken
                }
            }
            _ => return None,
        })
    }

    /// Executes a fast op that is not a control transfer, the ops a
    /// block's body holds, and returns its cost. Each arm has the
    /// effects and cost of the corresponding [`Vm::exec_insn`] arm
    /// exactly. The cost is the op's [`FastOp::static_cost`], which the
    /// lean path adds once per block and so discards here.
    #[inline(always)]
    fn exec_data(&mut self, op: FastOp) -> Result<u64, Fault> {
        Ok(match op {
            FastOp::PopR(r) => {
                let v = self.pop()?;
                self.cpu.set_reg(r, v);
                self.cost.alu + self.cost.mem
            }
            FastOp::PushR(r) => {
                self.push(self.cpu.reg(r))?;
                self.cost.alu + self.cost.mem
            }
            FastOp::PushI(v) => {
                self.push(v)?;
                self.cost.alu + self.cost.mem
            }
            FastOp::MovRI(r, v) => {
                self.cpu.set_reg(r, v);
                self.cost.alu
            }
            FastOp::MovRR(d, s) => {
                let v = self.cpu.reg(s);
                self.cpu.set_reg(d, v);
                self.cost.alu
            }
            FastOp::AluRR(op, d, s) => {
                let a = self.cpu.reg(d);
                let b = self.cpu.reg(s);
                let r = self.alu(op, a, b, OpSize::Dword);
                if op != AluOp::Cmp {
                    self.cpu.set_reg(d, r);
                }
                self.cost.alu
            }
            FastOp::AluRI(op, d, v) => {
                let a = self.cpu.reg(d);
                let r = self.alu(op, a, v, OpSize::Dword);
                if op != AluOp::Cmp {
                    self.cpu.set_reg(d, r);
                }
                self.cost.alu
            }
            FastOp::LoadRM(d, base, disp) => {
                let mut ea = disp as u32;
                if let Some(b) = base {
                    ea = ea.wrapping_add(self.cpu.reg(b));
                }
                let v = self.mem.read32(ea)?;
                self.cpu.set_reg(d, v);
                self.cost.alu + self.cost.mem
            }
            FastOp::StoreMR(base, disp, s) => {
                let mut ea = disp as u32;
                if let Some(b) = base {
                    ea = ea.wrapping_add(self.cpu.reg(b));
                }
                self.mem.write32(ea, self.cpu.reg(s))?;
                self.cost.alu + self.cost.mem
            }
            FastOp::StoreIdx(m, s) => {
                let ea = self.ea(&m);
                self.mem.write32(ea, self.cpu.reg(s))?;
                self.cost.alu + self.cost.mem
            }
            FastOp::StoreB(m, s) => {
                let v = self.cpu.reg8(s);
                self.mem.write8(self.ea(&m), v)?;
                self.cost.alu + self.cost.mem
            }
            // `lea` computes an address without touching memory, so
            // like `exec_insn` it charges no memory cost.
            FastOp::LeaRM(d, m) => {
                let ea = self.ea(&m);
                self.cpu.set_reg(d, ea);
                self.cost.alu
            }
            FastOp::XchgRR(d, s) => {
                let a = self.cpu.reg(d);
                let b = self.cpu.reg(s);
                self.cpu.set_reg(d, b);
                self.cpu.set_reg(s, a);
                self.cost.alu
            }
            FastOp::TestRR(d, s) => {
                let a = self.cpu.reg(d);
                let b = self.cpu.reg(s);
                self.alu(AluOp::And, a, b, OpSize::Dword);
                self.cost.alu
            }
            FastOp::TestRI(d, v) => {
                let a = self.cpu.reg(d);
                self.alu(AluOp::And, a, v, OpSize::Dword);
                self.cost.alu
            }
            // Push-from-memory and pop-to-memory each touch two memory
            // locations, matching `exec_insn`'s operand-scan cost plus
            // the Push/Pop arm's extra `mem` charge.
            FastOp::PushM(m) => {
                let ea = self.ea(&m);
                let v = self.mem.read32(ea)?;
                self.push(v)?;
                self.cost.alu + self.cost.mem + self.cost.mem
            }
            FastOp::PopM(m) => {
                // Pop first: `pop [esp+d]` computes its address with
                // the already-incremented esp (x86 semantics, exactly
                // as `exec_insn`'s Pop arm orders it).
                let v = self.pop()?;
                let ea = self.ea(&m);
                self.mem.write32(ea, v)?;
                self.cost.alu + self.cost.mem + self.cost.mem
            }
            FastOp::MovzxRR(d, s) => {
                let v = self.cpu.reg8(s) as u32;
                self.cpu.set_reg(d, v);
                self.cost.alu
            }
            FastOp::MovzxRM(d, m) => {
                let v = self.mem.read8(self.ea(&m))? as u32;
                self.cpu.set_reg(d, v);
                self.cost.alu + self.cost.mem
            }
            FastOp::SetccR(c, r) => {
                let v = self.cpu.flags.cond(c) as u8;
                self.cpu.set_reg8(r, v);
                self.cost.alu
            }
            FastOp::ImulRR(d, s) => {
                let p = (self.cpu.reg(d) as i32 as i64) * (self.cpu.reg(s) as i32 as i64);
                self.cpu.set_reg(d, p as u32);
                let fits = p == (p as i32) as i64;
                self.cpu.flags.cf = !fits;
                self.cpu.flags.of = !fits;
                self.cost.alu + self.cost.mul
            }
            FastOp::ShiftRR(op, d, c) => {
                let n = self.cpu.reg8(c) as u32 & 31;
                let r = self.shift(op, self.cpu.reg(d), n, OpSize::Dword);
                self.cpu.set_reg(d, r);
                self.cost.alu
            }
            // esp moves to ebp before the pop, so a faulting pop leaves
            // it there, as `exec_insn` does.
            FastOp::Leave => {
                self.cpu.set_esp(self.cpu.reg(Reg32::Ebp));
                let v = self.pop()?;
                self.cpu.set_reg(Reg32::Ebp, v);
                self.cost.alu + self.cost.mem
            }
            FastOp::Ret | FastOp::Jmp(_) | FastOp::Jcc(..) | FastOp::Call(..) | FastOp::Slow => {
                unreachable!("control transfers and Slow ops run elsewhere")
            }
        })
    }

    /// Executes one decoded instruction at `eip` whose successor is
    /// `next`, at cycle count `cycles`, and returns its cost and, if
    /// the program invoked `exit`, its status. The single authority for
    /// instruction semantics — both the block engine and the reference
    /// path land here. It sets `eip` (to `next` before anything else,
    /// so a fault leaves it there) but leaves the cycle and instruction
    /// counts and the profile to its caller.
    fn exec_insn(
        &mut self,
        insn: &Insn,
        eip: u32,
        next: u32,
        cycles: u64,
    ) -> Result<(u64, Option<i32>), Fault> {
        self.cpu.eip = next;

        let mut cost = self.cost.alu;
        if insn.ops.iter().any(|o| matches!(o, Operand::Mem(_))) && insn.mnemonic != Mnemonic::Lea {
            cost += self.cost.mem;
        }

        let mut exited = None;
        match insn.mnemonic {
            Mnemonic::Nop | Mnemonic::Clc | Mnemonic::Stc | Mnemonic::Cmc => match insn.mnemonic {
                Mnemonic::Clc => self.cpu.flags.cf = false,
                Mnemonic::Stc => self.cpu.flags.cf = true,
                Mnemonic::Cmc => self.cpu.flags.cf = !self.cpu.flags.cf,
                _ => {}
            },
            Mnemonic::Mov => {
                let v = self.read_op(&insn.ops[1], insn.size)?;
                self.write_op(&insn.ops[0], insn.size, v)?;
            }
            Mnemonic::Movzx => {
                let v = self.read_op(&insn.ops[1], OpSize::Byte)?;
                self.write_op(&insn.ops[0], OpSize::Dword, v & 0xff)?;
            }
            Mnemonic::Movsx => {
                let v = self.read_op(&insn.ops[1], OpSize::Byte)?;
                self.write_op(&insn.ops[0], OpSize::Dword, v as u8 as i8 as i32 as u32)?;
            }
            Mnemonic::Lea => {
                let m = insn.ops[1].mem().expect("lea has a memory source");
                let ea = self.ea(&m);
                self.write_op(&insn.ops[0], OpSize::Dword, ea)?;
            }
            Mnemonic::Xchg => {
                let a = self.read_op(&insn.ops[0], insn.size)?;
                let b = self.read_op(&insn.ops[1], insn.size)?;
                self.write_op(&insn.ops[0], insn.size, b)?;
                self.write_op(&insn.ops[1], insn.size, a)?;
            }
            Mnemonic::Alu(op) => {
                let a = self.read_op(&insn.ops[0], insn.size)?;
                let b = self.read_op(&insn.ops[1], insn.size)?;
                let r = self.alu(op, a, b, insn.size);
                if op != AluOp::Cmp {
                    self.write_op(&insn.ops[0], insn.size, r)?;
                }
            }
            Mnemonic::Test => {
                let a = self.read_op(&insn.ops[0], insn.size)?;
                let b = self.read_op(&insn.ops[1], insn.size)?;
                self.alu(AluOp::And, a, b, insn.size);
            }
            Mnemonic::Inc | Mnemonic::Dec => {
                let a = self.read_op(&insn.ops[0], insn.size)?;
                let cf = self.cpu.flags.cf;
                let op = if insn.mnemonic == Mnemonic::Inc {
                    AluOp::Add
                } else {
                    AluOp::Sub
                };
                let r = self.alu(op, a, 1, insn.size);
                self.cpu.flags.cf = cf; // inc/dec preserve CF
                self.write_op(&insn.ops[0], insn.size, r)?;
            }
            Mnemonic::Neg => {
                let a = self.read_op(&insn.ops[0], insn.size)?;
                let r = self.alu(AluOp::Sub, 0, a, insn.size);
                self.cpu.flags.cf = a != 0;
                self.write_op(&insn.ops[0], insn.size, r)?;
            }
            Mnemonic::Not => {
                let a = self.read_op(&insn.ops[0], insn.size)?;
                self.write_op(&insn.ops[0], insn.size, !a)?;
            }
            Mnemonic::Shift(op) => {
                let a = self.read_op(&insn.ops[0], insn.size)?;
                let n = self.read_op(&insn.ops[1], OpSize::Byte)? & 31;
                let r = self.shift(op, a, n, insn.size);
                self.write_op(&insn.ops[0], insn.size, r)?;
            }
            Mnemonic::Mul => {
                cost += self.cost.mul;
                let src = self.read_op(&insn.ops[0], insn.size)?;
                match insn.size {
                    OpSize::Dword => {
                        let p = self.cpu.reg(Reg32::Eax) as u64 * src as u64;
                        self.cpu.set_reg(Reg32::Eax, p as u32);
                        self.cpu.set_reg(Reg32::Edx, (p >> 32) as u32);
                        let hi = (p >> 32) != 0;
                        self.cpu.flags.cf = hi;
                        self.cpu.flags.of = hi;
                    }
                    OpSize::Byte => {
                        let p = (self.cpu.reg8(Reg8::Al) as u16) * (src as u8 as u16);
                        let eax = self.cpu.reg(Reg32::Eax);
                        self.cpu.set_reg(Reg32::Eax, (eax & 0xffff_0000) | p as u32);
                        let hi = (p >> 8) != 0;
                        self.cpu.flags.cf = hi;
                        self.cpu.flags.of = hi;
                    }
                }
            }
            Mnemonic::Imul => {
                cost += self.cost.mul;
                match insn.ops.len() {
                    1 => {
                        let src = self.read_op(&insn.ops[0], insn.size)?;
                        match insn.size {
                            OpSize::Dword => {
                                let p =
                                    (self.cpu.reg(Reg32::Eax) as i32 as i64) * (src as i32 as i64);
                                self.cpu.set_reg(Reg32::Eax, p as u32);
                                self.cpu.set_reg(Reg32::Edx, (p >> 32) as u32);
                                let fits = p == (p as i32) as i64;
                                self.cpu.flags.cf = !fits;
                                self.cpu.flags.of = !fits;
                            }
                            OpSize::Byte => {
                                let p = (self.cpu.reg8(Reg8::Al) as i8 as i16)
                                    * (src as u8 as i8 as i16);
                                let eax = self.cpu.reg(Reg32::Eax);
                                self.cpu
                                    .set_reg(Reg32::Eax, (eax & 0xffff_0000) | p as u16 as u32);
                                let fits = p == (p as i8) as i16;
                                self.cpu.flags.cf = !fits;
                                self.cpu.flags.of = !fits;
                            }
                        }
                    }
                    2 => {
                        let a = self.read_op(&insn.ops[0], OpSize::Dword)? as i32 as i64;
                        let b = self.read_op(&insn.ops[1], OpSize::Dword)? as i32 as i64;
                        let p = a * b;
                        self.write_op(&insn.ops[0], OpSize::Dword, p as u32)?;
                        let fits = p == (p as i32) as i64;
                        self.cpu.flags.cf = !fits;
                        self.cpu.flags.of = !fits;
                    }
                    _ => {
                        let b = self.read_op(&insn.ops[1], OpSize::Dword)? as i32 as i64;
                        let c = insn.ops[2].imm().expect("imul imm form");
                        let p = b * c;
                        self.write_op(&insn.ops[0], OpSize::Dword, p as u32)?;
                        let fits = p == (p as i32) as i64;
                        self.cpu.flags.cf = !fits;
                        self.cpu.flags.of = !fits;
                    }
                }
            }
            Mnemonic::Div => {
                cost += self.cost.div;
                let src = self.read_op(&insn.ops[0], insn.size)?;
                match insn.size {
                    OpSize::Dword => {
                        if src == 0 {
                            return Err(Fault::new(eip, FaultKind::DivideError));
                        }
                        let dividend = ((self.cpu.reg(Reg32::Edx) as u64) << 32)
                            | self.cpu.reg(Reg32::Eax) as u64;
                        let q = dividend / src as u64;
                        if q > u32::MAX as u64 {
                            return Err(Fault::new(eip, FaultKind::DivideError));
                        }
                        self.cpu.set_reg(Reg32::Eax, q as u32);
                        self.cpu.set_reg(Reg32::Edx, (dividend % src as u64) as u32);
                    }
                    OpSize::Byte => {
                        let s = src as u8;
                        if s == 0 {
                            return Err(Fault::new(eip, FaultKind::DivideError));
                        }
                        let ax = (self.cpu.reg(Reg32::Eax) & 0xffff) as u16;
                        let q = ax / s as u16;
                        if q > 0xff {
                            return Err(Fault::new(eip, FaultKind::DivideError));
                        }
                        let r = ax % s as u16;
                        let eax = self.cpu.reg(Reg32::Eax);
                        self.cpu.set_reg(
                            Reg32::Eax,
                            (eax & 0xffff_0000) | ((r as u32) << 8) | q as u32,
                        );
                    }
                }
            }
            Mnemonic::Idiv => {
                cost += self.cost.div;
                let src = self.read_op(&insn.ops[0], insn.size)?;
                match insn.size {
                    OpSize::Dword => {
                        let s = src as i32;
                        if s == 0 {
                            return Err(Fault::new(eip, FaultKind::DivideError));
                        }
                        let dividend = (((self.cpu.reg(Reg32::Edx) as u64) << 32)
                            | self.cpu.reg(Reg32::Eax) as u64)
                            as i64;
                        let q = dividend / s as i64;
                        if q > i32::MAX as i64 || q < i32::MIN as i64 {
                            return Err(Fault::new(eip, FaultKind::DivideError));
                        }
                        self.cpu.set_reg(Reg32::Eax, q as u32);
                        self.cpu.set_reg(Reg32::Edx, (dividend % s as i64) as u32);
                    }
                    OpSize::Byte => {
                        let s = src as u8 as i8;
                        if s == 0 {
                            return Err(Fault::new(eip, FaultKind::DivideError));
                        }
                        let ax = (self.cpu.reg(Reg32::Eax) & 0xffff) as u16 as i16;
                        let q = ax / s as i16;
                        if q > i8::MAX as i16 || q < i8::MIN as i16 {
                            return Err(Fault::new(eip, FaultKind::DivideError));
                        }
                        let r = ax % s as i16;
                        let eax = self.cpu.reg(Reg32::Eax);
                        self.cpu.set_reg(
                            Reg32::Eax,
                            (eax & 0xffff_0000) | ((r as u8 as u32) << 8) | q as u8 as u32,
                        );
                    }
                }
            }
            Mnemonic::Cwde => {
                let ax = (self.cpu.reg(Reg32::Eax) & 0xffff) as u16;
                self.cpu.set_reg(Reg32::Eax, ax as i16 as i32 as u32);
            }
            Mnemonic::Cdq => {
                let eax = self.cpu.reg(Reg32::Eax) as i32;
                self.cpu
                    .set_reg(Reg32::Edx, if eax < 0 { 0xffff_ffff } else { 0 });
            }
            Mnemonic::Push => {
                cost += self.cost.mem;
                let v = self.read_op(&insn.ops[0], OpSize::Dword)?;
                self.push(v)?;
            }
            Mnemonic::Pop => {
                cost += self.cost.mem;
                let v = self.pop()?;
                // For `pop esp`, the popped value wins (x86 semantics).
                self.write_op(&insn.ops[0], OpSize::Dword, v)?;
            }
            Mnemonic::Pushad => {
                cost += self.cost.pushad;
                let orig = self.cpu.esp();
                for r in [
                    Reg32::Eax,
                    Reg32::Ecx,
                    Reg32::Edx,
                    Reg32::Ebx,
                    Reg32::Esp,
                    Reg32::Ebp,
                    Reg32::Esi,
                    Reg32::Edi,
                ] {
                    let v = if r == Reg32::Esp {
                        orig
                    } else {
                        self.cpu.reg(r)
                    };
                    self.push(v)?;
                }
            }
            Mnemonic::Popad => {
                cost += self.cost.pushad;
                for r in [
                    Reg32::Edi,
                    Reg32::Esi,
                    Reg32::Ebp,
                    Reg32::Esp, // skipped
                    Reg32::Ebx,
                    Reg32::Edx,
                    Reg32::Ecx,
                    Reg32::Eax,
                ] {
                    let v = self.pop()?;
                    if r != Reg32::Esp {
                        self.cpu.set_reg(r, v);
                    }
                }
            }
            Mnemonic::Pushfd => {
                cost += self.cost.mem;
                self.push(self.cpu.flags.to_eflags())?;
            }
            Mnemonic::Popfd => {
                cost += self.cost.mem;
                let v = self.pop()?;
                self.cpu.flags = Flags::from_eflags(v);
            }
            Mnemonic::Leave => {
                cost += self.cost.mem;
                self.cpu.set_esp(self.cpu.reg(Reg32::Ebp));
                let v = self.pop()?;
                self.cpu.set_reg(Reg32::Ebp, v);
            }
            Mnemonic::Jmp => {
                cost = self.cost.branch_taken;
                let rel = rel_of(insn);
                self.cpu.eip = next.wrapping_add(rel as u32);
            }
            Mnemonic::JmpInd => {
                cost = self.cost.branch_taken + self.cost.mem;
                let t = self.read_op(&insn.ops[0], OpSize::Dword)?;
                self.cpu.eip = t;
            }
            Mnemonic::Jcc(c) => {
                if self.cpu.flags.cond(c) {
                    cost = self.cost.branch_taken;
                    let rel = rel_of(insn);
                    self.cpu.eip = next.wrapping_add(rel as u32);
                } else {
                    cost = self.cost.branch_not_taken;
                }
            }
            Mnemonic::Setcc(c) => {
                let v = self.cpu.flags.cond(c) as u32;
                self.write_op(&insn.ops[0], OpSize::Byte, v)?;
            }
            Mnemonic::Cmovcc(c) => {
                let v = self.read_op(&insn.ops[1], OpSize::Dword)?;
                if self.cpu.flags.cond(c) {
                    self.write_op(&insn.ops[0], OpSize::Dword, v)?;
                }
            }
            Mnemonic::Call => {
                cost = self.cost.call;
                let rel = rel_of(insn);
                let target = next.wrapping_add(rel as u32);
                self.push(next)?;
                self.rsb.push(next);
                if let Some(p) = self.profiler.as_mut() {
                    p.record_call(target);
                }
                if let Some(ct) = self.chain_tracer.as_mut() {
                    ct.note_call(target, cycles);
                }
                self.cpu.eip = target;
            }
            Mnemonic::CallInd => {
                cost = self.cost.call + self.cost.mem;
                let target = self.read_op(&insn.ops[0], OpSize::Dword)?;
                self.push(next)?;
                self.rsb.push(next);
                if let Some(p) = self.profiler.as_mut() {
                    p.record_call(target);
                }
                if let Some(ct) = self.chain_tracer.as_mut() {
                    ct.note_call(target, cycles);
                }
                self.cpu.eip = target;
            }
            Mnemonic::Ret => {
                let target = self.pop()?;
                if let Some(Operand::Imm(n)) = insn.ops.first() {
                    let esp = self.cpu.esp();
                    self.cpu.set_esp(esp.wrapping_add(*n as u32));
                }
                cost = self.ret_cost(target, cycles);
                self.cpu.eip = target;
            }
            Mnemonic::Retf => {
                let target = self.pop()?;
                let _cs = self.pop()?; // flat model: code segment discarded
                if let Some(Operand::Imm(n)) = insn.ops.first() {
                    let esp = self.cpu.esp();
                    self.cpu.set_esp(esp.wrapping_add(*n as u32));
                }
                // Far returns are never RSB-predicted.
                cost = self.cost.ret_mispredict;
                if let Some(ct) = self.chain_tracer.as_mut() {
                    ct.note_ret(target, cycles + cost);
                }
                self.cpu.eip = target;
            }
            Mnemonic::Int => {
                let vector = insn.ops[0].imm().unwrap_or(0) as u8;
                if vector != 0x80 {
                    return Err(Fault::new(eip, FaultKind::BadSyscall));
                }
                cost = self.cost.syscall;
                match syscall::dispatch(&mut self.cpu, &mut self.mem, &mut self.sys) {
                    Ok(Some(status)) => exited = Some(status),
                    Ok(None) => {}
                    Err(f) => return Err(f),
                }
            }
            Mnemonic::Int3 => return Err(Fault::new(eip, FaultKind::Breakpoint)),
            Mnemonic::Hlt => return Err(Fault::new(eip, FaultKind::Halted)),
        }

        Ok((cost, exited))
    }

    #[inline(always)]
    fn push(&mut self, v: u32) -> Result<(), Fault> {
        let esp = self.cpu.esp().wrapping_sub(4);
        self.mem.write32(esp, v)?;
        self.cpu.set_esp(esp);
        Ok(())
    }

    #[inline(always)]
    fn pop(&mut self) -> Result<u32, Fault> {
        let esp = self.cpu.esp();
        let v = self.mem.read32(esp)?;
        self.cpu.set_esp(esp.wrapping_add(4));
        Ok(v)
    }

    fn ea(&self, m: &Mem) -> u32 {
        let mut a = m.disp as u32;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.cpu.reg(b));
        }
        if let Some((i, s)) = m.index {
            a = a.wrapping_add(self.cpu.reg(i).wrapping_mul(s as u32));
        }
        a
    }

    fn read_op(&self, op: &Operand, size: OpSize) -> Result<u32, Fault> {
        match op {
            Operand::Reg(Reg::R32(r)) => Ok(self.cpu.reg(*r)),
            Operand::Reg(Reg::R8(r)) => Ok(self.cpu.reg8(*r) as u32),
            Operand::Imm(v) => Ok(*v as u32),
            Operand::Mem(m) => {
                let ea = self.ea(m);
                match size {
                    OpSize::Dword => self.mem.read32(ea),
                    OpSize::Byte => Ok(self.mem.read8(ea)? as u32),
                }
            }
            Operand::Rel(_) => unreachable!("relative operands are branch-only"),
        }
    }

    fn write_op(&mut self, op: &Operand, size: OpSize, v: u32) -> Result<(), Fault> {
        match op {
            Operand::Reg(Reg::R32(r)) => {
                self.cpu.set_reg(*r, v);
                Ok(())
            }
            Operand::Reg(Reg::R8(r)) => {
                self.cpu.set_reg8(*r, v as u8);
                Ok(())
            }
            Operand::Mem(m) => {
                let ea = self.ea(m);
                match size {
                    OpSize::Dword => self.mem.write32(ea, v),
                    OpSize::Byte => self.mem.write8(ea, v as u8),
                }
            }
            Operand::Imm(_) | Operand::Rel(_) => {
                unreachable!("immediates are never destinations")
            }
        }
    }

    /// Performs a group-1 ALU operation, setting flags, and returns the
    /// (masked) result. Always inlined, so each fast arm's constant
    /// operation and size fold away.
    #[inline(always)]
    fn alu(&mut self, op: AluOp, a: u32, b: u32, size: OpSize) -> u32 {
        let (mask, sign): (u32, u32) = match size {
            OpSize::Dword => (0xffff_ffff, 0x8000_0000),
            OpSize::Byte => (0xff, 0x80),
        };
        let a = a & mask;
        let b = b & mask;
        let cf_in = self.cpu.flags.cf as u32;
        let f = &mut self.cpu.flags;
        let r = match op {
            AluOp::Add => {
                let r = a.wrapping_add(b) & mask;
                f.cf = (a as u64 + b as u64) > mask as u64;
                f.of = ((a ^ r) & (b ^ r) & sign) != 0;
                f.af = ((a ^ b ^ r) & 0x10) != 0;
                r
            }
            AluOp::Adc => {
                let r = a.wrapping_add(b).wrapping_add(cf_in) & mask;
                f.cf = (a as u64 + b as u64 + cf_in as u64) > mask as u64;
                f.of = ((a ^ r) & (b ^ r) & sign) != 0;
                f.af = ((a ^ b ^ r) & 0x10) != 0;
                r
            }
            AluOp::Sub | AluOp::Cmp => {
                let r = a.wrapping_sub(b) & mask;
                f.cf = b > a;
                f.of = ((a ^ b) & (a ^ r) & sign) != 0;
                f.af = ((a ^ b ^ r) & 0x10) != 0;
                r
            }
            AluOp::Sbb => {
                let r = a.wrapping_sub(b).wrapping_sub(cf_in) & mask;
                f.cf = (b as u64 + cf_in as u64) > a as u64;
                f.of = ((a ^ b) & (a ^ r) & sign) != 0;
                f.af = ((a ^ b ^ r) & 0x10) != 0;
                r
            }
            AluOp::And => {
                let r = a & b;
                f.cf = false;
                f.of = false;
                r
            }
            AluOp::Or => {
                let r = a | b;
                f.cf = false;
                f.of = false;
                r
            }
            AluOp::Xor => {
                let r = a ^ b;
                f.cf = false;
                f.of = false;
                r
            }
        };
        f.zf = r == 0;
        f.sf = (r & sign) != 0;
        f.pf = parity(r);
        r
    }

    fn shift(&mut self, op: ShiftOp, a: u32, n: u32, size: OpSize) -> u32 {
        let bits = size.bytes() as u32 * 8;
        let (mask, sign): (u32, u32) = match size {
            OpSize::Dword => (0xffff_ffff, 0x8000_0000),
            OpSize::Byte => (0xff, 0x80),
        };
        let a = a & mask;
        if n == 0 {
            return a;
        }
        let f = &mut self.cpu.flags;
        let r = match op {
            ShiftOp::Shl => {
                let r = if n >= bits { 0 } else { (a << n) & mask };
                f.cf = if n <= bits {
                    (a >> (bits - n)) & 1 != 0
                } else {
                    false
                };
                if n == 1 {
                    f.of = ((r & sign) != 0) != f.cf;
                }
                r
            }
            ShiftOp::Shr => {
                let r = if n >= bits { 0 } else { a >> n };
                f.cf = if n <= bits {
                    (a >> (n - 1)) & 1 != 0
                } else {
                    false
                };
                if n == 1 {
                    f.of = (a & sign) != 0;
                }
                r
            }
            ShiftOp::Sar => {
                let signed = if (a & sign) != 0 {
                    // sign-extend to 32 bits first
                    a | !mask
                } else {
                    a
                } as i32;
                let sh = n.min(bits - 1).min(31);
                let r = ((signed >> sh) as u32) & mask;
                f.cf = ((signed >> (n.min(31) - 1).min(31)) & 1) != 0;
                if n == 1 {
                    f.of = false;
                }
                r
            }
            ShiftOp::Rol => {
                let n = n % bits;
                let r = if n == 0 {
                    a
                } else {
                    ((a << n) | (a >> (bits - n))) & mask
                };
                f.cf = r & 1 != 0;
                if n == 1 {
                    f.of = ((r & sign) != 0) != f.cf;
                }
                return r; // rotates do not touch SZP
            }
            ShiftOp::Ror => {
                let n = n % bits;
                let r = if n == 0 {
                    a
                } else {
                    ((a >> n) | (a << (bits - n))) & mask
                };
                f.cf = (r & sign) != 0;
                if n == 1 {
                    f.of = ((r & sign) != 0) != ((r & (sign >> 1)) != 0);
                }
                return r;
            }
        };
        f.zf = r == 0;
        f.sf = (r & sign) != 0;
        f.pf = parity(r);
        r
    }
}

fn rel_of(insn: &Insn) -> i32 {
    match insn.ops.first() {
        Some(Operand::Rel(r)) => *r,
        _ => unreachable!("relative branch without Rel operand"),
    }
}

#[cfg(test)]
mod tests {
    use parallax_image::Program;
    use parallax_x86::{Asm, Cond, Mem, Reg32, Reg8, ShiftOp};

    use super::*;

    #[test]
    fn static_costs_match_exec_insn() {
        // Every fast form with a fixed cost, on operands in the stack.
        let mut a = Asm::new();
        a.mov_rr(Reg32::Ebp, Reg32::Esp);
        a.mov_ri(Reg32::Ecx, 0);
        a.push_r(Reg32::Eax);
        a.push_i(5);
        a.pop_r(Reg32::Edx);
        a.alu_rr(AluOp::Add, Reg32::Eax, Reg32::Edx);
        a.alu_ri(AluOp::Cmp, Reg32::Eax, 3);
        a.mov_rm(Reg32::Eax, Mem::base_disp(Reg32::Esp, 4));
        a.mov_mr(Mem::base_disp(Reg32::Esp, 4), Reg32::Eax);
        a.mov_mr(
            Mem {
                base: Some(Reg32::Esp),
                index: Some((Reg32::Ecx, 4)),
                disp: 0,
            },
            Reg32::Eax,
        );
        a.mov_mr8(Mem::base(Reg32::Esp), Reg8::Al);
        a.lea(Reg32::Ebx, Mem::base_disp(Reg32::Esp, 8));
        a.xchg_rr(Reg32::Ebx, Reg32::Edx);
        a.test_rr(Reg32::Eax, Reg32::Edx);
        a.test_ri(Reg32::Eax, 0x40);
        a.push_m(Mem::base(Reg32::Esp));
        a.pop_m(Mem::base_disp(Reg32::Esp, 4));
        a.movzx_rr8(Reg32::Eax, Reg8::Dl);
        a.movzx_rm8(Reg32::Eax, Mem::base(Reg32::Esp));
        a.setcc(Cond::L, Reg8::Dl);
        a.imul_rr(Reg32::Eax, Reg32::Edx);
        a.shift_r_cl(ShiftOp::Shl, Reg32::Eax);
        a.leave();
        let next = a.label();
        a.call_label(next);
        a.bind(next);
        let next = a.label();
        a.jmp(next);
        a.bind(next);
        a.int(0x80);
        let mut p = Program::new();
        p.add_func("main", a.finish().unwrap());
        p.set_entry("main");
        // `vm` runs each instruction through `exec_insn`, `fast` through
        // `exec_fast`, in lockstep.
        let img = p.link().unwrap();
        let (mut vm, mut fast) = (Vm::new(&img), Vm::new(&img));
        let mut priced = 0;
        loop {
            let eip = vm.cpu.eip;
            let b = build_block(&vm.mem, eip, 1, &vm.cost, None).unwrap();
            let (op, insn) = (b.ops[0], &b.insns[0]);
            if insn.mnemonic == Mnemonic::Int {
                break;
            }
            let (cost, _) = vm.exec_insn(insn, op.eip, op.next, 0).unwrap();
            fast.cpu.eip = op.next;
            let fast_cost = fast.exec_fast(op.fast, op.next, 0).unwrap();
            let fixed = op.fast.static_cost(&vm.cost);
            assert_eq!(fixed, Some(cost), "{:?} at {eip:#x}", op.fast);
            assert_eq!(fast_cost, cost, "{:?} at {eip:#x}", op.fast);
            assert_eq!(fast.cpu.eip, vm.cpu.eip, "{:?} at {eip:#x}", op.fast);
            priced += 1;
        }
        assert_eq!(priced, 25);
    }
}
