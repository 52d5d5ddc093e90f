//! IR → x86-32 code generation.
//!
//! The generator is deliberately styled after `gcc -m32 -O0`-era
//! output, because the paper's protectability results depend on the
//! instruction idioms the rewriting rules exploit:
//!
//! * frame setup `push ebp; mov ebp, esp; sub esp, N`;
//! * constants materialized as `mov r32, imm32` (five-byte `b8+r id`
//!   encodings with four patchable immediate bytes);
//! * ALU on immediates via `add/sub/and/or/xor r32, imm` forms;
//! * control flow through `jcc rel32`, `jmp rel32`, and `call rel32`
//!   (four patchable offset bytes each);
//! * returns through `mov eax, imm32; leave; ret`.

use std::collections::HashMap;
use std::fmt;

use parallax_image::Program;
use parallax_x86::{AluOp, Asm, Assembled, Cond, Label, Mem, Reg32, Reg8, ShiftOp};

use crate::ir::{BinOp, CmpOp, Expr, Function, Module, Stmt, UnOp};

/// Errors produced during code generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A `Local` expression names a variable never assigned.
    UnknownLocal {
        /// The function being compiled.
        func: String,
        /// The unknown variable.
        name: String,
    },
    /// `break`/`continue` outside a loop.
    NotInLoop {
        /// The function being compiled.
        func: String,
    },
    /// A call references a function not present in the module.
    UnknownFunction {
        /// The calling function.
        func: String,
        /// The unknown callee.
        callee: String,
    },
    /// A call passes the wrong number of arguments.
    ArityMismatch {
        /// Calling function.
        func: String,
        /// Called function.
        callee: String,
        /// Arguments expected.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// A syscall has more than four arguments.
    TooManySyscallArgs {
        /// The function being compiled.
        func: String,
    },
    /// A `GlobalAddr` references an unknown global.
    UnknownGlobal {
        /// The function being compiled.
        func: String,
        /// The unknown global.
        name: String,
    },
    /// The module declares no entry function.
    NoEntry,
    /// Internal assembly failure (e.g. a jump out of range).
    Asm(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownLocal { func, name } => {
                write!(f, "{func}: unknown local `{name}`")
            }
            CompileError::NotInLoop { func } => {
                write!(f, "{func}: break/continue outside a loop")
            }
            CompileError::UnknownFunction { func, callee } => {
                write!(f, "{func}: call to unknown function `{callee}`")
            }
            CompileError::ArityMismatch {
                func,
                callee,
                expected,
                got,
            } => write!(
                f,
                "{func}: `{callee}` takes {expected} argument(s), got {got}"
            ),
            CompileError::TooManySyscallArgs { func } => {
                write!(f, "{func}: syscalls take at most 4 arguments")
            }
            CompileError::UnknownGlobal { func, name } => {
                write!(f, "{func}: unknown global `{name}`")
            }
            CompileError::NoEntry => write!(f, "module has no entry function"),
            CompileError::Asm(e) => write!(f, "assembly error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Function signature table used for call validation.
type Signatures<'a> = HashMap<&'a str, usize>;

struct FnCtx<'a> {
    func: &'a Function,
    asm: Asm,
    /// slot offsets relative to ebp
    slots: HashMap<String, i32>,
    epilogue: Label,
    loops: Vec<(Label, Label)>, // (continue, break)
    sigs: &'a Signatures<'a>,
    globals: &'a [String],
}

impl<'a> FnCtx<'a> {
    fn err_local(&self, name: &str) -> CompileError {
        CompileError::UnknownLocal {
            func: self.func.name.clone(),
            name: name.to_owned(),
        }
    }

    fn slot(&self, name: &str) -> Result<Mem, CompileError> {
        let off = *self.slots.get(name).ok_or_else(|| self.err_local(name))?;
        Ok(Mem::base_disp(Reg32::Ebp, off))
    }

    /// Compiles an expression; the result lands in `eax`.
    fn expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Const(v) => self.asm.mov_ri(Reg32::Eax, *v),
            Expr::Local(name) => {
                let m = self.slot(name)?;
                self.asm.mov_rm(Reg32::Eax, m);
            }
            Expr::GlobalAddr(name) => {
                if !self.globals.iter().any(|g| g == name) {
                    return Err(CompileError::UnknownGlobal {
                        func: self.func.name.clone(),
                        name: name.clone(),
                    });
                }
                self.asm.mov_ri_sym(Reg32::Eax, name.clone(), 0);
            }
            Expr::Load(addr) => {
                self.expr(addr)?;
                self.asm.mov_rm(Reg32::Eax, Mem::base(Reg32::Eax));
            }
            Expr::Load8(addr) => {
                self.expr(addr)?;
                self.asm.movzx_rm8(Reg32::Eax, Mem::base(Reg32::Eax));
            }
            Expr::Unary(op, a) => {
                self.expr(a)?;
                match op {
                    UnOp::Neg => self.asm.neg_r(Reg32::Eax),
                    UnOp::Not => self.asm.not_r(Reg32::Eax),
                }
            }
            Expr::Bin(op, a, b) => {
                self.expr(a)?;
                self.asm.push_r(Reg32::Eax);
                self.expr(b)?;
                self.asm.mov_rr(Reg32::Ecx, Reg32::Eax);
                self.asm.pop_r(Reg32::Eax);
                match op {
                    BinOp::Add => self.asm.alu_rr(AluOp::Add, Reg32::Eax, Reg32::Ecx),
                    BinOp::Sub => self.asm.alu_rr(AluOp::Sub, Reg32::Eax, Reg32::Ecx),
                    BinOp::And => self.asm.alu_rr(AluOp::And, Reg32::Eax, Reg32::Ecx),
                    BinOp::Or => self.asm.alu_rr(AluOp::Or, Reg32::Eax, Reg32::Ecx),
                    BinOp::Xor => self.asm.alu_rr(AluOp::Xor, Reg32::Eax, Reg32::Ecx),
                    BinOp::Mul => self.asm.imul_rr(Reg32::Eax, Reg32::Ecx),
                    BinOp::DivS => {
                        self.asm.cdq();
                        self.asm.idiv_r(Reg32::Ecx);
                    }
                    BinOp::ModS => {
                        self.asm.cdq();
                        self.asm.idiv_r(Reg32::Ecx);
                        self.asm.mov_rr(Reg32::Eax, Reg32::Edx);
                    }
                    BinOp::DivU => {
                        self.asm.mov_ri(Reg32::Edx, 0);
                        self.asm.div_r(Reg32::Ecx);
                    }
                    BinOp::ModU => {
                        self.asm.mov_ri(Reg32::Edx, 0);
                        self.asm.div_r(Reg32::Ecx);
                        self.asm.mov_rr(Reg32::Eax, Reg32::Edx);
                    }
                    BinOp::Shl => self.asm.shift_r_cl(ShiftOp::Shl, Reg32::Eax),
                    BinOp::ShrL => self.asm.shift_r_cl(ShiftOp::Shr, Reg32::Eax),
                    BinOp::ShrA => self.asm.shift_r_cl(ShiftOp::Sar, Reg32::Eax),
                }
            }
            Expr::Cmp(op, a, b) => {
                self.expr(a)?;
                self.asm.push_r(Reg32::Eax);
                self.expr(b)?;
                self.asm.mov_rr(Reg32::Ecx, Reg32::Eax);
                self.asm.pop_r(Reg32::Eax);
                self.asm.alu_rr(AluOp::Cmp, Reg32::Eax, Reg32::Ecx);
                let cond = match op {
                    CmpOp::Eq => Cond::E,
                    CmpOp::Ne => Cond::Ne,
                    CmpOp::LtS => Cond::L,
                    CmpOp::LeS => Cond::Le,
                    CmpOp::GtS => Cond::G,
                    CmpOp::GeS => Cond::Ge,
                    CmpOp::LtU => Cond::B,
                    CmpOp::GeU => Cond::Ae,
                    CmpOp::GtU => Cond::A,
                    CmpOp::LeU => Cond::Be,
                };
                self.asm.setcc(cond, Reg8::Al);
                self.asm.movzx_rr8(Reg32::Eax, Reg8::Al);
            }
            Expr::Call(callee, args) => {
                match self.sigs.get(callee.as_str()) {
                    None => {
                        return Err(CompileError::UnknownFunction {
                            func: self.func.name.clone(),
                            callee: callee.clone(),
                        })
                    }
                    Some(&expected) if expected != args.len() => {
                        return Err(CompileError::ArityMismatch {
                            func: self.func.name.clone(),
                            callee: callee.clone(),
                            expected,
                            got: args.len(),
                        })
                    }
                    Some(_) => {}
                }
                for a in args.iter().rev() {
                    self.expr(a)?;
                    self.asm.push_r(Reg32::Eax);
                }
                self.asm.call_sym(callee.clone());
                if !args.is_empty() {
                    self.asm
                        .alu_ri(AluOp::Add, Reg32::Esp, args.len() as i32 * 4);
                }
            }
            Expr::Syscall(nr, args) => {
                const ARG_REGS: [Reg32; 4] = [Reg32::Ebx, Reg32::Ecx, Reg32::Edx, Reg32::Esi];
                if args.len() > ARG_REGS.len() {
                    return Err(CompileError::TooManySyscallArgs {
                        func: self.func.name.clone(),
                    });
                }
                for a in args {
                    self.expr(a)?;
                    self.asm.push_r(Reg32::Eax);
                }
                for reg in ARG_REGS.iter().take(args.len()).rev() {
                    self.asm.pop_r(*reg);
                }
                self.asm.mov_ri(Reg32::Eax, *nr as i32);
                self.asm.int(0x80);
            }
        }
        Ok(())
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Let(name, e) => {
                self.expr(e)?;
                let m = self.slot(name)?;
                self.asm.mov_mr(m, Reg32::Eax);
            }
            Stmt::Store(addr, val) => {
                self.expr(val)?;
                self.asm.push_r(Reg32::Eax);
                self.expr(addr)?;
                self.asm.pop_r(Reg32::Ecx);
                self.asm.mov_mr(Mem::base(Reg32::Eax), Reg32::Ecx);
            }
            Stmt::Store8(addr, val) => {
                self.expr(val)?;
                self.asm.push_r(Reg32::Eax);
                self.expr(addr)?;
                self.asm.pop_r(Reg32::Ecx);
                self.asm.mov_mr8(Mem::base(Reg32::Eax), Reg8::Cl);
            }
            Stmt::Expr(e) => self.expr(e)?,
            Stmt::If(cond, then, els) => {
                self.expr(cond)?;
                self.asm.test_rr(Reg32::Eax, Reg32::Eax);
                let else_l = self.asm.label();
                self.asm.jcc(Cond::E, else_l);
                self.stmts(then)?;
                if els.is_empty() {
                    self.asm.bind(else_l);
                } else {
                    let end_l = self.asm.label();
                    self.asm.jmp(end_l);
                    self.asm.bind(else_l);
                    self.stmts(els)?;
                    self.asm.bind(end_l);
                }
            }
            Stmt::While(cond, body) => {
                let top = self.asm.here();
                let end = self.asm.label();
                self.expr(cond)?;
                self.asm.test_rr(Reg32::Eax, Reg32::Eax);
                self.asm.jcc(Cond::E, end);
                self.loops.push((top, end));
                self.stmts(body)?;
                self.loops.pop();
                self.asm.jmp(top);
                self.asm.bind(end);
            }
            Stmt::Break => {
                let (_, end) = *self.loops.last().ok_or(CompileError::NotInLoop {
                    func: self.func.name.clone(),
                })?;
                self.asm.jmp(end);
            }
            Stmt::Continue => {
                let (top, _) = *self.loops.last().ok_or(CompileError::NotInLoop {
                    func: self.func.name.clone(),
                })?;
                self.asm.jmp(top);
            }
            Stmt::Return(e) => {
                self.expr(e)?;
                self.asm.jmp(self.epilogue);
            }
        }
        Ok(())
    }
}

/// Compiles a single function against the module's signature table and
/// global list.
fn compile_function(
    f: &Function,
    sigs: &Signatures<'_>,
    globals: &[String],
) -> Result<Assembled, CompileError> {
    let locals = f.locals();
    let mut slots = HashMap::new();
    for (i, p) in f.params.iter().enumerate() {
        slots.insert(p.clone(), 8 + 4 * i as i32);
    }
    for (i, name) in locals.iter().enumerate() {
        slots.insert(name.clone(), -4 * (i as i32 + 1));
    }

    let mut asm = Asm::new();
    asm.push_r(Reg32::Ebp);
    asm.mov_rr(Reg32::Ebp, Reg32::Esp);
    if !locals.is_empty() {
        asm.alu_ri(AluOp::Sub, Reg32::Esp, locals.len() as i32 * 4);
    }
    let epilogue = asm.label();
    let mut ctx = FnCtx {
        func: f,
        asm,
        slots,
        epilogue,
        loops: Vec::new(),
        sigs,
        globals,
    };
    ctx.stmts(&f.body)?;
    // Fall-through return value is 0 (matching `return 0` semantics).
    ctx.asm.mov_ri(Reg32::Eax, 0);
    ctx.asm.bind(epilogue);
    ctx.asm.leave();
    ctx.asm.ret();
    ctx.asm
        .finish()
        .map_err(|e| CompileError::Asm(e.to_string()))
}

/// Compiles a whole module into a relinkable [`Program`].
///
/// A synthetic `_start` is added as the real entry point: it calls the
/// declared entry function and passes its return value to the `exit`
/// syscall.
pub fn compile_module(m: &Module) -> Result<Program, CompileError> {
    let entry = m.entry.as_deref().ok_or(CompileError::NoEntry)?;
    let entry_fn = m
        .funcs
        .iter()
        .find(|f| f.name == entry)
        .ok_or(CompileError::NoEntry)?;

    let mut sigs: Signatures<'_> = HashMap::new();
    for f in &m.funcs {
        sigs.insert(&f.name, f.params.len());
    }
    let globals: Vec<String> = m.globals.iter().map(|g| g.name.clone()).collect();

    let mut prog = Program::new();

    // _start: call entry(0...); exit(result)
    let mut start = Asm::new();
    for _ in 0..entry_fn.params.len() {
        start.push_i(0);
    }
    start.call_sym(entry);
    start.mov_rr(Reg32::Ebx, Reg32::Eax);
    start.mov_ri(Reg32::Eax, 1);
    start.int(0x80);
    prog.add_func(
        "_start",
        start
            .finish()
            .map_err(|e| CompileError::Asm(e.to_string()))?,
    );

    for f in &m.funcs {
        prog.add_func(&f.name, compile_function(f, &sigs, &globals)?);
    }
    for g in &m.globals {
        match &g.init {
            Some(bytes) => {
                prog.add_data(&g.name, bytes.clone());
            }
            None => {
                prog.add_bss(&g.name, g.size);
            }
        }
    }
    prog.set_entry("_start");
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::build::*;
    use crate::ir::{Function, Module};

    fn run_module(m: &Module) -> parallax_vm::Exit {
        let prog = compile_module(m).expect("compiles");
        let img = prog.link().expect("links");
        let mut vm = parallax_vm::Vm::new(&img);
        vm.run()
    }

    #[test]
    fn arithmetic_and_return() {
        let mut m = Module::new();
        m.func(Function::new(
            "main",
            [],
            vec![let_("a", c(6)), let_("b", c(7)), ret(mul(l("a"), l("b")))],
        ));
        m.entry("main");
        assert_eq!(run_module(&m), parallax_vm::Exit::Exited(42));
    }

    #[test]
    fn division_and_modulo() {
        let mut m = Module::new();
        m.func(Function::new(
            "main",
            [],
            vec![
                // (-7 / 2) signed = -3; (-7 % 2) = -1; 7u / 2 = 3; 7u % 2 = 1
                let_("q", divs(c(-7), c(2))),
                let_("r", mods(c(-7), c(2))),
                let_("uq", divu(c(7), c(2))),
                let_("ur", modu(c(7), c(2))),
                // -3 + -1 + 3 + 1 = 0 -> add 5 so exit code is visible
                ret(add(c(5), add(add(l("q"), l("r")), add(l("uq"), l("ur"))))),
            ],
        ));
        m.entry("main");
        assert_eq!(run_module(&m), parallax_vm::Exit::Exited(5));
    }

    #[test]
    fn control_flow_loops() {
        // sum of 1..=100 via while, with break/continue exercised
        let mut m = Module::new();
        m.func(Function::new(
            "main",
            [],
            vec![
                let_("i", c(0)),
                let_("sum", c(0)),
                while_(
                    c(1),
                    vec![
                        let_("i", add(l("i"), c(1))),
                        if_(gt_s(l("i"), c(100)), vec![Stmt::Break], vec![]),
                        if_(eq(modu(l("i"), c(2)), c(0)), vec![Stmt::Continue], vec![]),
                        let_("sum", add(l("sum"), l("i"))),
                    ],
                ),
                ret(l("sum")), // sum of odd numbers 1..100 = 2500
            ],
        ));
        m.entry("main");
        assert_eq!(run_module(&m), parallax_vm::Exit::Exited(2500));
    }

    #[test]
    fn calls_and_recursion() {
        let mut m = Module::new();
        m.func(Function::new(
            "fact",
            ["n"],
            vec![if_(
                le_s(l("n"), c(1)),
                vec![ret(c(1))],
                vec![ret(mul(l("n"), call("fact", vec![sub(l("n"), c(1))])))],
            )],
        ));
        m.func(Function::new(
            "main",
            [],
            vec![ret(call("fact", vec![c(6)]))],
        ));
        m.entry("main");
        assert_eq!(run_module(&m), parallax_vm::Exit::Exited(720));
    }

    #[test]
    fn globals_memory_and_output() {
        let mut m = Module::new();
        m.global("msg", b"hey\n".to_vec());
        m.bss("buf", 16);
        m.func(Function::new(
            "main",
            [],
            vec![
                // copy msg into buf byte by byte, then write(1, buf, 4)
                let_("i", c(0)),
                while_(
                    lt_s(l("i"), c(4)),
                    vec![
                        store8(add(g("buf"), l("i")), load8(add(g("msg"), l("i")))),
                        let_("i", add(l("i"), c(1))),
                    ],
                ),
                expr(syscall(4, vec![c(1), g("buf"), c(4)])),
                ret(load8(add(g("buf"), c(1)))), // 'e' = 101
            ],
        ));
        m.entry("main");
        let prog = compile_module(&m).unwrap();
        let img = prog.link().unwrap();
        let mut vm = parallax_vm::Vm::new(&img);
        assert_eq!(vm.run(), parallax_vm::Exit::Exited(101));
        assert_eq!(vm.output(), b"hey\n");
    }

    #[test]
    fn shifts_and_bitwise() {
        let mut m = Module::new();
        m.func(Function::new(
            "main",
            [],
            vec![
                let_("x", shl(c(1), c(10))),           // 1024
                let_("y", shrl(c(-16), c(28))),        // 0xF
                let_("z", shra(c(-16), c(2))),         // -4
                ret(add(l("x"), add(l("y"), l("z")))), // 1024 + 15 - 4
            ],
        ));
        m.entry("main");
        assert_eq!(run_module(&m), parallax_vm::Exit::Exited(1035));
    }

    #[test]
    fn compile_errors() {
        let sigs = HashMap::new();
        let f = Function::new("f", [], vec![ret(l("nope"))]);
        assert!(matches!(
            compile_function(&f, &sigs, &[]),
            Err(CompileError::UnknownLocal { .. })
        ));

        let f2 = Function::new("f", [], vec![Stmt::Break]);
        assert!(matches!(
            compile_function(&f2, &sigs, &[]),
            Err(CompileError::NotInLoop { .. })
        ));

        let mut m = Module::new();
        m.func(Function::new("main", [], vec![expr(call("nope", vec![]))]));
        m.entry("main");
        assert!(matches!(
            compile_module(&m),
            Err(CompileError::UnknownFunction { .. })
        ));

        let mut m2 = Module::new();
        m2.func(Function::new("g", ["a"], vec![ret(l("a"))]));
        m2.func(Function::new("main", [], vec![expr(call("g", vec![]))]));
        m2.entry("main");
        assert!(matches!(
            compile_module(&m2),
            Err(CompileError::ArityMismatch { .. })
        ));

        let mut m3 = Module::new();
        m3.func(Function::new("main", [], vec![ret(g("nope"))]));
        m3.entry("main");
        assert!(matches!(
            compile_module(&m3),
            Err(CompileError::UnknownGlobal { .. })
        ));
    }

    #[test]
    fn nondeterministic_ptrace_detector_compiles() {
        // The paper's running example, expressed in the IR.
        let mut m = Module::new();
        m.func(Function::new(
            "check_ptrace",
            [],
            vec![if_(
                eq(syscall(26, vec![c(0)]), c(0)),
                vec![ret(c(0))],
                vec![ret(c(1))],
            )],
        ));
        m.func(Function::new(
            "main",
            [],
            vec![ret(call("check_ptrace", vec![]))],
        ));
        m.entry("main");
        let prog = compile_module(&m).unwrap();
        let img = prog.link().unwrap();
        // No debugger: detector returns 0.
        let mut vm = parallax_vm::Vm::new(&img);
        assert_eq!(vm.run(), parallax_vm::Exit::Exited(0));
        // Debugger attached: detector returns 1.
        let mut vm2 = parallax_vm::Vm::new(&img);
        vm2.attach_debugger();
        assert_eq!(vm2.run(), parallax_vm::Exit::Exited(1));
    }
}
