//! Protectable-code-byte analysis — the measurement behind the paper's
//! Figure 6.
//!
//! A code byte is *protectable* under a rule if that rule can craft (or
//! has found) a gadget overlapping the instruction containing the byte.
//! Per the paper, percentages are measured per rule on the unmodified
//! binary; the rules may conflict, so the union ("any") is not the sum.

use std::borrow::Cow;
use std::collections::HashSet;

use parallax_gadgets::{classify, DecodeTable, MAX_GADGET_BYTES};
use parallax_image::LinkedImage;
use parallax_x86::insn::{AluOp, Insn, Mnemonic, OpSize, Operand};
use parallax_x86::{decode, Reg};

/// Per-rule protectable-byte percentages for one image.
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    /// Total code bytes analysed.
    pub code_bytes: usize,
    /// Bytes overlapped by existing near-return gadgets.
    pub existing_near: usize,
    /// Bytes overlapped by existing far-return gadgets.
    pub existing_far: usize,
    /// Bytes protectable by the modified-immediates rule.
    pub immediate: usize,
    /// Bytes protectable by the jump-offset/alignment rule.
    pub jump: usize,
    /// Bytes protectable by at least one rule.
    pub any: usize,
}

impl Coverage {
    fn pct(&self, n: usize) -> f64 {
        if self.code_bytes == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.code_bytes as f64
        }
    }

    /// Percentage covered by existing near-return gadgets.
    pub fn existing_near_pct(&self) -> f64 {
        self.pct(self.existing_near)
    }

    /// Percentage covered by existing far-return gadgets.
    pub fn existing_far_pct(&self) -> f64 {
        self.pct(self.existing_far)
    }

    /// Percentage protectable through immediate modification.
    pub fn immediate_pct(&self) -> f64 {
        self.pct(self.immediate)
    }

    /// Percentage protectable through jump-offset modification.
    pub fn jump_pct(&self) -> f64 {
        self.pct(self.jump)
    }

    /// Percentage protectable by any rule.
    pub fn any_pct(&self) -> f64 {
        self.pct(self.any)
    }
}

/// Instruction families whose immediates the paper's rule modifies
/// (`add`, `adc`, `sub`, `sbb`, `mov`).
fn imm_rule_applies(mn: &Mnemonic, ops: &[Operand], size: OpSize) -> bool {
    if size != OpSize::Dword {
        return false;
    }
    match mn {
        Mnemonic::Mov => {
            matches!(ops.first(), Some(Operand::Reg(Reg::R32(_))))
                && matches!(ops.get(1), Some(Operand::Imm(_)))
        }
        Mnemonic::Alu(AluOp::Add | AluOp::Adc | AluOp::Sub | AluOp::Sbb) => {
            matches!(ops.first(), Some(Operand::Reg(Reg::R32(_))))
                && matches!(ops.get(1), Some(Operand::Imm(_)))
        }
        _ => false,
    }
}

/// Jump-offset rule targets: all `jmp`/`jcc` variants plus `call`.
fn jump_rule_applies(mn: &Mnemonic) -> bool {
    matches!(mn, Mnemonic::Jmp | Mnemonic::Jcc(_) | Mnemonic::Call)
}

/// Work counters of one analysis, read by the unit tests.
#[derive(Debug, Default)]
struct Work {
    /// Function-truncated decodes (the table counts its own).
    decodes: u64,
    /// Planted-return walks started.
    walks: u64,
}

/// The text span of the usable gadget with the farthest start that
/// would end at a bare near `ret` planted at text offset `ret_at`.
/// Returns `(start, end)` offsets, spanning at least the ret byte
/// itself.
///
/// Walks start at the farthest offset, [`MAX_GADGET_BYTES`] back, and
/// move towards the planted byte; the first candidate that classifies
/// ends the search, since its start is the minimum over all of them.
fn planted_gadget_span(table: &DecodeTable, ret_at: usize, work: &mut Work) -> (usize, usize) {
    for start in ret_at.saturating_sub(MAX_GADGET_BYTES)..ret_at {
        work.walks += 1;
        if let Some(cand) = table.planted_candidate(0, start, ret_at) {
            if classify(cand).is_some() {
                return (start, ret_at + 1);
            }
        }
    }
    (ret_at, ret_at + 1)
}

/// The instruction a linear sweep of one function decodes at byte
/// `pos`, where the function's `bytes` start at text offset `f_off`:
/// decoded as if the text ended with the function. The table's slot
/// serves whenever its decode ends inside the function, because a
/// decode depends only on the bytes it read (DESIGN.md §20).
fn func_insn<'a>(
    table: &'a DecodeTable,
    bytes: &[u8],
    f_off: usize,
    pos: usize,
    work: &mut Work,
) -> Option<Cow<'a, Insn>> {
    match table.insn(f_off + pos) {
        Some(insn) if pos + insn.len as usize <= bytes.len() => Some(Cow::Borrowed(insn)),
        Some(_) => {
            work.decodes += 1;
            decode(&bytes[pos..]).ok().map(Cow::Owned)
        }
        None => None,
    }
}

/// Analyses protectable code bytes of `img` per rewriting rule.
///
/// Existing-gadget coverage counts bytes overlapped by *classifiable*
/// gadget candidates (usable by verification code, including NOP-typed
/// ones). For the immediate and jump rules, a byte is protectable if it
/// is overlapped by a gadget that *would exist* after planting a `ret`
/// in the rewritable field — crafted gadgets extend backwards over the
/// instruction's own opcode bytes and its predecessors, exactly as in
/// the paper's `sar byte [ecx+0x7],0x8b ; ret` example.
pub fn analyze(img: &LinkedImage) -> Coverage {
    let table = DecodeTable::new(&img.text);
    measure(img, &table, &mut Work::default(), planted_gadget_span)
}

/// The analysis over one decode table of `img.text`: the existing-gadget
/// scan, the per-function sweep and every planted-return walk read it.
/// `span` finds the gadget span of a planted return:
/// [`planted_gadget_span`], or the window-scan oracle in tests.
fn measure(
    img: &LinkedImage,
    table: &DecodeTable,
    work: &mut Work,
    span: impl Fn(&DecodeTable, usize, &mut Work) -> (usize, usize),
) -> Coverage {
    let code_bytes = img.text.len();
    let mut near: HashSet<u32> = HashSet::new();
    let mut far: HashSet<u32> = HashSet::new();

    // Every copy of a content classifies alike: classify one
    // representative per content, as a gadget pass does.
    let spans = table.spans();
    let classified: Vec<bool> = spans
        .reps
        .iter()
        .map(|&rep| classify(table.assemble(img.text_base, rep)).is_some())
        .collect();
    for span in spans.all.iter().filter(|s| classified[s.content as usize]) {
        let set = if span.far { &mut far } else { &mut near };
        let vaddr = img.text_base + span.start;
        set.extend(vaddr..vaddr + u32::from(span.len));
    }

    let mut imm: HashSet<u32> = HashSet::new();
    let mut jump: HashSet<u32> = HashSet::new();

    // Relocated fields (absolute global addresses and rel32 call/jump
    // targets): the referenced object or callee can be aligned so the
    // field's low byte becomes 0xc3 — the paper's "rearranged code and
    // data" rule covers both.
    let reloc_fields: HashSet<u32> = img.reloc_sites.iter().map(|r| r.vaddr).collect();

    // Walk instructions function by function (linear sweep per symbol).
    for f in img.funcs() {
        let Some(bytes) = img.read(f.vaddr, f.size as usize) else {
            continue;
        };
        let f_off = (f.vaddr - img.text_base) as usize;
        let mut pos = 0usize;
        while pos < bytes.len() {
            let Some(insn) = func_insn(table, bytes, f_off, pos, work) else {
                pos += 1;
                continue;
            };
            let start = f.vaddr + pos as u32;
            let end = start + insn.len as u32;
            if imm_rule_applies(&insn.mnemonic, &insn.ops, insn.size) {
                if let Some(loc) = insn.imm_loc {
                    // A ret can be planted at any byte of the immediate;
                    // take the placement with the widest gadget span.
                    let mut lo = usize::MAX;
                    let mut hi = 0usize;
                    for k in 0..loc.width {
                        let ret_at = f_off + pos + (loc.offset + k) as usize;
                        let (s0, e0) = span(table, ret_at, work);
                        lo = lo.min(s0);
                        hi = hi.max(e0);
                    }
                    // The instruction itself is covered too (splitting
                    // keeps the gadget inside its bytes), as is the span.
                    for b in start..end {
                        imm.insert(b);
                    }
                    for b in lo..hi {
                        imm.insert(img.text_base + b as u32);
                    }
                }
            }
            let mut mark_jump_site = |field_off_in_insn: usize, jump: &mut HashSet<u32>| {
                let ret_at = f_off + pos + field_off_in_insn;
                let (s0, e0) = span(table, ret_at, work);
                for b in start..end {
                    jump.insert(b);
                }
                for b in s0..e0 {
                    jump.insert(img.text_base + b as u32);
                }
            };
            if jump_rule_applies(&insn.mnemonic) {
                if let Some(loc) = insn.rel_loc {
                    // Alignment steers the LOW byte of the offset.
                    mark_jump_site(loc.offset as usize, &mut jump);
                }
            }
            // Absolute-address fields (global references): aligning the
            // referenced data object steers the low byte likewise.
            for k in 0..insn.len as u32 {
                if reloc_fields.contains(&(start + k)) {
                    mark_jump_site(k as usize, &mut jump);
                }
            }
            // Memory displacements: stack-slot displacements are
            // steerable by frame-slot assignment, disp32 fields by data
            // layout — the "rearranged code and data" rule again. (As
            // the paper notes, per-rule counts allow conflicting
            // modifications; not all sites are steerable at once.)
            if let Some(dloc) = insn.disp_loc {
                let rearrangeable = match insn.ops.iter().find_map(|o| match o {
                    parallax_x86::Operand::Mem(mm) => Some(mm),
                    _ => None,
                }) {
                    Some(mm) => mm.base == Some(parallax_x86::Reg32::Ebp) || dloc.width == 4,
                    None => false,
                };
                if rearrangeable {
                    mark_jump_site(dloc.offset as usize, &mut jump);
                }
            }
            pos += insn.len as usize;
        }
    }

    let mut any: HashSet<u32> = HashSet::new();
    any.extend(&near);
    any.extend(&far);
    any.extend(&imm);
    any.extend(&jump);

    Coverage {
        code_bytes,
        existing_near: near.len(),
        existing_far: far.len(),
        immediate: imm.len(),
        jump: jump.len(),
        any: any.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_image::Program;
    use parallax_x86::{Asm, Cond, Reg32};

    #[test]
    fn coverage_counts_rules() {
        let mut a = Asm::new();
        a.mov_ri(Reg32::Eax, 1234); // imm rule: 5 bytes
        let skip = a.label();
        a.jcc(Cond::E, skip); // jump rule: 6 bytes
        a.mov_ri(Reg32::Ecx, 99); // imm rule: 5 bytes
        a.bind(skip);
        a.int(0x80); // neither
        a.ret(); // existing gadget: 1 byte (nop ret)
        let mut p = Program::new();
        p.add_func("main", a.finish().unwrap());
        p.set_entry("main");
        let img = p.link().unwrap();

        let cov = analyze(&img);
        assert_eq!(cov.code_bytes, 19);
        // Both mov-imm instructions (5 bytes each) are imm-rule sites;
        // crafted-gadget spans may extend the count.
        assert!(cov.immediate >= 10);
        // The jcc instruction (6 bytes) is a jump-rule site.
        assert!(cov.jump >= 6);
        assert!(cov.existing_near >= 1);
        assert!(cov.any >= 16);
        assert!(cov.any <= cov.code_bytes);
        assert!(cov.any_pct() > 80.0);
    }

    #[test]
    fn empty_image_is_zero() {
        let mut a = Asm::new();
        a.int(0x80);
        let mut p = Program::new();
        p.add_func("main", a.finish().unwrap());
        p.set_entry("main");
        let img = p.link().unwrap();
        let cov = analyze(&img);
        assert_eq!(cov.immediate, 0);
        assert_eq!(cov.jump, 0);
        assert_eq!(cov.any_pct(), 0.0);
    }

    /// The window scan the table walk replaced, kept as its oracle:
    /// copy the bytes from `MAX_GADGET_BYTES` before `ret_at` to it,
    /// plant `0xc3`, scan the copy, and take the farthest start of a
    /// usable candidate ending at the planted byte.
    fn window_span(text: &[u8], ret_at: usize) -> (usize, usize) {
        let lo = ret_at.saturating_sub(MAX_GADGET_BYTES);
        let mut window = text[lo..=ret_at].to_vec();
        let last = window.len() - 1;
        window[last] = 0xc3;
        let mut best = ret_at;
        for cand in parallax_gadgets::scan(&window, lo as u32) {
            if cand.vaddr as usize + cand.len as usize == ret_at + 1 && classify(&cand).is_some() {
                best = best.min(cand.vaddr as usize);
            }
        }
        (best, ret_at + 1)
    }

    /// `analyze` equals the analysis with window-scan spans, and the
    /// walk finds the oracle's span at every planted site.
    fn assert_matches_oracle(img: &LinkedImage, label: &str) {
        let table = DecodeTable::new(&img.text);
        let mut work = Work::default();
        let oracle = measure(img, &table, &mut work, |t, ret_at, w| {
            let want = window_span(&img.text, ret_at);
            assert_eq!(
                planted_gadget_span(t, ret_at, w),
                want,
                "{label}: ret planted at {ret_at}"
            );
            want
        });
        assert_eq!(analyze(img), oracle, "{label}");
        assert!(work.walks > 0, "{label}: no planted site");
    }

    fn link(module: &parallax_compiler::Module) -> LinkedImage {
        parallax_compiler::compile_module(module)
            .expect("compiles")
            .link()
            .expect("links")
    }

    #[test]
    fn planted_walks_match_window_scans_on_the_corpus() {
        for w in parallax_corpus::all() {
            assert_matches_oracle(&link(&(w.module)()), w.name);
        }
    }

    #[test]
    fn planted_walks_match_window_scans_on_random_programs() {
        for seed in 0..25 {
            let module = parallax_corpus::randprog::Gen::new(seed).module();
            assert_matches_oracle(&link(&module), &format!("randprog {seed}"));
        }
    }

    /// A randprog module grown by the `vf` bodies of 30 other seeds:
    /// text as large as a protect-large module's (~21 KB).
    #[test]
    fn planted_walks_match_window_scans_on_a_large_module() {
        let mut module = parallax_corpus::randprog::Gen::new(1).module();
        for i in 0..30 {
            let donor = parallax_corpus::randprog::Gen::new(2 * i + 3).module();
            let mut f = donor.get_func("vf").expect("defines vf").clone();
            f.name = format!("f{i}");
            module.func(f);
        }
        let img = link(&module);
        assert!(img.text.len() >= 20_000, "{} bytes of text", img.text.len());
        assert_matches_oracle(&img, "large module");
    }

    /// The per-rule byte counts of the six corpus programs, the rows of
    /// Figure 6 (`fig6_protectability`): code bytes, existing near,
    /// existing far, immediates, jump offsets, any rule.
    #[test]
    fn corpus_coverage_is_pinned() {
        let pinned = [
            ("wget", [1528, 46, 5, 634, 747, 1074]),
            ("nginx", [1874, 46, 0, 742, 952, 1340]),
            ("bzip2", [1341, 36, 0, 493, 666, 913]),
            ("gzip", [1600, 36, 0, 620, 784, 1090]),
            ("gcc", [1900, 36, 0, 754, 950, 1322]),
            ("lame", [1139, 36, 0, 442, 564, 814]),
        ];
        let got: Vec<_> = parallax_corpus::all()
            .iter()
            .map(|w| {
                let c = analyze(&link(&(w.module)()));
                let counts = [
                    c.code_bytes,
                    c.existing_near,
                    c.existing_far,
                    c.immediate,
                    c.jump,
                    c.any,
                ];
                (w.name, counts)
            })
            .collect();
        assert_eq!(got, pinned);
    }

    /// One table serves the whole analysis: at most one decode per text
    /// offset, plus the decodes a function's end truncates, which start
    /// in its last 14 bytes (an instruction is at most 15 bytes long).
    #[test]
    fn one_table_decode_per_offset_plus_truncated_function_ends() {
        for w in parallax_corpus::all() {
            let img = link(&(w.module)());
            let table = DecodeTable::new(&img.text);
            let mut work = Work::default();
            assert_eq!(
                measure(&img, &table, &mut work, planted_gadget_span),
                analyze(&img)
            );
            assert!(table.stats().decoded > 0, "{}", w.name);
            assert!(table.stats().decoded <= img.text.len() as u64, "{}", w.name);
            let funcs = img.funcs().count() as u64;
            assert!(work.decodes <= 14 * funcs, "{}: {work:?}", w.name);
        }
    }

    /// The sweep's table-served instruction is the one decoded from the
    /// function's own bytes, at every byte of every corpus function.
    #[test]
    fn sweep_decodes_match_function_truncated_decodes() {
        for w in parallax_corpus::all() {
            let img = link(&(w.module)());
            let table = DecodeTable::new(&img.text);
            for f in img.funcs() {
                let bytes = img.read(f.vaddr, f.size as usize).expect("in text");
                let f_off = (f.vaddr - img.text_base) as usize;
                for pos in 0..bytes.len() {
                    let got = func_insn(&table, bytes, f_off, pos, &mut Work::default());
                    assert_eq!(
                        got.as_deref(),
                        decode(&bytes[pos..]).ok().as_ref(),
                        "{} {} +{pos}",
                        w.name,
                        f.name
                    );
                }
            }
        }
    }
}
