//! Inputs shared by the gadget pass's differential suites: the
//! `(pass 1, pass 2)` images `protect()` links, protect-large-sized
//! generated modules, and programs relinked with more data.

use std::sync::Mutex;

use parallax_compiler::{compile_module, Module};
use parallax_core::{protect_with, ArtifactStore, ChainMode, Ctx, ProtectConfig};
use parallax_gadgets::scan::scan;
use parallax_gadgets::validate::scratch_pointer;
use parallax_gadgets::{Candidate, Gadget, ProbeVm};
use parallax_image::{LinkedImage, Program};
use parallax_x86::{AluOp, Asm, Mem, Reg32};

/// Records every image `protect()` scans, in order: pass 1 then pass 2
/// of each pipeline attempt. Never serves a scan, so each one is fresh.
#[derive(Default)]
struct ScannedImages(Mutex<Vec<LinkedImage>>);

impl ArtifactStore for ScannedImages {
    fn store_scan(&self, img: &LinkedImage, _gadgets: &[Gadget]) {
        self.0.lock().unwrap().push(img.clone());
    }
}

/// The `(pass 1, pass 2)` image pairs of one protection run.
pub fn fixpoint_pairs(
    prog: Program,
    verify: &str,
    module: &Module,
    mode: ChainMode,
) -> Vec<(LinkedImage, LinkedImage)> {
    let cfg = ProtectConfig {
        verify_funcs: vec![verify.to_owned()],
        mode,
        ..ProtectConfig::default()
    };
    let store = ScannedImages::default();
    let impls = cfg
        .verify_impls(module)
        .expect("verification function exists");
    let ctx = Ctx {
        store: &store,
        ..Ctx::default()
    };
    protect_with(prog, &impls, &cfg, &ctx).expect("protects");
    let imgs = store.0.into_inner().unwrap();
    assert!(
        imgs.len() >= 2 && imgs.len() % 2 == 0,
        "{} scans",
        imgs.len()
    );
    imgs.chunks_exact(2)
        .map(|p| (p[0].clone(), p[1].clone()))
        .collect()
}

/// A `randprog` module grown by 30 functions, each the `vf` body of
/// another seed: ~21 KB of text, the size of the benchmark's
/// protect-large modules.
pub fn large_module(seed: u64) -> Module {
    let mut m = parallax_corpus::randprog::Gen::new(seed).module();
    for i in 0..30u64 {
        let donor = parallax_corpus::randprog::Gen::new(seed.wrapping_mul(31) + 2 * i + 1).module();
        let mut f = donor.get_func("vf").expect("randprog defines vf").clone();
        f.name = format!("f{i}");
        m.func(f);
    }
    m
}

/// The `Gen` seeds of the large-module checks: a few in every test
/// run, more in the ignored variant CI's release step runs (as `2k + 1`:
/// `Gen::new` ORs its seed with 1).
pub const LARGE_SEEDS: [u64; 3] = [1, 7, 4095];
pub const MORE_LARGE_SEEDS: std::ops::Range<u64> = 100..164;

/// `prog` linked as is, and relinked with its last data item grown by
/// `grow` bytes, which moves the heap base.
pub fn shifted_pair(mut prog: Program, grow: usize) -> (LinkedImage, LinkedImage) {
    let img1 = prog.link().expect("links");
    let item = img1
        .symbols
        .iter()
        .filter(|s| prog.data_item(&s.name).is_some())
        .max_by_key(|s| s.vaddr)
        .expect("program has data")
        .name
        .clone();
    let last = prog.data_item_mut(&item).expect("data item");
    if last.bytes.is_empty() {
        last.bss_size += grow as u32;
    } else {
        last.bytes.resize(last.bytes.len() + grow, 0);
    }
    (img1, prog.link().expect("relinks"))
}

/// A protect-large-sized generated program with one more function,
/// `cmp eax, [ecx+disp]; ret`, whose access lands on the first byte
/// past the heap, in the unmapped gap below the stack region. Returns
/// the gadget's candidate, that image, and the image relinked with its
/// last data item grown by a page, whose heap holds that byte.
pub fn generated_heap_edge(seed: u64) -> (Candidate, LinkedImage, LinkedImage) {
    heap_edge_fixture(seed, "cmp eax,", |f, disp| {
        f.alu_rm(AluOp::Cmp, Reg32::Eax, Mem::base_disp(Reg32::Ecx, disp));
        f.ret();
    })
}

/// [`generated_heap_edge`]'s byte reached by a defined syscall rather
/// than by an access the classifier resolves: `cmp eax, [ecx]; add ecx,
/// disp; mov eax, 4; mov edx, 1; int 0x80; ret` writes the one byte
/// past the heap from a scratch-rooted ecx. `write` faults on the
/// unmapped byte and returns once the heap holds it.
pub fn generated_heap_edge_write(seed: u64) -> (Candidate, LinkedImage, LinkedImage) {
    heap_edge_fixture(seed, "cmp eax,[ecx]; add ecx,", |f, disp| {
        f.alu_rm(AluOp::Cmp, Reg32::Eax, Mem::base(Reg32::Ecx));
        f.alu_ri32(AluOp::Add, Reg32::Ecx, disp);
        f.mov_ri(Reg32::Eax, 4);
        f.mov_ri(Reg32::Edx, 1);
        f.int(0x80);
        f.ret();
    })
}

/// `large_module(seed)` plus a function `heap_edge` that `body`
/// assembles around a displacement taking ecx's scratch pointer to the
/// first byte past the heap, linked as is and relinked with a page
/// more data; the function's candidate is the one whose disassembly
/// starts with `prefix`.
fn heap_edge_fixture(
    seed: u64,
    prefix: &str,
    body: impl Fn(&mut Asm, i32),
) -> (Candidate, LinkedImage, LinkedImage) {
    let prog = |disp: i32| {
        let mut prog = compile_module(&large_module(seed)).expect("randprog compiles");
        let mut f = Asm::new();
        body(&mut f, disp);
        prog.add_func("heap_edge", f.finish().expect("assembles"));
        prog
    };
    // Every 32-bit displacement gives the same layout.
    let probe_img = prog(-0x0300_0000).link().expect("links");
    let heap_end = ProbeVm::new(&probe_img).heap_base() + parallax_vm::HEAP_SIZE;
    let disp = heap_end.wrapping_sub(scratch_pointer(Reg32::Ecx)) as i32;
    assert!(disp < 0, "{disp:#x}");
    let (img1, img2) = shifted_pair(prog(disp), 4096);
    assert_eq!(img1.text.len(), probe_img.text.len());
    let at = img1
        .symbols
        .iter()
        .find(|s| s.name == "heap_edge")
        .expect("fixture linked")
        .vaddr;
    let cand = scan(&img1.text, img1.text_base)
        .into_iter()
        .find(|c| c.vaddr == at && c.disasm().starts_with(prefix))
        .expect("fixture scanned");
    (cand, img1, img2)
}
