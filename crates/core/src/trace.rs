//! VM-side chain telemetry: [`ChainTracer`] builders that attribute
//! gadget dispatches in a protected image to their verification
//! functions. Pipeline-side telemetry needs no adapter — the pipeline
//! writes spans and counters straight to the run's tracer (see
//! [`crate::Ctx`]).

use std::collections::HashMap;

use parallax_gadgets::{find_gadgets, Effect};
use parallax_image::LinkedImage;
use parallax_vm::ChainTracer;

use crate::protect::Protected;

/// The short kind label a gadget dispatch is tagged with (its primary
/// effect's variant name, or `"Nop"` for pure filler).
pub fn effect_kind(e: &Effect) -> &'static str {
    match e {
        Effect::LoadConst { .. } => "LoadConst",
        Effect::MovReg { .. } => "MovReg",
        Effect::Binary { .. } => "Binary",
        Effect::Neg { .. } => "Neg",
        Effect::Not { .. } => "Not",
        Effect::LoadMem { .. } => "LoadMem",
        Effect::StoreMem { .. } => "StoreMem",
        Effect::AddMem { .. } => "AddMem",
        Effect::PopEsp => "PopEsp",
        Effect::AddEsp { .. } => "AddEsp",
        Effect::Syscall => "Syscall",
        Effect::ShiftCl { .. } => "ShiftCl",
        Effect::MovLow8 { .. } => "MovLow8",
        Effect::Nop => "Nop",
    }
}

/// Builds a [`ChainTracer`] for a protected image: every gadget
/// address the report's chains use is registered with its effect kind,
/// and every verification function's entry point is registered so VM
/// runs attribute chain executions to it. Install the result with
/// [`parallax_vm::Vm::set_chain_tracer`].
pub fn chain_tracer_for(protected: &Protected) -> ChainTracer {
    let mut ct = ChainTracer::new();
    let kind_of: HashMap<u32, &'static str> = find_gadgets(&protected.image)
        .iter()
        .map(|g| {
            let kind = g.effects.first().map(effect_kind).unwrap_or("Nop");
            (g.vaddr, kind)
        })
        .collect();
    let entry_of: HashMap<&str, u32> = protected
        .image
        .funcs()
        .map(|s| (s.name.as_str(), s.vaddr))
        .collect();
    for chain in &protected.report.chains {
        if let Some(&entry) = entry_of.get(chain.func.as_str()) {
            ct.register_verify(entry, &chain.func);
        }
        for &vaddr in &chain.used_gadgets {
            let kind = kind_of.get(&vaddr).copied().unwrap_or("Unknown");
            ct.register_gadget(vaddr, kind);
        }
    }
    ct
}

/// [`chain_tracer_for`] from the image alone, when no
/// [`crate::protect::ProtectReport`] is at hand (e.g. `plx run` on a
/// saved `.plx` file). Every discovered gadget is registered, and
/// verification entries are recovered from the `__plx_chain_<func>`
/// symbols the protection pipeline emits.
pub fn chain_tracer_for_image(img: &LinkedImage) -> ChainTracer {
    let mut ct = ChainTracer::new();
    for g in find_gadgets(img) {
        let kind = g.effects.first().map(effect_kind).unwrap_or("Nop");
        ct.register_gadget(g.vaddr, kind);
    }
    let entry_of: HashMap<&str, u32> = img.funcs().map(|s| (s.name.as_str(), s.vaddr)).collect();
    for sym in &img.symbols {
        if let Some(func) = sym.name.strip_prefix("__plx_chain_") {
            if let Some(&entry) = entry_of.get(func) {
                ct.register_verify(entry, func);
            }
        }
    }
    ct
}
