//! Deterministic fault injection for the protection pipeline.
//!
//! Robustness harness (not part of the paper's threat model): a
//! [`FaultPlan`] perturbs the pipeline at a chosen stage boundary so
//! tests can assert that every failure surfaces as the correct typed
//! [`ProtectError`](crate::ProtectError) — never a panic — and that
//! post-link corruption is classified by the tamper-verdict watchdog
//! ([`crate::tamper::classify`]) rather than crashing the VM.
//!
//! Two layers of perturbation:
//!
//! * **Pipeline faults** ([`FaultPlan`], passed to
//!   [`protect_with`](crate::protect_with) in its [`Ctx`](crate::Ctx))
//!   — applied to the [`Program`] between pipeline stages, before the
//!   image exists: undecodable function bodies (→ `Rewrite`), dropped
//!   chain frames and corrupted relocation records (→ `Link`), emptied
//!   gadget scans (→ `GadgetScan`).
//! * **Image faults** ([`truncate_chain`], [`flip_byte`]) — applied to
//!   the final [`LinkedImage`], modelling an adversary or bit-rot;
//!   their effect is observed at run time and classified by the
//!   watchdog.
//! * **Loader faults** ([`ImageFault`], applied by
//!   [`apply_image_fault`]) — applied to the *serialized* `.plx`
//!   bytes, modelling corruption or malicious re-linking on the
//!   distribution channel. Unlike the watchdog layer these must never
//!   reach execution: the fail-closed loader
//!   ([`crate::load_verified_image_strict`]) rejects every one with a
//!   typed [`ImageVerifyError`](parallax_image::ImageVerifyError)
//!   before a single VM cycle.

use std::collections::HashSet;

use parallax_image::{format, LinkedImage, Program};
use parallax_x86::decode;

/// A deterministic set of perturbations applied at stage boundaries.
///
/// The default plan injects nothing; every build without one runs
/// through the same code path with an empty plan, so the injection
/// seams are always exercised.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    undecodable_funcs: Vec<String>,
    dropped_frames: Vec<String>,
    corrupt_reloc: Option<usize>,
    empty_gadget_scan: bool,
    poison_scan_cache: bool,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            undecodable_funcs: Vec::new(),
            dropped_frames: Vec::new(),
            corrupt_reloc: None,
            empty_gadget_scan: false,
            poison_scan_cache: false,
        }
    }

    /// Overwrites `func`'s body with undecodable bytes before the
    /// rewriting rules run. Expected failure: `Rewrite` stage.
    pub fn undecodable_func(mut self, func: impl Into<String>) -> FaultPlan {
        self.undecodable_funcs.push(func.into());
        self
    }

    /// Skips allocating the chain frame for verification function
    /// `func`. The loader stub still references the frame symbol, so
    /// the expected failure is the `Link` stage (undefined symbol).
    pub fn drop_frame(mut self, func: impl Into<String>) -> FaultPlan {
        self.dropped_frames.push(func.into());
        self
    }

    /// Renames the `nth` function relocation (in layout order) to an
    /// undefined symbol before linking. Expected failure: `Link` stage.
    pub fn corrupt_reloc(mut self, nth: usize) -> FaultPlan {
        self.corrupt_reloc = Some(nth);
        self
    }

    /// Discards every discovered gadget. Expected failure:
    /// `GadgetScan` stage.
    pub fn empty_gadget_scan(mut self) -> FaultPlan {
        self.empty_gadget_scan = true;
        self
    }

    /// Poisoned-cache-entry scenario: asks the batch engine to corrupt
    /// the stored bytes of this job's cached artifacts before they are
    /// consulted, modelling on-disk bit-rot (or tampering) in the
    /// artifact cache. Expected behavior: *no failure* — the cache
    /// detects the content-hash mismatch on load, evicts the entry, and
    /// recomputes, so the job's output is byte-identical to an
    /// uncached run. Consumed by `parallax-engine`, not the pipeline.
    pub fn poison_scan_cache(mut self) -> FaultPlan {
        self.poison_scan_cache = true;
        self
    }

    /// True when [`Self::poison_scan_cache`] was requested (read by the
    /// batch engine).
    pub fn poisons_scan_cache(&self) -> bool {
        self.poison_scan_cache
    }

    /// The plan with cache-layer faults removed — the
    /// pipeline-affecting remainder. Cache poisoning is detected and
    /// healed by the artifact cache, so it never changes the protected
    /// output; cache keys must therefore be derived from this
    /// normalized plan, or a poisoned run would silently key away from
    /// the very entries the scenario poisons.
    pub fn without_cache_faults(&self) -> FaultPlan {
        FaultPlan {
            poison_scan_cache: false,
            ..self.clone()
        }
    }

    pub(crate) fn drops_frame(&self, func: &str) -> bool {
        self.dropped_frames.iter().any(|f| f == func)
    }

    pub(crate) fn empties_gadget_scan(&self) -> bool {
        self.empty_gadget_scan
    }

    /// Applied before the rewriting rules see the program.
    pub(crate) fn apply_pre_rewrite(&self, prog: &mut Program) {
        for name in &self.undecodable_funcs {
            if let Some(func) = prog.func_mut(name) {
                // 0xff 0xff is an undefined /7 form of the FF group —
                // guaranteed to fail instruction decoding.
                func.bytes = vec![0xff; 8.max(func.bytes.len())];
                func.relocs.clear();
                func.markers.clear();
            }
        }
    }

    /// Applied after stubs are installed, before the first link.
    pub(crate) fn apply_pre_link(&self, prog: &mut Program) {
        let Some(nth) = self.corrupt_reloc else {
            return;
        };
        let names: Vec<String> = prog.func_names().map(str::to_owned).collect();
        let mut seen = 0usize;
        for name in names {
            let Some(func) = prog.func_mut(&name) else {
                continue;
            };
            for reloc in &mut func.relocs {
                if seen == nth {
                    reloc.symbol = "__fault_injected_undefined__".to_owned();
                    return;
                }
                seen += 1;
            }
        }
    }
}

/// Flips one bit in the middle of a serialized cache artifact —
/// the corruption primitive behind [`FaultPlan::poison_scan_cache`].
/// Returns false (and leaves the blob alone) when it is empty.
pub fn poison_cache_blob(blob: &mut [u8]) -> bool {
    if blob.is_empty() {
        return false;
    }
    let mid = blob.len() / 2;
    blob[mid] ^= 0x40;
    true
}

/// Truncates the serialized chain of verification function `func` to
/// its first `keep_words` 32-bit words, zeroing the rest (cleartext
/// chains only — the chain is the static data object
/// `__plx_chain_{func}`). Returns false when the chain object is
/// absent or lives in BSS (dynamic modes).
pub fn truncate_chain(img: &mut LinkedImage, func: &str, keep_words: usize) -> bool {
    let sym = match img.symbol(&format!("__plx_chain_{func}")) {
        Some(s) => s.clone(),
        None => return false,
    };
    let total_words = (sym.size as usize) / 4;
    if keep_words >= total_words {
        return false;
    }
    let start = sym.vaddr + (keep_words * 4) as u32;
    let zeros = vec![0u8; (total_words - keep_words) * 4];
    img.write(start, &zeros)
}

/// Flips one bit (XOR `0x01`) of the byte at `vaddr`. Returns false
/// when `vaddr` is outside the image.
pub fn flip_byte(img: &mut LinkedImage, vaddr: u32) -> bool {
    let Some(bytes) = img.read(vaddr, 1) else {
        return false;
    };
    let flipped = bytes[0] ^ 0x01;
    img.write(vaddr, &[flipped])
}

/// One corruption of a *serialized* protected image — the loader
/// fault-injection campaign's unit of work.
///
/// The byte-level faults (`Truncate`, `BitFlip`) model channel
/// corruption and are caught by the container parser / content
/// digest. The re-linking faults parse the image, perturb it, and
/// save it again — so the digest is *freshly valid* and only the
/// structural verifier stands between the fault and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageFault {
    /// Keep only the first `keep` bytes of the file.
    Truncate {
        /// Prefix length to keep.
        keep: usize,
    },
    /// XOR one bit of the byte at `offset`.
    BitFlip {
        /// File offset of the byte.
        offset: usize,
        /// Bit index (0–7).
        bit: u8,
    },
    /// Re-link the `index`-th retained relocation to an undefined
    /// symbol (the reloc-swap attack). Expected rejection:
    /// `reloc-unknown-symbol`.
    RelocRetarget {
        /// Index into the relocation table.
        index: usize,
    },
    /// Redirect the first in-map gadget word of `func`'s cleartext
    /// chain to an *equivalent out-of-map gadget*: a text address that
    /// still decodes to a `ret`-terminated sequence but is neither a
    /// scanned gadget, a function entry, nor a marker. Expected
    /// rejection (strict loader): `chain-word-out-of-map`.
    ChainRedirect {
        /// The verification function whose chain is redirected.
        func: String,
    },
    /// Splice the first symbol whose name contains `name_contains` so
    /// its range escapes its section — the serialized analogue of a
    /// gadget-map entry splice. Expected rejection:
    /// `symbol-out-of-range`.
    SymbolSplice {
        /// Substring selecting the symbol to splice.
        name_contains: String,
    },
}

/// Applies `fault` to serialized image bytes, returning the corrupted
/// file. Returns `None` when the fault is inapplicable to this image
/// (e.g. no relocations to retarget, or the named chain is absent /
/// not cleartext) — campaigns skip those combinations rather than
/// assert on them.
pub fn apply_image_fault(bytes: &[u8], fault: &ImageFault) -> Option<Vec<u8>> {
    match fault {
        ImageFault::Truncate { keep } => {
            if *keep >= bytes.len() {
                return None;
            }
            Some(bytes[..*keep].to_vec())
        }
        ImageFault::BitFlip { offset, bit } => {
            if *offset >= bytes.len() || *bit >= 8 {
                return None;
            }
            let mut out = bytes.to_vec();
            out[*offset] ^= 1 << bit;
            Some(out)
        }
        ImageFault::RelocRetarget { index } => {
            let mut img = format::load(bytes).ok()?;
            let site = img.reloc_sites.get_mut(*index)?;
            site.symbol = "__plx_fault_retargeted__".to_owned();
            Some(format::save(&img))
        }
        ImageFault::ChainRedirect { func } => {
            let mut img = format::load(bytes).ok()?;
            let target = out_of_map_gadget(&img)?;
            let sym = img.symbol(&format!("__plx_chain_{func}"))?.clone();
            if sym.vaddr < img.data_base || sym.vaddr + sym.size > img.data_end() {
                return None; // BSS-resident chain: nothing to redirect
            }
            let gadgets: HashSet<u32> = parallax_gadgets::find_gadgets(&img)
                .iter()
                .map(|g| g.vaddr)
                .collect();
            let chain = img.read(sym.vaddr, sym.size as usize)?.to_vec();
            for (i, w) in chain.chunks_exact(4).enumerate() {
                let value = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
                if gadgets.contains(&value) {
                    img.write(sym.vaddr + (i * 4) as u32, &target.to_le_bytes());
                    return Some(format::save(&img));
                }
            }
            None
        }
        ImageFault::SymbolSplice { name_contains } => {
            let mut img = format::load(bytes).ok()?;
            let sym = img
                .symbols
                .iter_mut()
                .find(|s| s.name.contains(name_contains.as_str()))?;
            sym.size = 0x7fff_0000;
            Some(format::save(&img))
        }
    }
}

/// Finds a text address that decodes to a short `ret`-terminated
/// sequence — a perfectly serviceable gadget — but is not in the
/// scanned gadget map, not a function entry, and not a marker. This
/// is the chain-stitching adversary's raw material.
fn out_of_map_gadget(img: &LinkedImage) -> Option<u32> {
    let allowed: HashSet<u32> = parallax_gadgets::find_gadgets(img)
        .iter()
        .map(|g| g.vaddr)
        .chain(img.symbols.iter().map(|s| s.vaddr))
        .chain(img.markers.values().copied())
        .collect();
    for off in 0..img.text.len() {
        let vaddr = img.text_base + off as u32;
        if allowed.contains(&vaddr) {
            continue;
        }
        let window = &img.text[off..img.text.len().min(off + 64)];
        let mut pos = 0usize;
        for _ in 0..16 {
            let Ok(insn) = decode(&window[pos..]) else {
                break;
            };
            if insn.is_ret() {
                return Some(vaddr);
            }
            pos += insn.len as usize;
            if pos >= window.len() {
                break;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.empties_gadget_scan());
        assert!(!plan.drops_frame("f"));
        let mut prog = Program::new();
        prog.add_bss("x", 4);
        plan.apply_pre_rewrite(&mut prog);
        plan.apply_pre_link(&mut prog);
    }
}
