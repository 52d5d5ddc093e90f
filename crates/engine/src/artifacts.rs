//! Typed payload codecs for the artifact cache.
//!
//! Gadget scans have their own codec in `parallax-gadgets`
//! (`serialize_gadgets`): it writes each distinct gadget record once
//! and each gadget as its vaddr and a record index, so a scan payload
//! costs per content, not per copy, and a scan-cache hit hands the
//! pipeline copies that share their content's record, as a fresh scan
//! does. A scan payload of another container version (`PGS\x01` files
//! an older build left in a cache directory) decodes as `None` and is
//! rescanned. This module covers the engine-specific artifacts — one
//! function's pass-1 rewrite and the full protected result — in the
//! same hand-rolled little-endian style. Decoders are total: malformed
//! bytes yield `None` (a cache miss), never a panic. The cache keeps
//! every payload at its exact length (see `cache`).

use parallax_core::ProtectReport;
use parallax_image::program::FuncItem;
use parallax_rewrite::{FuncRewriteOutcome, ImmRewrite, JumpRewrite};
use parallax_x86::{RelocKind, SymReloc};

const PROTECTED_MAGIC: &[u8; 4] = b"PPR\x01";
const REWRITTEN_FUNC_MAGIC: &[u8; 4] = b"PRF\x01";

/// Per-chain statistics preserved through the protected-artifact cache
/// (the subset of [`parallax_core::ChainInfo`] the batch reports use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSummary {
    /// The translated verification function.
    pub func: String,
    /// Gadget invocations in the chain.
    pub ops: usize,
    /// Chain length in 32-bit words.
    pub words: usize,
    /// Distinct gadgets used that overlap protected instructions.
    pub overlapping_used: usize,
    /// Distinct gadget addresses used.
    pub used_gadgets: usize,
}

/// A decoded protected-result artifact.
#[derive(Debug, Clone)]
pub struct ProtectedArtifact {
    /// The final image, in `PLX` container bytes.
    pub image: Vec<u8>,
    /// Total usable gadgets discovered.
    pub gadget_count: usize,
    /// Per-chain statistics.
    pub chains: Vec<ChainSummary>,
    /// How many degradation-ladder fallbacks the build took.
    pub degradations: usize,
}

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.out.extend_from_slice(v);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let slice = self.buf.get(self.pos..end)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(slice);
        self.pos = end;
        Some(u64::from_le_bytes(raw))
    }
    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.usize()?;
        let end = self.pos.checked_add(len)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }
    fn str(&mut self) -> Option<String> {
        Some(std::str::from_utf8(self.bytes()?).ok()?.to_owned())
    }
}

/// Encodes a protected result (image bytes + compact report).
pub fn encode_protected(image: &[u8], report: &ProtectReport) -> Vec<u8> {
    let mut w = Writer {
        out: PROTECTED_MAGIC.to_vec(),
    };
    w.u64(report.gadget_count as u64);
    w.u64(report.degradations.len() as u64);
    w.u64(report.chains.len() as u64);
    for c in &report.chains {
        w.bytes(c.func.as_bytes());
        w.u64(c.ops as u64);
        w.u64(c.words as u64);
        w.u64(c.overlapping_used as u64);
        w.u64(c.used_gadgets.len() as u64);
    }
    w.bytes(image);
    w.out
}

/// Decodes a protected result.
pub fn decode_protected(bytes: &[u8]) -> Option<ProtectedArtifact> {
    if bytes.len() < 4 || &bytes[..4] != PROTECTED_MAGIC {
        return None;
    }
    let mut r = Reader { buf: bytes, pos: 4 };
    let gadget_count = r.usize()?;
    let degradations = r.usize()?;
    let n_chains = r.usize()?;
    let mut chains = Vec::with_capacity(n_chains.min(1024));
    for _ in 0..n_chains {
        chains.push(ChainSummary {
            func: r.str()?,
            ops: r.usize()?,
            words: r.usize()?,
            overlapping_used: r.usize()?,
            used_gadgets: r.usize()?,
        });
    }
    let image = r.bytes()?.to_vec();
    (r.pos == bytes.len()).then_some(ProtectedArtifact {
        image,
        gadget_count,
        chains,
        degradations,
    })
}

/// Encodes a per-function pass-1 rewrite outcome.
pub fn encode_rewritten_func(o: &FuncRewriteOutcome) -> Vec<u8> {
    let mut w = Writer {
        out: REWRITTEN_FUNC_MAGIC.to_vec(),
    };
    w.bytes(o.item.name.as_bytes());
    w.bytes(&o.item.bytes);
    w.u64(o.item.relocs.len() as u64);
    for r in &o.item.relocs {
        w.u64(r.offset as u64);
        w.bytes(r.symbol.as_bytes());
        w.u64(match r.kind {
            RelocKind::Rel32 => 0,
            RelocKind::Abs32 => 1,
        });
        w.u64(r.addend as u32 as u64);
    }
    // Markers sorted: the encoding must be canonical, not HashMap
    // iteration order.
    let mut markers: Vec<(&String, &usize)> = o.item.markers.iter().collect();
    markers.sort();
    w.u64(markers.len() as u64);
    for (k, v) in markers {
        w.bytes(k.as_bytes());
        w.u64(*v as u64);
    }
    w.u64(o.item.pad_before as u64);
    w.u64(o.imm.len() as u64);
    for im in &o.imm {
        w.u64(im.idx as u64);
        w.bytes(im.desc.as_bytes());
        w.u64(im.new_value as u32 as u64);
    }
    w.u64(o.jumps.len() as u64);
    for j in &o.jumps {
        w.bytes(j.func.as_bytes());
        w.u64(j.ret_byte_off as u64);
        w.u64(j.padding as u64);
        w.u64(u64::from(j.via_callee));
    }
    w.out
}

/// Decodes a per-function pass-1 rewrite outcome.
pub fn decode_rewritten_func(bytes: &[u8]) -> Option<FuncRewriteOutcome> {
    if bytes.len() < 4 || &bytes[..4] != REWRITTEN_FUNC_MAGIC {
        return None;
    }
    let mut r = Reader { buf: bytes, pos: 4 };
    let name = r.str()?;
    let code = r.bytes()?.to_vec();
    let n_relocs = r.usize()?;
    let mut relocs = Vec::with_capacity(n_relocs.min(4096));
    for _ in 0..n_relocs {
        relocs.push(SymReloc {
            offset: r.usize()?,
            symbol: r.str()?,
            kind: match r.u64()? {
                0 => RelocKind::Rel32,
                1 => RelocKind::Abs32,
                _ => return None,
            },
            addend: r.u64()? as u32 as i32,
        });
    }
    let n_markers = r.usize()?;
    let mut markers = std::collections::HashMap::with_capacity(n_markers.min(4096));
    for _ in 0..n_markers {
        let k = r.str()?;
        let v = r.usize()?;
        markers.insert(k, v);
    }
    let pad_before = u32::try_from(r.u64()?).ok()?;
    let n_imm = r.usize()?;
    let mut imm = Vec::with_capacity(n_imm.min(4096));
    for _ in 0..n_imm {
        imm.push(ImmRewrite {
            idx: r.usize()?,
            desc: r.str()?,
            new_value: r.u64()? as u32 as i32,
        });
    }
    let n_jumps = r.usize()?;
    let mut jumps = Vec::with_capacity(n_jumps.min(4096));
    for _ in 0..n_jumps {
        jumps.push(JumpRewrite {
            func: r.str()?,
            ret_byte_off: r.usize()?,
            padding: u32::try_from(r.u64()?).ok()?,
            via_callee: r.u64()? != 0,
        });
    }
    (r.pos == bytes.len()).then_some(FuncRewriteOutcome {
        item: FuncItem {
            name,
            bytes: code,
            relocs,
            markers,
            pad_before,
        },
        imm,
        jumps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_roundtrip() {
        let report = ProtectReport {
            rewrites: Default::default(),
            chains: vec![parallax_core::ChainInfo {
                func: "vf".into(),
                ops: 10,
                words: 40,
                used_gadgets: vec![0x1000, 0x1005],
                overlapping_used: 1,
            }],
            gadget_count: 77,
            degradations: Vec::new(),
        };
        let bytes = encode_protected(b"IMAGEBYTES", &report);
        let a = decode_protected(&bytes).unwrap();
        assert_eq!(a.image, b"IMAGEBYTES");
        assert_eq!(a.gadget_count, 77);
        assert_eq!(a.chains.len(), 1);
        assert_eq!(a.chains[0].func, "vf");
        assert_eq!(a.chains[0].used_gadgets, 2);
        assert!(decode_protected(&bytes[..10]).is_none());
        let mut extra = bytes.clone();
        extra.push(1);
        assert!(decode_protected(&extra).is_none());
    }

    #[test]
    fn rewritten_func_roundtrip() {
        let mut markers = std::collections::HashMap::new();
        markers.insert("site0".to_string(), 7usize);
        markers.insert("site1".to_string(), 19usize);
        let o = FuncRewriteOutcome {
            item: FuncItem {
                name: "frob".into(),
                bytes: vec![0x90, 0xc3, 0xb8, 0x01],
                relocs: vec![SymReloc {
                    offset: 3,
                    symbol: "callee".into(),
                    kind: RelocKind::Rel32,
                    addend: -4,
                }],
                markers,
                pad_before: 2,
            },
            imm: vec![ImmRewrite {
                idx: 1,
                desc: "pop eax; ret".into(),
                new_value: -0x3d_0001,
            }],
            jumps: vec![JumpRewrite {
                func: "frob".into(),
                ret_byte_off: 1,
                padding: 3,
                via_callee: false,
            }],
        };
        let bytes = encode_rewritten_func(&o);
        let back = decode_rewritten_func(&bytes).unwrap();
        assert_eq!(back, o);
        assert!(decode_rewritten_func(&bytes[..bytes.len() - 1]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_rewritten_func(&extra).is_none());
        assert!(decode_rewritten_func(b"nope").is_none());
    }
}
