//! The VM memory model.
//!
//! Memory is three regions: text (execute + read, normally not
//! writable — W⊕X), data (the image's initialized data, BSS, and a
//! scratch heap), and the stack. Text is one flat byte vector, small
//! and immutable under W⊕X; data and stack share one table of 4 KiB
//! copy-on-write pages (DESIGN.md §19), so a VM costs only the pages
//! it writes.
//!
//! Instruction fetches are serviced from the text region, or — when
//! *split-cache mode* is enabled — from a shadow copy representing the
//! processor's instruction cache. Split mode reproduces the attack of
//! Wurster et al.: an adversary with a kernel patch modifies code as
//! fetched for execution while data reads of the same addresses still
//! observe the original bytes, which defeats every checksumming-based
//! self-verification scheme.

use std::borrow::Cow;
use std::sync::{Arc, LazyLock};

use crate::error::{Fault, FaultKind};

/// Default stack region size.
pub const STACK_SIZE: u32 = 256 * 1024;

/// Top of the stack region (initial `esp`).
pub const STACK_TOP: u32 = 0x0c00_0000;

/// Extra zeroed scratch space appended after BSS, usable as a heap.
pub const HEAP_SIZE: u32 = 1024 * 1024;

/// Bytes per copy-on-write page. Pages are counted from the start of
/// the data and of the stack region, not from address 0.
pub const PAGE_SIZE: u32 = 4096;

const PAGE: usize = PAGE_SIZE as usize;

type PageBuf = [u8; PAGE];

/// The page every all-zero, never-written page shares.
static ZERO_PAGE: LazyLock<Arc<PageBuf>> = LazyLock::new(|| Arc::new([0; PAGE]));

/// One page-table entry.
#[derive(Debug, Clone)]
enum Page {
    /// Shared with clones and snapshots, or the [`ZERO_PAGE`]; the
    /// first write copies it.
    Shared(Arc<PageBuf>),
    /// Private to this memory. A `listed` page was written since the
    /// last reset and is in the dirty list, so writes land in place; a
    /// private page a reset put back is unlisted until its next write.
    Private { page: Box<PageBuf>, listed: bool },
}

impl Page {
    #[inline]
    fn bytes(&self) -> &PageBuf {
        match self {
            Page::Shared(page) => page,
            Page::Private { page, .. } => page,
        }
    }
}

/// The VM's memory.
#[derive(Debug, Clone)]
pub struct Memory {
    text: Vec<u8>,
    text_base: u32,
    /// Shadow instruction bytes; `Some` only in split-cache mode.
    icache: Option<Vec<u8>>,
    data_base: u32,
    /// Bytes of data, BSS and heap.
    data_len: u32,
    /// The data region's pages, then the stack's.
    pages: Vec<Page>,
    /// Pages of the data region: the stack's start at this index.
    data_pages: u32,
    /// Indices of the pages listed since the last reset, in the order
    /// they were first written.
    dirty: Vec<u32>,
    /// Copy-on-write page copies over this memory's lifetime.
    copied: u64,
    /// When true (default), data writes to the text region fault.
    pub w_xor_x: bool,
    /// Byte ranges of code mutated since the last
    /// [`Memory::take_dirty_code`] drain. Every path that can change
    /// executed bytes records here — `write_icache`, `write_code`, data
    /// writes landing in text when W⊕X is disabled, and the reset that
    /// undoes them — so the execution engine can invalidate exactly the
    /// predecoded blocks that overlap, instead of guessing.
    dirty_code: Vec<(u32, u32)>,
    /// Set by every write to either view of text since the last reset.
    text_written: bool,
}

impl Memory {
    /// Builds memory from image sections. `bss_size` bytes of zeros and
    /// a scratch heap follow the initialized `data`; only the pages
    /// holding a non-zero byte of it are allocated.
    pub fn new(
        text: Vec<u8>,
        text_base: u32,
        data: &[u8],
        data_base: u32,
        bss_size: u32,
    ) -> Memory {
        let data_len = data.len() as u32 + bss_size + HEAP_SIZE;
        let data_pages = data_len.div_ceil(PAGE_SIZE);
        let pages = (0..(data_pages + STACK_SIZE / PAGE_SIZE) as usize)
            .map(|i| {
                let chunk = data.chunks(PAGE).nth(i).unwrap_or_default();
                if chunk.iter().all(|&b| b == 0) {
                    return Page::Shared(Arc::clone(&ZERO_PAGE));
                }
                let mut page = [0; PAGE];
                page[..chunk.len()].copy_from_slice(chunk);
                Page::Shared(Arc::new(page))
            })
            .collect();
        Memory {
            text,
            text_base,
            icache: None,
            data_base,
            data_len,
            pages,
            data_pages,
            dirty: Vec::new(),
            copied: 0,
            w_xor_x: true,
            dirty_code: Vec::new(),
            text_written: false,
        }
    }

    /// Rolls memory back to `pristine`, a clone of this memory taken
    /// earlier (normally right after construction). Each page written
    /// since the last reset gets `pristine`'s page back, so a reset
    /// costs the pages written, not the memory size. Text written since
    /// (only possible with W⊕X off) is copied back whole and pushed to
    /// `dirty_code`, so block caches re-observe the original bytes.
    pub fn reset_to(&mut self, pristine: &Memory) {
        for &i in &self.dirty {
            self.pages[i as usize] = match &pristine.pages[i as usize] {
                Page::Shared(page) => Page::Shared(Arc::clone(page)),
                Page::Private { page, .. } => Page::Private {
                    page: page.clone(),
                    listed: false,
                },
            };
        }
        self.dirty.clear();
        if std::mem::take(&mut self.text_written) {
            self.text.copy_from_slice(&pristine.text);
            if let Some(ic) = self.icache.as_mut() {
                ic.copy_from_slice(pristine.icache.as_deref().unwrap_or(&pristine.text));
            }
            self.dirty_code.push((self.text_base, self.text_end()));
        }
    }

    /// Pages copied on their first write since construction or a reset,
    /// over this memory's lifetime. Building or cloning copies none.
    pub fn pages_copied(&self) -> u64 {
        self.copied
    }

    /// True if code bytes changed since the last [`Memory::take_dirty_code`].
    #[inline]
    pub fn has_dirty_code(&self) -> bool {
        !self.dirty_code.is_empty()
    }

    /// Drains the accumulated code-write ranges (`[start, end)` pairs).
    pub fn take_dirty_code(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.dirty_code)
    }

    /// Start of the text region.
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// End of the text region (exclusive).
    pub fn text_end(&self) -> u32 {
        self.text_base + self.text.len() as u32
    }

    /// Start of the data region.
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// End of the data region (exclusive), including BSS and heap.
    pub fn data_end(&self) -> u32 {
        self.data_base + self.data_len
    }

    /// Start of the scratch heap (after image data and BSS).
    pub fn heap_base(&self) -> u32 {
        self.data_end() - HEAP_SIZE
    }

    /// Initial stack pointer.
    pub fn initial_esp(&self) -> u32 {
        STACK_TOP - 64 // leave headroom for the harness
    }

    /// The text offset of `vaddr` if `n` bytes from it lie in text.
    #[inline]
    fn text_offset(&self, vaddr: u32, n: u32) -> Result<usize, Fault> {
        let inside = vaddr >= self.text_base && vaddr as u64 + n as u64 <= self.text_end() as u64;
        inside
            .then(|| (vaddr - self.text_base) as usize)
            .ok_or(Fault::new(vaddr, FaultKind::OutOfBounds))
    }

    /// Enables split instruction/data views of the text region
    /// (the Wurster et al. attack primitive). The instruction view
    /// starts as a copy of the current text bytes.
    pub fn enable_split_cache(&mut self) {
        if self.icache.is_none() {
            self.icache = Some(self.text.clone());
        }
    }

    /// Patches the *instruction view* only. Requires split-cache mode.
    /// Data reads of the same addresses keep returning original bytes.
    pub fn write_icache(&mut self, vaddr: u32, bytes: &[u8]) -> Result<(), Fault> {
        let off = self.text_offset(vaddr, bytes.len() as u32)?;
        let icache = self.icache.as_mut().expect("split-cache mode not enabled");
        icache[off..off + bytes.len()].copy_from_slice(bytes);
        self.note_code_write(vaddr, bytes.len());
        Ok(())
    }

    /// Patches code in both views, as a debugger with `mprotect`
    /// powers would (the classic dynamic-tampering attack).
    pub fn write_code(&mut self, vaddr: u32, bytes: &[u8]) -> Result<(), Fault> {
        let off = self.text_offset(vaddr, bytes.len() as u32)?;
        self.text[off..off + bytes.len()].copy_from_slice(bytes);
        if let Some(ic) = self.icache.as_mut() {
            ic[off..off + bytes.len()].copy_from_slice(bytes);
        }
        self.note_code_write(vaddr, bytes.len());
        Ok(())
    }

    fn note_code_write(&mut self, vaddr: u32, len: usize) {
        self.dirty_code.push((vaddr, vaddr + len as u32));
        self.text_written = true;
    }

    /// Fetches up to 16 instruction bytes at `vaddr` for decoding.
    /// Served from the instruction view in split-cache mode.
    #[inline]
    pub fn fetch(&self, vaddr: u32) -> Result<&[u8], Fault> {
        let off = self
            .text_offset(vaddr, 1)
            .map_err(|_| Fault::new(vaddr, FaultKind::ExecOutsideText))?;
        let src = self.icache.as_deref().unwrap_or(&self.text);
        Ok(&src[off..(off + 16).min(src.len())])
    }

    /// The offset into the page table's bytes of `vaddr`, if `n` bytes
    /// from it lie in the data or the stack region. The regions are
    /// disjoint, so probe order is purely a performance choice: data
    /// first (stack pivots and program data dominate), then stack.
    #[inline]
    fn linear(&self, vaddr: u32, n: u32) -> Option<u32> {
        let off = vaddr.wrapping_sub(self.data_base);
        if off as u64 + n as u64 <= self.data_len as u64 {
            return Some(off);
        }
        let off = vaddr.wrapping_sub(STACK_TOP - STACK_SIZE);
        (off as u64 + n as u64 <= STACK_SIZE as u64).then(|| self.data_pages * PAGE_SIZE + off)
    }

    /// Reads `N` bytes (data view): inline inside one data or stack
    /// page, else through [`Memory::read_bytes`].
    #[inline]
    fn read<const N: usize>(&self, vaddr: u32) -> Result<[u8; N], Fault> {
        if let Some(at) = self.linear(vaddr, N as u32) {
            let o = (at % PAGE_SIZE) as usize;
            if let Some(b) = self.pages[(at / PAGE_SIZE) as usize].bytes().get(o..o + N) {
                return Ok(b.try_into().unwrap());
            }
        }
        self.read_slow(vaddr)
    }

    /// [`Memory::read`] of bytes that span pages, lie in text, or fault.
    #[cold]
    #[inline(never)]
    fn read_slow<const N: usize>(&self, vaddr: u32) -> Result<[u8; N], Fault> {
        Ok(self.read_bytes(vaddr, N as u32)?[..].try_into().unwrap())
    }

    /// Reads an 8-bit value (data view).
    #[inline]
    pub fn read8(&self, vaddr: u32) -> Result<u8, Fault> {
        self.read::<1>(vaddr).map(|[b]| b)
    }

    /// Reads a 32-bit little-endian value (data view).
    #[inline]
    pub fn read32(&self, vaddr: u32) -> Result<u32, Fault> {
        self.read(vaddr).map(u32::from_le_bytes)
    }

    /// Reads two consecutive 32-bit values with a single region
    /// resolve — the `pop r32; ret` hot pair. Fails if the 8 bytes do
    /// not fit one region; the caller falls back to two plain reads
    /// (which also handle the adjacent-regions edge case exactly).
    #[inline]
    pub fn read32_pair(&self, vaddr: u32) -> Result<(u32, u32), Fault> {
        let b: [u8; 8] = self.read(vaddr)?;
        let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        Ok((lo, hi))
    }

    /// Reads `len` bytes (data view), which may span pages but not
    /// regions. They are borrowed unless they span pages.
    pub fn read_bytes(&self, vaddr: u32, len: u32) -> Result<Cow<'_, [u8]>, Fault> {
        let Some(mut at) = self.linear(vaddr, len) else {
            let off = self.text_offset(vaddr, len)?;
            return Ok(Cow::Borrowed(&self.text[off..off + len as usize]));
        };
        let (o, len) = ((at % PAGE_SIZE) as usize, len as usize);
        if o + len <= PAGE {
            let page = self.pages.get((at / PAGE_SIZE) as usize);
            return Ok(Cow::Borrowed(page.map_or(&[], |p| &p.bytes()[o..o + len])));
        }
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let o = (at % PAGE_SIZE) as usize;
            let n = (PAGE - o).min(len - out.len());
            out.extend_from_slice(&self.pages[(at / PAGE_SIZE) as usize].bytes()[o..o + n]);
            at += n as u32;
        }
        Ok(Cow::Owned(out))
    }

    /// Writes `N` bytes: in place inside one listed private page, else
    /// through [`Memory::write_bytes`].
    #[inline]
    fn write<const N: usize>(&mut self, vaddr: u32, bytes: [u8; N]) -> Result<(), Fault> {
        if let Some(at) = self.linear(vaddr, N as u32) {
            let o = (at % PAGE_SIZE) as usize;
            if let Page::Private { page, listed: true } = &mut self.pages[(at / PAGE_SIZE) as usize]
            {
                if let Some(dst) = page.get_mut(o..o + N) {
                    dst.copy_from_slice(&bytes);
                    return Ok(());
                }
            }
        }
        self.write_bytes(vaddr, &bytes)
    }

    /// Writes an 8-bit value.
    #[inline]
    pub fn write8(&mut self, vaddr: u32, v: u8) -> Result<(), Fault> {
        self.write(vaddr, [v])
    }

    /// Writes a 32-bit little-endian value.
    #[inline]
    pub fn write32(&mut self, vaddr: u32, v: u32) -> Result<(), Fault> {
        self.write(vaddr, v.to_le_bytes())
    }

    /// Writes a byte slice, which may span pages but not regions. A
    /// shared page is copied on its first write, and an unlisted page
    /// is listed.
    #[inline(never)]
    pub fn write_bytes(&mut self, vaddr: u32, bytes: &[u8]) -> Result<(), Fault> {
        let Some(mut at) = self.linear(vaddr, bytes.len() as u32) else {
            let off = self.text_offset(vaddr, bytes.len() as u32)?;
            if self.w_xor_x {
                return Err(Fault::new(vaddr, FaultKind::WriteToText));
            }
            self.text[off..off + bytes.len()].copy_from_slice(bytes);
            self.note_code_write(vaddr, bytes.len());
            return Ok(());
        };
        let mut rest = bytes;
        while !rest.is_empty() {
            let o = (at % PAGE_SIZE) as usize;
            let (head, tail) = rest.split_at(rest.len().min(PAGE - o));
            self.page_mut(at / PAGE_SIZE)[o..o + head.len()].copy_from_slice(head);
            (rest, at) = (tail, at + head.len() as u32);
        }
        Ok(())
    }

    /// Page `i`, writable and listed: a shared page is copied first.
    fn page_mut(&mut self, i: u32) -> &mut PageBuf {
        let slot = &mut self.pages[i as usize];
        if let Page::Shared(shared) = slot {
            *slot = Page::Private {
                page: Box::new(**shared),
                listed: false,
            };
            self.copied += 1;
        }
        let Page::Private { page, listed } = slot else {
            unreachable!("a shared page was just copied")
        };
        if !*listed {
            *listed = true;
            self.dirty.push(i);
        }
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(vec![0x90, 0xc3], 0x1000, &[1, 2, 3, 4], 0x2000, 8)
    }

    #[test]
    fn read_write_data_and_stack() {
        let mut m = mem();
        assert_eq!(m.read32(0x2000).unwrap(), 0x04030201);
        m.write32(0x2004, 0xdeadbeef).unwrap(); // BSS
        assert_eq!(m.read32(0x2004).unwrap(), 0xdeadbeef);
        let sp = m.initial_esp();
        m.write32(sp - 4, 42).unwrap();
        assert_eq!(m.read32(sp - 4).unwrap(), 42);
    }

    #[test]
    fn w_xor_x_enforced() {
        let mut m = mem();
        let err = m.write8(0x1000, 0xcc).unwrap_err();
        assert_eq!(err.kind, FaultKind::WriteToText);
        m.w_xor_x = false;
        m.write8(0x1000, 0xcc).unwrap();
        assert_eq!(m.read8(0x1000).unwrap(), 0xcc);
    }

    #[test]
    fn fetch_requires_text() {
        let m = mem();
        assert!(m.fetch(0x1000).is_ok());
        let err = m.fetch(0x2000).unwrap_err();
        assert_eq!(err.kind, FaultKind::ExecOutsideText);
    }

    #[test]
    fn split_cache_diverges_views() {
        let mut m = mem();
        m.enable_split_cache();
        m.write_icache(0x1000, &[0xcc]).unwrap();
        // Executed bytes see the patch...
        assert_eq!(m.fetch(0x1000).unwrap()[0], 0xcc);
        // ...but data reads (as used by checksumming) see the original.
        assert_eq!(m.read8(0x1000).unwrap(), 0x90);
    }

    #[test]
    fn write_code_hits_both_views() {
        let mut m = mem();
        m.enable_split_cache();
        m.write_code(0x1001, &[0x90]).unwrap();
        assert_eq!(m.fetch(0x1001).unwrap()[0], 0x90);
        assert_eq!(m.read8(0x1001).unwrap(), 0x90);
    }

    #[test]
    fn out_of_bounds_faults() {
        let m = mem();
        assert_eq!(m.read8(0x0).unwrap_err().kind, FaultKind::OutOfBounds);
        assert_eq!(
            m.read32(m.data_end() - 2).unwrap_err().kind,
            FaultKind::OutOfBounds
        );
    }

    #[test]
    fn dirty_page_reset_rolls_back_all_regions() {
        let mut m = mem();
        m.w_xor_x = false;
        m.enable_split_cache();
        let pristine = m.clone();
        m.write32(0x2004, 0xdeadbeef).unwrap();
        let sp = m.initial_esp();
        m.write32(sp - 4, 42).unwrap();
        m.write8(0x1000, 0xcc).unwrap();
        m.write_icache(0x1001, &[0xcc]).unwrap();
        m.take_dirty_code();
        m.reset_to(&pristine);
        assert_eq!(m.read32(0x2004).unwrap(), 0);
        assert_eq!(m.read32(sp - 4).unwrap(), 0);
        assert_eq!(m.read8(0x1000).unwrap(), 0x90);
        assert_eq!(m.fetch(0x1001).unwrap()[0], 0xc3);
        // Restoring text must re-dirty it so block caches re-observe.
        assert!(m.has_dirty_code());
        // The dirty set drained; a second reset is a no-op, and later
        // writes still roll back.
        m.reset_to(&pristine);
        m.write8(0x2000, 9).unwrap();
        m.reset_to(&pristine);
        assert_eq!(m.read8(0x2000).unwrap(), 1);
    }

    #[test]
    fn heap_is_zeroed_scratch() {
        let m = mem();
        let hb = m.heap_base();
        assert_eq!(m.read32(hb).unwrap(), 0);
        assert!(hb >= 0x2000 + 4 + 8);
    }
}

#[cfg(test)]
mod overflow_tests {
    use super::*;

    /// Regression: addresses near u32::MAX must fault, not wrap past
    /// the bounds check and panic (found by the tamper-sweep fuzzer).
    #[test]
    fn near_max_addresses_fault_cleanly() {
        let m = Memory::new(vec![0x90; 16], 0x1000, &[0; 16], 0x2000, 0);
        for addr in [u32::MAX, u32::MAX - 1, u32::MAX - 3, 0xffff_fffe] {
            assert!(m.read32(addr).is_err(), "{addr:#x}");
            assert!(m.read8(addr).is_err() || addr > u32::MAX - 1, "{addr:#x}");
            assert!(m.read_bytes(addr, 8).is_err(), "{addr:#x}");
        }
        let mut m = m;
        assert!(m.write32(u32::MAX - 2, 1).is_err());
        m.enable_split_cache();
        assert_eq!(
            m.write_icache(u32::MAX - 1, &[0; 4]).unwrap_err().kind,
            FaultKind::OutOfBounds
        );
        assert_eq!(
            m.write_code(u32::MAX - 1, &[0; 4]).unwrap_err().kind,
            FaultKind::OutOfBounds
        );
    }
}
