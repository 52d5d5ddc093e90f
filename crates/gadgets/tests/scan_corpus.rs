//! Corpus-level guarantees for the table-driven scanner: every text
//! offset the scan reaches gets exactly one shape decode; a scan that
//! assembles every candidate decodes each offset on a candidate's path
//! exactly once, and a gadget pass, which assembles one representative
//! per content, each offset on a representative's path exactly once;
//! no other offset is decoded (asserted via the `ScanStats` counters
//! behind `scan.decode.*`). The candidate stream — and therefore
//! `find_gadgets` — is identical to the retained reference scanner.

use std::collections::{BTreeSet, HashSet};

use parallax_compiler::compile_module;
use parallax_gadgets::scan::{scan_reference, scan_with_stats};
use parallax_gadgets::{find_gadgets_instrumented, Candidate, MAX_GADGET_BYTES};
use parallax_image::LinkedImage;

fn link(name: &str) -> LinkedImage {
    let w = parallax_corpus::by_name(name).expect("known workload");
    compile_module(&(w.module)())
        .expect("corpus compiles")
        .link()
        .expect("corpus links")
}

/// The corpus binary with the largest text section, so the decode
/// bound is exercised where it matters most.
fn largest() -> (String, LinkedImage) {
    parallax_corpus::all()
        .iter()
        .map(|w| (w.name.to_owned(), link(w.name)))
        .max_by_key(|(_, img)| img.text.len())
        .expect("corpus is non-empty")
}

/// The distinct text offsets on the paths of `cands`, candidates of
/// `img`: each one's start and the start of every later instruction.
fn path_offsets<'a>(img: &LinkedImage, cands: impl IntoIterator<Item = &'a Candidate>) -> u64 {
    let mut out = BTreeSet::new();
    for c in cands {
        let mut pos = (c.vaddr - img.text_base) as usize;
        for insn in &c.insns {
            out.insert(pos);
            pos += usize::from(insn.len);
        }
    }
    out.len() as u64
}

#[test]
fn largest_corpus_binary_decodes_each_offset_at_most_once() {
    let (name, img) = largest();
    let (cands, stats) = scan_with_stats(&img.text, img.text_base);
    // The offsets a walk reads: those at most MAX_GADGET_BYTES before
    // a return byte.
    let reached = (0..img.text.len())
        .filter(|&i| {
            img.text[i..]
                .iter()
                .take(MAX_GADGET_BYTES + 1)
                .any(|&b| b == 0xc3 || b == 0xcb)
        })
        .count() as u64;
    assert_eq!(
        stats.shapes, reached,
        "{name}: exactly one shape decode per offset the scan reaches"
    );
    assert_eq!(stats.reused, 0, "{name}: a fresh table reuses nothing");
    assert_eq!(stats.shapes + stats.skipped, stats.offsets, "{name}");
    // Full decodes of a scan that assembles every candidate: exactly
    // the offsets on a candidate's path.
    assert_eq!(
        stats.decoded,
        path_offsets(&img, &cands),
        "{name}: exactly one full decode per candidate-path offset"
    );
    assert!(stats.decoded < stats.shapes, "{name}");
    // A gadget pass assembles only each content's first candidate, so
    // its full decodes are exactly the offsets on those paths.
    let mut seen = HashSet::new();
    let reps = cands.iter().filter(|c| {
        let off = (c.vaddr - img.text_base) as usize;
        seen.insert((&img.text[off..off + c.len as usize], c.far))
    });
    let (_, pass, _) = find_gadgets_instrumented(&img, 1, None);
    assert_eq!(
        pass.decoded,
        path_offsets(&img, reps),
        "{name}: exactly one full decode per representative-path offset"
    );
    assert!(pass.decoded < stats.decoded, "{name}");
    assert_eq!(
        (pass.shapes, pass.candidates),
        (stats.shapes, stats.candidates),
        "{name}"
    );
    // The links and the candidates' assembly are served from the table:
    // one link step per reached interior offset, one assembly step per
    // candidate instruction.
    let insns: u64 = cands.iter().map(|c| c.insns.len() as u64).sum();
    assert!(
        (insns..=insns + reached).contains(&stats.memo_hits),
        "{name}: {} table steps",
        stats.memo_hits
    );
    assert_eq!(stats.candidates, cands.len() as u64);
    assert!(stats.rets > 0, "{name}: corpus text contains rets");
}

#[test]
fn memoized_scan_is_identical_to_reference_on_all_corpus_binaries() {
    for w in parallax_corpus::all() {
        let img = link(w.name);
        let (memo, _) = scan_with_stats(&img.text, img.text_base);
        let naive = scan_reference(&img.text, img.text_base);
        assert_eq!(memo.len(), naive.len(), "{}: candidate count", w.name);
        for (m, n) in memo.iter().zip(&naive) {
            assert_eq!(m.vaddr, n.vaddr, "{}: candidate order", w.name);
            assert_eq!(m.len, n.len, "{}", w.name);
            assert_eq!(m.far, n.far, "{}", w.name);
            assert_eq!(m.insns, n.insns, "{}", w.name);
        }
    }
}
