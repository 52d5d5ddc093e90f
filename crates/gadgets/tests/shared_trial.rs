//! Differential suite for shared-trial validation: the restructured
//! path — one probe execution per trial shared by every effect, lazy
//! scratch seeding, dirty-page-targeted trial-2 restore — must return
//! verdicts identical to the legacy per-(effect, trial) probe loop for
//! every proposal. The legacy path is kept callable as
//! `validate::legacy` purely as this suite's oracle; it is what
//! `protect()` shipped before the restructuring, so verdict equality
//! here is what keeps protected images byte-identical.

use proptest::prelude::*;

use parallax_compiler::compile_module;
use parallax_gadgets::scan::scan;
use parallax_gadgets::validate::{legacy, MAX_SHARED_EFFECTS};
use parallax_gadgets::{classify, ProbeVm};
use parallax_image::{LinkedImage, Program};
use parallax_x86::Asm;

fn link(name: &str) -> LinkedImage {
    let w = parallax_corpus::by_name(name).expect("known workload");
    compile_module(&(w.module)())
        .expect("corpus compiles")
        .link()
        .expect("corpus links")
}

/// Validates every classified candidate of `img` twice — once with the
/// legacy per-effect probe loop on a fresh VM per proposal (the oracle)
/// and once with the shared-trial [`ProbeVm`] — and requires
/// verdict-for-verdict equality. Also enforces the probe-run budget:
/// the shared path may execute at most two probes per proposal, no
/// matter how many effects the proposals carry. Returns how many
/// proposals were checked so callers can assert coverage.
fn assert_shared_matches_legacy(img: &LinkedImage, label: &str) -> usize {
    let cands = scan(&img.text, img.text_base);
    let mut shared = ProbeVm::new(img);
    let mut checked = 0;
    for cand in &cands {
        let Some(proposal) = classify(cand) else {
            continue;
        };
        let oracle = legacy::validate(img, &proposal);
        let got = shared.validate(&proposal);
        assert_eq!(
            format!("{oracle:?}"),
            format!("{got:?}"),
            "{label}: shared-trial verdict drift at {:#x}",
            cand.vaddr
        );
        checked += 1;
    }
    let stats = shared.stats();
    assert_eq!(stats.proposals, checked as u64, "{label}: proposal count");
    assert!(
        stats.runs <= 2 * stats.proposals,
        "{label}: {} probe runs for {} proposals — more than one per trial",
        stats.runs,
        stats.proposals
    );
    checked
}

#[test]
fn shared_trial_verdicts_match_legacy_across_corpus() {
    for w in parallax_corpus::all() {
        let img = link(w.name);
        let checked = assert_shared_matches_legacy(&img, w.name);
        assert!(checked > 0, "{}: no proposals exercised", w.name);
    }
}

#[test]
fn shared_trial_verdicts_match_legacy_on_tampered_images() {
    // Byte-flip the text at spread positions — the fault-injection
    // shape — so equality is also proven on gadget pools that differ
    // from anything the corpus produces directly.
    let base = link("gzip");
    for flip in 0..8u32 {
        let mut img = base.clone();
        let off = (img.text.len() as u32 / 9) * (flip + 1);
        img.text[off as usize] ^= 0x41;
        let label = format!("gzip+flip@{off:#x}");
        assert_shared_matches_legacy(&img, &label);
    }
}

/// The most effects any proposal of `img` carries. The shared path
/// rejects a proposal with more than [`MAX_SHARED_EFFECTS`], so it must
/// stay at or below that for the rejection never to change a verdict.
fn most_effects(img: &LinkedImage) -> usize {
    scan(&img.text, img.text_base)
        .iter()
        .filter_map(classify)
        .map(|p| p.effects.len())
        .max()
        .unwrap_or(0)
}

/// Links `bytes` as the text of `main`, with a `ret` after every
/// `stride` bytes so return-terminated candidates are likely.
fn byte_soup(bytes: &[u8], stride: usize) -> LinkedImage {
    let mut a = Asm::new();
    for chunk in bytes.chunks(stride) {
        a.db(chunk);
        a.ret();
    }
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.set_entry("main");
    p.link().unwrap()
}

#[test]
fn every_corpus_proposal_fits_the_effect_mask() {
    for w in parallax_corpus::all() {
        let most = most_effects(&link(w.name));
        assert!(
            (1..=MAX_SHARED_EFFECTS).contains(&most),
            "{}: {most} effects",
            w.name
        );
    }
}

proptest! {
    /// Arbitrary bytes never classify into more effects than the
    /// liveness mask holds.
    #[test]
    fn random_streams_fit_the_effect_mask(
        bytes in prop::collection::vec(any::<u8>(), 32..160),
        rets in 1usize..5,
    ) {
        let most = most_effects(&byte_soup(&bytes, bytes.len() / rets + 1));
        prop_assert!(most <= MAX_SHARED_EFFECTS, "{} effects", most);
    }

    /// Randomized instruction streams: arbitrary bytes become text, the
    /// scanner extracts whatever return-terminated sequences decode,
    /// and every classified proposal must validate identically under
    /// the legacy and shared-trial paths.
    #[test]
    fn shared_trial_verdicts_match_legacy_on_random_streams(
        bytes in prop::collection::vec(any::<u8>(), 32..160),
        rets in 1usize..5,
    ) {
        let img = byte_soup(&bytes, bytes.len() / rets + 1);
        let cands = scan(&img.text, img.text_base);
        let mut shared = ProbeVm::new(&img);
        for cand in &cands {
            let Some(proposal) = classify(cand) else { continue };
            let oracle = legacy::validate(&img, &proposal);
            let got = shared.validate(&proposal);
            prop_assert_eq!(
                format!("{:?}", oracle),
                format!("{:?}", got),
                "shared-trial verdict drift at {:#x}",
                cand.vaddr
            );
        }
    }
}
