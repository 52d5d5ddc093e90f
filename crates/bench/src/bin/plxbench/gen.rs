//! Input generation: every input a workload uses is a pure function of
//! `--seed`.
//!
//! The protect workloads protect a fixed set of generated modules, the
//! entries of a *universe* of modules less those listed in
//! [`crate::screened`]; `--seed` picks the order. The set is the same
//! for every seed, so the deterministic end-to-end metrics computed
//! over it (image growth, runtime cost, tamper detection, toolchain
//! work) read the same on every seed and any change a commit makes to
//! them shows in full. A universe entry is a
//! [`parallax_corpus::randprog`] module grown by extra functions, built
//! from `Gen` seeds derived from its index. `Gen::new` ORs its seed
//! with 1, so the seeds `2k` and `2k + 1` produce the same program;
//! every `Gen` seed derived here is odd, so distinct derived seeds give
//! distinct programs.
//!
//! The screened entries are those the protection pipeline turns into
//! images that misbehave (see that module). The inputs therefore do not
//! depend on the code under test, and the workloads contain no
//! operation that fails on the commit that defined them.

use parallax_compiler::ir::build::*;
use parallax_compiler::{Function, Module};
use parallax_core::ChainMode;
use parallax_corpus::randprog::Gen;

/// protect-large universe entries: 120 modules once the screened ones
/// are left out. A run protects every one, so the module count sets the
/// run length: a regression check makes 22 runs of each workload, and
/// they must finish within an hour even when the host runs 1.6× slower
/// than usual.
pub const LARGE_UNIVERSE: usize = 132;
/// Extra functions per protect-large module: ~21 KB of text.
pub const LARGE_EXTRA: usize = 30;
/// protect-chains universe entries: 120 modules once the screened ones
/// are left out.
pub const CHAINS_UNIVERSE: usize = 122;
/// Extra functions per protect-chains module.
pub const CHAINS_EXTRA: usize = 6;
/// Verification functions of every protect-chains module.
pub const CHAINS_VERIFY: [&str; 4] = ["vf", "f0", "f1", "f2"];
/// Candidate serve-mixed protect jobs (corpus program × chain mode ×
/// seed).
pub const SERVE_UNIVERSE: usize = 6000;

/// SplitMix64: a small, well-mixed deterministic generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Stream tags, so no two uses of one seed share random bits.
pub mod stream {
    /// protect-large module programs.
    pub const LARGE: u64 = 1;
    /// protect-chains module programs.
    pub const CHAINS: u64 = 2;
    /// protect-chains chain-mode keys.
    pub const CHAINS_MODE: u64 = 3;
    /// Sample order.
    pub const ORDER: u64 = 4;
    /// Tamper byte flips, seeded by the image, not by `--seed`.
    pub const FLIPS: u64 = 5;
    /// serve-mixed miss order, and miss job seeds.
    pub const SERVE: u64 = 6;
    /// serve-mixed request mix, one stream per client.
    pub const CLIENT: u64 = 7;
}

/// The fixed seed the module universe is generated from.
const UNIVERSE_SEED: u64 = 0x706c_7862_656e_6368;

/// The odd `Gen` seed of program part `part` of universe entry `index`.
fn gen_seed(stream: u64, index: usize, part: usize) -> u64 {
    let mut r = Rng::new(UNIVERSE_SEED, stream);
    let a = r.next() ^ (index as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    Rng::new(a, part as u64 + 1).next() | 1
}

/// A `randprog` module grown by `extra` functions. Function `f<i>` is
/// the random `vf` body of another `Gen` seed; `main` calls `vf` as
/// `randprog` does, then each `f<i>` once, and writes its running
/// accumulator to stdout after every call, so a divergence anywhere
/// shows in the output and not only in the 8-bit exit status.
fn grown_module(stream: u64, index: usize, extra: usize) -> Module {
    let mut m = Gen::new(gen_seed(stream, index, 0)).module();
    m.funcs.retain(|f| f.name != "main");
    for i in 0..extra {
        let donor = Gen::new(gen_seed(stream, index, i + 1)).module();
        let mut f = donor
            .get_func("vf")
            .expect("randprog modules define vf")
            .clone();
        f.name = format!("f{i}");
        m.func(f);
    }
    // Initialized data, not bss: protect() grows the chain data between
    // its two fixpoint passes, which moves every bss object, and main's
    // many references to a moved buffer then change the text between
    // passes. With a bss buffer about half of the protect-large modules
    // fail with "chain for `vf` unstable".
    m.global("pb_out", vec![0; 4]);
    let emit = || {
        vec![
            store(g("pb_out"), l("acc")),
            expr(syscall(4, vec![c(1), g("pb_out"), c(4)])),
        ]
    };
    let mut body = vec![let_("acc", c(0)), let_("k", c(0))];
    let mut vf_loop = vec![let_(
        "acc",
        xor(l("acc"), call("vf", vec![l("k"), add(l("acc"), c(3))])),
    )];
    vf_loop.extend(emit());
    vf_loop.push(let_("k", add(l("k"), c(1))));
    body.push(while_(lt_s(l("k"), c(4)), vf_loop));
    for i in 0..extra {
        body.push(let_(
            "acc",
            xor(
                l("acc"),
                call(&format!("f{i}"), vec![l("acc"), c(i as i32 + 1)]),
            ),
        ));
        body.extend(emit());
    }
    body.push(ret(and(l("acc"), c(0xff))));
    m.func(Function::new("main", [], body));
    m
}

/// Universe entry `index` of protect-large: ~21 KB of text once
/// compiled, with a single verification function, so gadget discovery
/// and rewrite coverage analysis dominate its protection time.
pub fn large_module(index: usize) -> Module {
    grown_module(stream::LARGE, index, LARGE_EXTRA)
}

/// Universe entry `index` of protect-chains: small text and four
/// verification functions ([`CHAINS_VERIFY`]), so chain compilation
/// and the chain data it links dominate.
pub fn chains_module(index: usize) -> Module {
    grown_module(stream::CHAINS, index, CHAINS_EXTRA)
}

/// The chain mode of protect-chains universe entry `index`:
/// probabilistic chains with 8 variants per function for even indices,
/// RC4-encrypted chains for odd ones, keyed by the index.
pub fn chains_mode(index: usize) -> ChainMode {
    let key = Rng::new(UNIVERSE_SEED ^ index as u64, stream::CHAINS_MODE).next();
    if index.is_multiple_of(2) {
        ChainMode::Probabilistic {
            variants: 8,
            seed: key,
        }
    } else {
        ChainMode::Rc4Encrypted {
            key: key.to_le_bytes(),
        }
    }
}

/// Universe entry `index` of serve-mixed: a protect job of corpus
/// program `index % 6` in chain mode `(index / 6) % 4` (indices into
/// `parallax_corpus::all()` and `parallax_engine::ALL_MODES`) with a
/// seed derived from the index.
pub fn serve_job(index: usize) -> (usize, usize, u64) {
    let seed = Rng::new(UNIVERSE_SEED ^ index as u64, stream::SERVE).next();
    (index % 6, (index / 6) % 4, seed)
}

/// The entries of `0..universe` less `rejected`, in the order `seed`
/// picks.
pub fn shuffled(seed: u64, universe: usize, rejected: &[usize]) -> Vec<usize> {
    let accepted: Vec<usize> = (0..universe).filter(|i| !rejected.contains(i)).collect();
    let order = Rng::new(seed, stream::ORDER).permutation(accepted.len());
    order.into_iter().map(|k| accepted[k]).collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use parallax_compiler::{compile_module, Interp};

    use super::*;
    use crate::screened;

    fn check_pool(name: &str, entries: &[usize], make: fn(usize) -> Module) {
        let mut seen = HashSet::new();
        for &i in entries {
            let m = make(i);
            assert!(
                seen.insert(format!("{:?}", m.funcs)),
                "{name} entry {i} repeats an earlier module"
            );
            compile_module(&m)
                .unwrap_or_else(|e| panic!("{name} entry {i}: compile failed: {e}"))
                .link()
                .unwrap_or_else(|e| panic!("{name} entry {i}: link failed: {e}"));
            let mut interp = Interp::new(&m);
            interp
                .run()
                .unwrap_or_else(|e| panic!("{name} entry {i}: Interp failed: {e}"));
            assert_eq!(
                interp.output.len(),
                4 * (4 + m.funcs.len() - 3),
                "{name} entry {i}: one 4-byte record per call"
            );
        }
    }

    #[test]
    fn large_pool_is_distinct_and_terminates() {
        let entries = shuffled(7, LARGE_UNIVERSE, screened::LARGE);
        assert_eq!(entries.len(), 120);
        check_pool("protect-large", &entries, large_module);
    }

    #[test]
    fn chains_pool_is_distinct_and_terminates() {
        let entries = shuffled(7, CHAINS_UNIVERSE, screened::CHAINS);
        assert_eq!(entries.len(), 120);
        check_pool("protect-chains", &entries, chains_module);
        let m = chains_module(entries[0]);
        for f in CHAINS_VERIFY {
            let func = m.get_func(f).expect("verification function exists");
            assert!(
                parallax_core::select::translatable(func, &m),
                "{f} must be chain-translatable"
            );
        }
    }

    #[test]
    fn the_seed_orders_a_fixed_set() {
        assert_eq!(gen_seed(stream::LARGE, 0, 0) & 1, 1);
        let a = shuffled(1, LARGE_UNIVERSE, screened::LARGE);
        assert_eq!(a, shuffled(1, LARGE_UNIVERSE, screened::LARGE));
        let b = shuffled(2, LARGE_UNIVERSE, screened::LARGE);
        assert_ne!(a, b);
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(a.iter().all(|i| !screened::LARGE.contains(i)));
    }
}
