//! Universe entries the protect workloads leave out, because the
//! protection pipeline of the commit that defined the benchmark gets
//! them wrong. Keeping them out makes the inputs independent of the
//! code under test while no operation fails on that commit.
//!
//! Every entry is an image that runs differently from its unprotected
//! program: it exits with another status, writes other bytes, or
//! faults. In the cases examined, the chain compiler selects a gadget
//! for one of its effects (e.g. `LoadConst(ecx)` from
//! `xchg eax,ebx; pop ecx; ret`) without treating the registers its
//! other effects write as clobbered, so a live value (usually `eax`) is
//! destroyed mid-chain. `protect::tests::screen_universes` regenerates
//! both lists.

/// protect-large universe entries left out (12 of 132).
pub const LARGE: &[usize] = &[21, 33, 37, 45, 52, 77, 79, 86, 92, 93, 115, 120];

/// protect-chains universe entries left out in their chain mode (2 of
/// 122: 48 probabilistic, 115 RC4).
pub const CHAINS: &[usize] = &[48, 115];

/// serve-mixed universe entries left out.
pub const SERVE: &[usize] = &[];

/// The entries of `0..universe` for which `bad` holds, in order,
/// checked on two threads.
#[cfg(test)]
pub fn rejected(universe: usize, bad: impl Fn(usize) -> bool + Sync) -> Vec<usize> {
    let mut rejected: Vec<usize> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|h| {
                let bad = &bad;
                s.spawn(move || {
                    (h..universe)
                        .step_by(2)
                        .filter(|&e| bad(e))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|t| t.join().expect("screen thread"))
            .collect()
    });
    rejected.sort_unstable();
    rejected
}
