//! The decoder's read extent: a decode depends only on the bytes it
//! reads. Where `decode(&t[i..])` succeeds with length `len`, decoding
//! just `t[i..i + len]` gives the same instruction, and no byte at
//! `i + len` or later changes it; where it fails, it fails on the first
//! 15 bytes alone. The incremental rescan keeps every decode table slot
//! whose own bytes did not change, and the Figure-6 coverage walk reads
//! decodes of the unmodified text up to a planted return; both rest on
//! this (DESIGN.md §20).

use proptest::prelude::*;

use parallax_bench::protect_workload;
use parallax_core::ChainMode;
use parallax_x86::decode;

/// x86's instruction-length cap: the most bytes a decode may read.
const MAX_INSN: usize = 15;

/// Masks XORed into the first byte after a decode's extent.
const FLIPS: [u8; 4] = [0x01, 0x10, 0x80, 0xff];

fn assert_read_extent(t: &[u8], label: &str) {
    for i in 0..t.len() {
        match decode(&t[i..]) {
            Ok(insn) => {
                let end = i + insn.len as usize;
                assert_eq!(
                    decode(&t[i..end]).as_ref(),
                    Ok(&insn),
                    "{label} +{i}: decoding only its own bytes"
                );
                if end < t.len() {
                    let mut flipped = t[i..].to_vec();
                    for mask in FLIPS {
                        flipped[end - i] = t[end] ^ mask;
                        assert_eq!(
                            decode(&flipped).as_ref(),
                            Ok(&insn),
                            "{label} +{i}: byte {end} ^ {mask:#x}"
                        );
                    }
                }
            }
            Err(_) => {
                let end = (i + MAX_INSN).min(t.len());
                assert!(decode(&t[i..end]).is_err(), "{label} +{i}: truncated");
                if end < t.len() {
                    let mut flipped = t[i..].to_vec();
                    for mask in FLIPS {
                        flipped[end - i] = t[end] ^ mask;
                        assert!(
                            decode(&flipped).is_err(),
                            "{label} +{i}: byte {end} ^ {mask:#x}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn decodes_read_only_their_own_bytes_in_protected_corpus_texts() {
    for w in parallax_corpus::all() {
        let p = protect_workload(&w, ChainMode::Cleartext);
        assert_read_extent(&p.image.text, w.name);
    }
}

#[test]
fn decodes_read_only_their_own_bytes_in_byte_soup() {
    let mut x = 0x9e37_79b9u32;
    let soup: Vec<u8> = (0..1 << 16)
        .map(|_| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 24) as u8
        })
        .collect();
    assert_read_extent(&soup, "soup");
}

proptest! {
    #[test]
    fn decodes_read_only_their_own_bytes(t in prop::collection::vec(any::<u8>(), 0..64)) {
        assert_read_extent(&t, "random bytes");
    }
}
