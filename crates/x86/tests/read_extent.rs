//! The decoder's read extent: a decode depends only on the bytes it
//! reads, and `decode_read` reports how many that is. Where
//! `decode(&t[i..])` succeeds with length `len`, decoding just
//! `t[i..i + len]` gives the same instruction, and no byte at `i + len`
//! or later changes it. Where it fails after reading `n` bytes, every
//! shorter prefix is `Truncated`, `t[i..i + n]` fails with the same
//! error, and no byte at `i + n` or later changes that error. The
//! incremental rescan keeps every decode table slot whose own bytes did
//! not change, failed slots included, and the Figure-6 coverage walk
//! reads decodes of the unmodified text up to a planted return; both
//! rest on this (DESIGN.md §20).
//!
//! The gadget scan reads most offsets through `decode_shape`, which runs
//! the same decoder without building operands: at every offset checked
//! here it must agree with `decode_read` in read extent, in success or
//! error, and in mnemonic.

use proptest::prelude::*;

use parallax_bench::protect_workload;
use parallax_core::ChainMode;
use parallax_x86::{decode, decode_read, decode_shape, DecodeError};

/// x86's instruction-length cap: the most bytes a decode may read.
const MAX_INSN: usize = 15;

/// Masks XORed into a byte after a decode's extent.
const FLIPS: [u8; 4] = [0x01, 0x10, 0x80, 0xff];

/// `decode_shape(bytes)` is `decode_read(bytes)` without operands.
fn assert_shape_agrees(bytes: &[u8], label: &str) {
    let (outcome, read) = decode_read(bytes);
    assert_eq!(
        decode_shape(bytes),
        (outcome.map(|insn| insn.mnemonic), read),
        "{label}: {:02x?}",
        &bytes[..read]
    );
}

fn assert_read_extent(t: &[u8], label: &str) {
    for i in 0..t.len() {
        let (outcome, read) = decode_read(&t[i..]);
        assert_eq!(decode(&t[i..]), outcome, "{label} +{i}: decode_read agrees");
        assert_shape_agrees(&t[i..], &format!("{label} +{i}"));
        assert!((1..=MAX_INSN).contains(&read), "{label} +{i}: read {read}");
        let end = i + read;
        match &outcome {
            Ok(insn) => {
                assert_eq!(read, insn.len as usize, "{label} +{i}: read its length");
                assert_eq!(
                    decode(&t[i..end]).as_ref(),
                    Ok(insn),
                    "{label} +{i}: decoding only its own bytes"
                );
                if end < t.len() {
                    let mut flipped = t[i..].to_vec();
                    for mask in FLIPS {
                        flipped[end - i] = t[end] ^ mask;
                        assert_eq!(
                            decode(&flipped).as_ref(),
                            Ok(insn),
                            "{label} +{i}: byte {end} ^ {mask:#x}"
                        );
                    }
                }
            }
            Err(e) => {
                for short in i..end {
                    assert_eq!(
                        decode(&t[i..short]),
                        Err(DecodeError::Truncated),
                        "{label} +{i}: {} of {read} bytes",
                        short - i
                    );
                }
                assert_eq!(
                    decode_read(&t[i..end]),
                    (Err(*e), read),
                    "{label} +{i}: its own {read} bytes"
                );
                // Any byte after the extent, up to the longest decode.
                for after in end..(i + MAX_INSN).min(t.len()) {
                    let mut flipped = t[i..].to_vec();
                    for mask in FLIPS {
                        flipped[after - i] = t[after] ^ mask;
                        assert_eq!(
                            decode(&flipped).as_ref(),
                            Err(e),
                            "{label} +{i}: byte {after} ^ {mask:#x}"
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

/// A deterministic tail of `MAX_INSN` bytes, so every decode completes.
fn tail(x: &mut u32) -> [u8; MAX_INSN] {
    std::array::from_fn(|_| {
        *x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        (*x >> 24) as u8
    })
}

#[test]
fn shape_decodes_agree_on_every_two_byte_prefix() {
    let mut x = 0x2545_f491u32;
    for prefix in 0..=u16::MAX {
        let mut bytes = tail(&mut x);
        bytes[..2].copy_from_slice(&prefix.to_be_bytes());
        assert_shape_agrees(&bytes, "two-byte prefix");
        // The same prefix cut short: every truncation agrees too.
        assert_shape_agrees(&bytes[..2], "two bytes alone");
        assert_shape_agrees(&bytes[..1], "one byte alone");
    }
}

/// Every three-byte prefix with a random tail; CI's release step runs it
/// with `--ignored`.
#[test]
#[ignore]
fn shape_decodes_agree_on_every_three_byte_prefix() {
    let mut x = 0x9e37_79b9u32;
    for prefix in 0..1u32 << 24 {
        let mut bytes = tail(&mut x);
        bytes[..3].copy_from_slice(&prefix.to_be_bytes()[1..]);
        assert_shape_agrees(&bytes, "three-byte prefix");
        assert_shape_agrees(&bytes[..3], "three bytes alone");
    }
}
