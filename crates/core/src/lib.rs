//! Parallax: implicit code integrity verification using ROP.
//!
//! This crate ties the substrates together into the paper's pipeline:
//! select verification functions ([`select`]), craft overlapping
//! gadgets and translate the selected functions into ROP chains
//! ([`mod@protect`]), optionally hardening the chains by encryption or
//! probabilistic generation ([`dynamic`]), and exercise attacks against
//! the result ([`tamper`]). One function, [`protect_with`], runs the
//! pipeline; its [`Ctx`] carries the [`ArtifactStore`], the tracer and
//! the fault plan.
//!
//! ```
//! use parallax_compiler::ir::build::*;
//! use parallax_compiler::{Function, Module};
//! use parallax_core::{protect, ProtectConfig};
//!
//! let mut m = Module::new();
//! m.func(Function::new("vf", ["a"], vec![ret(add(l("a"), c(1)))]));
//! m.func(Function::new("main", [], vec![ret(call("vf", vec![c(41)]))]));
//! m.entry("main");
//!
//! let cfg = ProtectConfig {
//!     verify_funcs: vec!["vf".into()],
//!     ..ProtectConfig::default()
//! };
//! let protected = protect(&m, &cfg).unwrap();
//! let mut vm = parallax_vm::Vm::new(&protected.image);
//! assert_eq!(vm.run(), parallax_vm::Exit::Exited(42));
//! ```

#![warn(missing_docs)]

pub mod dynamic;
pub mod faultinject;
pub mod loadcheck;
pub mod microchain;
pub mod protect;
pub mod select;
pub mod store;
pub mod tamper;
pub mod trace;

pub use dynamic::{Basis, ChainMode};
pub use faultinject::{
    apply_image_fault, flip_byte, poison_cache_blob, truncate_chain, FaultPlan, ImageFault,
};
pub use loadcheck::{load_verified_image, load_verified_image_strict};
pub use microchain::split_for_microchains;
pub use protect::{
    protect, protect_traced, protect_with, ChainInfo, Ctx, DegradationReport, ErrorKind,
    ProtectConfig, ProtectError, ProtectReport, Protected, Stage,
};
pub use select::{select_verification_functions, SelectionConfig};
pub use store::{ArtifactStore, NoStore};
pub use tamper::{
    classify, classify_outcome, nop_instruction, nop_range, patch_bytes, run_baseline, Baseline,
    Verdict,
};
pub use trace::{chain_tracer_for, chain_tracer_for_image, effect_kind};
