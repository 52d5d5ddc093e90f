//! Function-grained incremental protection: re-protecting a module
//! through a warm [`ArtifactCache`] must only rewrite/recompile what
//! actually changed, and the cached path must stay byte-identical to
//! the cold path.

use parallax_compiler::{compile_module, parse_module};
use parallax_core::{protect_with, Ctx, ProtectConfig, Protected};
use parallax_engine::{ArtifactCache, CacheHooks};
use parallax_image::format;
use parallax_trace::Tracer;
use parallax_vm::{Exit, Vm};

/// Base module; `SRC_B` is the same program with a one-function edit
/// (one imm32 constant in `noise`, same encoded length, so every other
/// function's bytes — and the layout — are unchanged).
const SRC_A: &str = r#"
    fn vf(x) { return ((x * 31) ^ (x >>> 3)) + 7; }
    fn noise(a) { return a + 287454020; }
    fn helper(a, b) { return a * b - a; }
    fn spare(y) { return y ^ 1432778632; }
    fn main() {
        let s = 0;
        let i = 0;
        while i < 3 { s = s + vf(i) + helper(i, 2); i = i + 1; }
        return (s + noise(1) + spare(2)) & 0xff;
    }
"#;

const SRC_B: &str = r#"
    fn vf(x) { return ((x * 31) ^ (x >>> 3)) + 7; }
    fn noise(a) { return a + 287454021; }
    fn helper(a, b) { return a * b - a; }
    fn spare(y) { return y ^ 1432778632; }
    fn main() {
        let s = 0;
        let i = 0;
        while i < 3 { s = s + vf(i) + helper(i, 2); i = i + 1; }
        return (s + noise(1) + spare(2)) & 0xff;
    }
"#;

#[derive(Debug, Clone, Copy)]
struct FuncCacheCounts {
    rw_hit: u64,
    rw_miss: u64,
    ch_hit: u64,
    ch_miss: u64,
}

/// Protects `src` through `cache`, returning the result plus the
/// `cache.func.*` counters the traced run observed.
fn protect_through(src: &str, cache: &ArtifactCache) -> (Protected, FuncCacheCounts) {
    let module = parse_module(src).expect("test module parses");
    let vf = module.get_func("vf").cloned().expect("vf exists");
    let prog = compile_module(&module).expect("compiles");
    let cfg = ProtectConfig {
        verify_funcs: vec!["vf".to_owned()],
        seed: 9,
        ..ProtectConfig::default()
    };
    let tracer = Tracer::new();
    let store = CacheHooks::new(0, cache, None);
    let ctx = Ctx {
        store: &store,
        tracer: Some(&tracer),
        ..Ctx::default()
    };
    let protected = protect_with(prog, &[vf], &cfg, &ctx).expect("protect succeeds");
    let counts = FuncCacheCounts {
        rw_hit: tracer.counter("cache.func.rewritten.hit"),
        rw_miss: tracer.counter("cache.func.rewritten.miss"),
        ch_hit: tracer.counter("cache.func.chain.hit"),
        ch_miss: tracer.counter("cache.func.chain.miss"),
    };
    (protected, counts)
}

#[test]
fn warm_reprotect_hits_every_function_artifact() {
    let cache = ArtifactCache::new(1024, None);
    let (cold, c0) = protect_through(SRC_A, &cache);
    assert_eq!(c0.rw_hit, 0, "cold run cannot hit rewrite artifacts");
    assert!(c0.rw_miss > 0, "cold run must populate rewrite artifacts");
    assert_eq!(c0.ch_hit, 0, "cold run cannot hit chain artifacts");
    assert!(c0.ch_miss > 0, "cold run must populate chain artifacts");

    let (warm, c1) = protect_through(SRC_A, &cache);
    assert_eq!(c1.rw_miss, 0, "warm identical run must not re-rewrite");
    assert_eq!(
        c1.rw_hit, c0.rw_miss,
        "every function stored cold must hit warm"
    );
    assert_eq!(
        c1.ch_miss, 0,
        "warm identical run must not recompile chains"
    );
    assert!(c1.ch_hit > 0, "warm run must serve chains from the cache");
    assert_eq!(
        format::save(&cold.image),
        format::save(&warm.image),
        "cached path must be byte-identical to the cold path"
    );
}

#[test]
fn one_function_edit_misses_only_that_function() {
    let cache = ArtifactCache::new(1024, None);
    let (_, cold) = protect_through(SRC_A, &cache);

    // Re-protect with one constant changed inside `noise`: exactly one
    // function's rewrite artifact may miss; everything else must hit.
    let (patched, inc) = protect_through(SRC_B, &cache);
    assert_eq!(
        inc.rw_miss, 1,
        "a one-function edit must re-rewrite exactly that function"
    );
    assert_eq!(
        inc.rw_hit,
        cold.rw_miss - 1,
        "all unchanged functions must be served from the cache"
    );

    // The incrementally produced image must match a from-scratch
    // protection of the edited module…
    let fresh = ArtifactCache::new(1024, None);
    let (scratch, _) = protect_through(SRC_B, &fresh);
    assert_eq!(
        format::save(&patched.image),
        format::save(&scratch.image),
        "incremental output must equal cold output for the edited module"
    );

    // …still behave like the unprotected program…
    let base = parse_module(SRC_B)
        .expect("parses")
        .pipe_link()
        .expect("links");
    let expect = {
        let mut vm = Vm::new(&base);
        vm.run()
    };
    let got = {
        let mut vm = Vm::new(&patched.image);
        vm.run()
    };
    assert_eq!(
        got, expect,
        "protected program must still compute correctly"
    );

    // …and still detect tampering with its verification target.
    let g = patched.report.chains[0].used_gadgets[0];
    let mut img = patched.image.clone();
    img.write(g, &[0x90]);
    let mut vm = Vm::new(&img);
    assert_ne!(
        vm.run(),
        expect,
        "tampering a used gadget must still be detected after an incremental re-protect"
    );
}

/// `parse_module` + link without protection, for the baseline exit.
trait PipeLink {
    fn pipe_link(self) -> Result<parallax_image::LinkedImage, String>;
}

impl PipeLink for parallax_compiler::Module {
    fn pipe_link(self) -> Result<parallax_image::LinkedImage, String> {
        compile_module(&self)
            .map_err(|e| format!("{e:?}"))?
            .link()
            .map_err(|e| format!("{e:?}"))
    }
}

#[test]
fn tamper_exit_differs_from_clean_exit() {
    // Sanity for the assertions above: an untampered protected image
    // exits like the unprotected baseline even when served fully from
    // a warm cache.
    let cache = ArtifactCache::new(1024, None);
    let _ = protect_through(SRC_A, &cache);
    let (warm, _) = protect_through(SRC_A, &cache);
    let base = parse_module(SRC_A)
        .expect("parses")
        .pipe_link()
        .expect("links");
    let expect = Vm::new(&base).run();
    assert!(matches!(expect, Exit::Exited(_)));
    assert_eq!(Vm::new(&warm.image).run(), expect);
}
