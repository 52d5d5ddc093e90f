//! Implementation of the `plx` command-line tool.
//!
//! The binary in `src/bin/plx.rs` is a thin wrapper; all logic lives
//! here so it can be unit-tested. Subcommands:
//!
//! ```text
//! plx build   <src>  -o <out.plx>                  compile source to an image
//! plx protect <src>  -o <out.plx> --verify f[,g]   compile + Parallax-protect
//!             [--mode cleartext|xor|rc4|prob] [--guard f[,g]] [--seed N]
//!             [--jobs N] [--trace-out t.json]
//! plx run     <img.plx> [--input <file>] [--debugger] [--trace-out t.json]
//!             [--dangerous-skip-verify]
//! plx verify  <img.plx> [--provenance] [--provenance-dir <dir>]
//! plx inspect <img.plx>                            sections + symbols
//! plx disasm  <img.plx> [function]
//! plx gadgets <img.plx>                            usable gadgets + types
//! plx coverage <img.plx>                           Figure-6 style analysis
//! plx tamper  <img.plx> --at <vaddr> --bytes aa,bb -o <out.plx>
//! plx batch   <manifest> [--jobs N] [--out dir]    batch-protect via the engine
//! plx serve   [--addr host:port] [--workers N]     resident protection daemon
//! plx report  <t.json> | --diff <a.json> <b.json>  paper-style tables
//! ```
//!
//! Source positions accept `corpus:NAME` (e.g. `corpus:gzip`) anywhere
//! a `.px` file is expected, resolving to the built-in evaluation
//! workload; its designated verification function and input become the
//! defaults. `--trace-out` writes a Chrome trace-event JSON timeline
//! (protect stages, rewrite passes, chain compiles, and — after a
//! validation run — per-gadget dispatch telemetry) that `plx report`
//! turns into the paper's evaluation tables.
//!
//! Flags are validated against each subcommand's known set; an unknown
//! `--flag` is rejected with a "did you mean" suggestion instead of
//! being silently swallowed as a positional or mis-paired value.

use std::fmt::Write as _;
use std::sync::Arc;

use parallax_core::{
    chain_tracer_for, chain_tracer_for_image, load_verified_image, load_verified_image_strict,
    protect_with, ChainMode, Ctx, ProtectConfig, ProtectError,
};
use parallax_engine::{
    hash128, toolchain_id, Digests, Engine, EngineEvent, EngineOptions, Ledger, ProvenanceRecord,
    RECORD_VERSION,
};
use parallax_image::{format, LinkedImage};
use parallax_trace::{chrome_json, TraceFile, Tracer};
use parallax_vm::{Vm, VmOptions};

use crate::report::{render_diff, render_report};

/// A CLI failure, printed to stderr by the wrapper.
#[derive(Debug)]
pub struct CliError(pub String);

impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> CliError {
        CliError(e.to_string())
    }
}

type Result<T> = std::result::Result<T, CliError>;

fn bail(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The flags and switches one subcommand accepts. Anything else on the
/// command line is rejected at parse time.
pub struct Spec {
    /// `--flag value` (and `-f value`) names.
    pub flags: &'static [&'static str],
    /// Valueless `--switch` names.
    pub switches: &'static [&'static str],
}

/// The accepted flag set per subcommand.
pub fn spec_for(cmd: &str) -> Spec {
    let (flags, switches): (&'static [&'static str], &'static [&'static str]) = match cmd {
        "build" => (&["o"], &[]),
        "protect" => (
            &[
                "o",
                "verify",
                "select",
                "input",
                "mode",
                "guard",
                "seed",
                "jobs",
                "trace-out",
                "provenance-dir",
            ],
            &[],
        ),
        "run" => (
            &["input", "trace", "trace-out"],
            &["debugger", "profile", "dangerous-skip-verify"],
        ),
        "verify" => (&["provenance-dir"], &["provenance"]),
        "tamper" => (&["o", "at", "bytes"], &[]),
        "batch" => (
            &["jobs", "out", "log-json", "cache-dir", "seed", "trace-out"],
            &["no-validate"],
        ),
        "serve" => (
            &[
                "addr",
                "workers",
                "queue",
                "cache-dir",
                "read-timeout-ms",
                "max-frame",
                "trace-out",
                "slow-ms",
                "blackbox-dir",
            ],
            &["no-validate"],
        ),
        "report" => (&[], &["diff"]),
        // inspect / disasm / gadgets / coverage / chain take only
        // positionals.
        _ => (&[], &[]),
    };
    Spec { flags, switches }
}

/// Levenshtein distance, for "did you mean" suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest known name within edit distance 2, if any.
fn suggest<'a>(name: &str, known: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    known
        .into_iter()
        .map(|k| (edit_distance(name, k), k))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, k)| k)
}

fn unknown_flag(name: &str, spec: &Spec) -> CliError {
    let known = spec.flags.iter().chain(spec.switches).copied();
    match suggest(name, known) {
        Some(s) => bail(format!("unknown flag `--{name}` (did you mean `--{s}`?)")),
        None => bail(format!("unknown flag `--{name}`")),
    }
}

/// Minimal flag parser: positional args plus `--flag value` pairs,
/// validated against the subcommand's [`Spec`].
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses raw arguments (after the subcommand), rejecting any flag
    /// the spec doesn't know.
    pub fn parse(raw: &[String], spec: &Spec) -> Result<Args> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            let name = a
                .strip_prefix("--")
                .or_else(|| a.strip_prefix("-").filter(|n| !n.is_empty()));
            if let Some(name) = name {
                if spec.switches.contains(&name) {
                    switches.push(name.to_owned());
                    i += 1;
                } else if spec.flags.contains(&name) {
                    let v = raw
                        .get(i + 1)
                        .ok_or_else(|| bail(format!("--{name} needs a value")))?;
                    flags.push((name.to_owned(), v.clone()));
                    i += 2;
                } else {
                    return Err(unknown_flag(name, spec));
                }
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Ok(Args {
            positional,
            flags,
            switches,
        })
    }

    fn pos(&self, i: usize, what: &str) -> Result<&str> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| bail(format!("missing {what}")))
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Exports a VM's block-translation cache counters onto a tracer,
/// next to `vm.run.cycles`, so `plx report` can show dispatch-engine
/// behaviour alongside chain stats.
fn count_block_stats(tracer: &Tracer, bs: parallax_vm::BlockStats) {
    tracer.count("vm.block.hit", bs.hits);
    tracer.count("vm.block.miss", bs.misses);
    tracer.count("vm.block.invalidate", bs.invalidated);
    tracer.count("vm.block.checked", bs.checked);
}

fn load_image(path: &str) -> Result<LinkedImage> {
    let bytes = std::fs::read(path).map_err(|e| bail(format!("{path}: {e}")))?;
    Ok(format::load(&bytes)?)
}

fn compile_source(path: &str) -> Result<parallax_compiler::Module> {
    let src = std::fs::read_to_string(path).map_err(|e| bail(format!("{path}: {e}")))?;
    Ok(parallax_compiler::parse_module(&src)?)
}

/// A resolved program source: a `.px` file or a `corpus:NAME`
/// evaluation workload. Workloads carry a designated verification
/// function and a deterministic input, used as defaults when the
/// command line gives neither.
struct Source {
    module: parallax_compiler::Module,
    default_verify: Option<String>,
    default_input: Vec<u8>,
}

fn resolve_source(src: &str) -> Result<Source> {
    if let Some(name) = src.strip_prefix("corpus:") {
        let w = parallax_corpus::by_name(name).ok_or_else(|| {
            let known: Vec<&str> = parallax_corpus::all().iter().map(|w| w.name).collect();
            bail(format!(
                "unknown corpus workload `{name}` (known: {})",
                known.join(", ")
            ))
        })?;
        Ok(Source {
            module: (w.module)(),
            default_verify: Some(w.verify_func.to_owned()),
            default_input: (w.input)(),
        })
    } else {
        Ok(Source {
            module: compile_source(src)?,
            default_verify: None,
            default_input: Vec::new(),
        })
    }
}

fn parse_mode(s: &str, seed: u64) -> Result<ChainMode> {
    // Shared with `plx batch`'s manifest expansion, so a batch job and
    // a one-off protect of the same target are byte-identical.
    parallax_engine::chain_mode_for(s, seed).ok_or_else(|| bail(format!("unknown mode `{s}`")))
}

fn list(s: &str) -> Vec<String> {
    s.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

/// `plx build`
pub fn cmd_build(args: &Args) -> Result<String> {
    let src = args.pos(0, "source file")?;
    let out = args.flag("o").ok_or_else(|| bail("missing -o <out.plx>"))?;
    let module = compile_source(src)?;
    let img = parallax_compiler::compile_module(&module)?.link()?;
    let bytes = format::save(&img);
    std::fs::write(out, &bytes).map_err(|e| bail(format!("{out}: {e}")))?;
    Ok(format!(
        "built {out}: {} text bytes, {} data bytes, {} functions",
        img.text.len(),
        img.data.len(),
        img.funcs().count()
    ))
}

/// `plx protect`
pub fn cmd_protect(args: &Args) -> Result<String> {
    let src = args.pos(0, "source file")?;
    let out = args.flag("o").ok_or_else(|| bail("missing -o <out.plx>"))?;
    let source = resolve_source(src)?;
    let input = match args.flag("input") {
        Some(p) => std::fs::read(p).map_err(|e| bail(format!("{p}: {e}")))?,
        None => source.default_input.clone(),
    };
    let verify = match (args.flag("verify"), args.flag("select")) {
        (Some(v), _) => list(v),
        (None, Some(n)) => {
            // §VII-B automatic selection: profile one run (with --input
            // if given) and pick the best candidates.
            let n: usize = n.parse().map_err(|e| bail(format!("bad --select: {e}")))?;
            let picked = parallax_core::select_verification_functions(
                &source.module,
                &input,
                &parallax_core::SelectionConfig {
                    count: n,
                    ..Default::default()
                },
            )?;
            if picked.is_empty() {
                return Err(bail(
                    "automatic selection found no suitable function                      (needs: called repeatedly, <2% of runtime,                      chain-translatable); use --verify",
                ));
            }
            picked
        }
        // A corpus workload designates its own verification function.
        (None, None) => match &source.default_verify {
            Some(v) => vec![v.clone()],
            None => return Err(bail("missing --verify <func[,func]> or --select <n>")),
        },
    };
    let seed = args
        .flag("seed")
        .map(|s| s.parse::<u64>().map_err(|e| bail(e.to_string())))
        .transpose()?
        .unwrap_or(0xbead_cafe);
    let mode = parse_mode(args.flag("mode").unwrap_or("cleartext"), seed)?;
    let guard_funcs = args.flag("guard").map(list).unwrap_or_default();
    // 0 = auto (one worker per core); the output image is byte-identical
    // whatever the worker count.
    let jobs = args
        .flag("jobs")
        .map(|s| {
            s.parse::<usize>()
                .map_err(|e| bail(format!("bad --jobs: {e}")))
        })
        .transpose()?
        .unwrap_or(1);

    let cfg = ProtectConfig {
        verify_funcs: verify.clone(),
        mode: mode.clone(),
        seed,
        guard_funcs,
        jobs,
        ..ProtectConfig::default()
    };
    let trace_out = args.flag("trace-out");
    // Every protect leaves a paper trail: the pipeline runs over a
    // digest-only store that digests each artifact it consumes, and the
    // record lands in the ledger beside the engine's disk cache (or
    // under --provenance-dir; `none` disables it, and with it all
    // fingerprinting).
    let prov_dir = args
        .flag("provenance-dir")
        .unwrap_or("target/plx-cache/provenance");
    let digests = (prov_dir != "none").then(Digests::default);
    let verify_impls = cfg.verify_impls(&source.module)?;
    let prog = parallax_compiler::compile_module(&source.module).map_err(ProtectError::from)?;
    let mut ctx = Ctx::default();
    let mut input_hash = 0;
    if let Some(d) = &digests {
        ctx.store = d;
        input_hash = hash128(&format::save(&prog.link()?));
    }
    let (protected, trace_note) = match trace_out {
        Some(path) => {
            // Traced protect, then a validation run with the chain
            // tracer installed so pipeline spans and per-gadget
            // dispatch telemetry land on one timeline.
            let tracer = Tracer::new();
            ctx.tracer = Some(&tracer);
            let protected = protect_with(prog, &verify_impls, &cfg, &ctx)?;
            let mut vm = Vm::new(&protected.image);
            vm.set_input(&input);
            vm.set_chain_tracer(chain_tracer_for(&protected));
            let exit = {
                let _run = tracer.span("vm.run", "vm");
                vm.run()
            };
            tracer.count("vm.run.cycles", vm.cycles());
            count_block_stats(&tracer, vm.block_stats());
            if let Some(ct) = vm.take_chain_tracer() {
                ct.export_to(&tracer);
            }
            std::fs::write(path, chrome_json(&tracer.snapshot()))
                .map_err(|e| bail(format!("{path}: {e}")))?;
            let note = format!(
                "  trace: {path} (validation run: {exit}, {} cycles)",
                vm.cycles()
            );
            (protected, Some(note))
        }
        None => (protect_with(prog, &verify_impls, &cfg, &ctx)?, None),
    };
    let bytes = format::save(&protected.image);
    std::fs::write(out, &bytes).map_err(|e| bail(format!("{out}: {e}")))?;

    let prov_note = match digests {
        Some(digests) => {
            let record = ProvenanceRecord {
                version: RECORD_VERSION,
                toolchain: toolchain_id(),
                input_hash,
                config: format!(
                    "cfg={:?};plan={:?}",
                    cfg.key_normalized(),
                    parallax_core::FaultPlan::default().without_cache_faults()
                ),
                stages: digests.stage_digests(),
                image_hash: hash128(&bytes),
            };
            let path = Ledger::new(prov_dir.into()).store(&record)?;
            Some(format!("  provenance: {}", path.display()))
        }
        None => None,
    };

    let mut msg = String::new();
    let r = &protected.report;
    writeln!(
        msg,
        "protected {out} (mode: {}, verify: {})",
        mode.name(),
        verify.join(",")
    )
    .unwrap();
    writeln!(
        msg,
        "  gadgets discovered: {}; crafted sites: {}",
        r.gadget_count,
        r.rewrites.crafted_count()
    )
    .unwrap();
    for ci in &r.chains {
        writeln!(
            msg,
            "  chain {}: {} ops, {} words, {} gadgets ({} overlapping)",
            ci.func,
            ci.ops,
            ci.words,
            ci.used_gadgets.len(),
            ci.overlapping_used
        )
        .unwrap();
    }
    if let Some(note) = trace_note {
        writeln!(msg, "{note}").unwrap();
    }
    if let Some(note) = prov_note {
        writeln!(msg, "{note}").unwrap();
    }
    Ok(msg.trim_end().to_owned())
}

/// `plx run`
pub fn cmd_run(args: &Args) -> Result<String> {
    let path = args.pos(0, "image")?;
    let bytes = std::fs::read(path).map_err(|e| bail(format!("{path}: {e}")))?;
    // Fail-closed by default: the image must pass container-digest and
    // structural verification before a VM is ever constructed. The
    // escape hatch exists for differential oracles (running a tampered
    // image on purpose to observe the runtime watchdog), never for
    // production loading.
    let img: LinkedImage = if args.switch("dangerous-skip-verify") {
        eprintln!("warning: --dangerous-skip-verify: running UNVERIFIED image {path}");
        format::load(&bytes)?
    } else {
        match load_verified_image(&bytes) {
            Ok(v) => v.into_inner(),
            Err(e) => {
                return Err(bail(format!(
                    "refusing to run {path}: verify: FAIL code={} offset={:#x} reason={e}\n\
                     (re-run with --dangerous-skip-verify to bypass, e.g. for tamper oracles)",
                    e.code(),
                    e.offset()
                )))
            }
        }
    };
    let input = match args.flag("input") {
        Some(p) => std::fs::read(p).map_err(|e| bail(format!("{p}: {e}")))?,
        None => Vec::new(),
    };
    let mut vm = Vm::with_options(
        &img,
        VmOptions {
            profile: args.switch("profile"),
            ..VmOptions::default()
        },
    );
    vm.set_input(&input);
    if args.switch("debugger") {
        vm.attach_debugger();
    }
    let trace_out = args.flag("trace-out");
    let tracer = trace_out.map(|_| Tracer::new());
    if tracer.is_some() {
        // Recover chain entry points from the image's symbols so gadget
        // dispatches attribute to their verification function.
        vm.set_chain_tracer(chain_tracer_for_image(&img));
    }
    let run_span = tracer.as_ref().map(|t| t.enter("vm.run", "vm"));
    let trace: u64 = args
        .flag("trace")
        .map(|v| v.parse().map_err(|e| bail(format!("bad --trace: {e}"))))
        .transpose()?
        .unwrap_or(0);
    let exit = if trace > 0 {
        let mut result = None;
        for _ in 0..trace {
            let eip = vm.cpu.eip;
            let sym = img
                .symbol_at(eip)
                .map(|s| format!("{}+{:#x}", s.name, eip - s.vaddr))
                .unwrap_or_else(|| format!("{eip:#010x}"));
            let dis = img
                .read(eip, 16.min((img.text_end().saturating_sub(eip)) as usize))
                .and_then(|b| parallax_x86::decode(b).ok())
                .map(|i| i.to_string())
                .unwrap_or_else(|| "?".into());
            eprintln!("[trace] {sym:<28} {dis}");
            match vm.step() {
                Ok(None) => {}
                Ok(Some(code)) => {
                    result = Some(parallax_vm::Exit::Exited(code));
                    break;
                }
                Err(f) => {
                    result = Some(parallax_vm::Exit::Fault(f));
                    break;
                }
            }
        }
        match result {
            Some(e) => e,
            None => vm.run(),
        }
    } else {
        vm.run()
    };
    if let (Some(t), Some(id)) = (&tracer, run_span) {
        t.exit(id);
        t.count("vm.run.cycles", vm.cycles());
        count_block_stats(t, vm.block_stats());
        if let Some(ct) = vm.take_chain_tracer() {
            ct.export_to(t);
        }
    }
    let mut msg = String::new();
    if let (Some(path), Some(t)) = (trace_out, &tracer) {
        std::fs::write(path, chrome_json(&t.snapshot()))
            .map_err(|e| bail(format!("{path}: {e}")))?;
        writeln!(msg, "trace written to {path}").unwrap();
    }
    let out = vm.take_output();
    if !out.is_empty() {
        writeln!(msg, "--- output ({} bytes) ---", out.len()).unwrap();
        writeln!(msg, "{}", String::from_utf8_lossy(&out)).unwrap();
    }
    writeln!(
        msg,
        "{exit}; {} cycles, {} instructions",
        vm.cycles(),
        vm.instructions
    )
    .unwrap();
    if let Some(p) = vm.profiler() {
        writeln!(msg, "--- profile ---").unwrap();
        for (n, f, calls) in p.hotspots(0.005 / 100.0).iter().take(12) {
            writeln!(msg, "{:6.2}%  calls={calls:<8} {n}", f * 100.0).unwrap();
        }
    }
    Ok(msg.trim_end().to_owned())
}

/// `plx verify`: strict fail-closed verification of a saved image,
/// optionally cross-checked against its provenance record.
///
/// Failures exit nonzero with a machine-readable first line:
/// `verify: FAIL code=<kind> offset=<hex> reason=<text>`.
pub fn cmd_verify(args: &Args) -> Result<String> {
    let path = args.pos(0, "image")?;
    let bytes = std::fs::read(path).map_err(|e| bail(format!("{path}: {e}")))?;
    let t0 = std::time::Instant::now();
    // Strict mode: a fresh gadget scan backs chain-word resolution, so
    // a chain word redirected to an equivalent-but-unmapped gadget is
    // refused, not just an implausible one.
    let v = match load_verified_image_strict(&bytes) {
        Ok(v) => v,
        Err(e) => {
            return Err(bail(format!(
                "verify: FAIL code={} offset={:#x} reason={e}",
                e.code(),
                e.offset()
            )))
        }
    };
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let image_hash = hash128(&bytes);
    let r = v.report();
    let mut msg = String::new();
    writeln!(msg, "verify: PASS {path} ({elapsed_ms:.1} ms, strict)").unwrap();
    writeln!(msg, "  image hash: {image_hash:032x}").unwrap();
    writeln!(
        msg,
        "  symbols: {}; markers: {}; relocs: {}",
        r.symbols, r.markers, r.relocs
    )
    .unwrap();
    writeln!(
        msg,
        "  chains: {} ({} words, {} resolved against the gadget map)",
        r.chains, r.chain_words, r.text_words
    )
    .unwrap();

    if args.switch("provenance") {
        let dir = args
            .flag("provenance-dir")
            .unwrap_or("target/plx-cache/provenance");
        let ledger = Ledger::new(dir.into());
        let record = ledger.load(image_hash).ok_or_else(|| {
            bail(format!(
                "verify: FAIL code=provenance-missing offset=0x0 reason=no record for image hash \
                 {image_hash:032x} under {dir}"
            ))
        })?;
        if record.image_hash != image_hash {
            return Err(bail(format!(
                "verify: FAIL code=provenance-mismatch offset=0x0 reason=record claims image hash \
                 {:032x}, file is {image_hash:032x}",
                record.image_hash
            )));
        }
        writeln!(
            msg,
            "  provenance: ok ({})",
            ledger.path_for(image_hash).display()
        )
        .unwrap();
        writeln!(msg, "    toolchain: {}", record.toolchain).unwrap();
        writeln!(msg, "    input:     {:032x}", record.input_hash).unwrap();
        for s in &record.stages {
            writeln!(
                msg,
                "    stage:     {} x{} {:032x}",
                s.kind, s.count, s.digest
            )
            .unwrap();
        }
    }
    Ok(msg.trim_end().to_owned())
}

/// `plx inspect`
pub fn cmd_inspect(args: &Args) -> Result<String> {
    let img = load_image(args.pos(0, "image")?)?;
    let mut msg = String::new();
    writeln!(
        msg,
        "text: {:#010x}..{:#010x} ({} bytes)",
        img.text_base,
        img.text_end(),
        img.text.len()
    )
    .unwrap();
    writeln!(
        msg,
        "data: {:#010x}..{:#010x} ({} bytes + {} bss)",
        img.data_base,
        img.data_end(),
        img.data.len(),
        img.bss_size
    )
    .unwrap();
    writeln!(msg, "entry: {:#010x}", img.entry).unwrap();
    writeln!(msg, "symbols:").unwrap();
    for s in &img.symbols {
        writeln!(
            msg,
            "  {:#010x} {:>6}  {:?}  {}",
            s.vaddr, s.size, s.kind, s.name
        )
        .unwrap();
    }
    writeln!(msg, "relocations: {}", img.reloc_sites.len()).unwrap();
    Ok(msg.trim_end().to_owned())
}

/// `plx disasm`
pub fn cmd_disasm(args: &Args) -> Result<String> {
    let img = load_image(args.pos(0, "image")?)?;
    let filter = args.positional.get(1).cloned();
    let mut msg = String::new();
    for f in img.funcs() {
        if let Some(want) = &filter {
            if &f.name != want {
                continue;
            }
        }
        writeln!(msg, "<{}>:", f.name).unwrap();
        let Some(bytes) = img.read(f.vaddr, f.size as usize) else {
            continue;
        };
        let mut pos = 0usize;
        while pos < bytes.len() {
            match parallax_x86::decode(&bytes[pos..]) {
                Ok(i) => {
                    let raw: Vec<String> = bytes[pos..pos + i.len as usize]
                        .iter()
                        .map(|b| format!("{b:02x}"))
                        .collect();
                    writeln!(
                        msg,
                        "  {:#010x}: {:<24} {}",
                        f.vaddr + pos as u32,
                        raw.join(" "),
                        i
                    )
                    .unwrap();
                    pos += i.len as usize;
                }
                Err(_) => {
                    writeln!(
                        msg,
                        "  {:#010x}: {:02x}                        (data)",
                        f.vaddr + pos as u32,
                        bytes[pos]
                    )
                    .unwrap();
                    pos += 1;
                }
            }
        }
    }
    if msg.is_empty() {
        return Err(bail("no matching function"));
    }
    Ok(msg.trim_end().to_owned())
}

/// `plx gadgets`
pub fn cmd_gadgets(args: &Args) -> Result<String> {
    let img = load_image(args.pos(0, "image")?)?;
    let gadgets = parallax_gadgets::find_gadgets(&img);
    let mut msg = String::new();
    writeln!(msg, "{} usable gadgets:", gadgets.len()).unwrap();
    for g in &gadgets {
        let host = img
            .symbol_at(g.vaddr)
            .map(|s| s.name.as_str())
            .unwrap_or("?");
        writeln!(msg, "  {g}   [in {host}]").unwrap();
    }
    Ok(msg.trim_end().to_owned())
}

/// `plx coverage`
pub fn cmd_coverage(args: &Args) -> Result<String> {
    let img = load_image(args.pos(0, "image")?)?;
    let cov = parallax_rewrite::analyze(&img);
    Ok(format!(
        "code bytes: {}\nexisting near-ret: {:.1}%\nexisting far-ret:  {:.1}%\nimmediates rule:   {:.1}%\nrearrange rule:    {:.1}%\nany rule:          {:.1}%",
        cov.code_bytes,
        cov.existing_near_pct(),
        cov.existing_far_pct(),
        cov.immediate_pct(),
        cov.jump_pct(),
        cov.any_pct()
    ))
}

/// `plx chain`: disassemble a verification chain.
pub fn cmd_chain(args: &Args) -> Result<String> {
    let img = load_image(args.pos(0, "image")?)?;
    let func = args.pos(1, "function name")?;
    let sym = img
        .symbol(&format!("__plx_chain_{func}"))
        .ok_or_else(|| bail(format!("no chain for `{func}` in this image")))?;
    let bytes = img
        .read(sym.vaddr, sym.size as usize)
        .ok_or_else(|| bail("chain data unreadable (runtime-generated chains live in BSS; disassemble a cleartext build)"))?
        .to_vec();
    let map = parallax_gadgets::build_map(&img);
    let words = parallax_ropc::disasm_chain(&img, &map, &bytes);
    Ok(format!(
        "chain for `{func}`: {} words at {:#010x}
{}",
        bytes.len() / 4,
        sym.vaddr,
        parallax_ropc::format_chain(&words)
    ))
}

/// `plx tamper`
pub fn cmd_tamper(args: &Args) -> Result<String> {
    let mut img = load_image(args.pos(0, "image")?)?;
    let out = args.flag("o").ok_or_else(|| bail("missing -o <out.plx>"))?;
    let at = args
        .flag("at")
        .ok_or_else(|| bail("missing --at <vaddr>"))?;
    let at = u32::from_str_radix(at.trim_start_matches("0x"), 16)
        .map_err(|e| bail(format!("bad --at: {e}")))?;
    let bytes: Vec<u8> = args
        .flag("bytes")
        .ok_or_else(|| bail("missing --bytes aa,bb,.."))?
        .split(',')
        .map(|b| u8::from_str_radix(b.trim(), 16).map_err(|e| bail(e.to_string())))
        .collect::<Result<_>>()?;
    if !img.write(at, &bytes) {
        return Err(bail(format!("{at:#x} is outside the image")));
    }
    std::fs::write(out, format::save(&img)).map_err(|e| bail(format!("{out}: {e}")))?;
    Ok(format!("patched {} bytes at {at:#x} -> {out}", bytes.len()))
}

/// `plx batch`: run a manifest of protection jobs through the engine.
pub fn cmd_batch(args: &Args) -> Result<String> {
    let manifest_path = args.pos(0, "manifest file")?;
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| bail(format!("{manifest_path}: {e}")))?;
    let jobs = parallax_engine::parse_manifest(&text).map_err(bail)?;
    let n = jobs.len();

    // 0 (the default) = one worker per core, as for `plx protect`.
    let workers = match args.flag("jobs") {
        Some(v) => v.parse().map_err(|e| bail(format!("bad --jobs: {e}")))?,
        None => 0,
    };
    let cache_dir = match args.flag("cache-dir") {
        Some("none") => None,
        Some(dir) => Some(std::path::PathBuf::from(dir)),
        None => Some(std::path::PathBuf::from("target/plx-cache")),
    };
    let trace_out = args.flag("trace-out");
    let tracer = trace_out.map(|_| Arc::new(Tracer::new()));
    let engine = Engine::new(EngineOptions {
        workers,
        cache_dir,
        validate: !args.switch("no-validate"),
        log_json: args.flag("log-json").map(std::path::PathBuf::from),
        trace: tracer.clone(),
        ..EngineOptions::default()
    });

    // Live progress goes to stderr (stdout carries the final summary,
    // like every other subcommand). Ctrl-C drains instead of killing:
    // in-flight jobs finish, unstarted ones are shed with a typed
    // error, and the partial summary still prints.
    parallax_serve::install_shutdown_signal();
    let report = engine
        .run_with_cancel(jobs, Some(parallax_serve::shutdown_flag()), |ev| match ev {
            EngineEvent::JobShed { job, reason } => {
                eprintln!("[{:>3}/{n}] shed ({reason}): draining batch", job + 1);
            }
            EngineEvent::JobStarted { job, name, worker } => {
                eprintln!("[{:>3}/{n}] {name} started (worker {worker})", job + 1);
            }
            EngineEvent::CachePoisoned { job, kind } => {
                eprintln!(
                    "[{:>3}/{n}] poisoned {kind} cache entry detected; recomputing",
                    job + 1
                );
            }
            EngineEvent::Degraded {
                job, func, missing, ..
            } => {
                eprintln!("[{:>3}/{n}] degraded: {func} missing {missing}", job + 1);
            }
            EngineEvent::JobFinished {
                job,
                name,
                micros,
                cached,
                verdict,
                error,
                ..
            } => {
                let status = match (error, verdict) {
                    (Some(e), _) => format!("FAILED: {e}"),
                    (None, Some(v)) => v.to_string(),
                    (None, None) => "ok (not validated)".to_owned(),
                };
                let src = if *cached { " [cached]" } else { "" };
                eprintln!(
                    "[{:>3}/{n}] {name} finished in {:.1} ms{src}: {status}",
                    job + 1,
                    *micros as f64 / 1e3
                );
            }
            _ => {}
        })
        .map_err(|e| bail(format!("event log: {e}")))?;

    if let Some(dir) = args.flag("out") {
        std::fs::create_dir_all(dir).map_err(|e| bail(format!("{dir}: {e}")))?;
        for r in report.results.iter().filter(|r| r.error.is_none()) {
            let file = format!("{}.plx", r.name.replace(['/', '#'], "-"));
            let path = std::path::Path::new(dir).join(file);
            std::fs::write(&path, &r.image)
                .map_err(|e| bail(format!("{}: {e}", path.display())))?;
        }
    }

    let mut msg = String::new();
    for r in &report.results {
        let status = match (&r.error, r.verdict) {
            (Some(e), _) => format!("FAILED: {e}"),
            (None, Some(v)) => v.to_string(),
            (None, None) => "ok (not validated)".to_owned(),
        };
        writeln!(
            msg,
            "  {:<28} {:>6} gadgets  {:>9.1} ms  {}{}",
            r.name,
            r.gadget_count,
            r.micros as f64 / 1e3,
            status,
            if r.cached { " [cached]" } else { "" }
        )
        .unwrap();
    }
    // Stage wall time lives only in the trace's `stage` spans: a traced
    // batch prints the report's stage table from the file it wrote.
    let mut stage_table = String::new();
    if let (Some(path), Some(t)) = (trace_out, &tracer) {
        let json = chrome_json(&t.snapshot());
        std::fs::write(path, &json).map_err(|e| bail(format!("{path}: {e}")))?;
        writeln!(msg, "  trace: {path}").unwrap();
        let tf = TraceFile::parse(&json).map_err(|e| bail(format!("{path}: {e}")))?;
        crate::report::stage_table(&mut stage_table, &tf);
    }
    msg.push('\n');
    msg.push_str(&report.metrics.render());
    msg.push_str(&stage_table);
    if report.all_clean() {
        Ok(msg.trim_end().to_owned())
    } else {
        Err(bail(format!(
            "{}\nbatch had failures or non-clean verdicts",
            msg.trim_end()
        )))
    }
}

/// `plx serve`: run the resident protection daemon.
pub fn cmd_serve(args: &Args) -> Result<String> {
    let mut opts = parallax_serve::ServeOptions::default();
    if let Some(addr) = args.flag("addr") {
        opts.addr = addr.to_owned();
    }
    if let Some(v) = args.flag("workers") {
        opts.workers = v.parse().map_err(|e| bail(format!("bad --workers: {e}")))?;
    }
    if let Some(v) = args.flag("queue") {
        opts.queue_capacity = v.parse().map_err(|e| bail(format!("bad --queue: {e}")))?;
    }
    match args.flag("cache-dir") {
        Some("none") => opts.cache_dir = None,
        Some(dir) => opts.cache_dir = Some(std::path::PathBuf::from(dir)),
        None => {}
    }
    if let Some(v) = args.flag("read-timeout-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|e| bail(format!("bad --read-timeout-ms: {e}")))?;
        opts.read_timeout = std::time::Duration::from_millis(ms);
        opts.write_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(v) = args.flag("max-frame") {
        opts.max_frame = v
            .parse()
            .map_err(|e| bail(format!("bad --max-frame: {e}")))?;
    }
    opts.validate = !args.switch("no-validate");
    if let Some(v) = args.flag("slow-ms") {
        let ms: u64 = v.parse().map_err(|e| bail(format!("bad --slow-ms: {e}")))?;
        opts.flight.slow_request_us = Some(ms * 1_000);
    }
    if let Some(dir) = args.flag("blackbox-dir") {
        opts.flight.blackbox_dir = Some(std::path::PathBuf::from(dir));
    }
    let trace_out = args.flag("trace-out").map(str::to_owned);

    let server = parallax_serve::Server::bind(opts).map_err(|e| bail(format!("bind: {e}")))?;
    // The readiness line goes to stderr *before* the accept loop so a
    // supervisor (or the CI smoke job) can poll for it.
    eprintln!("plx serve listening on {}", server.local_addr());

    // SIGINT/SIGTERM → graceful drain: stop accepting, complete every
    // admitted job, answer stragglers with a typed Shutdown refusal.
    parallax_serve::install_shutdown_signal();
    let handle = server.handle();
    let watcher = std::thread::Builder::new()
        .name("plx-serve-signal".into())
        .spawn(move || loop {
            if parallax_serve::shutdown_requested() {
                handle.shutdown();
                return;
            }
            if handle.is_shutting_down() {
                // Shutdown arrived over the wire instead; nothing to do.
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        })
        .map_err(|e| bail(format!("signal watcher: {e}")))?;

    let tracer = server.tracer();
    let summary = server.run().map_err(|e| bail(format!("serve: {e}")))?;
    // Unblock the watcher if the daemon exited via a wire Shutdown.
    parallax_serve::request_shutdown();
    let _ = watcher.join();

    let mut msg = format!(
        "served {} requests in {:.1} s: {} admitted, {} shed\n",
        summary.requests,
        summary.uptime.as_secs_f64(),
        summary.admitted,
        summary.shed,
    );
    if let Some(path) = trace_out {
        std::fs::write(&path, chrome_json(&tracer.snapshot()))
            .map_err(|e| bail(format!("{path}: {e}")))?;
        writeln!(msg, "  trace: {path}").unwrap();
    }
    msg.push('\n');
    msg.push_str(&summary.metrics_text);
    Ok(msg.trim_end().to_owned())
}

/// `plx report`: render paper-style tables from `--trace-out` files.
pub fn cmd_report(args: &Args) -> Result<String> {
    let load = |p: &str| -> Result<TraceFile> {
        let text = std::fs::read_to_string(p).map_err(|e| bail(format!("{p}: {e}")))?;
        TraceFile::parse(&text).map_err(|e| bail(format!("{p}: {e}")))
    };
    if args.switch("diff") {
        let a = load(args.pos(0, "baseline trace file")?)?;
        let b = load(args.pos(1, "comparison trace file")?)?;
        Ok(render_diff(&a, &b))
    } else {
        Ok(render_report(&load(args.pos(0, "trace file")?)?))
    }
}

/// `plx profile`: critical-path and bottleneck analysis of a trace.
pub fn cmd_profile(args: &Args) -> Result<String> {
    let p = args.pos(0, "trace file")?;
    let text = std::fs::read_to_string(p).map_err(|e| bail(format!("{p}: {e}")))?;
    let tf = TraceFile::parse(&text).map_err(|e| bail(format!("{p}: {e}")))?;
    Ok(crate::profile::render_profile(&tf))
}

/// Usage text.
pub const USAGE: &str = "\
plx — the Parallax toolchain

USAGE:
  plx build    <src> -o <out.plx>
  plx protect  <src> -o <out.plx> (--verify f[,g] | --select n [--input file])
               [--mode cleartext|xor|rc4|prob] [--guard f[,g]] [--seed N]
               [--jobs N] [--trace-out <t.json>]
  plx run      <img.plx> [--input <file>] [--debugger] [--profile]
               [--trace-out <t.json>] [--dangerous-skip-verify]
  plx verify   <img.plx> [--provenance] [--provenance-dir <dir>]
  plx inspect  <img.plx>
  plx disasm   <img.plx> [function]
  plx gadgets  <img.plx>
  plx coverage <img.plx>
  plx chain    <img.plx> <function>
  plx tamper   <img.plx> --at <hex-vaddr> --bytes aa,bb -o <out.plx>
  plx batch    <manifest> [--jobs N] [--out <dir>] [--log-json <path>]
               [--cache-dir <dir>|none] [--no-validate] [--trace-out <t.json>]
  plx serve    [--addr host:port] [--workers N] [--queue N]
               [--cache-dir <dir>|none] [--read-timeout-ms N]
               [--max-frame N] [--no-validate] [--trace-out <t.json>]
               [--slow-ms N] [--blackbox-dir <dir>]
  plx report   <t.json>
  plx report   --diff <a.json> <b.json>
  plx profile  <t.json>

<src> may be a .px file or corpus:NAME (wget, nginx, bzip2, gzip, gcc,
lame); corpus workloads default --verify and --input to the workload's
designated verification function and packaged input. --jobs 0 means one
worker per core, for protect and batch alike (batch's default).";

const COMMANDS: [&str; 14] = [
    "build", "protect", "run", "verify", "inspect", "disasm", "gadgets", "coverage", "chain",
    "tamper", "batch", "serve", "report", "profile",
];

/// Dispatches a subcommand.
pub fn dispatch(cmd: &str, raw: &[String]) -> Result<String> {
    let args = Args::parse(raw, &spec_for(cmd))?;
    match cmd {
        "build" => cmd_build(&args),
        "protect" => cmd_protect(&args),
        "run" => cmd_run(&args),
        "verify" => cmd_verify(&args),
        "inspect" => cmd_inspect(&args),
        "disasm" => cmd_disasm(&args),
        "gadgets" => cmd_gadgets(&args),
        "coverage" => cmd_coverage(&args),
        "chain" => cmd_chain(&args),
        "tamper" => cmd_tamper(&args),
        "batch" => cmd_batch(&args),
        "serve" => cmd_serve(&args),
        "report" => cmd_report(&args),
        "profile" => cmd_profile(&args),
        _ => match suggest(cmd, COMMANDS) {
            Some(s) => Err(bail(format!(
                "unknown command `{cmd}` (did you mean `{s}`?)\n\n{USAGE}"
            ))),
            None => Err(bail(format!("unknown command `{cmd}`\n\n{USAGE}"))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        global secret = "k3y";
        fn licensed() { return 0; }
        fn vf(x) { return x * 3 + 1; }
        fn main() {
            // The verification function must run unconditionally so its
            // chain (and guard gadgets) execute on every path.
            let r = vf(2);
            if licensed() == 1 { return r; }
            return 99;
        }
    "#;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("plx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_owned()
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn build_run_inspect_roundtrip() {
        let src_path = tmp("prog.px");
        std::fs::write(&src_path, SRC).unwrap();
        let out = tmp("prog.plx");

        let msg = dispatch("build", &argv(&[&src_path, "-o", &out])).unwrap();
        assert!(msg.contains("built"));

        let msg = dispatch("run", &argv(&[&out])).unwrap();
        assert!(msg.contains("status 99"), "{msg}");

        let msg = dispatch("inspect", &argv(&[&out])).unwrap();
        assert!(msg.contains("licensed"));
        assert!(msg.contains("entry:"));

        let msg = dispatch("disasm", &argv(&[&out, "licensed"])).unwrap();
        assert!(msg.contains("<licensed>:"));
        assert!(msg.contains("ret"));

        let msg = dispatch("coverage", &argv(&[&out])).unwrap();
        assert!(msg.contains("any rule:"));
    }

    #[test]
    fn protect_and_tamper_flow() {
        let src_path = tmp("prot.px");
        std::fs::write(&src_path, SRC).unwrap();
        let out = tmp("prot.plx");

        let msg = dispatch(
            "protect",
            &argv(&[
                &src_path, "-o", &out, "--verify", "vf", "--guard", "licensed",
            ]),
        )
        .unwrap();
        assert!(msg.contains("chain vf"), "{msg}");

        let msg = dispatch("run", &argv(&[&out])).unwrap();
        assert!(msg.contains("status 99"), "{msg}");

        // Find a gadget address inside `licensed` via `gadgets`, patch it.
        let gout = dispatch("gadgets", &argv(&[&out])).unwrap();
        let line = gout
            .lines()
            .find(|l| l.contains("[in licensed]"))
            .expect("a gadget in licensed");
        let addr = line.trim().split(':').next().unwrap().trim().to_owned();
        let tampered = tmp("prot-tampered.plx");
        let msg = dispatch(
            "tamper",
            &argv(&[&out, "--at", &addr, "--bytes", "90,90", "-o", &tampered]),
        )
        .unwrap();
        assert!(msg.contains("patched"));

        // Fail-closed default: the tampered image is either refused at
        // load (structural verification) or, if the corruption is too
        // subtle for static checks, caught by the runtime watchdog.
        match dispatch("run", &argv(&[&tampered])) {
            Err(e) => assert!(e.0.contains("verify: FAIL"), "{}", e.0),
            Ok(msg) => assert!(
                !msg.contains("status 99"),
                "tampered run should misbehave: {msg}"
            ),
        }
        // The differential-oracle escape hatch always executes it, and
        // the ROP watchdog misbehaves.
        let msg = dispatch("run", &argv(&[&tampered, "--dangerous-skip-verify"])).unwrap();
        assert!(
            !msg.contains("status 99"),
            "tampered run should misbehave: {msg}"
        );
        // Strict verification may or may not catch a NOP-slide tamper
        // statically (the suffix can still scan as a gadget); when it
        // does object, the refusal must be machine-readable. The
        // *runtime* detection above is the paper's actual defense here.
        if let Err(e) = dispatch("verify", &argv(&[&tampered])) {
            assert!(e.0.starts_with("verify: FAIL code="), "{}", e.0);
            assert!(e.0.contains("offset="), "{}", e.0);
        }
    }

    #[test]
    fn verify_passes_clean_image_and_roundtrips_provenance() {
        let src_path = tmp("verif.px");
        std::fs::write(&src_path, SRC).unwrap();
        let out = tmp("verif.plx");
        let prov = tmp("verif-prov");

        let msg = dispatch(
            "protect",
            &argv(&[
                &src_path,
                "-o",
                &out,
                "--verify",
                "vf",
                "--provenance-dir",
                &prov,
            ]),
        )
        .unwrap();
        assert!(msg.contains("provenance:"), "{msg}");

        let msg = dispatch(
            "verify",
            &argv(&[&out, "--provenance", "--provenance-dir", &prov]),
        )
        .unwrap();
        assert!(msg.contains("verify: PASS"), "{msg}");
        assert!(msg.contains("image hash:"), "{msg}");
        assert!(msg.contains("provenance: ok"), "{msg}");
        assert!(msg.contains("stage:"), "{msg}");

        // Tampering with the file breaks the provenance lookup (the
        // hash no longer names a record) even before considering the
        // digest; here the digest check fires first.
        let mut bytes = std::fs::read(&out).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let forged = tmp("verif-forged.plx");
        std::fs::write(&forged, &bytes).unwrap();
        let e = dispatch(
            "verify",
            &argv(&[&forged, "--provenance", "--provenance-dir", &prov]),
        )
        .unwrap_err();
        assert!(e.0.starts_with("verify: FAIL code="), "{}", e.0);

        // A clean copy under a different name still verifies (records
        // are keyed by content, not path).
        let copy = tmp("verif-copy.plx");
        std::fs::copy(&out, &copy).unwrap();
        let msg = dispatch(
            "verify",
            &argv(&[&copy, "--provenance", "--provenance-dir", &prov]),
        )
        .unwrap();
        assert!(msg.contains("provenance: ok"), "{msg}");

        // And an image with no record fails the provenance check while
        // still passing structural verification without --provenance.
        let built = tmp("verif-built.plx");
        dispatch("build", &argv(&[&src_path, "-o", &built])).unwrap();
        assert!(dispatch("verify", &argv(&[&built])).is_ok());
        let e = dispatch(
            "verify",
            &argv(&[&built, "--provenance", "--provenance-dir", &prov]),
        )
        .unwrap_err();
        assert!(e.0.contains("code=provenance-missing"), "{}", e.0);
    }

    #[test]
    fn protect_modes() {
        let src_path = tmp("modes.px");
        std::fs::write(&src_path, SRC).unwrap();
        for mode in ["xor", "rc4", "prob"] {
            let out = tmp(&format!("modes-{mode}.plx"));
            dispatch(
                "protect",
                &argv(&[&src_path, "-o", &out, "--verify", "vf", "--mode", mode]),
            )
            .unwrap();
            let msg = dispatch("run", &argv(&[&out])).unwrap();
            assert!(msg.contains("status 99"), "mode {mode}: {msg}");
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(dispatch("nope", &[]).is_err());
        assert!(dispatch("build", &argv(&["missing.px", "-o", "x"])).is_err());
        let src_path = tmp("bad.px");
        std::fs::write(&src_path, "fn main( {").unwrap();
        let e = dispatch("build", &argv(&[&src_path, "-o", tmp("bad.plx").as_str()])).unwrap_err();
        assert!(e.0.contains("parse error"));
    }
}

#[cfg(test)]
mod chain_cmd_tests {
    use super::*;

    #[test]
    fn chain_disassembly_via_cli() {
        let src_path = {
            let dir = std::env::temp_dir().join("plx-cli-tests");
            std::fs::create_dir_all(&dir).unwrap();
            let p = dir.join("chaincmd.px");
            std::fs::write(
                &p,
                "fn vf(x) { return x + 1; }\nfn main() { return vf(4); }\n",
            )
            .unwrap();
            p.to_str().unwrap().to_owned()
        };
        let out = std::env::temp_dir()
            .join("plx-cli-tests/chaincmd.plx")
            .to_str()
            .unwrap()
            .to_owned();
        let argv =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        dispatch("protect", &argv(&[&src_path, "-o", &out, "--verify", "vf"])).unwrap();
        let msg = dispatch("chain", &argv(&[&out, "vf"])).unwrap();
        assert!(msg.contains("chain for `vf`"), "{msg}");
        assert!(msg.contains("pop"), "{msg}");
        assert!(msg.contains(".data"), "{msg}");
        // No chain for an unprotected function.
        assert!(dispatch("chain", &argv(&[&out, "main"])).is_err());
    }
}

#[cfg(test)]
mod select_cmd_tests {
    use super::*;

    #[test]
    fn auto_selection_from_cli() {
        let dir = std::env::temp_dir().join("plx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("select.px");
        std::fs::write(
            &src,
            r#"
            global acc = 0;
            fn fold(x) { return ((x * 31) ^ (x >>> 7)) + 5; }
            fn hot(n) {
                let i = 0;
                let s = 0;
                while i < n { s = s + fold(i) + i * i; i = i + 1; }
                return s;
            }
            fn finish(s) { return (s ^ (s >>> 16)) & 0xff; }
            fn main() {
                let s = hot(300);
                let r = finish(s);
                r = r + finish(s + 1);
                return r & 0xff;
            }
            "#,
        )
        .unwrap();
        let out = dir.join("select.plx");
        let argv: Vec<String> = vec![
            src.to_str().unwrap().into(),
            "-o".into(),
            out.to_str().unwrap().into(),
            "--select".into(),
            "1".into(),
        ];
        let msg = dispatch("protect", &argv).unwrap();
        // `finish` is the §VII-B pick: called twice, tiny, diverse.
        assert!(msg.contains("chain finish"), "{msg}");
        let run = dispatch("run", &[out.to_str().unwrap().to_string()]).unwrap();
        assert!(run.contains("status"), "{run}");
    }
}

#[cfg(test)]
mod trace_cmd_tests {
    use super::*;

    #[test]
    fn run_with_trace_flag() {
        let dir = std::env::temp_dir().join("plx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("trace.px");
        std::fs::write(&src, "fn main() { return 5; }").unwrap();
        let out = dir.join("trace.plx");
        let argv: Vec<String> = vec![
            src.to_str().unwrap().into(),
            "-o".into(),
            out.to_str().unwrap().into(),
        ];
        dispatch("build", &argv).unwrap();
        let msg = dispatch(
            "run",
            &[out.to_str().unwrap().into(), "--trace".into(), "50".into()],
        )
        .unwrap();
        assert!(msg.contains("status 5"), "{msg}");
    }
}

#[cfg(test)]
mod strict_flag_tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flag_is_rejected_with_suggestion() {
        let e = dispatch("protect", &argv(&["x.px", "-o", "y", "--mdoe", "xor"])).unwrap_err();
        assert!(
            e.0.contains("unknown flag `--mdoe`") && e.0.contains("did you mean `--mode`?"),
            "{}",
            e.0
        );
        let e = dispatch("run", &argv(&["x.plx", "--debuger"])).unwrap_err();
        assert!(e.0.contains("did you mean `--debugger`?"), "{}", e.0);
        let e = dispatch("batch", &argv(&["m.txt", "--job", "4"])).unwrap_err();
        assert!(e.0.contains("did you mean `--jobs`?"), "{}", e.0);
    }

    #[test]
    fn unknown_flag_without_a_close_match() {
        let e = dispatch("protect", &argv(&["x.px", "--frobnicate", "1"])).unwrap_err();
        assert!(e.0.contains("unknown flag `--frobnicate`"), "{}", e.0);
        assert!(!e.0.contains("did you mean"), "{}", e.0);
    }

    #[test]
    fn flags_are_per_command() {
        // `--mode` belongs to protect, not build.
        let e = dispatch("build", &argv(&["x.px", "-o", "y", "--mode", "xor"])).unwrap_err();
        assert!(e.0.contains("unknown flag `--mode`"), "{}", e.0);
        // Positional-only commands accept no flags at all.
        let e = dispatch("inspect", &argv(&["x.plx", "--verbose"])).unwrap_err();
        assert!(e.0.contains("unknown flag `--verbose`"), "{}", e.0);
    }

    #[test]
    fn unknown_command_suggestion() {
        let e = dispatch("protct", &[]).unwrap_err();
        assert!(e.0.contains("did you mean `protect`?"), "{}", e.0);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("mode", "mode"), 0);
        assert_eq!(edit_distance("mdoe", "mode"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(suggest("sede", ["seed", "mode"]), Some("seed"));
        assert_eq!(suggest("zzzzzz", ["seed", "mode"]), None);
    }
}

#[cfg(test)]
mod batch_cmd_tests {
    use super::*;

    #[test]
    fn batch_from_manifest() {
        let dir = std::env::temp_dir().join("plx-cli-batch-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("batch.px");
        std::fs::write(
            &src,
            "fn vf(x) { return x * 3 + 1; }\nfn main() { return vf(2) & 0xff; }\n",
        )
        .unwrap();
        let manifest = dir.join("batch.manifest");
        std::fs::write(
            &manifest,
            format!(
                "# test manifest\n{} verify=vf modes=cleartext,xor seeds=1,2\n",
                src.display()
            ),
        )
        .unwrap();
        let out_dir = dir.join("out");
        let cache_dir = dir.join("cache");
        let argv: Vec<String> = vec![
            manifest.display().to_string(),
            "--jobs".into(),
            "2".into(),
            "--out".into(),
            out_dir.display().to_string(),
            "--cache-dir".into(),
            cache_dir.display().to_string(),
        ];
        let msg = dispatch("batch", &argv).unwrap();
        assert!(msg.contains("clean"), "{msg}");
        assert!(msg.contains("jobs        4"), "{msg}");
        assert!(msg.contains("cache"), "{msg}");
        // Images land in --out with slash/hash-free names.
        assert!(out_dir.join("batch-cleartext-1.plx").exists());
        assert!(out_dir.join("batch-xor-2.plx").exists());
        // A batch-protected image equals a one-off `plx protect` of the
        // same source, mode, and seed.
        let single = dir.join("single.plx");
        dispatch(
            "protect",
            &[
                src.display().to_string(),
                "-o".into(),
                single.display().to_string(),
                "--verify".into(),
                "vf".into(),
                "--mode".into(),
                "xor".into(),
                "--seed".into(),
                "2".into(),
            ],
        )
        .unwrap();
        assert_eq!(
            std::fs::read(out_dir.join("batch-xor-2.plx")).unwrap(),
            std::fs::read(&single).unwrap(),
            "batch and one-off protect must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_with_trace_out_writes_parseable_trace() {
        let dir = std::env::temp_dir().join("plx-cli-batch-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("bt.px");
        std::fs::write(
            &src,
            "fn vf(x) { return x * 3 + 1; }\nfn main() { return vf(2) & 0xff; }\n",
        )
        .unwrap();
        let manifest = dir.join("bt.manifest");
        std::fs::write(
            &manifest,
            format!("{} verify=vf modes=cleartext\n", src.display()),
        )
        .unwrap();
        let trace = dir.join("bt-trace.json");
        let msg = dispatch(
            "batch",
            &[
                manifest.display().to_string(),
                "--jobs".into(),
                "1".into(),
                "--cache-dir".into(),
                "none".into(),
                "--trace-out".into(),
                trace.display().to_string(),
            ],
        )
        .unwrap();
        assert!(msg.contains("trace:"), "{msg}");
        assert!(msg.contains("pipeline stages (wall time):"), "{msg}");
        let tf = parallax_trace::TraceFile::parse(&std::fs::read_to_string(&trace).unwrap())
            .expect("batch trace parses");
        let names: Vec<&str> = tf.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("job:")), "{names:?}");
        assert!(names.contains(&"chain-compile"), "{names:?}");
        assert!(names.contains(&"validate"), "{names:?}");
        assert!(
            tf.instants.iter().any(|i| i.name == "job_finished"),
            "engine events become instants"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_rejects_bad_manifests() {
        let dir = std::env::temp_dir().join("plx-cli-batch-tests-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("bad.manifest");
        std::fs::write(&manifest, "corpus:wget mode=rot13\n").unwrap();
        let e = dispatch("batch", &[manifest.display().to_string()]).unwrap_err();
        assert!(e.0.contains("unknown mode"), "{}", e.0);
        let e = dispatch("batch", &[]).unwrap_err();
        assert!(e.0.contains("missing manifest"), "{}", e.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod report_cmd_tests {
    use super::*;
    use parallax_trace::TraceFile;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn protect_traced_corpus(dir: &std::path::Path, seed: &str) -> (String, String) {
        let out = dir.join(format!("gzip-{seed}.plx")).display().to_string();
        let trace = dir.join(format!("gzip-{seed}.json")).display().to_string();
        let msg = dispatch(
            "protect",
            &[
                // corpus:NAME source; --verify defaults to the
                // workload's designated verification function.
                "corpus:gzip".into(),
                "-o".into(),
                out.clone(),
                "--seed".into(),
                seed.into(),
                "--trace-out".into(),
                trace.clone(),
            ],
        )
        .unwrap();
        assert!(msg.contains("chain chunk_header"), "{msg}");
        assert!(msg.contains("trace:"), "{msg}");
        (out, trace)
    }

    #[test]
    fn corpus_protect_trace_meets_acceptance_shape() {
        let dir = tmp_dir("plx-cli-report-tests");
        let (_, trace) = protect_traced_corpus(&dir, "1");
        let tf = TraceFile::parse(&std::fs::read_to_string(&trace).unwrap())
            .expect("protect trace parses");

        // All eight protect stages as spans nested under the root.
        let root = tf.spans_named("protect").next().expect("root span");
        for stage in parallax_core::Stage::ALL.map(|s| s.to_string()) {
            let span = tf.spans_named(&stage).next().unwrap_or_else(|| {
                panic!("missing {stage} span");
            });
            assert_eq!(span.cat, "stage", "{stage}");
            assert_eq!(span.parent, Some(root.id), "{stage} nests under root");
        }
        // At least one VM chain-execution span with per-gadget
        // dispatch events, on the cycle-denominated lane. (The ropc
        // compile spans share the `chain:` name but live in "ropc".)
        let chain = tf
            .spans_named("chain:chunk_header")
            .find(|s| s.cat == "vm")
            .expect("chain execution span");
        assert_eq!(
            tf.thread_names.get(&chain.tid).map(String::as_str),
            Some("vm-chain (cycles)")
        );
        let dispatches = tf.instants.iter().filter(|i| i.name == "gadget").count();
        assert!(dispatches >= 1, "per-gadget dispatch events recorded");
        assert!(tf.counters["vm.run.cycles"] > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_renders_paper_tables_from_protect_trace() {
        let dir = tmp_dir("plx-cli-report-render-tests");
        let (_, trace) = protect_traced_corpus(&dir, "2");
        let msg = dispatch("report", &[trace]).unwrap();
        for needle in [
            "pipeline stages",
            "chain-compile",
            "verification overhead (per function)",
            "chunk_header",
            "overhead",
            "chain length distribution",
            "overlapping gadget fraction",
        ] {
            assert!(msg.contains(needle), "missing {needle:?} in:\n{msg}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every stage the trace holds gets a row, `verify` included, in
    /// the report and in its diff.
    #[test]
    fn report_has_a_row_for_every_stage_including_verify() {
        let dir = tmp_dir("plx-cli-report-stage-rows");
        let (_, trace) = protect_traced_corpus(&dir, "4");
        let diff = dispatch("report", &["--diff".into(), trace.clone(), trace.clone()]).unwrap();
        let report = dispatch("report", &[trace]).unwrap();
        for stage in parallax_core::Stage::ALL {
            let row = format!("  {:<14} ", stage.to_string());
            assert!(
                report
                    .lines()
                    .any(|l| l.starts_with(&row) && l.ends_with("blocks)")),
                "no {stage} row in:\n{report}"
            );
            assert!(
                diff.lines().any(|l| l.starts_with(&row)),
                "no {stage} row in:\n{diff}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_trace_out_and_diff() {
        let dir = tmp_dir("plx-cli-report-diff-tests");
        let (img, trace_a) = protect_traced_corpus(&dir, "3");
        // `plx run --trace-out` recovers chain telemetry from the saved
        // image alone (no protect report at hand). The workload needs
        // its input or it exits before the verify function runs.
        let input = dir.join("gzip.input");
        let w = parallax_corpus::by_name("gzip").unwrap();
        std::fs::write(&input, (w.input)()).unwrap();
        let trace_b = dir.join("run.json").display().to_string();
        let msg = dispatch(
            "run",
            &[
                img,
                "--input".into(),
                input.display().to_string(),
                "--trace-out".into(),
                trace_b.clone(),
            ],
        )
        .unwrap();
        assert!(msg.contains("trace written to"), "{msg}");
        let tf = TraceFile::parse(&std::fs::read_to_string(&trace_b).unwrap())
            .expect("run trace parses");
        assert!(tf.spans_named("chain:chunk_header").any(|s| s.cat == "vm"));
        assert!(tf.counters["vm.run.cycles"] > 0);

        let diff = dispatch("report", &["--diff".into(), trace_a, trace_b]).unwrap();
        assert!(
            diff.contains("pipeline stages (wall time, b - a)"),
            "{diff}"
        );
        assert!(diff.contains("chunk_header"), "{diff}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_corpus_and_bad_traces_error_cleanly() {
        let e = dispatch("protect", &["corpus:emacs".into(), "-o".into(), "x".into()]).unwrap_err();
        assert!(e.0.contains("unknown corpus workload `emacs`"), "{}", e.0);
        assert!(e.0.contains("gzip"), "{}", e.0);
        let e = dispatch("report", &["no-such-trace.json".into()]).unwrap_err();
        assert!(e.0.contains("no-such-trace.json"), "{}", e.0);
        let dir = tmp_dir("plx-cli-report-bad-tests");
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"traceEvents\":[]}").unwrap();
        let e = dispatch("report", &[bad.display().to_string()]).unwrap_err();
        assert!(e.0.contains("empty"), "{}", e.0);
        let e = dispatch("report", &[]).unwrap_err();
        assert!(e.0.contains("missing trace file"), "{}", e.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
