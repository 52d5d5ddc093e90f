//! Golden provenance digests: a cold `plx protect` and a cold engine
//! job over the same corpus program must keep writing exactly these
//! per-stage artifact digests. Digests are content fingerprints (image
//! bytes, function fingerprints), so any change to what the pipeline
//! fingerprints — or to how the store side accumulates it — shows up
//! here as a mismatch.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use parallax::core::ProtectConfig;
use parallax::trace::TraceFile;
use parallax_engine::{Engine, EngineOptions, Job, Ledger, ProvenanceRecord};

const PROGRAM: &str = "gzip";

/// The `stage:` lines of the record a cold protect of `gzip` writes
/// under the default configuration. `plx protect` and the batch engine
/// fingerprint the same artifacts, so both produce these lines.
const GOLDEN: &[&str] = &[
    "rewritten-func 6 c6fe4769aef470c58f3c84d8e565a2e9",
    "scan 2 707f7f9fecdb8650f0f7aa1bc678a6b6",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plx-prov-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `stage:` lines of the only record in ledger directory `dir`.
fn stage_lines(dir: &Path) -> Vec<String> {
    let mut records: Vec<ProvenanceRecord> = std::fs::read_dir(dir)
        .expect("ledger directory written")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "plxp"))
        .map(|e| {
            let text = std::fs::read_to_string(e.path()).expect("record readable");
            ProvenanceRecord::parse(&text).expect("record parses")
        })
        .collect();
    assert_eq!(records.len(), 1, "one cold protect writes one record");
    records
        .remove(0)
        .stages
        .iter()
        .map(|s| format!("{} {} {:032x}", s.kind, s.count, s.digest))
        .collect()
}

/// Runs `plx protect corpus:gzip` in `dir` with `--provenance-dir
/// prov` and a trace, returning the trace's counters.
fn cli_protect(dir: &Path, prov: &str) -> BTreeMap<String, u64> {
    std::fs::create_dir_all(dir).unwrap();
    let trace = dir.join("t.json");
    let args: Vec<String> = [
        format!("corpus:{PROGRAM}"),
        "-o".into(),
        dir.join("out.plx").display().to_string(),
        "--provenance-dir".into(),
        prov.into(),
        "--trace-out".into(),
        trace.display().to_string(),
    ]
    .into();
    parallax::cli::dispatch("protect", &args).expect("plx protect succeeds");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    TraceFile::parse(&text).expect("trace parses").counters
}

#[test]
fn cold_cli_protect_digests_match_golden() {
    let dir = temp_dir("cli");
    let ledger = dir.join("ledger");
    let counters = cli_protect(&dir, &ledger.display().to_string());
    let lines = stage_lines(&ledger);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(lines, GOLDEN);
    // The digests need per-function fingerprints, so the lookups run.
    assert!(counters["cache.func.rewritten.miss"] > 0, "{counters:?}");
}

#[test]
fn provenance_dir_none_fingerprints_nothing() {
    let dir = temp_dir("none");
    let counters = cli_protect(&dir, "none");
    let _ = std::fs::remove_dir_all(&dir);
    let func_cache: Vec<_> = counters
        .keys()
        .filter(|k| k.starts_with("cache.func."))
        .collect();
    assert!(
        func_cache.is_empty(),
        "no record, no lookups: {func_cache:?}"
    );
}

#[test]
fn cold_engine_job_digests_match_golden() {
    let dir = temp_dir("engine");
    let engine = Engine::new(EngineOptions {
        cache_dir: Some(dir.clone()),
        validate: false,
        ..EngineOptions::default()
    });
    let report = engine
        .run(vec![Job::corpus(PROGRAM, ProtectConfig::default())], |_| {})
        .expect("batch runs");
    assert!(report.results[0].error.is_none(), "{:?}", report.results[0]);
    let ledger = Ledger::new(dir.join("provenance"));
    let lines = stage_lines(ledger.dir());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(lines, GOLDEN);
}
