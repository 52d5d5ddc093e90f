//! Disk-cache corruption regressions: both layers of defense.
//!
//! Layer 1 (cache self-hash): a `.plxc` entry whose payload bytes rot
//! while its stored hash stays put must fetch as `Poisoned`, get
//! evicted, and heal on the next store.
//!
//! Layer 2 (consumer verification): a `.plxc` entry whose stored hash
//! was *re-stamped* over corrupted bytes passes the self-hash — only
//! the engine's fail-closed image verification on fetch can catch it.
//! The engine must evict the entry, recompute, and produce the same
//! bytes a cold run would.

use std::path::PathBuf;
use std::sync::Mutex;

use parallax_compiler::parse_module;
use parallax_core::{FaultPlan, ProtectConfig};
use parallax_engine::{
    hash128, ArtifactCache, ArtifactKind, Engine, EngineEvent, EngineOptions, Fetch, Job,
    JobSource, Key, ProvenanceRecord,
};
use parallax_gadgets::{deserialize_gadgets, Gadget};

const SRC: &str = r#"
    fn vf(x) { return x * 5 + 3; }
    fn main() { return vf(7); }
"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plx-disk-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn one_job() -> Job {
    let module = parse_module(SRC).expect("test module parses");
    Job {
        name: "disk/cleartext#1".to_owned(),
        source: JobSource::Module(Box::new(module)),
        cfg: ProtectConfig {
            verify_funcs: vec!["vf".to_owned()],
            ..ProtectConfig::default()
        },
        input: None,
        plan: FaultPlan::default(),
    }
}

/// Finds the single on-disk entry of `kind` under `dir`.
fn entry_path(dir: &PathBuf, kind: &str) -> PathBuf {
    let mut found = Vec::new();
    for f in std::fs::read_dir(dir).expect("cache dir exists").flatten() {
        let name = f.file_name().to_string_lossy().into_owned();
        if name.starts_with(kind) && name.ends_with(".plxc") {
            found.push(f.path());
        }
    }
    assert_eq!(found.len(), 1, "expected one {kind} entry: {found:?}");
    found.remove(0)
}

#[test]
fn disk_payload_corruption_is_detected_evicted_and_healed() {
    let dir = temp_dir("layer1");
    let key = Key {
        kind: ArtifactKind::Scan,
        hash: 42,
    };
    let payload = b"gadget soup".to_vec();
    {
        let cache = ArtifactCache::new(8, Some(dir.clone()));
        cache.store(key, payload.clone());
    }

    // Rot one payload byte on disk; the stored hash (bytes 4..20)
    // stays, so the self-check must fail.
    let path = entry_path(&dir, "scan");
    let mut bytes = std::fs::read(&path).expect("entry readable");
    bytes[20] ^= 0x01;
    std::fs::write(&path, &bytes).expect("entry writable");

    let cache = ArtifactCache::new(8, Some(dir.clone()));
    assert!(matches!(cache.fetch(key), Fetch::Poisoned));
    // Eviction removed the bad entry: next fetch is a clean miss.
    assert!(matches!(cache.fetch(key), Fetch::Miss));
    assert_eq!(cache.stats().poisoned, 1);

    // Healing: a fresh store round-trips again, even from a cold cache.
    cache.store(key, payload.clone());
    let cold = ArtifactCache::new(8, Some(dir.clone()));
    match cold.fetch(key) {
        Fetch::Hit(p) => assert_eq!(p, payload),
        other => panic!("expected hit after heal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restamped_protected_entry_fails_image_verification_and_recomputes() {
    let dir = temp_dir("layer2");
    let opts = || EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    };

    let cold = Engine::new(opts())
        .run(vec![one_job()], |_| {})
        .expect("cold run");
    assert!(cold.all_clean());
    let clean_image = cold.results[0].image.clone();
    assert!(!clean_image.is_empty());

    // The cold run must have written a provenance record whose image
    // hash matches the produced bytes.
    let ledger_dir = dir.join("provenance");
    let record_path = ledger_dir.join(format!("{:032x}.plxp", hash128(&clean_image)));
    let record = ProvenanceRecord::parse(
        &std::fs::read_to_string(&record_path).expect("provenance record written"),
    )
    .expect("provenance record parses");
    assert_eq!(record.image_hash, hash128(&clean_image));
    assert!(
        !record.stages.is_empty(),
        "record must digest pipeline artifacts"
    );

    // Corrupt the protected entry *and re-stamp its self-hash*, the
    // way a deliberate tamperer (not bit-rot) would: the cache layer
    // now believes the bytes, so only load-time image verification
    // stands between the entry and the VM.
    let path = entry_path(&dir, "protected");
    let mut bytes = std::fs::read(&path).expect("entry readable");
    let mid = 20 + (bytes.len() - 20) / 2;
    bytes[mid] ^= 0x40;
    let restamp = hash128(&bytes[20..]).to_le_bytes();
    bytes[4..20].copy_from_slice(&restamp);
    std::fs::write(&path, &bytes).expect("entry writable");

    // Fresh engine over the same disk cache (memory layer empty): the
    // fetch self-hash passes, verification fails, the entry is evicted
    // and the job recomputed to byte-identical output.
    let events = Mutex::new(Vec::new());
    let engine = Engine::new(opts());
    let second = engine
        .run(vec![one_job()], |ev| {
            if let Ok(mut v) = events.lock() {
                v.push(ev.clone());
            }
        })
        .expect("second run");
    assert!(second.all_clean());
    assert!(
        !second.results[0].cached,
        "tampered entry must not be served"
    );
    assert_eq!(
        second.results[0].image, clean_image,
        "recompute must be byte-identical to the cold run"
    );
    let events = events.into_inner().expect("no poisoned lock");
    assert!(
        events.iter().any(|ev| matches!(
            ev,
            EngineEvent::CachePoisoned {
                kind: ArtifactKind::Protected,
                ..
            }
        )),
        "tampered protected entry must be reported as poisoned"
    );

    // The cache healed: a third run (same engine, warm store) hits.
    let third = engine.run(vec![one_job()], |_| {}).expect("third run");
    assert!(third.results[0].cached, "cache must heal after recompute");
    assert_eq!(third.results[0].image, clean_image);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scan payload in the per-gadget `PGS\x01` container older builds
/// wrote: a count, then each gadget with all of its record's fields.
/// The effect lists are left empty, which that container allowed.
fn per_gadget_container(gadgets: &[Gadget]) -> Vec<u8> {
    fn u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let mut out = b"PGS\x01".to_vec();
    u32(&mut out, gadgets.len() as u32);
    for g in gadgets {
        u32(&mut out, g.vaddr);
        u32(&mut out, g.len);
        out.push(u8::from(g.far));
        u32(&mut out, g.slots);
        u32(&mut out, g.insn_count);
        u32(&mut out, g.disasm.len() as u32);
        out.extend_from_slice(g.disasm.as_bytes());
        out.extend_from_slice(&[0, 0, 0]);
    }
    out
}

/// Every on-disk entry of `kind` under `dir`.
fn entry_paths(dir: &PathBuf, kind: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .flatten()
        .map(|f| f.path())
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with(kind) && name.ends_with(".plxc")
        })
        .collect();
    found.sort();
    found
}

/// A scan entry an older build left in the cache directory passes the
/// self-hash but is not this build's container: the engine reads it as
/// a miss, rescans, and overwrites it with the current container.
#[test]
fn old_container_scan_entry_is_rescanned_not_served() {
    let dir = temp_dir("old-scan");
    let opts = || EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    };
    let cold = Engine::new(opts())
        .run(vec![one_job()], |_| {})
        .expect("cold run");
    assert!(cold.all_clean());
    let clean_image = cold.results[0].image.clone();

    // Replace every scan payload with its old-container form under a
    // valid self-hash, and drop the protected result so the next run
    // protects again and fetches the scans.
    let scans = entry_paths(&dir, "scan");
    assert!(!scans.is_empty());
    for path in &scans {
        let bytes = std::fs::read(path).expect("entry readable");
        let gadgets = deserialize_gadgets(&bytes[20..]).expect("a current scan payload");
        let old = per_gadget_container(&gadgets);
        assert!(deserialize_gadgets(&old).is_none());
        let mut planted = bytes[..4].to_vec();
        planted.extend_from_slice(&hash128(&old).to_le_bytes());
        planted.extend_from_slice(&old);
        std::fs::write(path, planted).expect("entry writable");
    }
    std::fs::remove_file(entry_path(&dir, "protected")).expect("protected entry removed");

    let events = Mutex::new(Vec::new());
    let second = Engine::new(opts())
        .run(vec![one_job()], |ev| {
            if let Ok(mut v) = events.lock() {
                v.push(ev.clone());
            }
        })
        .expect("second run");
    assert!(second.all_clean());
    assert!(!second.results[0].cached);
    assert_eq!(second.results[0].image, clean_image);
    let events = events.into_inner().expect("no poisoned lock");
    assert!(
        events.iter().any(|ev| matches!(
            ev,
            EngineEvent::CacheHit {
                kind: ArtifactKind::Scan,
                ..
            }
        )),
        "the planted entries must have been fetched"
    );
    // The rescan stored the current container over each old entry.
    assert_eq!(entry_paths(&dir, "scan"), scans);
    for path in &scans {
        let bytes = std::fs::read(path).expect("entry readable");
        assert!(deserialize_gadgets(&bytes[20..]).is_some(), "{path:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_same_key_writers_never_publish_torn_bytes() {
    // Two simultaneous `protect` requests for the same binary store
    // the same key with byte-identical payloads. The publish path must
    // give each writer its *own* temp file: with a shared temp name,
    // one writer's `File::create` truncates under another mid-write
    // and the rename can publish torn bytes under the final name.
    // Last-writer-wins is fine — a torn entry is not.
    use std::sync::{Arc, Barrier};

    let dir = temp_dir("race");
    let key = Key {
        kind: ArtifactKind::Protected,
        hash: 0xdead_beef,
    };
    // Large enough that writers overlap inside write_all.
    let payload: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();

    const WRITERS: usize = 8;
    const ROUNDS: usize = 10;
    for round in 0..ROUNDS {
        let cache = Arc::new(ArtifactCache::new(4, Some(dir.clone())));
        let barrier = Arc::new(Barrier::new(WRITERS));
        let threads: Vec<_> = (0..WRITERS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                let payload = payload.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.store(key, payload);
                })
            })
            .collect();
        for t in threads {
            t.join().expect("writer thread");
        }
        // A cold cache (empty memory layer) must read the published
        // entry back verbatim: whichever writer won the rename, the
        // bytes under the final name are whole.
        let cold = ArtifactCache::new(4, Some(dir.clone()));
        match cold.fetch(key) {
            Fetch::Hit(p) => assert_eq!(p, payload, "round {round}: payload intact"),
            other => panic!("round {round}: expected hit, got {other:?} — torn publish"),
        }
    }
    // No writer leaked a temp file on the success path.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .map(|f| f.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("tmp"))
        .collect();
    assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verification_counters_reach_the_tracer() {
    let tracer = std::sync::Arc::new(parallax_trace::Tracer::new());
    let engine = Engine::new(EngineOptions {
        trace: Some(std::sync::Arc::clone(&tracer)),
        ..EngineOptions::default()
    });
    let report = engine.run(vec![one_job()], |_| {}).expect("batch runs");
    assert!(report.all_clean());
    let snap = tracer.snapshot();
    assert_eq!(snap.counters.get("image.verify.pass"), Some(&1));
    assert!(snap.counters.contains_key("image.verify.ns"));
    assert!(!snap.counters.contains_key("image.verify.fail"));
}
