//! The per-artifact provenance ledger.
//!
//! Every protect() that computes a fresh image also emits a
//! [`ProvenanceRecord`]: the input fingerprint, the key-normalized
//! configuration, a toolchain/build id, per-stage artifact digests
//! (reusing the same content fingerprints that key the artifact
//! cache), and the final image hash. Records live beside the engine's
//! content-addressed disk cache in a [`Ledger`] directory, one file
//! per image hash, written with the same fsync-then-rename discipline
//! as cache entries.
//!
//! `plx verify <image> --provenance` closes the loop: it recomputes
//! the image hash, looks the record up in the ledger, and re-checks
//! the recorded hashes — so a swapped or re-linked image not only
//! fails structural verification but also *fails to match its own
//! paper trail*.
//!
//! The record format is a deliberately dumb line-based text file
//! (`key: value`, one `stage:` line per artifact kind) so it can be
//! inspected with `cat` and diffed in CI.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use parallax_core::{ArtifactStore, ChainArtifact};
use parallax_gadgets::Gadget;
use parallax_image::{format, LinkedImage};
use parallax_rewrite::{Coverage, FuncRewriteOutcome};

use crate::cache::{ArtifactKind, Key};

/// Version of the record schema (bumped when fields change).
pub const RECORD_VERSION: u32 = 1;

/// The toolchain/build identifier stamped into every record: crate
/// version plus the container format version it emits.
pub fn toolchain_id() -> String {
    format!(
        "parallax {} (plx-format {})",
        env!("CARGO_PKG_VERSION"),
        format::VERSION
    )
}

/// Accumulated digest of every artifact of one kind that contributed
/// to a build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDigest {
    /// Artifact kind name (`scan`, `rewritten-func`, `compiled-chain`,
    /// `gadget-verdict`, `coverage`).
    pub kind: String,
    /// How many artifacts of this kind flowed through the build.
    pub count: u64,
    /// Order-independent combination (wrapping sum) of each artifact's
    /// 128-bit cache fingerprint.
    pub digest: u128,
}

/// One protect()'s paper trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// Record schema version ([`RECORD_VERSION`]).
    pub version: u32,
    /// Toolchain/build id ([`toolchain_id`]).
    pub toolchain: String,
    /// Content hash of the serialized *unprotected* input image.
    pub input_hash: u128,
    /// Key-normalized configuration (the cache key's canonical text).
    pub config: String,
    /// Per-stage artifact digests, sorted by kind.
    pub stages: Vec<StageDigest>,
    /// Content hash of the final serialized protected image.
    pub image_hash: u128,
}

impl ProvenanceRecord {
    /// Renders the record to its line-based text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("plx-provenance {}\n", self.version));
        out.push_str(&format!("toolchain: {}\n", self.toolchain));
        out.push_str(&format!("input: {:032x}\n", self.input_hash));
        out.push_str(&format!("config: {}\n", self.config));
        for s in &self.stages {
            out.push_str(&format!(
                "stage: {} {} {:032x}\n",
                s.kind, s.count, s.digest
            ));
        }
        out.push_str(&format!("image: {:032x}\n", self.image_hash));
        out
    }

    /// Parses the text form back; `None` on any malformed line.
    pub fn parse(text: &str) -> Option<ProvenanceRecord> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let version: u32 = header
            .strip_prefix("plx-provenance ")?
            .trim()
            .parse()
            .ok()?;
        let mut toolchain = None;
        let mut input_hash = None;
        let mut config = None;
        let mut image_hash = None;
        let mut stages = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            if let Some(v) = line.strip_prefix("toolchain: ") {
                toolchain = Some(v.to_owned());
            } else if let Some(v) = line.strip_prefix("input: ") {
                input_hash = Some(u128::from_str_radix(v.trim(), 16).ok()?);
            } else if let Some(v) = line.strip_prefix("config: ") {
                config = Some(v.to_owned());
            } else if let Some(v) = line.strip_prefix("stage: ") {
                let mut parts = v.split_whitespace();
                let kind = parts.next()?.to_owned();
                let count: u64 = parts.next()?.parse().ok()?;
                let digest = u128::from_str_radix(parts.next()?, 16).ok()?;
                if parts.next().is_some() {
                    return None;
                }
                stages.push(StageDigest {
                    kind,
                    count,
                    digest,
                });
            } else if let Some(v) = line.strip_prefix("image: ") {
                image_hash = Some(u128::from_str_radix(v.trim(), 16).ok()?);
            } else {
                return None;
            }
        }
        Some(ProvenanceRecord {
            version,
            toolchain: toolchain?,
            input_hash: input_hash?,
            config: config?,
            stages,
            image_hash: image_hash?,
        })
    }
}

/// The on-disk ledger: one record per image hash, stored as
/// `<dir>/<imagehash>.plxp` with atomic, fsync'd writes.
pub struct Ledger {
    dir: PathBuf,
}

impl Ledger {
    /// A ledger rooted at `dir` (created on first store).
    pub fn new(dir: PathBuf) -> Ledger {
        Ledger { dir }
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the record for `image_hash` lives.
    pub fn path_for(&self, image_hash: u128) -> PathBuf {
        self.dir.join(format!("{image_hash:032x}.plxp"))
    }

    /// Stores `record` under its image hash (fsync, then atomic
    /// rename — same durability discipline as the artifact cache).
    pub fn store(&self, record: &ProvenanceRecord) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(record.image_hash);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        let publish = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(record.to_text().as_bytes())?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, &path)
        };
        if let Err(e) = publish() {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(path)
    }

    /// Loads the record for `image_hash`; `None` when absent or
    /// unparseable.
    pub fn load(&self, image_hash: u128) -> Option<ProvenanceRecord> {
        let text = std::fs::read_to_string(self.path_for(image_hash)).ok()?;
        ProvenanceRecord::parse(&text)
    }
}

/// Per-kind digests of every artifact that flowed through one build.
///
/// Each artifact — whether freshly computed (stored) or reused (a
/// cache hit) — adds its cache [`Key`]'s 128-bit hash to its kind's
/// digest via a wrapping sum, so the result is independent of worker
/// scheduling. The digests therefore describe the artifacts *this
/// particular build* consumed; a warm rebuild that reuses a whole-image
/// scan legitimately reports fewer per-candidate verdicts than the
/// cold build did.
///
/// On its own, `Digests` is the digest-only [`ArtifactStore`]: it
/// caches nothing and digests everything the pipeline offers it, for
/// builds that keep a paper trail but no cache.
#[derive(Debug, Default)]
pub struct Digests {
    acc: Mutex<HashMap<&'static str, (u64, u128)>>,
}

impl Digests {
    /// Adds one artifact to its kind's digest.
    pub fn absorb(&self, key: Key) {
        let mut acc = self.acc.lock().unwrap_or_else(|p| p.into_inner());
        let entry = acc.entry(key.kind.name()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 = entry.1.wrapping_add(key.hash);
    }

    /// The accumulated digests, sorted by kind name.
    pub fn stage_digests(&self) -> Vec<StageDigest> {
        let acc = self.acc.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<StageDigest> = acc
            .iter()
            .map(|(kind, (count, digest))| StageDigest {
                kind: (*kind).to_owned(),
                count: *count,
                digest: *digest,
            })
            .collect();
        out.sort_by(|a, b| a.kind.cmp(&b.kind));
        out
    }
}

impl ArtifactStore for Digests {
    fn store_scan(&self, img: &LinkedImage, _gadgets: &[Gadget]) {
        self.absorb(Key::of_image(ArtifactKind::Scan, img));
    }

    fn store_coverage(&self, img: &LinkedImage, _coverage: &Coverage) {
        self.absorb(Key::of_image(ArtifactKind::Coverage, img));
    }

    // The per-function fingerprints must be computed for the record to
    // digest them, so the per-function seams are on.
    fn has_func_cache(&self) -> bool {
        true
    }

    fn store_rewritten_func(&self, fingerprint: &[u8], _outcome: &FuncRewriteOutcome) {
        self.absorb(Key::of(ArtifactKind::RewrittenFunc, fingerprint));
    }

    fn store_chain(&self, fingerprint: &[u8], _artifact: &ChainArtifact) {
        self.absorb(Key::of(ArtifactKind::CompiledChain, fingerprint));
    }

    fn store_verdict(&self, key: &[u8], _verdict: &Option<Gadget>) {
        self.absorb(Key::of(ArtifactKind::GadgetVerdict, key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ProvenanceRecord {
        ProvenanceRecord {
            version: RECORD_VERSION,
            toolchain: toolchain_id(),
            input_hash: 0xdead_beef,
            config: "cfg=Demo { seed: 1 }".into(),
            stages: vec![
                StageDigest {
                    kind: "compiled-chain".into(),
                    count: 4,
                    digest: 0x1234,
                },
                StageDigest {
                    kind: "scan".into(),
                    count: 2,
                    digest: 0x5678,
                },
            ],
            image_hash: 0xfeed_f00d,
        }
    }

    #[test]
    fn text_roundtrip() {
        let rec = record();
        let text = rec.to_text();
        assert_eq!(ProvenanceRecord::parse(&text).unwrap(), rec);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(ProvenanceRecord::parse("").is_none());
        assert!(ProvenanceRecord::parse("plx-provenance 1\n").is_none()); // missing fields
        let mut text = record().to_text();
        text.push_str("mystery: field\n");
        assert!(ProvenanceRecord::parse(&text).is_none());
        let bad = record().to_text().replace("image: ", "image: zz");
        assert!(ProvenanceRecord::parse(&bad).is_none());
    }

    #[test]
    fn ledger_roundtrip() {
        let dir = std::env::temp_dir().join(format!("plx-ledger-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = Ledger::new(dir.clone());
        let rec = record();
        let path = ledger.store(&rec).unwrap();
        assert!(path.ends_with(format!("{:032x}.plxp", rec.image_hash)));
        assert_eq!(ledger.load(rec.image_hash).unwrap(), rec);
        assert!(ledger.load(1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digests_are_order_independent() {
        let key = |hash| Key {
            kind: ArtifactKind::CompiledChain,
            hash,
        };
        let a = Digests::default();
        a.absorb(key(10));
        a.absorb(key(32));
        let b = Digests::default();
        b.absorb(key(32));
        b.absorb(key(10));
        assert_eq!(a.stage_digests(), b.stage_digests());
        assert_eq!(a.stage_digests()[0].count, 2);
    }
}
