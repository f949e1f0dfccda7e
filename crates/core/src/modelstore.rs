//! Content-addressed version chain for trained pipelines.
//!
//! Every committed [`ClassifierPipeline`] becomes an immutable entry
//! named by its deterministic fingerprint (`model_id()`), carrying
//! metadata (parent fingerprint, trained-at sample count, feature set,
//! shape) and the serialized pipeline, closed by an FNV-1a-64 trailer,
//! like the appdb log. Entries keep FNV-1a (the control-frame codec
//! moved to CRC-64) so that stored versions stay readable byte for byte. A
//! `HEAD` file (updated atomically) points at the newest version; parent
//! links turn the store into a walkable chain, so `appclass models` can
//! show where a served fingerprint came from and a hot swap can record
//! which version superseded which.
//!
//! Integrity failures are typed: a missing entry is
//! [`Error::ModelNotFound`]; a damaged entry (bad trailer, undecodable
//! payload, or a pipeline whose recomputed fingerprint disagrees with its
//! file name) is [`Error::ModelCorrupt`].

use crate::appdb::write_atomic;
use crate::error::{Error, Result};
use crate::pipeline::ClassifierPipeline;
use appclass_metrics::wire::fnv1a64;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Metadata stored alongside each pipeline version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelMeta {
    /// Content-addressed fingerprint (`ClassifierPipeline::model_id`).
    pub id: u64,
    /// Fingerprint of the version this one supersedes (0 = chain root).
    pub parent: u64,
    /// Training snapshots the model was fitted on.
    pub samples: usize,
    /// Names of the raw metrics the preprocessor consumes.
    pub features: Vec<String>,
    /// Principal components retained by the PCA stage.
    pub n_components: usize,
    /// Neighbours consulted by the kNN stage.
    pub k: usize,
}

/// One on-disk entry: metadata plus the serialized pipeline.
#[derive(Debug, Serialize, Deserialize)]
struct StoredModel {
    meta: ModelMeta,
    pipeline: String,
}

/// A directory of checksummed, content-addressed pipeline versions.
#[derive(Debug, Clone)]
pub struct ModelStore {
    dir: PathBuf,
}

/// Upper bound on versions walked before declaring the chain cyclic.
const MAX_CHAIN: usize = 10_000;

impl ModelStore {
    /// Opens (creating if missing) a model store rooted at `dir`.
    pub fn open(dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| Error::Storage(e.to_string()))?;
        Ok(ModelStore { dir: dir.to_path_buf() })
    }

    fn entry_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:016x}.mdl"))
    }

    fn head_path(&self) -> PathBuf {
        self.dir.join("HEAD")
    }

    /// The fingerprint `HEAD` points at, if any version was committed.
    pub fn head(&self) -> Result<Option<u64>> {
        let text = match std::fs::read_to_string(self.head_path()) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Error::Storage(e.to_string())),
        };
        let id = u64::from_str_radix(text.trim(), 16)
            .map_err(|_| Error::Storage(format!("HEAD holds no fingerprint: {text:?}")))?;
        Ok(Some(id))
    }

    /// Commits a pipeline as the new chain head, parented on the current
    /// head. Re-committing the version already at head is a no-op.
    /// Returns the entry's metadata.
    pub fn commit(&self, pipeline: &ClassifierPipeline) -> Result<ModelMeta> {
        let id = pipeline.model_id();
        let head = self.head()?;
        if head == Some(id) {
            return self.meta(id);
        }
        let meta = ModelMeta {
            id,
            parent: head.unwrap_or(0),
            samples: pipeline.knn().n_training(),
            features: pipeline.preprocessor().metrics().iter().map(|m| m.name().into()).collect(),
            n_components: pipeline.n_components(),
            k: pipeline.knn().k(),
        };
        let entry = StoredModel { meta: meta.clone(), pipeline: pipeline.to_json()? };
        let body = serde_json::to_string(&entry).map_err(|e| Error::Storage(e.to_string()))?;
        let mut bytes = body.into_bytes();
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_be_bytes());
        write_atomic(&self.entry_path(id), &bytes)?;
        write_atomic(&self.head_path(), format!("{id:016x}\n").as_bytes())?;
        Ok(meta)
    }

    fn read_entry(&self, id: u64) -> Result<StoredModel> {
        let corrupt = |reason: String| Error::ModelCorrupt { id, reason };
        let bytes = match std::fs::read(self.entry_path(id)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(Error::ModelNotFound { id });
            }
            Err(e) => return Err(Error::Storage(e.to_string())),
        };
        if bytes.len() < 8 {
            return Err(corrupt("entry shorter than its checksum trailer".to_string()));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_be_bytes(trailer.try_into().expect("8-byte slice"));
        if fnv1a64(body) != stored {
            return Err(corrupt("checksum mismatch".to_string()));
        }
        let text = std::str::from_utf8(body)
            .map_err(|_| corrupt("entry payload is not utf-8".to_string()))?;
        let entry: StoredModel =
            serde_json::from_str(text).map_err(|e| corrupt(format!("bad entry payload: {e}")))?;
        if entry.meta.id != id {
            return Err(corrupt(format!("entry names itself {:#018x}", entry.meta.id)));
        }
        Ok(entry)
    }

    /// Metadata of one stored version.
    pub fn meta(&self, id: u64) -> Result<ModelMeta> {
        Ok(self.read_entry(id)?.meta)
    }

    /// Loads one version, verifying its checksum *and* that the decoded
    /// pipeline's recomputed fingerprint matches the requested id.
    pub fn load(&self, id: u64) -> Result<(ClassifierPipeline, ModelMeta)> {
        let entry = self.read_entry(id)?;
        let pipeline = ClassifierPipeline::from_json(&entry.pipeline)
            .map_err(|e| Error::ModelCorrupt { id, reason: format!("bad pipeline json: {e}") })?;
        if pipeline.model_id() != id {
            return Err(Error::ModelCorrupt {
                id,
                reason: format!("fingerprint recomputes to {:#018x}", pipeline.model_id()),
            });
        }
        Ok((pipeline, entry.meta))
    }

    /// Loads the chain head, if any version was committed.
    pub fn load_head(&self) -> Result<Option<(ClassifierPipeline, ModelMeta)>> {
        match self.head()? {
            Some(id) => Ok(Some(self.load(id)?)),
            None => Ok(None),
        }
    }

    /// Walks the version chain from `HEAD` through parent links, newest
    /// first. A missing ancestor ends the walk with its error; a cyclic
    /// chain is reported as corruption rather than looping forever.
    pub fn versions(&self) -> Result<Vec<ModelMeta>> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut cursor = self.head()?.unwrap_or(0);
        while cursor != 0 {
            if !seen.insert(cursor) || out.len() >= MAX_CHAIN {
                return Err(Error::ModelCorrupt {
                    id: cursor,
                    reason: "version chain is cyclic".to_string(),
                });
            }
            let meta = self.meta(cursor)?;
            cursor = meta.parent;
            out.push(meta);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AppClass;
    use crate::pipeline::PipelineConfig;
    use appclass_linalg::Matrix;
    use appclass_metrics::{MetricId, METRIC_COUNT};

    fn raw_run(rows: usize, cpu: f64) -> Matrix {
        let mut m = Matrix::zeros(rows, METRIC_COUNT);
        for i in 0..rows {
            m[(i, MetricId::CpuUser.index())] = cpu + (i % 3) as f64;
        }
        m
    }

    fn trained(seed_cpu: f64) -> ClassifierPipeline {
        let runs = vec![(raw_run(10, seed_cpu), AppClass::Cpu), (raw_run(10, 0.2), AppClass::Idle)];
        ClassifierPipeline::train(&runs, &PipelineConfig::paper()).unwrap()
    }

    fn store(name: &str) -> ModelStore {
        let dir =
            std::env::temp_dir().join(format!("appclass_models_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ModelStore::open(&dir).unwrap()
    }

    #[test]
    fn commit_load_roundtrip_preserves_the_pipeline() {
        let s = store("roundtrip");
        let p = trained(80.0);
        let meta = s.commit(&p).unwrap();
        assert_eq!(meta.id, p.model_id());
        assert_eq!(meta.parent, 0);
        assert_eq!(meta.samples, p.knn().n_training());
        assert_eq!(meta.features.len(), p.preprocessor().metrics().len());
        let (back, meta2) = s.load(meta.id).unwrap();
        assert_eq!(back, p);
        assert_eq!(meta2, meta);
        assert_eq!(s.head().unwrap(), Some(meta.id));
    }

    #[test]
    fn chain_links_parents_newest_first() {
        let s = store("chain");
        let a = trained(80.0);
        let b = trained(60.0);
        assert_ne!(a.model_id(), b.model_id(), "distinct training data, distinct ids");
        let ma = s.commit(&a).unwrap();
        let mb = s.commit(&b).unwrap();
        assert_eq!(mb.parent, ma.id);
        let chain = s.versions().unwrap();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].id, mb.id);
        assert_eq!(chain[1].id, ma.id);
        // Re-committing the head is a no-op, not a self-parented entry.
        let again = s.commit(&b).unwrap();
        assert_eq!(again.parent, ma.id);
        assert_eq!(s.versions().unwrap().len(), 2);
    }

    #[test]
    fn missing_version_is_typed() {
        let s = store("missing");
        assert!(matches!(s.load(0x1234), Err(Error::ModelNotFound { id: 0x1234 })));
        assert!(s.load_head().unwrap().is_none());
        assert!(s.versions().unwrap().is_empty());
    }

    #[test]
    fn damaged_entry_is_typed_corruption() {
        let s = store("damaged");
        let p = trained(80.0);
        let meta = s.commit(&p).unwrap();
        let path = s.entry_path(meta.id);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match s.load(meta.id) {
            Err(Error::ModelCorrupt { id, reason }) => {
                assert_eq!(id, meta.id);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected ModelCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn entry_lying_about_its_identity_is_corrupt() {
        // A checksummed-valid entry stored under the wrong name must be
        // rejected by the content-address check.
        let s = store("liar");
        let p = trained(80.0);
        let meta = s.commit(&p).unwrap();
        let wrong = meta.id ^ 1;
        std::fs::copy(s.entry_path(meta.id), s.entry_path(wrong)).unwrap();
        assert!(matches!(s.load(wrong), Err(Error::ModelCorrupt { .. })));
    }
}
