//! The application database of Figure 1.
//!
//! "The post-processed classification results together with the
//! corresponding execution time (t1 − t0) are stored in the application
//! database and can be used to assist future resource scheduling" (§4.3).
//! Each record holds a run's class composition, majority class, and wall
//! time; per-application statistics (mean composition over historical
//! runs, mean/min/max execution time) are what the scheduler consumes.
//!
//! # Durability
//!
//! The store persists as a log-structured file: an 8-byte header
//! (`b"APDB"` magic + big-endian version) followed by framed records,
//! each `u32 BE length ‖ body ‖ u64 BE FNV-1a-64(body)`. The log keeps
//! FNV-1a (the control-frame codec moved to CRC-64) so that records
//! already on disk stay readable byte for byte. The body is a
//! kind byte (1 = one [`RunRecord`], 2 = a full checkpoint) followed by
//! JSON. Appends go through [`AppDbWriter`], which fsyncs each frame;
//! [`ApplicationDb::open`] recovers a log by truncating a torn tail (the
//! only damage a crash mid-append can cause) while a *complete* record
//! that fails its checksum surfaces as [`Error::CorruptDb`] naming the
//! record index and byte offset. Compaction rewrites the log as a single
//! checkpoint record via temp file + fsync + rename, after which new
//! appends form the tail. The legacy whole-file JSON snapshot
//! (`save`/`load`) remains supported and is now written atomically.

use crate::class::{AppClass, ClassComposition};
use crate::cost::CostModel;
use crate::error::{Error, Result};
use appclass_metrics::wire::fnv1a64;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening a log-structured database file.
pub const DB_MAGIC: [u8; 4] = *b"APDB";

/// Log format version.
pub const DB_VERSION: u32 = 1;

/// Header size: magic + version.
const DB_HEADER: usize = 8;

/// Frame overhead around each record body: length prefix + checksum.
const FRAME_PREFIX: usize = 4;
const FRAME_TRAILER: usize = 8;

/// Record kinds inside a log frame.
const REC_RUN: u8 = 1;
const REC_CHECKPOINT: u8 = 2;

/// Upper bound on one record body — a guard against absurd allocations
/// when a length prefix is read from a damaged file.
const MAX_RECORD_BODY: usize = 16 * 1024 * 1024;

/// One historical run of an application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Application name.
    pub app: String,
    /// Majority class of the run.
    pub class: AppClass,
    /// Full class composition.
    pub composition: ClassComposition,
    /// Execution time `t1 - t0`, seconds.
    pub exec_secs: u64,
    /// Number of snapshots the classification was based on.
    pub samples: usize,
}

/// Aggregate statistics over an application's historical runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppStats {
    /// Application name.
    pub app: String,
    /// Number of recorded runs.
    pub runs: usize,
    /// Majority class across runs (mode of the per-run majority classes).
    pub class: AppClass,
    /// Mean composition over runs.
    pub mean_composition: ClassComposition,
    /// Mean execution time, seconds.
    pub mean_exec_secs: f64,
    /// Standard deviation of the execution time over runs — the
    /// "stochastic information of application behavior" the paper's §7
    /// wants schedulers to exploit (cf. Conservative Scheduling's use of
    /// predicted variance).
    pub std_exec_secs: f64,
    /// Shortest recorded run.
    pub min_exec_secs: u64,
    /// Longest recorded run.
    pub max_exec_secs: u64,
}

/// The application database: append-only run records with derived
/// statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ApplicationDb {
    records: Vec<RunRecord>,
}

impl ApplicationDb {
    /// Empty database.
    pub fn new() -> Self {
        ApplicationDb::default()
    }

    /// Appends a run record.
    pub fn record(&mut self, rec: RunRecord) {
        self.records.push(rec);
    }

    /// All records, in insertion order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Records for one application.
    pub fn runs_of(&self, app: &str) -> Vec<&RunRecord> {
        self.records.iter().filter(|r| r.app == app).collect()
    }

    /// Names of all applications with at least one record, sorted.
    pub fn applications(&self) -> Vec<String> {
        let mut set: BTreeMap<&str, ()> = BTreeMap::new();
        for r in &self.records {
            set.insert(&r.app, ());
        }
        set.into_keys().map(String::from).collect()
    }

    /// Aggregate statistics for one application; `None` if never recorded.
    pub fn stats(&self, app: &str) -> Option<AppStats> {
        let runs = self.runs_of(app);
        if runs.is_empty() {
            return None;
        }
        let compositions: Vec<ClassComposition> = runs.iter().map(|r| r.composition).collect();
        let mean_composition = ClassComposition::mean(&compositions);
        // Mode of the majority classes, ties toward AppClass::ALL order
        // (strictly-greater keeps the earliest maximum, matching
        // ClassComposition::majority's tie rule).
        let mut counts = [0usize; 5];
        for r in &runs {
            counts[r.class.index()] += 1;
        }
        let mut class = AppClass::ALL[0];
        for &c in &AppClass::ALL[1..] {
            if counts[c.index()] > counts[class.index()] {
                class = c;
            }
        }
        let mut times = appclass_linalg::stats::RunningStats::new();
        for r in &runs {
            times.push(r.exec_secs as f64);
        }
        Some(AppStats {
            app: app.to_string(),
            runs: runs.len(),
            class,
            mean_composition,
            mean_exec_secs: times.mean(),
            std_exec_secs: times.std_dev(),
            min_exec_secs: times.min().expect("non-empty") as u64,
            max_exec_secs: times.max().expect("non-empty") as u64,
        })
    }

    /// Statistics for every known application.
    pub fn all_stats(&self) -> Vec<AppStats> {
        self.applications().iter().filter_map(|a| self.stats(a)).collect()
    }

    /// Prices an application's historical mean run under a cost model:
    /// `unit_cost(mean composition) × mean exec time`.
    pub fn expected_cost(&self, app: &str, model: &CostModel) -> Option<f64> {
        let stats = self.stats(app)?;
        Some(model.run_cost(&stats.mean_composition, stats.mean_exec_secs))
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| Error::Storage(e.to_string()))
    }

    /// Deserializes from a JSON string.
    ///
    /// Malformed input yields [`Error::CorruptDb`] naming the byte offset
    /// where parsing failed, so a damaged snapshot is actionable rather
    /// than a generic parse error.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| Error::CorruptDb {
            record: 0,
            offset: json_error_offset(&e),
            reason: e.to_string(),
        })
    }

    /// Writes the database to a file as a whole JSON snapshot.
    ///
    /// The write is atomic: the snapshot lands in a temp file in the same
    /// directory, is fsynced, and is renamed over the target — a crash
    /// mid-save can never corrupt an existing database.
    pub fn save(&self, path: &Path) -> Result<()> {
        write_atomic(path, self.to_json()?.as_bytes())
    }

    /// Loads a database from a whole-file JSON snapshot.
    pub fn load(path: &Path) -> Result<Self> {
        let json = std::fs::read_to_string(path).map_err(|e| Error::Storage(e.to_string()))?;
        ApplicationDb::from_json(&json)
    }

    /// Opens a durable database file read-only, recovering from crashes.
    ///
    /// Accepts both the log-structured format (recognized by its
    /// `b"APDB"` magic) and a legacy whole-file JSON snapshot. A missing
    /// file or a log torn inside its header recovers as an empty
    /// database; a log with a torn tail recovers exactly the prefix of
    /// fully-checksummed records; a *complete* record that fails its
    /// checksum or does not decode yields [`Error::CorruptDb`].
    pub fn open(path: &Path) -> Result<Self> {
        Ok(read_any(path)?.0)
    }
}

/// How the bytes at `path` were laid out, from [`read_any`].
enum Layout {
    /// Log-structured file; `valid_len` is where the checksummed prefix
    /// ends (a torn tail starts there).
    Log { valid_len: u64 },
    /// Legacy whole-file JSON snapshot (or a file needing a fresh log).
    Rewrite,
}

/// Reads a database from disk in whichever format it is stored.
fn read_any(path: &Path) -> Result<(ApplicationDb, Layout)> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((ApplicationDb::new(), Layout::Rewrite));
        }
        Err(e) => return Err(Error::Storage(e.to_string())),
    };
    if data.is_empty() || (data.len() < DB_MAGIC.len() && DB_MAGIC.starts_with(&data)) {
        // Empty file, or a header torn before the magic completed.
        return Ok((ApplicationDb::new(), Layout::Rewrite));
    }
    if data.len() >= DB_MAGIC.len() && data[..DB_MAGIC.len()] == DB_MAGIC {
        let (db, valid_len) = read_log(&data)?;
        return Ok((db, Layout::Log { valid_len }));
    }
    // Legacy JSON snapshot.
    let json = std::str::from_utf8(&data).map_err(|e| Error::CorruptDb {
        record: 0,
        offset: e.valid_up_to() as u64,
        reason: "snapshot is neither a log nor utf-8 json".to_string(),
    })?;
    Ok((ApplicationDb::from_json(json)?, Layout::Rewrite))
}

/// Parses a log-structured file, applying torn-tail recovery.
///
/// Returns the recovered database and the byte length of the valid,
/// fully-checksummed prefix (header included).
fn read_log(data: &[u8]) -> Result<(ApplicationDb, u64)> {
    debug_assert!(data[..DB_MAGIC.len()] == DB_MAGIC);
    if data.len() < DB_HEADER {
        // Magic complete, version torn — recover empty; the writer will
        // rewrite the header.
        return Ok((ApplicationDb::new(), 0));
    }
    let version = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
    if version != DB_VERSION {
        return Err(Error::CorruptDb {
            record: 0,
            offset: 4,
            reason: format!("unsupported log version {version}"),
        });
    }
    let mut db = ApplicationDb::new();
    let mut off = DB_HEADER;
    let mut index = 0usize;
    while off < data.len() {
        let rest = &data[off..];
        if rest.len() < FRAME_PREFIX {
            break; // torn length prefix
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_RECORD_BODY {
            return Err(Error::CorruptDb {
                record: index,
                offset: off as u64,
                reason: format!("implausible record length {len}"),
            });
        }
        if rest.len() < FRAME_PREFIX + len + FRAME_TRAILER {
            break; // torn body or trailer
        }
        let body = &rest[FRAME_PREFIX..FRAME_PREFIX + len];
        let trailer = &rest[FRAME_PREFIX + len..FRAME_PREFIX + len + FRAME_TRAILER];
        let stored = u64::from_be_bytes(trailer.try_into().expect("8-byte slice"));
        if fnv1a64(body) != stored {
            return Err(Error::CorruptDb {
                record: index,
                offset: off as u64,
                reason: "checksum mismatch".to_string(),
            });
        }
        apply_record(&mut db, body, index, off as u64)?;
        off += FRAME_PREFIX + len + FRAME_TRAILER;
        index += 1;
    }
    Ok((db, off as u64))
}

/// Applies one checksummed record body to the database being recovered.
fn apply_record(db: &mut ApplicationDb, body: &[u8], index: usize, offset: u64) -> Result<()> {
    let corrupt = |reason: String| Error::CorruptDb { record: index, offset, reason };
    let (&kind, payload) =
        body.split_first().ok_or_else(|| corrupt("empty record body".to_string()))?;
    let text = std::str::from_utf8(payload)
        .map_err(|_| corrupt("record payload is not utf-8".to_string()))?;
    match kind {
        REC_RUN => {
            let rec: RunRecord = serde_json::from_str(text)
                .map_err(|e| corrupt(format!("bad run record payload: {e}")))?;
            db.records.push(rec);
        }
        REC_CHECKPOINT => {
            let records: Vec<RunRecord> = serde_json::from_str(text)
                .map_err(|e| corrupt(format!("bad checkpoint payload: {e}")))?;
            db.records = records; // a checkpoint supersedes everything before it
        }
        other => return Err(corrupt(format!("unknown record kind {other}"))),
    }
    Ok(())
}

/// Encodes one record body into its framed wire form.
fn frame_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + payload.len());
    body.push(kind);
    body.extend_from_slice(payload);
    let mut frame = Vec::with_capacity(FRAME_PREFIX + body.len() + FRAME_TRAILER);
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&fnv1a64(&body).to_be_bytes());
    frame
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let storage = |e: std::io::Error| Error::Storage(e.to_string());
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("db");
    let tmp = path.with_file_name(format!(".{file_name}.tmp"));
    let mut file = File::create(&tmp).map_err(storage)?;
    file.write_all(bytes).map_err(storage)?;
    file.sync_all().map_err(storage)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        Error::Storage(e.to_string())
    })
}

/// Extracts the byte position a JSON parse error names ("… at byte N"),
/// defaulting to 0 when the failure is a shape mismatch of the whole
/// value rather than a syntax error at a position.
fn json_error_offset(e: &serde_json::Error) -> u64 {
    let msg = e.to_string();
    if let Some(tail) = msg.split("at byte ").nth(1) {
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(n) = digits.parse() {
            return n;
        }
    }
    0
}

/// Append handle onto a durable, log-structured database file.
///
/// Opening recovers the on-disk state (truncating any torn tail), then
/// appends framed, checksummed [`RunRecord`]s with an fsync per append.
/// After [`compact_every`](AppDbWriter::set_compact_every) tail appends
/// the log is compacted into a single checkpoint record automatically;
/// [`compact`](AppDbWriter::compact) does so on demand. A legacy JSON
/// snapshot at the same path is migrated to the log format on open.
#[derive(Debug)]
pub struct AppDbWriter {
    db: ApplicationDb,
    file: File,
    path: PathBuf,
    tail_records: usize,
    compact_every: usize,
}

/// Tail records accumulated before an automatic compaction.
pub const DEFAULT_COMPACT_EVERY: usize = 1024;

impl AppDbWriter {
    /// Opens (creating if missing) the database file at `path` for
    /// appending, recovering whatever prefix of it survived.
    pub fn open(path: &Path) -> Result<Self> {
        let storage = |e: std::io::Error| Error::Storage(e.to_string());
        let (db, layout) = read_any(path)?;
        let file = match layout {
            Layout::Log { valid_len } if valid_len >= DB_HEADER as u64 => {
                let file = OpenOptions::new().write(true).open(path).map_err(storage)?;
                file.set_len(valid_len).map_err(storage)?; // drop the torn tail
                file
            }
            _ => {
                // Missing file, torn header, or legacy JSON: rewrite as a
                // fresh log (checkpointing any recovered records).
                rewrite_log(path, &db)?;
                OpenOptions::new().write(true).open(path).map_err(storage)?
            }
        };
        let mut writer = AppDbWriter {
            db,
            file,
            path: path.to_path_buf(),
            tail_records: 0,
            compact_every: DEFAULT_COMPACT_EVERY,
        };
        writer.file.seek(SeekFrom::End(0)).map_err(storage)?;
        Ok(writer)
    }

    /// Sets how many tail appends trigger an automatic compaction.
    pub fn set_compact_every(&mut self, every: usize) {
        self.compact_every = every.max(1);
    }

    /// Appends one run record durably (framed, checksummed, fsynced).
    pub fn append(&mut self, rec: RunRecord) -> Result<()> {
        let storage = |e: std::io::Error| Error::Storage(e.to_string());
        let payload = serde_json::to_string(&rec).map_err(|e| Error::Storage(e.to_string()))?;
        let frame = frame_record(REC_RUN, payload.as_bytes());
        self.file.write_all(&frame).map_err(storage)?;
        self.file.sync_data().map_err(storage)?;
        self.db.records.push(rec);
        self.tail_records += 1;
        if self.tail_records >= self.compact_every {
            self.compact()?;
        }
        Ok(())
    }

    /// Compacts the log into a single checkpoint record (atomically:
    /// temp file + fsync + rename), resetting the tail.
    pub fn compact(&mut self) -> Result<()> {
        let storage = |e: std::io::Error| Error::Storage(e.to_string());
        rewrite_log(&self.path, &self.db)?;
        self.file = OpenOptions::new().write(true).open(&self.path).map_err(storage)?;
        self.file.seek(SeekFrom::End(0)).map_err(storage)?;
        self.tail_records = 0;
        Ok(())
    }

    /// The recovered plus appended records, as a database view.
    pub fn db(&self) -> &ApplicationDb {
        &self.db
    }

    /// Consumes the writer, returning the in-memory database.
    pub fn into_db(self) -> ApplicationDb {
        self.db
    }
}

/// Rewrites `path` as header + one checkpoint record (empty db: header
/// only), atomically.
fn rewrite_log(path: &Path, db: &ApplicationDb) -> Result<()> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&DB_MAGIC);
    bytes.extend_from_slice(&DB_VERSION.to_be_bytes());
    if !db.records.is_empty() {
        let payload =
            serde_json::to_string(&db.records).map_err(|e| Error::Storage(e.to_string()))?;
        bytes.extend_from_slice(&frame_record(REC_CHECKPOINT, payload.as_bytes()));
    }
    write_atomic(path, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ResourceRates;

    fn rec(app: &str, class: AppClass, secs: u64) -> RunRecord {
        let mut fr = [0.0; 5];
        fr[class.index()] = 1.0;
        RunRecord {
            app: app.to_string(),
            class,
            composition: ClassComposition::from_fractions(fr[0], fr[1], fr[2], fr[3], fr[4])
                .unwrap(),
            exec_secs: secs,
            samples: (secs / 5) as usize,
        }
    }

    #[test]
    fn record_and_query() {
        let mut db = ApplicationDb::new();
        db.record(rec("ch3d", AppClass::Cpu, 225));
        db.record(rec("postmark", AppClass::Io, 260));
        db.record(rec("ch3d", AppClass::Cpu, 235));
        assert_eq!(db.records().len(), 3);
        assert_eq!(db.runs_of("ch3d").len(), 2);
        assert_eq!(db.applications(), vec!["ch3d".to_string(), "postmark".to_string()]);
    }

    #[test]
    fn stats_aggregate() {
        let mut db = ApplicationDb::new();
        db.record(rec("ch3d", AppClass::Cpu, 200));
        db.record(rec("ch3d", AppClass::Cpu, 300));
        let s = db.stats("ch3d").unwrap();
        assert_eq!(s.runs, 2);
        assert_eq!(s.class, AppClass::Cpu);
        assert_eq!(s.mean_exec_secs, 250.0);
        assert!((s.std_exec_secs - (50.0f64 * 50.0 * 2.0).sqrt()).abs() < 1e-9);
        assert_eq!(s.min_exec_secs, 200);
        assert_eq!(s.max_exec_secs, 300);
        assert_eq!(s.mean_composition.fraction(AppClass::Cpu), 1.0);
    }

    #[test]
    fn stats_missing_app() {
        assert!(ApplicationDb::new().stats("nope").is_none());
    }

    #[test]
    fn class_mode_across_runs() {
        let mut db = ApplicationDb::new();
        db.record(rec("multi", AppClass::Io, 100));
        db.record(rec("multi", AppClass::Io, 100));
        db.record(rec("multi", AppClass::Cpu, 100));
        assert_eq!(db.stats("multi").unwrap().class, AppClass::Io);
    }

    #[test]
    fn expected_cost_uses_mean() {
        let mut db = ApplicationDb::new();
        db.record(rec("job", AppClass::Cpu, 100));
        let model =
            CostModel::new(ResourceRates { cpu: 2.0, mem: 0.0, io: 0.0, net: 0.0, idle: 0.0 });
        assert_eq!(db.expected_cost("job", &model), Some(200.0));
        assert_eq!(db.expected_cost("ghost", &model), None);
    }

    #[test]
    fn json_roundtrip() {
        let mut db = ApplicationDb::new();
        db.record(rec("a", AppClass::Net, 50));
        let json = db.to_json().unwrap();
        assert_eq!(ApplicationDb::from_json(&json).unwrap(), db);
    }

    #[test]
    fn file_roundtrip() {
        let mut db = ApplicationDb::new();
        db.record(rec("a", AppClass::Mem, 75));
        let dir = std::env::temp_dir().join("appclass_db_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        db.save(&path).unwrap();
        let back = ApplicationDb::load(&path).unwrap();
        assert_eq!(back, db);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_storage_error() {
        let err = ApplicationDb::load(Path::new("/nonexistent/definitely/not.json"));
        assert!(matches!(err, Err(Error::Storage(_))));
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("appclass_appdb_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("db.log")
    }

    #[test]
    fn from_json_garbage_names_the_byte_offset() {
        // "[1,2,3]" is valid JSON of the wrong shape; serde fails on the
        // value at offset 1.
        match ApplicationDb::from_json("[1,2,3]") {
            Err(Error::CorruptDb { record: 0, offset, reason }) => {
                assert!(offset < 7, "offset {offset} must point inside the input");
                assert!(!reason.is_empty());
            }
            other => panic!("expected CorruptDb, got {other:?}"),
        }
    }

    #[test]
    fn log_append_and_open_roundtrip() {
        let path = scratch("roundtrip");
        std::fs::remove_file(&path).ok();
        let mut w = AppDbWriter::open(&path).unwrap();
        w.append(rec("ch3d", AppClass::Cpu, 225)).unwrap();
        w.append(rec("postmark", AppClass::Io, 260)).unwrap();
        drop(w);
        let db = ApplicationDb::open(&path).unwrap();
        assert_eq!(db.records().len(), 2);
        assert_eq!(db.records()[0].app, "ch3d");
        assert_eq!(db.records()[1].app, "postmark");
        // Reopening the writer continues the same log.
        let mut w = AppDbWriter::open(&path).unwrap();
        w.append(rec("ch3d", AppClass::Cpu, 230)).unwrap();
        assert_eq!(w.db().runs_of("ch3d").len(), 2);
        drop(w);
        assert_eq!(ApplicationDb::open(&path).unwrap().records().len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_recovers_the_checksummed_prefix() {
        let path = scratch("torn");
        std::fs::remove_file(&path).ok();
        let mut w = AppDbWriter::open(&path).unwrap();
        w.append(rec("a", AppClass::Cpu, 100)).unwrap();
        w.append(rec("b", AppClass::Io, 200)).unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Tear the last record mid-frame: everything but its trailer.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let db = ApplicationDb::open(&path).unwrap();
        assert_eq!(db.records().len(), 1, "torn tail must recover the prefix");
        assert_eq!(db.records()[0].app, "a");
        // The writer truncates the tear and keeps appending.
        let mut w = AppDbWriter::open(&path).unwrap();
        w.append(rec("c", AppClass::Net, 300)).unwrap();
        drop(w);
        let db = ApplicationDb::open(&path).unwrap();
        assert_eq!(db.applications(), vec!["a".to_string(), "c".to_string()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn complete_corrupt_record_is_a_typed_error() {
        let path = scratch("corrupt");
        std::fs::remove_file(&path).ok();
        let mut w = AppDbWriter::open(&path).unwrap();
        w.append(rec("a", AppClass::Cpu, 100)).unwrap();
        w.append(rec("b", AppClass::Io, 200)).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the SECOND record's body (not its tail):
        // the record is complete, so this is corruption, not a tear.
        let second_start = {
            let len = u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
            8 + FRAME_PREFIX + len + FRAME_TRAILER
        };
        bytes[second_start + FRAME_PREFIX + 5] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match ApplicationDb::open(&path) {
            Err(Error::CorruptDb { record, offset, .. }) => {
                assert_eq!(record, 1);
                assert_eq!(offset, second_start as u64);
            }
            other => panic!("expected CorruptDb, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_checkpoints_and_preserves_records() {
        let path = scratch("compact");
        std::fs::remove_file(&path).ok();
        let mut w = AppDbWriter::open(&path).unwrap();
        for i in 0..5 {
            w.append(rec("job", AppClass::Cpu, 100 + i)).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        w.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "checkpoint must be smaller than 5 framed appends");
        // Appends keep working after compaction, and recovery sees all.
        w.append(rec("job", AppClass::Cpu, 200)).unwrap();
        drop(w);
        assert_eq!(ApplicationDb::open(&path).unwrap().records().len(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn auto_compaction_triggers_on_threshold() {
        let path = scratch("autocompact");
        std::fs::remove_file(&path).ok();
        let mut w = AppDbWriter::open(&path).unwrap();
        w.set_compact_every(3);
        for i in 0..7 {
            w.append(rec("job", AppClass::Mem, 50 + i)).unwrap();
        }
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        // After the last auto-compaction at 6 appends, the log is one
        // checkpoint + one tail record: exactly two frames.
        let mut frames = 0;
        let mut off = DB_HEADER;
        while off < bytes.len() {
            let len =
                u32::from_be_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
                    as usize;
            off += FRAME_PREFIX + len + FRAME_TRAILER;
            frames += 1;
        }
        assert_eq!(frames, 2, "expected checkpoint + tail, got {frames} frames");
        assert_eq!(ApplicationDb::open(&path).unwrap().records().len(), 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_json_snapshot_migrates_on_open() {
        let path = scratch("legacy");
        std::fs::remove_file(&path).ok();
        let mut db = ApplicationDb::new();
        db.record(rec("old", AppClass::Net, 42));
        std::fs::write(&path, db.to_json().unwrap()).unwrap();
        // Read-only open understands the legacy snapshot…
        assert_eq!(ApplicationDb::open(&path).unwrap(), db);
        // …and the writer migrates it to the log format.
        let mut w = AppDbWriter::open(&path).unwrap();
        w.append(rec("new", AppClass::Cpu, 43)).unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..4], &DB_MAGIC);
        let merged = ApplicationDb::open(&path).unwrap();
        assert_eq!(merged.applications(), vec!["new".to_string(), "old".to_string()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_under_a_simulated_partial_write() {
        // A crash mid-save leaves a partial TEMP file, never a partial
        // target: the old database must still load intact.
        let path = scratch("atomic");
        std::fs::remove_file(&path).ok();
        let mut db = ApplicationDb::new();
        db.record(rec("survivor", AppClass::Cpu, 77));
        db.save(&path).unwrap();
        // Simulate the crash: the temp file a dying save would leave.
        let tmp = path.with_file_name(".db.log.tmp");
        std::fs::write(&tmp, &db.to_json().unwrap().as_bytes()[..10]).unwrap();
        let restored = ApplicationDb::load(&path).unwrap();
        assert_eq!(restored, db);
        // A subsequent save replaces the stale temp file and succeeds.
        db.record(rec("survivor", AppClass::Cpu, 78));
        db.save(&path).unwrap();
        assert_eq!(ApplicationDb::load(&path).unwrap(), db);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn open_missing_file_is_empty() {
        let db = ApplicationDb::open(Path::new("/nonexistent/definitely/not.log")).unwrap();
        assert!(db.records().is_empty());
    }
}
