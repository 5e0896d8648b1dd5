//! Crash-safe checkpoint journal for supervised suite runs.
//!
//! A journal is a family of files sharing one `prefix` path:
//!
//! ```text
//! <prefix>.seg0000   sealed segment (immutable once renamed into place)
//! <prefix>.seg0001   ...
//! <prefix>.part      the active segment being appended to
//! ```
//!
//! Each file is a CRC-protected header followed by length-prefixed,
//! checksummed records (all integers big-endian, via [`copa_mac::wire`]):
//!
//! ```text
//! header:  "CPAJ" | version u8 | segment u32 | suite_len u32 | seed u64 | crc32 u32
//! record:  len u32 | crc32(payload) u32 | payload
//! payload: index u32 | attempts u32 | backoff_us u64 | status u8 | status fields
//! ```
//!
//! Floats are stored as raw `f64` bits so a replayed record reproduces the
//! original value exactly. Every `records_per_segment` appends the active
//! part is fsynced and atomically renamed to the next sealed segment, so a
//! crash can only ever tear the tail of `<prefix>.part`: [`load_journal`]
//! verifies checksums record by record and salvages the valid prefix,
//! falling back to the last valid record instead of erroring the run.

use crate::supervisor::{TopologyOutcome, TopologyRecord};
use copa_core::{CopaError, Strategy};
use copa_mac::wire::{ByteReader, ByteWriter};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File magic of every journal segment.
pub const MAGIC: [u8; 4] = *b"CPAJ";

/// On-disk format version.
pub const VERSION: u8 = 1;

/// Header size: magic + version + segment + suite_len + seed + crc.
const HEADER_LEN: usize = 4 + 1 + 4 + 4 + 8 + 4;

/// The record and header checksum: the ITS frame codec's CRC-32.
pub use copa_mac::frames::crc32;

/// Record status tags (part of the on-disk format: never renumber).
const STATUS_DONE: u8 = 0;
const STATUS_PANICKED: u8 = 1;
const STATUS_QUARANTINED: u8 = 2;
const STATUS_ABANDONED: u8 = 3;
const STATUS_FAILED: u8 = 4;

fn put_text(w: &mut ByteWriter, s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(usize::from(u16::MAX));
    w.put_u16(n as u16);
    w.put_slice(&bytes[..n]);
}

fn get_text(r: &mut ByteReader<'_>) -> Option<String> {
    let n = usize::from(r.get_u16().ok()?);
    Some(String::from_utf8_lossy(r.take(n).ok()?).into_owned())
}

/// Serializes one record payload (without the `len | crc` framing).
pub fn encode_record(rec: &TopologyRecord) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64);
    w.put_u32(rec.index);
    w.put_u32(rec.attempts);
    w.put_u64(rec.backoff_us);
    match &rec.outcome {
        TopologyOutcome::Done { mbps, strategy } => {
            w.put_u8(STATUS_DONE);
            w.put_u64(mbps.to_bits());
            w.put_u8(strategy.wire_tag());
        }
        TopologyOutcome::Panicked { payload } => {
            w.put_u8(STATUS_PANICKED);
            put_text(&mut w, payload);
        }
        TopologyOutcome::Quarantined {
            context,
            subcarrier,
            cond,
        } => {
            w.put_u8(STATUS_QUARANTINED);
            put_text(&mut w, context);
            w.put_u32(*subcarrier);
            w.put_u64(cond.to_bits());
        }
        TopologyOutcome::Abandoned => w.put_u8(STATUS_ABANDONED),
        TopologyOutcome::Failed { error } => {
            w.put_u8(STATUS_FAILED);
            put_text(&mut w, error);
        }
    }
    w.into_vec()
}

/// Inverse of [`encode_record`]; `None` on any malformed payload (short,
/// trailing garbage, unknown status or strategy tag).
pub fn decode_record(payload: &[u8]) -> Option<TopologyRecord> {
    let mut r = ByteReader::new(payload);
    let index = r.get_u32().ok()?;
    let attempts = r.get_u32().ok()?;
    let backoff_us = r.get_u64().ok()?;
    let outcome = match r.get_u8().ok()? {
        STATUS_DONE => TopologyOutcome::Done {
            mbps: f64::from_bits(r.get_u64().ok()?),
            strategy: Strategy::from_wire_tag(r.get_u8().ok()?)?,
        },
        STATUS_PANICKED => TopologyOutcome::Panicked {
            payload: get_text(&mut r)?,
        },
        STATUS_QUARANTINED => TopologyOutcome::Quarantined {
            context: get_text(&mut r)?,
            subcarrier: r.get_u32().ok()?,
            cond: f64::from_bits(r.get_u64().ok()?),
        },
        STATUS_ABANDONED => TopologyOutcome::Abandoned,
        STATUS_FAILED => TopologyOutcome::Failed {
            error: get_text(&mut r)?,
        },
        _ => return None,
    };
    if !r.is_empty() {
        return None;
    }
    Some(TopologyRecord {
        index,
        attempts,
        backoff_us,
        outcome,
    })
}

fn with_suffix(prefix: &Path, suffix: &str) -> PathBuf {
    let mut name = prefix.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

fn segment_path(prefix: &Path, i: u32) -> PathBuf {
    with_suffix(prefix, &format!(".seg{i:04}"))
}

fn part_path(prefix: &Path) -> PathBuf {
    with_suffix(prefix, ".part")
}

fn io_err(context: &'static str, e: &std::io::Error) -> CopaError {
    CopaError::JournalError {
        context,
        detail: e.to_string(),
    }
}

/// Removes every file of the journal at `prefix` (sealed segments and the
/// active part). Used by fresh runs and by tests cleaning up.
pub fn wipe_journal(prefix: &Path) -> Result<(), CopaError> {
    let _ = fs::remove_file(part_path(prefix));
    let mut i = 0u32;
    loop {
        let p = segment_path(prefix, i);
        match fs::remove_file(&p) {
            Ok(()) => i += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(io_err("journal wipe", &e)),
        }
    }
}

fn encode_header(segment: u32, suite_len: u32, seed: u64) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(HEADER_LEN);
    w.put_slice(&MAGIC);
    w.put_u8(VERSION);
    w.put_u32(segment);
    w.put_u32(suite_len);
    w.put_u64(seed);
    let crc = crc32(w.as_slice());
    w.put_u32(crc);
    w.into_vec()
}

/// Creates (truncating) the active part and writes its header.
fn open_part(prefix: &Path, segment: u32, suite_len: u32, seed: u64) -> Result<File, CopaError> {
    let mut part = File::create(part_path(prefix)).map_err(|e| io_err("part create", &e))?;
    part.write_all(&encode_header(segment, suite_len, seed))
        .map_err(|e| io_err("part header", &e))?;
    Ok(part)
}

/// Write-side accounting for one [`JournalWriter`] lifetime. Counts are
/// order-independent (a resume that re-appends salvaged records counts
/// them again, since they are physically rewritten), so totals are
/// invariant to worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records physically appended (including carried salvage records).
    pub records_appended: u64,
    /// Segments sealed (fsync + rename), including the final partial one.
    pub segments_sealed: u32,
    /// Record frame bytes written (`len | crc | payload`), headers excluded.
    pub bytes_written: u64,
}

/// Append-only writer over the journal at `prefix`.
pub struct JournalWriter {
    prefix: PathBuf,
    suite_len: u32,
    seed: u64,
    records_per_segment: u32,
    segment: u32,
    in_segment: u32,
    part: File,
    stats: JournalStats,
}

impl JournalWriter {
    /// Starts a fresh journal, wiping any files a previous run left behind.
    pub fn create(
        prefix: &Path,
        suite_len: u32,
        seed: u64,
        records_per_segment: u32,
    ) -> Result<Self, CopaError> {
        let nothing = std::iter::empty::<&[u8]>();
        Self::reopen(prefix, suite_len, seed, records_per_segment, None, nothing)
    }

    /// Continues the journal described by a loaded [`JournalState`]: when
    /// the sealed segments are intact only the torn part is rewritten;
    /// when a sealed segment itself was corrupt the whole journal is
    /// rebuilt from the salvaged records.
    pub fn resume(
        prefix: &Path,
        suite_len: u32,
        seed: u64,
        records_per_segment: u32,
        state: &JournalState,
    ) -> Result<Self, CopaError> {
        let carried = if state.sealed_intact {
            &state.part
        } else {
            &state.records
        };
        let sealed = state.sealed_intact.then_some(state.sealed_segments);
        let payloads = carried.iter().map(encode_record);
        Self::reopen(
            prefix,
            suite_len,
            seed,
            records_per_segment,
            sealed,
            payloads,
        )
    }

    /// Continues a raw-payload journal described by a loaded
    /// [`RawJournalState`], exactly as [`JournalWriter::resume`] does for
    /// records.
    pub fn resume_raw(
        prefix: &Path,
        suite_len: u32,
        seed: u64,
        records_per_segment: u32,
        state: &RawJournalState,
    ) -> Result<Self, CopaError> {
        let carried = if state.sealed_intact {
            &state.part
        } else {
            &state.payloads
        };
        let sealed = state.sealed_intact.then_some(state.sealed_segments);
        Self::reopen(
            prefix,
            suite_len,
            seed,
            records_per_segment,
            sealed,
            carried,
        )
    }

    /// The one open path: keeps `sealed` intact sealed segments and opens
    /// a fresh active part after them (`None` wipes the journal and starts
    /// at segment 0), then re-appends the `carried` payloads.
    fn reopen<P: AsRef<[u8]>>(
        prefix: &Path,
        suite_len: u32,
        seed: u64,
        records_per_segment: u32,
        sealed: Option<u32>,
        carried: impl IntoIterator<Item = P>,
    ) -> Result<Self, CopaError> {
        let segment = match sealed {
            Some(n) => n,
            None => {
                wipe_journal(prefix)?;
                0
            }
        };
        let mut w = Self {
            prefix: prefix.to_path_buf(),
            suite_len,
            seed,
            records_per_segment: records_per_segment.max(1),
            segment,
            in_segment: 0,
            part: open_part(prefix, segment, suite_len, seed)?,
            stats: JournalStats::default(),
        };
        for payload in carried {
            w.append_payload(payload.as_ref())?;
        }
        Ok(w)
    }

    /// Appends one record (`len | crc | payload` framing) and seals the
    /// segment when it reaches `records_per_segment`.
    pub fn append(&mut self, rec: &TopologyRecord) -> Result<(), CopaError> {
        self.append_payload(&encode_record(rec))
    }

    /// Appends one raw payload with the same `len | crc | payload` framing
    /// the record path uses. This is the byte-level door other checkpoint
    /// codecs (the daemon's epoch checkpoints) write through without the
    /// journal having to know their record shape.
    pub fn append_payload(&mut self, payload: &[u8]) -> Result<(), CopaError> {
        let mut frame = ByteWriter::with_capacity(payload.len() + 8);
        frame.put_u32(payload.len() as u32);
        frame.put_u32(crc32(payload));
        frame.put_slice(payload);
        self.part
            .write_all(frame.as_slice())
            .map_err(|e| io_err("record append", &e))?;
        self.stats.records_appended += 1;
        self.stats.bytes_written += frame.as_slice().len() as u64;
        self.in_segment += 1;
        if self.in_segment >= self.records_per_segment {
            self.seal()?;
        }
        Ok(())
    }

    /// Fsyncs the active part and atomically renames it into place as the
    /// next sealed segment, then opens a fresh part.
    fn seal(&mut self) -> Result<(), CopaError> {
        self.part
            .sync_all()
            .map_err(|e| io_err("segment sync", &e))?;
        fs::rename(
            part_path(&self.prefix),
            segment_path(&self.prefix, self.segment),
        )
        .map_err(|e| io_err("segment rename", &e))?;
        self.stats.segments_sealed += 1;
        self.segment += 1;
        self.in_segment = 0;
        self.part = open_part(&self.prefix, self.segment, self.suite_len, self.seed)?;
        Ok(())
    }

    /// Write-side accounting so far.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Seals any partially-filled segment and removes the empty part
    /// file, returning the final write-side accounting.
    pub fn finish(mut self) -> Result<JournalStats, CopaError> {
        if self.in_segment > 0 {
            self.seal()?;
        }
        let _ = fs::remove_file(part_path(&self.prefix));
        Ok(self.stats)
    }
}

/// What [`load_journal`] salvaged from disk.
#[derive(Clone, Debug, Default)]
pub struct JournalState {
    /// Every valid record in append order (sealed segments then part),
    /// keeping the first record per topology index.
    pub records: Vec<TopologyRecord>,
    /// Number of fully-valid sealed segments.
    pub sealed_segments: u32,
    /// `false` when a *sealed* segment was corrupt (the journal must be
    /// rebuilt); a torn active part alone keeps this `true`.
    pub sealed_intact: bool,
    /// The records salvaged from the unsealed active part.
    pub part: Vec<TopologyRecord>,
    /// Files (sealed segments or the part) that were torn or corrupt and
    /// needed their valid prefix salvaged.
    pub salvage_events: u32,
}

/// Parses one segment file body: header check, then frames until the
/// first torn/corrupt one. `decode` turns each CRC-valid payload into an
/// item; a payload it rejects counts as corruption and truncates the
/// salvage there. Returns the items and whether the file was clean to its
/// last byte. Header corruption salvages nothing; a CRC-valid header that
/// disagrees on `segment`/`suite_len`/`seed` is a hard error (this journal
/// belongs to a different run).
fn parse_segment<T>(
    bytes: &[u8],
    segment: u32,
    suite_len: u32,
    seed: u64,
    decode: impl Fn(&[u8]) -> Option<T>,
) -> Result<(Vec<T>, bool), CopaError> {
    if bytes.len() < HEADER_LEN
        || bytes[..4] != MAGIC
        || crc32(&bytes[..HEADER_LEN - 4]).to_be_bytes() != bytes[HEADER_LEN - 4..HEADER_LEN]
    {
        return Ok((Vec::new(), false));
    }
    let mut r = ByteReader::new(&bytes[4..HEADER_LEN - 4]);
    // invariant: HEADER_LEN bounds were just checked
    let version = r.get_u8().expect("header length checked");
    let got_segment = r.get_u32().expect("header length checked");
    let got_len = r.get_u32().expect("header length checked");
    let got_seed = r.get_u64().expect("header length checked");
    if version != VERSION {
        return Ok((Vec::new(), false));
    }
    if got_segment != segment || got_len != suite_len || got_seed != seed {
        return Err(CopaError::JournalError {
            context: "segment header",
            detail: format!(
                "journal mismatch: segment {got_segment} len {got_len} seed {got_seed:#x}, \
                 expected segment {segment} len {suite_len} seed {seed:#x}"
            ),
        });
    }
    let mut items = Vec::new();
    let mut r = ByteReader::new(&bytes[HEADER_LEN..]);
    while !r.is_empty() {
        let item = (|| {
            let len = r.get_u32().ok()? as usize;
            let crc = r.get_u32().ok()?;
            let payload = r.take(len).ok()?;
            if crc32(payload) != crc {
                return None;
            }
            decode(payload)
        })();
        match item {
            Some(t) => items.push(t),
            None => return Ok((items, false)),
        }
    }
    Ok((items, true))
}

/// What one journal walk salvaged, whatever the per-payload decode.
struct Salvage<T> {
    all: Vec<T>,
    part: Vec<T>,
    sealed_segments: u32,
    sealed_intact: bool,
    salvage_events: u32,
}

/// The one segment walk behind [`load_journal`] and [`load_journal_raw`]:
/// sealed segments in order until the first missing one, then the active
/// part, each parsed with `decode`. A torn or corrupt *sealed* segment
/// keeps its salvage, drops everything after the corruption, and flags the
/// journal for rebuild.
fn walk_journal<T: Clone>(
    prefix: &Path,
    suite_len: u32,
    seed: u64,
    decode: impl Fn(&[u8]) -> Option<T>,
) -> Result<Salvage<T>, CopaError> {
    let mut s = Salvage {
        all: Vec::new(),
        part: Vec::new(),
        sealed_segments: 0,
        sealed_intact: true,
        salvage_events: 0,
    };
    while let Some(bytes) =
        read_if_exists(&segment_path(prefix, s.sealed_segments), "segment read")?
    {
        let (items, clean) = parse_segment(&bytes, s.sealed_segments, suite_len, seed, &decode)?;
        s.all.extend(items);
        if !clean {
            s.sealed_intact = false;
            s.salvage_events += 1;
            return Ok(s);
        }
        s.sealed_segments += 1;
    }
    if let Some(bytes) = read_if_exists(&part_path(prefix), "part read")? {
        let (items, clean) = parse_segment(&bytes, s.sealed_segments, suite_len, seed, &decode)?;
        s.salvage_events += u32::from(!clean);
        s.all.extend_from_slice(&items);
        s.part = items;
    }
    Ok(s)
}

/// Reads `path`, mapping a missing file to `None`.
fn read_if_exists(path: &Path, context: &'static str) -> Result<Option<Vec<u8>>, CopaError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(context, &e)),
    }
}

/// Replays the journal at `prefix`, verifying every checksum, salvaging
/// the longest valid prefix, and deduplicating records by topology index
/// (first record wins). A CRC-valid frame whose payload fails
/// [`decode_record`] counts as corruption. Missing files yield an empty
/// state, so resuming a run that never checkpointed degenerates to a fresh
/// run.
pub fn load_journal(prefix: &Path, suite_len: u32, seed: u64) -> Result<JournalState, CopaError> {
    let s = walk_journal(prefix, suite_len, seed, decode_record)?;
    let mut records = s.all;
    dedup_by_index(&mut records);
    Ok(JournalState {
        records,
        sealed_segments: s.sealed_segments,
        sealed_intact: s.sealed_intact,
        part: s.part,
        salvage_events: s.salvage_events,
    })
}

/// What [`load_journal_raw`] salvaged from disk: the CRC-valid payloads
/// in append order, undecoded. Checkpoint codecs layered over the journal
/// (the daemon's) interpret and deduplicate these themselves.
#[derive(Clone, Debug, Default)]
pub struct RawJournalState {
    /// Every CRC-valid payload in append order (sealed segments then part).
    pub payloads: Vec<Vec<u8>>,
    /// Number of fully-valid sealed segments.
    pub sealed_segments: u32,
    /// `false` when a *sealed* segment was corrupt (the journal must be
    /// rebuilt); a torn active part alone keeps this `true`.
    pub sealed_intact: bool,
    /// The payloads salvaged from the unsealed active part.
    pub part: Vec<Vec<u8>>,
    /// Files (sealed segments or the part) that were torn or corrupt and
    /// needed their valid prefix salvaged.
    pub salvage_events: u32,
}

/// Raw-payload twin of [`load_journal`]: verifies every checksum and
/// salvages the longest valid prefix, but leaves payload interpretation
/// to the caller. Missing files yield an empty state.
pub fn load_journal_raw(
    prefix: &Path,
    suite_len: u32,
    seed: u64,
) -> Result<RawJournalState, CopaError> {
    let s = walk_journal(prefix, suite_len, seed, |p| Some(p.to_vec()))?;
    Ok(RawJournalState {
        payloads: s.all,
        sealed_segments: s.sealed_segments,
        sealed_intact: s.sealed_intact,
        part: s.part,
        salvage_events: s.salvage_events,
    })
}

/// Keeps the first record per topology index, preserving append order.
fn dedup_by_index(records: &mut Vec<TopologyRecord>) {
    let mut seen = std::collections::HashSet::new();
    records.retain(|r| seen.insert(r.index));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(index: u32, mbps: f64) -> TopologyRecord {
        TopologyRecord {
            index,
            attempts: 1,
            backoff_us: 0,
            outcome: TopologyOutcome::Done {
                mbps,
                strategy: Strategy::ConcurrentNull,
            },
        }
    }

    fn temp_prefix(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("copa-journal-{tag}-{}", std::process::id()))
    }

    #[test]
    fn record_codec_round_trips_every_status() {
        let records = [
            rec(7, 123.456),
            TopologyRecord {
                index: 8,
                attempts: 3,
                backoff_us: 3000,
                outcome: TopologyOutcome::Panicked {
                    payload: "index out of bounds".into(),
                },
            },
            TopologyRecord {
                index: 9,
                attempts: 1,
                backoff_us: 0,
                outcome: TopologyOutcome::Quarantined {
                    context: "est[1][1]".into(),
                    subcarrier: 17,
                    cond: 3.5e9,
                },
            },
            TopologyRecord {
                index: 10,
                attempts: 3,
                backoff_us: 7000,
                outcome: TopologyOutcome::Abandoned,
            },
            TopologyRecord {
                index: 11,
                attempts: 1,
                backoff_us: 0,
                outcome: TopologyOutcome::Failed {
                    error: "stale CSI".into(),
                },
            },
        ];
        for r in &records {
            assert_eq!(decode_record(&encode_record(r)).as_ref(), Some(r));
        }
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let good = encode_record(&rec(1, 50.0));
        assert!(decode_record(&good[..good.len() - 1]).is_none(), "short");
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_record(&trailing).is_none(), "trailing garbage");
        let mut bad_status = good.clone();
        bad_status[16] = 200;
        assert!(decode_record(&bad_status).is_none(), "unknown status");
    }

    #[test]
    fn writer_seals_segments_and_load_replays_them() {
        let prefix = temp_prefix("seal");
        let mut w = JournalWriter::create(&prefix, 10, 0xC0FA, 3).expect("create");
        for i in 0..7 {
            w.append(&rec(i, f64::from(i) + 0.5)).expect("append");
        }
        let stats = w.finish().expect("finish");
        assert_eq!(stats.records_appended, 7);
        assert_eq!(stats.segments_sealed, 3, "2 full + 1 sealed by finish");
        assert!(stats.bytes_written > 0);
        // 7 records at 3 per segment: 2 sealed + 1 sealed by finish.
        assert!(segment_path(&prefix, 0).exists());
        assert!(segment_path(&prefix, 2).exists());
        assert!(!part_path(&prefix).exists(), "finish removes the part");
        let state = load_journal(&prefix, 10, 0xC0FA).expect("load");
        assert!(state.sealed_intact);
        assert_eq!(state.sealed_segments, 3);
        assert_eq!(state.salvage_events, 0);
        assert_eq!(state.records.len(), 7);
        for (i, r) in state.records.iter().enumerate() {
            assert_eq!(r.index, i as u32);
        }
        wipe_journal(&prefix).expect("cleanup");
    }

    #[test]
    fn torn_part_salvages_valid_prefix() {
        let prefix = temp_prefix("torn");
        let mut w = JournalWriter::create(&prefix, 10, 1, 100).expect("create");
        for i in 0..4 {
            w.append(&rec(i, 10.0)).expect("append");
        }
        drop(w); // simulated crash: part never sealed
                 // Tear the tail mid-record.
        let part = part_path(&prefix);
        let bytes = fs::read(&part).expect("read part");
        fs::write(&part, &bytes[..bytes.len() - 5]).expect("truncate");
        let state = load_journal(&prefix, 10, 1).expect("load");
        assert!(state.sealed_intact, "a torn part is the expected crash");
        assert_eq!(state.records.len(), 3, "last record torn, rest salvaged");
        assert_eq!(state.part.len(), 3);
        assert_eq!(state.salvage_events, 1);
        wipe_journal(&prefix).expect("cleanup");
    }

    #[test]
    fn mismatched_journal_is_a_hard_error() {
        let prefix = temp_prefix("mismatch");
        let mut w = JournalWriter::create(&prefix, 10, 1, 2).expect("create");
        w.append(&rec(0, 1.0)).expect("append");
        w.append(&rec(1, 2.0)).expect("append");
        drop(w);
        match load_journal(&prefix, 11, 1) {
            Err(CopaError::JournalError { context, .. }) => {
                assert_eq!(context, "segment header");
            }
            other => panic!("expected JournalError, got {other:?}"),
        }
        wipe_journal(&prefix).expect("cleanup");
    }

    #[test]
    fn raw_payload_journal_round_trips_and_resumes() {
        let prefix = temp_prefix("raw");
        let mut w = JournalWriter::create(&prefix, 4, 9, 2).expect("create");
        for i in 0..5u8 {
            w.append_payload(&[i, i + 1, i + 2]).expect("append");
        }
        drop(w); // simulated crash: the active part was never sealed
        let state = load_journal_raw(&prefix, 4, 9).expect("load");
        assert!(state.sealed_intact);
        assert_eq!(state.sealed_segments, 2);
        assert_eq!(state.payloads.len(), 5);
        assert_eq!(state.part.len(), 1);
        assert_eq!(state.payloads[4], vec![4, 5, 6]);
        let mut w = JournalWriter::resume_raw(&prefix, 4, 9, 2, &state).expect("resume");
        w.append_payload(&[9]).expect("append");
        w.finish().expect("finish");
        let state = load_journal_raw(&prefix, 4, 9).expect("reload");
        assert_eq!(state.payloads.len(), 6);
        assert_eq!(state.payloads[5], vec![9]);
        wipe_journal(&prefix).expect("cleanup");
    }

    #[test]
    fn missing_journal_loads_empty() {
        let prefix = temp_prefix("missing");
        wipe_journal(&prefix).expect("clean slate");
        let state = load_journal(&prefix, 5, 0).expect("load");
        assert!(state.records.is_empty());
        assert!(state.sealed_intact);
        assert_eq!(state.sealed_segments, 0);
    }
}
