//! Crash-safe campaign snapshots, kept as append-only journals.
//!
//! Long campaigns (the 138 M-domain crawl, the 1.7 M-ID short-link
//! enumeration, the 4-week §4.2 poll) must survive process death
//! without losing progress. This module defines the on-disk format
//! every campaign checkpoints through. Each snapshot name has a
//! *journal*: one file holding a full frame, then any number of delta
//! frames, each carrying only what changed since the frame before it.
//!
//! ```text
//! full frame:
//! +--------+---------+--------------+-------------+---------+----------+
//! | MDCKPT | version | progress_key | payload_len | payload | sha-256  |
//! | 6 B    | varint  | varint       | varint      | bytes   | 32 B     |
//! +--------+---------+--------------+-------------+---------+----------+
//!
//! delta frame:
//! +--------+---------+----------+--------------+-------------+---------+----------+
//! | MDDLTA | version | base_key | progress_key | payload_len | payload | sha-256  |
//! | 6 B    | varint  | varint   | varint       | varint      | bytes   | 32 B     |
//! +--------+---------+----------+--------------+-------------+---------+----------+
//! ```
//!
//! A full frame's checksum covers every byte before it in the frame. A
//! delta frame's covers the previous frame's checksum, then every byte
//! before it in the frame, so the checksums chain the journal: a frame
//! cannot be dropped, reordered or spliced in from another journal
//! unnoticed. A delta's `base_key` must be the progress key of the frame
//! before it.
//!
//! A full save starts a new journal through a temp file in the same
//! directory and an atomic `rename`, so a crash mid-write leaves the
//! previous journal intact. A delta save appends one frame to the
//! newest journal, then renames the file to confirm it: the name
//! records the confirmed length, and a load drops any bytes past it —
//! the remains of an append killed before its rename, just as an
//! un-renamed temp file is ignored. Any other damage is a typed
//! [`CkptError`], never a fallback to older progress. Nothing is
//! fsynced: saves are atomic against a killed process, not a power cut,
//! and a directory has one writer.
//!
//! A campaign whose state only grows (the §4.1 walk appends docs and
//! resolved links) writes deltas, so a checkpoint costs what changed
//! rather than the whole folded state, and the bytes a walk writes grow
//! linearly with it instead of with its square. The payload is
//! campaign-defined and encoded with [`SnapWriter`] / decoded with
//! [`SnapReader`] (varint integers, length-prefixed byte strings) — the
//! same primitives the Wasm decoder uses, so there is no serialization
//! dependency.
//!
//! The determinism contract: a campaign's snapshot, with its deltas
//! applied in order, captures *all* the state its remaining items can
//! observe (accumulated outcome, stats, cursors, connection flags).
//! Because every per-item result in this workspace is a pure function
//! of stable identity (domain name, link code, `(endpoint, now)`),
//! restoring a snapshot and re-running the suffix — on any executor
//! backend — reproduces the uninterrupted run bit for bit.

use crate::sha256::Sha256;
use crate::varint::{write_varint, ByteReader, VarintError};
use crate::Hash32;
use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Leading bytes of every full frame, so of every journal.
pub const MAGIC: &[u8; 6] = b"MDCKPT";

/// Leading bytes of every delta frame.
pub const DELTA_MAGIC: &[u8; 6] = b"MDDLTA";

/// Current snapshot format version.
pub const FORMAT_VERSION: u64 = 1;

/// Length of a frame's SHA-256 trailer.
const CHECKSUM_LEN: usize = 32;

/// Why a snapshot could not be saved, loaded, or applied.
#[derive(Debug)]
pub enum CkptError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// A frame does not start with [`MAGIC`] or [`DELTA_MAGIC`].
    BadMagic,
    /// The file's format version is not one this build understands.
    UnsupportedVersion(u64),
    /// The file ended before the declared content did.
    Truncated,
    /// A SHA-256 trailer does not match the content.
    ChecksumMismatch,
    /// The payload decoded to something structurally invalid.
    Corrupt(&'static str),
    /// A delta does not extend the snapshot before it: its base key is
    /// not that snapshot's progress key (`last_key`), or there is no
    /// snapshot before it (`None`).
    BaseMismatch {
        /// Progress key the delta extends.
        base_key: u64,
        /// Progress key of the snapshot it was meant to follow.
        last_key: Option<u64>,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "snapshot io error: {e}"),
            CkptError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            CkptError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CkptError::Truncated => write!(f, "snapshot truncated"),
            CkptError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            CkptError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            CkptError::BaseMismatch {
                base_key,
                last_key: Some(last),
            } => write!(
                f,
                "delta snapshot extends progress {base_key}, not the latest {last}"
            ),
            CkptError::BaseMismatch {
                base_key,
                last_key: None,
            } => write!(
                f,
                "delta snapshot extends progress {base_key} but has no base"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> CkptError {
        CkptError::Io(e)
    }
}

impl From<VarintError> for CkptError {
    fn from(e: VarintError) -> CkptError {
        match e {
            VarintError::UnexpectedEof => CkptError::Truncated,
            VarintError::Overflow => CkptError::Corrupt("varint overflow"),
        }
    }
}

/// One versioned, checksummed campaign snapshot: a full state, or a
/// delta that extends the snapshot whose progress key is `base_key`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Format version the payload was written under.
    pub version: u64,
    /// Monotone progress marker (items completed) at snapshot time —
    /// readable without decoding the payload.
    pub progress_key: u64,
    /// `Some(k)` for a delta: the progress key of the snapshot it
    /// extends. `None` for a full snapshot.
    pub base_key: Option<u64>,
    /// Campaign-defined state (or change of state), opaque to the store.
    pub payload: Vec<u8>,
    /// The deltas that follow this snapshot in its journal, oldest
    /// first: a loaded snapshot is the journal's full frame carrying
    /// them. Empty for a snapshot a campaign just took.
    pub deltas: Vec<Snapshot>,
}

impl Snapshot {
    /// Wraps a full payload at the current [`FORMAT_VERSION`].
    pub fn new(progress_key: u64, payload: Vec<u8>) -> Snapshot {
        Snapshot {
            version: FORMAT_VERSION,
            progress_key,
            base_key: None,
            payload,
            deltas: Vec::new(),
        }
    }

    /// Wraps a delta payload: the change from the snapshot at
    /// `base_key` to progress `progress_key`.
    pub fn delta(base_key: u64, progress_key: u64, payload: Vec<u8>) -> Snapshot {
        Snapshot {
            base_key: Some(base_key),
            ..Snapshot::new(progress_key, payload)
        }
    }

    /// The progress key once every carried delta is applied.
    pub fn last_key(&self) -> u64 {
        self.deltas
            .last()
            .map_or(self.progress_key, |d| d.progress_key)
    }

    /// The payload of a snapshot that must stand alone: a full snapshot
    /// carrying no deltas. Campaigns that never write deltas restore
    /// through this, so a journal they cannot apply is an error instead
    /// of a silent restore of its base's older progress.
    pub fn full_payload(&self) -> Result<&[u8], CkptError> {
        if self.base_key.is_none() && self.deltas.is_empty() {
            Ok(&self.payload)
        } else {
            Err(CkptError::Corrupt(
                "delta snapshot for a campaign that writes none",
            ))
        }
    }

    /// Serializes the snapshot as a journal: its own frame, then one
    /// frame per carried delta. A snapshot without deltas encodes to a
    /// single frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 64);
        self.encode_frames(None, &mut out);
        out
    }

    /// Appends this snapshot's frame, then its deltas' frames, to `out`,
    /// chaining each checksum to the one before (`prev` for the first).
    /// Returns the last checksum.
    fn encode_frames(&self, prev: Option<[u8; 32]>, out: &mut Vec<u8>) -> [u8; 32] {
        let start = out.len();
        match self.base_key {
            None => {
                out.extend_from_slice(MAGIC);
                write_varint(out, self.version);
            }
            Some(base_key) => {
                out.extend_from_slice(DELTA_MAGIC);
                write_varint(out, self.version);
                write_varint(out, base_key);
            }
        }
        write_varint(out, self.progress_key);
        write_varint(out, self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
        let digest = checksum(prev.as_ref(), &out[start..]);
        out.extend_from_slice(&digest);
        self.deltas
            .iter()
            .fold(digest, |prev, delta| delta.encode_frames(Some(prev), out))
    }

    /// Parses and verifies a serialized journal — one full frame, then
    /// any deltas — rejecting bad magic, unknown versions, truncation,
    /// checksum mismatches and deltas that do not extend the frame
    /// before them. Returns the full frame carrying its deltas.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
        let mut frames: Vec<Snapshot> = Vec::new();
        let mut prev = None;
        let mut rest = bytes;
        while prev.is_none() || !rest.is_empty() {
            let frame = Frame::parse(rest)?;
            let digest = checksum(prev.as_ref(), frame.content);
            if frame.checksum != digest {
                return Err(CkptError::ChecksumMismatch);
            }
            if frame.version != FORMAT_VERSION {
                return Err(CkptError::UnsupportedVersion(frame.version));
            }
            let last_key = frames.last().map(|f| f.progress_key);
            match (frame.base_key, last_key) {
                (None, None) => {}
                (Some(base_key), Some(last)) if base_key == last => {}
                (Some(base_key), last_key) => {
                    return Err(CkptError::BaseMismatch { base_key, last_key })
                }
                (None, Some(_)) => return Err(CkptError::Corrupt("full frame inside a journal")),
            }
            frames.push(Snapshot {
                version: frame.version,
                progress_key: frame.progress_key,
                base_key: frame.base_key,
                payload: frame.payload.to_vec(),
                deltas: Vec::new(),
            });
            prev = Some(digest);
            rest = &rest[frame.len()..];
        }
        let mut frames = frames.into_iter();
        let mut base = frames.next().expect("the loop reads at least one frame");
        base.deltas = frames.collect();
        Ok(base)
    }
}

/// SHA-256 over the previous frame's checksum, if any, then `content`.
fn checksum(prev: Option<&[u8; 32]>, content: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    if let Some(prev) = prev {
        hasher.update(prev);
    }
    hasher.update(content);
    hasher.finalize()
}

/// One frame's fields, borrowed from the bytes it was parsed from.
struct Frame<'a> {
    version: u64,
    base_key: Option<u64>,
    progress_key: u64,
    payload: &'a [u8],
    /// Every byte of the frame before its checksum.
    content: &'a [u8],
    checksum: [u8; CHECKSUM_LEN],
}

impl<'a> Frame<'a> {
    /// Parses the frame at the start of `bytes`, checking its magic and
    /// bounds but not its checksum.
    fn parse(bytes: &'a [u8]) -> Result<Frame<'a>, CkptError> {
        let mut r = ByteReader::new(bytes);
        let delta = match r.read_bytes(MAGIC.len())? {
            magic if magic == MAGIC => false,
            magic if magic == DELTA_MAGIC => true,
            _ => return Err(CkptError::BadMagic),
        };
        let version = r.read_varint()?;
        let base_key = if delta { Some(r.read_varint()?) } else { None };
        let progress_key = r.read_varint()?;
        let len = usize::try_from(r.read_varint()?).map_err(|_| CkptError::Truncated)?;
        let payload = r.read_bytes(len)?;
        let content = &bytes[..r.position()];
        let mut checksum = [0u8; CHECKSUM_LEN];
        checksum.copy_from_slice(r.read_bytes(CHECKSUM_LEN)?);
        Ok(Frame {
            version,
            base_key,
            progress_key,
            payload,
            content,
            checksum,
        })
    }

    /// Length of the whole frame in bytes.
    fn len(&self) -> usize {
        self.content.len() + CHECKSUM_LEN
    }
}

/// Journals a [`SnapshotStore`] retains per name: the live one and the
/// one before it.
const KEEP: usize = 2;

/// One on-disk journal of a snapshot name.
struct Journal {
    /// Write sequence: each full save starts journal `seq + 1`.
    seq: u64,
    /// The last confirmed frame's progress key and the confirmed length
    /// in bytes, once deltas were appended; `None` while the journal is
    /// its full frame alone, whose header gives its length.
    confirmed: Option<(u64, u64)>,
    path: PathBuf,
}

/// File name of journal `seq` of `name` whose last confirmed frame has
/// progress key `key`; `len` is the confirmed length once the journal
/// holds deltas.
fn journal_file(name: &str, seq: u64, key: u64, len: Option<u64>) -> String {
    match len {
        None => format!("{name}.{seq}.{key}.ckpt"),
        Some(len) => format!("{name}.{seq}.{key}@{len}.ckpt"),
    }
}

/// A directory of named snapshot journals with atomic writes and
/// bounded retention.
///
/// Every full save starts a fresh journal in `{name}.{seq}.{key}.ckpt`
/// (the write-sequence number `seq` orders saves; the progress key
/// `key` is readable from the filename without decoding). Every delta
/// save appends to the newest journal and renames it to
/// `{name}.{seq}.{key}@{len}.ckpt`, where `key` is now the last frame's
/// progress key and `len` the confirmed length in bytes. After a full
/// save the store prunes the oldest journals so at most two remain —
/// the newest is the live one, the other is insurance an operator can
/// fall back to by hand if the newest is ever damaged.
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SnapshotStore, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir })
    }

    /// Every on-disk journal of `name`, ascending by write sequence.
    fn journals(&self, name: &str) -> Result<Vec<Journal>, CkptError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let fname = entry.file_name();
            let Some(fname) = fname.to_str() else {
                continue;
            };
            let Some(body) = fname
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix('.'))
                .and_then(|r| r.strip_suffix(".ckpt"))
            else {
                continue;
            };
            let Some((seq, tip)) = body.split_once('.') else {
                continue;
            };
            let (key, len) = match tip.split_once('@') {
                Some((key, len)) => (key, Some(len)),
                None => (tip, None),
            };
            let (Ok(seq), Ok(key)) = (seq.parse::<u64>(), key.parse::<u64>()) else {
                continue;
            };
            let confirmed = match len.map(str::parse::<u64>) {
                None => None,
                Some(Ok(len)) => Some((key, len)),
                Some(Err(_)) => continue,
            };
            out.push(Journal {
                seq,
                confirmed,
                path: entry.path(),
            });
        }
        out.sort_by_key(|j| j.seq);
        Ok(out)
    }

    /// The journal `load` reads and a delta save extends: the newest.
    fn tip(&self, name: &str) -> Result<Option<Journal>, CkptError> {
        Ok(self.journals(name)?.pop())
    }

    /// Path of the newest on-disk journal of `name` (the file `load`
    /// would read), if one exists.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.tip(name).ok().flatten().map(|j| j.path)
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Saves `snap` under `name` and returns the number of bytes
    /// written.
    ///
    /// A full snapshot starts a new journal: its encoding is written to
    /// a temp file in the same directory and `rename`d into place, so a
    /// crash mid-write leaves every previous journal intact — then
    /// journals older than the retention window are deleted. A delta is appended to the newest
    /// journal as one frame and confirmed by renaming the file; it is
    /// refused with [`CkptError::BaseMismatch`] unless its base key is
    /// the journal's last progress key.
    pub fn save(&self, name: &str, snap: &Snapshot) -> Result<u64, CkptError> {
        if let Some(base_key) = snap.base_key {
            return self.append(name, base_key, snap);
        }
        let older = self.journals(name)?;
        let seq = older.last().map_or(1, |j| j.seq + 1);
        let bytes = snap.encode();
        let len = (!snap.deltas.is_empty()).then_some(bytes.len() as u64);
        let file = journal_file(name, seq, snap.last_key(), len);
        let tmp = self.dir.join(format!(".{file}.tmp"));
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, self.dir.join(&file))?;
        // Retention: the rename succeeded, so older journals beyond the
        // window can go.
        let excess = (older.len() + 1).saturating_sub(KEEP);
        for journal in &older[..excess.min(older.len())] {
            remove_if_present(&journal.path)?;
        }
        Ok(bytes.len() as u64)
    }

    /// Appends the delta `snap` to the newest journal of `name`, then
    /// renames the journal to confirm the new frame.
    fn append(&self, name: &str, base_key: u64, snap: &Snapshot) -> Result<u64, CkptError> {
        let Some(journal) = self.tip(name)? else {
            return Err(CkptError::BaseMismatch {
                base_key,
                last_key: None,
            });
        };
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&journal.path)?;
        let (last_key, len, prev) = match journal.confirmed {
            Some((key, len)) => {
                // The confirmed journal ends with its last checksum.
                let start = len.checked_sub(CHECKSUM_LEN as u64);
                file.seek(SeekFrom::Start(start.ok_or(CkptError::Truncated)?))?;
                let mut prev = [0u8; CHECKSUM_LEN];
                file.read_exact(&mut prev).map_err(|e| match e.kind() {
                    io::ErrorKind::UnexpectedEof => CkptError::Truncated,
                    _ => CkptError::Io(e),
                })?;
                (key, len, prev)
            }
            None => {
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                let frame = Frame::parse(&bytes)?;
                (frame.progress_key, frame.len() as u64, frame.checksum)
            }
        };
        if base_key != last_key {
            return Err(CkptError::BaseMismatch {
                base_key,
                last_key: Some(last_key),
            });
        }
        let mut frame = Vec::with_capacity(snap.payload.len() + 64);
        snap.encode_frames(Some(prev), &mut frame);
        // Drop the unconfirmed tail of an append killed before its
        // rename, then append past the confirmed length.
        file.set_len(len)?;
        file.seek(SeekFrom::End(0))?;
        file.write_all(&frame)?;
        drop(file);
        let confirmed = len + frame.len() as u64;
        let file = journal_file(name, journal.seq, snap.last_key(), Some(confirmed));
        fs::rename(&journal.path, self.dir.join(file))?;
        Ok(frame.len() as u64)
    }

    /// Loads and verifies the newest journal of `name` as its full
    /// snapshot carrying its deltas; `Ok(None)` if none has ever been written. Bytes past the
    /// confirmed length are an append killed before its rename and are
    /// ignored. Any damage to the confirmed frames is an error, never a
    /// silent fallback — restoring stale progress behind the campaign's
    /// back would violate the resume contract.
    pub fn load(&self, name: &str) -> Result<Option<Snapshot>, CkptError> {
        let Some(journal) = self.tip(name)? else {
            return Ok(None);
        };
        let bytes = fs::read(&journal.path)?;
        let len = match journal.confirmed {
            Some((_, len)) => usize::try_from(len).map_err(|_| CkptError::Truncated)?,
            None => Frame::parse(&bytes)?.len(),
        };
        let confirmed = bytes.get(..len).ok_or(CkptError::Truncated)?;
        Snapshot::decode(confirmed).map(Some)
    }

    /// Deletes every journal of the snapshot named `name` if present.
    pub fn remove(&self, name: &str) -> Result<(), CkptError> {
        for journal in self.journals(name)? {
            remove_if_present(&journal.path)?;
        }
        Ok(())
    }
}

fn remove_if_present(path: &Path) -> Result<(), CkptError> {
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(CkptError::Io(e)),
    }
}

/// Something whose progress can be captured in a [`Snapshot`] and
/// re-applied to a freshly-initialized instance.
///
/// `restore` takes `&mut self` on a *new* instance (rather than acting
/// as a constructor) because campaigns typically borrow long-lived
/// context — populations, signature databases, job sources — that a
/// snapshot cannot own.
///
/// `snapshot` may return a delta ([`Snapshot::delta`]) holding only what
/// changed since the snapshot before it; the store appends it to that
/// snapshot's journal, and a later load hands `restore` the journal's
/// full snapshot carrying its deltas, which `restore` applies after the
/// base, in order. A campaign that writes deltas must remember what the
/// journal holds; a campaign that writes none restores through
/// [`Snapshot::full_payload`].
pub trait Checkpointable {
    /// Monotone count of items completed; orders snapshots.
    fn progress_key(&self) -> u64;
    /// Captures all state the remaining items can observe, or the
    /// change since the previous snapshot.
    fn snapshot(&self) -> Snapshot;
    /// Re-applies `snap` (and the deltas it carries) to a
    /// freshly-initialized instance.
    fn restore(&mut self, snap: &Snapshot) -> Result<(), CkptError>;
}

/// Payload encoder: varint integers, length-prefixed bytes/strings.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Appends a varint.
    pub fn u64(&mut self, v: u64) {
        write_varint(&mut self.buf, v);
    }

    /// Appends a `usize` as a varint.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a float by its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a 32-byte hash verbatim.
    pub fn hash(&mut self, v: &Hash32) {
        self.buf.extend_from_slice(&v.0);
    }

    /// Appends an optional value: a presence byte, then the value.
    pub fn opt<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut SnapWriter, &T)) {
        match v {
            None => self.bool(false),
            Some(t) => {
                self.bool(true);
                f(self, t);
            }
        }
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Payload decoder mirroring [`SnapWriter`], with every read bounds-
/// checked so corrupt payloads fail loudly instead of misparsing.
pub struct SnapReader<'a> {
    inner: ByteReader<'a>,
}

impl<'a> SnapReader<'a> {
    /// Wraps a payload.
    pub fn new(payload: &'a [u8]) -> SnapReader<'a> {
        SnapReader {
            inner: ByteReader::new(payload),
        }
    }

    /// Reads a varint.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(self.inner.read_varint()?)
    }

    /// Reads a varint as a `usize`.
    // Not a container accessor: `len` decodes a length field, so the
    // `is_empty` pairing the lint wants does not apply.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, CkptError> {
        usize::try_from(self.u64()?).map_err(|_| CkptError::Corrupt("length overflows usize"))
    }

    /// Reads a bool byte, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.inner.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Corrupt("invalid bool byte")),
        }
    }

    /// Reads an IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        let raw = self.inner.read_bytes(8)?;
        let mut bits = [0u8; 8];
        bits.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CkptError> {
        let n = self.len()?;
        Ok(self.inner.read_bytes(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        String::from_utf8(self.bytes()?).map_err(|_| CkptError::Corrupt("invalid utf-8"))
    }

    /// Reads a 32-byte hash.
    pub fn hash(&mut self) -> Result<Hash32, CkptError> {
        Ok(Hash32::from_slice(self.inner.read_bytes(32)?))
    }

    /// Reads an optional value written by [`SnapWriter::opt`].
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut SnapReader<'a>) -> Result<T, CkptError>,
    ) -> Result<Option<T>, CkptError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Asserts the payload was fully consumed — trailing garbage means
    /// the writer and reader disagree on the schema.
    pub fn expect_end(&self) -> Result<(), CkptError> {
        if self.inner.is_empty() {
            Ok(())
        } else {
            Err(CkptError::Corrupt("trailing bytes in payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut w = SnapWriter::new();
        w.u64(42);
        w.str("hello");
        w.bool(true);
        w.hash(&Hash32::keccak(b"x"));
        w.f64(0.5);
        w.opt(Some(&7u64), |w, v| w.u64(*v));
        w.opt::<u64>(None, |w, v| w.u64(*v));
        Snapshot::new(17, w.finish())
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        let mut r = SnapReader::new(&decoded.payload);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.str().unwrap(), "hello");
        assert!(r.bool().unwrap());
        assert_eq!(r.hash().unwrap(), Hash32::keccak(b"x"));
        assert_eq!(r.f64().unwrap(), 0.5);
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(7));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        r.expect_end().unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(Snapshot::decode(&bytes), Err(CkptError::BadMagic)));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn rejects_any_single_bitflip() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(Snapshot::decode(&bad).is_err(), "bitflip at {i}");
        }
    }

    #[test]
    fn rejects_unknown_version() {
        let snap = Snapshot {
            version: FORMAT_VERSION + 1,
            progress_key: 0,
            base_key: None,
            payload: vec![],
            deltas: vec![],
        };
        assert!(matches!(
            Snapshot::decode(&snap.encode()),
            Err(CkptError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn store_saves_atomically_and_loads_back() {
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-test-{}", std::process::id()));
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.load("missing").unwrap().is_none());
        let snap = sample();
        let bytes = store.save("camp", &snap).unwrap();
        assert_eq!(bytes, snap.encode().len() as u64);
        assert_eq!(store.load("camp").unwrap().unwrap(), snap);
        // Overwrite replaces wholesale.
        let snap2 = Snapshot::new(99, vec![1, 2, 3]);
        store.save("camp", &snap2).unwrap();
        assert_eq!(store.load("camp").unwrap().unwrap(), snap2);
        // No temp litter.
        assert!(!dir.join(".camp.ckpt.tmp").exists());
        store.remove("camp").unwrap();
        assert!(store.load("camp").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn ckpt_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".ckpt"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn retention_keeps_only_the_last_n_versions() {
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-keep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        for key in [10u64, 20, 30, 5, 40] {
            store
                .save("camp", &Snapshot::new(key, vec![key as u8]))
                .unwrap();
            assert!(
                ckpt_files(&dir).len() <= 2,
                "retention must prune after every save"
            );
        }
        // The newest write wins regardless of progress key ordering…
        assert_eq!(store.load("camp").unwrap().unwrap().progress_key, 40);
        // …and exactly two files survive: the last two writes.
        assert_eq!(
            ckpt_files(&dir),
            vec!["camp.4.5.ckpt".to_string(), "camp.5.40.ckpt".to_string()]
        );
        store.remove("camp").unwrap();
        assert!(ckpt_files(&dir).is_empty());
        assert!(store.load("camp").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_restart_supersedes_a_stale_higher_key_snapshot() {
        // A non-resume restart begins from scratch; its first (low-key)
        // checkpoint must shadow the stale high-key one on disk, exactly
        // like the pre-retention overwrite did.
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        store.save("camp", &Snapshot::new(100, vec![1])).unwrap();
        store.save("camp", &Snapshot::new(3, vec![2])).unwrap();
        assert_eq!(store.load("camp").unwrap().unwrap().progress_key, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sibling_names_do_not_cross_prune() {
        // "camp" and "camp2" share a prefix; retention and removal for
        // one must never touch the other's files.
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-sib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        store.save("camp", &Snapshot::new(1, vec![1])).unwrap();
        store.save("camp2", &Snapshot::new(2, vec![2])).unwrap();
        for key in [3, 4, 5] {
            store.save("camp", &Snapshot::new(key, vec![3])).unwrap();
        }
        assert_eq!(ckpt_files(&dir).len(), 3, "camp keeps two, camp2 one");
        assert_eq!(store.load("camp2").unwrap().unwrap().progress_key, 2);
        assert_eq!(store.load("camp").unwrap().unwrap().progress_key, 5);
        store.remove("camp").unwrap();
        assert!(store.load("camp").unwrap().is_none());
        assert_eq!(store.load("camp2").unwrap().unwrap().progress_key, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_rejects_trailing_garbage() {
        let mut w = SnapWriter::new();
        w.u64(1);
        w.u64(2);
        let payload = w.finish();
        let mut r = SnapReader::new(&payload);
        r.u64().unwrap();
        assert!(r.expect_end().is_err());
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Saves a journal "walk" of one full frame at key 10 and `deltas`
    /// deltas, each 10 keys on. Returns the store, the snapshot a load
    /// should return and each frame's length in bytes.
    fn journal(dir: &Path, deltas: u64) -> (SnapshotStore, Snapshot, Vec<usize>) {
        let store = SnapshotStore::open(dir).unwrap();
        let mut expected = Snapshot::new(10, vec![1, 2, 3]);
        let mut lens = vec![store.save("walk", &expected).unwrap() as usize];
        for i in 1..=deltas {
            let delta = Snapshot::delta(10 * i, 10 * (i + 1), vec![i as u8; i as usize]);
            lens.push(store.save("walk", &delta).unwrap() as usize);
            expected.deltas.push(delta);
        }
        (store, expected, lens)
    }

    #[test]
    fn a_full_snapshot_keeps_the_single_file_layout() {
        // A snapshot without deltas is one full frame, byte for byte.
        let snap = sample();
        let mut want = MAGIC.to_vec();
        write_varint(&mut want, FORMAT_VERSION);
        write_varint(&mut want, snap.progress_key);
        write_varint(&mut want, snap.payload.len() as u64);
        want.extend_from_slice(&snap.payload);
        let digest = Hash32::sha256(&want);
        want.extend_from_slice(&digest.0);
        assert_eq!(snap.encode(), want);
    }

    #[test]
    fn journal_round_trips_base_and_deltas() {
        let dir = tmp("journal");
        let (store, expected, lens) = journal(&dir, 4);
        let loaded = store.load("walk").unwrap().unwrap();
        assert_eq!(loaded, expected);
        assert_eq!(loaded.last_key(), 50);
        assert!(loaded.full_payload().is_err());
        // One file: the journal's encoding, named by its last key and
        // confirmed length.
        let bytes = std::fs::read(store.path("walk").unwrap()).unwrap();
        assert_eq!(bytes, expected.encode());
        assert_eq!(bytes.len(), lens.iter().sum::<usize>());
        assert_eq!(
            store.path("walk").unwrap(),
            dir.join(format!("walk.1.50@{}.ckpt", bytes.len()))
        );
        assert_eq!(Snapshot::decode(&bytes).unwrap(), expected);
        // A delta that does not extend the frame before it is refused
        // even when its checksums chain.
        let mut skewed = expected.clone();
        skewed.deltas[2].base_key = Some(99);
        assert!(matches!(
            Snapshot::decode(&skewed.encode()),
            Err(CkptError::BaseMismatch {
                base_key: 99,
                last_key: Some(30)
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_refuses_a_delta_that_does_not_extend_the_journal() {
        let dir = tmp("base");
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(matches!(
            store.save("walk", &Snapshot::delta(0, 5, vec![])),
            Err(CkptError::BaseMismatch {
                base_key: 0,
                last_key: None
            })
        ));
        store.save("walk", &Snapshot::new(10, vec![1])).unwrap();
        store
            .save("walk", &Snapshot::delta(10, 20, vec![2]))
            .unwrap();
        for stale in [10, 15, 30] {
            assert!(matches!(
                store.save("walk", &Snapshot::delta(stale, 40, vec![3])),
                Err(CkptError::BaseMismatch { base_key, last_key: Some(20) }) if base_key == stale
            ));
        }
        // The refused saves left the journal as it was.
        assert_eq!(store.load("walk").unwrap().unwrap().last_key(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_killed_before_its_rename_is_dropped_and_the_journal_continues() {
        for deltas in [0, 3] {
            let dir = tmp(&format!("killed-{deltas}"));
            let (store, expected, _) = journal(&dir, deltas);
            let path = store.path("walk").unwrap();
            let confirmed = expected.encode();
            // The bytes a killed append left: its whole frame, or part
            // of it, past the confirmed length the name records.
            let mut with_lost = expected.clone();
            let last = expected.last_key();
            with_lost
                .deltas
                .push(Snapshot::delta(last, last + 10, vec![9; 50]));
            let appended = with_lost.encode();
            for cut in [appended.len(), confirmed.len() + 20, confirmed.len() + 1] {
                std::fs::write(&path, &appended[..cut]).unwrap();
                assert_eq!(store.load("walk").unwrap().unwrap(), expected, "cut {cut}");
            }
            // The next save drops the tail and continues the journal.
            let next = Snapshot::delta(last, last + 7, vec![7]);
            store.save("walk", &next).unwrap();
            let mut want = expected.clone();
            want.deltas.push(next);
            assert_eq!(store.load("walk").unwrap().unwrap(), want);
            assert_eq!(
                std::fs::read(store.path("walk").unwrap()).unwrap(),
                want.encode()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn damage_to_any_confirmed_frame_is_a_typed_error() {
        let dir = tmp("damage");
        let (store, expected, lens) = journal(&dir, 4);
        let path = store.path("walk").unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            store.load("walk")
        };
        let mut start = 0;
        let mut starts = Vec::new();
        for (frame, &len) in lens.iter().enumerate() {
            // The last payload byte of this frame flipped.
            let mut flipped = pristine.clone();
            flipped[start + len - CHECKSUM_LEN - 1] ^= 0x10;
            assert!(
                matches!(load(&flipped), Err(CkptError::ChecksumMismatch)),
                "flip in frame {frame}"
            );
            // The journal cut inside this frame.
            for cut in [start + 1, start + len / 2, start + len - 1] {
                assert!(
                    matches!(load(&pristine[..cut]), Err(CkptError::Truncated)),
                    "cut at {cut} in frame {frame}"
                );
            }
            starts.push(start);
            start += len;
        }
        // A middle frame deleted: the journal ends short of its
        // confirmed length…
        let mut missing = pristine[..starts[2]].to_vec();
        missing.extend_from_slice(&pristine[starts[3]..]);
        assert!(matches!(load(&missing), Err(CkptError::Truncated)));
        // …and moved to the end instead, it breaks the checksum chain.
        missing.extend_from_slice(&pristine[starts[2]..starts[3]]);
        assert!(matches!(load(&missing), Err(CkptError::ChecksumMismatch)));
        assert_eq!(load(&pristine).unwrap().unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_save_over_a_long_journal_starts_a_fresh_one() {
        let dir = tmp("fresh");
        let (store, _, _) = journal(&dir, 40);
        let restart = Snapshot::new(5, vec![5]);
        assert_eq!(
            store.save("walk", &restart).unwrap(),
            restart.encode().len() as u64
        );
        assert_eq!(store.load("walk").unwrap().unwrap(), restart);
        assert_eq!(store.path("walk").unwrap(), dir.join("walk.2.5.ckpt"));
        // Retention counts journals: the long one stays as insurance.
        assert_eq!(ckpt_files(&dir).len(), 2);
        // Deltas now extend the fresh journal only.
        assert!(matches!(
            store.save("walk", &Snapshot::delta(410, 420, vec![])),
            Err(CkptError::BaseMismatch {
                last_key: Some(5),
                ..
            })
        ));
        store.save("walk", &Snapshot::delta(5, 6, vec![6])).unwrap();
        assert_eq!(store.load("walk").unwrap().unwrap().last_key(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
