//! Crash-safe checkpoint files for long-running runs.
//!
//! A checkpoint records `(key → encoded value)` pairs so an interrupted
//! run can resume without redoing finished work: completed cells of a
//! sweep or fuzz run, or the live daemon's latest state snapshot. The
//! format is built for processes that die *at any instruction*:
//!
//! * **Framing** — the file is a sequence of length-prefixed frames,
//!   `len: u32 LE | crc32: u32 LE | payload`, where the CRC covers the
//!   payload. A frame is either fully present and checksummed or it is
//!   the torn tail of a crashed write.
//! * **Creation is atomic** — the header frame is written to a `.tmp`
//!   sibling, synced, and renamed into place, so a half-created
//!   checkpoint never exists under the real name.
//! * **One record, one write** — [`Writer::append`] hands each record's
//!   whole frame to the OS in one `write_all`, so the record survives a
//!   process crash as soon as the call returns ([`Writer::sync`] makes it
//!   survive a power loss too). A SIGKILL mid-append leaves a torn tail
//!   which [`load`] detects by framing and truncates; resuming rewinds
//!   the file to the last valid frame before appending. A caller that
//!   needs several values to land together puts them in one record.
//! * **Compaction is atomic** — [`Writer::rewrite`] replaces the file
//!   with a header and chosen records through the same tmp + rename as
//!   creation, so a long-lived writer can drop superseded records.
//! * **Checksums are table-driven** — [`crc32`] is the IEEE CRC-32,
//!   computed slice-by-8; [`Crc32`] computes it over several pieces
//!   without joining them.
//! * **Corruption is loud** — a *complete* frame whose CRC does not match
//!   is an error ([`std::io::ErrorKind::InvalidData`]), never a silent
//!   skip: bit-rot in the middle of a checkpoint must not masquerade as
//!   "those cells were never run".
//!
//! The first frame is a caller-supplied `meta` string fingerprinting the
//! run configuration (parameters, seed, metric…). [`resume`] refuses a
//! checkpoint whose meta does not match, so results from a differently
//! configured run can never be spliced into this one.
//!
//! Record payloads are `key \x1f value` with an opaque UTF-8 value; the
//! driver that owns the checkpoint defines both. Keys must not contain
//! the `\x1f` unit separator. Later records win when a key repeats
//! (appends after a drain may legitimately repeat an in-flight cell).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Separator between the key and value inside a record payload.
const SEP: char = '\u{1f}';

/// The reflected IEEE 802.3 polynomial (zip, gzip, Ethernet).
const POLY: u32 = 0xedb8_8320;

/// Slice-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table,
/// and `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups fold in eight input bytes at once. Built at
/// compile time (8 KiB of read-only data).
const TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// Incremental CRC-32: [`Crc32::update`] over consecutive pieces then
/// [`Crc32::finish`] equals [`crc32`] over their concatenation, so a
/// caller can checksum a frame without first copying it into one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes so far.
    pub const fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Fold `bytes` into the checksum, eight at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The CRC-32 of everything passed to [`Crc32::update`].
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the same polynomial as
/// zip/gzip, implemented here so the vendored-only workspace needs no
/// checksum dependency. Table-driven, slice-by-8: the values are those
/// of the bitwise definition, so frames written by any earlier build
/// still verify.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Write `bytes` to `path` atomically: write a `.tmp` sibling, sync it,
/// rename over the destination, and (on Unix) sync the directory so the
/// rename itself is durable. A crash at any point leaves either the old
/// file or the new one, never a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let tmp = tmp_sibling(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Only Unix lets a directory be opened and synced.
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    Ok(())
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Append one frame whose payload is the concatenation of `parts`.
fn push_frame(out: &mut Vec<u8>, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut crc = Crc32::new();
    for p in parts {
        crc.update(p);
    }
    out.reserve(8 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    for p in parts {
        out.extend_from_slice(p);
    }
}

/// Append the frame of one `key \x1f value` record.
fn push_record(out: &mut Vec<u8>, key: &str, value: &str) {
    debug_assert!(!key.contains(SEP), "checkpoint keys must not contain \\x1f");
    push_frame(out, &[key.as_bytes(), &[SEP as u8], value.as_bytes()]);
}

/// A checkpoint loaded from disk.
#[derive(Debug)]
pub struct Loaded {
    /// The run-configuration fingerprint from the header frame.
    pub meta: String,
    /// Completed cells, later records winning on key repeats.
    pub records: BTreeMap<String, String>,
    /// Byte length of the valid frame prefix (excludes any torn tail).
    pub valid_len: u64,
    /// Whether a torn (incomplete) trailing frame was discarded.
    pub torn_tail: bool,
}

/// Read and validate a checkpoint file.
///
/// An incomplete trailing frame — the signature of a crash mid-append —
/// is tolerated and reported via [`Loaded::torn_tail`]. A *complete*
/// frame with a CRC mismatch is data corruption and returns
/// [`std::io::ErrorKind::InvalidData`].
pub fn load(path: &Path) -> io::Result<Loaded> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut meta: Option<String> = None;
    let mut records = BTreeMap::new();
    let mut pos = 0usize;
    let mut torn_tail = false;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if bytes.len() - pos - 8 < len {
            torn_tail = true;
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != want_crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint {}: CRC mismatch in frame at byte {pos} \
                     (stored {want_crc:#010x}, computed {:#010x}) — \
                     the file is corrupt, not merely truncated",
                    path.display(),
                    crc32(payload)
                ),
            ));
        }
        let text = std::str::from_utf8(payload).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint {}: frame at byte {pos} is not UTF-8",
                    path.display()
                ),
            )
        })?;
        if meta.is_none() {
            meta = Some(text.to_string());
        } else {
            match text.split_once(SEP) {
                Some((k, v)) => {
                    records.insert(k.to_string(), v.to_string());
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "checkpoint {}: record frame at byte {pos} has no key separator",
                            path.display()
                        ),
                    ));
                }
            }
        }
        pos += 8 + len;
    }
    let Some(meta) = meta else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint {}: missing header frame", path.display()),
        ));
    };
    Ok(Loaded {
        meta,
        records,
        valid_len: pos as u64,
        torn_tail,
    })
}

/// Streaming appender for one checkpoint file.
#[derive(Debug)]
pub struct Writer {
    file: File,
    /// Reused frame buffer: each append writes one frame from it.
    buf: Vec<u8>,
}

impl Writer {
    /// Create a fresh checkpoint at `path` (atomically: tmp + rename)
    /// containing only the `meta` header frame, opened for appending.
    pub fn create(path: &Path, meta: &str) -> io::Result<Writer> {
        Writer::rewrite(path, meta, &[])
    }

    /// Replace the checkpoint at `path` (atomically: tmp + rename) with
    /// the `meta` header frame followed by `records`, opened for
    /// appending. A long-lived writer calls this to drop superseded
    /// records: a crash at any point leaves the old file or the new one.
    pub fn rewrite(path: &Path, meta: &str, records: &[(&str, &str)]) -> io::Result<Writer> {
        let mut buf = Vec::new();
        push_frame(&mut buf, &[meta.as_bytes()]);
        for (key, value) in records {
            push_record(&mut buf, key, value);
        }
        atomic_write(path, &buf)?;
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Writer { file, buf })
    }

    /// Reopen an existing checkpoint for appending, rewound past any torn
    /// tail to `valid_len` (as reported by [`load`]).
    fn reopen(path: &Path, valid_len: u64) -> io::Result<Writer> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Writer {
            file,
            buf: Vec::new(),
        })
    }

    /// Append one record and hand it to the OS in one `write_all` of
    /// its frame. The record is framed and checksummed; a crash mid-call
    /// leaves a torn tail that the next [`load`] discards.
    pub fn append(&mut self, key: &str, value: &str) -> io::Result<()> {
        self.buf.clear();
        push_record(&mut self.buf, key, value);
        self.file.write_all(&self.buf)
    }

    /// Force everything appended so far to durable storage (fsync).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// Open `path` for a run fingerprinted by `meta`: load completed records
/// if the file exists (torn tail truncated, CRC errors propagated,
/// mismatched meta rejected), or create it fresh. Returns the appender
/// plus the already-completed cells.
pub fn resume(path: &Path, meta: &str) -> io::Result<(Writer, BTreeMap<String, String>)> {
    if !path.exists() {
        return Ok((Writer::create(path, meta)?, BTreeMap::new()));
    }
    let loaded = load(path)?;
    if loaded.meta != meta {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "checkpoint {} was written by a different run configuration\n  \
                 checkpoint: {}\n  this run:   {meta}",
                path.display(),
                loaded.meta
            ),
        ));
    }
    let writer = Writer::reopen(path, loaded.valid_len)?;
    Ok((writer, loaded.records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("routesync-exec-ckpt-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn rewrite_keeps_only_the_given_records_and_appends_after_them() {
        let path = tmp("rewrite.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut w = Writer::create(&path, "m").expect("create");
        w.append("old", "1").expect("append");
        w.append("snap", "first").expect("append");
        w.sync().expect("sync");
        let mut w = Writer::rewrite(&path, "m", &[("snap", "second")]).expect("rewrite");
        assert!(
            !tmp_sibling(&path).exists(),
            "tmp file must be renamed away"
        );
        w.append("later", "3").expect("append after rewrite");
        w.sync().expect("sync");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.meta, "m");
        assert!(!loaded.torn_tail);
        let keys: Vec<&str> = loaded.records.keys().map(String::as_str).collect();
        assert_eq!(keys, ["later", "snap"], "the rewrite dropped 'old'");
        assert_eq!(loaded.records["snap"], "second");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn roundtrip_create_append_load() {
        let path = tmp("roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut w = Writer::create(&path, "meta-v1").expect("create");
        w.append("a", "1").expect("append");
        w.append("b", "value with\nnewlines").expect("append");
        w.append("a", "2").expect("append repeat");
        w.sync().expect("sync");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.meta, "meta-v1");
        assert!(!loaded.torn_tail);
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records["a"], "2", "later record wins");
        assert_eq!(loaded.records["b"], "value with\nnewlines");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_resumable() {
        let path = tmp("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut w = Writer::create(&path, "m").expect("create");
        w.append("done", "ok").expect("append");
        w.sync().expect("sync");
        // Simulate a crash mid-append: raw garbage prefix of a frame.
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(&[9, 0, 0, 0, 1, 2]).expect("torn bytes");
        }
        let loaded = load(&path).expect("load tolerates torn tail");
        assert!(loaded.torn_tail);
        assert_eq!(loaded.records.len(), 1);
        // Resume truncates the tail and appends cleanly after it.
        let (mut w, records) = resume(&path, "m").expect("resume");
        assert_eq!(records.len(), 1);
        w.append("later", "fine").expect("append");
        w.sync().expect("sync");
        let reloaded = load(&path).expect("reload");
        assert!(!reloaded.torn_tail);
        assert_eq!(reloaded.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc_corruption_is_an_error_not_a_skip() {
        let path = tmp("corrupt.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut w = Writer::create(&path, "m").expect("create");
        w.append("x", "yyyy").expect("append");
        w.sync().expect("sync");
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit in a *complete* frame
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = load(&path).expect_err("corruption must be detected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
        assert!(resume(&path, "m").is_err(), "resume must refuse corruption");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_mismatched_meta() {
        let path = tmp("meta.ckpt");
        let _ = std::fs::remove_file(&path);
        drop(Writer::create(&path, "config A").expect("create"));
        let err = resume(&path, "config B").expect_err("meta mismatch");
        assert!(err.to_string().contains("different run configuration"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_replaces_without_tmp_residue() {
        let path = tmp("atomic.json");
        atomic_write(&path, b"first").expect("write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        assert!(
            !tmp_sibling(&path).exists(),
            "tmp file must be renamed away"
        );
        let _ = std::fs::remove_file(&path);
    }
}
