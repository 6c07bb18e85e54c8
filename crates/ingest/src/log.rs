//! The append-only edge-stream log.
//!
//! Edges are journaled as fixed-width records in numbered **segment**
//! files (`seg-00000000.adsl`, `seg-00000001.adsl`, …), each at most
//! [`EdgeLog::segment_cap`] records long. A segment starts with a
//! 20-byte header — magic `ADSKELG1`, a `u32` format version, and the
//! `u64` sequence number of its first record — followed by 24-byte
//! records: `u32 u`, `u32 v`, `u64 w.to_bits()`, then the `u64` running
//! FNV-1a digest of the segment header and every record payload up to
//! and including this one. The **chained** digest means a record
//! validates only if everything before it in the segment does, so replay
//! can stop at the first bad byte knowing the prefix it kept is exactly
//! what was written.
//!
//! # Recovery contract
//!
//! [`EdgeLog::open`] replays every segment in order and returns the
//! recovered entries. A torn tail (partial record or digest mismatch) is
//! legal **only on the last segment** — that is the one a crash can
//! interrupt mid-append — and is repaired by truncating the file back to
//! its longest valid prefix. A last segment cut inside its header (a
//! crash after a rotation created the file but before its buffered
//! header reached it) is repaired by writing the header again. The same
//! damage on an earlier segment, a bad magic, or a sequence-number gap
//! between segments is corruption and fails the open with a typed
//! [`IngestError`]; an edge log never silently drops interior history.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::IngestError;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"ADSKELG1";

/// The on-disk format version this build writes and replays.
pub const LOG_VERSION: u32 = 1;

/// Segment header length: magic + version + base sequence.
const HEADER_LEN: usize = 20;

/// Record length: `u`, `v`, weight bits, chained digest.
const RECORD_LEN: usize = 24;

/// Streaming FNV-1a 64, the record chain's digest. Byte-serial, which
/// suits 16-byte record payloads that each need the running digest read
/// out; the bulk store formats use `adsketch_core::frozen::Xxh64`.
#[derive(Debug, Clone)]
struct Fnv1a64(u64);

impl Fnv1a64 {
    /// Fresh hasher at the FNV-1a 64 offset basis.
    fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs `bytes` into the running digest.
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything absorbed so far.
    fn digest(&self) -> u64 {
        self.0
    }
}

/// One replayed edge insertion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeLogEntry {
    /// Position in the stream (0-based, contiguous across segments).
    pub seq: u64,
    /// Source endpoint.
    pub u: u32,
    /// Target endpoint.
    pub v: u32,
    /// Edge weight (round-trips bit-exactly through the log).
    pub w: f64,
}

/// The append-only, segmented, checksummed edge journal.
#[derive(Debug)]
pub struct EdgeLog {
    dir: PathBuf,
    segment_cap: u64,
    writer: BufWriter<File>,
    /// Running digest over the open segment's header + record payloads.
    hasher: Fnv1a64,
    segment_index: u64,
    segment_records: u64,
    next_seq: u64,
}

fn segment_file_name(index: u64) -> String {
    format!("seg-{index:08}.adsl")
}

/// One replayed segment: its base sequence, the decoded payloads, the
/// byte length of the valid prefix, and the digest state after the last
/// valid record (so appends can resume the chain).
struct ReplayedSegment {
    base_seq: u64,
    entries: Vec<(u32, u32, f64)>,
    valid_len: u64,
    hasher: Fnv1a64,
}

/// The header of a segment whose first record is `base_seq`.
fn segment_header(base_seq: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&SEGMENT_MAGIC);
    header[8..12].copy_from_slice(&LOG_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&base_seq.to_le_bytes());
    header
}

/// Replays one segment. `last_base` is the base sequence the segment
/// must have if it is the log's last one: a last segment that holds a
/// strict prefix of that header (a crash between creating the file and
/// flushing its header) replays as empty, with `valid_len` 0.
fn replay_segment(path: &Path, last_base: Option<u64>) -> Result<ReplayedSegment, IngestError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if let Some(base_seq) = last_base {
        if bytes.len() < HEADER_LEN && segment_header(base_seq).starts_with(&bytes) {
            return Ok(ReplayedSegment {
                base_seq,
                entries: Vec::new(),
                valid_len: 0,
                hasher: Fnv1a64::new(),
            });
        }
    }
    if bytes.len() < HEADER_LEN || bytes[..8] != SEGMENT_MAGIC {
        return Err(IngestError::BadMagic { path: path.into() });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != LOG_VERSION {
        return Err(IngestError::BadVersion {
            path: path.into(),
            version,
        });
    }
    let base_seq = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let mut hasher = Fnv1a64::new();
    hasher.update(&bytes[..HEADER_LEN]);
    let mut entries = Vec::new();
    let mut valid_len = HEADER_LEN as u64;
    for rec in bytes[HEADER_LEN..].chunks(RECORD_LEN) {
        if rec.len() < RECORD_LEN {
            break; // partial trailing record: torn tail
        }
        let mut probe = hasher.clone();
        probe.update(&rec[..16]);
        let stored = u64::from_le_bytes(rec[16..24].try_into().expect("8 bytes"));
        if probe.digest() != stored {
            break; // chain breaks here: everything after is untrusted
        }
        hasher = probe;
        entries.push((
            u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes")),
            u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes")),
            f64::from_bits(u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"))),
        ));
        valid_len += RECORD_LEN as u64;
    }
    Ok(ReplayedSegment {
        base_seq,
        entries,
        valid_len,
        hasher,
    })
}

impl EdgeLog {
    /// Opens (creating if absent) the edge log in `dir`, replaying every
    /// segment and repairing a torn tail on the last one. Returns the
    /// log positioned to append after the recovered history, plus the
    /// recovered entries in stream order.
    ///
    /// `segment_cap` is the record count at which the writer rotates to
    /// a new segment file; it applies to newly written segments and
    /// does not need to match the cap the existing segments were
    /// written with. A `segment_cap` of 0 is an [`IngestError::Io`] of
    /// kind `InvalidInput`.
    pub fn open(
        dir: impl AsRef<Path>,
        segment_cap: u64,
    ) -> Result<(Self, Vec<EdgeLogEntry>), IngestError> {
        if segment_cap == 0 {
            return Err(IngestError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "segment capacity must be ≥ 1",
            )));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut segs: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(idx) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".adsl"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                segs.push((idx, path));
            }
        }
        segs.sort_unstable_by_key(|&(idx, _)| idx);

        let mut entries: Vec<EdgeLogEntry> = Vec::new();
        let mut tail: Option<(u64, PathBuf, u64, u64, Fnv1a64)> = None;
        for (pos, (idx, path)) in segs.iter().enumerate() {
            let last = pos + 1 == segs.len();
            let seg = replay_segment(path, last.then_some(entries.len() as u64))?;
            if seg.base_seq != entries.len() as u64 {
                return Err(IngestError::SeqGap {
                    expected: entries.len() as u64,
                    found: seg.base_seq,
                });
            }
            let file_len = std::fs::metadata(path)?.len();
            if seg.valid_len != file_len && !last {
                return Err(IngestError::TornLog {
                    path: path.clone(),
                    detail: format!(
                        "interior segment valid up to byte {} of {file_len}",
                        seg.valid_len
                    ),
                });
            }
            for (i, &(u, v, w)) in seg.entries.iter().enumerate() {
                entries.push(EdgeLogEntry {
                    seq: seg.base_seq + i as u64,
                    u,
                    v,
                    w,
                });
            }
            tail = Some((
                *idx,
                path.clone(),
                seg.valid_len,
                seg.entries.len() as u64,
                seg.hasher,
            ));
        }

        let next_seq = entries.len() as u64;
        let log = match tail {
            // A torn header: write it again.
            Some((idx, _, 0, ..)) => Self::fresh_segment(dir, segment_cap, idx, next_seq)?,
            // Resume the last segment if it still has room under the
            // *current* cap; otherwise rotate past it.
            Some((idx, path, valid_len, records, hasher)) if records < segment_cap => {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid_len)?; // drop any torn tail
                let mut writer = BufWriter::new(file);
                writer.seek_end()?;
                EdgeLog {
                    dir,
                    segment_cap,
                    writer,
                    hasher,
                    segment_index: idx,
                    segment_records: records,
                    next_seq,
                }
            }
            Some((idx, path, valid_len, _records, _)) => {
                // Full (or over-full under a smaller cap): repair the
                // tail in place, then start a fresh segment.
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(valid_len)?;
                Self::fresh_segment(dir, segment_cap, idx + 1, next_seq)?
            }
            None => Self::fresh_segment(dir, segment_cap, 0, 0)?,
        };
        Ok((log, entries))
    }

    fn fresh_segment(
        dir: PathBuf,
        segment_cap: u64,
        segment_index: u64,
        base_seq: u64,
    ) -> Result<EdgeLog, IngestError> {
        let path = dir.join(segment_file_name(segment_index));
        let header = segment_header(base_seq);
        let mut writer = BufWriter::new(File::create(&path)?);
        writer.write_all(&header)?;
        let mut hasher = Fnv1a64::new();
        hasher.update(&header);
        Ok(EdgeLog {
            dir,
            segment_cap,
            writer,
            hasher,
            segment_index,
            segment_records: 0,
            next_seq: base_seq,
        })
    }

    /// Journals one edge insertion and returns its sequence number.
    /// Rotates to a new segment when the open one is full. Buffered —
    /// call [`EdgeLog::flush`] to push records to the OS.
    pub fn append(&mut self, u: u32, v: u32, w: f64) -> Result<u64, IngestError> {
        if self.segment_records == self.segment_cap {
            self.writer.flush()?;
            *self = Self::fresh_segment(
                std::mem::take(&mut self.dir),
                self.segment_cap,
                self.segment_index + 1,
                self.next_seq,
            )?;
        }
        let mut rec = [0u8; RECORD_LEN];
        rec[0..4].copy_from_slice(&u.to_le_bytes());
        rec[4..8].copy_from_slice(&v.to_le_bytes());
        rec[8..16].copy_from_slice(&w.to_bits().to_le_bytes());
        self.hasher.update(&rec[..16]);
        rec[16..24].copy_from_slice(&self.hasher.digest().to_le_bytes());
        self.writer.write_all(&rec)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.segment_records += 1;
        Ok(seq)
    }

    /// Flushes buffered records to the OS, not to the disk: there is no
    /// fsync. The records survive a process crash; after an OS crash or
    /// power loss they may be lost or damaged, and the recovery contract
    /// (see the module docs) makes that a typed error or a truncated
    /// tail, never a wrong edge.
    pub fn flush(&mut self) -> Result<(), IngestError> {
        self.writer.flush()?;
        Ok(())
    }

    /// The sequence number the next [`EdgeLog::append`] will return —
    /// equal to the number of edges ever journaled.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The number of segment files written so far (the open one
    /// included).
    pub fn segments(&self) -> u64 {
        self.segment_index + 1
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records per segment before the writer rotates.
    pub fn segment_cap(&self) -> u64 {
        self.segment_cap
    }
}

/// `BufWriter<File>` has no stable "seek to end" shorthand; this keeps
/// the call sites readable.
trait SeekEnd {
    fn seek_end(&mut self) -> std::io::Result<()>;
}

impl SeekEnd for BufWriter<File> {
    fn seek_end(&mut self) -> std::io::Result<()> {
        use std::io::Seek;
        self.seek(std::io::SeekFrom::End(0)).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_util::rng::{Rng64, SplitMix64};

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("adsketch_ingest_log_{tag}_{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn fill(log: &mut EdgeLog, n: u64) {
        for i in 0..n {
            let seq = log
                .append(i as u32, (i * 7 % 100) as u32, 0.5 + i as f64)
                .unwrap();
            assert_eq!(seq, log.next_seq() - 1);
        }
        log.flush().unwrap();
    }

    #[test]
    fn roundtrips_across_segments() {
        let s = Scratch::new("roundtrip");
        let (mut log, replayed) = EdgeLog::open(&s.0, 10).unwrap();
        assert!(replayed.is_empty());
        fill(&mut log, 37);
        assert_eq!(log.segments(), 4); // 10 + 10 + 10 + 7
        drop(log);
        let (log, replayed) = EdgeLog::open(&s.0, 10).unwrap();
        assert_eq!(log.next_seq(), 37);
        assert_eq!(replayed.len(), 37);
        for (i, e) in replayed.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.u, i as u32);
            assert_eq!(e.v, (i * 7 % 100) as u32);
            assert_eq!(e.w.to_bits(), (0.5 + i as f64).to_bits());
        }
    }

    #[test]
    fn weight_bits_roundtrip_exactly() {
        let s = Scratch::new("bits");
        let (mut log, _) = EdgeLog::open(&s.0, 100).unwrap();
        // An exotic but valid weight: subnormal.
        log.append(1, 2, f64::from_bits(0x0000_0000_0000_0001))
            .unwrap();
        log.append(3, 4, 0.0).unwrap();
        log.flush().unwrap();
        drop(log);
        let (_, replayed) = EdgeLog::open(&s.0, 100).unwrap();
        assert_eq!(replayed[0].w.to_bits(), 1);
        assert_eq!(replayed[1].w.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn torn_tail_on_last_segment_recovers_prefix() {
        let s = Scratch::new("torn");
        let (mut log, _) = EdgeLog::open(&s.0, 100).unwrap();
        fill(&mut log, 5);
        drop(log);
        // Simulate a crash mid-append: garbage half-record at the tail.
        let path = s.0.join(segment_file_name(0));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x01]).unwrap();
        drop(f);
        let (mut log, replayed) = EdgeLog::open(&s.0, 100).unwrap();
        assert_eq!(replayed.len(), 5);
        assert_eq!(log.next_seq(), 5);
        // The tail was truncated and the chain resumes cleanly.
        fill(&mut log, 3);
        drop(log);
        let (_, replayed) = EdgeLog::open(&s.0, 100).unwrap();
        assert_eq!(replayed.len(), 8);
    }

    #[test]
    fn corrupt_record_cuts_the_chain_there() {
        let s = Scratch::new("chain");
        let (mut log, _) = EdgeLog::open(&s.0, 100).unwrap();
        fill(&mut log, 6);
        drop(log);
        // Flip a payload byte of record 3: records 3..6 all become
        // untrusted (the digests chain), only 0..3 survive.
        let path = s.0.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 3 * RECORD_LEN] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = EdgeLog::open(&s.0, 100).unwrap();
        assert_eq!(replayed.len(), 3);
    }

    #[test]
    fn interior_corruption_is_an_error_not_silence() {
        let s = Scratch::new("interior");
        let (mut log, _) = EdgeLog::open(&s.0, 4).unwrap();
        fill(&mut log, 10); // segments: 4 + 4 + 2
        drop(log);
        let path = s.0.join(segment_file_name(1));
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 9] ^= 0x01; // damage the middle segment's last record
        std::fs::write(&path, &bytes).unwrap();
        match EdgeLog::open(&s.0, 4) {
            Err(IngestError::TornLog { .. }) => {}
            other => panic!("expected TornLog, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let s = Scratch::new("magic");
        let (log, _) = EdgeLog::open(&s.0, 4).unwrap();
        drop(log);
        std::fs::write(s.0.join(segment_file_name(0)), b"NOTALOG!").unwrap();
        match EdgeLog::open(&s.0, 4) {
            Err(IngestError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    /// One hostile edit of a segment file: bit flips, a truncation,
    /// appended bytes, or one header field (magic, version, base
    /// sequence) overwritten with a random or an off-by-one value.
    fn mutate(good: &[u8], case: usize, rng: &mut SplitMix64) -> Vec<u8> {
        let mut bytes = good.to_vec();
        match case % 4 {
            0 => {
                for _ in 0..1 + rng.range_usize(4) {
                    let bit = rng.range_usize(good.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => bytes.truncate(rng.range_usize(good.len())),
            2 => bytes.extend((0..1 + rng.range_usize(60)).map(|_| rng.next_u64() as u8)),
            _ => {
                let (at, len) = [(0, 8), (8, 4), (12, 8)][rng.range_usize(3)];
                let old = u64::from_le_bytes({
                    let mut b = [0u8; 8];
                    b[..len].copy_from_slice(&good[at..at + len]);
                    b
                });
                let new = match rng.range_usize(3) {
                    0 => rng.next_u64(),
                    1 => old.wrapping_add(1),
                    _ => old.wrapping_sub(1),
                };
                bytes[at..at + len].copy_from_slice(&new.to_le_bytes()[..len]);
            }
        }
        bytes
    }

    /// Hostile inputs, edge-log slice: 400 mutations of one segment of a
    /// 3-segment log. Every open either fails with a typed error or
    /// replays a bit-exact prefix of the appended edges, and a log that
    /// opens resumes its chain: one more append replays after it on the
    /// next open. Every truncation of the last segment opens. Nothing
    /// panics.
    #[test]
    fn mutated_segments_are_typed_errors_or_exact_prefixes() {
        let s = Scratch::new("mutation");
        let (mut log, _) = EdgeLog::open(&s.0, 4).unwrap();
        fill(&mut log, 10); // segments: 4 + 4 + 2
        drop(log);
        let (_, appended) = EdgeLog::open(&s.0, 4).unwrap();
        let goods: Vec<Vec<u8>> = (0..3)
            .map(|i| std::fs::read(s.0.join(segment_file_name(i))).unwrap())
            .collect();
        let same = |a: &[EdgeLogEntry], b: &[EdgeLogEntry]| {
            let key = |e: &EdgeLogEntry| (e.seq, e.u, e.v, e.w.to_bits());
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| key(x) == key(y))
        };
        let mut rng = SplitMix64::new(0x5EED_0000 ^ 3);
        let mut opened = 0;
        for case in 0..400 {
            let seg = rng.range_usize(3);
            let bytes = mutate(&goods[seg], case, &mut rng);
            let cap = [1, 3, 4, 100][rng.range_usize(4)];
            let what = format!(
                "case {case}: segment {seg}, {} bytes, cap {cap}",
                bytes.len()
            );
            std::fs::remove_dir_all(&s.0).unwrap();
            std::fs::create_dir_all(&s.0).unwrap();
            for (i, good) in goods.iter().enumerate() {
                let file = if i == seg { &bytes } else { good };
                std::fs::write(s.0.join(segment_file_name(i as u64)), file).unwrap();
            }
            let open = || EdgeLog::open(&s.0, cap);
            let opened_log =
                std::panic::catch_unwind(open).unwrap_or_else(|_| panic!("{what}: panicked"));
            // A crash leaves any prefix of the last segment: that must
            // always recover.
            if seg == 2 && case % 4 == 1 {
                assert!(opened_log.is_ok(), "{what}: {:?}", opened_log.err());
            }
            let Ok((mut log, replayed)) = opened_log else {
                continue;
            };
            opened += 1;
            let n = replayed.len();
            assert!(
                same(&replayed, &appended[..n.min(10)]),
                "{what}: not a prefix"
            );
            assert_eq!(log.next_seq(), n as u64, "{what}");
            log.append(7, 8, 9.5).unwrap();
            log.flush().unwrap();
            drop(log);
            let (_, again) = EdgeLog::open(&s.0, cap).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(same(&again[..n], &replayed), "{what}: history moved");
            assert_eq!(
                (again.len(), again[n].u, again[n].v, again[n].w),
                (n + 1, 7, 8, 9.5),
                "{what}: the resumed append"
            );
        }
        assert!(opened > 0 && opened < 400, "{opened} of 400 cases opened");
    }

    /// A crash right after a rotation leaves the new segment shorter than
    /// its header (the header sits in the writer's buffer): the open
    /// writes the header again and the log resumes. The mutation test
    /// found this as a `BadMagic` on a truncated last segment.
    #[test]
    fn torn_header_on_the_last_segment_is_written_again() {
        for cut in [0, 7, 13, HEADER_LEN - 1] {
            let s = Scratch::new(&format!("torn_header_{cut}"));
            let (mut log, _) = EdgeLog::open(&s.0, 4).unwrap();
            fill(&mut log, 9); // segments: 4 + 4 + 1
            drop(log);
            let path = s.0.join(segment_file_name(2));
            let header = std::fs::read(&path).unwrap()[..cut].to_vec();
            std::fs::write(&path, &header).unwrap();
            let (mut log, replayed) = EdgeLog::open(&s.0, 4).unwrap();
            assert_eq!((replayed.len(), log.segments()), (8, 3), "cut {cut}");
            fill(&mut log, 2);
            drop(log);
            let (_, replayed) = EdgeLog::open(&s.0, 4).unwrap();
            assert_eq!(replayed.len(), 10, "cut {cut}");
            assert_eq!(replayed[8].u, 0, "cut {cut}: the resumed append");
            // An interior segment cut the same way is still corruption,
            // and so is a short last segment that is not a header prefix.
            std::fs::write(s.0.join(segment_file_name(1)), &header).unwrap();
            assert!(EdgeLog::open(&s.0, 4).is_err(), "cut {cut}");
        }
        let s = Scratch::new("torn_header_garbage");
        let (mut log, _) = EdgeLog::open(&s.0, 4).unwrap();
        fill(&mut log, 5);
        drop(log);
        std::fs::write(s.0.join(segment_file_name(1)), b"ADSKELG2").unwrap();
        assert!(matches!(
            EdgeLog::open(&s.0, 4),
            Err(IngestError::BadMagic { .. })
        ));
    }

    #[test]
    fn missing_segment_is_a_seq_gap() {
        let s = Scratch::new("gap");
        let (mut log, _) = EdgeLog::open(&s.0, 3).unwrap();
        fill(&mut log, 9);
        drop(log);
        std::fs::remove_file(s.0.join(segment_file_name(1))).unwrap();
        match EdgeLog::open(&s.0, 3) {
            Err(IngestError::SeqGap {
                expected: 3,
                found: 6,
            }) => {}
            other => panic!("expected SeqGap, got {other:?}"),
        }
    }
}
