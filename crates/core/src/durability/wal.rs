//! The write-ahead log: every flushed change window, durable before it
//! is applied.
//!
//! # On-disk format
//!
//! ```text
//! header (20 bytes):
//!   "DMISWAL2"       — 8-byte magic
//!   base:  u64 LE    — sequence number of the first record
//!   crc:   u32 LE    — CRC-32 of the 16 bytes above
//! repeated records:
//!   len: u32 LE      — payload length in bytes
//!   crc: u32 LE      — CRC-32 of the payload
//!   payload:
//!     seq:   u64 LE  — record sequence number (base, base + 1, …)
//!     count: u64 LE  — number of changes
//!     count × change — tag byte + LE u64 operands (see the codec)
//! ```
//!
//! [`WriteAheadLog::open`] scans the records in order and **truncates**
//! the file at the first torn, checksum-failing, malformed, or
//! out-of-sequence record: whatever a crash left behind, the log it
//! reopens is a whole-record prefix of the history, and appends resume
//! from there. One record is written per
//! [`IngestSession::flush`](crate::IngestSession::flush) — *including
//! empty windows* — so the record count equals the engine's flush
//! count, which is what makes replay's epoch arithmetic exact.
//!
//! The file holds only the records after the last durable checkpoint:
//! [`Checkpoint::save`](super::Checkpoint::save) rewrites it through
//! [`retire_before`] once the image has landed, with the checkpoint's
//! `wal_seq` as the new base. Version 1 (`DMISWAL1`, no base) files are
//! foreign to this reader and start a fresh log, like any other
//! unrecognized header.

use std::io;
use std::sync::Arc;

use dmis_graph::TopologyChange;

use super::codec::{crc32, put_change, put_u32, put_u64, take_change, Cursor};
use super::{StorageIo, WalSink, WAL_FILE};

const WAL_MAGIC: &[u8; 8] = b"DMISWAL2";

/// Bytes before the first record: magic, base sequence number, and the
/// header's own CRC.
const HEADER_LEN: usize = 20;

/// Bytes before a record's payload: its length and its CRC.
const FRAME_LEN: usize = 8;

/// One decoded log record: a flushed change window and its sequence
/// number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    seq: u64,
    changes: Vec<TopologyChange>,
}

impl WalRecord {
    /// The record's sequence number: the index of its flush since the
    /// log was created, which is also the epoch its window published.
    /// The first record in the file carries the header's base.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The flushed (already coalesced) change window.
    #[must_use]
    pub fn changes(&self) -> &[TopologyChange] {
        &self.changes
    }
}

/// An append-only log of flushed change windows over a [`StorageIo`].
///
/// Implements [`WalSink`], so a handle can be plugged straight into
/// [`IngestSession::set_wal_sink`](crate::IngestSession::set_wal_sink).
///
/// A failed [`Self::append`] may leave a torn record in the file, and
/// bytes appended after it would be unreachable: the next
/// [`Self::open`] truncates at the tear. So the first failed append
/// poisons the handle, and every later append fails until the log is
/// reopened with [`Self::open`].
#[derive(Debug)]
pub struct WriteAheadLog {
    io: Arc<dyn StorageIo>,
    next_seq: u64,
    poisoned: bool,
}

impl WriteAheadLog {
    /// Starts a fresh, empty log at sequence number 0, replacing any
    /// existing one.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn create(io: Arc<dyn StorageIo>) -> io::Result<Self> {
        io.write_atomic(WAL_FILE, &header(0))?;
        Ok(WriteAheadLog {
            io,
            next_seq: 0,
            poisoned: false,
        })
    }

    /// Opens the existing log: scans its records, truncates the file at
    /// the first invalid byte (torn tail, checksum failure, malformed
    /// change, sequence gap), and returns the surviving records along
    /// with a handle positioned to append after them. A missing file or
    /// a short, foreign or checksum-failing header yields a fresh empty
    /// log at sequence number 0.
    ///
    /// # Errors
    ///
    /// Propagates storage errors; corruption is *not* an error — it is
    /// truncated away, which is the point.
    pub fn open(io: Arc<dyn StorageIo>) -> io::Result<(Self, Vec<WalRecord>)> {
        let Some(bytes) = io.read(WAL_FILE)? else {
            return Self::create(io).map(|log| (log, Vec::new()));
        };
        let Some(base) = read_header(&bytes) else {
            return Self::create(io).map(|log| (log, Vec::new()));
        };
        let mut records = Vec::new();
        let mut pos = HEADER_LEN;
        let mut next_seq = base;
        while let Some(frame) = next_frame(&bytes, pos) {
            if crc32(frame.payload) != frame.crc {
                break;
            }
            let Some(record) = decode_payload(frame.payload, next_seq) else {
                break;
            };
            records.push(record);
            next_seq += 1;
            pos = frame.end;
        }
        if pos < bytes.len() {
            io.truncate(WAL_FILE, pos as u64)?;
        }
        let log = WriteAheadLog {
            io,
            next_seq,
            poisoned: false,
        };
        Ok((log, records))
    }

    /// Durably appends one change window; returns its sequence number.
    ///
    /// # Errors
    ///
    /// Propagates storage errors. On error the in-memory position does
    /// *not* advance, the bytes that may have landed are a torn tail the
    /// next [`Self::open`] truncates away, and the handle is poisoned:
    /// every later append fails without touching storage.
    pub fn append(&mut self, changes: &[TopologyChange]) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(
                "write-ahead log poisoned by a failed append: reopen it to resume",
            ));
        }
        let mut payload = Vec::with_capacity(16 + 24 * changes.len());
        put_u64(&mut payload, self.next_seq);
        put_u64(&mut payload, changes.len() as u64);
        for c in changes {
            put_change(&mut payload, c);
        }
        let mut record = Vec::with_capacity(FRAME_LEN + payload.len());
        put_u32(&mut record, payload.len() as u32);
        put_u32(&mut record, crc32(&payload));
        record.extend_from_slice(&payload);
        if let Err(e) = self.io.append(WAL_FILE, &record) {
            self.poisoned = true;
            return Err(e);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(seq)
    }

    /// The next sequence number: the log's base plus the records
    /// durably appended since — equivalently, the number of records
    /// written since the log was created.
    #[must_use]
    pub fn records_persisted(&self) -> u64 {
        self.next_seq
    }
}

impl WalSink for WriteAheadLog {
    fn persist(&mut self, changes: &[TopologyChange]) -> io::Result<u64> {
        self.append(changes)
    }
}

/// Drops the records below `wal_seq` from the log: one atomic rewrite
/// of the file as a header with base `wal_seq`, followed by the records
/// from `wal_seq` on, copied verbatim (the next [`WriteAheadLog::open`]
/// checks them). [`Checkpoint::save`](super::Checkpoint::save) calls it
/// once the image that reflects those records has landed.
///
/// Leaves the log untouched when it is missing or its header is not
/// recognized, when `wal_seq` is at or below its base, or when `wal_seq`
/// lies past its last whole record — a live handle's next append must
/// still be the record the file expects next.
///
/// # Errors
///
/// Propagates storage errors; on error the old log survives whole.
pub(crate) fn retire_before(io: &dyn StorageIo, wal_seq: u64) -> io::Result<()> {
    let Some(bytes) = io.read(WAL_FILE)? else {
        return Ok(());
    };
    let Some(base) = read_header(&bytes) else {
        return Ok(());
    };
    if wal_seq <= base {
        return Ok(());
    }
    let mut pos = HEADER_LEN;
    for _ in base..wal_seq {
        let Some(frame) = next_frame(&bytes, pos) else {
            return Ok(());
        };
        pos = frame.end;
    }
    let mut kept = header(wal_seq);
    kept.extend_from_slice(&bytes[pos..]);
    drop(bytes);
    io.write_atomic(WAL_FILE, &kept)
}

/// The log header for a file whose first record is `base`.
fn header(base: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(WAL_MAGIC);
    put_u64(&mut out, base);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// The base sequence number of a recognized header, or `None` for a
/// short, foreign, or checksum-failing one.
fn read_header(bytes: &[u8]) -> Option<u64> {
    let mut cur = Cursor::new(bytes.get(..HEADER_LEN)?);
    if cur.take(WAL_MAGIC.len()).ok()? != WAL_MAGIC {
        return None;
    }
    let base = cur.u64().ok()?;
    let covered = cur.pos();
    let crc = cur.u32().ok()?;
    (crc32(cur.raw(0, covered)) == crc).then_some(base)
}

/// One whole record frame within the log bytes.
struct Frame<'a> {
    crc: u32,
    payload: &'a [u8],
    /// Offset just past the frame: where the next one starts.
    end: usize,
}

/// The frame starting at `pos`, or `None` if the bytes end before it
/// does (the end of the log, or a torn tail). Checks only the length.
fn next_frame(bytes: &[u8], pos: usize) -> Option<Frame<'_>> {
    let mut cur = Cursor::new(bytes.get(pos..)?);
    let len = usize::try_from(cur.u32().ok()?).ok()?;
    let crc = cur.u32().ok()?;
    let payload = cur.take(len).ok()?;
    Some(Frame {
        crc,
        payload,
        end: pos + cur.pos(),
    })
}

/// Decodes one record payload, rejecting sequence numbers that don't
/// match the record's position (a gap means the bytes belong to some
/// other history — treat everything from here on as corrupt).
fn decode_payload(payload: &[u8], expected_seq: u64) -> Option<WalRecord> {
    let mut cur = Cursor::new(payload);
    let seq = cur.u64().ok()?;
    if seq != expected_seq {
        return None;
    }
    let count = cur.u64().ok()?;
    let mut changes = Vec::new();
    for _ in 0..count {
        changes.push(take_change(&mut cur).ok()?);
    }
    if !cur.is_empty() {
        return None; // trailing garbage inside a CRC-valid frame
    }
    Some(WalRecord { seq, changes })
}

#[cfg(test)]
mod tests {
    use super::super::MemIo;
    use super::*;
    use dmis_graph::NodeId;

    fn sample_batches() -> Vec<Vec<TopologyChange>> {
        vec![
            vec![
                TopologyChange::InsertEdge(NodeId(0), NodeId(1)),
                TopologyChange::DeleteEdge(NodeId(2), NodeId(3)),
            ],
            vec![], // empty flush windows are logged too
            vec![TopologyChange::InsertNode {
                id: NodeId(9),
                edges: vec![NodeId(0)],
            }],
            vec![TopologyChange::DeleteNode(NodeId(1))],
        ]
    }

    #[test]
    fn append_then_open_round_trips_every_record() {
        let store = MemIo::new();
        let mut log = WriteAheadLog::create(Arc::new(store.clone())).unwrap();
        for (i, batch) in sample_batches().iter().enumerate() {
            assert_eq!(log.append(batch).unwrap(), i as u64);
        }
        assert_eq!(log.records_persisted(), 4);

        let (reopened, records) = WriteAheadLog::open(Arc::new(store)).unwrap();
        assert_eq!(reopened.records_persisted(), 4);
        assert_eq!(records.len(), 4);
        for (i, (record, batch)) in records.iter().zip(sample_batches()).enumerate() {
            assert_eq!(record.seq(), i as u64);
            assert_eq!(record.changes(), batch);
        }
    }

    #[test]
    fn open_truncates_a_torn_tail_and_appends_resume() {
        let store = MemIo::new();
        let mut log = WriteAheadLog::create(Arc::new(store.clone())).unwrap();
        for batch in sample_batches() {
            log.append(&batch).unwrap();
        }
        let full = store.file_len(WAL_FILE).unwrap();
        store.chop(WAL_FILE, full - 3); // tear the last record

        let (mut reopened, records) = WriteAheadLog::open(Arc::new(store.clone())).unwrap();
        assert_eq!(records.len(), 3, "the torn record is gone");
        assert_eq!(reopened.records_persisted(), 3);
        assert!(store.file_len(WAL_FILE).unwrap() < full - 3);

        // The log is whole again: a new record appends cleanly at seq 3.
        assert_eq!(reopened.append(&[]).unwrap(), 3);
        let (_, records) = WriteAheadLog::open(Arc::new(store)).unwrap();
        assert_eq!(records.len(), 4);
    }

    #[test]
    fn open_truncates_at_a_flipped_bit() {
        let store = MemIo::new();
        let mut log = WriteAheadLog::create(Arc::new(store.clone())).unwrap();
        for batch in sample_batches() {
            log.append(&batch).unwrap();
        }
        // Flip one payload bit of record 1 (log header + record0 + frame
        // header + 1 byte into record1's payload).
        let record0_payload = 8 + 8 + 2 * 17;
        store.corrupt(
            WAL_FILE,
            HEADER_LEN + FRAME_LEN + record0_payload + FRAME_LEN + 1,
            0x40,
        );
        let (reopened, records) = WriteAheadLog::open(Arc::new(store)).unwrap();
        assert_eq!(records.len(), 1, "records after the flip are dropped");
        assert_eq!(reopened.records_persisted(), 1);
    }

    #[test]
    fn missing_file_and_foreign_magic_start_fresh() {
        let store = MemIo::new();
        let (log, records) = WriteAheadLog::open(Arc::new(store.clone())).unwrap();
        assert_eq!(log.records_persisted(), 0);
        assert!(records.is_empty());

        store.write_atomic(WAL_FILE, b"NOTAWAL!garbage").unwrap();
        let (log, records) = WriteAheadLog::open(Arc::new(store.clone())).unwrap();
        assert_eq!(log.records_persisted(), 0);
        assert!(records.is_empty());
        assert_eq!(store.file_len(WAL_FILE).unwrap(), HEADER_LEN);

        // A version 1 log (no base, no header CRC) is foreign too.
        let mut log = WriteAheadLog::create(Arc::new(store.clone())).unwrap();
        log.append(&sample_batches()[0]).unwrap();
        let mut bytes = store.read(WAL_FILE).unwrap().unwrap();
        bytes[..WAL_MAGIC.len()].copy_from_slice(b"DMISWAL1");
        store.write_atomic(WAL_FILE, &bytes).unwrap();
        let (log, records) = WriteAheadLog::open(Arc::new(store.clone())).unwrap();
        assert_eq!(log.records_persisted(), 0);
        assert!(records.is_empty());
        assert_eq!(store.read(WAL_FILE).unwrap().unwrap(), header(0));
    }

    /// A store whose `tear_at`-th append (0-based) lands only the first
    /// half of its bytes and fails; every other call succeeds.
    #[derive(Debug)]
    struct TearOnce {
        inner: MemIo,
        appends: std::sync::atomic::AtomicUsize,
        tear_at: usize,
    }

    impl StorageIo for TearOnce {
        fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
            self.inner.read(name)
        }
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.inner.write_atomic(name, bytes)
        }
        fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            let n = self
                .appends
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n == self.tear_at {
                self.inner.append(name, &bytes[..bytes.len() / 2])?;
                return Err(io::Error::other("torn append"));
            }
            self.inner.append(name, bytes)
        }
        fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
            self.inner.truncate(name, len)
        }
    }

    #[test]
    fn an_append_after_a_failed_append_is_refused_until_reopen() {
        let store = MemIo::new();
        let io = Arc::new(TearOnce {
            inner: store.clone(),
            appends: std::sync::atomic::AtomicUsize::new(0),
            tear_at: 1,
        });
        let mut log = WriteAheadLog::create(io).unwrap();
        let batches = sample_batches();
        assert_eq!(log.append(&batches[0]).unwrap(), 0);
        assert!(log.append(&batches[1]).is_err(), "the torn append fails");
        // The storage has healed, but an acknowledged record written
        // after the tear would be truncated away by the next open.
        assert!(
            log.append(&batches[2]).is_err(),
            "a poisoned handle acknowledges nothing"
        );
        assert_eq!(log.records_persisted(), 1);

        let (mut reopened, records) = WriteAheadLog::open(Arc::new(store.clone())).unwrap();
        assert_eq!(records.len(), 1, "the torn record is truncated away");
        assert_eq!(reopened.append(&batches[2]).unwrap(), 1);
        let (_, records) = WriteAheadLog::open(Arc::new(store)).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].changes(), batches[2]);
    }

    #[test]
    fn retiring_keeps_the_records_from_the_new_base_on() {
        let store = MemIo::new();
        let mut log = WriteAheadLog::create(Arc::new(store.clone())).unwrap();
        for batch in sample_batches() {
            log.append(&batch).unwrap();
        }
        retire_before(&store, 2).unwrap();
        // The live handle appends on: the file expects seq 4 next.
        assert_eq!(log.append(&sample_batches()[0]).unwrap(), 4);

        let (reopened, records) = WriteAheadLog::open(Arc::new(store.clone())).unwrap();
        assert_eq!(reopened.records_persisted(), 5);
        let seqs: Vec<u64> = records.iter().map(WalRecord::seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        assert_eq!(records[0].changes(), sample_batches()[2]);
        assert_eq!(records[2].changes(), sample_batches()[0]);

        // Retiring every record leaves a bare header at the end.
        retire_before(&store, 5).unwrap();
        assert_eq!(store.read(WAL_FILE).unwrap().unwrap(), header(5));
        let (reopened, records) = WriteAheadLog::open(Arc::new(store)).unwrap();
        assert_eq!(reopened.records_persisted(), 5);
        assert!(records.is_empty());
    }

    #[test]
    fn retiring_leaves_the_log_untouched_when_it_cannot_honor_the_base() {
        let store = MemIo::new();
        retire_before(&store, 3).unwrap();
        assert_eq!(
            store.file_len(WAL_FILE),
            None,
            "a missing log stays missing"
        );

        store.write_atomic(WAL_FILE, b"NOTAWAL!garbage").unwrap();
        retire_before(&store, 3).unwrap();
        assert_eq!(store.read(WAL_FILE).unwrap().unwrap(), b"NOTAWAL!garbage");

        let mut log = WriteAheadLog::create(Arc::new(store.clone())).unwrap();
        for batch in sample_batches() {
            log.append(&batch).unwrap();
        }
        retire_before(&store, 2).unwrap();
        let rotated = store.read(WAL_FILE).unwrap().unwrap();
        // At or below the base: nothing left to retire.
        retire_before(&store, 2).unwrap();
        retire_before(&store, 0).unwrap();
        assert_eq!(store.read(WAL_FILE).unwrap().unwrap(), rotated);
        // Past the last whole record, torn tail or not.
        retire_before(&store, 5).unwrap();
        assert_eq!(store.read(WAL_FILE).unwrap().unwrap(), rotated);
        store.chop(WAL_FILE, rotated.len() - 3);
        retire_before(&store, 4).unwrap();
        assert_eq!(store.file_len(WAL_FILE), Some(rotated.len() - 3));
    }

    #[test]
    fn crash_at_every_byte_of_the_log_recovers_a_prefix() {
        // Build a reference log, then for every possible crash offset k,
        // keep only the first k bytes and prove open() lands on a whole
        // -record prefix — never panics, never invents a record.
        let store = MemIo::new();
        let mut log = WriteAheadLog::create(Arc::new(store.clone())).unwrap();
        for batch in sample_batches() {
            log.append(&batch).unwrap();
        }
        let full_bytes = store.read(WAL_FILE).unwrap().unwrap();
        for k in 0..=full_bytes.len() {
            let partial = MemIo::new();
            partial.write_atomic(WAL_FILE, &full_bytes[..k]).unwrap();
            let (_, records) = WriteAheadLog::open(Arc::new(partial)).unwrap();
            assert!(records.len() <= 4, "crash at {k} invented records");
            for (i, record) in records.iter().enumerate() {
                assert_eq!(record.seq(), i as u64, "crash at {k}");
                assert_eq!(record.changes(), sample_batches()[i], "crash at {k}");
            }
        }
    }
}
