//! Crash recovery: checkpoint + WAL suffix ⟶ a bit-identical engine.
//!
//! [`recover`] is the whole restart story: load the last valid
//! [`Checkpoint`], open the [`WriteAheadLog`] (which scans and
//! truncates any torn tail, and holds only the records since the last
//! checkpoint save), refuse a log that starts after the checkpoint, and
//! replay every surviving record at or after the checkpoint's sequence
//! number through
//! [`apply_batch`](crate::DynamicMis::apply_batch). Because the engine
//! is a deterministic function of `(graph, π, RNG position)` and the
//! log holds the *coalesced* windows in flush order, replay reproduces
//! the uncrashed run exactly — same MIS, same flip log, same receipt
//! counters, and (one log record per flush, one published epoch per
//! applied batch) the same reader epoch. Whatever byte the crash
//! happened at, the recovered state is some *prefix* of the true
//! history — never an invented state — and the log-then-publish flush
//! ordering guarantees that prefix is at or ahead of anything a reader
//! ever observed.

use std::fmt;
use std::sync::Arc;

use dmis_graph::GraphError;

use super::{Checkpoint, CodecError, StorageIo, WalRecord, WriteAheadLog};
use crate::api::DynamicMis;
use crate::BatchReceipt;

/// Why a recovery attempt failed. Corruption *within* the WAL is not a
/// failure (it is truncated away); these are the conditions recovery
/// cannot talk its way around.
#[derive(Debug)]
pub enum RecoverError {
    /// The storage layer itself failed.
    Io(std::io::Error),
    /// The checkpoint image exists but does not decode.
    Corrupt(CodecError),
    /// No checkpoint image exists — there is nothing to anchor replay.
    MissingCheckpoint,
    /// The restored engine's recomputed MIS differs from the captured
    /// witness: the image is internally consistent but wrong.
    Witness,
    /// A logged change was rejected during replay — the log and the
    /// checkpoint disagree about the graph they describe.
    Replay(GraphError),
    /// The log's first record comes after the checkpoint's `wal_seq`:
    /// the records between them are gone, so no replay can reach the
    /// logged state.
    Gap {
        /// The checkpoint's `wal_seq`: where replay had to start.
        checkpoint_seq: u64,
        /// The sequence number of the log's first record.
        log_starts_at: u64,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "storage failed during recovery: {e}"),
            RecoverError::Corrupt(e) => write!(f, "checkpoint image is corrupt: {e}"),
            RecoverError::MissingCheckpoint => write!(f, "no checkpoint to recover from"),
            RecoverError::Witness => {
                write!(f, "restored MIS does not match the checkpoint witness")
            }
            RecoverError::Replay(e) => write!(f, "WAL replay rejected a logged change: {e}"),
            RecoverError::Gap {
                checkpoint_seq,
                log_starts_at,
            } => write!(
                f,
                "WAL gap: the log starts at record {log_starts_at}, after the \
                 checkpoint's record {checkpoint_seq}; the records between are lost"
            ),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Io(e) => Some(e),
            RecoverError::Corrupt(e) => Some(e),
            RecoverError::Replay(e) => Some(e),
            RecoverError::MissingCheckpoint | RecoverError::Witness | RecoverError::Gap { .. } => {
                None
            }
        }
    }
}

/// The outcome of a successful [`recover`]: a live engine caught up to
/// the durable history, plus the reopened log ready for new appends.
pub struct Recovered {
    /// The restored engine, checkpoint state plus the replayed WAL
    /// suffix — bit-identical to the uncrashed twin at the same point.
    pub engine: Box<dyn DynamicMis + Send>,
    /// The write-ahead log, truncated to whole records and positioned
    /// to append the next flush.
    pub wal: WriteAheadLog,
    /// The WAL sequence number the checkpoint was consistent with:
    /// replay starts at this record. The log normally starts here too,
    /// because each save retires the records below it; a crash between
    /// the image and the log rewrite leaves older records, which are
    /// skipped.
    pub checkpoint_seq: u64,
    /// Number of WAL records replayed on top of the checkpoint.
    pub replayed: usize,
    /// The receipts of the replayed batches, in log order — replay is
    /// deterministic, so these equal the receipts the uncrashed run
    /// produced for the same flushes.
    pub receipts: Vec<BatchReceipt>,
}

impl fmt::Debug for Recovered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recovered")
            .field("meta", &self.engine.durability_meta())
            .field("wal", &self.wal)
            .field("checkpoint_seq", &self.checkpoint_seq)
            .field("replayed", &self.replayed)
            .finish_non_exhaustive()
    }
}

/// Recovers engine state from `io`: last valid checkpoint, then the
/// surviving WAL suffix.
///
/// # Errors
///
/// See [`RecoverError`]; notably a *torn or corrupted WAL tail is not
/// an error* — it is truncated to the last whole record and the intact
/// prefix is replayed. A log that starts after the checkpoint's
/// `wal_seq` is [`RecoverError::Gap`]: nothing is replayed across it.
pub fn recover(io: Arc<dyn StorageIo>) -> Result<Recovered, RecoverError> {
    let checkpoint = Checkpoint::load(io.as_ref())?.ok_or(RecoverError::MissingCheckpoint)?;
    let mut engine = checkpoint.restore()?;
    let (wal, records) = WriteAheadLog::open(io).map_err(RecoverError::Io)?;
    let checkpoint_seq = checkpoint.wal_seq();
    let log_starts_at = wal.records_persisted() - records.len() as u64;
    if log_starts_at > checkpoint_seq {
        return Err(RecoverError::Gap {
            checkpoint_seq,
            log_starts_at,
        });
    }
    let mut receipts = Vec::new();
    for record in records.iter().filter(|r| r.seq() >= checkpoint_seq) {
        receipts.push(replay(engine.as_mut(), record)?);
    }
    Ok(Recovered {
        engine,
        wal,
        checkpoint_seq,
        replayed: receipts.len(),
        receipts,
    })
}

fn replay(engine: &mut dyn DynamicMis, record: &WalRecord) -> Result<BatchReceipt, RecoverError> {
    engine
        .apply_batch(record.changes())
        .map_err(RecoverError::Replay)
}

#[cfg(test)]
mod tests {
    use super::super::{FaultIo, MemIo};
    use super::*;
    use crate::Engine;
    use dmis_graph::stream::{self, ChurnConfig};
    use dmis_graph::TopologyChange;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Drives `changes` seeded changes through a fresh engine, logging
    /// one record per change, checkpointing at `ckp_every`; returns the
    /// shared store and the final twin state.
    fn run_logged(
        store: &MemIo,
        changes: usize,
        ckp_every: usize,
    ) -> std::collections::BTreeSet<dmis_graph::NodeId> {
        let io: Arc<dyn StorageIo> = Arc::new(store.clone());
        let mut engine = Engine::builder().seed(5).build_unsharded();
        let mut wal = WriteAheadLog::create(Arc::clone(&io)).unwrap();
        Checkpoint::capture(&engine, 0).save(io.as_ref()).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut made = 0usize;
        while made < changes {
            let change = stream::random_change(engine.graph(), &ChurnConfig::default(), &mut rng)
                .unwrap_or(TopologyChange::InsertNode {
                    id: engine.graph().peek_next_id(),
                    edges: vec![],
                });
            let batch = [change];
            wal.append(&batch).unwrap();
            engine.apply_batch(&batch).unwrap();
            made += 1;
            if made.is_multiple_of(ckp_every) {
                Checkpoint::capture(&engine, wal.records_persisted())
                    .save(io.as_ref())
                    .unwrap();
            }
        }
        engine.mis()
    }

    #[test]
    fn recover_replays_the_suffix_to_the_twin_state() {
        let store = MemIo::new();
        let twin_mis = run_logged(&store, 60, 16);
        let recovered = recover(Arc::new(store)).unwrap();
        assert_eq!(recovered.engine.mis(), twin_mis);
        assert_eq!(recovered.checkpoint_seq, 48);
        assert_eq!(recovered.replayed, 12);
        assert_eq!(recovered.wal.records_persisted(), 60);
    }

    #[test]
    fn missing_checkpoint_is_a_loud_error() {
        let err = recover(Arc::new(MemIo::new())).unwrap_err();
        assert!(matches!(err, RecoverError::MissingCheckpoint));
        assert!(err.to_string().contains("no checkpoint"));
    }

    #[test]
    fn a_log_that_starts_after_the_checkpoint_is_a_loud_gap() {
        let store = MemIo::new();
        let _ = run_logged(&store, 60, 16);
        let log = store.read(super::super::WAL_FILE).unwrap();
        // An image older than the log's base: the one saved at record 0.
        let stale = Checkpoint::capture(&Engine::builder().seed(5).build_unsharded(), 0);
        store
            .write_atomic(super::super::CHECKPOINT_FILE, &stale.encode())
            .unwrap();
        let err = recover(Arc::new(store.clone())).unwrap_err();
        assert!(
            matches!(
                err,
                RecoverError::Gap {
                    checkpoint_seq: 0,
                    log_starts_at: 48
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("WAL gap"), "{err}");
        assert_eq!(store.read(super::super::WAL_FILE).unwrap(), log);
    }

    #[test]
    fn crash_during_logging_recovers_a_prefix_and_resumes() {
        // Learn the full log length, then crash a fresh run at a seeded
        // byte offset and prove recovery lands on a replayable state.
        // The probe checkpoints only at 0, like the crashed run below,
        // so no save retires any of its log.
        let probe = MemIo::new();
        let _ = run_logged(&probe, 40, usize::MAX);
        let full = probe.file_len(super::super::WAL_FILE).unwrap() as u64;

        for seed in 1..=5u64 {
            let budget = super::super::splitmix64(seed) % full;
            let store = MemIo::new();
            let faulty: Arc<dyn StorageIo> = Arc::new(FaultIo::crash_after(store.clone(), budget));
            // Re-drive the same deterministic run until the crash fires.
            let mut engine = Engine::builder().seed(5).build_unsharded();
            let mut wal = match WriteAheadLog::create(Arc::clone(&faulty)) {
                Ok(wal) => wal,
                Err(_) => continue, // crashed before the log even existed
            };
            let _ = Checkpoint::capture(&engine, 0).save(faulty.as_ref());
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..40 {
                let change =
                    stream::random_change(engine.graph(), &ChurnConfig::default(), &mut rng)
                        .unwrap_or(TopologyChange::InsertNode {
                            id: engine.graph().peek_next_id(),
                            edges: vec![],
                        });
                let batch = [change];
                if wal.append(&batch).is_err() {
                    break; // crashed: the unlogged window is lost
                }
                engine.apply_batch(&batch).unwrap();
            }
            // The surviving bytes may or may not include a checkpoint
            // (the initial save competes with the byte budget too).
            match recover(Arc::new(store.fork())) {
                Ok(recovered) => {
                    // Re-derive the twin at the recovered record count.
                    let n = recovered.wal.records_persisted() as usize;
                    let twin_store = MemIo::new();
                    let twin_mis = run_logged(&twin_store, n.max(1), usize::MAX);
                    if n > 0 {
                        assert_eq!(recovered.engine.mis(), twin_mis, "seed={seed}");
                    }
                }
                Err(RecoverError::MissingCheckpoint) => {} // crashed too early
                Err(e) => panic!("seed={seed}: unexpected recovery failure: {e}"),
            }
        }
    }
}
