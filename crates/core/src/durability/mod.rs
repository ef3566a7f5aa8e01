//! Durability & self-healing: checkpointing, write-ahead logging, fault
//! injection, and in-memory repair.
//!
//! The engines in this crate are deterministic functions of `(graph, π,
//! RNG position)` — the greedy MIS is the *unique* fixed point for a
//! graph and priority assignment, and every receipt counter is a pure
//! consequence of the settle order. Durability exploits that directly:
//!
//! - [`Checkpoint`] holds the full engine state (adjacency, priorities,
//!   membership witness, RNG seed + draw count, publisher epoch) as a
//!   checksummed binary image, written in one pass straight from the
//!   engine's ascending id lists with the adjacency and the witness
//!   gap-coded as varints (about 19 bytes per node on G(10⁵, 4·10⁵));
//!   [`Checkpoint::restore`] rebuilds a *bit-identical* engine from it,
//!   fast-forwarding the vendored RNG by the recorded draw count so
//!   future [`insert_node`](crate::DynamicMis::insert_node) calls draw
//!   the same keys the uncrashed twin would have drawn.
//! - [`WriteAheadLog`] appends every flushed change window as a
//!   length-prefixed, CRC-framed record *before* the engine applies it
//!   (log-then-publish, wired through [`WalSink`] into
//!   [`IngestSession::flush`](crate::IngestSession::flush)). Its header
//!   carries the sequence number of its first record, and
//!   [`Checkpoint::save`] rewrites it, once the image has landed, to hold
//!   only the records the image does not reflect: the log, and so the
//!   work of a recovery, spans one checkpoint interval, not the uptime.
//! - [`recover`] loads the last valid checkpoint, scans the log and
//!   truncates it to the last whole record, refuses a log that starts
//!   after the checkpoint ([`RecoverError::Gap`]), and replays the
//!   surviving suffix through
//!   [`apply_batch`](crate::DynamicMis::apply_batch).
//!   Replay determinism makes the result checkable: the recovered MIS,
//!   flip log, receipts, and reader epoch equal the uncrashed twin's.
//! - [`StorageIo`] abstracts the byte store, mirroring the
//!   [`Clock`](crate::Clock) pattern: [`RealIo`] (directory-backed,
//!   fsync + atomic rename + directory fsync) in production, [`MemIo`]
//!   in tests, and [`FaultIo`] injecting torn appends and
//!   crash-at-byte-`k` on a seeded schedule.
//! - [`RepairReport`] is returned by
//!   [`verify_and_repair`](crate::DynamicMis::verify_and_repair), the
//!   *in-memory* healing tier: a full truth sweep over the counters and
//!   membership bits followed by the template's own self-stabilizing
//!   settle drain — O(k) settle work for k corrupted nodes instead of a
//!   from-scratch rebuild.
//!
//! # Failure model
//!
//! The WAL and checkpoint formats assume *crash* faults (lost or torn
//! suffixes) and *detectable* corruption (CRC mismatch): a torn record
//! truncates the log to the preceding record boundary, so recovery
//! always lands on a **prefix state** of the uncrashed history — never
//! an invented one. Undetectable in-RAM corruption (bit flips in live
//! counters or membership words) is the repair tier's job instead.

mod checkpoint;
mod codec;
mod io;
mod recover;
mod wal;

pub use checkpoint::Checkpoint;
pub use codec::CodecError;
pub use io::{FaultIo, MemIo, RealIo, StorageIo};
pub use recover::{recover, RecoverError, Recovered};
pub use wal::{WalRecord, WriteAheadLog};

use crate::UpdateReceipt;
use dmis_graph::TopologyChange;

/// File name of the checkpoint image within a [`StorageIo`] store.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// File name of the write-ahead log within a [`StorageIo`] store.
pub const WAL_FILE: &str = "wal.bin";

/// SplitMix64 — the stateless mixer used to derive deterministic fault
/// schedules (crash offsets, corruption positions) from a test seed.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which engine realization a checkpoint was captured from, so
/// [`Checkpoint::restore`] can rebuild the same flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineFlavor {
    /// [`crate::MisEngine`] settling through one drain.
    Unsharded,
    /// [`crate::MisEngine`] settling through the K-shard epoch schedule
    /// ([`crate::sharding`]).
    Sharded,
}

/// Everything beyond the graph and priorities that
/// [`Checkpoint::capture`] must persist to rebuild an engine
/// bit-identically: the realization, its shard layout, the RNG stream
/// position, and the published epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityMeta {
    /// The engine realization the state was captured from.
    pub flavor: EngineFlavor,
    /// Shard count K (1 for the unsharded engine).
    pub shards: usize,
    /// Block length of the range partition (1 for the unsharded engine).
    pub block: u64,
    /// The seed the engine's RNG was constructed from.
    pub seed: u64,
    /// Number of priority keys drawn from the RNG since construction.
    /// Restore replays exactly this many draws so the stream position —
    /// and therefore every *future* draw — matches the original.
    pub draws: u64,
    /// The published snapshot epoch, or `None` if no reader was ever
    /// attached. Restoring at this epoch guarantees readers never
    /// observe a regressed epoch across a crash–recover cycle.
    pub epoch: Option<u64>,
}

/// Outcome of [`verify_and_repair`](crate::DynamicMis::verify_and_repair):
/// what the truth sweep found and what the healing drain cost.
///
/// The sweep recomputes every node's lower-priority-MIS-neighbor count
/// from the adjacency and the current membership, fixes divergent
/// stored counters in place, and seeds the standard settle drain with
/// every violated node. Because truthful counters plus the π-ordered
/// drain converge to the unique greedy fixed point, the healed output
/// is exactly the state an uncorrupted engine would hold — checked
/// against a twin in this crate's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairReport {
    scanned: usize,
    counters_fixed: usize,
    memberships_violated: usize,
    adjustments: usize,
    heap_pops: usize,
    counter_updates: usize,
}

impl RepairReport {
    /// A report for a sweep that found nothing to heal.
    pub(crate) fn clean(scanned: usize) -> Self {
        RepairReport {
            scanned,
            counters_fixed: 0,
            memberships_violated: 0,
            adjustments: 0,
            heap_pops: 0,
            counter_updates: 0,
        }
    }

    /// A report for a sweep that healed, carrying the settle drain's
    /// receipt counters.
    pub(crate) fn new(
        scanned: usize,
        counters_fixed: usize,
        memberships_violated: usize,
        receipt: &UpdateReceipt,
    ) -> Self {
        RepairReport {
            scanned,
            counters_fixed,
            memberships_violated,
            adjustments: receipt.adjustments(),
            heap_pops: receipt.heap_pops(),
            counter_updates: receipt.counter_updates(),
        }
    }

    /// `true` if the sweep found no corrupted counter or membership bit.
    /// A clean pass performs no settle work and publishes no epoch.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.counters_fixed == 0 && self.memberships_violated == 0
    }

    /// Nodes examined by the truth sweep (every live node).
    #[must_use]
    pub fn scanned(&self) -> usize {
        self.scanned
    }

    /// Stored neighbor counters that diverged from the recomputed truth
    /// and were fixed in place.
    #[must_use]
    pub fn counters_fixed(&self) -> usize {
        self.counters_fixed
    }

    /// Nodes whose membership bit violated the MIS invariant against
    /// the truthful counter (`v ∈ M ⟺ no lower-priority MIS neighbor`).
    #[must_use]
    pub fn memberships_violated(&self) -> usize {
        self.memberships_violated
    }

    /// Nodes whose final output changed during healing — the repair
    /// analogue of the paper's adjustment complexity.
    #[must_use]
    pub fn adjustments(&self) -> usize {
        self.adjustments
    }

    /// Settle pops performed by the healing drain — the O(k) work term
    /// for k corrupted nodes (experiment E13's engine tier meters this
    /// against a from-scratch rebuild).
    #[must_use]
    pub fn heap_pops(&self) -> usize {
        self.heap_pops
    }

    /// Neighbor-counter updates performed, including the counters the
    /// sweep fixed directly.
    #[must_use]
    pub fn counter_updates(&self) -> usize {
        self.counter_updates
    }
}

/// A persistence hook for [`IngestSession`](crate::IngestSession): the
/// session hands every drained change window to the sink *before*
/// applying it to the engine, and fails the flush (consuming but not
/// applying the window) if the sink errors — so no published state can
/// ever be ahead of the log.
///
/// [`WriteAheadLog`] is the canonical implementation; tests substitute
/// failing sinks to pin the flush-side contract.
pub trait WalSink: std::fmt::Debug + Send {
    /// Durably records one flushed change window (possibly empty — the
    /// one-record-per-flush discipline is what keeps the log's record
    /// count equal to the engine's flush count, and therefore keeps
    /// replay's epoch arithmetic exact). Returns the record's sequence
    /// number.
    ///
    /// # Errors
    ///
    /// Any I/O error; the caller treats the window as consumed but
    /// neither logged nor applied.
    fn persist(&mut self, changes: &[TopologyChange]) -> std::io::Result<u64>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmis_graph::ChangeKind;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Known vector: splitmix64 of 0 with this constant set.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn repair_report_accessors() {
        let clean = RepairReport::clean(7);
        assert!(clean.is_clean());
        assert_eq!(clean.scanned(), 7);
        assert_eq!(clean.heap_pops(), 0);

        let receipt = UpdateReceipt::new(ChangeKind::EdgeInsert, vec![], 4, 9);
        let dirty = RepairReport::new(7, 2, 1, &receipt);
        assert!(!dirty.is_clean());
        assert_eq!(dirty.counters_fixed(), 2);
        assert_eq!(dirty.memberships_violated(), 1);
        assert_eq!(dirty.adjustments(), 0);
        assert_eq!(dirty.heap_pops(), 4);
        assert_eq!(dirty.counter_updates(), 9);
    }
}
