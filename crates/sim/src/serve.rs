//! Serving harness: concurrent snapshot reads as a simulator axis.
//!
//! [`ServeRun`] wires `dmis-core`'s epoch-versioned read path
//! ([`dmis_core::MisReader`]) into a deployment-shaped experiment: one
//! writer thread replays an ingest stream through a coalescing queue
//! (flushing one merged batch per [`dmis_core::FlushPolicy`] window,
//! exactly as [`crate::IngestRun`] does) while R reader threads hammer
//! the published snapshots. The run meters both sides of the concurrent
//! read path —
//!
//! - **reads** — snapshot acquisitions plus membership probes the
//!   readers completed, and their aggregate throughput;
//! - **staleness** — how many epochs behind the writer an acquired
//!   snapshot was at the moment it was acquired (0 means the reader
//!   held the newest published state);
//! - **epoch regressions** — samples where a reader observed an epoch
//!   older than its previous sample. The snapshot channel promises this
//!   is impossible; the harness counts rather than asserts so the
//!   serving report doubles as a cheap production-shaped invariant
//!   check (the consistency *proof* lives in
//!   `crates/core/tests/snapshot_consistency.rs`);
//! - **update latency** — p50/p99 session-clock time of the writer's
//!   flush (merged-batch apply + publication), the cost the read path
//!   adds to the write path being bounded by the bench gate;
//! - **queue delay** — p50/p99 arrival→flush wait over the stream's
//!   pushes, the ingestion-latency SLO column.
//!
//! Epoch arithmetic is exact: the engine publishes once per settle and
//! a flush is one settle, so after F flushes the writer is at epoch F
//! and every reader's final sample observes an epoch in `0..=F`.
//!
//! A run becomes **durable** with [`ServeRun::with_durability`]: every
//! flushed window is appended to a write-ahead log *before* it is
//! applied (log-then-publish), and a checkpoint image is cut every N
//! flushes, so a crashed writer recovers to a state at or ahead of
//! anything its readers observed — the drill proving that end to end is
//! [`crate::crash_restart_drill`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmis_core::durability::{Checkpoint, StorageIo, WriteAheadLog};
use dmis_core::{DynamicMis, IngestReceipt, IngestSession, MisReader};
use dmis_graph::{GraphError, NodeId, TopologyChange};

/// What one reader thread tallied over its sampling loop.
struct ReaderTally {
    reads: u64,
    samples: u64,
    staleness_sum: u64,
    staleness_max: u64,
    regressions: u64,
}

/// A metered serving deployment: a policy-flushed writer in front of
/// any [`DynamicMis`] engine, with R concurrent [`MisReader`] threads.
/// Boot one through [`crate::RunConfig::serve`].
///
/// # Example
///
/// ```
/// use dmis_core::FlushPolicy;
/// use dmis_graph::{generators, ShardLayout, TopologyChange};
/// use dmis_sim::RunConfig;
///
/// let (g, ids) = generators::cycle(16);
/// let stream: Vec<_> = ids
///     .windows(2)
///     .map(|w| TopologyChange::DeleteEdge(w[0], w[1]))
///     .collect();
/// let mut run = RunConfig::new(g)
///     .layout(ShardLayout::striped(2))
///     .policy(FlushPolicy::Depth(4))
///     .seed(7)
///     .readers(2)
///     .probes(8)
///     .serve();
/// let report = run.run(&stream)?;
/// assert_eq!(report.epoch_regressions, 0);
/// assert_eq!(report.final_epoch, report.flushes as u64);
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct ServeRun {
    session: IngestSession<Box<dyn DynamicMis + Send>>,
    reader: MisReader,
    readers: usize,
    probes: usize,
    probe_space: u64,
    durability: Option<Durability>,
}

/// Checkpoint cadence for a durable serving run: where the images go,
/// how often they are cut, and how many WAL records the attached log
/// holds (the `wal_seq` stamped into each image).
#[derive(Debug)]
struct Durability {
    io: Arc<dyn StorageIo>,
    every: usize,
    records: u64,
}

/// The metered outcome of one [`ServeRun::run`] window.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Merged-batch windows the writer flushed (including the final
    /// partial window, when the stream does not end on a policy
    /// boundary).
    pub flushes: usize,
    /// Stream changes the flushed windows applied (post-coalescing).
    pub applied: usize,
    /// The writer's epoch after the last flush: `flushes`, since the
    /// engine publishes exactly once per settle.
    pub final_epoch: u64,
    /// Snapshot acquisitions + membership probes across all readers.
    pub reads_total: u64,
    /// `reads_total` over the run's wall-clock span.
    pub reads_per_sec: f64,
    /// Mean epochs-behind-writer over all reader samples.
    pub staleness_mean: f64,
    /// Worst epochs-behind-writer any sample observed.
    pub staleness_max: u64,
    /// Samples whose epoch was older than the same reader's previous
    /// sample. Always 0 unless the snapshot channel is broken.
    pub epoch_regressions: u64,
    /// Median session-clock nanoseconds per writer flush.
    pub update_p50_ns: u64,
    /// 99th-percentile session-clock nanoseconds per writer flush.
    pub update_p99_ns: u64,
    /// Median arrival→flush wait over the stream's pushes — the
    /// ingestion-latency SLO column.
    pub queue_delay_p50: Duration,
    /// 99th-percentile arrival→flush wait over the stream's pushes.
    pub queue_delay_p99: Duration,
}

impl ServeRun {
    /// Wraps a change-ingestion session with its serving handle and the
    /// reader axes ([`crate::RunConfig::serve`] assembles these).
    #[must_use]
    pub fn from_parts(
        session: IngestSession<Box<dyn DynamicMis + Send>>,
        reader: MisReader,
        readers: usize,
        probes: usize,
    ) -> Self {
        let probe_space = session.engine().graph().peek_next_id().index().max(1);
        ServeRun {
            session,
            reader,
            readers,
            probes,
            probe_space,
            durability: None,
        }
    }

    /// Makes the run durable from scratch: creates a fresh
    /// [`WriteAheadLog`] on `io`, saves an initial [`Checkpoint`] of the
    /// engine's current state, and wires the log into the writer's flush
    /// path (every flush persists its coalesced window *before* applying
    /// it — log-then-publish). Thereafter a checkpoint image is cut
    /// every `every` flushes, so recovery replays at most `every`
    /// records.
    ///
    /// # Errors
    ///
    /// Propagates storage failures from the log creation or the initial
    /// checkpoint save.
    pub fn with_durability(
        mut self,
        io: Arc<dyn StorageIo>,
        every: usize,
    ) -> std::io::Result<Self> {
        let wal = WriteAheadLog::create(Arc::clone(&io))?;
        Checkpoint::capture(&**self.session.engine(), 0).save(io.as_ref())?;
        self.session.set_wal_sink(Box::new(wal));
        self.durability = Some(Durability {
            io,
            every: every.max(1),
            records: 0,
        });
        Ok(self)
    }

    /// Makes the run durable on an *existing* log — the resume half of
    /// the crash-restart story: after [`dmis_core::durability::recover`]
    /// rebuilt the engine, hand its truncated-and-reopened log back in
    /// and streaming continues exactly where the durable prefix ended.
    #[must_use]
    pub fn resume_durability(
        mut self,
        wal: WriteAheadLog,
        io: Arc<dyn StorageIo>,
        every: usize,
    ) -> Self {
        let records = wal.records_persisted();
        self.session.set_wal_sink(Box::new(wal));
        self.durability = Some(Durability {
            io,
            every: every.max(1),
            records,
        });
        self
    }

    /// The serving handle. Clones of it are what `run` hands to reader
    /// threads; it stays valid (frozen at the last published epoch)
    /// after the run returns.
    #[must_use]
    pub fn reader(&self) -> MisReader {
        self.reader.clone()
    }

    /// The underlying engine.
    #[must_use]
    pub fn engine(&self) -> &dyn DynamicMis {
        &**self.session.engine()
    }

    /// Replays `stream` through the policy-flushed queue on the calling
    /// thread while the configured reader threads sample the snapshot
    /// channel, each sample acquiring one snapshot and making the
    /// configured number of membership probes against it.
    ///
    /// Readers run until the writer finishes, and always complete at
    /// least one sample, so the report is meaningful even for a stream
    /// shorter than one flush window.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GraphError`] from a flush; reader threads
    /// are joined before the error returns.
    pub fn run(&mut self, stream: &[TopologyChange]) -> Result<ServeReport, GraphError> {
        let done = AtomicBool::new(false);
        let started = Instant::now();
        let mut flush_ns: Vec<u64> = Vec::new();
        let mut delays: Vec<Duration> = Vec::new();
        let mut applied = 0usize;
        let mut flushes = 0usize;

        let (tallies, write_result) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.readers)
                .map(|r| {
                    let reader = self.reader.clone();
                    let done = &done;
                    let probes = self.probes;
                    let probe_space = self.probe_space;
                    s.spawn(move || sample_loop(&reader, done, probes, probe_space, r as u64))
                })
                .collect();

            let mut meter = |receipt: &IngestReceipt| {
                flushes += 1;
                applied += receipt.applied();
                let ns = receipt.queue_delay().settle().as_nanos();
                flush_ns.push(ns.min(u128::from(u64::MAX)) as u64);
                delays.extend_from_slice(receipt.queue_delay().waits());
            };
            let mut result = Ok(());
            for change in stream {
                match self.session.push(change.clone()) {
                    Ok(Some(receipt)) => {
                        meter(&receipt);
                        result = self.checkpoint_if_due();
                        if result.is_err() {
                            break;
                        }
                    }
                    Ok(None) => {}
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            if result.is_ok() && self.session.queue_depth() > 0 {
                match self.session.flush() {
                    Ok(receipt) => {
                        meter(&receipt);
                        result = self.checkpoint_if_due();
                    }
                    Err(e) => result = Err(e),
                }
            }
            done.store(true, Ordering::Release);
            let tallies: Vec<ReaderTally> = handles
                .into_iter()
                .map(|h| h.join().expect("reader threads do not panic"))
                .collect();
            (tallies, result)
        });
        write_result?;
        let elapsed = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

        let reads_total: u64 = tallies.iter().map(|t| t.reads).sum();
        let samples: u64 = tallies.iter().map(|t| t.samples).sum();
        let staleness_sum: u64 = tallies.iter().map(|t| t.staleness_sum).sum();
        flush_ns.sort_unstable();
        delays.sort_unstable();
        Ok(ServeReport {
            flushes,
            applied,
            final_epoch: self.reader.epoch(),
            reads_total,
            reads_per_sec: reads_total as f64 / elapsed,
            staleness_mean: if samples == 0 {
                0.0
            } else {
                staleness_sum as f64 / samples as f64
            },
            staleness_max: tallies.iter().map(|t| t.staleness_max).max().unwrap_or(0),
            epoch_regressions: tallies.iter().map(|t| t.regressions).sum(),
            update_p50_ns: percentile(&flush_ns, 50),
            update_p99_ns: percentile(&flush_ns, 99),
            queue_delay_p50: percentile_d(&delays, 50),
            queue_delay_p99: percentile_d(&delays, 99),
        })
    }

    /// Bumps the durable-record counter for the flush that just
    /// persisted (the session's WAL sink appended exactly one record)
    /// and cuts a checkpoint image when the cadence comes due. A no-op
    /// for non-durable runs.
    fn checkpoint_if_due(&mut self) -> Result<(), GraphError> {
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        d.records += 1;
        if !d.records.is_multiple_of(d.every as u64) {
            return Ok(());
        }
        Checkpoint::capture(&**self.session.engine(), d.records)
            .save(d.io.as_ref())
            .map_err(|_| GraphError::PersistFailed)
    }
}

/// One reader thread's loop: sample until the writer is done, and at
/// least once. A sample is one snapshot acquisition plus `probes`
/// membership probes at xorshift-generated ids (any id is a valid probe
/// — membership is total).
fn sample_loop(
    reader: &MisReader,
    done: &AtomicBool,
    probes: usize,
    probe_space: u64,
    salt: u64,
) -> ReaderTally {
    let mut tally = ReaderTally {
        reads: 0,
        samples: 0,
        staleness_sum: 0,
        staleness_max: 0,
        regressions: 0,
    };
    let mut x =
        0x9e37_79b9_7f4a_7c15_u64.wrapping_add(salt.wrapping_mul(0xff51_afd7_ed55_8ccd)) | 1;
    let mut last_epoch = 0u64;
    let mut finished = false;
    while !finished {
        finished = done.load(Ordering::Acquire);
        let snap = reader.snapshot();
        let behind = reader.epoch().saturating_sub(snap.epoch());
        if snap.epoch() < last_epoch {
            tally.regressions += 1;
        }
        last_epoch = snap.epoch();
        let mut in_mis = 0usize;
        for _ in 0..probes {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if snap.contains(NodeId(x % probe_space)) {
                in_mis += 1;
            }
        }
        // A consistency smoke (probe ids may repeat, so only the empty
        // case is duplicate-proof): an empty snapshot has no members.
        assert!(snap.mis_len() > 0 || in_mis == 0, "torn snapshot");
        tally.reads += probes as u64 + 1;
        tally.samples += 1;
        tally.staleness_sum += behind;
        tally.staleness_max = tally.staleness_max.max(behind);
    }
    tally
}

/// Nearest-rank percentile of an ascending-sorted slice; 0 when empty.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Nearest-rank percentile over durations; zero when empty.
fn percentile_d(sorted: &[Duration], p: usize) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunConfig;
    use dmis_core::FlushPolicy;
    use dmis_graph::{generators, ShardLayout};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn serving_run_meters_reads_and_stays_consistent() {
        let mut rng = StdRng::seed_from_u64(11);
        let (g, _ids) = generators::erdos_renyi(64, 0.1, &mut rng);
        let pool = dmis_graph::stream::random_pair_pool(&g, 48, &mut rng);
        let stream = dmis_graph::stream::flapping_stream(&g, &pool, 200, false, &mut rng);
        let mut run = RunConfig::new(g)
            .layout(ShardLayout::striped(2))
            .policy(FlushPolicy::Depth(4))
            .seed(3)
            .readers(2)
            .probes(16)
            .serve();
        let report = run.run(&stream).unwrap();
        assert_eq!(report.flushes, 50);
        assert_eq!(report.final_epoch, 50);
        assert_eq!(report.epoch_regressions, 0);
        assert!(report.reads_total >= 2 * 17, "both readers sampled");
        assert!(report.reads_per_sec > 0.0);
        assert!(report.update_p50_ns <= report.update_p99_ns);
        assert!(report.queue_delay_p50 <= report.queue_delay_p99);
    }

    #[test]
    fn final_snapshot_matches_quiesced_engine() {
        let (g, ids) = generators::cycle(32);
        let stream: Vec<_> = ids
            .windows(2)
            .step_by(2)
            .map(|w| TopologyChange::DeleteEdge(w[0], w[1]))
            .collect();
        let mut run = RunConfig::new(g)
            .policy(FlushPolicy::Depth(3))
            .seed(9)
            .probes(4)
            .serve();
        let report = run.run(&stream).unwrap();
        assert_eq!(report.applied, stream.len());
        let snap = run.reader().snapshot();
        assert_eq!(snap.epoch(), report.final_epoch);
        assert_eq!(snap.mis_len(), run.engine().mis_len());
        for &v in &ids {
            assert_eq!(Some(snap.contains(v)), run.engine().is_in_mis(v));
        }
    }

    #[test]
    fn a_durable_run_recovers_to_the_state_readers_saw() {
        use dmis_core::durability::{recover, MemIo};

        let mut rng = StdRng::seed_from_u64(21);
        let (g, _ids) = generators::erdos_renyi(48, 0.12, &mut rng);
        let pool = dmis_graph::stream::random_pair_pool(&g, 32, &mut rng);
        let stream = dmis_graph::stream::flapping_stream(&g, &pool, 120, false, &mut rng);
        let store = MemIo::new();
        let mut run = RunConfig::new(g)
            .layout(ShardLayout::striped(2))
            .policy(FlushPolicy::Depth(4))
            .seed(6)
            .probes(4)
            .serve()
            .with_durability(Arc::new(store.clone()), 8)
            .unwrap();
        let report = run.run(&stream).unwrap();
        assert_eq!(report.flushes, 30);

        let recovered = recover(Arc::new(store)).unwrap();
        assert_eq!(recovered.checkpoint_seq, 24, "cadence-8 checkpoint");
        assert_eq!(recovered.replayed, 6, "only the suffix replays");
        assert_eq!(recovered.engine.mis(), run.engine().mis());
        assert_eq!(
            recovered.engine.durability_meta().epoch,
            Some(report.final_epoch),
            "recovery lands on the epoch the readers were being served"
        );
    }

    #[test]
    fn empty_stream_reports_the_attach_epoch() {
        let (g, _) = generators::path(8);
        let mut run = RunConfig::new(g)
            .policy(FlushPolicy::Depth(2))
            .seed(1)
            .readers(2)
            .probes(4)
            .serve();
        let report = run.run(&[]).unwrap();
        assert_eq!(report.flushes, 0);
        assert_eq!(report.final_epoch, 0);
        assert_eq!(report.epoch_regressions, 0);
        assert!(report.reads_total > 0, "readers sample at least once");
    }
}
