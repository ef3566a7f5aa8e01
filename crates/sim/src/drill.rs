//! Crash-restart drill: kill a durable serving writer at a seeded byte,
//! recover, resume the stream, and prove readers never observed an
//! epoch the durable history cannot honor.
//!
//! The drill is the deployment-shaped closure of the durability story
//! (`dmis-core::durability`): a [`ServeRun`] writer streams churn with
//! log-then-publish persistence while reader threads sample the
//! snapshot channel; a [`FaultIo`] byte budget kills the writer
//! mid-stream — inside a WAL append (torn final record and all), a
//! checkpoint image write, or the log rewrite that follows the image;
//! [`recover`] rebuilds the
//! engine from the last checkpoint plus the surviving WAL suffix; a
//! resumed [`ServeRun`] replays the *unpersisted* remainder of the
//! stream on the recovered engine. The invariants asserted:
//!
//! - the crashed writer dies with [`GraphError::PersistFailed`] — the
//!   unlogged window is rejected, never half-applied;
//! - the recovered epoch **equals** the epoch the crashed run's readers
//!   last observed: every published epoch had its record persisted
//!   first, so recovery re-derives exactly the published prefix —
//!   readers resuming on the recovered engine never see a regressed
//!   (or torn) epoch;
//! - the resumed run finishes **bit-identical** to an uncrashed twin —
//!   same MIS, same RNG position, same final epoch — because the
//!   replayed prefix plus the resumed suffix *is* the twin's history.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmis_core::durability::{recover, splitmix64, FaultIo, MemIo, StorageIo};
use dmis_core::{DynamicMis, FlushPolicy, IngestSession, MisReader};
use dmis_graph::stream::{self, ChurnConfig};
use dmis_graph::{generators, DynGraph, GraphError, TopologyChange};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::serve::ServeRun;
use crate::RunConfig;

/// Stream length of one drill; long enough that every seeded budget
/// lands mid-stream with both a durable checkpoint behind it and
/// unpersisted changes ahead of it.
const STREAM_LEN: usize = 160;
/// Checkpoint cadence (in flushes) of the drilled writer.
const CKP_EVERY: usize = 16;
/// Engine priority seed; fixed so the drill seed varies only the churn
/// and the crash point.
const ENGINE_SEED: u64 = 12;

/// What one [`crash_restart_drill`] proved, for the report line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrillReport {
    /// The drill seed (churn stream + crash byte budget).
    pub seed: u64,
    /// Stream changes generated (one flush each: watermark 1).
    pub stream_len: usize,
    /// The [`FaultIo`] byte budget the writer crashed under.
    pub crash_budget: u64,
    /// Epoch the crashed run's readers last observed — flushes that
    /// persisted *and* published before the crash.
    pub crashed_epoch: u64,
    /// WAL sequence the recovery checkpoint anchored at.
    pub checkpoint_seq: u64,
    /// WAL records replayed on top of that checkpoint.
    pub replayed: usize,
    /// Flushes the resumed run performed to finish the stream.
    pub resumed_flushes: usize,
    /// The final epoch both the twin and the resumed run landed on.
    pub final_epoch: u64,
}

/// Generates the drill's base graph and a valid `STREAM_LEN`-change
/// churn sequence (validated against a shadow graph; falls back to an
/// isolated node insert when the churn config has no legal move).
fn drill_stream(seed: u64) -> (DynGraph, Vec<TopologyChange>) {
    let churn = ChurnConfig {
        edge_insert: 0.3,
        edge_delete: 0.25,
        node_insert: 0.25,
        node_delete: 0.2,
        max_new_degree: 4,
    };
    let mut rng = StdRng::seed_from_u64(0xD211 ^ seed);
    let (g, _) = generators::erdos_renyi(32, 0.15, &mut rng);
    let mut shadow = g.clone();
    let mut out = Vec::new();
    while out.len() < STREAM_LEN {
        let change = stream::random_change(&shadow, &churn, &mut rng).unwrap_or(
            TopologyChange::InsertNode {
                id: shadow.peek_next_id(),
                edges: vec![],
            },
        );
        change.apply(&mut shadow).expect("valid against shadow");
        out.push(change);
    }
    (g, out)
}

/// A [`StorageIo`] over a [`MemIo`] that counts the bytes handed to
/// its writes: the bytes a [`FaultIo`] budget pays for.
#[derive(Debug, Default)]
struct CountingIo {
    inner: MemIo,
    written: AtomicU64,
}

impl CountingIo {
    fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    fn count(&self, bytes: &[u8]) {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }
}

impl StorageIo for CountingIo {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.count(bytes);
        self.inner.write_atomic(name, bytes)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.count(bytes);
        self.inner.append(name, bytes)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
}

/// A durable watermark-1 serving run over `g` on `io`.
fn durable_run(g: DynGraph, readers: usize, io: Arc<dyn StorageIo>) -> ServeRun {
    RunConfig::new(g)
        .policy(FlushPolicy::Depth(1))
        .seed(ENGINE_SEED)
        .readers(readers)
        .probes(4)
        .serve()
        .with_durability(io, CKP_EVERY)
        .expect("bootstrap storage is healthy")
}

/// Runs one crash-restart drill at `seed` and asserts the recovery
/// invariants (see the module docs); returns the measured report.
///
/// # Panics
///
/// Panics if any invariant fails — the drill *is* the assertion; CI
/// sweeps it over `DMIS_CRASH_SEED` values.
pub fn crash_restart_drill(seed: u64) -> DrillReport {
    let (g, stream) = drill_stream(seed);

    // The uncrashed twin: same engine, same stream, counted storage. The
    // bytes it writes to bootstrap and in total bound the crash budget;
    // its final state is the ground truth the recovered run must
    // reproduce.
    let counted = Arc::new(CountingIo::default());
    let mut twin = durable_run(g.clone(), 1, Arc::clone(&counted) as Arc<dyn StorageIo>);
    let bootstrap_bytes = counted.written();
    let twin_report = twin.run(&stream).expect("fault-free twin");
    assert_eq!(
        twin_report.flushes, STREAM_LEN,
        "watermark 1: flush per change"
    );
    let total_bytes = counted.written();
    assert!(
        total_bytes - bootstrap_bytes >= 2,
        "seed={seed}: the stream writes past the bootstrap"
    );

    // The crashed writer: identical run, but storage dies after a
    // seeded byte budget strictly between the bootstrap's bytes and the
    // twin's total — always after the bootstrap and before the last
    // write, so the writer must fail with the persistence error
    // mid-stream.
    let store = MemIo::new();
    let crash_budget = bootstrap_bytes + 1 + splitmix64(seed) % (total_bytes - bootstrap_bytes - 1);
    let mut run = durable_run(
        g,
        2,
        Arc::new(FaultIo::crash_after(store.clone(), crash_budget)),
    );
    let crash = run.run(&stream);
    assert_eq!(
        crash.expect_err("the budget is smaller than the twin's writes"),
        GraphError::PersistFailed,
        "seed={seed}: a crashed writer rejects the unlogged window"
    );
    let crashed_epoch = run.reader().epoch();

    // Recovery on the surviving bytes (shared with the dead FaultIo):
    // checkpoint, truncated log, replayed suffix.
    let recovered = recover(Arc::new(store.clone())).expect("recoverable store");
    let recovered_epoch = recovered.checkpoint_seq + recovered.replayed as u64;
    assert_eq!(
        recovered.engine.durability_meta().epoch,
        Some(recovered_epoch),
        "seed={seed}: replay epoch arithmetic"
    );
    assert_eq!(
        recovered_epoch, crashed_epoch,
        "seed={seed}: log-then-publish means recovery re-derives exactly \
         the prefix the readers were served — no regression, no invention"
    );

    // Resume: the recovered engine picks the stream back up at the
    // first unpersisted change (one record per change, so the durable
    // record count *is* the resume index).
    let resume_at = recovered.wal.records_persisted() as usize;
    let DrillRecovered { session, reader } = reattach(recovered.engine);
    let mut resumed = ServeRun::from_parts(session, reader, 2, 4).resume_durability(
        recovered.wal,
        Arc::new(store),
        CKP_EVERY,
    );
    let resumed_report = resumed.run(&stream[resume_at..]).expect("healthy resume");
    assert_eq!(resumed_report.epoch_regressions, 0, "seed={seed}");
    assert_eq!(
        resumed_report.final_epoch, twin_report.final_epoch,
        "seed={seed}: resumed epoch catches the twin exactly"
    );
    assert_eq!(
        resumed.engine().mis(),
        twin.engine().mis(),
        "seed={seed}: crash + recover + resume is bit-identical to never crashing"
    );
    assert_eq!(
        resumed.engine().durability_meta(),
        twin.engine().durability_meta(),
        "seed={seed}: layout, RNG position, and epoch all converge"
    );

    DrillReport {
        seed,
        stream_len: stream.len(),
        crash_budget,
        crashed_epoch,
        checkpoint_seq: recovered.checkpoint_seq,
        replayed: recovered.replayed,
        resumed_flushes: resumed_report.flushes,
        final_epoch: resumed_report.final_epoch,
    }
}

/// A recovered engine re-wrapped for serving.
struct DrillRecovered {
    session: IngestSession<Box<dyn DynamicMis + Send>>,
    reader: MisReader,
}

/// Attaches a fresh reader handle (at the *restored* epoch — the
/// publication channel was re-installed by recovery) and a watermark-1
/// session around a recovered engine.
fn reattach(mut engine: Box<dyn DynamicMis + Send>) -> DrillRecovered {
    let reader = engine.reader();
    DrillRecovered {
        session: IngestSession::with_policy(engine, FlushPolicy::Depth(1)),
        reader,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_drill_passes_on_a_fixed_seed() {
        let report = crash_restart_drill(3);
        assert_eq!(report.stream_len, STREAM_LEN);
        assert_eq!(report.final_epoch, STREAM_LEN as u64);
        assert_eq!(
            report.crashed_epoch,
            report.checkpoint_seq + report.replayed as u64
        );
        assert_eq!(
            report.resumed_flushes,
            STREAM_LEN - report.crashed_epoch as usize
        );
    }
}
