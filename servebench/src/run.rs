//! One measured run of one workload.
//!
//! A run sets the deployment up several times (`setup_s` is their
//! median), serves the change stream — an untimed warm-up prefix, a
//! timed closed segment, then an open loop at the workload's offered
//! rate — while one reader thread issues queries on a fixed schedule,
//! checks the outputs, and finally drops the writer and restores the
//! engine from its store. Everything goes through the library's public
//! functions. No engine uses worker threads, so the process runs the
//! writer and the reader and nothing else.

use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmis_core::durability::{
    self, Checkpoint, MemIo, RecoverError, StorageIo, WriteAheadLog, CHECKPOINT_FILE, WAL_FILE,
};
use dmis_core::{
    static_greedy, ChangeCoalescer, DynamicMis, Engine, EngineBuilder, FlushPolicy, IngestReceipt,
    IngestSession, MisReader, MisSnapshot,
};
use dmis_graph::{DynGraph, GraphError, NodeId, ShardLayout, TopologyChange};

use crate::inputs::{Inputs, Plan, Size, Spec};
use crate::sys::{self, now_ns};
use crate::trace::{self, maybe_span, span, Log, TracedEngine, TracedWal};

/// Reader queries are due every 200 µs, 5,000 a second. The reader is
/// paced and sleeps between queries: one looping flat out cut the
/// writer's throughput by up to 40% on a two-core host.
const READ_PERIOD_NS: u64 = 200_000;

/// Membership probes per query: the query shape `mis_serve` uses.
pub const PROBES: usize = 32;

/// Every this many queries the reader also recounts the snapshot's
/// members against its cached length, outside the timed window.
const RECOUNT_EVERY: u64 = 64;

/// One run's workload, seed and length, and where it may write.
#[derive(Debug, Clone)]
pub struct Config {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    /// Scratch directory inside the checkout; the durable store goes here.
    pub work_dir: PathBuf,
}

impl Config {
    pub fn plan(&self) -> Plan {
        self.spec.plan(self.seconds)
    }

    /// The engine for `graph`, its priorities seeded from the workload
    /// seed.
    fn engine(&self, graph: DynGraph) -> EngineBuilder {
        let builder = Engine::builder()
            .graph(graph)
            .seed(durability::splitmix64(self.seed))
            .capacity(self.spec.nodes);
        match self.spec.shards {
            Some(shards) => builder.sharding(ShardLayout::striped(shards)).threads(1),
            None => builder,
        }
    }
}

/// Work counts summed from the flush receipts: exact for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub pushes: u64,
    /// Flushes; on the durable workload also the WAL records written.
    pub flushes: u64,
    pub coalesced: u64,
    pub applied: u64,
    pub adjustments: u64,
    pub pops: u64,
    pub counter_updates: u64,
    pub handoffs: u64,
    pub epochs: u64,
    pub checkpoints: u64,
}

/// The paced reader's tallies.
#[derive(Debug, Default)]
pub struct Reads {
    /// Queries issued, warm-up included.
    pub queries: u64,
    /// Per query after the warm-up: one `snapshot()` plus the probes.
    pub service_ns: Vec<u64>,
    /// Per query after the warm-up: how late it started on its schedule.
    pub late_ns: Vec<u64>,
    /// Epochs published between a query's snapshot and its end.
    pub staleness_sum: u64,
    pub staleness_max: u64,
    /// Snapshots older than the one before; must stay 0.
    pub regressions: u64,
    /// Snapshots whose recounted members differ from their cached
    /// length; must stay 0.
    pub torn: u64,
}

/// The same flush windows replayed off the serving path.
#[derive(Debug, Clone, Copy)]
pub struct Twin {
    /// `apply_batch` time on a twin engine with no reader attached.
    pub engine_apply_ns: u64,
    /// `TopologyChange::apply` time on a bare `DynGraph`.
    pub graph_apply_ns: u64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub warmup_s: f64,
    pub closed_s: f64,
    pub open: OpenLoop,
    /// Threads of the process while the writer and the reader both ran.
    pub threads: u64,
    pub reads: Reads,
    pub counts: Counts,
    pub recover_s: Vec<f64>,
    pub replayed: u64,
    /// Records in the WAL the restart opened.
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub checkpoint_bytes: u64,
    /// Peak RSS above the pre-set-up baseline, read before the restart.
    pub peak_rss_bytes: u64,
    /// The store's location and the filesystem under it.
    pub store: String,
    pub store_fs: String,
    /// Pushes, flushes, checkpoints, reads and output checks attempted,
    /// and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Span logs of the writer and the reader (empty when untraced).
    pub writer_log: Log,
    pub reader_log: Log,
    /// Traced runs only.
    pub twin: Option<Twin>,
}

/// The durable workload's store: a directory in the checkout, written
/// with `RealIo`'s calls — a temp file and a rename per checkpoint, an
/// append-mode open and write per WAL record — minus its `sync_all`. The
/// checkout sits on a disk, where an fsync per 64-change flush would
/// wait on the device; device latency is outside this benchmark.
#[derive(Debug)]
struct UnsyncedIo {
    dir: PathBuf,
}

impl StorageIo for UnsyncedIo {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.dir.join(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.dir.join(name))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(name))?
            .write_all(bytes)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(self.dir.join(name))?
            .set_len(len)
    }
}

/// Where a deployment keeps its checkpoints, and its WAL when durable.
enum Store {
    Disk(Arc<UnsyncedIo>),
    Memory(MemIo),
}

impl Store {
    fn io(&self) -> Arc<dyn StorageIo> {
        match self {
            Store::Disk(io) => Arc::clone(io) as Arc<dyn StorageIo>,
            Store::Memory(mem) => Arc::new(mem.clone()),
        }
    }
}

/// A deployment ready to serve.
struct Deployment<E: DynamicMis> {
    session: IngestSession<E>,
    reader: MisReader,
    store: Store,
}

#[derive(Debug, Default)]
struct Checks {
    made: u64,
    failed: u64,
}

impl Checks {
    fn expect(&mut self, ok: bool) {
        self.made += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs the workload once, untraced or traced.
pub fn measure(cfg: &Config, inputs: &Inputs, traced: bool) -> Result<Outcome, String> {
    let plan = cfg.plan();
    if !inputs.cyclic && inputs.stream.len() < plan.total() {
        return Err(format!(
            "the stream holds {} changes; the run needs {}",
            inputs.stream.len(),
            plan.total()
        ));
    }
    let store_dir = cfg
        .work_dir
        .join(format!("store-{}-{}", cfg.spec.name, std::process::id()));
    let outcome = if traced {
        measure_with(cfg, inputs, TracedEngine::new, true, &store_dir)
    } else {
        measure_with(cfg, inputs, std::convert::identity, false, &store_dir)
    };
    // The store is scratch; one left behind only costs space in the
    // ignored work directory.
    let _ = std::fs::remove_dir_all(&store_dir);
    outcome
}

fn measure_with<E: DynamicMis>(
    cfg: &Config,
    inputs: &Inputs,
    wrap: fn(Box<dyn DynamicMis + Send>) -> E,
    traced: bool,
    store_dir: &Path,
) -> Result<Outcome, String> {
    let spec = &cfg.spec;
    let (baseline_rss, _) = sys::rss_bytes();
    sys::reset_peak_rss();
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut deployed = None;
    for rep in 0..spec.setups as u64 {
        drop(deployed.take()); // one deployment in memory at a time
        let t = Instant::now();
        let dep = maybe_span(traced, "setup", rep, || {
            deploy(cfg, inputs, wrap, traced, store_dir, rep)
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        deployed = Some(dep);
    }
    let mut dep = deployed.ok_or_else(|| "a workload sets up at least once".to_string())?;
    let (store_path, store_fs) = match dep.store {
        Store::Disk(_) => (store_dir.display().to_string(), sys::fs_type(store_dir)),
        Store::Memory(_) => ("memory".to_string(), "none".to_string()),
    };

    let served = serve(&mut dep, cfg, inputs, traced);
    let peak_rss_bytes = sys::rss_bytes().1.saturating_sub(baseline_rss);

    // The published epoch counts every flush, and the final MIS is the
    // greedy fixed point of the final graph under the engine's priorities.
    let mut checks = Checks::default();
    let mut counts = served.counts;
    let live_epoch = dep.reader.epoch();
    checks.expect(live_epoch == counts.flushes);
    let engine = dep.session.engine();
    let oracle = static_greedy::greedy_mis_dense(engine.graph(), engine.priorities());
    checks.expect(engine.mis_iter().eq(oracle.iter()));
    let live_mis: Vec<NodeId> = engine.mis_iter().collect();
    drop(oracle);

    // The in-memory workloads checkpoint once at shutdown, so every
    // workload restarts from a store.
    if let Store::Memory(mem) = &dep.store {
        let id = counts.checkpoints;
        counts.checkpoints += 1;
        checks.expect(checkpoint(traced, id, engine, counts.flushes, mem).is_ok());
    }
    let (wal_bytes, checkpoint_bytes) = match &dep.store {
        Store::Disk(_) => (
            file_len(&store_dir.join(WAL_FILE)),
            file_len(&store_dir.join(CHECKPOINT_FILE)),
        ),
        Store::Memory(mem) => (0, mem.file_len(CHECKPOINT_FILE).map_or(0, |n| n as u64)),
    };

    // Restart: drop the writer, then restore the engine from its store.
    let Deployment {
        session,
        reader,
        store,
    } = dep;
    drop(session);
    drop(reader);
    let mut recover_s = Vec::with_capacity(spec.recoveries);
    let (mut replayed, mut wal_records) = (0, 0);
    for rep in 0..spec.recoveries as u64 {
        let io = store.io();
        let t = Instant::now();
        let restored = if traced {
            recover_traced(io, rep)
        } else {
            durability::recover(io).map(|r| (r.engine, r.replayed, r.wal.records_persisted()))
        };
        recover_s.push(t.elapsed().as_secs_f64());
        match restored {
            Ok((engine, n, records)) => {
                (replayed, wal_records) = (n as u64, records);
                checks.expect(engine.mis_iter().eq(live_mis.iter().copied()));
                checks.expect(engine.durability_meta().epoch == Some(live_epoch));
            }
            Err(_) => checks.expect(false),
        }
    }
    drop(store);

    let twin = if traced {
        Some(replay_twin(cfg, inputs)?)
    } else {
        None
    };
    let reads = served.reads;
    let attempted =
        counts.pushes + counts.flushes + counts.checkpoints + reads.queries + checks.made;
    let failed = served.failures + reads.regressions + reads.torn + checks.failed;
    Ok(Outcome {
        setup_s,
        warmup_s: served.warmup_s,
        closed_s: served.closed_s,
        open: served.open,
        threads: served.threads,
        reads,
        counts,
        recover_s,
        replayed,
        wal_records,
        wal_bytes,
        checkpoint_bytes,
        peak_rss_bytes,
        store: store_path,
        store_fs,
        attempted,
        failed,
        writer_log: trace::take(),
        reader_log: served.reader_log,
        twin,
    })
}

/// From the inputs to a deployment ready to serve: the graph from the
/// edge list, the engine with its reader, the session, and on the
/// durable workload a fresh WAL plus the initial checkpoint.
fn deploy<E: DynamicMis>(
    cfg: &Config,
    inputs: &Inputs,
    wrap: fn(Box<dyn DynamicMis + Send>) -> E,
    traced: bool,
    store_dir: &Path,
    rep: u64,
) -> Result<Deployment<E>, String> {
    let builder = cfg.engine(input_graph(inputs)?);
    let (engine, reader) = maybe_span(traced, "engine.build", rep, || builder.build_with_reader());
    // Traced runs flush by hand after the same number of pushes, so the
    // push and the flush are separate calls with spans of their own.
    let policy = if traced {
        FlushPolicy::Manual
    } else {
        FlushPolicy::Depth(cfg.spec.depth)
    };
    let mut session = IngestSession::with_policy(wrap(engine), policy);
    let store = match cfg.spec.checkpoint_every {
        None => Store::Memory(MemIo::new()),
        Some(_) => {
            std::fs::create_dir_all(store_dir)
                .map_err(|e| format!("cannot create {}: {e}", store_dir.display()))?;
            let io = Arc::new(UnsyncedIo {
                dir: store_dir.to_path_buf(),
            });
            let wal = WriteAheadLog::create(Arc::clone(&io) as Arc<dyn StorageIo>)
                .map_err(|e| format!("cannot create the WAL: {e}"))?;
            Checkpoint::capture(session.engine(), 0)
                .save(io.as_ref())
                .map_err(|e| format!("cannot save the initial checkpoint: {e}"))?;
            if traced {
                session.set_wal_sink(Box::new(TracedWal(wal)));
            } else {
                session.set_wal_sink(Box::new(wal));
            }
            Store::Disk(io)
        }
    };
    Ok(Deployment {
        session,
        reader,
        store,
    })
}

fn input_graph(inputs: &Inputs) -> Result<DynGraph, String> {
    let n = inputs.nodes as u64;
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    DynGraph::from_adjacency(NodeId(n), &nodes, &inputs.edges)
        .map_err(|e| format!("the input graph was rejected: {e}"))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The writer side of a run: pushes through the session and keeps the
/// counts.
struct Writer<'a, E: DynamicMis> {
    dep: &'a mut Deployment<E>,
    traced: bool,
    depth: usize,
    checkpoint_every: Option<u64>,
    /// Pushes since the last flush.
    window: usize,
    /// When the last flush returned: the moment its window became
    /// visible.
    visible_at: u64,
    counts: Counts,
    failures: u64,
}

impl<'a, E: DynamicMis> Writer<'a, E> {
    fn new(dep: &'a mut Deployment<E>, spec: &Spec, traced: bool) -> Self {
        Writer {
            dep,
            traced,
            depth: spec.depth,
            checkpoint_every: spec.checkpoint_every,
            window: 0,
            visible_at: 0,
            counts: Counts::default(),
            failures: 0,
        }
    }

    /// Pushes one change; returns whether a flush returned, publishing
    /// the window at `visible_at`.
    fn push(&mut self, change: TopologyChange) -> bool {
        self.counts.pushes += 1;
        self.window += 1;
        let session = &mut self.dep.session;
        let pushed = maybe_span(self.traced, "ingest.push", self.counts.pushes, || {
            session.push(change)
        });
        match pushed {
            Ok(Some(receipt)) => {
                self.settled(&receipt);
                true
            }
            // Only a traced session, which flushes by hand, gets here with
            // a full window.
            Ok(None) => self.window >= self.depth && self.flush(),
            Err(_) => {
                self.flush_failed();
                true
            }
        }
    }

    /// Flushes the open window.
    fn flush(&mut self) -> bool {
        let session = &mut self.dep.session;
        match maybe_span(self.traced, "ingest.flush", self.counts.flushes, || {
            session.flush()
        }) {
            Ok(receipt) => self.settled(&receipt),
            Err(_) => self.flush_failed(),
        }
        true
    }

    fn flush_failed(&mut self) {
        self.failures += 1;
        self.window = 0;
        self.visible_at = now_ns();
    }

    /// Books a returned flush, then cuts a checkpoint when the cadence
    /// comes due.
    fn settled(&mut self, receipt: &IngestReceipt) {
        self.visible_at = now_ns();
        self.window = 0;
        let c = &mut self.counts;
        c.flushes += 1;
        c.coalesced += receipt.coalesced_changes() as u64;
        c.applied += receipt.applied() as u64;
        c.adjustments += receipt.adjustments() as u64;
        let batch = receipt.batch();
        c.pops += batch.heap_pops() as u64;
        c.counter_updates += batch.counter_updates() as u64;
        c.handoffs += batch.cross_shard_handoffs() as u64;
        c.epochs += batch.settle_epochs() as u64;
        let flushes = c.flushes;
        let (Some(every), Store::Disk(io)) = (self.checkpoint_every, &self.dep.store) else {
            return;
        };
        if !flushes.is_multiple_of(every) {
            return;
        }
        let id = self.counts.checkpoints;
        self.counts.checkpoints += 1;
        let saved = checkpoint(
            self.traced,
            id,
            self.dep.session.engine(),
            flushes,
            io.as_ref(),
        );
        if saved.is_err() {
            self.failures += 1;
        }
    }
}

/// Captures `engine` at `wal_seq` and saves the image to `io`, each step
/// in a span of its own when traced.
fn checkpoint(
    traced: bool,
    id: u64,
    engine: &dyn DynamicMis,
    wal_seq: u64,
    io: &dyn StorageIo,
) -> io::Result<()> {
    let image = maybe_span(traced, "checkpoint.capture", id, || {
        Checkpoint::capture(engine, wal_seq)
    });
    maybe_span(traced, "checkpoint.save", id, || image.save(io))
}

struct Served {
    warmup_s: f64,
    closed_s: f64,
    open: OpenLoop,
    threads: u64,
    reads: Reads,
    reader_log: Log,
    counts: Counts,
    failures: u64,
}

/// Raises the reader's stop flag when dropped, so a writer that panics
/// still lets the scoped reader thread end.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn serve<E: DynamicMis>(
    dep: &mut Deployment<E>,
    cfg: &Config,
    inputs: &Inputs,
    traced: bool,
) -> Served {
    let plan = cfg.plan();
    let closed_end = plan.warmup + plan.closed;
    let space = dep.session.engine().graph().peek_next_id().index().max(1);
    let reader = dep.reader.clone();
    // Relaxed: neither flag publishes data; the writer's state reaches
    // the reader only through the snapshot channel.
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let reads = read_loop(&reader, &stop, &measuring, space, traced);
            (reads, trace::take())
        });
        let stopper = StopOnDrop(&stop);
        let mut w = Writer::new(dep, &cfg.spec, traced);
        let t = Instant::now();
        for i in 0..plan.warmup {
            w.push(inputs.change(i).clone());
        }
        let warmup_s = t.elapsed().as_secs_f64();
        measuring.store(true, Ordering::Relaxed);
        let t = Instant::now();
        for i in plan.warmup..closed_end {
            w.push(inputs.change(i).clone());
        }
        if w.window > 0 {
            w.flush();
        }
        let closed_s = t.elapsed().as_secs_f64();
        let open = open_loop(
            &mut w,
            inputs,
            closed_end..plan.total(),
            cfg.spec.offered_per_s,
        );
        // Read while the reader still runs: every thread the run uses.
        let threads = sys::threads();
        drop(stopper);
        let (reads, reader_log) = handle.join().expect("the reader thread does not panic");
        Served {
            warmup_s,
            closed_s,
            open,
            threads,
            reads,
            reader_log,
            counts: w.counts,
            failures: w.failures,
        }
    })
}

/// What the open loop measured, in nanoseconds.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per change: from its due time until the flush that published it
    /// returned.
    pub visible_ns: Vec<u64>,
    /// Per flush window: from the due time of the change that closed it
    /// until the flush returned. The part of the visible latency that is
    /// the stack's work, not the wait for the window to fill.
    pub flush_lag_ns: Vec<u64>,
    /// Per change: how late its push started.
    pub writer_late_ns: Vec<u64>,
}

impl OpenLoop {
    /// Books the flush that returned at `at` for the `waiting` due times.
    fn published(&mut self, at: u64, waiting: &mut Vec<u64>) {
        if let Some(&closing) = waiting.last() {
            self.flush_lag_ns.push(at.saturating_sub(closing));
        }
        self.visible_ns
            .extend(waiting.drain(..).map(|d| at.saturating_sub(d)));
    }
}

/// Pushes `range` at `rate` changes per second, each change due at a
/// fixed offset from the loop's start whatever happened before it. The
/// writer spins until a change is due: the offered intervals (5–125 µs)
/// are below what a sleep can hit.
fn open_loop<E: DynamicMis>(
    w: &mut Writer<'_, E>,
    inputs: &Inputs,
    range: Range<usize>,
    rate: f64,
) -> OpenLoop {
    let interval_ns = 1e9 / rate;
    let mut out = OpenLoop {
        visible_ns: Vec::with_capacity(range.len()),
        flush_lag_ns: Vec::with_capacity(range.len() / w.depth + 1),
        writer_late_ns: Vec::with_capacity(range.len()),
    };
    let mut waiting: Vec<u64> = Vec::with_capacity(w.depth);
    let start = now_ns();
    for (k, i) in range.enumerate() {
        let due = start + (k as f64 * interval_ns) as u64;
        let mut now = now_ns();
        while now < due {
            std::hint::spin_loop();
            now = now_ns();
        }
        out.writer_late_ns.push(now - due);
        waiting.push(due);
        if w.push(inputs.change(i).clone()) {
            out.published(w.visible_at, &mut waiting);
        }
    }
    if w.window > 0 {
        w.flush();
        out.published(w.visible_at, &mut waiting);
    }
    out
}

/// The reader thread: one query per `READ_PERIOD_NS`, sleeping between
/// queries, until `stop`. A query's service time is timed; how late it
/// started is recorded apart, as the load generator's lateness.
fn read_loop(
    reader: &MisReader,
    stop: &AtomicBool,
    measuring: &AtomicBool,
    space: u64,
    traced: bool,
) -> Reads {
    let mut reads = Reads::default();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut last_epoch = 0;
    let start = now_ns();
    let mut slot = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = start + slot * READ_PERIOD_NS;
        let now = now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let q = reads.queries;
        let begin = now_ns();
        let (snap, hits) = maybe_span(traced, "reader.query", q, || {
            query(reader, &mut x, space, traced, q)
        });
        let end = now_ns();
        std::hint::black_box(hits);
        let epoch = snap.epoch();
        let staleness = reader.epoch().saturating_sub(epoch);
        reads.queries += 1;
        reads.regressions += u64::from(epoch < last_epoch);
        last_epoch = epoch;
        if q % RECOUNT_EVERY == 0 && snap.members().popcount() != snap.mis_len() {
            reads.torn += 1;
        }
        if measuring.load(Ordering::Relaxed) {
            reads.service_ns.push(end - begin);
            reads.late_ns.push(begin.saturating_sub(due));
            reads.staleness_sum += staleness;
            reads.staleness_max = reads.staleness_max.max(staleness);
        }
        // Behind by more than a period: skip the missed slots rather than
        // burst to catch up.
        slot = (slot + 1).max((now_ns() - start) / READ_PERIOD_NS);
    }
    reads
}

/// One read query: acquire the current snapshot, then probe `PROBES`
/// pseudo-random ids.
fn query(
    reader: &MisReader,
    x: &mut u64,
    space: u64,
    traced: bool,
    q: u64,
) -> (Arc<MisSnapshot>, usize) {
    let snap = maybe_span(traced, "reader.acquire", q, || reader.snapshot());
    let hits = maybe_span(traced, "reader.probe", q, || {
        let mut hits = 0;
        for _ in 0..PROBES {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            hits += usize::from(snap.contains(NodeId(*x % space)));
        }
        hits
    });
    (snap, hits)
}

/// `durability::recover` through its public steps, each in a span of its
/// own.
fn recover_traced(
    io: Arc<dyn StorageIo>,
    rep: u64,
) -> Result<(Box<dyn DynamicMis + Send>, usize, u64), RecoverError> {
    let image = span("recover.load", rep, || Checkpoint::load(io.as_ref()))?
        .ok_or(RecoverError::MissingCheckpoint)?;
    let mut engine = span("recover.restore", rep, || image.restore())?;
    let (wal, records) = span("recover.wal_open", rep, || {
        WriteAheadLog::open(Arc::clone(&io))
    })
    .map_err(RecoverError::Io)?;
    let from = image.wal_seq();
    let replayed = span("recover.replay", rep, || {
        let mut replayed = 0;
        for record in records.iter().filter(|r| r.seq() >= from) {
            span("recover.apply_batch", record.seq(), || {
                engine.apply_batch(record.changes())
            })
            .map_err(RecoverError::Replay)?;
            replayed += 1;
        }
        Ok::<_, RecoverError>(replayed)
    })?;
    Ok((engine, replayed, wal.records_persisted()))
}

/// Replays the run's flush windows on a twin engine with no reader
/// attached, timing each `apply_batch`, and on a bare `DynGraph`, timing
/// each window's `TopologyChange::apply`: the live engine's excess over
/// the twin is what publishing snapshots costs, and the bare graph's time
/// is the graph layer's share.
fn replay_twin(cfg: &Config, inputs: &Inputs) -> Result<Twin, String> {
    let mut twin = cfg.engine(input_graph(inputs)?).build();
    let mut engine_apply_ns = 0;
    for_each_window(cfg, inputs, |batch| {
        let t = now_ns();
        let result = twin.apply_batch(batch).map(drop);
        engine_apply_ns += now_ns() - t;
        result
    })?;
    drop(twin);
    let mut bare = input_graph(inputs)?;
    let mut graph_apply_ns = 0;
    for_each_window(cfg, inputs, |batch| {
        let t = now_ns();
        let result = batch.iter().try_for_each(|c| c.apply(&mut bare));
        graph_apply_ns += now_ns() - t;
        result
    })?;
    Ok(Twin {
        engine_apply_ns,
        graph_apply_ns,
    })
}

/// Re-cuts the run's flush windows with a `ChangeCoalescer`: `depth`
/// pushes each, plus the flushes at the end of the closed segment and of
/// the open loop — exactly the windows the live session flushed.
fn for_each_window(
    cfg: &Config,
    inputs: &Inputs,
    mut apply: impl FnMut(&[TopologyChange]) -> Result<(), GraphError>,
) -> Result<(), String> {
    let plan = cfg.plan();
    let closed_end = plan.warmup + plan.closed;
    let mut queue = ChangeCoalescer::new();
    for i in 0..plan.total() {
        queue.push(inputs.change(i).clone());
        if queue.pushed() >= cfg.spec.depth || i + 1 == closed_end || i + 1 == plan.total() {
            let (batch, _) = queue.drain();
            apply(&batch).map_err(|e| format!("a replayed window was rejected: {e}"))?;
        }
    }
    Ok(())
}
