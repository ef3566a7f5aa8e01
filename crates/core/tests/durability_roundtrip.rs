//! Durability round-trip property suite: checkpoint + WAL replay
//! restores **bit-identical** state on every engine flavor.
//!
//! The engines are deterministic functions of `(graph, π, RNG
//! position)`, so recovery is checkable to the bit: for each flavor ×
//! shard count, a session streams churn through the log-then-publish
//! ingest path (WAL record per flush, periodic checkpoints), and
//! [`recover`] must reproduce the uncrashed twin exactly — the MIS, the
//! per-flush flip logs and receipt counters (replayed receipts equal
//! the live ones), the published reader epoch, and the RNG stream
//! position (pinned by applying identical *post*-recovery change
//! windows, including key-drawing node inserts, to both twins).

use std::sync::Arc;

use dmis_core::durability::{recover, Checkpoint, MemIo, StorageIo, WalSink, WriteAheadLog};
use dmis_core::{BatchReceipt, DynamicMis, Engine, IngestSession};
use dmis_graph::stream::{self, ChurnConfig};
use dmis_graph::{generators, DynGraph, GraphError, ShardLayout, TopologyChange};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Node-heavy churn so recovery also exercises id recycling and the
/// RNG draw fast-forward (every node insert draws a priority key).
fn churny() -> ChurnConfig {
    ChurnConfig {
        edge_insert: 0.3,
        edge_delete: 0.25,
        node_insert: 0.25,
        node_delete: 0.2,
        max_new_degree: 4,
    }
}

/// Every engine flavor × shard count K ∈ {1, 4}, as trait objects.
fn flavors(g: &DynGraph, seed: u64) -> Vec<(&'static str, Box<dyn DynamicMis + Send>)> {
    vec![
        (
            "unsharded",
            Engine::builder().graph(g.clone()).seed(seed).build(),
        ),
        (
            "sharded-k1",
            Engine::builder()
                .graph(g.clone())
                .seed(seed)
                .sharding(ShardLayout::single())
                .build(),
        ),
        (
            "sharded-k4",
            Engine::builder()
                .graph(g.clone())
                .seed(seed)
                .sharding(ShardLayout::striped(4))
                .build(),
        ),
    ]
}

/// One churn window of up to `len` changes, valid as a sequence against
/// the current graph.
fn window(g: &DynGraph, len: usize, rng: &mut StdRng) -> Vec<TopologyChange> {
    let mut shadow = g.clone();
    let mut out = Vec::new();
    for _ in 0..len {
        if let Some(c) = stream::random_change(&shadow, &churny(), rng) {
            c.apply(&mut shadow).expect("valid against shadow");
            out.push(c);
        }
    }
    out
}

#[test]
fn checkpoint_plus_replay_is_bit_identical_on_every_flavor() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(9_000 + seed);
        let (g, _) = generators::erdos_renyi(24, 0.2, &mut rng);
        for (name, mut engine) in flavors(&g, 77 + seed) {
            let reader = engine.reader();
            let store = MemIo::new();
            let io: Arc<dyn StorageIo> = Arc::new(store.clone());
            Checkpoint::capture(&*engine, 0).save(io.as_ref()).unwrap();
            let wal = WriteAheadLog::create(Arc::clone(&io)).unwrap();

            let mut session = IngestSession::new(engine);
            session.set_wal_sink(Box::new(wal));
            assert!(session.has_wal_sink(), "{name}");

            let mut live_receipts: Vec<BatchReceipt> = Vec::new();
            let mut flushes = 0u64;
            for _ in 0..20 {
                for c in window(session.engine().graph(), 6, &mut rng) {
                    session.push(c).expect("manual policy never auto-flushes");
                }
                let receipt = session.flush().expect("flush applies the window");
                live_receipts.push(receipt.into_batch());
                flushes += 1;
                if flushes.is_multiple_of(7) {
                    Checkpoint::capture(&**session.engine(), flushes)
                        .save(io.as_ref())
                        .unwrap();
                }
            }
            let mut twin = session.into_engine();
            assert_eq!(reader.epoch(), flushes, "{name}: one epoch per flush");

            let recovered = recover(Arc::new(store.fork())).unwrap();
            assert_eq!(recovered.checkpoint_seq, 14, "{name}");
            assert_eq!(recovered.replayed, 6, "{name}");
            let mut healed = recovered.engine;

            // Bit-identical state: MIS, priorities, epoch, and the
            // replayed receipts (flip logs + work counters) match the
            // live flushes they re-execute.
            assert_eq!(healed.mis(), twin.mis(), "{name} seed={seed}");
            assert_eq!(
                healed.durability_meta(),
                twin.durability_meta(),
                "{name}: flavor, layout, RNG position, and epoch survive"
            );
            assert_eq!(
                healed.durability_meta().epoch,
                Some(reader.epoch()),
                "{name}: recovered epoch equals what readers observed"
            );
            for v in healed.graph().nodes() {
                assert_eq!(
                    healed.priorities().of(v),
                    twin.priorities().of(v),
                    "{name}: π survives the round trip"
                );
            }
            assert_eq!(
                recovered.receipts,
                &live_receipts[recovered.checkpoint_seq as usize..],
                "{name}: replay reproduces the live flip logs and receipts"
            );

            // The RNG stream position survived: identical future windows
            // (with key-drawing node inserts) keep both twins aligned.
            for _ in 0..3 {
                let batch = window(twin.graph(), 5, &mut rng);
                let rt = twin.apply_batch(&batch).expect("valid batch");
                let rh = healed.apply_batch(&batch).expect("valid batch");
                assert_eq!(rt, rh, "{name}: post-recovery receipts diverged");
            }
            assert_eq!(healed.mis(), twin.mis(), "{name}: post-recovery state");
            healed.assert_internally_consistent();
            assert!(healed.check_invariant().is_ok(), "{name}");
        }
    }
}

/// A sink that always fails — pins the flush-side persistence contract.
#[derive(Debug)]
struct FailingSink;

impl WalSink for FailingSink {
    fn persist(&mut self, _changes: &[TopologyChange]) -> std::io::Result<u64> {
        Err(std::io::Error::other("sink offline"))
    }
}

#[test]
fn a_failing_sink_fails_the_flush_before_anything_is_applied() {
    let (g, ids) = generators::cycle(8);
    let mut engine = Engine::builder().graph(g).seed(3).build();
    let reader = engine.reader();
    let mut session = IngestSession::new(engine);
    session.set_wal_sink(Box::new(FailingSink));

    session
        .push(TopologyChange::DeleteEdge(ids[0], ids[1]))
        .unwrap();
    let before = session.engine().mis();
    assert_eq!(
        session.flush().unwrap_err(),
        GraphError::PersistFailed,
        "log-then-publish: an unlogged window must not apply"
    );
    assert_eq!(session.engine().mis(), before, "engine untouched");
    assert_eq!(reader.epoch(), 0, "no epoch published for the lost window");

    // The session stays usable: swap in a working log and stream on.
    let store = MemIo::new();
    let wal = WriteAheadLog::create(Arc::new(store.clone())).unwrap();
    session.set_wal_sink(Box::new(wal));
    session
        .push(TopologyChange::DeleteEdge(ids[2], ids[3]))
        .unwrap();
    session.flush().expect("healthy sink flushes fine");
    assert_eq!(reader.epoch(), 1);
    let (_, records) = WriteAheadLog::open(Arc::new(store.fork())).unwrap();
    assert_eq!(records.len(), 1, "the flushed window reached the log");
}

#[test]
fn the_log_never_holds_more_than_one_checkpoint_interval() {
    const EVERY: u64 = 8;
    let mut rng = StdRng::seed_from_u64(31);
    let (g, _) = generators::erdos_renyi(24, 0.2, &mut rng);
    let mut engine = Engine::builder().graph(g).seed(13).build();
    let reader = engine.reader();
    let store = MemIo::new();
    let io: Arc<dyn StorageIo> = Arc::new(store.clone());
    let wal = WriteAheadLog::create(Arc::clone(&io)).unwrap();
    Checkpoint::capture(&*engine, 0).save(io.as_ref()).unwrap();
    let mut session = IngestSession::new(engine);
    session.set_wal_sink(Box::new(wal));

    for flushes in 1..=12 * EVERY {
        for c in window(session.engine().graph(), 4, &mut rng) {
            session.push(c).expect("manual policy never auto-flushes");
        }
        session.flush().expect("flush applies the window");
        if flushes.is_multiple_of(EVERY) {
            Checkpoint::capture(&**session.engine(), flushes)
                .save(io.as_ref())
                .unwrap();
        }
        let (log, records) = WriteAheadLog::open(Arc::new(store.fork())).unwrap();
        assert!(
            records.len() as u64 <= EVERY,
            "flush {flushes}: the log holds {} records",
            records.len()
        );
        assert_eq!(log.records_persisted(), flushes, "sequence numbers run on");
    }
    let recovered = recover(Arc::new(store.fork())).unwrap();
    assert_eq!(recovered.engine.mis(), session.engine().mis());
    assert_eq!(
        recovered.engine.durability_meta().epoch,
        Some(reader.epoch())
    );
}

#[test]
fn empty_windows_are_logged_so_epoch_arithmetic_stays_exact() {
    let (g, ids) = generators::path(6);
    let mut engine = Engine::builder().graph(g).seed(11).build();
    let reader = engine.reader();
    let store = MemIo::new();
    let io: Arc<dyn StorageIo> = Arc::new(store.clone());
    Checkpoint::capture(&*engine, 0).save(io.as_ref()).unwrap();
    let wal = WriteAheadLog::create(Arc::clone(&io)).unwrap();
    let mut session = IngestSession::new(engine);
    session.set_wal_sink(Box::new(wal));

    // Flush 0: real work. Flush 1: a self-cancelling window (coalesces
    // to nothing). Flush 2: an outright empty window.
    session
        .push(TopologyChange::DeleteEdge(ids[0], ids[1]))
        .unwrap();
    session.flush().unwrap();
    session
        .push(TopologyChange::InsertEdge(ids[0], ids[1]))
        .unwrap();
    session
        .push(TopologyChange::DeleteEdge(ids[0], ids[1]))
        .unwrap();
    session.flush().unwrap();
    session.flush().unwrap();
    assert_eq!(reader.epoch(), 3, "every flush publishes, even empty ones");

    let twin = session.into_engine();
    let recovered = recover(Arc::new(store)).unwrap();
    assert_eq!(recovered.replayed, 3, "one WAL record per flush");
    assert_eq!(recovered.engine.mis(), twin.mis());
    assert_eq!(
        recovered.engine.durability_meta().epoch,
        Some(3),
        "replaying empty records advances the epoch exactly as live flushes did"
    );
}
