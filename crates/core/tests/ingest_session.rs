//! Property suite for the change-ingestion queue ([`IngestSession`]).
//!
//! Two halves, each checked for K ∈ {1, 2, 4} shards (the engines built
//! through [`Engine::builder`] and driven as `dyn DynamicMis`):
//!
//! 1. **Coalescing is semantics-preserving.** `push*; flush` is
//!    *bit-identical* (whole [`dmis_core::BatchReceipt`]) to
//!    `apply_batch` of the coalesced sequence on a twin engine, and its
//!    net flips — plus the final MIS — equal those of `apply_batch` of
//!    the **raw** sequence on another twin: cancelling an
//!    insert+delete pair changes net topology by nothing, and the
//!    maintained MIS is history independent, so only the work counters
//!    (the coalescing win) may differ from the raw batch.
//! 2. **Cancel-pairs produce zero settle work.** A window that coalesces
//!    to the empty batch flushes with every receipt counter zero: no
//!    pops, no counter updates, no handoffs, no epochs.

use dmis_core::{ChangeCoalescer, DynamicMis, Engine, IngestSession};
use dmis_graph::stream::{self, ChurnConfig};
use dmis_graph::{generators, DynGraph, ShardLayout, TopologyChange};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Builds one K-shard engine over `g`.
fn engine(g: &DynGraph, k: usize, seed: u64) -> Box<dyn DynamicMis + Send> {
    Engine::builder()
        .graph(g.clone())
        .seed(seed)
        .sharding(ShardLayout::striped(k))
        .build()
}

/// A raw change stream valid for sequential application on `g`: random
/// toggles over a bounded edge pool ([`stream::flapping_stream`]), so
/// windows regularly revisit the same edge and the coalescer has real
/// cancel/merge opportunities.
fn toggle_stream(g: &DynGraph, len: usize, rng: &mut StdRng) -> Vec<TopologyChange> {
    let pool = stream::random_pair_pool(g, 12, rng);
    stream::flapping_stream(g, &pool, len, false, rng)
}

#[test]
fn push_flush_equals_apply_batch_of_the_coalesced_sequence() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::erdos_renyi(18, 0.2, &mut rng);
        let raw = toggle_stream(&g, 24, &mut rng);
        // The coalesced sequence the session will flush.
        let mut coalescer = ChangeCoalescer::new();
        for c in &raw {
            coalescer.push(c.clone());
        }
        let (coalesced, pushed) = coalescer.drain();
        assert_eq!(pushed, raw.len());
        for &k in &SHARD_COUNTS {
            // Session path.
            let mut session_engine = engine(&g, k, 77 + seed);
            let mut session = IngestSession::new(&mut *session_engine);
            for c in &raw {
                session.push(c.clone()).expect("no watermark, cannot fail");
            }
            let receipt = session.flush().expect("valid stream");
            assert_eq!(receipt.pushed(), raw.len());
            assert_eq!(
                receipt.coalesced_changes(),
                raw.len() - coalesced.len(),
                "K={k}"
            );
            // Twin 1: apply_batch of the coalesced sequence must be
            // bit-identical (the session IS one merged batch).
            let mut twin = engine(&g, k, 77 + seed);
            let expected = twin.apply_batch(&coalesced).expect("valid batch");
            assert_eq!(receipt.batch(), &expected, "K={k} seed={seed}");
            assert_eq!(session_engine.mis(), twin.mis());
            // Twin 2: the RAW batch settles the same net topology, so
            // flips and final MIS agree; only work counters may
            // differ (that delta is the coalescing win).
            let mut raw_twin = engine(&g, k, 77 + seed);
            let raw_receipt = raw_twin.apply_batch(&raw).expect("valid batch");
            assert_eq!(raw_receipt.flips(), receipt.batch().flips(), "K={k}");
            assert_eq!(raw_twin.mis(), session_engine.mis());
            assert!(
                receipt.batch().heap_pops() <= raw_receipt.heap_pops(),
                "coalescing must never add settle work (K={k})"
            );
            session_engine.assert_internally_consistent();
        }
    }
}

#[test]
fn cancel_pairs_produce_zero_settle_work() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::erdos_renyi(16, 0.25, &mut rng);
        // A window of pure opposing pairs: toggle 5 existing edges off
        // and immediately back on.
        let mut window = Vec::new();
        for _ in 0..5 {
            let (u, v) = generators::random_edge(&g, &mut rng).expect("has edges");
            window.push(TopologyChange::DeleteEdge(u, v));
            window.push(TopologyChange::InsertEdge(u, v));
        }
        for &k in &SHARD_COUNTS {
            let mut e = engine(&g, k, 5 + seed);
            let before = e.mis();
            let mut session = IngestSession::new(&mut *e);
            for c in &window {
                session.push(c.clone()).expect("cannot fail");
            }
            assert_eq!(session.queue_depth(), 0, "all pairs cancelled");
            let receipt = session.flush().expect("empty batch");
            assert_eq!(receipt.pushed(), window.len());
            assert_eq!(receipt.coalesced_changes(), window.len());
            assert_eq!(receipt.applied(), 0);
            let b = receipt.batch();
            assert_eq!(b.adjustments(), 0, "K={k}");
            assert_eq!(b.heap_pops(), 0, "K={k}");
            assert_eq!(b.counter_updates(), 0, "K={k}");
            assert_eq!(b.cross_shard_handoffs(), 0, "K={k}");
            assert_eq!(b.settle_epochs(), 0, "K={k}");
            assert_eq!(e.mis(), before, "a cancelled window must not move the MIS");
            e.assert_internally_consistent();
        }
    }
}

/// Watermarked sessions (auto-flush at depth Q) reach the same final MIS
/// as unbatched sequential application of the raw stream, for every
/// Q × K cell — and on these (deterministic, toggle-heavy) streams a
/// deeper queue never does more total settle work than Q=1: merging
/// windows unions their conservative seeds and cancels opposing pairs
/// outright. (The baseline is the Q=1 *session*, not per-change `apply`:
/// the batch path deliberately seeds the higher endpoint of every edge
/// change, so even a 1-deep flush pops more than the single-change fast
/// path — coalescing wins are measured against batched application.)
#[test]
fn watermark_sweep_preserves_outputs() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let (g, _) = generators::erdos_renyi(20, 0.2, &mut rng);
        let raw = toggle_stream(&g, 48, &mut rng);
        // Sequential oracle for outputs.
        let mut oracle = engine(&g, 1, 9 + seed);
        for c in &raw {
            oracle.apply(c).expect("valid");
        }
        for &k in &SHARD_COUNTS {
            let mut pops_by_q = Vec::new();
            for q in [1usize, 4, 16] {
                let mut e = engine(&g, k, 9 + seed);
                let mut session = IngestSession::with_watermark(&mut *e, q);
                let mut pops = 0usize;
                for c in &raw {
                    if let Some(receipt) = session.push(c.clone()).expect("valid stream") {
                        pops += receipt.batch().heap_pops();
                    }
                }
                pops += session.flush().expect("valid tail").batch().heap_pops();
                assert_eq!(e.mis(), oracle.mis(), "Q={q} K={k} seed={seed}");
                pops_by_q.push(pops);
                e.assert_internally_consistent();
            }
            assert!(
                pops_by_q[2] <= pops_by_q[0],
                "K={k}: deep queue did more settle work than Q=1 \
                 ({} > {})",
                pops_by_q[2],
                pops_by_q[0]
            );
        }
    }
}

/// Node changes act as barriers: a session fed a stream containing node
/// inserts/deletes still matches sequential application (coalescing must
/// not merge edge changes across an implicit incident-edge removal).
#[test]
fn node_barriers_keep_mixed_streams_valid() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let (g, _) = generators::erdos_renyi(14, 0.25, &mut rng);
        // Random mixed stream (edges + node churn) built against a shadow.
        let mut shadow = g.clone();
        let mut raw = Vec::new();
        for _ in 0..20 {
            if let Some(c) = stream::random_change(&shadow, &ChurnConfig::default(), &mut rng) {
                c.apply(&mut shadow).expect("valid");
                raw.push(c);
            }
        }
        let mut oracle = engine(&g, 2, 40 + seed);
        for c in &raw {
            oracle.apply(c).expect("valid");
        }
        let mut e = engine(&g, 2, 40 + seed);
        let mut session = IngestSession::with_watermark(&mut *e, 6);
        for c in &raw {
            session.push(c.clone()).expect("valid stream");
        }
        session.flush().expect("valid tail");
        assert_eq!(e.mis(), oracle.mis(), "seed={seed}");
        e.assert_internally_consistent();
    }
}
