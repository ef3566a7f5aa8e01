//! End-to-end checks for the scale-tier stream families (power-law churn,
//! community churn, temporal sliding window): every family must drive a
//! watermarked [`IngestSession`] — the coalescing ingestion path — without
//! a single validity error, and the session's final MIS must match
//! sequential unbatched application of the same raw stream (history
//! independence makes the two comparable). A separate check pins the
//! structural reason the Chung–Lu family exists: its hubs reach `√n`
//! degree, the regime the chunked adjacency layout is built for.

use dmis_core::{Engine, FlushPolicy, IngestSession};
use dmis_graph::{generators, stream, DynGraph, ShardLayout, TopologyChange};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pushes `raw` through a watermarked session on a (K-sharded) engine and
/// checks it against a sequential oracle; every push and flush must be
/// `Ok` — a coalescer that reorders into invalidity would surface here.
fn ingest_matches_sequential(g: &DynGraph, raw: &[TopologyChange], seed: u64) {
    let mut oracle = Engine::builder().graph(g.clone()).seed(seed).build();
    for c in raw {
        oracle.apply(c).expect("raw stream is sequentially valid");
    }
    for k in [1usize, 4] {
        let mut engine = Engine::builder()
            .graph(g.clone())
            .seed(seed)
            .sharding(ShardLayout::striped(k))
            .build();
        let mut session = IngestSession::with_policy(&mut *engine, FlushPolicy::Depth(8));
        for c in raw {
            session
                .push(c.clone())
                .unwrap_or_else(|e| panic!("K={k}: coalesced window rejected {c:?}: {e}"));
        }
        session.flush().expect("tail window is valid");
        assert_eq!(engine.mis(), oracle.mis(), "K={k}");
        engine.assert_internally_consistent();
        engine.check_invariant().expect("MIS invariant holds");
    }
}

#[test]
fn power_law_churn_passes_ingest_coalescing() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, ids) = generators::chung_lu(120, 6.0, 2.5, &mut rng);
        let raw = stream::power_law_churn(&g, &ids, 2.5, 160, &mut rng);
        assert_eq!(raw.len(), 160);
        ingest_matches_sequential(&g, &raw, 50 + seed);
    }
}

#[test]
fn community_churn_passes_ingest_coalescing() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(10 + seed);
        let (g, ids) = generators::gnm(120, 180, &mut rng);
        let raw = stream::community_churn(&g, &ids, 6, 0.1, 160, &mut rng);
        assert_eq!(raw.len(), 160);
        ingest_matches_sequential(&g, &raw, 60 + seed);
    }
}

#[test]
fn sliding_window_passes_ingest_coalescing() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(20 + seed);
        let (g, ids) = generators::gnm(100, 120, &mut rng);
        let raw = stream::sliding_window_stream(&g, &ids, 24, 200, &mut rng);
        assert_eq!(raw.len(), 200);
        ingest_matches_sequential(&g, &raw, 70 + seed);
    }
}

#[test]
fn fresh_pair_stream_passes_ingest_coalescing() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(30 + seed);
        let (g, ids) = generators::gnm(120, 90, &mut rng);
        let raw = stream::fresh_pair_stream(&g, &ids, 160, &mut rng);
        assert_eq!(raw.len(), 160);
        ingest_matches_sequential(&g, &raw, 80 + seed);
    }
}

#[test]
fn barrier_churn_passes_ingest_coalescing() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(40 + seed);
        let (g, _) = generators::gnm(120, 150, &mut rng);
        let pool = stream::random_pair_pool(&g, 24, &mut rng);
        let raw = stream::barrier_churn(&g, &pool, 4, 6, 160, &mut rng);
        assert_eq!(raw.len(), 160);
        ingest_matches_sequential(&g, &raw, 90 + seed);
    }
}

/// The snapshot read path under session coalescing: for the
/// sliding-window and community-churn families at watermarks
/// W ∈ {1, 4}, every auto-flush publishes exactly one epoch, the
/// published membership equals an unbatched oracle replayed to the same
/// stream prefix, and between flushes the reader's epoch stays pinned
/// at the last flush — it can never observe anything older (the
/// staleness bound), and queued-but-unflushed changes never leak into a
/// snapshot.
#[test]
fn session_flushes_publish_exactly_the_flush_boundaries() {
    let mut rng = StdRng::seed_from_u64(31);
    let (g1, ids1) = generators::gnm(80, 100, &mut rng);
    let sliding = stream::sliding_window_stream(&g1, &ids1, 16, 120, &mut rng);
    let (g2, ids2) = generators::gnm(80, 120, &mut rng);
    let community = stream::community_churn(&g2, &ids2, 4, 0.1, 120, &mut rng);
    for (family, g, raw) in [("sliding", &g1, &sliding), ("community", &g2, &community)] {
        for watermark in [1usize, 4] {
            let mut oracle = Engine::builder().graph(g.clone()).seed(41).build();
            let mut oracle_pos = 0usize;
            let mut engine = Engine::builder()
                .graph(g.clone())
                .seed(41)
                .sharding(ShardLayout::striped(2))
                .build();
            let reader = engine.reader();
            assert_eq!(reader.epoch(), 0, "{family}: attach is epoch 0");
            let mut session =
                IngestSession::with_policy(&mut *engine, FlushPolicy::Depth(watermark));
            let mut flushes = 0u64;
            for (i, c) in raw.iter().enumerate() {
                let outcome = session.push(c.clone()).expect("valid window");
                if outcome.is_some() {
                    flushes += 1;
                    // History independence makes the coalesced window
                    // comparable to the raw prefix.
                    while oracle_pos <= i {
                        oracle.apply(&raw[oracle_pos]).expect("valid");
                        oracle_pos += 1;
                    }
                    let snap = reader.snapshot();
                    assert_eq!(
                        snap.epoch(),
                        flushes,
                        "{family} W={watermark}: one epoch per flush"
                    );
                    let published: Vec<_> = snap.iter().collect();
                    let expected: Vec<_> = oracle.mis().into_iter().collect();
                    assert_eq!(
                        published, expected,
                        "{family} W={watermark}: flush {flushes} membership"
                    );
                } else {
                    // Staleness bound between flushes: the channel still
                    // carries exactly the last flush boundary — never
                    // older, and never a half-window preview.
                    assert_eq!(
                        reader.epoch(),
                        flushes,
                        "{family} W={watermark}: no publication without a flush"
                    );
                }
            }
            session.flush().expect("tail window");
            flushes += 1;
            assert_eq!(reader.epoch(), flushes, "{family}: tail flush published");
            while oracle_pos < raw.len() {
                oracle.apply(&raw[oracle_pos]).expect("valid");
                oracle_pos += 1;
            }
            let snap = reader.snapshot();
            let published: Vec<_> = snap.iter().collect();
            let expected: Vec<_> = oracle.mis().into_iter().collect();
            assert_eq!(published, expected, "{family} W={watermark}: final state");
            engine.assert_internally_consistent();
        }
    }
}

/// The hub degrees of the Chung–Lu family really scale like `√n`: averaged
/// over seeds, the realized maximum degree clears `√n` with room (the
/// weight cap targets `√(8n) ≈ 2.8·√n` for the heaviest node).
#[test]
fn chung_lu_max_degree_scales_like_sqrt_n() {
    let n = 4096usize;
    let seeds = 3u64;
    let mut total = 0usize;
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::chung_lu(n, 8.0, 2.5, &mut rng);
        total += g.max_degree();
    }
    let average = total / seeds as usize;
    let sqrt_n = (n as f64).sqrt() as usize;
    assert!(
        average >= sqrt_n,
        "average max degree {average} fell below √n = {sqrt_n}"
    );
}

/// The power-law stream keeps hammering the same hubs, so the coalescer
/// sees real cancel opportunities: a long window coalesces away a
/// measurable fraction of the pushed changes.
#[test]
fn power_law_churn_gives_the_coalescer_real_work() {
    let mut rng = StdRng::seed_from_u64(99);
    let (g, ids) = generators::chung_lu(48, 6.0, 2.5, &mut rng);
    let raw = stream::power_law_churn(&g, &ids, 2.5, 400, &mut rng);
    let mut engine = Engine::builder().graph(g).seed(7).build();
    let mut session = IngestSession::new(&mut *engine);
    for c in &raw {
        session.push(c.clone()).expect("no watermark, cannot fail");
    }
    let receipt = session.flush().expect("valid window");
    assert!(
        receipt.coalesced_changes() > 0,
        "revisiting hub edges must cancel at least one opposing pair"
    );
}
