//! Concurrency tier: the snapshot read path's consistency proof.
//!
//! The epoch-versioned channel (`dmis_core::snapshot`) promises that a
//! concurrent reader observes **only** flush-boundary states: every
//! acquired [`MisSnapshot`] bit-matches the writer's quiesced membership
//! at *some* settle boundary, epochs are monotone per reader, and a
//! reader sampling after the writer finished observes the final epoch
//! (liveness). This suite proves those properties under real
//! multi-threaded interleavings for every engine flavor:
//!
//! - a writer thread replays a churn stream (random mixed, flapping,
//!   and power-law families) recording a per-epoch **oracle** — the
//!   exact membership at each flush boundary — while R ∈ {1, 2, 4}
//!   reader threads sample `(epoch, mis_len, membership)` as fast as
//!   they can; every sample is then verified bit-for-bit against the
//!   oracle entry for its epoch;
//! - the publication-ordering witness: publication runs strictly after
//!   `RankIndex::maybe_compact`, so a snapshot's stamped
//!   [`MisSnapshot::rank_compactions`] always equals the engine's live
//!   counter at quiescence and no snapshot ever carries a tombstoned
//!   (recycled) slot — checked under deletion-heavy node churn where
//!   compaction actually fires.
//!
//! Scale knobs for CI's `concurrency` job: `DMIS_STRESS_ITERS`
//! multiplies stream lengths and sampling quotas; `DMIS_YIELD_SEED`
//! injects seeded `yield_now` calls into the writer loop, forcing
//! different interleavings per seed on runners without a race detector.
//!
//! [`MisSnapshot`]: dmis_core::MisSnapshot
//! [`MisSnapshot::rank_compactions`]: dmis_core::MisSnapshot::rank_compactions

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use dmis_core::{DynamicMis, Engine, MisReader};
use dmis_graph::stream::{self, ChurnConfig};
use dmis_graph::{generators, DynGraph, NodeId, ShardLayout, TopologyChange};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stress multiplier (CI's concurrency job elevates it; default 1).
fn stress() -> usize {
    std::env::var("DMIS_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Seeded-interleaving injector: when `DMIS_YIELD_SEED` is set, the
/// writer yields at pseudo-random points of its loop, so each seed
/// explores a different writer/reader interleaving — the fallback
/// stressor for runners without ThreadSanitizer.
struct YieldInjector {
    state: u64,
    active: bool,
}

impl YieldInjector {
    fn new(salt: u64) -> Self {
        match std::env::var("DMIS_YIELD_SEED")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            Some(seed) => YieldInjector {
                state: (seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1,
                active: true,
            },
            None => YieldInjector {
                state: 0,
                active: false,
            },
        }
    }

    fn tick(&mut self) {
        if !self.active {
            return;
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        if self.state.is_multiple_of(3) {
            thread::yield_now();
        }
    }
}

/// All engine flavors over the same graph and seed, as trait objects —
/// the same set the trait-conformance suite drives.
fn flavors(g: &DynGraph, seed: u64) -> Vec<(&'static str, Box<dyn DynamicMis + Send>)> {
    vec![
        (
            "unsharded",
            Engine::builder().graph(g.clone()).seed(seed).build(),
        ),
        (
            "sharded",
            Engine::builder()
                .graph(g.clone())
                .seed(seed)
                .sharding(ShardLayout::striped(3))
                .build(),
        ),
    ]
}

/// A pre-generated churn stream of the named family, valid against `g`.
fn stream_of(
    family: &str,
    g: &DynGraph,
    ids: &[NodeId],
    len: usize,
    seed: u64,
) -> Vec<TopologyChange> {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        "flapping" => {
            let pool = stream::random_pair_pool(g, 24, &mut rng);
            stream::flapping_stream(g, &pool, len, false, &mut rng)
        }
        "power_law" => stream::power_law_churn(g, ids, 2.5, len, &mut rng),
        _ => {
            // Random mixed churn (edges + node insert/delete), generated
            // against a shadow replay so every change is valid.
            let mut shadow = g.clone();
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                let Some(c) = stream::random_change(&shadow, &ChurnConfig::default(), &mut rng)
                else {
                    break;
                };
                c.apply(&mut shadow).expect("valid against shadow");
                out.push(c);
            }
            out
        }
    }
}

/// One reader sample: the epoch it observed and the full membership it
/// read off the acquired snapshot.
struct Sample {
    epoch: u64,
    mis_len: usize,
    members: Vec<NodeId>,
}

/// What one reader thread brings home.
struct ReaderOutcome {
    samples: Vec<Sample>,
    epoch_regressions: u64,
    final_epoch_observed: u64,
}

/// Reader loop: sample until the writer is done **and** the quota is
/// met, then take one last sample (which must observe the final epoch —
/// the liveness half of the contract).
fn reader_loop(reader: &MisReader, done: &AtomicBool, quota: usize) -> ReaderOutcome {
    let mut samples = Vec::with_capacity(quota + 1);
    let mut regressions = 0u64;
    let mut last = 0u64;
    loop {
        let finished = done.load(Ordering::Acquire);
        let snap = reader.snapshot();
        if snap.epoch() < last {
            regressions += 1;
        }
        last = snap.epoch();
        samples.push(Sample {
            epoch: snap.epoch(),
            mis_len: snap.mis_len(),
            members: snap.iter().collect(),
        });
        if finished && samples.len() >= quota {
            break;
        }
    }
    ReaderOutcome {
        samples,
        epoch_regressions: regressions,
        final_epoch_observed: reader.snapshot().epoch(),
    }
}

/// The centerpiece: for every flavor × reader count × stream family,
/// every concurrently observed snapshot equals the writer's membership
/// at that exact flush boundary, epochs never regress per reader, and
/// the last sample observes the writer's final epoch.
#[test]
fn every_observed_snapshot_is_a_flush_boundary_state() {
    // ≥ 10^4 sampled reads per flavor: 3 configs × quota × R readers,
    // quota chosen so even the R=1 config contributes thousands.
    let quota = 1500 * stress();
    let configs: [(usize, &str); 3] = [(1, "mixed"), (2, "flapping"), (4, "power_law")];
    for (readers, family) in configs {
        let mut rng = StdRng::seed_from_u64(readers as u64);
        let (g, ids) = generators::erdos_renyi(48, 0.15, &mut rng);
        let changes = stream_of(family, &g, &ids, 240 * stress(), 77 + readers as u64);
        assert!(!changes.is_empty());
        for (name, mut engine) in flavors(&g, 9000 + readers as u64) {
            let reader = engine.reader();
            assert_eq!(reader.epoch(), 0, "{name}: attach is epoch 0");

            let done = AtomicBool::new(false);
            let final_epoch = AtomicU64::new(0);
            let (oracle, outcomes) = thread::scope(|s| {
                let handles: Vec<_> = (0..readers)
                    .map(|_| {
                        let r = reader.clone();
                        let done = &done;
                        s.spawn(move || reader_loop(&r, done, quota))
                    })
                    .collect();

                // The writer: one change per epoch, oracle recorded at
                // each quiescence point. Epoch e's oracle entry is
                // complete before epoch e is published (the engine
                // publishes at the *end* of the settle the change
                // triggers), so samples can be verified after the join.
                let mut oracle: Vec<(usize, Vec<NodeId>)> = Vec::with_capacity(changes.len() + 1);
                let membership = |e: &dyn DynamicMis| {
                    let mut m: Vec<NodeId> = e.mis_iter().collect();
                    m.sort_unstable();
                    (e.mis_len(), m)
                };
                oracle.push(membership(&*engine));
                let mut yielder = YieldInjector::new(readers as u64);
                for change in &changes {
                    engine.apply(change).expect("valid change");
                    oracle.push(membership(&*engine));
                    yielder.tick();
                }
                final_epoch.store(changes.len() as u64, Ordering::Release);
                done.store(true, Ordering::Release);
                let outcomes: Vec<ReaderOutcome> = handles
                    .into_iter()
                    .map(|h| h.join().expect("reader threads do not panic"))
                    .collect();
                (oracle, outcomes)
            });

            let expected_final = final_epoch.load(Ordering::Acquire);
            assert_eq!(
                reader.epoch(),
                expected_final,
                "{name}: one publish per settle"
            );
            let mut total = 0usize;
            for outcome in &outcomes {
                assert_eq!(outcome.epoch_regressions, 0, "{name}: epochs monotone");
                assert_eq!(
                    outcome.final_epoch_observed, expected_final,
                    "{name}: liveness — a post-completion sample sees the final epoch"
                );
                total += outcome.samples.len();
                for sample in &outcome.samples {
                    let (oracle_len, oracle_members) = &oracle[sample.epoch as usize];
                    assert_eq!(sample.mis_len, *oracle_len, "{name} epoch {}", sample.epoch);
                    assert_eq!(
                        &sample.members, oracle_members,
                        "{name} epoch {}: snapshot must bit-match the flush boundary",
                        sample.epoch
                    );
                }
            }
            assert!(
                total >= quota * readers,
                "{name}: sampling quota met ({total} samples)"
            );
        }
    }
}

/// Publication-ordering witness, unsharded: the snapshot's compaction
/// stamp always equals the live `RankIndex` counter at quiescence
/// (publication ran strictly after `maybe_compact`), deletion churn
/// makes the counter actually move, and no published member is ever a
/// departed (tombstoned or recycled) node.
#[test]
fn snapshots_publish_after_rank_compaction_unsharded() {
    let (g, ids) = generators::erdos_renyi(64, 0.1, &mut StdRng::seed_from_u64(4));
    let mut engine = dmis_core::Engine::builder()
        .graph(g)
        .seed(17)
        .build_unsharded();
    let reader = engine.reader();
    assert_eq!(
        reader.snapshot().rank_compactions(),
        engine.ranks().compactions()
    );
    // Deletion-heavy phase: removing most nodes drives tombstones past
    // the live count, which is exactly when `maybe_compact` fires.
    for &v in &ids[..56] {
        engine.remove_node(v).expect("live node");
        let snap = reader.snapshot();
        assert_eq!(
            snap.rank_compactions(),
            engine.ranks().compactions(),
            "stamp equals the live counter at quiescence"
        );
        let live: BTreeSet<NodeId> = engine.graph().nodes().collect();
        for m in snap.iter() {
            assert!(live.contains(&m), "published member {m:?} is live");
        }
    }
    assert!(
        engine.ranks().compactions() >= 1,
        "deletion churn must have compacted the rank table"
    );
    // Recycle phase: fresh inserts reuse compacted slots; stamps must
    // keep agreeing.
    for _ in 0..16 {
        engine.insert_node(&[]).expect("valid");
        assert_eq!(
            reader.snapshot().rank_compactions(),
            engine.ranks().compactions()
        );
    }
    engine.assert_internally_consistent();
}

/// The same ordering witness on the sharded engine.
#[test]
fn snapshots_publish_after_rank_compaction_sharded() {
    let (g, ids) = generators::erdos_renyi(64, 0.1, &mut StdRng::seed_from_u64(6));
    let mut engine = dmis_core::Engine::builder()
        .graph(g)
        .sharding(ShardLayout::striped(3))
        .seed(23)
        .build_sharded();
    let reader = engine.reader();
    for &v in &ids[..56] {
        engine.remove_node(v).expect("live node");
        let snap = reader.snapshot();
        assert_eq!(snap.rank_compactions(), engine.ranks().compactions());
        let live: BTreeSet<NodeId> = engine.graph().nodes().collect();
        for m in snap.iter() {
            assert!(live.contains(&m), "published member {m:?} is live");
        }
    }
    assert!(engine.ranks().compactions() >= 1);
    engine.assert_internally_consistent();
}

/// Clone semantics under concurrency: cloning an engine detaches the
/// clone from the original's channel — readers keep following the
/// original, and the clone publishes nowhere until its own `reader()`
/// call creates a fresh channel at epoch 0.
#[test]
fn cloned_engines_do_not_publish_into_the_original_channel() {
    let (g, ids) = generators::cycle(12);
    let mut engine = dmis_core::Engine::builder()
        .graph(g)
        .seed(3)
        .build_unsharded();
    let reader = engine.reader();
    engine.remove_edge(ids[0], ids[1]).expect("valid");
    assert_eq!(reader.epoch(), 1);
    let mut clone = engine.clone();
    clone.remove_edge(ids[4], ids[5]).expect("valid");
    assert_eq!(reader.epoch(), 1, "clone settles must not publish here");
    let clone_reader = clone.reader();
    assert_eq!(clone_reader.epoch(), 0, "fresh channel starts at attach");
    clone.remove_edge(ids[7], ids[8]).expect("valid");
    assert_eq!(clone_reader.epoch(), 1);
    assert_eq!(reader.epoch(), 1);
}
