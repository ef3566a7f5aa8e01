//! Fault-injection sweep: whatever byte the crash or corruption lands
//! on, recovery never panics and always lands on a **prefix state** of
//! the true history.
//!
//! A reference writer logs a 200-change history (one WAL record per
//! change, checkpoints every 64, each save retiring the log prefix its
//! image reflects), remembering the store's files at every record
//! boundary, every record's bytes, every checkpoint, and every prefix
//! state. The sweep then crashes a copy of the store at
//! every record boundary — and at seeded offsets *inside* records, under
//! seeded bit flips, and at every step of a checkpoint save — and proves
//! [`recover`] returns either a prefix state (bit-identical MIS + epoch
//! for that prefix) or a clean error, never a panic and never an
//! invented state.

use std::collections::BTreeSet;
use std::sync::Arc;

use dmis_core::durability::{
    recover, splitmix64, Checkpoint, FaultIo, MemIo, RecoverError, StorageIo, WriteAheadLog,
    CHECKPOINT_FILE, WAL_FILE,
};
use dmis_core::{DynamicMis, Engine, MisEngine};
use dmis_graph::stream::{self, ChurnConfig};
use dmis_graph::{NodeId, TopologyChange};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHANGES: usize = 200;
const CKP_EVERY: u64 = 64;

/// The store's two files at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Files {
    image: Vec<u8>,
    wal: Vec<u8>,
}

impl Files {
    fn of(store: &MemIo) -> Self {
        Files {
            image: store.read(CHECKPOINT_FILE).unwrap().unwrap(),
            wal: store.read(WAL_FILE).unwrap().unwrap(),
        }
    }

    /// A fresh store holding exactly these files.
    fn store(&self) -> MemIo {
        let store = MemIo::new();
        store.write_atomic(CHECKPOINT_FILE, &self.image).unwrap();
        store.write_atomic(WAL_FILE, &self.wal).unwrap();
        store
    }
}

/// The reference history.
struct Reference {
    /// The shared store's final files.
    store: MemIo,
    /// `settled[r]`: the files once record `r - 1` is logged and applied
    /// and the checkpoint due at `r`, if any, is saved.
    settled: Vec<Files>,
    /// `(r, checkpoint)` for each checkpoint saved after the first, at
    /// record `r`.
    checkpoints: Vec<(u64, Checkpoint)>,
    /// `frames[r]`: the bytes the append of record `r` wrote.
    frames: Vec<Vec<u8>>,
    prefix_mis: Vec<BTreeSet<NodeId>>,
}

impl Reference {
    /// The files right after record `r` was appended, before the save
    /// of any checkpoint at `r + 1`.
    fn logged(&self, r: usize) -> Files {
        let mut files = self.settled[r].clone();
        files.wal.extend_from_slice(&self.frames[r]);
        files
    }
}

fn churny() -> ChurnConfig {
    ChurnConfig {
        edge_insert: 0.3,
        edge_delete: 0.25,
        node_insert: 0.25,
        node_delete: 0.2,
        max_new_degree: 4,
    }
}

fn drive_reference() -> Reference {
    let store = MemIo::new();
    let io: Arc<dyn StorageIo> = Arc::new(store.clone());
    let mut engine: MisEngine = Engine::builder().seed(5).build_unsharded();
    let _reader = engine.reader(); // epochs are part of the prefix state
    let mut wal = WriteAheadLog::create(Arc::clone(&io)).unwrap();
    Checkpoint::capture(&engine, 0).save(io.as_ref()).unwrap();

    let mut settled = vec![Files::of(&store)];
    let mut checkpoints = Vec::new();
    let mut frames = Vec::new();
    let mut prefix_mis = vec![engine.mis()];
    let mut rng = StdRng::seed_from_u64(99);
    for i in 0..CHANGES {
        let change = stream::random_change(engine.graph(), &churny(), &mut rng).unwrap_or(
            TopologyChange::InsertNode {
                id: engine.graph().peek_next_id(),
                edges: vec![],
            },
        );
        let batch = [change];
        let before = store.file_len(WAL_FILE).unwrap();
        wal.append(&batch).unwrap();
        engine.apply_batch(&batch).unwrap();
        frames.push(store.read(WAL_FILE).unwrap().unwrap()[before..].to_vec());
        prefix_mis.push(engine.mis());
        let done = (i + 1) as u64;
        if done.is_multiple_of(CKP_EVERY) {
            let ckp = Checkpoint::capture(&engine, done);
            ckp.save(io.as_ref()).unwrap();
            checkpoints.push((done, ckp));
        }
        settled.push(Files::of(&store));
    }
    Reference {
        store,
        settled,
        checkpoints,
        frames,
        prefix_mis,
    }
}

/// Asserts that `store` recovers to a whole-record prefix of the
/// reference history with the matching MIS and epoch; `max_records`
/// bounds which prefix is reachable. Returns the prefix length.
fn assert_recovers_to_prefix(reference: &Reference, store: MemIo, max_records: u64) -> u64 {
    let recovered = recover(Arc::new(store)).expect("recovery must succeed");
    let landed = recovered.checkpoint_seq + recovered.replayed as u64;
    assert!(landed <= max_records, "invented records beyond the tear");
    assert_eq!(
        recovered.engine.mis(),
        reference.prefix_mis[landed as usize],
        "not the prefix state at record {landed}"
    );
    assert_eq!(
        recovered.engine.durability_meta().epoch,
        Some(landed),
        "prefix epoch mismatch at record {landed}"
    );
    landed
}

#[test]
fn crash_at_every_record_boundary_recovers_that_exact_prefix() {
    let reference = drive_reference();
    assert_eq!(reference.settled.len(), CHANGES + 1);
    for (r, files) in reference.settled.iter().enumerate() {
        let r = r as u64;
        let landed = assert_recovers_to_prefix(&reference, files.store(), r);
        assert_eq!(landed, r, "a whole-record log replays in full");
    }
    // Just before each save: the old image under a full interval of log.
    assert_eq!(reference.checkpoints.len(), CHANGES / 64);
    for (r, _) in &reference.checkpoints {
        let files = reference.logged(*r as usize - 1);
        let landed = assert_recovers_to_prefix(&reference, files.store(), *r);
        assert_eq!(landed, *r, "a crash before the save keeps record {r}");
    }
}

#[test]
fn crash_inside_a_record_truncates_back_to_the_boundary() {
    let reference = drive_reference();
    let history: usize = reference.frames.iter().map(Vec::len).sum();
    for seed in 0..40u64 {
        // A seeded offset into the concatenated history of records.
        let mut at = (splitmix64(seed) % history as u64) as usize;
        let mut r = 0;
        while at >= reference.frames[r].len() {
            at -= reference.frames[r].len();
            r += 1;
        }
        if at == 0 {
            continue; // exact boundary — covered by the sweep above
        }
        // The append of record r tore after `at` of its bytes.
        let mut files = reference.settled[r].clone();
        files.wal.extend_from_slice(&reference.frames[r][..at]);
        let landed = assert_recovers_to_prefix(&reference, files.store(), r as u64);
        assert_eq!(
            landed, r as u64,
            "seed={seed}: torn tail must fall back to boundary"
        );
    }
}

#[test]
fn seeded_bit_flips_never_panic_and_never_invent_state() {
    let reference = drive_reference();
    let header_len = reference.settled[0].wal.len();
    let history: usize = reference.frames.iter().map(Vec::len).sum();
    let wal_len = (header_len + history) as u64;
    for seed in 0..60u64 {
        // A seeded offset into the log header followed by the
        // concatenated history of records; a record is flipped in the
        // log that held it just after its append.
        let offset = (splitmix64(0xF00D ^ seed) % wal_len) as usize;
        let mask = 1u8 << (splitmix64(seed ^ 0xBEEF) % 8) as u8;
        let store = if offset < header_len {
            let store = reference.store.fork();
            assert!(store.corrupt(WAL_FILE, offset, mask));
            store
        } else {
            let mut at = offset - header_len;
            let mut r = 0;
            while at >= reference.frames[r].len() {
                at -= reference.frames[r].len();
                r += 1;
            }
            let mut files = reference.logged(r);
            let flip = files.wal.len() - reference.frames[r].len() + at;
            files.wal[flip] ^= mask;
            files.store()
        };
        // The flip lands in some record (or the header); everything from
        // that record on is discarded, so recovery lands on a prefix.
        match std::panic::catch_unwind(|| recover(Arc::new(store))) {
            Ok(Ok(recovered)) => {
                let landed = recovered.checkpoint_seq + recovered.replayed as u64;
                assert_eq!(
                    recovered.engine.mis(),
                    reference.prefix_mis[landed as usize],
                    "seed={seed}: flipped log produced a non-prefix state"
                );
            }
            Ok(Err(e)) => panic!("seed={seed}: WAL corruption must truncate, not fail: {e}"),
            Err(_) => panic!("seed={seed}: recovery panicked"),
        }
    }
}

#[test]
fn every_header_bit_flip_restarts_the_log_no_later_than_the_recovered_epoch() {
    let reference = drive_reference();
    let header_len = reference.settled[0].wal.len();
    for bit in 0..8 * header_len {
        let store = reference.store.fork();
        assert!(store.corrupt(WAL_FILE, bit / 8, 1 << (bit % 8)));
        let recovered = recover(Arc::new(store)).expect("a damaged header starts a fresh log");
        let landed = recovered.checkpoint_seq + recovered.replayed as u64;
        assert!(
            recovered.wal.records_persisted() <= landed,
            "bit {bit}: the log would append at {} past the recovered epoch {landed}",
            recovered.wal.records_persisted()
        );
        assert_eq!(
            recovered.engine.mis(),
            reference.prefix_mis[landed as usize],
            "bit {bit}"
        );
    }
}

#[test]
fn a_crash_after_the_image_lands_keeps_the_new_image_and_the_old_log() {
    let reference = drive_reference();
    for (r, ckp) in &reference.checkpoints {
        let before = reference.logged(*r as usize - 1);
        let image_len = ckp.encode().len() as u64;
        let rewrite_len = reference.settled[*r as usize].wal.len() as u64;
        // No spare byte: the image landed and the rewrite never started.
        // The others die inside the rewrite.
        for spare in [0, 1, rewrite_len - 1] {
            let store = before.store();
            let faulty = FaultIo::crash_after(store.clone(), image_len + spare);
            assert!(ckp.save(&faulty).is_err(), "r={r} spare={spare}");
            assert_eq!(
                Files::of(&store),
                Files {
                    image: ckp.encode(),
                    wal: before.wal.clone()
                },
                "r={r} spare={spare}"
            );
            // Replay skips the records the new image already holds.
            let recovered = recover(Arc::new(store.fork())).unwrap();
            assert_eq!(recovered.checkpoint_seq, *r);
            assert_eq!(recovered.replayed, 0);
            assert_eq!(recovered.wal.records_persisted(), *r);
            assert_eq!(assert_recovers_to_prefix(&reference, store, *r), *r);
        }
        // One byte more and the save completes: the settled files.
        let store = before.store();
        let healthy = FaultIo::crash_after(store.clone(), image_len + rewrite_len);
        ckp.save(&healthy).unwrap();
        assert_eq!(Files::of(&store), reference.settled[*r as usize]);
    }
}

#[test]
fn a_crash_inside_the_image_write_keeps_the_old_image_and_the_old_log() {
    let reference = drive_reference();
    for (r, ckp) in &reference.checkpoints {
        let before = reference.logged(*r as usize - 1);
        let image_len = ckp.encode().len() as u64;
        for budget in [0, image_len / 2, image_len - 1] {
            let store = before.store();
            let faulty = FaultIo::crash_after(store.clone(), budget);
            assert!(ckp.save(&faulty).is_err(), "r={r} budget={budget}");
            assert_eq!(Files::of(&store), before, "r={r} budget={budget}");
            let recovered = recover(Arc::new(store.fork())).unwrap();
            assert_eq!(recovered.checkpoint_seq, r - CKP_EVERY);
            assert_eq!(recovered.replayed as u64, CKP_EVERY);
            assert_eq!(assert_recovers_to_prefix(&reference, store, *r), *r);
        }
    }
}

#[test]
fn checkpoint_corruption_is_a_loud_error_never_a_panic() {
    let reference = drive_reference();
    let ckp_len = reference.store.file_len(CHECKPOINT_FILE).unwrap() as u64;
    for seed in 0..60u64 {
        let store = reference.store.fork();
        let offset = (splitmix64(0xCAFE ^ seed) % ckp_len) as usize;
        assert!(store.corrupt(CHECKPOINT_FILE, offset, 0x20));
        match std::panic::catch_unwind(|| recover(Arc::new(store))) {
            Ok(Err(RecoverError::Corrupt(_))) => {}
            Ok(Ok(_)) => panic!("seed={seed}: corrupted checkpoint decoded cleanly"),
            Ok(Err(e)) => panic!("seed={seed}: unexpected error class: {e}"),
            Err(_) => panic!("seed={seed}: recovery panicked"),
        }
    }
}
