//! Checksummed binary checkpoints of full engine state.
//!
//! # On-disk format
//!
//! ```text
//! "DMISCKP2"                                  (8-byte magic)
//! four frames, in this order, each:
//!   tag: u8 | len: u64 LE | payload | crc: u32 LE   (CRC over tag+len+payload)
//!
//! META  (tag 1): flavor u8, shards u64, block u64, seed u64, draws u64,
//!                epoch flag u8 (+ epoch u64), wal_seq u64
//! GRAPH (tag 2): next_id u64, node count + ids, edge count + (u,v) pairs
//! PRIO  (tag 3): count + (id, key) pairs
//! MIS   (tag 4): count + member ids — the corruption witness
//! ```
//!
//! Only the priorities are serialized, not any order derived from them:
//! engine construction sorts them into π once
//! ([`PriorityMap::nodes_by_priority`](crate::PriorityMap::nodes_by_priority)),
//! so persisting the order would only add bytes and a second copy to
//! corrupt. Likewise the membership is rebuilt as the greedy fixed point of the
//! graph and priorities — the MIS frame exists purely as a **witness**:
//! [`Checkpoint::restore`] recomputes the unique greedy fixed point and
//! refuses ([`RecoverError::Witness`]) if it differs from what was
//! captured, turning any logic or codec drift into a loud error instead
//! of a silently different output.
//!
//! Version 2 (`DMISCKP2`) dropped version 1's META `threads` field. The
//! magic changed with it because the two META layouts are not
//! self-distinguishing: a v1 frame without an epoch is exactly as long as
//! a v2 frame with one, so a v1 image read as v2 would shift every field
//! (its `threads` read as the seed, its seed as the draw count) and
//! restore would fast-forward the RNG by a seed-sized count. Version 1
//! images are refused with [`CodecError::BadMagic`].

use std::io;

use dmis_graph::{DynGraph, EdgeKey, NodeId, ShardLayout};

use super::codec::{crc32, put_u32, put_u64, put_u8, CodecError, Cursor};
use super::recover::RecoverError;
use super::wal::retire_before;
use super::{DurabilityMeta, EngineFlavor, StorageIo, CHECKPOINT_FILE};
use crate::api::DynamicMis;
use crate::sharding::ShardSchedule;
use crate::{MisEngine, Priority, PriorityMap};

const CKP_MAGIC: &[u8; 8] = b"DMISCKP2";

const TAG_META: u8 = 1;
const TAG_GRAPH: u8 = 2;
const TAG_PRIO: u8 = 3;
const TAG_MIS: u8 = 4;

const FLAVOR_UNSHARDED: u8 = 0;
const FLAVOR_SHARDED: u8 = 1;

/// A decoded (or freshly captured) image of full engine state, plus the
/// WAL sequence number it is consistent with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    meta: DurabilityMeta,
    wal_seq: u64,
    next_id: u64,
    nodes: Vec<NodeId>,
    edges: Vec<(NodeId, NodeId)>,
    priorities: Vec<(NodeId, u64)>,
    mis: Vec<NodeId>,
}

impl Checkpoint {
    /// Captures the engine's full state. `wal_seq` records how many WAL
    /// records are already reflected in this state, so recovery knows
    /// where replay starts: a checkpoint taken right after the `k`-th
    /// logged flush is captured with `wal_seq = k`.
    #[must_use]
    pub fn capture(engine: &dyn DynamicMis, wal_seq: u64) -> Self {
        let g = engine.graph();
        Checkpoint {
            meta: engine.durability_meta(),
            wal_seq,
            next_id: g.peek_next_id().index(),
            nodes: g.nodes().collect(),
            edges: g.edges().map(EdgeKey::endpoints).collect(),
            priorities: engine
                .priorities()
                .iter()
                .map(|(id, p)| (id, p.key()))
                .collect(),
            mis: engine.mis_iter().collect(),
        }
    }

    /// The captured engine metadata (flavor, layout, RNG position,
    /// epoch).
    #[must_use]
    pub fn meta(&self) -> DurabilityMeta {
        self.meta
    }

    /// Number of WAL records already reflected in this state — the
    /// sequence number replay resumes from.
    #[must_use]
    pub fn wal_seq(&self) -> u64 {
        self.wal_seq
    }

    /// Serializes to the framed binary format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + 8 * self.nodes.len()
                + 16 * self.edges.len()
                + 16 * self.priorities.len()
                + 8 * self.mis.len(),
        );
        out.extend_from_slice(CKP_MAGIC);

        let mut meta = Vec::with_capacity(64);
        put_u8(
            &mut meta,
            match self.meta.flavor {
                EngineFlavor::Unsharded => FLAVOR_UNSHARDED,
                EngineFlavor::Sharded => FLAVOR_SHARDED,
            },
        );
        put_u64(&mut meta, self.meta.shards as u64);
        put_u64(&mut meta, self.meta.block);
        put_u64(&mut meta, self.meta.seed);
        put_u64(&mut meta, self.meta.draws);
        match self.meta.epoch {
            Some(e) => {
                put_u8(&mut meta, 1);
                put_u64(&mut meta, e);
            }
            None => put_u8(&mut meta, 0),
        }
        put_u64(&mut meta, self.wal_seq);
        put_frame(&mut out, TAG_META, &meta);

        let mut graph = Vec::with_capacity(24 + 8 * self.nodes.len() + 16 * self.edges.len());
        put_u64(&mut graph, self.next_id);
        put_u64(&mut graph, self.nodes.len() as u64);
        for &v in &self.nodes {
            put_u64(&mut graph, v.index());
        }
        put_u64(&mut graph, self.edges.len() as u64);
        for &(u, v) in &self.edges {
            put_u64(&mut graph, u.index());
            put_u64(&mut graph, v.index());
        }
        put_frame(&mut out, TAG_GRAPH, &graph);

        let mut prio = Vec::with_capacity(8 + 16 * self.priorities.len());
        put_u64(&mut prio, self.priorities.len() as u64);
        for &(id, key) in &self.priorities {
            put_u64(&mut prio, id.index());
            put_u64(&mut prio, key);
        }
        put_frame(&mut out, TAG_PRIO, &prio);

        let mut mis = Vec::with_capacity(8 + 8 * self.mis.len());
        put_u64(&mut mis, self.mis.len() as u64);
        for &v in &self.mis {
            put_u64(&mut mis, v.index());
        }
        put_frame(&mut out, TAG_MIS, &mis);

        out
    }

    /// Decodes and fully vets a checkpoint image: magic, per-frame
    /// CRCs, tag order, and internal consistency (node ids strictly
    /// ascending; priority ids equal to the node ids, in order; the
    /// witness an ascending sub-sequence of the nodes). Designed
    /// to reject arbitrary corrupted bytes with an error, never a panic
    /// or a huge allocation.
    ///
    /// # Errors
    ///
    /// The specific [`CodecError`] describing the first defect found.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        if bytes.len() < CKP_MAGIC.len() {
            return Err(CodecError::Truncated);
        }
        if &bytes[..CKP_MAGIC.len()] != CKP_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let mut cur = Cursor::new(&bytes[CKP_MAGIC.len()..]);

        let meta_bytes = take_frame(&mut cur, TAG_META)?;
        let mut m = Cursor::new(meta_bytes);
        let flavor = match m.u8()? {
            FLAVOR_UNSHARDED => EngineFlavor::Unsharded,
            FLAVOR_SHARDED => EngineFlavor::Sharded,
            tag => return Err(CodecError::BadTag(tag)),
        };
        let shards = usize::try_from(m.u64()?).map_err(|_| CodecError::Truncated)?;
        let block = m.u64()?;
        let seed = m.u64()?;
        let draws = m.u64()?;
        let epoch = match m.u8()? {
            0 => None,
            1 => Some(m.u64()?),
            tag => return Err(CodecError::BadTag(tag)),
        };
        let wal_seq = m.u64()?;
        if !m.is_empty() {
            return Err(CodecError::Inconsistent("trailing bytes in META frame"));
        }
        if shards == 0 || block == 0 {
            return Err(CodecError::Inconsistent("zero shard/block axis"));
        }

        let graph_bytes = take_frame(&mut cur, TAG_GRAPH)?;
        let mut g = Cursor::new(graph_bytes);
        let next_id = g.u64()?;
        let nodes = take_id_list(&mut g)?;
        let edge_count = checked_count(&g, 16)?;
        let _ = g.u64()?; // consume the count we peeked
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            edges.push((NodeId(g.u64()?), NodeId(g.u64()?)));
        }
        if !g.is_empty() {
            return Err(CodecError::Inconsistent("trailing bytes in GRAPH frame"));
        }

        let prio_bytes = take_frame(&mut cur, TAG_PRIO)?;
        let mut p = Cursor::new(prio_bytes);
        let prio_count = checked_count(&p, 16)?;
        let _ = p.u64()?; // consume the count we peeked
        let mut priorities = Vec::with_capacity(prio_count);
        for _ in 0..prio_count {
            priorities.push((NodeId(p.u64()?), p.u64()?));
        }
        if !p.is_empty() {
            return Err(CodecError::Inconsistent("trailing bytes in PRIO frame"));
        }

        let mis_bytes = take_frame(&mut cur, TAG_MIS)?;
        let mut w = Cursor::new(mis_bytes);
        let mis = take_id_list(&mut w)?;
        if !w.is_empty() {
            return Err(CodecError::Inconsistent("trailing bytes in MIS frame"));
        }
        if !cur.is_empty() {
            return Err(CodecError::Inconsistent("trailing bytes after MIS frame"));
        }

        // Cross-section consistency: the priority map must cover the
        // node set exactly (engine construction *panics* otherwise, and
        // decode of hostile bytes must never panic), and the witness
        // can only name live nodes. `capture` writes all three lists in
        // ascending id order, so merge walks check both in O(n).
        if !nodes.windows(2).all(|w| w[0] < w[1]) {
            return Err(CodecError::Inconsistent(
                "node ids are not strictly ascending",
            ));
        }
        if !priorities
            .iter()
            .map(|&(id, _)| id)
            .eq(nodes.iter().copied())
        {
            return Err(CodecError::Inconsistent(
                "priorities do not cover the node set exactly",
            ));
        }
        // A strictly ascending node list makes any sub-sequence of it
        // strictly ascending too; a repeated or out-of-order witness id
        // finds no match left in `live`.
        let mut live = nodes.iter();
        if !mis.iter().all(|v| live.any(|u| u == v)) {
            return Err(CodecError::Inconsistent(
                "witness names a dead node or is out of order",
            ));
        }

        Ok(Checkpoint {
            meta: DurabilityMeta {
                flavor,
                shards,
                block,
                seed,
                draws,
                epoch,
            },
            wal_seq,
            next_id,
            nodes,
            edges,
            priorities,
            mis,
        })
    }

    /// Atomically writes the image as [`CHECKPOINT_FILE`], then retires
    /// the WAL records it reflects: the log is rewritten to hold only
    /// the records from [`Self::wal_seq`] on, so recovery reads one
    /// checkpoint interval of log, not the whole uptime. The rewrite
    /// starts only after the image's `write_atomic` has returned, and
    /// [`StorageIo::write_atomic`] makes returned calls durable in order,
    /// so no crash can leave a log whose base is past the durable image.
    /// A log that is missing, foreign, already based at or past
    /// `wal_seq`, or shorter than `wal_seq` records is left as it is.
    ///
    /// Call it on the thread that appends to the log: an append racing
    /// the rewrite would be lost with the replaced file.
    ///
    /// # Errors
    ///
    /// Propagates storage errors. If the image write fails, the previous
    /// image and the log survive; if the log rewrite fails, the new image
    /// and the old log survive, and recovery replays from the new image.
    pub fn save(&self, io: &dyn StorageIo) -> io::Result<()> {
        io.write_atomic(CHECKPOINT_FILE, &self.encode())?;
        retire_before(io, self.wal_seq)
    }

    /// Reads and decodes [`CHECKPOINT_FILE`]; `Ok(None)` if absent.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Io`] on storage failure, [`RecoverError::Corrupt`]
    /// if the bytes exist but do not decode.
    pub fn load(io: &dyn StorageIo) -> Result<Option<Self>, RecoverError> {
        match io.read(CHECKPOINT_FILE).map_err(RecoverError::Io)? {
            None => Ok(None),
            Some(bytes) => Checkpoint::decode(&bytes)
                .map(Some)
                .map_err(RecoverError::Corrupt),
        }
    }

    /// Rebuilds a live engine of the captured flavor: reserves a sharded
    /// image's shard queues, builds the graph from the decoded lists in
    /// bulk ([`DynGraph::from_adjacency`]), rebuilds the priority map,
    /// seeds membership and counters in one sweep in increasing π (the
    /// unique greedy fixed point for that pair), fast-forwards the RNG by
    /// the recorded draw count, and re-attaches the publisher at the
    /// captured epoch. The adjacency
    /// build and the sweep are the cost, about what building the same
    /// graph and engine from an edge list costs. The recomputed MIS is
    /// checked against the stored witness before the engine is handed
    /// out: both are ascending id lists ([`Checkpoint::capture`] writes
    /// [`DynamicMis::mis_iter`] order), compared element by element.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Corrupt`] if a sharded image's shard queues
    /// cannot be reserved, or if graph reconstruction rejects the
    /// adjacency section, including a watermark whose slot arena cannot
    /// be reserved; [`RecoverError::Witness`] if the recomputed MIS
    /// differs from the captured one — including a witness that names
    /// the right members out of ascending order, which `capture` never
    /// writes.
    pub fn restore(&self) -> Result<Box<dyn DynamicMis + Send>, RecoverError> {
        let meta = self.meta;
        let sharding = match meta.flavor {
            EngineFlavor::Unsharded => None,
            EngineFlavor::Sharded => {
                let layout = ShardLayout::blocked(meta.shards, meta.block);
                let schedule = ShardSchedule::new(layout).map_err(|_| {
                    RecoverError::Corrupt(CodecError::Inconsistent("shard queues unreservable"))
                })?;
                Some(schedule)
            }
        };
        let graph = DynGraph::from_adjacency(NodeId(self.next_id), &self.nodes, &self.edges)
            .map_err(|_| RecoverError::Corrupt(CodecError::Inconsistent("adjacency rejected")))?;
        let mut pm = PriorityMap::new();
        for &(id, key) in &self.priorities {
            pm.insert(id, Priority::new(key, id));
        }
        let mut engine: Box<dyn DynamicMis + Send> =
            Box::new(MisEngine::from_parts_impl(graph, pm, sharding, meta.seed));
        // Fast-forward the RNG stream position: construction with
        // prescribed priorities drew nothing, so exactly `draws` throw-
        // away draws put every *future* draw where the original's would
        // be (and the engine's own draw counter self-tracks to match).
        for _ in 0..meta.draws {
            let _ = engine.draw_key();
        }
        if !engine.mis_iter().eq(self.mis.iter().copied()) {
            return Err(RecoverError::Witness);
        }
        if let Some(epoch) = meta.epoch {
            engine.restore_epoch(epoch);
        }
        Ok(engine)
    }
}

fn put_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let start = out.len();
    put_u8(out, tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

fn take_frame<'a>(cur: &mut Cursor<'a>, expect: u8) -> Result<&'a [u8], CodecError> {
    let start = cur.pos();
    let tag = cur.u8()?;
    if tag != expect {
        return Err(CodecError::BadTag(tag));
    }
    let len = usize::try_from(cur.u64()?).map_err(|_| CodecError::Truncated)?;
    let payload = cur.take(len)?;
    let end = cur.pos();
    let crc = cur.u32()?;
    if crc32(cur.raw(start, end)) != crc {
        return Err(CodecError::Checksum);
    }
    Ok(payload)
}

/// A count-prefixed list's length, pre-validated against the bytes that
/// could actually hold it (`stride` bytes per entry) so hostile prefixes
/// never trigger huge allocations.
fn checked_count(cur: &Cursor<'_>, stride: usize) -> Result<usize, CodecError> {
    let mut peek = Cursor::new(cur.raw(cur.pos(), cur.pos() + cur.remaining().min(8)));
    let count = peek.u64()?;
    if count > ((cur.remaining() - 8) / stride) as u64 {
        return Err(CodecError::Truncated);
    }
    usize::try_from(count).map_err(|_| CodecError::Truncated)
}

fn take_id_list(cur: &mut Cursor<'_>) -> Result<Vec<NodeId>, CodecError> {
    let count = checked_count(cur, 8)?;
    let _ = cur.u64()?; // consume the count we peeked
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(NodeId(cur.u64()?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::MemIo;
    use super::*;
    use crate::Engine;
    use dmis_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_engine() -> crate::MisEngine {
        let mut rng = StdRng::seed_from_u64(21);
        let (g, _) = generators::erdos_renyi(30, 0.15, &mut rng);
        Engine::builder().graph(g).seed(7).build_unsharded()
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let engine = sample_engine();
        let ckp = Checkpoint::capture(&engine, 3);
        let decoded = Checkpoint::decode(&ckp.encode()).unwrap();
        assert_eq!(decoded, ckp);
        assert_eq!(decoded.wal_seq(), 3);
        assert_eq!(decoded.meta(), engine.durability_meta());
    }

    #[test]
    fn restore_rebuilds_a_bit_identical_engine() {
        let mut engine = sample_engine();
        let reader = engine.reader();
        let ckp = Checkpoint::capture(&engine, 0);
        let restored = ckp.restore().unwrap();
        assert_eq!(restored.mis(), engine.mis());
        assert_eq!(restored.durability_meta(), engine.durability_meta());
        let _ = reader;
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let engine = sample_engine();
        let bytes = Checkpoint::capture(&engine, 1).encode();
        for i in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[i] ^= 0x10;
            assert!(
                Checkpoint::decode(&dirty).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let engine = sample_engine();
        let bytes = Checkpoint::capture(&engine, 1).encode();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn save_and_load_through_storage() {
        let io = MemIo::new();
        assert!(Checkpoint::load(&io).unwrap().is_none());
        let engine = sample_engine();
        let ckp = Checkpoint::capture(&engine, 9);
        ckp.save(&io).unwrap();
        let loaded = Checkpoint::load(&io).unwrap().unwrap();
        assert_eq!(loaded, ckp);

        io.corrupt(CHECKPOINT_FILE, 40, 0x04);
        assert!(matches!(
            Checkpoint::load(&io),
            Err(RecoverError::Corrupt(_))
        ));
    }

    #[test]
    fn a_forged_witness_is_refused() {
        let engine = sample_engine();
        let mut ckp = Checkpoint::capture(&engine, 0);
        // Forge the witness: drop one member. The recomputed greedy MIS
        // cannot match, so restore must refuse.
        assert!(!ckp.mis.is_empty());
        let mut dropped = ckp.clone();
        dropped.mis.pop();
        assert!(matches!(dropped.restore(), Err(RecoverError::Witness)));
        // Forge it again: the right members, out of ascending order.
        assert!(ckp.mis.len() >= 2);
        ckp.mis.reverse();
        assert!(matches!(ckp.restore(), Err(RecoverError::Witness)));
    }

    #[test]
    fn an_unallocatable_watermark_is_refused() {
        // The watermark sizes the restored graph's slot arena. An image
        // whose CRCs hold may still carry one no allocator can reserve;
        // restore must refuse it as corrupt, not abort on the allocation.
        for watermark in [1u64 << 62, u64::MAX] {
            let mut ckp = Checkpoint::capture(&sample_engine(), 0);
            ckp.next_id = watermark;
            let decoded = Checkpoint::decode(&ckp.encode()).unwrap();
            assert!(
                matches!(decoded.restore(), Err(RecoverError::Corrupt(_))),
                "watermark {watermark}"
            );
        }
    }

    #[test]
    fn a_forged_shard_count_is_refused() {
        // A sharded image's shard count sizes the restored engine's shard
        // queues. Decode vets only a zero count, so a CRC-valid image may
        // carry one no allocator can reserve; restore must refuse it as
        // corrupt, not abort on the allocation.
        let mut rng = StdRng::seed_from_u64(21);
        let (g, _) = generators::erdos_renyi(30, 0.15, &mut rng);
        let engine = Engine::builder()
            .graph(g)
            .seed(7)
            .sharding(ShardLayout::striped(3))
            .build_sharded();
        for shards in [1usize << 62, usize::MAX] {
            let mut ckp = Checkpoint::capture(&engine, 0);
            ckp.meta.shards = shards;
            let decoded = Checkpoint::decode(&ckp.encode()).unwrap();
            assert_eq!(decoded.meta().flavor, EngineFlavor::Sharded);
            assert!(
                matches!(decoded.restore(), Err(RecoverError::Corrupt(_))),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn hostile_lists_decode_to_inconsistent_never_a_panic() {
        let ckp = Checkpoint::capture(&sample_engine(), 0);
        assert!(ckp.nodes.len() >= 2 && ckp.mis.len() >= 2);
        let mut nodes_out_of_order = ckp.clone();
        nodes_out_of_order.nodes.swap(0, 1);
        let mut priority_not_a_node = ckp.clone();
        priority_not_a_node.priorities[1].0 = NodeId(ckp.next_id + 7);
        let mut priority_duplicated = ckp.clone();
        priority_duplicated.priorities[1].0 = ckp.priorities[0].0;
        let mut witness_dead_node = ckp.clone();
        witness_dead_node.mis.push(NodeId(ckp.next_id));
        let mut witness_out_of_order = ckp.clone();
        witness_out_of_order.mis.reverse();
        for (what, image) in [
            ("nodes out of order", nodes_out_of_order),
            ("priority id missing from the nodes", priority_not_a_node),
            ("duplicated priority id", priority_duplicated),
            ("witness names a dead node", witness_dead_node),
            ("witness out of order", witness_out_of_order),
        ] {
            assert!(
                matches!(
                    Checkpoint::decode(&image.encode()),
                    Err(CodecError::Inconsistent(_))
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn a_version_1_image_is_refused() {
        // A v1 META frame without an epoch is as long as a v2 frame with
        // one, so only the magic tells the layouts apart.
        let mut bytes = Checkpoint::capture(&sample_engine(), 0).encode();
        bytes[..CKP_MAGIC.len()].copy_from_slice(b"DMISCKP1");
        assert_eq!(Checkpoint::decode(&bytes), Err(CodecError::BadMagic));
    }
}
