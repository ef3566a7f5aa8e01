//! Checksummed binary checkpoints of full engine state.
//!
//! # On-disk format
//!
//! ```text
//! "DMISCKP3"                                  (8-byte magic)
//! four frames, in this order, each:
//!   tag: u8 | len: u64 LE | payload | crc: u32 LE   (CRC over tag+len+payload)
//!
//! META  (tag 1): flavor u8, shards u64, block u64, seed u64, draws u64,
//!                epoch flag u8 (+ epoch u64), wal_seq u64
//! GRAPH (tag 2): next_id u64, node count n u64, edge count m u64, then
//!                per live node, in ascending id order, three LEB128
//!                varints: the gap from the previous node id (the first
//!                gap is the id itself), the upper degree d⁺, and d⁺
//!                ascending gaps to the higher neighbours, counted from
//!                the node itself
//! PRIO  (tag 3): the n keys, u64 LE, in node order
//! MIS   (tag 4): member count u64, then the ascending member id gaps as
//!                varints — the corruption witness
//! ```
//!
//! Every list is an ascending id list the engine already holds, so the
//! image stores gaps, not ids: each edge appears once, at its lower
//! endpoint, and PRIO's node ids are implied by GRAPH's order. On a
//! G(10⁵, 4·10⁵) graph that is about 19 bytes per node.
//!
//! A [`Checkpoint`] holds its encoded image. [`Checkpoint::capture`]
//! writes it in one pass straight from the engine into one buffer sized
//! up front, and [`Checkpoint::save`] writes those bytes. One frame
//! reader serves both [`Checkpoint::decode`], which vets an image
//! without building any list, and [`Checkpoint::restore`], which walks
//! the vetted frames once to build the engine.
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
//! Version 3 (`DMISCKP3`) gap-codes GRAPH and MIS and drops PRIO's ids;
//! version 2 (`DMISCKP2`) dropped version 1's META `threads` field. Each
//! layout changed the magic, and images of versions 1 and 2 are refused
//! with [`CodecError::BadMagic`].

use std::{fmt, io};

use dmis_graph::{DynGraph, NodeId, ShardLayout};

use super::codec::{crc32, put_u32, put_u64, put_u8, put_varint, varint_len, CodecError, Cursor};
use super::recover::RecoverError;
use super::wal::retire_before;
use super::{DurabilityMeta, EngineFlavor, StorageIo, CHECKPOINT_FILE};
use crate::api::DynamicMis;
use crate::sharding::ShardSchedule;
use crate::{MisEngine, Priority, PriorityMap};

const CKP_MAGIC: &[u8; 8] = b"DMISCKP3";

const TAG_META: u8 = 1;
const TAG_GRAPH: u8 = 2;
const TAG_PRIO: u8 = 3;
const TAG_MIS: u8 = 4;

/// A frame's tag and length, before its payload.
const FRAME_HEAD: usize = 9;
/// A frame's bytes besides its payload: the head and the CRC.
const FRAME_OVERHEAD: usize = FRAME_HEAD + 4;
/// The longest META payload: flavor, four `u64`s, the epoch flag and
/// epoch, and the WAL sequence number.
const META_MAX: usize = 1 + 4 * 8 + 1 + 8 + 8;

const FLAVOR_UNSHARDED: u8 = 0;
const FLAVOR_SHARDED: u8 = 1;

/// A checkpoint image of full engine state, plus the WAL sequence number
/// it is consistent with: the encoded bytes, vetted when decoded, with
/// META's fields read out once.
#[derive(Clone, PartialEq, Eq)]
pub struct Checkpoint {
    meta: DurabilityMeta,
    wal_seq: u64,
    image: Vec<u8>,
}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("meta", &self.meta)
            .field("wal_seq", &self.wal_seq)
            .field("image_len", &self.image.len())
            .finish()
    }
}

impl Checkpoint {
    /// Captures the engine's full state. `wal_seq` records how many WAL
    /// records are already reflected in this state, so recovery knows
    /// where replay starts: a checkpoint taken right after the `k`-th
    /// logged flush is captured with `wal_seq = k`.
    ///
    /// The image is written in one pass into one buffer, reserved once:
    /// every varint (an id gap, an upper degree, a neighbour gap) is
    /// below the watermark, so none is wider than it.
    #[must_use]
    pub fn capture(engine: &dyn DynamicMis, wal_seq: u64) -> Self {
        let g = engine.graph();
        let meta = engine.durability_meta();
        let next_id = g.peek_next_id().index();
        let (n, m, members) = (g.node_count(), g.edge_count(), engine.mis_len());
        let w = varint_len(next_id);
        let capacity = CKP_MAGIC.len()
            + 4 * FRAME_OVERHEAD
            + META_MAX
            + 3 * 8
            + n * (2 * w + 8)
            + m * w
            + 8
            + members * w;
        let mut image = Vec::with_capacity(capacity);
        image.extend_from_slice(CKP_MAGIC);

        let frame = open_frame(&mut image, TAG_META);
        put_u8(
            &mut image,
            match meta.flavor {
                EngineFlavor::Unsharded => FLAVOR_UNSHARDED,
                EngineFlavor::Sharded => FLAVOR_SHARDED,
            },
        );
        put_u64(&mut image, meta.shards as u64);
        put_u64(&mut image, meta.block);
        put_u64(&mut image, meta.seed);
        put_u64(&mut image, meta.draws);
        match meta.epoch {
            Some(e) => {
                put_u8(&mut image, 1);
                put_u64(&mut image, e);
            }
            None => put_u8(&mut image, 0),
        }
        put_u64(&mut image, wal_seq);
        seal_frame(&mut image, frame);

        let frame = open_frame(&mut image, TAG_GRAPH);
        put_u64(&mut image, next_id);
        put_u64(&mut image, n as u64);
        put_u64(&mut image, m as u64);
        let mut prev = 0;
        for u in g.nodes() {
            // `u`'s upper neighbours are the tails of its ascending
            // neighbour slices past `u`.
            let below = |c: &[NodeId]| c.partition_point(|&v| v <= u);
            put_varint(&mut image, u.index() - prev);
            let mut degree = 0;
            if let Ok(chunks) = g.neighbor_chunks(u) {
                for c in chunks {
                    degree += c.len() - below(c);
                }
            }
            put_varint(&mut image, degree as u64);
            let mut from = u.index();
            if let Ok(chunks) = g.neighbor_chunks(u) {
                for c in chunks {
                    for v in &c[below(c)..] {
                        put_varint(&mut image, v.index() - from);
                        from = v.index();
                    }
                }
            }
            prev = u.index();
        }
        seal_frame(&mut image, frame);

        let frame = open_frame(&mut image, TAG_PRIO);
        for (_, p) in engine.priorities().iter() {
            put_u64(&mut image, p.key());
        }
        seal_frame(&mut image, frame);

        let frame = open_frame(&mut image, TAG_MIS);
        put_u64(&mut image, members as u64);
        let mut prev = 0;
        for v in engine.mis_iter() {
            put_varint(&mut image, v.index() - prev);
            prev = v.index();
        }
        seal_frame(&mut image, frame);
        debug_assert!(image.len() <= capacity, "the image outgrew its reservation");

        Checkpoint {
            meta,
            wal_seq,
            image,
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

    /// The framed binary image.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.image.clone()
    }

    /// Decodes and fully vets a checkpoint image without building any
    /// list: the magic, each frame's tag and CRC, every count against the
    /// bytes left, every varint (at most ten bytes, no overflow), every
    /// id strictly ascending and below the watermark, the upper degrees
    /// summing to the edge count, one PRIO key per node, the witness an
    /// ascending sub-sequence of the nodes (walked in lockstep with
    /// GRAPH), and no frame with trailing bytes. Designed to reject
    /// arbitrary corrupted bytes with an error, never a panic or a huge
    /// allocation.
    ///
    /// # Errors
    ///
    /// The specific [`CodecError`] describing the first defect found.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::vetted(bytes.to_vec())
    }

    /// Wraps `image` once [`Self::decode`]'s checks pass.
    fn vetted(image: Vec<u8>) -> Result<Self, CodecError> {
        let frames = Frames::split(&image, true)?;
        let (meta, wal_seq) = frames.meta()?;
        let graph = frames.graph()?;
        let mut witness = frames.witness(graph.next_id)?;
        // Both lists ascend, so a witness id that no node matches stays
        // pending to the end.
        let mut pending = witness.member()?;
        graph.walk(
            |v| {
                if pending == Some(v) {
                    pending = witness.member()?;
                }
                Ok(())
            },
            |_, _| {},
        )?;
        if pending.is_some() {
            return Err(CodecError::Inconsistent(
                "witness names a node GRAPH does not list",
            ));
        }
        Ok(Checkpoint {
            meta,
            wal_seq,
            image,
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
        io.write_atomic(CHECKPOINT_FILE, &self.image)?;
        retire_before(io, self.wal_seq)
    }

    /// Reads and decodes [`CHECKPOINT_FILE`], keeping the bytes it read
    /// as the image; `Ok(None)` if absent.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Io`] on storage failure, [`RecoverError::Corrupt`]
    /// if the bytes exist but do not decode.
    pub fn load(io: &dyn StorageIo) -> Result<Option<Self>, RecoverError> {
        match io.read(CHECKPOINT_FILE).map_err(RecoverError::Io)? {
            None => Ok(None),
            Some(bytes) => Checkpoint::vetted(bytes)
                .map(Some)
                .map_err(RecoverError::Corrupt),
        }
    }

    /// Rebuilds a live engine of the captured flavor: reserves a sharded
    /// image's shard queues, walks GRAPH once into the node and edge
    /// lists (edges arrive in ascending [`EdgeKey`](dmis_graph::EdgeKey)
    /// order, so no list is sorted), builds the graph in bulk
    /// ([`DynGraph::from_adjacency`]), pairs PRIO's keys with the nodes
    /// into the priority map, seeds membership and counters in one sweep
    /// in increasing π (the unique greedy fixed point for that pair),
    /// fast-forwards the RNG by the recorded draw count, and re-attaches
    /// the publisher at the captured epoch. The
    /// adjacency build and the sweep are the cost, about what building
    /// the same graph and engine from an edge list costs. The recomputed
    /// MIS is checked against the stored witness, streamed from its frame
    /// element by element, before the engine is handed out.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Corrupt`] if a sharded image's shard queues
    /// cannot be reserved, or if graph reconstruction rejects the
    /// adjacency section, including a neighbour that is not a listed
    /// node and a watermark whose slot arena cannot be reserved;
    /// [`RecoverError::Witness`] if the recomputed MIS differs from the
    /// captured one.
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
        // `vetted` checked every CRC already.
        let frames = Frames::split(&self.image, false).map_err(RecoverError::Corrupt)?;
        let graph = frames.graph().map_err(RecoverError::Corrupt)?;
        let next_id = NodeId(graph.next_id);
        let mut witness = frames
            .witness(graph.next_id)
            .map_err(RecoverError::Corrupt)?;
        let mut nodes = Vec::with_capacity(graph.nodes);
        let mut edges = Vec::with_capacity(graph.edges);
        graph
            .walk(
                |v| {
                    nodes.push(v);
                    Ok(())
                },
                |u, v| edges.push((u, v)),
            )
            .map_err(RecoverError::Corrupt)?;
        let graph = DynGraph::from_adjacency(next_id, &nodes, &edges)
            .map_err(|_| RecoverError::Corrupt(CodecError::Inconsistent("adjacency rejected")))?;
        drop(edges);
        // Only once the graph's slot arena is reserved: the key table
        // grows to the highest id, which a forged watermark can place
        // past any allocator's reach.
        let mut pm = PriorityMap::new();
        for (&v, key) in nodes.iter().zip(frames.prio.chunks_exact(8)) {
            let key = key
                .try_into()
                .map_err(|_| RecoverError::Corrupt(CodecError::Truncated))?;
            pm.insert(v, Priority::new(u64::from_le_bytes(key), v));
        }
        drop(nodes);
        let mut engine: Box<dyn DynamicMis + Send> =
            Box::new(MisEngine::from_parts_impl(graph, pm, sharding, meta.seed));
        // Fast-forward the RNG stream position: construction with
        // prescribed priorities drew nothing, so exactly `draws` throw-
        // away draws put every *future* draw where the original's would
        // be (and the engine's own draw counter self-tracks to match).
        for _ in 0..meta.draws {
            let _ = engine.draw_key();
        }
        let mut members = engine.mis_iter();
        loop {
            match (
                witness.member().map_err(RecoverError::Corrupt)?,
                members.next(),
            ) {
                (None, None) => break,
                (w, v) if w == v => {}
                _ => return Err(RecoverError::Witness),
            }
        }
        drop(members);
        if let Some(epoch) = meta.epoch {
            engine.restore_epoch(epoch);
        }
        Ok(engine)
    }
}

/// Writes a frame's tag and a length placeholder; returns where the
/// frame starts, for [`seal_frame`].
fn open_frame(out: &mut Vec<u8>, tag: u8) -> usize {
    let start = out.len();
    put_u8(out, tag);
    put_u64(out, 0);
    start
}

/// Fills in the length of the frame opened at `start` and appends its
/// CRC over tag, length and payload.
fn seal_frame(out: &mut Vec<u8>, start: usize) {
    let len = (out.len() - start - FRAME_HEAD) as u64;
    out[start + 1..start + FRAME_HEAD].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

/// The frame reader: an image's four payloads, split at their tags and
/// lengths.
struct Frames<'a> {
    meta: &'a [u8],
    graph: &'a [u8],
    prio: &'a [u8],
    mis: &'a [u8],
}

impl<'a> Frames<'a> {
    /// Splits `image`, refusing a wrong magic, a wrong tag, a frame cut
    /// short and bytes after the last frame; `check_crc` also checks
    /// each frame's CRC.
    fn split(image: &'a [u8], check_crc: bool) -> Result<Self, CodecError> {
        if image.len() < CKP_MAGIC.len() {
            return Err(CodecError::Truncated);
        }
        if &image[..CKP_MAGIC.len()] != CKP_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let mut cur = Cursor::new(&image[CKP_MAGIC.len()..]);
        let mut frame = |tag| take_frame(&mut cur, tag, check_crc);
        let frames = Frames {
            meta: frame(TAG_META)?,
            graph: frame(TAG_GRAPH)?,
            prio: frame(TAG_PRIO)?,
            mis: frame(TAG_MIS)?,
        };
        if !cur.is_empty() {
            return Err(CodecError::Inconsistent("trailing bytes after MIS frame"));
        }
        Ok(frames)
    }

    /// META's engine metadata and WAL sequence number.
    fn meta(&self) -> Result<(DurabilityMeta, u64), CodecError> {
        let mut m = Cursor::new(self.meta);
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
        let meta = DurabilityMeta {
            flavor,
            shards,
            block,
            seed,
            draws,
            epoch,
        };
        Ok((meta, wal_seq))
    }

    /// GRAPH's header, its counts bounded by the bytes that could hold
    /// them (a node takes at least two bytes, an edge at least one, and
    /// PRIO exactly eight per node), before any list is sized from them.
    fn graph(&self) -> Result<Graph<'a>, CodecError> {
        let mut body = Cursor::new(self.graph);
        let next_id = body.u64()?;
        let nodes = body.u64()?;
        let edges = body.u64()?;
        let room = body.remaining() as u64;
        if nodes > room / 2 || edges > room - 2 * nodes {
            return Err(CodecError::Truncated);
        }
        if Some(self.prio.len() as u64) != nodes.checked_mul(8) {
            return Err(CodecError::Inconsistent("PRIO is not one key per node"));
        }
        Ok(Graph {
            next_id,
            nodes: usize::try_from(nodes).map_err(|_| CodecError::Truncated)?,
            edges: usize::try_from(edges).map_err(|_| CodecError::Truncated)?,
            body,
        })
    }

    /// MIS's member count, bounded by the bytes left, and a reader over
    /// its ids.
    fn witness(&self, next_id: u64) -> Result<Witness<'a>, CodecError> {
        let mut body = Cursor::new(self.mis);
        let left = body.u64()?;
        if left > body.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(Witness {
            body,
            left,
            ids: IdGaps {
                prev: None,
                next_id,
            },
        })
    }
}

fn take_frame<'a>(
    cur: &mut Cursor<'a>,
    expect: u8,
    check_crc: bool,
) -> Result<&'a [u8], CodecError> {
    let start = cur.pos();
    let tag = cur.u8()?;
    if tag != expect {
        return Err(CodecError::BadTag(tag));
    }
    let len = usize::try_from(cur.u64()?).map_err(|_| CodecError::Truncated)?;
    let payload = cur.take(len)?;
    let end = cur.pos();
    let crc = cur.u32()?;
    if check_crc && crc32(cur.raw(start, end)) != crc {
        return Err(CodecError::Checksum);
    }
    Ok(payload)
}

/// GRAPH's node records.
struct Graph<'a> {
    next_id: u64,
    nodes: usize,
    edges: usize,
    body: Cursor<'a>,
}

impl Graph<'_> {
    /// Walks the nodes in ascending id order, calling `node(v)` for each
    /// and then `edge(v, w)` for each higher neighbour `w` in ascending
    /// order, so the edges arrive in ascending `EdgeKey` order.
    /// Refuses an id that does not ascend or reaches the watermark, upper
    /// degrees that do not sum to the edge count, and trailing bytes.
    fn walk(
        mut self,
        mut node: impl FnMut(NodeId) -> Result<(), CodecError>,
        mut edge: impl FnMut(NodeId, NodeId),
    ) -> Result<(), CodecError> {
        let mut edges_left = self.edges as u64;
        let mut ids = IdGaps {
            prev: None,
            next_id: self.next_id,
        };
        for _ in 0..self.nodes {
            let v = ids.step(self.body.varint()?)?;
            node(v)?;
            let degree = self.body.varint()?;
            edges_left = edges_left
                .checked_sub(degree)
                .ok_or(CodecError::Inconsistent(
                    "upper degrees sum past the edge count",
                ))?;
            // Neighbour gaps count from the node itself.
            let mut upper = IdGaps {
                prev: Some(v.index()),
                next_id: self.next_id,
            };
            for _ in 0..degree {
                edge(v, upper.step(self.body.varint()?)?);
            }
        }
        if edges_left != 0 {
            return Err(CodecError::Inconsistent(
                "upper degrees sum short of the edge count",
            ));
        }
        if !self.body.is_empty() {
            return Err(CodecError::Inconsistent("trailing bytes in GRAPH frame"));
        }
        Ok(())
    }
}

/// The MIS frame's members, read one at a time.
struct Witness<'a> {
    body: Cursor<'a>,
    left: u64,
    ids: IdGaps,
}

impl Witness<'_> {
    /// The next member, or `None` once the count is used up and no byte
    /// is left.
    fn member(&mut self) -> Result<Option<NodeId>, CodecError> {
        if self.left == 0 {
            if !self.body.is_empty() {
                return Err(CodecError::Inconsistent("trailing bytes in MIS frame"));
            }
            return Ok(None);
        }
        self.left -= 1;
        self.ids.step(self.body.varint()?).map(Some)
    }
}

/// Accumulates a gap-coded, strictly ascending id list, refusing a
/// repeated id and any id at or past the watermark (overflow included).
/// With no `prev`, the first gap is the first id itself.
struct IdGaps {
    prev: Option<u64>,
    next_id: u64,
}

impl IdGaps {
    fn step(&mut self, gap: u64) -> Result<NodeId, CodecError> {
        let id = match self.prev {
            None => Some(gap),
            Some(_) if gap == 0 => {
                return Err(CodecError::Inconsistent("repeated id in an ascending list"))
            }
            Some(prev) => prev.checked_add(gap),
        };
        match id {
            Some(id) if id < self.next_id => {
                self.prev = Some(id);
                Ok(NodeId(id))
            }
            _ => Err(CodecError::Inconsistent("id at or past the watermark")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::MemIo;
    use super::*;
    use crate::Engine;
    use dmis_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const META: usize = 0;
    const GRAPH: usize = 1;
    const PRIO: usize = 2;
    const MIS: usize = 3;

    fn sample_engine() -> crate::MisEngine {
        let mut rng = StdRng::seed_from_u64(21);
        let (g, _) = generators::erdos_renyi(30, 0.15, &mut rng);
        Engine::builder().graph(g).seed(7).build_unsharded()
    }

    /// The payloads of `image`'s four frames, in order.
    fn payloads(image: &[u8]) -> [Vec<u8>; 4] {
        let f = Frames::split(image, true).unwrap();
        [f.meta, f.graph, f.prio, f.mis].map(<[u8]>::to_vec)
    }

    /// An image of four payloads, framed and sealed as `capture` seals
    /// them, so a forged payload passes every CRC.
    fn seal(payloads: &[Vec<u8>; 4]) -> Vec<u8> {
        let mut image = CKP_MAGIC.to_vec();
        for (tag, payload) in [TAG_META, TAG_GRAPH, TAG_PRIO, TAG_MIS]
            .into_iter()
            .zip(payloads)
        {
            let frame = open_frame(&mut image, tag);
            image.extend_from_slice(payload);
            seal_frame(&mut image, frame);
        }
        image
    }

    /// `image` with the payload of frame `index` edited, then resealed.
    fn reseal(image: &[u8], index: usize, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut p = payloads(image);
        edit(&mut p[index]);
        seal(&p)
    }

    fn varints(values: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for &v in values {
            put_varint(&mut out, v);
        }
        out
    }

    /// A GRAPH payload: the header, then `body`.
    fn graph_payload(next_id: u64, n: u64, m: u64, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for v in [next_id, n, m] {
            put_u64(&mut out, v);
        }
        out.extend_from_slice(body);
        out
    }

    /// A MIS payload naming `members`.
    fn witness_payload(members: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, members.len() as u64);
        let mut prev = 0;
        for &v in members {
            put_varint(&mut out, v - prev);
            prev = v;
        }
        out
    }

    /// A hand-forged image: the sample's META, `graph`, `n` zero keys and
    /// `mis`.
    fn forged(graph: Vec<u8>, n: usize, mis: Vec<u8>) -> Vec<u8> {
        let meta = payloads(&Checkpoint::capture(&sample_engine(), 0).encode())[META].clone();
        seal(&[meta, graph, vec![0; 8 * n], mis])
    }

    fn engine_over(g: DynGraph, layout: Option<ShardLayout>) -> Box<dyn DynamicMis + Send> {
        let builder = Engine::builder().graph(g).seed(11);
        match layout {
            Some(layout) => builder.sharding(layout).build(),
            None => builder.build(),
        }
    }

    /// Decodes `engine`'s image and restores it, comparing everything the
    /// image must carry, down to the next draw.
    fn assert_round_trips(engine: &mut (dyn DynamicMis + Send), what: &str) {
        let ckp = Checkpoint::capture(engine, 5);
        let decoded = Checkpoint::decode(&ckp.encode()).unwrap();
        assert_eq!(decoded, ckp, "{what}");
        let mut restored = decoded.restore().unwrap();
        let (g, r) = (engine.graph(), restored.graph());
        assert!(r.nodes().eq(g.nodes()), "{what}: nodes");
        assert!(r.edges().eq(g.edges()), "{what}: edges");
        assert!(
            restored.priorities().iter().eq(engine.priorities().iter()),
            "{what}: π"
        );
        assert!(restored.mis_iter().eq(engine.mis_iter()), "{what}: MIS");
        assert_eq!(
            restored.durability_meta(),
            engine.durability_meta(),
            "{what}: meta"
        );
        assert_eq!(restored.draw_key(), engine.draw_key(), "{what}: next draw");
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
    fn every_flavor_round_trips_on_every_graph_shape() {
        let mut rng = StdRng::seed_from_u64(25);
        let (gnm, _) = generators::gnm(20_000, 80_000, &mut rng);
        // Gaps of 2¹⁴ and more take three varint bytes.
        let widest_gap = gnm
            .nodes()
            .filter_map(|u| {
                let mut from = u;
                gnm.neighbors(u)?
                    .filter(|&v| v > u)
                    .map(|v| v.index() - std::mem::replace(&mut from, v).index())
                    .max()
            })
            .max();
        assert!(widest_gap >= Some(1 << 14), "{widest_gap:?}");
        let (chung_lu, _) = generators::chung_lu(10_000, 10.0, 2.1, &mut rng);
        // Lists this long are chunked, as a promotion chunks them.
        assert!(chung_lu.max_degree() >= 256, "{}", chung_lu.max_degree());
        let graphs = [
            ("G(2e4, 8e4)", gnm),
            ("Chung-Lu", chung_lu.clone()),
            ("Chung-Lu with holes", chung_lu),
            ("empty", DynGraph::new()),
            ("edgeless", DynGraph::with_nodes(10).0),
        ];
        for layout in [
            None,
            Some(ShardLayout::striped(3)),
            Some(ShardLayout::blocked(3, 4)),
        ] {
            for (name, g) in graphs.clone() {
                let mut engine = engine_over(g, layout);
                if name == "Chung-Lu with holes" {
                    let doomed: Vec<NodeId> = engine.graph().nodes().step_by(7).collect();
                    for v in doomed {
                        engine.remove_node(v).unwrap();
                    }
                    for _ in 0..50 {
                        let live: Vec<NodeId> = engine.graph().nodes().collect();
                        let mut nbrs: Vec<NodeId> = (0..rng.random_range(0..6))
                            .map(|_| live[rng.random_range(0..live.len())])
                            .collect();
                        nbrs.sort_unstable();
                        nbrs.dedup();
                        engine.insert_node(&nbrs).unwrap();
                    }
                }
                assert_round_trips(engine.as_mut(), &format!("{name}, {layout:?}"));
            }
        }
    }

    #[test]
    fn same_final_graph_gives_the_same_image_bytes() {
        // History independence (Section 5) at the byte level: two
        // same-seed engines, no reader attached, reach one edge set by
        // different paths, with deletions and re-insertions on the way.
        let mut rng = StdRng::seed_from_u64(8);
        let (g, ids) = generators::gnm(300, 900, &mut rng);
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| e.endpoints()).collect();
        let (dropped, cycled) = (&edges[..150], &edges[150..300]);
        let mut added = Vec::new();
        while added.len() < 150 {
            let (u, v) = (
                ids[rng.random_range(0..300usize)],
                ids[rng.random_range(0..300usize)],
            );
            if u < v && !g.has_edge(u, v) && !added.contains(&(u, v)) {
                added.push((u, v));
            }
        }
        let mut a = Engine::builder().graph(g.clone()).seed(4).build();
        let mut b = Engine::builder().graph(g).seed(4).build();
        for &(u, v) in dropped {
            a.remove_edge(u, v).unwrap();
        }
        for &(u, v) in &added {
            a.insert_edge(u, v).unwrap();
        }
        for &(u, v) in cycled {
            a.remove_edge(u, v).unwrap();
            a.insert_edge(u, v).unwrap();
        }
        for &(u, v) in cycled.iter().rev() {
            b.remove_edge(u, v).unwrap();
        }
        for (i, &(u, v)) in added.iter().enumerate().rev() {
            b.insert_edge(u, v).unwrap();
            if let Some(&(x, y)) = dropped.get(i) {
                b.remove_edge(x, y).unwrap();
            }
        }
        for &(u, v) in cycled {
            b.insert_edge(u, v).unwrap();
        }
        assert!(a.graph().edges().eq(b.graph().edges()));
        assert_eq!(
            Checkpoint::capture(a.as_ref(), 0).encode(),
            Checkpoint::capture(b.as_ref(), 0).encode()
        );
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
        // Forge the witness: drop one member, or add a live non-member.
        // Either is still an ascending sub-sequence of the nodes, so it
        // decodes; the recomputed greedy MIS cannot match it, so restore
        // must refuse.
        let engine = sample_engine();
        let image = Checkpoint::capture(&engine, 0).encode();
        let members: Vec<u64> = engine.mis_iter().map(NodeId::index).collect();
        let outsider = engine.graph().nodes().find(|&v| !engine.mis().contains(&v));
        let mut grown = members.clone();
        grown.push(outsider.unwrap().index());
        grown.sort_unstable();
        for forged in [&members[1..], &grown[..]] {
            let image = reseal(&image, MIS, |p| *p = witness_payload(forged));
            let decoded = Checkpoint::decode(&image).unwrap();
            assert!(matches!(decoded.restore(), Err(RecoverError::Witness)));
        }
    }

    #[test]
    fn an_unallocatable_watermark_is_refused() {
        // The watermark sizes the restored graph's slot arena. An image
        // whose CRCs hold may still carry one no allocator can reserve;
        // restore must refuse it as corrupt, not abort on the allocation.
        let image = Checkpoint::capture(&sample_engine(), 0).encode();
        let mut images: Vec<Vec<u8>> = [1u64 << 62, u64::MAX]
            .into_iter()
            .map(|watermark| {
                reseal(&image, GRAPH, |p| {
                    p[..8].copy_from_slice(&watermark.to_le_bytes());
                })
            })
            .collect();
        // An id that far up must not size any table before the arena is
        // refused.
        images.push(forged(
            graph_payload(u64::MAX, 2, 0, &varints(&[0, 0, 1 << 61, 0])),
            2,
            witness_payload(&[]),
        ));
        for forged in images {
            let decoded = Checkpoint::decode(&forged).unwrap();
            assert!(matches!(decoded.restore(), Err(RecoverError::Corrupt(_))));
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
        let image = Checkpoint::capture(&engine, 0).encode();
        for shards in [1u64 << 62, u64::MAX] {
            let forged = reseal(&image, META, |p| {
                p[1..9].copy_from_slice(&shards.to_le_bytes());
            });
            let decoded = Checkpoint::decode(&forged).unwrap();
            assert_eq!(decoded.meta().flavor, EngineFlavor::Sharded);
            assert!(
                matches!(decoded.restore(), Err(RecoverError::Corrupt(_))),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn a_neighbour_that_is_not_a_node_is_refused() {
        // Nodes 0 and 3 below watermark 4; node 0 names 2, a hole. Decode
        // sees neighbours before their own records, so restore's
        // adjacency build refuses it.
        let image = forged(
            graph_payload(4, 2, 1, &varints(&[0, 1, 2, 3, 0])),
            2,
            witness_payload(&[]),
        );
        let decoded = Checkpoint::decode(&image).unwrap();
        assert!(matches!(decoded.restore(), Err(RecoverError::Corrupt(_))));
    }

    #[test]
    fn hostile_counts_are_refused_before_any_allocation() {
        let image = Checkpoint::capture(&sample_engine(), 0).encode();
        let room = payloads(&image)[GRAPH].len() as u64 - 24;
        let mut forgeries = Vec::new();
        for n in [room / 2 + 1, u64::MAX] {
            forgeries.push(reseal(&image, GRAPH, |p| {
                p[8..16].copy_from_slice(&n.to_le_bytes());
            }));
        }
        forgeries.push(reseal(&image, GRAPH, |p| {
            p[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        }));
        forgeries.push(reseal(&image, MIS, |p| {
            p[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        }));
        for forged in forgeries {
            assert_eq!(Checkpoint::decode(&forged), Err(CodecError::Truncated));
        }
    }

    #[test]
    fn hostile_lists_decode_to_inconsistent_never_a_panic() {
        let engine = sample_engine();
        let image = Checkpoint::capture(&engine, 0).encode();
        let edges = engine.graph().edge_count() as u64;
        let next_id = engine.graph().peek_next_id().index();
        let mut eleven = vec![0x80; 10];
        eleven.push(0);
        let mut tenth_above_one = vec![0x80; 9];
        tenth_above_one.push(2);
        let none = || witness_payload(&[]);
        // Nodes 0 and 3 below watermark 5, no edges.
        let two_nodes = || graph_payload(5, 2, 0, &varints(&[0, 0, 3, 0]));
        for (what, forged) in [
            (
                "11-byte varint",
                forged(graph_payload(4, 1, 0, &eleven), 1, none()),
            ),
            (
                "10th varint byte above 1",
                forged(graph_payload(4, 1, 0, &tenth_above_one), 1, none()),
            ),
            (
                "node gap overflows u64",
                forged(
                    graph_payload(u64::MAX, 2, 0, &varints(&[u64::MAX - 1, 0, 2, 0])),
                    2,
                    none(),
                ),
            ),
            (
                "node id at the watermark",
                forged(graph_payload(4, 1, 0, &varints(&[4, 0])), 1, none()),
            ),
            (
                "neighbour id at the watermark",
                forged(
                    graph_payload(4, 2, 1, &varints(&[0, 1, 4, 3, 0])),
                    2,
                    none(),
                ),
            ),
            (
                "repeated node id",
                forged(graph_payload(4, 2, 0, &varints(&[1, 0, 0, 0])), 2, none()),
            ),
            (
                "upper degrees past the edge count",
                reseal(&image, GRAPH, |p| {
                    p[16..24].copy_from_slice(&(edges - 1).to_le_bytes());
                }),
            ),
            (
                "upper degrees short of the edge count",
                forged(
                    graph_payload(1000, 2, 2, &varints(&[0, 1, 999, 999, 0])),
                    2,
                    none(),
                ),
            ),
            (
                "PRIO 8n + 8 bytes",
                reseal(&image, PRIO, |p| p.extend([0; 8])),
            ),
            (
                "PRIO 8n - 8 bytes",
                reseal(&image, PRIO, |p| p.truncate(p.len() - 8)),
            ),
            (
                "witness names a hole",
                forged(two_nodes(), 2, witness_payload(&[1])),
            ),
            (
                "witness names an id past the last node",
                forged(two_nodes(), 2, witness_payload(&[0, 4])),
            ),
            (
                "witness repeats a member",
                forged(two_nodes(), 2, witness_payload(&[3, 3])),
            ),
            (
                "witness names a dead node",
                reseal(&image, MIS, |p| {
                    let mut members: Vec<u64> = engine.mis_iter().map(NodeId::index).collect();
                    members.push(next_id);
                    *p = witness_payload(&members);
                }),
            ),
            ("trailing META byte", reseal(&image, META, |p| p.push(0))),
            ("trailing GRAPH byte", reseal(&image, GRAPH, |p| p.push(0))),
            ("trailing PRIO byte", reseal(&image, PRIO, |p| p.push(0))),
            ("trailing MIS byte", reseal(&image, MIS, |p| p.push(0))),
            ("trailing byte after MIS", [&image[..], &[0]].concat()),
        ] {
            assert!(
                matches!(
                    Checkpoint::decode(&forged),
                    Err(CodecError::Inconsistent(_))
                ),
                "{what}: {:?}",
                Checkpoint::decode(&forged)
            );
        }
    }

    #[test]
    fn a_version_1_image_is_refused() {
        // Each version changed the layout but not its frame tags, so only
        // the magic tells the layouts apart.
        let mut bytes = Checkpoint::capture(&sample_engine(), 0).encode();
        for magic in [b"DMISCKP1", b"DMISCKP2"] {
            bytes[..CKP_MAGIC.len()].copy_from_slice(magic);
            assert_eq!(Checkpoint::decode(&bytes), Err(CodecError::BadMagic));
        }
    }

    #[test]
    fn debug_prints_the_image_length_not_its_bytes() {
        let ckp = Checkpoint::capture(&sample_engine(), 2);
        let shown = format!("{ckp:?}");
        assert!(shown.contains(&format!("image_len: {}", ckp.encode().len())));
        assert!(shown.len() < 300, "{shown}");
    }
}
