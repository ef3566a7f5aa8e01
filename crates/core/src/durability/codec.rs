//! Hand-rolled binary framing shared by the checkpoint and WAL formats.
//!
//! Everything is little-endian, length-prefixed, and guarded by CRC-32
//! (IEEE polynomial, slicing-by-8); the checkpoint's id lists are
//! gap-coded as unsigned LEB128 varints. No external serialization crate is
//! involved: the formats are small enough that an explicit codec is both
//! auditable and corruption-testable byte by byte.

use std::fmt;

use dmis_graph::{NodeId, TopologyChange};

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended in the middle of a structure.
    Truncated,
    /// The file preamble does not match the expected magic bytes.
    BadMagic,
    /// A frame or record checksum did not match its payload.
    Checksum,
    /// An unknown tag byte where a known discriminant was required.
    BadTag(u8),
    /// The bytes decoded, but describe an internally inconsistent state
    /// (e.g. a witness id the graph section does not list).
    Inconsistent(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer ended mid-structure"),
            CodecError::BadMagic => write!(f, "bad magic preamble"),
            CodecError::Checksum => write!(f, "checksum mismatch"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            CodecError::Inconsistent(what) => write!(f, "inconsistent image: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The slicing-by-8 tables: `T[0]` is the classic bytewise table for the
/// reflected IEEE polynomial, and `T[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table lookups advance the
/// checksum over eight input bytes at once.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32 (IEEE 802.3 polynomial) over `bytes`, eight bytes per step
/// (slicing-by-8), with a bytewise loop over the last `len % 8` bytes.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The most bytes a `u64` takes as a LEB128 varint: ⌈64 / 7⌉.
const MAX_VARINT_LEN: usize = 10;

/// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
/// bits first, the high bit set on every byte but the last.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The bytes [`put_varint`] writes for `v`, 1 to 10.
pub(crate) fn varint_len(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// A bounds-checked little-endian reader over a byte slice. Every take
/// returns [`CodecError::Truncated`] instead of panicking, so arbitrary
/// (fault-injected) bytes can be fed through the decoders safely.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Current read offset — pair with [`Self::raw`] to checksum a span
    /// that was just taken.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// The raw bytes between two previously observed offsets.
    pub(crate) fn raw(&self, from: usize, to: usize) -> &'a [u8] {
        &self.buf[from..to]
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        let bytes: [u8; 4] = b.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let bytes: [u8; 8] = b.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads a [`put_varint`] varint, refusing an eleventh byte and a
    /// tenth byte that carries bits past the 64th.
    pub(crate) fn varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let rest = &self.buf[self.pos..];
        for (i, &byte) in rest.iter().take(MAX_VARINT_LEN).enumerate() {
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                if i == MAX_VARINT_LEN - 1 && byte > 1 {
                    return Err(CodecError::Inconsistent("varint overflows u64"));
                }
                self.pos += i + 1;
                return Ok(value);
            }
        }
        if rest.len() < MAX_VARINT_LEN {
            return Err(CodecError::Truncated);
        }
        Err(CodecError::Inconsistent("varint longer than ten bytes"))
    }
}

const TAG_INSERT_EDGE: u8 = 0;
const TAG_DELETE_EDGE: u8 = 1;
const TAG_INSERT_NODE: u8 = 2;
const TAG_DELETE_NODE: u8 = 3;

/// Appends one topology change to `out`: a tag byte followed by the
/// operand identifiers as little-endian `u64`s (`InsertNode` carries a
/// neighbor count before its neighbor list).
pub(crate) fn put_change(out: &mut Vec<u8>, change: &TopologyChange) {
    match change {
        TopologyChange::InsertEdge(u, v) => {
            put_u8(out, TAG_INSERT_EDGE);
            put_u64(out, u.index());
            put_u64(out, v.index());
        }
        TopologyChange::DeleteEdge(u, v) => {
            put_u8(out, TAG_DELETE_EDGE);
            put_u64(out, u.index());
            put_u64(out, v.index());
        }
        TopologyChange::InsertNode { id, edges } => {
            put_u8(out, TAG_INSERT_NODE);
            put_u64(out, id.index());
            put_u64(out, edges.len() as u64);
            for e in edges {
                put_u64(out, e.index());
            }
        }
        TopologyChange::DeleteNode(v) => {
            put_u8(out, TAG_DELETE_NODE);
            put_u64(out, v.index());
        }
    }
}

/// Decodes one topology change from the cursor.
pub(crate) fn take_change(cur: &mut Cursor<'_>) -> Result<TopologyChange, CodecError> {
    match cur.u8()? {
        TAG_INSERT_EDGE => Ok(TopologyChange::InsertEdge(
            NodeId(cur.u64()?),
            NodeId(cur.u64()?),
        )),
        TAG_DELETE_EDGE => Ok(TopologyChange::DeleteEdge(
            NodeId(cur.u64()?),
            NodeId(cur.u64()?),
        )),
        TAG_INSERT_NODE => {
            let id = NodeId(cur.u64()?);
            let count = cur.u64()?;
            // A hostile count must not trigger a huge allocation before
            // the takes below catch the truncation: 8 bytes per entry
            // bounds what the buffer could actually hold.
            if count > (cur.remaining() as u64) / 8 {
                return Err(CodecError::Truncated);
            }
            let mut edges = Vec::with_capacity(count as usize);
            for _ in 0..count {
                edges.push(NodeId(cur.u64()?));
            }
            Ok(TopologyChange::InsertNode { id, edges })
        }
        TAG_DELETE_NODE => Ok(TopologyChange::DeleteNode(NodeId(cur.u64()?))),
        tag => Err(CodecError::BadTag(tag)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32/IEEE, one input byte per step: the
    /// definition the sliced tables must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard check vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_crc_at_every_length_and_offset() {
        // Every tail length (len % 8) meets every alignment of the
        // eight-byte steps.
        let buf: Vec<u8> = (0..308u64)
            .map(|i| (super::super::splitmix64(i) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start={start} len={len}"
                );
            }
        }
    }

    #[test]
    fn changes_round_trip() {
        let changes = [
            TopologyChange::InsertEdge(NodeId(3), NodeId(9)),
            TopologyChange::DeleteEdge(NodeId(0), NodeId(1)),
            TopologyChange::InsertNode {
                id: NodeId(12),
                edges: vec![NodeId(2), NodeId(7)],
            },
            TopologyChange::DeleteNode(NodeId(5)),
        ];
        let mut buf = Vec::new();
        for c in &changes {
            put_change(&mut buf, c);
        }
        let mut cur = Cursor::new(&buf);
        for c in &changes {
            assert_eq!(&take_change(&mut cur).unwrap(), c);
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let mut buf = Vec::new();
        put_change(
            &mut buf,
            &TopologyChange::InsertNode {
                id: NodeId(4),
                edges: vec![NodeId(1), NodeId(2), NodeId(3)],
            },
        );
        for cut in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..cut]);
            assert_eq!(
                take_change(&mut cur),
                Err(CodecError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 2); // InsertNode
        put_u64(&mut buf, 1); // id
        put_u64(&mut buf, u64::MAX); // absurd neighbor count
        let mut cur = Cursor::new(&buf);
        assert_eq!(take_change(&mut cur), Err(CodecError::Truncated));
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut values = vec![0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u64::MAX - 1, u64::MAX];
        values.extend((1..64).map(|bit| 1u64 << bit));
        let mut buf = Vec::new();
        for &v in &values {
            let before = buf.len();
            put_varint(&mut buf, v);
            assert_eq!(buf.len() - before, varint_len(v), "{v:#x}");
        }
        assert_eq!(varint_len(u64::MAX), MAX_VARINT_LEN);
        let mut cur = Cursor::new(&buf);
        for &v in &values {
            assert_eq!(cur.varint(), Ok(v));
        }
        assert!(cur.is_empty());
        for cut in 0..varint_len(u64::MAX) {
            let mut whole = Vec::new();
            put_varint(&mut whole, u64::MAX);
            assert_eq!(
                Cursor::new(&whole[..cut]).varint(),
                Err(CodecError::Truncated)
            );
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut cur = Cursor::new(&[0x7F]);
        assert_eq!(take_change(&mut cur), Err(CodecError::BadTag(0x7F)));
    }
}
