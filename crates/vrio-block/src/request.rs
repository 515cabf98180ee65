//! Block request types and the sector-alignment split used by the zero-copy
//! write path.

use bytes::Bytes;
use vrio_virtio::SECTOR_SIZE;

/// Kind of block operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Read sectors.
    Read,
    /// Write sectors.
    Write,
    /// Flush the volatile write cache.
    Flush,
}

/// A unique, monotonically assigned request identifier. vRIO's
/// retransmission protocol (§4.5) keys its timeout and stale-response
/// filtering on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// One block request as it travels from front-end to back-end.
#[derive(Debug, Clone)]
pub struct BlockRequest {
    /// Unique id (fresh per retransmission).
    pub id: RequestId,
    /// Operation kind.
    pub kind: BlockKind,
    /// First sector addressed.
    pub sector: u64,
    /// Length in bytes (reads: how much to read; writes: `data.len()`).
    pub len: u32,
    /// Payload for writes; empty otherwise.
    pub data: Bytes,
}

impl BlockRequest {
    /// A read of `len` bytes starting at `sector`.
    pub fn read(id: RequestId, sector: u64, len: u32) -> Self {
        BlockRequest {
            id,
            kind: BlockKind::Read,
            sector,
            len,
            data: Bytes::new(),
        }
    }

    /// A write of `data` starting at `sector`.
    pub fn write(id: RequestId, sector: u64, data: Bytes) -> Self {
        let len = data.len() as u32;
        BlockRequest {
            id,
            kind: BlockKind::Write,
            sector,
            len,
            data,
        }
    }

    /// A cache flush.
    pub fn flush(id: RequestId) -> Self {
        BlockRequest {
            id,
            kind: BlockKind::Flush,
            sector: 0,
            len: 0,
            data: Bytes::new(),
        }
    }

    /// Bytes of data the request moves: the payload of a write, the
    /// length of a read, nothing for a flush.
    pub fn moved_bytes(&self) -> usize {
        match self.kind {
            BlockKind::Write => self.data.len(),
            BlockKind::Read => self.len as usize,
            BlockKind::Flush => 0,
        }
    }

    /// Byte offset of the first addressed sector.
    pub fn byte_offset(&self) -> u64 {
        self.sector * SECTOR_SIZE
    }

    /// Sector range `[first, last]` this request touches (empty for flush).
    pub fn sector_range(&self) -> std::ops::Range<u64> {
        let sectors = (u64::from(self.len)).div_ceil(SECTOR_SIZE);
        self.sector..self.sector + sectors
    }
}

/// How a buffer splits for the zero-copy write path (paper §4.4): the
/// worker writes the *aligned interior* directly from the DMA buffer and
/// copies only the unaligned edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignedSplit {
    /// Unaligned leading edge (must be copied), possibly empty.
    pub head: Bytes,
    /// Sector-aligned interior (zero-copy), possibly empty.
    pub middle: Bytes,
    /// Unaligned trailing edge (must be copied), possibly empty.
    pub tail: Bytes,
    /// Byte offset within the device where `head` starts.
    pub offset: u64,
}

impl AlignedSplit {
    /// Bytes that require copying (the edges).
    pub fn copied_bytes(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Bytes written zero-copy (the interior).
    pub fn zero_copy_bytes(&self) -> usize {
        self.middle.len()
    }
}

/// Splits a write buffer destined for byte `offset` into unaligned edges
/// and an aligned interior.
///
/// # Examples
///
/// ```
/// use vrio_block::split_sector_aligned;
/// use bytes::Bytes;
///
/// // A 2000-byte write at offset 100: head pads to the 512 boundary,
/// // interior covers [512, 2048), tail is the remainder.
/// let split = split_sector_aligned(100, Bytes::from(vec![0u8; 2000]));
/// assert_eq!(split.head.len(), 412);   // 100..512
/// assert_eq!(split.middle.len(), 1536); // 512..2048
/// assert_eq!(split.tail.len(), 52);    // 2048..2100
/// assert_eq!(split.copied_bytes(), 464);
/// ```
pub fn split_sector_aligned(offset: u64, data: Bytes) -> AlignedSplit {
    let end = offset + data.len() as u64;
    let first_aligned = offset.div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
    let last_aligned = (end / SECTOR_SIZE) * SECTOR_SIZE;
    if first_aligned >= last_aligned {
        // No aligned interior at all: the whole buffer is an edge.
        return AlignedSplit {
            head: data,
            middle: Bytes::new(),
            tail: Bytes::new(),
            offset,
        };
    }
    let head_len = (first_aligned - offset) as usize;
    let mid_len = (last_aligned - first_aligned) as usize;
    AlignedSplit {
        head: data.slice(0..head_len),
        middle: data.slice(head_len..head_len + mid_len),
        tail: data.slice(head_len + mid_len..),
        offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_aligned_buffer_is_all_interior() {
        let s = split_sector_aligned(1024, Bytes::from(vec![1u8; 4096]));
        assert!(s.head.is_empty());
        assert!(s.tail.is_empty());
        assert_eq!(s.zero_copy_bytes(), 4096);
        assert_eq!(s.copied_bytes(), 0);
    }

    #[test]
    fn tiny_unaligned_buffer_is_all_edge() {
        let s = split_sector_aligned(10, Bytes::from(vec![1u8; 100]));
        assert_eq!(s.head.len(), 100);
        assert_eq!(s.zero_copy_bytes(), 0);
    }

    #[test]
    fn split_preserves_content() {
        let data: Vec<u8> = (0..3000u32).map(|i| i as u8).collect();
        let s = split_sector_aligned(200, Bytes::from(data.clone()));
        let mut rebuilt = Vec::new();
        rebuilt.extend_from_slice(&s.head);
        rebuilt.extend_from_slice(&s.middle);
        rebuilt.extend_from_slice(&s.tail);
        assert_eq!(rebuilt, data);
        assert_eq!((s.offset + s.head.len() as u64) % SECTOR_SIZE, 0);
    }

    #[test]
    fn request_constructors() {
        let r = BlockRequest::read(RequestId(1), 8, 4096);
        assert_eq!(r.byte_offset(), 4096);
        assert_eq!(r.sector_range(), 8..16);
        let w = BlockRequest::write(RequestId(2), 0, Bytes::from(vec![0u8; 512]));
        assert_eq!(w.len, 512);
        assert_eq!(w.sector_range(), 0..1);
        let f = BlockRequest::flush(RequestId(3));
        assert_eq!(f.sector_range(), 0..0);
    }

    #[test]
    fn partial_sector_rounds_up() {
        let r = BlockRequest::read(RequestId(1), 4, 513);
        assert_eq!(r.sector_range(), 4..6);
    }
}
