//! Stream ingestion: the [`StreamSource`] abstraction.
//!
//! The original API accepted only a fully-materialized `&[u8]` per
//! call. A [`StreamSource`] instead delivers bytes incrementally, so the
//! engine can pull one pipeline buffer at a time — which is what lets a
//! [`ShredderService`](crate::ShredderService) interleave many tenant
//! streams through one device pipeline while holding only a
//! `window − 1` byte carry per stream.
//!
//! Two ready-made sources cover the common cases: [`SliceSource`]
//! borrows an in-memory stream, [`MemorySource`] owns one. Any `&mut S`
//! where `S: StreamSource` is itself a source, so callers can keep
//! ownership while a request reads.

/// A pull-based byte stream feeding a chunking request.
///
/// # Examples
///
/// ```
/// use shredder_core::{SliceSource, StreamSource};
///
/// let mut src = SliceSource::new(b"hello world");
/// let mut buf = [0u8; 8];
/// assert_eq!(src.read(&mut buf), 8);
/// assert_eq!(&buf, b"hello wo");
/// assert_eq!(src.read(&mut buf), 3);
/// assert_eq!(src.read(&mut buf), 0); // exhausted
/// ```
pub trait StreamSource {
    /// Fills up to `buf.len()` bytes, returning how many were written.
    /// Returning `0` means the stream is exhausted.
    fn read(&mut self, buf: &mut [u8]) -> usize;

    /// Total remaining bytes, when known (used for scheduling hints and
    /// reporting; correctness never depends on it).
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

impl<S: StreamSource + ?Sized> StreamSource for &mut S {
    fn read(&mut self, buf: &mut [u8]) -> usize {
        (**self).read(buf)
    }

    fn size_hint(&self) -> Option<u64> {
        (**self).size_hint()
    }
}

impl<S: StreamSource + ?Sized> StreamSource for Box<S> {
    fn read(&mut self, buf: &mut [u8]) -> usize {
        (**self).read(buf)
    }

    fn size_hint(&self) -> Option<u64> {
        (**self).size_hint()
    }
}

/// A source borrowing an in-memory stream.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Creates a source over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        SliceSource { data, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

impl StreamSource for SliceSource<'_> {
    fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.remaining());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        n
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.remaining() as u64)
    }
}

impl<'a> From<&'a [u8]> for SliceSource<'a> {
    fn from(data: &'a [u8]) -> Self {
        SliceSource::new(data)
    }
}

impl<'a> From<&'a Vec<u8>> for SliceSource<'a> {
    fn from(data: &'a Vec<u8>) -> Self {
        SliceSource::new(data)
    }
}

/// A source owning its stream — lets a request outlive the caller's
/// borrow (e.g. requests built inside a loop).
#[derive(Debug, Clone)]
pub struct MemorySource {
    data: Vec<u8>,
    pos: usize,
}

impl MemorySource {
    /// Creates a source owning `data`.
    pub fn new(data: Vec<u8>) -> Self {
        MemorySource { data, pos: 0 }
    }

    /// Creates a source over `len` seeded pseudo-random bytes
    /// (xorshift64) — convenient for service-frontend workloads where
    /// each request owns its stream. Deterministic per seed.
    pub fn pseudo_random(len: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let data = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        MemorySource::new(data)
    }
}

impl StreamSource for MemorySource {
    fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        n
    }

    fn size_hint(&self) -> Option<u64> {
        Some((self.data.len() - self.pos) as u64)
    }
}

impl From<Vec<u8>> for MemorySource {
    fn from(data: Vec<u8>) -> Self {
        MemorySource::new(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut src: impl StreamSource, chunk: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; chunk];
        loop {
            let n = src.read(&mut buf);
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        out
    }

    #[test]
    fn slice_source_roundtrip_any_chunk_size() {
        let data: Vec<u8> = (0..=255u8).collect();
        for chunk in [1usize, 7, 64, 256, 1000] {
            assert_eq!(drain(SliceSource::new(&data), chunk), data, "chunk {chunk}");
        }
    }

    #[test]
    fn memory_source_roundtrip() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        assert_eq!(drain(MemorySource::new(data.clone()), 33), data);
    }

    #[test]
    fn size_hints_track_position() {
        let data = vec![9u8; 100];
        let mut src = SliceSource::new(&data);
        assert_eq!(src.size_hint(), Some(100));
        let mut buf = [0u8; 30];
        src.read(&mut buf);
        assert_eq!(src.size_hint(), Some(70));
        assert_eq!(src.remaining(), 70);
    }

    #[test]
    fn mut_reference_is_a_source() {
        let data = vec![1u8; 10];
        let mut src = SliceSource::new(&data);
        let via_ref: &mut SliceSource = &mut src;
        assert_eq!(drain(via_ref, 4), data);
    }

    #[test]
    fn empty_stream_reads_zero() {
        let mut src = SliceSource::new(&[]);
        assert_eq!(src.read(&mut [0u8; 8]), 0);
        assert_eq!(src.size_hint(), Some(0));
    }
}
