//! The chunking-service abstraction the case studies consume.
//!
//! The Shredder library notifies applications of chunk boundaries via an
//! upcall (§3.1: "the Store thread uses an upcall to notify the chunk
//! boundaries to the application that is using the Shredder library").
//! Here that upcall is the degenerate (stage-less) [`UpcallSink`]. The
//! one required method,
//! [`chunk_source_sink`](ChunkingService::chunk_source_sink), chunks a
//! [`StreamSource`] into any [`ChunkSink`], optionally behind an ingest
//! bandwidth cap, and is fallible so kernel errors propagate instead of
//! panicking. A sink with downstream stages (fingerprint, dedup, ship)
//! runs those stages *inside* the service's simulation, so hashing
//! genuinely overlaps chunking instead of being post-processed
//! analytically. The conveniences
//! [`chunk_stream`](ChunkingService::chunk_stream) and
//! [`chunk_stream_sink`](ChunkingService::chunk_stream_sink) cover
//! in-memory streams.
//!
//! For chunking *many* streams through one shared pipeline, submit them
//! as requests to a [`ShredderService`](crate::ShredderService) — these
//! per-call entry points each run a private one-request service.
//!
//! Every entry point honors the full
//! [`ShredderConfig`](crate::ShredderConfig), including the device pool:
//! a service built with `gpus = N`
//! ([`ShredderConfig::with_gpus`](crate::ShredderConfig::with_gpus))
//! runs over N devices, and the service's reports expose the per-device
//! utilization/overlap in [`EngineReport::devices`](crate::EngineReport).

use shredder_hash::{sha256, Digest};
use shredder_rabin::Chunk;

use crate::error::ChunkError;
use crate::report::Report;
use crate::sink::{ChunkSink, SinkOutcome, UpcallSink};
use crate::source::{SliceSource, StreamSource};

/// Result of chunking a stream: the chunks plus the engine's timing
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkOutcome {
    /// The chunks, tiling the input in order.
    pub chunks: Vec<Chunk>,
    /// Simulated timing report.
    pub report: Report,
}

impl ChunkOutcome {
    /// Computes the SHA-256 digest of every chunk (the hashing step of
    /// §2.1, performed by the Store thread in the backup case study).
    pub fn digests(&self, data: &[u8]) -> Vec<Digest> {
        self.chunks.iter().map(|c| sha256(c.slice(data))).collect()
    }

    /// Mean chunk size in bytes.
    pub fn mean_chunk_size(&self) -> f64 {
        if self.chunks.is_empty() {
            return 0.0;
        }
        let total: usize = self.chunks.iter().map(|c| c.len).sum();
        total as f64 / self.chunks.len() as f64
    }
}

/// A content-based chunking engine (GPU pipeline or host threads).
///
/// # Examples
///
/// ```
/// use shredder_core::{ChunkingService, HostChunker, SliceSource, UpcallSink};
///
/// let data = vec![3u8; 100_000];
/// let service = HostChunker::with_defaults();
/// let mut sizes: Vec<usize> = Vec::new();
/// let mut upcall = |chunk: shredder_rabin::Chunk| sizes.push(chunk.len);
/// service
///     .chunk_source_sink(&mut SliceSource::new(&data), &mut UpcallSink::new(&mut upcall), None)
///     .unwrap();
/// assert_eq!(sizes.iter().sum::<usize>(), data.len());
/// ```
pub trait ChunkingService {
    /// Chunks the stream delivered by `source` and drives `sink` with
    /// each chunk in stream order, running the sink's downstream stages
    /// inside the service's simulation.
    ///
    /// The sink's functional half (hashing, dedup decisions) always runs
    /// for real, chunk by chunk in stream order. `ingest_bw` is an
    /// explicit ingest bandwidth cap in bytes/s modeling the link that
    /// feeds the chunker (the §7.3 10 Gbps image source); `None` models
    /// a resident stream. The request path models the same cap as a
    /// [`TenantClass::ingest_bw`](crate::TenantClass) limit instead.
    ///
    /// # Errors
    ///
    /// [`ChunkError`] when the underlying engine rejects the
    /// configuration or a kernel launch fails.
    fn chunk_source_sink(
        &self,
        source: &mut dyn StreamSource,
        sink: &mut dyn ChunkSink,
        ingest_bw: Option<f64>,
    ) -> Result<SinkOutcome, ChunkError>;

    /// Chunks an in-memory stream and collects the chunks, in stream
    /// order, with the timing report.
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink`](Self::chunk_source_sink).
    fn chunk_stream(&self, data: &[u8]) -> Result<ChunkOutcome, ChunkError> {
        let mut chunks = Vec::new();
        let mut upcall = |c| chunks.push(c);
        let report = self
            .chunk_stream_sink(data, &mut UpcallSink::new(&mut upcall))?
            .report;
        Ok(ChunkOutcome { chunks, report })
    }

    /// Chunks an in-memory stream through a sink, uncapped.
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink`](Self::chunk_source_sink).
    fn chunk_stream_sink(
        &self,
        data: &[u8],
        sink: &mut dyn ChunkSink,
    ) -> Result<SinkOutcome, ChunkError> {
        self.chunk_source_sink(&mut SliceSource::new(data), sink, None)
    }

    /// Human-readable engine name (used in experiment output).
    fn service_name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::HostReport;
    use shredder_des::Dur;

    struct FakeService;

    impl ChunkingService for FakeService {
        fn chunk_source_sink(
            &self,
            source: &mut dyn StreamSource,
            sink: &mut dyn ChunkSink,
            _ingest_bw: Option<f64>,
        ) -> Result<SinkOutcome, ChunkError> {
            let mut total = 0usize;
            let mut buf = [0u8; 256];
            loop {
                let n = source.read(&mut buf);
                if n == 0 {
                    break;
                }
                total += n;
            }
            sink.accept(
                Chunk {
                    offset: 0,
                    len: total,
                },
                &[],
            );
            let makespan = Dur::from_micros(1);
            Ok(SinkOutcome {
                report: Report::Host(HostReport {
                    bytes: total as u64,
                    threads: 1,
                    allocator: "none".into(),
                    makespan,
                }),
                makespan,
                stages: Vec::new(),
            })
        }

        fn service_name(&self) -> String {
            "fake".into()
        }
    }

    #[test]
    fn collect_outcome() {
        let data = vec![1u8; 64];
        let out = FakeService.chunk_stream(&data).unwrap();
        assert_eq!(out.chunks.len(), 1);
        assert_eq!(out.mean_chunk_size(), 64.0);
        let digests = out.digests(&data);
        assert_eq!(digests.len(), 1);
        assert_eq!(digests[0], shredder_hash::sha256(&data));
    }

    #[test]
    fn source_and_slice_paths_agree() {
        let data = vec![7u8; 1000];
        let via_slice = FakeService.chunk_stream(&data).unwrap();
        let mut chunks = Vec::new();
        let mut upcall = |c| chunks.push(c);
        let via_source = FakeService
            .chunk_source_sink(
                &mut SliceSource::new(&data),
                &mut UpcallSink::new(&mut upcall),
                None,
            )
            .unwrap();
        assert_eq!(via_slice.report, via_source.report);
        assert_eq!(via_slice.chunks, chunks);
    }

    #[test]
    fn empty_outcome_stats() {
        let out = ChunkOutcome {
            chunks: vec![],
            report: Report::Host(HostReport {
                bytes: 0,
                threads: 1,
                allocator: "none".into(),
                makespan: Dur::ZERO,
            }),
        };
        assert_eq!(out.mean_chunk_size(), 0.0);
        assert!(out.digests(&[]).is_empty());
    }
}
