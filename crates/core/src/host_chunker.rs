//! The host-only parallel chunker: the paper's pthreads baseline (§5.1).
//!
//! Chunk boundaries are computed for real by
//! [`ParallelChunker`] (SPMD region
//! split + boundary merge on actual OS threads). The *simulated* time
//! uses the calibrated per-byte Xeon cost plus the allocator-contention
//! loss — the with/without-Hoard distinction of Figure 12's two CPU
//! bars.

use shredder_des::Dur;
use shredder_gpu::calibration;
use shredder_rabin::ParallelChunker;

use crate::bufpool::BufferPool;
use crate::config::HostChunkerConfig;
use crate::error::ChunkError;
use crate::report::{HostReport, Report};
use crate::service::ChunkingService;
use crate::sink::{run_sink_after_chunking, ChunkSink, SinkOutcome};
use crate::source::StreamSource;

/// The host-only (CPU) chunking engine.
///
/// # Examples
///
/// ```
/// use shredder_core::{ChunkingService, HostChunker, HostChunkerConfig};
///
/// let data = vec![0x42u8; 1 << 18];
/// let with_hoard = HostChunker::new(HostChunkerConfig::optimized());
/// let without = HostChunker::new(HostChunkerConfig::unoptimized());
///
/// let a = with_hoard.chunk_stream(&data).unwrap();
/// let b = without.chunk_stream(&data).unwrap();
/// assert_eq!(a.chunks, b.chunks); // same boundaries
/// // Hoard removes allocator serialization (§5.1).
/// assert!(a.report.throughput_gbps() > b.report.throughput_gbps());
/// ```
#[derive(Debug, Clone)]
pub struct HostChunker {
    config: HostChunkerConfig,
    chunker: ParallelChunker,
    pool: BufferPool,
}

impl HostChunker {
    /// Creates an engine from a configuration.
    pub fn new(config: HostChunkerConfig) -> Self {
        let chunker = ParallelChunker::new(&config.params, config.threads);
        HostChunker {
            config,
            chunker,
            pool: BufferPool::new(),
        }
    }

    /// The paper's optimized baseline (12 threads, Hoard).
    pub fn with_defaults() -> Self {
        HostChunker::new(HostChunkerConfig::optimized())
    }

    /// The configuration.
    pub fn config(&self) -> &HostChunkerConfig {
        &self.config
    }

    /// The buffer pool backing this chunker's materialization path
    /// (allocation counters included) — after the first stream of a
    /// given size, repeat streams lease every buffer from here.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Effective sustained chunking bandwidth of this configuration in
    /// bytes/s: `threads × clock / cycles_per_byte × (1 − alloc_loss)`.
    pub fn effective_bandwidth(&self) -> f64 {
        let per_thread = self.config.clock_hz / calibration::CPU_RABIN_CYCLES_PER_BYTE;
        per_thread * self.config.threads as f64 * (1.0 - self.config.allocator.contention_loss())
    }

    /// Simulated time to chunk `bytes` bytes.
    pub fn chunk_time(&self, bytes: u64) -> Dur {
        if bytes == 0 {
            return Dur::ZERO;
        }
        // Thread spawn + final boundary-merge synchronization (§5.1 step
        // 3) cost a small constant per run.
        let sync = Dur::from_micros(50) * self.config.threads as u64;
        Dur::from_bytes_at(bytes, self.effective_bandwidth()) + sync
    }

    /// Chunks a resident stream, then runs the sink behind it: the
    /// sink's functional pass sees every chunk in order, and its stages
    /// are pipelined behind a chunker running at this configuration's
    /// rate (batched at
    /// [`SinkPipelineHints::granularity`](crate::SinkPipelineHints)),
    /// so downstream stages still overlap chunking in simulated time.
    fn chunk_resident(
        &self,
        data: &[u8],
        sink: &mut dyn ChunkSink,
        ingest_bw: Option<f64>,
    ) -> SinkOutcome {
        let chunks = self.chunker.chunk(data);
        let report = Report::Host(HostReport {
            bytes: data.len() as u64,
            threads: self.config.threads,
            allocator: self.config.allocator.to_string(),
            makespan: self.chunk_time(data.len() as u64),
        });
        run_sink_after_chunking(data, &chunks, report, sink, ingest_bw)
    }
}

impl ChunkingService for HostChunker {
    fn chunk_source_sink(
        &self,
        source: &mut dyn StreamSource,
        sink: &mut dyn ChunkSink,
        ingest_bw: Option<f64>,
    ) -> Result<SinkOutcome, ChunkError> {
        // The pthreads baseline materializes the stream before its SPMD
        // region split (§5.1 operates on a resident buffer). Both the
        // stream and the read scratch are pooled leases, so repeat
        // streams allocate nothing (§5.1's allocator-discipline lesson).
        let mut data = self
            .pool
            .with_capacity(source.size_hint().unwrap_or(0) as usize);
        let mut buf = self.pool.get(1 << 20);
        loop {
            let n = source.read(&mut buf);
            if n == 0 {
                break;
            }
            data.extend_from_slice(&buf[..n]);
        }
        Ok(self.chunk_resident(&data, sink, ingest_bw))
    }

    /// An in-memory stream is already resident: no materialization.
    fn chunk_stream_sink(
        &self,
        data: &[u8],
        sink: &mut dyn ChunkSink,
    ) -> Result<SinkOutcome, ChunkError> {
        Ok(self.chunk_resident(data, sink, None))
    }

    fn service_name(&self) -> String {
        format!(
            "pthreads-cpu({} threads, {})",
            self.config.threads, self.config.allocator
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shredder_rabin::{chunk_all, ChunkParams};

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn boundaries_match_sequential() {
        let data = pseudo_random(1 << 20, 5);
        let out = HostChunker::with_defaults().chunk_stream(&data).unwrap();
        assert_eq!(out.chunks, chunk_all(&data, &ChunkParams::paper()));
    }

    #[test]
    fn materialization_is_allocation_free_in_steady_state() {
        use crate::sink::UpcallSink;
        use crate::source::SliceSource;
        let data = pseudo_random(768 << 10, 9);
        let chunker = HostChunker::with_defaults();
        let run = || {
            let mut upcall = |_| {};
            chunker
                .chunk_source_sink(
                    &mut SliceSource::new(&data),
                    &mut UpcallSink::new(&mut upcall),
                    None,
                )
                .unwrap();
        };
        // Warm-up call leases (and so allocates) the stream and scratch
        // buffers; every repeat call reuses them.
        run();
        let warm = chunker.buffer_pool().allocations();
        for _ in 0..5 {
            run();
        }
        assert_eq!(
            chunker.buffer_pool().allocations(),
            warm,
            "steady-state materialization must not allocate"
        );
        assert!(chunker.buffer_pool().recycles() >= 10);
    }

    #[test]
    fn optimized_bandwidth_near_figure12() {
        // ~0.4 GB/s for 12 threads with Hoard.
        let bw = HostChunker::with_defaults().effective_bandwidth();
        assert!(bw > 0.35e9 && bw < 0.45e9, "{bw}");
    }

    #[test]
    fn hoard_beats_malloc() {
        let hoard = HostChunker::new(HostChunkerConfig::optimized());
        let malloc = HostChunker::new(HostChunkerConfig::unoptimized());
        assert!(hoard.effective_bandwidth() > malloc.effective_bandwidth());
        // Both still compute identical chunks.
        let data = pseudo_random(1 << 19, 6);
        assert_eq!(
            hoard.chunk_stream(&data).unwrap().chunks,
            malloc.chunk_stream(&data).unwrap().chunks
        );
    }

    #[test]
    fn chunk_time_scales_linearly() {
        let c = HostChunker::with_defaults();
        let t1 = c.chunk_time(1 << 28);
        let t2 = c.chunk_time(1 << 29);
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.05, "{ratio}");
        assert_eq!(c.chunk_time(0), Dur::ZERO);
    }

    #[test]
    fn report_contents() {
        let data = pseudo_random(1 << 18, 7);
        let out = HostChunker::with_defaults().chunk_stream(&data).unwrap();
        match &out.report {
            Report::Host(h) => {
                assert_eq!(h.threads, 12);
                assert_eq!(h.allocator, "hoard");
                assert_eq!(h.bytes, data.len() as u64);
            }
            Report::Pipeline(_) => panic!("expected host report"),
        }
        assert!(out.report.throughput_gbps() > 0.0);
    }

    #[test]
    fn service_name_mentions_configuration() {
        let name = HostChunker::with_defaults().service_name();
        assert!(name.contains("12"));
        assert!(name.contains("hoard"));
    }
}
