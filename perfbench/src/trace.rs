//! Per-layer measurement from outside the program: timing adapters
//! around the public `StreamSource` and `ChunkSink` traits, and replays
//! of the public kernel, policy and SHA-256 functions over a run's own
//! inputs.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use shredder_core::{ChunkSink, ShredderConfig, SinkPipelineHints, StageSpec, StreamSource};
use shredder_des::Dur;
use shredder_gpu::kernel::ChunkKernel;
use shredder_rabin::chunker::cuts_to_chunks;
use shredder_rabin::{Chunk, RawCut};

use crate::stats::Span;

/// Spans recorded by the timing adapters of one traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    /// One span per `StreamSource::read` call.
    pub source: Vec<Span>,
    /// One span per `ChunkSink::accept` or `ChunkSink::finish` call.
    pub sink: Vec<Span>,
    /// `ChunkSink::accept` calls.
    pub sink_calls: u64,
}

/// A shared span recorder; clones record into the same spans.
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<Spans>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Rc::new(RefCell::new(Spans {
            origin: Instant::now(),
            source: Vec::new(),
            sink: Vec::new(),
            sink_calls: 0,
        })))
    }
}

impl Tracer {
    /// Now, as an offset from the tracer's origin.
    pub fn now(&self) -> Duration {
        self.0.borrow().origin.elapsed()
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Spans> {
        self.0.borrow()
    }

    fn record(&self, start: Duration, sink: bool) {
        let end = self.now();
        let mut spans = self.0.borrow_mut();
        if sink {
            spans.sink.push((start, end));
        } else {
            spans.source.push((start, end));
        }
    }
}

/// Total length of a span list.
pub fn total(spans: &[Span]) -> Duration {
    spans.iter().map(|(s, e)| e.saturating_sub(*s)).sum()
}

/// A `StreamSource` that records a span around every `read`.
pub struct TimedSource<S> {
    inner: S,
    tracer: Tracer,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, tracer: &Tracer) -> Self {
        TimedSource {
            inner,
            tracer: tracer.clone(),
        }
    }
}

impl<S: StreamSource> StreamSource for TimedSource<S> {
    fn read(&mut self, buf: &mut [u8]) -> usize {
        let start = self.tracer.now();
        let n = self.inner.read(buf);
        self.tracer.record(start, false);
        n
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }
}

/// A `ChunkSink` that records a span around every `accept` and `finish`
/// and forwards `stages`, `hints` and `needs_payload` unchanged, so the
/// simulated model is the wrapped sink's.
pub struct TimedSink<S> {
    inner: S,
    tracer: Tracer,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, tracer: &Tracer) -> Self {
        TimedSink {
            inner,
            tracer: tracer.clone(),
        }
    }
}

impl<S: ChunkSink> ChunkSink for TimedSink<S> {
    fn stages(&self) -> Vec<StageSpec> {
        self.inner.stages()
    }

    fn accept(&mut self, chunk: Chunk, payload: &[u8]) -> Vec<Dur> {
        let start = self.tracer.now();
        let demand = self.inner.accept(chunk, payload);
        self.tracer.record(start, true);
        self.tracer.0.borrow_mut().sink_calls += 1;
        demand
    }

    fn finish(&mut self) -> Vec<Dur> {
        let start = self.tracer.now();
        let demand = self.inner.finish();
        self.tracer.record(start, true);
        demand
    }

    fn hints(&self) -> SinkPipelineHints {
        self.inner.hints()
    }

    fn needs_payload(&self) -> bool {
        self.inner.needs_payload()
    }
}

/// Wall time and counts of the scan, policy and SHA-256 layers, replayed
/// over a run's inputs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    pub scan: Duration,
    pub policy: Duration,
    pub sha256: Duration,
    pub scanned_bytes: u64,
    pub hashed_bytes: u64,
    pub raw_cuts: u64,
    pub chunks: u64,
}

/// Replays `ChunkKernel::run` over each stream the way the engine feeds
/// it: `buffer_size` pieces, each scanned behind the kernel's overlap
/// carry; then `apply_policy` over the stream's raw cuts; then, when
/// `fingerprint` is set, `sha256` over every chunk. Each replayed
/// stream must chunk exactly as the engine chunked it.
pub fn replay(
    config: &ShredderConfig,
    streams: &[(&[u8], &[Chunk])],
    fingerprint: bool,
) -> Result<Replay, String> {
    let kernel = ChunkKernel::new(config.params.clone(), config.kernel);
    let overlap = kernel.overlap();
    let size = config.buffer_size;
    let mut scan = vec![0u8; overlap + size];
    let mut out = Replay::default();
    for (index, (data, engine_chunks)) in streams.iter().enumerate() {
        let mut cuts: Vec<RawCut> = Vec::new();
        let mut start = 0u64;
        let mut carry = 0usize;
        for piece in data.chunks(size) {
            scan[carry..carry + piece.len()].copy_from_slice(piece);
            let scanned = &scan[..carry + piece.len()];
            let t = Instant::now();
            let kernel_out = kernel
                .run(&config.device, black_box(scanned))
                .map_err(|e| format!("kernel replay failed: {e}"))?;
            out.scan += t.elapsed();
            let base = start - carry as u64;
            cuts.extend(
                kernel_out
                    .raw_cuts
                    .iter()
                    .map(|c| RawCut {
                        offset: c.offset + base,
                        strict: c.strict,
                    })
                    .filter(|c| c.offset > start),
            );
            start += piece.len() as u64;
            let len = carry + piece.len();
            let keep = overlap.min(len);
            scan.copy_within(len - keep..len, 0);
            carry = keep;
        }
        let t = Instant::now();
        let accepted = kernel.apply_policy(black_box(&cuts), start);
        out.policy += t.elapsed();
        let chunks = cuts_to_chunks(&accepted, start);
        if chunks != *engine_chunks {
            return Err(format!(
                "stream {index}: the kernel replay's chunks differ from the engine's"
            ));
        }
        out.scanned_bytes += start;
        out.raw_cuts += cuts.len() as u64;
        out.chunks += chunks.len() as u64;
        if fingerprint {
            let t = Instant::now();
            for chunk in &chunks {
                black_box(shredder_hash::sha256(chunk.slice(data)));
            }
            out.sha256 += t.elapsed();
            out.hashed_bytes += start;
        }
    }
    Ok(out)
}
