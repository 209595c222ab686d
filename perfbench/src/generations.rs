//! `store-generations`: K generations of one 32 MiB stream, each a 5%
//! mutation of the last, ingested through one `ShredderService` into a
//! `ChunkStore` by `StoreSink`s as a closed loop of one client; then a
//! digest-verified restore of every generation, expiry of the older
//! half, GC, and a second restore of the survivors.
//!
//! Large deduplicating streams load the scan, SHA-256 and the store's
//! index and segment log, and barely touch the engine's per-request
//! path.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use shredder_core::{
    ChunkRequest, ShredderConfig, ShredderService, SliceSource, StoreSink, StoreSinkConfig,
    Workload,
};
use shredder_des::Dur;
use shredder_rabin::ChunkParams;
use shredder_store::ChunkStore;
use shredder_workloads::{compressible_bytes, mutate, MutationSpec};

use crate::round::{item_seed, Length, Round, Sim};
use crate::stats::mean;
use crate::trace::{replay, TimedSink, TimedSource, Tracer};

pub const GENERATIONS: usize = 8;
pub const STREAM_BYTES: usize = 32 << 20;
pub const CHANGE: f64 = 0.05;
/// Distinct 64-byte blocks the base stream is drawn from.
const VOCABULARY: usize = 1 << 16;
const STREAM: &str = "vm";

pub fn config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory()
        .with_params(ChunkParams::backup())
        .with_buffer_size(1 << 20)
}

pub fn shape() -> String {
    format!(
        "1 node, Rabin Coalesced, backup params, {GENERATIONS} generations x {} MiB, {}% mutation each, closed loop of 1 client",
        STREAM_BYTES >> 20,
        CHANGE * 100.0
    )
}

pub fn round(
    seed: u64,
    length: Length,
    tracer: Option<&Tracer>,
    verify: bool,
) -> Result<Round, String> {
    let k = length.of(GENERATIONS);
    let clock = tracer.cloned().unwrap_or_default();
    let started = Instant::now();
    let mut generations = vec![compressible_bytes(STREAM_BYTES, VOCABULARY, seed)];
    for g in 1..k {
        let spec = MutationSpec::replace(CHANGE, item_seed(seed, g as u64));
        generations.push(mutate(&generations[g - 1], &spec));
    }
    let gen = started.elapsed();
    let cfg = config();
    let store = Rc::new(RefCell::new(ChunkStore::with_config(cfg.store_config())));
    let mut sinks: Vec<StoreSink> = (0..k)
        .map(|_| StoreSink::new(STREAM, StoreSinkConfig::default(), store.clone()))
        .collect();
    let mut service = ShredderService::new(cfg.clone());
    for (data, sink) in generations.iter().zip(sinks.iter_mut()) {
        let source = SliceSource::new(data);
        service.submit(match tracer {
            None => ChunkRequest::new(source).with_sink(sink),
            Some(t) => {
                ChunkRequest::new(TimedSource::new(source, t)).with_sink(TimedSink::new(sink, t))
            }
        });
    }
    let setup = started.elapsed();

    let start = clock.now();
    let outcome = service
        .run(&Workload::closed_loop(1, Dur::ZERO))
        .map_err(|e| format!("service run failed: {e}"))?;
    let run = (start, clock.now());
    drop(service);

    let user_bytes = (k * STREAM_BYTES) as u64;
    let report = outcome.service();
    let mut round = Round {
        attempted: k as u64,
        failed: 0,
        problems: Vec::new(),
        gen,
        setup,
        run,
        payload_bytes: user_bytes,
        sim: Sim::from_service(report)?,
        layers: Vec::new(),
        replay: None,
        sink_replay: None,
    };
    round.count_errors(&outcome);
    let ids: Vec<u64> = sinks.iter().filter_map(StoreSink::generation).collect();
    if ids.len() != k {
        return Err(format!("{} of {k} generations committed", ids.len()));
    }
    let lookups: usize = sinks.iter().map(StoreSink::chunks).sum();
    let ingested = store.borrow().report();

    if verify {
        round.layers = restore_and_collect(&store, &ids, &generations, &mut round);
    }
    let engine = &outcome.report;
    round.layers.extend([
        ("engine.buffers", engine.buffers as f64),
        (
            "gpu.utilization",
            mean(engine.devices.iter().map(|d| d.utilization)),
        ),
        (
            "gpu.overlap",
            mean(engine.devices.iter().map(|d| d.overlap)),
        ),
        ("store.lookups", lookups as f64),
        ("store.dedup_hits", ingested.dedup_hits as f64),
        (
            "store.hit_rate",
            ingested.dedup_hits as f64 / lookups as f64,
        ),
        ("store.segments", ingested.segment_count as f64),
        (
            "store.stored_bytes_per_user_byte",
            ingested.physical_bytes as f64 / user_bytes as f64,
        ),
    ]);
    for stage in &engine.sink_stages {
        let (busy, wait, jobs) = match stage.name.as_str() {
            "fingerprint" => (
                "sink.fingerprint.busy_s",
                "sink.fingerprint.queue_wait_s",
                "sink.fingerprint.jobs",
            ),
            "store-commit" => (
                "sink.store-commit.busy_s",
                "sink.store-commit.queue_wait_s",
                "sink.store-commit.jobs",
            ),
            other => return Err(format!("unexpected sink stage '{other}'")),
        };
        round.layers.push((busy, stage.busy.as_secs_f64()));
        round.layers.push((wait, stage.queue_wait.as_secs_f64()));
        round.layers.push((jobs, stage.jobs as f64));
    }

    if tracer.is_some() {
        let streams: Vec<(&[u8], &[_])> = generations
            .iter()
            .zip(&outcome.requests)
            .filter_map(|(g, r)| {
                r.outcome
                    .as_ref()
                    .ok()
                    .map(|s| (g.as_slice(), s.chunks.as_slice()))
            })
            .collect();
        round.replay = Some(replay(&cfg, &streams, true)?);
    }
    Ok(round)
}

/// Restores every generation (the store verifies each chunk's digest on
/// the way out) and compares it with its input, expires the older half,
/// collects, and checks that the survivors still restore and the expired
/// generations are gone. Returns the store layer's figures.
fn restore_and_collect(
    store: &RefCell<ChunkStore>,
    ids: &[u64],
    generations: &[Vec<u8>],
    round: &mut Round,
) -> Vec<(&'static str, f64)> {
    let mut restore = Duration::ZERO;
    for (g, id) in ids.iter().enumerate() {
        let t = Instant::now();
        let restored = store.borrow().restore(STREAM, *id);
        restore += t.elapsed();
        if restored.as_deref() != Ok(generations[g].as_slice()) {
            round.fail(format!("generation {g} does not restore bit-identical"));
        }
    }

    let expired = ids.len() / 2;
    store.borrow_mut().expire(STREAM, ids[expired - 1]);
    let t = Instant::now();
    let gc = store.borrow_mut().gc();
    let gc_time = t.elapsed();
    for (g, id) in ids.iter().enumerate() {
        let restored = store.borrow().restore(STREAM, *id);
        match (g < expired, restored) {
            (true, Err(_)) => {}
            (true, Ok(_)) => round.fail(format!("expired generation {g} still restores")),
            (false, Ok(bytes)) if bytes == generations[g] => {}
            (false, _) => round.fail(format!("generation {g} does not restore after GC")),
        }
    }
    let restored_bytes: usize = generations.iter().map(Vec::len).sum();
    vec![
        ("store.restore_s", restore.as_secs_f64()),
        (
            "store.restore_mb_per_s",
            restored_bytes as f64 / restore.as_secs_f64() / 1e6,
        ),
        ("store.gc_s", gc_time.as_secs_f64()),
        ("store.gc_reclaimed_bytes", gc.reclaimed_bytes() as f64),
        ("store.gc_rewritten_bytes", gc.moved_bytes as f64),
    ]
}
