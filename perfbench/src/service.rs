//! `service-4k`: one `ShredderService` node, Rabin `Coalesced` kernel,
//! boundary-only 4 KiB requests in an open-loop Poisson stream.
//!
//! The per-request frontend/engine/DES path does most of the work; the
//! scan does little and nothing hashes or stores.

use std::time::Instant;

use shredder_core::{ChunkRequest, ShredderConfig, ShredderService, SliceSource, Workload};
use shredder_rabin::chunk_all;
use shredder_workloads::random_bytes;

use crate::round::{item_seed, sample, Length, Round, Sim};
use crate::stats::mean;
use crate::trace::{replay, TimedSource, Tracer};

pub const REQUESTS: usize = 8192;
pub const REQUEST_BYTES: usize = 4 << 10;
/// About 78% of the 19.2k req/s batch capacity of this configuration.
pub const RATE_RPS: f64 = 15_000.0;
/// Requests whose chunks are checked against `chunk_all`.
const CHECKED: usize = 64;

pub fn config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory().with_buffer_size(1 << 20)
}

pub fn shape() -> String {
    format!(
        "1 node, Rabin Coalesced, {REQUESTS} x {} KiB boundary-only requests, Poisson {RATE_RPS} req/s",
        REQUEST_BYTES >> 10
    )
}

pub fn round(
    seed: u64,
    length: Length,
    tracer: Option<&Tracer>,
    verify: bool,
) -> Result<Round, String> {
    let n = length.of(REQUESTS);
    let clock = tracer.cloned().unwrap_or_default();
    let started = Instant::now();
    let payloads: Vec<Vec<u8>> = (0..n as u64)
        .map(|i| random_bytes(REQUEST_BYTES, item_seed(seed, i)))
        .collect();
    let gen = started.elapsed();
    let mut service = ShredderService::new(config());
    for payload in &payloads {
        let source = SliceSource::new(payload);
        service.submit(match tracer {
            None => ChunkRequest::new(source),
            Some(t) => ChunkRequest::new(TimedSource::new(source, t)),
        });
    }
    let setup = started.elapsed();

    let start = clock.now();
    let outcome = service
        .run(&Workload::poisson(RATE_RPS, seed))
        .map_err(|e| format!("service run failed: {e}"))?;
    let run = (start, clock.now());
    drop(service);

    let report = outcome.service();
    let mut round = Round {
        attempted: n as u64,
        failed: 0,
        problems: Vec::new(),
        gen,
        setup,
        run,
        payload_bytes: (n * REQUEST_BYTES) as u64,
        sim: Sim::from_service(report)?,
        layers: vec![
            ("engine.buffers", outcome.report.buffers as f64),
            (
                "gpu.utilization",
                mean(outcome.report.devices.iter().map(|d| d.utilization)),
            ),
            (
                "gpu.overlap",
                mean(outcome.report.devices.iter().map(|d| d.overlap)),
            ),
        ],
        replay: None,
        sink_replay: None,
    };
    round.count_errors(&outcome);

    let params = config().params;
    let checked = if verify { CHECKED } else { 0 };
    for i in sample(seed, n, checked) {
        match &outcome.requests[i].outcome {
            Ok(session) if session.chunks == chunk_all(&payloads[i], &params) => {}
            Ok(_) => round.fail(format!("request {i}: chunks differ from chunk_all")),
            Err(_) => {} // counted above
        }
    }

    if tracer.is_some() {
        let streams: Vec<(&[u8], &[_])> = payloads
            .iter()
            .zip(&outcome.requests)
            .filter_map(|(p, r)| {
                r.outcome
                    .as_ref()
                    .ok()
                    .map(|s| (p.as_slice(), s.chunks.as_slice()))
            })
            .collect();
        round.replay = Some(replay(&config(), &streams, false)?);
    }
    Ok(round)
}
