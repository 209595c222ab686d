//! `fleet-r2`: an 8-node `ShredderFleet` with replication factor 2 and
//! the `GearCoalesced` kernel; 64 KiB requests over 256 streams, each
//! request a 5% mutation of its stream's previous one, in an open-loop
//! Poisson stream.
//!
//! The Gear scan is cheap here, so routing, dedup-aware replication,
//! digest-verified replica installs and the per-node stores dominate.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use shredder_cluster::{FleetConfig, FleetRequest, FleetRequestOutcome, ShredderFleet};
use shredder_core::{ChunkSink, ShredderConfig, SliceSource, StoreSink, Workload};
use shredder_gpu::kernel::KernelVariant;
use shredder_hash::mix::SeededRng;
use shredder_rabin::{BoundaryKernel, GearKernel};
use shredder_store::ChunkStore;
use shredder_workloads::{mutate, random_bytes, MutationSpec};

use crate::round::{item_seed, sample, Length, Round, Sim};
use crate::stats::realized_rate;
use crate::trace::{replay, total, TimedSink, TimedSource, Tracer};

pub const NODES: usize = 8;
pub const REPLICATION: usize = 2;
pub const REQUESTS: usize = 4096;
pub const REQUEST_BYTES: usize = 64 << 10;
pub const STREAMS: u64 = 256;
pub const CHANGE: f64 = 0.05;
pub const RATE_RPS: f64 = 8_000.0;
/// Requests whose chunks are checked against the sequential Gear scan.
const CHECKED: usize = 64;

pub fn node_config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory()
        .with_chunk_kernel(KernelVariant::GearCoalesced)
        .with_buffer_size(1 << 20)
}

fn fleet_config() -> FleetConfig {
    FleetConfig::new(NODES, node_config()).with_replication(REPLICATION)
}

pub fn shape() -> String {
    format!(
        "{NODES} nodes, R={REPLICATION}, GearCoalesced, {REQUESTS} x {} KiB requests over {STREAMS} streams, {}% mutation per request, Poisson {RATE_RPS} req/s",
        REQUEST_BYTES >> 10,
        CHANGE * 100.0
    )
}

/// `n` requests: each picks a stream at random; a stream's first
/// request is fresh random bytes, later ones mutate its previous one.
fn requests(seed: u64, n: usize) -> Vec<(u64, Vec<u8>)> {
    let mut rng = SeededRng::new(seed);
    let mut latest: Vec<Option<usize>> = vec![None; STREAMS as usize];
    let mut out: Vec<(u64, Vec<u8>)> = Vec::with_capacity(n);
    for i in 0..n {
        let stream = rng.next_below(STREAMS);
        let data = match latest[stream as usize] {
            None => random_bytes(REQUEST_BYTES, item_seed(seed, i as u64)),
            Some(prev) => mutate(
                &out[prev].1,
                &MutationSpec::replace(CHANGE, item_seed(seed, i as u64)),
            ),
        };
        latest[stream as usize] = Some(i);
        out.push((stream, data));
    }
    out
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
    let payloads = requests(seed, n);
    let gen = started.elapsed();
    let mut fleet = ShredderFleet::new(fleet_config());
    for (stream, data) in &payloads {
        let key = format!("stream-{stream}");
        let source = SliceSource::new(data);
        fleet.submit(match tracer {
            None => FleetRequest::new(key, source),
            Some(t) => FleetRequest::new(key, TimedSource::new(source, t)),
        });
    }
    let setup = started.elapsed();

    let workload = Workload::poisson(RATE_RPS, seed);
    let start = clock.now();
    let outcome = fleet
        .run(&workload)
        .map_err(|e| format!("fleet run failed: {e}"))?;
    let run = (start, clock.now());
    drop(fleet);

    let arrivals: Vec<u64> = workload
        .arrivals(n)
        .ok_or("Poisson arrivals are precomputable")?
        .iter()
        .map(|t| t.as_nanos())
        .collect();
    let report = &outcome.report;
    let user_bytes = (n * REQUEST_BYTES) as u64;
    let samples = report.completed;
    let makespan_s = report.makespan.as_secs_f64();
    let mut round = Round {
        attempted: n as u64,
        failed: (report.shed + report.lost) as u64,
        problems: Vec::new(),
        gen,
        setup,
        run,
        payload_bytes: user_bytes,
        // The fleet's public report carries no per-request completion
        // times, so only the offered rate is windowed (from the same
        // arrival schedule the fleet routes); the rest covers the run.
        sim: Sim {
            windowed: false,
            samples,
            offered_rps: realized_rate(&arrivals).ok_or("arrivals span no time")?,
            achieved_rps: report.achieved_rps,
            gbps: report.ingest_bytes as f64 / makespan_s / 1e9,
            p50_ms: (samples >= 20).then(|| report.p50.as_nanos() as f64 / 1e6),
            p99_ms: (samples >= 1000).then(|| report.p99.as_nanos() as f64 / 1e6),
            queue_delay_p99_ms: None,
            max_queue_depth: None,
        },
        layers: Vec::new(),
        replay: None,
        sink_replay: None,
    };
    if report.shed + report.lost > 0 {
        round
            .problems
            .push(format!("{} shed, {} lost", report.shed, report.lost));
    }

    // Accounting balances per node and fleet-wide.
    for node in &report.nodes {
        if node.routed != node.completed + node.shed + node.lost {
            round.fail(format!(
                "node {}: routed {} != completed {} + shed {} + lost {}",
                node.node, node.routed, node.completed, node.shed, node.lost
            ));
        }
    }
    let routed: usize = report.nodes.iter().map(|r| r.routed).sum();
    if routed != n || report.completed + report.shed + report.lost != n {
        round.fail(format!(
            "fleet: {n} submitted, {routed} routed, {} completed + {} shed + {} lost",
            report.completed, report.shed, report.lost
        ));
    }
    if outcome.completed().count() != report.completed {
        round.fail("completed results disagree with the report".to_string());
    }

    let gear = GearKernel::matched(&node_config().params);
    let checked = if verify { CHECKED } else { 0 };
    for i in sample(seed, n, checked) {
        match &outcome.requests[i].outcome {
            FleetRequestOutcome::Completed(s) if s.chunks == gear.chunks(&payloads[i].1) => {}
            FleetRequestOutcome::Completed(_) => round.fail(format!(
                "request {i}: chunks differ from the sequential Gear scan"
            )),
            _ => {}
        }
    }

    let stores: Vec<_> = (0..NODES)
        .filter_map(|node| outcome.store(node).map(|s| s.borrow().report()))
        .collect();
    let lookups: usize = outcome.completed().map(|(_, s)| s.chunks.len()).sum();
    let dedup_hits: u64 = stores.iter().map(|s| s.dedup_hits).sum();
    let completed: Vec<f64> = report.nodes.iter().map(|r| r.completed as f64).collect();
    let mean_completed = completed.iter().sum::<f64>() / completed.len() as f64;
    let buffer = node_config().buffer_size;
    round.layers = vec![
        (
            "engine.buffers",
            outcome
                .completed()
                .map(|(r, _)| payloads[r.index].1.len().div_ceil(buffer))
                .sum::<usize>() as f64,
        ),
        ("store.lookups", lookups as f64),
        ("store.dedup_hits", dedup_hits as f64),
        ("store.hit_rate", dedup_hits as f64 / lookups as f64),
        (
            "store.segments",
            stores.iter().map(|s| s.segment_count).sum::<usize>() as f64,
        ),
        (
            "store.stored_bytes_per_user_byte",
            stores.iter().map(|s| s.physical_bytes).sum::<u64>() as f64 / user_bytes as f64,
        ),
        ("cluster.routed", routed as f64),
        (
            "cluster.repl_logical_bytes",
            report.replication.logical_bytes as f64,
        ),
        (
            "cluster.repl_physical_bytes",
            report.replication.physical_bytes as f64,
        ),
        (
            "cluster.repl_amplification",
            report.replication_amplification(),
        ),
        (
            "cluster.cross_node_dup_frac",
            report.cross_node_dup_fraction(),
        ),
        (
            "cluster.node_completed_max_over_mean",
            completed.iter().copied().fold(0.0, f64::max) / mean_completed,
        ),
    ];

    if tracer.is_some() {
        let streams: Vec<(&[u8], &[_])> = outcome
            .completed()
            .map(|(r, s)| (payloads[r.index].1.as_slice(), s.chunks.as_slice()))
            .collect();
        round.replay = Some(replay(&node_config(), &streams, true)?);
        round.sink_replay = Some(replay_sinks(&outcome, &payloads));
    }
    Ok(round)
}

/// The fleet builds its nodes' `StoreSink`s itself, out of the timing
/// adapter's reach, so their functional pass is replayed: each node's
/// completed requests, in submit order, through a fresh store of its
/// own. Returns the sinks' wall time and `accept` calls.
fn replay_sinks(
    outcome: &shredder_cluster::FleetOutcome,
    payloads: &[(u64, Vec<u8>)],
) -> (std::time::Duration, u64) {
    let fleet = fleet_config();
    let tracer = Tracer::default();
    let stores: Vec<_> = (0..NODES)
        .map(|_| {
            Rc::new(RefCell::new(ChunkStore::with_config(
                fleet.node.store_config(),
            )))
        })
        .collect();
    for (result, session) in outcome.completed() {
        let data = &payloads[result.index].1;
        let sink = StoreSink::new(
            result.store_stream.clone(),
            fleet.store,
            stores[result.node].clone(),
        );
        let mut sink = TimedSink::new(sink, &tracer);
        for chunk in &session.chunks {
            sink.accept(*chunk, chunk.slice(data));
        }
        sink.finish();
    }
    let spans = tracer.spans();
    (total(&spans.sink), spans.sink_calls)
}
