//! Integration: the online service frontend (the acceptance surface of
//! the open-loop redesign).
//!
//! The service must (a) sustain an open-loop Poisson workload below
//! capacity with a finite, stable p99 and no shedding, (b) shed under
//! overload with *bounded* queue delay, without corrupting accepted
//! requests' chunk streams, and (c) keep the one-shot `Shredder`
//! helpers bit-identical — chunks, digests and timings — to the
//! one-request closed batch they are.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use shredder::core::{
    capacity_search, AdmissionControl, ChunkError, ChunkRequest, ChunkingService, DedupSink,
    DedupSinkConfig, MemorySource, Report, ServiceOutcome, Shredder, ShredderConfig,
    ShredderService, SinkPipelineHints, SliceSource, Workload,
};
use shredder::des::Dur;
use shredder::hash::sha256;
use shredder::rabin::{chunk_all, ChunkParams};
use shredder::workloads;

const REQUESTS: usize = 24;
const REQ_BYTES: usize = 256 << 10;

fn cfg() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 10)
}

fn service_with_requests<'a>() -> ShredderService<'a> {
    let mut service = ShredderService::new(cfg());
    for t in 0..REQUESTS as u64 {
        service.submit(ChunkRequest::new(MemorySource::pseudo_random(REQ_BYTES, t)));
    }
    service
}

/// Measured service capacity in req/s: a closed batch through the same
/// admission slots, completed count over makespan.
fn measured_capacity() -> f64 {
    let mut service = service_with_requests().with_admission(AdmissionControl::fifo(4));
    let out = service.run(&Workload::Batch).unwrap();
    let svc = out.service();
    assert_eq!(svc.completed, REQUESTS);
    svc.achieved_rps
}

#[test]
fn poisson_at_80_percent_of_capacity_meets_slo_and_is_stable() {
    let mu = measured_capacity();
    let rate = 0.8 * mu;
    let run = || {
        let mut service = service_with_requests().with_admission(AdmissionControl::fifo(4));
        service.run(&Workload::poisson(rate, 1234)).unwrap()
    };
    let first = run();
    let svc = first.service();

    // Below capacity: nothing sheds, every request completes, and p99
    // is finite (positive and far below the whole run's span).
    assert_eq!(svc.shed, 0);
    assert_eq!(svc.completed, REQUESTS);
    let p99 = svc.p99();
    assert!(p99 > Dur::ZERO);
    assert!(
        p99 < first.report.makespan,
        "p99 {p99} not finite relative to makespan {}",
        first.report.makespan
    );
    // The queue does not grow without bound below capacity.
    assert!(
        svc.max_queue_depth < REQUESTS / 2,
        "queue depth {} blew up below capacity",
        svc.max_queue_depth
    );
    // Offered ≈ configured rate; achieved keeps up with offered.
    assert!(
        (svc.offered_rps - rate).abs() / rate < 0.5,
        "offered {} vs configured {rate}",
        svc.offered_rps
    );

    // Stable: the identical workload replays to the identical report —
    // latencies, timelines, queue-depth samples, everything.
    let second = run();
    assert_eq!(first.report, second.report);
    for (a, b) in first.requests.iter().zip(&second.requests) {
        assert_eq!(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
    }
}

#[test]
fn poisson_at_120_percent_of_capacity_sheds_with_bounded_queue_delay() {
    let mu = measured_capacity();
    let bound = Dur::from_micros(800);
    let mut service = service_with_requests()
        .with_admission(AdmissionControl::fifo(4).with_max_queue_delay(bound));
    let out = service.run(&Workload::poisson(1.2 * mu, 99)).unwrap();
    let svc = out.service();

    // Overload: the delay bound trips and sheds some of the offered
    // traffic, but the rest completes.
    assert!(
        svc.shed > 0,
        "120% of capacity must shed (max delay {})",
        svc.max_queue_delay()
    );
    assert!(svc.completed > 0);
    assert_eq!(svc.completed + svc.shed, REQUESTS);

    // Queue delay is bounded for *everyone*: admitted requests waited
    // at most the bound (they would have been shed otherwise), shed
    // requests were cut exactly at the bound.
    for r in &svc.requests {
        assert!(
            r.queue_delay() <= bound,
            "request {} queue delay {} exceeds bound {bound}",
            r.id,
            r.queue_delay()
        );
    }
    assert!(svc.max_queue_delay() <= bound);

    // Shed requests surface as Overloaded with their queueing time.
    for r in &out.requests {
        if let Err(e) = &r.outcome {
            assert!(matches!(e, ChunkError::Overloaded { .. }), "{e:?}");
        }
    }

    // Accepted requests' chunks are still bit-identical to sequential
    // scans of their own streams — overload isolation.
    for (result, outcome) in out.completed() {
        let mut src = MemorySource::pseudo_random(REQ_BYTES, result.id.index() as u64);
        let mut data = Vec::new();
        let mut buf = [0u8; 8192];
        loop {
            let n = shredder::core::StreamSource::read(&mut src, &mut buf);
            if n == 0 {
                break;
            }
            data.extend_from_slice(&buf[..n]);
        }
        assert_eq!(outcome.chunks, chunk_all(&data, &ChunkParams::paper()));
        // Digest spot check on the first chunk.
        if let Some(c) = outcome.chunks.first() {
            let _ = sha256(c.slice(&data));
        }
    }
}

#[test]
fn queue_depth_bound_sheds_excess_burst() {
    let mut service =
        service_with_requests().with_admission(AdmissionControl::fifo(2).with_queue_depth(4));
    let out = service.run(&Workload::Batch).unwrap();
    let svc = out.service();
    // A batch burst of 24 into 2 slots + 4 queue seats: exactly the
    // overflow sheds at arrival with zero queueing.
    assert_eq!(svc.completed, 6);
    assert_eq!(svc.shed, REQUESTS - 6);
    assert!(svc.max_queue_depth <= 4);
    for r in &svc.requests {
        if r.is_shed() {
            assert_eq!(r.queue_delay(), Dur::ZERO, "queue-full sheds are immediate");
        }
    }

    // Degenerate depth 0: the bound only applies to requests that would
    // actually wait — with a free dispatch slot an arrival still goes
    // straight through, so exactly the slot-holders complete.
    let mut service =
        service_with_requests().with_admission(AdmissionControl::fifo(2).with_queue_depth(0));
    let out = service.run(&Workload::Batch).unwrap();
    assert_eq!(out.service().completed, 2);
    assert_eq!(out.service().shed, REQUESTS - 2);
}

#[test]
fn closed_loop_self_throttles_and_never_sheds() {
    let clients = 4;
    let mut service = service_with_requests().with_admission(AdmissionControl::fifo(clients));
    let out = service
        .run(&Workload::closed_loop(clients, Dur::from_micros(200)))
        .unwrap();
    let svc = out.service();
    // Closed loop: offered load follows completions, so with as many
    // dispatch slots as clients nothing ever queues or sheds.
    assert_eq!(svc.completed, REQUESTS);
    assert_eq!(svc.shed, 0);
    assert!(
        svc.max_queue_depth <= 1,
        "closed loop queued: {}",
        svc.max_queue_depth
    );
    // Arrivals genuinely spread over time (not a batch): later requests
    // arrive after earlier ones complete.
    let arrivals: Vec<_> = svc.requests.iter().map(|r| r.arrival).collect();
    assert!(arrivals[clients] > arrivals[0]);
    // Each client's requests are serialized: think time separates a
    // completion from the next arrival.
    for i in clients..REQUESTS {
        let prev = &svc.requests[i - clients];
        let next = &svc.requests[i];
        let prev_end = prev.done.or(prev.shed_at).unwrap();
        assert_eq!(
            next.arrival.saturating_since(prev_end),
            Dur::from_micros(200)
        );
    }
}

#[test]
fn capacity_search_finds_a_sustained_rate_meeting_the_slo() {
    let mu = measured_capacity();
    let slo = Dur::from_millis(2);
    let report = capacity_search(slo, 0.1 * mu, 3.0 * mu, 6, |rate| {
        let mut service = service_with_requests()
            .with_admission(AdmissionControl::fifo(4).with_max_queue_delay(Dur::from_millis(4)));
        let out = service.run(&Workload::poisson(rate, 4242))?;
        Ok(out.service().clone())
    })
    .unwrap();

    // The knee exists: a positive sustained rate below the (failing)
    // upper probe, meeting the SLO.
    assert!(
        report.sustained_rps > 0.0,
        "no sustained rate found: {report:?}"
    );
    assert!(report.sustained_rps < 3.0 * mu);
    let p99 = report.p99_at_sustained.expect("passing trial records p99");
    assert!(p99 <= slo);
    // Deterministic: the same search replays identically.
    let again = capacity_search(slo, 0.1 * mu, 3.0 * mu, 6, |rate| {
        let mut service = service_with_requests()
            .with_admission(AdmissionControl::fifo(4).with_max_queue_delay(Dur::from_millis(4)));
        let out = service.run(&Workload::poisson(rate, 4242))?;
        Ok(out.service().clone())
    })
    .unwrap();
    assert_eq!(report, again);
}

#[test]
fn one_shot_helpers_equal_a_one_request_batch_service_run() {
    // `Shredder` is a convenience, not a second engine path: each call
    // must be exactly a one-request, unbounded `Workload::Batch` run of
    // the service — same chunks, same digests, same timing in every
    // field it reports.
    let data = workloads::random_bytes(1 << 20, 777);
    let shredder = Shredder::new(cfg());
    let sink_config = DedupSinkConfig {
        hash_bw: 1.5e9,
        index_lookup: Dur::from_micros(7),
        index_insert: Dur::from_micros(10),
        ship_bw: 0.9e9,
        pointer_bytes: 40,
        ship_chunk_overhead: Dur::from_micros(2),
        hints: SinkPipelineHints::default(),
    };
    let dedup_sink = || DedupSink::new(sink_config, Rc::new(RefCell::new(HashSet::new())));
    let one_request = |sink: Option<&mut DedupSink>| -> ServiceOutcome {
        let mut service = ShredderService::new(cfg()).with_admission(AdmissionControl::unbounded());
        let request = ChunkRequest::new(SliceSource::new(&data));
        service.submit(match sink {
            Some(sink) => request.with_sink(sink),
            None => request,
        });
        service.run(&Workload::Batch).unwrap()
    };

    // Boundary-only: `chunk_stream`.
    let helper = shredder.chunk_stream(&data).unwrap();
    let service = one_request(None);
    let (_, request) = service.completed().next().unwrap();
    assert_eq!(helper.chunks, request.chunks);
    assert_eq!(helper.chunks, chunk_all(&data, &ChunkParams::paper()));
    let digests: Vec<_> = request
        .chunks
        .iter()
        .map(|c| sha256(c.slice(&data)))
        .collect();
    assert_eq!(helper.digests(&data), digests);
    let per = &service.report.sessions[0];
    let Report::Pipeline(pipeline) = &helper.report else {
        panic!("the GPU helper reports a pipeline run");
    };
    assert_eq!(pipeline.bytes, per.bytes);
    assert_eq!(pipeline.buffers, per.buffers);
    assert_eq!(pipeline.makespan, service.report.makespan);
    assert_eq!(pipeline.stage_busy, service.report.stage_busy);
    assert_eq!(pipeline.kernel_time, per.kernel_time);
    assert_eq!(pipeline.timeline, per.timeline);
    assert_eq!(pipeline.ring_setup, service.report.ring_setup);
    assert_eq!(pipeline.raw_cuts, per.raw_cuts);

    // With downstream stages: `chunk_stream_sink`.
    let mut helper_sink = dedup_sink();
    let helper = shredder.chunk_stream_sink(&data, &mut helper_sink).unwrap();
    let mut service_sink = dedup_sink();
    let service = one_request(Some(&mut service_sink));
    assert_eq!(helper_sink.verdicts(), service_sink.verdicts());
    let (_, request) = service.completed().next().unwrap();
    let sunk: Vec<_> = helper_sink.verdicts().iter().map(|v| v.chunk).collect();
    assert_eq!(sunk, request.chunks);
    let sunk_digests: Vec<_> = helper_sink.verdicts().iter().map(|v| v.digest).collect();
    assert_eq!(sunk_digests, digests);
    assert_eq!(helper.makespan, service.report.makespan);
    assert_eq!(helper.stages, service.report.sink_stages);
    let per = &service.report.sessions[0];
    let Report::Pipeline(pipeline) = &helper.report else {
        panic!("the GPU helper reports a pipeline run");
    };
    // The chunk-only makespan ends when the last buffer leaves the
    // Store thread; the sink stages run on past it.
    let chunk_end = per.timeline.last().unwrap().store_end;
    assert_eq!(
        pipeline.makespan,
        chunk_end.saturating_since(per.first_admit)
    );
    assert!(pipeline.makespan < helper.makespan);
    assert_eq!(pipeline.stage_busy, service.report.stage_busy);
    assert_eq!(pipeline.kernel_time, per.kernel_time);
    assert_eq!(pipeline.timeline, per.timeline);
    assert_eq!(pipeline.ring_setup, service.report.ring_setup);
    assert_eq!(pipeline.raw_cuts, per.raw_cuts);
}
