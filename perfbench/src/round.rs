//! What one round of a workload measures, and the pieces every workload
//! shares: request seeds and the simulated figures.

use std::time::Duration;

use shredder_core::{ServiceOutcome, ServiceReport};
use shredder_hash::mix::SeededRng;

use crate::stats::{steady, supported_percentile, SimRequest, Span};
use crate::trace::Replay;

/// How many of a workload's requests (or generations) a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    Full,
    Half,
}

impl Length {
    pub fn of(self, full: usize) -> usize {
        match self {
            Length::Full => full,
            Length::Half => full / 2,
        }
    }
}

/// The simulated (deterministic) figures of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// True when the figures come from the steady-state window; false
    /// when the front door reports only whole-run figures.
    pub windowed: bool,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub offered_rps: f64,
    pub achieved_rps: f64,
    pub gbps: f64,
    /// `None` when the sample does not support the percentile.
    pub p50_ms: Option<f64>,
    pub p99_ms: Option<f64>,
    /// `None` when unsupported or not observable.
    pub queue_delay_p99_ms: Option<f64>,
    /// `None` when not observable.
    pub max_queue_depth: Option<usize>,
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Sim {
    /// Steady-state figures of a single-node service run.
    pub fn from_service(report: &ServiceReport) -> Result<Sim, String> {
        let requests: Vec<SimRequest> = report
            .requests
            .iter()
            .map(|r| SimRequest {
                arrival: r.arrival.as_nanos(),
                done: r.done.map(|d| d.as_nanos()),
                queue_delay: r.queue_delay().as_nanos(),
                bytes: r.bytes,
            })
            .collect();
        let s = steady(&requests).ok_or("the steady-state window spans no simulated time")?;
        Ok(Sim {
            windowed: true,
            samples: s.latencies.len(),
            offered_rps: s.offered_rps,
            achieved_rps: s.achieved_rps,
            gbps: s.gbps,
            p50_ms: supported_percentile(&s.latencies, 0.50).map(ns_to_ms),
            p99_ms: supported_percentile(&s.latencies, 0.99).map(ns_to_ms),
            queue_delay_p99_ms: supported_percentile(&s.queue_delays, 0.99).map(ns_to_ms),
            max_queue_depth: Some(report.max_queue_depth),
        })
    }
}

/// Everything one round measured.
#[derive(Debug)]
pub struct Round {
    /// Requests submitted.
    pub attempted: u64,
    /// Shed, errored and lost requests plus failed verifications.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Payload generation (part of `setup`).
    pub gen: Duration,
    /// Input generation, building the front door and submitting.
    pub setup: Duration,
    /// The `run` call, from entry until the report is in hand, on the
    /// clock of the round's tracer.
    pub run: Span,
    /// User payload bytes the run carried.
    pub payload_bytes: u64,
    pub sim: Sim,
    /// Per-layer figures only this workload has, by metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// Layer replays over this round's inputs (traced rounds only).
    pub replay: Option<Replay>,
    /// Wall time and calls of a replayed sink pass, for front doors
    /// whose sinks the timing adapter cannot reach (traced rounds only).
    pub sink_replay: Option<(Duration, u64)>,
}

impl Round {
    pub fn run_s(&self) -> f64 {
        (self.run.1 - self.run.0).as_secs_f64()
    }

    /// Counts the shed and errored requests of a service run.
    pub fn count_errors(&mut self, outcome: &ServiceOutcome) {
        let errors: Vec<String> = outcome
            .requests
            .iter()
            .filter_map(|r| r.outcome.as_ref().err().map(|e| format!("{}: {e}", r.name)))
            .collect();
        self.failed += errors.len() as u64;
        self.problems.extend(errors);
    }

    /// Counts one failed verification.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// A seed for item `index` of a run seeded with `seed`.
pub fn item_seed(seed: u64, index: u64) -> u64 {
    let mut state = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    shredder_hash::mix::splitmix64(&mut state)
}

/// `count` distinct indices below `n`, drawn from `seed`, ascending.
pub fn sample(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = SeededRng::new(seed ^ 0x5a3b_1e55);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count.min(n) {
        picked.insert(rng.next_below(n as u64) as usize);
    }
    picked.into_iter().collect()
}
