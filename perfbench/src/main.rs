//! The repository's benchmark: end-to-end and per-layer metrics of the
//! Shredder reproduction on three workloads, driven through the public
//! front doors (`ShredderService`, `ShredderFleet`, `ChunkStore`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload service-4k --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` repeats whole rounds of the workload for `--seconds` and
//! reports the end-to-end metrics as medians over rounds. `--trace 1`
//! alternates untraced and traced rounds (timing adapters around the
//! sources and sinks), adds half-length rounds and layer replays, and
//! reports the per-layer metrics. Output correctness is checked in every
//! round, outside the timed `run` call; the last line of standard output
//! is the result as one JSON object, and a failed check exits with 1.

mod fleet;
mod generations;
mod round;
mod service;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use round::{Length, Round};
use stats::{median, self_time, Span};
use trace::{total, Tracer};

/// Measured rounds per run, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Share of a traced run spent alternating untraced and traced rounds;
/// the rest goes to half-length rounds.
const PAIRS_SHARE: f64 = 0.6;

/// `(name, unit, better)` of every end-to-end metric.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("payload_mb_per_s", "MB/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_achieved_rps", "req/sim_s", "higher"),
    ("sim_gbps", "GB/sim_s", "higher"),
];

/// `(name, unit, better)` of every per-layer metric. A layer a workload
/// bypasses, or whose figure its front door does not expose, reads 0.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("source.gen_s", "s", "lower"),
    ("source.read_s", "s", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.des_est_s", "s", "lower"),
    ("engine.per_req_growth", "ratio", "lower"),
    ("engine.buffers", "count", "lower"),
    ("frontend.sim_p50_ms", "sim_ms", "lower"),
    ("frontend.sim_p99_ms", "sim_ms", "lower"),
    ("frontend.samples", "count", "higher"),
    ("frontend.offered_rps", "req/sim_s", "higher"),
    ("frontend.queue_delay_p99_ms", "sim_ms", "lower"),
    ("frontend.max_queue_depth", "count", "lower"),
    ("rabin.scan_s", "s", "lower"),
    ("rabin.scan_mb_per_s", "MB/s", "higher"),
    ("rabin.policy_s", "s", "lower"),
    ("rabin.raw_cuts", "count", "lower"),
    ("rabin.chunks", "count", "lower"),
    ("gpu.utilization", "ratio", "higher"),
    ("gpu.overlap", "ratio", "higher"),
    ("hash.sha256_s", "s", "lower"),
    ("hash.mb_per_s", "MB/s", "higher"),
    ("sink.accept_s", "s", "lower"),
    ("sink.calls", "count", "lower"),
    ("sink.fingerprint.busy_s", "sim_s", "lower"),
    ("sink.fingerprint.queue_wait_s", "sim_s", "lower"),
    ("sink.fingerprint.jobs", "count", "lower"),
    ("sink.store-commit.busy_s", "sim_s", "lower"),
    ("sink.store-commit.queue_wait_s", "sim_s", "lower"),
    ("sink.store-commit.jobs", "count", "lower"),
    ("store.restore_s", "s", "lower"),
    ("store.restore_mb_per_s", "MB/s", "higher"),
    ("store.gc_s", "s", "lower"),
    ("store.lookups", "count", "lower"),
    ("store.dedup_hits", "count", "higher"),
    ("store.hit_rate", "ratio", "higher"),
    ("store.segments", "count", "lower"),
    ("store.gc_reclaimed_bytes", "bytes", "higher"),
    ("store.gc_rewritten_bytes", "bytes", "lower"),
    ("store.stored_bytes_per_user_byte", "ratio", "lower"),
    ("cluster.routed", "count", "higher"),
    ("cluster.repl_logical_bytes", "bytes", "lower"),
    ("cluster.repl_physical_bytes", "bytes", "lower"),
    ("cluster.repl_amplification", "ratio", "lower"),
    ("cluster.cross_node_dup_frac", "ratio", "lower"),
    ("cluster.node_completed_max_over_mean", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Service4k,
    StoreGenerations,
    FleetR2,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "service-4k" => Some(Workload::Service4k),
            "store-generations" => Some(Workload::StoreGenerations),
            "fleet-r2" => Some(Workload::FleetR2),
            _ => None,
        }
    }

    fn shape(self) -> String {
        match self {
            Workload::Service4k => service::shape(),
            Workload::StoreGenerations => generations::shape(),
            Workload::FleetR2 => fleet::shape(),
        }
    }

    /// Runs one round; `verify` adds the output checks (and, on
    /// `store-generations`, the restore, expiry and GC they need).
    fn round(
        self,
        seed: u64,
        length: Length,
        tracer: Option<&Tracer>,
        verify: bool,
    ) -> Result<Round, String> {
        match self {
            Workload::Service4k => service::round(seed, length, tracer, verify),
            Workload::StoreGenerations => generations::round(seed, length, tracer, verify),
            Workload::FleetR2 => fleet::round(seed, length, tracer, verify),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 30, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
                }
                "--seed" => seed = value.parse().map_err(bad)?,
                "--seconds" => seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                    }
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload
                .ok_or("--workload is required (service-4k, store-generations or fleet-r2)")?,
            seed,
            seconds: seconds.max(1),
            trace,
        })
    }
}

/// A run's result: metrics by name, failure accounting, and the lines of
/// the human-readable report.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.problems.extend(round.problems.iter().cloned());
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    let values: Vec<f64> = rounds.iter().map(f).collect();
    median(&values).expect("every run has at least one round")
}

fn layer(round: &Round, name: &str) -> Option<f64> {
    round
        .layers
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
}

/// Notes on the simulated figures the JSON result does not carry.
fn sim_notes(out: &mut Outcome, round: &Round) {
    let sim = &round.sim;
    let percentile = |v: Option<f64>| match v {
        Some(ms) => format!("{ms} sim_ms"),
        None => format!("unsupported by {} samples", sim.samples),
    };
    out.notes.push(format!(
        "realized offered rate over the steady-state window: {} req/sim_s; latencies and \
         completion rates over {} ({} samples)",
        sim.offered_rps,
        if sim.windowed {
            "the same window"
        } else {
            "the whole run, as this front door reports no per-request completion times"
        },
        sim.samples
    ));
    out.notes.push(format!(
        "sim_p50_ms: {} (lower is better)",
        percentile(sim.p50_ms)
    ));
    out.notes.push(format!(
        "sim_p99_ms: {} (lower is better)",
        percentile(sim.p99_ms)
    ));
}

/// `--trace 0`: a checked warm-up round, then whole rounds for
/// `seconds`; wall-clock metrics are medians over the rounds after the
/// warm-up.
fn run_end_to_end(args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let warm_up = args.workload.round(args.seed, Length::Full, None, true)?;
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        rounds.push(args.workload.round(args.seed, Length::Full, None, false)?);
    }
    let mut out = Outcome::default();
    for round in std::iter::once(&warm_up).chain(&rounds) {
        out.absorb(round);
    }
    out.check(rounds.iter().all(|r| r.sim == warm_up.sim), || {
        "simulated figures differ between rounds over the same inputs".to_string()
    });
    out.metrics = vec![
        ("setup_s", median_of(&rounds, |r| r.setup.as_secs_f64())),
        (
            "payload_mb_per_s",
            median_of(&rounds, |r| r.payload_bytes as f64 / r.run_s() / 1e6),
        ),
        ("peak_rss_mb", stats::peak_rss_mb()?),
        ("sim_achieved_rps", warm_up.sim.achieved_rps),
        ("sim_gbps", warm_up.sim.gbps),
    ];
    out.notes.push(format!(
        "rounds: 1 warm-up + {} measured (medians reported); payload MB/s per measured round: {:?}",
        rounds.len(),
        rounds
            .iter()
            .map(|r| (r.payload_bytes as f64 / r.run_s() / 1e6 * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    sim_notes(&mut out, &warm_up);
    for (name, unit, better) in PER_LAYER {
        if let ("store.restore_mb_per_s" | "store.stored_bytes_per_user_byte", Some(value)) =
            (*name, layer(&warm_up, name))
        {
            out.notes.push(format!(
                "{name}: {value} {unit} ({better} is better; warm-up round)"
            ));
        }
    }
    Ok(out)
}

/// `--trace 1`: untraced and traced rounds in alternation, then
/// half-length rounds; per-layer metrics from the last traced round.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let pairs_budget = Duration::from_secs_f64(args.seconds as f64 * PAIRS_SHARE);
    let warm_up = args.workload.round(args.seed, Length::Full, None, false)?;
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut tracer = Tracer::default();
    while traced.is_empty() || started.elapsed() < pairs_budget {
        untraced.push(args.workload.round(args.seed, Length::Full, None, false)?);
        tracer = Tracer::default();
        traced.push(
            args.workload
                .round(args.seed, Length::Full, Some(&tracer), true)?,
        );
    }
    let mut halves: Vec<Round> = Vec::new();
    while halves.len() < untraced.len() {
        halves.push(args.workload.round(args.seed, Length::Half, None, false)?);
    }

    let mut out = Outcome::default();
    for round in std::iter::once(&warm_up)
        .chain(&untraced)
        .chain(&traced)
        .chain(&halves)
    {
        out.absorb(round);
    }
    let reference = &warm_up.sim;
    out.check(untraced.iter().all(|r| r.sim == *reference), || {
        "simulated figures differ between untraced rounds".to_string()
    });
    out.check(traced.iter().all(|r| r.sim == *reference), || {
        "the timing adapters changed the simulated figures".to_string()
    });

    let round = traced.last().expect("at least one traced round");
    let spans = tracer.spans();
    let replay = round
        .replay
        .as_ref()
        .ok_or("a traced round carries its replay")?;
    let children: Vec<Span> = spans.source.iter().chain(&spans.sink).copied().collect();
    let engine_self = self_time(round.run, &children);
    let (sink_time, sink_calls, replayed_sink) = match round.sink_replay {
        Some((time, calls)) => (time, calls, time),
        None => (total(&spans.sink), spans.sink_calls, Duration::ZERO),
    };
    let des_est = engine_self.as_secs_f64()
        - replay.scan.as_secs_f64()
        - replay.policy.as_secs_f64()
        - replayed_sink.as_secs_f64();
    let per_request = |rounds: &[Round]| median_of(rounds, |r| r.run_s() / r.attempted as f64);
    let rate = |bytes: u64, time: Duration| {
        if bytes == 0 {
            0.0
        } else {
            bytes as f64 / time.as_secs_f64() / 1e6
        }
    };

    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("source.gen_s", round.gen.as_secs_f64()),
        ("source.read_s", total(&spans.source).as_secs_f64()),
        ("engine.run_s", round.run_s()),
        ("engine.self_s", engine_self.as_secs_f64()),
        ("engine.des_est_s", des_est),
        (
            "engine.per_req_growth",
            per_request(&untraced) / per_request(&halves),
        ),
        ("frontend.sim_p50_ms", round.sim.p50_ms.unwrap_or(0.0)),
        ("frontend.sim_p99_ms", round.sim.p99_ms.unwrap_or(0.0)),
        ("frontend.samples", round.sim.samples as f64),
        ("frontend.offered_rps", round.sim.offered_rps),
        (
            "frontend.queue_delay_p99_ms",
            round.sim.queue_delay_p99_ms.unwrap_or(0.0),
        ),
        (
            "frontend.max_queue_depth",
            round.sim.max_queue_depth.unwrap_or(0) as f64,
        ),
        ("rabin.scan_s", replay.scan.as_secs_f64()),
        (
            "rabin.scan_mb_per_s",
            rate(replay.scanned_bytes, replay.scan),
        ),
        ("rabin.policy_s", replay.policy.as_secs_f64()),
        ("rabin.raw_cuts", replay.raw_cuts as f64),
        ("rabin.chunks", replay.chunks as f64),
        ("hash.sha256_s", replay.sha256.as_secs_f64()),
        ("hash.mb_per_s", rate(replay.hashed_bytes, replay.sha256)),
        ("sink.accept_s", sink_time.as_secs_f64()),
        ("sink.calls", sink_calls as f64),
        (
            "trace.overhead_frac",
            median_of(&traced, Round::run_s) / median_of(&untraced, Round::run_s) - 1.0,
        ),
    ];
    metrics.extend(round.layers.iter().copied());
    out.metrics = PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            let value = metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, value)
        })
        .collect();

    out.notes.push(format!(
        "rounds: 1 warm-up, {} untraced, {} traced, {} half-length; per-layer figures from the last traced round",
        untraced.len(),
        traced.len(),
        halves.len()
    ));
    out.notes.push(format!(
        "engine.self_s = engine.run_s {} - child spans {} (source.read_s {} + sink.accept_s {})",
        round.run_s(),
        stats::covered(round.run, &children).as_secs_f64(),
        total(&spans.source).as_secs_f64(),
        total(&spans.sink).as_secs_f64(),
    ));
    if round.sink_replay.is_some() {
        out.notes.push(
            "sink.accept_s is a replay of the nodes' StoreSink pass and is also subtracted from engine.des_est_s"
                .to_string(),
        );
    }
    sim_notes(&mut out, round);
    Ok(out)
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut out = match if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    } {
        Ok(out) => out,
        Err(e) => Outcome {
            attempted: 1,
            failed: 1,
            problems: vec![e],
            ..Outcome::default()
        },
    };
    for (name, value) in out.metrics.clone() {
        out.check(value.is_finite(), || {
            format!("{name} is not finite: {value}")
        });
    }

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        match args.workload {
            Workload::Service4k => "service-4k",
            Workload::StoreGenerations => "store-generations",
            Workload::FleetR2 => "fleet-r2",
        },
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("shape: {}", args.workload.shape());
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, value) in &out.metrics {
        let (_, unit, better) = specs
            .iter()
            .find(|(n, _, _)| n == name)
            .expect("every metric has a spec");
        println!("  {name:<38} {value:>22} {unit:<10} ({better} is better)");
    }
    println!(
        "  failed_frac (lower is better): {} of {} attempted",
        out.failed, out.attempted
    );
    for problem in &out.problems {
        eprintln!("perfbench: FAILED: {problem}");
    }

    let correct = out.failed == 0 && out.problems.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value)| {
            let (_, unit, _) = specs.iter().find(|(n, _, _)| n == name).expect("spec");
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn args_need_a_known_workload_and_valid_values() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload fleet-r2 --seed 7 --seconds 5 --trace 1").expect("valid");
        assert_eq!(args.workload, Workload::FleetR2);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 5, true));
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload service-4k --trace 2").is_err());
        assert!(parse("--workload service-4k --seed").is_err());
    }
}
