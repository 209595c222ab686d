//! Metric arithmetic shared by every workload: medians, the steady-state
//! window, percentiles that the sample supports, self time from child
//! spans, and the process's peak RSS.

use std::ops::Range;
use std::time::Duration;

/// A wall-clock span as offsets from a tracer's origin.
pub type Span = (Duration, Duration);

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The steady-state window over `n` requests ordered by arrival: the
/// first and last tenth (rounded down) are warm-up and drain.
pub fn steady_window(n: usize) -> Range<usize> {
    let tenth = n / 10;
    tenth..n - tenth
}

/// Nearest-rank percentile `q` of an ascending list through
/// [`shredder_des::nearest_rank`], reported only when at least
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn supported_percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    shredder_des::nearest_rank(sorted, q)
}

/// Length of the part of `span` that the union of `children` covers.
/// Children may overlap each other and stick out of the span.
pub fn covered(span: Span, children: &[Span]) -> Duration {
    let mut clipped: Vec<Span> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = Duration::ZERO;
    let mut open: Option<Span> = None;
    for (s, e) in clipped {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((os, oe)) = open {
        total += oe - os;
    }
    total
}

/// A span's self time: its length minus what its child spans cover.
pub fn self_time(span: Span, children: &[Span]) -> Duration {
    span.1.saturating_sub(span.0) - covered(span, children)
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// The process's peak RSS in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One request as the simulation saw it, in nanoseconds of simulated
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRequest {
    pub arrival: u64,
    pub done: Option<u64>,
    pub queue_delay: u64,
    pub bytes: u64,
}

/// Simulated figures over the steady-state window.
#[derive(Debug, Clone, PartialEq)]
pub struct Steady {
    /// Requests in the window.
    pub samples: usize,
    /// Realized offered rate: window arrivals over the window's span.
    pub offered_rps: f64,
    /// Completions landing inside the window's span, per second.
    pub achieved_rps: f64,
    /// Bytes of those completions, GB per second.
    pub gbps: f64,
    /// Latencies of the window's completed requests, ascending, ns.
    pub latencies: Vec<u64>,
    /// Queue delays of the window's requests, ascending, ns.
    pub queue_delays: Vec<u64>,
}

/// Realized offered rate over the steady-state window of ascending
/// arrival instants (ns): window arrivals over the window's span, per
/// second. `None` when the window spans no time.
pub fn realized_rate(arrivals: &[u64]) -> Option<f64> {
    let window = &arrivals[steady_window(arrivals.len())];
    let (first, last) = (*window.first()?, *window.last()?);
    (last > first).then(|| (window.len() - 1) as f64 / ((last - first) as f64 / 1e9))
}

/// Applies [`steady_window`] to requests sorted by arrival. `None` when
/// the window spans no simulated time (fewer than two requests).
pub fn steady(requests: &[SimRequest]) -> Option<Steady> {
    let mut by_arrival = requests.to_vec();
    by_arrival.sort_by_key(|r| r.arrival);
    let window = &by_arrival[steady_window(by_arrival.len())];
    let (first, last) = (window.first()?.arrival, window.last()?.arrival);
    if last <= first {
        return None;
    }
    let span_s = (last - first) as f64 / 1e9;
    let landed = by_arrival
        .iter()
        .filter(|r| r.done.is_some_and(|d| (first..=last).contains(&d)));
    let (count, bytes) = landed.fold((0u64, 0u64), |(c, b), r| (c + 1, b + r.bytes));
    let mut latencies: Vec<u64> = window
        .iter()
        .filter_map(|r| r.done.map(|d| d - r.arrival))
        .collect();
    latencies.sort_unstable();
    let mut queue_delays: Vec<u64> = window.iter().map(|r| r.queue_delay).collect();
    queue_delays.sort_unstable();
    Some(Steady {
        samples: window.len(),
        offered_rps: (window.len() - 1) as f64 / span_s,
        achieved_rps: count as f64 / span_s,
        gbps: bytes as f64 / span_s / 1e9,
        latencies,
        queue_delays,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_percentile(&thousand, 0.99), Some(990));
        assert_eq!(
            supported_percentile(&thousand, 0.99),
            shredder_des::nearest_rank(&thousand, 0.99)
        );
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(supported_percentile(&short, 0.99), None);

        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(supported_percentile(&twenty, 0.5), Some(10));
        assert_eq!(supported_percentile(&twenty[..19], 0.5), None);
        assert_eq!(supported_percentile::<u64>(&[], 0.5), None);
    }

    #[test]
    fn window_drops_first_and_last_tenth() {
        assert_eq!(steady_window(100), 10..90);
        assert_eq!(steady_window(10), 1..9);
        assert_eq!(steady_window(19), 1..18);
        assert_eq!(steady_window(8), 0..8);
        assert_eq!(steady_window(0), 0..0);
    }

    #[test]
    fn steady_rates_count_completions_inside_the_window_span() {
        // Arrivals every 1 ms; each request takes 0.5 ms; 20 requests.
        let reqs: Vec<SimRequest> = (0..20u64)
            .map(|k| SimRequest {
                arrival: k * 1_000_000,
                done: Some(k * 1_000_000 + 500_000),
                queue_delay: k,
                bytes: 1000,
            })
            .collect();
        let s = steady(&reqs).expect("window spans time");
        // Window = requests 2..18: arrivals 2 ms ..= 17 ms.
        assert_eq!(s.samples, 16);
        assert!((s.offered_rps - 1000.0).abs() < 1e-9);
        // Completions at 2.5 .. 16.5 ms land inside [2, 17] ms: 15.
        assert!((s.achieved_rps - 1000.0).abs() < 1e-9);
        assert!((s.gbps - 15.0 * 1000.0 / 0.015 / 1e9).abs() < 1e-12);
        assert_eq!(s.latencies, vec![500_000; 16]);
        assert_eq!(s.queue_delays, (2..18).collect::<Vec<u64>>());
        assert_eq!(steady(&reqs[..1]), None);
        let arrivals: Vec<u64> = reqs.iter().map(|r| r.arrival).collect();
        assert_eq!(realized_rate(&arrivals), Some(s.offered_rps));
        assert_eq!(realized_rate(&[5, 5, 5]), None);
        assert_eq!(realized_rate(&[]), None);
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let span = (ms(10), ms(110));
        assert_eq!(self_time(span, &[]), ms(100));
        // Disjoint children.
        assert_eq!(
            self_time(span, &[(ms(20), ms(30)), (ms(50), ms(60))]),
            ms(80)
        );
        // Overlapping children count their union.
        assert_eq!(
            self_time(span, &[(ms(20), ms(40)), (ms(30), ms(50))]),
            ms(70)
        );
        // Children sticking out are clipped; children outside ignored.
        assert_eq!(
            self_time(
                span,
                &[(ms(0), ms(20)), (ms(100), ms(200)), (ms(300), ms(400))]
            ),
            ms(80)
        );
        // A child covering the whole span leaves nothing.
        assert_eq!(self_time(span, &[(ms(0), ms(500))]), Duration::ZERO);
    }

    #[test]
    fn vm_hwm_parses_kib_and_rejects_malformed_lines() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t   61048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(61048));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }
}
