//! Open-loop load generator: request `i` is due at `start + i·interval`
//! whether or not the sink has caught up, and its latency is measured
//! from that due time. A sink that stalls therefore charges the stall to
//! every request that queued behind it, and the generator reports how
//! late it was able to send.

use std::time::{Duration, Instant};

use crate::stats::Samples;

/// What one open-loop pass measured.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Due time to completion, per request id, in milliseconds; NaN for a
    /// request that never completed.
    pub latency_ms: Vec<f64>,
    /// How late each request was handed to the sink, in milliseconds.
    pub late_ms: Samples,
    /// Wall time from the first due time to the return of `drain`.
    pub wall: Duration,
}

/// Drives requests `0..n` into `submit` at a fixed `interval`.
///
/// `submit(i)` hands request `i` to the system and returns the ids of
/// every request that completed during the call. `drain()` runs once after
/// the last request and returns whatever completed then. Completion is
/// stamped when the call that reported it returns.
pub fn open_loop(
    n: usize,
    interval: Duration,
    mut submit: impl FnMut(usize) -> Vec<usize>,
    drain: impl FnOnce() -> Vec<usize>,
) -> OpenLoopReport {
    let mut done_at: Vec<Option<Instant>> = vec![None; n];
    let mut late_ms = Samples::new();
    let start = Instant::now();
    let due = |i: usize| start + interval * i as u32;
    for i in 0..n {
        let due_i = due(i);
        let now = Instant::now();
        if now < due_i {
            std::thread::sleep(due_i - now);
        }
        let sent = Instant::now();
        late_ms.push(sent.saturating_duration_since(due_i).as_secs_f64() * 1e3);
        let completed = submit(i);
        let returned = Instant::now();
        for id in completed {
            done_at[id].get_or_insert(returned);
        }
    }
    let completed = drain();
    let returned = Instant::now();
    for id in completed {
        done_at[id].get_or_insert(returned);
    }
    let latency_ms = done_at
        .iter()
        .enumerate()
        .map(|(i, at)| match at {
            Some(at) => at.saturating_duration_since(due(i)).as_secs_f64() * 1e3,
            None => f64::NAN,
        })
        .collect();
    OpenLoopReport {
        latency_ms,
        late_ms,
        wall: returned - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lost(report: &OpenLoopReport) -> usize {
        report.latency_ms.iter().filter(|l| l.is_nan()).count()
    }

    #[test]
    fn prompt_sink_sees_small_latency() {
        let report = open_loop(50, Duration::from_millis(1), |i| vec![i], Vec::new);
        assert_eq!(lost(&report), 0);
        assert!(report.latency_ms.iter().all(|&l| l < 20.0), "{report:?}");
    }

    /// A sink that stalls once must show the stall in the latency of the
    /// requests due during it, and in how late the generator ran.
    #[test]
    fn stalled_sink_shows_in_later_latency_and_lateness() {
        let interval = Duration::from_micros(200);
        let stall_at = 100;
        let stall = Duration::from_millis(40);
        let report = open_loop(
            1200,
            interval,
            |i| {
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                vec![i]
            },
            Vec::new,
        );
        assert_eq!(lost(&report), 0);
        // Request 101 was due 0.2 ms after the stall began but could only
        // be sent after it ended: its latency carries the stall.
        let next = report.latency_ms[stall_at + 1];
        assert!(next >= 30.0, "latency after stall {next} ms");
        let late_p99 = report.late_ms.percentile(0.99).expect("1200 samples");
        assert!(late_p99 >= 20.0, "late p99 {late_p99} ms");
    }

    #[test]
    fn batched_completions_are_stamped_when_reported() {
        // The sink completes requests in pairs: even ids wait for the next.
        let report = open_loop(
            20,
            Duration::from_millis(2),
            |i| {
                if i % 2 == 1 {
                    vec![i - 1, i]
                } else {
                    Vec::new()
                }
            },
            Vec::new,
        );
        assert_eq!(lost(&report), 0);
        for pair in report.latency_ms.chunks(2) {
            assert!(pair[0] >= pair[1] + 1.0, "{pair:?}");
        }
    }

    #[test]
    fn drain_completes_the_rest_and_lost_requests_are_counted() {
        let report = open_loop(
            4,
            Duration::from_millis(1),
            |_| Vec::new(),
            || vec![0, 1, 2],
        );
        assert_eq!(lost(&report), 1);
        assert!(report.latency_ms[3].is_nan());
    }
}
