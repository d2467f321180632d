//! Rolling-window request aggregates: q/s, error rate, cache hit ratio,
//! and latency quantiles over the last 1, 5, and 15 minutes.
//!
//! Each window is a fixed wheel of 60 buckets (1 s / 5 s / 15 s per
//! bucket respectively). The wheel is advanced *by request arrival*
//! against an injected [`crate::clock::Clock`] — there is no background
//! thread, no timer, and no wall-clock read: a bucket whose time has
//! passed is zeroed lazily the next time anyone records or reads. Tests
//! drive a [`crate::clock::ManualClock`] forward and assert rotation
//! deterministically.
//!
//! Memory is fixed: 3 wheels × 60 buckets × (4 counters + a 64-slot
//! log₂ latency histogram) ≈ 100 kB, owned for the process lifetime.
//! Recording locks one small mutex per wheel for a few adds — the
//! serving path records once per *completed request*, far off the
//! per-posting hot paths.

use std::sync::Mutex;

use crate::metrics::{log2_bucket_of, log2_quantile, HIST_BUCKETS};

/// Buckets per wheel (all three windows divide into 60 slices).
const WHEEL_SLOTS: usize = 60;

/// The windows behind the `/statusz` tables and the per-corpus SLO burn
/// rates on `/metrics`.
const WINDOWS: [(&str, u64); 3] = [("1m", 60), ("5m", 300), ("15m", 900)];

/// What one completed request contributes to the windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowEvent {
    /// Whole-request latency in nanoseconds.
    pub total_nanos: u64,
    /// Whether the response status was 4xx/5xx.
    pub error: bool,
    /// Response-cache outcome, when the route consulted the cache.
    pub cache_hit: Option<bool>,
    /// Whether the request breached its latency SLO threshold (the
    /// caller compares `total_nanos` against its configured objective;
    /// the windows just count).
    pub slo_breach: bool,
}

/// One wheel bucket: plain integers, guarded by the wheel's mutex.
#[derive(Debug, Clone)]
struct Bucket {
    count: u64,
    errors: u64,
    cache_hits: u64,
    cache_misses: u64,
    slo_breaches: u64,
    latency: [u64; HIST_BUCKETS],
}

impl Bucket {
    fn zeroed() -> Self {
        Bucket {
            count: 0,
            errors: 0,
            cache_hits: 0,
            cache_misses: 0,
            slo_breaches: 0,
            latency: [0; HIST_BUCKETS],
        }
    }

    fn clear(&mut self) {
        *self = Bucket::zeroed();
    }
}

#[derive(Debug)]
struct Wheel {
    /// Nanoseconds each bucket covers.
    slice_nanos: u64,
    buckets: Vec<Bucket>,
    /// Index of the bucket covering `[head_start, head_start + slice)`.
    head: usize,
    head_start_nanos: u64,
}

impl Wheel {
    fn new(window_secs: u64) -> Self {
        Wheel {
            slice_nanos: window_secs * 1_000_000_000 / WHEEL_SLOTS as u64,
            buckets: vec![Bucket::zeroed(); WHEEL_SLOTS],
            head: 0,
            head_start_nanos: 0,
        }
    }

    /// Advances the head until it covers `now`, zeroing every bucket the
    /// head passes over (their time window has expired).
    fn rotate_to(&mut self, now_nanos: u64) {
        if now_nanos < self.head_start_nanos + self.slice_nanos {
            return;
        }
        let steps = (now_nanos - self.head_start_nanos) / self.slice_nanos;
        if steps as usize >= WHEEL_SLOTS {
            // The whole window elapsed since the last event: everything
            // is stale. Re-align the head to the bucket grid.
            for b in &mut self.buckets {
                b.clear();
            }
            self.head_start_nanos = (now_nanos / self.slice_nanos) * self.slice_nanos;
            return;
        }
        for _ in 0..steps {
            self.head = (self.head + 1) % WHEEL_SLOTS;
            self.buckets[self.head].clear();
            self.head_start_nanos += self.slice_nanos;
        }
    }

    fn record(&mut self, now_nanos: u64, event: &WindowEvent) {
        self.rotate_to(now_nanos);
        let b = &mut self.buckets[self.head];
        b.count += 1;
        if event.error {
            b.errors += 1;
        }
        match event.cache_hit {
            Some(true) => b.cache_hits += 1,
            Some(false) => b.cache_misses += 1,
            None => {}
        }
        if event.slo_breach {
            b.slo_breaches += 1;
        }
        b.latency[log2_bucket_of(event.total_nanos)] += 1;
    }

    fn snapshot(
        &mut self,
        now_nanos: u64,
        label: &'static str,
        window_secs: u64,
    ) -> WindowSnapshot {
        self.rotate_to(now_nanos);
        let mut out = WindowSnapshot {
            label,
            window_secs,
            ..Default::default()
        };
        let mut latency = [0u64; HIST_BUCKETS];
        for b in &self.buckets {
            out.count += b.count;
            out.errors += b.errors;
            out.cache_hits += b.cache_hits;
            out.cache_misses += b.cache_misses;
            out.slo_breaches += b.slo_breaches;
            for (acc, c) in latency.iter_mut().zip(b.latency.iter()) {
                *acc += c;
            }
        }
        out.p50_nanos = log2_quantile(&latency, 0.50);
        out.p95_nanos = log2_quantile(&latency, 0.95);
        out.p99_nanos = log2_quantile(&latency, 0.99);
        out
    }
}

/// Point-in-time aggregate of one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Window label (`1m`, `5m`, `15m`).
    pub label: &'static str,
    /// Window length in seconds.
    pub window_secs: u64,
    /// Requests completed inside the window.
    pub count: u64,
    /// Of those, 4xx/5xx responses.
    pub errors: u64,
    /// Response-cache hits inside the window.
    pub cache_hits: u64,
    /// Response-cache misses inside the window.
    pub cache_misses: u64,
    /// Requests that breached their latency SLO inside the window.
    pub slo_breaches: u64,
    /// Median request latency (bucket upper bound).
    pub p50_nanos: u64,
    /// 95th-percentile request latency.
    pub p95_nanos: u64,
    /// 99th-percentile request latency.
    pub p99_nanos: u64,
}

impl WindowSnapshot {
    /// Requests per second over the window length.
    pub fn qps(&self) -> f64 {
        self.count as f64 / self.window_secs as f64
    }

    /// Share of requests that errored (0 when the window is empty).
    pub fn error_ratio(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.errors as f64 / self.count as f64
        }
    }

    /// Cache hit share among cache-consulting requests (0 when none).
    pub fn cache_hit_ratio(&self) -> f64 {
        let consulted = self.cache_hits + self.cache_misses;
        if consulted == 0 {
            0.0
        } else {
            self.cache_hits as f64 / consulted as f64
        }
    }

    /// Share of requests that breached the latency SLO (0 when the
    /// window is empty).
    pub fn slo_breach_ratio(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.slo_breaches as f64 / self.count as f64
        }
    }

    /// Multi-window SLO burn rate against [`SLO_ERROR_BUDGET`]: how many
    /// times faster than "exactly on objective" the window consumed its
    /// error budget. 1.0 = burning at precisely the sustainable rate;
    /// ≥ 14 on a short window is the classic page-now signal.
    pub fn slo_burn_rate(&self) -> f64 {
        self.slo_breach_ratio() / SLO_ERROR_BUDGET
    }
}

/// The fixed SLO objective every burn rate is computed against: 99% of
/// requests inside the latency threshold, i.e. a 1% error budget. The
/// *threshold* is configurable per server; the objective is not — burn
/// rates across corpora stay directly comparable.
pub const SLO_ERROR_BUDGET: f64 = 0.01;

/// The 1m/5m/15m rolling aggregates, advanced by request arrival.
#[derive(Debug)]
pub struct RollingWindows {
    wheels: Vec<Mutex<Wheel>>,
}

impl Default for RollingWindows {
    fn default() -> Self {
        RollingWindows::new()
    }
}

impl RollingWindows {
    /// Fresh wheels, all empty, epoch-aligned at 0.
    pub fn new() -> Self {
        RollingWindows {
            wheels: WINDOWS
                .iter()
                .map(|(_, secs)| Mutex::new(Wheel::new(*secs)))
                .collect(),
        }
    }

    /// Records one completed request at clock time `now_nanos`.
    pub fn record(&self, now_nanos: u64, event: &WindowEvent) {
        for wheel in &self.wheels {
            wheel
                .lock()
                .expect("window wheel poisoned")
                .record(now_nanos, event);
        }
    }

    /// Snapshots every window at clock time `now_nanos` (1m, 5m, 15m in
    /// order). Rotation happens here too, so an idle server's windows
    /// drain to zero without any request traffic.
    pub fn snapshot(&self, now_nanos: u64) -> Vec<WindowSnapshot> {
        self.wheels
            .iter()
            .zip(WINDOWS.iter())
            .map(|(wheel, (label, secs))| {
                wheel
                    .lock()
                    .expect("window wheel poisoned")
                    .snapshot(now_nanos, label, *secs)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn ok(nanos: u64) -> WindowEvent {
        WindowEvent {
            total_nanos: nanos,
            error: false,
            cache_hit: Some(false),
            slo_breach: false,
        }
    }

    #[test]
    fn events_land_in_every_window() {
        let w = RollingWindows::new();
        w.record(0, &ok(100));
        w.record(SEC / 2, &ok(100));
        let snaps = w.snapshot(SEC / 2);
        assert_eq!(snaps.len(), 3);
        for s in &snaps {
            assert_eq!(s.count, 2, "{}", s.label);
            assert_eq!(s.errors, 0);
            assert_eq!(s.cache_misses, 2);
        }
        assert_eq!(snaps[0].label, "1m");
        assert_eq!(snaps[0].window_secs, 60);
        assert!((snaps[0].qps() - 2.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn one_minute_window_forgets_after_sixty_seconds() {
        let w = RollingWindows::new();
        w.record(0, &ok(100));
        // 61 s later the 1m wheel has fully rotated past the event; the
        // 5m and 15m wheels still remember it.
        let snaps = w.snapshot(61 * SEC);
        assert_eq!(snaps[0].count, 0, "1m must forget");
        assert_eq!(snaps[1].count, 1, "5m must remember");
        assert_eq!(snaps[2].count, 1, "15m must remember");
        let snaps = w.snapshot(901 * SEC);
        assert_eq!(snaps[2].count, 0, "15m forgets after 15 minutes");
    }

    #[test]
    fn partial_expiry_drops_only_stale_buckets() {
        let w = RollingWindows::new();
        w.record(0, &ok(100)); // bucket [0, 1s)
        w.record(30 * SEC, &ok(100)); // bucket [30s, 31s)
                                      // At t=45s both are inside the 1m window.
        assert_eq!(w.snapshot(45 * SEC)[0].count, 2);
        // At t=75s the first event (bucket 0..1s) is > 60s old in wheel
        // terms (head at 75s, tail at 16s) — only the second survives.
        assert_eq!(w.snapshot(75 * SEC)[0].count, 1);
    }

    #[test]
    fn error_and_cache_ratios() {
        let w = RollingWindows::new();
        w.record(0, &ok(100));
        w.record(
            0,
            &WindowEvent {
                total_nanos: 100,
                error: true,
                cache_hit: None,
                slo_breach: false,
            },
        );
        w.record(
            0,
            &WindowEvent {
                total_nanos: 100,
                error: false,
                cache_hit: Some(true),
                slo_breach: false,
            },
        );
        let s = w.snapshot(0)[0];
        assert_eq!(s.count, 3);
        assert_eq!(s.errors, 1);
        assert!((s.error_ratio() - 1.0 / 3.0).abs() < 1e-12);
        // One hit, one miss consulted the cache.
        assert!((s.cache_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_track_the_window_not_the_lifetime() {
        let w = RollingWindows::new();
        for _ in 0..9 {
            w.record(0, &ok(1));
        }
        w.record(0, &ok(1000));
        let s = w.snapshot(0)[0];
        assert_eq!(s.p50_nanos, 1);
        assert_eq!(s.p99_nanos, 1023); // bucket upper bound of [512, 1024)
                                       // After the window rotates past the samples, quantiles reset.
        let s = w.snapshot(120 * SEC)[0];
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_nanos, 0);
    }

    #[test]
    fn long_idle_gap_clears_without_looping() {
        let w = RollingWindows::new();
        w.record(0, &ok(1));
        // A week of idle time must neither loop for millions of steps
        // nor leave stale counts behind.
        w.record(7 * 24 * 3600 * SEC, &ok(1));
        let s = w.snapshot(7 * 24 * 3600 * SEC)[0];
        assert_eq!(s.count, 1);
    }

    #[test]
    fn empty_window_ratios_are_zero() {
        let w = RollingWindows::new();
        let s = w.snapshot(0)[0];
        assert_eq!(s.qps(), 0.0);
        assert_eq!(s.error_ratio(), 0.0);
        assert_eq!(s.cache_hit_ratio(), 0.0);
        assert_eq!(s.slo_breach_ratio(), 0.0);
        assert_eq!(s.slo_burn_rate(), 0.0);
    }

    fn breach(nanos: u64) -> WindowEvent {
        WindowEvent {
            slo_breach: true,
            ..ok(nanos)
        }
    }

    /// Satellite: burn-rate math is exact — driven by a manual clock
    /// across a full window rotation, the ratio is a precise rational at
    /// every step, never an approximation.
    #[test]
    fn burn_rate_is_exact_across_window_rotation() {
        let w = RollingWindows::new();
        // 96 good + 4 breaching requests in the first second: breach
        // ratio exactly 4/100, burn rate exactly 4.0 against the 1%
        // budget — in every window.
        for _ in 0..96 {
            w.record(0, &ok(1_000));
        }
        for _ in 0..4 {
            w.record(0, &breach(2_000_000_000));
        }
        for s in w.snapshot(0) {
            assert_eq!(s.slo_breaches, 4, "{}", s.label);
            assert_eq!(s.slo_breach_ratio(), 0.04, "{}", s.label);
            assert_eq!(s.slo_burn_rate(), 4.0, "{}", s.label);
        }
        // 30 s later, 100 clean requests land. The 1m window now holds
        // 200 requests / 4 breaches: ratio exactly 0.02, burn 2.0.
        for _ in 0..100 {
            w.record(30 * SEC, &ok(1_000));
        }
        let s = w.snapshot(30 * SEC)[0];
        assert_eq!((s.count, s.slo_breaches), (200, 4));
        assert_eq!(s.slo_burn_rate(), 2.0);
        // At t=75 s the 1m wheel has rotated the breaching bucket out:
        // only the clean t=30s bucket survives, burn drops to exactly 0;
        // the 5m window still remembers all 4 breaches out of 200.
        let snaps = w.snapshot(75 * SEC);
        assert_eq!((snaps[0].count, snaps[0].slo_breaches), (100, 0));
        assert_eq!(snaps[0].slo_burn_rate(), 0.0);
        assert_eq!((snaps[1].count, snaps[1].slo_breaches), (200, 4));
        assert_eq!(snaps[1].slo_burn_rate(), 2.0);
        // After the 5m window rotates fully, it forgets too.
        let snaps = w.snapshot(331 * SEC);
        assert_eq!(snaps[1].slo_breaches, 0);
        assert_eq!(snaps[1].slo_burn_rate(), 0.0);
    }
}
