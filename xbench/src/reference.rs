//! The reference kernel: a fixed piece of work run between slices of
//! every pass, whose speed says how fast the machine was *while that
//! pass ran*.
//!
//! The boxes this benchmark runs on (a few shared vCPUs) change speed:
//! for seconds to minutes at a time everything the process does — the
//! engine's list walks and the 20 µs cache-hit round trip alike — takes
//! a third to a half longer, in user-mode time, with no faults and no
//! steal to speak of: neighbours on the host. In one sweep four runs of
//! ten sat in such a stretch from start to end. Whole-pass windows and
//! quantiles across passes take out what is shorter than a pass; nothing
//! inside one program's timings takes out the rest, because every
//! estimator of it (mean, median of passes, per-query minimum) slows
//! along. A kernel with the same appetite — random probes into a table a
//! few times the size of L2, a data-dependent branch, short streaming
//! runs — slows along too: interleaved every ~150 ms it correlated 0.89
//! with engine pass times at run level (a pure-compute kernel: 0.67).
//!
//! So every timing the benchmark gates on is reported *at reference
//! speed*: each pass's figures are multiplied by `NOMINAL / median kernel
//! run during that pass`, and the run reports the best quartile of those
//! across its passes (`stats.rs`). The kernel is this file and nothing
//! else — no product code — so a change to the product cannot move it.
//! Raw timings are printed beside the normalised ones.

use std::time::Instant;

/// Table size in 8-byte words: 32 MiB, many times L2, so most probes go to
/// the last-level cache or to memory.
const TABLE_WORDS: usize = 4 << 20;
/// Probes per run (~9 ms).
const STEPS: usize = 300_000;
/// What one run takes at reference speed, nanoseconds: the typical run
/// on the box the bounds were derived on, so that a normalised timing
/// reads like a raw one there.
pub const NOMINAL_NANOS: f64 = 9_000_000.0;

/// The kernel's table.
#[derive(Debug)]
pub struct Reference {
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Builds the table (deterministic contents).
    pub fn new() -> Reference {
        Reference {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7)
                .collect(),
        }
    }

    /// One run of the kernel; returns how long it took, nanoseconds.
    pub fn run(&self) -> u64 {
        let t = Instant::now();
        let mask = TABLE_WORDS - 1;
        let mut x = 88_172_645_463_325_252u64;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = self.table[i];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                for w in &self.table[i..(i + 16).min(TABLE_WORDS)] {
                    acc ^= *w;
                }
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as u64
    }
}

/// Times the set-up at reference speed. The set-up is a chain of stages
/// of a few tenths of a second to two seconds each (generate, parse,
/// build, save, open, answer the pool once, ...); the caller ends each
/// with [`SetupClock::lap`], which runs the kernel and scales that stage
/// by it. The kernel's own runs are not part of any stage.
#[derive(Debug)]
pub struct SetupClock {
    reference: Reference,
    lap_start: Instant,
    raw_nanos: f64,
    scaled_nanos: f64,
}

impl SetupClock {
    /// A clock whose first stage began at `start` (the process's start).
    pub fn starting_at(start: Instant) -> SetupClock {
        SetupClock {
            reference: Reference::new(),
            lap_start: start,
            raw_nanos: 0.0,
            scaled_nanos: 0.0,
        }
    }

    /// Ends the stage that began at the last lap (or at the start).
    /// Returns how long the kernel's runs took, seconds, for a caller
    /// whose own stopwatch runs across laps.
    pub fn lap(&mut self) -> f64 {
        let ended = Instant::now();
        let stage = ended.duration_since(self.lap_start).as_nanos() as f64;
        let kernel = self.reference.run() as f64;
        self.raw_nanos += stage;
        self.scaled_nanos += stage * NOMINAL_NANOS / kernel;
        self.lap_start = Instant::now();
        self.lap_start.duration_since(ended).as_secs_f64()
    }

    /// Ends the last stage. Returns the kernel's table for the measured
    /// window, the set-up time as the clock saw it and the set-up time at
    /// reference speed, both in seconds.
    pub fn finish(mut self) -> (Reference, f64, f64) {
        self.lap();
        (
            self.reference,
            self.raw_nanos / 1e9,
            self.scaled_nanos / 1e9,
        )
    }
}

/// Runs the kernel every `every` requests of a pass and keeps the books:
/// how long the kernel took, so that it can be taken out of the pass's
/// wall time, and what that says about the machine's speed.
#[derive(Debug)]
pub struct Pacer<'a> {
    reference: &'a Reference,
    every: usize,
    since: usize,
    runs: Vec<u64>,
}

impl<'a> Pacer<'a> {
    /// A pacer for one pass.
    pub fn new(reference: &'a Reference, every: usize) -> Pacer<'a> {
        Pacer {
            reference,
            every,
            since: 0,
            runs: Vec::new(),
        }
    }

    /// Call after each request, outside its timed span.
    pub fn after_request(&mut self) {
        self.since += 1;
        if self.since == self.every {
            self.run_kernel();
        }
    }

    fn run_kernel(&mut self) {
        self.since = 0;
        self.runs.push(self.reference.run());
    }

    /// Ends the pass (running the kernel once if the pass was shorter
    /// than one slice). Returns how long each kernel run took,
    /// nanoseconds.
    pub fn finish(mut self) -> Vec<u64> {
        if self.runs.is_empty() {
            self.run_kernel();
        }
        self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_clock_adds_up_stages_and_leaves_the_kernel_out() {
        let start = Instant::now();
        let mut clock = SetupClock::starting_at(start);
        std::thread::sleep(std::time::Duration::from_millis(20));
        clock.lap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (_, raw, scaled) = clock.finish();
        let wall = start.elapsed().as_secs_f64();
        // Two stages of at least 20 + 10 ms, and six kernel runs on top
        // that the stages do not include.
        assert!(raw >= 0.030 && raw < wall, "raw {raw} of wall {wall}");
        assert!(scaled > 0.0);
    }

    #[test]
    fn pacer_runs_the_kernel_every_slice_and_at_least_once() {
        let reference = Reference::new();
        let mut pacer = Pacer::new(&reference, 4);
        for _ in 0..9 {
            pacer.after_request();
        }
        let runs = pacer.finish();
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|&nanos| nanos > 0));

        let short = Pacer::new(&reference, 100).finish();
        assert_eq!(
            short.len(),
            1,
            "a pass shorter than a slice still calibrates"
        );
    }
}
