//! Host-speed reference: a fixed kernel owned by the benchmark.
//!
//! A shared host runs the same code at very different speeds from one
//! minute to the next: on a 2-vCPU VM, identical paper4 passes took
//! 0.72 s in one stretch and 1.2 s in the next, with under 3% steal.
//! The kernel below does the kind of work the simulator's event loop does
//! — an event heap, random reads and writes over a few MB of per-station
//! state, transcendental float math — and never calls the program, so its
//! time tracks only the host. [`Pace`] samples it between the worlds of
//! every timed pass; each world's times are converted to seconds at a
//! fixed reference speed (the kernel taking [`REFERENCE_MS`], about its
//! time on a quiet host) with the mean of the samples taken just before
//! and just after it.
//!
//! Measured over 150 s of back-to-back passes per workload, the spread
//! (IQR ÷ median) of 20 s window medians fell from 19% to 5% on paper4,
//! from 8% to 6% on hotspot4096 and from 27% to 4% on roam4096. A
//! variant adding dependent loads over a 32 MB table tracked hotspot4096
//! better (3%) but paper4 worse (13%), and was dropped.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Pending events in the kernel's heap.
const PENDING: usize = 4096;
/// Events the kernel processes.
const STEPS: usize = 60_000;
/// Per-station state the kernel reads and writes (4 MB of `f64`).
const STATE: usize = 1 << 19;
/// Kernel time that defines the reference host speed, ms.
pub const REFERENCE_MS: f64 = 10.0;
/// Work between two kernel samples.
const EVERY: Duration = Duration::from_millis(150);

/// The kernel's memory, allocated and touched once per process so that
/// no sample pays page faults or depends on what the program left in the
/// heap.
#[derive(Debug)]
struct Arena {
    state: Vec<f64>,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            state: vec![0.5; STATE],
        }
    }

    /// Runs the kernel once and returns its duration.
    fn kernel(&mut self) -> Duration {
        let start = Instant::now();
        let state = &mut self.state;
        state.fill(0.5);
        let mut rng = Xorshift(0x2545_f491_4f6c_dd1d);
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..PENDING as u32)
            .map(|i| Reverse((rng.next() >> 40, i)))
            .collect();
        let mut acc = 0.0f64;
        for _ in 0..STEPS {
            let Reverse((t, id)) = heap.pop().expect("heap never drains");
            let slot = (rng.next() as usize) % STATE;
            let snr = state[slot] * 10.0 + f64::from(id % 64);
            let ber = 0.5 * (-snr / 2.0).exp() * (1.0 + snr.sqrt()).ln();
            state[slot] = (state[slot] * 0.9 + ber).fract();
            acc += ber;
            heap.push(Reverse((t + (rng.next() >> 44) + 1, id)));
        }
        black_box(acc);
        start.elapsed()
    }
}

#[derive(Debug)]
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Samples the kernel through the passes of a run.
#[derive(Debug)]
pub struct Pace {
    arena: Arena,
    last: Instant,
    /// Kernel times of the current pass, ms.
    samples: Vec<f64>,
    /// Time spent in the kernel during the current pass.
    spent: Duration,
}

impl Pace {
    /// A sampler with its kernel memory allocated and touched.
    pub fn new() -> Pace {
        let mut arena = Arena::new();
        arena.kernel();
        Pace {
            arena,
            last: Instant::now(),
            samples: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    fn sample(&mut self) {
        let d = self.arena.kernel();
        self.samples.push(d.as_secs_f64() * 1e3);
        self.spent += d;
        self.last = Instant::now();
    }

    /// Starts a pass with a sample.
    pub fn begin(&mut self) {
        self.samples.clear();
        self.spent = Duration::ZERO;
        self.sample();
    }

    /// Samples the kernel if enough work ran since the last sample, and
    /// returns the segment the work that follows belongs to.
    pub fn tick(&mut self) -> usize {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
        self.samples.len()
    }

    /// Ends a pass with a sample; returns the time the pass spent in the
    /// kernel (to leave out of its wall time).
    pub fn end(&mut self) -> Duration {
        self.sample();
        self.spent
    }

    /// Factor converting host seconds of segment `seg` (see
    /// [`Pace::tick`]) to reference seconds, from the samples bracketing
    /// it. Valid after [`Pace::end`].
    pub fn scale(&self, seg: usize) -> f64 {
        2.0 * REFERENCE_MS / (self.samples[seg - 1] + self.samples[seg])
    }

    /// Median kernel time of the current pass, ms.
    pub fn kernel_ms(&self) -> f64 {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        (v[(n - 1) / 2] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_segment_is_bracketed_by_two_samples() {
        let mut pace = Pace::new();
        pace.begin();
        let first = pace.tick();
        std::thread::sleep(EVERY);
        let second = pace.tick();
        pace.end();
        assert_eq!((first, second), (1, 2));
        for seg in [first, second] {
            let s = pace.scale(seg);
            assert!(s.is_finite() && s > 0.0, "{s}");
        }
        assert!(pace.kernel_ms() > 0.0);
    }
}
