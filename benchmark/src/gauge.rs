//! A gauge of how fast the machine is running right now.
//!
//! The recording machine is a small shared VM whose speed wanders: the same
//! code runs up to twice as slow for seconds or minutes at a time, and
//! compute-bound and memory-bound code slow down together (their ratio
//! holds to about ±5 % while each moves ±30 %). A bound of 10 % on a raw
//! wall time would then gate on the neighbours, not on the program.
//!
//! So every timed sample is bracketed by readings of a small fixed kernel
//! of the harness's own — passes of multiply-add over a 2 MiB array, for
//! 50 ms per reading so that bursts average out — and
//! reported at a fixed reference speed: `seconds × REFERENCE / local`,
//! where `local` is the mean of the readings before and after the sample
//! and `REFERENCE` what the kernel takes on the recording machine when it
//! is quiet. A program that gets slower takes longer *relative to the
//! kernel* and shows in full; a machine that gets slower slows both and
//! mostly cancels. The raw times and the slowdown are printed on stderr.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// Doubles in the kernel's array: 2 MiB, inside the L2 of one core.
const KERNEL_LEN: usize = 256 * 1024;
const KERNEL_PASSES: usize = 4;
/// A reading averages kernel calls for at least this long.
const READING_SECONDS: f64 = 0.05;
/// A reading this fresh is reused: the reading after one sample is the
/// reading before the next.
const FRESH: Duration = Duration::from_millis(2);
/// Seconds per kernel call on the quiet recording machine: the speed every
/// sample is reported at.
pub const REFERENCE: f64 = 0.00056;

pub struct Gauge {
    /// The kernel's array.
    buffer: RefCell<Vec<f64>>,
    /// The latest reading and when it ended.
    latest: Cell<Option<(Instant, f64)>>,
}

/// A measured duration with the machine speed around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall seconds as measured.
    pub seconds: f64,
    /// Mean of the gauge readings before and after, seconds.
    pub local: f64,
}

impl Gauge {
    pub fn new() -> Gauge {
        let gauge = Gauge {
            buffer: RefCell::new((0..KERNEL_LEN).map(|i| 1.0 + i as f64 * 1e-9).collect()),
            latest: Cell::new(None),
        };
        // Fault the array in before a reading counts.
        gauge.read();
        gauge.latest.set(None);
        gauge
    }

    /// One reading: seconds per call of the fixed kernel right now.
    pub fn read(&self) -> f64 {
        if let Some((at, reading)) = self.latest.get() {
            if at.elapsed() < FRESH {
                return reading;
            }
        }
        let mut buffer = self.buffer.borrow_mut();
        let clock = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || clock.elapsed().as_secs_f64() < READING_SECONDS {
            let mut acc = 0.0;
            for _ in 0..KERNEL_PASSES {
                for x in buffer.iter_mut() {
                    *x = *x * 0.999_999 + 1e-6;
                    acc += *x;
                }
            }
            std::hint::black_box(acc);
            calls += 1;
        }
        let reading = clock.elapsed().as_secs_f64() / calls as f64;
        self.latest.set(Some((Instant::now(), reading)));
        reading
    }

    /// Time `body` between two readings.
    pub fn time<T>(&self, body: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.read();
        let clock = Instant::now();
        let out = body();
        let seconds = clock.elapsed().as_secs_f64();
        let after = self.read();
        (
            out,
            Timed {
                seconds,
                local: 0.5 * (before + after),
            },
        )
    }
}

impl Timed {
    /// How much slower than the reference speed the machine ran around
    /// this sample.
    pub fn slowdown(&self) -> f64 {
        self.local / REFERENCE
    }

    /// The sample at the reference speed.
    pub fn at_reference(&self) -> f64 {
        self.seconds / self.slowdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_bracket_the_sample() {
        let gauge = Gauge::new();
        let ((), timed) = gauge.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(timed.seconds >= 0.005);
        assert!(timed.local > 0.0 && timed.at_reference() > 0.0);
    }

    #[test]
    fn a_slower_machine_cancels_and_a_slower_program_does_not() {
        // Machine twice as slow: the sample and the readings both double.
        let slow_machine = Timed {
            seconds: 2.0,
            local: 2.0 * REFERENCE,
        };
        assert!((slow_machine.at_reference() - 1.0).abs() < 1e-12);
        // Program twice as slow on a quiet machine: shows in full.
        let slow_program = Timed {
            seconds: 2.0,
            local: REFERENCE,
        };
        assert!((slow_program.at_reference() - 2.0).abs() < 1e-12);
    }
}
