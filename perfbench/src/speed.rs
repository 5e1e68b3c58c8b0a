//! The host's speed: a fixed piece of standard-library work, timed
//! every 10 ms by a thread on the benchmark's CPU, by which the
//! end-to-end timings are scaled.
//!
//! On a shared host the same code runs up to 1.6 times slower while a
//! neighbour loads the core. The slow spells switch on and off within
//! a second, each CPU of the guest has its own, and their share drifts
//! over minutes. The reference is work that slows with them: float
//! text round trips, as in JSON numbers, and a UTF-8 scan, as in the
//! JSON parser. It is not the repository's code, so a change to the
//! program leaves it as it is. An operation that ran from `s` to `e`
//! is reported as its own time (the interval less the reference
//! timings that ran inside it), scaled by `REFERENCE_US` over the mean
//! reference time around it as far as the operation follows the
//! reference (see [`Follows`]).

use crate::stats::now;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reference's time in the host's usual fast state on the machine
/// the bounds were measured on (a 2-vCPU Xeon KVM guest), µs. On
/// another machine, set it to the reference's usual time there (the
/// report prints its median and minimum).
pub const REFERENCE_US: f64 = 115.0;

/// Pause between two reference timings.
const EVERY: Duration = Duration::from_millis(10);
/// How far around an operation reference timings count for it: at
/// least one falls within it.
const AROUND: Duration = Duration::from_millis(10);

/// Floats written as text and parsed back per pass.
const NUMBERS: usize = 192;
/// Bytes of the UTF-8 scan buffer (inside L1), and scans per pass.
const SCAN_BYTES: usize = 32 * 1024;
const SCANS: usize = 48;

/// A timed interval.
pub type Span = (Instant, Instant);

/// How an operation's time follows the reference's, and so how it is
/// scaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Follows {
    /// It slows in the host's slow spells as the reference does, but
    /// does not speed up with it in the fastest ones: scaled by
    /// `REFERENCE_US` over the reference when the reference ran slower
    /// than `REFERENCE_US`, and left as measured otherwise.
    SlowSpells,
    /// It speeds up and slows down with the reference: always scaled
    /// by `REFERENCE_US` over the reference.
    Fully,
    /// It barely moves with the reference: left as measured.
    No,
}

/// The fixed work and its buffers.
struct Reference {
    numbers: Vec<f64>,
    scan: Vec<u8>,
}

impl Reference {
    fn new() -> Reference {
        // Fixed inputs: the reference never depends on the seed.
        Reference {
            numbers: (0..NUMBERS)
                .map(|i| (i as f64 + 0.5) * 1_000.123_456_7 / 7.0)
                .collect(),
            scan: (0..SCAN_BYTES).map(|i| b' ' + (i % 94) as u8).collect(),
        }
    }

    /// One pass of the work.
    fn pass(&self) -> f64 {
        let start = now();
        let mut sum = 0.0;
        for x in &self.numbers {
            let text = format!("{:?}", black_box(*x));
            sum += text.parse::<f64>().unwrap_or(0.0);
        }
        let mut valid = 0;
        for _ in 0..SCANS {
            valid += std::str::from_utf8(black_box(&self.scan)).map_or(0, str::len);
        }
        black_box((sum, valid));
        start.elapsed().as_secs_f64()
    }

    /// A warm-up pass, then two timed ones: the faster of the two is
    /// the sample, so that an interrupt or whatever the interrupted
    /// thread left in the caches does not count as host speed.
    fn run(&self) -> Sample {
        let start = now();
        self.pass();
        let secs = self.pass().min(self.pass());
        Sample {
            span: (start, now()),
            secs,
        }
    }
}

/// One reference timing.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// When the thread ran, warm-up included.
    span: Span,
    /// The reference time, in seconds.
    secs: f64,
}

/// The thread that times the reference. It inherits the process's
/// CPU pinning, so it shares the CPU with the client and the server.
pub struct Monitor {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Sample>>,
}

impl Monitor {
    /// Starts timing the reference every 10 ms.
    pub fn start() -> Monitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        // dpsd-allow(no-raw-spawn): the benchmark's speed monitor is one thread that shares nothing with the program and feeds no answer; finish() joins it
        let thread = std::thread::spawn(move || {
            let reference = Reference::new();
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(EVERY);
                samples.push(reference.run());
            }
            samples
        });
        Monitor { stop, thread }
    }

    /// Stops the thread, waits for it to end and returns its timings.
    pub fn finish(self) -> Result<Speed, String> {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self
            .thread
            .join()
            .map_err(|_| "the speed monitor panicked".to_string())?;
        Ok(Speed { samples })
    }
}

/// The reference timings of a run, in time order.
pub struct Speed {
    samples: Vec<Sample>,
}

impl Speed {
    /// Reference timings that started in `from..to`.
    fn within(&self, from: Instant, to: Instant) -> &[Sample] {
        let a = self.samples.partition_point(|s| s.span.0 < from);
        let b = self.samples.partition_point(|s| s.span.0 < to);
        &self.samples[a..b]
    }

    /// The reference timings that ran during `span`.
    fn inside(&self, span: Span) -> impl Iterator<Item = &Sample> {
        let earlier = span.0.checked_sub(AROUND).unwrap_or(span.0);
        self.within(earlier, span.1)
            .iter()
            .filter(move |s| s.span.1 > span.0)
    }

    /// Whether a reference timing ran during `span`.
    pub fn interrupted(&self, span: Span) -> bool {
        self.inside(span).next().is_some()
    }

    /// The mean reference time around `span`, µs; `NaN` when there is
    /// none.
    fn reference_us(&self, span: Span) -> f64 {
        let earlier = span.0.checked_sub(AROUND).unwrap_or(span.0);
        let near = self.within(earlier, span.1 + AROUND);
        near.iter().map(|s| s.secs).sum::<f64>() * 1e6 / near.len() as f64
    }

    /// The own time of `span`, in seconds: the interval less the
    /// reference timings that ran during it, scaled as `follows` says.
    pub fn scaled(&self, span: Span, follows: Follows) -> f64 {
        let overlap = |s: &Sample| {
            s.span
                .1
                .min(span.1)
                .saturating_duration_since(s.span.0.max(span.0))
                .as_secs_f64()
        };
        let inside: f64 = self.inside(span).map(overlap).sum();
        let ratio = REFERENCE_US / self.reference_us(span);
        let factor = match follows {
            Follows::SlowSpells => ratio.min(1.0),
            Follows::Fully => ratio,
            Follows::No => 1.0,
        };
        ((span.1 - span.0).as_secs_f64() - inside) * factor
    }

    /// Median and extremes of the reference time, µs.
    pub fn summary(&self) -> (f64, f64, f64, usize) {
        let us: Vec<f64> = self.samples.iter().map(|s| s.secs * 1e6).collect();
        (
            crate::stats::percentile(&us, 0.5),
            crate::stats::percentile(&us, 0.0),
            crate::stats::percentile(&us, 1.0),
            us.len(),
        )
    }
}
