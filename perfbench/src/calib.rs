//! Host-speed calibration of the end-to-end times.
//!
//! On a shared host the same binary's wall time drifts by tens of percent
//! over minutes as co-located load comes and goes (measured on a 2-vCPU
//! Xeon guest: one `paper-traces` pass took 2.5 s to 4.1 s with identical
//! inputs), which is wider than any useful regression bound. The drift
//! slows every instruction stream alike, so the benchmark times a fixed
//! kernel — this file's code only, independent of the repository's crates
//! — interleaved with the measured work, and reports each end-to-end time
//! as `raw × REFERENCE_KERNEL_S / kernel`: seconds on a host where the
//! kernel takes its reference time. A change to the program moves the raw
//! time and not the kernel, so it moves the reported time in full.
//!
//! The kernel is cache-resident. It removes most of the drift from
//! `paper-traces` (pass-time spread across runs fell from ~30% to ~4% of
//! the median) and `serve-whatif`. Memory-bound runs also slow under
//! contention the kernel does not feel, which is why `scale-wide` uses a
//! cell short enough for ~17 runs per measurement.

use std::collections::BTreeMap;
use std::hint::black_box;

use vr_serve::clock::Stopwatch;

use crate::median;

/// The kernel's time on an uncontended run of the reference host (the
/// guest above). A constant: changing it re-bases every calibrated metric.
pub const REFERENCE_KERNEL_S: f64 = 0.04;

/// Kernel runs that calibrate one measured pass: enough that the
/// kernel's own run-to-run noise (~15% per 40 ms run) averages out.
pub const KERNELS_PER_PASS: usize = 12;

/// Working-set size of the kernel's table, in `f64`s (2 MiB).
const TABLE: usize = 1 << 18;

/// One run of the kernel, a mix of the engine's kinds of work: random
/// reads and writes over a 2 MiB table, floating-point math, and ordered
/// map inserts and removes. Returns its wall time in seconds.
fn kernel() -> f64 {
    let started = Stopwatch::start();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table = vec![0.0f64; TABLE];
    let mut map = BTreeMap::new();
    let mut acc = 0.0;
    for i in 0..200_000u64 {
        let r = next();
        let k = (r as usize) & (TABLE - 1);
        table[k] += (i as f64).sqrt();
        acc += table[(k * 7) & (TABLE - 1)];
        map.insert(r % 20_000, i);
        if i % 3 == 0 {
            map.remove(&(next() % 20_000));
        }
    }
    black_box((acc, map.len()));
    started.elapsed_secs()
}

/// Kernel times collected over one run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Runs the kernel once, records and returns its time.
    pub fn sample(&mut self) -> f64 {
        let t = kernel();
        self.samples.push(t);
        t
    }

    /// Runs the kernel `n` times; returns the times.
    pub fn batch(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample()).collect()
    }

    /// Like [`batch`](Self::batch), but on `threads` threads at once, for
    /// work that keeps that many processors busy.
    pub fn batch_parallel(&mut self, n: usize, threads: usize) -> Vec<f64> {
        let per_thread = n.div_ceil(threads);
        let times: Vec<f64> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..threads)
                .map(|_| scope.spawn(move || (0..per_thread).map(|_| kernel()).collect::<Vec<_>>()))
                .collect();
            runs.into_iter()
                .flat_map(|run| run.join().unwrap_or_default())
                .collect()
        });
        self.samples.extend(&times);
        times
    }

    /// Median kernel time of the run so far, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Runs `f` between two half batches of the kernel (the first also
    /// warms the processor up); returns `f`'s result and the mean kernel
    /// time of both batches.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let mut kernels = self.batch(KERNELS_PER_PASS / 2);
        let out = f();
        kernels.extend(self.batch(KERNELS_PER_PASS / 2));
        (out, kernels.iter().sum::<f64>() / kernels.len() as f64)
    }

    /// How many kernel runs the run made.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `raw` seconds measured while the kernel took `kernel_s`, in
    /// reference-host seconds.
    pub fn normalise(raw: f64, kernel_s: f64) -> f64 {
        raw * REFERENCE_KERNEL_S / kernel_s
    }
}
