//! Machine-speed calibration.
//!
//! On the shared 2-vCPU host the benchmark was tuned on, the speed of a
//! core flips every few seconds between a fast and a slow state (a fixed
//! compute kernel takes 1.6x longer in the slow one) with no CPU steal, so
//! a whole run's median depends on how its seconds fell between the
//! states. A fixed kernel, written here and using no code of the
//! repository, runs between the measured operations; each measured time is
//! scaled by how fast the kernel ran around it. A change to the program
//! moves the measured times but not the kernel, so it shows in full; a
//! change of machine speed moves both and cancels.
//!
//! A workload slows down less than the kernel, because part of it is bound
//! by memory rather than by the core. Every timing is therefore scaled by
//! `(REFERENCE_MS / kernel_ms) ^ ALPHA`. `ALPHA` was chosen from ten seeds
//! per workload, each run reporting its metrics at several exponents: at
//! 0.75 the spread of ten runs (IQR over median) was at most 0.06 on the
//! engine workloads and 0.1 on the serving one, against 0.07-0.11 and
//! 0.10-0.12 at 0.25.

use std::hint::black_box;
use std::time::Instant;

/// Row width of the kernel's table.
const DIM: usize = 64;
/// Rows of the table (1 MB of `f32`: the kernel is bound by the core, not
/// by memory, and adds nothing noticeable to `rss_mb`).
const ROWS: usize = 4096;
/// Row pairs one kernel call visits.
const PAIRS: usize = 4000;
/// Every n-th pair also runs a 64x64 dense transform.
const DENSE_EVERY: usize = 8;
/// Kernel time at the reference speed, in ms of thread CPU time: the
/// kernel's time in the fast state of the tuning host. Scaled times are
/// "ms at the reference speed".
pub const REFERENCE_MS: f64 = 1.0;
/// Sensitivity of the benchmark's timings to the kernel's speed.
pub const ALPHA: f64 = 0.75;
/// Samples within this many seconds of a measured time set its scale.
const NEIGHBOURHOOD_S: f64 = 1.0;
/// Fewest samples a scale is taken from.
const MIN_SAMPLES: usize = 5;

/// The kernel and the samples it has taken.
pub struct Calibration {
    table: Vec<f32>,
    pairs: Vec<(u32, u32)>,
    weight: Vec<f32>,
    out: Vec<f32>,
    origin: Instant,
    /// `(seconds after origin at the middle of the call, ms)`, in time order.
    samples: Vec<(f64, f64)>,
}

/// SplitMix64: the kernel's inputs are the same on every run and need no
/// generator from the repository.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 24) as f32 - 0.5
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of the calling thread, in ms. The kernel is timed by it, so a
/// preempted sample measures the core's speed, not the scheduler.
fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid out `struct timespec`, and the
    // clock id is valid on Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

impl Calibration {
    /// Builds the kernel's fixed inputs and warms it; samples are timed
    /// from `origin`.
    pub fn new(origin: Instant) -> Self {
        let mut s = 0xCA11_B2A7_E5EE_D000;
        let table = (0..ROWS * DIM).map(|_| unit(&mut s)).collect();
        let pairs = (0..PAIRS)
            .map(|_| {
                let a = (splitmix(&mut s) % ROWS as u64) as u32;
                let b = (splitmix(&mut s) % ROWS as u64) as u32;
                (a, b)
            })
            .collect();
        let weight = (0..DIM * DIM).map(|_| unit(&mut s) * 0.125).collect();
        let mut cal = Self {
            table,
            pairs,
            weight,
            out: vec![0.0; DIM],
            origin,
            samples: Vec::new(),
        };
        for _ in 0..3 {
            cal.kernel();
        }
        cal
    }

    /// One call of the kernel: a fixed amount of work.
    fn kernel(&mut self) {
        let (table, out, weight) = (&mut self.table, &mut self.out, &self.weight);
        for (i, &(a, b)) in self.pairs.iter().enumerate() {
            let (a, b) = (a as usize * DIM, b as usize * DIM);
            // Max keeps every value in [-0.5, 0.5]: no denormals, so the
            // work per call never changes.
            for k in 0..DIM {
                table[b + k] = table[b + k].max(table[a + k]);
            }
            if i % DENSE_EVERY == 0 {
                let row = &table[b..b + DIM];
                for (o, w) in out.iter_mut().zip(weight.chunks_exact(DIM)) {
                    let dot: f32 = w.iter().zip(row).map(|(x, y)| x * y).sum();
                    *o = o.mul_add(0.5, dot);
                }
            }
        }
        black_box(&mut self.table);
        black_box(&mut self.out);
    }

    /// Runs the kernel `n` times, recording each call.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let at = Instant::now();
            let cpu = thread_cpu_ms();
            self.kernel();
            let took = thread_cpu_ms() - cpu;
            let mid = at.saturating_duration_since(self.origin).as_secs_f64() + took / 2e3;
            self.samples.push((mid, took));
        }
    }

    /// Median kernel time over every sample, in ms.
    pub fn median_ms(&self) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        if v.is_empty() {
            REFERENCE_MS
        } else {
            crate::report::median(&v)
        }
    }

    /// The factor that turns a metric measured at `at` into its value at
    /// the reference speed: `(REFERENCE_MS / k) ^ alpha`, where `k` is the
    /// median kernel time of the samples within `NEIGHBOURHOOD_S` of `at`
    /// (or of the `MIN_SAMPLES` nearest, when fewer are that close). Times
    /// are multiplied by it; rates are divided.
    pub fn scale_at(&self, at: Instant, alpha: f64) -> f64 {
        let t = at.saturating_duration_since(self.origin).as_secs_f64();
        // Samples are in time order.
        let lo = self.samples.partition_point(|s| s.0 < t - NEIGHBOURHOOD_S);
        let hi = self.samples.partition_point(|s| s.0 <= t + NEIGHBOURHOOD_S);
        let near: Vec<f64> = if hi - lo >= MIN_SAMPLES {
            self.samples[lo..hi].iter().map(|s| s.1).collect()
        } else {
            let mut by_distance: Vec<(f64, f64)> = self
                .samples
                .iter()
                .map(|&(s, v)| ((s - t).abs(), v))
                .collect();
            by_distance.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            by_distance.iter().take(MIN_SAMPLES).map(|n| n.1).collect()
        };
        if near.is_empty() {
            return 1.0;
        }
        (REFERENCE_MS / crate::report::median(&near)).powf(alpha)
    }
}
