//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by half again over a few seconds as other tenants come and go, so the
//! same code reads very differently from one run to the next. Every
//! timed caller therefore runs a fixed calibration kernel about every
//! [`EVERY`] between operations, and each reported time is scaled by
//! [`REFERENCE_NS`] over the kernel time measured around it: a time in
//! ms is the time the operation would take on a host where the kernel
//! takes exactly [`REFERENCE_NS`]. The kernel is benchmark code only,
//! so a change to the program moves the scaled times just as it moves
//! the wall times, while the host's drift moves both the numerator and
//! the denominator and cancels. The unscaled figures stay in the
//! manifest.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time every reported time is scaled to: about what the kernel
/// takes on a 2-vCPU x86-64 cloud guest when its host is quiet, so
/// scaled times read close to that guest's quiet-host wall times.
pub const REFERENCE_NS: f64 = 250_000.0;
/// Least time between two kernel runs of one caller.
pub const EVERY: Duration = Duration::from_millis(20);
/// A time is scaled by the median kernel time of the samples within this
/// distance of the sample nearest to it. The host's speed changes within
/// a tenth of a second, so the window is short; the median keeps one
/// interrupted kernel run from scaling the operations around it.
const SMOOTH_NS: u64 = 50_000_000;

/// Entries of the kernel's hash map, rows it formats, keys it sorts.
const MAP_ENTRIES: u64 = 5000;
const ROWS: u64 = 500;
const KEYS: u64 = 3000;

/// One fixed unit of the kind of work the query service does: hashing,
/// string formatting and comparisons. Its buffers are allocated once and
/// reused, so the program's heap state (a refresh just freed a store,
/// say) never reaches the kernel's time, only the host's speed does.
pub struct Kernel {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    text: String,
    keys: Vec<u64>,
}

impl Default for Kernel {
    fn default() -> Kernel {
        let mut k = Kernel {
            map: HashMap::with_capacity_and_hasher(MAP_ENTRIES as usize, Default::default()),
            text: String::new(),
            keys: Vec::with_capacity(KEYS as usize),
        };
        // The first run sizes the string buffer and touches every page.
        k.run();
        k
    }
}

impl Kernel {
    /// Runs the kernel once; returns its wall time in ns. The hasher is
    /// unkeyed, so every run does identical work.
    pub fn run(&mut self) -> u64 {
        let t0 = Instant::now();
        self.map.clear();
        for i in 0..MAP_ENTRIES {
            self.map.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i);
        }
        self.text.clear();
        for i in 0..ROWS {
            let _ = write!(
                self.text,
                "row{i} | {} ",
                self.map[&i.wrapping_mul(0x9e37_79b9_7f4a_7c15)]
            );
        }
        self.keys.clear();
        self.keys
            .extend((0..KEYS).map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d)));
        self.keys.sort_unstable();
        black_box((&self.map, &self.text, &self.keys));
        t0.elapsed().as_nanos() as u64
    }
}

/// The kernel samples one caller took: (time since the run's origin,
/// kernel ns).
#[derive(Default)]
pub struct Probe {
    /// Samples in the order taken.
    pub samples: Vec<(u64, u64)>,
    kernel: Kernel,
    last: Option<Instant>,
}

impl Probe {
    /// Runs the kernel now.
    pub fn sample(&mut self, origin: Instant) {
        let ns = self.kernel.run();
        let now = Instant::now();
        self.samples.push(((now - origin).as_nanos() as u64, ns));
        self.last = Some(now);
    }

    /// Runs the kernel if [`EVERY`] has passed since the last run.
    pub fn tick(&mut self, origin: Instant) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample(origin);
        }
    }
}

/// Scale factors over a run, from the samples of all its callers.
pub struct Scale {
    at_ns: Vec<u64>,
    /// Median kernel time within [`SMOOTH_NS`] of each sample.
    smoothed: Vec<f64>,
}

impl Scale {
    /// Merges samples from any number of callers.
    pub fn new(mut samples: Vec<(u64, u64)>) -> Scale {
        samples.sort_unstable();
        let at_ns: Vec<u64> = samples.iter().map(|s| s.0).collect();
        let smoothed = at_ns
            .iter()
            .map(|&at| {
                let lo = at_ns.partition_point(|&t| t + SMOOTH_NS < at);
                let hi = at_ns.partition_point(|&t| t <= at.saturating_add(SMOOTH_NS));
                let near: Vec<f64> = samples[lo..hi].iter().map(|s| s.1 as f64).collect();
                crate::stats::median(&near)
            })
            .collect();
        Scale { at_ns, smoothed }
    }

    /// Factor for an operation that completed at `at_ns`: the reference
    /// over the smoothed kernel time of the sample nearest in time.
    pub fn factor(&self, at_ns: u64) -> f64 {
        assert!(!self.at_ns.is_empty(), "a run takes kernel samples");
        let i = self.at_ns.partition_point(|&t| t < at_ns);
        let nearest = match (i.checked_sub(1), self.at_ns.get(i)) {
            (Some(b), Some(&after)) if after - at_ns < at_ns - self.at_ns[b] => i,
            (Some(b), _) => b,
            (None, _) => 0,
        };
        REFERENCE_NS / self.smoothed[nearest]
    }

    /// Median smoothed kernel time of the run, for the manifest.
    pub fn median_kernel_ns(&self) -> f64 {
        crate::stats::median(&self.smoothed)
    }

    /// Kernel samples behind the factors.
    pub fn len(&self) -> usize {
        self.at_ns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_steady_host_scales_to_the_reference() {
        let samples = (0..50).map(|i| (i * 1000, 500_000)).collect();
        let scale = Scale::new(samples);
        for at in [0, 999, 25_500, 10_000_000] {
            assert_eq!(scale.factor(at), 0.5);
        }
    }

    #[test]
    fn each_time_takes_the_speed_around_it() {
        // A sample every 20 ms: fast for the first second, twice as slow
        // after, with one interrupted kernel run the median drops. A
        // second caller's sample arrives out of order and merges in.
        const MS: u64 = 1_000_000;
        let mut samples: Vec<(u64, u64)> = (0..100)
            .map(|i| (i * 20 * MS, if i < 50 { 250_000 } else { 500_000 }))
            .collect();
        samples[10].1 = 5_000_000;
        samples.push((310 * MS, 250_000));
        samples.swap(3, 100);
        let scale = Scale::new(samples);
        assert_eq!(scale.factor(0), 1.0);
        assert_eq!(scale.factor(200 * MS), 1.0, "the outlier is outvoted");
        assert_eq!(scale.factor(900 * MS), 1.0);
        assert_eq!(scale.factor(1200 * MS), 0.5);
        assert_eq!(scale.factor(u64::MAX), 0.5);
        assert_eq!(scale.len(), 101);
    }

    #[test]
    fn the_kernel_reuses_its_buffers() {
        let mut k = Kernel::default();
        let (map, text, keys) = (k.map.capacity(), k.text.capacity(), k.keys.capacity());
        assert!(k.run() > 0);
        assert_eq!(
            (map, text, keys),
            (k.map.capacity(), k.text.capacity(), k.keys.capacity())
        );
        assert!(k.keys.is_sorted());
    }
}
