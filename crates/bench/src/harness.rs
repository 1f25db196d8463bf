//! A minimal, dependency-free stand-in for the criterion benchmark API.
//!
//! The container this repo builds in has no network access to crates.io, so
//! the benches use this std-only harness exposing the small slice of
//! criterion's surface they need: [`Criterion`], [`BenchmarkGroup`],
//! [`BenchmarkId`], [`Bencher`] and the
//! [`criterion_group!`](crate::criterion_group) /
//! [`criterion_main!`](crate::criterion_main) macros. Timing is wall-clock:
//! a short warm-up, then `sample_size` samples of an adaptively sized
//! iteration batch, reporting the median and min/max nanoseconds per
//! iteration.

use std::fmt;
use std::time::{Duration, Instant};

/// Target measuring time per sample batch (public so bench reports can
/// record the harness configuration in their `meta` blocks).
pub const SAMPLE_BUDGET: Duration = Duration::from_millis(25);
/// Warm-up budget per benchmark.
pub const WARMUP_BUDGET: Duration = Duration::from_millis(50);

/// Returns `true` when `BENCH_SMOKE` is set (truthy — see
/// [`env_flag`](subconsensus_sim::env_flag), the shared parser for all
/// diagnostic env vars): every benchmark runs its routine twice with no
/// warm-up and a single iteration per sample. The numbers are meaningless,
/// but every bench code path is exercised — `scripts/check.sh` uses this
/// to fail the gate on bench bit-rot instead of discovering it at bench
/// time.
pub fn smoke_mode() -> bool {
    subconsensus_sim::env_flag("BENCH_SMOKE")
}

/// One timing measurement, exposed for machine-readable reporting.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Full benchmark label (`group/function/param`).
    pub label: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
    /// Slowest sample, ns per iteration.
    pub max_ns: f64,
    /// Iterations per sample batch.
    pub iters_per_sample: u64,
    /// Number of sample batches taken.
    pub samples: usize,
}

/// Top-level driver collecting measurements; analogue of
/// `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    measurements: Vec<Measurement>,
}

impl Criterion {
    /// Creates a driver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let name = name.into();
        self.run_one(name, 20, f);
    }

    /// All measurements collected so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    fn run_one(&mut self, label: String, sample_size: usize, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            sample_size,
            measurement: None,
        };
        f(&mut b);
        let mut m = b
            .measurement
            .expect("benchmark closure must call Bencher::iter");
        m.label = label;
        println!(
            "{:<56} median {:>12} (min {}, max {}) x{} iters/sample",
            m.label,
            format_ns(m.median_ns),
            format_ns(m.min_ns),
            format_ns(m.max_ns),
            m.iters_per_sample,
        );
        self.measurements.push(m);
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmarks `f` with `input`, labeled by `id`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        let sample_size = self.sample_size;
        self.criterion.run_one(label, sample_size, |b| f(b, input));
        self
    }

    /// Benchmarks a function within the group.
    pub fn bench_function(
        &mut self,
        name: impl fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let label = format!("{}/{name}", self.name);
        let sample_size = self.sample_size;
        self.criterion.run_one(label, sample_size, f);
        self
    }

    /// Ends the group (criterion-compat no-op).
    pub fn finish(self) {}
}

/// A two-part benchmark label: `function/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Creates a label from a function name and a parameter display.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: function.to_string(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.function, self.parameter)
    }
}

/// The per-benchmark timer handed to the closure; analogue of
/// `criterion::Bencher`.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement: Option<Measurement>,
}

impl Bencher {
    /// Times `routine`, running it in adaptively sized batches.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        self.iter_with_setup(|| (), |()| routine());
    }

    /// Times `routine` over fresh values from `setup`; only the routine is
    /// timed (per-iteration, so setup cost never pollutes the numbers).
    pub fn iter_with_setup<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        if smoke_mode() {
            // Exercise the routine, skip the measurement protocol.
            let mut samples_ns = Vec::with_capacity(2);
            for _ in 0..2 {
                let input = setup();
                let t = Instant::now();
                std::hint::black_box(routine(std::hint::black_box(input)));
                samples_ns.push(t.elapsed().as_nanos() as f64);
            }
            samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            self.measurement = Some(Measurement {
                label: String::new(),
                median_ns: samples_ns[1],
                min_ns: samples_ns[0],
                max_ns: samples_ns[1],
                iters_per_sample: 1,
                samples: 2,
            });
            return;
        }
        // Warm-up and batch sizing: run until the warm-up budget is spent,
        // tracking the per-iteration cost to size the sample batches.
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        let mut spent = Duration::ZERO;
        while spent < WARMUP_BUDGET {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(std::hint::black_box(input)));
            spent += t.elapsed();
            warmup_iters += 1;
            if warmup_start.elapsed() > 4 * WARMUP_BUDGET {
                break; // setup dominates; stop early
            }
        }
        let per_iter = spent.checked_div(warmup_iters as u32).unwrap_or_default();
        let iters_per_sample = if per_iter.is_zero() {
            1000
        } else {
            (SAMPLE_BUDGET.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 100_000) as u64
        };

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut batch = Duration::ZERO;
            for _ in 0..iters_per_sample {
                let input = setup();
                let t = Instant::now();
                std::hint::black_box(routine(std::hint::black_box(input)));
                batch += t.elapsed();
            }
            samples_ns.push(batch.as_nanos() as f64 / iters_per_sample as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median_ns = samples_ns[samples_ns.len() / 2];
        self.measurement = Some(Measurement {
            label: String::new(),
            median_ns,
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().expect("at least one sample"),
            iters_per_sample,
            samples: samples_ns.len(),
        });
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Declares a benchmark group function, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::new();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench `main`, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_trivial_routine() {
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_with_input(BenchmarkId::new("add", 2), &2u64, |b, &x| b.iter(|| x + 1));
        g.finish();
        c.bench_function("lone", |b| b.iter_with_setup(|| 5u64, |x| x * 2));
        assert_eq!(c.measurements().len(), 2);
        assert_eq!(c.measurements()[0].label, "g/add/2");
        let expected_samples = if smoke_mode() { 2 } else { 3 };
        assert_eq!(c.measurements()[0].samples, expected_samples);
        assert!(c.measurements()[0].median_ns >= 0.0);
        assert_eq!(c.measurements()[1].label, "lone");
    }

    #[test]
    fn benchmark_id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("f", "n2_k1").to_string(), "f/n2_k1");
    }
}
