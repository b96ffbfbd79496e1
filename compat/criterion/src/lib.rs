//! Offline compatibility shim for the subset of the `criterion` API this
//! workspace's benches use: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] / [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkId`], [`Bencher::iter`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! The build environment has no registry access, so the external APIs the
//! benches use are vendored as path dependencies under `compat/`. Instead of
//! criterion's statistical machinery, each benchmark runs a short
//! calibrated measurement loop and prints `name  median ± spread` to
//! stdout — enough to compare hot paths run-to-run. `cargo bench --no-run`
//! compiles everything; `cargo bench` executes it.

use std::time::{Duration, Instant};

/// Measurement budget per benchmark, tuned so whole-figure scheduler
/// benches stay in seconds rather than minutes.
const TARGET_TOTAL: Duration = Duration::from_millis(400);

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n[{name}]");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 20,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&name.into(), 20, f);
        self
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs a benchmark under this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_benchmark(&format!("{}/{}", self.name, id.0), self.sample_size, f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (printing is incremental, so this is a no-op).
    pub fn finish(self) {}
}

/// A benchmark's name, optionally combined with a parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), parameter))
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_owned())
    }
}

/// Passed to benchmark closures to drive the measurement loop.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, storing per-iteration durations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // One untimed warm-up iteration, also used to calibrate how many
        // iterations fit the per-benchmark budget. In `--test` mode
        // (sample_size 0) this single execution is the whole run.
        let warmup = Instant::now();
        std::hint::black_box(routine());
        if self.sample_size == 0 {
            return;
        }
        let once = warmup.elapsed().max(Duration::from_nanos(1));

        let per_sample = TARGET_TOTAL / self.sample_size as u32;
        let iters = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            self.samples.push(start.elapsed() / iters);
        }
    }
}

/// `--test` (matching real criterion): run every benchmark routine once to
/// prove it executes, skipping the measurement loop — the CI smoke mode.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn run_benchmark<F: FnMut(&mut Bencher)>(name: &str, sample_size: usize, mut f: F) {
    let mut bencher = Bencher {
        samples: Vec::new(),
        sample_size: if test_mode() { 0 } else { sample_size },
    };
    f(&mut bencher);
    if test_mode() {
        println!("  {name:<50} ok (--test)");
        return;
    }
    if bencher.samples.is_empty() {
        println!("  {name:<50} (no samples)");
        return;
    }
    bencher.samples.sort_unstable();
    let median = bencher.samples[bencher.samples.len() / 2];
    let spread = *bencher.samples.last().unwrap() - bencher.samples[0];
    println!("  {name:<50} {median:>12.2?} ± {spread:.2?}");
}

/// Bundles benchmark functions into a callable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running every listed group.
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
    fn bench_loop_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut runs = 0u64;
        group.bench_function(BenchmarkId::new("count", 1), |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        group.bench_with_input("with_input", &7u64, |b, &x| b.iter(|| x * 2));
        group.finish();
        assert!(runs > 0, "routine executed at least once");
        c.bench_function("standalone", |b| b.iter(|| 1 + 1));
    }
}
