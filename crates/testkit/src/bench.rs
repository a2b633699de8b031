//! A criterion-shaped micro-benchmark harness: warmup, timed samples,
//! mean/median/stddev, and JSON-lines output.
//!
//! Each bench target (`harness = false`) builds one or more
//! [`BenchGroup`]s in its `main`. Results go to stdout as a human
//! table row and are appended as one JSON object per line to
//! `BENCH_<target>.json` (in `GMT_TESTKIT_BENCH_DIR`, defaulting to
//! the working directory), so figure pipelines can consume them
//! offline.
//!
//! Modes:
//!
//! - `cargo bench` — full warmup + sampling;
//! - `cargo test` / `--test` argument — each benchmark body runs once,
//!   untimed (criterion's smoke-test convention, reused by `ci.sh`);
//! - `GMT_TESTKIT_BENCH_SMOKE=1` — same single-iteration smoke mode.

use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct BenchStats {
    /// Group name.
    pub group: String,
    /// Benchmark id within the group.
    pub name: String,
    /// Mean time per iteration.
    pub mean_ns: f64,
    /// Median time per iteration.
    pub median_ns: f64,
    /// Population standard deviation per iteration.
    pub stddev_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
}

impl BenchStats {
    fn to_json(&self, target: &str) -> String {
        format!(
            "{{\"target\":\"{}\",\"group\":\"{}\",\"bench\":\"{}\",\"mean_ns\":{:.1},\
             \"median_ns\":{:.1},\"stddev_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\
             \"samples\":{},\"iters\":{}}}",
            escape(target),
            escape(&self.group),
            escape(&self.name),
            self.mean_ns,
            self.median_ns,
            self.stddev_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.iters,
        )
    }
}

/// Minimal JSON string escaping (names here are identifiers, but stay
/// safe against quotes/backslashes).
pub fn json_escape(s: &str) -> String {
    escape(s)
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec!['?'],
            c => vec![c],
        })
        .collect()
}

/// A named group of benchmarks sharing sampling configuration.
pub struct BenchGroup {
    group: String,
    target: String,
    sample_size: usize,
    warmup: Duration,
    min_sample_time: Duration,
    smoke: bool,
}

impl BenchGroup {
    /// A group named `group`. Reads the smoke/sample environment and
    /// the `--test` argument convention.
    pub fn new(group: &str) -> BenchGroup {
        let smoke = std::env::args().any(|a| a == "--test")
            || std::env::var("GMT_TESTKIT_BENCH_SMOKE").is_ok_and(|v| v != "0");
        let sample_size = std::env::var("GMT_TESTKIT_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10);
        BenchGroup {
            group: group.to_string(),
            target: bench_target_name(),
            sample_size,
            warmup: Duration::from_millis(300),
            min_sample_time: Duration::from_millis(20),
            smoke,
        }
    }

    /// Sets the number of timed samples (criterion's `sample_size`).
    pub fn sample_size(&mut self, n: usize) -> &mut BenchGroup {
        if std::env::var("GMT_TESTKIT_SAMPLES").is_err() {
            self.sample_size = n.max(2);
        }
        self
    }

    /// Runs one benchmark and records its stats.
    pub fn bench<R>(&mut self, name: &str, mut body: impl FnMut() -> R) -> &mut BenchGroup {
        if self.smoke {
            black_box(body());
            println!("{:<40} [smoke: 1 iteration, untimed]", format!("{}/{name}", self.group));
            return self;
        }

        // Warmup, and estimate per-iteration cost to size samples.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(body());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().div_f64(warm_iters as f64);
        let iters = (self.min_sample_time.as_nanos() / per_iter.as_nanos().max(1)).max(1) as u64;

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(body());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        let stats = summarize(&self.group, name, &samples_ns, iters);
        println!(
            "{:<40} mean {:>12}  median {:>12}  stddev {:>10}  ({} samples x {} iters)",
            format!("{}/{name}", self.group),
            fmt_ns(stats.mean_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.stddev_ns),
            stats.samples,
            stats.iters,
        );
        append_json(&self.target, &stats);
        self
    }

    /// Criterion-compat no-op: results are flushed as they complete.
    pub fn finish(&mut self) {}
}

fn summarize(group: &str, name: &str, samples_ns: &[f64], iters: u64) -> BenchStats {
    let n = samples_ns.len() as f64;
    let mean = samples_ns.iter().sum::<f64>() / n;
    let var = samples_ns.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    let mut sorted = samples_ns.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = if sorted.len().is_multiple_of(2) {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    } else {
        sorted[sorted.len() / 2]
    };
    BenchStats {
        group: group.to_string(),
        name: name.to_string(),
        mean_ns: mean,
        median_ns: median,
        stddev_ns: var.sqrt(),
        min_ns: sorted[0],
        max_ns: sorted[sorted.len() - 1],
        samples: samples_ns.len(),
        iters,
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// The bench target name, from the executable (`target/release/deps/
/// fig8_speedup-<hash>` → `fig8_speedup`).
fn bench_target_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .map(|stem| stem.rsplit_once('-').map_or(stem.clone(), |(base, _)| base.to_string()))
        .unwrap_or_else(|| "bench".to_string())
}

fn append_json(target: &str, stats: &BenchStats) {
    append_json_line(target, &stats.to_json(target));
}

/// Appends one pre-formatted JSON line to `BENCH_<target>.json` in
/// `GMT_TESTKIT_BENCH_DIR` (defaulting to the working directory) —
/// the same sink the bench runner writes to, reusable by any producer
/// of JSON-lines records (e.g. `repro --metrics`).
pub fn append_json_line(target: &str, line: &str) {
    let dir = std::env::var("GMT_TESTKIT_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = PathBuf::from(dir).join(format!("BENCH_{target}.json"));
    if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = writeln!(file, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = summarize("g", "b", &[10.0, 20.0, 30.0, 40.0], 3);
        assert_eq!(s.mean_ns, 25.0);
        assert_eq!(s.median_ns, 25.0);
        assert_eq!(s.min_ns, 10.0);
        assert_eq!(s.max_ns, 40.0);
        assert!((s.stddev_ns - 125.0f64.sqrt()).abs() < 1e-9);
        assert_eq!(s.iters, 3);
    }

    #[test]
    fn json_line_shape() {
        let s = summarize("maxflow", "dinic/64", &[1.5, 2.5], 100);
        let line = s.to_json("mincut_compile_time");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"target\":\"mincut_compile_time\""));
        assert!(line.contains("\"bench\":\"dinic/64\""));
        assert!(line.contains("\"mean_ns\":2.0"));
        assert!(line.contains("\"samples\":2"));
    }

    #[test]
    fn escape_handles_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn median_of_odd_sample_count() {
        let s = summarize("g", "b", &[9.0, 1.0, 5.0], 1);
        assert_eq!(s.median_ns, 5.0);
    }
}
