//! The reusable fuzzing driver behind both the `fuzz` bin and
//! `repro --fuzz`: corpus replay, fresh-case generation, shrinking,
//! and corpus persistence, with printing kept to `eprintln`/`println`
//! so callers only decide budgets and exit codes.

use crate::ast::{case_from_seed, FuzzCase, Mode};
use crate::corpus;
use crate::oracle::run_case;
use gmt_testkit::{eval_prop, minimize, splitmix64};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Property evaluations allowed while shrinking one finding (matches
/// the testkit checker's budget).
const MAX_SHRINK_EVALS: u32 = 2048;
/// Default fresh-case budget when neither a case nor a time budget is
/// given.
pub const DEFAULT_CASES: u64 = 1000;
/// Fixed default base seed so runs are deterministic by default.
pub const DEFAULT_SEED: u64 = 0x6D7C_6B5A_4938_2716;

/// Budgets and knobs for one fuzzing run.
pub struct FuzzOptions {
    /// Fresh-case budget; `None` with `secs` set means "until the
    /// clock runs out", `None` alone means [`DEFAULT_CASES`].
    pub cases: Option<u64>,
    /// Wall-clock budget in seconds.
    pub secs: Option<u64>,
    /// Base seed for the fresh-case stream.
    pub seed: u64,
    /// Corpus file (replayed first; findings are appended).
    pub corpus: PathBuf,
    /// Suppress progress lines (the final summary always prints).
    pub quiet: bool,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            cases: None,
            secs: None,
            seed: DEFAULT_SEED,
            corpus: corpus::default_path(),
            quiet: false,
        }
    }
}

/// Counters for one fuzzing run.
pub struct FuzzStats {
    /// Total cases executed (corpus + fresh).
    pub cases: u64,
    /// Corpus entries replayed.
    pub corpus_cases: u64,
    /// Fresh cases generated.
    pub fresh: u64,
    /// Cases the oracle rejected with a typed error (still passes).
    pub rejected: u64,
    /// Failing cases (panics or divergences).
    pub findings: u64,
    /// Cases per generator mode.
    pub by_mode: [u64; Mode::ALL.len()],
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl FuzzStats {
    /// The one-line run summary.
    pub fn summary(&self) -> String {
        format!(
            "fuzz: {} cases ({} corpus + {} fresh), {} typed rejections, {} findings in {:.1}s",
            self.cases,
            self.corpus_cases,
            self.fresh,
            self.rejected,
            self.findings,
            self.elapsed.as_secs_f64()
        )
    }

    /// Per-mode case counts, one token per mode.
    pub fn mode_breakdown(&self) -> String {
        let names: Vec<String> = Mode::ALL
            .iter()
            .zip(self.by_mode.iter())
            .map(|(m, n)| format!("{}:{n}", m.name()))
            .collect();
        names.join(" ")
    }
}

/// The oracle as a testkit property: panics are contained by
/// `eval_prop`, so shrinking can walk through panicking candidates.
fn oracle_prop(case: &FuzzCase) -> Result<(), String> {
    run_case(case).map(|_| ())
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("finding").trim()
}

/// Runs one seed end to end; on failure shrinks, persists, and prints
/// the repro line. Returns whether the seed failed.
fn run_seed(seed: u64, label_prefix: &str, opts: &FuzzOptions, stats: &mut FuzzStats) -> bool {
    let case = case_from_seed(seed);
    stats.cases += 1;
    stats.by_mode[case.mode() as usize % Mode::ALL.len()] += 1;
    match eval_prop(&|c: &FuzzCase| run_case(c).map(|r| (r, ())), &case) {
        Ok((report, ())) => {
            if report.rejected.is_some() {
                stats.rejected += 1;
            }
            false
        }
        Err(first_err) => {
            stats.findings += 1;
            let (min_case, min_err) = minimize(case, first_err, MAX_SHRINK_EVALS, &oracle_prop);
            let label = first_line(&min_err);
            eprintln!("\n=== FINDING ({label_prefix}seed {seed:#x}) ===");
            eprintln!("error: {min_err}");
            eprintln!("shrunk case ({} stmts): {:#?}", min_case.program.len(), min_case);
            match corpus::append(&opts.corpus, seed, label) {
                Ok(()) => eprintln!("persisted to {}", opts.corpus.display()),
                Err(e) => eprintln!("warning: could not persist seed: {e}"),
            }
            eprintln!(
                "repro: GMT_TESTKIT_SEED={seed:#x} cargo run --release -p gmt-fuzz --bin fuzz"
            );
            true
        }
    }
}

/// Replays the corpus, then fuzzes fresh cases until the case or time
/// budget runs out, printing findings as they appear.
///
/// # Errors
///
/// A corrupted corpus file (an unparsable entry line) — fuzzing does
/// not start, so corpus regressions cannot be dropped silently.
pub fn fuzz_run(opts: &FuzzOptions) -> Result<FuzzStats, String> {
    let mut stats = FuzzStats {
        cases: 0,
        corpus_cases: 0,
        fresh: 0,
        rejected: 0,
        findings: 0,
        by_mode: [0; Mode::ALL.len()],
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    let deadline = opts.secs.map(|s| start + Duration::from_secs(s));
    // A time budget alone means "fuzz until the clock runs out".
    let case_budget = match (opts.cases, opts.secs) {
        (Some(n), _) => n,
        (None, Some(_)) => u64::MAX,
        (None, None) => DEFAULT_CASES,
    };

    // 1. Corpus replay: every historical finding, before fresh cases.
    let entries = corpus::load(&opts.corpus)?;
    for entry in &entries {
        run_seed(entry.seed, "corpus ", opts, &mut stats);
    }
    stats.corpus_cases = stats.cases;
    if !opts.quiet && stats.corpus_cases > 0 {
        println!(
            "corpus: {} entr{} replayed",
            stats.corpus_cases,
            if stats.corpus_cases == 1 { "y" } else { "ies" }
        );
    }

    // 2. Fresh cases from the base seed.
    let mut state = opts.seed;
    while stats.fresh < case_budget {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                break;
            }
        }
        let seed = splitmix64(&mut state);
        run_seed(seed, "", opts, &mut stats);
        stats.fresh += 1;
        if !opts.quiet && stats.fresh.is_multiple_of(500) {
            println!(
                "... {} cases ({} rejected, {} findings, {:.1}s)",
                stats.fresh,
                stats.rejected,
                stats.findings,
                start.elapsed().as_secs_f64()
            );
        }
    }
    stats.elapsed = start.elapsed();
    Ok(stats)
}
