//! The repository benchmark: the GREMIO/DSWP + MTCG + COCO pipeline,
//! end to end and layer by layer.
//!
//! A *cell* is one program under one scheduler, evaluated by
//! `gmt_harness::evaluate_full` with timing on: train profile, baseline
//! MTCG and MTCG+COCO, functional runs and timed simulations — exactly
//! one cell of `repro --fig 8`. A *pass* evaluates every cell of a
//! workload once.
//!
//! - The **end-to-end run** ([`run`] with `trace = false`) sets the
//!   workload up several times, checks one pass cell by cell (see
//!   [`drive`]), then times passes on a fixed worker pool for the
//!   requested duration.
//! - The **traced run** (`trace = true`) alternates an untraced serial
//!   pass with a serial pass of [`drive::drive_cell`], which re-drives
//!   every cell through each crate's public functions with a span
//!   around every call, and reports per-layer times and work counts.
//!
//! See `NOTES.md` beside this crate for why each workload exists and
//! which end-to-end metric each layer metric moves.

pub mod calib;
pub mod cells;
pub mod drive;
pub mod procfs;
pub mod spans;
pub mod stats;

use cells::Population;
use drive::{drive_cell, identity, Counters, Traced};
use gmt_harness::{
    evaluate_full, figures, geo_mean, mean, BenchResult, HarnessError, SchedulerKind,
};
use spans::Recorder;
use std::time::Instant;

/// The pinned quick Figure 7 that `fig-train` must reproduce.
const FIG7_GOLDEN: &str = include_str!("../../tests/golden/fig7_quick.txt");

/// Set-up runs this often after every timed pass, so that its median
/// covers the same stretch of host time as the passes do.
const SETUP_REPS: usize = 10;

/// The end-to-end run times passes until it has at least this many
/// cell samples, so that at least ten lie above `cell_ms_p90`.
const MIN_CELL_SAMPLES: usize = 100;

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (one of [`cells::WORKLOADS`]).
    pub workload: String,
    /// Input seed (`synth-scale` draws its programs from it).
    pub seed: u64,
    /// Measurement duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Worker count of the end-to-end run's pool.
    pub jobs: usize,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one invocation.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// No cell failed and every check held.
    pub correct: bool,
    /// Cell evaluations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable log lines (environment, programs, partitions,
    /// failures, growth table).
    pub log: Vec<String>,
    /// The traced run's spans as JSON lines (empty for the end-to-end
    /// run).
    pub spans_jsonl: String,
}

impl Report {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.log.push(format!("FAILED: {what}"));
    }

    fn push(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(value) if value.is_finite() => self.metrics.push(Metric { name, value, unit }),
            _ => self.log.push(format!(
                "metric {name} could not be measured; reported as missing"
            )),
        }
    }
}

/// The default worker count: two, or fewer on a smaller machine.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Records the environment knobs the pipeline reads, and refuses to run
/// under `GMT_SIM_SKIP`: even an inherited `GMT_SIM_SKIP=0` turns the
/// simulator's stall fast-forward off and slows queue-bound cells.
///
/// # Errors
///
/// `GMT_SIM_SKIP` is set.
pub fn check_environment() -> Result<Vec<String>, String> {
    let show =
        |k: &str| std::env::var(k).map_or_else(|_| "<unset>".to_string(), |v| format!("{v:?}"));
    if std::env::var_os("GMT_SIM_SKIP").is_some() {
        return Err(format!(
            "GMT_SIM_SKIP is set ({}); unset it to benchmark",
            show("GMT_SIM_SKIP")
        ));
    }
    Ok(vec![format!(
        "env: GMT_JOBS={} (not read: the pool size is passed explicitly) GMT_SIM_SKIP={}",
        show("GMT_JOBS"),
        show("GMT_SIM_SKIP")
    )])
}

/// Runs one invocation.
///
/// # Errors
///
/// An unknown workload or a population that cannot be built.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut report = Report {
        log: check_environment()?,
        ..Report::default()
    };
    let pop = set_up(&opts.workload, opts.seed, &mut Vec::new())?;
    report.log.extend(pop.log.iter().cloned());
    report.log.push(format!(
        "workload {} seed {}: {} programs, {} cells, {:?} inputs, jobs {}",
        opts.workload,
        opts.seed,
        pop.workloads.len(),
        pop.cells.len(),
        pop.scale,
        if opts.trace { 1 } else { opts.jobs }
    ));
    if opts.trace {
        traced_run(opts, &pop, &mut report);
    } else {
        end_to_end_run(opts, &pop, &mut report)?;
    }
    report.correct = report.failed == 0;
    Ok(report)
}

/// Builds the workload [`SETUP_REPS`] times, appending each build time
/// in seconds to `times`, and returns the last population.
fn set_up(workload: &str, seed: u64, times: &mut Vec<f64>) -> Result<Population, String> {
    let mut pop = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        pop = Some(cells::build(workload, seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(pop.expect("SETUP_REPS > 0"))
}

type CellResult = Result<BenchResult, HarnessError>;

fn cell_label(pop: &Population, i: usize) -> String {
    let (w, kind) = pop.cells[i];
    format!("{}/{}", pop.workloads[w].benchmark, kind.name())
}

/// The untraced measurement of cell `i`: the public figure path.
fn evaluate(pop: &Population, i: usize) -> CellResult {
    let (w, kind) = pop.cells[i];
    evaluate_full(&pop.workloads[w], kind, true, pop.scale).map(|e| e.result)
}

/// Re-drives cell `i` traced and returns its trace with every check
/// failure (an untraced failure is one too).
fn check(
    pop: &Population,
    i: usize,
    untraced: &CellResult,
    rec: &mut Recorder,
) -> (Option<Traced>, Vec<String>) {
    let label = cell_label(pop, i);
    let untraced = match untraced {
        Ok(r) => r,
        Err(e) => return (None, vec![format!("{label}: evaluate_full: {e}")]),
    };
    let (w, kind) = pop.cells[i];
    rec.set_cell(i);
    match drive_cell(&pop.workloads[w], kind, pop.scale, untraced, rec) {
        Ok((traced, failures)) => (
            Some(traced),
            failures
                .into_iter()
                .map(|f| format!("{label}: {f}"))
                .collect(),
        ),
        Err(e) => (None, vec![format!("{label}: traced run: {e}")]),
    }
}

/// Logs the chosen GREMIO partition of a checked cell.
fn log_partition(report: &mut Report, pop: &Population, i: usize, traced: &Traced) {
    if pop.cells[i].1 == SchedulerKind::Gremio {
        let key: String = traced.partition_key.iter().map(|t| t.to_string()).collect();
        report
            .log
            .push(format!("partition {}: {key}", cell_label(pop, i)));
    }
}

/// `fig-train` only: Figure 7 rendered from this run's results must
/// equal the pinned golden byte for byte.
fn golden_check(opts: &Options, pop: &Population, results: &[CellResult], report: &mut Report) {
    if opts.workload != "fig-train" {
        return;
    }
    report.attempted += 1;
    let mut rendered = String::new();
    for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
        let rows: Vec<CellResult> = (0..pop.cells.len())
            .filter(|&i| pop.cells[i].1 == kind)
            .map(|i| results[i].clone())
            .collect();
        rendered.push_str(&figures::render_figure7(&rows, kind));
        rendered.push('\n');
    }
    if rendered != FIG7_GOLDEN {
        report.fail(format!(
            "Figure 7 differs from tests/golden/fig7_quick.txt:\n{rendered}"
        ));
    }
}

/// One timed pass of the end-to-end run. Host times are scaled to the
/// reference host (see [`calib`]).
struct Pass {
    speed_factor: f64,
    raw_wall_s: f64,
    wall_s: f64,
    cpu_s: Option<f64>,
    peak_rss_mb: Option<f64>,
    cell_ms: Vec<f64>,
    results: Vec<CellResult>,
}

fn timed_pass(pop: &Population, jobs: usize) -> Pass {
    let before = calib::kernel_ms_on(jobs);
    let rss_reset = procfs::reset_peak_rss();
    let cpu0 = procfs::cpu_seconds();
    let t = Instant::now();
    let out = gmt_testkit::par_map((0..pop.cells.len()).collect(), jobs, |_, i| {
        let t = Instant::now();
        (evaluate(pop, i), t.elapsed().as_secs_f64() * 1e3)
    });
    let raw_wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu0.zip(procfs::cpu_seconds()).map(|(a, b)| b - a);
    let peak_rss_mb = if rss_reset {
        procfs::peak_rss_mb()
    } else {
        None
    };
    let after = calib::kernel_ms_on(jobs);
    let speed_factor = calib::REFERENCE_MS / ((before + after) / 2.0);
    let (results, cell_ms): (Vec<_>, Vec<f64>) = out.into_iter().unzip();
    Pass {
        speed_factor,
        raw_wall_s,
        wall_s: raw_wall_s * speed_factor,
        cpu_s: cpu_s.map(|c| c * speed_factor),
        peak_rss_mb,
        cell_ms: cell_ms.iter().map(|ms| ms * speed_factor).collect(),
        results,
    }
}

fn end_to_end_run(opts: &Options, pop: &Population, report: &mut Report) -> Result<(), String> {
    let n = pop.cells.len();
    // Check pass (also the warm-up): every cell through evaluate_full
    // and the traced re-drive, on the pool.
    let checked = gmt_testkit::par_map((0..n).collect(), opts.jobs, |_, i| {
        let untraced = evaluate(pop, i);
        let (traced, failures) = check(pop, i, &untraced, &mut Recorder::default());
        (untraced, traced, failures)
    });
    let mut reference = Vec::with_capacity(n);
    let mut ok_cells = 0usize;
    for (i, (untraced, traced, failures)) in checked.into_iter().enumerate() {
        report.attempted += 1;
        if let Some(t) = &traced {
            log_partition(report, pop, i, t);
        }
        if failures.is_empty() {
            ok_cells += 1;
        } else {
            report.fail(failures.join("; "));
        }
        reference.push(untraced);
    }
    golden_check(opts, pop, &reference, report);

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setup_s = Vec::new();
    while started.elapsed().as_secs_f64() < opts.seconds || passes.len() * n < MIN_CELL_SAMPLES {
        let pass = timed_pass(pop, opts.jobs);
        for (i, r) in pass.results.iter().enumerate() {
            report.attempted += 1;
            let same = match (r, &reference[i]) {
                (Ok(a), Ok(b)) => identity(b, a),
                (Err(a), Err(b)) if a == b => None,
                _ => Some("outcome changed".to_string()),
            };
            if let Some(e) = same {
                report.fail(format!(
                    "{}: pass {} differs from the check pass: {e}",
                    cell_label(pop, i),
                    passes.len()
                ));
            }
        }
        let mut times = Vec::new();
        set_up(&opts.workload, opts.seed, &mut times)?;
        setup_s.extend(times.iter().map(|t| t * pass.speed_factor));
        passes.push(pass);
    }

    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpu: Option<Vec<f64>> = passes.iter().map(|p| p.cpu_s).collect();
    let rss: Option<Vec<f64>> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let raw: Vec<f64> = passes.iter().map(|p| p.raw_wall_s).collect();
    let factors: Vec<f64> = passes.iter().map(|p| p.speed_factor).collect();
    report.log.push(format!(
        "{} timed passes, {} cell samples ({} above p90); unscaled matrix {:.4} s, speed factor {:.4}",
        passes.len(),
        cell_ms.len(),
        cell_ms.len() / 10,
        stats::median(&raw).unwrap_or(f64::NAN),
        stats::median(&factors).unwrap_or(f64::NAN),
    ));
    let ok: Vec<&BenchResult> = reference.iter().filter_map(|r| r.as_ref().ok()).collect();
    report.push("matrix_s", stats::median(&walls), "s");
    report.push("cell_ms_p50", stats::quantile(&cell_ms, 0.5), "ms");
    report.push("cell_ms_p90", stats::quantile(&cell_ms, 0.9), "ms");
    // `/proc` CPU time ticks at 10 ms, so the per-pass figure is the
    // mean over all timed passes rather than a median of coarse ticks.
    report.push(
        "cpu_s",
        cpu.map(|c| c.iter().sum::<f64>() / c.len() as f64),
        "s",
    );
    report.push("peak_rss_mb", rss.and_then(|r| stats::median(&r)), "MiB");
    report.push("setup_s", stats::median(&setup_s), "s");
    report.push(
        "speedup_mtcg_geomean",
        Some(geo_mean(ok.iter().filter_map(|r| r.speedup_mtcg()))),
        "x",
    );
    report.push(
        "speedup_coco_geomean",
        Some(geo_mean(ok.iter().filter_map(|r| r.speedup_coco()))),
        "x",
    );
    report.push(
        "comm_reduction_pct",
        Some(mean(ok.iter().map(|r| 100.0 - r.relative_comm_pct()))),
        "%",
    );
    report.push("pass_ratio", Some(ok_cells as f64 / n as f64), "ratio");
    Ok(())
}

/// Per-pass figures of the traced run.
struct TracedPass {
    untraced_ms: f64,
    remainder_ms: f64,
    counters: Vec<Counters>,
    seq_instrs_simulated: u64,
    rec: Recorder,
}

impl TracedPass {
    /// Inclusive ms of the spans named `name`, summed over the pass.
    fn ms(&self, name: &str) -> f64 {
        self.rec.total_ns(name) as f64 / 1e6
    }
}

fn traced_pass(pop: &Population, report: &mut Report, log_partitions: bool) -> TracedPass {
    let n = pop.cells.len();
    let mut untraced = Vec::with_capacity(n);
    let mut untraced_ms = 0.0;
    for i in 0..n {
        let t = Instant::now();
        untraced.push(evaluate(pop, i));
        untraced_ms += t.elapsed().as_secs_f64() * 1e3;
    }
    let mut rec = Recorder::default();
    let mut counters = Vec::with_capacity(n);
    let mut remainder_ns = 0u64;
    let mut seq_instrs_simulated = 0u64;
    for (i, u) in untraced.iter().enumerate() {
        report.attempted += 1;
        let (traced, failures) = check(pop, i, u, &mut rec);
        if !failures.is_empty() {
            report.fail(failures.join("; "));
        }
        if let Some(t) = traced {
            if log_partitions {
                log_partition(report, pop, i, &t);
            }
            remainder_ns += t.remainder_ns;
            let r = &t.result;
            seq_instrs_simulated += r.seq_instrs + r.mtcg.counts.total() + r.coco.counts.total();
            counters.push(t.counters);
        }
    }
    TracedPass {
        untraced_ms,
        remainder_ms: remainder_ns as f64 / 1e6,
        counters,
        seq_instrs_simulated,
        rec,
    }
}

fn traced_run(opts: &Options, pop: &Population, report: &mut Report) {
    let started = Instant::now();
    let mut passes: Vec<TracedPass> = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let pass = traced_pass(pop, report, passes.is_empty());
        if let Some(first) = passes.first() {
            if first.counters != pass.counters {
                report.fail(format!(
                    "work counters changed between traced passes 0 and {}",
                    passes.len()
                ));
            }
        }
        passes.push(pass);
    }
    let med =
        |f: &dyn Fn(&TracedPass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let layer = |name: &str| med(&|p: &TracedPass| p.ms(name));
    let first = &passes[0];
    let sum = |f: fn(&Counters) -> u64| Some(first.counters.iter().map(f).sum::<u64>() as f64);

    report.push("ir.train_profile_ms", layer("ir.train_profile"), "ms");
    report.push("ir.seq_run_ms", layer("ir.seq_run"), "ms");
    report.push("ir.mt_run_ms", layer("ir.mt_run"), "ms");
    report.push("ir.decode_ms", layer("ir.decode"), "ms");
    report.push("ir.reference_ms", layer("ir.reference"), "ms");
    report.push("ir.seq_dyn_instrs", sum(|c| c.seq_dyn_instrs), "count");
    report.push("ir.mt_dyn_instrs", sum(|c| c.mt_dyn_instrs), "count");
    report.push("pdg.build_ms", layer("pdg.build"), "ms");
    report.push("pdg.deps", sum(|c| c.pdg_deps), "count");
    report.push("pdg.static_instrs", sum(|c| c.static_instrs), "count");
    report.push(
        "sched.gremio_candidates_ms",
        layer("sched.gremio_candidates"),
        "ms",
    );
    report.push(
        "sched.gremio_candidates",
        sum(|c| c.gremio_candidates),
        "count",
    );
    report.push(
        "sched.dswp_partition_ms",
        layer("sched.dswp_partition"),
        "ms",
    );
    report.push("core.arb_ms", layer("core.arb"), "ms");
    report.push("core.arb_probes", sum(|c| c.arb_probes), "count");
    report.push("core.arb_hits", sum(|c| c.arb_hits), "count");
    report.push(
        "core.arb_probe_compile_ms",
        layer("core.arb_probe_compile"),
        "ms",
    );
    report.push("core.arb_probe_sim_ms", layer("core.arb_probe_sim"), "ms");
    report.push("core.compile_coco_ms", layer("core.compile_coco"), "ms");
    report.push(
        "core.coco_registers_optimized",
        sum(|c| c.coco_registers_optimized),
        "count",
    );
    report.push("core.coco_fallbacks", sum(|c| c.coco_fallbacks), "count");
    report.push("core.verify_ms", layer("core.verify"), "ms");
    report.push(
        "core.verify_violations",
        sum(|c| c.verify_violations),
        "count",
    );
    report.push("mtcg.compile_base_ms", layer("mtcg.compile_base"), "ms");
    report.push("mtcg.queues_base", sum(|c| c.queues_base), "count");
    report.push("mtcg.queues_coco", sum(|c| c.queues_coco), "count");
    let sim_ms = med(&|p: &TracedPass| p.ms("sim.seq") + p.ms("sim.mt"));
    let steps = first.counters.iter().map(|c| c.engine_steps).sum::<u64>() as f64;
    report.push("sim.seq_ms", layer("sim.seq"), "ms");
    report.push("sim.mt_ms", layer("sim.mt"), "ms");
    report.push("sim.cycles", sum(|c| c.cycles), "count");
    report.push("sim.engine_steps", Some(steps), "count");
    report.push("sim.skipped_cycles", sum(|c| c.skipped_cycles), "count");
    report.push(
        "sim.host_ns_per_step",
        sim_ms.map(|ms| ms * 1e6 / steps),
        "ns",
    );
    report.push(
        "sim.minstr_per_s",
        sim_ms.map(|ms| first.seq_instrs_simulated as f64 / (ms * 1e3)),
        "Minstr/s",
    );
    report.push("harness.cell_ms", layer("harness.cell"), "ms");
    report.push(
        "harness.remainder_ms",
        med(&|p: &TracedPass| p.remainder_ms),
        "ms",
    );
    report.push(
        "harness.trace_overhead_ms",
        med(&|p: &TracedPass| p.ms("harness.cell") - p.untraced_ms),
        "ms",
    );
    report.log.push(format!(
        "{} traced passes (each after an untraced serial pass)",
        passes.len()
    ));
    growth_table(pop, &first.rec, report);
    report.spans_jsonl = passes
        .pop()
        .expect("at least one traced pass")
        .rec
        .to_json_lines();
}

/// `synth-scale` only: per-program compile-layer times against static
/// size, and each layer's fitted growth order.
fn growth_table(pop: &Population, rec: &Recorder, report: &mut Report) {
    if pop.workloads.iter().all(|w| w.suite != "synthetic") {
        return;
    }
    const LAYERS: [&str; 3] = ["pdg.build", "sched.gremio_candidates", "core.compile_coco"];
    let mut rows: Vec<(f64, [f64; 3])> = Vec::new();
    for (i, &(w, kind)) in pop.cells.iter().enumerate() {
        if kind != SchedulerKind::Gremio {
            continue;
        }
        let ms = LAYERS.map(|name| {
            rec.spans()
                .iter()
                .filter(|s| s.cell == i && s.name == name)
                .map(|s| s.dur_ns())
                .sum::<u64>() as f64
                / 1e6
        });
        rows.push((pop.workloads[w].function.all_instrs().count() as f64, ms));
    }
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    report.log.push(format!(
        "growth (GREMIO cells): static_instrs {}",
        LAYERS.map(|l| format!("{l}_ms")).join(" ")
    ));
    for (n, ms) in &rows {
        report.log.push(format!(
            "growth {n:>5} {:>10.3} {:>10.3} {:>10.3}",
            ms[0], ms[1], ms[2]
        ));
    }
    for (k, name) in LAYERS.iter().enumerate() {
        let pts: Vec<(f64, f64)> = rows.iter().map(|(n, ms)| (*n, ms[k])).collect();
        let order =
            stats::growth_order(&pts).map_or_else(|| "n/a".to_string(), |o| format!("{o:.2}"));
        report
            .log
            .push(format!("growth order {name}: ms ~ static_instrs^{order}"));
    }
}
