//! Experiment drivers that regenerate every table and figure of the
//! paper's evaluation (§4): Figure 1 (communication breakdown under
//! baseline MTCG), Figure 6 (machine and benchmark tables), Figure 7
//! (relative dynamic communication after COCO), and Figure 8 (speedup
//! over single-threaded execution without and with COCO).
//!
//! Each measured program runs once. An untimed evaluation (Figures 1
//! and 7 alone) runs it on the functional interpreters, which supply
//! the dynamic instruction counts. A timed evaluation (Figure 8, and
//! every figure of `--fig all`) runs it on the `gmt-sim` machine model
//! only, which supplies the cycle counts and — from its per-core issue
//! counters, split the same three ways — the dynamic instruction
//! counts. Either way each variant's return value and output trace
//! must match the sequential run's. Profiles are always collected on
//! *train* inputs and measurements on *ref* inputs. GREMIO's partition
//! arbitration already simulates the chosen MTCG+COCO program on the
//! train input, so a timed measurement on that input (`--quick`) takes
//! it from there instead of running it again.
//!
//! The experiment matrix is embarrassingly parallel, so [`run_all`]
//! fans the per-benchmark evaluations out over the
//! [`gmt_testkit::par_map`] worker pool (`GMT_JOBS` workers, default
//! available parallelism). Results come back in catalog order, so the
//! rendered figures are byte-identical to a serial run. A failing
//! workload produces a [`HarnessError`] naming the benchmark and the
//! phase that failed; the remaining rows of the figure still print.
//!
//! Each evaluation also records per-run observability — wall-clock
//! time, dynamic-instruction and cycle counts, and compile-phase
//! timings (PDG build, partition, COCO, MTCG) — as [`RunMetrics`],
//! emitted as JSON-lines by `repro --metrics`.
//!
//! The `repro` binary prints any of the figures:
//!
//! ```text
//! repro --fig 7            # Figure 7 rows
//! repro --fig all --quick  # everything, at reduced input sizes
//! repro --metrics --quick  # per-run JSON-lines + summary table
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gmt_core::{CocoConfig, Parallelized, Parallelizer, ScheduleCache, Scheduler};
use gmt_ir::interp::DynCounts;
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_pdg::{Partition, Pdg};
use gmt_sim::{simulate, MachineConfig, SimResult};
use gmt_workloads::{catalog, exec_config, Workload};
use std::time::Instant;

pub use explain::{
    explain_cell, explain_json, explain_report, verdict, ExplainCell, EXPLAIN_TOP_K,
};
pub use metrics::{metrics_table, stall_table, RunMetrics, StallBreakdown};
pub use verify::{verify_matrix, verify_pair, verify_table, VerifyCell};
pub use trace_report::{
    comm_attribution_table, queue_comm_table, trace_cell, TracedCell, TRACE_RING_CAPACITY,
};

/// Which partitioner an experiment uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// GREMIO with single-element queues.
    Gremio,
    /// DSWP with 32-element queues.
    Dswp,
}

impl SchedulerKind {
    /// The scheduler configuration for two threads.
    pub fn scheduler(self) -> Scheduler {
        self.scheduler_n(2)
    }

    /// The scheduler configuration for `n` threads.
    pub fn scheduler_n(self, n: u32) -> Scheduler {
        match self {
            SchedulerKind::Gremio => Scheduler::gremio(n),
            SchedulerKind::Dswp => Scheduler::dswp(n),
        }
    }

    /// Queue depth per the paper (§4: single-element queues in the SA;
    /// 32-element queues for DSWP).
    pub fn queue_depth(self) -> usize {
        match self {
            SchedulerKind::Gremio => 1,
            SchedulerKind::Dswp => 32,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Gremio => "GREMIO",
            SchedulerKind::Dswp => "DSWP",
        }
    }
}

/// A failure of one benchmark's evaluation: which benchmark, in which
/// phase, and the underlying error rendered as text.
///
/// One failing kernel must not abort a whole figure, so every
/// fallible step of [`evaluate`] maps into this type instead of
/// panicking; [`run_all`] returns it per-slot and the figure renderers
/// print a failure line in the benchmark's row position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarnessError {
    /// The benchmark whose evaluation failed.
    pub benchmark: &'static str,
    /// The phase that failed (e.g. `"train run"`, `"timed MTCG sim"`).
    pub phase: &'static str,
    /// The underlying error, rendered.
    pub source: String,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} failed: {}", self.benchmark, self.phase, self.source)
    }
}

impl std::error::Error for HarnessError {}

/// `map_err` adapter tagging an error with its benchmark and phase.
fn fail<E: std::fmt::Display>(
    benchmark: &'static str,
    phase: &'static str,
) -> impl FnOnce(E) -> HarnessError {
    move |e| HarnessError { benchmark, phase, source: e.to_string() }
}

/// Dynamic results of one parallelized variant of one kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct VariantResult {
    /// Dynamic instruction counts, summed over threads.
    pub counts: DynCounts,
    /// Cycle count from the machine model (0 if not timed).
    pub cycles: u64,
}

/// The full measurement of one kernel under one scheduler.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name (Figure 6b).
    pub benchmark: &'static str,
    /// Sequential dynamic instructions on the measured input.
    pub seq_instrs: u64,
    /// Sequential cycle count (0 if not timed).
    pub seq_cycles: u64,
    /// Baseline MTCG.
    pub mtcg: VariantResult,
    /// MTCG + COCO.
    pub coco: VariantResult,
}

impl BenchResult {
    /// Figure 7's quantity: dynamic communication with COCO relative to
    /// baseline MTCG, in percent (lower is better; 100 = no change).
    pub fn relative_comm_pct(&self) -> f64 {
        let base = self.mtcg.counts.comm_total();
        if base == 0 {
            100.0
        } else {
            self.coco.counts.comm_total() as f64 * 100.0 / base as f64
        }
    }

    /// Figure 8's first bar: MTCG speedup over single-threaded.
    ///
    /// `None` when either side was not timed (cycle count 0) — a mixed
    /// timed/untimed matrix must not fabricate `inf`/`0x` speedups.
    pub fn speedup_mtcg(&self) -> Option<f64> {
        ratio(self.seq_cycles, self.mtcg.cycles)
    }

    /// Figure 8's second bar: MTCG+COCO speedup over single-threaded.
    ///
    /// `None` when either side was not timed (cycle count 0).
    pub fn speedup_coco(&self) -> Option<f64> {
        ratio(self.seq_cycles, self.coco.cycles)
    }

    /// Figure 1's quantity: communication as a percentage of all
    /// dynamic instructions under baseline MTCG.
    pub fn comm_fraction_pct(&self) -> f64 {
        let total = self.mtcg.counts.total();
        if total == 0 {
            0.0
        } else {
            self.mtcg.counts.comm_total() as f64 * 100.0 / total as f64
        }
    }
}

/// `num / den` as a speedup, or `None` when either count is 0 (an
/// untimed run) — guards the accessors against `inf`/NaN.
fn ratio(num: u64, den: u64) -> Option<f64> {
    if num == 0 || den == 0 {
        None
    } else {
        Some(num as f64 / den as f64)
    }
}

/// Input scaling for experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Train-sized inputs everywhere (fast; CI and tests).
    Quick,
    /// Ref inputs (the paper's methodology).
    Full,
}

/// One benchmark's full evaluation: the figure-facing [`BenchResult`]
/// plus the per-variant [`RunMetrics`] observability records.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The figure-facing measurement.
    pub result: BenchResult,
    /// One record per variant (baseline MTCG, then MTCG+COCO).
    pub metrics: Vec<RunMetrics>,
}

/// Candidate-schedule cache statistics of one evaluation's partition
/// arbitration (GREMIO only; zero for DSWP, which arbitrates nothing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArbStats {
    /// Timed candidate evaluations requested.
    pub probes: u64,
    /// Evaluations served from the schedule cache.
    pub hits: u64,
}

/// Evaluates one workload under one scheduler: baseline MTCG and
/// MTCG+COCO, dynamic counts, and (optionally) timed cycles.
///
/// # Errors
///
/// Returns a [`HarnessError`] naming the benchmark and the failing
/// phase if parallelization or execution fails.
pub fn evaluate(
    w: &Workload,
    kind: SchedulerKind,
    timed: bool,
    scale: Scale,
) -> Result<BenchResult, HarnessError> {
    evaluate_full(w, kind, timed, scale).map(|e| e.result)
}

/// [`evaluate`], also returning the per-variant [`RunMetrics`].
///
/// Each program — sequential, baseline MTCG, MTCG+COCO — executes
/// exactly once: through the cycle-level simulator when `timed`
/// (dynamic counts then come from its per-core issue counters), else
/// through the functional interpreters. Either way every variant's
/// return value and output trace must equal the sequential run's.
///
/// When the measured input is the train input (as at [`Scale::Quick`])
/// and GREMIO arbitration already simulated the chosen COCO program on
/// it, that run is the timed COCO run: same program, same input, same
/// machine. It still goes through the output check, and the COCO
/// record's run time is the probe's simulation time.
///
/// # Errors
///
/// Returns a [`HarnessError`] naming the benchmark and the failing
/// phase if parallelization or execution fails, or with phase
/// `"output check"` if a variant's observables differ from the
/// sequential run's.
pub fn evaluate_full(
    w: &Workload,
    kind: SchedulerKind,
    timed: bool,
    scale: Scale,
) -> Result<Evaluation, HarnessError> {
    let b = w.benchmark;
    let train = w.run_train().map_err(fail(b, "train run"))?;
    let args: &[i64] = match scale {
        Scale::Quick => &w.train_args,
        Scale::Full => &w.ref_args,
    };
    let seq = if timed {
        simulate(std::slice::from_ref(&w.function), args, w.init, &machine())
            .map(Run::from)
            .map_err(fail(b, "sequential sim"))?
    } else {
        gmt_ir::interp::run_with_memory(&w.function, args, w.init, &exec_config())
            .map(|r| Run::functional(r.counts, r.return_value, r.output))
            .map_err(fail(b, "sequential run"))?
    };

    let Compiled { base, coco, arb, train_sim, .. } = parallelize_pair(w, kind, &train.profile)?;

    let check = |run: Run, phase: &'static str| -> Result<Run, HarnessError> {
        if (run.return_value, &run.output) != (seq.return_value, &seq.output) {
            return Err(HarnessError {
                benchmark: b,
                phase: "output check",
                source: format!(
                    "{phase}: returned {:?} with {} outputs, sequential returned {:?} with {}",
                    run.return_value,
                    run.output.len(),
                    seq.return_value,
                    seq.output.len()
                ),
            });
        }
        Ok(run)
    };
    let run_variant = |p: &Parallelized, phase: &'static str| -> Result<Run, HarnessError> {
        let t = Instant::now();
        let mut run = if timed {
            simulate(p.threads(), args, w.init, &machine_for(p, kind)).map(Run::from)
        } else {
            let queues = QueueConfig {
                num_queues: p.num_queues().max(1) as usize,
                capacity: kind.queue_depth(),
            };
            run_mt(p.threads(), args, w.init, &queues, &exec_config())
                .map(|r| Run::functional(r.totals(), r.return_value, r.output))
        }
        .map_err(fail(b, phase))?;
        run.ns = t.elapsed().as_nanos() as u64;
        check(run, phase)
    };
    let (mtcg_phase, coco_phase) =
        if timed { ("timed MTCG sim", "timed COCO sim") } else { ("MTCG run", "COCO run") };
    let mtcg = run_variant(&base, mtcg_phase)?;
    let coco_run = match train_sim {
        Some(sim) if timed && args == w.train_args.as_slice() => {
            check(Run { ns: sim.ns, ..Run::from(sim.result) }, coco_phase)?
        }
        _ => run_variant(&coco, coco_phase)?,
    };

    let result = BenchResult {
        benchmark: b,
        seq_instrs: seq.counts.total(),
        seq_cycles: seq.cycles,
        mtcg: VariantResult { counts: mtcg.counts, cycles: mtcg.cycles },
        coco: VariantResult { counts: coco_run.counts, cycles: coco_run.cycles },
    };
    let record = |variant: &'static str, p: &Parallelized, run: &Run, arb: ArbStats| RunMetrics {
        benchmark: b,
        scheduler: kind.name(),
        variant,
        wall_ns: p.timings.total_ns() + run.ns,
        instrs: run.counts.total(),
        cycles: run.cycles,
        timings: p.timings,
        arb_probes: arb.probes,
        arb_hits: arb.hits,
        stalls: run.stalls,
        engine_steps: run.engine_steps,
        skipped_cycles: run.skipped_cycles,
    };
    let metrics = vec![
        record("mtcg", &base, &mtcg, arb),
        record("coco", &coco, &coco_run, ArbStats::default()),
    ];
    Ok(Evaluation { result, metrics })
}

/// One execution of one program, by whichever executor ran it: the
/// observables the output check compares, the dynamic counts, and
/// (simulated runs only) the timing results.
#[derive(Default)]
struct Run {
    counts: DynCounts,
    return_value: Option<i64>,
    output: Vec<i64>,
    cycles: u64,
    stalls: StallBreakdown,
    engine_steps: u64,
    skipped_cycles: u64,
    /// Host time of the execution (set by the caller that timed it).
    ns: u64,
}

impl Run {
    /// A functional-interpreter run: counts and observables, no timing.
    fn functional(counts: DynCounts, return_value: Option<i64>, output: Vec<i64>) -> Run {
        Run { counts, return_value, output, ..Run::default() }
    }
}

impl From<SimResult> for Run {
    fn from(sim: SimResult) -> Run {
        Run {
            counts: sim.counts(),
            cycles: sim.cycles,
            stalls: StallBreakdown::from_cores(&sim.cores),
            engine_steps: sim.engine_steps,
            skipped_cycles: sim.skipped_cycles,
            return_value: sim.return_value,
            output: sim.output,
            ns: 0,
        }
    }
}

/// Everything one (kernel, scheduler) compile produces — what
/// [`evaluate_full`] measures, and what `--verify-mt`, `--trace` and
/// `--explain` inspect.
struct Compiled {
    /// The kernel's PDG, built once for both variants.
    pdg: Pdg,
    /// Baseline MTCG over the chosen partition.
    base: Parallelized,
    /// MTCG+COCO over the same partition.
    coco: Parallelized,
    /// The arbitration's schedule-cache statistics.
    arb: ArbStats,
    /// The COCO program's simulation on `w.train_args`, when GREMIO
    /// arbitration ran it.
    train_sim: Option<ProbeSim>,
}

/// An arbitration probe's timed run on the train input.
struct ProbeSim {
    /// The simulator's result.
    result: SimResult,
    /// Host time of the simulation.
    ns: u64,
}

/// A candidate's COCO compile and its train-input simulation.
struct Probe {
    coco: Parallelized,
    sim: ProbeSim,
}

/// Compiles the (baseline MTCG, MTCG+COCO) pair for one workload and
/// scheduler, both over the same partition and one PDG.
///
/// DSWP uses the analytic partitioner directly; GREMIO picks its
/// partition by [`arbitrate`]. The COCO variant is the winning probe's
/// own compile, and its train-input run comes along; only a partition
/// without a probe of its own (no parallel candidate, or cycles served
/// by a program-key hit) is compiled again.
fn parallelize_pair(
    w: &Workload,
    kind: SchedulerKind,
    profile: &gmt_ir::Profile,
) -> Result<Compiled, HarnessError> {
    let b = w.benchmark;
    let t = Instant::now();
    let pdg = Pdg::build(&w.function);
    let pdg_build_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let (chosen, probe, arb) = match kind {
        SchedulerKind::Dswp => {
            let cfg = gmt_sched::dswp::DswpConfig::default();
            let p = gmt_sched::dswp::partition(&w.function, &pdg, profile, &cfg)
                .map_err(fail(b, "dswp partition"))?;
            (p, None, ArbStats::default())
        }
        SchedulerKind::Gremio => arbitrate(w, kind, profile, &pdg)?,
    };
    let partition_ns = t.elapsed().as_nanos() as u64;

    let mut base = Parallelizer::new(kind.scheduler())
        .parallelize_with_partition(&w.function, profile, &pdg, chosen.clone())
        .map_err(fail(b, "baseline parallelization"))?;
    let (mut coco, train_sim) = match probe {
        Some(Probe { coco, sim }) => (coco, Some(sim)),
        None => {
            let coco = Parallelizer::new(kind.scheduler())
                .with_coco(CocoConfig::default())
                .parallelize_with_partition(&w.function, profile, &pdg, chosen)
                .map_err(fail(b, "coco parallelization"))?;
            (coco, None)
        }
    };
    for p in [&mut base, &mut coco] {
        p.timings.pdg_build_ns = pdg_build_ns;
        p.timings.partition_ns = partition_ns;
    }
    Ok(Compiled { pdg, base, coco, arb, train_sim })
}

/// GREMIO's partition choice. The candidates' real throughput depends
/// on queue round-trips the analytic score cannot see, so they are
/// arbitrated by *timed runs of the generated (COCO) code on the train
/// input*: profile-guided partition selection, with the
/// single-threaded fallback guaranteeing the partitioner never
/// degrades the program. A candidate that fails to compile or simulate
/// simply loses the arbitration (probe cost `u64::MAX`); only a failure
/// on the *chosen* partition surfaces, later, as an error.
///
/// Probe results are memoized in a [`ScheduleCache`], so the guard's
/// re-probe of the winner (and any candidates that compile to
/// identical decoded code) skip the recompile and resimulation; the
/// returned [`ArbStats`] report the cache's probe/hit counts. Only the
/// running winner's and the fallback's [`Probe`]s are kept: a loser's
/// compile and run are dropped as soon as it loses.
fn arbitrate(
    w: &Workload,
    kind: SchedulerKind,
    profile: &gmt_ir::Profile,
    pdg: &Pdg,
) -> Result<(Partition, Option<Probe>, ArbStats), HarnessError> {
    let cfg = gmt_sched::gremio::GremioConfig::default();
    let candidates = gmt_sched::gremio::candidates(&w.function, pdg, profile, &cfg)
        .map_err(fail(w.benchmark, "gremio candidate enumeration"))?;
    // GREMIO's own schedule: the analytically best genuinely-parallel
    // candidate ("genuinely" = the lighter thread owns a meaningful
    // share of the code, not a token offload).
    let block_weights = profile.block_weights(&w.function);
    let meaningful = |p: &Partition| {
        let sizes = p.dynamic_sizes(|i| block_weights[w.function.block_of(i).index()].max(1));
        let total: u64 = sizes.iter().sum();
        sizes.iter().filter(|&&s| s > 0).count() > 1
            && sizes.iter().min().copied().unwrap_or(0) * 10 >= total
    };
    // Timed arbitration probe: the candidate's cycles, and its compile
    // and run when this probe made them. Memoized two ways — by
    // partition assignment, and by the structural hash of the
    // generated decoded program mixed with the machine knobs that
    // affect timing.
    let mut cache = ScheduleCache::new();
    let mut cycles_probe = |partition: &Partition| -> (u64, Option<Probe>) {
        let pkey = gmt_core::partition_key(&w.function, partition);
        if let Some(cycles) = cache.probe_partition(&pkey) {
            return (cycles, None);
        }
        let Ok(coco) = Parallelizer::new(kind.scheduler())
            .with_coco(CocoConfig::default())
            .parallelize_with_partition(&w.function, profile, pdg, partition.clone())
        else {
            cache.record_partition(pkey, u64::MAX);
            return (u64::MAX, None);
        };
        let machine = machine_for(&coco, kind);
        let Ok(program) = gmt_ir::decoded::DecodedProgram::decode(coco.threads()) else {
            cache.record_partition(pkey, u64::MAX);
            return (u64::MAX, None);
        };
        let mut knobs = vec![machine.sa.num_queues as u64];
        knobs.extend(machine.sa.depths.iter().map(|&d| d as u64));
        let gkey = gmt_core::program_key(program.structural_hash(), &knobs);
        if let Some(cycles) = cache.probe_program(gkey) {
            cache.record_partition(pkey, cycles);
            return (cycles, None);
        }
        let t = Instant::now();
        let sim = gmt_sim::simulate_decoded(&program, &w.train_args, w.init, &machine);
        let ns = t.elapsed().as_nanos() as u64;
        let cycles = sim.as_ref().map_or(u64::MAX, |r| r.cycles);
        cache.record(pkey, gkey, cycles);
        (cycles, sim.ok().map(|result| Probe { coco, sim: ProbeSim { result, ns } }))
    };
    // The first candidate with the fewest cycles wins.
    let mut best: Option<(u64, &Partition, Option<Probe>)> = None;
    for (_, p) in candidates.iter().filter(|(_, p)| meaningful(p)) {
        let (cycles, probe) = cycles_probe(p);
        if best.as_ref().is_none_or(|&(c, ..)| cycles < c) {
            best = Some((cycles, p, probe));
        }
    }
    // Arbitrate against the true single-threaded layout, not a
    // token-offload candidate.
    let mut single = Partition::new(2);
    for i in w.function.all_instrs() {
        single.assign(i, gmt_pdg::ThreadId(0));
    }
    // Timed arbitration on the train input: keep the parallel schedule
    // unless it clearly loses (>10% slower) to running single-threaded
    // — the partitioner must never degrade the program. The guard
    // re-probes the winner through the cache (a partition hit) before
    // probing the fallback.
    let (chosen, probe) = match best {
        Some((_, mt, mt_probe)) => {
            let (mt_cycles, _) = cycles_probe(mt);
            let (single_cycles, single_probe) = cycles_probe(&single);
            if mt_cycles as f64 <= single_cycles as f64 * 1.10 {
                (mt.clone(), mt_probe)
            } else {
                (single, single_probe)
            }
        }
        None => (single, None),
    };
    let arb = ArbStats { probes: cache.probes(), hits: cache.hits() };
    Ok((chosen, probe, arb))
}

/// The default machine with its cycle budget set to the workload
/// interpreter's step budget: timed cells run no functional pass, so a
/// runaway program must stop on this bound, not on the simulator's
/// 2-billion-cycle default.
fn machine() -> MachineConfig {
    MachineConfig { max_cycles: exec_config().max_steps, ..MachineConfig::default() }
}

fn machine_for(p: &Parallelized, kind: SchedulerKind) -> MachineConfig {
    let mut m = machine().with_queue_depth(kind.queue_depth());
    // Queue allocation (footnote 1 of the paper) is not implemented, so
    // size the SA to the plan when it needs more than 256 queues.
    if p.num_queues() as usize > m.sa.num_queues {
        m.sa.num_queues = p.num_queues() as usize;
    }
    m
}

/// Runs a whole figure's worth of measurements on the worker pool
/// (`GMT_JOBS` workers, default available parallelism), in catalog
/// order. A failing benchmark yields an `Err` in its slot; the
/// remaining benchmarks still complete.
pub fn run_all(
    kind: SchedulerKind,
    timed: bool,
    scale: Scale,
) -> Vec<Result<BenchResult, HarnessError>> {
    run_all_jobs(kind, timed, scale, gmt_testkit::num_jobs())
}

/// [`run_all`] with an explicit worker count (1 = serial in-thread).
pub fn run_all_jobs(
    kind: SchedulerKind,
    timed: bool,
    scale: Scale,
    jobs: usize,
) -> Vec<Result<BenchResult, HarnessError>> {
    run_workloads(catalog(), kind, timed, scale, jobs)
        .into_iter()
        .map(|r| r.map(|e| e.result))
        .collect()
}

/// Full evaluations (results + metrics) for the whole catalog, on
/// `jobs` workers.
pub fn run_all_metrics(
    kind: SchedulerKind,
    timed: bool,
    scale: Scale,
    jobs: usize,
) -> Vec<Result<Evaluation, HarnessError>> {
    run_workloads(catalog(), kind, timed, scale, jobs)
}

/// Evaluates an explicit workload list on `jobs` workers, preserving
/// input order. The building block behind [`run_all`]; public so
/// tests can inject synthetically failing workloads.
pub fn run_workloads(
    workloads: Vec<Workload>,
    kind: SchedulerKind,
    timed: bool,
    scale: Scale,
    jobs: usize,
) -> Vec<Result<Evaluation, HarnessError>> {
    gmt_testkit::par_map(workloads, jobs, |_i, w| evaluate_full(&w, kind, timed, scale))
}

/// The multi-thread extension study (the paper's conclusion: "we expect
/// the benefits from COCO to be more pronounced when more threads are
/// generated"): per benchmark, the communication fraction under
/// baseline MTCG and the COCO reduction, as the thread count grows.
///
/// # Errors
///
/// Returns a [`HarnessError`] naming the benchmark and failing phase.
pub fn thread_scaling(
    w: &Workload,
    kind: SchedulerKind,
    threads: &[u32],
) -> Result<Vec<ScalingPoint>, HarnessError> {
    let b = w.benchmark;
    let train = w.run_train().map_err(fail(b, "train run"))?;
    let pdg = Pdg::build(&w.function);
    threads
        .iter()
        .map(|&n| {
            let base = Parallelizer::new(kind.scheduler_n(n))
                .parallelize(&w.function, &train.profile)
                .map_err(fail(b, "baseline parallelization"))?;
            let coco = Parallelizer::new(kind.scheduler_n(n))
                .with_coco(CocoConfig::default())
                .parallelize_with_partition(
                    &w.function,
                    &train.profile,
                    &pdg,
                    base.partition.clone(),
                )
                .map_err(fail(b, "coco parallelization"))?;
            let run = |p: &Parallelized| {
                run_mt(
                    p.threads(),
                    &w.train_args,
                    w.init,
                    &QueueConfig {
                        num_queues: p.num_queues().max(1) as usize,
                        capacity: kind.queue_depth().max(8),
                    },
                    &exec_config(),
                )
                .map(|r| r.totals())
                .map_err(fail(b, "mt run"))
            };
            let bt = run(&base)?;
            let c = run(&coco)?;
            Ok(ScalingPoint {
                threads: n,
                mtcg_comm: bt.comm_total(),
                coco_comm: c.comm_total(),
                comm_fraction_pct: bt.comm_total() as f64 * 100.0 / bt.total().max(1) as f64,
            })
        })
        .collect()
}

/// One point of the thread-scaling study.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Thread count.
    pub threads: u32,
    /// Dynamic communication under baseline MTCG.
    pub mtcg_comm: u64,
    /// Dynamic communication under MTCG+COCO.
    pub coco_comm: u64,
    /// Communication share of all dynamic instructions (baseline).
    pub comm_fraction_pct: f64,
}

/// Geometric mean (used for speedup averages).
pub fn geo_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean (used for reduction averages, like the paper's
/// "average reduction of 34.4%").
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub mod explain;
pub mod figures;
mod metrics;
pub mod trace_report;
mod verify;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert!((mean([1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert!((geo_mean([1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(std::iter::empty()), 0.0);
        assert_eq!(geo_mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn evaluate_one_quick() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let r = evaluate(&w, SchedulerKind::Gremio, false, Scale::Quick).expect("evaluates");
        assert!(r.mtcg.counts.total() > 0);
        assert!(r.relative_comm_pct() <= 100.0);
    }

    #[test]
    fn evaluate_timed_quick() {
        let w = gmt_workloads::by_benchmark("adpcmdec").unwrap();
        let r = evaluate(&w, SchedulerKind::Dswp, true, Scale::Quick).expect("evaluates");
        assert!(r.seq_cycles > 0);
        assert!(r.mtcg.cycles > 0);
        assert!(r.coco.cycles > 0);
        assert!(r.speedup_mtcg().is_some());
    }

    #[test]
    fn untimed_speedups_are_none_not_inf() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let r = evaluate(&w, SchedulerKind::Dswp, false, Scale::Quick).expect("evaluates");
        assert_eq!(r.seq_cycles, 0);
        assert_eq!(r.speedup_mtcg(), None);
        assert_eq!(r.speedup_coco(), None);
        // A mixed timed/untimed result must not fabricate a speedup
        // either direction.
        let mut mixed = r.clone();
        mixed.seq_cycles = 1000;
        assert_eq!(mixed.speedup_mtcg(), None, "untimed variant, timed seq");
    }

    #[test]
    fn metrics_record_phases_and_wall_clock() {
        let w = gmt_workloads::by_benchmark("adpcmdec").unwrap();
        let e = evaluate_full(&w, SchedulerKind::Dswp, true, Scale::Quick).expect("evaluates");
        assert_eq!(e.metrics.len(), 2);
        let (m, c) = (&e.metrics[0], &e.metrics[1]);
        assert_eq!((m.variant, c.variant), ("mtcg", "coco"));
        assert_eq!(m.scheduler, "DSWP");
        assert!(m.wall_ns > 0 && c.wall_ns > 0);
        assert!(m.instrs > 0 && m.cycles > 0);
        assert!(m.timings.mtcg_ns > 0, "MTCG codegen was timed");
        assert_eq!(m.timings.coco_ns, 0, "baseline variant runs no COCO");
        assert!(c.timings.coco_ns > 0, "COCO variant times the optimizer");
        assert!(m.timings.pdg_build_ns > 0 && m.timings.partition_ns > 0);
    }

    /// Every quick GREMIO cell carries its COCO program's train-input
    /// run out of arbitration, and that run is observably the run a
    /// fresh simulation of the compiled COCO program would give.
    #[test]
    fn reused_coco_run_equals_fresh_simulation() {
        for w in catalog() {
            let train = w.run_train().expect("train run");
            let c = parallelize_pair(&w, SchedulerKind::Gremio, &train.profile).expect("compiles");
            let reused = c.train_sim.expect("the chosen partition was probed").result;
            let machine = machine_for(&c.coco, SchedulerKind::Gremio);
            let fresh = simulate(c.coco.threads(), &w.train_args, w.init, &machine).expect("sim");
            let b = w.benchmark;
            assert_eq!(reused.cycles, fresh.cycles, "{b}: cycles");
            assert_eq!(reused.counts(), fresh.counts(), "{b}: counts");
            assert_eq!(reused.cores, fresh.cores, "{b}: per-core stats");
            assert_eq!(reused.engine_steps, fresh.engine_steps, "{b}: engine steps");
            assert_eq!(reused.skipped_cycles, fresh.skipped_cycles, "{b}: skipped cycles");
            assert_eq!(reused.output, fresh.output, "{b}: output");
            assert_eq!(reused.return_value, fresh.return_value, "{b}: return value");
        }
    }

    /// DSWP's one-PDG path compiles what two `Parallelizer::parallelize`
    /// calls (one PDG build and partition each) would.
    #[test]
    fn dswp_one_pdg_matches_parallelize() {
        for w in catalog() {
            let train = w.run_train().expect("train run");
            let c = parallelize_pair(&w, SchedulerKind::Dswp, &train.profile).expect("compiles");
            let base = Parallelizer::new(SchedulerKind::Dswp.scheduler());
            let coco = base.clone().with_coco(CocoConfig::default());
            for (got, par) in [(&c.base, base), (&c.coco, coco)] {
                let want = par.parallelize(&w.function, &train.profile).expect("parallelizes");
                let hash = |p: &Parallelized| {
                    gmt_ir::decoded::DecodedProgram::decode(p.threads())
                        .expect("decodes")
                        .structural_hash()
                };
                let b = w.benchmark;
                assert_eq!(
                    gmt_core::partition_key(&w.function, &got.partition),
                    gmt_core::partition_key(&w.function, &want.partition),
                    "{b}: partition"
                );
                assert_eq!(hash(got), hash(&want), "{b}: decoded program");
                assert_eq!(got.queue_depths, want.queue_depths, "{b}: queue depths");
            }
        }
    }

    #[test]
    fn gremio_metrics_patch_shared_phases() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let e = evaluate_full(&w, SchedulerKind::Gremio, false, Scale::Quick).expect("evaluates");
        for m in &e.metrics {
            assert!(m.timings.pdg_build_ns > 0, "{}: pdg phase recorded", m.variant);
            assert!(m.timings.partition_ns > 0, "{}: partition phase recorded", m.variant);
        }
    }
}
