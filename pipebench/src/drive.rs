//! The traced re-drive: runs one `evaluate_full` cell by
//! calling each crate's public functions in the order `evaluate_full`
//! calls them, with a span around every call, then checks the outputs.
//!
//! GREMIO's timed arbitration (`parallelize_pair`) is private to
//! `gmt-harness`, so it is mirrored here from public calls, including
//! the `ScheduleCache` memoization. [`drive_cell`] then demands that
//! the mirror reproduces the untraced `BenchResult` exactly, so the
//! spans time the same schedule the benchmark reports.

use crate::spans::Recorder;
use gmt_core::{
    partition_key, program_key, CocoConfig, Parallelized, Parallelizer, ScheduleCache, Scheduler,
};
use gmt_harness::{BenchResult, Scale, SchedulerKind};
use gmt_ir::decoded::DecodedProgram;
use gmt_ir::interp::{run_with_memory, run_with_memory_reference, DynCounts, RunResult};
use gmt_ir::interp_mt::{run_mt_decoded, MtRunResult, QueueConfig};
use gmt_ir::Function;
use gmt_pdg::{Partition, Pdg, ThreadId};
use gmt_sim::{simulate_decoded, MachineConfig, SimResult};
use gmt_workloads::{exec_config, Workload};

/// Deterministic work counts of one cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Sequential dynamic instructions (measured input).
    pub seq_dyn_instrs: u64,
    /// Dynamic instructions of both MT variants, summed over threads.
    pub mt_dyn_instrs: u64,
    /// Static instructions of the program.
    pub static_instrs: u64,
    /// PDG dependence edges.
    pub pdg_deps: u64,
    /// GREMIO candidate partitions enumerated.
    pub gremio_candidates: u64,
    /// Timed arbitration probes requested.
    pub arb_probes: u64,
    /// Probes served from the schedule cache.
    pub arb_hits: u64,
    /// Register items COCO optimized with a finite cut.
    pub coco_registers_optimized: u64,
    /// Register items and memory deps COCO left at the MTCG placement.
    pub coco_fallbacks: u64,
    /// `verify_mt` violations over both variants.
    pub verify_violations: u64,
    /// Queues of the baseline MTCG code.
    pub queues_base: u64,
    /// Queues of the MTCG+COCO code.
    pub queues_coco: u64,
    /// Simulated cycles: sequential + both variants.
    pub cycles: u64,
    /// Engine main-loop steps of those three simulations.
    pub engine_steps: u64,
    /// Cycles the engine fast-forwarded over in them.
    pub skipped_cycles: u64,
}

/// What the traced re-drive measured for one cell.
#[derive(Clone, Debug)]
pub struct Traced {
    /// The figure-facing result, rebuilt from the traced calls.
    pub result: BenchResult,
    /// Work counts.
    pub counters: Counters,
    /// `partition_key` of the partition both variants were built on.
    pub partition_key: Vec<u32>,
    /// Wall ns of the cell not covered by a top-level span.
    pub remainder_ns: u64,
}

/// Re-drives `w` under `kind` with spans into `rec`, then checks
/// conservation, identity with `untraced` (the `BenchResult` the
/// harness returned for this cell), output equality with the reference
/// interpreter for both variants, and `verify_mt` at the allocated
/// queue depths. Returns the trace and every check that failed.
///
/// # Errors
///
/// The first failing call, named by its layer.
pub fn drive_cell(
    w: &Workload,
    kind: SchedulerKind,
    scale: Scale,
    untraced: &BenchResult,
    rec: &mut Recorder,
) -> Result<(Traced, Vec<String>), String> {
    let root_span = rec.spans().len();
    let mirror = rec.span("harness.cell", |rec| mirror_cell(w, kind, scale, rec))?;
    let mut failures = Vec::new();
    let remainder_ns = rec.check_cell(root_span).unwrap_or_else(|e| {
        failures.push(format!("conservation: {e}"));
        0
    });
    let mut counters = mirror.counters;
    let args = scale_args(w, scale);
    rec.span("harness.check", |rec| {
        let reference = rec.span("ir.reference", |_| {
            run_with_memory_reference(&w.function, args, w.init, &exec_config())
        });
        match reference {
            Ok(reference) => {
                let (seq, base, coco) = (&mirror.seq, &mirror.base_run, &mirror.coco_run);
                let runs = [
                    (
                        "sequential",
                        seq.return_value,
                        &seq.output,
                        seq.memory.cells(),
                    ),
                    ("MTCG", base.return_value, &base.output, base.memory.cells()),
                    (
                        "MTCG+COCO",
                        coco.return_value,
                        &coco.output,
                        coco.memory.cells(),
                    ),
                ];
                for (label, ret, output, memory) in runs {
                    if let Some(e) = differs(&reference, ret, output, memory) {
                        failures.push(format!("{label} vs reference: {e}"));
                    }
                }
            }
            Err(e) => failures.push(format!("reference run: {e}")),
        }
        for (label, p) in [("MTCG", &mirror.base), ("MTCG+COCO", &mirror.coco)] {
            let violations = rec.span("core.verify", |_| {
                gmt_core::verify_mt(
                    &w.function,
                    &p.partition,
                    &mirror.pdg,
                    &p.output,
                    &p.queue_depths,
                )
            });
            counters.verify_violations += violations.len() as u64;
            if let Some(v) = violations.first() {
                failures.push(format!(
                    "verify_mt({label}) at depths {:?}: {} violations, first {v:?}",
                    p.queue_depths,
                    violations.len()
                ));
            }
        }
    });
    if let Some(e) = identity(untraced, &mirror.result) {
        failures.push(format!("traced run differs from evaluate_full: {e}"));
    }
    Ok((
        Traced {
            result: mirror.result,
            counters,
            partition_key: mirror.partition_key,
            remainder_ns,
        },
        failures,
    ))
}

/// Everything the mirror produced that the checks need.
struct Mirror {
    result: BenchResult,
    counters: Counters,
    partition_key: Vec<u32>,
    pdg: Pdg,
    base: Parallelized,
    coco: Parallelized,
    seq: RunResult,
    base_run: MtRunResult,
    coco_run: MtRunResult,
}

fn scale_args(w: &Workload, scale: Scale) -> &[i64] {
    match scale {
        Scale::Quick => &w.train_args,
        Scale::Full => &w.ref_args,
    }
}

/// `evaluate_full(w, kind, timed = true, scale)`, call for call, with a
/// top-level span around each call.
fn mirror_cell(
    w: &Workload,
    kind: SchedulerKind,
    scale: Scale,
    rec: &mut Recorder,
) -> Result<Mirror, String> {
    let f = &w.function;
    let train = rec
        .span("ir.train_profile", |_| w.run_train())
        .map_err(|e| format!("train run: {e}"))?;
    let profile = &train.profile;
    let args = scale_args(w, scale);
    let seq = rec
        .span("ir.seq_run", |_| {
            run_with_memory(f, args, w.init, &exec_config())
        })
        .map_err(|e| format!("sequential run: {e}"))?;

    let mut counters = Counters {
        seq_dyn_instrs: seq.counts.total(),
        static_instrs: f.all_instrs().count() as u64,
        ..Counters::default()
    };
    let (pdg, base, coco) = match kind {
        SchedulerKind::Dswp => parallelize_dswp(f, profile, rec)?,
        SchedulerKind::Gremio => parallelize_gremio(w, profile, rec, &mut counters)?,
    };
    counters.pdg_deps = pdg.deps().len() as u64;
    counters.queues_base = u64::from(base.num_queues());
    counters.queues_coco = u64::from(coco.num_queues());
    if let Some(s) = coco.coco_stats {
        counters.coco_registers_optimized = s.registers_optimized as u64;
        counters.coco_fallbacks = (s.register_fallbacks + s.memory_fallbacks) as u64;
    }

    let base_run = mt_run(w, &base, kind, args, rec).map_err(|e| format!("MTCG run: {e}"))?;
    let coco_run = mt_run(w, &coco, kind, args, rec).map_err(|e| format!("COCO run: {e}"))?;

    let seq_sim = timed_sim(
        w,
        std::slice::from_ref(f),
        &MachineConfig::default(),
        args,
        "sim.seq",
        rec,
    )
    .map_err(|e| format!("sequential sim: {e}"))?;
    let base_sim = timed_sim(
        w,
        base.threads(),
        &machine_for(&base, kind),
        args,
        "sim.mt",
        rec,
    )
    .map_err(|e| format!("timed MTCG sim: {e}"))?;
    let coco_sim = timed_sim(
        w,
        coco.threads(),
        &machine_for(&coco, kind),
        args,
        "sim.mt",
        rec,
    )
    .map_err(|e| format!("timed COCO sim: {e}"))?;
    for s in [&seq_sim, &base_sim, &coco_sim] {
        counters.cycles += s.cycles;
        counters.engine_steps += s.engine_steps;
        counters.skipped_cycles += s.skipped_cycles;
    }

    let result = BenchResult {
        benchmark: w.benchmark,
        seq_instrs: seq.counts.total(),
        seq_cycles: seq_sim.cycles,
        mtcg: gmt_harness::VariantResult {
            counts: base_run.totals(),
            cycles: base_sim.cycles,
        },
        coco: gmt_harness::VariantResult {
            counts: coco_run.totals(),
            cycles: coco_sim.cycles,
        },
    };
    counters.mt_dyn_instrs = result.mtcg.counts.total() + result.coco.counts.total();
    let partition_key = partition_key(f, &base.partition);
    Ok(Mirror {
        result,
        counters,
        partition_key,
        pdg,
        base,
        coco,
        seq,
        base_run,
        coco_run,
    })
}

type Pair = (Pdg, Parallelized, Parallelized);

/// DSWP: `Parallelizer::parallelize` once per variant, which builds the
/// PDG and partitions each time.
fn parallelize_dswp(
    f: &Function,
    profile: &gmt_ir::Profile,
    rec: &mut Recorder,
) -> Result<Pair, String> {
    let kind = SchedulerKind::Dswp;
    let Scheduler::Dswp(cfg) = kind.scheduler() else {
        unreachable!("SchedulerKind::Dswp configures DSWP")
    };
    let variant = |rec: &mut Recorder, coco: bool| -> Result<(Pdg, Parallelized), String> {
        let pdg = rec.span("pdg.build", |_| Pdg::build(f));
        let partition = rec
            .span("sched.dswp_partition", |_| {
                gmt_sched::dswp::partition(f, &pdg, profile, &cfg)
            })
            .map_err(|e| format!("dswp partition: {e}"))?;
        let p = if coco {
            rec.span("core.compile_coco", |_| {
                Parallelizer::new(kind.scheduler())
                    .with_coco(CocoConfig::default())
                    .parallelize_with_partition(f, profile, &pdg, partition)
            })
        } else {
            rec.span("mtcg.compile_base", |_| {
                Parallelizer::new(kind.scheduler())
                    .parallelize_with_partition(f, profile, &pdg, partition)
            })
        };
        Ok((
            pdg,
            p.map_err(|e| format!("parallelization (coco={coco}): {e}"))?,
        ))
    };
    let (pdg, base) = variant(rec, false)?;
    let (_, coco) = variant(rec, true)?;
    Ok((pdg, base, coco))
}

/// GREMIO: candidate enumeration, timed arbitration on the train input
/// (mirroring `gmt_harness`'s private `parallelize_pair`), then both
/// variants on the chosen partition over one PDG.
fn parallelize_gremio(
    w: &Workload,
    profile: &gmt_ir::Profile,
    rec: &mut Recorder,
    counters: &mut Counters,
) -> Result<Pair, String> {
    let kind = SchedulerKind::Gremio;
    let f = &w.function;
    let pdg = rec.span("pdg.build", |_| Pdg::build(f));
    let cfg = gmt_sched::gremio::GremioConfig::default();
    let candidates = rec
        .span("sched.gremio_candidates", |_| {
            gmt_sched::gremio::candidates(f, &pdg, profile, &cfg)
        })
        .map_err(|e| format!("gremio candidate enumeration: {e}"))?;
    counters.gremio_candidates = candidates.len() as u64;

    let chosen = rec.span("core.arb", |rec| {
        let block_weights = profile.block_weights(f);
        let meaningful = |p: &Partition| {
            let sizes = p.dynamic_sizes(|i| block_weights[f.block_of(i).index()].max(1));
            let total: u64 = sizes.iter().sum();
            sizes.iter().filter(|&&s| s > 0).count() > 1
                && sizes.iter().min().copied().unwrap_or(0) * 10 >= total
        };
        let mut cache = ScheduleCache::new();
        let mut probe = |rec: &mut Recorder, partition: &Partition| -> u64 {
            let pkey = partition_key(f, partition);
            if let Some(cycles) = cache.probe_partition(&pkey) {
                return cycles;
            }
            let compiled = rec.span("core.arb_probe_compile", |_| {
                Parallelizer::new(kind.scheduler())
                    .with_coco(CocoConfig::default())
                    .parallelize_with_partition(f, profile, &pdg, partition.clone())
            });
            let Ok(coco) = compiled else {
                cache.record_partition(pkey, u64::MAX);
                return u64::MAX;
            };
            let machine = machine_for(&coco, kind);
            let Ok(program) = rec.span("ir.decode", |_| DecodedProgram::decode(coco.threads()))
            else {
                cache.record_partition(pkey, u64::MAX);
                return u64::MAX;
            };
            let mut knobs = vec![machine.sa.num_queues as u64];
            knobs.extend(machine.sa.depths.iter().map(|&d| d as u64));
            let gkey = program_key(program.structural_hash(), &knobs);
            if let Some(cycles) = cache.probe_program(gkey) {
                cache.record_partition(pkey, cycles);
                return cycles;
            }
            let cycles = rec
                .span("core.arb_probe_sim", |_| {
                    simulate_decoded(&program, &w.train_args, w.init, &machine)
                })
                .map_or(u64::MAX, |r| r.cycles);
            cache.record(pkey, gkey, cycles);
            cycles
        };
        let best_mt = candidates
            .iter()
            .filter(|(_, p)| meaningful(p))
            .min_by_key(|(_, p)| probe(rec, p))
            .map(|(_, p)| p.clone());
        let single = {
            let mut p = Partition::new(2);
            for i in f.all_instrs() {
                p.assign(i, ThreadId(0));
            }
            p
        };
        let chosen = match best_mt {
            Some(mt) if probe(rec, &mt) as f64 <= probe(rec, &single) as f64 * 1.10 => mt,
            _ => single,
        };
        counters.arb_probes = cache.probes();
        counters.arb_hits = cache.hits();
        chosen
    });

    let base = rec
        .span("mtcg.compile_base", |_| {
            Parallelizer::new(kind.scheduler()).parallelize_with_partition(
                f,
                profile,
                &pdg,
                chosen.clone(),
            )
        })
        .map_err(|e| format!("baseline parallelization: {e}"))?;
    let coco = rec
        .span("core.compile_coco", |_| {
            Parallelizer::new(kind.scheduler())
                .with_coco(CocoConfig::default())
                .parallelize_with_partition(f, profile, &pdg, chosen)
        })
        .map_err(|e| format!("coco parallelization: {e}"))?;
    Ok((pdg, base, coco))
}

/// The harness's machine for a parallelized variant: the paper's queue
/// depth, with the SA grown to the plan when it needs more queues.
fn machine_for(p: &Parallelized, kind: SchedulerKind) -> MachineConfig {
    let mut m = MachineConfig::default().with_queue_depth(kind.queue_depth());
    if p.num_queues() as usize > m.sa.num_queues {
        m.sa.num_queues = p.num_queues() as usize;
    }
    m
}

/// The functional MT run (`run_mt` = decode + `run_mt_decoded`).
fn mt_run(
    w: &Workload,
    p: &Parallelized,
    kind: SchedulerKind,
    args: &[i64],
    rec: &mut Recorder,
) -> Result<MtRunResult, gmt_ir::interp::ExecError> {
    let program = rec.span("ir.decode", |_| DecodedProgram::decode(p.threads()))?;
    let queues = QueueConfig {
        num_queues: p.num_queues().max(1) as usize,
        capacity: kind.queue_depth(),
    };
    rec.span("ir.mt_run", |_| {
        run_mt_decoded(&program, args, w.init, &queues, &exec_config())
    })
}

/// The timed simulation (`simulate` = validate + decode +
/// `simulate_decoded`), with the engine run under `name`.
fn timed_sim(
    w: &Workload,
    threads: &[Function],
    machine: &MachineConfig,
    args: &[i64],
    name: &'static str,
    rec: &mut Recorder,
) -> Result<SimResult, gmt_ir::interp::ExecError> {
    machine
        .validate()
        .map_err(gmt_ir::interp::ExecError::InvalidConfig)?;
    let program = rec.span("ir.decode", |_| DecodedProgram::decode(threads))?;
    rec.span(name, |_| simulate_decoded(&program, args, w.init, machine))
}

/// First difference between a run and the reference run, if any.
fn differs(
    reference: &RunResult,
    ret: Option<i64>,
    output: &[i64],
    memory: &[i64],
) -> Option<String> {
    if ret != reference.return_value {
        return Some(format!("return {ret:?} vs {:?}", reference.return_value));
    }
    if output != reference.output.as_slice() {
        return Some(format!(
            "output trace of {} values vs {}",
            output.len(),
            reference.output.len()
        ));
    }
    if memory != reference.memory.cells() {
        return Some("final memory differs".to_string());
    }
    None
}

/// First difference between the untraced and traced results, if any.
pub fn identity(untraced: &BenchResult, traced: &BenchResult) -> Option<String> {
    let key = |r: &BenchResult| -> (u64, u64, DynCounts, u64, DynCounts, u64) {
        (
            r.seq_instrs,
            r.seq_cycles,
            r.mtcg.counts,
            r.mtcg.cycles,
            r.coco.counts,
            r.coco.cycles,
        )
    };
    (key(untraced) != key(traced)).then(|| format!("{:?} vs {:?}", key(untraced), key(traced)))
}
