//! The benchmark's workloads: which programs, which inputs, and the
//! cells (program × scheduler) a pass evaluates.

use gmt_harness::{Scale, SchedulerKind};
use gmt_ir::decoded::DecodedFunction;
use gmt_ir::interp::{Memory, MemoryLayout};
use gmt_testkit::TestRng;
use gmt_workloads::Workload;

/// Top-level statements per `synth-scale` program.
pub const SYNTH_STATEMENTS: usize = 20;

/// Programs in one `synth-scale` population.
pub const SYNTH_PROGRAMS: usize = 24;

/// The workloads [`build`] knows, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig-ref", "fig-train", "synth-scale"];

/// One workload's programs and the cells evaluated on them.
pub struct Population {
    /// The programs, each wrapped as a harness workload.
    pub workloads: Vec<Workload>,
    /// Every cell of a pass: (index into `workloads`, scheduler), in
    /// scheduler-major order.
    pub cells: Vec<(usize, SchedulerKind)>,
    /// The input scale every cell is evaluated at.
    pub scale: Scale,
    /// One line per generated program (seed, static size, structural
    /// hash); empty for the catalog workloads.
    pub log: Vec<String>,
}

/// Builds workload `name` for `seed`.
///
/// The catalog workloads are the paper's 11 fixed kernels, so their
/// inputs do not depend on the seed. `synth-scale` draws a fresh
/// population from it.
///
/// # Errors
///
/// An unknown workload name, or a generated program that fails to
/// compile (reported with its seed).
pub fn build(name: &str, seed: u64) -> Result<Population, String> {
    let (workloads, scale, log) = match name {
        "fig-ref" => (gmt_workloads::catalog(), Scale::Full, Vec::new()),
        "fig-train" => (gmt_workloads::catalog(), Scale::Quick, Vec::new()),
        "synth-scale" => {
            let (workloads, log) = synth_population(seed, SYNTH_PROGRAMS)?;
            (workloads, Scale::Full, log)
        }
        other => return Err(format!("unknown workload `{other}` (known: {WORKLOADS:?})")),
    };
    let cells = [SchedulerKind::Gremio, SchedulerKind::Dswp]
        .into_iter()
        .flat_map(|k| (0..workloads.len()).map(move |i| (i, k)))
        .collect();
    Ok(Population {
        workloads,
        cells,
        scale,
        log,
    })
}

/// The seed of program `index` in the population drawn from `seed`
/// (splitmix64 of the pair), so each program can be regenerated alone.
pub fn program_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` structured programs from the fuzz grammar: each is
/// [`SYNTH_STATEMENTS`] samples of `fstmt_gen` concatenated and
/// compiled to verified IR. Programs take no arguments and start from
/// zeroed memory. None is filtered, retried or resized.
///
/// # Errors
///
/// A program that fails to compile, named by its seed.
pub fn synth_population(seed: u64, count: usize) -> Result<(Vec<Workload>, Vec<String>), String> {
    let gen = gmt_fuzz::ast::fstmt_gen();
    let mut workloads = Vec::with_capacity(count);
    let mut log = Vec::with_capacity(count);
    for i in 0..count {
        let pseed = program_seed(seed, i);
        let mut rng = TestRng::new(pseed);
        let program: Vec<_> = (0..SYNTH_STATEMENTS)
            .map(|_| gen.sample(&mut rng))
            .collect();
        let function = gmt_fuzz::ast::compile(&program)
            .map_err(|e| format!("synth program {i} (seed {pseed:#018x}): {e}"))?;
        let static_instrs = function.all_instrs().count();
        let hash = DecodedFunction::decode(&function).structural_hash();
        log.push(format!(
            "synth program {i:02} seed={pseed:#018x} static_instrs={static_instrs} hash={hash:#018x}"
        ));
        // Harness workloads carry `'static` names; a population lives
        // for the whole process, so leaking its few labels is fine.
        let label: &'static str = Box::leak(format!("synth-{i:02}").into_boxed_str());
        workloads.push(Workload {
            name: label,
            benchmark: label,
            suite: "synthetic",
            exec_pct: 100,
            function,
            train_args: Vec::new(),
            ref_args: Vec::new(),
            init: zeroed,
        });
    }
    Ok((workloads, log))
}

fn zeroed(_: &MemoryLayout, _: &mut Memory) {}
