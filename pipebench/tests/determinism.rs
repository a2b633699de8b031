//! The benchmark's deterministic figures must not depend on the run or
//! on the worker count, and `synth-scale` programs must depend on the
//! seed and on nothing else.

use gmt_pipebench::{cells, run, Options, Report};

fn run_ok(workload: &str, trace: bool, jobs: usize) -> Report {
    let opts = Options {
        workload: workload.to_string(),
        seed: 1,
        seconds: 0.0,
        trace,
        jobs,
    };
    let report = run(&opts).expect("runs");
    assert!(
        report.correct,
        "{workload} trace={trace} jobs={jobs} failed: {:#?}",
        report.log
    );
    report
}

fn pick(report: &Report, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|n| report.metric(n).unwrap_or_else(|| panic!("{n} reported")))
        .collect()
}

#[test]
fn simulated_metrics_repeat_across_runs_and_worker_counts() {
    const SIMULATED: [&str; 3] = [
        "speedup_mtcg_geomean",
        "speedup_coco_geomean",
        "comm_reduction_pct",
    ];
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial = pick(&run_ok("fig-train", false, 1), &SIMULATED);
    assert_eq!(
        serial,
        pick(&run_ok("fig-train", false, 1), &SIMULATED),
        "two serial runs"
    );
    assert_eq!(
        serial,
        pick(&run_ok("fig-train", false, nproc), &SIMULATED),
        "1 vs {nproc} workers"
    );
}

#[test]
fn work_counters_repeat_across_traced_runs() {
    const COUNTS: [&str; 4] = [
        "sim.cycles",
        "sim.engine_steps",
        "core.arb_probes",
        "pdg.deps",
    ];
    let first = pick(&run_ok("fig-train", true, 1), &COUNTS);
    assert_eq!(first, pick(&run_ok("fig-train", true, 1), &COUNTS));
    assert!(first.iter().all(|&c| c > 0.0), "{first:?}");
}

#[test]
fn synth_programs_depend_on_the_seed_only() {
    // The structural hash of each compiled program, from the log line.
    let hashes = |seed| -> Vec<String> {
        let (_, log) = cells::synth_population(seed, 4).expect("compiles");
        log.iter()
            .map(|l| l.split("hash=").nth(1).expect("hash logged").to_string())
            .collect()
    };
    assert_eq!(hashes(7), hashes(7), "same seed, same programs");
    let (a, b) = (hashes(7), hashes(8));
    assert!(
        a.iter().zip(&b).all(|(x, y)| x != y),
        "another seed draws other programs:\n{a:?}\n{b:?}"
    );
}
