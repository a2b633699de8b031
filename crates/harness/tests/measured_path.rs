//! The measured path runs each program once — through the simulator
//! when timed, through the functional interpreters when not — so both
//! modes must report the same dynamic counts, and both must reject a
//! variant whose observables differ from the sequential run's.

use gmt_harness::{run_all_jobs, run_workloads, BenchResult, Scale, SchedulerKind};
use gmt_ir::interp::{Memory, MemoryLayout};
use gmt_ir::{BinOp, FunctionBuilder, ObjectId};
use gmt_workloads::Workload;
use std::sync::atomic::{AtomicI64, Ordering};

/// The counts a figure reads off one cell: sequential instructions and
/// both variants' per-class dynamic counts.
fn counts(r: &BenchResult) -> impl PartialEq + std::fmt::Debug {
    (r.benchmark, r.seq_instrs, r.mtcg.counts, r.coco.counts)
}

/// All 22 quick cells: the simulator's per-class issue counts (timed)
/// equal the functional interpreters' dynamic counts (untimed).
#[test]
fn timed_and_untimed_counts_agree_on_every_quick_cell() {
    let jobs = gmt_testkit::num_jobs();
    for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
        let timed = run_all_jobs(kind, true, Scale::Quick, jobs);
        let untimed = run_all_jobs(kind, false, Scale::Quick, jobs);
        assert_eq!(timed.len(), 11);
        for (t, u) in timed.iter().zip(&untimed) {
            let (t, u) = (t.as_ref().expect("timed cell"), u.as_ref().expect("untimed cell"));
            assert_eq!(counts(t), counts(u), "{} {}", kind.name(), t.benchmark);
            assert!(t.seq_cycles > 0 && t.mtcg.cycles > 0 && t.coco.cycles > 0);
            assert_eq!((u.seq_cycles, u.mtcg.cycles, u.coco.cycles), (0, 0, 0));
        }
    }
}

const LEN: i64 = 64;

static INIT_CALLS: AtomicI64 = AtomicI64::new(0);

/// Fills the input with a value that changes on every call. The
/// variants then compute on other data than the sequential run did,
/// which the output check cannot tell from a miscompiled variant.
fn drifting_init(layout: &MemoryLayout, mem: &mut Memory) {
    let v = INIT_CALLS.fetch_add(1, Ordering::Relaxed);
    let base = layout.base(ObjectId(0)) as usize;
    mem.cells_mut()[base..base + LEN as usize].fill(v);
}

/// `sum(x[0..n])` and `sum(x[0..n] * 3)` by two independent loops,
/// both printed, over `init`'s input. GREMIO runs the loops on
/// separate threads.
fn miscompiled(init: fn(&MemoryLayout, &mut Memory)) -> Workload {
    let mut b = FunctionBuilder::new("drifting_sum");
    let n = b.param();
    let x = b.object("x", LEN as u64);
    let base = b.lea(x, 0);
    let mut sums = Vec::new();
    for scale in [1i64, 3] {
        let i = b.fresh_reg();
        let s = b.fresh_reg();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.const_into(i, 0);
        b.const_into(s, 0);
        b.jump(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let addr = b.bin(BinOp::Add, base, i);
        let v = b.load(addr, 0);
        let v = b.bin(BinOp::Mul, v, scale);
        b.bin_into(BinOp::Add, s, s, v);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(header);
        b.switch_to(exit);
        sums.push(s);
    }
    for &s in &sums {
        b.output(s);
    }
    b.ret(Some(sums[0].into()));
    let mut function = b.finish().expect("verifies");
    gmt_ir::split_critical_edges(&mut function);
    Workload {
        name: "drifting_sum",
        benchmark: "miscompiled",
        suite: "synthetic",
        exec_pct: 100,
        function,
        train_args: vec![LEN],
        ref_args: vec![LEN],
        init,
    }
}

/// A variant whose output differs from the sequential run's fails its
/// cell with phase `"output check"`, in both modes, without a panic
/// and without taking the sibling cells down.
#[test]
fn output_mismatch_is_a_typed_error() {
    for timed in [false, true] {
        let workloads = vec![
            gmt_workloads::by_benchmark("adpcmdec").expect("adpcmdec exists"),
            miscompiled(drifting_init),
        ];
        let out = run_workloads(workloads, SchedulerKind::Dswp, timed, Scale::Quick, 2);
        assert!(out[0].is_ok(), "timed={timed}: the sibling cell completes");
        let err = out[1].as_ref().expect_err("the drifting workload fails");
        assert_eq!(err.benchmark, "miscompiled");
        assert_eq!(err.phase, "output check", "timed={timed}: {err}");
    }
}

static WINDOW_CALLS: AtomicI64 = AtomicI64::new(0);
static WINDOW: [AtomicI64; 2] = [AtomicI64::new(0), AtomicI64::new(0)];

/// Fills the input with 1, or with 2 on the calls whose index lies in
/// `WINDOW` — a drift confined to chosen executions.
fn windowed_init(layout: &MemoryLayout, mem: &mut Memory) {
    let k = WINDOW_CALLS.fetch_add(1, Ordering::Relaxed);
    let [from, to] = WINDOW.each_ref().map(|b| b.load(Ordering::Relaxed));
    let inside = (from..to).contains(&k);
    let base = layout.base(ObjectId(0)) as usize;
    mem.cells_mut()[base..base + LEN as usize].fill(if inside { 2 } else { 1 });
}

/// Executions of one timed GREMIO evaluation of [`windowed_init`]
/// input, with the drift window set to `window`.
fn windowed_run(
    w: &Workload,
    scale: Scale,
    window: [i64; 2],
) -> (i64, Result<gmt_harness::Evaluation, gmt_harness::HarnessError>) {
    WINDOW_CALLS.store(0, Ordering::Relaxed);
    for (bound, v) in WINDOW.iter().zip(window) {
        bound.store(v, Ordering::Relaxed);
    }
    let r = gmt_harness::evaluate_full(w, SchedulerKind::Gremio, true, scale);
    (WINDOW_CALLS.load(Ordering::Relaxed), r)
}

/// GREMIO's timed COCO run is its arbitration probe's exactly when the
/// measured input is the train input, whatever the scale, and that run
/// still goes through the output check: input that drifts only during
/// arbitration fails the cell.
#[test]
fn reused_probe_run_is_output_checked() {
    let mut w = miscompiled(windowed_init);
    let (quick, r) = windowed_run(&w, Scale::Quick, [0, 0]);
    r.expect("steady input evaluates");
    w.ref_args = vec![LEN - 1];
    let (full, r) = windowed_run(&w, Scale::Full, [0, 0]);
    r.expect("steady input evaluates");
    assert_eq!(full, quick + 1, "only the train-input cell reuses its probe run");
    // Calls: train run, sequential sim, the probe sims, the MTCG sim.
    let probes = quick - 3;
    w.ref_args = w.train_args.clone();
    let (_, r) = windowed_run(&w, Scale::Full, [2, 2 + probes]);
    let err = r.expect_err("the drifted probe run fails the check");
    assert_eq!(err.phase, "output check", "{err}");
    assert!(err.source.starts_with("timed COCO sim"), "{err}");
}
