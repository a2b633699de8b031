//! The `repro --verify-mt` mode: run the static queue-protocol
//! validator ([`gmt_core::verify_mt`]) over the full experiment matrix
//! — every catalog kernel × {GREMIO, DSWP} × {baseline MTCG, MTCG+COCO}
//! — at the *allocated* per-queue depths: the profile-weighted
//! allocation where hot loop-carried queues get the scheduler's paper
//! depth (GREMIO 1, DSWP 32) and cold control queues get a single
//! entry.
//!
//! Release builds skip the pipeline's debug-assert validation stage, so
//! this mode is the CI-facing proof that every configuration the
//! figures measure obeys the produce/consume protocol: matching
//! per-queue sequences, plan↔code positions, a cycle-free inter-thread
//! wait graph (cross-block arcs included) at each queue's allocated
//! depth, and fresh values at every communication point (Defs. 1–2 of
//! the paper).

use crate::{fail, parallelize_pair, Compiled, HarnessError, SchedulerKind};
use gmt_core::{MtVerifyError, Parallelized};
use gmt_pdg::Partition;
use gmt_workloads::{catalog, Workload};

/// One cell of the verification matrix.
#[derive(Clone, Debug)]
pub struct VerifyCell {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Scheduler display name.
    pub scheduler: &'static str,
    /// Whether COCO ran.
    pub coco: bool,
    /// Depth granted to hot queues by the allocator (the scheduler's
    /// paper depth; cold queues get 1).
    pub hot_depth: usize,
    /// The allocated per-queue depths the wait graph was checked at.
    pub depths: Vec<usize>,
    /// Number of SA queues the plan allocated.
    pub queues: u32,
    /// Protocol violations (empty = the cell verifies).
    pub errors: Vec<MtVerifyError>,
    /// The partition the verified code was generated from — the one
    /// the figures measure.
    pub partition: Partition,
}

impl VerifyCell {
    /// True when the cell verified cleanly.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Compact depth-range rendering for the table, e.g. `1` or `1-32`.
    pub fn depth_range(&self) -> String {
        let min = self.depths.iter().min().copied().unwrap_or(1);
        let max = self.depths.iter().max().copied().unwrap_or(1);
        if min == max {
            format!("{min}")
        } else {
            format!("{min}-{max}")
        }
    }
}

/// Verifies both variants — baseline MTCG, then MTCG+COCO — of one
/// (kernel, scheduler) configuration, from the same compile record
/// [`evaluate_full`](crate::evaluate_full) measures: for GREMIO, the
/// partition that timed arbitration chose.
///
/// # Errors
///
/// Returns a [`HarnessError`] if profiling or parallelization itself
/// fails; validator findings are *not* errors here — they come back in
/// [`VerifyCell::errors`].
pub fn verify_pair(w: &Workload, kind: SchedulerKind) -> Result<[VerifyCell; 2], HarnessError> {
    let b = w.benchmark;
    let train = w.run_train().map_err(fail(b, "train run"))?;
    let Compiled { pdg, base, coco, .. } = parallelize_pair(w, kind, &train.profile)?;
    // Verify at the *allocated* per-queue depths (hot loop-carried
    // queues at the scheduler's paper depth, cold ones at 1) — the
    // depths a depth-aware synchronization array would provision, and
    // strictly harsher on back-pressure than the old uniform scalar.
    let cell = |r: Parallelized, coco: bool| VerifyCell {
        benchmark: b,
        scheduler: kind.name(),
        coco,
        hot_depth: kind.queue_depth(),
        queues: r.num_queues(),
        errors: gmt_core::verify_mt(&w.function, &r.partition, &pdg, &r.output, &r.queue_depths),
        depths: r.queue_depths,
        partition: r.partition,
    };
    Ok([cell(base, false), cell(coco, true)])
}

/// Runs the whole matrix — catalog × {GREMIO, DSWP} × {±COCO} — on
/// `jobs` workers, in deterministic (catalog, scheduler, variant)
/// order. A configuration that fails to compile fills both of its
/// variants' slots with the error.
pub fn verify_matrix(jobs: usize) -> Vec<Result<VerifyCell, HarnessError>> {
    let workloads = catalog();
    let pairs: Vec<(&Workload, SchedulerKind)> = workloads
        .iter()
        .flat_map(|w| [(w, SchedulerKind::Gremio), (w, SchedulerKind::Dswp)])
        .collect();
    gmt_testkit::par_map(pairs, jobs, |_i, (w, kind)| verify_pair(w, kind))
        .into_iter()
        .flat_map(|r| match r {
            Ok([base, coco]) => [Ok(base), Ok(coco)],
            Err(e) => [Err(e.clone()), Err(e)],
        })
        .collect()
}

/// Renders the matrix results as a fixed-width table, one line per
/// cell, followed by any validator findings in full.
pub fn verify_table(results: &[Result<VerifyCell, HarnessError>]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{:<12} {:<8} {:<6} {:>6} {:>7}  status", "benchmark", "sched", "coco", "depths", "queues");
    let mut findings = Vec::new();
    for r in results {
        match r {
            Ok(c) => {
                let _ = writeln!(
                    s,
                    "{:<12} {:<8} {:<6} {:>6} {:>7}  {}",
                    c.benchmark,
                    c.scheduler,
                    if c.coco { "yes" } else { "no" },
                    c.depth_range(),
                    c.queues,
                    if c.ok() { "ok" } else { "FAIL" }
                );
                if !c.ok() {
                    findings.push(c);
                }
            }
            Err(e) => {
                let _ = writeln!(s, "{:<12} {:<8} {:<6} {:>6} {:>7}  ERROR: {e}", e.benchmark, "-", "-", "-", "-");
            }
        }
    }
    for c in findings {
        let _ = writeln!(
            s,
            "\n{} / {} / {}:",
            c.benchmark,
            c.scheduler,
            if c.coco { "coco" } else { "mtcg" }
        );
        for e in &c.errors {
            let _ = writeln!(s, "  - {e}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_full, machine_for, Scale};
    use gmt_core::{CocoConfig, Parallelizer};

    #[test]
    fn one_cell_verifies() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        for c in verify_pair(&w, SchedulerKind::Dswp).expect("pipeline runs") {
            assert!(c.ok(), "ks/DSWP/coco={} violates the protocol: {:?}", c.coco, c.errors);
            assert_eq!(c.hot_depth, 32);
            assert_eq!(c.depths.len(), c.queues as usize, "one depth per queue");
            assert!(c.depths.iter().all(|&d| d == 1 || d == 32), "{:?}", c.depths);
        }
    }

    #[test]
    fn table_marks_clean_cells_ok() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let [_, cell] = verify_pair(&w, SchedulerKind::Gremio).unwrap();
        let table = verify_table(&[Ok(cell)]);
        assert!(table.contains("GREMIO"), "{table}");
        assert!(table.contains("ok"), "{table}");
        assert!(!table.contains("FAIL"), "{table}");
    }

    /// All 44 cells verify the partition the figures measure: it is
    /// the compile record's, and a fresh compile of it, simulated on
    /// the train input, gives the cycles the quick timed evaluation
    /// reports.
    #[test]
    fn verified_partitions_are_measured() {
        let results = verify_matrix(gmt_testkit::num_jobs());
        assert_eq!(results.len(), 44);
        let workloads = catalog();
        let mut cells = results.iter();
        for w in &workloads {
            let train = w.run_train().expect("train run");
            for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
                let compiled = parallelize_pair(w, kind, &train.profile).expect("compiles");
                let measured = evaluate_full(w, kind, true, Scale::Quick).expect("evaluates");
                let r = measured.result;
                for (p, variant) in [(&compiled.base, r.mtcg), (&compiled.coco, r.coco)] {
                    let cell = cells.next().expect("a cell per variant");
                    let cell = cell.as_ref().expect("verifies");
                    let label = format!("{}/{}/coco={}", w.benchmark, kind.name(), cell.coco);
                    assert!(cell.ok(), "{label}: {:?}", cell.errors);
                    assert_eq!(
                        gmt_core::partition_key(&w.function, &cell.partition),
                        gmt_core::partition_key(&w.function, &p.partition),
                        "{label}: verified partition is the compile record's"
                    );
                    let mut par = Parallelizer::new(kind.scheduler());
                    if cell.coco {
                        par = par.with_coco(CocoConfig::default());
                    }
                    let fresh = par
                        .parallelize_with_partition(
                            &w.function,
                            &train.profile,
                            &compiled.pdg,
                            cell.partition.clone(),
                        )
                        .expect("recompiles");
                    let machine = machine_for(&fresh, kind);
                    let sim = gmt_sim::simulate(fresh.threads(), &w.train_args, w.init, &machine)
                        .expect("simulates");
                    assert_eq!(sim.cycles, variant.cycles, "{label}: verified code is measured");
                }
            }
        }
    }
}
