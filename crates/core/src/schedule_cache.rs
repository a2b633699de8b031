//! Candidate-schedule evaluation caching for partition arbitration.
//!
//! GREMIO arbitration compiles every candidate partition and times the
//! generated threads on the train input; the driver then re-probes the
//! winner (and the single-thread fallback) for the final guard
//! comparison, so identical candidates get evaluated repeatedly. A
//! [`ScheduleCache`] memoizes those timed evaluations at two levels:
//!
//! 1. **by partition** — the instruction→thread assignment vector,
//!    which is free to compute and catches exact re-probes of a
//!    candidate without recompiling it;
//! 2. **by decoded program** — the structural hash of the generated,
//!    decoded thread streams (mixed with the machine knobs that affect
//!    timing), which also catches distinct partitions that compile to
//!    identical code.
//!
//! Cached values are the deterministic simulator's cycle counts, so
//! arbitration decisions are identical with or without the cache.
//! The cache holds only cycles; the harness keeps the winning
//! candidate's compile and train-input run itself, and a measurement
//! on the train input (`repro --quick`) takes the chosen COCO
//! program's cycles from that run. A winner whose cycles came from a
//! program-key hit has no run of its own and is simulated again.

use gmt_ir::Function;
use gmt_pdg::Partition;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A memo of timed candidate-schedule evaluations (see module docs).
#[derive(Clone, Debug, Default)]
pub struct ScheduleCache {
    partitions: HashMap<Vec<u32>, u64>,
    programs: HashMap<u64, u64>,
    probes: u64,
    hits: u64,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> ScheduleCache {
        ScheduleCache::default()
    }

    /// Looks up a candidate by its partition key, counting one
    /// arbitration probe (and a hit when present).
    pub fn probe_partition(&mut self, key: &[u32]) -> Option<u64> {
        self.probes += 1;
        let found = self.partitions.get(key).copied();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Looks up a candidate by its decoded-program key. Counts a hit
    /// when present (the probe was already counted by
    /// [`ScheduleCache::probe_partition`]).
    pub fn probe_program(&mut self, key: u64) -> Option<u64> {
        let found = self.programs.get(&key).copied();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Records the simulated cycle count of a candidate under both
    /// keys.
    pub fn record(&mut self, partition_key: Vec<u32>, program_key: u64, cycles: u64) {
        self.partitions.insert(partition_key, cycles);
        self.programs.insert(program_key, cycles);
    }

    /// Records a cycle count under the partition key only (used when
    /// the candidate failed to compile and the probe result is a
    /// sentinel).
    pub fn record_partition(&mut self, partition_key: Vec<u32>, cycles: u64) {
        self.partitions.insert(partition_key, cycles);
    }

    /// Candidate evaluations requested through the cache.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Evaluations answered from the cache (no recompile, no resim).
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

/// The partition cache key: the thread assignment of every placed
/// instruction of `f`, in layout order.
pub fn partition_key(f: &Function, partition: &Partition) -> Vec<u32> {
    f.all_instrs().map(|i| partition.thread_of(i).0).collect()
}

/// Mixes a decoded program's structural hash with the machine knobs
/// that change its timing, producing the program-level cache key.
pub fn program_key(structural_hash: u64, knobs: &[u64]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    structural_hash.hash(&mut h);
    knobs.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_probe_counts_hits_and_misses() {
        let mut c = ScheduleCache::new();
        assert_eq!(c.probe_partition(&[0, 1]), None);
        c.record(vec![0, 1], 42, 1000);
        assert_eq!(c.probe_partition(&[0, 1]), Some(1000));
        assert_eq!(c.probe_partition(&[1, 0]), None);
        assert_eq!(c.probes(), 3);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn program_probe_hits_across_partitions() {
        let mut c = ScheduleCache::new();
        c.record(vec![0, 1], 7, 500);
        // A different partition compiling to the same program hits the
        // second-level key without a partition hit.
        assert_eq!(c.probe_partition(&[1, 0]), None);
        assert_eq!(c.probe_program(7), Some(500));
        assert_eq!(c.probes(), 1);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn failed_compiles_cache_under_partition_only() {
        let mut c = ScheduleCache::new();
        c.record_partition(vec![2, 2], u64::MAX);
        assert_eq!(c.probe_partition(&[2, 2]), Some(u64::MAX));
        assert_eq!(c.probe_program(9), None);
    }

    #[test]
    fn program_key_sensitive_to_knobs() {
        assert_eq!(program_key(1, &[256, 32]), program_key(1, &[256, 32]));
        assert_ne!(program_key(1, &[256, 32]), program_key(1, &[256, 1]));
        assert_ne!(program_key(1, &[256, 32]), program_key(2, &[256, 32]));
    }
}
