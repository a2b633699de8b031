//! Thread partitions: the output of a GMT partitioner, the input of
//! MTCG and COCO.

use gmt_ir::{Function, InstrId};
use std::fmt;

/// A thread index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The thread index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An assignment of every instruction of a function to a thread.
///
/// `ret` terminators are assigned like any other instruction; MTCG gives
/// every generated thread its own return path regardless.
///
/// Stored densely: one thread index per [`InstrId::index`], with a
/// sentinel marking instructions not (yet) placed. The table grows
/// on demand, so two partitions that assign the same instructions alike
/// compare equal however far either table has grown.
#[derive(Clone, Debug)]
pub struct Partition {
    thread_of: Vec<u32>,
    num_threads: u32,
}

/// Table entry of an unassigned instruction.
const UNASSIGNED: u32 = u32::MAX;

impl Partition {
    /// Creates an empty partition over `num_threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn new(num_threads: u32) -> Partition {
        assert!(num_threads > 0, "at least one thread required");
        Partition { thread_of: Vec::new(), num_threads }
    }

    /// A partition placing every instruction of `f` on thread 0 —
    /// the degenerate single-threaded "partition".
    pub fn single_threaded(f: &Function) -> Partition {
        let mut p = Partition::new(1);
        for i in f.all_instrs() {
            p.assign(i, ThreadId(0));
        }
        p
    }

    /// Number of threads.
    pub fn num_threads(&self) -> u32 {
        self.num_threads
    }

    /// Thread ids, in order.
    pub fn threads(&self) -> impl Iterator<Item = ThreadId> {
        (0..self.num_threads).map(ThreadId)
    }

    /// Assigns instruction `i` to thread `t`, replacing any earlier
    /// assignment.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn assign(&mut self, i: InstrId, t: ThreadId) {
        assert!(t.0 < self.num_threads, "thread {t:?} out of range");
        if i.index() >= self.thread_of.len() {
            self.thread_of.resize(i.index() + 1, UNASSIGNED);
        }
        self.thread_of[i.index()] = t.0;
    }

    /// The thread of instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is unassigned (use [`Partition::get`] for a
    /// non-panicking query).
    pub fn thread_of(&self, i: InstrId) -> ThreadId {
        self.get(i).unwrap_or_else(|| panic!("{i:?} unassigned"))
    }

    /// The thread of instruction `i`, if assigned.
    pub fn get(&self, i: InstrId) -> Option<ThreadId> {
        match self.thread_of.get(i.index()) {
            Some(&t) if t != UNASSIGNED => Some(ThreadId(t)),
            _ => None,
        }
    }

    /// Every assigned instruction with its thread, in ascending
    /// `InstrId` order.
    fn assigned(&self) -> impl Iterator<Item = (InstrId, ThreadId)> + '_ {
        self.thread_of
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != UNASSIGNED)
            .map(|(i, &t)| (InstrId(i as u32), ThreadId(t)))
    }

    /// Instructions assigned to thread `t`, in ascending `InstrId`
    /// order.
    pub fn instrs_of(&self, t: ThreadId) -> impl Iterator<Item = InstrId> + '_ {
        self.assigned().filter(move |&(_, tt)| tt == t).map(|(i, _)| i)
    }

    /// Checks that every placed instruction of `f` is assigned to a
    /// valid thread.
    ///
    /// # Errors
    ///
    /// Returns the first unassigned instruction.
    pub fn validate(&self, f: &Function) -> Result<(), InstrId> {
        for i in f.all_instrs() {
            if self.get(i).is_none() {
                return Err(i);
            }
        }
        Ok(())
    }

    /// Per-thread instruction counts (static balance metric).
    pub fn static_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_threads as usize];
        for (_, t) in self.assigned() {
            sizes[t.index()] += 1;
        }
        sizes
    }

    /// Per-thread dynamic weight, given per-instruction weights.
    pub fn dynamic_sizes(&self, weight: impl Fn(InstrId) -> u64) -> Vec<u64> {
        let mut sizes = vec![0u64; self.num_threads as usize];
        for (i, t) in self.assigned() {
            sizes[t.index()] += weight(i);
        }
        sizes
    }

    /// The table without its trailing unassigned entries — the part
    /// that determines equality.
    fn trimmed(&self) -> &[u32] {
        let len = self.thread_of.iter().rposition(|&t| t != UNASSIGNED).map_or(0, |p| p + 1);
        &self.thread_of[..len]
    }
}

impl PartialEq for Partition {
    fn eq(&self, other: &Partition) -> bool {
        self.num_threads == other.num_threads && self.trimmed() == other.trimmed()
    }
}

impl Eq for Partition {}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_ir::FunctionBuilder;

    fn tiny() -> Function {
        let mut b = FunctionBuilder::new("t");
        let c = b.const_(1);
        b.output(c);
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn single_threaded_covers_everything() {
        let f = tiny();
        let p = Partition::single_threaded(&f);
        assert!(p.validate(&f).is_ok());
        assert_eq!(p.num_threads(), 1);
        assert_eq!(p.static_sizes(), vec![3]);
    }

    #[test]
    fn missing_assignment_detected() {
        let f = tiny();
        let mut p = Partition::new(2);
        let first = f.block(f.entry()).instrs[0];
        p.assign(first, ThreadId(1));
        assert!(p.validate(&f).is_err());
        assert_eq!(p.thread_of(first), ThreadId(1));
        assert_eq!(p.get(InstrId(99)), None);
    }

    #[test]
    fn dynamic_sizes_use_weights() {
        let f = tiny();
        let mut p = Partition::new(2);
        let instrs: Vec<_> = f.all_instrs().collect();
        p.assign(instrs[0], ThreadId(0));
        p.assign(instrs[1], ThreadId(1));
        p.assign(instrs[2], ThreadId(1));
        let sizes = p.dynamic_sizes(|_| 10);
        assert_eq!(sizes, vec![10, 20]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_thread_rejected() {
        let f = tiny();
        let mut p = Partition::new(1);
        p.assign(f.block(f.entry()).instrs[0], ThreadId(3));
    }

    #[test]
    fn instrs_of_filters_by_thread() {
        let f = tiny();
        let p = Partition::single_threaded(&f);
        assert_eq!(p.instrs_of(ThreadId(0)).count(), 3);
    }

    #[test]
    fn equality_ignores_trailing_unassigned_slots() {
        let mut a = Partition::new(2);
        a.assign(InstrId(0), ThreadId(1));
        a.assign(InstrId(2), ThreadId(0));
        let mut b = a.clone();
        b.thread_of.resize(64, UNASSIGNED);
        assert_eq!(a, b, "a longer table of unassigned slots is the same partition");
        let mut c = Partition::new(2);
        c.thread_of.reserve(1024);
        c.assign(InstrId(2), ThreadId(0));
        c.assign(InstrId(0), ThreadId(1));
        assert_eq!(a, c, "assignment order and allocation size do not matter");
        c.assign(InstrId(5), ThreadId(0));
        assert_ne!(a, c, "an extra assignment does");
        let mut d = Partition::new(3);
        d.assign(InstrId(0), ThreadId(1));
        d.assign(InstrId(2), ThreadId(0));
        assert_ne!(a, d, "so does the thread count");
        b.thread_of.fill(UNASSIGNED);
        assert_eq!(Partition::new(2), b, "empty tables compare equal");
    }

    #[test]
    fn get_past_the_table_is_none() {
        let mut p = Partition::new(2);
        assert_eq!(p.get(InstrId(0)), None);
        p.assign(InstrId(3), ThreadId(1));
        assert_eq!(p.get(InstrId(2)), None, "a gap inside the table");
        assert_eq!(p.get(InstrId(3)), Some(ThreadId(1)));
        assert_eq!(p.get(InstrId(4)), None);
        assert_eq!(p.get(InstrId(u32::MAX)), None);
    }

    #[test]
    fn reassignment_overwrites() {
        let mut p = Partition::new(3);
        p.assign(InstrId(1), ThreadId(0));
        p.assign(InstrId(1), ThreadId(2));
        assert_eq!(p.thread_of(InstrId(1)), ThreadId(2));
        assert_eq!(p.static_sizes(), vec![0, 0, 1]);
        assert_eq!(p.instrs_of(ThreadId(0)).count(), 0);
    }

    #[test]
    fn sizes_skip_unassigned_slots() {
        let mut p = Partition::new(2);
        p.assign(InstrId(1), ThreadId(0));
        p.assign(InstrId(4), ThreadId(1));
        p.assign(InstrId(6), ThreadId(1));
        assert_eq!(p.static_sizes(), vec![1, 2]);
        let sizes = p.dynamic_sizes(|i| {
            assert!(p.get(i).is_some(), "weight queried for unassigned {i:?}");
            u64::from(i.0) * 10
        });
        assert_eq!(sizes, vec![10, 100]);
    }

    #[test]
    fn instrs_of_ascends() {
        let mut p = Partition::new(2);
        for i in [9u32, 2, 7, 0, 5, 3] {
            p.assign(InstrId(i), ThreadId(i % 2));
        }
        let t0: Vec<_> = p.instrs_of(ThreadId(0)).collect();
        let t1: Vec<_> = p.instrs_of(ThreadId(1)).collect();
        assert_eq!(t0, vec![InstrId(0), InstrId(2)]);
        assert_eq!(t1, vec![InstrId(3), InstrId(5), InstrId(7), InstrId(9)]);
    }
}
