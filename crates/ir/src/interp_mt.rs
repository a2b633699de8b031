//! A multi-threaded functional interpreter.
//!
//! Executes the set of per-thread CFGs produced by MTCG against one
//! shared memory and a set of blocking scalar queues (the functional
//! semantics of the synchronization array). This is the tool behind
//! Figures 1 and 7: it counts dynamic computation, communication, and
//! synchronization instructions exactly, independent of timing. The
//! cycle-accurate model lives in the `gmt-sim` crate.
//!
//! Scheduling is deterministic round-robin (one instruction per
//! runnable thread per round). Any correctly synchronized program
//! produces the same memory/output/return results under every
//! interleaving; determinism here just makes tests reproducible.

use crate::decoded::{DecodedFunction, DecodedOp, DecodedProgram, DecodedThread, InstrKind};
use crate::function::Function;
use crate::instr::Op;
use crate::interp::{
    BlockedOp, DeadlockInfo, DynCounts, ExecConfig, ExecError, Memory, MemoryLayout, QueueAccess,
    StepOutcome, ThreadState,
};
use std::collections::VecDeque;

/// Queue configuration for a functional MT run.
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// Number of queues available.
    pub num_queues: usize,
    /// Capacity of each queue in elements (the paper: 1-element queues
    /// for GREMIO's synchronization array, 32-element for DSWP).
    pub capacity: usize,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig { num_queues: 256, capacity: 32 }
    }
}

struct Queues {
    queues: Vec<VecDeque<i64>>,
    capacity: usize,
}

impl QueueAccess for Queues {
    fn try_produce(&mut self, queue: usize, value: i64) -> Result<bool, ExecError> {
        let q = self
            .queues
            .get_mut(queue)
            .ok_or(ExecError::BadQueue(crate::types::InstrId(u32::MAX)))?;
        if q.len() >= self.capacity {
            Ok(false)
        } else {
            q.push_back(value);
            Ok(true)
        }
    }

    fn try_consume(&mut self, queue: usize) -> Result<Option<i64>, ExecError> {
        let q = self
            .queues
            .get_mut(queue)
            .ok_or(ExecError::BadQueue(crate::types::InstrId(u32::MAX)))?;
        Ok(q.pop_front())
    }
}

/// The result of a multi-threaded functional run.
#[derive(Clone, Debug)]
pub struct MtRunResult {
    /// The return value (from whichever thread returned one).
    pub return_value: Option<i64>,
    /// The merged observable output trace.
    pub output: Vec<i64>,
    /// Dynamic counts per thread.
    pub per_thread: Vec<DynCounts>,
    /// Final memory state.
    pub memory: Memory,
}

impl MtRunResult {
    /// Dynamic counts summed over all threads.
    pub fn totals(&self) -> DynCounts {
        let mut t = DynCounts::default();
        for c in &self.per_thread {
            t.add(*c);
        }
        t
    }
}

/// The queue a decoded op addresses, if it is a communication op.
fn decoded_queue_of(op: DecodedOp) -> Option<crate::types::QueueId> {
    match op {
        DecodedOp::Produce { queue, .. }
        | DecodedOp::ProduceSync { queue }
        | DecodedOp::Consume { queue, .. }
        | DecodedOp::ConsumeSync { queue } => Some(queue),
        _ => None,
    }
}

/// Rejects a queue id outside the configured queue file at load time,
/// so a misallocated program fails before any thread runs instead of
/// faulting mid-simulation.
fn check_queue_id(
    queue: Option<crate::types::QueueId>,
    num_queues: usize,
) -> Result<(), ExecError> {
    match queue {
        Some(q) if q.index() >= num_queues => Err(ExecError::InvalidConfig(format!(
            "program targets queue {} but the configuration has {num_queues} queues",
            q.0
        ))),
        _ => Ok(()),
    }
}

/// Runs `threads` concurrently against one shared memory.
///
/// All threads receive the same `args`. Memory is laid out from
/// `threads[0]`'s object table (MTCG copies the object table into every
/// thread, so they agree) and initialized by `init`.
///
/// # Errors
///
/// - [`ExecError::InvalidConfig`] if `threads` is empty.
/// - [`ExecError::Deadlock`] if every unfinished thread is blocked.
/// - [`ExecError::OutOfFuel`] if total steps exceed
///   `config.max_steps`.
/// - Any per-instruction fault ([`ExecError::MemoryFault`], ...).
pub fn run_mt(
    threads: &[Function],
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    queue_config: &QueueConfig,
    config: &ExecConfig,
) -> Result<MtRunResult, ExecError> {
    let program = DecodedProgram::decode(threads)?;
    run_mt_decoded(&program, args, init, queue_config, config)
}

/// [`run_mt`] on an already-decoded program.
///
/// # Errors
///
/// See [`run_mt`].
pub fn run_mt_decoded(
    program: &DecodedProgram,
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    queue_config: &QueueConfig,
    config: &ExecConfig,
) -> Result<MtRunResult, ExecError> {
    let threads = program.threads();
    if threads.is_empty() {
        return Err(ExecError::InvalidConfig("at least one thread required".to_string()));
    }
    if queue_config.capacity == 0 {
        return Err(ExecError::InvalidConfig(
            "queue capacity 0 cannot satisfy any consume".to_string(),
        ));
    }
    for d in threads {
        for pc in 0..d.num_slots() as u32 {
            check_queue_id(decoded_queue_of(d.op(pc)), queue_config.num_queues)?;
        }
    }
    let layout = program.layout();
    let mut memory = Memory::for_layout(layout)?;
    init(layout, &mut memory);

    let mut states: Vec<DecodedThread> = threads
        .iter()
        .map(|d| DecodedThread::new(d, args))
        .collect::<Result<_, _>>()?;
    let mut finished: Vec<bool> = vec![false; threads.len()];
    let mut per_thread = vec![DynCounts::default(); threads.len()];
    let mut queues = Queues {
        queues: vec![VecDeque::new(); queue_config.num_queues],
        capacity: queue_config.capacity,
    };
    let mut output = Vec::new();
    let mut return_value = None;
    let mut fuel = config.max_steps;

    loop {
        if finished.iter().all(|&f| f) {
            return Ok(MtRunResult { return_value, output, per_thread, memory });
        }
        let mut any_progress = false;
        for t in 0..threads.len() {
            if finished[t] {
                continue;
            }
            if fuel == 0 {
                return Err(ExecError::OutOfFuel);
            }
            fuel -= 1;
            let d = &threads[t];
            let kind = d.op(states[t].pc).kind();
            match states[t].step(d, &mut memory, &mut output, &mut queues)? {
                StepOutcome::Blocked => {
                    fuel += 1; // blocked polls don't consume the budget
                }
                StepOutcome::Returned(v) => {
                    finished[t] = true;
                    any_progress = true;
                    per_thread[t].computation += 1;
                    if v.is_some() {
                        return_value = v;
                    }
                }
                StepOutcome::Continue | StepOutcome::TookEdge(..) => {
                    any_progress = true;
                    match kind {
                        InstrKind::Synchronization => per_thread[t].synchronization += 1,
                        InstrKind::Communication => per_thread[t].communication += 1,
                        InstrKind::Computation => per_thread[t].computation += 1,
                    }
                }
            }
        }
        if !any_progress {
            return Err(ExecError::Deadlock(deadlock_info_decoded(threads, &states, &finished)));
        }
    }
}

/// Attributes a functional-run deadlock to the first unfinished thread
/// (every unfinished thread is blocked on its current queue operation
/// when no round makes progress).
fn deadlock_info_decoded(
    threads: &[DecodedFunction],
    states: &[DecodedThread],
    finished: &[bool],
) -> Option<DeadlockInfo> {
    let t = (0..threads.len()).find(|&t| !finished[t])?;
    match threads[t].op(states[t].pc) {
        DecodedOp::Produce { queue, .. } | DecodedOp::ProduceSync { queue } => {
            Some(DeadlockInfo { core: t, queue, op: BlockedOp::ProduceFull })
        }
        DecodedOp::Consume { queue, .. } | DecodedOp::ConsumeSync { queue } => {
            Some(DeadlockInfo { core: t, queue, op: BlockedOp::ConsumeEmpty })
        }
        _ => None,
    }
}

/// [`deadlock_info_decoded`] for the ID-walking reference path.
fn deadlock_info_reference(
    threads: &[Function],
    states: &[ThreadState],
    finished: &[bool],
) -> Option<DeadlockInfo> {
    let t = (0..threads.len()).find(|&t| !finished[t])?;
    let f = &threads[t];
    match *f.instr(states[t].current_instr(f).ok()?) {
        Op::Produce { queue, .. } | Op::ProduceSync { queue } => {
            Some(DeadlockInfo { core: t, queue, op: BlockedOp::ProduceFull })
        }
        Op::Consume { queue, .. } | Op::ConsumeSync { queue } => {
            Some(DeadlockInfo { core: t, queue, op: BlockedOp::ConsumeEmpty })
        }
        _ => None,
    }
}

/// The ID-walking reference executor ([`run_mt`] without pre-decoding).
/// Kept as the semantic oracle for the decoded engine.
///
/// # Errors
///
/// See [`run_mt`].
pub fn run_mt_reference(
    threads: &[Function],
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    queue_config: &QueueConfig,
    config: &ExecConfig,
) -> Result<MtRunResult, ExecError> {
    if threads.is_empty() {
        return Err(ExecError::InvalidConfig("at least one thread required".to_string()));
    }
    if queue_config.capacity == 0 {
        return Err(ExecError::InvalidConfig(
            "queue capacity 0 cannot satisfy any consume".to_string(),
        ));
    }
    for f in threads {
        for i in f.all_instrs() {
            let q = match *f.instr(i) {
                Op::Produce { queue, .. }
                | Op::ProduceSync { queue }
                | Op::Consume { queue, .. }
                | Op::ConsumeSync { queue } => Some(queue),
                _ => None,
            };
            check_queue_id(q, queue_config.num_queues)?;
        }
    }
    let layout = MemoryLayout::of(&threads[0]);
    let mut memory = Memory::for_layout(&layout)?;
    init(&layout, &mut memory);

    let mut states: Vec<ThreadState> = threads
        .iter()
        .map(|f| ThreadState::new(f, args, &layout))
        .collect::<Result<_, _>>()?;
    let mut finished: Vec<bool> = vec![false; threads.len()];
    let mut per_thread = vec![DynCounts::default(); threads.len()];
    let mut queues = Queues {
        queues: vec![VecDeque::new(); queue_config.num_queues],
        capacity: queue_config.capacity,
    };
    let mut output = Vec::new();
    let mut return_value = None;
    let mut fuel = config.max_steps;

    loop {
        if finished.iter().all(|&f| f) {
            return Ok(MtRunResult { return_value, output, per_thread, memory });
        }
        let mut any_progress = false;
        for t in 0..threads.len() {
            if finished[t] {
                continue;
            }
            if fuel == 0 {
                return Err(ExecError::OutOfFuel);
            }
            fuel -= 1;
            let f = &threads[t];
            let instr = states[t].current_instr(f)?;
            let is_comm = f.instr(instr).is_communication();
            let is_sync = matches!(
                f.instr(instr),
                crate::instr::Op::ProduceSync { .. } | crate::instr::Op::ConsumeSync { .. }
            );
            match states[t].step(f, &mut memory, &mut output, &mut queues)? {
                StepOutcome::Blocked => {
                    fuel += 1; // blocked polls don't consume the budget
                }
                StepOutcome::Returned(v) => {
                    finished[t] = true;
                    any_progress = true;
                    per_thread[t].computation += 1;
                    if v.is_some() {
                        return_value = v;
                    }
                }
                StepOutcome::Continue | StepOutcome::TookEdge(..) => {
                    any_progress = true;
                    if is_sync {
                        per_thread[t].synchronization += 1;
                    } else if is_comm {
                        per_thread[t].communication += 1;
                    } else {
                        per_thread[t].computation += 1;
                    }
                }
            }
        }
        if !any_progress {
            return Err(ExecError::Deadlock(deadlock_info_reference(threads, &states, &finished)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::Op;
    use crate::types::{BinOp, QueueId};

    /// Producer thread sends 1..=3; consumer sums and returns.
    fn producer_consumer(capacity: usize) -> (Vec<Function>, QueueConfig) {
        let q = QueueId(0);
        let mut p = FunctionBuilder::new("producer");
        for v in 1..=3 {
            p.emit(Op::Produce { queue: q, value: (v as i64).into() });
        }
        p.ret(None);
        let producer = p.finish().unwrap();

        let mut c = FunctionBuilder::new("consumer");
        let sum = c.fresh_reg();
        c.const_into(sum, 0);
        for _ in 0..3 {
            let v = c.fresh_reg();
            c.emit(Op::Consume { dst: v, queue: q });
            c.bin_into(BinOp::Add, sum, sum, v);
        }
        c.ret(Some(sum.into()));
        let consumer = c.finish().unwrap();
        (vec![producer, consumer], QueueConfig { num_queues: 4, capacity })
    }

    #[test]
    fn producer_consumer_sums() {
        let (threads, qc) = producer_consumer(32);
        let r = run_mt(&threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap();
        assert_eq!(r.return_value, Some(6));
        assert_eq!(r.per_thread[0].communication, 3);
        assert_eq!(r.per_thread[1].communication, 3);
    }

    #[test]
    fn single_element_queues_backpressure() {
        let (threads, qc) = producer_consumer(1);
        let r = run_mt(&threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap();
        assert_eq!(r.return_value, Some(6));
    }

    #[test]
    fn deadlock_detected() {
        // Both threads consume from empty queues first.
        let q = QueueId(0);
        let mk = || {
            let mut b = FunctionBuilder::new("d");
            let v = b.fresh_reg();
            b.emit(Op::Consume { dst: v, queue: q });
            b.ret(None);
            b.finish().unwrap()
        };
        let err = run_mt(
            &[mk(), mk()],
            &[],
            |_, _| {},
            &QueueConfig::default(),
            &ExecConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::Deadlock(Some(DeadlockInfo {
                core: 0,
                queue: QueueId(0),
                op: BlockedOp::ConsumeEmpty,
            }))
        );
    }

    #[test]
    fn sync_tokens_order_memory() {
        // T0 stores 7 to cell then produce.sync; T1 consume.sync then
        // loads and outputs. Output must be 7 under any schedule.
        let q = QueueId(1);
        let mut t0 = FunctionBuilder::new("t0");
        let obj = t0.object("cell", 1);
        let p0 = t0.lea(obj, 0);
        t0.store(p0, 0, 7i64);
        t0.emit(Op::ProduceSync { queue: q });
        t0.ret(None);
        let t0 = t0.finish().unwrap();

        let mut t1 = FunctionBuilder::new("t1");
        let obj1 = t1.object("cell", 1);
        t1.emit(Op::ConsumeSync { queue: q });
        let p1 = t1.lea(obj1, 0);
        let v = t1.load(p1, 0);
        t1.output(v);
        t1.ret(None);
        let t1 = t1.finish().unwrap();

        let r = run_mt(
            &[t0, t1],
            &[],
            |_, _| {},
            &QueueConfig::default(),
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(r.output, vec![7]);
        let totals = r.totals();
        assert_eq!(totals.synchronization, 2);
    }

    #[test]
    fn bad_queue_rejected_at_load_time() {
        let mut b = FunctionBuilder::new("bad");
        b.emit(Op::ProduceSync { queue: QueueId(99) });
        b.ret(None);
        let f = b.finish().unwrap();
        let qc = QueueConfig { num_queues: 2, capacity: 1 };
        // Both executors reject the misallocated queue id before any
        // thread takes a step.
        let err = run_mt(std::slice::from_ref(&f), &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)));
        let err = run_mt_reference(&[f], &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)));
    }

    /// A queue capacity of 0 can never satisfy a consume: both engines
    /// reject it up front with a typed error instead of clamping it or
    /// spinning on a produce that can never land.
    #[test]
    fn zero_capacity_rejected_at_load_time() {
        let (threads, mut qc) = producer_consumer(32);
        qc.capacity = 0;
        let err = run_mt(&threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)), "decoded: {err:?}");
        let err = run_mt_reference(&threads, &[], |_, _| {}, &qc, &ExecConfig::default())
            .unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)), "reference: {err:?}");
    }

    /// An unverified function whose entry block has no terminator must
    /// surface as a typed error from both MT engines, not a panic.
    #[test]
    fn unterminated_block_is_typed_error() {
        let b = FunctionBuilder::new("stub");
        let f = b.finish_unverified(); // entry block, no terminator
        let qc = QueueConfig::default();
        let err = run_mt(std::slice::from_ref(&f), &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap_err();
        assert!(
            matches!(&err, ExecError::InvalidConfig(m) if m.contains("terminator")),
            "decoded: {err:?}"
        );
        let err = run_mt_reference(&[f], &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap_err();
        assert!(
            matches!(&err, ExecError::InvalidConfig(m) if m.contains("terminator")),
            "reference: {err:?}"
        );
    }

    #[test]
    fn totals_sum_threads() {
        let (threads, qc) = producer_consumer(32);
        let r = run_mt(&threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap();
        let t = r.totals();
        assert_eq!(t.communication, 6);
        assert!(t.computation > 0);
    }
}
