//! The lock-free circular task queue `Q_task` (paper Algorithm 3).
//!
//! The queue is an array of `N` atomic `i32` slots (N a multiple of 3)
//! used as a ring buffer. Each task occupies three consecutive slots;
//! `-1` marks an empty slot, `-2` pads tasks that carry only a 2-vertex
//! prefix. Enqueue/dequeue follow the paper's algorithm:
//!
//! - a fast atomic add on `size` admits or rejects the operation
//!   (cancelled with the inverse add on failure);
//! - an atomic add on `back`/`front` claims the slot triple;
//! - the payload is handed across the claimed triple, spinning briefly
//!   when the cell is still owned by a racing operation (the paper's
//!   `__nanosleep(10)`).
//!
//! One deliberate deviation from the paper's line-by-line `-1`-CAS
//! handoff: each task cell carries a sequence ticket (`seq`). The CAS
//! transcription is unsound once `back` wraps — a writer stalled after
//! claiming a cell can interleave its three stores with a second writer
//! that lapped the ring (admitted because intervening dequeues released
//! `size`), and a reader then observes a *mixed* task. With the paper's
//! 1 M-task queue the lap is unreachable in practice, which is likely
//! why the original never hits it; our tests run capacities as small as
//! 2 tasks where it reproduces readily. Tickets give each claim
//! exclusive cell ownership in ring order (Vyukov-style bounded MPMC)
//! while preserving the paper's size-based admission, head/tail
//! counters, and rejection semantics.
//!
//! A second deviation: an enqueue admits itself with a compare-and-swap
//! that raises `size` only below the bound, instead of the paper's add
//! followed, on a full queue, by the inverse add. Between those two adds
//! `size` counts a task that will never exist, and a dequeue admitted in
//! that window waits on a ticket no enqueue may ever claim. Once the warps
//! run out of work that dequeue spins forever, and its warp with it.
//!
//! There are no locks; contention is limited to the queue's own counters
//! exactly as argued in §III ("we only utilize atomic operations … for
//! lightweight contentions on the head and tail").
//!
//! ## Step-wise operations
//!
//! Both operations are implemented as *step state machines*
//! ([`EnqueueOp`] / [`DequeueOp`]): each `step()` call performs at most
//! one atomic transition and reports progress / blocked / done. The
//! production [`TaskQueue::enqueue`] / [`TaskQueue::dequeue`] wrappers
//! drive the machine to completion with a bounded spin that falls back
//! to `std::thread::yield_now()` after [`SPIN_LIMIT`] consecutive
//! blocked polls (counted in [`TaskQueue::total_stall_yields`]) — a
//! pure spin here livelocks on oversubscribed hosts, where the thread
//! holding the cell may not be running. The `tdfs-testkit` virtual
//! scheduler drives the *same* machines single-threadedly to replay
//! specific interleavings deterministically, so the code under test and
//! the code in production are one implementation.
//!
//! ## Fault points (active only with the `chaos` feature)
//!
//! - `gpu.queue.enqueue.full` — force the full-queue rejection path on
//!   an admit, exercising callers' queue-pressure recovery;
//! - `gpu.queue.enqueue.claimed` / `gpu.queue.dequeue.claimed` — a
//!   stall window between claiming a cell and completing the payload
//!   handoff, the exact window of the wraparound race above.

use crate::{chaos_inject, chaos_point};
use std::sync::atomic::{AtomicI32, AtomicI64, AtomicU64, Ordering};

/// Empty-slot sentinel (paper: all elements initialized as −1).
pub const EMPTY: i32 = -1;
/// Placeholder for the third vertex of a 2-prefix task (paper: −2).
pub const PAD: i32 = -2;

/// Consecutive blocked polls before a production wrapper yields the OS
/// thread instead of spinning further.
pub const SPIN_LIMIT: u32 = 128;

/// A work-stealing task: a 2- or 3-vertex prefix of a partial match.
///
/// `⟨v1, v2, v3⟩` matches `(u_1, u_2, u_3)`; `⟨v1, v2, PAD⟩` matches only
/// `(u_1, u_2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// Data vertex matched to `u_1`.
    pub v1: i32,
    /// Data vertex matched to `u_2`.
    pub v2: i32,
    /// Data vertex matched to `u_3`, or [`PAD`].
    pub v3: i32,
}

impl Task {
    /// A 2-prefix task (edge).
    pub fn pair(v1: u32, v2: u32) -> Self {
        Self {
            v1: v1 as i32,
            v2: v2 as i32,
            v3: PAD,
        }
    }

    /// A 3-prefix task.
    pub fn triple(v1: u32, v2: u32, v3: u32) -> Self {
        Self {
            v1: v1 as i32,
            v2: v2 as i32,
            v3: v3 as i32,
        }
    }

    /// Number of matched vertices in the prefix (2 or 3).
    pub fn prefix_len(&self) -> usize {
        if self.v3 == PAD {
            2
        } else {
            3
        }
    }
}

/// Result of stepping an [`EnqueueOp`] or [`DequeueOp`] once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStep<T> {
    /// A transition was performed; the operation is not finished.
    Progress,
    /// The operation is waiting on a racing operation's transition (the
    /// claimed cell's sequence ticket is not ours yet). Stepping again
    /// without running the racing thread cannot make progress.
    Blocked,
    /// The operation finished with this result. Further steps keep
    /// returning `Done` with the same result.
    Done(T),
}

enum EnqState {
    Admit,
    Claim,
    Acquire { ticket: u64 },
    Write { ticket: u64, idx: usize },
    Publish { ticket: u64 },
    Finished { admitted: bool },
}

/// A step-wise enqueue of one task (paper Alg. 3 lines 3–14).
///
/// Create with [`TaskQueue::begin_enqueue`]; drive with [`EnqueueOp::step`]
/// until `Done(admitted)`. Dropping an op mid-flight after `Admit`
/// succeeded would wedge the ring (the claimed ticket is never published),
/// so drive every op to completion — the deterministic scheduler's
/// deadlock detection makes that an explicit test failure rather than a
/// hang.
pub struct EnqueueOp<'q> {
    queue: &'q TaskQueue,
    task: Task,
    state: EnqState,
}

impl EnqueueOp<'_> {
    /// Perform at most one atomic transition.
    pub fn step(&mut self) -> OpStep<bool> {
        let q = self.queue;
        let cap = q.seq.len() as u64;
        match self.state {
            EnqState::Admit => {
                // Fault point: pretend the size admission saw a full
                // queue, driving callers down their rejection path.
                let forced_full = chaos_inject!("gpu.queue.enqueue.full");
                let n = q.admit_limit;
                // Line 4: register space usage, but only while there is
                // space (see the module docs): an add that overshoots and
                // is cancelled afterwards would, in between, admit a
                // dequeue for a task that never arrives.
                let admitted = if forced_full {
                    Err(n)
                } else {
                    q.size
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
                            (old < n).then_some(old + 3)
                        })
                };
                let Ok(old) = admitted else {
                    // Lines 5–6: signal full.
                    q.rejected_full.fetch_add(1, Ordering::Relaxed);
                    self.state = EnqState::Finished { admitted: false };
                    return OpStep::Done(false);
                };
                q.peak_size.fetch_max(old + 3, Ordering::Relaxed);
                self.state = EnqState::Claim;
                OpStep::Progress
            }
            EnqState::Claim => {
                // Line 7: claim the cell (monotonic ticket, mod capacity
                // on use).
                let ticket = q.back.fetch_add(1, Ordering::AcqRel);
                // Fault point: stall in the claimed-but-unwritten window —
                // the window of the wraparound race in the module docs.
                chaos_point!("gpu.queue.enqueue.claimed");
                self.state = EnqState::Acquire { ticket };
                OpStep::Progress
            }
            EnqState::Acquire { ticket } => {
                // Wait for exclusive write ownership of the cell: the
                // previous lap's reader must have released it (see the
                // module docs for why the paper's `-1`-CAS handoff is
                // insufficient here).
                let cell = (ticket % cap) as usize;
                if q.seq[cell].load(Ordering::Acquire) != ticket {
                    return OpStep::Blocked;
                }
                self.state = EnqState::Write { ticket, idx: 0 };
                OpStep::Progress
            }
            EnqState::Write { ticket, idx } => {
                // Lines 8–13: hand off the payload, one word per step.
                let cell = (ticket % cap) as usize;
                let v = [self.task.v1, self.task.v2, self.task.v3][idx];
                debug_assert!(v >= 0 || v == PAD, "task payload must not be −1");
                q.slots[cell * 3 + idx].store(v, Ordering::Relaxed);
                self.state = if idx == 2 {
                    EnqState::Publish { ticket }
                } else {
                    EnqState::Write {
                        ticket,
                        idx: idx + 1,
                    }
                };
                OpStep::Progress
            }
            EnqState::Publish { ticket } => {
                // Publish: the cell is now readable by dequeue ticket
                // `ticket`.
                let cell = (ticket % cap) as usize;
                q.seq[cell].store(ticket + 1, Ordering::Release);
                q.enqueued.fetch_add(1, Ordering::Relaxed);
                self.state = EnqState::Finished { admitted: true };
                OpStep::Done(true)
            }
            EnqState::Finished { admitted } => OpStep::Done(admitted),
        }
    }
}

enum DeqState {
    Admit,
    Claim,
    Acquire {
        ticket: u64,
    },
    Read {
        ticket: u64,
        idx: usize,
        vals: [i32; 3],
    },
    Release {
        ticket: u64,
        vals: [i32; 3],
    },
    Finished {
        task: Option<Task>,
    },
}

/// A step-wise dequeue (paper Alg. 3 lines 15–26).
///
/// Create with [`TaskQueue::begin_dequeue`]; drive with
/// [`DequeueOp::step`] until `Done(result)`. The same drive-to-completion
/// rule as [`EnqueueOp`] applies.
pub struct DequeueOp<'q> {
    queue: &'q TaskQueue,
    state: DeqState,
}

impl DequeueOp<'_> {
    /// Perform at most one atomic transition.
    pub fn step(&mut self) -> OpStep<Option<Task>> {
        let q = self.queue;
        let cap = q.seq.len() as u64;
        match self.state {
            DeqState::Admit => {
                // Line 16: register space release.
                let old = q.size.fetch_sub(3, Ordering::AcqRel);
                if old <= 0 {
                    // Lines 17–18: cancel, signal empty.
                    q.size.fetch_add(3, Ordering::AcqRel);
                    self.state = DeqState::Finished { task: None };
                    return OpStep::Done(None);
                }
                self.state = DeqState::Claim;
                OpStep::Progress
            }
            DeqState::Claim => {
                // Line 19: claim the cell.
                let ticket = q.front.fetch_add(1, Ordering::AcqRel);
                // Fault point: stall between claiming the cell and
                // reading it, mirroring the enqueue-side window.
                chaos_point!("gpu.queue.dequeue.claimed");
                self.state = DeqState::Acquire { ticket };
                OpStep::Progress
            }
            DeqState::Acquire { ticket } => {
                // Lines 20–25: wait for the racing enqueue with the same
                // ticket to finish filling the cell.
                let cell = (ticket % cap) as usize;
                if q.seq[cell].load(Ordering::Acquire) != ticket + 1 {
                    return OpStep::Blocked;
                }
                self.state = DeqState::Read {
                    ticket,
                    idx: 0,
                    vals: [EMPTY; 3],
                };
                OpStep::Progress
            }
            DeqState::Read {
                ticket,
                idx,
                mut vals,
            } => {
                let cell = (ticket % cap) as usize;
                vals[idx] = q.slots[cell * 3 + idx].swap(EMPTY, Ordering::Relaxed);
                debug_assert_ne!(vals[idx], EMPTY, "ticketed cell must be filled");
                self.state = if idx == 2 {
                    DeqState::Release { ticket, vals }
                } else {
                    DeqState::Read {
                        ticket,
                        idx: idx + 1,
                        vals,
                    }
                };
                OpStep::Progress
            }
            DeqState::Release { ticket, vals } => {
                // Release the cell to the enqueue ticket one lap ahead.
                let cell = (ticket % cap) as usize;
                q.seq[cell].store(ticket + cap, Ordering::Release);
                q.dequeued.fetch_add(1, Ordering::Relaxed);
                let task = Task {
                    v1: vals[0],
                    v2: vals[1],
                    v3: vals[2],
                };
                self.state = DeqState::Finished { task: Some(task) };
                OpStep::Done(Some(task))
            }
            DeqState::Finished { task } => OpStep::Done(task),
        }
    }
}

/// The lock-free circular task queue.
///
/// The default capacity in the paper is N = 3 million integers (12 MB,
/// 1 M tasks); our scaled default is 64 Ki tasks, adjustable per device.
pub struct TaskQueue {
    slots: Box<[AtomicI32]>,
    /// Per-task-cell sequence tickets; cell `i` starts at `i`. A cell is
    /// writable by enqueue ticket `t` when `seq == t` and readable by
    /// dequeue ticket `t` when `seq == t + 1`; the reader hands the cell
    /// to the next lap by storing `t + cells`.
    seq: Box<[AtomicU64]>,
    /// Size-admission bound in slots (3 × the *logical* capacity). The
    /// physical ring is never smaller than 2 cells even for a logical
    /// capacity of 1: on a 1-cell ring the reader's release value
    /// `t + cells` equals the writer's publish value `t + 1`, so a
    /// lapping writer (admitted the moment the reader's admit freed
    /// `size`) could overwrite the cell mid-read. With ≥ 2 cells the
    /// lapping writer lands on a different cell and the collision cannot
    /// occur; admission still enforces the logical bound exactly.
    admit_limit: i64,
    size: AtomicI64,
    front: AtomicU64,
    back: AtomicU64,
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    rejected_full: AtomicU64,
    stall_yields: AtomicU64,
    peak_size: AtomicI64,
}

impl TaskQueue {
    /// Creates a queue holding up to `capacity_tasks` tasks.
    pub fn new(capacity_tasks: usize) -> Self {
        assert!(capacity_tasks >= 1, "queue needs at least one task slot");
        let cells = capacity_tasks.max(2);
        let slots = (0..cells * 3).map(|_| AtomicI32::new(EMPTY)).collect();
        let seq = (0..cells as u64).map(AtomicU64::new).collect();
        Self {
            slots,
            seq,
            admit_limit: (capacity_tasks * 3) as i64,
            size: AtomicI64::new(0),
            front: AtomicU64::new(0),
            back: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            stall_yields: AtomicU64::new(0),
            peak_size: AtomicI64::new(0),
        }
    }

    /// Capacity in tasks (the logical admission bound).
    pub fn capacity(&self) -> usize {
        (self.admit_limit / 3) as usize
    }

    /// Current task count (approximate under concurrency, exact when
    /// quiescent).
    pub fn len(&self) -> usize {
        (self.size.load(Ordering::Acquire).max(0) as usize) / 3
    }

    /// Whether the queue is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.size.load(Ordering::Acquire) <= 0
    }

    /// Start a step-wise enqueue (see the module docs).
    pub fn begin_enqueue(&self, task: Task) -> EnqueueOp<'_> {
        EnqueueOp {
            queue: self,
            task,
            state: EnqState::Admit,
        }
    }

    /// Start a step-wise dequeue (see the module docs).
    pub fn begin_dequeue(&self) -> DequeueOp<'_> {
        DequeueOp {
            queue: self,
            state: DeqState::Admit,
        }
    }

    /// Paper Alg. 3 lines 3–14. Returns `false` when the queue is full.
    pub fn enqueue(&self, task: Task) -> bool {
        let mut op = self.begin_enqueue(task);
        let mut blocked = 0u32;
        loop {
            match op.step() {
                OpStep::Done(admitted) => return admitted,
                OpStep::Progress => blocked = 0,
                OpStep::Blocked => {
                    blocked += 1;
                    if blocked >= SPIN_LIMIT {
                        blocked = 0;
                        self.stall_yields.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Paper Alg. 3 lines 15–26. Returns `None` when the queue is empty.
    pub fn dequeue(&self) -> Option<Task> {
        let mut op = self.begin_dequeue();
        let mut blocked = 0u32;
        loop {
            match op.step() {
                OpStep::Done(task) => return task,
                OpStep::Progress => blocked = 0,
                OpStep::Blocked => {
                    blocked += 1;
                    if blocked >= SPIN_LIMIT {
                        blocked = 0;
                        self.stall_yields.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Total successful enqueues.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Total successful dequeues.
    pub fn total_dequeued(&self) -> u64 {
        self.dequeued.load(Ordering::Relaxed)
    }

    /// Enqueue attempts rejected because the queue was full.
    pub fn total_rejected_full(&self) -> u64 {
        self.rejected_full.load(Ordering::Relaxed)
    }

    /// Times a production enqueue/dequeue exhausted its spin budget on a
    /// contended cell and yielded the OS thread. Nonzero values mean the
    /// host was oversubscribed enough that pure spinning would have
    /// livelocked.
    pub fn total_stall_yields(&self) -> u64 {
        self.stall_yields.load(Ordering::Relaxed)
    }

    /// Restarts the operation counters and the peak, so a device that
    /// runs several queries reports each one's figures alone. The ring
    /// itself needs no reset: an empty queue's tickets carry over.
    pub(crate) fn restart_counters(&self) {
        debug_assert!(self.is_empty(), "restarting the counters of a busy queue");
        for c in [
            &self.enqueued,
            &self.dequeued,
            &self.rejected_full,
            &self.stall_yields,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.peak_size.store(0, Ordering::Relaxed);
    }

    /// High-water mark of concurrently queued tasks — the paper's claim
    /// that the queue-first idle policy keeps `|Q_task|` small is checked
    /// against this.
    pub fn peak_tasks(&self) -> usize {
        (self.peak_size.load(Ordering::Relaxed).max(0) as usize) / 3
    }
}

impl std::fmt::Debug for TaskQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskQueue")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("enqueued", &self.total_enqueued())
            .field("dequeued", &self.total_dequeued())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_single_thread() {
        let q = TaskQueue::new(8);
        assert!(q.is_empty());
        assert!(q.enqueue(Task::triple(1, 2, 3)));
        assert!(q.enqueue(Task::pair(4, 5)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue(), Some(Task::triple(1, 2, 3)));
        let t = q.dequeue().unwrap();
        assert_eq!(t.prefix_len(), 2);
        assert_eq!((t.v1, t.v2, t.v3), (4, 5, PAD));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn full_rejection_and_recovery() {
        let q = TaskQueue::new(2);
        assert!(q.enqueue(Task::triple(1, 1, 1)));
        assert!(q.enqueue(Task::triple(2, 2, 2)));
        assert!(!q.enqueue(Task::triple(3, 3, 3)));
        assert_eq!(q.total_rejected_full(), 1);
        assert_eq!(q.dequeue().unwrap().v1, 1);
        assert!(q.enqueue(Task::triple(3, 3, 3)));
        assert_eq!(q.dequeue().unwrap().v1, 2);
        assert_eq!(q.dequeue().unwrap().v1, 3);
    }

    #[test]
    fn wraparound_many_cycles() {
        let q = TaskQueue::new(3);
        for round in 0..100u32 {
            assert!(q.enqueue(Task::triple(round, round + 1, round + 2)));
            let t = q.dequeue().unwrap();
            assert_eq!(t.v1 as u32, round);
        }
        assert!(q.is_empty());
        assert_eq!(q.total_enqueued(), 100);
        assert_eq!(q.total_dequeued(), 100);
    }

    #[test]
    fn peak_tracking() {
        let q = TaskQueue::new(10);
        for i in 0..5 {
            q.enqueue(Task::triple(i, i, i));
        }
        for _ in 0..5 {
            q.dequeue().unwrap();
        }
        assert_eq!(q.peak_tasks(), 5);
    }

    #[test]
    fn stepwise_ops_match_wrappers() {
        let q = TaskQueue::new(2);
        let mut enq = q.begin_enqueue(Task::triple(7, 8, 9));
        let mut steps = 0;
        let admitted = loop {
            steps += 1;
            match enq.step() {
                OpStep::Done(ok) => break ok,
                OpStep::Progress => {}
                OpStep::Blocked => panic!("uncontended enqueue must not block"),
            }
        };
        assert!(admitted);
        // Admit, Claim, Acquire, 3×Write, Publish.
        assert_eq!(steps, 7);
        let mut deq = q.begin_dequeue();
        let task = loop {
            match deq.step() {
                OpStep::Done(t) => break t,
                OpStep::Progress => {}
                OpStep::Blocked => panic!("uncontended dequeue must not block"),
            }
        };
        assert_eq!(task, Some(Task::triple(7, 8, 9)));
        assert!(q.is_empty());
    }

    #[test]
    fn stepwise_rejections_terminate_immediately() {
        let q = TaskQueue::new(1);
        assert!(q.enqueue(Task::triple(1, 1, 1)));
        let mut enq = q.begin_enqueue(Task::triple(2, 2, 2));
        // Full queue: the admit step itself reports Done(false).
        assert_eq!(enq.step(), OpStep::Done(false));
        assert_eq!(q.total_rejected_full(), 1);
        assert_eq!(q.dequeue().unwrap().v1, 1);
        let mut deq = q.begin_dequeue();
        assert_eq!(deq.step(), OpStep::Done(None));
    }

    #[test]
    fn concurrent_producers_consumers_no_loss() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = std::sync::Arc::new(TaskQueue::new(64));
        let produced_sum = std::sync::Arc::new(AtomicU64::new(0));
        let consumed_sum = std::sync::Arc::new(AtomicU64::new(0));
        const PER_THREAD: u32 = 5_000;
        const THREADS: u32 = 4;

        let mut handles = Vec::new();
        for t in 0..THREADS {
            let q = q.clone();
            let ps = produced_sum.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let v = t * PER_THREAD + i + 1;
                    while !q.enqueue(Task::triple(v, v, v)) {
                        std::thread::yield_now();
                    }
                    ps.fetch_add(v as u64, Ordering::Relaxed);
                }
            }));
        }
        let done = std::sync::Arc::new(AtomicU64::new(0));
        for _ in 0..THREADS {
            let q = q.clone();
            let cs = consumed_sum.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || loop {
                match q.dequeue() {
                    Some(t) => {
                        assert_eq!(t.v1, t.v2);
                        assert_eq!(t.v2, t.v3);
                        cs.fetch_add(t.v1 as u64, Ordering::Relaxed);
                    }
                    None => {
                        if done.load(Ordering::Relaxed) == 1 && q.is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }));
        }
        // Join producers first (the first THREADS handles).
        for h in handles.drain(..THREADS as usize) {
            h.join().unwrap();
        }
        done.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            produced_sum.load(Ordering::Relaxed),
            consumed_sum.load(Ordering::Relaxed),
            "every enqueued task must be dequeued exactly once"
        );
        assert_eq!(q.total_enqueued(), (THREADS * PER_THREAD) as u64);
        assert_eq!(q.total_dequeued(), (THREADS * PER_THREAD) as u64);
    }

    #[test]
    fn tiny_queue_wrap_contention_no_mixing() {
        // Regression: with a 2-task ring and mixed producers/consumers,
        // the paper's `-1`-CAS handoff let a stalled writer interleave
        // its stores with a writer one lap ahead, yielding mixed tasks.
        // Each thread round-trips tagged triples; any mixing trips the
        // v1==v2==v3 check, any loss/duplication breaks the final sums.
        // (tests/interleave.rs replays the same race deterministically.)
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = std::sync::Arc::new(TaskQueue::new(2));
        let in_sum = std::sync::Arc::new(AtomicU64::new(0));
        let out_sum = std::sync::Arc::new(AtomicU64::new(0));
        const PER_THREAD: u32 = 20_000;
        const THREADS: u32 = 4;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let q = q.clone();
            let in_sum = in_sum.clone();
            let out_sum = out_sum.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let v = t * PER_THREAD + i + 1;
                    while !q.enqueue(Task::triple(v, v, v)) {
                        std::hint::spin_loop();
                    }
                    in_sum.fetch_add(v as u64, Ordering::Relaxed);
                    loop {
                        if let Some(got) = q.dequeue() {
                            assert_eq!(got.v1, got.v2, "mixed task payload");
                            assert_eq!(got.v2, got.v3, "mixed task payload");
                            out_sum.fetch_add(got.v1 as u64, Ordering::Relaxed);
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_empty());
        assert_eq!(
            in_sum.load(Ordering::Relaxed),
            out_sum.load(Ordering::Relaxed)
        );
        assert_eq!(q.total_enqueued(), (THREADS * PER_THREAD) as u64);
        assert_eq!(q.total_dequeued(), (THREADS * PER_THREAD) as u64);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_capacity_rejected() {
        let _ = TaskQueue::new(0);
    }
}
