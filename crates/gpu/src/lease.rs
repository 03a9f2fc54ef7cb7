//! Task leases with epoch fencing — the at-most-once accounting layer
//! under durable execution.
//!
//! T-DFS's timeout decomposition (paper Alg. 4) makes every unit of
//! work a self-describing ≤ 3-vertex prefix task, which is exactly the
//! property a recovery protocol needs: a task lost with its worker can
//! be re-executed from its description alone. What re-execution does
//! *not* give for free is exactly-once counting — a worker that was
//! merely stalled (not dead) may come back and try to publish the same
//! task's count a second time. The [`LeaseTable`] closes that hole:
//!
//! - [`LeaseTable::lease`] hands a task out as a [`Lease`] `{ task,
//!   worker_id, epoch, deadline }` recorded in an outstanding-lease
//!   table;
//! - the worker [`LeaseTable::ack`]s on completion, which **publishes**
//!   the task's result exactly once;
//! - a reaper ([`LeaseTable::reap`]) reclaims expired leases and
//!   re-pends their tasks with a **bumped epoch**;
//! - **epoch fencing** rejects the ack of any lease whose `(task_id,
//!   epoch)` no longer matches the table — the zombie's work is
//!   discarded ([`AckOutcome::Fenced`]), the reclaimed copy's ack
//!   lands, and the count is credited once.
//!
//! The table is generic over the task payload: `tdfs-service` leases
//! edge-range shards of a whole query, and the cluster coordinator
//! leases the same shards to remote nodes. Reclaim accepts a
//! *splitter* so a straggling task can be decomposed into finer pieces
//! on requeue — the lease layer's analogue of the paper's timeout
//! decomposition.
//!
//! Leases are deliberately **not** on the intersect hot path: one lease
//! covers an entire task (service shards run millions of set
//! operations per lease), so a mutex-guarded table is the right
//! trade — the lock-free ring stays lock-free for in-engine task
//! traffic, and the lease book-keeping sits at the durability boundary.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A granted lease: the task plus the fencing token `(task_id, epoch)`.
///
/// The lease is a *capability to publish*: holding it lets the worker
/// execute the task, but only an [`LeaseTable::ack`] that passes the
/// epoch fence lands the result.
#[derive(Debug, Clone)]
pub struct Lease<T> {
    /// The leased task payload.
    pub task: T,
    /// Stable task identity (survives re-grants, not splits).
    pub task_id: u64,
    /// The worker the lease was granted to.
    pub worker_id: u32,
    /// Grant generation of this task; bumped on every reclaim. An ack
    /// carrying a stale epoch is fenced.
    pub epoch: u32,
    /// When the lease expires and becomes reapable.
    pub deadline: Instant,
}

/// What happened to an [`LeaseTable::ack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// The lease was current: the result is published, the task retired.
    Accepted,
    /// The lease was stale (reclaimed, re-granted, or already acked by
    /// the reclaimed copy): the caller must discard its result.
    Fenced,
}

/// Lifetime counters of a [`LeaseTable`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LeaseStats {
    /// Tasks ever submitted (including split children and restores).
    pub submitted: u64,
    /// Leases granted.
    pub granted: u64,
    /// Acks accepted (tasks retired).
    pub acked: u64,
    /// Acks rejected by the epoch fence (zombie publishes discarded).
    pub fenced: u64,
    /// Leases reclaimed — reaped after expiry or failed by the caller.
    pub reclaimed: u64,
    /// Leases returned unexecuted via [`LeaseTable::release`].
    pub released: u64,
    /// Child tasks created by splitting on reclaim.
    pub split_children: u64,
}

impl LeaseStats {
    /// Accumulates another table's counters (metrics aggregation across
    /// queries).
    pub fn merge(&mut self, other: &LeaseStats) {
        self.submitted += other.submitted;
        self.granted += other.granted;
        self.acked += other.acked;
        self.fenced += other.fenced;
        self.reclaimed += other.reclaimed;
        self.released += other.released;
        self.split_children += other.split_children;
    }
}

struct PendingTask<T> {
    id: u64,
    epoch: u32,
    task: T,
}

struct OutstandingLease<T> {
    task: T,
    epoch: u32,
    #[allow(dead_code)]
    worker_id: u32,
    deadline: Instant,
}

struct TableInner<T> {
    pending: VecDeque<PendingTask<T>>,
    outstanding: HashMap<u64, OutstandingLease<T>>,
    acked: BTreeSet<u64>,
    next_id: u64,
    max_epoch: u32,
    stats: LeaseStats,
}

/// A checkpoint of the table's recoverable state: every unfinished task
/// (outstanding leases demoted back to pending) plus the acked set.
#[derive(Debug, Clone)]
pub struct LeaseCheckpoint<T> {
    /// Unfinished tasks as `(task_id, epoch, task)` — unclaimed pending
    /// tasks plus outstanding leases demoted back to tasks.
    pub pending: Vec<(u64, u32, T)>,
    /// Ids of tasks whose results were published.
    pub acked: Vec<u64>,
    /// Id allocator position (restore with [`LeaseTable::restore`]).
    pub next_id: u64,
}

/// The table's work as a [`LeaseTable::wait_change`] exit condition
/// sees it, read under the table lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backlog {
    /// Unclaimed tasks.
    pub pending: usize,
    /// Live leases.
    pub outstanding: usize,
}

/// The outstanding-lease table (see module docs).
pub struct LeaseTable<T> {
    inner: Mutex<TableInner<T>>,
    changed: Condvar,
    timeout: Duration,
}

impl<T: Clone> LeaseTable<T> {
    /// An empty table whose leases expire `lease_timeout` after grant.
    pub fn new(lease_timeout: Duration) -> Self {
        Self {
            inner: Mutex::new(TableInner {
                pending: VecDeque::new(),
                outstanding: HashMap::new(),
                acked: BTreeSet::new(),
                next_id: 0,
                max_epoch: 0,
                stats: LeaseStats::default(),
            }),
            changed: Condvar::new(),
            timeout: lease_timeout,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner<T>> {
        // The table has no cross-field invariant a panicking caller
        // could break mid-update (every mutation completes under one
        // lock acquisition), so a poisoned lock is still safe to use —
        // and durable execution must keep functioning after a worker
        // panic by design.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Submits a fresh task; returns its id.
    pub fn submit(&self, task: T) -> u64 {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.stats.submitted += 1;
        inner.pending.push_back(PendingTask { id, epoch: 0, task });
        drop(inner);
        self.changed.notify_all();
        id
    }

    /// Restores a task from a checkpoint with an explicit id and epoch.
    pub fn restore(&self, id: u64, epoch: u32, task: T) {
        let mut inner = self.lock();
        inner.next_id = inner.next_id.max(id + 1);
        inner.max_epoch = inner.max_epoch.max(epoch);
        inner.stats.submitted += 1;
        inner.pending.push_back(PendingTask { id, epoch, task });
        drop(inner);
        self.changed.notify_all();
    }

    /// Marks a task id as already acked (checkpoint restore).
    pub fn restore_acked(&self, id: u64) {
        let mut inner = self.lock();
        inner.next_id = inner.next_id.max(id + 1);
        inner.acked.insert(id);
    }

    /// Grants a lease on the oldest pending task, if any.
    pub fn lease(&self, worker_id: u32) -> Option<Lease<T>> {
        let mut inner = self.lock();
        let p = inner.pending.pop_front()?;
        Some(self.grant_locked(&mut inner, p, worker_id))
    }

    /// Grants up to `max` leases on the oldest pending tasks in one lock
    /// acquisition — the remote-worker grant path, where each lease
    /// otherwise costs a network round trip. FIFO order and per-lease
    /// deadlines are identical to `max` individual [`LeaseTable::lease`]
    /// calls; an empty vec means nothing is pending.
    pub fn lease_batch(&self, worker_id: u32, max: usize) -> Vec<Lease<T>> {
        let mut inner = self.lock();
        let mut out = Vec::with_capacity(max.min(inner.pending.len()));
        while out.len() < max {
            let Some(p) = inner.pending.pop_front() else {
                break;
            };
            out.push(self.grant_locked(&mut inner, p, worker_id));
        }
        out
    }

    fn grant_locked(
        &self,
        inner: &mut TableInner<T>,
        p: PendingTask<T>,
        worker_id: u32,
    ) -> Lease<T> {
        let deadline = Instant::now() + self.timeout;
        inner.stats.granted += 1;
        inner.outstanding.insert(
            p.id,
            OutstandingLease {
                task: p.task.clone(),
                epoch: p.epoch,
                worker_id,
                deadline,
            },
        );
        Lease {
            task: p.task,
            task_id: p.id,
            worker_id,
            epoch: p.epoch,
            deadline,
        }
    }

    /// Whether `lease` would still pass the epoch fence right now.
    ///
    /// Advisory only (the answer can change before the ack); useful to
    /// skip side effects — e.g. flushing buffered emissions — that are
    /// pointless when the lease is already known stale.
    pub fn is_current(&self, lease: &Lease<T>) -> bool {
        let inner = self.lock();
        inner
            .outstanding
            .get(&lease.task_id)
            .is_some_and(|o| o.epoch == lease.epoch)
    }

    /// Publishes a completed lease. [`AckOutcome::Accepted`] exactly
    /// once per task; any stale publish is [`AckOutcome::Fenced`].
    pub fn ack(&self, lease: &Lease<T>) -> AckOutcome {
        let mut inner = self.lock();
        let current = inner
            .outstanding
            .get(&lease.task_id)
            .is_some_and(|o| o.epoch == lease.epoch);
        let out = if current {
            inner.outstanding.remove(&lease.task_id);
            inner.acked.insert(lease.task_id);
            inner.stats.acked += 1;
            AckOutcome::Accepted
        } else {
            inner.stats.fenced += 1;
            AckOutcome::Fenced
        };
        drop(inner);
        self.changed.notify_all();
        out
    }

    /// Returns an *unexecuted* lease to the pending queue (e.g. the
    /// worker observed a query-level cancel before starting). The epoch
    /// is bumped so the returned lease itself can never ack later.
    pub fn release(&self, lease: &Lease<T>) {
        let mut inner = self.lock();
        if let Some(o) = inner.outstanding.remove(&lease.task_id) {
            if o.epoch == lease.epoch {
                inner.stats.released += 1;
                let epoch = o.epoch + 1;
                inner.max_epoch = inner.max_epoch.max(epoch);
                inner.pending.push_back(PendingTask {
                    id: lease.task_id,
                    epoch,
                    task: o.task,
                });
            } else {
                // Someone else's lease now; put the entry back.
                inner.outstanding.insert(lease.task_id, o);
            }
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// Immediately reclaims a lease whose worker died (panicked):
    /// requeues the task through `split`, bumping the epoch. Returns
    /// whether the lease was current (a stale fail is a no-op).
    pub fn fail(&self, lease: &Lease<T>, split: impl FnOnce(&T) -> Vec<T>) -> bool {
        let mut inner = self.lock();
        let current = inner
            .outstanding
            .get(&lease.task_id)
            .is_some_and(|o| o.epoch == lease.epoch);
        if current {
            let o = inner.outstanding.remove(&lease.task_id).expect("checked");
            Self::requeue(&mut inner, lease.task_id, &o, split(&o.task));
            inner.stats.reclaimed += 1;
        }
        drop(inner);
        self.changed.notify_all();
        current
    }

    /// Reclaims every lease whose deadline has passed, requeuing each
    /// task through `split` with a bumped epoch. Returns the reclaimed
    /// lease ids (for revoking the zombies' cancellation tokens).
    pub fn reap(&self, now: Instant, mut split: impl FnMut(&T) -> Vec<T>) -> Vec<u64> {
        let mut inner = self.lock();
        let expired: Vec<u64> = inner
            .outstanding
            .iter()
            .filter(|(_, o)| now >= o.deadline)
            .map(|(&id, _)| id)
            .collect();
        for &id in &expired {
            let o = inner.outstanding.remove(&id).expect("listed");
            let pieces = split(&o.task);
            Self::requeue(&mut inner, id, &o, pieces);
            inner.stats.reclaimed += 1;
        }
        if !expired.is_empty() {
            drop(inner);
            self.changed.notify_all();
        }
        expired
    }

    fn requeue(inner: &mut TableInner<T>, id: u64, o: &OutstandingLease<T>, pieces: Vec<T>) {
        let epoch = o.epoch + 1;
        inner.max_epoch = inner.max_epoch.max(epoch);
        if pieces.len() <= 1 {
            // Unsplittable: re-pend the original task under its own id.
            inner.pending.push_back(PendingTask {
                id,
                epoch,
                task: pieces.into_iter().next().unwrap_or_else(|| o.task.clone()),
            });
        } else {
            for task in pieces {
                let cid = inner.next_id;
                inner.next_id += 1;
                inner.stats.submitted += 1;
                inner.stats.split_children += 1;
                inner.pending.push_back(PendingTask {
                    id: cid,
                    epoch,
                    task,
                });
            }
        }
    }

    /// Whether no work remains: nothing pending and nothing outstanding.
    pub fn drained(&self) -> bool {
        let inner = self.lock();
        inner.pending.is_empty() && inner.outstanding.is_empty()
    }

    /// Unclaimed tasks.
    pub fn pending_len(&self) -> usize {
        self.lock().pending.len()
    }

    /// Live leases.
    pub fn outstanding_len(&self) -> usize {
        self.lock().outstanding.len()
    }

    /// Highest epoch any task has reached — the wedged-query signal
    /// (a task reclaimed over and over is making no progress).
    pub fn max_epoch(&self) -> u32 {
        self.lock().max_epoch
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LeaseStats {
        self.lock().stats
    }

    /// Blocks until the table changes (grant/ack/requeue/submit/poke) or
    /// `timeout` elapses — the idle-worker parking primitive — unless
    /// `ready` already holds. `ready` is the waiter's exit condition,
    /// checked under the table lock before parking: a change, or a
    /// [`poke`](Self::poke) that follows an out-of-band condition
    /// flipping, cannot slip in between the waiter's last look and its
    /// park, so no wakeup is lost.
    pub fn wait_change(&self, timeout: Duration, ready: impl FnOnce(Backlog) -> bool) {
        let inner = self.lock();
        let backlog = Backlog {
            pending: inner.pending.len(),
            outstanding: inner.outstanding.len(),
        };
        if ready(backlog) {
            return;
        }
        let _ = self
            .changed
            .wait_timeout(inner, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }

    /// Wakes every `wait_change` waiter without mutating the table —
    /// for out-of-band conditions a waiter also watches (e.g. a shard
    /// worker exiting, which the durable watchdog keys its own exit
    /// on).
    pub fn poke(&self) {
        let _inner = self.lock();
        self.changed.notify_all();
    }

    /// Snapshot of the recoverable state. Outstanding leases are
    /// *demoted back to tasks* in the checkpoint — the live run keeps
    /// going, but a resume from this checkpoint re-executes them (their
    /// results were not yet published, so re-execution is safe).
    pub fn checkpoint(&self) -> LeaseCheckpoint<T> {
        let inner = self.lock();
        let mut pending: Vec<(u64, u32, T)> = inner
            .pending
            .iter()
            .map(|p| (p.id, p.epoch, p.task.clone()))
            .collect();
        pending.extend(
            inner
                .outstanding
                .iter()
                .map(|(&id, o)| (id, o.epoch, o.task.clone())),
        );
        pending.sort_by_key(|&(id, _, _)| id);
        LeaseCheckpoint {
            pending,
            acked: inner.acked.iter().copied().collect(),
            next_id: inner.next_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    const NO_SPLIT: fn(&u32) -> Vec<u32> = |t| vec![*t];

    #[test]
    fn ack_publishes_exactly_once() {
        let t = LeaseTable::new(Duration::from_secs(60));
        let id = t.submit(7u32);
        let lease = t.lease(0).unwrap();
        assert_eq!(lease.task_id, id);
        assert_eq!(lease.epoch, 0);
        assert_eq!(t.ack(&lease), AckOutcome::Accepted);
        assert_eq!(t.ack(&lease), AckOutcome::Fenced, "double ack is fenced");
        assert!(t.drained());
        let s = t.stats();
        assert_eq!((s.granted, s.acked, s.fenced), (1, 1, 1));
    }

    #[test]
    fn reap_bumps_epoch_and_fences_the_zombie() {
        let t = LeaseTable::new(Duration::ZERO); // leases expire instantly
        t.submit(7u32);
        let zombie = t.lease(0).unwrap();
        let reclaimed = t.reap(Instant::now(), NO_SPLIT);
        assert_eq!(reclaimed, vec![zombie.task_id]);
        // The reclaimed copy goes to a new worker with a bumped epoch.
        let fresh = t.lease(1).unwrap();
        assert_eq!(fresh.task_id, zombie.task_id);
        assert_eq!(fresh.epoch, zombie.epoch + 1);
        // Zombie wakes up and tries to publish: fenced.
        assert!(!t.is_current(&zombie));
        assert_eq!(t.ack(&zombie), AckOutcome::Fenced);
        // The live lease publishes once.
        assert_eq!(t.ack(&fresh), AckOutcome::Accepted);
        assert!(t.drained());
        assert_eq!(t.max_epoch(), 1);
    }

    #[test]
    fn fail_requeues_immediately_with_split() {
        let t = LeaseTable::new(Duration::from_secs(60));
        t.submit(10u32);
        let lease = t.lease(0).unwrap();
        // A panicking worker's task splits into two halves on reclaim.
        assert!(t.fail(&lease, |&v| vec![v / 2, v - v / 2]));
        assert_eq!(t.pending_len(), 2);
        assert_eq!(t.stats().split_children, 2);
        let a = t.lease(1).unwrap();
        let b = t.lease(2).unwrap();
        assert_eq!(a.epoch, 1);
        assert_eq!(a.task + b.task, 10);
        assert_ne!(a.task_id, lease.task_id, "split children get fresh ids");
        assert_eq!(t.ack(&lease), AckOutcome::Fenced, "parent can never ack");
        assert_eq!(t.ack(&a), AckOutcome::Accepted);
        assert_eq!(t.ack(&b), AckOutcome::Accepted);
        assert!(t.drained());
        assert!(!t.fail(&lease, NO_SPLIT), "stale fail is a no-op");
    }

    #[test]
    fn lease_batch_grants_fifo_and_acks_like_single_leases() {
        let t = LeaseTable::new(Duration::from_secs(60));
        for v in [10u32, 20, 30] {
            t.submit(v);
        }
        let batch = t.lease_batch(5, 2);
        assert_eq!(
            batch.iter().map(|l| l.task).collect::<Vec<_>>(),
            vec![10, 20],
            "batch grants oldest-first"
        );
        assert!(batch.iter().all(|l| l.worker_id == 5));
        assert_eq!(t.pending_len(), 1);
        assert_eq!(t.outstanding_len(), 2);
        // Remainder grants (batch larger than pending) and empty batches.
        let rest = t.lease_batch(6, 8);
        assert_eq!(rest.len(), 1);
        assert!(t.lease_batch(6, 8).is_empty());
        for l in batch.iter().chain(rest.iter()) {
            assert_eq!(t.ack(l), AckOutcome::Accepted);
        }
        assert!(t.drained());
        assert_eq!(t.stats().granted, 3);
    }

    #[test]
    fn release_returns_the_task_unexecuted() {
        let t = LeaseTable::new(Duration::from_secs(60));
        t.submit(3u32);
        let lease = t.lease(0).unwrap();
        t.release(&lease);
        assert_eq!(t.pending_len(), 1);
        assert_eq!(t.ack(&lease), AckOutcome::Fenced);
        let again = t.lease(0).unwrap();
        assert_eq!(again.task_id, lease.task_id);
        assert_eq!(again.epoch, lease.epoch + 1);
        assert_eq!(t.stats().released, 1);
    }

    #[test]
    fn checkpoint_demotes_outstanding_leases() {
        let t = LeaseTable::new(Duration::from_secs(60));
        let a = t.submit(1u32);
        let b = t.submit(2u32);
        let c = t.submit(3u32);
        let la = t.lease(0).unwrap();
        assert_eq!(t.ack(&la), AckOutcome::Accepted);
        let _lb = t.lease(0).unwrap(); // outstanding at checkpoint time
        let cp = t.checkpoint();
        assert_eq!(cp.acked, vec![a]);
        assert_eq!(cp.next_id, c + 1);
        // b (outstanding, demoted) and c (pending) are both recoverable.
        let ids: Vec<u64> = cp.pending.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(ids, vec![b, c]);

        // Restoring into a fresh table reproduces the unfinished work.
        let r = LeaseTable::new(Duration::from_secs(60));
        for &(id, epoch, task) in &cp.pending {
            r.restore(id, epoch, task);
        }
        for &id in &cp.acked {
            r.restore_acked(id);
        }
        assert_eq!(r.pending_len(), 2);
        assert_eq!(r.checkpoint().acked, vec![a]);
        let fresh = r.submit(4u32);
        assert!(fresh > c, "id allocator resumes past the checkpoint");
    }

    #[test]
    fn wait_change_wakes_on_submit() {
        let t = Arc::new(LeaseTable::new(Duration::from_secs(60)));
        let waiter = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(5);
                while t.pending_len() == 0 {
                    assert!(Instant::now() < deadline, "missed wakeup");
                    t.wait_change(Duration::from_millis(50), |_| false);
                }
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        t.submit(1u32);
        waiter.join().unwrap();
    }

    #[test]
    fn wait_change_returns_at_once_when_the_exit_condition_holds() {
        let t = LeaseTable::new(Duration::from_secs(60));
        t.submit(7u32);
        let _lease = t.lease(0).unwrap();
        t.submit(8u32);
        // Nothing will change the table: without the check the wait
        // would sleep out its whole minute.
        let started = Instant::now();
        let mut seen = None;
        t.wait_change(Duration::from_secs(60), |b| {
            seen = Some(b);
            true
        });
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(
            seen,
            Some(Backlog {
                pending: 1,
                outstanding: 1
            })
        );
        // An out-of-band condition works the same way.
        let done = std::sync::atomic::AtomicBool::new(true);
        let started = Instant::now();
        t.wait_change(Duration::from_secs(60), |_| done.load(Ordering::Acquire));
        assert!(started.elapsed() < Duration::from_secs(5));
        // A false condition still parks until the timeout.
        let started = Instant::now();
        t.wait_change(Duration::from_millis(20), |_| false);
        assert!(started.elapsed() >= Duration::from_millis(20));
    }
}
