//! The long-task (CFS) side of the hybrid scheduler.
//!
//! Per-core vruntime queues with *dynamic membership*: cores join and leave
//! as the rightsizing controller moves them between groups (§IV-B). The
//! scheduling logic matches `faas_policies::Cfs` (placement at
//! `min_vruntime`, latency-target slices, stealing), re-implemented here
//! because membership churn requires queue hand-off primitives a fixed-set
//! policy does not need.

use faas_kernel::{Machine, TaskId};
use faas_simcore::{MinHeap4, SimDuration};

#[derive(Debug, Default)]
struct Rq {
    /// Runnable tasks keyed by (vruntime, id) in a dense 4-ary heap —
    /// keys are unique, so `pop_min`/`take_max` reproduce the old
    /// `BTreeSet` iteration-order picks exactly, without per-insert node
    /// allocation.
    queue: MinHeap4<(i64, TaskId)>,
    min_vruntime: i64,
}

/// Dynamic-membership CFS run queues.
///
/// `rqs` is a dense vector indexed by core id (`None` = not a member).
/// `steal_into` and `balance` pick victims by iterating it, so iteration
/// order must be deterministic — a `HashMap` here once made tie-breaks,
/// and therefore whole simulations, nondeterministic across runs. The
/// dense layout also makes the per-dispatch queue lookups O(1).
#[derive(Debug)]
pub(crate) struct CfsSide {
    rqs: Vec<Option<Rq>>,
    /// vruntime offset per task: effective vr = offset + cpu_time.
    /// Dense, indexed by `TaskId::index()` (task ids are assigned densely
    /// by the kernel); absent entries read as 0, matching the old
    /// `HashMap::get(..).unwrap_or(0)` behavior without hashing on the
    /// enqueue/requeue hot path.
    offsets: Vec<i64>,
    /// Tasks queued across all member cores (kept in step with every
    /// push and pop, so [`CfsSide::total_queued`] is O(1)).
    queued: usize,
    /// Member queues holding two or more tasks — exactly the queues
    /// `steal_into` may take from (see [`CfsSide::crowded`]).
    crowded: usize,
    /// Sum of the core indices of all queued tasks: the lone task's core
    /// when `queued == 1` (see [`CfsSide::lone_core`]).
    core_sum: usize,
    sched_latency: SimDuration,
    min_granularity: SimDuration,
    /// Smallest runnable count at which the slice formula bottoms out at
    /// `min_granularity` (skips the division on the dispatch hot path).
    slice_floor_nr: u64,
}

impl CfsSide {
    pub(crate) fn new(sched_latency: SimDuration, min_granularity: SimDuration) -> Self {
        assert!(
            !min_granularity.is_zero(),
            "min_granularity must be positive"
        );
        CfsSide {
            rqs: Vec::new(),
            offsets: Vec::new(),
            queued: 0,
            crowded: 0,
            core_sum: 0,
            sched_latency,
            min_granularity,
            slice_floor_nr: sched_latency
                .as_micros()
                .div_ceil(min_granularity.as_micros()),
        }
    }

    pub(crate) fn add_core(&mut self, core: usize) {
        if core >= self.rqs.len() {
            self.rqs.resize_with(core + 1, || None);
        }
        if self.rqs[core].is_none() {
            self.rqs[core] = Some(Rq::default());
        }
    }

    /// Removes a core, returning its queued tasks in vruntime order.
    pub(crate) fn remove_core(&mut self, core: usize) -> Vec<TaskId> {
        match self.rqs.get_mut(core).and_then(Option::take) {
            Some(rq) => {
                let len = rq.queue.len();
                self.queued -= len;
                self.core_sum -= core * len;
                self.crowded -= usize::from(len >= 2);
                rq.queue
                    .into_sorted_vec()
                    .into_iter()
                    .map(|(_, t)| t)
                    .collect()
            }
            None => Vec::new(),
        }
    }

    pub(crate) fn has_core(&self, core: usize) -> bool {
        matches!(self.rqs.get(core), Some(Some(_)))
    }

    pub(crate) fn queue_len(&self, core: usize) -> usize {
        match self.rqs.get(core) {
            Some(Some(r)) => r.queue.len(),
            _ => 0,
        }
    }

    /// Total queued tasks across all member cores.
    pub(crate) fn total_queued(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.rqs
                .iter()
                .flatten()
                .map(|r| r.queue.len())
                .sum::<usize>(),
            "queued counter out of step with the run queues"
        );
        self.queued
    }

    /// Member queues holding two or more tasks. With an empty own queue,
    /// `steal_into` succeeds iff this is non-zero.
    pub(crate) fn crowded(&self) -> usize {
        debug_assert_eq!(
            self.crowded,
            self.members().filter(|(_, r)| r.queue.len() >= 2).count(),
            "crowded counter out of step with the run queues"
        );
        self.crowded
    }

    /// The core whose queue holds the only queued task. Meaningful only
    /// when [`CfsSide::total_queued`] is 1.
    pub(crate) fn lone_core(&self) -> usize {
        debug_assert_eq!(self.queued, 1, "lone_core needs exactly one queued task");
        debug_assert_eq!(
            Some(self.core_sum),
            self.members()
                .find(|(_, r)| !r.queue.is_empty())
                .map(|(c, _)| c),
            "core sum out of step with the run queues"
        );
        self.core_sum
    }

    /// Books a push onto `core`'s queue, which now holds `len` tasks.
    fn pushed(&mut self, core: usize, len: usize) {
        self.queued += 1;
        self.core_sum += core;
        self.crowded += usize::from(len == 2);
    }

    /// Books a pop off `core`'s queue, which now holds `len` tasks.
    fn popped(&mut self, core: usize, len: usize) {
        self.queued -= 1;
        self.core_sum -= core;
        self.crowded -= usize::from(len == 1);
    }

    /// Iterates `(core, rq)` over member cores in ascending core order.
    fn members(&self) -> impl Iterator<Item = (usize, &Rq)> {
        self.rqs
            .iter()
            .enumerate()
            .filter_map(|(c, rq)| rq.as_ref().map(|r| (c, r)))
    }

    fn rq_mut(&mut self, core: usize) -> Option<&mut Rq> {
        self.rqs.get_mut(core).and_then(Option::as_mut)
    }

    fn effective_vr(&self, m: &Machine, task: TaskId) -> i64 {
        self.offsets.get(task.index()).copied().unwrap_or(0)
            + m.task(task).cpu_time().as_micros() as i64
    }

    /// Enqueues a task entering this core fresh: placed at the core's
    /// `min_vruntime` so it is not starved nor unfairly boosted.
    pub(crate) fn enqueue_new(&mut self, m: &Machine, core: usize, task: TaskId) {
        let cpu = m.task(task).cpu_time().as_micros() as i64;
        let rq = self
            .rqs
            .get_mut(core)
            .and_then(Option::as_mut)
            .expect("enqueue on member core");
        let offset = rq.min_vruntime - cpu;
        rq.queue.push((offset + cpu, task));
        let len = rq.queue.len();
        self.pushed(core, len);
        if self.offsets.len() <= task.index() {
            self.offsets.resize(task.index() + 1, 0);
        }
        self.offsets[task.index()] = offset;
    }

    /// Re-enqueues a task that already belongs to this core (slice expiry);
    /// its vruntime advanced by the CPU time it just consumed.
    pub(crate) fn requeue(&mut self, m: &Machine, core: usize, task: TaskId) {
        let vr = self.effective_vr(m, task);
        let rq = self.rq_mut(core).expect("requeue on member core");
        rq.queue.push((vr, task));
        let len = rq.queue.len();
        self.pushed(core, len);
    }

    /// Pops the smallest-vruntime task of `core` together with its slice.
    pub(crate) fn pop(&mut self, core: usize) -> Option<(TaskId, SimDuration)> {
        let (sched_latency, min_granularity) = (self.sched_latency, self.min_granularity);
        let rq = self.rq_mut(core)?;
        let key = rq.queue.pop_min()?;
        rq.min_vruntime = rq.min_vruntime.max(key.0);
        let len = rq.queue.len();
        self.popped(core, len);
        let nr = len as u64 + 1;
        let slice = if nr >= self.slice_floor_nr {
            // The quotient cannot exceed min_granularity here; skip the
            // division on the loaded-queue hot path.
            min_granularity
        } else {
            (sched_latency / nr).max(min_granularity)
        };
        Some((key.1, slice))
    }

    /// Steals the longest-waiting task from the most loaded sibling queue
    /// (length > 1) and enqueues it fresh on `core`. Returns whether a
    /// steal happened.
    pub(crate) fn steal_into(&mut self, m: &Machine, core: usize) -> bool {
        if self.crowded == 0 {
            // No queue holds a task to spare: skip the scan.
            return false;
        }
        let victim = self
            .members()
            .filter(|&(c, _)| c != core)
            .max_by_key(|(_, rq)| rq.queue.len())
            .map(|(c, rq)| (c, rq.queue.len()));
        match victim {
            Some((v, len)) if len > 1 => {
                self.move_max(m, v, core);
                true
            }
            _ => false,
        }
    }

    /// Rebalances queues so the longest and shortest differ by at most one
    /// (used after a core joins the group, §IV-B). Returns how many tasks
    /// moved.
    pub(crate) fn balance(&mut self, m: &Machine) -> usize {
        let mut moved = 0;
        loop {
            let (max_c, max_len) = match self.members().max_by_key(|(_, r)| r.queue.len()) {
                Some((c, r)) => (c, r.queue.len()),
                None => return moved,
            };
            let (min_c, min_len) = match self.members().min_by_key(|(_, r)| r.queue.len()) {
                Some((c, r)) => (c, r.queue.len()),
                None => return moved,
            };
            if max_len <= min_len + 1 {
                return moved;
            }
            self.move_max(m, max_c, min_c);
            moved += 1;
        }
    }

    /// Moves the largest-vruntime task of `from` to `to`, enqueued fresh
    /// there.
    fn move_max(&mut self, m: &Machine, from: usize, to: usize) {
        let rq = self.rq_mut(from).expect("source is a member");
        let (_, task) = rq.queue.take_max().expect("non-empty");
        let len = rq.queue.len();
        self.popped(from, len);
        self.enqueue_new(m, to, task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_kernel::{MachineConfig, TaskSpec};
    use faas_simcore::check;
    use faas_simcore::SimTime;

    /// The O(1) counters match a brute-force recount of the run queues
    /// after every step of a random sequence over all the queue-changing
    /// operations, membership churn included: `queued` is the sum of the
    /// lengths, `crowded` the number of queues holding two or more tasks,
    /// and with one task queued `lone_core` names the queue holding it.
    /// A steal happens exactly when some other queue holds two or more.
    #[test]
    fn queued_counter_matches_brute_force_sum() {
        const CORES: usize = 6;
        const TASKS: usize = 24;
        check::run("queued_counter_matches_brute_force_sum", 64, |g| {
            let specs: Vec<TaskSpec> = (0..TASKS)
                .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128))
                .collect();
            let m = Machine::new(MachineConfig::new(CORES), specs);
            let mut cfs = CfsSide::new(SimDuration::from_millis(24), SimDuration::from_millis(3));
            // Tasks not in any run queue.
            let mut free: Vec<TaskId> = (0..TASKS).map(TaskId::from_index).collect();
            let members =
                |cfs: &CfsSide| -> Vec<usize> { (0..CORES).filter(|&c| cfs.has_core(c)).collect() };
            for _ in 0..g.usize_in(1, 120) {
                let live = members(&cfs);
                let op = g.usize_in(0, 7);
                match op {
                    0 | 1 if !live.is_empty() && !free.is_empty() => {
                        let core = live[g.usize_in(0, live.len())];
                        let task = free.swap_remove(g.usize_in(0, free.len()));
                        if op == 0 {
                            cfs.enqueue_new(&m, core, task);
                        } else {
                            cfs.requeue(&m, core, task);
                        }
                    }
                    2 if !live.is_empty() => {
                        if let Some((task, _)) = cfs.pop(live[g.usize_in(0, live.len())]) {
                            free.push(task);
                        }
                    }
                    3 if !live.is_empty() => {
                        let core = live[g.usize_in(0, live.len())];
                        let max_other = live
                            .iter()
                            .filter(|&&c| c != core)
                            .map(|&c| cfs.queue_len(c))
                            .max();
                        let stole = cfs.steal_into(&m, core);
                        assert_eq!(stole, max_other > Some(1), "steal outcome");
                    }
                    4 => {
                        cfs.balance(&m);
                    }
                    5 => cfs.add_core(g.usize_in(0, CORES)),
                    6 => free.extend(cfs.remove_core(g.usize_in(0, CORES))),
                    _ => {}
                }
                let lens: Vec<(usize, usize)> = (0..CORES)
                    .filter(|&c| cfs.has_core(c))
                    .map(|c| (c, cfs.queue_len(c)))
                    .collect();
                let brute: usize = lens.iter().map(|&(_, n)| n).sum();
                assert_eq!(cfs.total_queued(), brute, "after op {op}");
                let crowded = lens.iter().filter(|&&(_, n)| n >= 2).count();
                assert_eq!(cfs.crowded(), crowded, "crowded after op {op}");
                if brute == 1 {
                    let lone = lens.iter().find(|&&(_, n)| n == 1).map(|&(c, _)| c);
                    assert_eq!(Some(cfs.lone_core()), lone, "lone core after op {op}");
                }
                assert_eq!(brute + free.len(), TASKS, "a task was lost or duplicated");
            }
        });
    }
}
