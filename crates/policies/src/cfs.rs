//! Completely Fair Scheduler — the Linux default (§III-C), simulated.
//!
//! Per-core run queues ordered by *virtual runtime*; the task with the
//! smallest vruntime runs next, for a time slice of
//! `max(sched_latency / nr_runnable, min_granularity)`. New tasks are
//! placed on the least-loaded core at that core's `min_vruntime`, so they
//! start running almost immediately (this is why CFS has near-zero response
//! time in the paper, Fig. 4/Table I). Idle cores steal from the most
//! loaded queue, approximating the kernel's load balancer.
//!
//! With equal weights, a task's vruntime advance equals its on-CPU time, so
//! we derive the effective vruntime as `offset + cpu_time`, where the
//! offset is fixed at enqueue time (placement at `min_vruntime`).
//!
//! The run queues are one type, [`CfsQueues`], driven by two policies:
//! [`Cfs`] adds least-loaded placement, the sleeper bonus and wakeup
//! preemption over a fixed core set, and the hybrid scheduler's long-task
//! group uses the same queues while cores join and leave the group.

use faas_kernel::{CoreId, CoreState, Machine, OfferScope, Scheduler, TaskId};
use faas_simcore::{MinHeap4, SimDuration};

/// Tunables of the simulated CFS (Linux-like defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfsParams {
    /// Scheduling period targeted when few tasks are runnable.
    pub sched_latency: SimDuration,
    /// Lower bound on any time slice.
    pub min_granularity: SimDuration,
    /// Wakeup preemption (`check_preempt_wakeup`): a newly placed task
    /// immediately preempts the running task when the running task's
    /// virtual runtime is at least `wakeup_granularity` ahead. This is
    /// what makes real CFS's response time near-zero even under load.
    pub wakeup_preemption: bool,
    /// Minimum vruntime lead before a wakeup preempts (Linux:
    /// `sysctl_sched_wakeup_granularity`, ~1 ms at unit weight).
    pub wakeup_granularity: SimDuration,
}

impl Default for CfsParams {
    fn default() -> Self {
        CfsParams {
            sched_latency: SimDuration::from_millis(24),
            min_granularity: SimDuration::from_millis(3),
            wakeup_preemption: true,
            wakeup_granularity: SimDuration::from_millis(1),
        }
    }
}

#[derive(Debug, Default)]
struct CoreRq {
    /// Runnable tasks keyed by effective vruntime (µs) with id tie-break.
    /// A dense 4-ary heap: picking the next task is a cache-local
    /// `pop_min` with no node allocation or pointer chasing, and the
    /// (vruntime, id) keys are unique, so min/max picks match the old
    /// `BTreeSet` ordering exactly.
    queue: MinHeap4<(i64, TaskId)>,
    /// Monotone floor for new placements.
    min_vruntime: i64,
}

/// Per-core CFS run queues over a changing set of member cores.
///
/// Queues are keyed by effective vruntime; an idle member core runs its
/// smallest-vruntime task for a latency-target slice, or first steals the
/// longest-waiting task of the most loaded sibling queue. Cores join with
/// [`CfsQueues::add_core`] and leave with [`CfsQueues::remove_core`].
///
/// `rqs` is a dense vector indexed by core id (`None` = not a member).
/// Steals and rebalancing pick victims by iterating it in core order, so
/// ties break the same way on every run (a `HashMap` here once made whole
/// simulations nondeterministic), and per-dispatch lookups are O(1).
#[derive(Debug)]
pub struct CfsQueues {
    rqs: Vec<Option<CoreRq>>,
    /// vruntime offset per task: effective vr = offset + cpu_time. Dense,
    /// indexed by `TaskId::index()` (the kernel assigns ids densely); a
    /// task never placed reads as 0.
    offsets: Vec<i64>,
    /// Tasks queued across all member cores (kept in step with every push
    /// and pop, so [`CfsQueues::queued`] is O(1)).
    queued: usize,
    /// Member queues holding two or more tasks — exactly the queues an
    /// idle core may steal from.
    crowded: usize,
    /// Sum of the core indices of all queued tasks: the lone task's core
    /// when `queued == 1`.
    core_sum: usize,
    sched_latency: SimDuration,
    min_granularity: SimDuration,
    /// Smallest runnable count at which the slice formula bottoms out at
    /// `min_granularity`; at or beyond it the per-dispatch hot path skips
    /// the division (loaded queues hit this constantly).
    slice_floor_nr: u64,
}

impl CfsQueues {
    /// Empty queues with no member cores.
    ///
    /// # Panics
    ///
    /// Panics if `min_granularity` is zero.
    pub fn new(sched_latency: SimDuration, min_granularity: SimDuration) -> Self {
        assert!(
            !min_granularity.is_zero(),
            "min_granularity must be positive"
        );
        CfsQueues {
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

    /// Makes `core` a member with an empty queue (no-op if it is one).
    pub fn add_core(&mut self, core: CoreId) {
        let idx = core.index();
        if idx >= self.rqs.len() {
            self.rqs.resize_with(idx + 1, || None);
        }
        if self.rqs[idx].is_none() {
            self.rqs[idx] = Some(CoreRq::default());
        }
    }

    /// Removes `core` from the members, returning its queued tasks in
    /// vruntime order.
    pub fn remove_core(&mut self, core: CoreId) -> Vec<TaskId> {
        let idx = core.index();
        match self.rqs.get_mut(idx).and_then(Option::take) {
            Some(rq) => {
                let len = rq.queue.len();
                self.queued -= len;
                self.core_sum -= idx * len;
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

    /// Whether `core` is a member.
    pub fn has_core(&self, core: CoreId) -> bool {
        matches!(self.rqs.get(core.index()), Some(Some(_)))
    }

    /// Tasks queued on `core` (0 for a non-member).
    pub fn queue_len(&self, core: CoreId) -> usize {
        match self.rqs.get(core.index()) {
            Some(Some(rq)) => rq.queue.len(),
            _ => 0,
        }
    }

    /// Tasks queued across all member cores.
    pub fn queued(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.members().map(|(_, rq)| rq.queue.len()).sum::<usize>(),
            "queued counter out of step with the run queues"
        );
        self.queued
    }

    /// Member queues holding two or more tasks. With an empty own queue,
    /// an idle core steals iff this is non-zero.
    fn crowded(&self) -> usize {
        debug_assert_eq!(
            self.crowded,
            self.members().filter(|(_, rq)| rq.queue.len() >= 2).count(),
            "crowded counter out of step with the run queues"
        );
        self.crowded
    }

    /// The core whose queue holds the only queued task. Meaningful only
    /// when [`CfsQueues::queued`] is 1.
    fn lone_core(&self) -> CoreId {
        debug_assert_eq!(self.queued, 1, "lone_core needs exactly one queued task");
        debug_assert_eq!(
            Some(self.core_sum),
            self.members()
                .find(|(_, rq)| !rq.queue.is_empty())
                .map(|(c, _)| c),
            "core sum out of step with the run queues"
        );
        CoreId::from_index(self.core_sum)
    }

    /// Whether [`CfsQueues::dispatch`] on idle member `core` would run a
    /// task: its own queue is non-empty, or some queue holds a task to
    /// steal.
    pub fn may_dispatch(&self, core: CoreId) -> bool {
        self.queue_len(core) > 0 || self.crowded() > 0
    }

    /// The member cores [`CfsQueues::may_dispatch`] says yes to, as one
    /// answer: with nothing to steal, only a core with a task of its own
    /// queued could use an offer.
    pub fn offer_scope(&self) -> OfferScope {
        if self.crowded() > 0 {
            return OfferScope::PerCore;
        }
        match self.queued() {
            0 => OfferScope::Nowhere,
            1 => OfferScope::Only(self.lone_core()),
            _ => OfferScope::PerCore,
        }
    }

    /// A task's effective vruntime (µs): its placement offset plus its
    /// on-CPU time so far.
    pub fn vruntime(&self, m: &Machine, task: TaskId) -> i64 {
        self.offsets.get(task.index()).copied().unwrap_or(0)
            + m.task(task).cpu_time().as_micros() as i64
    }

    /// Enqueues `task` fresh on member `core`, placed `bonus_us` below the
    /// core's `min_vruntime` (0: neither starved nor boosted; a positive
    /// bonus is the sleeper credit that arms wakeup preemption).
    pub fn place(&mut self, m: &Machine, core: CoreId, task: TaskId, bonus_us: i64) {
        let cpu = m.task(task).cpu_time().as_micros() as i64;
        let rq = self.rq_mut(core);
        let offset = rq.min_vruntime - bonus_us - cpu;
        rq.queue.push((offset + cpu, task));
        let len = rq.queue.len();
        self.pushed(core, len);
        if self.offsets.len() <= task.index() {
            self.offsets.resize(task.index() + 1, 0);
        }
        self.offsets[task.index()] = offset;
    }

    /// Re-enqueues `task` on member `core` keeping its offset: its
    /// vruntime advanced by the CPU time it consumed since placement.
    pub fn requeue(&mut self, m: &Machine, core: CoreId, task: TaskId) {
        let vr = self.vruntime(m, task);
        let rq = self.rq_mut(core);
        rq.queue.push((vr, task));
        let len = rq.queue.len();
        self.pushed(core, len);
    }

    /// Offers idle member `core` its next task: the smallest vruntime of
    /// its own queue, after stealing one if that queue is empty. Leaves
    /// the core idle when there is nothing to steal.
    pub fn dispatch(&mut self, m: &mut Machine, core: CoreId) {
        if self.queue_len(core) == 0 && !self.steal_into(m, core) {
            return;
        }
        let (task, slice) = self.pop(core).expect("non-empty queue");
        m.dispatch(core, task, Some(slice))
            .expect("cfs dispatch on idle core");
    }

    /// Pops the smallest-vruntime task of `core` together with its slice,
    /// sized by the tasks left queued behind it.
    fn pop(&mut self, core: CoreId) -> Option<(TaskId, SimDuration)> {
        let rq = self.rq_mut(core);
        let key = rq.queue.pop_min()?;
        rq.min_vruntime = rq.min_vruntime.max(key.0);
        let len = rq.queue.len();
        self.popped(core, len);
        Some((key.1, self.slice_for(len)))
    }

    fn slice_for(&self, queued_after_pick: usize) -> SimDuration {
        let nr = queued_after_pick as u64 + 1;
        if nr >= self.slice_floor_nr {
            // nr * min_granularity >= sched_latency, so the quotient can
            // only be <= min_granularity: the max() below would pick the
            // floor anyway. Skip the division.
            return self.min_granularity;
        }
        (self.sched_latency / nr).max(self.min_granularity)
    }

    /// Steals the longest-waiting task of the most loaded sibling queue
    /// (the last one on ties, length > 1) and places it fresh on `core`.
    /// Returns whether a steal happened.
    fn steal_into(&mut self, m: &Machine, core: CoreId) -> bool {
        if self.crowded == 0 {
            // No queue holds a task to spare: skip the scan.
            return false;
        }
        let victim = self
            .members()
            .filter(|&(c, _)| c != core.index())
            .max_by_key(|(_, rq)| rq.queue.len())
            .map(|(c, rq)| (c, rq.queue.len()));
        match victim {
            Some((v, len)) if len > 1 => {
                self.move_max(m, CoreId::from_index(v), core);
                true
            }
            _ => false,
        }
    }

    /// Rebalances queues so the longest and shortest differ by at most one
    /// (used after a core joins, §IV-B). Returns how many tasks moved.
    pub fn balance(&mut self, m: &Machine) -> usize {
        let mut moved = 0;
        loop {
            let longest = self.members().max_by_key(|(_, rq)| rq.queue.len());
            let shortest = self.members().min_by_key(|(_, rq)| rq.queue.len());
            let (Some((max_c, max_rq)), Some((min_c, min_rq))) = (longest, shortest) else {
                return moved;
            };
            if max_rq.queue.len() <= min_rq.queue.len() + 1 {
                return moved;
            }
            self.move_max(m, CoreId::from_index(max_c), CoreId::from_index(min_c));
            moved += 1;
        }
    }

    /// Moves the largest-vruntime task of `from` to `to`, placed fresh
    /// there.
    fn move_max(&mut self, m: &Machine, from: CoreId, to: CoreId) {
        let rq = self.rq_mut(from);
        let (_, task) = rq.queue.take_max().expect("non-empty");
        let len = rq.queue.len();
        self.popped(from, len);
        self.place(m, to, task, 0);
    }

    /// Books a push onto `core`'s queue, which now holds `len` tasks.
    fn pushed(&mut self, core: CoreId, len: usize) {
        self.queued += 1;
        self.core_sum += core.index();
        self.crowded += usize::from(len == 2);
    }

    /// Books a pop off `core`'s queue, which now holds `len` tasks.
    fn popped(&mut self, core: CoreId, len: usize) {
        self.queued -= 1;
        self.core_sum -= core.index();
        self.crowded -= usize::from(len == 1);
    }

    /// Iterates `(core index, queue)` over member cores in core order.
    fn members(&self) -> impl Iterator<Item = (usize, &CoreRq)> {
        self.rqs
            .iter()
            .enumerate()
            .filter_map(|(c, rq)| rq.as_ref().map(|rq| (c, rq)))
    }

    fn rq_mut(&mut self, core: CoreId) -> &mut CoreRq {
        self.rqs
            .get_mut(core.index())
            .and_then(Option::as_mut)
            .expect("queue op on a member core")
    }
}

/// The simulated CFS agent.
///
/// # Examples
///
/// ```
/// use faas_kernel::{MachineConfig, Simulation, TaskSpec};
/// use faas_policies::Cfs;
/// use faas_simcore::{SimDuration, SimTime};
///
/// // 20 concurrent 100 ms tasks on one core: they time-slice, so each
/// // task's wall-clock execution is far larger than its 100 ms of work.
/// let specs: Vec<TaskSpec> = (0..20)
///     .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128))
///     .collect();
/// let report = Simulation::new(MachineConfig::new(1), specs, Cfs::with_cores(1)).run()?;
/// let exec = report.tasks[0].execution_time().unwrap();
/// assert!(exec >= SimDuration::from_millis(500), "time slicing stretches execution");
/// # Ok::<(), faas_kernel::SimError>(())
/// ```
#[derive(Debug)]
pub struct Cfs {
    params: CfsParams,
    /// Every core is a member, for the whole run.
    queues: CfsQueues,
}

impl Cfs {
    /// CFS over `cores` cores with default parameters.
    pub fn with_cores(cores: usize) -> Self {
        Cfs::with_params(cores, CfsParams::default())
    }

    /// CFS with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `min_granularity` is zero.
    pub fn with_params(cores: usize, params: CfsParams) -> Self {
        assert!(cores > 0, "need at least one core");
        let mut queues = CfsQueues::new(params.sched_latency, params.min_granularity);
        for i in 0..cores {
            queues.add_core(CoreId::from_index(i));
        }
        Cfs { params, queues }
    }

    /// The parameters in use.
    pub fn params(&self) -> CfsParams {
        self.params
    }

    /// Runnable tasks queued on `core` (excluding the running one).
    pub fn queue_len(&self, core: usize) -> usize {
        self.queues.queue_len(CoreId::from_index(core))
    }

    fn least_loaded_core(&self, m: &Machine) -> CoreId {
        let (idx, _) = self
            .queues
            .members()
            .min_by_key(|&(i, rq)| {
                let running =
                    matches!(m.core_state(CoreId::from_index(i)), CoreState::Running(_)) as usize;
                rq.queue.len() + running
            })
            .expect("at least one core");
        CoreId::from_index(idx)
    }
}

impl Scheduler for Cfs {
    fn name(&self) -> &str {
        "cfs"
    }

    fn on_task_new(&mut self, m: &mut Machine, task: TaskId) {
        let core = self.least_loaded_core(m);
        // New tasks get the sleeper credit: placed half a latency period
        // below min_vruntime (bounded unfairness, like the kernel).
        let bonus = (self.params.sched_latency / 2).as_micros() as i64;
        self.queues.place(m, core, task, bonus);
        if !self.params.wakeup_preemption {
            return;
        }
        // check_preempt_wakeup: if the core is running something whose
        // vruntime is far enough ahead of the newcomer, kick it off now;
        // the idle sweep re-picks the smallest vruntime (the newcomer).
        if let Some((running, _)) = m.running_on(core) {
            let lead = self.queues.vruntime(m, running) - self.queues.vruntime(m, task);
            if lead >= self.params.wakeup_granularity.as_micros() as i64 {
                let evicted = m.preempt(core).expect("core was running");
                self.queues.requeue(m, core, evicted);
            }
        }
    }

    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        // Keep the accumulated offset: vruntime advanced by the on-CPU time.
        self.queues.requeue(m, core, task);
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        self.queues.dispatch(m, core);
    }

    fn may_dispatch(&self, core: CoreId) -> bool {
        self.queues.may_dispatch(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_kernel::{CostModel, MachineConfig, SimReport, Simulation, TaskSpec};
    use faas_simcore::{check, SimTime};

    fn run(cores: usize, specs: Vec<TaskSpec>) -> SimReport {
        let cfg = MachineConfig::new(cores).with_cost(CostModel::free());
        Simulation::new(cfg, specs, Cfs::with_cores(cores))
            .run()
            .unwrap()
    }

    fn uniform(n: usize, work_ms: u64) -> Vec<TaskSpec> {
        (0..n)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(work_ms), 128))
            .collect()
    }

    #[test]
    fn all_tasks_complete() {
        let report = run(4, uniform(64, 17));
        assert!(report.tasks.iter().all(|t| t.completion().is_some()));
    }

    #[test]
    fn fairness_equal_tasks_finish_together() {
        // 8 identical tasks on 1 core must all finish within one slice of
        // each other (processor sharing).
        let report = run(1, uniform(8, 40));
        let completions: Vec<u64> = report
            .tasks
            .iter()
            .map(|t| t.completion().unwrap().as_millis())
            .collect();
        let spread = completions.iter().max().unwrap() - completions.iter().min().unwrap();
        assert!(
            spread <= 40,
            "completion spread {spread}ms too wide for fair sharing"
        );
    }

    #[test]
    fn execution_time_stretches_with_concurrency() {
        let solo = run(1, uniform(1, 50));
        let crowded = run(1, uniform(10, 50));
        let solo_exec = solo.tasks[0].execution_time().unwrap();
        let crowded_exec = crowded.tasks[0].execution_time().unwrap();
        assert!(
            crowded_exec >= solo_exec * 5,
            "10-way sharing must stretch execution ≥5x (got {crowded_exec} vs {solo_exec})"
        );
    }

    #[test]
    fn response_time_stays_small_under_load() {
        // A task arriving into a busy system still gets on-CPU quickly —
        // the paper's Fig. 4 "nearly vertical CDS line" for CFS.
        let mut specs = uniform(16, 100);
        specs.push(TaskSpec::function(
            SimTime::from_millis(200),
            SimDuration::from_millis(10),
            128,
        ));
        let report = run(2, specs);
        let late = report.tasks.last().unwrap();
        assert!(
            late.response_time().unwrap() <= SimDuration::from_millis(30),
            "response was {}",
            late.response_time().unwrap()
        );
    }

    #[test]
    fn preemptions_scale_with_sharing() {
        let report = run(1, uniform(10, 50));
        assert!(report.total_preemptions() > 50, "heavy slicing expected");
    }

    #[test]
    fn work_stealing_fills_idle_cores() {
        // All tasks arrive at once; least-loaded placement spreads them,
        // but even if one queue drains early the idle core steals.
        let report = run(3, uniform(30, 20));
        let makespan = report.finished_at;
        // Perfect balance would be 200 ms; allow slack but far below the
        // 600 ms serial bound.
        assert!(makespan <= SimTime::from_millis(320), "makespan {makespan}");
    }

    #[test]
    fn wakeup_preemption_gives_instant_response() {
        // A long-running hog; a newcomer must preempt it immediately
        // instead of waiting for the slice timer.
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_secs(5), 128),
            TaskSpec::function(SimTime::from_millis(500), SimDuration::from_millis(10), 128),
        ];
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let report = Simulation::new(cfg, specs, Cfs::with_cores(1))
            .run()
            .unwrap();
        assert!(
            report.tasks[1].response_time().unwrap() <= SimDuration::from_millis(1),
            "wakeup preemption must run the newcomer immediately, got {}",
            report.tasks[1].response_time().unwrap()
        );
    }

    #[test]
    fn wakeup_preemption_can_be_disabled() {
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_secs(5), 128),
            TaskSpec::function(SimTime::from_millis(500), SimDuration::from_millis(10), 128),
        ];
        let params = CfsParams {
            wakeup_preemption: false,
            ..CfsParams::default()
        };
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let report = Simulation::new(cfg, specs, Cfs::with_params(1, params))
            .run()
            .unwrap();
        // Without the wakeup path the newcomer waits for the slice timer.
        assert!(
            report.tasks[1].response_time().unwrap() >= SimDuration::from_millis(2),
            "got {}",
            report.tasks[1].response_time().unwrap()
        );
    }

    /// An offer to an idle core dispatches exactly when `may_dispatch`
    /// says it will, across random queue states. The hint's recount
    /// against the queues is `queues_match_brute_force_recount`.
    #[test]
    fn may_dispatch_is_exact() {
        check::run("cfs_may_dispatch_is_exact", 64, |g| {
            let cores = g.usize_in(1, 6);
            let tasks = g.usize_in(0, 12);
            let specs = uniform(tasks, 10);
            let mut m = Machine::new(MachineConfig::new(cores), specs);
            let mut cfs = Cfs::with_cores(cores);
            for t in 0..tasks {
                let core = CoreId::from_index(g.usize_in(0, cores));
                cfs.queues.place(&m, core, TaskId::from_index(t), 0);
            }
            for c in 0..cores {
                let core = CoreId::from_index(c);
                let hinted = cfs.may_dispatch(core);
                cfs.on_core_idle(&mut m, core);
                let dispatched = m.core_state(core) != CoreState::Idle;
                assert_eq!(dispatched, hinted, "offer to core {c}");
            }
        });
    }

    /// The queues' O(1) counters and hints match a brute-force recount
    /// after every step of a random sequence over all the queue-changing
    /// operations: `queued` is the sum of the lengths, `crowded` the
    /// number of queues holding two or more tasks, with one task queued
    /// `lone_core` names the queue holding it, `may_dispatch` says yes to
    /// a member exactly when its own queue is non-empty or some queue
    /// holds two or more, and `offer_scope` never rules out a core that
    /// `may_dispatch` says yes to. A steal happens exactly when some other
    /// queue holds two or more. Half the cases keep every core a member,
    /// as `Cfs` does; the other half churn membership, as the hybrid's
    /// rightsizing does. Placements draw random sleeper bonuses.
    #[test]
    fn queues_match_brute_force_recount() {
        const CORES: usize = 6;
        const TASKS: usize = 24;
        check::run("queues_match_brute_force_recount", 128, |g| {
            let m = Machine::new(MachineConfig::new(CORES), uniform(TASKS, 10));
            let mut q = CfsQueues::new(SimDuration::from_millis(24), SimDuration::from_millis(3));
            let churn = g.boolean();
            if !churn {
                (0..CORES).for_each(|c| q.add_core(CoreId::from_index(c)));
            }
            let ops = if churn { 7 } else { 5 };
            // Tasks not in any run queue.
            let mut free: Vec<TaskId> = (0..TASKS).map(TaskId::from_index).collect();
            for _ in 0..g.usize_in(1, 120) {
                let live: Vec<CoreId> = (0..CORES)
                    .map(CoreId::from_index)
                    .filter(|&c| q.has_core(c))
                    .collect();
                let op = g.usize_in(0, ops);
                match op {
                    0 | 1 if !live.is_empty() && !free.is_empty() => {
                        let core = live[g.usize_in(0, live.len())];
                        let task = free.swap_remove(g.usize_in(0, free.len()));
                        if op == 0 {
                            q.place(&m, core, task, g.u64_in(0, 12_001) as i64);
                        } else {
                            q.requeue(&m, core, task);
                        }
                    }
                    2 if !live.is_empty() => {
                        if let Some((task, _)) = q.pop(live[g.usize_in(0, live.len())]) {
                            free.push(task);
                        }
                    }
                    3 if !live.is_empty() => {
                        let core = live[g.usize_in(0, live.len())];
                        let max_other = live
                            .iter()
                            .filter(|&&c| c != core)
                            .map(|&c| q.queue_len(c))
                            .max();
                        let stole = q.steal_into(&m, core);
                        assert_eq!(stole, max_other > Some(1), "steal outcome");
                    }
                    4 => {
                        q.balance(&m);
                    }
                    5 => q.add_core(CoreId::from_index(g.usize_in(0, CORES))),
                    6 => free.extend(q.remove_core(CoreId::from_index(g.usize_in(0, CORES)))),
                    _ => {}
                }
                let lens: Vec<(CoreId, usize)> = (0..CORES)
                    .map(CoreId::from_index)
                    .filter(|&c| q.has_core(c))
                    .map(|c| (c, q.queue_len(c)))
                    .collect();
                let brute: usize = lens.iter().map(|&(_, n)| n).sum();
                assert_eq!(q.queued(), brute, "after op {op}");
                let crowded = lens.iter().filter(|&&(_, n)| n >= 2).count();
                assert_eq!(q.crowded(), crowded, "crowded after op {op}");
                if brute == 1 {
                    let lone = lens.iter().find(|&&(_, n)| n == 1).map(|&(c, _)| c);
                    assert_eq!(Some(q.lone_core()), lone, "lone core after op {op}");
                }
                assert_eq!(brute + free.len(), TASKS, "a task was lost or duplicated");
                let willing: Vec<CoreId> = lens
                    .iter()
                    .filter(|&&(_, n)| n > 0 || crowded > 0)
                    .map(|&(c, _)| c)
                    .collect();
                for &(c, _) in &lens {
                    let hinted = q.may_dispatch(c);
                    assert_eq!(hinted, willing.contains(&c), "may_dispatch on {c:?}");
                }
                match q.offer_scope() {
                    OfferScope::PerCore => {}
                    OfferScope::Only(c) => assert_eq!(willing, [c], "offer scope after op {op}"),
                    OfferScope::Nowhere => assert!(willing.is_empty(), "offer scope after op {op}"),
                }
            }
        });
    }

    #[test]
    fn slice_respects_min_granularity() {
        let cfs = Cfs::with_cores(1);
        assert_eq!(cfs.queues.slice_for(0), SimDuration::from_millis(24));
        assert_eq!(cfs.queues.slice_for(1), SimDuration::from_millis(12));
        assert_eq!(cfs.queues.slice_for(100), SimDuration::from_millis(3));
    }
}
