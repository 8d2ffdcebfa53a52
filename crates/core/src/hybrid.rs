//! The hybrid two-group FIFO+CFS scheduler — the paper's contribution
//! (§IV, Fig. 7).
//!
//! Tasks first enter a centralized global FIFO queue served by the
//! *short-task* core group and run **without preemption** up to a time
//! limit. A task that exceeds the limit is preempted and migrated to the
//! *long-task* group, which runs CFS on the same
//! [`CfsQueues`](faas_policies::CfsQueues) as [`faas_policies::Cfs`],
//! with cores joining and leaving as the groups change size; migrated
//! tasks are spread round-robin (§IV-A). Two provider-side mechanisms
//! keep utilization high (§IV-B): the limit tracks a percentile of the
//! last 100 task durations, and a rightsizing controller moves cores
//! between the groups when their utilization diverges.

use std::collections::VecDeque;

use faas_kernel::{CoreId, CoreState, Machine, OfferScope, Scheduler, TaskId};
use faas_policies::CfsQueues;
use faas_simcore::{SimDuration, SimTime};

use crate::config::{CfsPlacement, HybridConfig, TimeLimitPolicy};
use crate::rightsizing::{
    MigrationDirection, MigrationReport, MigrationStep, RightsizingController,
};
use crate::window::SlidingWindow;

/// Which policy group a core currently belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Short-task group: centralized FIFO, no preemption below the limit.
    Fifo,
    /// Long-task group: per-core CFS queues.
    Cfs,
}

/// The hybrid scheduler agent.
///
/// The machine it drives must have exactly
/// [`HybridConfig::total_cores`] cores; cores `0..fifo_cores` start in the
/// FIFO group and the rest in the CFS group (matching the paper's Fig. 13
/// layout, where "the first 25 CPU cores are designated FIFO").
///
/// # Examples
///
/// ```
/// use faas_kernel::{MachineConfig, Simulation, TaskSpec};
/// use faas_simcore::{SimDuration, SimTime};
/// use hybrid_scheduler::{HybridConfig, HybridScheduler, TimeLimitPolicy};
///
/// // 2 FIFO + 2 CFS cores, 50 ms limit: short tasks fly through FIFO,
/// // the long task gets migrated to the CFS side.
/// let cfg = HybridConfig::split(2, 2)
///     .with_time_limit(TimeLimitPolicy::Fixed(SimDuration::from_millis(50)));
/// let mut specs = vec![TaskSpec::function(SimTime::ZERO, SimDuration::from_secs(1), 128)];
/// specs.extend((0..8).map(|i| {
///     TaskSpec::function(SimTime::from_millis(i * 5), SimDuration::from_millis(10), 128)
/// }));
/// let report = Simulation::new(
///     MachineConfig::new(cfg.total_cores()),
///     specs,
///     HybridScheduler::new(cfg),
/// )
/// .run()?;
/// // Short tasks ran uninterrupted…
/// assert!(report.tasks[1..].iter().all(|t| t.preemptions() == 0));
/// // …while the 1 s task was preempted off the FIFO group exactly once.
/// assert!(report.tasks[0].preemptions() >= 1);
/// # Ok::<(), faas_kernel::SimError>(())
/// ```
#[derive(Debug)]
pub struct HybridScheduler {
    cfg: HybridConfig,
    group_of: Vec<Group>,
    fifo_cores: Vec<CoreId>,
    cfs_cores: Vec<CoreId>,
    fifo_queue: VecDeque<TaskId>,
    cfs: CfsQueues,
    /// Round-robin pointer for placing migrated tasks (§IV-A).
    rr_next: usize,
    window: SlidingWindow,
    limit: SimDuration,
    limit_history: Vec<(SimTime, SimDuration)>,
    controller: Option<RightsizingController>,
    migrations: Vec<MigrationReport>,
    fifo_size_history: Vec<(SimTime, usize)>,
    tasks_migrated: u64,
    background_routed: u64,
    validated: bool,
}

impl HybridScheduler {
    /// Creates the agent for a machine with `cfg.total_cores()` cores.
    pub fn new(cfg: HybridConfig) -> Self {
        let total = cfg.total_cores();
        let mut group_of = Vec::with_capacity(total);
        let mut fifo_cores = Vec::new();
        let mut cfs_cores = Vec::new();
        let mut cfs = CfsQueues::new(cfg.sched_latency, cfg.min_granularity);
        for i in 0..total {
            let id = CoreId::from_index(i);
            if i < cfg.fifo_cores {
                group_of.push(Group::Fifo);
                fifo_cores.push(id);
            } else {
                group_of.push(Group::Cfs);
                cfs_cores.push(id);
                cfs.add_core(id);
            }
        }
        let limit = match cfg.time_limit {
            TimeLimitPolicy::Fixed(d) => d,
            TimeLimitPolicy::Adaptive { initial, .. } => initial,
        };
        assert!(!limit.is_zero(), "time limit must be positive");
        if let TimeLimitPolicy::Adaptive { percentile, .. } = cfg.time_limit {
            assert!(
                percentile > 0.0 && percentile <= 1.0,
                "percentile must be in (0, 1]"
            );
        }
        let controller = cfg.rightsizing.map(RightsizingController::new);
        let window = SlidingWindow::new(cfg.window_size);
        HybridScheduler {
            group_of,
            fifo_cores,
            cfs_cores,
            fifo_queue: VecDeque::new(),
            cfs,
            rr_next: 0,
            window,
            limit,
            limit_history: vec![(SimTime::ZERO, limit)],
            controller,
            migrations: Vec::new(),
            fifo_size_history: vec![(SimTime::ZERO, cfg.fifo_cores)],
            tasks_migrated: 0,
            background_routed: 0,
            validated: false,
            cfg,
        }
    }

    // ---- observability (used by the figure harnesses) -----------------

    /// The current FIFO preemption limit.
    pub fn limit(&self) -> SimDuration {
        self.limit
    }

    /// `(time, limit)` samples, one per limit change (Figs. 16/17).
    pub fn limit_history(&self) -> &[(SimTime, SimDuration)] {
        &self.limit_history
    }

    /// `(time, fifo_core_count)` samples, one per migration (Fig. 19).
    pub fn fifo_size_history(&self) -> &[(SimTime, usize)] {
        &self.fifo_size_history
    }

    /// Executed core migrations with their Fig. 8 protocol steps.
    pub fn migrations(&self) -> &[MigrationReport] {
        &self.migrations
    }

    /// How many tasks exceeded the limit and moved to the CFS group.
    pub fn tasks_migrated(&self) -> u64 {
        self.tasks_migrated
    }

    /// How many background-hinted tasks bypassed the FIFO stage (§VII-4
    /// routing; always 0 unless [`HybridConfig::honor_hints`] is set).
    pub fn background_routed(&self) -> u64 {
        self.background_routed
    }

    /// Cores currently in the FIFO group.
    pub fn fifo_cores(&self) -> &[CoreId] {
        &self.fifo_cores
    }

    /// Cores currently in the CFS group.
    pub fn cfs_cores(&self) -> &[CoreId] {
        &self.cfs_cores
    }

    /// Group membership of a core.
    pub fn group_of(&self, core: CoreId) -> Group {
        self.group_of[core.index()]
    }

    /// Length of the global FIFO queue.
    pub fn fifo_queue_len(&self) -> usize {
        self.fifo_queue.len()
    }

    /// Total tasks queued across all CFS-side run queues.
    pub fn cfs_queue_len(&self) -> usize {
        self.cfs.queued()
    }

    // ---- internals -----------------------------------------------------

    /// Picks the CFS core the next incoming task lands on: round-robin per
    /// the paper (§IV-A) or least-loaded for the ablation.
    fn next_cfs_target(&mut self) -> CoreId {
        debug_assert!(!self.cfs_cores.is_empty(), "CFS group never empty");
        match self.cfg.cfs_placement {
            CfsPlacement::RoundRobin => {
                self.rr_next %= self.cfs_cores.len();
                let target = self.cfs_cores[self.rr_next];
                self.rr_next = (self.rr_next + 1) % self.cfs_cores.len();
                target
            }
            CfsPlacement::LeastLoaded => self.shortest_cfs_core(),
        }
    }

    /// The CFS core with the shortest queue (the first of them in group
    /// order).
    fn shortest_cfs_core(&self) -> CoreId {
        *self
            .cfs_cores
            .iter()
            .min_by_key(|&&c| self.cfs.queue_len(c))
            .expect("cfs group non-empty")
    }

    /// Places a task that exceeded the limit onto the CFS side (§IV-A).
    fn migrate_task_to_cfs(&mut self, m: &Machine, task: TaskId) {
        let target = self.next_cfs_target();
        self.cfs.place(m, target, task, 0);
        self.tasks_migrated += 1;
    }

    fn dispatch_fifo(&mut self, m: &mut Machine, core: CoreId) {
        while let Some(task) = self.fifo_queue.pop_front() {
            // Budget left before the task hits the limit. Normally the full
            // limit; less if host-OS interference interrupted a run.
            let observed = m.task(task).cpu_time();
            match self.limit.checked_sub(observed) {
                Some(budget) if !budget.is_zero() => {
                    m.dispatch(core, task, Some(budget))
                        .expect("dispatch on idle fifo core");
                    return;
                }
                _ => {
                    // Already over the (possibly shrunken) limit: straight
                    // to the long-task group.
                    self.migrate_task_to_cfs(m, task);
                }
            }
        }
    }

    fn update_limit(&mut self, now: SimTime) {
        if let TimeLimitPolicy::Adaptive { percentile, .. } = self.cfg.time_limit {
            if self.window.len() >= self.cfg.min_samples {
                let p = self
                    .window
                    .percentile(percentile)
                    .expect("non-empty window")
                    .max(self.cfg.min_limit);
                if p != self.limit {
                    self.limit = p;
                    self.limit_history.push((now, p));
                }
            }
        }
    }

    /// Executes one core migration following the Fig. 8 protocol.
    fn migrate_core(&mut self, m: &mut Machine, direction: MigrationDirection) {
        let now = m.now();
        let mut steps = Vec::with_capacity(5);
        match direction {
            MigrationDirection::CfsToFifo => {
                // Donate the CFS core with the shortest queue.
                let core = self.shortest_cfs_core();
                debug_assert!(self.cfs.has_core(core), "donor must be a CFS member");
                // Step 1: lock — atomic here, recorded for observability.
                steps.push(MigrationStep::Lock(core));
                // Step 2: preempt the occupying task, if any, into a
                // sibling's queue.
                let preempted = match m.core_state(core) {
                    CoreState::Running(_) => {
                        let t = m.preempt(core).expect("running core preempts");
                        Some(t)
                    }
                    _ => None,
                };
                steps.push(MigrationStep::PreemptRunning(preempted));
                // Step 3: redistribute the core's queue to remaining cores.
                self.cfs_cores.retain(|c| *c != core);
                let mut orphans = self.cfs.remove_core(core);
                if let Some(t) = preempted {
                    orphans.push(t);
                }
                let n = orphans.len();
                for (i, t) in orphans.into_iter().enumerate() {
                    let target = self.cfs_cores[i % self.cfs_cores.len()];
                    self.cfs.place(m, target, t, 0);
                }
                steps.push(MigrationStep::RedistributeQueue(n));
                // Step 4: policy transition.
                self.group_of[core.index()] = Group::Fifo;
                self.fifo_cores.push(core);
                steps.push(MigrationStep::PolicyTransition(direction));
                // Step 5: unlock — the idle sweep will feed it FIFO work.
                steps.push(MigrationStep::Unlock(core));
                self.migrations.push(MigrationReport {
                    at: now,
                    core,
                    direction,
                    steps,
                });
            }
            MigrationDirection::FifoToCfs => {
                // Donate the most recently added FIFO core (LIFO keeps the
                // original short-task cores stable).
                let core = *self.fifo_cores.last().expect("fifo group non-empty");
                steps.push(MigrationStep::Lock(core));
                let preempted = match m.core_state(core) {
                    CoreState::Running(_) => {
                        let t = m.preempt(core).expect("running core preempts");
                        // Keeps its position: back to the queue head with
                        // its remaining limit budget.
                        self.fifo_queue.push_front(t);
                        Some(t)
                    }
                    _ => None,
                };
                steps.push(MigrationStep::PreemptRunning(preempted));
                self.fifo_cores.retain(|c| *c != core);
                self.group_of[core.index()] = Group::Cfs;
                self.cfs_cores.push(core);
                self.cfs.add_core(core);
                // §IV-B: the newcomer has an empty queue, so rebalance.
                let moved = self.cfs.balance(m);
                steps.push(MigrationStep::RedistributeQueue(moved));
                steps.push(MigrationStep::PolicyTransition(direction));
                steps.push(MigrationStep::Unlock(core));
                self.migrations.push(MigrationReport {
                    at: now,
                    core,
                    direction,
                    steps,
                });
            }
        }
        self.fifo_size_history.push((now, self.fifo_cores.len()));
        if let Some(c) = &mut self.controller {
            c.note_migration(now);
        }
    }

    fn group_utilization(&self, m: &Machine, cores: &[CoreId], window: SimDuration) -> f64 {
        if cores.is_empty() {
            return 0.0;
        }
        let now = m.now();
        cores
            .iter()
            .map(|c| m.utilization().windowed_utilization(c.index(), now, window))
            .sum::<f64>()
            / cores.len() as f64
    }
}

impl Scheduler for HybridScheduler {
    fn name(&self) -> &str {
        "hybrid-fifo+cfs"
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.cfg.tick)
    }

    fn on_task_new(&mut self, m: &mut Machine, task: TaskId) {
        if !self.validated {
            assert_eq!(
                m.num_cores(),
                self.cfg.total_cores(),
                "machine core count must match HybridConfig::total_cores()"
            );
            self.validated = true;
        }
        if self.cfg.honor_hints
            && m.task(task).spec().hint == faas_kernel::PlacementHint::Background
        {
            // §VII-4 extension: background threads (microVM VMM/I-O) skip
            // the latency-optimized FIFO stage entirely.
            let target = self.next_cfs_target();
            self.cfs.place(m, target, task, 0);
            self.background_routed += 1;
            return;
        }
        // §IV-A: tasks are first directed to the global FIFO queue.
        self.fifo_queue.push_back(task);
    }

    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        match self.group_of[core.index()] {
            // FIFO slice == remaining limit budget: the task is long.
            Group::Fifo => self.migrate_task_to_cfs(m, task),
            Group::Cfs => self.cfs.requeue(m, core, task),
        }
    }

    fn on_interference_preempt(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        match self.group_of[core.index()] {
            // The centralized agent re-queues the victim at the head so it
            // resumes as soon as a short-task core frees up.
            Group::Fifo => self.fifo_queue.push_front(task),
            Group::Cfs => self.cfs.requeue(m, core, task),
        }
    }

    fn on_task_finished(&mut self, m: &mut Machine, task: TaskId, _core: CoreId) {
        // §IV-B: remember the last `window_size` task durations. We record
        // actual on-CPU time: it equals the wall-clock duration for
        // unpreempted FIFO tasks and is the schedule-independent measure of
        // how long the function itself is.
        self.window.push(m.task(task).cpu_time());
        self.update_limit(m.now());
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        match self.group_of[core.index()] {
            Group::Fifo => self.dispatch_fifo(m, core),
            Group::Cfs => self.cfs.dispatch(m, core),
        }
    }

    fn may_dispatch(&self, core: CoreId) -> bool {
        match self.group_of[core.index()] {
            Group::Fifo => !self.fifo_queue.is_empty(),
            Group::Cfs => self.cfs.may_dispatch(core),
        }
    }

    fn renewal_slice(&self, core: CoreId) -> Option<SimDuration> {
        // Only CFS members renew; a FIFO slice expiry migrates the task.
        self.cfs.renewal_slice(core)
    }

    fn on_renewed(&mut self, m: &Machine, task: TaskId, core: CoreId) {
        self.cfs.renewed(m, core, task);
    }

    fn offer_scope(&self) -> OfferScope {
        if !self.fifo_queue.is_empty() {
            return OfferScope::PerCore;
        }
        // No FIFO work: every FIFO core declines, so the CFS group's
        // answer is the machine's.
        self.cfs.offer_scope()
    }

    fn on_tick(&mut self, m: &mut Machine) {
        let Some(controller) = &self.controller else {
            return;
        };
        let window = controller.window();
        let fifo_util = self.group_utilization(m, &self.fifo_cores, window);
        let cfs_util = self.group_utilization(m, &self.cfs_cores, window);
        let decision = controller.decide(
            m.now(),
            fifo_util,
            cfs_util,
            self.fifo_cores.len(),
            self.cfs_cores.len(),
        );
        if let Some(direction) = decision {
            self.migrate_core(m, direction);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CfsPlacement, RightsizingConfig};
    use faas_kernel::{CostModel, MachineConfig, SimReport, Simulation, TaskSpec};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn run(cfg: HybridConfig, specs: Vec<TaskSpec>) -> SimReport {
        let mcfg = MachineConfig::new(cfg.total_cores()).with_cost(CostModel::free());
        Simulation::new(mcfg, specs, HybridScheduler::new(cfg))
            .run()
            .unwrap()
    }

    fn mixed_specs(short: usize, long: usize) -> Vec<TaskSpec> {
        let mut v = Vec::new();
        for i in 0..long {
            v.push(TaskSpec::function(
                SimTime::from_millis(i as u64),
                ms(800),
                128,
            ));
        }
        for i in 0..short {
            v.push(TaskSpec::function(
                SimTime::from_millis(i as u64),
                ms(20),
                128,
            ));
        }
        v
    }

    #[test]
    fn short_tasks_never_preempted() {
        let cfg = HybridConfig::split(2, 2).with_time_limit(TimeLimitPolicy::Fixed(ms(100)));
        let report = run(cfg, mixed_specs(30, 2));
        for t in &report.tasks[2..] {
            assert_eq!(t.preemptions(), 0, "short task preempted");
            assert_eq!(t.execution_time().unwrap(), ms(20));
        }
    }

    #[test]
    fn long_tasks_migrate_exactly_once_off_fifo() {
        let cfg = HybridConfig::split(2, 2).with_time_limit(TimeLimitPolicy::Fixed(ms(100)));
        let mcfg = MachineConfig::new(4).with_cost(CostModel::free());
        let sim = Simulation::new(mcfg, mixed_specs(10, 3), HybridScheduler::new(cfg));
        let report = sim.run().unwrap();
        // Each 800 ms task consumed 100 ms on FIFO, then finished on CFS.
        for t in &report.tasks[..3] {
            assert!(t.preemptions() >= 1);
            assert!(t.completion().is_some());
        }
    }

    #[test]
    fn migrated_task_consumed_full_limit_on_fifo_side() {
        let cfg = HybridConfig::split(1, 1).with_time_limit(TimeLimitPolicy::Fixed(ms(100)));
        let specs = vec![TaskSpec::function(SimTime::ZERO, ms(500), 128)];
        let report = run(cfg, specs);
        let t = &report.tasks[0];
        assert_eq!(t.cpu_time(), ms(500), "free cost model: cpu time == work");
        assert!(t.preemptions() >= 1, "at least the migration preemption");
        // The FIFO core saw exactly one preemption: the limit migration.
        // The rest are warm CFS slice expiries on core 1.
        assert_eq!(report.core_stats[0].preemptions, 1);
        assert_eq!(
            report.core_stats[0].busy,
            ms(100),
            "FIFO side ran the task for the limit"
        );
    }

    #[test]
    fn adaptive_limit_tracks_percentile() {
        let cfg = HybridConfig::split(2, 2).with_time_limit(TimeLimitPolicy::Adaptive {
            percentile: 0.95,
            initial: ms(1_633),
        });
        let specs: Vec<TaskSpec> = (0..200)
            .map(|i| TaskSpec::function(SimTime::from_millis(i), ms(50 + (i % 20)), 128))
            .collect();
        let mcfg = MachineConfig::new(4).with_cost(CostModel::free());
        let mut sim = Simulation::new(mcfg, specs, HybridScheduler::new(cfg));
        while sim.step().unwrap() {}
        let policy = sim.policy();
        assert!(
            policy.limit() <= ms(70),
            "limit should have adapted down to the workload, got {}",
            policy.limit()
        );
        assert!(policy.limit_history().len() >= 2);
    }

    #[test]
    fn rightsizing_moves_cores_toward_load() {
        // All tasks are short: the CFS group sits idle and should donate
        // cores to the overloaded FIFO group.
        let cfg = HybridConfig::split(2, 4)
            .with_time_limit(TimeLimitPolicy::Fixed(ms(500)))
            .with_rightsizing(RightsizingConfig {
                window: SimDuration::from_millis(500),
                threshold: 0.3,
                cooldown: SimDuration::from_millis(200),
                min_cores: 1,
            });
        let specs: Vec<TaskSpec> = (0..400)
            .map(|i| TaskSpec::function(SimTime::from_millis(i / 4), ms(60), 128))
            .collect();
        let mcfg = MachineConfig::new(6).with_cost(CostModel::free());
        let mut sim = Simulation::new(mcfg, specs, HybridScheduler::new(cfg));
        while sim.step().unwrap() {}
        let policy = sim.policy();
        assert!(
            !policy.migrations().is_empty(),
            "overload imbalance should trigger at least one migration"
        );
        for report in policy.migrations() {
            assert!(
                report.follows_protocol(),
                "Fig. 8 ordering violated: {report:?}"
            );
            assert_eq!(report.direction, MigrationDirection::CfsToFifo);
        }
        assert!(policy.fifo_cores().len() > 2);
    }

    #[test]
    fn rightsizing_grows_cfs_side_under_long_load() {
        // All tasks are long: everything funnels through FIFO into CFS,
        // FIFO idles while CFS is overloaded.
        let cfg = HybridConfig::split(4, 2)
            .with_time_limit(TimeLimitPolicy::Fixed(ms(10)))
            .with_rightsizing(RightsizingConfig {
                window: SimDuration::from_millis(500),
                threshold: 0.3,
                cooldown: SimDuration::from_millis(200),
                min_cores: 1,
            });
        let specs: Vec<TaskSpec> = (0..60)
            .map(|i| TaskSpec::function(SimTime::from_millis(i * 5), ms(400), 128))
            .collect();
        let mcfg = MachineConfig::new(6).with_cost(CostModel::free());
        let mut sim = Simulation::new(mcfg, specs, HybridScheduler::new(cfg));
        while sim.step().unwrap() {}
        let policy = sim.policy();
        assert!(policy
            .migrations()
            .iter()
            .any(|r| r.direction == MigrationDirection::FifoToCfs));
        assert!(policy.cfs_cores().len() > 2);
    }

    #[test]
    fn background_hint_routes_straight_to_cfs_side() {
        use faas_kernel::PlacementHint;
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, ms(30), 128),
            TaskSpec::function(SimTime::ZERO, ms(30), 128).with_hint(PlacementHint::Background),
        ];
        let cfg = HybridConfig::split(1, 1)
            .with_time_limit(TimeLimitPolicy::Fixed(ms(1_000)))
            .with_hint_routing();
        let mcfg = MachineConfig::new(2).with_cost(CostModel::free());
        let mut sim = Simulation::new(mcfg, specs, HybridScheduler::new(cfg));
        while sim.step().unwrap() {}
        assert_eq!(sim.policy().background_routed(), 1);
        assert_eq!(
            sim.policy().tasks_migrated(),
            0,
            "hint routing is not a limit migration"
        );
        // The background task ran on the CFS core (core 1).
        let report_tasks = sim.machine().tasks();
        assert!(report_tasks.iter().all(|t| t.completion().is_some()));
    }

    #[test]
    fn hints_ignored_unless_enabled() {
        use faas_kernel::PlacementHint;
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, ms(30), 128).with_hint(PlacementHint::Background)
        ];
        let cfg = HybridConfig::split(1, 1).with_time_limit(TimeLimitPolicy::Fixed(ms(1_000)));
        let mcfg = MachineConfig::new(2).with_cost(CostModel::free());
        let mut sim = Simulation::new(mcfg, specs, HybridScheduler::new(cfg));
        while sim.step().unwrap() {}
        assert_eq!(sim.policy().background_routed(), 0);
    }

    #[test]
    fn least_loaded_placement_balances_queues() {
        let cfg = HybridConfig::split(1, 2)
            .with_time_limit(TimeLimitPolicy::Fixed(ms(10)))
            .with_cfs_placement(CfsPlacement::LeastLoaded);
        let specs: Vec<TaskSpec> = (0..12)
            .map(|_| TaskSpec::function(SimTime::ZERO, ms(200), 128))
            .collect();
        let mcfg = MachineConfig::new(3).with_cost(CostModel::free());
        let report = Simulation::new(mcfg, specs, HybridScheduler::new(cfg))
            .run()
            .unwrap();
        assert!(report.tasks.iter().all(|t| t.completion().is_some()));
    }

    #[test]
    fn group_membership_is_partition() {
        let cfg = HybridConfig::split(3, 5);
        let sched = HybridScheduler::new(cfg);
        assert_eq!(sched.fifo_cores().len(), 3);
        assert_eq!(sched.cfs_cores().len(), 5);
        for i in 0..8 {
            let core = CoreId::from_index(i);
            let g = sched.group_of(core);
            let in_fifo = sched.fifo_cores().contains(&core);
            let in_cfs = sched.cfs_cores().contains(&core);
            assert!(in_fifo ^ in_cfs);
            assert_eq!(g == Group::Fifo, in_fifo);
        }
    }

    #[test]
    fn everything_completes_under_pressure() {
        let cfg = HybridConfig::split(2, 2).with_time_limit(TimeLimitPolicy::Fixed(ms(50)));
        let specs: Vec<TaskSpec> = (0..300)
            .map(|i| {
                let work = if i % 10 == 0 { ms(300) } else { ms(15) };
                TaskSpec::function(SimTime::from_millis(i as u64 * 2), work, 128)
            })
            .collect();
        let report = run(cfg, specs);
        assert_eq!(
            report
                .tasks
                .iter()
                .filter(|t| t.completion().is_some())
                .count(),
            300
        );
    }

    #[test]
    fn hybrid_beats_cfs_on_execution_time() {
        // The paper's core claim (Fig. 12): execution times collapse
        // because short tasks stop being time-sliced.
        use faas_policies::Cfs;
        let specs = || -> Vec<TaskSpec> {
            (0..200)
                .map(|i| {
                    let work = if i % 10 == 0 { ms(2_000) } else { ms(50) };
                    TaskSpec::function(SimTime::from_millis(i as u64), work, 128)
                })
                .collect()
        };
        let cost = CostModel::default();
        let hybrid_cfg = HybridConfig::split(2, 2).with_time_limit(TimeLimitPolicy::Fixed(ms(500)));
        let hybrid = Simulation::new(
            MachineConfig::new(4).with_cost(cost),
            specs(),
            HybridScheduler::new(hybrid_cfg),
        )
        .run()
        .unwrap();
        let cfs = Simulation::new(
            MachineConfig::new(4).with_cost(cost),
            specs(),
            Cfs::with_cores(4),
        )
        .run()
        .unwrap();
        let mean_exec = |r: &SimReport| {
            r.tasks
                .iter()
                .map(|t| t.execution_time().unwrap().as_micros())
                .sum::<u64>() as f64
                / r.tasks.len() as f64
        };
        assert!(
            mean_exec(&hybrid) * 2.0 < mean_exec(&cfs),
            "hybrid {} vs cfs {}",
            mean_exec(&hybrid),
            mean_exec(&cfs)
        );
    }
}
