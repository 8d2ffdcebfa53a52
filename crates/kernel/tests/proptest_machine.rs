//! Property tests of the kernel substrate under an adversarial agent: a
//! chaos policy that dispatches arbitrary runnable tasks with arbitrary
//! slices and preempts cores at random. Whatever the agent does, the
//! kernel's accounting must stay consistent and all work must eventually
//! complete.

use faas_kernel::{
    CoreId, CoreState, CostModel, InterferenceConfig, KernelMessage, Machine, MachineConfig,
    OfferScope, Scheduler, Simulation, TaskId, TaskSpec,
};
use faas_simcore::check::{self, Gen};
use faas_simcore::{SimDuration, SimTime};

use faas_simcore::SimDuration as Dur;

#[path = "common/brute_force.rs"]
mod brute_force;
use brute_force::{run_brute_force, run_per_core_walk};

/// A deterministic chaos agent driven by an LCG.
struct Chaos {
    runnable: Vec<TaskId>,
    state: u64,
    preempt_bias: bool,
}

impl Chaos {
    fn new(seed: u64, preempt_bias: bool) -> Self {
        Chaos {
            runnable: Vec::new(),
            state: seed | 1,
            preempt_bias,
        }
    }
    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 33
    }
}

impl Scheduler for Chaos {
    fn name(&self) -> &str {
        "chaos"
    }
    fn on_task_new(&mut self, _m: &mut Machine, task: TaskId) {
        self.runnable.push(task);
    }
    fn on_slice_expired(&mut self, _m: &mut Machine, task: TaskId, _core: CoreId) {
        self.runnable.push(task);
    }
    fn on_task_finished(&mut self, m: &mut Machine, _task: TaskId, _core: CoreId) {
        // Occasionally preempt some other running core for no reason.
        if self.preempt_bias && self.next().is_multiple_of(3) {
            let cores = m.num_cores();
            let victim = CoreId::from_index((self.next() as usize) % cores);
            if matches!(m.core_state(victim), CoreState::Running(_)) {
                let t = m.preempt(victim).expect("victim was running");
                self.runnable.push(t);
            }
        }
    }
    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        if self.runnable.is_empty() {
            return;
        }
        let idx = (self.next() as usize) % self.runnable.len();
        let task = self.runnable.swap_remove(idx);
        // Random slice: sometimes none, sometimes tiny, sometimes large.
        let slice = match self.next() % 4 {
            0 => None,
            1 => Some(Dur::from_micros(1 + self.next() % 500)),
            2 => Some(Dur::from_millis(1 + self.next() % 20)),
            _ => Some(Dur::from_secs(10)),
        };
        m.dispatch(core, task, slice)
            .expect("dispatch on idle core");
    }
    /// Exact: an offer with nothing runnable returns before touching the
    /// LCG or the machine, so the batched sweep's skip path runs here.
    fn may_dispatch(&self, _core: CoreId) -> bool {
        !self.runnable.is_empty()
    }
    /// Settles the whole sweep at once when nothing is runnable.
    fn offer_scope(&self) -> OfferScope {
        if self.runnable.is_empty() {
            OfferScope::Nowhere
        } else {
            OfferScope::PerCore
        }
    }
}

fn arb_specs(g: &mut Gen) -> Vec<TaskSpec> {
    let n = g.usize_in(1, 40);
    (0..n)
        .map(|_| {
            let arr = g.u64_in(0, 2_000);
            let work = g.u64_in(1, 500);
            TaskSpec::function(
                SimTime::from_millis(arr),
                SimDuration::from_millis(work),
                128,
            )
        })
        .collect()
}

/// Whatever the chaos agent does, accounting stays consistent.
#[test]
fn kernel_accounting_survives_chaos() {
    check::run("kernel_accounting_survives_chaos", 64, |g| {
        let specs = arb_specs(g);
        let seed = g.u64_in(0, u64::MAX);
        let cores = g.usize_in(1, 5);
        let preempt_bias = g.boolean();
        let cfg = MachineConfig::new(cores)
            .with_cost(CostModel::from_micros(3, 50))
            .with_message_log();
        let total = specs.len();
        let works: Vec<SimDuration> = specs.iter().map(|s| s.work).collect();
        let report = Simulation::new(cfg, specs, Chaos::new(seed, preempt_bias))
            .run()
            .expect("chaos must not deadlock the kernel");
        assert_eq!(report.tasks.len(), total);
        for (task, work) in report.tasks.iter().zip(&works) {
            assert!(task.completion().is_some());
            // A task consumes at least its nominal work; preemptions only add.
            assert!(task.cpu_time() >= *work);
            let exec = task.execution_time().unwrap();
            assert!(
                exec + SimDuration::from_micros(1) >= task.cpu_time() - (task.cpu_time() - *work),
                "execution wall-clock below pure work"
            );
        }
        // Busy time is bounded by capacity.
        let busy: SimDuration = report.core_stats.iter().map(|s| s.busy).sum();
        let cap = SimDuration::from_micros(report.finished_at.as_micros() * cores as u64);
        assert!(busy <= cap + SimDuration::from_micros(1));
    });
}

/// The kernel message protocol is well-formed under chaos: one
/// TaskNew and one TaskDead per task, dispatches between them.
#[test]
fn message_protocol_is_well_formed() {
    check::run("message_protocol_is_well_formed", 64, |g| {
        let specs = arb_specs(g);
        let seed = g.u64_in(0, u64::MAX);
        let cfg = MachineConfig::new(2).with_message_log();
        let total = specs.len();
        let report = Simulation::new(cfg, specs, Chaos::new(seed, true))
            .run()
            .expect("completes");
        let log = report.machine.messages();
        let mut news = vec![0u32; total];
        let mut deads = vec![0u32; total];
        let mut dispatches = vec![0u32; total];
        for (_, msg) in log {
            match msg {
                KernelMessage::TaskNew { task } => news[task.index()] += 1,
                KernelMessage::TaskDead { task, .. } => deads[task.index()] += 1,
                KernelMessage::Dispatch { task, .. } => dispatches[task.index()] += 1,
                _ => {}
            }
        }
        for i in 0..total {
            assert_eq!(news[i], 1, "exactly one TaskNew");
            assert_eq!(deads[i], 1, "exactly one TaskDead");
            assert!(dispatches[i] >= 1, "ran at least once");
        }
        // Per task: TaskNew precedes first Dispatch precedes TaskDead.
        for i in 0..total {
            let tid = |m: &KernelMessage| m.task().map(|t| t.index() == i).unwrap_or(false);
            let first_new = log
                .iter()
                .position(|(_, m)| matches!(m, KernelMessage::TaskNew { .. }) && tid(m))
                .unwrap();
            let first_dispatch = log
                .iter()
                .position(|(_, m)| matches!(m, KernelMessage::Dispatch { .. }) && tid(m))
                .unwrap();
            let dead = log
                .iter()
                .position(|(_, m)| matches!(m, KernelMessage::TaskDead { .. }) && tid(m))
                .unwrap();
            assert!(first_new < first_dispatch);
            assert!(first_dispatch < dead);
        }
    });
}

/// The incrementally maintained idle-core set always equals the
/// brute-force scan over core states, and the task→core back-pointer
/// (`core_of` / `observed_runtime`) always matches a brute-force search,
/// across randomized dispatch/preempt/finish/interference sequences.
#[test]
fn incremental_idle_set_matches_brute_force() {
    check::run("incremental_idle_set_matches_brute_force", 48, |g| {
        let specs = arb_specs(g);
        let cores = g.usize_in(1, 6);
        let with_interference = g.boolean();
        let seed = g.u64_in(0, u64::MAX);
        let mut cfg = MachineConfig::new(cores).with_cost(CostModel::from_micros(3, 50));
        if with_interference {
            cfg = cfg
                .with_interference(InterferenceConfig {
                    mean_interval: SimDuration::from_millis(40),
                    duration: SimDuration::from_millis(5),
                })
                .with_seed(seed);
        }
        let total = specs.len();
        let mut m = Machine::new(cfg, specs);
        let mut lcg = seed | 1;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut runnable: Vec<TaskId> = Vec::new();
        let check_invariants = |m: &Machine| {
            // Idle set == brute-force scan, same order.
            let incremental: Vec<CoreId> = m.idle_cores().collect();
            let brute: Vec<CoreId> = (0..m.num_cores())
                .map(CoreId::from_index)
                .filter(|c| m.core_state(*c) == CoreState::Idle)
                .collect();
            assert_eq!(incremental, brute, "idle set diverged from scan");
            assert_eq!(m.num_idle_cores(), brute.len());
            // Back-pointer == brute-force search, both directions.
            for c in (0..m.num_cores()).map(CoreId::from_index) {
                match m.core_state(c) {
                    CoreState::Running(t) => {
                        assert_eq!(m.core_of(t), Some(c), "missing back-pointer");
                        assert_eq!(m.task(t).running_core(), Some(c));
                    }
                    _ => assert!(
                        (0..m.num_tasks()).all(|i| m.core_of(TaskId::from_index(i)) != Some(c)),
                        "stale back-pointer onto non-running core {c}"
                    ),
                }
            }
            // observed_runtime == the pre-backpointer O(cores) definition.
            for i in 0..m.num_tasks() {
                let id = TaskId::from_index(i);
                let brute_extra = (0..m.num_cores())
                    .map(CoreId::from_index)
                    .find_map(|c| match m.running_on(c) {
                        Some((t, ran)) if t == id => Some(ran),
                        _ => None,
                    })
                    .unwrap_or(SimDuration::ZERO);
                assert_eq!(m.observed_runtime(id), m.task(id).cpu_time() + brute_extra);
            }
        };
        let mut finished = 0usize;
        let mut safety = 0u32;
        while finished < total {
            safety += 1;
            assert!(safety < 200_000, "runaway property case");
            match m.advance().expect("no deadlock: we always dispatch") {
                None => break,
                Some(call) => {
                    match call {
                        faas_kernel::PolicyCall::TaskNew(t) => runnable.push(t),
                        faas_kernel::PolicyCall::SliceExpired(t, _)
                        | faas_kernel::PolicyCall::InterferencePreempt(t, _) => runnable.push(t),
                        faas_kernel::PolicyCall::TaskFinished(..) => finished += 1,
                        _ => {}
                    }
                    check_invariants(&m);
                    // Randomly preempt a running core.
                    if next().is_multiple_of(7) {
                        let victim = CoreId::from_index((next() as usize) % m.num_cores());
                        if matches!(m.core_state(victim), CoreState::Running(_)) {
                            let t = m.preempt(victim).expect("victim was running");
                            runnable.push(t);
                            check_invariants(&m);
                        }
                    }
                    // Fill idle cores with random runnable tasks.
                    let idle: Vec<CoreId> = m.idle_cores().collect();
                    for core in idle {
                        if runnable.is_empty() {
                            break;
                        }
                        let idx = (next() as usize) % runnable.len();
                        let task = runnable.swap_remove(idx);
                        let slice = match next() % 3 {
                            0 => None,
                            1 => Some(SimDuration::from_micros(1 + next() % 900)),
                            _ => Some(SimDuration::from_millis(1 + next() % 30)),
                        };
                        m.dispatch(core, task, slice).expect("idle core dispatch");
                        check_invariants(&m);
                    }
                }
            }
        }
    });
}

/// The batched idle sweep in `Simulation::step` (which skips the sweep
/// after internal events when no core became idle and the last sweep
/// made no offer, and skips the offers `offer_scope` and `may_dispatch`
/// rule out) is observationally equivalent to the brute-force driver it
/// replaced.
#[test]
fn batched_sweep_equals_brute_force_driver() {
    check::run("batched_sweep_equals_brute_force_driver", 48, |g| {
        let specs = arb_specs(g);
        let cores = g.usize_in(1, 5);
        let seed = g.u64_in(0, u64::MAX);
        let preempt_bias = g.boolean();
        let with_interference = g.boolean();
        let make_cfg = || {
            let mut cfg = MachineConfig::new(cores)
                .with_cost(CostModel::from_micros(3, 50))
                .with_message_log();
            if with_interference {
                cfg = cfg
                    .with_interference(InterferenceConfig {
                        mean_interval: SimDuration::from_millis(60),
                        duration: SimDuration::from_millis(8),
                    })
                    .with_seed(seed ^ 0x1234);
            }
            cfg
        };
        // Chaos is deterministic given its seed, so both drivers see the
        // same policy; any divergence comes from the sweep batching.
        let batched = Simulation::new(make_cfg(), specs.clone(), Chaos::new(seed, preempt_bias))
            .run()
            .expect("batched driver completes");
        let (brute, _) = run_brute_force(make_cfg(), specs, Chaos::new(seed, preempt_bias));
        assert_eq!(
            batched.machine.messages(),
            brute.messages(),
            "kernel message streams diverged"
        );
        assert_eq!(batched.machine.now(), brute.now());
        for i in 0..brute.num_tasks() {
            let id = TaskId::from_index(i);
            let (a, b) = (batched.machine.task(id), brute.task(id));
            assert_eq!(a.completion(), b.completion(), "task {id} completion");
            assert_eq!(a.cpu_time(), b.cpu_time(), "task {id} cpu time");
            assert_eq!(a.preemptions(), b.preemptions(), "task {id} preemptions");
        }
    });
}

/// A per-core agent built to exercise [`Scheduler::offer_scope`]: every
/// task queues on one core, and an offer serves only its own core's
/// queue, so the scope is `Nowhere` or `Only` whenever at most one queue
/// holds work. An offer sometimes preempts a running core and re-queues
/// the victim on a random core, which hands work to cores later in the
/// same pass and starts follow-up passes, right after `Only` answers.
/// It logs every `on_core_idle` call.
struct Homed {
    queues: Vec<Vec<TaskId>>,
    state: u64,
    offers: Vec<(SimTime, CoreId)>,
}

impl Homed {
    fn new(cores: usize, seed: u64) -> Self {
        Homed {
            queues: vec![Vec::new(); cores],
            state: seed | 1,
            offers: Vec::new(),
        }
    }
    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 33
    }
    fn enqueue(&mut self, task: TaskId, core: usize) {
        let n = self.queues.len();
        self.queues[core % n].push(task);
    }
}

impl Scheduler for Homed {
    fn name(&self) -> &str {
        "homed"
    }
    fn on_task_new(&mut self, _m: &mut Machine, task: TaskId) {
        self.enqueue(task, task.index().wrapping_mul(7919));
    }
    fn on_slice_expired(&mut self, _m: &mut Machine, task: TaskId, core: CoreId) {
        self.enqueue(task, core.index());
    }
    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        self.offers.push((m.now(), core));
        let Some(task) = self.queues[core.index()].pop() else {
            return;
        };
        let slice = match self.next() % 3 {
            0 => None,
            _ => Some(Dur::from_millis(1 + self.next() % 20)),
        };
        m.dispatch(core, task, slice)
            .expect("dispatch on idle core");
        let running: Vec<CoreId> = (0..m.num_cores())
            .map(CoreId::from_index)
            .filter(|&c| matches!(m.core_state(c), CoreState::Running(_)))
            .collect();
        if self.next().is_multiple_of(2) {
            let victim = running[self.next() as usize % running.len()];
            let t = m.preempt(victim).expect("victim was running");
            let to = self.next() as usize;
            self.enqueue(t, to);
        }
    }
    fn may_dispatch(&self, core: CoreId) -> bool {
        !self.queues[core.index()].is_empty()
    }
    fn offer_scope(&self) -> OfferScope {
        let mut busy = (0..self.queues.len()).filter(|&c| !self.queues[c].is_empty());
        match (busy.next(), busy.next()) {
            (None, _) => OfferScope::Nowhere,
            (Some(c), None) => OfferScope::Only(CoreId::from_index(c)),
            _ => OfferScope::PerCore,
        }
    }
}

/// The driver reproduces the reference per-core `may_dispatch` walk
/// exactly: the same `on_core_idle` calls in the same order, the same
/// kernel messages and the same offered/skipped counts — with the
/// scope's `Only`/`Nowhere` answers and the lone-idle-core path, also
/// when offers free cores mid-sweep (follow-up passes) and on machines
/// wider than one 64-bit word of the idle bitset.
#[test]
fn scoped_sweep_equals_per_core_walk() {
    check::run("scoped_sweep_equals_per_core_walk", 48, |g| {
        let cores = g.usize_in(1, 80);
        let specs = arb_specs(g);
        let seed = g.u64_in(0, u64::MAX);
        let with_interference = g.boolean();
        let make_cfg = || {
            let cfg = MachineConfig::new(cores)
                .with_cost(CostModel::from_micros(3, 50))
                .with_message_log();
            if with_interference {
                cfg.with_interference(InterferenceConfig {
                    mean_interval: SimDuration::from_millis(60),
                    duration: SimDuration::from_millis(8),
                })
                .with_seed(seed ^ 0x1234)
            } else {
                cfg
            }
        };
        let mut scoped = Simulation::new(make_cfg(), specs.clone(), Homed::new(cores, seed));
        while scoped.step().expect("run completes") {}
        let (walk_m, walk_p, walk_counts) =
            run_per_core_walk(make_cfg(), specs, Homed::new(cores, seed));
        assert_eq!(scoped.policy().offers, walk_p.offers, "on_core_idle calls");
        assert_eq!(scoped.machine().messages(), walk_m.messages());
        assert_eq!(
            (scoped.idle_offers(), scoped.idle_offers_skipped()),
            walk_counts,
            "offered and skipped counts"
        );
    });
}

/// A per-core agent that renews lone tasks, built to stress renewal
/// trains: every task has a home core, expired tasks re-queue there, and
/// an offer runs the head of the core's own queue for a fixed slice. Its
/// `may_dispatch` is inexact: a core can be set to decline a few offers
/// while work waits in its queue and another core is busy, so an idle
/// core may want an offer at any boundary of another core's train. An offer sometimes also sends a
/// queued task to another core's queue. `renewal_slice` answers for a
/// core with nothing queued and no declines pending.
struct Renewing {
    queues: Vec<std::collections::VecDeque<TaskId>>,
    declines: Vec<u32>,
    slice: SimDuration,
    renewed: u64,
}

impl Renewing {
    fn new(cores: usize, slice_ms: u64) -> Self {
        Renewing {
            queues: vec![std::collections::VecDeque::new(); cores],
            declines: vec![0; cores],
            slice: SimDuration::from_millis(slice_ms),
            renewed: 0,
        }
    }
}

impl Scheduler for Renewing {
    fn name(&self) -> &str {
        "renewing"
    }
    fn on_task_new(&mut self, _m: &mut Machine, task: TaskId) {
        let n = self.queues.len();
        let home = task.index().wrapping_mul(7919) % n;
        self.queues[home].push_back(task);
        self.declines[home] += (task.index() % 3) as u32;
    }
    fn on_slice_expired(&mut self, _m: &mut Machine, task: TaskId, core: CoreId) {
        self.queues[core.index()].push_back(task);
    }
    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        let c = core.index();
        // Declining is safe only while another core's event is to come,
        // and changes nothing when there is nothing to decline.
        let waiting = !self.queues[c].is_empty();
        if waiting && self.declines[c] > 0 && m.num_idle_cores() < m.num_cores() {
            self.declines[c] -= 1;
            return;
        }
        let Some(task) = self.queues[c].pop_front() else {
            return;
        };
        m.dispatch(core, task, Some(self.slice))
            .expect("dispatch on idle core");
        if self.queues[c].len() > 1 && task.index() % 2 == 0 {
            let moved = self.queues[c].pop_back().expect("queue holds two");
            let to = (c + 1 + task.index()) % self.queues.len();
            self.queues[to].push_back(moved);
        }
    }
    fn may_dispatch(&self, core: CoreId) -> bool {
        !self.queues[core.index()].is_empty()
    }
    fn renewal_slice(&self, core: CoreId) -> Option<SimDuration> {
        let c = core.index();
        (self.queues[c].is_empty() && self.declines[c] == 0).then_some(self.slice)
    }
    fn on_renewed(&mut self, _m: &Machine, _task: TaskId, _core: CoreId) {
        self.renewed += 1;
    }
}

/// Renewal trains settle lone slice expiries without delivering them;
/// under an agent with an inexact `may_dispatch`, where an idle core can
/// want an offer at any train boundary, the run must still match the
/// brute-force driver (message log, task records, core statistics,
/// processed events) and the per-core walk's offer counts.
#[test]
fn renewal_trains_equal_brute_force_driver() {
    let settled = std::cell::Cell::new(0);
    check::run("renewal_trains_equal_brute_force_driver", 64, |g| {
        let cores = g.usize_in(1, 7);
        let slice_ms = g.u64_in(1, 30);
        let specs: Vec<TaskSpec> = (0..g.usize_in(1, 14))
            .map(|_| {
                // Arrivals on multiples of the slice land on boundaries.
                let arrival = g.u64_in(0, 60) * slice_ms;
                let work = if g.boolean() {
                    g.u64_in(100, 2_000)
                } else {
                    g.u64_in(1, 60)
                };
                TaskSpec::function(
                    SimTime::from_millis(arrival),
                    SimDuration::from_millis(work),
                    128,
                )
            })
            .collect();
        let seed = g.u64_in(0, u64::MAX);
        let interference = g.boolean();
        // Free switches put every boundary on a multiple of the slice.
        let cost = if g.boolean() {
            CostModel::free()
        } else {
            CostModel::from_micros(3, 50)
        };
        let make_cfg = || {
            let cfg = MachineConfig::new(cores).with_cost(cost).with_message_log();
            if interference {
                cfg.with_interference(InterferenceConfig {
                    mean_interval: SimDuration::from_millis(300),
                    duration: SimDuration::from_millis(4),
                })
                .with_seed(seed)
            } else {
                cfg
            }
        };
        let mut sim = Simulation::new(make_cfg(), specs.clone(), Renewing::new(cores, slice_ms));
        while sim.step().expect("run completes") {}
        let (brute, _) = run_brute_force(make_cfg(), specs.clone(), Renewing::new(cores, slice_ms));
        let (_, _, walk_counts) =
            run_per_core_walk(make_cfg(), specs, Renewing::new(cores, slice_ms));
        let m = sim.machine();
        assert_eq!(m.messages(), brute.messages(), "kernel message streams");
        assert_eq!(m.now(), brute.now());
        assert_eq!(m.events_processed(), brute.events_processed(), "events");
        for c in 0..cores {
            let core = CoreId::from_index(c);
            assert_eq!(m.core_stats(core), brute.core_stats(core), "core {c}");
        }
        for i in 0..brute.num_tasks() {
            let id = TaskId::from_index(i);
            let (a, b) = (m.task(id), brute.task(id));
            assert_eq!(a.completion(), b.completion(), "task {id} completion");
            assert_eq!(a.cpu_time(), b.cpu_time(), "task {id} cpu time");
            assert_eq!(a.preemptions(), b.preemptions(), "task {id} preemptions");
        }
        assert_eq!(
            (sim.idle_offers(), sim.idle_offers_skipped()),
            walk_counts,
            "offered and skipped counts"
        );
        assert!(sim.policy().renewed <= m.renewals_settled());
        settled.set(settled.get() + m.renewals_settled());
    });
    assert!(settled.get() > 0, "no case settled a renewal");
}

/// Interference storms never corrupt accounting or strand tasks.
#[test]
fn interference_storm_is_survivable() {
    check::run("interference_storm_is_survivable", 64, |g| {
        let specs = arb_specs(g);
        let seed = g.u64_in(0, u64::MAX);
        let storm = InterferenceConfig {
            mean_interval: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(10),
        };
        let cfg = MachineConfig::new(2)
            .with_interference(storm)
            .with_seed(seed);
        let total = specs.len();
        let report = Simulation::new(cfg, specs, Chaos::new(seed ^ 0xABCD, false))
            .run()
            .expect("completes");
        assert_eq!(
            report
                .tasks
                .iter()
                .filter(|t| t.completion().is_some())
                .count(),
            total
        );
    });
}
