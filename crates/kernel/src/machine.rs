//! The simulated machine: cores + tasks + the kernel event loop.
//!
//! [`Machine`] plays the role of the ghOSt *kernel side*: it owns the
//! ground truth about cores and tasks, delivers scheduling messages
//! upward, and exposes the two verbs a user-space agent may invoke —
//! [`Machine::dispatch`] (commit a task to a core, optionally with a time
//! slice) and [`Machine::preempt`] (take a task off a core). Policies never
//! mutate tasks or cores directly.

use std::borrow::Cow;
use std::collections::VecDeque;

use faas_simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::core::{Core, CoreId, CoreState, CoreStats};
use crate::cost::CostModel;
use crate::idle::IdleSet;
use crate::message::KernelMessage;
use crate::sched::{OfferScope, Scheduler};
use crate::task::{Task, TaskId, TaskSpec, TaskState};
use crate::train::{fires_first, tie_order, Horizon, Train};
use crate::util::UtilizationLedger;

/// Host-OS interference model: the native kernel (timer ticks, kthreads,
/// the CFS class ghOSt coexists with) periodically claims a core.
///
/// Table I of the paper attributes plain FIFO's poor p99 *execution* time to
/// exactly this effect ("the p99 execution time of FIFO in the ghOSt system
/// suffers due to the preemption from Linux native CFS").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterferenceConfig {
    /// Mean interval between interference episodes per core (exponential).
    pub mean_interval: SimDuration,
    /// Mean length of one episode (jittered ±50%).
    pub duration: SimDuration,
}

impl Default for InterferenceConfig {
    /// Roughly one 5 ms housekeeping episode every 30 s per core.
    fn default() -> Self {
        InterferenceConfig {
            mean_interval: SimDuration::from_secs(30),
            duration: SimDuration::from_millis(5),
        }
    }
}

/// An interference-storm window: while the machine clock is inside
/// `[start, end)`, host-OS interference episodes arrive `intensity`
/// times more often than the baseline
/// [`InterferenceConfig::mean_interval`].
///
/// Storms only *post-scale* the exponential gap draws — the RNG draw
/// count and order never change — so a machine configured with an empty
/// storm list is bit-identical to one with no storms at all. This is
/// the kernel half of the cluster chaos layer's "interference storm"
/// fault (see `faas-cluster`'s `chaos` module); it has no effect unless
/// [`MachineConfig::interference`] is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormWindow {
    /// First instant inside the storm.
    pub start: SimTime,
    /// First instant after the storm.
    pub end: SimTime,
    /// Episode-frequency multiplier (> 0; values above 1 mean more
    /// interference, below 1 mean a lull).
    pub intensity: f64,
}

/// Divides an exponential gap draw (in seconds) by the intensity of the
/// storm window containing `at`, if any. With no matching window the
/// draw passes through untouched — no float op, so empty or
/// non-overlapping storm lists stay bit-identical to the baseline.
fn storm_scaled(storms: &[StormWindow], at: SimTime, gap_secs: f64) -> f64 {
    for w in storms {
        if at >= w.start && at < w.end {
            return gap_secs / w.intensity;
        }
    }
    gap_secs
}

/// Configuration of a simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of CPU cores in the enclave.
    pub cores: usize,
    /// Context-switch cost model.
    pub cost: CostModel,
    /// Optional host-OS interference.
    pub interference: Option<InterferenceConfig>,
    /// Interference-storm windows (sorted or not; first match wins).
    pub storms: Vec<StormWindow>,
    /// Bucket width of the utilization ledger.
    pub util_bucket: SimDuration,
    /// Seed for the machine's internal randomness (interference timing).
    pub seed: u64,
    /// Record the kernel→agent message log (costs memory; great for tests).
    pub log_messages: bool,
    /// Abort with [`SimError::Stalled`] if no task finishes for this long
    /// while some remain unfinished.
    pub stall_timeout: SimDuration,
}

impl MachineConfig {
    /// A machine with `cores` cores and defaults everywhere else
    /// (default cost model, no interference, 1 s utilization buckets).
    pub fn new(cores: usize) -> Self {
        MachineConfig {
            cores,
            cost: CostModel::default(),
            interference: None,
            storms: Vec::new(),
            util_bucket: SimDuration::from_secs(1),
            seed: 0xFAA5,
            log_messages: false,
            stall_timeout: SimDuration::from_secs(3_600),
        }
    }

    /// Sets the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enables host-OS interference.
    pub fn with_interference(mut self, i: InterferenceConfig) -> Self {
        self.interference = Some(i);
        self
    }

    /// Sets the interference-storm windows.
    ///
    /// # Panics
    ///
    /// Panics if a window is empty or its intensity is not positive.
    pub fn with_storms(mut self, storms: Vec<StormWindow>) -> Self {
        for w in &storms {
            assert!(w.start < w.end, "storm window must be non-empty");
            assert!(w.intensity > 0.0, "storm intensity must be positive");
        }
        self.storms = storms;
        self
    }

    /// Enables the kernel message log.
    pub fn with_message_log(mut self) -> Self {
        self.log_messages = true;
        self
    }

    /// Sets the RNG seed for interference timing.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Errors returned by the scheduling verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedError {
    /// The referenced core does not exist.
    NoSuchCore(CoreId),
    /// The referenced task does not exist.
    NoSuchTask(TaskId),
    /// Dispatch onto a core that is not idle.
    CoreBusy(CoreId),
    /// Dispatch of a task that is not runnable (already running/finished),
    /// or preempt of a core that runs no task.
    NotRunnable(TaskId),
    /// Preempt on an idle or interference-occupied core.
    NothingRunning(CoreId),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoSuchCore(c) => write!(f, "no such core {c}"),
            SchedError::NoSuchTask(t) => write!(f, "no such task {t}"),
            SchedError::CoreBusy(c) => write!(f, "core {c} is not idle"),
            SchedError::NotRunnable(t) => write!(f, "task {t} is not runnable"),
            SchedError::NothingRunning(c) => write!(f, "core {c} runs no task"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Terminal simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while tasks were still unfinished — the
    /// policy lost track of runnable tasks.
    Deadlock {
        /// Number of unfinished tasks at the time of the deadlock.
        unfinished: usize,
    },
    /// No task finished for `stall_timeout` of virtual time.
    Stalled {
        /// Virtual instant at which the stall was declared.
        at: SimTime,
        /// Number of unfinished tasks.
        unfinished: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { unfinished } => {
                write!(f, "event queue drained with {unfinished} unfinished tasks")
            }
            SimError::Stalled { at, unfinished } => {
                write!(f, "no progress by {at} with {unfinished} unfinished tasks")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A notification the kernel hands to the user-space policy.
///
/// These correspond one-to-one with the ghOSt message types the paper's
/// agents consume (`MSG_TASK_NEW`, `MSG_TASK_PREEMPT`, `MSG_TASK_DEAD`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyCall {
    /// A task arrived and awaits placement.
    TaskNew(TaskId),
    /// A task finished. For CPU-bound tasks the core is where it ran; a
    /// task that finished an off-CPU wait ([`TaskSpec::io_wait`]) was on
    /// no core, and the argument is conventionally core 0.
    TaskFinished(TaskId, CoreId),
    /// A task's dispatch time slice expired; it is now `Preempted` and the
    /// policy must re-queue it.
    SliceExpired(TaskId, CoreId),
    /// The host OS kicked a task off a core; it is now `Preempted`.
    InterferencePreempt(TaskId, CoreId),
    /// Periodic policy tick.
    Tick,
    /// Kernel-internal event; nothing to deliver (cores may have changed
    /// state, so the driver still sweeps idle cores).
    Internal,
}

/// A dynamic kernel event. Task arrivals are *not* heap events: they are
/// known ahead of the clock (at construction, or when a streamed chunk is
/// fed), so they live in a time-ordered calendar (`Machine::arrivals`)
/// consumed from the front — the hot event heap then only ever holds the
/// handful of in-flight per-core timers (completions, slice expiries,
/// interference, ticks), keeping its depth tiny.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(TaskId),
    Complete {
        core: CoreId,
        generation: u64,
    },
    SliceExpire {
        core: CoreId,
        generation: u64,
    },
    IoComplete(TaskId),
    /// Abandonment deadline of a task with [`TaskSpec::deadline`] set.
    /// Scheduled when the arrival fires (and re-armed by a past-deadline
    /// dispatch), so deadline-free runs carry zero extra events.
    Cancel(TaskId),
    InterferenceStart(CoreId),
    InterferenceEnd {
        core: CoreId,
        generation: u64,
    },
    Tick,
}

/// The simulated machine (ghOSt kernel side).
pub struct Machine {
    cfg: MachineConfig,
    now: SimTime,
    cores: Vec<Core>,
    /// Live task records. Task `id` lives at deque index
    /// `id.index() - task_base`; ids below `task_base` were retired via
    /// [`Machine::retire_finished`] (streaming runs) and no longer exist.
    /// Batch runs never retire, so the deque stays a plain dense array.
    tasks: VecDeque<Task>,
    /// Number of tasks retired off the front of `tasks` (all finished).
    task_base: usize,
    events: EventQueue<Event>,
    /// Task arrivals sorted by (time, spec order) — the static half of the
    /// future-event list, popped from the front. At equal instants an
    /// arrival fires before any dynamic event, which reproduces the
    /// insertion-sequence tie-break of the old all-in-one heap exactly
    /// (arrivals were always scheduled first). A deque (not a Vec plus
    /// cursor) so streaming feeds can push new arrivals while consumed
    /// ones are dropped — memory stays O(in-flight), not O(total).
    arrivals: VecDeque<(SimTime, TaskId)>,
    /// `arrivals.front().0` memoized (`SimTime::MAX` once exhausted), so
    /// the per-event merge check is one register compare.
    next_arrival_at: SimTime,
    util: UtilizationLedger,
    rng: SimRng,
    messages: Vec<(SimTime, KernelMessage)>,
    finished: usize,
    last_progress: SimTime,
    tick_every: Option<SimDuration>,
    /// Incrementally maintained set of idle cores (updated on every core
    /// state transition; replaces the per-event O(cores) scan).
    idle: IdleSet,
    /// Monotonic count of busy→idle transitions. The driver compares it
    /// against the value at its last idle sweep to decide whether any
    /// core's state changed — the batching signal, at the cost of one
    /// increment on the hot path.
    idle_transitions: u64,
    /// Kernel events processed so far (stale generations included).
    events_processed: u64,
    /// Tasks whose arrival event has fired (retired ones included).
    arrived: u64,
    /// Peak in-flight backlog: max over time of arrived − terminal tasks.
    /// Only grows at arrivals, so it is updated there.
    max_in_flight: u64,
    /// Tasks cancelled past their deadline (monotonic; retirement does not
    /// decrement it).
    cancelled_total: u64,
    /// The slice expiry a warm re-dispatch armed in the current step,
    /// held off the heap under its reserved sequence number until the
    /// driver starts a train with it or arms it (see [`crate::train`]).
    held: Option<Train>,
    /// Live renewal trains, at most one per core.
    trains: Vec<Train>,
    /// Slice expiries settled by trains (counted in `events_processed`).
    renewals_settled: u64,
    /// Sum over settled expiries of the cores idle at that instant: the
    /// offers their sweeps would have ruled out.
    renewal_skips: u64,
    /// Settlement scratch: `(last boundary settled, train index,
    /// boundaries settled)`.
    settling: Vec<(SimTime, usize, u64)>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("cores", &self.cores.len())
            .field("tasks", &self.num_tasks())
            .field("finished", &self.finished)
            .finish()
    }
}

impl Machine {
    /// Builds a machine and schedules the arrival of every task in `specs`.
    ///
    /// Task ids are assigned densely in `specs` order. `specs` is either
    /// owned (`Vec<TaskSpec>`, moved into the machine without copying) or
    /// borrowed (`&[TaskSpec]`, `&Vec<TaskSpec>`, `&arc_specs[..]` for an
    /// `Arc<[TaskSpec]>`; specs are cloned per task) — so multi-policy
    /// sweeps synthesize one trace and hand every run a borrow instead of
    /// cloning whole spec vectors up front.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is zero.
    pub fn new<'s>(cfg: MachineConfig, specs: impl Into<Cow<'s, [TaskSpec]>>) -> Self {
        assert!(cfg.cores > 0, "machine needs at least one core");
        let mut events = EventQueue::new();
        let tasks: VecDeque<Task> = match specs.into() {
            Cow::Owned(specs) => specs.into_iter().map(Task::new).collect(),
            Cow::Borrowed(specs) => specs.iter().cloned().map(Task::new).collect(),
        };
        let mut arrivals: Vec<(SimTime, TaskId)> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.spec().arrival, TaskId(i as u32)))
            .collect();
        // Stable by time: equal instants keep spec order, the old
        // insertion-sequence tie-break.
        arrivals.sort_by_key(|&(at, _)| at);
        let mut rng = SimRng::seed_from(cfg.seed);
        if let Some(icfg) = cfg.interference {
            for c in 0..cfg.cores {
                let gap = rng.exponential(icfg.mean_interval.as_secs_f64());
                let gap = storm_scaled(&cfg.storms, SimTime::ZERO, gap);
                let at = SimTime::ZERO + SimDuration::from_secs_f64(gap);
                events.schedule_untracked(at, Event::InterferenceStart(CoreId(c as u16)));
            }
        }
        let util = UtilizationLedger::new(cfg.cores, cfg.util_bucket);
        Machine {
            cores: (0..cfg.cores).map(|_| Core::new()).collect(),
            tasks,
            task_base: 0,
            events,
            next_arrival_at: arrivals.first().map_or(SimTime::MAX, |&(at, _)| at),
            arrivals: VecDeque::from(arrivals),
            util,
            rng,
            messages: Vec::new(),
            finished: 0,
            now: SimTime::ZERO,
            last_progress: SimTime::ZERO,
            tick_every: None,
            idle: IdleSet::all_idle(cfg.cores),
            idle_transitions: 0,
            events_processed: 0,
            arrived: 0,
            max_in_flight: 0,
            cancelled_total: 0,
            held: None,
            trains: Vec::new(),
            renewals_settled: 0,
            renewal_skips: 0,
            settling: Vec::new(),
            cfg,
        }
    }

    /// Arms the periodic [`PolicyCall::Tick`]. A driver calls this once,
    /// before the first [`Machine::advance`], when its policy asks for
    /// ticks ([`MachineRun`](crate::MachineRun) does so itself).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn arm_tick(&mut self, every: SimDuration) {
        assert!(!every.is_zero(), "tick interval must be positive");
        self.tick_every = Some(every);
        self.events
            .schedule_untracked(self.now + every, Event::Tick);
    }

    // ---- queries -----------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of tasks ever handed to the machine (finished, live, or
    /// retired).
    pub fn num_tasks(&self) -> usize {
        self.task_base + self.tasks.len()
    }

    /// Number of terminal tasks — finished or cancelled, retired ones
    /// included (only terminal tasks can be retired).
    pub fn num_finished(&self) -> usize {
        self.task_base + self.finished
    }

    /// Number of tasks cancelled past their [`TaskSpec::deadline`]
    /// (included in [`Machine::num_finished`]; monotonic across
    /// retirement).
    pub fn num_cancelled(&self) -> u64 {
        self.cancelled_total
    }

    /// Peak in-flight backlog so far: the maximum, over the run, of tasks
    /// that have arrived but not reached a terminal state. This is the
    /// quantity overload middleware bounds — with no admission control a
    /// past-saturation trace grows it without bound.
    pub fn max_in_flight(&self) -> u64 {
        self.max_in_flight
    }

    /// Number of task records currently held in memory (fed but not yet
    /// retired) — the quantity streaming runs keep bounded.
    pub fn num_live_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Index of `id` into the live-task deque.
    #[inline]
    fn live_index(&self, id: TaskId) -> usize {
        id.index() - self.task_base
    }

    /// The live record of `id` (panics if retired or out of range).
    #[inline]
    fn task_ref(&self, id: TaskId) -> &Task {
        &self.tasks[id.index() - self.task_base]
    }

    /// Mutable live record of `id` (panics if retired or out of range).
    #[inline]
    fn task_mut(&mut self, id: TaskId) -> &mut Task {
        let i = self.live_index(id);
        &mut self.tasks[i]
    }

    /// Read access to a task's kernel record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or was retired.
    pub fn task(&self, id: TaskId) -> &Task {
        self.task_ref(id)
    }

    /// What `core` is doing right now.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_state(&self, core: CoreId) -> CoreState {
        self.cores[core.index()].state
    }

    /// All cores currently idle, in ascending id order.
    ///
    /// Backed by an incrementally maintained bitset, so this is
    /// allocation-free and O(idle cores) rather than O(all cores).
    pub fn idle_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.idle.iter()
    }

    /// Number of currently idle cores (O(1)).
    pub fn num_idle_cores(&self) -> usize {
        self.idle.len()
    }

    /// The task running on `core` and the length of its current run
    /// segment, if any. O(1): a direct core-record lookup.
    pub fn running_on(&self, core: CoreId) -> Option<(TaskId, SimDuration)> {
        let c = &self.cores[core.index()];
        match c.state {
            CoreState::Running(t) => Some((t, self.now.saturating_since(c.work_start))),
            _ => None,
        }
    }

    /// The core `task` currently occupies, if it is running. O(1) via the
    /// task→core back-pointer (the inverse of [`Machine::running_on`]).
    pub fn core_of(&self, task: TaskId) -> Option<CoreId> {
        self.task_ref(task).on_core
    }

    /// Total observed on-CPU time of a task including its current run
    /// segment. This is what the hybrid scheduler compares against the FIFO
    /// time limit (§IV-A: "checks if the runtime of tasks on these cores
    /// exceeds the time limit").
    ///
    /// O(1): uses the task→core back-pointer instead of scanning cores.
    pub fn observed_runtime(&self, id: TaskId) -> SimDuration {
        let t = self.task_ref(id);
        let running_extra = match t.on_core {
            Some(core) => self
                .now
                .saturating_since(self.cores[core.index()].work_start),
            None => SimDuration::ZERO,
        };
        t.cpu_time() + running_extra
    }

    /// Kernel events processed so far, stale-generation events included
    /// (the denominator of the bench harness's events/sec throughput).
    /// Slice expiries settled by renewal trains count as processed.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Slice expiries settled by renewal trains instead of being popped
    /// from the event heap (included in [`Machine::events_processed`]).
    pub fn renewals_settled(&self) -> u64 {
        self.renewals_settled
    }

    /// Renewal trains currently running.
    pub fn renewal_trains(&self) -> usize {
        self.trains.len()
    }

    /// Timers waiting in the event heap; arrivals and the slice expiries
    /// of renewal trains are not heap entries.
    pub fn pending_timers(&self) -> usize {
        self.events.len()
    }

    /// Per-core statistics.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_stats(&self, core: CoreId) -> CoreStats {
        let c = &self.cores[core.index()];
        CoreStats {
            preemptions: c.preemptions,
            ctx_switches: c.ctx_switches,
            busy: self.util.total_busy(core.index()),
        }
    }

    /// The utilization ledger (busy time per core per bucket).
    pub fn utilization(&self) -> &UtilizationLedger {
        &self.util
    }

    /// The kernel→agent message log (empty unless
    /// [`MachineConfig::log_messages`] is set).
    pub fn messages(&self) -> &[(SimTime, KernelMessage)] {
        &self.messages
    }

    /// Moves the kernel message log out of the machine (used by the slim
    /// report path, which drops the machine itself).
    pub(crate) fn take_messages(&mut self) -> Vec<(SimTime, KernelMessage)> {
        std::mem::take(&mut self.messages)
    }

    /// Consumes the machine, keeping only the live task records (the slim
    /// report path: everything else — event arena, arrival calendar,
    /// utilization ledger — is dropped here). Retired tasks are gone;
    /// batch runs never retire, so this is all tasks there.
    pub(crate) fn into_tasks(self) -> Vec<Task> {
        Vec::from(self.tasks)
    }

    /// Snapshot of all live task records.
    ///
    /// # Panics
    ///
    /// Panics if tasks were retired and later feeds wrapped the deque —
    /// streaming consumers drain via [`Machine::retire_finished`] instead
    /// of snapshotting.
    pub fn tasks(&self) -> &[Task] {
        let (head, tail) = self.tasks.as_slices();
        assert!(
            tail.is_empty(),
            "task records are non-contiguous after retirement; drain via retire_finished"
        );
        head
    }

    // ---- streaming feed -------------------------------------------------

    /// Appends more task specs to a machine mid-run (the chunked cluster
    /// feed). Ids continue densely after every task seen so far, and each
    /// spec's arrival is scheduled exactly as if it had been present at
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if the specs are not in arrival order, or arrive before the
    /// latest already-queued arrival or the machine's current time — the
    /// streamed feed must be a time-ordered continuation (chunk streams
    /// guarantee this; [`Machine::new`] sorts, this method cannot re-sort
    /// what was already consumed).
    pub fn push_specs<'s>(&mut self, specs: impl Into<Cow<'s, [TaskSpec]>>) {
        let mut floor = self
            .arrivals
            .back()
            .map_or(SimTime::ZERO, |&(at, _)| at)
            .max(self.now);
        match specs.into() {
            Cow::Owned(specs) => {
                for s in specs {
                    self.push_spec(s, &mut floor);
                }
            }
            Cow::Borrowed(specs) => {
                for s in specs {
                    self.push_spec(s.clone(), &mut floor);
                }
            }
        }
    }

    fn push_spec(&mut self, spec: TaskSpec, floor: &mut SimTime) {
        let at = spec.arrival;
        assert!(
            at >= *floor,
            "streamed specs must continue in arrival order ({at} < {floor})"
        );
        *floor = at;
        let id = TaskId((self.task_base + self.tasks.len()) as u32);
        self.tasks.push_back(Task::new(spec));
        if self.arrivals.is_empty() {
            self.next_arrival_at = at;
        }
        self.arrivals.push_back((at, id));
    }

    /// Pops finished tasks off the front of the id space, handing each
    /// record to `sink` in task-id order; returns how many were retired.
    /// Stops at the first unfinished task, so in-flight records stay
    /// addressable. This is what keeps streaming runs O(in-flight): after
    /// each chunk the caller folds the drained records into accumulators
    /// and the machine forgets them.
    pub fn retire_finished(&mut self, mut sink: impl FnMut(Task)) -> usize {
        let mut retired = 0;
        while let Some(front) = self.tasks.front() {
            if !matches!(front.state, TaskState::Finished | TaskState::Cancelled) {
                break;
            }
            let task = self.tasks.pop_front().expect("front just observed");
            self.task_base += 1;
            self.finished -= 1;
            retired += 1;
            sink(task);
        }
        retired
    }

    /// The instant of the next pending kernel event (arrival, heap timer
    /// or a renewal train's completion), or `None` when nothing is
    /// scheduled. Streaming drivers use this to run up to a chunk horizon
    /// without consuming events beyond it; the slice expiries a train
    /// settles are not events here.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let heap = self.events.peek_time().unwrap_or(SimTime::MAX);
        let held = self.held.map_or(SimTime::MAX, |t| t.next);
        let next = self
            .trains
            .iter()
            .fold(heap.min(self.next_arrival_at).min(held), |at, t| {
                at.min(t.done)
            });
        (next != SimTime::MAX).then_some(next)
    }

    // ---- scheduling verbs (the agent ABI) -----------------------------

    /// Commits `task` to run on `core`, optionally bounded by a time slice.
    ///
    /// With `slice = None` the task runs to completion (FIFO-style). With
    /// `Some(s)`, a [`PolicyCall::SliceExpired`] fires after `s` of real
    /// progress unless the task finishes first.
    ///
    /// A context switch is charged unless `task` was also the previous
    /// occupant of this core (warm resume). A preempted task resuming on a
    /// cold core additionally pays the
    /// [`restore_penalty`](CostModel::restore_penalty) as extra work.
    ///
    /// # Errors
    ///
    /// [`SchedError::CoreBusy`] if `core` is not idle,
    /// [`SchedError::NotRunnable`] if `task` is running or finished, and
    /// the `NoSuch*` variants for bad ids.
    pub fn dispatch(
        &mut self,
        core: CoreId,
        task: TaskId,
        slice: Option<SimDuration>,
    ) -> Result<(), SchedError> {
        if core.index() >= self.cores.len() {
            return Err(SchedError::NoSuchCore(core));
        }
        if task.index() < self.task_base || task.index() - self.task_base >= self.tasks.len() {
            // Below task_base: a retired (hence finished) task — gone.
            return Err(SchedError::NoSuchTask(task));
        }
        if self.cores[core.index()].state != CoreState::Idle {
            return Err(SchedError::CoreBusy(core));
        }
        let state = self.task_ref(task).state;
        if !matches!(state, TaskState::Queued | TaskState::Preempted) {
            return Err(SchedError::NotRunnable(task));
        }

        let warm = self.cores[core.index()].last_task == Some(task);
        let switch_cost = if warm {
            SimDuration::ZERO
        } else {
            self.cfg.cost.ctx_switch
        };
        if state == TaskState::Preempted && !warm {
            // Cold resume: pay the cache/TLB restore penalty as extra work.
            let penalty = self.cfg.cost.restore_penalty;
            self.task_mut(task).remaining += penalty;
        }

        let c = &mut self.cores[core.index()];
        c.state = CoreState::Running(task);
        c.generation += 1;
        c.busy_since = Some(self.now);
        c.work_start = self.now + switch_cost;
        c.last_task = Some(task);
        if !warm {
            c.ctx_switches += 1;
        }
        let generation = c.generation;
        self.idle.remove(core);

        let now = self.now;
        let t = self.task_mut(task);
        t.state = TaskState::Running;
        t.on_core = Some(core);
        if t.first_run.is_none() {
            t.first_run = Some(now);
        }

        let remaining = t.remaining;
        let work_start = now + switch_cost;
        match slice {
            Some(s) if s < remaining && warm => {
                // A renewal: held back for the driver, which may fold
                // this expiry and the ones after it into a train.
                let seq = self.events.reserve();
                let next = work_start + s;
                let done = work_start + remaining;
                let held = Train::new(core, task, generation, s, next, seq, done);
                if let Some(older) = self.held.replace(held) {
                    self.arm(older);
                }
            }
            Some(s) if s < remaining => {
                self.events
                    .schedule_untracked(work_start + s, Event::SliceExpire { core, generation });
            }
            _ => {
                self.events.schedule_untracked(
                    work_start + remaining,
                    Event::Complete { core, generation },
                );
            }
        }
        // A task dispatched past its deadline is killed on the spot: the
        // cancel event that fired while it was queued was a no-op (the
        // policy still owned it), so re-arm it for this very instant — it
        // fires before any work happens, and the policy sees an ordinary
        // `TaskFinished`.
        if let Some(deadline) = self.task_ref(task).spec().deadline {
            if deadline <= now {
                self.events.schedule_untracked(now, Event::Cancel(task));
            }
        }
        self.log(KernelMessage::Dispatch { task, core, slice });
        Ok(())
    }

    /// Takes the running task off `core` (explicit policy preemption, e.g.
    /// the hybrid scheduler's time-limit check or core rightsizing).
    ///
    /// The task moves to `Preempted`; the policy owns re-queueing it.
    /// Returns the preempted task id.
    ///
    /// # Errors
    ///
    /// [`SchedError::NothingRunning`] if no task occupies `core`.
    pub fn preempt(&mut self, core: CoreId) -> Result<TaskId, SchedError> {
        if core.index() >= self.cores.len() {
            return Err(SchedError::NoSuchCore(core));
        }
        let task = match self.cores[core.index()].state {
            CoreState::Running(t) => t,
            _ => return Err(SchedError::NothingRunning(core)),
        };
        self.stop_running(core, task);
        self.log(KernelMessage::TaskPreempt {
            task,
            core,
            by_interference: false,
        });
        Ok(task)
    }

    // ---- engine ---------------------------------------------------------

    /// Advances the simulation by one kernel event.
    ///
    /// Returns the policy notification to deliver, or `None` when every
    /// task has finished.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when the event queue drains with unfinished
    /// tasks; [`SimError::Stalled`] when no task completes for
    /// [`MachineConfig::stall_timeout`] of virtual time.
    pub fn advance(&mut self) -> Result<Option<PolicyCall>, SimError> {
        // Only `MachineRun` starts trains; a bare driver delivers every
        // expiry.
        debug_assert!(self.trains.is_empty(), "a bare driver runs no train");
        if let Some(held) = self.held.take() {
            self.arm(held);
        }
        self.pop_event()
    }

    /// Pops and processes the next real event ([`Machine::advance`]
    /// without touching renewal trains).
    pub(crate) fn pop_event(&mut self) -> Result<Option<PolicyCall>, SimError> {
        if self.finished == self.tasks.len() {
            return Ok(None);
        }
        // Merge the static arrival calendar with the dynamic event heap;
        // at equal instants the arrival fires first (it would have held
        // the smaller insertion sequence in a unified heap).
        let heap_t = self.events.peek_time().unwrap_or(SimTime::MAX);
        let (at, ev) = if !self.arrivals.is_empty() && self.next_arrival_at <= heap_t {
            let (at, task) = self.arrivals.pop_front().expect("checked non-empty");
            self.next_arrival_at = self.arrivals.front().map_or(SimTime::MAX, |&(t, _)| t);
            (at, Event::Arrival(task))
        } else if let Some(popped) = self.events.pop() {
            popped
        } else {
            return Err(SimError::Deadlock {
                unfinished: self.tasks.len() - self.finished,
            });
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        if self.now.saturating_since(self.last_progress) > self.cfg.stall_timeout {
            return Err(SimError::Stalled {
                at: self.now,
                unfinished: self.tasks.len() - self.finished,
            });
        }
        let call = match ev {
            Event::Arrival(task) => {
                self.arrived += 1;
                let in_flight = self.arrived - (self.task_base + self.finished) as u64;
                if in_flight > self.max_in_flight {
                    self.max_in_flight = in_flight;
                }
                if let Some(deadline) = self.task_ref(task).spec().deadline {
                    self.events
                        .schedule_untracked(deadline.max(self.now), Event::Cancel(task));
                }
                self.log(KernelMessage::TaskNew { task });
                PolicyCall::TaskNew(task)
            }
            Event::Complete { core, generation } => {
                if self.cores[core.index()].generation != generation {
                    PolicyCall::Internal
                } else {
                    let task = match self.cores[core.index()].state {
                        CoreState::Running(t) => t,
                        _ => unreachable!("live completion on non-running core"),
                    };
                    let io_wait = self.task_ref(task).spec().io_wait;
                    if io_wait.is_zero() {
                        self.finish_running(core, task);
                        PolicyCall::TaskFinished(task, core)
                    } else {
                        // CPU work done; the function now waits off-CPU
                        // for an external call. The core is released (the
                        // idle sweep can refill it) but the task is billed
                        // until the wait returns.
                        self.release_to_io(core, task);
                        self.events
                            .schedule_untracked(self.now + io_wait, Event::IoComplete(task));
                        PolicyCall::Internal
                    }
                }
            }
            Event::IoComplete(task) => {
                if task.index() < self.task_base || self.task_ref(task).state != TaskState::Blocked
                {
                    // The wait's owner was cancelled mid-wait (and possibly
                    // retired since): the external call's return is void.
                    PolicyCall::Internal
                } else {
                    let now = self.now;
                    let t = self.task_mut(task);
                    t.completion = Some(now);
                    t.state = TaskState::Finished;
                    self.finished += 1;
                    self.last_progress = self.now;
                    self.log(KernelMessage::TaskDead {
                        task,
                        core: CoreId(0),
                    });
                    PolicyCall::TaskFinished(task, CoreId(0))
                }
            }
            Event::Cancel(task) => {
                if task.index() < self.task_base {
                    // Retired: already terminal and gone.
                    PolicyCall::Internal
                } else {
                    match self.task_ref(task).state {
                        TaskState::Finished | TaskState::Cancelled => PolicyCall::Internal,
                        TaskState::Running => {
                            let core = self
                                .task_ref(task)
                                .on_core
                                .expect("running task has a core");
                            self.cancel_running(core, task);
                            PolicyCall::TaskFinished(task, core)
                        }
                        TaskState::Blocked => {
                            self.cancel_off_core(task);
                            PolicyCall::TaskFinished(task, CoreId(0))
                        }
                        // Not on a core yet: the policy still owns the task
                        // in its own queues, so cancelling here would
                        // strand policy state. `dispatch` re-arms the
                        // cancel the moment the policy runs it, killing it
                        // with zero progress.
                        TaskState::Queued | TaskState::Preempted => PolicyCall::Internal,
                    }
                }
            }
            Event::SliceExpire { core, generation } => {
                if self.cores[core.index()].generation != generation {
                    PolicyCall::Internal
                } else {
                    let task = match self.cores[core.index()].state {
                        CoreState::Running(t) => t,
                        _ => unreachable!("live slice expiry on non-running core"),
                    };
                    self.stop_running(core, task);
                    self.log(KernelMessage::SliceExpired { task, core });
                    PolicyCall::SliceExpired(task, core)
                }
            }
            Event::InterferenceStart(core) => {
                let preempted = match self.cores[core.index()].state {
                    CoreState::Running(t) => {
                        self.stop_running(core, t);
                        self.log(KernelMessage::TaskPreempt {
                            task: t,
                            core,
                            by_interference: true,
                        });
                        Some(t)
                    }
                    CoreState::Interference => None, // already occupied; skip episode
                    CoreState::Idle => None,
                };
                if self.cores[core.index()].state == CoreState::Idle {
                    let icfg = self
                        .cfg
                        .interference
                        .expect("interference event without config");
                    self.idle.remove(core);
                    let c = &mut self.cores[core.index()];
                    c.state = CoreState::Interference;
                    c.generation += 1;
                    c.busy_since = Some(self.now);
                    c.last_task = None; // the intruder pollutes the cache
                    let generation = c.generation;
                    let dur = self.rng.jitter(icfg.duration, 0.5);
                    self.events.schedule_untracked(
                        self.now + dur,
                        Event::InterferenceEnd { core, generation },
                    );
                    self.log(KernelMessage::InterferenceStart { core });
                }
                match preempted {
                    Some(t) => PolicyCall::InterferencePreempt(t, core),
                    None => PolicyCall::Internal,
                }
            }
            Event::InterferenceEnd { core, generation } => {
                if self.cores[core.index()].generation == generation {
                    let c = &mut self.cores[core.index()];
                    if let Some(since) = c.busy_since.take() {
                        let now = self.now;
                        self.util.record_busy(core.index(), since, now);
                    }
                    c.state = CoreState::Idle;
                    self.mark_idle(core);
                    self.log(KernelMessage::InterferenceEnd { core });
                }
                // Schedule the next episode regardless.
                let icfg = self
                    .cfg
                    .interference
                    .expect("interference event without config");
                let gap = self.rng.exponential(icfg.mean_interval.as_secs_f64());
                let gap = storm_scaled(&self.cfg.storms, self.now, gap);
                self.events.schedule_untracked(
                    self.now + SimDuration::from_secs_f64(gap),
                    Event::InterferenceStart(core),
                );
                PolicyCall::Internal
            }
            Event::Tick => {
                let every = self.tick_every.expect("tick event without interval");
                self.events
                    .schedule_untracked(self.now + every, Event::Tick);
                PolicyCall::Tick
            }
        };
        Ok(Some(call))
    }

    // ---- renewal trains (see `crate::train`) ------------------------------

    /// Puts a held or broken train's pending boundary on the heap as an
    /// ordinary slice expiry, under the number reserved for it. Breaking a
    /// train this way is always exact: the expiry is then delivered as if
    /// no train had run.
    fn arm(&mut self, train: Train) {
        let Train {
            core,
            generation,
            next,
            seq,
            ..
        } = train;
        self.events
            .schedule_reserved(next, seq, Event::SliceExpire { core, generation });
    }

    /// Ends a driver step: the renewal held in it, if any, starts a train
    /// when its core still runs that dispatch and `policy` would renew it
    /// with the same slice, and is armed as an ordinary expiry otherwise.
    pub(crate) fn start_train<P: Scheduler>(&mut self, policy: &P) {
        let Some(held) = self.held.take() else {
            return;
        };
        if self.train_intact(&held) && policy.renewal_slice(held.core) == Some(held.slice) {
            // A core holds one dispatch at a time: a train still listed
            // for it belongs to an earlier one.
            if let Some(i) = self.trains.iter().position(|t| t.core == held.core) {
                let stale = self.trains.swap_remove(i);
                self.arm(stale);
            }
            self.trains.push(held);
        } else {
            self.arm(held);
        }
    }

    /// Whether `t`'s core still runs its task under the dispatch that
    /// armed the pending boundary.
    fn train_intact(&self, t: &Train) -> bool {
        let c = &self.cores[t.core.index()];
        c.generation == t.generation && c.state == CoreState::Running(t.task)
    }

    /// Sum over settled slice expiries of the cores idle at that instant.
    pub(crate) fn renewal_skips(&self) -> u64 {
        self.renewal_skips
    }

    /// Settles every renewal-train boundary that fires before the next
    /// real event (see [`crate::train`]) and hands each settled train to
    /// [`Scheduler::on_renewed`]. `unsure` says whether an idle core's
    /// `may_dispatch` may be `true` (the driver's last sweep offered a core
    /// after passing over another); if not, none is.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] when a settled boundary is past the stall
    /// timeout.
    pub(crate) fn settle_next<P: Scheduler>(
        &mut self,
        policy: &mut P,
        unsure: bool,
    ) -> Result<(), SimError> {
        loop {
            let horizon = match self.events.peek_key() {
                Some((at, seq)) if at < self.next_arrival_at => Horizon::Event(at, seq),
                _ => Horizon::Before(self.next_arrival_at),
            };
            // A broken train's expiry may be the next event instead.
            if !self.settle_to(horizon, policy, unsure)? {
                return Ok(());
            }
        }
    }

    /// Settles every train boundary before `bound` (a run bound: nothing
    /// at or after it is consumed), like [`Machine::settle_next`] when no
    /// real event comes before `bound`. Returns `true`, settling nothing,
    /// when a train broke instead: its expiry is then a real event before
    /// `bound`, for the driver to deliver first.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] when a settled boundary is past the stall
    /// timeout.
    pub(crate) fn settle_before<P: Scheduler>(
        &mut self,
        bound: SimTime,
        policy: &mut P,
        unsure: bool,
    ) -> Result<bool, SimError> {
        debug_assert!(
            self.trains.iter().all(|t| t.done >= bound),
            "a train completes before the bound"
        );
        self.settle_to(Horizon::Before(bound), policy, unsure)
    }

    /// Settles, for every train, the boundaries that fire before the next
    /// real event: `horizon`, or an earlier train completion. Each settled
    /// boundary is one slice expiry the machine would have popped and the
    /// warm re-dispatch of the same task the driver's sweep would have
    /// made; a train whose last boundary settles arms its completion.
    ///
    /// A train with a boundary due may no longer renew: its core changed
    /// hands, the policy's [`Scheduler::renewal_slice`] no longer names
    /// its slice, or an idle core's `may_dispatch` is `true` (an offer
    /// there would change what the skipped sweeps saw). The answers hold
    /// until the next real event, so every due boundary renews or none
    /// does; such a train breaks instead, and this returns `true` having
    /// settled nothing, since its expiry may now be the next event.
    fn settle_to<P: Scheduler>(
        &mut self,
        horizon: Horizon,
        policy: &mut P,
        unsure: bool,
    ) -> Result<bool, SimError> {
        let (Horizon::Before(until) | Horizon::Event(until, _)) = horizon else {
            unreachable!("settlement starts from a heap or calendar horizon");
        };
        let mut settling = std::mem::take(&mut self.settling);
        settling.clear();
        let (mut wanted, mut broke, mut lowered) = (None, false, false);
        let mut i = 0;
        while i < self.trains.len() {
            let k = self.trains[i].boundaries_before_horizon(i, horizon, &self.trains);
            if k == 0 {
                i += 1;
                continue;
            }
            let t = self.trains[i];
            let renews = self.train_intact(&t)
                && policy.renewal_slice(t.core) == Some(t.slice)
                && !*wanted.get_or_insert_with(|| unsure && self.idle_core_wanted(policy));
            if !renews {
                self.trains.swap_remove(i);
                self.arm(t);
                broke = true;
                continue;
            }
            lowered |= t.done < until;
            settling.push((t.item_at(k), i, k));
            i += 1;
        }
        if broke {
            self.settling = settling;
            return Ok(true);
        }
        if lowered {
            // A completion comes first: settle only what precedes it.
            let horizon = self.earliest_completion(horizon);
            let trains = &self.trains;
            settling.retain_mut(|(last, i, k)| {
                *k = trains[*i].boundaries_before_horizon(*i, horizon, trains);
                *last = trains[*i].item_at((*k).max(1));
                *k > 0
            });
        }
        let result = self.settle_due(&mut settling, policy);
        self.settling = settling;
        result.map(|()| false)
    }

    /// Whether some idle core's [`Scheduler::may_dispatch`] is `true`.
    fn idle_core_wanted<P: Scheduler>(&self, policy: &P) -> bool {
        let wanted = |core: CoreId| {
            self.cores[core.index()].state == CoreState::Idle && policy.may_dispatch(core)
        };
        if self.idle.len() == 0 {
            return false;
        }
        match policy.offer_scope() {
            OfferScope::Nowhere => false,
            OfferScope::Only(core) => wanted(core),
            OfferScope::PerCore => self.idle.iter().any(wanted),
        }
    }

    /// Applies the boundaries `settling` lists, `(last boundary settled,
    /// train index, boundaries settled)`.
    fn settle_due<P: Scheduler>(
        &mut self,
        settling: &mut Vec<(SimTime, usize, u64)>,
        policy: &mut P,
    ) -> Result<(), SimError> {
        let mut stalled = None;
        if let Some(limit) = self.last_progress.checked_add(self.cfg.stall_timeout) {
            // The first boundary past the stall limit is where the popped
            // expiry would have declared the stall, after the ones before
            // it.
            let trains = &self.trains;
            stalled = settling
                .iter()
                .filter(|&&(last, ..)| last > limit)
                .map(|&(_, i, _)| trains[i].item_at(trains[i].boundaries_through(limit) + 1))
                .min();
            if stalled.is_some() {
                settling.retain_mut(|(last, i, k)| {
                    *k = (*k).min(trains[*i].boundaries_through(limit));
                    *last = trains[*i].item_at((*k).max(1));
                    *k > 0
                });
            }
        }
        if self.cfg.log_messages {
            self.log_settled(settling);
        }
        // Fresh numbers go out in the order the last settled boundaries
        // would have fired.
        if settling.len() > 1 {
            let trains = &self.trains;
            settling.sort_unstable_by(|&(ta, a, ka), &(tb, b, kb)| {
                ta.cmp(&tb)
                    .then_with(|| tie_order(trains, (a, ka), (b, kb)))
            });
        }
        let idle = self.idle.len() as u64;
        let mut completed = false;
        for &(last, i, k) in settling.iter() {
            let t = self.settle_train(i, k, last, idle);
            completed |= t.left == 0;
            policy.on_renewed(self, t.task, t.core);
        }
        if completed {
            self.trains.retain(|t| t.left > 0);
        }
        match stalled {
            Some(at) => {
                self.now = at;
                self.events_processed += 1;
                Err(SimError::Stalled {
                    at,
                    unfinished: self.tasks.len() - self.finished,
                })
            }
            None => Ok(()),
        }
    }

    /// `horizon`, or the completion of a train that comes before it.
    fn earliest_completion(&self, horizon: Horizon) -> Horizon {
        let (Horizon::Before(before) | Horizon::Event(before, _)) = horizon else {
            return horizon;
        };
        // A completion's number is reserved during the settlement, after
        // every heap entry's: at `before` itself it fires later.
        let mut first: Option<usize> = None;
        for (i, t) in self.trains.iter().enumerate() {
            if t.done >= before {
                continue;
            }
            first = match first {
                Some(f) => {
                    let u = &self.trains[f];
                    let earlier = t.done < u.done
                        || (t.done == u.done && fires_first(t, t.left + 1, u, u.left + 1));
                    Some(if earlier { i } else { f })
                }
                None => Some(i),
            };
        }
        first.map_or(horizon, Horizon::Completion)
    }

    /// Applies `k` settled boundaries to train `i`, the last of them at
    /// `last`, with `idle` cores idle throughout: `k` slice expiries and
    /// warm renewals of one slice each, then the next boundary's (or the
    /// completion's) reserved number. Returns the train as it now stands
    /// (`left == 0` once its completion is armed).
    fn settle_train(&mut self, i: usize, k: u64, last: SimTime, idle: u64) -> Train {
        let t = self.trains[i];
        let ran = t.slice * k;
        let c = &mut self.cores[t.core.index()];
        c.preemptions += k;
        c.generation += 2 * k;
        c.work_start = last;
        let since = c
            .busy_since
            .replace(last)
            .expect("train core without busy_since");
        let generation = c.generation;
        self.util.record_busy(t.core.index(), since, last);
        let task = self.task_mut(t.task);
        task.remaining -= ran;
        task.cpu_time += ran;
        task.preemptions += k as u32;
        debug_assert!(
            task.spec().deadline.is_none_or(|d| d > last),
            "a train settled a boundary past its task's deadline"
        );
        self.idle_transitions += k;
        self.events_processed += k;
        self.renewals_settled += k;
        self.renewal_skips += k * idle;
        self.now = self.now.max(last);
        let seq = self.events.reserve();
        let train = &mut self.trains[i];
        train.generation = generation;
        train.seq = seq;
        train.next = last + t.slice;
        train.left -= k;
        let t = *train;
        if t.left == 0 {
            let core = t.core;
            self.events
                .schedule_reserved(t.done, seq, Event::Complete { core, generation });
        }
        t
    }

    /// Logs the slice expiry and warm re-dispatch of every boundary in
    /// `settling`, across trains in the order they would have fired.
    #[cold]
    fn log_settled(&mut self, settling: &[(SimTime, usize, u64)]) {
        let trains = &self.trains;
        let mut items: Vec<(SimTime, usize, u64)> = settling
            .iter()
            .flat_map(|&(_, i, k)| (1..=k).map(move |j| (trains[i].item_at(j), i, j)))
            .collect();
        items.sort_by(|&(ta, a, ja), &(tb, b, jb)| {
            ta.cmp(&tb)
                .then_with(|| tie_order(trains, (a, ja), (b, jb)))
        });
        for (at, i, _) in items {
            let Train {
                task, core, slice, ..
            } = self.trains[i];
            self.messages
                .push((at, KernelMessage::SliceExpired { task, core }));
            let slice = Some(slice);
            self.messages
                .push((at, KernelMessage::Dispatch { task, core, slice }));
        }
    }

    /// Ends the current run segment of `task` on `core` without finishing
    /// it: accounts progress, bumps preemption counters, frees the core.
    fn stop_running(&mut self, core: CoreId, task: TaskId) {
        let now = self.now;
        let (ran, since) = {
            let c = &mut self.cores[core.index()];
            let ran = now.saturating_since(c.work_start);
            let since = c
                .busy_since
                .take()
                .expect("running core without busy_since");
            c.state = CoreState::Idle;
            c.generation += 1; // invalidate in-flight Complete/SliceExpire
            c.preemptions += 1;
            (ran, since)
        };
        self.mark_idle(core);
        self.util.record_busy(core.index(), since, now);
        let t = self.task_mut(task);
        let ran = ran.min(t.remaining);
        t.remaining -= ran;
        t.cpu_time += ran;
        t.preemptions += 1;
        t.state = TaskState::Preempted;
        t.on_core = None;
    }

    /// Finishes the CPU work of `task` on `core` and moves it to the
    /// off-CPU blocked state (external call in flight).
    fn release_to_io(&mut self, core: CoreId, task: TaskId) {
        let now = self.now;
        let since = {
            let c = &mut self.cores[core.index()];
            let since = c
                .busy_since
                .take()
                .expect("running core without busy_since");
            c.state = CoreState::Idle;
            c.generation += 1;
            since
        };
        self.mark_idle(core);
        self.util.record_busy(core.index(), since, now);
        let t = self.task_mut(task);
        t.cpu_time += t.remaining;
        t.remaining = SimDuration::ZERO;
        t.state = TaskState::Blocked;
        t.on_core = None;
    }

    /// Completes `task` on `core`.
    fn finish_running(&mut self, core: CoreId, task: TaskId) {
        let now = self.now;
        let since = {
            let c = &mut self.cores[core.index()];
            let since = c
                .busy_since
                .take()
                .expect("running core without busy_since");
            c.state = CoreState::Idle;
            c.generation += 1;
            since
        };
        self.mark_idle(core);
        self.util.record_busy(core.index(), since, now);
        let t = self.task_mut(task);
        t.cpu_time += t.remaining;
        t.remaining = SimDuration::ZERO;
        t.completion = Some(now);
        t.state = TaskState::Finished;
        t.on_core = None;
        self.finished += 1;
        self.last_progress = now;
        self.log(KernelMessage::TaskDead { task, core });
    }

    /// Cancels `task` mid-run on `core`: accounts the progress it made,
    /// frees the core (invalidating in-flight Complete/SliceExpire via the
    /// generation bump), and moves the task to the terminal `Cancelled`
    /// state with no completion instant.
    fn cancel_running(&mut self, core: CoreId, task: TaskId) {
        let now = self.now;
        let (ran, since) = {
            let c = &mut self.cores[core.index()];
            let ran = now.saturating_since(c.work_start);
            let since = c
                .busy_since
                .take()
                .expect("running core without busy_since");
            c.state = CoreState::Idle;
            c.generation += 1;
            (ran, since)
        };
        self.mark_idle(core);
        self.util.record_busy(core.index(), since, now);
        let t = self.task_mut(task);
        let ran = ran.min(t.remaining);
        t.remaining -= ran;
        t.cpu_time += ran;
        t.state = TaskState::Cancelled;
        t.on_core = None;
        self.seal_cancel(task, core);
    }

    /// Cancels a task that occupies no core (blocked on an external call).
    fn cancel_off_core(&mut self, task: TaskId) {
        self.task_mut(task).state = TaskState::Cancelled;
        self.seal_cancel(task, CoreId(0));
    }

    /// Terminal bookkeeping shared by every cancellation path.
    fn seal_cancel(&mut self, task: TaskId, core: CoreId) {
        self.finished += 1;
        self.cancelled_total += 1;
        self.last_progress = self.now;
        self.log(KernelMessage::TaskDead { task, core });
    }

    /// Records a busy→idle transition: updates the idle set and bumps the
    /// change counter the driver's batched sweep keys off.
    #[inline]
    fn mark_idle(&mut self, core: CoreId) {
        self.idle.insert(core);
        self.idle_transitions += 1;
    }

    /// Monotonic count of busy→idle transitions (the driver's batching
    /// signal: unchanged counter ⇒ no core became idle ⇒ no sweep needed).
    pub fn idle_transitions(&self) -> u64 {
        self.idle_transitions
    }

    /// Number of 64-bit words in the idle bitset (see
    /// [`Machine::idle_word`]).
    pub(crate) fn idle_words(&self) -> usize {
        self.idle.words()
    }

    /// Word `w` of the idle bitset: bit `b` is set iff core `64 * w + b`
    /// is idle. The driver's sweep settles whole words of cores at once.
    #[inline]
    pub(crate) fn idle_word(&self, w: usize) -> u64 {
        self.idle.word(w)
    }

    /// Appends to the kernel message log when enabled. Inlined so the
    /// flag check sinks the message construction off the hot path; the
    /// push itself is the cold side (logging is a test/debug feature).
    #[inline]
    fn log(&mut self, msg: KernelMessage) {
        if self.cfg.log_messages {
            self.log_push(msg);
        }
    }

    #[cold]
    fn log_push(&mut self, msg: KernelMessage) {
        self.messages.push((self.now, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_task_machine(work_ms: u64) -> Machine {
        let cfg = MachineConfig::new(1)
            .with_cost(CostModel::free())
            .with_message_log();
        Machine::new(
            cfg,
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_millis(work_ms),
                128,
            )],
        )
    }

    #[test]
    fn storm_scaling_passes_draws_through_outside_windows() {
        let w = StormWindow {
            start: SimTime::from_millis(1_000),
            end: SimTime::from_millis(2_000),
            intensity: 4.0,
        };
        let g = 0.123_456_789_f64;
        // No storms and out-of-window instants return the draw bitwise
        // untouched — this is what keeps empty plans a no-op.
        assert_eq!(
            storm_scaled(&[], SimTime::from_millis(1_500), g).to_bits(),
            g.to_bits()
        );
        assert_eq!(
            storm_scaled(&[w], SimTime::from_millis(999), g).to_bits(),
            g.to_bits()
        );
        assert_eq!(
            storm_scaled(&[w], SimTime::from_millis(2_000), g).to_bits(),
            g.to_bits()
        );
        // Inside the window the gap shrinks by the intensity.
        assert_eq!(
            storm_scaled(&[w], SimTime::from_millis(1_000), g).to_bits(),
            (g / 4.0).to_bits()
        );
        // Overlapping windows: first match wins.
        let calm = StormWindow {
            intensity: 0.5,
            ..w
        };
        assert_eq!(
            storm_scaled(&[calm, w], SimTime::from_millis(1_500), g).to_bits(),
            (g / 0.5).to_bits()
        );
    }

    /// Drives a one-core machine through a 60 s task, re-dispatching after
    /// every preemption, and counts interference episodes.
    fn interference_episodes(storms: Vec<StormWindow>) -> usize {
        let cfg = MachineConfig::new(1)
            .with_cost(CostModel::free())
            .with_interference(InterferenceConfig {
                mean_interval: SimDuration::from_secs(5),
                duration: SimDuration::from_millis(1),
            })
            .with_storms(storms)
            .with_message_log();
        let mut m = Machine::new(
            cfg,
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_secs(60),
                128,
            )],
        );
        while m.task(TaskId(0)).state() != TaskState::Finished {
            m.advance().unwrap().expect("task still unfinished");
            let runnable = matches!(
                m.task(TaskId(0)).state(),
                TaskState::Queued | TaskState::Preempted
            );
            if runnable && m.core_state(CoreId(0)) == CoreState::Idle {
                m.dispatch(CoreId(0), TaskId(0), None).unwrap();
            }
        }
        m.messages()
            .iter()
            .filter(|(_, msg)| matches!(msg, KernelMessage::InterferenceStart { .. }))
            .count()
    }

    #[test]
    fn storm_windows_concentrate_interference() {
        let calm = interference_episodes(vec![]);
        let stormy = interference_episodes(vec![StormWindow {
            start: SimTime::ZERO,
            end: SimTime::from_millis(120_000),
            intensity: 50.0,
        }]);
        assert!(
            stormy > 2 * calm,
            "a 50x storm over the whole run must multiply episodes ({stormy} vs {calm})"
        );
    }

    #[test]
    fn single_task_runs_to_completion() {
        let mut m = one_task_machine(100);
        // Arrival.
        assert_eq!(m.advance().unwrap(), Some(PolicyCall::TaskNew(TaskId(0))));
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // Completion.
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), CoreId(0)))
        );
        let t = m.task(TaskId(0));
        assert_eq!(t.state(), TaskState::Finished);
        assert_eq!(t.execution_time(), Some(SimDuration::from_millis(100)));
        assert_eq!(t.response_time(), Some(SimDuration::ZERO));
        assert_eq!(m.advance().unwrap(), None, "drained");
    }

    #[test]
    fn slice_expiry_preempts_and_accounts_progress() {
        let mut m = one_task_machine(100);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), Some(SimDuration::from_millis(30)))
            .unwrap();
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::SliceExpired(TaskId(0), CoreId(0)))
        );
        let t = m.task(TaskId(0));
        assert_eq!(t.state(), TaskState::Preempted);
        assert_eq!(t.remaining(), SimDuration::from_millis(70));
        assert_eq!(t.preemptions(), 1);
        assert_eq!(m.core_state(CoreId(0)), CoreState::Idle);
    }

    #[test]
    fn warm_resume_charges_no_switch_or_penalty() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::from_micros(1_000, 5_000));
        let mut m = Machine::new(
            cfg,
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_millis(100),
                128,
            )],
        );
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), Some(SimDuration::from_millis(30)))
            .unwrap();
        m.advance().unwrap(); // slice expiry at 1ms (switch) + 30ms
        assert_eq!(m.now(), SimTime::from_micros(31_000));
        assert_eq!(m.task(TaskId(0)).remaining(), SimDuration::from_millis(70));
        // Re-dispatch the same task on the same core: warm, no extra costs.
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap();
        assert_eq!(m.now(), SimTime::from_micros(31_000 + 70_000));
        let stats = m.core_stats(CoreId(0));
        assert_eq!(stats.ctx_switches, 1, "only the initial switch");
    }

    #[test]
    fn cold_resume_pays_restore_penalty() {
        let cfg = MachineConfig::new(2).with_cost(CostModel::from_micros(0, 5_000));
        let mut m = Machine::new(
            cfg,
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_millis(100),
                128,
            )],
        );
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), Some(SimDuration::from_millis(40)))
            .unwrap();
        m.advance().unwrap();
        // Resume on a different core: remaining 60ms + 5ms penalty.
        m.dispatch(CoreId(1), TaskId(0), None).unwrap();
        m.advance().unwrap();
        let t = m.task(TaskId(0));
        assert_eq!(t.completion(), Some(SimTime::from_millis(105)));
        assert_eq!(t.cpu_time(), SimDuration::from_millis(105));
    }

    #[test]
    fn explicit_preempt_mid_run() {
        let mut m = one_task_machine(100);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // No event has fired yet, so now == 0; preempting immediately
        // yields zero progress.
        let got = m.preempt(CoreId(0)).unwrap();
        assert_eq!(got, TaskId(0));
        assert_eq!(m.task(TaskId(0)).remaining(), SimDuration::from_millis(100));
        assert_eq!(m.task(TaskId(0)).state(), TaskState::Preempted);
        // The stale completion event is ignored.
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        loop {
            match m.advance().unwrap() {
                Some(PolicyCall::TaskFinished(..)) => break,
                Some(_) => continue,
                None => panic!("ended without completion"),
            }
        }
        assert_eq!(m.task(TaskId(0)).state(), TaskState::Finished);
    }

    #[test]
    fn dispatch_errors() {
        let mut m = one_task_machine(10);
        m.advance().unwrap();
        assert_eq!(
            m.dispatch(CoreId(9), TaskId(0), None),
            Err(SchedError::NoSuchCore(CoreId(9)))
        );
        assert_eq!(
            m.dispatch(CoreId(0), TaskId(9), None),
            Err(SchedError::NoSuchTask(TaskId(9)))
        );
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        assert_eq!(
            m.dispatch(CoreId(0), TaskId(0), None),
            Err(SchedError::CoreBusy(CoreId(0)))
        );
        assert_eq!(m.preempt(CoreId(9)), Err(SchedError::NoSuchCore(CoreId(9))));
        m.advance().unwrap(); // completes
        assert_eq!(
            m.dispatch(CoreId(0), TaskId(0), None),
            Err(SchedError::NotRunnable(TaskId(0)))
        );
        assert_eq!(
            m.preempt(CoreId(0)),
            Err(SchedError::NothingRunning(CoreId(0)))
        );
    }

    #[test]
    fn deadlock_detected_when_policy_strands_tasks() {
        let mut m = one_task_machine(10);
        m.advance().unwrap(); // arrival, but we never dispatch
        assert_eq!(m.advance(), Err(SimError::Deadlock { unfinished: 1 }));
    }

    #[test]
    fn message_log_records_protocol() {
        let mut m = one_task_machine(10);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap();
        let kinds: Vec<&KernelMessage> = m.messages().iter().map(|(_, k)| k).collect();
        assert!(matches!(kinds[0], KernelMessage::TaskNew { .. }));
        assert!(matches!(kinds[1], KernelMessage::Dispatch { .. }));
        assert!(matches!(kinds[2], KernelMessage::TaskDead { .. }));
    }

    #[test]
    fn utilization_recorded_for_busy_interval() {
        let mut m = one_task_machine(500);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap();
        let u = m.utilization().bucket_utilization(0, 0);
        assert!((u - 0.5).abs() < 1e-9, "utilization was {u}");
    }

    #[test]
    fn io_wait_bills_but_frees_the_core() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(1), 128)
                .with_io_wait(SimDuration::from_secs(60)),
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(5), 128),
        ];
        let mut m = Machine::new(cfg, specs);
        // Arrivals.
        assert!(matches!(m.advance().unwrap(), Some(PolicyCall::TaskNew(_))));
        assert!(matches!(m.advance().unwrap(), Some(PolicyCall::TaskNew(_))));
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // CPU work of task 0 done at 1 ms: core freed, task blocked.
        assert!(matches!(m.advance().unwrap(), Some(PolicyCall::Internal)));
        assert_eq!(m.core_state(CoreId(0)), CoreState::Idle);
        assert_eq!(m.task(TaskId(0)).state(), TaskState::Blocked);
        // The second task runs to completion while the first waits.
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        assert!(matches!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(1), _))
        ));
        // The waiting task finishes at 60.001 s.
        assert!(matches!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), _))
        ));
        let t = m.task(TaskId(0));
        assert_eq!(t.completion(), Some(SimTime::from_micros(60_001_000)));
        // Billing: execution (wall clock) is the full minute; CPU is 1 ms —
        // the paper's §I AWS Lambda example.
        assert_eq!(
            t.execution_time(),
            Some(SimDuration::from_micros(60_001_000))
        );
        assert_eq!(t.cpu_time(), SimDuration::from_millis(1));
    }

    #[test]
    fn streamed_specs_extend_a_paused_machine() {
        let mut m = one_task_machine(10);
        m.advance().unwrap(); // arrival
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap(); // finish at 10 ms
        assert_eq!(m.advance().unwrap(), None, "all fed tasks finished");
        assert_eq!(m.next_event_at(), None);
        m.push_specs(vec![TaskSpec::function(
            SimTime::from_millis(50),
            SimDuration::from_millis(5),
            128,
        )]);
        assert_eq!(m.next_event_at(), Some(SimTime::from_millis(50)));
        assert_eq!(m.num_tasks(), 2);
        // Ids continue densely after the already-fed task.
        assert_eq!(m.advance().unwrap(), Some(PolicyCall::TaskNew(TaskId(1))));
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(1), CoreId(0)))
        );
        assert_eq!(
            m.task(TaskId(1)).completion(),
            Some(SimTime::from_millis(55))
        );
    }

    #[test]
    fn retire_finished_pops_only_the_finished_prefix() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128),
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap(); // T0 arrival
        m.advance().unwrap(); // T1 arrival
        assert_eq!(m.retire_finished(|_| ()), 0, "nothing finished yet");
        // Finish T1 first: the unfinished T0 pins the retirement frontier.
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        m.advance().unwrap();
        assert_eq!(m.retire_finished(|_| ()), 0, "T0 blocks the prefix");
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap();
        let mut drained = Vec::new();
        assert_eq!(m.retire_finished(|t| drained.push(t)), 2);
        // Drained in task-id order, not completion order.
        assert_eq!(drained[0].completion(), Some(SimTime::from_millis(20)));
        assert_eq!(drained[1].completion(), Some(SimTime::from_millis(10)));
        // Totals still count the retired tasks; their records are gone.
        assert_eq!(m.num_tasks(), 2);
        assert_eq!(m.num_finished(), 2);
        assert_eq!(m.retire_finished(|_| ()), 0);
        assert_eq!(
            m.dispatch(CoreId(0), TaskId(0), None),
            Err(SchedError::NoSuchTask(TaskId(0)))
        );
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn push_specs_rejects_backdated_arrivals() {
        let mut m = one_task_machine(10);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap(); // now = 10 ms
        m.push_specs(vec![TaskSpec::function(
            SimTime::from_millis(5),
            SimDuration::from_millis(1),
            128,
        )]);
    }

    #[test]
    fn deadline_cancels_running_task() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128)
                .with_deadline(SimTime::from_millis(30)),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap(); // arrival (schedules the cancel)
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // The cancel fires at 30 ms, before the 100 ms completion.
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), CoreId(0)))
        );
        assert_eq!(m.now(), SimTime::from_millis(30));
        let t = m.task(TaskId(0));
        assert!(t.is_cancelled());
        assert_eq!(t.completion(), None, "cancelled tasks are unbilled");
        assert_eq!(
            t.cpu_time(),
            SimDuration::from_millis(30),
            "progress accounted"
        );
        assert_eq!(m.core_state(CoreId(0)), CoreState::Idle);
        assert_eq!(m.num_cancelled(), 1);
        // Terminal: the machine pauses; the stale completion never fires live.
        assert_eq!(m.advance().unwrap(), None);
    }

    #[test]
    fn past_deadline_dispatch_cancels_with_zero_progress() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128),
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128)
                .with_deadline(SimTime::from_millis(50)),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap(); // T0 arrival
        m.advance().unwrap(); // T1 arrival (cancel armed at 50 ms)
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // T1's cancel fires at 50 ms while it is still queued: a no-op —
        // the policy owns queued tasks.
        assert_eq!(m.advance().unwrap(), Some(PolicyCall::Internal));
        assert_eq!(m.task(TaskId(1)).state(), TaskState::Queued);
        // T0 finishes at 100 ms; dispatching T1 past its deadline re-arms
        // the cancel for this instant and it dies with zero progress.
        assert!(matches!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), _))
        ));
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(1), CoreId(0)))
        );
        assert_eq!(m.now(), SimTime::from_millis(100));
        let t = m.task(TaskId(1));
        assert!(t.is_cancelled());
        assert_eq!(t.cpu_time(), SimDuration::ZERO);
        assert_eq!(m.advance().unwrap(), None);
    }

    #[test]
    fn deadline_cancels_blocked_task_and_voids_io_return() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(1), 128)
                .with_io_wait(SimDuration::from_secs(60))
                .with_deadline(SimTime::from_millis(500)),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // CPU done at 1 ms, task blocks on the external call.
        assert!(matches!(m.advance().unwrap(), Some(PolicyCall::Internal)));
        assert_eq!(m.task(TaskId(0)).state(), TaskState::Blocked);
        // Cancel fires at 500 ms, long before the 60 s wait returns.
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), CoreId(0)))
        );
        assert_eq!(m.now(), SimTime::from_millis(500));
        assert!(m.task(TaskId(0)).is_cancelled());
        assert_eq!(m.advance().unwrap(), None, "void io return never delivers");
    }

    #[test]
    fn max_in_flight_tracks_peak_backlog() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128),
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128),
            TaskSpec::function(SimTime::from_millis(100), SimDuration::from_millis(10), 128),
        ];
        let mut m = Machine::new(cfg, specs);
        assert_eq!(m.max_in_flight(), 0);
        m.advance().unwrap();
        m.advance().unwrap();
        assert_eq!(m.max_in_flight(), 2, "two arrived, none finished");
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        m.advance().unwrap();
        // The third arrives after both finished: backlog 1, peak stays 2.
        m.advance().unwrap();
        assert_eq!(m.max_in_flight(), 2);
    }

    #[test]
    fn retire_covers_cancelled_prefix() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128)
                .with_deadline(SimTime::from_millis(10)),
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(5), 128),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap();
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap(); // cancel at 10 ms
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        m.advance().unwrap(); // T1 finishes
        let mut drained = Vec::new();
        assert_eq!(m.retire_finished(|t| drained.push(t)), 2);
        assert!(drained[0].is_cancelled());
        assert_eq!(drained[1].completion(), Some(SimTime::from_millis(15)));
        assert_eq!(m.num_cancelled(), 1, "monotonic across retirement");
    }

    #[test]
    fn interference_occupies_idle_core_and_preempts_running() {
        let icfg = InterferenceConfig {
            mean_interval: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(10),
        };
        let cfg = MachineConfig::new(1)
            .with_cost(CostModel::free())
            .with_interference(icfg)
            .with_seed(7);
        let mut m = Machine::new(
            cfg,
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_secs(1),
                128,
            )],
        );
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // Run until the task gets interference-preempted at least once.
        let mut preempted = false;
        for _ in 0..100 {
            match m.advance().unwrap() {
                Some(PolicyCall::InterferencePreempt(t, c)) => {
                    preempted = true;
                    assert_eq!(t, TaskId(0));
                    assert_eq!(m.core_state(c), CoreState::Interference);
                    break;
                }
                Some(PolicyCall::TaskFinished(..)) | None => break,
                Some(_) => continue,
            }
        }
        assert!(preempted, "task should get interference-preempted");
    }
}
