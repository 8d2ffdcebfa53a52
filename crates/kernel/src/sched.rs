//! The user-space scheduling agent interface and the simulation driver.
//!
//! [`Scheduler`] is the simulated equivalent of a ghOSt user-space agent:
//! the kernel delivers messages (task arrival, slice expiry, …) and the
//! agent reacts by invoking the scheduling verbs on the [`Machine`].
//! [`MachineRun`] is the reusable per-machine driver — it binds one
//! machine to one agent and owns the event loop plus the batched idle
//! sweep. [`Simulation`] is its single-machine name (a type alias of
//! `MachineRun`); the cluster layer drives many
//! `MachineRun`s side by side.

use std::borrow::Cow;

use faas_simcore::{SimDuration, SimTime};

use crate::core::{CoreId, CoreState, CoreStats};
use crate::machine::{Machine, MachineConfig, PolicyCall, SimError};
use crate::message::KernelMessage;
use crate::task::{Task, TaskId, TaskSpec};

/// A user-space scheduling policy (ghOSt agent).
///
/// The driver guarantees:
///
/// * every callback runs with exclusive access to the [`Machine`];
/// * every kernel event is delivered and swept as below, except the slice
///   expiries a renewal train settles (see [`Scheduler::renewal_slice`]):
///   the driver accounts for those without calling the policy, apart from
///   one [`Scheduler::on_renewed`] per train and settlement;
/// * after every kernel event that delivers a policy callback, each core
///   that is idle at that point is considered once (in core-id order)
///   and offered through [`Scheduler::on_core_idle`] unless the policy's
///   hints say the offer cannot do anything, so a policy only needs to
///   react locally. The hints are [`Scheduler::offer_scope`] (one answer
///   for the whole machine) and [`Scheduler::may_dispatch`] (asked core
///   by core for the cores that answer leaves open);
/// * cores freed during the sweep itself are considered in follow-up
///   passes; no core is considered twice for one event;
/// * the sweep is skipped only when it provably cannot matter: after a
///   kernel-internal event (no callback ran) when additionally no core
///   became idle since the last sweep and that sweep made no
///   `on_core_idle` call at all — so the policy's decision inputs are
///   exactly those it already declined under, or that its hints already
///   ruled out;
/// * a task handed over in `on_slice_expired` / `on_interference_preempt`
///   is in the `Preempted` state and is *owned by the policy* until it is
///   dispatched again — the kernel will never move it.
pub trait Scheduler {
    /// Human-readable policy name (used in reports and figures).
    fn name(&self) -> &str;

    /// If `Some`, the kernel delivers [`Scheduler::on_tick`] periodically.
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }

    /// A new task arrived (`MSG_TASK_NEW`).
    fn on_task_new(&mut self, m: &mut Machine, task: TaskId);

    /// A task's dispatch slice expired; the task is now `Preempted`.
    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, core: CoreId);

    /// A core has nothing to run. Dispatch here if work is queued.
    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId);

    /// Whether offering the idle `core` could do anything. The idle sweep
    /// skips [`Scheduler::on_core_idle`] for a core when this is `false`;
    /// the default `true` offers every idle core.
    ///
    /// Contract:
    ///
    /// * `false` is allowed only when `on_core_idle(m, core)` would
    ///   change neither the policy nor the machine, in any machine state;
    /// * the answer may depend on policy state only (never on the
    ///   machine), so it cannot change across kernel-internal events —
    ///   which is what lets the sweep stay skipped after them while idle
    ///   cores remain that were never offered.
    ///
    /// A delegating wrapper should forward this method; one that does
    /// not falls back to offering every idle core, which changes no
    /// output and costs only speed.
    fn may_dispatch(&self, core: CoreId) -> bool {
        let _ = core;
        true
    }

    /// Which idle cores an offer could be useful on, answered once for
    /// the whole machine so the sweep can settle most idle cores without
    /// asking [`Scheduler::may_dispatch`] for each. The default
    /// [`OfferScope::PerCore`] asks core by core.
    ///
    /// Contract:
    ///
    /// * [`OfferScope::Nowhere`] promises that `may_dispatch` is `false`
    ///   for every core, and [`OfferScope::Only(k)`](OfferScope::Only)
    ///   that it is `false` for every core except `k`;
    /// * like `may_dispatch`, the answer may depend on policy state only,
    ///   never on the machine.
    ///
    /// The driver checks every `Only` and `Nowhere` answer against
    /// `may_dispatch` in debug builds. A delegating wrapper that does not
    /// forward this method falls back to the per-core walk, which changes
    /// no output and costs only speed.
    fn offer_scope(&self) -> OfferScope {
        OfferScope::PerCore
    }

    /// The slice `core`'s running task would be renewed with if its slice
    /// expired now, when that renewal would change nothing else. The
    /// default `None` never renews in closed form.
    ///
    /// `Some(s)` promises that, in any machine state where `core` runs a
    /// task, `on_slice_expired(m, task, core)` followed by
    /// `on_core_idle(m, core)` would re-dispatch that task on `core` with
    /// slice `s`, leave [`Scheduler::may_dispatch`] unchanged for every
    /// other core in between, and return the policy to its current state
    /// except for what [`Scheduler::on_renewed`] catches up. Like the
    /// sweep hints, the answer may depend on policy state only.
    ///
    /// While the answer holds and no idle core's `may_dispatch` is `true`,
    /// the driver runs a *renewal train* on `core`: it arms no per-slice
    /// event and settles the skipped expiries arithmetically before each
    /// real event (task and core accounting, utilization, message log,
    /// event and offer counters all come out as if each had been
    /// delivered). A delegating wrapper that does not forward this method
    /// delivers every expiry, which changes no output and costs only
    /// speed.
    fn renewal_slice(&self, core: CoreId) -> Option<SimDuration> {
        let _ = core;
        None
    }

    /// A renewal train settled one or more slice expiries of `task` on
    /// `core` (see [`Scheduler::renewal_slice`]); `m` shows the task's
    /// accounting after the last of them. Called before the next real
    /// event is delivered, once per train and settlement. Policy state
    /// that the skipped renewals would have moved (a run queue's
    /// `min_vruntime`, say) catches up here; nothing a hint answers from
    /// may change. Default: no-op.
    fn on_renewed(&mut self, m: &Machine, task: TaskId, core: CoreId) {
        let _ = (m, task, core);
    }

    /// A task finished (`MSG_TASK_DEAD`). Default: no-op.
    fn on_task_finished(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        let _ = (m, task, core);
    }

    /// The host OS kicked a task off a core. Default: treat it like a
    /// slice expiry (re-queue per policy rules).
    fn on_interference_preempt(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.on_slice_expired(m, task, core);
    }

    /// Periodic tick (armed via [`Scheduler::tick_interval`]). Default: no-op.
    fn on_tick(&mut self, m: &mut Machine) {
        let _ = m;
    }
}

/// A policy's whole-machine answer to "which idle cores could an offer
/// be useful on?" (see [`Scheduler::offer_scope`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferScope {
    /// No single answer: ask [`Scheduler::may_dispatch`] core by core.
    PerCore,
    /// `may_dispatch` is `false` for every core except this one.
    Only(CoreId),
    /// `may_dispatch` is `false` for every core.
    Nowhere,
}

/// Outcome of a completed simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// Policy name the run used.
    pub policy: String,
    /// Final task records (same order as the input specs).
    pub tasks: Vec<Task>,
    /// Per-core statistics.
    pub core_stats: Vec<CoreStats>,
    /// Virtual instant the last task finished.
    pub finished_at: SimTime,
    /// The machine in its final state (utilization ledger, message log).
    pub machine: Machine,
}

impl SimReport {
    /// Total CPU time consumed by all tasks (excludes switch overhead).
    pub fn total_cpu_time(&self) -> SimDuration {
        self.tasks.iter().map(Task::cpu_time).sum()
    }

    /// Total preemptions across all cores.
    pub fn total_preemptions(&self) -> u64 {
        self.core_stats.iter().map(|s| s.preemptions).sum()
    }
}

/// A memory-lean run outcome: everything a sweep or a cluster merge needs
/// (task records, core stats, the message log when enabled) **without**
/// the [`Machine`] itself — the event-queue arena, arrival calendar and
/// utilization ledger are dropped at the end of the run. Big fans (one
/// report per case or per cluster machine held concurrently) use this to
/// keep peak memory proportional to the task count alone; timelines that
/// need the utilization ledger keep using [`SimReport`].
#[derive(Debug)]
pub struct SlimReport {
    /// Policy name the run used.
    pub policy: String,
    /// Final task records (same order as the input specs).
    pub tasks: Vec<Task>,
    /// Per-core statistics.
    pub core_stats: Vec<CoreStats>,
    /// Virtual instant the last task finished.
    pub finished_at: SimTime,
    /// Kernel events processed (stale generations included) — the
    /// throughput denominator the bench harness uses, carried here
    /// because the machine that counted them is gone.
    pub events_processed: u64,
    /// Slice expiries renewal trains settled without popping an event
    /// (included in `events_processed`; see
    /// [`Machine::renewals_settled`]).
    pub renewals_settled: u64,
    /// The kernel→agent message stream — empty unless
    /// [`MachineConfig::log_messages`] was set. Carried here (it is one
    /// empty `Vec` in the common case) so differential tests can compare
    /// whole kernel streams without holding machines alive.
    pub messages: Vec<(SimTime, KernelMessage)>,
    /// Peak in-flight backlog (see [`Machine::max_in_flight`]) — the
    /// quantity overload middleware bounds.
    pub max_in_flight: u64,
    /// Tasks cancelled past their deadline (see [`Machine::num_cancelled`]).
    pub cancelled: u64,
    /// `on_core_idle` calls the idle sweep made (see
    /// [`MachineRun::idle_offers`]).
    pub idle_offers: u64,
    /// Idle cores the sweep skipped on the policy's hints (see
    /// [`MachineRun::idle_offers_skipped`]).
    pub idle_offers_skipped: u64,
}

impl SlimReport {
    /// Total CPU time consumed by all tasks (excludes switch overhead).
    pub fn total_cpu_time(&self) -> SimDuration {
        self.tasks.iter().map(Task::cpu_time).sum()
    }

    /// Total preemptions across all cores.
    pub fn total_preemptions(&self) -> u64 {
        self.core_stats.iter().map(|s| s.preemptions).sum()
    }
}

/// The reusable per-machine driver: one [`Machine`] bound to one
/// [`Scheduler`], plus the sweep state of the event loop.
///
/// This is the unit the cluster layer replicates — M machines of a fleet
/// are M independent `MachineRun`s (after front-end dispatch has split
/// the arrival stream), each advanced to completion with [`step`].
/// [`Simulation`] is the 1-machine name for the same type.
///
/// [`step`]: MachineRun::step
pub struct MachineRun<P> {
    machine: Machine,
    policy: P,
    /// Cores the current event's sweep has considered (offered or
    /// skipped), one bit per core in the idle set's word layout; bounds
    /// each core to one `on_core_idle` call per event.
    considered: Vec<u64>,
    /// The current pass's candidates: cores idle when the pass started
    /// and not yet considered for this event.
    pass: Vec<u64>,
    /// [`Machine::idle_transitions`] at the end of the previous sweep; an
    /// unchanged counter means no core became idle since.
    swept_transitions: u64,
    /// Whether the previous sweep invoked `on_core_idle` at all. An offer
    /// may mutate policy state even when declined, so the next event must
    /// re-sweep; only an offer-free quiescent state allows skipping.
    last_sweep_offered: bool,
    /// Whether the current sweep has passed over an idle core without
    /// offering it.
    declined: bool,
    /// Whether, after the last sweep, an idle core's `may_dispatch` may be
    /// `true`: the sweep offered a core after passing over another (the
    /// offer may have changed that core's answer), or an offered core
    /// stayed idle. Otherwise every idle core was ruled out under the
    /// policy state the sweep left, which renewal trains rely on.
    unsure: bool,
    /// `on_core_idle` calls made so far.
    idle_offers: u64,
    /// Idle cores the sweep considered but did not offer because the
    /// policy's hints ruled the offer out.
    idle_offers_skipped: u64,
}

impl<P: Scheduler> MachineRun<P> {
    /// Builds a driver over `specs` with the given policy. `specs` is an
    /// owned `Vec` (moved, no copy) or a borrowed slice (see
    /// [`Machine::new`]).
    pub fn new<'s>(cfg: MachineConfig, specs: impl Into<Cow<'s, [TaskSpec]>>, policy: P) -> Self {
        let mut machine = Machine::new(cfg, specs);
        if let Some(every) = policy.tick_interval() {
            machine.arm_tick(every);
        }
        let words = machine.idle_words();
        MachineRun {
            machine,
            policy,
            considered: vec![0; words],
            pass: vec![0; words],
            swept_transitions: 0,
            last_sweep_offered: false,
            declined: false,
            unsure: false,
            idle_offers: 0,
            idle_offers_skipped: 0,
        }
    }

    /// Read access to the machine mid-run (useful in tests).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Read access to the policy mid-run.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// `on_core_idle` calls the idle sweep has made so far, counting one
    /// per slice expiry a renewal train settled.
    pub fn idle_offers(&self) -> u64 {
        self.idle_offers + self.machine.renewals_settled()
    }

    /// Idle cores the sweep has skipped so far because the policy's
    /// hints ruled the offer out, counting those the sweeps of settled
    /// slice expiries would have skipped.
    pub fn idle_offers_skipped(&self) -> u64 {
        self.idle_offers_skipped + self.machine.renewal_skips()
    }

    /// Feeds more task specs mid-run (the chunked cluster feed; see
    /// [`Machine::push_specs`] for the ordering contract).
    pub fn feed_specs<'s>(&mut self, specs: impl Into<Cow<'s, [TaskSpec]>>) {
        self.machine.push_specs(specs);
    }

    /// Runs until the next pending event is at or past `bound` (exclusive)
    /// or the machine pauses with every live task finished, then settles
    /// every renewal-train boundary before `bound`, so the machine is
    /// exactly where popping each event before `bound` would leave it.
    /// The strict bound matters for chunked feeds: the next chunk's first
    /// arrival can land exactly on the horizon, and at equal instants
    /// arrivals must fire before dynamic events — so nothing at `bound`
    /// may be consumed before the feed.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the machine.
    pub fn run_until(&mut self, bound: SimTime) -> Result<(), SimError> {
        loop {
            match self.machine.next_event_at() {
                Some(t) if t < bound => {
                    if !self.step()? {
                        return Ok(());
                    }
                }
                _ => {
                    let unsure = self.unsure;
                    if !self
                        .machine
                        .settle_before(bound, &mut self.policy, unsure)?
                    {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Runs until every task fed so far has finished (the final drain of a
    /// streaming run).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the machine.
    pub fn run_to_end(&mut self) -> Result<(), SimError> {
        while self.step()? {}
        Ok(())
    }

    /// Retires finished tasks off the front of the id space into `sink`
    /// (see [`Machine::retire_finished`]); returns how many were retired.
    pub fn retire_finished(&mut self, sink: impl FnMut(Task)) -> usize {
        self.machine.retire_finished(sink)
    }

    /// Advances by one kernel event, delivering messages to the policy and
    /// sweeping idle cores. Returns `false` when the run is complete.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the machine.
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.machine.settle_next(&mut self.policy, self.unsure)?;
        let call = match self.machine.pop_event()? {
            Some(c) => c,
            None => return Ok(false),
        };
        let m = &mut self.machine;
        let delivered = !matches!(call, PolicyCall::Internal);
        match call {
            PolicyCall::TaskNew(t) => self.policy.on_task_new(m, t),
            PolicyCall::TaskFinished(t, c) => self.policy.on_task_finished(m, t, c),
            PolicyCall::SliceExpired(t, c) => self.policy.on_slice_expired(m, t, c),
            PolicyCall::InterferencePreempt(t, c) => self.policy.on_interference_preempt(m, t, c),
            PolicyCall::Tick => self.policy.on_tick(m),
            PolicyCall::Internal => {}
        }
        // Idle sweep, batched: the sweep is skipped only when it provably
        // cannot matter — the event was kernel-internal (no policy
        // callback ran), no core transitioned to idle since the last
        // sweep, and the last sweep made no `on_core_idle` offer (an
        // offer, even a declined one, may mutate policy state — e.g. the
        // hybrid agent migrates over-limit tasks between its queues while
        // declining a core). In the common loaded phases of a simulation
        // every core is busy and completions arrive stale, so whole
        // swaths of events skip the sweep. Slice expiries a renewal train
        // settled count as idle transitions, so the event after them
        // sweeps, as the offer each of them made would have required.
        if delivered
            || self.machine.idle_transitions() != self.swept_transitions
            || self.last_sweep_offered
        {
            self.declined = false;
            self.unsure = false;
            let offered = match self.machine.num_idle_cores() {
                0 => false,
                1 => self.sweep_lone_idle_core(),
                _ => {
                    self.considered.fill(0);
                    self.sweep_passes()
                }
            };
            self.swept_transitions = self.machine.idle_transitions();
            self.last_sweep_offered = offered;
        }
        self.machine.start_train(&self.policy);
        Ok(true)
    }

    /// The sweep when exactly one core is idle, the loaded steady state:
    /// that core's `may_dispatch` is all a scope answer could add, so it
    /// is asked directly, and the per-event bitsets are touched only if
    /// the offer frees a core and follow-up passes are due. Returns
    /// whether `on_core_idle` ran.
    fn sweep_lone_idle_core(&mut self) -> bool {
        let core = self.machine.idle_cores().next().expect("one idle core");
        if !self.policy.may_dispatch(core) {
            self.idle_offers_skipped += 1;
            self.declined = true;
            return false;
        }
        let transitions = self.machine.idle_transitions();
        self.idle_offers += 1;
        self.offer(core);
        if self.machine.idle_transitions() != transitions {
            self.considered.fill(0);
            self.considered[core.index() / 64] |= 1 << (core.index() % 64);
            self.sweep_passes();
        }
        true
    }

    /// Offers idle `core` to the policy, noting whether the offer leaves
    /// the sweep unsure that no idle core wants one.
    fn offer(&mut self, core: CoreId) {
        self.unsure |= self.declined;
        self.policy.on_core_idle(&mut self.machine, core);
        self.unsure |= self.machine.core_state(core) == CoreState::Idle;
    }

    /// Sweeps in passes, each over the idle cores not yet considered for
    /// this event (a word of the idle bitset at a time), until a pass
    /// frees no core: cores freed by preempts made during a pass are
    /// picked up by the next one. Returns whether `on_core_idle` ran.
    fn sweep_passes(&mut self) -> bool {
        let mut offered = false;
        while self.machine.num_idle_cores() > 0 {
            let pass_transitions = self.machine.idle_transitions();
            for (w, (cand, seen)) in self.pass.iter_mut().zip(&self.considered).enumerate() {
                *cand = self.machine.idle_word(w) & !seen;
            }
            let pass_offered = self.sweep_pass();
            offered |= pass_offered;
            if !pass_offered || self.machine.idle_transitions() == pass_transitions {
                break;
            }
        }
        offered
    }

    /// One pass over the candidates in core-id order: each candidate
    /// still idle when reached is considered and offered unless the
    /// policy rules it out. Returns whether `on_core_idle` ran.
    ///
    /// The policy's [`OfferScope`] is asked at the start and again after
    /// every real offer (only an offer can change its answers); `Only`
    /// and `Nowhere` settle whole ranges of candidates a word at a time,
    /// so a sparse machine costs O(words) per pass instead of O(idle
    /// cores).
    fn sweep_pass(&mut self) -> bool {
        let cores = self.machine.num_cores();
        let mut offered = false;
        let mut from = 0;
        while from < cores {
            // `lo..hi` is asked core by core; the scope rules out the
            // rest of `from..`.
            let (lo, hi) = match self.policy.offer_scope() {
                OfferScope::PerCore => (from, cores),
                OfferScope::Only(k) if k.index() >= from => (k.index(), k.index() + 1),
                OfferScope::Only(_) | OfferScope::Nowhere => (cores, cores),
            };
            self.walk(from, lo, false);
            let Some(core) = self.walk(lo, hi, true) else {
                self.walk(hi, cores, false);
                break;
            };
            self.idle_offers += 1;
            self.offer(core);
            offered = true;
            from = core.index() + 1;
        }
        offered
    }

    /// Considers the candidates in `[lo, hi)` that are still idle, in
    /// core-id order, a word of the bitsets at a time. With `ask` set it
    /// returns the first one [`Scheduler::may_dispatch`] allows, and the
    /// ones before it count as skipped. Without `ask` the caller holds an
    /// `Only`/`Nowhere` answer that rules the whole range out, so every
    /// candidate is skipped unasked (checked against `may_dispatch` in
    /// debug builds).
    fn walk(&mut self, lo: usize, hi: usize, ask: bool) -> Option<CoreId> {
        if lo >= hi {
            return None;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        for w in first..=last {
            let mut bits = self.pass[w] & self.machine.idle_word(w);
            if w == first {
                bits &= u64::MAX << (lo % 64);
            }
            if w == last {
                bits &= u64::MAX >> (63 - (hi - 1) % 64);
            }
            let mut found = None;
            if ask || cfg!(debug_assertions) {
                let mut rest = bits;
                while rest != 0 {
                    let low = rest & rest.wrapping_neg();
                    let core = CoreId::from_index(w * 64 + rest.trailing_zeros() as usize);
                    if self.policy.may_dispatch(core) {
                        debug_assert!(
                            ask,
                            "offer_scope ruled out core {core}, but may_dispatch allows it"
                        );
                        // Settle this core and those before it only.
                        bits &= low | (low - 1);
                        found = Some(core);
                        break;
                    }
                    rest ^= low;
                }
            }
            self.considered[w] |= bits;
            let skipped = u64::from(bits.count_ones()) - u64::from(found.is_some());
            self.idle_offers_skipped += skipped;
            self.declined |= skipped > 0;
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Runs to completion, returning the full report (keeps the machine).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the policy strands tasks or
    /// [`SimError::Stalled`] if progress halts for the configured timeout.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        while self.step()? {}
        let finished_at = self.machine.now();
        let core_stats = self.core_stats();
        let tasks = self.machine.tasks().to_vec();
        Ok(SimReport {
            policy: self.policy.name().to_owned(),
            tasks,
            core_stats,
            finished_at,
            machine: self.machine,
        })
    }

    /// Runs to completion, returning the memory-lean [`SlimReport`] — the
    /// machine (event-queue arena, calendar, utilization ledger) is
    /// dropped here instead of riding along.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MachineRun::run`].
    pub fn run_slim(mut self) -> Result<SlimReport, SimError> {
        while self.step()? {}
        let finished_at = self.machine.now();
        let core_stats = self.core_stats();
        let policy = self.policy.name().to_owned();
        let (idle_offers, idle_offers_skipped) = (self.idle_offers(), self.idle_offers_skipped());
        let mut machine = self.machine;
        let events_processed = machine.events_processed();
        let renewals_settled = machine.renewals_settled();
        let max_in_flight = machine.max_in_flight();
        let cancelled = machine.num_cancelled();
        let messages = machine.take_messages();
        let tasks = machine.into_tasks();
        Ok(SlimReport {
            policy,
            tasks,
            core_stats,
            finished_at,
            events_processed,
            renewals_settled,
            messages,
            max_in_flight,
            cancelled,
            idle_offers,
            idle_offers_skipped,
        })
    }

    /// Per-core statistics of the machine, in core-id order (what the
    /// report constructors collect; public so streaming runs can build
    /// their own reports without consuming the driver).
    pub fn core_stats(&self) -> Vec<CoreStats> {
        (0..self.machine.num_cores())
            .map(|i| self.machine.core_stats(CoreId::from_index(i)))
            .collect()
    }
}

/// Binds a [`Machine`] to a [`Scheduler`] and runs the event loop: the
/// single-machine name for [`MachineRun`], driven to completion with
/// [`MachineRun::run`] or [`MachineRun::run_slim`].
///
/// # Examples
///
/// Run three tasks under a trivial single-core FIFO agent:
///
/// ```
/// use faas_kernel::{
///     CoreId, Machine, MachineConfig, Scheduler, Simulation, TaskId, TaskSpec,
/// };
/// use faas_simcore::{SimDuration, SimTime};
/// use std::collections::VecDeque;
///
/// struct MiniFifo(VecDeque<TaskId>);
/// impl Scheduler for MiniFifo {
///     fn name(&self) -> &str { "mini-fifo" }
///     fn on_task_new(&mut self, _m: &mut Machine, t: TaskId) { self.0.push_back(t); }
///     fn on_slice_expired(&mut self, _m: &mut Machine, t: TaskId, _c: CoreId) {
///         self.0.push_back(t);
///     }
///     fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
///         if let Some(t) = self.0.pop_front() {
///             m.dispatch(core, t, None).unwrap();
///         }
///     }
/// }
///
/// let specs: Vec<TaskSpec> = (0..3)
///     .map(|i| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10 * (i + 1)), 128))
///     .collect();
/// let report = Simulation::new(MachineConfig::new(1), specs, MiniFifo(VecDeque::new()))
///     .run()
///     .unwrap();
/// assert_eq!(report.tasks.len(), 3);
/// assert!(report.tasks.iter().all(|t| t.completion().is_some()));
/// ```
pub type Simulation<P> = MachineRun<P>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Global-queue FIFO over all cores; the simplest complete agent.
    struct TestFifo {
        queue: VecDeque<TaskId>,
    }

    impl Scheduler for TestFifo {
        fn name(&self) -> &str {
            "test-fifo"
        }
        fn on_task_new(&mut self, _m: &mut Machine, task: TaskId) {
            self.queue.push_back(task);
        }
        fn on_slice_expired(&mut self, _m: &mut Machine, task: TaskId, _core: CoreId) {
            self.queue.push_back(task);
        }
        fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
            if let Some(t) = self.queue.pop_front() {
                m.dispatch(core, t, None).unwrap();
            }
        }
    }

    fn run_fifo(cores: usize, specs: Vec<TaskSpec>) -> SimReport {
        let cfg = MachineConfig::new(cores).with_cost(crate::CostModel::free());
        Simulation::new(
            cfg,
            specs,
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run()
        .unwrap()
    }

    #[test]
    fn serial_fifo_completes_in_arrival_order() {
        let specs: Vec<TaskSpec> = (0..5)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128))
            .collect();
        let report = run_fifo(1, specs);
        let completions: Vec<u64> = report
            .tasks
            .iter()
            .map(|t| t.completion().unwrap().as_millis())
            .collect();
        assert_eq!(completions, vec![10, 20, 30, 40, 50]);
        assert_eq!(report.finished_at, SimTime::from_millis(50));
    }

    #[test]
    fn parallel_fifo_uses_all_cores() {
        let specs: Vec<TaskSpec> = (0..4)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128))
            .collect();
        let report = run_fifo(4, specs);
        assert_eq!(report.finished_at, SimTime::from_millis(10));
    }

    #[test]
    fn staggered_arrivals_respected() {
        let specs = vec![
            TaskSpec::function(SimTime::from_millis(0), SimDuration::from_millis(30), 128),
            TaskSpec::function(SimTime::from_millis(100), SimDuration::from_millis(5), 128),
        ];
        let report = run_fifo(1, specs);
        assert_eq!(report.tasks[0].completion(), Some(SimTime::from_millis(30)));
        // Second task arrives at 100, after the first finished.
        assert_eq!(report.tasks[1].response_time(), Some(SimDuration::ZERO));
        assert_eq!(
            report.tasks[1].completion(),
            Some(SimTime::from_millis(105))
        );
    }

    #[test]
    fn report_totals() {
        let specs: Vec<TaskSpec> = (0..3)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(20), 128))
            .collect();
        let report = run_fifo(1, specs);
        assert_eq!(report.total_cpu_time(), SimDuration::from_millis(60));
        assert_eq!(report.total_preemptions(), 0);
        assert_eq!(report.policy, "test-fifo");
    }

    #[test]
    fn borrowed_specs_match_owned_specs() {
        // The shared-spec path must behave exactly like handing over an
        // owned Vec (same task ids, same completions).
        let specs: Vec<TaskSpec> = (0..6)
            .map(|i| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(5 + i), 128))
            .collect();
        let cfg = || MachineConfig::new(2).with_cost(crate::CostModel::free());
        let owned = Simulation::new(
            cfg(),
            specs.clone(),
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run()
        .unwrap();
        let borrowed = Simulation::new(
            cfg(),
            &specs,
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run()
        .unwrap();
        let shared: std::sync::Arc<[TaskSpec]> = specs.into();
        let arced = Simulation::new(
            cfg(),
            &shared[..],
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run()
        .unwrap();
        let completions =
            |r: &SimReport| -> Vec<_> { r.tasks.iter().map(|t| t.completion()).collect() };
        assert_eq!(completions(&owned), completions(&borrowed));
        assert_eq!(completions(&owned), completions(&arced));
    }

    #[test]
    fn chunked_feed_matches_batch_run() {
        // The kernel half of the streaming differential: feeding the same
        // specs chunk by chunk (run_until each next chunk's start, retire
        // between chunks) must replay the batch run event for event —
        // same completions, same core stats, same event count — even with
        // interference timers straddling the chunk horizons.
        let specs: Vec<TaskSpec> = (0..40)
            .map(|i| {
                TaskSpec::function(
                    SimTime::from_millis(7 * i),
                    SimDuration::from_millis(5 + (i % 9)),
                    128,
                )
            })
            .collect();
        let cfg = || {
            MachineConfig::new(2)
                .with_cost(crate::CostModel::from_micros(300, 1_500))
                .with_interference(crate::InterferenceConfig {
                    mean_interval: SimDuration::from_millis(40),
                    duration: SimDuration::from_millis(3),
                })
                .with_seed(11)
        };
        let batch = MachineRun::new(
            cfg(),
            &specs,
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run_slim()
        .unwrap();

        let mut streamed = MachineRun::new(
            cfg(),
            Vec::new(),
            TestFifo {
                queue: VecDeque::new(),
            },
        );
        let mut drained: Vec<Task> = Vec::new();
        let chunks: Vec<&[TaskSpec]> = specs.chunks(7).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            streamed.feed_specs(*chunk);
            match chunks.get(i + 1) {
                Some(next) => streamed.run_until(next[0].arrival).unwrap(),
                None => streamed.run_to_end().unwrap(),
            }
            streamed.retire_finished(|t| drained.push(t));
        }
        streamed.retire_finished(|t| drained.push(t));

        assert_eq!(drained.len(), batch.tasks.len());
        for (a, b) in drained.iter().zip(&batch.tasks) {
            assert_eq!(a.completion(), b.completion());
            assert_eq!(a.cpu_time(), b.cpu_time());
            assert_eq!(a.preemptions(), b.preemptions());
        }
        assert_eq!(streamed.core_stats(), batch.core_stats);
        assert_eq!(
            streamed.machine().events_processed(),
            batch.events_processed
        );
        assert_eq!(streamed.machine().num_finished(), batch.tasks.len());
    }

    #[test]
    fn slim_report_matches_full_report() {
        let specs: Vec<TaskSpec> = (0..4)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128))
            .collect();
        let cfg = MachineConfig::new(2)
            .with_cost(crate::CostModel::free())
            .with_message_log();
        let full = Simulation::new(
            cfg.clone(),
            &specs,
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run()
        .unwrap();
        let slim = Simulation::new(
            cfg,
            &specs,
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run_slim()
        .unwrap();
        assert_eq!(slim.policy, full.policy);
        assert_eq!(slim.finished_at, full.finished_at);
        assert_eq!(slim.core_stats, full.core_stats);
        assert_eq!(slim.total_cpu_time(), full.total_cpu_time());
        assert_eq!(slim.total_preemptions(), full.total_preemptions());
        assert_eq!(slim.tasks.len(), full.tasks.len());
        for (a, b) in slim.tasks.iter().zip(&full.tasks) {
            assert_eq!(a.completion(), b.completion());
            assert_eq!(a.cpu_time(), b.cpu_time());
        }
        assert_eq!(slim.messages, full.machine.messages());
        assert!(!slim.messages.is_empty(), "log was enabled");
    }
}
