//! The hybrid scheduler's hints (`may_dispatch`, `offer_scope` and
//! `renewal_slice`) against the brute-force driver: skipping the offers
//! the hints rule out, and settling lone CFS renewals as renewal trains,
//! must leave every kernel message, task record, core statistic, event
//! count and policy decision unchanged, across the scheduler's
//! configuration axes.

use std::cell::Cell;

use faas_kernel::{
    CoreId, CostModel, InterferenceConfig, Machine, MachineConfig, OfferScope, PlacementHint,
    Scheduler, Simulation, TaskId, TaskSpec,
};
use faas_simcore::check::{self, Gen};
use faas_simcore::{SimDuration, SimTime};
use hybrid_scheduler::{
    CfsPlacement, HybridConfig, HybridScheduler, RightsizingConfig, TimeLimitPolicy,
};

#[path = "../../kernel/tests/common/brute_force.rs"]
mod brute_force;
use brute_force::{run_brute_force, run_per_core_walk};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// A random hybrid configuration: split, fixed or adaptive limit,
/// rightsizing, hint routing and CFS placement all drawn.
fn arb_config(g: &mut Gen) -> HybridConfig {
    let split = HybridConfig::split(g.usize_in(1, 4), g.usize_in(1, 5));
    arb_options(g, split)
}

/// Draws everything but the core split.
fn arb_options(g: &mut Gen, mut cfg: HybridConfig) -> HybridConfig {
    cfg = cfg.with_time_limit(if g.boolean() {
        TimeLimitPolicy::Fixed(ms(g.u64_in(5, 200)))
    } else {
        TimeLimitPolicy::Adaptive {
            percentile: g.f64_in(0.5, 1.0),
            initial: ms(g.u64_in(5, 400)),
        }
    });
    if g.boolean() {
        cfg = cfg.with_rightsizing(RightsizingConfig {
            window: ms(300),
            threshold: g.f64_in(0.05, 0.5),
            cooldown: ms(100),
            min_cores: 1,
        });
    }
    if g.boolean() {
        cfg = cfg.with_hint_routing();
    }
    if g.boolean() {
        cfg = cfg.with_cfs_placement(CfsPlacement::LeastLoaded);
    }
    cfg
}

/// Bursty arrivals with a long-task tail, so CFS queues build up,
/// become uneven and get stolen from; some tasks carry the background
/// hint.
fn arb_specs(g: &mut Gen) -> Vec<TaskSpec> {
    let n = g.usize_in(1, 60);
    (0..n)
        .map(|_| {
            let work = if g.usize_in(0, 4) == 0 {
                g.u64_in(200, 1_500)
            } else {
                g.u64_in(1, 120)
            };
            let spec = TaskSpec::function(SimTime::from_millis(g.u64_in(0, 1_500)), ms(work), 128);
            if g.usize_in(0, 5) == 0 {
                spec.with_hint(PlacementHint::Background)
            } else {
                spec
            }
        })
        .collect()
}

/// A machine config for `cores` cores, logging messages, with seeded
/// interference when `interference` is set.
fn machine_cfg(cores: usize, interference: Option<u64>) -> MachineConfig {
    let cfg = MachineConfig::new(cores)
        .with_cost(CostModel::from_micros(3, 50))
        .with_message_log();
    match interference {
        Some(seed) => cfg
            .with_interference(InterferenceConfig {
                mean_interval: ms(60),
                duration: ms(8),
            })
            .with_seed(seed),
        None => cfg,
    }
}

/// Runs the hybrid under the hinted driver and under the brute-force
/// driver and asserts they agree on every kernel message, task record
/// and policy decision. Returns the hinted run.
fn assert_matches_brute_force(
    hybrid: &HybridConfig,
    specs: &[TaskSpec],
    interference: Option<u64>,
) -> Simulation<HybridScheduler> {
    let make_cfg = || machine_cfg(hybrid.total_cores(), interference);
    let mut hinted = Simulation::new(
        make_cfg(),
        specs.to_vec(),
        HybridScheduler::new(hybrid.clone()),
    );
    while hinted.step().expect("hinted driver completes") {}
    let (brute_m, brute_p) = run_brute_force(
        make_cfg(),
        specs.to_vec(),
        HybridScheduler::new(hybrid.clone()),
    );
    let (m, p) = (hinted.machine(), hinted.policy());
    assert_eq!(m.messages(), brute_m.messages(), "kernel message streams");
    assert_eq!(m.now(), brute_m.now());
    assert_eq!(m.events_processed(), brute_m.events_processed(), "events");
    for c in 0..m.num_cores() {
        let core = CoreId::from_index(c);
        assert_eq!(m.core_stats(core), brute_m.core_stats(core), "core {c}");
    }
    for i in 0..brute_m.num_tasks() {
        let id = TaskId::from_index(i);
        let (a, b) = (m.task(id), brute_m.task(id));
        assert_eq!(a.first_run(), b.first_run(), "task {id} first run");
        assert_eq!(a.completion(), b.completion(), "task {id} completion");
        assert_eq!(a.cpu_time(), b.cpu_time(), "task {id} cpu time");
        assert_eq!(a.preemptions(), b.preemptions(), "task {id} preemptions");
    }
    assert_eq!(p.migrations(), brute_p.migrations(), "core migrations");
    assert_eq!(p.limit_history(), brute_p.limit_history(), "limit history");
    assert_eq!(
        p.tasks_migrated(),
        brute_p.tasks_migrated(),
        "tasks migrated"
    );
    assert_eq!(p.background_routed(), brute_p.background_routed());
    hinted
}

#[test]
fn hinted_sweep_equals_brute_force_driver() {
    check::run("hinted_sweep_equals_brute_force_driver", 96, |g| {
        let hybrid = arb_config(g);
        let specs = arb_specs(g);
        let with_interference = g.boolean();
        let seed = g.u64_in(0, u64::MAX);
        assert_matches_brute_force(&hybrid, &specs, with_interference.then_some(seed));
    });
}

/// Forwards everything to the hybrid and tallies its `offer_scope`
/// answers; with `forward_scope` unset it answers `PerCore` instead, so
/// the driver falls back to asking `may_dispatch` core by core.
struct Scoped {
    inner: HybridScheduler,
    forward_scope: bool,
    only: Cell<u64>,
    nowhere: Cell<u64>,
}

impl Scoped {
    fn new(cfg: HybridConfig, forward_scope: bool) -> Self {
        Scoped {
            inner: HybridScheduler::new(cfg),
            forward_scope,
            only: Cell::new(0),
            nowhere: Cell::new(0),
        }
    }
}

impl Scheduler for Scoped {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }
    fn on_task_new(&mut self, m: &mut Machine, t: TaskId) {
        self.inner.on_task_new(m, t)
    }
    fn on_slice_expired(&mut self, m: &mut Machine, t: TaskId, c: CoreId) {
        self.inner.on_slice_expired(m, t, c)
    }
    fn on_core_idle(&mut self, m: &mut Machine, c: CoreId) {
        self.inner.on_core_idle(m, c)
    }
    fn may_dispatch(&self, c: CoreId) -> bool {
        self.inner.may_dispatch(c)
    }
    fn offer_scope(&self) -> OfferScope {
        if !self.forward_scope {
            return OfferScope::PerCore;
        }
        let scope = self.inner.offer_scope();
        match scope {
            OfferScope::Only(_) => self.only.set(self.only.get() + 1),
            OfferScope::Nowhere => self.nowhere.set(self.nowhere.get() + 1),
            OfferScope::PerCore => {}
        }
        scope
    }
    fn on_task_finished(&mut self, m: &mut Machine, t: TaskId, c: CoreId) {
        self.inner.on_task_finished(m, t, c)
    }
    fn on_interference_preempt(&mut self, m: &mut Machine, t: TaskId, c: CoreId) {
        self.inner.on_interference_preempt(m, t, c)
    }
    fn on_tick(&mut self, m: &mut Machine) {
        self.inner.on_tick(m)
    }
}

/// The sparse regime `offer_scope` exists for: 20–70 cores (past one
/// 64-bit word of the idle bitset in some cases) and a handful of tasks,
/// a few of them long, so most sweeps find no work or exactly one CFS
/// core with work. The scoped sweep must match the brute-force driver,
/// and must offer and skip exactly what the per-core `may_dispatch` walk
/// does: the driver's own walk (a wrapper that hides `offer_scope`) and
/// the reference walk.
#[test]
fn scoped_sweep_equals_brute_force_on_sparse_machines() {
    let (wide, only, nowhere) = (Cell::new(0), Cell::new(0), Cell::new(0));
    check::run(
        "scoped_sweep_equals_brute_force_on_sparse_machines",
        32,
        |g| {
            let cores = g.usize_in(20, 71);
            let fifo = g.usize_in(1, cores);
            let hybrid = arb_options(g, HybridConfig::split(fifo, cores - fifo));
            let specs: Vec<TaskSpec> = (0..g.usize_in(1, 16))
                .map(|_| {
                    let work = if g.usize_in(0, 3) == 0 {
                        g.u64_in(300, 1_500)
                    } else {
                        g.u64_in(1, 80)
                    };
                    TaskSpec::function(SimTime::from_millis(g.u64_in(0, 3_000)), ms(work), 128)
                })
                .collect();
            let interference = g.boolean().then(|| g.u64_in(0, u64::MAX));
            let hinted = assert_matches_brute_force(&hybrid, &specs, interference);

            let run = |forward_scope| {
                let mut sim = Simulation::new(
                    machine_cfg(cores, interference),
                    specs.clone(),
                    Scoped::new(hybrid.clone(), forward_scope),
                );
                while sim.step().expect("run completes") {}
                sim
            };
            let per_core = run(false);
            let counts = (hinted.idle_offers(), hinted.idle_offers_skipped());
            assert_eq!(
                (per_core.idle_offers(), per_core.idle_offers_skipped()),
                counts,
                "per-core walk and scoped sweep considered different cores"
            );
            let (_, _, walk_counts) = run_per_core_walk(
                machine_cfg(cores, interference),
                specs.clone(),
                HybridScheduler::new(hybrid.clone()),
            );
            assert_eq!(walk_counts, counts, "reference walk");
            let scoped = run(true);
            wide.set(wide.get() + u32::from(cores > 64));
            only.set(only.get() + scoped.policy().only.get());
            nowhere.set(nowhere.get() + scoped.policy().nowhere.get());
        },
    );
    assert!(wide.get() > 0, "no case spanned two bitset words");
    assert!(
        only.get() > 0 && nowhere.get() > 0,
        "Only {only:?}, Nowhere {nowhere:?}"
    );
}

/// The renewal-train regime of a sparse fleet node: a few long tasks
/// outlive the FIFO limit and run alone on CFS cores, sliced every
/// `sched_latency`, while 100 ms ticks, arrivals on multiples of the
/// latency, rightsizing and interference land real events on train
/// boundaries. The driver must match the brute-force driver and offer
/// and skip exactly what the per-core walk does.
#[test]
fn renewal_trains_equal_brute_force_on_sparse_machines() {
    let settled = Cell::new(0);
    check::run(
        "renewal_trains_equal_brute_force_on_sparse_machines",
        32,
        |g| {
            let cores = g.usize_in(4, 40);
            let fifo = g.usize_in(1, cores / 2 + 1);
            let hybrid = arb_options(g, HybridConfig::split(fifo, cores - fifo));
            let specs: Vec<TaskSpec> = (0..g.usize_in(1, 12))
                .map(|_| {
                    let arrival = if g.boolean() {
                        g.u64_in(0, 100) * 24
                    } else {
                        g.u64_in(0, 2_500)
                    };
                    let work = if g.usize_in(0, 3) == 0 {
                        g.u64_in(1, 60)
                    } else {
                        g.u64_in(300, 2_500)
                    };
                    TaskSpec::function(SimTime::from_millis(arrival), ms(work), 128)
                })
                .collect();
            let interference = g.boolean().then(|| g.u64_in(0, u64::MAX));
            let hinted = assert_matches_brute_force(&hybrid, &specs, interference);
            let (_, _, walk_counts) = run_per_core_walk(
                machine_cfg(cores, interference),
                specs,
                HybridScheduler::new(hybrid),
            );
            assert_eq!(
                (hinted.idle_offers(), hinted.idle_offers_skipped()),
                walk_counts,
                "offered and skipped counts"
            );
            settled.set(settled.get() + hinted.machine().renewals_settled());
        },
    );
    assert!(settled.get() > 0, "no case ran a renewal train");
}

/// On a nearly idle 50-core paper machine the hint rules out almost
/// every offer: a lone long task's slice expiries leave 49 idle cores
/// whose offers could not do anything.
#[test]
fn sparse_machine_skips_most_offers() {
    let specs: Vec<TaskSpec> = (0..20)
        .map(|i| {
            let work = if i % 5 == 0 { ms(3_000) } else { ms(40) };
            TaskSpec::function(SimTime::from_millis(i * 500), work, 128)
        })
        .collect();
    let cfg = HybridConfig::paper_25_25();
    let mut sim = Simulation::new(
        MachineConfig::new(cfg.total_cores()),
        specs,
        HybridScheduler::new(cfg),
    );
    while sim.step().expect("run completes") {}
    let (offered, skipped) = (sim.idle_offers(), sim.idle_offers_skipped());
    assert!(offered > 0, "work was dispatched");
    assert!(
        skipped > 10 * offered,
        "skipped {skipped} offers, made {offered}"
    );
}
