//! The hybrid scheduler's `may_dispatch` hint against the brute-force
//! driver: skipping the offers the hint rules out must leave every
//! kernel message, task record and policy decision unchanged, across the
//! scheduler's configuration axes.

use faas_kernel::{
    CostModel, InterferenceConfig, MachineConfig, PlacementHint, Simulation, TaskId, TaskSpec,
};
use faas_simcore::check::{self, Gen};
use faas_simcore::{SimDuration, SimTime};
use hybrid_scheduler::{
    CfsPlacement, HybridConfig, HybridScheduler, RightsizingConfig, TimeLimitPolicy,
};

#[path = "../../kernel/tests/common/brute_force.rs"]
mod brute_force;
use brute_force::run_brute_force;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// A random hybrid configuration: split, fixed or adaptive limit,
/// rightsizing, hint routing and CFS placement all drawn.
fn arb_config(g: &mut Gen) -> HybridConfig {
    let mut cfg = HybridConfig::split(g.usize_in(1, 4), g.usize_in(1, 5));
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

#[test]
fn hinted_sweep_equals_brute_force_driver() {
    check::run("hinted_sweep_equals_brute_force_driver", 96, |g| {
        let hybrid = arb_config(g);
        let specs = arb_specs(g);
        let with_interference = g.boolean();
        let seed = g.u64_in(0, u64::MAX);
        let make_cfg = || {
            let mut cfg = MachineConfig::new(hybrid.total_cores())
                .with_cost(CostModel::from_micros(3, 50))
                .with_message_log();
            if with_interference {
                cfg = cfg
                    .with_interference(InterferenceConfig {
                        mean_interval: ms(60),
                        duration: ms(8),
                    })
                    .with_seed(seed);
            }
            cfg
        };
        let mut hinted = Simulation::new(
            make_cfg(),
            specs.clone(),
            HybridScheduler::new(hybrid.clone()),
        );
        while hinted.step().expect("hinted driver completes") {}
        let (brute_m, brute_p) = run_brute_force(make_cfg(), specs, HybridScheduler::new(hybrid));
        let (m, p) = (hinted.machine(), hinted.policy());

        assert_eq!(m.messages(), brute_m.messages(), "kernel message streams");
        assert_eq!(m.now(), brute_m.now());
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
    });
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
