//! CFS's hints against the reference drivers: skipping the offers
//! `may_dispatch` rules out (an empty own queue and no queue holding two
//! or more tasks to steal from), and settling the lone renewals
//! `renewal_slice` promises as renewal trains, must leave every kernel
//! message, task record, core statistic and event count unchanged, and
//! the driver must offer and skip exactly what the per-core walk does.

use std::cell::Cell;

use faas_kernel::{
    CoreId, CostModel, InterferenceConfig, MachineConfig, Simulation, SlimReport, TaskId, TaskSpec,
};
use faas_policies::{Cfs, CfsParams};
use faas_simcore::check::{self, Gen};
use faas_simcore::{SimDuration, SimTime};

#[path = "../../kernel/tests/common/brute_force.rs"]
mod brute_force;
use brute_force::{run_brute_force, run_per_core_walk};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Bursty arrivals with a long-task tail, so queues build up, become
/// uneven and get stolen from, then drain to a sparse machine.
fn arb_specs(g: &mut Gen) -> Vec<TaskSpec> {
    (0..g.usize_in(1, 60))
        .map(|_| {
            let work = if g.usize_in(0, 4) == 0 {
                g.u64_in(100, 1_500)
            } else {
                g.u64_in(1, 60)
            };
            TaskSpec::function(SimTime::from_millis(g.u64_in(0, 1_500)), ms(work), 128)
        })
        .collect()
}

/// Runs `Cfs` under the hinted driver and the reference drivers and
/// asserts they agree; returns the expiries the hinted run settled.
fn assert_matches_reference(
    cores: usize,
    params: CfsParams,
    specs: &[TaskSpec],
    make_cfg: impl Fn() -> MachineConfig,
) -> u64 {
    let hinted: SlimReport =
        Simulation::new(make_cfg(), specs.to_vec(), Cfs::with_params(cores, params))
            .run_slim()
            .expect("hinted driver completes");
    let (brute, _) = run_brute_force(make_cfg(), specs.to_vec(), Cfs::with_params(cores, params));
    let (_, _, walk_counts) =
        run_per_core_walk(make_cfg(), specs.to_vec(), Cfs::with_params(cores, params));
    assert_eq!(
        (hinted.idle_offers, hinted.idle_offers_skipped),
        walk_counts,
        "offered and skipped counts"
    );

    assert_eq!(hinted.messages, brute.messages(), "kernel message streams");
    assert_eq!(hinted.finished_at, brute.now());
    assert_eq!(hinted.events_processed, brute.events_processed(), "events");
    for (c, stats) in hinted.core_stats.iter().enumerate() {
        assert_eq!(*stats, brute.core_stats(CoreId::from_index(c)), "core {c}");
    }
    for (i, a) in hinted.tasks.iter().enumerate() {
        let id = TaskId::from_index(i);
        let b = brute.task(id);
        assert_eq!(a.first_run(), b.first_run(), "task {id} first run");
        assert_eq!(a.completion(), b.completion(), "task {id} completion");
        assert_eq!(a.cpu_time(), b.cpu_time(), "task {id} cpu time");
        assert_eq!(a.preemptions(), b.preemptions(), "task {id} preemptions");
    }
    assert_eq!(hinted.tasks.len(), brute.num_tasks());
    hinted.renewals_settled
}

/// A machine config for `cores` cores, logging messages, with seeded
/// interference when `interference` is set.
fn machine_cfg(cores: usize, cost: CostModel, interference: Option<u64>) -> MachineConfig {
    let cfg = MachineConfig::new(cores).with_cost(cost).with_message_log();
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

#[test]
fn hinted_cfs_sweep_equals_brute_force_driver() {
    check::run("hinted_cfs_sweep_equals_brute_force_driver", 64, |g| {
        let cores = g.usize_in(1, 9);
        let params = CfsParams {
            wakeup_preemption: g.boolean(),
            ..CfsParams::default()
        };
        let specs = arb_specs(g);
        let interference = g.boolean().then(|| g.u64_in(0, u64::MAX));
        let cost = CostModel::from_micros(3, 50);
        assert_matches_reference(cores, params, &specs, || {
            machine_cfg(cores, cost, interference)
        });
    });
}

/// The renewal-train regime: a few long tasks over many cores, so most
/// slice expiries renew a task alone on its core. Arrivals, deadlines
/// and free context switches put real events on the exact instants of
/// train boundaries; wakeup preemption, deadline cancels and host
/// interference break trains from outside.
#[test]
fn cfs_renewal_trains_equal_brute_force_driver() {
    let settled = Cell::new(0);
    check::run("cfs_renewal_trains_equal_brute_force_driver", 64, |g| {
        let cores = g.usize_in(1, 12);
        let params = CfsParams {
            wakeup_preemption: g.boolean(),
            sched_latency: ms(g.u64_in(3, 30)),
            ..CfsParams::default()
        };
        let grid = params.sched_latency.as_micros().max(1);
        let specs: Vec<TaskSpec> = (0..g.usize_in(1, 10))
            .map(|_| {
                let arrival = if g.boolean() {
                    g.u64_in(0, 40) * grid
                } else {
                    g.u64_in(0, 1_000_000)
                };
                let work = if g.usize_in(0, 3) == 0 {
                    g.u64_in(1, 40)
                } else {
                    g.u64_in(200, 3_000)
                };
                let spec = TaskSpec::function(SimTime::from_micros(arrival), ms(work), 128);
                if g.usize_in(0, 4) == 0 {
                    let deadline = arrival + g.u64_in(1, 40) * grid;
                    spec.with_deadline(SimTime::from_micros(deadline))
                } else {
                    spec
                }
            })
            .collect();
        let cost = if g.boolean() {
            CostModel::free()
        } else {
            CostModel::from_micros(3, 50)
        };
        let interference = g.boolean().then(|| g.u64_in(0, u64::MAX));
        settled.set(
            settled.get()
                + assert_matches_reference(cores, params, &specs, || {
                    machine_cfg(cores, cost, interference)
                }),
        );
    });
    assert!(settled.get() > 0, "no case ran a renewal train");
}
