//! CFS's `may_dispatch` hint against the reference drivers: skipping the
//! offers the hint rules out (an empty own queue and no queue holding two
//! or more tasks to steal from) must leave every kernel message and task
//! record unchanged, and the driver must offer and skip exactly what the
//! per-core walk does.

use faas_kernel::{
    CostModel, InterferenceConfig, MachineConfig, Simulation, SlimReport, TaskId, TaskSpec,
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
        let make_cfg = || {
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
        };
        let hinted: SlimReport =
            Simulation::new(make_cfg(), specs.clone(), Cfs::with_params(cores, params))
                .run_slim()
                .expect("hinted driver completes");
        let (brute, _) =
            run_brute_force(make_cfg(), specs.clone(), Cfs::with_params(cores, params));
        let (_, _, walk_counts) =
            run_per_core_walk(make_cfg(), specs, Cfs::with_params(cores, params));
        assert_eq!(
            (hinted.idle_offers, hinted.idle_offers_skipped),
            walk_counts,
            "offered and skipped counts"
        );

        assert_eq!(hinted.messages, brute.messages(), "kernel message streams");
        assert_eq!(hinted.finished_at, brute.now());
        for (i, a) in hinted.tasks.iter().enumerate() {
            let id = TaskId::from_index(i);
            let b = brute.task(id);
            assert_eq!(a.first_run(), b.first_run(), "task {id} first run");
            assert_eq!(a.completion(), b.completion(), "task {id} completion");
            assert_eq!(a.cpu_time(), b.cpu_time(), "task {id} cpu time");
            assert_eq!(a.preemptions(), b.preemptions(), "task {id} preemptions");
        }
        assert_eq!(hinted.tasks.len(), brute.num_tasks());
    });
}
