//! Renewal trains at their edges, against the reference drivers: a lone
//! CFS task's slice expiries are settled in closed form instead of popped
//! one by one, and every run below must still match the driver that
//! delivers each expiry — kernel message log, task records, per-core
//! statistics, processed events and idle-offer counts alike.

use faas_kernel::{
    CoreId, CostModel, InterferenceConfig, MachineConfig, SimError, Simulation, TaskId, TaskSpec,
};
use faas_policies::{Cfs, CfsParams};
use faas_simcore::{SimDuration, SimTime};

#[path = "../../kernel/tests/common/brute_force.rs"]
mod brute_force;
use brute_force::{run_brute_force, run_per_core_walk, try_run_brute_force};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// A free-switching machine (so slice boundaries fall on round
/// instants) with the message log on.
fn machine(cores: usize) -> MachineConfig {
    MachineConfig::new(cores)
        .with_cost(CostModel::free())
        .with_message_log()
}

/// Runs `Cfs` over `specs` under the driver and under the reference
/// drivers, asserts they agree on everything observable, and returns how
/// many expiries the driver settled.
fn assert_matches_reference(cfg: MachineConfig, specs: &[TaskSpec], params: CfsParams) -> u64 {
    let cores = cfg.cores;
    let mut sim = Simulation::new(cfg.clone(), specs.to_vec(), Cfs::with_params(cores, params));
    while sim.step().expect("driver completes") {}
    let (reference, _) =
        run_brute_force(cfg.clone(), specs.to_vec(), Cfs::with_params(cores, params));
    let (_, _, walk_counts) =
        run_per_core_walk(cfg, specs.to_vec(), Cfs::with_params(cores, params));
    let m = sim.machine();
    assert_eq!(m.messages(), reference.messages(), "kernel message streams");
    assert_eq!(m.now(), reference.now());
    assert_eq!(m.events_processed(), reference.events_processed(), "events");
    for c in 0..cores {
        let core = CoreId::from_index(c);
        assert_eq!(m.core_stats(core), reference.core_stats(core), "core {c}");
    }
    for i in 0..reference.num_tasks() {
        let id = TaskId::from_index(i);
        let (a, b) = (m.task(id), reference.task(id));
        assert_eq!(a.first_run(), b.first_run(), "task {id} first run");
        assert_eq!(a.completion(), b.completion(), "task {id} completion");
        assert_eq!(a.cpu_time(), b.cpu_time(), "task {id} cpu time");
        assert_eq!(a.preemptions(), b.preemptions(), "task {id} preemptions");
        assert_eq!(a.is_cancelled(), b.is_cancelled(), "task {id} cancelled");
    }
    assert_eq!(
        (sim.idle_offers(), sim.idle_offers_skipped()),
        walk_counts,
        "offered and skipped counts"
    );
    m.renewals_settled()
}

/// (a) One long task alone on one core: after its first renewal the
/// train holds the only pending work, so the heap is empty, and the run
/// must neither report a deadlock nor lose the completion.
#[test]
fn lone_task_runs_as_one_train() {
    let specs = [TaskSpec::function(SimTime::ZERO, ms(1_000), 128)];
    let mut sim = Simulation::new(machine(1), specs.to_vec(), Cfs::with_cores(1));
    sim.step().expect("arrival");
    sim.step().expect("first expiry, renewed into a train");
    assert_eq!(sim.machine().renewal_trains(), 1);
    assert_eq!(sim.machine().pending_timers(), 0, "the train arms no timer");
    assert_eq!(sim.machine().next_event_at(), Some(at(1_000)));
    assert!(sim.step().expect("completion, no deadlock"));
    assert_eq!(
        sim.machine().task(TaskId::from_index(0)).completion(),
        Some(at(1_000))
    );
    assert!(!sim.step().expect("drained"));
    // Boundaries at 24, 48, …, 984 ms; the first was delivered.
    assert_eq!(sim.machine().renewals_settled(), 40);
    let settled = assert_matches_reference(machine(1), &specs, CfsParams::default());
    assert_eq!(settled, 40);
}

/// (b) A stall declared in the middle of a train names the boundary that
/// crosses the timeout, exactly as the popped expiry would.
#[test]
fn stall_inside_a_train_matches_reference() {
    for (timeout, tasks) in [(100, 1), (250, 2), (4_000, 3)] {
        let mut cfg = machine(2);
        cfg.stall_timeout = ms(timeout);
        let specs: Vec<TaskSpec> = (0..tasks)
            .map(|i| TaskSpec::function(at(7 * i), ms(10_000), 128))
            .collect();
        let run = |cfg: MachineConfig| {
            let mut sim = Simulation::new(cfg, specs.clone(), Cfs::with_cores(2));
            loop {
                match sim.step() {
                    Ok(true) => {}
                    Ok(false) => panic!("a stalled run cannot drain"),
                    Err(e) => return (e, sim.machine().renewals_settled()),
                }
            }
        };
        let (got, settled) = run(cfg.clone());
        let want = try_run_brute_force(cfg, specs.clone(), Cfs::with_cores(2))
            .expect_err("reference stalls");
        assert_eq!(got, want, "timeout {timeout} ms, {tasks} tasks");
        assert!(matches!(got, SimError::Stalled { .. }));
        assert!(settled > 0, "the stall came inside a train");
    }
}

/// (c) Real events on exactly the instant of a train boundary. The
/// long task's boundaries fall on multiples of 24 ms. An arrival there
/// fires first; a deadline armed at arrival, long before the boundary's
/// predecessor, fires first too; a completion armed after the
/// predecessor fires after it.
#[test]
fn events_on_a_boundary_instant_keep_their_order() {
    let no_wakeup = CfsParams {
        wakeup_preemption: false,
        ..CfsParams::default()
    };
    let long = TaskSpec::function(SimTime::ZERO, ms(2_000), 128);
    let cases = [
        // An arrival at the 48 ms boundary.
        vec![long.clone(), TaskSpec::function(at(48), ms(5), 128)],
        // A cancel armed at 5 ms for 72 ms, on the other core's train.
        vec![
            long.clone(),
            TaskSpec::function(at(5), ms(500), 128).with_deadline(at(72)),
        ],
        // A completion armed at 50 ms (after the 48 ms predecessor) for
        // 72 ms.
        vec![long.clone(), TaskSpec::function(at(50), ms(22), 128)],
        // The other core's train completes on the 96 ms boundary; its
        // last renewal (at 74 ms) came after the predecessor (72 ms).
        vec![long.clone(), TaskSpec::function(at(2), ms(94), 128)],
        // Two trains whose boundaries coincide forever.
        vec![long.clone(), TaskSpec::function(at(24), ms(700), 128)],
        // Three tasks arriving on boundary instants of one another.
        vec![
            long,
            TaskSpec::function(at(24), ms(300), 128),
            TaskSpec::function(at(48), ms(180), 128),
        ],
    ];
    let mut settled = 0;
    for specs in &cases {
        for params in [CfsParams::default(), no_wakeup] {
            for cores in [2, 3] {
                settled += assert_matches_reference(machine(cores), specs, params);
            }
        }
    }
    // One core: a newcomer queued behind the long task at 50 ms breaks
    // its train, so the 72 ms boundary is delivered as a real expiry
    // under the number reserved at 48 ms, ahead of the newcomer's cancel
    // armed at 50 ms for the same instant.
    let broken = [
        TaskSpec::function(SimTime::ZERO, ms(2_000), 128),
        TaskSpec::function(at(50), ms(100), 128).with_deadline(at(72)),
    ];
    for params in [CfsParams::default(), no_wakeup] {
        settled += assert_matches_reference(machine(1), &broken, params);
    }
    assert!(settled > 0, "no case ran a train");
}

/// (d) What breaks a train from outside: host interference on its core,
/// a deadline cancel of its task, and `Cfs` wakeup preemption by a
/// newcomer placed on its core.
#[test]
fn interference_cancel_and_wakeup_break_trains() {
    let interfered = machine(1)
        .with_interference(InterferenceConfig {
            mean_interval: ms(150),
            duration: ms(7),
        })
        .with_seed(5);
    let one_long = [TaskSpec::function(SimTime::ZERO, ms(1_500), 128)];
    let cancelled = [
        TaskSpec::function(SimTime::ZERO, ms(1_500), 128).with_deadline(at(333)),
        TaskSpec::function(at(400), ms(100), 128),
    ];
    let woken = [
        TaskSpec::function(SimTime::ZERO, ms(1_500), 128),
        TaskSpec::function(at(250), ms(30), 128),
        TaskSpec::function(at(777), ms(300), 128),
    ];
    let params = CfsParams::default();
    let settled = [
        assert_matches_reference(interfered, &one_long, params),
        assert_matches_reference(machine(1), &cancelled, params),
        assert_matches_reference(machine(1), &woken, params),
    ];
    assert!(settled.iter().all(|&n| n > 0), "settled {settled:?}");
}
