//! The reference driver the batched idle sweep is tested against,
//! shared by the kernel's and the hybrid scheduler's differential suites.

use faas_kernel::{CoreId, CoreState, Machine, MachineConfig, PolicyCall, Scheduler, TaskSpec};

/// The pre-batching driver, re-implemented over the public API: advance
/// the machine, deliver the callback, then offer every idle core in id
/// order after every event — ignoring [`Scheduler::may_dispatch`].
/// Returns the final machine and policy.
pub fn run_brute_force<P: Scheduler>(
    cfg: MachineConfig,
    specs: Vec<TaskSpec>,
    mut policy: P,
) -> (Machine, P) {
    let mut m = Machine::new(cfg, specs);
    if let Some(every) = policy.tick_interval() {
        m.arm_tick(every);
    }
    loop {
        let call = match m.advance().expect("no deadlock") {
            Some(c) => c,
            None => return (m, policy),
        };
        match call {
            PolicyCall::TaskNew(t) => policy.on_task_new(&mut m, t),
            PolicyCall::TaskFinished(t, c) => policy.on_task_finished(&mut m, t, c),
            PolicyCall::SliceExpired(t, c) => policy.on_slice_expired(&mut m, t, c),
            PolicyCall::InterferencePreempt(t, c) => policy.on_interference_preempt(&mut m, t, c),
            PolicyCall::Tick => policy.on_tick(&mut m),
            PolicyCall::Internal => {}
        }
        for i in 0..m.num_cores() {
            let core = CoreId::from_index(i);
            if m.core_state(core) == CoreState::Idle {
                policy.on_core_idle(&mut m, core);
            }
        }
    }
}
