//! The reference drivers the batched idle sweep is tested against,
//! shared by the kernel's and the schedulers' differential suites.

use faas_kernel::{
    CoreId, CoreState, Machine, MachineConfig, PolicyCall, Scheduler, SimError, TaskSpec,
};

/// Delivers the policy callback for one kernel event; returns whether a
/// callback ran.
fn deliver<P: Scheduler>(m: &mut Machine, policy: &mut P, call: PolicyCall) -> bool {
    match call {
        PolicyCall::TaskNew(t) => policy.on_task_new(m, t),
        PolicyCall::TaskFinished(t, c) => policy.on_task_finished(m, t, c),
        PolicyCall::SliceExpired(t, c) => policy.on_slice_expired(m, t, c),
        PolicyCall::InterferencePreempt(t, c) => policy.on_interference_preempt(m, t, c),
        PolicyCall::Tick => policy.on_tick(m),
        PolicyCall::Internal => return false,
    }
    true
}

/// The pre-batching driver, re-implemented over the public API: advance
/// the machine, deliver the callback, then offer every idle core in id
/// order after every event — ignoring [`Scheduler::may_dispatch`], and
/// so delivering every slice expiry. Returns the final machine and policy.
pub fn run_brute_force<P: Scheduler>(
    cfg: MachineConfig,
    specs: Vec<TaskSpec>,
    policy: P,
) -> (Machine, P) {
    try_run_brute_force(cfg, specs, policy).expect("no deadlock")
}

/// [`run_brute_force`], returning the machine's error instead of
/// panicking on it.
#[allow(dead_code)] // not every suite that includes this module fails runs
pub fn try_run_brute_force<P: Scheduler>(
    cfg: MachineConfig,
    specs: Vec<TaskSpec>,
    mut policy: P,
) -> Result<(Machine, P), SimError> {
    let mut m = Machine::new(cfg, specs);
    if let Some(every) = policy.tick_interval() {
        m.arm_tick(every);
    }
    while let Some(call) = m.advance()? {
        deliver(&mut m, &mut policy, call);
        for i in 0..m.num_cores() {
            let core = CoreId::from_index(i);
            if m.core_state(core) == CoreState::Idle {
                policy.on_core_idle(&mut m, core);
            }
        }
    }
    Ok((m, policy))
}

/// The per-core walk the scoped sweep must reproduce, re-implemented over
/// the public API: after each event (unless it was kernel-internal, no
/// core became idle since the last sweep and that sweep made no offer),
/// passes over a snapshot of the idle cores, each core considered once
/// per event and offered only if [`Scheduler::may_dispatch`] allows it,
/// with another pass whenever a pass's offers freed a core — ignoring
/// [`Scheduler::offer_scope`]. Returns the final machine and policy and
/// the `(offered, skipped)` counts.
pub fn run_per_core_walk<P: Scheduler>(
    cfg: MachineConfig,
    specs: Vec<TaskSpec>,
    mut policy: P,
) -> (Machine, P, (u64, u64)) {
    let mut m = Machine::new(cfg, specs);
    if let Some(every) = policy.tick_interval() {
        m.arm_tick(every);
    }
    let (mut offers, mut skips) = (0, 0);
    let mut swept_at = vec![0u64; m.num_cores()];
    let (mut step, mut swept_transitions, mut last_offered) = (0, 0, false);
    loop {
        let call = match m.advance().expect("no deadlock") {
            Some(c) => c,
            None => return (m, policy, (offers, skips)),
        };
        step += 1;
        let delivered = deliver(&mut m, &mut policy, call);
        if !delivered && m.idle_transitions() == swept_transitions && !last_offered {
            continue;
        }
        let mut offered = false;
        while m.num_idle_cores() > 0 {
            let pass_transitions = m.idle_transitions();
            let snapshot: Vec<CoreId> = m.idle_cores().collect();
            let mut pass_offered = false;
            for core in snapshot {
                if m.core_state(core) != CoreState::Idle || swept_at[core.index()] == step {
                    continue;
                }
                swept_at[core.index()] = step;
                if policy.may_dispatch(core) {
                    offers += 1;
                    policy.on_core_idle(&mut m, core);
                    pass_offered = true;
                } else {
                    skips += 1;
                }
            }
            offered |= pass_offered;
            if !pass_offered || m.idle_transitions() == pass_transitions {
                break;
            }
        }
        swept_transitions = m.idle_transitions();
        last_offered = offered;
    }
}
