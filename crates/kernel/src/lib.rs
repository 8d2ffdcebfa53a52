//! # faas-kernel
//!
//! A deterministic, event-level simulation of the OS substrate the paper
//! schedules on: CPU cores, CPU-bound tasks, context-switch costs, and a
//! ghOSt-style split between a *kernel side* ([`Machine`]) that owns ground
//! truth and *user-space agents* ([`Scheduler`]) that make placement
//! decisions via two verbs: [`Machine::dispatch`] and [`Machine::preempt`].
//!
//! ## Why a simulator?
//!
//! The paper runs on a custom ghOSt kernel on a 72-thread Xeon; neither is
//! available in this environment. Every effect the paper measures, however,
//! is *mechanistic* at the level this crate models:
//!
//! * CFS's execution-time blow-up comes from time-slicing many concurrent
//!   tasks (wall-clock execution ≫ CPU time) plus per-switch overhead;
//! * FIFO's response-time blow-up comes from head-of-line blocking in a
//!   global run queue;
//! * plain FIFO's bad p99 *execution* time comes from native-kernel
//!   interference, which we model explicitly ([`InterferenceConfig`]).
//!
//! See `DESIGN.md` at the workspace root for the full substitution table.
//!
//! ## Example
//!
//! ```
//! use faas_kernel::{CoreId, Machine, MachineConfig, Scheduler, Simulation, TaskId, TaskSpec};
//! use faas_simcore::{SimDuration, SimTime};
//! use std::collections::VecDeque;
//!
//! // A 2-core FIFO agent in ~15 lines.
//! struct Fifo(VecDeque<TaskId>);
//! impl Scheduler for Fifo {
//!     fn name(&self) -> &str { "fifo" }
//!     fn on_task_new(&mut self, _m: &mut Machine, t: TaskId) { self.0.push_back(t); }
//!     fn on_slice_expired(&mut self, _m: &mut Machine, t: TaskId, _c: CoreId) {
//!         self.0.push_back(t);
//!     }
//!     fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
//!         if let Some(t) = self.0.pop_front() { m.dispatch(core, t, None).unwrap(); }
//!     }
//! }
//!
//! let specs = vec![
//!     TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(20), 128),
//!     TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 256),
//! ];
//! let report = Simulation::new(MachineConfig::new(2), specs, Fifo(VecDeque::new()))
//!     .run()
//!     .unwrap();
//! assert!(report.tasks.iter().all(|t| t.completion().is_some()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod cost;
mod idle;
mod machine;
mod message;
mod sched;
mod task;
mod train;
mod util;

pub use crate::core::{CoreId, CoreState, CoreStats};
pub use cost::CostModel;
pub use machine::{
    InterferenceConfig, Machine, MachineConfig, PolicyCall, SchedError, SimError, StormWindow,
};
pub use message::KernelMessage;
pub use sched::{MachineRun, OfferScope, Scheduler, SimReport, Simulation, SlimReport};
pub use task::{PlacementHint, Task, TaskId, TaskSpec, TaskState};
pub use util::UtilizationLedger;
