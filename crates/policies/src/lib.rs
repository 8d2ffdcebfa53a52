//! # faas-policies
//!
//! The baseline OS scheduling policies the paper compares against
//! (§II-C/§III-C and the Fig. 23 scheduler zoo), implemented as
//! [`Scheduler`](faas_kernel::Scheduler) agents over the simulated
//! [`Machine`](faas_kernel::Machine):
//!
//! * [`Fifo`] — global queue, run to completion; optimal execution time,
//!   worst head-of-line blocking.
//! * [`FifoWithLimit`] — the paper's "FIFO 100ms": preempt-and-requeue
//!   after a fixed limit (§II-D).
//! * [`Cfs`] — the Linux default: per-core vruntime queues, latency-target
//!   slices, work stealing.
//! * [`RoundRobin`] — global queue with a fixed quantum.
//! * [`Edf`] — earliest-deadline-first with arrival-time preemption.
//! * [`Shinjuku`] — centralized single queue with small-quantum
//!   preemption, after Kaffes et al. \[42\].
//! * [`Sfs`] — least-attained-service, approximating SFS \[25\] (the
//!   paper's closest related work).
//! * [`Mlfq`] — multi-level feedback queue with priority boost \[37\].
//!
//! The hybrid FIFO+CFS scheduler — the paper's contribution — lives in the
//! `hybrid-scheduler` crate and composes the same building blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfs;
mod edf;
mod fifo;
mod fifo_limit;
mod mlfq;
mod rr;
mod sfs;
mod shinjuku;

pub use cfs::{Cfs, CfsParams, CfsQueues};
pub use edf::Edf;
pub use fifo::Fifo;
pub use fifo_limit::FifoWithLimit;
pub use mlfq::{Mlfq, MlfqParams};
pub use rr::RoundRobin;
pub use sfs::Sfs;
pub use shinjuku::Shinjuku;
