//! The traced run: re-drives a workload from the benchmark's own code by
//! calling each layer's public functions in the order the simulator's
//! entry points do, and times every call at the layer boundary.
//!
//! Scheduler callbacks are far too frequent to time one by one (a timer
//! per idle offer more than doubles `fleet_sparse`'s kernel phase), so the
//! delegating [`Counted`] policy only counts them; dispatch picks are
//! rarer and [`TimedDispatch`] times each.

use std::time::{Duration, Instant};

use azure_trace::TraceConfig;
use faas_cluster::dispatch::KeepAliveDispatch;
use faas_cluster::{ClusterConfig, ClusterTaskStream, Dispatch, DispatchCtx, FrontEnd};
use faas_kernel::{
    CoreId, CoreState, Machine, MachineConfig, MachineRun, Scheduler, TaskId, TaskSpec,
};
use faas_metrics::{RunSummary, StreamClusterSummary, StreamRunStats, TaskRecord};
use faas_policies::Cfs;
use faas_simcore::{SimDuration, SimTime};
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::CostAccumulator;

use crate::workload::{
    build_machines, fleet_policy, price, Outcome, Prepared, RunOutcome, Seeds, Workload,
};

/// A delegating scheduler that counts policy callbacks.
pub struct Counted<P> {
    inner: P,
    idle_offers: u64,
    /// Offers after which the offered core is no longer idle.
    idle_hits: u64,
    slice_expiries: u64,
}

impl<P> Counted<P> {
    fn new(inner: P) -> Self {
        Counted {
            inner,
            idle_offers: 0,
            idle_hits: 0,
            slice_expiries: 0,
        }
    }
}

impl<P: Scheduler> Scheduler for Counted<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }

    fn on_task_new(&mut self, m: &mut Machine, task: TaskId) {
        self.inner.on_task_new(m, task);
    }

    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.slice_expiries += 1;
        self.inner.on_slice_expired(m, task, core);
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        self.idle_offers += 1;
        self.inner.on_core_idle(m, core);
        if m.core_state(core) != CoreState::Idle {
            self.idle_hits += 1;
        }
    }

    fn on_task_finished(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.inner.on_task_finished(m, task, core);
    }

    fn on_interference_preempt(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.inner.on_interference_preempt(m, task, core);
    }

    fn on_tick(&mut self, m: &mut Machine) {
        self.inner.on_tick(m);
    }
}

/// A delegating dispatch policy that counts and times every pick.
pub struct TimedDispatch<D> {
    inner: D,
    picks: u64,
    busy: Duration,
}

impl<D: Dispatch> Dispatch for TimedDispatch<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        let t = Instant::now();
        let machine = self.inner.pick(ctx);
        self.busy += t.elapsed();
        self.picks += 1;
        machine
    }
}

/// Per-layer time and counts of one traced run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Wall time of the whole re-drive (set-up excluded).
    pub wall: Duration,
    pub trace: Duration,
    pub trace_invocations: u64,
    pub frontend: Duration,
    pub dispatch: Duration,
    pub picks: u64,
    pub kernel: Duration,
    pub kernel_events: u64,
    /// Task specs fed to the kernels of the design under test.
    pub kernel_fed: u64,
    pub idle_offers: u64,
    pub idle_hits: u64,
    pub slice_expiries: u64,
    pub migrations: u64,
    pub retire: Duration,
    pub retire_records: u64,
    pub merge: Duration,
    pub sketch_tuples: u64,
    pub cfs_kernel: Duration,
    pub cfs_events: u64,
    pub cfs_idle_offers: u64,
}

/// Time spent in `f`, added to `acc`.
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// Re-drives `workload` at the given seeds, returning the simulated
/// outcome (which must equal the untraced run's) and the layer split.
pub fn run(workload: Workload, seeds: Seeds) -> (RunOutcome, Layers) {
    let mut layers = Layers::default();
    let t = Instant::now();
    let outcome = match Prepared::build(workload, seeds) {
        Prepared::Enclave { machine, specs } => {
            // The enclave's set-up is its trace synthesis; a fleet
            // streams its trace during the run and times each chunk.
            layers.trace = t.elapsed();
            enclave(machine, specs, &mut layers)
        }
        Prepared::Fleet { cluster, trace } => fleet(&cluster, &trace, &mut layers),
    };
    (outcome, layers)
}

/// One enclave replay: `MachineRun::feed_specs` / `run_to_end` /
/// `retire_finished`, then exact summary and billing. Returns the outcome,
/// the finished `MachineRun` (for its policy's counters) and the kernel
/// time.
fn replay<P: Scheduler>(
    machine: MachineConfig,
    specs: Vec<TaskSpec>,
    policy: P,
    layers: &mut Layers,
) -> (Outcome, MachineRun<Counted<P>>, Duration) {
    let arrivals = specs.len();
    let mut kernel = Duration::ZERO;
    let mut run = MachineRun::new(machine, Vec::new(), Counted::new(policy));
    timed(&mut kernel, || {
        run.feed_specs(specs);
        run.run_to_end()
    })
    .expect("enclave replay completes");
    let mut records = Vec::with_capacity(arrivals);
    let mut cost = CostAccumulator::new(price());
    timed(&mut layers.retire, || {
        run.retire_finished(|task| {
            let record = TaskRecord::try_from(&task).expect("retired tasks are finished");
            cost.record(&record);
            records.push(record);
        })
    });
    layers.retire_records += records.len() as u64;
    let summary = timed(&mut layers.merge, || RunSummary::compute(&records));
    let outcome = Outcome::from_enclave(
        run.machine().events_processed(),
        run.machine().now().as_micros(),
        &run.core_stats(),
        &summary,
        cost.total_usd(),
        arrivals as u64,
    );
    (outcome, run, kernel)
}

fn enclave(machine: MachineConfig, specs: Vec<TaskSpec>, layers: &mut Layers) -> RunOutcome {
    layers.trace_invocations = specs.len() as u64;
    let t = Instant::now();
    let (cfs, cfs_run, cfs_kernel) =
        replay(machine.clone(), specs.clone(), Cfs::with_cores(50), layers);
    let (hybrid, hybrid_run, kernel) = replay(
        machine,
        specs,
        HybridScheduler::new(HybridConfig::paper_25_25()),
        layers,
    );
    layers.wall = t.elapsed();
    layers.cfs_kernel = cfs_kernel;
    layers.cfs_events = cfs.events;
    layers.cfs_idle_offers = cfs_run.policy().idle_offers;
    layers.kernel = kernel;
    layers.kernel_events = hybrid.events;
    layers.kernel_fed = hybrid.arrivals;
    let policy = hybrid_run.policy();
    layers.idle_offers = policy.idle_offers;
    layers.idle_hits = policy.idle_hits;
    layers.slice_expiries = policy.slice_expiries;
    layers.migrations = policy.inner.tasks_migrated();
    RunOutcome {
        dut: hybrid,
        cfs: Some(cfs),
    }
}

/// One fleet machine between chunks: its `MachineRun` plus the
/// accumulators its retired records fold into.
struct Node {
    run: MachineRun<Counted<HybridScheduler>>,
    stats: StreamRunStats,
    cost: CostAccumulator,
}

impl Node {
    fn retire(&mut self, layers: &mut Layers) {
        let Node { run, stats, cost } = self;
        let retired = timed(&mut layers.retire, || {
            run.retire_finished(|task| {
                if task.is_cancelled() {
                    return;
                }
                let record = TaskRecord::try_from(&task).expect("retired tasks are finished");
                stats.record(&record);
                cost.record(&record);
            })
        });
        layers.retire_records += retired as u64;
    }
}

/// The streaming fleet run, serially: `ClusterTaskStream::next`,
/// `FrontEnd::dispatch_chunk` with machines one chunk behind, then
/// `FrontEnd::finish` and the final drain, then the merge.
fn fleet(cluster: &ClusterConfig, trace: &TraceConfig, layers: &mut Layers) -> RunOutcome {
    let t = Instant::now();
    let cores = cluster.machine.cores;
    let mut nodes: Vec<Node> = build_machines(cluster, |_| Counted::new(fleet_policy(cores)))
        .into_iter()
        .map(|run| Node {
            run,
            stats: StreamRunStats::new(faas_metrics::DEFAULT_STREAM_EPSILON),
            cost: CostAccumulator::new(price()),
        })
        .collect();
    let mut front = FrontEnd::new(cluster);
    let mut dispatch = TimedDispatch {
        inner: KeepAliveDispatch,
        picks: 0,
        busy: Duration::ZERO,
    };
    let mut stream = ClusterTaskStream::new(trace, 1);
    let arrivals = stream.total_invocations() as u64;
    let mut cold_starts = 0;
    let mut pending: Option<(Vec<Vec<TaskSpec>>, SimTime)> = None;
    while let Some(chunk) = timed(&mut layers.trace, || stream.next()) {
        layers.trace_invocations += chunk.tasks.len() as u64;
        let assignment = timed(&mut layers.frontend, || {
            front.dispatch_chunk(&chunk.tasks, &mut dispatch)
        });
        cold_starts += assignment.cold_starts;
        if let Some((specs, bound)) = pending.replace((assignment.per_machine, chunk.end)) {
            for (node, specs) in nodes.iter_mut().zip(specs) {
                layers.kernel_fed += specs.len() as u64;
                timed(&mut layers.kernel, || {
                    node.run.feed_specs(specs);
                    node.run.run_until(bound)
                })
                .expect("fleet machine advances");
                node.retire(layers);
            }
        }
    }
    let tail = timed(&mut layers.frontend, || front.finish(&mut dispatch));
    cold_starts += tail.cold_starts;
    let mut last = pending.map_or_else(|| vec![Vec::new(); nodes.len()], |(specs, _)| specs);
    for (machine, specs) in tail.per_machine.into_iter().enumerate() {
        last[machine].extend(specs);
    }
    for (node, specs) in nodes.iter_mut().zip(last) {
        layers.kernel_fed += specs.len() as u64;
        timed(&mut layers.kernel, || {
            node.run.feed_specs(specs);
            node.run.run_to_end()
        })
        .expect("fleet machine drains");
        node.retire(layers);
    }
    let stats: Vec<StreamRunStats> = nodes.iter().map(|n| n.stats.clone()).collect();
    let (summary, tuples) = timed(&mut layers.merge, || {
        let merged = StreamClusterSummary::compute(&stats);
        (merged.summary(), merged.tuple_count())
    });
    layers.sketch_tuples = tuples as u64;
    layers.wall = t.elapsed();
    layers.dispatch = dispatch.busy;
    layers.picks = dispatch.picks;

    let mut overload = front.overload_stats();
    overload.kernel_cancelled = nodes.iter().map(|n| n.run.machine().num_cancelled()).sum();
    let (health, machine_health) = front.health_stats();
    let mut outcome = Outcome {
        events: nodes
            .iter()
            .map(|n| n.run.machine().events_processed())
            .sum(),
        cost_usd: nodes.iter().map(|n| n.cost.total_usd()).sum(),
        makespan_us: nodes
            .iter()
            .map(|n| n.run.machine().now().as_micros())
            .max()
            .unwrap_or(0),
        completions: nodes.iter().map(|n| n.stats.count()).collect(),
        kernel_cancelled: overload.kernel_cancelled,
        cold_starts,
        overload,
        chaos: front.chaos_stats(),
        health,
        machine_health,
        ..Outcome::base(arrivals, &summary)
    };
    for node in &nodes {
        let core_stats = node.run.core_stats();
        outcome.add_core_stats(&core_stats);
        let p = node.run.policy();
        layers.idle_offers += p.idle_offers;
        layers.idle_hits += p.idle_hits;
        layers.slice_expiries += p.slice_expiries;
        layers.migrations += p.inner.tasks_migrated();
    }
    layers.kernel_events = outcome.events;
    RunOutcome {
        dut: outcome,
        cfs: None,
    }
}
