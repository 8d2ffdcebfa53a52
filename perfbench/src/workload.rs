//! The benchmark's workloads: their seeded inputs, their set-up, and the
//! untraced run of each through the simulator's public entry points.

use azure_trace::{AzureTrace, TraceConfig};
use faas_cluster::dispatch::KeepAliveDispatch;
use faas_cluster::{
    BackoffConfig, BreakerConfig, ChaosConfig, Cluster, ClusterConfig, ClusterTaskStream,
    ColdStartConfig, EjectionConfig, FaultPlan, FaultPlanConfig, HealthConfig, HedgeConfig,
    OverloadConfig, StreamClusterReport, StreamOptions,
};
use faas_kernel::{
    CoreStats, CostModel, InterferenceConfig, MachineConfig, MachineRun, Simulation, SlimReport,
    TaskSpec,
};
use faas_metrics::{
    records_from_tasks, ChaosStats, HealthStats, MachineHealth, OverloadStats, RunSummary,
};
use faas_policies::Cfs;
use faas_simcore::{SimDuration, SimRng};
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::PriceModel;

/// One of the benchmark's fixed-size batch jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 50-core paper enclave replays W2 under CFS, then under
    /// hybrid(25/25) — Table I / Fig. 12.
    EnclavePaper,
    /// 512 nearly idle 50-core hybrid nodes over a streamed hour trace —
    /// the committed `cluster_xl` shape.
    FleetSparse,
    /// 1024 16-core hybrid(8/8) nodes under crashes, stragglers, overload
    /// middleware and the node-health loop.
    FleetStorm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EnclavePaper,
        Workload::FleetSparse,
        Workload::FleetStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EnclavePaper => "enclave_paper",
            Workload::FleetSparse => "fleet_sparse",
            Workload::FleetStorm => "fleet_storm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Machine count of `fleet_sparse`.
const SPARSE_MACHINES: usize = 512;
/// Machine count of `fleet_storm`.
const STORM_MACHINES: usize = 1024;
/// Trace minutes of `fleet_storm` (also the fault plan's horizon).
const STORM_MINUTES: usize = 4;
/// The repo's standard fault-plan and backoff seeds for a stormy fleet.
const STORM_PLAN_SEED: u64 = 0x0057_A660;
const STORM_BACKOFF_SEED: u64 = 0x0BAC_0FF5;

/// The seeds one run uses. `None` keeps the repo's standard seeds; a
/// benchmark seed `n` derives every seed as an independent stream of the
/// standard one, so each seed gives one fixed set of inputs.
#[derive(Debug, Clone, Copy)]
pub struct Seeds(Option<u64>);

impl Seeds {
    pub fn new(seed: Option<u64>) -> Self {
        Seeds(seed)
    }

    fn derive(self, standard: u64) -> u64 {
        self.0
            .map_or(standard, |n| SimRng::stream_seed(standard, n))
    }

    fn trace(self, cfg: TraceConfig) -> TraceConfig {
        let seed = self.derive(cfg.seed);
        cfg.with_seed(seed)
    }

    fn machine(self, cfg: MachineConfig) -> MachineConfig {
        let seed = self.derive(cfg.seed);
        cfg.with_seed(seed)
    }
}

/// W2: the paper's two-minute, 12,442-invocation workload.
pub fn enclave_trace_cfg(seeds: Seeds) -> TraceConfig {
    seeds.trace(TraceConfig::w2())
}

/// The `cluster_xl` trace: an hour of W2's shape at 512× the rate,
/// downscaled 2048× (93,315 invocations at the standard seed).
pub fn sparse_trace_cfg(seeds: Seeds) -> TraceConfig {
    seeds.trace(
        TraceConfig {
            minutes: 60,
            total_invocations: 373_260,
            ..TraceConfig::w2()
        }
        .rps_scaled(SPARSE_MACHINES)
        .downscaled(2_048),
    )
}

/// Four minutes of W2 at 4× the rate (99,536 invocations).
pub fn storm_trace_cfg(seeds: Seeds) -> TraceConfig {
    seeds.trace(
        TraceConfig {
            minutes: STORM_MINUTES,
            total_invocations: 2 * TraceConfig::w2().total_invocations,
            ..TraceConfig::w2()
        }
        .rps_scaled(4),
    )
}

/// The paper's 50-core enclave with host interference.
pub fn enclave_machine(seeds: Seeds) -> MachineConfig {
    seeds.machine(faas_bench::paper_machine())
}

/// `fleet_sparse`'s fleet: `cluster_xl`'s quiet 50-core nodes with
/// Firecracker cold starts.
pub fn sparse_cluster_cfg(seeds: Seeds) -> ClusterConfig {
    let machine = seeds.machine(MachineConfig::new(50).with_cost(CostModel::default()));
    ClusterConfig::new(SPARSE_MACHINES, machine).with_cold_start(ColdStartConfig::firecracker())
}

/// `fleet_storm`'s fleet: 16-core nodes with interference and cold
/// starts; 32 crashes (12 s down) and 16 straggler windows (30 s at 8×)
/// per minute fleet-wide, retried with backoff; a per-function cap of
/// 2048, a 30 s deadline with kernel cancel and a breaker; ejection at 2×
/// the fleet median with 5 s probation, and hedging.
pub fn storm_cluster_cfg(seeds: Seeds) -> ClusterConfig {
    let machine = seeds.machine(
        MachineConfig::new(16)
            .with_cost(CostModel::default())
            .with_interference(InterferenceConfig::default()),
    );
    let plan = FaultPlan::generate(
        &FaultPlanConfig::new(seeds.derive(STORM_PLAN_SEED), STORM_MINUTES)
            .with_crashes(32.0, SimDuration::from_secs(12))
            .with_stragglers(16.0, SimDuration::from_secs(30), 8.0),
        STORM_MACHINES,
    );
    let chaos = ChaosConfig::new(plan)
        .with_slo(SimDuration::from_secs(1))
        .with_backoff(BackoffConfig::new(seeds.derive(STORM_BACKOFF_SEED)));
    let overload = OverloadConfig::default()
        .with_concurrency_limit(2_048)
        .with_deadline(SimDuration::from_secs(30))
        .with_kernel_cancel()
        .with_breaker(BreakerConfig {
            window: 32,
            trip_pct: 50,
            cooldown: SimDuration::from_secs(1),
        });
    let health = HealthConfig::default()
        .with_ejection(
            EjectionConfig::default()
                .with_threshold(2.0)
                .with_probation(SimDuration::from_secs(5)),
        )
        .with_hedge(HedgeConfig::default());
    ClusterConfig::new(STORM_MACHINES, machine)
        .with_cold_start(ColdStartConfig::firecracker())
        .with_chaos(chaos)
        .with_overload(overload)
        .with_health(health)
}

/// A fleet node's scheduler: a hybrid split evenly between FIFO and CFS
/// cores.
pub fn fleet_policy(cores: usize) -> HybridScheduler {
    HybridScheduler::new(HybridConfig::split(cores / 2, cores - cores / 2))
}

/// The tariff every workload is billed under: the paper's
/// duration-times-memory cost.
pub fn price() -> PriceModel {
    PriceModel::duration_only()
}

/// The simulated result of one policy run: everything a speed-only change
/// must leave bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub arrivals: u64,
    pub events: u64,
    pub cost_usd: f64,
    pub makespan_us: u64,
    /// Invocations completed on each machine, in machine order.
    pub completions: Vec<u64>,
    pub kernel_cancelled: u64,
    pub cold_starts: u64,
    pub response_p50_us: u64,
    pub response_p99_us: u64,
    pub execution_p99_us: u64,
    /// Σ core busy time, core preemptions and context switches.
    pub busy_us: u64,
    pub preemptions: u64,
    pub ctx_switches: u64,
    /// Cores across the fleet.
    pub cores: u64,
    pub overload: OverloadStats,
    pub chaos: ChaosStats,
    pub health: HealthStats,
    pub machine_health: Vec<MachineHealth>,
}

impl Outcome {
    pub fn completed(&self) -> u64 {
        self.completions.iter().sum()
    }

    /// Completed arrivals over arrivals.
    pub fn served_share(&self) -> f64 {
        self.completed() as f64 / self.arrivals as f64
    }

    /// Σ busy over (cores × makespan).
    pub fn core_utilization(&self) -> f64 {
        self.busy_us as f64 / (self.cores as f64 * self.makespan_us.max(1) as f64)
    }

    /// Conservation: every arrival is shed, abandoned, or fed to a
    /// kernel, where it completes or is cancelled. A hedge feeds one
    /// extra copy, whose loser is cancelled, unless a crash dooms the copy
    /// before it is fed; so the copies fed lie between zero and the hedge
    /// count. With no crash-doomed copy this is the exact identity
    /// completed + shed + (cancelled − hedges) + abandoned = arrivals.
    pub fn conservation_error(&self) -> Option<String> {
        let terminal = self.completed()
            + self.overload.total_shed()
            + self.kernel_cancelled
            + self.chaos.abandoned;
        let copies = i128::from(terminal) - i128::from(self.arrivals);
        (copies < 0 || copies > i128::from(self.health.hedges)).then(|| {
            format!(
                "conservation: completed {} + shed {} + cancelled {} + abandoned {} - arrivals {} = {copies} hedge copies, outside 0..={}",
                self.completed(),
                self.overload.total_shed(),
                self.kernel_cancelled,
                self.chaos.abandoned,
                self.arrivals,
                self.health.hedges
            )
        })
    }

    pub fn add_core_stats<'a>(&mut self, stats: impl IntoIterator<Item = &'a CoreStats>) {
        for s in stats {
            self.busy_us += s.busy.as_micros();
            self.preemptions += s.preemptions;
            self.ctx_switches += s.ctx_switches;
            self.cores += 1;
        }
    }

    /// An outcome with its arrivals and percentiles set and every count
    /// zero.
    pub fn base(arrivals: u64, summary: &RunSummary) -> Outcome {
        Outcome {
            arrivals,
            events: 0,
            cost_usd: 0.0,
            makespan_us: 0,
            completions: Vec::new(),
            kernel_cancelled: 0,
            cold_starts: 0,
            response_p50_us: summary.response.p50.as_micros(),
            response_p99_us: summary.response.p99.as_micros(),
            execution_p99_us: summary.execution.p99.as_micros(),
            busy_us: 0,
            preemptions: 0,
            ctx_switches: 0,
            cores: 0,
            overload: OverloadStats::default(),
            chaos: ChaosStats::default(),
            health: HealthStats::default(),
            machine_health: Vec::new(),
        }
    }

    /// The outcome of one enclave replay, from its finished task records.
    pub fn from_enclave(
        events: u64,
        makespan_us: u64,
        core_stats: &[CoreStats],
        summary: &RunSummary,
        cost_usd: f64,
        arrivals: u64,
    ) -> Outcome {
        let mut o = Outcome {
            events,
            cost_usd,
            makespan_us,
            completions: vec![summary.execution.count as u64],
            ..Outcome::base(arrivals, summary)
        };
        o.add_core_stats(core_stats);
        o
    }

    /// The outcome of a streamed fleet run, from its per-machine reports
    /// and the front end's ledgers.
    pub fn from_fleet(report: &StreamClusterReport, arrivals: u64) -> Outcome {
        let mut o = Outcome {
            events: report.events_processed(),
            cost_usd: report.total_cost_usd(),
            makespan_us: report.finished_at().as_micros(),
            completions: report.dispatched(),
            kernel_cancelled: report.overload.kernel_cancelled,
            cold_starts: report.cold_starts,
            overload: report.overload,
            chaos: report.chaos,
            health: report.health,
            machine_health: report.machine_health.clone(),
            ..Outcome::base(arrivals, &report.summary().summary())
        };
        o.add_core_stats(report.machines.iter().flat_map(|m| &m.core_stats));
        o
    }
}

/// One workload run's simulated results: the design under test, plus the
/// CFS baseline replay on `enclave_paper`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    pub dut: Outcome,
    pub cfs: Option<Outcome>,
}

impl RunOutcome {
    /// Trace arrivals simulated by the whole run (both replays on the
    /// enclave).
    pub fn simulated_arrivals(&self) -> u64 {
        self.dut.arrivals + self.cfs.as_ref().map_or(0, |c| c.arrivals)
    }

    /// CFS cost over hybrid cost (enclave only).
    pub fn cost_ratio(&self) -> Option<f64> {
        self.cfs.as_ref().map(|c| c.cost_usd / self.dut.cost_usd)
    }

    /// A 64-bit FNV-1a hash of every simulated output: of the `Debug`
    /// rendering, which prints every field and each float's exact
    /// round-trip digits.
    pub fn digest(&self) -> u64 {
        format!("{self:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }
}

/// Everything a run needs, built before the clock starts.
#[allow(clippy::large_enum_variant)] // one value per run
pub enum Prepared {
    Enclave {
        machine: MachineConfig,
        specs: Vec<TaskSpec>,
    },
    Fleet {
        cluster: ClusterConfig,
        trace: TraceConfig,
    },
}

impl Prepared {
    /// Builds configs and fault plans, and synthesizes the trace when the
    /// workload materializes it.
    pub fn build(workload: Workload, seeds: Seeds) -> Prepared {
        match workload {
            Workload::EnclavePaper => Prepared::Enclave {
                machine: enclave_machine(seeds),
                specs: AzureTrace::generate(&enclave_trace_cfg(seeds)).to_task_specs(),
            },
            Workload::FleetSparse => Prepared::Fleet {
                cluster: sparse_cluster_cfg(seeds),
                trace: sparse_trace_cfg(seeds),
            },
            Workload::FleetStorm => Prepared::Fleet {
                cluster: storm_cluster_cfg(seeds),
                trace: storm_trace_cfg(seeds),
            },
        }
    }
}

/// A run whose machines and policies are built and ready to go.
#[allow(clippy::large_enum_variant)] // one value per run
pub enum Ready {
    Enclave {
        cfs: Simulation<Cfs>,
        hybrid: Simulation<HybridScheduler>,
        arrivals: u64,
    },
    Fleet {
        cluster: ClusterConfig,
        trace: TraceConfig,
    },
}

/// Builds every machine run of a fleet (configs, kernels and policies),
/// exactly as the streaming run does.
pub fn build_machines<P: faas_kernel::Scheduler>(
    cluster: &ClusterConfig,
    make_policy: impl Fn(usize) -> P,
) -> Vec<MachineRun<P>> {
    (0..cluster.machines)
        .map(|i| MachineRun::new(cluster.machine_config(i), Vec::new(), make_policy(i)))
        .collect()
}

/// Set-up: configs, fault plans, trace synthesis where materialized, and
/// the machines and policies.
pub fn setup(workload: Workload, seeds: Seeds) -> Ready {
    match Prepared::build(workload, seeds) {
        Prepared::Enclave { machine, specs } => Ready::Enclave {
            arrivals: specs.len() as u64,
            cfs: Simulation::new(machine.clone(), specs.clone(), Cfs::with_cores(50)),
            hybrid: Simulation::new(
                machine,
                specs,
                HybridScheduler::new(HybridConfig::paper_25_25()),
            ),
        },
        Prepared::Fleet { cluster, trace } => {
            // The streaming run builds its machines and policies itself;
            // building the same set here (and dropping it) puts their cost
            // into `setup_s` as well, so work moved into construction shows.
            let cores = cluster.machine.cores;
            std::hint::black_box(build_machines(&cluster, |_| fleet_policy(cores)));
            Ready::Fleet { cluster, trace }
        }
    }
}

fn enclave_outcome(report: SlimReport, arrivals: u64) -> Outcome {
    let records = records_from_tasks(&report.tasks);
    Outcome::from_enclave(
        report.events_processed,
        report.finished_at.as_micros(),
        &report.core_stats,
        &RunSummary::compute(&records),
        price().workload_cost(&records),
        arrivals,
    )
}

/// The untraced run through the public entry points, at fan width
/// `threads` (fleets only; an enclave is one machine).
pub fn run(ready: Ready, threads: usize) -> RunOutcome {
    match ready {
        Ready::Enclave {
            cfs,
            hybrid,
            arrivals,
        } => {
            let cfs = cfs.run_slim().expect("CFS replay completes");
            let hybrid = hybrid.run_slim().expect("hybrid replay completes");
            RunOutcome {
                cfs: Some(enclave_outcome(cfs, arrivals)),
                dut: enclave_outcome(hybrid, arrivals),
            }
        }
        Ready::Fleet { cluster, trace } => {
            let cores = cluster.machine.cores;
            let stream = ClusterTaskStream::new(&trace, 1);
            let arrivals = stream.total_invocations() as u64;
            let opts = StreamOptions {
                price: Some(price()),
                ..StreamOptions::default()
            };
            let report = Cluster::new(cluster, KeepAliveDispatch, |_| fleet_policy(cores))
                .run_streaming(stream, &opts, threads)
                .expect("fleet run completes");
            RunOutcome {
                dut: Outcome::from_fleet(&report, arrivals),
                cfs: None,
            }
        }
    }
}
