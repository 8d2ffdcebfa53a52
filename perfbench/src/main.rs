//! The simulator's benchmark: three seeded batch workloads, timed end to
//! end with tracing off, or split by layer in a traced re-drive.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_sparse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `perfbench/README.md`
//! for the workloads, the metrics and the checks.

mod calib;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use traced::Layers;
use workload::{RunOutcome, Seeds, Workload};

struct Args {
    workload: Workload,
    seeds: Seeds,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or_else(|| format!("--workload is one of {}", names.join(", ")))?;
    Ok(Args {
        workload,
        seeds: Seeds::new(seed),
        seed,
        seconds,
        trace,
    })
}

/// Output checks and regime guards; a run with any failure is not correct.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// Conservation on every replay, plus the guards that keep each
    /// workload in the regime it was chosen for. All of them read only
    /// simulated statistics, which no simulator speed-up can move.
    fn outcome(&mut self, workload: Workload, run: &RunOutcome) {
        for o in std::iter::once(&run.dut).chain(&run.cfs) {
            if let Some(err) = o.conservation_error() {
                self.0.push(err);
            }
        }
        let o = &run.dut;
        match workload {
            Workload::EnclavePaper => {
                let ratio = run.cost_ratio().unwrap_or(0.0);
                self.require(ratio > 1.0, || {
                    format!("regime: CFS/hybrid cost ratio {ratio} is not above 1")
                });
            }
            Workload::FleetSparse => {
                let u = o.core_utilization();
                self.require(u < 0.01, || {
                    format!("regime: core utilization {u} is not below 1%")
                });
            }
            Workload::FleetStorm => {
                let active = [
                    ("ejections", o.health.ejections),
                    ("hedges", o.health.hedges),
                    ("retries", o.chaos.retries),
                    ("kernel cancellations", o.kernel_cancelled),
                ];
                for (what, n) in active {
                    self.require(n > 0, || format!("regime: no {what}"));
                }
                let breaker = o.overload.shed_breaker as f64 / o.arrivals as f64;
                self.require(breaker < 0.01, || {
                    format!("regime: breaker shed {breaker} of arrivals (a shedding storm)")
                });
            }
        }
    }

    /// The traced re-drive must reproduce the untraced run bit for bit,
    /// and every task it fed to a kernel must have completed or been
    /// cancelled there.
    fn traced(&mut self, expected: &RunOutcome, got: &RunOutcome, layers: &Layers) {
        self.same("traced re-drive", expected, got);
        let o = &got.dut;
        let terminal = o.completed() + o.kernel_cancelled;
        self.require(layers.kernel_fed == terminal, || {
            format!(
                "kernel conservation: fed {} tasks, {terminal} completed or cancelled",
                layers.kernel_fed
            )
        });
    }

    /// Two runs must agree bit for bit.
    fn same(&mut self, what: &str, expected: &RunOutcome, got: &RunOutcome) {
        self.require(expected == got, || {
            format!(
                "{what}: simulated outputs differ (digest {:016x} vs {:016x})",
                expected.digest(),
                got.digest()
            )
        });
    }
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Fan width of the determinism check: every available core, and at least
/// two so the parallel fan itself runs.
fn fan_width() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .max(2)
}

/// Set-up samples taken even when few timed runs fit in the budget.
const MIN_SETUP_SAMPLES: usize = 21;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The untraced, timed run: the end-to-end metrics.
fn end_to_end(args: &Args, checks: &mut Checks) -> (u64, Vec<Metric>, RunOutcome) {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Host times, scaled to the nominal host (see `calib`).
    let mut scaler = calib::Scaler::new();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<RunOutcome> = None;
    let mut rss = 0.0;
    let mut attempted = 0;
    while walls.is_empty() || start.elapsed() < budget {
        let t0 = Instant::now();
        let ready = workload::setup(args.workload, args.seeds);
        let t1 = Instant::now();
        let outcome = std::hint::black_box(workload::run(ready, 1));
        let wall = t1.elapsed().as_secs_f64();
        let factor = scaler.factor();
        walls.push(wall * factor);
        setups.push((t1 - t0).as_secs_f64() * factor);
        attempted += outcome.simulated_arrivals();
        match &first {
            None => {
                // The footprint of one set-up and run; later runs would
                // only add allocator fragmentation that varies with how
                // many runs fit in the budget.
                rss = peak_rss_mib();
                first = Some(outcome);
            }
            Some(f) => checks.same("repeated run", f, &outcome),
        }
    }
    while setups.len() < MIN_SETUP_SAMPLES {
        let t0 = Instant::now();
        std::hint::black_box(workload::setup(args.workload, args.seeds));
        let setup = t0.elapsed().as_secs_f64();
        setups.push(setup * scaler.factor());
    }
    let outcome = first.expect("at least one run");
    let metrics = vec![
        m(
            "invocations_per_s",
            outcome.simulated_arrivals() as f64 / median(&mut walls),
            "1/s",
        ),
        m("setup_s", median(&mut setups), "s"),
        m("peak_rss_mib", rss, "MiB"),
        m("sim_cost_usd", outcome.dut.cost_usd, "USD"),
        m(
            "sim_p99_execution_s",
            outcome.dut.execution_p99_us as f64 / 1e6,
            "sim_s",
        ),
        m("sim_served_share", outcome.dut.served_share(), "ratio"),
    ];
    eprintln!(
        "{}: {} timed runs, {} set-up samples, median reference {:.2} ms",
        args.workload.name(),
        walls.len(),
        setups.len(),
        median(scaler.reference_times()) * 1e3
    );
    let (traced, layers) = traced::run(args.workload, args.seeds);
    checks.traced(&outcome, &traced, &layers);
    (attempted, metrics, outcome)
}

fn per_s(d: Duration, n: u64, scale: f64) -> f64 {
    if n == 0 {
        0.0
    } else {
        d.as_secs_f64() * scale / n as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The traced run: untraced and traced re-drives alternate; the layer
/// split comes from the traced run with the median wall time.
fn per_layer(args: &Args, checks: &mut Checks) -> (u64, Vec<Metric>, RunOutcome) {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut untraced_walls = Vec::new();
    let mut traced_runs: Vec<Layers> = Vec::new();
    let mut scaler = calib::Scaler::new();
    let mut first: Option<RunOutcome> = None;
    let mut attempted = 0;
    while traced_runs.is_empty() || start.elapsed() < budget {
        let ready = workload::setup(args.workload, args.seeds);
        let t = Instant::now();
        let outcome = std::hint::black_box(workload::run(ready, 1));
        untraced_walls.push(t.elapsed().as_secs_f64());
        let (traced, layers) = traced::run(args.workload, args.seeds);
        checks.traced(&outcome, &traced, &layers);
        attempted += outcome.simulated_arrivals();
        traced_runs.push(layers);
        scaler.factor();
        if first.is_none() {
            first = Some(outcome);
        }
    }
    let outcome = first.expect("at least one run");
    traced_runs.sort_by_key(|l| l.wall);
    let l = traced_runs[traced_runs.len() / 2].clone();
    let wall = l.wall.as_secs_f64();
    let mut traced_walls: Vec<f64> = traced_runs.iter().map(|l| l.wall.as_secs_f64()).collect();
    let overhead = median(&mut traced_walls) / median(&mut untraced_walls);
    let o = &outcome.dut;
    let cfs = outcome.cfs.as_ref();
    let arrivals = o.arrivals;
    let n = |v: u64| v as f64;
    let metrics = vec![
        m("tracing.overhead_ratio", overhead, "ratio"),
        m("tracing.wall_s", wall, "s"),
        m("trace.s", l.trace.as_secs_f64(), "s"),
        m("trace.invocations", n(l.trace_invocations), "count"),
        m("frontend.s", l.frontend.as_secs_f64(), "s"),
        m(
            "frontend.share_of_wall",
            l.frontend.as_secs_f64() / wall,
            "ratio",
        ),
        m(
            "frontend.us_per_invocation",
            per_s(l.frontend, arrivals, 1e6),
            "us",
        ),
        m("frontend.cold_starts", n(o.cold_starts), "count"),
        m("frontend.shed", n(o.overload.total_shed()), "count"),
        m("frontend.ejections", n(o.health.ejections), "count"),
        m("frontend.hedges", n(o.health.hedges), "count"),
        m("frontend.hedges_won", n(o.health.hedges_won), "count"),
        m("frontend.retries", n(o.chaos.retries), "count"),
        m("dispatch.picks", n(l.picks), "count"),
        m("dispatch.s", l.dispatch.as_secs_f64(), "s"),
        m(
            "dispatch.us_per_pick",
            per_s(l.dispatch, l.picks, 1e6),
            "us",
        ),
        m("kernel.s", l.kernel.as_secs_f64(), "s"),
        m(
            "kernel.share_of_wall",
            l.kernel.as_secs_f64() / wall,
            "ratio",
        ),
        m("kernel.events", n(l.kernel_events), "count"),
        m(
            "kernel.ns_per_event",
            per_s(l.kernel, l.kernel_events, 1e9),
            "ns",
        ),
        m("kernel.idle_offers", n(l.idle_offers), "count"),
        m(
            "kernel.idle_offers_per_event",
            ratio(l.idle_offers, l.kernel_events),
            "ratio",
        ),
        m(
            "kernel.idle_offer_hit_ratio",
            ratio(l.idle_hits, l.idle_offers),
            "ratio",
        ),
        m("kernel.slice_expiries", n(l.slice_expiries), "count"),
        m("kernel.preemptions", n(o.preemptions), "count"),
        m("kernel.ctx_switches", n(o.ctx_switches), "count"),
        m("kernel.core_utilization", o.core_utilization(), "ratio"),
        m("kernel.cancelled", n(o.kernel_cancelled), "count"),
        m("hybrid.migrations", n(l.migrations), "count"),
        m(
            "sim.p50_response_s",
            o.response_p50_us as f64 / 1e6,
            "sim_s",
        ),
        m(
            "sim.p99_response_s",
            o.response_p99_us as f64 / 1e6,
            "sim_s",
        ),
        m("cfs.s", l.cfs_kernel.as_secs_f64(), "s"),
        m("cfs.events", n(l.cfs_events), "count"),
        m(
            "cfs.idle_offers_per_event",
            ratio(l.cfs_idle_offers, l.cfs_events),
            "ratio",
        ),
        m("cfs.sim_cost_usd", cfs.map_or(0.0, |c| c.cost_usd), "USD"),
        m(
            "cfs.cost_ratio",
            outcome.cost_ratio().unwrap_or(0.0),
            "ratio",
        ),
        m("retire.s", l.retire.as_secs_f64(), "s"),
        m("retire.records", n(l.retire_records), "count"),
        m("merge.s", l.merge.as_secs_f64(), "s"),
        m("merge.sketch_tuples", n(l.sketch_tuples), "count"),
        m("host.reference_s", median(scaler.reference_times()), "s"),
    ];
    (attempted, metrics, outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let (attempted, metrics, outcome) = if args.trace {
        per_layer(&args, &mut checks)
    } else {
        end_to_end(&args, &mut checks)
    };
    checks.outcome(args.workload, &outcome);
    // Determinism, outside the timed runs: the same digest at full fan.
    let fanned = workload::run(workload::setup(args.workload, args.seeds), fan_width());
    checks.same("fan width", &outcome, &fanned);
    for metric in &metrics {
        checks.require(metric.value.is_finite(), || {
            format!("metric {} is {}", metric.name, metric.value)
        });
    }

    for failure in &checks.0 {
        eprintln!("CHECK FAILED: {failure}");
    }
    let correct = checks.0.is_empty();
    let seed = args
        .seed
        .map_or_else(|| "standard".to_owned(), |s| s.to_string());
    println!(
        "sim_digest {} seed={seed} {:016x}",
        args.workload.name(),
        outcome.digest()
    );
    let o = &outcome.dut;
    println!("ledger {:?}", o.overload);
    println!("ledger {:?}", o.chaos);
    println!("ledger {:?}", o.health);
    for metric in &metrics {
        println!("{:<32} {:>18} {}", metric.name, metric.value, metric.unit);
    }
    // JSON has no NaN or infinity; such a value already failed the checks.
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        if correct { 0 } else { attempted },
        body.join(", ")
    );
    ExitCode::SUCCESS
}
