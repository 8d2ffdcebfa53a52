//! Cross-commit pin of the dispatch fold's output.
//!
//! The differential suites compare two paths of the *same* code, so a
//! refactor that changes both paths in lockstep slips past them. This
//! test runs one small fleet with every dispatch-tier layer engaged —
//! cold starts; a rate limit, deadline, kernel cancel and breaker;
//! crashes, stragglers, backoff, a retry budget and a churn tariff;
//! ejection and priced hedging; autoscaling — on both run paths and
//! compares an FNV-1a digest of everything the fold produces (records,
//! per-machine dispatch counts, cold starts and every ledger, `f64`s by
//! their bits) against a constant captured from a known-good build.
//!
//! If a change is *meant* to alter fold output, recapture the constants
//! and say why in the change log; otherwise a mismatch is a regression.

use azure_trace::{AzureTrace, TraceConfig};
use faas_cluster::dispatch::PowerOfTwoChoices;
use faas_cluster::{
    chunk_workload, workload_from_trace, AutoscaleConfig, BackoffConfig, BreakerConfig,
    ChaosConfig, Cluster, ClusterConfig, ColdStartConfig, EjectionConfig, FaultPlan,
    FaultPlanConfig, HealthConfig, HedgeConfig, OverloadConfig, StreamOptions,
};
use faas_kernel::{InterferenceConfig, MachineConfig};
use faas_metrics::{ChaosStats, HealthStats, MachineHealth, OverloadStats};
use faas_policies::Fifo;
use faas_simcore::SimDuration;
use lambda_pricing::PriceModel;

/// Same hash as `crates/bench/tests/determinism.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The three ledgers as digest input: the `f64` dollar totals by their
/// bits, everything else (counters, `SimDuration`s, the per-machine
/// health columns) through `Debug`, which prints every integer exactly.
fn ledgers(o: &OverloadStats, c: &ChaosStats, h: &HealthStats, mh: &[MachineHealth]) -> String {
    let (mut o, mut c, mut h) = (*o, *c, *h);
    let usd = [
        std::mem::take(&mut o.lost_revenue_usd),
        std::mem::take(&mut c.churn_cost_usd),
        std::mem::take(&mut h.hedge_cost_usd),
    ]
    .map(f64::to_bits);
    format!("{o:?}{c:?}{h:?}{mh:?}{usd:?}")
}

fn fleet(machines: usize) -> ClusterConfig {
    let machine = MachineConfig::new(4)
        .with_interference(InterferenceConfig::default())
        .with_seed(0x005E_EDC1);
    let plan = FaultPlan::generate(
        &FaultPlanConfig::new(0xF01D_D16E, 2)
            .with_crashes(24.0, SimDuration::from_secs(5))
            .with_stragglers(2.0, SimDuration::from_secs(20), 4.0),
        machines,
    );
    ClusterConfig::new(machines, machine)
        .with_cold_start(ColdStartConfig::firecracker())
        .with_overload(
            OverloadConfig::default()
                .with_rate_limit(8, 4)
                .with_deadline(SimDuration::from_secs(10))
                .with_kernel_cancel()
                .with_breaker(BreakerConfig {
                    window: 10,
                    trip_pct: 20,
                    cooldown: SimDuration::from_secs(10),
                })
                .with_price(PriceModel::duration_only()),
        )
        .with_chaos(
            ChaosConfig::new(plan)
                .with_max_retries(1)
                .with_slo(SimDuration::from_secs(2))
                .with_price(PriceModel::duration_only())
                .with_backoff(
                    BackoffConfig::new(0xB0FF_0013)
                        .with_delays(SimDuration::from_millis(100), SimDuration::from_secs(10))
                        .with_jitter(0.25),
                ),
        )
        .with_health(
            HealthConfig::default()
                .with_ejection(
                    EjectionConfig::default()
                        .with_threshold(2.0)
                        .with_probation(SimDuration::from_secs(5))
                        .with_min_samples(8),
                )
                .with_hedge(
                    HedgeConfig::default()
                        .with_quantile(0.95)
                        .with_min_samples(64)
                        .with_price(PriceModel::duration_only()),
                ),
        )
        .with_autoscale(AutoscaleConfig {
            min_machines: 4,
            high_watermark: 12.0,
            low_watermark: 2.0,
            check_interval: SimDuration::from_secs(1),
            cooldown: SimDuration::from_secs(5),
            boot_lag: SimDuration::from_secs(2),
        })
}

#[test]
fn full_stack_fold_output_is_pinned() {
    let machines = 8;
    let cfg = TraceConfig::w2().rps_scaled(machines).downscaled(64);
    let tasks = workload_from_trace(&AzureTrace::generate(&cfg), 1);
    let policy = || PowerOfTwoChoices::new(0xD16E);

    let exact = Cluster::new(fleet(machines), policy(), |_| Fifo::new())
        .run(&tasks, 2)
        .expect("materializing run completes");
    let o = &exact.overload;
    let shed = o.shed_concurrency + o.shed_rate + o.shed_timeout + o.shed_breaker;
    let engaged = [
        ("shed", shed),
        ("retries", exact.chaos.retries),
        ("abandoned", exact.chaos.abandoned),
        ("hedges", exact.health.hedges),
        ("ejections", exact.health.ejections),
        ("scale_ups", exact.chaos.scale_ups),
        ("straggled_tasks", exact.chaos.straggled_tasks),
    ];
    for (what, n) in engaged {
        assert!(n > 0, "{what} never engaged: {engaged:?}");
    }

    let materializing = fnv1a(
        format!(
            "{:?}{:?}{}{}",
            exact.records,
            exact.dispatched(),
            exact.cold_starts,
            ledgers(
                &exact.overload,
                &exact.chaos,
                &exact.health,
                &exact.machine_health
            )
        )
        .as_bytes(),
    );

    let opts = StreamOptions {
        price: Some(PriceModel::duration_only()),
        ..StreamOptions::default()
    };
    let stream = Cluster::new(fleet(machines), policy(), |_| Fifo::new())
        .run_streaming(chunk_workload(&tasks, SimDuration::from_secs(10)), &opts, 2)
        .expect("streaming run completes");
    let per_machine: Vec<_> = stream
        .machines
        .iter()
        .map(|m| (m.tasks, m.cancelled, m.finished_at, m.cost_usd.to_bits()))
        .collect();
    let streaming = fnv1a(
        format!(
            "{per_machine:?}{}{}",
            stream.cold_starts,
            ledgers(
                &stream.overload,
                &stream.chaos,
                &stream.health,
                &stream.machine_health
            )
        )
        .as_bytes(),
    );

    assert_eq!(
        (materializing, streaming),
        (0xace5_a27d_e45a_2cab, 0xe2a4_8ee5_013f_ecad),
        "fold output changed: materializing {materializing:#018x}, streaming {streaming:#018x}"
    );
}
