//! Determinism pins for the heavy-policy figures.
//!
//! PR 4 swapped the simulation's two hottest data structures (the event
//! queue and the CFS/Shinjuku-side runqueues) for index-addressed dense
//! equivalents under a byte-identical-output contract. These tests pin
//! that contract permanently:
//!
//! * the fig11/fig12 scenario output digests below were captured from the
//!   tree **before** the swap — any ordering change in the kernel event
//!   loop or the runqueue picks shows up as a digest mismatch;
//! * the fig19 and ablation-design digests were captured from the tree
//!   before the hybrid's long-task group moved onto `faas_policies`' CFS
//!   run queues: fig19 migrates cores in both directions (queue hand-off
//!   on removal, rebalancing on arrival), and ablation-design covers
//!   least-loaded CFS placement, hint routing and rightsizing thresholds;
//! * the same output must be byte-identical at any `BENCH_THREADS`
//!   setting (the sweep fan-out must not affect results).
//!
//! The digests cover the downscaled (`SCALE_DIV=40`) runs so the test
//! stays fast; the full-scale outputs were diffed pre/post as part of the
//! PR itself. Everything in the pipeline is deterministic integer/float
//! arithmetic with deterministic formatting, so the digests are stable
//! across machines.

use faas_bench::scenario;

/// FNV-1a 64-bit, enough to pin byte identity without external crates.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run_scenario(id: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    scenario::find(id)
        .unwrap_or_else(|| panic!("{id} registered"))
        .run_to(&mut buf, &[])
        .unwrap_or_else(|e| panic!("{id} failed: {e}"));
    buf
}

/// One test (not several) because it owns process-wide environment
/// variables; splitting it would race the `SCALE_DIV`/`BENCH_THREADS`
/// settings across the harness's test threads.
#[test]
fn fig11_fig12_bytes_pinned_to_pre_swap_and_thread_invariant() {
    std::env::set_var("SCALE_DIV", "40");
    std::env::set_var("BENCH_THREADS", "1");

    let fig11_t1 = run_scenario("fig11");
    let fig12_t1 = run_scenario("fig12");
    let fig19_t1 = run_scenario("fig19");
    let design_t1 = run_scenario("ablation-design");

    // Digests recorded from the pre-swap tree (BinaryHeap event queue,
    // BTreeSet runqueues) at SCALE_DIV=40.
    assert_eq!(
        fnv1a(&fig11_t1),
        0x3e3e_b45f_7797_a5a3,
        "fig11 output changed vs. the pre-swap baseline"
    );
    assert_eq!(
        fnv1a(&fig12_t1),
        0xedc3_a6b9_8a34_4406,
        "fig12 output changed vs. the pre-swap baseline"
    );
    // Digests recorded before the hybrid's CFS group and `Cfs` shared one
    // run-queue type, at SCALE_DIV=40.
    assert_eq!(
        fnv1a(&fig19_t1),
        0xa15a_3bbe_0218_d8a2,
        "fig19 output changed vs. the two-CFS baseline"
    );
    assert_eq!(
        fnv1a(&design_t1),
        0x01b6_c799_3e60_2407,
        "ablation-design output changed vs. the two-CFS baseline"
    );

    // Thread invariance: the parallel sweep runner must not change bytes.
    std::env::set_var("BENCH_THREADS", "4");
    let fig11_t4 = run_scenario("fig11");
    let fig12_t4 = run_scenario("fig12");
    std::env::set_var("BENCH_THREADS", "1");
    assert_eq!(fig11_t1, fig11_t4, "fig11 differs across BENCH_THREADS");
    assert_eq!(fig12_t1, fig12_t4, "fig12 differs across BENCH_THREADS");
}
