//! Property-based tests for the discrete-event engine.

use faas_simcore::{check, EventQueue, MinHeap4, SimDuration, SimTime};

/// Popped timestamps are non-decreasing for arbitrary schedules.
#[test]
fn pop_order_is_monotone() {
    check::run("pop_order_is_monotone", 256, |g| {
        let times = g.vec_u64(0, 1_000_000, 1, 200);
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    });
}

/// Every non-cancelled event is delivered exactly once.
#[test]
fn delivery_is_exactly_once() {
    check::run("delivery_is_exactly_once", 256, |g| {
        let times = g.vec_u64(0, 1_000, 1, 100);
        let cancel_mask = g.vec_bool(1, 100);
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (i, q.schedule(SimTime::from_micros(*t), i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in &ids {
            if *cancel_mask.get(*i).unwrap_or(&false) {
                assert!(q.cancel(*id));
            } else {
                expected.push(*i);
            }
        }
        let mut got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

/// Ties at the same instant preserve insertion order.
#[test]
fn fifo_within_instant() {
    check::run("fifo_within_instant", 64, |g| {
        let n = g.usize_in(1, 100);
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..n {
            q.schedule(t, i);
        }
        let got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    });
}

/// Differential model check of the indexed-heap queue: under chaotic
/// schedule/cancel/pop/peek interleavings, the queue must agree with a
/// brute-force reference model of the documented contract — pops ordered
/// by (time, insertion sequence), cancel true exactly when the event is
/// still pending, `len`/`peek_time` consistent throughout.
#[test]
fn event_queue_matches_reference_model() {
    check::run("event_queue_matches_reference_model", 192, |g| {
        let steps = g.usize_in(1, 120);
        let mut q = EventQueue::new();
        // The model: per scheduled event, its (time, seq) key while still
        // pending (`None` once popped or cancelled), indexed by schedule
        // order. Payloads are the schedule indices.
        let mut pending: Vec<Option<(SimTime, u64)>> = Vec::new();
        let mut ids = Vec::new();
        let mut seq = 0u64;
        for _ in 0..steps {
            match g.usize_in(0, 4) {
                // Schedule (twice as likely, so queues actually grow).
                0 | 1 => {
                    let at = SimTime::from_micros(g.u64_in(0, 1_000));
                    ids.push(q.schedule(at, pending.len()));
                    pending.push(Some((at, seq)));
                    seq += 1;
                }
                // Cancel a random already-issued id (possibly dead).
                2 if !ids.is_empty() => {
                    let i = g.usize_in(0, ids.len());
                    let expect = pending[i].take().is_some();
                    assert_eq!(q.cancel(ids[i]), expect, "cancel({i})");
                }
                // Pop must deliver the model's (time, seq)-minimum.
                _ => {
                    let min = pending
                        .iter()
                        .enumerate()
                        .filter_map(|(i, k)| k.map(|key| (key, i)))
                        .min();
                    match min {
                        Some(((at, _), i)) => {
                            assert_eq!(q.pop(), Some((at, i)), "pop");
                            pending[i] = None;
                        }
                        None => assert_eq!(q.pop(), None, "pop on empty"),
                    }
                }
            }
            let live = pending.iter().flatten().count();
            assert_eq!(q.len(), live, "len diverged");
            let min_t = pending.iter().flatten().map(|&(at, _)| at).min();
            assert_eq!(q.peek_time(), min_t, "peek_time diverged");
        }
    });
}

/// Differential model check of the runqueue heap: `push`/`pop_min`/
/// `take_max` over unique keys must mirror a `BTreeSet`'s
/// `iter().next()` / `iter().next_back()` picks exactly (the old
/// runqueue implementation).
#[test]
fn min_heap4_matches_btreeset_model() {
    use std::collections::BTreeSet;
    check::run("min_heap4_matches_btreeset_model", 192, |g| {
        let steps = g.usize_in(1, 150);
        let mut h: MinHeap4<(u64, u64)> = MinHeap4::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut uniq = 0u64;
        for _ in 0..steps {
            match g.usize_in(0, 4) {
                0 | 1 => {
                    // Unique keys, as the runqueues guarantee via the
                    // task-id tie-break.
                    let key = (g.u64_in(0, 50), uniq);
                    uniq += 1;
                    h.push(key);
                    model.insert(key);
                }
                2 => {
                    let expect = model.iter().next().copied();
                    if let Some(k) = expect {
                        model.remove(&k);
                    }
                    assert_eq!(h.pop_min(), expect, "pop_min diverged");
                }
                _ => {
                    let expect = model.iter().next_back().copied();
                    if let Some(k) = expect {
                        model.remove(&k);
                    }
                    assert_eq!(h.take_max(), expect, "take_max diverged");
                }
            }
            assert_eq!(h.len(), model.len(), "len diverged");
            assert_eq!(h.peek_min(), model.iter().next(), "peek diverged");
        }
        let sorted: Vec<_> = model.iter().copied().collect();
        assert_eq!(h.into_sorted_vec(), sorted, "final drain diverged");
    });
}

/// Untracked and tracked scheduling share one deterministic order, and
/// `clear` starts a fresh FIFO epoch without leaking stale entries.
#[test]
fn untracked_and_clear_preserve_order() {
    check::run("untracked_and_clear_preserve_order", 128, |g| {
        let mut q = EventQueue::new();
        // A throwaway epoch that `clear` must fully erase.
        for i in 0..g.usize_in(0, 20) {
            q.schedule(SimTime::from_micros(g.u64_in(0, 100)), i);
        }
        q.clear();
        let n = g.usize_in(1, 60);
        let mut expected: Vec<(SimTime, u64, usize)> = Vec::new();
        for i in 0..n {
            let at = SimTime::from_micros(g.u64_in(0, 50));
            if g.boolean() {
                q.schedule_untracked(at, i);
            } else {
                q.schedule(at, i);
            }
            expected.push((at, i as u64, i));
        }
        expected.sort();
        let got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let want: Vec<usize> = expected.into_iter().map(|(_, _, i)| i).collect();
        assert_eq!(got, want);
    });
}

/// A sequence number reserved now and scheduled later orders as if the
/// event had been scheduled at reservation time: under random
/// interleavings of schedule, reserve, schedule-a-reservation, pop and
/// cancel, every pop delivers the (time, seq)-minimum of a sorted
/// reference model, and `peek_key` names it.
#[test]
fn reserved_sequence_numbers_keep_reservation_order() {
    check::run(
        "reserved_sequence_numbers_keep_reservation_order",
        192,
        |g| {
            let mut q = EventQueue::new();
            // The model: (time, seq, payload) of every event in the queue.
            let mut model: Vec<(SimTime, u64, usize)> = Vec::new();
            // Reserved numbers not yet scheduled, and cancellable ids.
            let mut reserved: Vec<u64> = Vec::new();
            let mut ids = Vec::new();
            let mut seq = 0u64;
            for payload in 0..g.usize_in(1, 150) {
                match g.usize_in(0, 6) {
                    0 => {
                        let at = SimTime::from_micros(g.u64_in(0, 200));
                        q.schedule_untracked(at, payload);
                        model.push((at, seq, payload));
                        seq += 1;
                    }
                    1 => {
                        let at = SimTime::from_micros(g.u64_in(0, 200));
                        ids.push((q.schedule(at, payload), seq));
                        model.push((at, seq, payload));
                        seq += 1;
                    }
                    2 => {
                        assert_eq!(q.reserve(), seq, "reservations take the next number");
                        reserved.push(seq);
                        seq += 1;
                    }
                    3 if !reserved.is_empty() => {
                        let r = reserved.swap_remove(g.usize_in(0, reserved.len()));
                        let at = SimTime::from_micros(g.u64_in(0, 200));
                        q.schedule_reserved(at, r, payload);
                        model.push((at, r, payload));
                    }
                    4 if !ids.is_empty() => {
                        let (id, s) = ids.swap_remove(g.usize_in(0, ids.len()));
                        let live = model.iter().position(|&(_, ms, _)| ms == s);
                        assert_eq!(q.cancel(id), live.is_some(), "cancel");
                        if let Some(i) = live {
                            model.swap_remove(i);
                        }
                    }
                    _ => {
                        model.sort_unstable();
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        assert_eq!(q.pop(), want.map(|(at, _, p)| (at, p)), "pop");
                    }
                }
                let min = model.iter().map(|&(at, s, _)| (at, s)).min();
                assert_eq!(q.peek_key(), min, "peek_key");
                assert_eq!(q.len(), model.len(), "len");
            }
        },
    );
}

/// SimTime/SimDuration arithmetic round-trips.
#[test]
fn time_arithmetic_roundtrip() {
    check::run("time_arithmetic_roundtrip", 256, |g| {
        let base = g.u64_in(0, u32::MAX as u64);
        let delta = g.u64_in(0, u32::MAX as u64);
        let t = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).saturating_since(t), d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    });
}
