//! A fixed reference computation that uses none of the simulator's code,
//! timed around every measurement so that host speed drift can be told
//! apart from a change in the simulator.
//!
//! On a shared host the same binary's speed drifts by a third over
//! minutes. Each measured time `t` is therefore reported scaled to a
//! nominal host on which one reference run takes [`NOMINAL`]: with `r`
//! the mean of the reference runs just before and just after the
//! measurement, the reported time is `t · NOMINAL / r`. The reference
//! shares no code with the simulator, so a faster simulator still shows
//! in full. Over seven 25 s runs of one `fleet_sparse` seed on a 2-core
//! host, this cut the spread of the median run time (quartile distance
//! over median) from 20% raw to 4%; in a quieter series it neither helped
//! nor hurt (6% raw, 7% scaled).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// The reference's run time on the nominal host (the median on the 2-core
/// host the benchmark was tuned on).
pub const NOMINAL: Duration = Duration::from_millis(35);

/// Heap entries of the reference: a working set of a few hundred KiB,
/// like one machine's event queue and task table.
const ENTRIES: usize = 32_768;
/// Pops and pushes per reference run.
const STEPS: usize = 400_000;

/// Scales measurements to the nominal host by pairing each with the
/// reference runs around it.
pub struct Scaler {
    reference: Reference,
    last: Duration,
    refs: Vec<f64>,
}

impl Scaler {
    /// Starts with one reference run, the "before" of the first pair.
    pub fn new() -> Self {
        let mut reference = Reference::new();
        let last = reference.run();
        Scaler {
            reference,
            last,
            refs: vec![last.as_secs_f64()],
        }
    }

    /// Runs the reference again and returns the factor that scales what
    /// was measured since the previous reference run to the nominal host.
    pub fn factor(&mut self) -> f64 {
        let after = self.reference.run();
        let mean = (self.last + after).as_secs_f64() / 2.0;
        self.last = after;
        self.refs.push(after.as_secs_f64());
        NOMINAL.as_secs_f64() / mean
    }

    /// Every reference time taken so far, in seconds.
    pub fn reference_times(&mut self) -> &mut [f64] {
        &mut self.refs
    }
}

/// The reference: a discrete-event loop over a binary heap of
/// pseudo-random timestamps. Its buffer is allocated once, so a timed run
/// never asks the operating system for memory.
struct Reference {
    buf: Vec<Reverse<u64>>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            buf: Vec::with_capacity(ENTRIES + 1),
        }
    }

    /// Runs the reference once and returns its wall time.
    fn run(&mut self) -> Duration {
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.buf.extend((0..ENTRIES).map(|_| Reverse(next() >> 20)));
        let mut heap = BinaryHeap::from(std::mem::take(&mut self.buf));
        let mut sum = 0u64;
        for _ in 0..STEPS {
            let Reverse(at) = heap.pop().expect("the heap never drains");
            sum = sum.wrapping_add(at);
            heap.push(Reverse(at + (next() >> 40)));
        }
        std::hint::black_box(sum);
        let elapsed = t.elapsed();
        self.buf = heap.into_vec();
        self.buf.clear();
        elapsed
    }
}
