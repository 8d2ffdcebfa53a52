//! Renewal trains: a core's run of lone slice renewals, settled in closed
//! form instead of one heap event per slice.
//!
//! A train stands for the slice expiries a core would take while its task
//! runs alone there: each would stop the task, hand it back to the policy
//! and get it re-dispatched warm on the same core with the same slice. The
//! machine arms no per-slice event for it: before each real event the
//! driver settles the boundaries that fire before that event, once it
//! has checked that the policy still promises exactly that renewal
//! ([`Scheduler::renewal_slice`](crate::Scheduler::renewal_slice)) and
//! that no idle core could use an offer. A train that fails the check
//! breaks instead: its pending boundary becomes an ordinary slice expiry,
//! delivered as if no train had run.
//!
//! Each skipped expiry would have reserved the insertion sequence number
//! of the next one, and that number decides ties at equal instants. A
//! train therefore keeps the number of its pending boundary, settlement
//! reserves fresh numbers in the order the skipped events would have
//! taken them, and [`fires_first`] reconstructs that order for items of
//! different trains that fall on one instant.
//!
//! Items are numbered from 1 within one settlement: item 1 is the pending
//! boundary, item `j` the boundary `j - 1` slices later, and item
//! `left + 1` the task's completion.

use std::cmp::Ordering;

use faas_simcore::{SimDuration, SimTime};

use crate::core::CoreId;
use crate::task::TaskId;

/// One core's renewal train.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Train {
    pub(crate) core: CoreId,
    pub(crate) task: TaskId,
    /// Core generation the pending boundary's slice expiry carries.
    pub(crate) generation: u64,
    pub(crate) slice: SimDuration,
    /// Instant of the pending boundary (always before `done`).
    pub(crate) next: SimTime,
    /// Insertion sequence number reserved for the pending boundary.
    pub(crate) seq: u64,
    /// Instant the task completes if the train is never broken.
    pub(crate) done: SimTime,
    /// Boundaries left before `done`, the pending one included (0 once
    /// the completion is armed).
    pub(crate) left: u64,
}

/// Where a settlement stops: the next real event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Horizon {
    /// Everything before this instant: an arrival (which fires first at
    /// its instant) or a run bound.
    Before(SimTime),
    /// A heap event's (instant, sequence number) key.
    Event(SimTime, u64),
    /// The completion of the train at this index.
    Completion(usize),
}

impl Train {
    /// A train whose pending boundary is `next` and whose task completes
    /// at `done` (`next < done`).
    pub(crate) fn new(
        core: CoreId,
        task: TaskId,
        generation: u64,
        slice: SimDuration,
        next: SimTime,
        seq: u64,
        done: SimTime,
    ) -> Self {
        debug_assert!(
            next < done,
            "a train's pending boundary precedes its completion"
        );
        let left = (done - next).as_micros().div_ceil(slice.as_micros());
        Train {
            core,
            task,
            generation,
            slice,
            next,
            seq,
            done,
            left,
        }
    }

    /// Instant of item `j` (1-based).
    pub(crate) fn item_at(&self, j: u64) -> SimTime {
        debug_assert!(j >= 1, "items are numbered from 1");
        if j <= self.left {
            self.next + self.slice * (j - 1)
        } else {
            self.done
        }
    }

    /// Boundaries strictly before `t`.
    fn boundaries_before(&self, t: SimTime) -> u64 {
        if t <= self.next {
            return 0;
        }
        (t - self.next)
            .as_micros()
            .div_ceil(self.slice.as_micros())
            .min(self.left)
    }

    /// Boundaries at or before `t`.
    pub(crate) fn boundaries_through(&self, t: SimTime) -> u64 {
        if t < self.next {
            return 0;
        }
        ((t - self.next).as_micros() / self.slice.as_micros() + 1).min(self.left)
    }

    /// Boundaries that fire before `horizon`; `me` is this train's index
    /// in `trains`.
    pub(crate) fn boundaries_before_horizon(
        &self,
        me: usize,
        horizon: Horizon,
        trains: &[Train],
    ) -> u64 {
        match horizon {
            Horizon::Before(t) => self.boundaries_before(t),
            // Only the pending boundary holds a number older than the
            // event's; later ones are reserved after it.
            Horizon::Event(t, seq) if t == self.next => u64::from(self.seq < seq),
            Horizon::Event(t, _) => self.boundaries_before(t),
            Horizon::Completion(a) if a == me => self.left,
            Horizon::Completion(a) => {
                let other = &trains[a];
                let k = self.boundaries_before(other.done);
                let tied = k < self.left
                    && self.item_at(k + 1) == other.done
                    && fires_first(self, k + 1, other, other.left + 1);
                k + u64::from(tied)
            }
        }
    }
}

/// Whether item `j` of train `a` fires before item `i` of another train
/// `b` that falls on the same instant.
///
/// Item 1 holds a number reserved before this settlement, so it precedes
/// any later item, whose number is reserved during it. Two later items
/// order as the items whose firing reserved them: their predecessors.
pub(crate) fn fires_first(a: &Train, mut j: u64, b: &Train, mut i: u64) -> bool {
    debug_assert_eq!(a.item_at(j), b.item_at(i), "items on different instants");
    loop {
        match (j, i) {
            (1, 1) => return a.seq < b.seq,
            (1, _) => return true,
            (_, 1) => return false,
            _ => {}
        }
        j -= 1;
        i -= 1;
        let (ta, tb) = (a.item_at(j), b.item_at(i));
        if ta != tb {
            return ta < tb;
        }
        if a.slice == b.slice {
            // Both chains now step back in lockstep: the one that
            // reaches its pending boundary first holds the older number.
            return (j, a.seq) < (i, b.seq);
        }
    }
}

/// The firing order of two items `(train index, item)` on one instant:
/// by item within one train, by [`fires_first`] across trains.
pub(crate) fn tie_order(trains: &[Train], (a, j): (usize, u64), (b, i): (usize, u64)) -> Ordering {
    if a == b {
        j.cmp(&i)
    } else if fires_first(&trains[a], j, &trains[b], i) {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(next_ms: u64, slice_ms: u64, done_ms: u64, seq: u64) -> Train {
        Train::new(
            CoreId::from_index(0),
            TaskId::from_index(0),
            0,
            SimDuration::from_millis(slice_ms),
            SimTime::from_millis(next_ms),
            seq,
            SimTime::from_millis(done_ms),
        )
    }

    #[test]
    fn items_step_by_slice_then_complete() {
        let t = train(10, 4, 21, 0);
        // Boundaries at 10, 14, 18; the completion at 21.
        assert_eq!(t.left, 3);
        let at: Vec<u64> = (1..=4).map(|j| t.item_at(j).as_millis()).collect();
        assert_eq!(at, [10, 14, 18, 21]);
        assert_eq!(t.boundaries_before(SimTime::from_millis(10)), 0);
        assert_eq!(t.boundaries_before(SimTime::from_millis(14)), 1);
        assert_eq!(t.boundaries_before(SimTime::from_millis(15)), 2);
        assert_eq!(t.boundaries_before(SimTime::MAX), 3);
        assert_eq!(t.boundaries_through(SimTime::from_millis(9)), 0);
        assert_eq!(t.boundaries_through(SimTime::from_millis(14)), 2);
        assert_eq!(t.boundaries_through(SimTime::MAX), 3);
        // A completion one slice after the last boundary is not a boundary.
        assert_eq!(train(10, 4, 22, 0).left, 3);
    }

    #[test]
    fn event_horizon_orders_the_pending_boundary_by_number() {
        let t = train(10, 4, 30, 5);
        let at = SimTime::from_millis(10);
        assert_eq!(
            t.boundaries_before_horizon(0, Horizon::Event(at, 6), &[]),
            1
        );
        assert_eq!(
            t.boundaries_before_horizon(0, Horizon::Event(at, 4), &[]),
            0
        );
        // A later boundary on the event's instant was reserved after it.
        let at = SimTime::from_millis(14);
        assert_eq!(
            t.boundaries_before_horizon(0, Horizon::Event(at, 99), &[]),
            1
        );
    }

    #[test]
    fn ties_follow_reservation_order() {
        // Same slice: the train whose pending boundary came later has
        // fired fewer boundaries, so its number is older.
        let (a, b) = (train(10, 4, 40, 7), train(14, 4, 40, 3));
        assert!(!fires_first(&a, 3, &b, 2));
        assert!(fires_first(&b, 2, &a, 3));
        // Same pending instant: the stored numbers decide.
        let (a, b) = (train(10, 4, 40, 7), train(10, 4, 40, 3));
        assert!(!fires_first(&a, 2, &b, 2));
        assert!(fires_first(&a, 1, &train(10, 4, 40, 8), 1));
        // Different slices: the predecessor that fired earlier reserved
        // first. Both at 20: a's predecessor at 16, b's at 14.
        let (a, b) = (train(12, 4, 40, 1), train(8, 6, 40, 2));
        assert_eq!(a.item_at(3), b.item_at(3));
        assert!(!fires_first(&a, 3, &b, 3));
        assert!(fires_first(&b, 3, &a, 3));
    }
}
