//! A deterministic future-event list.
//!
//! [`EventQueue`] is an **index-aware 4-ary min-heap** keyed on
//! ([`SimTime`], insertion sequence): events fire in time order and, within
//! the same instant, in insertion order. The sequence tie-break makes
//! simulations bit-for-bit reproducible regardless of payload type.
//!
//! # Memory layout and complexity
//!
//! The queue is three flat vectors and a free list — no per-event
//! allocation, no hashing, no tombstones:
//!
//! * `keys` / `rest` — the 4-ary heap itself, split struct-of-arrays
//!   style: the 16-byte (`at`, `seq`) ordering keys live in one dense
//!   vector (a node's four children share a single cache line), while the
//!   payload and the owning **slot** index live in a parallel vector that
//!   is only touched when entries actually move. A 4-ary heap has half
//!   the depth of a binary heap, so the pop path does fewer, closer
//!   memory accesses.
//! * `slots` — a slot arena mapping a stable [`EventId`] to the event's
//!   current heap position. Each slot is 8 bytes (position + generation);
//!   freed slots are recycled through `free`, and their generation is
//!   bumped so stale ids can never alias a later event.
//!
//! Because every id resolves to a live heap position in O(1),
//! [`EventQueue::cancel`] removes the event **in place** with one
//! O(log₄ n) sift — the pop path never re-checks a tombstone set, and
//! [`EventQueue::peek_time`] is a true `&self` read of the heap root.

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event, usable for cancellation.
///
/// Internally packs the event's arena slot and a generation counter; the
/// ordering derives exist so ids can live in ordered collections, but the
/// order itself is meaningless (it is *not* schedule order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn new(slot: u32, generation: u32) -> Self {
        EventId((u64::from(generation) << 32) | u64::from(slot))
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// The non-key half of a heap node: the owning slot and the payload.
/// Kept in a vector parallel to the 16-byte key vector, so the sift
/// comparison loops scan a dense key array (four children = one cache
/// line) and only touch payloads when a swap actually happens.
struct Rest<E> {
    slot: u32,
    payload: E,
}

/// Arena record backing one [`EventId`]: where the event currently sits in
/// the heap, and a generation stamp that invalidates the id once the event
/// fires or is cancelled.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pos: u32,
    generation: u32,
}

/// A future-event list with deterministic FIFO tie-breaking, O(log n)
/// **in-place** cancellation, and an allocation-free steady state.
///
/// # Examples
///
/// ```
/// use faas_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "late");
/// q.schedule(SimTime::from_millis(1), "early");
/// assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_millis(1), "early"));
/// ```
pub struct EventQueue<E> {
    /// The heap's ordering keys (`at`, `seq`), in heap order.
    keys: Vec<(SimTime, u64)>,
    /// The heap's slots and payloads, parallel to `keys`.
    rest: Vec<Rest<E>>,
    /// Slot arena: `EventId` → heap position + generation.
    slots: Vec<Slot>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Next insertion sequence number (the FIFO tie-break).
    next_seq: u64,
}

/// Arity of the heap: each node has up to four children, adjacent in
/// memory, halving the depth of the equivalent binary heap.
const ARITY: usize = 4;

/// Sentinel slot index marking an entry scheduled via
/// [`EventQueue::schedule_untracked`]: it has no arena slot, so sifts and
/// pops skip all back-pointer maintenance for it.
const UNTRACKED: u32 = u32::MAX;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            rest: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at instant `at`. Returns a handle that
    /// can be passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.keys.len() as u32;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].pos = pos;
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot { pos, generation: 0 });
                s
            }
        };
        let id = EventId::new(slot, self.slots[slot as usize].generation);
        self.keys.push((at, seq));
        self.rest.push(Rest { slot, payload });
        self.sift_up(pos as usize);
        id
    }

    /// Schedules `payload` without a cancellation handle.
    ///
    /// Untracked events skip the slot arena entirely — no free-list pop on
    /// schedule, no generation bump on fire, no back-pointer stores when
    /// the entry moves during sifts. This is the right call for fire-and-
    /// forget timers that are invalidated by other means (the kernel's
    /// generation-stamped completion/slice events); use
    /// [`EventQueue::schedule`] when the event may need cancelling.
    ///
    /// Ordering is identical to [`EventQueue::schedule`]: untracked and
    /// tracked events share the same (time, insertion-sequence) order.
    #[inline]
    pub fn schedule_untracked(&mut self, at: SimTime, payload: E) {
        let seq = self.reserve();
        self.schedule_reserved(at, seq, payload);
    }

    /// Takes the next insertion sequence number without scheduling
    /// anything. An event later scheduled with it through
    /// [`EventQueue::schedule_reserved`] orders exactly as if it had been
    /// scheduled now: after every event scheduled before this call and
    /// before every event scheduled after it, at equal instants.
    #[inline]
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` untracked (see
    /// [`EventQueue::schedule_untracked`]) under a sequence number taken
    /// earlier with [`EventQueue::reserve`]. Each reserved number may be
    /// used at most once.
    #[inline]
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, payload: E) {
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        let pos = self.keys.len();
        self.keys.push((at, seq));
        self.rest.push(Rest {
            slot: UNTRACKED,
            payload,
        });
        self.sift_up(pos);
    }

    /// Cancels a previously scheduled event **in place** (one O(log n)
    /// sift, no tombstones). Returns `true` if the event was still
    /// pending; `false` for unknown ids and events that already fired or
    /// were already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot() as usize;
        match self.slots.get(slot) {
            Some(s) if s.generation == id.generation() => {
                let pos = s.pos as usize;
                self.remove_at(pos);
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest live event as `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.keys.is_empty() {
            return None;
        }
        let (at, _) = self.keys.swap_remove(0);
        let removed = self.rest.swap_remove(0);
        if removed.slot != UNTRACKED {
            self.release_slot(removed.slot);
        }
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        Some((at, removed.payload))
    }

    /// The instant of the earliest live event without removing it.
    ///
    /// A true read-only peek: the heap root is always live (there are no
    /// tombstones to skip), so no `&mut self` compaction is needed.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&(at, _)| at)
    }

    /// The ordering key (instant, insertion sequence) of the earliest
    /// live event, without removing it.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.keys.first().copied()
    }

    /// Number of live pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no live events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Drops every pending event while keeping the allocated capacity of
    /// the heap, the slot arena, and the free list — so a queue can be
    /// reused across benchmark cases (or simulation runs) without
    /// reallocating. Outstanding [`EventId`]s are invalidated: cancelling
    /// one after `clear` returns `false`.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.rest.clear();
        self.free.clear();
        // Bump every generation so ids issued before the clear can never
        // alias an event scheduled after it.
        for (i, slot) in self.slots.iter_mut().enumerate().rev() {
            slot.generation = slot.generation.wrapping_add(1);
            self.free.push(i as u32);
        }
        self.next_seq = 0;
    }

    // ---- heap plumbing --------------------------------------------------

    /// Removes the entry at heap position `pos`, freeing its slot and
    /// restoring the heap property for the entry swapped into its place.
    fn remove_at(&mut self, pos: usize) {
        let _ = self.keys.swap_remove(pos);
        let removed = self.rest.swap_remove(pos);
        self.release_slot(removed.slot);
        if pos < self.keys.len() {
            // The swapped-in tail entry may violate order in either
            // direction relative to its new neighborhood (each sift
            // maintains the back-pointers of everything it touches).
            // Keys are unique, so an unchanged key at `pos` means
            // sift_up did not move the entry and a downward pass may
            // still be needed; if it moved, `pos` now holds a former
            // ancestor of that subtree, which already satisfies the
            // heap property below.
            let key = self.keys[pos];
            self.sift_up(pos);
            if self.keys[pos] == key {
                self.sift_down(pos);
            }
        }
    }

    /// Marks `slot` reusable and invalidates its outstanding id.
    #[inline]
    fn release_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
    }

    /// Swaps heap positions `a` and `b` in both parallel arrays and
    /// re-points the slot of the entry that lands in `a` (the displaced
    /// one). The entry landing in `b` is the one still sifting; its slot
    /// is written once when the sift settles.
    #[inline]
    fn displace(&mut self, a: usize, b: usize) {
        self.keys.swap(a, b);
        self.rest.swap(a, b);
        let slot = self.rest[a].slot;
        if slot != UNTRACKED {
            self.slots[slot as usize].pos = a as u32;
        }
    }

    /// Writes the settled heap position of the entry at `pos` into its
    /// slot, unless the entry is untracked.
    #[inline]
    fn settle(&mut self, pos: usize) {
        let slot = self.rest[pos].slot;
        if slot != UNTRACKED {
            self.slots[slot as usize].pos = pos as u32;
        }
    }

    /// Moves the entry at `pos` toward the root until its parent is no
    /// larger, updating slot back-pointers along the way.
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.keys[parent] <= self.keys[pos] {
                break;
            }
            // The displaced parent lands at `pos`; the sifting entry
            // continues from `parent`.
            self.displace(pos, parent);
            pos = parent;
        }
        self.settle(pos);
    }

    /// Moves the entry at `pos` toward the leaves until no child is
    /// smaller, updating slot back-pointers along the way.
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.keys.len();
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + ARITY).min(len);
            let mut best = first_child;
            let mut best_key = self.keys[first_child];
            for c in first_child + 1..last_child {
                let k = self.keys[c];
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if self.keys[pos] <= best_key {
                break;
            }
            // The displaced child lands at `pos`; the sifting entry
            // continues from `best`.
            self.displace(pos, best);
            pos = best;
        }
        self.settle(pos);
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.keys.len())
            .field("next_seq", &self.next_seq)
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let keep = q.schedule(SimTime::from_millis(1), "keep");
        let drop_ = q.schedule(SimTime::from_millis(2), "drop");
        assert!(q.cancel(drop_));
        assert!(!q.cancel(drop_), "double-cancel returns false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "keep");
        assert_eq!(q.pop(), None);
        let _ = keep;
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId::new(42, 0)));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1)));
        assert!(!q.cancel(id), "fired events are no longer pending");
    }

    #[test]
    fn recycled_slot_does_not_alias_old_id() {
        let mut q = EventQueue::new();
        let old = q.schedule(SimTime::from_millis(1), 1);
        q.pop();
        // The new event reuses the freed slot; the old id must not
        // cancel it.
        let _new = q.schedule(SimTime::from_millis(2), 2);
        assert!(!q.cancel(old));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
    }

    #[test]
    fn cancel_mid_heap_keeps_order() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..50)
            .map(|i| q.schedule(SimTime::from_millis(i * 3 % 17), i))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*id));
            }
        }
        let mut last = (SimTime::ZERO, 0);
        let mut n = 0;
        while let Some((t, e)) = q.pop() {
            let key = (t, e);
            assert!(
                key > last || n == 0,
                "order violated: {key:?} after {last:?}"
            );
            assert!(e % 3 != 0, "cancelled event {e} delivered");
            last = key;
            n += 1;
        }
        assert_eq!(n, ids.len() - ids.len().div_ceil(3));
    }

    #[test]
    fn peek_time_is_a_read_only_view() {
        let mut q = EventQueue::new();
        let head = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        q.cancel(head);
        // Cancellation is in-place, so an immutable borrow suffices.
        let q_ref = &q;
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_and_invalidates_old_ids() {
        let mut q = EventQueue::new();
        let stale = q.schedule(SimTime::from_millis(9), 9);
        q.schedule(SimTime::from_millis(8), 8);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // Old handles are dead; new scheduling starts a fresh FIFO epoch.
        assert!(!q.cancel(stale));
        let t = SimTime::from_millis(1);
        q.schedule(t, 100);
        q.schedule(t, 200);
        assert_eq!(q.pop(), Some((t, 100)));
        assert_eq!(q.pop(), Some((t, 200)));
    }
}
