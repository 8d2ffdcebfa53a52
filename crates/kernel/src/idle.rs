//! Incrementally maintained set of idle cores.
//!
//! The kernel event loop consults "which cores are idle?" after *every*
//! event; scanning all cores each time made the hot path O(cores) per
//! event. [`IdleSet`] is a bitset updated on every core state transition
//! (dispatch, preempt, finish, interference), so membership updates are
//! O(1) and iteration is O(idle cores) in ascending id order.
//!
//! The first 64 cores live in an inline word — machines up to 64 cores
//! (the paper's is 50) never touch the heap on the hot path; larger
//! machines spill into a vector of overflow words.

use crate::core::CoreId;

/// A bitset over core indices tracking which cores are currently idle.
#[derive(Debug, Clone)]
pub(crate) struct IdleSet {
    /// Cores 0..64.
    word0: u64,
    /// Cores 64.., one word per 64 (empty for small machines).
    rest: Vec<u64>,
    count: usize,
}

impl IdleSet {
    /// Creates a set over `cores` cores, all initially idle.
    pub(crate) fn all_idle(cores: usize) -> Self {
        let words = cores.div_ceil(64).max(1);
        let mut set = IdleSet {
            word0: 0,
            rest: vec![0; words - 1],
            count: cores,
        };
        for w in 0..words {
            let used = (cores - w * 64).min(64);
            let full = if used == 64 {
                u64::MAX
            } else {
                (1u64 << used) - 1
            };
            *set.word_mut(w) = full;
        }
        set
    }

    /// Number of words (one per 64 cores, at least one).
    pub(crate) fn words(&self) -> usize {
        self.rest.len() + 1
    }

    /// Word `w`: bit `b` is set iff core `64 * w + b` is idle.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.word0
        } else {
            self.rest[w - 1]
        }
    }

    #[inline]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w == 0 {
            &mut self.word0
        } else {
            &mut self.rest[w - 1]
        }
    }

    /// Number of idle cores.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Whether `core` is in the set.
    #[inline]
    pub(crate) fn contains(&self, core: CoreId) -> bool {
        let i = core.index();
        self.word(i / 64) & (1u64 << (i % 64)) != 0
    }

    /// Marks `core` idle. The caller guarantees it was not idle before
    /// (core state transitions are exact; checked in debug builds).
    #[inline]
    pub(crate) fn insert(&mut self, core: CoreId) {
        let i = core.index();
        debug_assert!(!self.contains(core), "core {core} already idle");
        *self.word_mut(i / 64) |= 1u64 << (i % 64);
        self.count += 1;
    }

    /// Marks `core` busy. The caller guarantees it was idle before
    /// (checked in debug builds).
    #[inline]
    pub(crate) fn remove(&mut self, core: CoreId) {
        let i = core.index();
        debug_assert!(self.contains(core), "core {core} already busy");
        *self.word_mut(i / 64) &= !(1u64 << (i % 64));
        self.count -= 1;
    }

    /// Iterates the idle cores in ascending id order without allocating.
    #[inline]
    pub(crate) fn iter(&self) -> IdleIter<'_> {
        IdleIter {
            rest: &self.rest,
            word_idx: 0,
            current: self.word0,
        }
    }
}

/// Ascending-order iterator over the idle cores (one bit-scan per step).
#[derive(Debug)]
pub(crate) struct IdleIter<'a> {
    rest: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IdleIter<'_> {
    type Item = CoreId;

    #[inline]
    fn next(&mut self) -> Option<CoreId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(CoreId::from_index(self.word_idx * 64 + bit));
            }
            if self.word_idx >= self.rest.len() {
                return None;
            }
            self.current = self.rest[self.word_idx];
            self.word_idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(set: &IdleSet) -> Vec<usize> {
        set.iter().map(|c| c.index()).collect()
    }

    #[test]
    fn starts_all_idle() {
        let set = IdleSet::all_idle(5);
        assert_eq!(set.len(), 5);
        assert_eq!(ids(&set), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut set = IdleSet::all_idle(3);
        set.remove(CoreId::from_index(1));
        assert_eq!(set.len(), 2);
        assert_eq!(ids(&set), vec![0, 2]);
        assert!(!set.contains(CoreId::from_index(1)));
        set.insert(CoreId::from_index(1));
        assert_eq!(ids(&set), vec![0, 1, 2]);
    }

    #[test]
    fn spans_word_boundaries() {
        let mut set = IdleSet::all_idle(130);
        assert_eq!(set.len(), 130);
        for i in 0..130 {
            if i % 3 != 0 {
                set.remove(CoreId::from_index(i));
            }
        }
        let expect: Vec<usize> = (0..130).filter(|i| i % 3 == 0).collect();
        assert_eq!(ids(&set), expect);
        assert_eq!(set.len(), expect.len());
    }

    #[test]
    fn exact_multiple_of_word_size() {
        let set = IdleSet::all_idle(128);
        assert_eq!(set.len(), 128);
        assert_eq!(set.iter().count(), 128);
        assert!(set.contains(CoreId::from_index(127)));
        assert!(set.contains(CoreId::from_index(64)));
        assert!(set.contains(CoreId::from_index(63)));
    }
}
