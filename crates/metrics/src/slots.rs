//! Per-request engine state keyed by sequential ids, freed when each
//! request resolves.
//!
//! Both engines mint request ids as `0, 1, 2, …` and look state up by
//! id on every stage. Without the request log, [`RequestSlots`] holds
//! unresolved requests only, in a map keyed by id: retiring a request
//! frees its state, so a serving engine's memory scales with the
//! requests in flight, not with the requests it has served. A map
//! rather than a window over the id range, because a priority queue
//! may hold an old request for as long as the load stays high (PARD's
//! highest-budget-first order serves the newest first), and a window
//! would then hold a slot for every request submitted since.
//!
//! Callers that want the full per-request history (trace runs, figure
//! binaries, the benchmark's per-layer breakdown) keep the log: every
//! record then stays in a plain vector, indexed by id, until
//! [`RequestSlots::take_all`], and retirement is a no-op.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Sequential-id table of per-request state (see the module docs).
#[derive(Debug)]
pub struct RequestSlots<T> {
    /// The id the next insert returns.
    next: u64,
    store: Store<T>,
}

#[derive(Debug)]
enum Store<T> {
    /// Every record, `records[i]` holding id `first + i`.
    Log { first: u64, records: Vec<T> },
    /// Unretired records only.
    Live(HashMap<u64, T, BuildHasherDefault<IdHasher>>),
}

/// Hashes sequential ids with one multiply: the low bits (the bucket)
/// stay a permutation of the id's low bits, the high bits mix.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl<T> RequestSlots<T> {
    /// An empty table; `keep` retains every record for the request log.
    pub fn new(keep: bool) -> RequestSlots<T> {
        let store = if keep {
            Store::Log {
                first: 0,
                records: Vec::new(),
            }
        } else {
            Store::Live(HashMap::default())
        };
        RequestSlots { next: 0, store }
    }

    /// Whether retired records are kept for the request log.
    pub fn keeps_log(&self) -> bool {
        matches!(self.store, Store::Log { .. })
    }

    /// Switches the log mode of a table that has not minted an id yet.
    ///
    /// # Panics
    ///
    /// Panics once an id was inserted, so that no record changes mode.
    pub fn set_keep_log(&mut self, keep: bool) {
        assert_eq!(self.next, 0, "set the log mode before the first request");
        *self = RequestSlots::new(keep);
    }

    /// The id the next [`RequestSlots::insert`] returns.
    pub fn next_id(&self) -> u64 {
        self.next
    }

    /// Stores `value` under the next id and returns that id.
    pub fn insert(&mut self, value: T) -> u64 {
        let id = self.next;
        self.next += 1;
        match &mut self.store {
            Store::Log { records, .. } => records.push(value),
            Store::Live(live) => {
                live.insert(id, value);
            }
        }
        id
    }

    /// The state of request `id`; `None` once it is retired (or if it
    /// was never inserted).
    pub fn get(&self, id: u64) -> Option<&T> {
        match &self.store {
            Store::Log { first, records } => {
                records.get(usize::try_from(id.checked_sub(*first)?).ok()?)
            }
            Store::Live(live) => live.get(&id),
        }
    }

    /// Exclusive access to the state of request `id`, as
    /// [`RequestSlots::get`].
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        match &mut self.store {
            Store::Log { first, records } => {
                records.get_mut(usize::try_from(id.checked_sub(*first)?).ok()?)
            }
            Store::Live(live) => live.get_mut(&id),
        }
    }

    /// Frees the state of request `id`, which has resolved. A no-op
    /// when the table keeps its log, or for an id already retired.
    pub fn retire(&mut self, id: u64) {
        if let Store::Live(live) = &mut self.store {
            live.remove(&id);
        }
    }

    /// Records held, in no particular order: every record inserted
    /// when the log is kept, the unretired ones otherwise.
    pub fn iter(&self) -> Box<dyn Iterator<Item = &T> + '_> {
        match &self.store {
            Store::Log { records, .. } => Box::new(records.iter()),
            Store::Live(live) => Box::new(live.values()),
        }
    }

    /// Removes every record still held, in id order and paired with its
    /// id. Later inserts continue the id sequence, so an id is never
    /// reused.
    pub fn take_all(&mut self) -> Vec<(u64, T)> {
        match &mut self.store {
            Store::Log { first, records } => {
                let start = std::mem::replace(first, self.next);
                (start..).zip(std::mem::take(records)).collect()
            }
            Store::Live(live) => {
                let mut all: Vec<(u64, T)> = live.drain().collect();
                all.sort_unstable_by_key(|&(id, _)| id);
                all
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_ids_return_none_and_ids_stay_sequential() {
        let mut slots = RequestSlots::new(false);
        let ids: Vec<u64> = (0..4).map(|i| slots.insert(i * 10)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        slots.retire(1);
        assert_eq!(slots.get(1), None);
        assert_eq!(slots.get_mut(1), None);
        assert_eq!(slots.get(0), Some(&0));
        assert_eq!(slots.get(2), Some(&20));
        slots.retire(0);
        assert_eq!(slots.iter().count(), 2);
        // Retiring twice, or an id never minted, is harmless.
        slots.retire(0);
        slots.retire(99);
        assert_eq!(slots.insert(40), 4, "ids continue after retirements");
        assert_eq!(slots.get(4), Some(&40));
        assert_eq!(slots.get(5), None);
        assert_eq!(slots.take_all(), vec![(2, 20), (3, 30), (4, 40)]);
        assert_eq!(slots.insert(50), 5, "ids are not reused after take_all");
    }

    #[test]
    fn a_held_request_does_not_pin_later_ones() {
        let mut slots = RequestSlots::new(false);
        let held = slots.insert(u64::MAX);
        for i in 0..10_000u64 {
            let id = slots.insert(i);
            slots.retire(id);
        }
        assert_eq!(slots.iter().count(), 1);
        assert_eq!(slots.get(held), Some(&u64::MAX));
    }

    #[test]
    fn a_kept_log_survives_retirement_and_drains_in_id_order() {
        let mut slots = RequestSlots::new(true);
        for i in 0..3u64 {
            slots.insert(i);
        }
        slots.retire(1);
        assert_eq!(slots.get(1), Some(&1));
        assert_eq!(slots.take_all(), vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(slots.get(0), None);
        assert_eq!(slots.insert(7), 3, "ids are not reused after take_all");
        assert_eq!(slots.get(3), Some(&7));
    }
}
