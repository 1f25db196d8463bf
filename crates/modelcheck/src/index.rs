//! The in-memory fingerprint index of the exploration store.
//!
//! [`FpIndex`] maps the fingerprint of a node's id row (see
//! [`hash_id_words`](subconsensus_sim::hash_id_words)) to the node's id:
//! one flat array of `(fp, id)` slots, probed linearly from the slot the
//! fingerprint's low bits pick and kept at most half full. It is a
//! multimap: ids filed under one fingerprint (a collision, or a test that
//! files every node under one) each take their own slot along the probe
//! run, and a lookup yields all of them. Nothing is removed except by
//! [`FpIndex::drain_sorted`], which empties the whole table, so a probe
//! run never has holes and a lookup stops at the first free slot.
//!
//! Compared with a `HashMap<u64, Vec<usize>>` it makes no heap allocation
//! per node, and [`FpIndex::clear`] keeps the slots for the next
//! exploration of a session.

use std::mem::size_of;

/// The id of a free slot. Node ids stay below it: the explorer caps a
/// graph at `u32::MAX` nodes.
const FREE: u32 = u32::MAX;

/// The slot count of the first allocation.
const MIN_SLOTS: usize = 16;

/// An open-addressing multimap from row fingerprints to node ids — see
/// the module docs.
#[derive(Debug, Default)]
pub(crate) struct FpIndex {
    /// `(fp, id)` per slot, `id == FREE` when the slot is free; empty or a
    /// power of two long.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl FpIndex {
    /// The number of ids filed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes of the slot array (allocated, not just filed).
    pub(crate) fn bytes(&self) -> usize {
        self.slots.capacity() * size_of::<(u64, u32)>()
    }

    /// Removes every id and keeps the slot array.
    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill((0, FREE));
            self.len = 0;
        }
    }

    /// The slot a probe for `fp` starts at (`slots` is nonempty).
    fn home(&self, fp: u64) -> usize {
        fp as usize & (self.slots.len() - 1)
    }

    /// Files node `id` under `fp`.
    pub(crate) fn insert(&mut self, fp: u64, id: usize) {
        let id = u32::try_from(id)
            .ok()
            .filter(|&id| id != FREE)
            .expect("node ids fit below u32::MAX");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        self.place(fp, id);
        self.len += 1;
    }

    /// Puts `(fp, id)` into the first free slot of `fp`'s probe run.
    fn place(&mut self, fp: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(fp);
        while self.slots[at].1 != FREE {
            at = (at + 1) & mask;
        }
        self.slots[at] = (fp, id);
    }

    /// Doubles the slot array (or makes the first) and re-files every id.
    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(0, FREE); slots]);
        for (fp, id) in old {
            if id != FREE {
                self.place(fp, id);
            }
        }
    }

    /// Every id filed under `fp`, in probe order.
    pub(crate) fn ids(&self, fp: u64) -> impl Iterator<Item = usize> + '_ {
        let mask = self.slots.len().wrapping_sub(1);
        let start = if self.slots.is_empty() {
            0
        } else {
            self.home(fp)
        };
        let run = (0..self.slots.len())
            .map(move |k| self.slots[(start + k) & mask])
            .take_while(|&(_, id)| id != FREE);
        run.filter(move |&(f, _)| f == fp)
            .map(|(_, id)| id as usize)
    }

    /// Empties the table, freeing its slot array, and returns every
    /// `(fp, id)` it held, sorted — the spilled index's merge input.
    pub(crate) fn drain_sorted(&mut self) -> Vec<(u64, u64)> {
        self.len = 0;
        let mut entries: Vec<(u64, u64)> = std::mem::take(&mut self.slots)
            .into_iter()
            .filter(|&(_, id)| id != FREE)
            .map(|(fp, id)| (fp, u64::from(id)))
            .collect();
        entries.sort_unstable();
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn sorted_ids(index: &FpIndex, fp: u64) -> Vec<usize> {
        let mut ids: Vec<usize> = index.ids(fp).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn an_empty_index_finds_nothing() {
        let mut index = FpIndex::default();
        assert_eq!(index.ids(7).count(), 0);
        assert_eq!(index.bytes(), 0);
        index.clear();
        assert!(index.drain_sorted().is_empty());
        assert_eq!(index.len(), 0);
    }

    #[test]
    fn many_ids_under_one_fingerprint_are_all_found() {
        let mut index = FpIndex::default();
        for id in 0..100 {
            index.insert(42, id);
        }
        index.insert(43, 100);
        // 42 and 43 share a probe run; neither lookup sees the other's ids.
        assert_eq!(sorted_ids(&index, 42), (0..100).collect::<Vec<_>>());
        assert_eq!(sorted_ids(&index, 43), vec![100]);
        assert_eq!(index.ids(44).count(), 0);
        assert_eq!(index.len(), 101);
    }

    #[test]
    fn growth_across_doublings_keeps_every_id() {
        let mut index = FpIndex::default();
        let mut reference: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut bytes = Vec::new();
        // Fingerprints whose low bits collide in every table size, plus
        // spread ones, over several doublings.
        for id in 0..5000usize {
            let fp = if id % 3 == 0 {
                (id as u64 % 7) << 40
            } else {
                subconsensus_sim::hash_id_words(&[id as u32])
            };
            index.insert(fp, id);
            reference.entry(fp).or_default().push(id);
            if bytes.last() != Some(&index.bytes()) {
                bytes.push(index.bytes());
            }
        }
        assert!(bytes.len() >= 6, "grew {} times", bytes.len());
        assert!(index.bytes() <= 4 * 5000 * size_of::<(u64, u32)>());
        for (fp, ids) in &reference {
            assert_eq!(&sorted_ids(&index, *fp), ids, "fp {fp}");
        }
    }

    #[test]
    fn clear_keeps_the_slots_and_forgets_the_ids() {
        let mut index = FpIndex::default();
        for id in 0..40 {
            index.insert(id as u64, id);
        }
        let bytes = index.bytes();
        index.clear();
        assert_eq!((index.len(), index.bytes()), (0, bytes));
        assert_eq!(index.ids(3).count(), 0);
        index.insert(3, 9);
        assert_eq!(sorted_ids(&index, 3), vec![9]);
    }

    #[test]
    fn a_drain_returns_every_entry_sorted_and_leaves_the_index_reusable() {
        let mut index = FpIndex::default();
        let mut want = Vec::new();
        for id in 0..300usize {
            let fp = (id as u64 * 0x9e37_79b9) % 50;
            index.insert(fp, id);
            want.push((fp, id as u64));
        }
        want.sort_unstable();
        assert_eq!(index.drain_sorted(), want);
        assert_eq!((index.len(), index.bytes()), (0, 0));
        assert_eq!(index.ids(0).count(), 0);
        index.insert(5, 1);
        index.insert(5, 2);
        assert_eq!(sorted_ids(&index, 5), vec![1, 2]);
        assert_eq!(index.drain_sorted(), vec![(5, 1), (5, 2)]);
    }
}
