//! Counting sort by a vertex id: the one grouping pass set-up uses in
//! place of a comparison sort of the whole list or a hash map.
//!
//! Every key set-up groups by is a vertex id (an edge's low end, a face's
//! smallest vertex, a boundary vertex), so the keys are dense in
//! `0..nvertices` and one count, one prefix sum and one scatter group
//! them in linear time. The groups are small (a few dozen entries on a
//! tetrahedral mesh), so whatever ordering is still needed inside one is
//! a sort of a handful of items that are already in cache.

/// Items grouped by a key in `0..nkeys`, each group in the order the
/// items arrived.
pub(crate) struct Buckets<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> Buckets<T> {
    /// Groups `items` (key, item) by key. The iterator is walked twice —
    /// once to count, once to scatter — so it must yield the same items
    /// both times. Panics if a key is not below `nkeys`.
    pub(crate) fn new<I>(nkeys: usize, items: I) -> Buckets<T>
    where
        I: Iterator<Item = (u32, T)> + Clone,
    {
        // `for_each` rather than `for`: a flattened iterator folds in a
        // tight loop, where `next` would step its state machine per item.
        let mut start = vec![0usize; nkeys + 1];
        items.clone().for_each(|(k, _)| start[k as usize + 1] += 1);
        for k in 0..nkeys {
            start[k + 1] += start[k];
        }
        let mut cursor = start.clone();
        let mut grouped = vec![T::default(); start[nkeys]];
        items.for_each(|(k, item)| {
            let slot = &mut cursor[k as usize];
            grouped[*slot] = item;
            *slot += 1;
        });
        Buckets { start, items: grouped }
    }

    /// Number of keys.
    pub(crate) fn nkeys(&self) -> usize {
        self.start.len() - 1
    }

    /// Total number of items.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The items of key `k`, in arrival order.
    pub(crate) fn get(&self, k: usize) -> &[T] {
        &self.items[self.start[k]..self.start[k + 1]]
    }

    /// The items of key `k`, to sort in place.
    pub(crate) fn get_mut(&mut self, k: usize) -> &mut [T] {
        &mut self.items[self.start[k]..self.start[k + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_by_key_and_keeps_arrival_order() {
        let items = [(2u32, 'a'), (0, 'b'), (2, 'c'), (1, 'd'), (0, 'e')];
        let b = Buckets::new(4, items.iter().copied());
        assert_eq!((b.nkeys(), b.len()), (4, 5));
        assert_eq!(b.get(0), &['b', 'e']);
        assert_eq!(b.get(1), &['d']);
        assert_eq!(b.get(2), &['a', 'c']);
        assert!(b.get(3).is_empty());
    }

    #[test]
    fn no_keys_no_items() {
        let b: Buckets<u32> = Buckets::new(0, std::iter::empty());
        assert_eq!((b.nkeys(), b.len()), (0, 0));
    }
}
