//! Per-bank observer state keyed by `(channel, bank)`.
//!
//! The observer keeps a little state per bank (or per rank) and looks it
//! up on every issued command. A memory system has tens of banks, so a
//! binary search over a key-sorted vector is cheaper than hashing the
//! key, iterates in key order (which checkpoints need), and allocates only
//! when a key is first seen.

/// A map from `(channel, bank)` to `T`, stored sorted by key.
#[derive(Debug, Clone)]
pub(crate) struct BankMap<T> {
    entries: Vec<((u32, u32), T)>,
}

impl<T> Default for BankMap<T> {
    fn default() -> Self {
        BankMap {
            entries: Vec::new(),
        }
    }
}

impl<T> BankMap<T> {
    fn find(&self, key: (u32, u32)) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// The value under `key`, if any.
    pub(crate) fn get(&self, key: (u32, u32)) -> Option<&T> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `key`, inserting `make()` first if it is absent.
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: (u32, u32),
        make: impl FnOnce() -> T,
    ) -> &mut T {
        let i = match self.find(key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Stores `value` under `key`, replacing any previous value.
    pub(crate) fn insert(&mut self, key: (u32, u32), value: T) {
        match self.find(key) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (key, value)),
        }
    }

    /// Entries in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((u32, u32), &T)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Values in key order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable values in key order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_key_order_and_replaces_on_insert() {
        let mut m = BankMap::default();
        m.insert((1, 0), 'a');
        m.insert((0, 3), 'b');
        *m.get_or_insert_with((0, 1), || 'c') = 'd';
        m.insert((1, 0), 'e');
        assert_eq!(*m.get_or_insert_with((0, 3), || 'z'), 'b');
        let keys: Vec<_> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(keys, [((0, 1), 'd'), ((0, 3), 'b'), ((1, 0), 'e')]);
        assert_eq!(m.get((0, 2)), None);
        assert_eq!(m.len(), 3);
    }
}
