//! Values parked under reusable integer keys.

/// A slab: values parked under small integer keys that are handed out
/// again once freed, so a steady state of inserts and removes allocates
/// nothing.
///
/// In-flight operation state lives in slabs: the event closures that drive
/// an operation capture its key (one word) instead of the state itself,
/// which keeps them inside [`crate::Kernel`]'s inline closure storage. Keys
/// are deterministic: a freed key is reused last-in first-out, otherwise
/// the next new slot is taken.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Park `value`, returning its key.
    pub fn insert(&mut self, value: T) -> usize {
        if let Some(key) = self.free.pop() {
            debug_assert!(self.slots[key].is_none(), "free slab key is occupied");
            self.slots[key] = Some(value);
            key
        } else {
            self.slots.push(Some(value));
            self.slots.len() - 1
        }
    }

    /// Take the value under `key` out, freeing the key. Panics if the key
    /// is vacant.
    pub fn remove(&mut self, key: usize) -> T {
        let value = self.slots[key].take().expect("slab key is vacant");
        self.free.push(key);
        value
    }

    /// The value under `key`, if occupied.
    pub fn get(&self, key: usize) -> Option<&T> {
        self.slots.get(key)?.as_ref()
    }

    /// The value under `key`, if occupied.
    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        self.slots.get_mut(key)?.as_mut()
    }

    /// Number of occupied keys.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no key is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys ever handed out: the slab's high-water mark.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_keys_are_reused_last_in_first_out() {
        let mut s = Slab::new();
        let a = s.insert('a');
        let b = s.insert('b');
        let c = s.insert('c');
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(s.remove(a), 'a');
        assert_eq!(s.remove(c), 'c');
        assert_eq!(s.get(a), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.insert('d'), c);
        assert_eq!(s.insert('e'), a);
        assert_eq!(s.insert('f'), 3);
        assert_eq!(s.get(b), Some(&'b'));
        *s.get_mut(b).unwrap() = 'B';
        assert_eq!(s.remove(b), 'B');
        assert_eq!((s.len(), s.slots()), (3, 4));
    }
}
