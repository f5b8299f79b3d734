//! A dense set of node ids, sized to a fixed cluster.
//!
//! The engine keeps several sweep sets of node ids (nodes hosting work,
//! nodes awaiting recapture, nodes with undrained completions, nodes
//! flagged blocked) and walks them on every load-exchange and sampling
//! tick. Node ids are dense (`0..nodes`) and the cluster size is fixed for
//! a run, so a bitset of one bit per node answers insert, remove and
//! contains in O(1) without allocating, and iterates in ascending id order
//! — the same order an ordered set would yield, which is what keeps
//! results that depend on visit order byte-identical.

/// A set of node ids `0..capacity` stored as one bit per node.
///
/// Iteration (and [`NodeSet::union`]) yields ids in ascending order.
/// Inserting an id at or beyond the capacity given to
/// [`NodeSet::with_capacity`] panics.
///
/// ```
/// use vr_cluster::NodeSet;
///
/// let mut a = NodeSet::with_capacity(130);
/// a.insert(129);
/// a.insert(3);
/// assert!(a.contains(3) && !a.contains(4));
/// assert_eq!(a.iter().collect::<Vec<_>>(), [3, 129]);
///
/// let mut b = NodeSet::with_capacity(130);
/// b.insert(64);
/// b.insert(3);
/// assert_eq!(a.union(&b).collect::<Vec<_>>(), [3, 64, 129]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// An empty set able to hold ids `0..nodes`.
    pub fn with_capacity(nodes: usize) -> Self {
        NodeSet {
            words: vec![0; nodes.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set holds no id.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `id` is in the set. Ids beyond the capacity are never in it.
    pub fn contains(&self, id: u32) -> bool {
        let (word, bit) = Self::split(id);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Adds `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: u32) -> bool {
        let (word, bit) = Self::split(id);
        let w = &mut self.words[word];
        // `len` is updated on a branch here and in `remove`: the
        // branch-free `len += usize::from(fresh)` was miscompiled by rustc
        // 1.95.0 in optimised builds (after a fresh insert into a new set,
        // `len` read back 0). The unit tests below catch it under
        // `cargo test --release`.
        if *w & bit != 0 {
            return false;
        }
        *w |= bit;
        self.len += 1;
        true
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let (word, bit) = Self::split(id);
        match self.words.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes every id. Writes no memory when the set is already empty.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(&self.words, &[])
    }

    /// The ids in `self` or `other`, each once, in ascending order.
    pub fn union<'a>(&'a self, other: &'a NodeSet) -> Iter<'a> {
        Iter::new(&self.words, &other.words)
    }

    fn split(id: u32) -> (usize, u64) {
        ((id / 64) as usize, 1u64 << (id % 64))
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = u32;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over the ids of one [`NodeSet`] or of the union of
/// two, produced by [`NodeSet::iter`] and [`NodeSet::union`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    a: &'a [u64],
    b: &'a [u64],
    /// Index of the word `bits` came from.
    word: usize,
    /// Not-yet-yielded bits of the current word.
    bits: u64,
}

impl<'a> Iter<'a> {
    fn new(a: &'a [u64], b: &'a [u64]) -> Self {
        let mut iter = Iter {
            a,
            b,
            word: 0,
            bits: 0,
        };
        iter.bits = iter.load(0);
        iter
    }

    /// Word `i` of the union; words past either operand's end are empty.
    fn load(&self, i: usize) -> u64 {
        self.a.get(i).copied().unwrap_or(0) | self.b.get(i).copied().unwrap_or(0)
    }
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.a.len().max(self.b.len()) {
                return None;
            }
            self.bits = self.load(self.word);
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(self.word as u32 * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_yields_nothing() {
        let s = NodeSet::with_capacity(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().next(), None);
        assert!(!s.contains(0));
        assert_eq!(NodeSet::default().union(&s).next(), None);
    }

    #[test]
    fn insert_and_remove_report_membership_changes() {
        let mut s = NodeSet::with_capacity(65);
        assert!(s.insert(64));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 1);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.remove(1000), "ids past the capacity are absent");
        assert!(s.is_empty());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = NodeSet::with_capacity(200);
        for id in [0, 63, 64, 199] {
            s.insert(id);
        }
        s.clear();
        assert!(s.is_empty() && s.iter().next().is_none());
        s.insert(199);
        assert_eq!(s.iter().collect::<Vec<_>>(), [199]);
    }

    #[test]
    #[should_panic]
    fn insert_beyond_capacity_panics() {
        NodeSet::with_capacity(64).insert(64);
    }
}
