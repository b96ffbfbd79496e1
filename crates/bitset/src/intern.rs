//! Interning of informed sets into dense, collision-free state ids.
//!
//! The OPT / G-OPT searches memoize on the informed set `W`. A 64-bit
//! [`NodeSet::fingerprint`] makes a compact key but can silently collide,
//! corrupting exact memo entries with values that belong to a different
//! state. [`SetInterner`] removes the hazard: every distinct set is stored
//! once in a flat word arena and canonicalized to a dense [`StateId`], so
//! equal ids imply equal sets *by construction*. The fingerprint is demoted
//! to what it is good at — a bucket hash — and full word comparison settles
//! ties, so even adversarial collisions cannot merge two states.
//!
//! Dense ids double as a storage win: memo keys shrink from `(u64, u64)`
//! fingerprint pairs to `(u32, phase)`, and the arena stores each set's
//! words exactly once with no per-entry `Vec` header. Sets that share a
//! fingerprint are linked through a side array of ids, so a bucket is one
//! `u32` too, not a heap vector.

use crate::NodeSet;
use std::collections::HashMap;

/// Dense identifier of an interned set. Ids are handed out consecutively
/// from 0, so they also index side tables naturally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An arena that canonicalizes [`NodeSet`]s over one fixed universe to
/// dense [`StateId`]s.
///
/// # Examples
///
/// ```
/// use wsn_bitset::{NodeSet, SetInterner};
///
/// let mut interner = SetInterner::new(100);
/// let a = NodeSet::from_indices(100, [1, 2, 3]);
/// let b = NodeSet::from_indices(100, [1, 2, 4]);
/// let ia = interner.intern(&a);
/// assert_eq!(interner.intern(&a), ia, "idempotent");
/// assert_ne!(interner.intern(&b), ia, "distinct sets, distinct ids");
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SetInterner {
    universe: usize,
    /// Words per interned set (`⌈universe / 64⌉`).
    stride: usize,
    /// Flat storage: set `i` occupies `arena[i*stride .. (i+1)*stride]`.
    arena: Vec<u64>,
    /// Fingerprint → the newest id with that fingerprint.
    heads: HashMap<u64, u32>,
    /// `chain[id]` = the next older id with the fingerprint of `id`, or
    /// [`NO_ID`]. Collisions are walked along the chain and separated by
    /// full word comparison against the arena.
    chain: Vec<u32>,
}

/// End of a fingerprint chain.
const NO_ID: u32 = u32::MAX;

impl SetInterner {
    /// Creates an empty interner for sets over `universe` elements.
    pub fn new(universe: usize) -> Self {
        SetInterner {
            universe,
            stride: universe.div_ceil(64),
            arena: Vec::new(),
            heads: HashMap::new(),
            chain: Vec::new(),
        }
    }

    /// The universe every interned set must share.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of distinct sets interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// `true` when nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    /// The word storage of an interned set.
    #[inline]
    pub fn words(&self, id: StateId) -> &[u64] {
        &self.arena[id.idx() * self.stride..(id.idx() + 1) * self.stride]
    }

    /// Canonicalizes `set`, returning its dense id. Two calls return the
    /// same id **iff** the sets are equal word-for-word — fingerprint
    /// collisions are resolved, never merged.
    ///
    /// # Panics
    ///
    /// Panics if `set` is over a different universe.
    pub fn intern(&mut self, set: &NodeSet) -> StateId {
        assert_eq!(
            set.universe(),
            self.universe,
            "interned set universe mismatch"
        );
        let words = set.words();
        let head = self.heads.entry(set.fingerprint()).or_insert(NO_ID);
        let mut id = *head;
        while id != NO_ID {
            let at = id as usize * self.stride;
            if &self.arena[at..at + self.stride] == words {
                return StateId(id);
            }
            id = self.chain[id as usize];
        }
        assert!(
            self.chain.len() < NO_ID as usize,
            "more than u32::MAX - 1 states"
        );
        let id = self.chain.len() as u32;
        self.arena.extend_from_slice(words);
        self.chain.push(*head);
        *head = id;
        StateId(id)
    }

    /// Drops every interned set, keeping the allocations for reuse (and
    /// optionally re-sizing to a new universe).
    pub fn reset(&mut self, universe: usize) {
        self.universe = universe;
        self.stride = universe.div_ceil(64);
        self.arena.clear();
        self.heads.clear();
        self.chain.clear();
    }
}

/// An arena that canonicalizes arbitrary word sequences, tagged with a
/// caller-chosen `namespace`, to dense collision-free `u32` ids.
///
/// This is the [`SetInterner`] idea generalized for the phase-folding
/// tables of the duty-cycle search: wake-pattern signatures are not
/// fixed-universe [`NodeSet`]s (their width depends on the fold horizon
/// and the relevant set), and signatures of different fold levels must not
/// unify, so every sequence carries a namespace that is part of its
/// identity. Equal ids imply equal `(namespace, words)` pairs *by
/// construction* — the hash only picks the bucket, full comparison
/// settles it.
///
/// # Examples
///
/// ```
/// use wsn_bitset::WordSeqInterner;
///
/// let mut it = WordSeqInterner::new();
/// let a = it.intern(1, &[0xfeed, 0xbeef]);
/// assert_eq!(it.intern(1, &[0xfeed, 0xbeef]), a, "idempotent");
/// assert_ne!(it.intern(2, &[0xfeed, 0xbeef]), a, "namespaces separate");
/// assert_eq!(it.get(1, &[0xfeed, 0xbeef]), Some(a));
/// assert_eq!(it.get(1, &[0xfeed]), None, "lookups never insert");
/// ```
#[derive(Clone, Debug, Default)]
pub struct WordSeqInterner {
    /// Flat storage: sequence `i` occupies `arena[spans[i].0 ..][..spans[i].1]`.
    arena: Vec<u64>,
    /// `(start, len)` of each interned sequence.
    spans: Vec<(u32, u32)>,
    /// Namespace tag of each interned sequence.
    namespaces: Vec<u64>,
    /// Hash → candidate ids; ties broken by full comparison.
    buckets: HashMap<u64, Vec<u32>>,
}

impl WordSeqInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct `(namespace, words)` sequences interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The word storage of an interned sequence.
    #[inline]
    pub fn words(&self, id: u32) -> &[u64] {
        let (start, len) = self.spans[id as usize];
        &self.arena[start as usize..start as usize + len as usize]
    }

    /// FNV-1a-style fold over namespace + words with a SplitMix64
    /// finalizer — bucket selection only, never identity.
    fn hash(namespace: u64, words: &[u64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ namespace.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &w in words {
            h ^= w;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= words.len() as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^ (h >> 31)
    }

    #[inline]
    fn matches(&self, id: u32, namespace: u64, words: &[u64]) -> bool {
        self.namespaces[id as usize] == namespace && self.words(id) == words
    }

    /// The id of `(namespace, words)` if it was interned before. Never
    /// inserts — memo lookups probe with this so that misses cost nothing.
    pub fn get(&self, namespace: u64, words: &[u64]) -> Option<u32> {
        let bucket = self.buckets.get(&Self::hash(namespace, words))?;
        bucket
            .iter()
            .copied()
            .find(|&id| self.matches(id, namespace, words))
    }

    /// Canonicalizes `(namespace, words)`, returning its dense id.
    pub fn intern(&mut self, namespace: u64, words: &[u64]) -> u32 {
        let h = Self::hash(namespace, words);
        if let Some(bucket) = self.buckets.get(&h) {
            for &id in bucket {
                if self.matches(id, namespace, words) {
                    return id;
                }
            }
        }
        let id = u32::try_from(self.spans.len()).expect("more than u32::MAX sequences");
        let start = u32::try_from(self.arena.len()).expect("interner arena overflow");
        self.arena.extend_from_slice(words);
        self.spans.push((start, words.len() as u32));
        self.namespaces.push(namespace);
        self.buckets.entry(h).or_default().push(id);
        id
    }

    /// Drops every sequence, keeping allocations for reuse.
    pub fn reset(&mut self) {
        self.arena.clear();
        self.spans.clear();
        self.namespaces.clear();
        self.buckets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut it = SetInterner::new(130);
        let ids: Vec<StateId> = (0..10)
            .map(|i| it.intern(&NodeSet::from_indices(130, [i, i + 64])))
            .collect();
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(id.idx(), k, "ids are dense in first-seen order");
        }
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(
                it.intern(&NodeSet::from_indices(130, [k, k + 64])),
                *id,
                "re-interning returns the original id"
            );
        }
        assert_eq!(it.len(), 10);
    }

    #[test]
    fn words_roundtrip() {
        let mut it = SetInterner::new(200);
        let s = NodeSet::from_indices(200, [0, 63, 64, 199]);
        let id = it.intern(&s);
        assert_eq!(it.words(id), s.words());
    }

    /// Three distinct sets engineered to share a fingerprint. The FNV-style
    /// fold is `h = (h ^ w) * p` per word followed by a bijective
    /// finalizer, so for two-word sets `(w0, w1)` and `(w0', w1')` the
    /// fingerprints agree iff `(s ^ w0)·p ^ w1 == (s ^ w0')·p ^ w1'`;
    /// solving for `w1'` forges a collision with any chosen `w0'`. (If the
    /// fingerprint algorithm ever changes, re-derive the construction
    /// here.)
    fn forged_collisions() -> [NodeSet; 3] {
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let (w0a, w1a) = (0b1u64, 0b1u64);
        let ca = (SEED ^ w0a).wrapping_mul(PRIME);
        let from_words = |w0: u64| {
            let w1 = w1a ^ ca ^ (SEED ^ w0).wrapping_mul(PRIME);
            NodeSet::from_indices(
                128,
                (0..64)
                    .filter(move |b| w0 >> b & 1 == 1)
                    .chain((0..64).filter(move |b| w1 >> b & 1 == 1).map(|b| b + 64)),
            )
        };
        [from_words(w0a), from_words(0b11), from_words(0b111)]
    }

    #[test]
    fn forced_fingerprint_collision_gets_distinct_ids() {
        // Regression for the memo-correctness hazard: under fingerprint
        // keys these informed sets would share a memo entry; interned ids
        // must keep them apart so `(StateId, phase)` memo keys cannot
        // collide. Three sets make a chain of three ids behind one
        // fingerprint; re-interning in a mixed order walks it from every
        // position.
        let sets = forged_collisions();
        for (i, a) in sets.iter().enumerate() {
            assert_eq!(
                a.fingerprint(),
                sets[0].fingerprint(),
                "the forgery produced a genuine fingerprint collision"
            );
            for b in &sets[i + 1..] {
                assert_ne!(a, b, "the forgery produced distinct sets");
            }
        }
        let mut it = SetInterner::new(128);
        let mut ids = [StateId(0); 3];
        for (next, k) in [2, 0, 1].into_iter().enumerate() {
            ids[k] = it.intern(&sets[k]);
            assert_eq!(ids[k].idx(), next, "ids are dense in first-seen order");
        }
        for k in [1, 0, 2, 2, 0, 1] {
            assert_eq!(it.intern(&sets[k]), ids[k], "set {k} re-interned");
        }
        assert_eq!(it.len(), 3, "colliding fingerprints must not merge states");
        for (s, &id) in sets.iter().zip(&ids) {
            assert_eq!(it.words(id), s.words());
        }
    }

    #[test]
    fn reset_keeps_working_across_universes() {
        let mut it = SetInterner::new(64);
        it.intern(&NodeSet::from_indices(64, [3]));
        it.reset(128);
        assert!(it.is_empty());
        let id = it.intern(&NodeSet::from_indices(128, [100]));
        assert_eq!(id.idx(), 0);
        assert_eq!(it.universe(), 128);
    }

    #[test]
    fn zero_universe_interner() {
        let mut it = SetInterner::new(0);
        let e = NodeSet::new(0);
        let id = it.intern(&e);
        assert_eq!(it.intern(&e), id);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn word_seq_ids_are_dense_and_exact() {
        let mut it = WordSeqInterner::new();
        let a = it.intern(7, &[1, 2, 3]);
        let b = it.intern(7, &[1, 2, 4]);
        let c = it.intern(8, &[1, 2, 3]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(c, 2);
        assert_eq!(it.intern(7, &[1, 2, 3]), a);
        assert_eq!(it.words(b), &[1, 2, 4]);
        assert_eq!(it.len(), 3);
        assert_eq!(it.get(7, &[1, 2, 3]), Some(a));
        assert_eq!(it.get(9, &[1, 2, 3]), None);
        // Prefixes and length variants stay distinct.
        assert_eq!(it.get(7, &[1, 2]), None);
        let d = it.intern(7, &[1, 2]);
        assert_ne!(d, a);
    }

    #[test]
    fn word_seq_empty_sequences_per_namespace() {
        let mut it = WordSeqInterner::new();
        let a = it.intern(0, &[]);
        let b = it.intern(1, &[]);
        assert_ne!(a, b);
        assert_eq!(it.intern(0, &[]), a);
        assert_eq!(it.words(a), &[] as &[u64]);
    }

    #[test]
    fn word_seq_reset_reuses() {
        let mut it = WordSeqInterner::new();
        it.intern(0, &[42]);
        it.reset();
        assert!(it.is_empty());
        assert_eq!(it.intern(0, &[43]), 0);
    }
}
