//! Replacement policies and the [`PolicySet`] abstraction they share.
//!
//! The paper's platform (the NT cache manager) approximates LRU; this
//! module names the alternatives the ablation benches compare against
//! and defines the one interface they all answer to:
//!
//! - [`PolicySet`] — the object-safe residency-set trait every policy
//!   implements (`lookup` / `insert` / `pop_victim_entry` /
//!   `remove_entry` plus residency queries, the key-set view `touch` /
//!   `pop_victim` / `remove`, and the crate-wide `with_capacity`
//!   constructor convention),
//! - [`ReplacementPolicy`] — the serializable policy selector whose
//!   [`ReplacementPolicy::build`] method is the **single registry
//!   point** mapping a selector to a boxed policy instance; the cache,
//!   the sharded cache, and the experiment layer all construct
//!   policies through it,
//! - [`ClockSet`] — the second-chance/CLOCK approximation of LRU
//!   (reference bits swept by a hand),
//! - [`FifoSet`] — pure insertion-order eviction (no recency at all).
//!
//! The remaining policies live in their own modules:
//! [`crate::lru::LruList`], [`crate::scanres::TwoQSet`],
//! [`crate::scanres::SlruSet`], [`crate::sieve::SieveSet`] and
//! [`crate::arc::ArcSet`].
//!
//! Every policy keeps its residents in one [`MultiList`] slab whose
//! nodes also carry each page's [`PageState`], so the policy set *is*
//! the cache's page table: [`PolicySet::lookup`] answers residency,
//! state and promotion with one hash probe.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::arc::ArcSet;
use crate::intrusive::{MultiList, SlabKey};
use crate::lru::LruList;
use crate::page::PageState;
use crate::scanres::{SlruSet, TwoQSet};
use crate::sieve::SieveSet;

/// The residency-set interface every replacement policy implements.
///
/// A policy set tracks *which* keys are resident, holds each resident
/// key's [`PageState`], and decides *what* to evict; the owning cache
/// decides *when* (by calling [`PolicySet::pop_victim_entry`] until it
/// is under budget). That split keeps a shard's eviction stream a pure
/// function of its own access subsequence — the property
/// `tests/cache_properties.rs` pins for every policy.
///
/// Ghost entries (ARC's `B1`/`B2`, 2Q's `A1out`) are remembered keys,
/// not residents: every query here answers "not resident" for them.
///
/// Implementations are selected at exactly one place,
/// [`ReplacementPolicy::build`], and used as `Box<dyn PolicySet<K>>`.
pub trait PolicySet<K>: fmt::Debug + Send {
    /// Creates an empty set sized for a cache of `capacity` keys (the
    /// crate-wide constructor convention; implementations bound their
    /// preallocation by [`crate::PREALLOC_PAGES_MAX`]).
    fn with_capacity(capacity: usize) -> Self
    where
        Self: Sized;

    /// Number of resident keys (ghost/shadow entries never count).
    fn len(&self) -> usize;

    /// Whether no keys are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is resident.
    fn contains(&self, key: &K) -> bool;

    /// The state of resident `key`, after recording a reference to it
    /// when `promote` is set — one hash probe. `None` (with no side
    /// effect) when the key is not resident, ghosts included.
    fn lookup(&mut self, key: &K, promote: bool) -> Option<&mut PageState>;

    /// Makes a non-resident `key` resident with `state`. A ghost key
    /// is resurrected by the policy's own rules. The caller must make
    /// room first; inserting a resident key is a bug.
    fn insert(&mut self, key: K, state: PageState);

    /// Evicts the policy's chosen victim, returning its key and state,
    /// or `None` when nothing is resident.
    fn pop_victim_entry(&mut self) -> Option<(K, PageState)>;

    /// Removes `key`, resident or ghost (used when a file closes and
    /// its pages are purged); returns the state of a *resident* entry.
    fn remove_entry(&mut self, key: &K) -> Option<PageState>;

    /// Appends the resident keys of `group` ([`SlabKey::group`]) to
    /// `out`, in no particular order, visiting only that group.
    fn group_keys(&self, group: usize, out: &mut Vec<K>);

    /// Calls `f` on the state of every resident key.
    fn for_each_state(&mut self, f: &mut dyn FnMut(&mut PageState));

    /// Clones the set behind the object; lets `Box<dyn PolicySet<K>>`
    /// implement `Clone` so caches stay cheaply copyable in tests.
    fn boxed_clone(&self) -> Box<dyn PolicySet<K>>;

    /// Key-set view: records a reference to `key`, inserting it with a
    /// default state if it is not resident. Returns `true` if the key
    /// was not resident before (the caller must fetch the page).
    fn touch(&mut self, key: K) -> bool {
        if self.lookup(&key, true).is_some() {
            return false;
        }
        self.insert(key, PageState::default());
        true
    }

    /// Key-set view of [`PolicySet::pop_victim_entry`].
    fn pop_victim(&mut self) -> Option<K> {
        self.pop_victim_entry().map(|(key, _)| key)
    }

    /// Key-set view of [`PolicySet::remove_entry`]: whether a
    /// *resident* entry was removed.
    fn remove(&mut self, key: &K) -> bool {
        self.remove_entry(key).is_some()
    }
}

impl<K> Clone for Box<dyn PolicySet<K>> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Which replacement policy the cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Exact least-recently-used (the default; NT-like).
    #[default]
    Lru,
    /// CLOCK / second chance.
    Clock,
    /// First-in first-out.
    Fifo,
    /// 2Q (Johnson & Shasha): scan-resistant trial/ghost/protected
    /// queues ([`crate::scanres::TwoQSet`]).
    TwoQ,
    /// Segmented LRU: probationary + protected segments
    /// ([`crate::scanres::SlruSet`]).
    Slru,
    /// SIEVE (Zhang et al.): lazy promotion via a visited-bit hand
    /// ([`crate::sieve::SieveSet`]).
    Sieve,
    /// ARC (Megiddo & Modha): adaptive recency/frequency lists with
    /// ghost-driven tuning ([`crate::arc::ArcSet`]).
    Arc,
}

/// The policy alphabet as seen by sharded constructors.
///
/// [`crate::shard::ShardedBufferCache::for_policy`] takes a
/// `CachePolicyKind` and instantiates one full policy instance *per
/// shard*, so all seven policies shard uniformly: the kind selects the
/// per-shard residency structure, the shard map stays policy-agnostic.
pub type CachePolicyKind = ReplacementPolicy;

impl ReplacementPolicy {
    /// All policies, in ablation order.
    pub const ALL: [ReplacementPolicy; 7] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Clock,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::TwoQ,
        ReplacementPolicy::Slru,
        ReplacementPolicy::Sieve,
        ReplacementPolicy::Arc,
    ];

    /// Short display name for bench rows.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Clock => "CLOCK",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::TwoQ => "2Q",
            ReplacementPolicy::Slru => "SLRU",
            ReplacementPolicy::Sieve => "SIEVE",
            ReplacementPolicy::Arc => "ARC",
        }
    }

    /// Builds the residency set this selector names, sized for a cache
    /// of `capacity` keys.
    ///
    /// This is the **single registry point** from selector to
    /// implementation: [`crate::cache::BufferCache`] (and through it
    /// the sharded cache and the experiment layer) constructs every
    /// policy here, so adding a policy means one new enum variant and
    /// one new match arm.
    pub fn build<K>(self, capacity: usize) -> Box<dyn PolicySet<K>>
    where
        K: SlabKey + fmt::Debug + Send + 'static,
    {
        fn boxed<K, P: PolicySet<K> + 'static>(capacity: usize) -> Box<dyn PolicySet<K>> {
            Box::new(P::with_capacity(capacity))
        }
        match self {
            ReplacementPolicy::Lru => boxed::<K, LruList<K>>(capacity),
            ReplacementPolicy::Clock => boxed::<K, ClockSet<K>>(capacity),
            ReplacementPolicy::Fifo => boxed::<K, FifoSet<K>>(capacity),
            ReplacementPolicy::TwoQ => boxed::<K, TwoQSet<K>>(capacity),
            ReplacementPolicy::Slru => boxed::<K, SlruSet<K>>(capacity),
            ReplacementPolicy::Sieve => boxed::<K, SieveSet<K>>(capacity),
            ReplacementPolicy::Arc => boxed::<K, ArcSet<K>>(capacity),
        }
    }
}

/// How writes interact with the backing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WritePolicy {
    /// Dirty pages are written back at eviction/close (the default;
    /// what makes the paper's closes slow).
    #[default]
    WriteBack,
    /// Every write goes straight through: the write operation itself
    /// pays the writeback cost and pages are never dirty.
    WriteThrough,
}

/// CLOCK (second chance): entries with reference bits; the hand sweeps
/// slab positions, clearing bits, and evicts the first clear one.
///
/// CLOCK shares the slab core with the list policies but walks slab
/// *positions*, not links: a fresh or re-referenced entry gets its
/// reference bit (the node flag) set, and freed slots are skipped. The
/// slab's LIFO free list decides which position a new entry takes, so
/// the removal order of a file close shapes later sweeps — which is
/// why the cache purges a closed file in page order.
#[derive(Debug, Clone)]
pub struct ClockSet<K: SlabKey> {
    lists: MultiList<K, 1>,
    /// Next slab position the sweep examines.
    hand: usize,
}

impl<K: SlabKey> ClockSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty set pre-sized for `capacity` keys (bounded by
    /// [`crate::PREALLOC_PAGES_MAX`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self { lists: MultiList::with_capacity(capacity.min(crate::PREALLOC_PAGES_MAX)), hand: 0 }
    }

    fn lookup(&mut self, key: &K, promote: bool) -> Option<&mut PageState> {
        let slot = self.lists.slot_of(key)?;
        if promote {
            self.lists.set_flag_at(slot, true);
        }
        Some(self.lists.state_at_mut(slot))
    }

    fn insert(&mut self, key: K, state: PageState) {
        let slot = self.lists.push_front_new(0, key, state);
        self.lists.set_flag_at(slot, true);
    }

    fn pop_victim_entry(&mut self) -> Option<(K, PageState)> {
        if self.lists.is_empty() {
            return None;
        }
        loop {
            let positions = self.lists.slab_len();
            self.hand %= positions;
            let slot = self.hand;
            self.hand = (self.hand + 1) % positions;
            if !self.lists.is_live(slot) {
                continue;
            }
            if self.lists.flag_at(slot) {
                self.lists.set_flag_at(slot, false);
            } else {
                return Some(self.lists.remove_slot(slot));
            }
        }
    }

    fn remove_entry(&mut self, key: &K) -> Option<PageState> {
        self.lists.remove(key).map(|(_, state)| state)
    }
}

impl<K: SlabKey> Default for ClockSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// FIFO: eviction in insertion order, re-touching never promotes.
///
/// A single intrusive list where hits do nothing: the front is the
/// newest insert, the back the next victim.
#[derive(Debug, Clone, Default)]
pub struct FifoSet<K: SlabKey> {
    lists: MultiList<K, 1>,
}

impl<K: SlabKey> FifoSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self { lists: MultiList::new() }
    }

    /// Creates an empty set pre-sized for `capacity` keys (bounded by
    /// [`crate::PREALLOC_PAGES_MAX`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self { lists: MultiList::with_capacity(capacity.min(crate::PREALLOC_PAGES_MAX)) }
    }

    fn lookup(&mut self, key: &K, _promote: bool) -> Option<&mut PageState> {
        let slot = self.lists.slot_of(key)?;
        Some(self.lists.state_at_mut(slot))
    }

    fn insert(&mut self, key: K, state: PageState) {
        self.lists.push_front_new(0, key, state);
    }

    fn pop_victim_entry(&mut self) -> Option<(K, PageState)> {
        self.lists.pop_back(0)
    }

    fn remove_entry(&mut self, key: &K) -> Option<PageState> {
        self.lists.remove(key).map(|(_, state)| state)
    }
}

/// Implements [`PolicySet`] for a policy type. The type supplies its
/// own `lookup`, `insert`, `pop_victim_entry` and `remove_entry`
/// transitions; the residency queries read its `lists` slab directly.
macro_rules! impl_policy_set {
    ($($ty:ident),*) => {$(
        impl<K> PolicySet<K> for $ty<K>
        where
            K: SlabKey + fmt::Debug + Send + 'static,
        {
            fn with_capacity(capacity: usize) -> Self {
                $ty::with_capacity(capacity)
            }

            fn len(&self) -> usize {
                self.lists.resident_len()
            }

            fn contains(&self, key: &K) -> bool {
                self.lists.resident_slot(key).is_some()
            }

            fn lookup(&mut self, key: &K, promote: bool) -> Option<&mut PageState> {
                $ty::lookup(self, key, promote)
            }

            fn insert(&mut self, key: K, state: PageState) {
                $ty::insert(self, key, state)
            }

            fn pop_victim_entry(&mut self) -> Option<(K, PageState)> {
                $ty::pop_victim_entry(self)
            }

            fn remove_entry(&mut self, key: &K) -> Option<PageState> {
                $ty::remove_entry(self, key)
            }

            fn group_keys(&self, group: usize, out: &mut Vec<K>) {
                self.lists.resident_group_keys(group, out)
            }

            fn for_each_state(&mut self, f: &mut dyn FnMut(&mut PageState)) {
                self.lists.for_each_resident_state(f)
            }

            fn boxed_clone(&self) -> Box<dyn PolicySet<K>> {
                Box::new(self.clone())
            }
        }
    )*};
}

impl_policy_set!(LruList, ClockSet, FifoSet, TwoQSet, SlruSet, SieveSet, ArcSet);

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::hash::{Hash, Hasher};

    #[test]
    fn clock_second_chance() {
        let mut c = ClockSet::new();
        c.touch(1);
        c.touch(2);
        c.touch(3);
        // First sweep clears all reference bits, second evicts 1.
        assert_eq!(c.pop_victim(), Some(1));
        // 2 is next unless re-touched.
        c.touch(2);
        assert_eq!(c.pop_victim(), Some(3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clock_referenced_pages_survive_one_sweep() {
        let mut c = ClockSet::new();
        for i in 0..4 {
            c.touch(i);
        }
        c.pop_victim(); // evicts 0 after clearing everyone
        c.touch(1); // re-reference 1
        assert_eq!(c.pop_victim(), Some(2), "1 got its second chance");
    }

    #[test]
    fn clock_remove_and_reuse() {
        let mut c = ClockSet::new();
        c.touch("a");
        c.touch("b");
        assert!(c.remove(&"a"));
        assert!(!c.remove(&"a"));
        assert!(!c.contains(&"a"));
        c.touch("c");
        assert_eq!(c.len(), 2);
        // Victim selection skips the tombstoned slot.
        assert!(c.pop_victim().is_some());
    }

    #[test]
    fn clock_empty() {
        let mut c: ClockSet<u32> = ClockSet::new();
        assert!(c.is_empty());
        assert_eq!(c.pop_victim(), None);
    }

    #[test]
    fn fifo_order_is_insertion() {
        let mut f = FifoSet::new();
        f.touch(1);
        f.touch(2);
        f.touch(1); // re-touch does not promote
        f.touch(3);
        assert_eq!(f.pop_victim(), Some(1));
        assert_eq!(f.pop_victim(), Some(2));
        assert_eq!(f.pop_victim(), Some(3));
        assert_eq!(f.pop_victim(), None);
    }

    #[test]
    fn fifo_remove_leaves_no_ghosts() {
        let mut f = FifoSet::new();
        f.touch(1);
        f.touch(2);
        assert!(f.remove(&1));
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop_victim(), Some(2), "stale queue head skipped");
        assert!(f.is_empty());
    }

    #[test]
    fn policies_serde() {
        let p: ReplacementPolicy = serde_json::from_str("\"Clock\"").unwrap();
        assert_eq!(p, ReplacementPolicy::Clock);
        let w: WritePolicy = serde_json::from_str("\"WriteThrough\"").unwrap();
        assert_eq!(w, WritePolicy::WriteThrough);
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
        assert_eq!(WritePolicy::default(), WritePolicy::WriteBack);
        // The new variants round-trip and ALL covers all seven.
        for policy in ReplacementPolicy::ALL {
            let json = serde_json::to_string(&policy).unwrap();
            let back: ReplacementPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, policy, "serde round-trip for {}", policy.name());
        }
        let s: ReplacementPolicy = serde_json::from_str("\"Sieve\"").unwrap();
        assert_eq!(s, ReplacementPolicy::Sieve);
        let a: ReplacementPolicy = serde_json::from_str("\"Arc\"").unwrap();
        assert_eq!(a, ReplacementPolicy::Arc);
        assert_eq!(ReplacementPolicy::ALL.len(), 7);
    }

    #[test]
    fn registry_builds_every_policy() {
        for policy in ReplacementPolicy::ALL {
            let mut set: Box<dyn PolicySet<u64>> = policy.build(8);
            assert!(set.is_empty(), "{} starts empty", policy.name());
            assert!(set.touch(1), "{}: first touch inserts", policy.name());
            assert!(!set.touch(1), "{}: second touch hits", policy.name());
            assert!(set.contains(&1));
            assert_eq!(set.len(), 1);
            let dirty = PageState { dirty: true, prefetched: false };
            set.insert(2, dirty);
            assert_eq!(set.lookup(&2, false).copied(), Some(dirty), "{}: state", policy.name());
            assert_eq!(
                set.remove_entry(&2),
                Some(dirty),
                "{}: remove a resident key",
                policy.name()
            );
            assert_eq!(set.pop_victim(), Some(1), "{}: sole key is the victim", policy.name());
            assert_eq!(set.pop_victim(), None);
        }
    }

    #[test]
    fn boxed_policy_sets_clone_independently() {
        let mut original: Box<dyn PolicySet<u64>> = ReplacementPolicy::Lru.build(8);
        original.touch(1);
        let mut copy = original.clone();
        copy.touch(2);
        assert_eq!(original.len(), 1, "clone must not alias the original");
        assert_eq!(copy.len(), 2);
    }

    thread_local! {
        static HASHES: Cell<u32> = const { Cell::new(0) };
    }

    /// A key whose `Hash` counts its calls: each call is one probe of
    /// the slab's index.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Counted(u64);

    impl Hash for Counted {
        fn hash<H: Hasher>(&self, state: &mut H) {
            HASHES.with(|n| n.set(n.get() + 1));
            self.0.hash(state);
        }
    }

    impl SlabKey for Counted {
        fn group(&self) -> usize {
            0
        }
    }

    fn probes(op: impl FnOnce()) -> u32 {
        let before = HASHES.with(Cell::get);
        op();
        HASHES.with(Cell::get) - before
    }

    #[test]
    fn a_hit_costs_one_probe_and_an_evicting_miss_three() {
        for policy in ReplacementPolicy::ALL {
            // Pre-sized well past its contents, so no probe count
            // includes a rehash.
            let mut set: Box<dyn PolicySet<Counted>> = policy.build(64);
            for k in 0..8 {
                set.insert(Counted(k), PageState::default());
            }
            let hit = probes(|| assert!(set.lookup(&Counted(3), true).is_some()));
            assert_eq!(hit, 1, "{}: a resident hit", policy.name());
            let miss = probes(|| {
                assert!(set.lookup(&Counted(100), true).is_none());
                assert!(set.pop_victim_entry().is_some());
                set.insert(Counted(100), PageState::default());
            });
            // 2Q and ARC keep the victim in the index as a ghost.
            let ghosting = matches!(policy, ReplacementPolicy::TwoQ | ReplacementPolicy::Arc);
            assert_eq!(miss, if ghosting { 2 } else { 3 }, "{}: a miss that evicts", policy.name());
        }
    }
}
