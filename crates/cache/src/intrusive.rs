//! The intrusive multi-list core shared by every replacement policy.
//!
//! One slab of nodes, one key index, `N` doubly-linked lists threaded
//! through the slab by index. Every policy in this crate is a thin
//! state machine over this structure:
//!
//! - LRU and FIFO are a [`MultiList`] with one list,
//! - CLOCK sweeps its hand over slab *positions* and uses the per-node
//!   flag as its reference bit,
//! - SIEVE adds a hand cursor and uses the per-node flag as its
//!   visited bit,
//! - SLRU splits residency across two lists (probationary/protected),
//! - 2Q uses three (trial, protected, ghost),
//! - ARC uses four (T1/T2 resident, B1/B2 ghost).
//!
//! The slab is also the cache's page table. Each node carries the
//! page's [`PageState`] (dirty and prefetched bits), so one hash probe
//! answers "is it resident, what is its state, and where does it sit in
//! the policy's order" at once: a resident hit costs exactly one probe,
//! and a miss that evicts costs three (the miss itself, the victim's
//! removal, the insert). Trailing lists can be declared *ghost* lists
//! ([`MultiList::with_ghost_lists`]): their nodes are remembered keys,
//! never resident, and every resident-only query skips them.
//!
//! A second chain threads each node through its key's *group*
//! ([`SlabKey::group`]; the owning file for page ids), so the pages of
//! one file can be gathered without visiting the rest of the cache.
//!
//! Moving a key between segments relinks the node it already owns
//! (three index writes), instead of removing from one hash-backed list
//! and inserting into another. Freed slots go on an internal free list
//! and are reused, so a cache that has warmed up to its capacity never
//! allocates again — the property pinned by the counting-allocator gate
//! in `tests/perf_scaling.rs`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use crate::hash::KeyedState;
use crate::page::{PageId, PageState};

/// Sentinel slot index meaning "no node". Nodes store their links in
/// 32 bits, so slots stay below `u32::MAX` and `NIL` is that value.
pub const NIL: usize = Link::MAX as usize;

/// A slot index as stored in a node: half the width of `usize`, which
/// keeps a page's node within 40 bytes.
type Link = u32;

/// The `list` tag of a slot sitting on the free list.
const FREE: u8 = u8::MAX;

/// A key the slab can index: hashable, and naming the group whose
/// chain its node joins.
pub trait SlabKey: Eq + Hash + Clone {
    /// The group (a small dense index) this key belongs to.
    fn group(&self) -> usize;
}

impl SlabKey for PageId {
    /// Pages are grouped by file, so closing a file visits only its
    /// own pages. File ids are dense registration indices.
    fn group(&self) -> usize {
        self.file.0 as usize
    }
}

/// Plain keys (policy unit tests, diagnostics) all share group 0.
macro_rules! ungrouped_keys {
    ($($ty:ty),*) => {
        $(impl SlabKey for $ty {
            fn group(&self) -> usize {
                0
            }
        })*
    };
}

ungrouped_keys!(i32, u32, u64, &str);

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: Link,
    next: Link,
    /// Neighbours in the key's group chain.
    group_prev: Link,
    group_next: Link,
    /// Which of the `N` lists this node is linked into ([`FREE`] once
    /// the slot is released).
    list: u8,
    /// Policy-defined mark (CLOCK's reference bit, SIEVE's visited bit;
    /// unused elsewhere).
    flag: bool,
    /// The page's state while resident (stale in ghost nodes, which
    /// answer no state query).
    state: PageState,
}

/// `N` intrusive doubly-linked lists over one slab and one key index.
///
/// Slots are stable: a node keeps its slab index for its whole
/// lifetime, however many times it moves between lists, so policies
/// may hold slot indices (SIEVE's hand) across operations — they are
/// invalidated only by removing that very node.
///
/// Each list orders nodes front (most recently pushed) to back; which
/// end means "hot" is the policy's business.
#[derive(Debug, Clone)]
pub struct MultiList<K: SlabKey, const N: usize> {
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    index: HashMap<K, usize, KeyedState>,
    head: [usize; N],
    tail: [usize; N],
    len: [usize; N],
    /// Lists `0..resident_lists` hold resident keys; the rest are
    /// ghost lists.
    resident_lists: usize,
    /// Head slot of each group chain, indexed by [`SlabKey::group`].
    groups: Vec<usize>,
}

impl<K: SlabKey, const N: usize> MultiList<K, N> {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty structure pre-sized for `capacity` keys across
    /// all lists, so a policy that stays within it never reallocates.
    /// Every list holds resident keys.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_ghost_lists(capacity, 0)
    }

    /// [`MultiList::with_capacity`] where the last `ghosts` lists hold
    /// ghost keys: tracked, never resident.
    pub fn with_ghost_lists(capacity: usize, ghosts: usize) -> Self {
        assert!(N < FREE as usize && ghosts <= N, "list count out of range");
        Self {
            nodes: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity.min(16)),
            index: HashMap::with_capacity_and_hasher(capacity, KeyedState::default()),
            head: [NIL; N],
            tail: [NIL; N],
            len: [0; N],
            resident_lists: N - ghosts,
            groups: Vec::new(),
        }
    }

    /// Total number of keys across all lists, ghosts included.
    pub fn total_len(&self) -> usize {
        self.index.len()
    }

    /// Number of resident keys (ghost lists excluded).
    pub fn resident_len(&self) -> usize {
        self.len[..self.resident_lists].iter().sum()
    }

    /// Number of keys in `list`.
    pub fn list_len(&self, list: usize) -> usize {
        self.len[list]
    }

    /// Whether no keys are tracked in any list.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The slab slot of `key`, if tracked.
    pub fn slot_of(&self, key: &K) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// The slab slot of `key`, if it is resident (not a ghost).
    pub fn resident_slot(&self, key: &K) -> Option<usize> {
        self.slot_of(key).filter(|&slot| self.is_resident(slot))
    }

    /// Which list `key` is in, if tracked.
    pub fn which_list(&self, key: &K) -> Option<usize> {
        self.slot_of(key).map(|s| self.nodes[s].list as usize)
    }

    /// The key stored in `slot`.
    pub fn key_at(&self, slot: usize) -> &K {
        &self.nodes[slot].key
    }

    /// Which list the node in `slot` is linked into.
    pub fn list_at(&self, slot: usize) -> usize {
        self.nodes[slot].list as usize
    }

    /// Whether `slot` holds a node (it is not on the free list).
    pub fn is_live(&self, slot: usize) -> bool {
        self.nodes[slot].list != FREE
    }

    /// Whether `slot` holds a resident node (live, not a ghost).
    pub fn is_resident(&self, slot: usize) -> bool {
        (self.nodes[slot].list as usize) < self.resident_lists
    }

    /// Number of slab slots ever allocated, live or free: the range a
    /// positional sweep (CLOCK's hand) walks.
    pub fn slab_len(&self) -> usize {
        self.nodes.len()
    }

    /// The policy flag of `slot`.
    pub fn flag_at(&self, slot: usize) -> bool {
        self.nodes[slot].flag
    }

    /// Sets the policy flag of `slot`.
    pub fn set_flag_at(&mut self, slot: usize, flag: bool) {
        self.nodes[slot].flag = flag;
    }

    /// The page state stored in `slot`.
    pub fn state_at_mut(&mut self, slot: usize) -> &mut PageState {
        &mut self.nodes[slot].state
    }

    /// The slot before `slot` in its list (toward the front), or
    /// [`NIL`].
    pub fn prev_of(&self, slot: usize) -> usize {
        self.nodes[slot].prev as usize
    }

    /// The slot after `slot` in its list (toward the back), or [`NIL`].
    pub fn next_of(&self, slot: usize) -> usize {
        self.nodes[slot].next as usize
    }

    /// The front slot of `list`, or [`NIL`] when empty.
    pub fn head_of(&self, list: usize) -> usize {
        self.head[list]
    }

    /// The back slot of `list`, or [`NIL`] when empty.
    pub fn tail_of(&self, list: usize) -> usize {
        self.tail[list]
    }

    /// The key at the back of `list`, without removing it.
    pub fn peek_back(&self, list: usize) -> Option<&K> {
        (self.tail[list] != NIL).then(|| &self.nodes[self.tail[list]].key)
    }

    fn unlink(&mut self, slot: usize) {
        let list = self.nodes[slot].list as usize;
        let (prev, next) = (self.nodes[slot].prev as usize, self.nodes[slot].next as usize);
        if prev == NIL {
            self.head[list] = next;
        } else {
            self.nodes[prev].next = next as Link;
        }
        if next == NIL {
            self.tail[list] = prev;
        } else {
            self.nodes[next].prev = prev as Link;
        }
        self.len[list] -= 1;
    }

    fn link_front(&mut self, slot: usize, list: usize) {
        let old_head = self.head[list];
        {
            let node = &mut self.nodes[slot];
            node.list = list as u8;
            node.prev = NIL as Link;
            node.next = old_head as Link;
        }
        if old_head != NIL {
            self.nodes[old_head].prev = slot as Link;
        }
        self.head[list] = slot;
        if self.tail[list] == NIL {
            self.tail[list] = slot;
        }
        self.len[list] += 1;
    }

    /// Links `slot` at the front of its key's group chain. Growing the
    /// chain-head table is the only allocation a new group costs.
    fn link_group(&mut self, slot: usize) {
        let group = self.nodes[slot].key.group();
        if group >= self.groups.len() {
            self.groups.resize(group + 1, NIL);
        }
        let old_head = self.groups[group];
        self.nodes[slot].group_prev = NIL as Link;
        self.nodes[slot].group_next = old_head as Link;
        if old_head != NIL {
            self.nodes[old_head].group_prev = slot as Link;
        }
        self.groups[group] = slot;
    }

    fn unlink_group(&mut self, slot: usize) {
        let (prev, next) =
            (self.nodes[slot].group_prev as usize, self.nodes[slot].group_next as usize);
        if prev == NIL {
            let group = self.nodes[slot].key.group();
            self.groups[group] = next;
        } else {
            self.nodes[prev].group_next = next as Link;
        }
        if next != NIL {
            self.nodes[next].group_prev = prev as Link;
        }
    }

    /// Places `key` in a fresh slot (recycled from the free list when
    /// possible) at the front of `list`, without touching the index.
    fn alloc_front(&mut self, list: usize, key: K, state: PageState) -> usize {
        let node = Node {
            key,
            prev: NIL as Link,
            next: NIL as Link,
            group_prev: NIL as Link,
            group_next: NIL as Link,
            list: 0,
            flag: false,
            state,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s] = node;
                s
            }
            None => {
                assert!(self.nodes.len() < NIL, "slab outgrew 32-bit slot links");
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.link_front(slot, list);
        self.link_group(slot);
        slot
    }

    /// Inserts an untracked `key` at the front of `list` with a clear
    /// flag and default state, returning its slot. Returns `None` (and
    /// does nothing) if the key is already tracked.
    pub fn insert_front(&mut self, list: usize, key: K) -> Option<usize> {
        self.find_or_push(list, key, PageState::default()).ok()
    }

    /// Inserts `key` with `state` at the front of `list` unless it is
    /// already tracked — one index probe either way. Returns `Ok` with
    /// the new slot, or `Err` with the slot the key already holds
    /// (which is left untouched).
    pub fn find_or_push(&mut self, list: usize, key: K, state: PageState) -> Result<usize, usize> {
        let free_slot = self.free.last().copied().unwrap_or(self.nodes.len());
        match self.index.entry(key.clone()) {
            Entry::Occupied(entry) => Err(*entry.get()),
            Entry::Vacant(entry) => {
                entry.insert(free_slot);
                let slot = self.alloc_front(list, key, state);
                debug_assert_eq!(slot, free_slot, "slot allocation is LIFO from the free list");
                Ok(slot)
            }
        }
    }

    /// [`MultiList::find_or_push`] for a key known to be untracked:
    /// the hot path for policies without ghost lists, whose caller has
    /// already probed residency this operation. The key **must not**
    /// be tracked (debug-asserted).
    pub fn push_front_new(&mut self, list: usize, key: K, state: PageState) -> usize {
        let slot = self.alloc_front(list, key.clone(), state);
        let displaced = self.index.insert(key, slot);
        debug_assert!(displaced.is_none(), "push_front_new on a tracked key");
        slot
    }

    /// Relinks the node in `slot` to the front of `list` (possibly a
    /// different list from the one it is in). O(1), no allocation, flag
    /// and state preserved.
    pub fn promote(&mut self, slot: usize, list: usize) {
        if self.head[list] == slot {
            return; // already the front of the target list
        }
        self.unlink(slot);
        self.link_front(slot, list);
    }

    /// Removes and returns the key and state at the back of `list`,
    /// freeing its slot.
    pub fn pop_back(&mut self, list: usize) -> Option<(K, PageState)> {
        let slot = self.tail[list];
        (slot != NIL).then(|| self.remove_slot(slot))
    }

    /// Moves the back node of `from` to the front of `to`, returning
    /// its key and state. The node keeps its slot and state; its flag
    /// is cleared. Moved into a ghost list, the node is no longer
    /// resident and the returned state is the evicted page's.
    pub fn transfer_back(&mut self, from: usize, to: usize) -> Option<(K, PageState)> {
        let slot = self.tail[from];
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        self.link_front(slot, to);
        let node = &mut self.nodes[slot];
        node.flag = false;
        Some((node.key.clone(), node.state))
    }

    /// Removes `key` entirely, returning which list it was in and its
    /// state.
    pub fn remove(&mut self, key: &K) -> Option<(usize, PageState)> {
        let slot = self.index.remove(key)?;
        let list = self.nodes[slot].list as usize;
        let state = self.release(slot);
        Some((list, state))
    }

    /// Removes the node in `slot` entirely, returning its key and
    /// state.
    pub fn remove_slot(&mut self, slot: usize) -> (K, PageState) {
        let key = self.nodes[slot].key.clone();
        self.index.remove(&key);
        let state = self.release(slot);
        (key, state)
    }

    /// Unlinks `slot` from its list and group chain and frees it; the
    /// caller has already dropped it from the index.
    fn release(&mut self, slot: usize) -> PageState {
        self.unlink(slot);
        self.unlink_group(slot);
        self.nodes[slot].list = FREE;
        self.free.push(slot);
        self.nodes[slot].state
    }

    /// Appends the resident keys of `group` to `out`, in chain order
    /// (callers that need a reproducible order sort). Visits only the
    /// group's own nodes.
    pub fn resident_group_keys(&self, group: usize, out: &mut Vec<K>) {
        let mut slot = self.groups.get(group).copied().unwrap_or(NIL);
        while slot != NIL {
            if self.is_resident(slot) {
                out.push(self.nodes[slot].key.clone());
            }
            slot = self.nodes[slot].group_next as usize;
        }
    }

    /// Calls `f` on the state of every resident node, in slab order.
    pub fn for_each_resident_state(&mut self, f: &mut dyn FnMut(&mut PageState)) {
        let resident_lists = self.resident_lists;
        for node in &mut self.nodes {
            if (node.list as usize) < resident_lists {
                f(&mut node.state);
            }
        }
    }

    /// Keys of `list`, front to back (test/diagnostic helper; O(n)).
    pub fn iter(&self, list: usize) -> impl Iterator<Item = &K> {
        ListIter { multi: self, cur: self.head[list] }
    }
}

impl<K: SlabKey, const N: usize> Default for MultiList<K, N> {
    fn default() -> Self {
        Self::new()
    }
}

struct ListIter<'a, K: SlabKey, const N: usize> {
    multi: &'a MultiList<K, N>,
    cur: usize,
}

impl<'a, K: SlabKey, const N: usize> Iterator for ListIter<'a, K, N> {
    type Item = &'a K;
    fn next(&mut self) -> Option<&'a K> {
        if self.cur == NIL {
            return None;
        }
        let node = &self.multi.nodes[self.cur];
        self.cur = node.next as usize;
        Some(&node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::FileId;

    fn key_of<K>(entry: Option<(K, PageState)>) -> Option<K> {
        entry.map(|(key, _)| key)
    }

    #[test]
    fn push_and_pop_one_list() {
        let mut m: MultiList<u32, 1> = MultiList::new();
        m.insert_front(0, 1);
        m.insert_front(0, 2);
        m.insert_front(0, 3);
        assert_eq!(m.iter(0).copied().collect::<Vec<_>>(), vec![3, 2, 1]);
        assert_eq!(key_of(m.pop_back(0)), Some(1));
        assert_eq!(key_of(m.pop_back(0)), Some(2));
        assert_eq!(key_of(m.pop_back(0)), Some(3));
        assert_eq!(m.pop_back(0), None);
        assert!(m.is_empty());
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut m: MultiList<u32, 2> = MultiList::new();
        assert!(m.insert_front(0, 7).is_some());
        assert!(m.insert_front(1, 7).is_none(), "key already tracked in list 0");
        assert_eq!(m.which_list(&7), Some(0));
        assert_eq!(m.total_len(), 1);
    }

    #[test]
    fn promote_within_and_across_lists() {
        let mut m: MultiList<u32, 2> = MultiList::new();
        for k in [1, 2, 3] {
            m.insert_front(0, k);
        }
        let s2 = m.slot_of(&2).expect("tracked");
        m.promote(s2, 0); // within-list MRU move
        assert_eq!(m.iter(0).copied().collect::<Vec<_>>(), vec![2, 3, 1]);
        m.promote(s2, 1); // cross-list move keeps the slot
        assert_eq!(m.slot_of(&2), Some(s2));
        assert_eq!(m.which_list(&2), Some(1));
        assert_eq!(m.list_len(0), 2);
        assert_eq!(m.list_len(1), 1);
        assert_eq!(m.iter(0).copied().collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn promote_head_is_a_noop() {
        let mut m: MultiList<u32, 1> = MultiList::new();
        m.insert_front(0, 1);
        m.insert_front(0, 2);
        let head = m.slot_of(&2).expect("tracked");
        m.promote(head, 0);
        assert_eq!(m.iter(0).copied().collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn transfer_back_moves_between_lists() {
        let mut m: MultiList<u32, 2> = MultiList::new();
        for k in [1, 2, 3] {
            m.insert_front(0, k);
        }
        assert_eq!(key_of(m.transfer_back(0, 1)), Some(1));
        assert_eq!(m.which_list(&1), Some(1));
        assert_eq!(m.list_len(0), 2);
        assert_eq!(m.peek_back(1), Some(&1));
        assert_eq!(key_of(m.transfer_back(1, 0)), Some(1));
        assert_eq!(m.which_list(&1), Some(0));
        assert_eq!(m.iter(0).copied().collect::<Vec<_>>(), vec![1, 3, 2]);
    }

    #[test]
    fn flags_survive_promotion_but_not_transfer() {
        let mut m: MultiList<u32, 2> = MultiList::new();
        let s = m.insert_front(0, 9).expect("new key");
        m.set_flag_at(s, true);
        m.insert_front(0, 10);
        m.promote(s, 1);
        assert!(m.flag_at(s), "promote preserves the flag");
        m.transfer_back(1, 0);
        assert!(!m.flag_at(s), "transfer_back clears the flag");
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut m: MultiList<u32, 1> = MultiList::new();
        m.insert_front(0, 1);
        m.insert_front(0, 2);
        let s1 = m.slot_of(&1).expect("tracked");
        assert_eq!(m.remove(&1).map(|(list, _)| list), Some(0));
        assert_eq!(m.remove(&1), None);
        assert!(!m.is_live(s1));
        let s3 = m.insert_front(0, 3).expect("new key");
        assert_eq!(s3, s1, "freed slot reused");
        assert!(m.is_live(s3));
        assert_eq!(m.total_len(), 2);
    }

    #[test]
    fn navigation_follows_links() {
        let mut m: MultiList<u32, 1> = MultiList::new();
        for k in [1, 2, 3] {
            m.insert_front(0, k);
        }
        let tail = m.tail_of(0);
        assert_eq!(*m.key_at(tail), 1);
        let mid = m.prev_of(tail);
        assert_eq!(*m.key_at(mid), 2);
        assert_eq!(m.prev_of(m.prev_of(mid)), NIL);
        assert_eq!(m.next_of(tail), NIL);
        assert_eq!(m.head_of(0), m.prev_of(mid));
    }

    #[test]
    fn state_travels_with_the_node() {
        let mut m: MultiList<u32, 2> = MultiList::with_ghost_lists(4, 1);
        let dirty = PageState { dirty: true, prefetched: false };
        let s = m.push_front_new(0, 5, dirty);
        m.promote(s, 0);
        assert_eq!(*m.state_at_mut(s), dirty, "promotion keeps the state");
        assert_eq!(m.transfer_back(0, 1), Some((5, dirty)), "ghosting hands the state back");
        assert_eq!(m.resident_slot(&5), None, "ghosts are not resident");
        assert_eq!(m.find_or_push(0, 5, PageState::default()), Err(s), "one probe finds the ghost");
        assert_eq!(m.resident_len(), 0);
    }

    #[test]
    fn group_chains_gather_only_their_residents() {
        let mut m: MultiList<PageId, 2> = MultiList::with_ghost_lists(8, 1);
        let page = |file, index| PageId { file: FileId(file), index };
        for index in 0..4 {
            m.push_front_new(0, page(0, index), PageState::default());
            m.push_front_new(0, page(2, index), PageState::default());
        }
        // Ghost the oldest page of file 0 and remove one of file 2.
        assert_eq!(key_of(m.transfer_back(0, 1)), Some(page(0, 0)));
        m.remove(&page(2, 1));
        let mut keys = Vec::new();
        m.resident_group_keys(0, &mut keys);
        keys.sort_unstable();
        assert_eq!(keys, vec![page(0, 1), page(0, 2), page(0, 3)]);
        keys.clear();
        m.resident_group_keys(2, &mut keys);
        keys.sort_unstable();
        assert_eq!(keys, vec![page(2, 0), page(2, 2), page(2, 3)]);
        keys.clear();
        m.resident_group_keys(1, &mut keys);
        m.resident_group_keys(99, &mut keys);
        assert!(keys.is_empty(), "unknown groups are empty");
    }
}
