//! The keyed fast hasher behind every page-keyed table in this crate.
//!
//! The page table is probed once per page an operation touches, so its
//! hash function is the innermost cost of trace replay. SipHash (the
//! standard library default) is built to resist adversaries who see
//! hash outputs; page ids are small fixed-width integers and the tables
//! never expose their layout, so a multiply-rotate ("Fx-style") mixer
//! does the job at a fraction of the cost.
//!
//! - **Keying.** Each table draws a 64-bit key from
//!   [`std::collections::hash_map::RandomState`] when it is built
//!   ([`KeyedState::default`]); the key seeds the mixer state. There is
//!   no knob and no seed plumbing: the key never reaches any output.
//! - **Finalizer.** `hashbrown` picks a bucket from the *low* bits of
//!   the hash. A plain multiply only carries entropy upward, so page ids
//!   at stride 2^k would share their low bits — and their buckets —
//!   whatever the key. [`KeyedHasher::finish`] therefore folds the high
//!   half of a 64×64→128-bit product into the low half.
//! - **Flood bound.** Adversarial `PageId` families (`index = i << s` for
//!   every `s` in 0..=48, ids that share their low 32 bits, `file = i`
//!   at a fixed index) hashed with a fixed key must spread their
//!   14-bit bucket indices over at least half of 16 384 keys; a uniform
//!   hash reaches about 63 %. The same bound covers the `u32` pid and
//!   `(pid, file)` keys of the trace decoder and verifier (`i << s`,
//!   `(i, 0)`, `(0, i << s)`). The unit tests below pin this.
//! - **No hash-order dependence.** Because every table has its own
//!   key, iteration order differs between two caches fed the same
//!   stream. No observable stream — outcomes, metrics, eviction order,
//!   reports — may depend on it: code that must visit entries in a
//!   reproducible order walks the slab or sorts. The hash-independence
//!   pin in `tests/cache_properties.rs` feeds one stream to several
//!   independently keyed caches and requires identical results.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Odd multiplier of the per-word mixing step (the FxHash constant).
const MIX: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Odd multiplier of the folding finalizer (2^64 / golden ratio).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// A keyed [`BuildHasher`]: every hasher it builds starts from the
/// same key, so equal keys hash equally within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyedState {
    key: u64,
}

impl KeyedState {
    /// A state with a fixed key (tests and reproducible diagnostics).
    pub fn with_key(key: u64) -> Self {
        Self { key }
    }
}

impl Default for KeyedState {
    /// A state keyed from [`RandomState`], drawn once per table.
    fn default() -> Self {
        Self { key: RandomState::new().hash_one(0u64) }
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher { state: self.key }
    }
}

/// The hasher [`KeyedState`] builds: rotate-xor-multiply per word,
/// folded 128-bit multiply at the end.
#[derive(Debug, Clone, Copy)]
pub struct KeyedHasher {
    state: u64,
}

impl KeyedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for KeyedHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let product = u128::from(self.state) * u128::from(FOLD);
        (product as u64) ^ ((product >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{FileId, PageId};
    use std::collections::HashSet;
    use std::hash::Hash;

    /// Keys per adversarial family, and the bucket mask of a table that
    /// holds them (14 bits).
    const KEYS: u64 = 1 << 14;
    const BUCKETS: u64 = KEYS - 1;

    /// Distinct 14-bit bucket indices of `ids` under a fixed test key.
    fn buckets_used<K: Hash>(ids: impl Iterator<Item = K>) -> usize {
        let state = KeyedState::with_key(0x0123_4567_89ab_cdef);
        ids.map(|id| state.hash_one(id) & BUCKETS).collect::<HashSet<_>>().len()
    }

    fn assert_spreads<K: Hash>(family: &str, ids: impl Iterator<Item = K>) {
        let used = buckets_used(ids);
        assert!(
            used as u64 >= KEYS / 2,
            "{family}: {used} of {KEYS} keys landed in distinct buckets (need half)"
        );
    }

    #[test]
    fn strided_indices_spread_over_buckets() {
        for s in 0..=48u32 {
            assert_spreads(
                &format!("index = i << {s}"),
                (0..KEYS).map(|i| PageId { file: FileId(0), index: i << s }),
            );
        }
    }

    #[test]
    fn ids_sharing_low_bits_spread_over_buckets() {
        assert_spreads(
            "shared low 32 bits",
            (0..KEYS).map(|i| PageId { file: FileId(3), index: (i << 32) | 0xdead_beef }),
        );
    }

    #[test]
    fn file_ids_spread_over_buckets() {
        assert_spreads(
            "file = i",
            (0..KEYS).map(|i| PageId { file: FileId(i as u32), index: 12_345 }),
        );
    }

    // The trace decoder and verifier key their tables by untrusted pids
    // and `(pid, file)` pairs; the same flood bound holds for those
    // key types (strides up to 18 keep `i << s` within a `u32`).

    #[test]
    fn strided_pids_spread_over_buckets() {
        for s in 0..=18u32 {
            assert_spreads(&format!("pid = i << {s}"), (0..KEYS as u32).map(|i| i << s));
        }
    }

    #[test]
    fn pid_file_pairs_spread_over_buckets() {
        assert_spreads("(i, 0)", (0..KEYS as u32).map(|i| (i, 0u32)));
        for s in 0..=18u32 {
            assert_spreads(&format!("(0, i << {s})"), (0..KEYS as u32).map(|i| (0u32, i << s)));
        }
    }

    #[test]
    fn equal_keys_hash_equal_and_keys_differ() {
        let a = KeyedState::with_key(1);
        let id = PageId { file: FileId(1), index: 77 };
        assert_eq!(a.hash_one(id), a.hash_one(id));
        assert_ne!(a.hash_one(id), KeyedState::with_key(2).hash_one(id));
        assert_ne!(KeyedState::default(), KeyedState::default(), "each table draws its own key");
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let s = KeyedState::with_key(9);
        assert_ne!(s.hash_one("abc"), s.hash_one("abd"));
        assert_ne!(s.hash_one("abcdefghi"), s.hash_one("abcdefghj"));
    }
}
