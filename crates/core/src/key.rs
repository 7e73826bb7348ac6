//! Key encoding: 31-bit keys with a tombstone status bit in the LSB.
//!
//! The paper dedicates one bit of the 32-bit key word to distinguish regular
//! elements from tombstones (§IV-A): "The 32-bit key variable is the 31-bit
//! original key shifted once and placed next to the status bit."  A set LSB
//! marks a regular element, a zero LSB marks a tombstone.  Because the batch
//! sort orders by the *full* encoded word while level merges compare only
//! the original key (`encoded >> 1`), a tombstone sorts before a same-key
//! regular element from the same batch — which is what makes
//! insert-then-delete-in-one-batch resolve to "deleted" (semantics rule 6).

/// A logical (user-facing) key: at most 31 bits.
pub type Key = u32;

/// A 32-bit value stored alongside each key.
pub type Value = u32;

/// The largest representable logical key (2³¹ − 1).
pub const MAX_KEY: Key = (1 << 31) - 1;

/// Encoded key word: `(key << 1) | status`, status 1 = regular, 0 = tombstone.
pub type EncodedKey = u32;

/// Encode a regular (inserted) element's key.
#[inline]
pub fn encode_regular(key: Key) -> EncodedKey {
    debug_assert!(key <= MAX_KEY, "key exceeds 31 bits");
    (key << 1) | 1
}

/// Encode a tombstone (deletion marker) for `key`.
#[inline]
pub fn encode_tombstone(key: Key) -> EncodedKey {
    debug_assert!(key <= MAX_KEY, "key exceeds 31 bits");
    key << 1
}

/// Recover the original 31-bit key from an encoded word.
#[inline]
pub fn original_key(encoded: EncodedKey) -> Key {
    encoded >> 1
}

/// Whether the encoded word is a tombstone (status bit clear).
#[inline]
pub fn is_tombstone(encoded: EncodedKey) -> bool {
    encoded & 1 == 0
}

/// Whether the encoded word is a regular element (status bit set).
#[inline]
pub fn is_regular(encoded: EncodedKey) -> bool {
    encoded & 1 == 1
}

/// The padding ("placebo") element appended during cleanup and bulk build:
/// a tombstone with the maximum key, invisible to queries and guaranteed to
/// stay at the very end of the last level (paper footnote 5).
#[inline]
pub fn placebo() -> EncodedKey {
    encode_tombstone(MAX_KEY)
}

/// Comparator on original keys only (status bit ignored), used for level
/// merges, the count/range merges and searches.
#[inline]
pub fn key_less(a: &EncodedKey, b: &EncodedKey) -> bool {
    (a >> 1) < (b >> 1)
}

/// A key–value pair as stored in the data structure (encoded key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Entry {
    /// Encoded key word (original key + status bit).
    pub key: EncodedKey,
    /// Associated value (meaningless for tombstones).
    pub value: Value,
}

impl Entry {
    /// A regular entry for (`key`, `value`).
    pub fn regular(key: Key, value: Value) -> Self {
        Entry {
            key: encode_regular(key),
            value,
        }
    }

    /// A tombstone entry for `key`.
    pub fn tombstone(key: Key) -> Self {
        Entry {
            key: encode_tombstone(key),
            value: 0,
        }
    }

    /// The original 31-bit key.
    pub fn original_key(&self) -> Key {
        original_key(self.key)
    }

    /// Whether this entry is a tombstone.
    pub fn is_tombstone(&self) -> bool {
        is_tombstone(self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for key in [0, 1, 12345, MAX_KEY] {
            assert_eq!(original_key(encode_regular(key)), key);
            assert_eq!(original_key(encode_tombstone(key)), key);
            assert!(is_regular(encode_regular(key)));
            assert!(is_tombstone(encode_tombstone(key)));
        }
    }

    #[test]
    fn tombstone_sorts_before_regular_in_full_word_order() {
        // The batch radix sort orders by the full encoded word; for the same
        // key the tombstone (LSB 0) must come first.
        let key = 777;
        assert!(encode_tombstone(key) < encode_regular(key));
    }

    #[test]
    fn key_less_ignores_status_bit() {
        assert!(!key_less(&encode_tombstone(5), &encode_regular(5)));
        assert!(!key_less(&encode_regular(5), &encode_tombstone(5)));
        assert!(key_less(&encode_regular(4), &encode_tombstone(5)));
        assert!(!key_less(&encode_regular(6), &encode_tombstone(5)));
    }

    #[test]
    fn placebo_is_max_key_tombstone() {
        let p = placebo();
        assert!(is_tombstone(p));
        assert_eq!(original_key(p), MAX_KEY);
        // No regular encoded key with a valid key compares greater under the
        // key-only ordering.
        assert!(!key_less(&p, &encode_regular(MAX_KEY)));
        assert!(!key_less(&encode_regular(MAX_KEY), &p));
    }

    #[test]
    fn entry_constructors() {
        let e = Entry::regular(10, 99);
        assert_eq!(e.original_key(), 10);
        assert!(!e.is_tombstone());
        assert_eq!(e.value, 99);
        let t = Entry::tombstone(10);
        assert!(t.is_tombstone());
        assert_eq!(t.original_key(), 10);
    }

    #[test]
    fn max_key_is_31_bits() {
        assert_eq!(MAX_KEY, 0x7FFF_FFFF);
        assert_eq!(encode_regular(MAX_KEY), u32::MAX);
    }
}
