//! FNV-1a (64-bit), the workspace's one checksum and key hash: serve
//! request keys, tenant tags on flight events, state fingerprints, and
//! the property-test seeds all use it, so equal inputs hash equal across
//! crates.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
}

/// Extends an FNV-1a hash with one little-endian `u64` word — for
/// building keys out of mixed string/scalar fields without allocating an
/// intermediate buffer.
pub fn fnv1a_word(h: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_keys_are_stable_and_order_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a(b"tiny"), fnv1a(b"small"));
        let a = fnv1a_word(fnv1a(b"k"), 1);
        let b = fnv1a_word(fnv1a(b"k"), 2);
        assert_ne!(a, b);
        assert_ne!(
            fnv1a_word(fnv1a_word(0, 1), 2),
            fnv1a_word(fnv1a_word(0, 2), 1)
        );
        // A word is its eight little-endian bytes.
        assert_eq!(
            fnv1a_word(fnv1a(b"k"), 0x0102),
            fnv1a(b"k\x02\x01\0\0\0\0\0\0")
        );
    }
}
