//! FNV-1a 64-bit, the workspace's one content digest: snapshot headers,
//! corpus witnesses, the planner-scale decision digest, the compare
//! grid digest and every pinned-output test hash through it. Small,
//! std-only and stable across platforms; collision resistance beyond
//! accident detection is not required anywhere it is used.

/// The FNV-1a 64-bit offset basis: the digest of no bytes, and the
/// starting value for [`fnv1a64_update`].
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, in one shot.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV1A64_OFFSET, bytes)
}

/// Folds `bytes` into a running FNV-1a `hash` (start from
/// [`FNV1A64_OFFSET`]): hashing in pieces gives the one-shot digest of
/// their concatenation. For one little-endian `u64` word,
/// [`fnv1a64_update_u64`] gives the same hash with fewer multiplies.
#[inline]
pub fn fnv1a64_update(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV1A64_PRIME))
}

/// `FNV1A64_PRIME.pow(k)` (wrapping) for `k` in `0..=8`.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(FNV1A64_PRIME);
        k += 1;
    }
    powers
};

/// Folds the 8 little-endian bytes of `word` into a running FNV-1a
/// `hash`: exactly `fnv1a64_update(hash, &word.to_le_bytes())`.
///
/// A zero byte only multiplies by the prime, so the word's zero high
/// bytes collapse into one multiply by a precomputed prime power: a
/// small word costs two dependent multiplies instead of eight. The
/// planner-scale digest folds two small words per application per
/// epoch through this, so it is inlined into that loop across crates.
#[inline]
pub fn fnv1a64_update_u64(hash: u64, word: u64) -> u64 {
    let significant = 8 - word.leading_zeros() as usize / 8;
    let mut h = hash;
    let mut rest = word;
    for _ in 0..significant {
        h = (h ^ (rest & 0xff)).wrapping_mul(FNV1A64_PRIME);
        rest >>= 8;
    }
    h.wrapping_mul(PRIME_POWERS[8 - significant])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn updates_compose_to_the_one_shot_digest() {
        let split = fnv1a64_update(fnv1a64_update(FNV1A64_OFFSET, b"foo"), b"bar");
        assert_eq!(split, fnv1a64(b"foobar"));
    }

    #[test]
    fn word_fold_matches_the_byte_fold() {
        let mut words = vec![
            0,
            1,
            0xff,
            0x100,
            0x8000,
            1 << 56,
            u64::MAX,
            0x0100_0000_0000_0001,
        ];
        words.extend((0..64).map(|s| 1u64 << s));
        words.extend((0..64).map(|s| u64::MAX >> s));
        let mut h = FNV1A64_OFFSET;
        for &w in &words {
            let bytes = fnv1a64_update(h, &w.to_le_bytes());
            h = fnv1a64_update_u64(h, w);
            assert_eq!(h, bytes, "word {w:#x}");
        }
    }
}
