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
/// their concatenation.
///
/// Inlined across crates: the planner-scale digest folds two 8-byte
/// words per application per epoch, where an out-of-line call costs
/// ~20 % of the run.
#[inline]
pub fn fnv1a64_update(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV1A64_PRIME))
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
}
