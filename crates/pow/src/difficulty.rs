//! Monero-style difficulty arithmetic.
//!
//! A PoW hash `h` (interpreted as a little-endian 256-bit integer)
//! satisfies difficulty `D` iff `h * D < 2^256`. Equivalently, the expected
//! number of random hashes needed to find a satisfying one is `D`. This is
//! exactly Monero's `check_hash`, implemented here with explicit 64-bit
//! limb arithmetic so the overflow check is auditable.

use minedig_primitives::Hash32;

/// Network or share difficulty. A plain `u64` is sufficient: Monero's 2018
/// difficulty (~55.4 G per the paper) is far below `2^64`.
pub type Difficulty = u64;

/// Returns true iff `hash * difficulty < 2^256` (Monero `check_hash`).
pub fn check_hash(hash: &Hash32, difficulty: Difficulty) -> bool {
    if difficulty == 0 {
        return true;
    }
    // hash as 4 little-endian 64-bit limbs, least significant first.
    let limbs: [u64; 4] =
        std::array::from_fn(|i| u64::from_le_bytes(hash.0[i * 8..i * 8 + 8].try_into().unwrap()));
    let mut carry: u64 = 0;
    for limb in limbs {
        let product = (limb as u128) * (difficulty as u128) + carry as u128;
        carry = (product >> 64) as u64;
    }
    // The final carry is the part of the product at or above 2^256.
    carry == 0
}

/// Expected number of hash evaluations to satisfy `difficulty`; by the
/// definition of the check this is the difficulty itself.
pub fn expected_hashes(difficulty: Difficulty) -> u64 {
    difficulty
}

/// Builds a hash that *just* satisfies the given difficulty, and one that
/// just misses it. Useful for protocol tests without grinding real PoW.
pub fn boundary_hashes(difficulty: Difficulty) -> (Hash32, Hash32) {
    // h satisfies D iff h < ceil(2^256 / D) i.e. h <= (2^256 - 1) / D.
    let mut quotient = [0u64; 4];
    let mut remainder: u128 = 0;
    for i in (0..4).rev() {
        let cur = (remainder << 64) | u64::MAX as u128;
        quotient[i] = (cur / difficulty as u128) as u64;
        remainder = cur % difficulty as u128;
    }
    let mut pass = [0u8; 32];
    for (i, limb) in quotient.iter().enumerate() {
        pass[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
    }
    // pass + 1 fails (unless pass is already the max value).
    let mut fail = pass;
    for b in fail.iter_mut() {
        let (v, overflow) = b.overflowing_add(1);
        *b = v;
        if !overflow {
            break;
        }
    }
    (Hash32(pass), Hash32(fail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hash_from_low(v: u64) -> Hash32 {
        let mut h = [0u8; 32];
        h[0..8].copy_from_slice(&v.to_le_bytes());
        Hash32(h)
    }

    fn hash_all_ff() -> Hash32 {
        Hash32([0xff; 32])
    }

    #[test]
    fn difficulty_one_accepts_everything() {
        assert!(check_hash(&hash_all_ff(), 1));
        assert!(check_hash(&Hash32::ZERO, 1));
    }

    #[test]
    fn zero_hash_satisfies_any_difficulty() {
        assert!(check_hash(&Hash32::ZERO, u64::MAX));
    }

    #[test]
    fn max_hash_fails_difficulty_two() {
        assert!(!check_hash(&hash_all_ff(), 2));
    }

    #[test]
    fn small_hash_large_difficulty() {
        // hash = 1 (as 256-bit LE). 1 * D < 2^256 always for u64 D.
        assert!(check_hash(&hash_from_low(1), u64::MAX));
    }

    #[test]
    fn boundary_is_exact() {
        for d in [2u64, 3, 1000, 55_400_000_000, u64::MAX] {
            let (pass, fail) = boundary_hashes(d);
            assert!(check_hash(&pass, d), "pass boundary failed for {d}");
            assert!(!check_hash(&fail, d), "fail boundary passed for {d}");
        }
    }

    #[test]
    fn expected_hashes_is_identity() {
        assert_eq!(expected_hashes(1234), 1234);
    }

    proptest! {
        #[test]
        fn check_matches_u256_reference(limbs in prop::array::uniform4(any::<u64>()), d in 1u64..) {
            // Reference: full 256x64 multiply via u128 chain, tracking
            // whether any bit at or above 2^256 is set.
            let mut h = [0u8; 32];
            for (i, limb) in limbs.iter().enumerate() {
                h[i*8..i*8+8].copy_from_slice(&limb.to_le_bytes());
            }
            let hash = Hash32(h);

            let mut carry: u128 = 0;
            let mut overflowed = false;
            for limb in limbs {
                let p = (limb as u128) * (d as u128) + carry;
                carry = p >> 64;
                let _ = p as u64;
            }
            if carry != 0 { overflowed = true; }
            prop_assert_eq!(check_hash(&hash, d), !overflowed);
        }

        #[test]
        fn monotone_in_difficulty(limbs in prop::array::uniform4(any::<u64>()), d in 2u64..) {
            let mut h = [0u8; 32];
            for (i, limb) in limbs.iter().enumerate() {
                h[i*8..i*8+8].copy_from_slice(&limb.to_le_bytes());
            }
            let hash = Hash32(h);
            // If a hash passes difficulty d it must pass all lower difficulties.
            if check_hash(&hash, d) {
                prop_assert!(check_hash(&hash, d - 1));
                prop_assert!(check_hash(&hash, 1));
            }
        }
    }
}
